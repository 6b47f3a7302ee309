//! An ordered buffer of keyed edits, applied to a sorted tree in a single
//! splice.
//!
//! One-at-a-time `Map::put` re-walks and re-splices the whole tree per
//! key. A [`WriteBatch`] collects puts and deletes in application order
//! and hands them to [`update_sorted`](crate::update::update_sorted) as
//! one batch: edits are normalized (sorted, last-wins on duplicate keys),
//! every affected leaf region is re-chunked exactly once, and the index
//! levels are rebuilt once at the end. The resulting root is bit-identical
//! to folding the same edits through sequential `put`/`del` calls — the
//! batch-equivalence proptests pin that down — while the cost per edit
//! drops by orders of magnitude for large batches.
//!
//! The same buffer works for Maps (`put`/`delete`) and Sets
//! (`insert`/`delete`): a Set element is an [`Item`] with an empty value.

use crate::leaf::Item;
use crate::update::Edit;
use bytes::Bytes;

/// An ordered edit buffer with last-wins semantics, RocksDB-WriteBatch
/// style. Build it up with [`put`](WriteBatch::put) /
/// [`delete`](WriteBatch::delete), then apply it atomically with
/// [`Map::apply`](crate::tree::Map::apply) or
/// [`Set::apply`](crate::tree::Set::apply).
#[derive(Clone, Debug, Default)]
pub struct WriteBatch {
    edits: Vec<Edit>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// An empty batch with room for `n` edits.
    pub fn with_capacity(n: usize) -> WriteBatch {
        WriteBatch {
            edits: Vec::with_capacity(n),
        }
    }

    /// Buffer an insert-or-replace of `key` → `value` (Map entries).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> &mut Self {
        self.edits.push(Edit::Put(Item {
            key: key.into(),
            value: value.into(),
        }));
        self
    }

    /// Buffer an insert of `key` (Set elements).
    pub fn insert(&mut self, key: impl Into<Bytes>) -> &mut Self {
        self.edits.push(Edit::Put(Item::set(key.into())));
        self
    }

    /// Buffer a delete of `key`. Deleting an absent key is a no-op when
    /// the batch is applied.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> &mut Self {
        self.edits.push(Edit::Del(key.into()));
        self
    }

    /// Number of buffered edits (before duplicate-key collapsing).
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Drop all buffered edits, keeping the allocation.
    pub fn clear(&mut self) {
        self.edits.clear();
    }

    /// The buffered edits in application order.
    pub fn iter(&self) -> impl Iterator<Item = &Edit> {
        self.edits.iter()
    }

    /// Consume the batch as a raw edit list in application order.
    pub fn into_edits(self) -> Vec<Edit> {
        self.edits
    }
}

impl Extend<Edit> for WriteBatch {
    fn extend<I: IntoIterator<Item = Edit>>(&mut self, iter: I) {
        self.edits.extend(iter);
    }
}

impl FromIterator<Edit> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = Edit>>(iter: I) -> WriteBatch {
        WriteBatch {
            edits: iter.into_iter().collect(),
        }
    }
}

/// `Some(value)` puts, `None` deletes — the shape latest-state edits
/// travel in before they become a batch.
impl<K: Into<Bytes>> FromIterator<(K, Option<Bytes>)> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = (K, Option<Bytes>)>>(iter: I) -> WriteBatch {
        iter.into_iter()
            .map(|(key, value)| match value {
                Some(value) => Edit::Put(Item {
                    key: key.into(),
                    value,
                }),
                None => Edit::Del(key.into()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::normalize_edits;

    #[test]
    fn collects_optional_values_as_puts_and_deletes() {
        let wb: WriteBatch = [("a", Some(Bytes::from("1"))), ("b", None)]
            .into_iter()
            .collect();
        assert_eq!(
            wb.into_edits(),
            vec![Edit::Put(Item::map("a", "1")), Edit::Del(Bytes::from("b"))]
        );
    }

    #[test]
    fn buffers_in_order_with_last_wins_on_normalize() {
        let mut wb = WriteBatch::new();
        wb.put("b", "1").delete("a").put("b", "2").insert("c");
        assert_eq!(wb.len(), 4);
        let normalized = normalize_edits(wb.into_edits());
        assert_eq!(normalized.len(), 3, "duplicate key collapsed");
        assert_eq!(normalized[0], Edit::Del(Bytes::from("a")));
        assert_eq!(normalized[1], Edit::Put(Item::map("b", "2")), "last wins");
        assert_eq!(normalized[2], Edit::Put(Item::set("c")));
    }

    #[test]
    fn clear_and_reuse() {
        let mut wb = WriteBatch::with_capacity(8);
        wb.put("k", "v");
        assert!(!wb.is_empty());
        wb.clear();
        assert!(wb.is_empty());
        wb.delete("k");
        assert_eq!(wb.into_edits(), vec![Edit::Del(Bytes::from("k"))]);
    }
}
