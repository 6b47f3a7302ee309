//! Leaf-chunk payload encodings for the four chunkable types.
//!
//! * `Blob` — raw bytes (an element is one byte).
//! * `List` — repeated length-prefixed values.
//! * `Set`  — repeated length-prefixed keys, sorted.
//! * `Map`  — repeated length-prefixed `(key, value)` pairs, sorted by key.
//!
//! Elements never span chunks (§4.3.2): the builder checks for a boundary
//! only after a whole element has been fed.

use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, put_bytes};

/// One element of a chunkable object.
///
/// The `key`/`value` roles per type: List uses only `value`; Set uses only
/// `key`; Map uses both; Blob elements are handled as raw bytes and never
/// materialized as `Item`s on the fast path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// Ordering key (Set, Map).
    pub key: Bytes,
    /// Payload value (List, Map).
    pub value: Bytes,
}

impl Item {
    /// A List element.
    pub fn list(value: impl Into<Bytes>) -> Item {
        Item {
            key: Bytes::new(),
            value: value.into(),
        }
    }

    /// A Set element.
    pub fn set(key: impl Into<Bytes>) -> Item {
        Item {
            key: key.into(),
            value: Bytes::new(),
        }
    }

    /// A Map entry.
    pub fn map(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Item {
        Item {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Serialized size of this item in a leaf of type `ty`.
    pub fn encoded_len(&self, ty: TreeType) -> usize {
        let var = |len: usize| forkbase_chunk::codec::varint_len(len as u64) + len;
        match ty {
            TreeType::Blob => self.value.len(),
            TreeType::List => var(self.value.len()),
            TreeType::Set => var(self.key.len()),
            TreeType::Map => var(self.key.len()) + var(self.value.len()),
        }
    }
}

/// Append the encoding of `item` for tree type `ty` to `out`.
pub fn encode_item(ty: TreeType, item: &Item, out: &mut Vec<u8>) {
    match ty {
        TreeType::Blob => out.extend_from_slice(&item.value),
        TreeType::List => put_bytes(out, &item.value),
        TreeType::Set => put_bytes(out, &item.key),
        TreeType::Map => {
            put_bytes(out, &item.key);
            put_bytes(out, &item.value);
        }
    }
}

/// Decode all items of a leaf payload as zero-copy slices of the shared
/// `payload` buffer (no per-item allocation; an item kept alive keeps its
/// leaf alive). For `Blob` this produces one item per byte — use the raw
/// payload instead on hot paths.
pub fn decode_items(ty: TreeType, payload: &Bytes) -> Option<Vec<Item>> {
    let slice = |(s, e): (usize, usize)| payload.slice(s..e);
    if ty == TreeType::Blob {
        return Some(
            (0..payload.len())
                .map(|i| Item::list(slice((i, i + 1))))
                .collect(),
        );
    }
    let mut raw = Vec::new();
    raw_items_of(ty, payload, &mut raw)?;
    let item = |r: &RawItem| Item {
        key: slice(r.key),
        value: slice(r.value),
    };
    Some(raw.iter().map(item).collect())
}

/// One element of a leaf payload as byte ranges into that payload —
/// nothing is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawItem {
    /// The item's full encoded bytes: `payload[span.0..span.1]`.
    pub span: (usize, usize),
    /// The key bytes within the payload (empty range for List).
    pub key: (usize, usize),
    /// The value bytes within the payload (empty range for Set).
    pub value: (usize, usize),
}

/// Streaming decoder over an item-leaf payload (List/Set/Map) yielding
/// byte spans instead of materialized [`Item`]s. The update hot path
/// walks old leaves with this: untouched elements are compared by key
/// slice and copied verbatim, with no per-item allocation or `Bytes`
/// refcount traffic (cf. [`decode_items`]).
pub struct RawItemCursor<'a> {
    ty: TreeType,
    data: &'a [u8],
    pos: usize,
    corrupt: bool,
}

impl<'a> RawItemCursor<'a> {
    /// Walk `data`, a leaf payload of type `ty` (not Blob — blob leaves
    /// are raw bytes).
    pub fn new(ty: TreeType, data: &'a [u8]) -> RawItemCursor<'a> {
        debug_assert!(ty != TreeType::Blob, "blob leaves are raw bytes");
        RawItemCursor {
            ty,
            data,
            pos: 0,
            corrupt: false,
        }
    }

    /// Next element, or `None` at the end of the payload. A `None` can
    /// also mean truncated/corrupt data — check
    /// [`finished_clean`](Self::finished_clean).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RawItem> {
        if self.pos >= self.data.len() || self.corrupt {
            return None;
        }
        let start = self.pos;
        let mut pos = self.pos;
        let Some(first) = get_bytes(self.data, &mut pos) else {
            self.corrupt = true;
            return None;
        };
        let first = (pos - first.len(), pos);
        let (key, value) = match self.ty {
            TreeType::List => ((0, 0), first),
            TreeType::Map => {
                let Some(v) = get_bytes(self.data, &mut pos) else {
                    self.corrupt = true;
                    return None;
                };
                (first, (pos - v.len(), pos))
            }
            _ => (first, (0, 0)),
        };
        self.pos = pos;
        Some(RawItem {
            span: (start, pos),
            key,
            value,
        })
    }

    /// True once the whole payload has decoded without error.
    pub fn finished_clean(&self) -> bool {
        !self.corrupt && self.pos == self.data.len()
    }
}

/// Decode `payload`, an item-leaf of type `ty`, into `out` as raw element
/// spans. `None` for a corrupt payload.
pub(crate) fn raw_items_of(ty: TreeType, payload: &[u8], out: &mut Vec<RawItem>) -> Option<()> {
    out.clear();
    let mut cursor = RawItemCursor::new(ty, payload);
    while let Some(raw) = cursor.next() {
        out.push(raw);
    }
    cursor.finished_clean().then_some(())
}

/// The element with key `key` in a sorted leaf payload, found without
/// materializing the others.
pub fn find_item(ty: TreeType, payload: &[u8], key: &[u8]) -> Option<Item> {
    debug_assert!(ty.is_sorted());
    let bytes = |(s, e): (usize, usize)| &payload[s..e];
    let mut cursor = RawItemCursor::new(ty, payload);
    std::iter::from_fn(|| cursor.next())
        .find(|r| bytes(r.key) >= key)
        .filter(|r| bytes(r.key) == key)
        .map(|r| Item::map(bytes(r.key).to_vec(), bytes(r.value).to_vec()))
}

/// Number of elements in a leaf payload without materializing them.
pub fn count_items(ty: TreeType, payload: &[u8]) -> Option<u64> {
    if ty == TreeType::Blob {
        return Some(payload.len() as u64);
    }
    let mut cursor = RawItemCursor::new(ty, payload);
    let n = std::iter::from_fn(|| cursor.next()).count();
    cursor.finished_clean().then_some(n as u64)
}

/// The largest (= last) key of a sorted leaf payload, if any.
pub fn last_key(ty: TreeType, payload: &[u8]) -> Option<Bytes> {
    debug_assert!(ty.is_sorted());
    let mut cursor = RawItemCursor::new(ty, payload);
    let (s, e) = std::iter::from_fn(|| cursor.next()).last()?.key;
    cursor
        .finished_clean()
        .then(|| Bytes::copy_from_slice(&payload[s..e]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trip() {
        let items = vec![
            Item::map("a", "1"),
            Item::map("b", ""),
            Item::map("cc", "333"),
        ];
        let mut payload = Vec::new();
        for i in &items {
            encode_item(TreeType::Map, i, &mut payload);
        }
        assert_eq!(
            decode_items(TreeType::Map, &Bytes::from(payload.clone())),
            Some(items.clone())
        );
        assert_eq!(count_items(TreeType::Map, &payload), Some(3));
        assert_eq!(last_key(TreeType::Map, &payload), Some(Bytes::from("cc")));
        let total: usize = items.iter().map(|i| i.encoded_len(TreeType::Map)).sum();
        assert_eq!(total, payload.len());
    }

    #[test]
    fn list_round_trip() {
        let items = vec![Item::list("one"), Item::list(""), Item::list("three")];
        let mut payload = Vec::new();
        for i in &items {
            encode_item(TreeType::List, i, &mut payload);
        }
        assert_eq!(
            decode_items(TreeType::List, &Bytes::from(payload.clone())),
            Some(items)
        );
        assert_eq!(count_items(TreeType::List, &payload), Some(3));
    }

    #[test]
    fn set_round_trip() {
        let items = vec![Item::set("alpha"), Item::set("beta")];
        let mut payload = Vec::new();
        for i in &items {
            encode_item(TreeType::Set, i, &mut payload);
        }
        assert_eq!(
            decode_items(TreeType::Set, &Bytes::from(payload.clone())),
            Some(items)
        );
        assert_eq!(last_key(TreeType::Set, &payload), Some(Bytes::from("beta")));
    }

    #[test]
    fn blob_counts_bytes() {
        assert_eq!(count_items(TreeType::Blob, b"hello"), Some(5));
        assert_eq!(count_items(TreeType::Blob, b""), Some(0));
    }

    #[test]
    fn corrupt_payload_rejected() {
        // Length prefix claims more bytes than present.
        let payload = [5u8, b'a', b'b'];
        assert_eq!(
            decode_items(TreeType::List, &Bytes::copy_from_slice(&payload)),
            None
        );
        assert_eq!(count_items(TreeType::List, &payload), None);
    }

    #[test]
    fn raw_cursor_matches_decode() {
        for ty in [TreeType::List, TreeType::Set, TreeType::Map] {
            let items = vec![
                Item {
                    key: Bytes::from("k-one"),
                    value: Bytes::from("value one"),
                },
                Item {
                    key: Bytes::from(""),
                    value: Bytes::from(""),
                },
                Item {
                    key: Bytes::from("k-three"),
                    value: Bytes::from(vec![9u8; 300]),
                },
            ];
            let mut payload = Vec::new();
            for i in &items {
                encode_item(ty, i, &mut payload);
            }
            let decoded = decode_items(ty, &Bytes::from(payload.clone())).expect("decode");
            let mut cursor = RawItemCursor::new(ty, &payload);
            let mut at = 0usize;
            let mut got = 0usize;
            while let Some(raw) = cursor.next() {
                assert_eq!(raw.span.0, at, "spans tile the payload");
                let key = &payload[raw.key.0..raw.key.1];
                if ty != TreeType::List {
                    assert_eq!(key, decoded[got].key.as_ref());
                }
                let value = &payload[raw.value.0..raw.value.1];
                if ty == TreeType::Set {
                    assert_eq!(raw.value, (0, 0));
                } else {
                    assert_eq!(value, decoded[got].value.as_ref());
                    assert_eq!(raw.value.1, raw.span.1, "a value ends its entry");
                }
                // Re-encoding the decoded item reproduces the span bytes.
                let mut re = Vec::new();
                encode_item(ty, &decoded[got], &mut re);
                assert_eq!(&payload[raw.span.0..raw.span.1], &re[..]);
                at = raw.span.1;
                got += 1;
            }
            assert_eq!(got, items.len());
            assert!(cursor.finished_clean());
        }
    }

    #[test]
    fn raw_cursor_flags_corruption() {
        let payload = [5u8, b'a', b'b'];
        let mut cursor = RawItemCursor::new(TreeType::List, &payload);
        assert!(cursor.next().is_none());
        assert!(!cursor.finished_clean());
    }
}
