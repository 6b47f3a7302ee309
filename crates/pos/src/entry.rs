//! Index-node entries.
//!
//! Each entry references one child chunk: its cid, the number of elements
//! in the child's subtree (bytes for Blob), and — for sorted types — the
//! largest key in the subtree (the split key guiding lookups, §4.3.1).
//!
//! The paper stores counts only in UIndex entries; we keep them in SIndex
//! entries too, which adds O(log n) positional access and O(1) `len()` to
//! sorted types at a few bytes per entry. This is a strict superset of the
//! paper's structure and does not affect any measured behaviour.
//!
//! # Nodes are read in place
//!
//! An [`IndexNode`] keeps the payload the store returned and one table
//! built in a single parse pass: where each entry starts and the running
//! element count through it. [`IndexNode::entry`] lends an entry out as
//! an [`EntryRef`] — the cid and the split key borrowed from the payload —
//! so walking a node copies no cid and takes no refcount per entry. An
//! owned [`IndexEntry`] ([`EntryRef::to_owned`]) is made only where an
//! entry is kept: the builder's groups and patches, the merge's leaf
//! regions.

use crate::metrics;
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint, put_bytes, put_varint};
use forkbase_crypto::Digest;

/// One index entry: `(child cid, subtree element count, split key)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Content identifier of the child chunk.
    pub cid: Digest,
    /// Elements in the child's subtree (bytes for Blob trees).
    pub count: u64,
    /// Largest key in the child's subtree; empty for unsorted types.
    pub key: Bytes,
}

/// Encode an index-chunk payload: `[level][entry]*` where `level` is the
/// height of this node (1 = children are leaves). The level byte lets a
/// reader find the leaf-entry level without fetching leaf chunks.
pub fn encode_index_payload(level: u64, entries: &[IndexEntry], sorted: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * (Digest::LEN + 10) + 2);
    put_varint(&mut out, level);
    for e in entries {
        out.extend_from_slice(e.cid.as_bytes());
        put_varint(&mut out, e.count);
        if sorted {
            put_bytes(&mut out, &e.key);
        }
    }
    out
}

/// Where one entry of an [`IndexNode`] lies in its payload.
struct Slot {
    /// Byte offset of the cid.
    cid: usize,
    /// Byte range of the split key; empty for unsorted types.
    key: (usize, usize),
    /// Elements in this entry's subtree and in every one before it.
    end: u64,
}

/// A parsed index chunk whose entries are read in place.
pub struct IndexNode {
    payload: Bytes,
    level: u64,
    slots: Vec<Slot>,
}

/// One entry of an [`IndexNode`], borrowed from the node's payload.
#[derive(Clone, Copy)]
pub struct EntryRef<'a> {
    /// Content identifier of the child chunk.
    pub cid: &'a Digest,
    /// Elements in the child's subtree (bytes for Blob trees).
    pub count: u64,
    /// Largest key in the child's subtree; empty for unsorted types.
    pub key: &'a [u8],
    payload: &'a Bytes,
}

impl EntryRef<'_> {
    /// The entry as an owned [`IndexEntry`]; its key is a zero-copy slice
    /// of the node's payload.
    pub fn to_owned(self) -> IndexEntry {
        let at = self.key.as_ptr() as usize - self.payload.as_ptr() as usize;
        IndexEntry {
            cid: *self.cid,
            count: self.count,
            key: self.payload.slice(at..at + self.key.len()),
        }
    }
}

impl IndexNode {
    /// Parse an index-chunk payload in one pass. `None` where the old
    /// entry-list decode failed — a truncated level, cid, count or key —
    /// and where the counts sum past `u64::MAX`, which no tree reader
    /// accepted either.
    pub fn parse(payload: Bytes, sorted: bool) -> Option<IndexNode> {
        let buf: &[u8] = &payload;
        let mut pos = 0;
        let level = get_varint(buf, &mut pos)?;
        // No entry is shorter than a cid, a one-byte count and (sorted) a
        // one-byte key length: room for every entry the payload can hold.
        let mut slots = Vec::with_capacity(buf.len() / (Digest::LEN + 1 + usize::from(sorted)));
        let mut end = 0u64;
        while pos < buf.len() {
            let cid = pos;
            if buf.len() - pos < Digest::LEN {
                return None;
            }
            pos += Digest::LEN;
            end = end.checked_add(get_varint(buf, &mut pos)?)?;
            let key_len = if sorted {
                get_bytes(buf, &mut pos)?.len()
            } else {
                0
            };
            let key = (pos - key_len, pos);
            slots.push(Slot { cid, key, end });
        }
        metrics::parsed(slots.len());
        Some(IndexNode {
            payload,
            level,
            slots,
        })
    }

    /// The node's height: 1 = its children are leaves.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for a node with no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Elements under the whole node.
    pub fn total(&self) -> u64 {
        self.before(self.len())
    }

    /// Elements under the first `i` entries (`i <= len()`).
    pub fn before(&self, i: usize) -> u64 {
        i.checked_sub(1).map_or(0, |last| self.slots[last].end)
    }

    /// Index of the entry holding element `off` of the node; `len()` if
    /// `off` is past its last.
    pub fn find(&self, off: u64) -> usize {
        self.slots.partition_point(|s| s.end <= off)
    }

    /// Index of the first entry whose split key is not below `key`, by
    /// binary search; `len()` if there is none.
    pub fn lower_bound(&self, key: &[u8]) -> usize {
        self.slots
            .partition_point(|s| &self.payload[s.key.0..s.key.1] < key)
    }

    /// The `i`-th entry, borrowed; `None` past the last.
    pub fn entry(&self, i: usize) -> Option<EntryRef<'_>> {
        let s = self.slots.get(i)?;
        Some(EntryRef {
            cid: Digest::from_array_ref(self.payload.get(s.cid..)?.first_chunk()?),
            count: s.end - self.before(i),
            key: self.payload.get(s.key.0..s.key.1)?,
            payload: &self.payload,
        })
    }

    /// Every entry, in order.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        (0..self.len()).filter_map(|i| self.entry(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::hash_bytes;

    fn entry(name: &[u8], count: u64, key: &'static [u8]) -> IndexEntry {
        IndexEntry {
            cid: hash_bytes(name),
            count,
            key: Bytes::from_static(key),
        }
    }

    fn parsed(entries: &[IndexEntry], level: u64, sorted: bool) -> (u64, Vec<IndexEntry>) {
        let payload = Bytes::from(encode_index_payload(level, entries, sorted));
        let node = IndexNode::parse(payload, sorted).expect("valid");
        (
            node.level(),
            node.entries().map(EntryRef::to_owned).collect(),
        )
    }

    #[test]
    fn unsorted_round_trip() {
        let entries = vec![entry(b"a", 100, b""), entry(b"b", 3, b"")];
        assert_eq!(parsed(&entries, 1, false), (1, entries));
    }

    #[test]
    fn sorted_round_trip() {
        let entries = vec![
            entry(b"x", 10, b"key-199"),
            entry(b"y", 20, b"key-999"),
            entry(b"z", 1, b""),
        ];
        assert_eq!(parsed(&entries, 3, true), (3, entries));
    }

    #[test]
    fn decode_rejects_truncation() {
        let entries = vec![entry(b"a", 7, b"")];
        let mut payload = encode_index_payload(1, &entries, false);
        payload.truncate(payload.len() - 1);
        assert!(IndexNode::parse(Bytes::from(payload), false).is_none());
    }

    #[test]
    fn empty_payload_decodes_to_no_entries() {
        let payload = Bytes::from(encode_index_payload(2, &[], true));
        let node = IndexNode::parse(payload, true).expect("valid");
        assert_eq!((node.level(), node.len(), node.total()), (2, 0, 0));
    }

    #[test]
    fn counts_accumulate_and_locate_elements() {
        let counts = [4u64, 0, 3, 5];
        let entries: Vec<IndexEntry> = counts
            .iter()
            .map(|&c| entry(&c.to_le_bytes(), c, b""))
            .collect();
        let node = IndexNode::parse(Bytes::from(encode_index_payload(1, &entries, false)), false)
            .expect("valid");
        assert_eq!(node.total(), 12);
        assert_eq!(
            (0..=4).map(|i| node.before(i)).collect::<Vec<_>>(),
            [0, 4, 4, 7, 12]
        );
        // An empty entry holds no element: offset 4 is in the third.
        let at: Vec<usize> = [0, 3, 4, 6, 7, 11, 12].map(|o| node.find(o)).to_vec();
        assert_eq!(at, [0, 0, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn a_count_sum_past_u64_is_rejected() {
        let entries = vec![entry(b"a", u64::MAX, b""), entry(b"b", 1, b"")];
        let payload = Bytes::from(encode_index_payload(1, &entries, false));
        assert!(IndexNode::parse(payload, false).is_none());
    }
}
