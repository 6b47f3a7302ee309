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

impl IndexEntry {
    /// Entry for an unsorted child.
    pub fn unsorted(cid: Digest, count: u64) -> Self {
        IndexEntry {
            cid,
            count,
            key: Bytes::new(),
        }
    }

    /// Entry for a sorted child with split key `key`.
    pub fn sorted(cid: Digest, count: u64, key: impl Into<Bytes>) -> Self {
        IndexEntry {
            cid,
            count,
            key: key.into(),
        }
    }

    /// Serialize into an index-chunk payload.
    pub fn encode_into(&self, out: &mut Vec<u8>, sorted: bool) {
        out.extend_from_slice(self.cid.as_bytes());
        put_varint(out, self.count);
        if sorted {
            put_bytes(out, &self.key);
        }
    }
}

/// Encode an index-chunk payload: `[level][entry]*` where `level` is the
/// height of this node (1 = children are leaves). The level byte lets a
/// reader find the leaf-entry level without fetching leaf chunks.
pub fn encode_index_payload(level: u64, entries: &[IndexEntry], sorted: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * (Digest::LEN + 10) + 2);
    put_varint(&mut out, level);
    for e in entries {
        e.encode_into(&mut out, sorted);
    }
    out
}

/// Decode an index-chunk payload; returns `(level, entries)`. Split keys
/// are zero-copy slices of the shared `payload` buffer (no per-entry
/// allocation).
pub fn decode_index_payload(payload: &Bytes, sorted: bool) -> Option<(u64, Vec<IndexEntry>)> {
    let buf: &[u8] = payload;
    let mut pos = 0;
    let level = get_varint(buf, &mut pos)?;
    // No entry is shorter than a cid, a one-byte count and (sorted) a
    // one-byte key length: room for every entry the payload can hold.
    let mut entries = Vec::with_capacity(buf.len() / (Digest::LEN + 1 + usize::from(sorted)));
    while pos < buf.len() {
        if buf.len() < pos + Digest::LEN {
            return None;
        }
        let cid = Digest::from_slice(&buf[pos..pos + Digest::LEN])?;
        pos += Digest::LEN;
        let count = get_varint(buf, &mut pos)?;
        let key = if sorted {
            let sub = get_bytes(buf, &mut pos)?;
            let start = sub.as_ptr() as usize - buf.as_ptr() as usize;
            payload.slice(start..start + sub.len())
        } else {
            Bytes::new()
        };
        entries.push(IndexEntry { cid, count, key });
    }
    Some((level, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::hash_bytes;

    #[test]
    fn unsorted_round_trip() {
        let entries = vec![
            IndexEntry::unsorted(hash_bytes(b"a"), 100),
            IndexEntry::unsorted(hash_bytes(b"b"), 3),
        ];
        let payload = Bytes::from(encode_index_payload(1, &entries, false));
        let (level, decoded) = decode_index_payload(&payload, false).expect("valid");
        assert_eq!(level, 1);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn sorted_round_trip() {
        let entries = vec![
            IndexEntry::sorted(hash_bytes(b"x"), 10, &b"key-199"[..]),
            IndexEntry::sorted(hash_bytes(b"y"), 20, &b"key-999"[..]),
            IndexEntry::sorted(hash_bytes(b"z"), 1, &b""[..]),
        ];
        let payload = Bytes::from(encode_index_payload(3, &entries, true));
        let (level, decoded) = decode_index_payload(&payload, true).expect("valid");
        assert_eq!(level, 3);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn decode_rejects_truncation() {
        let entries = vec![IndexEntry::unsorted(hash_bytes(b"a"), 7)];
        let mut payload = encode_index_payload(1, &entries, false);
        payload.truncate(payload.len() - 1);
        assert!(decode_index_payload(&Bytes::from(payload), false).is_none());
    }

    #[test]
    fn empty_payload_decodes_to_no_entries() {
        let payload = Bytes::from(encode_index_payload(2, &[], true));
        let (level, decoded) = decode_index_payload(&payload, true).expect("valid");
        assert_eq!(level, 2);
        assert!(decoded.is_empty());
    }
}
