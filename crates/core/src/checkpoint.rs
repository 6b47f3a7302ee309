//! Branch-table checkpoints — durable refs for the engine.
//!
//! The chunk store persists every version, but the branch tables (TB/UB,
//! §4.5) live in servlet memory: after a restart the data is all there
//! and fully verifiable by uid, yet the *names* — which uid is the head
//! of `master` for key `k` — are gone. A checkpoint serializes every
//! branch table into a single content-addressed
//! [`Checkpoint`](forkbase_chunk::ChunkType::Checkpoint) chunk
//! (cf. git's packed-refs). The returned cid is the only piece of state
//! an operator must keep outside the store to reopen an instance with
//! [`ForkBase::restore`](crate::ForkBase::restore).
//!
//! Checkpoints are deterministic: the same branch state always encodes to
//! the same bytes, hence the same cid — taking a checkpoint twice costs
//! one deduplicated chunk.
//!
//! A checkpoint taken while the hot tier holds persisted edits that no
//! publish round has put in the tree yet ([`crate::hot`]) ends in one
//! more section: the roots of those journal Blobs, in order, and each
//! key's hot mark (the edit number below which its edits are in its
//! head). Reopening replays the journals' edits at or above their key's
//! mark. A checkpoint without journals has no such section, and its
//! bytes are what they were before the section existed.

use crate::error::{FbError, Result};
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint, put_bytes, put_varint};
use forkbase_chunk::{Chunk, ChunkType};
use forkbase_crypto::Digest;

/// One key's branch table: (key, tagged branches sorted by name,
/// untagged heads sorted).
pub type BranchEntry = (Bytes, Vec<(String, Digest)>, Vec<Digest>);

/// Serializable image of every key's branch table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Per key; keys sorted, so encoding is canonical.
    pub entries: Vec<BranchEntry>,
    /// Roots of the hot tier's journal Blobs still to replay, oldest
    /// first. Empty outside a checkpoint chunk's trailing section.
    pub journal: Vec<Digest>,
    /// Per key with a nonzero hot mark, sorted: replay skips the key's
    /// journaled edits numbered below it. Written only with `journal`.
    pub marks: Vec<(Bytes, u64)>,
}

impl BranchSnapshot {
    /// Number of keys captured.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// Every head (tagged and untagged) in the snapshot — the GC root
    /// set.
    pub fn heads(&self) -> impl Iterator<Item = Digest> + '_ {
        self.entries.iter().flat_map(|(_, tagged, untagged)| {
            tagged
                .iter()
                .map(|(_, h)| *h)
                .chain(untagged.iter().copied())
        })
    }

    /// Serialize into a [`ChunkType::Checkpoint`] chunk.
    pub fn to_chunk(&self) -> Chunk {
        let mut out = Vec::new();
        put_varint(&mut out, self.entries.len() as u64);
        for (key, tagged, untagged) in &self.entries {
            put_bytes(&mut out, key);
            put_varint(&mut out, tagged.len() as u64);
            for (name, head) in tagged {
                put_bytes(&mut out, name.as_bytes());
                out.extend_from_slice(head.as_bytes());
            }
            put_varint(&mut out, untagged.len() as u64);
            for head in untagged {
                out.extend_from_slice(head.as_bytes());
            }
        }
        if !self.journal.is_empty() {
            put_varint(&mut out, self.journal.len() as u64);
            for root in &self.journal {
                out.extend_from_slice(root.as_bytes());
            }
            put_varint(&mut out, self.marks.len() as u64);
            for (key, mark) in &self.marks {
                put_bytes(&mut out, key);
                put_varint(&mut out, *mark);
            }
        }
        Chunk::new(ChunkType::Checkpoint, out)
    }

    /// Decode a checkpoint chunk payload.
    pub fn decode(payload: &[u8]) -> Result<BranchSnapshot> {
        let corrupt = || FbError::Corrupt("bad checkpoint encoding".into());
        let read_digest = |payload: &[u8], pos: &mut usize| -> Result<Digest> {
            let end = pos.checked_add(32).ok_or_else(corrupt)?;
            if payload.len() < end {
                return Err(corrupt());
            }
            let d = Digest::from_slice(&payload[*pos..end]).ok_or_else(corrupt)?;
            *pos = end;
            Ok(d)
        };

        let mut pos = 0usize;
        let n_keys = get_varint(payload, &mut pos).ok_or_else(corrupt)? as usize;
        if n_keys > payload.len() {
            return Err(corrupt());
        }
        let mut entries = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let key = Bytes::copy_from_slice(get_bytes(payload, &mut pos).ok_or_else(corrupt)?);
            let n_tagged = get_varint(payload, &mut pos).ok_or_else(corrupt)? as usize;
            if n_tagged > payload.len() {
                return Err(corrupt());
            }
            let mut tagged = Vec::with_capacity(n_tagged);
            for _ in 0..n_tagged {
                let name =
                    String::from_utf8(get_bytes(payload, &mut pos).ok_or_else(corrupt)?.to_vec())
                        .map_err(|_| corrupt())?;
                let head = read_digest(payload, &mut pos)?;
                tagged.push((name, head));
            }
            let n_untagged = get_varint(payload, &mut pos).ok_or_else(corrupt)? as usize;
            if n_untagged > payload.len() {
                return Err(corrupt());
            }
            let mut untagged = Vec::with_capacity(n_untagged);
            for _ in 0..n_untagged {
                untagged.push(read_digest(payload, &mut pos)?);
            }
            entries.push((key, tagged, untagged));
        }
        let (mut journal, mut marks) = (Vec::new(), Vec::new());
        if pos < payload.len() {
            let n_journal = get_varint(payload, &mut pos).ok_or_else(corrupt)? as usize;
            if n_journal == 0 || n_journal > payload.len() {
                return Err(corrupt());
            }
            for _ in 0..n_journal {
                journal.push(read_digest(payload, &mut pos)?);
            }
            let n_marks = get_varint(payload, &mut pos).ok_or_else(corrupt)? as usize;
            if n_marks > payload.len() {
                return Err(corrupt());
            }
            for _ in 0..n_marks {
                let key = Bytes::copy_from_slice(get_bytes(payload, &mut pos).ok_or_else(corrupt)?);
                marks.push((key, get_varint(payload, &mut pos).ok_or_else(corrupt)?));
            }
            if pos != payload.len() {
                return Err(corrupt());
            }
        }
        Ok(BranchSnapshot {
            entries,
            journal,
            marks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::hash_bytes;

    fn sample() -> BranchSnapshot {
        BranchSnapshot {
            entries: vec![
                (
                    Bytes::from("alpha"),
                    vec![
                        ("feature".to_string(), hash_bytes(b"f")),
                        ("master".to_string(), hash_bytes(b"m")),
                    ],
                    vec![hash_bytes(b"u1"), hash_bytes(b"u2")],
                ),
                (Bytes::from("beta"), vec![], vec![hash_bytes(b"u3")]),
                (Bytes::from("empty-key"), vec![], vec![]),
            ],
            ..BranchSnapshot::default()
        }
    }

    fn with_journal() -> BranchSnapshot {
        BranchSnapshot {
            journal: vec![hash_bytes(b"j1"), hash_bytes(b"j2")],
            marks: vec![(Bytes::from("alpha"), 300), (Bytes::from("beta"), 7)],
            ..sample()
        }
    }

    #[test]
    fn round_trip() {
        let snap = sample();
        let chunk = snap.to_chunk();
        assert_eq!(chunk.ty(), ChunkType::Checkpoint);
        let back = BranchSnapshot::decode(chunk.payload()).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn journal_section_round_trips() {
        let snap = with_journal();
        let back = BranchSnapshot::decode(snap.to_chunk().payload()).expect("decode");
        assert_eq!(back, snap);
        assert_ne!(snap.to_chunk().cid(), sample().to_chunk().cid());
    }

    /// `sample()`'s checkpoint as the encoding before journals existed
    /// wrote it: it still decodes, and a checkpoint without a journal
    /// still encodes to exactly these bytes.
    #[test]
    fn a_checkpoint_from_before_journals_decodes() {
        const PAYLOAD: &str = "0305616c706861020766656174757265252f10c83610ebca1a059c0bae8255eba2\
            f95be4d1d7bcfa89d7248a82d9f111066d617374657262c66a7a5dd70c3146618063c344e531e6d4b59e\
            379808443ce962b3abd63c5a02bb82030dbc2bcaba32a90bf2e207a84a856fc5f033b77c480836ab6f77\
            f40f196ca202c88e549dff68c09bfafbfc60b2fac074debc1e6777e9ba4b6c703ed114046265746100010\
            11e39efe22590f4a339ad19cd180f4d855e32feba602d1ec8e154780838c99c09656d7074792d6b65790000";
        let old: Vec<u8> = (0..PAYLOAD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PAYLOAD[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(BranchSnapshot::decode(&old).expect("decode"), sample());
        let chunk = sample().to_chunk();
        assert_eq!(chunk.payload().as_ref(), old.as_slice());
        assert_eq!(
            chunk.cid().to_hex(),
            "b3d377fe95e542de311da158f6351e0448e72c72876d941b52973d0c4009f12c"
        );
    }

    #[test]
    fn canonical_encoding_is_deterministic() {
        assert_eq!(sample().to_chunk().cid(), sample().to_chunk().cid());
        // A different head changes the cid.
        let mut other = sample();
        other.entries[0].1[0].1 = hash_bytes(b"different");
        assert_ne!(other.to_chunk().cid(), sample().to_chunk().cid());
    }

    #[test]
    fn heads_enumerates_gc_roots() {
        let snap = sample();
        let heads: Vec<_> = snap.heads().collect();
        assert_eq!(heads.len(), 5, "2 tagged + 3 untagged");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BranchSnapshot::decode(&[0xFF; 3]).is_err());
        let chunk = sample().to_chunk();
        let payload = chunk.payload();
        for cut in [1, 5, payload.len() - 1] {
            assert!(
                BranchSnapshot::decode(&payload[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        // Inside the journal section every cut is corrupt.
        let plain = sample().to_chunk().payload().len();
        let chunk = with_journal().to_chunk();
        let payload = chunk.payload();
        for cut in plain + 1..payload.len() {
            assert!(
                BranchSnapshot::decode(&payload[..cut]).is_err(),
                "journal truncated at {cut}"
            );
        }
    }

    #[test]
    fn empty_snapshot() {
        let snap = BranchSnapshot::default();
        let back = BranchSnapshot::decode(snap.to_chunk().payload()).expect("decode");
        assert_eq!(back.key_count(), 0);
    }
}
