//! The typed chunk and its content identifier.

use bytes::Bytes;
use forkbase_crypto::parallel::Task;
use forkbase_crypto::{hash_parts, Digest, Sha256};
use std::fmt;

/// Chunk content types (paper Table 2), plus `Primitive` for the embedded
/// payload of small objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ChunkType {
    /// Metadata for an FObject (the serialized FObject itself).
    Meta = 0,
    /// Index entries for unsorted chunkable types (Blob, List).
    UIndex = 1,
    /// Index entries for sorted chunkable types (Set, Map).
    SIndex = 2,
    /// A sequence of raw bytes.
    Blob = 3,
    /// A sequence of elements.
    List = 4,
    /// A sequence of sorted elements.
    Set = 5,
    /// A sequence of sorted key-value pairs.
    Map = 6,
    /// A branch-table checkpoint (an engine extension beyond Table 2 of
    /// the paper: durable refs, like git's packed-refs, so an instance
    /// can be reopened from the chunk store alone).
    Checkpoint = 7,
}

impl ChunkType {
    /// Decode from the on-wire tag byte.
    pub fn from_u8(v: u8) -> Option<ChunkType> {
        Some(match v {
            0 => ChunkType::Meta,
            1 => ChunkType::UIndex,
            2 => ChunkType::SIndex,
            3 => ChunkType::Blob,
            4 => ChunkType::List,
            5 => ChunkType::Set,
            6 => ChunkType::Map,
            7 => ChunkType::Checkpoint,
            _ => return None,
        })
    }

    /// True for the index-node chunk types.
    pub fn is_index(self) -> bool {
        matches!(self, ChunkType::UIndex | ChunkType::SIndex)
    }

    /// True for leaf chunk types of chunkable objects.
    pub fn is_leaf(self) -> bool {
        matches!(
            self,
            ChunkType::Blob | ChunkType::List | ChunkType::Set | ChunkType::Map
        )
    }
}

impl fmt::Display for ChunkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An immutable, typed, content-addressed chunk.
///
/// The cid commits to both the type tag and the payload, so a Map chunk and
/// a Blob chunk with identical payload bytes have different identities.
#[derive(Clone, PartialEq, Eq)]
pub struct Chunk {
    ty: ChunkType,
    payload: Bytes,
    cid: Digest,
}

impl Chunk {
    /// Create a chunk, computing its cid.
    pub fn new(ty: ChunkType, payload: impl Into<Bytes>) -> Chunk {
        let payload = payload.into();
        let cid = hash_parts(&[&[ty as u8], &payload]);
        Chunk { ty, payload, cid }
    }

    /// Create many chunks of one type at once, computing their independent
    /// cids in parallel when the batch is large enough to amortize the
    /// fan-out (see [`forkbase_crypto::hash_tagged_batch`]). Identical to
    /// mapping [`Chunk::new`] over `payloads`, in order.
    pub fn new_batch(ty: ChunkType, payloads: Vec<Bytes>) -> Vec<Chunk> {
        // One construction path: a contiguous payload is a one-span rope
        // (which `new_batch_ropes` passes through without copying).
        Self::new_batch_ropes(ty, payloads.into_iter().map(|p| vec![p]).collect())
    }

    /// Create many chunks of any types at once — what a batch decoded off
    /// the wire is — with their cids computed by one
    /// [`forkbase_crypto::hash_tagged_batch`] call. Identical to mapping
    /// [`Chunk::new`] over `parts`, in order.
    pub fn new_batch_mixed(parts: Vec<(ChunkType, Bytes)>) -> Vec<Chunk> {
        let inputs: Vec<(u8, &[u8])> = parts.iter().map(|(ty, p)| (*ty as u8, &p[..])).collect();
        let cids = forkbase_crypto::hash_tagged_batch(&inputs);
        parts
            .into_iter()
            .zip(cids)
            .map(|((ty, payload), cid)| Chunk { ty, payload, cid })
            .collect()
    }

    /// Create many chunks of one type from *rope* payloads — each payload
    /// a sequence of byte spans (typically zero-copy slices of input
    /// buffers or of previous-version leaves, plus small stitch
    /// segments). The cid is computed straight over the spans
    /// ([`forkbase_crypto::hash_tagged_parts_batch`]); nothing is
    /// concatenated for hashing. A single-span rope becomes the chunk
    /// payload as-is (no copy at all); multi-span ropes are materialized
    /// exactly once, after hashing. Identical to concatenating each rope
    /// and mapping [`Chunk::new`], in order.
    pub fn new_batch_ropes(ty: ChunkType, ropes: Vec<Vec<Bytes>>) -> Vec<Chunk> {
        let parts: Vec<Vec<&[u8]>> = ropes
            .iter()
            .map(|rope| rope.iter().map(|span| span.as_ref()).collect())
            .collect();
        let inputs: Vec<(u8, &[&[u8]])> = parts.iter().map(|p| (ty as u8, p.as_slice())).collect();
        let cids = forkbase_crypto::hash_tagged_parts_batch(&inputs);
        drop(inputs);
        drop(parts);
        ropes
            .into_iter()
            .zip(cids)
            .map(|(rope, cid)| Chunk::from_rope(ty, rope, cid))
            .collect()
    }

    /// [`new_batch_ropes`](Self::new_batch_ropes) as one job on a
    /// hash-pool worker ([`forkbase_crypto::parallel::spawn`]): returns
    /// at once, and the worker hashes the ropes one after another and
    /// materializes the multi-span payloads, so a builder can have the
    /// leaves it has cut turned into chunks while it cuts the next ones.
    /// Joining yields exactly what `new_batch_ropes` would have returned.
    pub fn spawn_batch_ropes(ty: ChunkType, ropes: Vec<Vec<Bytes>>) -> Task<Vec<Chunk>> {
        forkbase_crypto::parallel::spawn(move || {
            ropes
                .into_iter()
                .map(|rope| {
                    let mut h = Sha256::new();
                    h.update(&[ty as u8]);
                    rope.iter().for_each(|span| h.update(span));
                    Chunk::from_rope(ty, rope, h.finalize())
                })
                .collect()
        })
    }

    /// The chunk of a rope whose cid is known: a single span becomes the
    /// payload as it is, several are copied into one buffer.
    fn from_rope(ty: ChunkType, mut rope: Vec<Bytes>, cid: Digest) -> Chunk {
        let payload = if rope.len() == 1 {
            rope.pop().expect("one span")
        } else {
            let len = rope.iter().map(|s| s.len()).sum();
            let mut buf = Vec::with_capacity(len);
            for span in &rope {
                buf.extend_from_slice(span);
            }
            Bytes::from(buf)
        };
        Chunk { ty, payload, cid }
    }

    /// A copy of this chunk whose payload owns its own allocation.
    ///
    /// Zero-copy construction ([`new_batch_ropes`](Self::new_batch_ropes)
    /// leaves built from slices of a large input or of old-version
    /// leaves) can leave a payload pinning a much larger backing buffer.
    /// Unsharing at a retention boundary — e.g. GC copy-compaction —
    /// drops that pin. The content is byte-identical, so the cid is
    /// reused, not recomputed.
    pub fn unshared(&self) -> Chunk {
        Chunk {
            ty: self.ty,
            payload: Bytes::copy_from_slice(&self.payload),
            cid: self.cid,
        }
    }

    /// The chunk type.
    pub fn ty(&self) -> ChunkType {
        self.ty
    }

    /// The payload bytes (without the type tag).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The content identifier.
    pub fn cid(&self) -> Digest {
        self.cid
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// On-wire encoding: `[type: u8][payload…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.payload.len());
        out.push(self.ty as u8);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode the on-wire form, recomputing the cid.
    pub fn decode(bytes: &[u8]) -> Option<Chunk> {
        let (&tag, payload) = bytes.split_first()?;
        let ty = ChunkType::from_u8(tag)?;
        Some(Chunk::new(ty, Bytes::copy_from_slice(payload)))
    }

    /// Recompute the cid from content and compare — the tamper-evidence
    /// check a client runs on data returned by an untrusted store.
    pub fn verify(&self) -> bool {
        hash_parts(&[&[self.ty as u8], &self.payload]) == self.cid
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Chunk({:?}, {} bytes, {})",
            self.ty,
            self.payload.len(),
            self.cid.short_hex()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_commits_to_type_and_payload() {
        let a = Chunk::new(ChunkType::Blob, &b"hello"[..]);
        let b = Chunk::new(ChunkType::List, &b"hello"[..]);
        let c = Chunk::new(ChunkType::Blob, &b"hellp"[..]);
        assert_ne!(a.cid(), b.cid());
        assert_ne!(a.cid(), c.cid());
        let a2 = Chunk::new(ChunkType::Blob, &b"hello"[..]);
        assert_eq!(a.cid(), a2.cid());
    }

    #[test]
    fn new_batch_matches_new() {
        let payloads: Vec<Bytes> = (0..50)
            .map(|i| Bytes::from(vec![i as u8; 100 + i * 37]))
            .collect();
        let batch = Chunk::new_batch(ChunkType::Map, payloads.clone());
        assert_eq!(batch.len(), payloads.len());
        for (chunk, payload) in batch.iter().zip(&payloads) {
            let solo = Chunk::new(ChunkType::Map, payload.clone());
            assert_eq!(chunk.cid(), solo.cid());
            assert_eq!(chunk.payload(), payload);
            assert!(chunk.verify());
        }
    }

    #[test]
    fn new_batch_mixed_matches_new() {
        let types = [ChunkType::Blob, ChunkType::Map, ChunkType::Meta];
        let parts: Vec<(ChunkType, Bytes)> = (0..40)
            .map(|i| (types[i % 3], Bytes::from(vec![i as u8; i * 53])))
            .collect();
        let batch = Chunk::new_batch_mixed(parts.clone());
        let solo: Vec<Chunk> = parts.into_iter().map(|(ty, p)| Chunk::new(ty, p)).collect();
        assert_eq!(batch, solo);
        assert!(Chunk::new_batch_mixed(Vec::new()).is_empty());
    }

    #[test]
    fn new_batch_ropes_matches_new() {
        // Ropes of 0, 1 and many spans; cid and payload must equal the
        // concatenated single-buffer construction.
        let bodies: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 50 + i * 91]).collect();
        let ropes: Vec<Vec<Bytes>> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let body = Bytes::copy_from_slice(b);
                match i % 3 {
                    0 => vec![body],
                    1 => {
                        let cut = body.len() / 3;
                        vec![body.slice(..cut), body.slice(cut..)]
                    }
                    _ => vec![Bytes::new(), body.slice(..1), body.slice(1..), Bytes::new()],
                }
            })
            .collect();
        let spawned = Chunk::spawn_batch_ropes(ChunkType::List, ropes.clone());
        let batch = Chunk::new_batch_ropes(ChunkType::List, ropes);
        assert_eq!(
            spawned.join(),
            batch,
            "the pooled job builds the same chunks"
        );
        assert_eq!(batch.len(), bodies.len());
        for (chunk, body) in batch.iter().zip(&bodies) {
            let solo = Chunk::new(ChunkType::List, Bytes::copy_from_slice(body));
            assert_eq!(chunk.cid(), solo.cid());
            assert_eq!(chunk.payload().as_ref(), &body[..]);
            assert!(chunk.verify());
        }
        assert!(Chunk::new_batch_ropes(ChunkType::Blob, vec![]).is_empty());
        let empty = Chunk::new_batch_ropes(ChunkType::Blob, vec![vec![]]);
        assert_eq!(
            empty[0].cid(),
            Chunk::new(ChunkType::Blob, Bytes::new()).cid()
        );
    }

    #[test]
    fn unshared_detaches_from_backing_buffer() {
        let big = Bytes::from(vec![7u8; 4096]);
        let sliced = Chunk::new_batch_ropes(ChunkType::Blob, vec![vec![big.slice(100..200)]])
            .pop()
            .expect("one chunk");
        let owned = sliced.unshared();
        assert_eq!(owned, sliced);
        assert_eq!(owned.cid(), sliced.cid());
        assert!(owned.verify());
        // The unshared payload no longer aliases the 4 KB buffer.
        assert_ne!(owned.payload().as_ptr(), sliced.payload().as_ptr());
    }

    #[test]
    fn encode_decode_round_trip() {
        let chunk = Chunk::new(ChunkType::Map, &b"\x01key\x02vv"[..]);
        let encoded = chunk.encode();
        let decoded = Chunk::decode(&encoded).expect("valid");
        assert_eq!(decoded, chunk);
        assert_eq!(decoded.cid(), chunk.cid());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Chunk::decode(&[]).is_none());
        assert!(Chunk::decode(&[0xFF, 1, 2]).is_none());
    }

    #[test]
    fn verify_detects_tampering() {
        let chunk = Chunk::new(ChunkType::Blob, &b"data"[..]);
        assert!(chunk.verify());
        // Forge a chunk whose cid does not match its content.
        let forged = Chunk {
            ty: ChunkType::Blob,
            payload: Bytes::from_static(b"evil"),
            cid: chunk.cid(),
        };
        assert!(!forged.verify());
    }

    #[test]
    fn type_tags_round_trip() {
        for t in [
            ChunkType::Meta,
            ChunkType::UIndex,
            ChunkType::SIndex,
            ChunkType::Blob,
            ChunkType::List,
            ChunkType::Set,
            ChunkType::Map,
            ChunkType::Checkpoint,
        ] {
            assert_eq!(ChunkType::from_u8(t as u8), Some(t));
        }
        assert_eq!(ChunkType::from_u8(8), None);
    }

    #[test]
    fn index_leaf_classification() {
        assert!(ChunkType::UIndex.is_index());
        assert!(ChunkType::SIndex.is_index());
        assert!(!ChunkType::Blob.is_index());
        assert!(ChunkType::Map.is_leaf());
        assert!(!ChunkType::Meta.is_leaf());
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::new(ChunkType::Blob, Bytes::new());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.verify());
        let rt = Chunk::decode(&c.encode()).expect("valid");
        assert_eq!(rt, c);
    }
}
