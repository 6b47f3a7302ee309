//! Tamper evidence (§3.2): verifying that an untrusted store has not
//! altered an object's value or its derivation history.
//!
//! A uid is the hash of the meta chunk, which embeds the value (or the
//! value tree's root cid) and the uids of all base versions. Verification
//! therefore re-derives every hash from the returned bytes: if the store
//! substituted any chunk anywhere in the value tree or the history chain,
//! some recomputed hash fails to match the identifier it was fetched by.

use crate::error::{FbError, Result};
use crate::fobject::FObject;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::fx::FxHashSet;
use forkbase_crypto::Digest;
use forkbase_pos::IndexNode;

/// Outcome of a verification pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TamperEvidence {
    /// Versions whose meta chunk and value tree verified.
    pub verified_versions: usize,
    /// Value-tree chunks verified.
    pub verified_chunks: usize,
}

/// Fetch a chunk and check its content hashes to the cid it was requested
/// by.
fn fetch_verified(store: &dyn ChunkStore, cid: Digest) -> Result<forkbase_chunk::Chunk> {
    let chunk = store.get(&cid).ok_or(FbError::VersionNotFound(cid))?;
    // `Chunk` recomputes its cid from content, so inequality here means
    // the store returned substituted bytes.
    if chunk.cid() != cid {
        return Err(FbError::Corrupt(format!(
            "chunk {} returned content hashing to {}",
            cid.short_hex(),
            chunk.cid().short_hex()
        )));
    }
    if !chunk.verify() {
        return Err(FbError::Corrupt(format!(
            "chunk {} fails self-verification",
            cid.short_hex()
        )));
    }
    Ok(chunk)
}

/// Verify one version: its meta chunk and (for chunkable types) every
/// chunk of its value tree. Returns the number of value chunks verified.
pub fn verify_object(store: &dyn ChunkStore, uid: Digest) -> Result<usize> {
    let meta = fetch_verified(store, uid)?;
    if meta.ty() != forkbase_chunk::ChunkType::Meta {
        return Err(FbError::Corrupt(format!(
            "uid {} is not a meta chunk",
            uid.short_hex()
        )));
    }
    let obj = FObject::decode(meta.payload())?;
    let Some((ty, root)) = obj.value(store)?.tree_root() else {
        return Ok(0); // primitive: fully embedded in the (verified) meta chunk
    };

    // Walk the whole POS-Tree, verifying every chunk.
    let mut verified = 0usize;
    let mut stack = vec![root];
    while let Some(cid) = stack.pop() {
        let chunk = fetch_verified(store, cid)?;
        verified += 1;
        if chunk.ty().is_index() {
            let node = IndexNode::parse(chunk.payload().clone(), ty.is_sorted())
                .ok_or_else(|| FbError::Corrupt("bad index chunk".into()))?;
            stack.extend(node.entries().map(|e| *e.cid));
        }
    }
    Ok(verified)
}

/// Verify a version and its entire derivation history down to the genesis
/// version(s). Proves the history claim of §3.2: the storage cannot
/// present a version `v' ∉ V` as part of the object's history, because
/// every legitimate ancestor is named by hash from the head.
pub fn verify_history(store: &dyn ChunkStore, head: Digest) -> Result<TamperEvidence> {
    let mut versions = 0usize;
    let mut chunks = 0usize;
    let mut seen: FxHashSet<Digest> = FxHashSet::default();
    let mut stack = vec![head];
    seen.insert(head);
    while let Some(uid) = stack.pop() {
        chunks += verify_object(store, uid)?;
        versions += 1;
        let obj = FObject::load(store, uid)?;
        for &base in &obj.bases {
            if seen.insert(base) {
                stack.push(base);
            }
        }
    }
    Ok(TamperEvidence {
        verified_versions: versions,
        verified_chunks: chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ForkBase;
    use crate::value::Value;
    use forkbase_chunk::{Chunk, ChunkType, MemStore, PutOutcome, StoreStats};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A malicious store: serves substituted chunks for chosen cids.
    struct EvilStore {
        inner: Arc<MemStore>,
        overrides: Mutex<Vec<(Digest, Chunk)>>,
    }

    impl EvilStore {
        fn new(inner: Arc<MemStore>) -> Self {
            EvilStore {
                inner,
                overrides: Mutex::new(Vec::new()),
            }
        }

        fn tamper(&self, victim: Digest, replacement: Chunk) {
            self.overrides.lock().push((victim, replacement));
        }
    }

    impl ChunkStore for EvilStore {
        fn get(&self, cid: &Digest) -> Option<Chunk> {
            for (victim, replacement) in self.overrides.lock().iter() {
                if victim == cid {
                    return Some(replacement.clone());
                }
            }
            self.inner.get(cid)
        }

        fn put(&self, chunk: Chunk) -> PutOutcome {
            self.inner.put(chunk)
        }

        fn contains(&self, cid: &Digest) -> bool {
            self.inner.contains(cid)
        }

        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    fn blob_bytes(n: usize) -> Vec<u8> {
        let mut state = 7u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn honest_store_verifies() {
        let db = ForkBase::in_memory();
        let blob = db.new_blob(&blob_bytes(50_000));
        db.put("k", None, Value::Blob(blob)).expect("put");
        db.put("k", None, Value::String("v2".into())).expect("put");
        let head = db.head("k", None).expect("head");

        let report = verify_history(db.store(), head).expect("verify");
        assert_eq!(report.verified_versions, 2);
        assert!(report.verified_chunks > 5, "blob tree chunks verified");
    }

    #[test]
    fn substituted_value_chunk_detected() {
        let mem = Arc::new(MemStore::new());
        let evil = Arc::new(EvilStore::new(mem.clone()));
        let db = ForkBase::with_store(evil.clone() as Arc<dyn ChunkStore>, Default::default());

        let data = blob_bytes(50_000);
        let blob = db.new_blob(&data);
        let uid = db.put("k", None, Value::Blob(blob)).expect("put");
        assert!(verify_object(db.store(), uid).is_ok());

        // The store substitutes one leaf chunk of the value tree.
        let victim = mem
            .cids()
            .into_iter()
            .find(|cid| {
                mem.get(cid)
                    .map(|c| c.ty() == ChunkType::Blob && !c.is_empty())
                    .unwrap_or(false)
            })
            .expect("a blob leaf exists");
        evil.tamper(victim, Chunk::new(ChunkType::Blob, &b"EVIL DATA"[..]));

        let err = verify_object(db.store(), uid).expect_err("tampering detected");
        assert!(matches!(err, FbError::Corrupt(_)));
    }

    #[test]
    fn substituted_history_detected() {
        let mem = Arc::new(MemStore::new());
        let evil = Arc::new(EvilStore::new(mem.clone()));
        let db = ForkBase::with_store(evil.clone() as Arc<dyn ChunkStore>, Default::default());

        let v0 = db
            .put("k", None, Value::String("genesis".into()))
            .expect("put");
        let v1 = db
            .put("k", None, Value::String("second".into()))
            .expect("put");
        assert!(verify_history(db.store(), v1).is_ok());

        // The store rewrites history: serves a forged genesis version.
        let forged = crate::fobject::FObject::new(
            "k",
            &Value::String("FORGED HISTORY".into()),
            vec![],
            0,
            "",
        );
        evil.tamper(v0, forged.to_chunk());

        let err = verify_history(db.store(), v1).expect_err("tampering detected");
        assert!(matches!(err, FbError::Corrupt(_)));
    }

    #[test]
    fn missing_chunk_reported() {
        let db = ForkBase::in_memory();
        let uid = forkbase_crypto::hash_bytes(b"never stored");
        assert!(matches!(
            verify_object(db.store(), uid).expect_err("missing"),
            FbError::VersionNotFound(_)
        ));
    }

    #[test]
    fn verify_counts_whole_dag() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(0)).expect("put");
        db.fork("k", crate::db::DEFAULT_BRANCH, "b").expect("fork");
        db.put("k", None, Value::Int(1)).expect("put");
        db.put("k", Some("b"), Value::Int(2)).expect("put");
        let merged = db
            .merge_branches(
                "k",
                crate::db::DEFAULT_BRANCH,
                "b",
                &forkbase_pos::Resolver::TakeOurs,
            )
            .expect("merge");
        let report = verify_history(db.store(), merged).expect("verify");
        assert_eq!(report.verified_versions, 4, "genesis + 2 branches + merge");
    }
}
