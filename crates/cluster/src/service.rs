//! The transport-agnostic node service API.
//!
//! Every cluster node exposes its chunk storage through [`ChunkService`]
//! — the five-operation surface a remote peer needs (fetch, batched
//! fetch, store, batched store, health), the two batched ones also in a
//! split-phase form ([`Completion`]) so a caller can have several nodes
//! working at once. The dispatcher, the two-layer
//! store, and the remote-chunk cache are all written against
//! `Arc<dyn ChunkService>`, so the wire is pluggable:
//!
//! * **in-process** — [`StoreService`] wraps the node's local
//!   [`ChunkStore`] directly (the test/bench transport, and the self
//!   entry of every servlet's pool view), and [`Servlet`](crate::Servlet)
//!   implements the
//!   trait itself so a whole node can be plugged in as a peer;
//! * **TCP** — [`TcpChunkClient`](crate::net::TcpChunkClient) speaks the
//!   same trait as RESP commands to a
//!   [`ChunkServer`](crate::net::ChunkServer) on the peer.
//!
//! Unlike [`ChunkStore`], every method is fallible: a network transport
//! can lose its peer mid-request, and the caller must see that as
//! [`FbError::Io`](forkbase_core::FbError::Io) rather than as a missing
//! chunk.

use forkbase_chunk::{Chunk, ChunkStore, PutOutcome, StoreStats};
use forkbase_core::Result;
use forkbase_crypto::Digest;
use std::sync::Arc;

/// The second half of a split-phase request: the request is already on
/// its way (or, for a service that has no wire, already answered), and
/// [`wait`](Self::wait) collects the answer.
///
/// A caller with batches for several nodes starts them all and only then
/// waits, so the nodes work at the same time. Between start and wait it
/// must not issue another request to the *same* service: a network
/// service holds one of its pooled connections for the completion.
/// Dropping a completion without waiting abandons the request.
pub struct Completion<'a, T>(Box<dyn FnOnce() -> Result<T> + 'a>);

impl<'a, T: 'a> Completion<'a, T> {
    /// A request that has already been answered.
    pub(crate) fn ready(answer: Result<T>) -> Completion<'a, T> {
        Completion(Box::new(move || answer))
    }

    /// A request in flight; `collect` blocks for its answer.
    pub(crate) fn deferred(collect: impl FnOnce() -> Result<T> + 'a) -> Completion<'a, T> {
        Completion(Box::new(collect))
    }

    /// Block until the answer is here.
    pub fn wait(self) -> Result<T> {
        (self.0)()
    }
}

/// The service surface of one cluster node's chunk storage.
///
/// Implementations must be thread-safe: servlet pool views and benchmark
/// drivers issue requests from many threads concurrently.
pub trait ChunkService: Send + Sync {
    /// Fetch a chunk by cid. `Ok(None)` means the node does not hold the
    /// chunk; `Err` means the node could not be asked.
    fn get(&self, cid: &Digest) -> Result<Option<Chunk>>;

    /// Fetch many chunks at once; element `i` answers `cids[i]`.
    /// Semantically identical to mapping [`get`](Self::get), but a
    /// transport carries the whole batch in one request/response
    /// exchange.
    fn get_many(&self, cids: &[Digest]) -> Result<Vec<Option<Chunk>>> {
        cids.iter().map(|cid| self.get(cid)).collect()
    }

    /// Store a chunk; dedups on existing cid.
    fn put(&self, chunk: Chunk) -> Result<PutOutcome>;

    /// Store many chunks at once; element `i` answers `chunks[i]`.
    fn put_many(&self, chunks: Vec<Chunk>) -> Result<Vec<PutOutcome>> {
        chunks.into_iter().map(|c| self.put(c)).collect()
    }

    /// [`get_many`](Self::get_many) in two phases: send now, collect
    /// with [`Completion::wait`]. The default has nothing to overlap and
    /// answers on the spot; a network transport sends the request here
    /// and reads the reply in the completion.
    fn start_get_many<'a>(&'a self, cids: &'a [Digest]) -> Completion<'a, Vec<Option<Chunk>>> {
        Completion::ready(self.get_many(cids))
    }

    /// [`put_many`](Self::put_many) in two phases, like
    /// [`start_get_many`](Self::start_get_many).
    fn start_put_many(&self, chunks: Vec<Chunk>) -> Completion<'_, Vec<PutOutcome>> {
        Completion::ready(self.put_many(chunks))
    }

    /// The node's storage statistics — the observability surface that
    /// makes a degraded remote node (climbing `io_errors`, collapsing
    /// cache hit rate) visible instead of silent.
    fn stats(&self) -> Result<StoreStats>;
}

/// Blanket impl so `Arc<S>` can be used wherever a service is expected.
impl<S: ChunkService + ?Sized> ChunkService for Arc<S> {
    fn get(&self, cid: &Digest) -> Result<Option<Chunk>> {
        (**self).get(cid)
    }

    fn get_many(&self, cids: &[Digest]) -> Result<Vec<Option<Chunk>>> {
        (**self).get_many(cids)
    }

    fn put(&self, chunk: Chunk) -> Result<PutOutcome> {
        (**self).put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Result<Vec<PutOutcome>> {
        (**self).put_many(chunks)
    }

    fn start_get_many<'a>(&'a self, cids: &'a [Digest]) -> Completion<'a, Vec<Option<Chunk>>> {
        (**self).start_get_many(cids)
    }

    fn start_put_many(&self, chunks: Vec<Chunk>) -> Completion<'_, Vec<PutOutcome>> {
        (**self).start_put_many(chunks)
    }

    fn stats(&self) -> Result<StoreStats> {
        (**self).stats()
    }
}

/// The in-process transport: a [`ChunkService`] served by a local
/// [`ChunkStore`]. Never fails.
pub struct StoreService {
    store: Arc<dyn ChunkStore>,
}

impl StoreService {
    /// Serve `store` in-process.
    pub fn new(store: Arc<dyn ChunkStore>) -> StoreService {
        StoreService { store }
    }
}

impl ChunkService for StoreService {
    fn get(&self, cid: &Digest) -> Result<Option<Chunk>> {
        Ok(self.store.get(cid))
    }

    fn get_many(&self, cids: &[Digest]) -> Result<Vec<Option<Chunk>>> {
        Ok(self.store.get_many(cids))
    }

    fn put(&self, chunk: Chunk) -> Result<PutOutcome> {
        Ok(self.store.put(chunk))
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Result<Vec<PutOutcome>> {
        Ok(self.store.put_many(chunks))
    }

    fn stats(&self) -> Result<StoreStats> {
        Ok(self.store.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::{ChunkType, MemStore};

    #[test]
    fn store_service_mirrors_the_store() {
        let store = Arc::new(MemStore::new());
        let svc = StoreService::new(store.clone());
        let chunk = Chunk::new(ChunkType::Blob, &b"payload"[..]);
        assert_eq!(svc.put(chunk.clone()).unwrap(), PutOutcome::Stored);
        assert_eq!(svc.put(chunk.clone()).unwrap(), PutOutcome::Deduplicated);
        assert_eq!(svc.get(&chunk.cid()).unwrap(), Some(chunk.clone()));
        let absent = Chunk::new(ChunkType::Blob, &b"absent"[..]).cid();
        assert_eq!(
            svc.get_many(&[chunk.cid(), absent]).unwrap(),
            vec![Some(chunk), None]
        );
        assert_eq!(svc.stats().unwrap(), store.stats());
    }
}
