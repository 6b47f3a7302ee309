//! **forkbase-cluster** — the distributed deployment of §4.1/§4.6.
//!
//! A cluster is a master (topology bookkeeping), a request dispatcher,
//! and N servlets, each co-located with a local chunk storage. Requests
//! are partitioned twice:
//!
//! 1. **dispatcher → servlet** by the request key's hash, and
//! 2. **servlet → chunk storage** by each chunk's cid — except meta
//!    chunks, which stay on the servlet's local storage ("meta chunks are
//!    always stored locally, as they are not accessed by other
//!    servlets").
//!
//! The second layer is what keeps storage balanced under skew (Fig. 15):
//! a hot key's chunks scatter across all nodes because cids are uniform,
//! whereas one-layer partitioning pins all of a key's data to its home
//! servlet. Both policies are provided so the experiment can compare
//! them.
//!
//! Cross-node chunk traffic goes through the transport-agnostic
//! [`ChunkService`] API (get / get_many / put / put_many / stats) with
//! two interchangeable transports, selected per cluster by
//! [`ClusterBuilder::transport`]:
//!
//! * **in-process** ([`StoreService`]) — direct handles to the peer
//!   stores; zero-cost routing for single-machine runs and tests;
//! * **TCP** ([`net`]) — every node serves a [`ChunkServer`] speaking
//!   length-prefixed, checksummed binary frames, and peers reach it
//!   through [`TcpChunkClient`]s that keep a few sockets each and use a
//!   socket for one request at a time, written and read back on the
//!   caller's thread. A killed node surfaces as
//!   [`FbError::Io`](forkbase_core::FbError::Io) (counted in that
//!   servlet's `io_errors`), never a hang; a restarted node is picked up
//!   by lazy re-dial.
//!
//! The two transports are held to identical observable behavior —
//! same answers, same per-node stats deltas — by the
//! transport-equivalence suite, so experiments can chunk-route over
//! loopback TCP (Fig. 8's real deployment shape) or in-process (fast)
//! interchangeably.

pub mod builder;
pub mod dispatch;
pub mod master;
pub mod net;
pub mod service;
pub mod servlet;
pub mod store2l;

pub use builder::{ClusterBuilder, Transport};
pub use dispatch::Cluster;
pub use master::{Master, Partitioning};
pub use net::{ChunkServer, TcpChunkClient, TcpConfig};
pub use service::{ChunkService, StoreService};
pub use servlet::Servlet;
pub use store2l::TwoLayerStore;
