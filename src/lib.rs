//! # ForkBase — an efficient storage engine for blockchain and forkable applications
//!
//! A from-scratch Rust reproduction of *ForkBase* (Wang et al., VLDB
//! 2018): a storage engine with built-in data versioning, fork semantics
//! (both on-demand and on-conflict) and tamper evidence, built on
//! content-addressed chunks and the Pattern-Oriented-Split Tree.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `forkbase-core` | the engine: [`ForkBase`], FObjects, branches, M1–M17 |
//! | [`pos`] | `forkbase-pos` | the POS-Tree: Blob/List/Map/Set, diff, merge |
//! | [`chunk`] | `forkbase-chunk` | chunk model and storage backends |
//! | [`crypto`] | `forkbase-crypto` | SHA-256, the rolling hash, chunking config |
//! | [`cluster`] | `forkbase-cluster` | distributed-service simulation |
//! | [`ledger`] | `ledgerlite` | blockchain platform (3 state backends) |
//! | [`chain`] | `chainstore` | block-store scenario: append/follow/prune on the version DAG |
//! | [`wiki`] | `wikilite` | multi-versioned wiki engine |
//! | [`collab`] | `fb-collab` | collaborative analytics on relational data |
//! | [`rockslite`] | `rockslite` | LSM KV baseline (RocksDB stand-in) |
//! | [`redislite`] | `redislite` | in-memory KV baseline (Redis stand-in) |
//! | [`orpheuslite`] | `orpheuslite` | dataset-versioning baseline (OrpheusDB stand-in) |
//! | [`workload`] | `fb-workload` | YCSB/zipf/wiki/CSV generators |
//!
//! ## Quickstart
//!
//! ```
//! use forkbase::{ForkBase, Value};
//!
//! let db = ForkBase::in_memory();
//! let blob = db.new_blob(b"my value");
//! db.put("my key", None, Value::Blob(blob)).unwrap();
//! db.fork("my key", "master", "new branch").unwrap();
//! let obj = db.get("my key", Some("new branch")).unwrap();
//! assert_eq!(obj.depth, 0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` for
//! the system inventory and per-experiment index.

pub use forkbase_chunk as chunk;
pub use forkbase_cluster as cluster;
pub use forkbase_core as core;
pub use forkbase_crypto as crypto;
pub use forkbase_pos as pos;

pub use chainstore as chain;
pub use fb_collab as collab;
pub use fb_workload as workload;
pub use ledgerlite as ledger;
pub use orpheuslite;
pub use redislite;
pub use rockslite;
pub use wikilite as wiki;

pub use forkbase_core::{
    AccessControl, BranchSnapshot, Commit, FbError, ForkBase, GcReport, HotTierConfig,
    HotTierStats, Payload, Permission, Result, Value, ValueType, DEFAULT_BRANCH,
};
pub use forkbase_crypto::{ChunkerConfig, Digest};
pub use forkbase_pos::{Blob, List, Map, Resolver, Set, TreeError, WriteBatch};
