//! # ForkBase
//!
//! A Rust implementation of **ForkBase** (Wang et al., VLDB 2018): a
//! storage engine with three properties built in —
//!
//! * **data versioning** — every Put creates a new immutable version; the
//!   full derivation history of each key is queryable;
//! * **fork semantics** — both *fork-on-demand* (named branches, like git)
//!   and *fork-on-conflict* (implicit branches from concurrent writes,
//!   like blockchain forks), with three-way merge and pluggable conflict
//!   resolution;
//! * **tamper evidence** — a version number (`uid`) is a cryptographic
//!   hash that uniquely identifies the object's value *and* its entire
//!   history; an untrusted store cannot alter either without detection.
//!
//! [`ForkBase`] is the one engine type: Table 1's M1–M17 plus
//! checkpointing and the hot-state surface ([`db`]). Every write verb on
//! it builds a [`Commit`] and runs it through the one pipeline in
//! [`commit`] — stage, encode, store, publish — and [`hot`] is the
//! optional flat tier that pipeline and the branch-table reads keep in
//! step with the tree.
//!
//! ```
//! use forkbase_core::{ForkBase, Value};
//!
//! let db = ForkBase::in_memory();
//! // Put a blob to the default master branch (paper Figure 4).
//! let blob = db.new_blob(b"my value");
//! db.put("my key", None, Value::Blob(blob)).unwrap();
//! // Fork to a new branch.
//! db.fork("my key", "master", "new branch").unwrap();
//! // Get, modify, commit to that branch.
//! let obj = db.get("my key", Some("new branch")).unwrap();
//! let blob = obj.value(db.store()).unwrap().as_blob().unwrap();
//! let blob = blob.remove(db.store(), db.cfg(), 0, 3).unwrap();
//! let blob = blob.append(db.store(), db.cfg(), b" and some more").unwrap();
//! db.put("my key", Some("new branch"), Value::Blob(blob)).unwrap();
//!
//! let v = db.get("my key", Some("new branch")).unwrap();
//! assert_eq!(
//!     v.value(db.store()).unwrap().as_blob().unwrap()
//!         .read_all(db.store()).unwrap(),
//!     b"value and some more"
//! );
//! assert_eq!(v.depth, 1, "one step from the first version");
//! ```

pub mod access;
pub mod branch;
pub mod checkpoint;
pub mod commit;
pub mod db;
pub mod error;
pub mod fobject;
pub mod gc;
pub mod history;
pub mod hot;
pub mod value;
pub mod verify;

pub use access::{AccessControl, Permission};
pub use branch::BranchTable;
pub use checkpoint::BranchSnapshot;
pub use commit::{Commit, Payload, Target};
pub use db::{ForkBase, DEFAULT_BRANCH};
pub use error::{FbError, Result};
pub use fobject::FObject;
pub use gc::{compact_into, GcReport};
pub use history::TrackedVersion;
pub use hot::{HotTierConfig, HotTierStats};
pub use value::{Value, ValueType};
pub use verify::{verify_history, verify_object, TamperEvidence};

pub use forkbase_chunk::{ChunkStore, MemStore};
pub use forkbase_crypto::{ChunkerConfig, Digest};
pub use forkbase_pos::{Blob, List, Map, Resolver, Set, TreeError, WriteBatch};
