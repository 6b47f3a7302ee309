//! **ledgerlite** — a blockchain platform with the data structures of
//! Hyperledger v0.6 (Figure 7(a) of the ForkBase paper) and the ForkBase
//! port of them (Figure 7(b)).
//!
//! The ledger is a hash chain of blocks over a key-value smart-contract
//! state. Three interchangeable state backends reproduce the paper's
//! three systems under test (§6.2):
//!
//! * [`KvBackend`] over [`rockslite`] — the original design: current
//!   state, Merkle tree (bucket tree or trie) and per-block state deltas
//!   all stored in an LSM KV store ("Rocksdb" in the figures);
//! * [`KvBackend`] over [`ForkBaseKvAdapter`] — the same design with
//!   ForkBase used as a *pure* key-value store ("ForkBase-KV": hash
//!   computation happens both inside and outside the storage layer);
//! * [`ForkBaseBackend`] — the native port: Merkle tree and state delta
//!   replaced by two levels of ForkBase `Map` objects whose uids are
//!   tamper-evident state references, making state-scan and block-scan
//!   queries index-backed instead of full-chain scans ("ForkBase").

pub mod backend;
pub mod fb_backend;
pub mod kv_backend;
pub mod merkle;
pub mod node;
pub mod types;

pub use backend::{KvAdapter, StateBackend};
pub use fb_backend::ForkBaseBackend;
pub use kv_backend::{ForkBaseKvAdapter, KvBackend};
pub use merkle::{BucketTree, MerkleTree, MerkleTrie};
pub use node::{LedgerNode, OpTimings};
pub use types::{Block, BlockHeader, Transaction, TxOp};
