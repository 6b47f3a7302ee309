//! The Pattern-Oriented-Split Tree (POS-Tree), §4.3 of the ForkBase paper.
//!
//! A POS-Tree stores a large object as a balanced tree of content-addressed
//! chunks. It resembles a B+-tree (index nodes with split keys guide
//! lookups) and a Merkle tree (children are referenced by cryptographic
//! hashes of their content) at the same time. Node boundaries are not
//! capacity-based but *pattern-based*:
//!
//! * a **leaf** ends where a rolling hash of the trailing bytes matches a
//!   pattern (`P & (2^q−1) == 0`), extended to the end of the current
//!   element so that no element spans two chunks;
//! * an **index node** ends where a child's cid matches a cheaper pattern
//!   (`cid & (2^r−1) == 0`) — the paper's P′ optimization.
//!
//! Because both patterns are pure functions of content, the tree shape is
//! **history-independent**: two objects with identical content have
//! identical trees (hence identical root cids), no matter through which
//! sequence of edits they were produced. This is what makes structural
//! sharing, fast diff (recursive cid comparison), and cross-object
//! deduplication work.
//!
//! Four chunkable types are provided (paper §3.4): [`Blob`], [`List`],
//! [`Set`] and [`Map`], all stored through any
//! [`forkbase_chunk::ChunkStore`].
//!
//! ```
//! use forkbase_chunk::MemStore;
//! use forkbase_crypto::ChunkerConfig;
//! use forkbase_pos::Map;
//!
//! let store = MemStore::new();
//! let cfg = ChunkerConfig::default();
//! let map = Map::build(&store, &cfg, [("k1", "v1"), ("k2", "v2")]);
//! assert_eq!(map.get(&store, b"k1").unwrap().as_ref(), b"v1");
//! let map2 = map.put(&store, &cfg, "k3", "v3").unwrap();
//! assert_eq!(map2.len(&store), 3);
//! assert_eq!(map.len(&store), 2, "old version is untouched");
//!
//! // Many edits amortize into a single splice via a WriteBatch:
//! let mut wb = forkbase_pos::WriteBatch::new();
//! wb.put("k4", "v4").put("k5", "v5").delete("k1");
//! let map3 = map2.apply(&store, &cfg, wb).unwrap();
//! assert_eq!(map3.len(&store), 4);
//! ```

pub mod batch;
pub mod builder;
pub mod diff;
pub mod entry;
pub mod error;
pub mod hamt;
pub mod iter;
pub mod leaf;
pub mod merge;
pub mod metrics;
pub mod scan;
pub mod tree;
pub mod types;
pub mod update;

pub use batch::WriteBatch;
pub use diff::{blob_diff_summary, sorted_diff, DiffEntry, RangeDiff};
pub use entry::{EntryRef, IndexEntry, IndexNode};
pub use error::{TreeError, TreeResult};
pub use hamt::Hamt;
pub use iter::ItemIter;
pub use leaf::Item;
pub use merge::{
    merge3_blob, merge3_sorted, BlobConflict, BlobMergeError, Conflict, MergeError, MergeOutcome,
    Resolver,
};
pub use tree::{Blob, List, Map, Set};
pub use types::TreeType;
pub use update::{normalize_edits, splice_blob, splice_list, update_sorted, Edit};

pub use forkbase_chunk::{Chunk, ChunkStore, ChunkType};
pub use forkbase_crypto::{ChunkerConfig, Digest};
