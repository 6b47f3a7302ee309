//! Three-way merge (§4.5.2).
//!
//! "To merge two branch heads v1 and v2, three versions (v1, v2 and
//! LCA(v1,v2)) are fed into the merge function. If the merge fails, it
//! returns a conflict list … Simple conflicts can be resolved using
//! built-in resolution functions (such as append, aggregate and
//! choose-one). ForkBase allows users to hook customized resolution
//! strategies."
//!
//! # Disjoint edits merge by cid
//!
//! POS-Trees are compared by cid, not by content (§4.3), and a sorted
//! merge of two branches that changed different parts of the base needs
//! nothing else. Before any element is decoded, [`merge3_sorted`] walks
//! base→ours and base→theirs at leaf-entry level: two [`TreeCursor`]s
//! step over every subtree whose cid the trees share (the diff's
//! highest-level skip), and where they stand on different leaves the
//! leaf entries are merge-joined on their split keys until both sides
//! have passed the same key and the cids line up again. Each side so
//! becomes a list of **leaf regions**: a range of whole base leaves (in
//! base element offsets) and the side's leaf entries that replace them.
//! The walk fetches index nodes only.
//!
//! **The gap rule.** When every region of ours lies at least
//! `cfg.window` elements away from every region of theirs, the merged
//! tree is ours with each of their regions' base leaves replaced by
//! their leaf entries: one `Patch` per region of theirs, its offsets
//! shifted by the count change of ours' regions before it, regrouped by
//! `build_index_levels` over a cursor on ours. No leaf is fetched,
//! decoded, re-chunked, hashed or put again.
//!
//! **Why the root is bit-identical.** A leaf cut after a cut at `c`
//! depends only on the `window` bytes before `c` and the bytes after it
//! (the rolling window is never reset, the size cap counts from the
//! cut). Regions are leaf-aligned, so a non-zero gap between two regions
//! holds at least one whole base leaf that both sides keep — and with
//! it that leaf's end cut, in all three trees. A gap of `window`
//! elements is at least `window` bytes (no element is empty), so the
//! window before a region holds base bytes only, in the merged content
//! as in the side the region came from. By induction over the regions
//! in base order, the merged content is cut at each region's start and
//! then exactly as that region's side cut it, up to the next region's
//! start: its leaves are ours' and theirs' leaves, interleaved. Over
//! that leaf list `build_index_levels` reaches the root a from-scratch
//! build would — its existing contract.
//!
//! Every other case takes the key-level path unchanged: regions closer
//! than the gap (the only way both sides can touch one key), a region
//! that replaces no base leaf, a tree that is a single leaf, an
//! unreadable chunk. Conflicts, resolvers and [`MergeError::Corrupt`]
//! blame therefore behave as they always did.

use crate::builder::{build_index_levels, Patch};
use crate::diff::{blob_diff_summary, skip_common, sorted_diff};
use crate::entry::IndexEntry;
use crate::error::TreeError;
use crate::leaf::Item;
use crate::scan::TreeCursor;
use crate::tree::Blob;
use crate::types::TreeType;
use crate::update::{update_sorted, Edit};
use bytes::Bytes;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::{ChunkerConfig, Digest};
use std::ops::Range;

/// Why a sorted three-way merge failed. Conflicts are the application's
/// problem to resolve; corruption means one of the three input trees
/// could not be read and must **not** be presented as a resolvable
/// conflict.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeError {
    /// Keys both sides changed differently and the resolver declined.
    Conflicts(Vec<Conflict>),
    /// A chunk of one of the input trees is missing or corrupt.
    Corrupt(TreeError),
}

/// A key where both sides changed the base differently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// The conflicting key.
    pub key: Bytes,
    /// Value in the common ancestor.
    pub base: Option<Bytes>,
    /// Value on our side (`None` = deleted).
    pub ours: Option<Bytes>,
    /// Value on their side (`None` = deleted).
    pub theirs: Option<Bytes>,
}

/// How to resolve conflicting changes to the same key.
pub enum Resolver {
    /// Report conflicts to the caller (the application resolves them).
    Fail,
    /// Choose-one: keep our change.
    TakeOurs,
    /// Choose-one: keep their change.
    TakeTheirs,
    /// Concatenate both values (absent sides contribute nothing).
    Append,
    /// Treat values as ASCII decimal integers and combine the two deltas:
    /// `base + (ours−base) + (theirs−base)`. Falls back to unresolved if a
    /// value does not parse.
    Aggregate,
    /// User hook: return `Some(new_value)` (`Some(None)` deletes the key)
    /// or `None` to leave the conflict unresolved.
    #[allow(clippy::type_complexity)]
    Custom(Box<dyn Fn(&Conflict) -> Option<Option<Bytes>> + Send + Sync>),
}

impl Resolver {
    fn resolve(&self, c: &Conflict) -> Option<Option<Bytes>> {
        match self {
            Resolver::Fail => None,
            Resolver::TakeOurs => Some(c.ours.clone()),
            Resolver::TakeTheirs => Some(c.theirs.clone()),
            Resolver::Append => {
                let mut v = Vec::new();
                if let Some(o) = &c.ours {
                    v.extend_from_slice(o);
                }
                if let Some(t) = &c.theirs {
                    v.extend_from_slice(t);
                }
                Some(Some(Bytes::from(v)))
            }
            Resolver::Aggregate => {
                let parse = |b: &Option<Bytes>| -> Option<i64> {
                    match b {
                        None => Some(0),
                        Some(b) => std::str::from_utf8(b).ok()?.trim().parse().ok(),
                    }
                };
                let base = parse(&c.base)?;
                let ours = parse(&c.ours)?;
                let theirs = parse(&c.theirs)?;
                let merged = base + (ours - base) + (theirs - base);
                Some(Some(Bytes::from(merged.to_string())))
            }
            Resolver::Custom(f) => f(c),
        }
    }
}

/// Result of a successful merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Root of the merged tree.
    pub root: Digest,
    /// How many conflicts the resolver settled.
    pub resolved: usize,
}

/// Three-way merge of sorted trees. Returns the merged root, or the list
/// of unresolved conflicts.
pub fn merge3_sorted(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    base: Digest,
    ours: Digest,
    theirs: Digest,
    resolver: &Resolver,
) -> Result<MergeOutcome, MergeError> {
    debug_assert!(ty.is_sorted());
    // Fast paths.
    if ours == theirs || theirs == base {
        return Ok(MergeOutcome {
            root: ours,
            resolved: 0,
        });
    }
    if ours == base {
        return Ok(MergeOutcome {
            root: theirs,
            resolved: 0,
        });
    }
    if let Some(root) = adopt_their_leaves(store, cfg, ty, base, ours, theirs) {
        return Ok(MergeOutcome { root, resolved: 0 });
    }

    let corrupt = |root| MergeError::Corrupt(TreeError::MissingChunk { root });
    let blame = |side| corrupt(unreadable(store, ty, base, side));
    let d_ours = sorted_diff(store, ty, base, ours).ok_or_else(|| blame(ours))?;
    let d_theirs = sorted_diff(store, ty, base, theirs).ok_or_else(|| blame(theirs))?;

    // Both diffs are in key order: merge-join them. `ours` already holds
    // our side's changes, so only theirs (and what the resolver decides)
    // are spliced onto it — by history independence the same tree as
    // both sides' changes spliced onto `base`.
    let mut edits: Vec<Edit> = Vec::new();
    let mut conflicts: Vec<Conflict> = Vec::new();
    let mut resolved = 0usize;
    let edit = |key: Bytes, value: Option<Bytes>| match value {
        Some(value) => Edit::Put(Item { key, value }),
        None => Edit::Del(key),
    };
    let mut d_ours = d_ours.into_iter().peekable();
    for t in d_theirs {
        while d_ours.next_if(|o| o.key < t.key).is_some() {}
        match d_ours.next_if(|o| o.key == t.key) {
            None => edits.push(edit(t.key, t.right)),
            Some(o) if o.right == t.right => {}
            Some(o) => {
                let c = Conflict {
                    key: t.key,
                    base: o.left,
                    ours: o.right,
                    theirs: t.right,
                };
                match resolver.resolve(&c) {
                    Some(value) => {
                        resolved += 1;
                        if value != c.ours {
                            edits.push(edit(c.key, value));
                        }
                    }
                    None => conflicts.push(c),
                }
            }
        }
    }

    if !conflicts.is_empty() {
        return Err(MergeError::Conflicts(conflicts));
    }
    let root = update_sorted(store, cfg, ty, ours, edits).map_err(MergeError::Corrupt)?;
    Ok(MergeOutcome { root, resolved })
}

/// A run of whole base leaves one side replaced: the base elements they
/// hold and the side's leaf entries in their place.
struct Region {
    base: Range<u64>,
    leaves: Vec<IndexEntry>,
}

/// How far a cursor has got in a leaf merge-join: nowhere yet, through
/// a leaf's split key, or to its end.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Passed {
    Start,
    Key(Bytes),
    End,
}

impl Passed {
    /// `so_far`, or `End` once `cur` has passed everything.
    fn at(cur: &TreeCursor, so_far: Passed) -> Passed {
        if cur.at_end() {
            Passed::End
        } else {
            so_far
        }
    }
}

/// The structural merge (module docs): ours with each region of theirs
/// patched in by cid. `None` sends the merge down the key-level path.
fn adopt_their_leaves(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    ty: TreeType,
    base: Digest,
    ours: Digest,
    theirs: Digest,
) -> Option<Digest> {
    let ours_regions = leaf_regions(store, ty, base, ours)?;
    let theirs_regions = leaf_regions(store, ty, base, theirs)?;
    // `true` marks a region of theirs.
    let mut regions: Vec<(bool, Region)> = ours_regions
        .into_iter()
        .map(|r| (false, r))
        .chain(theirs_regions.into_iter().map(|r| (true, r)))
        .collect();
    regions.sort_by_key(|(_, r)| r.base.start);
    // The gap rule; a non-zero gap is what holds a shared leaf.
    let gap = (cfg.window as u64).max(1);
    let apart = regions
        .windows(2)
        .all(|w| w[0].0 == w[1].0 || w[0].1.base.end + gap <= w[1].1.base.start);
    if !apart || regions.iter().any(|(_, r)| r.base.is_empty()) {
        return None;
    }
    // Their base offsets, moved by what ours' regions before them added
    // and removed, name the same leaves in ours.
    let (mut added, mut removed) = (0u64, 0u64);
    let mut patches = Vec::new();
    for (theirs, r) in regions {
        let len = r.base.end - r.base.start;
        if theirs {
            let start = r.base.start + added - removed;
            patches.push(Patch {
                old: start..start + len,
                new: r.leaves,
            });
        } else {
            added += r.leaves.iter().map(|e| e.count).sum::<u64>();
            removed += len;
        }
    }
    if patches.is_empty() {
        return None;
    }
    let cur = TreeCursor::new(store, ours, ty)?;
    build_index_levels(store, cfg, ty, Some(cur), patches, Vec::new())
}

/// The leaf regions where `side` differs from `base`, in order. Fetches
/// index nodes only; `None` for a single-leaf tree or an unreadable
/// chunk.
fn leaf_regions(
    store: &dyn ChunkStore,
    ty: TreeType,
    base: Digest,
    side: Digest,
) -> Option<Vec<Region>> {
    let mut b = TreeCursor::new(store, base, ty)?;
    let mut s = TreeCursor::new(store, side, ty)?;
    if b.height() == 0 || s.height() == 0 {
        return None;
    }
    let mut regions: Vec<Region> = Vec::new();
    loop {
        skip_common(&mut b, &mut s, None)?;
        if b.at_end() && s.at_end() {
            return Some(regions);
        }
        // Nothing shared since the last region: it goes on.
        let at = b.pos();
        if regions.last().is_none_or(|r| r.base.end != at) {
            regions.push(Region {
                base: at..at,
                leaves: Vec::new(),
            });
        }
        let region = regions.last_mut()?;
        // Merge-join the leaves on their split keys until both sides have
        // passed the same key, or both their ends.
        let (mut pb, mut ps) = (Passed::at(&b, Passed::Start), Passed::at(&s, Passed::Start));
        while pb != ps || pb == Passed::Start {
            let order = pb.cmp(&ps);
            if order.is_le() {
                pb = next_leaf(&mut b)?.1;
            }
            if order.is_ge() {
                let (leaf, passed) = next_leaf(&mut s)?;
                region.leaves.push(leaf);
                ps = passed;
            }
        }
        region.base.end = b.pos();
    }
}

/// Step `cur` past its next leaf: the leaf's entry and how far the
/// cursor has now passed.
fn next_leaf(cur: &mut TreeCursor) -> Option<(IndexEntry, Passed)> {
    cur.descend_to(0)?;
    let leaf = cur.entry()?.to_owned();
    cur.advance();
    let passed = Passed::at(cur, Passed::Key(leaf.key.clone()));
    Some((leaf, passed))
}

/// Which of `base` and `side` a failed diff of the two should be blamed
/// on: `base` if its index levels cannot be walked, else `side`. Runs on
/// the failure path only.
fn unreadable(store: &dyn ChunkStore, ty: TreeType, base: Digest, side: Digest) -> Digest {
    let walk = || {
        let mut cur = TreeCursor::new(store, base, ty)?;
        while !cur.at_end() {
            cur.descend_to(0)?;
            cur.advance();
        }
        Some(())
    };
    match walk() {
        Some(()) => side,
        None => base,
    }
}

/// A Blob merge conflict: both sides edited overlapping byte ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobConflict {
    /// Our edit region (start, base length replaced).
    pub ours: (u64, u64),
    /// Their edit region.
    pub theirs: (u64, u64),
}

/// Why a Blob three-way merge failed — the Blob-side analogue of
/// [`MergeError`]: overlapping edits are the application's problem,
/// unreadable input trees are a storage error and must not be presented
/// as a resolvable conflict.
#[derive(Clone, Debug, PartialEq)]
pub enum BlobMergeError {
    /// Both sides edited overlapping byte regions.
    Conflict(BlobConflict),
    /// A chunk of one of the input trees is missing or corrupt.
    Corrupt(TreeError),
}

/// Three-way merge of Blobs: succeeds when the two sides edited disjoint
/// byte regions of the base.
pub fn merge3_blob(
    store: &dyn ChunkStore,
    cfg: &ChunkerConfig,
    base: Digest,
    ours: Digest,
    theirs: Digest,
) -> Result<Digest, BlobMergeError> {
    if ours == theirs || theirs == base {
        return Ok(ours);
    }
    if ours == base {
        return Ok(theirs);
    }
    // Identical content means identical roots (history independence), so
    // differing roots guarantee a non-empty diff; a missing summary can
    // only mean an unreadable tree.
    let corrupt = |root| BlobMergeError::Corrupt(TreeError::MissingChunk { root });
    let blame = |side| corrupt(unreadable(store, TreeType::Blob, base, side));
    let d1 = blob_diff_summary(store, base, ours)
        .flatten()
        .ok_or_else(|| blame(ours))?;
    let d2 = blob_diff_summary(store, base, theirs)
        .flatten()
        .ok_or_else(|| blame(theirs))?;

    let overlap =
        d1.start < d2.start + d2.left_len.max(1) && d2.start < d1.start + d1.left_len.max(1);
    if overlap {
        return Err(BlobMergeError::Conflict(BlobConflict {
            ours: (d1.start, d1.left_len),
            theirs: (d2.start, d2.left_len),
        }));
    }

    // Apply the higher-offset edit first so base coordinates stay valid.
    let (hi, hi_src, lo, lo_src) = if d1.start > d2.start {
        (d1, ours, d2, theirs)
    } else {
        (d2, theirs, d1, ours)
    };
    let hi_bytes = Blob::from_root(hi_src)
        .read_range(store, hi.start, hi.right_len)
        .ok_or(corrupt(hi_src))?;
    let merged = Blob::from_root(base)
        .splice(store, cfg, hi.start, hi.left_len, &hi_bytes)
        .map_err(BlobMergeError::Corrupt)?;
    let lo_bytes = Blob::from_root(lo_src)
        .read_range(store, lo.start, lo.right_len)
        .ok_or(corrupt(lo_src))?;
    let merged = merged
        .splice(store, cfg, lo.start, lo.left_len, &lo_bytes)
        .map_err(BlobMergeError::Corrupt)?;
    Ok(merged.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_items;
    use crate::scan::get_by_key;
    use crate::tree::Map;
    use forkbase_chunk::MemStore;

    fn map(store: &MemStore, cfg: &ChunkerConfig, pairs: &[(&str, &str)]) -> Digest {
        let mut sorted: Vec<_> = pairs.to_vec();
        sorted.sort();
        build_items(
            store,
            cfg,
            TreeType::Map,
            sorted
                .into_iter()
                .map(|(k, v)| Item::map(k.to_string(), v.to_string())),
        )
    }

    #[test]
    fn disjoint_edits_merge_cleanly() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("a", "1"), ("b", "2"), ("c", "3")]);
        let ours = map(&store, &cfg, &[("a", "OURS"), ("b", "2"), ("c", "3")]);
        let theirs = map(
            &store,
            &cfg,
            &[("a", "1"), ("b", "2"), ("c", "THEIRS"), ("d", "4")],
        );

        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail,
        )
        .expect("clean merge");
        let expected = map(
            &store,
            &cfg,
            &[("a", "OURS"), ("b", "2"), ("c", "THEIRS"), ("d", "4")],
        );
        assert_eq!(out.root, expected);
        assert_eq!(out.resolved, 0);
    }

    #[test]
    fn merge_is_symmetric_for_disjoint_edits() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("a", "1"), ("b", "2")]);
        let ours = map(&store, &cfg, &[("a", "X"), ("b", "2")]);
        let theirs = map(&store, &cfg, &[("a", "1"), ("b", "Y")]);
        let m1 = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail,
        )
        .expect("merge");
        let m2 = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            theirs,
            ours,
            &Resolver::Fail,
        )
        .expect("merge");
        assert_eq!(m1.root, m2.root);
    }

    #[test]
    fn conflicting_edits_reported() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("k", "base")]);
        let ours = map(&store, &cfg, &[("k", "ours")]);
        let theirs = map(&store, &cfg, &[("k", "theirs")]);
        let err = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail,
        )
        .expect_err("conflict");
        let MergeError::Conflicts(err) = err else {
            panic!("expected conflicts, got {err:?}");
        };
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].key.as_ref(), b"k");
        assert_eq!(err[0].base.as_deref(), Some(&b"base"[..]));
    }

    #[test]
    fn same_change_both_sides_is_not_conflict() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("k", "old")]);
        let ours = map(&store, &cfg, &[("k", "new")]);
        let theirs = map(&store, &cfg, &[("k", "new")]);
        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail,
        )
        .expect("merge");
        assert_eq!(out.root, ours);
    }

    #[test]
    fn take_ours_resolver() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("k", "base")]);
        let ours = map(&store, &cfg, &[("k", "ours")]);
        let theirs = map(&store, &cfg, &[("k", "theirs")]);
        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::TakeOurs,
        )
        .expect("merge");
        assert_eq!(out.resolved, 1);
        let v = get_by_key(&store, out.root, TreeType::Map, b"k").expect("present");
        assert_eq!(v.value.as_ref(), b"ours");
    }

    #[test]
    fn aggregate_resolver_sums_deltas() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("counter", "100")]);
        let ours = map(&store, &cfg, &[("counter", "130")]); // +30
        let theirs = map(&store, &cfg, &[("counter", "95")]); // -5
        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Aggregate,
        )
        .expect("merge");
        let v = get_by_key(&store, out.root, TreeType::Map, b"counter").expect("present");
        assert_eq!(v.value.as_ref(), b"125");
    }

    #[test]
    fn append_resolver_concatenates() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("log", "")]);
        let ours = map(&store, &cfg, &[("log", "A")]);
        let theirs = map(&store, &cfg, &[("log", "B")]);
        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Append,
        )
        .expect("merge");
        let v = get_by_key(&store, out.root, TreeType::Map, b"log").expect("present");
        assert_eq!(v.value.as_ref(), b"AB");
    }

    #[test]
    fn custom_resolver_hook() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("k", "1")]);
        let ours = map(&store, &cfg, &[("k", "2")]);
        let theirs = map(&store, &cfg, &[("k", "3")]);
        let resolver = Resolver::Custom(Box::new(|c: &Conflict| {
            // Keep the lexicographically larger value.
            Some(c.ours.clone().max(c.theirs.clone()))
        }));
        let out = merge3_sorted(&store, &cfg, TreeType::Map, base, ours, theirs, &resolver)
            .expect("merge");
        let v = get_by_key(&store, out.root, TreeType::Map, b"k").expect("present");
        assert_eq!(v.value.as_ref(), b"3");
    }

    #[test]
    fn delete_vs_edit_conflicts() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = map(&store, &cfg, &[("k", "v"), ("other", "x")]);
        let ours = map(&store, &cfg, &[("other", "x")]); // deleted k
        let theirs = map(&store, &cfg, &[("k", "edited"), ("other", "x")]);
        let err = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base,
            ours,
            theirs,
            &Resolver::Fail,
        )
        .expect_err("conflict");
        let MergeError::Conflicts(err) = err else {
            panic!("expected conflicts, got {err:?}");
        };
        assert_eq!(err[0].ours, None);
        assert_eq!(err[0].theirs.as_deref(), Some(&b"edited"[..]));
    }

    #[test]
    fn blob_merge_disjoint_regions() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base_data = vec![b'x'; 1000];
        let base = Blob::build(&store, &cfg, &base_data);
        let ours = base.splice(&store, &cfg, 10, 5, b"OURS!").expect("splice");
        let theirs = base
            .splice(&store, &cfg, 900, 5, b"THEIRS")
            .expect("splice");

        let merged = merge3_blob(&store, &cfg, base.root(), ours.root(), theirs.root())
            .expect("clean merge");
        let content = Blob::from_root(merged).read_all(&store).expect("read");
        let mut expected = base_data.clone();
        expected.splice(900..905, b"THEIRS".iter().copied());
        expected.splice(10..15, b"OURS!".iter().copied());
        assert_eq!(content, expected);
    }

    #[test]
    fn blob_merge_overlap_conflicts() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = Blob::build(&store, &cfg, &vec![b'x'; 1000]);
        let ours = base.splice(&store, &cfg, 100, 50, b"AAAA").expect("splice");
        let theirs = base.splice(&store, &cfg, 120, 50, b"BBBB").expect("splice");
        assert!(merge3_blob(&store, &cfg, base.root(), ours.root(), theirs.root()).is_err());
    }

    #[test]
    fn blob_merge_one_side_unchanged() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let base = Blob::build(&store, &cfg, b"base content");
        let ours = base.append(&store, &cfg, b" plus ours").expect("append");
        assert_eq!(
            merge3_blob(&store, &cfg, base.root(), ours.root(), base.root()),
            Ok(ours.root())
        );
        assert_eq!(
            merge3_blob(&store, &cfg, base.root(), base.root(), ours.root()),
            Ok(ours.root())
        );
    }

    #[test]
    fn map_merge_large_disjoint() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let base_map = Map::build(
            &store,
            &cfg,
            (0..5000).map(|i| (format!("k{i:05}"), format!("v{i}"))),
        );
        let ours = base_map.put(&store, &cfg, "k00100", "OURS").expect("put");
        let theirs = base_map.put(&store, &cfg, "k04900", "THEIRS").expect("put");
        let out = merge3_sorted(
            &store,
            &cfg,
            TreeType::Map,
            base_map.root(),
            ours.root(),
            theirs.root(),
            &Resolver::Fail,
        )
        .expect("merge");
        let merged = Map::from_root(out.root);
        assert_eq!(
            merged.get(&store, b"k00100").expect("hit").as_ref(),
            b"OURS"
        );
        assert_eq!(
            merged.get(&store, b"k04900").expect("hit").as_ref(),
            b"THEIRS"
        );
        assert_eq!(merged.len(&store), 5000);
    }
}
