//! Per-key branch tables (§4.5).
//!
//! "For each data key there is a branch table that holds all its branches'
//! heads … Tagged branches are maintained in a map structure called
//! TB-table … Untagged branches are maintained in a set structure called
//! UB-table … UB-table essentially maintains all the leaf nodes in the
//! object derivation graph."

use bytes::Bytes;
use forkbase_crypto::fx::{FxHashMap, FxHashSet};
use forkbase_crypto::Digest;
use parking_lot::RwLock;
use std::sync::Arc;

/// Branch heads of a single key.
///
/// Beside the two tables it keeps one hint: the uid and depth of the
/// last version this process published for the key, so that a value
/// committed on top of it needs no read of its parent (§4.5.1: a uid
/// hashes the depth, so the pair is a content-addressed fact). The hint
/// lives in memory only: it is never persisted and is not part of a
/// [`BranchSnapshot`](crate::checkpoint::BranchSnapshot), so a table
/// loaded from a checkpoint starts without one.
#[derive(Clone, Debug, Default)]
pub struct BranchTable {
    /// TB-table: branch name → head uid.
    tagged: FxHashMap<String, Digest>,
    /// UB-table: heads of untagged branches (derivation-graph leaves).
    untagged: FxHashSet<Digest>,
    /// (uid, depth) of the last version published here.
    published: Option<(Digest, u64)>,
    /// Every hot-tier edit of this key numbered below this is in the
    /// default branch's head (see [`crate::hot`]). Moved with the head,
    /// under the same lock, so a checkpoint reads the two consistently.
    hot_mark: u64,
}

impl BranchTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Head of a tagged branch.
    pub fn head(&self, branch: &str) -> Option<Digest> {
        self.tagged.get(branch).copied()
    }

    /// True if the tagged branch exists.
    pub fn has_branch(&self, branch: &str) -> bool {
        self.tagged.contains_key(branch)
    }

    /// Set a tagged branch head (Put-Branch, Fork, Rename).
    pub fn set_head(&mut self, branch: &str, head: Digest) {
        // Advancing an existing branch is the common case; it needs no
        // owned name.
        match self.tagged.get_mut(branch) {
            Some(current) => *current = head,
            None => {
                self.tagged.insert(branch.to_string(), head);
            }
        }
    }

    /// Remove a tagged branch; returns its head if it existed.
    pub fn remove_branch(&mut self, branch: &str) -> Option<Digest> {
        self.tagged.remove(branch)
    }

    /// Rename a tagged branch; returns false if the source is missing.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        match self.tagged.remove(from) {
            Some(head) => {
                self.tagged.insert(to.to_string(), head);
                true
            }
            None => false,
        }
    }

    /// All tagged branches as (name, head) pairs, sorted by name for
    /// deterministic output.
    pub fn tagged_branches(&self) -> Vec<(String, Digest)> {
        let mut out: Vec<_> = self
            .tagged
            .iter()
            .map(|(name, head)| (name.clone(), *head))
            .collect();
        out.sort();
        out
    }

    /// All untagged heads, sorted for deterministic output.
    pub fn untagged_heads(&self) -> Vec<Digest> {
        let mut out: Vec<_> = self.untagged.iter().copied().collect();
        out.sort();
        out
    }

    /// Number of untagged heads.
    pub fn untagged_count(&self) -> usize {
        self.untagged.len()
    }

    /// Record a newly created FObject in the UB-table: insert its uid,
    /// retire the bases it derives from (§4.5.1). "If the new FObject
    /// already exists … the UB-table simply ignores it."
    pub fn record_version(&mut self, uid: Digest, bases: &[Digest]) {
        for base in bases {
            self.untagged.remove(base);
        }
        self.untagged.insert(uid);
    }

    /// Remember `uid` at `depth` as the last version published here.
    pub fn note_published(&mut self, uid: Digest, depth: u64) {
        self.published = Some((uid, depth));
    }

    /// Record that hot-tier edits numbered below `mark` are now in the
    /// default branch's head. Marks only rise: a round that lost a race
    /// to a later one has nothing to take back.
    pub fn note_hot_mark(&mut self, mark: u64) {
        self.hot_mark = self.hot_mark.max(mark);
    }

    /// The hot-tier edit number below which this key's edits are in the
    /// head; 0 when the tier has published none here.
    pub fn hot_mark(&self) -> u64 {
        self.hot_mark
    }

    /// The depth of `parent` if it is the last version published here
    /// and still a head of the table, tagged or untagged. A head is never
    /// collected, so a commit onto it may skip reading it back.
    pub fn published_depth(&self, parent: Digest) -> Option<u64> {
        let (uid, depth) = self.published?;
        let is_head = || self.untagged.contains(&uid) || self.tagged.values().any(|h| *h == uid);
        (uid == parent && is_head()).then_some(depth)
    }

    /// True when the key has no conflicting untagged heads (§3.3.2: M10
    /// "returns a single head version if no conflict is found").
    pub fn has_conflict(&self) -> bool {
        self.untagged.len() > 1
    }

    /// Drop a head from the UB-table without recording a successor. Used
    /// when a tagged branch is removed and nothing else names its head:
    /// the version ceases to be a tracked leaf of the derivation graph,
    /// making it collectable by [`crate::gc`].
    pub fn retire_untagged(&mut self, head: Digest) -> bool {
        self.untagged.remove(&head)
    }
}

/// A key's branch-table slot: one `BranchTable` behind its own lock.
/// Handles are cloned out of the [`ShardedBranchMap`] so commit paths
/// hold only this key's lock, never the map's.
pub type BranchSlot = Arc<RwLock<BranchTable>>;

/// Striped-lock shard count. Power of two so slot selection is a mask;
/// 64 stripes keep the collision probability negligible for any
/// realistic writer count while costing ~only a cache line each.
const SHARDS: usize = 64;

/// Branch-head state for a whole instance: per-key [`BranchTable`] slots
/// behind striped locks, replacing the old instance-global branch lock.
///
/// Writers resolve their key to a `BranchSlot` (a brief shard-lock
/// probe) and then serialize only on that slot — commits to disjoint
/// keys never contend, which is what lets the commit pipeline scale
/// across cores. The shard write lock is held only to insert a missing
/// slot, never across a commit.
pub struct ShardedBranchMap {
    shards: Box<[RwLock<FxHashMap<Bytes, BranchSlot>>]>,
}

impl Default for ShardedBranchMap {
    fn default() -> Self {
        ShardedBranchMap {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
        }
    }
}

impl ShardedBranchMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// FNV-1a over the key bytes; independent of the per-table hasher so
    /// shard skew cannot correlate with in-shard collisions.
    fn shard_of(&self, key: &[u8]) -> usize {
        let h = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (h as usize) & (self.shards.len() - 1)
    }

    /// The key's slot, created empty if absent.
    pub fn slot(&self, key: &Bytes) -> BranchSlot {
        let shard = &self.shards[self.shard_of(key)];
        if let Some(slot) = shard.read().get(key) {
            return Arc::clone(slot);
        }
        let mut shard = shard.write();
        Arc::clone(shard.entry(key.clone()).or_default())
    }

    /// The key's slot if it exists.
    pub fn get(&self, key: &Bytes) -> Option<BranchSlot> {
        self.shards[self.shard_of(key)].read().get(key).cloned()
    }

    /// Every key with a slot, sorted.
    pub fn keys(&self) -> Vec<Bytes> {
        let mut keys: Vec<Bytes> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// Visit every (key, table) pair. Per-slot reads are individually
    /// consistent; the traversal as a whole is not a point-in-time
    /// snapshot under concurrent writers (quiesce before checkpointing
    /// when that matters, as the old global lock forced anyway).
    pub fn for_each(&self, mut f: impl FnMut(&Bytes, &BranchTable)) {
        for shard in self.shards.iter() {
            let shard = shard.read();
            for (key, slot) in shard.iter() {
                f(key, &slot.read());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::hash_bytes;

    #[test]
    fn tagged_branch_lifecycle() {
        let mut t = BranchTable::new();
        let h1 = hash_bytes(b"v1");
        let h2 = hash_bytes(b"v2");

        assert_eq!(t.head("master"), None);
        t.set_head("master", h1);
        assert_eq!(t.head("master"), Some(h1));
        t.set_head("master", h2);
        assert_eq!(t.head("master"), Some(h2));

        assert!(t.rename("master", "main"));
        assert_eq!(t.head("master"), None);
        assert_eq!(t.head("main"), Some(h2));
        assert!(!t.rename("missing", "x"));

        assert_eq!(t.remove_branch("main"), Some(h2));
        assert_eq!(t.remove_branch("main"), None);
    }

    #[test]
    fn untagged_tracks_dag_leaves() {
        let mut t = BranchTable::new();
        let v1 = hash_bytes(b"v1");
        let v2 = hash_bytes(b"v2");
        let v3 = hash_bytes(b"v3");

        // Linear chain: v1 <- v2 keeps a single head.
        t.record_version(v1, &[]);
        assert!(!t.has_conflict());
        t.record_version(v2, &[v1]);
        assert_eq!(t.untagged_heads(), {
            let mut v = vec![v2];
            v.sort();
            v
        });

        // Concurrent write off v1 (already derived): conflict appears.
        t.record_version(v3, &[v1]);
        assert!(t.has_conflict());
        assert_eq!(t.untagged_count(), 2);

        // Merging both heads resolves the conflict.
        let merged = hash_bytes(b"merged");
        t.record_version(merged, &[v2, v3]);
        assert!(!t.has_conflict());
        assert_eq!(t.untagged_heads(), vec![merged]);
    }

    #[test]
    fn duplicate_version_ignored() {
        let mut t = BranchTable::new();
        let v1 = hash_bytes(b"v1");
        t.record_version(v1, &[]);
        t.record_version(v1, &[]);
        assert_eq!(t.untagged_count(), 1);
    }

    #[test]
    fn sharded_map_slots_are_shared_handles() {
        let m = ShardedBranchMap::new();
        let k = Bytes::from("k");
        let a = m.slot(&k);
        a.write().set_head("master", hash_bytes(b"v"));
        let b = m.get(&k).expect("slot exists");
        assert_eq!(b.read().head("master"), Some(hash_bytes(b"v")));
        assert!(m.get(&Bytes::from("other")).is_none());
        assert_eq!(m.keys(), vec![k]);
    }

    #[test]
    fn sharded_map_visits_every_key_across_shards() {
        let m = ShardedBranchMap::new();
        for i in 0..200u8 {
            let k = Bytes::from(format!("key-{i}"));
            m.slot(&k).write().set_head("b", hash_bytes(&[i]));
        }
        let mut n = 0;
        m.for_each(|_, t| {
            assert!(t.has_branch("b"));
            n += 1;
        });
        assert_eq!(n, 200);
        assert_eq!(m.keys().len(), 200);
    }

    #[test]
    fn listing_is_sorted() {
        let mut t = BranchTable::new();
        t.set_head("zeta", hash_bytes(b"z"));
        t.set_head("alpha", hash_bytes(b"a"));
        let names: Vec<_> = t.tagged_branches().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
