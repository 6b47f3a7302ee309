//! The commit pipeline: every write is a [`Commit`], and every commit
//! takes the same four steps whatever verb asked for it (§3.3, §4.5.1 —
//! build the FObject, hash it into a uid, advance a TB-table head or add
//! a UB-table leaf).
//!
//! 1. **stage** — snapshot the head each commit derives from and link
//!    commits of one batch into chains: a second commit to the same
//!    branch of the same key, or a [`Target::Chained`] commit, derives
//!    from the one before it.
//!    ([`ForkBase`](crate::ForkBase) syncs the hot tier first.)
//! 2. **encode** — outside every slot lock: check the commit against its
//!    parent (branch exists, guard holds, parent belongs to the key),
//!    resolve the payload (a value as is, edits spliced onto the parent
//!    map, a three-way merge with the reference) and build the meta
//!    chunk. A value needs only its parent's uid and depth. The depth
//!    comes from the batch for a parent made earlier in it, and from the
//!    key's branch table for the version this process published there
//!    last ([`BranchTable::published_depth`](crate::branch::BranchTable::published_depth)):
//!    such a commit reads nothing, the uid having settled the key and
//!    the depth. Any other parent is read off the store and checked.
//!    The whole batch is encoded before the first head moves, so a
//!    commit that cannot succeed fails the batch untouched.
//! 3. **store** — one [`ChunkStore::put_many`](forkbase_chunk::ChunkStore::put_many)
//!    for the batch's meta chunks: one group-commit round on a durable
//!    store, however many commits.
//! 4. **publish** — per chain, under its key's slot lock: untagged
//!    commits are recorded in the UB-table; a tagged chain advances its
//!    branch only if the head still is the one staged. The table then
//!    remembers the chain's last uid and depth. A chain that lost that
//!    race goes round again from step 2 with the observed head as its
//!    parent (and that head's depth, if the table knows it), and the
//!    payload decides what that means: a guarded commit fails, a value
//!    is re-linked, map edits are merged onto the new head, a merge is
//!    redone against it.
//!
//! Heads of different keys are published independently — a reader racing
//! a batch may see some keys advanced and others not yet; per key the
//! move is atomic. Chunks written by an abandoned round deduplicate or
//! become garbage for a later [`gc`](crate::gc) pass, like an abandoned
//! fork-on-conflict lineage.

use crate::branch::BranchSlot;
use crate::db::{Engine, DEFAULT_BRANCH};
use crate::error::{FbError, Result};
use crate::fobject::FObject;
use crate::history;
use crate::value::{Value, ValueType};
use bytes::Bytes;
use forkbase_chunk::Chunk;
use forkbase_crypto::fx::FxHashMap;
use forkbase_crypto::Digest;
use forkbase_pos::{builder, merge3_blob, merge3_sorted, Map, Resolver, TreeType, WriteBatch};
use std::borrow::Cow;

/// The head a commit moves.
#[derive(Clone, Copy, Debug)]
pub enum Target<'a> {
    /// Advance a tagged branch (TB-table, M3). The default branch is
    /// created by its first commit; any other must exist.
    Branch(&'a str),
    /// Fork on conflict (UB-table, M4): add an untagged version derived
    /// from `base`, a stored version of the same key, or starting a
    /// lineage for `None`. Two commits on one base leave two heads.
    Untagged {
        /// The version derived from.
        base: Option<Digest>,
    },
    /// [`Untagged`](Target::Untagged), derived from the commit before
    /// this one in the batch — which must itself be an untagged commit
    /// to the same key. How a batch appends a chain whose uids exist
    /// only once it is encoded.
    Chained,
}

/// What a commit writes.
pub enum Payload<'a> {
    /// This value.
    Value(Value),
    /// The parent version's Map with these edits applied as one splice
    /// (an empty map when there is no parent).
    MapEdits(WriteBatch),
    /// The three-way merge (§4.5.2) of the parent version with
    /// `reference`. Where the parent already contains the reference no
    /// version is made and the commit yields the parent's uid.
    Merge {
        /// The version merged in.
        reference: Digest,
        /// Settles changes both sides made.
        resolver: &'a Resolver,
    },
}

/// One write: the request type of the commit pipeline (module docs).
pub struct Commit<'a> {
    /// The key written.
    pub key: Bytes,
    /// The head that moves.
    pub target: Target<'a>,
    /// What is written.
    pub payload: Payload<'a>,
    /// Application metadata for the FObject `context` field. The uid
    /// commits to it, so it is tamper-evident like the value.
    pub context: Bytes,
    /// Fail with [`FbError::GuardFailed`] unless the parent version —
    /// the branch head, or the untagged base — is exactly this one
    /// (§4.5.1, protection against lost updates).
    pub guard: Option<Digest>,
}

impl<'a> Commit<'a> {
    /// A commit to a tagged branch, the default branch for `None`.
    pub fn branch(key: impl Into<Bytes>, branch: Option<&'a str>, payload: Payload<'a>) -> Self {
        let target = Target::Branch(branch.unwrap_or(DEFAULT_BRANCH));
        Commit {
            key: key.into(),
            target,
            payload,
            context: Bytes::new(),
            guard: None,
        }
    }

    /// An untagged (fork-on-conflict) commit derived from `base`.
    pub fn untagged(key: impl Into<Bytes>, base: Option<Digest>, payload: Payload<'a>) -> Self {
        Commit {
            target: Target::Untagged { base },
            ..Commit::branch(key, None, payload)
        }
    }
}

/// A commit's way through the pipeline.
struct Plan {
    /// The key's branch table as staged; `None` while the key has none
    /// (publish creates it).
    slot: Option<BranchSlot>,
    /// The commit of this batch it derives from, or else…
    prev: Option<usize>,
    /// …the stored version it derives from: the head staged, the base
    /// named, or after a lost race the head observed.
    head: Option<Digest>,
    /// `head`'s depth where the branch table knew it
    /// ([`BranchTable::published_depth`](crate::branch::BranchTable::published_depth)).
    head_depth: Option<u64>,
    /// The next commit of the same chain.
    next: Option<usize>,
    uid: Digest,
    depth: u64,
    bases: Vec<Digest>,
    /// False where a merge made no version: `uid` is the parent's.
    fresh: bool,
    /// Map edits: the (parent, result) map roots of the last encode.
    spliced: Option<(Digest, Digest)>,
    published: bool,
}

impl Engine {
    /// Run `commits` through the pipeline (module docs); the uids come
    /// back in commit order. An error leaves chains already published
    /// in place, as the same commits issued one at a time would.
    pub(crate) fn commit_all(&self, commits: &[Commit<'_>]) -> Result<Vec<Digest>> {
        self.commit_all_marked(commits, &[])
    }

    /// [`commit_all`](Self::commit_all) for the hot tier's publish
    /// rounds: `marks[i]` is noted in commit `i`'s branch table as its
    /// head moves ([`BranchTable::note_hot_mark`](crate::branch::BranchTable::note_hot_mark)).
    pub(crate) fn commit_all_marked(
        &self,
        commits: &[Commit<'_>],
        marks: &[u64],
    ) -> Result<Vec<Digest>> {
        let mut plans = self.stage(commits)?;
        loop {
            let mut chunks = Vec::with_capacity(commits.len());
            for (i, commit) in commits.iter().enumerate() {
                if !plans[i].published {
                    self.encode(commit, i, &mut plans, &mut chunks)?;
                }
            }
            // A lone chunk is the single-commit route: `put` is
            // `put_many` without the per-batch vectors.
            if chunks.len() == 1 {
                self.store.put(chunks.remove(0));
            } else {
                self.store.put_many(chunks);
            }
            let mut settled = true;
            for first in 0..commits.len() {
                if !plans[first].published && plans[first].prev.is_none() {
                    let mark = marks.get(first).copied();
                    settled &= self.publish(commits, first, mark, &mut plans);
                }
            }
            if settled {
                return Ok(plans.iter().map(|plan| plan.uid).collect());
            }
        }
    }

    /// Step 1: what every commit derives from — the head as it stands,
    /// the base named, or the commit before it in its chain.
    fn stage(&self, commits: &[Commit<'_>]) -> Result<Vec<Plan>> {
        let mut plans: Vec<Plan> = Vec::with_capacity(commits.len());
        // The last commit so far of each (key, branch). A batch of one
        // has nothing to chain to and never touches the map.
        let mut tips: FxHashMap<(&[u8], &str), usize> = FxHashMap::default();
        for (i, commit) in commits.iter().enumerate() {
            let (mut slot, mut prev, mut head, mut head_depth) = (None, None, None, None);
            match commit.target {
                Target::Branch(branch) => {
                    if commits.len() > 1 {
                        prev = tips.insert((&commit.key[..], branch), i);
                    }
                    if prev.is_none() {
                        slot = self.branches.get(&commit.key);
                        if let Some(slot) = &slot {
                            let table = slot.read();
                            head = table.head(branch);
                            head_depth = head.and_then(|uid| table.published_depth(uid));
                        }
                    }
                }
                Target::Untagged { base } => {
                    head = base;
                    if let Some(base) = base {
                        slot = self.branches.get(&commit.key);
                        head_depth = slot.as_ref().and_then(|s| s.read().published_depth(base));
                    }
                }
                Target::Chained => {
                    prev = i.checked_sub(1).filter(|&j| {
                        !matches!(commits[j].target, Target::Branch(_))
                            && commits[j].key == commit.key
                    });
                    if prev.is_none() {
                        return Err(FbError::KeyNotFound);
                    }
                }
            }
            if let Some(j) = prev {
                plans[j].next = Some(i);
            }
            plans.push(Plan {
                slot,
                prev,
                head,
                head_depth,
                next: None,
                uid: Digest::ZERO,
                depth: 0,
                bases: Vec::new(),
                fresh: false,
                spliced: None,
                published: false,
            });
        }
        Ok(plans)
    }

    /// Step 2 for commit `i`: check it against its parent, resolve its
    /// payload, and build its meta chunk into `chunks` — the one place a
    /// commit's FObject is made.
    fn encode(
        &self,
        commit: &Commit<'_>,
        i: usize,
        plans: &mut [Plan],
        chunks: &mut Vec<Chunk>,
    ) -> Result<()> {
        let store = self.store.as_ref();
        let (parent, batch_depth) = match plans[i].prev {
            Some(j) => (Some(plans[j].uid), Some(plans[j].depth)),
            None => (plans[i].head, None),
        };
        let known_depth = batch_depth.or(plans[i].head_depth);
        // Only the default branch can start here, and only unguarded; a
        // merge without a parent words it as `head` does, below.
        let is_merge = matches!(commit.payload, Payload::Merge { .. });
        if let (Target::Branch(branch), None, false) = (commit.target, parent, is_merge) {
            if branch != DEFAULT_BRANCH || commit.guard.is_some() {
                return Err(FbError::BranchNotFound(branch.to_string()));
            }
        }
        if let (Some(expected), Some(actual)) = (commit.guard, parent) {
            if expected != actual {
                return Err(FbError::GuardFailed { expected, actual });
            }
        }

        // A value needs only its parent's uid and depth, and the depth is
        // known for a parent made earlier in this batch or published last
        // by this process. Edits and merges read the parent version off
        // the store, so one made earlier in this batch has to reach the
        // store first.
        let reads_parent = !matches!(commit.payload, Payload::Value(_));
        if reads_parent && batch_depth.is_some() {
            self.store.put_many(std::mem::take(chunks));
        }
        let parent_obj = match parent {
            Some(uid) if reads_parent || known_depth.is_none() => {
                Some(self.version(&commit.key, uid)?)
            }
            _ => None,
        };
        let parent_depth = known_depth.or(parent_obj.as_ref().map(|obj| obj.depth));
        let mut depth = parent_depth.map_or(0, |depth| depth + 1);
        let mut bases: Vec<Digest> = parent.into_iter().collect();

        let value = match &commit.payload {
            Payload::Value(value) => Cow::Borrowed(value),
            Payload::MapEdits(edits) => {
                let base = match &parent_obj {
                    Some(obj) => obj.value(store)?.as_map()?,
                    None => Map::build(store, &self.cfg, std::iter::empty::<(Bytes, Bytes)>()),
                };
                Cow::Owned(Value::Map(self.splice(
                    base,
                    edits,
                    &mut plans[i].spliced,
                )?))
            }
            Payload::Merge {
                reference,
                resolver,
            } => {
                let (Some(ours_uid), Some(ours)) = (parent, &parent_obj) else {
                    return Err(match (&plans[i].slot, commit.target) {
                        (Some(_), Target::Branch(branch)) => {
                            FbError::BranchNotFound(branch.to_string())
                        }
                        _ => FbError::KeyNotFound,
                    });
                };
                match self.merge(&commit.key, ours_uid, ours, *reference, resolver)? {
                    Some((merged, theirs_depth)) => {
                        depth = ours.depth.max(theirs_depth) + 1;
                        bases.push(*reference);
                        Cow::Owned(merged)
                    }
                    None => {
                        let plan = &mut plans[i];
                        (plan.uid, plan.depth, plan.fresh) = (ours_uid, ours.depth, false);
                        return Ok(());
                    }
                }
            }
        };

        let obj = FObject::new(
            commit.key.clone(),
            &value,
            bases,
            depth,
            commit.context.clone(),
        );
        let chunk = obj.to_chunk();
        let plan = &mut plans[i];
        (plan.uid, plan.depth, plan.fresh) = (chunk.cid(), depth, true);
        plan.bases = obj.bases;
        chunks.push(chunk);
        Ok(())
    }

    /// Step 4 for the chain that starts at `first`, under its key's
    /// slot lock — the one place a commit moves a head. `false`: the
    /// branch head is no longer the one staged; nothing was published
    /// and the chain's parent is now the head observed.
    fn publish(
        &self,
        commits: &[Commit<'_>],
        first: usize,
        mark: Option<u64>,
        plans: &mut [Plan],
    ) -> bool {
        let commit = &commits[first];
        let slot = plans[first]
            .slot
            .get_or_insert_with(|| self.branches.slot(&commit.key))
            .clone();
        let mut table = slot.write();
        if let Target::Branch(branch) = commit.target {
            let observed = table.head(branch);
            if observed != plans[first].head {
                plans[first].head = observed;
                plans[first].head_depth = observed.and_then(|uid| table.published_depth(uid));
                return false;
            }
        }
        let mut tip = first;
        let mut at = Some(first);
        while let Some(i) = at {
            let plan = &mut plans[i];
            if plan.fresh {
                table.record_version(plan.uid, &plan.bases);
            }
            plan.published = true;
            (tip, at) = (i, plan.next);
        }
        if let Target::Branch(branch) = commit.target {
            table.set_head(branch, plans[tip].uid);
        }
        table.note_published(plans[tip].uid, plans[tip].depth);
        if let Some(mark) = mark {
            table.note_hot_mark(mark);
        }
        true
    }

    /// `edits` applied to `base`. `last` remembers the splice across
    /// rounds: after a lost race the map already spliced is merged onto
    /// the new base instead, its edits winning, which re-walks only the
    /// regions both sides touched. A base it cannot be merged onto is
    /// spliced afresh.
    fn splice(
        &self,
        base: Map,
        edits: &WriteBatch,
        last: &mut Option<(Digest, Digest)>,
    ) -> Result<Map> {
        let store = self.store.as_ref();
        let merged = last.and_then(|(old_base, ours)| {
            let (theirs, resolver) = (base.root(), &Resolver::TakeOurs);
            merge3_sorted(
                store,
                &self.cfg,
                TreeType::Map,
                old_base,
                ours,
                theirs,
                resolver,
            )
            .ok()
        });
        let map = match merged {
            Some(out) => Map::from_root(out.root),
            None => base.apply(store, &self.cfg, edits.clone())?,
        };
        *last = Some((base.root(), map.root()));
        Ok(map)
    }

    /// The value and the reference's depth for a version merging
    /// `theirs` into `ours`; `None` where `ours` already contains
    /// `theirs` (the same version, or an ancestor). `ours` being the
    /// ancestor is a fast-forward: the merged value is theirs.
    fn merge(
        &self,
        key: &Bytes,
        ours_uid: Digest,
        ours: &FObject,
        theirs_uid: Digest,
        resolver: &Resolver,
    ) -> Result<Option<(Value, u64)>> {
        if ours_uid == theirs_uid {
            return Ok(None);
        }
        let store = self.store.as_ref();
        let theirs = self.version(key, theirs_uid)?;
        let base_uid = history::lca(store, ours_uid, theirs_uid)?;
        if base_uid == Some(theirs_uid) {
            return Ok(None);
        }
        let merged = if base_uid == Some(ours_uid) {
            theirs.value(store)?
        } else {
            let base = base_uid.map(|uid| FObject::load(store, uid)).transpose()?;
            self.merge_values(ours, &theirs, base.as_ref(), resolver)?
        };
        Ok(Some((merged, theirs.depth)))
    }

    /// Type-specific three-way value merge (§4.5.2).
    fn merge_values(
        &self,
        ours: &FObject,
        theirs: &FObject,
        base: Option<&FObject>,
        resolver: &Resolver,
    ) -> Result<Value> {
        if ours.vtype != theirs.vtype {
            return Err(FbError::TypeMismatch {
                found: theirs.vtype.name(),
                expected: ours.vtype.name(),
            });
        }
        let store = self.store.as_ref();
        let ours_v = ours.value(store)?;
        let theirs_v = theirs.value(store)?;
        let base_v = match base {
            Some(b) if b.vtype == ours.vtype => Some(b.value(store)?),
            _ => None,
        };
        // The objects came off the store: a chunkable type tag over a
        // value without a tree root is corruption, not a bug here.
        let tree = |value: &Value| {
            let tree = value.tree_root();
            tree.ok_or_else(|| FbError::Corrupt("chunkable value without a tree root".into()))
        };

        match ours.vtype {
            ValueType::Map | ValueType::Set | ValueType::Blob => {
                let ((ty, ours_root), (_, theirs_root)) = (tree(&ours_v)?, tree(&theirs_v)?);
                let base_root = match &base_v {
                    Some(v) => tree(v)?.1,
                    None if ty == TreeType::Blob => builder::build_blob(store, &self.cfg, &[]),
                    None => builder::build_items(store, &self.cfg, ty, std::iter::empty()),
                };
                let merged = if ty == TreeType::Blob {
                    merge3_blob(store, &self.cfg, base_root, ours_root, theirs_root).map_err(
                        |e| match e {
                            forkbase_pos::BlobMergeError::Conflict(_) => FbError::MergeConflict(1),
                            forkbase_pos::BlobMergeError::Corrupt(t) => FbError::from(t),
                        },
                    )?
                } else {
                    let cfg = &self.cfg;
                    merge3_sorted(store, cfg, ty, base_root, ours_root, theirs_root, resolver)
                        .map_err(|e| match e {
                            forkbase_pos::MergeError::Conflicts(c) => {
                                FbError::MergeConflict(c.len())
                            }
                            forkbase_pos::MergeError::Corrupt(t) => FbError::from(t),
                        })?
                        .root
                };
                Value::decode_data(ours.vtype, merged.as_bytes())
            }
            // Whole-value merge for primitives and List.
            _ => {
                if ours_v == theirs_v {
                    return Ok(ours_v);
                }
                if base_v.as_ref() == Some(&ours_v) {
                    return Ok(theirs_v);
                }
                if base_v.as_ref() == Some(&theirs_v) {
                    return Ok(ours_v);
                }
                match resolver {
                    Resolver::TakeOurs => Ok(ours_v),
                    Resolver::TakeTheirs => Ok(theirs_v),
                    Resolver::Append => match (&ours_v, &theirs_v) {
                        (Value::String(a), Value::String(b)) => {
                            Ok(Value::String(format!("{a}{b}")))
                        }
                        _ => Err(FbError::MergeConflict(1)),
                    },
                    Resolver::Aggregate => match (&base_v, &ours_v, &theirs_v) {
                        (Some(Value::Int(b)), Value::Int(o), Value::Int(t)) => {
                            Ok(Value::Int(b + (o - b) + (t - b)))
                        }
                        (None, Value::Int(o), Value::Int(t)) => Ok(Value::Int(o + t)),
                        _ => Err(FbError::MergeConflict(1)),
                    },
                    _ => Err(FbError::MergeConflict(1)),
                }
            }
        }
    }
}
