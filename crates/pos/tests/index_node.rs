//! Index nodes read in place, fed every way an index payload can be
//! wrong.
//!
//! `IndexNode::parse` replaced an entry-list decode that copied each cid
//! and took a refcounted slice per key. It must accept exactly what that
//! decode accepted, read back the same `(cid, count, key)` triples, never
//! panic and never lend out a slice that is not inside the payload — and
//! `TreeCursor::descend` must enter exactly the child nodes the old cursor
//! entered: the level its parent names, at least one entry, counts that
//! sum to the parent entry's. So: the index nodes of real Map, Set, List
//! and Blob trees, cut at every byte and with every byte flipped, then
//! random bytes, each parsed on its own and entered through a cursor from
//! a parent that names it. The old decode, kept below, is the oracle.
//!
//! CI runs this file in the default and the `naive-baseline` leg.

use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint};
use forkbase_chunk::MemStore;
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::builder::{build_blob, build_items};
use forkbase_pos::entry::encode_index_payload;
use forkbase_pos::scan::TreeCursor;
use forkbase_pos::types::TreeType;
use forkbase_pos::{Chunk, ChunkStore, IndexEntry, IndexNode, Item};

// ---------------------------------------------------------------------
// The oracle: the entry-list decode the cursor used before
// ---------------------------------------------------------------------

/// Decode an index-chunk payload into `(level, entries)`.
fn decode_index_payload(payload: &Bytes, sorted: bool) -> Option<(u64, Vec<IndexEntry>)> {
    let buf: &[u8] = payload;
    let mut pos = 0;
    let level = get_varint(buf, &mut pos)?;
    let mut entries = Vec::new();
    while pos < buf.len() {
        if buf.len() < pos + Digest::LEN {
            return None;
        }
        let cid = Digest::from_slice(&buf[pos..pos + Digest::LEN])?;
        pos += Digest::LEN;
        let count = get_varint(buf, &mut pos)?;
        let key = if sorted {
            let sub = get_bytes(buf, &mut pos)?;
            let start = sub.as_ptr() as usize - buf.as_ptr() as usize;
            payload.slice(start..start + sub.len())
        } else {
            Bytes::new()
        };
        entries.push(IndexEntry { cid, count, key });
    }
    Some((level, entries))
}

/// The entries' count sum; `None` past `u64::MAX`.
fn sum_counts(entries: &[IndexEntry]) -> Option<u64> {
    entries
        .iter()
        .try_fold(0u64, |acc, e| acc.checked_add(e.count))
}

/// The entries the old cursor read from `payload` as the child its
/// parent names at `level` with `count` elements; `None` if it refused.
fn old_descend(payload: &Bytes, sorted: bool, level: u64, count: u64) -> Option<Vec<IndexEntry>> {
    let (lvl, entries) = decode_index_payload(payload, sorted)?;
    (lvl == level && !entries.is_empty() && sum_counts(&entries) == Some(count)).then_some(entries)
}

// ---------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------

/// True if `inner` lies inside `outer`'s memory.
fn within(inner: &[u8], outer: &[u8]) -> bool {
    let (o, i) = (outer.as_ptr() as usize, inner.as_ptr() as usize);
    inner.is_empty() || (o <= i && i + inner.len() <= o + outer.len())
}

/// `IndexNode::parse` against the old decode.
fn check_parse(payload: &Bytes, sorted: bool) {
    let old = decode_index_payload(payload, sorted);
    let Some(node) = IndexNode::parse(payload.clone(), sorted) else {
        // A count sum past `u64::MAX` decoded, but no reader took it.
        assert!(
            old.is_none_or(|(_, entries)| sum_counts(&entries).is_none()),
            "rejected what the old decode accepted"
        );
        return;
    };
    let (level, entries) = old.expect("accepted what the old decode rejected");
    assert_eq!((node.level(), node.len()), (level, entries.len()));
    for (i, want) in entries.iter().enumerate() {
        let e = node.entry(i).expect("an entry below len()");
        assert!(within(e.cid.as_bytes(), payload) && within(e.key, payload));
        assert_eq!(
            (*e.cid, e.count, e.key),
            (want.cid, want.count, &want.key[..])
        );
        assert_eq!(node.before(i + 1) - node.before(i), want.count);
    }
    assert!(node.entry(entries.len()).is_none());
    assert_eq!(Some(node.total()), sum_counts(&entries));
}

/// `TreeCursor::descend` into `payload`, named by the one entry of a
/// parent at `level + 1` with `count` elements, against the old cursor.
fn check_descend(ty: TreeType, payload: &Bytes, level: u64, count: u64) {
    let store = MemStore::new();
    let child = Chunk::new(ty.index_chunk(), payload.clone());
    let entry = IndexEntry {
        cid: child.cid(),
        count,
        key: Bytes::from_static(b"\xff"),
    };
    let parent = Chunk::new(
        ty.index_chunk(),
        encode_index_payload(level + 1, &[entry], ty.is_sorted()),
    );
    let root = parent.cid();
    store.put(child);
    store.put(parent);

    let mut cur = TreeCursor::new(&store, root, ty).expect("the parent parses");
    let got = cur.descend().map(|()| {
        // The child's entries, then the parent's only one is passed too.
        let mut entries = Vec::new();
        while let Some(e) = cur.entry() {
            entries.push(e.to_owned());
            cur.advance();
        }
        entries
    });
    assert_eq!(got, old_descend(payload, ty.is_sorted(), level, count));
}

/// Both checks on one payload, the cursor told what the intact node was.
fn check(ty: TreeType, payload: &Bytes, level: u64, count: u64) {
    check_parse(payload, ty.is_sorted());
    check_descend(ty, payload, level, count);
}

// ---------------------------------------------------------------------
// Real index nodes, cut and flipped
// ---------------------------------------------------------------------

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// Small leaves under a fanout of about 4: many small index nodes.
fn cfg() -> ChunkerConfig {
    ChunkerConfig {
        leaf_bits: 6,
        index_bits: 2,
        ..ChunkerConfig::default()
    }
}

/// A tree of each type: `(type, root)`.
fn trees(store: &MemStore) -> Vec<(TreeType, Digest)> {
    let cfg = cfg();
    let key = |i: u64| format!("key-{i:05}");
    let map = (0..1500).map(|i| Item::map(key(i), format!("value {}", mix(1, i) % 1000)));
    let set = (0..1500).map(|i| Item::set(key(i)));
    let list = (0..1500).map(|i| Item::list(format!("element {}", mix(2, i) % 100_000)));
    let blob: Vec<u8> = (0..40_000).map(|i| mix(3, i) as u8).collect();
    vec![
        (TreeType::Map, build_items(store, &cfg, TreeType::Map, map)),
        (TreeType::Set, build_items(store, &cfg, TreeType::Set, set)),
        (
            TreeType::List,
            build_items(store, &cfg, TreeType::List, list),
        ),
        (TreeType::Blob, build_blob(store, &cfg, &blob)),
    ]
}

/// Every index node of the tree at `root`: `(payload, level, count)`.
fn index_nodes(store: &MemStore, root: Digest, ty: TreeType) -> Vec<(Bytes, u64, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(cid) = stack.pop() {
        let chunk = store.get(&cid).expect("present");
        if !chunk.ty().is_index() {
            continue;
        }
        let payload = chunk.payload().clone();
        let (level, entries) = decode_index_payload(&payload, ty.is_sorted()).expect("intact");
        stack.extend(entries.iter().map(|e| e.cid));
        out.push((payload, level, sum_counts(&entries).expect("sums")));
    }
    out
}

#[test]
fn every_cut_and_every_flipped_byte_of_real_index_nodes() {
    let store = MemStore::new();
    let mut swept = 0;
    for (ty, root) in trees(&store) {
        let nodes = index_nodes(&store, root, ty);
        assert!(nodes.len() > 20, "{ty:?}: {} index nodes", nodes.len());
        // Every level, and the nodes spread over the tree: one in five.
        for (payload, level, count) in nodes.into_iter().step_by(5) {
            check(ty, &payload, level, count);
            for len in 0..payload.len() {
                check(ty, &payload.slice(..len), level, count);
            }
            for at in 0..payload.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bytes = payload.to_vec();
                    bytes[at] ^= flip;
                    check(ty, &Bytes::from(bytes), level, count);
                }
            }
            swept += 1;
        }
    }
    assert!(swept > 20);
}

/// A count raised in one entry and lowered in the next still sums to the
/// parent's: the old cursor entered that node, so the new one must, and
/// must read the moved counts.
#[test]
fn moved_counts_that_keep_the_sum_are_entered() {
    let store = MemStore::new();
    let (ty, root) = trees(&store)[2];
    let (payload, level, count) = index_nodes(&store, root, ty).swap_remove(0);
    let (_, mut entries) = decode_index_payload(&payload, false).expect("intact");
    assert!(entries.len() > 1 && entries[1].count > 1);
    entries[0].count += 1;
    entries[1].count -= 1;
    let moved = Bytes::from(encode_index_payload(level, &entries, false));
    check(ty, &moved, level, count);
    check(ty, &moved, level, count + 1);
}

/// Counts that sum past `u64::MAX` decoded, but no cursor entered such a
/// node — not even from a parent naming the wrapped sum.
#[test]
fn counts_summing_past_u64_are_refused() {
    let store = MemStore::new();
    let (ty, root) = trees(&store)[0];
    let (payload, level, _) = index_nodes(&store, root, ty).swap_remove(0);
    let (_, mut entries) = decode_index_payload(&payload, true).expect("intact");
    assert!(entries.len() > 1);
    entries[0].count = u64::MAX;
    entries[1].count = 2;
    let wrapped: u64 = entries[2..].iter().fold(1, |acc, e| acc + e.count);
    let over = Bytes::from(encode_index_payload(level, &entries, true));
    assert!(IndexNode::parse(over.clone(), true).is_none());
    check(ty, &over, level, wrapped);
}

// ---------------------------------------------------------------------
// Random bytes
// ---------------------------------------------------------------------

#[test]
fn random_bytes_never_panic_and_agree_with_the_old_decode() {
    let mut accepted = 0;
    for case in 0..4000u64 {
        let len = (mix(case, 0) % 240) as usize;
        let mut bytes: Vec<u8> = (0..len as u64).map(|i| mix(case, i + 1) as u8).collect();
        // Small counts and keys half the time, so that some of them parse.
        if case % 2 == 0 {
            for (i, b) in bytes.iter_mut().enumerate() {
                if i % 7 == 0 {
                    *b &= 0x07;
                }
            }
        }
        let payload = Bytes::from(bytes);
        for ty in [TreeType::Map, TreeType::List] {
            // The level and count the payload itself claims, when it
            // decodes, so that the cursor sometimes takes it.
            let (level, count) = decode_index_payload(&payload, ty.is_sorted())
                .and_then(|(level, entries)| {
                    Some((level.clamp(1, u64::MAX - 1), sum_counts(&entries)?))
                })
                .unwrap_or((1, mix(case, 99) % 1000));
            accepted += usize::from(old_descend(&payload, ty.is_sorted(), level, count).is_some());
            check(ty, &payload, level, count);
        }
    }
    assert!(accepted > 10, "{accepted} random payloads entered");
}
