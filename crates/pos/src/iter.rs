//! Streaming iteration over POS-Tree elements.
//!
//! The iterator fetches one leaf chunk at a time through the store, so
//! "the actual data is fetched gradually on demand" (§3.4) and any caching
//! layer underneath sees chunk-granular accesses.

use crate::leaf::{decode_items, Item};
use crate::scan::TreeCursor;
use crate::types::TreeType;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::Digest;

/// Iterator over the items of a tree, in order: a [`TreeCursor`] plus the
/// decoded items of the leaf it last passed.
pub struct ItemIter<'s> {
    ty: TreeType,
    /// Stands on the entry after the leaf `leaf_items` came from.
    cursor: TreeCursor<'s>,
    leaf_items: std::vec::IntoIter<Item>,
}

impl<'s> ItemIter<'s> {
    /// Iterate the whole tree from its first element.
    pub fn new(store: &'s dyn ChunkStore, root: Digest, ty: TreeType) -> Option<Self> {
        Some(ItemIter {
            ty,
            cursor: TreeCursor::new(store, root, ty)?,
            leaf_items: Vec::new().into_iter(),
        })
    }

    /// Iterate a sorted tree starting from the first item with
    /// `item.key >= key`.
    pub fn seek(store: &'s dyn ChunkStore, root: Digest, ty: TreeType, key: &[u8]) -> Option<Self> {
        let mut it = Self::new(store, root, ty)?;
        it.cursor.seek_key(key)?;
        if !it.cursor.at_end() {
            it.load_leaf()?;
            let skip = it
                .leaf_items
                .as_slice()
                .partition_point(|i| i.key.as_ref() < key);
            if skip > 0 {
                it.leaf_items.nth(skip - 1);
            }
        }
        Some(it)
    }

    /// Decode the leaf under the cursor and step the cursor past it.
    fn load_leaf(&mut self) -> Option<()> {
        self.cursor.descend_to(0)?;
        let chunk = self.cursor.chunk()?;
        self.leaf_items = decode_items(self.ty, chunk.payload())?.into_iter();
        self.cursor.advance();
        Some(())
    }

    /// The next item; the outer `None` is a storage error (a missing or
    /// corrupt chunk), the inner one the end of the tree.
    #[allow(clippy::option_option)]
    fn try_next(&mut self) -> Option<Option<Item>> {
        loop {
            if let Some(item) = self.leaf_items.next() {
                return Some(Some(item));
            }
            if self.cursor.at_end() {
                return Some(None);
            }
            self.load_leaf()?;
        }
    }
}

impl Iterator for ItemIter<'_> {
    type Item = Item;

    /// Ends at the last item or at the first storage error.
    fn next(&mut self) -> Option<Item> {
        self.try_next().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_items;
    use forkbase_chunk::MemStore;
    use forkbase_crypto::ChunkerConfig;

    fn build_map(store: &MemStore, n: usize) -> Digest {
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let items: Vec<Item> = (0..n)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        build_items(store, &cfg, TreeType::Map, items)
    }

    #[test]
    fn iterates_all_in_order() {
        let store = MemStore::new();
        let root = build_map(&store, 2000);
        let keys: Vec<_> = ItemIter::new(&store, root, TreeType::Map)
            .expect("iter")
            .map(|i| i.key)
            .collect();
        assert_eq!(keys.len(), 2000);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration order is key order");
    }

    #[test]
    fn seek_starts_at_key() {
        let store = MemStore::new();
        let root = build_map(&store, 1000);
        let it = ItemIter::seek(&store, root, TreeType::Map, b"k000500").expect("iter");
        let items: Vec<_> = it.collect();
        assert_eq!(items.len(), 500);
        assert_eq!(items[0].key.as_ref(), b"k000500");
    }

    #[test]
    fn seek_between_keys() {
        let store = MemStore::new();
        let root = build_map(&store, 100);
        // "k000050x" sorts after k000050, before k000051.
        let it = ItemIter::seek(&store, root, TreeType::Map, b"k000050x").expect("iter");
        let first = it.take(1).next().expect("non-empty");
        assert_eq!(first.key.as_ref(), b"k000051");
    }

    #[test]
    fn seek_past_end_is_empty() {
        let store = MemStore::new();
        let root = build_map(&store, 100);
        let it = ItemIter::seek(&store, root, TreeType::Map, b"zzz").expect("iter");
        assert_eq!(it.count(), 0);
    }

    #[test]
    fn empty_tree_iterates_nothing() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_items(&store, &cfg, TreeType::Map, std::iter::empty());
        let it = ItemIter::new(&store, root, TreeType::Map).expect("iter");
        assert_eq!(it.count(), 0);
    }

    #[test]
    fn list_iteration_preserves_order() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let items: Vec<Item> = (0..777).map(|i| Item::list(format!("item-{i}"))).collect();
        let root = build_items(&store, &cfg, TreeType::List, items.clone());
        let out: Vec<_> = ItemIter::new(&store, root, TreeType::List)
            .expect("iter")
            .collect();
        assert_eq!(out, items);
    }
}
