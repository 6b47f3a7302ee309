//! The master: cluster runtime information (§4.1 — "the master maintains
//! the cluster runtime information").

/// Chunk placement policy (the Fig. 15 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// One-layer: all of a key's chunks stay on its home servlet.
    OneLayer,
    /// Two-layer: data chunks are scattered by cid; meta chunks stay
    /// local.
    TwoLayer,
}

/// Cluster topology and policy.
#[derive(Clone, Debug)]
pub struct Master {
    n_servlets: usize,
}

impl Master {
    /// A master for `n_servlets` nodes.
    pub(crate) fn new(n_servlets: usize) -> Master {
        assert!(n_servlets >= 1, "need at least one servlet");
        Master { n_servlets }
    }

    /// The home servlet of a request key (layer 1: key-hash routing).
    pub fn servlet_of(&self, key: &[u8]) -> usize {
        (forkbase_crypto::hash_bytes(key).prefix_u64() % self.n_servlets as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let m = Master::new(7);
        for i in 0..100 {
            let key = format!("key-{i}");
            let s = m.servlet_of(key.as_bytes());
            assert!(s < 7);
            assert_eq!(s, m.servlet_of(key.as_bytes()), "stable routing");
        }
    }

    #[test]
    fn keys_spread_across_servlets() {
        let m = Master::new(8);
        let mut counts = [0usize; 8];
        for i in 0..8000 {
            counts[m.servlet_of(format!("key-{i}").as_bytes())] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "balanced: {counts:?}");
        }
    }
}
