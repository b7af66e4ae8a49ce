//! Fenwick (binary indexed) tree over `u64` weights with prefix-sum search.
//!
//! Used by [`crate::UrnSim`] to sample a state proportionally to its
//! multiplicity in O(log S) and to update multiplicities in O(log S).

/// Fenwick tree storing non-negative integer weights.
#[derive(Clone, Debug)]
pub struct Fenwick {
    /// 1-based partial sums; `tree[0]` unused.
    tree: Vec<u64>,
    len: usize,
    /// Largest power of two ≤ len, cached for the descend search.
    top_bit: usize,
    total: u64,
}

impl Fenwick {
    /// An all-zero tree over `len` slots.
    pub fn new(len: usize) -> Self {
        let top_bit = if len == 0 {
            0
        } else {
            usize::BITS as usize - 1 - len.leading_zeros() as usize
        };
        Self {
            tree: vec![0; len + 1],
            len,
            top_bit: 1 << top_bit,
            total: 0,
        }
    }

    /// Build from initial weights in O(len).
    ///
    /// Standard linear construction: node `j` is finalised once all children
    /// (which have smaller indices) have been folded in, then propagates its
    /// subtree sum to its parent exactly once.
    pub fn from_weights(weights: &[u64]) -> Self {
        let mut f = Self::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            let j = i + 1;
            f.tree[j] += w;
            let parent = j + (j & j.wrapping_neg());
            if parent <= f.len {
                f.tree[parent] += f.tree[j];
            }
            f.total += w;
        }
        debug_assert_eq!(f.prefix_sum(f.len), f.total);
        f
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `delta` to slot `i` (0-based). `delta` may be negative as long as
    /// the resulting weight stays non-negative; that invariant is the
    /// caller's responsibility and is checked in debug builds.
    pub fn add(&mut self, i: usize, delta: i64) {
        debug_assert!(i < self.len);
        self.total = (self.total as i64 + delta) as u64;
        let mut j = i + 1;
        while j <= self.len {
            self.tree[j] = (self.tree[j] as i64 + delta) as u64;
            j += j & j.wrapping_neg();
        }
    }

    /// Sum of weights in slots `0..i` (exclusive upper bound, 0-based).
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut j = i.min(self.len);
        let mut s = 0;
        while j > 0 {
            s += self.tree[j];
            j &= j - 1;
        }
        s
    }

    /// Weight of slot `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.prefix_sum(i + 1) - self.prefix_sum(i)
    }

    /// Smallest index `i` such that `prefix_sum(i + 1) > target`, i.e. the
    /// slot owning the `target`-th unit of mass (0-based). `target` must be
    /// `< total()`.
    ///
    /// This is the sampling primitive: with `target` uniform in
    /// `0..total()`, the returned slot is distributed proportionally to the
    /// weights.
    pub fn find(&self, target: u64) -> usize {
        self.find_prefix(target).0
    }

    /// [`Fenwick::find`] together with the mass before the slot it returns,
    /// `prefix_sum(slot)`, which the search computes anyway.
    pub fn find_prefix(&self, target: u64) -> (usize, u64) {
        debug_assert!(
            target < self.total,
            "target {} >= total {}",
            target,
            self.total
        );
        let mut rest = target;
        let mut pos = 0usize;
        let mut step = self.top_bit;
        while step > 0 {
            let next = pos + step;
            if next <= self.len && self.tree[next] <= rest {
                rest -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // pos is the count of slots whose cumulative weight is <= target,
        // i.e. the 0-based index of the owning slot, and the weight the
        // descent subtracted is exactly the mass of the slots before it.
        (pos, target - rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert_eq!(f.total(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn add_and_get_roundtrip() {
        let mut f = Fenwick::new(10);
        f.add(3, 5);
        f.add(7, 2);
        assert_eq!(f.get(3), 5);
        assert_eq!(f.get(7), 2);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.total(), 7);
    }

    #[test]
    fn prefix_sums() {
        let mut f = Fenwick::new(8);
        for i in 0..8 {
            f.add(i, (i as i64) + 1); // weights 1..=8
        }
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(1), 1);
        assert_eq!(f.prefix_sum(4), 1 + 2 + 3 + 4);
        assert_eq!(f.prefix_sum(8), 36);
        assert_eq!(f.total(), 36);
    }

    #[test]
    fn negative_delta() {
        let mut f = Fenwick::new(4);
        f.add(2, 10);
        f.add(2, -4);
        assert_eq!(f.get(2), 6);
        assert_eq!(f.total(), 6);
    }

    #[test]
    fn find_maps_units_to_slots() {
        let mut f = Fenwick::new(5);
        f.add(1, 3); // units 0,1,2
        f.add(3, 2); // units 3,4
        assert_eq!(f.find(0), 1);
        assert_eq!(f.find(1), 1);
        assert_eq!(f.find(2), 1);
        assert_eq!(f.find(3), 3);
        assert_eq!(f.find(4), 3);
    }

    #[test]
    fn find_prefix_returns_the_mass_before_the_slot() {
        let weights: Vec<u64> = (0..29).map(|i| (i * 5 + 1) % 4).collect();
        let f = Fenwick::from_weights(&weights);
        for target in 0..f.total() {
            let (slot, below) = f.find_prefix(target);
            assert_eq!(below, f.prefix_sum(slot), "target {target}");
            assert!(below <= target && target < below + weights[slot]);
        }
    }

    #[test]
    fn find_on_non_power_of_two_len() {
        let mut f = Fenwick::new(13);
        f.add(12, 1);
        assert_eq!(f.find(0), 12);
        f.add(0, 1);
        assert_eq!(f.find(0), 0);
        assert_eq!(f.find(1), 12);
    }

    #[test]
    fn from_weights_matches_incremental() {
        let weights: Vec<u64> = (0..37).map(|i| (i * 7 + 3) % 11).collect();
        let built = Fenwick::from_weights(&weights);
        let mut incr = Fenwick::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            incr.add(i, w as i64);
        }
        assert_eq!(built.total(), incr.total());
        for i in 0..weights.len() {
            assert_eq!(built.get(i), weights[i], "slot {i}");
            assert_eq!(built.prefix_sum(i), incr.prefix_sum(i), "prefix {i}");
        }
    }

    #[test]
    fn sampling_distribution_is_proportional() {
        let mut f = Fenwick::new(4);
        f.add(0, 1);
        f.add(1, 2);
        f.add(2, 3);
        f.add(3, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0u64; 4];
        let draws = 100_000;
        for _ in 0..draws {
            counts[f.find(rng.gen_range(0..f.total()))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = draws as f64 * (i + 1) as f64 / 10.0;
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "slot {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn find_after_removals() {
        let mut f = Fenwick::new(6);
        for i in 0..6 {
            f.add(i, 1);
        }
        f.add(0, -1);
        f.add(5, -1);
        // Remaining mass in slots 1..=4.
        assert_eq!(f.total(), 4);
        for t in 0..4 {
            let s = f.find(t);
            assert!((1..=4).contains(&s));
        }
    }
}
