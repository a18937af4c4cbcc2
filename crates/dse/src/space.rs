//! Legal design-space enumeration and sampling (§IV-C).
//!
//! The pruning heuristics of the paper define a "legal" subspace:
//! parallelization factors and tile sizes are integer divisors of their
//! iteration counts / data dimensions (non-divisors create edge cases
//! needing modulus logic), banking is eliminated as an independent
//! variable by the automatic banking analysis, and each local memory is
//! capped at a fixed maximum size.

use dhdl_core::{ParamSpace, ParamValues};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// An enumerable legal subspace of a benchmark's parameter space.
#[derive(Debug, Clone)]
pub struct LegalSpace {
    names: Vec<String>,
    values: Vec<Vec<u64>>,
}

impl LegalSpace {
    /// Build the legal subspace of `space` using the divisor pruning rules.
    pub fn new(space: &ParamSpace) -> Self {
        let names = space.defs().iter().map(|d| d.name.clone()).collect();
        let values = space.defs().iter().map(|d| d.kind.legal_values()).collect();
        LegalSpace { names, values }
    }

    /// Total number of legal points.
    pub fn size(&self) -> u128 {
        self.values.iter().map(|v| v.len() as u128).product()
    }

    /// Decode a linear index into a parameter assignment, or `None` if
    /// `index >= self.size()` — the checked form callers should prefer
    /// so a malformed index is an error, not a process abort.
    pub fn try_point(&self, index: u128) -> Option<ParamValues> {
        if index >= self.size() {
            return None;
        }
        let mut rem = index;
        let mut v = ParamValues::new();
        for (name, vals) in self.names.iter().zip(&self.values).rev() {
            let n = vals.len() as u128;
            v.set(name, vals[(rem % n) as usize]);
            rem /= n;
        }
        Some(v)
    }

    /// Decode a linear index into a parameter assignment.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.size()`; use [`LegalSpace::try_point`]
    /// to handle untrusted indices gracefully.
    pub fn point(&self, index: u128) -> ParamValues {
        self.try_point(index).expect("index out of range")
    }

    /// Enumerate every legal point (use only when [`LegalSpace::size`] is
    /// small).
    pub fn enumerate(&self) -> Vec<ParamValues> {
        (0..self.size()).filter_map(|i| self.try_point(i)).collect()
    }

    /// Draw up to `n` distinct legal points uniformly at random
    /// ("we randomly generate estimates for up to 75,000 legal points to
    /// give a representative view of the entire design space", §IV-C):
    /// [`LegalSpace::sample_indices`], decoded.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<ParamValues> {
        self.sample_indices(n, seed)
            .into_iter()
            .map(|i| self.point(i))
            .collect()
    }

    /// The linear indices [`LegalSpace::sample`] decodes, in the same
    /// order: every index `0..size` when the space holds at most `n`
    /// points, else up to `n` distinct seeded draws. Every index is below
    /// [`LegalSpace::size`].
    pub fn sample_indices(&self, n: usize, seed: u64) -> Vec<u128> {
        let size = self.size();
        if size <= n as u128 {
            return (0..size).collect();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        // Rejection sampling with a generous retry budget.
        let mut tries = 0usize;
        while out.len() < n && tries < n * 20 {
            tries += 1;
            let idx = rng.gen_range(0..u64::MAX) as u128 % size;
            if seen.insert(idx) {
                out.push(idx);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("ts", 96, 8, 96);
        s.par("p1", 16, 8);
        s.toggle("m");
        s
    }

    #[test]
    fn try_point_rejects_out_of_range_indices() {
        let ls = LegalSpace::new(&space());
        let size = ls.size();
        assert!(ls.try_point(size).is_none());
        assert!(ls.try_point(u128::MAX).is_none());
        // In-range indices decode to the same assignment as `point`.
        let p = ls.try_point(size - 1).unwrap();
        assert_eq!(p, ls.point(size - 1));
        // The empty space rejects every index instead of dividing by
        // zero.
        let empty = LegalSpace::new(&ParamSpace::new().tile("t", 7, 9, 9).clone());
        if empty.size() == 0 {
            assert!(empty.try_point(0).is_none());
        }
    }

    #[test]
    fn size_matches_product() {
        let ls = LegalSpace::new(&space());
        // ts in {8,12,16,24,32,48,96} = 7; p1 in {1,2,4,8} = 4; m in {0,1}.
        assert_eq!(ls.size(), 7 * 4 * 2);
    }

    #[test]
    fn enumerate_covers_all_points_uniquely() {
        let ls = LegalSpace::new(&space());
        let pts = ls.enumerate();
        assert_eq!(pts.len() as u128, ls.size());
        let set: BTreeSet<String> = pts.iter().map(|p| p.to_string()).collect();
        assert_eq!(set.len(), pts.len());
    }

    #[test]
    fn sample_is_distinct_and_legal() {
        let ls = LegalSpace::new(&space());
        let pts = ls.sample(20, 7);
        assert_eq!(pts.len(), 20);
        let sp = space();
        for p in &pts {
            assert!(sp.is_legal(p), "{p}");
        }
        let set: BTreeSet<String> = pts.iter().map(|p| p.to_string()).collect();
        assert_eq!(set.len(), pts.len());
    }

    #[test]
    fn sample_of_small_space_is_exhaustive() {
        let ls = LegalSpace::new(&space());
        let pts = ls.sample(10_000, 1);
        assert_eq!(pts.len() as u128, ls.size());
    }

    #[test]
    fn sampling_is_deterministic_by_seed() {
        let ls = LegalSpace::new(&space());
        assert_eq!(
            ls.sample(10, 3)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            ls.sample(10, 3)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
}
