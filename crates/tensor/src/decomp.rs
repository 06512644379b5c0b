//! Balanced 1-D block decomposition.
//!
//! Data partitioning in CGYRO "happens by splitting and distributing the
//! tensors in all but one dimension" (paper §2). Every split in this
//! reproduction — `nv` over the str communicator, `nc` over the coll
//! communicator (per-simulation in CGYRO mode, ensemble-wide in XGYRO
//! mode), `nt` over the toroidal communicator — is an instance of this
//! balanced block decomposition.

use std::ops::Range;

/// A balanced block decomposition of `total` indices over `parts` owners.
///
/// The first `total % parts` owners receive one extra index, so block sizes
/// differ by at most one and the map is a bijection onto `0..total`.
///
/// ```
/// use xg_tensor::Decomp1D;
///
/// let d = Decomp1D::new(10, 3); // blocks of 4, 3, 3
/// assert_eq!(d.range(0), 0..4);
/// assert_eq!(d.range(2), 7..10);
/// assert_eq!(d.owner(5), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp1D {
    total: usize,
    parts: usize,
}

impl Decomp1D {
    /// Create a decomposition of `total` indices over `parts` owners.
    /// `parts` must be nonzero.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "decomposition needs at least one part");
        Self { total, parts }
    }

    /// Global index count.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of owners.
    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of indices owned by `part`.
    #[inline]
    pub fn count(&self, part: usize) -> usize {
        debug_assert!(part < self.parts);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        base + usize::from(part < extra)
    }

    /// First global index owned by `part`.
    #[inline]
    pub fn start(&self, part: usize) -> usize {
        debug_assert!(part <= self.parts);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        part * base + part.min(extra)
    }

    /// Global index range owned by `part`.
    #[inline]
    pub fn range(&self, part: usize) -> Range<usize> {
        self.start(part)..self.start(part) + self.count(part)
    }

    /// The owner of global index `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.total, "index {idx} out of range {}", self.total);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let fat = (base + 1) * extra; // indices covered by the fat parts
        if base == 0 {
            // More parts than indices: index i is owned by part i.
            return idx;
        }
        if idx < fat {
            idx / (base + 1)
        } else {
            extra + (idx - fat) / base
        }
    }

    /// Largest block size over all parts.
    pub fn max_count(&self) -> usize {
        if self.parts == 0 {
            0
        } else {
            self.count(0)
        }
    }
}

/// A 1-D block decomposition with explicit per-part counts.
///
/// The `nv` split over the str communicator uses it: at a power-of-two
/// part count the blocks follow the fixed summation tree
/// ([`RaggedDecomp::tree`]), whose block sizes are [`Decomp1D`]'s in a
/// different order; otherwise the split is [`RaggedDecomp::balanced`].
/// Parts are contiguous, ordered and gap-free.
///
/// ```
/// use xg_tensor::RaggedDecomp;
///
/// let d = RaggedDecomp::from_counts(&[5, 3, 2]);
/// assert_eq!(d.range(0), 0..5);
/// assert_eq!(d.range(2), 8..10);
/// assert_eq!(d.owner(6), 1);
/// assert_eq!(RaggedDecomp::balanced(10, 3).counts(), vec![4, 3, 3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaggedDecomp {
    /// `parts + 1` cumulative offsets; `offsets[p]..offsets[p+1]` is part p.
    offsets: Vec<usize>,
}

impl RaggedDecomp {
    /// Build from explicit per-part counts (zeros allowed).
    pub fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty(), "decomposition needs at least one part");
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// The balanced decomposition — bitwise the same cut points as
    /// `Decomp1D::new(total, parts)` (first `total % parts` parts get one
    /// extra index).
    pub fn balanced(total: usize, parts: usize) -> Self {
        let d = Decomp1D::new(total, parts);
        let counts: Vec<usize> = (0..parts).map(|p| d.count(p)).collect();
        Self::from_counts(&counts)
    }

    /// The split that follows the fixed summation tree ([`crate::tree`]):
    /// recursive halving, each half's left part taking the extra index, so
    /// part `p` of `parts = 2^j` owns the tree's `p`-th node at depth `j`.
    /// The block sizes are [`Self::balanced`]'s, in a different order:
    /// 18 over 4 is 5, 4, 5, 4.
    ///
    /// ```
    /// use xg_tensor::RaggedDecomp;
    ///
    /// assert_eq!(RaggedDecomp::tree(18, 4).counts(), vec![5, 4, 5, 4]);
    /// ```
    pub fn tree(total: usize, parts: usize) -> Self {
        assert!(parts.is_power_of_two(), "the tree split needs a power-of-two part count");
        let mut counts = vec![total];
        while counts.len() < parts {
            counts = counts
                .iter()
                .flat_map(|&c| [crate::tree::tree_left(c), c / 2])
                .collect();
        }
        Self::from_counts(&counts)
    }

    /// Global index count.
    #[inline]
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Number of owners.
    #[inline]
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of indices owned by `part`.
    #[inline]
    pub fn count(&self, part: usize) -> usize {
        self.offsets[part + 1] - self.offsets[part]
    }

    /// First global index owned by `part`.
    #[inline]
    pub fn start(&self, part: usize) -> usize {
        self.offsets[part]
    }

    /// Global index range owned by `part`.
    #[inline]
    pub fn range(&self, part: usize) -> Range<usize> {
        self.offsets[part]..self.offsets[part + 1]
    }

    /// The owner of global index `idx` (first part whose range contains it;
    /// zero-sized parts never own anything).
    pub fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.total(), "index {idx} out of range {}", self.total());
        // partition_point returns the first offset > idx; its predecessor
        // is the owning part.
        self.offsets.partition_point(|&o| o <= idx) - 1
    }

    /// Largest block size over all parts.
    pub fn max_count(&self) -> usize {
        (0..self.parts()).map(|p| self.count(p)).max().unwrap_or(0)
    }

    /// Per-part counts.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.parts()).map(|p| self.count(p)).collect()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let d = Decomp1D::new(12, 4);
        for p in 0..4 {
            assert_eq!(d.count(p), 3);
            assert_eq!(d.range(p), p * 3..p * 3 + 3);
        }
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(11), 3);
    }

    #[test]
    fn uneven_split_front_loaded() {
        let d = Decomp1D::new(10, 4); // 3,3,2,2
        assert_eq!(d.count(0), 3);
        assert_eq!(d.count(1), 3);
        assert_eq!(d.count(2), 2);
        assert_eq!(d.count(3), 2);
        assert_eq!(d.range(2), 6..8);
        assert_eq!(d.max_count(), 3);
    }

    #[test]
    fn owner_matches_ranges_exhaustively() {
        for total in [1usize, 2, 7, 16, 31] {
            for parts in 1..=8usize {
                let d = Decomp1D::new(total, parts);
                let mut seen = vec![false; total];
                for p in 0..parts {
                    for g in d.range(p) {
                        assert_eq!(d.owner(g), p, "total={total} parts={parts} g={g}");
                        assert!(!seen[g], "index {g} covered twice");
                        seen[g] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total={total} parts={parts}: gap");
            }
        }
    }

    #[test]
    fn more_parts_than_indices() {
        let d = Decomp1D::new(3, 5); // 1,1,1,0,0
        assert_eq!(d.count(0), 1);
        assert_eq!(d.count(3), 0);
        assert_eq!(d.range(4), 3..3);
        assert_eq!(d.owner(2), 2);
    }

    #[test]
    fn single_part_owns_all() {
        let d = Decomp1D::new(9, 1);
        assert_eq!(d.range(0), 0..9);
        assert_eq!(d.owner(8), 0);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        let _ = Decomp1D::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        let d = Decomp1D::new(4, 2);
        let _ = d.owner(4);
    }

    #[test]
    fn ragged_balanced_matches_decomp1d_exactly() {
        for total in [0usize, 1, 3, 10, 16, 31, 97] {
            for parts in 1..=9usize {
                let r = RaggedDecomp::balanced(total, parts);
                let d = Decomp1D::new(total, parts);
                for p in 0..parts {
                    assert_eq!(r.range(p), d.range(p), "total={total} parts={parts} p={p}");
                }
                assert_eq!(r.max_count(), d.max_count());
            }
        }
    }

    #[test]
    fn ragged_from_counts_covers_gap_free() {
        let d = RaggedDecomp::from_counts(&[5, 0, 3, 2]);
        assert_eq!(d.total(), 10);
        assert_eq!(d.parts(), 4);
        assert_eq!(d.range(0), 0..5);
        assert_eq!(d.range(1), 5..5);
        assert_eq!(d.range(2), 5..8);
        assert_eq!(d.range(3), 8..10);
        assert_eq!(d.max_count(), 5);
        let mut seen = [false; 10];
        for p in 0..4 {
            for g in d.range(p) {
                assert_eq!(d.owner(g), p);
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ragged_owner_skips_empty_parts() {
        let d = RaggedDecomp::from_counts(&[0, 4, 0, 2]);
        assert_eq!(d.owner(0), 1);
        assert_eq!(d.owner(3), 1);
        assert_eq!(d.owner(4), 3);
        assert_eq!(d.owner(5), 3);
    }
}
