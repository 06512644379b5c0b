//! The fixed summation tree every velocity moment is summed over.
//!
//! A moment `Σ_iv w(iv)·h(iv)` summed left to right over each rank's `nv`
//! slice, then across ranks, associates differently on every `n1`, so its
//! bits would depend on the process grid. Instead every such sum runs over
//! one pairwise tree whose shape depends on the row count alone: the node
//! over rows `lo..hi` adds its left child, the first ⌈len/2⌉ rows, to its
//! right child, the rest. A node over one row is that row's term.
//!
//! At `n1 = 2^j` the `nv` split follows the tree ([`RaggedDecomp::tree`]):
//! each rank owns one node of depth `j` and sums it with [`tree_sum`],
//! and the AllReduce combines ranks by the same recursive pairs. So the
//! completed moment has the same bits on every power-of-two grid, down to
//! the sign of a zero: no sum starts from `+0`.
//!
//! ```
//! use xg_tensor::tree::{leaf_sum, tree_sum};
//!
//! let terms = [1e16, 1.0, -1e16, 1.0];
//! let mut out = [0.0];
//! tree_sum(terms.len(), &mut out, &mut Vec::new(), |rows, out: &mut [f64], add| {
//!     let sum = leaf_sum(rows.len(), |r| terms[rows.start + r]);
//!     if add { out[0] += sum } else { out[0] = sum }
//! });
//! // (1e16 + 1) + (−1e16 + 1): each half rounds its 1 away.
//! assert_eq!(out[0], 0.0);
//! ```
//!
//! [`RaggedDecomp::tree`]: crate::RaggedDecomp::tree

use std::ops::{Add, AddAssign, Range};

/// Rows in the left child of a tree node over `len ≥ 2` rows.
#[inline]
pub fn tree_left(len: usize) -> usize {
    len.div_ceil(2)
}

/// Rows a tree leaf holds at most: [`tree_sum`] stops its recursion at
/// nodes this small and hands them to its leaf, which sums them with
/// [`leaf_sum`].
pub const LEAF_ROWS: usize = 8;

/// The tree sum of a leaf's `len ≤ LEAF_ROWS` terms `t(0), t(1), …`.
#[inline(always)]
pub fn leaf_sum<T: Add<Output = T>>(len: usize, t: impl Fn(usize) -> T) -> T {
    match len {
        1 => t(0),
        2 => t(0) + t(1),
        3 => (t(0) + t(1)) + t(2),
        4 => (t(0) + t(1)) + (t(2) + t(3)),
        5 => ((t(0) + t(1)) + t(2)) + (t(3) + t(4)),
        6 => ((t(0) + t(1)) + t(2)) + ((t(3) + t(4)) + t(5)),
        7 => ((t(0) + t(1)) + (t(2) + t(3))) + ((t(4) + t(5)) + t(6)),
        8 => ((t(0) + t(1)) + (t(2) + t(3))) + ((t(4) + t(5)) + (t(6) + t(7))),
        _ => unreachable!("a tree leaf holds at most {LEAF_ROWS} rows"),
    }
}

/// Sum `rows` terms by the tree into `out`, a row of any width.
///
/// The recursion stops at nodes of at most [`LEAF_ROWS`] rows and hands
/// them to `leaf(lo..hi, out, add)`, which writes their [`leaf_sum`] into
/// `out` or, when `add`, adds it, as `out + leaf_sum(…)`. A node whose
/// right child is a leaf adds it straight into its left child's sum, which
/// is the tree's own order; other right children are summed into
/// `scratch`, one row per tree level, resized here and reusable.
pub fn tree_sum<T, F>(rows: usize, out: &mut [T], scratch: &mut Vec<T>, mut leaf: F)
where
    T: Copy + Default + AddAssign,
    F: FnMut(Range<usize>, &mut [T], bool),
{
    assert!(rows > 0, "a tree sum needs at least one row");
    // Right children beyond a leaf need a scratch row per nesting level.
    let levels = if rows > 2 * LEAF_ROWS { (usize::BITS - rows.leading_zeros()) as usize } else { 0 };
    scratch.resize(levels * out.len(), T::default());
    node(0..rows, out, scratch, &mut leaf);
}

fn node<T, F>(rows: Range<usize>, out: &mut [T], scratch: &mut [T], leaf: &mut F)
where
    T: Copy + AddAssign,
    F: FnMut(Range<usize>, &mut [T], bool),
{
    if rows.len() <= LEAF_ROWS {
        leaf(rows, out, false);
        return;
    }
    let mid = rows.start + tree_left(rows.len());
    node(rows.start..mid, out, scratch, leaf);
    if rows.end - mid <= LEAF_ROWS {
        leaf(mid..rows.end, out, true);
    } else {
        let (right, deeper) = scratch.split_at_mut(out.len());
        node(mid..rows.end, right, deeper, leaf);
        for (a, b) in out.iter_mut().zip(right.iter()) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RaggedDecomp;

    /// The tree by its definition: recursive, every node a fresh sum.
    fn reference(terms: &[f64]) -> f64 {
        match terms.len() {
            1 => terms[0],
            n => {
                let (l, r) = terms.split_at(tree_left(n));
                reference(l) + reference(r)
            }
        }
    }

    fn terms(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919 % 1009) as f64 - 500.0) * 10f64.powi((i % 13) as i32 - 6))
            .collect()
    }

    fn summed(t: &[f64]) -> f64 {
        let mut out = [f64::NAN];
        tree_sum(t.len(), &mut out, &mut Vec::new(), |rows, out, add| {
            let sum = leaf_sum(rows.len(), |r| t[rows.start + r]);
            if add {
                out[0] += sum;
            } else {
                out[0] = sum;
            }
        });
        out[0]
    }

    #[test]
    fn matches_the_recursive_definition_bitwise() {
        for n in 1..80 {
            let t = terms(n);
            assert_eq!(summed(&t).to_bits(), reference(&t).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn power_of_two_splits_own_whole_subtrees() {
        // Each part sums its own rows by the tree; the parts then combine by
        // recursive pairs. Same bits as the one-part sum.
        for n in [5usize, 8, 18, 48, 72, 144] {
            let t = terms(n);
            for parts in [1usize, 2, 4, 8].into_iter().filter(|&p| p <= n) {
                let d = RaggedDecomp::tree(n, parts);
                let mut partial: Vec<f64> = (0..parts).map(|p| summed(&t[d.range(p)])).collect();
                let mut width = 1;
                while width < parts {
                    for i in (0..parts).step_by(2 * width) {
                        partial[i] += partial[i + width];
                    }
                    width *= 2;
                }
                assert_eq!(
                    partial[0].to_bits(),
                    summed(&t).to_bits(),
                    "n = {n}, parts = {parts}"
                );
            }
        }
    }

    #[test]
    fn zero_signs_survive() {
        assert_eq!(summed(&[-0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(summed(&[-0.0, -0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(summed(&[-0.0, 0.0, -0.0]).to_bits(), 0.0f64.to_bits());
    }
}
