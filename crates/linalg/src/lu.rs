//! LU factorization with partial pivoting.
//!
//! Used once per simulation setup to pre-factor the implicit collision
//! operator: `cmat(ic, itor) = (I − Δt/2·C)⁻¹ (I + Δt/2·C)` is formed by one
//! LU factorization of `(I − Δt/2·C)` followed by one multi-right-hand-side
//! triangular solve against all `nv` columns of `(I + Δt/2·C)` at once
//! ([`LuFactors::solve_matrix_into`]). This trades setup compute for a
//! dense constant tensor — exactly the memory/compute trade the paper
//! describes for CGYRO's collision step.
//!
//! Every kernel here applies, to each matrix element, the same
//! multiply-then-subtract operations in the same order as the textbook
//! scalar loops (no reassociation, no fused multiply-add), so `cmat` does
//! not depend on how the loops are blocked or on the lanes they run on.
//! The factorization and the multi-RHS substitution are written once, as
//! `#[inline(always)]` bodies; `crate::simd` compiles each body once per
//! [`SimdLevel`](crate::simd::SimdLevel) and both run at
//! [`selected_level`], while the one-column [`LuFactors::solve`] stays the
//! scalar reference. `docs/performance.md` §7 has the argument and the
//! measurements.

use crate::matrix::RealMatrix;
use crate::simd::selected_level;

/// Error type for singular or near-singular factorizations.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularMatrix {
    /// Pivot column at which factorization broke down.
    pub at_column: usize,
    /// Magnitude of the best available pivot.
    pub pivot_magnitude: f64,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at column {} (pivot {:.3e})",
            self.at_column, self.pivot_magnitude
        )
    }
}

impl std::error::Error for SingularMatrix {}

/// Right-hand-side columns substituted together by
/// [`LuFactors::solve_matrix_into`]: 16 `f64` accumulators are 8 SSE2, 4
/// AVX2 or 2 AVX-512 registers, and an `n × 16` panel of `X` stays in L1
/// (18 KB at `n = 144`) while `L` and `U` stream past it.
const PANEL: usize = 16;

/// LU factorization `P·A = L·U` of a square matrix, stored compactly
/// (strictly-lower `L` with implicit unit diagonal, upper `U`).
#[derive(Clone, Debug)]
pub struct LuFactors {
    lu: RealMatrix,
    /// Row permutation: row `i` of `U`/`L` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factorize `a` (consumed) with partial pivoting, on the lanes of
    /// [`selected_level`].
    pub fn factorize(a: RealMatrix) -> Result<Self, SingularMatrix> {
        crate::simd::factorize_with(selected_level(), a)
    }

    /// The body of [`Self::factorize`], compiled once per [`SimdLevel`]
    /// by [`crate::simd::factorize_with`]. The elimination's inner loop runs
    /// along a row, so the lanes cover trailing elements of one row, each
    /// receiving its own multiply then subtract.
    ///
    /// [`SimdLevel`]: crate::simd::SimdLevel
    #[inline(always)]
    pub(crate) fn factorize_body(mut a: RealMatrix) -> Result<Self, SingularMatrix> {
        assert!(a.is_square(), "LU factorization needs a square matrix");
        let n = a.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let data = a.as_mut_slice();
        for k in 0..n {
            // Pivot search in column k, rows k..n.
            let mut p = k;
            let mut pmax = data[k * n + k].abs();
            for (i, v) in data[k * n + k..].iter().step_by(n).enumerate().skip(1) {
                if v.abs() > pmax {
                    pmax = v.abs();
                    p = k + i;
                }
            }
            if pmax < f64::MIN_POSITIVE * 1e4 {
                return Err(SingularMatrix { at_column: k, pivot_magnitude: pmax });
            }
            let (upper, lower) = data.split_at_mut((k + 1) * n);
            let row_k = &mut upper[k * n..];
            if p != k {
                perm.swap(k, p);
                row_k.swap_with_slice(&mut lower[(p - k - 1) * n..][..n]);
            }
            // Eliminate column k from every row below: store the multiplier
            // in L's place, subtract `m ×` row k from the rest of the row.
            let pivot = row_k[k];
            let u = &row_k[k + 1..];
            for row in lower.chunks_exact_mut(n) {
                let m = row[k] / pivot;
                row[k] = m;
                if m != 0.0 {
                    for (x, &u) in row[k + 1..].iter_mut().zip(u) {
                        *x -= m * u;
                    }
                }
            }
        }
        Ok(Self { lu: a, perm })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Give back the factored storage, so a caller factorizing many
    /// same-sized matrices can refill one buffer instead of allocating each.
    pub fn into_matrix(self) -> RealMatrix {
        self.lu
    }

    /// Solve `A·x = b` returning a fresh vector: the scalar, one-column form
    /// of [`Self::solve_matrix_into`] and the reference it is tested against.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation: y = P·b.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution L·z = y (unit diagonal).
        for i in 1..n {
            let row = self.lu.row(i);
            let mut acc = y[i];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= row[j] * yj;
            }
            y[i] = acc;
        }
        // Back substitution U·x = z.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = y[i];
            for (j, yj) in y.iter().enumerate().skip(i + 1) {
                acc -= row[j] * yj;
            }
            y[i] = acc / row[i];
        }
        y
    }

    /// Solve against every column of `b` (multiple right-hand sides),
    /// returning `X` with `A·X = B`.
    pub fn solve_matrix(&self, b: &RealMatrix) -> RealMatrix {
        let mut x = RealMatrix::zeros(self.dim(), b.cols());
        self.solve_matrix_into(b, x.as_mut_slice());
        x
    }

    /// [`Self::solve_matrix`] into a caller-owned row-major `n × b.cols()`
    /// buffer (the `cmat` build solves straight into its tensor panel), on
    /// the lanes of [`selected_level`].
    ///
    /// Row-oriented and blocked over `PANEL` (16) columns of `B`: each column
    /// sees exactly the operations of [`Self::solve`] on it, in the same
    /// order, so the result is bit-for-bit the column-by-column one — but
    /// the inner loop runs along a contiguous row of `X`, independent
    /// across columns, instead of down one strided column.
    pub fn solve_matrix_into(&self, b: &RealMatrix, x: &mut [f64]) {
        crate::simd::solve_matrix_into_with(selected_level(), self, b, x)
    }

    /// The body of [`Self::solve_matrix_into`], compiled once per
    /// [`SimdLevel`] by [`crate::simd::solve_matrix_into_with`].
    ///
    /// [`SimdLevel`]: crate::simd::SimdLevel
    #[inline(always)]
    pub(crate) fn solve_matrix_into_body(&self, b: &RealMatrix, x: &mut [f64]) {
        let n = self.dim();
        let ncols = b.cols();
        assert_eq!(b.rows(), n, "rhs row count mismatch");
        assert_eq!(x.len(), n * ncols, "solution buffer length mismatch");
        if ncols == 0 {
            return;
        }
        // X = P·B, whole rows at a time.
        for (xi, &p) in x.chunks_exact_mut(ncols).zip(&self.perm) {
            xi.copy_from_slice(b.row(p));
        }
        let full = ncols - ncols % PANEL;
        for c0 in (0..full).step_by(PANEL) {
            self.substitute_panel(x, ncols, c0, PANEL);
        }
        if full < ncols {
            self.substitute_panel(x, ncols, full, ncols - full);
        }
    }

    /// Forward then back substitution on columns `c0..c0 + w` of the
    /// permuted right-hand sides `x` (`w ≤ PANEL`). Inlined into its two
    /// call sites so the full-panel one is compiled with `w` a constant and
    /// keeps the accumulators in registers.
    #[inline(always)]
    fn substitute_panel(&self, x: &mut [f64], ncols: usize, c0: usize, w: usize) {
        let n = self.dim();
        let mut acc = [0.0; PANEL];
        let acc = &mut acc[..w];
        // Forward substitution L·Z = P·B (unit diagonal).
        for i in 1..n {
            let (above, rest) = x.split_at_mut(i * ncols);
            let xi = &mut rest[c0..c0 + w];
            acc.copy_from_slice(xi);
            for (&l, xj) in self.lu.row(i)[..i].iter().zip(above.chunks_exact(ncols)) {
                for (a, &v) in acc.iter_mut().zip(&xj[c0..c0 + w]) {
                    *a -= l * v;
                }
            }
            xi.copy_from_slice(acc);
        }
        // Back substitution U·X = Z.
        for i in (0..n).rev() {
            let (head, below) = x.split_at_mut((i + 1) * ncols);
            let xi = &mut head[i * ncols + c0..][..w];
            let row = self.lu.row(i);
            acc.copy_from_slice(xi);
            for (&u, xj) in row[i + 1..].iter().zip(below.chunks_exact(ncols)) {
                for (a, &v) in acc.iter_mut().zip(&xj[c0..c0 + w]) {
                    *a -= u * v;
                }
            }
            // `u_ii` read once: behind `with_level`'s body the compiler no
            // longer sees that `x` and the factors are disjoint, and would
            // reload it after each store, one lane at a time.
            let pivot = row[i];
            for (x, &a) in xi.iter_mut().zip(acc.iter()) {
                *x = a / pivot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};
    use crate::simd::{available_levels, factorize_with, solve_matrix_into_with, SimdLevel};

    fn residual(a: &RealMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        matvec(a, x, &mut ax);
        ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solve_small_hand_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = RealMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let f = LuFactors::factorize(a).unwrap();
        let x = f.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = RealMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = LuFactors::factorize(a.clone()).unwrap();
        let x = f.solve(&[7.0, 9.0]);
        assert!(residual(&a, &x, &[7.0, 9.0]) < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let err = LuFactors::factorize(a).unwrap_err();
        assert_eq!(err.at_column, 1);
    }

    #[test]
    fn singular_breakdown_reports_column_and_pivot() {
        // Column 1 is a multiple of column 0; after the swap to the 4.0
        // pivot the best pivot left in column 1 is exactly 0.
        let a = RealMatrix::from_vec(3, 3, vec![1.0, 2.0, 0.0, 4.0, 8.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(
            LuFactors::factorize(a).unwrap_err(),
            SingularMatrix { at_column: 1, pivot_magnitude: 0.0 }
        );
        // An all-zero matrix breaks down at once.
        assert_eq!(
            LuFactors::factorize(RealMatrix::zeros(4, 4)).unwrap_err(),
            SingularMatrix { at_column: 0, pivot_magnitude: 0.0 }
        );
    }

    #[test]
    #[should_panic(expected = "LU factorization needs a square matrix")]
    fn non_square_input_is_refused() {
        let _ = LuFactors::factorize(RealMatrix::zeros(3, 4));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 12;
        // Diagonally dominant -> well conditioned.
        let a = RealMatrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 3) as f64).sin() * 0.5
            }
        });
        let f = LuFactors::factorize(a.clone()).unwrap();
        let inv = f.solve_matrix(&RealMatrix::identity(n));
        let prod = matmul(&a, &inv);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (prod[(i, j)] - expect).abs() < 1e-10,
                    "({i},{j}) = {}",
                    prod[(i, j)]
                );
            }
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solves() {
        let n = 6;
        let a = RealMatrix::from_fn(n, n, |i, j| {
            if i == j { 5.0 } else { 1.0 / (1.0 + (i as f64 - j as f64).abs()) }
        });
        let b = RealMatrix::from_fn(n, 3, |i, j| (i + j) as f64);
        let f = LuFactors::factorize(a).unwrap();
        let x = f.solve_matrix(&b);
        for j in 0..3 {
            let bj = b.col(j);
            let xj = f.solve(&bj);
            for i in 0..n {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-13);
            }
        }
    }

    /// Deterministic noise in `(-1, 1)` (splitmix64 of `seed` and `i`).
    fn noise(seed: u64, i: usize) -> f64 {
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Dense, and column 0's largest entry in the last row: partial
    /// pivoting swaps rows from the first column on.
    fn swapping_matrix(n: usize, seed: u64) -> RealMatrix {
        let mut a = RealMatrix::from_fn(n, n, |i, j| noise(seed, i * n + j));
        a[(n - 1, 0)] = 2.0;
        a
    }

    /// A diagonally dominant tridiagonal matrix with its rows rotated by
    /// one: every pivot needs a swap and almost every multiplier is an
    /// exact zero.
    fn shifted_tridiagonal(n: usize, seed: u64) -> RealMatrix {
        RealMatrix::from_fn(n, n, |i, j| {
            let r = (i + 1) % n;
            match r.abs_diff(j) {
                0 => 3.0 + noise(seed ^ 0x7, r),
                1 => noise(seed ^ 0x3, r * n + j),
                _ => 0.0,
            }
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_level_builds_the_same_bits() {
        // Each level's instance of the factorization and of the multi-RHS
        // substitution against the scalar one, by `to_bits`: full panels,
        // the remainder alone and both, on factorizations that swap rows
        // and on ones whose multipliers are mostly exact zeros — once with
        // `-0.0` off the band, where dropping the `m ≠ 0` skip flips signs.
        for n in (1..=40).chain([48, 144]) {
            let mut signed_zeros = shifted_tridiagonal(n, 5);
            for v in signed_zeros.as_mut_slice().iter_mut().filter(|v| **v == 0.0) {
                *v = -0.0;
            }
            for a in [swapping_matrix(n, 5), shifted_tridiagonal(n, 5), signed_zeros] {
                let want = factorize_with(SimdLevel::Scalar, a.clone()).unwrap();
                let solves: Vec<_> = [1, 7, 15, 16, 17, 33, n]
                    .into_iter()
                    .map(|ncols| {
                        let b = RealMatrix::from_fn(n, ncols, |i, j| noise(0xb, i * ncols + j));
                        let mut x = vec![0.0; n * ncols];
                        solve_matrix_into_with(SimdLevel::Scalar, &want, &b, &mut x);
                        (b, x)
                    })
                    .collect();
                for level in available_levels() {
                    let got = factorize_with(level, a.clone()).unwrap();
                    assert_eq!(got.perm, want.perm, "level {level} n {n}");
                    let (got_lu, want_lu) = (got.lu.as_slice(), want.lu.as_slice());
                    assert_eq!(bits(got_lu), bits(want_lu), "level {level} n {n}");
                    for (b, x_want) in &solves {
                        let mut x = vec![f64::NAN; x_want.len()];
                        solve_matrix_into_with(level, &got, b, &mut x);
                        let ncols = b.cols();
                        assert_eq!(bits(&x), bits(x_want), "level {level} n {n} ncols {ncols}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_level_reports_the_same_breakdown() {
        // A zero column breaks down on an exact-zero pivot; a last column
        // scaled to ~1e-306 breaks down on a tiny nonzero pivot whose bits
        // are the product of the whole elimination before it.
        let mut zero_column = swapping_matrix(20, 9);
        let mut tiny_column = swapping_matrix(33, 9);
        for i in 0..20 {
            zero_column[(i, 11)] = 0.0;
        }
        for i in 0..33 {
            tiny_column[(i, 32)] *= 1e-306;
        }
        for a in [zero_column, tiny_column] {
            let want = factorize_with(SimdLevel::Scalar, a.clone()).unwrap_err();
            assert!(want.at_column > 0, "the breakdown comes after elimination steps");
            for level in available_levels() {
                let got = factorize_with(level, a.clone()).unwrap_err();
                assert_eq!(got.at_column, want.at_column, "level {level}");
                let (got_pivot, want_pivot) = (got.pivot_magnitude, want.pivot_magnitude);
                assert_eq!(got_pivot.to_bits(), want_pivot.to_bits(), "level {level}");
            }
        }
    }
}
