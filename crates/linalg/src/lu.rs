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
//! not depend on how the loops are blocked; `docs/performance.md` §7 has
//! the argument and the measurements.

use crate::matrix::RealMatrix;

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
/// [`LuFactors::solve_matrix_into`]: 16 `f64` accumulators are 8 SSE2 (4
/// AVX2) registers, and an `n × 16` panel of `X` stays in L1 (18 KB at
/// `n = 144`) while `L` and `U` stream past it.
const PANEL: usize = 16;

/// LU factorization `P·A = L·U` of a square matrix, stored compactly
/// (strictly-lower `L` with implicit unit diagonal, upper `U`).
#[derive(Clone, Debug)]
pub struct LuFactors {
    lu: RealMatrix,
    /// Row permutation: row `i` of `U`/`L` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Number of row swaps (determinant sign).
    swaps: usize,
}

impl LuFactors {
    /// Factorize `a` (consumed) with partial pivoting.
    pub fn factorize(mut a: RealMatrix) -> Result<Self, SingularMatrix> {
        assert!(a.is_square(), "LU factorization needs a square matrix");
        let n = a.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0;
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
                swaps += 1;
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
        Ok(Self { lu: a, perm, swaps })
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

    /// Solve `A·x = b` in place: `b` enters as the right-hand side and leaves
    /// as the solution.
    pub fn solve_inplace(&self, b: &mut [f64]) {
        b.copy_from_slice(&self.solve(b));
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
    /// buffer (the `cmat` build solves straight into its tensor panel).
    ///
    /// Row-oriented and blocked over `PANEL` (16) columns of `B`: each column
    /// sees exactly the operations of [`Self::solve`] on it, in the same
    /// order, so the result is bit-for-bit the column-by-column one — but
    /// the inner loop runs along a contiguous row of `X`, independent
    /// across columns, instead of down one strided column.
    pub fn solve_matrix_into(&self, b: &RealMatrix, x: &mut [f64]) {
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
            for (x, &a) in xi.iter_mut().zip(acc.iter()) {
                *x = a / row[i];
            }
        }
    }

    /// Explicit inverse `A⁻¹`: one multi-right-hand-side solve against the
    /// identity (tests and diagnostics; the `cmat` build never forms it).
    pub fn inverse(&self) -> RealMatrix {
        self.solve_matrix(&RealMatrix::identity(self.dim()))
    }

    /// Determinant, as `sign · Π diag(U)`.
    pub fn determinant(&self) -> f64 {
        let sign = if self.swaps.is_multiple_of(2) { 1.0 } else { -1.0 };
        (0..self.dim()).map(|i| self.lu[(i, i)]).product::<f64>() * sign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};

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
        assert_eq!(f.determinant(), -1.0);
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
        let inv = f.inverse();
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

    #[test]
    fn determinant_of_triangular() {
        let a = RealMatrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let f = LuFactors::factorize(a).unwrap();
        assert!((f.determinant() - 24.0).abs() < 1e-12);
    }
}
