//! Matrix–matrix and matrix–vector kernels.
//!
//! These are the compute kernels behind the collision step: the constant
//! tensor application is `y = A·x` with `A` real `nv×nv` and `x` complex,
//! which we evaluate as two fused real matvecs over the interleaved
//! `(re, im)` layout of [`Complex64`].

use crate::complex::Complex64;
use crate::matrix::RealMatrix;

/// Dense `C = A·B`. Loop order `i-k-j` over row-major data so the inner loop
/// streams both `B`'s row and `C`'s row. No sparsity short-circuit: the
/// matrices this feeds (collision propagator panels) are dense, so a
/// zero-test in the inner loop only costs branch mispredicts.
pub fn matmul(a: &RealMatrix, b: &RealMatrix) -> RealMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = RealMatrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (kk, &aik) in arow.iter().enumerate().take(k) {
            let brow = b.row(kk);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
    c
}

/// Real matvec `y = A·x`.
pub fn matvec(a: &RealMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "matvec: x length mismatch");
    assert_eq!(a.rows(), y.len(), "matvec: y length mismatch");
    for (i, yi) in y.iter_mut().enumerate() {
        let row = a.row(i);
        let mut acc = 0.0;
        for (aij, xj) in row.iter().zip(x) {
            acc += aij * xj;
        }
        *yi = acc;
    }
}

/// Real-matrix × complex-vector: `y = A·x` with `A ∈ ℝ^{m×n}`, `x ∈ ℂ^n`.
///
/// This is the collision-step hot kernel (`cmat` slice applied to the
/// velocity profile of `h` at one configuration/toroidal point). 8·m·n flops.
pub fn matvec_complex(a: &RealMatrix, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(a.cols(), x.len(), "matvec_complex: x length mismatch");
    assert_eq!(a.rows(), y.len(), "matvec_complex: y length mismatch");
    matvec_complex_flat(a.as_slice(), a.rows(), a.cols(), x, y);
}

/// Shared contraction body for the flat matvec, instantiated plain and
/// under `target_feature(enable = "fma")` so `mul_add` lowers to `vfmadd`
/// on FMA hardware while staying bit-identical to the software fallback
/// (both are correctly-rounded IEEE 754 fused multiply-adds). Every
/// collision kernel — this one, the register-blocked scalar path and the
/// SIMD micro-kernels in [`crate::simd`] — uses this same per-(row, rhs)
/// FMA contraction over ascending `j`, which is what makes them mutually
/// bitwise identical.
#[inline(always)]
fn matvec_flat_body(a: &[f64], rows: usize, cols: usize, x: &[Complex64], y: &mut [Complex64]) {
    let _ = rows;
    for (i, yi) in y.iter_mut().enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        let mut re = 0.0;
        let mut im = 0.0;
        for (aij, xj) in row.iter().zip(x) {
            re = aij.mul_add(xj.re, re);
            im = aij.mul_add(xj.im, im);
        }
        *yi = Complex64::new(re, im);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn matvec_flat_fma(a: &[f64], rows: usize, cols: usize, x: &[Complex64], y: &mut [Complex64]) {
    matvec_flat_body(a, rows, cols, x, y)
}

/// Real-matrix × complex-vector over a raw row-major panel (no
/// `RealMatrix` wrapper): the collision step streams its constant tensor
/// as one contiguous 4-D allocation and applies per-(ic, itor) `nv×nv`
/// panels through this kernel. The contraction is one fused multiply-add
/// per term over ascending `j` — the reference order every blocked and
/// SIMD variant reproduces bitwise.
pub fn matvec_complex_flat(
    a: &[f64],
    rows: usize,
    cols: usize,
    x: &[Complex64],
    y: &mut [Complex64],
) {
    assert_eq!(a.len(), rows * cols, "panel size mismatch");
    assert_eq!(x.len(), cols, "x length mismatch");
    assert_eq!(y.len(), rows, "y length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::hw_fma() {
        // SAFETY: hw_fma() checked the CPU supports the enabled feature.
        unsafe { matvec_flat_fma(a, rows, cols, x, y) };
        return;
    }
    matvec_flat_body(a, rows, cols, x, y);
}

/// Batched multi-RHS panel apply: `Y = A·X` with `A` a real row-major
/// `n×n` panel and `X`, `Y` blocks of `nrhs` complex vectors stored
/// RHS-major (`x[r*n..(r+1)*n]` is right-hand side `r`).
///
/// This is the ensemble collision kernel: k members share one `cmat`
/// panel, so each panel row tile is loaded once and reused across all
/// right-hand sides. Dispatches to the process-selected SIMD micro-kernel
/// ([`crate::simd::selected_level`], overridable via `XGYRO_SIMD`) with
/// the default L2-derived row-tile height. Per (row, rhs) the accumulation
/// is one FMA accumulator pair over ascending `j` — exactly the sequence
/// [`matvec_complex_flat`] performs — so results are bitwise identical to
/// applying the naive kernel per column, independent of `nrhs`, the
/// kernel level and the tiling.
///
/// Slice-length preconditions are debug-asserted with messages naming this
/// function, so mis-sized blocks fail loudly at the call boundary.
pub fn apply_panel_multi(a: &[f64], n: usize, x: &[Complex64], y: &mut [Complex64], nrhs: usize) {
    debug_assert_eq!(a.len(), n * n, "apply_panel_multi: a.len() must be n*n");
    debug_assert_eq!(x.len(), n * nrhs, "apply_panel_multi: x.len() must be n*nrhs");
    debug_assert_eq!(y.len(), n * nrhs, "apply_panel_multi: y.len() must be n*nrhs");
    crate::simd::apply_panel_multi_with(
        crate::simd::selected_level(),
        a,
        n,
        x,
        y,
        nrhs,
        crate::simd::default_tile_rows(n, crate::simd::l2_cache_kb()),
    );
}

/// Number of floating-point operations for one real×complex matvec of size
/// `m×n` (used by the performance model; counts mul+add on both components).
#[inline]
pub const fn matvec_complex_flops(m: usize, n: usize) -> u64 {
    4 * (m as u64) * (n as u64)
}

/// Flop count for one multi-RHS panel apply of `nrhs` right-hand sides.
#[inline]
pub const fn apply_panel_multi_flops(n: usize, nrhs: usize) -> u64 {
    matvec_complex_flops(n, n) * (nrhs as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = RealMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = RealMatrix::identity(3);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_rectangular_hand_checked() {
        let a = RealMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = RealMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = RealMatrix::zeros(2, 3);
        let b = RealMatrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_associativity() {
        let a = RealMatrix::from_fn(3, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let b = RealMatrix::from_fn(3, 3, |i, j| (i as f64 - j as f64) / 3.0);
        let c = RealMatrix::from_fn(3, 3, |i, j| ((i * j) as f64).sin());
        let lhs = matmul(&matmul(&a, &b), &c);
        let rhs = matmul(&a, &matmul(&b, &c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_hand_checked() {
        let a = RealMatrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0]);
        let x = [3.0, 4.0, 5.0];
        let mut y = [0.0; 2];
        matvec(&a, &x, &mut y);
        assert_eq!(y, [-2.0, 10.0]);
    }

    #[test]
    fn complex_matvec_matches_componentwise_real_matvec() {
        let a = RealMatrix::from_fn(4, 4, |i, j| ((i * 4 + j) as f64).cos());
        let x: Vec<Complex64> =
            (0..4).map(|i| Complex64::new(i as f64, -(i as f64) * 0.5)).collect();
        let mut y = vec![Complex64::ZERO; 4];
        matvec_complex(&a, &x, &mut y);

        let xr: Vec<f64> = x.iter().map(|z| z.re).collect();
        let xi: Vec<f64> = x.iter().map(|z| z.im).collect();
        let mut yr = vec![0.0; 4];
        let mut yi = vec![0.0; 4];
        matvec(&a, &xr, &mut yr);
        matvec(&a, &xi, &mut yi);
        for k in 0..4 {
            assert!((y[k].re - yr[k]).abs() < 1e-14);
            assert!((y[k].im - yi[k]).abs() < 1e-14);
        }
    }

    #[test]
    fn flat_matvec_matches_matrix_form() {
        let a = RealMatrix::from_fn(6, 6, |i, j| ((i * 6 + j) as f64).sin());
        let x: Vec<Complex64> =
            (0..6).map(|i| Complex64::new(i as f64, -0.5 * i as f64)).collect();
        let mut y1 = vec![Complex64::ZERO; 6];
        let mut y2 = vec![Complex64::ZERO; 6];
        matvec_complex(&a, &x, &mut y1);
        matvec_complex_flat(a.as_slice(), 6, 6, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(matvec_complex_flops(10, 20), 800);
        assert_eq!(apply_panel_multi_flops(8, 3), 4 * 8 * 8 * 3);
    }

    #[test]
    fn multi_rhs_bitwise_matches_naive_per_column() {
        // Every remainder path: nrhs covering 4-wide, 2-wide and 1-wide tails.
        for &nrhs in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            for &n in &[1usize, 2, 5, 16, 33] {
                let a: Vec<f64> =
                    (0..n * n).map(|i| ((i as f64) * 0.137).sin() * 2.0 - 0.3).collect();
                let x: Vec<Complex64> = (0..n * nrhs)
                    .map(|i| Complex64::new(((i * 7) as f64).cos(), ((i * 3) as f64).sin()))
                    .collect();
                let mut y = vec![Complex64::ZERO; n * nrhs];
                apply_panel_multi(&a, n, &x, &mut y, nrhs);
                for r in 0..nrhs {
                    let mut yr = vec![Complex64::ZERO; n];
                    matvec_complex_flat(&a, n, n, &x[r * n..(r + 1) * n], &mut yr);
                    // Bitwise, not approximate: the blocked kernel keeps one
                    // accumulator pair per (row, rhs) in the same order.
                    for i in 0..n {
                        assert_eq!(y[r * n + i].re.to_bits(), yr[i].re.to_bits());
                        assert_eq!(y[r * n + i].im.to_bits(), yr[i].im.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn multi_rhs_zero_rhs_is_noop() {
        let a = vec![1.0; 9];
        let x: Vec<Complex64> = vec![];
        let mut y: Vec<Complex64> = vec![];
        apply_panel_multi(&a, 3, &x, &mut y, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "apply_panel_multi: y.len() must be n*nrhs")]
    fn multi_rhs_short_output_panics_with_named_precondition() {
        let a = vec![0.0; 9];
        let x = vec![Complex64::ZERO; 6];
        let mut y = vec![Complex64::ZERO; 5]; // one short of 3*2
        apply_panel_multi(&a, 3, &x, &mut y, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "apply_panel_multi: a.len() must be n*n")]
    fn multi_rhs_short_panel_panics_with_named_precondition() {
        let a = vec![0.0; 8];
        let x = vec![Complex64::ZERO; 3];
        let mut y = vec![Complex64::ZERO; 3];
        apply_panel_multi(&a, 3, &x, &mut y, 1);
    }
}
