//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use xg_linalg::{
    apply_panel_multi, matmul, matvec, matvec_complex, matvec_complex_flat, Complex64, LuFactors,
    RealMatrix,
};

/// Strategy: a well-conditioned (diagonally dominant) n×n matrix.
fn dominant_matrix(n: usize) -> impl Strategy<Value = RealMatrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let mut m = RealMatrix::from_vec(n, n, vals);
        for i in 0..n {
            let row_abs: f64 = m.row(i).iter().map(|v| v.abs()).sum();
            m[(i, i)] = row_abs + 1.0;
        }
        m
    })
}

/// Deterministic noise in `(-1, 1)` (splitmix64 of `seed` and `i`). Not the
/// `sin(α·i)` filler of the kernel tests: a matrix of those has rank 2.
fn noise(seed: u64, i: usize) -> f64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Dense, no dominant diagonal, and column 0's largest entry in the last
/// row: partial pivoting swaps rows from the first column on.
fn swapping_matrix(n: usize, seed: u64) -> RealMatrix {
    let mut a = RealMatrix::from_fn(n, n, |i, j| noise(seed, i * n + j));
    a[(n - 1, 0)] = 2.0;
    a
}

/// A diagonally dominant tridiagonal matrix with its rows rotated by one:
/// every pivot needs a swap and almost every multiplier is an exact zero.
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

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

fn cvector(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_has_small_residual(a in dominant_matrix(8), b in vector(8)) {
        let f = LuFactors::factorize(a.clone()).unwrap();
        let x = f.solve(&b);
        let mut ax = vec![0.0; 8];
        matvec(&a, &x, &mut ax);
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-9, "residual too large: {p} vs {q}");
        }
    }

    #[test]
    fn lu_inverse_roundtrip(a in dominant_matrix(6)) {
        let f = LuFactors::factorize(a.clone()).unwrap();
        let inv = f.inverse();
        let prod = matmul(&a, &inv);
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in dominant_matrix(5),
        b in dominant_matrix(5),
        c in dominant_matrix(5),
    ) {
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_reverses_product(a in dominant_matrix(5), b in dominant_matrix(5)) {
        let lhs = matmul(&a, &b).transposed();
        let rhs = matmul(&b.transposed(), &a.transposed());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_matvec_is_linear(a in dominant_matrix(7), x in cvector(7), y in cvector(7)) {
        let mut ax = vec![Complex64::ZERO; 7];
        let mut ay = vec![Complex64::ZERO; 7];
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(p, q)| *p + *q).collect();
        let mut asum = vec![Complex64::ZERO; 7];
        matvec_complex(&a, &x, &mut ax);
        matvec_complex(&a, &y, &mut ay);
        matvec_complex(&a, &sum, &mut asum);
        for k in 0..7 {
            prop_assert!((asum[k] - (ax[k] + ay[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_field_axioms(
        (ar, ai) in (-100.0f64..100.0, -100.0f64..100.0),
        (br, bi) in (-100.0f64..100.0, -100.0f64..100.0),
        (cr, ci) in (-100.0f64..100.0, -100.0f64..100.0),
    ) {
        let a = Complex64::new(ar, ai);
        let b = Complex64::new(br, bi);
        let c = Complex64::new(cr, ci);
        // Commutativity and associativity (to roundoff).
        prop_assert!(((a * b) - (b * a)).abs() < 1e-9);
        let scale = a.abs().max(b.abs()).max(c.abs()).max(1.0).powi(3);
        prop_assert!((((a * b) * c) - (a * (b * c))).abs() / scale < 1e-12);
        // |ab| = |a||b| (relative).
        let lhs = (a * b).abs();
        let rhs = a.abs() * b.abs();
        prop_assert!((lhs - rhs).abs() <= 1e-10 * (1.0 + rhs));
    }

    #[test]
    fn pairwise_sum_close_to_naive(v in prop::collection::vec(-1e3f64..1e3, 1..2000)) {
        let p = xg_linalg::norms::pairwise_sum(&v);
        let n: f64 = v.iter().sum();
        prop_assert!((p - n).abs() < 1e-6 * (1.0 + n.abs()));
    }

    #[test]
    fn blocked_multi_rhs_equals_naive_per_column(
        n in 1usize..40,
        nrhs in 0usize..10,
        seed in -1.0f64..1.0,
    ) {
        // The blocked kernel must be *bitwise* equal to running the naive
        // single-RHS reference once per column, for every (n, nrhs) shape
        // (exercising the 4-wide body and the 2-/1-wide remainders).
        let a: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64 + seed) * 0.61803).sin() * 3.0)
            .collect();
        let x: Vec<Complex64> = (0..n * nrhs)
            .map(|i| {
                Complex64::new(((i as f64 - seed) * 1.417).cos(), ((i as f64) * 0.271).sin())
            })
            .collect();
        let mut y = vec![Complex64::ZERO; n * nrhs];
        apply_panel_multi(&a, n, &x, &mut y, nrhs);
        for r in 0..nrhs {
            let mut yr = vec![Complex64::ZERO; n];
            matvec_complex_flat(&a, n, n, &x[r * n..(r + 1) * n], &mut yr);
            for i in 0..n {
                prop_assert_eq!(y[r * n + i].re.to_bits(), yr[i].re.to_bits());
                prop_assert_eq!(y[r * n + i].im.to_bits(), yr[i].im.to_bits());
            }
        }
    }

    #[test]
    fn multi_rhs_solve_equals_columnwise_solve_bitwise(seed in 0u64..) {
        // `solve_matrix` is row-oriented and blocked over 16 columns of B;
        // `solve` is the scalar column loop. Every column must come out
        // `to_bits`-equal: full panels (16, 33 → 2×16 + 1), the remainder
        // alone (1, 7, 15) and both (17, n), on factorizations that swap
        // rows and on ones whose multipliers are mostly exact zeros.
        for n in (1..=40).chain([48, 144]) {
            for a in [swapping_matrix(n, seed), shifted_tridiagonal(n, seed)] {
                let f = LuFactors::factorize(a).unwrap();
                for ncols in [1, 7, 15, 16, 17, 33, n] {
                    let b = RealMatrix::from_fn(n, ncols, |i, j| noise(seed ^ 0xb, i * ncols + j));
                    let x = f.solve_matrix(&b);
                    for j in 0..ncols {
                        let want = f.solve(&b.col(j));
                        for i in 0..n {
                            prop_assert_eq!(
                                x[(i, j)].to_bits(),
                                want[i].to_bits(),
                                "n={} ncols={} at ({}, {})", n, ncols, i, j
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn determinant_multiplicative(a in dominant_matrix(4), b in dominant_matrix(4)) {
        let da = LuFactors::factorize(a.clone()).unwrap().determinant();
        let db = LuFactors::factorize(b.clone()).unwrap().determinant();
        let dab = LuFactors::factorize(matmul(&a, &b)).unwrap().determinant();
        prop_assert!((dab - da * db).abs() < 1e-6 * (1.0 + (da * db).abs()));
    }
}
