//! Vector norms and comparison helpers shared across the workspace,
//! including the deterministic pairwise summation used when bitwise
//! reproducibility between serial and distributed runs is required.

use crate::complex::Complex64;

/// Maximum absolute entry of a real slice.
pub fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Maximum modulus of a complex slice.
pub fn max_abs_complex(v: &[Complex64]) -> f64 {
    v.iter().fold(0.0_f64, |m, z| m.max(z.abs()))
}

/// Maximum componentwise deviation between two complex slices.
///
/// This is the metric reported by the equivalence experiment (T-correct):
/// independent CGYRO runs vs. the XGYRO ensemble.
pub fn max_deviation(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_deviation: length mismatch");
    a.iter().zip(b).fold(0.0_f64, |m, (x, y)| m.max((*x - *y).abs()))
}

/// Pairwise (cascade) summation of real values.
///
/// Summation order is a deterministic function of the *global* length only,
/// so a distributed reduction that reassembles per-rank partial vectors and
/// then calls this produces bitwise-identical results to the serial code.
pub fn pairwise_sum(v: &[f64]) -> f64 {
    const BASE: usize = 32;
    if v.len() <= BASE {
        return v.iter().sum();
    }
    let mid = v.len() / 2;
    pairwise_sum(&v[..mid]) + pairwise_sum(&v[mid..])
}

/// Pairwise summation of complex values (componentwise cascade).
pub fn pairwise_sum_complex(v: &[Complex64]) -> Complex64 {
    const BASE: usize = 32;
    if v.len() <= BASE {
        return v.iter().copied().sum();
    }
    let mid = v.len() / 2;
    pairwise_sum_complex(&v[..mid]) + pairwise_sum_complex(&v[mid..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_of_real_slices() {
        assert_eq!(max_abs(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn complex_norms() {
        let v = [Complex64::new(3.0, 4.0), Complex64::new(0.0, 1.0)];
        assert_eq!(max_abs_complex(&v), 5.0);
    }

    #[test]
    fn deviation_of_identical_is_zero() {
        let v = [Complex64::new(1.0, 2.0); 8];
        assert_eq!(max_deviation(&v, &v), 0.0);
    }

    #[test]
    fn pairwise_sum_matches_naive_for_small() {
        let v: Vec<f64> = (0..17).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&v), v.iter().sum::<f64>());
    }

    #[test]
    fn pairwise_sum_is_deterministic_and_accurate() {
        // Large alternating series where naive summation accumulates error.
        let v: Vec<f64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 1.0 + 1e-13 } else { -1.0 })
            .collect();
        let s1 = pairwise_sum(&v);
        let s2 = pairwise_sum(&v);
        assert_eq!(s1, s2);
        assert!((s1 - 5_000.0 * 1e-13).abs() < 1e-12);
    }

    #[test]
    fn pairwise_complex_matches_componentwise() {
        let v: Vec<Complex64> =
            (0..500).map(|i| Complex64::new((i as f64).sin(), (i as f64).cos())).collect();
        let s = pairwise_sum_complex(&v);
        let re: Vec<f64> = v.iter().map(|z| z.re).collect();
        let im: Vec<f64> = v.iter().map(|z| z.im).collect();
        assert_eq!(s.re, pairwise_sum(&re));
        assert_eq!(s.im, pairwise_sum(&im));
    }
}
