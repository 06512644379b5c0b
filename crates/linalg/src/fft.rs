//! Iterative radix-2 complex FFT.
//!
//! CGYRO's nonlinear phase is FFT-based (pseudo-spectral Poisson
//! brackets). `xg-sim` no longer calls this module: at every toroidal size
//! a deck here has, its nl bracket is cheaper as a direct convolution
//! (docs/performance.md §8). It stays only for the repo benchmark's
//! `linalg.fft_us` probe, and goes once that probe is replaced.
//! Plan-style API: twiddles are precomputed once per length, transforms
//! are in-place and allocation-free.

use crate::complex::Complex64;

/// A precomputed FFT plan for a power-of-two length.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// Twiddle factors `e^{-2πi k / n}` for `k < n/2`.
    twiddles: Vec<Complex64>,
}

impl Fft {
    /// Plan a transform of length `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let twiddles = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self { n, twiddles }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn bit_reverse_permute(buf: &mut [Complex64]) {
        let n = buf.len();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    /// In-place forward DFT: `X_k = Σ_j x_j e^{-2πi jk/n}`.
    pub fn forward(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        if self.n <= 1 {
            return;
        }
        Self::bit_reverse_permute(buf);
        let mut len = 2;
        while len <= self.n {
            let stride = self.n / len;
            for start in (0..self.n).step_by(len) {
                for k in 0..len / 2 {
                    let w = self.twiddles[k * stride];
                    let a = buf[start + k];
                    let b = buf[start + k + len / 2] * w;
                    buf[start + k] = a + b;
                    buf[start + k + len / 2] = a - b;
                }
            }
            len <<= 1;
        }
    }

    /// In-place inverse DFT (normalized: `ifft(fft(x)) = x`).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        if self.n <= 1 {
            return;
        }
        for z in buf.iter_mut() {
            *z = z.conj();
        }
        self.forward(buf);
        let scale = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }
}

/// Smallest power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    acc += xj
                        * Complex64::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos() * 0.5))
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = test_signal(n);
            let mut fast = x.clone();
            Fft::new(n).forward(&mut fast);
            let slow = naive_dft(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-10 * (n as f64), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 128;
        let x = test_signal(n);
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval() {
        let n = 64;
        let x = test_signal(n);
        let mut y = x.clone();
        Fft::new(n).forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn impulse_is_flat_spectrum() {
        let n = 16;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        Fft::new(n).forward(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_theorem() {
        // Circular convolution via FFT equals the direct sum.
        let n = 32;
        let a = test_signal(n);
        let b: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).cos(), 0.1 * i as f64)).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        plan.inverse(&mut prod);
        for k in 0..n {
            let mut direct = Complex64::ZERO;
            for j in 0..n {
                direct += a[j] * b[(n + k - j) % n];
            }
            assert!((prod[k] - direct).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let _ = Fft::new(12);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(64), 64);
        assert_eq!(next_pow2(65), 128);
    }
}
