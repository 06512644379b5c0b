//! SIMD micro-kernels, the runtime capability probe and the per-shape
//! level tuner for the collision panel apply.
//!
//! The collision step is a stream of real-panel × complex-multi-RHS
//! products. This module provides three interchangeable micro-kernels —
//! portable scalar, AVX2/FMA (f64x4) and AVX-512F (f64x8). A runtime CPUID
//! probe caps the usable levels once per process (overridable via
//! [`SIMD_ENV`] = `XGYRO_SIMD={auto,avx512,avx2,scalar}`), and
//! [`tuned_level`] times the usable levels at each `(n, nrhs)` shape and
//! keeps the narrowest one that no wider level clearly beats.
//!
//! # Bitwise determinism contract
//!
//! Every kernel computes, for each `(row i, rhs r)` output component,
//!
//! ```text
//! acc ← 0;  for j in 0..n (ascending):  acc ← fma(a[i·n+j], x[r·n+j].{re,im}, acc)
//! ```
//!
//! — one accumulator per `(row, rhs, component)`, accumulated sequentially
//! over ascending `j` with a single fused multiply-add per term. The SIMD
//! variants vectorize across *right-hand sides* (each vector lane holds one
//! independent `(rhs, component)` accumulator), never across `j`, so the
//! per-lane operation sequence is exactly the scalar one. Since
//! [`f64::mul_add`] and the x86 `vfmadd` instructions are both
//! correctly-rounded IEEE 754 fused multiply-adds, all kernels produce
//! bitwise-identical results, so the tuner changes wall time only. The
//! test suite and the CI `kernel-matrix` job enforce this.
//!
//! # The `cmat` build's contract
//!
//! [`LuFactors::factorize`] and [`LuFactors::solve_matrix_into`] run one
//! safe source, compiled once per level by [`with_level`] and picked at
//! [`selected_level`]. It is multiply-then-subtract, not FMA: each
//! element receives `x ← x − (m·u)` as a separately rounded multiply and
//! subtract, for the pivot steps (factorization) or `j` (substitution) in
//! ascending order, with the `m ≠ 0` skip and one divide by `u_ii`. Lanes
//! cover only independent columns of `X` or trailing elements of one row,
//! and Rust never contracts `a − b·c` into an FMA, so every level builds
//! the scalar level's factors and solutions bit for bit.
//!
//! # The explicit half's contract
//!
//! The str stencil (`xg_sim::streaming`) and the nl bracket
//! (`xg_sim::nonlinear`) run through the same [`with_level`] at
//! [`selected_level`]. Their lanes are independent output points, each
//! computed with separately rounded multiplies and adds in the scalar
//! loop's order, so every level gives the scalar build's bits.

use crate::complex::Complex64;
use crate::lu::{LuFactors, SingularMatrix};
use crate::matrix::RealMatrix;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the SIMD micro-kernel
/// (`auto`/`avx512`/`avx2`/`scalar`; default `auto`). Requests above the
/// hardware's capability are clamped down to the detected maximum.
pub const SIMD_ENV: &str = "XGYRO_SIMD";

/// A SIMD capability level for the panel micro-kernels. Ordered by lane
/// width so levels can be clamped against the hardware probe with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable register-blocked scalar kernel (FMA contraction via
    /// [`f64::mul_add`]; compiled with hardware FMA when available).
    Scalar,
    /// AVX2 + FMA: 4 × f64 lanes (2 complex RHS per vector).
    Avx2,
    /// AVX-512F: 8 × f64 lanes (4 complex RHS per vector).
    Avx512,
}

impl SimdLevel {
    /// All levels, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable lowercase name (`scalar`/`avx2`/`avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// f64 lanes per vector register at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 4,
            SimdLevel::Avx512 => 8,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SimdLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdLevel::Scalar),
            "avx2" => Ok(SimdLevel::Avx2),
            "avx512" => Ok(SimdLevel::Avx512),
            other => Err(format!(
                "unknown SIMD level {other:?} (expected auto, avx512, avx2 or scalar)"
            )),
        }
    }
}

/// Probe the hardware once: the widest level this CPU can execute.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Whether the CPU has a hardware fused multiply-add (used to pick the
/// fast instantiation of the scalar kernels; the arithmetic is identical
/// either way because [`f64::mul_add`] is correctly rounded everywhere).
pub(crate) fn hw_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static HW: OnceLock<bool> = OnceLock::new();
        *HW.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolve a requested level string against the detected capability:
/// `None`/`"auto"` → detected; an explicit level is clamped down to the
/// detected maximum (asking for `avx512` on an AVX2 machine runs AVX2).
pub fn resolve_level(request: Option<&str>, detected: SimdLevel) -> Result<SimdLevel, String> {
    match request {
        None => Ok(detected),
        Some(s) if s.trim().is_empty() || s.trim().eq_ignore_ascii_case("auto") => Ok(detected),
        Some(s) => s.parse::<SimdLevel>().map(|l| l.min(detected)),
    }
}

/// The process-wide kernel level: [`SIMD_ENV`] resolved against the probe,
/// computed once at first use.
pub fn selected_level() -> SimdLevel {
    static SELECTED: OnceLock<SimdLevel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        resolve_level(std::env::var(SIMD_ENV).ok().as_deref(), detected_level())
            .unwrap_or_else(|e| panic!("{SIMD_ENV}: {e}"))
    })
}

/// Levels usable in this process, narrowest first — [`tuned_level`]'s
/// candidate set. Respects both the hardware probe and a [`SIMD_ENV`] cap
/// (under `XGYRO_SIMD=scalar` only the scalar kernel is a candidate).
pub fn available_levels() -> Vec<SimdLevel> {
    let top = selected_level();
    SimdLevel::ALL.iter().copied().filter(|l| *l <= top).collect()
}

thread_local! {
    /// Per-thread packing scratch for the interleaved RHS block.
    static PACK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Pack the RHS-major complex block into the j-major interleaved layout the
/// SIMD kernels stream: `xp[j·2k + 2r] = x[r·n + j].re`,
/// `xp[j·2k + 2r + 1] = x[r·n + j].im`. One panel column index `j` maps to
/// `2·nrhs` contiguous f64 lanes, so the inner kernel loop is one broadcast
/// plus contiguous FMAs.
fn pack_rhs(x: &[Complex64], n: usize, nrhs: usize, xp: &mut Vec<f64>) {
    let w = 2 * nrhs;
    xp.clear();
    xp.resize(n * w, 0.0);
    for r in 0..nrhs {
        let col = &x[r * n..(r + 1) * n];
        for (j, z) in col.iter().enumerate() {
            xp[j * w + 2 * r] = z.re;
            xp[j * w + 2 * r + 1] = z.im;
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernel (register-blocked 4/2/1 over RHS, FMA contraction).
// ---------------------------------------------------------------------------

/// Shared scalar body: instantiated twice, plain and under
/// `#[target_feature(enable = "fma")]`, so `mul_add` compiles to `vfmadd`
/// on FMA hardware (the default x86-64 target is SSE2-only) while staying
/// bit-identical to the software fallback.
///
/// # Safety
/// `y` must be valid for `n·nrhs` elements.
#[allow(clippy::missing_safety_doc)]
#[inline(always)]
unsafe fn scalar_body(a: &[f64], n: usize, x: &[Complex64], y: *mut Complex64, nrhs: usize) {
    let mut r = 0usize;
    while r + 4 <= nrhs {
        let (x0, x1, x2, x3) = (
            &x[r * n..(r + 1) * n],
            &x[(r + 1) * n..(r + 2) * n],
            &x[(r + 2) * n..(r + 3) * n],
            &x[(r + 3) * n..(r + 4) * n],
        );
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            let (mut re0, mut im0) = (0.0f64, 0.0f64);
            let (mut re1, mut im1) = (0.0f64, 0.0f64);
            let (mut re2, mut im2) = (0.0f64, 0.0f64);
            let (mut re3, mut im3) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re0 = aij.mul_add(x0[j].re, re0);
                im0 = aij.mul_add(x0[j].im, im0);
                re1 = aij.mul_add(x1[j].re, re1);
                im1 = aij.mul_add(x1[j].im, im1);
                re2 = aij.mul_add(x2[j].re, re2);
                im2 = aij.mul_add(x2[j].im, im2);
                re3 = aij.mul_add(x3[j].re, re3);
                im3 = aij.mul_add(x3[j].im, im3);
            }
            *y.add(r * n + i) = Complex64::new(re0, im0);
            *y.add((r + 1) * n + i) = Complex64::new(re1, im1);
            *y.add((r + 2) * n + i) = Complex64::new(re2, im2);
            *y.add((r + 3) * n + i) = Complex64::new(re3, im3);
        }
        r += 4;
    }
    if r + 2 <= nrhs {
        let (x0, x1) = (&x[r * n..(r + 1) * n], &x[(r + 1) * n..(r + 2) * n]);
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            let (mut re0, mut im0) = (0.0f64, 0.0f64);
            let (mut re1, mut im1) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re0 = aij.mul_add(x0[j].re, re0);
                im0 = aij.mul_add(x0[j].im, im0);
                re1 = aij.mul_add(x1[j].re, re1);
                im1 = aij.mul_add(x1[j].im, im1);
            }
            *y.add(r * n + i) = Complex64::new(re0, im0);
            *y.add((r + 1) * n + i) = Complex64::new(re1, im1);
        }
        r += 2;
    }
    if r < nrhs {
        let x0 = &x[r * n..(r + 1) * n];
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re = aij.mul_add(x0[j].re, re);
                im = aij.mul_add(x0[j].im, im);
            }
            *y.add(r * n + i) = Complex64::new(re, im);
        }
    }
}

/// # Safety
/// The CPU must support FMA; `y` must be valid for `n·nrhs` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn scalar_fma(a: &[f64], n: usize, x: &[Complex64], y: *mut Complex64, nrhs: usize) {
    scalar_body(a, n, x, y, nrhs)
}

/// # Safety
/// `y` must be valid for `n·nrhs` elements.
unsafe fn panel_scalar(a: &[f64], n: usize, x: &[Complex64], y: *mut Complex64, nrhs: usize) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        return scalar_fma(a, n, x, y, nrhs);
    }
    scalar_body(a, n, x, y, nrhs)
}

// ---------------------------------------------------------------------------
// x86 vector kernels over the packed interleaved RHS block.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Complex64, LevelBody};
    use std::arch::x86_64::*;

    /// Store one ymm of 2 complex accumulators to `y[(r..r+2)·n + i]`.
    #[inline(always)]
    unsafe fn store2(y: *mut Complex64, n: usize, r: usize, i: usize, v: __m256d) {
        let mut t = [0.0f64; 4];
        _mm256_storeu_pd(t.as_mut_ptr(), v);
        *y.add(r * n + i) = Complex64::new(t[0], t[1]);
        *y.add((r + 1) * n + i) = Complex64::new(t[2], t[3]);
    }

    /// 2-RHS remainder (one ymm accumulator per row) at lane column `c = 2r`.
    ///
    /// # Safety
    /// Called from a `target_feature` kernel with AVX2+FMA; `xp` has width
    /// `w ≥ 2r + 4`; `y` valid for `n·nrhs`.
    #[inline(always)]
    unsafe fn tail2(a: &[f64], n: usize, xp: &[f64], w: usize, y: *mut Complex64, r: usize) {
        let c = 2 * r;
        for i in 0..n {
            let row = a.as_ptr().add(i * n);
            let mut acc = _mm256_setzero_pd();
            for j in 0..n {
                let xv = _mm256_loadu_pd(xp.as_ptr().add(j * w + c));
                acc = _mm256_fmadd_pd(_mm256_set1_pd(*row.add(j)), xv, acc);
            }
            store2(y, n, r, i, acc);
        }
    }

    /// 1-RHS remainder (one xmm accumulator per row) at lane column `c = 2r`.
    ///
    /// # Safety
    /// Called from a `target_feature` kernel with FMA; `xp` has width
    /// `w ≥ 2r + 2`; `y` valid for `n·nrhs`.
    #[inline(always)]
    unsafe fn tail1(a: &[f64], n: usize, xp: &[f64], w: usize, y: *mut Complex64, r: usize) {
        let c = 2 * r;
        for i in 0..n {
            let row = a.as_ptr().add(i * n);
            let mut acc = _mm_setzero_pd();
            for j in 0..n {
                let xv = _mm_loadu_pd(xp.as_ptr().add(j * w + c));
                acc = _mm_fmadd_pd(_mm_set1_pd(*row.add(j)), xv, acc);
            }
            let mut t = [0.0f64; 2];
            _mm_storeu_pd(t.as_mut_ptr(), acc);
            *y.add(r * n + i) = Complex64::new(t[0], t[1]);
        }
    }

    /// AVX2/FMA kernel: 4 RHS (8 f64 lanes = 2 ymm) per group, rows in
    /// pairs so each packed x load feeds two broadcast·fma streams.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA; `xp` is the packed block of width
    /// `w = 2·nrhs`; `y` valid for `n·nrhs`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn panel_avx2(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: *mut Complex64,
        nrhs: usize,
    ) {
        let w = 2 * nrhs;
        let mut r = 0usize;
        while r + 4 <= nrhs {
            let c = 2 * r;
            let mut i = 0usize;
            while i + 2 <= n {
                let row0 = a.as_ptr().add(i * n);
                let row1 = a.as_ptr().add((i + 1) * n);
                let mut acc00 = _mm256_setzero_pd();
                let mut acc01 = _mm256_setzero_pd();
                let mut acc10 = _mm256_setzero_pd();
                let mut acc11 = _mm256_setzero_pd();
                for j in 0..n {
                    let xlo = _mm256_loadu_pd(xp.as_ptr().add(j * w + c));
                    let xhi = _mm256_loadu_pd(xp.as_ptr().add(j * w + c + 4));
                    let a0 = _mm256_set1_pd(*row0.add(j));
                    let a1 = _mm256_set1_pd(*row1.add(j));
                    acc00 = _mm256_fmadd_pd(a0, xlo, acc00);
                    acc01 = _mm256_fmadd_pd(a0, xhi, acc01);
                    acc10 = _mm256_fmadd_pd(a1, xlo, acc10);
                    acc11 = _mm256_fmadd_pd(a1, xhi, acc11);
                }
                store2(y, n, r, i, acc00);
                store2(y, n, r + 2, i, acc01);
                store2(y, n, r, i + 1, acc10);
                store2(y, n, r + 2, i + 1, acc11);
                i += 2;
            }
            if i < n {
                let row0 = a.as_ptr().add(i * n);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                for j in 0..n {
                    let a0 = _mm256_set1_pd(*row0.add(j));
                    acc0 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(xp.as_ptr().add(j * w + c)), acc0);
                    acc1 =
                        _mm256_fmadd_pd(a0, _mm256_loadu_pd(xp.as_ptr().add(j * w + c + 4)), acc1);
                }
                store2(y, n, r, i, acc0);
                store2(y, n, r + 2, i, acc1);
            }
            r += 4;
        }
        if r + 2 <= nrhs {
            tail2(a, n, xp, w, y, r);
            r += 2;
        }
        if r < nrhs {
            tail1(a, n, xp, w, y, r);
        }
    }

    /// AVX-512F kernel: 8 RHS (16 f64 lanes = 2 zmm) per group, rows in
    /// pairs; remainders fall through to one zmm, then the ymm/xmm tails.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F (+AVX2/FMA for the tails); same
    /// contracts as [`panel_avx2`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn panel_avx512(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: *mut Complex64,
        nrhs: usize,
    ) {
        let w = 2 * nrhs;
        let mut r = 0usize;
        while r + 8 <= nrhs {
            let c = 2 * r;
            let mut i = 0usize;
            while i + 2 <= n {
                let row0 = a.as_ptr().add(i * n);
                let row1 = a.as_ptr().add((i + 1) * n);
                let mut acc00 = _mm512_setzero_pd();
                let mut acc01 = _mm512_setzero_pd();
                let mut acc10 = _mm512_setzero_pd();
                let mut acc11 = _mm512_setzero_pd();
                for j in 0..n {
                    let xlo = _mm512_loadu_pd(xp.as_ptr().add(j * w + c));
                    let xhi = _mm512_loadu_pd(xp.as_ptr().add(j * w + c + 8));
                    let a0 = _mm512_set1_pd(*row0.add(j));
                    let a1 = _mm512_set1_pd(*row1.add(j));
                    acc00 = _mm512_fmadd_pd(a0, xlo, acc00);
                    acc01 = _mm512_fmadd_pd(a0, xhi, acc01);
                    acc10 = _mm512_fmadd_pd(a1, xlo, acc10);
                    acc11 = _mm512_fmadd_pd(a1, xhi, acc11);
                }
                store8(y, n, r, i, acc00, acc01);
                store8(y, n, r, i + 1, acc10, acc11);
                i += 2;
            }
            if i < n {
                let row0 = a.as_ptr().add(i * n);
                let mut acc0 = _mm512_setzero_pd();
                let mut acc1 = _mm512_setzero_pd();
                for j in 0..n {
                    let a0 = _mm512_set1_pd(*row0.add(j));
                    acc0 = _mm512_fmadd_pd(a0, _mm512_loadu_pd(xp.as_ptr().add(j * w + c)), acc0);
                    acc1 =
                        _mm512_fmadd_pd(a0, _mm512_loadu_pd(xp.as_ptr().add(j * w + c + 8)), acc1);
                }
                store8(y, n, r, i, acc0, acc1);
            }
            r += 8;
        }
        if r + 4 <= nrhs {
            let c = 2 * r;
            for i in 0..n {
                let row = a.as_ptr().add(i * n);
                let mut acc = _mm512_setzero_pd();
                for j in 0..n {
                    let xv = _mm512_loadu_pd(xp.as_ptr().add(j * w + c));
                    acc = _mm512_fmadd_pd(_mm512_set1_pd(*row.add(j)), xv, acc);
                }
                let mut t = [0.0f64; 8];
                _mm512_storeu_pd(t.as_mut_ptr(), acc);
                for m in 0..4 {
                    *y.add((r + m) * n + i) = Complex64::new(t[2 * m], t[2 * m + 1]);
                }
            }
            r += 4;
        }
        if r + 2 <= nrhs {
            tail2(a, n, xp, w, y, r);
            r += 2;
        }
        if r < nrhs {
            tail1(a, n, xp, w, y, r);
        }
    }

    /// Store two zmm of 4 complex accumulators each to
    /// `y[(r..r+8)·n + i]`.
    #[inline(always)]
    unsafe fn store8(y: *mut Complex64, n: usize, r: usize, i: usize, lo: __m512d, hi: __m512d) {
        let mut t = [0.0f64; 16];
        _mm512_storeu_pd(t.as_mut_ptr(), lo);
        _mm512_storeu_pd(t.as_mut_ptr().add(8), hi);
        for m in 0..8 {
            *y.add((r + m) * n + i) = Complex64::new(t[2 * m], t[2 * m + 1]);
        }
    }

    /// `body` compiled for AVX2+FMA: inlined here, it runs on ymm lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn run_avx2<B: LevelBody>(body: B) -> B::Output {
        body.run()
    }

    /// `body` compiled for AVX-512F: inlined here, it runs on zmm lanes.
    ///
    /// # Safety
    /// The CPU must support AVX-512F+AVX2+FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn run_avx512<B: LevelBody>(body: B) -> B::Output {
        body.run()
    }
}

// ---------------------------------------------------------------------------
// Dispatch entry point.
// ---------------------------------------------------------------------------

/// Clamp a requested level to what this CPU can actually execute (passing
/// `Avx512` on an AVX2-only machine must not fault).
#[inline]
fn effective(level: SimdLevel) -> SimdLevel {
    level.min(detected_level())
}

/// Full panel apply with an explicit kernel level: `Y = A·X` over the
/// whole panel in one call, the RHS block packed once.
///
/// Bitwise identical to [`crate::gemm::apply_panel_multi`] (and to the
/// per-column naive kernel) at every level — the tuner may pick any level
/// without perturbing trajectories.
pub fn apply_panel_multi_with(
    level: SimdLevel,
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nrhs: usize,
) {
    debug_assert_eq!(a.len(), n * n, "apply_panel_multi: a.len() must be n*n");
    debug_assert_eq!(x.len(), n * nrhs, "apply_panel_multi: x.len() must be n*nrhs");
    debug_assert_eq!(y.len(), n * nrhs, "apply_panel_multi: y.len() must be n*nrhs");
    if nrhs == 0 || n == 0 {
        return;
    }
    let yp = y.as_mut_ptr();
    let level = effective(level);
    match level {
        // SAFETY: y is a live &mut of n·nrhs elements.
        SimdLevel::Scalar => unsafe { panel_scalar(a, n, x, yp, nrhs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => PACK_SCRATCH.with(|s| {
            let xp = &mut *s.borrow_mut();
            pack_rhs(x, n, nrhs, xp);
            // SAFETY: level ≤ detected_level() guarantees the ISA; y is a
            // live &mut of n·nrhs elements.
            unsafe {
                match level {
                    SimdLevel::Avx2 => x86::panel_avx2(a, n, xp, yp, nrhs),
                    _ => x86::panel_avx512(a, n, xp, yp, nrhs),
                }
            }
        }),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("effective() clamps to Scalar off x86_64"),
    }
}

/// A kernel body that [`with_level`] compiles once per [`SimdLevel`].
///
/// Implement [`LevelBody::run`] with `#[inline(always)]`, and reach the
/// loops from it through `#[inline(always)]` calls only: that is what
/// places them inside the level's `#[target_feature]` frame. The helper
/// takes this trait and not a closure because stable Rust cannot mark a
/// closure `#[inline(always)]`, and LLVM calls a large closure out of line,
/// compiled for the baseline target.
pub trait LevelBody {
    /// What the body returns.
    type Output;
    /// Run the body.
    fn run(self) -> Self::Output;
}

/// Run `body` compiled for `level`'s lanes (clamped to the hardware
/// probe): the one safe way a kernel outside this module reaches the wider
/// instruction sets. It changes which instructions run, never which
/// operations: Rust does not contract `a·b + c` into an FMA, so a body of
/// independent per-lane arithmetic gives the scalar build's bits at every
/// level.
#[inline]
pub fn with_level<B: LevelBody>(level: SimdLevel, body: B) -> B::Output {
    match effective(level) {
        SimdLevel::Scalar => body.run(),
        // SAFETY: effective() ≤ detected_level() guarantees AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::run_avx2(body) },
        // SAFETY: effective() ≤ detected_level() guarantees AVX-512F+AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::run_avx512(body) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("effective() clamps to Scalar off x86_64"),
    }
}

/// [`LuFactors::factorize_body`] as a [`LevelBody`].
struct Factorize(RealMatrix);

impl LevelBody for Factorize {
    type Output = Result<LuFactors, SingularMatrix>;
    #[inline(always)]
    fn run(self) -> Self::Output {
        LuFactors::factorize_body(self.0)
    }
}

/// [`LuFactors::solve_matrix_into_body`] as a [`LevelBody`].
struct SolveInto<'a>(&'a LuFactors, &'a RealMatrix, &'a mut [f64]);

impl LevelBody for SolveInto<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.0.solve_matrix_into_body(self.1, self.2)
    }
}

/// [`LuFactors::factorize`] with an explicit level: the same source
/// compiled for that level's lanes, bitwise identical at every level.
pub(crate) fn factorize_with(level: SimdLevel, a: RealMatrix) -> Result<LuFactors, SingularMatrix> {
    with_level(level, Factorize(a))
}

/// [`LuFactors::solve_matrix_into`] with an explicit level: the same
/// source compiled for that level's lanes, bitwise identical at every
/// level.
pub(crate) fn solve_matrix_into_with(
    level: SimdLevel,
    f: &LuFactors,
    b: &RealMatrix,
    x: &mut [f64],
) {
    with_level(level, SolveInto(f, b, x))
}

// ---------------------------------------------------------------------------
// Per-shape level tuner.
// ---------------------------------------------------------------------------

/// How much faster (as a fraction of the incumbent's time) a wider level
/// must measure to replace a narrower one. Below it the two are tied
/// within timing noise, and a tie keeps the narrower level, so repeated
/// tunes of one shape agree.
pub const WIDER_LEVEL_MARGIN: f64 = 0.05;

/// Pick a level from `levels` (narrowest first) under a cost oracle: the
/// first level is the incumbent, and each wider one replaces it only if it
/// costs less than `1 − WIDER_LEVEL_MARGIN` of the incumbent's cost. Pure
/// and deterministic for a fixed oracle. Panics on an empty list.
pub fn select_level_with<F>(levels: &[SimdLevel], mut cost: F) -> SimdLevel
where
    F: FnMut(SimdLevel) -> f64,
{
    let (&first, wider) = levels.split_first().expect("select_level_with: no levels");
    let mut best = (first, cost(first));
    for &level in wider {
        let t = cost(level);
        if t < (1.0 - WIDER_LEVEL_MARGIN) * best.1 {
            best = (level, t);
        }
    }
    best.0
}

/// Deterministically-filled synthetic panel and RHS block of the tuned
/// shape (the values are irrelevant to timing; they only have to be
/// finite and dense).
fn synthetic_problem(n: usize, nrhs: usize) -> (Vec<f64>, Vec<Complex64>) {
    let a: Vec<f64> = (0..n * n).map(|i| ((i % 251) as f64) * 0.004 - 0.5).collect();
    let x: Vec<Complex64> = (0..n * nrhs)
        .map(|i| Complex64::new(((i % 127) as f64) * 0.01, ((i % 63) as f64) * -0.02))
        .collect();
    (a, x)
}

type TuneKey = (usize, usize, SimdLevel);

fn tune_cache() -> &'static Mutex<HashMap<TuneKey, SimdLevel>> {
    static CACHE: OnceLock<Mutex<HashMap<TuneKey, SimdLevel>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Shapes swept so far, in order (tests count how often a key was tuned).
#[cfg(test)]
static SWEPT: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// The measured kernel level for the collision apply of shape
/// `(n, nrhs)`: every [`available_levels`] candidate gets one warm-up,
/// then the best of a few timed [`apply_panel_multi_with`] calls on a
/// synthetic panel, and [`select_level_with`] picks among them. The timed
/// calls go round-robin over the candidates, so a slow stretch of the host
/// lands on every level instead of on whichever was being timed. Cached
/// per process by shape and [`selected_level`]. Called at topology build
/// by every rank thread of a world at once, so the cache guard is held
/// across lookup → sweep → insert: one rank measures on an otherwise idle
/// host and the rest (which have nothing else to do) read its answer.
pub fn tuned_level(n: usize, nrhs: usize) -> SimdLevel {
    let mut cache = tune_cache().lock().expect("a kernel sweep panicked holding the tuner cache");
    *cache.entry((n, nrhs, selected_level())).or_insert_with(|| {
        #[cfg(test)]
        SWEPT.lock().unwrap().push((n, nrhs));
        // Repetitions sized so tiny shapes get stable timings while big
        // production panels stay a one-shot (~flops-bounded) measurement.
        let work = 4u64 * (n as u64) * (n as u64) * (nrhs.max(1) as u64);
        let reps = (2_000_000 / work.max(1)).clamp(1, 16);
        let (a, x) = synthetic_problem(n, nrhs);
        let mut y = vec![Complex64::ZERO; n * nrhs];
        let levels = available_levels();
        for &level in &levels {
            apply_panel_multi_with(level, &a, n, &x, &mut y, nrhs);
        }
        let mut best_ns = vec![f64::INFINITY; levels.len()];
        for _ in 0..reps {
            for (&level, best) in levels.iter().zip(&mut best_ns) {
                let t0 = Instant::now();
                apply_panel_multi_with(level, &a, n, &x, &mut y, nrhs);
                *best = best.min(t0.elapsed().as_nanos() as f64);
            }
        }
        std::hint::black_box(&y);
        select_level_with(&levels, |level| {
            best_ns[levels.iter().position(|&l| l == level).expect("a candidate level")]
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matvec_complex_flat;

    fn panel(n: usize) -> Vec<f64> {
        (0..n * n).map(|i| ((i as f64) * 0.137).sin() * 2.0 - 0.3).collect()
    }

    fn rhs(n: usize, nrhs: usize) -> Vec<Complex64> {
        (0..n * nrhs)
            .map(|i| Complex64::new(((i * 7) as f64).cos(), ((i * 3) as f64).sin()))
            .collect()
    }

    #[test]
    fn level_round_trips_through_strings() {
        for l in SimdLevel::ALL {
            assert_eq!(l.name().parse::<SimdLevel>().unwrap(), l);
        }
        assert!("neon".parse::<SimdLevel>().is_err());
    }

    #[test]
    fn resolve_level_clamps_and_defaults() {
        assert_eq!(resolve_level(None, SimdLevel::Avx2).unwrap(), SimdLevel::Avx2);
        assert_eq!(resolve_level(Some("auto"), SimdLevel::Avx512).unwrap(), SimdLevel::Avx512);
        assert_eq!(resolve_level(Some("scalar"), SimdLevel::Avx512).unwrap(), SimdLevel::Scalar);
        // Requests above capability clamp down instead of faulting.
        assert_eq!(resolve_level(Some("avx512"), SimdLevel::Avx2).unwrap(), SimdLevel::Avx2);
        assert!(resolve_level(Some("sse9"), SimdLevel::Avx2).is_err());
    }

    #[test]
    fn ties_keep_the_narrowest_level() {
        assert_eq!(select_level_with(&SimdLevel::ALL, |_| 1.0), SimdLevel::Scalar);
        assert_eq!(select_level_with(&[SimdLevel::Avx2, SimdLevel::Avx512], |_| 7.0), SimdLevel::Avx2);
    }

    #[test]
    fn a_wider_level_must_win_by_more_than_the_margin() {
        let costs = |avx2: f64, avx512: f64| {
            move |l: SimdLevel| match l {
                SimdLevel::Scalar => 1.0,
                SimdLevel::Avx2 => avx2,
                SimdLevel::Avx512 => avx512,
            }
        };
        // 4 % faster is inside the margin, 6 % faster is not.
        assert_eq!(select_level_with(&SimdLevel::ALL, costs(0.96, 1.0)), SimdLevel::Scalar);
        assert_eq!(select_level_with(&SimdLevel::ALL, costs(0.94, 1.0)), SimdLevel::Avx2);
        // The widest level is judged against the incumbent, not the first.
        assert_eq!(select_level_with(&SimdLevel::ALL, costs(0.60, 0.58)), SimdLevel::Avx2);
        assert_eq!(select_level_with(&SimdLevel::ALL, costs(0.60, 0.50)), SimdLevel::Avx512);
        assert_eq!(select_level_with(&SimdLevel::ALL, costs(0.99, 0.94)), SimdLevel::Avx512);
    }

    #[test]
    fn measured_tuning_is_cached_and_valid() {
        let a = tuned_level(24, 3);
        let b = tuned_level(24, 3);
        assert_eq!(a, b, "cache must return the stored choice");
        assert!(available_levels().contains(&a));
    }

    #[test]
    fn concurrent_ranks_tune_a_shape_once_and_agree() {
        // The 8 rank threads of a world reach the tuner together; (160, 6)
        // is a key no other test uses.
        let gate = std::sync::Barrier::new(8);
        let choices: Vec<SimdLevel> = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        tuned_level(160, 6)
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let sweeps = SWEPT.lock().unwrap().iter().filter(|&&key| key == (160, 6)).count();
        assert_eq!(sweeps, 1, "one rank measures, the rest read its answer");
        assert!(choices.iter().all(|c| *c == choices[0]), "ranks disagree: {choices:?}");
    }

    #[test]
    fn every_available_level_is_bitwise_equal_to_naive() {
        // Shapes straddling every lane-width remainder (1..9 RHS covers the
        // 8/4/2/1 AVX-512 tails and the 4/2/1 AVX2 tails), odd n, and the
        // benchmark decks' nv (8, 48, 144).
        for &nrhs in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11] {
            for &n in &[1usize, 2, 5, 8, 16, 33, 48, 144] {
                let a = panel(n);
                let x = rhs(n, nrhs);
                let mut want = vec![Complex64::ZERO; n * nrhs];
                for r in 0..nrhs {
                    matvec_complex_flat(
                        &a,
                        n,
                        n,
                        &x[r * n..(r + 1) * n],
                        &mut want[r * n..(r + 1) * n],
                    );
                }
                for level in available_levels() {
                    let mut y = vec![Complex64::ZERO; n * nrhs];
                    apply_panel_multi_with(level, &a, n, &x, &mut y, nrhs);
                    for (got, exp) in y.iter().zip(&want) {
                        assert_eq!(
                            got.re.to_bits(),
                            exp.re.to_bits(),
                            "level {level} n {n} nrhs {nrhs}"
                        );
                        assert_eq!(got.im.to_bits(), exp.im.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn zero_shapes_are_noops() {
        for level in available_levels() {
            apply_panel_multi_with(level, &[], 0, &[], &mut [], 0);
            let a = panel(3);
            apply_panel_multi_with(level, &a, 3, &[], &mut [], 0);
        }
    }
}
