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
//! Every kernel walks a block of rows per pass, so each `x` load feeds at
//! least 8 independent accumulators instead of one FMA chain per row
//! waiting on its own latency: scalar, 4 rows × `(re, im)` for a single
//! RHS, 4 rows × 2 RHS or 2 rows × 4 RHS; AVX2, up to 2 RHS in one ymm × 8
//! rows, or 3–4 RHS in two ymm × 4 rows; AVX-512, up to 4 RHS in one zmm
//! × 8 rows, or 5–8 RHS in two zmm × 4 rows. The vector kernels pack each
//! RHS group once into a zero-padded block one group wide; the padded
//! lanes are computed and never stored. Blocking chooses which
//! accumulators advance side by side, never the sequence within one.
//!
//! # NaN bits
//!
//! "Every level gives the same bits" holds for finite and infinite values
//! (−0.0 and ±∞ included), here and in the contracts below. A NaN's sign
//! and payload may differ by level: Rust leaves them unspecified, and x86
//! passes through whichever NaN operand comes first, an order LLVM may
//! pick differently per level (the str stencil's AVX2 build returned the
//! negative default NaN where the scalar loop passed a planted positive
//! NaN through). So a run that blows up to NaN fingerprints differently
//! under `XGYRO_SIMD=scalar` and `auto`.
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

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Per-thread packing scratch for one RHS group's zero-padded block.
    static PACK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Pack right-hand sides `r..r + cnt` of the RHS-major block `x` into a
/// j-major block `w` f64 lanes wide: `xp[j·w + 2m] = x[(r+m)·n + j].re`,
/// `xp[j·w + 2m + 1] = x[(r+m)·n + j].im`, and lanes `2·cnt..w` zero. One
/// panel column `j` is then `w / 4` or `w / 8` whole vector loads.
#[cfg(target_arch = "x86_64")]
fn pack_group(x: &[Complex64], n: usize, r: usize, cnt: usize, w: usize, xp: &mut Vec<f64>) {
    xp.clear();
    xp.resize(n * w, 0.0);
    for m in 0..cnt {
        let col = &x[(r + m) * n..(r + m + 1) * n];
        for (lanes, z) in xp.chunks_exact_mut(w).zip(col) {
            lanes[2 * m] = z.re;
            lanes[2 * m + 1] = z.im;
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernel (rows × RHS a pass: 2 × 4, 4 × 2 or 4 × 1).
// ---------------------------------------------------------------------------

/// Shared scalar body: instantiated twice, plain and under
/// `#[target_feature(enable = "fma")]`, so `mul_add` compiles to `vfmadd`
/// on FMA hardware (the default x86-64 target is SSE2-only) while staying
/// bit-identical to the software fallback. Groups of 4 RHS walk 2 rows a
/// pass, a pair 4 rows and a last single RHS 4 rows, so every pass keeps
/// 8 or 16 independent FMA chains (LLVM may pair a chain's `re` and `im`
/// in one register, which keeps each lane's sequence) and the panel is
/// read once per group.
#[inline(always)]
fn scalar_body(a: &[f64], n: usize, x: &[Complex64], y: &mut [Complex64], nrhs: usize) {
    let mut r = 0usize;
    while nrhs - r >= 4 {
        scalar_group::<2, 4>(a, n, x, y, r);
        r += 4;
    }
    if nrhs - r >= 2 {
        scalar_group::<4, 2>(a, n, x, y, r);
        r += 2;
    }
    if r < nrhs {
        scalar_group::<4, 1>(a, n, x, y, r);
    }
}

/// RHS `r..r + K` over every panel row, `R` rows a pass and the last
/// `n mod R` rows one a pass.
#[inline(always)]
fn scalar_group<const R: usize, const K: usize>(
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    r: usize,
) {
    let xs: [&[Complex64]; K] = std::array::from_fn(|m| &x[(r + m) * n..(r + m + 1) * n]);
    let full = n - n % R;
    for i in (0..full).step_by(R) {
        scalar_pass::<R, K>(a, n, &xs, y, r, i);
    }
    for i in full..n {
        scalar_pass::<1, K>(a, n, &xs, y, r, i);
    }
}

/// Rows `i..i + R` against the `K` RHS `xs`: one `(re, im)` accumulator
/// pair per (row, RHS) over ascending `j`.
#[inline(always)]
fn scalar_pass<const R: usize, const K: usize>(
    a: &[f64],
    n: usize,
    xs: &[&[Complex64]; K],
    y: &mut [Complex64],
    r: usize,
    i: usize,
) {
    let rows: [&[f64]; R] = std::array::from_fn(|p| &a[(i + p) * n..(i + p + 1) * n]);
    let mut acc = [[[0.0f64; 2]; K]; R];
    for j in 0..n {
        for (row, row_acc) in rows.iter().zip(&mut acc) {
            let aij = row[j];
            for (xm, [re, im]) in xs.iter().zip(row_acc) {
                *re = aij.mul_add(xm[j].re, *re);
                *im = aij.mul_add(xm[j].im, *im);
            }
        }
    }
    for (p, row_acc) in acc.iter().enumerate() {
        for (m, &[re, im]) in row_acc.iter().enumerate() {
            y[(r + m) * n + i + p] = Complex64::new(re, im);
        }
    }
}

/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn scalar_fma(a: &[f64], n: usize, x: &[Complex64], y: &mut [Complex64], nrhs: usize) {
    scalar_body(a, n, x, y, nrhs)
}

fn panel_scalar(a: &[f64], n: usize, x: &[Complex64], y: &mut [Complex64], nrhs: usize) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        // SAFETY: hw_fma() checked the CPU supports the enabled feature.
        return unsafe { scalar_fma(a, n, x, y, nrhs) };
    }
    scalar_body(a, n, x, y, nrhs)
}

// ---------------------------------------------------------------------------
// x86 vector kernels over packed, zero-padded RHS groups.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pack_group, Complex64, LevelBody};
    use std::arch::x86_64::*;

    /// One vector register of f64 lanes, as the panel kernels use it. The
    /// methods are `#[inline(always)]` so they land in the calling
    /// `#[target_feature]` kernel.
    ///
    /// # Safety
    /// Every method needs a CPU with the register's instruction set;
    /// `load` and `store` need `p` valid for `W` f64s, `splat` for one.
    trait Lanes: Copy {
        /// f64 lanes per register (two per complex RHS).
        const W: usize;
        unsafe fn zero() -> Self;
        unsafe fn load(p: *const f64) -> Self;
        unsafe fn splat(p: *const f64) -> Self;
        /// `a·x + acc`, one correctly rounded FMA per lane.
        unsafe fn fma(a: Self, x: Self, acc: Self) -> Self;
        unsafe fn store(self, p: *mut f64);
    }

    impl Lanes for __m256d {
        const W: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            _mm256_set1_pd(*p)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, x: Self, acc: Self) -> Self {
            _mm256_fmadd_pd(a, x, acc)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self)
        }
    }

    impl Lanes for __m512d {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_pd()
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            _mm512_set1_pd(*p)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, x: Self, acc: Self) -> Self {
            _mm512_fmadd_pd(a, x, acc)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self)
        }
    }

    /// The panel apply on `V` registers. While more RHS remain than one
    /// register holds (`V::W / 2`), a group of up to `V::W` RHS is packed
    /// two registers wide and walks 4 rows a pass; the last ≤ `V::W / 2`
    /// RHS are packed one register wide and walk 8 rows a pass. Either way
    /// each packed `x` load feeds 8 independent accumulators.
    ///
    /// # Safety
    /// The CPU must support `V`'s instructions; `a.len() = n·n`,
    /// `x.len() = y.len() = n·nrhs`.
    #[inline(always)]
    unsafe fn panel<V: Lanes>(
        a: &[f64],
        n: usize,
        x: &[Complex64],
        y: &mut [Complex64],
        nrhs: usize,
        xp: &mut Vec<f64>,
    ) {
        let one = V::W / 2;
        let mut r = 0usize;
        while nrhs - r > one {
            let cnt = (nrhs - r).min(2 * one);
            pack_group(x, n, r, cnt, 2 * V::W, xp);
            rows::<V, 4, 2>(a, n, xp, y, r, cnt);
            r += cnt;
        }
        if r < nrhs {
            pack_group(x, n, r, nrhs - r, V::W, xp);
            rows::<V, 8, 1>(a, n, xp, y, r, nrhs - r);
        }
    }

    /// Every row of the panel for one packed group (`cnt` RHS from `r`):
    /// `R` rows a pass, then the last `n mod R` rows one a pass.
    ///
    /// # Safety
    /// As [`panel`], with `xp` the group packed `C·V::W` lanes wide and
    /// `r + cnt ≤ nrhs`.
    #[inline(always)]
    unsafe fn rows<V: Lanes, const R: usize, const C: usize>(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: &mut [Complex64],
        r: usize,
        cnt: usize,
    ) {
        let mut i = 0usize;
        while i + R <= n {
            pass::<V, R, C>(a, n, xp, y, r, cnt, i);
            i += R;
        }
        while i < n {
            pass::<V, 1, C>(a, n, xp, y, r, cnt, i);
            i += 1;
        }
    }

    /// Rows `i..i + R` × `C` registers: `R·C` accumulators over ascending
    /// `j`, each `x` load shared by the `R` rows. Only the group's `cnt`
    /// live RHS are stored; the padded lanes are dropped.
    ///
    /// # Safety
    /// As [`rows`], with `i + R ≤ n`.
    #[inline(always)]
    unsafe fn pass<V: Lanes, const R: usize, const C: usize>(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: &mut [Complex64],
        r: usize,
        cnt: usize,
        i: usize,
    ) {
        let w = C * V::W;
        let ap = a.as_ptr().add(i * n);
        let xq = xp.as_ptr();
        let mut acc = [[V::zero(); C]; R];
        for j in 0..n {
            let mut xv = [V::zero(); C];
            for (c, v) in xv.iter_mut().enumerate() {
                *v = V::load(xq.add(j * w + c * V::W));
            }
            for (p, row) in acc.iter_mut().enumerate() {
                let av = V::splat(ap.add(p * n + j));
                for (s, &xc) in row.iter_mut().zip(&xv) {
                    *s = V::fma(av, xc, *s);
                }
            }
        }
        let yp = y.as_mut_ptr();
        let mut t = [0.0f64; 16];
        for (p, row) in acc.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                v.store(t.as_mut_ptr().add(c * V::W));
            }
            for m in 0..cnt {
                *yp.add((r + m) * n + i + p) = Complex64::new(t[2 * m], t[2 * m + 1]);
            }
        }
    }

    /// AVX2/FMA panel kernel: groups of 3–4 RHS as 2 ymm × 4 rows, the last
    /// 1–2 RHS as 1 ymm × 8 rows.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA; `a.len() = n·n`,
    /// `x.len() = y.len() = n·nrhs`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn panel_avx2(
        a: &[f64],
        n: usize,
        x: &[Complex64],
        y: &mut [Complex64],
        nrhs: usize,
        xp: &mut Vec<f64>,
    ) {
        panel::<__m256d>(a, n, x, y, nrhs, xp)
    }

    /// AVX-512F panel kernel: groups of 5–8 RHS as 2 zmm × 4 rows, the last
    /// 1–4 RHS as 1 zmm × 8 rows.
    ///
    /// # Safety
    /// The CPU must support AVX-512F+AVX2+FMA; same slice contracts as
    /// [`panel_avx2`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn panel_avx512(
        a: &[f64],
        n: usize,
        x: &[Complex64],
        y: &mut [Complex64],
        nrhs: usize,
        xp: &mut Vec<f64>,
    ) {
        panel::<__m512d>(a, n, x, y, nrhs, xp)
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
/// whole panel in one call, each RHS group packed once.
///
/// Bitwise identical to [`crate::gemm::apply_panel_multi`] (and to the
/// per-column naive kernel) at every level — the tuner may pick any level
/// without perturbing trajectories.
///
/// # Panics
/// If `a.len() ≠ n·n` or `x.len()`, `y.len() ≠ n·nrhs`, in every build:
/// the vector kernels index the slices through raw pointers.
pub fn apply_panel_multi_with(
    level: SimdLevel,
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nrhs: usize,
) {
    assert_eq!(a.len(), n * n, "apply_panel_multi: a.len() must be n*n");
    assert_eq!(
        x.len(),
        n * nrhs,
        "apply_panel_multi: x.len() must be n*nrhs"
    );
    assert_eq!(
        y.len(),
        n * nrhs,
        "apply_panel_multi: y.len() must be n*nrhs"
    );
    if nrhs == 0 || n == 0 {
        return;
    }
    match effective(level) {
        SimdLevel::Scalar => panel_scalar(a, n, x, y, nrhs),
        #[cfg(target_arch = "x86_64")]
        level => PACK_SCRATCH.with(|s| {
            let xp = &mut *s.borrow_mut();
            // SAFETY: level ≤ detected_level() guarantees the ISA; the
            // slice lengths are asserted above.
            unsafe {
                match level {
                    SimdLevel::Avx2 => x86::panel_avx2(a, n, x, y, nrhs, xp),
                    _ => x86::panel_avx512(a, n, x, y, nrhs, xp),
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
/// then the best of a few timed samples of [`apply_panel_multi_with`] on a
/// synthetic panel, and [`select_level_with`] picks among them. The timed
/// samples go round-robin over the candidates, so a slow stretch of the host
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
        // A sample of one call at a tiny panel (8 × 2 runs in ~50 ns) is
        // mostly the clock's own cost, which reads alike at every level; a
        // sample of back-to-back calls sized to ~16 kflop lets the kernels'
        // difference show.
        let calls = (16_384 / work.max(1)).clamp(1, 64);
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
                for _ in 0..calls {
                    apply_panel_multi_with(level, &a, n, &x, &mut y, nrhs);
                }
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

    /// Plant ±∞, −0.0 and exact zeros in the panel and in the last RHS, so
    /// some outputs are ±∞ or NaN and every padded lane that meets an ∞ in
    /// the panel computes `0·∞ = NaN`, which must never reach `y`.
    fn plant(a: &mut [f64], x: &mut [Complex64], n: usize, nrhs: usize) {
        let nn = n * n;
        a[nn / 3] = f64::INFINITY;
        a[(2 * nn) / 3] = f64::NEG_INFINITY;
        a[nn / 2] = -0.0;
        a[nn - 1] = 0.0;
        let last = (nrhs - 1) * n;
        x[last].re = f64::INFINITY;
        x[last + n / 2].im = -0.0;
        x[last + n - 1] = Complex64::new(0.0, f64::NEG_INFINITY);
        x[0].im = -0.0;
    }

    #[test]
    fn every_available_level_is_bitwise_equal_to_naive() {
        // Shapes straddling every lane-width remainder (1..9 RHS covers the
        // 8-RHS group, its padded 5–7 form and the 1–4 one-register group
        // at AVX-512, and the 4/3 and 2/1 groups at AVX2), row counts on
        // either side of the 4- and 8-row blocks (7, 9, 15, 17), odd n, and
        // the benchmark decks' nv (8, 48, 144). Each shape runs once on
        // finite values and once with ±∞, −0.0 and zeros planted.
        for &nrhs in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11] {
            for &n in &[1usize, 2, 5, 7, 8, 9, 15, 16, 17, 33, 48, 144] {
                for planted in [false, true] {
                    let mut a = panel(n);
                    let mut x = rhs(n, nrhs);
                    if planted {
                        plant(&mut a, &mut x, n, nrhs);
                    }
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
                        for (i, (got, exp)) in y.iter().zip(&want).enumerate() {
                            assert_eq!(
                                (got.re.to_bits(), got.im.to_bits()),
                                (exp.re.to_bits(), exp.im.to_bits()),
                                "level {level} n {n} nrhs {nrhs} planted {planted} at {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "apply_panel_multi: y.len() must be n*nrhs")]
    fn a_short_output_panics_at_every_build_and_level() {
        let a = panel(4);
        let x = rhs(4, 3);
        let mut y = vec![Complex64::ZERO; 4 * 3 - 1];
        apply_panel_multi_with(selected_level(), &a, 4, &x, &mut y, 3);
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
