//! The nl (nonlinear) phase: truncated toroidal-mode convolution.
//!
//! The Poisson-bracket nonlinearity couples toroidal modes, so evaluating
//! it needs the **complete toroidal dimension** locally (paper §2) — the nl
//! layout `(nc_loc2, nv_loc, nt)` reached by an AllToAll over the `n2`
//! communicator. The paper mostly ignores this phase ("there is never a
//! direct transition from it to the coll phase"); we implement it for
//! completeness with a simplified E×B-like quadratic coupling:
//!
//! `NL_p = (i·c/2) Σ_{p1+p2=p} (ky_{p1} − ky_{p2}) φ_{p1} h_{p2}`
//!
//! over signed mode numbers `p ∈ ±{1..nt}` with reality `X_{−p} = X_p*`.
//!
//! The sum is evaluated directly, O(nt²) per `(ic, iv)` line, for `LANES`
//! lines side by side (docs/performance.md §8): every line reads the one
//! `φ` row of its `ic`, the structure `cmat` has across right-hand sides.

use crate::input::CgyroInput;
use xg_linalg::simd::{selected_level, with_level, LevelBody, SimdLevel};
use xg_linalg::Complex64;
use xg_tensor::{Decomp1D, Tensor3};

/// Lines evaluated side by side. Each lane holds one line's own
/// accumulator, so a term is `LANES` independent multiply–add chains the
/// compiler keeps in vector registers.
const LANES: usize = 8;

type Plane = [f64; LANES];

/// One toroidal mode of `LANES` lines, split by component. The negated
/// imaginary parts are the conjugates' (negation is exact), so all three
/// families of the bracket run one complex multiply.
#[derive(Clone, Copy, Default)]
struct ModeLanes {
    h_re: Plane,
    h_im: Plane,
    h_im_neg: Plane,
    phi_re: Plane,
    phi_im: Plane,
    phi_im_neg: Plane,
}

/// `acc += (x·y).scale(k)` on every lane, in `Complex64`'s own operation
/// order (multiply, scale, add; never fused), so each lane is bit for bit
/// the one-line-at-a-time loop.
#[inline(always)]
fn mac(acc: &mut (Plane, Plane), x: (&Plane, &Plane), y: (&Plane, &Plane), k: f64) {
    for l in 0..LANES {
        let re = x.0[l] * y.0[l] - x.1[l] * y.1[l];
        let im = x.0[l] * y.1[l] + x.1[l] * y.0[l];
        acc.0[l] += re * k;
        acc.1[l] += im * k;
    }
}

impl ModeLanes {
    /// Put one line's mode (`h`, `φ`) into lane `l`.
    #[inline(always)]
    fn load(&mut self, l: usize, h: &Complex64, phi: &Complex64) {
        self.h_re[l] = h.re;
        self.h_im[l] = h.im;
        self.h_im_neg[l] = -h.im;
        self.phi_re[l] = phi.re;
        self.phi_im[l] = phi.im;
        self.phi_im_neg[l] = -phi.im;
    }
}

/// Lane `l`'s output: `(i·c/2)·acc`.
#[inline(always)]
fn lane_out(half_c: f64, acc: &(Plane, Plane), l: usize) -> Complex64 {
    Complex64::new(0.0, half_c) * Complex64::new(acc.0[l], acc.1[l])
}

/// Nonlinear convolution kernel (toroidal-only truncated bracket).
#[derive(Clone, Debug)]
pub struct NlKernel {
    /// `k_y` at physical mode `p` (1-based; `ky[p-1]`).
    ky: Vec<f64>,
    /// Coupling amplitude.
    coupling: f64,
    nt: usize,
}

impl NlKernel {
    /// Build from the input deck.
    pub fn new(input: &CgyroInput) -> Self {
        Self {
            ky: crate::grid::ky_modes(input),
            coupling: input.nonlinear_coupling,
            nt: input.n_toroidal,
        }
    }

    /// True when the coupling is exactly zero (linear run) — callers may
    /// skip the nl transpose entirely.
    pub fn is_disabled(&self) -> bool {
        self.coupling == 0.0
    }

    /// Evaluate the nonlinear term on nl-layout data, on the lanes of
    /// [`selected_level`].
    ///
    /// * `h_nl`: `(nc_blk, nv_loc, nt)` — full toroidal dimension.
    /// * `phi`: `nc × nt` row-major (`ic·nt + n`), the potential with the
    ///   complete toroidal dimension.
    /// * `nc_offset`: global `ic` of `h_nl`'s first configuration row.
    /// * `out`: same shape as `h_nl`, overwritten.
    pub fn eval(
        &self,
        h_nl: &Tensor3<Complex64>,
        phi: &[Complex64],
        nc_offset: usize,
        out: &mut Tensor3<Complex64>,
    ) {
        self.eval_with(selected_level(), h_nl, phi, nc_offset, out)
    }

    /// [`Self::eval`] compiled for `level`.
    fn eval_with(
        &self,
        level: SimdLevel,
        h_nl: &Tensor3<Complex64>,
        phi: &[Complex64],
        nc_offset: usize,
        out: &mut Tensor3<Complex64>,
    ) {
        let (nc_blk, nvl, nt) = h_nl.shape();
        assert_eq!(out.shape(), h_nl.shape());
        assert_eq!(nt, self.nt);
        if self.is_disabled() {
            out.fill(Complex64::ZERO);
            return;
        }
        let (h, out) = (h_nl.as_slice(), out.as_mut_slice());
        with_level(level, Lines { k: self, h, phi, nc_offset, lines: nc_blk * nvl, nvl, out });
    }

    /// Evaluate the nonlinear term straight out of the toroidal exchange's
    /// blocks, with no nl-layout staging: [`NlKernel::eval`]'s arithmetic,
    /// bit for bit, on the same `nc_blk × nvl` lines and the same lanes.
    ///
    /// * `recv[j]`: the block from toroidal rank `j`, owner of modes
    ///   `nt_decomp.range(j)`: its `h` rows `[ic_loc][iv_loc][it]`, then its
    ///   `φ` rows `[ic_loc][it]`, both over this rank's `nc_blk` rows.
    /// * `send[j]`: overwritten with the outputs of rank `j`'s modes,
    ///   ordered `[ic_loc][iv_loc][it]` — the rows of rank `j`'s str-layout
    ///   term that this rank computes.
    pub(crate) fn eval_blocks(
        &self,
        recv: &[Vec<Complex64>],
        nt_decomp: Decomp1D,
        nc_blk: usize,
        nvl: usize,
        send: &mut [Vec<Complex64>],
    ) {
        self.eval_blocks_with(selected_level(), recv, nt_decomp, nc_blk, nvl, send)
    }

    /// [`Self::eval_blocks`] compiled for `level`.
    fn eval_blocks_with(
        &self,
        level: SimdLevel,
        recv: &[Vec<Complex64>],
        nt_decomp: Decomp1D,
        nc_blk: usize,
        nvl: usize,
        send: &mut [Vec<Complex64>],
    ) {
        let nt = self.nt;
        assert_eq!(nt_decomp.total(), nt);
        assert_eq!(recv.len(), nt_decomp.parts(), "one block per toroidal rank");
        assert_eq!(send.len(), nt_decomp.parts(), "one block per toroidal rank");
        let lines = nc_blk * nvl;
        for (j, (blk, dst)) in recv.iter().zip(send.iter_mut()).enumerate() {
            let ntl = nt_decomp.count(j);
            assert_eq!(blk.len(), (lines + nc_blk) * ntl, "block size mismatch");
            dst.clear();
            dst.resize(lines * ntl, Complex64::ZERO);
        }
        if self.is_disabled() {
            return;
        }
        with_level(level, Blocks { k: self, recv, nt_decomp, lines, nvl, send });
    }

    /// The bracket at target mode `p = n + 1` on `LANES` gathered lines:
    /// the one arithmetic body of both layouts. Zero-based indices
    /// `a = p1 − 1` and `b = |p2| − 1` (or `|p1| − 1`) run ascending, as
    /// the sum is defined.
    #[inline(always)]
    fn target(&self, modes: &[ModeLanes], n: usize) -> (Plane, Plane) {
        let (ky, nt) = (&self.ky, modes.len());
        let mut acc = ([0.0; LANES], [0.0; LANES]);
        // Family 1: p1 + p2 = p, both positive.
        for a in 0..n {
            let (x, y) = (&modes[a], &modes[n - 1 - a]);
            let k = ky[a] - ky[n - 1 - a];
            mac(&mut acc, (&x.phi_re, &x.phi_im), (&y.h_re, &y.h_im), k);
        }
        // Family 2: p1 − |p2| = p: φ_{p1}·conj(h_{|p2|}),
        // K = ky_{p1} + ky_{|p2|}.
        for b in 0..nt - 1 - n {
            let (x, y) = (&modes[n + 1 + b], &modes[b]);
            let k = ky[n + 1 + b] + ky[b];
            mac(&mut acc, (&x.phi_re, &x.phi_im), (&y.h_re, &y.h_im_neg), k);
        }
        // Family 3: −|p1| + p2 = p: conj(φ_{|p1|})·h_{p2},
        // K = −ky_{|p1|} − ky_{p2}.
        for b in 0..nt - 1 - n {
            let (x, y) = (&modes[b], &modes[n + 1 + b]);
            let k = -(ky[b] + ky[n + 1 + b]);
            mac(&mut acc, (&x.phi_re, &x.phi_im_neg), (&y.h_re, &y.h_im), k);
        }
        acc
    }

    /// The direct sum one line at a time: the oracle [`NlKernel::eval`]'s
    /// lanes must reproduce bit for bit.
    #[cfg(test)]
    fn eval_direct(
        &self,
        h_nl: &Tensor3<Complex64>,
        phi: &[Complex64],
        nc_offset: usize,
        out: &mut Tensor3<Complex64>,
    ) {
        let (nc_blk, nvl, nt) = h_nl.shape();
        let half_c = 0.5 * self.coupling;
        for icl in 0..nc_blk {
            let ic = nc_offset + icl;
            let phi = &phi[ic * nt..(ic + 1) * nt];
            for ivl in 0..nvl {
                let hline = h_nl.line(icl, ivl);
                let oline = out.line_mut(icl, ivl);
                for (n, o) in oline.iter_mut().enumerate() {
                    let p = (n + 1) as i64; // physical target mode
                    let mut acc = Complex64::ZERO;
                    // Family 1: p1 + p2 = p, both positive.
                    for p1 in 1..p {
                        let p2 = p - p1;
                        let k = self.ky[(p1 - 1) as usize] - self.ky[(p2 - 1) as usize];
                        acc += (phi[(p1 - 1) as usize] * hline[(p2 - 1) as usize]).scale(k);
                    }
                    // Family 2: p1 − |p2| = p (p1 positive, p2 negative):
                    // φ_{p1}·conj(h_{|p2|}), K = ky_{p1} + ky_{|p2|}.
                    for q in 1..=(self.nt as i64) {
                        let p1 = p + q;
                        if p1 > self.nt as i64 {
                            break;
                        }
                        let k = self.ky[(p1 - 1) as usize] + self.ky[(q - 1) as usize];
                        acc += (phi[(p1 - 1) as usize] * hline[(q - 1) as usize].conj())
                            .scale(k);
                    }
                    // Family 3: −|p1| + p2 = p (p1 negative, p2 positive):
                    // conj(φ_{|p1|})·h_{p2}, K = −ky_{|p1|} − ky_{p2}.
                    for q in 1..=(self.nt as i64) {
                        let p2 = p + q;
                        if p2 > self.nt as i64 {
                            break;
                        }
                        let k = -(self.ky[(q - 1) as usize] + self.ky[(p2 - 1) as usize]);
                        acc += (phi[(q - 1) as usize].conj() * hline[(p2 - 1) as usize])
                            .scale(k);
                    }
                    *o = Complex64::new(0.0, half_c) * acc;
                }
            }
        }
    }
}

/// One [`NlKernel::eval`] call, compiled per level by [`with_level`].
struct Lines<'a> {
    k: &'a NlKernel,
    h: &'a [Complex64],
    phi: &'a [Complex64],
    nc_offset: usize,
    lines: usize,
    nvl: usize,
    out: &'a mut [Complex64],
}

impl LevelBody for Lines<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Lines { k, h, phi, nc_offset, lines, nvl, out } = self;
        let (nt, half_c) = (k.nt, 0.5 * k.coupling);
        let mut modes = vec![ModeLanes::default(); nt];
        for first in (0..lines).step_by(LANES) {
            let live = LANES.min(lines - first);
            // Gather: lanes past the last line repeat it, and their
            // outputs are dropped.
            for l in 0..LANES {
                let line = first + l.min(live - 1);
                let ic = nc_offset + line / nvl;
                let h = &h[line * nt..(line + 1) * nt];
                let phi = &phi[ic * nt..(ic + 1) * nt];
                for (m, (hz, pz)) in modes.iter_mut().zip(h.iter().zip(phi)) {
                    m.load(l, hz, pz);
                }
            }
            for n in 0..nt {
                let acc = k.target(&modes, n);
                for l in 0..live {
                    out[(first + l) * nt + n] = lane_out(half_c, &acc, l);
                }
            }
        }
    }
}

/// One [`NlKernel::eval_blocks`] call, compiled per level by
/// [`with_level`].
struct Blocks<'a> {
    k: &'a NlKernel,
    recv: &'a [Vec<Complex64>],
    nt_decomp: Decomp1D,
    lines: usize,
    nvl: usize,
    send: &'a mut [Vec<Complex64>],
}

impl LevelBody for Blocks<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Blocks { k, recv, nt_decomp, lines, nvl, send } = self;
        let half_c = 0.5 * k.coupling;
        // Per block, once: its modes, and its `h` and `φ` sections.
        let blocks: Vec<_> = recv
            .iter()
            .enumerate()
            .map(|(j, blk)| {
                let r = nt_decomp.range(j);
                let (h, phi) = blk.split_at(lines * r.len());
                (r, h, phi)
            })
            .collect();
        let mut modes = vec![ModeLanes::default(); k.nt];
        for first in (0..lines).step_by(LANES) {
            let live = LANES.min(lines - first);
            for l in 0..LANES {
                let line = first + l.min(live - 1);
                let icl = line / nvl;
                for (r, h, phi) in &blocks {
                    let ntl = r.len();
                    let h = &h[line * ntl..(line + 1) * ntl];
                    let phi = &phi[icl * ntl..(icl + 1) * ntl];
                    for (m, (hz, pz)) in modes[r.clone()].iter_mut().zip(h.iter().zip(phi)) {
                        m.load(l, hz, pz);
                    }
                }
            }
            for ((r, _, _), dst) in blocks.iter().zip(send.iter_mut()) {
                let ntl = r.len();
                for (itl, n) in r.clone().enumerate() {
                    let acc = k.target(&modes, n);
                    for l in 0..live {
                        dst[(first + l) * ntl + itl] = lane_out(half_c, &acc, l);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xg_linalg::simd::available_levels;

    fn kernel(nt: usize, coupling: f64) -> NlKernel {
        let mut input = CgyroInput::test_small();
        input.n_toroidal = nt;
        input.nonlinear_coupling = coupling;
        NlKernel::new(&input)
    }

    fn tensor(nc: usize, nvl: usize, nt: usize, f: impl Fn(usize, usize, usize) -> Complex64) -> Tensor3<Complex64> {
        Tensor3::from_fn(nc, nvl, nt, f)
    }

    #[test]
    fn disabled_kernel_returns_zero() {
        let k = kernel(3, 0.0);
        assert!(k.is_disabled());
        let h = tensor(2, 2, 3, |a, b, c| Complex64::new((a + b + c) as f64, 1.0));
        let phi = vec![Complex64::ONE; 2 * 3];
        let mut out = tensor(2, 2, 3, |_, _, _| Complex64::new(9.0, 9.0));
        k.eval(&h, &phi, 0, &mut out);
        assert!(out.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn quadratic_scaling_in_amplitude() {
        // NL(λφ, λh) = λ²·NL(φ, h).
        let k = kernel(4, 0.3);
        let h = tensor(1, 1, 4, |_, _, n| Complex64::new(0.3 + n as f64 * 0.2, -0.1 * n as f64));
        let phi: Vec<Complex64> =
            (0..4).map(|n| Complex64::new(0.5 - 0.1 * n as f64, 0.2)).collect();
        let mut out1 = tensor(1, 1, 4, |_, _, _| Complex64::ZERO);
        k.eval(&h, &phi, 0, &mut out1);

        let lam = 2.5;
        let h2 = tensor(1, 1, 4, |a, b, n| h[(a, b, n)].scale(lam));
        let phi2: Vec<Complex64> = phi.iter().map(|z| z.scale(lam)).collect();
        let mut out2 = tensor(1, 1, 4, |_, _, _| Complex64::ZERO);
        k.eval(&h2, &phi2, 0, &mut out2);
        for (a, b) in out1.as_slice().iter().zip(out2.as_slice()) {
            assert!((b.scale(1.0 / (lam * lam)) - *a).abs() < 1e-12);
        }
    }

    #[test]
    fn self_interaction_of_single_mode_vanishes_for_same_field() {
        // With only mode p=1 populated and h = φ (same mode content), the
        // antisymmetric coupling K(p1,p2) = ky1 − ky2 kills family 1 at
        // p=2 (p1=p2=1), and families 2/3 cancel by conjugate symmetry at
        // p=... check the p=2 output explicitly.
        let k = kernel(4, 1.0);
        let mut h = tensor(1, 1, 4, |_, _, _| Complex64::ZERO);
        h[(0, 0, 0)] = Complex64::new(0.7, 0.3); // mode p=1
        let mut phi = vec![Complex64::ZERO; 4];
        phi[0] = Complex64::new(0.7, 0.3);
        let mut out = tensor(1, 1, 4, |_, _, _| Complex64::ZERO);
        k.eval(&h, &phi, 0, &mut out);
        // Family 1 at target p=2: only (p1,p2)=(1,1), K=0 → zero.
        assert!(out[(0, 0, 1)].abs() < 1e-14, "p=2 self-beat must vanish");
    }

    #[test]
    fn offset_indexes_phi_correctly() {
        let k = kernel(3, 0.4);
        let nc = 4;
        let h = tensor(2, 1, 3, |a, _, n| Complex64::new((a * 3 + n) as f64 + 0.5, 0.3));
        let phi: Vec<Complex64> =
            (0..nc * 3).map(|i| Complex64::new(i as f64 * 0.1, -(i as f64) * 0.05)).collect();
        // Evaluate with offset 2: rows of h correspond to global ic = 2, 3.
        let mut out_off = tensor(2, 1, 3, |_, _, _| Complex64::ZERO);
        k.eval(&h, &phi, 2, &mut out_off);
        // Same via a full-size tensor with rows placed at ic = 2, 3.
        let h_full = tensor(nc, 1, 3, |a, _, n| {
            if a >= 2 { h[(a - 2, 0, n)] } else { Complex64::ZERO }
        });
        let mut out_full = tensor(nc, 1, 3, |_, _, _| Complex64::ZERO);
        k.eval(&h_full, &phi, 0, &mut out_full);
        for icl in 0..2 {
            for n in 0..3 {
                assert_eq!(out_off[(icl, 0, n)], out_full[(icl + 2, 0, n)]);
            }
        }
    }

    /// Uniform in [−1, 1) from a 64-bit LCG state.
    fn uniform(s: &mut u64) -> f64 {
        *s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lanes_equal_the_one_line_loop_bitwise(
            nt in 1usize..21,
            (nc_blk, nvl) in prop_oneof![Just((1usize, 1usize)), (1usize..4, 1usize..12)],
            nc_offset in 0usize..3,
            coupling in prop_oneof![Just(0.0), -1.0f64..1.0],
            seed in 0u64..u64::MAX,
            n2 in 1usize..5,
        ) {
            // Line counts 1..=33 (mostly not a multiple of the lane count),
            // a nonzero `nc` offset, and the linear run's zero coupling,
            // where `eval` writes zeros without evaluating. The block path
            // gets the same lines split over `n2` toroidal ranks, ragged
            // (or empty) where `n2` does not divide `nt`. Both run at every
            // available SIMD level.
            let k = kernel(nt, coupling);
            let mut s = seed;
            let mut z = || Complex64::new(uniform(&mut s), uniform(&mut s));
            let h = Tensor3::from_fn(nc_blk, nvl, nt, |_, _, _| z());
            let phi: Vec<Complex64> = (0..(nc_offset + nc_blk) * nt).map(|_| z()).collect();
            let mut want = tensor(nc_blk, nvl, nt, |_, _, _| Complex64::ZERO);
            if !k.is_disabled() {
                k.eval_direct(&h, &phi, nc_offset, &mut want);
            }
            let nt_d = Decomp1D::new(nt, n2);
            let lines = nc_blk * nvl;
            let recv: Vec<Vec<Complex64>> = (0..n2)
                .map(|j| {
                    let r = nt_d.range(j);
                    let h_rows = (0..lines).flat_map(|line| &h.as_slice()[line * nt..][r.clone()]);
                    let phi_rows =
                        (nc_offset..nc_offset + nc_blk).flat_map(|ic| &phi[ic * nt..][r.clone()]);
                    h_rows.chain(phi_rows).copied().collect()
                })
                .collect();
            // Every level's lanes, in both layouts.
            for level in available_levels() {
                let mut got = tensor(nc_blk, nvl, nt, |_, _, _| Complex64::new(9.0, 9.0));
                k.eval_with(level, &h, &phi, nc_offset, &mut got);
                for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    prop_assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (w.re.to_bits(), w.im.to_bits()),
                        "level {} nt {} lines {}×{} offset {} element {}",
                        level, nt, nc_blk, nvl, nc_offset, i
                    );
                }

                let mut send: Vec<Vec<Complex64>> =
                    (0..n2).map(|_| vec![Complex64::new(9.0, 9.0); 3]).collect();
                k.eval_blocks_with(level, &recv, nt_d, nc_blk, nvl, &mut send);
                for (j, blk) in send.iter().enumerate() {
                    let r = nt_d.range(j);
                    prop_assert_eq!(blk.len(), lines * r.len());
                    for line in 0..lines {
                        for (itl, n) in r.clone().enumerate() {
                            let (g, w) =
                                (blk[line * r.len() + itl], want.as_slice()[line * nt + n]);
                            prop_assert_eq!(
                                (g.re.to_bits(), g.im.to_bits()),
                                (w.re.to_bits(), w.im.to_bits()),
                                "level {} n2 {} block {} line {} mode {}", level, n2, j, line, n
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn output_bounded_for_bounded_inputs() {
        let k = kernel(6, 0.1);
        let h = tensor(3, 2, 6, |a, b, c| {
            Complex64::new(((a + b + c) as f64).sin(), ((a * b + c) as f64).cos())
        });
        let phi: Vec<Complex64> = (0..18).map(|i| Complex64::cis(i as f64)).collect();
        let mut out = tensor(3, 2, 6, |_, _, _| Complex64::ZERO);
        k.eval(&h, &phi, 0, &mut out);
        for z in out.as_slice() {
            assert!(z.is_finite());
            assert!(z.abs() < 10.0);
        }
    }
}
