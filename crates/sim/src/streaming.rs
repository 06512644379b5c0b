//! The str (streaming) phase right-hand side.
//!
//! Operates in the str layout `(nc, nv_loc, nt_loc)` — the phase that needs
//! the **complete configuration dimension** locally, because the parallel
//! streaming term couples poloidal neighbours along the field line (paper
//! §2). Besides the stencil work this phase owns the two velocity-moment
//! AllReduce call sites of Figure 1: the field solve
//! ([`crate::field::FieldSolver`]) and the upwind moment whose weights live
//! here.

use crate::geometry::Geometry;
use crate::grid::{ky_modes, ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use std::ops::Range;
use xg_linalg::simd::{selected_level, with_level, LevelBody, SimdLevel};
use xg_linalg::Complex64;
use xg_tensor::{Tensor2, Tensor3};

/// Precomputed streaming-phase coefficients for one rank's slice.
#[derive(Clone, Debug)]
pub struct StrKernel {
    /// `v_∥` per local iv.
    vpar: Vec<f64>,
    /// Drift energy weight `(ε(1+ξ²))/2` per local iv.
    eps_d: Vec<f64>,
    /// Upwind moment weight `|v_∥|·w(iv)` per local iv (measure included).
    upw_w: Vec<f64>,
    /// Upwind response weight per local iv.
    upw_u: Vec<f64>,
    /// Gradient-drive coefficient per `(ic, iv_loc, it_loc)` (gyroaveraged
    /// and gradient-weighted; this is where `rln`/`rlt` — the ensemble
    /// sweep parameters — enter, and the only place).
    drive: Tensor3<f64>,
    /// Curvature-drift frequency `ω_d(ic, it_loc)` spatial part.
    omega_d: Tensor2<f64>,
    /// Parallel metric per ic.
    metric: Vec<f64>,
    /// `k_y` per local toroidal mode.
    ky_loc: Vec<f64>,
    n_theta: usize,
    dtheta_inv: f64,
    upwind_diss: f64,
    nv_range: Range<usize>,
    nt_range: Range<usize>,
}

impl StrKernel {
    /// Build coefficients for `nv_range × nt_range`.
    pub fn new(
        input: &CgyroInput,
        v: &VelocityGrid,
        cfg: &ConfigGrid,
        geo: &Geometry,
        nv_range: Range<usize>,
        nt_range: Range<usize>,
    ) -> Self {
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        let ky = ky_modes(input);
        let nc = cfg.nc();
        let nvl = nv_range.len();
        let ntl = nt_range.len();

        let vpar: Vec<f64> = nv_range.clone().map(|iv| v.v_par(iv, &masses)).collect();
        let eps_d: Vec<f64> = nv_range
            .clone()
            .map(|iv| {
                let (_, ie, ix) = v.unflatten(iv);
                0.5 * v.energy[ie] * (1.0 + v.xi[ix] * v.xi[ix])
            })
            .collect();
        let upw_w: Vec<f64> =
            nv_range.clone().map(|iv| v.weight(iv) * v.v_par(iv, &masses).abs()).collect();
        // Response shape: normalized so a unit moment produces an O(1)
        // correction; thermal-speed scaled.
        let upw_u: Vec<f64> = nv_range
            .clone()
            .map(|iv| {
                let (is, _, _) = v.unflatten(iv);
                let s = &input.species[is];
                (s.temp / s.mass).sqrt()
            })
            .collect();

        let mut drive = Tensor3::new(nc, nvl, ntl);
        for ic in 0..nc {
            for (ivl, iv) in nv_range.clone().enumerate() {
                let (is, ie, _) = v.unflatten(iv);
                let s = &input.species[is];
                let grad = s.rln + (v.energy[ie] - 1.5) * s.rlt;
                let rho2 = crate::field::rho2_of(s.mass, s.temp, s.z, v.energy[ie]);
                for (itl, itor) in nt_range.clone().enumerate() {
                    let j0 = crate::field::gyroaverage(geo.kperp2(ic, itor), rho2);
                    drive[(ic, ivl, itl)] = grad * j0 * s.z / s.temp;
                }
            }
        }

        let mut omega_d = Tensor2::new(nc, ntl);
        for ic in 0..nc {
            for (itl, itor) in nt_range.clone().enumerate() {
                // c_drift keeps frequencies moderate relative to streaming.
                omega_d[(ic, itl)] = 0.2 * ky[itor] * geo.drift(ic);
            }
        }

        let metric: Vec<f64> = (0..nc).map(|ic| geo.parallel_metric(ic)).collect();
        let ky_loc: Vec<f64> = nt_range.clone().map(|itor| ky[itor]).collect();
        let dtheta = 2.0 * std::f64::consts::PI / input.n_theta as f64;

        Self {
            vpar,
            eps_d,
            upw_w,
            upw_u,
            drive,
            omega_d,
            metric,
            ky_loc,
            n_theta: input.n_theta,
            dtheta_inv: 1.0 / dtheta,
            upwind_diss: input.upwind_diss,
            nv_range,
            nt_range,
        }
    }

    /// Owned velocity range.
    pub fn nv_range(&self) -> Range<usize> {
        self.nv_range.clone()
    }

    /// Owned toroidal range.
    pub fn nt_range(&self) -> Range<usize> {
        self.nt_range.clone()
    }

    /// Upwind moment weight `|v_∥|·w` per local iv: the moment
    /// `U(ic, n) = Σ_iv |v_∥|·w·h` is accumulated with the field moments
    /// ([`crate::field::FieldSolver::partial_moments`]) and completed by the
    /// same `nv`-communicator AllReduce (Figure 1's second AllReduce family).
    pub fn upwind_weights(&self) -> &[f64] {
        &self.upw_w
    }

    /// Evaluate the streaming-phase RHS into `rhs` (same str layout as
    /// `h`): parallel streaming (4th-order centered + upwind biasing),
    /// curvature drift, gradient drive, and the upwind-moment correction,
    /// on the lanes of [`selected_level`].
    ///
    /// `phi`, `apar` and `upwind` are the completed (post-AllReduce)
    /// fields, `nc × nt_loc` row-major. The drive acts on the generalized
    /// potential `ψ = φ − v∥·A∥`; pass an all-zero `apar` for
    /// electrostatic runs (the electrostatic path is bit-identical).
    pub fn rhs(
        &self,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        apar: &[Complex64],
        upwind: &[Complex64],
        rhs: &mut Tensor3<Complex64>,
    ) {
        self.rhs_with(selected_level(), h, phi, apar, upwind, rhs)
    }

    /// [`Self::rhs`] compiled for `level`. Every element is one point's
    /// expression, evaluated in the indexed loop's order, so every level
    /// writes the same bits.
    fn rhs_with(
        &self,
        level: SimdLevel,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        apar: &[Complex64],
        upwind: &[Complex64],
        rhs: &mut Tensor3<Complex64>,
    ) {
        let (nc, _, ntl) = h.shape();
        assert_eq!(rhs.shape(), h.shape());
        assert_eq!(phi.len(), nc * ntl);
        assert_eq!(apar.len(), nc * ntl);
        assert_eq!(upwind.len(), nc * ntl);
        debug_assert_eq!(nc % self.n_theta, 0);
        with_level(level, Rows { k: self, h, phi, apar, upwind, rhs });
    }

    /// The stencil indexed element by element: the oracle
    /// [`Self::rhs`]'s rows must reproduce bit for bit at every level.
    #[cfg(test)]
    fn rhs_indexed(
        &self,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        apar: &[Complex64],
        upwind: &[Complex64],
        rhs: &mut Tensor3<Complex64>,
    ) {
        let (nc, nvl, ntl) = h.shape();
        let nth = self.n_theta;
        let nr = nc / nth;
        for ir in 0..nr {
            let base = ir * nth;
            for jt in 0..nth {
                let ic = base + jt;
                // Periodic poloidal neighbours along the field line.
                let icm2 = base + (jt + nth - 2) % nth;
                let icm1 = base + (jt + nth - 1) % nth;
                let icp1 = base + (jt + 1) % nth;
                let icp2 = base + (jt + 2) % nth;
                let metric = self.metric[ic];
                for ivl in 0..nvl {
                    let vs = self.vpar[ivl] * metric;
                    let c1 = vs * self.dtheta_inv / 12.0;
                    let cd = self.vpar[ivl].abs() * metric * self.dtheta_inv / 16.0
                        * self.upwind_diss;
                    for itl in 0..ntl {
                        let hm2 = h[(icm2, ivl, itl)];
                        let hm1 = h[(icm1, ivl, itl)];
                        let h0 = h[(ic, ivl, itl)];
                        let hp1 = h[(icp1, ivl, itl)];
                        let hp2 = h[(icp2, ivl, itl)];
                        // 4th-order centered derivative.
                        let dh = (hp1 - hm1) * 8.0 - (hp2 - hm2);
                        // Upwind (hyper-)dissipation.
                        let diss = hp2 - hp1 * 4.0 + h0 * 6.0 - hm1 * 4.0 + hm2;
                        let f = ic * ntl + itl;
                        let wd = self.omega_d[(ic, itl)] * self.eps_d[ivl];
                        let drive = self.drive[(ic, ivl, itl)] * self.ky_loc[itl];
                        let upw =
                            self.upwind_diss * self.ky_loc[itl] * self.upw_u[ivl] * 0.05;
                        let psi = phi[f] - apar[f].scale(self.vpar[ivl]);
                        rhs[(ic, ivl, itl)] = -dh * c1 - diss * cd
                            - Complex64::new(0.0, wd) * h0
                            + Complex64::new(0.0, drive) * psi
                            - upwind[f] * upw;
                    }
                }
            }
        }
    }
}

/// One [`StrKernel::rhs`] call, compiled per level by [`with_level`].
struct Rows<'a> {
    k: &'a StrKernel,
    h: &'a Tensor3<Complex64>,
    phi: &'a [Complex64],
    apar: &'a [Complex64],
    upwind: &'a [Complex64],
    rhs: &'a mut Tensor3<Complex64>,
}

impl LevelBody for Rows<'_> {
    type Output = ();

    /// The stencil over contiguous rows: per `ic`, the five poloidal
    /// neighbours' planes and the field rows are sliced once; per
    /// `(ic, iv)`, the `iv` coefficients are computed once and the
    /// `nt_loc` points of the row run side by side.
    #[inline(always)]
    fn run(self) {
        let Rows { k, h, phi, apar, upwind, rhs } = self;
        let (_, nvl, ntl) = h.shape();
        let plane = nvl * ntl;
        if plane == 0 {
            return;
        }
        let nth = k.n_theta;
        let h = h.as_slice();
        let h_plane = |ic: usize| &h[ic * plane..(ic + 1) * plane];
        let ky = &k.ky_loc[..ntl];
        let drive_all = k.drive.as_slice();
        // Periodic poloidal neighbours along the field line, per `jt`.
        let neighbours: Vec<[usize; 4]> = (0..nth)
            .map(|jt| [(jt + nth - 2) % nth, (jt + nth - 1) % nth, (jt + 1) % nth, (jt + 2) % nth])
            .collect();
        for (ir, line) in rhs.as_mut_slice().chunks_exact_mut(nth * plane).enumerate() {
            let base = ir * nth;
            for (jt, (out, &[jm2, jm1, jp1, jp2])) in
                line.chunks_exact_mut(plane).zip(&neighbours).enumerate()
            {
                let ic = base + jt;
                let (hm2, hm1, h0) = (h_plane(base + jm2), h_plane(base + jm1), h_plane(ic));
                let (hp1, hp2) = (h_plane(base + jp1), h_plane(base + jp2));
                let drive = &drive_all[ic * plane..(ic + 1) * plane];
                let fields = ic * ntl..(ic + 1) * ntl;
                let (phi, apar, upwind) =
                    (&phi[fields.clone()], &apar[fields.clone()], &upwind[fields]);
                let omega_d = &k.omega_d.row(ic)[..ntl];
                let metric = k.metric[ic];
                for ivl in 0..nvl {
                    let vpar = k.vpar[ivl];
                    let vs = vpar * metric;
                    let c1 = vs * k.dtheta_inv / 12.0;
                    let cd = vpar.abs() * metric * k.dtheta_inv / 16.0 * k.upwind_diss;
                    let (eps_d, upw_u) = (k.eps_d[ivl], k.upw_u[ivl]);
                    let row = ivl * ntl..(ivl + 1) * ntl;
                    let (hm2, hm1, h0) = (&hm2[row.clone()], &hm1[row.clone()], &h0[row.clone()]);
                    let (hp1, hp2, drive) =
                        (&hp1[row.clone()], &hp2[row.clone()], &drive[row.clone()]);
                    let out = &mut out[row];
                    for itl in 0..ntl {
                        let (hm2, hm1, h0, hp1, hp2) =
                            (hm2[itl], hm1[itl], h0[itl], hp1[itl], hp2[itl]);
                        // 4th-order centered derivative.
                        let dh = (hp1 - hm1) * 8.0 - (hp2 - hm2);
                        // Upwind (hyper-)dissipation.
                        let diss = hp2 - hp1 * 4.0 + h0 * 6.0 - hm1 * 4.0 + hm2;
                        let wd = omega_d[itl] * eps_d;
                        let drive = drive[itl] * ky[itl];
                        let upw = k.upwind_diss * ky[itl] * upw_u * 0.05;
                        let psi = phi[itl] - apar[itl].scale(vpar);
                        out[itl] = -dh * c1 - diss * cd - Complex64::new(0.0, wd) * h0
                            + Complex64::new(0.0, drive) * psi
                            - upwind[itl] * upw;
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

    fn setup(input: &CgyroInput) -> (VelocityGrid, ConfigGrid, Geometry) {
        let v = VelocityGrid::new(input);
        let cfg = ConfigGrid::new(input);
        let geo = Geometry::new(input, &cfg);
        (v, cfg, geo)
    }

    fn full_kernel(input: &CgyroInput) -> (StrKernel, VelocityGrid, ConfigGrid) {
        let (v, cfg, geo) = setup(input);
        let k = StrKernel::new(input, &v, &cfg, &geo, 0..v.nv(), 0..input.n_toroidal);
        (k, v, cfg)
    }

    #[test]
    fn streaming_derivative_is_exact_for_low_harmonics() {
        // h = exp(i m θ) per field line: the 4th-order stencil differentiates
        // low harmonics nearly exactly; with drift/drive/upwind zeroed the
        // rhs must be −v_∥·metric·(i m)·h.
        let mut input = CgyroInput::test_small();
        input.n_theta = 32;
        input.upwind_diss = 0.0;
        input.nu_ee = 0.0;
        let (k, v, cfg) = full_kernel(&input);
        let m = 2.0;
        let h = Tensor3::from_fn(cfg.nc(), v.nv(), input.n_toroidal, |ic, _, _| {
            let (_, ith) = cfg.unflatten(ic);
            Complex64::cis(m * cfg.theta[ith])
        });
        let phi = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let apar = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let upw = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let mut rhs = Tensor3::new(cfg.nc(), v.nv(), input.n_toroidal);
        k.rhs(&h, &phi, &apar, &upw, &mut rhs);
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        // Check a sample of points (skip drift term by comparing the full
        // rhs against the analytic streaming+drift expectation).
        for iv in [0usize, 3, 7] {
            let vs = v.v_par(iv, &masses) / input.q;
            for ic in [0usize, 5, 17] {
                let expect = -Complex64::new(0.0, m * vs) * h[(ic, iv, 0)]
                    - Complex64::new(0.0, k.omega_d[(ic, 0)] * k.eps_d[iv]) * h[(ic, iv, 0)];
                let got = rhs[(ic, iv, 0)];
                assert!(
                    (got - expect).abs() < 3e-3 * (1.0 + expect.abs()),
                    "ic={ic} iv={iv}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn constant_in_theta_has_no_streaming() {
        let mut input = CgyroInput::test_small();
        input.upwind_diss = 0.0;
        let (k, v, cfg) = full_kernel(&input);
        let h = Tensor3::from_fn(cfg.nc(), v.nv(), input.n_toroidal, |ic, iv, _| {
            let (ir, _) = cfg.unflatten(ic);
            Complex64::new((ir * 3 + iv) as f64, 0.0) // constant along theta
        });
        let phi = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let apar = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let upw = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let mut rhs = Tensor3::new(cfg.nc(), v.nv(), input.n_toroidal);
        k.rhs(&h, &phi, &apar, &upw, &mut rhs);
        // Only the drift term (imaginary rotation) may remain: the real
        // part of rhs/h must vanish.
        for ic in 0..cfg.nc() {
            for iv in 0..v.nv() {
                let r = rhs[(ic, iv, 0)];
                assert!(r.re.abs() < 1e-10, "streaming of constant must vanish, got {r}");
            }
        }
    }

    #[test]
    fn drive_term_injects_phi() {
        let mut input = CgyroInput::test_small();
        input.upwind_diss = 0.0;
        let (k, v, cfg) = full_kernel(&input);
        let h = Tensor3::new(cfg.nc(), v.nv(), input.n_toroidal);
        let phi = vec![Complex64::ONE; cfg.nc() * input.n_toroidal];
        let apar = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let upw = vec![Complex64::ZERO; cfg.nc() * input.n_toroidal];
        let mut rhs = Tensor3::new(cfg.nc(), v.nv(), input.n_toroidal);
        k.rhs(&h, &phi, &apar, &upw, &mut rhs);
        // Nonzero somewhere, purely imaginary (i·drive·phi with real drive).
        let mut nonzero = false;
        for ic in 0..cfg.nc() {
            for iv in 0..v.nv() {
                let r = rhs[(ic, iv, 0)];
                assert!(r.re.abs() < 1e-12);
                if r.im.abs() > 1e-12 {
                    nonzero = true;
                }
            }
        }
        assert!(nonzero, "drive must act on phi");
    }

    #[test]
    fn gradients_enter_only_through_drive() {
        // Same deck, different gradients: kernels must differ only in the
        // drive table (the sweep-parameter isolation behind cmat sharing).
        let a = CgyroInput::test_small();
        let b = a.with_gradients(3.0, 0.2);
        let (ka, _, _) = full_kernel(&a);
        let (kb, _, _) = full_kernel(&b);
        assert_eq!(ka.vpar, kb.vpar);
        assert_eq!(ka.upw_w, kb.upw_w);
        assert_ne!(ka.drive.as_slice(), kb.drive.as_slice());
    }

    #[test]
    fn upwind_section_sums_over_nv_splits() {
        // The upwind section of the stage sweep, split over the tree's two
        // nv halves, pairs to the full-range moment bit for bit (what the
        // AllReduce relies on).
        let input = CgyroInput::test_small();
        let (v, cfg, geo) = setup(&input);
        let ntl = input.n_toroidal;
        let n = cfg.nc() * ntl;
        let h = Tensor3::from_fn(cfg.nc(), v.nv(), ntl, |ic, iv, it| {
            Complex64::new((ic + iv + it) as f64 * 0.37, (iv * 2) as f64 * 0.11)
        });
        let upwind = |r: Range<usize>| {
            let k = StrKernel::new(&input, &v, &cfg, &geo, r.clone(), 0..ntl);
            let mut fs = crate::field::FieldSolver::new(&input, &v, &cfg, &geo, r.clone(), 0..ntl);
            let hp = Tensor3::from_fn(cfg.nc(), r.len(), ntl, |ic, ivl, it| {
                h[(ic, r.start + ivl, it)]
            });
            let mut fused = vec![Complex64::ZERO; 2 * n];
            fs.partial_moments(&hp, k.upwind_weights(), &mut fused);
            fused.split_off(n)
        };
        let full = upwind(0..v.nv());
        let half = xg_tensor::tree::tree_left(v.nv());
        let (left, right) = (upwind(0..half), upwind(half..v.nv()));
        for ((a, b), w) in left.iter().zip(&right).zip(&full) {
            assert_eq!(*a + *b, *w);
        }
    }

    /// Uniform in [−1, 1) from a 64-bit LCG state.
    fn uniform(s: &mut u64) -> f64 {
        *s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Values that must keep their sign or their non-finiteness through
    /// every level's lanes.
    const PLANTED: [f64; 4] = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    /// A point's bits, with every NaN read as the one quiet NaN: Rust
    /// leaves the sign and payload of a NaN result unspecified (the
    /// backend may commute an add's operands, and x86 returns the first
    /// operand's NaN), so a NaN must stay a NaN at every level, and every
    /// other value, `-0.0` and the infinities included, must keep its bits.
    fn bits(z: Complex64) -> (u64, u64) {
        let b = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
        (b(z.re), b(z.im))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn rows_equal_the_indexed_loop_at_every_level_bitwise(
            n_theta in 4usize..13,
            nvl in 1usize..10,
            ntl in 1usize..5,
            (iv0, it0) in (0usize..16, 0usize..3),
            em in prop_oneof![Just(false), Just(true)],
            seed in 0u64..u64::MAX,
            plants in proptest::collection::vec((0usize..4, 0usize..1 << 16, 0usize..4), 0..8),
        ) {
            // A sub-range of test_small's 24 velocity points and of 6
            // toroidal modes, two radial field lines, an electrostatic
            // (all-zero A∥) or electromagnetic run, and −0, ±∞ and NaN
            // planted in h, φ, A∥ and upwind.
            let mut input = CgyroInput::test_small();
            input.n_radial = 2;
            input.n_theta = n_theta;
            input.n_toroidal = 6;
            let (v, cfg, geo) = setup(&input);
            let (nv_range, nt_range) = (iv0..iv0 + nvl, it0..it0 + ntl);
            let k = StrKernel::new(&input, &v, &cfg, &geo, nv_range, nt_range);
            let nc = cfg.nc();
            let mut s = seed;
            let mut z = || Complex64::new(uniform(&mut s), uniform(&mut s));
            let mut h = Tensor3::from_fn(nc, nvl, ntl, |_, _, _| z());
            let mut phi: Vec<Complex64> = (0..nc * ntl).map(|_| z()).collect();
            let mut apar: Vec<Complex64> =
                (0..nc * ntl).map(|_| if em { z() } else { Complex64::ZERO }).collect();
            let mut upwind: Vec<Complex64> = (0..nc * ntl).map(|_| z()).collect();
            for (target, at, value) in plants {
                let v = PLANTED[value];
                let slot = match target {
                    0 => &mut h.as_mut_slice()[at % (nc * nvl * ntl)],
                    1 => &mut phi[at % (nc * ntl)],
                    2 => &mut apar[at % (nc * ntl)],
                    _ => &mut upwind[at % (nc * ntl)],
                };
                if at % 2 == 0 { slot.re = v } else { slot.im = v }
            }
            let mut want = Tensor3::new(nc, nvl, ntl);
            k.rhs_indexed(&h, &phi, &apar, &upwind, &mut want);
            for level in available_levels() {
                let mut got = Tensor3::from_fn(nc, nvl, ntl, |_, _, _| Complex64::new(9.0, 9.0));
                k.rhs_with(level, &h, &phi, &apar, &upwind, &mut got);
                for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    prop_assert_eq!(
                        bits(*g),
                        bits(*w),
                        "level {} n_theta {} nvl {} ntl {} em {} element {}",
                        level, n_theta, nvl, ntl, em, i
                    );
                }
            }
        }
    }
}
