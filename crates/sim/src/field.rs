//! Quasineutrality field solve.
//!
//! `φ(ic, n) = Σ_iv pol(iv, ic, n)·h(ic, iv, n) / D(ic, n)` — a velocity
//! moment of the distribution. In the distributed code the `iv` sum is
//! partial (each rank owns an `nv` slice) and completed with an AllReduce
//! over the `nv`-splitting communicator: one of the two str-phase
//! AllReduce call sites of Figure 1 (the other is the upwind moment in
//! [`crate::streaming`]). [`FieldSolver::partial_moments`] accumulates one
//! RK stage's charge, current and upwind partials in a single sweep, straight
//! into the buffer that one fused collective completes.

use crate::geometry::Geometry;
use crate::grid::{ky_modes, ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use std::ops::Range;
use xg_linalg::Complex64;
use xg_tensor::{Tensor2, Tensor3};

/// Precomputed field-solve coefficients for one rank's local slice.
#[derive(Clone, Debug)]
pub struct FieldSolver {
    /// Polarization weights `pol(ic, iv_loc, it_loc)` (gyroaveraged charge
    /// moment weights).
    pol: Tensor3<f64>,
    /// Field denominator `D(ic, it_loc)` (> 0).
    denom: Tensor2<f64>,
    /// Parallel-current weights for the A∥ solve (gyroaveraged `z·v∥`
    /// moment weights); empty in electrostatic runs.
    pol_apar: Tensor3<f64>,
    /// Ampère denominator `(2/β_e)·k⊥² + skin term` (> 0); empty in
    /// electrostatic runs.
    denom_apar: Tensor2<f64>,
    /// True when `beta_e > 0` (A∥ evolved).
    em: bool,
    nc: usize,
    nv_range: Range<usize>,
    nt_range: Range<usize>,
}

/// The gyroaverage factor `J₀ ≈ 1 / (1 + k⊥²ρ_s²(ε)/4)` (Padé).
pub fn gyroaverage(kperp2: f64, rho2: f64) -> f64 {
    1.0 / (1.0 + 0.25 * kperp2 * rho2)
}

/// Thermal gyroradius squared for species `s` at energy `ε`:
/// `ρ²(ε) = m T ε / z²` (normalized units).
pub fn rho2_of(mass: f64, temp: f64, z: f64, energy: f64) -> f64 {
    mass * temp * energy / (z * z)
}

impl FieldSolver {
    /// Build coefficients for the slice `nv_range × nt_range`.
    pub fn new(
        input: &CgyroInput,
        v: &VelocityGrid,
        cfg: &ConfigGrid,
        geo: &Geometry,
        nv_range: Range<usize>,
        nt_range: Range<usize>,
    ) -> Self {
        let nc = cfg.nc();
        let nvl = nv_range.len();
        let ntl = nt_range.len();
        let mut pol = Tensor3::new(nc, nvl, ntl);
        for ic in 0..nc {
            for (ivl, iv) in nv_range.clone().enumerate() {
                let (is, ie, _) = v.unflatten(iv);
                let s = &input.species[is];
                let w = v.weight(iv) * s.z * s.dens;
                let rho2 = rho2_of(s.mass, s.temp, s.z, v.energy[ie]);
                for (itl, itor) in nt_range.clone().enumerate() {
                    let j0 = gyroaverage(geo.kperp2(ic, itor), rho2);
                    pol[(ic, ivl, itl)] = w * j0;
                }
            }
        }
        // Denominator: Σ_s z²n/T ·(1 − Γ₀-ish) + k⊥² λ_D² ; strictly
        // positive. Γ₀ approximated through the same Padé factor at thermal
        // energy.
        let mut denom = Tensor2::new(nc, ntl);
        let _ = ky_modes(input);
        for ic in 0..nc {
            for (itl, itor) in nt_range.clone().enumerate() {
                let k2 = geo.kperp2(ic, itor);
                let mut d = 1e-6 + 0.05 * k2; // Debye-like floor
                for s in &input.species {
                    let rho2 = rho2_of(s.mass, s.temp, s.z, 1.0);
                    let gamma0 = gyroaverage(k2, rho2);
                    d += s.z * s.z * s.dens / s.temp * (1.0 - gamma0 * gamma0 * 0.5);
                }
                denom[(ic, itl)] = d;
            }
        }

        // Electromagnetic (parallel Ampère) machinery — only when β_e > 0.
        let em = input.beta_e > 0.0;
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        let (pol_apar, denom_apar) = if em {
            let mut pa = Tensor3::new(nc, nvl, ntl);
            for ic in 0..nc {
                for (ivl, iv) in nv_range.clone().enumerate() {
                    let (is, ie, _) = v.unflatten(iv);
                    let s = &input.species[is];
                    let w = v.weight(iv) * s.z * s.dens * v.v_par(iv, &masses);
                    let rho2 = rho2_of(s.mass, s.temp, s.z, v.energy[ie]);
                    for (itl, itor) in nt_range.clone().enumerate() {
                        let j0 = gyroaverage(geo.kperp2(ic, itor), rho2);
                        pa[(ic, ivl, itl)] = w * j0;
                    }
                }
            }
            // Ampère denominator: (2/β_e)·k⊥² plus the skin-current term
            // Σ_s z²n/m·⟨v∥²⟩-like contribution; strictly positive for
            // k⊥ > 0 and bounded below by the skin term at k⊥ → 0.
            let mut da = Tensor2::new(nc, ntl);
            for ic in 0..nc {
                for (itl, itor) in nt_range.clone().enumerate() {
                    let k2 = geo.kperp2(ic, itor);
                    let mut d = 2.0 * k2 / input.beta_e + 1e-6;
                    for s in &input.species {
                        d += s.z * s.z * s.dens / s.mass;
                    }
                    da[(ic, itl)] = d;
                }
            }
            (pa, da)
        } else {
            (Tensor3::new(0, 0, 0), Tensor2::new(0, 0))
        };

        Self { pol, denom, pol_apar, denom_apar, em, nc, nv_range, nt_range }
    }

    /// True when the A∥ field is evolved (`beta_e > 0`).
    pub fn em_enabled(&self) -> bool {
        self.em
    }

    /// Owned velocity range.
    pub fn nv_range(&self) -> Range<usize> {
        self.nv_range.clone()
    }

    /// Owned toroidal range.
    pub fn nt_range(&self) -> Range<usize> {
        self.nt_range.clone()
    }

    /// Accumulate this rank's partial charge moment of `h` (str layout,
    /// shape `(nc, nv_loc, nt_loc)`) into `partial` (shape `nc × nt_loc`,
    /// row-major `ic·nt_loc + it_loc`).
    pub fn partial_moment(&self, h: &Tensor3<Complex64>, partial: &mut [Complex64]) {
        let (nc, nvl, ntl) = h.shape();
        assert_eq!(nc, self.nc);
        assert_eq!(nvl, self.nv_range.len());
        assert_eq!(ntl, self.nt_range.len());
        assert_eq!(partial.len(), nc * ntl);
        partial.iter_mut().for_each(|z| *z = Complex64::ZERO);
        for ic in 0..nc {
            for ivl in 0..nvl {
                let line = h.line(ic, ivl);
                for itl in 0..ntl {
                    let w = self.pol[(ic, ivl, itl)];
                    partial[ic * ntl + itl] += line[itl] * w;
                }
            }
        }
    }

    /// Moment sections of one RK stage's fused reduction: charge and upwind,
    /// plus the parallel current in electromagnetic runs.
    pub fn moment_sections(&self) -> usize {
        if self.em {
            3
        } else {
            2
        }
    }

    /// Accumulate every partial velocity moment of one RK stage `h` (str
    /// layout) in one sweep, straight into the fused reduction buffer
    /// `[charge | current (electromagnetic only) | upwind]`. Each section is
    /// `nc × nt_loc` row-major; `upw_w` is the upwind weight per local iv
    /// ([`crate::streaming::StrKernel::upwind_weights`]). Every section sums
    /// over the local iv in ascending order, so each equals the moment a
    /// pass of its own would give, bit for bit.
    pub fn partial_moments(&self, h: &Tensor3<Complex64>, upw_w: &[f64], fused: &mut [Complex64]) {
        let (nc, nvl, ntl) = h.shape();
        assert_eq!(nc, self.nc);
        assert_eq!(nvl, self.nv_range.len());
        assert_eq!(ntl, self.nt_range.len());
        assert_eq!(upw_w.len(), nvl);
        let n = nc * ntl;
        assert_eq!(fused.len(), self.moment_sections() * n);
        fused.fill(Complex64::ZERO);
        let (charge, rest) = fused.split_at_mut(n);
        let (current, upwind) = rest.split_at_mut(rest.len() - n);
        for ic in 0..nc {
            let f = ic * ntl..(ic + 1) * ntl;
            let (q, u) = (&mut charge[f.clone()], &mut upwind[f.clone()]);
            for (ivl, &w) in upw_w.iter().enumerate() {
                let line = h.line(ic, ivl);
                let pol = self.pol.line(ic, ivl);
                if self.em {
                    let a = &mut current[f.clone()];
                    let pa = self.pol_apar.line(ic, ivl);
                    for itl in 0..ntl {
                        q[itl] += line[itl] * pol[itl];
                        a[itl] += line[itl] * pa[itl];
                        u[itl] += line[itl] * w;
                    }
                } else {
                    for itl in 0..ntl {
                        q[itl] += line[itl] * pol[itl];
                        u[itl] += line[itl] * w;
                    }
                }
            }
        }
    }

    /// Divide the completed moment by the field denominator, yielding `φ`.
    pub fn finalize(&self, moment: &mut [Complex64]) {
        let ntl = self.nt_range.len();
        assert_eq!(moment.len(), self.nc * ntl);
        for ic in 0..self.nc {
            for itl in 0..ntl {
                let d = self.denom[(ic, itl)];
                moment[ic * ntl + itl] = moment[ic * ntl + itl] / d;
            }
        }
    }

    /// Divide the completed current moment by the Ampère denominator,
    /// yielding `A∥`.
    pub fn finalize_apar(&self, moment: &mut [Complex64]) {
        assert!(self.em, "finalize_apar requires beta_e > 0");
        let ntl = self.nt_range.len();
        assert_eq!(moment.len(), self.nc * ntl);
        for ic in 0..self.nc {
            for itl in 0..ntl {
                let d = self.denom_apar[(ic, itl)];
                moment[ic * ntl + itl] = moment[ic * ntl + itl] / d;
            }
        }
    }

    /// Field denominator accessor (diagnostics).
    pub fn denom(&self, ic: usize, itl: usize) -> f64 {
        self.denom[(ic, itl)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(input: &CgyroInput) -> (VelocityGrid, ConfigGrid, Geometry) {
        let v = VelocityGrid::new(input);
        let cfg = ConfigGrid::new(input);
        let geo = Geometry::new(input, &cfg);
        (v, cfg, geo)
    }

    #[test]
    fn gyroaverage_limits() {
        assert_eq!(gyroaverage(0.0, 1.0), 1.0);
        assert!(gyroaverage(100.0, 1.0) < 0.05);
        assert!(gyroaverage(1.0, 0.0) == 1.0);
    }

    #[test]
    fn denominator_strictly_positive() {
        let input = CgyroInput::test_medium();
        let (v, cfg, geo) = setup(&input);
        let fs = FieldSolver::new(&input, &v, &cfg, &geo, 0..v.nv(), 0..input.n_toroidal);
        for ic in 0..cfg.nc() {
            for itl in 0..input.n_toroidal {
                assert!(fs.denom(ic, itl) > 0.0);
            }
        }
    }

    #[test]
    fn partial_moments_sum_to_full_moment() {
        // Splitting nv into ranges and summing partials must equal the
        // full-range moment — the invariant the AllReduce relies on.
        let input = CgyroInput::test_small();
        let (v, cfg, geo) = setup(&input);
        let nv = v.nv();
        let ntl = input.n_toroidal;
        let h_full = Tensor3::from_fn(cfg.nc(), nv, ntl, |ic, iv, it| {
            Complex64::new(
                ((ic * 3 + iv * 7 + it) as f64 * 0.1).sin(),
                ((ic + iv * 2 + it * 5) as f64 * 0.2).cos(),
            )
        });
        let fs_full = FieldSolver::new(&input, &v, &cfg, &geo, 0..nv, 0..ntl);
        let mut want = vec![Complex64::ZERO; cfg.nc() * ntl];
        fs_full.partial_moment(&h_full, &mut want);

        let mut acc = vec![Complex64::ZERO; cfg.nc() * ntl];
        let split = nv / 2;
        for range in [0..split, split..nv] {
            let fs = FieldSolver::new(&input, &v, &cfg, &geo, range.clone(), 0..ntl);
            let h_part = Tensor3::from_fn(cfg.nc(), range.len(), ntl, |ic, ivl, it| {
                h_full[(ic, range.start + ivl, it)]
            });
            let mut p = vec![Complex64::ZERO; cfg.nc() * ntl];
            fs.partial_moment(&h_part, &mut p);
            for (a, b) in acc.iter_mut().zip(&p) {
                *a += *b;
            }
        }
        for (a, b) in acc.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn finalize_divides_by_denominator() {
        let input = CgyroInput::test_small();
        let (v, cfg, geo) = setup(&input);
        let fs = FieldSolver::new(&input, &v, &cfg, &geo, 0..v.nv(), 0..1);
        let mut m = vec![Complex64::new(2.0, -4.0); cfg.nc()];
        let before = m[5];
        fs.finalize(&mut m);
        let d = fs.denom(5, 0);
        assert!((m[5] - before / d).abs() < 1e-15);
    }

    #[test]
    fn charge_neutral_maxwellian_gives_zero_field() {
        // With h constant in velocity (same for every species), the charge
        // moment is Σ_s z_s n_s · (gyro-reduced) — for a globally neutral
        // plasma at k⊥ → 0 it vanishes.
        let mut input = CgyroInput::test_small();
        input.ky_min = 1e-9;
        input.kx_min = 0.0;
        input.shear = 0.0;
        // Two species with opposite charge, equal density.
        input.species[0].z = 1.0;
        input.species[0].dens = 1.0;
        input.species[1].z = -1.0;
        input.species[1].dens = 1.0;
        let (v, cfg, geo) = setup(&input);
        let fs = FieldSolver::new(&input, &v, &cfg, &geo, 0..v.nv(), 0..1);
        let h = Tensor3::from_fn(cfg.nc(), v.nv(), 1, |_, _, _| Complex64::ONE);
        let mut m = vec![Complex64::ZERO; cfg.nc()];
        fs.partial_moment(&h, &mut m);
        for z in &m {
            assert!(z.abs() < 1e-9, "charge moment should vanish: {z}");
        }
    }
}
