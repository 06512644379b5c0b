//! Quasineutrality field solve.
//!
//! `φ(ic, n) = Σ_iv pol(iv, ic, n)·h(ic, iv, n) / D(ic, n)` — a velocity
//! moment of the distribution. In the distributed code the `iv` sum is
//! partial (each rank owns an `nv` slice) and completed with an AllReduce
//! over the `nv`-splitting communicator: one of the two str-phase
//! AllReduce call sites of Figure 1 (the other is the upwind moment in
//! [`crate::streaming`]). [`FieldSolver::partial_moments`] sums one RK
//! stage's charge, current and upwind partials in one pass, straight into
//! the buffer that one fused collective completes. The tree
//! ([`xg_tensor::tree`]) fixes the order of every `iv` sum from `nv` alone,
//! so at a power-of-two `n1` the completed moments do not depend on the
//! grid.

use crate::geometry::Geometry;
use crate::grid::{ky_modes, ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use std::ops::Range;
use xg_linalg::Complex64;
use xg_tensor::tree::{leaf_sum, tree_sum, LEAF_ROWS};
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
    /// The tree sums' right-child rows, kept between calls.
    scratch: Vec<Complex64>,
}

/// Elements of the row one tree sum in [`FieldSolver::partial_moments`]
/// carries: enough `ic` that a leaf's work outweighs its call.
const BLOCK_ROW: usize = 64;

/// Rows `rows` of `t` at `ic`, contiguous in its `(ic, iv, it)` layout.
#[inline(always)]
fn rows_of<'a, T: Copy>(t: &'a Tensor3<T>, ic: usize, rows: &Range<usize>) -> &'a [T] {
    let (_, _, ntl) = t.shape();
    let at = t.offset(ic, rows.start, 0);
    &t.as_slice()[at..at + rows.len() * ntl]
}

/// One tree leaf of a stage's moments over `N` rows of `z`: `out` is one
/// `ic`'s `[charge | current | upwind]`, and each of its elements gets the
/// [`leaf_sum`] of its row terms, written or, when `ADD`, added. `p` and
/// `pa` hold the rows' charge and current weights (`pa` empty in
/// electrostatic runs), `w` the rows' upwind weights.
#[inline(always)]
fn stage_leaf<const N: usize, const ADD: bool>(
    out: &mut [Complex64],
    z: &[Complex64],
    p: &[f64],
    pa: &[f64],
    w: &[f64],
) {
    let n = z.len() / N;
    let (q, rest) = out.split_at_mut(n);
    let (a, u) = rest.split_at_mut(rest.len() - n);
    let z: [&[Complex64]; N] = std::array::from_fn(|r| &z[r * n..][..n]);
    let p: [&[f64]; N] = std::array::from_fn(|r| &p[r * n..][..n]);
    let w: [f64; N] = std::array::from_fn(|r| w[r]);
    let put = |o: &mut Complex64, sum: Complex64| *o = if ADD { *o + sum } else { sum };
    let u = &mut u[..n];
    if a.is_empty() {
        for (k, (q, u)) in q.iter_mut().zip(u).enumerate() {
            put(q, leaf_sum(N, |r| z[r][k] * p[r][k]));
            put(u, leaf_sum(N, |r| z[r][k] * w[r]));
        }
    } else {
        let pa: [&[f64]; N] = std::array::from_fn(|r| &pa[r * n..][..n]);
        for (k, ((q, a), u)) in q.iter_mut().zip(&mut a[..n]).zip(u).enumerate() {
            put(q, leaf_sum(N, |r| z[r][k] * p[r][k]));
            put(a, leaf_sum(N, |r| z[r][k] * pa[r][k]));
            put(u, leaf_sum(N, |r| z[r][k] * w[r]));
        }
    }
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

        Self {
            pol,
            denom,
            pol_apar,
            denom_apar,
            em,
            nc,
            nv_range,
            nt_range,
            scratch: Vec::new(),
        }
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

    /// Moment sections of one RK stage's fused reduction: charge and upwind,
    /// plus the parallel current in electromagnetic runs.
    pub fn moment_sections(&self) -> usize {
        if self.em {
            3
        } else {
            2
        }
    }

    /// Every partial velocity moment of one RK stage `h` (str layout),
    /// straight into the fused reduction buffer `[charge | current
    /// (electromagnetic only) | upwind]`. Each section is `nc × nt_loc`
    /// row-major; `upw_w` is the upwind weight per local iv
    /// ([`crate::streaming::StrKernel::upwind_weights`]). Per `ic`, one tree
    /// sum over the local `iv` rows carries every section; each element
    /// sums separately, so each section equals the moment a pass of its own
    /// would give, bit for bit.
    pub fn partial_moments(
        &mut self,
        h: &Tensor3<Complex64>,
        upw_w: &[f64],
        fused: &mut [Complex64],
    ) {
        let (nc, nvl, ntl) = h.shape();
        assert_eq!(nc, self.nc);
        assert_eq!(nvl, self.nv_range.len());
        assert_eq!(ntl, self.nt_range.len());
        assert_eq!(upw_w.len(), nvl);
        let n = nc * ntl;
        let sections = self.moment_sections();
        assert_eq!(fused.len(), sections * n);
        // One tree sum runs a block of `ic`, its row `[ic][charge | current
        // | upwind][it]` about `BLOCK_ROW` elements long.
        let per_ic = sections * ntl;
        let block = (BLOCK_ROW / per_ic).clamp(1, nc);
        let mut row = vec![Complex64::ZERO; block * per_ic];
        let (pol, pol_apar) = (&self.pol, &self.pol_apar);
        for ic0 in (0..nc).step_by(block) {
            let ics = ic0..(ic0 + block).min(nc);
            let row = &mut row[..ics.len() * per_ic];
            tree_sum(nvl, row, &mut self.scratch, |rows, out, add| {
                let w = &upw_w[rows.clone()];
                for (ic, out) in ics.clone().zip(out.chunks_exact_mut(per_ic)) {
                    let (z, p) = (rows_of(h, ic, &rows), rows_of(pol, ic, &rows));
                    let pa = if sections == 3 { rows_of(pol_apar, ic, &rows) } else { &[] };
                    // One kernel per leaf size, so each sum unrolls.
                    macro_rules! by_size {
                        ($($n:literal)*) => {
                            match (rows.len(), add) {
                                $(($n, false) => stage_leaf::<$n, false>(out, z, p, pa, w),
                                  ($n, true) => stage_leaf::<$n, true>(out, z, p, pa, w),)*
                                _ => unreachable!("a tree leaf holds at most {LEAF_ROWS} rows"),
                            }
                        };
                    }
                    by_size!(1 2 3 4 5 6 7 8);
                }
            });
            for (ic, sums) in ics.zip(row.chunks_exact(per_ic)) {
                for (sec, sum) in sums.chunks_exact(ntl).enumerate() {
                    let at = sec * n + ic * ntl;
                    fused[at..at + ntl].copy_from_slice(sum);
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
    fn tree_split_partials_pair_to_the_full_moment_bitwise() {
        // The nv halves of the tree split, each summed by its subtree and
        // then added as one pair, give the full-range moment bit for bit —
        // the invariant the AllReduce relies on.
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
        // The charge section of the stage moments (upwind weights unused).
        let charge = |range: std::ops::Range<usize>| {
            let mut fs = FieldSolver::new(&input, &v, &cfg, &geo, range.clone(), 0..ntl);
            let h_part = Tensor3::from_fn(cfg.nc(), range.len(), ntl, |ic, ivl, it| {
                h_full[(ic, range.start + ivl, it)]
            });
            let mut fused = vec![Complex64::ZERO; 2 * cfg.nc() * ntl];
            fs.partial_moments(&h_part, &vec![1.0; range.len()], &mut fused);
            fused.truncate(cfg.nc() * ntl);
            fused
        };
        let want = charge(0..nv);
        let split = xg_tensor::RaggedDecomp::tree(nv, 2);
        let (left, right) = (charge(split.range(0)), charge(split.range(1)));
        for ((a, b), w) in left.iter().zip(&right).zip(&want) {
            assert_eq!(*a + *b, *w);
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
        let mut fs = FieldSolver::new(&input, &v, &cfg, &geo, 0..v.nv(), 0..1);
        let h = Tensor3::from_fn(cfg.nc(), v.nv(), 1, |_, _, _| Complex64::ONE);
        let mut m = vec![Complex64::ZERO; 2 * cfg.nc()];
        fs.partial_moments(&h, &vec![0.0; v.nv()], &mut m);
        for z in &m[..cfg.nc()] {
            assert!(z.abs() < 1e-9, "charge moment should vanish: {z}");
        }
    }
}
