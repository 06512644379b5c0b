//! The collisional constant tensor (`cmat`).
//!
//! CGYRO pre-factors the implicit collision step: with the Crank–Nicolson
//! scheme `h⁺ = (I − Δt/2·C)⁻¹ (I + Δt/2·C) h`, the propagator matrix
//! `A(ic, itor)` is computed **once per simulation** and stored — a 4-D
//! real tensor of size `nv × nv × nc × nt` (paper §2). That trade of memory
//! for compute is what makes the collision step an order of magnitude
//! faster, and what makes `cmat` dominate the memory footprint (~10× all
//! other buffers for `nl03c`).
//!
//! [`CollisionConstants`] holds the slice of `cmat` owned by one rank: the
//! dense propagators for a contiguous `nc` range × `nt` range. In CGYRO
//! mode that range comes from the per-simulation `nc` decomposition over
//! `n1` ranks; in XGYRO mode from the **ensemble-wide** decomposition over
//! `k·n1` ranks — same type, same build code, different ranges: exactly the
//! paper's "minor changes to the CGYRO codebase".

use crate::collision::CollisionOperator;
use crate::geometry::Geometry;
use crate::grid::VelocityGrid;
use crate::input::CgyroInput;
use std::ops::Range;
use xg_linalg::{Complex64, LuFactors, RealMatrix};
use xg_tensor::Tensor4;

/// One rank's slice of the collisional constant tensor.
///
/// Stored as a single contiguous 4-D tensor `(nc_loc, nt_loc, nv, nv)` —
/// the literal "4D tensor of size (nv × nv × nc × nt)" of paper §2 — so
/// the collision step streams one allocation panel by panel.
#[derive(Clone, Debug)]
pub struct CollisionConstants {
    nv: usize,
    nc_range: Range<usize>,
    nt_range: Range<usize>,
    /// Propagator panels: `tensor.panel(ic_loc, it_loc)` is one row-major
    /// `nv × nv` matrix.
    tensor: Tensor4<f64>,
}

impl CollisionConstants {
    /// Build the slice for `nc_range × nt_range`.
    ///
    /// For each local pair, assemble `I ∓ Δt/2·C(k⊥²(ic, itor))`, factorize
    /// the `−` side and solve against the `+` side, straight into the
    /// pair's tensor panel. The two `nv × nv` operands are scratch reused
    /// across pairs, so a panel costs no allocation beyond its pivot list.
    pub fn build(
        input: &CgyroInput,
        v: &VelocityGrid,
        geo: &Geometry,
        op: &CollisionOperator,
        nc_range: Range<usize>,
        nt_range: Range<usize>,
    ) -> Self {
        let nv = v.nv();
        let half_dt = 0.5 * input.delta_t;
        let mut tensor = Tensor4::new(nc_range.len(), nt_range.len(), nv, nv);
        let mut lhs = RealMatrix::zeros(nv, nv);
        let mut rhs = RealMatrix::zeros(nv, nv);
        for (icl, ic) in nc_range.clone().enumerate() {
            for (itl, itor) in nt_range.clone().enumerate() {
                // lhs = I − Δt/2·C ; rhs = I + Δt/2·C.
                let kperp2 = geo.kperp2(ic, itor);
                for iv in 0..nv {
                    let (l, r) = (lhs.row_mut(iv), rhs.row_mut(iv));
                    for ((l, r), &c) in l.iter_mut().zip(r.iter_mut()).zip(op.base().row(iv)) {
                        *l = c * -half_dt;
                        *r = c * half_dt;
                    }
                    let c = op.base()[(iv, iv)] - kperp2 * op.flr()[iv];
                    l[iv] = c * -half_dt + 1.0;
                    r[iv] = c * half_dt + 1.0;
                }
                let lu = LuFactors::factorize(lhs)
                    .expect("I - dt/2 C must be invertible for a dissipative C");
                lu.solve_matrix_into(&rhs, tensor.panel_mut(icl, itl));
                lhs = lu.into_matrix();
            }
        }
        Self { nv, nc_range, nt_range, tensor }
    }

    /// Velocity dimension.
    pub fn nv(&self) -> usize {
        self.nv
    }

    /// Owned configuration range.
    pub fn nc_range(&self) -> Range<usize> {
        self.nc_range.clone()
    }

    /// Owned toroidal range.
    pub fn nt_range(&self) -> Range<usize> {
        self.nt_range.clone()
    }

    /// The raw `nv × nv` propagator panel at local indices.
    pub fn panel(&self, ic_loc: usize, it_loc: usize) -> &[f64] {
        self.tensor.panel(ic_loc, it_loc)
    }

    /// The propagator at local indices as a matrix (copies; use
    /// [`Self::panel`] on hot paths).
    pub fn matrix(&self, ic_loc: usize, it_loc: usize) -> RealMatrix {
        RealMatrix::from_vec(self.nv, self.nv, self.panel(ic_loc, it_loc).to_vec())
    }

    /// Apply the propagator in place to the velocity profile at one local
    /// `(ic, itor)` pair: `x ← A·x`.
    pub fn apply(&self, ic_loc: usize, it_loc: usize, x: &mut [Complex64], scratch: &mut [Complex64]) {
        xg_linalg::matvec_complex_flat(self.panel(ic_loc, it_loc), self.nv, self.nv, x, scratch);
        x.copy_from_slice(scratch);
    }

    /// Batched multi-RHS propagator apply at one `(ic, itor)` pair:
    /// `Y = A·X` with `nrhs` stacked velocity profiles (`x[r·nv..(r+1)·nv]`
    /// is profile `r`), run with the autotuned `kernel`
    /// ([`xg_costmodel::tuner::tune_collision_kernel`]) — this is the call
    /// the tuner times. The shared panel is streamed once per call instead
    /// of once per profile; results are bitwise identical to `nrhs`
    /// [`Self::apply`] calls for every kernel choice.
    pub fn apply_multi(
        &self,
        ic_loc: usize,
        it_loc: usize,
        x: &[Complex64],
        y: &mut [Complex64],
        nrhs: usize,
        kernel: xg_costmodel::KernelChoice,
    ) {
        xg_linalg::apply_panel_multi_with(
            kernel.level,
            self.panel(ic_loc, it_loc),
            self.nv,
            x,
            y,
            nrhs,
            kernel.tile_rows,
        );
    }

    /// Bytes of constant-tensor storage held by this slice.
    pub fn bytes(&self) -> u64 {
        (self.tensor.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Stable fingerprint of the numerical content (for verifying that
    /// independently built slices agree, and that sharing reproduces the
    /// per-simulation build bit for bit).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        mix(self.nc_range.start as u64);
        mix(self.nc_range.end as u64);
        mix(self.nt_range.start as u64);
        mix(self.nt_range.end as u64);
        for x in self.tensor.as_slice() {
            mix(x.to_bits());
        }
        h
    }
}

/// Analytic size of the full constant tensor for an input deck (bytes):
/// `nv² · nc · nt · 8` — the law that drives the paper's memory argument.
/// Delegates to [`xg_costmodel::memory::cmat_total_bytes`] so the planner,
/// the serving metrics, and the simulation all quote one law.
pub fn cmat_total_bytes(input: &CgyroInput) -> u64 {
    xg_costmodel::memory::cmat_total_bytes(input.dims())
}

/// The grids and operator a propagator build needs (test scaffolding).
#[cfg(test)]
pub(crate) fn setup(input: &CgyroInput) -> (VelocityGrid, Geometry, CollisionOperator) {
    let v = VelocityGrid::new(input);
    let geo = Geometry::new(input, &crate::grid::ConfigGrid::new(input));
    let op = CollisionOperator::build(input, &v);
    (v, geo, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_linalg::norms::max_abs_complex;

    #[test]
    fn propagator_equals_direct_crank_nicolson_solve() {
        let input = CgyroInput::test_small();
        let (v, geo, op) = setup(&input);
        let cm =
            CollisionConstants::build(&input, &v, &geo, &op, 3..5, 0..input.n_toroidal);
        // Pick local pair (ic=4, itor=1): A·x must equal the direct solve
        // (I − dt/2 C) y = (I + dt/2 C) x.
        let nv = v.nv();
        let x: Vec<f64> = (0..nv).map(|i| ((i * 7 % 13) as f64 - 6.0) / 3.0).collect();
        let c = op.matrix_at(geo.kperp2(4, 1));
        let mut lhs = c.clone();
        lhs.scale_inplace(-0.5 * input.delta_t);
        lhs.add_scaled_identity(1.0);
        let mut rhs_m = c;
        rhs_m.scale_inplace(0.5 * input.delta_t);
        rhs_m.add_scaled_identity(1.0);
        let mut rhs = vec![0.0; nv];
        xg_linalg::matvec(&rhs_m, &x, &mut rhs);
        let y_direct = LuFactors::factorize(lhs).unwrap().solve(&rhs);

        let mut y = vec![0.0; nv];
        xg_linalg::matvec(&cm.matrix(1, 1), &x, &mut y);
        for (a, b) in y.iter().zip(&y_direct) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn propagator_is_identity_without_collisions() {
        let mut input = CgyroInput::test_small();
        input.nu_ee = 0.0;
        let (v, geo, op) = setup(&input);
        let cm = CollisionConstants::build(&input, &v, &geo, &op, 0..2, 0..1);
        let id = RealMatrix::identity(v.nv());
        let diff = &cm.matrix(0, 0) - &id;
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn propagator_is_stable_contraction() {
        // Crank–Nicolson of an operator that is symmetric-nsd in the
        // Maxwellian-weighted inner product is a contraction in the
        // corresponding weighted L2 norm: ‖A x‖_w ≤ ‖x‖_w, with the
        // invariant subspace (density/momentum/energy) exactly preserved.
        let input = CgyroInput::test_medium();
        let (v, geo, op) = setup(&input);
        let cm = CollisionConstants::build(&input, &v, &geo, &op, 7..8, 1..2);
        let nv = v.nv();
        let wnorm = |x: &[Complex64]| -> f64 {
            (0..nv).map(|iv| v.weight(iv) * x[iv].norm_sqr()).sum::<f64>().sqrt()
        };
        let mut x: Vec<Complex64> = (0..nv)
            .map(|i| Complex64::new((i * 13 % 7) as f64 - 3.0, (i * 5 % 11) as f64 - 5.0))
            .collect();
        let mut scratch = vec![Complex64::ZERO; nv];
        let mut prev = wnorm(&x);
        for it in 0..200 {
            cm.apply(0, 0, &mut x, &mut scratch);
            let now = wnorm(&x);
            assert!(
                now <= prev * (1.0 + 1e-12),
                "weighted norm grew at iteration {it}: {prev} -> {now}"
            );
            prev = now;
        }
        // The max-abs norm is also bounded over the run (no blow-up).
        assert!(max_abs_complex(&x).is_finite());
    }

    #[test]
    fn collision_step_preserves_species_density_at_kperp_zero() {
        // Build a deck whose first configuration point has k⊥ ≈ 0 (kx=0
        // exists; ky_min > 0 though, so use a tiny ky_min to approximate).
        let mut input = CgyroInput::test_small();
        input.ky_min = 1e-8;
        input.shear = 0.0;
        let (v, geo, op) = setup(&input);
        let cm = CollisionConstants::build(&input, &v, &geo, &op, 0..1, 0..1);
        let nv = v.nv();
        let mut x: Vec<Complex64> =
            (0..nv).map(|i| Complex64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos())).collect();
        let dens_before: Complex64 = (0..nv)
            .map(|iv| x[iv] * v.weight(iv))
            .take(v.per_species())
            .sum();
        let mut scratch = vec![Complex64::ZERO; nv];
        cm.apply(0, 0, &mut x, &mut scratch);
        let dens_after: Complex64 = (0..nv)
            .map(|iv| x[iv] * v.weight(iv))
            .take(v.per_species())
            .sum();
        assert!(
            (dens_before - dens_after).abs() < 1e-8 * (1.0 + dens_before.abs()),
            "{dens_before} vs {dens_after}"
        );
    }

    #[test]
    fn propagator_spectral_radius_at_most_one() {
        // A-stability check via power iteration: the Crank–Nicolson
        // propagator of the (dissipative) collision operator must have
        // spectral radius <= 1 at every sampled (ic, itor).
        let input = CgyroInput::test_medium();
        let (v, geo, op) = setup(&input);
        let cm = CollisionConstants::build(&input, &v, &geo, &op, 10..12, 0..2);
        let nv = v.nv();
        let sw: Vec<f64> = (0..nv).map(|iv| v.weight(iv).sqrt()).collect();
        for ic in 0..2 {
            for it in 0..2 {
                // Measure in the sqrt-weight-symmetrized basis, where the
                // propagator is symmetric and power iteration is exact.
                let a = cm.matrix(ic, it);
                let a_sym =
                    RealMatrix::from_fn(nv, nv, |i, j| a[(i, j)] * sw[i] / sw[j]);
                let (rho, _) = xg_linalg::spectral_radius(&a_sym, 1e-10, 3000);
                assert!(rho <= 1.0 + 1e-8, "rho = {rho} at ({ic},{it})");
            }
        }
    }

    #[test]
    fn apply_variants_are_bitwise_equivalent() {
        let input = CgyroInput::test_small();
        let (v, geo, op) = setup(&input);
        let cm = CollisionConstants::build(&input, &v, &geo, &op, 0..3, 0..2);
        let nv = v.nv();
        let nrhs = 5;
        let block: Vec<Complex64> = (0..nrhs * nv)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.53).cos()))
            .collect();
        for ic in 0..3 {
            for it in 0..2 {
                // Reference: in-place apply per profile.
                let mut want = block.clone();
                let mut scratch = vec![Complex64::ZERO; nv];
                for r in 0..nrhs {
                    cm.apply(ic, it, &mut want[r * nv..(r + 1) * nv], &mut scratch);
                }
                for kernel in crate::collision_tests::kernels_under_test(nv) {
                    let mut y = vec![Complex64::ZERO; nrhs * nv];
                    cm.apply_multi(ic, it, &block, &mut y, nrhs, kernel);
                    assert_eq!(y, want, "kernel {kernel}");
                }
            }
        }
    }

    #[test]
    fn slices_tile_the_full_tensor() {
        // Two disjoint nc slices must produce the same matrices as one big
        // slice restricted to them — the property XGYRO's redistribution
        // relies on.
        let input = CgyroInput::test_small();
        let (v, geo, op) = setup(&input);
        let full =
            CollisionConstants::build(&input, &v, &geo, &op, 0..6, 0..input.n_toroidal);
        let lo = CollisionConstants::build(&input, &v, &geo, &op, 0..3, 0..input.n_toroidal);
        let hi = CollisionConstants::build(&input, &v, &geo, &op, 3..6, 0..input.n_toroidal);
        for ic in 0..3 {
            for it in 0..input.n_toroidal {
                assert_eq!(full.matrix(ic, it), lo.matrix(ic, it));
                assert_eq!(full.matrix(ic + 3, it), hi.matrix(ic, it));
            }
        }
        assert_eq!(full.bytes(), lo.bytes() + hi.bytes());
    }

    #[test]
    fn gradient_sweeps_produce_identical_cmat() {
        // The paper's sharing condition, verified numerically: two inputs
        // differing only in gradient drives build bitwise-identical slices.
        let a = CgyroInput::test_small();
        let b = a.with_gradients(0.3, 5.0);
        let (va, geoa, opa) = setup(&a);
        let (vb, geob, opb) = setup(&b);
        let ca = CollisionConstants::build(&a, &va, &geoa, &opa, 0..4, 0..2);
        let cb = CollisionConstants::build(&b, &vb, &geob, &opb, 0..4, 0..2);
        assert_eq!(ca.fingerprint(), cb.fingerprint());
        // And a nu_ee change must not.
        let mut c = a.clone();
        c.nu_ee *= 1.5;
        let (vc, geoc, opc) = setup(&c);
        let cc = CollisionConstants::build(&c, &vc, &geoc, &opc, 0..4, 0..2);
        assert_ne!(ca.fingerprint(), cc.fingerprint());
    }

    #[test]
    fn total_bytes_law() {
        let input = CgyroInput::test_small();
        let d = input.dims();
        assert_eq!(
            cmat_total_bytes(&input),
            (d.nv * d.nv * d.nc * d.nt * 8) as u64
        );
        // Per-slice bytes sum to the total when tiling nc × nt fully.
        let (v, geo, op) = setup(&input);
        let full = CollisionConstants::build(&input, &v, &geo, &op, 0..d.nc, 0..d.nt);
        assert_eq!(full.bytes(), cmat_total_bytes(&input));
    }
}
