//! Serial (single-process) reference topology.
//!
//! Holds the complete `cmat` and full-dimension buffers; all "collectives"
//! are no-ops. This is the ground truth the distributed and ensemble runs
//! are validated against.

use crate::cmat::CollisionConstants;
use crate::collision::CollisionOperator;
use crate::geometry::Geometry;
use crate::grid::{ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use crate::nonlinear::NlKernel;
use crate::stepper::{Simulation, Topology};
use xg_linalg::{Complex64, SimdLevel};
use xg_tensor::{
    pack_coll_profiles_block, unpack_into_coll_profiles, unpack_into_str, PhaseLayout, ProcGrid,
    Tensor3,
};

/// Serial topology: one rank owns everything.
pub struct SerialTopology {
    layout: PhaseLayout,
    cmat: CollisionConstants,
    nl: NlKernel,
    // Collision pipeline: profile-contiguous staging buffers (`(nc, nt,
    // nv)` so each velocity profile is one contiguous slice).
    cp_in: Tensor3<Complex64>,
    cp_out: Tensor3<Complex64>,
    rev_buf: Vec<Complex64>,
    /// Collision kernel SIMD level, tuned at build time; bitwise-neutral,
    /// wall-time only.
    pub(crate) kernel: SimdLevel,
}

impl SerialTopology {
    /// Build the serial topology (including the full constant tensor).
    pub fn new(input: &CgyroInput) -> Self {
        let dims = input.dims();
        let layout = PhaseLayout::new(dims, ProcGrid::new(1, 1), 0);
        let v = VelocityGrid::new(input);
        let cfg = ConfigGrid::new(input);
        let geo = Geometry::new(input, &cfg);
        let op = CollisionOperator::build(input, &v);
        let cmat =
            CollisionConstants::build(input, &v, &geo, &op, 0..dims.nc, 0..dims.nt);
        let nl = NlKernel::new(input);
        // Kernel level tune for this (nv, nrhs=1) shape.
        let kernel = xg_linalg::tuned_level(dims.nv, 1);
        xg_obs::set_collision_kernel(kernel.name());
        Self {
            layout,
            cmat,
            nl,
            cp_in: Tensor3::new(dims.nc, dims.nt, dims.nv),
            cp_out: Tensor3::new(dims.nc, dims.nt, dims.nv),
            rev_buf: Vec::with_capacity(dims.nc * dims.nt * dims.nv),
            kernel,
        }
    }

    /// Bytes held by the full constant tensor.
    pub fn cmat_bytes(&self) -> u64 {
        self.cmat.bytes()
    }

    /// Fingerprint of the full constant tensor.
    pub fn cmat_fingerprint(&self) -> u64 {
        self.cmat.fingerprint()
    }
}

impl Topology for SerialTopology {
    fn reduce_moment(&self, _buf: &mut [Complex64]) {
        // Full nv is local: the partial sum is already complete.
    }

    fn collision_step(&mut self, h: &mut Tensor3<Complex64>) {
        let (nc, nv, nt) = h.shape();
        // Stage into the profile-contiguous layout: the str slice
        // `[ic][iv][it]` is exactly the full-range wire block, so one
        // unpack replaces the per-element strided gather.
        unpack_into_coll_profiles(h.as_slice(), 0..nv, 0, &mut self.cp_in);
        // One batched panel apply per (ic, it) with the tuned kernel;
        // bitwise independent of the level.
        for ic in 0..nc {
            for it in 0..nt {
                let x = self.cp_in.line(ic, it);
                self.cmat.apply_multi(ic, it, x, self.cp_out.line_mut(ic, it), 1, self.kernel);
            }
        }
        // Scatter back through the same wire format.
        self.rev_buf.clear();
        pack_coll_profiles_block(&self.cp_out, 0..nv, 0, &mut self.rev_buf);
        unpack_into_str(&self.rev_buf, 0..nc, h);
    }

    fn nl_term(
        &mut self,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        out: &mut Tensor3<Complex64>,
    ) {
        if self.nl.is_disabled() {
            out.fill(Complex64::ZERO);
            return;
        }
        // Full nt is local: evaluate directly; phi already spans nc × nt.
        self.nl.eval(h, phi, 0, out);
    }

    fn reduce_sim_scalars(&self, _vals: &mut [f64]) {
        // Single rank: sums are already complete.
    }

    fn layout(&self) -> PhaseLayout {
        self.layout
    }
}

/// Convenience: build a serial simulation from a deck.
///
/// ```
/// use xg_sim::{serial_simulation, CgyroInput};
///
/// let mut sim = serial_simulation(&CgyroInput::test_small());
/// let d = sim.run_report_step();
/// assert!(d.time > 0.0 && d.field_energy.is_finite());
/// ```
pub fn serial_simulation(input: &CgyroInput) -> Simulation<SerialTopology> {
    Simulation::new(input.clone(), SerialTopology::new(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_linalg::norms::max_abs_complex;

    #[test]
    fn serial_run_is_stable_and_nontrivial() {
        let mut input = CgyroInput::test_small();
        input.steps_per_report = 5;
        let mut sim = serial_simulation(&input);
        let d0 = sim.diagnostics();
        assert!(d0.h_norm2 > 0.0, "seeded IC must be nonzero");
        let d1 = sim.run_report_step();
        assert!(d1.time > 0.0);
        assert!(d1.field_energy.is_finite());
        assert!(d1.h_norm2.is_finite());
        assert!(max_abs_complex(sim.h().as_slice()) < 1.0, "amplitudes stay bounded");
        // Something actually happened.
        assert_ne!(d0.h_norm2, d1.h_norm2);
    }

    #[test]
    fn serial_run_is_deterministic() {
        let input = CgyroInput::test_small();
        let mut a = serial_simulation(&input);
        let mut b = serial_simulation(&input);
        a.run_steps(7);
        b.run_steps(7);
        assert_eq!(a.h().as_slice(), b.h().as_slice(), "bitwise reproducible");
    }

    #[test]
    fn different_seeds_different_trajectories() {
        let input = CgyroInput::test_small();
        let mut a = serial_simulation(&input);
        let mut b = serial_simulation(&input.with_seed(1234));
        a.run_steps(3);
        b.run_steps(3);
        assert_ne!(a.h().as_slice(), b.h().as_slice());
    }

    #[test]
    fn gradient_drive_changes_dynamics_not_cmat() {
        let input = CgyroInput::test_small();
        let hot = input.with_gradients(2.0, 6.0);
        let ta = SerialTopology::new(&input);
        let tb = SerialTopology::new(&hot);
        assert_eq!(ta.cmat_fingerprint(), tb.cmat_fingerprint());
        let mut a = Simulation::new(input, ta);
        let mut b = Simulation::new(hot, tb);
        a.run_steps(5);
        b.run_steps(5);
        assert_ne!(a.h().as_slice(), b.h().as_slice());
    }

    #[test]
    fn collisions_damp_the_distribution() {
        // With no drive and no collisions the norm is ~conserved (streaming
        // is non-dissipative up to the upwind term); with collisions it
        // decays faster.
        let mut base = CgyroInput::test_small();
        base.nonlinear_coupling = 0.0;
        for s in &mut base.species {
            s.rln = 0.0;
            s.rlt = 0.0;
        }
        let mut no_coll = base.clone();
        no_coll.nu_ee = 0.0;
        let mut with_coll = base.clone();
        with_coll.nu_ee = 1.0;

        let mut a = serial_simulation(&no_coll);
        let mut b = serial_simulation(&with_coll);
        a.run_steps(20);
        b.run_steps(20);
        let na = a.diagnostics().h_norm2;
        let nb = b.diagnostics().h_norm2;
        assert!(nb < na, "collisions must damp: {nb} !< {na}");
    }

    #[test]
    fn linear_mode_skips_nl_and_matches_disabled_kernel() {
        let mut lin = CgyroInput::test_small();
        lin.nonlinear_coupling = 0.0;
        let mut sim = serial_simulation(&lin);
        sim.run_steps(3);
        assert!(sim.h().as_slice().iter().all(|z| z.is_finite()));
    }
}
