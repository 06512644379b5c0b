//! Time integration: RK4 for the explicit phases + the pre-factored
//! implicit collision step, orchestrated over a [`Topology`].
//!
//! The [`Topology`] trait is the seam between physics and parallelism: the
//! same [`Simulation`] drives a serial run, a distributed CGYRO run (where
//! the `nv` communicator is *reused* for both the str AllReduce and the
//! str↔coll transpose — Figure 1), and an XGYRO ensemble member (where the
//! coll communicator is a *different*, ensemble-wide group sharing one
//! `cmat` — Figure 3).

use crate::field::FieldSolver;
use crate::geometry::Geometry;
use crate::grid::{ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use crate::streaming::StrKernel;
use xg_linalg::Complex64;
use xg_tensor::{pack_moments, unpack_moments, PhaseLayout, Tensor3};

/// The parallel-topology seam. See module docs.
pub trait Topology {
    /// Complete a velocity-moment partial sum (field solve / upwind):
    /// AllReduce over the `nv`-splitting communicator. No-op when `nv` is
    /// not split.
    fn reduce_moment(&self, buf: &mut [Complex64]);

    /// Complete `moments` equally-sized velocity-moment partial sums packed
    /// contiguously in `buf` (the fused str-phase reduction). The default
    /// reduces each section separately — bitwise identical to the fused
    /// form because the rank-order elementwise sum of a concatenation is the
    /// concatenation of the per-section sums. Distributed topologies
    /// override this to issue one collective for the whole packed buffer.
    fn reduce_moment_block(&self, buf: &mut [Complex64], moments: usize) {
        let n = buf.len() / moments.max(1);
        for chunk in buf.chunks_mut(n.max(1)).take(moments) {
            self.reduce_moment(chunk);
        }
    }

    /// The collision step: redistribute `h` into the coll layout (possibly
    /// ensemble-wide), apply the locally held `cmat` slice, redistribute
    /// back. `h` is in the str layout and is updated in place.
    fn collision_step(&mut self, h: &mut Tensor3<Complex64>);

    /// Evaluate the nonlinear term (transposing through the nl layout as
    /// needed); `phi` is the completed potential (`nc × nt_loc`), `out`
    /// receives the str-layout contribution.
    fn nl_term(
        &mut self,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        out: &mut Tensor3<Complex64>,
    );

    /// Sum diagnostic scalars over all ranks of the simulation.
    fn reduce_sim_scalars(&self, vals: &mut [f64]);

    /// Max-reduce diagnostic scalars over all ranks of the simulation
    /// (CFL and stability monitors). Default: single-rank no-op.
    fn reduce_sim_max(&self, _vals: &mut [f64]) {}

    /// True when this rank is the root of its `nv` group (rank 0 of the
    /// `nv` communicator). Quantities replicated across the `nv` group
    /// (fields and their moments) are counted once per group by zeroing
    /// them elsewhere before [`Topology::reduce_sim_scalars`].
    fn nv_root(&self) -> bool {
        true
    }

    /// Tag the logical phase on the traffic log (no-op for serial runs).
    fn set_phase(&self, _phase: &str) {}

    /// This rank's layout of the simulation.
    fn layout(&self) -> PhaseLayout;
}

/// Per-report diagnostics of one simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Diagnostics {
    /// Simulation time.
    pub time: f64,
    /// Σ |φ|² over all (ic, itor).
    pub field_energy: f64,
    /// Quasilinear heat-flux proxy `Σ k_y·Im(φ*·H)` with `H` the energy
    /// moment of `h`.
    pub heat_flux: f64,
    /// Σ |h|² over the full distribution.
    pub h_norm2: f64,
}

/// A running simulation: state + kernels + topology.
pub struct Simulation<T: Topology> {
    input: CgyroInput,
    topo: T,
    field: FieldSolver,
    strk: StrKernel,
    /// Heat-moment weights per local iv (`w·ε`).
    heat_w: Vec<f64>,
    /// Distribution in str layout `(nc, nv_loc, nt_loc)`.
    h: Tensor3<Complex64>,
    // RK4 work buffers (persistent: steady-state stepping is
    // allocation-free apart from transient transpose blocks).
    h0: Tensor3<Complex64>,
    stage: Tensor3<Complex64>,
    k_acc: Tensor3<Complex64>,
    rhs: Tensor3<Complex64>,
    nl_buf: Tensor3<Complex64>,
    phi: Vec<Complex64>,
    apar: Vec<Complex64>,
    upw: Vec<Complex64>,
    /// Staging buffer for the fused str-phase reduction (packed moments).
    fused: Vec<Complex64>,
    time: f64,
    steps_taken: u64,
}

/// Deterministic per-point initial perturbation: a splitmix64-style hash of
/// `(seed, ic, iv, itor)` mapped to a small complex amplitude. Identical
/// for every decomposition of the same simulation.
pub fn initial_value(seed: u64, ic: usize, iv: usize, itor: usize) -> Complex64 {
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((ic as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add((iv as u64).wrapping_mul(0x94D049BB133111EB))
        .wrapping_add((itor as u64).wrapping_mul(0xD6E8FEB86659FD93));
    let mut next = || {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        // Map to [-1, 1).
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let re = next();
    let im = next();
    Complex64::new(re, im).scale(1e-3)
}

impl<T: Topology> Simulation<T> {
    /// Build a simulation over a topology: precompute kernels for this
    /// rank's slice and seed the initial condition.
    pub fn new(input: CgyroInput, topo: T) -> Self {
        input.validate().expect("invalid input deck");
        let layout = topo.layout();
        let v = VelocityGrid::new(&input);
        let cfg = ConfigGrid::new(&input);
        let geo = Geometry::new(&input, &cfg);
        let nv_range = layout.nv_range();
        let nt_range = layout.nt_range();
        let field = FieldSolver::new(&input, &v, &cfg, &geo, nv_range.clone(), nt_range.clone());
        let strk = StrKernel::new(&input, &v, &cfg, &geo, nv_range.clone(), nt_range.clone());
        let heat_w: Vec<f64> = nv_range
            .clone()
            .map(|iv| {
                let (_, ie, _) = v.unflatten(iv);
                v.weight(iv) * v.energy[ie]
            })
            .collect();

        let (nc, nvl, ntl) = layout.str_shape();
        let mut h = Tensor3::new(nc, nvl, ntl);
        for ic in 0..nc {
            for (ivl, iv) in nv_range.clone().enumerate() {
                for (itl, itor) in nt_range.clone().enumerate() {
                    h[(ic, ivl, itl)] = initial_value(input.seed, ic, iv, itor);
                }
            }
        }

        let zeros3 = Tensor3::new(nc, nvl, ntl);
        let phi = vec![Complex64::ZERO; nc * ntl];
        Self {
            upw: phi.clone(),
            apar: phi.clone(),
            fused: Vec::new(),
            phi,
            h0: zeros3.clone(),
            stage: zeros3.clone(),
            k_acc: zeros3.clone(),
            rhs: zeros3.clone(),
            nl_buf: zeros3,
            input,
            topo,
            field,
            strk,
            heat_w,
            h,
            time: 0.0,
            steps_taken: 0,
        }
    }

    /// The input deck.
    pub fn input(&self) -> &CgyroInput {
        &self.input
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Borrow the current local distribution (str layout).
    pub fn h(&self) -> &Tensor3<Complex64> {
        &self.h
    }

    /// The most recently solved potential (`nc × nt_loc` row-major).
    /// Refreshed by [`Self::diagnostics`], [`Self::mode_energies`] and every
    /// RK stage; use right after a diagnostics call for a consistent probe.
    pub fn phi(&self) -> &[Complex64] {
        &self.phi
    }

    /// Overwrite the evolving state (checkpoint restore). The caller is
    /// responsible for deck/layout compatibility — see `xg_sim::restart`.
    pub fn restore_state(&mut self, h: &[Complex64], time: f64, steps_taken: u64) {
        assert_eq!(h.len(), self.h.len(), "restored state has the wrong local size");
        self.h.as_mut_slice().copy_from_slice(h);
        // Clear integrator scratch: the next step's first stage evaluates
        // at the restored state with zero stage increment, exactly as a
        // fresh run at this state would.
        self.rhs.fill(Complex64::ZERO);
        self.time = time;
        self.steps_taken = steps_taken;
    }

    /// Borrow the topology (e.g. to inspect communicators in tests).
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Evaluate the full explicit RHS at state `y` into `self.rhs`
    /// (str + drive + upwind correction + nl).
    fn eval_rhs(&mut self, stage: &Tensor3<Complex64>) {
        self.topo.set_phase("str");
        let span = xg_obs::span(xg_obs::Phase::Str);
        // Fused str-phase reduction: compute all velocity-moment partials
        // first (none depends on a completed reduction), pack them into one
        // contiguous staging buffer, and complete them with a single
        // collective per RK stage instead of Figure 1's three (two
        // electrostatic — the A∥ slot is elided). Elementwise rank-order
        // summation makes this bitwise identical to the sequential form.
        self.field.partial_moment(stage, &mut self.phi);
        if self.field.em_enabled() {
            self.field.partial_current(stage, &mut self.apar);
            self.strk.partial_upwind(stage, &mut self.upw);
            pack_moments(&[&self.phi, &self.apar, &self.upw], &mut self.fused);
            self.topo.reduce_moment_block(&mut self.fused, 3);
            unpack_moments(
                &self.fused,
                &mut [&mut self.phi, &mut self.apar, &mut self.upw],
            );
        } else {
            self.strk.partial_upwind(stage, &mut self.upw);
            pack_moments(&[&self.phi, &self.upw], &mut self.fused);
            self.topo.reduce_moment_block(&mut self.fused, 2);
            unpack_moments(&self.fused, &mut [&mut self.phi, &mut self.upw]);
        }
        self.field.finalize(&mut self.phi);
        if self.field.em_enabled() {
            self.field.finalize_apar(&mut self.apar);
        }
        // Streaming/drift/drive stencil work.
        self.strk.rhs(stage, &self.phi, &self.apar, &self.upw, &mut self.rhs);
        span.finish();
        // Nonlinear phase (its own transposes; never feeds coll directly).
        self.topo.set_phase("nl");
        let span = xg_obs::span(xg_obs::Phase::Nl);
        self.topo.nl_term(stage, &self.phi, &mut self.nl_buf);
        for (r, n) in self.rhs.as_mut_slice().iter_mut().zip(self.nl_buf.as_slice()) {
            *r += *n;
        }
        span.finish();
    }

    /// Advance one time step: RK4 on the explicit terms, then the implicit
    /// collision step through the constant tensor.
    pub fn step(&mut self) {
        let dt = self.input.delta_t;
        self.h0.as_mut_slice().copy_from_slice(self.h.as_slice());

        // Each stage: stage = h0 + c·dt·rhs_prev, then rhs = RHS(stage).
        // The stage buffer is swapped out during eval to satisfy borrows.
        let stage_coeffs = [0.0, 0.5 * dt, 0.5 * dt, dt];
        let acc_coeffs = [1.0, 2.0, 2.0, 1.0];
        for (si, (&sc, &ac)) in stage_coeffs.iter().zip(&acc_coeffs).enumerate() {
            for ((s, h0), r) in self
                .stage
                .as_mut_slice()
                .iter_mut()
                .zip(self.h0.as_slice())
                .zip(self.rhs.as_slice())
            {
                *s = *h0 + r.scale(sc);
            }
            let stage = std::mem::replace(&mut self.stage, Tensor3::new(0, 0, 0));
            self.eval_rhs(&stage);
            self.stage = stage;
            if si == 0 {
                for (a, r) in self.k_acc.as_mut_slice().iter_mut().zip(self.rhs.as_slice()) {
                    *a = *r;
                }
            } else {
                for (a, r) in self.k_acc.as_mut_slice().iter_mut().zip(self.rhs.as_slice()) {
                    *a += r.scale(ac);
                }
            }
        }

        // Combine.
        for ((h, h0), k) in self
            .h
            .as_mut_slice()
            .iter_mut()
            .zip(self.h0.as_slice())
            .zip(self.k_acc.as_slice())
        {
            *h = *h0 + k.scale(dt / 6.0);
        }

        // Implicit collision step (Figure 1: transpose → apply cmat →
        // transpose back).
        self.topo.set_phase("coll");
        let span = xg_obs::span(xg_obs::Phase::Coll);
        self.topo.collision_step(&mut self.h);
        span.finish();

        self.time += dt;
        self.steps_taken += 1;
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance one reporting interval and return diagnostics.
    pub fn run_report_step(&mut self) -> Diagnostics {
        self.run_steps(self.input.steps_per_report);
        self.diagnostics()
    }

    /// Estimate the advective CFL number `max(|v_∥|/q)·Δt/Δθ` over the
    /// whole simulation (an explicit-stability monitor; the collision step
    /// is unconditionally stable by construction). Uses a max-reduction
    /// over all simulation ranks.
    pub fn cfl_estimate(&self) -> f64 {
        let layout = self.topo.layout();
        let input = &self.input;
        let v = VelocityGrid::new(input);
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        let dtheta = 2.0 * std::f64::consts::PI / input.n_theta as f64;
        let mut local = 0.0f64;
        for iv in layout.nv_range() {
            local = local.max(v.v_par(iv, &masses).abs() / input.q);
        }
        let mut buf = [local * input.delta_t / dtheta];
        self.topo.reduce_sim_max(&mut buf);
        buf[0]
    }

    /// Per-toroidal-mode field energy `E_n = Σ_ic |φ(ic, n)|²` over the
    /// full simulation (length `nt`, globally reduced). The spectrum view
    /// of [`Self::diagnostics`]' `field_energy` (they sum to it).
    pub fn mode_energies(&mut self) -> Vec<f64> {
        self.topo.set_phase("field");
        let _span = xg_obs::span(xg_obs::Phase::Field);
        self.field.partial_moment(&self.h, &mut self.phi);
        self.topo.reduce_moment(&mut self.phi);
        self.field.finalize(&mut self.phi);
        let layout = self.topo.layout();
        let (nc, _, ntl) = self.h.shape();
        let nt = layout.dims().nt;
        let mut vals = vec![0.0f64; nt];
        for ic in 0..nc {
            for (itl, itor) in layout.nt_range().enumerate() {
                vals[itor] += self.phi[ic * ntl + itl].norm_sqr();
            }
        }
        if !self.topo.nv_root() {
            vals.iter_mut().for_each(|v| *v = 0.0);
        }
        self.topo.reduce_sim_scalars(&mut vals);
        vals
    }

    /// Compute diagnostics at the current state.
    pub fn diagnostics(&mut self) -> Diagnostics {
        self.topo.set_phase("field");
        let span = xg_obs::span(xg_obs::Phase::Field);
        // Fresh field solve at current h.
        self.field.partial_moment(&self.h, &mut self.phi);
        self.topo.reduce_moment(&mut self.phi);
        self.field.finalize(&mut self.phi);
        // Heat moment.
        let layout = self.topo.layout();
        let (nc, nvl, ntl) = self.h.shape();
        let mut heat = vec![Complex64::ZERO; nc * ntl];
        for ic in 0..nc {
            for ivl in 0..nvl {
                let w = self.heat_w[ivl];
                let line = self.h.line(ic, ivl);
                for itl in 0..ntl {
                    heat[ic * ntl + itl] += line[itl] * w;
                }
            }
        }
        // The heat moment is a diagnostics-only reduction, not part of the
        // field solve — tag it separately so traces can distinguish
        // reporting-cadence traffic from per-stage field traffic.
        span.finish();
        self.topo.set_phase("diag");
        let _span = xg_obs::span(xg_obs::Phase::Diag);
        self.topo.reduce_moment(&mut heat);

        // Local (per-(ic,it)-unique) sums.
        let ky = crate::grid::ky_modes(&self.input);
        let nt_range = layout.nt_range();
        let mut vals = [0.0f64; 3]; // energy, flux, hnorm
        for ic in 0..nc {
            for (itl, itor) in nt_range.clone().enumerate() {
                let f = ic * ntl + itl;
                vals[0] += self.phi[f].norm_sqr();
                vals[1] += ky[itor] * (self.phi[f].conj() * heat[f]).im;
            }
        }
        // Energy/flux are replicated across the nv group (post-AllReduce
        // fields): count them once per group. |h|² is owned per rank and
        // sums over everyone.
        if !self.topo.nv_root() {
            vals[0] = 0.0;
            vals[1] = 0.0;
        }
        let mut hn = 0.0;
        for z in self.h.as_slice() {
            hn += z.norm_sqr();
        }
        vals[2] = hn;
        self.topo.reduce_sim_scalars(&mut vals);

        Diagnostics {
            time: self.time,
            field_energy: vals[0],
            heat_flux: vals[1],
            h_norm2: vals[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_deterministic_and_small() {
        let a = initial_value(1, 3, 5, 7);
        let b = initial_value(1, 3, 5, 7);
        assert_eq!(a, b);
        assert!(a.abs() < 2e-3 && a.abs() > 0.0);
        // Different indices / seeds give different values.
        assert_ne!(initial_value(1, 3, 5, 7), initial_value(1, 3, 5, 6));
        assert_ne!(initial_value(1, 3, 5, 7), initial_value(2, 3, 5, 7));
    }

    #[test]
    fn initial_values_look_mean_free() {
        let n = 10_000;
        let mut sum = Complex64::ZERO;
        for i in 0..n {
            sum += initial_value(42, i, i / 3, i % 5);
        }
        assert!(sum.abs() / n as f64 * 1e3 < 0.05, "mean too large: {sum}");
    }
}
