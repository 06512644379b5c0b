//! Distributed topology over the `xg-comm` substrate.
//!
//! Implements the paper's two communicator wirings with one code path:
//!
//! * **CGYRO mode** ([`DistTopology::cgyro`]): the communicator that splits
//!   `nv` in the str phase is *reused* for the str↔coll AllToAll transpose
//!   (Figure 1) — `coll_comm` is literally a clone of `nv_comm`, and the
//!   `cmat` slice follows the per-simulation `nc` decomposition over the
//!   `n1` ranks.
//! * **Shared-coll (XGYRO) mode** ([`DistTopology::xgyro`]): the
//!   coll communicator is a separate, wider group spanning the same
//!   toroidal slice of **all k simulations** (Figure 3); `cmat` follows the
//!   ensemble-wide `nc` decomposition over `k·n1` ranks, so each rank holds
//!   1/k of the per-simulation slice and applies it to all k simulations'
//!   buffers during the exchange.
//!
//! The collision exchange with `k = 1` degenerates exactly to CGYRO's
//! transpose — matching the paper's description of XGYRO as "a thin MPI
//! initialization and partitioning layer around the CGYRO codebase, with
//! minor changes to the latter".
//!
//! The nl phase needs the complete toroidal dimension. With `n2 > 1` it runs
//! one AllToAll pair over the toroidal communicator per stage: each forward
//! block carries a peer's `nc` rows of `h` and of `φ`, the bracket reads them
//! in place and writes each target mode straight into its owner's reverse
//! block. With `n2 = 1` the str layout already holds every toroidal mode, so
//! [`Topology::nl_term`] evaluates in place, as the serial topology does, and
//! the toroidal communicator carries no traffic.

use crate::cmat::CollisionConstants;
use crate::collision::CollisionOperator;
use crate::geometry::Geometry;
use crate::grid::{ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use crate::nonlinear::NlKernel;
use crate::stepper::Topology;
use xg_comm::Communicator;
use xg_linalg::{Complex64, SimdLevel};
use xg_tensor::{
    pack_coll_profiles_block, pack_str_block, unpack_into_coll_profiles, unpack_into_str,
    Decomp1D, PhaseLayout, ProcGrid, Tensor3,
};

/// Distributed topology for one rank of one simulation.
pub struct DistTopology {
    pub(crate) layout: PhaseLayout,
    sim_comm: Communicator,
    nv_comm: Communicator,
    nt_comm: Communicator,
    coll_comm: Communicator,
    /// Balanced `nc` decomposition over the coll communicator (per-sim in
    /// CGYRO mode, ensemble-wide in XGYRO mode).
    coll_nc_decomp: Decomp1D,
    /// Number of simulations sharing the coll communicator (k).
    sims_in_coll: usize,
    cmat: CollisionConstants,
    nl: NlKernel,
    /// Profile-contiguous coll-side staging: shape `(my_nc, nt_loc, k·nv)`
    /// — the k members' velocity profiles at one `(ic, it)` stacked into
    /// one contiguous multi-RHS block.
    coll_in: Tensor3<Complex64>,
    coll_out: Tensor3<Complex64>,
    /// Persistent forward-transpose send buffers, recycled from the
    /// previous step's reverse-transpose receive blocks (per-peer sizes
    /// match exactly between the two directions).
    fwd_send: Vec<Vec<Complex64>>,
    /// The nl exchange's send buffers, one per toroidal peer (none when
    /// `n2 = 1`). Each direction's receive blocks are the next stage's send
    /// buffers of the other direction, so a block returns to the peer whose
    /// capacity it carries and no exchange buffer is reallocated.
    nl_fwd_send: Vec<Vec<Complex64>>,
    nl_back_send: Vec<Vec<Complex64>>,
    /// Collision kernel SIMD level, tuned at build time for this rank's
    /// (nv, k) shape; bitwise-neutral.
    pub(crate) kernel: SimdLevel,
}

impl DistTopology {
    /// CGYRO wiring: carve `nv`/`nt` communicators out of the simulation
    /// communicator and reuse the `nv` communicator for coll.
    pub fn cgyro(input: &CgyroInput, grid: ProcGrid, sim_comm: Communicator) -> Self {
        assert_eq!(
            sim_comm.size(),
            grid.size(),
            "simulation communicator must match the process grid"
        );
        let (i1, i2) = grid.coords(sim_comm.rank());
        let nv_comm = sim_comm.split(i2 as u64, i1 as u64, "nv");
        let nt_comm = sim_comm.split(i1 as u64, i2 as u64, "nt");
        // Figure 1: the same communicator serves the str AllReduce and the
        // str↔coll transpose.
        let coll_comm = nv_comm.clone();
        Self::xgyro(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, 1)
    }

    /// XGYRO wiring: the caller supplies the per-simulation communicators
    /// and a separate coll communicator spanning `k` simulations' rows
    /// (constructed by `xgyro-core::topology`). The coll communicator's
    /// rank order must be `(sim, i1)` lexicographic: `r = sim·n1 + i1`.
    /// The shared constant tensor's `nc` rows split evenly over the coll
    /// ranks, the first `nc % (k·n1)` ranks taking one extra row.
    pub fn xgyro(
        input: &CgyroInput,
        grid: ProcGrid,
        sim_comm: Communicator,
        nv_comm: Communicator,
        nt_comm: Communicator,
        coll_comm: Communicator,
        sims_in_coll: usize,
    ) -> Self {
        let dims = input.dims();
        let layout = PhaseLayout::new(dims, grid, sim_comm.rank());
        let (i1, i2) = layout.coords();
        assert_eq!(nv_comm.size(), grid.n1, "nv communicator must have n1 ranks");
        assert_eq!(nt_comm.size(), grid.n2, "nt communicator must have n2 ranks");
        assert_eq!(nv_comm.rank(), i1, "nv communicator rank must equal i1");
        assert_eq!(nt_comm.rank(), i2, "nt communicator rank must equal i2");
        assert_eq!(
            coll_comm.size(),
            sims_in_coll * grid.n1,
            "coll communicator must span k·n1 ranks"
        );
        assert_eq!(
            coll_comm.rank() % grid.n1,
            i1,
            "coll communicator rank order must be (sim, i1) lexicographic"
        );

        let coll_nc_decomp = Decomp1D::new(dims.nc, coll_comm.size());
        // Collision-kernel level tune for this rank's (nv, k) shape. Cached per process: one rank of the world measures, the
        // others wait for and read its answer — so tune here, where the
        // communicator splits have just lined the ranks up, and not after
        // the cmat build, which they leave at different times.
        let kernel = xg_linalg::tuned_level(dims.nv, sims_in_coll);
        xg_obs::set_collision_kernel(kernel.name());

        // This rank's cmat slice: ensemble nc block × local nt range.
        let v = VelocityGrid::new(input);
        let cfg = ConfigGrid::new(input);
        let geo = Geometry::new(input, &cfg);
        let op = CollisionOperator::build(input, &v);
        let cmat = CollisionConstants::build(
            input,
            &v,
            &geo,
            &op,
            coll_nc_decomp.range(coll_comm.rank()),
            layout.nt_range(),
        );
        let nl = NlKernel::new(input);
        let my_nc = coll_nc_decomp.count(coll_comm.rank());
        let ntl = layout.nt_range().len();
        let lanes = sims_in_coll * dims.nv;
        let p = coll_comm.size();
        // With one toroidal rank the str layout already is the nl layout:
        // `nl_term` evaluates in place and exchanges nothing.
        let nl_peers = if grid.n2 > 1 { grid.n2 } else { 0 };

        Self {
            layout,
            sim_comm,
            nv_comm,
            nt_comm,
            coll_comm,
            coll_nc_decomp,
            sims_in_coll,
            cmat,
            nl,
            coll_in: Tensor3::new(my_nc, ntl, lanes),
            coll_out: Tensor3::new(my_nc, ntl, lanes),
            fwd_send: (0..p).map(|_| Vec::new()).collect(),
            nl_fwd_send: (0..nl_peers).map(|_| Vec::new()).collect(),
            nl_back_send: (0..nl_peers).map(|_| Vec::new()).collect(),
            kernel,
        }
    }

    /// The per-simulation communicator.
    pub fn sim_comm(&self) -> &Communicator {
        &self.sim_comm
    }

    /// The `nv`-splitting (str AllReduce) communicator.
    pub fn nv_comm(&self) -> &Communicator {
        &self.nv_comm
    }

    /// The toroidal communicator.
    pub fn nt_comm(&self) -> &Communicator {
        &self.nt_comm
    }

    /// The coll communicator (== `nv_comm` in CGYRO mode).
    pub fn coll_comm(&self) -> &Communicator {
        &self.coll_comm
    }

    /// Number of simulations sharing the coll exchange.
    pub fn sims_in_coll(&self) -> usize {
        self.sims_in_coll
    }

    /// This rank's slice of the constant tensor.
    pub fn cmat(&self) -> &CollisionConstants {
        &self.cmat
    }
}

impl Topology for DistTopology {
    fn reduce_moment(&self, buf: &mut [Complex64]) {
        self.nv_comm.all_reduce_sum_complex(buf);
    }

    fn reduce_moment_block(&self, buf: &mut [Complex64], _moments: usize) {
        // One collective per RK stage carrying every moment.
        self.nv_comm.all_reduce_sum_complex(buf);
    }

    // Two full transposes on the coll communicator bracketing one batched
    // panel pass (Figures 1/3).
    fn collision_step(&mut self, h: &mut Tensor3<Complex64>) {
        debug_assert_eq!(self.coll_comm.size(), self.sims_in_coll * self.nv_comm.size());
        let n1 = self.nv_comm.size();
        let k = self.sims_in_coll;
        let dims = self.layout.dims();
        let nv_decomp = self.layout.nv_decomp();
        let ntl = self.layout.nt_range().len();
        let elem = std::mem::size_of::<Complex64>() as u64;

        // Forward transpose: send my simulation's nc blocks to every coll
        // peer; receive all k simulations' nv blocks for my nc slice. The
        // send buffers are last step's reverse-receive blocks, drained and
        // refilled (per-peer sizes match exactly between directions).
        let mut send = std::mem::take(&mut self.fwd_send);
        let mut drained: u64 = 0;
        for (q, buf) in send.iter_mut().enumerate() {
            drained += buf.capacity() as u64 * elem;
            buf.clear();
            pack_str_block(h, self.coll_nc_decomp.range(q), buf);
        }
        let recv = self.coll_comm.all_to_all_v_take(send);

        // Unpack all k simulations' blocks into one profile-contiguous
        // tensor: member s's velocity profile occupies lanes
        // [s·nv, (s+1)·nv) of the contiguous line at each (ic, it).
        for (r, block) in recv.iter().enumerate() {
            unpack_into_coll_profiles(
                block,
                nv_decomp.range(r % n1),
                (r / n1) * dims.nv,
                &mut self.coll_in,
            );
        }

        // Apply this rank's cmat slice to every simulation's profile: one
        // batched multi-RHS panel apply per (ic, it), so each panel is
        // streamed once through all k members' profiles (the
        // arithmetic-intensity bonus of sharing).
        for ic in 0..self.coll_nc_decomp.count(self.coll_comm.rank()) {
            for it in 0..ntl {
                let x = self.coll_in.line(ic, it);
                self.cmat.apply_multi(ic, it, x, self.coll_out.line_mut(ic, it), k, self.kernel);
            }
        }

        // Reverse transpose: return each simulation's blocks to its owners,
        // recycling the forward receive blocks as send buffers.
        let mut send_back = recv;
        for (r, buf) in send_back.iter_mut().enumerate() {
            drained += buf.capacity() as u64 * elem;
            buf.clear();
            pack_coll_profiles_block(
                &self.coll_out,
                nv_decomp.range(r % n1),
                (r / n1) * dims.nv,
                buf,
            );
        }
        let recv_back = self.coll_comm.all_to_all_v_take(send_back);
        for (q, block) in recv_back.iter().enumerate() {
            unpack_into_str(block, self.coll_nc_decomp.range(q), h);
        }
        // The reverse receive blocks become the next step's forward send
        // buffers; account the recycled capacity.
        self.fwd_send = recv_back;
        self.coll_comm.log().note_drained_capacity(drained);
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
        let n2 = self.nt_comm.size();
        if n2 == 1 {
            // This rank holds the complete toroidal dimension: `h` is the
            // nl layout `(nc, nv_loc, nt)` and `phi` is `nc × nt`, exactly
            // what the transposes below would build. Evaluate in place.
            self.nl.eval(h, phi, 0, out);
            return;
        }
        let nc2_decomp = Decomp1D::new(self.layout.dims().nc, n2);
        let (_, nvl, ntl) = self.layout.str_shape();
        let row = nvl * ntl;
        let elem = std::mem::size_of::<Complex64>() as u64;

        // Forward: toroidal peer `j` gets my `h` rows and my `φ` rows over
        // its `nc` block, both contiguous in the str layout.
        let mut send = std::mem::take(&mut self.nl_fwd_send);
        let mut drained: u64 = 0;
        for (j, buf) in send.iter_mut().enumerate() {
            drained += buf.capacity() as u64 * elem;
            buf.clear();
            let r = nc2_decomp.range(j);
            buf.extend_from_slice(&h.as_slice()[r.start * row..r.end * row]);
            buf.extend_from_slice(&phi[r.start * ntl..r.end * ntl]);
        }
        let recv = self.nt_comm.all_to_all_v_take(send);

        // Evaluate on the received blocks, writing each target mode into
        // its owner's reverse block.
        let mut send_back = std::mem::take(&mut self.nl_back_send);
        drained += send_back.iter().map(|b| b.capacity() as u64 * elem).sum::<u64>();
        let nc_blk = nc2_decomp.count(self.nt_comm.rank());
        self.nl.eval_blocks(&recv, self.layout.nt_decomp(), nc_blk, nvl, &mut send_back);
        let recv_back = self.nt_comm.all_to_all_v_take(send_back);

        // Reverse: peer `j` returns my term's rows over its `nc` block.
        for (j, block) in recv_back.iter().enumerate() {
            let r = nc2_decomp.range(j);
            out.as_mut_slice()[r.start * row..r.end * row].copy_from_slice(block);
        }
        self.nl_fwd_send = recv_back;
        self.nl_back_send = recv;
        self.nt_comm.log().note_drained_capacity(drained);
    }

    fn reduce_sim_scalars(&self, vals: &mut [f64]) {
        self.sim_comm.all_reduce_sum_f64(vals);
    }

    fn reduce_sim_max(&self, vals: &mut [f64]) {
        self.sim_comm.all_reduce_max_f64(vals);
    }

    fn nv_root(&self) -> bool {
        self.nv_comm.rank() == 0
    }

    fn set_phase(&self, phase: &str) {
        self.sim_comm.set_phase(phase);
    }

    fn layout(&self) -> PhaseLayout {
        self.layout
    }
}
