//! Distributed topology over the `xg-comm` substrate.
//!
//! Implements the paper's two communicator wirings with one code path:
//!
//! * **CGYRO mode** ([`DistTopology::cgyro`]): the communicator that splits
//!   `nv` in the str phase is *reused* for the str↔coll AllToAll transpose
//!   (Figure 1) — `coll_comm` is literally a clone of `nv_comm`, and the
//!   `cmat` slice follows the per-simulation `nc` decomposition over the
//!   `n1` ranks.
//! * **Shared-coll (XGYRO) mode** ([`DistTopology::with_shared_coll_cuts`]): the
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

use crate::cmat::CollisionConstants;
use crate::collision::CollisionOperator;
use crate::geometry::Geometry;
use crate::grid::{ConfigGrid, VelocityGrid};
use crate::input::CgyroInput;
use crate::nonlinear::NlKernel;
use crate::stepper::Topology;
use xg_comm::Communicator;
use xg_costmodel::KernelChoice;
use xg_linalg::Complex64;
use xg_tensor::{
    pack_coll_profiles_block, pack_nl_block, pack_str_block, unpack_into_coll_profiles,
    unpack_into_nl, unpack_into_str, unpack_into_str_from_nl, Decomp1D, PhaseLayout, ProcGrid,
    RaggedDecomp, Tensor3,
};

/// Distributed topology for one rank of one simulation.
pub struct DistTopology {
    pub(crate) layout: PhaseLayout,
    sim_comm: Communicator,
    nv_comm: Communicator,
    nt_comm: Communicator,
    coll_comm: Communicator,
    /// `nc` decomposition over the coll communicator (per-sim in CGYRO
    /// mode, ensemble-wide in XGYRO mode). Possibly ragged: a planner can
    /// assign uneven row counts to the coll positions (bitwise-neutral —
    /// each `(ic, it)` matvec is independent, only cut points move).
    coll_nc_decomp: RaggedDecomp,
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
    /// Collision kernel (SIMD level + L2 row-tile height) autotuned at
    /// build time for this rank's (nv, k) shape; bitwise-neutral.
    pub(crate) kernel: KernelChoice,
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
        Self::with_shared_coll_cuts(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, 1, None)
    }

    /// XGYRO wiring: the caller supplies the per-simulation communicators
    /// and a separate coll communicator spanning `k` simulations' rows
    /// (constructed by `xgyro-core::topology`). The coll communicator's
    /// rank order must be `(sim, i1)` lexicographic: `r = sim·n1 + i1`.
    ///
    /// `coll_cuts[p]` rows of the shared constant tensor go to coll
    /// position `p`; the (possibly unbalanced) cut list must have one entry
    /// per coll rank and sum to `nc`. `None` is the balanced split.
    #[allow(clippy::too_many_arguments)]
    pub fn with_shared_coll_cuts(
        input: &CgyroInput,
        grid: ProcGrid,
        sim_comm: Communicator,
        nv_comm: Communicator,
        nt_comm: Communicator,
        coll_comm: Communicator,
        sims_in_coll: usize,
        coll_cuts: Option<&[usize]>,
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

        let coll_nc_decomp = match coll_cuts {
            None => RaggedDecomp::balanced(dims.nc, coll_comm.size()),
            Some(cuts) => {
                assert_eq!(
                    cuts.len(),
                    coll_comm.size(),
                    "coll cuts must have one entry per coll rank"
                );
                let d = RaggedDecomp::from_counts(cuts);
                assert_eq!(d.total(), dims.nc, "coll cuts must sum to nc");
                d
            }
        };
        // One-shot collision-kernel autotune for this rank's (nv, k)
        // shape. Cached per process: one rank of the world measures, the
        // others wait for and read its answer — so tune here, where the
        // communicator splits have just lined the ranks up, and not after
        // the cmat build, which they leave at different times.
        let kernel = xg_costmodel::tune_collision_kernel(dims.nv, sims_in_coll);
        xg_obs::set_collision_kernel(&kernel.to_string());

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

    /// The autotuned collision kernel this topology runs.
    pub fn kernel_choice(&self) -> KernelChoice {
        self.kernel
    }
}

impl Topology for DistTopology {
    fn reduce_moment(&self, buf: &mut [Complex64]) {
        self.nv_comm
            .log()
            .note_unfused_reduction(std::mem::size_of_val::<[Complex64]>(buf) as u64);
        self.nv_comm.all_reduce_sum_complex(buf);
    }

    fn reduce_moment_block(&self, buf: &mut [Complex64], moments: usize) {
        // One collective per RK stage carrying every moment.
        let bytes = std::mem::size_of_val::<[Complex64]>(buf) as u64;
        self.nv_comm.log().note_fused_reduction(moments as u64, bytes);
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
        // batched multi-RHS panel apply per (ic, it), so each L2-sized
        // panel tile is streamed once through all k members' profiles (the
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
        let dims = self.layout.dims();
        let n2 = self.nt_comm.size();
        let nc2_decomp = Decomp1D::new(dims.nc, n2);
        let nt_decomp = self.layout.nt_decomp();
        let my_i2 = self.nt_comm.rank();
        let nvl = h.shape().1;

        // Transpose str -> nl over the toroidal communicator.
        let send: Vec<Vec<Complex64>> = (0..n2)
            .map(|j| {
                let mut buf = Vec::new();
                pack_str_block(h, nc2_decomp.range(j), &mut buf);
                buf
            })
            .collect();
        let recv = self.nt_comm.all_to_all_v_take(send);
        let mut h_nl = Tensor3::new(nc2_decomp.count(my_i2), nvl, dims.nt);
        for (j, block) in recv.iter().enumerate() {
            unpack_into_nl(block, nt_decomp.range(j), &mut h_nl);
        }

        // Complete phi in the toroidal dimension (small gather).
        let phi_blocks = self.nt_comm.all_gather(phi);
        let mut phi_full = vec![Complex64::ZERO; dims.nc * dims.nt];
        for (j, block) in phi_blocks.iter().enumerate() {
            let r = nt_decomp.range(j);
            let ntl_j = r.len();
            for ic in 0..dims.nc {
                for (itl, itor) in r.clone().enumerate() {
                    phi_full[ic * dims.nt + itor] = block[ic * ntl_j + itl];
                }
            }
        }

        // Evaluate and transpose back.
        let mut nl_out = Tensor3::new(nc2_decomp.count(my_i2), nvl, dims.nt);
        self.nl.eval(&h_nl, &phi_full, nc2_decomp.start(my_i2), &mut nl_out);
        let send_back: Vec<Vec<Complex64>> = (0..n2)
            .map(|j| {
                let mut buf = Vec::new();
                pack_nl_block(&nl_out, nt_decomp.range(j), &mut buf);
                buf
            })
            .collect();
        let recv_back = self.nt_comm.all_to_all_v_take(send_back);
        for (j, block) in recv_back.iter().enumerate() {
            unpack_into_str_from_nl(block, nc2_decomp.range(j), out);
        }
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
