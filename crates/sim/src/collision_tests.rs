//! One `collision_step` equals the naive per-profile reference for every
//! kernel level the tuner may pick, serial and distributed. These live
//! inside the crate because they read and set the topologies'
//! crate-private `kernel` field: there is deliberately no public way to
//! choose a kernel.

use crate::cmat::{setup, CollisionConstants};
use crate::{CgyroInput, DistTopology, SerialTopology, Topology};
use std::ops::Range;
use xg_comm::{Communicator, World};
use xg_linalg::{Complex64, SimdLevel};
use xg_tensor::{ProcGrid, Tensor3};

/// One collision step done the naive way: build the propagators for all
/// `nc` × `nt_range` and run one [`CollisionConstants::apply`] per velocity
/// profile of the global state `h(ic, iv, it)`. Returns the stepped
/// `(nc, nv, nt_range.len())` block.
fn naive_collision_step(
    input: &CgyroInput,
    nt_range: Range<usize>,
    h: impl Fn(usize, usize, usize) -> Complex64,
) -> Tensor3<Complex64> {
    let dims = input.dims();
    let (v, geo, op) = setup(input);
    let cm = CollisionConstants::build(input, &v, &geo, &op, 0..dims.nc, nt_range.clone());
    let mut out = Tensor3::new(dims.nc, dims.nv, nt_range.len());
    let mut scratch = vec![Complex64::ZERO; dims.nv];
    for ic in 0..dims.nc {
        for (itl, it) in nt_range.clone().enumerate() {
            let mut x: Vec<Complex64> = (0..dims.nv).map(|iv| h(ic, iv, it)).collect();
            cm.apply(ic, itl, &mut x, &mut scratch);
            for (iv, z) in x.into_iter().enumerate() {
                out[(ic, iv, itl)] = z;
            }
        }
    }
    out
}

/// Every kernel level the tuner may pick in this process.
pub(crate) fn kernels_under_test() -> Vec<SimdLevel> {
    xg_linalg::available_levels()
}

/// Deterministic dense state of member `sim` at global `(ic, iv, it)`.
fn state(input: &CgyroInput, sim: usize) -> impl Fn(usize, usize, usize) -> Complex64 {
    let dims = input.dims();
    move |ic, iv, it| {
        let i = (((sim * dims.nc + ic) * dims.nv + iv) * dims.nt + it) as f64;
        Complex64::new((i * 0.37).sin(), (i * 0.53).cos())
    }
}

/// The Figure-3 wiring of xgyro-core: k simulations of `grid` ranks each,
/// one coll communicator per toroidal slice. Returns this rank's member
/// index and topology.
fn shared_coll_topology(
    input: &CgyroInput,
    grid: ProcGrid,
    k: usize,
    comm: Communicator,
) -> (usize, DistTopology) {
    let sim = comm.rank() / grid.size();
    let (i1, i2) = grid.coords(comm.rank() % grid.size());
    let sim_comm = comm.split(sim as u64, grid.rank(i1, i2) as u64, "sim");
    let nv_comm = sim_comm.split(i2 as u64, i1 as u64, "nv");
    let nt_comm = sim_comm.split(i1 as u64, i2 as u64, "nt");
    let coll_comm = comm.split(i2 as u64, (sim * grid.n1 + i1) as u64, "coll-ens");
    let topo = DistTopology::xgyro(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, k);
    (sim, topo)
}

#[test]
fn built_topologies_run_the_tuned_level() {
    // The level a topology builds with is the one `apply_panel_multi` (and
    // so the benchmark's kernel probe) runs at the same shape.
    let input = CgyroInput::test_small();
    let nv = input.dims().nv;
    assert_eq!(SerialTopology::new(&input).kernel, xg_linalg::tuned_level(nv, 1));
    let (grid, k) = (ProcGrid::new(2, 1), 3);
    let levels = World::new(k * grid.size())
        .run(|comm| shared_coll_topology(&input, grid, k, comm).1.kernel);
    for level in levels {
        assert_eq!(level, xg_linalg::tuned_level(nv, k));
    }
}

#[test]
fn serial_step_is_the_reference_for_every_kernel() {
    let input = CgyroInput::test_small();
    let dims = input.dims();
    let want = naive_collision_step(&input, 0..dims.nt, state(&input, 0));
    let mut topo = SerialTopology::new(&input);
    for kernel in kernels_under_test() {
        topo.kernel = kernel;
        let mut h = Tensor3::from_fn(dims.nc, dims.nv, dims.nt, state(&input, 0));
        topo.collision_step(&mut h);
        assert_eq!(h.as_slice(), want.as_slice(), "kernel {kernel}");
    }
}

#[test]
fn dist_step_is_the_reference_for_every_kernel() {
    let input = CgyroInput::test_small();
    let dims = input.dims();
    let kernels = kernels_under_test();
    for (n1, n2, k) in [(2, 1, 1), (2, 1, 3), (2, 2, 1), (2, 2, 3)] {
        let grid = ProcGrid::new(n1, n2);
        let diverged = World::new(k * grid.size()).run(|comm| {
            let (sim, mut topo) = shared_coll_topology(&input, grid, k, comm);
            let (nv_r, nt_r) = (topo.layout.nv_range(), topo.layout.nt_range());
            let state = state(&input, sim);
            let full = naive_collision_step(&input, nt_r.clone(), &state);
            let want = Tensor3::from_fn(dims.nc, nv_r.len(), nt_r.len(), |ic, ivl, itl| {
                full[(ic, nv_r.start + ivl, itl)]
            });
            // Every rank steps through the same kernel list, so the
            // transposes stay matched; mismatches are reported, not
            // asserted, to keep the collectives in lockstep.
            let mut diverged = Vec::new();
            for &kernel in &kernels {
                topo.kernel = kernel;
                let mut h = Tensor3::from_fn(dims.nc, nv_r.len(), nt_r.len(), |ic, ivl, itl| {
                    state(ic, nv_r.start + ivl, nt_r.start + itl)
                });
                topo.collision_step(&mut h);
                if h.as_slice() != want.as_slice() {
                    diverged.push(kernel.to_string());
                }
            }
            diverged
        });
        for (rank, d) in diverged.iter().enumerate() {
            assert!(d.is_empty(), "grid {n1}x{n2} k={k} rank {rank}: {d:?}");
        }
    }
}
