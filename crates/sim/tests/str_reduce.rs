//! Acceptance tests for the fused str-phase reduction: exactly one
//! collective per RK stage, and bitwise identity with the per-moment
//! schedule (the `Topology::reduce_moment_block` default body, reached
//! through the [`PerMoment`] wrapper) including ragged decompositions.

use proptest::prelude::*;
use xg_comm::World;
use xg_linalg::Complex64;
use xg_sim::{CgyroInput, DistTopology, Simulation, Topology};
use xg_tensor::{PhaseLayout, ProcGrid, Tensor3};

/// Forwards everything to the wrapped topology except
/// `reduce_moment_block`, which is left on the trait's default body: one
/// `reduce_moment` per packed section — the per-moment reference schedule.
struct PerMoment(DistTopology);

impl Topology for PerMoment {
    fn reduce_moment(&self, buf: &mut [Complex64]) {
        self.0.reduce_moment(buf)
    }
    fn collision_step(&mut self, h: &mut Tensor3<Complex64>) {
        self.0.collision_step(h)
    }
    fn nl_term(&mut self, h: &Tensor3<Complex64>, phi: &[Complex64], out: &mut Tensor3<Complex64>) {
        self.0.nl_term(h, phi, out)
    }
    fn reduce_sim_scalars(&self, vals: &mut [f64]) {
        self.0.reduce_sim_scalars(vals)
    }
    fn reduce_sim_max(&self, vals: &mut [f64]) {
        self.0.reduce_sim_max(vals)
    }
    fn nv_root(&self) -> bool {
        self.0.nv_root()
    }
    fn set_phase(&self, phase: &str) {
        self.0.set_phase(phase)
    }
    fn layout(&self) -> PhaseLayout {
        self.0.layout()
    }
}

/// Run a distributed simulation under `wrap(topology)`, returning the
/// reassembled global distribution.
fn run_with<T: Topology>(
    input: &CgyroInput,
    grid: ProcGrid,
    steps: usize,
    wrap: fn(DistTopology) -> T,
) -> Tensor3<Complex64> {
    let dims = input.dims();
    let world = World::new(grid.size());
    let results = world.run(move |comm| {
        let topo = wrap(DistTopology::cgyro(input, grid, comm));
        let layout = topo.layout();
        let mut sim = Simulation::new(input.clone(), topo);
        sim.run_steps(steps);
        (layout.nv_range(), layout.nt_range(), sim.h().clone())
    });
    reassemble(dims, results)
}

fn run_fused(input: &CgyroInput, grid: ProcGrid, steps: usize) -> Tensor3<Complex64> {
    run_with(input, grid, steps, |t| t)
}

fn run_per_moment(input: &CgyroInput, grid: ProcGrid, steps: usize) -> Tensor3<Complex64> {
    run_with(input, grid, steps, PerMoment)
}

fn reassemble(
    dims: xg_tensor::SimDims,
    results: Vec<(
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        Tensor3<Complex64>,
    )>,
) -> Tensor3<Complex64> {
    let mut global = Tensor3::new(dims.nc, dims.nv, dims.nt);
    for (nv_r, nt_r, h) in results {
        for ic in 0..dims.nc {
            for (ivl, iv) in nv_r.clone().enumerate() {
                for (itl, it) in nt_r.clone().enumerate() {
                    global[(ic, iv, it)] = h[(ic, ivl, itl)];
                }
            }
        }
    }
    global
}

#[test]
fn fused_electrostatic_runs_one_collective_per_rk_stage() {
    // Acceptance criterion: an electrostatic step issues exactly ONE
    // str-phase collective per RK stage (4 stages), each carrying 2 packed
    // moments (phi + upwind).
    let input = CgyroInput::test_small();
    assert_eq!(input.beta_e, 0.0, "test_small must be electrostatic");
    let grid = ProcGrid::new(2, 1);
    let world = World::new(grid.size());
    let out = world.run_with_logs(|comm| {
        let log = comm.log().clone();
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.step();
        (
            log.fused_reduction_stats(),
            log.unfused_reduction_stats(),
        )
    });
    for (((fused_calls, fused_moments, fused_bytes), (unfused_calls, _)), records) in out {
        let str_collectives: Vec<_> = records
            .iter()
            .filter(|r| r.phase == "str")
            .collect();
        assert_eq!(
            str_collectives.len(),
            4,
            "one fused collective per RK stage, got {}",
            str_collectives.len()
        );
        assert!(str_collectives
            .iter()
            .all(|r| r.op == xg_comm::OpKind::AllReduce));
        // The TrafficLog counters agree: 4 fused calls carrying 2 moments
        // each, and no unfused str reductions at all.
        assert_eq!(fused_calls, 4);
        assert_eq!(fused_moments, 8);
        assert!(fused_bytes > 0);
        assert_eq!(unfused_calls, 0, "no unfused reductions when fused");
    }
}

#[test]
fn fused_electromagnetic_packs_three_moments_per_stage() {
    let mut input = CgyroInput::test_small();
    input.beta_e = 0.004;
    let grid = ProcGrid::new(2, 1);
    let world = World::new(grid.size());
    let out = world.run_with_logs(|comm| {
        let log = comm.log().clone();
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.step();
        log.fused_reduction_stats()
    });
    for ((calls, moments, _), records) in out {
        let n = records.iter().filter(|r| r.phase == "str").count();
        assert_eq!(n, 4, "EM fusion still one collective per stage");
        assert_eq!(calls, 4);
        assert_eq!(moments, 12, "phi + apar + upwind packed per stage");
    }
}

#[test]
fn per_moment_schedule_issues_separate_collectives_and_counts_them() {
    let input = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    let world = World::new(grid.size());
    let out = world.run_with_logs(|comm| {
        let log = comm.log().clone();
        let topo = PerMoment(DistTopology::cgyro(&input, grid, comm));
        let mut sim = Simulation::new(input.clone(), topo);
        sim.step();
        (log.fused_reduction_stats(), log.unfused_reduction_stats())
    });
    for (((fused_calls, _, _), (unfused_calls, unfused_bytes)), records) in out {
        let n = records.iter().filter(|r| r.phase == "str").count();
        assert_eq!(n, 8, "2 moments × 4 RK stages when unfused");
        assert_eq!(fused_calls, 0);
        assert_eq!(unfused_calls, 8);
        assert!(unfused_bytes > 0);
    }
}

#[test]
fn fused_and_per_moment_are_bitwise_identical_on_ragged_grids() {
    // nv = 24 in test_small; n1 = 5 gives parts [5,5,5,5,4] — ragged.
    let mut input = CgyroInput::test_small();
    input.nonlinear_coupling = 0.2;
    for grid in [ProcGrid::new(2, 1), ProcGrid::new(5, 1), ProcGrid::new(3, 2)] {
        let fused = run_fused(&input, grid, 3);
        let unfused = run_per_moment(&input, grid, 3);
        assert_eq!(
            fused.as_slice(),
            unfused.as_slice(),
            "fused vs per-moment differ on grid {}x{}",
            grid.n1,
            grid.n2
        );
    }
}

#[test]
fn electromagnetic_fused_and_per_moment_are_bitwise_identical() {
    let mut input = CgyroInput::test_small();
    input.beta_e = 0.004;
    let grid = ProcGrid::new(5, 1);
    let fused = run_fused(&input, grid, 3);
    let unfused = run_per_moment(&input, grid, 3);
    assert_eq!(fused.as_slice(), unfused.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance criterion: fused and per-moment reductions are bitwise
    /// identical for arbitrary small decks across ragged decompositions.
    #[test]
    fn fused_and_per_moment_bitwise_identical_for_any_deck(
        n_xi in 3usize..6,
        n_energy in 2usize..4,
        n_radial in 2usize..4,
        n1 in 2usize..6,
        em in 0usize..2,
        seed in 0u64..1000,
    ) {
        let em = em == 1;
        let mut input = CgyroInput::test_small();
        input.n_xi = n_xi;
        input.n_energy = n_energy;
        input.n_radial = n_radial;
        input.seed = seed;
        if em {
            input.beta_e = 0.003;
        }
        let grid = ProcGrid::new(n1, 1);
        let fused = run_fused(&input, grid, 2);
        let unfused = run_per_moment(&input, grid, 2);
        prop_assert_eq!(fused.as_slice(), unfused.as_slice());
    }
}
