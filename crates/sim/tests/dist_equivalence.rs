//! Distributed-vs-serial equivalence: a CGYRO run on any `n1 × n2` process
//! grid must reproduce the serial reference (to reduction roundoff), and
//! identical decompositions must be bitwise-reproducible.

use xg_comm::World;
use xg_linalg::{norms::max_deviation, Complex64};
use xg_sim::{serial_simulation, CgyroInput, DistTopology, Simulation};
use xg_tensor::{ProcGrid, Tensor3};

/// Run a distributed CGYRO simulation on `grid`, return the reassembled
/// global distribution (str layout: `(nc, nv, nt)`) after `steps` steps,
/// plus the per-rank diagnostics.
fn run_dist(input: &CgyroInput, grid: ProcGrid, steps: usize) -> (Tensor3<Complex64>, Vec<xg_sim::Diagnostics>) {
    let dims = input.dims();
    let world = World::new(grid.size());
    let results = world.run(|comm| {
        let topo = DistTopology::cgyro(input, grid, comm);
        let layout = xg_tensor::PhaseLayout::new(dims, grid, topo.sim_comm().rank());
        let mut sim = Simulation::new(input.clone(), topo);
        sim.run_steps(steps);
        let d = sim.diagnostics();
        let h = sim.h().clone();
        (layout.nv_range(), layout.nt_range(), h, d)
    });
    // Reassemble into the global tensor.
    let mut global = Tensor3::new(dims.nc, dims.nv, dims.nt);
    let mut diags = Vec::new();
    for (nv_r, nt_r, h, d) in results {
        for ic in 0..dims.nc {
            for (ivl, iv) in nv_r.clone().enumerate() {
                for (itl, it) in nt_r.clone().enumerate() {
                    global[(ic, iv, it)] = h[(ic, ivl, itl)];
                }
            }
        }
        diags.push(d);
    }
    (global, diags)
}

fn serial_reference(input: &CgyroInput, steps: usize) -> (Tensor3<Complex64>, xg_sim::Diagnostics) {
    let mut sim = serial_simulation(input);
    sim.run_steps(steps);
    let d = sim.diagnostics();
    (sim.h().clone(), d)
}

#[test]
fn one_rank_grid_matches_serial_bitwise() {
    let input = CgyroInput::test_small();
    let (serial, _) = serial_reference(&input, 4);
    let (dist, _) = run_dist(&input, ProcGrid::new(1, 1), 4);
    assert_eq!(serial.as_slice(), dist.as_slice());
}

#[test]
fn split_nv_matches_serial() {
    let input = CgyroInput::test_small();
    let (serial, _) = serial_reference(&input, 4);
    for n1 in [2usize, 3, 4] {
        let (dist, _) = run_dist(&input, ProcGrid::new(n1, 1), 4);
        let dev = max_deviation(serial.as_slice(), dist.as_slice());
        assert!(dev < 1e-12, "n1={n1}: deviation {dev}");
    }
}

#[test]
fn split_nt_matches_serial() {
    let input = CgyroInput::test_small();
    let (serial, _) = serial_reference(&input, 4);
    let (dist, _) = run_dist(&input, ProcGrid::new(1, 2), 4);
    let dev = max_deviation(serial.as_slice(), dist.as_slice());
    assert!(dev < 1e-12, "deviation {dev}");
}

#[test]
fn full_2d_grid_matches_serial() {
    let input = CgyroInput::test_medium();
    let (serial, sd) = serial_reference(&input, 3);
    let (dist, dd) = run_dist(&input, ProcGrid::new(3, 2), 3);
    let dev = max_deviation(serial.as_slice(), dist.as_slice());
    assert!(dev < 1e-11, "deviation {dev}");
    // Diagnostics agree across every rank and with serial.
    for d in &dd {
        assert!((d.field_energy - sd.field_energy).abs() < 1e-10 * (1.0 + sd.field_energy));
        assert!((d.h_norm2 - sd.h_norm2).abs() < 1e-10 * (1.0 + sd.h_norm2));
        assert!((d.heat_flux - sd.heat_flux).abs() < 1e-10 * (1.0 + sd.heat_flux.abs()));
    }
}

#[test]
fn uneven_decompositions_match_serial() {
    // nv = 24, nt = 2 in test_small; use part counts that do not divide.
    let input = CgyroInput::test_small();
    let (serial, _) = serial_reference(&input, 3);
    let (dist, _) = run_dist(&input, ProcGrid::new(5, 2), 3);
    let dev = max_deviation(serial.as_slice(), dist.as_slice());
    assert!(dev < 1e-12, "deviation {dev}");
}

#[test]
fn same_grid_twice_is_bitwise_identical() {
    let input = CgyroInput::test_small();
    let (a, _) = run_dist(&input, ProcGrid::new(2, 2), 5);
    let (b, _) = run_dist(&input, ProcGrid::new(2, 2), 5);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn nonlinear_run_matches_serial() {
    let mut input = CgyroInput::test_small();
    input.nonlinear_coupling = 0.2; // exercise the nl transposes hard
    let (serial, _) = serial_reference(&input, 4);
    let (dist, _) = run_dist(&input, ProcGrid::new(2, 2), 4);
    let dev = max_deviation(serial.as_slice(), dist.as_slice());
    assert!(dev < 1e-12, "deviation {dev}");
}

#[test]
fn nt8_nl_run_matches_serial() {
    // nt = 8, the benchmark's streaming deck's toroidal size, inside a
    // complete distributed simulation (transposes + bracket + collisions).
    let mut input = CgyroInput::test_small();
    input.n_toroidal = 8;
    input.nonlinear_coupling = 0.15;
    let (serial, _) = serial_reference(&input, 3);
    let (dist, _) = run_dist(&input, ProcGrid::new(2, 2), 3);
    let dev = max_deviation(serial.as_slice(), dist.as_slice());
    assert!(dev < 1e-12, "deviation {dev}");
}

// With `n2 = 1` the nl term is evaluated in place on the str layout; with
// `n2 = 2` it is transposed through the nl layout and back. A grid's `n2`
// split is bitwise-neutral, so the two paths must agree bit for bit.
fn assert_nl_in_place_matches_transposed(input: &CgyroInput, steps: usize) {
    for n1 in [1usize, 2, 3] {
        let (in_place, _) = run_dist(input, ProcGrid::new(n1, 1), steps);
        let (transposed, _) = run_dist(input, ProcGrid::new(n1, 2), steps);
        assert_eq!(in_place.as_slice(), transposed.as_slice(), "n1={n1}: {n1}x1 vs {n1}x2");
    }
}

#[test]
fn nl_in_place_matches_transposed_bitwise() {
    let mut input = CgyroInput::test_small();
    input.nonlinear_coupling = 0.2;
    assert_nl_in_place_matches_transposed(&input, 4);
}

#[test]
fn nl_in_place_matches_transposed_bitwise_nt8() {
    let mut input = CgyroInput::test_small();
    input.n_toroidal = 8;
    input.nonlinear_coupling = 0.15;
    assert_nl_in_place_matches_transposed(&input, 3);
}

#[test]
fn comm_pattern_shows_nv_comm_reuse() {
    // Figure 1: in CGYRO mode the SAME communicator (label "nv") performs
    // both the str AllReduce and the coll AllToAll.
    let input = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    let world = World::new(grid.size());
    let out = world.run_with_logs(|comm| {
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.step();
    });
    for (_, log) in out {
        let ar: Vec<_> = log
            .iter()
            .filter(|r| r.op == xg_comm::OpKind::AllReduce && r.phase == "str")
            .collect();
        // 1 fused AllReduce (field + upwind packed) × 4 RK stages.
        assert_eq!(ar.len(), 4, "expected 4 fused str AllReduces, got {}", ar.len());
        assert!(ar.iter().all(|r| r.comm_label == "nv"));
        let a2a: Vec<_> = log
            .iter()
            .filter(|r| r.op == xg_comm::OpKind::AllToAll && r.phase == "coll")
            .collect();
        // One full-state transpose there and one back (Figure 1),
        // whatever nt_loc is (2 here).
        assert_eq!(a2a.len(), 2, "coll transpose there and back");
        assert!(
            a2a.iter().all(|r| r.comm_label == "nv"),
            "CGYRO must reuse the nv communicator for the coll transpose"
        );
    }
}
