//! End-to-end pipeline across every crate: plan a campaign, execute it
//! functionally, account its traffic with the cost model, and check the
//! pieces agree with each other.

use xgyro_repro::cluster;
use xgyro_repro::costmodel::{trace_breakdown, MachineModel, Placement};
use xgyro_repro::sim::CgyroInput;
use xgyro_repro::tensor::ProcGrid;
use xgyro_repro::xgyro::{gradient_sweep, run_cgyro_baseline, run_xgyro};

#[test]
fn campaign_pipeline_hangs_together() {
    // 1. Plan: a small deck on the small-cluster model.
    let input = CgyroInput::test_medium();
    let machine = MachineModel::small_cluster();
    let plan = cluster::min_nodes(&input, 1, &machine, 16).expect("deck fits");
    assert!(plan.feasible());

    // 2. Execute functionally. The planner may legitimately pick n1 = 1
    //    (toroidal-only split) for tiny decks; force a grid that actually
    //    exercises the nv communicator so there is traffic to account.
    let grid = if plan.grid.n1 > 1 && plan.grid.size() <= 8 {
        plan.grid
    } else {
        ProcGrid::new(2, 2)
    };
    let cfg = gradient_sweep(&input, 2, grid);
    let xg = run_xgyro(&cfg, 2);
    let cg = run_cgyro_baseline(&cfg, 2);

    // 3. Account the functional traces with the cost model: XGYRO's
    //    str-phase AllReduce must be priced at most as high as CGYRO's
    //    (fewer participants, same bytes).
    let placement = Placement { ranks_per_node: machine.ranks_per_node };
    let xg_b = trace_breakdown(&machine, placement, &xg.traces[0]);
    let cg_b = trace_breakdown(&machine, placement, &cg.traces[0]);
    let xg_str = xg_b.get("str", "comm:AllReduce");
    let cg_str = cg_b.get("str", "comm:AllReduce");
    assert!(xg_str > 0.0 && cg_str > 0.0);
    assert!(
        xg_str <= cg_str + 1e-12,
        "ensemble AllReduce must not cost more: {xg_str} vs {cg_str}"
    );
}

#[test]
fn planner_grid_runs_functionally() {
    // Whatever grid the planner picks for a small deck must actually work
    // in the functional runner and match the serial reference.
    let input = CgyroInput::test_small();
    let machine = MachineModel::small_cluster();
    let plan = cluster::plan(&input, 1, 1, &machine).expect("valid plan on one node");
    let grid = plan.grid;
    assert!(grid.size() <= 8, "small-cluster node has 4 ranks");
    let cfg = xgyro_repro::xgyro::EnsembleConfig::new(vec![input.clone()], grid).unwrap();
    let xg = run_xgyro(&cfg, 3);
    let mut serial = xgyro_repro::sim::serial_simulation(&input);
    serial.run_steps(3);
    let dev = xgyro_repro::linalg::norms::max_deviation(
        serial.h().as_slice(),
        xg.sims[0].h.as_slice(),
    );
    assert!(dev < 1e-11, "deviation {dev}");
}

#[test]
fn memory_law_matches_functional_allocation() {
    // The analytic memory law and the bytes actually held by the
    // functional runners must agree exactly for cmat.
    let input = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    let k = 4;
    let cfg = gradient_sweep(&input, k, grid);
    let xg = run_xgyro(&cfg, 1);
    let law = xgyro_repro::xgyro::cmat_memory_law(&cfg);
    for sim in &xg.sims {
        for &b in &sim.cmat_bytes_per_rank {
            assert_eq!(b, law.xgyro_per_rank, "functional allocation obeys the law");
        }
    }
    // And the planner's inventory uses the same constant-tensor size law.
    let inv = cluster::rank_inventory(&input, grid, k * grid.n1);
    let cmat = cluster::total_bytes(&inv, Some(cluster::BufferCategory::Constant));
    assert_eq!(cmat, law.xgyro_per_rank);
}

#[test]
fn figure2_pipeline_is_consistent_with_planner() {
    // The F2 scenario must use plans the planner itself considers valid
    // and feasible.
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let cg = cluster::plan(&input, 1, 32, &machine).unwrap();
    let xg = cluster::plan(&input, 8, 32, &machine).unwrap();
    assert!(cg.feasible() && xg.feasible());
    assert_eq!(cg.grid.size() , 256);
    assert_eq!(xg.grid.size() * 8, 256);
    // Same toroidal split in both (the paper keeps nt fixed).
    assert_eq!(cg.grid.n2, xg.grid.n2);
    // AllReduce participants drop exactly k-fold.
    assert_eq!(cg.grid.n1, 8 * xg.grid.n1);
}
