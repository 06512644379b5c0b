//! CFL monitoring and the sum-reduce collective.

use xg_comm::World;
use xg_sim::{serial_simulation, CgyroInput, DistTopology, Simulation};
use xg_tensor::ProcGrid;

#[test]
fn cfl_estimate_consistent_serial_vs_distributed() {
    let input = CgyroInput::test_small();
    let serial_cfl = serial_simulation(&input).cfl_estimate();
    assert!(serial_cfl > 0.0 && serial_cfl.is_finite());

    let grid = ProcGrid::new(3, 1);
    let dist_cfls = World::new(grid.size()).run(|comm| {
        let topo = DistTopology::cgyro(&input, grid, comm);
        Simulation::new(input.clone(), topo).cfl_estimate()
    });
    for c in dist_cfls {
        assert!(
            (c - serial_cfl).abs() < 1e-12 * serial_cfl,
            "{c} vs {serial_cfl}"
        );
    }
}

#[test]
fn cfl_scales_with_timestep_and_resolution() {
    let base = CgyroInput::test_small();
    let c0 = serial_simulation(&base).cfl_estimate();
    let mut fast = base.clone();
    fast.delta_t *= 2.0;
    assert!((serial_simulation(&fast).cfl_estimate() - 2.0 * c0).abs() < 1e-12 * c0);
    let mut fine = base.clone();
    fine.n_theta *= 2;
    assert!(serial_simulation(&fine).cfl_estimate() > 1.5 * c0);
}

#[test]
fn reduce_sum_delivers_on_every_rank() {
    let out = World::new(4).run(|c| {
        let mut buf = vec![c.rank() as f64 + 1.0, 10.0];
        c.all_reduce_sum_f64(&mut buf);
        buf
    });
    assert_eq!(out, vec![vec![10.0, 40.0]; 4]);
}
