//! Persistent-buffer recycling in the dist collision transposes. (That one
//! `collision_step` equals the naive per-profile reference for every kernel
//! the tuner may pick is checked inside the crate, where the `kernel` field
//! can be set: `src/collision_tests.rs`.)

use xg_comm::World;
use xg_sim::{CgyroInput, DistTopology, Simulation};
use xg_tensor::ProcGrid;

#[test]
fn dist_collision_recycles_transpose_buffers() {
    // The drained-capacity counter must grow from the very first step (the
    // reverse transpose reuses the forward receive blocks) and keep
    // growing each step (steady-state ping-pong of all four block sets).
    let input = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    let world = World::new(grid.size());
    let counters = world.run(|comm| {
        let log = comm.log().clone();
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.step();
        let after_one = log.drained_capacity_bytes();
        sim.step();
        let after_two = log.drained_capacity_bytes();
        sim.step();
        let after_three = log.drained_capacity_bytes();
        (after_one, after_two, after_three)
    });
    for (after_one, after_two, after_three) in counters {
        assert!(after_one > 0, "first step must already recycle forward recv blocks");
        assert!(after_two > after_one, "second step must recycle more capacity");
        // Steady state: each step recycles the same (positive) volume.
        assert_eq!(after_three - after_two, after_two - after_one);
    }
}
