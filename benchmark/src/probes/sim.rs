//! xg-sim: the full cmat build on one thread, and the plain single-threaded
//! simulation that every distributed number is read against.

use super::Ctx;
use crate::metrics::Outcome;
use std::time::Instant;
use xg_sim::{SerialTopology, Simulation};

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let t = Instant::now();
    let topo = SerialTopology::new(ctx.deck);
    out.push("sim.cmat_build_s", t.elapsed().as_secs_f64(), 1);

    let mut sim = Simulation::new(ctx.deck.clone(), topo);
    let steps = ctx.deck.steps_per_report;
    sim.run_steps(1);
    let t = Instant::now();
    sim.run_steps(steps);
    out.push(
        "sim.serial_step_ms",
        t.elapsed().as_secs_f64() * 1e3 / steps as f64,
        steps,
    );
}
