//! xgyro-core: what a checkpointed segment costs beyond its steps — the
//! price the serving layer pays once per `ckpt_every` steps.

use super::{secs_per_call, Ctx};
use crate::metrics::Outcome;
use std::hint::black_box;
use std::time::{Duration, Instant};
use xg_comm::FaultPlan;
use xgyro_core::{
    run_xgyro_checkpointed, run_xgyro_resilient_from, EnsembleCheckpoint, EnsembleConfig,
};

/// `step_ms` is the workload's own measured time per step, so that the
/// stepping inside a segment can be taken out of the segment's wall.
pub fn measure(ctx: &Ctx, cfg: &EnsembleConfig, step_ms: f64, out: &mut Outcome) {
    let segment = ctx.deck.steps_per_report;
    let (_, checkpoint) =
        run_xgyro_checkpointed(cfg, segment, None).expect("a fresh ensemble checkpoints");
    let bytes = checkpoint.to_bytes();
    out.push("core.checkpoint_bytes", bytes.len() as f64, 1);
    let secs = secs_per_call(9, 1, || {
        let encoded = black_box(&checkpoint).to_bytes();
        black_box(EnsembleCheckpoint::from_bytes(&encoded).expect("round trip"));
    });
    out.push("core.checkpoint_encode_ms", secs * 1e3, 9);

    // One resumed segment, as `xgqueued` runs it: spawn a world, rebuild the
    // topology (and cmat), restore, step, checkpoint, gather.
    let mut walls = Vec::new();
    for _ in 0..3 {
        let resume = Some(checkpoint.clone());
        let t = Instant::now();
        let done = run_xgyro_resilient_from(
            cfg,
            resume,
            segment,
            segment,
            FaultPlan::new(),
            Duration::from_secs(30),
        );
        walls.push(t.elapsed().as_secs_f64());
        black_box(done.expect("a fault-free segment completes"));
    }
    let overhead = crate::stats::median(&walls) - segment as f64 * step_ms / 1e3;
    out.push("core.segment_restart_s", overhead, walls.len());
}
