//! Capacity-aware post-eviction rebalancing.
//!
//! When a member is evicted on a heterogeneous machine, the uniform shrink
//! gates the degraded run on the slowest surviving rank.
//! `run_xgyro_resilient_with_capacities` instead re-apportions the shared
//! coll rows to the survivors' actual speeds. The headline properties:
//!
//! * the rebalanced continuation is **bitwise identical** to the
//!   uniform-shrink one (coll cuts only move whole `(ic, it)` collision
//!   matvecs between ranks — no sum is reassociated);
//! * skewed capacities move rows (reported per event and on the obs
//!   registry), uniform capacities move none;
//! * the rebalanced cuts track the capacity ratios.

use std::time::Duration;
use xg_comm::FaultPlan;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{
    gradient_sweep, run_xgyro_resilient, run_xgyro_resilient_with_capacities,
};

const DEADLINE: Duration = Duration::from_secs(60);

/// k=3 sweep on a 2x2 grid: 12 world ranks, 4 per member.
fn config() -> xgyro_core::EnsembleConfig {
    gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(2, 2))
}

/// Per-original-rank capacities: member 2's ranks run at half speed.
fn skewed_capacities() -> Vec<f64> {
    let mut caps = vec![1.0; 12];
    for c in caps.iter_mut().skip(8) {
        *c = 0.5;
    }
    caps
}

#[test]
fn rebalanced_recovery_is_bitwise_identical_to_uniform_shrink() {
    let cfg = config();
    // Crash a rank of member 1; survivors are members {0, 2} and member
    // 2's ranks are half-speed, so the surviving coll positions have
    // non-uniform capacities and the rebuild must rebalance.
    let plan = FaultPlan::crash(5, 4);
    let uniform =
        run_xgyro_resilient(&cfg, 6, 3, plan.clone(), DEADLINE).expect("recoverable");
    let rebalanced = run_xgyro_resilient_with_capacities(
        &cfg,
        None,
        6,
        3,
        plan,
        DEADLINE,
        Some(&skewed_capacities()),
    )
    .expect("recoverable");

    // Same eviction, same survivors...
    assert_eq!(uniform.events.len(), 1);
    assert_eq!(rebalanced.events.len(), 1);
    assert_eq!(rebalanced.events[0].failed_member, 1);
    assert_eq!(rebalanced.surviving_members, vec![0, 2]);
    // ...but only the capacity-aware run moved rows.
    assert_eq!(uniform.events[0].moved_rows, 0);
    assert!(rebalanced.events[0].moved_rows > 0, "skewed capacities must move rows");

    // The rebalanced continuation is bitwise identical: per-member final
    // states and the coherent checkpoint images.
    for (u, r) in uniform.outcome.sims.iter().zip(&rebalanced.outcome.sims) {
        assert_eq!(u.sim, r.sim);
        assert_eq!(u.h.as_slice(), r.h.as_slice(), "member {} diverged", u.sim);
    }
    assert_eq!(uniform.checkpoint.steps_taken(), rebalanced.checkpoint.steps_taken());
    assert_eq!(
        uniform.checkpoint.to_bytes(),
        rebalanced.checkpoint.to_bytes(),
        "serialized checkpoints must match bytewise"
    );
}

#[test]
fn uniform_capacities_do_not_rebalance() {
    let cfg = config();
    let out = run_xgyro_resilient_with_capacities(
        &cfg,
        None,
        6,
        3,
        FaultPlan::crash(5, 4),
        DEADLINE,
        Some(&[1.0; 12]),
    )
    .expect("recoverable");
    assert_eq!(out.events.len(), 1);
    assert_eq!(out.events[0].moved_rows, 0, "uniform capacities are a uniform shrink");
}

#[test]
fn rebalance_records_on_the_obs_registry() {
    // The process-wide registry accumulates; measure the delta.
    let before = xg_obs::Registry::global().rebalance_stats();
    let out = run_xgyro_resilient_with_capacities(
        &config(),
        None,
        6,
        3,
        FaultPlan::crash(5, 4),
        DEADLINE,
        Some(&skewed_capacities()),
    )
    .expect("recoverable");
    let moved = out.events[0].moved_rows;
    assert!(moved > 0);
    let after = xg_obs::Registry::global().rebalance_stats();
    assert_eq!(after.0 - before.0, 1, "one rebalance event");
    assert_eq!(after.1 - before.1, moved, "counter matches the event's moved rows");
}
