//! Degraded-mode recovery acceptance tests.
//!
//! The headline property (ISSUE acceptance): crash one member of a k=4
//! ensemble mid-run, let the survivors roll back to the last coherent
//! checkpoint and continue as k=3 — and the surviving members' final
//! states are **bitwise identical** to an unfaulted k=3 run of the same
//! decks. Member trajectories couple only through the shared *constant*
//! tensor, and reductions are rank-order deterministic, so eviction must
//! not perturb the survivors at all.

use std::time::Duration;
use xg_comm::{FaultKind, FaultPlan, FaultSpec, OpKind};
use xg_sim::CgyroInput;
use xg_tensor::{ProcGrid, RaggedDecomp};
use xgyro_core::{
    gradient_sweep, run_xgyro, run_xgyro_resilient_from, EnsembleConfig, EnsembleError,
};

const DEADLINE: Duration = Duration::from_secs(60);

/// The unfaulted comparison ensemble: the sweep members of `cfg` minus the
/// evicted one, as their own (k−1)-member config.
fn survivors_config(cfg: &EnsembleConfig, evicted: usize) -> EnsembleConfig {
    let members: Vec<CgyroInput> = cfg
        .members()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != evicted)
        .map(|(_, m)| m.clone())
        .collect();
    EnsembleConfig::new(members, cfg.grid()).expect("survivors still share cmat")
}

/// Non-fault ops issued by `rank` across `traces` (one entry per rank) —
/// the op-counter value the fault substrate would have after the run.
fn ops_of_rank(traces: &[Vec<xg_comm::OpRecord>], rank: usize) -> u64 {
    traces[rank]
        .iter()
        .filter(|r| !matches!(r.op, OpKind::Fault | OpKind::Recover))
        .count() as u64
}

#[test]
fn crash_before_first_checkpoint_restarts_degraded() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 3, ProcGrid::new(1, 1));
    // Rank 1 == member 1 (one rank per sim). Crash early: no checkpoint
    // exists yet, so the survivors restart from scratch as k=2.
    let plan = FaultPlan::crash(1, 5);
    let out = run_xgyro_resilient_from(&cfg, None, 6, 3, plan, DEADLINE).expect("recoverable");

    assert_eq!(out.events.len(), 1);
    let ev = &out.events[0];
    assert_eq!(ev.failed_rank, 1);
    assert_eq!(ev.failed_member, 1);
    assert_eq!(ev.resumed_from_step, 0);
    assert_eq!(ev.survivors, vec![0, 2]);
    assert_eq!(out.surviving_members, vec![0, 2]);
    assert_eq!(out.checkpoint.steps_taken(), 6);

    // Bitwise equality with a fresh, unfaulted k=2 run of the survivors.
    let clean = run_xgyro(&survivors_config(&cfg, 1), 6);
    assert_eq!(out.outcome.sims.len(), 2);
    for (got, want) in out.outcome.sims.iter().zip(clean.sims.iter()) {
        assert_eq!(got.h, want.h, "survivor (original member {}) diverged", got.sim);
    }
    assert_eq!(out.outcome.sims[0].sim, 0);
    assert_eq!(out.outcome.sims[1].sim, 2);
}

#[test]
fn crash_after_checkpoint_resumes_from_rollback_bitwise() {
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    let cfg = gradient_sweep(&base, 4, grid);

    // Calibrate: how many ops does a rank issue in one 4-step segment?
    // Target the crash a few ops *past* that, so it lands in segment 2 —
    // after the step-4 checkpoint exists.
    let probe = run_xgyro_resilient_from(&cfg, None, 4, 4, FaultPlan::new(), DEADLINE)
        .expect("probe run");
    let seg_ops = ops_of_rank(&probe.outcome.traces, 5);
    assert!(seg_ops > 0);

    let plan = FaultPlan::new().with(FaultSpec {
        rank: 5, // sim 2 owns world ranks 4..6 under a 2-rank grid
        at_op: seg_ops + 3,
        kind: FaultKind::Crash,
    });
    let out = run_xgyro_resilient_from(&cfg, None, 8, 4, plan, DEADLINE).expect("recoverable");

    assert_eq!(out.events.len(), 1);
    let ev = &out.events[0];
    assert_eq!(ev.failed_rank, 5);
    assert_eq!(ev.failed_member, 2);
    assert_eq!(ev.resumed_from_step, 4, "must roll back to the step-4 checkpoint");
    assert_eq!(ev.steps_replayed, 4);
    assert_eq!(out.steps_replayed, 4);
    assert_eq!(out.surviving_members, vec![0, 1, 3]);
    assert_eq!(out.checkpoint.steps_taken(), 8);
    assert_eq!(out.checkpoint.k(), 3);

    // The acceptance property: survivors bitwise-equal an unfaulted k=3
    // run — even though they spent steps 0..4 inside a k=4 ensemble and
    // resumed from a checkpoint carved out of it.
    let clean = run_xgyro(&survivors_config(&cfg, 2), 8);
    assert_eq!(out.outcome.sims.len(), 3);
    for (got, want) in out.outcome.sims.iter().zip(clean.sims.iter()) {
        assert_eq!(got.h, want.h, "survivor (original member {}) diverged", got.sim);
    }

    // The aborted segment's traces carry the injected Fault record and the
    // survivors' Recover records.
    let faults: usize =
        out.outcome.traces.iter().flatten().filter(|r| r.op == OpKind::Fault).count();
    let recovers: usize =
        out.outcome.traces.iter().flatten().filter(|r| r.op == OpKind::Recover).count();
    assert_eq!(faults, 1, "exactly one injected crash");
    assert_eq!(recovers, 7, "every survivor of the 8-rank world logs the recovery");
}

#[test]
fn crash_in_a_ragged_layout_recovers_on_the_balanced_split() {
    // A planned ragged coll layout does not outlive an eviction: the
    // survivors reopen on the balanced split, and since coll cuts are
    // bitwise-neutral they still equal an unfaulted run of themselves.
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 3, ProcGrid::new(2, 2));
    let nc = base.dims().nc;
    let cuts = RaggedDecomp::weighted(nc, &[1.0, 1.0, 1.0, 1.0, 1.0, 0.5]).counts();
    assert_eq!(cuts, vec![6, 6, 6, 6, 5, 3]);
    let cfg = cfg.with_coll_cuts(Some(cuts)).expect("valid ragged layout");

    // Rank 5 belongs to member 1 (world ranks 4..8 under a 4-rank grid).
    let plan = FaultPlan::crash(5, 4);
    let out = run_xgyro_resilient_from(&cfg, None, 6, 3, plan, DEADLINE).expect("recoverable");

    assert_eq!(out.events.len(), 1);
    assert_eq!(out.events[0].failed_member, 1);
    assert_eq!(out.surviving_members, vec![0, 2]);
    let clean = run_xgyro(&survivors_config(&cfg, 1), 6);
    assert_eq!(out.outcome.sims.len(), 2);
    for (got, want) in out.outcome.sims.iter().zip(clean.sims.iter()) {
        assert_eq!(got.h, want.h, "survivor (original member {}) diverged", got.sim);
    }
}

#[test]
fn delay_fault_is_traced_but_harmless() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let plan = FaultPlan::new().with(FaultSpec {
        rank: 1,
        at_op: 3,
        kind: FaultKind::Delay(20), // well under the deadline
    });
    let out =
        run_xgyro_resilient_from(&cfg, None, 4, 2, plan, DEADLINE).expect("no recovery needed");
    assert!(out.events.is_empty());
    assert_eq!(out.surviving_members, vec![0, 1]);
    let fault_recs: Vec<_> = out
        .outcome
        .traces
        .iter()
        .flatten()
        .filter(|r| r.op == OpKind::Fault)
        .collect();
    assert_eq!(fault_recs.len(), 1);
    assert_eq!(fault_recs[0].bytes, 20_000, "bytes carry the downtime in µs");

    // And the run is bitwise-identical to one with no plan at all.
    let clean = run_xgyro(&cfg, 4);
    for (got, want) in out.outcome.sims.iter().zip(clean.sims.iter()) {
        assert_eq!(got.h, want.h);
    }
}

#[test]
fn seeded_recovery_is_deterministic() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 3, ProcGrid::new(1, 1));
    let plan = FaultPlan::seeded_crash(42, cfg.total_ranks(), 12);
    let a = run_xgyro_resilient_from(&cfg, None, 6, 3, plan.clone(), DEADLINE)
        .expect("recoverable");
    let b = run_xgyro_resilient_from(&cfg, None, 6, 3, plan, DEADLINE).expect("recoverable");
    assert_eq!(a.checkpoint, b.checkpoint);
    assert_eq!(a.surviving_members, b.surviving_members);
    assert_eq!(a.events.len(), b.events.len());
}

#[test]
fn evicting_the_last_member_is_an_error() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 1, ProcGrid::new(1, 1));
    assert_eq!(cfg.evict_member(0).unwrap_err(), EnsembleError::Empty);

    // And a crash in a k=1 "ensemble" is unrecoverable end-to-end.
    let err = run_xgyro_resilient_from(&cfg, None, 4, 2, FaultPlan::crash(0, 3), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, xgyro_core::RecoveryError::Ensemble(EnsembleError::Empty)));
}

#[test]
fn segmented_resume_is_bitwise_identical_to_one_shot() {
    // The serving path: a batch runs in bounded segments, each seeded from
    // the previous segment's checkpoint. Splitting must be invisible.
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let whole = run_xgyro(&cfg, 6);
    let first = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        None,
        3,
        3,
        FaultPlan::new(),
        DEADLINE,
    )
    .expect("clean first segment");
    assert_eq!(first.checkpoint.steps_taken(), 3);
    let second = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        Some(first.checkpoint),
        3,
        3,
        FaultPlan::new(),
        DEADLINE,
    )
    .expect("clean second segment");
    assert_eq!(second.checkpoint.steps_taken(), 6);
    for (got, want) in second.outcome.sims.iter().zip(whole.sims.iter()) {
        assert_eq!(got.h, want.h, "segmented member {} diverged", got.sim);
    }
}

#[test]
fn resume_rejects_a_foreign_checkpoint() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let seg = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        None,
        2,
        2,
        FaultPlan::new(),
        DEADLINE,
    )
    .expect("clean run");
    // A different collisionality is a different ensemble identity.
    let mut hot = base.clone();
    hot.nu_ee *= 2.0;
    let other = gradient_sweep(&hot, 2, ProcGrid::new(1, 1));
    let err = xgyro_core::run_xgyro_resilient_from(
        &other,
        Some(seg.checkpoint),
        2,
        2,
        FaultPlan::new(),
        DEADLINE,
    )
    .unwrap_err();
    assert!(matches!(err, xgyro_core::RecoveryError::Checkpoint(_)), "{err}");
}

#[test]
fn segmented_resume_recovers_from_mid_segment_faults() {
    // A fault in the *second* serving segment evicts the member without
    // poisoning the checkpoint chain: survivors end bitwise-identical to
    // an unfaulted run of the survivors alone.
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 3, ProcGrid::new(1, 1));
    let first = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        None,
        3,
        3,
        FaultPlan::new(),
        DEADLINE,
    )
    .expect("clean first segment");
    // Each call runs in a fresh world, so the second call's op counters
    // start at zero: op 4 lands inside the resumed segment.
    let second = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        Some(first.checkpoint),
        3,
        3,
        FaultPlan::crash(1, 4),
        DEADLINE,
    )
    .expect("recoverable");
    assert_eq!(second.surviving_members, vec![0, 2]);
    assert_eq!(second.checkpoint.steps_taken(), 6);
    let clean = run_xgyro(&survivors_config(&cfg, 1), 6);
    for (got, want) in second.outcome.sims.iter().zip(clean.sims.iter()) {
        assert_eq!(got.h, want.h, "survivor (original member {}) diverged", got.sim);
    }
}
