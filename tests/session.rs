//! The persistent `EnsembleSession`: the world, with its op counters, lives
//! as long as the session, and every runner reports the real `cmat` bytes.
//! That a sliced, resumed or shrunk run is bitwise the uninterrupted one is
//! the contract's `cuts_*`, `resume_*` and `evict_*` rows
//! (`tests/contract.rs`).

use std::time::Duration;
use xgyro_repro::comm::{FaultPlan, OpKind, OpRecord};
use xgyro_repro::sim::CgyroInput;
use xgyro_repro::tensor::ProcGrid;
use xgyro_repro::xgyro::{
    gradient_sweep, run_xgyro, run_xgyro_checkpointed, run_xgyro_resilient_from, EnsembleConfig,
};

const DEADLINE: Duration = Duration::from_secs(10);

/// Operations `rank` issued, as the fault substrate counts them.
fn ops(trace: &[OpRecord]) -> u64 {
    trace.iter().filter(|r| !matches!(r.op, OpKind::Fault | OpKind::Recover)).count() as u64
}

#[test]
fn a_fault_in_the_third_segment_fires_at_its_global_op() {
    // Op counters live as long as the world: `at_op` is simply the number of
    // operations the rank issued since the run started, with no per-segment
    // rebase. Aim a crash a few ops into the third 10-step segment.
    let cfg = gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(2, 1));
    let rank = 3; // member 1
    let two_segments =
        ops(&run_xgyro_resilient_from(&cfg, None, 20, 10, FaultPlan::new(), DEADLINE)
            .unwrap()
            .outcome
            .traces[rank]);
    let at_op = two_segments + 5;

    let plan = FaultPlan::crash(rank, at_op);
    let out = run_xgyro_resilient_from(&cfg, None, 40, 10, plan, DEADLINE).unwrap();
    assert_eq!(out.events.len(), 1);
    let ev = &out.events[0];
    assert_eq!((ev.failed_rank, ev.failed_member), (rank, 1));
    assert_eq!(ev.resumed_from_step, 20, "two checkpoints existed when it fired");
    assert_eq!(ev.steps_replayed, 10);
    assert_eq!(out.outcome.traces.len(), 3 * 2 + 2 * 2, "one rebuild, at k-1");
    // The crashed rank's log: exactly `at_op` operations, then the fault.
    let crashed = &out.faulty_segments[0][rank];
    assert_eq!(ops(crashed), at_op);
    assert_eq!(crashed.last().map(|r| r.op), Some(OpKind::Fault));

    let survivors = vec![cfg.members()[0].clone(), cfg.members()[2].clone()];
    let alone = run_xgyro(&EnsembleConfig::new(survivors, cfg.grid()).unwrap(), 40);
    for (got, want) in out.outcome.sims.iter().zip(&alone.sims) {
        assert_eq!(got.h.as_slice(), want.h.as_slice(), "member {} diverged", got.sim);
    }
}

#[test]
fn every_runner_reports_the_real_cmat_bytes() {
    // The checkpointed and resilient runners used to return an empty
    // `cmat_bytes_per_rank`; with one gather path they carry the paper's
    // memory metric like `run_xgyro` does.
    let cfg = gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(2, 2));
    let want: Vec<Vec<u64>> =
        run_xgyro(&cfg, 0).sims.into_iter().map(|s| s.cmat_bytes_per_rank).collect();
    assert!(want.iter().all(|b| b.len() == 4 && b.iter().all(|&x| x > 0)));

    let (checkpointed, _) = run_xgyro_checkpointed(&cfg, 2, None).unwrap();
    let resilient =
        run_xgyro_resilient_from(&cfg, None, 2, 1, FaultPlan::new(), DEADLINE).unwrap().outcome;
    for outcome in [checkpointed, resilient] {
        let got: Vec<Vec<u64>> =
            outcome.sims.into_iter().map(|s| s.cmat_bytes_per_rank).collect();
        assert_eq!(got, want);
    }
}
