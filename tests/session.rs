//! The persistent `EnsembleSession`: however a run is sliced into segments,
//! resumed, or shrunk, it is bitwise the uninterrupted run — and the world,
//! with its op counters, lives as long as the session.

use std::time::Duration;
use xgyro_repro::comm::{FaultPlan, OpKind, OpRecord};
use xgyro_repro::sim::CgyroInput;
use xgyro_repro::tensor::ProcGrid;
use xgyro_repro::xgyro::{
    gradient_sweep, run_xgyro, run_xgyro_checkpointed, run_xgyro_resilient_from, EnsembleConfig,
    EnsembleSession, ResilientRun,
};

const DEADLINE: Duration = Duration::from_secs(10);

fn open(cfg: &EnsembleConfig) -> EnsembleSession {
    EnsembleSession::open(cfg, None, None, None).expect("a fault-free open")
}

/// Operations `rank` issued, as the fault substrate counts them.
fn ops(trace: &[OpRecord]) -> u64 {
    trace.iter().filter(|r| !matches!(r.op, OpKind::Fault | OpKind::Recover)).count() as u64
}

#[test]
fn segmented_advance_is_the_uninterrupted_run() {
    let base = CgyroInput::test_small();
    for grid in [ProcGrid::new(2, 1), ProcGrid::new(2, 2)] {
        for k in 1..=3 {
            let cfg = gradient_sweep(&base, k, grid);
            let whole = run_xgyro(&cfg, 40);

            let mut one = open(&cfg);
            let in_one = one.advance(40).unwrap();

            let mut four = open(&cfg);
            for done in [10, 20, 30] {
                assert_eq!(four.advance(10).unwrap().steps_taken(), done);
            }
            let in_four = four.advance(10).unwrap();
            assert_eq!(in_four.to_bytes(), in_one.to_bytes(), "k={k} {grid:?}");

            let (outcome, last) = four.finish().unwrap();
            assert_eq!(last, in_four, "finish gathers the state the last advance saw");
            for (got, want) in outcome.sims.iter().zip(&whole.sims) {
                assert_eq!(got.h.as_slice(), want.h.as_slice(), "k={k} {grid:?} sim {}", got.sim);
                assert_eq!(got.diagnostics, want.diagnostics);
                assert_eq!(got.cmat_bytes_per_rank, want.cmat_bytes_per_rank);
            }
            // Slicing adds no communication: same ops on every rank.
            for (got, want) in outcome.traces.iter().zip(&whole.traces) {
                assert_eq!(ops(got), ops(want));
            }
        }
    }
}

#[test]
fn open_from_a_checkpoint_continues_bitwise() {
    let cfg = gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(2, 2));
    let mut straight = open(&cfg);
    let want = straight.advance(20).unwrap();

    let mut first = open(&cfg);
    let half = first.advance(10).unwrap();
    drop(first);
    let mut second = EnsembleSession::open(&cfg, Some(&half), None, None).unwrap();
    assert_eq!(second.advance(10).unwrap(), want);
}

#[test]
fn evicting_mid_run_is_the_smaller_ensemble() {
    let cfg = gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(2, 1));
    let mut run = ResilientRun::new(&cfg, None, FaultPlan::new(), DEADLINE).unwrap();
    run.advance(10).unwrap();
    run.evict(1).unwrap();
    assert_eq!(run.survivors(), [0, 2]);
    assert_eq!(run.advance(10).unwrap().k(), 2);
    let out = run.finish_segment(0).unwrap();
    assert!(out.events.is_empty(), "an eviction is not a fault");
    // One per-rank log per world: the k=3 world, then the one rebuild at k=2.
    assert_eq!(out.outcome.traces.len(), 3 * 2 + 2 * 2);

    let survivors = vec![cfg.members()[0].clone(), cfg.members()[2].clone()];
    let alone = run_xgyro(&EnsembleConfig::new(survivors, cfg.grid()).unwrap(), 20);
    assert_eq!(out.surviving_members, [0, 2]);
    for (got, want) in out.outcome.sims.iter().zip(&alone.sims) {
        assert_eq!(got.h.as_slice(), want.h.as_slice(), "member {} diverged", got.sim);
    }
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
