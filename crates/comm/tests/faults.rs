//! Fault-injection coverage across the collective surface.
//!
//! Every collective must surface a typed [`CommError`] on every surviving
//! rank when a peer crashes or stalls — never hang, never poison-panic
//! (poisoning is reserved for real bugs, i.e. untyped panics) — and it must
//! do so the way the product sees it: through the plain methods, as a
//! panic payload `run_fallible` turns into [`RankOutcome::Failed`]. The
//! proptest at the bottom drives the whole stack with a seeded random
//! failure point and asserts the no-deadlock guarantee the degraded-mode
//! runner builds on.

use proptest::prelude::*;
use std::time::Duration;
use xg_comm::{
    CommError, Communicator, FaultKind, FaultPlan, FaultSpec, OpKind, RankOutcome, World,
};
use xg_linalg::Complex64;

/// Hang guard only: every fault in this suite is a crash or a short delay,
/// which `fail_all` surfaces at once. Tests that expect a timeout set their
/// own short deadline.
const DEADLINE: Duration = Duration::from_secs(60);

/// Run `f` in a 4-rank world where rank 2 crashes at its `at_op`-th
/// operation, and return each rank's outcome.
fn crash_world<R: Send>(
    at_op: u64,
    f: impl Fn(Communicator) -> Result<R, CommError> + Send + Sync,
) -> Vec<RankOutcome<R>> {
    World::new(4)
        .with_deadline(DEADLINE)
        .with_fault_plan(FaultPlan::crash(2, at_op))
        .run_fallible(f)
        .into_iter()
        .map(|(o, _)| o)
        .collect()
}

/// Every rank must report the crashed peer (rank 2) — typed, no hang.
fn assert_all_see_rank2_failed<R>(outcomes: &[RankOutcome<R>]) {
    assert_eq!(outcomes.len(), 4);
    for (r, o) in outcomes.iter().enumerate() {
        match o.err() {
            Some(CommError::PeerFailed { rank, .. }) => {
                assert_eq!(*rank, 2, "rank {r} blamed the wrong peer")
            }
            other => panic!("rank {r}: expected PeerFailed{{rank: 2}}, got {other:?}"),
        }
    }
}

/// Barrier at op 0 everywhere, then `op` at op 1 — where rank 2 dies. The
/// closure calls the plain methods and ends in `Ok`, exactly as the sim
/// stack does: the typed error has to arrive as the panic payload.
fn assert_crash_surfaces_in(op: impl Fn(&Communicator) + Send + Sync) {
    let out = crash_world(1, |c| {
        c.barrier();
        op(&c);
        Ok(())
    });
    assert_all_see_rank2_failed(&out);
}

#[test]
fn crash_surfaces_in_barrier() {
    assert_crash_surfaces_in(|c| c.barrier());
}

#[test]
fn crash_surfaces_in_all_to_all_v() {
    assert_crash_surfaces_in(|c| {
        let parts: Vec<Vec<u64>> = (0..c.size()).map(|d| vec![(c.rank() * d) as u64]).collect();
        c.all_to_all_v_take(parts);
    });
}

#[test]
fn crash_surfaces_in_all_reduce_variants() {
    assert_crash_surfaces_in(|c| c.all_reduce_sum_f64(&mut [c.rank() as f64]));
    assert_crash_surfaces_in(|c| c.all_reduce_max_f64(&mut [c.rank() as f64]));
    assert_crash_surfaces_in(|c| {
        c.all_reduce_sum_complex(&mut [Complex64::new(c.rank() as f64, 1.0)])
    });
}

#[test]
fn stall_past_deadline_times_out_survivors() {
    // Rank 1 goes silent for 10× the deadline; peers must give up with a
    // typed error naming the stalled/failed rank rather than wait.
    let deadline = Duration::from_millis(150);
    let outcomes: Vec<_> = World::new(3)
        .with_deadline(deadline)
        .with_fault_plan(
            FaultPlan::new().with(FaultSpec { rank: 1, at_op: 1, kind: FaultKind::Stall(1500) }),
        )
        .run_fallible(|c| {
            c.barrier();
            c.barrier();
            Ok(c.rank())
        })
        .into_iter()
        .map(|(o, _)| o)
        .collect();
    for (r, o) in outcomes.iter().enumerate() {
        if r == 1 {
            continue; // the stalled rank wakes into an already-failed world
        }
        match o.err() {
            Some(CommError::PeerFailed { rank, .. }) => assert_eq!(*rank, 1),
            Some(CommError::Timeout { missing, .. }) => assert!(missing.contains(&1)),
            None => panic!("rank {r} must not complete past a stalled peer"),
        }
    }
}

#[test]
fn delay_under_deadline_is_harmless_and_traced() {
    let results = World::new(2)
        .with_deadline(DEADLINE)
        .with_fault_plan(
            FaultPlan::new().with(FaultSpec { rank: 0, at_op: 1, kind: FaultKind::Delay(30) }),
        )
        .run_fallible(|c| {
            c.barrier();
            Ok(c.all_to_all_v_take(vec![vec![c.rank()]; c.size()]).concat())
        });
    for (r, (o, trace)) in results.into_iter().enumerate() {
        assert_eq!(o.ok().expect("delay must not fail the run"), vec![0, 1]);
        let faults = trace.iter().filter(|t| t.op == OpKind::Fault).count();
        assert_eq!(faults, usize::from(r == 0), "only the delayed rank logs the fault");
    }
}

#[test]
fn crashed_rank_self_reports_with_op_index() {
    let out = crash_world(3, |c| {
        for _ in 0..8 {
            c.barrier();
        }
        Ok(())
    });
    match out[2].err() {
        Some(CommError::PeerFailed { rank, detail }) => {
            assert_eq!(*rank, 2);
            assert!(detail.contains("op 3"), "detail should name the op index: {detail}");
        }
        other => panic!("expected self-reported crash, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// The no-deadlock guarantee: for ANY seeded single-rank crash point,
    /// every rank of a world running a mixed collective workload returns a
    /// RankOutcome within the deadline — typed failure or success, never a
    /// hang (a hang would blow the test harness's clock, and the deadline
    /// bounds every wait inside).
    #[test]
    fn random_crash_never_deadlocks(seed in 0u64..5000) {
        let plan = FaultPlan::seeded_crash(seed, 4, 12);
        let crashed = plan.specs()[0].rank;
        let outcomes: Vec<_> = World::new(4)
            .with_deadline(Duration::from_secs(2))
            .with_fault_plan(plan)
            .run_fallible(|c| {
                // A workload touching every collective.
                c.barrier();
                let mut acc = [c.rank() as f64];
                c.all_reduce_sum_f64(&mut acc);
                let g = c.all_to_all_v_take(vec![vec![c.rank() as u64]; c.size()]);
                let parts: Vec<Vec<u64>> =
                    (0..c.size()).map(|d| vec![(c.rank() + d) as u64]).collect();
                let a2a = c.all_to_all_v_take(parts);
                let mut m = [c.rank() as f64];
                c.all_reduce_max_f64(&mut m);
                let mut z = [Complex64::new(1.0, c.rank() as f64)];
                c.all_reduce_sum_complex(&mut z);
                c.barrier();
                Ok(acc[0] + g.len() as f64 + a2a.len() as f64 + m[0] + z[0].re)
            })
            .into_iter()
            .map(|(o, _)| o)
            .collect();
        // All four ranks returned (no hang). The crashed rank must report
        // a typed failure naming itself.
        prop_assert_eq!(outcomes.len(), 4);
        match outcomes[crashed].err() {
            Some(CommError::PeerFailed { rank, .. }) => prop_assert_eq!(*rank, crashed),
            Some(CommError::Timeout { .. }) => {}
            None => {
                // at_op may exceed the ops this workload issues — then the
                // fault never fires and everyone succeeds.
                for o in &outcomes {
                    prop_assert!(o.is_ok());
                }
            }
        }
        // No survivor may be left hanging in an untyped state: outcomes
        // are Ok or Failed, never Panicked.
        for o in &outcomes {
            prop_assert!(!matches!(o, RankOutcome::Panicked(_)));
        }
    }
}
