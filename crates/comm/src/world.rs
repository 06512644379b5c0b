//! The world: spawn one thread per rank and hand each a world communicator.
//!
//! This plays the role of `mpirun` + `MPI_Init`. [`World::run`] blocks until
//! every rank's closure returns and yields the per-rank results in rank
//! order. If any rank panics, all communication primitives are poisoned so
//! the remaining ranks abort promptly, and the panic is re-thrown with the
//! failing rank identified.
//!
//! For fault-tolerant callers there is [`World::run_fallible`]: combined
//! with [`World::with_deadline`] (bounded blocking waits) and
//! [`World::with_fault_plan`] (seeded fault injection), a dead or stalled
//! rank surfaces as a typed [`RankOutcome::Failed`] on every surviving rank
//! instead of hanging the job — the substrate the degraded-mode ensemble
//! recovery in `xgyro-core` is built on.

use crate::communicator::{Communicator, WorldShared};
use crate::exchange::Slot;
use crate::fault::{CommError, FaultPlan};
use crate::stats::{OpRecord, TrafficLog};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

/// How one rank's closure ended under [`World::run_fallible`].
#[derive(Debug)]
pub enum RankOutcome<R> {
    /// The rank completed and returned a value.
    Ok(R),
    /// The rank observed a typed communication failure (dead peer,
    /// expired deadline, or its own injected crash).
    Failed(CommError),
    /// The rank panicked with something other than a [`CommError`]
    /// (message extracted best-effort).
    Panicked(String),
}

impl<R> RankOutcome<R> {
    /// True for [`RankOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RankOutcome::Ok(_))
    }

    /// The value, if the rank completed.
    pub fn ok(self) -> Option<R> {
        match self {
            RankOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The typed failure, if the rank failed.
    pub fn err(&self) -> Option<&CommError> {
        match self {
            RankOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// A fixed-size group of simulated MPI ranks.
///
/// ```
/// use xg_comm::World;
///
/// // Four ranks sum their ranks with an AllReduce; everyone sees 6.
/// let results = World::new(4).run(|comm| {
///     let mut v = vec![comm.rank() as f64];
///     comm.all_reduce_sum_f64(&mut v);
///     v[0]
/// });
/// assert_eq!(results, vec![6.0; 4]);
/// ```
pub struct World {
    size: usize,
    deadline: Option<Duration>,
    fault_plan: Option<FaultPlan>,
}

impl World {
    /// Create a world of `size` ranks (no threads yet).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world needs at least one rank");
        Self { size, deadline: None, fault_plan: None }
    }

    /// Bound every blocking wait by `deadline`:
    /// instead of hanging on a dead or stalled peer, operations give up
    /// and surface [`CommError::Timeout`] / [`CommError::PeerFailed`].
    /// Without a deadline, waits block forever (the legacy behavior).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Install a seeded fault-injection plan; see [`FaultPlan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Spawn one thread per rank, run `f` on each under `catch_unwind`, and
    /// join in rank order. `settle` turns a rank's ending into its outcome
    /// *on the rank's own thread*, so it can fail or poison the world while
    /// peers are still blocked in a collective. Each outcome comes back
    /// beside that rank's traffic log.
    fn spawn_and_join<X, T>(
        &self,
        f: impl Fn(Communicator) -> X + Sync,
        settle: impl Fn(usize, &WorldShared, std::thread::Result<X>) -> T + Sync,
    ) -> Vec<(T, Vec<OpRecord>)>
    where
        T: Send,
    {
        let shared = WorldShared::new(self.size, self.deadline, self.fault_plan.clone());
        let world_slot = Arc::new(Slot::new(self.size));
        shared.register_slot(&world_slot);
        let logs: Vec<Arc<TrafficLog>> = (0..self.size).map(|_| TrafficLog::new()).collect();
        let (f, settle, shared) = (&f, &settle, &shared);

        let ended: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.size)
                .map(|rank| {
                    let comm = Communicator::new_world(
                        rank,
                        self.size,
                        world_slot.clone(),
                        shared.clone(),
                        logs[rank].clone(),
                    );
                    scope.spawn(move || {
                        settle(rank, shared, std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))))
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|e| {
                        // The worker thread itself died (a panic escaped the
                        // catch_unwind, e.g. inside `settle`). Report which
                        // rank's thread it was instead of tearing down the
                        // harness.
                        let msg =
                            format!("worker thread for rank {rank} died: {}", panic_message(&e));
                        settle(rank, shared, Err(Box::new(msg)))
                    })
                })
                .collect()
        });
        ended.into_iter().zip(&logs).map(|(t, log)| (t, log.records())).collect()
    }

    /// Run `f` on every rank concurrently. Each invocation receives the
    /// world [`Communicator`] for its rank; results are returned in rank
    /// order. Also returns each rank's traffic log alongside its result.
    pub fn run_with_logs<F, R>(&self, f: F) -> Vec<(R, Vec<OpRecord>)>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        let ended = self.spawn_and_join(f, |_, shared, out| {
            if out.is_err() {
                shared.poison_all();
            }
            out
        });
        let mut out = Vec::with_capacity(self.size);
        let mut failures: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        for (rank, (res, log)) in ended.into_iter().enumerate() {
            match res {
                Ok(r) => out.push((r, log)),
                Err(e) => failures.push((rank, e)),
            }
        }
        if !failures.is_empty() {
            // Two-pass root-cause selection: prefer the first failure a
            // rank *originated* over panics induced by another rank's
            // death; fall back to the first failure in rank order when
            // every payload looks induced.
            let root = failures
                .iter()
                .position(|(rank, e)| is_root_cause(*rank, e))
                .unwrap_or(0);
            let (rank, e) = &failures[root];
            panic!("rank {rank} panicked: {}", panic_message(e));
        }
        out
    }

    /// Run `f` on every rank; return the per-rank results in rank order.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(Communicator) -> R + Send + Sync,
        R: Send,
    {
        self.run_with_logs(f).into_iter().map(|(r, _)| r).collect()
    }

    /// Run `f` on every rank, surviving failures: instead of re-throwing
    /// the first panic, every rank's ending is reported as a
    /// [`RankOutcome`] next to its traffic log.
    ///
    /// Typed communication failures — whether returned as `Err` by `f` or
    /// thrown as a [`CommError`] panic payload by a collective deep inside
    /// the call stack — come back as [`RankOutcome::Failed`]. Only
    /// non-`CommError` panics poison the world and report as
    /// [`RankOutcome::Panicked`].
    pub fn run_fallible<F, R>(&self, f: F) -> Vec<(RankOutcome<R>, Vec<OpRecord>)>
    where
        F: Fn(Communicator) -> Result<R, CommError> + Send + Sync,
        R: Send,
    {
        self.spawn_and_join(f, |rank, shared, out| match out {
            Ok(Ok(r)) => RankOutcome::Ok(r),
            Ok(Err(e)) => {
                // A rank bowing out early is indistinguishable from death
                // for its peers; make sure they fail fast rather than time
                // out one by one. (No-op if the world is already failed —
                // the first cause wins.)
                shared.fail_all(rank, &format!("rank {rank} aborted: {e}"));
                RankOutcome::Failed(e)
            }
            Err(payload) => match payload.downcast::<CommError>() {
                Ok(e) => RankOutcome::Failed(*e),
                Err(payload) => {
                    shared.poison_all();
                    RankOutcome::Panicked(panic_message(&payload))
                }
            },
        })
    }
}

fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = e.downcast_ref::<CommError>() {
        c.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Did `rank` originate this failure, or was it induced by another rank's
/// death (poisoning, typed peer-failure, timeout)?
fn is_root_cause(rank: usize, e: &Box<dyn std::any::Any + Send>) -> bool {
    if let Some(c) = e.downcast_ref::<CommError>() {
        return match c {
            CommError::PeerFailed { rank: r, .. } => *r == rank,
            CommError::Timeout { .. } => false,
        };
    }
    !panic_message(e).contains("another rank panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSpec};

    #[test]
    fn ranks_get_distinct_ids_in_order() {
        let ids = World::new(6).run(|c| (c.rank(), c.size()));
        assert_eq!(ids, (0..6).map(|r| (r, 6)).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_world() {
        let out = World::new(1).run(|c| {
            c.barrier();
            c.rank() + 100
        });
        assert_eq!(out, vec![100]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn panic_in_rank_propagates_with_rank_id() {
        World::new(4).run(|c| {
            if c.rank() == 2 {
                panic!("boom");
            }
            // Other ranks block in a collective; poisoning must free them.
            c.barrier();
        });
    }

    #[test]
    fn root_cause_panic_wins_over_induced_aborts() {
        // Even when a low-numbered rank reports the induced abort first,
        // the re-thrown panic must name the rank that originated it.
        let err = std::panic::catch_unwind(|| {
            World::new(4).run(|c| {
                if c.rank() == 3 {
                    panic!("original failure");
                }
                c.barrier();
            });
        })
        .unwrap_err();
        let msg = panic_message(&err);
        assert!(msg.contains("rank 3 panicked"), "got: {msg}");
        assert!(msg.contains("original failure"), "got: {msg}");
    }

    #[test]
    fn logs_are_returned_per_rank() {
        let out = World::new(3).run_with_logs(|c| {
            c.set_phase("str");
            c.barrier();
            c.rank()
        });
        for (rank, (r, log)) in out.into_iter().enumerate() {
            assert_eq!(r, rank);
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].phase, "str");
            assert_eq!(log[0].participants, 3);
        }
    }

    #[test]
    fn run_fallible_without_faults_returns_ok_everywhere() {
        let out = World::new(4).run_fallible(|c| {
            let mut v = vec![c.rank() as f64];
            c.all_reduce_sum_f64(&mut v);
            Ok(v[0])
        });
        assert_eq!(out.len(), 4);
        for (o, log) in out {
            assert_eq!(o.ok(), Some(6.0));
            assert_eq!(log.len(), 1);
        }
    }

    #[test]
    fn injected_crash_yields_typed_failures_not_hangs() {
        let plan = FaultPlan::new().with(FaultSpec {
            rank: 1,
            at_op: 2,
            kind: FaultKind::Crash,
        });
        let out = World::new(3)
            .with_deadline(Duration::from_secs(5))
            .with_fault_plan(plan)
            .run_fallible(|c| {
                for _ in 0..5 {
                    c.barrier();
                }
                Ok(c.rank())
            });
        for (rank, (o, _)) in out.iter().enumerate() {
            let e = o.err().unwrap_or_else(|| panic!("rank {rank} must fail, got {o:?}"));
            match e {
                CommError::PeerFailed { rank: r, .. } => assert_eq!(*r, 1),
                other => panic!("rank {rank}: expected PeerFailed, got {other}"),
            }
        }
    }

    #[test]
    fn deep_panicking_collectives_surface_typed_errors() {
        // A collective's CommError panics out of an arbitrarily deep call
        // stack; it must still come back typed through run_fallible.
        let plan = FaultPlan::crash(0, 1);
        let out = World::new(2)
            .with_deadline(Duration::from_secs(5))
            .with_fault_plan(plan)
            .run_fallible(|c| {
                c.barrier(); // op 0
                c.barrier(); // op 1: rank 0 crashes here
                Ok(())
            });
        for (o, _) in &out {
            assert!(matches!(o, RankOutcome::Failed(CommError::PeerFailed { rank: 0, .. })));
        }
    }
}
