//! The core rendezvous primitive behind every collective.
//!
//! A [`Slot`] implements an epoch-numbered deposit/assemble/drain protocol
//! over a mutex + condvar: each participating rank deposits one boxed
//! contribution, the last depositor assembles the full vector and publishes
//! it behind an `Arc`, every rank takes a handle, and the last rank to leave
//! resets the slot and advances the epoch so the next collective can begin.
//!
//! The protocol is sequentially consistent per communicator (collectives on
//! one communicator are totally ordered by the epoch counter) and
//! independent across communicators (each has its own slot), which is what
//! MPI guarantees for blocking collectives on disjoint communicators.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

type BoxedAny = Box<dyn Any + Send>;
type SharedAny = Arc<dyn Any + Send + Sync>;

/// Why a fallible exchange could not complete.
///
/// Distinct from poisoning: a poisoned slot means a rank *panicked* and the
/// whole run is aborting (untyped, legacy path); a failed slot means a rank
/// is *known dead or unresponsive* and survivors get this typed error to
/// act on (e.g. degraded-mode recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotError {
    /// A participant is known dead. `rank` is the slot-rank index of the
    /// culprit when known (first missing depositor for timeouts).
    Failed {
        /// Slot-rank index of the dead participant.
        rank: usize,
        /// Cause ("injected crash", "collective timed out", …).
        detail: String,
    },
    /// The deadline expired before the round completed.
    Timeout {
        /// Milliseconds waited before giving up.
        waited_ms: u64,
        /// Slot-rank indices that had not deposited when time ran out.
        missing: Vec<usize>,
    },
}

/// Rendezvous slot for one communicator.
pub struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

struct SlotState {
    epoch: u64,
    arrived: usize,
    departed: usize,
    deposits: Vec<Option<BoxedAny>>,
    result: Option<SharedAny>,
    poisoned: bool,
    failed: Option<(usize, String)>,
}

impl Slot {
    /// New slot for `size` participants.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a communicator needs at least one rank");
        Self {
            state: Mutex::new(SlotState {
                epoch: 0,
                arrived: 0,
                departed: 0,
                deposits: (0..size).map(|_| None).collect(),
                result: None,
                poisoned: false,
                failed: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mark the slot poisoned (a participant died); wakes all waiters, which
    /// then panic instead of blocking forever.
    pub fn poison(&self) {
        self.state.lock().poisoned = true;
        self.cv.notify_all();
    }

    /// Mark the slot failed (participant `rank` is known dead); wakes all
    /// waiters, which then surface [`SlotError::Failed`] from
    /// [`Slot::try_exchange`] instead of blocking forever. The first cause
    /// wins; later calls are no-ops.
    pub fn fail(&self, rank: usize, detail: &str) {
        let mut st = self.state.lock();
        if st.failed.is_none() {
            st.failed = Some((rank, detail.to_string()));
        }
        self.cv.notify_all();
    }

    /// Execute one collective round: deposit `contribution` as `rank`, wait
    /// for all ranks, and return the assembled result produced by
    /// `assemble` (run exactly once, by the last depositor, over the
    /// contributions in rank order).
    ///
    /// All ranks must call with the same types `T`/`R` in the same round.
    ///
    /// With a `deadline`, instead of blocking indefinitely on a dead or
    /// stalled peer the wait gives up after it and returns
    /// [`SlotError::Timeout`]. A slot another participant already marked
    /// failed yields [`SlotError::Failed`] immediately.
    ///
    /// A panicked (poisoned) peer still panics — that is the legacy
    /// untyped abort path and is deliberately left intact.
    pub fn try_exchange<T, R, F>(
        &self,
        rank: usize,
        contribution: T,
        assemble: F,
        deadline: Option<Duration>,
    ) -> Result<Arc<R>, SlotError>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        let start = Instant::now();
        let mut st = self.state.lock();
        let size = st.deposits.len();
        assert!(rank < size, "rank {rank} out of range for slot of {size}");

        // Wait for the previous round to fully drain before depositing.
        while st.result.is_some() && !st.poisoned && st.failed.is_none() {
            if self.wait_step(&mut st, deadline, start) {
                return Err(self.give_up(&mut st, rank, start));
            }
        }
        assert!(!st.poisoned, "collective aborted: another rank panicked");
        if let Some((r, detail)) = &st.failed {
            return Err(SlotError::Failed { rank: *r, detail: detail.clone() });
        }
        let epoch = st.epoch;
        assert!(
            st.deposits[rank].is_none(),
            "rank {rank} deposited twice in one collective (protocol misuse)"
        );
        st.deposits[rank] = Some(Box::new(contribution));
        st.arrived += 1;

        if st.arrived == size {
            // Last depositor assembles.
            let items: Vec<T> = st
                .deposits
                .iter_mut()
                .map(|d| {
                    *d.take()
                        .expect("missing deposit")
                        .downcast::<T>()
                        .expect("mixed contribution types in one collective")
                })
                .collect();
            let result = assemble(items);
            st.result = Some(Arc::new(result));
            st.arrived = 0;
            self.cv.notify_all();
        } else {
            while st.epoch == epoch && st.result.is_none() && !st.poisoned && st.failed.is_none()
            {
                if self.wait_step(&mut st, deadline, start) {
                    return Err(self.give_up(&mut st, rank, start));
                }
            }
            assert!(!st.poisoned, "collective aborted: another rank panicked");
            // Prefer delivering a completed round over reporting a failure
            // that arrived concurrently; the next operation will fail.
            if st.epoch == epoch && st.result.is_none() {
                if let Some((r, detail)) = &st.failed {
                    return Err(SlotError::Failed { rank: *r, detail: detail.clone() });
                }
            }
        }

        let shared = st.result.clone().expect("result must be present");
        st.departed += 1;
        if st.departed == size {
            st.result = None;
            st.departed = 0;
            st.epoch = st.epoch.wrapping_add(1);
            self.cv.notify_all();
        }
        drop(st);

        Ok(shared.downcast::<R>().expect("mixed result types in one collective"))
    }

    /// One bounded (or unbounded) condvar wait; true means the deadline
    /// expired.
    fn wait_step(
        &self,
        st: &mut parking_lot::MutexGuard<'_, SlotState>,
        deadline: Option<Duration>,
        start: Instant,
    ) -> bool {
        match deadline {
            None => {
                self.cv.wait(st);
                false
            }
            Some(d) => {
                let elapsed = start.elapsed();
                if elapsed >= d {
                    return true;
                }
                self.cv.wait_for(st, d - elapsed);
                // Re-check conditions and remaining time on the next loop
                // iteration; spurious wakeups are handled the same way.
                false
            }
        }
    }

    /// Deadline expired: build the timeout error. Marking the rest of the
    /// world failed is the caller's job — the slot only knows slot-local
    /// rank indices, while failure records carry global ranks.
    fn give_up(
        &self,
        st: &mut parking_lot::MutexGuard<'_, SlotState>,
        rank: usize,
        start: Instant,
    ) -> SlotError {
        let missing: Vec<usize> = st
            .deposits
            .iter()
            .enumerate()
            .filter(|(i, d)| *i != rank && d.is_none())
            .map(|(i, _)| i)
            .collect();
        SlotError::Timeout { waited_ms: start.elapsed().as_millis() as u64, missing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_rank_exchange() {
        let slot = Slot::new(1);
        let r = slot.try_exchange(0, 41, |v| v[0] + 1, None).unwrap();
        assert_eq!(*r, 42);
    }

    #[test]
    fn contributions_assembled_in_rank_order() {
        let slot = Arc::new(Slot::new(4));
        let results: Vec<Vec<usize>> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let slot = slot.clone();
                    s.spawn(move || (*slot.try_exchange(r, r * 10, |v| v, None).unwrap()).clone())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for res in results {
            assert_eq!(res, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn many_rounds_no_crosstalk() {
        const ROUNDS: usize = 200;
        let slot = Arc::new(Slot::new(3));
        thread::scope(|s| {
            for r in 0..3 {
                let slot = slot.clone();
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let sum = slot
                            .try_exchange(r, round + r, |v| v.iter().sum::<usize>(), None)
                            .unwrap();
                        assert_eq!(*sum, 3 * round + 3);
                    }
                });
            }
        });
    }

    #[test]
    fn assemble_runs_once_per_round() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let slot = Arc::new(Slot::new(4));
        let count = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for r in 0..4 {
                let slot = slot.clone();
                let count = count.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        slot.try_exchange(
                            r,
                            (),
                            |_| {
                                count.fetch_add(1, Ordering::SeqCst);
                            },
                            None,
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 50);
    }

    #[test]
    fn heterogeneous_rounds_on_same_slot() {
        // Different T/R types in successive rounds are fine; within a round
        // they must match.
        let slot = Arc::new(Slot::new(2));
        thread::scope(|s| {
            for r in 0..2 {
                let slot = slot.clone();
                s.spawn(move || {
                    let a =
                        slot.try_exchange(r, r as f64, |v| v.iter().sum::<f64>(), None).unwrap();
                    assert_eq!(*a, 1.0);
                    let b = slot.try_exchange(r, format!("r{r}"), |v| v.join(","), None).unwrap();
                    assert_eq!(*b, "r0,r1");
                });
            }
        });
    }
}
