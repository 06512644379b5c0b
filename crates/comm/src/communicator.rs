//! Communicators and collective operations.
//!
//! A [`Communicator`] is a handle held by one rank onto a group of ranks
//! sharing a rendezvous slot — collectives are blocking and totally ordered
//! per communicator; disjoint communicators proceed independently (so the k
//! per-simulation str communicators of an XGYRO ensemble never serialize
//! against each other).
//!
//! The surface is what the paper's mechanism needs and nothing else:
//! [`Communicator::split`] plus five collectives — barrier, AllGather,
//! AllReduce (f64 sum, complex sum, f64 max) and the move-out AllToAllv —
//! each in exactly one form.
//!
//! Reductions are **deterministic**: contributions are combined in
//! communicator-rank order, so repeated runs and re-partitioned ensembles
//! with identical sub-grids produce bitwise-identical results — the
//! property the equivalence experiment (T-correct) relies on.
//!
//! Failure handling: when the world was built with a deadline
//! ([`crate::World::with_deadline`]), a dead or stalled peer surfaces as a
//! typed [`CommError`] within the deadline instead of hanging forever. The
//! collective panics with that `CommError` as the payload;
//! [`crate::World::run_fallible`] catches it at the rank boundary and
//! reports [`crate::RankOutcome::Failed`] — so the simulation stack calls
//! plain methods and still yields typed failures at the world boundary.

use crate::exchange::{Slot, SlotError};
use crate::fault::{CommError, FaultKind, FaultPlan, FaultState};
use crate::stats::{OpKind, TrafficLog};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use xg_linalg::Complex64;

/// Shared world-level infrastructure every communicator hangs off.
pub(crate) struct WorldShared {
    pub(crate) slot_registry: parking_lot::Mutex<Vec<std::sync::Weak<Slot>>>,
    /// Deadline for blocking waits; `None` means wait forever (legacy).
    pub(crate) deadline: Option<Duration>,
    /// Fault-injection state, when a plan was installed.
    pub(crate) fault: Option<FaultState>,
}

impl WorldShared {
    pub(crate) fn new(
        size: usize,
        deadline: Option<Duration>,
        plan: Option<FaultPlan>,
    ) -> Arc<Self> {
        Arc::new(Self {
            slot_registry: parking_lot::Mutex::new(Vec::new()),
            deadline,
            fault: plan.map(|p| FaultState::new(p, size)),
        })
    }

    pub(crate) fn register_slot(&self, slot: &Arc<Slot>) {
        self.slot_registry.lock().push(Arc::downgrade(slot));
    }

    /// Poison every live slot so ranks blocked in collectives fail fast
    /// instead of deadlocking when a peer panics.
    pub(crate) fn poison_all(&self) {
        for w in self.slot_registry.lock().iter() {
            if let Some(s) = w.upgrade() {
                s.poison();
            }
        }
    }

    /// Mark every live slot failed: global rank `rank` is known dead, so
    /// blocked peers surface typed [`CommError`]s promptly.
    pub(crate) fn fail_all(&self, rank: usize, detail: &str) {
        for w in self.slot_registry.lock().iter() {
            if let Some(s) = w.upgrade() {
                s.fail(rank, detail);
            }
        }
    }
}

/// A per-rank handle to a communicator (a rank group + rendezvous slot).
#[derive(Clone)]
pub struct Communicator {
    /// Rank within this communicator.
    rank: usize,
    /// Global rank (within the world), used for fault plans and logging.
    global_rank: usize,
    /// Global ranks of the members, indexed by communicator rank.
    members: Arc<Vec<usize>>,
    slot: Arc<Slot>,
    world: Arc<WorldShared>,
    log: Arc<TrafficLog>,
    label: Arc<str>,
}

impl Communicator {
    pub(crate) fn new_world(
        global_rank: usize,
        size: usize,
        slot: Arc<Slot>,
        world: Arc<WorldShared>,
        log: Arc<TrafficLog>,
    ) -> Self {
        Self {
            rank: global_rank,
            global_rank,
            members: Arc::new((0..size).collect()),
            slot,
            world,
            log,
            label: Arc::from("world"),
        }
    }

    /// Rank of this process within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global (world) rank of this process.
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// Global ranks of all members, in communicator-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Human-readable label (`"world"`, `"nv"`, `"coll-ens"`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The per-rank traffic log this communicator records into.
    pub fn log(&self) -> &Arc<TrafficLog> {
        &self.log
    }

    /// Tag the current logical phase for traffic accounting.
    pub fn set_phase(&self, phase: &str) {
        self.log.set_phase(phase);
    }

    /// Count one issued operation against the fault plan; fire any fault
    /// scheduled at this point. Delays and stalls sleep here (and leave an
    /// [`OpKind::Fault`] record, `bytes` = downtime µs); a crash marks the
    /// whole world failed and returns the error the dying rank observes.
    fn preflight(&self) -> Result<(), CommError> {
        let Some(fault) = &self.world.fault else {
            return Ok(());
        };
        match fault.on_op(self.global_rank) {
            None => Ok(()),
            Some(FaultKind::Delay(ms)) => {
                self.log.record(OpKind::Fault, &self.label, &[self.global_rank], ms * 1000);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            Some(FaultKind::Stall(ms)) => {
                self.log.record(OpKind::Fault, &self.label, &[self.global_rank], ms * 1000);
                std::thread::sleep(Duration::from_millis(ms));
                // Proceed: if the stall exceeded the deadline, peers have
                // already timed out and failed the slot, and the next wait
                // on it returns the typed error to this rank too.
                Ok(())
            }
            Some(FaultKind::Crash) => {
                self.log.record(OpKind::Fault, &self.label, &[self.global_rank], 0);
                let detail = format!(
                    "injected crash at op {}",
                    fault.ops_issued(self.global_rank).saturating_sub(1)
                );
                self.world.fail_all(self.global_rank, &detail);
                Err(CommError::PeerFailed { rank: self.global_rank, detail })
            }
        }
    }

    /// Map a slot-level failure to a world-level [`CommError`]: failed
    /// ranks are already global; timeout `missing` lists are slot-local
    /// and translate through the member table. A timeout also marks the
    /// whole world failed (the first missing rank is the presumed culprit)
    /// so every other rank fails fast instead of timing out serially.
    fn slot_error(&self, op: OpKind, e: SlotError) -> CommError {
        match e {
            SlotError::Failed { rank, detail } => CommError::PeerFailed { rank, detail },
            SlotError::Timeout { waited_ms, missing } => {
                let missing: Vec<usize> = missing
                    .into_iter()
                    .map(|i| self.members.get(i).copied().unwrap_or(i))
                    .collect();
                let culprit = missing.first().copied().unwrap_or(self.global_rank);
                self.world.fail_all(culprit, "collective timed out");
                CommError::Timeout { op: op.to_string(), waited_ms, missing }
            }
        }
    }

    /// Preflight + log + deadline-aware exchange: the shared body of every
    /// collective. A typed failure leaves as a [`CommError`] panic payload
    /// (see the module docs).
    fn run_collective<T, R, F>(
        &self,
        op: OpKind,
        bytes: u64,
        contribution: T,
        assemble: F,
    ) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        if let Err(e) = self.preflight() {
            std::panic::panic_any(e);
        }
        // Record *before* the exchange (fault-plan rebase counts records,
        // including those of operations that then fail), then patch the
        // measured wait in by index once the exchange returns. No clock is
        // read when observability is off.
        let idx = self.log.record(op, &self.label, &self.members, bytes);
        let start = xg_obs::enabled().then(std::time::Instant::now);
        let res = self
            .slot
            .try_exchange(self.rank, contribution, assemble, self.world.deadline)
            .map_err(|e| self.slot_error(op, e));
        if let Some(start) = start {
            self.log.set_elapsed(idx, start.elapsed().as_micros() as u64);
        }
        res.unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.run_collective(OpKind::Barrier, 0, (), |_| ());
    }

    /// Gather every rank's slice; returns the per-rank vectors in rank
    /// order.
    pub fn all_gather<T: Clone + Send + Sync + 'static>(&self, local: &[T]) -> Vec<Vec<T>> {
        let bytes = std::mem::size_of_val(local) as u64;
        let res = self.run_collective(OpKind::AllGather, bytes, local.to_vec(), |items| items);
        (*res).clone()
    }

    /// Element-wise reduction of `buf` across all ranks, folding the
    /// contributions into `identity` in communicator-rank order.
    fn all_reduce<T, C>(&self, buf: &mut [T], identity: T, combine: C)
    where
        T: Copy + Send + Sync + 'static,
        C: Fn(T, T) -> T,
    {
        let bytes = std::mem::size_of_val(buf) as u64;
        let n = buf.len();
        let res = self.run_collective(OpKind::AllReduce, bytes, buf.to_vec(), move |items| {
            let mut acc = vec![identity; n];
            for item in items {
                assert_eq!(item.len(), n, "AllReduce length mismatch across ranks");
                for (a, v) in acc.iter_mut().zip(&item) {
                    *a = combine(*a, *v);
                }
            }
            acc
        });
        buf.copy_from_slice(&res);
    }

    /// Element-wise sum-reduction of `buf` across all ranks, result
    /// replacing `buf` on every rank. Deterministic (rank-order) summation.
    pub fn all_reduce_sum_f64(&self, buf: &mut [f64]) {
        self.all_reduce(buf, 0.0, |a, v| a + v);
    }

    /// Element-wise complex sum-reduction (deterministic rank order).
    pub fn all_reduce_sum_complex(&self, buf: &mut [Complex64]) {
        self.all_reduce(buf, Complex64::ZERO, |a, v| a + v);
    }

    /// Element-wise max-reduction (used for CFL/diagnostic scalars).
    pub fn all_reduce_max_f64(&self, buf: &mut [f64]) {
        self.all_reduce(buf, f64::NEG_INFINITY, f64::max);
    }

    /// Personalized all-to-all: `send[j]` goes to communicator rank `j`;
    /// returns `recv` with `recv[j]` the block sent by rank `j` to this
    /// rank. Blocks may have arbitrary (including zero) per-pair sizes —
    /// this is MPI_Alltoallv.
    ///
    /// Each rank *takes ownership* of its received blocks out of the shared
    /// assembled result, so blocks move exactly once end-to-end, `T` only
    /// needs `Send` (not `Clone` or `Sync`), and the returned `Vec<Vec<T>>`
    /// allocations can be recycled as the next transpose's send buffers.
    ///
    /// ```
    /// use xg_comm::World;
    ///
    /// let out = World::new(3).run(|c| {
    ///     // Rank r sends the value 10*r + j to rank j.
    ///     let send: Vec<Vec<u32>> =
    ///         (0..3).map(|j| vec![10 * c.rank() as u32 + j as u32]).collect();
    ///     c.all_to_all_v_take(send)
    /// });
    /// // Rank 1 received [01, 11, 21] from ranks 0, 1, 2.
    /// assert_eq!(out[1], vec![vec![1], vec![11], vec![21]]);
    /// ```
    pub fn all_to_all_v_take<T: Send + 'static>(&self, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(send.len(), p, "all_to_all_v needs one block per peer");
        let bytes: u64 =
            send.iter().map(|b| (b.len() * std::mem::size_of::<T>()) as u64).sum();
        // The assembled result is shared behind an Arc, so per-rank rows sit
        // behind mutexes holding Options: each rank locks its own row once
        // and moves it out, leaving None behind.
        let res = self.run_collective(OpKind::AllToAll, bytes, send, move |items| {
            // items[src][dst] -> matrix[dst][src]. Pop from the back of each
            // source's block list so every block moves exactly once: source
            // `src`'s last block (dst = p−1) lands in row p−1, and each row
            // receives one block per source in src order.
            let mut matrix: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
            for (src, mut blocks) in items.into_iter().enumerate() {
                assert_eq!(blocks.len(), p, "rank {src} sent wrong number of blocks");
                for row in matrix.iter_mut().rev() {
                    row.push(blocks.pop().expect("block count checked"));
                }
            }
            matrix
                .into_iter()
                .map(|row| parking_lot::Mutex::new(Some(row)))
                .collect::<Vec<_>>()
        });
        let row = res[self.rank].lock().take();
        row.expect("each rank takes its own row exactly once per exchange")
    }

    /// Split into disjoint sub-communicators by `color`; ranks within a
    /// color are ordered by `(key, global_rank)`. Collective over the
    /// parent. `label` names the child for traces and logs.
    ///
    /// ```
    /// use xg_comm::World;
    ///
    /// // Split 4 ranks into even/odd pairs; each pair sums its ranks.
    /// let out = World::new(4).run(|c| {
    ///     let pair = c.split((c.rank() % 2) as u64, c.rank() as u64, "pair");
    ///     let mut v = vec![c.rank() as f64];
    ///     pair.all_reduce_sum_f64(&mut v);
    ///     v[0]
    /// });
    /// assert_eq!(out, vec![2.0, 4.0, 2.0, 4.0]); // 0+2, 1+3
    /// ```
    pub fn split(&self, color: u64, key: u64, label: &str) -> Communicator {
        let grank = self.global_rank;
        let res = self
            .slot
            .try_exchange(
                self.rank,
                (color, key, grank),
                |items| {
                    // Group by color; order members by (key, global_rank).
                    let mut groups: HashMap<u64, Vec<(u64, usize)>> = HashMap::new();
                    for (c, k, g) in items {
                        groups.entry(c).or_default().push((k, g));
                    }
                    let mut out: HashMap<u64, (Arc<Slot>, Vec<usize>)> = HashMap::new();
                    for (c, mut v) in groups {
                        v.sort_unstable();
                        let members: Vec<usize> = v.into_iter().map(|(_, g)| g).collect();
                        let slot = Arc::new(Slot::new(members.len()));
                        self.world.register_slot(&slot);
                        out.insert(c, (slot, members));
                    }
                    out
                },
                self.world.deadline,
            )
            .unwrap_or_else(|e| {
                std::panic::panic_any(self.slot_error(OpKind::Barrier, e))
            });
        let (slot, members) = res.get(&color).expect("own color must exist").clone();
        let rank = members
            .iter()
            .position(|&g| g == grank)
            .expect("this rank must be in its own color group");
        Communicator {
            rank,
            global_rank: grank,
            members: Arc::new(members),
            slot,
            world: self.world.clone(),
            log: self.log.clone(),
            label: Arc::from(label),
        }
    }
}
