//! The cmat-key grouper: forms maximal shared-cmat batches from a job
//! stream.
//!
//! This is the serving-side analogue of the paper's Figure-3 communicator
//! split: two jobs may run as members of one XGYRO ensemble **iff** they
//! agree on everything the collisional constant tensor depends on —
//! exactly [`CgyroInput::cmat_key`] — plus the lockstep execution
//! parameters the ensemble runner additionally requires (reporting cadence
//! and step count). The grouper keys open batches on that triple, appends
//! compatible jobs in submission order, and flushes a batch when it
//! reaches its size cap, its linger deadline expires, or the server
//! drains.
//!
//! The size cap is `min(k_max, planner budget)`:
//! [`xg_cluster::max_feasible_k_unbalanced`] bounds the batch to the largest
//! ensemble the configured node allocation can actually hold in memory (for the `nl03c`-like deck on 32
//! Frontier-like nodes that is the paper's `k = 8` saturation point), and
//! the flush reason records *which* limit fired.
//!
//! The same code path answers `xgq submit --dry-run`: [`Grouper::would_join`]
//! computes the placement without mutating anything.
//!
//! The grouper has no thread of its own. The server's submitters and
//! workers call [`Grouper::expired`] under the state lock before every
//! placement and every dispatch, and an idle worker sleeps until
//! [`Grouper::next_deadline`].

use crate::job::{BatchId, JobId, JobSpec};
use std::time::{Duration, Instant};
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;

/// What a batch groups on. Jobs with equal keys — and only those — may
/// share one constant tensor *and* step in lockstep as one ensemble.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchKey {
    /// The cmat dependency key ([`CgyroInput::cmat_key`]).
    pub cmat_key: u64,
    /// Steps per reporting interval — the ensemble admission requirement
    /// the cmat key deliberately ignores (`EnsembleError::CadenceMismatch`).
    pub cadence: usize,
    /// Total steps requested: ensemble members run the same step count.
    pub steps: usize,
    /// [`crate::tenant::tenant_key`] of the submitting tenant. Batches are
    /// tenant-pure: fair-share attribution and quota release are per batch
    /// member's tenant, and isolation forbids co-scheduling strangers in
    /// one ensemble world. ([`PendingBatch`] also stores the exact name;
    /// placement compares both, so a hash collision cannot mix tenants.)
    pub tenant: u64,
}

impl BatchKey {
    /// The key of a submission.
    pub fn of(spec: &JobSpec) -> Self {
        Self {
            cmat_key: spec.input.cmat_key(),
            cadence: spec.input.steps_per_report,
            steps: spec.steps,
            tenant: crate::tenant::tenant_key(&spec.tenant),
        }
    }
}

/// Why a batch left the pending set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// Reached the configured `k_max`.
    Full,
    /// Reached the memory-budget cap (the planner's largest feasible
    /// ensemble on the configured allocation, smaller than `k_max`).
    MemoryBudget,
    /// Linger deadline expired with the batch still open.
    Linger,
    /// The server drained/shut down with the batch still open.
    Drain,
}

impl std::fmt::Display for FlushReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlushReason::Full => "full",
            FlushReason::MemoryBudget => "memory-budget",
            FlushReason::Linger => "linger",
            FlushReason::Drain => "drain",
        })
    }
}

/// An open (not yet flushed) batch.
#[derive(Clone, Debug)]
pub struct PendingBatch {
    /// Batch identity.
    pub id: BatchId,
    /// The shared key.
    pub key: BatchKey,
    /// The tenant every member belongs to (batches are tenant-pure).
    pub tenant: String,
    /// Member jobs in submission order.
    pub jobs: Vec<JobId>,
    /// Effective size cap for this batch (`min(k_max, planner budget)`).
    pub k_cap: usize,
    /// When the batch was opened; it flushes at `opened_at + linger`.
    pub opened_at: Instant,
}

/// A batch handed to the dispatch queue.
#[derive(Clone, Debug)]
pub struct FlushedBatch {
    /// The batch, with its final membership.
    pub batch: PendingBatch,
    /// What triggered the flush.
    pub reason: FlushReason,
}

/// Where a (hypothetical) submission would land — the dry-run answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Joins an open batch: its id, current occupancy, and cap.
    Joins {
        /// The open batch.
        batch: BatchId,
        /// Members already in it.
        occupancy: usize,
        /// Its size cap.
        k_cap: usize,
    },
    /// Opens a new batch (no compatible open batch exists).
    Opens {
        /// The cap the new batch would get (always ≥ 1).
        k_cap: usize,
    },
    /// No feasible placement exists at all: not even a `k = 1` ensemble
    /// of this deck fits the modeled allocation. A real submission would
    /// be rejected at admission (`oversized-grid`), so the dry-run
    /// predicts the rejection instead of inventing a batch.
    Infeasible,
}

/// Grouper configuration.
#[derive(Clone, Debug)]
pub struct GrouperConfig {
    /// Hard upper bound on batch size.
    pub k_max: usize,
    /// How long an underfull batch waits for compatible jobs before it is
    /// flushed anyway.
    pub linger: Duration,
    /// Modeled node allocation backing the memory budget.
    pub nodes: usize,
    /// Machine model pricing the memory budget.
    pub machine: MachineModel,
}

/// The grouper. Purely synchronous — the server calls it under its lock,
/// tests call it directly.
#[derive(Debug)]
pub struct Grouper {
    cfg: GrouperConfig,
    pending: Vec<PendingBatch>,
    next_batch: u64,
}

impl Grouper {
    /// New empty grouper.
    pub fn new(cfg: GrouperConfig) -> Self {
        assert!(cfg.k_max >= 1, "k_max must be at least 1");
        Self { cfg, pending: Vec::new(), next_batch: 0 }
    }

    /// Advance the batch-id counter to at least `next`. Journal recovery
    /// calls this so batches formed after a restart never reuse an id a
    /// previous life already journaled.
    pub fn seed_next_batch(&mut self, next: u64) {
        self.next_batch = self.next_batch.max(next);
    }

    /// The effective batch-size cap for a deck: `k_max` clamped to the
    /// largest ensemble the modeled allocation can hold
    /// ([`xg_cluster::max_feasible_k_unbalanced`] — grid admission in
    /// unbalanced mode, so a deck whose dims don't divide evenly is still
    /// batched as long as its uneven blocks fit). Returns 0 when not
    /// even one member fits — such decks must be rejected at admission.
    pub fn k_cap_for(&self, input: &CgyroInput) -> usize {
        xg_cluster::max_feasible_k_unbalanced(
            input,
            self.cfg.nodes,
            &self.cfg.machine,
            self.cfg.k_max,
        )
    }

    /// Open batches (for introspection/status).
    pub fn pending(&self) -> &[PendingBatch] {
        &self.pending
    }

    /// Dry-run placement: where would `spec` land *right now*? Identical
    /// logic to [`Grouper::place`], without mutating the pending set —
    /// including agreement with admission: a deck for which not even
    /// `k = 1` fits reports [`Placement::Infeasible`], exactly where a
    /// real submission would draw the `oversized-grid` rejection.
    pub fn would_join(&self, spec: &JobSpec) -> Placement {
        let key = BatchKey::of(spec);
        match self
            .pending
            .iter()
            .find(|b| b.key == key && b.tenant == spec.tenant && b.jobs.len() < b.k_cap)
        {
            Some(b) => {
                Placement::Joins { batch: b.id, occupancy: b.jobs.len(), k_cap: b.k_cap }
            }
            None => match self.k_cap_for(&spec.input) {
                0 => Placement::Infeasible,
                k_cap => Placement::Opens { k_cap },
            },
        }
    }

    /// Place an admitted job. Appends to the open batch with the same key
    /// (preserving submission order) or opens a new one; when the batch
    /// reaches its cap it is flushed immediately and returned.
    pub fn place(
        &mut self,
        id: JobId,
        spec: &JobSpec,
        now: Instant,
    ) -> (BatchId, Option<FlushedBatch>) {
        let key = BatchKey::of(spec);
        let pos = self
            .pending
            .iter()
            .position(|b| b.key == key && b.tenant == spec.tenant && b.jobs.len() < b.k_cap);
        let pos = match pos {
            Some(p) => p,
            None => {
                let k_cap = self.k_cap_for(&spec.input);
                assert!(k_cap >= 1, "admission must reject decks with no feasible plan");
                self.pending.push(PendingBatch {
                    id: BatchId(self.next_batch),
                    key,
                    tenant: spec.tenant.clone(),
                    jobs: Vec::new(),
                    k_cap,
                    opened_at: now,
                });
                self.next_batch += 1;
                self.pending.len() - 1
            }
        };
        self.pending[pos].jobs.push(id);
        let batch_id = self.pending[pos].id;
        let flushed = if self.pending[pos].jobs.len() >= self.pending[pos].k_cap {
            // Order-preserving removal: `pending` stays in batch-open
            // order, so linger expiry and later placements see batches
            // oldest-first (swap_remove would silently scramble that).
            let batch = self.pending.remove(pos);
            let reason = if batch.k_cap < self.cfg.k_max {
                FlushReason::MemoryBudget
            } else {
                FlushReason::Full
            };
            Some(FlushedBatch { batch, reason })
        } else {
            None
        };
        (batch_id, flushed)
    }

    /// Flush every batch whose linger deadline has passed, oldest-open
    /// first. Single pass: expired batches are partitioned out rather
    /// than `Vec::remove`d one by one.
    pub fn expired(&mut self, now: Instant) -> Vec<FlushedBatch> {
        let linger = self.cfg.linger;
        let mut out = Vec::new();
        let mut kept = Vec::with_capacity(self.pending.len());
        for batch in self.pending.drain(..) {
            if now.duration_since(batch.opened_at) >= linger {
                out.push(FlushedBatch { batch, reason: FlushReason::Linger });
            } else {
                kept.push(batch);
            }
        }
        self.pending = kept;
        out
    }

    /// Flush everything (drain/shutdown).
    pub fn flush_all(&mut self) -> Vec<FlushedBatch> {
        self.pending
            .drain(..)
            .map(|batch| FlushedBatch { batch, reason: FlushReason::Drain })
            .collect()
    }

    /// The earliest linger deadline among open batches, if any — what an
    /// idle worker sleeps until.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|b| b.opened_at + self.cfg.linger).min()
    }

    /// Remove a cancelled job from its open batch (a not-yet-flushed batch
    /// is preemptible). Empty batches are dropped. Returns true when the
    /// job was found and removed.
    pub fn remove_job(&mut self, batch: BatchId, job: JobId) -> bool {
        let Some(pos) = self.pending.iter().position(|b| b.id == batch) else {
            return false;
        };
        let jobs = &mut self.pending[pos].jobs;
        let Some(jpos) = jobs.iter().position(|j| *j == job) else {
            return false;
        };
        jobs.remove(jpos);
        if jobs.is_empty() {
            self.pending.remove(pos);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sim::CgyroInput;

    fn cfg(k_max: usize) -> GrouperConfig {
        GrouperConfig {
            k_max,
            linger: Duration::from_millis(100),
            // 2 small-cluster nodes = 8 ranks: every power-of-two k up to 8
            // has a valid, memory-feasible plan for the tiny test decks.
            nodes: 2,
            machine: MachineModel::small_cluster(),
        }
    }

    fn spec(input: &CgyroInput, steps: usize) -> JobSpec {
        JobSpec::new(input.clone(), steps)
    }

    #[test]
    fn identical_keys_fill_one_batch_then_flush_full() {
        let mut g = Grouper::new(cfg(2));
        let base = CgyroInput::test_small();
        let now = Instant::now();
        let (b0, f0) = g.place(JobId(0), &spec(&base.with_gradients(1.0, 2.0), 10), now);
        assert!(f0.is_none());
        let (b1, f1) = g.place(JobId(1), &spec(&base.with_gradients(2.0, 4.0), 10), now);
        assert_eq!(b0, b1);
        let flushed = f1.expect("k_max reached");
        assert_eq!(flushed.reason, FlushReason::Full);
        assert_eq!(flushed.batch.jobs, vec![JobId(0), JobId(1)]);
        assert!(g.pending().is_empty());
    }

    #[test]
    fn different_keys_never_share_a_batch() {
        let mut g = Grouper::new(cfg(8));
        let base = CgyroInput::test_small();
        let mut hot = base.clone();
        hot.nu_ee *= 2.0;
        let now = Instant::now();
        let (b0, _) = g.place(JobId(0), &spec(&base, 10), now);
        let (b1, _) = g.place(JobId(1), &spec(&hot, 10), now);
        assert_ne!(b0, b1);
        assert_eq!(g.pending().len(), 2);
    }

    #[test]
    fn cadence_and_steps_split_batches_despite_equal_cmat_key() {
        let mut g = Grouper::new(cfg(8));
        let base = CgyroInput::test_small();
        let mut other_cadence = base.clone();
        other_cadence.steps_per_report = 5;
        assert_eq!(other_cadence.cmat_key(), base.cmat_key());
        let now = Instant::now();
        let (b0, _) = g.place(JobId(0), &spec(&base, 10), now);
        let (b1, _) = g.place(JobId(1), &spec(&other_cadence, 10), now);
        let (b2, _) = g.place(JobId(2), &spec(&base, 20), now);
        assert_ne!(b0, b1, "cadence mismatch cannot step in lockstep");
        assert_ne!(b0, b2, "step-count mismatch cannot run as one job");
    }

    #[test]
    fn linger_expiry_flushes_underfull_batches() {
        let mut g = Grouper::new(cfg(8));
        let base = CgyroInput::test_small();
        let t0 = Instant::now();
        g.place(JobId(0), &spec(&base, 10), t0);
        assert!(g.expired(t0).is_empty(), "deadline not reached yet");
        let later = t0 + Duration::from_millis(150);
        let flushed = g.expired(later);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].reason, FlushReason::Linger);
        assert_eq!(g.next_deadline(), None);
    }

    #[test]
    fn dry_run_matches_real_placement() {
        let mut g = Grouper::new(cfg(4));
        let base = CgyroInput::test_small();
        let s = spec(&base, 10);
        assert_eq!(g.would_join(&s), Placement::Opens { k_cap: 4 });
        let now = Instant::now();
        let (b0, _) = g.place(JobId(0), &s, now);
        assert_eq!(
            g.would_join(&s),
            Placement::Joins { batch: b0, occupancy: 1, k_cap: 4 }
        );
        // A different key still opens fresh.
        let mut hot = base.clone();
        hot.nu_ee *= 2.0;
        assert_eq!(g.would_join(&spec(&hot, 10)), Placement::Opens { k_cap: 4 });
    }

    #[test]
    fn memory_budget_caps_the_batch_below_k_max() {
        // The paper's setup, analytically: nl03c on the 32-node minimum
        // allocation saturates at k = 8 even when the operator allows 16.
        let g = Grouper::new(GrouperConfig {
            k_max: 16,
            linger: Duration::from_millis(100),
            nodes: 32,
            machine: MachineModel::frontier_like(),
        });
        let big = CgyroInput::nl03c_like();
        assert_eq!(g.k_cap_for(&big), 8);
        let mut g = g;
        let now = Instant::now();
        let mut flushed = None;
        for i in 0..8 {
            let (_, f) = g.place(JobId(i), &spec(&big.with_gradients(1.0 + i as f64, 2.5), 10), now);
            flushed = f;
        }
        let f = flushed.expect("flushes at the budget cap");
        assert_eq!(f.reason, FlushReason::MemoryBudget);
        assert_eq!(f.batch.jobs.len(), 8);
    }

    #[test]
    fn dry_run_reports_infeasibility_like_admission_rejects() {
        // The would_join / admit agreement property (ISSUE satellite): a
        // deck for which not even k = 1 fits must dry-run as Infeasible —
        // never as `Opens { k_cap: 0 }`, which used to predict a join for
        // a submission the server would reject as `oversized-grid`.
        let g = Grouper::new(cfg(4)); // 2 small-cluster nodes
        let big = CgyroInput::nl03c_like(); // needs >= 32 frontier nodes
        assert_eq!(g.k_cap_for(&big), 0, "precondition: no feasible plan");
        assert_eq!(g.would_join(&spec(&big, 10)), Placement::Infeasible);
        // And a feasible deck never reports Infeasible.
        let small = CgyroInput::test_small();
        assert!(matches!(g.would_join(&spec(&small, 10)), Placement::Opens { k_cap } if k_cap >= 1));
    }

    #[test]
    fn flush_preserves_fifo_order_of_remaining_batches() {
        // Regression (ISSUE satellite): flushing a full batch used
        // swap_remove, which moved the newest open batch into the flushed
        // slot and broke oldest-batch-first ordering for linger expiry.
        let mut g = Grouper::new(cfg(2));
        let base = CgyroInput::test_small();
        let mk = |nu: f64| {
            let mut d = base.clone();
            d.nu_ee = nu;
            d
        };
        let t0 = Instant::now();
        let (a, _) = g.place(JobId(0), &spec(&mk(0.1), 10), t0);
        let (b, _) = g.place(JobId(1), &spec(&mk(0.2), 10), t0 + Duration::from_millis(1));
        let (c, _) = g.place(JobId(2), &spec(&mk(0.3), 10), t0 + Duration::from_millis(2));
        // Fill batch A (k_cap 2): it flushes out of position 0.
        let (a2, flushed) = g.place(JobId(3), &spec(&mk(0.1), 10), t0 + Duration::from_millis(3));
        assert_eq!(a, a2);
        assert!(flushed.is_some());
        // The survivors must still be in open order: B before C.
        let order: Vec<BatchId> = g.pending().iter().map(|p| p.id).collect();
        assert_eq!(order, vec![b, c], "flush must not scramble pending order");
        // And linger expiry flushes them oldest-open first.
        let out = g.expired(t0 + Duration::from_secs(1));
        let flushed_order: Vec<BatchId> = out.iter().map(|f| f.batch.id).collect();
        assert_eq!(flushed_order, vec![b, c]);
    }

    #[test]
    fn tenants_never_share_a_batch() {
        // Batches are tenant-pure even when every physics parameter
        // matches: isolation and per-tenant attribution both require it.
        let mut g = Grouper::new(cfg(8));
        let base = CgyroInput::test_small();
        let now = Instant::now();
        let (b0, _) = g.place(JobId(0), &spec(&base, 10).with_tenant("alice"), now);
        let (b1, _) = g.place(JobId(1), &spec(&base, 10).with_tenant("bob"), now);
        let (b2, _) = g.place(JobId(2), &spec(&base, 10).with_tenant("alice"), now);
        assert_ne!(b0, b1, "tenant purity");
        assert_eq!(b0, b2, "same tenant still co-batches");
        assert_eq!(g.pending().iter().map(|p| p.tenant.as_str()).collect::<Vec<_>>(),
                   vec!["alice", "bob"]);
    }

    #[test]
    fn cancellation_preempts_open_batches() {
        let mut g = Grouper::new(cfg(8));
        let base = CgyroInput::test_small();
        let now = Instant::now();
        let (b, _) = g.place(JobId(0), &spec(&base, 10), now);
        g.place(JobId(1), &spec(&base, 10), now);
        assert!(g.remove_job(b, JobId(0)));
        assert_eq!(g.pending()[0].jobs, vec![JobId(1)]);
        assert!(g.remove_job(b, JobId(1)));
        assert!(g.pending().is_empty(), "empty batches are dropped");
        assert!(!g.remove_job(b, JobId(1)), "already gone");
    }
}
