//! Degraded-mode ensemble recovery.
//!
//! A k-member XGYRO job occupies k× the nodes of one CGYRO run, so its
//! job-level MTBF is k× worse — at production scale a member loss is a
//! *when*, not an *if*. The classic MPI answer is to kill the whole job and
//! resubmit; a [`ResilientRun`] instead keeps one [`EnsembleSession`] alive
//! over the fallible comm substrate ([`xg_comm::World::run_fallible`]),
//! checkpoints it in segments without leaving the world and, when a rank
//! fails:
//!
//! 1. every survivor surfaces a typed [`xg_comm::CommError`] within the
//!    configured deadline (no hangs — the whole point of the substrate);
//! 2. the failed world rank is decoded to its member simulation via
//!    [`crate::topology::assignment`] and that member is **evicted** from
//!    both the [`EnsembleConfig`] and the latest coherent
//!    [`EnsembleCheckpoint`];
//! 3. a new session opens from that checkpoint as a (k−1)-member ensemble —
//!    the only time the world, the Figure-3 topology and the shared `cmat`
//!    are rebuilt — and the rows are re-distributed over the survivors
//!    automatically by [`crate::topology::build_xgyro_topology`].
//!
//! Because every reduction combines contributions in communicator-rank
//! order and member trajectories only couple through the *shared, constant*
//! `cmat` (identical for any k), the degraded continuation is **bitwise
//! identical** to an unfaulted run of the surviving members alone — the
//! property `tests/degraded_mode.rs` asserts.

use crate::checkpoint::{CheckpointError, EnsembleCheckpoint};
use crate::ensemble::{EnsembleConfig, EnsembleError};
use crate::runner::RunOutcome;
use crate::session::{EnsembleSession, SegmentFault};
use crate::topology::assignment;
use std::time::Duration;
use xg_comm::{CommError, FaultPlan, OpKind, OpRecord};
use xg_tensor::RaggedDecomp;

/// Why a resilient run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The rolled-back checkpoint could not seed the degraded ensemble.
    Checkpoint(CheckpointError),
    /// Eviction was impossible (e.g. the last surviving member failed).
    Ensemble(EnsembleError),
    /// A rank died with an untyped panic — a bug, not a modeled fault; the
    /// run cannot be recovered and the panic message is preserved here.
    Unrecoverable(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Checkpoint(e) => write!(f, "recovery checkpoint rejected: {e}"),
            RecoveryError::Ensemble(e) => write!(f, "cannot form degraded ensemble: {e}"),
            RecoveryError::Unrecoverable(m) => write!(f, "unrecoverable rank death: {m}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One observed failure and the recovery action taken.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Global world rank (in the world that was running when the fault
    /// fired) that failed.
    pub failed_rank: usize,
    /// **Original** member index (position in the initial config) of the
    /// evicted simulation.
    pub failed_member: usize,
    /// Typed cause observed by the survivors.
    pub cause: CommError,
    /// Step count of the checkpoint the survivors rolled back to (0 when
    /// the fault predates the first checkpoint).
    pub resumed_from_step: u64,
    /// Steps of lost work re-executed because of this failure (the length
    /// of the segment that was in flight).
    pub steps_replayed: u64,
    /// Original member indices still running after the eviction.
    pub survivors: Vec<usize>,
    /// Coll `nc` rows placed differently from a uniform shrink by the
    /// capacity-aware rebalance (0 when capacities are uniform or the run
    /// uses the default uniform-shrink recovery).
    pub moved_rows: u64,
}

/// The outcome of a resilient run.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Final results of the surviving members, `SimResult::sim` holding each
    /// member's **original** index. Traces concatenate every world the run
    /// went through (aborted ones, with their `Fault` records, included),
    /// one per-rank log per world.
    pub outcome: RunOutcome,
    /// Coherent checkpoint of the survivors at `total_steps`.
    pub checkpoint: EnsembleCheckpoint,
    /// Every failure/recovery, in order.
    pub events: Vec<RecoveryEvent>,
    /// The per-rank traces of each *aborted* world, one entry per recovery
    /// event: unlike the flat `outcome.traces`, a coherent single-world
    /// trace set, exportable via [`xg_comm::traces_to_csv`] and replayable
    /// by `xg-cluster`, `Fault`/`Recover` records and all.
    pub faulty_segments: Vec<Vec<Vec<OpRecord>>>,
    /// Original member indices that survived to the end.
    pub surviving_members: Vec<usize>,
    /// Total steps of lost work re-executed across all recoveries.
    pub steps_replayed: u64,
}

/// Run the ensemble to `total_steps` over the fallible substrate,
/// checkpointing every `ckpt_every` steps and recovering from failures in
/// degraded (k−1) mode. `plan` seeds the faults to inject (empty plan:
/// plain checkpointed execution); a spec's `at_op` counts the operations a
/// rank issued since the run's world started — the world outlives the
/// segments, so a fault can land in any of them, including after
/// checkpoints exist. `deadline` bounds every blocking wait — it is what
/// converts a dead peer into a typed error instead of a hang.
pub fn run_xgyro_resilient(
    config: &EnsembleConfig,
    total_steps: usize,
    ckpt_every: usize,
    plan: FaultPlan,
    deadline: Duration,
) -> Result<RecoveryOutcome, RecoveryError> {
    run_xgyro_resilient_from(config, None, total_steps, ckpt_every, plan, deadline)
}

/// [`run_xgyro_resilient`], seeded from a prior [`EnsembleCheckpoint`]
/// (rejected with [`RecoveryError::Checkpoint`] unless it matches the
/// config's cmat key, k and dims). `total_steps` counts steps *beyond* the
/// checkpoint, whose absolute step counter keeps advancing. Each call opens
/// its own world: a caller that wants one world across many calls holds a
/// [`ResilientRun`] instead.
pub fn run_xgyro_resilient_from(
    config: &EnsembleConfig,
    resume_from: Option<EnsembleCheckpoint>,
    total_steps: usize,
    ckpt_every: usize,
    plan: FaultPlan,
    deadline: Duration,
) -> Result<RecoveryOutcome, RecoveryError> {
    run_xgyro_resilient_with_capacities(
        config,
        resume_from,
        total_steps,
        ckpt_every,
        plan,
        deadline,
        None,
    )
}

/// [`run_xgyro_resilient_from`] with **capacity-aware rebalancing**.
///
/// `capacities[r]` is the relative speed of *original* world rank `r` (1.0 =
/// full speed). After each eviction the rebuild derives one capacity per
/// surviving coll position `(s, i1)` — the minimum over its `i2` slice,
/// which shares the cut — and re-apportions the coll `nc` rows with
/// [`RaggedDecomp::weighted`] instead of shrinking uniformly. Rows moved
/// relative to the uniform shrink are counted on
/// [`RecoveryEvent::moved_rows`] and the obs registry (`xgyro_rebalance_*`).
/// With `None` or uniform capacities this is [`run_xgyro_resilient_from`].
pub fn run_xgyro_resilient_with_capacities(
    config: &EnsembleConfig,
    resume_from: Option<EnsembleCheckpoint>,
    total_steps: usize,
    ckpt_every: usize,
    plan: FaultPlan,
    deadline: Duration,
    capacities: Option<&[f64]>,
) -> Result<RecoveryOutcome, RecoveryError> {
    assert!(ckpt_every > 0, "checkpoint cadence must be positive");
    let mut run = ResilientRun::new(config, resume_from, plan, deadline, capacities)?;
    let mut done = 0;
    while done < total_steps {
        let seg = ckpt_every.min(total_steps - done);
        run.advance(seg)?;
        done += seg;
    }
    run.finish()
}

/// A resilient run in progress: one [`EnsembleSession`] kept alive across
/// checkpointed segments, rebuilt (at k−1, from the last checkpoint) only
/// when a member leaves — by fault or by [`Self::evict`].
pub struct ResilientRun {
    cfg: EnsembleConfig,
    /// Current config position -> original member index.
    original: Vec<usize>,
    /// `None` until the first command and after a member left.
    session: Option<EnsembleSession>,
    checkpoint: Option<EnsembleCheckpoint>,
    /// Taken by the first world: an injected fault fires once.
    plan: FaultPlan,
    deadline: Duration,
    capacities: Option<Vec<f64>>,
    events: Vec<RecoveryEvent>,
    faulty_segments: Vec<Vec<Vec<OpRecord>>>,
    /// Traffic logs of every world this run has already left.
    traces: Vec<Vec<OpRecord>>,
}

impl ResilientRun {
    /// Prepare a run; arguments as for
    /// [`run_xgyro_resilient_with_capacities`]. The world is spawned by the
    /// first command.
    pub fn new(
        config: &EnsembleConfig,
        resume_from: Option<EnsembleCheckpoint>,
        plan: FaultPlan,
        deadline: Duration,
        capacities: Option<&[f64]>,
    ) -> Result<Self, RecoveryError> {
        if let Some(caps) = capacities {
            assert_eq!(
                caps.len(),
                config.total_ranks(),
                "capacities must cover every original world rank"
            );
            assert!(
                caps.iter().all(|c| c.is_finite() && *c > 0.0),
                "capacities must be positive and finite"
            );
        }
        if let Some(cp) = &resume_from {
            cp.check_matches(config).map_err(RecoveryError::Checkpoint)?;
        }
        Ok(Self {
            cfg: config.clone(),
            original: (0..config.k()).collect(),
            session: None,
            checkpoint: resume_from,
            plan,
            deadline,
            capacities: capacities.map(<[f64]>::to_vec),
            events: Vec::new(),
            faulty_segments: Vec::new(),
            traces: Vec::new(),
        })
    }

    /// Step the survivors `steps` further and checkpoint them without
    /// leaving the world. A rank fault evicts its member, reopens from the
    /// last checkpoint at k−1 and runs the segment again.
    pub fn advance(&mut self, steps: usize) -> Result<&EnsembleCheckpoint, RecoveryError> {
        let (session, checkpoint) = self.retry(steps as u64, |mut session| {
            let checkpoint = session.advance(steps)?;
            Ok((session, checkpoint))
        })?;
        self.session = Some(session);
        Ok(self.checkpoint.insert(checkpoint))
    }

    /// Drop the member at current position `pos` (a cancellation): the
    /// next command reopens at k−1 from the last checkpoint.
    pub fn evict(&mut self, pos: usize) -> Result<(), RecoveryError> {
        self.leave();
        self.shrink(pos).map(|_| ())
    }

    /// Original member indices still running, by current position.
    pub fn survivors(&self) -> &[usize] {
        &self.original
    }

    /// Every failure/recovery so far, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The last coherent checkpoint — what a preempted run resumes from.
    pub fn checkpoint(&self) -> Option<&EnsembleCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// End without finishing (a preemption); the traffic logs so far.
    pub fn close(mut self) -> Vec<Vec<OpRecord>> {
        self.leave();
        self.traces
    }

    fn leave(&mut self) {
        if let Some(session) = self.session.take() {
            self.traces.extend(session.close());
        }
    }

    /// Gather the survivors' results and end the run.
    pub fn finish(mut self) -> Result<RecoveryOutcome, RecoveryError> {
        let (mut outcome, checkpoint) = self.retry(0, EnsembleSession::finish)?;
        // Report survivors under their original sweep indices, and carry
        // the trace set of every world the run went through.
        for (s, &orig) in outcome.sims.iter_mut().zip(&self.original) {
            s.sim = orig;
        }
        self.traces.append(&mut outcome.traces);
        outcome.traces = self.traces;
        Ok(RecoveryOutcome {
            outcome,
            checkpoint,
            steps_replayed: self.events.iter().map(|e| e.steps_replayed).sum(),
            events: self.events,
            faulty_segments: self.faulty_segments,
            surviving_members: self.original,
        })
    }

    /// Run `op` on the session until it succeeds, recovering in degraded
    /// mode from every fault on the way (`lost_steps` were in flight).
    fn retry<T>(
        &mut self,
        lost_steps: u64,
        op: impl Fn(EnsembleSession) -> Result<T, SegmentFault>,
    ) -> Result<T, RecoveryError> {
        loop {
            match self.take_session().and_then(&op) {
                Ok(done) => return Ok(done),
                Err(fault) => self.recover(fault, lost_steps)?,
            }
        }
    }

    /// The live session, or a new world opened from the last checkpoint.
    fn take_session(&mut self) -> Result<EnsembleSession, SegmentFault> {
        if let Some(session) = self.session.take() {
            return Ok(session);
        }
        EnsembleSession::open(
            &self.cfg,
            self.checkpoint.as_ref(),
            Some(self.deadline),
            Some(std::mem::take(&mut self.plan)),
        )
    }

    /// A world was lost to `fault` while `lost_steps` were in flight: evict
    /// the culprit's member and roll back to the last checkpoint.
    fn recover(&mut self, fault: SegmentFault, lost_steps: u64) -> Result<(), RecoveryError> {
        let (rank, cause, mut partial, wasted_us) = match fault {
            SegmentFault::Rank { rank, cause, traces, wasted_us } => {
                (rank, cause, traces, wasted_us)
            }
            SegmentFault::Panicked(msg) => return Err(RecoveryError::Unrecoverable(msg)),
        };
        // The same wasted_us lands in the Recover trace records and in the
        // obs registry (xgyro_recovery_*).
        xg_obs::record_recovery_waste(wasted_us);
        let a = assignment(&self.cfg, rank);
        let failed_member = self.original[a.sim];
        let moved_rows = self.shrink(a.sim)?;
        // Stamp every survivor's partial trace with a Recover record:
        // members = the degraded world's ranks, bytes = wasted microseconds.
        let survivors_ranks: Vec<usize> = (0..self.cfg.total_ranks()).collect();
        for (r, t) in partial.iter_mut().enumerate() {
            if r != rank {
                t.push(OpRecord {
                    op: OpKind::Recover,
                    comm_label: "world".to_string(),
                    participants: survivors_ranks.len(),
                    members: survivors_ranks.clone(),
                    bytes: wasted_us,
                    phase: "recover".to_string(),
                    elapsed_us: wasted_us,
                });
            }
        }
        self.faulty_segments.push(partial.clone());
        self.traces.extend(partial);
        self.events.push(RecoveryEvent {
            failed_rank: rank,
            failed_member,
            cause,
            resumed_from_step: self.checkpoint.as_ref().map_or(0, |c| c.steps_taken()),
            steps_replayed: lost_steps,
            survivors: self.original.clone(),
            moved_rows,
        });
        Ok(())
    }

    /// Remove the member at `pos` from the config, the index map and the
    /// checkpoint; returns the coll rows a capacity-aware rebalance moved.
    fn shrink(&mut self, pos: usize) -> Result<u64, RecoveryError> {
        let mut cfg = self.cfg.evict_member(pos).map_err(RecoveryError::Ensemble)?;
        self.original.remove(pos);
        // Capacity-aware rebalance: apportion the coll rows to the
        // survivors' actual speeds instead of shrinking uniformly.
        // (`evict_member` already dropped any previous cuts.)
        let mut moved_rows = 0;
        if let Some(caps) = &self.capacities {
            if let (Some(cuts), moved) = capacity_cuts(&cfg, &self.original, caps) {
                moved_rows = moved;
                cfg = cfg.with_coll_cuts(Some(cuts)).map_err(RecoveryError::Ensemble)?;
                xg_obs::record_rebalance(moved_rows);
            }
        }
        self.cfg = cfg;
        if let Some(cp) = self.checkpoint.take() {
            self.checkpoint = Some(cp.evict_member(pos).map_err(RecoveryError::Checkpoint)?);
        }
        Ok(moved_rows)
    }
}

/// Capacity-weighted coll cuts for the surviving ensemble, plus the rows
/// they move relative to the uniform shrink. `original` maps each surviving
/// config position to its original member index; `caps` is indexed by
/// original world rank. Returns `(None, 0)` when the surviving positions'
/// capacities are uniform (the balanced split is already optimal — leave
/// `coll_cuts` unset so the run stays on the canonical path).
fn capacity_cuts(
    cfg: &EnsembleConfig,
    original: &[usize],
    caps: &[f64],
) -> (Option<Vec<usize>>, u64) {
    let grid = cfg.grid();
    let per_sim = cfg.ranks_per_sim();
    let nc = cfg.members()[0].dims().nc;
    // One weight per surviving coll position (s, i1): a position's cut is
    // shared across every i2 slice, so it runs at its slowest rank's pace.
    let mut weights = Vec::with_capacity(cfg.k() * grid.n1);
    for &orig in original {
        for i1 in 0..grid.n1 {
            let w = (0..grid.n2)
                .map(|i2| caps[orig * per_sim + grid.rank(i1, i2)])
                .fold(f64::INFINITY, f64::min);
            weights.push(w);
        }
    }
    if weights.iter().all(|&w| w == weights[0]) {
        return (None, 0);
    }
    let cuts = RaggedDecomp::weighted(nc, &weights).counts();
    let ragged = RaggedDecomp::from_counts(&cuts);
    let uniform = RaggedDecomp::balanced(nc, cuts.len());
    let mut overlap = 0usize;
    for p in 0..ragged.parts() {
        let (r, s) = (ragged.range(p), uniform.range(p));
        overlap += r.end.min(s.end).saturating_sub(r.start.max(s.start));
    }
    (Some(cuts), (nc - overlap) as u64)
}
