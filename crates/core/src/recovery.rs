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
//!    are rebuilt — and the rows are re-distributed over the survivors on
//!    the balanced split by [`crate::topology::build_xgyro_topology`].
//!
//! [`run_xgyro_resilient_from`] is the one-call driver: a [`ResilientRun`]
//! advanced in checkpointed segments.
//!
//! Because every reduction combines contributions in communicator-rank
//! order and member trajectories only couple through the *shared, constant*
//! `cmat` (identical for any k), the degraded continuation is **bitwise
//! identical** to an unfaulted run of the surviving members alone — the
//! property the `fault_*` rows of the root `tests/contract.rs` assert.

use crate::checkpoint::{CheckpointError, EnsembleCheckpoint};
use crate::ensemble::{EnsembleConfig, EnsembleError};
use crate::runner::RunOutcome;
use crate::session::{EnsembleSession, SegmentFault};
use crate::topology::assignment;
use std::time::Duration;
use xg_comm::{CommError, FaultPlan, OpKind, OpRecord};

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
/// degraded (k−1) mode. `resume_from` seeds the run from a prior
/// [`EnsembleCheckpoint`] (rejected with [`RecoveryError::Checkpoint`]
/// unless it matches the config's cmat key, k and dims); `total_steps` then
/// counts steps *beyond* it, whose absolute step counter keeps advancing.
/// `plan` seeds the faults to inject (empty plan: plain checkpointed
/// execution); a spec's `at_op` counts the operations a rank issued since
/// the run's world started — the world outlives the segments, so a fault
/// can land in any of them, including after checkpoints exist. `deadline`
/// bounds every blocking wait — it is what converts a dead peer into a
/// typed error instead of a hang. Each call opens its own world: a caller
/// that wants one world across many calls holds a [`ResilientRun`]
/// instead.
pub fn run_xgyro_resilient_from(
    config: &EnsembleConfig,
    resume_from: Option<EnsembleCheckpoint>,
    total_steps: usize,
    ckpt_every: usize,
    plan: FaultPlan,
    deadline: Duration,
) -> Result<RecoveryOutcome, RecoveryError> {
    assert!(ckpt_every > 0, "checkpoint cadence must be positive");
    let mut run = ResilientRun::new(config, resume_from, plan, deadline)?;
    let mut left = total_steps;
    while left > ckpt_every {
        run.advance(ckpt_every)?;
        left -= ckpt_every;
    }
    run.finish_segment(left)
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
    events: Vec<RecoveryEvent>,
    faulty_segments: Vec<Vec<Vec<OpRecord>>>,
    /// Traffic logs of every world this run has already left.
    traces: Vec<Vec<OpRecord>>,
}

impl ResilientRun {
    /// Prepare a run; arguments as for [`run_xgyro_resilient_from`]. The
    /// world is spawned by the first command.
    pub fn new(
        config: &EnsembleConfig,
        resume_from: Option<EnsembleCheckpoint>,
        plan: FaultPlan,
        deadline: Duration,
    ) -> Result<Self, RecoveryError> {
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
        self.shrink(pos)
    }

    /// Original member indices still running, by current position.
    pub fn survivors(&self) -> &[usize] {
        &self.original
    }

    /// Every failure/recovery so far, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// End without finishing (every member cancelled, or a failure); the
    /// traffic logs so far.
    pub fn close(mut self) -> Vec<Vec<OpRecord>> {
        self.leave();
        self.traces
    }

    fn leave(&mut self) {
        if let Some(session) = self.session.take() {
            self.traces.extend(session.close());
        }
    }

    /// Step the survivors a last `steps` and end the run. The segment's
    /// final state is gathered once, as the results — not first as a
    /// checkpoint too. A rank fault evicts its member, reopens from the
    /// last checkpoint at k−1 and runs the segment again.
    pub fn finish_segment(mut self, steps: usize) -> Result<RecoveryOutcome, RecoveryError> {
        let (mut outcome, checkpoint) = self.retry(steps as u64, |mut session| {
            session.step(steps)?;
            session.finish()
        })?;
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
        let a = assignment(&self.cfg, rank);
        let failed_member = self.original[a.sim];
        self.shrink(a.sim)?;
        // Stamp every survivor's partial trace with a Recover record:
        // members = the degraded world's ranks, bytes = wasted microseconds.
        // These records are the one account of wasted time: the daemon
        // reads them as its `recover` execution phase.
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
        });
        Ok(())
    }

    /// Remove the member at `pos` from the config, the index map and the
    /// checkpoint. The survivors reopen on the balanced split
    /// [`EnsembleConfig::evict_member`] builds.
    fn shrink(&mut self, pos: usize) -> Result<(), RecoveryError> {
        self.cfg = self.cfg.evict_member(pos).map_err(RecoveryError::Ensemble)?;
        self.original.remove(pos);
        if let Some(cp) = self.checkpoint.take() {
            self.checkpoint = Some(cp.evict_member(pos).map_err(RecoveryError::Checkpoint)?);
        }
        Ok(())
    }
}
