//! The one stepping engine: a persistent ensemble world.
//!
//! An [`EnsembleSession`] starts the [`World`] **once** on a host thread.
//! Each rank builds its topology — and with it its slice of the shared
//! `cmat`, the one cost the paper exists to amortize — and its
//! [`Simulation`] once, then parks on a per-rank job channel:
//!
//! ```text
//! open ──► step* / checkpoint* / diagnostics* ──► finish
//!   └── rank fault at any point ──► SegmentFault (driver reopens at k−1)
//! ```
//!
//! Jobs and results travel over plain channels, never the communicators, so
//! traces, op counts and [`FaultPlan`] indices are those of one
//! uninterrupted run however the caller slices it into segments.

use crate::checkpoint::EnsembleCheckpoint;
use crate::ensemble::EnsembleConfig;
use crate::runner::{RunOutcome, SimResult};
use crate::topology::{assignment, build_xgyro_topology};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xg_comm::{CommError, Communicator, FaultPlan, OpRecord, RankOutcome, World};
use xg_linalg::Complex64;
use xg_sim::{Diagnostics, DistTopology, Simulation, Topology};
use xg_tensor::{PhaseLayout, Tensor3};

/// Why a session stopped: it is torn down by the time the caller sees this.
#[derive(Debug)]
pub enum SegmentFault {
    /// A rank failed with a typed communication error (dead peer, expired
    /// deadline, injected fault); every survivor observed it and unwound.
    Rank {
        /// The culprit world rank.
        rank: usize,
        /// What the survivors observed.
        cause: CommError,
        /// Every rank's traffic log up to the fault (`Fault` record included).
        traces: Vec<Vec<OpRecord>>,
        /// Wall-clock cost of the abandoned call, microseconds.
        wasted_us: u64,
    },
    /// A rank died with an untyped panic — a bug, not a modeled fault.
    Panicked(String),
}

type Sim = Simulation<DistTopology>;
/// Work for one parked rank; it owns the sender its result goes back on, so
/// a rank that dies instead of answering hangs up.
type Job = Box<dyn FnOnce(&mut Sim) + Send>;
/// Taken by a rank on entry: its job queue, and where it reports ready.
type RankSlot = Mutex<Option<(Receiver<Job>, Sender<(usize, u64)>)>>;
type WorldResult = Vec<(RankOutcome<()>, Vec<OpRecord>)>;

/// A live ensemble: one world, one topology, one `cmat`, stepped on demand.
pub struct EnsembleSession {
    cfg: EnsembleConfig,
    jobs: Vec<Sender<Job>>,
    host: Option<JoinHandle<WorldResult>>,
    cmat_bytes: Vec<u64>,
}

impl EnsembleSession {
    /// Spawn the world and park every rank on a steppable simulation,
    /// optionally seeded from `resume`. `deadline` bounds every blocking
    /// communication wait and `plan` schedules injected faults, counted in
    /// operations since this open.
    ///
    /// # Panics
    /// When `resume` fails [`EnsembleCheckpoint::check_matches`].
    pub fn open(
        cfg: &EnsembleConfig,
        resume: Option<&EnsembleCheckpoint>,
        deadline: Option<Duration>,
        plan: Option<FaultPlan>,
    ) -> Result<Self, SegmentFault> {
        Self::open_wired(cfg, true, resume, deadline, plan)
    }

    /// [`Self::open`] with Figure-3 wiring (`shared_coll`) or Figure-1 (one
    /// standalone CGYRO simulation, `k = 1`).
    pub(crate) fn open_wired(
        cfg: &EnsembleConfig,
        shared_coll: bool,
        resume: Option<&EnsembleCheckpoint>,
        deadline: Option<Duration>,
        plan: Option<FaultPlan>,
    ) -> Result<Self, SegmentFault> {
        if let Some(cp) = resume {
            cp.check_matches(cfg).expect("resume checkpoint must belong to this ensemble");
        }
        let _setup = xg_obs::span(xg_obs::Phase::Setup);
        let since = Instant::now();
        let mut world = World::new(cfg.total_ranks());
        if let Some(d) = deadline {
            world = world.with_deadline(d);
        }
        if let Some(p) = plan.filter(|p| !p.is_empty()) {
            world = world.with_fault_plan(p);
        }
        let (ready_tx, ready) = channel();
        let (jobs, slots): (Vec<_>, Vec<RankSlot>) = (0..cfg.total_ranks())
            .map(|_| {
                let (tx, rx) = channel();
                (tx, Mutex::new(Some((rx, ready_tx.clone()))))
            })
            .unzip();
        drop(ready_tx);
        let shared = Arc::new((cfg.clone(), resume.cloned(), slots));
        xg_obs::record_world_spawn();
        let host = std::thread::spawn(move || {
            world.run_fallible(|comm| {
                let (cfg, resume, slots) = &*shared;
                let slot = &slots[comm.rank()];
                rank_main(comm, cfg, shared_coll, resume.as_ref(), slot)
            })
        });
        let mut session = Self { cfg: cfg.clone(), jobs, host: Some(host), cmat_bytes: Vec::new() };
        session.cmat_bytes = session.gather(ready, since)?;
        Ok(session)
    }

    /// Advance every member `steps` time steps.
    pub fn step(&mut self, steps: usize) -> Result<(), SegmentFault> {
        self.on_all(move |sim| sim.run_steps(steps)).map(|_| ())
    }

    /// Gather a coherent checkpoint without leaving the world.
    pub fn checkpoint(&mut self) -> Result<EnsembleCheckpoint, SegmentFault> {
        let shards = self.on_all(|sim| (sim.h().clone(), sim.time(), sim.steps_taken()))?;
        let dims = self.cfg.members()[0].dims();
        let grid = self.cfg.grid();
        let mut members = vec![vec![Complex64::ZERO; dims.state_len()]; self.cfg.k()];
        for (rank, (h, _, _)) in shards.iter().enumerate() {
            let a = assignment(&self.cfg, rank);
            let layout = PhaseLayout::new(dims, grid, grid.rank(a.i1, a.i2));
            for_each_line(&layout, |local, global| {
                members[a.sim][global].copy_from_slice(&h.as_slice()[local]);
            });
        }
        // The ensemble steps in lockstep: every rank reports the same clock.
        let (time, steps_taken) = (shards[0].1, shards[0].2);
        Ok(EnsembleCheckpoint {
            cmat_key: self.cfg.cmat_key(),
            k: self.cfg.k(),
            time,
            steps_taken,
            members,
            dims: (dims.nc, dims.nv, dims.nt),
        })
    }

    /// [`Self::step`] then [`Self::checkpoint`]: one checkpointed segment.
    pub fn advance(&mut self, steps: usize) -> Result<EnsembleCheckpoint, SegmentFault> {
        self.step(steps)?;
        self.checkpoint()
    }

    /// Each member's diagnostics at the current step (collective; identical
    /// on every rank of a member, taken from its lead rank).
    pub fn diagnostics(&mut self) -> Result<Vec<Diagnostics>, SegmentFault> {
        let per_rank = self.on_all(|sim| sim.diagnostics())?;
        Ok(per_rank.into_iter().step_by(self.cfg.ranks_per_sim()).collect())
    }

    /// End the run: final diagnostics, one last gather, the traffic logs
    /// drained once. Results are indexed by position in this config.
    pub fn finish(mut self) -> Result<(RunOutcome, EnsembleCheckpoint), SegmentFault> {
        let diagnostics = self.diagnostics()?;
        let checkpoint = self.checkpoint()?;
        let (nc, nv, nt) = checkpoint.dims;
        let sims = diagnostics
            .into_iter()
            .zip(self.cmat_bytes.chunks(self.cfg.ranks_per_sim()))
            .enumerate()
            .map(|(sim, (diagnostics, bytes))| {
                let mut h = Tensor3::new(nc, nv, nt);
                h.as_mut_slice().copy_from_slice(&checkpoint.members[sim]);
                SimResult { sim, h, diagnostics, cmat_bytes_per_rank: bytes.to_vec() }
            })
            .collect();
        Ok((RunOutcome { sims, traces: self.close() }, checkpoint))
    }

    /// Stop the world without a final gather; every rank's traffic log.
    pub fn close(mut self) -> Vec<Vec<OpRecord>> {
        self.join().into_iter().map(|(_, trace)| trace).collect()
    }

    /// Run `work` on every rank's simulation; results in rank order.
    fn on_all<T: Send + 'static>(
        &mut self,
        work: impl Fn(&mut Sim) -> T + Clone + Send + 'static,
    ) -> Result<Vec<T>, SegmentFault> {
        let since = Instant::now();
        let (tx, results) = channel();
        for (rank, queue) in self.jobs.iter().enumerate() {
            let (tx, work) = (tx.clone(), work.clone());
            // A rank that already left drops the job, and `tx` with it.
            let _ = queue.send(Box::new(move |sim: &mut Sim| {
                let _ = tx.send((rank, work(sim)));
            }));
        }
        drop(tx);
        self.gather(results, since)
    }

    /// One result per rank — or, when a rank hung up instead of answering,
    /// the fault that took the world down.
    fn gather<T>(
        &mut self,
        results: Receiver<(usize, T)>,
        since: Instant,
    ) -> Result<Vec<T>, SegmentFault> {
        if self.host.is_none() {
            return Err(SegmentFault::Panicked("the session is already torn down".into()));
        }
        let mut got: Vec<Option<T>> = self.jobs.iter().map(|_| None).collect();
        for _ in 0..got.len() {
            match results.recv() {
                Ok((rank, v)) => got[rank] = Some(v),
                Err(_) => return Err(self.fault(since)),
            }
        }
        Ok(got.into_iter().flatten().collect())
    }

    /// Release the parked ranks and wait for the world to end.
    fn join(&mut self) -> WorldResult {
        self.jobs.clear();
        self.host.take().and_then(|host| host.join().ok()).unwrap_or_default()
    }

    /// A rank left mid-call: tear the world down and name the culprit.
    fn fault(&mut self, since: Instant) -> SegmentFault {
        let results = self.join();
        let wasted_us = since.elapsed().as_micros() as u64;
        let mut traces = Vec::with_capacity(results.len());
        let mut failed = Vec::new();
        for (rank, (outcome, trace)) in results.into_iter().enumerate() {
            traces.push(trace);
            match outcome {
                RankOutcome::Ok(()) => {}
                RankOutcome::Panicked(m) => return SegmentFault::Panicked(m),
                RankOutcome::Failed(e) => failed.push((rank, e)),
            }
        }
        if failed.is_empty() {
            return SegmentFault::Panicked("a rank left the session without a fault".into());
        }
        // Prefer the first PeerFailed cause (it names the culprit) over a
        // bare Timeout.
        let named = failed.iter().position(|(_, e)| matches!(e, CommError::PeerFailed { .. }));
        let (seen_by, cause) = failed.swap_remove(named.unwrap_or(0));
        let rank = match &cause {
            CommError::PeerFailed { rank, .. } => *rank,
            CommError::Timeout { missing, .. } => *missing.first().unwrap_or(&seen_by),
        };
        SegmentFault::Rank { rank, cause, traces, wasted_us }
    }
}

impl Drop for EnsembleSession {
    fn drop(&mut self) {
        self.join();
    }
}

/// One rank's life: build once, then run jobs until the host hangs up.
fn rank_main(
    comm: Communicator,
    cfg: &EnsembleConfig,
    shared_coll: bool,
    resume: Option<&EnsembleCheckpoint>,
    slot: &RankSlot,
) -> Result<(), CommError> {
    let rank = comm.rank();
    let (jobs, ready) =
        slot.lock().expect("rank slot lock").take().expect("each rank enters once");
    let (a, topo) = if shared_coll {
        build_xgyro_topology(cfg, &comm)
    } else {
        (assignment(cfg, rank), DistTopology::cgyro(&cfg.members()[0], cfg.grid(), comm))
    };
    if rank == 0 {
        xg_obs::record_cmat_build();
    }
    let cmat_bytes = topo.cmat().bytes();
    let layout = topo.layout();
    let mut sim = Simulation::new(cfg.members()[a.sim].clone(), topo);
    if let Some(cp) = resume {
        // Carve this rank's local slice out of the member's global state.
        let mut local = vec![Complex64::ZERO; layout.str_len()];
        for_each_line(&layout, |l, g| local[l].copy_from_slice(&cp.members[a.sim][g]));
        sim.restore_state(&local, cp.time, cp.steps_taken);
    }
    // Report once and hang up: the host hears from every rank or sees the
    // channel close.
    let _ = ready.send((rank, cmat_bytes));
    drop(ready);
    for job in jobs {
        job(&mut sim);
    }
    Ok(())
}

/// The contiguous `nt` lines a rank's shard `(nc, nv_loc, nt_loc)` shares
/// with its member's global `(nc, nv, nt)` state: `(local, global)` ranges.
fn for_each_line(
    layout: &PhaseLayout,
    mut f: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>),
) {
    let dims = layout.dims();
    let (nc, nvl, ntl) = layout.str_shape();
    let nt0 = layout.nt_range().start;
    for ic in 0..nc {
        for (ivl, iv) in layout.nv_range().enumerate() {
            let (l, g) = ((ic * nvl + ivl) * ntl, (ic * dims.nv + iv) * dims.nt + nt0);
            f(l..l + ntl, g..g + ntl);
        }
    }
}
