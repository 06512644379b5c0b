//! The campaign server: admission → grouping → bounded workers → results.
//!
//! Threads:
//!
//! * **submitters** (callers of [`CampaignServer::submit`]) run admission
//!   and grouper placement synchronously under the state lock — a client
//!   holds a job id only for work the server has really accepted;
//! * `workers` **worker** threads, the server's only long-lived threads,
//!   move linger-expired batches to the ready queue, pop the next one by
//!   fair share and execute it as one XGYRO ensemble through one
//!   [`xgyro_core::ResilientRun`] — one world and one `cmat`
//!   factorization for the life of the batch — checkpointed every
//!   `ckpt_every` steps, so cancellations are applied at checkpoint
//!   boundaries and a faulted member is evicted without killing its
//!   batch-mates. An idle worker sleeps until the earliest linger
//!   deadline. Submitters flush expired batches too, before placing, so a
//!   batch past its deadline never takes another job.
//!
//! All state lives behind one mutex; nothing blocks while holding it except
//! condition-variable waits. Simulation segments run outside the lock.
//!
//! Every job lifecycle change is a [`JournalRecord`]: this file decides
//! *whether* one happens (admission, placement, dispatch, cancellation),
//! appends it to the journal and hands it to the job table
//! (`crate::table`), whose `apply` is the only code that constructs a job
//! or moves it between states. A restart replays the journal through the
//! same `apply` and then only applies recovery policy ([`recover`]).

use crate::admission::{check_spec, AdmitError};
use crate::artifacts::{self, ArtifactConfig, PublishContext};
use crate::batcher::{FlushReason, FlushedBatch, Grouper, GrouperConfig, Placement};
use crate::job::{unix_us, BatchId, JobEvent, JobId, JobOutcome, JobSpec, JobState, JobStatus};
use crate::journal::{self, Journal, JournalConfig, JournalRecord};
use crate::metrics::Metrics;
use crate::sched::DispatchQueue;
use crate::table::{BatchCheckpoint, CheckpointState, Ignored, Job, JobTable};
use crate::tenant::TenantDirectory;
use xg_artifact::{deck_hash, ArtifactStore, DeckHash, GcReport, Manifest};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xg_comm::FaultPlan;
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{EnsembleCheckpoint, EnsembleConfig, EnsembleError, ResilientRun};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The largest per-simulation process grid a batch's world may use
    /// (the thread-backed substrate's analogue of the per-sim MPI
    /// decomposition). Worlds run on [`world_grid`]'s fit of it to the
    /// host; every deck admitted must fit this grid itself.
    pub grid: ProcGrid,
    /// Operator cap on batch size; the effective cap may be lower where the
    /// memory budget binds ([`xg_cluster::max_feasible_k_unbalanced`]).
    pub k_max: usize,
    /// How long an underfull batch waits for key-mates before flushing.
    pub linger: Duration,
    /// Bound on live (non-terminal) jobs — admission backpressure.
    pub queue_capacity: usize,
    /// Worker threads (concurrently running batches).
    pub workers: usize,
    /// Segment length in steps: cancellations and evictions apply at these
    /// checkpoint boundaries.
    pub ckpt_every: usize,
    /// Deadline bounding every blocking communication wait.
    pub deadline: Duration,
    /// Modeled node allocation backing the memory budget.
    pub nodes: usize,
    /// Machine model pricing the memory budget.
    pub machine: MachineModel,
    /// Fault-injection chaos hook: consumed by the first batch executed
    /// (None for production operation).
    pub fault_plan: Option<FaultPlan>,
    /// Durability journal configuration. `None` runs journal-less (the
    /// pre-journal behaviour: a crash loses everything in memory); `Some`
    /// makes every lifecycle transition a persisted, replayable record and
    /// replays whatever a previous life left in the directory at startup.
    pub journal: Option<JournalConfig>,
    /// Content-addressed artifact store configuration. `None` runs
    /// cache-less; `Some` publishes every completed batch member and serves
    /// re-submitted byte-identical decks straight to `Done`.
    pub artifacts: Option<ArtifactConfig>,
    /// Tenant roster: per-tenant weights, quotas, and secrets.
    /// The default open directory accepts any well-formed tenant name,
    /// unquota'd at weight 1 (see [`TenantDirectory`]).
    pub tenants: TenantDirectory,
    /// DRR quantum for the fair-share dispatch queue: work units credited
    /// per round-robin visit per unit of tenant weight.
    pub quantum: u64,
    /// Terminal jobs retained (count window): once more than this many
    /// jobs are terminal, the oldest are evicted together with their
    /// idempotency-token dedup entries. This window (with `retain_age`) is
    /// the one retention policy: journal compaction drops a finished job's
    /// records only once it has left the window, so a restart answers for
    /// exactly the jobs the previous life answered for.
    pub retain_jobs: usize,
    /// Terminal jobs older than this are evicted (age window).
    pub retain_age: Duration,
}

impl ServerConfig {
    /// A configuration sized for tests and the CI smoke run: tiny decks,
    /// 3 modeled small-cluster nodes (12 ranks — the smallest allocation
    /// whose memory budget admits `k = 3` for the small test deck), short
    /// linger.
    pub fn local_test() -> Self {
        Self {
            grid: ProcGrid::new(2, 1),
            k_max: 3,
            linger: Duration::from_millis(50),
            queue_capacity: 64,
            workers: 2,
            ckpt_every: 10,
            deadline: Duration::from_secs(10),
            nodes: 3,
            machine: MachineModel::small_cluster(),
            fault_plan: None,
            journal: None,
            artifacts: None,
            tenants: TenantDirectory::open(),
            quantum: crate::sched::DEFAULT_QUANTUM,
            retain_jobs: 4096,
            retain_age: Duration::from_secs(3600),
        }
    }
}

/// The grid every world of a daemon runs on: the largest power-of-two grid
/// `n1 × n2` within `max` (componentwise) whose rank threads, with every
/// worker running a world of `k_max` members, fit `cores` —
/// `workers·k_max·n1·n2 ≤ cores` — and at least 1×1. Ties go to the larger
/// `n1`. Every velocity moment sums over one fixed tree, so the results
/// have the same bits on every power-of-two grid, and equal direct runs at
/// `max` when `max` is one; a non-power-of-two `max` is never used itself.
pub fn world_grid(max: ProcGrid, cores: usize, workers: usize, k_max: usize) -> ProcGrid {
    let pow2_upto = |n: usize| (0..).map(|j| 1usize << j).take_while(move |&p| p <= n);
    let ranks = |g: &ProcGrid| workers.saturating_mul(k_max).saturating_mul(g.size());
    pow2_upto(max.n1)
        .flat_map(|n1| pow2_upto(max.n2).map(move |n2| ProcGrid::new(n1, n2)))
        .filter(|g| ranks(g) <= cores)
        .max_by_key(|g| (g.size(), g.n1))
        .unwrap_or(ProcGrid::new(1, 1))
}

/// What a cache consult at admission would do for a deck, as reported by
/// [`CampaignServer::dry_run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// No artifact store is configured.
    Off,
    /// A manifest for this deck hash is published: submitting would be
    /// served from the store without executing any steps.
    Hit,
    /// The store has no entry for this deck hash.
    Miss,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheStatus::Off => "off",
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        })
    }
}

/// Everything [`CampaignServer::dry_run`] computes about a submission
/// without admitting it.
#[derive(Clone, Debug)]
pub struct DryRun {
    /// The deck's cmat sharing key.
    pub cmat_key: u64,
    /// The deck's canonical semantic identity.
    pub deck_hash: DeckHash,
    /// What the artifact store would do with this submission.
    pub cache: CacheStatus,
    /// Where the grouper would place the job right now.
    pub placement: Placement,
    /// The grid its batch would run on ([`world_grid`]).
    pub proc_grid: ProcGrid,
}

/// What startup journal replay reconstructed (all-zero when running
/// journal-less or from an empty directory): the metrics snapshot's
/// [`Metrics::recovery`], exported as the `xgserve_replay_*` families.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Journal records replayed.
    pub replayed_records: u64,
    /// Jobs restored into the job table (terminal and live).
    pub restored_jobs: u64,
    /// Running batches rebuilt and queued for resumption.
    pub resumed_batches: u64,
    /// Waiting jobs re-admitted through the grouper.
    pub readmitted_jobs: u64,
    /// Torn-tail bytes truncated during replay.
    pub torn_bytes: u64,
    /// Journal segment bytes read and checksummed by the replay.
    pub replay_bytes: u64,
    /// Wall time the replay took, microseconds.
    pub replay_us: u64,
    /// Checkpoint files read, verified against their record and resumed
    /// from.
    pub checkpoint_files_loaded: u64,
    /// Checkpoint files no replayed record retains, and `*.tmp` files a
    /// crash left mid-write, deleted at startup.
    pub checkpoint_orphans_removed: u64,
    /// Human-readable warnings (torn tails, dropped checkpoints, …).
    pub warnings: Vec<String>,
}

/// Resume context for a batch rebuilt from the journal.
#[derive(Debug)]
struct ResumeState {
    /// Decoded, validated ensemble checkpoint (None restarts from step 0).
    checkpoint: Option<EnsembleCheckpoint>,
    /// Steps already completed at that checkpoint.
    done: usize,
    /// Next checkpoint sequence number to journal.
    next_seq: u64,
}

/// How a ready batch came to the dispatch queue.
#[derive(Debug)]
enum BatchOrigin {
    /// Flushed by the grouper: its members are still `Batched`, and its
    /// dispatch is counted under the flush reason.
    Flushed(FlushReason),
    /// Rebuilt by journal replay: its members are already `Running` and it
    /// was counted when first dispatched.
    Resumed(ResumeState),
}

/// A batch waiting for a worker.
#[derive(Debug)]
struct ReadyBatch {
    id: BatchId,
    jobs: Vec<JobId>,
    origin: BatchOrigin,
}

#[derive(Debug)]
struct State {
    /// Every job, its live/quota/retention ledgers and the running-batch
    /// map — changed only by applying journal records (see [`commit`]).
    table: JobTable,
    grouper: Grouper,
    ready: DispatchQueue<ReadyBatch>,
    metrics: Metrics,
    draining: bool,
    shutdown: bool,
    fault_plan: Option<FaultPlan>,
    journal: Option<Journal>,
}

struct Shared {
    cfg: ServerConfig,
    /// The grid every world runs on, fixed at start ([`world_grid`]).
    world_grid: ProcGrid,
    /// The artifact store, when configured. Its methods take `&self` and
    /// commit atomically, so it lives outside the state mutex.
    store: Option<ArtifactStore>,
    state: Mutex<State>,
    /// Idle workers wait here for ready batches or the next linger
    /// deadline.
    work: Condvar,
    /// Drain/join waits here for the live-job count to hit zero.
    quiet: Condvar,
}

/// The campaign service. Call [`CampaignServer::drain`] then
/// [`CampaignServer::shutdown`] for an orderly stop; a bare `shutdown`
/// cancels never-dispatched jobs and cancels the members of running batches
/// at their next checkpoint boundary.
pub struct CampaignServer {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl CampaignServer {
    /// Start the service: `cfg.workers` worker threads, the server's only
    /// long-lived threads.
    ///
    /// When a journal is configured, whatever a previous life left in the
    /// journal directory is replayed first (see [`recover`]): terminal jobs
    /// come back with their result summaries, waiting jobs are regrouped,
    /// and running batches are queued to resume from their last journaled
    /// checkpoint.
    ///
    /// # Panics
    /// When the journal directory cannot be opened — a daemon that cannot
    /// persist its promises must not come up pretending it can.
    pub fn start(cfg: ServerConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.ckpt_every >= 1, "segment length must be positive");
        let grouper = Grouper::new(GrouperConfig {
            k_max: cfg.k_max,
            linger: cfg.linger,
            nodes: cfg.nodes,
            machine: cfg.machine.clone(),
        });
        let fault_plan = cfg.fault_plan.clone();
        let (journal, replay) = cfg
            .journal
            .clone()
            .map(|jcfg| {
                Journal::open(jcfg)
                    .unwrap_or_else(|e| panic!("cannot open journal in {:?}: {e}", cfg.journal))
            })
            .unzip();
        let st = State {
            table: JobTable::default(),
            grouper,
            ready: DispatchQueue::new(cfg.quantum),
            metrics: Metrics::default(),
            draining: false,
            shutdown: false,
            fault_plan,
            journal,
        };
        // Same contract as the journal: a daemon configured to cache results
        // must not come up unable to keep that promise.
        let store = cfg.artifacts.as_ref().map(|a| {
            ArtifactStore::open(&a.dir)
                .unwrap_or_else(|e| panic!("cannot open artifact store in {:?}: {e}", a.dir))
        });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            world_grid: world_grid(cfg.grid, cores, cfg.workers, cfg.k_max),
            cfg,
            store,
            state: Mutex::new(st),
            work: Condvar::new(),
            quiet: Condvar::new(),
        });
        if let Some(replay) = replay {
            recover(&shared, &mut shared.state.lock(), replay);
        }
        let threads = (0..shared.cfg.workers)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        Self { shared, threads }
    }

    /// The grid every world of this daemon runs on ([`world_grid`]).
    pub fn world_grid(&self) -> ProcGrid {
        self.shared.world_grid
    }

    /// Submit a job. On success the job is already placed in a batch
    /// (state [`JobState::Batched`]); on rejection nothing was admitted.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmitError> {
        self.submit_authed(spec, None, None).map(|(id, _)| id)
    }

    /// Submit with an optional client-supplied idempotency token and tenant
    /// auth secret.
    ///
    /// A token already bound to a job (in this life or a journaled previous
    /// one) returns that job's id with `true` ("duplicate") instead of
    /// enqueueing again — so a client retrying a SUBMIT whose response was
    /// lost can never double-run work.
    ///
    /// The spec's `tenant` field is the *claim*; it is resolved against the
    /// daemon's [`TenantDirectory`] (name validity, roster membership, the
    /// `auth` secret when the roster demands one) and the job is admitted
    /// under the resolved identity — which also gates the tenant's
    /// live-job and live-byte quotas.
    ///
    /// When a journal is configured, the admission record is committed (and
    /// fsynced, per policy) *before* any server state changes; if the
    /// journal refuses, the submission is shed with
    /// [`AdmitError::JournalBackpressure`] and nothing was admitted.
    pub fn submit_authed(
        &self,
        spec: JobSpec,
        token: Option<&str>,
        auth: Option<&str>,
    ) -> Result<(JobId, bool), AdmitError> {
        let shared = &self.shared;
        let mut guard = shared.state.lock();
        let st = &mut *guard;
        let token = token.unwrap_or("");
        if let Some(id) = st.table.token(token) {
            return Ok((id, true));
        }
        let admitted = admit_job(shared, st, spec, token, auth.unwrap_or(""));
        if let Err(e) = &admitted {
            st.metrics.on_reject(e);
        }
        admitted.map(|id| (id, false))
    }

    /// Dry-run placement: the deck's cmat key, canonical deck hash, cache
    /// status, and where the job would land right now — computed by the
    /// same admission checks, cache consult, and grouper code path as
    /// [`CampaignServer::submit`], without admitting anything (the cache
    /// probe does not even refresh the entry's LRU access time).
    pub fn dry_run(&self, spec: &JobSpec) -> Result<DryRun, AdmitError> {
        let mut guard = self.shared.state.lock();
        admit(&self.shared, &guard, spec)?;
        // A real submit flushes expired batches before placing; so does
        // its prediction.
        flush_expired(&self.shared, &mut guard, Instant::now());
        let dh = deck_hash(&spec.input, spec.steps);
        let cache = match self.shared.store.as_ref() {
            None => CacheStatus::Off,
            Some(s) if s.contains(dh) => CacheStatus::Hit,
            Some(_) => CacheStatus::Miss,
        };
        // Normalize an empty tenant claim the way admission would, so the
        // predicted placement matches what a real submit gets.
        let mut probe = spec.clone();
        if probe.tenant.is_empty() {
            probe.tenant = crate::tenant::DEFAULT_TENANT.to_string();
        }
        Ok(DryRun {
            cmat_key: spec.input.cmat_key(),
            deck_hash: dh,
            cache,
            placement: guard.grouper.would_join(&probe),
            proc_grid: self.shared.world_grid,
        })
    }

    /// Fetch a published manifest as its canonical JSON. `Ok(None)` is a
    /// clean miss; `Err` means no store is configured or the entry is
    /// corrupt.
    pub fn artifact_fetch(&self, hash: DeckHash) -> Result<Option<String>, String> {
        let store = self.store_or_err()?;
        match store.lookup(hash) {
            Ok(m) => Ok(m.map(|m| m.to_json())),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Field-level diff of two published manifests: the names of every
    /// field (besides the publication timestamp) where they disagree.
    pub fn artifact_diff(
        &self,
        a: DeckHash,
        b: DeckHash,
    ) -> Result<Vec<&'static str>, String> {
        let store = self.store_or_err()?;
        let load = |h: DeckHash| -> Result<Manifest, String> {
            store
                .lookup(h)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no manifest for {h}"))
        };
        Ok(load(a)?.diff(&load(b)?))
    }

    /// Run retention GC down to `budget_bytes` (pinned manifests and their
    /// objects are never evicted).
    pub fn artifact_gc(&self, budget_bytes: u64) -> Result<GcReport, String> {
        self.store_or_err()?.gc(budget_bytes).map_err(|e| e.to_string())
    }

    /// Pin (or unpin) a manifest so GC never evicts it — the golden-result
    /// mechanism the CI replay job leans on.
    pub fn artifact_pin(&self, hash: DeckHash, pinned: bool) -> Result<(), String> {
        let store = self.store_or_err()?;
        if pinned { store.pin(hash) } else { store.unpin(hash) }.map_err(|e| e.to_string())
    }

    fn store_or_err(&self) -> Result<&ArtifactStore, String> {
        self.shared
            .store
            .as_ref()
            .ok_or_else(|| "no artifact store configured (start xgqueued with --artifacts)".into())
    }

    /// Current status of one job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.state.lock().table.job(id).map(Job::status)
    }

    /// Status of every job, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.shared.state.lock().table.jobs().map(Job::status).collect()
    }

    /// Subscribe to a job's state changes. The current state is delivered
    /// immediately (so subscribing after a transition cannot miss it);
    /// subsequent transitions stream until the job reaches a terminal
    /// state, after which the channel hangs up.
    pub fn subscribe(&self, id: JobId) -> Option<mpsc::Receiver<JobEvent>> {
        let mut guard = self.shared.state.lock();
        let job = guard.table.job_mut(id)?;
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(JobEvent { job: id, state: job.state, detail: job.detail.clone() });
        if !job.state.is_terminal() {
            job.subscribers.push(tx);
        }
        Some(rx)
    }

    /// The final output of a `Done` job. Jobs that finished before a
    /// restart have only their journaled summary (the tensor died with the
    /// old process) — see [`CampaignServer::result_summary`].
    pub fn result(&self, id: JobId) -> Option<JobOutcome> {
        self.shared.state.lock().table.job(id).and_then(|j| j.outcome.clone())
    }

    /// Result summary `(steps, h_hash, diag_bits)` of a `Done` job: the
    /// FNV-1a hash of the final distribution's little-endian bytes plus the
    /// exact `f64::to_bits` of the four diagnostics. It is what the job's
    /// `Done` (or `CacheHit`) record carries, so it reads the same before
    /// and after a restart — which is what lets the crash-recovery CI job
    /// assert bitwise-identical results across a `kill -9`.
    pub fn result_summary(&self, id: JobId) -> Option<(u64, u64, [u64; 4])> {
        self.shared.state.lock().table.job(id).and_then(|j| j.summary)
    }

    /// Cancel a job. Pre-dispatch jobs are removed from their (pending or
    /// ready) batch and terminalize immediately; running jobs are flagged
    /// and evicted at the next checkpoint boundary (the returned state is
    /// then still `Running`). Terminal jobs are left untouched.
    pub fn cancel(&self, id: JobId) -> Result<JobState, String> {
        let shared = &self.shared;
        let mut guard = shared.state.lock();
        let st = &mut *guard;
        let job = st.table.job_mut(id).ok_or_else(|| format!("no such job: {id}"))?;
        match job.state {
            s if s.is_terminal() => Ok(s),
            JobState::Running => {
                job.cancel_requested = true;
                job.detail = "cancel requested; evicts at next checkpoint".to_string();
                Ok(JobState::Running)
            }
            _ => {
                // Batched: preempt before dispatch.
                if let Some(b) = job.batch {
                    if !st.grouper.remove_job(b, id) {
                        // Already flushed: pull it out of the ready queue
                        // (an emptied batch is dropped outright).
                        st.ready.retain(|rb| {
                            if rb.id == b {
                                rb.jobs.retain(|j| *j != id);
                            }
                            !rb.jobs.is_empty()
                        });
                    }
                }
                let detail = "cancelled before dispatch".into();
                commit(shared, st, JournalRecord::Cancelled { job: id, detail });
                Ok(JobState::Cancelled)
            }
        }
    }

    /// Stop admitting, flush every pending batch, and block until all
    /// admitted jobs reach a terminal state and every world has ended (or
    /// `timeout` elapses). Returns true when the server went quiet in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let shared = &self.shared;
        let deadline = Instant::now() + timeout;
        let mut guard = shared.state.lock();
        guard.draining = true;
        // Batches already past their linger deadline flush as `linger`;
        // the rest go as `drain`.
        flush_expired(shared, &mut guard, Instant::now());
        for f in guard.grouper.flush_all() {
            enqueue_flushed(&shared.cfg, &mut guard, f);
        }
        shared.work.notify_all();
        // The last job turns terminal inside `execute_batch`, a moment
        // before its worker ends the world; quiet means both.
        let quiet = |st: &State| st.table.live() == 0 && st.metrics.worlds_active == 0;
        while !quiet(&guard) {
            if shared.quiet.wait_until(&mut guard, deadline).timed_out() {
                return quiet(&guard);
            }
        }
        true
    }

    /// Metrics snapshot: the counters, with the journal, scheduler and
    /// per-tenant figures refreshed under the state lock.
    pub fn metrics(&self) -> Metrics {
        metrics_snapshot(&self.shared.state.lock()).0
    }

    /// The `METRICS` exposition, as Prometheus text: the serve counters
    /// followed by the daemon's process-wide `xgyro_*` families (phase
    /// timers empty-but-well-formed when running with `XGYRO_OBS=0`).
    pub fn metrics_text(&self) -> String {
        let (m, by_state) = metrics_snapshot(&self.shared.state.lock());
        let mut text = m.to_prometheus(&by_state);
        text.push_str(&xg_obs::expo::to_prometheus(xg_obs::Registry::global()));
        text
    }

    /// One-screen live view for `xgq top`: job-state counts, headline batch
    /// counters, per-tenant accounting, and the daemon's per-phase
    /// wall-time table.
    pub fn top_text(&self) -> String {
        let (m, by_state) = metrics_snapshot(&self.shared.state.lock());
        let mut s = String::from("jobs:");
        for (state, n) in &by_state {
            s.push_str(&format!(" {state}={n}"));
        }
        s.push_str(&format!(
            "\nbatches: dispatched={} cmat_saved_bytes={}\n",
            m.occupancy.values().sum::<u64>(),
            m.cmat_saved_bytes
        ));
        for (name, t) in &m.tenants {
            s.push_str(&format!(
                "tenant {name}: submitted={} done={} work_done={} live_jobs={} live_bytes={}\n",
                t.submitted, t.done, t.work_done, t.live_jobs, t.live_bytes,
            ));
        }
        match xg_obs::expo::render_table(xg_obs::Registry::global()) {
            Some(table) => {
                s.push_str("phase timers (this daemon):\n");
                s.push_str(&table);
            }
            None => s.push_str(
                "phase timers: none recorded (daemon running with XGYRO_OBS=0?)\n",
            ),
        }
        s
    }

    /// Stop the service: never-dispatched jobs are cancelled, the members
    /// of running batches are cancelled at their next checkpoint boundary,
    /// and all threads are joined.
    pub fn shutdown(mut self) {
        let shared = self.shared.clone();
        {
            let mut guard = shared.state.lock();
            let st = &mut *guard;
            st.shutdown = true;
            st.draining = true;
            let pending: Vec<JobId> = st
                .grouper
                .flush_all()
                .into_iter()
                .flat_map(|f| f.batch.jobs)
                .chain(st.ready.drain_all().into_iter().flat_map(|rb| rb.jobs))
                .collect();
            for job in pending {
                commit(&shared, st, JournalRecord::Cancelled { job, detail: "server shutdown".into() });
            }
            shared.work.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // An orderly stop syncs the appends a relaxed fsync cadence left
        // pending, so the checkpoint files they retire go too.
        let synced = shared.state.lock().journal.as_mut().map_or(Ok(()), Journal::sync_pending);
        if let Err(e) = synced {
            eprintln!("xg-serve: final journal sync failed: {e}");
        }
    }
}

/// Metrics clone with fresh journal stats and per-tenant usage gauges
/// folded in, plus the live job count per state in [`JobState::ALL`] order
/// — one consistent snapshot under the caller's lock.
fn metrics_snapshot(st: &State) -> (Metrics, Vec<(JobState, usize)>) {
    let mut m = st.metrics.clone();
    if let Some(j) = &st.journal {
        m.journal = j.stats();
    }
    m.tenants = st.table.tenants().clone();
    m.set_tenant_usage(st.table.tenant_usage());
    let count = |s: &JobState| st.table.jobs().filter(|j| j.state == *s).count();
    (m, JobState::ALL.iter().map(|s| (*s, count(s))).collect())
}

/// Enqueue a flushed batch into the fair-share dispatch queue; its
/// fair-share cost is its member-steps of simulation work.
fn enqueue_ready(
    cfg: &ServerConfig,
    st: &mut State,
    id: BatchId,
    jobs: Vec<JobId>,
    origin: BatchOrigin,
) {
    if jobs.is_empty() {
        return;
    }
    let head = &st.table.job(jobs[0]).expect("a flushed batch names held jobs").spec;
    let weight = tenant_weight(cfg, &head.tenant);
    let cost = jobs.len() as u64 * head.steps as u64;
    st.ready.push(&head.tenant, weight, cost, ReadyBatch { id, jobs, origin });
}

/// Enqueue a batch the grouper flushed, counted under its flush reason at
/// dispatch.
fn enqueue_flushed(cfg: &ServerConfig, st: &mut State, f: FlushedBatch) {
    enqueue_ready(cfg, st, f.batch.id, f.batch.jobs, BatchOrigin::Flushed(f.reason));
}

/// The roster's DRR weight for a tenant; unlisted tenants (open mode) run
/// at weight 1.
fn tenant_weight(cfg: &ServerConfig, tenant: &str) -> u32 {
    cfg.tenants.get(tenant).map_or(crate::tenant::DEFAULT_WEIGHT, |t| t.weight)
}

/// Move every linger-expired batch to the ready queue, oldest first, and
/// wake the workers to take them. Runs before every placement and every
/// `pop`, so a batch past its deadline never takes another job and enters
/// the queue ahead of any batch a later submit flushes.
fn flush_expired(shared: &Shared, st: &mut State, now: Instant) {
    let expired = st.grouper.expired(now);
    if expired.is_empty() {
        return;
    }
    for f in expired {
        enqueue_flushed(&shared.cfg, st, f);
    }
    shared.work.notify_all();
}

/// The live path's only way to change a job: journal the record, then
/// apply it to the table. Only admission records are a hard durability
/// contract (see [`admit_job`]); the rest degrade gracefully — a refused
/// append is counted in the journal's `dropped` stat, the in-memory state
/// still moves, and replay reconstructs what it can from whatever did land.
fn commit(shared: &Shared, st: &mut State, rec: JournalRecord) {
    if let Some(j) = st.journal.as_mut() {
        let _ = j.append(&rec);
    }
    apply_live(shared, st, rec, None);
}

/// Apply a record this process built (and has journaled) to the table, then
/// let what follows from the new state follow: the retention window, the
/// journal's compaction and checkpoint-file retirement — which ask the
/// table what to keep, so they must run *after* the record is applied —
/// and drain waiters. A refusal is a bug: the checks that built the record
/// hold the same lock.
fn apply_live(shared: &Shared, st: &mut State, rec: JournalRecord, input: Option<CgyroInput>) {
    if let Err(why) = st.table.apply(rec, input) {
        panic!("the live path built a record the job table refuses: {why:?}");
    }
    let evicted = st.table.evict(shared.cfg.retain_jobs, shared.cfg.retain_age, Instant::now());
    if evicted > 0 {
        st.metrics.on_terminal_evicted(evicted);
    }
    if let Some(j) = st.journal.as_mut() {
        if let Err(e) = j.compact(|r| st.table.retains(r), st.table.watermark()) {
            eprintln!("xg-serve: journal compaction failed: {e}");
        }
        j.retire_checkpoints(|batch, seq| st.table.retains_checkpoint_file(batch, seq));
    }
    if st.table.live() == 0 {
        shared.quiet.notify_all();
    }
}

/// Admit one submission: identity, admission checks, cache consult, quotas,
/// then the admission record — `CacheHit` when the artifact store already
/// holds the deck's result (the job is born `Done`: no batch, no worker,
/// not one simulation step), `Submitted` otherwise (the job is placed into
/// a batch before the lock is released). The record is journaled BEFORE any
/// state changes: the client must never hold an id the next life cannot
/// replay, so on journal failure nothing was admitted — typed backpressure,
/// not unbounded unjournaled growth.
fn admit_job(
    shared: &Shared,
    st: &mut State,
    mut spec: JobSpec,
    token: &str,
    auth: &str,
) -> Result<JobId, AdmitError> {
    // Identity first: quotas, fair share, and attribution all hang off the
    // resolved tenant, not the raw claim.
    let tenant = shared
        .cfg
        .tenants
        .resolve(&spec.tenant, auth)
        .map_err(|e| AdmitError::TenantDenied { reason: e.to_string() })?;
    spec.tenant = tenant.name.clone();
    admit(shared, st, &spec)?;
    flush_expired(shared, st, Instant::now());
    if st.table.live() >= shared.cfg.queue_capacity {
        return Err(AdmitError::QueueFull { capacity: shared.cfg.queue_capacity });
    }
    let mut hit = None;
    if let Some(store) = shared.store.as_ref() {
        let dh = deck_hash(&spec.input, spec.steps);
        match store.lookup(dh) {
            Ok(Some(manifest)) => hit = Some(manifest),
            Ok(None) => {}
            // A corrupt store entry must not block admission: count a miss
            // and run the job for real.
            Err(e) => eprintln!("xg-serve: artifact lookup for {dh} failed: {e}"),
        }
        if hit.is_none() {
            st.metrics.on_cache_miss();
        }
    }
    let deck = xg_sim::write_deck(&spec.input);
    // Per-tenant quotas bind only a job that will hold live resources — a
    // hit is born terminal, so it is served even to a tenant at its ceiling.
    if hit.is_none() {
        let usage = st.table.tenant_usage().get(&tenant.name).copied().unwrap_or_default();
        let deck_bytes = deck.len() as u64;
        let over = match (tenant.max_live_jobs, tenant.max_live_bytes) {
            (Some(maxj), _) if usage.live_jobs + 1 > maxj => {
                Some(("jobs", usage.live_jobs as u64 + 1, maxj as u64))
            }
            (_, Some(maxb)) if usage.live_bytes + deck_bytes > maxb => {
                Some(("bytes", usage.live_bytes + deck_bytes, maxb))
            }
            _ => None,
        };
        if let Some((resource, would_use, limit)) = over {
            return Err(AdmitError::QuotaExceeded { tenant: tenant.name, resource, would_use, limit });
        }
    }
    let job = st.table.next_job_id();
    let JobSpec { input, steps, tag, tenant } = spec;
    let (token, deck_hash, steps) = (token.to_string(), journal::fnv1a(deck.as_bytes()), steps as u64);
    let submitted_unix_us = unix_us();
    let rec = match &hit {
        Some(manifest) => {
            let (steps_done, h_hash, diag_bits) = manifest.summary();
            JournalRecord::CacheHit {
                job,
                token,
                deck_hash,
                deck,
                steps,
                tag,
                tenant,
                submitted_unix_us,
                steps_done,
                h_hash,
                diag_bits,
            }
        }
        None => JournalRecord::Submitted {
            job,
            token,
            deck_hash,
            deck,
            steps,
            tag,
            tenant,
            submitted_unix_us,
        },
    };
    if let Some(j) = st.journal.as_mut() {
        j.append(&rec).map_err(|e| AdmitError::JournalBackpressure { reason: e.to_string() })?;
    }
    apply_live(shared, st, rec, Some(input));
    st.metrics.on_submit();
    if let Some(manifest) = hit {
        // The full outcome tensor is rehydrated from the stored blob when
        // it is still present, so `RESULT` works exactly as for a freshly
        // executed job; a GC-evicted blob degrades to summary-only, like a
        // job restored from the journal after a restart.
        let store = shared.store.as_ref().expect("a hit implies a store");
        let blob = store.get_object(manifest.outcome_object).ok();
        let outcome = blob.and_then(|b| artifacts::decode_outcome(&b).ok());
        if let Some(hit_job) = st.table.job_mut(job) {
            hit_job.outcome = outcome;
        }
        st.metrics.on_cache_hit(manifest.outcome_bytes);
        return Ok(job);
    }
    // Queued → Batched happens inside submit (placement is synchronous), so
    // the client's first look at the job already sees it batched.
    let placed = st.table.job(job).expect("just admitted");
    let (batch, flushed) = st.grouper.place(job, &placed.spec, Instant::now());
    commit(shared, st, JournalRecord::Batched { job, batch });
    if let Some(f) = flushed {
        enqueue_flushed(&shared.cfg, st, f);
        shared.work.notify_all();
    } else if st.grouper.pending().last().is_some_and(|b| b.id == batch && b.jobs.len() == 1) {
        // This placement opened a batch (new batches open last): wake an
        // idle worker to arm its wait for the new linger deadline.
        shared.work.notify_one();
    }
    Ok(job)
}

/// `(steps, h_hash, diag_bits)` for a completed outcome: FNV-1a over the
/// little-endian bytes of the final distribution plus the exact `f64` bit
/// patterns of the diagnostics — a bitwise-comparable fingerprint small
/// enough to journal.
fn outcome_summary(o: &JobOutcome) -> (u64, u64, [u64; 4]) {
    let mut bytes = Vec::with_capacity(o.h.as_slice().len() * 16);
    for z in o.h.as_slice() {
        bytes.extend_from_slice(&z.re.to_le_bytes());
        bytes.extend_from_slice(&z.im.to_le_bytes());
    }
    let d = &o.diagnostics;
    (
        o.steps as u64,
        journal::fnv1a(&bytes),
        [
            d.time.to_bits(),
            d.field_energy.to_bits(),
            d.heat_flux.to_bits(),
            d.h_norm2.to_bits(),
        ],
    )
}

/// Rebuild server state from a journal replay: every record goes through
/// the same [`JobTable::apply`] the live path uses, so terminal jobs come
/// back with their summaries, tokens, tenant attribution and counters, and
/// the id watermarks sit past everything any life issued. What remains is
/// recovery *policy*: sweep the retention window the previous life kept,
/// regroup jobs that were still waiting, and queue each interrupted batch to
/// resume — its members stay `Running`. Runs before any worker thread
/// exists.
fn recover(shared: &Shared, st: &mut State, replay: journal::Replay) {
    st.metrics.recovery = RecoveryReport {
        replayed_records: replay.records.len() as u64,
        torn_bytes: replay.torn_bytes,
        replay_bytes: replay.bytes,
        replay_us: replay.replay_us,
        checkpoint_orphans_removed: replay.tmp_removed,
        warnings: replay.warnings,
        ..RecoveryReport::default()
    };
    let mut ignored = 0u64;
    for rec in replay.records {
        match st.table.apply(rec, None) {
            Ok(()) => {}
            Err(Ignored::Illegal) => ignored += 1,
            Err(Ignored::BadDeck(why)) => st.metrics.recovery.warnings.push(why),
        }
    }
    if ignored > 0 {
        st.metrics.recovery.warnings.push(format!("{ignored} record(s) ignored by replay"));
    }
    let now = Instant::now();
    st.table.evict(shared.cfg.retain_jobs, shared.cfg.retain_age, now);
    // Checkpoint files no replayed record retains: superseded or finished
    // ones whose delete a crash forestalled, and files committed whose
    // record never landed.
    let journal = st.journal.as_mut().expect("recovery replays a journal");
    let table = &st.table;
    st.metrics.recovery.checkpoint_orphans_removed +=
        journal.retire_checkpoints(|batch, seq| table.retains_checkpoint_file(batch, seq));
    // Batches formed from here on never reuse an id a previous life issued.
    st.grouper.seed_next_batch(st.table.next_batch());

    // Waiting jobs (never dispatched) regroup through the normal placement
    // path, in submission order.
    let waiting: Vec<JobId> = st
        .table
        .jobs()
        .filter(|j| matches!(j.state, JobState::Queued | JobState::Batched))
        .map(|j| j.id)
        .collect();
    for job in waiting {
        let spec = &st.table.job(job).expect("listed above").spec;
        let (batch, flushed) = st.grouper.place(job, spec, now);
        commit(shared, st, JournalRecord::Batched { job, batch });
        st.metrics.recovery.readmitted_jobs += 1;
        if let Some(f) = flushed {
            enqueue_flushed(&shared.cfg, st, f);
        }
    }

    // Each interrupted batch resumes from its last journaled checkpoint —
    // or from step 0 when none landed, or its file is missing, short or
    // fails its CRC, or the restored image fails validation (correctness
    // over speed, with a warning). Only these batches' files are read.
    let dir = st.journal.as_ref().expect("recovery replays a journal").dir();
    let (mut resumes, mut loaded) = (Vec::new(), 0);
    for (bid, rb) in st.table.running() {
        let running = |j: &JobId| {
            st.table.job(*j).is_some_and(|job| job.state == JobState::Running && job.batch == Some(*bid))
        };
        // The checkpoint's member list is authoritative: it reflects
        // evictions that happened after dispatch.
        let order = rb.checkpoint.as_ref().map_or(&rb.jobs, |cp| &cp.jobs);
        let members: Vec<JobId> = order.iter().copied().filter(running).collect();
        let Some(head) = members.first().and_then(|j| st.table.job(*j)) else { continue };
        let mut resume = ResumeState { checkpoint: None, done: 0, next_seq: 0 };
        if let Some(cp) = &rb.checkpoint {
            resume.next_seq = cp.seq.saturating_add(1);
            let bytes = match &cp.state {
                CheckpointState::Inline(state) => Ok(Cow::Borrowed(state)),
                CheckpointState::File { len, crc } => {
                    journal::read_checkpoint(dir, *bid, cp.seq, *len, *crc).map(Cow::Owned)
                }
            };
            match bytes.and_then(|b| restored_checkpoint(&b, cp, &members, head)) {
                Ok(image) => {
                    resume.checkpoint = Some(image);
                    resume.done = cp.done_steps as usize;
                    loaded += u64::from(matches!(cp.state, CheckpointState::File { .. }));
                }
                Err(why) => {
                    let w = format!("{bid}: {why}; restarting batch from step 0");
                    st.metrics.recovery.warnings.push(w);
                }
            }
        }
        resumes.push((*bid, members, resume));
    }
    st.metrics.recovery.checkpoint_files_loaded = loaded;
    let terminal = st.table.jobs().filter(|j| j.state.is_terminal()).count();
    st.metrics.recovery.restored_jobs = terminal as u64;
    for (bid, members, resume) in resumes {
        st.metrics.recovery.resumed_batches += 1;
        st.metrics.recovery.restored_jobs += members.len() as u64;
        enqueue_ready(&shared.cfg, st, bid, members, BatchOrigin::Resumed(resume));
    }
}

/// Decode a journaled checkpoint's image `bytes` and fit it to the members
/// that resume from it: members that terminalized after it was taken are
/// evicted from the image (highest position first — eviction shifts later
/// positions down), and what is left must be exactly `members`' ensemble.
fn restored_checkpoint(
    bytes: &[u8],
    cp: &BatchCheckpoint,
    members: &[JobId],
    head: &Job,
) -> Result<EnsembleCheckpoint, String> {
    let mut image = EnsembleCheckpoint::from_bytes(bytes)
        .map_err(|e| format!("undecodable checkpoint ({e:?})"))?;
    for (pos, j) in cp.jobs.iter().enumerate().rev() {
        if !members.contains(j) {
            image = image
                .evict_member(pos)
                .map_err(|_| format!("cannot evict member {pos} from restored checkpoint"))?;
        }
    }
    let d = head.spec.input.dims();
    let fits = image.k() == members.len()
        && image.cmat_key() == head.cmat_key
        && image.dims() == (d.nc, d.nv, d.nt);
    fits.then_some(image)
        .ok_or_else(|| "restored checkpoint does not match its members".to_string())
}

/// Admission checks that need no mutation: drain gate, deck validity,
/// grid compatibility, memory feasibility. Queue capacity is checked by
/// `submit` only (a dry run consumes no slot).
fn admit(shared: &Shared, st: &State, spec: &JobSpec) -> Result<(), AdmitError> {
    if st.draining || st.shutdown {
        return Err(AdmitError::Draining);
    }
    check_spec(&spec.input, spec.steps)?;
    // The deck must form a valid (k = 1) ensemble on the server's grid.
    EnsembleConfig::new(vec![spec.input.clone()], shared.cfg.grid).map_err(|e| match e {
        EnsembleError::BadGrid { reason } => AdmitError::OversizedGrid {
            reason: format!("deck does not fit the server grid: {reason}"),
        },
        other => AdmitError::InvalidDeck { reason: other.to_string() },
    })?;
    if st.grouper.k_cap_for(&spec.input) == 0 {
        // Name the blocking constraint: the typed planner diagnosis says
        // whether divisibility or the memory budget rejected the deck.
        let why = match xg_cluster::diagnose(
            &spec.input,
            1,
            shared.cfg.nodes,
            &shared.cfg.machine,
            true,
        ) {
            Err(e) => format!("{} — {e}", e.kind()),
            Ok(_) => "memory".to_string(),
        };
        return Err(AdmitError::OversizedGrid {
            reason: format!(
                "no ensemble of this deck fits {} node(s) of {} ({why})",
                shared.cfg.nodes, shared.cfg.machine.name
            ),
        });
    }
    Ok(())
}

/// A worker thread: flush expired batches, pop the next ready one and
/// execute it, one world at a time. The pool's size is the only bound on
/// concurrently executing worlds; modeled nodes price admission's memory
/// budget and nothing else. An idle worker sleeps until the earliest
/// linger deadline (at most a second when no batch is open) and on each
/// wake sweeps the retention window's age bound, which must fire even
/// when no submission or flush has run in a while.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut guard = shared.state.lock();
            let rb = loop {
                if guard.shutdown {
                    return;
                }
                let now = Instant::now();
                flush_expired(shared, &mut guard, now);
                if let Some(rb) = guard.ready.pop() {
                    break rb;
                }
                let evicted = guard.table.evict(shared.cfg.retain_jobs, shared.cfg.retain_age, now);
                guard.metrics.on_terminal_evicted(evicted);
                let wake = guard.grouper.next_deadline().unwrap_or(now + Duration::from_secs(1));
                shared.work.wait_until(&mut guard, wake);
            };
            guard.metrics.on_world_start();
            // Dispatch under the lock that popped the batch: a cancel finds
            // each member either still queued or Running, never popped and
            // still Batched (it would terminalize a job this worker runs).
            dispatch(shared, &mut guard, rb)
        };
        if let Some(batch) = batch {
            execute_batch(shared, batch);
        }
        shared.state.lock().metrics.on_world_end();
        // An ended world is the second half of drain's condition.
        shared.quiet.notify_all();
    }
}

/// A popped batch whose members are Running: what [`execute_batch`] runs.
struct Dispatched {
    batch: ReadyBatch,
    inputs: Vec<CgyroInput>,
    steps_total: usize,
    /// The chaos fault plan, armed for the first batch only.
    plan: Option<FaultPlan>,
}

/// Dispatch bookkeeping for a batch just popped, under the same lock:
/// transition members to Running, record queue latency and occupancy, arm
/// the chaos fault plan. Members of a batch a restart resumed are *already*
/// Running: they re-enter here without a second transition, dispatch count,
/// or Running record, so a resume is invisible to occupancy accounting.
fn dispatch(shared: &Shared, st: &mut State, batch: ReadyBatch) -> Option<Dispatched> {
    if batch.jobs.is_empty() {
        return None;
    }
    let now = Instant::now();
    let mut inputs: Vec<CgyroInput> = Vec::new();
    let mut steps_total = 0;
    let mut fresh = false;
    for id in &batch.jobs {
        let job = st.table.job_mut(*id).expect("batched job exists");
        steps_total = job.spec.steps;
        inputs.push(job.spec.input.clone());
        // A batch resumed after a restart was dispatched by a previous
        // life: its latency spans the crash.
        job.dispatched_at.get_or_insert(now);
        job.proc_grid = Some(shared.world_grid);
        if job.state != JobState::Batched {
            continue;
        }
        fresh = true;
        // Microsecond resolution: under test configs dispatch latency is
        // routinely sub-millisecond, and ms-granular recording rounded it
        // all to zero (count > 0 with sum = 0).
        let lat_us = now.duration_since(job.submitted_at).as_micros() as u64;
        st.metrics.on_queue_latency_us(lat_us);
    }
    if let (true, BatchOrigin::Flushed(reason)) = (fresh, &batch.origin) {
        st.metrics.on_dispatch(batch.jobs.len(), inputs[0].dims(), *reason);
        let rec = JournalRecord::Running { batch: batch.id, jobs: batch.jobs.clone() };
        commit(shared, st, rec);
    }
    Some(Dispatched { batch, inputs, steps_total, plan: st.fault_plan.take() })
}

/// Run one batch as an XGYRO ensemble: **one** [`ResilientRun`] — one
/// world, one topology, one `cmat` factorization — held for the life of the
/// batch and checkpointed every `ckpt_every` steps without leaving the
/// world. Cancellations (and shutdown) apply at those boundaries by evicting
/// the member; a faulted member is evicted without killing its batch-mates;
/// only then is the world rebuilt, at k−1, from the last checkpoint. Each
/// completed segment (except the last) writes its checkpoint to a synced
/// file and journals a record naming it — while the next segment runs — so
/// a crash mid-batch resumes from a recent boundary instead of step 0; the
/// final segment is deliberately *not* journaled — a crash between it and
/// the `Done` records re-runs that segment deterministically, which is
/// cheaper than reasoning about a "finished but unrecorded" limbo state.
fn execute_batch(shared: &Shared, dispatched: Dispatched) {
    let Dispatched { batch, inputs, steps_total, plan } = dispatched;
    let ReadyBatch { id: batch_id, jobs, origin } = batch;
    let batch_k = jobs.len() as u64;
    let exec_start = Instant::now();
    // Whether one world runs this batch from step 0 to its end. A resumed
    // batch began in an earlier world, and a fault or an eviction opens
    // another; a trace set spanning several worlds replays as none of
    // them, so it is not published.
    let mut one_world = matches!(origin, BatchOrigin::Flushed(_));

    let (checkpoint, mut done, mut next_seq) = match origin {
        BatchOrigin::Resumed(r) => (r.checkpoint, r.done, r.next_seq),
        BatchOrigin::Flushed(_) => (None, 0usize, 0u64),
    };
    // The same call serves a fresh batch and a batch journal replay rebuilt
    // after kill -9: open from the checkpoint.
    let plan = plan.unwrap_or_default();
    let run = EnsembleConfig::new(inputs, shared.world_grid)
        .map_err(|e| e.to_string())
        .and_then(|cfg| {
            ResilientRun::new(&cfg, checkpoint, plan, shared.cfg.deadline)
                .map_err(|e| e.to_string())
        });
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            fail_all(shared, &jobs, &format!("ensemble rebuild failed: {e}"));
            return;
        }
    };
    // `jobs[i]` is original member i; `member_ids[pos]` is the member the
    // run currently holds at position `pos`.
    let mut member_ids = jobs.clone();
    let mut events_seen = 0;
    // The last boundary's checkpoint, captured and not yet committed.
    let mut unwritten: Option<Unwritten> = None;
    // A run's drained traffic logs are folded into the metrics once, when
    // the batch lets go of it.
    let account = |traces: &[Vec<xg_comm::OpRecord>]| {
        shared.state.lock().metrics.on_batch_traces(traces);
    };
    // Members evicted by faults terminalize as Failed; the survivors carried
    // on from the last checkpoint inside the run.
    let fail_evicted = |events: &[xgyro_core::RecoveryEvent]| {
        for ev in events {
            let detail = format!("member evicted after fault: {}", ev.cause);
            let rec = JournalRecord::Failed { job: jobs[ev.failed_member], detail };
            commit(shared, &mut shared.state.lock(), rec);
        }
    };
    let last_seg = loop {
        // Checkpoint boundary: apply cancellations (shutdown cancels all).
        let cancelled: Vec<usize> = {
            let guard = shared.state.lock();
            member_ids
                .iter()
                .enumerate()
                .filter(|(_, id)| {
                    guard.shutdown || guard.table.job(**id).is_some_and(|j| j.cancel_requested)
                })
                .map(|(pos, _)| pos)
                .collect()
        };
        one_world &= cancelled.is_empty();
        if !cancelled.is_empty() {
            // The checkpoint names the members it holds: it lands before
            // any of them leaves (the last one leaving ends the batch).
            commit_checkpoint(shared, batch_id, unwritten.take());
        }
        for &pos in cancelled.iter().rev() {
            let job = member_ids.remove(pos);
            let rec = JournalRecord::Cancelled { job, detail: "preempted at checkpoint".into() };
            commit(shared, &mut shared.state.lock(), rec);
        }
        // An emptied batch drops its run (evicting the last member is
        // refused); otherwise the run sheds the cancelled members and
        // reopens at the smaller k on its next command.
        let shed = if member_ids.is_empty() {
            Ok(())
        } else {
            cancelled.iter().rev().try_for_each(|&pos| run.evict(pos))
        };
        if let Err(e) = &shed {
            fail_all(shared, &member_ids, &format!("batch failed: {e}"));
        }
        if member_ids.is_empty() || shed.is_err() {
            account(&run.close());
            return;
        }
        let seg = shared.cfg.ckpt_every.min(steps_total - done);
        if done + seg == steps_total {
            // The final segment ends in `finish_segment`'s one gather,
            // unjournaled (see above).
            break seg;
        }
        let advanced = beside(shared, batch_id, unwritten.take(), || run.advance(seg));
        let state = match advanced {
            Ok(checkpoint) => checkpoint.to_bytes(),
            Err(e) => {
                fail_all(shared, &member_ids, &format!("batch failed: {e}"));
                account(&run.close());
                return;
            }
        };
        fail_evicted(&run.events()[events_seen..]);
        events_seen = run.events().len();
        member_ids = run.survivors().iter().map(|&i| jobs[i]).collect();
        done += seg;
        // Made durable, and journaled, while the next segment runs.
        unwritten = Some(Unwritten {
            seq: next_seq,
            jobs: member_ids.clone(),
            done_steps: done as u64,
            state,
        });
        next_seq += 1;
    };
    // Outcomes are built once, from the one final gather. The gather, the
    // traffic logs and the checkpoint are all dropped before the Done
    // transitions below: `drain` returns the moment the last job is
    // terminal, and this worker should be back in the pool by then.
    let (member_ids, mut results) = {
        let finished = beside(shared, batch_id, unwritten.take(), || run.finish_segment(last_seg));
        let rec = match finished {
            Ok(rec) => rec,
            Err(e) => {
                fail_all(shared, &member_ids, &format!("batch failed: {e}"));
                return;
            }
        };
        fail_evicted(&rec.events[events_seen..]);
        account(&rec.outcome.traces);
        let trace = (one_world && rec.events.is_empty()).then_some(&rec.outcome.traces[..]);
        let member_ids: Vec<JobId> = rec.surviving_members.iter().map(|&i| jobs[i]).collect();
        let results: BTreeMap<JobId, JobOutcome> = rec
            .outcome
            .sims
            .into_iter()
            .map(|s| {
                let outcome =
                    JobOutcome { h: s.h, diagnostics: s.diagnostics, steps: steps_total };
                (jobs[s.sim], outcome)
            })
            .collect();
        // Publish artifacts BEFORE the Done transitions: when the journal
        // records Done, the artifact is already visible to admission — no
        // window where a terminal job has no cache entry.
        publish_batch(
            shared,
            batch_id,
            batch_k,
            &member_ids,
            &results,
            trace,
            exec_start,
        );
        (member_ids, results)
    };
    for job in member_ids {
        let outcome = results.remove(&job).expect("every survivor has a result");
        let (steps, h_hash, diag_bits) = outcome_summary(&outcome);
        let mut guard = shared.state.lock();
        guard.table.job_mut(job).expect("running job exists").outcome = Some(outcome);
        commit(shared, &mut guard, JournalRecord::Done { job, steps, h_hash, diag_bits });
    }
}

/// A checkpoint captured at a batch's boundary and not yet committed.
struct Unwritten {
    seq: u64,
    /// Members at the boundary, in member-image order.
    jobs: Vec<JobId>,
    done_steps: u64,
    /// `EnsembleCheckpoint::to_bytes()` of the restart image.
    state: Vec<u8>,
}

/// Make a captured checkpoint durable and journal it: the state goes to its
/// own synced file, outside the state lock, and only then is the
/// `CheckpointRef` naming it committed. A state that cannot be made durable
/// is named by nothing, and the previous checkpoint stands.
fn commit_checkpoint(shared: &Shared, batch: BatchId, ck: Option<Unwritten>) {
    let Some(Unwritten { seq, jobs, done_steps, state }) = ck else { return };
    let dir = shared.cfg.journal.as_ref().map(|j| j.dir.as_path());
    if let Err(e) = dir.map_or(Ok(()), |d| journal::write_checkpoint(d, batch, seq, &state)) {
        eprintln!("xg-serve: {batch}: checkpoint {seq} not written: {e}");
        return;
    }
    let (state_len, state_crc) = (state.len() as u64, journal::crc32(&state));
    let rec = JournalRecord::CheckpointRef { batch, jobs, seq, done_steps, state_len, state_crc };
    commit(shared, &mut shared.state.lock(), rec);
}

/// Run `segment` while the previous boundary's checkpoint is committed
/// beside it on its own thread: the batch does not wait for the fsyncs.
/// Both have finished when this returns, so every later record of the
/// batch follows the checkpoint's.
fn beside<R>(
    shared: &Shared,
    batch: BatchId,
    ck: Option<Unwritten>,
    segment: impl FnOnce() -> R,
) -> R {
    std::thread::scope(|s| {
        if ck.is_some() {
            s.spawn(|| commit_checkpoint(shared, batch, ck));
        }
        segment()
    })
}

/// Publish every completed member of a batch into the artifact store: the
/// batch's communication trace once (`trace` is `None` unless one world ran
/// the whole batch), then deck + outcome blobs and a manifest per member.
/// Publish failures are logged and skipped — a full disk degrades the
/// cache, never the campaign — and when an automatic GC budget is
/// configured the store is collected afterwards.
fn publish_batch(
    shared: &Shared,
    batch_id: BatchId,
    batch_k: u64,
    member_ids: &[JobId],
    results: &BTreeMap<JobId, JobOutcome>,
    trace: Option<&[Vec<xg_comm::OpRecord>]>,
    exec_start: Instant,
) {
    let Some(store) = shared.store.as_ref() else { return };
    let acfg = shared.cfg.artifacts.as_ref().expect("store implies config");
    if member_ids.is_empty() {
        return;
    }
    let trace_object = trace.filter(|t| t.iter().any(|r| !r.is_empty())).and_then(|t| {
        let csv = xg_comm::traces_to_csv_with_meta(
            t,
            &[("batch", &batch_id.to_string()), ("k", &batch_k.to_string())],
        );
        store.put_object(csv.as_bytes()).ok()
    });
    let specs: Vec<(JobId, JobSpec)> = {
        let guard = shared.state.lock();
        member_ids
            .iter()
            .filter(|id| results.contains_key(id))
            .map(|id| (*id, guard.table.job(*id).expect("running job exists").spec.clone()))
            .collect()
    };
    let ctx = PublishContext {
        batch_k,
        coll_cuts: "balanced".into(),
        kernel: xg_obs::Registry::global().collision_kernel().unwrap_or_default(),
        machine: shared.cfg.machine.name.clone(),
        phase_us: vec![("execute".into(), exec_start.elapsed().as_micros() as u64)],
        trace_object,
        created_unix_us: unix_us(),
    };
    let grid = shared.world_grid.to_string();
    for (id, spec) in specs {
        let outcome = &results[&id];
        let summary = outcome_summary(outcome);
        if let Err(e) = artifacts::publish_member_on(store, &spec, outcome, summary, &ctx, &grid) {
            eprintln!("xg-serve: artifact publish for {id} failed: {e}");
        }
    }
    if let Some(budget) = acfg.budget_bytes {
        match store.gc(budget) {
            Ok(r) if r.evicted_manifests > 0 => {
                eprintln!(
                    "xg-serve: artifact gc evicted {} manifest(s), freed {} byte(s)",
                    r.evicted_manifests, r.bytes_freed
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("xg-serve: artifact gc failed: {e}"),
        }
    }
}

/// Fail every remaining member of a batch with the same cause.
fn fail_all(shared: &Shared, ids: &[JobId], detail: &str) {
    let mut guard = shared.state.lock();
    for job in ids {
        commit(shared, &mut guard, JournalRecord::Failed { job: *job, detail: detail.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sim::CgyroInput;

    fn spec(input: CgyroInput, steps: usize, tag: &str) -> JobSpec {
        JobSpec {
            input,
            steps,
            tag: tag.to_string(),
            tenant: crate::tenant::DEFAULT_TENANT.to_string(),
        }
    }

    #[test]
    fn a_full_batch_runs_to_done() {
        let server = CampaignServer::start(ServerConfig::local_test());
        let base = CgyroInput::test_small();
        let ids: Vec<JobId> = (0..3)
            .map(|i| {
                let input = base.with_gradients(1.0 + i as f64 * 0.5, 2.0);
                server.submit(spec(input, 20, &format!("j{i}"))).expect("admitted")
            })
            .collect();
        assert!(server.drain(Duration::from_secs(60)), "drain timed out");
        let statuses = server.list();
        assert_eq!(statuses.len(), 3);
        for s in &statuses {
            assert_eq!(s.state, JobState::Done, "{}: {}", s.id, s.detail);
            assert_eq!(s.batch, Some(BatchId(0)), "all three share one batch");
            assert!(s.queue_latency_ms.is_some());
        }
        for id in ids {
            let out = server.result(id).expect("outcome retained");
            assert_eq!(out.steps, 20);
        }
        assert_eq!(server.metrics().occupancy, BTreeMap::from([(3, 1)]), "occupancy histogram");
        server.shutdown();
    }

    #[test]
    fn linger_flushes_an_underfull_batch() {
        let mut cfg = ServerConfig::local_test();
        cfg.linger = Duration::from_millis(20);
        let server = CampaignServer::start(cfg);
        let id = server
            .submit(spec(CgyroInput::test_small(), 10, "solo"))
            .expect("admitted");
        // Wait for the batcher's linger flush before draining — an early
        // drain would flush the batch itself (reason "drain", not
        // "linger").
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.status(id).unwrap().state == JobState::Batched {
            assert!(Instant::now() < deadline, "linger flush never happened");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.drain(Duration::from_secs(60)));
        assert_eq!(server.status(id).unwrap().state, JobState::Done);
        assert_eq!(server.metrics().flushes["linger"], 1);
        server.shutdown();
    }

    #[test]
    fn distinct_cmat_keys_form_distinct_batches() {
        let server = CampaignServer::start(ServerConfig::local_test());
        let base = CgyroInput::test_small();
        let mut hot = base.clone();
        hot.nu_ee *= 2.0;
        let a = server.submit(spec(base, 10, "a")).unwrap();
        let b = server.submit(spec(hot, 10, "b")).unwrap();
        let (ba, bb) = (
            server.status(a).unwrap().batch.unwrap(),
            server.status(b).unwrap().batch.unwrap(),
        );
        assert_ne!(ba, bb);
        assert!(server.drain(Duration::from_secs(60)));
        server.shutdown();
    }

    #[test]
    fn rejections_are_typed() {
        let mut cfg = ServerConfig::local_test();
        cfg.queue_capacity = 1;
        cfg.linger = Duration::from_secs(30); // keep the first job pending
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        server.submit(spec(base.clone(), 10, "first")).unwrap();
        let err = server.submit(spec(base.clone(), 10, "second")).unwrap_err();
        assert_eq!(err.kind(), "queue-full");
        let mut bad = base.clone();
        bad.n_radial = 0;
        assert_eq!(server.submit(spec(bad, 10, "bad")).unwrap_err().kind(), "invalid-deck");
        assert_eq!(server.submit(spec(base, 7, "odd")).unwrap_err().kind(), "bad-steps");
        assert_eq!(server.metrics().rejected["queue-full"], 1);
        server.shutdown();
    }

    #[test]
    fn cancel_before_dispatch_preempts_the_batch() {
        let mut cfg = ServerConfig::local_test();
        cfg.linger = Duration::from_secs(30);
        let server = CampaignServer::start(cfg);
        let id = server.submit(spec(CgyroInput::test_small(), 10, "doomed")).unwrap();
        assert_eq!(server.cancel(id).unwrap(), JobState::Cancelled);
        assert_eq!(server.status(id).unwrap().state, JobState::Cancelled);
        // Cancel is idempotent on terminal jobs.
        assert_eq!(server.cancel(id).unwrap(), JobState::Cancelled);
        assert!(server.drain(Duration::from_secs(5)), "nothing left to run");
        server.shutdown();
    }

    #[test]
    fn subscribe_streams_the_lifecycle() {
        let server = CampaignServer::start(ServerConfig::local_test());
        let base = CgyroInput::test_small();
        let id = server.submit(spec(base.with_gradients(1.0, 2.0), 10, "watched")).unwrap();
        let rx = server.subscribe(id).expect("job exists");
        assert!(server.drain(Duration::from_secs(60)));
        let states: Vec<JobState> = rx.iter().map(|e| e.state).collect();
        assert_eq!(states.first(), Some(&JobState::Batched), "snapshot first");
        assert_eq!(states.last(), Some(&JobState::Done));
        assert!(states.contains(&JobState::Running));
        server.shutdown();
    }

    #[test]
    fn dry_run_reports_key_and_placement_without_admitting() {
        let mut cfg = ServerConfig::local_test();
        cfg.linger = Duration::from_secs(30);
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        let s = spec(base.clone(), 10, "probe");
        let dr = server.dry_run(&s).expect("valid");
        assert_eq!(dr.cmat_key, base.cmat_key());
        assert_eq!(dr.deck_hash, xg_artifact::deck_hash(&base, 10));
        assert_eq!(dr.cache, CacheStatus::Off, "no store configured");
        assert!(matches!(dr.placement, Placement::Opens { k_cap: 3 }));
        server.submit(s.clone()).unwrap();
        let dr = server.dry_run(&s).expect("valid");
        assert!(
            matches!(dr.placement, Placement::Joins { occupancy: 1, .. }),
            "{:?}",
            dr.placement
        );
        assert_eq!(server.list().len(), 1, "dry runs admit nothing");
        server.shutdown();
    }

    #[test]
    fn an_expired_batch_takes_no_job_and_dispatches_first() {
        // The only worker is pinned by a long job, so nothing dispatches
        // batch A while its linger deadline passes. A same-key job B must
        // then open a batch of its own (its dry run saying so first), and
        // A must dispatch ahead of B.
        let jdir = scratch_store("expired-batch-journal");
        let mut cfg = ServerConfig::local_test();
        cfg.workers = 1;
        cfg.linger = Duration::from_millis(20);
        cfg.journal = Some(JournalConfig::durable(&jdir));
        let linger = cfg.linger;
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        let long = server.submit(spec(base.with_gradients(3.0, 3.0), 4000, "long")).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.status(long).unwrap().state != JobState::Running {
            assert!(Instant::now() < deadline, "the long job never dispatched");
            std::thread::sleep(Duration::from_millis(1));
        }
        let a = server.submit(spec(base.with_gradients(1.0, 2.0), 20, "a")).unwrap();
        std::thread::sleep(linger * 5);
        let b_spec = spec(base.with_gradients(2.0, 2.0), 20, "b");
        let dr = server.dry_run(&b_spec).expect("valid");
        assert!(matches!(dr.placement, Placement::Opens { .. }), "{:?}", dr.placement);
        let b = server.submit(b_spec).unwrap();
        let batch = |id| server.status(id).unwrap().batch.expect("placed");
        let (long_batch, batch_a, batch_b) = (batch(long), batch(a), batch(b));
        assert_ne!(batch_a, batch_b, "a batch past its deadline took another job");
        assert_eq!(
            server.status(long).unwrap().state,
            JobState::Running,
            "precondition: the worker stayed busy through A's linger"
        );
        assert!(server.drain(Duration::from_secs(120)), "drain timed out");
        server.shutdown();
        let (_, replay) = Journal::open(JournalConfig::durable(&jdir)).unwrap();
        let order: Vec<BatchId> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Running { batch, .. } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![long_batch, batch_a, batch_b], "dispatch order");
        std::fs::remove_dir_all(&jdir).unwrap();
    }

    /// Scratch artifact-store directory, wiped before use.
    fn scratch_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("xg-serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Block until `id` terminalizes (drain would leave the server
    /// rejecting the resubmissions these tests are about).
    fn await_done(server: &CampaignServer, id: JobId) {
        let rx = server.subscribe(id).expect("job exists");
        for ev in rx.iter() {
            if ev.state.is_terminal() {
                assert_eq!(ev.state, JobState::Done, "{}", ev.detail);
                return;
            }
        }
        panic!("subscription ended before {id} terminalized");
    }

    #[test]
    fn resubmitted_deck_is_served_from_the_artifact_cache() {
        let dir = scratch_store("hit");
        let mut cfg = ServerConfig::local_test();
        cfg.artifacts = Some(ArtifactConfig::at(&dir));
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        let s = spec(base.clone(), 20, "first");
        // Cold store: dry run reports a miss.
        assert_eq!(server.dry_run(&s).unwrap().cache, CacheStatus::Miss);
        let first = server.submit(s.clone()).expect("admitted");
        await_done(&server, first);
        let baseline = server.result_summary(first).expect("done");
        // Warm store: dry run flips to hit, and a real resubmit is served
        // straight to Done — no drain needed, no batch, bitwise-equal.
        assert_eq!(server.dry_run(&s).unwrap().cache, CacheStatus::Hit);
        let second = server.submit(spec(base.clone(), 20, "again")).expect("admitted");
        let status = server.status(second).expect("exists");
        assert_eq!(status.state, JobState::Done, "{}", status.detail);
        assert!(status.batch.is_none(), "a cache hit never occupies a batch");
        assert!(status.detail.contains("artifact cache"), "{}", status.detail);
        assert_eq!(server.result_summary(second), Some(baseline));
        // The full tensor was rehydrated from the outcome blob, not just
        // the summary.
        let (a, b) = (server.result(first).unwrap(), server.result(second).unwrap());
        assert_eq!(
            crate::artifacts::encode_outcome(&a),
            crate::artifacts::encode_outcome(&b),
            "cache hit is bitwise-identical"
        );
        // A semantically different deck (more steps) is still a miss.
        assert_eq!(server.dry_run(&spec(base, 40, "x")).unwrap().cache, CacheStatus::Miss);
        assert_eq!(server.metrics().cache_hits, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_survive_a_restart_via_the_journal() {
        let dir = scratch_store("restart");
        let jdir = scratch_store("restart-journal");
        let mk_cfg = || {
            let mut cfg = ServerConfig::local_test();
            cfg.artifacts = Some(ArtifactConfig::at(&dir));
            cfg.journal = Some(JournalConfig::durable(&jdir));
            cfg
        };
        let base = CgyroInput::test_small();
        let (hit_id, baseline) = {
            let server = CampaignServer::start(mk_cfg());
            let first = server.submit(spec(base.clone(), 20, "a")).unwrap();
            await_done(&server, first);
            let baseline = server.result_summary(first).unwrap();
            let hit = server.submit(spec(base.clone(), 20, "b")).unwrap();
            assert_eq!(server.status(hit).unwrap().state, JobState::Done);
            server.shutdown();
            (hit, baseline)
        };
        // Next life: the CacheHit journal record replays the job born Done
        // with the same summary — and the store still serves new hits.
        let server = CampaignServer::start(mk_cfg());
        let replayed = server.status(hit_id).expect("replayed");
        assert_eq!(replayed.state, JobState::Done, "{}", replayed.detail);
        assert_eq!(server.result_summary(hit_id), Some(baseline));
        let third = server.submit(spec(base, 20, "c")).unwrap();
        assert_eq!(server.status(third).unwrap().state, JobState::Done);
        assert_eq!(server.result_summary(third), Some(baseline));
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&jdir).unwrap();
    }

    /// Run three same-key decks (20 steps, two segments) as one k=3 batch
    /// with artifacts on; return the decks, their final states and the
    /// store directory.
    fn publish_one_batch(
        name: &str,
        fault_plan: Option<FaultPlan>,
    ) -> (Vec<JobSpec>, Vec<JobState>, std::path::PathBuf) {
        let dir = scratch_store(name);
        let mut cfg = ServerConfig::local_test();
        cfg.artifacts = Some(ArtifactConfig::at(&dir));
        cfg.fault_plan = fault_plan;
        cfg.workers = 1;
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| spec(base.with_gradients(1.0 + i as f64, 2.0), 20, name))
            .collect();
        let ids: Vec<JobId> = specs.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
        assert!(server.drain(Duration::from_secs(60)));
        let states = ids.iter().map(|id| server.status(*id).unwrap().state).collect();
        server.shutdown();
        (specs, states, dir)
    }

    #[test]
    fn a_batch_that_changed_worlds_publishes_no_trace() {
        // Member 1 faults, so the survivors finish in a second world: the
        // concatenated logs of two worlds replay as neither.
        let (specs, states, dir) = publish_one_batch("two-worlds", Some(FaultPlan::crash(2, 4)));
        let store = ArtifactStore::open(&dir).unwrap();
        let mut published = 0;
        for (s, state) in specs.iter().zip(&states) {
            if *state == JobState::Done {
                let m = store.lookup(deck_hash(&s.input, s.steps)).unwrap().expect("published");
                assert_eq!(m.trace_object, None, "a two-world batch publishes no trace");
                published += 1;
            }
        }
        assert_eq!(published, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_one_world_batch_publishes_the_run_xgyro_trace() {
        let (specs, states, dir) = publish_one_batch("one-world", None);
        assert!(states.iter().all(|s| *s == JobState::Done));
        let store = ArtifactStore::open(&dir).unwrap();
        let m = store.lookup(deck_hash(&specs[0].input, 20)).unwrap().expect("published");
        let csv = store.get_object(m.trace_object.expect("a one-world trace")).unwrap();
        let got = xg_comm::traces_from_csv(std::str::from_utf8(&csv).unwrap()).unwrap();
        // The world ran on the grid the manifest records.
        let (n1, n2) = m.proc_grid.split_once('x').expect("a recorded n1xn2 grid");
        let grid = ProcGrid::new(n1.parse().unwrap(), n2.parse().unwrap());
        let max = ServerConfig::local_test();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(grid, world_grid(max.grid, cores, 1, max.k_max));
        let inputs = specs.iter().map(|s| s.input.clone()).collect();
        let cfg = EnsembleConfig::new(inputs, grid).unwrap();
        let want = xgyro_core::run_xgyro(&cfg, 20).traces;
        assert_eq!(got.len(), 3 * grid.size(), "one log per rank of the k=3 world");
        // Op for op, up to timing.
        let ops = |logs: &[Vec<xg_comm::OpRecord>]| -> Vec<Vec<_>> {
            let key = |r: &xg_comm::OpRecord| {
                (r.op, r.comm_label.clone(), r.phase.clone(), r.bytes, r.members.clone())
            };
            logs.iter().map(|log| log.iter().map(key).collect()).collect()
        };
        assert_eq!(ops(&got), ops(&want));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_member_fails_without_killing_batch_mates() {
        let mut cfg = ServerConfig::local_test();
        // One injected crash on rank 2 (member 2's one rank: a 1×1 max grid
        // runs every world on 1×1) early in the first segment of the first
        // batch.
        cfg.grid = ProcGrid::new(1, 1);
        cfg.fault_plan = Some(FaultPlan::crash(2, 4));
        cfg.workers = 1;
        let server = CampaignServer::start(cfg);
        let base = CgyroInput::test_small();
        let ids: Vec<JobId> = (0..3)
            .map(|i| {
                server
                    .submit(spec(base.with_gradients(1.0 + i as f64, 2.0), 20, "f"))
                    .unwrap()
            })
            .collect();
        assert!(server.drain(Duration::from_secs(60)));
        let states: Vec<JobState> =
            ids.iter().map(|id| server.status(*id).unwrap().state).collect();
        assert_eq!(states.iter().filter(|s| **s == JobState::Failed).count(), 1);
        assert_eq!(states.iter().filter(|s| **s == JobState::Done).count(), 2);
        assert_eq!(states[2], JobState::Failed, "the crashed rank is member 2's");
        assert!(server.status(ids[2]).unwrap().detail.contains("evicted"));
        server.shutdown();
    }

    #[test]
    fn the_world_grid_is_the_largest_power_of_two_grid_the_cores_hold() {
        let g = ProcGrid::new;
        // (cores, workers, k_max, max grid) -> world grid.
        let rows = [
            (2, 2, 3, g(2, 1), g(1, 1)),  // 12 rank threads would want 2 cores
            (1, 1, 1, g(4, 2), g(1, 1)),  // never below 1×1
            (2, 1, 1, g(2, 1), g(2, 1)),  // fits exactly
            (12, 2, 3, g(2, 1), g(2, 1)), // 2·3·2 = 12
            (11, 2, 3, g(2, 1), g(1, 1)),
            (64, 1, 2, g(4, 4), g(4, 4)), // the whole max grid fits
            (8, 1, 2, g(4, 4), g(4, 1)),  // 4 ranks a world: 4×1 over 2×2
            (16, 2, 2, g(2, 4), g(2, 2)), // n1 capped at 2
            (4, 1, 1, g(3, 1), g(2, 1)),  // a 3×1 max runs on 2×1…
            (2, 1, 2, g(3, 1), g(1, 1)),  // …or 1×1, never 3×1
            (96, 1, 1, g(3, 3), g(2, 2)),
        ];
        for (cores, workers, k_max, max, want) in rows {
            let got = world_grid(max, cores, workers, k_max);
            assert_eq!(got, want, "{cores} cores, {workers} workers, k_max {k_max}, max {max}");
            assert!(got.n1.is_power_of_two() && got.n2.is_power_of_two());
        }
    }

    #[test]
    fn results_do_not_depend_on_the_max_grid() {
        // One deck served by daemons whose max grids are 1×1 and 2×1. With
        // one worker and k_max = 1 a world of 2×1 needs two cores: where
        // the host has them the second daemon runs the deck on 2×1. Either
        // way both publish the bits of the direct run at 2×1.
        let deck = CgyroInput { nonlinear_coupling: 0.15, ..CgyroInput::test_small() };
        let served: Vec<_> = [ProcGrid::new(1, 1), ProcGrid::new(2, 1)]
            .into_iter()
            .map(|grid| {
                let mut cfg = ServerConfig::local_test();
                (cfg.grid, cfg.workers, cfg.k_max) = (grid, 1, 1);
                let server = CampaignServer::start(cfg);
                let dr = server.dry_run(&spec(deck.clone(), 20, "max")).unwrap();
                assert_eq!(dr.proc_grid, server.world_grid());
                let id = server.submit(spec(deck.clone(), 20, "max")).unwrap();
                assert!(server.drain(Duration::from_secs(60)));
                let status = server.status(id).unwrap();
                assert_eq!(status.state, JobState::Done, "{}", status.detail);
                assert_eq!(status.proc_grid, Some(server.world_grid()));
                let summary = server.result_summary(id).expect("done");
                server.shutdown();
                summary
            })
            .collect();
        assert_eq!(served[0], served[1], "max 1×1 against max 2×1");
        let cfg = EnsembleConfig::new(vec![deck], ProcGrid::new(2, 1)).unwrap();
        let direct = xgyro_core::run_xgyro(&cfg, 20).sims.remove(0);
        let want = JobOutcome { h: direct.h, diagnostics: direct.diagnostics, steps: 20 };
        assert_eq!(served[0], outcome_summary(&want), "served against direct at 2×1");
    }
}
