//! The campaign server: admission → grouping → bounded workers → results.
//!
//! Threads:
//!
//! * **submitters** (callers of [`CampaignServer::submit`]) run admission
//!   and grouper placement synchronously under the state lock — a client
//!   holds a job id only for work the server has really accepted;
//! * one **batcher** thread sleeps until the earliest linger deadline and
//!   flushes expired underfull batches to the ready queue;
//! * `workers` **worker** threads pop ready batches and execute each as one
//!   XGYRO ensemble through one [`xgyro_core::ResilientRun`] — one world
//!   and one `cmat` factorization for the life of the batch — checkpointed
//!   every `ckpt_every` steps, so cancellations are applied at checkpoint
//!   boundaries and a faulted member is evicted without killing its
//!   batch-mates.
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
use crate::batcher::{FlushReason, Grouper, GrouperConfig, Placement};
use crate::job::{unix_us, BatchId, JobEvent, JobId, JobOutcome, JobSpec, JobState, JobStatus};
use crate::journal::{self, Journal, JournalConfig, JournalRecord};
use crate::metrics::Metrics;
use crate::sched::DispatchQueue;
use crate::table::{BatchCheckpoint, Ignored, Job, JobTable};
use crate::tenant::TenantDirectory;
use xg_artifact::{deck_hash, ArtifactStore, DeckHash, GcReport, Manifest, StoreStats};
use parking_lot::{Condvar, Mutex};
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
    /// Per-simulation process grid batches execute on (the thread-backed
    /// substrate's analogue of the per-sim MPI decomposition).
    pub grid: ProcGrid,
    /// Operator cap on batch size; the effective cap may be lower where the
    /// memory budget binds ([`xg_cluster::max_feasible_k`]).
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
    /// Tenant roster: per-tenant weights, priorities, quotas, and secrets.
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
}

/// What startup journal replay reconstructed. Retrieve with
/// [`CampaignServer::recovery_report`]; the same numbers are exported under
/// the metrics `recovery` block and the `xgserve_replay_*` families.
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
    /// Wall time the replay took, microseconds.
    pub replay_us: u64,
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

/// A flushed batch waiting for a worker.
#[derive(Debug)]
struct ReadyBatch {
    id: BatchId,
    jobs: Vec<JobId>,
    reason: FlushReason,
    /// Set for batches rebuilt by journal replay and for batches
    /// preempted at a checkpoint boundary.
    resume: Option<ResumeState>,
    /// The tenant every member belongs to (batches are tenant-pure).
    tenant: String,
    /// The tenant's priority lane at enqueue time.
    priority: u8,
    /// Modeled node allocation this batch occupies while executing — the
    /// smallest feasible world for its deck and size, so several worlds
    /// run concurrently inside the server's node budget.
    nodes: usize,
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
    recovery: RecoveryReport,
    /// Modeled nodes occupied by currently executing worlds.
    nodes_in_use: usize,
    /// Workers parked waiting for a dispatchable batch.
    idle_workers: usize,
}

struct Shared {
    cfg: ServerConfig,
    /// The artifact store, when configured. Its methods take `&self` and
    /// commit atomically, so it lives outside the state mutex.
    store: Option<ArtifactStore>,
    state: Mutex<State>,
    /// Workers wait here for ready batches.
    work: Condvar,
    /// The batcher thread waits here for its next linger deadline.
    timer: Condvar,
    /// Drain/join waits here for the live-job count to hit zero.
    quiet: Condvar,
}

/// The campaign service. Call [`CampaignServer::drain`] then
/// [`CampaignServer::shutdown`] for an orderly stop; a bare `shutdown`
/// cancels never-dispatched jobs and preempts running batches at their next
/// checkpoint boundary.
pub struct CampaignServer {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl CampaignServer {
    /// Start the service: one batcher thread plus `cfg.workers` workers.
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
            recovery: RecoveryReport::default(),
            nodes_in_use: 0,
            idle_workers: 0,
        };
        // Same contract as the journal: a daemon configured to cache results
        // must not come up unable to keep that promise.
        let store = cfg.artifacts.as_ref().map(|a| {
            ArtifactStore::open(&a.dir)
                .unwrap_or_else(|e| panic!("cannot open artifact store in {:?}: {e}", a.dir))
        });
        let shared = Arc::new(Shared {
            cfg,
            store,
            state: Mutex::new(st),
            work: Condvar::new(),
            timer: Condvar::new(),
            quiet: Condvar::new(),
        });
        if let Some(replay) = replay {
            let mut guard = shared.state.lock();
            let st = &mut *guard;
            recover(&shared, st, replay);
            st.metrics.set_recovery(&st.recovery);
        }
        let mut threads = Vec::new();
        {
            let s = shared.clone();
            threads.push(std::thread::spawn(move || batcher_loop(&s)));
        }
        for _ in 0..shared.cfg.workers {
            let s = shared.clone();
            threads.push(std::thread::spawn(move || worker_loop(&s)));
        }
        Self { shared, threads }
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
        let guard = self.shared.state.lock();
        admit(&self.shared, &guard, spec)?;
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

    /// Store occupancy counters (`None` when running cache-less).
    pub fn artifact_stats(&self) -> Option<StoreStats> {
        self.shared.store.as_ref().and_then(|s| s.stats().ok())
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

    /// What startup journal replay reconstructed (all-zero when running
    /// journal-less or from an empty directory).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.shared.state.lock().recovery.clone()
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
    /// admitted jobs reach a terminal state and every worker has returned
    /// its nodes to the ledger (or `timeout` elapses). Returns true when
    /// the server went quiet in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let shared = &self.shared;
        let deadline = Instant::now() + timeout;
        let mut guard = shared.state.lock();
        guard.draining = true;
        let flushed = guard.grouper.flush_all();
        {
            let st = &mut *guard;
            for f in flushed {
                enqueue_ready(&shared.cfg, st, f.batch.id, f.batch.jobs, f.reason, None);
            }
        }
        shared.work.notify_all();
        // The last job turns terminal inside `execute_batch`, a moment
        // before its worker releases the batch's nodes; quiet means both.
        let quiet = |st: &State| st.table.live() == 0 && st.nodes_in_use == 0;
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

    /// Metrics snapshot as JSON.
    pub fn metrics_json(&self) -> String {
        let guard = self.shared.state.lock();
        let (m, by_state) = metrics_snapshot(&guard);
        m.to_json(&by_state)
    }

    /// Metrics snapshot as Prometheus text: the serve counters followed by
    /// the daemon's process-wide phase timers (empty-but-well-formed when
    /// running with `XGYRO_OBS=0`).
    pub fn metrics_prom(&self) -> String {
        let mut text = {
            let guard = self.shared.state.lock();
            let (m, by_state) = metrics_snapshot(&guard);
            m.to_prometheus(&by_state)
        };
        text.push_str(&xg_obs::expo::to_prometheus(xg_obs::Registry::global()));
        text
    }

    /// One-screen live view for `xgq top`: job-state counts, headline batch
    /// counters, per-tenant accounting, and the daemon's per-phase
    /// wall-time table.
    pub fn top_text(&self) -> String {
        let (by_state, dispatched, saved, tenant_lines) = {
            let guard = self.shared.state.lock();
            let (m, _) = metrics_snapshot(&guard);
            let tenant_lines: Vec<String> = m
                .tenants
                .iter()
                .map(|(name, t)| {
                    format!(
                        "tenant {name}: submitted={} done={} work_done={} live_jobs={} \
                         live_bytes={} preemptions={}",
                        t.submitted, t.done, t.work_done, t.live_jobs, t.live_bytes,
                        t.preemptions,
                    )
                })
                .collect();
            (
                jobs_by_state(&guard),
                guard.metrics.occupancy.values().sum::<u64>(),
                guard.metrics.cmat_saved_bytes,
                tenant_lines,
            )
        };
        let mut s = String::from("jobs:");
        for (state, n) in &by_state {
            s.push_str(&format!(" {state}={n}"));
        }
        s.push('\n');
        s.push_str(&format!(
            "batches: dispatched={dispatched} cmat_saved_bytes={saved}\n"
        ));
        for line in &tenant_lines {
            s.push_str(line);
            s.push('\n');
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

    /// Stop the service: never-dispatched jobs are cancelled, running
    /// batches are preempted at their next checkpoint boundary, and all
    /// threads are joined.
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
            shared.timer.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Live job counts per state, in [`JobState::ALL`] order.
fn jobs_by_state(st: &State) -> Vec<(JobState, usize)> {
    JobState::ALL
        .iter()
        .map(|s| (*s, st.table.jobs().filter(|j| j.state == *s).count()))
        .collect()
}

/// Metrics clone with fresh journal stats and per-tenant usage gauges
/// folded in, plus the state-count table — one consistent snapshot under
/// the caller's lock.
fn metrics_snapshot(st: &State) -> (Metrics, Vec<(JobState, usize)>) {
    let mut m = st.metrics.clone();
    if let Some(j) = &st.journal {
        m.set_journal_stats(j.stats());
    }
    m.tenants = st.table.tenants().clone();
    m.set_tenant_usage(st.table.tenant_usage());
    m.nodes_in_use = st.nodes_in_use as u64;
    (m.world_spawns, m.cmat_builds) = xg_obs::Registry::global().session_stats();
    (m, jobs_by_state(st))
}

/// Price and enqueue a flushed batch into the fair-share dispatch queue.
/// The batch's node ask is the smallest feasible world for its deck and
/// size ([`xg_cluster::min_nodes_unbalanced`]); its fair-share cost is its
/// member-steps of simulation work.
fn enqueue_ready(
    cfg: &ServerConfig,
    st: &mut State,
    id: BatchId,
    jobs: Vec<JobId>,
    reason: FlushReason,
    resume: Option<ResumeState>,
) {
    if jobs.is_empty() {
        return;
    }
    let (tenant, steps, nodes) = {
        let head = st.table.job(jobs[0]).expect("a flushed batch names held jobs");
        let nodes = batch_nodes(cfg, &head.spec.input, jobs.len());
        (head.spec.tenant.clone(), head.spec.steps, nodes)
    };
    let (weight, priority) = tenant_sched_params(cfg, &tenant);
    let cost = jobs.len() as u64 * steps as u64;
    st.ready.push(
        &tenant,
        weight,
        priority,
        cost,
        ReadyBatch { id, jobs, reason, resume, tenant: tenant.clone(), priority, nodes },
    );
}

/// Modeled node allocation for one executing world: the smallest node
/// count whose memory budget fits a `k`-member ensemble of this deck,
/// clamped to the server's whole allocation (admission guarantees at
/// least `k = 1` fits it).
fn batch_nodes(cfg: &ServerConfig, input: &CgyroInput, k: usize) -> usize {
    xg_cluster::min_nodes_unbalanced(input, k, &cfg.machine, cfg.nodes)
        .map_or(cfg.nodes, |p| p.nodes)
}

/// The roster's scheduling parameters for a tenant; unlisted tenants (open
/// mode) run at weight 1 in the base priority lane.
fn tenant_sched_params(cfg: &ServerConfig, tenant: &str) -> (u32, u8) {
    cfg.tenants
        .get(tenant)
        .map_or((crate::tenant::DEFAULT_WEIGHT, 0), |t| (t.weight, t.priority))
}

/// The live path's only way to change a job: journal the record, then
/// apply it to the table. Only admission records are a hard durability
/// contract (see [`admit_job`]); the rest degrade gracefully — a refused
/// append is counted in the journal's `dropped` stat, the in-memory state
/// still moves, and replay reconstructs what it can from whatever did land.
fn commit(shared: &Shared, st: &mut State, rec: JournalRecord) {
    if let Some(j) = st.journal.as_mut() {
        if j.append(&rec).is_ok() {
            xg_obs::record_journal_append();
        }
    }
    apply_live(shared, st, rec, None);
}

/// Apply a record this process built (and has journaled) to the table, then
/// let what follows from the new state follow: the retention window, the
/// journal's compaction — which asks the table what to keep, so it must run
/// *after* the record that closed the segment is applied — and drain
/// waiters. A refusal is a bug: the checks that built the record hold the
/// same lock.
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
            xg_obs::record_cache_miss();
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
        xg_obs::record_journal_append();
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
        xg_obs::record_cache_hit(manifest.outcome_bytes);
        return Ok(job);
    }
    // Queued → Batched happens inside submit (placement is synchronous), so
    // the client's first look at the job already sees it batched.
    let placed = st.table.job(job).expect("just admitted");
    let (batch, flushed) = st.grouper.place(job, &placed.spec, Instant::now());
    commit(shared, st, JournalRecord::Batched { job, batch });
    if let Some(f) = flushed {
        enqueue_ready(&shared.cfg, st, f.batch.id, f.batch.jobs, f.reason, None);
        shared.work.notify_all();
    }
    // A new batch may have created the earliest linger deadline.
    shared.timer.notify_one();
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
/// resume — its members stay `Running`, exactly like a batch preempted at a
/// checkpoint boundary. Runs before any worker thread exists.
fn recover(shared: &Shared, st: &mut State, replay: journal::Replay) {
    st.recovery = RecoveryReport {
        replayed_records: replay.records.len() as u64,
        torn_bytes: replay.torn_bytes,
        replay_us: replay.replay_us,
        warnings: replay.warnings,
        ..RecoveryReport::default()
    };
    let mut ignored = 0u64;
    for rec in replay.records {
        match st.table.apply(rec, None) {
            Ok(()) => {}
            Err(Ignored::Illegal) => ignored += 1,
            Err(Ignored::BadDeck(why)) => st.recovery.warnings.push(why),
        }
    }
    if ignored > 0 {
        st.recovery.warnings.push(format!("{ignored} record(s) ignored by replay"));
    }
    xg_obs::record_journal_replay(replay.replay_us);
    let now = Instant::now();
    st.table.evict(shared.cfg.retain_jobs, shared.cfg.retain_age, now);
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
        st.recovery.readmitted_jobs += 1;
        if let Some(f) = flushed {
            enqueue_ready(&shared.cfg, st, f.batch.id, f.batch.jobs, f.reason, None);
        }
    }

    // Each interrupted batch resumes from its last journaled checkpoint —
    // or from step 0 when none landed or the restored one fails validation
    // (correctness over speed, with a warning).
    let mut resumes = Vec::new();
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
            match restored_checkpoint(cp, &members, head) {
                Ok(image) => {
                    resume.checkpoint = Some(image);
                    resume.done = cp.done_steps as usize;
                }
                Err(why) => {
                    let w = format!("{bid}: {why}; restarting batch from step 0");
                    st.recovery.warnings.push(w);
                }
            }
        }
        resumes.push((*bid, members, resume));
    }
    let terminal = st.table.jobs().filter(|j| j.state.is_terminal()).count();
    st.recovery.restored_jobs = terminal as u64;
    for (bid, members, resume) in resumes {
        st.recovery.resumed_batches += 1;
        st.recovery.restored_jobs += members.len() as u64;
        enqueue_ready(&shared.cfg, st, bid, members, FlushReason::Resume, Some(resume));
    }
}

/// Decode a journaled checkpoint and fit it to the members that resume
/// from it: members that terminalized after it was taken are evicted from
/// the image (highest position first — eviction shifts later positions
/// down), and what is left must be exactly `members`' ensemble.
fn restored_checkpoint(
    cp: &BatchCheckpoint,
    members: &[JobId],
    head: &Job,
) -> Result<EnsembleCheckpoint, String> {
    let mut image = EnsembleCheckpoint::from_bytes(&cp.state)
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

/// The batcher thread: flush linger-expired batches to the ready queue.
fn batcher_loop(shared: &Shared) {
    let mut guard = shared.state.lock();
    loop {
        if guard.shutdown {
            return;
        }
        let now = Instant::now();
        let expired = guard.grouper.expired(now);
        if !expired.is_empty() {
            let st = &mut *guard;
            for f in expired {
                enqueue_ready(&shared.cfg, st, f.batch.id, f.batch.jobs, f.reason, None);
            }
            shared.work.notify_all();
            continue;
        }
        // The batcher doubles as the retention sweeper: the age bound must
        // fire even when no submission or flush has run in a while.
        let evicted = guard.table.evict(shared.cfg.retain_jobs, shared.cfg.retain_age, now);
        guard.metrics.on_terminal_evicted(evicted);
        match guard.grouper.next_deadline() {
            Some(d) => {
                shared.timer.wait_until(&mut guard, d);
            }
            None => {
                // Nothing pending: sleep until a submit creates a batch.
                shared.timer.wait_for(&mut guard, Duration::from_secs(1));
            }
        }
    }
}

/// A worker thread: pop ready batches whose node ask fits the remaining
/// machine budget and execute them. The worker is the single owner of the
/// node ledger — it reserves `rb.nodes` at pop and releases them when
/// `execute_batch` returns, whether the batch completed, failed, or was
/// preempted back into the queue.
fn worker_loop(shared: &Shared) {
    loop {
        let (rb, nodes) = {
            let mut guard = shared.state.lock();
            guard.idle_workers += 1;
            let rb = loop {
                if guard.shutdown {
                    guard.idle_workers -= 1;
                    return;
                }
                let st = &mut *guard;
                let avail = shared.cfg.nodes.saturating_sub(st.nodes_in_use);
                if let Some(rb) = st.ready.pop(|cand| cand.nodes <= avail) {
                    break rb;
                }
                shared.work.wait(&mut guard);
            };
            guard.idle_workers -= 1;
            guard.nodes_in_use += rb.nodes;
            guard.metrics.on_world_start();
            let nodes = rb.nodes;
            (rb, nodes)
        };
        execute_batch(shared, rb);
        {
            let mut guard = shared.state.lock();
            guard.nodes_in_use = guard.nodes_in_use.saturating_sub(nodes);
            guard.metrics.on_world_end();
            // Freed nodes may unblock a queued world on another worker,
            // and an empty ledger is the second half of drain's condition.
            shared.work.notify_all();
            shared.quiet.notify_all();
        }
    }
}

/// Run one batch as an XGYRO ensemble: **one** [`ResilientRun`] — one
/// world, one topology, one `cmat` factorization — held for the life of the
/// batch and checkpointed every `ckpt_every` steps without leaving the
/// world. Cancellations (and shutdown) apply at those boundaries by evicting
/// the member; a faulted member is evicted without killing its batch-mates;
/// only then is the world rebuilt, at k−1, from the last checkpoint. Each
/// completed segment (except the last) journals its checkpoint, so a crash
/// mid-batch resumes from the last boundary instead of step 0; the final
/// segment is deliberately *not* journaled — a crash between it and the
/// `Done` records re-runs that segment deterministically, which is cheaper
/// than reasoning about a "finished but unrecorded" limbo state.
fn execute_batch(shared: &Shared, rb: ReadyBatch) {
    let ReadyBatch { id: batch_id, jobs, reason, resume, tenant, priority, nodes } = rb;
    // Dispatch bookkeeping: transition members to Running, record queue
    // latency and occupancy, arm the chaos fault plan (first batch only).
    // Members of a preempted batch — or of one a restart resumed — are
    // *already* Running: they re-enter here without a second transition,
    // dispatch count, or Running record, so a preempt/resume cycle is
    // invisible to occupancy accounting.
    let (inputs, steps_total, plan) = {
        let mut guard = shared.state.lock();
        let st = &mut *guard;
        let now = Instant::now();
        let mut inputs: Vec<CgyroInput> = Vec::new();
        let mut steps_total = 0;
        let mut fresh = false;
        for id in &jobs {
            let job = st.table.job_mut(*id).expect("batched job exists");
            steps_total = job.spec.steps;
            inputs.push(job.spec.input.clone());
            // A batch resumed after a restart was dispatched by a previous
            // life: its latency spans the crash.
            job.dispatched_at.get_or_insert(now);
            if job.state != JobState::Batched {
                continue;
            }
            fresh = true;
            // Microsecond resolution: under test configs dispatch latency
            // is routinely sub-millisecond, and ms-granular recording
            // rounded it all to zero (count > 0 with sum = 0).
            let lat_us = now.duration_since(job.submitted_at).as_micros() as u64;
            st.metrics.on_queue_latency_us(lat_us);
        }
        if jobs.is_empty() {
            return;
        }
        if fresh {
            st.metrics.on_dispatch(jobs.len(), inputs[0].dims(), reason);
            commit(shared, st, JournalRecord::Running { batch: batch_id, jobs: jobs.clone() });
        }
        (inputs, steps_total, st.fault_plan.take())
    };
    let batch_k = jobs.len() as u64;
    let exec_start = Instant::now();

    let (checkpoint, mut done, mut next_seq) = match resume {
        Some(r) => (r.checkpoint, r.done, r.next_seq),
        None => (None, 0usize, 0u64),
    };
    // The same call serves a fresh batch, a preempted one coming back and a
    // batch journal replay rebuilt after kill -9: open from the checkpoint.
    let plan = plan.unwrap_or_default();
    let run = EnsembleConfig::new(inputs, shared.cfg.grid)
        .map_err(|e| e.to_string())
        .and_then(|cfg| {
            ResilientRun::new(&cfg, checkpoint, plan, shared.cfg.deadline, None)
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
    while done < steps_total {
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
        // Elastic preemption: yield this world's nodes when a
        // higher-priority batch is blocked and provably dispatchable once
        // they are released. The fit test is deliberately strict —
        // releasing nodes that still would not admit the waiting batch
        // would spin through pop/requeue without making progress. Members
        // stay Running; the batch re-enters the queue with its checkpoint,
        // and the worker that released the nodes pops the higher lane
        // first. The world goes with the nodes: the resumed batch opens a
        // new one from the checkpoint.
        let preempted = {
            let mut guard = shared.state.lock();
            let st = &mut *guard;
            let need = st.ready.min_over_higher_lanes(priority, |c| c.nodes as u64);
            let avail_now = shared.cfg.nodes.saturating_sub(st.nodes_in_use) as u64;
            let yields = need.is_some_and(|need| {
                (st.idle_workers == 0 || need > avail_now) && need <= avail_now + nodes as u64
            });
            if yields {
                st.metrics.on_preempt();
                st.table.on_preempt(&tenant);
                let resume =
                    ResumeState { checkpoint: run.checkpoint().cloned(), done, next_seq };
                enqueue_ready(
                    &shared.cfg,
                    st,
                    batch_id,
                    member_ids.clone(),
                    FlushReason::Preempt,
                    Some(resume),
                );
                shared.work.notify_all();
            }
            yields
        };
        if preempted {
            account(&run.close());
            return;
        }
        let seg = shared.cfg.ckpt_every.min(steps_total - done);
        // Journal this boundary so a crash resumes here. The final segment
        // is intentionally skipped (see above).
        let journaled = match run.advance(seg) {
            Ok(checkpoint) => (done + seg < steps_total).then(|| checkpoint.to_bytes()),
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
        if let Some(state) = journaled {
            let crec = JournalRecord::Checkpoint {
                batch: batch_id,
                jobs: member_ids.clone(),
                seq: next_seq,
                done_steps: done as u64,
                state,
            };
            next_seq += 1;
            commit(shared, &mut shared.state.lock(), crec);
        }
    }
    // Outcomes are built once, from the one final gather. The gather, the
    // traffic logs and the checkpoint are all dropped before the Done
    // transitions below: `drain` returns the moment the last job is
    // terminal, and this worker should be back at the node ledger by then.
    let (member_ids, mut results) = {
        let rec = match run.finish() {
            Ok(rec) => rec,
            Err(e) => {
                fail_all(shared, &member_ids, &format!("batch failed: {e}"));
                return;
            }
        };
        fail_evicted(&rec.events[events_seen..]);
        account(&rec.outcome.traces);
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
            &rec.outcome.traces,
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

/// Publish every completed member of a batch into the artifact store: the
/// batch's communication trace once, then deck + outcome blobs and a
/// manifest per member. Publish failures are logged and skipped — a full
/// disk degrades the cache, never the campaign — and when an automatic GC
/// budget is configured the store is collected afterwards.
fn publish_batch(
    shared: &Shared,
    batch_id: BatchId,
    batch_k: u64,
    member_ids: &[JobId],
    results: &BTreeMap<JobId, JobOutcome>,
    all_traces: &[Vec<xg_comm::OpRecord>],
    exec_start: Instant,
) {
    let Some(store) = shared.store.as_ref() else { return };
    let acfg = shared.cfg.artifacts.as_ref().expect("store implies config");
    if member_ids.is_empty() {
        return;
    }
    let trace_object = if all_traces.iter().any(|t| !t.is_empty()) {
        let csv = xg_comm::traces_to_csv_with_meta(
            all_traces,
            &[("batch", &batch_id.to_string()), ("k", &batch_k.to_string())],
        );
        store.put_object(csv.as_bytes()).ok()
    } else {
        None
    };
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
    for (id, spec) in specs {
        let outcome = &results[&id];
        let summary = outcome_summary(outcome);
        if let Err(e) = artifacts::publish_member(store, &spec, outcome, summary, &ctx) {
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
        let json = server.metrics_json();
        assert!(json.contains("\"k=3\": 1"), "occupancy histogram: {json}");
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
        let json = server.metrics_json();
        assert!(json.contains("\"linger\": 1"), "{json}");
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
        let json = server.metrics_json();
        assert!(json.contains("\"queue-full\": 1"), "{json}");
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
        let json = server.metrics_json();
        assert!(json.contains("\"hits\": 1"), "{json}");
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

    #[test]
    fn faulted_member_fails_without_killing_batch_mates() {
        let mut cfg = ServerConfig::local_test();
        // One injected crash on rank 2 (a rank of member 1 on the 2x1
        // grid) early in the first segment of the first batch.
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
        let failed = ids[states.iter().position(|s| *s == JobState::Failed).unwrap()];
        assert!(server.status(failed).unwrap().detail.contains("evicted"));
        server.shutdown();
    }
}
