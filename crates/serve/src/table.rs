//! The job table: one transition function for the live server, restart
//! replay and journal compaction.
//!
//! The journal record *is* the event. The live server checks admission,
//! appends a [`JournalRecord`] and hands it to [`JobTable::apply`]; a
//! restart hands the replayed log to the same `apply`, record by record;
//! compaction asks the table which records it still answers for
//! ([`JobTable::retains`]). `apply` is the only place a job is constructed,
//! changes state, is counted live, releases its tenant quota, notifies its
//! subscribers or becomes evictable — so the three callers cannot disagree
//! about what a record means.
//!
//! ```text
//!   live:     admission checks ──► journal.append(&rec) ──► table.apply(rec)
//!   restart:  for rec in journal.replay() { table.apply(rec) }  then recovery policy
//!   compact:  closed.retain(|rec| table.retains(rec)),  head = table.watermark()
//! ```
//!
//! The table is plain data behind the server's one mutex: no threads, no
//! I/O, no clock beyond stamping admission and terminal times.

use crate::job::{unix_us, BatchId, JobEvent, JobId, JobOutcome, JobSpec, JobState, JobStatus};
use crate::journal::{fnv1a, JournalRecord};
use crate::metrics::TenantCounters;
use crate::tenant::TenantUsage;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};
use xg_sim::CgyroInput;

/// One row of the table (server-side bookkeeping for one job).
#[derive(Debug)]
pub(crate) struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    pub state: JobState,
    pub cmat_key: u64,
    pub batch: Option<BatchId>,
    pub detail: String,
    pub cancel_requested: bool,
    /// Admission time as a monotonic instant, back-dated by the journaled
    /// wall-clock age so queue-latency accounting spans a crash instead of
    /// restarting at replay time.
    pub submitted_at: Instant,
    pub dispatched_at: Option<Instant>,
    /// The final tensor, for jobs that finished (or were served from the
    /// artifact store) in this life.
    pub outcome: Option<JobOutcome>,
    /// The idempotency token this job was submitted under, if any —
    /// retained so eviction drops the matching dedup entry with the job.
    pub token: Option<String>,
    /// Canonical deck-text size, counted against the tenant's live-byte
    /// quota while the job is non-terminal.
    pub deck_bytes: u64,
    /// For `Done` jobs: the journaled result summary `(steps, h_hash,
    /// diag_bits)`. It outlives the tensor, so `RESULT` stays answerable —
    /// and bitwise-checkable — after a restart.
    pub summary: Option<(u64, u64, [u64; 4])>,
    pub subscribers: Vec<std::sync::mpsc::Sender<JobEvent>>,
}

impl Job {
    pub(crate) fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            tag: self.spec.tag.clone(),
            tenant: self.spec.tenant.clone(),
            state: self.state,
            cmat_key: self.cmat_key,
            batch: self.batch,
            detail: self.detail.clone(),
            queue_latency_ms: self
                .dispatched_at
                .map(|d| d.duration_since(self.submitted_at).as_millis() as u64),
        }
    }

    /// The one state assignment: enter `to`, tell the subscribers, and hang
    /// up on them once the state is terminal ("no more events").
    fn enter(&mut self, to: JobState, detail: String) {
        self.state = to;
        if !self.subscribers.is_empty() {
            let ev = JobEvent { job: self.id, state: to, detail: detail.clone() };
            self.subscribers.retain(|tx| tx.send(ev.clone()).is_ok());
        }
        self.detail = detail;
        if to.is_terminal() {
            self.subscribers.clear();
        }
    }
}

/// The latest journaled checkpoint of a running batch.
#[derive(Debug)]
pub(crate) struct BatchCheckpoint {
    /// Per-batch checkpoint sequence number.
    pub seq: u64,
    /// Steps completed at this checkpoint.
    pub done_steps: u64,
    /// Surviving members at the checkpoint, in member-image order.
    pub jobs: Vec<JobId>,
    /// `EnsembleCheckpoint::to_bytes()` of the restart image.
    pub state: Vec<u8>,
}

/// A dispatched batch that still has a non-terminal member.
#[derive(Debug)]
pub(crate) struct RunningBatch {
    /// Members at dispatch, in member order.
    pub jobs: Vec<JobId>,
    /// Where a restart resumes it from (None: step 0).
    pub checkpoint: Option<BatchCheckpoint>,
}

/// Why [`JobTable::apply`] changed nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Ignored {
    /// The record names a job or batch the table does not hold, re-admits
    /// an id it does hold, or implies an edge the lifecycle graph forbids.
    /// The live path never builds one (it is a bug there); replay counts
    /// them — a torn or hand-edited log must fold, not crash.
    Illegal,
    /// A replayed admission whose deck text no longer parses or fails its
    /// hash; carries the warning the recovery report shows.
    BadDeck(String),
}

/// The server's job state. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct JobTable {
    jobs: BTreeMap<JobId, Job>,
    /// One past the highest job id any record ever named.
    next_job: u64,
    /// One past the highest batch id any record ever named.
    next_batch: u64,
    /// Non-terminal jobs (admission backpressure, drain).
    live: usize,
    /// Idempotency token → job id.
    tokens: BTreeMap<String, JobId>,
    /// Live resource usage per tenant, checked against quotas at admission.
    tenant_usage: BTreeMap<String, TenantUsage>,
    /// Per-tenant lifecycle counters (exported under the metrics `tenants`
    /// block; replayed, so they read the same after a restart).
    tenants: BTreeMap<String, TenantCounters>,
    /// Terminal jobs in the order they terminalized — the retention window.
    terminal_order: VecDeque<(JobId, Instant)>,
    /// Dispatched batches with a non-terminal member.
    running: BTreeMap<BatchId, RunningBatch>,
}

impl JobTable {
    /// Apply one lifecycle record. `input` is the already-parsed deck a live
    /// submit holds; replay passes `None` and the journaled deck text is
    /// parsed and held to its hash.
    ///
    /// Every id a record names raises the id watermarks, applied or not:
    /// an id that appears anywhere in the log was issued, and is never
    /// issued again.
    pub(crate) fn apply(
        &mut self,
        rec: JournalRecord,
        input: Option<CgyroInput>,
    ) -> Result<(), Ignored> {
        let hit = match &rec {
            JournalRecord::CacheHit { steps_done, h_hash, diag_bits, .. } => {
                Some((*steps_done, *h_hash, *diag_bits))
            }
            _ => None,
        };
        match rec {
            // Admission: `Submitted` is born Queued and counted live;
            // `CacheHit` is admission and completion in one record — born
            // Done, never live, never in a batch, evictable at once.
            JournalRecord::Submitted {
                job,
                token,
                deck_hash,
                deck,
                steps,
                tag,
                submitted_unix_us,
                tenant,
            }
            | JournalRecord::CacheHit {
                job,
                token,
                deck_hash,
                deck,
                steps,
                tag,
                submitted_unix_us,
                tenant,
                ..
            } => {
                self.next_job = self.next_job.max(job.0.saturating_add(1));
                if self.jobs.contains_key(&job) {
                    return Err(Ignored::Illegal);
                }
                let input = match input {
                    Some(input) => input,
                    None => {
                        let parsed = xg_sim::parse_deck(&deck);
                        let checked = parsed.map_err(|e| format!("unparseable ({e})")).and_then(
                            |input| match fnv1a(deck.as_bytes()) == deck_hash {
                                true => Ok(input),
                                false => Err("hash mismatch".to_string()),
                            },
                        );
                        checked.map_err(|why| {
                            Ignored::BadDeck(format!("{job}: journaled deck {why} — job dropped"))
                        })?
                    }
                };
                let now = Instant::now();
                let age = Duration::from_micros(unix_us().saturating_sub(submitted_unix_us));
                let counters = self.tenants.entry(tenant.clone()).or_default();
                counters.submitted += 1;
                let (state, detail, deck_bytes) = match hit {
                    Some(_) => {
                        counters.cache_hits += 1;
                        self.terminal_order.push_back((job, now));
                        (JobState::Done, "served from artifact cache".to_string(), 0)
                    }
                    None => {
                        let deck_bytes = deck.len() as u64;
                        self.live += 1;
                        let usage = self.tenant_usage.entry(tenant.clone()).or_default();
                        usage.live_jobs += 1;
                        usage.live_bytes += deck_bytes;
                        (JobState::Queued, String::new(), deck_bytes)
                    }
                };
                if !token.is_empty() {
                    self.tokens.insert(token.clone(), job);
                }
                self.jobs.insert(
                    job,
                    Job {
                        id: job,
                        cmat_key: input.cmat_key(),
                        spec: JobSpec { input, steps: steps as usize, tag, tenant },
                        state,
                        batch: None,
                        detail,
                        cancel_requested: false,
                        submitted_at: now.checked_sub(age).unwrap_or(now),
                        dispatched_at: None,
                        outcome: None,
                        token: (!token.is_empty()).then_some(token),
                        deck_bytes,
                        summary: hit,
                        subscribers: Vec::new(),
                    },
                );
                Ok(())
            }
            JournalRecord::Batched { job, batch } => {
                self.next_job = self.next_job.max(job.0.saturating_add(1));
                self.next_batch = self.next_batch.max(batch.0.saturating_add(1));
                match self.jobs.get_mut(&job) {
                    // A placement naming a job the table does not hold is
                    // the id watermark compaction leaves at the head of a
                    // merged segment (`watermark`): raising the ids above
                    // was all it is for.
                    None => Ok(()),
                    // Batched → Batched is a restart regrouping a waiting
                    // job into a batch of the new life.
                    Some(j) if matches!(j.state, JobState::Queued | JobState::Batched) => {
                        j.batch = Some(batch);
                        j.enter(JobState::Batched, batch.to_string());
                        Ok(())
                    }
                    Some(_) => Err(Ignored::Illegal),
                }
            }
            JournalRecord::Running { batch, jobs } => {
                self.next_batch = self.next_batch.max(batch.0.saturating_add(1));
                let detail = format!("{batch} (k={})", jobs.len());
                let mut any = false;
                for id in &jobs {
                    let member = self.jobs.get_mut(id);
                    if let Some(j) = member.filter(|j| j.state.can_transition(JobState::Running)) {
                        j.batch = Some(batch);
                        j.enter(JobState::Running, detail.clone());
                        any = true;
                    }
                }
                if !any {
                    return Err(Ignored::Illegal);
                }
                self.running.insert(batch, RunningBatch { jobs, checkpoint: None });
                Ok(())
            }
            JournalRecord::Checkpoint { batch, jobs, seq, done_steps, state } => {
                self.next_batch = self.next_batch.max(batch.0.saturating_add(1));
                let rb = self.running.get_mut(&batch).ok_or(Ignored::Illegal)?;
                rb.checkpoint = Some(BatchCheckpoint { seq, done_steps, jobs, state });
                Ok(())
            }
            JournalRecord::Done { job, steps, h_hash, diag_bits } => {
                let summary = Some((steps, h_hash, diag_bits));
                self.terminate(job, JobState::Done, "completed".into(), summary)
            }
            JournalRecord::Failed { job, detail } => {
                self.terminate(job, JobState::Failed, detail, None)
            }
            JournalRecord::Cancelled { job, detail } => {
                self.terminate(job, JobState::Cancelled, detail, None)
            }
        }
    }

    /// A terminal record: the job leaves the live count, returns its quota
    /// to its tenant, is credited to the tenant's counters and joins the
    /// retention window; a batch whose last member this was stops running.
    fn terminate(
        &mut self,
        id: JobId,
        to: JobState,
        detail: String,
        summary: Option<(u64, u64, [u64; 4])>,
    ) -> Result<(), Ignored> {
        self.next_job = self.next_job.max(id.0.saturating_add(1));
        let job = self.jobs.get_mut(&id).filter(|j| j.state.can_transition(to));
        let job = job.ok_or(Ignored::Illegal)?;
        job.enter(to, detail);
        job.summary = summary;
        let (tenant, deck_bytes) = (job.spec.tenant.clone(), job.deck_bytes);
        let work = if to == JobState::Done { job.spec.steps as u64 } else { 0 };
        self.live -= 1;
        // An emptied usage entry is dropped, so the map tracks only tenants
        // with live work.
        if let Some(u) = self.tenant_usage.get_mut(&tenant) {
            u.live_jobs -= 1;
            u.live_bytes -= deck_bytes;
            if *u == TenantUsage::default() {
                self.tenant_usage.remove(&tenant);
            }
        }
        self.tenants.entry(tenant).or_default().on_terminal(to, work);
        self.terminal_order.push_back((id, Instant::now()));
        let jobs = &self.jobs;
        let alive = |j: &JobId| jobs.get(j).is_some_and(|j| !j.state.is_terminal());
        self.running.retain(|_, rb| rb.jobs.iter().any(alive));
        Ok(())
    }

    /// Enforce the retention window — the one policy deciding how long a
    /// finished job is answered for: evict the oldest terminal jobs beyond
    /// the count bound or past the age bound, each with its idempotency
    /// token. Returns how many went. Journal compaction follows the table
    /// ([`JobTable::retains`]), never the other way round, so an id inside
    /// the window keeps `RESULT` and token dedup working across any number
    /// of restarts and an evicted one answers not-found in every life.
    pub(crate) fn evict(&mut self, retain_jobs: usize, retain_age: Duration, now: Instant) -> u64 {
        let mut evicted = 0;
        while let Some(&(id, at)) = self.terminal_order.front() {
            let over_count = self.terminal_order.len() > retain_jobs;
            let over_age = now.saturating_duration_since(at) >= retain_age;
            if !over_count && !over_age {
                break;
            }
            self.terminal_order.pop_front();
            if let Some(job) = self.jobs.remove(&id) {
                if let Some(tok) = &job.token {
                    if self.tokens.get(tok) == Some(&id) {
                        self.tokens.remove(tok);
                    }
                }
                evicted += 1;
            }
        }
        evicted
    }

    /// Whether compaction must keep `rec`: a job-scoped record while the
    /// table holds its job, a `Running` record while it holds any member,
    /// a `Checkpoint` only while it is the one a restart would resume from.
    pub(crate) fn retains(&self, rec: &JournalRecord) -> bool {
        match rec {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::CacheHit { job, .. }
            | JournalRecord::Batched { job, .. }
            | JournalRecord::Done { job, .. }
            | JournalRecord::Failed { job, .. }
            | JournalRecord::Cancelled { job, .. } => self.jobs.contains_key(job),
            JournalRecord::Running { jobs, .. } => jobs.iter().any(|j| self.jobs.contains_key(j)),
            JournalRecord::Checkpoint { batch, seq, .. } => self
                .running
                .get(batch)
                .and_then(|rb| rb.checkpoint.as_ref())
                .is_some_and(|cp| cp.seq == *seq),
        }
    }

    /// The record compaction writes at the head of a merged segment so the
    /// id watermarks survive the records that carried them: a placement of
    /// the newest job id into the newest batch id. Replayed first, before
    /// any admission, it names a job the table does not hold yet and only
    /// raises the ids (see `apply`). With no batch issued yet it names
    /// `batch-0`, which costs that one id, never a reissue.
    pub(crate) fn watermark(&self) -> Option<JournalRecord> {
        (self.next_job > 0).then(|| JournalRecord::Batched {
            job: JobId(self.next_job - 1),
            batch: BatchId(self.next_batch.saturating_sub(1)),
        })
    }

    /// The id the next admission gets.
    pub(crate) fn next_job_id(&self) -> JobId {
        JobId(self.next_job)
    }

    /// One past the highest batch id any record named (what the grouper's
    /// counter is seeded with after a replay).
    pub(crate) fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// Non-terminal jobs.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Mutable access to a row's bookkeeping fields (cancel flag, dispatch
    /// time, outcome, subscribers). Its `state` is `apply`'s alone.
    pub(crate) fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.jobs.get_mut(&id)
    }

    /// Every job, in id (= submission) order.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// The job an idempotency token is bound to.
    pub(crate) fn token(&self, token: &str) -> Option<JobId> {
        self.tokens.get(token).copied()
    }

    /// Live usage per tenant (only tenants with live work).
    pub(crate) fn tenant_usage(&self) -> &BTreeMap<String, TenantUsage> {
        &self.tenant_usage
    }

    /// Per-tenant lifecycle counters.
    pub(crate) fn tenants(&self) -> &BTreeMap<String, TenantCounters> {
        &self.tenants
    }

    /// One of `tenant`'s running worlds yielded its nodes (not journaled:
    /// a process-life count kept beside the tenant's replayed ones).
    pub(crate) fn on_preempt(&mut self, tenant: &str) {
        self.tenants.entry(tenant.to_string()).or_default().preemptions += 1;
    }

    /// Dispatched batches with a non-terminal member.
    pub(crate) fn running(&self) -> &BTreeMap<BatchId, RunningBatch> {
        &self.running
    }

    /// Check every ledger against the job map — the invariants `apply`
    /// maintains for *any* record sequence. `Err` names the broken ones.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (terminal, live): (Vec<&Job>, Vec<&Job>) =
            self.jobs.values().partition(|j| j.state.is_terminal());
        let mut usage: BTreeMap<String, TenantUsage> = BTreeMap::new();
        for j in &live {
            let u = usage.entry(j.spec.tenant.clone()).or_default();
            u.live_jobs += 1;
            u.live_bytes += j.deck_bytes;
        }
        let mut window: Vec<JobId> = self.terminal_order.iter().map(|(id, _)| *id).collect();
        window.sort();
        let alive = |j: &JobId| self.jobs.get(j).is_some_and(|j| !j.state.is_terminal());
        let ledgers = [
            ("live count", self.live == live.len()),
            ("tenant usage", self.tenant_usage == usage),
            ("token bindings", self.tokens.values().all(|id| self.jobs.contains_key(id))),
            ("retention window", window == terminal.iter().map(|j| j.id).collect::<Vec<_>>()),
            ("job watermark", self.jobs.keys().all(|id| id.0 < self.next_job)),
            ("summaries", self.jobs.values().all(|j| (j.state == JobState::Done) == j.summary.is_some())),
            ("running batches", self.running.iter().all(|(b, rb)| b.0 < self.next_batch && rb.jobs.iter().any(alive))),
        ];
        let broken: Vec<&str> = ledgers.iter().filter(|(_, ok)| !ok).map(|(what, _)| *what).collect();
        if broken.is_empty() {
            Ok(())
        } else {
            Err(format!("{broken:?} disagree with the job map"))
        }
    }
}

/// Replay `records` into a fresh job table exactly as a restart does —
/// the same `apply`, decks parsed from their journaled text — checking the
/// table's ledgers after every record: the live count equals the
/// non-terminal jobs, tenant usage is their sum, every token names a held
/// job, each terminal job sits in the retention window exactly once, no id
/// is at or past its watermark. Returns what the restart would answer
/// `LIST` with, or the first broken invariant.
pub fn replay_check(
    records: impl IntoIterator<Item = JournalRecord>,
) -> Result<Vec<JobStatus>, String> {
    let mut table = JobTable::default();
    for (n, rec) in records.into_iter().enumerate() {
        let _ = table.apply(rec, None);
        table.check().map_err(|e| format!("after record {n}: {e}"))?;
    }
    Ok(table.jobs().map(Job::status).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::tests::{replayed, sample_cache_hit, sample_records};
    use proptest::prelude::*;

    #[test]
    fn apply_builds_the_expected_table() {
        let table = replayed(sample_records());
        assert_eq!(table.jobs().count(), 2);
        let j0 = table.job(JobId(0)).unwrap();
        assert_eq!(j0.state, JobState::Done);
        assert_eq!(j0.summary, Some((20, 0xdead_beef, [1, 2, 3, 4])));
        assert_eq!(table.token("tok-a"), Some(JobId(0)));
        let j1 = table.job(JobId(1)).unwrap();
        assert_eq!(j1.state, JobState::Failed);
        assert_eq!(j1.detail, "evicted");
        // Both members terminal: the batch is not running anymore.
        assert!(table.running().is_empty());
        assert_eq!(table.next_batch(), 1);
        assert_eq!(table.check(), Ok(()));
    }

    #[test]
    fn apply_keeps_running_batches_with_live_members() {
        let mut recs = sample_records();
        recs.truncate(6); // through the Checkpoint record
        let table = replayed(recs);
        assert_eq!(table.job(JobId(0)).unwrap().state, JobState::Running);
        let rb = &table.running()[&BatchId(0)];
        assert_eq!(rb.jobs, vec![JobId(0), JobId(1)]);
        let cp = rb.checkpoint.as_ref().unwrap();
        assert_eq!((cp.seq, cp.done_steps), (0, 10));
        assert_eq!(cp.jobs, vec![JobId(0), JobId(1)]);
        assert_eq!(cp.state, vec![1, 2, 3, 4]);
    }

    #[test]
    fn cache_hit_roundtrips_and_is_born_done() {
        let rec = sample_cache_hit();
        assert_eq!(JournalRecord::decode(&rec.encode()).unwrap(), rec);
        let mut table = JobTable::default();
        assert_eq!(table.apply(rec, Some(CgyroInput::test_small())), Ok(()));
        let j = table.job(JobId(7)).unwrap();
        assert_eq!(j.state, JobState::Done);
        assert_eq!(j.summary, Some((20, 0xfeed_beef, [5, 6, 7, 8])));
        assert_eq!(j.batch, None, "a cache hit never occupied a batch");
        assert_eq!(j.detail, "served from artifact cache");
        assert_eq!((table.live(), table.tenants()["alice"].cache_hits), (0, 1));
    }

    #[test]
    fn every_id_a_record_names_is_never_issued_again() {
        let mut table = JobTable::default();
        // Orphans all: none applies, every one raises the watermarks.
        assert_eq!(table.apply(JournalRecord::Batched { job: JobId(4), batch: BatchId(9) }, None), Ok(()));
        let done = JournalRecord::Done { job: JobId(11), steps: 1, h_hash: 0, diag_bits: [0; 4] };
        assert_eq!(table.apply(done, None), Err(Ignored::Illegal));
        let running = JournalRecord::Running { batch: BatchId(12), jobs: vec![JobId(2)] };
        assert_eq!(table.apply(running, None), Err(Ignored::Illegal));
        assert_eq!((table.next_job_id(), table.next_batch()), (JobId(12), 13));
        assert_eq!(
            table.watermark(),
            Some(JournalRecord::Batched { job: JobId(11), batch: BatchId(12) })
        );
        assert_eq!(table.jobs().count(), 0);
    }

    /// What a client (or a restart) can ask the table: every job's status
    /// and summary, the token bindings, what would resume, and the ids the
    /// next admission and batch would get (`watermark` spends `batch-0`
    /// when no batch was ever formed).
    fn answers(t: &JobTable) -> String {
        let jobs: Vec<_> = t.jobs().map(|j| (j.status(), j.summary)).collect();
        let ids = (t.next_job_id(), t.next_batch().max(1));
        format!("{jobs:?}\n{:?}\n{:?}\n{ids:?}", t.tokens, t.running)
    }

    /// The record the live server would build for move `op` (with `pick`
    /// choosing among the jobs or batches the move applies to), given only
    /// what it can see in its table; `None` when the move has no subject.
    fn live_move(t: &JobTable, op: u8, pick: u64) -> Option<JournalRecord> {
        let nth = |state: JobState| {
            let of: Vec<&Job> = t.jobs().filter(|j| j.state == state).collect();
            (!of.is_empty()).then(|| of[pick as usize % of.len()])
        };
        let job = t.next_job_id();
        // Four tokens in all, so a token freed by eviction gets rebound.
        let token = Some(format!("tok-{}", pick % 4)).filter(|tok| t.token(tok).is_none());
        let (token, deck, tag) = (token.unwrap_or_default(), "DECK".to_string(), String::new());
        let tenant = ["a", "b"][pick as usize / 4 % 2].to_string();
        let (deck_hash, steps, submitted_unix_us) = (0, 10, 0);
        Some(match op {
            0 | 1 => JournalRecord::Submitted {
                job, token, deck_hash, deck, steps, tag, submitted_unix_us, tenant,
            },
            2 => JournalRecord::CacheHit {
                job, token, deck_hash, deck, steps, tag, submitted_unix_us, tenant,
                steps_done: steps, h_hash: pick, diag_bits: [pick; 4],
            },
            // Place a queued job: join the newest batch while it is still
            // forming (under 3 members, not dispatched), else open one.
            3 => {
                let newest = BatchId(t.next_batch().saturating_sub(1));
                let forming: Vec<&Job> = t.jobs().filter(|j| j.batch == Some(newest)).collect();
                let joinable = forming.iter().all(|j| j.state == JobState::Batched)
                    && (1..3).contains(&forming.len());
                let batch = if joinable { newest } else { BatchId(t.next_batch()) };
                JournalRecord::Batched { job: nth(JobState::Queued)?.id, batch }
            }
            // What a restart does with a waiting job: regroup it.
            4 => JournalRecord::Batched {
                job: nth(JobState::Batched)?.id,
                batch: BatchId(t.next_batch()),
            },
            5 => {
                let batch = nth(JobState::Batched)?.batch?;
                let members = t.jobs().filter(|j| j.batch == Some(batch));
                JournalRecord::Running { batch, jobs: members.map(|j| j.id).collect() }
            }
            6 => {
                let (batch, rb) = t.running().iter().nth(pick as usize % t.running().len().max(1))?;
                let alive = |j: &&JobId| t.job(**j).is_some_and(|j| !j.state.is_terminal());
                JournalRecord::Checkpoint {
                    batch: *batch,
                    jobs: rb.jobs.iter().filter(alive).copied().collect(),
                    seq: rb.checkpoint.as_ref().map_or(0, |cp| cp.seq + 1),
                    done_steps: 10,
                    state: vec![pick as u8; 8],
                }
            }
            7 | 8 => JournalRecord::Done {
                job: nth(JobState::Running)?.id,
                steps,
                h_hash: pick,
                diag_bits: [pick; 4],
            },
            9 => JournalRecord::Failed { job: nth(JobState::Running)?.id, detail: "evicted".into() },
            _ => {
                let doomed = nth(JobState::Batched).or(nth(JobState::Running))?;
                JournalRecord::Cancelled { job: doomed.id, detail: "cancelled".into() }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Compaction is invisible. Drive the table the way the live server
        /// does (every move legal, the retention window swept after each),
        /// compact the log at an arbitrary point, keep going: a restart
        /// over the compacted log answers exactly what the live table
        /// answers — same jobs, states, summaries, tokens, resumable
        /// batches and next ids — whatever the window evicted.
        #[test]
        fn a_compacted_log_replays_to_the_same_answers(
            moves in prop::collection::vec((0u8..11, 0u64..), 0..80),
            retain in 0usize..6,
            cut in 0usize..80,
        ) {
            let mut live = JobTable::default();
            let mut log: Vec<JournalRecord> = Vec::new();
            for (n, (op, pick)) in moves.into_iter().enumerate() {
                if n == cut {
                    log.retain(|r| live.retains(r));
                    log.splice(0..0, live.watermark());
                }
                let Some(rec) = live_move(&live, op, pick) else { continue };
                log.push(rec.clone());
                prop_assert_eq!(live.apply(rec, Some(CgyroInput::test_small())), Ok(()));
                live.evict(retain, Duration::MAX, Instant::now());
                prop_assert_eq!(live.check(), Ok(()));
            }
            let mut restarted = replayed(log);
            restarted.evict(retain, Duration::MAX, Instant::now());
            prop_assert_eq!(answers(&restarted), answers(&live));
        }
    }
}
