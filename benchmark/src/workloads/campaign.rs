//! `campaign_burst` and `campaign_open`: campaigns served by an in-process
//! `CampaignServer` configured the way `xgqueued --journal --artifacts` runs
//! it. The load generator is this thread (submitter) plus one completion
//! collector; every other thread is the program's own.

use super::ensemble::bitwise_mismatches;
use crate::gen::{self, Rng, Sweep};
use crate::metrics::Outcome;
use crate::span::{Recorder, SpanId};
use crate::stats::median;
use crate::timed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};
use xg_serve::{
    ArtifactConfig, CampaignServer, JobEvent, JobId, JobSpec, JobState, JournalConfig, ServerConfig,
};
use xg_sim::CgyroInput;
use xgyro_core::{run_xgyro, EnsembleConfig, RunOutcome, SimResult};

/// Steps per job: four segments at the daemon's default `ckpt_every = 10`.
pub const STEPS: usize = 40;
pub const BURST_JOBS: usize = 150;
pub const BURST_KEYS: usize = 3;
/// Served batches run again directly, per rep: the baseline, and the
/// results the served ones are compared with.
pub const SAMPLE: usize = 12;
/// Restarts timed per rep; `setup_s` is their median.
const RESTARTS: usize = 5;
/// Rounds of re-submitting every burst deck to the restarted server.
const REPEAT_ROUNDS: usize = 10;
/// How often the collector looks at its subscriptions. Latencies are a
/// hundred milliseconds and up, so this costs under half a percent.
const POLL: Duration = Duration::from_micros(250);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// A scratch directory inside the benchmark's own `out/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> Self {
        let dir = crate::out_dir()
            .join("work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `xgqueued --journal --artifacts` runs, with room for a whole burst.
pub fn server_config(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::local_test();
    cfg.journal = Some(JournalConfig::durable(dir.join("journal")));
    cfg.artifacts = Some(ArtifactConfig::at(dir.join("store")));
    cfg.queue_capacity = BURST_JOBS;
    cfg
}

/// One submission of a schedule.
pub struct Arrival {
    /// When it is due, from the start of the schedule; `None` in a closed
    /// loop, where it is due as soon as the previous one is acknowledged.
    pub due: Option<Duration>,
    pub spec: JobSpec,
    /// Position of the arrival that first sent this deck, when this is a
    /// re-submission: if that job had finished, this one must be a hit.
    pub repeat_of: Option<usize>,
}

/// What the generator saw of one submission.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// `None` when the server refused the submission.
    pub id: Option<JobId>,
    pub repeat_of: Option<usize>,
    pub due: Instant,
    pub submitted: Instant,
    pub acked: Instant,
    pub running: Option<Instant>,
    pub done: Option<Instant>,
    pub state: Option<JobState>,
    /// Already terminal when the acknowledgement came back: a cache hit.
    pub born_terminal: bool,
}

impl JobRecord {
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1000.0)
    }

    pub fn late_ms(&self) -> f64 {
        self.submitted
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1000.0
    }

    pub fn ack_us(&self) -> f64 {
        (self.acked - self.submitted).as_secs_f64() * 1e6
    }
}

struct Pending {
    index: usize,
    events: Receiver<JobEvent>,
    seen_any: bool,
}

/// The completion collector: stamps each lifecycle event of each job with
/// the time it was observed.
fn collect(
    incoming: Receiver<(usize, JobRecord, Receiver<JobEvent>)>,
    spans: Option<(&Recorder, SpanId)>,
) -> Vec<(usize, JobRecord)> {
    let mut pending: Vec<Pending> = Vec::new();
    let mut records: BTreeMap<usize, JobRecord> = BTreeMap::new();
    let mut open = true;
    while open || !pending.is_empty() {
        loop {
            match incoming.try_recv() {
                Ok((index, record, events)) => {
                    records.insert(index, record);
                    pending.push(Pending {
                        index,
                        events,
                        seen_any: false,
                    });
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        pending.retain_mut(|p| {
            let rec = records
                .get_mut(&p.index)
                .expect("record arrived with its subscription");
            loop {
                match p.events.try_recv() {
                    Ok(ev) => {
                        let now = Instant::now();
                        rec.state = Some(ev.state);
                        if ev.state == JobState::Running && rec.running.is_none() {
                            rec.running = Some(now);
                        }
                        if ev.state.is_terminal() {
                            // The first event is the snapshot taken at
                            // subscription: a job terminal by then was
                            // finished when its submit returned.
                            rec.born_terminal = !p.seen_any;
                            rec.done = Some(if p.seen_any { now } else { rec.acked });
                            return false;
                        }
                        p.seen_any = true;
                    }
                    Err(TryRecvError::Empty) => return true,
                    // Hung up without a terminal event: the job is lost.
                    Err(TryRecvError::Disconnected) => return false,
                }
            }
        });
        std::thread::sleep(POLL);
    }
    if let Some((rec, parent)) = spans {
        for (index, r) in &records {
            record_job_spans(rec, parent, *index as u64, r);
        }
    }
    records.into_iter().collect()
}

/// One job as spans: the job, and under it submit, queue wait and execution.
fn record_job_spans(rec: &Recorder, parent: SpanId, group: u64, r: &JobRecord) {
    let end = r.done.unwrap_or(r.acked);
    let job = rec.record("serve.job", Some(parent), group, r.submitted, end);
    rec.record("serve.submit", Some(job), group, r.submitted, r.acked);
    if let (Some(running), Some(done)) = (r.running, r.done) {
        rec.record("serve.queue_wait", Some(job), group, r.acked, running);
        rec.record("serve.exec", Some(job), group, running, done);
    }
}

/// Submit `arrivals` on their schedule and collect every job's lifecycle.
/// Returns the records in arrival order.
pub fn drive(
    server: &CampaignServer,
    arrivals: &[Arrival],
    spans: Option<(&Recorder, SpanId)>,
) -> Vec<JobRecord> {
    let start = Instant::now();
    let mut refused: Vec<(usize, JobRecord)> = Vec::new();
    let mut collected = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let collector = scope.spawn(move || collect(rx, spans));
        for (index, a) in arrivals.iter().enumerate() {
            let spec = a.spec.clone();
            if let Some(due) = a.due {
                std::thread::sleep((start + due).saturating_duration_since(Instant::now()));
            }
            let submitted = Instant::now();
            let answer = server.submit(spec);
            let acked = Instant::now();
            let mut record = JobRecord {
                id: None,
                repeat_of: a.repeat_of,
                due: a.due.map_or(submitted, |d| start + d),
                submitted,
                acked,
                running: None,
                done: None,
                state: None,
                born_terminal: false,
            };
            match answer
                .ok()
                .and_then(|id| server.subscribe(id).map(|events| (id, events)))
            {
                Some((id, events)) => {
                    record.id = Some(id);
                    tx.send((index, record, events))
                        .expect("collector outlives the submitter");
                }
                None => refused.push((index, record)),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    collected.append(&mut refused);
    collected.sort_by_key(|(index, _)| *index);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// A served batch: the jobs the server ran as one ensemble, in member order.
pub type Batch = Vec<(JobId, CgyroInput)>;

/// Run each of `batches` directly, one after another, as the ensemble the
/// worker ran — the same work without the service — and compare every
/// member bitwise with what the server handed back. Returns the wall of the
/// direct runs, the members compared and the mismatches.
///
/// That a member of an ensemble equals its standalone run is what the
/// `ensemble_*` workloads check; this checks that serving (segments,
/// checkpoints, journal, store) changed nothing on top of it.
fn check_batches(
    server: &CampaignServer,
    grid: xg_tensor::ProcGrid,
    batches: &[&Batch],
) -> (f64, u64, u64) {
    let (mut wall, mut compared, mut failed) = (0.0, 0, 0);
    for batch in batches {
        let decks = batch.iter().map(|(_, deck)| deck.clone()).collect();
        let cfg = EnsembleConfig::new(decks, grid).expect("a served batch is an ensemble");
        let t = Instant::now();
        let direct = run_xgyro(&cfg, STEPS);
        wall += t.elapsed().as_secs_f64();
        let served: Option<Vec<SimResult>> = batch
            .iter()
            .map(|(id, _)| {
                server.result(*id).map(|o| SimResult {
                    sim: 0,
                    h: o.h,
                    diagnostics: o.diagnostics,
                    cmat_bytes_per_rank: Vec::new(),
                })
            })
            .collect();
        compared += batch.len() as u64;
        failed += served.map_or(batch.len() as u64, |sims| {
            bitwise_mismatches(
                &RunOutcome {
                    sims,
                    traces: Vec::new(),
                },
                &direct,
            )
        });
    }
    (wall, compared, failed)
}

/// Bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `n` distinct positions below `len`, seeded.
fn sample_indices(len: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < n.min(len) {
        let i = rng.below(len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Jobs that did not end `Done`, submissions refused, and missed hits: a deck
/// re-submitted after its first sending had finished, yet executed again.
fn lifecycle_failures(records: &[JobRecord]) -> u64 {
    let missed_hit = |r: &JobRecord| {
        let first_done = r.repeat_of.and_then(|first| records[first].done);
        !r.born_terminal && first_done.is_some_and(|done| done <= r.submitted)
    };
    records
        .iter()
        .filter(|r| r.state != Some(JobState::Done) || missed_hit(r))
        .count() as u64
}

/// Start a server over `dir` (replaying whatever the last life left there)
/// and time it until it answers for `last`, which must be terminal.
fn timed_restart(dir: &Path, last: JobId) -> (CampaignServer, f64, bool) {
    let t = Instant::now();
    let server = CampaignServer::start(server_config(dir));
    let terminal = server.status(last).is_some_and(|s| s.state.is_terminal());
    (server, t.elapsed().as_secs_f64(), terminal)
}

/// A job's result as the server summarises it: steps, hash of the final
/// distribution, bits of the four diagnostics.
type Summary = Option<(u64, u64, [u64; 4])>;

/// Send a finished deck again. Returns the acknowledgement time and whether
/// it came back `Done` at once with the summary of its first sending.
fn resubmit(server: &CampaignServer, arrival: &Arrival, first: &Summary) -> (f64, bool) {
    let spec = arrival.spec.clone();
    let (answer, ack_s) = timed(|| server.submit(spec));
    let hit = answer.ok().is_some_and(|id| {
        server.status(id).is_some_and(|s| s.state == JobState::Done)
            && first.is_some()
            && server.result_summary(id) == *first
    });
    (ack_s * 1e6, hit)
}

/// Everything one served campaign produced.
pub struct Rep {
    pub records: Vec<JobRecord>,
    pub makespan_s: f64,
    pub baseline_s: f64,
    pub restarts_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The batches the executed jobs ran in, by batch id.
    pub batches: BTreeMap<u64, Batch>,
    /// Wall of the repeat pass, when one was asked for.
    pub repeat_pass_s: Option<f64>,
    /// Acknowledgement time of every re-submission of the repeat pass, and
    /// how many of them were not served from the cache.
    pub repeat_ack_us: Vec<f64>,
    pub repeat_misses: u64,
    /// Size of the journal directory when the campaign had drained.
    pub journal_bytes: u64,
}

/// Which extras a rep runs beyond the end-to-end windows.
#[derive(Clone, Copy, Default)]
pub struct Extras<'a> {
    pub spans: Option<&'a Recorder>,
    /// Re-submit every deck `REPEAT_ROUNDS` times to the restarted server.
    pub repeat_pass: bool,
}

/// One whole campaign: serve `arrivals`, drain, check, shut down, restart.
pub fn serve_campaign(label: &str, arrivals: &[Arrival], seed: u64, extras: Extras) -> Rep {
    let work = WorkDir::new(label);
    let rec = extras.spans;
    let top = |name: &str| rec.map(|r| r.open(name, None, 0));
    let close = |id: Option<SpanId>| {
        if let (Some(r), Some(id)) = (rec, id) {
            r.close(id)
        }
    };

    let span = top("serve.start");
    let cfg = server_config(work.path());
    let grid = cfg.grid;
    let server = CampaignServer::start(cfg);
    close(span);

    let span = top("serve.load");
    let t0 = Instant::now();
    let records = drive(&server, arrivals, rec.zip(span));
    let drained = server.drain(DRAIN_TIMEOUT);
    let end = Instant::now();
    close(span);
    let first_due = records.iter().map(|r| r.due).min().unwrap_or(t0);
    let makespan_s = end.saturating_duration_since(first_due).as_secs_f64();

    // Outside the timed windows: every job Done, every repeat answered with
    // the original's summary, and a seeded sample of batches bitwise equal to
    // the same ensembles run directly.
    let span = top("check");
    let mut failed = lifecycle_failures(&records) + u64::from(!drained);
    let mut attempted = records.len() as u64;
    let summary_of: Vec<Summary> = records
        .iter()
        .map(|r| r.id.and_then(|id| server.result_summary(id)))
        .collect();
    let mut batches: BTreeMap<u64, Batch> = BTreeMap::new();
    for (i, (r, a)) in records.iter().zip(arrivals).enumerate() {
        let Some(id) = r.id else { continue };
        if let Some(first) = r.repeat_of {
            attempted += 1;
            failed += u64::from(summary_of[i].is_none() || summary_of[i] != summary_of[first]);
        } else if let Some(b) = server.status(id).and_then(|s| s.batch) {
            batches
                .entry(b.0)
                .or_default()
                .push((id, a.spec.input.clone()));
        }
    }
    let all: Vec<&Batch> = batches.values().collect();
    let mut rng = Rng::new(seed ^ 0x5a5a);
    let sample: Vec<&Batch> = sample_indices(all.len(), SAMPLE, &mut rng)
        .into_iter()
        .map(|i| all[i])
        .collect();
    let (baseline_s, compared, mismatches) = check_batches(&server, grid, &sample);
    attempted += compared;
    failed += mismatches;
    let sampled_ids: Vec<JobId> = sample
        .iter()
        .flat_map(|b| b.iter().map(|(id, _)| *id))
        .collect();
    let summaries: Vec<Summary> = sampled_ids
        .iter()
        .map(|id| server.result_summary(*id))
        .collect();
    close(span);

    let span = top("serve.shutdown");
    server.shutdown();
    close(span);
    let journal_bytes = dir_bytes(&work.path().join("journal"));

    // Restart over the same journal and store, several times. The first
    // restarted server also takes the repeat pass.
    let last = records
        .iter()
        .filter_map(|r| r.id)
        .max()
        .expect("a campaign submits at least one job");
    let (mut restarts_s, mut repeat_pass_s, mut repeat_ack_us) = (Vec::new(), None, Vec::new());
    let mut repeat_misses = 0;
    for n in 0..RESTARTS {
        let span = top("serve.restart");
        let (server, secs, terminal) = timed_restart(work.path(), last);
        close(span);
        restarts_s.push(secs);
        attempted += 1;
        // Journal compaction forgets terminal jobs of closed segments, so a
        // sampled job may be gone after the restart; one that is still
        // known must answer with the summary it had before.
        let kept = sampled_ids
            .iter()
            .zip(&summaries)
            .all(|(id, s)| server.status(*id).is_none() || server.result_summary(*id) == *s);
        failed += u64::from(!terminal || !kept);
        if n == 0 && extras.repeat_pass {
            let span = top("serve.repeat_pass");
            let t = Instant::now();
            for _ in 0..REPEAT_ROUNDS {
                let first_sendings = arrivals.iter().zip(&summary_of);
                for (a, first) in first_sendings.filter(|(a, _)| a.repeat_of.is_none()) {
                    let (ack_us, hit) = resubmit(&server, a, first);
                    repeat_ack_us.push(ack_us);
                    repeat_misses += u64::from(!hit);
                }
            }
            repeat_pass_s = Some(t.elapsed().as_secs_f64());
            close(span);
            attempted += repeat_ack_us.len() as u64;
            failed += repeat_misses;
        }
        let span = top("serve.shutdown");
        server.shutdown();
        close(span);
    }

    Rep {
        records,
        makespan_s,
        baseline_s,
        restarts_s,
        attempted,
        failed,
        batches,
        repeat_pass_s,
        repeat_ack_us,
        repeat_misses,
        journal_bytes,
    }
}

pub fn burst_arrivals(n: usize, seed: u64) -> Vec<Arrival> {
    gen::burst_jobs(n, BURST_KEYS, seed)
        .into_iter()
        .map(|deck| Arrival {
            due: None,
            spec: JobSpec::new(deck, STEPS),
            repeat_of: None,
        })
        .collect()
}

pub fn open_arrivals(sweeps: &[Sweep]) -> Vec<Arrival> {
    sweeps
        .iter()
        .flat_map(|s| {
            s.decks.iter().enumerate().map(|(j, deck)| Arrival {
                due: Some(s.due),
                spec: JobSpec::new(deck.clone(), STEPS).with_tenant(s.tenant),
                repeat_of: s.repeat_of.map(|first| first * gen::SWEEP_JOBS + j),
            })
        })
        .collect()
}

/// Sweeps that fill `budget` at the schedule's mean gap.
pub fn open_sweeps_for(budget: Duration) -> usize {
    ((budget.as_secs_f64() * 1000.0 / gen::SWEEP_GAP_MS).ceil() as usize).max(1)
}

/// Latencies of the jobs that were executed (not served from the cache).
pub fn miss_latencies_ms(records: &[JobRecord]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| !r.born_terminal)
        .filter_map(JobRecord::latency_ms)
        .collect()
}

/// The end-to-end metrics of a campaign from its reps: medians over reps,
/// the latency median over the pooled misses.
fn campaign_outcome(reps: &[Rep]) -> Outcome {
    let mut out = Outcome::default();
    let restarts: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.restarts_s.iter().copied())
        .collect();
    let makespans: Vec<f64> = reps.iter().map(|r| r.makespan_s).collect();
    let baselines: Vec<f64> = reps.iter().map(|r| r.baseline_s).collect();
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| miss_latencies_ms(&r.records))
        .collect();
    out.attempted = reps.iter().map(|r| r.attempted).sum();
    out.failed = reps.iter().map(|r| r.failed).sum();
    out.push("setup_s", median(&restarts), restarts.len());
    out.push("makespan_s", median(&makespans), makespans.len());
    out.push("baseline_wall_s", median(&baselines), baselines.len());
    if latencies.is_empty() {
        out.failed += 1;
    } else {
        out.push("job_latency_p50_ms", median(&latencies), latencies.len());
    }
    out
}

/// A few batches through a throw-away server, so the timed reps start with
/// warm code, a warm allocator and a created `out/` tree.
fn warm_up(seed: u64) {
    serve_campaign(
        "warmup",
        &burst_arrivals(SAMPLE, seed ^ 0xa11c),
        seed,
        Extras::default(),
    );
}

pub fn burst_end_to_end(seed: u64, budget: Duration) -> Outcome {
    warm_up(seed);
    let arrivals = burst_arrivals(BURST_JOBS, seed);
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.is_empty() || started.elapsed() < budget {
        reps.push(serve_campaign("burst", &arrivals, seed, Extras::default()));
    }
    campaign_outcome(&reps)
}

pub fn open_end_to_end(seed: u64, budget: Duration) -> Outcome {
    warm_up(seed);
    let sweeps = gen::open_schedule(open_sweeps_for(budget), seed);
    let rep = serve_campaign("open", &open_arrivals(&sweeps), seed, Extras::default());
    campaign_outcome(&[rep])
}
