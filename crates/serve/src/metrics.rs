//! Campaign metrics: a typed [`Metrics`] snapshot in process, Prometheus
//! text on the wire.
//!
//! The headline series is `cmat_saved_bytes`: for every dispatched batch of
//! size `k` the service stores one constant tensor instead of `k`, saving
//! `(k − 1) ×` the tensor ([`xg_costmodel::memory::cmat_saved_bytes`] — the
//! same law `xgplan` forecasts with, so the serving metrics and the
//! planning forecasts can never drift apart). The occupancy histogram shows
//! how close the batcher gets to the ideal of always-full batches; queue
//! latency shows what that packing costs in waiting; the execution-phase
//! breakdown (fed from batch traces) shows where the dispatched ensembles
//! spent their communication time and how many bytes each phase moved.
//!
//! Every counter is exported once, as an `xgserve_*` family
//! ([`Metrics::to_prometheus`]); the daemon's `METRICS` verb follows it
//! with the process-wide `xgyro_*` families, which own the world-spawn and
//! cmat-build counts. Ratios are left to the reader of the samples: the
//! savings ratio is `xgserve_cmat_saved_bytes_total /
//! xgserve_cmat_unbatched_bytes_total`, the mean queue latency is
//! `_sum / _count`, the cache hit rate is `hits / (hits + misses)` — each
//! undefined (not 0) while its denominator is 0.
//!
//! Latency is recorded in **microseconds** (sub-millisecond dispatches are
//! the common case under test configs; millisecond recording rounded them
//! all to zero) and exported in seconds.

use crate::admission::AdmitError;
use crate::batcher::FlushReason;
use crate::job::JobState;
use crate::journal::JournalStats;
use crate::server::RecoveryReport;
use crate::tenant::TenantUsage;
use std::collections::BTreeMap;
use xg_comm::OpRecord;
use xg_tensor::SimDims;

/// Per-tenant counter family. Lifecycle counters accumulate forever;
/// `live_jobs`/`live_bytes` are gauges refreshed from the server's usage
/// ledger at export time (the same numbers admission checks quotas
/// against).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Accepted submissions (cache hits included — they are accepted).
    pub submitted: u64,
    /// Jobs that terminalized `Done`.
    pub done: u64,
    /// Jobs that terminalized `Failed`.
    pub failed: u64,
    /// Jobs that terminalized `Cancelled`.
    pub cancelled: u64,
    /// Simulation steps completed on behalf of this tenant (`Done` jobs'
    /// step counts) — the work unit fair share is measured in.
    pub work_done: u64,
    /// Submissions served straight from the artifact cache.
    pub cache_hits: u64,
    /// Live (non-terminal) jobs right now.
    pub live_jobs: u64,
    /// Live journaled deck bytes right now.
    pub live_bytes: u64,
}

impl TenantCounters {
    /// Record a terminal transition. `work` is the completed step count for
    /// `Done` jobs and 0 otherwise.
    pub fn on_terminal(&mut self, state: JobState, work: u64) {
        match state {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Cancelled => self.cancelled += 1,
            _ => {}
        }
        self.work_done = self.work_done.saturating_add(work);
    }
}

/// Counter registry. The server updates it under its state lock; a
/// snapshot ([`crate::CampaignServer::metrics`]) fills in the journal,
/// scheduler and per-tenant figures the server owns elsewhere.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total accepted submissions.
    pub submitted: u64,
    /// Rejections by [`AdmitError::kind`].
    pub rejected: BTreeMap<&'static str, u64>,
    /// Dispatched-batch occupancy histogram: batch size k → batches.
    pub occupancy: BTreeMap<usize, u64>,
    /// Flush triggers by [`FlushReason`] label.
    pub flushes: BTreeMap<String, u64>,
    /// Total constant-tensor bytes NOT allocated thanks to batching,
    /// summed over dispatched batches.
    pub cmat_saved_bytes: u64,
    /// What the same jobs would have allocated unbatched (k copies per
    /// batch) — the denominator for the savings ratio.
    pub cmat_unbatched_bytes: u64,
    /// Queue-latency (admission → dispatch) observations.
    pub latency_count: u64,
    /// Sum of observed latencies (µs).
    pub latency_sum_us: u64,
    /// Execution-phase breakdown accumulated from dispatched batches'
    /// traces: phase → (ops, bytes, wait µs). Wait stays 0 when the daemon
    /// runs with `XGYRO_OBS=0`.
    pub exec_phases: BTreeMap<String, (u64, u64, u64)>,
    /// The journal's own counters (all 0 when running journal-less).
    pub journal: JournalStats,
    /// What startup journal replay reconstructed (set once, at start).
    pub recovery: RecoveryReport,
    /// Submissions served straight to `Done` from the artifact store.
    pub cache_hits: u64,
    /// Store consults that found no published manifest (only counted when
    /// a store is configured; all cache counters stay 0 cache-less).
    pub cache_misses: u64,
    /// Outcome-blob bytes served from the store instead of recomputed —
    /// the cache's analogue of `cmat_saved_bytes`.
    pub cache_bytes_saved: u64,
    /// Per-tenant counter families, keyed by resolved tenant name
    /// (refreshed at export from the job table, which owns them).
    pub tenants: BTreeMap<String, TenantCounters>,
    /// Ensemble worlds executing right now.
    pub worlds_active: u64,
    /// High-water mark of concurrently executing worlds — ≥ 2 is the
    /// observable signature of concurrent (non-serial) execution.
    pub worlds_peak: u64,
    /// Terminal jobs evicted by the bounded retention window.
    pub terminal_evicted: u64,
}

/// `# HELP` and `# TYPE` lines opening one exposition family.
fn head(s: &mut String, name: &str, kind: &str, help: &str) {
    s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

impl Metrics {
    /// Record an accepted submission.
    pub fn on_submit(&mut self) {
        self.submitted += 1;
    }

    /// Record a rejection.
    pub fn on_reject(&mut self, err: &AdmitError) {
        *self.rejected.entry(err.kind()).or_insert(0) += 1;
    }

    /// Record a dispatched batch of `k` members sharing one tensor of
    /// `dims`, flushed for `reason`.
    pub fn on_dispatch(&mut self, k: usize, dims: SimDims, reason: FlushReason) {
        *self.occupancy.entry(k).or_insert(0) += 1;
        *self.flushes.entry(reason.to_string()).or_insert(0) += 1;
        self.cmat_saved_bytes += xg_costmodel::cmat_saved_bytes(k, dims);
        self.cmat_unbatched_bytes += k as u64 * xg_costmodel::cmat_total_bytes(dims);
    }

    /// Record one job's queue latency at dispatch, in microseconds.
    pub fn on_queue_latency_us(&mut self, us: u64) {
        self.latency_count += 1;
        self.latency_sum_us += us;
    }

    /// Record a submission served from the artifact store (`bytes` is the
    /// stored outcome blob's size — work not recomputed).
    pub fn on_cache_hit(&mut self, bytes: u64) {
        self.cache_hits += 1;
        self.cache_bytes_saved += bytes;
    }

    /// Record a store consult that found nothing.
    pub fn on_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// A world started executing (a worker popped its batch).
    pub fn on_world_start(&mut self) {
        self.worlds_active += 1;
        self.worlds_peak = self.worlds_peak.max(self.worlds_active);
    }

    /// A world stopped executing (completed, failed, or cancelled).
    pub fn on_world_end(&mut self) {
        self.worlds_active = self.worlds_active.saturating_sub(1);
    }

    /// Record `n` terminal jobs evicted by the retention window.
    pub fn on_terminal_evicted(&mut self, n: u64) {
        self.terminal_evicted += n;
    }

    /// Refresh the per-tenant live gauges from the server's usage ledger
    /// (called at export time under the state lock). Tenants absent from
    /// the ledger have no live work — their gauges drop to zero while
    /// their lifetime counters stay.
    pub fn set_tenant_usage(&mut self, usage: &BTreeMap<String, TenantUsage>) {
        for t in self.tenants.values_mut() {
            t.live_jobs = 0;
            t.live_bytes = 0;
        }
        for (name, u) in usage {
            let t = self.tenants.entry(name.clone()).or_default();
            t.live_jobs = u.live_jobs as u64;
            t.live_bytes = u.live_bytes;
        }
    }

    /// Fold a batch run's drained per-rank traces into the phase breakdown.
    pub fn on_batch_traces(&mut self, traces: &[Vec<OpRecord>]) {
        for trace in traces {
            for r in trace {
                let e = self.exec_phases.entry(r.phase.clone()).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += r.bytes;
                e.2 += r.elapsed_us;
            }
        }
    }

    /// Prometheus text exposition (`xgserve_*` families), folding in a
    /// snapshot of live job states (`(state, count)` for every
    /// [`JobState`]).
    pub fn to_prometheus(&self, jobs_by_state: &[(JobState, usize)]) -> String {
        let mut s = String::with_capacity(4096);
        head(&mut s, "xgserve_submitted_total", "counter", "Accepted submissions.");
        s.push_str(&format!("xgserve_submitted_total {}\n", self.submitted));
        head(&mut s, "xgserve_jobs", "gauge", "Jobs currently in each lifecycle state.");
        for (state, n) in jobs_by_state {
            s.push_str(&format!("xgserve_jobs{{state=\"{state}\"}} {n}\n"));
        }
        head(&mut s, "xgserve_rejected_total", "counter", "Rejections by admission error kind.");
        for (kind, n) in &self.rejected {
            s.push_str(&format!("xgserve_rejected_total{{kind=\"{kind}\"}} {n}\n"));
        }
        head(&mut s, "xgserve_batches_total", "counter", "Dispatched batches by occupancy.");
        for (k, n) in &self.occupancy {
            s.push_str(&format!("xgserve_batches_total{{k=\"{k}\"}} {n}\n"));
        }
        head(&mut s, "xgserve_flushes_total", "counter", "Batch flushes by trigger.");
        for (reason, n) in &self.flushes {
            s.push_str(&format!("xgserve_flushes_total{{reason=\"{reason}\"}} {n}\n"));
        }
        for (name, help, v) in [
            (
                "xgserve_cmat_saved_bytes_total",
                "Constant-tensor bytes elided by batching.",
                self.cmat_saved_bytes,
            ),
            (
                "xgserve_cmat_unbatched_bytes_total",
                "What the same jobs would have allocated unbatched.",
                self.cmat_unbatched_bytes,
            ),
        ] {
            head(&mut s, name, "counter", help);
            s.push_str(&format!("{name} {v}\n"));
        }
        head(&mut s, "xgserve_queue_latency_seconds", "summary", "Admission-to-dispatch wait.");
        s.push_str(&format!("xgserve_queue_latency_seconds_count {}\n", self.latency_count));
        s.push_str(&format!(
            "xgserve_queue_latency_seconds_sum {}\n",
            self.latency_sum_us as f64 / 1e6
        ));
        for (name, help, get) in [
            (
                "xgserve_exec_phase_ops_total",
                "Collective operations per execution phase.",
                (|&(ops, _, _): &(u64, u64, u64)| ops.to_string()) as fn(&(u64, u64, u64)) -> String,
            ),
            (
                "xgserve_exec_phase_bytes_total",
                "Collective payload bytes per execution phase.",
                |&(_, bytes, _)| bytes.to_string(),
            ),
            (
                "xgserve_exec_phase_wait_seconds_total",
                "Communication wait per execution phase.",
                |&(_, _, us)| (us as f64 / 1e6).to_string(),
            ),
        ] {
            head(&mut s, name, "counter", help);
            for (phase, e) in &self.exec_phases {
                s.push_str(&format!("{name}{{phase=\"{phase}\"}} {}\n", get(e)));
            }
        }
        let (j, r) = (&self.journal, &self.recovery);
        for (name, help, v) in [
            ("xgserve_journal_appends_total", "Committed write-ahead journal appends.", j.appends),
            ("xgserve_journal_fsyncs_total", "fsync calls issued by the journal.", j.fsyncs),
            ("xgserve_journal_bytes_total", "Frame bytes written to the journal.", j.bytes_written),
            ("xgserve_journal_rotations_total", "Journal segment rotations.", j.rotations),
            (
                "xgserve_journal_compactions_total",
                "Compaction passes over closed journal segments.",
                j.compactions,
            ),
            ("xgserve_journal_dropped_total", "Journal appends that failed to commit.", j.dropped),
            (
                "xgserve_replay_records_total",
                "Journal records replayed at startup.",
                r.replayed_records,
            ),
            (
                "xgserve_replay_restored_jobs_total",
                "Jobs restored into the job table by startup replay.",
                r.restored_jobs,
            ),
            (
                "xgserve_replay_resumed_batches_total",
                "Running batches resumed from journaled checkpoints.",
                r.resumed_batches,
            ),
            (
                "xgserve_replay_readmitted_jobs_total",
                "Waiting jobs re-admitted through the grouper by replay.",
                r.readmitted_jobs,
            ),
            (
                "xgserve_replay_torn_bytes_total",
                "Torn-tail bytes truncated during startup replay.",
                r.torn_bytes,
            ),
            (
                "xgserve_replay_bytes_total",
                "Journal segment bytes read and checksummed by startup replay.",
                r.replay_bytes,
            ),
            (
                "xgserve_replay_checkpoint_files_loaded_total",
                "Checkpoint files verified and resumed from by startup replay.",
                r.checkpoint_files_loaded,
            ),
            (
                "xgserve_replay_checkpoint_orphans_removed_total",
                "Unretained checkpoint files and crash temp files deleted at startup.",
                r.checkpoint_orphans_removed,
            ),
            (
                "xgserve_cache_hits_total",
                "Submissions served from the artifact store.",
                self.cache_hits,
            ),
            (
                "xgserve_cache_misses_total",
                "Artifact-store consults that found no manifest.",
                self.cache_misses,
            ),
            (
                "xgserve_cache_bytes_saved_total",
                "Outcome bytes served from the artifact store instead of recomputed.",
                self.cache_bytes_saved,
            ),
        ] {
            head(&mut s, name, "counter", help);
            s.push_str(&format!("{name} {v}\n"));
        }
        for (name, help, us) in [
            (
                "xgserve_journal_fsync_seconds_total",
                "Wall time spent inside journal fsyncs.",
                j.fsync_us,
            ),
            (
                "xgserve_replay_seconds_total",
                "Wall time spent replaying the journal at startup.",
                r.replay_us,
            ),
        ] {
            head(&mut s, name, "counter", help);
            s.push_str(&format!("{name} {}\n", us as f64 / 1e6));
        }
        for (name, help, v) in [
            ("xgserve_worlds_active", "Ensemble worlds executing right now.", self.worlds_active),
            (
                "xgserve_worlds_peak",
                "High-water mark of concurrently executing worlds.",
                self.worlds_peak,
            ),
        ] {
            head(&mut s, name, "gauge", help);
            s.push_str(&format!("{name} {v}\n"));
        }
        let name = "xgserve_terminal_evicted_total";
        let help = "Terminal jobs evicted by the bounded retention window.";
        head(&mut s, name, "counter", help);
        s.push_str(&format!("{name} {}\n", self.terminal_evicted));
        if self.tenants.is_empty() {
            return s;
        }
        for (name, help, get, kind) in [
            (
                "xgserve_tenant_submitted_total",
                "Accepted submissions per tenant.",
                (|t: &TenantCounters| t.submitted) as fn(&TenantCounters) -> u64,
                "counter",
            ),
            ("xgserve_tenant_done_total", "Jobs completed per tenant.", |t| t.done, "counter"),
            ("xgserve_tenant_failed_total", "Jobs failed per tenant.", |t| t.failed, "counter"),
            (
                "xgserve_tenant_cancelled_total",
                "Jobs cancelled per tenant.",
                |t| t.cancelled,
                "counter",
            ),
            (
                "xgserve_tenant_work_done_total",
                "Simulation steps completed per tenant.",
                |t| t.work_done,
                "counter",
            ),
            (
                "xgserve_tenant_cache_hits_total",
                "Cache-served submissions per tenant.",
                |t| t.cache_hits,
                "counter",
            ),
            (
                "xgserve_tenant_live_jobs",
                "Live jobs per tenant (quota numerator).",
                |t| t.live_jobs,
                "gauge",
            ),
            (
                "xgserve_tenant_live_bytes",
                "Live deck bytes per tenant (quota numerator).",
                |t| t.live_bytes,
                "gauge",
            ),
        ] {
            head(&mut s, name, kind, help);
            for (tenant, t) in &self.tenants {
                s.push_str(&format!("{name}{{tenant=\"{tenant}\"}} {}\n", get(t)));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sim::CgyroInput;

    #[test]
    fn savings_track_the_costmodel_law() {
        let dims = CgyroInput::test_small().dims();
        let mut m = Metrics::default();
        m.on_dispatch(3, dims, FlushReason::Full);
        m.on_dispatch(2, dims, FlushReason::Linger);
        let one = xg_costmodel::cmat_total_bytes(dims);
        assert_eq!(m.cmat_saved_bytes, 2 * one + one);
        assert_eq!(m.cmat_unbatched_bytes, 5 * one);
        assert_eq!(m.occupancy[&3], 1);
        assert_eq!(m.occupancy[&2], 1);
        assert_eq!(m.flushes["full"], 1);
        assert_eq!(m.flushes["linger"], 1);
    }

    #[test]
    fn sub_millisecond_latencies_are_not_rounded_away() {
        // Regression: ms-granular recording turned three fast dispatches
        // into count=3, sum=0 — indistinguishable from broken timers.
        // Microsecond recording keeps them.
        let mut m = Metrics::default();
        for us in [150, 300, 450] {
            m.on_queue_latency_us(us);
        }
        assert_eq!(m.latency_sum_us, 900);
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_queue_latency_seconds_count 3\n"), "{text}");
        assert!(text.contains("xgserve_queue_latency_seconds_sum 0.0009\n"), "{text}");
    }

    #[test]
    fn exec_phase_breakdown_accumulates_traces() {
        use xg_comm::OpKind;
        let mut m = Metrics::default();
        let rec = |phase: &str, bytes, elapsed_us| OpRecord {
            op: OpKind::AllReduce,
            comm_label: "nv".into(),
            participants: 2,
            members: vec![0, 1],
            bytes,
            phase: phase.into(),
            elapsed_us,
        };
        m.on_batch_traces(&[
            vec![rec("str", 100, 30), rec("coll", 500, 70)],
            vec![rec("str", 100, 50)],
        ]);
        m.on_batch_traces(&[vec![rec("str", 100, 20)]]);
        assert_eq!(m.exec_phases["str"], (3, 300, 100));
        assert_eq!(m.exec_phases["coll"], (1, 500, 70));
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_exec_phase_ops_total{phase=\"str\"} 3\n"), "{text}");
        assert!(text.contains("xgserve_exec_phase_bytes_total{phase=\"str\"} 300\n"), "{text}");
        assert!(text.contains("xgserve_exec_phase_wait_seconds_total{phase=\"str\"} 0.0001\n"));
    }

    #[test]
    fn cache_counters_export_as_prometheus() {
        let mut m = Metrics::default();
        m.on_cache_miss();
        m.on_cache_hit(4096);
        m.on_cache_hit(4096);
        m.on_cache_miss();
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_cache_hits_total 2"), "{text}");
        assert!(text.contains("xgserve_cache_misses_total 2"), "{text}");
        assert!(text.contains("xgserve_cache_bytes_saved_total 8192"), "{text}");
    }

    #[test]
    fn tenant_families_export_as_prometheus() {
        let mut m = Metrics::default();
        let acme = m.tenants.entry("acme".into()).or_default();
        (acme.submitted, acme.cache_hits) = (2, 1);
        acme.on_terminal(JobState::Done, 200);
        let beta = m.tenants.entry("beta".into()).or_default();
        beta.submitted = 1;
        beta.on_terminal(JobState::Failed, 0);
        m.on_world_start();
        m.on_world_start();
        m.on_world_end();
        m.on_terminal_evicted(3);
        let mut usage = BTreeMap::new();
        usage.insert("acme".to_string(), TenantUsage { live_jobs: 1, live_bytes: 512 });
        m.set_tenant_usage(&usage);
        let want = TenantCounters {
            submitted: 2,
            done: 1,
            work_done: 200,
            cache_hits: 1,
            live_jobs: 1,
            live_bytes: 512,
            ..TenantCounters::default()
        };
        assert_eq!(m.tenants["acme"], want);
        // beta has no live work: gauges drop to 0, lifetime counters stay.
        assert_eq!((m.tenants["beta"].failed, m.tenants["beta"].live_jobs), (1, 0));
        assert_eq!((m.worlds_active, m.worlds_peak), (1, 2));
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_tenant_submitted_total{tenant=\"acme\"} 2"), "{text}");
        assert!(text.contains("xgserve_tenant_work_done_total{tenant=\"acme\"} 200"), "{text}");
        assert!(text.contains("xgserve_tenant_live_jobs{tenant=\"beta\"} 0"), "{text}");
        assert!(text.contains("xgserve_worlds_peak 2"), "{text}");
        assert!(text.contains("xgserve_terminal_evicted_total 3"), "{text}");
        xg_obs::expo::lint_prometheus(&text).expect("must lint clean");
    }

    #[test]
    fn prometheus_exposition_lints_clean() {
        let dims = CgyroInput::test_small().dims();
        let mut m = Metrics::default();
        m.on_submit();
        m.on_dispatch(2, dims, FlushReason::Full);
        m.on_queue_latency_us(2_500);
        m.on_batch_traces(&[vec![OpRecord {
            op: xg_comm::OpKind::AllToAll,
            comm_label: "coll-ens".into(),
            participants: 2,
            members: vec![0, 1],
            bytes: 64,
            phase: "coll".into(),
            elapsed_us: 40,
        }]]);
        let text = m.to_prometheus(&[(JobState::Done, 2)]);
        assert!(text.contains("xgserve_submitted_total 1"), "{text}");
        assert!(text.contains("xgserve_jobs{state=\"Done\"} 2"), "{text}");
        assert!(text.contains("xgserve_batches_total{k=\"2\"} 1"), "{text}");
        assert!(text.contains("xgserve_queue_latency_seconds_sum 0.0025"), "{text}");
        assert!(
            text.contains("xgserve_exec_phase_wait_seconds_total{phase=\"coll\"} 0.00004"),
            "{text}"
        );
        xg_obs::expo::lint_prometheus(&text).expect("must lint clean");
    }
}
