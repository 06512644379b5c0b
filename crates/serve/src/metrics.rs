//! Campaign metrics, exported as JSON and Prometheus text.
//!
//! The headline series is `cmat_saved_bytes`: for every dispatched batch of
//! size `k` the service stores one constant tensor instead of `k`, saving
//! `(k − 1) ×` the tensor ([`xg_costmodel::memory::cmat_saved_bytes`] — the
//! same law `xgplan` forecasts with, so the serving metrics and the
//! planning forecasts can never drift apart). The occupancy histogram shows
//! how close the batcher gets to the ideal of always-full batches; queue
//! latency shows what that packing costs in waiting; the execution-phase
//! breakdown (fed from batch traces) shows where the dispatched ensembles
//! spent their communication time.
//!
//! Aggregates that are undefined on an empty registry (latency max/mean
//! with no dispatches, the savings ratio with nothing dispatched) export as
//! JSON `null`, never a fake 0 — a campaign that saved nothing and one that
//! ran nothing must not look alike.
//!
//! All JSON is hand-rolled (the workspace's serde is a vendored marker-only
//! stub); keys are emitted in a fixed order so snapshots diff cleanly.
//! Latency is recorded in **microseconds** (sub-millisecond dispatches are
//! the common case under test configs; millisecond recording rounded them
//! all to zero) and exported both raw (`queue_latency_us`) and as derived
//! milliseconds under the original `queue_latency_ms` key shape.

use crate::admission::AdmitError;
use crate::batcher::FlushReason;
use crate::job::JobState;
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
    /// Times one of this tenant's running worlds yielded its nodes to a
    /// higher-priority lane at a checkpoint boundary.
    pub preemptions: u64,
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

/// Counter registry. The server updates it under its state lock; `to_json`
/// takes a snapshot of the live job states at export time.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total accepted submissions.
    pub submitted: u64,
    /// Rejections by [`AdmitError::kind`].
    pub rejected: BTreeMap<&'static str, u64>,
    /// Dispatched-batch occupancy histogram: batch size k → batches.
    pub occupancy: BTreeMap<usize, u64>,
    /// Flush triggers by [`FlushReason`].
    pub flushes: BTreeMap<&'static str, u64>,
    /// Total constant-tensor bytes NOT allocated thanks to batching,
    /// summed over dispatched batches.
    pub cmat_saved_bytes: u64,
    /// What the same jobs would have allocated unbatched (k copies per
    /// batch) — the denominator for the savings ratio.
    pub cmat_unbatched_bytes: u64,
    /// Queue-latency (admission → dispatch) accumulators, microseconds.
    pub latency_count: u64,
    /// Sum of observed latencies (µs).
    pub latency_sum_us: u64,
    /// Largest observed latency (µs).
    pub latency_max_us: u64,
    /// Execution-phase breakdown accumulated from dispatched batches'
    /// traces: phase → (ops, bytes, wait µs). Wait stays 0 when the daemon
    /// runs with `XGYRO_OBS=0`.
    pub exec_phases: BTreeMap<String, (u64, u64, u64)>,
    /// Journal appends committed (refreshed from the journal at export;
    /// all journal counters stay 0 when running journal-less).
    pub journal_appends: u64,
    /// fsync(2) calls the journal issued.
    pub journal_fsyncs: u64,
    /// Frame bytes the journal wrote.
    pub journal_bytes: u64,
    /// Journal segment rotations.
    pub journal_rotations: u64,
    /// Compaction passes run on closed segments.
    pub journal_compactions: u64,
    /// Appends the journal failed to commit (backpressure/fault injection).
    pub journal_dropped: u64,
    /// Records replayed from the journal at startup.
    pub replay_records: u64,
    /// Jobs restored into the job table by replay.
    pub replay_restored_jobs: u64,
    /// Running batches rebuilt and resumed from journaled checkpoints.
    pub replay_resumed_batches: u64,
    /// Waiting jobs re-admitted through the grouper by replay.
    pub replay_readmitted_jobs: u64,
    /// Torn-tail bytes truncated during replay.
    pub replay_torn_bytes: u64,
    /// Wall time the startup replay took, microseconds.
    pub replay_us: u64,
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
    /// observable signature of elastic (non-serial) execution.
    pub worlds_peak: u64,
    /// Ensemble worlds this process spawned: one per batch run, plus one
    /// each time a member left a running batch (fault or cancel) or a
    /// preempted batch came back (refreshed at export from the obs
    /// registry).
    pub world_spawns: u64,
    /// Times the shared `cmat` was factorized: once per world that came up
    /// — never once per checkpoint segment (refreshed at export).
    pub cmat_builds: u64,
    /// Modeled nodes occupied by executing worlds (refreshed at export).
    pub nodes_in_use: u64,
    /// Checkpoint-boundary preemptions across all tenants.
    pub preemptions: u64,
    /// Terminal jobs evicted by the bounded retention window.
    pub terminal_evicted: u64,
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
        *self.flushes.entry(reason_key(reason)).or_insert(0) += 1;
        self.cmat_saved_bytes += xg_costmodel::cmat_saved_bytes(k, dims);
        self.cmat_unbatched_bytes += k as u64 * xg_costmodel::cmat_total_bytes(dims);
    }

    /// Record one job's queue latency at dispatch, in microseconds.
    pub fn on_queue_latency_us(&mut self, us: u64) {
        self.latency_count += 1;
        self.latency_sum_us += us;
        self.latency_max_us = self.latency_max_us.max(us);
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

    /// Record a checkpoint-boundary preemption (the per-tenant count lives
    /// with the tenant's other counters, in the job table).
    pub fn on_preempt(&mut self) {
        self.preemptions += 1;
    }

    /// A world started executing (worker reserved its nodes).
    pub fn on_world_start(&mut self) {
        self.worlds_active += 1;
        self.worlds_peak = self.worlds_peak.max(self.worlds_active);
    }

    /// A world stopped executing (completed, failed, or preempted).
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

    /// Refresh the journal counters from a live journal's stats (called by
    /// the server at export time).
    pub fn set_journal_stats(&mut self, s: crate::journal::JournalStats) {
        self.journal_appends = s.appends;
        self.journal_fsyncs = s.fsyncs;
        self.journal_bytes = s.bytes_written;
        self.journal_rotations = s.rotations;
        self.journal_compactions = s.compactions;
        self.journal_dropped = s.dropped;
    }

    /// Record what startup replay restored (set once when the server
    /// starts).
    pub fn set_recovery(&mut self, r: &crate::server::RecoveryReport) {
        self.replay_records = r.replayed_records;
        self.replay_restored_jobs = r.restored_jobs;
        self.replay_resumed_batches = r.resumed_batches;
        self.replay_readmitted_jobs = r.readmitted_jobs;
        self.replay_torn_bytes = r.torn_bytes;
        self.replay_us = r.replay_us;
    }

    /// Serialize, folding in a snapshot of live job states
    /// (`(state, count)` for every [`JobState`]).
    pub fn to_json(&self, jobs_by_state: &[(JobState, usize)]) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema\": \"xg-serve-metrics-v1\",\n");
        s.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        s.push_str("  \"jobs_by_state\": {");
        for (i, (state, n)) in jobs_by_state.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{state}\": {n}"));
        }
        s.push_str("},\n");
        s.push_str("  \"rejected\": {");
        push_map(&mut s, self.rejected.iter().map(|(k, v)| (k.to_string(), *v)));
        s.push_str("},\n");
        s.push_str("  \"batch_occupancy\": {");
        push_map(&mut s, self.occupancy.iter().map(|(k, v)| (format!("k={k}"), *v)));
        s.push_str("},\n");
        s.push_str("  \"flush_reasons\": {");
        push_map(&mut s, self.flushes.iter().map(|(k, v)| (k.to_string(), *v)));
        s.push_str("},\n");
        s.push_str(&format!("  \"cmat_saved_bytes\": {},\n", self.cmat_saved_bytes));
        s.push_str(&format!(
            "  \"cmat_unbatched_bytes\": {},\n",
            self.cmat_unbatched_bytes
        ));
        // Undefined until something was dispatched: null, not 0.0 (a
        // campaign that saved nothing must not look like one that ran
        // nothing).
        if self.cmat_unbatched_bytes == 0 {
            s.push_str("  \"cmat_saved_ratio\": null,\n");
        } else {
            let ratio = self.cmat_saved_bytes as f64 / self.cmat_unbatched_bytes as f64;
            s.push_str(&format!("  \"cmat_saved_ratio\": {ratio:.6},\n"));
        }
        s.push_str("  \"exec_phases\": {");
        for (i, (phase, (ops, bytes, us))) in self.exec_phases.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{phase}\": {{\"ops\": {ops}, \"bytes\": {bytes}, \"wait_us\": {us}}}"
            ));
        }
        s.push_str("},\n");
        // Raw microseconds plus derived milliseconds (original key shape).
        self.push_latency(&mut s, "queue_latency_us", 1);
        s.push_str(",\n");
        self.push_latency(&mut s, "queue_latency_ms", 1000);
        s.push_str(",\n");
        s.push_str(&format!(
            "  \"journal\": {{\"appends\": {}, \"fsyncs\": {}, \"bytes\": {}, \
             \"rotations\": {}, \"compactions\": {}, \"dropped\": {}}},\n",
            self.journal_appends,
            self.journal_fsyncs,
            self.journal_bytes,
            self.journal_rotations,
            self.journal_compactions,
            self.journal_dropped,
        ));
        // Hit rate is undefined until the store was consulted: null, not
        // 0.0 (a cache that never hit and one never asked must not look
        // alike).
        let consults = self.cache_hits + self.cache_misses;
        let hit_rate = if consults == 0 {
            "null".to_string()
        } else {
            format!("{:.6}", self.cache_hits as f64 / consults as f64)
        };
        s.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {hit_rate}, \
             \"bytes_saved\": {}}},\n",
            self.cache_hits, self.cache_misses, self.cache_bytes_saved,
        ));
        s.push_str(&format!(
            "  \"scheduler\": {{\"worlds_active\": {}, \"worlds_peak\": {}, \
             \"world_spawns\": {}, \"cmat_builds\": {}, \
             \"nodes_in_use\": {}, \"preemptions\": {}, \"terminal_evicted\": {}}},\n",
            self.worlds_active,
            self.worlds_peak,
            self.world_spawns,
            self.cmat_builds,
            self.nodes_in_use,
            self.preemptions,
            self.terminal_evicted,
        ));
        s.push_str("  \"tenants\": {");
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{name}\": {{\"submitted\": {}, \"done\": {}, \"failed\": {}, \
                 \"cancelled\": {}, \"work_done\": {}, \"cache_hits\": {}, \
                 \"preemptions\": {}, \"live_jobs\": {}, \"live_bytes\": {}}}",
                t.submitted,
                t.done,
                t.failed,
                t.cancelled,
                t.work_done,
                t.cache_hits,
                t.preemptions,
                t.live_jobs,
                t.live_bytes,
            ));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"recovery\": {{\"replayed_records\": {}, \"restored_jobs\": {}, \
             \"resumed_batches\": {}, \"readmitted_jobs\": {}, \"torn_bytes\": {}, \
             \"replay_us\": {}}}\n",
            self.replay_records,
            self.replay_restored_jobs,
            self.replay_resumed_batches,
            self.replay_readmitted_jobs,
            self.replay_torn_bytes,
            self.replay_us,
        ));
        s.push_str("}\n");
        s
    }

    /// One latency block: `"count"`, `"sum"`, `"max"`, `"mean"` in units of
    /// `div` microseconds (1 → µs, 1000 → ms). Max and mean are `null`
    /// until something was dispatched.
    fn push_latency(&self, s: &mut String, key: &str, div: u64) {
        if self.latency_count == 0 {
            s.push_str(&format!(
                "  \"{key}\": {{\"count\": 0, \"sum\": 0, \"max\": null, \"mean\": null}}"
            ));
        } else {
            s.push_str(&format!(
                "  \"{key}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}}}",
                self.latency_count,
                self.latency_sum_us / div,
                self.latency_max_us / div,
                self.latency_sum_us as f64 / self.latency_count as f64 / div as f64
            ));
        }
    }

    /// Prometheus text exposition of the same counters (`xgserve_*`
    /// families). The daemon's `METRICS_PROM` verb appends the process-wide
    /// phase-timer exposition from `xg_obs` to this.
    pub fn to_prometheus(&self, jobs_by_state: &[(JobState, usize)]) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("# HELP xgserve_submitted_total Accepted submissions.\n");
        s.push_str("# TYPE xgserve_submitted_total counter\n");
        s.push_str(&format!("xgserve_submitted_total {}\n", self.submitted));
        s.push_str("# HELP xgserve_jobs Jobs currently in each lifecycle state.\n");
        s.push_str("# TYPE xgserve_jobs gauge\n");
        for (state, n) in jobs_by_state {
            s.push_str(&format!("xgserve_jobs{{state=\"{state}\"}} {n}\n"));
        }
        s.push_str("# HELP xgserve_rejected_total Rejections by admission error kind.\n");
        s.push_str("# TYPE xgserve_rejected_total counter\n");
        for (kind, n) in &self.rejected {
            s.push_str(&format!("xgserve_rejected_total{{kind=\"{kind}\"}} {n}\n"));
        }
        s.push_str("# HELP xgserve_batches_total Dispatched batches by occupancy.\n");
        s.push_str("# TYPE xgserve_batches_total counter\n");
        for (k, n) in &self.occupancy {
            s.push_str(&format!("xgserve_batches_total{{k=\"{k}\"}} {n}\n"));
        }
        s.push_str("# HELP xgserve_flushes_total Batch flushes by trigger.\n");
        s.push_str("# TYPE xgserve_flushes_total counter\n");
        for (reason, n) in &self.flushes {
            s.push_str(&format!("xgserve_flushes_total{{reason=\"{reason}\"}} {n}\n"));
        }
        s.push_str(
            "# HELP xgserve_cmat_saved_bytes_total Constant-tensor bytes elided by batching.\n",
        );
        s.push_str("# TYPE xgserve_cmat_saved_bytes_total counter\n");
        s.push_str(&format!("xgserve_cmat_saved_bytes_total {}\n", self.cmat_saved_bytes));
        s.push_str(
            "# HELP xgserve_cmat_unbatched_bytes_total What the same jobs would have allocated unbatched.\n",
        );
        s.push_str("# TYPE xgserve_cmat_unbatched_bytes_total counter\n");
        s.push_str(&format!(
            "xgserve_cmat_unbatched_bytes_total {}\n",
            self.cmat_unbatched_bytes
        ));
        s.push_str("# HELP xgserve_queue_latency_seconds Admission-to-dispatch wait.\n");
        s.push_str("# TYPE xgserve_queue_latency_seconds summary\n");
        s.push_str(&format!("xgserve_queue_latency_seconds_count {}\n", self.latency_count));
        s.push_str(&format!(
            "xgserve_queue_latency_seconds_sum {}\n",
            self.latency_sum_us as f64 / 1e6
        ));
        s.push_str("# HELP xgserve_exec_phase_ops_total Collective operations per execution phase.\n");
        s.push_str("# TYPE xgserve_exec_phase_ops_total counter\n");
        for (phase, (ops, _, _)) in &self.exec_phases {
            s.push_str(&format!("xgserve_exec_phase_ops_total{{phase=\"{phase}\"}} {ops}\n"));
        }
        s.push_str(
            "# HELP xgserve_exec_phase_wait_seconds_total Communication wait per execution phase.\n",
        );
        s.push_str("# TYPE xgserve_exec_phase_wait_seconds_total counter\n");
        for (phase, (_, _, us)) in &self.exec_phases {
            s.push_str(&format!(
                "xgserve_exec_phase_wait_seconds_total{{phase=\"{phase}\"}} {}\n",
                *us as f64 / 1e6
            ));
        }
        for (name, help, v) in [
            (
                "xgserve_journal_appends_total",
                "Committed write-ahead journal appends.",
                self.journal_appends,
            ),
            (
                "xgserve_journal_fsyncs_total",
                "fsync calls issued by the journal.",
                self.journal_fsyncs,
            ),
            (
                "xgserve_journal_bytes_total",
                "Frame bytes written to the journal.",
                self.journal_bytes,
            ),
            (
                "xgserve_journal_rotations_total",
                "Journal segment rotations.",
                self.journal_rotations,
            ),
            (
                "xgserve_journal_compactions_total",
                "Compaction passes over closed journal segments.",
                self.journal_compactions,
            ),
            (
                "xgserve_journal_dropped_total",
                "Journal appends that failed to commit.",
                self.journal_dropped,
            ),
            (
                "xgserve_replay_records_total",
                "Journal records replayed at startup.",
                self.replay_records,
            ),
            (
                "xgserve_replay_restored_jobs_total",
                "Jobs restored into the job table by startup replay.",
                self.replay_restored_jobs,
            ),
            (
                "xgserve_replay_resumed_batches_total",
                "Running batches resumed from journaled checkpoints.",
                self.replay_resumed_batches,
            ),
            (
                "xgserve_replay_readmitted_jobs_total",
                "Waiting jobs re-admitted through the grouper by replay.",
                self.replay_readmitted_jobs,
            ),
            (
                "xgserve_replay_torn_bytes_total",
                "Torn-tail bytes truncated during startup replay.",
                self.replay_torn_bytes,
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
            s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        }
        s.push_str("# HELP xgserve_replay_seconds_total Wall time spent replaying the journal at startup.\n");
        s.push_str("# TYPE xgserve_replay_seconds_total counter\n");
        s.push_str(&format!(
            "xgserve_replay_seconds_total {}\n",
            self.replay_us as f64 / 1e6
        ));
        for (name, help, v) in [
            ("xgserve_worlds_active", "Ensemble worlds executing right now.", self.worlds_active),
            (
                "xgserve_worlds_peak",
                "High-water mark of concurrently executing worlds.",
                self.worlds_peak,
            ),
            (
                "xgserve_nodes_in_use",
                "Modeled nodes occupied by executing worlds.",
                self.nodes_in_use,
            ),
        ] {
            s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, help, v) in [
            (
                "xgserve_world_spawns_total",
                "Ensemble worlds spawned by batch runs.",
                self.world_spawns,
            ),
            (
                "xgserve_cmat_builds_total",
                "Shared cmat factorizations by batch runs (one per world, not per segment).",
                self.cmat_builds,
            ),
            (
                "xgserve_preemptions_total",
                "Checkpoint-boundary world preemptions.",
                self.preemptions,
            ),
            (
                "xgserve_terminal_evicted_total",
                "Terminal jobs evicted by the bounded retention window.",
                self.terminal_evicted,
            ),
        ] {
            s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        }
        if !self.tenants.is_empty() {
            for (name, help, get, kind) in [
                (
                    "xgserve_tenant_submitted_total",
                    "Accepted submissions per tenant.",
                    (|t: &TenantCounters| t.submitted) as fn(&TenantCounters) -> u64,
                    "counter",
                ),
                (
                    "xgserve_tenant_done_total",
                    "Jobs completed per tenant.",
                    |t: &TenantCounters| t.done,
                    "counter",
                ),
                (
                    "xgserve_tenant_failed_total",
                    "Jobs failed per tenant.",
                    |t: &TenantCounters| t.failed,
                    "counter",
                ),
                (
                    "xgserve_tenant_cancelled_total",
                    "Jobs cancelled per tenant.",
                    |t: &TenantCounters| t.cancelled,
                    "counter",
                ),
                (
                    "xgserve_tenant_work_done_total",
                    "Simulation steps completed per tenant.",
                    |t: &TenantCounters| t.work_done,
                    "counter",
                ),
                (
                    "xgserve_tenant_cache_hits_total",
                    "Cache-served submissions per tenant.",
                    |t: &TenantCounters| t.cache_hits,
                    "counter",
                ),
                (
                    "xgserve_tenant_preemptions_total",
                    "World preemptions per tenant.",
                    |t: &TenantCounters| t.preemptions,
                    "counter",
                ),
                (
                    "xgserve_tenant_live_jobs",
                    "Live jobs per tenant (quota numerator).",
                    |t: &TenantCounters| t.live_jobs,
                    "gauge",
                ),
                (
                    "xgserve_tenant_live_bytes",
                    "Live deck bytes per tenant (quota numerator).",
                    |t: &TenantCounters| t.live_bytes,
                    "gauge",
                ),
            ] {
                s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                for (tenant, t) in &self.tenants {
                    s.push_str(&format!("{name}{{tenant=\"{tenant}\"}} {}\n", get(t)));
                }
            }
        }
        s
    }
}

fn reason_key(reason: FlushReason) -> &'static str {
    match reason {
        FlushReason::Full => "full",
        FlushReason::MemoryBudget => "memory-budget",
        FlushReason::Linger => "linger",
        FlushReason::Drain => "drain",
        FlushReason::Resume => "resume",
        FlushReason::Preempt => "preempt",
    }
}

fn push_map(s: &mut String, entries: impl Iterator<Item = (String, u64)>) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{k}\": {v}"));
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
    fn json_has_the_advertised_keys() {
        let dims = CgyroInput::test_small().dims();
        let mut m = Metrics::default();
        m.on_submit();
        m.on_reject(&AdmitError::Draining);
        m.on_dispatch(2, dims, FlushReason::Full);
        m.on_queue_latency_us(7_000);
        let json = m.to_json(&[(JobState::Done, 2), (JobState::Queued, 0)]);
        for key in [
            "\"schema\": \"xg-serve-metrics-v1\"",
            "\"submitted\": 1",
            "\"jobs_by_state\"",
            "\"Done\": 2",
            "\"rejected\": {\"draining\": 1}",
            "\"batch_occupancy\": {\"k=2\": 1}",
            "\"flush_reasons\": {\"full\": 1}",
            "\"cmat_saved_bytes\"",
            "\"exec_phases\"",
            "\"queue_latency_us\": {\"count\": 1, \"sum\": 7000, \"max\": 7000, \"mean\": 7000.000}",
            "\"queue_latency_ms\": {\"count\": 1, \"sum\": 7, \"max\": 7, \"mean\": 7.000}",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn latency_mean_and_max() {
        let mut m = Metrics::default();
        m.on_queue_latency_us(10_000);
        m.on_queue_latency_us(20_000);
        assert_eq!(m.latency_count, 2);
        assert_eq!(m.latency_max_us, 20_000);
        assert!(m.to_json(&[]).contains("\"mean\": 15.000"));
    }

    #[test]
    fn sub_millisecond_latencies_are_not_rounded_away() {
        // Regression: ms-granular recording turned three fast dispatches
        // into count=3, sum=0, mean=0.0 — indistinguishable from broken
        // timers. Microsecond recording keeps them.
        let mut m = Metrics::default();
        for us in [150, 300, 450] {
            m.on_queue_latency_us(us);
        }
        assert_eq!(m.latency_sum_us, 900);
        let json = m.to_json(&[]);
        assert!(
            json.contains("\"queue_latency_us\": {\"count\": 3, \"sum\": 900, \"max\": 450, \"mean\": 300.000}"),
            "{json}"
        );
        // The derived ms view floors to whole ms but keeps the true mean.
        assert!(
            json.contains("\"queue_latency_ms\": {\"count\": 3, \"sum\": 0, \"max\": 0, \"mean\": 0.300}"),
            "{json}"
        );
    }

    #[test]
    fn empty_registry_snapshot_uses_null_not_zero() {
        // Regression: an empty registry used to report max=0, mean=0.0 and
        // cmat_saved_ratio=0.0 — indistinguishable from genuinely zero
        // latency/savings.
        let m = Metrics::default();
        let json = m.to_json(&[]);
        assert!(json.contains("\"jobs_by_state\": {}"), "{json}");
        assert!(json.contains("\"cmat_saved_ratio\": null"), "{json}");
        assert!(json.contains("\"exec_phases\": {}"), "{json}");
        assert!(
            json.contains("\"queue_latency_us\": {\"count\": 0, \"sum\": 0, \"max\": null, \"mean\": null}"),
            "{json}"
        );
        assert!(
            json.contains("\"queue_latency_ms\": {\"count\": 0, \"sum\": 0, \"max\": null, \"mean\": null}"),
            "{json}"
        );
        // But a real zero-latency observation still reads 0, not null.
        let mut m = Metrics::default();
        m.on_queue_latency_us(0);
        assert!(m.to_json(&[]).contains("\"max\": 0, \"mean\": 0.000"));
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
        let json = m.to_json(&[]);
        assert!(
            json.contains("\"str\": {\"ops\": 3, \"bytes\": 300, \"wait_us\": 100}"),
            "{json}"
        );
    }

    #[test]
    fn cache_block_reports_hit_rate_or_null() {
        let m = Metrics::default();
        assert!(
            m.to_json(&[]).contains(
                "\"cache\": {\"hits\": 0, \"misses\": 0, \"hit_rate\": null, \"bytes_saved\": 0}"
            ),
            "{}",
            m.to_json(&[])
        );
        let mut m = Metrics::default();
        m.on_cache_miss();
        m.on_cache_hit(4096);
        m.on_cache_hit(4096);
        m.on_cache_miss();
        let json = m.to_json(&[]);
        assert!(
            json.contains(
                "\"cache\": {\"hits\": 2, \"misses\": 2, \"hit_rate\": 0.500000, \"bytes_saved\": 8192}"
            ),
            "{json}"
        );
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_cache_hits_total 2"), "{text}");
        assert!(text.contains("xgserve_cache_misses_total 2"), "{text}");
        assert!(text.contains("xgserve_cache_bytes_saved_total 8192"), "{text}");
    }

    #[test]
    fn tenant_families_export_in_json_and_prometheus() {
        let mut m = Metrics::default();
        let acme = m.tenants.entry("acme".into()).or_default();
        (acme.submitted, acme.cache_hits, acme.preemptions) = (2, 1, 1);
        acme.on_terminal(JobState::Done, 200);
        let beta = m.tenants.entry("beta".into()).or_default();
        beta.submitted = 1;
        beta.on_terminal(JobState::Failed, 0);
        m.on_preempt();
        m.on_world_start();
        m.on_world_start();
        m.on_world_end();
        (m.world_spawns, m.cmat_builds) = (2, 1);
        m.on_terminal_evicted(3);
        let mut usage = BTreeMap::new();
        usage.insert("acme".to_string(), TenantUsage { live_jobs: 1, live_bytes: 512 });
        m.set_tenant_usage(&usage);
        let json = m.to_json(&[]);
        assert!(
            json.contains(
                "\"acme\": {\"submitted\": 2, \"done\": 1, \"failed\": 0, \
                 \"cancelled\": 0, \"work_done\": 200, \"cache_hits\": 1, \
                 \"preemptions\": 1, \"live_jobs\": 1, \"live_bytes\": 512}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"scheduler\": {\"worlds_active\": 1, \"worlds_peak\": 2, \
                 \"world_spawns\": 2, \"cmat_builds\": 1, \
                 \"nodes_in_use\": 0, \"preemptions\": 1, \"terminal_evicted\": 3}"
            ),
            "{json}"
        );
        // beta has no live work: gauges drop to 0, lifetime counters stay.
        assert!(json.contains("\"beta\": {\"submitted\": 1, \"done\": 0, \"failed\": 1"), "{json}");
        let text = m.to_prometheus(&[]);
        assert!(text.contains("xgserve_tenant_submitted_total{tenant=\"acme\"} 2"), "{text}");
        assert!(text.contains("xgserve_tenant_work_done_total{tenant=\"acme\"} 200"), "{text}");
        assert!(text.contains("xgserve_tenant_live_jobs{tenant=\"beta\"} 0"), "{text}");
        assert!(text.contains("xgserve_worlds_peak 2"), "{text}");
        assert!(text.contains("xgserve_preemptions_total 1"), "{text}");
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
