//! Exposition: JSON, Prometheus text format, and a human phase table.
//!
//! All JSON is hand-rolled in the workspace style (the vendored serde is a
//! marker-only stub); keys come out in a fixed order so snapshots diff
//! cleanly. The Prometheus renderer follows the text exposition format:
//! `# HELP` / `# TYPE` per family, histograms as cumulative `_bucket`
//! series with `le` labels ending in `+Inf`, plus `_sum` and `_count`.
//! [`parse_prometheus`] reads that format back (enough of it for `xgplan
//! --profile` and the CI linter — full-line comments, labels, numeric
//! values).

use crate::hist::{bucket_bound, Snapshot};
use crate::{Phase, Registry, PHASES};

/// Render a registry snapshot as JSON.
///
/// Shape: `{"schema": "xg-obs-v1", "phases": {"str": {"busy_us": {...},
/// "comm_wait_us": {...}}, ...}, "recovery": {"events": N, "wasted_us": N}}`
/// where each histogram object carries `count/sum/min/max/p50/p99` with
/// `null` for aggregates that are undefined on an empty histogram. Phases
/// with no observations at all are omitted.
pub fn to_json(reg: &Registry) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n  \"schema\": \"xg-obs-v1\",\n  \"phases\": {");
    let mut first = true;
    for phase in PHASES {
        let m = reg.phase(phase);
        let busy = m.busy.snapshot();
        let wait = m.comm_wait.snapshot();
        if busy.is_empty() && wait.is_empty() {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\n    \"{phase}\": {{\"busy_us\": "));
        push_hist_json(&mut s, &busy);
        s.push_str(", \"comm_wait_us\": ");
        push_hist_json(&mut s, &wait);
        s.push('}');
    }
    if !first {
        s.push_str("\n  ");
    }
    let (events, wasted) = reg.recovery_stats();
    s.push_str("},\n");
    s.push_str(&format!(
        "  \"recovery\": {{\"events\": {events}, \"wasted_us\": {wasted}}},\n"
    ));
    let (rb_events, rb_rows) = reg.rebalance_stats();
    s.push_str(&format!(
        "  \"rebalance\": {{\"events\": {rb_events}, \"moved_rows\": {rb_rows}}},\n"
    ));
    let (spawns, builds) = reg.session_stats();
    s.push_str(&format!(
        "  \"session\": {{\"world_spawns\": {spawns}, \"cmat_builds\": {builds}}},\n"
    ));
    let (appends, fsyncs, fsync_us) = reg.journal_stats();
    s.push_str(&format!(
        "  \"journal\": {{\"appends\": {appends}, \"fsyncs\": {fsyncs}, \"fsync_us\": {fsync_us}}},\n"
    ));
    let (replays, replay_us) = reg.replay_stats();
    s.push_str(&format!(
        "  \"replay\": {{\"count\": {replays}, \"wall_us\": {replay_us}}},\n"
    ));
    let (hits, misses, saved) = reg.cache_stats();
    s.push_str(&format!(
        "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"bytes_saved\": {saved}}},\n"
    ));
    match reg.collision_kernel() {
        Some(k) => s.push_str(&format!("  \"collision_kernel\": \"{k}\"\n")),
        None => s.push_str("  \"collision_kernel\": null\n"),
    }
    s.push_str("}\n");
    s
}

fn push_hist_json(s: &mut String, h: &Snapshot) {
    s.push_str(&format!("{{\"count\": {}, \"sum\": {}", h.count, h.sum));
    push_opt(s, "min", h.min_us());
    push_opt(s, "max", h.max_us());
    push_opt(s, "p50", h.p50_us());
    push_opt(s, "p99", h.p99_us());
    s.push('}');
}

fn push_opt(s: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => s.push_str(&format!(", \"{key}\": {v}")),
        None => s.push_str(&format!(", \"{key}\": null")),
    }
}

/// Render a registry snapshot in the Prometheus text exposition format.
///
/// Families (all in seconds, per Prometheus convention):
/// * `xgyro_phase_busy_seconds` — histogram, label `phase`;
/// * `xgyro_phase_comm_wait_seconds` — histogram, label `phase`;
/// * `xgyro_recovery_events_total`, `xgyro_recovery_wasted_seconds_total`,
///   `xgyro_rebalance_events_total`, `xgyro_rebalance_moved_rows_total`,
///   `xgyro_world_spawns_total`, `xgyro_cmat_builds_total` — counters.
///
/// Every phase family is emitted even when empty (Prometheus prefers
/// stable series over appearing/disappearing ones).
pub fn to_prometheus(reg: &Registry) -> String {
    let mut s = String::with_capacity(4096);
    push_prom_hist_family(
        &mut s,
        "xgyro_phase_busy_seconds",
        "Wall time inside each simulation phase (includes comm waits).",
        |p| reg.phase(p).busy.snapshot(),
    );
    push_prom_hist_family(
        &mut s,
        "xgyro_phase_comm_wait_seconds",
        "Wall time blocked in collectives, attributed to the issuing phase.",
        |p| reg.phase(p).comm_wait.snapshot(),
    );
    let (events, wasted) = reg.recovery_stats();
    s.push_str("# HELP xgyro_recovery_events_total Fault-recovery events observed.\n");
    s.push_str("# TYPE xgyro_recovery_events_total counter\n");
    s.push_str(&format!("xgyro_recovery_events_total {events}\n"));
    s.push_str(
        "# HELP xgyro_recovery_wasted_seconds_total Re-executed work discarded by rollbacks.\n",
    );
    s.push_str("# TYPE xgyro_recovery_wasted_seconds_total counter\n");
    s.push_str(&format!(
        "xgyro_recovery_wasted_seconds_total {}\n",
        fmt_seconds(wasted)
    ));
    let (rb_events, rb_rows) = reg.rebalance_stats();
    s.push_str(
        "# HELP xgyro_rebalance_events_total Capacity-aware post-eviction rebalances.\n",
    );
    s.push_str("# TYPE xgyro_rebalance_events_total counter\n");
    s.push_str(&format!("xgyro_rebalance_events_total {rb_events}\n"));
    s.push_str(
        "# HELP xgyro_rebalance_moved_rows_total Coll nc rows moved vs a uniform shrink.\n",
    );
    s.push_str("# TYPE xgyro_rebalance_moved_rows_total counter\n");
    s.push_str(&format!("xgyro_rebalance_moved_rows_total {rb_rows}\n"));
    let (spawns, builds) = reg.session_stats();
    s.push_str("# HELP xgyro_world_spawns_total Ensemble worlds spawned (session opens).\n");
    s.push_str("# TYPE xgyro_world_spawns_total counter\n");
    s.push_str(&format!("xgyro_world_spawns_total {spawns}\n"));
    s.push_str("# HELP xgyro_cmat_builds_total Factorizations of the shared cmat.\n");
    s.push_str("# TYPE xgyro_cmat_builds_total counter\n");
    s.push_str(&format!("xgyro_cmat_builds_total {builds}\n"));
    let (appends, fsyncs, fsync_us) = reg.journal_stats();
    s.push_str("# HELP xgyro_journal_appends_total Committed write-ahead journal appends.\n");
    s.push_str("# TYPE xgyro_journal_appends_total counter\n");
    s.push_str(&format!("xgyro_journal_appends_total {appends}\n"));
    s.push_str("# HELP xgyro_journal_fsyncs_total fsync calls issued by the journal.\n");
    s.push_str("# TYPE xgyro_journal_fsyncs_total counter\n");
    s.push_str(&format!("xgyro_journal_fsyncs_total {fsyncs}\n"));
    s.push_str(
        "# HELP xgyro_journal_fsync_seconds_total Wall time spent inside journal fsyncs.\n",
    );
    s.push_str("# TYPE xgyro_journal_fsync_seconds_total counter\n");
    s.push_str(&format!(
        "xgyro_journal_fsync_seconds_total {}\n",
        fmt_seconds(fsync_us)
    ));
    let (replays, replay_us) = reg.replay_stats();
    s.push_str("# HELP xgyro_journal_replays_total Startup journal replays performed.\n");
    s.push_str("# TYPE xgyro_journal_replays_total counter\n");
    s.push_str(&format!("xgyro_journal_replays_total {replays}\n"));
    s.push_str(
        "# HELP xgyro_journal_replay_seconds_total Wall time spent replaying journals at startup.\n",
    );
    s.push_str("# TYPE xgyro_journal_replay_seconds_total counter\n");
    s.push_str(&format!(
        "xgyro_journal_replay_seconds_total {}\n",
        fmt_seconds(replay_us)
    ));
    let (hits, misses, saved) = reg.cache_stats();
    s.push_str("# HELP xgyro_cache_hits_total Submissions served from the artifact store.\n");
    s.push_str("# TYPE xgyro_cache_hits_total counter\n");
    s.push_str(&format!("xgyro_cache_hits_total {hits}\n"));
    s.push_str(
        "# HELP xgyro_cache_misses_total Artifact-store consults that found no manifest.\n",
    );
    s.push_str("# TYPE xgyro_cache_misses_total counter\n");
    s.push_str(&format!("xgyro_cache_misses_total {misses}\n"));
    s.push_str(
        "# HELP xgyro_cache_bytes_saved_total Outcome bytes served from the artifact store instead of recomputed.\n",
    );
    s.push_str("# TYPE xgyro_cache_bytes_saved_total counter\n");
    s.push_str(&format!("xgyro_cache_bytes_saved_total {saved}\n"));
    // Info-style metric: constant 1 with the tuned collision kernel as
    // a label. Its own family (not a label on the phase histograms) so
    // every sample of one name keeps the same label keys — the linter's
    // consistency rule. Omitted until a topology has been built.
    if let Some(kernel) = reg.collision_kernel() {
        s.push_str(
            "# HELP xgyro_collision_kernel_info Tuned collision kernel (SIMD level).\n",
        );
        s.push_str("# TYPE xgyro_collision_kernel_info gauge\n");
        s.push_str(&format!(
            "xgyro_collision_kernel_info{{kernel=\"{kernel}\"}} 1\n"
        ));
    }
    s
}

fn push_prom_hist_family(
    s: &mut String,
    name: &str,
    help: &str,
    snap: impl Fn(Phase) -> Snapshot,
) {
    s.push_str(&format!("# HELP {name} {help}\n"));
    s.push_str(&format!("# TYPE {name} histogram\n"));
    for phase in PHASES {
        let h = snap(phase);
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            cum += c;
            let le = match bucket_bound(i) {
                Some(b) => fmt_seconds(b),
                None => "+Inf".to_string(),
            };
            s.push_str(&format!(
                "{name}_bucket{{phase=\"{phase}\",le=\"{le}\"}} {cum}\n"
            ));
        }
        s.push_str(&format!(
            "{name}_sum{{phase=\"{phase}\"}} {}\n",
            fmt_seconds(h.sum)
        ));
        s.push_str(&format!("{name}_count{{phase=\"{phase}\"}} {}\n", h.count));
    }
}

/// Microseconds → seconds, trailing zeros trimmed (`1500 → "0.0015"`,
/// `2_000_000 → "2"`). Prometheus values are floats; exact short decimals
/// keep the text diffable.
fn fmt_seconds(us: u64) -> String {
    let mut s = format!("{}.{:06}", us / 1_000_000, us % 1_000_000);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Render a human-readable per-phase wall-time table: count, total busy,
/// mean, p99, comm-wait total, and comm-wait share of busy. Empty phases
/// are skipped; returns `None` when nothing has been recorded (callers
/// then skip printing the table entirely).
pub fn render_table(reg: &Registry) -> Option<String> {
    let mut out = String::from(
        "phase     spans     busy(ms)     mean(us)      p99(us) comm-wait(ms)  wait%\n",
    );
    let mut any = false;
    for phase in PHASES {
        let m = reg.phase(phase);
        let busy = m.busy.snapshot();
        let wait = m.comm_wait.snapshot();
        if busy.is_empty() && wait.is_empty() {
            continue;
        }
        any = true;
        let wait_pct = if busy.sum > 0 {
            100.0 * wait.sum as f64 / busy.sum as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<9} {:>5} {:>12.3} {:>12.1} {:>12} {:>13.3} {:>5.1}%\n",
            phase.label(),
            busy.count,
            busy.sum as f64 / 1000.0,
            busy.mean_us().unwrap_or(0.0),
            busy.p99_us().unwrap_or(0),
            wait.sum as f64 / 1000.0,
            wait_pct,
        ));
    }
    any.then_some(out)
}

/// One sample parsed from Prometheus text: metric name, sorted labels, and
/// value.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (e.g. `xgyro_phase_busy_seconds_sum`).
    pub name: String,
    /// Label pairs as written, in order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`-safe: parsed as f64).
    pub value: f64,
}

impl PromSample {
    /// Look up a label value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text exposition into samples. Comment and blank lines
/// are skipped; a malformed sample line yields `Err` with a line-numbered
/// message (this is what the `promlint` CI tool builds on).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}: {raw}", ln + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    // <name>[{k="v",...}] <value>
    let (head, value) = line
        .rsplit_once(|c: char| c.is_whitespace())
        .ok_or("missing value")?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|_| "unparseable value")?,
    };
    let head = head.trim();
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').ok_or("unterminated label set")?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or("label without '='")?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or("unquoted label value")?;
                labels.push((k.trim().to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err("invalid metric name".into());
    }
    Ok(PromSample { name, labels, value })
}

/// Structural checks over parsed samples: histogram buckets must be
/// cumulative and end with `+Inf` matching `_count`; every sample of one
/// name must carry the same label keys. Returns the number of samples on
/// success. This is the body of the `promlint` CI tool, kept in the
/// library so tests can call it.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    let samples = parse_prometheus(text)?;
    // Group bucket series by (family, non-le labels).
    type BucketGroup = (String, Vec<(String, String)>, Vec<(f64, f64)>);
    let mut groups: Vec<BucketGroup> = Vec::new();
    for s in &samples {
        if let Some(family) = s.name.strip_suffix("_bucket") {
            let le = s
                .label("le")
                .ok_or_else(|| format!("{}: bucket without le label", s.name))?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("{}: bad le value {le}", s.name))?
            };
            let key_labels: Vec<_> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            match groups
                .iter_mut()
                .find(|(f, k, _)| f == family && *k == key_labels)
            {
                Some((_, _, buckets)) => buckets.push((le, s.value)),
                None => groups.push((family.to_string(), key_labels, vec![(le, s.value)])),
            }
        }
    }
    for (family, labels, buckets) in &groups {
        let ctx = format!("{family}{labels:?}");
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for &(le, cum) in buckets {
            if le <= prev_le {
                return Err(format!("{ctx}: le values not increasing"));
            }
            if cum < prev_cum {
                return Err(format!("{ctx}: bucket counts not cumulative"));
            }
            prev_le = le;
            prev_cum = cum;
        }
        let last = buckets.last().ok_or_else(|| format!("{ctx}: no buckets"))?;
        if last.0 != f64::INFINITY {
            return Err(format!("{ctx}: missing +Inf bucket"));
        }
        let count = samples
            .iter()
            .find(|s| {
                s.name == format!("{family}_count")
                    && labels.iter().all(|(k, v)| s.label(k) == Some(v))
            })
            .ok_or_else(|| format!("{ctx}: histogram without _count"))?;
        if count.value != last.1 {
            return Err(format!(
                "{ctx}: +Inf bucket {} != _count {}",
                last.1, count.value
            ));
        }
        samples
            .iter()
            .find(|s| {
                s.name == format!("{family}_sum")
                    && labels.iter().all(|(k, v)| s.label(k) == Some(v))
            })
            .ok_or_else(|| format!("{ctx}: histogram without _sum"))?;
    }
    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn test_registry() -> Registry {
        let reg = Registry::default();
        reg.record_busy_us(Phase::Str, 100);
        reg.record_busy_us(Phase::Str, 200);
        reg.record_comm_wait_us(Phase::Str, 40);
        reg.record_busy_us(Phase::Coll, 1000);
        reg.record_recovery_waste_us(1500);
        reg.record_rebalance_moved_rows(6);
        reg.record_world_spawn_count();
        reg.record_world_spawn_count();
        reg.record_cmat_build_count();
        reg.record_journal_append_us();
        reg.record_journal_append_us();
        reg.record_journal_fsync_us(2500);
        reg.record_journal_replay_us(12_000);
        reg.record_cache_hit_bytes(4096);
        reg.record_cache_miss_count();
        reg.set_collision_kernel("avx2/t64");
        reg
    }

    #[test]
    fn json_emits_active_phases_and_null_for_empty_aggregates() {
        let reg = test_registry();
        let json = to_json(&reg);
        assert!(json.contains("\"schema\": \"xg-obs-v1\""));
        assert!(json.contains("\"str\""));
        assert!(json.contains("\"coll\""));
        assert!(!json.contains("\"diag\""), "empty phase leaked: {json}");
        // coll has busy but no comm-wait: its wait aggregates are null.
        assert!(json.contains("\"comm_wait_us\": {\"count\": 0, \"sum\": 0, \"min\": null"));
        assert!(json.contains("\"recovery\": {\"events\": 1, \"wasted_us\": 1500}"));
        assert!(json.contains("\"rebalance\": {\"events\": 1, \"moved_rows\": 6}"));
        assert!(json.contains("\"session\": {\"world_spawns\": 2, \"cmat_builds\": 1}"));
        assert!(json.contains("\"journal\": {\"appends\": 2, \"fsyncs\": 1, \"fsync_us\": 2500}"));
        assert!(json.contains("\"replay\": {\"count\": 1, \"wall_us\": 12000}"));
        assert!(json.contains("\"cache\": {\"hits\": 1, \"misses\": 1, \"bytes_saved\": 4096}"));
        assert!(json.contains("\"collision_kernel\": \"avx2/t64\""));
    }

    #[test]
    fn empty_registry_json_is_well_formed() {
        let json = to_json(&Registry::default());
        assert!(json.contains("\"phases\": {}"));
        assert!(json.contains("\"recovery\": {\"events\": 0, \"wasted_us\": 0}"));
        assert!(json.contains("\"rebalance\": {\"events\": 0, \"moved_rows\": 0}"));
        assert!(json.contains("\"journal\": {\"appends\": 0, \"fsyncs\": 0, \"fsync_us\": 0}"));
        assert!(json.contains("\"replay\": {\"count\": 0, \"wall_us\": 0}"));
        assert!(json.contains("\"cache\": {\"hits\": 0, \"misses\": 0, \"bytes_saved\": 0}"));
        assert!(json.contains("\"collision_kernel\": null"));
    }

    #[test]
    fn prometheus_text_passes_the_linter() {
        let reg = test_registry();
        let text = to_prometheus(&reg);
        assert!(text.contains("# TYPE xgyro_phase_busy_seconds histogram"));
        assert!(text.contains("xgyro_phase_busy_seconds_count{phase=\"str\"} 2"));
        assert!(text.contains("xgyro_phase_busy_seconds_sum{phase=\"str\"} 0.0003"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("xgyro_recovery_wasted_seconds_total 0.0015"));
        assert!(text.contains("xgyro_rebalance_events_total 1"));
        assert!(text.contains("xgyro_world_spawns_total 2"));
        assert!(text.contains("xgyro_cmat_builds_total 1"));
        assert!(text.contains("xgyro_rebalance_moved_rows_total 6"));
        assert!(text.contains("xgyro_journal_appends_total 2"));
        assert!(text.contains("xgyro_journal_fsyncs_total 1"));
        assert!(text.contains("xgyro_journal_fsync_seconds_total 0.0025"));
        assert!(text.contains("xgyro_journal_replays_total 1"));
        assert!(text.contains("xgyro_journal_replay_seconds_total 0.012"));
        assert!(text.contains("xgyro_cache_hits_total 1"));
        assert!(text.contains("xgyro_cache_misses_total 1"));
        assert!(text.contains("xgyro_cache_bytes_saved_total 4096"));
        assert!(text.contains("xgyro_collision_kernel_info{kernel=\"avx2/t64\"} 1"));
        assert!(
            !to_prometheus(&Registry::default()).contains("xgyro_collision_kernel_info"),
            "info metric must be omitted until a kernel is recorded"
        );
        let n = lint_prometheus(&text).expect("own exposition must lint clean");
        assert!(n > 100, "expected full bucket series, got {n} samples");
    }

    #[test]
    fn parser_roundtrips_labels_and_inf() {
        let text = "m_bucket{phase=\"str\",le=\"+Inf\"} 7\nplain 1.5\n# comment\n";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].label("phase"), Some("str"));
        assert_eq!(samples[0].label("le"), Some("+Inf"));
        assert_eq!(samples[0].value, 7.0);
        assert_eq!(samples[1].name, "plain");
        assert_eq!(samples[1].value, 1.5);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("noval\n").is_err());
        assert!(parse_prometheus("m{unclosed=\"x\" 1\n").is_err());
        assert!(parse_prometheus("m{k=unquoted} 1\n").is_err());
        assert!(parse_prometheus("bad name 1 2\n").is_err());
    }

    #[test]
    fn linter_catches_structural_breakage() {
        // Non-cumulative buckets.
        let bad = "\
m_bucket{le=\"1\"} 5\nm_bucket{le=\"+Inf\"} 3\nm_sum 1\nm_count 3\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("cumulative"));
        // Missing +Inf.
        let bad = "m_bucket{le=\"1\"} 5\nm_sum 1\nm_count 5\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("+Inf"));
        // +Inf disagrees with _count.
        let bad = "m_bucket{le=\"+Inf\"} 5\nm_sum 1\nm_count 6\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("_count"));
        // Histogram without _sum.
        let bad = "m_bucket{le=\"+Inf\"} 5\nm_count 5\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("_sum"));
    }

    #[test]
    fn seconds_formatting_is_exact_and_short() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(1), "0.000001");
        assert_eq!(fmt_seconds(1500), "0.0015");
        assert_eq!(fmt_seconds(2_000_000), "2");
        assert_eq!(fmt_seconds(2_500_000), "2.5");
    }

    #[test]
    fn table_renders_active_phases_only() {
        let reg = test_registry();
        let table = render_table(&reg).unwrap();
        assert!(table.contains("str"));
        assert!(table.contains("coll"));
        assert!(!table.contains("diag"));
        assert!(render_table(&Registry::default()).is_none());
    }

    #[test]
    fn histogram_type_reexports() {
        // Guard: Histogram stays reachable at crate root (bench + comm use it).
        let h = Histogram::new();
        h.record(1);
        assert_eq!(h.snapshot().count, 1);
    }
}
