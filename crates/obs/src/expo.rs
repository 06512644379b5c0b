//! Exposition: Prometheus text format and a human phase table.
//!
//! The Prometheus renderer follows the text exposition format (hand-rolled:
//! the vendored serde is a marker-only stub; families come out in a fixed
//! order so snapshots diff cleanly): `# HELP` / `# TYPE` per family, histograms as cumulative `_bucket`
//! series with `le` labels ending in `+Inf`, plus `_sum` and `_count`.
//! [`parse_prometheus`] reads that format back (enough of it for `xgplan
//! --profile` and the CI linter — full-line comments, labels, numeric
//! values).

use crate::hist::{bucket_bound, Snapshot};
use crate::{Phase, Registry, PHASES};

/// Render a registry snapshot in the Prometheus text exposition format.
///
/// Families (all in seconds, per Prometheus convention):
/// * `xgyro_phase_busy_seconds` — histogram, label `phase`;
/// * `xgyro_phase_comm_wait_seconds` — histogram, label `phase`;
/// * `xgyro_world_spawns_total`, `xgyro_cmat_builds_total` — counters;
/// * `xgyro_collision_kernel_info` — info gauge, label `kernel`.
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
    let (spawns, builds) = reg.session_stats();
    s.push_str("# HELP xgyro_world_spawns_total Ensemble worlds spawned (session opens).\n");
    s.push_str("# TYPE xgyro_world_spawns_total counter\n");
    s.push_str(&format!("xgyro_world_spawns_total {spawns}\n"));
    s.push_str("# HELP xgyro_cmat_builds_total Factorizations of the shared cmat.\n");
    s.push_str("# TYPE xgyro_cmat_builds_total counter\n");
    s.push_str(&format!("xgyro_cmat_builds_total {builds}\n"));
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
        reg.record_world_spawn_count();
        reg.record_world_spawn_count();
        reg.record_cmat_build_count();
        reg.set_collision_kernel("avx2/t64");
        reg
    }

    #[test]
    fn prometheus_text_passes_the_linter() {
        let reg = test_registry();
        let text = to_prometheus(&reg);
        assert!(text.contains("# TYPE xgyro_phase_busy_seconds histogram"));
        assert!(text.contains("xgyro_phase_busy_seconds_count{phase=\"str\"} 2"));
        assert!(text.contains("xgyro_phase_busy_seconds_sum{phase=\"str\"} 0.0003"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("xgyro_world_spawns_total 2"));
        assert!(text.contains("xgyro_cmat_builds_total 1"));
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
