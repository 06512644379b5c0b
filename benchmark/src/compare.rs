//! `compare A.json B.json`: apply each end-to-end metric's bound, workload
//! by workload, to two result files written by `run`.

use crate::json::{as_f64, Json};
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// metric values per (workload, metric), plus failures per workload.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"results\" list"))?;
    let mut side = Side::default();
    for r in results {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: result without workload"))?;
        *side.failed.entry(workload.to_string()).or_default() +=
            r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(as_f64) {
                side.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side differ among themselves by more than the bound,
    /// so "no change" cannot be told from a change.
    Unresolved,
}

/// Judge a lower-is-better metric: medians `a` (before) and `b` (after), the
/// wider of the two run-to-run spreads, the relative bound and the absolute
/// floor under which a difference is not counted.
pub fn judge(a: f64, b: f64, spread: f64, bound: f64, floor: f64) -> Verdict {
    let delta = b - a;
    if delta.abs() <= floor {
        Verdict::Unchanged
    } else if delta > bound * a {
        Verdict::Regressed
    } else if -delta > bound * a {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

pub fn compare_files(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for ((workload, metric), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(def) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        // With a single run per side there is no spread to speak of.
        let spread_of = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
        let wider = spread_of(va).max(spread_of(vb));
        let verdict = judge(ma, mb, wider, def.bound, def.floor);
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<16} {metric:<20} {ma:>12.5} {mb:>12.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {verdict:?} (n={}/{})",
            (mb - ma) / ma * 100.0,
            wider * 100.0,
            def.bound * 100.0,
            va.len(),
            vb.len()
        );
    }
    for (workload, failed) in &b.failed {
        if *failed > 0 {
            regressed = true;
            println!("{workload:<16} {failed} operations failed in {b_path}: Regressed");
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_floor_and_spread() {
        assert_eq!(judge(1.0, 1.05, 0.01, 0.07, 0.0), Verdict::Unchanged);
        assert_eq!(judge(1.0, 1.08, 0.01, 0.07, 0.0), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.90, 0.01, 0.07, 0.0), Verdict::Improved);
        assert_eq!(judge(1.0, 1.05, 0.09, 0.07, 0.0), Verdict::Unresolved);
        // 10 ms → 14 ms is +40 %, but under the 20 ms floor.
        assert_eq!(judge(0.010, 0.014, 0.0, 0.25, 0.02), Verdict::Unchanged);
        assert_eq!(judge(0.50, 0.64, 0.0, 0.25, 0.02), Verdict::Regressed);
    }
}
