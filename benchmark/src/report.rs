//! Result records: the table a person reads, the file a later comparison
//! reads, and the one line the driver reads.

use crate::json::{self, Json};
use crate::metrics::{self, Outcome, END_TO_END, PER_LAYER};
use crate::provenance::Provenance;
use crate::workloads::WORKLOADS;
use std::process::{Command, ExitCode, Stdio};

/// How long one run measures when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// End-to-end metrics, tracing and `XGYRO_OBS` off.
    Run,
    /// Per-layer metrics and spans.
    Trace,
}

impl Pass {
    pub fn label(self) -> &'static str {
        match self {
            Pass::Run => "run",
            Pass::Trace => "trace",
        }
    }

    /// The metrics this pass must print, in table order.
    fn expected(self) -> Vec<&'static str> {
        match self {
            Pass::Run => END_TO_END.iter().map(|m| m.name).collect(),
            Pass::Trace => PER_LAYER.iter().map(|m| m.name).collect(),
        }
    }
}

pub struct WorkloadResult {
    pub workload: &'static str,
    pub pass: Pass,
    pub seed: u64,
    pub outcome: Outcome,
    pub provenance: Provenance,
}

impl WorkloadResult {
    /// Nothing failed and every metric of the pass was measured.
    pub fn correct(&self) -> bool {
        let measured = |name: &&str| self.outcome.find(name).is_some();
        self.outcome.failed == 0
            && self.outcome.attempted > 0
            && self.pass.expected().iter().all(measured)
    }

    fn failed_share(&self) -> f64 {
        self.outcome.failed as f64 / self.outcome.attempted.max(1) as f64
    }

    /// Every metric by name, with its unit and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} ({}, seed {}) ==",
            self.workload,
            self.pass.label(),
            self.seed
        );
        if let Some(w) = crate::workloads::find(self.workload) {
            println!("   {}", w.why);
        }
        for name in self.pass.expected() {
            match self.outcome.find(name) {
                Some(m) => println!(
                    "{:<34} {:>16.6} {:<10} n={:<6} {} is better",
                    m.name,
                    m.value,
                    metrics::unit_of(m.name).unwrap_or(""),
                    m.samples,
                    metrics::direction_of(m.name)
                ),
                None => println!("{name:<34} {:>16} (not measured)", "-"),
            }
        }
        println!(
            "{:<34} {:>16.6} {:<10} n={} ({} failed)",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.outcome.attempted,
            self.outcome.failed
        );
    }

    fn metrics_json(&self, with_samples: bool) -> Json {
        Json::Obj(
            self.pass
                .expected()
                .into_iter()
                .filter_map(|name| self.outcome.find(name))
                .map(|m| {
                    let mut fields = vec![
                        ("value", json::num(m.value)),
                        ("unit", json::text(metrics::unit_of(m.name).unwrap_or(""))),
                    ];
                    if with_samples {
                        fields.push(("samples", json::num(m.samples as f64)));
                    }
                    (m.name.to_string(), json::obj(fields))
                })
                .collect(),
        )
    }

    /// `{"correct", "attempted", "failed", "metrics"}`, exactly.
    pub fn driver_line(&self) -> Json {
        json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", json::num(self.outcome.attempted as f64)),
            ("failed", json::num(self.outcome.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
    }

    fn file_name(pass: Pass, workload: &str) -> std::path::PathBuf {
        crate::out_dir().join(format!("result-{}-{workload}.json", pass.label()))
    }

    /// The result file: the driver line's content plus sample counts and
    /// provenance.
    pub fn write_file(&self) -> std::io::Result<()> {
        let doc = json::obj([
            ("workload", json::text(self.workload)),
            ("pass", json::text(self.pass.label())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", json::num(self.outcome.attempted as f64)),
            ("failed", json::num(self.outcome.failed as f64)),
            ("failed_share", json::num(self.failed_share())),
            ("metrics", self.metrics_json(true)),
            ("provenance", self.provenance.to_json()),
        ]);
        std::fs::create_dir_all(crate::out_dir())?;
        std::fs::write(
            Self::file_name(self.pass, self.workload),
            json::render(&doc) + "\n",
        )
    }
}

/// `run` and `trace`: every workload, each in a process of its own, `--runs`
/// times with seeds `seed, seed+1, …`; the result files are gathered into one.
pub fn run_all(pass: Pass, args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = crate::flag(args, "--seed")?.unwrap_or(1);
    let seconds: u64 = crate::flag(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    let runs: u64 = crate::flag(args, "--runs")?.unwrap_or(1);
    let out: String = crate::flag(args, "--out")?.unwrap_or_else(|| {
        crate::out_dir()
            .join(format!("{}.json", pass.label()))
            .to_string_lossy()
            .into_owned()
    });
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let (mut results, mut all_correct) = (Vec::new(), true);
    for run in 0..runs {
        for w in &WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &(seed + run).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if pass == Pass::Trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            all_correct &= status.success();
            let file = WorkloadResult::file_name(pass, w.name);
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{} left no result file {}: {e}", w.name, file.display()))?;
            results.push(Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?);
        }
    }
    let doc = json::obj([
        ("pass", json::text(pass.label())),
        ("results", Json::Arr(results)),
    ]);
    std::fs::write(&out, json::render(&doc) + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
