//! The repo benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! xg-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! xg-benchmark run   [--seed N] [--seconds S] [--runs R] [--out FILE]   end-to-end pass, all workloads
//! xg-benchmark trace [--seed N] [--seconds S] [--out FILE]             traced pass, all workloads
//! xg-benchmark compare A.json B.json                                   apply the bounds to two result files
//! ```

mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod provenance;
mod report;
mod span;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Where result files, span files and server scratch directories go: the
/// benchmark's own `out/`, whatever the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("cannot read '{raw}' for {flag}"))
}

/// One workload in this process: what the driver calls, and what `run` and
/// `trace` call once per workload so that allocator state and the
/// process-global `xg_obs` registry never leak from one workload to the next.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload '{name}'; there are {}", names.join(", "))
    })?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(report::RUN_SECONDS);
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let budget = Duration::from_secs(seconds);

    let stamp = provenance::Stamp::begin(seed);
    // The end-to-end pass measures with observability off; the traced pass
    // turns it on to read the product's phase histograms.
    xg_obs::set_enabled(traced);
    let outcome = if traced {
        trace::run_traced(workload, seed, budget)
    } else {
        workloads::run_end_to_end(workload, seed, budget)
    };
    let pass = if traced {
        report::Pass::Trace
    } else {
        report::Pass::Run
    };
    let result = report::WorkloadResult {
        workload: workload.name,
        pass,
        seed,
        outcome,
        provenance: stamp.finish(),
    };
    result.print_table();
    result
        .write_file()
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    // Last line of standard output: the one the driver reads.
    println!("{}", json::render(&result.driver_line()));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => report::run_all(report::Pass::Run, &args[1..]),
        Some("trace") => report::run_all(report::Pass::Trace, &args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some(a) if a.starts_with("--") => single(args),
        _ => {
            Err("expected run, trace, compare, or --workload NAME (see benchmark/README.md)".into())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("xg-benchmark: {e}");
        ExitCode::from(2)
    })
}
