//! `xgyro` — run an ensemble of CGYRO-class input decks as one job with a
//! shared collisional constant tensor, mirroring how the real XGYRO is
//! invoked (a list of per-simulation input directories).
//!
//! ```text
//! xgyro --grid N1xN2 --reports R [--out DIR] SIM_DIR [SIM_DIR ...]
//! ```
//!
//! Each `SIM_DIR` must contain `input.cgyro`. Results (`out.diag.csv`, one
//! per member) and a run summary are written to `--out` (default: each
//! member's own directory).

use std::path::PathBuf;
use std::process::exit;
use xg_tensor::ProcGrid;
use xgyro_core::{run_xgyro_with_history, summarize_trace, EnsembleConfig};

struct Args {
    grid: ProcGrid,
    reports: usize,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    selftest: bool,
    dirs: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xgyro --grid N1xN2 [--reports R] [--out DIR] [--trace FILE]\n\
         \x20            [--selftest] SIM_DIR [SIM_DIR ...]\n\
         \n\
         Runs the simulations found in SIM_DIR/input.cgyro as a single XGYRO\n\
         ensemble (k = number of dirs) sharing one collisional constant tensor.\n\
         Spawns k * N1 * N2 worker threads (one per MPI-equivalent rank)."
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut grid = None;
    let mut reports = 1usize;
    let mut out = None;
    let mut trace = None;
    let mut selftest = false;
    let mut dirs = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => {
                let v = it.next().unwrap_or_else(|| usage());
                let Some((a, b)) = v.split_once('x') else { usage() };
                let (Ok(n1), Ok(n2)) = (a.parse(), b.parse()) else { usage() };
                grid = Some(ProcGrid::new(n1, n2));
            }
            "--reports" => {
                reports = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--selftest" => selftest = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage()
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    if dirs.is_empty() {
        usage()
    }
    Args { grid: grid.unwrap_or_else(|| usage()), reports, out, trace, selftest, dirs }
}

fn main() {
    let args = parse_args();
    let cfg = match EnsembleConfig::from_deck_dirs(&args.dirs, args.grid) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xgyro: ensemble rejected: {e}");
            exit(1);
        }
    };
    eprintln!(
        "xgyro: k={} simulations, {}x{} grid each, {} ranks total, cmat key {:#018x}",
        cfg.k(),
        cfg.grid().n1,
        cfg.grid().n2,
        cfg.total_ranks(),
        cfg.cmat_key()
    );
    let start = std::time::Instant::now();
    let (outcome, histories) = run_xgyro_with_history(&cfg, args.reports);
    let wall = start.elapsed().as_secs_f64();

    for (i, hist) in histories.iter().enumerate() {
        let dir = args.out.clone().unwrap_or_else(|| args.dirs[i].clone());
        let path = dir.join(format!("out.diag.{i:02}.csv"));
        if let Err(e) = std::fs::write(&path, hist.to_csv()) {
            eprintln!("xgyro: cannot write {}: {e}", path.display());
            exit(1);
        }
        let last = hist.entries().last().expect("at least one report");
        println!(
            "sim {i:2}: t={:8.3}  |phi|^2={:.4e}  Q={:+.4e}  -> {}",
            last.time,
            last.field_energy,
            last.heat_flux,
            path.display()
        );
    }
    let cmat_per_rank: u64 =
        outcome.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).copied().max().unwrap_or(0);
    println!(
        "done: {} reporting steps in {:.2}s wall; cmat {} B/rank (1/{} of a full copy)",
        args.reports,
        wall,
        cmat_per_rank,
        cfg.k() * cfg.grid().n1 * cfg.grid().n2
    );
    if let Some(path) = &args.trace {
        // Stamp the trace with the tuned collision-kernel level (the cached
        // choice the topologies resolved at build time) and the process's
        // level cap, so xgreplay can report them offline.
        let dims = cfg.members()[0].dims();
        let kernel = xg_linalg::tuned_level(dims.nv, cfg.k());
        let meta_owned = [
            ("kernel", kernel.to_string()),
            ("simd_level", xg_linalg::selected_level().to_string()),
        ];
        let meta: Vec<(&str, &str)> =
            meta_owned.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let csv = xg_comm::traces_to_csv_with_meta(&outcome.traces, &meta);
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("xgyro: cannot write trace {}: {e}", path.display());
            exit(1);
        }
        println!(
            "communication trace written to {} (collision kernel {kernel})",
            path.display()
        );
    }
    let s = summarize_trace(&outcome.traces[0]);
    println!("\nrank-0 communication summary:\n{}", s.to_table());
    // Per-phase wall-time table from the real timers (all ranks, so sums
    // are rank-time). Empty when XGYRO_OBS=0.
    if let Some(table) = xg_obs::expo::render_table(xg_obs::Registry::global()) {
        println!("per-phase wall time (all ranks, XGYRO_OBS=0 to disable):\n{table}");
    }

    if args.selftest {
        // Re-run every member as an independent CGYRO job on the same
        // per-simulation grid and require bitwise-identical trajectories —
        // the strongest runtime check that sharing cmat changed nothing.
        eprintln!("selftest: re-running {} members as independent CGYRO jobs...", cfg.k());
        let steps = args.reports * cfg.members()[0].steps_per_report;
        let baseline = xgyro_core::run_cgyro_baseline(&cfg, steps);
        let mut failures = 0;
        for (x, c) in outcome.sims.iter().zip(&baseline.sims) {
            if x.h.as_slice() != c.h.as_slice() {
                eprintln!("selftest: sim {} DIVERGED from its CGYRO baseline", x.sim);
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("selftest FAILED: {failures} member(s) diverged");
            exit(1);
        }
        println!("selftest passed: all {} members bitwise-match independent CGYRO runs", cfg.k());
    }
}
