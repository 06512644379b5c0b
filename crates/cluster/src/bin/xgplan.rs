//! `xgplan` — plan a CGYRO/XGYRO campaign on a modeled machine before
//! burning an allocation.
//!
//! ```text
//! xgplan --deck input.cgyro [--machine FILE|PRESET] [--variants N]
//!        [--nodes N] [--reports R] [--profile FILE]
//! ```
//!
//! `--profile` closes the loop between forecast and reality: FILE is a
//! Prometheus scrape from a run with `XGYRO_OBS=1` (`xgyro`'s exporter or
//! `xgq metrics --out FILE`), and xgplan prints the measured
//! per-phase wall time next to its own predictions.
//!
//! Prints: the deck's memory law, the minimum feasible allocation, the
//! per-ensemble-size forecast on the chosen node count, and the cheapest
//! batching of the requested variants.

use std::process::exit;
use xg_costmodel::{parse_machine, preset, MachineModel, PRESET_NAMES};
use xg_sim::load_deck;

fn usage() -> ! {
    eprintln!(
        "usage: xgplan --deck input.cgyro [--machine FILE|PRESET] [--variants N]\n\
         \u{20}                [--nodes N] [--reports R] [--profile FILE]\n\
         \u{20}  --variants, --nodes, --reports: whole numbers, each at least 1\n\
         \u{20}  --profile:    Prometheus scrape of a measured run (XGYRO_OBS=1);\n\
         \u{20}                printed as measured-vs-predicted phase time\n\
         presets: {}",
        PRESET_NAMES.join(", ")
    );
    exit(2)
}

/// The value of a count flag (`--variants`, `--nodes`, `--reports`): a
/// whole number of at least 1, else a usage error.
fn count(v: Option<String>) -> usize {
    v.and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(|| usage())
}

fn main() {
    let mut deck_path = None;
    let mut machine: Option<MachineModel> = None;
    let mut variants = 8usize;
    let mut nodes: Option<usize> = None;
    let mut reports = 10usize;
    let mut profile: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deck" => deck_path = Some(it.next().unwrap_or_else(|| usage())),
            "--machine" => {
                let v = it.next().unwrap_or_else(|| usage());
                machine = Some(match preset(&v) {
                    Some(m) => m,
                    None => match std::fs::read_to_string(&v) {
                        Ok(text) => parse_machine(&text).unwrap_or_else(|e| {
                            eprintln!("xgplan: {e}");
                            exit(1);
                        }),
                        Err(e) => {
                            eprintln!("xgplan: '{v}' is neither a preset nor a readable file: {e}");
                            exit(1);
                        }
                    },
                });
            }
            "--variants" => variants = count(it.next()),
            "--nodes" => nodes = Some(count(it.next())),
            "--reports" => reports = count(it.next()),
            "--profile" => profile = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let deck_path = deck_path.unwrap_or_else(|| usage());
    let input = load_deck(std::path::Path::new(&deck_path)).unwrap_or_else(|e| {
        eprintln!("xgplan: {e}");
        exit(1);
    });
    let machine = machine.unwrap_or_else(MachineModel::frontier_like);
    let policy = xg_cluster::SchedulePolicy::production();

    let d = input.dims();
    println!(
        "deck: nc={} nv={} nt={}  cmat={:.3} TB  key={:#018x}",
        d.nc,
        d.nv,
        d.nt,
        xg_sim::cmat_total_bytes(&input) as f64 / 1e12,
        input.cmat_key()
    );
    println!(
        "machine: {} ({} ranks/node, {:.1} GB usable/rank)",
        machine.name,
        machine.ranks_per_node,
        machine.usable_mem_per_rank() as f64 / 1e9
    );

    let Some(single) = xg_cluster::min_nodes(&input, 1, &machine, 4096) else {
        println!("this deck does not fit on the machine at any allocation up to 4096 nodes");
        exit(1);
    };
    println!(
        "\nminimum single-simulation allocation: {} nodes ({} ranks, grid {}x{}, {:.1} GB/rank)",
        single.nodes,
        single.ranks,
        single.grid.n1,
        single.grid.n2,
        single.per_rank_bytes as f64 / 1e9
    );

    let nodes = nodes.unwrap_or(single.nodes);
    println!("\nensemble forecast on {nodes} nodes ({reports} reporting steps):");
    println!("  k     feasible   s/report   speedup   cmat-saved(TB)");
    for k in [1usize, 2, 4, 8, 16, 32] {
        if k > variants * 4 {
            break;
        }
        match xg_cluster::diagnose(&input, k, nodes, &machine, false) {
            Ok(p) => {
                let xg = xg_cluster::simulate_xgyro(&input, p.grid, k, nodes, &machine, &policy);
                let cg = xg_cluster::simulate_cgyro_sequential(
                    &input, single.grid, k, nodes, &machine, &policy,
                );
                println!(
                    "  {:<5} {:>8}   {:>8.1}   {:>7.2}x   {:>14.3}",
                    k,
                    "yes",
                    xg.total(),
                    cg.total() / xg.total(),
                    xg_costmodel::memory::cmat_saved_bytes(k, d) as f64 / 1e12
                );
            }
            Err(e) => println!("  {:<5} no ({}): {}", k, e.kind(), e),
        }
    }

    match xg_cluster::optimize_campaign(&input, variants, nodes, reports, &machine, &policy) {
        Some(plan) => {
            let best = plan.best();
            println!(
                "\ncheapest batching for {variants} variants x {reports} reports: \
                 {} batch(es) of k={} -> {:.1} node-hours",
                best.batches, best.k, best.node_hours
            );
            if let Some(base) = plan.baseline() {
                println!(
                    "  (sequential baseline: {:.1} node-hours; saving {:.0}%)",
                    base.node_hours,
                    100.0 * (1.0 - best.node_hours / base.node_hours)
                );
            }
        }
        None => println!("\nno feasible batching for {variants} variants on {nodes} nodes"),
    }

    if let Some(path) = profile {
        print_measured_profile(&path);
    }
}

/// Render a measured per-phase profile from a Prometheus scrape next to the
/// forecast above: `xgyro_phase_busy_seconds_{sum,count}` and
/// `xgyro_phase_comm_wait_seconds_sum`, per `phase` label.
fn print_measured_profile(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("xgplan: cannot read profile {path}: {e}");
        exit(1);
    });
    let samples = xg_obs::expo::parse_prometheus(&text).unwrap_or_else(|e| {
        eprintln!("xgplan: profile {path} is not valid Prometheus text: {e}");
        exit(1);
    });
    // phase → (spans, busy seconds, comm-wait seconds).
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    fn row<'a>(
        rows: &'a mut Vec<(String, f64, f64, f64)>,
        phase: &str,
    ) -> &'a mut (String, f64, f64, f64) {
        if let Some(pos) = rows.iter().position(|(p, ..)| p == phase) {
            return &mut rows[pos];
        }
        rows.push((phase.to_string(), 0.0, 0.0, 0.0));
        rows.last_mut().unwrap()
    }
    for s in &samples {
        let Some(phase) = s.label("phase") else { continue };
        match s.name.as_str() {
            "xgyro_phase_busy_seconds_count" => row(&mut rows, phase).1 += s.value,
            "xgyro_phase_busy_seconds_sum" => row(&mut rows, phase).2 += s.value,
            "xgyro_phase_comm_wait_seconds_sum" => row(&mut rows, phase).3 += s.value,
            _ => {}
        }
    }
    rows.retain(|(_, spans, ..)| *spans > 0.0);
    if rows.is_empty() {
        println!(
            "\nmeasured profile {path}: no phase timings (run recorded with XGYRO_OBS=0?)"
        );
        return;
    }
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let total_busy: f64 = rows.iter().map(|r| r.2).sum();
    println!(
        "\nmeasured profile ({path}) — compare with the predicted s/report column above:"
    );
    println!("  phase       spans    busy(s)  comm-wait(s)  wait%  busy-share");
    for (phase, spans, busy, wait) in &rows {
        println!(
            "  {phase:<8} {spans:>8.0} {busy:>10.3} {wait:>13.3} {:>5.1}% {:>10.1}%",
            if *busy > 0.0 { 100.0 * wait / busy } else { 0.0 },
            if total_busy > 0.0 { 100.0 * busy / total_busy } else { 0.0 },
        );
    }
}
