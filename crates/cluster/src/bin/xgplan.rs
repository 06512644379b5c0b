//! `xgplan` — plan a CGYRO/XGYRO campaign on a modeled machine before
//! burning an allocation.
//!
//! ```text
//! xgplan --deck input.cgyro [--machine FILE|PRESET] [--variants N]
//!        [--nodes N] [--reports R] [--mtbf-hours H] [--restart-s S]
//!        [--journal-fsync-ms MS] [--submit-rate-hz HZ] [--profile FILE]
//!        [--hit-rate P]
//! ```
//!
//! `--hit-rate P` prices a warmed result cache (`xgqueued --artifacts`)
//! into the forecast: a fraction P of the campaign's members are expected
//! to be served from the artifact store at admission, so only the missing
//! `(1 - P)` fraction pays compute.
//!
//! `--profile` closes the loop between forecast and reality: FILE is a
//! Prometheus scrape from a run with `XGYRO_OBS=1` (`xgyro`'s exporter or
//! `xgq metrics --out FILE`), and xgplan prints the measured
//! per-phase wall time next to its own predictions.
//!
//! Prints: the deck's memory law, the minimum feasible allocation, the
//! per-ensemble-size forecast on the chosen node count — including the
//! MTBF-aware expected time-to-solution (a k-member job occupies k× the
//! nodes, so its MTBF is k× worse; checkpoint/restart overhead is priced
//! at the Young-optimal cadence) — an MTBF sensitivity sweep, the
//! recommended `xgqueued --journal-sync` cadence (the same Young formula
//! applied to the daemon's write-ahead log), and the cheapest batching of
//! the requested variants.

use std::process::exit;
use xg_cluster::FailureModel;
use xg_costmodel::{parse_machine, preset, MachineModel, PRESET_NAMES};
use xg_sim::load_deck;

fn usage() -> ! {
    eprintln!(
        "usage: xgplan --deck input.cgyro [--machine FILE|PRESET] [--variants N]\n\
         \u{20}                [--nodes N] [--reports R] [--mtbf-hours H] [--restart-s S]\n\
         \u{20}                [--journal-fsync-ms MS] [--submit-rate-hz HZ] [--profile FILE]\n\
         \u{20}  --profile:    Prometheus scrape of a measured run (XGYRO_OBS=1);\n\
         \u{20}                printed as measured-vs-predicted phase time\n\
         \u{20}  --mtbf-hours: single-node MTBF in hours (default ~52000, a\n\
         \u{20}                9000-node system failing every ~6 hours)\n\
         \u{20}  --restart-s:  restart/requeue cost in seconds (default 600)\n\
         \u{20}  --journal-fsync-ms: one journal fsync's cost in ms (default 5);\n\
         \u{20}                sizes the recommended xgqueued --journal-sync\n\
         \u{20}  --submit-rate-hz: campaign submit arrival rate (default 10)\n\
         \u{20}  --hit-rate:   expected artifact-cache hit rate in [0,1] (default 0);\n\
         \u{20}                scales campaign ETTS by the missing fraction\n\
         presets: {}",
        PRESET_NAMES.join(", ")
    );
    exit(2)
}

fn main() {
    let mut deck_path = None;
    let mut machine: Option<MachineModel> = None;
    let mut variants = 8usize;
    let mut nodes: Option<usize> = None;
    let mut reports = 10usize;
    let mut mtbf_hours: Option<f64> = None;
    let mut restart_s = 600.0f64;
    let mut journal_fsync_ms = 5.0f64;
    let mut submit_rate_hz = 10.0f64;
    let mut profile: Option<String> = None;
    let mut hit_rate = 0.0f64;
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
            "--variants" => {
                variants = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--nodes" => {
                nodes = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--reports" => {
                reports = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--mtbf-hours" => {
                mtbf_hours =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--restart-s" => {
                restart_s = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--journal-fsync-ms" => {
                journal_fsync_ms =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--submit-rate-hz" => {
                submit_rate_hz =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--profile" => profile = Some(it.next().unwrap_or_else(|| usage())),
            "--hit-rate" => {
                hit_rate = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
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
    if mtbf_hours.is_some_and(|h| h <= 0.0 || h.is_nan()) {
        eprintln!("xgplan: --mtbf-hours must be positive");
        exit(1);
    }
    if restart_s < 0.0 || restart_s.is_nan() {
        eprintln!("xgplan: --restart-s must be non-negative");
        exit(1);
    }
    if journal_fsync_ms <= 0.0 || journal_fsync_ms.is_nan() {
        eprintln!("xgplan: --journal-fsync-ms must be positive");
        exit(1);
    }
    if submit_rate_hz < 0.0 || submit_rate_hz.is_nan() {
        eprintln!("xgplan: --submit-rate-hz must be non-negative");
        exit(1);
    }
    if !(0.0..=1.0).contains(&hit_rate) {
        eprintln!("xgplan: --hit-rate must be in [0, 1]");
        exit(1);
    }
    let fm = FailureModel {
        node_mtbf_s: mtbf_hours
            .map(|h| h * 3600.0)
            .unwrap_or(FailureModel::frontier_like().node_mtbf_s),
        restart_s,
    };
    println!(
        "\nfailure model: node MTBF {:.0} h, job MTBF on {} nodes {:.1} h, restart {:.0} s",
        fm.node_mtbf_s / 3600.0,
        nodes,
        fm.job_mtbf(nodes) / 3600.0,
        fm.restart_s
    );
    // The daemon's journal faces the same checkpoint trade-off as the
    // simulation, scaled down: price its fsync cadence with the same Young
    // formula. The daemon lives on one node, so its MTBF is the node's.
    let jsp = xg_cluster::journal_sync_plan(
        submit_rate_hz,
        journal_fsync_ms / 1000.0,
        fm.node_mtbf_s,
    );
    println!(
        "journal sync plan: at {:.1} submits/s and {:.1} ms/fsync, Young cadence {:.0} s \
         -> xgqueued --journal-sync {} ({:.1} fsyncs/h, E[lost appends per crash] {:.1}; \
         --journal-sync 1 loses none)",
        jsp.append_rate_hz,
        jsp.fsync_s * 1e3,
        jsp.tau_s,
        jsp.sync_every,
        jsp.fsyncs_per_hour,
        jsp.expected_lost_appends
    );
    println!("\nensemble forecast on {nodes} nodes ({reports} reporting steps):");
    println!(
        "  k     feasible   s/report   speedup    ETTS(h)   ETTS-speedup   cmat-saved(TB)"
    );
    let mut sweep_k = None;
    let mut last_etts: Option<(usize, f64)> = None;
    for k in [1usize, 2, 4, 8, 16, 32] {
        if k > variants.max(1) * 4 {
            break;
        }
        match xg_cluster::diagnose(&input, k, nodes, &machine, false) {
            Ok(p) => {
                let xg = xg_cluster::simulate_xgyro(&input, p.grid, k, nodes, &machine, &policy);
                let cg = xg_cluster::simulate_cgyro_sequential(
                    &input, single.grid, k, nodes, &machine, &policy,
                );
                // Expected time-to-solution: the k-member job checkpoints k
                // member images and fails k× as often as one simulation's
                // allocation would; the sequential baseline runs k separate
                // k=1 jobs on the same nodes.
                let xg_etts = xg_cluster::expected_time_to_solution(
                    &input,
                    k,
                    nodes,
                    reports as f64 * xg.total(),
                    &machine,
                    &fm,
                );
                let cg_etts_s = k as f64
                    * xg_cluster::expected_time_to_solution(
                        &input,
                        1,
                        nodes,
                        reports as f64 * cg.total() / k as f64,
                        &machine,
                        &fm,
                    )
                    .etts_s;
                println!(
                    "  {:<5} {:>8}   {:>8.1}   {:>7.2}x   {:>8.2}   {:>11.2}x   {:>14.3}",
                    k,
                    "yes",
                    xg.total(),
                    cg.total() / xg.total(),
                    xg_etts.etts_s / 3600.0,
                    cg_etts_s / xg_etts.etts_s,
                    xg_costmodel::memory::cmat_saved_bytes(k, d) as f64 / 1e12
                );
                sweep_k = Some((k, reports as f64 * xg.total()));
                last_etts = Some((k, xg_etts.etts_s));
            }
            Err(e) => println!("  {:<5} no ({}): {}", k, e.kind(), e),
        }
    }

    if hit_rate > 0.0 {
        if let Some((k, etts_s)) = last_etts {
            // Hits complete at admission (a manifest lookup, not a run), so
            // the campaign's expected compute scales by the miss fraction.
            let adjusted = xg_costmodel::cache_adjusted_etts(etts_s, hit_rate);
            println!(
                "\nresult cache at {:.0}% hit rate (xgqueued --artifacts): expected k={k} \
                 campaign ETTS {:.2} h -> {:.2} h (only the {:.0}% missing fraction executes)",
                100.0 * hit_rate,
                etts_s / 3600.0,
                adjusted / 3600.0,
                100.0 * (1.0 - hit_rate)
            );
        }
    }

    if let Some((k, work_s)) = sweep_k {
        println!(
            "\nMTBF sensitivity (k={k}, {nodes} nodes, {:.1} h of failure-free work):",
            work_s / 3600.0
        );
        println!("  node-MTBF(h)   job-MTBF(h)   ckpt-cadence(min)   ETTS(h)   overhead");
        let mtbfs: Vec<f64> =
            [0.1, 0.3, 1.0, 3.0, 10.0].iter().map(|f| f * fm.node_mtbf_s).collect();
        for row in
            xg_cluster::mtbf_sweep(&input, k, nodes, work_s, &machine, fm.restart_s, &mtbfs)
        {
            println!(
                "  {:>12.0}   {:>11.1}   {:>17.1}   {:>7.2}   {:>7.1}%",
                row.node_mtbf_s / 3600.0,
                row.job_mtbf_s / 3600.0,
                row.tau_s / 60.0,
                row.etts_s / 3600.0,
                row.overhead * 100.0
            );
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
