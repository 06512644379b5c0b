//! The traced pass: per-layer numbers for one workload, and a span file.
//!
//! Every workload is decomposed along the same two paths. The direct path
//! (`run_xgyro` on the workload's ensemble, or on one full batch of a
//! campaign's jobs) gives the phase, comm and topology numbers; the probes
//! time each layer's public functions at that ensemble's dimensions; the
//! served path (campaigns only) gives the lifecycle numbers. A metric of a
//! path the workload never takes is reported as 0.

use crate::gen;
use crate::json;
use crate::metrics::{Outcome, PER_LAYER};
use crate::probes::{self, Ctx};
use crate::span::{self, Recorder, SpanId};
use crate::stats::{median, percentile};
use crate::timed;
use crate::workloads::campaign::{self, Extras, Rep};
use crate::workloads::{ensemble, Kind, Workload};
use std::time::{Duration, Instant};
use xg_comm::{OpKind, OpRecord, World};
use xg_obs::Phase;
use xg_serve::ServerConfig;
use xg_sim::{Diagnostics, Simulation};
use xgyro_core::{build_xgyro_topology, run_cgyro_baseline, run_xgyro, EnsembleConfig, SimResult};

/// Run `f` as one top-level span. The sections of the pass follow one
/// another on this thread, so their spans add up to the pass's wall.
fn section<R>(rec: &Recorder, name: &str, f: impl FnOnce(SpanId) -> R) -> R {
    let id = rec.open(name, None, 0);
    let r = f(id);
    rec.close(id);
    r
}

/// What the direct path learned that later sections need.
struct Direct {
    /// Measured stepping time, setup taken out.
    step_ms: f64,
    str_reduce_len: usize,
    coll_block_len: usize,
    /// One member's real result, for the artifact probe to publish.
    member: SimResult,
}

/// The ensemble run once more with this file's own stepping loop, so that
/// spans can sit around world spawn, topology build, `Simulation::new` and
/// every reporting step of every rank. Returns each member's final
/// diagnostics (from its lead rank), the traffic logs and the wall.
fn spanned_run(
    rec: &Recorder,
    parent: SpanId,
    cfg: &EnsembleConfig,
    steps: usize,
) -> (Vec<Diagnostics>, Vec<Vec<OpRecord>>, f64) {
    let reports = steps / cfg.members()[0].steps_per_report;
    let world_span = rec.open("core.world", Some(parent), 0);
    let t0 = Instant::now();
    let ranks = World::new(cfg.total_ranks()).run_with_logs(|comm| {
        let entered = Instant::now();
        let group = comm.rank() as u64 + 1;
        let rank_span = rec.open("core.rank", Some(world_span), group);
        let (a, topo) = rec.time("core.topology_build", Some(rank_span), group, || {
            build_xgyro_topology(cfg, &comm)
        });
        let mut sim = rec.time("sim.new", Some(rank_span), group, || {
            Simulation::new(cfg.members()[a.sim].clone(), topo)
        });
        let mut last = sim.diagnostics();
        for _ in 0..reports {
            last = rec.time("sim.report_step", Some(rank_span), group, || {
                sim.run_report_step()
            });
        }
        rec.close(rank_span);
        (entered, a, last)
    });
    let wall = t0.elapsed().as_secs_f64();
    let first_rank = ranks
        .iter()
        .map(|((entered, ..), _)| *entered)
        .min()
        .unwrap_or(t0);
    rec.record("comm.world_spawn", Some(world_span), 0, t0, first_rank);
    rec.close(world_span);

    let mut diagnostics = vec![None; cfg.k()];
    let mut logs = Vec::new();
    for ((_, a, d), log) in ranks {
        if a.i1 == 0 && a.i2 == 0 {
            diagnostics[a.sim] = Some(d);
        }
        logs.push(log);
    }
    (
        diagnostics
            .into_iter()
            .map(|d| d.expect("every member has a lead rank"))
            .collect(),
        logs,
        wall,
    )
}

fn diag_bits(d: &Diagnostics) -> [u64; 4] {
    [d.time, d.field_energy, d.heat_flux, d.h_norm2].map(f64::to_bits)
}

/// The direct path: `cfg` through `run_xgyro` untraced, then through the
/// spanned loop with `XGYRO_OBS` on.
fn direct_path(
    rec: &Recorder,
    top: SpanId,
    cfg: &EnsembleConfig,
    steps: usize,
    out: &mut Outcome,
) -> Direct {
    xg_obs::set_enabled(false);
    // The same warm-up as the end-to-end pass.
    run_xgyro(cfg, cfg.members()[0].steps_per_report);
    let (_, setup_s) = timed(|| run_xgyro(cfg, 0));
    let (plain, plain_s) = rec.time("core.run_xgyro", Some(top), 0, || {
        timed(|| run_xgyro(cfg, steps))
    });
    let (baseline, baseline_s) = rec.time("core.run_cgyro_baseline", Some(top), 0, || {
        timed(|| run_cgyro_baseline(cfg, steps))
    });
    out.attempted += cfg.k() as u64;
    out.failed += ensemble::bitwise_mismatches(&plain, &baseline);

    xg_obs::set_enabled(true);
    let registry = xg_obs::Registry::global();
    registry.reset();
    let (diagnostics, logs, traced_s) = spanned_run(rec, top, cfg, steps);
    out.attempted += cfg.k() as u64;
    out.failed += diagnostics
        .iter()
        .zip(&plain.sims)
        .filter(|(d, s)| diag_bits(d) != diag_bits(&s.diagnostics))
        .count() as u64;

    let sum_s = |h: &xg_obs::Histogram| h.snapshot().sum as f64 / 1e6;
    for (name, phase) in [
        ("sim.phase_busy_s.str", Phase::Str),
        ("sim.phase_busy_s.nl", Phase::Nl),
        ("sim.phase_busy_s.coll", Phase::Coll),
        ("sim.phase_busy_s.field", Phase::Field),
    ] {
        let h = &registry.phase(phase).busy;
        out.push(name, sum_s(h), h.snapshot().count as usize);
    }
    for (name, phase) in [
        ("sim.phase_wait_s.str", Phase::Str),
        ("sim.phase_wait_s.nl", Phase::Nl),
        ("sim.phase_wait_s.coll", Phase::Coll),
    ] {
        let h = &registry.phase(phase).comm_wait;
        out.push(name, sum_s(h), h.snapshot().count as usize);
    }

    let records = || logs.iter().flatten();
    let rank_seconds = logs.len() as f64 * traced_s;
    for (name, phase) in [
        ("comm.wait_share.str", "str"),
        ("comm.wait_share.nl", "nl"),
        ("comm.wait_share.coll", "coll"),
    ] {
        let waited: u64 = records()
            .filter(|r| r.phase == phase)
            .map(|r| r.elapsed_us)
            .sum();
        out.push(
            name,
            waited as f64 / 1e6 / rank_seconds,
            records().filter(|r| r.phase == phase).count(),
        );
    }
    out.push(
        "comm.ops_per_step",
        records().count() as f64 / steps as f64,
        steps,
    );
    out.push(
        "comm.bytes_per_step",
        records().map(|r| r.bytes).sum::<u64>() as f64 / steps as f64,
        steps,
    );

    let topology_us = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.topology_build")
        .map(span::Span::duration_us)
        .max()
        .unwrap_or(0);
    out.push(
        "core.topology_build_s",
        topology_us as f64 / 1e6,
        logs.len(),
    );
    let step_ms = (plain_s - setup_s) * 1000.0 / steps as f64;
    out.push("core.step_ms", step_ms, steps);
    let max_bytes = |o: &xgyro_core::RunOutcome| {
        o.sims
            .iter()
            .flat_map(|s| s.cmat_bytes_per_rank.iter().copied())
            .max()
            .unwrap_or(0) as f64
    };
    out.push(
        "core.cmat_bytes_per_rank_max",
        max_bytes(&plain),
        logs.len(),
    );
    out.push(
        "core.cmat_saved_ratio",
        1.0 - max_bytes(&plain) / max_bytes(&baseline),
        1,
    );
    out.push("core.sharing_speedup", baseline_s / plain_s, 1);
    out.push(
        "obs.trace_overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        1,
    );

    // Payloads for the comm probes, from what rank 0 really sent.
    let find = |phase: &str, op: OpKind| logs[0].iter().find(|r| r.phase == phase && r.op == op);
    let str_reduce_len = find("str", OpKind::AllReduce).map_or(0, |r| r.bytes as usize / 16);
    let coll_block_len =
        find("coll", OpKind::AllToAll).map_or(0, |r| r.bytes as usize / 16 / r.participants);
    Direct {
        step_ms,
        str_reduce_len,
        coll_block_len,
        member: plain.sims[0].clone(),
    }
}

/// One full batch of a campaign's jobs as an ensemble: what a worker runs.
fn batch_composition(seed: u64) -> EnsembleConfig {
    let cfg = ServerConfig::local_test();
    let decks = gen::burst_jobs(campaign::BURST_KEYS * cfg.k_max, campaign::BURST_KEYS, seed)
        .into_iter()
        .step_by(campaign::BURST_KEYS)
        .collect();
    EnsembleConfig::new(decks, cfg.grid).expect("same-key job decks form an ensemble")
}

/// Median, or 0 for a sample the workload does not produce.
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// The served path: one campaign with spans around every lifecycle event,
/// then the same batches run directly for the serving tax.
fn served_path(rec: &Recorder, kind: Kind, seed: u64, budget: Duration, out: &mut Outcome) {
    let (label, arrivals, repeat_pass) = match kind {
        Kind::CampaignBurst => (
            "burst",
            campaign::burst_arrivals(campaign::BURST_JOBS, seed),
            true,
        ),
        _ => {
            let sweeps = gen::open_schedule(campaign::open_sweeps_for(budget), seed);
            ("open", campaign::open_arrivals(&sweeps), false)
        }
    };
    let rep: Rep = campaign::serve_campaign(
        label,
        &arrivals,
        seed,
        Extras {
            spans: Some(rec),
            repeat_pass,
        },
    );
    out.attempted += rep.attempted;
    out.failed += rep.failed;

    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1000.0;
    let acks: Vec<f64> = rep.records.iter().map(|r| r.ack_us()).collect();
    let misses: Vec<_> = rep
        .records
        .iter()
        .filter(|r| r.repeat_of.is_none())
        .collect();
    let hits: Vec<_> = rep
        .records
        .iter()
        .filter(|r| r.repeat_of.is_some())
        .collect();
    let queue: Vec<f64> = misses
        .iter()
        .filter_map(|r| r.running.map(|t| ms(r.acked, t)))
        .collect();
    let exec: Vec<f64> = misses
        .iter()
        .filter_map(|r| Some(ms(r.running?, r.done?)))
        .collect();
    // The tail: reported, not gated. One stall of half a second puts a dozen
    // of an open-loop run's 120 jobs beyond any p90.
    let latencies = campaign::miss_latencies_ms(&rep.records);
    out.push(
        "serve.job_latency_p90_ms",
        percentile(&latencies, 0.9).unwrap_or(0.0),
        latencies.len(),
    );
    out.push("serve.submit_ack_us.p50", median_or_zero(&acks), acks.len());
    out.push(
        "serve.submit_ack_us.p90",
        percentile(&acks, 0.9).unwrap_or(0.0),
        acks.len(),
    );
    out.push(
        "serve.queue_wait_ms.p50",
        median_or_zero(&queue),
        queue.len(),
    );
    out.push("serve.exec_ms.p50", median_or_zero(&exec), exec.len());
    out.push(
        "serve.batch_occupancy_mean",
        misses.len() as f64 / rep.batches.len().max(1) as f64,
        misses.len(),
    );
    out.push("serve.batches", rep.batches.len() as f64, 1);
    out.push(
        "serve.journal_bytes_per_job",
        rep.journal_bytes as f64 / rep.records.len() as f64,
        rep.records.len(),
    );
    out.push(
        "serve.repeat_pass_s",
        rep.repeat_pass_s.unwrap_or(0.0),
        rep.repeat_ack_us.len(),
    );
    // Hits: the open loop's repeats, or the burst's repeat pass.
    let hit_ms: Vec<f64> = if hits.is_empty() {
        rep.repeat_ack_us.iter().map(|us| us / 1000.0).collect()
    } else {
        hits.iter().filter_map(|r| r.latency_ms()).collect()
    };
    let expected_hits = hits.len() + rep.repeat_ack_us.len();
    let served_hits = hits.iter().filter(|r| r.born_terminal).count() as u64
        + rep.repeat_ack_us.len() as u64
        - rep.repeat_misses;
    out.push(
        "serve.hit_latency_ms.p50",
        median_or_zero(&hit_ms),
        hit_ms.len(),
    );
    out.push(
        "serve.cache_hit_rate",
        served_hits as f64 / expected_hits.max(1) as f64,
        expected_hits,
    );
    let late = rep.records.iter().map(|r| r.late_ms()).fold(0.0, f64::max);
    out.push("harness.generator_late_ms.max", late, rep.records.len());

    // The same batch compositions, run directly one after another.
    let grid = ServerConfig::local_test().grid;
    let direct_s: f64 = section(rec, "serve.direct_batches", |_| {
        rep.batches
            .values()
            .map(|batch| {
                let decks = batch.iter().map(|(_, deck)| deck.clone()).collect();
                let cfg = EnsembleConfig::new(decks, grid).expect("a served batch is an ensemble");
                timed(|| run_xgyro(&cfg, campaign::STEPS)).1
            })
            .sum()
    });
    out.push(
        "serve.serving_tax",
        rep.makespan_s / direct_s,
        rep.batches.len(),
    );
}

/// Peak resident set of this process, from the kernel's own accounting.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run_traced(w: &Workload, seed: u64, budget: Duration) -> Outcome {
    let rec = Recorder::new();
    let started = Instant::now();
    let mut out = Outcome::default();

    let (cfg, steps) = match w.kind {
        Kind::Ensemble(spec) => (ensemble::config(&spec, seed), spec.steps),
        Kind::CampaignBurst | Kind::CampaignOpen => (batch_composition(seed), campaign::STEPS),
    };
    let direct = section(&rec, "direct", |top| {
        direct_path(&rec, top, &cfg, steps, &mut out)
    });
    let ctx = Ctx {
        deck: &cfg.members()[0],
        k: cfg.k(),
        grid: cfg.grid(),
        steps,
        str_reduce_len: direct.str_reduce_len,
        coll_block_len: direct.coll_block_len,
    };
    section(&rec, "probe.linalg", |_| {
        probes::linalg::measure(&ctx, &mut out)
    });
    section(&rec, "probe.tensor", |_| {
        probes::tensor::measure(&ctx, &mut out)
    });
    section(&rec, "probe.comm", |_| {
        probes::comm::measure(&ctx, &mut out)
    });
    section(&rec, "probe.sim", |_| probes::sim::measure(&ctx, &mut out));
    section(&rec, "probe.core", |_| {
        probes::core::measure(&ctx, &cfg, direct.step_ms, &mut out)
    });
    section(&rec, "probe.artifact", |_| {
        probes::artifact::measure(&ctx, &direct.member, &mut out)
    });
    section(&rec, "probe.serve", |_| {
        probes::serve::measure(&ctx, &mut out)
    });
    section(&rec, "probe.cluster", |_| {
        probes::cluster::measure(&ctx, &mut out)
    });

    if let Kind::CampaignBurst | Kind::CampaignOpen = w.kind {
        served_path(&rec, w.kind, seed, budget, &mut out);
    }

    // The sections follow one another on this thread, so the top-level spans
    // must add up to the wall of the pass; a span file that does not is wrong.
    let wall_us = started.elapsed().as_micros() as f64;
    let spans = rec.spans();
    let coverage = span::top_level_us(&spans) as f64 / wall_us;
    out.push("harness.span_coverage", coverage, spans.len());
    out.attempted += 1;
    out.failed += u64::from((coverage - 1.0).abs() > 0.05);
    out.push("harness.peak_rss_mb", peak_rss_mb(), 1);
    // An ensemble workload never takes the served path: its metrics are 0.
    if let Kind::Ensemble(_) = w.kind {
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with("serve.")) {
            if out.find(m.name).is_none() {
                out.push(m.name, 0.0, 0);
            }
        }
        out.push("harness.generator_late_ms.max", 0.0, 0);
    }
    let file = crate::out_dir().join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&file, json::render(&span::to_json(&spans)) + "\n"));
    if let Err(e) = written {
        eprintln!("xg-benchmark: cannot write {}: {e}", file.display());
        out.failed += 1;
    }
    out
}
