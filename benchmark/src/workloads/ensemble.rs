//! `ensemble_coll` and `ensemble_strnl`: the paper's comparison, k members
//! as one XGYRO ensemble against the same members as sequential CGYRO runs.

use super::EnsembleSpec;
use crate::gen;
use crate::metrics::Outcome;
use crate::stats::median;
use crate::timed;
use std::time::{Duration, Instant};
use xg_tensor::ProcGrid;
use xgyro_core::{run_cgyro_baseline, run_xgyro, EnsembleConfig, RunOutcome};

pub fn config(spec: &EnsembleSpec, seed: u64) -> EnsembleConfig {
    EnsembleConfig::new(
        gen::ensemble_members(spec.deck, spec.k, seed),
        ProcGrid::new(spec.grid.0, spec.grid.1),
    )
    .expect("generated sweep members share a cmat key and fit the grid")
}

/// Members of `a` that differ from `b` in any bit of the final distribution
/// or of the diagnostics.
pub fn bitwise_mismatches(a: &RunOutcome, b: &RunOutcome) -> u64 {
    let same =
        |x: &xgyro_core::SimResult, y: &xgyro_core::SimResult| {
            let (dx, dy) = (&x.diagnostics, &y.diagnostics);
            x.h.shape() == y.h.shape()
                && x.h.as_slice().iter().zip(y.h.as_slice()).all(|(p, q)| {
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                })
                && [dx.time, dx.field_energy, dx.heat_flux, dx.h_norm2].map(f64::to_bits)
                    == [dy.time, dy.field_energy, dy.heat_flux, dy.h_norm2].map(f64::to_bits)
        };
    let differing = a
        .sims
        .iter()
        .zip(&b.sims)
        .filter(|(x, y)| !same(x, y))
        .count();
    (differing + a.sims.len().abs_diff(b.sims.len())) as u64
}

pub fn end_to_end(spec: EnsembleSpec, seed: u64, budget: Duration) -> Outcome {
    let EnsembleSpec {
        k,
        steps,
        setups_per_cycle,
        ..
    } = spec;
    let cfg = config(&spec, seed);

    // Warm-up: the first world of a process pays page faults and the
    // collision-kernel autotune, which no later run pays again.
    let report = cfg.members()[0].steps_per_report;
    run_xgyro(&cfg, report);
    run_cgyro_baseline(&cfg, 0);

    let (mut setup, mut wall, mut baseline) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Outcome::default();
    let started = Instant::now();
    while wall.is_empty() || started.elapsed() < budget {
        for _ in 0..setups_per_cycle {
            setup.push(timed(|| run_xgyro(&cfg, 0)).1);
        }
        let (ens, t) = timed(|| run_xgyro(&cfg, steps));
        wall.push(t);
        let (base, t) = timed(|| run_cgyro_baseline(&cfg, steps));
        baseline.push(t);
        // Outside the timed windows: sharing cmat must not change one bit.
        out.attempted += k as u64;
        out.failed += bitwise_mismatches(&ens, &base);
    }

    out.push("setup_s", median(&setup), setup.len());
    out.push("makespan_s", median(&wall), wall.len());
    out.push("baseline_wall_s", median(&baseline), baseline.len());
    // `run_xgyro` hands every member back at once, so every member's
    // latency is the run's wall.
    out.push("job_latency_p50_ms", median(&wall) * 1000.0, wall.len() * k);
    out
}
