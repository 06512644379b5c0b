//! Measured str-phase reduction benchmark: unfused per-moment AllReduces
//! vs one fused packed AllReduce, swept over rank count and moment size.
//!
//! This is the measurement behind `BENCH_str_reduce.json` (the repo-root
//! perf trajectory artifact) and EXPERIMENTS.md §P2. Two reduction
//! strategies over identical inputs on the thread-backed [`xg_comm::World`]:
//!
//! * **unfused** — the pre-fusion hot path: one `AllReduce` per moment
//!   (field solve, then upwind), paying per-collective latency `moments`
//!   times per RK stage.
//! * **fused** — all moments packed into one contiguous staging buffer and
//!   reduced in a single `AllReduce` per stage (the one path
//!   `DistTopology` runs).
//!
//! Both produce bitwise-identical sums (asserted once per shape
//! before timing), so the comparison is pure communication cost.

use std::fmt::Write as _;
use std::time::Instant;
use xg_comm::World;
use xg_linalg::Complex64;

/// Sweep configuration for the str-phase reduction benchmark.
pub struct StrReduceBenchConfig {
    /// World sizes (nv-communicator participant counts) to sweep.
    pub ranks_values: Vec<usize>,
    /// Per-moment element counts (`nc · nt_loc`) to sweep.
    pub elems_values: Vec<usize>,
    /// Moments packed per stage (2 electrostatic, 3 electromagnetic).
    pub moments: usize,
    /// Timed reduction calls per measurement.
    pub iters: usize,
}

impl StrReduceBenchConfig {
    /// The full sweep used to generate `BENCH_str_reduce.json`.
    pub fn full() -> Self {
        Self {
            ranks_values: vec![2, 4, 8],
            elems_values: vec![256, 2048, 16384],
            moments: 2,
            iters: 200,
        }
    }

    /// Tiny smoke-test sweep for CI (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            ranks_values: vec![2, 4],
            elems_values: vec![256, 2048],
            moments: 2,
            iters: 20,
        }
    }
}

/// One measured `(ranks, elems)` point.
pub struct StrReduceBenchResult {
    /// Participants in the reduction.
    pub ranks: usize,
    /// Elements per moment.
    pub elems: usize,
    /// Moments packed per fused call.
    pub moments: usize,
    /// ns per stage-equivalent reduction, unfused (one call per moment).
    pub unfused_ns: f64,
    /// ns per stage-equivalent reduction, fused (one packed call).
    pub fused_ns: f64,
    /// unfused / fused.
    pub speedup_fused: f64,
}

/// Deterministic non-trivial fill values (no `rand` dependency).
fn state_val(rank: usize, i: usize) -> Complex64 {
    Complex64::new(
        ((rank * 31 + i) as f64 * 0.071).cos(),
        ((rank * 17 + i) as f64 * 0.113).sin(),
    )
}

/// Run the sweep. The unfused output is checked bitwise-identical to the
/// fused reference before timing.
pub fn run_str_reduce_bench(cfg: &StrReduceBenchConfig) -> Vec<StrReduceBenchResult> {
    let mut out = Vec::new();
    for &ranks in &cfg.ranks_values {
        for &elems in &cfg.elems_values {
            out.push(measure_point(ranks, elems, cfg.moments, cfg.iters));
        }
    }
    out
}

fn measure_point(ranks: usize, elems: usize, moments: usize, iters: usize) -> StrReduceBenchResult {
    let world = World::new(ranks);
    let timings = world.run(|comm| {
        let rank = comm.rank();
        // One packed stage buffer: `moments` sections of `elems` each.
        let local: Vec<Complex64> = (0..moments * elems).map(|i| state_val(rank, i)).collect();

        // --- Correctness pin: both strategies agree bitwise. ---
        let mut fused_ref = local.clone();
        comm.all_reduce_sum_complex(&mut fused_ref);
        let mut unfused_ref = local.clone();
        for m in 0..moments {
            comm.all_reduce_sum_complex(&mut unfused_ref[m * elems..(m + 1) * elems]);
        }
        assert_eq!(fused_ref, unfused_ref, "fused vs unfused diverged");

        // --- Timings (collectives synchronize, so every rank measures
        //     the same loop; rank 0's clock is reported). ---
        let mut buf = local.clone();
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            buf.copy_from_slice(&local);
            for m in 0..moments {
                comm.all_reduce_sum_complex(&mut buf[m * elems..(m + 1) * elems]);
            }
        }
        let unfused = t0.elapsed();

        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            buf.copy_from_slice(&local);
            comm.all_reduce_sum_complex(&mut buf);
        }
        let fused = t0.elapsed();

        (unfused, fused)
    });

    let (unfused, fused) = timings[0];
    let per = |d: std::time::Duration| d.as_nanos() as f64 / iters as f64;
    let (unfused_ns, fused_ns) = (per(unfused), per(fused));
    StrReduceBenchResult {
        ranks,
        elems,
        moments,
        unfused_ns,
        fused_ns,
        speedup_fused: unfused_ns / fused_ns,
    }
}

/// Render the results as the `BENCH_str_reduce.json` document (hand-built:
/// the workspace deliberately has no JSON dependency).
pub fn str_reduce_bench_json(results: &[StrReduceBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"str_reduce\",\n");
    s.push_str(
        "  \"description\": \"str-phase reduction per RK stage: unfused per-moment \
         AllReduces vs one fused packed AllReduce, on the thread-backed World\",\n",
    );
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"ranks\": {}, \"elems\": {}, \"moments\": {}, \"unfused_ns\": {:.0}, \
             \"fused_ns\": {:.0}, \"speedup_fused\": {:.3}}}",
            r.ranks,
            r.elems,
            r.moments,
            r.unfused_ns,
            r.fused_ns,
            r.speedup_fused
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table of the same results.
pub fn str_reduce_bench_report(results: &[StrReduceBenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "P2: fused str-phase reduction (per RK-stage equivalent)");
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "ranks", "elems", "moments", "unfused_ns", "fused_ns", "x_fus"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>12.0} {:>12.0} {:>9.2}",
            r.ranks, r.elems, r.moments, r.unfused_ns, r.fused_ns, r.speedup_fused
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_wellformed_results() {
        let cfg = StrReduceBenchConfig {
            ranks_values: vec![2, 3],
            elems_values: vec![16, 64],
            moments: 2,
            iters: 3,
        };
        let results = run_str_reduce_bench(&cfg);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.unfused_ns > 0.0 && r.fused_ns > 0.0);
            assert!(r.speedup_fused.is_finite());
        }
        let json = str_reduce_bench_json(&results);
        // Minimal well-formedness: balanced braces/brackets, expected keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"str_reduce\""));
        assert!(json.contains("\"speedup_fused\""));
        let report = str_reduce_bench_report(&results);
        assert!(report.contains("x_fus"));
    }
}
