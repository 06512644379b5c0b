//! Measured collision-apply benchmark: naive per-RHS vs batched-blocked vs
//! SIMD-tiled, swept over `nv` and ensemble size `k`.
//!
//! This is the measurement behind `BENCH_collision.json` (the repo-root
//! perf trajectory artifact) and EXPERIMENTS.md §P. Three pipelines over
//! identical inputs:
//!
//! * **naive** — the pre-batching hot path: per member, gather each
//!   velocity profile element-by-element out of the legacy coll layout
//!   `(nv, nc, nt)` (stride `nc·nt`), one single-RHS matvec plus the
//!   `copy_from_slice` round-trip, scatter back. The shared `nv×nv` panel
//!   is re-streamed once **per member**.
//! * **blocked** — the batched path: profiles live contiguously in the
//!   `(nc, nt, k·nv)` layout and one register-blocked multi-RHS apply
//!   streams the shared panel once **per k members**. Pinned to the
//!   **scalar, un-tiled** kernel so the column keeps its historical
//!   meaning across the SIMD work.
//! * **simd** — blocked, through the autotuned kernel: the runtime-probed
//!   SIMD micro-kernel (`avx512`/`avx2`/`scalar`) with the L2-sized row
//!   tile the tuner picked for this `(nv, k)` — the call the production
//!   collision step makes.
//!
//! All three produce bitwise-identical outputs (asserted once per shape
//! before timing), so the comparison is pure pipeline cost.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xg_costmodel::KernelChoice;
use xg_linalg::{apply_panel_multi_with, matvec_complex_flat, Complex64, SimdLevel};
use xg_tensor::Tensor3;

/// Sweep configuration for the collision-apply benchmark.
pub struct CollisionBenchConfig {
    /// Velocity-space sizes to sweep (panel is `nv × nv`).
    pub nv_values: Vec<usize>,
    /// Ensemble sizes (right-hand sides per panel) to sweep.
    pub k_values: Vec<usize>,
    /// Number of `(ic, it)` pairs, i.e. distinct panels per measurement.
    pub pairs: usize,
    /// Minimum wall time per timing loop.
    pub target: Duration,
}

impl CollisionBenchConfig {
    /// The full sweep used to generate `BENCH_collision.json`.
    pub fn full() -> Self {
        Self {
            nv_values: vec![32, 64, 128, 256],
            k_values: vec![1, 4, 8],
            // Large enough that the panel set exceeds L2 from nv=128 up
            // (32 × 128 KiB = 4 MiB), approaching the production regime
            // where cmat dwarfs every cache level.
            pairs: 32,
            target: Duration::from_millis(120),
        }
    }

    /// Tiny smoke-test sweep for CI (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            nv_values: vec![16, 64],
            k_values: vec![1, 4],
            pairs: 4,
            target: Duration::from_millis(8),
        }
    }
}

/// One measured `(nv, k)` point.
pub struct CollisionBenchResult {
    /// Velocity-space size.
    pub nv: usize,
    /// Right-hand sides per panel.
    pub k: usize,
    /// Panels per measurement.
    pub pairs: usize,
    /// ns per full sweep over all pairs × members, naive pipeline.
    pub naive_ns: f64,
    /// ns per sweep, batched-blocked pipeline (scalar kernel).
    pub blocked_ns: f64,
    /// ns per sweep, autotuned SIMD + L2-tiled kernel.
    pub simd_ns: f64,
    /// naive / blocked.
    pub speedup_blocked: f64,
    /// naive / simd.
    pub speedup_simd: f64,
    /// The autotuned kernel the simd pipeline ran (e.g. `avx512/t128`).
    pub kernel: KernelChoice,
}

/// Time `f` adaptively: double the iteration count until the loop runs at
/// least `target`, return ns per iteration.
fn time_ns(target: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm up (page in buffers, settle the panel in cache or not)
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt >= target || iters >= 1 << 24 {
            return dt.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

/// Deterministic non-trivial fill values (no `rand` dependency).
fn panel_val(i: usize) -> f64 {
    ((i as f64) * 0.137).sin() * 0.2
}

fn state_val(i: usize) -> Complex64 {
    Complex64::new(((i as f64) * 0.071).cos(), ((i as f64) * 0.113).sin())
}

/// Run the sweep. Every pipeline's output is checked bitwise-identical to
/// the naive reference before timing.
pub fn run_collision_bench(cfg: &CollisionBenchConfig) -> Vec<CollisionBenchResult> {
    let mut out = Vec::new();
    for &nv in &cfg.nv_values {
        for &k in &cfg.k_values {
            out.push(measure_point(nv, k, cfg.pairs, cfg.target));
        }
    }
    out
}

fn measure_point(nv: usize, k: usize, pairs: usize, target: Duration) -> CollisionBenchResult {
    // Shared panels: one nv×nv matrix per (ic, it) pair.
    let panels: Vec<f64> = (0..pairs * nv * nv).map(panel_val).collect();
    let panel = |ic: usize| &panels[ic * nv * nv..(ic + 1) * nv * nv];

    // Legacy coll layout, one tensor per member: (nv, pairs, 1) — the
    // velocity profile at a pair is strided by `pairs`.
    let legacy_in: Vec<Tensor3<Complex64>> = (0..k)
        .map(|s| {
            Tensor3::from_fn(nv, pairs, 1, |iv, ic, _| state_val(s * nv * pairs + iv * pairs + ic))
        })
        .collect();
    let mut legacy_out: Vec<Tensor3<Complex64>> =
        (0..k).map(|_| Tensor3::new(nv, pairs, 1)).collect();

    // Profile-contiguous layout: (pairs, 1, k·nv), member s in lanes
    // [s·nv, (s+1)·nv) — same values as the legacy tensors.
    let cp_in = Tensor3::from_fn(pairs, 1, k * nv, |ic, _, lane| {
        legacy_in[lane / nv][(lane % nv, ic, 0)]
    });
    let mut cp_out: Tensor3<Complex64> = Tensor3::new(pairs, 1, k * nv);

    let mut profile = vec![Complex64::ZERO; nv];
    let mut scratch = vec![Complex64::ZERO; nv];

    // The kernel the production collision path would run for this shape.
    let kernel = xg_costmodel::tune_collision_kernel(nv, k);

    // --- Correctness pin: all three pipelines agree bitwise. ---
    for s in 0..k {
        for ic in 0..pairs {
            for iv in 0..nv {
                profile[iv] = legacy_in[s][(iv, ic, 0)];
            }
            matvec_complex_flat(panel(ic), nv, nv, &profile, &mut scratch);
            profile.copy_from_slice(&scratch);
            for iv in 0..nv {
                legacy_out[s][(iv, ic, 0)] = profile[iv];
            }
        }
    }
    let check = |cp_out: &Tensor3<Complex64>, which: &str| {
        for s in 0..k {
            for ic in 0..pairs {
                for iv in 0..nv {
                    assert_eq!(
                        legacy_out[s][(iv, ic, 0)],
                        cp_out[(ic, 0, s * nv + iv)],
                        "{which} pipeline diverged at nv={nv} k={k}"
                    );
                }
            }
        }
    };
    for ic in 0..pairs {
        let (x, y) = (cp_in.line(ic, 0), cp_out.line_mut(ic, 0));
        apply_panel_multi_with(SimdLevel::Scalar, panel(ic), nv, x, y, k, nv);
    }
    check(&cp_out, "blocked");
    cp_out.fill(Complex64::ZERO);
    for ic in 0..pairs {
        let (x, y) = (cp_in.line(ic, 0), cp_out.line_mut(ic, 0));
        apply_panel_multi_with(kernel.level, panel(ic), nv, x, y, k, kernel.tile_rows);
    }
    check(&cp_out, "simd");

    // --- Timings. ---
    let naive_ns = time_ns(target, || {
        for s in 0..k {
            for ic in 0..pairs {
                for iv in 0..nv {
                    profile[iv] = legacy_in[s][(iv, ic, 0)];
                }
                matvec_complex_flat(panel(ic), nv, nv, &profile, &mut scratch);
                profile.copy_from_slice(&scratch);
                for iv in 0..nv {
                    legacy_out[s][(iv, ic, 0)] = profile[iv];
                }
            }
        }
    });
    let blocked_ns = time_ns(target, || {
        for ic in 0..pairs {
            let (x, y) = (cp_in.line(ic, 0), cp_out.line_mut(ic, 0));
            apply_panel_multi_with(SimdLevel::Scalar, panel(ic), nv, x, y, k, nv);
        }
    });
    let simd_ns = time_ns(target, || {
        for ic in 0..pairs {
            let (x, y) = (cp_in.line(ic, 0), cp_out.line_mut(ic, 0));
            apply_panel_multi_with(kernel.level, panel(ic), nv, x, y, k, kernel.tile_rows);
        }
    });

    CollisionBenchResult {
        nv,
        k,
        pairs,
        naive_ns,
        blocked_ns,
        simd_ns,
        speedup_blocked: naive_ns / blocked_ns,
        speedup_simd: naive_ns / simd_ns,
        kernel,
    }
}

/// Render the results as the `BENCH_collision.json` document (hand-built:
/// the workspace deliberately has no JSON dependency).
pub fn collision_bench_json(results: &[CollisionBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"collision_apply\",\n");
    s.push_str(
        "  \"description\": \"per-(ic,it) cmat panel apply: naive per-RHS (strided \
         gather + single-RHS matvec + copy, panel streamed k times) vs batched-blocked \
         (profile-contiguous multi-RHS, scalar kernel, panel streamed once) vs autotuned \
         SIMD + L2-tiled kernel\",\n",
    );
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"nv\": {}, \"k\": {}, \"pairs\": {}, \"naive_ns\": {:.0}, \
             \"blocked_ns\": {:.0}, \"simd_ns\": {:.0}, \"speedup_blocked\": {:.3}, \
             \"speedup_simd\": {:.3}, \"kernel\": \"{}\"}}",
            r.nv,
            r.k,
            r.pairs,
            r.naive_ns,
            r.blocked_ns,
            r.simd_ns,
            r.speedup_blocked,
            r.speedup_simd,
            r.kernel
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table of the same results.
pub fn collision_bench_report(results: &[CollisionBenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "P: batched multi-RHS collision apply");
    let _ = writeln!(
        out,
        "{:>5} {:>3} {:>6} {:>12} {:>12} {:>12} {:>7} {:>7}  kernel",
        "nv", "k", "pairs", "naive_ns", "blocked_ns", "simd_ns", "x_blk", "x_simd"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:>5} {:>3} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>7.2} {:>7.2}  {}",
            r.nv, r.k, r.pairs, r.naive_ns, r.blocked_ns, r.simd_ns, r.speedup_blocked,
            r.speedup_simd, r.kernel
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_wellformed_results() {
        let cfg = CollisionBenchConfig {
            nv_values: vec![8, 16],
            k_values: vec![1, 4],
            pairs: 3,
            target: Duration::from_micros(200),
        };
        let results = run_collision_bench(&cfg);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.naive_ns > 0.0 && r.blocked_ns > 0.0 && r.simd_ns > 0.0);
            assert!(r.speedup_blocked.is_finite());
            assert!(r.speedup_simd.is_finite());
            assert!(r.kernel.tile_rows >= 1 && r.kernel.tile_rows <= r.nv);
        }
        let json = collision_bench_json(&results);
        // Minimal well-formedness: balanced braces/brackets, expected keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"collision_apply\""));
        assert!(json.contains("\"speedup_blocked\""));
        assert!(json.contains("\"simd_ns\""));
        assert!(json.contains("\"speedup_simd\""));
        assert!(json.contains("\"kernel\""));
        let report = collision_bench_report(&results);
        assert!(report.contains("x_blk"));
        assert!(report.contains("x_simd"));
    }
}
