//! Runtime autotuner for the collision panel kernel.
//!
//! At topology build time the tuner one-shot-benchmarks every
//! candidate `(SIMD level, row-tile height)` pair on a synthetic panel of
//! the actual `(nv, nrhs)` shape and keeps the fastest. The choice is
//! cached per process keyed by shape + CPU capability + L2 budget, so an
//! ensemble building many topologies of the same shape tunes once.
//!
//! Because every candidate kernel is bitwise-identical (see
//! [`xg_linalg::simd`]), the tuner is free to pick differently on
//! different ranks, machines or runs without perturbing trajectories —
//! only wall time changes. Determinism of the *selection procedure* itself
//! (stable candidate order, first-wins argmin) is still guaranteed and
//! proptested so that a fixed cost oracle always reproduces the same
//! choice.
//!
//! [`predicted_kernel`] is the analytic counterpart (roofline with
//! per-level lane efficiencies): `xgplan`/`xgreplay` report it next to the
//! measured choice recorded in the trace header.

use crate::compute::KernelCost;
use crate::machine::MachineModel;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use xg_linalg::{apply_panel_multi_with, Complex64, SimdLevel};

/// One tuned collision-kernel configuration: which micro-kernel and how
/// tall the L2-resident panel row tiles are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelChoice {
    /// SIMD micro-kernel level.
    pub level: SimdLevel,
    /// Panel row-tile height (rows kept L2-resident per RHS sweep).
    pub tile_rows: usize,
}

impl fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/t{}", self.level, self.tile_rows)
    }
}

impl FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (lvl, tile) = s
            .split_once("/t")
            .ok_or_else(|| format!("kernel choice {s:?} is not of the form <level>/t<rows>"))?;
        Ok(KernelChoice {
            level: lvl.parse::<SimdLevel>()?,
            tile_rows: tile
                .parse::<usize>()
                .map_err(|e| format!("kernel choice {s:?}: bad tile rows: {e}"))?,
        })
    }
}

/// Candidate row-tile heights for an `nv×nv` panel under an `l2_kb`
/// budget: the L2-derived default plus the full panel, halves down to it,
/// and a small fixed tile — deduplicated, ascending, deterministic.
pub fn candidate_tile_rows(nv: usize, l2_kb: usize) -> Vec<usize> {
    let n = nv.max(1);
    let mut tiles = vec![
        xg_linalg::default_tile_rows(n, l2_kb),
        n,
        (n / 2).max(1),
        (n / 4).max(1),
        32.min(n),
    ];
    tiles.sort_unstable();
    tiles.dedup();
    tiles
}

/// The full candidate set: every level (narrowest first) × every tile
/// height (ascending). Stable order is what makes the argmin-with-ties
/// deterministic.
pub fn candidate_kernels(nv: usize, l2_kb: usize, levels: &[SimdLevel]) -> Vec<KernelChoice> {
    let tiles = candidate_tile_rows(nv, l2_kb);
    levels
        .iter()
        .flat_map(|&level| tiles.iter().map(move |&tile_rows| KernelChoice { level, tile_rows }))
        .collect()
}

/// Deterministic argmin over candidates under a caller-supplied cost
/// oracle: strictly-smaller cost wins, ties keep the earlier candidate.
/// Panics on an empty candidate list.
pub fn tune_kernel_with<F>(candidates: &[KernelChoice], mut cost: F) -> KernelChoice
where
    F: FnMut(&KernelChoice) -> f64,
{
    assert!(!candidates.is_empty(), "tune_kernel_with: empty candidate list");
    let mut best = candidates[0];
    let mut best_cost = cost(&candidates[0]);
    for c in &candidates[1..] {
        let t = cost(c);
        if t < best_cost {
            best = *c;
            best_cost = t;
        }
    }
    best
}

/// Deterministically-filled synthetic panel and RHS block of the tuned
/// shape (the values are irrelevant to timing; they only have to be
/// finite and dense).
fn synthetic_problem(nv: usize, nrhs: usize) -> (Vec<f64>, Vec<Complex64>) {
    let a: Vec<f64> = (0..nv * nv).map(|i| ((i % 251) as f64) * 0.004 - 0.5).collect();
    let x: Vec<Complex64> = (0..nv * nrhs)
        .map(|i| Complex64::new(((i % 127) as f64) * 0.01, ((i % 63) as f64) * -0.02))
        .collect();
    (a, x)
}

/// Wall-time one candidate on the synthetic problem (nanoseconds,
/// best-of-`reps` single applications after one warmup).
pub fn measure_kernel_ns(choice: KernelChoice, nv: usize, nrhs: usize, reps: usize) -> f64 {
    let (a, x) = synthetic_problem(nv, nrhs);
    let mut y = vec![Complex64::ZERO; nv * nrhs];
    apply_panel_multi_with(choice.level, &a, nv, &x, &mut y, nrhs, choice.tile_rows);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        apply_panel_multi_with(choice.level, &a, nv, &x, &mut y, nrhs, choice.tile_rows);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(&y);
    best
}

type TuneKey = (usize, usize, SimdLevel, usize);

fn tune_cache() -> &'static Mutex<HashMap<TuneKey, KernelChoice>> {
    static CACHE: OnceLock<Mutex<HashMap<TuneKey, KernelChoice>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Shapes swept so far, in order (tests count how often a key was tuned).
#[cfg(test)]
static SWEPT: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// Measured one-shot tuning for the collision apply of shape
/// `(nv, nrhs)`: benchmark every available `(level, tile)` candidate once
/// and cache the winner keyed by shape + CPU capability (+ L2 budget).
/// Called at topology build by every rank thread of a world at once, so
/// the cache guard is held across lookup → sweep → insert: one rank
/// measures on an otherwise idle host and the rest (which have nothing
/// else to do) read its answer.
pub fn tune_collision_kernel(nv: usize, nrhs: usize) -> KernelChoice {
    let level_cap = xg_linalg::selected_level();
    let l2_kb = xg_linalg::l2_cache_kb();
    let mut cache = tune_cache().lock().expect("a kernel sweep panicked holding the tuner cache");
    *cache.entry((nv, nrhs, level_cap, l2_kb)).or_insert_with(|| {
        #[cfg(test)]
        SWEPT.lock().unwrap().push((nv, nrhs));
        let candidates = candidate_kernels(nv, l2_kb, &xg_linalg::available_levels());
        // Repetitions sized so tiny test shapes get stable timings while
        // big production panels stay a one-shot (~flops-bounded)
        // measurement.
        let work = 4u64 * (nv as u64) * (nv as u64) * (nrhs.max(1) as u64);
        let reps = (2_000_000 / work.max(1)).clamp(1, 16) as usize;
        tune_kernel_with(&candidates, |c| measure_kernel_ns(*c, nv, nrhs, reps))
    })
}

/// Modeled relative double-precision throughput of each micro-kernel
/// (fraction of the machine's achieved vector rate): the scalar path
/// issues one lane per FMA, AVX2 four with some issue overhead from the
/// broadcast stream, AVX-512 eight at lower clocks.
fn level_efficiency(level: SimdLevel) -> f64 {
    match level {
        SimdLevel::Scalar => 0.125,
        SimdLevel::Avx2 => 0.5,
        SimdLevel::Avx512 => 1.0,
    }
}

/// Analytic (roofline) time for one candidate on one panel apply:
/// `max(flops / (F·eff), bytes / B)` where the panel traffic multiplies by
/// the number of RHS register-group sweeps whenever the row tile
/// overflows half the L2 budget (the panel then re-streams from memory
/// per sweep instead of staying cache-resident).
pub fn predicted_kernel_time(
    m: &MachineModel,
    nv: usize,
    nrhs: usize,
    choice: KernelChoice,
    l2_kb: usize,
) -> f64 {
    let n = nv as u64;
    let k = nrhs.max(1) as u64;
    let tile_bytes = choice.tile_rows as u64 * n * 8;
    let sweeps = if tile_bytes <= (l2_kb as u64 * 1024) / 2 {
        1
    } else {
        // One panel re-stream per RHS register group (group width = two
        // complex RHS per vector, minimum one group).
        k.div_ceil((choice.level.lanes() as u64 / 2).max(1))
    };
    let cost = KernelCost {
        flops: 4 * n * n * k,
        bytes: 8 * n * n * sweeps + 2 * 16 * n * k,
    };
    let t_flops = cost.flops as f64 / (m.flops_per_rank * level_efficiency(choice.level));
    let t_bytes = cost.bytes as f64 / m.mem_bw_per_rank;
    t_flops.max(t_bytes)
}

/// Analytic counterpart of [`tune_collision_kernel`]: the candidate the
/// roofline model predicts fastest (same candidate order, same first-wins
/// tie-break — fully deterministic, no measurement). `xgplan` and
/// `xgreplay` print this next to the measured choice.
pub fn predicted_kernel(
    m: &MachineModel,
    nv: usize,
    nrhs: usize,
    l2_kb: usize,
    levels: &[SimdLevel],
) -> KernelChoice {
    let candidates = candidate_kernels(nv, l2_kb, levels);
    tune_kernel_with(&candidates, |c| predicted_kernel_time(m, nv, nrhs, *c, l2_kb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_display_round_trips() {
        for level in SimdLevel::ALL {
            for tile in [1usize, 32, 577] {
                let c = KernelChoice { level, tile_rows: tile };
                assert_eq!(c.to_string().parse::<KernelChoice>().unwrap(), c);
            }
        }
        assert!("avx2".parse::<KernelChoice>().is_err());
        assert!("warp9/t8".parse::<KernelChoice>().is_err());
    }

    #[test]
    fn candidate_tiles_are_sorted_deduped_and_bounded() {
        for &nv in &[1usize, 7, 64, 256, 1024] {
            let tiles = candidate_tile_rows(nv, 512);
            assert!(!tiles.is_empty());
            assert!(tiles.windows(2).all(|w| w[0] < w[1]), "sorted+deduped: {tiles:?}");
            assert!(tiles.iter().all(|&t| t >= 1 && t <= nv.max(1)));
        }
    }

    #[test]
    fn tuner_keeps_first_candidate_on_ties() {
        let cands = candidate_kernels(64, 512, &SimdLevel::ALL);
        let flat = tune_kernel_with(&cands, |_| 1.0);
        assert_eq!(flat, cands[0]);
    }

    #[test]
    fn tuner_finds_the_cheapest_candidate() {
        let cands = candidate_kernels(128, 512, &SimdLevel::ALL);
        let target = cands[cands.len() / 2];
        let got = tune_kernel_with(&cands, |c| if *c == target { 0.5 } else { 2.0 });
        assert_eq!(got, target);
    }

    #[test]
    fn measured_tuning_is_cached_and_valid() {
        let a = tune_collision_kernel(24, 3);
        let b = tune_collision_kernel(24, 3);
        assert_eq!(a, b, "cache must return the stored choice");
        assert!(xg_linalg::available_levels().contains(&a.level));
        assert!(a.tile_rows >= 1 && a.tile_rows <= 24);
    }

    #[test]
    fn concurrent_ranks_tune_a_shape_once_and_agree() {
        // The 8 rank threads of a world reach the tuner together; (160, 6)
        // is a key no other test uses.
        let gate = std::sync::Barrier::new(8);
        let choices: Vec<KernelChoice> = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        tune_collision_kernel(160, 6)
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let sweeps = SWEPT.lock().unwrap().iter().filter(|&&key| key == (160, 6)).count();
        assert_eq!(sweeps, 1, "one rank measures, the rest read its answer");
        assert!(choices.iter().all(|c| *c == choices[0]), "ranks disagree: {choices:?}");
    }

    #[test]
    fn predicted_kernel_prefers_wider_lanes_when_compute_bound() {
        let m = MachineModel::frontier_like();
        let p = predicted_kernel(&m, 256, 8, 2048, &SimdLevel::ALL);
        assert_eq!(p.level, SimdLevel::Avx512);
        // With only scalar available the prediction stays scalar.
        let s = predicted_kernel(&m, 256, 8, 2048, &[SimdLevel::Scalar]);
        assert_eq!(s.level, SimdLevel::Scalar);
    }

    #[test]
    fn predicted_time_penalizes_oversized_tiles() {
        let m = MachineModel::frontier_like();
        let small = KernelChoice { level: SimdLevel::Avx2, tile_rows: 8 };
        let huge = KernelChoice { level: SimdLevel::Avx2, tile_rows: 4096 };
        // A 4096-row tile of a 4096-wide panel can't stay L2-resident.
        assert!(
            predicted_kernel_time(&m, 4096, 8, small, 512)
                < predicted_kernel_time(&m, 4096, 8, huge, 512)
        );
    }
}
