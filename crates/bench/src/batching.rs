//! Measured campaign-batching benchmark: N sweep jobs served through the
//! `xg-serve` campaign service (cmat-key batching on) vs the same N decks
//! run back-to-back as independent `k = 1` XGYRO jobs.
//!
//! This is the measurement behind `BENCH_batching.json` and the serving
//! chapter's efficiency claim: grouping key-compatible jobs into one
//! shared-cmat ensemble builds the collisional constant tensor **once per
//! batch** instead of once per job, so the batched campaign's wall time
//! and memory both shrink as occupancy grows. Both paths execute on the
//! same process grid with one worker, so the comparison isolates
//! amortization, not parallelism.
//!
//! Each point also measures the **repeat pass**: the first campaign
//! publishes every member into an artifact store, then a fresh daemon over
//! the same store is handed the identical decks again. Every one should be
//! served from the cache at admission (born `Done`, zero simulation
//! steps), so `repeat_ms` vs `batched_ms` is the measured payoff of the
//! content-addressed result cache on a perfectly warmed campaign.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xg_serve::{ArtifactConfig, CampaignServer, JobSpec, JobState, ServerConfig};
use xg_sim::CgyroInput;
use xgyro_core::{run_xgyro, EnsembleConfig};

/// Sweep configuration for the campaign-batching benchmark.
pub struct BatchingBenchConfig {
    /// Campaign sizes (total submitted jobs) to sweep.
    pub n_jobs_values: Vec<usize>,
    /// Distinct cmat keys per campaign (jobs are dealt round-robin).
    pub n_keys_values: Vec<usize>,
    /// Time steps per job (must be a multiple of the deck's report cadence).
    pub steps: usize,
}

impl BatchingBenchConfig {
    /// The full sweep used to generate `BENCH_batching.json`.
    pub fn full() -> Self {
        Self { n_jobs_values: vec![6, 12], n_keys_values: vec![1, 2, 3], steps: 20 }
    }

    /// Smoke-test sweep for CI (a second or two): the 12-job rows at two
    /// segments per job, so a batch that rebuilt its world per segment
    /// would show in `cmat_builds`.
    pub fn quick() -> Self {
        Self { n_jobs_values: vec![12], n_keys_values: vec![1, 2], steps: 20 }
    }
}

/// One measured `(n_jobs, n_keys)` campaign.
pub struct BatchingBenchResult {
    /// Jobs submitted.
    pub n_jobs: usize,
    /// Distinct cmat keys among them.
    pub n_keys: usize,
    /// Batch-size cap the grouper applied (planner-fed).
    pub k_max: usize,
    /// Shared-cmat batches the campaign dispatched.
    pub batches: usize,
    /// Mean jobs per batch.
    pub mean_occupancy: f64,
    /// Wall ms, submit-through-drain on the campaign server.
    pub batched_ms: f64,
    /// Wall ms, the same decks as independent `k = 1` runs.
    pub unbatched_ms: f64,
    /// unbatched / batched.
    pub speedup: f64,
    /// cmat bytes the batching avoided allocating (server metric).
    pub cmat_saved_bytes: u64,
    /// Saved fraction of the unbatched cmat footprint.
    pub saved_ratio: f64,
    /// Ensemble worlds the served campaign spawned (server metric, as a
    /// difference over the campaign; == `batches` when every batch keeps
    /// one session for its whole life).
    pub world_spawns: u64,
    /// Shared-`cmat` factorizations the served campaign paid (same; ==
    /// `batches`, not `batches × segments`).
    pub cmat_builds: u64,
    /// Cache hits when the identical decks are re-submitted to a fresh
    /// daemon over the same artifact store.
    pub repeat_hits: u64,
    /// repeat_hits / n_jobs (1.0 = every member served from the store).
    pub repeat_hit_rate: f64,
    /// Wall ms for the repeat pass (admission-served, no simulation).
    pub repeat_ms: f64,
    /// Outcome bytes the repeat pass did not recompute (server metric).
    pub cache_bytes_saved: u64,
}

/// The campaign decks: `n_jobs` gradient variants dealt round-robin over
/// `n_keys` collisionality values (distinct `nu_ee` → distinct cmat key).
fn sweep_decks(n_jobs: usize, n_keys: usize) -> Vec<CgyroInput> {
    let base = CgyroInput::test_small();
    (0..n_jobs)
        .map(|i| {
            let mut d = base.with_gradients(1.0 + 0.2 * i as f64, 2.0 + 0.1 * i as f64);
            d.nu_ee = 0.1 * (1 + i % n_keys) as f64;
            d
        })
        .collect()
}

/// Run the sweep. Each point serves the campaign once and replays the same
/// decks unbatched on the identical process grid.
pub fn run_batching_bench(cfg: &BatchingBenchConfig) -> Vec<BatchingBenchResult> {
    let mut out = Vec::new();
    for &n_jobs in &cfg.n_jobs_values {
        for &n_keys in &cfg.n_keys_values {
            out.push(measure_point(n_jobs, n_keys, cfg.steps));
        }
    }
    out
}

fn measure_point(n_jobs: usize, n_keys: usize, steps: usize) -> BatchingBenchResult {
    let store_dir = std::env::temp_dir().join(format!(
        "xg-bench-artifacts-{}-{n_jobs}-{n_keys}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut scfg = ServerConfig::local_test();
    // One worker and drain-driven flushing: serialized execution on both
    // sides, so the delta is cmat amortization, not thread parallelism.
    scfg.workers = 1;
    scfg.linger = Duration::from_secs(600);
    scfg.queue_capacity = n_jobs.max(scfg.queue_capacity);
    scfg.artifacts = Some(ArtifactConfig::at(&store_dir));
    let k_max = scfg.k_max;
    let grid = scfg.grid;
    let repeat_cfg = {
        let mut c = ServerConfig::local_test();
        c.workers = 1;
        c.linger = Duration::from_secs(600);
        c.queue_capacity = n_jobs.max(c.queue_capacity);
        c.artifacts = Some(ArtifactConfig::at(&store_dir));
        c
    };
    let decks = sweep_decks(n_jobs, n_keys);

    let server = CampaignServer::start(scfg);
    // The spawn/build counters are process-wide: difference them over the
    // served campaign.
    let idle = server.metrics();
    let t0 = Instant::now();
    let ids: Vec<_> = decks
        .iter()
        .map(|d| {
            server
                .submit(JobSpec::new(d.clone(), steps))
                .expect("bench campaign fits the queue")
        })
        .collect();
    assert!(server.drain(Duration::from_secs(600)), "campaign drain timed out");
    let batched = t0.elapsed();
    for id in &ids {
        assert_eq!(server.status(*id).expect("known job").state, JobState::Done);
    }
    let served = server.metrics();
    let (cmat_saved_bytes, cmat_unbatched_bytes) =
        (served.cmat_saved_bytes, served.cmat_unbatched_bytes);
    let world_spawns = served.world_spawns - idle.world_spawns;
    let cmat_builds = served.cmat_builds - idle.cmat_builds;
    let batches = ids
        .iter()
        .map(|id| server.status(*id).expect("known job").batch)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    server.shutdown();

    let t0 = Instant::now();
    for d in &decks {
        let cfg = EnsembleConfig::new(vec![d.clone()], grid).expect("valid deck");
        let out = run_xgyro(&cfg, steps);
        assert_eq!(out.sims.len(), 1);
    }
    let unbatched = t0.elapsed();

    // Repeat pass: a fresh daemon over the warmed store (the first one is
    // drained, and a drained server admits nothing). Hits are born Done at
    // admission, so no drain is needed before reading the metrics.
    let repeat = CampaignServer::start(repeat_cfg);
    let t0 = Instant::now();
    let repeat_ids: Vec<_> = decks
        .iter()
        .map(|d| {
            repeat
                .submit(JobSpec::new(d.clone(), steps))
                .expect("repeat campaign fits the queue")
        })
        .collect();
    for id in &repeat_ids {
        assert_eq!(repeat.status(*id).expect("known job").state, JobState::Done);
    }
    let repeat_ms = t0.elapsed().as_secs_f64() * 1e3;
    let repeated = repeat.metrics();
    let (repeat_hits, cache_bytes_saved) = (repeated.cache_hits, repeated.cache_bytes_saved);
    repeat.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    let (batched_ms, unbatched_ms) =
        (batched.as_secs_f64() * 1e3, unbatched.as_secs_f64() * 1e3);
    BatchingBenchResult {
        n_jobs,
        n_keys,
        k_max,
        batches,
        mean_occupancy: n_jobs as f64 / batches as f64,
        batched_ms,
        unbatched_ms,
        speedup: unbatched_ms / batched_ms,
        cmat_saved_bytes,
        saved_ratio: cmat_saved_bytes as f64 / cmat_unbatched_bytes as f64,
        world_spawns,
        cmat_builds,
        repeat_hits,
        repeat_hit_rate: repeat_hits as f64 / n_jobs as f64,
        repeat_ms,
        cache_bytes_saved,
    }
}

/// Render the results as the `BENCH_batching.json` document.
pub fn batching_bench_json(results: &[BatchingBenchResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"batching\",\n");
    s.push_str(
        "  \"description\": \"campaign served through xg-serve with cmat-key batching \
         vs the same decks as independent k=1 XGYRO runs, one worker, same grid; \
         repeat_* columns re-submit the identical decks to a fresh daemon over the \
         warmed artifact store\",\n",
    );
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n_jobs\": {}, \"n_keys\": {}, \"k_max\": {}, \"batches\": {}, \
             \"mean_occupancy\": {:.2}, \"batched_ms\": {:.1}, \"unbatched_ms\": {:.1}, \
             \"speedup\": {:.3}, \"cmat_saved_bytes\": {}, \"saved_ratio\": {:.4}, \
             \"world_spawns\": {}, \"cmat_builds\": {}, \
             \"repeat_hits\": {}, \"repeat_hit_rate\": {:.4}, \"repeat_ms\": {:.1}, \
             \"cache_bytes_saved\": {}}}",
            r.n_jobs,
            r.n_keys,
            r.k_max,
            r.batches,
            r.mean_occupancy,
            r.batched_ms,
            r.unbatched_ms,
            r.speedup,
            r.cmat_saved_bytes,
            r.saved_ratio,
            r.world_spawns,
            r.cmat_builds,
            r.repeat_hits,
            r.repeat_hit_rate,
            r.repeat_ms,
            r.cache_bytes_saved
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable table of the same results.
pub fn batching_bench_report(results: &[BatchingBenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "P3: campaign batching efficiency (served vs k=1 runs)");
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>6} {:>8} {:>6} {:>12} {:>12} {:>8} {:>12} {:>7} {:>6} {:>10} {:>12}",
        "jobs", "keys", "k_max", "batches", "occ", "batched_ms", "unbatch_ms", "speedup",
        "saved_B", "saved%", "hit%", "repeat_ms", "cache_B"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>8} {:>6.2} {:>12.1} {:>12.1} {:>8.2} {:>12} {:>7.1} \
             {:>6.1} {:>10.1} {:>12}",
            r.n_jobs,
            r.n_keys,
            r.k_max,
            r.batches,
            r.mean_occupancy,
            r.batched_ms,
            r.unbatched_ms,
            r.speedup,
            r.cmat_saved_bytes,
            100.0 * r.saved_ratio,
            100.0 * r.repeat_hit_rate,
            r.repeat_ms,
            r.cache_bytes_saved
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_wellformed_results() {
        let cfg = BatchingBenchConfig {
            n_jobs_values: vec![3],
            n_keys_values: vec![1],
            steps: 10,
        };
        let results = run_batching_bench(&cfg);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        // 3 jobs, 1 key, k_max 3 → one full batch saving 2 cmat copies.
        assert_eq!(r.batches, 1);
        assert_eq!(r.mean_occupancy, 3.0);
        assert_eq!(
            r.cmat_saved_bytes,
            xg_costmodel::cmat_saved_bytes(3, CgyroInput::test_small().dims())
        );
        // One session per batch: one spawn, one factorization.
        assert_eq!((r.world_spawns, r.cmat_builds), (1, 1));
        assert!(r.batched_ms > 0.0 && r.unbatched_ms > 0.0);
        assert!(r.speedup.is_finite() && r.saved_ratio > 0.0);
        // The repeat pass over the warmed store must hit on every member.
        assert_eq!(r.repeat_hits, 3);
        assert_eq!(r.repeat_hit_rate, 1.0);
        assert!(r.repeat_ms > 0.0 && r.cache_bytes_saved > 0);
        let json = batching_bench_json(&results);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"batching\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"repeat_hit_rate\": 1.0000"));
        let report = batching_bench_report(&results);
        assert!(report.contains("speedup"));
    }
}
