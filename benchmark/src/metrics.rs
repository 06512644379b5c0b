//! The metric tables. `BENCHMARK.json` at the root of the repo carries the
//! same names, units and bounds for the driver; a unit test keeps the two
//! in step. What each metric means per workload, and which end-to-end metric
//! each layer metric is expected to move, is written down in `README.md`.

/// An end-to-end metric. All are times and all are better when lower.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Differences below this many units are never a regression (`compare`
    /// only; the driver applies the relative bound alone).
    pub floor: f64,
}

/// Every bound is the contract's widest, 25 %. On the 2-core VM this was
/// sized on, ten runs of one commit spread (inter-quartile, as a share of the
/// median) by 3–12 % in a quiet period and by 10–19 % beside a noisy
/// neighbour, and the median of ten moved by up to 10 % between two such
/// periods; a tighter bound would reject commits that changed nothing.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "makespan_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "baseline_wall_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        bound: 0.25,
        floor: 0.0,
    },
];

/// A per-layer metric of the traced pass. No bound: layers explain, they do
/// not gate.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const PER_LAYER: [Layer; 54] = [
    higher("linalg.coll_apply_gflops", "Gflop/s"),
    higher("linalg.coll_apply_flop_per_byte", "flop/B"),
    lower("linalg.lu_solve_ms", "ms"),
    lower("linalg.fft_us", "us"),
    higher("tensor.pack_gbps", "GB/s"),
    lower("comm.world_spawn_ms", "ms"),
    lower("comm.allreduce_us", "us"),
    lower("comm.alltoall_us", "us"),
    lower("comm.ops_per_step", "count"),
    lower("comm.bytes_per_step", "bytes"),
    lower("comm.wait_share.str", "ratio"),
    lower("comm.wait_share.nl", "ratio"),
    lower("comm.wait_share.coll", "ratio"),
    lower("sim.cmat_build_s", "s"),
    lower("sim.serial_step_ms", "ms"),
    lower("sim.phase_busy_s.str", "s"),
    lower("sim.phase_busy_s.nl", "s"),
    lower("sim.phase_busy_s.coll", "s"),
    lower("sim.phase_busy_s.field", "s"),
    lower("sim.phase_wait_s.str", "s"),
    lower("sim.phase_wait_s.nl", "s"),
    lower("sim.phase_wait_s.coll", "s"),
    lower("core.topology_build_s", "s"),
    lower("core.step_ms", "ms"),
    lower("core.cmat_bytes_per_rank_max", "bytes"),
    higher("core.cmat_saved_ratio", "ratio"),
    higher("core.sharing_speedup", "ratio"),
    lower("core.checkpoint_bytes", "bytes"),
    lower("core.checkpoint_encode_ms", "ms"),
    lower("core.segment_restart_s", "s"),
    lower("artifact.deck_hash_us", "us"),
    lower("artifact.publish_ms", "ms"),
    lower("artifact.store_bytes_per_job", "bytes"),
    lower("artifact.lookup_hit_us", "us"),
    lower("artifact.lookup_miss_us", "us"),
    lower("serve.submit_ack_us.p50", "us"),
    lower("serve.submit_ack_us.p90", "us"),
    lower("serve.journal_append_us", "us"),
    lower("serve.journal_fsync_us", "us"),
    lower("serve.journal_bytes_per_job", "bytes"),
    lower("serve.job_latency_p90_ms", "ms"),
    lower("serve.queue_wait_ms.p50", "ms"),
    lower("serve.exec_ms.p50", "ms"),
    higher("serve.batch_occupancy_mean", "jobs/batch"),
    lower("serve.batches", "count"),
    lower("serve.serving_tax", "ratio"),
    lower("serve.repeat_pass_s", "s"),
    lower("serve.hit_latency_ms.p50", "ms"),
    higher("serve.cache_hit_rate", "ratio"),
    lower("cluster.admission_plan_us", "us"),
    lower("obs.trace_overhead_pct", "%"),
    lower("harness.peak_rss_mb", "MB"),
    lower("harness.generator_late_ms.max", "ms"),
    higher("harness.span_coverage", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one workload run hands back: the operations it attempted, the ones
/// that failed, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name,
            value,
            samples,
        });
    }

    pub fn find(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Whether a metric is better when "lower" or "higher".
pub fn direction_of(name: &str) -> &'static str {
    match PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) if m.higher_is_better => "higher",
        _ => "lower",
    }
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_f64, Json};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// harness prints. They must name the same things.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_vec()
        };
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_string()
        };

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), "lower");
            assert_eq!(j.get("bound").and_then(as_f64), Some(m.bound), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(
                field(j, "better"),
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                "{}",
                m.name
            );
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(
                w.why.len() <= 200,
                "{}: the contract caps a why at 200 characters",
                w.name
            );
        }
    }
}
