//! Per-layer probes of the traced pass: each module times or counts calls
//! into one crate's public functions, at the dimensions of the workload it
//! runs in, and knows nothing of the other layers.

pub mod artifact;
pub mod cluster;
pub mod comm;
pub mod core;
pub mod linalg;
pub mod serve;
pub mod sim;
pub mod tensor;

use crate::stats::median;
use std::time::Instant;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;

/// What a probe needs to know about the workload it explains.
pub struct Ctx<'a> {
    /// One member (or job) deck of the workload.
    pub deck: &'a CgyroInput,
    /// Members that share one cmat: the ensemble's k, or a full batch.
    pub k: usize,
    pub grid: ProcGrid,
    /// Steps one run of the workload takes.
    pub steps: usize,
    /// Complex values in one fused str-phase reduction, as the workload's
    /// own trace recorded it.
    pub str_reduce_len: usize,
    /// Complex values one rank sends to each peer of the coll exchange.
    pub coll_block_len: usize,
}

/// Median seconds per call: `samples` timings of `batch` back-to-back calls
/// each, after one untimed batch.
pub fn secs_per_call(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut run_batch = || {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        t.elapsed().as_secs_f64() / batch as f64
    };
    run_batch();
    let timings: Vec<f64> = (0..samples).map(|_| run_batch()).collect();
    median(&timings)
}

/// Deterministic filler in `[-0.5, 0.5)`: probe inputs need to be neither
/// zero nor denormal, nothing more.
pub fn filler(i: usize) -> f64 {
    ((i.wrapping_mul(2_654_435_761) >> 7) % 1024) as f64 / 1024.0 - 0.5
}
