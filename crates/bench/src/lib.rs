//! # xg-bench
//!
//! The experiment registry: one function per paper artifact (figures 1–3 and
//! the quantitative claims of §1–§3), each returning a rendered report of
//! modeled tables and functional comm traces, plus the modeled decomposition
//! sweep. The `paper_figures` binary dispatches on experiment id. Nothing
//! here reads a clock: every wall-clock number in this repository is taken
//! by the repo benchmark (`benchmark/`, `BENCHMARK.json`). See DESIGN.md §5
//! for the experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! numbers.

#![warn(missing_docs)]

pub mod decomp_bench;
pub mod experiments;

pub use decomp_bench::{
    decomp_bench_json, decomp_bench_report, run_decomp_bench, DecompBenchConfig,
    DecompBenchResult,
};
pub use experiments::*;
