//! The four named workloads.

pub mod campaign;
pub mod ensemble;

use crate::gen::Deck;
use crate::metrics::Outcome;
use std::time::Duration;

/// k gradient-sweep members of one deck on one process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnsembleSpec {
    pub deck: Deck,
    pub k: usize,
    pub grid: (usize, usize),
    pub steps: usize,
    /// `run_xgyro(cfg, 0)` calls timed per cycle; `setup_s` is their median.
    pub setups_per_cycle: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// k members run directly through `run_xgyro` / `run_cgyro_baseline`.
    Ensemble(EnsembleSpec),
    /// A closed-loop campaign served by an in-process `CampaignServer`.
    CampaignBurst,
    /// An open-loop campaign served by an in-process `CampaignServer`.
    CampaignOpen,
}

pub struct Workload {
    pub name: &'static str,
    /// One line, the same as in `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ensemble_coll",
        why: "k=4 sweep of a collision-dominated deck (cmat 63.7 MB, grid 2x1, 40 steps): the paper's regime, where the cmat build and collision apply dominate and sharing pays",
        kind: Kind::Ensemble(EnsembleSpec { deck: Deck::Coll, k: 4, grid: (2, 1), steps: 40, setups_per_cycle: 2 }),
    },
    Workload {
        name: "ensemble_strnl",
        why: "k=2 sweep of a streaming/nonlinear deck (cmat 2.1 MB, grid 2x2, 120 steps): the bypass, where cmat is idle and FFTs, str reductions and nl transposes do the work",
        kind: Kind::Ensemble(EnsembleSpec { deck: Deck::Strnl, k: 2, grid: (2, 2), steps: 120, setups_per_cycle: 12 }),
    },
    Workload {
        name: "campaign_burst",
        why: "150 small jobs over 3 cmat keys submitted closed-loop to a durable in-process server: throughput of the whole serving stack at full batch occupancy, then restart",
        kind: Kind::CampaignBurst,
    },
    Workload {
        name: "campaign_open",
        why: "open loop of 3-job sweeps every 300 ms (half of burst capacity), 3 tenants, 2 keys, a fifth re-submitted: latency under arrivals with cache reads beside publishes",
        kind: Kind::CampaignOpen,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end pass of one workload: no tracing, `XGYRO_OBS` off.
pub fn run_end_to_end(w: &Workload, seed: u64, budget: Duration) -> Outcome {
    match w.kind {
        Kind::Ensemble(spec) => ensemble::end_to_end(spec, seed, budget),
        Kind::CampaignBurst => campaign::burst_end_to_end(seed, budget),
        Kind::CampaignOpen => campaign::open_end_to_end(seed, budget),
    }
}
