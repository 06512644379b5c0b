//! # xg-cluster
//!
//! Job planning and performance-mode execution for CGYRO/XGYRO runs on a
//! modeled cluster: the per-rank buffer inventory (reproducing the paper's
//! "cmat is 10× everything else" memory fact), a CGYRO-valid decomposition
//! planner (reproducing "a single nl03c simulation requires at least 32
//! Frontier nodes"), and a symbolic per-step schedule priced by the
//! `xg-costmodel` formulas (regenerating Figure 2's phase breakdown).

#![warn(missing_docs)]

pub mod campaign;
pub mod memory;
pub mod planner;
pub mod replay;
pub mod report;
pub mod simtime;

pub use campaign::{optimize_campaign, CampaignOption, CampaignPlan};
pub use memory::{cmat_ratio, rank_inventory, total_bytes, BufferCategory, BufferSpec};
pub use planner::{
    diagnose, max_feasible_k_unbalanced, min_nodes, min_nodes_unbalanced, plan, valid_grids,
    Infeasibility, JobPlan,
};
pub use replay::{replay, ReplayError, ReplayOutcome};
pub use report::{cgyro_timing_log, figure2_table, parse_timing_totals};
pub use simtime::{
    simulate_cgyro_sequential, simulate_ensemble_member, simulate_xgyro, ScenarioReport,
    SchedulePolicy,
};
