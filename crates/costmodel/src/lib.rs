//! # xg-costmodel
//!
//! Analytic performance model of a Frontier-like HPC system: machine
//! presets, node-aware α–β collective cost formulas (with the calibrated
//! AllReduce congestion term whose ~linear-in-participants growth is the
//! mechanism the paper exploits), a roofline compute model, and accounting
//! helpers that turn communication traces into per-phase time breakdowns.
//!
//! Calibration discipline: constants in
//! [`machine::MachineModel::frontier_like`] are fitted once against the
//! paper's *CGYRO* numbers (Figure 2 left column); every XGYRO number this
//! model produces is a prediction, not a fit. See EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod account;
pub mod collective;
pub mod compute;
pub mod machine;
pub mod machinefile;
pub mod memory;

pub use account::{critical_path, op_time, trace_breakdown, PhaseBreakdown};
pub use collective::{
    allgather_time, allreduce_time, alltoall_time, barrier_time, broadcast_time, CollectiveShape,
};
pub use compute::KernelCost;
pub use machine::{MachineModel, Placement};
pub use machinefile::{parse_machine, preset, MachineFileError, PRESET_NAMES};
pub use memory::{cmat_saved_bytes, cmat_total_bytes};
