//! # xg-comm
//!
//! A thread-backed stand-in for the slice of MPI the paper's mechanism
//! uses: a [`World`] of ranks, [`Communicator`]s with `split`, five
//! blocking collectives in one form each (barrier, AllGather, AllReduce,
//! AllToAllv — see [`communicator`]), and per-rank [`stats::TrafficLog`]
//! accounting that feeds both the communication-pattern traces (paper
//! Figures 1/3) and the analytic cost model. There is no point-to-point
//! layer and there are no rooted collectives: the step never calls them.
//!
//! Design notes:
//!
//! * Collectives on one communicator are totally ordered (epoch-numbered
//!   rendezvous slots); disjoint communicators never serialize against each
//!   other — matching MPI semantics for blocking collectives.
//! * Reductions combine contributions in **communicator-rank order**, so
//!   results are deterministic and re-partitioned ensembles with identical
//!   per-simulation grids reproduce bitwise-identical trajectories.
//! * A panic on any rank poisons every slot, so the run aborts promptly
//!   with the offending rank identified instead of deadlocking.
//! * Fault tolerance is opt-in: [`World::with_deadline`] bounds every
//!   blocking wait, [`World::with_fault_plan`] injects seeded failures
//!   (crash / stall / delay), and [`World::run_fallible`] reports each
//!   rank's ending as a typed [`world::RankOutcome`] instead of re-throwing
//!   the first panic — the substrate for degraded-mode ensemble recovery.
//!   A collective that observes a dead or stalled peer panics with the
//!   typed [`CommError`] as payload; `run_fallible` downcasts it back into
//!   [`RankOutcome::Failed`] at the rank boundary.

#![warn(missing_docs)]

pub mod communicator;
mod exchange;
pub mod fault;
pub mod stats;
pub mod tracefile;
pub mod world;

pub use communicator::Communicator;
pub use fault::{CommError, FaultKind, FaultPlan, FaultSpec};
pub use stats::{OpKind, OpRecord, TrafficLog};
pub use tracefile::{
    trace_meta, traces_from_csv, traces_to_csv, traces_to_csv_with_meta, TraceFileError,
};
pub use world::{RankOutcome, World};
