//! # xgyro-core — the paper's contribution
//!
//! XGYRO executes an ensemble of CGYRO-class simulations as a single job,
//! sharing one copy of the collisional constant tensor (`cmat`) across all
//! members. This crate provides:
//!
//! * [`ensemble`] — ensemble configuration and the `cmat`-key admission
//!   check (only simulations whose collision-relevant inputs match may
//!   share; gradient-drive parameter sweeps always qualify);
//! * [`topology`] — the Figure-3 communicator construction: per-simulation
//!   `nv` (str AllReduce) and `nt` communicators, plus the **separated**,
//!   ensemble-wide coll communicator over which `cmat` is distributed;
//! * [`session`] — the one stepping engine: a persistent world whose ranks
//!   build their topology (and the shared `cmat`) once and then step,
//!   checkpoint and report on demand;
//! * [`runner`] — the ensemble and sequential-CGYRO-baseline runners, thin
//!   drivers over a session;
//! * [`report`] — the memory-sharing law and communication-trace
//!   summaries;
//! * [`recovery`] — degraded-mode execution, one driver
//!   ([`run_xgyro_resilient_from`] over a [`ResilientRun`]): a session
//!   checkpointed in segments over the fallible comm substrate, with failed
//!   members evicted and the survivors reopened on the balanced split,
//!   bitwise-identically, from the last coherent checkpoint.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod ensemble;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod session;
pub mod topology;

pub use checkpoint::{run_xgyro_checkpointed, CheckpointError, EnsembleCheckpoint};
pub use recovery::{
    run_xgyro_resilient_from, RecoveryError, RecoveryEvent, RecoveryOutcome, ResilientRun,
};
pub use ensemble::{gradient_sweep, EnsembleConfig, EnsembleError};
pub use report::{cmat_memory_law, summarize_trace, CmatMemoryLaw, TraceSummary};
pub use runner::{
    run_cgyro_baseline, run_single_cgyro, run_xgyro, run_xgyro_with_history, RunOutcome,
    SimResult,
};
pub use session::{EnsembleSession, SegmentFault};
pub use topology::{assignment, build_xgyro_topology, RankAssignment};
