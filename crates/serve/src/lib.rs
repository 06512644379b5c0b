//! xg-serve: a cmat-key-aware ensemble campaign service.
//!
//! Gyrokinetic campaigns are streams of many related CGYRO jobs. The paper's
//! observation — members sharing the collisional constant tensor structure
//! can run as one XGYRO ensemble, storing and exchanging **one** `cmat`
//! instead of k — turns job scheduling into a grouping problem: the more
//! compatible jobs run together, the more memory and collective traffic the
//! campaign saves. This crate is the long-running service that does the
//! grouping automatically:
//!
//! * **admission** ([`AdmitError`], [`check_spec`]) — a bounded queue with
//!   typed, synchronous rejection (invalid deck, misaligned steps, decks no
//!   allocation can hold, backpressure when full);
//! * **batching** ([`Grouper`]) — jobs group by [`BatchKey`] (the
//!   `cmat_key` plus the lockstep execution parameters) into maximal
//!   batches, capped by the operator's `k_max` *and* the planner's memory
//!   budget ([`xg_cluster::max_feasible_k`]), flushed when full, when the
//!   linger deadline expires, or on drain;
//! * **execution** ([`CampaignServer`]) — a bounded worker pool runs each
//!   batch as one XGYRO ensemble in one persistent, checkpointed session
//!   ([`xgyro_core::ResilientRun`]): a faulted member is
//!   evicted and marked `Failed` without killing its batch-mates, and
//!   cancellations preempt at checkpoint boundaries. Execution is
//!   **elastic**: each batch asks for the smallest feasible world
//!   ([`xg_cluster::min_nodes_unbalanced`]) and as many worlds run
//!   concurrently as the node budget holds;
//! * **multi-tenancy** ([`tenant`], [`sched`]) — submissions carry a
//!   tenant identity (optionally authenticated against a `--tenants`
//!   roster), admission enforces per-tenant live-job/byte quotas, and the
//!   dispatch queue divides machine time between tenants by weighted
//!   deficit round-robin with priority lanes that preempt lower-lane
//!   worlds at checkpoint boundaries;
//! * **observability** ([`JobState`] lifecycle events via poll or
//!   subscription, [`Metrics`] as JSON — including the batch-occupancy
//!   histogram and `cmat` bytes saved, computed with the same
//!   [`xg_costmodel`] law `xgplan` forecasts with);
//! * **wire protocol** ([`wire`]) — the line protocol served by the
//!   `xgqueued` binary and spoken by the `xgq` client;
//! * **durability** ([`journal`]) — a CRC-framed, fsynced write-ahead log
//!   of every job lifecycle transition, replayed on startup so a `kill -9`
//!   loses no acknowledged job; clients ride through the restart with
//!   idempotency tokens and the jittered [`wire::RetryingClient`];
//! * **result cache** ([`artifacts`]) — completed batch members are
//!   published into an [`xg_artifact::ArtifactStore`] keyed by canonical
//!   deck hash, and admission serves a re-submitted byte-identical deck
//!   straight to `Done` (journaled as a `CacheHit` record) without
//!   executing a single simulation step.

#![warn(missing_docs)]

pub mod admission;
pub mod artifacts;
pub mod batcher;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod sched;
pub mod server;
pub(crate) mod table;
pub mod tenant;
pub mod wire;

pub use admission::{check_spec, AdmitError};
pub use artifacts::{decode_outcome, encode_outcome, ArtifactConfig, PublishContext};
pub use batcher::{BatchKey, FlushReason, Grouper, GrouperConfig, Placement};
pub use job::{BatchId, JobEvent, JobId, JobOutcome, JobSpec, JobState, JobStatus};
pub use journal::{
    Journal, JournalConfig, JournalError, JournalRecord, JournalStats, Replay, ServeFaultKind,
    ServeFaultPlan, ServeFaultSpec,
};
pub use metrics::{Metrics, TenantCounters};
pub use sched::{DispatchQueue, DEFAULT_QUANTUM};
pub use server::{CacheStatus, CampaignServer, DryRun, RecoveryReport, ServerConfig};
pub use table::replay_check;
pub use tenant::{TenantDirectory, TenantSpec, TenantUsage, DEFAULT_TENANT};
pub use wire::{Client, RetryPolicy, RetryingClient};
