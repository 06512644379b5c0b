//! xg-artifact: the content-addressed result store under the serving path.
//!
//! The paper's premise is that ensemble members sharing the collisional
//! constant tensor should never pay for the same work twice. `xg-serve`
//! shares cmat *within* a batch; this crate extends the same idea *across*
//! campaigns and daemon lifetimes: every completed job is published as a
//! durable, reproducible artifact keyed by a canonical [`DeckHash`], and a
//! re-submitted byte-identical deck is served from the store without
//! executing a single simulation step.
//!
//! Three layers:
//!
//! * [`deck_hash`] — the canonical semantic identity of a submission:
//!   FNV-1a over the *parsed* deck (so formatting, key order and comments
//!   cannot split the cache) plus the requested step count, deliberately
//!   excluding execution knobs that cannot change the result bits
//!   (species display names) — the same exclusion discipline
//!   as [`xg_sim::CgyroInput::cmat_key`], extended to *every* field the
//!   result depends on (gradients, seed, cadence, dissipation, …).
//! * [`Manifest`] — one completed run's reproducibility record: deck hash,
//!   topology, kernel/algorithm choices, per-phase timings, output digests
//!   and content-addressed object pointers, rendered as hand-rolled JSON
//!   (the workspace deliberately has no JSON dependency).
//! * [`ArtifactStore`] — the on-disk layout
//!   (`objects/<prefix>/<hash>` blobs + `manifests/<deck-hash>.json`),
//!   with atomic tmp-write + rename commits, access-time tracking, pinning
//!   for golden manifests, and a size-budgeted LRU garbage collector.

mod deck_hash;
mod json;
mod manifest;
mod store;

pub use deck_hash::{deck_hash, DeckHash};
pub use json::JsonValue;
pub use manifest::{Manifest, MANIFEST_SCHEMA};
pub use store::{ArtifactStore, GcReport, ObjectId, StoreError, StoreStats};

/// 64-bit FNV-1a over a byte slice — the workspace's standard content hash
/// (re-exported as `xg_serve::journal::fnv1a`; the one implementation is
/// xg-sim's, which also keys `cmat`).
pub use xg_sim::fnv1a;
