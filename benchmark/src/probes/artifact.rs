//! xg-artifact: the content-addressed store under the result cache.

use super::{secs_per_call, Ctx};
use crate::metrics::Outcome;
use crate::workloads::campaign::WorkDir;
use std::hint::black_box;
use xg_artifact::{deck_hash, ArtifactStore};
use xg_serve::artifacts::{publish_member, PublishContext};
use xg_serve::{JobOutcome, JobSpec};
use xgyro_core::SimResult;

/// `result` is one member's real result from the workload's traced run: the
/// blob that gets published has the size a served job's would.
pub fn measure(ctx: &Ctx, result: &SimResult, out: &mut Outcome) {
    let steps = ctx.steps;
    let secs = secs_per_call(15, 64, || {
        black_box(deck_hash(black_box(ctx.deck), steps));
    });
    out.push("artifact.deck_hash_us", secs * 1e6, 15);

    let work = WorkDir::new("probe-artifact");
    let store = ArtifactStore::open(work.path().join("store")).expect("out/ is writable");
    let mut outcome = JobOutcome {
        h: result.h.clone(),
        diagnostics: result.diagnostics,
        steps,
    };
    let publish_ctx = PublishContext {
        batch_k: ctx.k as u64,
        coll_cuts: "balanced".into(),
        kernel: String::new(),
        machine: "probe".into(),
        phase_us: vec![("execute".into(), 0)],
        trace_object: None,
        created_unix_us: 0,
    };
    // Distinct seeds make distinct deck hashes, so every publish is a new
    // manifest; one changed value makes every outcome blob a new object of
    // the same size (the store keeps identical blobs once).
    const PUBLISHES: u64 = 8;
    let mut seed = 0;
    let secs = secs_per_call(PUBLISHES as usize - 1, 1, || {
        seed += 1;
        outcome.h.as_mut_slice()[0].re = seed as f64;
        let spec = JobSpec::new(ctx.deck.with_seed(seed), steps);
        publish_member(
            &store,
            &spec,
            &outcome,
            (steps as u64, seed, [0; 4]),
            &publish_ctx,
        )
        .expect("publish into a fresh store");
    });
    out.push("artifact.publish_ms", secs * 1e3, PUBLISHES as usize - 1);
    let stored = store.stats().expect("store is readable");
    out.push(
        "artifact.store_bytes_per_job",
        stored.bytes as f64 / stored.manifests as f64,
        stored.manifests as usize,
    );

    let hit = deck_hash(&ctx.deck.with_seed(1), steps);
    let secs = secs_per_call(15, 16, || {
        black_box(
            store
                .lookup(hit)
                .expect("store is readable")
                .expect("published above"),
        );
    });
    out.push("artifact.lookup_hit_us", secs * 1e6, 15);
    let miss = deck_hash(&ctx.deck.with_seed(u64::MAX), steps);
    let secs = secs_per_call(15, 16, || {
        assert!(black_box(store.lookup(miss).expect("store is readable")).is_none());
    });
    out.push("artifact.lookup_miss_us", secs * 1e6, 15);
}
