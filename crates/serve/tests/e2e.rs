//! End-to-end acceptance test (ISSUE): submit N jobs carrying m distinct
//! cmat keys and assert that
//!
//! 1. exactly m batches form (one shared-cmat ensemble per key),
//! 2. every job reaches a terminal state,
//! 3. each member's result is **bitwise identical** to running the same
//!    decks through `run_xgyro` directly, and
//! 4. the batch-occupancy and cmat-bytes-saved metrics match
//!    `xg_costmodel`'s prediction.

use std::collections::BTreeSet;
use std::time::Duration;
use xg_serve::{CampaignServer, JobId, JobSpec, JobState, ServerConfig};
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{run_xgyro, EnsembleConfig};

const STEPS: usize = 20;

fn config() -> ServerConfig {
    let mut cfg = ServerConfig::local_test();
    // Deterministic grouping: batches flush because they fill (k_cap = 3
    // on the modeled 3-node allocation), never by linger.
    cfg.linger = Duration::from_secs(600);
    cfg
}

/// m = 2 distinct cmat keys (nu_ee variants), 3 jobs each.
fn sweep() -> Vec<CgyroInput> {
    let base = CgyroInput::test_small();
    let mut hot = base.clone();
    hot.nu_ee *= 2.0;
    let mut decks = Vec::new();
    for key_deck in [&base, &hot] {
        for i in 0..3 {
            decks.push(key_deck.with_gradients(1.0 + 0.25 * i as f64, 2.0 + 0.5 * i as f64));
        }
    }
    decks
}

#[test]
fn n_jobs_m_keys_form_m_batches_with_exact_results_and_metrics() {
    let cfg = config();
    let grid = cfg.grid;
    let server = CampaignServer::start(cfg);
    let decks = sweep();
    let ids: Vec<JobId> = decks
        .iter()
        .enumerate()
        .map(|(i, d)| {
            server
                .submit(JobSpec { input: d.clone(), steps: STEPS, tag: format!("e2e{i}"), tenant: "default".into() })
                .expect("admitted")
        })
        .collect();
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");

    // (1) Exactly m = 2 batches; co-batched iff cmat keys match.
    let statuses: Vec<_> = ids.iter().map(|id| server.status(*id).unwrap()).collect();
    let batches: BTreeSet<_> = statuses.iter().map(|s| s.batch.unwrap()).collect();
    assert_eq!(batches.len(), 2, "one batch per distinct cmat key");
    for (a, sa) in statuses.iter().enumerate() {
        for (b, sb) in statuses.iter().enumerate().skip(a + 1) {
            assert_eq!(
                sa.batch == sb.batch,
                decks[a].cmat_key() == decks[b].cmat_key(),
                "jobs {a} and {b}: co-batched must equal key-shared"
            );
        }
    }

    // (2) Every job terminated — here, successfully.
    for s in &statuses {
        assert!(s.state.is_terminal(), "{}: non-terminal {}", s.id, s.state);
        assert_eq!(s.state, JobState::Done, "{}: {}", s.id, s.detail);
    }

    // (3) Bitwise identity with a direct run_xgyro of each key group (the
    // batcher preserves submission order, so the ensemble member order is
    // the submission order).
    for group in decks.chunks(3) {
        let reference = run_xgyro(
            &EnsembleConfig::new(group.to_vec(), grid).expect("shared key"),
            STEPS,
        );
        for (j, deck) in group.iter().enumerate() {
            let pos = decks.iter().position(|d| std::ptr::eq(d, deck)).unwrap();
            let got = server.result(ids[pos]).expect("Done job retains its outcome");
            assert_eq!(
                got.h, reference.sims[j].h,
                "job {pos} diverged from the direct XGYRO run"
            );
            assert_eq!(got.steps, STEPS);
        }
    }

    // (4) Metrics match the cost model: two k=3 batches, each saving
    // (k-1) cmat copies against the unbatched baseline of k copies.
    let dims = decks[0].dims();
    let m = server.metrics();
    assert_eq!(m.occupancy, [(3, 2)].into(), "occupancy histogram");
    assert_eq!(m.cmat_saved_bytes, 2 * xg_costmodel::cmat_saved_bytes(3, dims));
    assert_eq!(m.cmat_unbatched_bytes, 2 * 3 * xg_costmodel::cmat_total_bytes(dims));
    let text = server.metrics_text();
    assert!(text.contains("xgserve_jobs{state=\"Done\"} 6\n"), "{text}");
    server.shutdown();
}

#[test]
fn every_lifecycle_path_terminates() {
    // One batch completes, one job is cancelled pre-dispatch, one member
    // faults mid-run: Done, Cancelled and Failed all coexist, and drain
    // still goes quiet.
    let mut cfg = config();
    cfg.workers = 1;
    cfg.fault_plan = Some(xg_comm::FaultPlan::crash(2, 4));
    let server = CampaignServer::start(cfg);
    let base = CgyroInput::test_small();

    // Fault target: the first dispatched batch (k=3, rank 2 = member 1).
    let faulted: Vec<JobId> = (0..3)
        .map(|i| {
            server
                .submit(JobSpec {
                    input: base.with_gradients(1.0 + i as f64, 2.0),
                    steps: STEPS,
                    tag: format!("faulted{i}"),
                    tenant: "default".into(),
                })
                .unwrap()
        })
        .collect();
    // A second key's job, cancelled while its underfull batch lingers.
    let mut hot = base.clone();
    hot.nu_ee *= 3.0;
    let doomed = server
        .submit(JobSpec { input: hot, steps: STEPS, tag: "doomed".into(), tenant: "default".into() })
        .unwrap();
    assert_eq!(server.cancel(doomed).unwrap(), JobState::Cancelled);

    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let states: Vec<JobState> =
        faulted.iter().map(|id| server.status(*id).unwrap().state).collect();
    assert_eq!(states.iter().filter(|s| **s == JobState::Failed).count(), 1);
    assert_eq!(states.iter().filter(|s| **s == JobState::Done).count(), 2);
    assert_eq!(server.status(doomed).unwrap().state, JobState::Cancelled);

    // The survivors' results are still exact: bitwise equal to a clean
    // k=2 run of the surviving decks (member eviction must not perturb
    // batch-mates — the PR 1 resilience property, observed through the
    // serving stack).
    let survivors: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == JobState::Done)
        .map(|(i, _)| i)
        .collect();
    let clean_cfg = EnsembleConfig::new(
        survivors.iter().map(|&i| base.with_gradients(1.0 + i as f64, 2.0)).collect(),
        ProcGrid::new(2, 1),
    )
    .unwrap();
    let clean = run_xgyro(&clean_cfg, STEPS);
    for (j, &i) in survivors.iter().enumerate() {
        let got = server.result(faulted[i]).expect("survivor outcome");
        assert_eq!(got.h, clean.sims[j].h, "survivor {i} perturbed by the eviction");
    }
    server.shutdown();
}

#[test]
fn a_cancel_racing_dispatch_never_kills_the_worker() {
    // Submit-then-cancel, back to back: with one worker and k_max = 1 each
    // job flushes at once, and a spin of varying length sweeps the cancel
    // across the moment the worker pops its batch. Wherever it lands, the
    // job must end Cancelled or Done and the worker must survive to run the
    // next batch. Were the pop and the Running transition two lock
    // acquisitions, a cancel could commit Cancelled in between; the worker
    // would run the job anyway, die on the illegal Cancelled → Done edge,
    // and drain would never go quiet.
    const JOBS: usize = 15_000;
    let mut cfg = ServerConfig::local_test();
    cfg.workers = 1;
    cfg.k_max = 1;
    cfg.retain_jobs = JOBS;
    let server = CampaignServer::start(cfg);
    let spec = JobSpec::new(CgyroInput::test_small(), STEPS);
    let ids: Vec<JobId> = (0..JOBS)
        .map(|i| {
            let id = server.submit(spec.clone()).expect("admitted");
            for _ in 0..(i % 200) * 10 {
                std::hint::spin_loop();
            }
            server.cancel(id).expect("a known job");
            id
        })
        .collect();
    assert!(server.drain(Duration::from_secs(10)), "drain timed out: the worker died");
    for id in ids {
        let state = server.status(id).expect("retained").state;
        assert!(matches!(state, JobState::Cancelled | JobState::Done), "{id}: {state:?}");
    }
    assert_eq!(server.metrics().worlds_active, 0);
    server.shutdown();
}
