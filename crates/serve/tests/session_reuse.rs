//! A served batch holds one ensemble session for its whole life: one world
//! spawn and one `cmat` factorization however many checkpoint segments it
//! runs, with the journal's durability unchanged — for one batch and over a
//! multi-batch campaign (`cmat_builds == world_spawns == batches`).
//!
//! One test only: the obs registry is process-global, and this file's
//! process must not run anything else that spawns a world.

use std::time::Duration;
use xg_serve::journal::{Journal, JournalConfig};
use xg_serve::{CampaignServer, JobSpec, JobState, JournalRecord, ServerConfig};
use xg_sim::CgyroInput;

#[test]
fn a_batch_spawns_its_world_and_builds_cmat_once() {
    let dir = std::env::temp_dir().join(format!("xg-session-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig::local_test();
    assert_eq!(cfg.ckpt_every, 10);
    cfg.journal = Some(JournalConfig::durable(&dir));

    xg_obs::set_enabled(true); // for the Phase::Setup span; the counters are ungated
    let before = xg_obs::Registry::global().session_stats();
    let setups_before = xg_obs::Registry::global().phase(xg_obs::Phase::Setup).busy.snapshot().count;

    // Three same-key decks fill one k=3 batch; 40 steps = 4 segments.
    let server = CampaignServer::start(cfg);
    let base = CgyroInput::test_small();
    let ids: Vec<_> = (0..3)
        .map(|i| {
            let deck = base.with_gradients(1.0 + 0.25 * i as f64, 2.0 + 0.5 * i as f64);
            server.submit(JobSpec::new(deck, 40)).expect("admitted")
        })
        .collect();
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    for id in &ids {
        assert_eq!(server.status(*id).expect("known").state, JobState::Done);
    }

    let after = xg_obs::Registry::global().session_stats();
    let setups_after = xg_obs::Registry::global().phase(xg_obs::Phase::Setup).busy.snapshot().count;
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1), "obs: one spawn, one build");
    assert_eq!(setups_after - setups_before, 1, "Phase::Setup brackets the one session open");
    assert_eq!(server.metrics().occupancy, [(3, 1)].into(), "one k=3 batch");
    server.shutdown();

    // Durability is what it was: every boundary but the last is journaled,
    // each naming its checkpoint file, and the finished batch left none.
    let (_, replay) = Journal::open(JournalConfig::durable(&dir)).expect("reopen the journal");
    let boundaries: Vec<u64> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::CheckpointRef { done_steps, .. } => Some(*done_steps),
            _ => None,
        })
        .collect();
    assert_eq!(boundaries, [10, 20, 30]);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    assert!(files.is_empty(), "checkpoint files outlived their batch: {files:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // The same count over a multi-batch campaign: 12 variants over 2 cmat
    // keys, 20 steps = 2 segments each. A drained server admits nothing, so
    // this is a second one; the long linger makes every batch flush because
    // it filled.
    let mut cfg = ServerConfig::local_test();
    cfg.linger = Duration::from_secs(600);
    let server = CampaignServer::start(cfg);
    let obs_idle = xg_obs::Registry::global().session_stats();
    let ids: Vec<_> = (0..12)
        .map(|i| {
            let mut deck = base.with_gradients(1.0 + 0.2 * i as f64, 2.0 + 0.1 * i as f64);
            deck.nu_ee = 0.1 * (1 + i % 2) as f64;
            server.submit(JobSpec::new(deck, 20)).expect("admitted")
        })
        .collect();
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let batches: std::collections::BTreeSet<_> = ids
        .iter()
        .map(|id| {
            let status = server.status(*id).expect("known");
            assert_eq!(status.state, JobState::Done);
            status.batch
        })
        .collect();
    let n = batches.len() as u64;
    assert_eq!(n, 4, "two full k=3 batches per key");
    let obs_served = xg_obs::Registry::global().session_stats();
    assert_eq!(
        (obs_served.0 - obs_idle.0, obs_served.1 - obs_idle.1),
        (n, n),
        "obs: one spawn and one build per batch"
    );
    server.shutdown();
}
