//! Serving invariants, reachable from tier-1 (`cargo test -q` at the root).
//!
//! `xgqueued` is the only way a pile of decks becomes the one job the paper
//! is about, and its whole job lifecycle is one transition function over
//! journal records, shared by the live server, restart replay and journal
//! compaction. Two checks on it run here:
//!
//! * pure — any record sequence, legal or garbage, replayed the way a
//!   restart replays it keeps every ledger consistent after every record
//!   ([`xg_serve::replay_check`]);
//! * threaded — a small campaign whose journal dies at append `n`, for
//!   every `n`, restarted on the same directory: no acknowledged job is
//!   lost and every answer equals the uncrashed run's.

use proptest::prelude::*;
use std::time::Duration;
use xg_serve::journal::fnv1a;
use xg_serve::{
    BatchId, CampaignServer, JobId, JobSpec, JobState, JournalConfig, JournalRecord,
    ServeFaultPlan, ServerConfig,
};
use xg_sim::{write_deck, CgyroInput};

const STEPS: usize = 20;

fn deck(n: u64) -> CgyroInput {
    CgyroInput::test_small().with_gradients(1.0 + 0.25 * n as f64, 2.0)
}

/// Strategy: one record over 5 job ids and 3 batch ids. Admissions carry a
/// real deck (one in four with a wrong hash, which replay must drop with a
/// warning, not a panic).
fn arb_record() -> impl Strategy<Value = JournalRecord> {
    let members = || prop::collection::vec(0u64..5, 0..4);
    prop_oneof![
        (0u64..5, 0u64..8, 0u64..4).prop_map(|(job, tok, flaw)| {
            let deck = write_deck(&deck(job));
            JournalRecord::Submitted {
                job: JobId(job),
                token: if tok < 5 { format!("tok-{tok}") } else { String::new() },
                deck_hash: fnv1a(deck.as_bytes()) ^ u64::from(flaw == 0),
                deck,
                steps: STEPS as u64,
                tag: String::new(),
                tenant: ["alice", "bob"][tok as usize % 2].into(),
                submitted_unix_us: 0,
            }
        }),
        (0u64..5, 0u64..3)
            .prop_map(|(j, b)| JournalRecord::Batched { job: JobId(j), batch: BatchId(b) }),
        (0u64..3, members()).prop_map(|(b, js)| JournalRecord::Running {
            batch: BatchId(b),
            jobs: js.into_iter().map(JobId).collect(),
        }),
        (0u64..3, members(), 0u64..4).prop_map(|(b, js, seq)| JournalRecord::Checkpoint {
            batch: BatchId(b),
            jobs: js.into_iter().map(JobId).collect(),
            seq,
            done_steps: 10,
            state: vec![seq as u8; 16],
        }),
        (0u64..3, members(), 0u64..4).prop_map(|(b, js, seq)| JournalRecord::CheckpointRef {
            batch: BatchId(b),
            jobs: js.into_iter().map(JobId).collect(),
            seq,
            done_steps: 10,
            state_len: 16,
            state_crc: seq as u32,
        }),
        (0u64..5, 0u64..).prop_map(|(j, h)| JournalRecord::Done {
            job: JobId(j),
            steps: STEPS as u64,
            h_hash: h,
            diag_bits: [h; 4],
        }),
        (0u64..5).prop_map(|j| JournalRecord::Failed { job: JobId(j), detail: "evicted".into() }),
        (0u64..5).prop_map(|j| JournalRecord::Cancelled { job: JobId(j), detail: "cancel".into() }),
    ]
}

proptest! {
    /// Every prefix of every log replays to a consistent table (the check
    /// runs after each record), and what comes out is well-formed: ids in
    /// range, and only a job that was never placed (still queued, or
    /// cancelled while queued) is without a batch.
    #[test]
    fn any_log_replays_to_a_consistent_table(log in prop::collection::vec(arb_record(), 0..40)) {
        let jobs = xg_serve::replay_check(log).map_err(TestCaseError::fail)?;
        for j in &jobs {
            prop_assert!(j.id.0 < 5);
            let unplaced = matches!(j.state, JobState::Queued | JobState::Cancelled);
            prop_assert!(j.batch.is_some() || unplaced, "{:?}", j);
        }
    }
}

#[test]
fn a_crash_at_any_append_loses_no_acknowledged_job() {
    let dir = std::env::temp_dir().join(format!("xg-serve-invariants-{}", std::process::id()));
    let mk = |crash_at: Option<u64>| {
        let mut cfg = ServerConfig::local_test();
        let mut journal = JournalConfig::durable(&dir);
        journal.fault_plan = crash_at.map(ServeFaultPlan::crash);
        cfg.journal = Some(journal);
        cfg
    };
    // One full k=3 batch; a submit the dead journal refuses is not acknowledged.
    let campaign = |server: &CampaignServer| -> Vec<Option<JobId>> {
        (0..3).map(|n| server.submit(JobSpec::new(deck(n), STEPS)).ok()).collect()
    };

    let _ = std::fs::remove_dir_all(&dir);
    let server = CampaignServer::start(mk(None));
    let ids = campaign(&server);
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let truth: Vec<_> = ids.iter().map(|id| server.result_summary(id.unwrap()).unwrap()).collect();
    let appends = server.metrics().journal.appends;
    assert!(appends >= 10, "every transition is journaled, got {appends}");
    server.shutdown();

    for crash_at in 0..appends {
        let _ = std::fs::remove_dir_all(&dir);
        let server = CampaignServer::start(mk(Some(crash_at)));
        let acked = campaign(&server);
        server.drain(Duration::from_secs(120));
        server.shutdown();

        let server = CampaignServer::start(mk(None));
        assert!(server.drain(Duration::from_secs(120)), "crash@{crash_at}: drain timed out");
        for (id, want) in acked.iter().zip(&truth) {
            let Some(id) = id else { continue };
            let st = server.status(*id).unwrap_or_else(|| panic!("crash@{crash_at}: {id} lost"));
            assert_eq!(st.state, JobState::Done, "crash@{crash_at}: {id}: {}", st.detail);
            assert_eq!(server.result_summary(*id).as_ref(), Some(want), "crash@{crash_at}: {id}");
        }
        let m = server.metrics();
        assert_eq!(m.worlds_active, 0, "crash@{crash_at}");
        assert!(m.tenants.values().all(|t| t.live_jobs == 0), "crash@{crash_at}");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
