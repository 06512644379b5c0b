//! Crash-recovery acceptance tests (ISSUE 6 tentpole): a journaled
//! `CampaignServer` survives losing its process with zero lost jobs.
//!
//! The "crash" here is the honest in-process equivalent of `kill -9`: a
//! journal directory holding exactly what a killed daemon would have left
//! behind (records up to the kill point, optionally a torn tail), handed to
//! a fresh server. We assert the recovery contract end to end:
//!
//! * terminal jobs reappear with bitwise-identical result summaries, and
//!   idempotency tokens keep deduplicating across the restart;
//! * waiting jobs are re-admitted and complete, with queue latency counted
//!   from the original journaled submit time, not replay time;
//! * a running batch resumes from its journaled checkpoint and finishes
//!   **bitwise identical** to an uninterrupted run — and one whose
//!   checkpoint file is missing, short or corrupt restarts from step 0
//!   with a warning, to the same bits;
//! * a torn tail is truncated with a warning, not a refusal to start;
//! * a journal that cannot persist sheds the submit with typed
//!   backpressure instead of accepting unjournaled work;
//! * fsync count and time are the journal's own counters, exported by the
//!   serve metrics with the phase timers off.

use std::path::PathBuf;
use std::time::Duration;
use xg_serve::journal::{
    checkpoint_path, crc32, fnv1a, write_checkpoint, Journal, JournalConfig, ServeFaultPlan,
};
use xg_serve::{
    AdmitError, BatchId, CampaignServer, JobId, JobSpec, JobState, JournalRecord, ServerConfig,
};
use xg_sim::{write_deck, CgyroInput};
use xgyro_core::{run_xgyro, run_xgyro_resilient_from, EnsembleConfig};

const STEPS: usize = 20;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xg-crash-recovery-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> ServerConfig {
    let mut cfg = ServerConfig::local_test();
    cfg.journal = Some(JournalConfig::durable(dir));
    cfg
}

/// Three same-key decks — one full k=3 batch on the local_test allocation.
fn sweep() -> Vec<CgyroInput> {
    let base = CgyroInput::test_small();
    (0..3).map(|i| base.with_gradients(1.0 + 0.25 * i as f64, 2.0 + 0.5 * i as f64)).collect()
}

fn unix_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[test]
fn restart_restores_done_jobs_and_keeps_tokens_deduplicating() {
    let dir = tmpdir("restart-done");
    let decks = sweep();

    // First life: run the campaign to completion, remember the summaries.
    let server = CampaignServer::start(config(&dir));
    let ids: Vec<JobId> = decks
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let spec = JobSpec { input: d.clone(), steps: STEPS, tag: format!("life1-{i}"), tenant: "default".into() };
            server.submit_authed(spec, Some(&format!("tok-{i}")), None).expect("admitted").0
        })
        .collect();
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let summaries: Vec<_> =
        ids.iter().map(|id| server.result_summary(*id).expect("done")).collect();
    server.shutdown();

    // Second life, same directory: every job is back, Done, with the same
    // bitwise result summary — and no re-execution happened (the restored
    // summary answers, there is nothing live to run).
    let server = CampaignServer::start(config(&dir));
    let rec = server.metrics().recovery;
    assert!(rec.replayed_records > 0, "nothing replayed: {rec:?}");
    assert_eq!(rec.restored_jobs, 3, "{rec:?}");
    assert_eq!(rec.readmitted_jobs, 0, "{rec:?}");
    assert_eq!(rec.resumed_batches, 0, "{rec:?}");
    assert_eq!(rec.torn_bytes, 0, "{rec:?}");
    for (id, want) in ids.iter().zip(&summaries) {
        let st = server.status(*id).expect("restored");
        assert_eq!(st.state, JobState::Done, "{id}: {}", st.detail);
        assert_eq!(server.result_summary(*id).expect("summary"), *want, "{id} summary drifted");
    }
    // A retried submit from before the crash still deduplicates: same
    // token, same id, dup=true — the double-enqueue a lost OK would cause.
    let (dup_id, dup) = server
        .submit_authed(
            JobSpec { input: decks[1].clone(), steps: STEPS, tag: "retry".into(), tenant: "default".into() },
            Some("tok-1"),
            None,
        )
        .expect("token lookup is not admission");
    assert!(dup, "journaled token forgotten across restart");
    assert_eq!(dup_id, ids[1]);
    server.shutdown();
}

#[test]
fn waiting_jobs_are_readmitted_and_age_from_the_original_submit() {
    let dir = tmpdir("readmit");
    let decks = sweep();

    // A killed daemon's journal: two jobs acknowledged (Submitted +
    // Batched), never dispatched. Submitted 5 s before "now", so restored
    // queue-latency accounting must span the outage.
    let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).expect("open");
    let before_us = unix_us().saturating_sub(5_000_000);
    for (i, d) in decks.iter().take(2).enumerate() {
        let deck = write_deck(d);
        j.append(&JournalRecord::Submitted {
            job: JobId(i as u64),
            token: String::new(),
            deck_hash: fnv1a(deck.as_bytes()),
            deck,
            steps: STEPS as u64,
            tag: format!("orphan{i}"),
            tenant: "default".into(),
            submitted_unix_us: before_us,
        })
        .expect("append");
        j.append(&JournalRecord::Batched { job: JobId(i as u64), batch: BatchId(0) })
            .expect("append");
    }
    drop(j);

    let server = CampaignServer::start(config(&dir));
    let rec = server.metrics().recovery;
    assert_eq!(rec.readmitted_jobs, 2, "{rec:?}");
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");

    // Both orphans ran to completion, bitwise identical to a direct k=2
    // run of the same decks (readmission preserves submission order).
    let grid = ServerConfig::local_test().grid;
    let reference =
        run_xgyro(&EnsembleConfig::new(decks[..2].to_vec(), grid).expect("shared key"), STEPS);
    for i in 0..2u64 {
        let st = server.status(JobId(i)).expect("readmitted");
        assert_eq!(st.state, JobState::Done, "job-{i}: {}", st.detail);
        let got = server.result(JobId(i)).expect("outcome");
        assert_eq!(got.h, reference.sims[i as usize].h, "job-{i} diverged after readmission");
        // Queue latency counts from the journaled submit 5 s ago, not from
        // replay: the restart must not hide the outage from the operator.
        let latency = st.queue_latency_ms.expect("dispatched");
        assert!(latency >= 5_000, "latency {latency} ms forgot the pre-crash wait");
    }
    server.shutdown();
}

#[test]
fn journal_written_before_the_reduction_knob_was_removed_still_replays() {
    let dir = tmpdir("legacy-deck");
    let input = sweep().remove(0);

    // The deck text an older daemon journaled: its `write_deck` emitted a
    // `REDUCE_ALGO=auto` line between SEED and N_SPECIES. Replay drops a
    // job whose deck no longer parses, so the key must stay accepted.
    let deck = write_deck(&input).replace("N_SPECIES=", "REDUCE_ALGO=auto\nN_SPECIES=");
    assert!(deck.contains("\nSEED=1\nREDUCE_ALGO=auto\nN_SPECIES=2\n"), "{deck}");
    let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).expect("open");
    j.append(&JournalRecord::Submitted {
        job: JobId(0),
        token: String::new(),
        deck_hash: fnv1a(deck.as_bytes()),
        deck,
        steps: STEPS as u64,
        tag: "legacy".into(),
        tenant: "default".into(),
        submitted_unix_us: unix_us(),
    })
    .expect("append");
    drop(j);

    let server = CampaignServer::start(config(&dir));
    let rec = server.metrics().recovery;
    assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
    assert_eq!(rec.readmitted_jobs, 1, "{rec:?}");
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let st = server.status(JobId(0)).expect("readmitted");
    assert_eq!(st.state, JobState::Done, "{}", st.detail);
    // The ignored line changed nothing about what ran.
    let grid = ServerConfig::local_test().grid;
    let reference = run_xgyro(&EnsembleConfig::new(vec![input], grid).expect("k=1"), STEPS);
    assert_eq!(server.result(JobId(0)).expect("outcome").h, reference.sims[0].h);
    server.shutdown();
}

#[test]
fn running_batch_resumes_from_its_checkpoint_bitwise_identically() {
    let dir = tmpdir("resume");
    let decks: Vec<CgyroInput> = sweep().into_iter().take(2).collect();
    let grid = ServerConfig::local_test().grid;
    let config_k2 = EnsembleConfig::new(decks.clone(), grid).expect("shared key");

    // The checkpoint a killed daemon would have journaled: the real
    // ensemble state after the first 10-step segment.
    let half = run_xgyro_resilient_from(
        &config_k2,
        None,
        STEPS / 2,
        STEPS / 2,
        xg_comm::FaultPlan::new(),
        Duration::from_secs(10),
    )
    .expect("clean half run");

    let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).expect("open");
    let members = vec![JobId(0), JobId(1)];
    for (i, d) in decks.iter().enumerate() {
        let deck = write_deck(d);
        j.append(&JournalRecord::Submitted {
            job: JobId(i as u64),
            token: String::new(),
            deck_hash: fnv1a(deck.as_bytes()),
            deck,
            steps: STEPS as u64,
            tag: format!("mid{i}"),
            tenant: "default".into(),
            submitted_unix_us: unix_us(),
        })
        .expect("append");
        j.append(&JournalRecord::Batched { job: JobId(i as u64), batch: BatchId(0) })
            .expect("append");
    }
    j.append(&JournalRecord::Running { batch: BatchId(0), jobs: members.clone() })
        .expect("append");
    j.append(&JournalRecord::Checkpoint {
        batch: BatchId(0),
        jobs: members,
        seq: 0,
        done_steps: (STEPS / 2) as u64,
        state: half.checkpoint.to_bytes(),
    })
    .expect("append");
    drop(j);

    let server = CampaignServer::start(config(&dir));
    let rec = server.metrics().recovery;
    assert_eq!(rec.resumed_batches, 1, "{rec:?}");
    assert_eq!(rec.restored_jobs, 2, "{rec:?}");
    // New submissions keep working alongside a resume (batch ids were
    // re-seeded past the journaled ones, so no collision).
    let fresh = server
        .submit(JobSpec { input: decks[0].clone(), steps: STEPS, tag: "after".into(), tenant: "default".into() })
        .expect("admitted");
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    assert_eq!(server.status(fresh).unwrap().state, JobState::Done);
    assert_ne!(server.status(fresh).unwrap().batch, Some(BatchId(0)), "batch id collision");

    // The resumed second half lands bitwise on the uninterrupted run: the
    // crash cost a restart, never an answer.
    let reference = run_xgyro(&config_k2, STEPS);
    for i in 0..2u64 {
        let st = server.status(JobId(i)).expect("resumed");
        assert_eq!(st.state, JobState::Done, "job-{i}: {}", st.detail);
        let got = server.result(JobId(i)).expect("outcome");
        assert_eq!(got.h, reference.sims[i as usize].h, "job-{i} diverged across the crash");
        assert_eq!(got.steps, STEPS);
    }
    server.shutdown();
}

#[test]
fn torn_tail_is_truncated_with_a_warning_not_a_refusal() {
    let dir = tmpdir("torn");
    let decks = sweep();

    // First life: a finished campaign.
    let server = CampaignServer::start(config(&dir));
    for (i, d) in decks.iter().enumerate() {
        server
            .submit(JobSpec { input: d.clone(), steps: STEPS, tag: format!("t{i}"), tenant: "default".into() })
            .expect("admitted");
    }
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    server.shutdown();

    // kill -9 mid-append: 7 garbage bytes (less than one frame header) on
    // the newest segment's tail.
    let last_seg = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xgj"))
        .max()
        .expect("at least one segment");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().append(true).open(&last_seg).expect("open tail");
    f.write_all(&[0xFF; 7]).expect("tear");
    drop(f);

    let server = CampaignServer::start(config(&dir));
    let rec = server.metrics().recovery;
    assert_eq!(rec.torn_bytes, 7, "{rec:?}");
    assert!(
        rec.warnings.iter().any(|w| w.contains("torn")),
        "no torn-tail warning: {:?}",
        rec.warnings
    );
    // Everything before the tear is intact.
    assert_eq!(rec.restored_jobs, 3, "{rec:?}");
    for i in 0..3u64 {
        assert_eq!(server.status(JobId(i)).unwrap().state, JobState::Done);
    }
    server.shutdown();
}

#[test]
fn journal_write_error_sheds_the_submit_with_typed_backpressure() {
    let dir = tmpdir("backpressure");
    let mut cfg = config(&dir);
    // The very first append (the first submit's `Submitted` record) fails
    // cleanly, as a full disk would.
    cfg.journal.as_mut().unwrap().fault_plan = Some(ServeFaultPlan::write_error(0));
    let server = CampaignServer::start(cfg);
    let deck = CgyroInput::test_small();

    let err = server
        .submit(JobSpec { input: deck.clone(), steps: STEPS, tag: "shed".into(), tenant: "default".into() })
        .expect_err("unjournaled work must be shed");
    assert!(
        matches!(err, AdmitError::JournalBackpressure { .. }),
        "wrong rejection: {err:?}"
    );

    // The fault was one-shot; the retry is admitted, journaled, and runs.
    let id = server
        .submit(JobSpec { input: deck, steps: STEPS, tag: "retry".into(), tenant: "default".into() })
        .expect("journal recovered");
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    assert_eq!(server.status(id).unwrap().state, JobState::Done);
    server.shutdown();
}

#[test]
fn the_journal_reports_its_own_fsyncs_with_phase_timers_off() {
    // Fsync count and time are the journal's own counters, exported by the
    // serve metrics whatever the phase-timer switch says; the phase-timer
    // registry keeps no second copy of them.
    xg_obs::set_enabled(false);
    let dir = tmpdir("fsync-accounting");
    let server = CampaignServer::start(config(&dir));
    let deck = CgyroInput::test_small();
    server
        .submit(JobSpec { input: deck, steps: STEPS, tag: "synced".into(), tenant: "default".into() })
        .expect("admitted");
    let prom = server.metrics_text();
    server.shutdown();

    let samples = xg_obs::parse_prometheus(&prom).expect("exposition parses");
    let value = |name: &str| {
        samples.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}")).value
    };
    assert!(value("xgserve_journal_fsyncs_total") > 0.0, "fsync_every = 1 fsyncs every append");
    assert!(value("xgserve_journal_fsync_seconds_total") > 0.0);
    let copies: Vec<&str> = prom
        .lines()
        .filter(|l| ["journal", "cache", "recovery", "rebalance"].iter().any(|c| {
            l.starts_with(&format!("xgyro_{c}_"))
        }))
        .collect();
    assert!(copies.is_empty(), "the phase-timer registry copies serve counters: {copies:?}");
}

/// Four rounds of one full k=3 batch each: twelve distinct same-key decks,
/// every one submitted under its own idempotency token and awaited before
/// the next round (a drained server admits nothing). Returns the ids in
/// submission order.
fn four_rounds(server: &CampaignServer) -> Vec<JobId> {
    let base = CgyroInput::test_small();
    let mut ids = Vec::new();
    for round in 0..4 {
        let batch: Vec<JobId> = (0..3)
            .map(|i| {
                let n = round * 3 + i;
                let input = base.with_gradients(1.0 + 0.125 * n as f64, 2.0 + 0.25 * n as f64);
                let spec = JobSpec::new(input, STEPS);
                server.submit_authed(spec, Some(&format!("tok-{n}")), None).expect("admitted").0
            })
            .collect();
        for id in &batch {
            let events = server.subscribe(*id).expect("known job");
            let last = events.iter().last().expect("a terminal event");
            assert_eq!(last.state, JobState::Done, "{id}: {}", last.detail);
        }
        ids.extend(batch);
    }
    ids
}

#[test]
fn compaction_never_forgets_an_acknowledged_result() {
    let base = CgyroInput::test_small();
    // The default window keeps every job; a window of 3 keeps the newest 3.
    for retain in [ServerConfig::local_test().retain_jobs, 3] {
        let dir = tmpdir(&format!("retention-{retain}"));
        let mk = || {
            let mut cfg = config(&dir);
            cfg.journal.as_mut().unwrap().segment_max_bytes = 4096;
            cfg.retain_jobs = retain;
            cfg
        };
        let server = CampaignServer::start(mk());
        let ids = four_rounds(&server);
        assert!(server.drain(Duration::from_secs(120)), "drain timed out");
        let kept = &ids[ids.len() - retain.min(ids.len())..];
        let first_life: Vec<JobId> = server.list().iter().map(|s| s.id).collect();
        assert_eq!(first_life, kept, "retain_jobs={retain}: first life keeps the window");
        let summaries: Vec<_> =
            kept.iter().map(|id| server.result_summary(*id).expect("done")).collect();
        server.shutdown();

        // Second life: exactly what the first life answered for, it answers
        // for — however many segments were rotated and compacted since.
        let server = CampaignServer::start(mk());
        let missing: Vec<JobId> =
            kept.iter().copied().filter(|id| server.status(*id).is_none()).collect();
        assert!(missing.is_empty(), "{}/{} not-found: {missing:?}", missing.len(), kept.len());
        let second_life: Vec<JobId> = server.list().iter().map(|s| s.id).collect();
        assert_eq!(second_life, kept, "retain_jobs={retain}: restart keeps the same window");
        for (id, want) in kept.iter().zip(&summaries) {
            assert_eq!(server.status(*id).expect("restored").state, JobState::Done);
            assert_eq!(server.result_summary(*id).as_ref(), Some(want), "{id} summary drifted");
            let (dup_id, dup) = server
                .submit_authed(JobSpec::new(base.clone(), STEPS), Some(&format!("tok-{}", id.0)), None)
                .expect("token lookup is not admission");
            assert!(dup && dup_id == *id, "{id}: token forgotten across restart");
        }
        server.shutdown();
    }
}

#[test]
fn restart_never_reissues_a_job_or_batch_id() {
    let dir = tmpdir("watermarks");
    let mk = || {
        let mut cfg = config(&dir);
        // Every append closes its segment, so every append compacts.
        cfg.journal.as_mut().unwrap().segment_max_bytes = 1;
        cfg
    };
    let server = CampaignServer::start(mk());
    let ids = four_rounds(&server);
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let last_batch = ids.iter().filter_map(|id| server.status(*id).unwrap().batch).max().unwrap();
    server.shutdown();

    let server = CampaignServer::start(mk());
    let rec = server.metrics().recovery;
    assert!(
        !rec.warnings.iter().any(|w| w.contains("ignored")),
        "compaction left records replay cannot place: {:?}",
        rec.warnings
    );
    let fresh = server
        .submit(JobSpec::new(CgyroInput::test_small().with_gradients(9.0, 9.0), STEPS))
        .expect("admitted");
    assert_eq!(fresh, JobId(12), "job-0 … job-11 were acknowledged in the previous life");
    let batch = server.status(fresh).unwrap().batch.expect("placed");
    assert!(batch > last_batch, "{batch} reissued (previous life reached {last_batch})");
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    assert_eq!(server.status(fresh).unwrap().state, JobState::Done);
    server.shutdown();
}

/// What one life of the crash sweep's campaign acknowledged: the ids its
/// submits returned (`None` where the journal refused), in deck order.
type Acked = Vec<Option<JobId>>;

/// The sweep's campaign: tenant `a` fills a k=3 batch (dispatched at once);
/// tenant `b` submits two jobs, cancels the second while its batch is still
/// forming, and submits a third. Every step tolerates a journal that has
/// already "crashed": a refused submit is simply not acknowledged.
fn sweep_campaign(server: &CampaignServer) -> Acked {
    let base = CgyroInput::test_small();
    let submit = |n: usize, tenant: &str| {
        let input = base.with_gradients(1.0 + 0.5 * n as f64, 2.0 + 0.25 * n as f64);
        server.submit(JobSpec::new(input, STEPS).with_tenant(tenant)).ok()
    };
    let mut acked: Acked = (0..3).map(|n| submit(n, "a")).collect();
    acked.extend([submit(3, "b"), submit(4, "b")]);
    if let Some(doomed) = acked[4] {
        server.cancel(doomed).expect("known job");
    }
    acked.push(submit(5, "b"));
    acked
}

#[test]
fn a_crash_at_any_append_loses_and_duplicates_nothing() {
    let dir = tmpdir("sweep");
    let mk = |crash_at: Option<u64>| {
        let mut cfg = config(&dir);
        cfg.linger = Duration::from_secs(600); // batches flush when full or on drain
        cfg.journal.as_mut().unwrap().fault_plan = crash_at.map(ServeFaultPlan::crash);
        cfg
    };
    // The uncrashed run: ground truth for the summaries, and the number of
    // appends a whole campaign makes.
    let server = CampaignServer::start(mk(None));
    let ids = sweep_campaign(&server);
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let truth: Vec<_> = ids.iter().map(|id| server.result_summary(id.unwrap())).collect();
    assert_eq!(truth.iter().filter(|s| s.is_some()).count(), 5, "one of six was cancelled");
    let appends = server.metrics().journal.appends;
    assert!(appends >= 20, "a whole campaign journals every transition, got {appends}");
    server.shutdown();

    assert!(leftovers(&dir).is_empty(), "{:?} outlived the drained campaign", leftovers(&dir));

    let mut orphan_rounds = 0;
    for crash_at in 0..appends {
        // First life: the journal dies at append `crash_at` — that record
        // and every later one never reach the disk, whatever the process
        // went on to do in memory.
        std::fs::remove_dir_all(&dir).expect("previous round's journal");
        let server = CampaignServer::start(mk(Some(crash_at)));
        let acked = sweep_campaign(&server);
        server.drain(Duration::from_secs(120));
        server.shutdown();

        // Second life, same directory, healthy journal.
        let server = CampaignServer::start(mk(None));
        orphan_rounds += u64::from(server.metrics().recovery.checkpoint_orphans_removed > 0);
        assert!(server.drain(Duration::from_secs(120)), "crash@{crash_at}: drain timed out");
        let listed = server.list();
        for (n, id) in acked.iter().enumerate() {
            let Some(id) = id else { continue };
            // No acknowledged job lost …
            let st = server.status(*id).unwrap_or_else(|| panic!("crash@{crash_at}: {id} lost"));
            assert!(st.state.is_terminal(), "crash@{crash_at}: {id} stuck {}", st.state);
            // … and a Done one answers what the uncrashed run answered. (Job
            // 4's cancel may have died with the journal: then it ran.)
            if st.state == JobState::Done && n != 4 {
                assert_eq!(server.result_summary(*id), truth[n], "crash@{crash_at}: {id} drifted");
            }
        }
        // … none duplicated: the table holds acknowledged jobs, plus at most
        // the one whose `Submitted` landed but whose ack the crash ate.
        let known = acked.iter().flatten().count();
        assert!(
            listed.len() == known || listed.len() == known + 1,
            "crash@{crash_at}: {} jobs for {known} acknowledged",
            listed.len()
        );
        // Every ledger is back at zero.
        let m = server.metrics();
        assert_eq!(m.worlds_active, 0, "crash@{crash_at}");
        assert!(m.tenants.values().all(|t| t.live_jobs == 0 && t.live_bytes == 0), "crash@{crash_at}");
        assert!(listed.iter().all(|s| s.state.is_terminal()), "crash@{crash_at}: live jobs remain");
        server.shutdown();
        // No checkpoint file, and no temp file, outlives the drained
        // second life — including one the first life committed whose
        // record the crash lost.
        let left = leftovers(&dir);
        assert!(left.is_empty(), "crash@{crash_at}: {left:?} outlived the second life");

        // Ground truth on disk: every job's story ends exactly once.
        let (_j, replay) = Journal::open(JournalConfig::durable(&dir)).expect("reopen");
        for s in &listed {
            let ends = replay
                .records
                .iter()
                .filter(|r| {
                    matches!(r, JournalRecord::Done { job, .. }
                        | JournalRecord::Failed { job, .. }
                        | JournalRecord::Cancelled { job, .. } if *job == s.id)
                })
                .count();
            assert_eq!(ends, 1, "crash@{crash_at}: {} journaled terminal {ends} times", s.id);
        }
    }
    // A crash at a checkpoint's append is "file committed, record lost":
    // some round's second life found such a file and deleted it.
    assert!(orphan_rounds > 0, "no crash point left a checkpoint file without its record");
}

/// The `ckpt-*` and `*.tmp` files in a journal directory.
fn leftovers(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("journal dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("ckpt-") || n.ends_with(".tmp"))
        .collect()
}

/// How a test damages the checkpoint file a journal names.
#[derive(Clone, Copy, Debug)]
enum Damage {
    Intact,
    Missing,
    Truncated,
    Corrupted,
}

#[test]
fn a_missing_short_or_corrupt_checkpoint_file_restarts_its_batch_from_step_0() {
    let decks: Vec<CgyroInput> = sweep().into_iter().take(2).collect();
    let grid = ServerConfig::local_test().grid;
    let config_k2 = EnsembleConfig::new(decks.clone(), grid).expect("shared key");
    // The uncrashed run, and the restart image a killed daemon's first
    // segment left: the real ensemble state after 10 steps.
    let reference = run_xgyro(&config_k2, STEPS);
    let half = run_xgyro_resilient_from(
        &config_k2,
        None,
        STEPS / 2,
        STEPS / 2,
        xg_comm::FaultPlan::new(),
        Duration::from_secs(10),
    )
    .expect("clean half run");
    let state = half.checkpoint.to_bytes();

    for damage in [Damage::Intact, Damage::Missing, Damage::Truncated, Damage::Corrupted] {
        let dir = tmpdir(&format!("bad-ckpt-{damage:?}"));
        let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).expect("open");
        let members = vec![JobId(0), JobId(1)];
        for (i, d) in decks.iter().enumerate() {
            let deck = write_deck(d);
            j.append(&JournalRecord::Submitted {
                job: JobId(i as u64),
                token: String::new(),
                deck_hash: fnv1a(deck.as_bytes()),
                deck,
                steps: STEPS as u64,
                tag: format!("mid{i}"),
                tenant: "default".into(),
                submitted_unix_us: unix_us(),
            })
            .expect("append");
            j.append(&JournalRecord::Batched { job: JobId(i as u64), batch: BatchId(0) })
                .expect("append");
        }
        j.append(&JournalRecord::Running { batch: BatchId(0), jobs: members.clone() })
            .expect("append");
        write_checkpoint(&dir, BatchId(0), 0, &state).expect("checkpoint file");
        j.append(&JournalRecord::CheckpointRef {
            batch: BatchId(0),
            jobs: members,
            seq: 0,
            done_steps: (STEPS / 2) as u64,
            state_len: state.len() as u64,
            state_crc: crc32(&state),
        })
        .expect("append");
        drop(j);
        let file = checkpoint_path(&dir, BatchId(0), 0);
        match damage {
            Damage::Intact => {}
            Damage::Missing => std::fs::remove_file(&file).expect("remove"),
            Damage::Truncated => std::fs::write(&file, &state[..state.len() / 2]).expect("cut"),
            Damage::Corrupted => {
                let mut bytes = state.clone();
                bytes[state.len() / 3] ^= 0x01;
                std::fs::write(&file, bytes).expect("flip");
            }
        }

        let server = CampaignServer::start(config(&dir));
        let rec = server.metrics().recovery;
        assert_eq!(rec.resumed_batches, 1, "{damage:?}: {rec:?}");
        let step0 = rec.warnings.iter().any(|w| w.contains("restarting batch from step 0"));
        match damage {
            Damage::Intact => {
                assert_eq!(rec.checkpoint_files_loaded, 1, "{rec:?}");
                assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
            }
            _ => {
                assert_eq!(rec.checkpoint_files_loaded, 0, "{damage:?}: {rec:?}");
                assert!(step0, "{damage:?}: no step-0 warning in {:?}", rec.warnings);
            }
        }
        assert!(server.drain(Duration::from_secs(120)), "{damage:?}: drain timed out");
        // Whether it resumed or restarted, every job ends with the
        // uncrashed run's answer, bit for bit.
        for i in 0..2u64 {
            let st = server.status(JobId(i)).expect("resumed");
            assert_eq!(st.state, JobState::Done, "{damage:?} job-{i}: {}", st.detail);
            let got = server.result(JobId(i)).expect("outcome");
            let want = &reference.sims[i as usize];
            assert_eq!(got.h, want.h, "{damage:?} job-{i} diverged");
            let bits = |d: &xg_sim::Diagnostics| {
                [d.time, d.field_energy, d.heat_flux, d.h_norm2].map(f64::to_bits)
            };
            assert_eq!(bits(&got.diagnostics), bits(&want.diagnostics), "{damage:?} job-{i}");
            assert_eq!(got.steps, STEPS);
        }
        server.shutdown();
        assert!(leftovers(&dir).is_empty(), "{damage:?}: {:?}", leftovers(&dir));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
