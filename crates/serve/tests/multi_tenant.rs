//! Multi-tenant serving acceptance tests: a saturated `CampaignServer`
//! divides machine time between tenants by weighted fair share, runs as
//! many concurrent worlds as it has workers, and keeps tenant attribution
//! across a `kill -9`.
//!
//! The drills here mirror the CI `multi-tenant` job but in-process:
//!
//! * **saturation** — four tenants with 4:2:1:1 weights each dump their
//!   whole campaign at once behind a busy worker; the journal's
//!   `Running` records then give the exact dispatch order, which must
//!   match the weights prefix by prefix (no tenant can buy more than
//!   its share by submitting first, none starves);
//! * **concurrency** — on the stock test config, k=3 batches that the
//!   memory model prices at the whole modeled allocation still run two at
//!   a time, one per worker (`worlds_peak >= 2`), and `worlds_active`
//!   returns to zero when the queue drains;
//! * **crash** — a journal holding another life's acknowledged jobs
//!   replays with the original tenant attribution: zero lost jobs, and
//!   the per-tenant metrics account the recovered work to the tenants
//!   that submitted it, not to `default`;
//! * **cancel race** (bugfix satellite) — a job cancelled *between* the
//!   flush that moved it to the ready queue and its dispatch never runs,
//!   releases its quota slot immediately, and leaves no `Running` record.

use std::path::PathBuf;
use std::time::Duration;
use xg_serve::journal::{fnv1a, Journal, JournalConfig};
use xg_serve::{
    BatchId, CampaignServer, JobId, JobSpec, JobState, JournalRecord, ServerConfig,
    TenantDirectory,
};
use xg_sim::{write_deck, CgyroInput};

const STEPS: usize = 20;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xg-multi-tenant-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_for(tenant: &str, deck: &CgyroInput, steps: usize, tag: &str) -> JobSpec {
    let mut s = JobSpec::new(deck.clone(), steps);
    s.tag = tag.to_string();
    s.with_tenant(tenant)
}

/// Block until `id` is dispatched — the saturation drills submit a long
/// warmup job and must not race the worker for the queue's head.
fn wait_running(server: &CampaignServer, id: JobId) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let state = server.status(id).expect("warmup tracked").state;
        if state == JobState::Running {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "warmup never dispatched (state {state:?})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Distinct same-key decks: gradient variants of the small test deck, so
/// every job is real work (no artifact-cache shortcuts, no dedup).
fn variant(i: usize) -> CgyroInput {
    CgyroInput::test_small().with_gradients(1.0 + 0.125 * i as f64, 2.0 + 0.25 * i as f64)
}

#[test]
fn saturated_tenants_dispatch_in_weight_proportion() {
    let dir = tmpdir("fair-share");
    let mut cfg = ServerConfig::local_test();
    // One job per batch (k_max = 1 flushes synchronously at submit — no
    // linger timing in the drill), one worker so the dispatch order is a
    // serial, journal-recorded sequence, and a quantum equal to one
    // batch's cost (1 member x STEPS) so each round-robin visit serves
    // exactly `weight` batches.
    cfg.k_max = 1;
    cfg.workers = 1;
    cfg.quantum = STEPS as u64;
    let mut jcfg = JournalConfig::durable(&dir);
    // Group fsyncs: the drill measures scheduling, not disk latency, and
    // the submit burst must land while the warmup batch is still running.
    jcfg.fsync_every = 64;
    cfg.journal = Some(jcfg);
    cfg.tenants = TenantDirectory::parse("a:weight=4,b:weight=2,c:weight=1,d:weight=1,warm")
        .expect("roster");
    let server = CampaignServer::start(cfg);

    // Occupy the only worker long enough for the whole campaign to queue
    // behind it: the saturation the fair-share guarantee is about. Sized
    // generously — the submit burst below takes microseconds per job, but
    // parallel test binaries can steal the CPU for whole scheduler ticks.
    let (warm, _) = server
        .submit_authed(spec_for("warm", &variant(99), 100 * STEPS, "warmup"), None, None)
        .expect("warmup admitted");
    wait_running(&server, warm);

    // Adversarial arrival order: tenant `a` dumps its whole campaign
    // before anyone else gets a submit in. Arrival order must not matter.
    let weights = [("a", 4u64), ("b", 2), ("c", 1), ("d", 1)];
    for (tenant, _) in weights {
        for i in 0..8 {
            server
                .submit_authed(
                    spec_for(tenant, &variant(i), STEPS, &format!("{tenant}{i}")),
                    None,
                    None,
                )
                .unwrap_or_else(|e| panic!("{tenant} job {i} rejected: {e}"));
        }
    }
    // Saturation precondition: the drill is only meaningful if the whole
    // campaign queued while the worker was still pinned.
    assert_eq!(
        server.status(warm).unwrap().state,
        JobState::Running,
        "warmup finished before the campaign queued — enlarge its step count"
    );
    assert!(server.drain(Duration::from_secs(300)), "drain timed out");
    for st in server.list() {
        assert_eq!(st.state, JobState::Done, "{}: {}", st.id, st.detail);
    }
    // Per-tenant accounting made it to the metrics snapshot.
    let m = server.metrics();
    for (tenant, _) in weights {
        let t = &m.tenants[tenant];
        assert_eq!(t.done, 8, "{tenant} done count");
        assert_eq!(t.work_done, 8 * STEPS as u64, "{tenant} work attribution");
    }
    server.shutdown();

    // The journal is the dispatch-order ground truth: `Running` records
    // are appended in dispatch order by the single worker.
    let (_j, replay) = Journal::open(JournalConfig::durable(&dir)).expect("reopen journal");
    let tenant_of: std::collections::BTreeMap<JobId, String> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Submitted { job, tenant, .. } => Some((*job, tenant.clone())),
            _ => None,
        })
        .collect();
    let order: Vec<&str> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Running { jobs, .. } => {
                let t = tenant_of[&jobs[0]].as_str();
                (t != "warm").then_some(t)
            }
            _ => None,
        })
        .collect();
    assert_eq!(order.len(), 32, "every job dispatched exactly once");
    // Prefix by prefix, dispatched work tracks the 4:2:1:1 weights: after
    // each full round (8 dispatches) every backlogged tenant holds
    // *exactly* its weighted share — stronger than the 10% tolerance the
    // acceptance drill asks for.
    for round in 1..=2 {
        let prefix = &order[..8 * round];
        for (tenant, w) in weights {
            let got = prefix.iter().filter(|t| **t == tenant).count() as u64;
            assert_eq!(
                got,
                w * round as u64,
                "after {} dispatches, {tenant} (weight {w}) got {got}: {prefix:?}",
                prefix.len()
            );
        }
    }
    // And nobody is served twice before per-tenant FIFO allows: within a
    // tenant the tags dispatch in submission order.
    let tags: Vec<&JournalRecord> = replay
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Running { .. }))
        .collect();
    assert_eq!(tags.len(), 33, "32 campaign batches + 1 warmup");
}

#[test]
fn workers_not_modeled_nodes_bound_concurrent_worlds() {
    // The stock config: 2 workers, k_max = 3, 3 modeled nodes. The memory
    // model needs all 3 nodes for one k=3 world of this deck; serving must
    // not turn that price into a dispatch limit.
    let server = CampaignServer::start(ServerConfig::local_test());
    for i in 0..12 {
        server
            .submit(spec_for("default", &variant(i), 2 * STEPS, &format!("w{i}")))
            .expect("admitted");
    }
    assert!(server.drain(Duration::from_secs(300)), "drain timed out");
    for st in server.list() {
        assert_eq!(st.state, JobState::Done, "{}: {}", st.id, st.detail);
    }
    let m = server.metrics();
    assert_eq!(m.occupancy.get(&3), Some(&4), "four full k=3 batches: {m:?}");
    assert!(m.worlds_peak >= 2, "two worlds never ran concurrently: {m:?}");
    assert_eq!(m.worlds_active, 0, "{m:?}");
    server.shutdown();
}

#[test]
fn kill_minus_nine_preserves_tenant_attribution_and_loses_nothing() {
    let dir = tmpdir("crash-attribution");
    // The journal a killed daemon left behind: four acknowledged jobs
    // (Submitted + Batched, never dispatched) from two tenants.
    let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).expect("open");
    let owners = ["acme", "acme", "beta", "beta"];
    for (i, owner) in owners.iter().enumerate() {
        let deck = write_deck(&variant(i));
        j.append(&JournalRecord::Submitted {
            job: JobId(i as u64),
            token: format!("tok-{i}"),
            deck_hash: fnv1a(deck.as_bytes()),
            deck,
            steps: STEPS as u64,
            tag: format!("life1-{i}"),
            tenant: (*owner).to_string(),
            submitted_unix_us: 0,
        })
        .expect("append");
        j.append(&JournalRecord::Batched { job: JobId(i as u64), batch: BatchId(i as u64) })
            .expect("append");
    }
    // Two more jobs reached a terminal state before the crash: one Done,
    // one Cancelled, both owned by a third tenant. Replay is their only
    // chance to be accounted — they will never run again.
    for (i, rec) in [
        (4u64, None),
        (5u64, Some("client cancelled")),
    ] {
        let deck = write_deck(&variant(i as usize));
        j.append(&JournalRecord::Submitted {
            job: JobId(i),
            token: String::new(),
            deck_hash: fnv1a(deck.as_bytes()),
            deck,
            steps: STEPS as u64,
            tag: format!("life1-{i}"),
            tenant: "gamma".to_string(),
            submitted_unix_us: 0,
        })
        .expect("append");
        j.append(&JournalRecord::Batched { job: JobId(i), batch: BatchId(i) }).expect("append");
        match rec {
            None => {
                j.append(&JournalRecord::Running { batch: BatchId(i), jobs: vec![JobId(i)] })
                    .expect("append");
                j.append(&JournalRecord::Done {
                    job: JobId(i),
                    steps: STEPS as u64,
                    h_hash: 7,
                    diag_bits: [0; 4],
                })
                .expect("append");
            }
            Some(detail) => {
                j.append(&JournalRecord::Cancelled { job: JobId(i), detail: detail.into() })
                    .expect("append");
            }
        }
    }
    drop(j);

    let mut cfg = ServerConfig::local_test();
    cfg.journal = Some(JournalConfig::durable(&dir));
    cfg.tenants = TenantDirectory::parse("acme:weight=2,beta:weight=1,gamma").expect("roster");
    let server = CampaignServer::start(cfg);
    let rec = server.metrics().recovery;
    assert_eq!(rec.readmitted_jobs, 4, "zero lost jobs: {rec:?}");
    assert!(server.drain(Duration::from_secs(300)), "drain timed out");
    for (i, owner) in owners.iter().enumerate() {
        let st = server.status(JobId(i as u64)).expect("restored");
        assert_eq!(st.state, JobState::Done, "job-{i}: {}", st.detail);
        assert_eq!(st.tenant, *owner, "job-{i} lost its tenant across the crash");
    }
    // The recovered work is accounted to the original tenants, not to
    // `default` — including the submitted count credited at replay.
    let m = server.metrics();
    for owner in ["acme", "beta"] {
        let t = m.tenants.get(owner).expect("tenant counters survived replay");
        assert_eq!((t.submitted, t.done), (2, 2), "{owner} submitted and done counts");
    }
    // Terminal-state jobs restored from the journal credit their tenant's
    // counters too (their previous life's process took the originals with
    // it): gamma never ran a step this life, yet its ledger is whole.
    let gamma = server.status(JobId(4)).expect("terminal job restored");
    assert_eq!(gamma.state, JobState::Done, "{}", gamma.detail);
    assert_eq!(gamma.tenant, "gamma");
    let t = m.tenants.get("gamma").expect("terminal-only tenant credited at replay");
    assert_eq!(t.submitted, 2, "gamma submitted");
    assert_eq!(t.done, 1, "gamma done");
    assert_eq!(t.cancelled, 1, "gamma cancelled");
    assert_eq!(t.work_done, STEPS as u64, "gamma work");
    // Idempotency tokens replayed with their tenant: a pre-crash retry
    // still deduplicates instead of double-running under a fresh id.
    let (dup_id, dup) = server
        .submit_authed(spec_for("acme", &variant(0), STEPS, "retry"), Some("tok-0"), None)
        .expect("token lookup is not admission");
    assert!(dup, "journaled token forgotten across restart");
    assert_eq!(dup_id, JobId(0));
    server.shutdown();
}

#[test]
fn cancel_between_flush_and_dispatch_never_runs_and_releases_quota() {
    let dir = tmpdir("cancel-race");
    let mut cfg = ServerConfig::local_test();
    // k_max = 1: the victim's batch is flushed to the ready queue
    // synchronously at submit, while the only worker is still busy — the
    // exact window the cancel race targets.
    cfg.k_max = 1;
    cfg.workers = 1;
    cfg.journal = Some(JournalConfig::durable(&dir));
    cfg.tenants = TenantDirectory::parse("q:jobs=1,warm").expect("roster");
    let server = CampaignServer::start(cfg);
    let (warm, _) = server
        .submit_authed(spec_for("warm", &variant(99), 20 * STEPS, "warmup"), None, None)
        .expect("warmup admitted");
    wait_running(&server, warm);
    let (victim, _) = server
        .submit_authed(spec_for("q", &variant(0), STEPS, "victim"), None, None)
        .expect("victim admitted");
    assert_eq!(server.status(victim).unwrap().state, JobState::Batched, "flushed, undispatched");

    assert_eq!(server.cancel(victim), Ok(JobState::Cancelled));
    // The live-job quota slot (q allows exactly one) is free immediately —
    // not after the cancelled batch would have dispatched.
    let (second, _) = server
        .submit_authed(spec_for("q", &variant(1), STEPS, "after"), None, None)
        .expect("cancel released the quota slot");

    assert!(server.drain(Duration::from_secs(300)), "drain timed out");
    let st = server.status(victim).expect("victim tracked");
    assert_eq!(st.state, JobState::Cancelled, "{}", st.detail);
    assert_eq!(st.queue_latency_ms, None, "victim was never dispatched");
    assert!(server.result(victim).is_none(), "a cancelled job has no outcome");
    assert_eq!(server.status(second).unwrap().state, JobState::Done);
    server.shutdown();

    // Ground truth: no `Running` record ever names the victim.
    let (_j, replay) = Journal::open(JournalConfig::durable(&dir)).expect("reopen journal");
    for r in &replay.records {
        if let JournalRecord::Running { jobs, .. } = r {
            assert!(!jobs.contains(&victim), "cancelled job was dispatched: {r:?}");
        }
    }
}
