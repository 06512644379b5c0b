//! `xgqueued` — the campaign service daemon.
//!
//! ```text
//! xgqueued [--addr HOST:PORT] [--k-max K] [--linger-ms MS]
//!          [--queue-capacity N] [--workers W] [--ckpt-every STEPS]
//!          [--deadline-ms MS] [--nodes N] [--machine PRESET]
//!          [--grid N1xN2] [--fault RANK:AT_OP]
//!          [--journal DIR] [--journal-sync N] [--journal-seg-bytes N]
//!          [--journal-fault KIND:AT[:KEEP]]
//!          [--artifacts DIR] [--artifact-budget-bytes N]
//!          [--tenants ROSTER] [--quantum N]
//!          [--retain-jobs N] [--retain-age-ms MS]
//! ```
//!
//! Binds the wire protocol (see `xg_serve::wire`) and serves until a client
//! sends `SHUTDOWN`. `--grid` is the largest per-member grid a world may
//! use: the daemon runs every world on the largest power-of-two grid within
//! it whose rank threads fit the host's cores with every worker busy
//! (`xg_serve::server::world_grid`), and prints it at startup. Results do
//! not depend on it. `--fault` injects one crash into the first dispatched
//! batch — the chaos hook the CI fault-injection checks use; its rank counts
//! in the world grid.
//!
//! `--journal DIR` makes the daemon crash-safe: every job lifecycle
//! transition is persisted to a write-ahead log in DIR and replayed on the
//! next start, so a `kill -9` loses no acknowledged job. `--journal-sync N`
//! fsyncs every N appends (1 = every append, the durable default and the
//! only setting that loses no acknowledged append).
//! `--journal-fault` injects a seeded journal fault (`write-error:AT`,
//! `torn:AT:KEEP`, `crash:AT` — AT counts appends) for recovery drills.
//!
//! `--artifacts DIR` turns on the content-addressed result cache: every
//! completed batch member is published into DIR (deck + outcome blobs plus
//! a manifest keyed by canonical deck hash), and a re-submitted
//! byte-identical deck is served straight to `Done` without executing a
//! step. `--artifact-budget-bytes N` adds automatic LRU retention GC after
//! each publish (pinned manifests are never evicted).
//!
//! `--tenants ROSTER` switches the daemon from open multi-tenancy (any
//! well-formed `tenant=` claim accepted, no quotas) to a configured
//! roster: `name[:weight=W][:jobs=N][:bytes=N][:secret=S]`
//! entries separated by commas. Unknown tenants are rejected at SUBMIT,
//! `secret=` entries require a matching `auth=`, and `jobs=`/`bytes=`
//! bound each tenant's *live* (unfinished) footprint. `--quantum N` sets
//! the deficit-round-robin quantum (work units credited per scheduling
//! visit per unit weight). `--retain-jobs N` / `--retain-age-ms MS` bound
//! the terminal-job retention window: finished jobs older than the age
//! cap, or beyond the count cap, are evicted from the status table, and
//! journal compaction lets their records go only then (artifact history
//! is unaffected).

use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;
use xg_comm::FaultPlan;
use xg_costmodel::{preset, PRESET_NAMES};
use xg_serve::artifacts::ArtifactConfig;
use xg_serve::journal::{JournalConfig, ServeFaultPlan};
use xg_serve::server::{CampaignServer, ServerConfig};
use xg_tensor::ProcGrid;

fn usage() -> ! {
    eprintln!(
        "usage: xgqueued [--addr HOST:PORT] [--k-max K] [--linger-ms MS]\n\
         \u{20}                [--queue-capacity N] [--workers W] [--ckpt-every STEPS]\n\
         \u{20}                [--deadline-ms MS] [--nodes N] [--machine PRESET]\n\
         \u{20}                [--grid N1xN2] [--fault RANK:AT_OP]\n\
         \u{20}                [--journal DIR] [--journal-sync N] [--journal-seg-bytes N]\n\
         \u{20}                [--journal-fault write-error:AT|torn:AT:KEEP|crash:AT]\n\
         \u{20}                [--artifacts DIR] [--artifact-budget-bytes N]\n\
         \u{20}                [--tenants ROSTER] [--quantum N]\n\
         \u{20}                [--retain-jobs N] [--retain-age-ms MS]\n\
         ROSTER: name[:weight=W][:jobs=N][:bytes=N][:secret=S],...\n\
         presets: {}",
        PRESET_NAMES.join(", ")
    );
    exit(2)
}

/// Parse a `--journal-fault` spec: `write-error:AT`, `torn:AT:KEEP`, or
/// `crash:AT`, where AT is the 0-based append counter that trips it.
fn parse_journal_fault(v: &str) -> Option<ServeFaultPlan> {
    let mut parts = v.split(':');
    let kind = parts.next()?;
    let at: u64 = parts.next()?.parse().ok()?;
    let plan = match kind {
        "write-error" => ServeFaultPlan::write_error(at),
        "torn" => ServeFaultPlan::torn_write(at, parts.next()?.parse().ok()?),
        "crash" => ServeFaultPlan::crash(at),
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(plan)
}

fn parse_or_usage<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServerConfig::local_test();
    let mut journal_dir: Option<String> = None;
    let mut journal_sync: Option<u32> = None;
    let mut journal_seg_bytes: Option<u64> = None;
    let mut journal_fault: Option<ServeFaultPlan> = None;
    let mut artifacts_dir: Option<String> = None;
    let mut artifact_budget: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--artifacts" => artifacts_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--artifact-budget-bytes" => artifact_budget = Some(parse_or_usage(it.next())),
            "--journal-sync" => journal_sync = Some(parse_or_usage(it.next())),
            "--journal-seg-bytes" => journal_seg_bytes = Some(parse_or_usage(it.next())),
            "--journal-fault" => {
                let v = it.next().unwrap_or_else(|| usage());
                journal_fault = Some(parse_journal_fault(&v).unwrap_or_else(|| usage()));
            }
            "--addr" => addr = it.next().unwrap_or_else(|| usage()),
            "--k-max" => cfg.k_max = parse_or_usage(it.next()),
            "--linger-ms" => cfg.linger = Duration::from_millis(parse_or_usage(it.next())),
            "--queue-capacity" => cfg.queue_capacity = parse_or_usage(it.next()),
            "--workers" => cfg.workers = parse_or_usage(it.next()),
            "--ckpt-every" => cfg.ckpt_every = parse_or_usage(it.next()),
            "--deadline-ms" => {
                cfg.deadline = Duration::from_millis(parse_or_usage(it.next()))
            }
            "--nodes" => cfg.nodes = parse_or_usage(it.next()),
            "--tenants" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.tenants = xg_serve::TenantDirectory::parse(&v).unwrap_or_else(|e| {
                    eprintln!("xgqueued: bad --tenants roster: {e}");
                    usage()
                });
            }
            "--quantum" => cfg.quantum = parse_or_usage(it.next()),
            "--retain-jobs" => cfg.retain_jobs = parse_or_usage(it.next()),
            "--retain-age-ms" => {
                cfg.retain_age = Duration::from_millis(parse_or_usage(it.next()))
            }
            "--machine" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.machine = preset(&v).unwrap_or_else(|| {
                    eprintln!("xgqueued: unknown machine preset '{v}'");
                    usage()
                });
            }
            "--grid" => {
                let v = it.next().unwrap_or_else(|| usage());
                let (n1, n2) = v
                    .split_once('x')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .unwrap_or_else(|| usage());
                cfg.grid = ProcGrid::new(n1, n2);
            }
            "--fault" => {
                let v = it.next().unwrap_or_else(|| usage());
                let (rank, at_op) = v
                    .split_once(':')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .unwrap_or_else(|| usage());
                cfg.fault_plan = Some(FaultPlan::crash(rank, at_op));
            }
            _ => usage(),
        }
    }
    if cfg.k_max == 0 || cfg.workers == 0 || cfg.ckpt_every == 0 {
        eprintln!("xgqueued: k-max, workers and ckpt-every must be positive");
        exit(1);
    }
    match journal_dir {
        Some(dir) => {
            let mut jcfg = JournalConfig::durable(dir);
            if let Some(n) = journal_sync {
                jcfg.fsync_every = n;
            }
            if let Some(n) = journal_seg_bytes {
                jcfg.segment_max_bytes = n;
            }
            jcfg.fault_plan = journal_fault;
            cfg.journal = Some(jcfg);
        }
        None if journal_sync.is_some() || journal_seg_bytes.is_some() || journal_fault.is_some() => {
            eprintln!("xgqueued: --journal-sync/--journal-seg-bytes/--journal-fault need --journal DIR");
            exit(1);
        }
        None => {}
    }
    match artifacts_dir {
        Some(dir) => {
            let mut acfg = ArtifactConfig::at(dir);
            acfg.budget_bytes = artifact_budget;
            cfg.artifacts = Some(acfg);
        }
        None if artifact_budget.is_some() => {
            eprintln!("xgqueued: --artifact-budget-bytes needs --artifacts DIR");
            exit(1);
        }
        None => {}
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("xgqueued: cannot bind {addr}: {e}");
        exit(1);
    });
    let addr = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!(
        "xgqueued listening on {addr} (k_max={}, linger={}ms, workers={}, nodes={} x {}, \
         tenants {}, journal {}, artifacts {}, phase timers {})",
        cfg.k_max,
        cfg.linger.as_millis(),
        cfg.workers,
        cfg.nodes,
        cfg.machine.name,
        if cfg.tenants.is_configured() {
            format!("{} configured (quantum {})", cfg.tenants.roster().count(), cfg.quantum)
        } else {
            "open".into()
        },
        cfg.journal
            .as_ref()
            .map(|j| format!("{} (fsync every {})", j.dir.display(), j.fsync_every))
            .unwrap_or_else(|| "off".into()),
        cfg.artifacts
            .as_ref()
            .map(|a| {
                let budget = a
                    .budget_bytes
                    .map(|b| format!("budget {b} B"))
                    .unwrap_or_else(|| "no budget".into());
                format!("{} ({budget})", a.dir.display())
            })
            .unwrap_or_else(|| "off".into()),
        if xg_obs::enabled() { "on" } else { "off (XGYRO_OBS=1 to enable)" }
    );
    let max_grid = cfg.grid;
    let server = CampaignServer::start(cfg);
    println!("xgqueued: worlds run on {} (--grid {max_grid} at most)", server.world_grid());
    let recovery = server.metrics().recovery;
    if recovery.replayed_records > 0 || !recovery.warnings.is_empty() {
        println!(
            "xgqueued: journal replay: {} records ({} bytes) in {} us -> {} jobs restored, \
             {} batches resumed ({} from checkpoint files), {} jobs re-admitted ({} torn \
             bytes dropped, {} orphan files removed)",
            recovery.replayed_records,
            recovery.replay_bytes,
            recovery.replay_us,
            recovery.restored_jobs,
            recovery.resumed_batches,
            recovery.checkpoint_files_loaded,
            recovery.readmitted_jobs,
            recovery.torn_bytes,
            recovery.checkpoint_orphans_removed
        );
        for w in &recovery.warnings {
            eprintln!("xgqueued: journal warning: {w}");
        }
    }
    if let Err(e) = xg_serve::wire::serve(listener, server) {
        eprintln!("xgqueued: {e}");
        exit(1);
    }
}
