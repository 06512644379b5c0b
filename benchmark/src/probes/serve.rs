//! xg-serve: the durable journal on its own — what every acknowledged
//! submission and every lifecycle transition pays before anything runs.

use super::Ctx;
use crate::metrics::Outcome;
use crate::stats::median;
use crate::workloads::campaign::WorkDir;
use std::time::Instant;
use xg_serve::{JobId, Journal, JournalConfig, JournalRecord};

const APPENDS: u64 = 60;

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let work = WorkDir::new("probe-journal");
    let deck = xg_sim::write_deck(ctx.deck);
    let record = |job: u64| JournalRecord::Submitted {
        job: JobId(job),
        token: String::new(),
        deck_hash: xg_serve::journal::fnv1a(deck.as_bytes()),
        deck: deck.clone(),
        steps: ctx.steps as u64,
        tag: String::new(),
        tenant: xg_serve::DEFAULT_TENANT.to_string(),
        submitted_unix_us: 0,
    };

    // With the durable config every append is write + fsync; with fsync off
    // it is the write alone. The difference is the fsync.
    let time_appends = |cfg: JournalConfig| {
        let (mut journal, _) = Journal::open(cfg).expect("out/ is writable");
        let timings: Vec<f64> = (0..APPENDS)
            .map(|job| {
                let rec = record(job);
                let t = Instant::now();
                journal.append(&rec).expect("append to a fresh journal");
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&timings)
    };
    let mut unsynced = JournalConfig::durable(work.path().join("unsynced"));
    unsynced.fsync_every = 0;
    let write_s = time_appends(unsynced);
    let durable_s = time_appends(JournalConfig::durable(work.path().join("durable")));
    out.push("serve.journal_append_us", write_s * 1e6, APPENDS as usize);
    out.push(
        "serve.journal_fsync_us",
        (durable_s - write_s).max(0.0) * 1e6,
        APPENDS as usize,
    );
}
