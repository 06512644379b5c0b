//! `xgq` — the campaign client.
//!
//! ```text
//! xgq [--addr HOST:PORT] [--retries N] [--timeout-ms MS] <command>
//!   submit --deck FILE [--steps N] [--tag T] [--grad RLN,RLT] [--seed S]
//!          [--token T] [--no-token] [--tenant T] [--auth S] [--dry-run]
//!   status JOB            one-shot state snapshot
//!   result JOB            result fingerprint (steps, h hash, diag bits)
//!   watch JOB             stream lifecycle events until terminal
//!   cancel JOB            cancel (preempts at the next checkpoint if running)
//!   list                  every job the server knows about
//!   metrics [--out FILE]  Prometheus text exposition to stdout or FILE
//!   top [--watch MS]      live per-phase wall-time table from the daemon
//!                         (one shot, or redrawn every MS milliseconds)
//!   fetch HASH            artifact manifest (JSON) for a deck hash
//!   diff HASH HASH        compare two manifests field by field
//!   gc --budget BYTES     evict LRU artifacts down to a byte budget
//!   pin HASH | unpin HASH protect / release a golden manifest from GC
//!   drain [--ms MS]       flush pending batches, wait until quiet
//!   shutdown              stop the server
//!   ping                  liveness check
//! ```
//!
//! `--tenant` names the tenant the submission is accounted to (default
//! `default`; also read from `XGQ_TENANT`); `--auth` supplies the shared
//! secret when the daemon's `--tenants` roster requires one (also read
//! from `XGQ_AUTH`, which keeps secrets out of `ps` output).
//!
//! `--grad`/`--seed` rewrite the deck client-side before submission — the
//! sweep idiom: one base deck, many gradient variants, all landing in one
//! shared-cmat batch. `--dry-run` asks the server (via the same grouping
//! code path used for real submissions) for the deck's cmat key and the
//! batch the job would join, without admitting anything; when the daemon
//! runs with `--artifacts` the reply also carries the canonical
//! `deck_hash=xgd1-…` and whether the submission would be a `cache=hit`,
//! and always the process grid its batch would run on (`grid=1x1`).
//!
//! The artifact verbs (`fetch`, `diff`, `gc`, `pin`, `unpin`) talk to that
//! store: `fetch` prints the manifest JSON for a deck hash, `diff` reports
//! which fields differ between two manifests, `gc` evicts least-recently
//! used entries down to a byte budget, and `pin`/`unpin` mark golden
//! manifests that GC must never evict.
//!
//! Idempotent requests (everything except `watch`, `drain`, `shutdown`)
//! ride through daemon restarts: up to `--retries` attempts with jittered
//! exponential backoff, reconnecting between attempts. An `ERR` reply is an
//! answer, printed to stderr with exit status 1, and never retried. Every
//! `submit` carries an idempotency token (auto-generated from time + pid
//! unless `--token` supplies one, suppressed by `--no-token`), so a retried
//! submit whose first response was lost is answered with the original job
//! id and `dup=1` instead of double-enqueueing. `watch` and `top --watch` are
//! streams, not requests — on a lost connection they reconnect with the
//! same backoff and print a `(reconnected)` marker; `watch` resumes from
//! the server's state snapshot so no terminal transition is missed.

use std::process::exit;
use std::time::Duration;
use xg_serve::wire::{with_deck, Client, Reply, RetryPolicy};
use xg_sim::{load_deck, write_deck};

fn usage() -> ! {
    eprintln!(
        "usage: xgq [--addr HOST:PORT] [--retries N] [--timeout-ms MS] <command>\n\
         \u{20} submit --deck FILE [--steps N] [--tag T] [--grad RLN,RLT] [--seed S]\n\
         \u{20}        [--token T] [--no-token] [--tenant T] [--auth S] [--dry-run]\n\
         \u{20} status JOB | result JOB | watch JOB | cancel JOB | list\n\
         \u{20} metrics [--out FILE] | top [--watch MS]\n\
         \u{20} fetch HASH | diff HASH HASH | gc --budget BYTES\n\
         \u{20} pin HASH | unpin HASH\n\
         \u{20} drain [--ms MS] | shutdown | ping"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("xgq: {msg}");
    exit(1)
}

/// An `ERR` head fails. Otherwise the body (`list`, `fetch`, `metrics`,
/// `top`) or else the head goes to `out` or stdout.
fn finish(reply: Reply, out: Option<String>) -> ! {
    if !reply.is_ok() {
        fail(&reply.head)
    }
    let text = match reply.head.as_str() {
        "OK" => reply.body_text(),
        head => format!("{head}\n"),
    };
    match out {
        Some(path) => std::fs::write(&path, text)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
        None => print!("{text}"),
    }
    exit(0)
}

/// A process-unique idempotency token: wall-clock µs + pid. Unique enough
/// that two *different* intended submissions never collide, while one
/// retried submission (same process, same token string) is recognized.
fn auto_token() -> String {
    let us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros())
        .unwrap_or(0);
    format!("xgq-{us:x}-{}", std::process::id())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr =
        std::env::var("XGQ_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let mut retries: u32 = 5;
    let mut timeout = Duration::from_millis(5000);
    let mut rest = &args[..];
    loop {
        match rest.first().map(String::as_str) {
            Some("--addr") => {
                addr = rest.get(1).cloned().unwrap_or_else(|| usage());
                rest = &rest[2..];
            }
            Some("--retries") => {
                retries = rest.get(1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                rest = &rest[2..];
            }
            Some("--timeout-ms") => {
                let ms: u64 =
                    rest.get(1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                timeout = Duration::from_millis(ms);
                rest = &rest[2..];
            }
            _ => break,
        }
    }
    let Some(cmd) = rest.first() else { usage() };
    let rest = &rest[1..];
    let policy = RetryPolicy {
        attempts: retries.max(1),
        seed: std::process::id() as u64,
        ..RetryPolicy::client_default(0)
    };
    let arg = |i: usize| rest.get(i).unwrap_or_else(|| usage());
    let flag = |key: &str| {
        rest.iter().position(|a| a == key).and_then(|i| rest.get(i + 1).cloned())
    };
    // Each command is one request, its verb the command in capitals, on
    // one of two clients. `drain`, `watch` and `shutdown` go out once with
    // no timeout: a drain blocks up to its own deadline and a watch for as
    // long as the job runs, and a retried drain against a restarted daemon
    // would silently wait on an empty queue and mask the restart.
    let retrying = Client::new(&addr, Some(timeout), policy.clone());
    let once = Client::new(&addr, None, RetryPolicy::none());
    let verb = cmd.to_uppercase();
    let (request, mut client) = match cmd.as_str() {
        "ping" | "list" | "metrics" => (verb, retrying),
        "status" | "result" | "cancel" | "fetch" | "pin" | "unpin" => {
            (format!("{verb} {}", arg(0)), retrying)
        }
        "diff" => (format!("DIFF {} {}", arg(0), arg(1)), retrying),
        "gc" => {
            let budget = flag("--budget").and_then(|v| v.parse::<u64>().ok());
            (format!("GC budget={}", budget.unwrap_or_else(|| usage())), retrying)
        }
        "submit" => (submit_request(rest), retrying),
        "top" => match flag("--watch") {
            Some(ms) => top_watch(retrying, ms.parse().unwrap_or_else(|_| usage())),
            None => (verb, retrying),
        },
        "watch" => watch(once, &policy, arg(0)),
        "drain" => (format!("DRAIN ms={}", flag("--ms").unwrap_or_else(|| "60000".into())), once),
        "shutdown" => (verb, once),
        _ => usage(),
    };
    let reply = client.call(&request).unwrap_or_else(|e| fail(&format!("{addr}: {e}")));
    finish(reply, if cmd == "metrics" { flag("--out") } else { None })
}

/// The `SUBMIT`/`DRYRUN` request, deck included, for `submit`'s flags.
fn submit_request(rest: &[String]) -> String {
    let mut deck_path = None;
    let mut steps = None;
    let mut tag = String::new();
    let mut grad: Option<(f64, f64)> = None;
    let mut seed: Option<u64> = None;
    let mut dry_run = false;
    let mut token: Option<String> = None;
    let mut no_token = false;
    let mut tenant = std::env::var("XGQ_TENANT").unwrap_or_default();
    let mut auth = std::env::var("XGQ_AUTH").unwrap_or_default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deck" => deck_path = it.next().cloned(),
            "--steps" => steps = it.next().and_then(|v| v.parse::<usize>().ok()),
            "--tag" => tag = it.next().cloned().unwrap_or_default(),
            "--tenant" => tenant = it.next().cloned().unwrap_or_else(|| usage()),
            "--auth" => auth = it.next().cloned().unwrap_or_else(|| usage()),
            "--grad" => {
                let v = it.next().unwrap_or_else(|| usage());
                grad = v
                    .split_once(',')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                if grad.is_none() {
                    usage()
                }
            }
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()),
            "--token" => token = it.next().cloned(),
            "--no-token" => no_token = true,
            "--dry-run" => dry_run = true,
            _ => usage(),
        }
    }
    let deck_path = deck_path.unwrap_or_else(|| usage());
    let mut input = load_deck(std::path::Path::new(&deck_path))
        .unwrap_or_else(|e| fail(&format!("cannot load {deck_path}: {e}")));
    if let Some((rln, rlt)) = grad {
        input = input.with_gradients(rln, rlt);
    }
    if let Some(s) = seed {
        input = input.with_seed(s);
    }
    let steps = steps.unwrap_or(input.steps_per_report);
    // The token is what makes a *retried* submit safe: without one, a retry
    // whose first response was lost would double-enqueue.
    let token = if dry_run || no_token {
        String::new()
    } else {
        token.unwrap_or_else(auto_token)
    };
    let mut request = format!("{} steps={steps}", if dry_run { "DRYRUN" } else { "SUBMIT" });
    for (key, value) in [("tag", &tag), ("token", &token), ("tenant", &tenant), ("auth", &auth)] {
        if !value.is_empty() {
            request.push_str(&format!(" {key}={value}"));
        }
    }
    with_deck(&request, &write_deck(&input))
}

/// `watch JOB`: stream lifecycle events, reconnecting (with the same
/// jittered backoff and a visible `(reconnected)` marker) when the daemon
/// restarts mid-stream. Subscribing re-delivers the current state first, so
/// a reconnect can duplicate a line but never skip the terminal one.
fn watch(mut client: Client, policy: &RetryPolicy, job: &str) -> ! {
    let request = format!("SUBSCRIBE {job}");
    let mut jitter = policy.seed;
    let mut failures = 0u32;
    let mut streamed_before = false;
    loop {
        let mut lines = 0;
        let reply = client.call_with(&request, |ev| {
            if lines == 0 && streamed_before {
                println!("(reconnected)");
            }
            lines += 1;
            println!("{ev}");
        });
        if lines > 0 {
            streamed_before = true;
            failures = 0;
        }
        match reply {
            // "no such job" is a real answer, not a lost connection.
            Ok(reply) if !reply.is_ok() => fail(&reply.head),
            Ok(_) => exit(0),
            Err(e) => {
                failures += 1;
                if failures >= policy.attempts.max(1) {
                    fail(&format!("watch {job}: {e} (gave up after {failures} attempts)"))
                }
                std::thread::sleep(policy.delay(failures - 1, &mut jitter));
            }
        }
    }
}

/// `top --watch MS`: a redraw loop that survives daemon restarts with a
/// `(reconnected)` marker.
fn top_watch(mut client: Client, ms: u64) -> ! {
    let mut was_down = false;
    loop {
        match client.call("TOP") {
            Ok(reply) => {
                // Clear + home, like watch(1), so the table redraws in place.
                let marker = if was_down { "(reconnected)\n" } else { "" };
                was_down = false;
                print!("\x1b[2J\x1b[H{marker}{}", reply.body_text());
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(_) => was_down = true, // keep polling; the daemon may return
        }
        std::thread::sleep(Duration::from_millis(ms));
    }
}
