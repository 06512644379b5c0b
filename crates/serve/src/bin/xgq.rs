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
//!   metrics [--out FILE] [--prom]  metrics snapshot (JSON, or Prometheus
//!                         text with --prom) to stdout or FILE
//!   top [--watch MS]      live per-phase wall-time table from the daemon
//!                         (one shot, or redrawn every MS milliseconds)
//!   recovery              what the daemon's journal replay reconstructed
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
//! `deck_hash=xgd1-…` and whether the submission would be a `cache=hit`.
//!
//! The artifact verbs (`fetch`, `diff`, `gc`, `pin`, `unpin`) talk to that
//! store: `fetch` prints the manifest JSON for a deck hash, `diff` reports
//! which fields differ between two manifests, `gc` evicts least-recently
//! used entries down to a byte budget, and `pin`/`unpin` mark golden
//! manifests that GC must never evict.
//!
//! Idempotent requests (everything except `watch`, `drain`, `shutdown`)
//! ride through daemon restarts: up to `--retries` attempts with jittered
//! exponential backoff, reconnecting between attempts. Every `submit`
//! carries an idempotency token (auto-generated from time + pid unless
//! `--token` supplies one, suppressed by `--no-token`), so a retried submit
//! whose first response was lost is answered with the original job id and
//! `dup=1` instead of double-enqueueing. `watch` and `top --watch` are
//! streams, not requests — on a lost connection they reconnect with the
//! same backoff and print a `(reconnected)` marker; `watch` resumes from
//! the server's state snapshot so no terminal transition is missed.

use std::process::exit;
use std::time::Duration;
use xg_serve::wire::{Client, RetryPolicy, RetryingClient};
use xg_sim::{load_deck, write_deck};

fn usage() -> ! {
    eprintln!(
        "usage: xgq [--addr HOST:PORT] [--retries N] [--timeout-ms MS] <command>\n\
         \u{20} submit --deck FILE [--steps N] [--tag T] [--grad RLN,RLT] [--seed S]\n\
         \u{20}        [--token T] [--no-token] [--tenant T] [--auth S] [--dry-run]\n\
         \u{20} status JOB | result JOB | watch JOB | cancel JOB | list\n\
         \u{20} metrics [--out FILE] [--prom] | top [--watch MS] | recovery\n\
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

/// `OK …` → print and succeed; `ERR …` → print and fail.
fn finish(resp: &str) -> ! {
    if resp.starts_with("OK") {
        println!("{resp}");
        exit(0)
    }
    fail(resp)
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
    let mut retry = RetryingClient::new(&addr, timeout, policy.clone());
    match cmd.as_str() {
        "ping" => finish(&retry.roundtrip("PING").unwrap_or_else(|e| fail(&e.to_string()))),
        "submit" => submit(&mut retry, rest),
        "status" | "cancel" | "result" => {
            let job = rest.first().unwrap_or_else(|| usage());
            let verb = match cmd.as_str() {
                "status" => "STATUS",
                "result" => "RESULT",
                _ => "CANCEL",
            };
            finish(
                &retry
                    .roundtrip(&format!("{verb} {job}"))
                    .unwrap_or_else(|e| fail(&e.to_string())),
            )
        }
        "recovery" => {
            finish(&retry.roundtrip("RECOVERY").unwrap_or_else(|e| fail(&e.to_string())))
        }
        "fetch" => {
            let hash = rest.first().unwrap_or_else(|| usage()).clone();
            let json = retry
                .with_retries(|c| c.fetch(&hash))
                .unwrap_or_else(|e| fail(&e.to_string()));
            print!("{json}");
            exit(0)
        }
        "diff" => {
            let a = rest.first().unwrap_or_else(|| usage()).clone();
            let b = rest.get(1).unwrap_or_else(|| usage()).clone();
            finish(&retry.with_retries(|c| c.diff(&a, &b)).unwrap_or_else(|e| fail(&e.to_string())))
        }
        "gc" => {
            let budget: u64 = kv_flag(rest, "--budget")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            finish(&retry.with_retries(|c| c.gc(budget)).unwrap_or_else(|e| fail(&e.to_string())))
        }
        "pin" | "unpin" => {
            let hash = rest.first().unwrap_or_else(|| usage());
            let verb = if cmd == "pin" { "PIN" } else { "UNPIN" };
            finish(
                &retry
                    .roundtrip(&format!("{verb} {hash}"))
                    .unwrap_or_else(|e| fail(&e.to_string())),
            )
        }
        "watch" => watch(&addr, &policy, rest),
        "list" => {
            let lines =
                retry.with_retries(|c| c.list()).unwrap_or_else(|e| fail(&e.to_string()));
            for l in lines {
                println!("{l}");
            }
            exit(0)
        }
        "metrics" => {
            let payload = if rest.iter().any(|a| a == "--prom") {
                retry.with_retries(|c| c.metrics_prom())
            } else {
                retry.with_retries(|c| c.metrics())
            }
            .unwrap_or_else(|e| fail(&e.to_string()));
            match kv_flag(rest, "--out") {
                Some(path) => std::fs::write(&path, &payload)
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
                None => print!("{payload}"),
            }
            exit(0)
        }
        "top" => top(&mut retry, rest),
        "drain" => {
            // Draining blocks up to its own deadline — no request timeout,
            // no retry (a retried drain against a restarted daemon would
            // silently wait on an empty queue and mask the restart).
            let ms = kv_flag(rest, "--ms").unwrap_or_else(|| "60000".into());
            let mut client = Client::connect(&addr)
                .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
            finish(
                &client
                    .roundtrip(&format!("DRAIN ms={ms}"))
                    .unwrap_or_else(|e| fail(&e.to_string())),
            )
        }
        "shutdown" => {
            let mut client = Client::connect(&addr)
                .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
            finish(&client.roundtrip("SHUTDOWN").unwrap_or_else(|e| fail(&e.to_string())))
        }
        _ => usage(),
    }
}

fn submit(retry: &mut RetryingClient, rest: &[String]) -> ! {
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
    let deck = write_deck(&input);
    let resp = retry
        .with_retries(|c| c.submit_deck(&deck, steps, &tag, &token, &tenant, &auth, dry_run))
        .unwrap_or_else(|e| fail(&e.to_string()));
    finish(&resp)
}

/// `watch JOB`: stream lifecycle events, reconnecting (with the same
/// jittered backoff and a visible `(reconnected)` marker) when the daemon
/// restarts mid-stream. Subscribing re-delivers the current state first, so
/// a reconnect can duplicate a line but never skip the terminal one.
fn watch(addr: &str, policy: &RetryPolicy, rest: &[String]) -> ! {
    let job = rest.first().unwrap_or_else(|| usage());
    let mut jitter = policy.seed;
    let mut failures = 0u32;
    let mut connected_before = false;
    loop {
        let attempt = Client::connect(addr).and_then(|mut c| {
            if connected_before {
                println!("(reconnected)");
            }
            connected_before = true;
            failures = 0;
            c.subscribe(job, |ev| println!("{ev}"))
        });
        match attempt {
            Ok(_) => exit(0),
            Err(e) => {
                // "no such job" is a real answer, not a lost connection.
                if e.to_string().contains("not-found") {
                    fail(&e.to_string())
                }
                failures += 1;
                if failures >= policy.attempts.max(1) {
                    fail(&format!("watch {job}: {e} (gave up after {failures} attempts)"))
                }
                std::thread::sleep(policy.delay(failures - 1, &mut jitter));
            }
        }
    }
}

/// `top [--watch MS]`: one shot via the retrying client, or a redraw loop
/// that survives daemon restarts with a `(reconnected)` marker.
fn top(retry: &mut RetryingClient, rest: &[String]) -> ! {
    let watch_ms = kv_flag(rest, "--watch").map(|v| v.parse::<u64>().unwrap_or_else(|_| usage()));
    let Some(ms) = watch_ms else {
        let table = retry.with_retries(|c| c.top()).unwrap_or_else(|e| fail(&e.to_string()));
        print!("{table}");
        exit(0)
    };
    let mut was_down = false;
    loop {
        match retry.with_retries(|c| c.top()) {
            Ok(table) => {
                // Clear + home, like watch(1), so the table redraws in place.
                let marker = if was_down { "(reconnected)\n" } else { "" };
                was_down = false;
                print!("\x1b[2J\x1b[H{marker}{table}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(_) => was_down = true, // keep polling; the daemon may return
        }
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

fn kv_flag(rest: &[String], key: &str) -> Option<String> {
    rest.iter().position(|a| a == key).and_then(|i| rest.get(i + 1).cloned())
}
