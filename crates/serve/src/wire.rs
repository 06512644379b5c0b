//! Line-oriented TCP wire protocol: `xgqueued` serves it, `xgq` speaks it.
//!
//! One request per line (`COMMAND key=value …`); `SUBMIT`/`DRYRUN` are
//! followed by the deck text and a terminating `END` line. The format is
//! deliberately trivial — greppable in CI logs, drivable from a shell with
//! `nc`.
//!
//! Every reply is framed one way ([`Reply`]): a head line, `OK …` or
//! `ERR <kind>: <message>`, and a head that is exactly `OK` opens a body of
//! lines that ends with a lone `.`. An `ERR` head is an answer, not a lost
//! connection.
//!
//! Every line — request, deck body, or response — is capped at
//! [`MAX_LINE`] bytes. Without the cap a client that streams bytes with no
//! newline makes the server buffer without bound until the allocator kills
//! it; with it the server answers `ERR protocol: line-too-long` and closes
//! the connection (framing is unrecoverable once a line overflows).
//!
//! ```text
//! PING                          -> OK pong
//! SUBMIT steps=N [tag=T] [token=T] [tenant=NAME] [auth=SECRET] + deck
//!                               -> OK job-0 batch=batch-0 [dup=1]
//! DRYRUN steps=N [tenant=NAME]  + deck
//!                               -> OK cmat_key=0x… placement=… k_cap=…
//!                                     deck_hash=xgd1-… cache=hit|miss|off
//!                                     grid=N1xN2
//! STATUS job-N                  -> OK job-N state=… batch=… grid=… detail=…
//! RESULT job-N                  -> OK job-N steps=… h_hash=0x… diag=0x…,…
//! LIST                          -> OK, one status line per job, .
//! CANCEL job-N                  -> OK <state>
//! SUBSCRIBE job-N               -> OK, EVENT job-N <state> <detail> as each
//!                                     happens until terminal, .
//! METRICS                       -> OK, Prometheus text, .
//! TOP                           -> OK, live phase table, .
//! FETCH xgd1-…                  -> OK, manifest JSON lines, .
//! DIFF xgd1-… xgd1-…            -> OK same | OK differs field,field,…
//! GC budget=N                   -> OK evicted_manifests=… bytes_freed=…
//! PIN xgd1-… | UNPIN xgd1-…     -> OK pinned | OK unpinned
//! DRAIN ms=N                    -> OK drained | ERR drain-timeout: …
//! SHUTDOWN                      -> OK bye (server exits)
//! ```
//!
//! `SUBMIT token=T` is the idempotency handle: a retried submit carrying a
//! token the server has already bound (in this life, or journaled in a
//! previous one) answers with the existing job id plus `dup=1` instead of
//! enqueueing again. `RESULT` serves the journaled result fingerprint, so
//! it keeps answering for jobs that completed before a daemon restart.
//!
//! `SUBMIT tenant=NAME` names the tenant the job is admitted, scheduled,
//! quota'd, and metered under (omitted = `default`). When the daemon runs
//! with a `--tenants` roster, only listed names are accepted, and a tenant
//! configured with a secret must echo it as `auth=SECRET` — the same
//! pre-shared-string trust model as the idempotency token.

use crate::admission::AdmitError;
use crate::batcher::Placement;
use crate::job::{JobId, JobSpec, JobStatus};
use crate::server::CampaignServer;
use xg_artifact::DeckHash;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xg_sim::parse_deck;

/// Longest wire line either side will buffer, in bytes. Real requests are
/// tens of bytes and deck lines are under a hundred; 1 MiB leaves three
/// orders of magnitude of headroom while bounding a hostile or broken
/// peer's memory footprint.
pub const MAX_LINE: usize = 1 << 20;

/// Outcome of one capped line read.
enum LineRead {
    /// Clean end of stream before any byte of a new line.
    Eof,
    /// A complete line (newline included, like `read_line`) is in the buffer.
    Line,
    /// The line exceeded the cap; the stream is mid-line and unframed.
    TooLong,
}

/// `BufRead::read_line` with a byte cap: appends at most `cap` bytes
/// (newline included) to `line`, which is cleared first. On `TooLong` the
/// unread remainder of the line is left in the stream — callers must treat
/// the connection as unframed and close it.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut String,
    cap: usize,
) -> std::io::Result<LineRead> {
    line.clear();
    let mut buf = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            break; // EOF mid-line: hand back what arrived, like read_line
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&chunk[..=pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                buf.extend_from_slice(chunk);
                let n = chunk.len();
                reader.consume(n);
            }
        }
        if buf.len() > cap {
            return Ok(LineRead::TooLong);
        }
    }
    if buf.len() > cap {
        return Ok(LineRead::TooLong);
    }
    let s = String::from_utf8(buf).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("non-UTF-8 line: {e}"))
    })?;
    line.push_str(&s);
    Ok(LineRead::Line)
}

/// One reply, as the server frames it and the client reads it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The head line: `OK …` or `ERR <kind>: <message>`.
    pub head: String,
    /// The body lines, without the closing `.`; only a head that is
    /// exactly `OK` carries a body.
    pub body: Vec<String>,
}

impl Reply {
    fn line(head: impl Into<String>) -> Self {
        Self { head: head.into(), body: Vec::new() }
    }

    fn body<S: Into<String>>(lines: impl IntoIterator<Item = S>) -> Self {
        Self { head: "OK".into(), body: lines.into_iter().map(Into::into).collect() }
    }

    fn err(kind: &str, msg: impl std::fmt::Display) -> Self {
        Self::line(format!("ERR {kind}: {msg}"))
    }

    /// Whether the head is an `OK` rather than an `ERR`.
    pub fn is_ok(&self) -> bool {
        self.head.starts_with("OK")
    }

    /// The body as text, every line `\n`-terminated.
    pub fn body_text(&self) -> String {
        self.body.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
    }
}

/// Frame `reply` and send it in one write.
fn write_reply(out: &mut impl Write, reply: &Reply) -> io::Result<()> {
    let mut text = format!("{}\n", reply.head);
    if reply.head == "OK" {
        text.push_str(&reply.body_text());
        text.push_str(".\n");
    }
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Serve the protocol on `listener` until a client sends `SHUTDOWN`.
/// Connections are handled concurrently; on exit the campaign server is
/// shut down gracefully (running batches preempt at their next checkpoint).
pub fn serve(listener: TcpListener, server: CampaignServer) -> std::io::Result<()> {
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = conn?;
        let _ = stream.set_nodelay(true);
        let server = server.clone();
        let stop = stop.clone();
        handlers.push(std::thread::spawn(move || {
            let _ = handle_conn(stream, &server, &stop, addr);
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => unreachable!("all connection handlers joined"),
    }
    Ok(())
}

/// Read requests off one connection and answer each. Every reply goes
/// through [`write_reply`] except three framed by hand: the streamed
/// `SUBSCRIBE` body, the `ERR protocol` that closes an unframed
/// connection, and `SHUTDOWN`.
fn handle_conn(
    stream: TcpStream,
    server: &CampaignServer,
    stop: &AtomicBool,
    addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut line = String::new();
    loop {
        match read_line_capped(&mut reader, &mut line, MAX_LINE)? {
            LineRead::Eof => return Ok(()), // client hung up
            LineRead::TooLong => {
                writeln!(out, "ERR protocol: line-too-long (cap {MAX_LINE} bytes)")?;
                out.flush()?;
                return Ok(());
            }
            LineRead::Line => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let reply = match cmd {
            "SUBMIT" | "DRYRUN" => match read_spec(&mut reader, &args) {
                Ok(spec) => deck_answer(server, spec, &args, cmd == "DRYRUN"),
                Err(SpecError::Bad(msg)) => Err(Reply::err("bad-request", msg)),
                Err(SpecError::Protocol(msg)) => {
                    // Mid-deck framing is unrecoverable: we no longer
                    // know where the next request starts. Say why, then
                    // close.
                    writeln!(out, "ERR protocol: {msg}")?;
                    out.flush()?;
                    return Ok(());
                }
            },
            "SUBSCRIBE" => match parse_job_arg(&args)
                .and_then(|id| server.subscribe(id).ok_or_else(|| format!("no such job: {id}")))
            {
                Ok(rx) => {
                    // The one streamed body: each event goes out as it
                    // happens.
                    writeln!(out, "OK")?;
                    for ev in rx.iter() {
                        writeln!(out, "EVENT {} {} {}", ev.job, ev.state, ev.detail)?;
                        out.flush()?;
                        if ev.state.is_terminal() {
                            break;
                        }
                    }
                    writeln!(out, ".")?;
                    out.flush()?;
                    continue;
                }
                Err(msg) => Err(Reply::err("not-found", msg)),
            },
            "SHUTDOWN" => {
                write_reply(&mut out, &Reply::line("OK bye"))?;
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            _ => answer(server, cmd, &args),
        };
        let (Ok(reply) | Err(reply)) = reply;
        write_reply(&mut out, &reply)?;
    }
}

/// The answer to a well-framed `SUBMIT`, or to a `DRYRUN` when `dry_run`;
/// `Err` holds an `ERR` reply.
fn deck_answer(
    server: &CampaignServer,
    spec: JobSpec,
    args: &[&str],
    dry_run: bool,
) -> Result<Reply, Reply> {
    let refused = |e: AdmitError| Reply::err(e.kind(), e);
    if !dry_run {
        let (id, dup) = server
            .submit_authed(spec, kv_arg(args, "token"), kv_arg(args, "auth"))
            .map_err(refused)?;
        let batch = server
            .status(id)
            .and_then(|s| s.batch)
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into());
        let dup = if dup { " dup=1" } else { "" };
        return Ok(Reply::line(format!("OK {id} batch={batch}{dup}")));
    }
    let dr = server.dry_run(&spec).map_err(refused)?;
    let placement = match dr.placement {
        Placement::Joins { batch, occupancy, k_cap } => {
            format!("joins batch={batch} occupancy={occupancy} k_cap={k_cap}")
        }
        Placement::Opens { k_cap } => format!("opens k_cap={k_cap}"),
        Placement::Infeasible => "infeasible k_cap=0".into(),
    };
    Ok(Reply::line(format!(
        "OK cmat_key={:#018x} placement={placement} deck_hash={} cache={} grid={}",
        dr.cmat_key, dr.deck_hash, dr.cache, dr.proc_grid
    )))
}

/// The answer to every request without a deck or a hand-framed reply;
/// `Err` holds an `ERR` reply.
fn answer(server: &CampaignServer, cmd: &str, args: &[&str]) -> Result<Reply, Reply> {
    let not_found = |msg: String| Reply::err("not-found", msg);
    let bad = |msg: String| Reply::err("bad-request", msg);
    let cache = |msg: String| Reply::err("cache", msg);
    Ok(match cmd {
        "PING" => Reply::line("OK pong"),
        "STATUS" => {
            let s = parse_job_arg(args)
                .and_then(|id| server.status(id).ok_or_else(|| format!("no such job: {id}")))
                .map_err(not_found)?;
            Reply::line(format!("OK {}", fmt_status(&s)))
        }
        "RESULT" => {
            let id = parse_job_arg(args).map_err(not_found)?;
            let (steps, h_hash, d) = server
                .result_summary(id)
                .ok_or_else(|| not_found(format!("no completed result for {id}")))?;
            Reply::line(format!(
                "OK {id} steps={steps} h_hash={h_hash:#018x} \
                 diag={:#018x},{:#018x},{:#018x},{:#018x}",
                d[0], d[1], d[2], d[3]
            ))
        }
        "LIST" => Reply::body(server.list().iter().map(fmt_status)),
        "CANCEL" => {
            let state = parse_job_arg(args).and_then(|id| server.cancel(id)).map_err(not_found)?;
            Reply::line(format!("OK {state}"))
        }
        "FETCH" => {
            let hash = parse_hash_arg(args, 0).map_err(bad)?;
            let json = server
                .artifact_fetch(hash)
                .map_err(cache)?
                .ok_or_else(|| not_found(format!("no manifest for {hash}")))?;
            Reply::body(json.lines())
        }
        "DIFF" => {
            let a = parse_hash_arg(args, 0).map_err(bad)?;
            let b = parse_hash_arg(args, 1).map_err(bad)?;
            let fields = server.artifact_diff(a, b).map_err(cache)?;
            if fields.is_empty() {
                Reply::line("OK same")
            } else {
                Reply::line(format!("OK differs {}", fields.join(",")))
            }
        }
        "GC" => {
            let budget = kv_arg(args, "budget")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| bad("missing budget=BYTES".into()))?;
            let r = server.artifact_gc(budget).map_err(cache)?;
            Reply::line(format!(
                "OK evicted_manifests={} evicted_objects={} bytes_freed={} bytes_after={}",
                r.evicted_manifests, r.evicted_objects, r.bytes_freed, r.bytes_after
            ))
        }
        "PIN" | "UNPIN" => {
            let pin = cmd == "PIN";
            server.artifact_pin(parse_hash_arg(args, 0).map_err(bad)?, pin).map_err(cache)?;
            Reply::line(if pin { "OK pinned" } else { "OK unpinned" })
        }
        "METRICS" => Reply::body(server.metrics_text().lines()),
        "TOP" => Reply::body(server.top_text().lines()),
        "DRAIN" => {
            let ms = kv_arg(args, "ms").and_then(|v| v.parse::<u64>().ok()).unwrap_or(60_000);
            if !server.drain(Duration::from_millis(ms)) {
                return Err(Reply::err("drain-timeout", format!("jobs still live after {ms}ms")));
            }
            Reply::line("OK drained")
        }
        other => return Err(bad(format!("unknown command '{other}'"))),
    })
}

/// Why a `SUBMIT`/`DRYRUN` body could not be accepted.
enum SpecError {
    /// The framing itself broke (over-cap line, mid-deck EOF): the
    /// connection can no longer be parsed and must close.
    Protocol(String),
    /// The request was well-framed but invalid (bad args, unparsable
    /// deck): reply and keep the connection.
    Bad(String),
}

/// Parse `steps=`/`tag=`/`tenant=` arguments plus the deck body (lines up
/// to `END`). The tenant here is the *claim*; the server resolves it
/// against its directory (and the `auth=` secret) at admission.
fn read_spec(reader: &mut impl BufRead, args: &[&str]) -> Result<JobSpec, SpecError> {
    let steps = kv_arg(args, "steps")
        .ok_or_else(|| SpecError::Bad("missing steps=N".into()))?
        .parse::<usize>()
        .map_err(|e| SpecError::Bad(format!("bad steps: {e}")))?;
    let tag = kv_arg(args, "tag").unwrap_or_default().to_string();
    let tenant = kv_arg(args, "tenant")
        .unwrap_or(crate::tenant::DEFAULT_TENANT)
        .to_string();
    let deck = read_deck_body(reader, MAX_LINE)?;
    let input = parse_deck(&deck).map_err(|e| SpecError::Bad(e.to_string()))?;
    Ok(JobSpec { input, steps, tag, tenant })
}

/// Read deck lines up to the `END` terminator, each capped at `cap` bytes.
/// Returns the body verbatim (embedded `\r` and blank lines preserved).
fn read_deck_body(reader: &mut impl BufRead, cap: usize) -> Result<String, SpecError> {
    let mut deck = String::new();
    let mut line = String::new();
    loop {
        match read_line_capped(reader, &mut line, cap)
            .map_err(|e| SpecError::Protocol(e.to_string()))?
        {
            LineRead::Eof => {
                return Err(SpecError::Protocol("connection closed before END".into()))
            }
            LineRead::TooLong => {
                return Err(SpecError::Protocol(format!("line-too-long (cap {cap} bytes)")))
            }
            LineRead::Line => {}
        }
        if line.trim() == "END" {
            return Ok(deck);
        }
        deck.push_str(&line);
    }
}

fn kv_arg<'a>(args: &[&'a str], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(key)?.strip_prefix('='))
}

fn parse_job_arg(args: &[&str]) -> Result<JobId, String> {
    args.first().ok_or("missing job id".to_string())?.parse()
}

fn parse_hash_arg(args: &[&str], pos: usize) -> Result<DeckHash, String> {
    args.get(pos).ok_or("missing deck hash (xgd1-…)".to_string())?.parse()
}

fn fmt_status(s: &JobStatus) -> String {
    format!(
        "{} state={} batch={} grid={} tenant={} tag={} latency_ms={} detail={}",
        s.id,
        s.state,
        s.batch.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
        s.proc_grid.map(|g| g.to_string()).unwrap_or_else(|| "-".into()),
        s.tenant,
        if s.tag.is_empty() { "-" } else { &s.tag },
        s.queue_latency_ms.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
        s.detail,
    )
}

/// A `SUBMIT`/`DRYRUN` request line with its deck and the `END`
/// terminator appended, ready for [`Client::call`].
pub fn with_deck(request: &str, deck: &str) -> String {
    let newline = if deck.ends_with('\n') { "" } else { "\n" };
    format!("{request}\n{deck}{newline}END")
}

/// The protocol's client (what `xgq` is built on): one lazily opened
/// connection and one [`call`](Client::call) per request.
///
/// Only I/O failures are retried, under the [`RetryPolicy`], each retry on
/// a fresh connection so that it lands on a restarted daemon rather than a
/// dead socket. An `ERR …` head is an answer: it comes back as `Ok` and is
/// never retried. Retrying is safe only for requests whose repetition
/// cannot double work: the read-only verbs, and `SUBMIT` when every
/// submission carries an idempotency token.
#[derive(Debug)]
pub struct Client {
    addr: String,
    timeout: Option<Duration>,
    policy: RetryPolicy,
    jitter: u64,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client of the daemon at `addr`. A `timeout` bounds the connect
    /// and every read and write, so a hung daemon surfaces as an error;
    /// leave it `None` for `SUBSCRIBE` and `DRAIN`, whose legitimate
    /// silences outlast any sensible request timeout.
    pub fn new(addr: &str, timeout: Option<Duration>, policy: RetryPolicy) -> Self {
        Self { addr: addr.to_string(), timeout, jitter: policy.seed, policy, conn: None }
    }

    /// Send `request` (one line, or [`with_deck`]'s framing) and read its
    /// reply.
    pub fn call(&mut self, request: &str) -> io::Result<Reply> {
        self.call_with(request, |_| {})
    }

    /// [`call`](Self::call), handing each body line to `on_line` as it
    /// arrives: how a `SUBSCRIBE` stream is followed live.
    pub fn call_with(
        &mut self,
        request: &str,
        mut on_line: impl FnMut(&str),
    ) -> io::Result<Reply> {
        let mut failures = 0;
        loop {
            match self.attempt(request, &mut on_line) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // The stream may be mid-frame or dead: reconnect fresh.
                    self.conn = None;
                    failures += 1;
                    if failures >= self.policy.attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.policy.delay(failures - 1, &mut self.jitter));
                }
            }
        }
    }

    fn attempt(&mut self, request: &str, on_line: &mut impl FnMut(&str)) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = match self.timeout {
                None => TcpStream::connect(&self.addr)?,
                Some(t) => {
                    let sa = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                        io::Error::other(format!("cannot resolve {}", self.addr))
                    })?;
                    TcpStream::connect_timeout(&sa, t)?
                }
            };
            // Requests are small and latency-sensitive; never Nagle-delay them.
            stream.set_nodelay(true)?;
            stream.set_read_timeout(self.timeout)?;
            stream.set_write_timeout(self.timeout)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        // One write for the whole request: several small writes would
        // trigger Nagle/delayed-ACK stalls that add tens of milliseconds
        // per submission — enough to spread a burst past the linger window.
        conn.get_mut().write_all(format!("{request}\n").as_bytes())?;
        read_reply(conn, on_line)
    }
}

/// Read one reply: the head and, after a head of exactly `OK`, the body up
/// to its lone `.`, handing each body line to `on_line`.
fn read_reply(reader: &mut impl BufRead, on_line: &mut impl FnMut(&str)) -> io::Result<Reply> {
    let mut reply = Reply::line(read_reply_line(reader)?);
    if reply.head == "OK" {
        loop {
            let line = read_reply_line(reader)?;
            if line == "." {
                break;
            }
            on_line(&line);
            reply.body.push(line);
        }
    }
    Ok(reply)
}

fn read_reply_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    match read_line_capped(reader, &mut line, MAX_LINE)? {
        LineRead::Eof => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up")),
        LineRead::TooLong => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response line exceeds {MAX_LINE} bytes"),
        )),
        LineRead::Line => Ok(line.trim_end().to_string()),
    }
}

/// Bounded, jittered exponential backoff for idempotent wire requests.
///
/// Equal jitter: before retry `n` the client sleeps half the backoff
/// window deterministically plus a uniform draw over the other half
/// (window doubling per retry up to `cap`). The random half is what
/// avoids retry storms — when a daemon restarts under load, clients
/// re-arrive spread across the window instead of in synchronized waves —
/// while the deterministic half guarantees a floor, so a fixed retry
/// budget always spans a predictable outage (full jitter can draw
/// near-zero every time and burn its whole budget inside a short
/// restart; measured in EXPERIMENTS.md §R2). The jitter is seeded
/// SplitMix64, so a given client's schedule is reproducible.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, first try included (1 = never retry).
    pub attempts: u32,
    /// Backoff window before the first retry; doubles each retry after.
    pub base: Duration,
    /// Ceiling on any single backoff window.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The `xgq` default: 5 attempts, 50 ms base, 2 s cap.
    pub fn client_default(seed: u64) -> Self {
        Self { attempts: 5, base: Duration::from_millis(50), cap: Duration::from_secs(2), seed }
    }

    /// No retries at all.
    pub fn none() -> Self {
        Self { attempts: 1, base: Duration::ZERO, cap: Duration::ZERO, seed: 0 }
    }

    /// Equal-jitter delay before retry `n` (0-based), advancing `jitter`:
    /// `window/2 + uniform(0, window/2)`.
    pub fn delay(&self, n: u32, jitter: &mut u64) -> Duration {
        let window = self.base.saturating_mul(1u32 << n.min(16)).min(self.cap);
        let nanos = window.as_nanos().min(u64::MAX as u128) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let half = nanos / 2;
        Duration::from_nanos(half + crate::journal::splitmix64(jitter) % (nanos - half + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use proptest::prelude::*;
    use std::io::Cursor;
    use xg_sim::{write_deck, CgyroInput};

    fn start() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        // A long linger keeps grouping deterministic under test: batches
        // flush because they fill (k_cap), never because a slow test runner
        // let the deadline fire between submissions.
        let mut cfg = ServerConfig::local_test();
        cfg.linger = Duration::from_secs(30);
        let server = CampaignServer::start(cfg);
        let h = std::thread::spawn(move || serve(listener, server).expect("serve"));
        (addr, h)
    }

    /// A non-retrying client whose generous timeout turns a framing bug
    /// into a failure instead of a hang.
    fn client(addr: impl ToString) -> Client {
        Client::new(&addr.to_string(), Some(Duration::from_secs(120)), RetryPolicy::none())
    }

    /// The head line of `request`'s reply.
    fn head(c: &mut Client, request: &str) -> String {
        c.call(request).expect("reply").head
    }

    /// A fake daemon: on its connection `n` (0-based) it reads one request
    /// and sends `reply(n)`, or hangs up without answering when that is
    /// `None`. Pass it to [`connections`] when done.
    fn fake_daemon(
        reply: fn(usize) -> Option<&'static str>,
    ) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || {
            for (n, stream) in listener.incoming().enumerate() {
                let mut stream = stream.expect("accept");
                let mut request = String::new();
                BufReader::new(stream.try_clone().unwrap()).read_line(&mut request).unwrap();
                if request == "STOP\n" {
                    return n;
                }
                if let Some(head) = reply(n) {
                    writeln!(stream, "{head}").unwrap();
                }
            }
            unreachable!("a listener accepts forever")
        });
        (addr, daemon)
    }

    /// Stop a [`fake_daemon`] and count the connections it served.
    fn connections(addr: &str, daemon: std::thread::JoinHandle<usize>) -> usize {
        TcpStream::connect(addr).unwrap().write_all(b"STOP\n").unwrap();
        daemon.join().expect("fake daemon")
    }

    fn quick_retries() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 7,
        }
    }

    #[test]
    fn an_err_head_is_an_answer_and_never_retried() {
        let (addr, daemon) = fake_daemon(|_| Some("ERR not-found: no manifest for xgd1-0123"));
        let mut c = Client::new(&addr, Some(Duration::from_secs(10)), quick_retries());
        let reply = c.call("FETCH xgd1-0123456789abcdef").expect("an ERR head is Ok");
        assert_eq!(reply.head, "ERR not-found: no manifest for xgd1-0123");
        assert!(reply.body.is_empty() && !reply.is_ok());
        assert_eq!(connections(&addr, daemon), 1);
    }

    #[test]
    fn a_lost_connection_is_retried_on_a_fresh_one() {
        let (addr, daemon) = fake_daemon(|n| (n > 0).then_some("OK pong"));
        let mut c = Client::new(&addr, Some(Duration::from_secs(10)), quick_retries());
        assert_eq!(head(&mut c, "PING"), "OK pong");
        assert_eq!(connections(&addr, daemon), 2);
    }

    #[test]
    fn retry_delays_are_equal_jitter_windows() {
        let p = RetryPolicy::client_default(42);
        let delays = |seed: u64| {
            let mut jitter = seed;
            (0..20).map(|n| p.delay(n, &mut jitter)).collect::<Vec<_>>()
        };
        let first = delays(p.seed);
        for (n, d) in first.iter().enumerate() {
            let w = p.base.saturating_mul(1 << n).min(p.cap);
            assert!(*d >= w / 2 && *d <= w, "retry {n}: {d:?} outside [{:?}, {w:?}]", w / 2);
        }
        assert_eq!(first, delays(p.seed), "the same seed replays the same schedule");
        let none = RetryPolicy::none();
        let mut jitter = none.seed;
        assert!((0..20).all(|n| none.delay(n, &mut jitter).is_zero()));
    }

    #[test]
    fn a_full_wire_session() {
        let (addr, h) = start();
        let mut c = client(addr);
        assert_eq!(head(&mut c, "PING"), "OK pong");

        let base = CgyroInput::test_small();
        // Dry-run first: reports the key and that a new batch would open.
        let probe = head(&mut c, &with_deck("DRYRUN steps=20 tag=probe", &write_deck(&base)));
        assert!(probe.starts_with("OK cmat_key=0x"), "{probe}");
        assert!(probe.contains("placement=opens k_cap=3"), "{probe}");

        // Three compatible submissions fill one k=3 batch.
        for i in 0..3 {
            let deck = write_deck(&base.with_gradients(1.0 + i as f64, 2.0));
            let resp = head(&mut c, &with_deck(&format!("SUBMIT steps=20 tag=s{i}"), &deck));
            assert!(resp.starts_with(&format!("OK job-{i} batch=batch-")), "{resp}");
        }
        assert_eq!(head(&mut c, "DRAIN ms=60000"), "OK drained");

        let status = head(&mut c, "STATUS job-0");
        assert!(status.contains("state=Done"), "{status}");
        // LIST: a bare `OK`, one status line per job, then the lone `.`.
        let listing = c.call("LIST").unwrap();
        assert_eq!(listing.head, "OK");
        assert_eq!(listing.body.len(), 3);
        assert!(listing.body.iter().all(|l| l.contains("state=Done")), "{listing:?}");

        // SUBSCRIBE: a bare `OK`, the events, then the lone `.`; a finished
        // job still yields its terminal snapshot.
        let mut streamed = Vec::new();
        let events = c.call_with("SUBSCRIBE job-1", |l| streamed.push(l.to_string())).unwrap();
        assert_eq!(events.head, "OK");
        assert_eq!(events.body, streamed);
        assert!(events.body.iter().all(|l| l.starts_with("EVENT job-1 ")), "{events:?}");
        assert!(events.body.last().is_some_and(|l| l.contains("Done")), "{events:?}");

        let prom = c.call("METRICS").unwrap().body_text();
        assert!(prom.contains("xgserve_batches_total{k=\"3\"} 1\n"), "{prom}");
        assert!(prom.contains("xgserve_cmat_saved_bytes_total "), "{prom}");
        xg_obs::expo::lint_prometheus(&prom).expect("exposition must lint");

        // TOP always answers, with a table or an explanatory placeholder.
        let top = c.call("TOP").unwrap().body_text();
        assert!(top.contains("jobs:"), "{top}");

        let err = head(&mut c, "STATUS job-99");
        assert!(err.starts_with("ERR not-found"), "{err}");
        let err = head(&mut c, "SUBSCRIBE job-99");
        assert!(err.starts_with("ERR not-found"), "{err}");

        assert_eq!(head(&mut c, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn artifact_verbs_round_trip_over_the_wire() {
        let dir = std::env::temp_dir()
            .join(format!("xg-wire-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut cfg = ServerConfig::local_test();
        cfg.artifacts = Some(crate::artifacts::ArtifactConfig::at(&dir));
        let server = CampaignServer::start(cfg);
        let h = std::thread::spawn(move || serve(listener, server).expect("serve"));
        let mut c = client(addr);

        let base = CgyroInput::test_small();
        let deck = write_deck(&base);
        let dry_run = with_deck("DRYRUN steps=20", &deck);
        // Cold cache: dry run reports the deck hash and a miss.
        let probe = head(&mut c, &dry_run);
        assert!(probe.contains("deck_hash=xgd1-"), "{probe}");
        assert!(probe.contains("cache=miss"), "{probe}");
        let hash = probe
            .split_whitespace()
            .find_map(|t| t.strip_prefix("deck_hash="))
            .unwrap()
            .to_string();
        let fetch = format!("FETCH {hash}");
        let missing = head(&mut c, &fetch);
        assert!(missing.starts_with("ERR not-found"), "nothing published yet: {missing}");

        // Run it, then everything about the artifact is reachable by hash.
        let resp = head(&mut c, &with_deck("SUBMIT steps=20 tag=t", &deck));
        assert!(resp.starts_with("OK job-0"), "{resp}");
        // Wait for completion WITHOUT draining (a drained server admits no
        // resubmissions — the thing the rest of this test exercises).
        let events = c.call("SUBSCRIBE job-0").unwrap();
        assert!(events.body.last().is_some_and(|l| l.contains("Done")), "{events:?}");
        let probe = head(&mut c, &dry_run);
        assert!(probe.contains("cache=hit"), "{probe}");
        let manifest = c.call(&fetch).unwrap().body_text();
        assert!(manifest.contains("\"schema\": \"xg-artifact-manifest-v1\""), "{manifest}");
        assert!(manifest.contains(&hash), "{manifest}");
        assert_eq!(head(&mut c, &format!("DIFF {hash} {hash}")), "OK same");
        assert_eq!(head(&mut c, &format!("PIN {hash}")), "OK pinned");
        // A pinned manifest survives even a zero-byte budget.
        let gc = head(&mut c, "GC budget=0");
        assert!(gc.starts_with("OK evicted_manifests=0"), "{gc}");
        assert!(c.call(&fetch).unwrap().is_ok(), "pinned manifest survived gc");
        assert_eq!(head(&mut c, &format!("UNPIN {hash}")), "OK unpinned");
        let gc = head(&mut c, "GC budget=0");
        assert!(gc.starts_with("OK evicted_manifests=1"), "{gc}");
        assert!(!c.call(&fetch).unwrap().is_ok(), "evicted after unpin");
        // A cached submission served straight to Done over the wire.
        let resp = head(&mut c, "STATUS job-1");
        assert!(resp.starts_with("ERR"), "only one real job exists: {resp}");
        let bad = head(&mut c, "FETCH nope");
        assert!(bad.starts_with("ERR bad-request"), "{bad}");

        assert_eq!(head(&mut c, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_identity_auth_and_quota_on_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut cfg = ServerConfig::local_test();
        cfg.linger = Duration::from_secs(30);
        cfg.tenants =
            crate::tenant::TenantDirectory::parse("acme:weight=2:jobs=1,beta:secret=s3cr3t")
                .unwrap();
        let server = CampaignServer::start(cfg);
        let h = std::thread::spawn(move || serve(listener, server).expect("serve"));
        let mut c = client(addr);

        let base = CgyroInput::test_small();
        let deck = write_deck(&base);
        let submit = |c: &mut Client, args: &str, deck: &str| {
            head(c, &with_deck(&format!("SUBMIT steps=20{args}"), deck))
        };
        // Configured roster: an unlisted tenant (and the implicit default)
        // is refused with a typed error.
        let resp = submit(&mut c, " tenant=mallory", &deck);
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        let resp = submit(&mut c, "", &deck);
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        // A secret-bearing tenant must echo auth=.
        let resp = submit(&mut c, " tenant=beta", &deck);
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        let resp = submit(&mut c, " tenant=beta auth=s3cr3t", &deck);
        assert!(resp.starts_with("OK job-0"), "{resp}");
        // acme's jobs=1 quota: the first live job admits, the second is
        // shed with the typed quota error naming the resource.
        let resp = submit(&mut c, " tag=a1 tenant=acme", &deck);
        assert!(resp.starts_with("OK job-1"), "{resp}");
        let deck2 = write_deck(&base.with_gradients(1.5, 2.0));
        let resp = submit(&mut c, " tag=a2 tenant=acme", &deck2);
        assert!(resp.starts_with("ERR quota-exceeded"), "{resp}");
        assert!(resp.contains("live jobs"), "{resp}");
        // STATUS and LIST carry the tenant column.
        let status = head(&mut c, "STATUS job-1");
        assert!(status.contains("tenant=acme"), "{status}");
        // A terminal job releases its quota: cancel the queued one and the
        // rejected submission now admits.
        assert_eq!(head(&mut c, "CANCEL job-1"), "OK Cancelled");
        let resp = submit(&mut c, " tag=a2 tenant=acme", &deck2);
        assert!(resp.starts_with("OK"), "{resp}");
        // Per-tenant metric families are exported.
        let prom = c.call("METRICS").unwrap().body_text();
        assert!(prom.contains("xgserve_tenant_submitted_total{tenant=\"acme\"} 2\n"), "{prom}");
        assert!(prom.contains("xgserve_tenant_submitted_total{tenant=\"beta\"} 1\n"), "{prom}");
        xg_obs::expo::lint_prometheus(&prom).expect("exposition must lint");
        assert_eq!(head(&mut c, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn metrics_is_one_prometheus_exposition() {
        let (addr, h) = start();
        let mut c = client(addr);
        let text = c.call("METRICS").unwrap().body_text();
        xg_obs::expo::lint_prometheus(&text).expect("exposition must lint");
        let mut names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_whitespace().next())
            .collect();
        let families = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), families, "a family is exposed twice:\n{text}");
        // World spawns and cmat builds are counted once, by the obs registry.
        assert!(names.contains(&"xgyro_cmat_builds_total"), "{text}");
        assert!(!names.contains(&"xgserve_cmat_builds_total"), "{text}");
        assert!(!names.contains(&"xgserve_world_spawns_total"), "{text}");
        assert_eq!(head(&mut c, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let (addr, h) = start();
        let mut c = client(addr);
        let resp = head(&mut c, "FROB");
        assert!(resp.starts_with("ERR bad-request"), "{resp}");
        let resp = head(&mut c, &with_deck("SUBMIT steps=10", "NOT_A_KEY=1\n"));
        assert!(resp.starts_with("ERR bad-request"), "{resp}");
        // Steps misaligned with the deck cadence: typed admission error.
        let deck = write_deck(&CgyroInput::test_small());
        let resp = head(&mut c, &with_deck("SUBMIT steps=7", &deck));
        assert!(resp.starts_with("ERR bad-steps"), "{resp}");
        assert_eq!(head(&mut c, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_a_typed_protocol_error() {
        // Regression: an uncapped read_line buffered a newline-free stream
        // without bound (OOM under a hostile or broken peer). A capped
        // server answers with a typed protocol error instead and closes.
        let (addr, h) = start();
        let mut c = client(addr);
        let resp = head(&mut c, &"A".repeat(2 * MAX_LINE));
        assert!(resp.starts_with("ERR protocol: line-too-long"), "{resp}");
        // The connection is unframed and was closed; a fresh one still works.
        let mut c2 = client(addr);
        assert_eq!(head(&mut c2, "PING"), "OK pong");
        assert_eq!(head(&mut c2, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn oversized_deck_line_aborts_the_submit() {
        let (addr, h) = start();
        let mut c = client(addr);
        let deck = format!("GRAD={}\n", "9".repeat(2 * MAX_LINE));
        let resp = head(&mut c, &with_deck("SUBMIT steps=20", &deck));
        assert!(resp.starts_with("ERR protocol: line-too-long"), "{resp}");
        let mut c2 = client(addr);
        assert_eq!(head(&mut c2, "SHUTDOWN"), "OK bye");
        h.join().unwrap();
    }

    // Characters deck lines may contain under the round-trip property:
    // letters, digits, key/value punctuation, whitespace — including
    // embedded '\r' and '\t', and the letters of "END" itself.
    const CHARSET: &[u8] = b"abcXYZ019 =._-\r\tEND";

    proptest! {
        /// Any deck body — blank lines, embedded '\r', trailing-newline or
        /// not — survives the SUBMIT framing byte-for-byte (modulo the
        /// trailing newline the client normalizes in), and the next request
        /// on the connection stays readable.
        #[test]
        fn deck_framing_round_trips(
            picks in prop::collection::vec(
                prop::collection::vec(0usize..CHARSET.len(), 0usize..40),
                0usize..8,
            ),
            tn in 0u8..2,
        ) {
            let trailing_newline = tn == 1;
            let lines: Vec<String> = picks
                .iter()
                .map(|l| l.iter().map(|&i| CHARSET[i] as char).collect::<String>())
                // A payload line that trims to the terminator cannot
                // round-trip by design — it IS the frame boundary.
                .filter(|l| l.trim() != "END")
                .collect();
            let mut payload = lines.join("\n");
            if trailing_newline && !payload.is_empty() {
                payload.push('\n');
            }
            // Frame with the client's own function, newline-terminated as
            // Client::call sends it.
            let framed = format!("{}\nPING\n", with_deck("SUBMIT steps=1", &payload));
            let mut reader = BufReader::new(Cursor::new(framed.into_bytes()));
            let mut request = String::new();
            read_line_capped(&mut reader, &mut request, MAX_LINE).unwrap();
            prop_assert_eq!(request.as_str(), "SUBMIT steps=1\n");
            let deck = read_deck_body(&mut reader, MAX_LINE)
                .map_err(|e| match e {
                    SpecError::Protocol(m) | SpecError::Bad(m) => m,
                })
                .expect("framing must round-trip");
            let mut expect = payload;
            if !expect.ends_with('\n') {
                expect.push('\n');
            }
            prop_assert_eq!(&deck, &expect);
            let mut rest = String::new();
            prop_assert!(matches!(
                read_line_capped(&mut reader, &mut rest, MAX_LINE).unwrap(),
                LineRead::Line
            ));
            prop_assert_eq!(rest.as_str(), "PING\n");
        }

        /// Deck lines over the cap are rejected with a protocol error, not
        /// buffered.
        #[test]
        fn over_cap_deck_lines_are_rejected(extra in 1usize..200) {
            let cap = 64;
            let framed = format!("{}\nEND\n", "x".repeat(cap + extra));
            let mut reader = BufReader::new(Cursor::new(framed.into_bytes()));
            let err = read_deck_body(&mut reader, cap).expect_err("must reject");
            prop_assert!(matches!(err, SpecError::Protocol(_)));
        }
    }

    #[test]
    fn capped_reader_matches_read_line_on_small_input() {
        let mut reader = BufReader::new(Cursor::new(b"alpha\r\n\nbeta".to_vec()));
        let mut line = String::new();
        assert!(matches!(read_line_capped(&mut reader, &mut line, 64).unwrap(), LineRead::Line));
        assert_eq!(line, "alpha\r\n");
        assert!(matches!(read_line_capped(&mut reader, &mut line, 64).unwrap(), LineRead::Line));
        assert_eq!(line, "\n");
        // EOF mid-line still yields the partial tail, like read_line.
        assert!(matches!(read_line_capped(&mut reader, &mut line, 64).unwrap(), LineRead::Line));
        assert_eq!(line, "beta");
        assert!(matches!(read_line_capped(&mut reader, &mut line, 64).unwrap(), LineRead::Eof));
    }
}
