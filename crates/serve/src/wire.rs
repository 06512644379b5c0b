//! Line-oriented TCP wire protocol: `xgqueued` serves it, `xgq` speaks it.
//!
//! One request per line (`COMMAND key=value …`); `SUBMIT`/`DRYRUN` are
//! followed by the deck text and a terminating `END` line. Responses start
//! with `OK` or `ERR <kind>: <message>`; multi-line payloads (`LIST`,
//! `METRICS`, `METRICS_PROM`, `TOP`) announce their length up front or end
//! with a lone `.`, and `SUBSCRIBE` streams `EVENT` lines until the job
//! terminalizes. The format is deliberately trivial — greppable in CI logs,
//! drivable from a shell with `nc`.
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
//! STATUS job-N                  -> OK job-N state=… batch=… detail=…
//! RESULT job-N                  -> OK job-N steps=… h_hash=0x… diag=0x…,…
//! LIST                          -> OK <n>, then n status lines
//! CANCEL job-N                  -> OK <state>
//! SUBSCRIBE job-N               -> EVENT job-N <state> <detail>…, OK done
//! METRICS                       -> OK, JSON lines, then a lone '.'
//! METRICS_PROM                  -> OK, Prometheus text, then a lone '.'
//! TOP                           -> OK, live phase table, then a lone '.'
//! RECOVERY                      -> OK replayed=… restored=… resumed=…
//! FETCH xgd1-…                  -> OK, manifest JSON lines, then a lone '.'
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

use crate::batcher::Placement;
use crate::job::{JobId, JobSpec, JobStatus};
use crate::server::CampaignServer;
use xg_artifact::DeckHash;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
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
        match cmd {
            "PING" => writeln!(out, "OK pong")?,
            "SUBMIT" | "DRYRUN" => {
                let spec = match read_spec(&mut reader, &args) {
                    Ok(s) => s,
                    Err(SpecError::Bad(msg)) => {
                        writeln!(out, "ERR bad-request: {msg}")?;
                        out.flush()?;
                        continue;
                    }
                    Err(SpecError::Protocol(msg)) => {
                        // Mid-deck framing is unrecoverable: we no longer
                        // know where the next request starts. Say why, then
                        // close.
                        writeln!(out, "ERR protocol: {msg}")?;
                        out.flush()?;
                        return Ok(());
                    }
                };
                if cmd == "SUBMIT" {
                    match server.submit_authed(spec, kv_arg(&args, "token"), kv_arg(&args, "auth"))
                    {
                        Ok((id, dup)) => {
                            let batch = server
                                .status(id)
                                .and_then(|s| s.batch)
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "-".into());
                            let dup = if dup { " dup=1" } else { "" };
                            writeln!(out, "OK {id} batch={batch}{dup}")?;
                        }
                        Err(e) => writeln!(out, "ERR {}: {e}", e.kind())?,
                    }
                } else {
                    match server.dry_run(&spec) {
                        Ok(dr) => {
                            let key = dr.cmat_key;
                            let tail =
                                format!("deck_hash={} cache={}", dr.deck_hash, dr.cache);
                            match dr.placement {
                                Placement::Joins { batch, occupancy, k_cap } => writeln!(
                                    out,
                                    "OK cmat_key={key:#018x} placement=joins batch={batch} \
                                     occupancy={occupancy} k_cap={k_cap} {tail}"
                                )?,
                                Placement::Opens { k_cap } => writeln!(
                                    out,
                                    "OK cmat_key={key:#018x} placement=opens k_cap={k_cap} \
                                     {tail}"
                                )?,
                                Placement::Infeasible => writeln!(
                                    out,
                                    "OK cmat_key={key:#018x} placement=infeasible k_cap=0 \
                                     {tail}"
                                )?,
                            }
                        }
                        Err(e) => writeln!(out, "ERR {}: {e}", e.kind())?,
                    }
                }
            }
            "STATUS" => match parse_job_arg(&args).and_then(|id| {
                server.status(id).ok_or_else(|| format!("no such job: {id}"))
            }) {
                Ok(s) => writeln!(out, "OK {}", fmt_status(&s))?,
                Err(msg) => writeln!(out, "ERR not-found: {msg}")?,
            },
            "RESULT" => match parse_job_arg(&args) {
                Ok(id) => match server.result_summary(id) {
                    Some((steps, h_hash, d)) => writeln!(
                        out,
                        "OK {id} steps={steps} h_hash={h_hash:#018x} \
                         diag={:#018x},{:#018x},{:#018x},{:#018x}",
                        d[0], d[1], d[2], d[3]
                    )?,
                    None => writeln!(out, "ERR not-found: no completed result for {id}")?,
                },
                Err(msg) => writeln!(out, "ERR not-found: {msg}")?,
            },
            "RECOVERY" => {
                let r = server.recovery_report();
                writeln!(
                    out,
                    "OK replayed={} restored={} resumed={} readmitted={} torn_bytes={} \
                     replay_us={} warnings={}",
                    r.replayed_records,
                    r.restored_jobs,
                    r.resumed_batches,
                    r.readmitted_jobs,
                    r.torn_bytes,
                    r.replay_us,
                    r.warnings.len()
                )?;
            }
            "LIST" => {
                let all = server.list();
                writeln!(out, "OK {}", all.len())?;
                for s in &all {
                    writeln!(out, "{}", fmt_status(s))?;
                }
            }
            "CANCEL" => match parse_job_arg(&args).and_then(|id| server.cancel(id)) {
                Ok(state) => writeln!(out, "OK {state}")?,
                Err(msg) => writeln!(out, "ERR not-found: {msg}")?,
            },
            "SUBSCRIBE" => match parse_job_arg(&args)
                .and_then(|id| server.subscribe(id).ok_or_else(|| format!("no such job: {id}")))
            {
                Ok(rx) => {
                    for ev in rx.iter() {
                        writeln!(out, "EVENT {} {} {}", ev.job, ev.state, ev.detail)?;
                        out.flush()?;
                        if ev.state.is_terminal() {
                            break;
                        }
                    }
                    writeln!(out, "OK done")?;
                }
                Err(msg) => writeln!(out, "ERR not-found: {msg}")?,
            },
            "FETCH" => match parse_hash_arg(&args, 0) {
                Ok(hash) => match server.artifact_fetch(hash) {
                    Ok(Some(json)) => {
                        writeln!(out, "OK")?;
                        out.write_all(json.as_bytes())?;
                        if !json.ends_with('\n') {
                            writeln!(out)?;
                        }
                        writeln!(out, ".")?;
                    }
                    Ok(None) => writeln!(out, "ERR not-found: no manifest for {hash}")?,
                    Err(msg) => writeln!(out, "ERR cache: {msg}")?,
                },
                Err(msg) => writeln!(out, "ERR bad-request: {msg}")?,
            },
            "DIFF" => match parse_hash_arg(&args, 0)
                .and_then(|a| parse_hash_arg(&args, 1).map(|b| (a, b)))
            {
                Ok((a, b)) => match server.artifact_diff(a, b) {
                    Ok(fields) if fields.is_empty() => writeln!(out, "OK same")?,
                    Ok(fields) => writeln!(out, "OK differs {}", fields.join(","))?,
                    Err(msg) => writeln!(out, "ERR cache: {msg}")?,
                },
                Err(msg) => writeln!(out, "ERR bad-request: {msg}")?,
            },
            "GC" => {
                match kv_arg(&args, "budget").and_then(|v| v.parse::<u64>().ok()) {
                    Some(budget) => match server.artifact_gc(budget) {
                        Ok(r) => writeln!(
                            out,
                            "OK evicted_manifests={} evicted_objects={} bytes_freed={} \
                             bytes_after={}",
                            r.evicted_manifests, r.evicted_objects, r.bytes_freed, r.bytes_after
                        )?,
                        Err(msg) => writeln!(out, "ERR cache: {msg}")?,
                    },
                    None => writeln!(out, "ERR bad-request: missing budget=BYTES")?,
                }
            }
            "PIN" | "UNPIN" => match parse_hash_arg(&args, 0) {
                Ok(hash) => match server.artifact_pin(hash, cmd == "PIN") {
                    Ok(()) => {
                        writeln!(out, "OK {}", if cmd == "PIN" { "pinned" } else { "unpinned" })?
                    }
                    Err(msg) => writeln!(out, "ERR cache: {msg}")?,
                },
                Err(msg) => writeln!(out, "ERR bad-request: {msg}")?,
            },
            "METRICS" => {
                writeln!(out, "OK")?;
                out.write_all(server.metrics_json().as_bytes())?;
                writeln!(out, ".")?;
            }
            "METRICS_PROM" => {
                writeln!(out, "OK")?;
                out.write_all(server.metrics_prom().as_bytes())?;
                writeln!(out, ".")?;
            }
            "TOP" => {
                writeln!(out, "OK")?;
                out.write_all(server.top_text().as_bytes())?;
                writeln!(out, ".")?;
            }
            "DRAIN" => {
                let ms = kv_arg(&args, "ms").and_then(|v| v.parse::<u64>().ok()).unwrap_or(60_000);
                if server.drain(Duration::from_millis(ms)) {
                    writeln!(out, "OK drained")?;
                } else {
                    writeln!(out, "ERR drain-timeout: jobs still live after {ms}ms")?;
                }
            }
            "SHUTDOWN" => {
                writeln!(out, "OK bye")?;
                out.flush()?;
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            other => writeln!(out, "ERR bad-request: unknown command '{other}'")?,
        }
        out.flush()?;
    }
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
        "{} state={} batch={} tenant={} tag={} latency_ms={} detail={}",
        s.id,
        s.state,
        s.batch.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
        s.tenant,
        if s.tag.is_empty() { "-" } else { &s.tag },
        s.queue_latency_ms.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
        s.detail,
    )
}

/// A thin synchronous client for the protocol (what `xgq` is built on).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to an `xgqueued` server.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small and latency-sensitive; never Nagle-delay them.
        stream.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Connect with a deadline on the connect itself *and* on every
    /// subsequent read/write. Use for quick idempotent requests where a
    /// hung daemon should surface as a timeout, not a forever-block; NOT
    /// for `SUBSCRIBE`/`DRAIN`, whose legitimate silences outlast any
    /// sensible request timeout.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        use std::net::ToSocketAddrs;
        let sa = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("cannot resolve {addr}")))?;
        let stream = TcpStream::connect_timeout(&sa, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        match read_line_capped(&mut self.reader, &mut line, MAX_LINE)? {
            LineRead::Eof => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server hung up",
            )),
            LineRead::TooLong => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response line exceeds {MAX_LINE} bytes"),
            )),
            LineRead::Line => Ok(line.trim_end().to_string()),
        }
    }

    /// One-line request → one-line response (`PING`, `STATUS`, `CANCEL`,
    /// `DRAIN`, `SHUTDOWN`).
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv_line()
    }

    /// Submit (or dry-run) a deck; returns the response line. `tag`,
    /// `token`, `tenant` and `auth` are each `""` for "absent". With a
    /// token the request is safe to retry: a re-send the server already
    /// acknowledged answers `dup=1` with the original job id instead of
    /// double-enqueueing. `tenant` names who the job is attributed to,
    /// `auth` is that tenant's secret when the roster demands one.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_deck(
        &mut self,
        deck_text: &str,
        steps: usize,
        tag: &str,
        token: &str,
        tenant: &str,
        auth: &str,
        dry_run: bool,
    ) -> std::io::Result<String> {
        let cmd = if dry_run { "DRYRUN" } else { "SUBMIT" };
        let tag_part = if tag.is_empty() { String::new() } else { format!(" tag={tag}") };
        let token_part =
            if token.is_empty() { String::new() } else { format!(" token={token}") };
        let tenant_part =
            if tenant.is_empty() { String::new() } else { format!(" tenant={tenant}") };
        let auth_part = if auth.is_empty() { String::new() } else { format!(" auth={auth}") };
        // One write for the whole request: several small writes would
        // trigger Nagle/delayed-ACK stalls that add tens of milliseconds
        // per submission — enough to spread a burst past the linger window.
        let mut req =
            format!("{cmd} steps={steps}{tag_part}{token_part}{tenant_part}{auth_part}\n");
        req.push_str(deck_text);
        if !deck_text.ends_with('\n') {
            req.push('\n');
        }
        req.push_str("END\n");
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        self.recv_line()
    }

    /// `LIST`: header plus one line per job.
    pub fn list(&mut self) -> std::io::Result<Vec<String>> {
        self.send("LIST")?;
        let header = self.recv_line()?;
        let n = header
            .strip_prefix("OK ")
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad LIST header: {header}")))?;
        (0..n).map(|_| self.recv_line()).collect()
    }

    /// Read a dot-framed payload: `OK`, lines, then a lone `.`.
    fn read_dot_payload(&mut self) -> std::io::Result<String> {
        let header = self.recv_line()?;
        if header != "OK" {
            return Err(std::io::Error::other(header));
        }
        let mut payload = String::new();
        loop {
            let line = self.recv_line()?;
            if line == "." {
                return Ok(payload);
            }
            payload.push_str(&line);
            payload.push('\n');
        }
    }

    /// `METRICS`: the JSON payload.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send("METRICS")?;
        self.read_dot_payload()
    }

    /// `METRICS_PROM`: the Prometheus text payload (serve counters plus the
    /// daemon's process-wide phase timers).
    pub fn metrics_prom(&mut self) -> std::io::Result<String> {
        self.send("METRICS_PROM")?;
        self.read_dot_payload()
    }

    /// `TOP`: the live phase table rendered by the daemon.
    pub fn top(&mut self) -> std::io::Result<String> {
        self.send("TOP")?;
        self.read_dot_payload()
    }

    /// `FETCH`: a published manifest's canonical JSON by deck hash.
    pub fn fetch(&mut self, hash: &str) -> std::io::Result<String> {
        self.send(&format!("FETCH {hash}"))?;
        self.read_dot_payload()
    }

    /// `DIFF`: compare two published manifests; `OK same` or
    /// `OK differs field,…`.
    pub fn diff(&mut self, a: &str, b: &str) -> std::io::Result<String> {
        self.roundtrip(&format!("DIFF {a} {b}"))
    }

    /// `GC`: collect the artifact store down to `budget` bytes.
    pub fn gc(&mut self, budget: u64) -> std::io::Result<String> {
        self.roundtrip(&format!("GC budget={budget}"))
    }

    /// `SUBSCRIBE`: invoke `on_event` for every `EVENT` line until the
    /// terminal `OK done`; returns the last event line.
    pub fn subscribe(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&str),
    ) -> std::io::Result<String> {
        self.send(&format!("SUBSCRIBE {job}"))?;
        let mut last = String::new();
        loop {
            let line = self.recv_line()?;
            if line.starts_with("ERR") {
                return Err(std::io::Error::other(line));
            }
            if line == "OK done" {
                return Ok(last);
            }
            on_event(&line);
            last = line;
        }
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

/// A client wrapper that carries requests through connection failures and
/// daemon restarts: every attempt reconnects if needed (with
/// [`Client::connect_with_timeout`] deadlines), and delays between attempts
/// follow the policy's equal-jitter backoff.
///
/// Only I/O failures are retried — an `ERR …` response line is a valid
/// answer and comes back as `Ok`. Safe only for requests whose repetition
/// cannot double work: the read-only verbs, and `SUBMIT` when every
/// submission carries an idempotency token.
#[derive(Debug)]
pub struct RetryingClient {
    addr: String,
    timeout: Duration,
    policy: RetryPolicy,
    jitter: u64,
    conn: Option<Client>,
}

impl RetryingClient {
    /// New wrapper around `addr` with per-request `timeout`.
    pub fn new(addr: &str, timeout: Duration, policy: RetryPolicy) -> Self {
        let jitter = policy.seed;
        Self { addr: addr.to_string(), timeout, policy, jitter, conn: None }
    }

    /// Run one idempotent request, retrying per the policy. The connection
    /// is dropped and re-established after any I/O failure, so a retry
    /// lands on the restarted daemon, not a dead socket.
    pub fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut last = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt - 1, &mut self.jitter));
            }
            if self.conn.is_none() {
                match Client::connect_with_timeout(&self.addr, self.timeout) {
                    Ok(c) => self.conn = Some(c),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            match op(self.conn.as_mut().expect("connected above")) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    // The stream may be mid-frame or dead: reconnect fresh.
                    self.conn = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("retry policy made no attempts")))
    }

    /// One-line request → one-line response, with retries.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.with_retries(|c| c.roundtrip(line))
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

    #[test]
    fn a_full_wire_session() {
        let (addr, h) = start();
        let mut c = Client::connect(&addr.to_string()).expect("connect");
        assert_eq!(c.roundtrip("PING").unwrap(), "OK pong");

        let base = CgyroInput::test_small();
        // Dry-run first: reports the key and that a new batch would open.
        let probe = c.submit_deck(&write_deck(&base), 20, "probe", "", "", "", true).unwrap();
        assert!(probe.starts_with("OK cmat_key=0x"), "{probe}");
        assert!(probe.contains("placement=opens k_cap=3"), "{probe}");

        // Three compatible submissions fill one k=3 batch.
        for i in 0..3 {
            let deck = write_deck(&base.with_gradients(1.0 + i as f64, 2.0));
            let resp = c.submit_deck(&deck, 20, &format!("s{i}"), "", "", "", false).unwrap();
            assert!(resp.starts_with(&format!("OK job-{i} batch=batch-")), "{resp}");
        }
        assert_eq!(c.roundtrip("DRAIN ms=60000").unwrap(), "OK drained");

        let status = c.roundtrip("STATUS job-0").unwrap();
        assert!(status.contains("state=Done"), "{status}");
        let listing = c.list().unwrap();
        assert_eq!(listing.len(), 3);
        assert!(listing.iter().all(|l| l.contains("state=Done")), "{listing:?}");

        // Subscribing to a finished job still yields its terminal snapshot.
        let last = c.subscribe("job-1", |_| {}).unwrap();
        assert!(last.contains("Done"), "{last}");

        let json = c.metrics().unwrap();
        assert!(json.contains("\"k=3\": 1"), "{json}");
        assert!(json.contains("\"cmat_saved_bytes\""), "{json}");

        // The Prometheus view of the same counters must lint clean.
        let prom = c.metrics_prom().unwrap();
        assert!(prom.contains("xgserve_batches_total{k=\"3\"} 1"), "{prom}");
        xg_obs::expo::lint_prometheus(&prom).expect("exposition must lint");

        // TOP always answers, with a table or an explanatory placeholder.
        let top = c.top().unwrap();
        assert!(top.contains("jobs:"), "{top}");

        let err = c.roundtrip("STATUS job-99").unwrap();
        assert!(err.starts_with("ERR not-found"), "{err}");

        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK bye");
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
        let mut c = Client::connect(&addr.to_string()).expect("connect");

        let base = CgyroInput::test_small();
        let deck = write_deck(&base);
        // Cold cache: dry run reports the deck hash and a miss.
        let probe = c.submit_deck(&deck, 20, "", "", "", "", true).unwrap();
        assert!(probe.contains("deck_hash=xgd1-"), "{probe}");
        assert!(probe.contains("cache=miss"), "{probe}");
        let hash = probe
            .split_whitespace()
            .find_map(|t| t.strip_prefix("deck_hash="))
            .unwrap()
            .to_string();
        assert!(c.fetch(&hash).is_err(), "nothing published yet");

        // Run it, then everything about the artifact is reachable by hash.
        let resp = c.submit_deck(&deck, 20, "t", "", "", "", false).unwrap();
        assert!(resp.starts_with("OK job-0"), "{resp}");
        // Wait for completion WITHOUT draining (a drained server admits no
        // resubmissions — the thing the rest of this test exercises).
        let last = c.subscribe("job-0", |_| {}).unwrap();
        assert!(last.contains("Done"), "{last}");
        let probe = c.submit_deck(&deck, 20, "", "", "", "", true).unwrap();
        assert!(probe.contains("cache=hit"), "{probe}");
        let manifest = c.fetch(&hash).unwrap();
        assert!(manifest.contains("\"schema\": \"xg-artifact-manifest-v1\""), "{manifest}");
        assert!(manifest.contains(&hash), "{manifest}");
        assert_eq!(c.diff(&hash, &hash).unwrap(), "OK same");
        assert_eq!(c.roundtrip(&format!("PIN {hash}")).unwrap(), "OK pinned");
        // A pinned manifest survives even a zero-byte budget.
        let gc = c.gc(0).unwrap();
        assert!(gc.starts_with("OK evicted_manifests=0"), "{gc}");
        assert!(c.fetch(&hash).is_ok(), "pinned manifest survived gc");
        assert_eq!(c.roundtrip(&format!("UNPIN {hash}")).unwrap(), "OK unpinned");
        let gc = c.gc(0).unwrap();
        assert!(gc.starts_with("OK evicted_manifests=1"), "{gc}");
        assert!(c.fetch(&hash).is_err(), "evicted after unpin");
        // A cached submission served straight to Done over the wire.
        let resp = c.roundtrip("STATUS job-1").unwrap_or_default();
        assert!(resp.starts_with("ERR"), "only one real job exists: {resp}");
        let bad = c.roundtrip("FETCH nope").unwrap();
        assert!(bad.starts_with("ERR bad-request"), "{bad}");

        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK bye");
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
        let mut c = Client::connect(&addr.to_string()).expect("connect");

        let base = CgyroInput::test_small();
        let deck = write_deck(&base);
        // Configured roster: an unlisted tenant (and the implicit default)
        // is refused with a typed error.
        let resp = c.submit_deck(&deck, 20, "", "", "mallory", "", false).unwrap();
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        let resp = c.submit_deck(&deck, 20, "", "", "", "", false).unwrap();
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        // A secret-bearing tenant must echo auth=.
        let resp = c.submit_deck(&deck, 20, "", "", "beta", "", false).unwrap();
        assert!(resp.starts_with("ERR tenant-denied"), "{resp}");
        let resp = c.submit_deck(&deck, 20, "", "", "beta", "s3cr3t", false).unwrap();
        assert!(resp.starts_with("OK job-0"), "{resp}");
        // acme's jobs=1 quota: the first live job admits, the second is
        // shed with the typed quota error naming the resource.
        let resp = c.submit_deck(&deck, 20, "a1", "", "acme", "", false).unwrap();
        assert!(resp.starts_with("OK job-1"), "{resp}");
        let deck2 = write_deck(&base.with_gradients(1.5, 2.0));
        let resp = c.submit_deck(&deck2, 20, "a2", "", "acme", "", false).unwrap();
        assert!(resp.starts_with("ERR quota-exceeded"), "{resp}");
        assert!(resp.contains("live jobs"), "{resp}");
        // STATUS and LIST carry the tenant column.
        let status = c.roundtrip("STATUS job-1").unwrap();
        assert!(status.contains("tenant=acme"), "{status}");
        // A terminal job releases its quota: cancel the queued one and the
        // rejected submission now admits.
        assert_eq!(c.roundtrip("CANCEL job-1").unwrap(), "OK Cancelled");
        let resp = c.submit_deck(&deck2, 20, "a2", "", "acme", "", false).unwrap();
        assert!(resp.starts_with("OK"), "{resp}");
        // Per-tenant metric families are exported.
        let json = c.metrics().unwrap();
        assert!(json.contains("\"acme\": {\"submitted\": 2"), "{json}");
        let prom = c.metrics_prom().unwrap();
        assert!(prom.contains("xgserve_tenant_submitted_total{tenant=\"beta\"} 1"), "{prom}");
        xg_obs::expo::lint_prometheus(&prom).expect("exposition must lint");
        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let (addr, h) = start();
        let mut c = Client::connect(&addr.to_string()).expect("connect");
        let resp = c.roundtrip("FROB").unwrap();
        assert!(resp.starts_with("ERR bad-request"), "{resp}");
        let resp = c.submit_deck("NOT_A_KEY=1\n", 10, "", "", "", "", false).unwrap();
        assert!(resp.starts_with("ERR bad-request"), "{resp}");
        // Steps misaligned with the deck cadence: typed admission error.
        let deck = write_deck(&CgyroInput::test_small());
        let resp = c.submit_deck(&deck, 7, "", "", "", "", false).unwrap();
        assert!(resp.starts_with("ERR bad-steps"), "{resp}");
        assert_eq!(c.roundtrip("SHUTDOWN").unwrap(), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_a_typed_protocol_error() {
        // Regression: an uncapped read_line buffered a newline-free stream
        // without bound (OOM under a hostile or broken peer). A capped
        // server answers with a typed protocol error instead and closes.
        let (addr, h) = start();
        let mut c = Client::connect(&addr.to_string()).expect("connect");
        let mut big = vec![b'A'; 2 * MAX_LINE];
        big.push(b'\n');
        c.writer.write_all(&big).unwrap();
        c.writer.flush().unwrap();
        let resp = c.recv_line().unwrap();
        assert!(resp.starts_with("ERR protocol: line-too-long"), "{resp}");
        // The connection is unframed and was closed; a fresh one still works.
        let mut c2 = Client::connect(&addr.to_string()).expect("reconnect");
        assert_eq!(c2.roundtrip("PING").unwrap(), "OK pong");
        assert_eq!(c2.roundtrip("SHUTDOWN").unwrap(), "OK bye");
        h.join().unwrap();
    }

    #[test]
    fn oversized_deck_line_aborts_the_submit() {
        let (addr, h) = start();
        let mut c = Client::connect(&addr.to_string()).expect("connect");
        let deck = format!("GRAD={}\n", "9".repeat(2 * MAX_LINE));
        let resp = c.submit_deck(&deck, 20, "", "", "", "", false).unwrap();
        assert!(resp.starts_with("ERR protocol: line-too-long"), "{resp}");
        let mut c2 = Client::connect(&addr.to_string()).expect("reconnect");
        assert_eq!(c2.roundtrip("SHUTDOWN").unwrap(), "OK bye");
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
            // Frame exactly as Client::submit_deck does.
            let mut framed = payload.clone();
            if !framed.ends_with('\n') {
                framed.push('\n');
            }
            framed.push_str("END\n");
            framed.push_str("PING\n"); // next request must survive the deck read
            let mut reader = BufReader::new(Cursor::new(framed.into_bytes()));
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
