//! The durable job journal: a crash-safe write-ahead log of every job
//! lifecycle transition.
//!
//! The campaign server's in-memory job table dies with the process; the
//! journal is what survives. Every admission, placement, dispatch,
//! checkpoint, and terminal transition appends one [`JournalRecord`] to an
//! append-only segment file, CRC-framed and fsynced per the configured
//! [`JournalConfig::fsync_every`] policy. On startup the daemon replays the
//! log ([`Journal::open`] returns every decodable record) through the same
//! transition function the live path uses, then applies recovery policy:
//! terminal jobs keep their result summaries, waiting jobs are regrouped,
//! and running batches resume from their last journaled checkpoint.
//!
//! ## Record framing
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! A `kill -9` mid-write leaves a torn frame at the tail: the length header
//! promises more bytes than exist, or the CRC disagrees. Replay treats the
//! first undecodable frame as the end of the log, truncates the segment
//! back to its last good frame (with a warning, not a crash), and reports
//! the dropped byte count. Because the server journals *intent before
//! effect* (a `Submitted` record is committed before the client learns the
//! job id), a torn tail can only ever lose work the client was never
//! acknowledged for.
//!
//! ## Segments and compaction
//!
//! The log rotates to a fresh `seg-NNNNNN.xgj` file once the current
//! segment exceeds [`JournalConfig::segment_max_bytes`]. A rotation leaves
//! the closed segments due for compaction; the owner's next
//! [`Journal::compact`] merges them, with a predicate saying which records
//! it still needs. The journal itself never decides what a record
//! means: the server passes its job table's answer, so a finished job's
//! records go exactly when the retention window (`retain_jobs` /
//! `retain_age`) evicts the job — never before — while superseded
//! checkpoints, the bulk of the bytes, go at once.
//!
//! ## Fault injection
//!
//! [`ServeFaultPlan`] is the service-layer analogue of `xg_comm::FaultPlan`:
//! deterministic, append-counter-triggered write failures, torn writes, and
//! crash points, so recovery is tested the same seeded way the collectives
//! already are.

use crate::job::{BatchId, JobId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// FNV-1a 64-bit hash — the journal's content fingerprint (deck hashes,
/// result summaries). Stable across platforms, no dependencies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the workspace's standard seed-expansion step (same recurrence
/// `xg_comm::FaultPlan::seeded_crash` uses), reused here for seeded fault
/// plans and the client's retry jitter.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// CRC-32 (IEEE 802.3, reflected), table-driven. Hand-rolled: the container
// has no crc crate and the polynomial fits in twenty lines.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        table
    })
}

/// CRC-32 of `bytes` (IEEE, the checksum zlib and Ethernet use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// One journaled lifecycle transition.
///
/// Records are keyed by job id plus the deck's content hash, so a replayed
/// table can verify it is resuming the same work it admitted. `Checkpoint`
/// records carry the serialized [`xgyro_core::EnsembleCheckpoint`] bytes —
/// the restart image a resumed batch continues from bitwise-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A job passed admission. Written (and fsynced) *before* the client
    /// learns the job id, so an acknowledged submit is never lost.
    Submitted {
        /// The job.
        job: JobId,
        /// Client-supplied idempotency token ("" when none).
        token: String,
        /// [`fnv1a`] of the deck text (integrity cross-check on replay).
        deck_hash: u64,
        /// The full deck text (`xg_sim::write_deck` form) — everything
        /// needed to re-admit the job after a crash.
        deck: String,
        /// Requested steps.
        steps: u64,
        /// Client label.
        tag: String,
        /// Wall-clock submit time, microseconds since the Unix epoch
        /// (restored queue-latency accounting counts from here, not from
        /// replay time).
        submitted_unix_us: u64,
        /// Tenant the job is attributed to. Encoded as the v2 record
        /// (tag 9); v1 records (tag 1) from pre-tenant journals decode
        /// with [`crate::tenant::DEFAULT_TENANT`].
        tenant: String,
    },
    /// The job was placed into a batch.
    Batched {
        /// The job.
        job: JobId,
        /// The batch it joined.
        batch: BatchId,
    },
    /// A batch was dispatched: its members are now running.
    Running {
        /// The batch.
        batch: BatchId,
        /// Its members at dispatch, in member order.
        jobs: Vec<JobId>,
    },
    /// A coherent ensemble checkpoint was captured after a completed
    /// segment.
    Checkpoint {
        /// The batch.
        batch: BatchId,
        /// Surviving members at this checkpoint, in member order (matches
        /// the checkpoint's member images).
        jobs: Vec<JobId>,
        /// Monotonic per-batch checkpoint sequence number.
        seq: u64,
        /// Steps completed at this checkpoint.
        done_steps: u64,
        /// `EnsembleCheckpoint::to_bytes()` of the restart image.
        state: Vec<u8>,
    },
    /// The job finished successfully. Carries a result summary (content
    /// hash of the final distribution plus the exact diagnostics bits) so
    /// `RESULT` stays answerable — and bitwise-checkable — after a restart.
    Done {
        /// The job.
        job: JobId,
        /// Steps executed.
        steps: u64,
        /// [`fnv1a`] over the final `h` tensor's little-endian bytes.
        h_hash: u64,
        /// `f64::to_bits` of (time, field_energy, heat_flux, h_norm2).
        diag_bits: [u64; 4],
    },
    /// The job failed (member eviction or whole-batch failure).
    Failed {
        /// The job.
        job: JobId,
        /// Failure cause.
        detail: String,
    },
    /// The job was cancelled.
    Cancelled {
        /// The job.
        job: JobId,
        /// Cancellation context.
        detail: String,
    },
    /// The submission was answered from the artifact store: admission and
    /// completion in a single record (a cache-hit job is born `Done` and
    /// never occupies a batch). Written (and fsynced) *before* the client
    /// learns the job id, like `Submitted`, so an acknowledged hit replays
    /// after a crash with the same bitwise result summary.
    CacheHit {
        /// The job.
        job: JobId,
        /// Client-supplied idempotency token ("" when none).
        token: String,
        /// [`fnv1a`] of the deck text (integrity cross-check on replay).
        deck_hash: u64,
        /// The full deck text as submitted.
        deck: String,
        /// Requested steps.
        steps: u64,
        /// Client label.
        tag: String,
        /// Wall-clock submit time, microseconds since the Unix epoch.
        submitted_unix_us: u64,
        /// Steps the cached run executed (== `steps`).
        steps_done: u64,
        /// [`fnv1a`] over the cached final `h` tensor's LE bytes.
        h_hash: u64,
        /// `f64::to_bits` of (time, field_energy, heat_flux, h_norm2).
        diag_bits: [u64; 4],
        /// Tenant the hit is attributed to. Encoded as the v2 record
        /// (tag 10); v1 records (tag 8) decode with
        /// [`crate::tenant::DEFAULT_TENANT`].
        tenant: String,
    },
}

impl JournalRecord {
    /// Encode to the journal payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            JournalRecord::Submitted {
                job,
                token,
                deck_hash,
                deck,
                steps,
                tag,
                submitted_unix_us,
                tenant,
            } => {
                out.push(9); // v2: v1 layout (tag 1) + trailing tenant
                put_u64(&mut out, job.0);
                put_str(&mut out, token);
                put_u64(&mut out, *deck_hash);
                put_str(&mut out, deck);
                put_u64(&mut out, *steps);
                put_str(&mut out, tag);
                put_u64(&mut out, *submitted_unix_us);
                put_str(&mut out, tenant);
            }
            JournalRecord::Batched { job, batch } => {
                out.push(2);
                put_u64(&mut out, job.0);
                put_u64(&mut out, batch.0);
            }
            JournalRecord::Running { batch, jobs } => {
                out.push(3);
                put_u64(&mut out, batch.0);
                put_jobs(&mut out, jobs);
            }
            JournalRecord::Checkpoint { batch, jobs, seq, done_steps, state } => {
                out.push(4);
                put_u64(&mut out, batch.0);
                put_jobs(&mut out, jobs);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *done_steps);
                put_bytes(&mut out, state);
            }
            JournalRecord::Done { job, steps, h_hash, diag_bits } => {
                out.push(5);
                put_u64(&mut out, job.0);
                put_u64(&mut out, *steps);
                put_u64(&mut out, *h_hash);
                for d in diag_bits {
                    put_u64(&mut out, *d);
                }
            }
            JournalRecord::Failed { job, detail } => {
                out.push(6);
                put_u64(&mut out, job.0);
                put_str(&mut out, detail);
            }
            JournalRecord::Cancelled { job, detail } => {
                out.push(7);
                put_u64(&mut out, job.0);
                put_str(&mut out, detail);
            }
            JournalRecord::CacheHit {
                job,
                token,
                deck_hash,
                deck,
                steps,
                tag,
                submitted_unix_us,
                steps_done,
                h_hash,
                diag_bits,
                tenant,
            } => {
                out.push(10); // v2: v1 layout (tag 8) + trailing tenant
                put_u64(&mut out, job.0);
                put_str(&mut out, token);
                put_u64(&mut out, *deck_hash);
                put_str(&mut out, deck);
                put_u64(&mut out, *steps);
                put_str(&mut out, tag);
                put_u64(&mut out, *submitted_unix_us);
                put_u64(&mut out, *steps_done);
                put_u64(&mut out, *h_hash);
                for d in diag_bits {
                    put_u64(&mut out, *d);
                }
                put_str(&mut out, tenant);
            }
        }
        out
    }

    /// Decode one payload. Fails on unknown tags, short buffers, trailing
    /// garbage, or non-UTF-8 strings.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut c = Cursor { buf: payload, off: 0 };
        let tag = c.u8()?;
        let rec = match tag {
            // Tag 1 is the pre-tenant (v1) Submitted layout; tag 9 is v2
            // with a trailing tenant. Old journals replay as the default
            // tenant — attribution is preserved going forward, never
            // invented backward.
            t @ (1 | 9) => JournalRecord::Submitted {
                job: JobId(c.u64()?),
                token: c.str()?,
                deck_hash: c.u64()?,
                deck: c.str()?,
                steps: c.u64()?,
                tag: c.str()?,
                submitted_unix_us: c.u64()?,
                tenant: if t == 9 {
                    c.str()?
                } else {
                    crate::tenant::DEFAULT_TENANT.to_string()
                },
            },
            2 => JournalRecord::Batched { job: JobId(c.u64()?), batch: BatchId(c.u64()?) },
            3 => JournalRecord::Running { batch: BatchId(c.u64()?), jobs: c.jobs()? },
            4 => JournalRecord::Checkpoint {
                batch: BatchId(c.u64()?),
                jobs: c.jobs()?,
                seq: c.u64()?,
                done_steps: c.u64()?,
                state: c.bytes()?,
            },
            5 => JournalRecord::Done {
                job: JobId(c.u64()?),
                steps: c.u64()?,
                h_hash: c.u64()?,
                diag_bits: [c.u64()?, c.u64()?, c.u64()?, c.u64()?],
            },
            6 => JournalRecord::Failed { job: JobId(c.u64()?), detail: c.str()? },
            7 => JournalRecord::Cancelled { job: JobId(c.u64()?), detail: c.str()? },
            // Tag 8 = v1 CacheHit, tag 10 = v2 with trailing tenant.
            t @ (8 | 10) => JournalRecord::CacheHit {
                job: JobId(c.u64()?),
                token: c.str()?,
                deck_hash: c.u64()?,
                deck: c.str()?,
                steps: c.u64()?,
                tag: c.str()?,
                submitted_unix_us: c.u64()?,
                steps_done: c.u64()?,
                h_hash: c.u64()?,
                diag_bits: [c.u64()?, c.u64()?, c.u64()?, c.u64()?],
                tenant: if t == 10 {
                    c.str()?
                } else {
                    crate::tenant::DEFAULT_TENANT.to_string()
                },
            },
            other => return Err(format!("unknown record tag {other}")),
        };
        if c.off != payload.len() {
            return Err(format!(
                "trailing garbage: {} of {} bytes consumed",
                c.off,
                payload.len()
            ));
        }
        Ok(rec)
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_jobs(out: &mut Vec<u8>, jobs: &[JobId]) {
    out.extend_from_slice(&(jobs.len() as u32).to_le_bytes());
    for j in jobs {
        put_u64(out, j.0);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.off + n > self.buf.len() {
            return Err(format!(
                "truncated record: wanted {n} bytes at offset {}, have {}",
                self.off,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|e| format!("non-UTF-8 string: {e}"))
    }

    fn jobs(&mut self) -> Result<Vec<JobId>, String> {
        let n = self.u32()? as usize;
        // Bound by what the buffer can actually hold — a corrupt count must
        // not turn into a giant allocation.
        if n > self.buf.len() / 8 + 1 {
            return Err(format!("implausible member count {n}"));
        }
        (0..n).map(|_| Ok(JobId(self.u64()?))).collect()
    }
}

/// What an injected service-layer fault does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// The append fails cleanly (disk full, EIO): nothing is written, the
    /// journal stays framed and usable. The server surfaces this as
    /// journal-backpressure admission rejection.
    WriteError,
    /// Only the first `keep_bytes` of the frame reach the file — the torn
    /// tail a `kill -9` mid-`write(2)` leaves. The journal is poisoned
    /// (further appends refuse) exactly as a real crash would end them.
    TornWrite {
        /// Bytes of the frame that make it to disk.
        keep_bytes: usize,
    },
    /// The process "dies" before writing anything: the append is lost and
    /// the journal poisoned.
    Crash,
}

/// One scheduled service-layer fault: fires on the `at_append`-th append
/// (0-based, counted over the journal's lifetime including replayed
/// restarts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeFaultSpec {
    /// 0-based append index at which to fire.
    pub at_append: u64,
    /// What happens.
    pub kind: ServeFaultKind,
}

/// A deterministic schedule of journal faults — the service-layer mirror of
/// `xg_comm::FaultPlan`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    specs: Vec<ServeFaultSpec>,
}

impl ServeFaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault; builder-style.
    pub fn with(mut self, spec: ServeFaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Convenience: one clean write failure at append `at_append`.
    pub fn write_error(at_append: u64) -> Self {
        Self::new().with(ServeFaultSpec { at_append, kind: ServeFaultKind::WriteError })
    }

    /// Convenience: one torn write keeping `keep_bytes` of the frame.
    pub fn torn_write(at_append: u64, keep_bytes: usize) -> Self {
        Self::new().with(ServeFaultSpec {
            at_append,
            kind: ServeFaultKind::TornWrite { keep_bytes },
        })
    }

    /// Convenience: crash before append `at_append` is written.
    pub fn crash(at_append: u64) -> Self {
        Self::new().with(ServeFaultSpec { at_append, kind: ServeFaultKind::Crash })
    }

    fn fire(&self, append: u64) -> Option<&ServeFaultKind> {
        self.specs.iter().find(|s| s.at_append == append).map(|s| &s.kind)
    }
}

/// Journal configuration.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Fsync cadence in appends: 1 = fsync on every commit (the durable
    /// default), N = batch N appends per fsync (bounded loss window — see
    /// `xg_cluster::journal_sync_plan` for the MTBF-aware choice), 0 =
    /// never fsync (OS page cache only).
    pub fsync_every: u32,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// Service-layer fault injection (None in production).
    pub fault_plan: Option<ServeFaultPlan>,
}

impl JournalConfig {
    /// Durable defaults in `dir`: fsync every append, 8 MiB segments.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_every: 1,
            segment_max_bytes: 8 << 20,
            fault_plan: None,
        }
    }
}

/// Why an append was not committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Real I/O failure (the journal is poisoned: the tail may be torn).
    Io(String),
    /// Injected clean write failure — nothing was written; the journal
    /// stays usable and the caller should shed load (admission
    /// backpressure).
    Backpressure(String),
    /// A previous torn write or crash point ended this journal's life;
    /// every subsequent append refuses (the process would be dead).
    Poisoned,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Backpressure(e) => write!(f, "journal write failed: {e}"),
            JournalError::Poisoned => write!(f, "journal poisoned by an earlier torn write"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Running counters the journal maintains, exported under the serve
/// metrics' `journal` block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Committed appends.
    pub appends: u64,
    /// fsync(2) calls issued.
    pub fsyncs: u64,
    /// Payload + framing bytes written.
    pub bytes_written: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Compaction passes that merged segments.
    pub compactions: u64,
    /// Records dropped by compaction.
    pub compacted_records: u64,
    /// Appends that failed (injected or real I/O).
    pub dropped: u64,
}

/// What replaying the on-disk log produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every decodable record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded from the torn tail (0 on a clean log).
    pub torn_bytes: u64,
    /// Segment files read.
    pub segments: usize,
    /// Wall time spent reading and decoding, microseconds.
    pub replay_us: u64,
    /// Human-readable warnings (torn-tail truncation, ignored segments).
    pub warnings: Vec<String>,
}

/// The append-only journal writer. Obtain one (plus the replay of whatever
/// a previous life left behind) from [`Journal::open`].
#[derive(Debug)]
pub struct Journal {
    cfg: JournalConfig,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    appends_total: u64,
    since_sync: u32,
    poisoned: bool,
    compaction_due: bool,
    stats: JournalStats,
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.xgj"))
}

/// Segment files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".xgj")) {
            if let Ok(i) = idx.parse::<u64>() {
                out.push((i, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Read one segment file: decodable records plus the byte offset of the
/// first bad frame (None when the whole file framed cleanly).
fn read_segment(path: &Path) -> std::io::Result<(Vec<JournalRecord>, Option<u64>, Vec<String>)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        if off + 8 > buf.len() {
            warnings.push(format!("torn frame header at byte {off}"));
            return Ok((records, Some(off as u64), warnings));
        }
        let len =
            u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked")) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("bounds checked"));
        if off + 8 + len > buf.len() {
            warnings.push(format!(
                "torn frame at byte {off}: header promises {len} bytes, {} remain",
                buf.len() - off - 8
            ));
            return Ok((records, Some(off as u64), warnings));
        }
        let payload = &buf[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            warnings.push(format!("CRC mismatch at byte {off}"));
            return Ok((records, Some(off as u64), warnings));
        }
        match JournalRecord::decode(payload) {
            Ok(r) => records.push(r),
            Err(e) => {
                warnings.push(format!("undecodable record at byte {off}: {e}"));
                return Ok((records, Some(off as u64), warnings));
            }
        }
        off += 8 + len;
    }
    Ok((records, None, warnings))
}

impl Journal {
    /// Open (or create) the journal in `cfg.dir`, replaying whatever is
    /// there. A torn tail is truncated back to the last good frame —
    /// reported in [`Replay::warnings`], never an error. Appends continue
    /// into a fresh segment after the highest existing index.
    pub fn open(cfg: JournalConfig) -> std::io::Result<(Journal, Replay)> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&cfg.dir)?;
        let segments = list_segments(&cfg.dir)?;
        let mut replay = Replay { segments: segments.len(), ..Replay::default() };
        let mut truncated = false;
        for (si, (index, path)) in segments.iter().enumerate() {
            if truncated {
                // A torn frame in a non-final segment ends the decodable
                // log: later segments were written after the corruption and
                // cannot be ordered against it. (In practice tearing only
                // happens at the true tail.)
                replay
                    .warnings
                    .push(format!("segment seg-{index:06}.xgj ignored (follows a torn frame)"));
                continue;
            }
            let (records, bad_at, mut warnings) = read_segment(path)?;
            replay.records.extend(records);
            replay.warnings.append(&mut warnings);
            if let Some(at) = bad_at {
                let total = std::fs::metadata(path)?.len();
                replay.torn_bytes += total - at;
                // Truncate back to the last good frame so the next append
                // starts cleanly framed.
                OpenOptions::new().write(true).open(path)?.set_len(at)?;
                truncated = true;
                if si + 1 < segments.len() {
                    continue; // warn about the rest, handled above
                }
            }
        }
        let next_index = segments.last().map(|(i, _)| i + 1).unwrap_or(0);
        let path = seg_path(&cfg.dir, next_index);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        replay.replay_us = t0.elapsed().as_micros() as u64;
        let journal = Journal {
            cfg,
            file,
            seg_index: next_index,
            seg_bytes: 0,
            appends_total: 0,
            since_sync: 0,
            poisoned: false,
            compaction_due: false,
            stats: JournalStats::default(),
        };
        Ok((journal, replay))
    }

    /// Counters so far.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Whether a torn write or crash point has ended this journal.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append one record, framed and CRC'd, fsyncing per the configured
    /// cadence. Returns [`JournalError::Backpressure`] on an injected clean
    /// write failure (callers shed load), [`JournalError::Poisoned`] after
    /// a torn write/crash point, [`JournalError::Io`] on real I/O errors.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        if self.poisoned {
            self.stats.dropped += 1;
            return Err(JournalError::Poisoned);
        }
        let this_append = self.appends_total;
        self.appends_total += 1;
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Some(kind) = self.cfg.fault_plan.as_ref().and_then(|p| p.fire(this_append)) {
            match kind.clone() {
                ServeFaultKind::WriteError => {
                    self.stats.dropped += 1;
                    return Err(JournalError::Backpressure(format!(
                        "injected write error at append {this_append}"
                    )));
                }
                ServeFaultKind::TornWrite { keep_bytes } => {
                    let keep = keep_bytes.min(frame.len().saturating_sub(1));
                    let _ = self.file.write_all(&frame[..keep]);
                    let _ = self.file.sync_data();
                    self.poisoned = true;
                    self.stats.dropped += 1;
                    return Err(JournalError::Poisoned);
                }
                ServeFaultKind::Crash => {
                    self.poisoned = true;
                    self.stats.dropped += 1;
                    return Err(JournalError::Poisoned);
                }
            }
        }
        if let Err(e) = self.file.write_all(&frame) {
            // A partial write may have torn the tail; refuse further
            // appends rather than interleave frames with garbage.
            self.poisoned = true;
            self.stats.dropped += 1;
            return Err(JournalError::Io(e.to_string()));
        }
        self.seg_bytes += frame.len() as u64;
        self.stats.appends += 1;
        self.stats.bytes_written += frame.len() as u64;
        self.since_sync += 1;
        if self.cfg.fsync_every > 0 && self.since_sync >= self.cfg.fsync_every {
            self.sync().map_err(|e| JournalError::Io(e.to_string()))?;
        }
        if self.seg_bytes >= self.cfg.segment_max_bytes {
            self.rotate().map_err(|e| JournalError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// fsync the current segment (also called automatically per the
    /// `fsync_every` cadence and on rotation).
    pub fn sync(&mut self) -> std::io::Result<()> {
        let t0 = Instant::now();
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.since_sync = 0;
        xg_obs::record_journal_fsync(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Close the current segment and open the next; the closed ones are
    /// now due for compaction.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        self.seg_index += 1;
        let path = seg_path(&self.cfg.dir, self.seg_index);
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.seg_bytes = 0;
        self.stats.rotations += 1;
        self.compaction_due = true;
        Ok(())
    }

    /// If a rotation has closed a segment since the last call, merge every
    /// closed segment into one, keeping the records `keep` accepts and
    /// writing `head` first (otherwise do nothing — it is cheap to call
    /// after every append). `head` is how the owner carries
    /// state across the records it lets go (the server's id watermark); a
    /// log opens with an admission, so a leading `Batched` in the input is
    /// the head an earlier pass wrote and is superseded by this one.
    ///
    /// Call it only once the owner's state reflects every appended record:
    /// the record that triggered the rotation sits in a closed segment.
    pub fn compact(
        &mut self,
        mut keep: impl FnMut(&JournalRecord) -> bool,
        head: Option<JournalRecord>,
    ) -> std::io::Result<()> {
        if !std::mem::take(&mut self.compaction_due) {
            return Ok(());
        }
        let closed: Vec<(u64, PathBuf)> = list_segments(&self.cfg.dir)?
            .into_iter()
            .filter(|(i, _)| *i < self.seg_index)
            .collect();
        if closed.len() < 2 {
            return Ok(()); // nothing to merge
        }
        let mut records = Vec::new();
        for (_, path) in &closed {
            let (recs, bad, _) = read_segment(path)?;
            records.extend(recs);
            if bad.is_some() {
                // Should be unreachable (closed segments were written whole
                // by this process); leave the log alone rather than compact
                // around corruption.
                return Ok(());
            }
        }
        let stale_head = matches!(records.first(), Some(JournalRecord::Batched { .. }));
        let kept: Vec<&JournalRecord> =
            records.iter().skip(usize::from(stale_head)).filter(|r| keep(r)).collect();
        // Write the merged segment under the first closed index via a temp
        // file + rename, and only then delete the segments it replaces: a
        // crash mid-compaction leaves the old segments, or the merged one
        // plus stale copies whose records replay as duplicates — never a
        // gap.
        let merged_index = closed[0].0;
        let merged_path = seg_path(&self.cfg.dir, merged_index);
        let tmp_path = self.cfg.dir.join(format!("seg-{merged_index:06}.xgj.tmp"));
        {
            let mut tmp = File::create(&tmp_path)?;
            for r in head.iter().chain(kept.iter().copied()) {
                let payload = r.encode();
                tmp.write_all(&(payload.len() as u32).to_le_bytes())?;
                tmp.write_all(&crc32(&payload).to_le_bytes())?;
                tmp.write_all(&payload)?;
            }
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &merged_path)?;
        for (_, path) in closed.iter().skip(1) {
            std::fs::remove_file(path)?;
        }
        self.stats.compacted_records += (records.len() - kept.len()) as u64;
        self.stats.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::JobTable;
    use proptest::prelude::*;
    use std::time::Duration;
    use xg_sim::CgyroInput;

    /// A fresh table with `records` applied the way a restart applies them
    /// (with a stand-in deck: the sample records carry toy deck text). Every
    /// ledger must agree with the job map after every record — so each use
    /// checks every prefix of its log.
    pub(crate) fn replayed(records: Vec<JournalRecord>) -> JobTable {
        let mut table = JobTable::default();
        for rec in records {
            let _ = table.apply(rec, Some(CgyroInput::test_small()));
            assert_eq!(table.check(), Ok(()));
        }
        table
    }

    /// What the server does with every record — append, apply, sweep the
    /// retention window (`retain_jobs`), compact once a rotation leaves
    /// segments to merge.
    fn commit(j: &mut Journal, table: &mut JobTable, rec: JournalRecord, retain_jobs: usize) {
        j.append(&rec).unwrap();
        let _ = table.apply(rec, Some(CgyroInput::test_small()));
        table.evict(retain_jobs, Duration::MAX, Instant::now());
        j.compact(|r| table.retains(r), table.watermark()).unwrap();
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xg-journal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                job: JobId(0),
                token: "tok-a".into(),
                deck_hash: fnv1a(b"deck-a"),
                deck: "N_RADIAL=4\n".into(),
                steps: 20,
                tag: "a".into(),
                submitted_unix_us: 1_700_000_000_000_000,
                tenant: "alice".into(),
            },
            JournalRecord::Batched { job: JobId(0), batch: BatchId(0) },
            JournalRecord::Submitted {
                job: JobId(1),
                token: String::new(),
                deck_hash: fnv1a(b"deck-b"),
                deck: "N_RADIAL=8\n".into(),
                steps: 20,
                tag: "b".into(),
                submitted_unix_us: 1_700_000_000_500_000,
                tenant: crate::tenant::DEFAULT_TENANT.into(),
            },
            JournalRecord::Batched { job: JobId(1), batch: BatchId(0) },
            JournalRecord::Running { batch: BatchId(0), jobs: vec![JobId(0), JobId(1)] },
            JournalRecord::Checkpoint {
                batch: BatchId(0),
                jobs: vec![JobId(0), JobId(1)],
                seq: 0,
                done_steps: 10,
                state: vec![1, 2, 3, 4],
            },
            JournalRecord::Done {
                job: JobId(0),
                steps: 20,
                h_hash: 0xdead_beef,
                diag_bits: [1, 2, 3, 4],
            },
            JournalRecord::Failed { job: JobId(1), detail: "evicted".into() },
        ]
    }

    pub(crate) fn sample_cache_hit() -> JournalRecord {
        JournalRecord::CacheHit {
            job: JobId(7),
            token: "tok-hit".into(),
            deck_hash: fnv1a(b"deck-a"),
            deck: "N_RADIAL=4\n".into(),
            steps: 20,
            tag: "warm".into(),
            submitted_unix_us: 1_700_000_001_000_000,
            steps_done: 20,
            h_hash: 0xfeed_beef,
            diag_bits: [5, 6, 7, 8],
            tenant: "alice".into(),
        }
    }

    #[test]
    fn crc32_matches_the_standard_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(JournalRecord::decode(&enc).expect("decodes"), rec);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(JournalRecord::decode(&[]).is_err());
        assert!(JournalRecord::decode(&[99]).is_err(), "unknown tag");
        let mut enc = JournalRecord::Batched { job: JobId(1), batch: BatchId(2) }.encode();
        enc.push(0); // trailing garbage
        assert!(JournalRecord::decode(&enc).is_err());
        enc.truncate(5); // short buffer
        assert!(JournalRecord::decode(&enc).is_err());
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let dir = tmpdir("roundtrip");
        let recs = sample_records();
        {
            let (mut j, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
            assert!(replay.records.is_empty());
            for r in &recs {
                j.append(r).unwrap();
            }
            assert_eq!(j.stats().appends, recs.len() as u64);
            assert_eq!(j.stats().fsyncs, recs.len() as u64, "fsync_every=1");
        }
        let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_with_a_warning_and_appends_continue() {
        let dir = tmpdir("torn");
        {
            let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).unwrap();
            for r in &sample_records()[..3] {
                j.append(r).unwrap();
            }
        }
        // Tear the tail by hand: append half a frame to the last segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x44, 0x33, 0x22, 0x11, 0xaa]).unwrap();
        drop(f);
        let before = std::fs::metadata(&path).unwrap().len();
        let (mut j, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records.len(), 3, "good prefix survives");
        assert_eq!(replay.torn_bytes, 5);
        assert!(replay.warnings.iter().any(|w| w.contains("torn")), "{:?}", replay.warnings);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before - 5, "tail truncated");
        // The journal is alive: more appends land and replay cleanly.
        j.append(&sample_records()[3]).unwrap();
        drop(j);
        let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_mismatch_ends_the_log_at_the_bad_frame() {
        let dir = tmpdir("crc");
        {
            let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).unwrap();
            for r in sample_records().iter().take(4) {
                j.append(r).unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        // Flip one payload byte of the second frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len =
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + 8;
        bytes[first_len + 10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records.len(), 1, "only the frame before the corruption");
        assert!(replay.torn_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_compacts_terminal_jobs_away() {
        for retain_jobs in [0, usize::MAX] {
            let dir = tmpdir("compact");
            let mut cfg = JournalConfig::durable(&dir);
            cfg.segment_max_bytes = 256; // rotate every few records
            let (mut j, _) = Journal::open(cfg.clone()).unwrap();
            let mut live = JobTable::default();
            // Jobs 0 and 1 terminalize, job 7 is a cache hit (born
            // terminal); job 100 stays live. Pad decks so segments fill and
            // several rotations (hence compactions) happen.
            let pad = "X_PAD=1\n".repeat(8);
            for r in sample_records().into_iter().chain([sample_cache_hit()]) {
                commit(&mut j, &mut live, r, retain_jobs);
            }
            let rec = JournalRecord::Submitted {
                job: JobId(100),
                token: "live".into(),
                deck_hash: fnv1a(pad.as_bytes()),
                deck: pad.clone(),
                steps: 20,
                tag: "live".into(),
                tenant: crate::tenant::DEFAULT_TENANT.into(),
                submitted_unix_us: 1,
            };
            commit(&mut j, &mut live, rec, retain_jobs);
            for i in 0..6u64 {
                let rec = JournalRecord::Batched { job: JobId(100), batch: BatchId(i + 1) };
                commit(&mut j, &mut live, rec, retain_jobs);
            }
            assert!(j.stats().rotations > 0, "segments must have rotated");
            assert!(j.stats().compactions > 0, "closed segments must have compacted");
            assert!(j.stats().compacted_records > 0);
            drop(j);
            let (_, replay) = Journal::open(cfg).unwrap();
            let table = replayed(replay.records);
            assert!(table.job(JobId(100)).is_some());
            if retain_jobs == 0 {
                // Evicted jobs 0 and 1 were compacted away; the live job
                // remains.
                assert!(table.job(JobId(0)).is_none(), "Done job compacted");
                assert!(table.job(JobId(1)).is_none(), "Failed job compacted");
                assert!(table.job(JobId(7)).is_none(), "terminal hit compacted away");
            } else {
                // Inside the window they replay as they ended — only their
                // batch's checkpoint is gone.
                assert_eq!(table.job(JobId(0)).unwrap().summary, Some((20, 0xdead_beef, [1, 2, 3, 4])));
                assert_eq!(table.job(JobId(1)).unwrap().detail, "evicted");
                assert_eq!(table.job(JobId(7)).unwrap().summary, Some((20, 0xfeed_beef, [5, 6, 7, 8])));
            }
            // Either way no id is ever handed out twice.
            assert_eq!(table.next_job_id(), JobId(101));
            assert_eq!(table.next_batch(), 7);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn injected_write_error_is_backpressure_not_poison() {
        let dir = tmpdir("write-error");
        let mut cfg = JournalConfig::durable(&dir);
        cfg.fault_plan = Some(ServeFaultPlan::write_error(1));
        let (mut j, _) = Journal::open(cfg).unwrap();
        let recs = sample_records();
        j.append(&recs[0]).unwrap();
        let err = j.append(&recs[1]).unwrap_err();
        assert!(matches!(err, JournalError::Backpressure(_)), "{err}");
        assert!(!j.is_poisoned());
        j.append(&recs[1]).unwrap(); // retried append (new index) lands
        assert_eq!(j.stats().dropped, 1);
        drop(j);
        let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_fault_poisons_and_replay_recovers_the_prefix() {
        let dir = tmpdir("torn-fault");
        let mut cfg = JournalConfig::durable(&dir);
        cfg.fault_plan = Some(ServeFaultPlan::torn_write(2, 7));
        let (mut j, _) = Journal::open(cfg).unwrap();
        let recs = sample_records();
        j.append(&recs[0]).unwrap();
        j.append(&recs[1]).unwrap();
        assert_eq!(j.append(&recs[2]).unwrap_err(), JournalError::Poisoned);
        assert!(j.is_poisoned());
        assert_eq!(j.append(&recs[3]).unwrap_err(), JournalError::Poisoned);
        drop(j);
        // The next life sees the clean prefix; the 7 torn bytes are dropped.
        let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        assert_eq!(replay.records, recs[..2].to_vec());
        assert_eq!(replay.torn_bytes, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_and_splitmix_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        let mut s = 42;
        let a = splitmix64(&mut s);
        let mut s2 = 42;
        assert_eq!(a, splitmix64(&mut s2), "deterministic");
    }

    /// Strategy: short journal-ish text (tokens, deck lines, details).
    fn arb_text() -> impl Strategy<Value = String> {
        const CHARS: &[u8] = b"abcXYZ019=_.\n ";
        prop::collection::vec(0usize..CHARS.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i] as char).collect())
    }

    /// Strategy: an arbitrary (valid) record.
    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        arb_record_in(u64::MAX, u64::MAX)
    }

    /// Strategy: an arbitrary record naming job ids below `jobs` and batch
    /// ids below `batches` — small bounds make records collide on the same
    /// jobs, which is what exercises the lifecycle.
    pub(crate) fn arb_record_in(jobs: u64, batches: u64) -> impl Strategy<Value = JournalRecord> {
        let members = move || prop::collection::vec(0..jobs, 0..5);
        prop_oneof![
            (0..jobs, arb_text(), 0u64.., arb_text(), 0u64.., (arb_text(), arb_text()), 0u64..)
                .prop_map(|(job, token, deck_hash, deck, steps, (tag, tenant), t)| {
                    JournalRecord::Submitted {
                        job: JobId(job),
                        token,
                        deck_hash,
                        deck,
                        steps,
                        tag,
                        tenant,
                        submitted_unix_us: t,
                    }
                }),
            (0..jobs, 0..batches).prop_map(|(j, b)| JournalRecord::Batched {
                job: JobId(j),
                batch: BatchId(b),
            }),
            (0..batches, members()).prop_map(|(b, js)| JournalRecord::Running {
                batch: BatchId(b),
                jobs: js.into_iter().map(JobId).collect(),
            }),
            (0..batches, members(), 0u64.., 0u64.., prop::collection::vec(0u8.., 0..64)).prop_map(
                |(b, js, seq, done, state)| JournalRecord::Checkpoint {
                    batch: BatchId(b),
                    jobs: js.into_iter().map(JobId).collect(),
                    seq,
                    done_steps: done,
                    state,
                }
            ),
            (0..jobs, 0u64.., 0u64.., (0u64.., 0u64.., 0u64.., 0u64..)).prop_map(
                |(j, steps, h, (d0, d1, d2, d3))| JournalRecord::Done {
                    job: JobId(j),
                    steps,
                    h_hash: h,
                    diag_bits: [d0, d1, d2, d3],
                }
            ),
            (0..jobs, arb_text()).prop_map(|(j, d)| JournalRecord::Failed {
                job: JobId(j),
                detail: d,
            }),
            (0..jobs, arb_text()).prop_map(|(j, d)| JournalRecord::Cancelled {
                job: JobId(j),
                detail: d,
            }),
        ]
    }

    proptest! {
        /// Every record survives encode → decode bytewise.
        #[test]
        fn any_record_roundtrips(rec in arb_record()) {
            let enc = rec.encode();
            prop_assert_eq!(JournalRecord::decode(&enc).expect("decodes"), rec);
        }

        /// Any byte-prefix of a valid journal replays to a consistent job
        /// table: the decodable frames are exactly the whole frames inside
        /// the prefix, the torn tail is dropped (never a crash), and the
        /// job table never reaches an illegal state.
        #[test]
        fn any_truncation_replays_consistently(
            recs in prop::collection::vec(arb_record_in(6, 3), 1..24),
            cut_frac in 0.0f64..1.0,
        ) {
            let dir = tmpdir(&format!("prop-{}", fnv1a(format!("{recs:?}{cut_frac}").as_bytes())));
            {
                let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).unwrap();
                for r in &recs {
                    j.append(r).unwrap();
                }
            }
            let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
            let full = std::fs::metadata(&path).unwrap().len();
            let cut = (full as f64 * cut_frac) as u64;
            OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();
            let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
            // The replayed records are a prefix of what was written.
            prop_assert!(replay.records.len() <= recs.len());
            prop_assert_eq!(&replay.records[..], &recs[..replay.records.len()]);
            // And every prefix of them leaves a consistent table: each
            // job's state reachable, running batches only naming live
            // members, every ledger agreeing with the job map (`replayed`
            // checks after each record).
            replayed(replay.records);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
