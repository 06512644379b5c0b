//! Per-rank communication traffic accounting.
//!
//! Every collective appends an [`OpRecord`] to the issuing rank's
//! [`TrafficLog`]. The log serves two purposes:
//!
//! 1. **Comm-pattern traces** (paper Figures 1 and 3): which logical
//!    communicator executed which operation with how many participants —
//!    including CGYRO's reuse of the `nv` communicator for both the str
//!    AllReduce and the str↔coll AllToAll, and XGYRO's separation of the
//!    two.
//! 2. **Cost-model input**: participants and byte counts per operation are
//!    exactly what the analytic collective cost formulas consume.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Kind of communication operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Reduction to all ranks (sum).
    AllReduce,
    /// Personalized all-to-all exchange.
    AllToAll,
    /// Gather to all ranks.
    AllGather,
    /// One-to-all broadcast. `xg-comm` emits none; kept because a stored
    /// trace may contain it.
    Broadcast,
    /// Synchronization only.
    Barrier,
    /// Point-to-point send. `xg-comm` emits none; kept for stored traces.
    Send,
    /// Point-to-point receive. `xg-comm` emits none; kept for stored traces.
    Recv,
    /// An injected or observed fault event (crash, stall, delay). `bytes`
    /// carries the downtime in microseconds; `members` holds the affected
    /// rank(s).
    Fault,
    /// A recovery event (checkpoint rollback + degraded-mode restart).
    /// `bytes` carries the recovery cost in microseconds; `members` holds
    /// the surviving ranks.
    Recover,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::AllReduce => "AllReduce",
            OpKind::AllToAll => "AllToAll",
            OpKind::AllGather => "AllGather",
            OpKind::Broadcast => "Broadcast",
            OpKind::Barrier => "Barrier",
            OpKind::Send => "Send",
            OpKind::Recv => "Recv",
            OpKind::Fault => "Fault",
            OpKind::Recover => "Recover",
        };
        f.write_str(s)
    }
}

/// One recorded communication operation, as seen by one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Operation kind.
    pub op: OpKind,
    /// Label of the communicator the operation ran on (e.g. `"nv"`,
    /// `"coll-ens"`).
    pub comm_label: String,
    /// Number of participating ranks.
    pub participants: usize,
    /// Global ranks of the participants (communicator-rank order); used by
    /// the cost model to determine node spans.
    pub members: Vec<usize>,
    /// Payload bytes contributed by this rank (per-rank message size for
    /// AllReduce/Broadcast; total bytes sent for AllToAll/AllGather/Send).
    pub bytes: u64,
    /// Logical phase active when the operation was issued (`"str"`,
    /// `"coll"`, `"nl"`, `"setup"`, …).
    pub phase: String,
    /// Wall time this rank spent blocked in the operation, microseconds.
    /// Zero when timing was disabled (`XGYRO_OBS=0`) or the operation
    /// never completed — consumers (xgreplay's time-weighted summary)
    /// treat 0 as "untimed", not "instant".
    pub elapsed_us: u64,
}

/// Append-only per-rank traffic log with a settable phase context.
#[derive(Debug, Default)]
pub struct TrafficLog {
    inner: Mutex<LogInner>,
    /// Bytes of communication-buffer capacity drained (cleared and handed
    /// back for reuse) instead of freed and reallocated — the steady-state
    /// allocation savings of persistent send/recv buffers.
    drained_capacity: AtomicU64,
    /// Fused str-phase reductions issued: collective calls that carried
    /// several moments in one buffer.
    fused_reduce_calls: AtomicU64,
    /// Total moments carried by those fused calls (calls saved =
    /// `fused_reduce_moments − fused_reduce_calls`).
    fused_reduce_moments: AtomicU64,
    /// Payload bytes moved by fused reductions.
    fused_reduce_bytes: AtomicU64,
    /// Unfused (one-moment) reduction calls issued.
    unfused_reduce_calls: AtomicU64,
    /// Payload bytes moved by unfused reductions.
    unfused_reduce_bytes: AtomicU64,
}

#[derive(Debug, Default)]
struct LogInner {
    phase: String,
    records: Vec<OpRecord>,
}

impl TrafficLog {
    /// Fresh empty log (phase = empty string).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Set the phase tag applied to subsequently recorded operations.
    pub fn set_phase(&self, phase: &str) {
        self.inner.lock().phase = phase.to_string();
    }

    /// Current phase tag.
    pub fn phase(&self) -> String {
        self.inner.lock().phase.clone()
    }

    /// Record an operation over the communicator whose global members are
    /// `members`. Returns the record's index so the caller can patch in
    /// the measured wait time afterwards ([`TrafficLog::set_elapsed`]).
    pub fn record(&self, op: OpKind, comm_label: &str, members: &[usize], bytes: u64) -> usize {
        let mut g = self.inner.lock();
        let phase = g.phase.clone();
        g.records.push(OpRecord {
            op,
            comm_label: comm_label.to_string(),
            participants: members.len(),
            members: members.to_vec(),
            bytes,
            phase,
            elapsed_us: 0,
        });
        g.records.len() - 1
    }

    /// Patch the measured wait time into the record at `idx` (as returned
    /// by [`TrafficLog::record`]) and feed the process-wide obs registry's
    /// comm-wait histogram under the record's phase. A stale index (the
    /// log was cleared in between) is ignored.
    pub fn set_elapsed(&self, idx: usize, us: u64) {
        let mut g = self.inner.lock();
        if let Some(r) = g.records.get_mut(idx) {
            r.elapsed_us = us;
            xg_obs::record_comm_wait(&r.phase, us);
        }
    }

    /// Snapshot of all records so far.
    pub fn records(&self) -> Vec<OpRecord> {
        self.inner.lock().records.clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all records (phase is kept).
    pub fn clear(&self) {
        self.inner.lock().records.clear();
    }

    /// Account `bytes` of buffer capacity as drained-and-reused rather
    /// than freed: called by steady-state paths that recycle persistent
    /// send/recv blocks between transposes or steps.
    pub fn note_drained_capacity(&self, bytes: u64) {
        self.drained_capacity.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total bytes of buffer capacity recycled so far (see
    /// [`TrafficLog::note_drained_capacity`]).
    pub fn drained_capacity_bytes(&self) -> u64 {
        self.drained_capacity.load(Ordering::Relaxed)
    }

    /// Account one fused reduction: a single collective call carrying
    /// `moments` logical moments in `bytes` of payload. The op itself is
    /// recorded normally via [`TrafficLog::record`]; this counter makes the
    /// fusion saving (`moments − 1` elided latency terms per call)
    /// observable in traces and `xgreplay`.
    pub fn note_fused_reduction(&self, moments: u64, bytes: u64) {
        self.fused_reduce_calls.fetch_add(1, Ordering::Relaxed);
        self.fused_reduce_moments.fetch_add(moments, Ordering::Relaxed);
        self.fused_reduce_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account one unfused (single-moment) reduction of `bytes` payload.
    pub fn note_unfused_reduction(&self, bytes: u64) {
        self.unfused_reduce_calls.fetch_add(1, Ordering::Relaxed);
        self.unfused_reduce_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// `(calls, moments, bytes)` of fused reductions so far.
    pub fn fused_reduction_stats(&self) -> (u64, u64, u64) {
        (
            self.fused_reduce_calls.load(Ordering::Relaxed),
            self.fused_reduce_moments.load(Ordering::Relaxed),
            self.fused_reduce_bytes.load(Ordering::Relaxed),
        )
    }

    /// `(calls, bytes)` of unfused reductions so far.
    pub fn unfused_reduction_stats(&self) -> (u64, u64) {
        (
            self.unfused_reduce_calls.load(Ordering::Relaxed),
            self.unfused_reduce_bytes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let log = TrafficLog::new();
        assert!(log.is_empty());
        log.set_phase("str");
        log.record(OpKind::AllReduce, "nv", &[0,1,2,3,4,5,6,7], 1024);
        log.set_phase("coll");
        log.record(OpKind::AllToAll, "nv", &[0,1,2,3,4,5,6,7], 4096);
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].phase, "str");
        assert_eq!(recs[0].participants, 8);
        assert_eq!(recs[1].op, OpKind::AllToAll);
        assert_eq!(recs[1].phase, "coll");
    }

    #[test]
    fn clear_keeps_phase() {
        let log = TrafficLog::new();
        log.set_phase("nl");
        log.record(OpKind::Barrier, "world", &[0,1], 0);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.phase(), "nl");
    }

    #[test]
    fn drained_capacity_accumulates() {
        let log = TrafficLog::new();
        assert_eq!(log.drained_capacity_bytes(), 0);
        log.note_drained_capacity(1024);
        log.note_drained_capacity(512);
        assert_eq!(log.drained_capacity_bytes(), 1536);
        // Clearing op records does not reset the recycling counter.
        log.clear();
        assert_eq!(log.drained_capacity_bytes(), 1536);
    }

    #[test]
    fn fused_counters_accumulate_independently() {
        let log = TrafficLog::new();
        assert_eq!(log.fused_reduction_stats(), (0, 0, 0));
        log.note_fused_reduction(3, 3000);
        log.note_fused_reduction(2, 2000);
        log.note_unfused_reduction(500);
        assert_eq!(log.fused_reduction_stats(), (2, 5, 5000));
        assert_eq!(log.unfused_reduction_stats(), (1, 500));
        // Clearing op records leaves the fusion accounting intact.
        log.clear();
        assert_eq!(log.fused_reduction_stats(), (2, 5, 5000));
    }

    #[test]
    fn opkind_display() {
        assert_eq!(OpKind::AllReduce.to_string(), "AllReduce");
        assert_eq!(OpKind::Barrier.to_string(), "Barrier");
    }
}
