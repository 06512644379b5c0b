//! Memory-sharing arithmetic and trace summaries for ensemble runs.

use crate::ensemble::EnsembleConfig;
use xg_comm::{OpKind, OpRecord};
use xg_sim::cmat_total_bytes;

/// The cmat memory law of the paper, evaluated analytically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmatMemoryLaw {
    /// Bytes of the full (per-simulation) constant tensor.
    pub total_bytes: u64,
    /// Per-rank bytes in CGYRO mode (split over `n1·n2` ranks).
    pub cgyro_per_rank: u64,
    /// Per-rank bytes in XGYRO mode (split over `k·n1·n2` ranks).
    pub xgyro_per_rank: u64,
    /// Ensemble size.
    pub k: usize,
}

/// Evaluate the law for an ensemble configuration.
///
/// In CGYRO each of the `k` simulations holds its own full copy split over
/// its `n1` ranks (per toroidal slice); in XGYRO one copy is split over all
/// `k·n1` ranks — per-rank consumption drops by exactly `k`.
pub fn cmat_memory_law(config: &EnsembleConfig) -> CmatMemoryLaw {
    let total = cmat_total_bytes(&config.members()[0]);
    let per_sim_ranks = config.ranks_per_sim() as u64;
    CmatMemoryLaw {
        total_bytes: total,
        cgyro_per_rank: total / per_sim_ranks,
        xgyro_per_rank: total / (per_sim_ranks * config.k() as u64),
        k: config.k(),
    }
}

/// Summary of one rank's trace: AllReduce participant counts and byte
/// volumes per phase, and which communicator labels appeared where.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// (phase, op, comm label) → (count, total bytes, participants).
    pub rows: Vec<TraceRow>,
}

/// One aggregated trace row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Logical phase.
    pub phase: String,
    /// Operation kind.
    pub op: OpKind,
    /// Communicator label.
    pub comm_label: String,
    /// Participant count.
    pub participants: usize,
    /// Number of operations.
    pub count: usize,
    /// Total bytes.
    pub bytes: u64,
    /// Total measured wait microseconds (0 when the trace was captured
    /// with timing off).
    pub elapsed_us: u64,
}

/// Aggregate a per-rank trace.
pub fn summarize_trace(records: &[OpRecord]) -> TraceSummary {
    let mut rows: Vec<TraceRow> = Vec::new();
    for r in records {
        if let Some(row) = rows.iter_mut().find(|w| {
            w.phase == r.phase
                && w.op == r.op
                && w.comm_label == r.comm_label
                && w.participants == r.participants
        }) {
            row.count += 1;
            row.bytes += r.bytes;
            row.elapsed_us += r.elapsed_us;
        } else {
            rows.push(TraceRow {
                phase: r.phase.clone(),
                op: r.op,
                comm_label: r.comm_label.clone(),
                participants: r.participants,
                count: 1,
                bytes: r.bytes,
                elapsed_us: r.elapsed_us,
            });
        }
    }
    rows.sort_by(|a, b| {
        (&a.phase, format!("{}", a.op), &a.comm_label)
            .cmp(&(&b.phase, format!("{}", b.op), &b.comm_label))
    });
    TraceSummary { rows }
}

impl TraceSummary {
    /// Find the str-phase AllReduce row (the paper's headline metric).
    pub fn str_allreduce(&self) -> Option<&TraceRow> {
        self.rows
            .iter()
            .find(|r| r.phase == "str" && r.op == OpKind::AllReduce)
    }

    /// Find the coll-phase AllToAll row.
    pub fn coll_alltoall(&self) -> Option<&TraceRow> {
        self.rows
            .iter()
            .find(|r| r.phase == "coll" && r.op == OpKind::AllToAll)
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "phase   op         comm       parts  count      bytes   wait(ms)\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<7} {:<10} {:<10} {:>5} {:>6} {:>10} {:>10.3}\n",
                r.phase,
                r.op.to_string(),
                r.comm_label,
                r.participants,
                r.count,
                r.bytes,
                r.elapsed_us as f64 / 1000.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::gradient_sweep;
    use xg_sim::CgyroInput;
    use xg_tensor::ProcGrid;

    #[test]
    fn memory_law_divides_by_k() {
        let cfg = gradient_sweep(&CgyroInput::test_small(), 4, ProcGrid::new(2, 2));
        let law = cmat_memory_law(&cfg);
        assert_eq!(law.cgyro_per_rank, law.total_bytes / 4);
        assert_eq!(law.xgyro_per_rank, law.total_bytes / 16);
        assert_eq!(law.cgyro_per_rank, law.xgyro_per_rank * 4);
    }

    #[test]
    fn trace_summary_aggregates() {
        let recs = vec![
            OpRecord {
                op: OpKind::AllReduce,
                comm_label: "nv".into(),
                participants: 4,
                members: vec![0, 1, 2, 3],
                bytes: 100,
                phase: "str".into(),
                elapsed_us: 30,
            },
            OpRecord {
                op: OpKind::AllReduce,
                comm_label: "nv".into(),
                participants: 4,
                members: vec![0, 1, 2, 3],
                bytes: 100,
                phase: "str".into(),
                elapsed_us: 50,
            },
            OpRecord {
                op: OpKind::AllToAll,
                comm_label: "coll-ens".into(),
                participants: 8,
                members: (0..8).collect(),
                bytes: 999,
                phase: "coll".into(),
                elapsed_us: 200,
            },
        ];
        let s = summarize_trace(&recs);
        assert_eq!(s.rows.len(), 2);
        let ar = s.str_allreduce().unwrap();
        assert_eq!((ar.count, ar.bytes, ar.participants), (2, 200, 4));
        assert_eq!(ar.elapsed_us, 80);
        let a2a = s.coll_alltoall().unwrap();
        assert_eq!(a2a.comm_label, "coll-ens");
        let table = s.to_table();
        assert!(table.contains("coll-ens"));
        assert!(table.contains("AllReduce"));
        assert!(table.contains("wait(ms)"));
    }
}
