//! Fold recorded communication traces into modeled time per phase.
//!
//! A functional run over `xg-comm` leaves each rank with a `TrafficLog`;
//! this module prices every record with the collective cost formulas under
//! a chosen [`MachineModel`] and [`Placement`], and aggregates by phase —
//! producing the same phase breakdown for small functional runs that the
//! symbolic performance pipeline produces at paper scale.

use crate::collective::{
    allgather_time, allreduce_time, alltoall_time, barrier_time, broadcast_time, CollectiveShape,
};
use crate::machine::{MachineModel, Placement};
use std::collections::BTreeMap;
use xg_comm::{OpKind, OpRecord};

/// Seconds attributed to `(phase, op kind)` buckets, plus totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    buckets: BTreeMap<(String, String), f64>,
}

impl PhaseBreakdown {
    /// Empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to the `(phase, category)` bucket.
    pub fn add(&mut self, phase: &str, category: &str, seconds: f64) {
        *self.buckets.entry((phase.to_string(), category.to_string())).or_insert(0.0) += seconds;
    }

    /// Seconds in one `(phase, category)` bucket.
    pub fn get(&self, phase: &str, category: &str) -> f64 {
        self.buckets
            .get(&(phase.to_string(), category.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total seconds over everything.
    pub fn total(&self) -> f64 {
        self.buckets.values().sum()
    }

    /// Iterate `(phase, category) -> seconds` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.buckets.iter().map(|((p, c), v)| (p.as_str(), c.as_str(), *v))
    }

    /// Merge another breakdown into this one (summing buckets).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for ((p, c), v) in &other.buckets {
            *self.buckets.entry((p.clone(), c.clone())).or_insert(0.0) += v;
        }
    }

    /// Scale every bucket by `factor` (e.g. timesteps per reporting step).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        let mut out = self.clone();
        for v in out.buckets.values_mut() {
            *v *= factor;
        }
        out
    }
}

/// Price one communication record under the model (seconds).
pub fn op_time(m: &MachineModel, placement: Placement, rec: &OpRecord) -> f64 {
    let shape = CollectiveShape::from_members(&rec.members, placement);
    match rec.op {
        OpKind::AllReduce => allreduce_time(m, shape, rec.bytes),
        OpKind::AllToAll => alltoall_time(m, shape, rec.bytes),
        OpKind::AllGather => allgather_time(m, shape, rec.bytes),
        OpKind::Broadcast => broadcast_time(m, shape, rec.bytes),
        OpKind::Barrier => barrier_time(m, shape),
        // Point-to-point: α + n/β on the appropriate path; we price it as a
        // two-node transfer unless both endpoints share a node (unknown from
        // the record alone — the members list holds the communicator).
        OpKind::Send => m.alpha_inter + rec.bytes as f64 / m.beta_inter,
        OpKind::Recv => 0.0,
        // Fault/recovery markers carry their downtime directly as
        // microseconds in `bytes`; they are local events, not transfers.
        OpKind::Fault | OpKind::Recover => rec.bytes as f64 * 1e-6,
    }
}

/// Price a whole per-rank trace, bucketing as `(phase, "comm:<op>")`.
pub fn trace_breakdown(
    m: &MachineModel,
    placement: Placement,
    records: &[OpRecord],
) -> PhaseBreakdown {
    let mut out = PhaseBreakdown::new();
    for rec in records {
        let t = op_time(m, placement, rec);
        out.add(&rec.phase, &format!("comm:{}", rec.op), t);
    }
    out
}

/// The critical-path communication time across ranks: for each phase bucket
/// take the maximum over the per-rank breakdowns (ranks progress together
/// through blocking collectives, so the slowest rank sets the pace).
pub fn critical_path(breakdowns: &[PhaseBreakdown]) -> PhaseBreakdown {
    let mut out = PhaseBreakdown::new();
    let mut keys: Vec<(String, String)> = Vec::new();
    for b in breakdowns {
        for (p, c, _) in b.iter() {
            let k = (p.to_string(), c.to_string());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    for (p, c) in keys {
        let mx = breakdowns.iter().map(|b| b.get(&p, &c)).fold(0.0, f64::max);
        out.add(&p, &c, mx);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpKind, phase: &str, members: Vec<usize>, bytes: u64) -> OpRecord {
        OpRecord {
            op,
            comm_label: "t".into(),
            participants: members.len(),
            members,
            bytes,
            phase: phase.into(),
            elapsed_us: 0,
        }
    }

    #[test]
    fn breakdown_buckets_accumulate() {
        let mut b = PhaseBreakdown::new();
        b.add("str", "comm:AllReduce", 1.0);
        b.add("str", "comm:AllReduce", 2.0);
        b.add("coll", "comm:AllToAll", 4.0);
        assert_eq!(b.get("str", "comm:AllReduce"), 3.0);
        assert_eq!(b.total(), 7.0);
        assert_eq!(b.get("nl", "anything"), 0.0);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = PhaseBreakdown::new();
        a.add("str", "x", 1.0);
        let mut b = PhaseBreakdown::new();
        b.add("str", "x", 2.0);
        b.add("coll", "y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("str", "x"), 3.0);
        let s = a.scaled(10.0);
        assert_eq!(s.get("coll", "y"), 30.0);
        assert_eq!(a.get("coll", "y"), 3.0, "scaled must not mutate");
    }

    #[test]
    fn trace_pricing_respects_phase_and_kind() {
        let m = MachineModel::frontier_like();
        let placement = Placement { ranks_per_node: 8 };
        let recs = vec![
            rec(OpKind::AllReduce, "str", (0..16).collect(), 1 << 20),
            rec(OpKind::AllToAll, "coll", (0..16).collect(), 16 << 20),
            rec(OpKind::Barrier, "setup", (0..16).collect(), 0),
        ];
        let b = trace_breakdown(&m, placement, &recs);
        assert!(b.get("str", "comm:AllReduce") > 0.0);
        assert!(b.get("coll", "comm:AllToAll") > 0.0);
        assert!(b.get("setup", "comm:Barrier") > 0.0);
        assert_eq!(b.get("str", "comm:AllToAll"), 0.0);
    }

    #[test]
    fn spread_members_cost_more_than_packed() {
        let m = MachineModel::frontier_like();
        let placement = Placement { ranks_per_node: 8 };
        let packed = rec(OpKind::AllReduce, "str", (0..8).collect(), 4 << 20);
        let spread = rec(
            OpKind::AllReduce,
            "str",
            (0..8).map(|i| i * 8).collect(),
            4 << 20,
        );
        assert!(op_time(&m, placement, &spread) > op_time(&m, placement, &packed));
    }

    #[test]
    fn critical_path_takes_max_per_bucket() {
        let mut a = PhaseBreakdown::new();
        a.add("str", "x", 1.0);
        a.add("coll", "y", 5.0);
        let mut b = PhaseBreakdown::new();
        b.add("str", "x", 3.0);
        let cp = critical_path(&[a, b]);
        assert_eq!(cp.get("str", "x"), 3.0);
        assert_eq!(cp.get("coll", "y"), 5.0);
    }
}
