//! Discrete-event replay of communication traces.
//!
//! The closed-form schedule model (`simtime`) prices each collective in
//! isolation; real blocking collectives also absorb **waiting time** when
//! participants arrive desynchronized. This module replays per-rank
//! operation traces (from a functional run, or synthetic) as a
//! discrete-event simulation: a collective starts when its *last*
//! participant arrives and completes after its modeled wire time, so rank
//! clocks capture imbalance amplification — the effect we credit for the
//! paper's larger-than-modeled XGYRO str-communication time (see
//! EXPERIMENTS.md §F2).

use std::collections::HashMap;
use xg_comm::{OpKind, OpRecord};
use xg_costmodel::{op_time, MachineModel, PhaseBreakdown, Placement};

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Ranks disagree about the order/membership of collectives — the
    /// traces would deadlock (rank, op index).
    Deadlock {
        /// Ranks whose next operations can never match.
        stuck_ranks: Vec<usize>,
    },
    /// A record references a member rank with no trace.
    MissingRank(usize),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Deadlock { stuck_ranks } => {
                write!(f, "trace replay deadlocked; stuck ranks: {stuck_ranks:?}")
            }
            ReplayError::MissingRank(r) => write!(f, "trace references unknown rank {r}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Result of a replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-rank completion time (seconds).
    pub finish_times: Vec<f64>,
    /// Seconds each rank spent *waiting* for peers inside collectives.
    pub wait_times: Vec<f64>,
    /// Communication wall time by `(phase, "comm:<op>")`, measured on the
    /// critical path (max over ranks per bucket).
    pub breakdown: PhaseBreakdown,
}

impl ReplayOutcome {
    /// Wall-clock makespan.
    pub fn makespan(&self) -> f64 {
        self.finish_times.iter().copied().fold(0.0, f64::max)
    }

    /// Total wait across ranks.
    pub fn total_wait(&self) -> f64 {
        self.wait_times.iter().sum()
    }
}

/// Replay per-rank traces under a machine model.
///
/// `compute_between` supplies the local compute time a rank spends before
/// reaching its `i`-th recorded operation (injecting imbalance); use
/// `|_, _| 0.0` for pure-communication replay.
pub fn replay(
    traces: &[Vec<OpRecord>],
    machine: &MachineModel,
    placement: Placement,
    compute_between: impl Fn(usize, usize) -> f64,
) -> Result<ReplayOutcome, ReplayError> {
    let nranks = traces.len();
    let mut clock = vec![0.0f64; nranks];
    let mut wait = vec![0.0f64; nranks];
    let mut next_op = vec![0usize; nranks];
    // Per-rank breakdowns of *in-collective* time (wire + wait).
    let mut per_rank_bd: Vec<PhaseBreakdown> =
        (0..nranks).map(|_| PhaseBreakdown::new()).collect();

    // Advance each rank's clock over local compute up to its next op.
    let charge_compute = |r: usize, idx: usize, clock: &mut [f64]| {
        clock[r] += compute_between(r, idx);
    };

    let total_ops: usize = traces.iter().map(|t| t.len()).sum();
    let mut done_ops = 0usize;
    // Point-to-point completion times: (src, dst, seq) -> available time.
    let mut sends: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let mut send_seq: HashMap<(usize, usize), usize> = HashMap::new();
    let mut recv_seq: HashMap<(usize, usize), usize> = HashMap::new();

    while done_ops < total_ops {
        let mut progressed = false;

        // 1. Complete any sends/recvs that are next (they don't rendezvous).
        for r in 0..nranks {
            while next_op[r] < traces[r].len() {
                let rec = &traces[r][next_op[r]];
                match rec.op {
                    OpKind::Send => {
                        charge_compute(r, next_op[r], &mut clock);
                        let t = op_time(machine, placement, rec);
                        clock[r] += t;
                        per_rank_bd[r].add(&rec.phase, &format!("comm:{}", rec.op), t);
                        // Record availability for the matching recv. The
                        // destination is unknown from the record alone; use
                        // label-agnostic FIFO per (src=r, *) which suffices
                        // for the ring/pair patterns we trace.
                        let seq = send_seq.entry((r, usize::MAX)).or_insert(0);
                        sends.entry((r, usize::MAX)).or_default().push(clock[r]);
                        *seq += 1;
                        next_op[r] += 1;
                        done_ops += 1;
                        progressed = true;
                    }
                    OpKind::Recv => {
                        // Match FIFO against any available send (approximate:
                        // traces we replay use disjoint tag spaces per pair).
                        let mut matched = None;
                        for ((src, _), times) in sends.iter() {
                            let consumed =
                                recv_seq.get(&(*src, r)).copied().unwrap_or(0);
                            if consumed < times.len() {
                                matched = Some((*src, times[consumed]));
                                break;
                            }
                        }
                        if let Some((src, avail)) = matched {
                            charge_compute(r, next_op[r], &mut clock);
                            let start = clock[r].max(avail);
                            wait[r] += (avail - clock[r]).max(0.0);
                            clock[r] = start;
                            *recv_seq.entry((src, r)).or_insert(0) += 1;
                            next_op[r] += 1;
                            done_ops += 1;
                            progressed = true;
                        } else {
                            break;
                        }
                    }
                    // Fault and recovery markers are *local* events: they
                    // advance only the logging rank's clock by the recorded
                    // downtime (`bytes` = microseconds) and never
                    // rendezvous — survivor traces of an aborted segment
                    // have unequal lengths, so treating these as
                    // collectives would deadlock the replay.
                    OpKind::Fault | OpKind::Recover => {
                        charge_compute(r, next_op[r], &mut clock);
                        let t = op_time(machine, placement, rec);
                        clock[r] += t;
                        per_rank_bd[r].add(&rec.phase, &format!("comm:{}", rec.op), t);
                        next_op[r] += 1;
                        done_ops += 1;
                        progressed = true;
                    }
                    _ => break,
                }
            }
        }

        // 2. Find a collective whose every member is ready for it. A
        //    collective referencing a member whose trace is *exhausted* is
        //    orphaned — that peer died (faulted) before logging it, so it
        //    can never fire; the logging rank aborts it locally instead of
        //    deadlocking the replay (this is what lets faulty traces with
        //    `Fault`/`Recover` records replay end to end).
        let mut fired = None;
        let mut orphan: Option<usize> = None;
        'search: for r in 0..nranks {
            if next_op[r] >= traces[r].len() {
                continue;
            }
            let rec = &traces[r][next_op[r]];
            if matches!(rec.op, OpKind::Send | OpKind::Recv) {
                continue;
            }
            let mut any_exhausted = false;
            for &m in &rec.members {
                if m >= nranks {
                    return Err(ReplayError::MissingRank(m));
                }
                let Some(peer_rec) = traces[m].get(next_op[m]) else {
                    any_exhausted = true;
                    continue;
                };
                if peer_rec.op != rec.op
                    || peer_rec.members != rec.members
                    || peer_rec.comm_label != rec.comm_label
                {
                    continue 'search;
                }
            }
            if any_exhausted {
                orphan = orphan.or(Some(r));
                continue;
            }
            fired = Some(rec.members.clone());
            break;
        }

        if let Some(members) = fired {
            // Arrival times include each member's pre-op compute.
            let mut start = 0.0f64;
            for &m in &members {
                charge_compute(m, next_op[m], &mut clock);
                start = start.max(clock[m]);
            }
            let rec = traces[members[0]][next_op[members[0]]].clone();
            let t = op_time(machine, placement, &rec);
            let end = start + t;
            for &m in &members {
                wait[m] += start - clock[m];
                per_rank_bd[m].add(
                    &rec.phase,
                    &format!("comm:{}", rec.op),
                    end - clock[m],
                );
                clock[m] = end;
                next_op[m] += 1;
                done_ops += 1;
            }
            progressed = true;
        } else if let Some(r) = orphan {
            // Abort the orphaned collective for this rank alone: it paid
            // the (deadline-bounded) wire time, observed the failure and
            // moved on; the dead peer contributes nothing further.
            let rec = traces[r][next_op[r]].clone();
            charge_compute(r, next_op[r], &mut clock);
            let t = op_time(machine, placement, &rec);
            clock[r] += t;
            per_rank_bd[r].add(&rec.phase, &format!("comm:{}", rec.op), t);
            next_op[r] += 1;
            done_ops += 1;
            progressed = true;
        }

        if !progressed {
            let stuck: Vec<usize> =
                (0..nranks).filter(|&r| next_op[r] < traces[r].len()).collect();
            return Err(ReplayError::Deadlock { stuck_ranks: stuck });
        }
    }

    Ok(ReplayOutcome {
        finish_times: clock,
        wait_times: wait,
        breakdown: xg_costmodel::critical_path(&per_rank_bd),
    })
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

    fn machine() -> (MachineModel, Placement) {
        (MachineModel::small_cluster(), Placement { ranks_per_node: 4 })
    }

    #[test]
    fn balanced_ranks_have_zero_wait() {
        let (m, p) = machine();
        let op = rec(OpKind::AllReduce, "str", vec![0, 1], 1024);
        let traces = vec![vec![op.clone(); 3], vec![op; 3]];
        let out = replay(&traces, &m, p, |_, _| 1e-3).unwrap();
        assert!(out.total_wait() < 1e-12, "wait {:?}", out.wait_times);
        // Makespan = 3 * (compute + op time).
        let t_op = op_time(&m, p, &traces[0][0]);
        assert!((out.makespan() - 3.0 * (1e-3 + t_op)).abs() < 1e-12);
    }

    #[test]
    fn slow_rank_makes_fast_rank_wait() {
        let (m, p) = machine();
        let op = rec(OpKind::AllReduce, "str", vec![0, 1], 1024);
        let traces = vec![vec![op.clone(); 4], vec![op; 4]];
        // Rank 1 computes 2 ms per stage, rank 0 computes 1 ms.
        let out = replay(&traces, &m, p, |r, _| if r == 1 { 2e-3 } else { 1e-3 }).unwrap();
        assert!(out.wait_times[0] > 3.9e-3, "rank 0 must absorb the imbalance");
        assert!(out.wait_times[1] < 1e-12);
        // The fast rank's in-collective time (incl. wait) exceeds the pure
        // wire time — the mechanism behind under-modeled str-comm numbers.
        let t_op = op_time(&m, p, &traces[0][0]);
        assert!(out.breakdown.get("str", "comm:AllReduce") > 4.0 * t_op);
    }

    #[test]
    fn disjoint_groups_progress_independently() {
        let (m, p) = machine();
        let a = rec(OpKind::AllReduce, "str", vec![0, 1], 64);
        let b = rec(OpKind::AllReduce, "str", vec![2, 3], 64);
        let traces = vec![
            vec![a.clone(); 5],
            vec![a; 5],
            vec![b.clone(); 2],
            vec![b; 2],
        ];
        let out = replay(&traces, &m, p, |_, _| 0.0).unwrap();
        assert_eq!(out.finish_times.len(), 4);
        assert!(out.finish_times[2] < out.finish_times[0]);
    }

    #[test]
    fn mismatched_traces_deadlock_with_diagnosis() {
        let (m, p) = machine();
        let a = rec(OpKind::AllReduce, "str", vec![0, 1], 64);
        let wrong = rec(OpKind::AllToAll, "coll", vec![0, 1], 64);
        let traces = vec![vec![a], vec![wrong]];
        let err = replay(&traces, &m, p, |_, _| 0.0).unwrap_err();
        assert!(matches!(err, ReplayError::Deadlock { .. }));
    }

    #[test]
    fn functional_xgyro_trace_replays_cleanly() {
        // End-to-end: replay a real ensemble trace; makespan must be at
        // least the per-rank breakdown sum and no deadlock.
        let base = xg_sim::CgyroInput::test_small();
        let cfg = xgyro_core::gradient_sweep(&base, 2, xg_tensor::ProcGrid::new(2, 1));
        let outcome = xgyro_core::run_xgyro(&cfg, 2);
        let (m, p) = machine();
        let out = replay(&outcome.traces, &m, p, |_, _| 0.0).unwrap();
        assert!(out.makespan() > 0.0);
        assert!(out.finish_times.iter().all(|t| t.is_finite()));
        // With zero injected compute, waits can only come from op-count
        // asymmetries; every rank still terminates.
        assert_eq!(out.finish_times.len(), cfg.total_ranks());
    }

    #[test]
    fn orphaned_collective_aborts_locally_instead_of_deadlocking() {
        // Ranks 0 and 1 logged an AllReduce with members [0, 1, 2], but
        // rank 2 died before logging it — its trace ends with only a
        // Fault marker. The collective can never fire; the survivors must
        // abort it locally (charging its wire time) rather than deadlock.
        let (m, p) = machine();
        let coll = rec(OpKind::AllReduce, "str", vec![0, 1, 2], 256);
        let fault = rec(OpKind::Fault, "fault", vec![2], 1_000);
        let traces = vec![vec![coll.clone()], vec![coll], vec![fault]];
        let out = replay(&traces, &m, p, |_, _| 0.0).unwrap();
        assert!(out.finish_times.iter().all(|t| t.is_finite() && *t > 0.0));
        // The fault marker's downtime (bytes = microseconds) lands on the
        // dead rank's clock.
        assert!((out.finish_times[2] - 1e-3).abs() < 1e-12);
        assert!(out.breakdown.get("str", "comm:AllReduce") > 0.0);
    }

    #[test]
    fn faulty_recovery_trace_replays_through_csv_round_trip() {
        // End-to-end satellite: a seeded crash during a resilient run
        // produces an aborted-segment trace set; export it to the trace
        // CSV, parse it back, and replay it — no deadlock, and the Fault
        // marker survives the round trip into the cost breakdown.
        let base = xg_sim::CgyroInput::test_small();
        let cfg = xgyro_core::gradient_sweep(&base, 3, xg_tensor::ProcGrid::new(1, 1));
        let out = xgyro_core::run_xgyro_resilient_from(
            &cfg,
            None,
            2,
            2,
            xg_comm::FaultPlan::crash(1, 5),
            std::time::Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(out.events.len(), 1, "the seeded crash must have fired");
        let faulty = &out.faulty_segments[0];
        let csv = xg_comm::traces_to_csv(faulty);
        let parsed = xg_comm::traces_from_csv(&csv).unwrap();
        assert_eq!(&parsed, faulty, "trace CSV round trip must be lossless");
        let (m, p) = machine();
        let replayed = replay(&parsed, &m, p, |_, _| 0.0).unwrap();
        assert!(replayed.finish_times.iter().all(|t| t.is_finite()));
        let faults: usize = parsed
            .iter()
            .flatten()
            .filter(|r| matches!(r.op, OpKind::Fault | OpKind::Recover))
            .count();
        assert!(faults > 0, "aborted segment must carry fault/recover markers");
    }

    #[test]
    fn imbalance_amplifies_xgyro_str_comm() {
        // The F2-deviation mechanism, demonstrated: identical traces, but
        // ranks with jittered compute make the blocking AllReduce absorb
        // wait time well beyond its wire cost.
        let base = xg_sim::CgyroInput::test_small();
        let cfg = xgyro_core::gradient_sweep(&base, 2, xg_tensor::ProcGrid::new(2, 1));
        let outcome = xgyro_core::run_xgyro(&cfg, 2);
        let (m, p) = machine();
        let quiet = replay(&outcome.traces, &m, p, |_, _| 1e-4).unwrap();
        let jittery = replay(&outcome.traces, &m, p, |r, i| {
            1e-4 + if (r + i) % 7 == 0 { 5e-4 } else { 0.0 }
        })
        .unwrap();
        let q = quiet.breakdown.get("str", "comm:AllReduce");
        let j = jittery.breakdown.get("str", "comm:AllReduce");
        assert!(j > 1.5 * q, "jitter must inflate in-collective time: {q} -> {j}");
    }
}
