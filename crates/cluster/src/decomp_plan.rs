//! Unbalanced & heterogeneous decomposition search.
//!
//! "Optimising Performance Through Unbalanced Decompositions" (arxiv
//! 1205.2509): when per-part costs differ, the best split is not the equal
//! one. On a heterogeneous machine (slow-node, mixed-machine presets or a
//! `NODE_SPEEDS=` machinefile) a balanced coll-phase split runs at the
//! slowest position's pace; this planner searches capacity-weighted cut
//! candidates, prices each with the same symbolic schedule `xgplan` uses,
//! and returns the cheapest — with the balanced split always in the
//! candidate set, so the search never chooses worse than balanced.
//!
//! Only the coll-phase `nc` cuts are searched. They are **bitwise-neutral**
//! (each `(ic, it)` collision matvec is independent — moving cut points
//! moves whole matvecs between ranks without reassociating any sum), so
//! every layout this module emits produces output bitwise-identical to the
//! balanced run. Ragged `nv` cuts would reorder the rank-order partial sums
//! of the str-phase moment reductions and are deliberately out of scope.

use crate::planner::{diagnose, Infeasibility, JobPlan};
use crate::simtime::{
    coll_position_speeds, simulate_ensemble_member_decomp, SchedulePolicy,
};
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;
use xg_tensor::{Decomposition, RaggedDecomp};

/// A searched decomposition with its modeled cost against the balanced
/// baseline on the same grid.
#[derive(Clone, Debug)]
pub struct DecompPlan {
    /// The memory-feasible placement the layout runs on.
    pub plan: JobPlan,
    /// The chosen layout (`coll_cuts = None` when balanced won).
    pub decomposition: Decomposition,
    /// Modeled wall seconds per reporting step with balanced cuts.
    pub step_balanced_s: f64,
    /// Modeled wall seconds per reporting step with the chosen cuts.
    pub step_chosen_s: f64,
}

impl DecompPlan {
    /// Modeled balanced-over-chosen speedup (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        self.step_balanced_s / self.step_chosen_s
    }

    /// True when the search chose a non-balanced layout.
    pub fn is_unbalanced(&self) -> bool {
        self.decomposition.coll_cuts.is_some()
    }
}

/// Search the coll-cut space for `(deck, k, nodes, machine)` and return the
/// cheapest priced layout. Grid admission runs in unbalanced mode (ragged
/// grids allowed where no exactly-dividing one exists); errors carry the
/// typed [`Infeasibility`] diagnosis.
pub fn plan_decomposition(
    input: &CgyroInput,
    k: usize,
    nodes: usize,
    machine: &MachineModel,
    policy: &SchedulePolicy,
) -> Result<DecompPlan, Infeasibility> {
    let jp = diagnose(input, k, nodes, machine, true)?;
    let grid = jp.grid;
    let nc = input.dims().nc;
    let positions = k * grid.n1;

    let price = |cuts: Option<&[usize]>| -> f64 {
        simulate_ensemble_member_decomp(input, grid, k, nodes, machine, policy, "cand", cuts)
            .total()
    };
    let step_balanced_s = price(None);

    // Candidate cuts: the balanced split plus capacity-weighted splits at
    // several weighting exponents (`speed^alpha`). Alpha 1.0 equalizes
    // compute exactly when compute dominates; softer exponents hedge when
    // fixed per-position costs (comm, latency) flatten the optimum.
    let speeds = coll_position_speeds(grid, k, machine);
    let uniform = speeds.iter().all(|&s| s == speeds[0]);
    let mut best_cuts: Option<Vec<usize>> = None;
    let mut best_time = step_balanced_s;
    if !uniform {
        for alpha in [0.5, 0.75, 1.0] {
            let weights: Vec<f64> = speeds.iter().map(|s| s.powf(alpha)).collect();
            let cuts = RaggedDecomp::weighted(nc, &weights).counts();
            if RaggedDecomp::from_counts(&cuts) == RaggedDecomp::balanced(nc, positions) {
                continue;
            }
            let t = price(Some(&cuts));
            if t < best_time {
                best_time = t;
                best_cuts = Some(cuts);
            }
        }
    }

    Ok(DecompPlan {
        plan: jp,
        decomposition: Decomposition { grid, k, coll_cuts: best_cuts },
        step_balanced_s,
        step_chosen_s: best_time,
    })
}

/// Rows that `cuts` place differently from the balanced split of the same
/// shape: `nc − Σ_p |range_cuts(p) ∩ range_balanced(p)|` — the
/// data-movement cost of a ragged layout, against which its wall-time
/// payoff is judged (`xgreplay` and `bench-decomp` report it).
pub fn moved_rows_vs_balanced(cuts: &[usize]) -> usize {
    let d = RaggedDecomp::from_counts(cuts);
    let b = RaggedDecomp::balanced(d.total(), d.parts());
    let mut overlap = 0usize;
    for p in 0..d.parts() {
        let (r, s) = (d.range(p), b.range(p));
        let lo = r.start.max(s.start);
        let hi = r.end.min(s.end);
        overlap += hi.saturating_sub(lo);
    }
    d.total() - overlap
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nl03c() -> CgyroInput {
        CgyroInput::nl03c_like()
    }

    #[test]
    fn homogeneous_machine_search_stays_balanced() {
        let m = MachineModel::frontier_like();
        let pol = SchedulePolicy::production();
        let dp = plan_decomposition(&nl03c(), 8, 32, &m, &pol).unwrap();
        assert!(!dp.is_unbalanced());
        assert_eq!(dp.step_balanced_s, dp.step_chosen_s);
        assert_eq!(dp.speedup(), 1.0);
        assert_eq!(dp.decomposition.label(nl03c().dims().nc), "balanced");
    }

    #[test]
    fn slow_node_machine_gets_an_unbalanced_win() {
        let m = MachineModel::slow_node_like();
        let pol = SchedulePolicy::production();
        let dp = plan_decomposition(&nl03c(), 8, 32, &m, &pol).unwrap();
        assert!(dp.is_unbalanced(), "slow-node machine must trigger rebalancing");
        assert!(
            dp.speedup() >= 1.15,
            "modeled speedup {:.3} below the acceptance floor",
            dp.speedup()
        );
        // The cuts are a valid decomposition of nc over k·n1 positions.
        let nc = nl03c().dims().nc;
        dp.decomposition.validate(nc).unwrap();
        let cuts = dp.decomposition.coll_cuts.as_ref().unwrap();
        assert_eq!(cuts.iter().sum::<usize>(), nc);
        // Positions on the slow node hold fewer rows than full-speed ones.
        let speeds = coll_position_speeds(dp.plan.grid, 8, &m);
        let slow_max = cuts
            .iter()
            .zip(&speeds)
            .filter(|(_, s)| **s < 1.0)
            .map(|(c, _)| *c)
            .max()
            .unwrap();
        let fast_min = cuts
            .iter()
            .zip(&speeds)
            .filter(|(_, s)| **s == 1.0)
            .map(|(c, _)| *c)
            .min()
            .unwrap();
        assert!(slow_max < fast_min, "slow {slow_max} !< fast {fast_min}");
    }

    #[test]
    fn mixed_machine_also_improves() {
        let m = MachineModel::mixed_machine_like();
        let pol = SchedulePolicy::production();
        let dp = plan_decomposition(&nl03c(), 8, 32, &m, &pol).unwrap();
        assert!(dp.is_unbalanced());
        assert!(dp.speedup() > 1.0);
    }

    #[test]
    fn search_propagates_typed_infeasibility() {
        let m = MachineModel::frontier_like();
        let pol = SchedulePolicy::production();
        let err = plan_decomposition(&nl03c(), 1, 16, &m, &pol).unwrap_err();
        assert_eq!(err.kind(), "memory");
    }

    #[test]
    fn moved_rows_of_weighted_cuts() {
        // Uniform weights = the balanced split = nothing moved.
        let cuts = RaggedDecomp::weighted(64, &[1.0; 8]).counts();
        assert_eq!(cuts, vec![8; 8]);
        assert_eq!(moved_rows_vs_balanced(&cuts), 0);
        // A half-speed straggler sheds rows; some rows move.
        let caps = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5];
        let cuts = RaggedDecomp::weighted(64, &caps).counts();
        assert_eq!(cuts.iter().sum::<usize>(), 64);
        assert!(cuts[7] < cuts[0]);
        assert!(moved_rows_vs_balanced(&cuts) > 0);
    }
}
