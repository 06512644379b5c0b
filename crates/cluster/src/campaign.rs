//! Campaign optimization: batch N parameter-sweep variants into XGYRO
//! ensembles to minimize node-hours on a fixed allocation.
//!
//! This is the decision the paper's approach creates: given `n_variants`
//! simulations that could share `cmat`, a node allocation, and the
//! machine/schedule models, choose the ensemble size `k` (and number of
//! batches) that completes the campaign cheapest. Larger `k` amortizes
//! better (AllReduce shrinks) until the per-simulation state no longer
//! fits in memory.

use crate::planner;
use crate::simtime::{simulate_xgyro, ScenarioReport, SchedulePolicy};
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;

/// One evaluated batching option.
#[derive(Clone, Debug)]
pub struct CampaignOption {
    /// Ensemble size per batch.
    pub k: usize,
    /// Number of sequential batches (`ceil(n_variants / k)`).
    pub batches: usize,
    /// Wall seconds per reporting step for one batch.
    pub batch_seconds: f64,
    /// Total node-hours for the whole campaign (`batches × batch time ×
    /// nodes × reports / 3600`).
    pub node_hours: f64,
    /// The per-batch scenario report.
    pub report: ScenarioReport,
}

/// The optimizer's answer.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    /// All feasible options, sorted by node-hours ascending.
    pub options: Vec<CampaignOption>,
}

impl CampaignPlan {
    /// The cheapest option.
    pub fn best(&self) -> &CampaignOption {
        &self.options[0]
    }

    /// Node-hours of the k=1 (pure CGYRO sequential) option, if feasible.
    pub fn baseline(&self) -> Option<&CampaignOption> {
        self.options.iter().find(|o| o.k == 1)
    }
}

/// Evaluate all ensemble sizes that divide the rank pool and fit in
/// memory; returns `None` when not even `k = 1` fits on `nodes`, and when
/// `n_variants` or `reports` is zero (there is no campaign to price).
///
/// ```
/// use xg_cluster::{optimize_campaign, SchedulePolicy};
/// use xg_costmodel::MachineModel;
/// use xg_sim::CgyroInput;
///
/// // 8 nl03c variants on the 32 nodes a single run needs: batching them
/// // as one XGYRO ensemble is the cheapest plan.
/// let plan = optimize_campaign(
///     &CgyroInput::nl03c_like(), 8, 32, 10,
///     &MachineModel::frontier_like(), &SchedulePolicy::production(),
/// ).unwrap();
/// assert_eq!(plan.best().k, 8);
/// ```
pub fn optimize_campaign(
    input: &CgyroInput,
    n_variants: usize,
    nodes: usize,
    reports: usize,
    machine: &MachineModel,
    policy: &SchedulePolicy,
) -> Option<CampaignPlan> {
    if n_variants == 0 || reports == 0 {
        return None;
    }
    let mut options = Vec::new();
    for k in 1..=n_variants {
        let Some(plan) = planner::plan(input, k, nodes, machine) else {
            continue;
        };
        if !plan.feasible() {
            continue;
        }
        let report = simulate_xgyro(input, plan.grid, k, nodes, machine, policy);
        let batches = n_variants.div_ceil(k);
        let batch_seconds = report.total();
        let node_hours =
            batches as f64 * batch_seconds * reports as f64 * nodes as f64 / 3600.0;
        options.push(CampaignOption { k, batches, batch_seconds, node_hours, report });
    }
    if options.is_empty() {
        return None;
    }
    options.sort_by(|a, b| a.node_hours.total_cmp(&b.node_hours));
    Some(CampaignPlan { options })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_variant_campaign_prefers_k8() {
        let input = CgyroInput::nl03c_like();
        let machine = MachineModel::frontier_like();
        let policy = SchedulePolicy::production();
        let plan = optimize_campaign(&input, 8, 32, 10, &machine, &policy).unwrap();
        assert_eq!(plan.best().k, 8, "largest feasible ensemble wins");
        let base = plan.baseline().expect("k=1 feasible");
        assert!(plan.best().node_hours < base.node_hours);
        let saving = 1.0 - plan.best().node_hours / base.node_hours;
        assert!((0.2..0.6).contains(&saving), "saving {saving:.2}");
    }

    #[test]
    fn non_divisible_variant_counts_batch_correctly() {
        let input = CgyroInput::nl03c_like();
        let machine = MachineModel::frontier_like();
        let policy = SchedulePolicy::production();
        // 12 variants: k=8 needs 2 batches (8 + 4 slots, one partly idle);
        // the optimizer accounts full batch cost either way.
        let plan = optimize_campaign(&input, 12, 32, 1, &machine, &policy).unwrap();
        let k8 = plan.options.iter().find(|o| o.k == 8).unwrap();
        assert_eq!(k8.batches, 2);
        let k4 = plan.options.iter().find(|o| o.k == 4).unwrap();
        assert_eq!(k4.batches, 3);
        // With 12 variants, 3 batches of 4 beat 2 batches of 8 (the second
        // k=8 batch runs half-empty at full cost) — the optimizer must see
        // through that.
        assert!(k4.node_hours < k8.node_hours, "{} vs {}", k4.node_hours, k8.node_hours);
        assert_eq!(plan.best().k, 4);
    }

    #[test]
    fn infeasible_everything_returns_none() {
        let input = CgyroInput::nl03c_like();
        let machine = MachineModel::frontier_like();
        let policy = SchedulePolicy::production();
        // 4 nodes cannot host even one nl03c.
        assert!(optimize_campaign(&input, 4, 4, 1, &machine, &policy).is_none());
    }

    #[test]
    fn zero_variants_or_reports_return_none() {
        let input = CgyroInput::test_medium();
        let machine = MachineModel::small_cluster();
        let policy = SchedulePolicy::mini();
        assert!(optimize_campaign(&input, 0, 1, 2, &machine, &policy).is_none(), "no variants");
        assert!(optimize_campaign(&input, 3, 1, 0, &machine, &policy).is_none(), "no reports");
    }

    #[test]
    fn small_decks_trivially_optimize() {
        let input = CgyroInput::test_medium();
        let machine = MachineModel::small_cluster();
        let policy = SchedulePolicy::mini();
        let plan = optimize_campaign(&input, 3, 1, 2, &machine, &policy).unwrap();
        assert!(!plan.options.is_empty());
        assert!(plan.best().node_hours > 0.0);
    }
}
