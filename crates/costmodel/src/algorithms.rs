//! Alternative collective algorithms for ablation studies.
//!
//! MPI libraries switch AllReduce algorithms by message size and
//! communicator size; which one the paper's runs hit affects how strongly
//! cost scales with participants. The default model
//! ([`crate::collective::allreduce_time`]) is the hierarchical
//! Rabenseifner-with-congestion form calibrated to the paper; this module
//! adds the textbook alternatives so the ablation bench can show how the
//! XGYRO advantage depends on the algorithm regime.

use crate::collective::CollectiveShape;
use crate::machine::MachineModel;

/// Selectable AllReduce algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllReduceAlgo {
    /// Reduce-scatter + allgather over a ring: bandwidth-optimal,
    /// `2(p−1)` steps — latency grows linearly with participants.
    Ring,
    /// Recursive doubling: `log₂p` steps of full-buffer exchanges —
    /// latency-optimal, bandwidth-suboptimal.
    RecursiveDoubling,
    /// The calibrated hierarchical model with the congestion term
    /// (the default used everywhere else).
    HierarchicalCongested,
}

/// AllReduce time under a chosen algorithm (seconds).
pub fn allreduce_time_with(
    m: &MachineModel,
    shape: CollectiveShape,
    bytes: u64,
    algo: AllReduceAlgo,
) -> f64 {
    let p = shape.participants;
    if p <= 1 {
        return 0.0;
    }
    let n = bytes as f64;
    let inter = shape.nodes > 1;
    let alpha = if inter { m.alpha_inter } else { m.alpha_intra };
    let beta = if inter { m.beta_inter } else { m.beta_intra };
    match algo {
        AllReduceAlgo::Ring => {
            let steps = 2.0 * (p as f64 - 1.0);
            m.sync_overhead + steps * alpha + 2.0 * ((p - 1) as f64 / p as f64) * n / beta
        }
        AllReduceAlgo::RecursiveDoubling => {
            let steps = (p as f64).log2().ceil();
            m.sync_overhead + steps * (alpha + n / beta)
        }
        AllReduceAlgo::HierarchicalCongested => {
            crate::collective::allreduce_time(m, shape, bytes)
        }
    }
}

/// All algorithms, for sweeps.
pub const ALL_ALGOS: [AllReduceAlgo; 3] = [
    AllReduceAlgo::Ring,
    AllReduceAlgo::RecursiveDoubling,
    AllReduceAlgo::HierarchicalCongested,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineModel {
        MachineModel::frontier_like()
    }

    #[test]
    fn all_algorithms_free_for_one_rank() {
        let s = CollectiveShape::packed(1, 8);
        for algo in ALL_ALGOS {
            assert_eq!(allreduce_time_with(&m(), s, 1 << 20, algo), 0.0);
        }
    }

    #[test]
    fn ring_is_bandwidth_optimal_for_large_messages() {
        // For large n, the ring's bandwidth term 2(p-1)/p·n/β beats
        // recursive doubling's log2(p)·n/β whenever log2 p > 2.
        let mm = m();
        let s = CollectiveShape::spread(16);
        let n = 64 << 20;
        let ring = allreduce_time_with(&mm, s, n, AllReduceAlgo::Ring);
        let rd = allreduce_time_with(&mm, s, n, AllReduceAlgo::RecursiveDoubling);
        assert!(ring < rd, "ring {ring} !< recursive-doubling {rd}");
    }

    #[test]
    fn recursive_doubling_wins_for_tiny_messages() {
        let mm = m();
        let s = CollectiveShape::spread(64);
        let n = 64; // tiny
        let ring = allreduce_time_with(&mm, s, n, AllReduceAlgo::Ring);
        let rd = allreduce_time_with(&mm, s, n, AllReduceAlgo::RecursiveDoubling);
        assert!(rd < ring, "rd {rd} !< ring {ring}");
    }

    #[test]
    fn hierarchical_matches_default_function() {
        let mm = m();
        let s = CollectiveShape::packed(32, 8);
        let n = 4 << 20;
        assert_eq!(
            allreduce_time_with(&mm, s, n, AllReduceAlgo::HierarchicalCongested),
            crate::collective::allreduce_time(&mm, s, n)
        );
    }

    #[test]
    fn participant_scaling_differs_by_algorithm() {
        // The congested model scales ~linearly with node count; recursive
        // doubling only logarithmically — the ablation's point.
        let mm = m();
        let n = 2 << 20;
        let grow = |algo| {
            let t2 = allreduce_time_with(&mm, CollectiveShape::spread(2), n, algo);
            let t64 = allreduce_time_with(&mm, CollectiveShape::spread(64), n, algo);
            t64 / t2
        };
        let g_rd = grow(AllReduceAlgo::RecursiveDoubling);
        let g_hc = grow(AllReduceAlgo::HierarchicalCongested);
        assert!(g_hc > 2.0 * g_rd, "congested {g_hc} vs rd {g_rd}");
    }
}
