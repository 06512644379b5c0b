//! Machine models: node topology, memory budgets, link speeds, throughputs.
//!
//! The paper's evaluation ran on OLCF Frontier: 8 GPU dies (GCDs) per node,
//! 64 GB HBM per GCD, one CGYRO MPI rank per GCD, Slingshot interconnect.
//! We cannot measure that machine, so [`MachineModel`] captures it as a
//! small set of constants. The `frontier_like` preset is calibrated once so
//! that the *CGYRO* column of Figure 2 lands near the paper's numbers; the
//! XGYRO column is then a prediction of the model (see EXPERIMENTS.md).

use serde::{Deserialize, Serialize};

/// Constants describing a homogeneous GPU cluster.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: String,
    /// MPI ranks (GPU dies) per node.
    pub ranks_per_node: usize,
    /// Memory per rank in bytes (HBM per GCD).
    pub mem_per_rank: u64,
    /// Fraction of `mem_per_rank` usable for simulation buffers (the rest
    /// goes to the runtime, FFT plans, MPI bounce buffers, …).
    pub usable_mem_fraction: f64,
    /// Point-to-point latency between ranks on the same node (seconds).
    pub alpha_intra: f64,
    /// Point-to-point latency between ranks on different nodes (seconds).
    pub alpha_inter: f64,
    /// Per-rank bandwidth for intra-node transfers (bytes/second).
    pub beta_intra: f64,
    /// Per-rank bandwidth for inter-node transfers (bytes/second).
    pub beta_inter: f64,
    /// Node injection (NIC) bandwidth shared by all ranks on a node (B/s).
    pub nic_bw: f64,
    /// Empirical AllReduce congestion coefficient: the per-participant
    /// bandwidth penalty that makes large-communicator AllReduce cost grow
    /// ~linearly with the participant count (paper §2.1: "the overall cost
    /// of AllReduce is proportional with the number of participating
    /// processes").
    pub allreduce_congestion: f64,
    /// Fixed per-collective synchronization overhead (seconds): jitter /
    /// desynchronization absorbed inside blocking collectives, which on
    /// GPU-resident codes is large compared to pure wire time and is why
    /// even tiny-communicator collectives are not free.
    pub sync_overhead: f64,
    /// Achieved double-precision throughput per rank (FLOP/s).
    pub flops_per_rank: f64,
    /// Achieved memory (HBM) bandwidth per rank (bytes/second).
    pub mem_bw_per_rank: f64,
}

impl MachineModel {
    /// Usable memory per rank in bytes.
    pub fn usable_mem_per_rank(&self) -> u64 {
        (self.mem_per_rank as f64 * self.usable_mem_fraction) as u64
    }

    /// Number of ranks on `nodes` nodes.
    pub fn ranks(&self, nodes: usize) -> usize {
        self.ranks_per_node * nodes
    }

    /// A Frontier-like system: 8 GCDs/node with 64 GB HBM each.
    ///
    /// Latency/bandwidth/congestion/throughput constants are *calibrated*,
    /// not measured: they are chosen so the simulated CGYRO `nl03c` run on
    /// 32 nodes reproduces the paper's reported per-reporting-step times
    /// (375 s total, 145 s str communication for the 8-run sum).
    pub fn frontier_like() -> Self {
        Self {
            name: "frontier-like".to_string(),
            ranks_per_node: 8,
            mem_per_rank: 64 << 30,
            usable_mem_fraction: 0.65,
            alpha_intra: 3e-6,
            alpha_inter: 12e-6,
            beta_intra: 90e9,
            beta_inter: 24e9,
            nic_bw: 100e9,
            allreduce_congestion: 0.31,
            sync_overhead: 60e-6,
            flops_per_rank: 6.0e12,
            mem_bw_per_rank: 1.3e12,
        }
    }

    /// A Perlmutter-like system: 4 GPUs/node with 40 GB HBM each, dual-NIC
    /// Slingshot. Less HBM per rank than the Frontier model (memory
    /// minimums move up), comparable fabric.
    pub fn perlmutter_like() -> Self {
        Self {
            name: "perlmutter-like".to_string(),
            ranks_per_node: 4,
            mem_per_rank: 40 << 30,
            usable_mem_fraction: 0.65,
            alpha_intra: 3e-6,
            alpha_inter: 11e-6,
            beta_intra: 80e9,
            beta_inter: 22e9,
            nic_bw: 50e9,
            allreduce_congestion: 0.31,
            sync_overhead: 55e-6,
            flops_per_rank: 4.5e12,
            mem_bw_per_rank: 1.5e12,
        }
    }

    /// A commodity cluster with a slow fabric (100 Gb Ethernet-class):
    /// communication-dominated regime where ensemble sharing helps most.
    pub fn slow_fabric_cluster() -> Self {
        Self {
            name: "slow-fabric".to_string(),
            ranks_per_node: 8,
            mem_per_rank: 64 << 30,
            usable_mem_fraction: 0.65,
            alpha_intra: 3e-6,
            alpha_inter: 30e-6,
            beta_intra: 90e9,
            beta_inter: 5e9,
            nic_bw: 12e9,
            allreduce_congestion: 0.4,
            sync_overhead: 100e-6,
            flops_per_rank: 6.0e12,
            mem_bw_per_rank: 1.3e12,
        }
    }

    /// A small generic CPU cluster, handy for laptop-scale what-ifs.
    pub fn small_cluster() -> Self {
        Self {
            name: "small-cluster".to_string(),
            ranks_per_node: 4,
            mem_per_rank: 8 << 30,
            usable_mem_fraction: 0.8,
            alpha_intra: 1e-6,
            alpha_inter: 20e-6,
            beta_intra: 20e9,
            beta_inter: 5e9,
            nic_bw: 12e9,
            allreduce_congestion: 0.3,
            sync_overhead: 20e-6,
            flops_per_rank: 5.0e10,
            mem_bw_per_rank: 2.0e10,
        }
    }
}

/// Mapping of a set of ranks onto nodes: block placement, `ranks_per_node`
/// consecutive ranks per node (how `srun` lays out one rank per GCD).
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// Ranks per node.
    pub ranks_per_node: usize,
}

impl Placement {
    /// Node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Statistics of a communicator whose members are the given *global*
    /// ranks: `(participants, nodes_spanned, max_ranks_on_one_node)`.
    pub fn span(&self, members: &[usize]) -> (usize, usize, usize) {
        use std::collections::HashMap;
        let mut per_node: HashMap<usize, usize> = HashMap::new();
        for &r in members {
            *per_node.entry(self.node_of(r)).or_insert(0) += 1;
        }
        let max_local = per_node.values().copied().max().unwrap_or(0);
        (members.len(), per_node.len(), max_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_preset_basics() {
        let m = MachineModel::frontier_like();
        assert_eq!(m.ranks(32), 256);
        assert!(m.usable_mem_per_rank() < m.mem_per_rank);
    }

    #[test]
    fn placement_block_layout() {
        let p = Placement { ranks_per_node: 8 };
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(7), 0);
        assert_eq!(p.node_of(8), 1);
        let (n, nodes, maxl) = p.span(&[0, 1, 8, 9, 10]);
        assert_eq!((n, nodes, maxl), (5, 2, 3));
    }

    #[test]
    fn span_of_single_node_group() {
        let p = Placement { ranks_per_node: 4 };
        let (n, nodes, maxl) = p.span(&[4, 5, 6, 7]);
        assert_eq!((n, nodes, maxl), (4, 1, 4));
    }

    #[test]
    fn presets_are_distinct_and_cloneable() {
        let a = MachineModel::frontier_like();
        let b = MachineModel::small_cluster();
        assert_ne!(a, b);
        assert_eq!(a.clone(), a);
        assert!(a.flops_per_rank > b.flops_per_rank);
    }
}
