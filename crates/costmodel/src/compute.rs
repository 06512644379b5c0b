//! Compute kernel cost model: roofline-style `max(flops/F, bytes/B)`.
//!
//! Every on-rank kernel in the simulated step (streaming derivative, field
//! accumulation, nonlinear convolution, and above all the `cmat` matvec
//! stack) is described by a flop count and a memory traffic estimate; the
//! modeled time is the roofline bound under the machine's achieved
//! throughput numbers. The collision step in particular is memory-bound:
//! it streams the entire local `cmat` slice once per application, which is
//! why its time tracks `cmat` bytes rather than flops.

use crate::machine::MachineModel;

/// A compute kernel characterized by work and traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCost {
    /// Double-precision floating point operations.
    pub flops: u64,
    /// Bytes moved to/from memory (read + write).
    pub bytes: u64,
}

impl KernelCost {
    /// Modeled execution time on `m` (seconds): roofline bound.
    pub fn time(self, m: &MachineModel) -> f64 {
        let t_flops = self.flops as f64 / m.flops_per_rank;
        let t_bytes = self.bytes as f64 / m.mem_bw_per_rank;
        t_flops.max(t_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_picks_binding_resource() {
        let m = MachineModel::frontier_like();
        // Pure compute: flops bound.
        let k = KernelCost { flops: 6_000_000_000_000, bytes: 0 };
        assert!((k.time(&m) - 1.0).abs() < 1e-9);
        // Pure traffic: bytes bound.
        let k = KernelCost { flops: 0, bytes: 1_300_000_000_000 };
        assert!((k.time(&m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collision_matvec_is_memory_bound_on_frontier_like() {
        // One real 576×576 matrix applied to a complex vector: 4n² flops,
        // the matrix streamed once (8 B/entry) plus the two vectors.
        let m = MachineModel::frontier_like();
        let n = 576u64;
        let k = KernelCost { flops: 4 * n * n, bytes: 8 * n * n + 2 * 16 * n };
        // intensity = 4n²/(8n²+32n) < flops/membw ratio (≈4.6 flops/byte)
        assert!((k.flops as f64 / k.bytes as f64) < m.flops_per_rank / m.mem_bw_per_rank);
        assert!(k.time(&m) * m.mem_bw_per_rank >= k.bytes as f64 * 0.999);
        assert!(k.time(&m) > k.flops as f64 / m.flops_per_rank);
    }
}
