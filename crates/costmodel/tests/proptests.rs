//! Property-based tests of the cost model: monotonicity and sanity bounds
//! must hold across the whole parameter space, not just calibration points.

use proptest::prelude::*;
use xg_costmodel::{
    allgather_time, allreduce_time, alltoall_time, barrier_time, broadcast_time, CollectiveShape,
    MachineModel,
};

fn machines() -> impl Strategy<Value = MachineModel> {
    prop_oneof![
        Just(MachineModel::frontier_like()),
        Just(MachineModel::small_cluster()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_costs_nonnegative_and_finite(
        m in machines(),
        p in 1usize..512,
        bytes in 0u64..(1 << 30),
    ) {
        let shape = CollectiveShape::packed(p, m.ranks_per_node);
        for t in [
            allreduce_time(&m, shape, bytes),
            alltoall_time(&m, shape, bytes),
            allgather_time(&m, shape, bytes),
            broadcast_time(&m, shape, bytes),
            barrier_time(&m, shape),
        ] {
            prop_assert!(t.is_finite() && t >= 0.0, "bad time {t}");
        }
    }

    #[test]
    fn allreduce_monotone_in_bytes(
        m in machines(),
        p in 2usize..256,
        b1 in 0u64..(1 << 28),
        extra in 1u64..(1 << 28),
    ) {
        let shape = CollectiveShape::packed(p, m.ranks_per_node);
        let t1 = allreduce_time(&m, shape, b1);
        let t2 = allreduce_time(&m, shape, b1 + extra);
        prop_assert!(t2 >= t1);
    }

    #[test]
    fn allreduce_monotone_in_spread_participants(
        m in machines(),
        p in 2usize..128,
        bytes in 1u64..(1 << 26),
    ) {
        // One rank per node (the str-comm layout): more participants can
        // never be cheaper.
        let t1 = allreduce_time(&m, CollectiveShape::spread(p), bytes);
        let t2 = allreduce_time(&m, CollectiveShape::spread(p + 1), bytes);
        prop_assert!(t2 >= t1, "{t2} < {t1} at p={p}");
    }

    #[test]
    fn algorithms_agree_on_zero_and_one_rank(
        m in machines(),
        bytes in 0u64..(1 << 24),
    ) {
        let s = CollectiveShape::packed(1, m.ranks_per_node);
        prop_assert_eq!(allreduce_time(&m, s, bytes), 0.0);
    }

    #[test]
    fn hierarchical_at_least_sync_overhead(
        m in machines(),
        p in 2usize..256,
        bytes in 0u64..(1 << 24),
    ) {
        let shape = CollectiveShape::packed(p, m.ranks_per_node);
        prop_assert!(allreduce_time(&m, shape, bytes) >= m.sync_overhead);
        prop_assert!(alltoall_time(&m, shape, bytes) >= m.sync_overhead);
    }

    #[test]
    fn alltoall_volume_dominates_at_scale(
        m in machines(),
        p in 2usize..64,
        bytes in (1u64 << 20)..(1 << 28),
    ) {
        // Doubling the volume at fixed p must at least add the extra
        // wire time of the remote fraction on the slowest path.
        let shape = CollectiveShape::packed(p, m.ranks_per_node);
        let t1 = alltoall_time(&m, shape, bytes);
        let t2 = alltoall_time(&m, shape, 2 * bytes);
        prop_assert!(t2 > t1);
        prop_assert!(t2 < 2.5 * t1 + 1e-3, "superlinear volume scaling: {t1} -> {t2}");
    }
}
