//! Property-based tests of the planner and memory model.

use proptest::prelude::*;
use xg_cluster::{plan, rank_inventory, total_bytes, valid_grids, BufferCategory};
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;

fn deck(nr: usize, nth: usize, nxi: usize, nen: usize, nt: usize) -> CgyroInput {
    let mut d = CgyroInput::test_small();
    d.n_radial = nr;
    d.n_theta = nth;
    d.n_xi = nxi;
    d.n_energy = nen;
    d.n_toroidal = nt;
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_grids_really_divide(
        nr in 1usize..9, nth in 4usize..10, nxi in 2usize..7, nen in 2usize..5,
        nt in 1usize..9, ranks in 1usize..64,
    ) {
        let input = deck(nr, nth, nxi, nen, nt);
        let dims = input.dims();
        for g in valid_grids(&input, ranks, false) {
            prop_assert_eq!(g.size(), ranks);
            prop_assert_eq!(dims.nt % g.n2, 0);
            prop_assert_eq!(dims.nv % g.n1, 0);
            prop_assert_eq!(dims.nc % g.n1, 0);
        }
        // The list is exhaustive: brute-force every factorization.
        let brute: usize = (1..=ranks)
            .filter(|&n2| {
                ranks % n2 == 0 && dims.nt.is_multiple_of(n2) && {
                    let n1 = ranks / n2;
                    n1 <= dims.nv && dims.nv.is_multiple_of(n1) && dims.nc.is_multiple_of(n1)
                }
            })
            .count();
        prop_assert_eq!(valid_grids(&input, ranks, false).len(), brute);
    }

    #[test]
    fn per_rank_memory_decreases_with_more_ranks(
        nr in 2usize..9, nth in 4usize..10, nt in 1usize..5,
    ) {
        let input = deck(nr, nth, 4, 3, nt);
        let m = MachineModel::small_cluster();
        let mut last: Option<u64> = None;
        for nodes in 1..=8usize {
            if let Some(p) = plan(&input, 1, nodes, &m) {
                if let Some(prev) = last {
                    prop_assert!(
                        p.per_rank_bytes <= prev,
                        "memory grew with nodes: {prev} -> {}",
                        p.per_rank_bytes
                    );
                }
                last = Some(p.per_rank_bytes);
            }
        }
    }

    #[test]
    fn cmat_share_law_exact_for_any_partition(
        nr in 1usize..6, nth in 4usize..9, nt in 1usize..5,
        n1 in 1usize..5, n2 in 1usize..4, k in 1usize..6,
    ) {
        let input = deck(nr, nth, 4, 3, nt);
        let dims = input.dims();
        prop_assume!(n1 <= dims.nv && n2 <= dims.nt);
        let grid = ProcGrid::new(n1, n2);
        // The inventory reports the worst-case rank: exactly
        // nv² · ceil(nc / (k·n1)) · ceil(nt / n2) · 8 bytes.
        let inv = rank_inventory(&input, grid, k * n1);
        let per_rank = total_bytes(&inv, Some(BufferCategory::Constant));
        let expected = (dims.nv * dims.nv) as u64
            * dims.nc.div_ceil(k * n1) as u64
            * dims.nt.div_ceil(n2) as u64
            * 8;
        prop_assert_eq!(per_rank, expected);
        // Worst-case slices over the whole job cover the tensor at least
        // once (the law the sharing argument rests on).
        let total = xg_sim::cmat_total_bytes(&input);
        let coverage = per_rank * (k * n1) as u64 * n2 as u64;
        prop_assert!(coverage >= total, "slices must cover the tensor");
    }

    #[test]
    fn campaign_best_never_worse_than_baseline(
        n_variants in 1usize..6,
    ) {
        let input = CgyroInput::test_medium();
        let m = MachineModel::small_cluster();
        let policy = xg_cluster::SchedulePolicy::mini();
        if let Some(planned) =
            xg_cluster::optimize_campaign(&input, n_variants, 1, 2, &m, &policy)
        {
            if let Some(base) = planned.baseline() {
                prop_assert!(planned.best().node_hours <= base.node_hours + 1e-12);
            }
        }
    }
}

mod replay_props {
    use proptest::prelude::*;
    use xg_cluster::replay;
    use xg_comm::{OpKind, OpRecord};
    use xg_costmodel::{MachineModel, Placement};

    /// Build consistent per-rank traces: a random sequence of collectives
    /// over random (contiguous) subgroups, where every member of a group
    /// gets the op appended in the same global order.
    fn consistent_traces(nranks: usize, ops: &[(usize, usize, u8)]) -> Vec<Vec<OpRecord>> {
        let mut traces: Vec<Vec<OpRecord>> = (0..nranks).map(|_| Vec::new()).collect();
        for &(start, len, kind) in ops {
            let start = start % nranks;
            let len = 1 + len % (nranks - start).max(1);
            let members: Vec<usize> = (start..start + len).collect();
            let op = match kind % 3 {
                0 => OpKind::AllReduce,
                1 => OpKind::AllToAll,
                _ => OpKind::Barrier,
            };
            let rec = OpRecord {
                op,
                comm_label: format!("g{start}-{len}"),
                participants: members.len(),
                members: members.clone(),
                bytes: 1024 * (1 + kind as u64),
                phase: "str".into(),
                elapsed_us: 0,
            };
            for &m in &members {
                traces[m].push(rec.clone());
            }
        }
        traces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn consistent_traces_never_deadlock(
            nranks in 1usize..9,
            ops in prop::collection::vec((0usize..8, 0usize..8, 0u8..255), 0..30),
        ) {
            let traces = consistent_traces(nranks, &ops);
            let m = MachineModel::small_cluster();
            let p = Placement { ranks_per_node: m.ranks_per_node };
            let out = replay(&traces, &m, p, |_, _| 0.0).expect("consistent traces replay");
            // Makespan bounds: at least any single rank's serial op time,
            // at most the sum of all distinct collective times.
            prop_assert!(out.makespan().is_finite() && out.makespan() >= 0.0);
            prop_assert!(out.total_wait() >= -1e-15);
            // Zero injected compute + nested-interval groups can still wait
            // (a rank can be held up by a group-mate's earlier op), but
            // every rank must finish no later than the makespan.
            for &t in &out.finish_times {
                prop_assert!(t <= out.makespan() + 1e-15);
            }
        }

        #[test]
        fn uniform_compute_adds_exactly_per_op(
            nranks in 2usize..6,
            nops in 1usize..20,
            compute_us in 0.0f64..500.0,
        ) {
            // All ranks in one group, uniform compute: zero wait, makespan =
            // Σ (compute + op time).
            let ops: Vec<(usize, usize, u8)> = (0..nops).map(|_| (0, nranks * 8, 0)).collect();
            let traces = consistent_traces(nranks, &ops);
            let m = MachineModel::small_cluster();
            let p = Placement { ranks_per_node: m.ranks_per_node };
            let c = compute_us * 1e-6;
            let out = replay(&traces, &m, p, move |_, _| c).expect("replay");
            prop_assert!(out.total_wait() < 1e-12, "wait {:?}", out.wait_times);
            let op_t = xg_costmodel::op_time(&m, p, &traces[0][0]);
            let expect = nops as f64 * (c + op_t);
            prop_assert!((out.makespan() - expect).abs() < 1e-9 * (1.0 + expect));
        }
    }
}
