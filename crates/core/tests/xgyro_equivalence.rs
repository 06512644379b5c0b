//! The shape of sharing: each rank of an XGYRO ensemble holds 1/k of the
//! constant tensor, and its communication pattern matches Figure 3. That
//! the members compute bitwise what independent CGYRO runs compute
//! (T-correct) is the contract (`tests/contract.rs`).

use xg_comm::OpKind;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{
    cmat_memory_law, gradient_sweep, run_cgyro_baseline, run_xgyro, summarize_trace,
    EnsembleConfig,
};

#[test]
fn cmat_per_rank_drops_by_k() {
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 1);
    for k in [1usize, 2, 4] {
        let cfg = gradient_sweep(&base, k, grid);
        let xg = run_xgyro(&cfg, 1);
        let cg = run_cgyro_baseline(&cfg, 1);
        let xg_bytes: u64 = xg.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).sum();
        let cg_bytes: u64 = cg.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).sum();
        // CGYRO holds k full copies (one per sequential job); XGYRO holds
        // exactly one full copy across the whole ensemble.
        let law = cmat_memory_law(&cfg);
        assert_eq!(xg_bytes, law.total_bytes, "k={k}: ensemble holds one copy");
        assert_eq!(cg_bytes, law.total_bytes * k as u64, "k={k}: baseline holds k copies");
        // Per-rank law.
        let max_xg = xg.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).max().unwrap();
        let max_cg = cg.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).max().unwrap();
        assert_eq!(*max_cg, *max_xg * k as u64, "k={k}: per-rank cmat drops k-fold");
    }
}

#[test]
fn figure3_comm_pattern() {
    // In XGYRO mode: str AllReduce stays on the per-sim "nv" communicator
    // with n1 participants; the coll AllToAll moves to the separated
    // "coll-ens" communicator with k·n1 participants.
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 2);
    let k = 3;
    let cfg = gradient_sweep(&base, k, grid);
    let xg = run_xgyro(&cfg, 1);
    assert_eq!(xg.traces.len(), cfg.total_ranks());
    for trace in &xg.traces {
        let s = summarize_trace(trace);
        let ar = s.str_allreduce().expect("str AllReduce must appear");
        assert_eq!(ar.comm_label, "nv");
        assert_eq!(ar.participants, grid.n1, "AllReduce stays per-simulation");
        assert_eq!(ar.count, 4, "one fused collective × 4 RK stages");
        let a2a = s.coll_alltoall().expect("coll AllToAll must appear");
        assert_eq!(a2a.comm_label, "coll-ens", "coll comm must be separated");
        assert_eq!(a2a.participants, k * grid.n1, "coll spans the ensemble");
        assert_eq!(a2a.count, 2, "transpose there and back");
    }
}

#[test]
fn k_equals_one_xgyro_degenerates_to_cgyro_volumes() {
    // With k = 1 the ensemble exchange must move exactly the same bytes as
    // CGYRO's transpose (the coll comm is the nv row, relabelled).
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 2);
    let cfg = EnsembleConfig::new(vec![base.clone()], grid).unwrap();
    let xg = run_xgyro(&cfg, 2);
    let cg = run_cgyro_baseline(&cfg, 2);
    assert_eq!(xg.sims[0].h.as_slice(), cg.sims[0].h.as_slice());
    for (tx, tc) in xg.traces.iter().zip(&cg.traces) {
        let sx = summarize_trace(tx);
        let sc = summarize_trace(tc);
        let ax = sx.coll_alltoall().unwrap();
        let ac = sc.coll_alltoall().unwrap();
        assert_eq!(ax.bytes, ac.bytes);
        assert_eq!(ax.participants, ac.participants);
    }
}

#[test]
fn nl_phase_never_transitions_to_coll_directly() {
    // Paper §2: "there is never a direct transition from [nl] to the coll
    // phase" — data always returns to the str layout before the coll
    // transpose. Structurally: (a) nl AllToAlls come in there-and-back
    // pairs on the nt communicator (the return transpose restores the str
    // layout), and (b) coll transposes run on a different communicator
    // than nl ones — there is no nl→coll exchange.
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.1;
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 2));
    let xg = run_xgyro(&cfg, 2);
    for trace in &xg.traces {
        let nl_a2a: Vec<_> = trace
            .iter()
            .filter(|r| r.op == OpKind::AllToAll && r.phase == "nl")
            .collect();
        assert!(!nl_a2a.is_empty(), "nonlinear run must transpose to nl layout");
        assert_eq!(nl_a2a.len() % 2, 0, "nl transposes must pair up (there and back)");
        assert!(nl_a2a.iter().all(|r| r.comm_label == "nt"));
        let coll_a2a: Vec<_> = trace
            .iter()
            .filter(|r| r.op == OpKind::AllToAll && r.phase == "coll")
            .collect();
        assert!(coll_a2a.iter().all(|r| r.comm_label == "coll-ens"));
    }
}
