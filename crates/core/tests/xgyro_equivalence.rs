//! The reproduction's headline correctness experiment (T-correct):
//! an XGYRO ensemble produces **bitwise identical** trajectories to the
//! same simulations run independently with CGYRO on the same per-simulation
//! grids — while each rank holds only 1/k of the constant tensor — and its
//! communication pattern matches Figure 3.

use xg_comm::OpKind;
use xg_linalg::norms::max_deviation;
use xg_sim::{serial_simulation, CgyroInput};
use xg_tensor::ProcGrid;
use xgyro_core::{
    cmat_memory_law, gradient_sweep, run_cgyro_baseline, run_xgyro, summarize_trace,
    EnsembleConfig,
};

#[test]
fn xgyro_matches_independent_cgyro_bitwise() {
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(2, 2);
    let cfg = gradient_sweep(&base, 3, grid);
    let steps = 4;

    let xg = run_xgyro(&cfg, steps);
    let cg = run_cgyro_baseline(&cfg, steps);

    assert_eq!(xg.sims.len(), 3);
    for (x, c) in xg.sims.iter().zip(&cg.sims) {
        assert_eq!(
            x.h.as_slice(),
            c.h.as_slice(),
            "sim {} trajectories must be bitwise identical",
            x.sim
        );
        assert_eq!(x.diagnostics, c.diagnostics);
    }
}

#[test]
fn xgyro_matches_serial_reference() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(3, 1));
    let steps = 3;
    let xg = run_xgyro(&cfg, steps);
    for (i, member) in cfg.members().iter().enumerate() {
        let mut s = serial_simulation(member);
        s.run_steps(steps);
        let dev = max_deviation(s.h().as_slice(), xg.sims[i].h.as_slice());
        assert!(dev < 1e-12, "sim {i}: deviation from serial {dev}");
    }
}

#[test]
fn ensemble_members_evolve_differently() {
    // Different gradients must actually produce different trajectories —
    // otherwise the sweep test is vacuous.
    let cfg = gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(1, 1));
    let xg = run_xgyro(&cfg, 4);
    assert_ne!(xg.sims[0].h.as_slice(), xg.sims[1].h.as_slice());
    assert_ne!(xg.sims[1].h.as_slice(), xg.sims[2].h.as_slice());
}

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
fn uneven_ensemble_decomposition_still_exact() {
    // nc = 32 over k·n1 = 6 coll ranks (doesn't divide): the balanced
    // decomposition handles it; results must still match the baseline.
    let base = CgyroInput::test_small();
    let grid = ProcGrid::new(3, 1);
    let cfg = gradient_sweep(&base, 2, grid);
    let xg = run_xgyro(&cfg, 3);
    let cg = run_cgyro_baseline(&cfg, 3);
    for (x, c) in xg.sims.iter().zip(&cg.sims) {
        assert_eq!(x.h.as_slice(), c.h.as_slice());
    }
}

#[test]
fn nonlinear_ensemble_matches_baseline() {
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.15;
    let grid = ProcGrid::new(2, 2);
    let cfg = gradient_sweep(&base, 2, grid);
    let xg = run_xgyro(&cfg, 3);
    let cg = run_cgyro_baseline(&cfg, 3);
    for (x, c) in xg.sims.iter().zip(&cg.sims) {
        assert_eq!(x.h.as_slice(), c.h.as_slice());
    }
}

#[test]
fn nl_in_place_ensemble_matches_transposed_bitwise() {
    // 2×1 evaluates nl in place on each member's str layout; 2×2 transposes
    // through the nl layout. Every member's trajectory must agree bitwise.
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.15;
    let steps = 3;
    let in_place = run_xgyro(&gradient_sweep(&base, 2, ProcGrid::new(2, 1)), steps);
    let transposed = run_xgyro(&gradient_sweep(&base, 2, ProcGrid::new(2, 2)), steps);
    for (a, b) in in_place.sims.iter().zip(&transposed.sims) {
        assert_eq!(a.h.as_slice(), b.h.as_slice(), "member {}: 2x1 vs 2x2", a.sim);
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
