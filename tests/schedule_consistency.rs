//! The symbolic performance schedule and the functional runner must agree
//! on the communication structure: operation counts and per-operation byte
//! volumes. This pins the performance model to the real code rather than
//! to assumptions.

use xg_comm::OpKind;
use xg_sim::CgyroInput;
use xg_tensor::{Decomp1D, ProcGrid};
use xgyro_repro::cluster::SchedulePolicy;
use xgyro_repro::xgyro::{gradient_sweep, run_xgyro};

#[test]
fn functional_trace_matches_mini_schedule_counts() {
    // nt = 2 in test_small: 2×2 is nt_loc = 1, 2×1 is nt_loc = 2. The
    // schedule is per step, not per toroidal slice, so both must match.
    for grid in [ProcGrid::new(2, 2), ProcGrid::new(2, 1)] {
        assert_trace_matches_mini_schedule(grid);
    }
}

fn assert_trace_matches_mini_schedule(grid: ProcGrid) {
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.1; // nl path active
    let k = 2;
    let steps = 3;
    let cfg = gradient_sweep(&base, k, grid);
    let outcome = run_xgyro(&cfg, steps);
    let policy = SchedulePolicy::mini();
    let dims = base.dims();

    let trace = &outcome.traces[0]; // rank 0: (sim 0, i1 0, i2 0)
    let nv_loc = Decomp1D::new(dims.nv, grid.n1).count(0);
    let nt_loc = Decomp1D::new(dims.nt, grid.n2).count(0);

    // str AllReduce: fused reductions × stages × steps, each carrying
    // `moments_per_reduction` packed nc·nt_loc moment buffers.
    let str_ar: Vec<_> = trace
        .iter()
        .filter(|r| r.op == OpKind::AllReduce && r.phase == "str")
        .collect();
    assert_eq!(
        str_ar.len(),
        policy.moment_reductions_per_stage * policy.rk_stages * steps,
        "str AllReduce count"
    );
    for r in &str_ar {
        assert_eq!(
            r.bytes,
            (dims.nc * nt_loc * policy.moments_per_reduction * 16) as u64,
            "fused moment buffer bytes"
        );
        assert_eq!(r.participants, grid.n1);
    }

    // nl AllToAll: 2 per round-trip × round-trips/step × steps, each the
    // full local state.
    let nl_a2a: Vec<_> = trace
        .iter()
        .filter(|r| r.op == OpKind::AllToAll && r.phase == "nl")
        .collect();
    assert_eq!(
        nl_a2a.len(),
        2 * policy.nl_roundtrips_per_step * steps,
        "nl AllToAll count"
    );
    let state_bytes = (dims.nc * nv_loc * nt_loc * 16) as u64;
    for r in &nl_a2a {
        assert_eq!(r.bytes, state_bytes, "nl transpose volume");
        assert_eq!(r.participants, grid.n2);
    }

    // coll AllToAll: 2 per round-trip × steps on the ensemble communicator.
    let coll_a2a: Vec<_> = trace
        .iter()
        .filter(|r| r.op == OpKind::AllToAll && r.phase == "coll")
        .collect();
    assert_eq!(coll_a2a.len(), 2 * policy.coll_roundtrips_per_step * steps);
    for r in &coll_a2a {
        assert_eq!(r.bytes, state_bytes, "coll transpose volume");
        assert_eq!(r.participants, k * grid.n1);
    }

    // The step's whole traffic is three kinds of collective; a new one on
    // the step path has to show up here.
    for (rank, trace) in outcome.traces.iter().enumerate() {
        for r in trace {
            assert!(
                matches!(r.op, OpKind::AllReduce | OpKind::AllToAll | OpKind::AllGather),
                "rank {rank} logged {} on {}/{}",
                r.op,
                r.comm_label,
                r.phase
            );
        }
    }
}

#[test]
fn linear_run_produces_no_nl_traffic() {
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.0;
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 2));
    let outcome = run_xgyro(&cfg, 2);
    for trace in &outcome.traces {
        assert!(
            !trace.iter().any(|r| r.phase == "nl" && r.op == OpKind::AllToAll),
            "linear runs must skip the nl transposes entirely"
        );
    }
}

#[test]
fn gradient_sweep_respects_base_cadence() {
    // gradient_sweep must not alter steps_per_report (the ensemble
    // admission requires uniform cadence).
    let base = CgyroInput::test_medium();
    let cfg = gradient_sweep(&base, 3, ProcGrid::new(1, 1));
    for m in cfg.members() {
        assert_eq!(m.steps_per_report, base.steps_per_report);
    }
}
