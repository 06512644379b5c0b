//! Electromagnetic (A∥) extension tests: the electrostatic limit is
//! preserved exactly, finite-β runs are stable and genuinely different,
//! the communication pattern gains the Ampère AllReduce family, and the
//! distributed path stays equivalent to serial.

use xg_comm::{OpKind, World};
use xg_linalg::norms::max_deviation;
use xg_sim::{serial_simulation, CgyroInput, DistTopology, Simulation};
use xg_tensor::ProcGrid;

fn em_deck(beta: f64) -> CgyroInput {
    let mut input = CgyroInput::test_small();
    input.beta_e = beta;
    input
}

#[test]
fn zero_beta_is_bitwise_electrostatic() {
    // beta_e = 0 must take exactly the electrostatic code path.
    let mut es = serial_simulation(&CgyroInput::test_small());
    let mut em0 = serial_simulation(&em_deck(0.0));
    es.run_steps(5);
    em0.run_steps(5);
    assert_eq!(es.h().as_slice(), em0.h().as_slice());
}

#[test]
fn finite_beta_changes_dynamics_and_stays_stable() {
    let mut es = serial_simulation(&em_deck(0.0));
    let mut em = serial_simulation(&em_deck(0.01));
    es.run_steps(10);
    em.run_steps(10);
    assert_ne!(es.h().as_slice(), em.h().as_slice(), "beta must matter");
    let d = em.diagnostics();
    assert!(d.field_energy.is_finite() && d.h_norm2.is_finite());
    assert!(d.h_norm2 < 1.0, "EM run must stay bounded");
}

#[test]
fn beta_scan_shares_cmat_key() {
    let a = em_deck(0.0);
    let b = em_deck(0.005);
    let c = em_deck(0.02);
    assert_eq!(a.cmat_key(), b.cmat_key());
    assert_eq!(b.cmat_key(), c.cmat_key());
}

#[test]
fn em_run_adds_one_allreduce_family_per_stage() {
    let grid = ProcGrid::new(2, 1);
    let count_str_ar = |input: &CgyroInput| {
        let out = World::new(grid.size()).run_with_logs(|comm| {
            let topo = DistTopology::cgyro(input, grid, comm);
            let mut sim = Simulation::new(input.clone(), topo);
            sim.step();
        });
        out[0]
            .1
            .iter()
            .filter(|r| r.op == OpKind::AllReduce && r.phase == "str")
            .count()
    };
    let es = count_str_ar(&em_deck(0.0));
    let em = count_str_ar(&em_deck(0.01));
    assert_eq!(es, 4, "electrostatic: one fused (field + upwind) collective x 4 stages");
    assert_eq!(em, 4, "electromagnetic: one fused (field + current + upwind) collective x 4 stages");
}

#[test]
fn em_distributed_matches_serial() {
    let input = em_deck(0.02);
    let mut serial = serial_simulation(&input);
    serial.run_steps(4);
    let dims = input.dims();
    let grid = ProcGrid::new(2, 2);
    let shards = World::new(grid.size()).run(|comm| {
        let rank = comm.rank();
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.run_steps(4);
        (xg_tensor::PhaseLayout::new(dims, grid, rank), sim.h().clone())
    });
    let mut global = xg_tensor::Tensor3::new(dims.nc, dims.nv, dims.nt);
    for (layout, h) in shards {
        for ic in 0..dims.nc {
            for (ivl, iv) in layout.nv_range().enumerate() {
                for (itl, it) in layout.nt_range().enumerate() {
                    global[(ic, iv, it)] = h[(ic, ivl, itl)];
                }
            }
        }
    }
    let dev = max_deviation(serial.h().as_slice(), global.as_slice());
    assert!(dev < 1e-12, "EM distributed deviation {dev}");
}


#[test]
fn current_moment_is_odd_parity_for_even_h() {
    // An h even in v∥ carries no parallel current: A∥ solve must return 0.
    use xg_sim::field::FieldSolver;
    use xg_sim::geometry::Geometry;
    use xg_sim::grid::{ConfigGrid, VelocityGrid};
    use xg_linalg::Complex64;

    let input = em_deck(0.01);
    let v = VelocityGrid::new(&input);
    let cfg = ConfigGrid::new(&input);
    let geo = Geometry::new(&input, &cfg);
    let mut fs = FieldSolver::new(&input, &v, &cfg, &geo, 0..v.nv(), 0..input.n_toroidal);
    assert!(fs.em_enabled());
    // h depends only on (species, energy) — even in pitch.
    let h = xg_tensor::Tensor3::from_fn(cfg.nc(), v.nv(), input.n_toroidal, |_, iv, _| {
        let (is, ie, _) = v.unflatten(iv);
        Complex64::new((is + ie) as f64 + 1.0, 0.5)
    });
    // The stage sweep's middle section is the current moment.
    let n = cfg.nc() * input.n_toroidal;
    let mut fused = vec![Complex64::ZERO; fs.moment_sections() * n];
    fs.partial_moments(&h, &vec![1.0; v.nv()], &mut fused);
    for z in &fused[n..2 * n] {
        assert!(z.abs() < 1e-10, "even-parity h must carry no current: {z}");
    }
}
