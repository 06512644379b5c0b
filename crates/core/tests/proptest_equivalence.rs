//! Property-based version of the headline experiment: for randomized
//! decks (grid shapes, species, collisionality, physics switches),
//! ensemble sizes and process grids, the XGYRO ensemble must reproduce the
//! independent CGYRO runs bitwise. Few cases — each runs two full
//! multi-threaded ensembles — but the case space is the point.

use proptest::prelude::*;
use xg_sim::{CgyroInput, Species};
use xg_tensor::ProcGrid;
use xgyro_core::{run_cgyro_baseline, run_xgyro, EnsembleConfig};

fn deck_strategy() -> impl Strategy<Value = CgyroInput> {
    (
        1usize..3,   // n_radial
        4usize..7,   // n_theta (stencil needs >= 4)
        2usize..5,   // n_xi
        2usize..4,   // n_energy
        1usize..4,   // n_toroidal
        0.0f64..0.5, // nu_ee
        0.0f64..0.2, // nonlinear coupling
        prop_oneof![Just(0.0f64), 0.001f64..0.02], // beta_e
        1usize..3,   // n_species
        0u64..100,   // seed
    )
        .prop_map(|(nr, nth, nxi, nen, nt, nu, cnl, beta, ns, seed)| CgyroInput {
            n_radial: nr,
            n_theta: nth,
            n_xi: nxi,
            n_energy: nen,
            n_toroidal: nt,
            species: (0..ns)
                .map(|i| Species {
                    name: format!("s{i}"),
                    mass: [1.0, 0.0005][i],
                    z: [1.0, -1.0][i],
                    temp: 1.0,
                    dens: 1.0,
                    rln: 1.0,
                    rlt: 2.5,
                })
                .collect(),
            nu_ee: nu,
            q: 2.0,
            shear: 0.7,
            kappa: 1.2,
            delta: 0.1,
            ky_min: 0.3,
            kx_min: 0.1,
            delta_t: 0.01,
            steps_per_report: 5,
            nonlinear_coupling: cnl,
            beta_e: beta,
            upwind_diss: 0.1,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, max_shrink_iters: 16, ..ProptestConfig::default() })]

    #[test]
    fn xgyro_equals_cgyro_for_random_configurations(
        base in deck_strategy(),
        k in 1usize..4,
        n1 in 1usize..4,
        n2 in 1usize..3,
    ) {
        let dims = base.dims();
        prop_assume!(n1 <= dims.nv && n2 <= dims.nt);
        let grid = ProcGrid::new(n1, n2);
        let members: Vec<CgyroInput> = (0..k)
            .map(|i| {
                base.with_gradients(0.5 + i as f64, 2.0 + 0.5 * i as f64)
                    .with_seed(base.seed + i as u64)
            })
            .collect();
        let cfg = EnsembleConfig::new(members, grid).expect("sweep is admissible");
        let steps = 3;
        let xg = run_xgyro(&cfg, steps);
        let cg = run_cgyro_baseline(&cfg, steps);
        for (x, c) in xg.sims.iter().zip(&cg.sims) {
            prop_assert_eq!(
                x.h.as_slice(),
                c.h.as_slice(),
                "sim {} diverged (deck: nc={} nv={} nt={}, grid {}x{}, k={})",
                x.sim, dims.nc, dims.nv, dims.nt, n1, n2, k
            );
            // Finite, nontrivial trajectories (the equivalence must not be
            // vacuous 0 == 0).
            prop_assert!(x.h.as_slice().iter().all(|z| z.is_finite()));
            prop_assert!(x.diagnostics.h_norm2 > 0.0);
        }
    }
}
