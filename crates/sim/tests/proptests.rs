//! Property-based tests of the physics substrate: conservation laws,
//! propagator stability, key invariance and deck round-trips must hold for
//! *arbitrary* valid inputs, not just the presets.

use proptest::prelude::*;
use xg_sim::grid::VelocityGrid;
use xg_sim::{parse_deck, write_deck, CgyroInput, CollisionOperator, Species};

/// Strategy: a random valid small input deck.
fn deck_strategy() -> impl Strategy<Value = CgyroInput> {
    (
        2usize..5,           // n_radial
        4usize..9,           // n_theta
        3usize..7,           // n_xi
        2usize..5,           // n_energy
        1usize..4,           // n_toroidal
        0.0f64..2.0,         // nu_ee
        0.5f64..4.0,         // q
        0.0f64..2.0,         // shear
        1usize..4,           // n_species
        0u64..1000,          // seed
    )
        .prop_map(
            |(nr, nth, nxi, nen, nt, nu, q, shear, ns, seed)| {
                let species = (0..ns)
                    .map(|i| Species {
                        name: format!("s{i}"),
                        mass: [1.0, 0.0005, 6.0][i],
                        z: [1.0, -1.0, 6.0][i],
                        temp: 1.0 + 0.2 * i as f64,
                        dens: 1.0 / (i + 1) as f64,
                        rln: 1.0,
                        rlt: 2.5,
                    })
                    .collect();
                CgyroInput {
                    n_radial: nr,
                    n_theta: nth,
                    n_xi: nxi,
                    n_energy: nen,
                    n_toroidal: nt,
                    species,
                    nu_ee: nu,
                    q,
                    shear,
                    kappa: 1.0,
                    delta: 0.0,
                    ky_min: 0.3,
                    kx_min: 0.1,
                    delta_t: 0.01,
                    steps_per_report: 10,
                    nonlinear_coupling: 0.0,
                    beta_e: 0.0,
                    upwind_diss: 0.1,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn collision_operator_conserves_density_for_any_deck(input in deck_strategy()) {
        let v = VelocityGrid::new(&input);
        let op = CollisionOperator::build(&input, &v);
        let c = op.matrix_at(0.0);
        // Weighted column sums over each species block must vanish.
        for is in 0..v.n_species {
            let f: Vec<f64> = (0..v.nv()).map(|iv| ((iv * 7 + 3) as f64).sin()).collect();
            let mut cf = vec![0.0; v.nv()];
            xg_linalg::matvec(&c, &f, &mut cf);
            let mut dens = 0.0;
            for ie in 0..v.n_energy() {
                for ix in 0..v.n_xi() {
                    let iv = v.flatten(is, ie, ix);
                    dens += v.weight(iv) * cf[iv];
                }
            }
            prop_assert!(dens.abs() < 1e-9, "species {is}: {dens}");
        }
    }

    #[test]
    fn propagator_contracts_for_any_deck_and_kperp(
        input in deck_strategy(),
        kperp2 in 0.0f64..10.0,
    ) {
        let v = VelocityGrid::new(&input);
        let op = CollisionOperator::build(&input, &v);
        let c = op.matrix_at(kperp2);
        let mut lhs = c.clone();
        lhs.scale_inplace(-0.5 * input.delta_t);
        lhs.add_scaled_identity(1.0);
        let mut rhs = c;
        rhs.scale_inplace(0.5 * input.delta_t);
        rhs.add_scaled_identity(1.0);
        let a = xg_linalg::LuFactors::factorize(lhs).unwrap().solve_matrix(&rhs);
        // The propagator is symmetric after the sqrt-weight similarity
        // transform; measure the spectral radius there, where power
        // iteration in the Euclidean norm is exact (non-normality in the
        // unweighted space would otherwise make the estimate overshoot).
        let nv = v.nv();
        let sw: Vec<f64> = (0..nv).map(|iv| v.weight(iv).sqrt()).collect();
        let a_sym = xg_linalg::RealMatrix::from_fn(nv, nv, |i, j| {
            a[(i, j)] * sw[i] / sw[j]
        });
        let (rho, _) = xg_linalg::spectral_radius(&a_sym, 1e-10, 5000);
        prop_assert!(rho <= 1.0 + 1e-6, "rho = {rho}");
    }

    #[test]
    fn cmat_key_invariant_under_sweep_parameters(
        input in deck_strategy(),
        rln in -5.0f64..5.0,
        rlt in -5.0f64..10.0,
        coupling in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let k0 = input.cmat_key();
        let mut v = input.with_gradients(rln, rlt).with_seed(seed);
        v.nonlinear_coupling = coupling;
        prop_assert_eq!(v.cmat_key(), k0);
    }

    #[test]
    fn cmat_key_sensitive_to_physics(input in deck_strategy(), bump in 1.0001f64..2.0) {
        let k0 = input.cmat_key();
        let mut v = input.clone();
        v.nu_ee = v.nu_ee * bump + 0.001; // ensure an actual change
        prop_assert_ne!(v.cmat_key(), k0);
        let mut v = input.clone();
        v.delta_t *= bump;
        prop_assert_ne!(v.cmat_key(), k0);
    }

    #[test]
    fn deck_roundtrip_for_any_input(input in deck_strategy()) {
        let text = write_deck(&input);
        let back = parse_deck(&text).unwrap();
        prop_assert_eq!(&back, &input);
        prop_assert_eq!(back.cmat_key(), input.cmat_key());
    }

    #[test]
    fn initial_condition_is_layout_invariant(
        input in deck_strategy(),
        ic in 0usize..64,
        iv in 0usize..64,
        it in 0usize..8,
    ) {
        // The seeded IC is a pure function of global indices — the basis
        // of cross-decomposition equivalence.
        let a = xg_sim::initial_value(input.seed, ic, iv, it);
        let b = xg_sim::initial_value(input.seed, ic, iv, it);
        prop_assert_eq!(a, b);
        prop_assert!(a.abs() < 2e-3);
    }
}
