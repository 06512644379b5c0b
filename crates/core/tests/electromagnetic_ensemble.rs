//! Electromagnetic ensembles: beta scans are admissible (beta is not a
//! cmat input). That the shared-cmat exchange stays exact with A∥ on is the
//! contract's `em_*` rows (`tests/contract.rs`).

use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::EnsembleConfig;

fn em_deck(beta: f64) -> CgyroInput {
    let mut input = CgyroInput::test_small();
    input.beta_e = beta;
    input
}

#[test]
fn beta_scan_is_admissible() {
    let cfg = EnsembleConfig::new(
        vec![em_deck(0.0), em_deck(0.005), em_deck(0.02)],
        ProcGrid::new(2, 1),
    )
    .expect("beta scan must share cmat");
    assert_eq!(cfg.k(), 3);
}
