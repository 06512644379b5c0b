//! Degraded-mode recovery refuses what it cannot recover: the last
//! member's eviction and a foreign checkpoint. That survivors of a fault
//! equal their standalone runs, bit for bit, is the contract's `fault_*`
//! rows (`tests/contract.rs`).

use std::time::Duration;
use xg_comm::FaultPlan;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run_xgyro_resilient_from, EnsembleError};

const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn evicting_the_last_member_is_an_error() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 1, ProcGrid::new(1, 1));
    assert_eq!(cfg.evict_member(0).unwrap_err(), EnsembleError::Empty);

    // And a crash in a k=1 "ensemble" is unrecoverable end-to-end.
    let err = run_xgyro_resilient_from(&cfg, None, 4, 2, FaultPlan::crash(0, 3), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, xgyro_core::RecoveryError::Ensemble(EnsembleError::Empty)));
}

#[test]
fn resume_rejects_a_foreign_checkpoint() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let seg = xgyro_core::run_xgyro_resilient_from(
        &cfg,
        None,
        2,
        2,
        FaultPlan::new(),
        DEADLINE,
    )
    .expect("clean run");
    // A different collisionality is a different ensemble identity.
    let mut hot = base.clone();
    hot.nu_ee *= 2.0;
    let other = gradient_sweep(&hot, 2, ProcGrid::new(1, 1));
    let err = xgyro_core::run_xgyro_resilient_from(
        &other,
        Some(seg.checkpoint),
        2,
        2,
        FaultPlan::new(),
        DEADLINE,
    )
    .unwrap_err();
    assert!(matches!(err, xgyro_core::RecoveryError::Checkpoint(_)), "{err}");
}
