//! Ensemble checkpoints refuse what is not theirs: another ensemble's
//! image, or a corrupt one. That an interrupted-and-resumed run is bitwise
//! the uninterrupted one is the contract's `cuts_*` and `resume_*` rows
//! (`tests/contract.rs`).

use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run_xgyro_checkpointed, CheckpointError, EnsembleCheckpoint};

#[test]
fn wrong_ensemble_checkpoints_refused() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let (_, cp) = run_xgyro_checkpointed(&cfg, 1, None).unwrap();

    // Different physics (cmat key) is refused.
    let mut other = base.clone();
    other.nu_ee *= 3.0;
    let cfg2 = gradient_sweep(&other, 2, ProcGrid::new(2, 1));
    let err = run_xgyro_checkpointed(&cfg2, 1, Some(&cp)).unwrap_err();
    assert_eq!(err, CheckpointError::WrongEnsemble);

    // Different k is refused.
    let cfg3 = gradient_sweep(&base, 3, ProcGrid::new(2, 1));
    let err = run_xgyro_checkpointed(&cfg3, 1, Some(&cp)).unwrap_err();
    assert_eq!(err, CheckpointError::WrongEnsemble);
}

#[test]
fn corrupt_images_rejected() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let (_, cp) = run_xgyro_checkpointed(&cfg, 1, None).unwrap();
    let bytes = cp.to_bytes();

    let mut bad = bytes.clone();
    bad[0] = b'Y';
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bad),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bytes[..bytes.len() - 4]),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bytes[..10]),
        Err(CheckpointError::Corrupt(_))
    ));
}
