//! Long-horizon stability: a strongly driven nonlinear deck stays bounded
//! over 1000 steps.

use xg_sim::CgyroInput;

#[test]
fn thousand_step_nonlinear_soak_stays_bounded() {
    let mut input = CgyroInput::test_small();
    input.nonlinear_coupling = 0.3;
    input.nu_ee = 0.1;
    input.steps_per_report = 100;
    for s in &mut input.species {
        s.rlt = 9.0;
    }
    let mut sim = xg_sim::serial_simulation(&input);
    for r in 0..10 {
        let d = sim.run_report_step();
        assert!(
            d.h_norm2.is_finite() && d.h_norm2 < 1e9,
            "diverged at report {r}: {d:?}"
        );
    }
}
