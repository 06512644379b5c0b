//! A complete small research campaign, end to end, the way XGYRO is used
//! in practice:
//!
//! 1. write CGYRO-style `input.cgyro` decks for a temperature-gradient
//!    scan into per-simulation directories;
//! 2. load them back as an XGYRO ensemble (admission-checked);
//! 3. run the ensemble, with a checkpoint/restart in the middle, beside
//!    per-member serial references that record per-report diagnostics;
//! 4. fit linear growth rates from the field-energy traces and print the
//!    scan result (γ vs a/L_T — the critical-gradient picture).
//!
//! ```sh
//! cargo run --release --example growth_rate_study
//! ```

use xgyro_repro::sim::{save_deck, serial_simulation, CgyroInput, History};
use xgyro_repro::tensor::ProcGrid;
use xgyro_repro::xgyro::{run_xgyro, run_xgyro_checkpointed, EnsembleCheckpoint, EnsembleConfig};

fn main() {
    // 1. Write the scan decks to disk.
    let scan_rlt = [0.0, 3.0, 6.0, 9.0];
    let workdir = std::env::temp_dir().join("xgyro_growth_rate_study");
    let mut dirs = Vec::new();
    for (i, &rlt) in scan_rlt.iter().enumerate() {
        let mut deck = CgyroInput::test_small();
        deck.nonlinear_coupling = 0.0; // linear scan
        deck.nu_ee = 0.05;
        deck.steps_per_report = 25;
        for s in &mut deck.species {
            s.rln = 1.0;
            s.rlt = rlt;
        }
        let dir = workdir.join(format!("variant_{i}"));
        std::fs::create_dir_all(&dir).expect("create variant dir");
        save_deck(&deck, &dir.join("input.cgyro")).expect("write deck");
        dirs.push(dir);
    }
    println!("wrote {} decks under {}", dirs.len(), workdir.display());

    // 2. Load as an ensemble (this runs the cmat-key admission check:
    //    gradient scans always pass).
    let grid = ProcGrid::new(2, 1);
    let cfg = EnsembleConfig::from_deck_dirs(&dirs, grid).expect("scan shares cmat");
    println!(
        "ensemble admitted: k={}, {} ranks, shared cmat key {:#018x}",
        cfg.k(),
        cfg.total_ranks(),
        cfg.cmat_key()
    );

    // 3. Run: serial per-member reference histories, then the ensemble
    //    with a checkpoint/restart halfway (validated against the
    //    uninterrupted ensemble and the serial reference).
    let reports = 20usize;
    let histories: Vec<History> = cfg
        .members()
        .iter()
        .map(|member| {
            let mut sim = serial_simulation(member);
            let mut hist = History::new();
            for _ in 0..reports {
                hist.push(sim.run_report_step());
            }
            hist
        })
        .collect();

    let steps_total = reports * cfg.members()[0].steps_per_report;
    let xg = run_xgyro(&cfg, steps_total);
    // Checkpoint round-trip mid-run; resume must be bitwise.
    let half = steps_total / 2;
    let (_, cp) = run_xgyro_checkpointed(&cfg, half, None).expect("fresh run");
    let cp = EnsembleCheckpoint::from_bytes(&cp.to_bytes()).expect("checkpoint intact");
    let (resumed, _) =
        run_xgyro_checkpointed(&cfg, steps_total - half, Some(&cp)).expect("same ensemble");
    for (a, b) in resumed.sims.iter().zip(&xg.sims) {
        assert_eq!(a.h.as_slice(), b.h.as_slice(), "sim {} must resume bitwise", a.sim);
    }

    // Cross-check one member against the serial reference.
    let mut check = serial_simulation(&cfg.members()[1]);
    check.run_steps(steps_total);
    let dev = xgyro_repro::linalg::norms::max_deviation(
        check.h().as_slice(),
        xg.sims[1].h.as_slice(),
    );
    assert!(dev < 1e-10, "ensemble deviates from reference: {dev}");

    // 4. The scan result.
    println!("\n  a/L_T    growth rate gamma   final |phi|^2");
    for (hist, &rlt) in histories.iter().zip(&scan_rlt) {
        let gamma = hist.growth_rate(12).expect("positive energies");
        let last = hist.entries().last().unwrap();
        println!("  {:>5.1}    {:>+16.4}   {:>12.3e}", rlt, gamma, last.field_energy);
    }
    println!("\n(growth rate rises with the temperature gradient; the rlt=0 case decays —");
    println!(" the ITG-like critical-gradient behaviour the paper's ensembles scan for)");

    std::fs::remove_dir_all(&workdir).ok();
}
