//! `xgplan` end to end on the shipped small deck: the sections it prints,
//! the ones it no longer prints, and usage errors (not panics) for counts
//! below 1.

use std::process::{Command, Output};

const DECK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/decks/small.cgyro");

fn xgplan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xgplan"))
        .args(["--deck", DECK])
        .args(args)
        .output()
        .expect("xgplan starts")
}

#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--variants", "--reports", "--nodes"] {
        let out = xgplan(&[flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert!(stderr.contains("usage: xgplan"), "{flag} 0: {stderr}");
    }
}

#[test]
fn a_plan_prints_the_kept_sections_only() {
    for args in [&[][..], &["--nodes", "4", "--variants", "8"][..]] {
        let out = xgplan(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        for kept in [
            "deck: nc=32 nv=24 nt=2",
            "minimum single-simulation allocation: 1 nodes",
            "ensemble forecast on",
            "  k     feasible   s/report   speedup   cmat-saved(TB)",
            "cheapest batching for 8 variants x 10 reports",
        ] {
            assert!(stdout.contains(kept), "{args:?}: missing {kept:?} in\n{stdout}");
        }
        for gone in ["ETTS", "MTBF", "journal sync"] {
            assert!(!stdout.contains(gone), "{args:?}: {gone:?} is back in\n{stdout}");
        }
    }
}
