//! CGYRO-style input deck files.
//!
//! The production code reads `input.cgyro`: one `KEY=VALUE` per line, `#`
//! comments, species blocks indexed by number. This module provides a
//! faithful-enough text format so ensembles can be described on disk the
//! way XGYRO consumes them (a list of per-simulation input directories):
//!
//! ```text
//! # input.cgyro
//! N_RADIAL=4
//! N_THETA=8
//! N_XI=4
//! N_ENERGY=3
//! N_TOROIDAL=2
//! NU_EE=0.1
//! Q=2.0
//! S=1.0
//! KY=0.3
//! KX=0.1
//! DELTA_T=0.01
//! STEPS_PER_REPORT=10
//! NL_COUPLING=0.05
//! UPWIND_DISS=0.1
//! SEED=1
//! N_SPECIES=2
//! SPECIES_1_NAME=D
//! SPECIES_1_MASS=1.0
//! SPECIES_1_Z=1.0
//! SPECIES_1_TEMP=1.0
//! SPECIES_1_DENS=1.0
//! SPECIES_1_DLNNDR=1.0
//! SPECIES_1_DLNTDR=2.5
//! ```

use crate::input::{CgyroInput, Species};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A deck parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct DeckError {
    /// 1-based line number when applicable (0 = whole-file problem).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for DeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "input deck line {}: {}", self.line, self.message)
        } else {
            write!(f, "input deck: {}", self.message)
        }
    }
}

impl std::error::Error for DeckError {}

fn err(line: usize, message: impl Into<String>) -> DeckError {
    DeckError { line, message: message.into() }
}

/// Parse an `input.cgyro`-style deck from text.
pub fn parse_deck(text: &str) -> Result<CgyroInput, DeckError> {
    let mut kv: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected KEY=VALUE, got '{line}'")));
        };
        let key = k.trim().to_ascii_uppercase();
        if kv.insert(key.clone(), (line_no, v.trim().to_string())).is_some() {
            return Err(err(line_no, format!("duplicate key '{key}'")));
        }
    }

    fn get_num<T: std::str::FromStr>(
        kv: &BTreeMap<String, (usize, String)>,
        key: &str,
    ) -> Result<T, DeckError> {
        let (line, v) = kv
            .get(key)
            .ok_or_else(|| err(0, format!("missing required key '{key}'")))?;
        v.parse::<T>().map_err(|_| err(*line, format!("cannot parse '{v}' for '{key}'")))
    }
    fn get_num_or<T: std::str::FromStr>(
        kv: &BTreeMap<String, (usize, String)>,
        key: &str,
        default: T,
    ) -> Result<T, DeckError> {
        match kv.get(key) {
            None => Ok(default),
            Some((line, v)) => {
                v.parse::<T>().map_err(|_| err(*line, format!("cannot parse '{v}' for '{key}'")))
            }
        }
    }

    let n_species: usize = get_num(&kv, "N_SPECIES")?;
    if n_species == 0 {
        return Err(err(0, "N_SPECIES must be at least 1"));
    }
    let mut species = Vec::with_capacity(n_species);
    for s in 1..=n_species {
        let name = kv
            .get(&format!("SPECIES_{s}_NAME"))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| format!("s{s}"));
        species.push(Species {
            name,
            mass: get_num(&kv, &format!("SPECIES_{s}_MASS"))?,
            z: get_num(&kv, &format!("SPECIES_{s}_Z"))?,
            temp: get_num(&kv, &format!("SPECIES_{s}_TEMP"))?,
            dens: get_num(&kv, &format!("SPECIES_{s}_DENS"))?,
            rln: get_num_or(&kv, &format!("SPECIES_{s}_DLNNDR"), 1.0)?,
            rlt: get_num_or(&kv, &format!("SPECIES_{s}_DLNTDR"), 2.5)?,
        });
    }

    let input = CgyroInput {
        n_radial: get_num(&kv, "N_RADIAL")?,
        n_theta: get_num(&kv, "N_THETA")?,
        n_xi: get_num(&kv, "N_XI")?,
        n_energy: get_num(&kv, "N_ENERGY")?,
        n_toroidal: get_num(&kv, "N_TOROIDAL")?,
        species,
        nu_ee: get_num(&kv, "NU_EE")?,
        q: get_num_or(&kv, "Q", 2.0)?,
        shear: get_num_or(&kv, "S", 1.0)?,
        kappa: get_num_or(&kv, "KAPPA", 1.0)?,
        delta: get_num_or(&kv, "DELTA", 0.0)?,
        ky_min: get_num_or(&kv, "KY", 0.3)?,
        kx_min: get_num_or(&kv, "KX", 0.1)?,
        delta_t: get_num(&kv, "DELTA_T")?,
        steps_per_report: get_num_or(&kv, "STEPS_PER_REPORT", 100)?,
        nonlinear_coupling: get_num_or(&kv, "NL_COUPLING", 0.0)?,
        beta_e: get_num_or(&kv, "BETAE", 0.0)?,
        upwind_diss: get_num_or(&kv, "UPWIND_DISS", 0.1)?,
        seed: get_num_or(&kv, "SEED", 1)?,
    };
    input.validate().map_err(|m| err(0, m))?;

    // Reject unknown keys (typos silently changing physics are the classic
    // deck bug).
    for (key, (line, _)) in &kv {
        let known = matches!(
            key.as_str(),
            "N_RADIAL" | "N_THETA" | "N_XI" | "N_ENERGY" | "N_TOROIDAL" | "NU_EE" | "Q" | "S"
                | "KAPPA" | "DELTA" | "KY" | "KX" | "DELTA_T" | "STEPS_PER_REPORT" | "NL_COUPLING" | "BETAE"
                | "UPWIND_DISS" | "SEED" | "N_SPECIES"
                // Legacy key, accepted and ignored: older `write_deck`s
                // emitted it, so journaled deck text still carries it.
                | "REDUCE_ALGO"
        ) || key.starts_with("SPECIES_");
        if !known {
            return Err(err(*line, format!("unknown key '{key}'")));
        }
    }
    Ok(input)
}

/// Render an input back to deck text (round-trips through [`parse_deck`]).
pub fn write_deck(input: &CgyroInput) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# generated by xgyro-repro");
    let _ = writeln!(out, "N_RADIAL={}", input.n_radial);
    let _ = writeln!(out, "N_THETA={}", input.n_theta);
    let _ = writeln!(out, "N_XI={}", input.n_xi);
    let _ = writeln!(out, "N_ENERGY={}", input.n_energy);
    let _ = writeln!(out, "N_TOROIDAL={}", input.n_toroidal);
    let _ = writeln!(out, "NU_EE={}", input.nu_ee);
    let _ = writeln!(out, "Q={}", input.q);
    let _ = writeln!(out, "S={}", input.shear);
    let _ = writeln!(out, "KAPPA={}", input.kappa);
    let _ = writeln!(out, "DELTA={}", input.delta);
    let _ = writeln!(out, "KY={}", input.ky_min);
    let _ = writeln!(out, "KX={}", input.kx_min);
    let _ = writeln!(out, "DELTA_T={}", input.delta_t);
    let _ = writeln!(out, "STEPS_PER_REPORT={}", input.steps_per_report);
    let _ = writeln!(out, "NL_COUPLING={}", input.nonlinear_coupling);
    let _ = writeln!(out, "BETAE={}", input.beta_e);
    let _ = writeln!(out, "UPWIND_DISS={}", input.upwind_diss);
    let _ = writeln!(out, "SEED={}", input.seed);
    let _ = writeln!(out, "N_SPECIES={}", input.species.len());
    for (i, s) in input.species.iter().enumerate() {
        let n = i + 1;
        let _ = writeln!(out, "SPECIES_{n}_NAME={}", s.name);
        let _ = writeln!(out, "SPECIES_{n}_MASS={}", s.mass);
        let _ = writeln!(out, "SPECIES_{n}_Z={}", s.z);
        let _ = writeln!(out, "SPECIES_{n}_TEMP={}", s.temp);
        let _ = writeln!(out, "SPECIES_{n}_DENS={}", s.dens);
        let _ = writeln!(out, "SPECIES_{n}_DLNNDR={}", s.rln);
        let _ = writeln!(out, "SPECIES_{n}_DLNTDR={}", s.rlt);
    }
    out
}

/// Read a deck from a file path.
pub fn load_deck(path: &std::path::Path) -> Result<CgyroInput, DeckError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
    parse_deck(&text)
}

/// Save a deck to a file path.
pub fn save_deck(input: &CgyroInput, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_deck(input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_everything() {
        for input in [
            CgyroInput::test_small(),
            CgyroInput::test_medium(),
            CgyroInput::nl03c_like(),
        ] {
            let text = write_deck(&input);
            let back = parse_deck(&text).unwrap();
            assert_eq!(back, input);
            assert_eq!(back.cmat_key(), input.cmat_key());
        }
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let base = CgyroInput::test_small();
        let mut text = write_deck(&base);
        text.push_str("\n# trailing comment\n   \n");
        let text = text.replace("NU_EE=0.1", "  NU_EE = 0.1   # collisions");
        assert_eq!(parse_deck(&text).unwrap(), base);
    }

    #[test]
    fn missing_key_reports_name() {
        let text = write_deck(&CgyroInput::test_small()).replace("DELTA_T=0.01\n", "");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.message.contains("DELTA_T"), "{e}");
    }

    #[test]
    fn bad_value_reports_line() {
        let text = write_deck(&CgyroInput::test_small()).replace("NU_EE=0.1", "NU_EE=banana");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.line > 0);
        assert!(e.message.contains("banana"), "{e}");
    }

    #[test]
    fn unknown_key_rejected() {
        let mut text = write_deck(&CgyroInput::test_small());
        text.push_str("N_RADIAL_TYPO=4\n");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.message.contains("unknown key"), "{e}");
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut text = write_deck(&CgyroInput::test_small());
        text.push_str("NU_EE=0.2\n");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn malformed_line_rejected() {
        let mut text = write_deck(&CgyroInput::test_small());
        text.push_str("THIS IS NOT A KEY VALUE PAIR\n");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.message.contains("KEY=VALUE"), "{e}");
    }

    #[test]
    fn invalid_physics_rejected_via_validate() {
        let text = write_deck(&CgyroInput::test_small()).replace("DELTA_T=0.01", "DELTA_T=-1");
        let e = parse_deck(&text).unwrap_err();
        assert!(e.message.contains("positive"), "{e}");
    }

    #[test]
    fn optional_keys_take_defaults() {
        let text = "\
N_RADIAL=4\nN_THETA=8\nN_XI=4\nN_ENERGY=3\nN_TOROIDAL=2\nNU_EE=0.1\nDELTA_T=0.01\n\
N_SPECIES=1\nSPECIES_1_MASS=1.0\nSPECIES_1_Z=1.0\nSPECIES_1_TEMP=1.0\nSPECIES_1_DENS=1.0\n";
        let input = parse_deck(text).unwrap();
        assert_eq!(input.q, 2.0);
        assert_eq!(input.steps_per_report, 100);
        assert_eq!(input.species[0].name, "s1");
        assert_eq!(input.species[0].rln, 1.0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("xgyro_deck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.cgyro");
        let input = CgyroInput::test_medium();
        save_deck(&input, &path).unwrap();
        let back = load_deck(&path).unwrap();
        assert_eq!(back, input);
        std::fs::remove_dir_all(&dir).ok();
    }
}
