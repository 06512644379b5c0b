//! The canonical deck hash: one submission's semantic identity.
//!
//! Two submissions get the same [`DeckHash`] **iff** the simulation they
//! request is bit-for-bit the same computation. The hash is taken over the
//! *parsed* [`CgyroInput`] — not the deck text — so canonicalization is
//! inherited from `xg_sim::parse_deck`: key order, whitespace, case and
//! comments cannot split the cache. The requested total step count is part
//! of the identity (running the same deck longer is different work).
//!
//! Exclusions mirror (and extend) the `cmat_key` discipline: a knob that
//! provably cannot change the result bits must not fragment the cache.
//!
//! * Species display names — labels for reports, never used in physics.
//! * Decomposition / coll cuts — *runtime placement*, not submission
//!   identity: the decomp-matrix CI proves ragged coll splits are
//!   bitwise-neutral, and the batch size a job lands in is unknowable at
//!   admission time. The layout a run actually used is recorded in its
//!   [`crate::Manifest`] as provenance instead.
//!
//! Everything else is included — in particular the fields `cmat_key`
//! deliberately leaves out (gradient drives, `nonlinear_coupling`,
//! `beta_e`, `upwind_diss`, `seed`, `steps_per_report`): they don't change
//! the collision tensor, but they absolutely change the answer.

use crate::fnv1a;
use xg_sim::CgyroInput;

/// Version tag baked into every hash (and its rendering): bump it if the
/// field list or encoding ever changes, so a new binary can never serve a
/// stale store's entries under a silently different identity.
const VERSION_TAG: &str = "xgd1";

/// The canonical semantic identity of one submission. Renders as
/// `xgd1-<16 hex digits>` and round-trips through [`std::str::FromStr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeckHash(pub u64);

impl std::fmt::Display for DeckHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{VERSION_TAG}-{:016x}", self.0)
    }
}

impl std::str::FromStr for DeckHash {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex = s
            .strip_prefix(VERSION_TAG)
            .and_then(|r| r.strip_prefix('-'))
            .ok_or_else(|| format!("'{s}' is not a deck hash (expected {VERSION_TAG}-<16 hex>)"))?;
        if hex.len() != 16 {
            return Err(format!("'{s}': expected 16 hex digits, got {}", hex.len()));
        }
        u64::from_str_radix(hex, 16)
            .map(DeckHash)
            .map_err(|_| format!("'{s}': bad hex digits"))
    }
}

/// Incremental field-tagged FNV-1a: each field contributes its name (so a
/// future field reordering cannot alias two different inputs) followed by
/// its value bits.
struct Tagged {
    h: u64,
}

impl Tagged {
    fn new() -> Self {
        Self { h: fnv1a(VERSION_TAG.as_bytes()) }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, tag: &str, v: u64) {
        self.mix(tag.as_bytes());
        self.mix(&v.to_le_bytes());
    }

    fn f64(&mut self, tag: &str, v: f64) {
        self.u64(tag, v.to_bits());
    }
}

/// The canonical deck hash of `(input, steps)`. See the module docs for
/// the inclusion/exclusion rules; the golden-hash snapshot test pins the
/// exact encoding.
pub fn deck_hash(input: &CgyroInput, steps: usize) -> DeckHash {
    let mut t = Tagged::new();
    // Grid shapes.
    t.u64("n_radial", input.n_radial as u64);
    t.u64("n_theta", input.n_theta as u64);
    t.u64("n_xi", input.n_xi as u64);
    t.u64("n_energy", input.n_energy as u64);
    t.u64("n_toroidal", input.n_toroidal as u64);
    // Species: physics fields only — display names excluded.
    t.u64("n_species", input.species.len() as u64);
    for s in &input.species {
        t.f64("mass", s.mass);
        t.f64("z", s.z);
        t.f64("temp", s.temp);
        t.f64("dens", s.dens);
        t.f64("rln", s.rln);
        t.f64("rlt", s.rlt);
    }
    // Collision/geometry inputs (the cmat_key list).
    t.f64("nu_ee", input.nu_ee);
    t.f64("q", input.q);
    t.f64("shear", input.shear);
    t.f64("kappa", input.kappa);
    t.f64("delta", input.delta);
    t.f64("ky_min", input.ky_min);
    t.f64("kx_min", input.kx_min);
    t.f64("delta_t", input.delta_t);
    // Result-bearing fields cmat_key deliberately excludes.
    t.f64("nonlinear_coupling", input.nonlinear_coupling);
    t.f64("beta_e", input.beta_e);
    t.f64("upwind_diss", input.upwind_diss);
    t.u64("seed", input.seed);
    t.u64("steps_per_report", input.steps_per_report as u64);
    // The request itself.
    t.u64("steps", steps as u64);
    DeckHash(t.h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips() {
        let h = DeckHash(0xdead_beef_0123_4567);
        assert_eq!(h.to_string(), "xgd1-deadbeef01234567");
        assert_eq!(h.to_string().parse::<DeckHash>().unwrap(), h);
        assert!("xgd2-deadbeef01234567".parse::<DeckHash>().is_err());
        assert!("xgd1-beef".parse::<DeckHash>().is_err());
        assert!("xgd1-zzzzzzzzzzzzzzzz".parse::<DeckHash>().is_err());
    }

    #[test]
    fn species_names_are_excluded() {
        let base = CgyroInput::test_small();
        let mut renamed = base.clone();
        renamed.species[0].name = "tritium".into();
        assert_eq!(deck_hash(&base, 10), deck_hash(&renamed, 10));
    }

    #[test]
    fn result_bearing_fields_are_included() {
        let base = CgyroInput::test_small();
        let h = deck_hash(&base, 10);
        assert_ne!(h, deck_hash(&base, 20), "step count is identity");
        assert_ne!(h, deck_hash(&base.with_seed(base.seed + 1), 10));
        assert_ne!(h, deck_hash(&base.with_gradients(9.0, 9.0), 10));
        let mut cadence = base.clone();
        cadence.steps_per_report = base.steps_per_report * 2;
        assert_ne!(h, deck_hash(&cadence, 10));
    }
}
