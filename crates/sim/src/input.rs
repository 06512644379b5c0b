//! Simulation input parameters, presets, and the `cmat` dependency key.
//!
//! The paper's key observation (§1): "a careful analysis of *cmat*
//! construction shows that only a subset of the input parameters influences
//! its value, and there are many fusion studies that do not change them
//! between simulation runs." [`CgyroInput::cmat_key`] hashes exactly that
//! subset — grids, species parameters, collision frequency, geometry — and
//! excludes the gradient drives that parameter-sweep ensembles vary. XGYRO
//! accepts an ensemble if and only if all members share one `cmat` key.

use serde::{Deserialize, Serialize};
use xg_tensor::SimDims;

/// One plasma species.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Species {
    /// Name for reports (`"D"`, `"e"`, …).
    pub name: String,
    /// Mass relative to the reference species.
    pub mass: f64,
    /// Charge number.
    pub z: f64,
    /// Temperature relative to the reference.
    pub temp: f64,
    /// Density relative to the reference.
    pub dens: f64,
    /// Normalized inverse density gradient length `a/L_n` (**sweep
    /// parameter** — not part of the cmat key).
    pub rln: f64,
    /// Normalized inverse temperature gradient length `a/L_T` (**sweep
    /// parameter** — not part of the cmat key).
    pub rlt: f64,
}

impl Species {
    /// Deuterium-like main ion with unit parameters.
    pub fn deuterium() -> Self {
        Self { name: "D".into(), mass: 1.0, z: 1.0, temp: 1.0, dens: 1.0, rln: 1.0, rlt: 2.5 }
    }

    /// Electron species (reduced mass ratio for numerical comfort).
    pub fn electron() -> Self {
        Self {
            name: "e".into(),
            mass: 0.0002723, // m_e / m_D
            z: -1.0,
            temp: 1.0,
            dens: 1.0,
            rln: 1.0,
            rlt: 2.5,
        }
    }

    /// Carbon-like impurity.
    pub fn carbon() -> Self {
        Self { name: "C".into(), mass: 6.0, z: 6.0, temp: 1.0, dens: 0.01, rln: 1.0, rlt: 2.5 }
    }
}

/// Full input deck for one simulation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CgyroInput {
    /// Radial grid points (spectral radial modes).
    pub n_radial: usize,
    /// Poloidal (field-line) grid points.
    pub n_theta: usize,
    /// Pitch-angle grid points.
    pub n_xi: usize,
    /// Energy grid points.
    pub n_energy: usize,
    /// Toroidal modes.
    pub n_toroidal: usize,
    /// Species list.
    pub species: Vec<Species>,
    /// Electron-electron collision frequency (normalized). Drives `cmat`.
    pub nu_ee: f64,
    /// Safety factor (geometry; drives `cmat` through k⊥ and streaming).
    pub q: f64,
    /// Magnetic shear (geometry).
    pub shear: f64,
    /// Flux-surface elongation κ (Miller-like shaping; 1 = circular).
    /// Geometry ⇒ part of the `cmat` key.
    pub kappa: f64,
    /// Flux-surface triangularity δ (Miller-like shaping; 0 = circular).
    /// Geometry ⇒ part of the `cmat` key.
    pub delta: f64,
    /// Lowest toroidal wavenumber `k_y·ρ` spacing.
    pub ky_min: f64,
    /// Radial box wavenumber spacing `k_x·ρ`.
    pub kx_min: f64,
    /// Time step (normalized units). Drives `cmat` (Crank–Nicolson factor).
    pub delta_t: f64,
    /// Time steps per reporting step (diagnostic output cadence).
    pub steps_per_report: usize,
    /// Amplitude of the nonlinear coupling (0 = linear run).
    pub nonlinear_coupling: f64,
    /// Electron plasma beta (electromagnetic effects). `0` runs the
    /// electrostatic limit with the A∥ machinery fully disabled. Like the
    /// gradient drives, `beta_e` enters only the field equations — not the
    /// collision operator — so beta scans can share `cmat` (it is
    /// deliberately excluded from the key).
    pub beta_e: f64,
    /// Numerical dissipation coefficient for the upwind correction.
    pub upwind_diss: f64,
    /// Seed for the deterministic initial perturbation.
    pub seed: u64,
}

impl CgyroInput {
    /// Flattened tensor dimensions.
    pub fn dims(&self) -> SimDims {
        SimDims::new(
            self.n_radial * self.n_theta,
            self.species.len() * self.n_xi * self.n_energy,
            self.n_toroidal,
        )
    }

    /// Velocity-space size per species.
    pub fn nv_per_species(&self) -> usize {
        self.n_xi * self.n_energy
    }

    /// Validate basic consistency. Returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_radial == 0 || self.n_theta < 4 {
            return Err("need n_radial >= 1 and n_theta >= 4 (streaming stencil)".into());
        }
        if self.n_xi < 2 || self.n_energy < 2 {
            return Err("need at least 2 pitch and 2 energy points".into());
        }
        if self.n_toroidal == 0 {
            return Err("need at least one toroidal mode".into());
        }
        if self.species.is_empty() {
            return Err("need at least one species".into());
        }
        if self.nu_ee < 0.0 {
            return Err("collision frequency must be non-negative".into());
        }
        if self.delta_t <= 0.0 {
            return Err("time step must be positive".into());
        }
        if self.beta_e < 0.0 {
            return Err("beta_e must be non-negative".into());
        }
        if self.kappa <= 0.0 {
            return Err("elongation kappa must be positive".into());
        }
        if self.delta.abs() >= 1.0 {
            return Err("triangularity delta must satisfy |delta| < 1".into());
        }
        if self.steps_per_report == 0 {
            return Err("steps_per_report must be positive".into());
        }
        Ok(())
    }

    /// The `cmat` dependency key: a stable hash over exactly the inputs the
    /// collisional constant tensor depends on. Two simulations with equal
    /// keys can share one `cmat`.
    ///
    /// Included: velocity/configuration/toroidal grid shapes, box spacings,
    /// species (mass, charge, temperature, density), `nu_ee`, geometry
    /// (`q`, `shear`) and `delta_t` (the Crank–Nicolson factor bakes it in).
    /// Excluded: gradient drives (`rln`, `rlt`), nonlinear coupling,
    /// `beta_e`, dissipation strength, seed, reporting cadence.
    ///
    /// ```
    /// use xg_sim::CgyroInput;
    ///
    /// let base = CgyroInput::test_small();
    /// // A gradient sweep keeps the key: these can share one cmat.
    /// assert_eq!(base.with_gradients(3.0, 0.5).cmat_key(), base.cmat_key());
    /// // Changing collisionality does not.
    /// let mut hot = base.clone();
    /// hot.nu_ee *= 2.0;
    /// assert_ne!(hot.cmat_key(), base.cmat_key());
    /// ```
    pub fn cmat_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.n_radial as u64);
        h.u64(self.n_theta as u64);
        h.u64(self.n_xi as u64);
        h.u64(self.n_energy as u64);
        h.u64(self.n_toroidal as u64);
        h.u64(self.species.len() as u64);
        for s in &self.species {
            h.f64(s.mass);
            h.f64(s.z);
            h.f64(s.temp);
            h.f64(s.dens);
            // rln/rlt deliberately excluded.
        }
        h.f64(self.nu_ee);
        h.f64(self.q);
        h.f64(self.shear);
        h.f64(self.kappa);
        h.f64(self.delta);
        h.f64(self.ky_min);
        h.f64(self.kx_min);
        h.f64(self.delta_t);
        h.finish()
    }

    /// Name every cmat-relevant input on which `self` and `other` disagree,
    /// with both values — the diagnosis behind a `cmat_key` mismatch. The
    /// field list mirrors [`CgyroInput::cmat_key`] exactly: anything hashed
    /// there is compared here, and nothing else, so a non-empty result is
    /// equivalent to differing keys (up to hash collisions).
    ///
    /// ```
    /// use xg_sim::CgyroInput;
    ///
    /// let base = CgyroInput::test_small();
    /// let mut hot = base.clone();
    /// hot.nu_ee *= 2.0;
    /// let diffs = base.cmat_divergence(&hot);
    /// assert_eq!(diffs, vec!["nu_ee (0.1 vs 0.2)".to_string()]);
    /// // Sweep parameters are not cmat inputs and never show up.
    /// assert!(base.cmat_divergence(&base.with_gradients(9.0, 9.0)).is_empty());
    /// ```
    pub fn cmat_divergence(&self, other: &CgyroInput) -> Vec<String> {
        let mut out = Vec::new();
        let mut grid = |name: &str, a: usize, b: usize| {
            if a != b {
                out.push(format!("{name} ({a} vs {b})"));
            }
        };
        grid("n_radial", self.n_radial, other.n_radial);
        grid("n_theta", self.n_theta, other.n_theta);
        grid("n_xi", self.n_xi, other.n_xi);
        grid("n_energy", self.n_energy, other.n_energy);
        grid("n_toroidal", self.n_toroidal, other.n_toroidal);
        grid("n_species", self.species.len(), other.species.len());
        let mut scalar = |name: &str, a: f64, b: f64| {
            if a.to_bits() != b.to_bits() {
                out.push(format!("{name} ({a} vs {b})"));
            }
        };
        for (i, (s, o)) in self.species.iter().zip(&other.species).enumerate() {
            scalar(&format!("species[{i}].mass"), s.mass, o.mass);
            scalar(&format!("species[{i}].z"), s.z, o.z);
            scalar(&format!("species[{i}].temp"), s.temp, o.temp);
            scalar(&format!("species[{i}].dens"), s.dens, o.dens);
        }
        scalar("nu_ee", self.nu_ee, other.nu_ee);
        scalar("q", self.q, other.q);
        scalar("shear", self.shear, other.shear);
        scalar("kappa", self.kappa, other.kappa);
        scalar("delta", self.delta, other.delta);
        scalar("ky_min", self.ky_min, other.ky_min);
        scalar("kx_min", self.kx_min, other.kx_min);
        scalar("delta_t", self.delta_t, other.delta_t);
        out
    }

    /// A tiny deck for fast functional tests: nc = n_radial·n_theta small,
    /// nv small, a couple of toroidal modes.
    pub fn test_small() -> Self {
        Self {
            n_radial: 4,
            n_theta: 8,
            n_xi: 4,
            n_energy: 3,
            n_toroidal: 2,
            species: vec![Species::deuterium(), Species::electron()],
            nu_ee: 0.1,
            q: 2.0,
            shear: 1.0,
            kappa: 1.0,
            delta: 0.0,
            ky_min: 0.3,
            kx_min: 0.1,
            delta_t: 0.01,
            steps_per_report: 10,
            nonlinear_coupling: 0.05,
            beta_e: 0.0,
            upwind_diss: 0.1,
            seed: 1,
        }
    }

    /// A medium functional deck (still laptop-scale) exercising three
    /// species and more modes.
    pub fn test_medium() -> Self {
        Self {
            n_radial: 8,
            n_theta: 12,
            n_xi: 6,
            n_energy: 4,
            n_toroidal: 4,
            species: vec![Species::deuterium(), Species::electron(), Species::carbon()],
            nu_ee: 0.05,
            q: 1.7,
            shear: 0.8,
            kappa: 1.0,
            delta: 0.0,
            ky_min: 0.2,
            kx_min: 0.05,
            delta_t: 0.008,
            steps_per_report: 20,
            nonlinear_coupling: 0.02,
            beta_e: 0.0,
            upwind_diss: 0.1,
            seed: 7,
        }
    }

    /// The `nl03c`-like benchmark deck used **analytically** by the memory
    /// planner and the performance model (never allocated in functional
    /// runs). Dimensioned so that
    ///
    /// * `cmat` ≈ 5.6 TB ≈ 10× all other per-simulation buffers combined
    ///   (paper §1: "the constant cmat is 10x the size of all the other
    ///   memory buffers combined"), and
    /// * on the Frontier-like machine model the minimum feasible allocation
    ///   for a single simulation is 32 nodes (paper §3), with the valid
    ///   decompositions constrained CGYRO-style by divisibility.
    pub fn nl03c_like() -> Self {
        Self {
            n_radial: 4096,
            n_theta: 32,
            n_xi: 24,
            n_energy: 8,
            n_toroidal: 16,
            species: vec![Species::deuterium(), Species::electron(), Species::carbon()],
            nu_ee: 0.1,
            q: 1.4,
            shear: 0.78,
            kappa: 1.35,
            delta: 0.12,
            ky_min: 0.07,
            kx_min: 0.003,
            delta_t: 0.002,
            steps_per_report: 1000,
            nonlinear_coupling: 1.0,
            beta_e: 0.003,
            upwind_diss: 0.1,
            seed: 3,
        }
    }

    /// Produce a parameter-sweep variant: same `cmat` key, different
    /// gradient drives (this is how the 8 `nl03c` variants of the paper's
    /// benchmark differ).
    pub fn with_gradients(&self, rln: f64, rlt: f64) -> Self {
        let mut v = self.clone();
        for s in &mut v.species {
            s.rln = rln;
            s.rlt = rlt;
        }
        v
    }

    /// Variant with a different seed (initial condition) only.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut v = self.clone();
        v.seed = seed;
        v
    }
}

/// Minimal FNV-1a hasher for the stable cmat key (independent of std's
/// unspecified `Hasher` implementations).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_flatten_correctly() {
        let i = CgyroInput::test_small();
        let d = i.dims();
        assert_eq!(d.nc, 4 * 8);
        assert_eq!(d.nv, 2 * 4 * 3);
        assert_eq!(d.nt, 2);
    }

    #[test]
    fn presets_validate() {
        assert!(CgyroInput::test_small().validate().is_ok());
        assert!(CgyroInput::test_medium().validate().is_ok());
        assert!(CgyroInput::nl03c_like().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_decks() {
        let mut i = CgyroInput::test_small();
        i.n_theta = 2;
        assert!(i.validate().is_err());
        let mut i = CgyroInput::test_small();
        i.species.clear();
        assert!(i.validate().is_err());
        let mut i = CgyroInput::test_small();
        i.delta_t = 0.0;
        assert!(i.validate().is_err());
        let mut i = CgyroInput::test_small();
        i.nu_ee = -1.0;
        assert!(i.validate().is_err());
    }

    #[test]
    fn cmat_key_ignores_sweep_parameters() {
        let base = CgyroInput::test_small();
        let k0 = base.cmat_key();
        // Gradient sweeps keep the key (the paper's ensemble scenario).
        assert_eq!(base.with_gradients(0.5, 4.0).cmat_key(), k0);
        assert_eq!(base.with_gradients(2.0, 0.1).cmat_key(), k0);
        // Seed and nonlinear coupling are not cmat inputs either.
        assert_eq!(base.with_seed(99).cmat_key(), k0);
        let mut v = base.clone();
        v.nonlinear_coupling = 0.7;
        assert_eq!(v.cmat_key(), k0);
        let mut v = base.clone();
        v.steps_per_report = 500;
        assert_eq!(v.cmat_key(), k0);
        let mut v = base.clone();
        v.beta_e = 0.01;
        assert_eq!(v.cmat_key(), k0, "beta scans share cmat");
    }

    #[test]
    fn cmat_key_tracks_real_dependencies() {
        let base = CgyroInput::test_small();
        let k0 = base.cmat_key();
        let mut v = base.clone();
        v.nu_ee *= 2.0;
        assert_ne!(v.cmat_key(), k0, "collision frequency must change the key");
        let mut v = base.clone();
        v.n_xi += 1;
        assert_ne!(v.cmat_key(), k0, "velocity grid must change the key");
        let mut v = base.clone();
        v.delta_t *= 0.5;
        assert_ne!(v.cmat_key(), k0, "dt is baked into the CN factor");
        let mut v = base.clone();
        v.species[0].temp = 2.0;
        assert_ne!(v.cmat_key(), k0, "species temperature must change the key");
        let mut v = base.clone();
        v.q = 3.0;
        assert_ne!(v.cmat_key(), k0, "geometry must change the key");
        let mut v = base.clone();
        v.kappa = 1.6;
        assert_ne!(v.cmat_key(), k0, "shaping must change the key");
        let mut v = base.clone();
        v.delta = 0.3;
        assert_ne!(v.cmat_key(), k0, "triangularity must change the key");
    }

    #[test]
    fn cmat_divergence_mirrors_the_key() {
        let base = CgyroInput::test_small();
        // Key-equal decks diverge nowhere.
        assert!(base.cmat_divergence(&base).is_empty());
        assert!(base.cmat_divergence(&base.with_gradients(5.0, 0.2)).is_empty());
        assert!(base.cmat_divergence(&base.with_seed(99)).is_empty());
        // Every named divergence corresponds to a key change, and the
        // offending field is named with both values.
        let mut v = base.clone();
        v.nu_ee = 0.4;
        let d = base.cmat_divergence(&v);
        assert_eq!(d, vec!["nu_ee (0.1 vs 0.4)".to_string()]);
        assert_ne!(v.cmat_key(), base.cmat_key());
        let mut v = base.clone();
        v.species[1].temp = 3.0;
        let d = base.cmat_divergence(&v);
        assert_eq!(d, vec!["species[1].temp (1 vs 3)".to_string()]);
        let mut v = base.clone();
        v.n_xi = 6;
        v.q = 1.1;
        let d = base.cmat_divergence(&v);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].contains("n_xi"), "{d:?}");
        assert!(d[1].contains("q"), "{d:?}");
        // Dropping a species reports the count.
        let mut v = base.clone();
        v.species.pop();
        assert!(v.validate().is_ok());
        let d = base.cmat_divergence(&v);
        assert!(d.iter().any(|s| s.contains("n_species")), "{d:?}");
    }

    #[test]
    fn nl03c_like_has_paper_scale_dims() {
        let i = CgyroInput::nl03c_like();
        let d = i.dims();
        assert_eq!(d.nc, 131072);
        assert_eq!(d.nv, 576);
        assert_eq!(d.nt, 16);
        // cmat total = nv^2 * nc * nt * 8 bytes ≈ 5.57 TB.
        let cmat = (d.nv as u64).pow(2) * d.nc as u64 * d.nt as u64 * 8;
        assert!(cmat > 5 << 40 && cmat < 6 << 40, "cmat = {cmat}");
    }

    #[test]
    fn gradient_variants_differ_but_share_key() {
        let base = CgyroInput::nl03c_like();
        let variants: Vec<CgyroInput> =
            (0..8).map(|i| base.with_gradients(1.0 + 0.1 * i as f64, 2.5)).collect();
        let k0 = base.cmat_key();
        for v in &variants {
            assert_eq!(v.cmat_key(), k0);
        }
        assert_ne!(variants[0].species[0].rln, variants[7].species[0].rln);
    }
}
