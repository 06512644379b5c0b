//! Ensemble configuration and admission checks.
//!
//! XGYRO runs k independent simulations as one job **iff** they can share
//! one collisional constant tensor. The admission check is the `cmat` key
//! ([`xg_sim::CgyroInput::cmat_key`]): identical grids, species, collision
//! frequency, geometry and time step — gradient drives, seeds, drive
//! amplitudes are free to vary (that's the parameter sweep).

use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;

/// Why an ensemble was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EnsembleError {
    /// Fewer than one member.
    Empty,
    /// A member deck failed its own validation.
    InvalidMember {
        /// Member index.
        index: usize,
        /// Underlying message.
        reason: String,
    },
    /// Member `index` has a different `cmat` key than member 0 — it cannot
    /// share the constant tensor.
    CmatKeyMismatch {
        /// Offending member index.
        index: usize,
        /// Key of member 0.
        expected: u64,
        /// Key of the offending member.
        found: u64,
        /// The cmat-relevant inputs on which the offender disagrees with
        /// member 0, each as `"name (member-0 value vs offender value)"`
        /// (from [`CgyroInput::cmat_divergence`]). Empty only in the
        /// astronomically unlikely event of a pure hash collision.
        diverging: Vec<String>,
    },
    /// The per-simulation process grid is invalid for these dims.
    BadGrid {
        /// Explanation.
        reason: String,
    },
    /// Member `index` steps on a different reporting cadence. The shared
    /// coll communicator synchronizes every time step across the whole
    /// ensemble, so all members must take the same number of steps per
    /// reporting interval (the cmat key deliberately ignores cadence, so
    /// this is a separate admission requirement).
    CadenceMismatch {
        /// Offending member index.
        index: usize,
        /// Member 0's steps per report.
        expected: usize,
        /// The offending member's steps per report.
        found: usize,
    },
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::Empty => write!(f, "ensemble has no members"),
            EnsembleError::InvalidMember { index, reason } => {
                write!(f, "member {index} is invalid: {reason}")
            }
            EnsembleError::CmatKeyMismatch { index, expected, found, diverging } => {
                write!(
                    f,
                    "member {index} cannot share cmat: its key {found:#018x} != member 0's \
                     {expected:#018x}"
                )?;
                if diverging.is_empty() {
                    write!(f, " (no differing input found: cmat key hash collision?)")
                } else {
                    write!(f, "; differing collision-relevant inputs: {}", diverging.join(", "))
                }
            }
            EnsembleError::BadGrid { reason } => write!(f, "bad process grid: {reason}"),
            EnsembleError::CadenceMismatch { index, expected, found } => write!(
                f,
                "member {index} reports every {found} steps but the ensemble steps in \
                 lockstep every {expected} (the coll exchange synchronizes all members)"
            ),
        }
    }
}

impl std::error::Error for EnsembleError {}

/// A validated XGYRO ensemble: k member decks + the per-simulation process
/// grid.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    members: Vec<CgyroInput>,
    grid: ProcGrid,
}

impl EnsembleConfig {
    /// Validate and build. All members must share one `cmat` key and have
    /// identical tensor dimensions.
    ///
    /// ```
    /// use xg_sim::CgyroInput;
    /// use xg_tensor::ProcGrid;
    /// use xgyro_core::EnsembleConfig;
    ///
    /// let base = CgyroInput::test_small();
    /// let sweep = vec![base.with_gradients(1.0, 2.0), base.with_gradients(1.5, 3.0)];
    /// let cfg = EnsembleConfig::new(sweep, ProcGrid::new(2, 1)).unwrap();
    /// assert_eq!(cfg.k(), 2);
    /// assert_eq!(cfg.total_ranks(), 4);
    ///
    /// // A member with different collisionality cannot share cmat.
    /// let mut rogue = base.clone();
    /// rogue.nu_ee *= 2.0;
    /// assert!(EnsembleConfig::new(vec![base, rogue], ProcGrid::new(1, 1)).is_err());
    /// ```
    pub fn new(members: Vec<CgyroInput>, grid: ProcGrid) -> Result<Self, EnsembleError> {
        if members.is_empty() {
            return Err(EnsembleError::Empty);
        }
        for (i, m) in members.iter().enumerate() {
            m.validate().map_err(|reason| EnsembleError::InvalidMember { index: i, reason })?;
        }
        let key0 = members[0].cmat_key();
        for (i, m) in members.iter().enumerate().skip(1) {
            let k = m.cmat_key();
            if k != key0 {
                return Err(EnsembleError::CmatKeyMismatch {
                    index: i,
                    expected: key0,
                    found: k,
                    diverging: members[0].cmat_divergence(m),
                });
            }
        }
        let cadence = members[0].steps_per_report;
        for (i, m) in members.iter().enumerate().skip(1) {
            if m.steps_per_report != cadence {
                return Err(EnsembleError::CadenceMismatch {
                    index: i,
                    expected: cadence,
                    found: m.steps_per_report,
                });
            }
        }
        let dims = members[0].dims();
        if grid.n1 > dims.nv {
            return Err(EnsembleError::BadGrid {
                reason: format!("n1={} exceeds nv={}", grid.n1, dims.nv),
            });
        }
        if grid.n2 > dims.nt {
            return Err(EnsembleError::BadGrid {
                reason: format!("n2={} exceeds nt={}", grid.n2, dims.nt),
            });
        }
        Ok(Self { members, grid })
    }

    /// Number of member simulations (k).
    pub fn k(&self) -> usize {
        self.members.len()
    }

    /// Member decks.
    pub fn members(&self) -> &[CgyroInput] {
        &self.members
    }

    /// Per-simulation process grid.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Ranks per simulation.
    pub fn ranks_per_sim(&self) -> usize {
        self.grid.size()
    }

    /// Total ranks of the ensemble job.
    pub fn total_ranks(&self) -> usize {
        self.k() * self.ranks_per_sim()
    }

    /// The shared `cmat` key.
    pub fn cmat_key(&self) -> u64 {
        self.members[0].cmat_key()
    }

    /// Degraded-mode eviction: drop member `index`, producing the (k−1)-way
    /// ensemble the survivors re-form after a failure. The result is
    /// exactly what [`EnsembleConfig::new`] would build from the surviving
    /// decks — all admission invariants (shared `cmat` key, cadence, grid)
    /// are preserved by removal. Errors with [`EnsembleError::Empty`] when
    /// evicting the last member.
    pub fn evict_member(&self, index: usize) -> Result<Self, EnsembleError> {
        assert!(index < self.members.len(), "evict_member: no member {index}");
        if self.members.len() == 1 {
            return Err(EnsembleError::Empty);
        }
        let mut members = self.members.clone();
        members.remove(index);
        Ok(Self { members, grid: self.grid })
    }
}

impl EnsembleConfig {
    /// Load an ensemble the way the real XGYRO is invoked: a list of
    /// per-simulation input directories, each containing `input.cgyro`.
    pub fn from_deck_dirs(
        dirs: &[std::path::PathBuf],
        grid: ProcGrid,
    ) -> Result<Self, EnsembleError> {
        let mut members = Vec::with_capacity(dirs.len());
        for (i, dir) in dirs.iter().enumerate() {
            let path = dir.join("input.cgyro");
            let input = xg_sim::load_deck(&path).map_err(|e| EnsembleError::InvalidMember {
                index: i,
                reason: e.to_string(),
            })?;
            members.push(input);
        }
        Self::new(members, grid)
    }
}

/// Build the canonical parameter-sweep ensemble of the paper's benchmark:
/// `k` gradient variants of a base deck.
pub fn gradient_sweep(base: &CgyroInput, k: usize, grid: ProcGrid) -> EnsembleConfig {
    let members: Vec<CgyroInput> = (0..k)
        .map(|i| {
            base.with_gradients(1.0 + 0.25 * i as f64, 2.0 + 0.5 * i as f64)
                .with_seed(base.seed + i as u64)
        })
        .collect();
    EnsembleConfig::new(members, grid).expect("gradient sweep always shares cmat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_gradient_sweep() {
        let base = CgyroInput::test_small();
        let cfg = gradient_sweep(&base, 4, ProcGrid::new(2, 1));
        assert_eq!(cfg.k(), 4);
        assert_eq!(cfg.total_ranks(), 8);
        assert_eq!(cfg.cmat_key(), base.cmat_key());
    }

    #[test]
    fn rejects_mixed_collision_frequencies() {
        let base = CgyroInput::test_small();
        let mut other = base.clone();
        other.nu_ee *= 2.0;
        let err = EnsembleConfig::new(vec![base, other], ProcGrid::new(1, 1)).unwrap_err();
        match err {
            EnsembleError::CmatKeyMismatch { index, expected, found, diverging } => {
                assert_eq!(index, 1);
                assert_ne!(expected, found);
                assert_eq!(diverging.len(), 1);
                assert!(diverging[0].starts_with("nu_ee"), "{diverging:?}");
            }
            e => panic!("wrong error: {e}"),
        }
    }

    #[test]
    fn rejects_mixed_grids() {
        let base = CgyroInput::test_small();
        let mut other = base.clone();
        other.n_xi += 2;
        let err = EnsembleConfig::new(vec![base, other], ProcGrid::new(1, 1)).unwrap_err();
        assert!(matches!(err, EnsembleError::CmatKeyMismatch { .. }));
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert_eq!(
            EnsembleConfig::new(vec![], ProcGrid::new(1, 1)).unwrap_err(),
            EnsembleError::Empty
        );
        let mut bad = CgyroInput::test_small();
        bad.delta_t = -1.0;
        let err = EnsembleConfig::new(vec![bad], ProcGrid::new(1, 1)).unwrap_err();
        assert!(matches!(err, EnsembleError::InvalidMember { index: 0, .. }));
    }

    #[test]
    fn rejects_oversized_grid() {
        let base = CgyroInput::test_small(); // nv = 24, nt = 2
        let err =
            EnsembleConfig::new(vec![base.clone()], ProcGrid::new(25, 1)).unwrap_err();
        assert!(matches!(err, EnsembleError::BadGrid { .. }));
        let err = EnsembleConfig::new(vec![base], ProcGrid::new(1, 3)).unwrap_err();
        assert!(matches!(err, EnsembleError::BadGrid { .. }));
    }

    #[test]
    fn error_messages_are_informative() {
        let base = CgyroInput::test_small();
        let mut other = base.clone();
        other.q = 9.0;
        let key0 = base.cmat_key();
        let rogue = other.cmat_key();
        let err = EnsembleConfig::new(vec![base, other], ProcGrid::new(1, 1)).unwrap_err();
        let msg = err.to_string();
        // The message must name the offender, print both keys, and point at
        // the exact input that broke sharing — not a bare "mismatch".
        assert!(msg.contains("member 1"), "{msg}");
        assert!(msg.contains(&format!("{rogue:#018x}")), "{msg}");
        assert!(msg.contains(&format!("{key0:#018x}")), "{msg}");
        assert!(msg.contains("q (2 vs 9)"), "{msg}");
    }

    #[test]
    fn mismatch_diagnosis_names_every_differing_input() {
        let base = CgyroInput::test_small();
        let mut other = base.clone();
        other.nu_ee = 0.7;
        other.delta_t = 0.004;
        let err =
            EnsembleConfig::new(vec![base, other], ProcGrid::new(1, 1)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nu_ee (0.1 vs 0.7)"), "{msg}");
        assert!(msg.contains("delta_t (0.01 vs 0.004)"), "{msg}");
    }
}
