//! Ensemble-level checkpointing.
//!
//! Production campaigns checkpoint constantly; an XGYRO job checkpoints
//! *all* members coherently (same step count — the ensemble steps in
//! lockstep). An [`EnsembleCheckpoint`] stores one restart image per
//! member (each member's full global state, reassembled), plus the
//! ensemble identity, and can seed a resumed run that continues **bitwise
//! identically** to an uninterrupted one.

use crate::ensemble::EnsembleConfig;
use crate::runner::{RunOutcome, NO_FAULTS};
use crate::session::EnsembleSession;
use xg_linalg::Complex64;

/// A coherent checkpoint of every ensemble member.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleCheckpoint {
    pub(crate) cmat_key: u64,
    pub(crate) k: usize,
    pub(crate) time: f64,
    pub(crate) steps_taken: u64,
    /// Per-member global state (str layout `(nc, nv, nt)` flattened).
    pub(crate) members: Vec<Vec<Complex64>>,
    pub(crate) dims: (usize, usize, usize),
}

/// Checkpoint-specific failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The checkpoint belongs to a different ensemble (cmat key or size).
    WrongEnsemble,
    /// Serialized image is corrupt.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::WrongEnsemble => {
                write!(f, "checkpoint was written by a different ensemble")
            }
            CheckpointError::Corrupt(m) => write!(f, "corrupt ensemble checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl EnsembleCheckpoint {
    /// Steps taken at capture time.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Simulation time at capture time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of member images held.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The cmat key of the ensemble that wrote this checkpoint. External
    /// resume glue (the campaign server's journal replay) validates this
    /// against the rebuilt ensemble before seeding a resumed run.
    pub fn cmat_key(&self) -> u64 {
        self.cmat_key
    }

    /// Per-member global dims `(nc, nv, nt)` at capture time.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Refuse a checkpoint written by a different ensemble: the cmat key,
    /// member count and dims must all be `config`'s.
    pub fn check_matches(&self, config: &EnsembleConfig) -> Result<(), CheckpointError> {
        let d = config.members()[0].dims();
        if self.cmat_key != config.cmat_key()
            || self.k != config.k()
            || self.dims != (d.nc, d.nv, d.nt)
        {
            return Err(CheckpointError::WrongEnsemble);
        }
        Ok(())
    }

    /// Degraded-mode eviction: drop member `index`'s restart image so the
    /// checkpoint seeds the surviving (k−1)-way ensemble. The member states
    /// are untouched — a resume from the evicted checkpoint is bitwise
    /// identical to a fresh (k−1)-member run that reached the same step.
    pub fn evict_member(&self, index: usize) -> Result<Self, CheckpointError> {
        if index >= self.k || self.k == 1 {
            return Err(CheckpointError::WrongEnsemble);
        }
        let mut out = self.clone();
        out.members.remove(index);
        out.k -= 1;
        Ok(out)
    }

    /// Serialize to bytes (little-endian, versioned).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"XGEN");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&self.cmat_key.to_le_bytes());
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&self.time.to_le_bytes());
        out.extend_from_slice(&self.steps_taken.to_le_bytes());
        for d in [self.dims.0, self.dims.1, self.dims.2] {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for m in &self.members {
            for z in m {
                out.extend_from_slice(&z.re.to_le_bytes());
                out.extend_from_slice(&z.im.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let hdr = 4 + 4 + 8 + 8 + 8 + 8 + 24;
        if bytes.len() < hdr {
            return Err(CheckpointError::Corrupt("truncated header".into()));
        }
        if &bytes[0..4] != b"XGEN" {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let rd_u64 =
            |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("bounds checked"));
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("bounds checked"));
        if version != 1 {
            return Err(CheckpointError::Corrupt(format!("unknown version {version}")));
        }
        let cmat_key = rd_u64(8);
        let k = rd_u64(16) as usize;
        let time = f64::from_le_bytes(bytes[24..32].try_into().expect("bounds checked"));
        let steps_taken = rd_u64(32);
        let dims = (rd_u64(40) as usize, rd_u64(48) as usize, rd_u64(56) as usize);
        let per_member = dims.0 * dims.1 * dims.2;
        let expected = hdr + k * per_member * 16;
        if bytes.len() != expected {
            return Err(CheckpointError::Corrupt(format!(
                "length {} != expected {expected}",
                bytes.len()
            )));
        }
        let mut members = Vec::with_capacity(k);
        let mut off = hdr;
        for _ in 0..k {
            let mut m = Vec::with_capacity(per_member);
            for _ in 0..per_member {
                let re =
                    f64::from_le_bytes(bytes[off..off + 8].try_into().expect("bounds checked"));
                let im = f64::from_le_bytes(
                    bytes[off + 8..off + 16].try_into().expect("bounds checked"),
                );
                m.push(Complex64::new(re, im));
                off += 16;
            }
            members.push(m);
        }
        Ok(Self { cmat_key, k, time, steps_taken, members, dims })
    }
}

/// Run the ensemble for `steps`, checkpointing at the end. Optionally seed
/// from a prior checkpoint (resuming its step counter).
pub fn run_xgyro_checkpointed(
    config: &EnsembleConfig,
    steps: usize,
    resume_from: Option<&EnsembleCheckpoint>,
) -> Result<(RunOutcome, EnsembleCheckpoint), CheckpointError> {
    if let Some(cp) = resume_from {
        cp.check_matches(config)?;
    }
    let mut session = EnsembleSession::open(config, resume_from, None, None).expect(NO_FAULTS);
    session.step(steps).expect(NO_FAULTS);
    Ok(session.finish().expect(NO_FAULTS))
}
