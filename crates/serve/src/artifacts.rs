//! Server-side artifact pipeline: outcome (de)serialization and batch
//! publication into an [`xg_artifact::ArtifactStore`].
//!
//! The store itself is deliberately ignorant of simulation types — it moves
//! bytes. This module is the adapter: a stable binary codec for
//! [`JobOutcome`] (the blob a cache hit is served from), and the publish
//! path that turns one completed batch member into a deck object, an
//! outcome object, an optional communication-trace object, and a manifest.

use crate::job::{JobOutcome, JobSpec};
use std::path::PathBuf;
use xg_artifact::{deck_hash, ArtifactStore, Manifest, ObjectId, StoreError};
use xg_linalg::Complex64;
use xg_tensor::Tensor3;

/// Artifact-store configuration for [`crate::server::ServerConfig`].
#[derive(Clone, Debug)]
pub struct ArtifactConfig {
    /// Store root directory (created if missing).
    pub dir: PathBuf,
    /// GC size budget in bytes. `None` disables automatic retention —
    /// `xgq gc budget=N` still collects on demand.
    pub budget_bytes: Option<u64>,
}

impl ArtifactConfig {
    /// Store under `dir` with no automatic size budget.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), budget_bytes: None }
    }
}

/// Version magic of the outcome blob codec. Bump on any layout change —
/// stored blobs carry it, so a new binary refuses old layouts loudly.
const OUTCOME_MAGIC: &[u8; 4] = b"xgo1";

/// Serialize a [`JobOutcome`] to the stable little-endian blob layout:
/// magic, tensor shape, steps, diagnostics bit patterns, then the complex
/// distribution data. Bitwise-faithful: `decode_outcome` returns a value
/// whose `outcome_summary` is identical to the original's.
pub fn encode_outcome(o: &JobOutcome) -> Vec<u8> {
    let (d0, d1, d2) = o.h.shape();
    let mut out = Vec::with_capacity(68 + o.h.len() * 16);
    out.extend_from_slice(OUTCOME_MAGIC);
    for v in [d0 as u64, d1 as u64, d2 as u64, o.steps as u64] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let d = &o.diagnostics;
    for v in [d.time, d.field_energy, d.heat_flux, d.h_norm2] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for z in o.h.as_slice() {
        out.extend_from_slice(&z.re.to_le_bytes());
        out.extend_from_slice(&z.im.to_le_bytes());
    }
    out
}

/// Decode an outcome blob. Rejects wrong magic and any size mismatch.
pub fn decode_outcome(bytes: &[u8]) -> Result<JobOutcome, String> {
    if bytes.len() < 68 || &bytes[..4] != OUTCOME_MAGIC {
        return Err("not an xgo1 outcome blob".into());
    }
    let u64_at = |i: usize| {
        u64::from_le_bytes(bytes[i..i + 8].try_into().expect("bounds checked"))
    };
    let (d0, d1, d2) = (u64_at(4) as usize, u64_at(12) as usize, u64_at(20) as usize);
    let steps = u64_at(28) as usize;
    let n = d0
        .checked_mul(d1)
        .and_then(|v| v.checked_mul(d2))
        .ok_or("implausible tensor shape")?;
    if bytes.len() != 68 + n * 16 {
        return Err(format!(
            "outcome blob size mismatch: {} bytes for shape {d0}x{d1}x{d2}",
            bytes.len()
        ));
    }
    let diagnostics = xg_sim::Diagnostics {
        time: f64::from_bits(u64_at(36)),
        field_energy: f64::from_bits(u64_at(44)),
        heat_flux: f64::from_bits(u64_at(52)),
        h_norm2: f64::from_bits(u64_at(60)),
    };
    let mut flat = Vec::with_capacity(n);
    for i in 0..n {
        let off = 68 + i * 16;
        flat.push(Complex64::new(
            f64::from_bits(u64_at(off)),
            f64::from_bits(u64_at(off + 8)),
        ));
    }
    let mut idx = 0;
    let h = Tensor3::from_fn(d0, d1, d2, |_, _, _| {
        let z = flat[idx];
        idx += 1;
        z
    });
    Ok(JobOutcome { h, diagnostics, steps })
}

/// Batch-level provenance shared by every member published from one batch.
#[derive(Clone, Debug)]
pub struct PublishContext {
    /// Ensemble width the batch dispatched with.
    pub batch_k: u64,
    /// Collision-dimension cut layout label.
    pub coll_cuts: String,
    /// Collision kernel variant (from the obs registry; "" if unrecorded).
    pub kernel: String,
    /// Machine model name the server is configured with.
    pub machine: String,
    /// Per-phase elapsed time for this batch, microseconds.
    pub phase_us: Vec<(String, u64)>,
    /// The batch's communication trace, already stored (None when tracing
    /// produced nothing).
    pub trace_object: Option<ObjectId>,
    /// Publication wall-clock, µs since the Unix epoch.
    pub created_unix_us: u64,
}

/// Publish one completed member: deck + outcome blobs, then the manifest
/// (atomically, last — a half-published artifact is never visible). Returns
/// the manifest and the outcome blob size.
pub fn publish_member(
    store: &ArtifactStore,
    spec: &JobSpec,
    outcome: &JobOutcome,
    summary: (u64, u64, [u64; 4]),
    ctx: &PublishContext,
) -> Result<Manifest, StoreError> {
    let deck_text = xg_sim::write_deck(&spec.input);
    let deck_object = store.put_object(deck_text.as_bytes())?;
    let blob = encode_outcome(outcome);
    let outcome_bytes = blob.len() as u64;
    let outcome_object = store.put_object(&blob)?;
    let (steps_done, h_hash, diag_bits) = summary;
    let input = &spec.input;
    let manifest = Manifest {
        deck_hash: deck_hash(input, spec.steps),
        created_unix_us: ctx.created_unix_us,
        tag: spec.tag.clone(),
        cmat_key: input.cmat_key(),
        steps: spec.steps as u64,
        grid: [
            input.n_radial as u64,
            input.n_theta as u64,
            input.n_xi as u64,
            input.n_energy as u64,
            input.n_toroidal as u64,
        ],
        n_species: input.species.len() as u64,
        batch_k: ctx.batch_k,
        coll_cuts: ctx.coll_cuts.clone(),
        kernel: ctx.kernel.clone(),
        machine: ctx.machine.clone(),
        phase_us: ctx.phase_us.clone(),
        steps_done,
        h_hash,
        diag_bits,
        deck_object,
        outcome_object,
        trace_object: ctx.trace_object,
        outcome_bytes,
    };
    store.publish(&manifest)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> JobOutcome {
        let h = Tensor3::from_fn(3, 4, 2, |i, j, k| {
            Complex64::new(
                (i * 8 + j * 2 + k) as f64 * 0.25,
                -((i + j + k) as f64) * 0.5,
            )
        });
        JobOutcome {
            h,
            diagnostics: xg_sim::Diagnostics {
                time: 0.2,
                field_energy: 1.5e-3,
                heat_flux: -4.25e-5,
                h_norm2: 2.0,
            },
            steps: 20,
        }
    }

    #[test]
    fn outcome_blob_roundtrips_bitwise() {
        let o = sample_outcome();
        let blob = encode_outcome(&o);
        let back = decode_outcome(&blob).unwrap();
        assert_eq!(back.steps, o.steps);
        assert_eq!(back.h.shape(), o.h.shape());
        let bits = |t: &Tensor3<Complex64>| {
            t.as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back.h), bits(&o.h));
        assert_eq!(
            back.diagnostics.heat_flux.to_bits(),
            o.diagnostics.heat_flux.to_bits()
        );
        // Re-encoding is byte-identical: the codec is canonical.
        assert_eq!(encode_outcome(&back), blob);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_outcome(b"").is_err());
        assert!(decode_outcome(b"nope").is_err());
        let mut blob = encode_outcome(&sample_outcome());
        blob.truncate(blob.len() - 1);
        assert!(decode_outcome(&blob).is_err());
        let mut bad_magic = encode_outcome(&sample_outcome());
        bad_magic[0] = b'y';
        assert!(decode_outcome(&bad_magic).is_err());
    }

    #[test]
    fn publish_member_writes_a_loadable_manifest() {
        let dir = std::env::temp_dir()
            .join(format!("xg-serve-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let spec = JobSpec {
            input: xg_sim::CgyroInput::test_small(),
            steps: 20,
            tag: "t".into(),
            tenant: "default".into(),
        };
        let outcome = sample_outcome();
        let ctx = PublishContext {
            batch_k: 3,
            coll_cuts: "balanced".into(),
            kernel: "simd".into(),
            machine: "small_cluster".into(),
            phase_us: vec![("execute".into(), 1234)],
            trace_object: None,
            created_unix_us: 1,
        };
        let summary = (20, 0xabcd, [1, 2, 3, 4]);
        let m = publish_member(&store, &spec, &outcome, summary, &ctx).unwrap();
        let loaded = store.lookup(m.deck_hash).unwrap().unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.summary(), summary);
        // The stored blob decodes back to the same result bits.
        let blob = store.get_object(loaded.outcome_object).unwrap();
        let back = decode_outcome(&blob).unwrap();
        assert_eq!(encode_outcome(&back), encode_outcome(&outcome));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
