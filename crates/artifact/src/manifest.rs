//! The reproducibility manifest: one completed run's durable record.
//!
//! A manifest is the bridge between a [`DeckHash`] and everything needed to
//! (a) serve the result again without executing a step, and (b) audit or
//! replay how it was produced: topology, kernel/algorithm choices, per-phase
//! timings, output digests, and content-addressed object pointers.
//!
//! Rendered as hand-rolled JSON with a fixed key order (the repo-wide
//! convention — see `xg_serve::metrics`). All 64-bit digests are hex
//! *strings*, never numbers: JSON numbers are f64 and would corrupt them.

use crate::deck_hash::DeckHash;
use crate::json::{escape, JsonValue};
use crate::store::ObjectId;

/// Schema identifier written into (and required from) every manifest.
pub const MANIFEST_SCHEMA: &str = "xg-artifact-manifest-v1";

/// One completed run's reproducibility record.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Canonical semantic identity of the submission this answers.
    pub deck_hash: DeckHash,
    /// Wall-clock publication time, unix microseconds.
    pub created_unix_us: u64,
    /// Free-form submission tag (empty if none).
    pub tag: String,
    /// Collision-tensor sharing key of the deck (`CgyroInput::cmat_key`).
    pub cmat_key: u64,
    /// Requested total step count.
    pub steps: u64,
    /// Grid shape: `[n_radial, n_theta, n_xi, n_energy, n_toroidal]`.
    pub grid: [u64; 5],
    /// Number of kinetic species.
    pub n_species: u64,
    /// Ensemble width of the batch this member executed in. Provenance
    /// only — deliberately *not* part of the deck hash (bitwise-neutral).
    pub batch_k: u64,
    /// Collision-dimension cut layout label (`"balanced"`, the one layout;
    /// older manifests may carry other labels).
    pub coll_cuts: String,
    /// Collision kernel variant the run selected (empty if unrecorded).
    pub kernel: String,
    /// Machine model the server was configured with.
    pub machine: String,
    /// Process grid the batch's world ran on (`"1x1"`); provenance only,
    /// like `batch_k`. Empty in manifests written before it was recorded.
    pub proc_grid: String,
    /// Per-phase elapsed time, microseconds, in execution order.
    pub phase_us: Vec<(String, u64)>,
    /// Steps actually executed (== `steps` for a completed run).
    pub steps_done: u64,
    /// FNV-1a digest of the final distribution tensor's LE bytes.
    pub h_hash: u64,
    /// Bit patterns of the final `[time, field_energy, heat_flux, h_norm2]`.
    pub diag_bits: [u64; 4],
    /// Canonical deck text object.
    pub deck_object: ObjectId,
    /// Encoded final-state object (tensor + diagnostics + steps).
    pub outcome_object: ObjectId,
    /// Communication trace CSV object, when the run captured one.
    pub trace_object: Option<ObjectId>,
    /// Size of the outcome object in bytes (what a cache hit saves).
    pub outcome_bytes: u64,
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex(v: Option<&JsonValue>, what: &str) -> Result<u64, String> {
    v.and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("manifest: bad or missing hex field '{what}'"))
}

fn parse_u64(v: Option<&JsonValue>, what: &str) -> Result<u64, String> {
    v.and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("manifest: bad or missing integer field '{what}'"))
}

fn parse_str_field(v: Option<&JsonValue>, what: &str) -> Result<String, String> {
    v.and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("manifest: bad or missing string field '{what}'"))
}

impl Manifest {
    /// Render as the fixed-key-order JSON document the store persists.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{MANIFEST_SCHEMA}\",\n"));
        s.push_str(&format!("  \"deck_hash\": \"{}\",\n", self.deck_hash));
        s.push_str(&format!("  \"created_unix_us\": {},\n", self.created_unix_us));
        s.push_str(&format!("  \"tag\": \"{}\",\n", escape(&self.tag)));
        s.push_str(&format!("  \"cmat_key\": \"{}\",\n", hex(self.cmat_key)));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str(&format!(
            "  \"grid\": {{\"n_radial\": {}, \"n_theta\": {}, \"n_xi\": {}, \"n_energy\": {}, \"n_toroidal\": {}, \"n_species\": {}}},\n",
            self.grid[0], self.grid[1], self.grid[2], self.grid[3], self.grid[4], self.n_species
        ));
        s.push_str(&format!(
            "  \"topology\": {{\"batch_k\": {}, \"coll_cuts\": \"{}\", \"machine\": \"{}\", \"proc_grid\": \"{}\"}},\n",
            self.batch_k,
            escape(&self.coll_cuts),
            escape(&self.machine),
            escape(&self.proc_grid)
        ));
        s.push_str(&format!("  \"algo\": {{\"kernel\": \"{}\"}},\n", escape(&self.kernel)));
        s.push_str("  \"phase_us\": {");
        for (i, (name, us)) in self.phase_us.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {us}", escape(name)));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"summary\": {{\"steps_done\": {}, \"h_hash\": \"{}\", \"diag_bits\": [\"{}\", \"{}\", \"{}\", \"{}\"]}},\n",
            self.steps_done,
            hex(self.h_hash),
            hex(self.diag_bits[0]),
            hex(self.diag_bits[1]),
            hex(self.diag_bits[2]),
            hex(self.diag_bits[3])
        ));
        let trace = match self.trace_object {
            Some(id) => format!("\"{id}\""),
            None => "null".into(),
        };
        s.push_str(&format!(
            "  \"objects\": {{\"deck\": \"{}\", \"outcome\": \"{}\", \"trace\": {trace}}},\n",
            self.deck_object, self.outcome_object
        ));
        s.push_str(&format!("  \"outcome_bytes\": {}\n", self.outcome_bytes));
        s.push_str("}\n");
        s
    }

    /// Parse a manifest document, rejecting unknown schemas outright.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = JsonValue::parse(text)?;
        let schema = parse_str_field(v.get("schema"), "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest: schema '{schema}' is not '{MANIFEST_SCHEMA}'"
            ));
        }
        let deck_hash: DeckHash = parse_str_field(v.get("deck_hash"), "deck_hash")?
            .parse()
            .map_err(|e| format!("manifest: {e}"))?;
        let grid_obj = v.get("grid").ok_or("manifest: missing 'grid'")?;
        let grid = [
            parse_u64(grid_obj.get("n_radial"), "grid.n_radial")?,
            parse_u64(grid_obj.get("n_theta"), "grid.n_theta")?,
            parse_u64(grid_obj.get("n_xi"), "grid.n_xi")?,
            parse_u64(grid_obj.get("n_energy"), "grid.n_energy")?,
            parse_u64(grid_obj.get("n_toroidal"), "grid.n_toroidal")?,
        ];
        let n_species = parse_u64(grid_obj.get("n_species"), "grid.n_species")?;
        let topo = v.get("topology").ok_or("manifest: missing 'topology'")?;
        let algo = v.get("algo").ok_or("manifest: missing 'algo'")?;
        let phase_us = match v.get("phase_us") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(k, pv)| {
                    pv.as_u64()
                        .map(|us| (k.clone(), us))
                        .ok_or_else(|| format!("manifest: bad phase_us entry '{k}'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("manifest: missing 'phase_us'".into()),
        };
        let summary = v.get("summary").ok_or("manifest: missing 'summary'")?;
        let diag_arr = summary
            .get("diag_bits")
            .and_then(JsonValue::as_arr)
            .filter(|a| a.len() == 4)
            .ok_or("manifest: bad 'summary.diag_bits'")?;
        let mut diag_bits = [0u64; 4];
        for (i, d) in diag_arr.iter().enumerate() {
            diag_bits[i] = parse_hex(Some(d), "summary.diag_bits[..]")?;
        }
        let objects = v.get("objects").ok_or("manifest: missing 'objects'")?;
        let trace_object = match objects.get("trace") {
            Some(JsonValue::Null) | None => None,
            other => Some(ObjectId(parse_hex(other, "objects.trace")?)),
        };
        Ok(Manifest {
            deck_hash,
            created_unix_us: parse_u64(v.get("created_unix_us"), "created_unix_us")?,
            tag: parse_str_field(v.get("tag"), "tag")?,
            cmat_key: parse_hex(v.get("cmat_key"), "cmat_key")?,
            steps: parse_u64(v.get("steps"), "steps")?,
            grid,
            n_species,
            batch_k: parse_u64(topo.get("batch_k"), "topology.batch_k")?,
            coll_cuts: parse_str_field(topo.get("coll_cuts"), "topology.coll_cuts")?,
            kernel: parse_str_field(algo.get("kernel"), "algo.kernel")?,
            machine: parse_str_field(topo.get("machine"), "topology.machine")?,
            proc_grid: match topo.get("proc_grid") {
                None => String::new(),
                field => parse_str_field(field, "topology.proc_grid")?,
            },
            phase_us,
            steps_done: parse_u64(summary.get("steps_done"), "summary.steps_done")?,
            h_hash: parse_hex(summary.get("h_hash"), "summary.h_hash")?,
            diag_bits,
            deck_object: ObjectId(parse_hex(objects.get("deck"), "objects.deck")?),
            outcome_object: ObjectId(parse_hex(objects.get("outcome"), "objects.outcome")?),
            trace_object,
            outcome_bytes: parse_u64(v.get("outcome_bytes"), "outcome_bytes")?,
        })
    }

    /// The bitwise result fingerprint in `xg-serve`'s summary form:
    /// `(steps_done, h_hash, diag_bits)` — comparable against a live run's
    /// `RESULT` line.
    pub fn summary(&self) -> (u64, u64, [u64; 4]) {
        (self.steps_done, self.h_hash, self.diag_bits)
    }

    /// Human-oriented field-by-field comparison for `xgq diff`: the names
    /// of every manifest field that differs (ignoring publication time).
    pub fn diff(&self, other: &Manifest) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut chk = |name, ne: bool| {
            if ne {
                out.push(name);
            }
        };
        chk("deck_hash", self.deck_hash != other.deck_hash);
        chk("tag", self.tag != other.tag);
        chk("cmat_key", self.cmat_key != other.cmat_key);
        chk("steps", self.steps != other.steps);
        chk("grid", self.grid != other.grid || self.n_species != other.n_species);
        chk("batch_k", self.batch_k != other.batch_k);
        chk("coll_cuts", self.coll_cuts != other.coll_cuts);
        chk("kernel", self.kernel != other.kernel);
        chk("machine", self.machine != other.machine);
        chk("proc_grid", self.proc_grid != other.proc_grid);
        chk("steps_done", self.steps_done != other.steps_done);
        chk("h_hash", self.h_hash != other.h_hash);
        chk("diag_bits", self.diag_bits != other.diag_bits);
        chk("deck_object", self.deck_object != other.deck_object);
        chk("outcome_object", self.outcome_object != other.outcome_object);
        chk("trace_object", self.trace_object != other.trace_object);
        chk("outcome_bytes", self.outcome_bytes != other.outcome_bytes);
        out
    }
}

#[cfg(test)]
pub(crate) fn test_manifest() -> Manifest {
    Manifest {
        deck_hash: DeckHash(0x0123_4567_89ab_cdef),
        created_unix_us: 1_700_000_000_000_000,
        tag: "golden \"run\"".into(),
        cmat_key: 0xfeed_face_cafe_beef,
        steps: 40,
        grid: [8, 4, 8, 4, 2],
        n_species: 2,
        batch_k: 3,
        coll_cuts: "even".into(),
        kernel: "simd-tiled".into(),
        machine: "small_cluster".into(),
        proc_grid: "2x1".into(),
        phase_us: vec![("collide".into(), 1200), ("reduce".into(), 340)],
        steps_done: 40,
        h_hash: 0xaaaa_bbbb_cccc_dddd,
        diag_bits: [1, 2, 3, u64::MAX],
        deck_object: ObjectId(0x1111_2222_3333_4444),
        outcome_object: ObjectId(0x5555_6666_7777_8888),
        trace_object: Some(ObjectId(0x9999_aaaa_bbbb_cccc)),
        outcome_bytes: 65536,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_exactly() {
        let m = test_manifest();
        let text = m.to_json();
        assert_eq!(Manifest::from_json(&text).unwrap(), m);
        // Without a trace object the pointer is null, and still roundtrips.
        let mut no_trace = m.clone();
        no_trace.trace_object = None;
        assert_eq!(Manifest::from_json(&no_trace.to_json()).unwrap(), no_trace);
    }

    #[test]
    fn manifest_with_legacy_reduce_algo_field_loads() {
        // Stores written before the reduction fork was removed carry a
        // second key in the `algo` block; it is ignored, not an error.
        let m = test_manifest();
        let legacy = m.to_json().replace(
            "\"algo\": {\"kernel\": \"simd-tiled\"}",
            "\"algo\": {\"kernel\": \"simd-tiled\", \"reduce_algo\": \"auto\"}",
        );
        assert!(legacy.contains("reduce_algo"));
        assert_eq!(Manifest::from_json(&legacy).unwrap(), m);
    }

    #[test]
    fn manifest_without_a_proc_grid_loads() {
        // Stores written before the world grid was recorded lack the key.
        let m = test_manifest();
        let legacy = m.to_json().replace(", \"proc_grid\": \"2x1\"", "");
        assert!(!legacy.contains("proc_grid"));
        let back = Manifest::from_json(&legacy).unwrap();
        assert_eq!(back.proc_grid, "");
        assert_eq!(back.diff(&m), vec!["proc_grid"]);
    }

    #[test]
    fn digests_are_hex_strings_not_numbers() {
        // u64::MAX survives — it would not survive an f64 round-trip.
        let m = test_manifest();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.diag_bits[3], u64::MAX);
        let text = m.to_json();
        assert!(text.contains("\"cmat_key\": \"feedfacecafebeef\""), "{text}");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = test_manifest().to_json().replace("manifest-v1", "manifest-v999");
        let err = Manifest::from_json(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn diff_names_changed_fields_only() {
        let a = test_manifest();
        let mut b = a.clone();
        b.created_unix_us += 1; // publication time is not a difference
        assert!(a.diff(&b).is_empty());
        b.kernel = "scalar".into();
        b.h_hash ^= 1;
        assert_eq!(a.diff(&b), vec!["kernel", "h_hash"]);
    }
}
