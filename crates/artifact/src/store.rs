//! The on-disk content-addressed store.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/<2-hex-prefix>/<16-hex>   content-addressed blobs (FNV-1a of bytes)
//! manifests/<16-hex>.json           one manifest per deck hash
//! manifests/<16-hex>.atime          LRU sidecar: last-access unix-us, decimal
//! pins/<16-hex>                     marker: manifest exempt from GC
//! tmp/                              staging for atomic tmp-write + rename
//! ```
//!
//! Every commit is tmp-write + `rename` onto the final path, so readers
//! (and a daemon killed mid-publish) only ever observe absent-or-complete
//! files, never torn ones. Access times live in sidecar files rather than
//! filesystem metadata because `std` cannot portably set mtimes and many
//! deployments mount `noatime`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::deck_hash::DeckHash;
use crate::fnv1a;
use crate::manifest::Manifest;

/// Content address of one blob: FNV-1a of its bytes, rendered as 16 hex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for ObjectId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 16 {
            return Err(format!("'{s}': object ids are 16 hex digits"));
        }
        u64::from_str_radix(s, 16)
            .map(ObjectId)
            .map_err(|_| format!("'{s}': bad hex digits"))
    }
}

/// Store operation failures.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A stored file exists but does not decode (or its content hash lies).
    Corrupt(String),
    /// The requested object or manifest is not in the store.
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store io: {e}"),
            StoreError::Corrupt(m) => write!(f, "artifact store corrupt: {m}"),
            StoreError::NotFound(m) => write!(f, "artifact store: {m} not found"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Occupancy snapshot for metrics and `xgq gc` reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of published manifests.
    pub manifests: u64,
    /// Number of stored blobs.
    pub objects: u64,
    /// Total bytes across manifests and blobs (sidecars excluded).
    pub bytes: u64,
    /// Number of pinned manifests.
    pub pinned: u64,
}

/// What one [`ArtifactStore::gc`] pass removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Manifests evicted (oldest access first, pins skipped).
    pub evicted_manifests: u64,
    /// Blobs deleted because no surviving manifest references them.
    pub evicted_objects: u64,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
    /// Store size after the pass (manifests + blobs).
    pub bytes_after: u64,
}

/// Handle to a store root. All methods take `&self` and commit atomically,
/// so a single instance can be shared across server threads.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

fn now_unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, StoreError> {
        let root = root.into();
        for sub in ["objects", "manifests", "pins", "tmp"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(ArtifactStore { root, tmp_seq: AtomicU64::new(0) })
    }

    /// The store root this handle operates on.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, id: ObjectId) -> PathBuf {
        let hex = format!("{id}");
        self.root.join("objects").join(&hex[..2]).join(&hex)
    }

    fn manifest_path(&self, hash: DeckHash) -> PathBuf {
        self.root.join("manifests").join(format!("{:016x}.json", hash.0))
    }

    fn atime_path(&self, hash: DeckHash) -> PathBuf {
        self.root.join("manifests").join(format!("{:016x}.atime", hash.0))
    }

    fn pin_path(&self, hash: DeckHash) -> PathBuf {
        self.root.join("pins").join(format!("{:016x}", hash.0))
    }

    /// Write `bytes` to a fresh tmp file, fsync, then rename onto `dest`.
    fn commit(&self, dest: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.root.join("tmp").join(format!(
            "{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, dest) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Store a blob, returning its content address. Idempotent: an object
    /// that already exists is not rewritten.
    pub fn put_object(&self, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        let id = ObjectId(fnv1a(bytes));
        let dest = self.object_path(id);
        if dest.exists() {
            return Ok(id);
        }
        fs::create_dir_all(dest.parent().expect("object path has prefix dir"))?;
        self.commit(&dest, bytes)?;
        Ok(id)
    }

    /// Fetch a blob, verifying its content hash on the way out.
    pub fn get_object(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        let path = self.object_path(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(format!("object {id}")));
            }
            Err(e) => return Err(e.into()),
        };
        if fnv1a(&bytes) != id.0 {
            return Err(StoreError::Corrupt(format!(
                "object {id} content does not match its address"
            )));
        }
        Ok(bytes)
    }

    /// Publish a manifest atomically, stamping its access time.
    pub fn publish(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let hash = manifest.deck_hash;
        self.commit(&self.manifest_path(hash), manifest.to_json().as_bytes())?;
        // Best-effort sidecar: a missing atime just means "oldest" to GC.
        let _ = fs::write(self.atime_path(hash), now_unix_us().to_string());
        Ok(())
    }

    /// Look up a manifest by deck hash, refreshing its LRU access time on a
    /// hit. `Ok(None)` means a clean miss; decode failures are errors.
    pub fn lookup(&self, hash: DeckHash) -> Result<Option<Manifest>, StoreError> {
        let path = self.manifest_path(hash);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let m = Manifest::from_json(&text)
            .map_err(|e| StoreError::Corrupt(format!("manifest {hash}: {e}")))?;
        if m.deck_hash != hash {
            return Err(StoreError::Corrupt(format!(
                "manifest {hash} declares deck hash {}",
                m.deck_hash
            )));
        }
        let _ = fs::write(self.atime_path(hash), now_unix_us().to_string());
        Ok(Some(m))
    }

    /// Whether a manifest for this deck hash is published.
    pub fn contains(&self, hash: DeckHash) -> bool {
        self.manifest_path(hash).exists()
    }

    /// Pin a manifest so GC never evicts it (golden runs).
    pub fn pin(&self, hash: DeckHash) -> Result<(), StoreError> {
        if !self.contains(hash) {
            return Err(StoreError::NotFound(format!("manifest {hash}")));
        }
        fs::write(self.pin_path(hash), b"")?;
        Ok(())
    }

    /// Remove a pin (no-op if not pinned).
    pub fn unpin(&self, hash: DeckHash) -> Result<(), StoreError> {
        match fs::remove_file(self.pin_path(hash)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Whether a manifest is pinned.
    pub fn pinned(&self, hash: DeckHash) -> bool {
        self.pin_path(hash).exists()
    }

    /// All published deck hashes (unsorted).
    pub fn manifests(&self) -> Result<Vec<DeckHash>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join("manifests"))? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".json") {
                if let Ok(v) = u64::from_str_radix(hex, 16) {
                    out.push(DeckHash(v));
                }
            }
        }
        Ok(out)
    }

    fn file_size(path: &Path) -> u64 {
        fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }

    fn atime_of(&self, hash: DeckHash) -> u64 {
        fs::read_to_string(self.atime_path(hash))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Occupancy snapshot: counts and total bytes (sidecars excluded).
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut s = StoreStats::default();
        for hash in self.manifests()? {
            s.manifests += 1;
            s.bytes += Self::file_size(&self.manifest_path(hash));
            if self.pinned(hash) {
                s.pinned += 1;
            }
        }
        for prefix in fs::read_dir(self.root.join("objects"))? {
            let prefix = prefix?;
            if !prefix.file_type()?.is_dir() {
                continue;
            }
            for obj in fs::read_dir(prefix.path())? {
                let obj = obj?;
                s.objects += 1;
                s.bytes += obj.metadata()?.len();
            }
        }
        Ok(s)
    }

    /// Evict down to `budget_bytes`: least-recently-used unpinned manifests
    /// go first, then any blob no surviving manifest references. Pinned
    /// manifests (and their objects) are never touched, so the store can
    /// legitimately stay over budget when pins alone exceed it.
    pub fn gc(&self, budget_bytes: u64) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        let before = self.stats()?.bytes;
        let mut survivors: Vec<Manifest> = Vec::new();
        // Oldest access first; hash tie-break keeps eviction deterministic.
        let mut candidates: Vec<(u64, DeckHash)> = Vec::new();
        for hash in self.manifests()? {
            match self.lookup_no_touch(hash)? {
                Some(m) if !self.pinned(hash) => {
                    candidates.push((self.atime_of(hash), hash));
                    survivors.push(m);
                }
                Some(m) => survivors.push(m),
                // A manifest listed but unreadable mid-pass: skip it.
                None => {}
            }
        }
        candidates.sort_unstable_by_key(|&(at, h)| (at, h.0));
        let mut size = before;
        for (_, hash) in candidates {
            if size <= budget_bytes {
                break;
            }
            let freed = Self::file_size(&self.manifest_path(hash));
            fs::remove_file(self.manifest_path(hash))?;
            let _ = fs::remove_file(self.atime_path(hash));
            survivors.retain(|m| m.deck_hash != hash);
            report.evicted_manifests += 1;
            size = size.saturating_sub(freed);
        }
        // Second pass: drop blobs nothing references any more.
        let referenced: std::collections::HashSet<ObjectId> = survivors
            .iter()
            .flat_map(|m| {
                [Some(m.deck_object), Some(m.outcome_object), m.trace_object]
            })
            .flatten()
            .collect();
        for prefix in fs::read_dir(self.root.join("objects"))? {
            let prefix = prefix?;
            if !prefix.file_type()?.is_dir() {
                continue;
            }
            for obj in fs::read_dir(prefix.path())? {
                let obj = obj?;
                let id: ObjectId = match obj.file_name().to_string_lossy().parse() {
                    Ok(id) => id,
                    Err(_) => continue,
                };
                if !referenced.contains(&id) {
                    let freed = obj.metadata()?.len();
                    fs::remove_file(obj.path())?;
                    report.evicted_objects += 1;
                    size = size.saturating_sub(freed);
                }
            }
        }
        report.bytes_after = self.stats()?.bytes;
        report.bytes_freed = before.saturating_sub(report.bytes_after);
        Ok(report)
    }

    /// `lookup` without the LRU touch — GC must not refresh what it reads.
    fn lookup_no_touch(&self, hash: DeckHash) -> Result<Option<Manifest>, StoreError> {
        let text = match fs::read_to_string(self.manifest_path(hash)) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Manifest::from_json(&text)
            .map(Some)
            .map_err(|e| StoreError::Corrupt(format!("manifest {hash}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::test_manifest;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xg-artifact-test-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A manifest whose object pointers actually exist in `store`.
    fn publish_real(store: &ArtifactStore, seed: u8, hash: u64) -> Manifest {
        let deck = vec![seed; 64];
        let outcome = vec![seed ^ 0xff; 256];
        let mut m = test_manifest();
        m.deck_hash = DeckHash(hash);
        m.deck_object = store.put_object(&deck).unwrap();
        m.outcome_object = store.put_object(&outcome).unwrap();
        m.trace_object = None;
        m.outcome_bytes = outcome.len() as u64;
        store.publish(&m).unwrap();
        m
    }

    #[test]
    fn objects_roundtrip_and_dedupe() {
        let dir = scratch("objects");
        let store = ArtifactStore::open(&dir).unwrap();
        let id = store.put_object(b"hello artifacts").unwrap();
        assert_eq!(store.put_object(b"hello artifacts").unwrap(), id);
        assert!(store.get_object(id).is_ok());
        assert_eq!(store.get_object(id).unwrap(), b"hello artifacts");
        assert_eq!(id.to_string().parse::<ObjectId>().unwrap(), id);
        assert!(matches!(
            store.get_object(ObjectId(1)),
            Err(StoreError::NotFound(_))
        ));
        // A blob whose bytes were tampered with is refused, not returned.
        fs::write(store.object_path(id), b"tampered!").unwrap();
        assert!(matches!(store.get_object(id), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_lookup_roundtrip_and_clean_miss() {
        let dir = scratch("publish");
        let store = ArtifactStore::open(&dir).unwrap();
        let m = publish_real(&store, 1, 0xa1);
        assert!(store.contains(m.deck_hash));
        assert_eq!(store.lookup(m.deck_hash).unwrap().unwrap(), m);
        assert!(store.lookup(DeckHash(0xdead)).unwrap().is_none());
        // tmp/ is empty after commits: nothing is left half-written.
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_evicts_lru_first_and_respects_pins() {
        let dir = scratch("gc");
        let store = ArtifactStore::open(&dir).unwrap();
        let old = publish_real(&store, 1, 0x01);
        let pinned = publish_real(&store, 2, 0x02);
        let fresh = publish_real(&store, 3, 0x03);
        store.pin(pinned.deck_hash).unwrap();
        // Make access order unambiguous: old ← pinned ← fresh.
        fs::write(store.atime_path(old.deck_hash), "100").unwrap();
        fs::write(store.atime_path(pinned.deck_hash), "200").unwrap();
        fs::write(store.atime_path(fresh.deck_hash), "300").unwrap();
        let report = store.gc(0).unwrap();
        // Budget 0 evicts every unpinned manifest; the pinned one survives
        // with its objects, so the store stays legitimately non-empty.
        assert_eq!(report.evicted_manifests, 2);
        assert!(report.evicted_objects >= 2);
        assert!(report.bytes_freed > 0);
        assert!(!store.contains(old.deck_hash));
        assert!(!store.contains(fresh.deck_hash));
        assert_eq!(store.lookup(pinned.deck_hash).unwrap().unwrap(), pinned);
        assert_eq!(
            store.get_object(pinned.outcome_object).unwrap().len(),
            pinned.outcome_bytes as usize
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_under_budget_is_a_noop() {
        let dir = scratch("noop");
        let store = ArtifactStore::open(&dir).unwrap();
        let m = publish_real(&store, 4, 0x04);
        let stats = store.stats().unwrap();
        assert_eq!(stats.manifests, 1);
        assert_eq!(stats.objects, 2);
        let report = store.gc(stats.bytes).unwrap();
        assert_eq!(report.evicted_manifests, 0);
        assert_eq!(report.evicted_objects, 0);
        assert_eq!(report.bytes_after, stats.bytes);
        assert!(store.contains(m.deck_hash));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_objects_survive_partial_eviction() {
        let dir = scratch("shared");
        let store = ArtifactStore::open(&dir).unwrap();
        // Two manifests pointing at the same deck blob.
        let deck = store.put_object(b"shared deck").unwrap();
        let mut a = test_manifest();
        a.deck_hash = DeckHash(0x0a);
        a.deck_object = deck;
        a.outcome_object = store.put_object(b"outcome a").unwrap();
        a.trace_object = None;
        store.publish(&a).unwrap();
        let mut b = a.clone();
        b.deck_hash = DeckHash(0x0b);
        b.outcome_object = store.put_object(b"outcome b").unwrap();
        store.publish(&b).unwrap();
        store.pin(b.deck_hash).unwrap();
        store.gc(0).unwrap();
        // a is gone, but the deck blob b still references must remain.
        assert!(!store.contains(a.deck_hash));
        assert_eq!(store.get_object(deck).unwrap(), b"shared deck");
        assert!(store.get_object(a.outcome_object).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pin_requires_existing_manifest_and_unpin_is_idempotent() {
        let dir = scratch("pins");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(matches!(
            store.pin(DeckHash(0x77)),
            Err(StoreError::NotFound(_))
        ));
        let m = publish_real(&store, 5, 0x77);
        store.pin(m.deck_hash).unwrap();
        assert!(store.pinned(m.deck_hash));
        store.unpin(m.deck_hash).unwrap();
        store.unpin(m.deck_hash).unwrap();
        assert!(!store.pinned(m.deck_hash));
        fs::remove_dir_all(&dir).unwrap();
    }
}
