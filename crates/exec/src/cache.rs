//! Content-addressed on-disk result cache with self-healing.
//!
//! Entries live at `<dir>/<fingerprint>.json`; the fingerprint covers the
//! full job content (program bytes, memory image, core configuration,
//! limits), so a cache file never has to be invalidated by hand — any
//! input change produces a different file name, and stale entries are
//! simply never read again. Each entry wraps the job's result JSON with a
//! version, the job kind, and a trailing integrity digest over everything
//! that precedes it:
//!
//! ```json
//! {"cache_version": 4, "kind": "sim", "job": "soplex_like [base]", "result": {...}, "check": "9f2c..."}
//! ```
//!
//! The `check` field is the hex of the repo's 128-bit content fingerprint
//! ([`Hasher`]) computed over the entry bytes up to (not including) the
//! `,"check":` suffix. Because the digest is the *last* thing written, a
//! torn write (crash mid-store, non-atomic filesystem) leaves a file whose
//! suffix is malformed, and a bit flip anywhere in the payload fails
//! verification.
//!
//! Cache degradation is graded, never fatal:
//!
//! * an absent entry, stale `cache_version`, or `kind` mismatch is a
//!   plain **miss** — the job re-executes, nothing else happens;
//! * an unparseable or digest-failing entry is **corrupt** — the file is
//!   moved into `<dir>/quarantine/` for post-mortem inspection, the
//!   engine counts it (`corrupt=` in the stats line), and the job
//!   transparently re-executes, overwriting the slot with a good entry
//!   (self-healing);
//! * a failing **store** (disk full, permissions) flips the cache into
//!   degraded mode: the engine warns once and finishes the campaign
//!   cache-off instead of panicking.
//!
//! The cache can therefore never make a sweep fail — only make it faster.

use crate::chaos::IoFaultShim;
use crate::fingerprint::{Fingerprint, Hasher};
use crate::json::{write_str, Json};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Entry-format version; bump when a result codec changes shape so stale
/// entries from older builds read as misses instead of mis-decoding.
/// v2: `RunReport` stats gained the `cpi_slots` CPI-stack array.
/// v3: entries carry a trailing `check` integrity digest.
/// v4: the fingerprint hashes words, not bytes, so every entry name and
/// `check` digest changed; v3 entries read as plain misses.
pub const CACHE_VERSION: u64 = 4;

/// Byte length of the fixed `,"check":"<32 hex>"}\n` suffix that closes
/// every entry. The digest covers everything before this suffix.
const CHECK_SUFFIX_LEN: usize = 10 + 32 + 3;

/// A cache IO failure with enough context to act on. `Io` failures flip
/// the cache into degraded (cache-off) mode; `Corrupt` entries are
/// quarantined and re-executed.
#[derive(Debug)]
pub enum CacheError {
    /// A filesystem operation failed (disk full, permissions, ...).
    Io {
        /// What the cache was doing (`"write"`, `"rename"`, ...).
        op: &'static str,
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// An entry failed integrity verification.
    Corrupt {
        /// The (pre-quarantine) entry path.
        path: PathBuf,
        /// Human-readable reason (`"unparseable"`, `"digest mismatch"`, ...).
        why: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { op, path, error } => {
                write!(f, "cache {op} failed for {}: {error}", path.display())
            }
            CacheError::Corrupt { path, why } => {
                write!(f, "corrupt cache entry {}: {why}", path.display())
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io { error, .. } => Some(error),
            CacheError::Corrupt { .. } => None,
        }
    }
}

/// Outcome of a checked cache probe.
#[derive(Debug)]
pub enum CacheLoad {
    /// A verified entry; the parsed `result` field.
    Hit(Json),
    /// No usable entry (absent, stale version, other kind). Benign.
    Miss,
    /// The entry existed but failed verification; it has been moved to
    /// the quarantine directory (or deleted if the move failed) so the
    /// re-executed result can heal the slot.
    Corrupt(CacheError),
}

/// Handle to a cache directory.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    degraded: Arc<AtomicBool>,
    io_faults: Option<IoFaultShim>,
}

/// Summary of one live cache entry, produced by [`DiskCache::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntryInfo {
    /// The entry's fingerprint (its file stem), 32 hex digits.
    pub fingerprint: String,
    /// The job kind recorded in the entry (`"sim"`, `"lint"`, ...), or
    /// `"?"` if the entry is unreadable/unparseable.
    pub kind: String,
    /// On-disk size of the entry in bytes.
    pub bytes: u64,
}

/// Digest over the entry bytes that precede the `,"check":` suffix.
fn entry_digest(core: &str) -> Fingerprint {
    let mut h = Hasher::new();
    h.update(core.as_bytes());
    h.finish()
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir`. Creation failures
    /// are deferred: the handle still works, and the first failing store
    /// flips it into degraded mode.
    pub fn new(dir: &Path) -> DiskCache {
        let _ = fs::create_dir_all(dir);
        DiskCache { dir: dir.to_path_buf(), degraded: Arc::new(AtomicBool::new(false)), io_faults: None }
    }

    /// Routes every subsequent store through `shim`, which may tear or
    /// corrupt the written bytes. Chaos harness use only.
    pub fn with_io_faults(mut self, shim: IoFaultShim) -> DiskCache {
        self.io_faults = Some(shim);
        self
    }

    /// The directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where corrupt entries are moved for post-mortem inspection.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Whether a store has failed and disabled the cache for this handle
    /// (and all clones of it).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", fp.hex()))
    }

    /// Moves a corrupt entry aside (deleting it if the move fails) so the
    /// slot can be healed by a fresh store.
    fn quarantine(&self, path: &Path, why: String) -> CacheLoad {
        let qdir = self.quarantine_dir();
        let _ = fs::create_dir_all(&qdir);
        let moved = path.file_name().map(|name| fs::rename(path, qdir.join(name)).is_ok()).unwrap_or(false);
        if !moved {
            let _ = fs::remove_file(path);
        }
        CacheLoad::Corrupt(CacheError::Corrupt { path: path.to_path_buf(), why })
    }

    /// Looks up the result for `fp`, distinguishing verified hits, benign
    /// misses, and corrupt entries (which are quarantined as a side
    /// effect).
    pub fn load_checked(&self, kind: &str, fp: Fingerprint) -> CacheLoad {
        let path = self.entry_path(fp);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLoad::Miss,
            // Unreadable but present: treat as corrupt so it is moved
            // aside and the slot can heal.
            Err(e) => return self.quarantine(&path, format!("unreadable: {e}")),
        };
        let entry = match Json::parse(&text) {
            Ok(entry) => entry,
            Err(e) => return self.quarantine(&path, format!("unparseable: {e}")),
        };
        match entry.get("cache_version").and_then(Json::as_u64) {
            Some(v) if v == CACHE_VERSION => {}
            // Stale but well-formed entries from older builds are benign.
            Some(_) => return CacheLoad::Miss,
            None => return self.quarantine(&path, "missing cache_version".to_string()),
        }
        match entry.get("kind").and_then(Json::as_str) {
            Some(k) if k == kind => {}
            Some(_) => return CacheLoad::Miss,
            None => return self.quarantine(&path, "missing kind".to_string()),
        }
        // Verify the trailing digest over the raw bytes that precede it.
        if text.len() < CHECK_SUFFIX_LEN {
            return self.quarantine(&path, "truncated entry".to_string());
        }
        let (core, suffix) = text.split_at(text.len() - CHECK_SUFFIX_LEN);
        if !suffix.starts_with(",\"check\":\"") || !suffix.ends_with("\"}\n") {
            return self.quarantine(&path, "torn check suffix".to_string());
        }
        let recorded = &suffix[10..42];
        let computed = entry_digest(core).hex();
        if recorded != computed {
            return self.quarantine(&path, format!("digest mismatch: recorded {recorded}, computed {computed}"));
        }
        match entry.into_field("result") {
            Some(result) => CacheLoad::Hit(result),
            None => self.quarantine(&path, "missing result".to_string()),
        }
    }

    /// Compatibility probe collapsing [`CacheLoad`] to an `Option`:
    /// `None` on any kind of miss, including quarantined corruption.
    pub fn load(&self, kind: &str, fp: Fingerprint) -> Option<Json> {
        match self.load_checked(kind, fp) {
            CacheLoad::Hit(result) => Some(result),
            CacheLoad::Miss | CacheLoad::Corrupt(_) => None,
        }
    }

    /// Stores `result_json` (a complete JSON document) for `fp`. Atomic:
    /// the entry is written to a temp file and renamed into place, so
    /// concurrent writers of the same entry (two sweeps racing) leave a
    /// complete entry, never a torn one. A filesystem failure flips this
    /// handle into degraded mode and is reported so the engine can warn
    /// once and carry on cache-off.
    pub fn store(&self, kind: &str, fp: Fingerprint, describe: &str, result_json: &str) -> Result<(), CacheError> {
        if self.is_degraded() {
            return Ok(());
        }
        let mut entry = String::with_capacity(result_json.len() + 192);
        entry.push_str("{\"cache_version\":");
        entry.push_str(&CACHE_VERSION.to_string());
        entry.push_str(",\"kind\":");
        write_str(&mut entry, kind);
        entry.push_str(",\"job\":");
        write_str(&mut entry, describe);
        entry.push_str(",\"result\":");
        entry.push_str(result_json);
        let digest = entry_digest(&entry).hex();
        entry.push_str(",\"check\":\"");
        entry.push_str(&digest);
        entry.push_str("\"}\n");

        let mut bytes = entry.into_bytes();
        if let Some(shim) = &self.io_faults {
            shim.mangle("cache.store", &mut bytes);
        }

        let path = self.entry_path(fp);
        let tmp = self.dir.join(format!("{}.json.tmp.{}", fp.hex(), std::process::id()));
        if let Err(error) = fs::write(&tmp, bytes) {
            self.degraded.store(true, Ordering::Relaxed);
            return Err(CacheError::Io { op: "write", path: tmp, error });
        }
        if let Err(error) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            self.degraded.store(true, Ordering::Relaxed);
            return Err(CacheError::Io { op: "rename", path, error });
        }
        Ok(())
    }

    /// Enumerates the live entries (`<dir>/<32 hex>.json`), sorted by
    /// fingerprint so the listing is deterministic. Each entry's recorded
    /// `kind` is read back for per-kind accounting; unreadable entries
    /// report kind `"?"` rather than failing the scan. Non-entry files
    /// (temp files, the journal and quarantine subdirectories) are
    /// skipped.
    pub fn scan(&self) -> Vec<CacheEntryInfo> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.dir) else { return out };
        for de in rd.flatten() {
            let path = de.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            let is_entry = path.extension().and_then(|e| e.to_str()) == Some("json")
                && stem.len() == 32
                && stem.chars().all(|c| c.is_ascii_hexdigit());
            if !is_entry || !path.is_file() {
                continue;
            }
            let bytes = de.metadata().map(|m| m.len()).unwrap_or(0);
            let kind = fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|v| v.get("kind").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_else(|| "?".to_string());
            out.push(CacheEntryInfo { fingerprint: stem.to_string(), kind, bytes });
        }
        out.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        out
    }

    /// Counts quarantined entries: `(files, total bytes)`.
    pub fn quarantine_usage(&self) -> (u64, u64) {
        let (mut files, mut bytes) = (0u64, 0u64);
        if let Ok(rd) = fs::read_dir(self.quarantine_dir()) {
            for de in rd.flatten() {
                if de.path().is_file() {
                    files += 1;
                    bytes += de.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        (files, bytes)
    }

    /// Deletes every quarantined entry (they exist only for post-mortem
    /// inspection; the live slots they came from have already re-executed
    /// and healed). Returns `(files removed, bytes freed)`.
    pub fn gc_quarantine(&self) -> (u64, u64) {
        let (mut files, mut bytes) = (0u64, 0u64);
        if let Ok(rd) = fs::read_dir(self.quarantine_dir()) {
            for de in rd.flatten() {
                let path = de.path();
                if path.is_file() {
                    let len = de.metadata().map(|m| m.len()).unwrap_or(0);
                    if fs::remove_file(&path).is_ok() {
                        files += 1;
                        bytes += len;
                    }
                }
            }
        }
        (files, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::IoFaultKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-exec-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(1, 2);
        cache.store("sim", fp, "kernel [base]", r#"{"cycles":42}"#).unwrap();
        let got = cache.load("sim", fp).expect("entry present");
        assert_eq!(got.get("cycles").unwrap().as_u64(), Some(42));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_is_a_miss() {
        let dir = temp_dir("kind");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(3, 4);
        cache.store("sim", fp, "j", "{}").unwrap();
        assert!(matches!(cache.load_checked("profile", fp), CacheLoad::Miss));
        assert!(cache.load("sim", fp).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_entries_are_plain_misses() {
        let dir = temp_dir("absent");
        let cache = DiskCache::new(&dir);
        assert!(matches!(cache.load_checked("sim", Fingerprint(5, 6)), CacheLoad::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_entries_are_quarantined() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(5, 6);
        let path = dir.join(format!("{}.json", fp.hex()));
        fs::write(&path, "not json").unwrap();
        assert!(matches!(cache.load_checked("sim", fp), CacheLoad::Corrupt(_)));
        assert!(!path.exists(), "corrupt entry moved out of the way");
        assert!(
            cache.quarantine_dir().join(format!("{}.json", fp.hex())).exists(),
            "corrupt entry preserved in quarantine"
        );
        // The slot heals: a fresh store overwrites and verifies.
        cache.store("sim", fp, "j", r#"{"v":9}"#).unwrap();
        assert!(matches!(cache.load_checked("sim", fp), CacheLoad::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_a_miss_not_corruption() {
        let dir = temp_dir("version");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(7, 8);
        let path = dir.join(format!("{}.json", fp.hex()));
        fs::write(&path, r#"{"cache_version":999,"kind":"sim","job":"j","result":{}}"#).unwrap();
        assert!(matches!(cache.load_checked("sim", fp), CacheLoad::Miss));
        assert!(path.exists(), "stale entries are left alone, not quarantined");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_payload_fails_the_digest() {
        let dir = temp_dir("bitflip");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(9, 10);
        cache.store("sim", fp, "j", r#"{"cycles":1234}"#).unwrap();
        let path = dir.join(format!("{}.json", fp.hex()));
        let mut text = fs::read_to_string(&path).unwrap();
        // Corrupt the result payload without breaking JSON syntax.
        let flipped = text.replace("1234", "1235");
        assert_ne!(text, flipped);
        text = flipped;
        fs::write(&path, text).unwrap();
        match cache.load_checked("sim", fp) {
            CacheLoad::Corrupt(CacheError::Corrupt { why, .. }) => {
                assert!(why.contains("digest mismatch"), "unexpected reason: {why}");
            }
            other => panic!("expected digest corruption, got {other:?}"),
        }
        assert!(cache.load("sim", fp).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_detected_as_torn() {
        let dir = temp_dir("torn");
        let cache = DiskCache::new(&dir);
        let fp = Fingerprint(11, 12);
        cache.store("sim", fp, "j", r#"{"cycles":7}"#).unwrap();
        let path = dir.join(format!("{}.json", fp.hex()));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 10]).unwrap();
        assert!(matches!(cache.load_checked("sim", fp), CacheLoad::Corrupt(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_store_via_shim_is_caught_on_load() {
        let dir = temp_dir("shim");
        let shim = IoFaultShim::new(3, IoFaultKind::TornWrite, 1);
        let cache = DiskCache::new(&dir).with_io_faults(shim.clone());
        let fp = Fingerprint(13, 14);
        cache.store("sim", fp, "j", r#"{"cycles":77}"#).unwrap();
        assert_eq!(shim.injected_count(), 1);
        // The torn entry must never read back as a hit.
        assert!(!matches!(cache.load_checked("sim", fp), CacheLoad::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_store_degrades_to_cache_off() {
        let dir = temp_dir("degrade");
        let cache = DiskCache::new(&dir);
        // Remove the directory out from under the cache so writes fail.
        fs::remove_dir_all(&dir).unwrap();
        let fp = Fingerprint(15, 16);
        let err = cache.store("sim", fp, "j", "{}").unwrap_err();
        assert!(matches!(err, CacheError::Io { op: "write", .. }));
        assert!(cache.is_degraded());
        // Subsequent stores are silent no-ops.
        cache.store("sim", fp, "j", "{}").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_lists_live_entries_and_gc_clears_quarantine() {
        let dir = temp_dir("scan");
        let cache = DiskCache::new(&dir);
        cache.store("sim", Fingerprint(1, 2), "a", r#"{"v":1}"#).unwrap();
        cache.store("lint", Fingerprint(3, 4), "b", r#"{"v":2}"#).unwrap();
        // A corrupt entry lands in quarantine, not the live listing.
        let bad = Fingerprint(5, 6);
        fs::write(dir.join(format!("{}.json", bad.hex())), "not json").unwrap();
        assert!(matches!(cache.load_checked("sim", bad), CacheLoad::Corrupt(_)));

        let entries = cache.scan();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].fingerprint < w[1].fingerprint), "scan is sorted");
        let kinds: Vec<&str> = entries.iter().map(|e| e.kind.as_str()).collect();
        assert!(kinds.contains(&"sim") && kinds.contains(&"lint"));
        assert!(entries.iter().all(|e| e.bytes > 0));

        let (qfiles, qbytes) = cache.quarantine_usage();
        assert_eq!(qfiles, 1);
        assert!(qbytes > 0);
        let (removed, freed) = cache.gc_quarantine();
        assert_eq!((removed, freed), (qfiles, qbytes));
        assert_eq!(cache.quarantine_usage(), (0, 0));
        // Live entries survive the GC.
        assert_eq!(cache.scan().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide() {
        let dir = temp_dir("distinct");
        let cache = DiskCache::new(&dir);
        cache.store("sim", Fingerprint(1, 1), "a", r#"{"v":1}"#).unwrap();
        cache.store("sim", Fingerprint(1, 2), "b", r#"{"v":2}"#).unwrap();
        assert_eq!(cache.load("sim", Fingerprint(1, 1)).unwrap().get("v").unwrap().as_u64(), Some(1));
        assert_eq!(cache.load("sim", Fingerprint(1, 2)).unwrap().get("v").unwrap().as_u64(), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }
}
