//! The persistent artifact store: a versioned, shared promotion of the
//! `cfd-exec` result cache.
//!
//! The store root *is* a `DiskCache` directory — entries at
//! `<root>/<fingerprint>.json`, journals under `<root>/journal/`,
//! quarantined corpses under `<root>/quarantine/` — plus two files the
//! plain cache does not have:
//!
//! * `store.json` — the store's version stamp, written on first open and
//!   verified on every later one, so two builds with incompatible store
//!   layouts can never silently share a root;
//! * `index.json` — an on-demand summary (entry counts and bytes, per
//!   job kind, plus quarantine usage), regenerated by
//!   [`ArtifactStore::write_index`] so operators can inspect a store
//!   without scanning it.
//!
//! Because identity lives in content fingerprints, sharing is safe by
//! construction: any number of daemons, CLI runs, and test processes can
//! point at one root, and the worst interleaving (two writers racing on
//! one entry) still leaves a complete entry thanks to the cache's
//! atomic tmp+rename store.

use cfd_exec::json::quote;
use cfd_exec::{DiskCache, Json, CACHE_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Store-layout version; bump when the on-disk layout (not the entry
/// codec — that is [`CACHE_VERSION`]) changes incompatibly.
pub const STORE_VERSION: u64 = 1;

/// Aggregate usage of a store, from one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entries.
    pub entries: u64,
    /// Total bytes across live entries.
    pub bytes: u64,
    /// Per-kind `(entries, bytes)`, in kind order.
    pub kinds: BTreeMap<String, (u64, u64)>,
    /// Quarantined files awaiting inspection or GC.
    pub quarantined: u64,
    /// Bytes held by quarantined files.
    pub quarantined_bytes: u64,
}

impl StoreStats {
    /// Deterministic multi-line text rendering (the `store_stats` wire
    /// response and the CLI's `stats` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "[store] version={STORE_VERSION} entries={} bytes={} quarantined={} quarantined_bytes={}\n",
            self.entries, self.bytes, self.quarantined, self.quarantined_bytes
        );
        for (kind, (entries, bytes)) in &self.kinds {
            let _ = writeln!(out, "[store] kind={kind} entries={entries} bytes={bytes}");
        }
        out
    }
}

/// Handle to an opened artifact store.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    cache: DiskCache,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `root`.
    ///
    /// A fresh root gets a `store.json` stamp; an existing root must
    /// carry a matching [`STORE_VERSION`] or the open is refused — a
    /// layout mismatch is operator error, not something to paper over.
    pub fn open(root: &Path) -> Result<ArtifactStore, String> {
        fs::create_dir_all(root).map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        let meta_path = root.join("store.json");
        match fs::read_to_string(&meta_path) {
            Ok(text) => {
                let meta =
                    Json::parse(&text).map_err(|e| format!("corrupt store meta {}: {e}", meta_path.display()))?;
                let version = meta.get("store_version").and_then(Json::as_u64);
                if version != Some(STORE_VERSION) {
                    return Err(format!(
                        "store {} has layout version {version:?}, this build expects {STORE_VERSION}",
                        root.display()
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let meta = format!("{{\"store_version\":{STORE_VERSION},\"cache_version\":{CACHE_VERSION}}}\n");
                fs::write(&meta_path, meta).map_err(|e| format!("cannot stamp store {}: {e}", meta_path.display()))?;
            }
            Err(e) => return Err(format!("cannot read store meta {}: {e}", meta_path.display())),
        }
        Ok(ArtifactStore { root: root.to_path_buf(), cache: DiskCache::new(root) })
    }

    /// The store root (use as `ExecConfig::cache_dir` so engines share
    /// the store).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The underlying cache handle.
    pub fn cache(&self) -> &DiskCache {
        &self.cache
    }

    /// Scans the store and aggregates usage.
    pub fn stats(&self) -> StoreStats {
        let mut kinds: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let (mut entries, mut bytes) = (0u64, 0u64);
        for e in self.cache.scan() {
            entries += 1;
            bytes += e.bytes;
            let slot = kinds.entry(e.kind).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.bytes;
        }
        let (quarantined, quarantined_bytes) = self.cache.quarantine_usage();
        StoreStats { entries, bytes, kinds, quarantined, quarantined_bytes }
    }

    /// Regenerates `<root>/index.json` from a fresh scan and returns the
    /// stats it summarized. The index is advisory (the scan is the
    /// ground truth); it exists so `cat index.json` answers "what is in
    /// this store" without tooling.
    pub fn write_index(&self) -> Result<StoreStats, String> {
        let stats = self.stats();
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"store_version\":{STORE_VERSION},\"entries\":{},\"bytes\":{},\"quarantined\":{},\"quarantined_bytes\":{},\"kinds\":{{",
            stats.entries, stats.bytes, stats.quarantined, stats.quarantined_bytes
        );
        for (i, (kind, (entries, bytes))) in stats.kinds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{{\"entries\":{entries},\"bytes\":{bytes}}}", quote(kind));
        }
        s.push_str("}}\n");
        let path = self.root.join("index.json");
        fs::write(&path, s).map_err(|e| format!("cannot write index {}: {e}", path.display()))?;
        Ok(stats)
    }

    /// Deletes quarantined entries; returns `(files removed, bytes
    /// freed)`.
    pub fn gc_quarantine(&self) -> (u64, u64) {
        self.cache.gc_quarantine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_exec::Fingerprint;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_stamps_and_reopens() {
        let root = temp_root("stamp");
        let store = ArtifactStore::open(&root).unwrap();
        assert!(root.join("store.json").exists());
        drop(store);
        // Re-open accepts its own stamp.
        ArtifactStore::open(&root).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let root = temp_root("mismatch");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("store.json"), "{\"store_version\":999}\n").unwrap();
        let err = ArtifactStore::open(&root).unwrap_err();
        assert!(err.contains("layout version"), "unexpected error: {err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_and_index_reflect_contents() {
        let root = temp_root("stats");
        let store = ArtifactStore::open(&root).unwrap();
        store.cache().store("sim", Fingerprint(1, 2), "a", "{\"v\":1}").unwrap();
        store.cache().store("sim", Fingerprint(3, 4), "b", "{\"v\":2}").unwrap();
        store.cache().store("lint", Fingerprint(5, 6), "c", "{\"v\":3}").unwrap();
        let stats = store.write_index().unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.kinds["sim"].0, 2);
        assert_eq!(stats.kinds["lint"].0, 1);
        assert!(stats.bytes > 0);
        let index = fs::read_to_string(root.join("index.json")).unwrap();
        let v = Json::parse(&index).unwrap();
        assert_eq!(v.get("entries").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("kinds").unwrap().get("sim").unwrap().get("entries").unwrap().as_u64(), Some(2));
        let rendered = stats.render();
        assert!(rendered.contains("entries=3"));
        assert!(rendered.contains("kind=lint entries=1"));
        // The meta/index files are not mistaken for entries.
        assert!(!rendered.contains("kind=?"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_clears_quarantine_only() {
        let root = temp_root("gc");
        let store = ArtifactStore::open(&root).unwrap();
        store.cache().store("sim", Fingerprint(1, 2), "a", "{\"v\":1}").unwrap();
        let bad = Fingerprint(9, 9);
        fs::write(root.join(format!("{}.json", bad.hex())), "not json").unwrap();
        let _ = store.cache().load_checked("sim", bad);
        assert_eq!(store.stats().quarantined, 1);
        let (removed, freed) = store.gc_quarantine();
        assert_eq!(removed, 1);
        assert!(freed > 0);
        let after = store.stats();
        assert_eq!((after.quarantined, after.entries), (0, 1));
        let _ = fs::remove_dir_all(&root);
    }
}
