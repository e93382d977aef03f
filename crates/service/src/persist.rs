//! Disk persistence for the registry: a directory of `.lmcs` snapshots.
//!
//! The store implements the durability policy around the format defined in
//! [`lazymc_graph::snapshot`]:
//!
//! * **atomic writes** — every snapshot lands via temp file + fsync +
//!   rename (+ parent-directory fsync), so a crash mid-write leaves either
//!   the old file or the new one, never a torn hybrid;
//! * **index scan at boot** — [`SnapshotStore::open`] reads only the fixed
//!   64-byte header of each file to learn names, fingerprints and sizes;
//!   payloads stay untouched until a graph is actually asked for;
//! * **lazy reload** — [`SnapshotStore::load`] runs the validation ladder
//!   ([`Layout::validate`]: checksum, structure, fingerprint, coreness
//!   shape) and copies the graph out on the first `GET`/`POST /solve`
//!   after boot; [`SnapshotStore::load_mapped`] runs the same ladder over
//!   a mapping instead;
//! * **quarantine, never crash** — a file that fails any validation is
//!   renamed to `<file>.corrupt` with a warning on stderr and dropped from
//!   the index; the daemon keeps serving.

use crate::plock;
use lazymc_graph::snapshot::{write_file_atomic, Layout, Snapshot};
use lazymc_graph::{CsrGraph, MappedSnapshot};
use lazymc_order::{embed_kcore, extract_kcore, KCore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File extension of live snapshots.
pub const SNAPSHOT_EXT: &str = "lmcs";
/// Suffix appended (after the extension) to quarantined files.
pub const QUARANTINE_SUFFIX: &str = "corrupt";

/// What the boot-time index scan learned about one on-disk snapshot.
#[derive(Debug, Clone)]
struct IndexEntry {
    fingerprint: u64,
    bytes: u64,
}

/// A `--data-dir`-backed snapshot directory with an in-memory index.
pub struct SnapshotStore {
    dir: PathBuf,
    index: Mutex<HashMap<String, IndexEntry>>,
    /// Snapshots fully decoded on demand after boot.
    pub lazy_loads: AtomicU64,
    /// Snapshots mapped zero-copy (no heap decode) on demand after boot.
    pub mmap_loads: AtomicU64,
    /// Snapshots written (uploads and replacements).
    pub writes: AtomicU64,
    /// Snapshot writes that failed (the graph stays memory-only).
    pub write_errors: AtomicU64,
    /// Files renamed aside after failing validation.
    pub quarantined: AtomicU64,
}

/// `Some(file stem)` iff `name` is safe to use as a file name: the same
/// `[A-Za-z0-9._-]{1,128}` alphabet the HTTP layer enforces, re-checked
/// here because the registry is also a library API.
fn safe_name(name: &str) -> Option<&str> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    ok.then_some(name)
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory and index-scans it.
    /// Corrupt headers are quarantined during the scan; an unreadable
    /// directory is the only fatal error.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = SnapshotStore {
            dir,
            index: Mutex::new(HashMap::new()),
            lazy_loads: AtomicU64::new(0),
            mmap_loads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        store.scan()?;
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{SNAPSHOT_EXT}"))
    }

    /// Renames a failed file aside and counts it. Idempotent enough for a
    /// daemon: an existing quarantine file of the same name is replaced.
    fn quarantine(&self, path: &Path, why: &str) {
        let target = {
            let mut os = path.as_os_str().to_owned();
            os.push(".");
            os.push(QUARANTINE_SUFFIX);
            PathBuf::from(os)
        };
        eprintln!(
            "lazymc-service: quarantining snapshot {} -> {}: {why}",
            path.display(),
            target.display()
        );
        if std::fs::rename(path, &target).is_err() {
            // Rename failed (e.g. removed underneath us); try to at least
            // get the bad file out of the way.
            let _ = std::fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Header-only directory scan: learns names, fingerprints and sizes.
    fn scan(&self) -> std::io::Result<()> {
        let mut index = HashMap::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
                continue;
            }
            let Some(name) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(safe_name)
                .map(str::to_string)
            else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let header = match read_prefix(&path, lazymc_graph::snapshot::HEADER_LEN) {
                Ok(h) => h,
                Err(e) => {
                    self.quarantine(&path, &format!("unreadable header: {e}"));
                    continue;
                }
            };
            match Snapshot::peek(&header) {
                Ok(info) if info.file_len == meta.len() => {
                    index.insert(
                        name,
                        IndexEntry {
                            fingerprint: info.fingerprint,
                            bytes: meta.len(),
                        },
                    );
                }
                Ok(info) => {
                    self.quarantine(
                        &path,
                        &format!(
                            "length mismatch: header promises {} bytes, file has {}",
                            info.file_len,
                            meta.len()
                        ),
                    );
                }
                Err(e) => self.quarantine(&path, &e),
            }
        }
        *plock(&self.index) = index;
        Ok(())
    }

    /// Whether a (non-quarantined) snapshot of `name` is indexed on disk.
    pub fn contains(&self, name: &str) -> bool {
        plock(&self.index).contains_key(name)
    }

    /// Number of indexed snapshots.
    pub fn len(&self) -> usize {
        plock(&self.index).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Disk footprint of one snapshot, if indexed.
    pub fn bytes_of(&self, name: &str) -> Option<u64> {
        plock(&self.index).get(name).map(|e| e.bytes)
    }

    /// Total disk footprint of all indexed snapshots.
    pub fn total_bytes(&self) -> u64 {
        plock(&self.index).values().map(|e| e.bytes).sum()
    }

    /// Indexed names, unordered.
    pub fn names(&self) -> Vec<String> {
        plock(&self.index).keys().cloned().collect()
    }

    /// Durably writes a snapshot of `graph` + `kcore` under `name`.
    /// Returns `Err` for names that cannot be file names or on I/O failure
    /// (counted in [`SnapshotStore::write_errors`] by the caller's policy).
    pub fn save(&self, name: &str, graph: &CsrGraph, kcore: &KCore) -> std::io::Result<u64> {
        let Some(name) = safe_name(name) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("graph name {name:?} is not persistable"),
            ));
        };
        let mut snap = Snapshot::from_graph(graph);
        embed_kcore(&mut snap, kcore);
        let bytes = snap.encode();
        lazymc_chaos::io_point!("persist.write");
        write_file_atomic(&self.path_of(name), &bytes)?;
        let len = bytes.len() as u64;
        plock(&self.index).insert(
            name.to_string(),
            IndexEntry {
                fingerprint: snap.fingerprint,
                bytes: len,
            },
        );
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(len)
    }

    /// Reads the snapshot of `name`, validates it with
    /// [`Layout::validate`] and copies the graph and decomposition out.
    /// Any failure (missing file, checksum, structure, fingerprint, bad or
    /// missing coreness) quarantines the file and returns `None` — a load
    /// can only ever produce a graph+decomposition pair that is exactly
    /// what was saved.
    pub fn load(&self, name: &str) -> Option<(CsrGraph, KCore, u64)> {
        if safe_name(name).is_none() || !self.contains(name) {
            return None;
        }
        let path = self.path_of(name);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                self.quarantine(&path, &format!("unreadable: {e}"));
                plock(&self.index).remove(name);
                return None;
            }
        };
        let decoded = Layout::validate(&bytes).and_then(|layout| {
            let kcore = extract_kcore(&bytes, &layout)?;
            Ok((layout.graph(&bytes), kcore, layout.fingerprint))
        });
        match decoded {
            Ok(loaded) => {
                self.lazy_loads.fetch_add(1, Ordering::Relaxed);
                Some(loaded)
            }
            Err(e) => {
                self.quarantine(&path, &e);
                plock(&self.index).remove(name);
                None
            }
        }
    }

    /// Maps the snapshot of `name` zero-copy: [`MappedSnapshot::map`] runs
    /// the same [`Layout::validate`] ladder as [`SnapshotStore::load`] over
    /// the mapping, and the CSR arrays and embedded k-core sections are
    /// then borrowed straight out of it. No heap copy happens; the page
    /// cache backs every byte. Failure policy is identical to `load`: the
    /// file is quarantined and de-indexed, so a mapping can only ever
    /// expose exactly what was saved. A snapshot
    /// without an embedded decomposition is rejected too — callers rely on
    /// the mapped coreness/peel-order the same way heap loads rely on
    /// [`extract_kcore`].
    pub fn load_mapped(&self, name: &str) -> Option<MappedSnapshot> {
        if safe_name(name).is_none() || !self.contains(name) {
            return None;
        }
        let path = self.path_of(name);
        let mapped = MappedSnapshot::map(&path).and_then(|m| {
            if m.coreness().is_none() {
                Err("snapshot has no coreness section".to_string())
            } else {
                Ok(m)
            }
        });
        match mapped {
            Ok(m) => {
                self.mmap_loads.fetch_add(1, Ordering::Relaxed);
                Some(m)
            }
            Err(e) => {
                self.quarantine(&path, &e);
                plock(&self.index).remove(name);
                None
            }
        }
    }

    /// Integrity re-verification for the background scrubber: runs
    /// [`Layout::validate`] over the on-disk snapshot of `name` —
    /// checksum, structure, fingerprint, coreness — and checks a
    /// decomposition is embedded, without building a graph. Bit-rot
    /// quarantines the file exactly like a failed [`SnapshotStore::load`]
    /// would, so a corrupt snapshot is pulled from the index *before*
    /// any request tries to serve it. Returns `false` iff the file was
    /// quarantined (a name removed meanwhile verifies vacuously).
    pub fn verify(&self, name: &str) -> bool {
        if safe_name(name).is_none() || !self.contains(name) {
            return true;
        }
        let path = self.path_of(name);
        let checked = std::fs::read(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|bytes| extract_kcore(&bytes, &Layout::validate(&bytes)?).map(drop));
        match checked {
            Ok(()) => true,
            Err(e) => {
                self.quarantine(&path, &format!("scrub: {e}"));
                plock(&self.index).remove(name);
                false
            }
        }
    }

    /// Unlinks the snapshot of `name`; `true` if one was indexed. The
    /// in-memory CSR of any in-flight solve is untouched — `Arc`s keep the
    /// data alive regardless of what happens to the file.
    pub fn remove(&self, name: &str) -> bool {
        let had = plock(&self.index).remove(name).is_some();
        if had {
            let _ = std::fs::remove_file(self.path_of(name));
        }
        had
    }

    /// The indexed fingerprint of `name`'s snapshot, if any.
    pub fn fingerprint_of(&self, name: &str) -> Option<u64> {
        plock(&self.index).get(name).map(|e| e.fingerprint)
    }
}

/// Reads at most `cap` leading bytes of `path`.
fn read_prefix(path: &Path, cap: usize) -> std::io::Result<Vec<u8>> {
    use std::io::Read as _;
    let mut buf = vec![0u8; cap];
    let mut f = std::fs::File::open(path)?;
    let mut filled = 0;
    while filled < cap {
        match f.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    buf.truncate(filled);
    Ok(buf)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lazymc_graph::gen;
    use lazymc_order::kcore_sequential;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lazymc_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_remove_cycle() {
        let dir = tmp_dir("cycle");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let g = gen::planted_clique(90, 0.05, 7, 2);
        let kc = kcore_sequential(&g);
        let written = store.save("g1", &g, &kc).unwrap();
        assert!(written > 0);
        assert!(store.contains("g1"));
        assert_eq!(store.bytes_of("g1"), Some(written));
        assert_eq!(store.total_bytes(), written);
        assert_eq!(store.fingerprint_of("g1"), Some(g.fingerprint()));

        let (g2, kc2, fp) = store.load("g1").expect("load");
        assert_eq!(g2, g);
        assert_eq!(kc2, kc);
        assert_eq!(fp, g.fingerprint());
        assert_eq!(store.lazy_loads.load(Ordering::Relaxed), 1);

        assert!(store.remove("g1"));
        assert!(!store.contains("g1"));
        assert!(store.load("g1").is_none());
        assert!(!store.remove("g1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_indexes_previous_snapshots_without_loading() {
        let dir = tmp_dir("reopen");
        let g = gen::gnp(60, 0.1, 4);
        let kc = kcore_sequential(&g);
        {
            let store = SnapshotStore::open(&dir).unwrap();
            store.save("kept", &g, &kc).unwrap();
        }
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.contains("kept"));
        assert_eq!(store.fingerprint_of("kept"), Some(g.fingerprint()));
        assert_eq!(
            store.lazy_loads.load(Ordering::Relaxed),
            0,
            "scan must not decode"
        );
        let (g2, _, _) = store.load("kept").unwrap();
        assert_eq!(g2, g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_not_fatal() {
        let dir = tmp_dir("corrupt");
        let g = gen::planted_clique(70, 0.08, 6, 1);
        let kc = kcore_sequential(&g);
        {
            let store = SnapshotStore::open(&dir).unwrap();
            store.save("flip", &g, &kc).unwrap();
            store.save("trunc", &g, &kc).unwrap();
            store.save("garbage", &g, &kc).unwrap();
        }
        // Flip a payload byte (header still valid → survives scan, dies on load).
        let flip_path = dir.join("flip.lmcs");
        let mut bytes = std::fs::read(&flip_path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xff;
        std::fs::write(&flip_path, &bytes).unwrap();
        // Truncate another (caught at scan by the length check).
        let trunc_path = dir.join("trunc.lmcs");
        let bytes = std::fs::read(&trunc_path).unwrap();
        std::fs::write(&trunc_path, &bytes[..bytes.len() / 2]).unwrap();
        // And plain garbage (caught at scan by the magic check).
        std::fs::write(dir.join("garbage.lmcs"), b"not a snapshot at all").unwrap();

        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(
            store.quarantined.load(Ordering::Relaxed),
            2,
            "trunc + garbage at scan"
        );
        assert!(!store.contains("trunc"));
        assert!(!store.contains("garbage"));
        assert!(store.contains("flip"), "valid header passes the scan");
        assert!(
            store.load("flip").is_none(),
            "checksum catches the flip at load"
        );
        assert_eq!(store.quarantined.load(Ordering::Relaxed), 3);
        assert!(!store.contains("flip"));
        assert!(dir.join("flip.lmcs.corrupt").exists());
        assert!(dir.join("trunc.lmcs.corrupt").exists());
        assert!(dir.join("garbage.lmcs.corrupt").exists());
        // Quarantined files are not re-indexed on the next boot.
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_verify_quarantines_bit_rot() {
        let dir = tmp_dir("scrubv");
        let store = SnapshotStore::open(&dir).unwrap();
        let g = gen::planted_clique(60, 0.05, 5, 3);
        let kc = kcore_sequential(&g);
        store.save("ok", &g, &kc).unwrap();
        store.save("rot", &g, &kc).unwrap();
        assert!(store.verify("ok"));
        assert!(store.verify("missing"), "absent names verify vacuously");
        // Flip one payload byte: header stays valid, checksum does not.
        let path = dir.join("rot.lmcs");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 9;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(!store.verify("rot"), "a single flipped byte must be caught");
        assert!(!store.contains("rot"));
        assert!(dir.join("rot.lmcs.corrupt").exists());
        assert_eq!(store.quarantined.load(Ordering::Relaxed), 1);
        // Clean snapshots still verify and load.
        assert!(store.verify("ok"));
        assert!(store.load("ok").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsafe_names_are_rejected_not_written() {
        let dir = tmp_dir("names");
        let store = SnapshotStore::open(&dir).unwrap();
        let g = gen::complete(4);
        let kc = kcore_sequential(&g);
        assert!(store.save("a/b", &g, &kc).is_err());
        assert!(store.save("", &g, &kc).is_err());
        assert!(store.save(&"x".repeat(200), &g, &kc).is_err());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
