//! The on-disk store: layout, atomic writes, lookup, and quarantine.

use crate::entry::{Entry, StoredOutcome, FORMAT_VERSION};
use leaky_uarch::Fnv1a;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What a [`ResultStore::get`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A valid entry under the requested fingerprint.
    Hit(StoredOutcome),
    /// No entry for this key.
    Miss,
    /// An entry exists but was computed under a different code
    /// fingerprint — stale, recompute (the next put overwrites it).
    Stale,
    /// The entry failed validation and was moved to `quarantine/`;
    /// recompute.
    Quarantined,
}

/// Counters one sweep accumulates against a store. `hits` come from
/// resume lookups; everything else is a recompute reason or a write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cells served from the store without recomputation.
    pub hits: usize,
    /// Cells with no stored entry.
    pub misses: usize,
    /// Cells whose entry carried a different code fingerprint.
    pub stale: usize,
    /// Cells whose entry was corrupt and got quarantined.
    pub quarantined: usize,
    /// Entries written (or overwritten) by this sweep.
    pub writes: usize,
}

/// Why a store operation failed. Corrupt *entries* are not errors — they
/// quarantine and report [`Lookup::Quarantined`]; this type is for real
/// I/O failures and an incompatible store root.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed at the given path.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The store root was written by an incompatible format version.
    FormatMismatch {
        /// Version string found in the root marker file.
        found: String,
    },
    /// A value could not be encoded into the entry format (see
    /// [`crate::entry::EntryError::Unencodable`]).
    Unencodable {
        /// Which field refused to encode.
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::FormatMismatch { found } => write!(
                f,
                "store format {found:?} is not the supported {FORMAT_VERSION:?}"
            ),
            StoreError::Unencodable { what } => write!(f, "unencodable entry: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A content-addressed result store rooted at one directory.
///
/// Entries are keyed by the cell content key; the file name is the
/// FNV-1a hash of the key (keys contain `/` and `=`, so they are not
/// usable as file names directly), and the key is stored *inside* the
/// entry. In the astronomically unlikely event of a hash collision the
/// stored key disagrees with the requested one; the lookup reports a
/// miss and the next write overwrites — correctness degrades to a
/// recompute, never to serving the wrong cell's result.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if absent) a store rooted at `root`.
    ///
    /// Creates the `entries/`, `quarantine/` and `tmp/` subdirectories
    /// and the `format` version marker; refuses a root whose marker
    /// names a different format version.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        let root = root.into();
        for dir in [
            root.clone(),
            root.join("entries"),
            root.join("quarantine"),
            root.join("tmp"),
        ] {
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let marker = root.join("format");
        match fs::read_to_string(&marker) {
            Ok(found) => {
                if found.trim_end() != FORMAT_VERSION {
                    return Err(StoreError::FormatMismatch {
                        found: found.trim_end().to_string(),
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::write(&marker, format!("{FORMAT_VERSION}\n"))
                    .map_err(|e| io_err(&marker, e))?;
            }
            Err(e) => return Err(io_err(&marker, e)),
        }
        Ok(ResultStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file name an entry for `key` lives under.
    fn entry_name(key: &str) -> String {
        let mut h = Fnv1a::new();
        h.write_bytes(key.as_bytes());
        format!("{:016x}.entry", h.finish())
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join("entries").join(Self::entry_name(key))
    }

    /// Looks up `key` under `fingerprint`.
    ///
    /// A corrupt entry is moved to `quarantine/` (suffixed `.1`, `.2`, …
    /// if earlier quarantines of the same file exist) and reported as
    /// [`Lookup::Quarantined`]; the caller recomputes and overwrites.
    pub fn get(&self, key: &str, fingerprint: u64) -> Result<Lookup, StoreError> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Lookup::Miss),
            // Unreadable bytes (not-found aside) are corruption too:
            // quarantine the file rather than abort the sweep.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.quarantine(&path)?;
                return Ok(Lookup::Quarantined);
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        match Entry::decode(&text) {
            Ok(entry) => {
                if entry.key != key {
                    // Hash collision or a hand-moved file: structurally
                    // valid, just not this cell's entry. Treat as a miss;
                    // the next put overwrites.
                    Ok(Lookup::Miss)
                } else if entry.fingerprint != fingerprint {
                    Ok(Lookup::Stale)
                } else {
                    Ok(Lookup::Hit(entry.outcome))
                }
            }
            Err(_) => {
                self.quarantine(&path)?;
                Ok(Lookup::Quarantined)
            }
        }
    }

    /// Persists `outcome` for `key` under `fingerprint`, atomically:
    /// the entry is staged in `tmp/` and renamed into place, so readers
    /// never observe a half-written entry (a crash mid-write leaves only
    /// debris in `tmp/`).
    pub fn put(
        &self,
        key: &str,
        fingerprint: u64,
        outcome: &StoredOutcome,
    ) -> Result<(), StoreError> {
        let entry = Entry {
            key: key.to_string(),
            fingerprint,
            outcome: outcome.clone(),
        };
        let text = entry.encode().map_err(|e| StoreError::Unencodable {
            what: e.to_string(),
        })?;
        let name = Self::entry_name(key);
        let staged = self.root.join("tmp").join(&name);
        fs::write(&staged, text).map_err(|e| io_err(&staged, e))?;
        let target = self.root.join("entries").join(&name);
        fs::rename(&staged, &target).map_err(|e| io_err(&target, e))?;
        Ok(())
    }

    /// Moves a bad entry file into `quarantine/`, never overwriting an
    /// earlier quarantined generation of the same file.
    fn quarantine(&self, path: &Path) -> Result<(), StoreError> {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed.entry".to_string());
        let dir = self.root.join("quarantine");
        let mut target = dir.join(&name);
        let mut generation = 0u32;
        while target.exists() && generation < 1000 {
            generation += 1;
            target = dir.join(format!("{name}.{generation}"));
        }
        fs::rename(path, &target).map_err(|e| io_err(&target, e))?;
        Ok(())
    }

    /// Number of entries currently stored.
    pub fn entry_count(&self) -> Result<usize, StoreError> {
        self.count_dir("entries")
    }

    /// Number of quarantined files.
    pub fn quarantine_count(&self) -> Result<usize, StoreError> {
        self.count_dir("quarantine")
    }

    fn count_dir(&self, name: &str) -> Result<usize, StoreError> {
        let dir = self.root.join(name);
        let mut n = 0;
        for item in fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            item.map_err(|e| io_err(&dir, e))?;
            n += 1;
        }
        Ok(n)
    }

    /// Deterministically damages the stored entry for `key` (fault
    /// harness and CI corruption drills). Returns whether an entry
    /// existed to corrupt.
    pub fn corrupt_entry(&self, key: &str) -> Result<bool, StoreError> {
        let path = self.entry_path(key);
        if !path.exists() {
            return Ok(false);
        }
        fs::write(&path, "corrupted by fault injection\n").map_err(|e| io_err(&path, e))?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::StoredMetric;

    /// A unique, self-cleaning scratch directory per test.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("leaky_store_test_{}_{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn measured(v: f64) -> StoredOutcome {
        StoredOutcome::Measured {
            metrics: vec![StoredMetric {
                name: "m".to_string(),
                value: v,
            }],
            provenance: None,
            telemetry: None,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let scratch = Scratch::new("round_trip");
        let store = ResultStore::open(&scratch.0).expect("opens");
        assert_eq!(store.get("a/b=1", 7).expect("get"), Lookup::Miss);
        store.put("a/b=1", 7, &measured(0.25)).expect("put");
        assert_eq!(
            store.get("a/b=1", 7).expect("get"),
            Lookup::Hit(measured(0.25))
        );
        assert_eq!(store.entry_count().expect("count"), 1);
        // Reopening sees the same data.
        let reopened = ResultStore::open(&scratch.0).expect("reopens");
        assert_eq!(
            reopened.get("a/b=1", 7).expect("get"),
            Lookup::Hit(measured(0.25))
        );
    }

    #[test]
    fn fingerprint_mismatch_is_stale_and_overwritable() {
        let scratch = Scratch::new("stale");
        let store = ResultStore::open(&scratch.0).expect("opens");
        store.put("k", 1, &measured(1.0)).expect("put");
        assert_eq!(store.get("k", 2).expect("get"), Lookup::Stale);
        store.put("k", 2, &measured(2.0)).expect("overwrite");
        assert_eq!(store.get("k", 2).expect("get"), Lookup::Hit(measured(2.0)));
        assert_eq!(store.get("k", 1).expect("get"), Lookup::Stale);
        assert_eq!(store.entry_count().expect("count"), 1, "overwrote in place");
    }

    #[test]
    fn corrupt_entry_quarantines_then_recovers() {
        let scratch = Scratch::new("quarantine");
        let store = ResultStore::open(&scratch.0).expect("opens");
        store.put("k", 1, &measured(1.0)).expect("put");
        assert!(store.corrupt_entry("k").expect("corrupts"));
        assert_eq!(store.get("k", 1).expect("get"), Lookup::Quarantined);
        assert_eq!(store.quarantine_count().expect("count"), 1);
        assert_eq!(store.entry_count().expect("count"), 0, "moved, not copied");
        // The slot is free again: recompute, rewrite, hit.
        assert_eq!(store.get("k", 1).expect("get"), Lookup::Miss);
        store.put("k", 1, &measured(1.0)).expect("rewrite");
        assert_eq!(store.get("k", 1).expect("get"), Lookup::Hit(measured(1.0)));
        // A second corruption quarantines under a generation suffix.
        assert!(store.corrupt_entry("k").expect("corrupts again"));
        assert_eq!(store.get("k", 1).expect("get"), Lookup::Quarantined);
        assert_eq!(store.quarantine_count().expect("count"), 2);
    }

    #[test]
    fn unsupported_outcome_caches() {
        let scratch = Scratch::new("unsupported");
        let store = ResultStore::open(&scratch.0).expect("opens");
        store
            .put("mt/machine=E-2288G", 3, &StoredOutcome::Unsupported)
            .expect("put");
        assert_eq!(
            store.get("mt/machine=E-2288G", 3).expect("get"),
            Lookup::Hit(StoredOutcome::Unsupported)
        );
    }

    #[test]
    fn format_marker_guards_the_root() {
        let scratch = Scratch::new("format");
        let _ = ResultStore::open(&scratch.0).expect("opens");
        fs::write(scratch.0.join("format"), "leaky-store/v0\n").expect("rewrite marker");
        match ResultStore::open(&scratch.0) {
            Err(StoreError::FormatMismatch { found }) => assert_eq!(found, "leaky-store/v0"),
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
    }

    #[test]
    fn v1_marker_is_a_format_mismatch() {
        let scratch = Scratch::new("v1_marker");
        let _ = ResultStore::open(&scratch.0).expect("opens");
        fs::write(scratch.0.join("format"), "leaky-store/v1\n").expect("rewrite marker");
        match ResultStore::open(&scratch.0) {
            Err(StoreError::FormatMismatch { found }) => assert_eq!(found, "leaky-store/v1"),
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let scratch = Scratch::new("keys");
        let store = ResultStore::open(&scratch.0).expect("opens");
        for i in 0..32 {
            store
                .put(&format!("grid/i={i}"), 1, &measured(i as f64))
                .expect("put");
        }
        for i in 0..32 {
            assert_eq!(
                store.get(&format!("grid/i={i}"), 1).expect("get"),
                Lookup::Hit(measured(i as f64))
            );
        }
        assert_eq!(store.entry_count().expect("count"), 32);
    }
}
