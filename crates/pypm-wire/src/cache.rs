//! The content-addressed compile-result cache.
//!
//! The engine's inputs are fully described by bytes: the canonical
//! graph encoding, the rule-set encoding, and the semantic knobs
//! (sweep policy, library configuration, matcher backend — the backend
//! changes the machine-step/backtrack counters, so it is part of the
//! key, not a volatile detail). Hash them together ([`CacheKey`]) and a repeat
//! compile request is a lookup: the stored `pypm.pipeline.v1` report
//! is returned verbatim, byte-identical to what a cold compile would
//! produce.
//!
//! [`ResultCache`] layers an in-memory LRU over an optional on-disk
//! store. Disk entries are whole `PYPMWIRE` report containers
//! (checksummed — a corrupted cache file is a miss, never a wrong
//! answer), named `<key-hex>.pypmw`, written atomically
//! (temp file + rename) so a crashed server never leaves a torn entry
//! for the next one to read. That is what makes `pypmc serve
//! --cache-dir` survive restarts.
//!
//! The disk tier can be capped ([`ResultCache::with_dir_max_bytes`],
//! `pypmc serve --cache-dir-max-bytes`): after every store the
//! directory's `.pypmw` entries are trimmed oldest-first (modification
//! time, then file name for determinism) until the total size fits.
//! Evictions are counted in [`CacheStats::disk_evictions`] and surface
//! through the serve `stats` verb's `pypm.serve.stats.v1` document.

use pypm_core::json::{Layout, Writer};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A 128-bit FNV-1a content hash over length-prefixed parts.
///
/// Length-prefixing keeps part boundaries in the hash — `("ab", "c")`
/// and `("a", "bc")` key differently — and the 128-bit width makes
/// accidental collisions a non-concern at any realistic cache size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Hashes the parts, in order, each prefixed with its length.
    pub fn of(parts: &[&[u8]]) -> CacheKey {
        const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u128::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for part in parts {
            eat(&(part.len() as u64).to_le_bytes());
            eat(part);
        }
        CacheKey(h)
    }

    /// The key as 32 lowercase hex digits — the stats `last_key` field
    /// and the on-disk file stem.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// A snapshot of the cache counters, as served by the `stats` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (memory or disk).
    pub hits: u64,
    /// The subset of `hits` that had to be read back from disk.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results inserted.
    pub stores: u64,
    /// In-memory entries dropped to stay within capacity.
    pub evictions: u64,
    /// Disk entries removed to stay within the directory byte cap.
    pub disk_evictions: u64,
    /// Orphaned temp files (`*.tmp.<pid>`, left by a crash mid-write)
    /// removed by the startup sweep of [`ResultCache::persistent`].
    pub disk_orphans_removed: u64,
    /// The most recently computed key, as hex.
    pub last_key: Option<String>,
}

struct State {
    /// MRU-first. Linear scans are fine: capacity is small (hundreds)
    /// and the values are shared, so moves are cheap.
    entries: Vec<(CacheKey, String)>,
    /// Everything but `last_key`, which [`ResultCache::stats`] renders
    /// from the field below: a probe stores sixteen bytes under the
    /// lock instead of formatting a string there.
    stats: CacheStats,
    last_key: Option<CacheKey>,
}

/// An in-memory LRU of compile results, optionally backed by a
/// directory of `PYPMWIRE` report files. Shared by every serve worker
/// behind an `Arc`.
pub struct ResultCache {
    capacity: usize,
    dir: Option<PathBuf>,
    dir_max_bytes: Option<u64>,
    state: Mutex<State>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("dir", &self.dir)
            .field("dir_max_bytes", &self.dir_max_bytes)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// A cache that stores nothing: [`ResultCache::get`] always misses
    /// without counting, [`ResultCache::put`] is a no-op — `pypmc serve
    /// --cache 0` without a directory.
    pub fn disabled() -> ResultCache {
        ResultCache::in_memory(0)
    }

    /// A purely in-memory cache holding up to `capacity` results.
    pub fn in_memory(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            dir: None,
            dir_max_bytes: None,
            state: Mutex::new(State {
                entries: Vec::new(),
                stats: CacheStats::default(),
                last_key: None,
            }),
        }
    }

    /// An in-memory cache backed by `dir`, which is created if missing.
    /// Entries written by previous processes are picked up lazily, on
    /// lookup — no entry is *read* at startup. The only startup disk
    /// work is an orphan sweep: temp files (`*.tmp.<pid>`) left behind
    /// by a process that crashed between write and rename are removed
    /// and counted in [`CacheStats::disk_orphans_removed`] — they can
    /// never be read back (lookups only open `.pypmw` paths), so they
    /// are pure leaked space.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn persistent(capacity: usize, dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let orphans = sweep_orphans(&dir);
        let mut cache = ResultCache::in_memory(capacity);
        cache.dir = Some(dir);
        cache
            .state
            .get_mut()
            .expect("fresh lock")
            .stats
            .disk_orphans_removed = orphans;
        Ok(cache)
    }

    /// Caps the disk tier at `max_bytes`: after every store, `.pypmw`
    /// entries are evicted oldest-first (by modification time, file
    /// name breaking ties) until the directory's total entry size is
    /// within the cap. The cap is hard — a store that itself exceeds it
    /// is evicted too. No effect on a purely in-memory cache.
    #[must_use]
    pub fn with_dir_max_bytes(mut self, max_bytes: u64) -> ResultCache {
        self.dir_max_bytes = Some(max_bytes);
        self
    }

    /// The configured disk-tier byte cap, when any.
    pub fn dir_max_bytes(&self) -> Option<u64> {
        self.dir_max_bytes
    }

    /// Whether get/put can ever do anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0 || self.dir.is_some()
    }

    /// The configured in-memory capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up a result. Memory first, then (when persistent) the
    /// disk store; a disk hit is promoted into memory. A corrupt or
    /// unreadable disk entry is a miss, never an error.
    pub fn get(&self, key: CacheKey) -> Option<String> {
        if !self.is_enabled() {
            return None;
        }
        let mut state = self.state.lock().expect("cache lock");
        state.last_key = Some(key);
        if let Some(at) = state.entries.iter().position(|(k, _)| *k == key) {
            let entry = state.entries.remove(at);
            let payload = entry.1.clone();
            state.entries.insert(0, entry);
            state.stats.hits += 1;
            return Some(payload);
        }
        if let Some(dir) = &self.dir {
            let path = entry_path(dir, key);
            // Failpoint `cache.read`: an injected disk I/O error. Same
            // contract as a real one — the lookup degrades to a miss.
            let bytes = if pypm_faults::fires("cache.read").is_some() {
                Err(io::Error::other("injected cache.read failure"))
            } else {
                std::fs::read(&path)
            };
            if let Ok(bytes) = bytes {
                if let Ok(payload) = crate::decode_report(&bytes) {
                    state.stats.hits += 1;
                    state.stats.disk_hits += 1;
                    Self::insert(&mut state, self.capacity, key, payload.clone());
                    return Some(payload);
                }
            }
        }
        state.stats.misses += 1;
        None
    }

    /// Stores a result under `key`, evicting the least recently used
    /// in-memory entry beyond capacity and (when persistent) writing
    /// the report container to disk atomically. Disk write failures
    /// are swallowed: a cache that cannot persist degrades to an
    /// in-memory one rather than failing compiles.
    pub fn put(&self, key: CacheKey, payload: &str) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state.lock().expect("cache lock");
        state.last_key = Some(key);
        if state.entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        state.stats.stores += 1;
        Self::insert(&mut state, self.capacity, key, payload.to_owned());
        if let Some(dir) = &self.dir {
            let path = entry_path(dir, key);
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            let bytes = crate::encode_report(payload);
            // Failpoints: `cache.write` fails the temp-file write (no
            // bytes reach disk), `cache.torn` simulates a crash between
            // write and rename — the temp file is left orphaned for the
            // next startup's sweep. Both degrade the store to
            // memory-only, exactly like the real I/O failures they
            // model.
            if pypm_faults::fires("cache.write").is_some() {
                // Injected write failure: nothing to clean up.
            } else if std::fs::write(&tmp, &bytes).is_ok() {
                if pypm_faults::fires("cache.torn").is_some() {
                    // Injected torn write: skip the commit rename.
                } else if std::fs::rename(&tmp, &path).is_err() {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
            if let Some(max_bytes) = self.dir_max_bytes {
                state.stats.disk_evictions += enforce_dir_limit(dir, max_bytes);
            }
        }
    }

    fn insert(state: &mut State, capacity: usize, key: CacheKey, payload: String) {
        state.entries.insert(0, (key, payload));
        while state.entries.len() > capacity {
            state.entries.pop();
            state.stats.evictions += 1;
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let (stats, last_key) = {
            let state = self.state.lock().expect("cache lock");
            (state.stats.clone(), state.last_key)
        };
        CacheStats {
            last_key: last_key.map(CacheKey::to_hex),
            ..stats
        }
    }

    /// The additive `cache` stats block, as one stable JSON object —
    /// what `pypmc serve`'s `stats` verb embeds.
    pub fn stats_json(&self) -> String {
        let stats = self.stats();
        let mut w = Writer::new();
        w.begin_object(Layout::Inline);
        w.key("capacity").scalar(self.capacity);
        w.key("persistent").scalar(self.dir.is_some());
        w.key("hits").scalar(stats.hits);
        w.key("disk_hits").scalar(stats.disk_hits);
        w.key("misses").scalar(stats.misses);
        w.key("stores").scalar(stats.stores);
        w.key("evictions").scalar(stats.evictions);
        w.key("disk_evictions").scalar(stats.disk_evictions);
        w.key("disk_orphans_removed")
            .scalar(stats.disk_orphans_removed);
        w.key("last_key");
        match &stats.last_key {
            Some(k) => w.string(k),
            None => w.null(),
        }
        w.end();
        w.finish()
    }
}

fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!("{}.pypmw", key.to_hex()))
}

/// Removes orphaned temp files (`<hex>.tmp.<pid>`) left in `dir` by a
/// process that crashed between the temp write and the commit rename.
/// Returns how many were removed. Committed `.pypmw` entries never
/// match the `.tmp.` pattern, and I/O failures degrade to sweeping
/// less, never to an error.
fn sweep_orphans(dir: &Path) -> u64 {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in listing.flatten() {
        let path = entry.path();
        let is_orphan = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.contains(".tmp."));
        if is_orphan && path.is_file() && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Trims the disk tier to `max_bytes`, removing `.pypmw` entries
/// oldest-first (modification time, then file name so same-instant
/// writes evict deterministically). Returns how many entries were
/// removed. I/O failures — an unreadable directory, a vanished file —
/// degrade to evicting less, never to an error: the cap is best-effort
/// accounting over a cache, not a durability contract.
fn enforce_dir_limit(dir: &Path, max_bytes: u64) -> u64 {
    // Failpoint `cache.evict`: an injected failure of the eviction
    // sweep itself. The cap degrades to best-effort — the directory
    // stays temporarily over budget until the next put retries — which
    // is exactly how a real read_dir/remove_file error degrades below.
    if pypm_faults::fires("cache.evict").is_some() {
        return 0;
    }
    let Ok(listing) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = listing
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "pypmw"))
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            let mtime = meta.modified().ok()?;
            Some((mtime, e.path(), meta.len()))
        })
        .collect();
    let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
    if total <= max_bytes {
        return 0;
    }
    entries.sort();
    let mut evicted = 0;
    for (_, path, len) in entries {
        if total <= max_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
            evicted += 1;
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> CacheKey {
        CacheKey::of(&[&[n]])
    }

    /// Serializes tests that touch the disk tier. The failpoint
    /// registry is process-global, so a test that arms `cache.*` sites
    /// must not overlap with another test's disk I/O — the innocent
    /// test would consume the armed fault.
    fn disk_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn keys_are_stable_and_boundary_sensitive() {
        assert_eq!(
            CacheKey::of(&[b"graph", b"rules"]),
            CacheKey::of(&[b"graph", b"rules"])
        );
        assert_ne!(
            CacheKey::of(&[b"graph", b"rules"]),
            CacheKey::of(&[b"graphr", b"ules"]),
            "length prefixes keep part boundaries in the hash"
        );
        assert_ne!(CacheKey::of(&[b""]), CacheKey::of(&[b"", b""]));
        assert_eq!(key(1).to_hex().len(), 32);
    }

    #[test]
    fn lru_semantics_hits_misses_and_evictions() {
        let cache = ResultCache::in_memory(2);
        assert!(cache.get(key(1)).is_none());
        cache.put(key(1), "one");
        cache.put(key(2), "two");
        assert_eq!(cache.get(key(1)).as_deref(), Some("one"));
        // 1 was just used; inserting 3 evicts 2.
        cache.put(key(3), "three");
        assert!(cache.get(key(2)).is_none());
        assert_eq!(cache.get(key(1)).as_deref(), Some("one"));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stores, stats.evictions),
            (2, 2, 3, 1)
        );
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(
            cache.stats_json(),
            "{\"capacity\": 2, \"persistent\": false, \"hits\": 2, \"disk_hits\": 0, \
             \"misses\": 2, \"stores\": 3, \"evictions\": 1, \"disk_evictions\": 0, \
             \"disk_orphans_removed\": 0, \"last_key\": \"426d5674ee03ad9adb79f299c7307bff\"}",
            "the `cache` block is pinned byte-for-byte"
        );
    }

    #[test]
    fn disabled_cache_stores_nothing_and_counts_nothing() {
        let cache = ResultCache::disabled();
        assert!(!cache.is_enabled());
        cache.put(key(1), "one");
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn disk_store_survives_a_new_cache_instance_and_tolerates_corruption() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let first = ResultCache::persistent(4, &dir).unwrap();
        first.put(key(7), "{\"schema\": \"pypm.pipeline.v1\"}");
        drop(first);

        // A fresh instance (a restarted server) hits from disk.
        let second = ResultCache::persistent(4, &dir).unwrap();
        assert_eq!(
            second.get(key(7)).as_deref(),
            Some("{\"schema\": \"pypm.pipeline.v1\"}")
        );
        let stats = second.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 1, 0));
        // …and the promotion means the second lookup is a memory hit.
        assert!(second.get(key(7)).is_some());
        assert_eq!(second.stats().disk_hits, 1);

        // Corrupt the file on disk: a third instance must miss, not
        // panic and not serve garbage.
        let path = entry_path(&dir, key(7));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let third = ResultCache::persistent(4, &dir).unwrap();
        assert!(third.get(key(7)).is_none());
        assert_eq!(third.stats().misses, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_evicts_oldest_entries_beyond_the_byte_cap() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_dir_cap_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Measure one entry, then cap the directory at two of them.
        let probe = ResultCache::persistent(0, &dir).unwrap();
        probe.put(key(1), "payload-0");
        let entry_bytes = std::fs::metadata(entry_path(&dir, key(1))).unwrap().len();
        let _ = std::fs::remove_dir_all(&dir);

        let cache = ResultCache::persistent(0, &dir)
            .unwrap()
            .with_dir_max_bytes(2 * entry_bytes);
        assert_eq!(cache.dir_max_bytes(), Some(2 * entry_bytes));
        for n in 1..=3u8 {
            cache.put(key(n), "payload-0");
            // Distinct mtimes, so "oldest" is well-defined even on
            // coarse-timestamp filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // The oldest entry fell off disk; the two newest survive.
        assert!(!entry_path(&dir, key(1)).exists());
        assert!(entry_path(&dir, key(2)).exists());
        assert!(entry_path(&dir, key(3)).exists());
        assert_eq!(cache.stats().disk_evictions, 1);
        assert!(cache.stats_json().contains("\"disk_evictions\": 1"));
        // Capacity 0 means the memory tier holds nothing: the evicted
        // key is a true miss, the survivors still answer from disk.
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.get(key(3)).as_deref(), Some("payload-0"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_zero_with_a_directory_is_disk_only() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_disk_only_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::persistent(0, &dir).unwrap();
        assert!(cache.is_enabled());
        cache.put(key(9), "nine");
        // Not in memory (capacity 0) — but the disk store answers.
        assert_eq!(cache.get(key(9)).as_deref(), Some("nine"));
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_sweep_removes_orphaned_temp_files() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_orphans_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // A torn write leaves a temp file and no committed entry.
        let first = ResultCache::persistent(4, &dir).unwrap();
        first.put(key(1), "one");
        pypm_faults::arm("cache.torn=torn*1").unwrap();
        first.put(key(2), "two");
        pypm_faults::disarm();
        drop(first);
        assert!(entry_path(&dir, key(1)).exists());
        assert!(!entry_path(&dir, key(2)).exists());

        // Plus an orphan from "another" crashed process.
        std::fs::write(dir.join("deadbeef.tmp.424242"), b"junk").unwrap();

        // The next startup sweeps both orphans and keeps the committed
        // entry.
        let second = ResultCache::persistent(4, &dir).unwrap();
        assert_eq!(second.stats().disk_orphans_removed, 2);
        assert!(second.stats_json().contains("\"disk_orphans_removed\": 2"));
        assert_eq!(second.get(key(1)).as_deref(), Some("one"));
        assert!(second.get(key(2)).is_none());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "sweep left orphans: {leftovers:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_and_write_failpoints_degrade_to_misses() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_faults_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Capacity 0: every lookup goes through the disk tier.
        let cache = ResultCache::persistent(0, &dir).unwrap();

        // A failed write means nothing reaches disk — the store
        // degrades silently and the lookup is an honest miss.
        pypm_faults::arm("cache.write=io*1").unwrap();
        cache.put(key(1), "one");
        pypm_faults::disarm();
        assert!(!entry_path(&dir, key(1)).exists());
        assert!(cache.get(key(1)).is_none());

        // A failed read turns a present entry into a miss for that
        // lookup only; once the fault is exhausted the entry answers.
        cache.put(key(2), "two");
        pypm_faults::arm("cache.read=io*1").unwrap();
        assert!(cache.get(key(2)).is_none());
        pypm_faults::disarm();
        assert_eq!(cache.get(key(2)).as_deref(), Some("two"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_failpoint_leaves_the_directory_over_cap_until_the_next_put() {
        let _guard = disk_lock();
        let dir = std::env::temp_dir().join(format!(
            "pypm_wire_cache_evict_fault_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let probe = ResultCache::persistent(0, &dir).unwrap();
        probe.put(key(1), "payload-0");
        let entry_bytes = std::fs::metadata(entry_path(&dir, key(1))).unwrap().len();
        let _ = std::fs::remove_dir_all(&dir);

        let cache = ResultCache::persistent(0, &dir)
            .unwrap()
            .with_dir_max_bytes(entry_bytes);
        cache.put(key(1), "payload-0");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // The sweep after this put would evict key(1); the failpoint
        // suppresses it, so the directory sits over cap — degraded,
        // not corrupted.
        pypm_faults::arm("cache.evict=io*1").unwrap();
        cache.put(key(2), "payload-0");
        pypm_faults::disarm();
        assert!(entry_path(&dir, key(1)).exists());
        assert!(entry_path(&dir, key(2)).exists());
        assert_eq!(cache.stats().disk_evictions, 0);
        // The next put retries the sweep and restores the cap.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.put(key(3), "payload-0");
        assert!(entry_path(&dir, key(3)).exists());
        assert!(cache.stats().disk_evictions >= 2, "cap restored");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
