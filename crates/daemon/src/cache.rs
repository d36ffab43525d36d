//! The content-addressed result cache.
//!
//! A verdict is addressed by everything that can change it and nothing
//! else:
//!
//! * the script blob (bytes, not path — renaming or copying a script
//!   hits the same entry),
//! * the canonicalized [`shoal_core::AnalysisOptions`]
//!   ([`AnalysisOptions::canonical`]) plus the strict/resilient parse
//!   mode,
//! * the spec-database fingerprint ([`shoal_spec::SpecLibrary::fingerprint`]),
//! * the shoal version and the report epoch
//!   ([`shoal_core::REPORT_EPOCH`]), which moves whenever the engine's
//!   output for the same input does, even when the version string
//!   does not.
//!
//! Changing any component changes the key, so invalidation is free:
//! stale entries simply stop being addressed (the disk layer is
//! garbage, not poison). Two tiers:
//!
//! * a bounded in-memory LRU (hot verdicts, zero deserialization),
//! * an on-disk store (`<dir>/<k[0..2]>/<key>.json`, atomic
//!   temp-file + rename writes) that survives daemon restarts.
//!
//! Every outcome is counted by name in [`OutcomeCounters`] (hot hit,
//! disk hit, miss, corrupt-entry miss, write failure, eviction) — the
//! taxonomy is total, so `hot_hits + disk_hits + misses == lookups`
//! always holds. The same events also feed the global obs counters
//! (`daemon.cache_hit` etc.) when recording is on, but the stats plane
//! reads the struct fields, which are always live.

use shoal_core::AnalysisOptions;
use shoal_obs::json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Schema tag of one serialized cache entry.
pub const CACHE_SCHEMA: &str = "shoal-jit-cache/v1";

/// Everything that addresses one cached verdict.
#[derive(Clone, Copy)]
pub struct KeyParts<'a> {
    /// The script source bytes.
    pub source: &'a str,
    /// [`AnalysisOptions::canonical`] of the request options.
    pub options: &'a AnalysisOptions,
    /// Strict vs. recovering parsing — different outputs, different
    /// entries. The daemon serves strict verdicts only; the LSP writes
    /// recovering ones for a text that does not parse.
    pub resilient: bool,
    /// [`shoal_spec::SpecLibrary::fingerprint`] of the spec database.
    pub spec_fingerprint: u64,
    /// The shoal version string.
    pub version: &'a str,
}

impl<'a> KeyParts<'a> {
    /// The key parts of a strict-parse verdict under this build's
    /// version, as the daemon serves it.
    pub fn strict(source: &'a str, options: &'a AnalysisOptions, spec_fingerprint: u64) -> Self {
        KeyParts {
            source,
            options,
            resilient: false,
            spec_fingerprint,
            version: crate::version(),
        }
    }
}

/// The 32-hex-digit content address of a request under the current
/// [`shoal_core::REPORT_EPOCH`].
pub fn cache_key(parts: &KeyParts) -> String {
    cache_key_at_epoch(parts, shoal_core::REPORT_EPOCH)
}

/// [`cache_key`] under an explicit report epoch.
pub fn cache_key_at_epoch(parts: &KeyParts, epoch: u32) -> String {
    shoal_obs::hash::keyed_hash128(&[
        ("blob", parts.source.as_bytes()),
        ("options", parts.options.canonical().as_bytes()),
        (
            "mode",
            if parts.resilient {
                b"resilient"
            } else {
                b"strict"
            },
        ),
        ("specs", parts.spec_fingerprint.to_string().as_bytes()),
        ("version", parts.version.as_bytes()),
        ("epoch", epoch.to_string().as_bytes()),
    ])
}

/// One cached verdict: the path-free report body plus the pre-rendered
/// diagnostic display lines and the warning-or-worse count (so text
/// clients never re-derive severity).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `report_body_fields` object (no `path`).
    pub body: Json,
    /// Full `Display` rendering of each diagnostic, in report order.
    pub text: Vec<String>,
    /// Diagnostics at warning severity or above.
    pub findings: usize,
}

impl Entry {
    /// Serializes for the disk tier.
    pub fn to_json(&self, key: &str) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(CACHE_SCHEMA.into())),
            ("key".into(), Json::Str(key.into())),
            ("findings".into(), Json::Num(self.findings as f64)),
            (
                "text".into(),
                Json::Arr(self.text.iter().map(|t| Json::Str(t.clone())).collect()),
            ),
            ("body".into(), self.body.clone()),
        ])
    }

    /// Deserializes a disk entry; `None` on schema/shape mismatch (a
    /// corrupt or foreign file is a miss, never an error).
    pub fn from_json(json: &Json, key: &str) -> Option<Entry> {
        if json.get("schema").and_then(Json::as_str) != Some(CACHE_SCHEMA) {
            return None;
        }
        if json.get("key").and_then(Json::as_str) != Some(key) {
            return None;
        }
        let findings = json.get("findings")?.as_u64()? as usize;
        let text = match json.get("text")? {
            Json::Arr(items) => items
                .iter()
                .map(|t| t.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let body = json.get("body")?.clone();
        Some(Entry {
            body,
            text,
            findings,
        })
    }
}

/// Bounded in-memory LRU in front of an optional on-disk store.
pub struct ResultCache {
    /// In-memory tier: key → (entry, last-use tick).
    hot: HashMap<String, (Entry, u64)>,
    /// LRU clock (monotonic per cache).
    tick: u64,
    /// In-memory capacity (entries).
    capacity: usize,
    /// Disk tier root; `None` disables persistence.
    dir: Option<PathBuf>,
    /// Disk-tier size cap in bytes; `None` means unbounded. When a put
    /// pushes the tier past the cap, oldest-mtime entries are evicted
    /// until it fits again (a long-lived daemon can't fill the disk).
    disk_cap: Option<u64>,
    /// Running estimate of disk-tier bytes (seeded by one walk at
    /// construction, maintained incrementally, re-measured on GC).
    disk_used: u64,
    /// Lifetime outcome counters (the cache's own telemetry — the
    /// global obs recorder is off by default, so the stats plane reads
    /// these, not `shoal_obs` counters).
    stats: OutcomeCounters,
}

/// Every cache outcome, named. The taxonomy is total:
/// `hot_hits + disk_hits + misses == lookups`, and
/// `corrupt_misses <= misses` (a corrupt or foreign disk entry is one
/// kind of miss, never an error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounters {
    /// Lifetime `get` calls.
    pub lookups: u64,
    /// Served from the in-memory tier.
    pub hot_hits: u64,
    /// Served from the disk tier (and promoted to hot).
    pub disk_hits: u64,
    /// Nothing addressable (includes `corrupt_misses`).
    pub misses: u64,
    /// Disk file present but unreadable as a `shoal-jit-cache/v1`
    /// entry for this key (corrupt, foreign schema, or key mismatch).
    pub corrupt_misses: u64,
    /// Disk-tier writes that failed (tmp write or rename); the entry
    /// degraded to memory-only.
    pub write_failures: u64,
    /// Hot-tier LRU evictions.
    pub evictions: u64,
    /// Disk-tier files removed by the size-capped GC (oldest mtime
    /// first).
    pub disk_evictions: u64,
}

/// Point-in-time cache statistics for `daemon status` / `stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hot_entries: usize,
    pub disk_entries: usize,
    pub capacity: usize,
    pub outcomes: OutcomeCounters,
    /// Kept for the `shoal-jit/v1` status verb (mirrors
    /// `outcomes.evictions`).
    pub evictions: u64,
}

impl ResultCache {
    /// A cache holding up to `capacity` hot entries, persisting to
    /// `dir` when given, with the disk tier capped at `disk_cap` bytes
    /// (`None` = unbounded).
    pub fn new(capacity: usize, dir: Option<PathBuf>, disk_cap: Option<u64>) -> ResultCache {
        let disk_used = match (&dir, disk_cap) {
            (Some(d), Some(_)) => walk_disk_entries(d).iter().map(|(_, _, len)| len).sum(),
            _ => 0,
        };
        ResultCache {
            hot: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            dir,
            disk_cap,
            disk_used,
            stats: OutcomeCounters::default(),
        }
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        let shard = key.get(..2).unwrap_or("__");
        self.dir
            .as_ref()
            .map(|d| d.join(shard).join(format!("{key}.json")))
    }

    /// Looks up a key: hot tier first, then disk (promoting to hot).
    pub fn get(&mut self, key: &str) -> Option<Entry> {
        self.tick += 1;
        self.stats.lookups += 1;
        if let Some((entry, used)) = self.hot.get_mut(key) {
            *used = self.tick;
            self.stats.hot_hits += 1;
            shoal_obs::counter_add("daemon.cache_hit", 1);
            return Some(entry.clone());
        }
        if let Some(path) = self.disk_path(key) {
            match read_disk_entry(&path, key) {
                DiskRead::Hit(entry) => {
                    self.stats.disk_hits += 1;
                    shoal_obs::counter_add("daemon.cache_hit", 1);
                    shoal_obs::counter_add("daemon.cache_disk_hit", 1);
                    self.insert_hot(key.to_string(), entry.clone());
                    return Some(entry);
                }
                DiskRead::Corrupt => {
                    // Counted, but still just a miss: the entry will be
                    // recomputed and rewritten over the bad file.
                    self.stats.corrupt_misses += 1;
                    shoal_obs::counter_add("daemon.cache_corrupt_miss", 1);
                }
                DiskRead::Absent => {}
            }
        }
        self.stats.misses += 1;
        shoal_obs::counter_add("daemon.cache_miss", 1);
        None
    }

    /// Stores a verdict in both tiers (disk write is best-effort: an
    /// unwritable cache dir degrades to memory-only, never to an
    /// error — but the degradation is counted).
    pub fn put(&mut self, key: String, entry: Entry) {
        if let Some(path) = self.disk_path(&key) {
            let contents = entry.to_json(&key).to_text();
            if write_disk_entry(&path, &contents) {
                self.disk_used += contents.len() as u64;
                self.maybe_gc(&key);
            } else {
                self.stats.write_failures += 1;
                shoal_obs::counter_add("daemon.cache_write_failure", 1);
            }
        }
        self.insert_hot(key, entry);
    }

    /// Size-capped disk GC: when the tier exceeds its byte cap, walk
    /// it, sort by (mtime, path) ascending, and delete oldest entries
    /// until it fits — sparing the just-written `fresh` key, which is
    /// by definition the newest verdict. Runs off the hit path (only
    /// after a disk write) and only when a cap is configured.
    fn maybe_gc(&mut self, fresh: &str) {
        let (Some(cap), Some(dir)) = (self.disk_cap, self.dir.clone()) else {
            return;
        };
        if self.disk_used <= cap {
            return;
        }
        let fresh_name = format!("{fresh}.json");
        let mut entries = walk_disk_entries(&dir);
        entries.sort();
        self.disk_used = entries.iter().map(|(_, _, len)| len).sum();
        for (_mtime, path, len) in entries {
            if self.disk_used <= cap {
                break;
            }
            if path.file_name().and_then(|n| n.to_str()) == Some(fresh_name.as_str()) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.disk_used = self.disk_used.saturating_sub(len);
                self.stats.disk_evictions += 1;
                shoal_obs::counter_add("daemon.cache_disk_evict", 1);
            }
        }
    }

    fn insert_hot(&mut self, key: String, entry: Entry) {
        self.tick += 1;
        if self.hot.len() >= self.capacity && !self.hot.contains_key(&key) {
            // Evict the least-recently-used entry. O(n) scan — the hot
            // tier is small (hundreds) and eviction is off the hit
            // path.
            if let Some(lru) = self
                .hot
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.hot.remove(&lru);
                self.stats.evictions += 1;
                shoal_obs::counter_add("daemon.cache_evict", 1);
            }
        }
        self.hot.insert(key, (entry, self.tick));
    }

    /// Lifetime outcome counters (no disk scan; cheap).
    pub fn outcomes(&self) -> OutcomeCounters {
        self.stats
    }

    /// Entry counts for `daemon status` (walks the disk tier).
    pub fn stats(&self) -> CacheStats {
        let disk_entries = match &self.dir {
            None => 0,
            Some(dir) => count_disk_entries(dir),
        };
        CacheStats {
            hot_entries: self.hot.len(),
            disk_entries,
            capacity: self.capacity,
            outcomes: self.stats,
            evictions: self.stats.evictions,
        }
    }
}

/// What a disk-tier lookup found. `Corrupt` and `Absent` both miss,
/// but only one of them means data loss worth counting.
enum DiskRead {
    Hit(Entry),
    Absent,
    Corrupt,
}

fn read_disk_entry(path: &Path, key: &str) -> DiskRead {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        // No file (or unreadable) — the common cold-cache case.
        Err(_) => return DiskRead::Absent,
    };
    match Json::parse(&text).ok().as_ref().and_then(|j| Entry::from_json(j, key)) {
        Some(entry) => DiskRead::Hit(entry),
        None => DiskRead::Corrupt,
    }
}

/// Returns `true` iff the entry was durably published.
fn write_disk_entry(path: &Path, contents: &str) -> bool {
    let Some(parent) = path.parent() else {
        return false;
    };
    if std::fs::create_dir_all(parent).is_err() {
        return false;
    }
    // Atomic publish: a reader sees the old entry or the new one,
    // never a torn write. The tmp name carries the pid so two daemons
    // sharing a cache dir cannot clobber each other's tmp files.
    let tmp = parent.join(format!(
        ".tmp.{}.{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    if std::fs::write(&tmp, contents).is_err() {
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Walks the disk tier: every `.json` entry as (mtime, path, bytes).
/// Unstat-able files are skipped (they are being concurrently
/// replaced; the next GC pass sees the final state).
fn walk_disk_entries(dir: &Path) -> Vec<(std::time::SystemTime, PathBuf, u64)> {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for shard in shards.filter_map(|s| s.ok()) {
        let shard_path = shard.path();
        if !shard_path.is_dir() {
            continue;
        }
        let Ok(entries) = std::fs::read_dir(&shard_path) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let path = e.path();
            let is_entry = path
                .file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.ends_with(".json"))
                .unwrap_or(false);
            if !is_entry {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            out.push((mtime, path, meta.len()));
        }
    }
    out
}

fn count_disk_entries(dir: &Path) -> usize {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return 0;
    };
    shards
        .filter_map(|s| s.ok())
        .filter(|s| s.path().is_dir())
        .map(|s| {
            std::fs::read_dir(s.path())
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .filter(|e| {
                            e.file_name()
                                .to_str()
                                .map(|n| n.ends_with(".json"))
                                .unwrap_or(false)
                        })
                        .count()
                })
                .unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: usize) -> Entry {
        Entry {
            body: Json::Obj(vec![("n".into(), Json::Num(n as f64))]),
            text: vec![format!("line {n}")],
            findings: n,
        }
    }

    fn opts() -> AnalysisOptions {
        AnalysisOptions::default()
    }

    #[test]
    fn key_changes_with_the_report_epoch() {
        let o = opts();
        let parts = KeyParts {
            source: "echo hi\n",
            options: &o,
            resilient: false,
            spec_fingerprint: 1,
            version: "0.1.0",
        };
        let now = cache_key(&parts);
        assert_eq!(now, cache_key_at_epoch(&parts, shoal_core::REPORT_EPOCH));
        for other in [shoal_core::REPORT_EPOCH - 1, shoal_core::REPORT_EPOCH + 1] {
            assert_ne!(now, cache_key_at_epoch(&parts, other));
        }
    }

    #[test]
    fn key_changes_with_every_component() {
        let o = opts();
        let base = cache_key(&KeyParts {
            source: "echo hi\n",
            options: &o,
            resilient: false,
            spec_fingerprint: 1,
            version: "0.1.0",
        });
        let edited_script = cache_key(&KeyParts {
            source: "echo hi # edited\n",
            options: &o,
            resilient: false,
            spec_fingerprint: 1,
            version: "0.1.0",
        });
        let bigger_cap = AnalysisOptions {
            max_worlds: 128,
            ..opts()
        };
        let changed_options = cache_key(&KeyParts {
            source: "echo hi\n",
            options: &bigger_cap,
            resilient: false,
            spec_fingerprint: 1,
            version: "0.1.0",
        });
        let new_specs = cache_key(&KeyParts {
            source: "echo hi\n",
            options: &o,
            resilient: false,
            spec_fingerprint: 2,
            version: "0.1.0",
        });
        let new_version = cache_key(&KeyParts {
            source: "echo hi\n",
            options: &o,
            resilient: false,
            spec_fingerprint: 1,
            version: "0.2.0",
        });
        let resilient = cache_key(&KeyParts {
            source: "echo hi\n",
            options: &o,
            resilient: true,
            spec_fingerprint: 1,
            version: "0.1.0",
        });
        let keys = [
            &base,
            &edited_script,
            &changed_options,
            &new_specs,
            &new_version,
            &resilient,
        ];
        for (i, a) in keys.iter().enumerate() {
            assert_eq!(a.len(), 32);
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "every key component must move the address");
            }
        }
        // And the key is a pure function of its parts.
        assert_eq!(
            base,
            cache_key(&KeyParts {
                source: "echo hi\n",
                options: &o,
                resilient: false,
                spec_fingerprint: 1,
                version: "0.1.0",
            })
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2, None, None);
        c.put("k1".into(), entry(1));
        c.put("k2".into(), entry(2));
        assert!(c.get("k1").is_some()); // k1 now more recent than k2
        c.put("k3".into(), entry(3)); // evicts k2
        assert!(c.get("k2").is_none());
        assert!(c.get("k1").is_some());
        assert!(c.get("k3").is_some());
        assert_eq!(c.stats().hot_entries, 2);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_a_new_cache() {
        let dir = std::env::temp_dir().join(format!("shoal-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = ResultCache::new(8, Some(dir.clone()), None);
            c.put("aabbccddeeff00112233445566778899".into(), entry(7));
        }
        // Fresh cache, same dir: the entry comes back from disk.
        let mut c2 = ResultCache::new(8, Some(dir.clone()), None);
        let got = c2
            .get("aabbccddeeff00112233445566778899")
            .expect("disk entry survives restart");
        assert_eq!(got, entry(7));
        assert_eq!(c2.stats().disk_entries, 1);
        // A corrupt file is a miss, not an error.
        std::fs::write(dir.join("aa").join("corrupt.json"), "{not json").unwrap();
        assert!(c2.get("corrupt").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_taxonomy_is_total() {
        let dir = std::env::temp_dir().join(format!("shoal-cache-tax-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ResultCache::new(2, Some(dir.clone()), None);

        assert!(c.get("aa111111111111111111111111111111").is_none()); // cold miss
        c.put("aa111111111111111111111111111111".into(), entry(1));
        assert!(c.get("aa111111111111111111111111111111").is_some()); // hot hit

        // Disk hit: a fresh cache over the same dir misses hot, hits disk.
        let mut c2 = ResultCache::new(2, Some(dir.clone()), None);
        assert!(c2.get("aa111111111111111111111111111111").is_some());
        assert_eq!(c2.outcomes().disk_hits, 1);

        // Corrupt miss: a torn file at the addressed path.
        let torn = "aa222222222222222222222222222222";
        std::fs::create_dir_all(dir.join("aa")).unwrap();
        std::fs::write(dir.join("aa").join(format!("{torn}.json")), "{torn").unwrap();
        assert!(c.get(torn).is_none());
        assert_eq!(c.outcomes().corrupt_misses, 1);

        // Evictions: capacity 2, third insert evicts.
        c.put("bb111111111111111111111111111111".into(), entry(2));
        c.put("cc111111111111111111111111111111".into(), entry(3));
        assert_eq!(c.outcomes().evictions, 1);

        // The taxonomy must sum: every lookup is exactly one of
        // hot hit, disk hit, or miss; corrupt misses are a subset.
        for cache in [&c, &c2] {
            let o = cache.outcomes();
            assert_eq!(o.hot_hits + o.disk_hits + o.misses, o.lookups, "{o:?}");
            assert!(o.corrupt_misses <= o.misses, "{o:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failures_are_counted_not_fatal() {
        // Point the disk tier at a path that cannot be a directory
        // (a regular file), so create_dir_all fails and every put
        // degrades to memory-only.
        let blocker =
            std::env::temp_dir().join(format!("shoal-cache-blocker-{}", std::process::id()));
        std::fs::write(&blocker, "not a dir").unwrap();
        let mut c = ResultCache::new(4, Some(blocker.clone()), None);
        c.put("dd111111111111111111111111111111".into(), entry(4));
        assert_eq!(c.outcomes().write_failures, 1);
        // The entry still serves from memory.
        assert!(c.get("dd111111111111111111111111111111").is_some());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn disk_gc_evicts_oldest_mtime_until_under_cap() {
        let dir = std::env::temp_dir().join(format!("shoal-cache-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Measure one entry's on-disk size, then cap the tier at two
        // entries' worth so the third put must evict the oldest.
        let probe = entry(1).to_json("aa111111111111111111111111111111").to_text();
        let cap = (probe.len() as u64) * 2 + 8;
        let mut c = ResultCache::new(8, Some(dir.clone()), Some(cap));
        c.put("aa111111111111111111111111111111".into(), entry(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.put("bb111111111111111111111111111111".into(), entry(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.put("cc111111111111111111111111111111".into(), entry(1));
        assert_eq!(c.outcomes().disk_evictions, 1, "third put must GC one entry");
        assert!(
            !dir.join("aa")
                .join("aa111111111111111111111111111111.json")
                .exists(),
            "the oldest entry must be the one evicted"
        );
        // Survivors still serve from disk through a fresh cache.
        let mut c2 = ResultCache::new(8, Some(dir.clone()), Some(cap));
        assert!(c2.get("bb111111111111111111111111111111").is_some());
        assert!(c2.get("cc111111111111111111111111111111").is_some());
        assert_eq!(c2.outcomes().disk_hits, 2);
        // An uncapped cache over the same dir never GCs.
        let mut c3 = ResultCache::new(8, Some(dir.clone()), None);
        c3.put("dd111111111111111111111111111111".into(), entry(1));
        assert_eq!(c3.outcomes().disk_evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_serialization_rejects_foreign_schemas() {
        let e = entry(3);
        let json = e.to_json("deadbeef");
        assert_eq!(Entry::from_json(&json, "deadbeef"), Some(e));
        assert_eq!(Entry::from_json(&json, "othernope"), None);
        let foreign = Json::Obj(vec![("schema".into(), Json::Str("other/v9".into()))]);
        assert_eq!(Entry::from_json(&foreign, "deadbeef"), None);
    }
}
