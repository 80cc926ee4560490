//! Durable content-addressed result store.
//!
//! A [`crate::Runner`]'s memo cache dies with its process, so repeat
//! runs re-simulate every point. This module persists finished point
//! results on disk, keyed by *what produced them* rather than where they
//! ran: the store key is FNV-1a-64 over
//!
//! ```text
//! "<spec fingerprint>/<point index>/<result-affecting RunOptions JSON>"
//! ```
//!
//! so any machine sweeping the same manifest under the same options
//! computes the same keys — and a warm sweep becomes a directory of cache
//! reads. Sharding does not enter the key: a store warmed by a sharded
//! sweep serves an unsharded one and vice versa. Neither do the
//! [`RunOptions`] knobs that cannot change a result — `serial`/`threads`
//! (CI pins serial == parallel byte identity) — so a serial run hits a
//! store warmed by a parallel one.
//!
//! Each entry is one file, `<key>.dxr`, holding the point's
//! [`PointResult`] (`{"error": ..., "stats": ...}`) in the
//! [`xloops_stats::binary`] wire format. Crash safety is the classic
//! temp-file-plus-rename argument: an entry is written to a `.tmp-*`
//! sibling, fsynced, then atomically renamed into place, so a reader can
//! only ever observe a complete entry or no entry. Defense in depth on
//! the read side: the binary format's trailing checksum means a torn,
//! truncated, or bit-rotted file decodes to a typed error, which the
//! store treats as a miss (warn, re-simulate, rewrite) — corruption can
//! cost time, never correctness, and never a panic.
//!
//! [`run_specs`] (and its shard form [`run_shard_stored`]) is the one
//! spec executor, behind `all`, the ten artifact binaries and `xloops
//! sweep`, with or without a store: probe the store per point, run the
//! misses through the [`Runner`]'s two-pass protocol (deduplicated across
//! specs, fanned out on [`crate::runner::run_jobs`]), save the fresh
//! results, and return everything in point order with the quarantined
//! points alongside. Crash-safe resume falls out of it: a rerun finds the
//! finished points in the store and simulates only the rest.
//!
//! Two policy decisions worth their weight:
//!
//! - `XLOOPS_STORE` is deliberately *not* part of [`RunOptions`]: the
//!   options value is serialized into shard documents and into the store
//!   key itself, and where the cache lives must not change what a result
//!   *is* (or poison every key with the path that produced it).
//! - Errored (quarantined) points are never written: a panic diagnosis
//!   may be transient (cycle budget, fault injection), and a durable
//!   cache must not make a bad day permanent.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xloops_sim::RunOptions;
use xloops_stats::{binary, JsonValue, StatSet};

use crate::manifest::{request_point, shard_points, ExperimentSpec, PointResult, ShardDoc};
use crate::runner::{CacheStats, PrefillInfo, RunFailure, Runner};

/// Store-entry filename extension (binary-encoded [`PointResult`]).
const ENTRY_EXT: &str = "dxr";

/// A directory of durable point results. Cheap to open (one
/// `create_dir_all`); all traffic counters are monotonic and
/// thread-safe, mirroring [`crate::runner::Runner::cache_stats`] one
/// layer down.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// `XLOOPS_STORE_QUIET=1`: damage is still *counted*
    /// (`StoreStats::corrupt`, `profile.store.corrupt`), just not warned
    /// about on stderr.
    quiet: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Snapshot of a store's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Probes that found no (usable) entry.
    pub misses: u64,
    /// The subset of misses caused by a *damaged* entry (torn write,
    /// bit rot, schema drift) rather than an absent one.
    pub corrupt: u64,
    /// Total bytes of entries read.
    pub bytes_read: u64,
    /// Total bytes of entries written.
    pub bytes_written: u64,
}

/// How a [`ResultStore::load_classified`] probe resolved. The sweep
/// needs the three-way split — an absent entry is normal cold-cache
/// behavior, a corrupt one is worth a warning and a
/// `profile.store.corrupt` count — while plain [`ResultStore::load`]
/// callers still see both as a miss.
#[derive(Debug)]
enum Loaded {
    /// A usable entry: the decoded result and its size in bytes.
    Hit(PointResult, u64),
    /// No entry on disk.
    Absent,
    /// An entry exists but cannot be used (I/O error, failed checksum,
    /// schema mismatch); the point must re-simulate and the entry will be
    /// rewritten whole.
    Corrupt,
}

/// Report of a [`ResultStore::prune`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Entries whose key is live under some given manifest.
    pub kept: u64,
    /// Entries (and temp-file stragglers) deleted.
    pub pruned: u64,
    /// Total size of the deleted files.
    pub bytes_freed: u64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let quiet = std::env::var("XLOOPS_STORE_QUIET").is_ok_and(|v| v == "1");
        Ok(ResultStore {
            dir,
            quiet,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// One store warning on stderr, unless the store is quiet.
    fn warn(&self, message: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("[store] warning: {message}");
        }
    }

    /// The store named by `XLOOPS_STORE`, if set. An unopenable directory
    /// is a warning and `None` (the sweep still runs, just cold), keeping
    /// the knob's failure mode consistent with the corruption policy.
    pub fn from_env() -> Option<ResultStore> {
        let dir = std::env::var("XLOOPS_STORE").ok().filter(|d| !d.is_empty())?;
        match ResultStore::open(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("[store] warning: cannot open {dir}: {e}; running without a store");
                None
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed key of one point: FNV-1a-64 (the manifest
    /// fingerprint hash) over `"<fingerprint>/<index>/<options JSON>"`,
    /// formatted as 16 hex digits. The options JSON keeps only the
    /// result-affecting knobs of the canonical
    /// [`RunOptions::to_json_value`] rendering — supervision changes
    /// degradation behaviour, `profile` adds stat nodes, `sample`
    /// changes the timing estimate — while pure scheduling/metadata
    /// knobs (`serial`, `threads`) are dropped so they
    /// cannot fragment the cache.
    pub fn point_key(fingerprint: &str, index: usize, options: &RunOptions) -> String {
        let opts = match options.to_json_value() {
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| matches!(k.as_str(), "supervisor" | "profile" | "sample"))
                    .collect(),
            ),
            v => v,
        };
        let text = format!("{fingerprint}/{index}/{}", opts.render());
        format!("{:016x}", binary::fnv1a64(text.as_bytes()))
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ENTRY_EXT}"))
    }

    /// Loads the entry under `key`, returning the result and the entry's
    /// size in bytes. Any failure — absent file, I/O error, failed
    /// checksum, schema mismatch — is a miss; only the non-absent kinds
    /// warn on stderr (through the quiet-respecting path) and count as
    /// corruption.
    pub fn load(&self, key: &str) -> Option<(PointResult, u64)> {
        match self.load_classified(key) {
            Loaded::Hit(result, bytes) => Some((result, bytes)),
            Loaded::Absent | Loaded::Corrupt => None,
        }
    }

    /// [`ResultStore::load`] with the miss cause preserved — the
    /// sweep's probe wants to know a damaged entry from a cold one.
    fn load_classified(&self, key: &str) -> Loaded {
        let path = self.entry_path(key);
        let corrupt = |w: String| {
            self.warn(format_args!("{}: {w}; treating as a miss", path.display()));
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            Loaded::Corrupt
        };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Loaded::Absent;
            }
            Err(e) => return corrupt(e.to_string()),
        };
        let value = match binary::decode(&bytes) {
            Ok(v) => v,
            Err(e) => return corrupt(e.to_string()),
        };
        let result = match PointResult::from_json_value(&value) {
            Ok(r) => r,
            Err(e) => return corrupt(e.to_string()),
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Loaded::Hit(result, bytes.len() as u64)
    }

    /// Writes `result` under `key` via temp file + fsync + atomic rename,
    /// returning the entry size. A reader never sees a partial entry: the
    /// rename is atomic within the store directory, and a crash before it
    /// leaves only a `.tmp-*` straggler the next write ignores.
    pub fn save(&self, key: &str, result: &PointResult) -> std::io::Result<u64> {
        let bytes = binary::encode(&result.to_json_value());
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(".tmp-{key}-{}", std::process::id()));
        let write = (|| {
            fs::write(&tmp, &bytes)?;
            fs::File::open(&tmp)?.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        write?;
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.len() as u64)
    }

    /// Copies a shard document's results into the store — how
    /// `merge --store` turns a pile of shard files into a warm cache.
    /// Usable entries already present are left alone (a corrupt one is a
    /// load miss and gets rewritten); errored points are never stored.
    pub fn backfill(&self, doc: &ShardDoc) {
        for (i, pr) in &doc.results {
            if pr.error.is_some() {
                continue;
            }
            let key = ResultStore::point_key(&doc.fingerprint, *i, &doc.options);
            if self.load(&key).is_some() {
                continue;
            }
            if let Err(e) = self.save(&key, pr) {
                self.warn(format_args!("cannot backfill entry {key}: {e}"));
            }
        }
    }

    /// Deletes every entry whose key is not in `live`, plus any `.tmp-*`
    /// stragglers a crashed writer left behind. Files that are neither
    /// entries nor stragglers are not the store's to touch and are left
    /// alone. The caller assembles `live` from manifests via
    /// [`ResultStore::point_key`] — see `xloops store prune`.
    pub fn prune(&self, live: &HashSet<String>) -> std::io::Result<PruneReport> {
        let mut report = PruneReport::default();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let dead = match name.strip_suffix(&format!(".{ENTRY_EXT}")) {
                Some(key) => !live.contains(key),
                None => name.starts_with(".tmp-"),
            };
            if !dead {
                if !name.starts_with(".tmp-") && name.ends_with(&format!(".{ENTRY_EXT}")) {
                    report.kept += 1;
                }
                continue;
            }
            let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            report.pruned += 1;
            report.bytes_freed += bytes;
        }
        Ok(report)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// [`crate::manifest::run_shard`] with an optional durable store: the
/// shard's points through the [`run_specs`] executor, paired with their
/// indices.
pub fn run_shard_stored(
    spec: &ExperimentSpec,
    index: usize,
    of: usize,
    options: RunOptions,
    store: Option<&ResultStore>,
) -> ShardDoc {
    assert!(of > 0 && index < of, "impossible shard {index}/{of}");
    let owned = shard_points(spec, index, of);
    let mut swept = sweep(&[(spec, owned.clone())], &options, store);
    let results = owned.into_iter().zip(swept.results.remove(0)).collect();
    ShardDoc { fingerprint: spec.fingerprint(), index, of, options, spec: spec.clone(), results }
}

/// Results of [`run_specs`].
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Per-spec, per-point results (spec and point order), ready for
    /// [`crate::manifest::render_spec`].
    pub results: Vec<Vec<PointResult>>,
    /// Quarantined simulation points across all specs, one per unique
    /// point.
    pub failures: Vec<RunFailure>,
    /// Prefill summary (unique *simulated* points; hits never enter it).
    pub prefill: PrefillInfo,
    /// The runner's traffic counters: one live lookup (and hit) per
    /// store-missed spec point, one simulation per unique missed point.
    pub cache: CacheStats,
}

/// [`run_specs`] against a store that must exist.
pub fn run_specs_stored(
    specs: &[ExperimentSpec],
    options: &RunOptions,
    store: &ResultStore,
) -> SweepResult {
    run_specs(specs, options, Some(store))
}

/// The one spec executor behind every artifact route (`all`, the ten
/// artifact binaries, `xloops sweep`): runs every point of every spec.
/// Points present in `store` are read; the rest are deduplicated *across
/// specs* and simulated exactly once each, then written back.
pub fn run_specs(
    specs: &[ExperimentSpec],
    options: &RunOptions,
    store: Option<&ResultStore>,
) -> SweepResult {
    let work: Vec<(&ExperimentSpec, Vec<usize>)> =
        specs.iter().map(|s| (s, (0..s.points.len()).collect())).collect();
    sweep(&work, options, store)
}

/// Runs the given point indices of each spec. Store hits resolve from
/// disk; the misses of every spec share one memoizing runner, so
/// identical points simulate once across specs. Each fresh non-errored
/// result is saved, and under `options.profile` every point gains its
/// `profile.store` counters. Results come back per spec, in the order of
/// the given indices.
///
/// # Panics
///
/// If a unique point simulated more or less than once, or the live pass
/// was not fully served from the filled cache (the exactly-once
/// invariant every route relies on).
fn sweep(
    work: &[(&ExperimentSpec, Vec<usize>)],
    options: &RunOptions,
    store: Option<&ResultStore>,
) -> SweepResult {
    // Per point, when there is a store: its key and how the probe resolved.
    let probes: Vec<Vec<Option<(String, Loaded)>>> = work
        .iter()
        .map(|(spec, indices)| {
            let Some(store) = store else { return indices.iter().map(|_| None).collect() };
            let fingerprint = spec.fingerprint();
            indices
                .iter()
                .map(|&i| {
                    let key = ResultStore::point_key(&fingerprint, i, options);
                    let loaded = store.load_classified(&key);
                    Some((key, loaded))
                })
                .collect()
        })
        .collect();

    // Two-pass protocol over the misses: collect the deduplicated job
    // list, fill the cache once, then request every miss again live.
    let runner = Runner::collecting_with(options.clone());
    for ((spec, indices), probe) in work.iter().zip(&probes) {
        for (&i, probe) in indices.iter().zip(probe) {
            if !matches!(probe, Some((_, Loaded::Hit(..)))) {
                let _ = request_point(&runner, &spec.points[i]);
            }
        }
    }
    let prefill = runner.prefill();

    let results = work
        .iter()
        .zip(probes)
        .map(|((spec, indices), probe)| {
            indices
                .iter()
                .zip(probe)
                .map(|(&i, probe)| {
                    let corrupt = matches!(probe, Some((_, Loaded::Corrupt)));
                    let (mut result, hit, bytes) = match probe {
                        Some((_, Loaded::Hit(result, bytes))) => (result, true, bytes),
                        probe => {
                            let result = request_point(&runner, &spec.points[i]);
                            let written = match (store, probe) {
                                (Some(store), Some((key, _))) if result.error.is_none() => {
                                    store.save(&key, &result).unwrap_or_else(|e| {
                                        store.warn(format_args!(
                                            "cannot write entry {key}: {e}; result kept in memory"
                                        ));
                                        0
                                    })
                                }
                                _ => 0,
                            };
                            (result, false, written)
                        }
                    };
                    if options.profile && store.is_some() {
                        attach_store_counters(&mut result.stats, hit, bytes, corrupt);
                    }
                    result
                })
                .collect()
        })
        .collect();
    let cache = runner.cache_stats();
    assert_eq!(
        cache.sims as usize, prefill.unique_points,
        "every unique (kernel, config, mode) point must simulate exactly once"
    );
    assert_eq!(cache.lookups, cache.hits, "the live pass must be fully cache-served");
    SweepResult { results, failures: runner.failures(), prefill, cache }
}

/// Grafts a `store` child onto the result's `profile` node (creating the
/// node if the tree has none) so per-point cache traffic rides in the
/// non-deterministic profile stat family, never in golden artifacts.
fn attach_store_counters(stats: &mut StatSet, hit: bool, bytes: u64, corrupt: bool) {
    let mut store = StatSet::new("store");
    store.set("hits", hit as u64);
    store.set("misses", !hit as u64);
    store.set("corrupt", corrupt as u64);
    store.set("bytes_read", if hit { bytes } else { 0 });
    store.set("bytes_written", if hit { 0 } else { bytes });
    match stats.child_mut("profile") {
        Some(profile) => {
            profile.push_child(store);
        }
        None => {
            let mut profile = StatSet::new("profile");
            profile.push_child(store);
            stats.push_child(profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{merge, render_spec, run_shard, ExperimentSpec};

    fn store_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("xloops-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fig9ish_spec() -> ExperimentSpec {
        // Small but real: two points sharing a kernel, one baseline.
        crate::experiments::all_specs()
            .into_iter()
            .find(|s| s.name == "table2")
            .map(|mut s| {
                s.points.truncate(3);
                s.sections.clear();
                s
            })
            .expect("table2 spec exists")
    }

    #[test]
    fn cold_sweep_populates_and_warm_sweep_reads() {
        let dir = store_dir("warm");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();

        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
        let s = store.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses as usize, spec.points.len());
        assert!(s.bytes_written > 0);

        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options.clone(), Some(&warm_store));
        let w = warm_store.stats();
        assert_eq!(w.hits as usize, spec.points.len());
        assert_eq!(w.misses, 0);
        assert_eq!(w.bytes_written, 0);
        assert_eq!(cold, warm, "warm shard doc must equal the cold one");
        // And both equal the storeless run.
        assert_eq!(warm, run_shard(&spec, 0, 1, options));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_change_misses_the_cache() {
        let dir = store_dir("options");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let plain = RunOptions::default();
        let _ = run_shard_stored(&spec, 0, 1, plain.clone(), Some(&store));

        let sampled = RunOptions {
            sample: Some(xloops_sim::SampleSpec::new(500, 100, 500).unwrap()),
            ..RunOptions::default()
        };
        let fp = spec.fingerprint();
        for i in 0..spec.points.len() {
            assert_ne!(
                ResultStore::point_key(&fp, i, &plain),
                ResultStore::point_key(&fp, i, &sampled),
            );
            assert!(store.load(&ResultStore::point_key(&fp, i, &sampled)).is_none());
        }

        // Scheduling knobs are proven result-neutral (CI pins serial ==
        // parallel byte identity) and must not fragment the cache: same
        // keys, and the warm entries still serve.
        let relabeled = RunOptions { serial: true, threads: Some(7), ..RunOptions::default() };
        for i in 0..spec.points.len() {
            let key = ResultStore::point_key(&fp, i, &relabeled);
            assert_eq!(ResultStore::point_key(&fp, i, &plain), key);
            assert!(store.load(&key).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errored_points_are_never_stored() {
        let dir = store_dir("errored");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let budget = xloops_sim::SupervisorConfig {
            cycle_budget: Some(10),
            ..xloops_sim::SupervisorConfig::protected()
        };
        let options = RunOptions { supervisor: Some(budget), ..RunOptions::default() };
        let doomed = run_shard_stored(&spec, 0, 1, options, Some(&store));
        assert!(doomed.results.iter().all(|(_, pr)| pr.error.is_some()), "{doomed:?}");
        assert_eq!(store.stats().bytes_written, 0);
        let entries = fs::read_dir(&dir).unwrap().filter_map(Result::ok);
        assert!(
            entries.filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT)).count() == 0
        );

        // Nothing was cached, so a healthy rerun simulates every point.
        let swept = run_specs(std::slice::from_ref(&spec), &RunOptions::default(), Some(&store));
        assert!(swept.failures.is_empty());
        assert_eq!(swept.prefill.unique_points, spec.points.len());
        assert_eq!(store.stats().hits, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_get_rewritten() {
        let dir = store_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));

        // Truncate one entry, garble another, leave the rest alone.
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == ENTRY_EXT))
            .collect();
        entries.sort();
        assert_eq!(entries.len(), spec.points.len());
        let full = fs::read(&entries[0]).unwrap();
        fs::write(&entries[0], &full[..full.len() / 2]).unwrap();
        fs::write(&entries[1], b"\xd8XLS garbage").unwrap();

        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options, Some(&warm_store));
        let w = warm_store.stats();
        assert_eq!(w.misses, 2, "both damaged entries must re-simulate");
        assert_eq!(w.hits as usize, spec.points.len() - 2);
        assert_eq!(warm, cold, "recovery must reproduce the cold results");
        // The damaged entries were rewritten whole.
        let again = ResultStore::open(&dir).unwrap();
        let rewarm = run_shard_stored(&spec, 0, 1, cold.options.clone(), Some(&again));
        assert_eq!(again.stats().hits as usize, spec.points.len());
        assert_eq!(rewarm, cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_mode_grafts_store_counters() {
        let dir = store_dir("profile");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions { profile: true, ..RunOptions::default() };
        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
        for (_, pr) in &cold.results {
            let miss = pr.stats.lookup("profile.store.misses").unwrap().as_counter();
            assert_eq!(miss, Some(1));
        }
        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options, Some(&warm_store));
        for (_, pr) in &warm.results {
            assert_eq!(pr.stats.lookup("profile.store.hits").unwrap().as_counter(), Some(1));
            assert!(pr.stats.lookup("profile.store.bytes_read").unwrap().as_counter().unwrap() > 0);
        }
        // Store entries themselves never carry the grafted counters: the
        // warm read's trees differ from the cold ones only in the graft.
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_multi_spec_sweep_matches_plain_render_and_dedups() {
        let dir = store_dir("specs");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let specs = vec![spec.clone(), spec.clone()];
        let swept = run_specs_stored(&specs, &options, &store);
        assert!(swept.failures.is_empty());
        // Identical specs: the shared runner simulates each unique point
        // once even though the store records misses for both spec copies.
        assert!(swept.prefill.unique_points <= spec.points.len());
        let direct = run_shard(&spec, 0, 1, options.clone());
        let (merged_spec, merged) = merge(&[direct]).unwrap();
        for rendered in &swept.results {
            assert_eq!(
                render_spec(&spec, rendered),
                render_spec(&merged_spec, &merged),
                "store-backed render must match the plain one"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Golden keys: `point_key` is the on-disk address of every stored
    /// result, so changing it silently orphans every existing store. This
    /// pins the exact hash for a representative options spread; if it
    /// fails, either restore compatibility or document the store
    /// generation bump in DESIGN.md and bump `FORMAT_VERSION`.
    #[test]
    fn point_key_is_pinned() {
        let fp = "0123456789abcdef";
        let sampled = RunOptions {
            sample: Some(xloops_sim::SampleSpec::new(10000, 2000, 10000).unwrap()),
            ..RunOptions::default()
        };
        let supervised = RunOptions {
            supervisor: Some(xloops_sim::SupervisorConfig::protected()),
            ..RunOptions::default()
        };
        let keys = [
            ResultStore::point_key(fp, 7, &RunOptions::default()),
            ResultStore::point_key(fp, 7, &sampled),
            ResultStore::point_key(fp, 7, &supervised),
            ResultStore::point_key(fp, 8, &RunOptions::default()),
        ];
        assert_eq!(
            keys,
            [
                "3bbd390446adcd6c".to_string(),
                "98f07319880c7d9b".to_string(),
                "c2c3c6d55398b2bf".to_string(),
                "2ab873f2b7d076d5".to_string(),
            ]
        );
    }

    #[test]
    fn prune_keeps_live_entries_and_sweeps_the_rest() {
        let dir = store_dir("prune");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let _ = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));

        // A dead entry (stale key), an orphaned temp file, and a foreign
        // file that prune must not touch.
        fs::write(dir.join(format!("{:016x}.{ENTRY_EXT}", 0xdeadu64)), b"stale").unwrap();
        fs::write(dir.join(".tmp-feedface-99999"), b"orphan").unwrap();
        fs::write(dir.join("README.txt"), b"not a store entry").unwrap();

        let fp = spec.fingerprint();
        let live: HashSet<String> =
            (0..spec.points.len()).map(|i| ResultStore::point_key(&fp, i, &options)).collect();
        let report = store.prune(&live).unwrap();
        assert_eq!(report.kept as usize, spec.points.len());
        assert_eq!(report.pruned, 2, "stale entry + orphaned temp file");
        assert!(report.bytes_freed > 0);
        assert!(dir.join("README.txt").exists(), "foreign files survive prune");

        // Every live entry still serves.
        let warm = ResultStore::open(&dir).unwrap();
        let _ = run_shard_stored(&spec, 0, 1, options, Some(&warm));
        assert_eq!(warm.stats().hits as usize, spec.points.len());
        assert_eq!(warm.stats().misses, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_loads_are_counted_apart_from_absent_ones() {
        let dir = store_dir("quietcorrupt");
        let store = ResultStore::open(&dir).unwrap();
        let key = ResultStore::point_key("feedfacefeedface", 0, &RunOptions::default());
        fs::write(dir.join(format!("{key}.{ENTRY_EXT}")), b"\xd8XLS garbage").unwrap();
        assert!(store.load(&key).is_none());
        let s = store.stats();
        assert_eq!(s.corrupt, 1, "damaged entry must be counted, not just missed");
        assert_eq!(s.misses, 1);
        // An absent key is a plain miss, not corruption.
        assert!(store.load("0000000000000000").is_none());
        assert_eq!(store.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
