//! Content-addressed trial cache: incremental re-runs of widened specs.
//!
//! Every trial of an experiment is addressed by two values:
//!
//! * the **config identity** — the canonical JSON of everything that
//!   affects a single trial of one grid point (protocol, n, engine,
//!   which fixes the urn's blocks, stop, observables, sample points,
//!   round grid, init, parameter overrides). Deliberately *excluded*: the
//!   trial count, the master seed, the other grid points and the thread
//!   count — none of them changes what one trial computes;
//! * the **trial seed** — already a content address: `split_seed(seed,
//!   config) → split_seed(config_seed, trial)` encodes the master seed
//!   and the trial's grid position.
//!
//! A cached trial is the [`TrialRecord`] JSON (the exact shape embedded
//! in artifacts), stored under
//! `<dir>/<config-hash>/<trial-seed>.json` with the canonical identity
//! in `<dir>/<config-hash>/config.json` (verified on read, so a hash
//! collision degrades to a miss instead of serving a wrong record).
//! Emission uses shortest-round-trip floats, so a parse/emit cycle is
//! bit-exact and warm artifacts are **byte-identical** to cold ones —
//! `tests/experiment_determinism.rs` pins this.
//!
//! Editing any spec field that enters the identity changes the hash (no
//! stale hits); widening `trials` or appending grid points reuses every
//! trial whose seed chain is unchanged.

use std::path::{Path, PathBuf};

use crate::artifact::TrialRecord;
use crate::json;
use crate::json::Json;
use crate::registry::ProtocolKind;
use crate::spec::ExperimentSpec;

/// Hit/miss counters of one cached run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trials served from the cache.
    pub hits: usize,
    /// Trials computed (and stored) fresh.
    pub misses: usize,
}

/// A content-addressed trial cache rooted at a directory.
#[derive(Clone, Debug)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The default location: the `PPEXP_CACHE_DIR` environment variable
    /// when set and non-empty (shard workers on a shared filesystem point
    /// it at one cache), else `target/ppexp-cache/` relative to the
    /// working directory. An explicit `--cache-dir` flag outranks both.
    pub fn default_dir() -> PathBuf {
        match std::env::var_os("PPEXP_CACHE_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("target/ppexp-cache"),
        }
    }

    /// Root directory of this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical identity of one (protocol, n) config under `spec` — the
    /// exact string that is hashed into the cache address.
    pub fn config_identity(spec: &ExperimentSpec, protocol: ProtocolKind, n: u64) -> String {
        // The engine implies the urn's blocks (`ppsim::batched_block` on
        // `urn-batched`).
        Json::Obj(vec![
            ("protocol".into(), Json::Str(protocol.name().into())),
            ("n".into(), Json::Uint(n)),
            ("engine".into(), Json::Str(spec.engine.name().into())),
            ("compiled".into(), Json::Bool(spec.compiled)),
            ("stop".into(), spec.stop.to_json()),
            (
                "observables".into(),
                Json::Str(spec.observables.canonical()),
            ),
            (
                "sample_at".into(),
                Json::Arr(spec.sample_at.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("round_every".into(), Json::Num(spec.round_every)),
            ("init".into(), Json::Str(spec.init.canonical())),
            ("gamma".into(), Json::Uint(spec.gamma as u64)),
            ("phi".into(), Json::Uint(spec.phi as u64)),
            ("psi".into(), Json::Uint(spec.psi as u64)),
        ])
        .emit()
    }

    /// Content hash of a config identity (FNV-1a 64 — stable across
    /// builds and platforms, unlike `DefaultHasher`).
    pub fn config_hash(identity: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in identity.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn config_dir(&self, identity: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}", Self::config_hash(identity)))
    }

    /// Open one config's slice of the cache, verifying the stored
    /// identity **once** (the engine looks up every trial of a config;
    /// re-reading `config.json` per trial would be N redundant reads).
    pub fn config(&self, identity: &str) -> ConfigCache {
        let dir = self.config_dir(identity);
        // Absent config.json means nothing stored yet: loads miss and
        // the first store writes it. A present-but-different one is a
        // genuine 64-bit hash collision: serve nothing, store nothing.
        let collided = match std::fs::read_to_string(dir.join("config.json")) {
            Ok(stored) => stored != identity,
            Err(_) => false,
        };
        ConfigCache {
            dir,
            identity: identity.to_string(),
            collided,
        }
    }
}

/// One config's verified slice of a [`Cache`].
pub struct ConfigCache {
    dir: PathBuf,
    identity: String,
    collided: bool,
}

impl ConfigCache {
    /// Look up the record of the trial with `seed`.
    ///
    /// Returns `None` on any miss: absent entry, unreadable or
    /// unparsable file, identity mismatch (hash collision), or a stored
    /// seed that disagrees with the address.
    pub fn load(&self, seed: u64) -> Option<TrialRecord> {
        if self.collided {
            return None;
        }
        let text = std::fs::read_to_string(self.dir.join(format!("{seed:016x}.json"))).ok()?;
        let record = TrialRecord::from_json(&json::parse(&text).ok()?)?;
        (record.seed == seed).then_some(record)
    }

    /// Store a trial record. I/O errors are reported, not fatal — a
    /// read-only cache directory degrades to a no-op.
    pub fn store(&self, record: &TrialRecord) -> Result<(), String> {
        if self.collided {
            // Leave the incumbent alone.
            return Err(format!(
                "cache hash collision under {} — not storing",
                self.dir.display()
            ));
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        let config_path = self.dir.join("config.json");
        if std::fs::read_to_string(&config_path).is_err() {
            write_atomic(&config_path, &self.identity)?;
        }
        let path = self.dir.join(format!("{:016x}.json", record.seed));
        write_atomic(&path, &record.to_json().emit())
    }
}

/// Write `contents` to `path` via a temp file beside it plus a rename, so
/// neither a concurrent reader nor a kill mid-write ever observes a
/// half-written file: `path` holds its old contents or the new ones. A
/// target that exists but is not a regular file (a FIFO or a device node)
/// is written in place, since a rename would replace the node rather than
/// write to it.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(path, contents)
            .map_err(|e| format!("writing {}: {e}", path.display()));
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = std::fs::write(&tmp, contents)
        .map_err(|e| format!("writing {}: {e}", tmp.display()))
        .and_then(|()| {
            std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
        });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TrialOutcome;
    use crate::spec::EngineKind;

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("ppexp-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::at(dir)
    }

    fn record(seed: u64) -> TrialRecord {
        TrialRecord {
            trial: 3,
            seed,
            outcome: TrialOutcome {
                converged: true,
                metrics: vec![("time".into(), 41.5), ("leaders".into(), 1.0)],
                traces: Vec::new(),
            },
        }
    }

    #[test]
    fn default_dir_honours_ppexp_cache_dir() {
        // The only test touching this variable, so no cross-test race.
        std::env::remove_var("PPEXP_CACHE_DIR");
        assert_eq!(Cache::default_dir(), PathBuf::from("target/ppexp-cache"));
        std::env::set_var("PPEXP_CACHE_DIR", "/mnt/shared/ppexp");
        assert_eq!(Cache::default_dir(), PathBuf::from("/mnt/shared/ppexp"));
        // Empty means unset, not "the current directory".
        std::env::set_var("PPEXP_CACHE_DIR", "");
        assert_eq!(Cache::default_dir(), PathBuf::from("target/ppexp-cache"));
        std::env::remove_var("PPEXP_CACHE_DIR");
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = tmp_cache("roundtrip");
        let spec = ExperimentSpec::default();
        let id = Cache::config_identity(&spec, ProtocolKind::Gsu19, 1 << 12);
        let rec = record(0xDEAD_BEEF);
        assert!(cache.config(&id).load(rec.seed).is_none());
        cache.config(&id).store(&rec).unwrap();
        assert_eq!(cache.config(&id).load(rec.seed), Some(rec.clone()));
        // A different seed under the same config misses.
        assert!(cache.config(&id).load(1).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn identity_tracks_result_shaping_fields_only() {
        let base = ExperimentSpec::default();
        let id = |spec: &ExperimentSpec| Cache::config_identity(spec, ProtocolKind::Gsu19, 4096);

        // Result-shaping edits change the identity.
        let mut s = base.clone();
        s.stop = crate::spec::StopCondition::Stabilize { budget_pt: 17.0 };
        assert_ne!(id(&base), id(&s));
        let mut s = base.clone();
        s.observables = crate::observe::Observables::parse("census").unwrap();
        assert_ne!(id(&base), id(&s));
        let mut s = base.clone();
        s.round_every = 0.5;
        assert_ne!(id(&base), id(&s));
        let mut s = base.clone();
        s.gamma = 32;
        assert_ne!(id(&base), id(&s));
        // The engine carries the urn's blocks (`batched_block` on
        // `urn-batched`).
        let mut s = base.clone();
        s.engine = EngineKind::UrnBatched;
        assert_ne!(id(&base), id(&s));

        // Plan-shaping edits do not.
        let mut s = base.clone();
        s.trials = 999;
        s.threads = 7;
        s.ns = vec![4096, 8192];
        assert_eq!(id(&base), id(&s));
    }

    #[test]
    fn corrupted_entries_degrade_to_misses() {
        let cache = tmp_cache("corrupt");
        let spec = ExperimentSpec::default();
        let id = Cache::config_identity(&spec, ProtocolKind::Slow, 64);
        let rec = record(7);
        cache.config(&id).store(&rec).unwrap();
        let path = cache
            .dir()
            .join(format!("{:016x}", Cache::config_hash(&id)))
            .join(format!("{:016x}.json", 7u64));
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.config(&id).load(7).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn deeply_nested_trial_file_degrades_to_a_miss() {
        // The parser is recursive; a poisoned entry nesting far past its
        // depth cap must be a miss, not a stack overflow aborting the run.
        let cache = tmp_cache("nested");
        let spec = ExperimentSpec::default();
        let id = Cache::config_identity(&spec, ProtocolKind::Slow, 64);
        cache.config(&id).store(&record(9)).unwrap();
        let path = cache
            .dir()
            .join(format!("{:016x}", Cache::config_hash(&id)))
            .join(format!("{:016x}.json", 9u64));
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        assert!(cache.config(&id).load(9).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = tmp_cache("atomic").dir().to_path_buf();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.json"]);
        // A write that cannot happen is an error, not a panic.
        assert!(write_atomic(&dir.join("missing").join("x.json"), "x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trial_file_degrades_to_a_clean_miss() {
        // A crash mid-write (or disk-full) can leave a prefix of the JSON
        // on disk if the atomic rename already happened against a partial
        // temp file. Whatever the cut point, the load must be a miss —
        // never a panic — and a store over the poisoned entry must heal it.
        let cache = tmp_cache("truncated");
        let spec = ExperimentSpec::default();
        let id = Cache::config_identity(&spec, ProtocolKind::Gsu19, 256);
        let rec = record(11);
        cache.config(&id).store(&rec).unwrap();
        let path = cache
            .dir()
            .join(format!("{:016x}", Cache::config_hash(&id)))
            .join(format!("{:016x}.json", 11u64));
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                cache.config(&id).load(11).is_none(),
                "truncation at {cut}/{} must miss cleanly",
                full.len()
            );
        }
        // The poisoned entry is recoverable: a fresh store overwrites it
        // and the next load hits again.
        cache.config(&id).store(&rec).unwrap();
        assert_eq!(cache.config(&id).load(11), Some(rec));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_config_identity_degrades_to_misses_not_panics() {
        // config.json is the collision guard; if *it* is corrupted the
        // whole config slice must turn into misses (and refuse stores, to
        // protect whatever the incumbent identity was) without panicking.
        let cache = tmp_cache("truncated-config");
        let spec = ExperimentSpec::default();
        let id = Cache::config_identity(&spec, ProtocolKind::Gsu19, 512);
        let rec = record(5);
        cache.config(&id).store(&rec).unwrap();
        let config_path = cache
            .dir()
            .join(format!("{:016x}", Cache::config_hash(&id)))
            .join("config.json");
        let full = std::fs::read_to_string(&config_path).unwrap();
        std::fs::write(&config_path, &full[..full.len() / 2]).unwrap();
        assert!(
            cache.config(&id).load(5).is_none(),
            "poisoned identity: clean miss"
        );
        assert!(
            cache.config(&id).store(&rec).is_err(),
            "store declines, no panic"
        );
        // Restoring the identity brings the stored trial back verbatim.
        std::fs::write(&config_path, &full).unwrap();
        assert_eq!(cache.config(&id).load(5), Some(rec));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fnv_hash_is_stable() {
        // Pinned value: the on-disk layout must not drift between builds.
        assert_eq!(Cache::config_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Cache::config_hash("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
