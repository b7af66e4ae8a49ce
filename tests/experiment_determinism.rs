//! Determinism gates for the `ppexp` experiment engine.
//!
//! Pins the subsystem's three core contracts:
//!
//! 1. **Thread-count invariance** — the same spec and seed produce a
//!    byte-identical JSON artifact whether trials run sequentially or
//!    sharded across workers.
//! 2. **Replay** — any single trial re-runs bit-identically from its
//!    `(seed, config, trial)` address alone.
//! 3. **Golden artifacts** — the committed artifacts under
//!    `tests/golden/` regenerate byte-for-byte (CI additionally diffs the
//!    `ppctl run` output of the same specs against the same files), and
//!    every emitted artifact passes the documented schema validation.

use population_protocols::ppexp::json;
use population_protocols::ppexp::{
    config_grid, replay_trial, run_experiment, run_experiment_cached, Artifact, Cache,
    ExperimentSpec,
};

const TINY_SPEC: &str = include_str!("golden/tiny.spec");
const TINY_GOLDEN: &str = include_str!("golden/tiny.json");
const CENSUS_SPEC: &str = include_str!("golden/census.spec");
const CENSUS_GOLDEN: &str = include_str!("golden/census.json");
const ROUNDS_SPEC: &str = include_str!("golden/rounds.spec");
const ROUNDS_GOLDEN: &str = include_str!("golden/rounds.json");
const BATCHED_SPEC: &str = include_str!("golden/batched.spec");
const BATCHED_GOLDEN: &str = include_str!("golden/batched.json");
const OBSERVED_SPEC: &str = include_str!("golden/observed.spec");
const OBSERVED_GOLDEN: &str = include_str!("golden/observed.json");
const STOPS_SPEC: &str = include_str!("golden/stops.spec");
const STOPS_GOLDEN: &str = include_str!("golden/stops.json");
const GS18_SPEC: &str = include_str!("golden/gs18.spec");
const GS18_GOLDEN: &str = include_str!("golden/gs18.json");

/// The golden specs the thread-count, replay and schema checks run.
const ALL_SPECS: [&str; 5] = [TINY_SPEC, CENSUS_SPEC, ROUNDS_SPEC, STOPS_SPEC, GS18_SPEC];

fn spec_with_threads(text: &str, threads: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::parse(text).expect("golden spec parses");
    spec.threads = threads;
    spec
}

#[test]
fn artifact_is_byte_identical_across_thread_counts() {
    for spec_text in ALL_SPECS {
        let sequential = run_experiment(&spec_with_threads(spec_text, 1))
            .unwrap()
            .to_json_string();
        for threads in [2, 4, 16] {
            let sharded = run_experiment(&spec_with_threads(spec_text, threads))
                .unwrap()
                .to_json_string();
            assert_eq!(sequential, sharded, "threads = {threads}");
        }
    }
}

#[test]
fn replayed_trials_match_their_recorded_results() {
    for spec_text in ALL_SPECS {
        let spec = spec_with_threads(spec_text, 4);
        let artifact = run_experiment(&spec).unwrap();
        for (config, result) in artifact.configs.iter().enumerate() {
            for trial in 0..spec.trials {
                let replayed = replay_trial(&spec, config, trial).unwrap();
                assert_eq!(
                    replayed, result.trials[trial],
                    "config {config} trial {trial}"
                );
                // The textual form agrees too — what `ppctl run --replay`
                // prints diffs cleanly against the artifact's record.
                assert_eq!(
                    replayed.to_json().emit(),
                    result.trials[trial].to_json().emit()
                );
            }
        }
    }
}

#[test]
fn golden_artifacts_regenerate_byte_for_byte() {
    for (spec_text, golden, name) in [
        (TINY_SPEC, TINY_GOLDEN, "tiny"),
        (CENSUS_SPEC, CENSUS_GOLDEN, "census"),
        (ROUNDS_SPEC, ROUNDS_GOLDEN, "rounds"),
        (BATCHED_SPEC, BATCHED_GOLDEN, "batched"),
        (OBSERVED_SPEC, OBSERVED_GOLDEN, "observed"),
        (STOPS_SPEC, STOPS_GOLDEN, "stops"),
        (GS18_SPEC, GS18_GOLDEN, "gs18"),
    ] {
        let artifact = run_experiment(&spec_with_threads(spec_text, 0)).unwrap();
        let regenerated = artifact.to_json_string();
        assert_eq!(
            regenerated, golden,
            "tests/golden/{name}.json drifted — if the engine's output \
             format or seed derivation changed intentionally, regenerate \
             with: cargo run --release --bin ppctl -- run --spec \
             tests/golden/{name}.spec --out tests/golden/{name}.json"
        );
    }
}

#[test]
fn emitted_artifacts_pass_schema_validation() {
    for spec_text in ALL_SPECS {
        let artifact = run_experiment(&spec_with_threads(spec_text, 2)).unwrap();
        let doc = json::parse(&artifact.to_json_string()).expect("artifact is valid JSON");
        Artifact::validate_json(&doc).expect("artifact matches the ppexp/v1 schema");
    }
    // The committed goldens validate as-is, without regeneration.
    for golden in [
        TINY_GOLDEN,
        CENSUS_GOLDEN,
        ROUNDS_GOLDEN,
        BATCHED_GOLDEN,
        OBSERVED_GOLDEN,
        STOPS_GOLDEN,
        GS18_GOLDEN,
    ] {
        let doc = json::parse(golden).expect("golden is valid JSON");
        Artifact::validate_json(&doc).expect("golden matches the ppexp/v1 schema");
    }
}

/// Fresh cache directory in the system temp dir, namespaced per process
/// and tag so parallel test binaries never collide.
fn tmp_cache(tag: &str) -> Cache {
    let dir = std::env::temp_dir().join(format!(
        "ppexp-determinism-cache-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Cache::at(dir)
}

/// Cached and uncached runs of the same spec must be byte-identical at
/// any thread count — cold (all misses), warm (all hits), and sharded.
#[test]
fn cached_runs_are_byte_identical_at_any_thread_count() {
    for (spec_text, tag) in [(TINY_SPEC, "tiny"), (ROUNDS_SPEC, "rounds")] {
        let cache = tmp_cache(tag);
        let reference = run_experiment(&spec_with_threads(spec_text, 1))
            .unwrap()
            .to_json_string();
        for threads in [1, 4] {
            let spec = spec_with_threads(spec_text, threads);
            let (cold_or_warm, _) = run_experiment_cached(&spec, Some(&cache)).unwrap();
            assert_eq!(
                cold_or_warm.to_json_string(),
                reference,
                "threads = {threads}"
            );
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}

/// Widening the trial count reuses the recorded prefix and recomputes
/// only the new tail; spec edits that shape results get no stale hits.
#[test]
fn cache_reuses_prefixes_and_respects_identity() {
    let cache = tmp_cache("widen");
    let mut spec = spec_with_threads(TINY_SPEC, 2);
    let configs = config_grid(&spec).len();
    let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, configs * spec.trials);

    let old_trials = spec.trials;
    spec.trials += 2;
    let (widened, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
    assert_eq!(stats.hits, configs * old_trials);
    assert_eq!(stats.misses, configs * 2);
    assert_eq!(
        widened.to_json_string(),
        run_experiment(&spec).unwrap().to_json_string(),
        "widened warm artifact must equal an uncached run byte-for-byte"
    );

    // An edited stop budget is a different experiment: no stale hits.
    spec.apply("budget", "19999").unwrap();
    let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
    assert_eq!(stats.hits, 0);
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Running without a cache touches no cache state (the `--no-cache`
/// contract): a poisoned cache cannot leak into an uncached run.
#[test]
fn uncached_runs_bypass_the_cache_entirely() {
    let cache = tmp_cache("bypass");
    let spec = spec_with_threads(TINY_SPEC, 2);
    let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
    assert!(stats.misses > 0);
    // Poison every cached record.
    for entry in std::fs::read_dir(cache.dir()).unwrap() {
        let dir = entry.unwrap().path();
        for file in std::fs::read_dir(&dir).unwrap() {
            let path = file.unwrap().path();
            if path.file_name().is_some_and(|f| f != "config.json") {
                std::fs::write(&path, "{}").unwrap();
            }
        }
    }
    // The uncached path never reads it...
    let clean = run_experiment(&spec).unwrap().to_json_string();
    assert_eq!(clean, run_experiment(&spec).unwrap().to_json_string());
    // ...and the cached path treats the poison as misses, not errors.
    let (recovered, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
    assert_eq!(stats.hits, 0);
    assert_eq!(recovered.to_json_string(), clean);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn config_seeds_in_artifact_match_provenance_chain() {
    use population_protocols::ppsim::{split_seed, trial_seeds};
    let spec = spec_with_threads(TINY_SPEC, 1);
    let artifact = run_experiment(&spec).unwrap();
    assert_eq!(config_grid(&spec).len(), artifact.configs.len());
    for (index, config) in artifact.configs.iter().enumerate() {
        assert_eq!(config.config_seed, split_seed(spec.seed, index as u64));
        let seeds = trial_seeds(config.config_seed, spec.trials);
        for (trial, record) in config.trials.iter().enumerate() {
            assert_eq!(record.seed, seeds[trial]);
        }
    }
}
