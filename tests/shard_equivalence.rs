//! Gates for process-level sharded execution (`ppexp::shard`).
//!
//! Pins the subsystem's contracts:
//!
//! 1. **Partition laws** (proptest) — for random spec grids and shard
//!    counts, the (i, k) slices are disjoint, covering and balanced by
//!    predicted cost to the greedy-LPT bound (max shard cost is at
//!    most total/k plus one trial), the assignment is stable under
//!    permutation of the plan (it depends on each trial's intrinsic
//!    `(cost, config hash, trial seed)` key, never on enumeration
//!    order), and the in-process pool's longest-first execution
//!    permutation is a pure function of the spec.
//! 2. **Byte identity** — merging k shard outputs reproduces the
//!    single-process artifact byte-for-byte for every committed golden
//!    spec, including mixes of cache-warm, cache-cold and uncached
//!    workers at different thread counts, and `merge --from-cache`.
//! 3. **Verification** — foreign specs, duplicate shards, smuggled or
//!    duplicated records, out-of-plan addresses, corrupted files and
//!    incomplete coverage are refused (exit 2 through the CLI), with the
//!    missing-coverage error naming the exact `--shard i/k` re-runs that
//!    would fill it in.
//! 4. **Resume** — `ppctl work --resume` reuses every valid record of an
//!    interrupted shard file, takes what it can from a warm cache and
//!    recomputes only the remainder; a prior file that repeats a record
//!    is refused.

use population_protocols::ppexp::{
    merge_from_cache, merge_shards, run_experiment, run_experiment_cached, run_shard, shard_slice,
    trial_plan, trial_pool_order, Cache, ExperimentSpec, MergeError, PlannedTrial, ProtocolKind,
    ShardOutput,
};
use proptest::prelude::*;
use std::process::Command;

const TINY_SPEC: &str = include_str!("golden/tiny.spec");
const TINY_GOLDEN: &str = include_str!("golden/tiny.json");
const CENSUS_SPEC: &str = include_str!("golden/census.spec");
const CENSUS_GOLDEN: &str = include_str!("golden/census.json");
const ROUNDS_SPEC: &str = include_str!("golden/rounds.spec");
const ROUNDS_GOLDEN: &str = include_str!("golden/rounds.json");
const OBSERVED_SPEC: &str = include_str!("golden/observed.spec");
const OBSERVED_GOLDEN: &str = include_str!("golden/observed.json");

fn spec_with_threads(text: &str, threads: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::parse(text).expect("golden spec parses");
    spec.threads = threads;
    spec
}

// ---------------------------------------------------------------------------
// Partition laws
// ---------------------------------------------------------------------------

/// Random spec *grids* (plan shape only — these specs are never run):
/// 1–3 protocols, 1–3 populations, 1–8 trials, any master seed.
fn arb_grid_spec() -> impl Strategy<Value = ExperimentSpec> {
    (1usize..=3, 1usize..=3, 1usize..=8, any::<u64>()).prop_map(|(protocols, ns, trials, seed)| {
        ExperimentSpec {
            protocols: ProtocolKind::ALL[..protocols].to_vec(),
            ns: (0..ns).map(|i| 64 << i).collect(),
            trials,
            seed,
            ..ExperimentSpec::default()
        }
    })
}

proptest! {
    /// Slices over i are disjoint, cover the plan exactly, and are
    /// balanced by predicted cost to the greedy-LPT guarantee: no shard
    /// exceeds the ideal (total/k) by more than one trial's cost.
    #[test]
    fn slices_partition_the_plan(spec in arb_grid_spec(), k in 1usize..=9) {
        let plan = trial_plan(&spec);
        let mut covered = vec![0usize; plan.len()];
        let mut loads = Vec::new();
        for shard in 0..k {
            let slice = shard_slice(&spec, shard, k).unwrap();
            loads.push(slice.iter().map(|t| u128::from(t.cost)).sum::<u128>());
            for t in &slice {
                prop_assert_eq!(&plan[t.config * spec.trials + t.trial], t);
                covered[t.config * spec.trials + t.trial] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "not a partition: {covered:?}");
        let total: u128 = plan.iter().map(|t| u128::from(t.cost)).sum();
        let max_cost = plan.iter().map(|t| u128::from(t.cost)).max().unwrap_or(0);
        let max_load = loads.iter().max().copied().unwrap_or(0);
        prop_assert!(
            max_load <= total / k as u128 + max_cost,
            "shard loads {loads:?} break the LPT bound (total {total}, k {k})"
        );
    }

    /// The in-process pool's longest-expected-cost-first permutation is
    /// a pure function of the spec: recomputation agrees exactly, it
    /// permutes the plan, and it is ordered by (cost desc, config,
    /// trial) — no environment, thread count or cache state enters.
    #[test]
    fn pool_permutation_is_a_pure_function_of_the_spec(spec in arb_grid_spec()) {
        let plan = trial_plan(&spec);
        let order = trial_pool_order(&spec);
        prop_assert_eq!(&order, &trial_pool_order(&spec));
        let mut seen = vec![false; plan.len()];
        for &i in &order {
            prop_assert!(!seen[i], "plan index {i} scheduled twice");
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "pool order is not a permutation");
        for w in order.windows(2) {
            let (a, b) = (&plan[w[0]], &plan[w[1]]);
            let ka = (std::cmp::Reverse(a.cost), a.config, a.trial);
            let kb = (std::cmp::Reverse(b.cost), b.config, b.trial);
            prop_assert!(ka <= kb, "pool order is not longest-cost-first");
        }
    }

    /// The shard a trial lands in is a function of the planned-trial set,
    /// not of enumeration order: permuting the plan permutes the
    /// assignment vector identically.
    #[test]
    fn assignment_is_stable_under_plan_permutation(
        spec in arb_grid_spec(),
        k in 1usize..=9,
        keys in proptest::collection::vec(any::<u64>(), 72),
    ) {
        use population_protocols::ppexp::shard::shard_assignments;
        let plan = trial_plan(&spec);
        let canonical = shard_assignments(&plan, k);
        // A random permutation: order plan indices by random keys.
        let mut order: Vec<usize> = (0..plan.len()).collect();
        order.sort_by_key(|&i| (keys[i % keys.len()], i));
        let permuted: Vec<PlannedTrial> = order.iter().map(|&i| plan[i]).collect();
        let shuffled = shard_assignments(&permuted, k);
        for (pos, &i) in order.iter().enumerate() {
            prop_assert_eq!(
                shuffled[pos], canonical[i],
                "trial (config {}, trial {}) moved shards under permutation",
                plan[i].config, plan[i].trial
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------------

/// Fresh cache directory namespaced per process and tag.
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppexp-shard-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every committed golden spec, split into 3 shards and merged, is
/// byte-identical to the committed golden artifact — the acceptance
/// gate of the scale-out layer.
#[test]
fn merged_shards_reproduce_every_golden_byte_for_byte() {
    for (spec_text, golden, name) in [
        (TINY_SPEC, TINY_GOLDEN, "tiny"),
        (CENSUS_SPEC, CENSUS_GOLDEN, "census"),
        (ROUNDS_SPEC, ROUNDS_GOLDEN, "rounds"),
        (OBSERVED_SPEC, OBSERVED_GOLDEN, "observed"),
    ] {
        let spec = spec_with_threads(spec_text, 0);
        let shards: Vec<(String, ShardOutput)> = (0..3)
            .map(|i| {
                let (out, _) = run_shard(&spec, i, 3, None, None).unwrap();
                (format!("{name}-{i}"), out)
            })
            .collect();
        let merged = merge_shards(&spec, &shards).unwrap();
        assert_eq!(merged.to_json_string(), golden, "{name} drifted");
    }
}

/// A realistic heterogeneous fleet: one worker warm against a shared
/// cache, one cold into it, one uncached, all at different thread
/// counts — the merge must still equal the single-process bytes, and a
/// cache-only merge must then succeed from what the workers deposited.
#[test]
fn cache_warm_shard_mix_merges_byte_identically() {
    let dir = tmp_dir("warm-mix");
    let cache = Cache::at(dir.join("cache"));
    let reference = run_experiment(&spec_with_threads(TINY_SPEC, 1))
        .unwrap()
        .to_json_string();

    // Pre-warm shard 0's slice only.
    let warm_spec = spec_with_threads(TINY_SPEC, 2);
    run_shard(&warm_spec, 0, 3, Some(&cache), None).unwrap();

    let shards: Vec<(String, ShardOutput)> = [
        // warm: every trial served from the cache
        (0, Some(&cache), 1),
        // cold: computes fresh and deposits into the shared cache
        (1, Some(&cache), 4),
        // uncached worker
        (2, None, 2),
    ]
    .into_iter()
    .map(|(i, cache, threads)| {
        let spec = spec_with_threads(TINY_SPEC, threads);
        let (out, stats) = run_shard(&spec, i, 3, cache, None).unwrap();
        if i == 0 {
            assert_eq!(stats.cache.hits, stats.planned, "shard 0 should be warm");
        }
        (format!("shard{i}"), out)
    })
    .collect();
    let merged = merge_shards(&spec_with_threads(TINY_SPEC, 0), &shards).unwrap();
    assert_eq!(merged.to_json_string(), reference);

    // Shards 0 and 1 went through the cache, shard 2 did not — a
    // cache-only merge reports exactly shard 2's slice missing...
    let spec = spec_with_threads(TINY_SPEC, 0);
    let err = merge_from_cache(&spec, &cache).unwrap_err();
    let MergeError::Missing { of, missing } = &err else {
        panic!("expected Missing, got {err}");
    };
    assert_eq!(*of, 1, "cache fill-ins are addressed under k = 1");
    assert_eq!(missing.len(), shard_slice(&spec, 2, 3).unwrap().len());

    // ...and after the gap is filled, from-cache equals the reference.
    run_shard(&spec, 2, 3, Some(&cache), None).unwrap();
    let from_cache = merge_from_cache(&spec, &cache).unwrap();
    assert_eq!(from_cache.to_json_string(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One shard filled from all three sources at once: a prior shard file
/// (`--resume`) holds trial 2 of every config, a warm cache trial 0, and
/// trial 1 runs fresh. The counters add up to the slice and the merged
/// artifact is the single-process one.
#[test]
fn resumed_cached_and_fresh_records_fill_one_shard() {
    let dir = tmp_dir("three-sources");
    let cache = Cache::at(dir.join("cache"));
    let spec = spec_with_threads(TINY_SPEC, 2);
    // A trials = 1 copy derives the same trial-0 seeds and config
    // identities, so it warms exactly trial 0 of every config.
    let mut first_trials = spec.clone();
    first_trials.trials = 1;
    run_experiment_cached(&first_trials, Some(&cache)).unwrap();
    let (full, _) = run_shard(&spec, 0, 1, None, None).unwrap();
    let prior = ShardOutput {
        manifest: full.manifest,
        records: full
            .records
            .iter()
            .filter(|(_, record)| record.trial == 2)
            .cloned()
            .collect(),
    };

    let (out, stats) = run_shard(&spec, 0, 1, Some(&cache), Some(&prior)).unwrap();
    assert_eq!(
        (stats.resumed, stats.cache.hits, stats.cache.misses),
        (4, 4, 4)
    );
    assert_eq!(
        stats.resumed + stats.cache.hits + stats.cache.misses,
        stats.planned
    );
    let merged = merge_shards(&spec, &[("shard0".into(), out)]).unwrap();
    assert_eq!(
        merged.to_json_string(),
        run_experiment(&spec).unwrap().to_json_string()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The CLI: ppctl work / ppctl merge
// ---------------------------------------------------------------------------

fn ppctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ppctl"))
        .args(args)
        .output()
        .expect("ppctl spawns")
}

fn path_str(p: &std::path::Path) -> &str {
    p.to_str().unwrap()
}

/// A plan too large to expand (configs × trials past the cap) is a usage
/// error, exit 2, on every command that expands one, never an allocation
/// abort.
#[test]
fn ppctl_rejects_an_oversized_plan_with_exit_2() {
    let dir = tmp_dir("oversized");
    let out = dir.join("out.json");
    let oversized = [
        "--protocol",
        "gsu19",
        "--n",
        "1024",
        "--trials",
        "100000000000",
    ];
    for command in [
        vec!["plan"],
        vec!["run", "--out", path_str(&out)],
        vec!["work", "--shard", "0/1", "--out", path_str(&out)],
        vec!["merge", "--from-cache", "--cache-dir", path_str(&dir)],
    ] {
        let output = ppctl(&[&command[..], &oversized[..]].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{command:?}: {stderr}");
        assert!(
            stderr.contains("1 config(s) x 100000000000 trials"),
            "{command:?}: {stderr}"
        );
    }
    assert!(!out.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `params` and `census` build a spec from their flags and validate it
/// first: a population too small for GSU19's `Params` and a horizon that
/// is not positive are usage errors, exit 2, never a panic or a silent
/// zero-length run; a huge population is still fine for `params`.
#[test]
fn ppctl_params_and_census_reject_bad_input_with_exit_2() {
    for (args, needle) in [
        (
            &["params", "--n", "8"][..],
            "population 8 too small for 'gsu19'",
        ),
        (
            &["census", "--n", "8", "--at", "1"][..],
            "population 8 too small for 'gsu19'",
        ),
        (&["census", "--n", "1"][..], "population 1 too small"),
        (
            &["census", "--at", "-5"][..],
            "stop budget -5 must be positive",
        ),
    ] {
        let output = ppctl(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
    // The parameters do not depend on the engine, so no engine's
    // population cap applies to them.
    let output = ppctl(&["params", "--n", "1073741824"]);
    assert!(output.status.success(), "{output:?}");
}

/// End-to-end through the binary: 3 `work` processes + `merge` equal the
/// committed tiny golden byte-for-byte; verification failures exit 2
/// with precise diagnostics; `--resume` reuses a complete prior file.
#[test]
fn ppctl_work_and_merge_round_trip_the_tiny_golden() {
    let dir = tmp_dir("cli");
    let spec = "tests/golden/tiny.spec";
    let shard_files: Vec<std::path::PathBuf> =
        (0..3).map(|i| dir.join(format!("shard{i}.json"))).collect();
    for (i, file) in shard_files.iter().enumerate() {
        let out = ppctl(&[
            "work",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/3"),
            "--out",
            path_str(file),
        ]);
        assert!(out.status.success(), "work {i}/3: {out:?}");
    }

    let merged = dir.join("merged.json");
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&shard_files[0]),
        path_str(&shard_files[1]),
        path_str(&shard_files[2]),
        "--out",
        path_str(&merged),
    ]);
    assert!(out.status.success(), "merge: {out:?}");
    assert_eq!(std::fs::read_to_string(&merged).unwrap(), TINY_GOLDEN);

    // Missing shard: exit 2 and the fill-in list names the absent slice.
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&shard_files[0]),
        path_str(&shard_files[2]),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shard 1/3"), "{stderr}");

    // Duplicate shard: exit 2.
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&shard_files[0]),
        path_str(&shard_files[0]),
        path_str(&shard_files[1]),
        path_str(&shard_files[2]),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("more than once"));

    // Foreign spec (same grid, different seed): exit 2.
    let foreign = dir.join("foreign.json");
    let out = ppctl(&[
        "work",
        "--spec",
        spec,
        "--seed",
        "9999",
        "--shard",
        "0/3",
        "--out",
        path_str(&foreign),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&foreign),
        path_str(&shard_files[1]),
        path_str(&shard_files[2]),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("foreign spec"));

    // Corrupted shard file (schema intact, records mangled): exit 2.
    let corrupted = dir.join("corrupted.json");
    let text = std::fs::read_to_string(&shard_files[1]).unwrap();
    std::fs::write(&corrupted, text.replacen("\"records\"", "\"recorsd\"", 1)).unwrap();
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&shard_files[0]),
        path_str(&corrupted),
        path_str(&shard_files[2]),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Resume against a complete prior file: everything is reused, and
    // the rewritten file is byte-identical.
    let before = std::fs::read_to_string(&shard_files[0]).unwrap();
    let out = ppctl(&[
        "work",
        "--spec",
        spec,
        "--shard",
        "0/3",
        "--out",
        path_str(&shard_files[0]),
        "--resume",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let slice_len = shard_slice(&spec_with_threads(TINY_SPEC, 0), 0, 3)
        .unwrap()
        .len();
    assert!(stderr.contains(&format!("{slice_len} resumed")), "{stderr}");
    assert!(stderr.contains("0 fresh"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&shard_files[0]).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crafted shard files are refused with exit 2 and a message naming the
/// record, never a panic: a prior file handed to `work --resume` that
/// repeats a record, and a file handed to `merge` with a config index far
/// outside the plan (the product `config * trials` would overflow).
#[test]
fn ppctl_refuses_crafted_shard_files_with_exit_2() {
    let dir = tmp_dir("crafted");
    let spec = "tests/golden/tiny.spec";
    let files: Vec<std::path::PathBuf> =
        (0..2).map(|i| dir.join(format!("shard{i}.json"))).collect();
    for (i, file) in files.iter().enumerate() {
        let out = ppctl(&[
            "work",
            "--spec",
            spec,
            "--shard",
            &format!("{i}/2"),
            "--out",
            path_str(file),
        ]);
        assert!(out.status.success(), "work {i}/2: {out:?}");
    }
    let read = |file: &std::path::Path| {
        ShardOutput::parse(&std::fs::read_to_string(file).unwrap()).unwrap()
    };
    let refused = |out: std::process::Output, needle: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
    };

    let repeated = dir.join("repeated.json");
    let mut prior = read(&files[0]);
    let (config, record) = prior.records[0].clone();
    prior.records.push((config, record.clone()));
    std::fs::write(&repeated, prior.to_json_string()).unwrap();
    let out = ppctl(&[
        "work",
        "--spec",
        spec,
        "--shard",
        "0/2",
        "--out",
        path_str(&repeated),
        "--resume",
    ]);
    refused(out, &format!("config {config} trial {}", record.trial));

    let huge = dir.join("huge.json");
    let mut crafted = read(&files[1]);
    crafted.records[0].0 = i64::MAX as usize;
    std::fs::write(&huge, crafted.to_json_string()).unwrap();
    let out = ppctl(&[
        "merge",
        "--spec",
        spec,
        path_str(&files[0]),
        path_str(&huge),
    ]);
    refused(out, &format!("config {}", i64::MAX));
    let _ = std::fs::remove_dir_all(&dir);
}
