//! Plan expansion and pooled execution.
//!
//! A spec expands into a deterministic grid of configs (protocol × n)
//! and a flat plan of trial jobs with pre-derived seeds ([`trial_plan`]).
//! Every entry point — [`run_experiment_cached`], [`replay_trial`],
//! [`crate::shard::run_shard`] (with or without a resumed prior file) and
//! both merges — is a composition of two functions here: `run_pool`
//! fills the empty slots of a job list (from the cache, then by running
//! the rest) and `assemble` aggregates a whole plan's records into an
//! [`Artifact`]. Fresh trials flow through **one global worker pool**
//! ([`run_trials_threads`]) in a deterministic longest-expected-cost-
//! first permutation (the [`crate::cost`] model), so no thread idles at
//! a per-config barrier while a straggler finishes. Results land in
//! canonical plan slots and each config is summarised from its records in
//! trial order, so scheduling never leaks into the bytes: the same spec
//! and seed give a byte-identical artifact at any thread count, and any
//! single trial replays bit-identically from its `(seed, config,
//! trial)` address.

use std::cmp::Reverse;
use std::io::Write;

use ppsim::parallel::{default_threads, run_trials_threads};
use ppsim::rng::{split_seed, trial_seeds};

use crate::artifact::{Artifact, ConfigResult, TrialRecord};
use crate::cache::{Cache, CacheStats, ConfigCache};
use crate::cost::trial_cost_units;
use crate::registry::{ProtocolKind, Runnable};
use crate::spec::ExperimentSpec;

/// The expanded config grid of a spec: `protocols × ns`, protocol-major
/// (config index `p * ns.len() + i`).
pub fn config_grid(spec: &ExperimentSpec) -> Vec<(ProtocolKind, u64)> {
    spec.protocols
        .iter()
        .flat_map(|&p| spec.ns.iter().map(move |&n| (p, n)))
        .collect()
}

/// The number of configs in the grid of [`config_grid`].
fn config_count(spec: &ExperimentSpec) -> usize {
    spec.protocols.len() * spec.ns.len()
}

/// The worker-thread count a spec resolves to: `spec.threads`, with `0`
/// meaning auto (the `PPSIM_THREADS` environment variable, falling back
/// to the machine's parallelism). The one place that policy lives: both
/// phases of the pool resolve through here.
pub fn effective_threads(spec: &ExperimentSpec) -> usize {
    if spec.threads == 0 {
        default_threads()
    } else {
        spec.threads
    }
}

/// One planned trial — the unit of the pool and of shard partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedTrial {
    /// Config index in the grid of [`config_grid`].
    pub config: usize,
    /// The grid point's protocol.
    pub protocol: ProtocolKind,
    /// The grid point's population.
    pub n: u64,
    /// Trial index within the config.
    pub trial: usize,
    /// Derived trial seed (`split_seed(config_seed, trial)`).
    pub seed: u64,
    /// FNV-1a hash of the config's canonical cache identity — the same
    /// value that names the config's directory in the trial cache.
    pub config_hash: u64,
    /// Predicted cost in model microseconds
    /// ([`crate::cost::trial_cost_units`]) — the weight the partition
    /// and the in-process pool schedule by. Deterministic, so every
    /// worker derives the same weighted assignment.
    pub cost: u64,
}

/// Expand the full trial plan of a spec in canonical order: config-major
/// (the grid order of [`config_grid`]), trials ascending — plan index
/// `config * spec.trials + trial`.
pub fn trial_plan(spec: &ExperimentSpec) -> Vec<PlannedTrial> {
    let mut plan = Vec::with_capacity(config_count(spec) * spec.trials);
    for (config, (protocol, n)) in config_grid(spec).into_iter().enumerate() {
        let config_hash = Cache::config_hash(&Cache::config_identity(spec, protocol, n));
        let config_seed = split_seed(spec.seed, config as u64);
        let cost = trial_cost_units(spec, protocol, n);
        for (trial, seed) in trial_seeds(config_seed, spec.trials)
            .into_iter()
            .enumerate()
        {
            plan.push(PlannedTrial {
                config,
                protocol,
                n,
                trial,
                seed,
                config_hash,
                cost,
            });
        }
    }
    plan
}

/// The plan index of the `(config, trial)` address — config-major,
/// `config * spec.trials + trial` — or `None` when the address lies
/// outside the plan. The bounds are checked before the arithmetic, so no
/// address read from a file can overflow it.
pub(crate) fn plan_index(spec: &ExperimentSpec, config: usize, trial: usize) -> Option<usize> {
    (config < config_count(spec) && trial < spec.trials).then(|| config * spec.trials + trial)
}

/// Sort indices into `jobs` by `(cost desc, config, trial)` — the
/// deterministic longest-expected-cost-first execution order of the
/// pool. Ties on the modelled cost (every trial of a config, for one)
/// break on the intrinsic plan address, so the permutation is a pure
/// function of the job set.
fn pool_order(jobs: &[PlannedTrial]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (Reverse(jobs[i].cost), jobs[i].config, jobs[i].trial));
    order
}

/// The execution permutation of a spec's whole trial plan: plan indices
/// (config-major, `config * trials + trial`) in the order the global
/// pool would start them, longest predicted cost first. A pure function
/// of the spec — no environment, thread count, or cache state enters —
/// which is what keeps pooled execution reproducible; the determinism
/// suite pins this.
pub fn trial_pool_order(spec: &ExperimentSpec) -> Vec<usize> {
    pool_order(&trial_plan(spec))
}

/// Fill the empty `slots` (aligned with `jobs`) from `cache`.
///
/// Opens the cache slice of every config that still has an empty slot,
/// verifying its identity **once**, then loads over the worker pool
/// (cache reads are pure and [`ConfigCache`] is `Sync`), so warm runs of
/// large artifacts scale with threads. A loaded record's stored trial
/// index reflects the storing spec's grid; this plan's address is
/// authoritative and overwrites it. Returns the opened slices, indexed
/// by grid config index, for storing fresh records into.
pub(crate) fn load_cached(
    spec: &ExperimentSpec,
    jobs: &[PlannedTrial],
    slots: &mut [Option<TrialRecord>],
    cache: &Cache,
) -> Vec<Option<ConfigCache>> {
    let mut slices: Vec<Option<ConfigCache>> = (0..config_count(spec)).map(|_| None).collect();
    let empty: Vec<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();
    for &i in &empty {
        let job = &jobs[i];
        slices[job.config].get_or_insert_with(|| {
            cache.config(&Cache::config_identity(spec, job.protocol, job.n))
        });
    }
    let loaded = run_trials_threads(empty.len(), 0, effective_threads(spec), |k, _| {
        let job = &jobs[empty[k]];
        let slice = slices[job.config].as_ref()?;
        slice.load(job.seed).map(|record| TrialRecord {
            trial: job.trial,
            ..record
        })
    });
    for (&i, record) in empty.iter().zip(loaded) {
        slots[i] = record;
    }
    slices
}

/// Fill every empty slot of `slots` (aligned with `jobs`), leaving slots
/// that arrive filled alone; `stats` accumulates cache hits and fresh
/// runs.
///
/// Three phases, all deterministic in their results:
///
/// 1. **Warm loads** ([`load_cached`]) when given a cache.
/// 2. **Misses** execute in longest-expected-cost-first order
///    ([`pool_order`]) over the worker pool — one flat queue across
///    every config, no per-config barrier — sharing one [`Runnable`] per
///    config. Each result lands in its canonical slot, so the schedule
///    never reaches the bytes.
/// 3. **Stores** write fresh records back sequentially; failures are
///    deduplicated to one warning per config with a count.
///
/// The one execution kernel: a run, a shard, a resumed shard and a
/// replay all fill their slots here, so they produce bit-identical
/// records by construction. Each of them validates `spec` first, which
/// is `Runnable::build`'s precondition.
pub(crate) fn run_pool(
    spec: &ExperimentSpec,
    jobs: &[PlannedTrial],
    slots: &mut [Option<TrialRecord>],
    cache: Option<&Cache>,
    stats: &mut CacheStats,
) {
    let empty = slots.iter().filter(|r| r.is_none()).count();
    let slices = cache
        .map(|cache| load_cached(spec, jobs, slots, cache))
        .unwrap_or_default();
    // Indices into `jobs` still empty, in pool order.
    let missing: Vec<usize> = pool_order(jobs)
        .into_iter()
        .filter(|&i| slots[i].is_none())
        .collect();
    stats.hits += empty - missing.len();
    stats.misses += missing.len();
    if missing.is_empty() {
        return;
    }

    // One Runnable per config with misses, shared by the pool workers; a
    // compiled protocol's role entries fill as its trials look them up.
    let mut runnables: Vec<Option<Runnable>> = (0..config_count(spec)).map(|_| None).collect();
    for &i in &missing {
        let job = &jobs[i];
        if runnables[job.config].is_none() {
            runnables[job.config] = Some(Runnable::build(job.protocol, job.n, spec));
        }
    }
    let fresh = run_trials_threads(missing.len(), 0, effective_threads(spec), |k, _| {
        let job = &jobs[missing[k]];
        let runnable = runnables[job.config]
            .as_ref()
            .expect("runnable built for every config with misses");
        TrialRecord {
            trial: job.trial,
            seed: job.seed,
            outcome: runnable.run(job.n, job.seed, spec),
        }
    });
    // `run_trials_threads` returns results in job order: slot k of
    // `fresh` is pool job k, i.e. `jobs[missing[k]]`. Store-failure
    // warnings collapse to one line per config (an unwritable cache dir
    // would otherwise warn once per trial).
    let mut store_failures: Vec<(usize, usize, String)> = Vec::new();
    for (&i, record) in missing.iter().zip(fresh) {
        let config = jobs[i].config;
        if let Some(slice) = slices.get(config).and_then(Option::as_ref) {
            if let Err(e) = slice.store(&record) {
                match store_failures.iter_mut().find(|(c, _, _)| *c == config) {
                    Some((_, count, _)) => *count += 1,
                    None => store_failures.push((config, 1, e)),
                }
            }
        }
        slots[i] = Some(record);
    }
    store_failures.sort_unstable_by_key(|&(config, _, _)| config);
    for (config, count, first) in store_failures {
        // A closed stderr drops the warning; the run's results stand.
        let _ = writeln!(
            std::io::stderr(),
            "warning: config {config}: {count} trial cache store(s) failed: {first}"
        );
    }
}

/// Aggregate a whole plan's records, in canonical plan order, into the
/// artifact — the one place records become [`ConfigResult`]s. The plan
/// is config-major, so each config's trials are one contiguous run,
/// already in trial order.
pub(crate) fn assemble(spec: &ExperimentSpec, records: Vec<TrialRecord>) -> Artifact {
    let mut records = records.into_iter();
    let configs = config_grid(spec)
        .into_iter()
        .enumerate()
        .map(|(index, (protocol, n))| {
            let trials = records.by_ref().take(spec.trials).collect();
            let config_seed = split_seed(spec.seed, index as u64);
            ConfigResult::collect(protocol, n, config_seed, trials, spec.stop)
        })
        .collect();
    Artifact {
        spec: spec.clone(),
        configs,
    }
}

/// Execute a whole experiment.
///
/// Validates the spec, compiles each config's protocol once (trials share
/// the tables through cheap clones), shards trials over worker threads
/// (`spec.threads`, `0` = the `PPSIM_THREADS` environment variable or the
/// machine's parallelism), and summarises each config's records.
pub fn run_experiment(spec: &ExperimentSpec) -> Result<Artifact, String> {
    run_experiment_cached(spec, None).map(|(artifact, _)| artifact)
}

/// Execute a whole experiment through an optional trial cache.
///
/// With a cache, each trial is first looked up by its content address
/// (config identity × trial seed, see [`Cache`]); only the misses run,
/// and fresh results are stored back. Because cached records round-trip
/// bit-exactly, the artifact is **byte-identical** whether it came from a
/// cold run, a warm one, or any mixture — widening `trials` or the `n`
/// grid recomputes only the new work.
pub fn run_experiment_cached(
    spec: &ExperimentSpec,
    cache: Option<&Cache>,
) -> Result<(Artifact, CacheStats), String> {
    spec.validate()?;
    // The whole grid's trials as one flat pool — no per-config barrier;
    // the pool starts the longest predicted trials first so stragglers
    // overlap the short tail instead of serialising after it.
    let plan = trial_plan(spec);
    let mut slots = vec![None; plan.len()];
    let mut stats = CacheStats::default();
    run_pool(spec, &plan, &mut slots, cache, &mut stats);
    let records = slots
        .into_iter()
        .map(|r| r.expect("run_pool fills every slot"))
        .collect();
    Ok((assemble(spec, records), stats))
}

/// Re-run a single trial of a spec, bit-identically.
///
/// `config` indexes the grid of [`config_grid`], `trial` the trial within
/// it. The plan entry, and so the seed, is the one [`run_experiment`]
/// runs, through the same pool, so the returned record must equal the
/// artifact's — the determinism suite pins this.
pub fn replay_trial(
    spec: &ExperimentSpec,
    config: usize,
    trial: usize,
) -> Result<TrialRecord, String> {
    spec.validate()?;
    let index = plan_index(spec, config, trial).ok_or_else(|| {
        format!(
            "config {config} trial {trial} is outside the plan ({} config(s) x {} trials)",
            config_count(spec),
            spec.trials
        )
    })?;
    let mut slot = [None];
    run_pool(
        spec,
        &trial_plan(spec)[index..=index],
        &mut slot,
        None,
        &mut CacheStats::default(),
    );
    Ok(slot[0].take().expect("run_pool fills every slot"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EngineKind, StopCondition};
    use ppsim::trace::Series;

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("ppexp-engine-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::at(dir)
    }

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            protocols: vec![ProtocolKind::Slow, ProtocolKind::Gsu19],
            ns: vec![64, 128],
            trials: 3,
            seed: 7,
            stop: StopCondition::Stabilize {
                budget_pt: 20_000.0,
            },
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn grid_is_protocol_major() {
        let spec = tiny_spec();
        assert_eq!(
            config_grid(&spec),
            vec![
                (ProtocolKind::Slow, 64),
                (ProtocolKind::Slow, 128),
                (ProtocolKind::Gsu19, 64),
                (ProtocolKind::Gsu19, 128),
            ]
        );
    }

    #[test]
    fn metric_emission_order_is_canonical_not_hasher_dependent() {
        // PR 8 regression pin: trial metrics flow through `Vec`s and
        // `BTreeSet`s only (ppcheck rule `hash-collections`), so their
        // emitted order is a pure function of the spec — the core four,
        // then each selected observable's block in canonical registry
        // order. If a hash collection ever sneaks back into the metric
        // path, this exact-name-sequence assertion is the first to break.
        let mut spec = ExperimentSpec::parse(
            "protocol = gsu19\n n = 64\n trials = 3\n seed = 9\n stop = stabilize:20000\n \
             observables = census,junta_size,observed_states",
        )
        .unwrap();
        spec.threads = 2;
        let params = core_protocol::Params::for_population(64);
        let mut expected: Vec<String> = ["time", "interactions", "leaders", "undecided"]
            .into_iter()
            .map(String::from)
            .collect();
        expected.extend(
            ["zero", "x", "deactivated", "coins", "inhibitors"]
                .into_iter()
                .map(String::from),
        );
        expected.extend(
            ["active", "passive", "withdrawn", "alive"]
                .into_iter()
                .map(String::from),
        );
        expected.extend((0..=params.phi).map(|l| format!("coins_ge{l}")));
        expected.push("junta".into());
        expected.push("observed_states".into());

        let artifact = run_experiment(&spec).unwrap();
        for record in &artifact.configs[0].trials {
            let names: Vec<&String> = record.outcome.metrics.iter().map(|(k, _)| k).collect();
            assert_eq!(
                names,
                expected.iter().collect::<Vec<_>>(),
                "trial {}",
                record.trial
            );
        }
    }

    #[test]
    fn artifact_bytes_are_thread_count_invariant() {
        let mut spec = tiny_spec();
        spec.threads = 1;
        let sequential = run_experiment(&spec).unwrap().to_json_string();
        spec.threads = 4;
        let sharded = run_experiment(&spec).unwrap().to_json_string();
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn replay_matches_recorded_trial() {
        let spec = tiny_spec();
        let artifact = run_experiment(&spec).unwrap();
        for config in [0usize, 3] {
            for trial in 0..spec.trials {
                let replayed = replay_trial(&spec, config, trial).unwrap();
                assert_eq!(replayed, artifact.configs[config].trials[trial]);
            }
        }
    }

    #[test]
    fn replay_rejects_out_of_range_addresses() {
        let spec = tiny_spec();
        assert!(replay_trial(&spec, 99, 0).is_err());
        assert!(replay_trial(&spec, 0, 99).is_err());
    }

    #[test]
    fn aggregates_match_per_trial_records() {
        // Eight trials, enough values per metric for approximate quartiles
        // to show: every aggregate must be exact over its records.
        let spec = ExperimentSpec {
            trials: 8,
            ..tiny_spec()
        };
        let artifact = run_experiment(&spec).unwrap();
        let doc = crate::json::parse(&artifact.to_json_string()).unwrap();
        let docs = doc.get("configs").unwrap().as_arr().unwrap();
        for (config, config_doc) in artifact.configs.iter().zip(docs) {
            assert_eq!(config.failures, 0);
            assert!(!config.aggregates.is_empty());
            for (name, agg) in &config.aggregates {
                let xs: Vec<f64> = config
                    .trials
                    .iter()
                    .filter(|r| r.outcome.converged)
                    .filter_map(|r| r.outcome.metric(name))
                    .collect();
                assert!(xs.len() >= 5, "{name}: {} values", xs.len());
                assert_eq!(agg.n, xs.len(), "{name}");
                for (got, q) in [
                    (agg.min, 0.0),
                    (agg.q25, 0.25),
                    (agg.median, 0.5),
                    (agg.q75, 0.75),
                    (agg.max, 1.0),
                ] {
                    assert_eq!(got, ppsim::quantile(&xs, q), "{name} q{q}");
                }
                assert!((agg.mean - ppsim::mean(&xs)).abs() < 1e-9, "{name}");
                let agg_doc = config_doc.get("aggregates").unwrap().get(name).unwrap();
                assert_eq!(
                    agg_doc.get("quantiles").and_then(crate::json::Json::as_str),
                    Some("exact")
                );
            }
            let survival = config.survival.as_ref().unwrap();
            assert_eq!(survival.v.last(), Some(&0.0), "all trials converged");
        }
    }

    #[test]
    fn failures_are_counted_and_censored() {
        let mut spec = tiny_spec();
        // SlowLe cannot stabilise 128 agents in half a parallel time unit.
        spec.protocols = vec![ProtocolKind::Slow];
        spec.ns = vec![128];
        spec.stop = StopCondition::Stabilize { budget_pt: 0.5 };
        let artifact = run_experiment(&spec).unwrap();
        let config = &artifact.configs[0];
        assert_eq!(config.failures, spec.trials);
        assert!(config.aggregate("time").is_none());
        assert!(config.survival.as_ref().unwrap().is_empty());
        // The artifact still validates.
        let doc = crate::json::parse(&artifact.to_json_string()).unwrap();
        Artifact::validate_json(&doc).unwrap();
    }

    #[test]
    fn emitted_artifact_validates_and_round_trips() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolKind::Gsu19];
        spec.ns = vec![128];
        spec.engine = EngineKind::UrnBatched;
        spec.observables = crate::observe::Observables::parse("census").unwrap();
        spec.stop = StopCondition::Horizon { at_pt: 10.0 };
        spec.sample_at = vec![2.0, 10.0];
        let artifact = run_experiment(&spec).unwrap();
        let text = artifact.to_json_string();
        let doc = crate::json::parse(&text).unwrap();
        Artifact::validate_json(&doc).unwrap();
        // Traces made it through.
        let trial = &doc.get("configs").unwrap().as_arr().unwrap()[0]
            .get("trials")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        let leaders = trial.get("traces").unwrap().get("leaders").unwrap();
        assert_eq!(leaders.get("t").unwrap().as_arr().unwrap().len(), 2);
        // Mean traces aggregate the per-trial series on the shared grid.
        let config = &artifact.configs[0];
        assert!(!config.mean_traces.is_empty());
        let mean_leaders = config
            .mean_traces
            .iter()
            .find(|s| s.name == "leaders")
            .expect("mean trace per series");
        assert_eq!(mean_leaders.t, vec![2.0, 10.0]);
        let by_hand: Vec<f64> = (0..2)
            .map(|k| {
                let vals: Vec<f64> = config
                    .trials
                    .iter()
                    .map(|r| {
                        let s = r
                            .outcome
                            .traces
                            .iter()
                            .find(|s| s.name == "leaders")
                            .unwrap();
                        s.v[k]
                    })
                    .collect();
                ppsim::mean(&vals)
            })
            .collect();
        assert_eq!(mean_leaders.v, by_hand);
        // CSV: one row per (trial, metric) plus one per mean-trace sample
        // plus the header.
        let csv = artifact.to_csv();
        let metric_count = artifact.configs[0].trials[0].outcome.metrics.len();
        let trace_rows: usize = config.mean_traces.iter().map(Series::len).sum();
        assert_eq!(
            csv.lines().count(),
            1 + spec.trials * metric_count + trace_rows
        );
    }

    #[test]
    fn cold_and_warm_cached_runs_are_byte_identical() {
        let cache = tmp_cache("warmcold");
        let spec = tiny_spec();
        let uncached = run_experiment(&spec).unwrap().to_json_string();
        let (cold, cold_stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        let (warm, warm_stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        let total = spec.trials * config_grid(&spec).len();
        assert_eq!(
            cold_stats,
            CacheStats {
                hits: 0,
                misses: total
            }
        );
        assert_eq!(
            warm_stats,
            CacheStats {
                hits: total,
                misses: 0
            }
        );
        assert_eq!(cold.to_json_string(), uncached);
        assert_eq!(warm.to_json_string(), uncached);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn widening_trials_and_grid_reuses_the_prefix() {
        let cache = tmp_cache("widen");
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolKind::Slow];
        spec.ns = vec![64];
        let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        assert_eq!(stats.misses, spec.trials);

        // More trials: the original ones hit, only the new ones run.
        let old_trials = spec.trials;
        spec.trials = 7;
        let (artifact, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        assert_eq!(stats.hits, old_trials);
        assert_eq!(stats.misses, spec.trials - old_trials);
        // And the widened artifact matches an uncached run exactly.
        assert_eq!(
            artifact.to_json_string(),
            run_experiment(&spec).unwrap().to_json_string()
        );

        // Appending a grid point reuses every existing config's trials.
        spec.ns = vec![64, 128];
        let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        assert_eq!(stats.hits, spec.trials);
        assert_eq!(stats.misses, spec.trials);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn spec_edits_change_the_config_address() {
        let cache = tmp_cache("edits");
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolKind::Slow];
        spec.ns = vec![64];
        let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        assert_eq!(stats.hits, 0);
        // A result-shaping edit: no stale hits.
        spec.stop = StopCondition::Stabilize {
            budget_pt: 19_999.0,
        };
        let (_, stats) = run_experiment_cached(&spec, Some(&cache)).unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, spec.trials);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn validator_accepts_early_v1_artifacts() {
        // The first ppexp/v1 artifacts carried `observables` as a level
        // string and predate round_every/init/gamma/phi/psi and the
        // aggregate `quantiles` tag, every artifact before the batched
        // urn's blocks became a function of n echoes `"batch_shift": 4`,
        // and artifacts of the removed sequential engine echo
        // `"engine": "urn"`; they must keep validating.
        let artifact = run_experiment(&tiny_spec()).unwrap();
        let mut doc = crate::json::parse(&artifact.to_json_string()).unwrap();
        let crate::json::Json::Obj(fields) = &mut doc else {
            panic!("artifact root is an object");
        };
        for (key, value) in fields.iter_mut() {
            match (key.as_str(), value) {
                ("spec", crate::json::Json::Obj(spec)) => {
                    spec.retain(|(k, _)| {
                        !matches!(k.as_str(), "round_every" | "init" | "gamma" | "phi" | "psi")
                    });
                    spec.push(("batch_shift".into(), crate::json::Json::Uint(4)));
                    for (k, v) in spec.iter_mut() {
                        match k.as_str() {
                            "observables" => *v = crate::json::Json::Str("core".into()),
                            "engine" => *v = crate::json::Json::Str("urn".into()),
                            _ => {}
                        }
                    }
                }
                ("configs", crate::json::Json::Arr(configs)) => {
                    for config in configs {
                        let crate::json::Json::Obj(cf) = config else {
                            continue;
                        };
                        for (k, v) in cf.iter_mut() {
                            if k != "aggregates" {
                                continue;
                            }
                            let crate::json::Json::Obj(aggs) = v else {
                                continue;
                            };
                            for (_, agg) in aggs.iter_mut() {
                                if let crate::json::Json::Obj(af) = agg {
                                    af.retain(|(k, _)| k != "quantiles");
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Artifact::validate_json(&doc).expect("early-v1 shape must stay valid");
        // Aggregates written before they were exact carry `"p2"` quartiles.
        let p2 = artifact
            .to_json_string()
            .replace("\"quantiles\": \"exact\"", "\"quantiles\": \"p2\"");
        assert!(p2.contains("\"p2\""));
        let doc = crate::json::parse(&p2).unwrap();
        Artifact::validate_json(&doc).expect("p2 quartiles must stay valid");
    }

    #[test]
    fn validator_rejects_corrupted_artifacts() {
        let spec = tiny_spec();
        let artifact = run_experiment(&spec).unwrap();
        let good = artifact.to_json_string();
        for (from, to) in [
            ("ppexp/v1", "ppexp/v0"),
            ("\"failures\": 0", "\"failures\": 1"),
            ("\"converged\": true", "\"converged\": \"yes\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "mutation '{from}' did not apply");
            let doc = crate::json::parse(&bad).unwrap();
            assert!(Artifact::validate_json(&doc).is_err(), "mutation '{from}'");
        }
    }
}
