//! The traced run: one cold study of the workload with a span around
//! every public call the benchmark makes into a layer, plus the calls
//! that isolate one layer each — a serial re-run, per-record cache I/O,
//! a k = 1 merge, each config run alone, and sampled trial replays.

use std::time::Instant;

use ppexp::{
    config_grid, json, merge_shards, replay_trial, run_experiment, run_experiment_cached,
    spec_hash, trial_plan, Artifact, Cache, CacheStats, ExperimentSpec, Json, Observables,
    ShardManifest, ShardOutput, StopCondition,
};
use ppsim::split_seed;

use crate::report::{median, Outcome};
use crate::study::{self, Scratch};
use crate::workloads::{Workload, THREADS};

/// Constructions timed per config.
const BUILD_REPEATS: usize = 3;
/// Seed stream choosing the replayed trials.
const SAMPLE_STREAM: u64 = 0x7a11;
/// Horizon, in parallel time, of the replay that measures a replay's
/// fixed cost: below one interaction at every workload's n.
const EMPTY_HORIZON: f64 = 1e-10;
/// Floor on a replay's simulation time once the fixed cost is subtracted.
const MIN_TRIAL_S: f64 = 1e-6;

/// What a span concerns.
#[derive(Clone, Copy)]
pub enum Id {
    Study,
    Config(usize),
    Trial(usize, usize),
}

struct Span {
    name: &'static str,
    id: Id,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; the spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; spans `f` opens become its children.
    /// Returns `f`'s result and the span's seconds.
    fn span<T>(&mut self, name: &'static str, id: Id, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[index].end = end;
        (out, end - start)
    }

    /// One JSON object per span: its index, name, parent, the config and
    /// trial it concerns, and start/end seconds since the run began. A
    /// span's self time is its duration minus its children's.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("span".to_string(), Json::Uint(index as u64)),
                ("name".into(), Json::Str(span.name.into())),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
                ),
            ];
            if let Id::Config(c) | Id::Trial(c, _) = span.id {
                fields.push(("config".into(), Json::Uint(c as u64)));
            }
            if let Id::Trial(_, t) = span.id {
                fields.push(("trial".into(), Json::Uint(t as u64)));
            }
            fields.push(("start_s".into(), Json::Num(span.start)));
            fields.push(("end_s".into(), Json::Num(span.end)));
            out.push_str(&Json::Obj(fields).emit());
            out.push('\n');
        }
        out
    }
}

/// One study run through `run_experiment_cached` up to its JSON bytes.
struct Run {
    artifact: Artifact,
    stats: CacheStats,
    bytes: String,
    /// Seconds from the call to the emitted bytes.
    secs: f64,
    emit_s: f64,
}

fn study_run(
    tr: &mut Tracer,
    phase: &'static str,
    spec: &ExperimentSpec,
    cache: &Cache,
) -> Result<Run, String> {
    tr.span(phase, Id::Study, |tr| {
        let (result, run_s) = tr.span("run_experiment_cached", Id::Study, |_| {
            run_experiment_cached(spec, Some(cache))
        });
        let (artifact, stats) = result?;
        let (bytes, emit_s) = tr.span("Artifact::to_json_string", Id::Study, |_| {
            artifact.to_json_string()
        });
        Ok(Run {
            artifact,
            stats,
            bytes,
            secs: run_s + emit_s,
            emit_s,
        })
    })
    .0
}

pub fn run(workload: &Workload, seed: u64) -> Result<(Outcome, Tracer), String> {
    let wall = Instant::now();
    let scratch = Scratch::create()?;
    let mut tr = Tracer::new();
    let mut failures: Vec<String> = Vec::new();
    let text = workload.study_text(seed, 0);

    // Set-up, call by call.
    let (spec, parse_s) = tr.span("ExperimentSpec::parse", Id::Study, |_| {
        ExperimentSpec::parse(&text)
    });
    let spec = spec?;
    let (valid, validate_spec_s) =
        tr.span("ExperimentSpec::validate", Id::Study, |_| spec.validate());
    valid?;
    // The workload without observation, where it observes more than core.
    let core_spec = (!spec.observables.kinds().is_empty()).then(|| {
        let mut core = spec.clone();
        core.observables = Observables::none();
        core
    });
    let (plan, plan_s) = tr.span("trial_plan", Id::Study, |_| trial_plan(&spec));
    let grid = config_grid(&spec);
    let mut build_s = Vec::new();
    let mut table_entries = 0;
    for (c, &(protocol, n)) in grid.iter().enumerate() {
        let mut times = Vec::new();
        let mut entries = 0;
        for _ in 0..BUILD_REPEATS {
            let (built, secs) = tr.span("build_protocol", Id::Config(c), |_| {
                study::build_protocol(&spec, protocol, n)
            });
            entries = built?;
            times.push(secs);
        }
        table_entries += entries;
        build_s.push(median(&times));
    }

    // The cold study, the same spec on one thread, and a warm re-run.
    let cold_cache = Cache::at(scratch.path().join("cold"));
    let cold = study_run(&mut tr, "cold", &spec, &cold_cache)?;
    let trials = study::trial_count(&cold.artifact);
    let mut serial_spec = spec.clone();
    serial_spec.threads = 1;
    let serial_cache = Cache::at(scratch.path().join("serial"));
    let serial = study_run(&mut tr, "serial", &serial_spec, &serial_cache)?;
    if serial.bytes != cold.bytes {
        failures.push("the serial re-run's bytes differ from the cold bytes".into());
    }
    drop(serial.artifact);
    // Once more on one thread with core observables: simulation alone,
    // amortized over every trial (a single replay of a cheap trial is
    // shorter than the noise in its protocol construction).
    let core_serial_s = match &core_spec {
        None => None,
        Some(core) => {
            let mut core = core.clone();
            core.threads = 1;
            let (artifact, secs) = tr.span("serial(core)", Id::Study, |tr| {
                tr.span("run_experiment", Id::Study, |_| run_experiment(&core))
                    .0
            });
            let same_trajectories = artifact?
                .configs
                .iter()
                .flat_map(|c| &c.trials)
                .zip(cold.artifact.configs.iter().flat_map(|c| &c.trials))
                .all(|(a, b)| a.outcome.metric("interactions") == b.outcome.metric("interactions"));
            if !same_trajectories {
                failures.push("core observables changed a trial's interactions".into());
            }
            Some(secs)
        }
    };
    let warm = study_run(&mut tr, "warm", &spec, &cold_cache)?;
    if warm.bytes != cold.bytes {
        failures.push("the warm re-run's bytes differ from the cold bytes".into());
    }
    drop(warm.artifact);

    // Reading the artifact back.
    let (doc, json_parse_s) = tr.span("json::parse", Id::Study, |_| json::parse(&cold.bytes));
    let doc = doc?;
    let (valid, artifact_validate_s) = tr.span("Artifact::validate_json", Id::Study, |_| {
        Artifact::validate_json(&doc)
    });
    if let Err(e) = valid {
        failures.push(format!("the artifact does not validate: {e}"));
    }
    drop(doc);

    // Per-record cache I/O into a fresh directory.
    let records_cache = Cache::at(scratch.path().join("records"));
    let (mut store_s, mut load_s, mut records) = (0.0, 0.0, 0);
    tr.span("cache", Id::Study, |tr| {
        for (c, config) in cold.artifact.configs.iter().enumerate() {
            let identity = Cache::config_identity(&spec, config.protocol, config.n);
            let (slice, _) = tr.span("Cache::config", Id::Config(c), |_| {
                records_cache.config(&identity)
            });
            for record in &config.trials {
                let (stored, secs) =
                    tr.span("ConfigCache::store", Id::Trial(c, record.trial), |_| {
                        slice.store(record)
                    });
                store_s += secs;
                records += 1;
                if let Err(e) = stored {
                    failures.push(format!(
                        "config {c} trial {}: store failed: {e}",
                        record.trial
                    ));
                }
            }
            for record in &config.trials {
                let (loaded, secs) =
                    tr.span("ConfigCache::load", Id::Trial(c, record.trial), |_| {
                        slice.load(record.seed)
                    });
                load_s += secs;
                if loaded.as_ref() != Some(record) {
                    failures.push(format!("config {c} trial {}: load differs", record.trial));
                }
            }
        }
    });
    let cache_bytes = study::dir_bytes(records_cache.dir());

    // Aggregation alone: a full-coverage k = 1 merge of the records.
    let shard = ShardOutput {
        manifest: ShardManifest {
            spec_hash: spec_hash(&spec),
            shard: 0,
            of: 1,
        },
        records: cold
            .artifact
            .configs
            .iter()
            .enumerate()
            .flat_map(|(c, config)| config.trials.iter().map(move |r| (c, r.clone())))
            .collect(),
    };
    let (merged, merge_s) = tr.span("merge_shards", Id::Study, |_| {
        merge_shards(&spec, &[("k=1".to_string(), shard)])
    });
    match merged {
        Ok(merged) if merged.to_json_string() == cold.bytes => {}
        Ok(_) => failures.push("the k = 1 merge differs from the cold bytes".into()),
        Err(e) => failures.push(format!("the k = 1 merge failed: {e}")),
    }

    // Each config alone on one thread, its time less its protocol
    // construction amortized over its trials: the config's mean trial time
    // as the pool runs it. The cost model is checked against these rather
    // than single replays, which cannot resolve a cheap trial (on
    // `trace-heavy` a replay's table build outlasts the trial it replays).
    let mut config_trial_s = Vec::new();
    tr.span("configs alone", Id::Study, |tr| -> Result<(), String> {
        for (c, &(protocol, n)) in grid.iter().enumerate() {
            let mut alone = spec.clone();
            alone.protocols = vec![protocol];
            alone.ns = vec![n];
            alone.threads = 1;
            let (artifact, secs) =
                tr.span("run_experiment", Id::Config(c), |_| run_experiment(&alone));
            let failed = study::failed_trials(&artifact?);
            if failed > 0 {
                failures.push(format!("config {c} alone: {failed} trial(s) failed"));
            }
            config_trial_s.push(((secs - build_s[c]) / spec.trials as f64).max(MIN_TRIAL_S));
        }
        Ok(())
    })
    .0?;

    // Sampled replays with core observables, each less a paired replay
    // that simulates nothing (a near-zero horizon), whose time is the
    // call's fixed cost (validation, protocol construction, initial
    // configuration). A config with fewer trials than it needs timed
    // lends more from the same seed stream, since a trial's seed does not
    // depend on the trial count. Every sampled trial the study recorded
    // is checked against its record.
    let per_config = workload.timed_trials.div_ceil(grid.len());
    let mut sampled = core_spec.clone().unwrap_or_else(|| spec.clone());
    sampled.trials = spec.trials.max(per_config);
    let mut empty = sampled.clone();
    empty.observables = Observables::none();
    empty.sample_at.clear();
    empty.stop = StopCondition::Horizon {
        at_pt: EMPTY_HORIZON,
    };
    let mut trial_s: Vec<f64> = Vec::new();
    tr.span("replay", Id::Study, |tr| -> Result<(), String> {
        for c in 0..grid.len() {
            let first = split_seed(split_seed(seed, SAMPLE_STREAM), c as u64);
            for j in 0..per_config {
                let t = (first as usize + j) % sampled.trials;
                let recorded = cold.artifact.configs[c].trials.get(t);
                if let (Some(recorded), Some(_)) = (recorded, &core_spec) {
                    let (replayed, _) = tr.span("replay_trial", Id::Trial(c, t), |_| {
                        replay_trial(&spec, c, t)
                    });
                    if replayed? != *recorded {
                        failures.push(format!(
                            "config {c} trial {t}: replay differs from the record"
                        ));
                    }
                }
                let (fixed, fixed_s) = tr.span("replay_trial(empty)", Id::Trial(c, t), |_| {
                    replay_trial(&empty, c, t)
                });
                fixed?;
                let (core, secs) = tr.span("replay_trial(core)", Id::Trial(c, t), |_| {
                    replay_trial(&sampled, c, t)
                });
                let core = core?;
                // Where the workload observes more than core, only the
                // trajectory, hence the interactions, must agree.
                let agrees = match (recorded, &core_spec) {
                    (None, _) => true,
                    (Some(recorded), None) => core == *recorded,
                    (Some(recorded), Some(_)) => {
                        core.outcome.metric("interactions")
                            == recorded.outcome.metric("interactions")
                    }
                };
                if !agrees {
                    failures.push(format!(
                        "config {c} trial {t}: the core replay differs from the record"
                    ));
                }
                trial_s.push((secs - fixed_s).max(MIN_TRIAL_S));
            }
        }
        Ok(())
    })
    .0?;
    trial_s.sort_by(f64::total_cmp);
    // The highest percentile with ten timed trials beyond it; with fewer
    // than eleven timed, the slowest stands in.
    let tail = trial_s[trial_s.len().checked_sub(11).unwrap_or(trial_s.len() - 1)];

    // The serial runs less every other layer measured: the trials with the
    // workload's observables, and with core observables.
    let setup_s = parse_s + validate_spec_s + plan_s + build_s.iter().sum::<f64>();
    let observed_trials_s = serial.secs - setup_s - store_s - merge_s - serial.emit_s;
    let core_trials_s = core_serial_s.map_or(observed_trials_s, |secs| secs - setup_s);
    let round_points: usize = cold
        .artifact
        .configs
        .iter()
        .flat_map(|c| &c.trials)
        .filter_map(|r| r.outcome.traces.iter().find(|s| s.name == "rc_active"))
        .map(|s| s.t.len())
        .sum();

    // The cost model against each config's amortized trial time: the model
    // predicts the same cost for every trial of a config.
    let measured_vs_predicted: Vec<(f64, f64)> = config_trial_s
        .iter()
        .enumerate()
        .map(|(c, &m)| (m, plan[c * spec.trials].cost as f64 * 1e-6))
        .collect();
    let errors: Vec<f64> = measured_vs_predicted
        .iter()
        .map(|(m, p)| (m / p).log2().abs())
        .collect();
    let (mut pairs, mut agree) = (0usize, 0usize);
    for (i, a) in measured_vs_predicted.iter().enumerate() {
        for b in &measured_vs_predicted[i + 1..] {
            pairs += 1;
            agree += usize::from((a.1 < b.1) == (a.0 < b.0));
        }
    }
    // One config has no pair to order: vacuously in agreement.
    let rank_agree = if pairs == 0 {
        1.0
    } else {
        agree as f64 / pairs as f64
    };

    // The layers of a cold single-thread run, its trials estimated from
    // the configs run alone.
    let trials_estimate = config_trial_s.iter().sum::<f64>() * spec.trials as f64;
    let layers = setup_s + trials_estimate + store_s + merge_s + serial.emit_s;

    let compiled_build_s = if spec.compiled {
        build_s.iter().sum()
    } else {
        0.0
    };
    let interactions = study::interactions(&cold.artifact);
    let mut notes = vec![format!(
        "traced one cold study ({trials} trials), timed {} replayed trials",
        trial_s.len()
    )];
    notes.extend(
        failures
            .iter()
            .take(5)
            .map(|f| format!("check failed: {f}")),
    );
    if failures.len() > 5 {
        notes.push(format!("... and {} more failed checks", failures.len() - 5));
    }
    let failed = if failures.is_empty() {
        study::failed_trials(&cold.artifact)
    } else {
        trials
    };
    let outcome = Outcome {
        metrics: vec![
            ("spec.parse_s", parse_s + validate_spec_s),
            ("shard.plan_s", plan_s),
            ("shard.plan_trials", plan.len() as f64),
            ("compiled.build_s", compiled_build_s),
            ("compiled.table_entries", table_entries as f64),
            ("cost.err_p50", median(&errors)),
            ("cost.err_max", errors.iter().copied().fold(0.0, f64::max)),
            ("cost.rank_agree", rank_agree),
            ("engine.run_s", cold.secs),
            ("engine.serial_s", serial.secs),
            (
                "engine.efficiency",
                serial.secs / (THREADS as f64 * cold.secs),
            ),
            ("sim.interactions", interactions),
            ("sim.trials_timed", trial_s.len() as f64),
            ("sim.trial_s_p50", median(&trial_s)),
            ("sim.trial_s_tail", tail),
            ("sim.interactions_per_s", interactions / core_trials_s),
            (
                "observe.overhead_frac",
                1.0 - core_trials_s / observed_trials_s,
            ),
            ("observe.round_points", round_points as f64),
            ("cache.store_s", store_s),
            ("cache.load_s", load_s),
            ("cache.records", records as f64),
            ("cache.bytes", cache_bytes as f64),
            (
                "cache.warm_hit_frac",
                warm.stats.hits as f64 / trials as f64,
            ),
            ("cache.warm_run_s", warm.secs),
            ("json.emit_s", cold.emit_s),
            ("json.parse_s", json_parse_s),
            ("artifact.validate_s", artifact_validate_s),
            ("artifact.bytes", cold.bytes.len() as f64),
            ("aggregate.merge_s", merge_s),
            ("trace.wall_s", wall.elapsed().as_secs_f64()),
            ("trace.coverage", layers / serial.secs),
        ],
        attempted: trials,
        failed,
        notes,
    };
    Ok((outcome, tr))
}
