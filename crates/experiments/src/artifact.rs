//! Versioned experiment artifacts: the machine-readable output of
//! [`crate::run_experiment`].
//!
//! An artifact embeds its spec (canonical form), full per-trial records
//! with seed provenance, per-metric aggregates and — for stabilisation
//! studies — a survival curve. Serialisation is deterministic: the same
//! spec and seed produce byte-identical JSON regardless of thread count,
//! which is what the golden-artifact CI gate diffs against.
//!
//! Schema (`ppexp/v1`):
//!
//! ```json
//! {
//!   "schema": "ppexp/v1",
//!   "spec": { ... },                      // canonical ExperimentSpec
//!   "configs": [{
//!     "protocol": "gsu19", "n": 512,
//!     "config_seed": 123,                 // split_seed(spec.seed, index)
//!     "failures": 0,                      // trials that missed the budget
//!     "trials": [{
//!       "trial": 0, "seed": 456,          // split_seed(config_seed, 0)
//!       "converged": true,
//!       "metrics": {"time": 41.5, ...},
//!       "traces": {"leaders": {"t": [..], "v": [..]}}   // iff sample_at
//!     }],
//!     "aggregates": {"time": {"count": 8, "mean": ..., "std": ...,
//!                             "ci95": ..., "min": ..., "max": ...,
//!                             "q25": ..., "median": ..., "q75": ...,
//!                             "quantiles": "exact"}},
//!     "mean_traces": {"leaders": {"t": [..], "v": [..]}},  // iff traces
//!     "survival": {"t": [..], "v": [..]}  // iff budgeted stop
//!   }]
//! }
//! ```
//!
//! Each aggregate is the [`Summary`] of one metric's values over the
//! converged trials, in trial order. Its quartiles are exact, and
//! `quantiles` says so: `"p2"` (streaming Jain–Chlamtac estimates from
//! five values on) appears only in artifacts written before aggregates
//! were computed from the whole sample, and still validates.
//! `mean_traces` is the pointwise mean of the per-trial trace series
//! (sound because every trial samples on a shared deterministic grid;
//! [`Series::mean_of`] asserts alignment).

use ppsim::stats::Summary;
use ppsim::trace::Series;

use crate::aggregate::survival_curve;
use crate::json::Json;
use crate::registry::{ProtocolKind, TrialOutcome};
use crate::spec::{ExperimentSpec, StopCondition};

/// Current artifact schema tag.
pub const SCHEMA: &str = "ppexp/v1";

/// One trial with full provenance: `(spec.seed, config, trial)` is enough
/// to reproduce it bit-identically (see [`crate::replay_trial`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// Trial index within its config.
    pub trial: usize,
    /// The derived per-trial seed actually fed to the simulator.
    pub seed: u64,
    /// The trial's outcome.
    pub outcome: TrialOutcome,
}

impl TrialRecord {
    /// The trial's JSON form — the exact shape embedded in an artifact's
    /// `trials` array, so a replayed record can be diffed against the
    /// recorded one textually.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("trial".into(), Json::Uint(self.trial as u64)),
            ("seed".into(), Json::Uint(self.seed)),
            ("converged".into(), Json::Bool(self.outcome.converged)),
            (
                "metrics".into(),
                Json::Obj(
                    self.outcome
                        .metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if !self.outcome.traces.is_empty() {
            fields.push((
                "traces".into(),
                Json::Obj(
                    self.outcome
                        .traces
                        .iter()
                        .map(|s| (s.name.clone(), series_json(s)))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Parse a record back from its [`TrialRecord::to_json`] form.
    ///
    /// Used by the trial cache ([`crate::cache`]); emission uses
    /// shortest-round-trip floats, so `from_json(to_json(r)) == r`
    /// bit-exactly for finite values. Returns `None` on any shape
    /// mismatch.
    pub fn from_json(doc: &Json) -> Option<Self> {
        let trial = doc.get("trial")?.as_u64()? as usize;
        let seed = doc.get("seed")?.as_u64()?;
        let converged = doc.get("converged")?.as_bool()?;
        let metrics = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        let traces = match doc.get("traces") {
            None => Vec::new(),
            Some(traces) => traces
                .as_obj()?
                .iter()
                .map(|(name, s)| {
                    let axis = |key: &str| -> Option<Vec<f64>> {
                        s.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
                    };
                    Some(Series {
                        name: name.clone(),
                        t: axis("t")?,
                        v: axis("v")?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Self {
            trial,
            seed,
            outcome: TrialOutcome {
                converged,
                metrics,
                traces,
            },
        })
    }
}

/// Results of one (protocol, n) grid point.
#[derive(Clone, Debug)]
pub struct ConfigResult {
    pub protocol: ProtocolKind,
    pub n: u64,
    /// Per-config master seed (`split_seed(spec.seed, config_index)`).
    pub config_seed: u64,
    /// Trials that did not meet the stopping predicate within budget.
    pub failures: usize,
    /// All trials, ordered by trial index.
    pub trials: Vec<TrialRecord>,
    /// Per-metric summaries over converged trials, in first-seen metric
    /// order.
    pub aggregates: Vec<(String, Summary)>,
    /// Pointwise mean of the per-trial trace series, one per series name
    /// (empty when the spec records no traces). Sound because all trials
    /// of a config sample on the same deterministic grid.
    pub mean_traces: Vec<Series>,
    /// Survival curve of the stopping time (budgeted stops only).
    pub survival: Option<Series>,
}

impl ConfigResult {
    /// Assemble a config result from `trials` (already in trial order).
    ///
    /// The single aggregation path: `run_experiment` feeds it trials it
    /// just ran, [`crate::shard`]'s merge feeds it records collected from
    /// shard files or the cache — byte identity between the two is this
    /// shared code, so any aggregation change propagates to both.
    pub(crate) fn collect(
        protocol: ProtocolKind,
        n: u64,
        config_seed: u64,
        trials: Vec<TrialRecord>,
        stop: StopCondition,
    ) -> Self {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        let mut failures = 0usize;
        for record in &trials {
            if !record.outcome.converged {
                failures += 1;
                continue;
            }
            for (name, value) in &record.outcome.metrics {
                match samples.iter_mut().find(|(k, _)| k == name) {
                    Some((_, xs)) => xs.push(*value),
                    None => samples.push((name.clone(), vec![*value])),
                }
            }
        }
        let survival = (stop.has_survival() && !trials.is_empty()).then(|| {
            let times = samples
                .iter()
                .find(|(k, _)| k == "time")
                .map_or(&[][..], |(_, xs)| xs);
            survival_curve(times, trials.len())
        });
        let aggregates = samples
            .into_iter()
            .map(|(name, xs)| (name, Summary::of(&xs)))
            .collect();
        // Mean traces: every trial records the same series (by name, in
        // order) on a shared grid; average pointwise across all trials —
        // including censored ones, whose trajectories are valid up to
        // where they stopped (`mean_of` handles the ragged tails).
        let mut mean_traces: Vec<Series> = Vec::new();
        if let Some(first) = trials.iter().find(|r| !r.outcome.traces.is_empty()) {
            for (k, series) in first.outcome.traces.iter().enumerate() {
                let group: Vec<Series> = trials
                    .iter()
                    .filter_map(|r| r.outcome.traces.get(k))
                    .filter(|s| {
                        debug_assert_eq!(s.name, series.name, "trials disagree on trace order");
                        !s.is_empty()
                    })
                    .cloned()
                    .collect();
                if !group.is_empty() {
                    let mut mean = Series::mean_of(&group);
                    mean.name = series.name.clone();
                    mean_traces.push(mean);
                }
            }
        }
        Self {
            protocol,
            n,
            config_seed,
            failures,
            trials,
            aggregates,
            mean_traces,
            survival,
        }
    }

    /// Aggregate of a metric by name.
    pub fn aggregate(&self, name: &str) -> Option<&Summary> {
        self.aggregates
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, a)| a)
    }
}

/// A complete experiment result: spec plus every config's records.
#[derive(Clone, Debug)]
pub struct Artifact {
    pub spec: ExperimentSpec,
    pub configs: Vec<ConfigResult>,
}

impl Artifact {
    /// The artifact as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("spec".into(), self.spec.to_json()),
            (
                "configs".into(),
                Json::Arr(self.configs.iter().map(config_json).collect()),
            ),
        ])
    }

    /// Canonical serialised form (pretty, trailing newline) — the bytes
    /// the determinism tests and the golden CI gate compare.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Long-format CSV: one row per (config, trial, metric) scalar, then
    /// one row per mean-trace sample (`trial` column `mean`, the sample
    /// time in `t`). Scalar rows leave `t` empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("config,protocol,n,trial,seed,converged,metric,t,value\n");
        for (ci, config) in self.configs.iter().enumerate() {
            for record in &config.trials {
                for (name, value) in &record.outcome.metrics {
                    out.push_str(&format!(
                        "{ci},{},{},{},{},{},{name},,{value:?}\n",
                        config.protocol.name(),
                        config.n,
                        record.trial,
                        record.seed,
                        record.outcome.converged,
                    ));
                }
            }
            for series in &config.mean_traces {
                for (t, v) in series.t.iter().zip(&series.v) {
                    out.push_str(&format!(
                        "{ci},{},{},mean,,,{},{t:?},{v:?}\n",
                        config.protocol.name(),
                        config.n,
                        series.name,
                    ));
                }
            }
        }
        out
    }

    /// Structural schema validation of a parsed artifact document.
    ///
    /// Checks the `ppexp/v1` shape documented in the module header —
    /// field presence, types, registered protocol names, and that trial
    /// counts and failure counts are internally consistent.
    pub fn validate_json(doc: &Json) -> Result<(), String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("schema '{schema}' is not '{SCHEMA}'"));
        }
        let spec = doc.get("spec").ok_or("missing spec")?;
        for key in [
            "protocols",
            "engine",
            "compiled",
            "n",
            "trials",
            "seed",
            "stop",
            "observables",
            "sample_at",
        ] {
            if spec.get(key).is_none() {
                return Err(format!("spec missing '{key}'"));
            }
        }
        // Artifacts written before the batched urn's blocks became a
        // function of n also echo a `batch_shift`; like every key not
        // checked here, it is ignored. `engine` is checked for presence
        // only, so artifacts of the removed `urn` engine still validate.
        // round_every/init/gamma/phi/psi joined the spec after the first
        // ppexp/v1 artifacts shipped; they are optional so early-v1 files
        // keep validating, but malformed values are still rejected.
        if let Some(v) = spec.get("round_every") {
            v.as_f64().ok_or("spec.round_every is not a number")?;
        }
        if let Some(v) = spec.get("init") {
            let init = v.as_str().ok_or("spec.init is not a string")?;
            crate::spec::InitConfig::parse(init).map_err(|e| format!("spec.init invalid: {e}"))?;
        }
        for key in ["gamma", "phi", "psi"] {
            if let Some(v) = spec.get(key) {
                v.as_u64()
                    .ok_or_else(|| format!("spec.{key} is not an integer"))?;
            }
        }
        let declared_trials = spec
            .get("trials")
            .and_then(Json::as_u64)
            .ok_or("spec.trials is not an integer")? as usize;
        spec.get("stop")
            .and_then(|s| s.get("kind"))
            .and_then(Json::as_str)
            .filter(|k| matches!(*k, "stabilize" | "horizon" | "drag" | "active" | "settled"))
            .ok_or("spec.stop.kind is not stabilize|horizon|drag|active|settled")?;
        // Early-v1 artifacts carried the observable level as a string
        // ("core" | "census"); the registry form is an array of names.
        match spec.get("observables") {
            Some(Json::Str(level)) => {
                crate::observe::Observables::parse(level)
                    .map_err(|e| format!("spec.observables invalid: {e}"))?;
            }
            Some(Json::Arr(names)) => {
                for name in names {
                    let name = name
                        .as_str()
                        .ok_or("spec.observables entry is not a string")?;
                    if crate::observe::ObservableKind::parse(name).is_none() {
                        return Err(format!("unregistered observable '{name}'"));
                    }
                }
            }
            _ => return Err("spec.observables is not an array or level string".into()),
        }

        let configs = doc
            .get("configs")
            .and_then(Json::as_arr)
            .ok_or("missing configs array")?;
        for (ci, config) in configs.iter().enumerate() {
            let ctx = format!("configs[{ci}]");
            let name = config
                .get("protocol")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: missing protocol"))?;
            if ProtocolKind::parse(name).is_none() {
                return Err(format!("{ctx}: unregistered protocol '{name}'"));
            }
            for key in ["n", "config_seed", "failures"] {
                config
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{ctx}: missing integer '{key}'"))?;
            }
            let trials = config
                .get("trials")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{ctx}: missing trials array"))?;
            if trials.len() != declared_trials {
                return Err(format!(
                    "{ctx}: {} trial records for spec.trials = {declared_trials}",
                    trials.len()
                ));
            }
            let mut unconverged = 0u64;
            for (ti, trial) in trials.iter().enumerate() {
                let ctx = format!("{ctx}.trials[{ti}]");
                for key in ["trial", "seed"] {
                    trial
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("{ctx}: missing integer '{key}'"))?;
                }
                let converged = trial
                    .get("converged")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("{ctx}: missing converged"))?;
                if !converged {
                    unconverged += 1;
                }
                let metrics = trial
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| format!("{ctx}: missing metrics object"))?;
                for (key, value) in metrics {
                    if value.as_f64().is_none() {
                        return Err(format!("{ctx}: metric '{key}' is not a number"));
                    }
                }
            }
            let failures = config
                .get("failures")
                .and_then(Json::as_u64)
                .expect("checked");
            if failures != unconverged {
                return Err(format!(
                    "{ctx}: failures = {failures} but {unconverged} trials unconverged"
                ));
            }
            let aggregates = config
                .get("aggregates")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{ctx}: missing aggregates object"))?;
            for (metric, agg) in aggregates {
                for key in [
                    "count", "mean", "std", "ci95", "min", "max", "q25", "median", "q75",
                ] {
                    if agg.get(key).is_none() {
                        return Err(format!("{ctx}: aggregate '{metric}' missing '{key}'"));
                    }
                }
                // Optional (absent in early-v1 artifacts), but a present
                // provenance tag must be one of the two known values;
                // only artifacts older than exact aggregates say `p2`.
                if let Some(q) = agg.get("quantiles") {
                    q.as_str()
                        .filter(|q| matches!(*q, "exact" | "p2"))
                        .ok_or_else(|| {
                            format!("{ctx}: aggregate '{metric}' quantiles is not exact|p2")
                        })?;
                }
            }
            if let Some(mean_traces) = config.get("mean_traces") {
                let series = mean_traces
                    .as_obj()
                    .ok_or_else(|| format!("{ctx}: mean_traces is not an object"))?;
                for (name, s) in series {
                    let t = s.get("t").and_then(Json::as_arr);
                    let v = s.get("v").and_then(Json::as_arr);
                    match (t, v) {
                        (Some(t), Some(v)) if t.len() == v.len() => {}
                        _ => {
                            return Err(format!(
                                "{ctx}: mean trace '{name}' is not an aligned t/v series"
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn series_json(series: &Series) -> Json {
    Json::Obj(vec![
        (
            "t".into(),
            Json::Arr(series.t.iter().map(|&t| Json::Num(t)).collect()),
        ),
        (
            "v".into(),
            Json::Arr(series.v.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

fn config_json(config: &ConfigResult) -> Json {
    let trials = config.trials.iter().map(TrialRecord::to_json).collect();
    let aggregates = config
        .aggregates
        .iter()
        .map(|(name, a)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("count".into(), Json::Uint(a.n as u64)),
                    ("mean".into(), Json::Num(a.mean)),
                    ("std".into(), Json::Num(a.std)),
                    ("ci95".into(), Json::Num(a.ci95)),
                    ("min".into(), Json::Num(a.min)),
                    ("max".into(), Json::Num(a.max)),
                    ("q25".into(), Json::Num(a.q25)),
                    ("median".into(), Json::Num(a.median)),
                    ("q75".into(), Json::Num(a.q75)),
                    ("quantiles".into(), Json::Str("exact".into())),
                ]),
            )
        })
        .collect();
    let mut fields = vec![
        ("protocol".into(), Json::Str(config.protocol.name().into())),
        ("n".into(), Json::Uint(config.n)),
        ("config_seed".into(), Json::Uint(config.config_seed)),
        ("failures".into(), Json::Uint(config.failures as u64)),
        ("trials".into(), Json::Arr(trials)),
        ("aggregates".into(), Json::Obj(aggregates)),
    ];
    if !config.mean_traces.is_empty() {
        fields.push((
            "mean_traces".into(),
            Json::Obj(
                config
                    .mean_traces
                    .iter()
                    .map(|s| (s.name.clone(), series_json(s)))
                    .collect(),
            ),
        ));
    }
    if let Some(survival) = &config.survival {
        fields.push(("survival".into(), series_json(survival)));
    }
    Json::Obj(fields)
}
