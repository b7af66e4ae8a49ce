//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] names everything a study needs — protocols,
//! engine, population grid, trial count, master seed, stopping condition
//! and observables — and nothing about *how* it executes: the
//! engine ([`crate::run_experiment`]) expands it into a deterministic plan
//! of trial jobs. Specs parse from `key = value` lines (spec files, with
//! `#` comments) and the same keys back every CLI flag of `ppctl run`, so
//! a flag is exactly a one-line spec override.

use components::junta::MIN_RACE_POPULATION;

use crate::json::Json;
use crate::observe::Observables;
use crate::registry::{check_compiled_dims, ProtocolKind};

/// Execution engine selector (mirrors `ppctl --engine`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Explicit agent array; exact sequential reference.
    Agent,
    /// Count-based urn with exact batched sampling (`ppsim::batch`), in
    /// blocks of [`ppsim::batched_block`] interactions: one interaction at
    /// a time below n = 4096, so there it is the sequential urn.
    UrnBatched,
}

impl EngineKind {
    /// Parse an engine name as used by the CLI and spec files.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "agent" => Ok(EngineKind::Agent),
            "urn-batched" => Ok(EngineKind::UrnBatched),
            other => Err(format!(
                "unknown engine '{other}' (expected agent | urn-batched)"
            )),
        }
    }

    /// Canonical name (inverse of [`EngineKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Agent => "agent",
            EngineKind::UrnBatched => "urn-batched",
        }
    }
}

/// When a trial stops.
///
/// `Stabilize` and `Horizon` work for every protocol. The census-based
/// conditions (`DragReached`, `ActivesBelow`, `Settled`) require the
/// gsu19 protocol family. Every condition reports the **exact first-hit
/// interaction count** on every engine: the exact batched urn probes at
/// block granularity and rewinds/replays its recorded trace to the first
/// satisfying interaction (`ppsim::Simulator::steps_until`), per-step
/// engines check after each interaction. No mode quantises stopping times
/// to the round grid or to batch boundaries any more — the round grid
/// (`round_every · n · log₂ n` interactions) only schedules *observables*.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StopCondition {
    /// Run until stably elected or the budget (in parallel time) expires.
    Stabilize {
        /// Per-trial interaction budget, in parallel-time units.
        budget_pt: f64,
    },
    /// Run for a fixed horizon of parallel time.
    Horizon {
        /// Horizon, in parallel-time units.
        at_pt: f64,
    },
    /// Run until the largest drag on an *active* candidate reaches
    /// `level` (the Figure 3 / Lemma 7.2 studies), or the budget expires.
    DragReached {
        /// Target drag level.
        level: u8,
        /// Per-trial budget, in parallel-time units.
        budget_pt: f64,
    },
    /// Run until roles are settled (no `0`/`X` agents) *and* at most
    /// `count` active candidates remain (the Lemma 7.3 final-epoch
    /// reduction), or the budget expires. The settled guard keeps a
    /// fresh-start run — zero actives before any candidate exists — from
    /// trivially stopping at t = 0.
    ActivesBelow {
        /// Active-candidate threshold (inclusive).
        count: u64,
        /// Per-trial budget, in parallel-time units.
        budget_pt: f64,
    },
    /// Run until the configuration is *settled*: stably elected, or
    /// terminally extinct (roles assigned, every candidate withdrawn —
    /// the failure mode of the `gsu19-direct` ablation). Or the budget
    /// expires.
    Settled {
        /// Per-trial budget, in parallel-time units.
        budget_pt: f64,
    },
}

impl StopCondition {
    /// Parse a spec value: `stabilize:BUDGET`, `horizon:AT`,
    /// `drag:LEVEL:BUDGET`, `active:COUNT:BUDGET` or `settled:BUDGET`.
    pub fn parse(value: &str) -> Result<Self, String> {
        let (kind, rest) = value.split_once(':').ok_or(
            "stop takes 'stabilize:BUDGET' | 'horizon:AT' | 'drag:LEVEL:BUDGET' | \
             'active:COUNT:BUDGET' | 'settled:BUDGET' (amounts in parallel time)",
        )?;
        let amount = |s: &str| -> Result<f64, String> {
            s.trim()
                .parse()
                .map_err(|_| format!("invalid stop amount '{s}'"))
        };
        match kind.trim() {
            "stabilize" => Ok(StopCondition::Stabilize {
                budget_pt: amount(rest)?,
            }),
            "horizon" => Ok(StopCondition::Horizon {
                at_pt: amount(rest)?,
            }),
            "settled" => Ok(StopCondition::Settled {
                budget_pt: amount(rest)?,
            }),
            "drag" => {
                let (level, budget) = rest
                    .split_once(':')
                    .ok_or("stop = drag takes 'drag:LEVEL:BUDGET'")?;
                Ok(StopCondition::DragReached {
                    level: level
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid drag level '{level}'"))?,
                    budget_pt: amount(budget)?,
                })
            }
            "active" => {
                let (count, budget) = rest
                    .split_once(':')
                    .ok_or("stop = active takes 'active:COUNT:BUDGET'")?;
                Ok(StopCondition::ActivesBelow {
                    count: count
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid active count '{count}'"))?,
                    budget_pt: amount(budget)?,
                })
            }
            other => Err(format!("unknown stop kind '{other}'")),
        }
    }

    /// The per-trial budget in parallel-time units (the horizon itself
    /// for `Horizon`).
    pub fn budget_pt(&self) -> f64 {
        match *self {
            StopCondition::Stabilize { budget_pt }
            | StopCondition::DragReached { budget_pt, .. }
            | StopCondition::ActivesBelow { budget_pt, .. }
            | StopCondition::Settled { budget_pt } => budget_pt,
            StopCondition::Horizon { at_pt } => at_pt,
        }
    }

    /// Whether the stopping predicate is stated over a GSU19 census, so
    /// only the gsu19 family takes it. (`settled:` is evaluated from the
    /// output counters, which agree with its census form there.)
    pub fn needs_census(&self) -> bool {
        matches!(
            self,
            StopCondition::DragReached { .. }
                | StopCondition::ActivesBelow { .. }
                | StopCondition::Settled { .. }
        )
    }

    /// Whether a survival curve of the stopping time makes sense (every
    /// budgeted event-time condition; not fixed horizons).
    pub fn has_survival(&self) -> bool {
        !matches!(self, StopCondition::Horizon { .. })
    }

    /// Canonical JSON form (embedded in artifacts).
    pub fn to_json(&self) -> Json {
        match *self {
            StopCondition::Stabilize { budget_pt } => Json::Obj(vec![
                ("kind".into(), Json::Str("stabilize".into())),
                ("budget_pt".into(), Json::Num(budget_pt)),
            ]),
            StopCondition::Horizon { at_pt } => Json::Obj(vec![
                ("kind".into(), Json::Str("horizon".into())),
                ("at_pt".into(), Json::Num(at_pt)),
            ]),
            StopCondition::DragReached { level, budget_pt } => Json::Obj(vec![
                ("kind".into(), Json::Str("drag".into())),
                ("level".into(), Json::Uint(level as u64)),
                ("budget_pt".into(), Json::Num(budget_pt)),
            ]),
            StopCondition::ActivesBelow { count, budget_pt } => Json::Obj(vec![
                ("kind".into(), Json::Str("active".into())),
                ("count".into(), Json::Uint(count)),
                ("budget_pt".into(), Json::Num(budget_pt)),
            ]),
            StopCondition::Settled { budget_pt } => Json::Obj(vec![
                ("kind".into(), Json::Str("settled".into())),
                ("budget_pt".into(), Json::Num(budget_pt)),
            ]),
        }
    }
}

/// The initial configuration trials start from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InitConfig {
    /// The standard model: every agent in the protocol's initial state.
    Fresh,
    /// A synthetic settled final-epoch configuration
    /// (`core_protocol::synthetic::final_epoch_config`) with `k` active
    /// candidates — the entry point of the Lemma 7.3 / ablation studies.
    /// With `times_log2`, the actual count is `k · log₂ n` (rounded), so
    /// one spec key covers the paper's `c · log n` entry counts across a
    /// population grid. Requires the gsu19 protocol family.
    FinalEpoch {
        /// Active-candidate count (or multiplier, with `times_log2`).
        k: u64,
        /// Scale `k` by `log₂ n`.
        times_log2: bool,
    },
}

impl InitConfig {
    /// Parse a spec value: `fresh`, `final-epoch:K` or `final-epoch:Klg`
    /// (`K · log₂ n` actives).
    pub fn parse(value: &str) -> Result<Self, String> {
        if value.trim() == "fresh" {
            return Ok(InitConfig::Fresh);
        }
        let Some(rest) = value.trim().strip_prefix("final-epoch:") else {
            return Err(format!(
                "unknown init '{value}' (expected fresh | final-epoch:K | final-epoch:Klg)"
            ));
        };
        let (digits, times_log2) = match rest.strip_suffix("lg") {
            Some(d) => (d, true),
            None => (rest, false),
        };
        let k: u64 = digits
            .parse()
            .map_err(|_| format!("invalid init count '{rest}'"))?;
        if k == 0 {
            return Err("init needs at least one active candidate".into());
        }
        Ok(InitConfig::FinalEpoch { k, times_log2 })
    }

    /// Canonical spec-file value (inverse of [`InitConfig::parse`]).
    pub fn canonical(&self) -> String {
        match *self {
            InitConfig::Fresh => "fresh".into(),
            InitConfig::FinalEpoch { k, times_log2 } => {
                format!("final-epoch:{k}{}", if times_log2 { "lg" } else { "" })
            }
        }
    }

    /// The concrete active-candidate count at population `n`.
    pub fn actives_for(&self, n: u64) -> Option<u64> {
        match *self {
            InitConfig::Fresh => None,
            InitConfig::FinalEpoch { k, times_log2 } => Some(if times_log2 {
                ((k as f64 * (n as f64).log2()).round() as u64).max(1)
            } else {
                k
            }),
        }
    }
}

/// Most trials one spec may plan (configs × trials). The plan holds one
/// entry per trial, built before any trial runs, so a mistyped trial count
/// must be a validation error rather than an allocation abort; the largest
/// committed study plans a few hundred trials.
const MAX_PLAN_TRIALS: usize = 1 << 20;

/// A declarative experiment: protocols × population grid, with engine,
/// trials, seed, stopping condition and observables.
#[derive(Clone, PartialEq, Debug)]
pub struct ExperimentSpec {
    /// Protocols under study; the config grid is `protocols × ns`.
    pub protocols: Vec<ProtocolKind>,
    /// Execution engine shared by every config.
    pub engine: EngineKind,
    /// Insist that every protocol has compiled transition tables
    /// (`ppsim::compiled`; the gsu19 family and gs18). It selects no
    /// path: those protocols always run on their tables, and validation
    /// checks that the tables fit `table_dims` whatever this says, so the
    /// artifact bytes are the same either way apart from this key's
    /// echo. It stays in the echo and the cache identity.
    pub compiled: bool,
    /// Population grid.
    pub ns: Vec<u64>,
    /// Independent trials per config.
    pub trials: usize,
    /// Master seed. Config `c` gets `split_seed(seed, c)`; trial `t` of a
    /// config gets `split_seed(config_seed, t)` — full provenance, so any
    /// trial replays bit-identically from `(seed, config, trial)` alone.
    pub seed: u64,
    /// Worker threads; 0 means auto (the `PPSIM_THREADS` environment
    /// variable, falling back to the machine's parallelism).
    pub threads: usize,
    /// Stopping condition shared by every config.
    pub stop: StopCondition,
    /// Named observables from the registry ([`crate::observe`]); the
    /// empty set records only `time`/`interactions`/`leaders`/`undecided`.
    pub observables: Observables,
    /// Parallel times at which to sample every metric into per-trial
    /// trajectories ([`ppsim::trace::Series`]). Only valid with
    /// [`StopCondition::Horizon`]; must be ascending and within the
    /// horizon.
    pub sample_at: Vec<f64>,
    /// Round-boundary spacing for round- and epoch-scheduled observables,
    /// in units of `n · log₂ n` interactions. Stops do not read it: every
    /// stop condition is an exact first hit.
    pub round_every: f64,
    /// Initial configuration trials start from.
    pub init: InitConfig,
    /// Clock-modulus override (`0` = the derived `gamma_for(n)`); gsu19
    /// family and the clock component.
    pub gamma: u16,
    /// Coin-level-cap override Φ (`0` = derived); gsu19 family only.
    pub phi: u8,
    /// Drag-cap override Ψ (`0` = derived); gsu19 family only.
    pub psi: u8,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        Self {
            protocols: vec![ProtocolKind::Gsu19],
            engine: EngineKind::Agent,
            compiled: false,
            ns: vec![1 << 12],
            trials: 8,
            seed: 42,
            threads: 0,
            stop: StopCondition::Stabilize {
                budget_pt: 200_000.0,
            },
            observables: Observables::none(),
            sample_at: Vec::new(),
            round_every: 1.0,
            init: InitConfig::Fresh,
            gamma: 0,
            phi: 0,
            psi: 0,
        }
    }
}

impl ExperimentSpec {
    /// Parse a spec file: `key = value` lines, `#` starts a comment,
    /// blank lines ignored. Unknown keys are errors (a silently dropped
    /// key is a silently different experiment).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = ExperimentSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected 'key = value'", lineno + 1))?;
            spec.apply(key.trim(), value.trim())
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        Ok(spec)
    }

    /// Apply one `key = value` assignment. The keys double as the long
    /// CLI flags of `ppctl run` (with `-` in place of `_`).
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "protocols" | "protocol" => {
                self.protocols = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|name| {
                        ProtocolKind::parse(name).ok_or_else(|| {
                            format!(
                                "unknown protocol '{name}' (expected {})",
                                ProtocolKind::ALL.map(ProtocolKind::name).join(" | ")
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "engine" => self.engine = EngineKind::parse(value)?,
            "compiled" => self.compiled = parse_bool(value)?,
            "n" => self.ns = parse_n_grid(value)?,
            "trials" => self.trials = parse_num(value, "trials")?,
            "seed" => self.seed = parse_num(value, "seed")?,
            "threads" => self.threads = parse_num(value, "threads")?,
            "stop" => self.stop = StopCondition::parse(value)?,
            "budget" => {
                self.stop = StopCondition::Stabilize {
                    budget_pt: parse_num_f(value, "budget")?,
                }
            }
            "at" => {
                self.stop = StopCondition::Horizon {
                    at_pt: parse_num_f(value, "at")?,
                }
            }
            "observables" => self.observables = Observables::parse(value)?,
            "round_every" | "round-every" => self.round_every = parse_num_f(value, "round_every")?,
            "init" => self.init = InitConfig::parse(value)?,
            "gamma" => self.gamma = parse_num(value, "gamma")?,
            "phi" => self.phi = parse_num(value, "phi")?,
            "psi" => self.psi = parse_num(value, "psi")?,
            "sample_at" | "sample-at" => {
                self.sample_at = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|_| format!("invalid sample time '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown spec key '{other}'")),
        }
        Ok(())
    }

    /// Check internal consistency; [`crate::run_experiment`] calls this
    /// before expanding the plan.
    pub fn validate(&self) -> Result<(), String> {
        if self.protocols.is_empty() {
            return Err("no protocols selected".into());
        }
        if self.ns.is_empty() {
            return Err("empty population grid".into());
        }
        if let Some(&n) = self.ns.iter().find(|&&n| n < 2) {
            return Err(format!("population {n} too small (need n >= 2)"));
        }
        // GSU19's parameters (`Params::for_population` asserts) size the
        // gsu19 family and gs18, and their table check below.
        if let Some(&n) = self.ns.iter().find(|&&n| n < 16) {
            if let Some(p) = self.protocols.iter().find(|p| p.supports_compiled()) {
                return Err(format!(
                    "population {n} too small for '{}' (need n >= 16)",
                    p.name()
                ));
            }
        }
        // The clock's level race (`phi_for` asserts) needs a few agents.
        if let Some(&n) = self.ns.iter().find(|&&n| n < MIN_RACE_POPULATION) {
            if self.protocols.contains(&ProtocolKind::Clock) {
                return Err(format!(
                    "population {n} too small for 'clock' (need n >= {MIN_RACE_POPULATION})"
                ));
            }
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".into());
        }
        let configs = self.protocols.len().saturating_mul(self.ns.len());
        if configs
            .checked_mul(self.trials)
            .is_none_or(|planned| planned > MAX_PLAN_TRIALS)
        {
            return Err(format!(
                "{configs} config(s) x {} trials exceeds the plan cap of {MAX_PLAN_TRIALS} trials",
                self.trials
            ));
        }
        if self.compiled {
            if let Some(p) = self.protocols.iter().find(|p| !p.supports_compiled()) {
                return Err(format!(
                    "compiled = true but protocol '{}' has no compiled tables (gsu19 | gs18 only)",
                    p.name()
                ));
            }
        }
        if self.observables.needs_census() || self.stop.needs_census() {
            if let Some(p) = self.protocols.iter().find(|p| !p.supports_census()) {
                return Err(format!(
                    "census-based observables/stops require the gsu19 family (got '{}')",
                    p.name()
                ));
            }
        }
        if self.observables.needs_epochs() {
            if let Some(p) = self.protocols.iter().find(|p| !p.reports_epochs()) {
                return Err(format!(
                    "epoch observables require an epoch-reporting protocol (got '{}')",
                    p.name()
                ));
            }
        }
        if self.init != InitConfig::Fresh {
            if let Some(p) = self.protocols.iter().find(|p| !p.supports_census()) {
                return Err(format!(
                    "init = {} requires the gsu19 family (got '{}')",
                    self.init.canonical(),
                    p.name()
                ));
            }
            for &n in &self.ns {
                let leaders = core_protocol::synthetic::final_epoch_leaders(n);
                if let Some(k) = self.init.actives_for(n).filter(|&k| k > leaders) {
                    return Err(format!(
                        "init = {} places {k} actives at n = {n}, which has only {leaders} leaders",
                        self.init.canonical()
                    ));
                }
            }
        }
        if self.gamma != 0 {
            if let Some(p) = self
                .protocols
                .iter()
                .find(|p| !p.supports_census() && **p != ProtocolKind::Clock)
            {
                return Err(format!(
                    "gamma override requires the gsu19 family or clock (got '{}')",
                    p.name()
                ));
            }
            // The clock construction needs well-defined halves and a wrap
            // region (`Clock::new` asserts) — reject before it panics.
            if self.gamma < 4 || !self.gamma.is_multiple_of(2) {
                return Err(format!("gamma {} must be even and at least 4", self.gamma));
            }
        }
        if self.phi != 0 || self.psi != 0 {
            if let Some(p) = self.protocols.iter().find(|p| !p.supports_census()) {
                return Err(format!(
                    "phi/psi overrides require the gsu19 family (got '{}')",
                    p.name()
                ));
            }
            // Far above any derived value (Φ, Ψ = O(log log n) ≤ 12);
            // unbounded overrides overflow the `Params` state-space
            // arithmetic (`cnt_init` is `2Φ+3` in a u8).
            if self.phi > 32 || self.psi > 32 {
                return Err(format!(
                    "phi/psi overrides out of range (phi {} / psi {}, max 32)",
                    self.phi, self.psi
                ));
            }
        }
        // After the override range checks: the tables are sized from the
        // overridden parameters, and every gsu19-family and gs18 config
        // runs on them.
        for &protocol in &self.protocols {
            for &n in &self.ns {
                check_compiled_dims(protocol, n, self)?;
            }
        }
        if self.protocols.contains(&ProtocolKind::Clock)
            && !matches!(self.stop, StopCondition::Horizon { .. })
        {
            return Err("the clock component never elects; use stop = horizon:T".into());
        }
        if !self.round_every.is_finite() || self.round_every <= 0.0 {
            return Err(format!(
                "round_every {} must be positive and finite",
                self.round_every
            ));
        }
        if let StopCondition::DragReached { level, .. } = self.stop {
            if level == 0 {
                return Err("stop = drag needs a level of at least 1".into());
            }
            // The drag counter saturates at Ψ, so a level above the
            // effective cap can never fire — every trial would silently
            // burn its whole budget.
            for &n in &self.ns {
                let psi = if self.psi != 0 {
                    self.psi
                } else {
                    core_protocol::psi_for(n)
                };
                if level > psi {
                    return Err(format!(
                        "stop = drag:{level} is unreachable at n = {n} (drag cap Ψ = {psi})"
                    ));
                }
            }
        }
        let budget = self.stop.budget_pt();
        if !budget.is_finite() || budget <= 0.0 {
            return Err(format!("stop budget {budget} must be positive"));
        }
        match self.stop {
            StopCondition::Horizon { at_pt } => {
                if let Some(&t) = self.sample_at.iter().find(|t| !t.is_finite() || **t <= 0.0) {
                    return Err(format!("sample_at time {t} must be positive and finite"));
                }
                if self.sample_at.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("sample_at times must be strictly ascending".into());
                }
                if let Some(&t) = self.sample_at.last() {
                    if t > at_pt {
                        return Err(format!("sample_at time {t} exceeds the horizon {at_pt}"));
                    }
                }
            }
            _ => {
                if !self.sample_at.is_empty() {
                    return Err("sample_at requires a horizon stop (stop = horizon:T)".into());
                }
            }
        }
        if self.engine == EngineKind::Agent {
            if let Some(&n) = self.ns.iter().find(|&&n| n > (1 << 27)) {
                return Err(format!(
                    "n = {n} needs gigabytes as an agent array; use engine = urn-batched"
                ));
            }
        }
        Ok(())
    }

    /// Canonical JSON form, embedded in every artifact so an artifact is
    /// self-describing and replayable.
    ///
    /// Also the input of [`crate::shard::spec_hash`], the identity shard
    /// manifests carry: `threads` is deliberately excluded (workers at
    /// different thread counts produce identical records and must
    /// merge), and any change to the fields emitted here makes existing
    /// shard files *foreign* to the edited spec — which is the correct
    /// failure mode, but worth knowing when evolving this method.
    pub fn to_json(&self) -> Json {
        let stop = self.stop.to_json();
        Json::Obj(vec![
            (
                "protocols".into(),
                Json::Arr(
                    self.protocols
                        .iter()
                        .map(|p| Json::Str(p.name().into()))
                        .collect(),
                ),
            ),
            ("engine".into(), Json::Str(self.engine.name().into())),
            ("compiled".into(), Json::Bool(self.compiled)),
            (
                "n".into(),
                Json::Arr(self.ns.iter().map(|&n| Json::Uint(n)).collect()),
            ),
            ("trials".into(), Json::Uint(self.trials as u64)),
            ("seed".into(), Json::Uint(self.seed)),
            ("stop".into(), stop),
            (
                "observables".into(),
                Json::Arr(
                    self.observables
                        .kinds()
                        .iter()
                        .map(|k| Json::Str(k.name().into()))
                        .collect(),
                ),
            ),
            (
                "sample_at".into(),
                Json::Arr(self.sample_at.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("round_every".into(), Json::Num(self.round_every)),
            ("init".into(), Json::Str(self.init.canonical())),
            ("gamma".into(), Json::Uint(self.gamma as u64)),
            ("phi".into(), Json::Uint(self.phi as u64)),
            ("psi".into(), Json::Uint(self.psi as u64)),
        ])
        // `threads` is deliberately absent: it must not affect results, so
        // it is not part of the experiment's identity.
    }
}

fn parse_bool(value: &str) -> Result<bool, String> {
    match value {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        other => Err(format!("invalid boolean '{other}'")),
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {what} '{value}'"))
}

fn parse_num_f(value: &str, what: &str) -> Result<f64, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {what} '{value}'"))
}

/// Population grid syntax: `A..B` doubles from A up to B inclusive,
/// `a,b,c` is an explicit list, a single number is a one-point grid.
pub fn parse_n_grid(value: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = value.split_once("..") {
        let lo: u64 = parse_num(a.trim(), "population")?;
        let hi: u64 = parse_num(b.trim(), "population")?;
        if lo == 0 || lo > hi {
            return Err(format!("bad population range {lo}..{hi}"));
        }
        let mut grid = Vec::new();
        let mut n = lo;
        while n <= hi {
            grid.push(n);
            match n.checked_mul(2) {
                Some(next) => n = next,
                None => break,
            }
        }
        Ok(grid)
    } else {
        value
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_num(s, "population"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_file() {
        let spec = ExperimentSpec::parse(
            "# comment\n\
             protocols = gsu19, gs18\n\
             engine = urn-batched\n\
             compiled = false\n\
             n = 512..2048\n\
             trials = 5\n\
             seed = 9\n\
             stop = stabilize:30000\n\
             observables = core\n",
        )
        .unwrap();
        assert_eq!(
            spec.protocols,
            vec![ProtocolKind::Gsu19, ProtocolKind::Gs18]
        );
        assert_eq!(spec.engine, EngineKind::UrnBatched);
        assert_eq!(spec.ns, vec![512, 1024, 2048]);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.seed, 9);
        assert_eq!(
            spec.stop,
            StopCondition::Stabilize {
                budget_pt: 30_000.0
            }
        );
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_keys_and_values_are_errors() {
        assert!(ExperimentSpec::parse("trails = 5").is_err());
        assert!(ExperimentSpec::parse("engine = warp").is_err());
        assert!(ExperimentSpec::parse("protocol = gsu20").is_err());
        assert!(ExperimentSpec::parse("stop = sometime").is_err());
        assert!(ExperimentSpec::parse("n = 8..4").is_err());
        // No key sets the batched urn's blocks: they follow
        // `ppsim::batched_block`.
        for key in ["batch_shift", "batch-shift"] {
            let err = ExperimentSpec::parse(&format!("{key} = 4")).unwrap_err();
            assert!(err.contains("unknown spec key"), "{err}");
        }
    }

    #[test]
    fn n_grid_forms() {
        assert_eq!(
            parse_n_grid("512..8192").unwrap(),
            vec![512, 1024, 2048, 4096, 8192]
        );
        assert_eq!(parse_n_grid("100,200,300").unwrap(), vec![100, 200, 300]);
        assert_eq!(parse_n_grid("4096").unwrap(), vec![4096]);
        assert!(parse_n_grid("x..y").is_err());
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Bkko18],
            compiled: true,
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("compiled"));

        // GSU19's parameters need n >= 16; the slow protocol does not.
        let mut spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Slow, ProtocolKind::Gs18],
            ns: vec![8],
            ..ExperimentSpec::default()
        };
        assert!(spec
            .validate()
            .unwrap_err()
            .contains("'gs18' (need n >= 16)"));
        spec.protocols.pop();
        spec.validate().unwrap();

        // The clock's level race needs n >= 4.
        let mut spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Slow, ProtocolKind::Clock],
            ns: vec![4, 3],
            stop: StopCondition::Horizon { at_pt: 1.0 },
            ..ExperimentSpec::default()
        };
        assert!(spec
            .validate()
            .unwrap_err()
            .contains("population 3 too small for 'clock' (need n >= 4)"));
        spec.ns.pop();
        spec.validate().unwrap();

        // Tables past the bucket packing (B = 40 725 buckets) or the
        // phase-table ceiling (Γ = 4098) are an error whatever `compiled`
        // says. Under them, any bucket count compiles: the role tables are
        // sized by the buckets a run meets (B = 6 685 here).
        for compiled in [false, true] {
            for (gamma, phi, psi, needles) in [
                (0, 32, 32, ["B = 40725", "2^15"]),
                (4098, 0, 0, ["Γ = 4098", "limit 67108864"]),
            ] {
                let spec = ExperimentSpec {
                    compiled,
                    gamma,
                    phi,
                    psi,
                    ..ExperimentSpec::default()
                };
                let err = spec.validate().unwrap_err();
                assert!(needles.iter().all(|s| err.contains(s)), "{err}");
                assert!(!err.contains("compiled = false"), "{err}");
            }
            let spec = ExperimentSpec {
                compiled,
                phi: 12,
                psi: 12,
                ..ExperimentSpec::default()
            };
            spec.validate().unwrap();
        }

        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Slow],
            observables: Observables::parse("census").unwrap(),
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("census"));

        // Epoch observables need an epoch-reporting protocol.
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Slow],
            observables: Observables::parse("epoch_times").unwrap(),
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("epoch"));

        // Census-based stops need the gsu19 family.
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Bkko18],
            stop: StopCondition::Settled { budget_pt: 100.0 },
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("census"));

        // Synthetic inits need the gsu19 family.
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Gs18],
            init: InitConfig::FinalEpoch {
                k: 4,
                times_log2: true,
            },
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("gsu19"));

        // ...and no more actives than the synthetic configuration has
        // leaders (n − 2⌊n/4⌋ = 128 at n = 256), counted or scaled; the
        // error names the grid point that overflows.
        for (k, times_log2, ns) in [
            (100_000, false, vec![256]),
            (100, true, vec![256]),
            (129, false, vec![1024, 256]),
        ] {
            let spec = ExperimentSpec {
                ns,
                init: InitConfig::FinalEpoch { k, times_log2 },
                ..ExperimentSpec::default()
            };
            let err = spec.validate().unwrap_err();
            assert!(
                err.contains("at n = 256, which has only 128 leaders"),
                "{err}"
            );
        }
        let spec = ExperimentSpec {
            ns: vec![256],
            init: InitConfig::FinalEpoch {
                k: 128,
                times_log2: false,
            },
            ..ExperimentSpec::default()
        };
        spec.validate().unwrap();

        // The clock component never stabilises.
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Clock],
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("horizon"));

        let spec = ExperimentSpec {
            round_every: 0.0,
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("round_every"));

        // Parameter overrides that would panic (or overflow) downstream
        // constructors are rejected up front.
        let spec = ExperimentSpec {
            gamma: 3,
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("even"));
        let spec = ExperimentSpec {
            phi: 200,
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("out of range"));

        // A drag level above the effective cap Ψ can never fire.
        let spec = ExperimentSpec {
            stop: StopCondition::DragReached {
                level: 9,
                budget_pt: 1000.0,
            },
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("unreachable"));
        // ...but a raised psi override makes it reachable again.
        let spec = ExperimentSpec {
            stop: StopCondition::DragReached {
                level: 9,
                budget_pt: 1000.0,
            },
            psi: 10,
            ..ExperimentSpec::default()
        };
        spec.validate().unwrap();

        let spec = ExperimentSpec {
            sample_at: vec![1.0],
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("horizon"));

        let spec = ExperimentSpec {
            stop: StopCondition::Horizon { at_pt: 4.0 },
            sample_at: vec![1.0, 8.0],
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("exceeds"));

        let spec = ExperimentSpec {
            trials: 0,
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().is_err());

        let spec = ExperimentSpec {
            ns: vec![1 << 30],
            ..ExperimentSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("agent"));
    }

    #[test]
    fn plan_size_is_capped_before_expansion() {
        // configs × trials up to the cap is fine; one past it, or a
        // product that overflows `usize`, is an error naming both factors.
        let mut spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Gsu19, ProtocolKind::Slow],
            ns: vec![256, 512],
            trials: MAX_PLAN_TRIALS / 4,
            ..ExperimentSpec::default()
        };
        spec.validate().unwrap();
        spec.trials += 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("4 config(s)"), "{err}");
        assert!(
            err.contains(&format!("{} trials", MAX_PLAN_TRIALS / 4 + 1)),
            "{err}"
        );
        spec.trials = usize::MAX;
        assert!(spec.validate().unwrap_err().contains("plan cap"));
    }

    #[test]
    fn spec_json_is_stable_and_canonical() {
        let spec = ExperimentSpec::default();
        let j = spec.to_json();
        assert_eq!(j.get("engine").unwrap().as_str(), Some("agent"));
        assert_eq!(j.get("seed").unwrap().as_u64(), Some(42));
        assert!(
            j.get("threads").is_none(),
            "threads must not enter identity"
        );
        assert_eq!(j.emit(), spec.to_json().emit());
    }

    #[test]
    fn extended_stop_and_init_forms_parse() {
        assert_eq!(
            StopCondition::parse("drag:3:500").unwrap(),
            StopCondition::DragReached {
                level: 3,
                budget_pt: 500.0
            }
        );
        assert_eq!(
            StopCondition::parse("active:1:40000").unwrap(),
            StopCondition::ActivesBelow {
                count: 1,
                budget_pt: 40_000.0
            }
        );
        assert_eq!(
            StopCondition::parse("settled:100").unwrap(),
            StopCondition::Settled { budget_pt: 100.0 }
        );
        assert!(StopCondition::parse("drag:3").is_err());
        assert!(StopCondition::parse("active:x:5").is_err());

        assert_eq!(InitConfig::parse("fresh").unwrap(), InitConfig::Fresh);
        assert_eq!(
            InitConfig::parse("final-epoch:40").unwrap(),
            InitConfig::FinalEpoch {
                k: 40,
                times_log2: false
            }
        );
        let init = InitConfig::parse("final-epoch:4lg").unwrap();
        assert_eq!(init.actives_for(1 << 10), Some(40));
        assert!(InitConfig::parse("final-epoch:0").is_err());
        assert!(InitConfig::parse("warmed-up").is_err());
    }

    #[test]
    fn observable_lists_parse_and_canonicalise() {
        let obs = Observables::parse("round_census, census,census").unwrap();
        assert_eq!(obs.canonical(), "census,round_census");
        assert!(obs.needs_census());
        assert!(obs.needs_rounds());
        assert!(!obs.needs_epochs());
        assert_eq!(Observables::parse("core").unwrap(), Observables::none());
        assert!(Observables::parse("censsus").is_err());

        let spec = ExperimentSpec::parse(
            "protocol = gsu19\nobservables = epoch_candidates, drag_times\nstop = drag:2:1000",
        )
        .unwrap();
        spec.validate().unwrap();
        assert!(spec.observables.needs_epochs());
        let j = spec.to_json();
        let names: Vec<_> = j
            .get("observables")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["drag_times", "epoch_candidates"]);
    }

    /// Seeded draws for `random_spec_text`.
    struct Draw<'a>(&'a mut u64);

    impl Draw<'_> {
        fn below(&mut self, k: usize) -> usize {
            (ppsim::rng::splitmix64(self.0) % k as u64) as usize
        }

        /// A value from `(valid, edge)`: valid three times in four.
        fn value(&mut self, (valid, edge): (&[&'static str], &[&'static str])) -> &'static str {
            let pool = if edge.is_empty() || (!valid.is_empty() && self.below(4) != 0) {
                valid
            } else {
                edge
            };
            pool[self.below(pool.len())]
        }
    }

    /// A random spec file: each key (under a random one of its spellings)
    /// appears with probability 1/3 (1/2 for gamma, phi and psi), with a
    /// well-formed value three times in four and otherwise an
    /// out-of-range or malformed one. The values cover n grids in all
    /// three forms, every stop and init form, and gamma/phi/psi at and
    /// past the compiled tables' bounds (Γ = 4096 fits and 4098 does not;
    /// φ = 25, ψ = 32 gives B = 32 395 < 2^15, and φ = ψ = 32 gives
    /// B = 40 725).
    fn random_spec_text(rng: &mut u64) -> String {
        type Values = &'static [&'static str];
        let keys: [(Values, Values, Values); 18] = [
            (&["protocols", "protocol"], &[], &[]),
            (&["engine"], &["agent", "urn-batched"], &["urn"]),
            (&["compiled"], &["true", "false"], &["maybe"]),
            (&["n"], &[], &[]),
            (&["trials"], &["1", "2"], &["0", "2097152", "-1"]),
            (&["seed"], &["0", "18446744073709551615"], &["-3"]),
            (&["threads"], &["0", "2"], &["x"]),
            (
                &["stop"],
                &[
                    "stabilize:100",
                    "horizon:3",
                    "drag:1:100",
                    "active:1:100",
                    "active:0:1e308",
                    "settled:50",
                ],
                &[
                    "stabilize:0",
                    "stabilize:nan",
                    "horizon:-1",
                    "drag:0:100",
                    "drag:13:100",
                    "drag:x:100",
                    "drag:2",
                    "active:1",
                    "sometime:5",
                ],
            ),
            (&["budget"], &["100"], &["0", "inf", "x"]),
            (&["at"], &["2", "1e-300"], &["0", "x"]),
            (
                &["observables"],
                &[
                    "core",
                    "census",
                    "observed_states",
                    "epoch_times",
                    "epoch_candidates, drag_times",
                    "round_census, level_sizes, junta_size, drag_histogram",
                ],
                &["censsus"],
            ),
            (
                &["round_every", "round-every"],
                &["1", "0.5"],
                &["0", "nan"],
            ),
            (
                &["init"],
                &["fresh", "final-epoch:4", "final-epoch:4lg"],
                &[
                    "final-epoch:0",
                    "final-epoch:100000",
                    "final-epoch:18446744073709551615lg",
                    "warmed-up",
                ],
            ),
            (
                &["gamma"],
                &["0", "4", "32", "128", "4096"],
                &["3", "5", "4098", "40000", "65536"],
            ),
            (&["phi"], &["0", "2", "25", "32"], &["33", "256"]),
            (&["psi"], &["0", "2", "32"], &["33"]),
            (&["sample_at", "sample-at"], &["", "1, 2"], &["2, 1", "0"]),
            (&["trails"], &[], &["5"]),
        ];
        let protocols = (
            &[
                "gsu19",
                "gsu19-no-drag",
                "gsu19-no-backup",
                "gsu19-direct",
                "gs18",
                "bkko18",
                "slow",
                "clock",
            ][..],
            &["gsu20"][..],
        );
        let single = (
            &["16", "100", "1024", "4096", "1099511627776"][..],
            &[
                "0",
                "2",
                "3",
                "15",
                "134217729",
                "18446744073709551615",
                "18446744073709551616",
                "x",
            ][..],
        );
        let lo = (&["16", "1000"][..], &["0", "3", "1048576"][..]);
        let hi = (&["4096", "4194304"][..], &["2", "18446744073709551615"][..]);

        let mut draw = Draw(rng);
        let mut text = String::new();
        for (spellings, valid, edge) in keys {
            // The table-sizing overrides appear more often than the rest.
            let odds = if matches!(spellings[0], "gamma" | "phi" | "psi") {
                2
            } else {
                3
            };
            if draw.below(odds) != 0 {
                continue;
            }
            let key = spellings[draw.below(spellings.len())];
            let v = match key {
                "protocols" | "protocol" => (0..1 + draw.below(3))
                    .map(|_| draw.value(protocols))
                    .collect::<Vec<_>>()
                    .join(", "),
                "n" => match draw.below(3) {
                    0 => draw.value(single).to_string(),
                    1 => format!("{}, {}", draw.value(single), draw.value(single)),
                    _ => format!("{}..{}", draw.value(lo), draw.value(hi)),
                },
                _ => draw.value((valid, edge)).to_string(),
            };
            text += &format!("{key} = {v}\n");
        }
        text
    }

    /// Validation is the one gate in front of `Runnable::build`: on random
    /// specs `parse` and `validate` never panic, and every spec that
    /// validates builds a `Runnable` for each of its configs. Builds run
    /// where Γ is small (phase tables of Γ = 4096 hold 2^25 entries).
    #[test]
    fn random_specs_validate_without_panicking_and_valid_specs_build() {
        use crate::registry::Runnable;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut rng = 0x5eed_u64;
        let mut valid = 0;
        for _ in 0..2000 {
            let text = random_spec_text(&mut rng);
            let checked = catch_unwind(AssertUnwindSafe(|| {
                ExperimentSpec::parse(&text).map(|spec| {
                    let ok = spec.validate().is_ok();
                    (spec, ok)
                })
            }));
            let Ok(Ok((spec, true))) = checked else {
                assert!(checked.is_ok(), "parse or validate panicked on:\n{text}");
                continue;
            };
            valid += 1;
            if spec.gamma > 256 {
                continue;
            }
            let built = catch_unwind(|| {
                for &protocol in &spec.protocols {
                    for &n in &spec.ns {
                        Runnable::build(protocol, n, &spec);
                    }
                }
            });
            assert!(built.is_ok(), "a validated spec failed to build:\n{text}");
        }
        // The draw must reach `Runnable::build`, not only the error paths.
        assert!(valid >= 100, "only {valid} of 2000 random specs validated");
    }
}
