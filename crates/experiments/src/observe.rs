//! Observable registry: named measurements with declared sampling
//! schedules, and the trial driver that executes them.
//!
//! PR 4's `ObservableSet` was a two-value enum (core | census) that could
//! only measure *at the stopping point*, which is why the round- and
//! epoch-structured benches (Table 1, Figures 2/3, the lemma validations)
//! still drove simulators by hand. This module replaces it with a
//! registry of named observables, each declaring **when** it samples and
//! **what** it records:
//!
//! | name              | schedule | records                                          |
//! |-------------------|----------|--------------------------------------------------|
//! | `census`          | stop     | full GSU19 census scalars + `coins_ge{l}`        |
//! | `level_sizes`     | stop     | the coin sub-population sizes `coins_ge{l}` only |
//! | `junta_size`      | stop     | `junta` = `C_Φ` (Lemma 5.3)                      |
//! | `drag_histogram`  | stop     | cumulative inhibitor drags `inhib_ge{l}` (L 7.1) |
//! | `round_census`    | rounds   | `rc_*` trace series, one point per boundary      |
//! | `drag_times`      | rounds   | `drag_ge{l}_pt`: first active drag ≥ l (L 7.2)   |
//! | `epoch_candidates`| epochs   | `epoch{k}_pt/_val/_active` per epoch transition  |
//! | `epoch_times`     | epochs   | `round{k}_pt` per epoch transition               |
//! | `observed_states` | rounds   | `observed_states`: distinct states seen          |
//!
//! Schedules:
//!
//! * **stop** — measured once, at the trial's stopping point;
//! * **rounds** — measured at the deterministic round boundaries
//!   `k · round_every · n · log₂ n` interactions (`k = 0, 1, 2, …`; one
//!   clock round is ≈ 5·log₂ n parallel time at the calibrated Γ, so the
//!   default `round_every = 1` samples a few times per round);
//! * **epochs** — measured at protocol-reported epoch transitions, read
//!   at round-grid granularity from the checkpoint's configuration pass
//!   as the population maximum of `Protocol::epoch_of` (GSU19 reports its
//!   fast-elimination countdown, the clock component its round counter).
//!
//! Scalar results stream into the artifact's Welford/P² aggregates like
//! any other metric; `round_census` produces per-trial trace series on a
//! grid shared across trials, which is what makes the artifact-level
//! mean-trace aggregation sound.
//!
//! Cost: each round checkpoint, and the stop point of a trial with round or
//! epoch observables, makes one pass over the configuration, folding it
//! into its distinct (state, multiplicity) pairs; the census, the epoch
//! and the distinct-state set are then computed per distinct state. The
//! stop-scheduled census metrics and the `sample_at` rows (a few per
//! trial) and census-based stop predicates (one consumer each) read the
//! simulator directly.

use std::collections::BTreeSet;

use core_protocol::{Census, Params};
use ppsim::trace::Series;
use ppsim::{BatchPolicy, Simulator};

use crate::registry::TrialOutcome;
use crate::spec::{EngineKind, StopCondition};

/// When an observable samples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// Once, at the trial's stopping point.
    Stop,
    /// At the round boundaries `k · round_every · n · log₂ n`.
    Rounds,
    /// At protocol-reported epoch transitions (polled on the round grid).
    Epochs,
}

/// A named observable of the registry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ObservableKind {
    /// Full GSU19 census at stop: role counts, coin levels, inhibitors.
    Census,
    /// Coin sub-population sizes `C_ℓ` only (`coins_ge{l}`).
    LevelSizes,
    /// Junta size `C_Φ` (`junta`).
    JuntaSize,
    /// Cumulative inhibitor drag histogram (`inhib_ge{l}`).
    DragHistogram,
    /// Census trace sampled at every round boundary (`rc_*` series).
    RoundCensus,
    /// First parallel time at which the max *active* drag reaches each
    /// level (`drag_ge{l}_pt`) — the Figure 3 / Lemma 7.2 tick gaps.
    DragTimes,
    /// Parallel time, epoch value and active-candidate count at every
    /// epoch transition (`epoch{k}_pt`, `epoch{k}_val`, `epoch{k}_active`).
    EpochCandidates,
    /// Parallel time and reported value of every epoch transition
    /// (`round{k}_pt`, `round{k}_val`) — protocol progress without a
    /// census, usable by any epoch-reporting protocol. For wrapping
    /// counters (the clock's mod-16 rounds) the value lets consumers
    /// weight each gap by the rounds it spans.
    EpochTimes,
    /// Number of distinct states observed along the trajectory
    /// (`observed_states`), sampled at round boundaries plus the stop.
    ObservedStates,
}

impl ObservableKind {
    /// Every registered observable, in canonical order.
    pub const ALL: [ObservableKind; 9] = [
        ObservableKind::Census,
        ObservableKind::LevelSizes,
        ObservableKind::JuntaSize,
        ObservableKind::DragHistogram,
        ObservableKind::RoundCensus,
        ObservableKind::DragTimes,
        ObservableKind::EpochCandidates,
        ObservableKind::EpochTimes,
        ObservableKind::ObservedStates,
    ];

    /// Parse a registry name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Canonical name (inverse of [`ObservableKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ObservableKind::Census => "census",
            ObservableKind::LevelSizes => "level_sizes",
            ObservableKind::JuntaSize => "junta_size",
            ObservableKind::DragHistogram => "drag_histogram",
            ObservableKind::RoundCensus => "round_census",
            ObservableKind::DragTimes => "drag_times",
            ObservableKind::EpochCandidates => "epoch_candidates",
            ObservableKind::EpochTimes => "epoch_times",
            ObservableKind::ObservedStates => "observed_states",
        }
    }

    /// When this observable samples.
    pub fn schedule(self) -> Schedule {
        match self {
            ObservableKind::Census
            | ObservableKind::LevelSizes
            | ObservableKind::JuntaSize
            | ObservableKind::DragHistogram => Schedule::Stop,
            ObservableKind::RoundCensus
            | ObservableKind::DragTimes
            | ObservableKind::ObservedStates => Schedule::Rounds,
            ObservableKind::EpochCandidates | ObservableKind::EpochTimes => Schedule::Epochs,
        }
    }

    /// Whether it needs a GSU19 census (restricts the spec to the gsu19
    /// protocol family).
    pub fn needs_census(self) -> bool {
        !matches!(
            self,
            ObservableKind::EpochTimes | ObservableKind::ObservedStates
        )
    }

    /// Whether it needs protocol-reported epochs.
    pub fn needs_epochs(self) -> bool {
        self.schedule() == Schedule::Epochs
    }
}

/// The (deduplicated, canonically ordered) set of observables a spec
/// selects. The empty set is the PR 4 `core` level: only the always-on
/// metrics `time`/`interactions`/`leaders`/`undecided`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Observables {
    kinds: Vec<ObservableKind>,
}

impl Observables {
    /// Core metrics only.
    pub fn none() -> Self {
        Self::default()
    }

    /// Normalised set: sorted canonically, duplicates removed.
    pub fn of(mut kinds: Vec<ObservableKind>) -> Self {
        kinds.sort();
        kinds.dedup();
        Self { kinds }
    }

    /// Parse a spec value: `core` (empty set) or a comma-separated list of
    /// registry names.
    pub fn parse(value: &str) -> Result<Self, String> {
        if value.trim() == "core" {
            return Ok(Self::none());
        }
        let kinds = value
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                ObservableKind::parse(name).ok_or_else(|| {
                    format!(
                        "unknown observable '{name}' (expected core | {})",
                        ObservableKind::ALL.map(ObservableKind::name).join(" | ")
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::of(kinds))
    }

    /// Canonical spec-file value (inverse of [`Observables::parse`]).
    pub fn canonical(&self) -> String {
        if self.kinds.is_empty() {
            "core".into()
        } else {
            self.kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// The selected observables, canonically ordered.
    pub fn kinds(&self) -> &[ObservableKind] {
        &self.kinds
    }

    /// Whether `kind` is selected.
    pub fn contains(&self, kind: ObservableKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Whether any selected observable needs a GSU19 census.
    pub fn needs_census(&self) -> bool {
        self.kinds.iter().any(|k| k.needs_census())
    }

    /// Whether any selected observable needs protocol-reported epochs.
    pub fn needs_epochs(&self) -> bool {
        self.kinds.iter().any(|k| k.needs_epochs())
    }

    /// Whether any selected observable samples on the round grid.
    pub fn needs_rounds(&self) -> bool {
        self.kinds.iter().any(|k| k.schedule() == Schedule::Rounds)
    }
}

/// Everything the trial driver needs to know about how one trial
/// executes; shared by every config of a spec.
pub(crate) struct RunShape<'a> {
    pub engine: EngineKind,
    pub policy: BatchPolicy,
    pub stop: StopCondition,
    pub sample_at: &'a [f64],
    pub observables: &'a Observables,
    /// Round-boundary spacing, in units of `n · log₂ n` interactions.
    pub round_every: f64,
}

/// Census access for the trial driver: the one capability that separates
/// the gsu19 protocol family (full census, decoded if compiled) from
/// everything else. The spec validator guarantees census-needing
/// observables and stop conditions only meet probes that answer `Some`.
pub(crate) trait Probe<S: Simulator> {
    /// Census of the current configuration, if the protocol supports one.
    fn census(&self, sim: &S) -> Option<Census>;
    /// Census of a configuration given as (state, multiplicity) pairs, if
    /// the protocol supports one.
    fn census_of(&self, counts: &[(S::State, u64)]) -> Option<Census>;
    /// The GSU19 parameters, if the protocol has them.
    fn params(&self) -> Option<&Params>;
    /// Dense state id of a state (`EnumerableProtocol::state_id`): the key
    /// of a [`Snapshot`] and of the `observed_states` distinct-state count.
    fn state_id(&self, s: S::State) -> usize;
    /// The epoch a state reports (`Protocol::epoch_of`).
    fn epoch_of(&self, s: S::State) -> Option<u32>;
}

/// An observation point's view of the configuration: its distinct states
/// with their multiplicities, folded in one pass over
/// [`Simulator::for_each_state`] (one entry per agent on `AgentSim`, one
/// per occupied state on `UrnSim`). Every consumer then works per distinct
/// state instead of walking the population again.
struct Snapshot<St> {
    /// Position in `counts` of each state id folded at this point,
    /// `u32::MAX` for the others. Grown on demand and reset through `ids`,
    /// so a point costs O(entries), not O(state space).
    slot: Vec<u32>,
    /// Dense ids of the distinct states, in first-seen order.
    ids: Vec<usize>,
    /// (state, multiplicity) of each id in `ids`, in the same order.
    counts: Vec<(St, u64)>,
}

impl<St: Copy> Snapshot<St> {
    fn new() -> Self {
        Self {
            slot: Vec::new(),
            ids: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Fold the current configuration of `sim`, replacing the last one.
    fn take<S: Simulator<State = St>>(&mut self, sim: &S, probe: &impl Probe<S>) {
        let Snapshot { slot, ids, counts } = self;
        for &id in ids.iter() {
            slot[id] = u32::MAX;
        }
        ids.clear();
        counts.clear();
        sim.for_each_state(&mut |s, k| {
            let id = probe.state_id(s);
            if id >= slot.len() {
                slot.resize(id + 1, u32::MAX);
            }
            match slot[id] {
                u32::MAX => {
                    slot[id] = counts.len() as u32;
                    ids.push(id);
                    counts.push((s, k));
                }
                at => counts[at as usize].1 += k,
            }
        });
    }
}

/// Seed stream tag for synthetic initial configurations, so the init
/// draw is independent of the scheduler stream (`rng::split_seed`).
pub(crate) const INIT_STREAM: u64 = 0x1717;

/// Per-trial accumulators for round- and epoch-scheduled observables.
struct ObsAccum {
    /// Distinct state ids seen (`observed_states`). A `BTreeSet`, not a
    /// `HashSet`: nothing in an artifact-feeding path may even *carry*
    /// hasher-dependent order (ppcheck rule `hash-collections`), and the
    /// ordered set keeps any future iteration over it deterministic.
    seen_states: Option<BTreeSet<usize>>,
    /// First parallel time with max active drag ≥ l (`drag_times`).
    drag_first: Option<Vec<Option<f64>>>,
    /// Epoch transitions: (parallel time, epoch value, actives).
    epoch_events: Vec<(f64, u32, Option<u64>)>,
    last_epoch: Option<u32>,
    /// `round_census` trace series.
    round_traces: Vec<Series>,
}

/// Names of the `round_census` trace series, in emission order.
const ROUND_SERIES: [&str; 7] = [
    "rc_active",
    "rc_passive",
    "rc_withdrawn",
    "rc_coins",
    "rc_junta",
    "rc_uninit",
    "rc_drag",
];

impl ObsAccum {
    fn new(obs: &Observables, params: Option<&Params>) -> Self {
        Self {
            seen_states: obs
                .contains(ObservableKind::ObservedStates)
                .then(BTreeSet::new),
            drag_first: (obs.contains(ObservableKind::DragTimes))
                .then(|| vec![None; params.map_or(0, |p| p.psi as usize) + 1]),
            epoch_events: Vec::new(),
            last_epoch: None,
            round_traces: if obs.contains(ObservableKind::RoundCensus) {
                ROUND_SERIES.map(Series::new).to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// Observe the configuration at one point — a round checkpoint
    /// (`on_grid`) or the stop point — from one [`Snapshot`] of it: the
    /// distinct-state set, the `round_census` traces (grid points only:
    /// their time axis is shared across trials), the first-hit drag times
    /// and, when epochs are observed, the epoch events.
    fn observe<S: Simulator>(
        &mut self,
        sim: &S,
        probe: &impl Probe<S>,
        obs: &Observables,
        snapshot: &mut Snapshot<S::State>,
        on_grid: bool,
    ) {
        let pt = sim.parallel_time();
        snapshot.take(sim, probe);
        if let Some(seen) = &mut self.seen_states {
            seen.extend(snapshot.ids.iter().copied());
        }
        let traces = on_grid && !self.round_traces.is_empty();
        let census =
            (traces || self.drag_first.is_some() || obs.contains(ObservableKind::EpochCandidates))
                .then(|| probe.census_of(&snapshot.counts))
                .flatten();
        if let (Some(c), true) = (&census, traces) {
            let params = probe.params().expect("census implies params");
            let junta = c.coins_at_least(params.phi) as f64;
            let drag = c.max_active_drag.map_or(-1.0, f64::from);
            for (series, v) in self.round_traces.iter_mut().zip([
                c.active as f64,
                c.passive as f64,
                c.withdrawn as f64,
                c.coins() as f64,
                junta,
                c.uninitialised() as f64,
                drag,
            ]) {
                series.push(pt, v);
            }
        }
        if let (Some(c), Some(first)) = (&census, &mut self.drag_first) {
            if let Some(d) = c.max_active_drag {
                for slot in first.iter_mut().take(d as usize + 1) {
                    slot.get_or_insert(pt);
                }
            }
        }
        if obs.needs_epochs() {
            let epoch = snapshot
                .counts
                .iter()
                .map(|&(s, _)| probe.epoch_of(s))
                .max()
                .flatten();
            if epoch != self.last_epoch {
                self.last_epoch = epoch;
                if let Some(v) = epoch {
                    self.epoch_events.push((pt, v, census.map(|c| c.active)));
                }
            }
        }
    }
}

/// Append `(name, value)` unless a metric of that name exists already
/// (overlapping observables — e.g. `census` + `level_sizes` — must not
/// emit duplicate keys).
fn push_metric(out: &mut Vec<(String, f64)>, name: String, value: f64) {
    if !out.iter().any(|(k, _)| *k == name) {
        out.push((name, value));
    }
}

/// Stop-scheduled census metrics for the selected observables.
fn census_metrics(
    obs: &Observables,
    census: &Census,
    params: &Params,
    out: &mut Vec<(String, f64)>,
) {
    if obs.contains(ObservableKind::Census) {
        push_metric(out, "zero".into(), census.zero as f64);
        push_metric(out, "x".into(), census.x as f64);
        push_metric(out, "deactivated".into(), census.d as f64);
        push_metric(out, "coins".into(), census.coins() as f64);
        push_metric(out, "inhibitors".into(), census.inhibitors() as f64);
        push_metric(out, "active".into(), census.active as f64);
        push_metric(out, "passive".into(), census.passive as f64);
        push_metric(out, "withdrawn".into(), census.withdrawn as f64);
        push_metric(out, "alive".into(), census.alive() as f64);
        for l in 0..=params.phi {
            push_metric(out, format!("coins_ge{l}"), census.coins_at_least(l) as f64);
        }
    }
    if obs.contains(ObservableKind::LevelSizes) {
        for l in 0..=params.phi {
            push_metric(out, format!("coins_ge{l}"), census.coins_at_least(l) as f64);
        }
    }
    if obs.contains(ObservableKind::JuntaSize) {
        push_metric(
            out,
            "junta".into(),
            census.coins_at_least(params.phi) as f64,
        );
    }
    if obs.contains(ObservableKind::DragHistogram) {
        for l in 0..=params.psi as usize {
            let ge: u64 = census.inhibitor_drags.iter().skip(l).sum();
            push_metric(out, format!("inhib_ge{l}"), ge as f64);
        }
    }
}

/// Whether a census-based stopping predicate holds.
fn census_stop_hit(stop: &StopCondition, census: &Census, sim_stable: bool) -> bool {
    match *stop {
        StopCondition::DragReached { level, .. } => {
            census.max_active_drag.is_some_and(|d| d >= level)
        }
        // The threshold only means anything once roles are settled: a
        // fresh population has zero actives *before any candidate
        // exists*, and would otherwise trivially stop at t = 0.
        StopCondition::ActivesBelow { count, .. } => {
            census.uninitialised() == 0 && census.active <= count
        }
        // Settled: stably elected, or terminally extinct (roles assigned,
        // every candidate withdrawn — no rule can ever create a leader).
        StopCondition::Settled { .. } => {
            sim_stable || (census.uninitialised() == 0 && census.alive() == 0)
        }
        _ => false,
    }
}

/// Drive one simulation to its stopping condition, recording the spec's
/// observables on their declared schedules.
///
/// The loop advances in segments bounded by the next round boundary (when
/// any round- or epoch-scheduled observable is active), the next
/// trajectory sample point, and the budget; within a segment the engine
/// runs under [`Simulator::steps_until`] with the stop condition as the
/// predicate. Stopping times are therefore **exact first hits for every
/// stop condition** — `stabilize:`, `drag:`, `active:` and `settled:`
/// alike — on every engine: the batched urn probes at block granularity
/// and rewinds/replays its interaction trace to the exact hit, per-step
/// engines check after every interaction. (Before the exact batch engine,
/// census-based stops were quantised to the round grid; no mode quantises
/// any more.) Round-scheduled observables still sample on the round grid;
/// the stop point is observed too — the first-hit (`drag_times`),
/// epoch-event and `observed_states` accumulators — but not the
/// `round_census` traces, whose time axis must stay on the shared grid.
pub(crate) fn drive<S: Simulator>(
    sim: &mut S,
    shape: &RunShape,
    probe: &impl Probe<S>,
) -> TrialOutcome {
    let n = sim.population();
    let obs = shape.observables;
    let rounds_on = obs.needs_rounds() || obs.needs_epochs();
    let round_step = ((shape.round_every * (n as f64).log2() * n as f64) as u64).max(1);
    let budget = (shape.stop.budget_pt() * n as f64) as u64;

    let mut accum = ObsAccum::new(obs, probe.params());
    let mut sample_traces: Vec<Series> = Vec::new();
    let mut sample_idx = 0usize;
    let mut stopped = false;

    // The stopping predicate handed to `steps_until`. Census-based stops
    // take a census at every check: after every interaction on `agent`
    // and `urn` (and on `urn-batched` below its batching cutoff), else at
    // every block end and every replayed pair. A census walks all n agents
    // on `AgentSim` but only the occupied states on `UrnSim`, which is why
    // large-n census-stop specs belong on an urn engine.
    let mut stop_pred = |s: &S| -> bool {
        match shape.stop {
            StopCondition::Stabilize { .. } => s.is_stably_elected(),
            StopCondition::Horizon { .. } => false,
            _ => probe
                .census(s)
                .is_some_and(|c| census_stop_hit(&shape.stop, &c, s.is_stably_elected())),
        }
    };

    // Reused by every observation point of the trial; allocates only when
    // round or epoch observables are on.
    let mut snapshot = Snapshot::new();

    // The k = 0 boundary: observe the initial configuration too.
    if rounds_on {
        accum.observe(sim, probe, obs, &mut snapshot, true);
    }
    if stop_pred(sim) {
        stopped = true;
    }

    while !stopped && sim.interactions() < budget {
        let next_round = if rounds_on {
            (sim.interactions() / round_step + 1).saturating_mul(round_step)
        } else {
            u64::MAX
        };
        let next_sample = shape
            .sample_at
            .get(sample_idx)
            .map_or(u64::MAX, |&t| (t * n as f64) as u64);
        let target = next_round.min(next_sample).min(budget);

        if sim.steps_until(target - sim.interactions(), &shape.policy, &mut stop_pred) {
            stopped = true;
            break;
        }

        if rounds_on && sim.interactions() == next_round {
            accum.observe(sim, probe, obs, &mut snapshot, true);
        }
        if sim.interactions() == next_sample {
            let mut row = vec![
                ("leaders".to_string(), sim.leaders() as f64),
                ("undecided".to_string(), sim.undecided() as f64),
            ];
            if let (Some(c), Some(p)) = (probe.census(sim), probe.params()) {
                census_metrics(obs, &c, p, &mut row);
            }
            if sample_traces.is_empty() {
                sample_traces = row
                    .iter()
                    .map(|(name, _)| Series::new(name.clone()))
                    .collect();
            }
            let pt = sim.parallel_time();
            for (series, &(_, v)) in sample_traces.iter_mut().zip(&row) {
                series.push(pt, v);
            }
            sample_idx += 1;
        }
    }

    let converged = match shape.stop {
        StopCondition::Horizon { .. } => true,
        _ => stopped,
    };

    // The stop (or budget-exhaustion) point is observed too, off the grid:
    // exact stops land between round boundaries, a `drag:` stop must
    // report `drag_ge{level}_pt` equal to its own exact stopping time, and
    // `observed_states` counts the final configuration. `round_census`
    // traces are *not* extended here — their time axis must stay on the
    // grid shared across trials.
    if rounds_on {
        accum.observe(sim, probe, obs, &mut snapshot, false);
    }

    // Stop-point metrics: the always-on core set, then each selected
    // observable's contribution in canonical registry order.
    let mut metrics = vec![
        ("time".to_string(), sim.parallel_time()),
        ("interactions".to_string(), sim.interactions() as f64),
        ("leaders".to_string(), sim.leaders() as f64),
        ("undecided".to_string(), sim.undecided() as f64),
    ];
    if let (Some(c), Some(p)) = (probe.census(sim), probe.params()) {
        census_metrics(obs, &c, p, &mut metrics);
    }
    if let Some(first) = &accum.drag_first {
        for (l, slot) in first.iter().enumerate() {
            if let Some(pt) = slot {
                push_metric(&mut metrics, format!("drag_ge{l}_pt"), *pt);
            }
        }
    }
    for (k, &(pt, val, actives)) in accum.epoch_events.iter().enumerate() {
        if obs.contains(ObservableKind::EpochCandidates) {
            push_metric(&mut metrics, format!("epoch{k}_pt"), pt);
            push_metric(&mut metrics, format!("epoch{k}_val"), val as f64);
            if let Some(a) = actives {
                push_metric(&mut metrics, format!("epoch{k}_active"), a as f64);
            }
        }
        if obs.contains(ObservableKind::EpochTimes) {
            push_metric(&mut metrics, format!("round{k}_pt"), pt);
            // The raw reported value too: consumers of *wrapping* epoch
            // counters (the clock's mod-16 rounds) need it to weight the
            // gap between events by the number of rounds it spans.
            push_metric(&mut metrics, format!("round{k}_val"), val as f64);
        }
    }
    if let Some(seen) = &accum.seen_states {
        push_metric(&mut metrics, "observed_states".into(), seen.len() as f64);
    }

    let mut traces = sample_traces;
    traces.extend(accum.round_traces);
    TrialOutcome {
        converged,
        metrics,
        traces,
    }
}
