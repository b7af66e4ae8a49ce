//! Protocol registry: one place that knows every protocol of the study,
//! how to construct it for a population (including ablation variants,
//! parameter overrides and synthetic initial configurations), whether it
//! can be compiled, and how to drive one trial of it on any engine.
//!
//! This replaces the protocol `match` arms that used to be duplicated
//! across `ppctl`, the benches and the examples — adding a protocol means
//! extending [`ProtocolKind`] and the private `Runnable` here, and every
//! consumer (CLI, presets, benches) picks it up.

use baselines::{gsu_direct_withdrawal, gsu_no_backup, gsu_no_drag, Bkko18, Gs18, SlowLe};
use components::clock_protocol::ClockProtocol;
use core_protocol::{gamma_for, synthetic, AgentState, Census, Gsu19, Params};
use ppsim::compiled::table_dims;
use ppsim::rng::split_seed;
use ppsim::trace::Series;
use ppsim::{AgentSim, CompiledProtocol, EnumerableProtocol, Simulator, UrnSim};

use crate::observe::{drive, Probe, RunShape, INIT_STREAM};
use crate::spec::{EngineKind, ExperimentSpec, InitConfig};

/// The protocols this repository can run, by CLI/spec name.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ProtocolKind {
    /// The paper's protocol (GSU19).
    Gsu19,
    /// GSU19 without the drag/inhibitor machinery (rules (8)–(10) off).
    Gsu19NoDrag,
    /// GSU19 without the slow backup (rule (11) off).
    Gsu19NoBackup,
    /// GSU19 with direct withdrawal (tails-drawers skip passive mode —
    /// fast whp but not Las Vegas).
    Gsu19Direct,
    /// GS18-style baseline: junta clock, fair-ish coins, no cascade/drag.
    Gs18,
    /// BKKO18-style baseline: interaction-counter clock, parity coins.
    Bkko18,
    /// The 2-state AAD+04 protocol.
    Slow,
    /// The junta-driven phase clock in isolation
    /// (`components::clock_protocol`) — epochs are its round counter.
    Clock,
}

impl ProtocolKind {
    /// Every registered protocol, in canonical order.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::Gsu19,
        ProtocolKind::Gsu19NoDrag,
        ProtocolKind::Gsu19NoBackup,
        ProtocolKind::Gsu19Direct,
        ProtocolKind::Gs18,
        ProtocolKind::Bkko18,
        ProtocolKind::Slow,
        ProtocolKind::Clock,
    ];

    /// Parse a CLI/spec protocol name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Canonical name (inverse of [`ProtocolKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Gsu19 => "gsu19",
            ProtocolKind::Gsu19NoDrag => "gsu19-no-drag",
            ProtocolKind::Gsu19NoBackup => "gsu19-no-backup",
            ProtocolKind::Gsu19Direct => "gsu19-direct",
            ProtocolKind::Gs18 => "gs18",
            ProtocolKind::Bkko18 => "bkko18",
            ProtocolKind::Slow => "slow",
            ProtocolKind::Clock => "clock",
        }
    }

    /// Whether this is the paper's protocol or one of its ablations —
    /// everything a GSU19 [`Census`] applies to.
    pub fn is_gsu_family(self) -> bool {
        matches!(
            self,
            ProtocolKind::Gsu19
                | ProtocolKind::Gsu19NoDrag
                | ProtocolKind::Gsu19NoBackup
                | ProtocolKind::Gsu19Direct
        )
    }

    /// Whether `ppsim::compiled` transition tables exist for it.
    pub fn supports_compiled(self) -> bool {
        self.is_gsu_family() || self == ProtocolKind::Gs18
    }

    /// Whether the GSU19 census observables apply.
    pub fn supports_census(self) -> bool {
        self.is_gsu_family()
    }

    /// Whether the protocol reports epochs (`Protocol::epoch_of`): the
    /// gsu19 family's fast-elimination countdown, the clock's rounds.
    pub fn reports_epochs(self) -> bool {
        self.is_gsu_family() || self == ProtocolKind::Clock
    }

    /// Size of the enumerated state space at population `n`.
    pub fn num_states(self, n: u64) -> usize {
        match self {
            k if k.is_gsu_family() => Gsu19::for_population(n).num_states(),
            ProtocolKind::Gs18 => Gs18::for_population(n).num_states(),
            ProtocolKind::Bkko18 => Bkko18::for_population(n).num_states(),
            ProtocolKind::Slow => SlowLe.num_states(),
            ProtocolKind::Clock => ClockProtocol::new(n, gamma_for(n)).num_states(),
            _ => unreachable!("gsu family handled above"),
        }
    }

    /// The paper's asymptotic bounds, for comparison tables.
    pub fn paper_bounds(self) -> &'static str {
        match self {
            ProtocolKind::Gsu19 => "O(log log n) states, O(log n·log log n) expected",
            ProtocolKind::Gsu19NoDrag => "ablation: no drag counter (heavy cleanup tail)",
            ProtocolKind::Gsu19NoBackup => "ablation: no rule (11) duels",
            ProtocolKind::Gsu19Direct => "ablation: direct withdrawal (not Las Vegas)",
            ProtocolKind::Gs18 => "O(log log n) states, O(log² n) whp",
            ProtocolKind::Bkko18 => "O(log n) states, O(log² n) whp",
            ProtocolKind::Slow => "O(1) states, O(n) expected",
            ProtocolKind::Clock => "component: Theorem 3.2 phase clock",
        }
    }
}

/// Raw result of one trial before the engine attaches provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Whether the stopping predicate fired within the budget (always
    /// `true` for horizon runs).
    pub converged: bool,
    /// Named scalar metrics at the stopping point, in a fixed order.
    pub metrics: Vec<(String, f64)>,
    /// Per-trial trajectories: one series per sampled metric
    /// (`sample_at`), plus the `rc_*` series of the `round_census`
    /// observable; x-axis is parallel time.
    pub traces: Vec<Series>,
}

impl TrialOutcome {
    /// Value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// No-census probe for protocols outside the gsu19 family; carries the
/// protocol for state-id enumeration (`observed_states`).
pub(crate) struct CoreProbe<P>(P);

impl<P, S> Probe<S> for CoreProbe<P>
where
    P: EnumerableProtocol,
    S: Simulator<State = P::State>,
{
    fn census(&self, _sim: &S) -> Option<Census> {
        None
    }
    fn census_of(&self, _counts: &[(S::State, u64)]) -> Option<Census> {
        None
    }
    fn params(&self) -> Option<&Params> {
        None
    }
    fn state_id(&self, s: S::State) -> usize {
        self.0.state_id(s)
    }
    fn epoch_of(&self, s: S::State) -> Option<u32> {
        self.0.epoch_of(s)
    }
}

/// Protocols whose states decode to a GSU19 [`AgentState`], so a census
/// can be taken: the plain protocol (identity) and its compiled form
/// (packed-id decode).
pub(crate) trait GsuDecode: EnumerableProtocol {
    fn gsu_params(&self) -> Params;
    fn decode_gsu(&self, s: Self::State) -> AgentState;
    fn encode_gsu(&self, s: AgentState) -> Self::State;
}

impl GsuDecode for Gsu19 {
    fn gsu_params(&self) -> Params {
        *self.params()
    }
    fn decode_gsu(&self, s: AgentState) -> AgentState {
        s
    }
    fn encode_gsu(&self, s: AgentState) -> AgentState {
        s
    }
}

impl GsuDecode for CompiledProtocol<Gsu19> {
    fn gsu_params(&self) -> Params {
        *self.inner().params()
    }
    fn decode_gsu(&self, s: u32) -> AgentState {
        self.decode_state(s)
    }
    fn encode_gsu(&self, s: AgentState) -> u32 {
        self.encode_state(s)
    }
}

/// Census probe for the gsu19 family (plain or compiled).
pub(crate) struct CensusProbe<P: GsuDecode> {
    proto: P,
    params: Params,
}

impl<P: GsuDecode> CensusProbe<P> {
    fn new(proto: P) -> Self {
        let params = proto.gsu_params();
        Self { proto, params }
    }
}

impl<P: GsuDecode, S: Simulator<State = P::State>> Probe<S> for CensusProbe<P> {
    fn census(&self, sim: &S) -> Option<Census> {
        Some(Census::of_with(sim, &self.params, |s| {
            self.proto.decode_gsu(s)
        }))
    }
    fn census_of(&self, counts: &[(S::State, u64)]) -> Option<Census> {
        Some(Census::of_counts(
            &self.params,
            counts.iter().map(|&(s, k)| (self.proto.decode_gsu(s), k)),
        ))
    }
    fn params(&self) -> Option<&Params> {
        Some(&self.params)
    }
    fn state_id(&self, s: S::State) -> usize {
        self.proto.state_id(s)
    }
    fn epoch_of(&self, s: S::State) -> Option<u32> {
        self.proto.epoch_of(s)
    }
}

/// GSU19 parameters for one grid point, with the spec's overrides
/// applied.
fn gsu_params(kind: ProtocolKind, n: u64, spec: &ExperimentSpec) -> Params {
    let mut p = match kind {
        ProtocolKind::Gsu19 => Params::for_population(n),
        ProtocolKind::Gsu19NoDrag => *gsu_no_drag(n).params(),
        ProtocolKind::Gsu19NoBackup => *gsu_no_backup(n).params(),
        ProtocolKind::Gsu19Direct => *gsu_direct_withdrawal(n).params(),
        _ => unreachable!("gsu_params called for a non-gsu protocol"),
    };
    if spec.gamma != 0 {
        p.gamma = spec.gamma;
    }
    if spec.phi != 0 {
        p.phi = spec.phi;
    }
    if spec.psi != 0 {
        p.psi = spec.psi;
    }
    p
}

/// Check that `kind`'s compiled tables at population `n`, under the
/// spec's parameter overrides, fit the table packing and entry ceiling
/// ([`table_dims`]). `CompiledProtocol::new` asserts the same check, so
/// the validator calls this first to turn an oversized override into a
/// usage error.
pub(crate) fn check_compiled_dims(
    kind: ProtocolKind,
    n: u64,
    spec: &ExperimentSpec,
) -> Result<(), String> {
    let (checked, gamma) = match kind {
        k if k.is_gsu_family() => {
            let p = Gsu19::new(gsu_params(k, n, spec));
            (table_dims(&p), p.params().gamma)
        }
        ProtocolKind::Gs18 => {
            let p = Gs18::for_population(n);
            (table_dims(&p), p.params().gamma)
        }
        _ => return Ok(()),
    };
    checked.map(|_| ()).map_err(|e| {
        format!(
            "compiled = true: '{}' at n = {n} (Γ = {gamma}) cannot be compiled: {e}; \
             run it with compiled = false",
            kind.name()
        )
    })
}

/// A protocol instantiated for one population, ready to run trials.
/// Clones of a compiled protocol share its tables, so the trials of one
/// config, on any thread, fill one set of role entries as they first
/// look them up.
pub(crate) enum Runnable {
    Gsu19(Gsu19),
    Gs18(Gs18),
    Bkko18(Bkko18),
    Slow(SlowLe),
    Clock(ClockProtocol),
    CompiledGsu19(CompiledProtocol<Gsu19>),
    CompiledGs18(CompiledProtocol<Gs18>),
}

impl Runnable {
    /// Instantiate `kind` for population `n` with the spec's compiled
    /// flag and parameter overrides (the spec validator has already
    /// checked support).
    pub fn build(kind: ProtocolKind, n: u64, spec: &ExperimentSpec) -> Result<Self, String> {
        Ok(match (kind, spec.compiled) {
            (k, false) if k.is_gsu_family() => Runnable::Gsu19(Gsu19::new(gsu_params(k, n, spec))),
            (k, true) if k.is_gsu_family() => {
                Runnable::CompiledGsu19(Gsu19::new(gsu_params(k, n, spec)).compiled())
            }
            (ProtocolKind::Gs18, false) => Runnable::Gs18(Gs18::for_population(n)),
            (ProtocolKind::Gs18, true) => {
                Runnable::CompiledGs18(Gs18::for_population(n).compiled())
            }
            (ProtocolKind::Bkko18, false) => Runnable::Bkko18(Bkko18::for_population(n)),
            (ProtocolKind::Slow, false) => Runnable::Slow(SlowLe),
            (ProtocolKind::Clock, false) => Runnable::Clock(ClockProtocol::new(
                n,
                if spec.gamma == 0 {
                    gamma_for(n)
                } else {
                    spec.gamma
                },
            )),
            (kind, true) => {
                return Err(format!(
                    "protocol '{}' has no compiled tables (gsu19 family | gs18 only)",
                    kind.name()
                ))
            }
            // Guarded arms don't count toward exhaustiveness; every
            // uncompiled kind is in fact handled above.
            (kind, false) => unreachable!("uncompiled '{}' handled above", kind.name()),
        })
    }

    /// Run one trial. The spec validator guarantees census-needing
    /// observables/stops and synthetic inits only reach gsu19 variants.
    pub fn run(&self, n: u64, seed: u64, shape: &RunShape, init: &InitConfig) -> TrialOutcome {
        let census = shape.observables.needs_census()
            || shape.observables.needs_epochs()
            || shape.stop.needs_census();
        match self {
            Runnable::Gsu19(p) => {
                let states = init_states(p, n, seed, init);
                if census {
                    run_one(*p, n, seed, shape, &CensusProbe::new(*p), states)
                } else {
                    run_one(*p, n, seed, shape, &CoreProbe(*p), states)
                }
            }
            Runnable::CompiledGsu19(p) => {
                let states = init_states(p, n, seed, init);
                if census {
                    run_one(
                        p.clone(),
                        n,
                        seed,
                        shape,
                        &CensusProbe::new(p.clone()),
                        states,
                    )
                } else {
                    run_one(p.clone(), n, seed, shape, &CoreProbe(p.clone()), states)
                }
            }
            Runnable::Gs18(p) => run_one(*p, n, seed, shape, &CoreProbe(*p), None),
            Runnable::CompiledGs18(p) => {
                run_one(p.clone(), n, seed, shape, &CoreProbe(p.clone()), None)
            }
            Runnable::Bkko18(p) => run_one(*p, n, seed, shape, &CoreProbe(*p), None),
            Runnable::Slow(p) => run_one(*p, n, seed, shape, &CoreProbe(*p), None),
            Runnable::Clock(p) => run_one(*p, n, seed, shape, &CoreProbe(*p), None),
        }
    }
}

/// Synthetic initial states for a trial, drawn from a seed stream split
/// off the trial seed (so init randomness is independent of the
/// scheduler stream and every trial replays bit-identically from its
/// `(seed, config, trial)` address).
fn init_states<P: GsuDecode>(
    proto: &P,
    n: u64,
    seed: u64,
    init: &InitConfig,
) -> Option<Vec<P::State>> {
    let k = init.actives_for(n)?;
    let params = proto.gsu_params();
    Some(
        synthetic::final_epoch_config(&params, n, k, split_seed(seed, INIT_STREAM))
            .into_iter()
            .map(|s| proto.encode_gsu(s))
            .collect(),
    )
}

/// Fold explicit states into `(state, multiplicity)` pairs for
/// [`UrnSim::with_counts`], bucketing by dense state id.
fn states_to_counts<P: EnumerableProtocol>(proto: &P, states: &[P::State]) -> Vec<(P::State, u64)> {
    let mut counts = vec![0u64; proto.num_states()];
    for &s in states {
        counts[proto.state_id(s)] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(id, c)| (proto.state_from_id(id), c))
        .collect()
}

fn run_one<P, B>(
    proto: P,
    n: u64,
    seed: u64,
    shape: &RunShape,
    probe: &B,
    states: Option<Vec<P::State>>,
) -> TrialOutcome
where
    P: EnumerableProtocol,
    B: Probe<AgentSim<P>> + Probe<UrnSim<P>>,
{
    match shape.engine {
        EngineKind::Agent => {
            let mut sim = match states {
                Some(states) => AgentSim::with_states(proto, states, seed),
                None => AgentSim::new(proto, n as usize, seed),
            };
            drive(&mut sim, shape, probe)
        }
        EngineKind::Urn | EngineKind::UrnBatched => {
            let mut sim = match states {
                Some(states) => {
                    let counts = states_to_counts(&proto, &states);
                    UrnSim::with_counts(proto, &counts, seed)
                }
                None => UrnSim::new(proto, n, seed),
            };
            drive(&mut sim, shape, probe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ObservableKind, Observables};
    use crate::spec::StopCondition;
    use ppsim::BatchPolicy;

    fn shape<'a>(
        stop: StopCondition,
        observables: &'a Observables,
        sample_at: &'a [f64],
    ) -> RunShape<'a> {
        RunShape {
            engine: EngineKind::Agent,
            policy: BatchPolicy::PerStep,
            stop,
            sample_at,
            observables,
            round_every: 1.0,
        }
    }

    fn gsu_spec() -> ExperimentSpec {
        ExperimentSpec {
            protocols: vec![ProtocolKind::Gsu19],
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("gsu20"), None);
    }

    #[test]
    fn capability_flags() {
        assert!(ProtocolKind::Gsu19.supports_compiled());
        assert!(ProtocolKind::Gsu19NoDrag.supports_compiled());
        assert!(ProtocolKind::Gs18.supports_compiled());
        assert!(!ProtocolKind::Bkko18.supports_compiled());
        assert!(!ProtocolKind::Clock.supports_compiled());
        assert!(ProtocolKind::Gsu19.supports_census());
        assert!(ProtocolKind::Gsu19Direct.supports_census());
        assert!(!ProtocolKind::Gs18.supports_census());
        assert!(ProtocolKind::Gsu19.reports_epochs());
        assert!(ProtocolKind::Clock.reports_epochs());
        assert!(!ProtocolKind::Slow.reports_epochs());
    }

    #[test]
    fn num_states_matches_direct_construction() {
        assert_eq!(ProtocolKind::Slow.num_states(128), 2);
        assert_eq!(
            ProtocolKind::Gsu19.num_states(1 << 10),
            Gsu19::for_population(1 << 10).num_states()
        );
        assert!(ProtocolKind::Clock.num_states(1 << 10) > 0);
    }

    #[test]
    fn build_rejects_uncompilable_and_applies_overrides() {
        let mut spec = gsu_spec();
        spec.compiled = true;
        assert!(Runnable::build(ProtocolKind::Bkko18, 64, &spec).is_err());
        assert!(Runnable::build(ProtocolKind::Gsu19, 64, &spec).is_ok());
        spec.compiled = false;
        spec.gamma = 32;
        spec.phi = 2;
        match Runnable::build(ProtocolKind::Gsu19, 1 << 10, &spec).unwrap() {
            Runnable::Gsu19(p) => {
                assert_eq!(p.params().gamma, 32);
                assert_eq!(p.params().phi, 2);
            }
            _ => panic!("expected a dynamic gsu19"),
        }
        // Ablation kinds carry their flags through the registry.
        match Runnable::build(ProtocolKind::Gsu19NoDrag, 1 << 10, &gsu_spec()).unwrap() {
            Runnable::Gsu19(p) => assert!(!p.params().enable_drag),
            _ => panic!("expected a dynamic gsu19 variant"),
        }
    }

    #[test]
    fn stabilize_outcome_has_core_metrics() {
        let obs = Observables::none();
        let shape = shape(
            StopCondition::Stabilize {
                budget_pt: 10_000.0,
            },
            &obs,
            &[],
        );
        let r = Runnable::build(ProtocolKind::Slow, 64, &ExperimentSpec::default()).unwrap();
        let out = r.run(64, 1, &shape, &InitConfig::Fresh);
        assert!(out.converged);
        assert_eq!(out.metric("leaders"), Some(1.0));
        assert_eq!(out.metric("undecided"), Some(0.0));
        assert!(out.metric("time").unwrap() > 0.0);
        assert!(out.traces.is_empty());
    }

    #[test]
    fn horizon_outcome_samples_traces() {
        let obs = Observables::parse("census").unwrap();
        let sample_at = [1.0, 2.0, 4.0];
        let mut sh = shape(StopCondition::Horizon { at_pt: 4.0 }, &obs, &sample_at);
        sh.engine = EngineKind::Urn;
        let r = Runnable::build(ProtocolKind::Gsu19, 256, &gsu_spec()).unwrap();
        let out = r.run(256, 3, &sh, &InitConfig::Fresh);
        assert!(out.converged);
        assert!(out.metric("coins_ge0").is_some());
        assert_eq!(out.metric("interactions"), Some(1024.0));
        assert!(!out.traces.is_empty());
        assert!(out.traces.iter().all(|s| s.len() == 3));
        let leaders = out.traces.iter().find(|s| s.name == "leaders").unwrap();
        assert_eq!(leaders.t, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn round_census_traces_share_the_grid_across_trials() {
        let obs = Observables::parse("round_census,observed_states").unwrap();
        let sh = shape(StopCondition::Horizon { at_pt: 64.0 }, &obs, &[]);
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &gsu_spec()).unwrap();
        let a = r.run(n, 5, &sh, &InitConfig::Fresh);
        let b = r.run(n, 9, &sh, &InitConfig::Fresh);
        let series_a = a.traces.iter().find(|s| s.name == "rc_active").unwrap();
        let series_b = b.traces.iter().find(|s| s.name == "rc_active").unwrap();
        // Boundaries at k·n·log₂ n are deterministic: identical time axes.
        assert_eq!(series_a.t, series_b.t);
        // 64 pt horizon, log₂ 256 = 8 → boundaries at 0, 8, …, 64.
        assert_eq!(series_a.len(), 9);
        assert!(a.metric("observed_states").unwrap() > 2.0);
    }

    #[test]
    fn epoch_observables_record_the_countdown() {
        let obs = Observables::parse("epoch_candidates").unwrap();
        let sh = shape(
            StopCondition::Stabilize {
                budget_pt: 40_000.0,
            },
            &obs,
            &[],
        );
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &gsu_spec()).unwrap();
        let out = r.run(n, 12, &sh, &InitConfig::Fresh);
        assert!(out.converged);
        // At least the first epochs of the countdown were seen, values
        // ascending, with an active count recorded at each.
        let mut vals = Vec::new();
        let mut k = 0;
        while let Some(v) = out.metric(&format!("epoch{k}_val")) {
            assert!(out.metric(&format!("epoch{k}_pt")).is_some());
            assert!(out.metric(&format!("epoch{k}_active")).is_some());
            vals.push(v);
            k += 1;
        }
        assert!(vals.len() >= 3, "saw only {vals:?}");
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn drag_stop_reports_the_exact_first_hit() {
        let obs = Observables::parse("drag_times").unwrap();
        let sh = shape(
            StopCondition::DragReached {
                level: 1,
                budget_pt: 60_000.0,
            },
            &obs,
            &[],
        );
        let n = 512u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &gsu_spec()).unwrap();
        let out = r.run(n, 13, &sh, &InitConfig::Fresh);
        assert!(out.converged, "drag 1 not reached");
        let t1 = out.metric("drag_ge1_pt").expect("first drag-1 time");
        assert!(out.metric("drag_ge0_pt").unwrap() <= t1);
        // Exact first-hit stop: the stopping time IS the first time the
        // level was reached (the stop point feeds the drag accumulator).
        assert_eq!(out.metric("time"), Some(t1));
    }

    #[test]
    fn actives_below_does_not_fire_on_a_fresh_population() {
        // A fresh population has zero actives *before any candidate
        // exists*; the settled guard must keep the stop from trivially
        // firing at t = 0.
        let obs = Observables::none();
        let sh = shape(
            StopCondition::ActivesBelow {
                count: 1,
                budget_pt: 40_000.0,
            },
            &obs,
            &[],
        );
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &gsu_spec()).unwrap();
        let out = r.run(n, 7, &sh, &InitConfig::Fresh);
        assert!(out.converged);
        assert!(
            out.metric("time").unwrap() > 0.0,
            "stop fired on the fresh configuration"
        );
        assert_eq!(out.metric("undecided"), Some(0.0), "roles must be settled");
    }

    #[test]
    fn synthetic_init_starts_in_the_final_epoch() {
        let obs = Observables::parse("census").unwrap();
        let sh = shape(
            StopCondition::ActivesBelow {
                count: 1,
                budget_pt: 40_000.0,
            },
            &obs,
            &[],
        );
        let n = 512u64;
        let init = InitConfig::FinalEpoch {
            k: 4,
            times_log2: true,
        };
        let r = Runnable::build(ProtocolKind::Gsu19, n, &gsu_spec()).unwrap();
        let out = r.run(n, 17, &sh, &init);
        assert!(out.converged, "never got down to one active");
        assert_eq!(out.metric("active"), Some(1.0));
        // The same trial replays bit-identically (init seed is derived).
        let again = r.run(n, 17, &sh, &init);
        assert_eq!(out, again);
    }

    #[test]
    fn compiled_census_decodes_states() {
        // Compiled and plain trajectories are bit-identical, so every
        // observable must read the same through packed ids as through codec
        // ids — fed one entry per agent (`agent`) or one per occupied state
        // (`urn-batched`).
        let census = Observables::parse("census").unwrap();
        let all = Observables::of(ObservableKind::ALL.to_vec());
        let stabilize = StopCondition::Stabilize { budget_pt: 40000.0 };
        let mut spec = gsu_spec();
        for (engine, n, stop, obs, round_every) in [
            (
                EngineKind::Agent,
                256u64,
                StopCondition::Horizon { at_pt: 2.0 },
                &census,
                1.0,
            ),
            (EngineKind::Agent, 256, stabilize, &all, 0.5),
            (EngineKind::Agent, 512, stabilize, &all, 0.5),
            (EngineKind::UrnBatched, 4096, stabilize, &all, 0.5),
        ] {
            spec.engine = engine;
            let sh = RunShape {
                engine,
                policy: spec.batch_policy(),
                round_every,
                ..shape(stop, obs, &[])
            };
            spec.compiled = false;
            let plain = Runnable::build(ProtocolKind::Gsu19, n, &spec).unwrap();
            spec.compiled = true;
            let compiled = Runnable::build(ProtocolKind::Gsu19, n, &spec).unwrap();
            let a = plain.run(n, 9, &sh, &InitConfig::Fresh);
            assert!(a.converged, "{engine:?} n = {n}");
            assert_eq!(
                a,
                compiled.run(n, 9, &sh, &InitConfig::Fresh),
                "{engine:?} n = {n}"
            );
        }
    }

    #[test]
    fn clock_epoch_times_track_rounds() {
        let obs = Observables::parse("epoch_times").unwrap();
        let sh = shape(StopCondition::Horizon { at_pt: 400.0 }, &obs, &[]);
        let n = 512u64;
        let r = Runnable::build(ProtocolKind::Clock, n, &gsu_spec()).unwrap();
        let out = r.run(n, 19, &sh, &InitConfig::Fresh);
        // The clock ticks: several round events, at increasing times,
        // each carrying the reported (wrapping) counter value.
        let mut times = Vec::new();
        let mut k = 0;
        while let Some(t) = out.metric(&format!("round{k}_pt")) {
            assert!(
                out.metric(&format!("round{k}_val")).is_some(),
                "round event without its counter value"
            );
            times.push(t);
            k += 1;
        }
        assert!(times.len() >= 4, "clock barely ticked: {times:?}");
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }
}
