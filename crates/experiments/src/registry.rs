//! Protocol registry: one place that knows every protocol of the study,
//! how to construct it for a population (including ablation variants,
//! parameter overrides and synthetic initial configurations), which
//! protocols run on compiled transition tables, and how to start one
//! trial of it on any engine.
//!
//! The gsu19 family and gs18 share the GSU19 substrate and run on its
//! `ppsim::compiled` tables on every engine: one `Runnable` arm compiles
//! `Gsu19` under the kind's parameters (gs18's come from
//! `Gs18::for_population`). Spec validation rejects overrides past the
//! bucket packing or the phase-table ceiling (such as `phi = 32, psi = 32`
//! or `gamma = 4098`) first, whatever `compiled` says; `compiled = true`
//! only insists that every protocol has tables.
//!
//! Adding a protocol means extending [`ProtocolKind`] and the private
//! `Runnable` here, and every consumer (CLI, presets, benches) picks it
//! up. A trial builds its simulator in `run_one` and hands it, with the
//! spec and the protocol, to the one trial driver (`observe::drive`). The
//! substrate's arm of `Runnable::run` also hands over the GSU19 codec
//! (`observe::Gsu`) that every census and the synthetic initial
//! configuration go through.

use baselines::{gsu_direct_withdrawal, gsu_no_backup, gsu_no_drag, Bkko18, Gs18, SlowLe};
use components::clock_protocol::ClockProtocol;
use core_protocol::{gamma_for, synthetic, AgentState, Gsu19, Params};
use ppsim::compiled::table_dims;
use ppsim::rng::split_seed;
use ppsim::trace::Series;
use ppsim::{batched_block, AgentSim, CompiledProtocol, EnumerableProtocol, UrnSim};

use crate::observe::{drive, Gsu};
use crate::spec::{EngineKind, ExperimentSpec};

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
    /// everything a GSU19 [`Census`](core_protocol::Census) applies to.
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

/// GSU19-substrate parameters of `kind` (the gsu19 family or gs18) for
/// one grid point, with the spec's overrides applied (validation keeps
/// them off gs18).
fn gsu_params(kind: ProtocolKind, n: u64, spec: &ExperimentSpec) -> Params {
    let mut p = match kind {
        ProtocolKind::Gsu19 => Params::for_population(n),
        ProtocolKind::Gsu19NoDrag => *gsu_no_drag(n).params(),
        ProtocolKind::Gsu19NoBackup => *gsu_no_backup(n).params(),
        ProtocolKind::Gsu19Direct => *gsu_direct_withdrawal(n).params(),
        ProtocolKind::Gs18 => *Gs18::for_population(n).params(),
        _ => unreachable!("gsu_params called off the GSU19 substrate"),
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
/// spec's parameter overrides, fit the table packing and the phase-table
/// ceiling ([`table_dims`]). The validator calls it for every config, so
/// `Runnable::build` can compile unconditionally.
pub(crate) fn check_compiled_dims(
    kind: ProtocolKind,
    n: u64,
    spec: &ExperimentSpec,
) -> Result<(), String> {
    // Derived parameters always fit: `gamma_for` clamps Γ to at most 128,
    // and Φ ≤ 19, Ψ ≤ 12 keep B under 10 000. Only overrides can leave
    // the tables.
    if !kind.supports_compiled() || (spec.gamma, spec.phi, spec.psi) == (0, 0, 0) {
        return Ok(());
    }
    let p = Gsu19::new(gsu_params(kind, n, spec));
    table_dims(&p).map(|_| ()).map_err(|e| {
        format!(
            "'{}' at n = {n} (Γ = {}) does not fit the compiled transition tables: {e}",
            kind.name(),
            p.params().gamma
        )
    })
}

/// A protocol instantiated for one population, ready to run trials.
/// Clones of a compiled protocol share its tables, so the trials of one
/// config, on any thread, fill one set of role entries as they first
/// look them up.
pub(crate) enum Runnable {
    /// The GSU19 substrate on compiled tables: the gsu19 family and gs18.
    Gsu19(CompiledProtocol<Gsu19>),
    Bkko18(Bkko18),
    Slow(SlowLe),
    Clock(ClockProtocol),
}

impl Runnable {
    /// Instantiate `kind` for population `n` with the spec's parameter
    /// overrides. The gsu19 family and gs18 compile their tables here.
    ///
    /// Precondition: `spec` passed [`ExperimentSpec::validate`], which
    /// rejects overrides the protocol does not take and tables that do
    /// not fit; `CompiledProtocol::new` panics on the latter.
    pub fn build(kind: ProtocolKind, n: u64, spec: &ExperimentSpec) -> Self {
        match kind {
            ProtocolKind::Gsu19
            | ProtocolKind::Gsu19NoDrag
            | ProtocolKind::Gsu19NoBackup
            | ProtocolKind::Gsu19Direct
            | ProtocolKind::Gs18 => {
                Runnable::Gsu19(Gsu19::new(gsu_params(kind, n, spec)).compiled())
            }
            ProtocolKind::Bkko18 => Runnable::Bkko18(Bkko18::for_population(n)),
            ProtocolKind::Slow => Runnable::Slow(SlowLe),
            ProtocolKind::Clock => Runnable::Clock(ClockProtocol::new(
                n,
                if spec.gamma == 0 {
                    gamma_for(n)
                } else {
                    spec.gamma
                },
            )),
        }
    }

    /// Run one trial of `spec` at population `n` from the trial seed
    /// `seed`. The substrate's arm builds the trial's [`Gsu`] (census
    /// decoder and synthetic-init encoder); the spec validator guarantees
    /// census-needing observables/stops and synthetic inits only reach
    /// the gsu19 family.
    pub fn run(&self, n: u64, seed: u64, spec: &ExperimentSpec) -> TrialOutcome {
        match self {
            Runnable::Gsu19(p) => {
                let gsu = Gsu {
                    params: *p.inner().params(),
                    decode: |s| p.decode_state(s),
                    encode: |s| p.encode_state(s),
                };
                run_one(p, n, seed, spec, Some(&gsu))
            }
            Runnable::Bkko18(p) => run_one(p, n, seed, spec, NoGsu::None),
            Runnable::Slow(p) => run_one(p, n, seed, spec, NoGsu::None),
            Runnable::Clock(p) => run_one(p, n, seed, spec, NoGsu::None),
        }
    }
}

/// The `gsu` of a protocol off the GSU19 substrate: no census and no
/// synthetic init.
type NoGsu<'a, St> = Option<&'a Gsu<fn(St) -> AgentState, fn(AgentState) -> St>>;

/// Seed stream tag for synthetic initial configurations (`split_seed`).
const INIT_STREAM: u64 = 0x1717;

/// Run one trial of `proto` on the spec's engine.
///
/// A gsu19-family trial with a synthetic `spec.init` starts from
/// `final_epoch_config`, drawn from a seed stream split off the trial
/// seed (so init randomness is independent of the scheduler stream and
/// every trial replays bit-identically from its `(seed, config, trial)`
/// address); every other trial starts from the protocol's initial state.
/// The agent engine collects the drawn states in agent order; the urn
/// folds them straight into its counts, bucketing by dense state id, so
/// it never holds one state per agent.
fn run_one<P, D, E>(
    proto: &P,
    n: u64,
    seed: u64,
    spec: &ExperimentSpec,
    gsu: Option<&Gsu<D, E>>,
) -> TrialOutcome
where
    P: EnumerableProtocol + Clone,
    D: Fn(P::State) -> AgentState,
    E: Fn(AgentState) -> P::State,
{
    let init = gsu.and_then(|g| {
        let k = spec.init.actives_for(n)?;
        let states = synthetic::final_epoch_config(&g.params, n, k, split_seed(seed, INIT_STREAM));
        Some(states.map(&g.encode))
    });
    match spec.engine {
        EngineKind::Agent => {
            let mut sim = match init {
                Some(states) => AgentSim::with_states(proto.clone(), states.collect(), seed),
                None => AgentSim::new(proto.clone(), n as usize, seed),
            };
            drive(&mut sim, spec, proto, gsu)
        }
        EngineKind::UrnBatched => {
            let sim = match init {
                Some(states) => {
                    let mut counts = vec![0u64; proto.num_states()];
                    for s in states {
                        counts[proto.state_id(s)] += 1;
                    }
                    let counts: Vec<_> = (counts.into_iter().enumerate())
                        .filter(|&(_, c)| c > 0)
                        .map(|(id, c)| (proto.state_from_id(id), c))
                        .collect();
                    UrnSim::with_counts(proto.clone(), &counts, seed)
                }
                None => UrnSim::new(proto.clone(), n, seed),
            };
            drive(&mut sim.with_block(batched_block(n)), spec, proto, gsu)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ObservableKind, Observables};
    use crate::spec::{InitConfig, StopCondition};

    /// A gsu19 spec on the agent engine with `stop` and the `observables`
    /// (a spec value).
    fn spec(stop: StopCondition, observables: &str) -> ExperimentSpec {
        ExperimentSpec {
            stop,
            observables: Observables::parse(observables).unwrap(),
            ..gsu_spec()
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
    fn build_applies_overrides_on_the_compiled_substrate() {
        let mut spec = gsu_spec();
        spec.gamma = 32;
        spec.phi = 2;
        let Runnable::Gsu19(p) = Runnable::build(ProtocolKind::Gsu19, 1 << 10, &spec) else {
            panic!("expected the compiled substrate");
        };
        assert_eq!(p.inner().params().gamma, 32);
        assert_eq!(p.inner().params().phi, 2);
        // Ablation kinds and gs18 carry their flags through the registry.
        let params = |kind| match Runnable::build(kind, 1 << 10, &gsu_spec()) {
            Runnable::Gsu19(p) => *p.inner().params(),
            _ => panic!("expected the compiled substrate for {kind:?}"),
        };
        assert!(!params(ProtocolKind::Gsu19NoDrag).enable_drag);
        assert_eq!(
            params(ProtocolKind::Gs18),
            *Gs18::for_population(1 << 10).params()
        );
    }

    #[test]
    fn derived_parameters_fit_the_tables_at_every_n() {
        // `check_compiled_dims` skips specs without overrides on this
        // ground, so every population a spec can name must fit.
        let ns = (4..64)
            .map(|e| 1u64 << e)
            .chain([17, 1000, 3 << 40, u64::MAX]);
        for n in ns {
            for kind in ProtocolKind::ALL
                .into_iter()
                .filter(|k| k.supports_compiled())
            {
                let p = Gsu19::new(gsu_params(kind, n, &gsu_spec()));
                let dims = table_dims(&p);
                assert!(dims.is_ok(), "{kind:?} at n = {n}: {dims:?}");
            }
        }
    }

    #[test]
    fn gs18_on_the_substrate_matches_its_own_compiled_tables() {
        // The substrate arm compiles `Gsu19` under gs18's parameters and
        // hands over the GSU19 codec. `Gs18`'s own tables, run without a
        // codec, must give the same records bit for bit, on the per-step
        // agent engine and on the batched urn, with `observed_states`
        // counting packed ids.
        for (engine, n) in [(EngineKind::Agent, 512u64), (EngineKind::UrnBatched, 4096)] {
            let sp = ExperimentSpec {
                protocols: vec![ProtocolKind::Gs18],
                engine,
                round_every: 0.5,
                ..spec(
                    StopCondition::Stabilize { budget_pt: 40000.0 },
                    "observed_states",
                )
            };
            sp.validate().unwrap();
            let own = Gs18::for_population(n).compiled();
            let substrate = Runnable::build(ProtocolKind::Gs18, n, &sp);
            for seed in [3, 4] {
                let reference = run_one(&own, n, seed, &sp, NoGsu::None);
                assert!(reference.converged, "{engine:?} n = {n}");
                assert!(reference.metric("observed_states").unwrap() > 2.0);
                assert_eq!(substrate.run(n, seed, &sp), reference, "{engine:?} n = {n}");
            }
        }
    }

    #[test]
    fn stabilize_outcome_has_core_metrics() {
        let sp = spec(
            StopCondition::Stabilize {
                budget_pt: 10_000.0,
            },
            "core",
        );
        let r = Runnable::build(ProtocolKind::Slow, 64, &sp);
        let out = r.run(64, 1, &sp);
        assert!(out.converged);
        assert_eq!(out.metric("leaders"), Some(1.0));
        assert_eq!(out.metric("undecided"), Some(0.0));
        assert!(out.metric("time").unwrap() > 0.0);
        assert!(out.traces.is_empty());
    }

    #[test]
    fn horizon_outcome_samples_traces() {
        let sp = ExperimentSpec {
            engine: EngineKind::UrnBatched,
            sample_at: vec![1.0, 2.0, 4.0],
            ..spec(StopCondition::Horizon { at_pt: 4.0 }, "census")
        };
        let r = Runnable::build(ProtocolKind::Gsu19, 256, &sp);
        let out = r.run(256, 3, &sp);
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
        let sp = spec(
            StopCondition::Horizon { at_pt: 64.0 },
            "round_census,observed_states",
        );
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &sp);
        let a = r.run(n, 5, &sp);
        let b = r.run(n, 9, &sp);
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
        let sp = spec(
            StopCondition::Stabilize {
                budget_pt: 40_000.0,
            },
            "epoch_candidates",
        );
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &sp);
        let out = r.run(n, 12, &sp);
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
        let sp = spec(
            StopCondition::DragReached {
                level: 1,
                budget_pt: 60_000.0,
            },
            "drag_times",
        );
        let n = 512u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &sp);
        let out = r.run(n, 13, &sp);
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
        let sp = spec(
            StopCondition::ActivesBelow {
                count: 1,
                budget_pt: 40_000.0,
            },
            "core",
        );
        let n = 256u64;
        let r = Runnable::build(ProtocolKind::Gsu19, n, &sp);
        let out = r.run(n, 7, &sp);
        assert!(out.converged);
        assert!(
            out.metric("time").unwrap() > 0.0,
            "stop fired on the fresh configuration"
        );
        assert_eq!(out.metric("undecided"), Some(0.0), "roles must be settled");
    }

    #[test]
    fn synthetic_init_starts_in_the_final_epoch() {
        let n = 512u64;
        let sp = ExperimentSpec {
            init: InitConfig::FinalEpoch {
                k: 4,
                times_log2: true,
            },
            ..spec(
                StopCondition::ActivesBelow {
                    count: 1,
                    budget_pt: 40_000.0,
                },
                "census",
            )
        };
        let r = Runnable::build(ProtocolKind::Gsu19, n, &sp);
        let out = r.run(n, 17, &sp);
        assert!(out.converged, "never got down to one active");
        assert_eq!(out.metric("active"), Some(1.0));
        // The same trial replays bit-identically (init seed is derived).
        let again = r.run(n, 17, &sp);
        assert_eq!(out, again);
    }

    #[test]
    fn compiled_census_decodes_states() {
        // Compiled and dynamic trajectories are bit-identical, so every
        // observable must read the same through packed ids as through codec
        // ids — fed one entry per agent (`agent`) or one per occupied state
        // (`urn-batched`). The registry compiles gsu19, so the dynamic
        // reference runs `run_one` on `Gsu19` itself.
        let census = Observables::parse("census").unwrap();
        let all = Observables::of(ObservableKind::ALL.to_vec());
        let stabilize = StopCondition::Stabilize { budget_pt: 40000.0 };
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
            let sp = ExperimentSpec {
                engine,
                stop,
                observables: obs.clone(),
                round_every,
                ..gsu_spec()
            };
            let proto = Gsu19::for_population(n);
            let gsu = Gsu {
                params: *proto.params(),
                decode: |s| s,
                encode: |s| s,
            };
            let dynamic = run_one(&proto, n, 9, &sp, Some(&gsu));
            let compiled = Runnable::build(ProtocolKind::Gsu19, n, &sp);
            assert!(dynamic.converged, "{engine:?} n = {n}");
            assert_eq!(dynamic, compiled.run(n, 9, &sp), "{engine:?} n = {n}");
        }
    }

    #[test]
    fn clock_epoch_times_track_rounds() {
        let sp = spec(StopCondition::Horizon { at_pt: 400.0 }, "epoch_times");
        let n = 512u64;
        let r = Runnable::build(ProtocolKind::Clock, n, &sp);
        let out = r.run(n, 19, &sp);
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
