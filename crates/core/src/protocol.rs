//! The assembled GSU19 protocol: one deterministic transition function
//! composing the clock, the partition, the coin race, the inhibitor
//! machinery, the leader elimination rules and the slow backup.

use components::clock::{Clock, ClockTick};
use components::junta::LevelRace;
use ppsim::{CompiledProtocol, EnumerableProtocol, FactoredProtocol, Output, Protocol};

use crate::coins;
use crate::inhibitors::{self, InhibitorFields};
use crate::init;
use crate::leaders::{self, LeaderFields};
use crate::params::Params;
use crate::state::{AgentState, Role, StateCodec};

/// The leader-election protocol of the paper. Implements
/// [`ppsim::Protocol`] (for [`ppsim::AgentSim`]) and
/// [`ppsim::EnumerableProtocol`] (for [`ppsim::UrnSim`]).
#[derive(Clone, Copy, Debug)]
pub struct Gsu19 {
    params: Params,
    clock: Clock,
    race: LevelRace,
    codec: StateCodec,
}

impl Gsu19 {
    /// Build an instance from explicit parameters.
    pub fn new(params: Params) -> Self {
        Self {
            params,
            clock: Clock::new(params.gamma),
            race: LevelRace::new(params.phi),
            codec: StateCodec::new(params),
        }
    }

    /// Build an instance tuned for a population of size `n`.
    pub fn for_population(n: u64) -> Self {
        Self::new(Params::for_population(n))
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The phase clock of this instance.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Junta membership: coins at the level cap Φ.
    pub fn is_junta(&self, role: &Role) -> bool {
        matches!(role, Role::C { level, .. } if self.race.is_junta(*level))
    }

    /// Compile this instance into dense transition tables (see
    /// [`ppsim::compiled`]): the clock update, junta checks and role rules
    /// are replayed from `u32` lookup tables, which makes the
    /// [`ppsim::AgentSim`] hot loop several times faster and cuts the
    /// per-bucket cost of the batched urn path. Only the small phase and
    /// per-bucket tables are built here; each role entry is probed the
    /// first time an interaction looks it up.
    pub fn compiled(self) -> CompiledProtocol<Gsu19> {
        CompiledProtocol::new(self)
    }
}

impl Protocol for Gsu19 {
    type State = AgentState;

    fn initial_state(&self) -> AgentState {
        AgentState::initial()
    }

    fn transition(&self, r: AgentState, i: AgentState) -> (AgentState, AgentState) {
        // 1. Clock: the responder's phase updates; junta members tick.
        let tick = self.clock.update(self.is_junta(&r.role), r.phase, i.phase);

        let mut r_new = AgentState {
            role: r.role,
            phase: tick.phase,
        };
        let mut i_new = i;

        // 2. Role rules for the responder (and the partition rules, which
        //    assign both agents).
        match r.role {
            Role::Zero | Role::X => {
                if tick.passed_zero && init::deactivates_on_pass(&r.role) {
                    // Rule (2): stragglers freeze at the end of round 1.
                    r_new.role = Role::D;
                } else if let Some((rr, ii)) = init::partition(&self.params, &r.role, &i.role) {
                    r_new.role = rr;
                    i_new.role = ii;
                }
            }
            Role::D => {}
            Role::C { level, advancing } => {
                let (level, advancing) =
                    coins::update_responder(&self.race, level, advancing, &i.role);
                r_new.role = Role::C { level, advancing };
            }
            Role::I {
                drag,
                advancing,
                high,
                started,
            } => {
                let f = inhibitors::update_responder(
                    &self.params,
                    &self.clock,
                    tick,
                    InhibitorFields {
                        drag,
                        advancing,
                        high,
                        started,
                    },
                    &i.role,
                );
                r_new.role = Role::I {
                    drag: f.drag,
                    advancing: f.advancing,
                    high: f.high,
                    started: f.started,
                };
            }
            Role::L { .. } => {
                let f = LeaderFields::of(&r.role).expect("leader role");
                let f = leaders::update_responder(&self.params, &self.clock, tick, f, &i.role);
                r_new.role = f.into_role();
            }
        }

        // 3. Rule (11), the slow backup: two alive candidates duel; the
        //    junior withdraws. Uses the post-update responder so that an
        //    agent passivated this very interaction duels with its new
        //    (lower) seniority.
        if self.params.enable_backup {
            if let (Some(rf), Some(if_)) =
                (LeaderFields::of(&r_new.role), LeaderFields::of(&i_new.role))
            {
                if rf.is_alive() && if_.is_alive() {
                    let (rf, if_) = leaders::backup_duel(&self.params, rf, if_);
                    r_new.role = rf.into_role();
                    i_new.role = if_.into_role();
                }
            }
        }

        (r_new, i_new)
    }

    fn output(&self, s: AgentState) -> Output {
        match s.role {
            Role::L { .. } if s.is_alive_leader() => Output::Leader,
            // `0`/`X` block the stabilisation predicate until roles are
            // settled; everything else is a follower (Section 8's output
            // mapping).
            Role::Zero | Role::X => Output::Undecided,
            _ => Output::Follower,
        }
    }

    /// Epochs are the fast-elimination countdown: a leader with counter
    /// `cnt` is `cnt_init − cnt` epochs in (0 = the initial partition
    /// epoch, `cnt_init` = the final elimination epoch). Non-leader states
    /// carry no epoch information. The countdown is lockstep across the
    /// leader sub-population (pinned by `countdown_reaches_zero_in_lockstep`
    /// in `tests/epochs.rs`), so the population maximum of `epoch_of` is
    /// the epoch the configuration has entered.
    fn epoch_of(&self, s: AgentState) -> Option<u32> {
        match s.role {
            Role::L { cnt, .. } => Some(self.params.cnt_init().saturating_sub(cnt) as u32),
            _ => None,
        }
    }
}

impl EnumerableProtocol for Gsu19 {
    fn num_states(&self) -> usize {
        self.codec.num_states()
    }

    fn state_id(&self, s: AgentState) -> usize {
        self.codec.encode(s)
    }

    fn state_from_id(&self, id: usize) -> AgentState {
        self.codec.decode(id)
    }
}

/// The factorisation contract behind [`ppsim::CompiledProtocol`].
///
/// The GSU19 transition satisfies it by construction: the codec lays ids
/// out as `role_index · Γ + phase`; the clock update reads only
/// (junta membership, the two phases) and never touches the initiator's
/// phase; and every role rule observes the clock only through the
/// `passed_zero` / `early→` / `late→` gates — pure functions of the
/// responder's (old phase, new phase) pair.
impl FactoredProtocol for Gsu19 {
    fn phase_count(&self) -> usize {
        self.params.gamma as usize
    }

    fn phase_class_count(&self) -> usize {
        2
    }

    fn phase_class(&self, bucket: usize) -> usize {
        // Bucket = role index; phase 0 representative decodes the role.
        let role = self.codec.decode(bucket * self.params.gamma as usize).role;
        self.is_junta(&role) as usize
    }

    fn tick_class_count(&self) -> usize {
        4
    }

    fn tick_class(&self, old_phase: usize, new_phase: usize) -> usize {
        // Reconstruct the tick exactly as `Clock::update` computes it,
        // through the clock's own wrap predicate.
        let (old, new) = (old_phase as u16, new_phase as u16);
        let tick = ClockTick {
            old_phase: old,
            phase: new,
            passed_zero: self.clock.passed_zero(old, new),
        };
        if tick.passed_zero {
            0
        } else if self.clock.is_early(tick) {
            1
        } else if self.clock.is_late(tick) {
            2
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use ppsim::{run_until_stable, AgentSim, Simulator};

    #[test]
    fn enumeration_roundtrips() {
        let proto = Gsu19::for_population(1 << 10);
        for id in (0..proto.num_states()).step_by(7) {
            let s = proto.state_from_id(id);
            assert_eq!(proto.state_id(s), id);
        }
    }

    #[test]
    fn partition_settles_into_expected_fractions() {
        let n = 1u64 << 12;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 7);
        // Run well past the first round.
        sim.steps(300 * n);
        let c = Census::of(&sim, &params);
        assert_eq!(c.uninitialised(), 0, "stragglers not deactivated");
        let nf = n as f64;
        let coins = c.coins() as f64 / nf;
        let inh = c.inhibitors() as f64 / nf;
        let lead = c.leaders() as f64 / nf;
        assert!((coins - 0.25).abs() < 0.05, "coins fraction {coins}");
        assert!((inh - 0.25).abs() < 0.05, "inhibitor fraction {inh}");
        assert!((lead - 0.5).abs() < 0.07, "leader fraction {lead}");
        // Deactivated stragglers are a o(1) fraction (Lemma 4.1).
        assert!((c.d as f64) < nf * 0.1, "too many deactivated: {}", c.d);
    }

    #[test]
    fn junta_is_nonempty_and_small() {
        let n = 1u64 << 12;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 11);
        sim.steps(300 * n);
        let c = Census::of(&sim, &params);
        let junta = c.coin_levels[params.phi as usize];
        assert!(junta > 0, "no junta");
        assert!((junta as f64) < (n as f64).powf(0.85), "junta {junta}");
    }

    #[test]
    fn always_at_least_one_alive_candidate() {
        // Lemma 8.1, tested along a trajectory: once the first leader is
        // created the alive count never hits zero.
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 13);
        let mut seen_leader = false;
        for _ in 0..2000 {
            sim.steps(n / 2);
            let c = Census::of(&sim, &params);
            if c.alive() > 0 {
                seen_leader = true;
            }
            if seen_leader {
                assert!(c.alive() >= 1, "all candidates eliminated");
            }
        }
        assert!(seen_leader);
    }

    #[test]
    fn elects_a_unique_leader() {
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let mut sim = AgentSim::new(proto, n as usize, 17);
        let res = run_until_stable(&mut sim, 20_000 * n);
        assert!(
            res.converged,
            "no convergence in {} interactions",
            20_000 * n
        );
        assert_eq!(sim.leaders(), 1);
        assert_eq!(sim.undecided(), 0);
    }

    #[test]
    fn election_is_stable_after_convergence() {
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let mut sim = AgentSim::new(proto, n as usize, 19);
        let res = run_until_stable(&mut sim, 20_000 * n);
        assert!(res.converged);
        // Keep running: the unique-leader configuration must persist.
        for _ in 0..50 {
            sim.steps(n);
            assert_eq!(sim.leaders(), 1, "leader count changed after stabilisation");
        }
    }

    #[test]
    fn multiple_seeds_all_converge() {
        let n = 1u64 << 9;
        for seed in 0..8u64 {
            let proto = Gsu19::for_population(n);
            let mut sim = AgentSim::new(proto, n as usize, 100 + seed);
            let res = run_until_stable(&mut sim, 40_000 * n);
            assert!(res.converged, "seed {seed} did not converge");
            assert_eq!(sim.leaders(), 1, "seed {seed}");
        }
    }

    #[test]
    fn compiled_transition_matches_dynamic_on_sampled_pairs() {
        let proto = Gsu19::for_population(1 << 10);
        let c = proto.compiled();
        let s = proto.num_states();
        let (mut r, mut i) = (0usize, 1usize);
        for _ in 0..20_000 {
            r = (r + 131) % s;
            i = (i + 257) % s;
            let (rs, is) = (proto.state_from_id(r), proto.state_from_id(i));
            let (dr, di) = proto.transition(rs, is);
            let (cr, ci) = c.transition(c.encode_state(rs), c.encode_state(is));
            assert_eq!(c.decode_state(cr), dr, "responder at ({rs:?}, {is:?})");
            assert_eq!(c.decode_state(ci), di, "initiator at ({rs:?}, {is:?})");
        }
    }

    #[test]
    fn compiled_elects_a_unique_leader() {
        let n = 1u64 << 10;
        let c = Gsu19::for_population(n).compiled();
        let mut sim = AgentSim::new(c.clone(), n as usize, 17);
        let res = run_until_stable(&mut sim, 20_000 * n);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        assert_eq!(sim.undecided(), 0);
        // Census via decoded states matches the simulator's own counters.
        let params = *c.inner().params();
        let census = Census::of_with(&sim, &params, |s| c.decode_state(s));
        assert_eq!(census.total(), n);
        assert_eq!(census.alive(), 1);
    }

    #[test]
    fn urn_and_agent_agree_on_structure() {
        use ppsim::UrnSim;
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut urn = UrnSim::new(proto, n, 23);
        urn.steps(300 * n);
        let c = Census::of(&urn, &params);
        assert_eq!(c.total(), n);
        assert_eq!(c.uninitialised(), 0);
        let coins = c.coins() as f64 / n as f64;
        assert!((coins - 0.25).abs() < 0.06, "urn coins fraction {coins}");
    }

    #[test]
    fn fast_elimination_reduces_actives_to_polylog() {
        let n = 1u64 << 12;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 29);
        // Run until the leaders reach the final epoch (max_cnt = 0) or a
        // generous budget expires.
        let mut c = Census::of(&sim, &params);
        let budget = 6_000 * n;
        while sim.interactions() < budget {
            sim.steps(10 * n);
            c = Census::of(&sim, &params);
            if c.max_cnt == Some(0) {
                break;
            }
        }
        assert_eq!(c.max_cnt, Some(0), "fast elimination never completed");
        let bound = 40.0 * (n as f64).log2();
        assert!(
            (c.active as f64) < bound,
            "actives after fast elimination: {} (bound {bound})",
            c.active
        );
        assert!(c.active >= 1);
    }
}
