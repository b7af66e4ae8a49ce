//! Configuration census: aggregate observables used by the experiments
//! (figure trajectories, lemma validations). Computed from any simulator
//! via [`ppsim::Simulator::for_each_state`] — O(population) on `AgentSim`,
//! O(occupied states) on `UrnSim` — or with [`Census::of_counts`] from a
//! configuration already folded into (state, multiplicity) pairs, in
//! O(pairs).

use ppsim::Simulator;

use crate::params::Params;
use crate::state::{AgentState, LeaderMode, Role};

/// Aggregate counts of one configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Census {
    /// Agents still in state `0`.
    pub zero: u64,
    /// Agents in the intermediate state `X`.
    pub x: u64,
    /// Deactivated agents.
    pub d: u64,
    /// Coins at exactly level ℓ (index ℓ).
    pub coin_levels: Vec<u64>,
    /// Coins still advancing in the race.
    pub coins_advancing: u64,
    /// Inhibitors at exactly drag ℓ (index ℓ).
    pub inhibitor_drags: Vec<u64>,
    /// High inhibitors at exactly drag ℓ (index ℓ).
    pub inhibitor_high: Vec<u64>,
    /// Inhibitors still determining their drag.
    pub inhibitors_advancing: u64,
    /// Active leader candidates (mode `A`).
    pub active: u64,
    /// Passive candidates (mode `P`).
    pub passive: u64,
    /// Withdrawn candidates (mode `W`).
    pub withdrawn: u64,
    /// Largest drag among alive candidates, if any.
    pub max_alive_drag: Option<u8>,
    /// Largest drag among *active* candidates, if any (drives the
    /// Figure 3 / Lemma 7.2 tick-gap measurements: only actives can earn
    /// new drag values through rule (10)).
    pub max_active_drag: Option<u8>,
    /// Largest fast-elimination counter among leaders (tracks the round the
    /// leaders believe they are in), if any.
    pub max_cnt: Option<u8>,
}

impl Census {
    /// Take a census of the current configuration.
    pub fn of<S: Simulator<State = AgentState>>(sim: &S, params: &Params) -> Self {
        Self::of_with(sim, params, |s| s)
    }

    /// Take a census of a simulator whose states need decoding first —
    /// e.g. the packed `u32` ids of a [`ppsim::CompiledProtocol`] (decode
    /// with [`ppsim::CompiledProtocol::decode_state`]).
    pub fn of_with<S: Simulator>(
        sim: &S,
        params: &Params,
        decode: impl Fn(S::State) -> AgentState,
    ) -> Self {
        let mut c = Census::empty(params);
        sim.for_each_state(&mut |s, k| c.add(decode(s), k));
        c
    }

    /// Take a census of a configuration given as (state, multiplicity)
    /// pairs. A state may occur in several pairs; the order of the pairs
    /// does not matter.
    pub fn of_counts(params: &Params, counts: impl IntoIterator<Item = (AgentState, u64)>) -> Self {
        let mut c = Census::empty(params);
        for (s, k) in counts {
            c.add(s, k);
        }
        c
    }

    /// The census of an empty configuration.
    fn empty(params: &Params) -> Self {
        Census {
            coin_levels: vec![0; params.phi as usize + 1],
            inhibitor_drags: vec![0; params.psi as usize + 1],
            inhibitor_high: vec![0; params.psi as usize + 1],
            ..Census::default()
        }
    }

    /// Count `k` more agents in state `s`.
    fn add(&mut self, s: AgentState, k: u64) {
        match s.role {
            Role::Zero => self.zero += k,
            Role::X => self.x += k,
            Role::D => self.d += k,
            Role::C { level, advancing } => {
                self.coin_levels[level as usize] += k;
                if advancing {
                    self.coins_advancing += k;
                }
            }
            Role::I {
                drag,
                advancing,
                high,
                ..
            } => {
                self.inhibitor_drags[drag as usize] += k;
                if high {
                    self.inhibitor_high[drag as usize] += k;
                }
                if advancing {
                    self.inhibitors_advancing += k;
                }
            }
            Role::L {
                mode, cnt, drag, ..
            } => {
                match mode {
                    LeaderMode::A => self.active += k,
                    LeaderMode::P => self.passive += k,
                    LeaderMode::W => self.withdrawn += k,
                }
                if mode != LeaderMode::W {
                    self.max_alive_drag = Some(self.max_alive_drag.map_or(drag, |m| m.max(drag)));
                }
                if mode == LeaderMode::A {
                    self.max_active_drag = Some(self.max_active_drag.map_or(drag, |m| m.max(drag)));
                }
                self.max_cnt = Some(self.max_cnt.map_or(cnt, |m| m.max(cnt)));
            }
        }
    }

    /// Total coins (any level).
    pub fn coins(&self) -> u64 {
        self.coin_levels.iter().sum()
    }

    /// Total inhibitors (any drag).
    pub fn inhibitors(&self) -> u64 {
        self.inhibitor_drags.iter().sum()
    }

    /// Total leader candidates, alive or withdrawn.
    pub fn leaders(&self) -> u64 {
        self.active + self.passive + self.withdrawn
    }

    /// Alive candidates (mapped to the leader output).
    pub fn alive(&self) -> u64 {
        self.active + self.passive
    }

    /// Coins at level ≥ ℓ — the paper's `C_ℓ` (Section 5).
    pub fn coins_at_least(&self, level: u8) -> u64 {
        self.coin_levels.iter().skip(level as usize).sum()
    }

    /// Agents not yet committed to a role.
    pub fn uninitialised(&self) -> u64 {
        self.zero + self.x
    }

    /// Total population accounted for (sanity checks).
    pub fn total(&self) -> u64 {
        self.zero + self.x + self.d + self.coins() + self.inhibitors() + self.leaders()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Gsu19;
    use ppsim::{AgentSim, EnumerableProtocol};

    #[test]
    fn census_of_initial_configuration() {
        let proto = Gsu19::for_population(1 << 10);
        let params = *proto.params();
        let sim = AgentSim::new(proto, 1 << 10, 1);
        let c = Census::of(&sim, &params);
        assert_eq!(c.zero, 1 << 10);
        assert_eq!(c.total(), 1 << 10);
        assert_eq!(c.alive(), 0);
        assert_eq!(c.max_alive_drag, None);
    }

    /// Fold a configuration into its distinct (state, multiplicity)
    /// pairs, by state id.
    fn fold<P: EnumerableProtocol>(proto: &P, states: &[P::State]) -> Vec<(P::State, u64)> {
        let mut counts = vec![0u64; proto.num_states()];
        for &s in states {
            counts[proto.state_id(s)] += 1;
        }
        (0..counts.len())
            .filter(|&id| counts[id] > 0)
            .map(|id| (proto.state_from_id(id), counts[id]))
            .collect()
    }

    #[test]
    fn census_of_counts_matches_a_census_of_the_simulator() {
        use ppsim::{Simulator, UrnSim};
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();

        // Mid-run, every role is present.
        let mut plain = AgentSim::new(proto, n as usize, 5);
        plain.steps(40 * n);
        let reference = Census::of(&plain, &params);
        assert!(
            reference.coins() > 0 && reference.inhibitors() > 0 && reference.alive() > 0,
            "{reference:?}"
        );
        assert_eq!(
            Census::of_counts(&params, fold(&proto, plain.states())),
            reference
        );
        // One pair per agent: repeated states add up.
        assert_eq!(
            Census::of_counts(&params, plain.states().iter().map(|&s| (s, 1))),
            reference
        );

        // Compiled: pairs of packed ids, decoded one per pair.
        let compiled = proto.compiled();
        let mut packed = AgentSim::new(compiled.clone(), n as usize, 5);
        packed.steps(40 * n);
        let decoded = fold(&compiled, packed.states())
            .into_iter()
            .map(|(s, k)| (compiled.decode_state(s), k));
        assert_eq!(
            Census::of_counts(&params, decoded),
            Census::of_with(&packed, &params, |s| compiled.decode_state(s))
        );

        let mut urn = UrnSim::new(proto, n, 5);
        urn.steps(40 * n);
        assert_eq!(
            Census::of_counts(&params, urn.nonzero_counts()),
            Census::of(&urn, &params)
        );
    }

    #[test]
    fn census_conserves_population_during_run() {
        use ppsim::Simulator;
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, 3);
        for _ in 0..20 {
            sim.steps(n);
            let c = Census::of(&sim, &params);
            assert_eq!(c.total(), n);
        }
    }
}
