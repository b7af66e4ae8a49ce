//! Array-based simulator: one entry per agent.
//!
//! This is the workhorse engine. Each interaction costs two RNG draws, two
//! state loads, one transition evaluation and (when states change) an O(1)
//! update of the output counters.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{Protocol, Simulator, NUM_OUTPUTS};

/// Explicit-population simulator over protocol `P`.
///
/// Memory: `n * size_of::<P::State>()`. Use [`crate::UrnSim`] when the
/// population is too large to materialise.
pub struct AgentSim<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    rng: SmallRng,
    interactions: u64,
    output_counts: [u64; NUM_OUTPUTS],
}

impl<P: Protocol> AgentSim<P> {
    /// Create a population of `n` agents, all in the protocol's initial
    /// state, driven by a scheduler seeded with `seed`.
    ///
    /// # Panics
    /// Panics if `n < 2`: the scheduler needs a pair of distinct agents.
    pub fn new(protocol: P, n: usize, seed: u64) -> Self {
        assert!(n >= 2, "population must contain at least two agents");
        let init = protocol.initial_state();
        let mut output_counts = [0u64; NUM_OUTPUTS];
        output_counts[protocol.output(init) as usize] = n as u64;
        Self {
            protocol,
            states: vec![init; n],
            rng: SmallRng::seed_from_u64(seed),
            interactions: 0,
            output_counts,
        }
    }

    /// Create a population with an explicit initial configuration.
    ///
    /// The standard model starts all agents in the same state; this
    /// constructor exists to study protocol *components* in isolation (e.g.
    /// a one-way epidemic from a single infected agent, or a phase clock
    /// with a pre-elected junta).
    ///
    /// # Panics
    /// Panics if fewer than two states are supplied.
    pub fn with_states(protocol: P, states: Vec<P::State>, seed: u64) -> Self {
        assert!(
            states.len() >= 2,
            "population must contain at least two agents"
        );
        let mut output_counts = [0u64; NUM_OUTPUTS];
        for &s in &states {
            output_counts[protocol.output(s) as usize] += 1;
        }
        Self {
            protocol,
            states,
            rng: SmallRng::seed_from_u64(seed),
            interactions: 0,
            output_counts,
        }
    }

    /// Immutable view of the agent states (agent index → state).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The protocol instance driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The scheduler's RNG, shared with the perturbed schedulers of
    /// [`crate::adversary`], which choose pairs on top of this engine.
    pub(crate) fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    #[inline]
    fn sample_pair(&mut self) -> (usize, usize) {
        let n = self.states.len();
        let a = self.rng.gen_range(0..n);
        let mut b = self.rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        (a, b)
    }

    /// Run one interaction between agents `resp` (responder) and `init`
    /// (initiator), whichever scheduler chose them.
    // `interact` and `set_state` are always inlined, so `step` compiles to
    // one body as when it held this code itself; left to the compiler they
    // stayed calls, costing about 3% of CPU time on dynamic gsu19 trials.
    #[inline(always)]
    pub(crate) fn interact(&mut self, resp: usize, init: usize) {
        let (r_old, i_old) = (self.states[resp], self.states[init]);
        let (r_new, i_new) = self.protocol.transition(r_old, i_old);
        self.interactions += 1;
        self.set_state(resp, r_old, r_new);
        self.set_state(init, i_old, i_new);
    }

    /// Move agent `idx` from state `old` to `new`, keeping the output
    /// counters in step.
    #[inline(always)]
    fn set_state(&mut self, idx: usize, old: P::State, new: P::State) {
        if new != old {
            let o_old = self.protocol.output(old) as usize;
            let o_new = self.protocol.output(new) as usize;
            if o_old != o_new {
                self.output_counts[o_old] -= 1;
                self.output_counts[o_new] += 1;
            }
            self.states[idx] = new;
        }
    }
}

impl<P: Protocol> Simulator for AgentSim<P> {
    type State = P::State;

    fn population(&self) -> u64 {
        self.states.len() as u64
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    #[inline]
    fn step(&mut self) {
        let (resp, init) = self.sample_pair();
        self.interact(resp, init);
    }

    fn output_counts(&self) -> [u64; NUM_OUTPUTS] {
        self.output_counts
    }

    fn for_each_state(&self, f: &mut dyn FnMut(Self::State, u64)) {
        // Aggregation without requiring Hash on State: walk the array and
        // emit multiplicity 1 per agent.
        for &s in &self.states {
            f(s, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Output;
    use crate::runner::run_until_stable;

    struct Slow;
    impl Protocol for Slow {
        type State = bool;
        fn initial_state(&self) -> bool {
            true
        }
        fn transition(&self, r: bool, i: bool) -> (bool, bool) {
            if r && i {
                (true, false)
            } else {
                (r, i)
            }
        }
        fn output(&self, s: bool) -> Output {
            if s {
                Output::Leader
            } else {
                Output::Follower
            }
        }
    }

    /// Protocol that never changes state; used to check bookkeeping.
    struct Inert;
    impl Protocol for Inert {
        type State = u8;
        fn initial_state(&self) -> u8 {
            7
        }
        fn transition(&self, r: u8, i: u8) -> (u8, u8) {
            (r, i)
        }
        fn output(&self, _: u8) -> Output {
            Output::Undecided
        }
    }

    #[test]
    fn initial_counts_match_population() {
        let sim = AgentSim::new(Slow, 50, 1);
        assert_eq!(sim.population(), 50);
        assert_eq!(sim.leaders(), 50);
        assert_eq!(sim.output_counts()[Output::Follower as usize], 0);
        assert_eq!(sim.interactions(), 0);
    }

    #[test]
    fn slow_protocol_converges_to_single_leader() {
        let mut sim = AgentSim::new(Slow, 64, 42);
        let res = run_until_stable(&mut sim, 1_000_000);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        assert_eq!(sim.output_counts()[Output::Follower as usize], 63);
    }

    #[test]
    fn leader_count_is_monotone_nonincreasing_for_slow() {
        let mut sim = AgentSim::new(Slow, 128, 7);
        let mut prev = sim.leaders();
        for _ in 0..50_000 {
            sim.step();
            let cur = sim.leaders();
            assert!(cur <= prev, "leader count increased");
            prev = cur;
        }
    }

    #[test]
    fn inert_protocol_keeps_counts() {
        let mut sim = AgentSim::new(Inert, 16, 3);
        sim.steps(10_000);
        assert_eq!(sim.undecided(), 16);
        assert_eq!(sim.interactions(), 10_000);
    }

    #[test]
    fn parallel_time_is_interactions_over_n() {
        let mut sim = AgentSim::new(Inert, 10, 3);
        sim.steps(25);
        assert!((sim.parallel_time() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bulk_steps_match_single_steps_exactly() {
        // `steps` must be indistinguishable from repeated `step()`: same
        // RNG stream, same trajectory, same counters.
        let mut singles = AgentSim::new(Slow, 64, 33);
        let mut bulk = AgentSim::new(Slow, 64, 33);
        for _ in 0..5_000 {
            singles.step();
        }
        bulk.steps(5_000);
        assert_eq!(singles.states(), bulk.states());
        assert_eq!(singles.output_counts(), bulk.output_counts());
        assert_eq!(singles.interactions(), bulk.interactions());
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = AgentSim::new(Slow, 40, 9);
        let mut b = AgentSim::new(Slow, 40, 9);
        a.steps(5_000);
        b.steps(5_000);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = AgentSim::new(Slow, 40, 9);
        let mut b = AgentSim::new(Slow, 40, 10);
        a.steps(5_000);
        b.steps(5_000);
        // With overwhelming probability the trajectories differ.
        assert_ne!(a.states(), b.states());
    }

    #[test]
    fn pair_sampling_never_selects_same_agent() {
        // Exercise sample_pair through a protocol that would panic on a
        // self-interaction being visible: with n = 2 every interaction pairs
        // the two agents, so the slow protocol must fire on the first step.
        let mut sim = AgentSim::new(Slow, 2, 5);
        sim.step();
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn population_of_one_is_rejected() {
        let _ = AgentSim::new(Slow, 1, 0);
    }
}
