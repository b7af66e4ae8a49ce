//! Failure injection: adversarially perturbed schedulers.
//!
//! The probabilistic population model assumes a *uniform* random scheduler.
//! Correctness claims of Las Vegas protocols (like the paper's) are,
//! however, scheduling-independent: they only require fairness. This module
//! replaces the pair choice of an [`crate::AgentSim`] with schedulers that
//! are temporarily or persistently *unfair* in controlled ways, so tests
//! and experiments can probe what survives. Only the choice of pair
//! changes: the interaction, the RNG and the output counters are the
//! engine's own.
//!
//! * [`Blackout`] — a set of agents is unavailable during an interaction
//!   window (models crashed/partitioned agents that later return; while
//!   they are gone, phase clocks and epidemics run without them, producing
//!   exactly the "out-of-sync" configurations the paper's backup rule
//!   exists for).
//! * [`Throttle`] — a set of agents participates with reduced probability
//!   forever (models slow agents; a *persistent* non-uniformity under
//!   which the random-scheduler time bounds no longer apply, but
//!   stabilisation must still occur).
//!
//! Both keep the scheduler fair in the limit (every pair is selected
//! infinitely often once windows expire / since throttled agents retain
//! positive rates), so Las Vegas protocols must still stabilise.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::agent_sim::AgentSim;
use crate::protocol::{Protocol, Simulator, NUM_OUTPUTS};

/// A scheduling perturbation: decides, per interaction, which agents are
/// selectable.
pub trait Perturbation {
    /// Whether agent `idx` may take part in the interaction number `t`.
    fn available(&self, idx: usize, t: u64, rng: &mut SmallRng) -> bool;
}

/// Agents `0..k` are unavailable while `t` lies in `[from, until)`.
#[derive(Clone, Copy, Debug)]
pub struct Blackout {
    /// Number of agents affected (the first `k` indices).
    pub k: usize,
    /// First interaction of the blackout window.
    pub from: u64,
    /// First interaction after the blackout window.
    pub until: u64,
}

impl Perturbation for Blackout {
    #[inline]
    fn available(&self, idx: usize, t: u64, _rng: &mut SmallRng) -> bool {
        idx >= self.k || !(self.from..self.until).contains(&t)
    }
}

/// Agents `0..k` are selected with probability `rate` relative to the
/// rest, forever.
#[derive(Clone, Copy, Debug)]
pub struct Throttle {
    /// Number of agents affected (the first `k` indices).
    pub k: usize,
    /// Relative participation probability in `(0, 1]`.
    pub rate: f64,
}

impl Perturbation for Throttle {
    #[inline]
    fn available(&self, idx: usize, _t: u64, rng: &mut SmallRng) -> bool {
        idx >= self.k || rng.gen::<f64>() < self.rate
    }
}

/// An [`crate::AgentSim`] with a perturbed scheduler: pairs are drawn
/// uniformly from the engine's RNG, then re-drawn while either endpoint is
/// unavailable (rejection sampling — conditional uniformity over available
/// pairs). The interaction itself is the engine's.
pub struct AdversarialSim<P: Protocol, V: Perturbation> {
    sim: AgentSim<P>,
    perturbation: V,
}

impl<P: Protocol, V: Perturbation> AdversarialSim<P, V> {
    /// Create a perturbed population of `n` agents in the initial state.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn new(protocol: P, perturbation: V, n: usize, seed: u64) -> Self {
        Self {
            sim: AgentSim::new(protocol, n, seed),
            perturbation,
        }
    }

    /// Immutable view of the agent states.
    pub fn states(&self) -> &[P::State] {
        self.sim.states()
    }

    fn sample_available(&mut self) -> usize {
        let n = self.sim.states().len();
        let t = self.sim.interactions();
        let rng = self.sim.rng();
        // Rejection sampling; the perturbations guarantee at least the
        // unaffected agents are always available, so this terminates.
        loop {
            let idx = rng.gen_range(0..n);
            if self.perturbation.available(idx, t, rng) {
                return idx;
            }
        }
    }
}

impl<P: Protocol, V: Perturbation> Simulator for AdversarialSim<P, V> {
    type State = P::State;

    fn population(&self) -> u64 {
        self.sim.population()
    }

    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    fn step(&mut self) {
        let resp = self.sample_available();
        let init = loop {
            let j = self.sample_available();
            if j != resp {
                break j;
            }
        };
        self.sim.interact(resp, init);
    }

    fn output_counts(&self) -> [u64; NUM_OUTPUTS] {
        self.sim.output_counts()
    }

    fn for_each_state(&self, f: &mut dyn FnMut(Self::State, u64)) {
        self.sim.for_each_state(f)
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

    #[test]
    fn blackout_excludes_agents_during_window() {
        let blackout = Blackout {
            k: 8,
            from: 0,
            until: 50_000,
        };
        let mut sim = AdversarialSim::new(Slow, blackout, 64, 1);
        sim.steps(50_000);
        // The blacked-out agents never interacted: all still candidates.
        assert!(sim.states()[..8].iter().all(|&s| s));
        // The rest has thinned dramatically.
        let rest = sim.states()[8..].iter().filter(|&&s| s).count();
        assert!(rest < 8, "rest did not thin: {rest}");
    }

    #[test]
    fn blackout_population_still_stabilises_after_window() {
        let blackout = Blackout {
            k: 8,
            from: 0,
            until: 20_000,
        };
        let mut sim = AdversarialSim::new(Slow, blackout, 64, 2);
        let res = run_until_stable(&mut sim, 10_000_000);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn throttle_keeps_all_agents_fair() {
        let throttle = Throttle { k: 16, rate: 0.05 };
        let mut sim = AdversarialSim::new(Slow, throttle, 64, 3);
        let res = run_until_stable(&mut sim, 50_000_000);
        assert!(res.converged, "throttled population did not stabilise");
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn unperturbed_matches_uniform_behaviour() {
        // A zero-size blackout is the uniform scheduler.
        let none = Blackout {
            k: 0,
            from: 0,
            until: u64::MAX,
        };
        let mut sim = AdversarialSim::new(Slow, none, 64, 4);
        let res = run_until_stable(&mut sim, 10_000_000);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn interaction_counting_and_outputs() {
        let none = Blackout {
            k: 0,
            from: 0,
            until: 0,
        };
        let mut sim = AdversarialSim::new(Slow, none, 32, 5);
        sim.steps(1000);
        assert_eq!(sim.interactions(), 1000);
        let counts = sim.output_counts();
        assert_eq!(counts[0] + counts[1] + counts[2], 32);
    }
}
