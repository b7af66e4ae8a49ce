//! Engine edge cases: minimal populations, degenerate perturbations,
//! heterogeneous-start bookkeeping.

use ppsim::{
    run_until_stable, AdversarialSim, AgentSim, Blackout, Output, Protocol, Simulator, Throttle,
    UrnSim,
};

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
impl ppsim::EnumerableProtocol for Slow {
    fn num_states(&self) -> usize {
        2
    }
    fn state_id(&self, s: bool) -> usize {
        s as usize
    }
    fn state_from_id(&self, id: usize) -> bool {
        id == 1
    }
}

#[test]
fn minimal_population_of_two() {
    let mut agent = AgentSim::new(Slow, 2, 1);
    agent.step();
    assert_eq!(agent.leaders(), 1);

    let mut urn = UrnSim::new(Slow, 2, 1);
    urn.step();
    assert_eq!(urn.leaders(), 1);
}

#[test]
fn with_states_counts_outputs_correctly() {
    let sim = AgentSim::with_states(Slow, vec![true, false, false, true, true], 3);
    assert_eq!(sim.leaders(), 3);
    assert_eq!(sim.population(), 5);
}

#[test]
fn urn_with_counts_mixed_configuration() {
    let mut sim = UrnSim::with_counts(Slow, &[(true, 10), (false, 90)], 4);
    assert_eq!(sim.population(), 100);
    assert_eq!(sim.leaders(), 10);
    let res = run_until_stable(&mut sim, 10_000_000);
    assert!(res.converged);
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn blackout_with_empty_window_is_uniform() {
    let b = Blackout {
        k: 10,
        from: 5,
        until: 5,
    };
    let mut sim = AdversarialSim::new(Slow, b, 32, 7);
    let res = run_until_stable(&mut sim, 10_000_000);
    assert!(res.converged);
}

#[test]
fn throttle_rate_one_is_uniform() {
    let t = Throttle { k: 16, rate: 1.0 };
    let mut sim = AdversarialSim::new(Slow, t, 32, 8);
    let res = run_until_stable(&mut sim, 10_000_000);
    assert!(res.converged);
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn blackout_never_covering_everyone_terminates() {
    // k = n-2 leaves two agents; sampling must still find pairs.
    let b = Blackout {
        k: 30,
        from: 0,
        until: 100_000,
    };
    let mut sim = AdversarialSim::new(Slow, b, 32, 9);
    sim.steps(10_000);
    assert_eq!(sim.interactions(), 10_000);
    // Only the two available agents interacted: one duel resolved them.
    let candidates = sim.states()[30..].iter().filter(|&&s| s).count();
    assert_eq!(candidates, 1);
}

#[test]
fn for_each_state_multiplicity_sums_to_population() {
    let mut sim = UrnSim::new(Slow, 1000, 10);
    sim.steps(5000);
    let mut total = 0u64;
    sim.for_each_state(&mut |_, k| total += k);
    assert_eq!(total, 1000);

    let mut sim = AgentSim::new(Slow, 1000, 10);
    sim.steps(5000);
    let mut total = 0u64;
    sim.for_each_state(&mut |_, k| total += k);
    assert_eq!(total, 1000);
}
