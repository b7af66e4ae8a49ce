//! Drivers: run a simulation until a predicate holds or a budget runs out.
//!
//! Both drivers delegate to [`Simulator::steps_until`], so stopping times
//! are **exact first hits** on every engine: the per-step engines check
//! after every interaction, and an urn with a block size
//! ([`crate::UrnSim::with_block`]) probes the predicate at block
//! boundaries but, on a hit, rewinds the block and replays its recorded
//! interaction trace to the exact first interaction satisfying the
//! predicate.

use crate::protocol::Simulator;

/// Result of driving a simulation to a stopping condition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunResult {
    /// Whether the stopping predicate fired within the budget.
    pub converged: bool,
    /// Interactions executed when the run stopped.
    pub interactions: u64,
    /// `interactions / n`.
    pub parallel_time: f64,
}

impl RunResult {
    fn of<S: Simulator>(sim: &S, converged: bool) -> Self {
        Self {
            converged,
            interactions: sim.interactions(),
            parallel_time: sim.parallel_time(),
        }
    }
}

/// Run until `pred(sim)` holds or `max_interactions` have been executed.
///
/// The reported stopping time is the exact first hit (see
/// [`Simulator::steps_until`]). The run never exceeds the budget.
pub fn run_until<S: Simulator>(
    sim: &mut S,
    max_interactions: u64,
    pred: impl FnMut(&S) -> bool,
) -> RunResult {
    let converged = sim.steps_until(max_interactions, pred);
    RunResult::of(sim, converged)
}

/// Run until the configuration is stably elected (exactly one leader, no
/// undecided agents) or the interaction budget is exhausted.
///
/// For every protocol in this repository the set of alive leader candidates
/// is non-increasing once roles have settled, so the first time the predicate
/// holds is the stabilisation time (see `Simulator::is_stably_elected`).
pub fn run_until_stable<S: Simulator>(sim: &mut S, max_interactions: u64) -> RunResult {
    run_until(sim, max_interactions, |s| s.is_stably_elected())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent_sim::AgentSim;
    use crate::protocol::{Output, Protocol};

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
    impl crate::protocol::EnumerableProtocol for Slow {
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
    fn budget_exhaustion_reports_not_converged() {
        let mut sim = AgentSim::new(Slow, 1000, 1);
        let res = run_until_stable(&mut sim, 10);
        assert!(!res.converged);
        assert_eq!(res.interactions, 10);
    }

    #[test]
    fn immediate_predicate_stops_at_zero() {
        let mut sim = AgentSim::new(Slow, 10, 1);
        let res = run_until(&mut sim, 100, |_| true);
        assert!(res.converged);
        assert_eq!(res.interactions, 0);
    }

    #[test]
    fn convergence_time_is_first_hit() {
        let mut sim = AgentSim::new(Slow, 32, 5);
        let res = run_until_stable(&mut sim, 1_000_000);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        // Re-running with the same budget cannot un-converge.
        let res2 = run_until_stable(&mut sim, 1_000);
        assert!(res2.converged);
        assert_eq!(res2.interactions, res.interactions);
    }

    #[test]
    fn batched_predicate_stop_is_the_exact_first_hit() {
        // Stopping predicates are probed at block boundaries, but a hit
        // rewinds the block and replays its trace: the reported time is the
        // exact first hit, with zero overshoot, even when the target sits
        // strictly inside a block.
        let target = 1_000u64; // deliberately not a multiple of the block
        let mut sim = crate::UrnSim::new(Slow, 4096, 3).with_block(64);
        let converged = sim.steps_until(1 << 20, |s| s.interactions() >= target);
        assert!(converged);
        assert_eq!(sim.interactions(), target, "stop overshot the first hit");
    }

    #[test]
    fn parallel_time_consistency() {
        let mut sim = AgentSim::new(Slow, 100, 9);
        let res = run_until_stable(&mut sim, 10_000_000);
        assert!((res.parallel_time - res.interactions as f64 / 100.0).abs() < 1e-9);
    }
}
