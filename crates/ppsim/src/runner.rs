//! Drivers: run a simulation until stabilisation (or a budget), optionally
//! observing epoch transitions along the way.
//!
//! Every driver comes in two flavours: the classic form (`run_until`,
//! `run_until_stable`) checks its predicate after every single
//! interaction — the exact sequential reference — and a `_with` form that
//! takes a [`BatchPolicy`] and lets the engine execute whole batches
//! between checks. Stopping times are **exact first hits in both flavours**:
//! the `_with` drivers delegate to [`Simulator::steps_until`], whose batched
//! implementation probes the predicate at block boundaries but, on a hit,
//! rewinds the block and replays its recorded interaction trace to the
//! exact first interaction satisfying the predicate. No mode quantises
//! stopping times to batch boundaries any more — the legacy approximate
//! batch engine that did (overshoot up to one batch) was replaced by the
//! exact collision-resampling engine in `ppsim::batch`.

use crate::batch::BatchPolicy;
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

/// Run until `pred(sim)` holds or `max_interactions` have been executed,
/// scheduling interactions between predicate checks according to `policy`.
///
/// The reported stopping time is the **exact first hit** under every
/// policy: [`BatchPolicy::PerStep`] evaluates the predicate after every
/// interaction (the engines keep the relevant counters incrementally, so
/// this is O(1) per step), and batching policies delegate to the engine's
/// [`Simulator::steps_until`], which reconstructs the exact hit inside the
/// stopping block from its recorded interaction trace. The run never
/// exceeds the budget.
pub fn run_until_with<S: Simulator>(
    sim: &mut S,
    policy: &BatchPolicy,
    max_interactions: u64,
    mut pred: impl FnMut(&S) -> bool,
) -> RunResult {
    let converged = sim.steps_until(max_interactions, policy, &mut pred);
    RunResult {
        converged,
        interactions: sim.interactions(),
        parallel_time: sim.parallel_time(),
    }
}

/// Hook fired at protocol-reported epoch transitions.
///
/// Implement this to observe coarse protocol progress (GSU19's
/// fast-elimination countdown, a phase clock's rounds) without owning the
/// drive loop; [`run_until_with_epochs`] polls
/// [`Simulator::current_epoch`] at its predicate checks and calls
/// [`EpochObserver::on_epoch`] whenever the reported value climbs to a new
/// maximum (including the first `Some`). Epochs are monotone for every
/// protocol in this repository, so this fires once per entered epoch.
/// Transition times are quantised to the driver's check granularity — one
/// scheduling block under a batching policy (several epochs may be entered
/// within one block, in which case only the frontier value is reported),
/// one interaction under [`BatchPolicy::PerStep`]. Only the *stopping*
/// time itself is exact under batching (see [`Simulator::steps_until`]).
///
/// A closure `FnMut(&S, u32)` is an observer.
pub trait EpochObserver<S: Simulator> {
    /// Called when the simulation's reported epoch changes to `epoch`.
    fn on_epoch(&mut self, sim: &S, epoch: u32);
}

impl<S: Simulator, F: FnMut(&S, u32)> EpochObserver<S> for F {
    fn on_epoch(&mut self, sim: &S, epoch: u32) {
        self(sim, epoch)
    }
}

/// Run until `pred(sim)` holds or `max_interactions` have been executed,
/// firing `observer` at every protocol-reported epoch transition.
///
/// Identical scheduling (and therefore an identical trajectory) to
/// [`run_until_with`] — the epoch poll is a read-only observation at each
/// predicate check, so adding an observer never changes the run. The
/// observer fires only when the epoch exceeds the highest value reported so
/// far; this keeps the exact-stop rewind/replay of the batched engine
/// (which revisits configurations the block probe already saw) from
/// re-reporting transitions.
pub fn run_until_with_epochs<S: Simulator>(
    sim: &mut S,
    policy: &BatchPolicy,
    max_interactions: u64,
    mut pred: impl FnMut(&S) -> bool,
    observer: &mut impl EpochObserver<S>,
) -> RunResult {
    let mut max_fired = sim.current_epoch();
    if let Some(e) = max_fired {
        observer.on_epoch(sim, e);
    }
    run_until_with(sim, policy, max_interactions, |s| {
        if let Some(e) = s.current_epoch() {
            if max_fired.is_none_or(|m| e > m) {
                max_fired = Some(e);
                observer.on_epoch(s, e);
            }
        }
        pred(s)
    })
}

/// Run until `pred(sim)` holds or `max_interactions` have been executed.
///
/// Per-step form of [`run_until_with`]: the predicate is evaluated after
/// every interaction, so the reported stopping time is the exact first hit.
pub fn run_until<S: Simulator>(
    sim: &mut S,
    max_interactions: u64,
    pred: impl FnMut(&S) -> bool,
) -> RunResult {
    run_until_with(sim, &BatchPolicy::PerStep, max_interactions, pred)
}

/// Run until the configuration is stably elected (exactly one leader, no
/// undecided agents) or the interaction budget is exhausted, scheduling
/// according to `policy` (see [`run_until_with`]; the reported
/// stabilisation time is the exact first hit under every policy).
pub fn run_until_stable_with<S: Simulator>(
    sim: &mut S,
    policy: &BatchPolicy,
    max_interactions: u64,
) -> RunResult {
    run_until_with(sim, policy, max_interactions, |s| s.is_stably_elected())
}

/// Run until the configuration is stably elected (exactly one leader, no
/// undecided agents) or the interaction budget is exhausted.
///
/// For every protocol in this repository the set of alive leader candidates
/// is non-increasing once roles have settled, so the first time the predicate
/// holds is the stabilisation time (see `Simulator::is_stably_elected`).
pub fn run_until_stable<S: Simulator>(sim: &mut S, max_interactions: u64) -> RunResult {
    run_until_stable_with(sim, &BatchPolicy::PerStep, max_interactions)
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
        let policy = BatchPolicy::Adaptive {
            shift: 6,
            min_population: 64,
        };
        let n = 4096u64;
        let block = policy.batch_size(n);
        assert_eq!(block, 64);
        let target = 1_000u64; // deliberately not a multiple of the block
        let mut sim = crate::UrnSim::new(Slow, n, 3);
        let res = run_until_with(&mut sim, &policy, 1 << 20, |s| s.interactions() >= target);
        assert!(res.converged);
        assert_eq!(res.interactions, target, "stop overshot the first hit");
    }

    /// Protocol whose states count pairwise meetings up to 3 and report
    /// that count as their epoch — a deterministic epoch ladder.
    struct Ladder;
    impl Protocol for Ladder {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transition(&self, r: u8, i: u8) -> (u8, u8) {
            let top = r.max(i).min(3);
            ((top + 1).min(3), top)
        }
        fn output(&self, _: u8) -> Output {
            Output::Follower
        }
        fn epoch_of(&self, s: u8) -> Option<u32> {
            if s == 0 {
                None
            } else {
                Some(s as u32)
            }
        }
    }

    #[test]
    fn epoch_observer_sees_every_transition_once() {
        let mut sim = AgentSim::new(Ladder, 16, 3);
        assert_eq!(sim.current_epoch(), None);
        let mut seen: Vec<u32> = Vec::new();
        let res = run_until_with_epochs(
            &mut sim,
            &BatchPolicy::PerStep,
            10_000,
            |s: &AgentSim<Ladder>| s.current_epoch() == Some(3),
            &mut |_: &AgentSim<Ladder>, e: u32| seen.push(e),
        );
        assert!(res.converged);
        // Per-step checks see the frontier climb one epoch at a time.
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn epoch_observer_does_not_change_the_trajectory() {
        let mut plain = AgentSim::new(Ladder, 32, 7);
        let mut observed = AgentSim::new(Ladder, 32, 7);
        let a = run_until(&mut plain, 500, |_| false);
        let mut fired = 0usize;
        let b = run_until_with_epochs(
            &mut observed,
            &BatchPolicy::PerStep,
            500,
            |_: &AgentSim<Ladder>| false,
            &mut |_: &AgentSim<Ladder>, _| fired += 1,
        );
        assert_eq!(a, b);
        assert_eq!(plain.states(), observed.states());
        assert!(fired > 0);
    }

    #[test]
    fn protocols_without_epochs_report_none() {
        let mut sim = AgentSim::new(Slow, 16, 1);
        sim.steps(100);
        assert_eq!(sim.current_epoch(), None);
    }

    #[test]
    fn parallel_time_consistency() {
        let mut sim = AgentSim::new(Slow, 100, 9);
        let res = run_until_stable(&mut sim, 10_000_000);
        assert!((res.parallel_time - res.interactions as f64 / 100.0).abs() < 1e-9);
    }
}
