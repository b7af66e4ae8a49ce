//! Core abstractions: the [`Protocol`] trait describing a population protocol
//! and the [`Simulator`] trait implemented by the execution engines.

use std::fmt::Debug;

/// Output decoration of an agent state, as used by leader-election protocols.
///
/// The paper maps `L⟨A⟩` and `L⟨P⟩` states to [`Output::Leader`] and every
/// other state to a non-leader output. [`Output::Undecided`] marks states that
/// have not yet committed to a role (the `0` and `X` states of Section 4);
/// stabilisation additionally requires that no agent is undecided.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum Output {
    /// The agent currently maps to the leader output.
    Leader = 0,
    /// The agent currently maps to the follower (non-leader) output.
    Follower = 1,
    /// The agent has not yet been assigned a role.
    Undecided = 2,
}

/// Number of distinct [`Output`] values; sizes the count arrays kept by
/// simulators.
pub const NUM_OUTPUTS: usize = 3;

/// A population protocol: a finite state space, a common initial state and a
/// deterministic pairwise transition function.
///
/// Interactions are **ordered**: the scheduler hands the transition a
/// `(responder, initiator)` pair, matching the convention of the paper where
/// "the updated agent is the one which acts as responder" (Section 3). Rules
/// may nevertheless update both agents (e.g. the partition rule
/// `0 + 0 → X + L` of Section 4).
pub trait Protocol {
    /// Per-agent state. Must be cheap to copy; simulators store it densely.
    type State: Copy + PartialEq + Debug + Send + Sync;

    /// The common state every agent starts in.
    fn initial_state(&self) -> Self::State;

    /// The transition function `δ(responder, initiator) →
    /// (responder', initiator')`.
    fn transition(
        &self,
        responder: Self::State,
        initiator: Self::State,
    ) -> (Self::State, Self::State);

    /// The output mapping of a state.
    fn output(&self, state: Self::State) -> Output;

    /// The **epoch** a state believes the protocol is in, if the state
    /// carries that information.
    ///
    /// Epochs are a protocol-level notion of coarse progress — e.g. the
    /// GSU19 fast-elimination countdown (each decrement of the leaders'
    /// `cnt` starts a new epoch) or a phase clock's round counter. States
    /// that carry no epoch information report `None` (the default, and the
    /// blanket answer for protocols without epochs). The population's
    /// epoch is the maximum over its agents (epochs spread by epidemic),
    /// which `ppexp::observe` reads at its checkpoints.
    fn epoch_of(&self, state: Self::State) -> Option<u32> {
        let _ = state;
        None
    }
}

/// A protocol whose state space can be enumerated as `0..num_states()`.
///
/// Required by [`crate::UrnSim`], which stores one counter per state id.
/// Encodings do not need to be surjective onto reachable states — unreachable
/// ids simply keep a zero count — but `state_id` and `state_from_id` must be
/// mutually inverse on every state the protocol can produce.
pub trait EnumerableProtocol: Protocol {
    /// Upper bound (exclusive) on state ids.
    fn num_states(&self) -> usize;

    /// Dense id of a state, in `0..num_states()`.
    fn state_id(&self, state: Self::State) -> usize;

    /// Inverse of [`EnumerableProtocol::state_id`].
    fn state_from_id(&self, id: usize) -> Self::State;
}

/// Common interface of the execution engines ([`crate::AgentSim`],
/// [`crate::UrnSim`]).
pub trait Simulator {
    /// Per-agent state of the underlying protocol.
    type State: Copy;

    /// Population size `n`.
    fn population(&self) -> u64;

    /// Total number of interactions executed so far.
    fn interactions(&self) -> u64;

    /// Parallel time elapsed: interactions divided by `n` (Section 2).
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.population() as f64
    }

    /// Execute one interaction chosen uniformly at random.
    fn step(&mut self);

    /// Execute `k` interactions.
    fn steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Execute interactions until `pred` holds or `k` interactions have run,
    /// batching internally where the engine supports it. Returns `true` iff
    /// the predicate fired (including when it already holds on entry, where
    /// no interaction runs).
    ///
    /// The contract is **exact first-hit semantics**: on return with `true`,
    /// [`Simulator::interactions`] is exactly the sequential chain's first
    /// interaction count at which `pred` is satisfied — no batch or
    /// checkpoint quantisation. The default checks after every sequential
    /// step; [`crate::UrnSim`] overrides this with a batched
    /// record/rewind/replay implementation that probes at block granularity
    /// and reconstructs the exact hit from the recorded interaction trace
    /// (exact for the monotone stop predicates used in this repository; see
    /// the override's documentation for the non-monotone caveat).
    fn steps_until(
        &mut self,
        k: u64,
        policy: &crate::batch::BatchPolicy,
        pred: &mut dyn FnMut(&Self) -> bool,
    ) -> bool
    where
        Self: Sized,
    {
        let _ = policy;
        if pred(self) {
            return true;
        }
        for _ in 0..k {
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Number of agents per [`Output`] value, indexed by `Output as usize`.
    /// Maintained incrementally; O(1) to read.
    fn output_counts(&self) -> [u64; NUM_OUTPUTS];

    /// Number of agents currently mapping to the leader output.
    fn leaders(&self) -> u64 {
        self.output_counts()[Output::Leader as usize]
    }

    /// Number of agents that have not committed to a role yet.
    fn undecided(&self) -> u64 {
        self.output_counts()[Output::Undecided as usize]
    }

    /// `true` when the configuration *looks* stably elected: exactly one
    /// leader and no undecided agents. For the protocols in this repository
    /// the alive-candidate count is non-increasing once roles are settled, so
    /// the first time this predicate holds is the stabilisation time.
    fn is_stably_elected(&self) -> bool {
        self.leaders() == 1 && self.undecided() == 0
    }

    /// Visit every (state, multiplicity) pair of the current configuration.
    ///
    /// `AgentSim` emits one pair per agent, with multiplicity 1, so a state
    /// recurs once per agent holding it: O(population). `UrnSim` emits one
    /// pair per occupied state: O(occupied states). The order is
    /// unspecified, so consumers must be order-free and add up repeated
    /// states. Intended for periodic inspection (figures, lemma checks,
    /// census stops), not for the hot loop.
    fn for_each_state(&self, f: &mut dyn FnMut(Self::State, u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial 2-state protocol used across engine unit tests.
    pub struct TwoState;

    impl Protocol for TwoState {
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
    fn output_discriminants_are_dense() {
        assert_eq!(Output::Leader as usize, 0);
        assert_eq!(Output::Follower as usize, 1);
        assert_eq!(Output::Undecided as usize, 2);
        assert_eq!(NUM_OUTPUTS, 3);
    }

    #[test]
    fn two_state_transition_table() {
        let p = TwoState;
        assert_eq!(p.transition(true, true), (true, false));
        assert_eq!(p.transition(true, false), (true, false));
        assert_eq!(p.transition(false, true), (false, true));
        assert_eq!(p.transition(false, false), (false, false));
    }
}
