//! # ppsim — population-protocol simulation engine
//!
//! This crate is the substrate for reproducing *"Almost logarithmic-time space
//! optimal leader election in population protocols"* (Gąsieniec, Stachowiak,
//! Uznański; SPAA 2019). It implements the classical probabilistic population
//! model of Angluin et al. [AAD+04]:
//!
//! * `n` identical agents, each holding a state drawn from a finite set;
//! * a **random scheduler** that repeatedly selects an *ordered* pair
//!   `(responder, initiator)` uniformly at random among the `n(n-1)` ordered
//!   pairs of distinct agents;
//! * a deterministic transition function
//!   `δ(responder, initiator) → (responder', initiator')` applied to the pair.
//!
//! **Parallel time** is the number of interactions divided by `n`; it matches
//! the notion used throughout the paper.
//!
//! ## Simulators
//!
//! Two interchangeable engines implement [`Simulator`], whose one stepping
//! path is [`Simulator::steps_until`] (`steps` is `steps_until` under a
//! predicate that never holds):
//!
//! * [`AgentSim`] keeps an explicit `Vec` of agent states. O(1) per
//!   interaction, O(n) memory. This is the workhorse for populations up to a
//!   few tens of millions.
//! * [`UrnSim`] keeps only a count per *state* (the population is an urn of
//!   indistinguishable balls — valid because agents are anonymous). A step
//!   scans the occupied states, O(occupied) per interaction, O(|states|)
//!   memory, enabling populations bounded only by `u64`.
//!
//! Both produce statistically identical processes; the integration test suite
//! checks this by comparing convergence-time distributions. For failure
//! injection, [`AdversarialSim`] swaps `AgentSim`'s uniform pair choice for
//! a perturbed scheduler (module [`adversary`]).
//!
//! An urn built with a block size ([`UrnSim::with_block`], module
//! [`batch`]) steps in **batched** blocks: interactions are drawn in
//! exact sub-batches that alternate collision-free runs (bulk
//! without-replacement draws, transitions applied per pair-bucket) with
//! individually-resampled collision interactions, so a batch is *exactly*
//! distributed as the same number of sequential steps — bit for bit under
//! the shared interaction-trace decoding ([`UrnSim::steps_batched_traced`] /
//! [`UrnSim::replay_interaction`]). Its stopping times are still exact
//! first hits — a predicate hit inside a block is located by rewinding the
//! block, re-sampling it with its interaction trace on and replaying that
//! trace. The block size only sets how often a stop predicate is probed;
//! [`batched_block`] is the default rule, n/16 from n = 4096 up and per
//! step below.
//!
//! Orthogonally, protocols whose transition factors through a
//! (role bucket, clock phase) state split can be **compiled** into
//! lookup tables ([`compiled::CompiledProtocol`], trait
//! [`compiled::FactoredProtocol`]): the phase update and the role rules
//! are probed once and replayed at memory speed, with states as dense
//! `u32` ids and role tables sized by the buckets a run meets. A
//! compiled protocol drops into either engine (and the batched path)
//! unchanged.
//!
//! ## Quick example
//!
//! ```
//! use ppsim::prelude::*;
//!
//! /// The 2-state slow leader-election protocol of [AAD+04]:
//! /// leader + leader -> leader + follower.
//! struct Slow;
//! impl Protocol for Slow {
//!     type State = bool; // true = leader candidate
//!     fn initial_state(&self) -> bool { true }
//!     fn transition(&self, r: bool, i: bool) -> (bool, bool) {
//!         if r && i { (true, false) } else { (r, i) }
//!     }
//!     fn output(&self, s: bool) -> Output {
//!         if s { Output::Leader } else { Output::Follower }
//!     }
//! }
//!
//! let mut sim = AgentSim::new(Slow, 100, 42);
//! let result = run_until_stable(&mut sim, 1_000_000);
//! assert!(result.converged);
//! assert_eq!(sim.output_counts()[Output::Leader as usize], 1);
//! ```

pub mod adversary;
pub mod agent_sim;
pub mod batch;
pub mod compiled;
pub mod parallel;
pub mod protocol;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod table;
pub mod trace;
pub mod urn;

pub use adversary::{AdversarialSim, Blackout, Perturbation, Throttle};
pub use agent_sim::AgentSim;
pub use compiled::{CompiledProtocol, FactoredProtocol};
pub use parallel::{default_threads, run_trials, run_trials_threads};
pub use protocol::{EnumerableProtocol, Output, Protocol, Simulator};
pub use rng::{split_seed, trial_seeds};
pub use runner::{run_until, run_until_stable, RunResult};
pub use stats::{
    chi_square_stat, ks_critical, ks_statistic, linear_fit, mean, mean_ci95, median, quantile,
    std_dev, Summary,
};
pub use trace::Series;
pub use urn::{batched_block, UrnSim};

/// Convenience prelude: `use ppsim::prelude::*;`.
pub mod prelude {
    pub use crate::agent_sim::AgentSim;
    pub use crate::compiled::{CompiledProtocol, FactoredProtocol};
    pub use crate::parallel::run_trials;
    pub use crate::protocol::{EnumerableProtocol, Output, Protocol, Simulator};
    pub use crate::runner::{run_until, run_until_stable, RunResult};
    pub use crate::stats::Summary;
    pub use crate::urn::{batched_block, UrnSim};
}
