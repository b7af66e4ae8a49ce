//! # ppexp — declarative experiment engine
//!
//! Every consumer of the simulators used to re-implement its own trial
//! loop, seed plumbing and ad-hoc text output. This crate replaces those
//! with one pipeline:
//!
//! * an [`ExperimentSpec`] *declares* a study — protocols × population
//!   grid, engine, trials, master seed,
//!   stopping condition, observables, optional trajectory sample points;
//! * [`run_experiment`] expands it into a deterministic plan of trial
//!   jobs, shards them over `ppsim::run_trials_threads`, summarises each
//!   config's records (exact `ppsim::Summary` aggregates and a survival
//!   curve, [`aggregate`]) and returns a versioned [`Artifact`];
//! * artifacts serialise to deterministic JSON/CSV ([`artifact`],
//!   [`json`]) with full seed provenance, so the same spec and seed give
//!   byte-identical bytes at any thread count and [`replay_trial`]
//!   reproduces any single trial bit-identically.
//!
//! `ppctl run` is the CLI front end; `ppctl sweep`, the figure benches
//! and the examples are thin presets over this crate.
//!
//! ```
//! use ppexp::{run_experiment, ExperimentSpec};
//!
//! let mut spec = ExperimentSpec::parse(
//!     "protocol = slow\n n = 64\n trials = 2\n stop = stabilize:10000",
//! ).unwrap();
//! spec.threads = 1;
//! let artifact = run_experiment(&spec).unwrap();
//! assert_eq!(artifact.configs[0].failures, 0);
//! assert!(artifact.configs[0].aggregate("time").unwrap().mean > 0.0);
//! ```

pub mod aggregate;
pub mod artifact;
pub mod cache;
pub mod cost;
pub mod engine;
pub mod json;
pub mod observe;
pub mod registry;
pub mod shard;
pub mod spec;

pub use aggregate::survival_curve;
pub use artifact::{Artifact, ConfigResult, TrialRecord, SCHEMA};
pub use cache::{Cache, CacheStats, ConfigCache};
pub use cost::{expected_interactions, expected_stabilization_pt, trial_cost_units};
pub use engine::{
    config_grid, effective_threads, replay_trial, run_experiment, run_experiment_cached,
    trial_plan, trial_pool_order, PlannedTrial,
};
pub use json::Json;
pub use observe::{ObservableKind, Observables, Schedule};
pub use registry::{ProtocolKind, TrialOutcome};
pub use shard::{
    merge_from_cache, merge_shards, run_shard, shard_slice, spec_hash, MergeError, MissingTrial,
    ShardManifest, ShardOutput, ShardStats, SHARD_SCHEMA,
};
pub use spec::{parse_n_grid, EngineKind, ExperimentSpec, InitConfig, StopCondition};
