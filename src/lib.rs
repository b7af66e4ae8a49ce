//! # population-protocols — facade crate
//!
//! Re-exports the full reproduction of *"Almost logarithmic-time space
//! optimal leader election in population protocols"* (Gąsieniec, Stachowiak,
//! Uznański; SPAA 2019):
//!
//! * [`ppsim`] — the population-protocol simulation engine (random scheduler,
//!   agent-array and urn simulators, parallel trial executor, statistics);
//! * [`components`] — reusable protocol building blocks (junta election,
//!   junta-driven phase clock);
//! * [`core`] — the paper's three-epoch leader-election protocol;
//! * [`baselines`] — the competing protocols of the paper's Table 1;
//! * [`ppexp`] — the declarative experiment engine (specs, sharded trial
//!   plans, exact aggregates, versioned JSON/CSV artifacts, replay).
//!
//! See `examples/quickstart.rs` for a five-line end-to-end run.

pub use baselines;
pub use components;
pub use core_protocol as core;
pub use ppexp;
pub use ppsim;
