//! # components — population-protocol building blocks
//!
//! Reusable pieces shared by the paper's protocol (`core-protocol`) and by
//! the baselines:
//!
//! * [`clock`] — the junta-driven phase clock of Section 3 (after GS18):
//!   modular phase arithmetic `max_Γ`, pass-through-zero detection, and the
//!   early/late half-round gating used by the protocol rules.
//! * [`junta`] — the level race of Section 5 ("coin preprocessing", after
//!   GS18's junta election): agents climb levels while they keep meeting
//!   agents at equal-or-higher levels; level-Φ agents form the junta.
//! * [`clock_protocol`] — a self-contained protocol (level race + clock +
//!   round counter) used to validate Theorem 3.2 empirically.

pub mod clock;
pub mod clock_protocol;
pub mod junta;

pub use clock::{Clock, ClockTick, Half};
pub use clock_protocol::{ClockProtocol, ClockState};
pub use junta::LevelRace;
