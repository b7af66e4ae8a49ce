//! `ppexp::cost` — a pure, deterministic per-trial cost model.
//!
//! A trial's runtime is a predictable function of `(protocol, engine,
//! n, stop mode)`: GSU19 stabilizes in Θ(log n · log log n) parallel
//! time, the GS18/BKKO18 baselines in Θ(log² n), the 2-state protocol
//! in Θ(n), and a horizon stop runs for exactly `n · at_pt`
//! interactions. This module turns that into an integer **cost unit**
//! per trial (a model microsecond on the calibration machine):
//!
//! ```text
//! cost = expected interactions / throughput(engine)
//! ```
//!
//! Both scheduling layers consume it: the in-process trial pool
//! ([`crate::engine`]) executes cache-missing trials longest-first,
//! and the cross-process partition ([`crate::shard`]) balances
//! predicted cost across shards with a weighted-LPT assignment.
//! `ppctl plan` prints the same numbers.
//!
//! Two hard requirements shape the implementation:
//!
//! - **No wall clock.** The throughput table is *committed data*,
//!   calibrated offline by the bench crate's `cost_calibration` target
//!   (timing lives there, where ppcheck's wall-clock rule permits it).
//!   Library code never measures anything.
//! - **Bit-identical across platforms.** Shard assignments derived
//!   from costs must agree between machines, and `libm` functions
//!   (`f64::log2` etc.) are not guaranteed identical across targets.
//!   The model therefore uses only integer ops and IEEE-basic f64
//!   arithmetic (`+ − × ÷`, `ceil`), which are correctly rounded
//!   everywhere: [`lg2`] is `ilog2` plus a linear mantissa
//!   interpolation — exact at powers of two, monotone, within 0.09 of
//!   the true log₂ in between, and reproducible bit-for-bit.
//!
//! The model is a *scheduling heuristic*, not a measurement: constants
//! are quick-scale medians and relative order is what matters. A 2×
//! absolute error changes no assignment as long as it is consistent.

use crate::registry::ProtocolKind;
use crate::spec::{EngineKind, ExperimentSpec, StopCondition};

/// Deterministic base-2 logarithm: integer exponent plus a linear
/// interpolation of the mantissa. Exact at powers of two, strictly
/// monotone, and built from IEEE-basic operations only, so the result
/// is bit-identical on every platform (unlike `f64::log2`, which goes
/// through `libm`). `lg2(1) == 0`.
pub fn lg2(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let e = n.ilog2();
    let base = 1u64 << e;
    e as f64 + (n - base) as f64 / base as f64
}

/// Deterministic log₂ log₂: [`lg2`] of the integer exponent, clamped
/// so the GSU19 scaling never collapses to zero for tiny populations.
pub fn lglg2(n: u64) -> f64 {
    let e = if n >= 2 { u64::from(n.ilog2()) } else { 1 };
    lg2(e.max(2))
}

/// GSU19-family stabilization constant: expected parallel time is
/// `GSU19_PT_C · log₂n · log₂log₂n`. Quick-scale medians on the
/// calibration machine sit at 459 pt (n = 2¹⁰) to 732 pt (n = 2¹⁶),
/// giving c ≈ 11.4–13.8 across the grid.
pub const GSU19_PT_C: f64 = 12.0;

/// GS18 baseline: expected parallel time `GS18_PT_C · log₂²n`.
/// Measured 340 pt at n = 2¹² and 606 pt at n = 2¹⁶ (c ≈ 2.4 at both).
pub const GS18_PT_C: f64 = 2.4;

/// BKKO18 baseline: expected parallel time `BKKO18_PT_C · log₂²n`.
/// Measured 469 pt at n = 2¹² and 798 pt at n = 2¹⁶ (c ≈ 3.1–3.3).
pub const BKKO18_PT_C: f64 = 3.2;

/// 2-state AAD+04 protocol: expected parallel time `SLOW_PT_C · n`.
/// Measured 3.3k pt at n = 2¹² and 16k pt at n = 2¹⁴ (c ≈ 0.8–1.0).
pub const SLOW_PT_C: f64 = 1.0;

/// Expected parallel time to *stabilize*, ignoring any budget cap.
/// The isolated clock component never self-stabilizes (it only runs
/// under a horizon stop), so it reports infinity and the budget cap in
/// [`expected_interactions`] takes over.
pub fn expected_stabilization_pt(protocol: ProtocolKind, n: u64) -> f64 {
    let n = n.max(2);
    match protocol {
        ProtocolKind::Gsu19
        | ProtocolKind::Gsu19NoDrag
        | ProtocolKind::Gsu19NoBackup
        | ProtocolKind::Gsu19Direct => GSU19_PT_C * lg2(n) * lglg2(n),
        ProtocolKind::Gs18 => GS18_PT_C * lg2(n) * lg2(n),
        ProtocolKind::Bkko18 => BKKO18_PT_C * lg2(n) * lg2(n),
        ProtocolKind::Slow => SLOW_PT_C * n as f64,
        ProtocolKind::Clock => f64::INFINITY,
    }
}

/// Expected interactions for one trial of `(protocol, n)` under the
/// spec's stop condition. Horizon stops are exact (`n · at_pt`); every
/// budget-capped stop uses the protocol's stabilization estimate,
/// capped at the budget.
pub fn expected_interactions(spec: &ExperimentSpec, protocol: ProtocolKind, n: u64) -> f64 {
    let pt = match spec.stop {
        StopCondition::Horizon { at_pt } => at_pt,
        _ => {
            let est = expected_stabilization_pt(protocol, n);
            let budget = spec.stop.budget_pt();
            if est < budget {
                est
            } else {
                budget
            }
        }
    };
    n as f64 * pt
}

/// Committed throughput table, in **interactions per model
/// microsecond** (= millions of interactions per second), per engine:
/// the rate of gsu19 on its compiled tables, the path every gsu19-family
/// and gs18 config takes. Calibrated by the bench crate's
/// `cost_calibration` target (quick scale, single core, gsu19 under a
/// horizon stop so interaction counts are exact); re-run it with
/// `PP_SCALE=quick cargo bench -p bench --bench cost_calibration`
/// whenever an engine changes materially and update these numbers in
/// the same commit. Only relative magnitudes matter to scheduling.
pub fn throughput_ipus(engine: EngineKind) -> u64 {
    match engine {
        EngineKind::Agent => 25,
        EngineKind::UrnBatched => 14,
    }
}

/// Cap on a single trial's cost units: keeps downstream `u128` load
/// accumulators far from overflow even for absurd plans.
const MAX_COST_UNITS: u64 = 1 << 60;

/// Predicted cost of one trial of `(protocol, n)` under `spec`, in
/// integer model microseconds, always ≥ 1. Pure function of its
/// arguments and bit-identical across platforms, so every worker and
/// the merge derive the same weighted partition independently.
pub fn trial_cost_units(spec: &ExperimentSpec, protocol: ProtocolKind, n: u64) -> u64 {
    let ipus = throughput_ipus(spec.engine) as f64;
    let units = (expected_interactions(spec, protocol, n) / ipus).ceil();
    if units >= MAX_COST_UNITS as f64 {
        MAX_COST_UNITS
    } else if units >= 1.0 {
        units as u64
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg2_is_exact_at_powers_of_two_and_monotone() {
        for e in 0..63u32 {
            assert_eq!(lg2(1u64 << e), e as f64);
        }
        let mut prev = lg2(1);
        for n in 2..4096u64 {
            let cur = lg2(n);
            assert!(cur > prev, "lg2 not strictly monotone at n={n}");
            prev = cur;
        }
    }

    #[test]
    fn lg2_interpolation_stays_close_to_true_log2() {
        // The linear-mantissa error bound is < 0.0861 everywhere.
        for n in [3u64, 5, 7, 100, 1000, 12345, 999_983] {
            let err = lg2(n) - (n as f64).log2();
            assert!(err.abs() < 0.09, "lg2({n}) off by {err}");
        }
    }

    #[test]
    fn lglg2_is_clamped_for_tiny_n() {
        assert_eq!(lglg2(0), 1.0);
        assert_eq!(lglg2(2), 1.0);
        assert_eq!(lglg2(4), 1.0);
        assert_eq!(lglg2(16), 2.0);
        assert_eq!(lglg2(1 << 16), 4.0);
    }

    #[test]
    fn horizon_interactions_are_exact() {
        let spec = ExperimentSpec {
            stop: StopCondition::Horizon { at_pt: 128.0 },
            ..ExperimentSpec::default()
        };
        for kind in ProtocolKind::ALL {
            assert_eq!(expected_interactions(&spec, kind, 1024), 1024.0 * 128.0);
        }
    }

    #[test]
    fn stabilize_estimate_is_budget_capped() {
        let spec = ExperimentSpec {
            stop: StopCondition::Stabilize { budget_pt: 10.0 },
            ..ExperimentSpec::default()
        };
        // Slow at n = 2^20 wants ~1e6 pt; the cap wins.
        assert_eq!(
            expected_interactions(&spec, ProtocolKind::Slow, 1 << 20),
            (1u64 << 20) as f64 * 10.0
        );
        // Clock never stabilizes; the cap always wins.
        assert_eq!(
            expected_interactions(&spec, ProtocolKind::Clock, 1 << 10),
            (1u64 << 10) as f64 * 10.0
        );
    }

    #[test]
    fn cost_units_are_positive_and_monotone_in_n() {
        let spec = ExperimentSpec::default();
        let mut prev = 0u64;
        for e in 0..24u32 {
            let n = 1u64 << e;
            let units = trial_cost_units(&spec, ProtocolKind::Gsu19, n);
            assert!(units >= 1);
            assert!(units >= prev, "cost not monotone at n={n}");
            prev = units;
        }
        // Tiny populations still cost at least one unit.
        assert_eq!(trial_cost_units(&spec, ProtocolKind::Gsu19, 1), 1);
    }

    #[test]
    fn faster_engines_predict_cheaper_trials() {
        let n = 1 << 16;
        let mut spec = ExperimentSpec {
            engine: EngineKind::Agent,
            ..ExperimentSpec::default()
        };
        let agent = trial_cost_units(&spec, ProtocolKind::Gsu19, n);
        spec.engine = EngineKind::UrnBatched;
        let urn = trial_cost_units(&spec, ProtocolKind::Gsu19, n);
        assert!(agent < urn);
        // `compiled` selects no path, so it costs nothing either way.
        spec.compiled = true;
        assert_eq!(trial_cost_units(&spec, ProtocolKind::Gsu19, n), urn);
    }

    #[test]
    fn cost_is_a_pure_function_of_inputs() {
        let spec = ExperimentSpec::default();
        let a = trial_cost_units(&spec, ProtocolKind::Gsu19, 4096);
        let b = trial_cost_units(&spec, ProtocolKind::Gsu19, 4096);
        assert_eq!(a, b);
        // Pin the default-spec value so accidental model edits are
        // loud: gsu19, agent engine, n = 2^12 → parallel time
        // 12 · lg2(4096) · lglg2(4096) = 12 · 12 · 3.5 = 504 pt,
        // 4096 · 504 interactions / 25 ipus = 82 576 units (ceil).
        assert_eq!(a, 82_576);
    }
}
