//! Shared machinery for the benchmark harness.
//!
//! Every table/figure/lemma of the paper has one bench target under
//! `benches/`; the README's "Benches and experiments" section maps each
//! target to its spec preset. All targets honour the `PP_SCALE`
//! environment variable: `quick` (CI smoke), `default`, or `large`
//! (bigger grids and more trials).
//!
//! Since the observable-registry migration, no bench drives a simulator
//! by hand: every measurement is an [`ExperimentSpec`] preset executed
//! through `ppexp::run_experiment`, and the tables are rendered from the
//! artifact's aggregates and per-trial records. This module only holds
//! the scale ladder, the spec preset builder and artifact post-processing
//! helpers (statistics come from [`ppsim::stats::Summary`]).

use ppexp::{ConfigResult, ExperimentSpec, ProtocolKind, StopCondition};

/// Experiment scale, from the `PP_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Default,
    Large,
}

/// Read the scale from the environment (default: [`Scale::Default`]).
pub fn scale() -> Scale {
    match std::env::var("PP_SCALE").as_deref() {
        Ok("quick") => Scale::Quick,
        Ok("large") => Scale::Large,
        _ => Scale::Default,
    }
}

impl Scale {
    /// Population grid (powers of two) for convergence experiments.
    pub fn n_grid(self) -> Vec<u64> {
        let exps: &[u32] = match self {
            Scale::Quick => &[9, 10, 11],
            Scale::Default => &[9, 10, 11, 12, 13, 14],
            Scale::Large => &[9, 10, 11, 12, 13, 14, 15, 16, 17],
        };
        exps.iter().map(|&e| 1u64 << e).collect()
    }

    /// Trials per configuration, shrinking with population size so wall
    /// time stays bounded.
    pub fn trials(self, n: u64) -> usize {
        let base = match self {
            Scale::Quick => 6,
            Scale::Default => 24,
            Scale::Large => 48,
        };
        let shrink = ((n as f64).log2() as usize).saturating_sub(11);
        (base >> (shrink / 2)).max(4)
    }
}

/// Single-config spec preset: one protocol at one population, with a
/// stabilisation stop. Benches override `stop`/`observables`/`init`/
/// parameter knobs on the returned value.
pub fn one_config(
    protocol: ProtocolKind,
    n: u64,
    trials: usize,
    seed: u64,
    budget_pt: f64,
) -> ExperimentSpec {
    ExperimentSpec {
        protocols: vec![protocol],
        ns: vec![n],
        trials,
        seed,
        stop: StopCondition::Stabilize { budget_pt },
        ..ExperimentSpec::default()
    }
}

/// Stop times of the converged trials of a config, in trial order —
/// feed to [`ppsim::stats::Summary`] / [`ppsim::quantile`] for the
/// table columns the artifact aggregates don't carry (e.g. p90).
pub fn times_of(config: &ConfigResult) -> Vec<f64> {
    config
        .trials
        .iter()
        .filter(|r| r.outcome.converged)
        .filter_map(|r| r.outcome.metric("time"))
        .collect()
}

/// A per-trial metric across all trials of a config (converged or not),
/// skipping trials that don't carry it.
pub fn metric_of(config: &ConfigResult, name: &str) -> Vec<f64> {
    config
        .trials
        .iter()
        .filter_map(|r| r.outcome.metric(name))
        .collect()
}

/// `log₂ n`.
pub fn lg(n: u64) -> f64 {
    (n as f64).log2()
}

/// `log₂ n · log₂ log₂ n`, the paper's headline bound shape.
pub fn lg_lglg(n: u64) -> f64 {
    lg(n) * lg(n).log2().max(1.0)
}

/// `log₂² n`, the GS18 bound shape.
pub fn lg2(n: u64) -> f64 {
    lg(n) * lg(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppexp::run_experiment;

    #[test]
    fn scale_grids_are_ordered() {
        assert!(Scale::Quick.n_grid().len() < Scale::Large.n_grid().len());
        for g in [Scale::Quick, Scale::Default, Scale::Large] {
            let grid = g.n_grid();
            assert!(grid.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn trials_shrink_with_n() {
        let s = Scale::Default;
        assert!(s.trials(1 << 9) >= s.trials(1 << 16));
        assert!(s.trials(1 << 20) >= 4);
    }

    #[test]
    fn one_config_preset_runs_and_reports() {
        let spec = one_config(ProtocolKind::Slow, 64, 8, 1, 10_000.0);
        spec.validate().unwrap();
        let artifact = run_experiment(&spec).unwrap();
        let config = &artifact.configs[0];
        assert_eq!(config.failures, 0);
        let times = times_of(config);
        assert_eq!(times.len(), 8);
        assert!(times.iter().all(|&t| t > 0.0));
        assert_eq!(metric_of(config, "leaders"), vec![1.0; 8]);
    }

    #[test]
    fn presets_report_budget_failures() {
        let spec = one_config(ProtocolKind::Slow, 256, 4, 1, 0.5);
        let artifact = run_experiment(&spec).unwrap();
        assert_eq!(artifact.configs[0].failures, 4);
        assert!(times_of(&artifact.configs[0]).is_empty());
    }

    #[test]
    fn shape_helpers() {
        assert_eq!(lg(1024), 10.0);
        assert_eq!(lg2(1024), 100.0);
        assert!((lg_lglg(1024) - 10.0 * 10f64.log2()).abs() < 1e-12);
    }
}
