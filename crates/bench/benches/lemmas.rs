//! Experiment L* — quantitative validation of the paper's lemmas, each a
//! `ppexp` preset over the observable registry:
//!
//! * **Lemma 4.1**: at most `O(n/log n)` agents end up deactivated —
//!   `D · log₂ n / n` should be bounded across n (`census` at a fixed
//!   horizon).
//! * **Lemmas 5.1/5.2**: the level recursion
//!   `C_{ℓ+1} ∈ [9/20, 11/10] · C_ℓ²/n` (`level_sizes`).
//! * **Lemma 5.3**: junta size `C_Φ ∈ [n^0.45, n^0.77]` (`junta_size`).
//! * **Lemma 7.1**: inhibitor drag subgroups `D'_ℓ ≈ n_I · 4^{−ℓ}`
//!   (`drag_histogram`, cumulative: inhibitors with drag ≥ ℓ).
//! * **Lemma 7.3**: `O(log log n)` expected rounds reduce the active
//!   candidates from `c·log n` to 1 in the final epoch (synthetic
//!   `init = final-epoch:4lg` start, `active:1` stop, on `urn-batched`).

use bench::{lg, one_config, scale, times_of};
use core_protocol::Gsu19;
use ppexp::{
    run_experiment, ConfigResult, EngineKind, InitConfig, Observables, ProtocolKind, StopCondition,
};
use ppsim::table::{fnum, Table};

fn main() {
    let sc = scale();
    println!("=== L*: lemma validations ({sc:?} scale) ===\n");
    lemma_4_1(sc);
    lemmas_5x(sc);
    lemma_7_1(sc);
    lemma_7_3(sc);
}

/// Horizon census preset: GSU19 at one population, full census at
/// `at_pt`, selected observables.
fn census_at(n: u64, trials: usize, seed: u64, at_pt: f64, observables: &str) -> ConfigResult {
    let mut spec = one_config(ProtocolKind::Gsu19, n, trials, seed, 0.0);
    spec.stop = StopCondition::Horizon { at_pt };
    spec.observables = Observables::parse(observables).expect("registered");
    let artifact = run_experiment(&spec).expect("lemma preset is valid");
    artifact.configs.into_iter().next().expect("one config")
}

/// Lemma 4.1: deactivated stragglers are O(n / log n).
fn lemma_4_1(sc: bench::Scale) {
    println!("--- Lemma 4.1: uninitialised agents after round 1 are O(n/log n) ---");
    let mut t = Table::new(["n", "mean D", "D/n", "D*log2(n)/n", "uninit left"]);
    for &n in &sc.n_grid() {
        let trials = sc.trials(n).min(12);
        // Run well past round 2 so deactivation has fired.
        let config = census_at(n, trials, 41, 30.0 * lg(n), "census");
        let d_mean = config.aggregate("deactivated").expect("census metric").mean;
        let uninit = config.aggregate("zero").expect("census metric").mean
            + config.aggregate("x").expect("census metric").mean;
        t.row([
            n.to_string(),
            fnum(d_mean),
            format!("{:.4}", d_mean / n as f64),
            format!("{:.3}", d_mean * lg(n) / n as f64),
            fnum(uninit),
        ]);
    }
    t.print();
    println!("Expected: the D*log2(n)/n column stays bounded (Lemma 4.1).\n");
}

/// Lemmas 5.1/5.2 and 5.3: the coin level recursion and the junta window.
fn lemmas_5x(sc: bench::Scale) {
    println!(
        "--- Lemmas 5.1/5.2: C_(l+1) in [9/20, 11/10] * C_l^2/n;  Lemma 5.3: junta window ---"
    );
    let mut t = Table::new(["n", "level", "C_l", "C_(l+1)", "ratio*n/C_l^2", "in band"]);
    for &n in &sc.n_grid() {
        let trials = sc.trials(n).min(12);
        let params = *Gsu19::for_population(n).params();
        let config = census_at(n, trials, 43, 60.0 * lg(n), "level_sizes");
        let level = |l: u8| {
            config
                .aggregate(&format!("coins_ge{l}"))
                .expect("level metric")
                .mean
        };
        for l in 0..params.phi {
            let cl = level(l);
            let cl1 = level(l + 1);
            let ratio = cl1 * n as f64 / (cl * cl);
            let in_band = (0.45..=1.10).contains(&ratio);
            t.row([
                n.to_string(),
                l.to_string(),
                fnum(cl),
                fnum(cl1),
                format!("{ratio:.3}"),
                if in_band { "yes" } else { "NO" }.to_string(),
            ]);
        }
        let junta = level(params.phi);
        let expo = junta.max(1.0).ln() / (n as f64).ln();
        println!("n = {n}: junta = {junta:.1} = n^{expo:.3} (Lemma 5.3 target [0.45, 0.77])");
    }
    t.print();
    println!();
}

/// Lemma 7.1: inhibitor drag subgroups follow the 4^{-l} law.
fn lemma_7_1(sc: bench::Scale) {
    println!("--- Lemma 7.1: inhibitors with drag >= l ~ n_I * 4^(-l) ---");
    let n = *sc.n_grid().last().unwrap();
    let trials = sc.trials(n).min(12);
    let params = *Gsu19::for_population(n).params();
    let config = census_at(n, trials, 47, 30.0 * lg(n), "drag_histogram");
    let mut t = Table::new(["drag l", "mean D'_l (>= l)", "n_I*4^-l", "ratio"]);
    let n_i = config
        .aggregate("inhib_ge0")
        .expect("histogram metric")
        .mean;
    for l in 0..=params.psi {
        let mean = config
            .aggregate(&format!("inhib_ge{l}"))
            .expect("histogram metric")
            .mean;
        let pred = n_i * 4f64.powi(-(l as i32));
        if pred < 0.5 {
            break;
        }
        t.row([
            l.to_string(),
            fnum(mean),
            fnum(pred),
            format!("{:.3}", mean / pred),
        ]);
    }
    t.print();
    println!("Expected: ratio ~1 for every level with a meaningful prediction (n = {n}).\n");
}

/// Lemma 7.3: O(log log n) expected final-epoch rounds from c·log n
/// actives. At bench-scale n the real second epoch (plus the duels) leaves
/// far fewer than c·log n actives, so the preset starts the final epoch
/// from a *synthetic* settled configuration with exactly `4·log₂ n`
/// actives (`init = final-epoch:4lg`) and stops when one remains
/// (`active:1`). One clock round is ≈ 5·log₂ n parallel time at the
/// calibrated Γ, so `t / (5 log₂ n)` estimates the round count.
fn lemma_7_3(sc: bench::Scale) {
    println!("--- Lemma 7.3: final-epoch rounds from c*log n actives to a single one ---");
    let mut t = Table::new([
        "n",
        "k=4*lg n",
        "trials",
        "mean t",
        "~rounds",
        "p90 rounds",
        "lg lg n",
    ]);
    for &n in &sc.n_grid() {
        let trials = sc.trials(n).min(16);
        let mut spec = one_config(ProtocolKind::Gsu19, n, trials, 53, 0.0);
        // The `active:` stop takes a census at every check; on the urn a
        // census walks the occupied states, not all n agents.
        spec.engine = EngineKind::UrnBatched;
        spec.init = InitConfig::FinalEpoch {
            k: 4,
            times_log2: true,
        };
        spec.stop = StopCondition::ActivesBelow {
            count: 1,
            budget_pt: 40_000.0,
        };
        let artifact = run_experiment(&spec).expect("lemma 7.3 preset is valid");
        let config = &artifact.configs[0];
        let times = times_of(config);
        if times.is_empty() {
            continue;
        }
        let round = 5.0 * lg(n);
        t.row([
            n.to_string(),
            spec.init
                .actives_for(n)
                .expect("synthetic init")
                .to_string(),
            times.len().to_string(),
            fnum(ppsim::mean(&times)),
            format!("{:.1}", ppsim::mean(&times) / round),
            format!("{:.1}", ppsim::quantile(&times, 0.9) / round),
            format!("{:.2}", lg(n).log2()),
        ]);
    }
    t.print();
    println!(
        "Expected: the ~rounds column grows like log log n — i.e. barely moves\n\
         while n (and the entry count k) grows (Lemma 7.3: E[F_{{i+1}}|F_i] <=\n\
         5/6 F_i, so E[rounds] = O(log F_0)).\n"
    );
}
