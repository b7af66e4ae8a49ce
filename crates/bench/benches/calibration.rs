//! Experiment CAL — sensitivity of the concrete parameter choices that
//! `core_protocol::params` derives from `n` (deviations from the paper's
//! asymptotic choices), swept through the spec-level `gamma`/`phi`/`psi`
//! overrides (one `ppexp` preset per swept value):
//!
//! 1. **Γ (clock modulus)**: sweep around `gamma_for(n)`. Too small and the
//!    late half-round cannot fit the heads broadcast (rounds go void, more
//!    rounds needed; in the extreme the rounds lose coherence and the slow
//!    backup carries the run); too large wastes a proportional factor on
//!    every round.
//! 2. **Φ (coin level cap)**: force Φ above/below the derived value. One
//!    level too high and the expected junta `n·f_Φ` collapses to a handful
//!    of agents — the clock crawls or never ticks; one too low and the
//!    junta is a constant fraction — rounds too short to broadcast in.
//! 3. **Ψ (drag cap)**: a cap of 1 still withdraws the drag-0 passives but
//!    cannot certify deeper progress; the derived `⌈log₂ log₂ n⌉ + 2`
//!    matches the whp horizon.

use bench::{one_config, scale, times_of, Scale};
use core_protocol::Params;
use ppexp::{run_experiment, ConfigResult, ProtocolKind};
use ppsim::stats::Summary;
use ppsim::table::{fnum, Table};

fn main() {
    let sc = scale();
    let n: u64 = match sc {
        Scale::Quick => 1 << 10,
        _ => 1 << 12,
    };
    let trials = match sc {
        Scale::Quick => 8,
        Scale::Default => 16,
        Scale::Large => 32,
    };
    println!("=== CAL: parameter sensitivity at n = {n} ({sc:?} scale) ===\n");

    gamma_sweep(n, trials);
    phi_sweep(n, trials);
    psi_sweep(n, trials);
}

/// One stabilisation study with the given parameter overrides
/// (`0` = derived).
fn measure(n: u64, trials: usize, seed: u64, gamma: u16, phi: u8, psi: u8) -> ConfigResult {
    let mut spec = one_config(ProtocolKind::Gsu19, n, trials, seed, 120_000.0);
    spec.gamma = gamma;
    spec.phi = phi;
    spec.psi = psi;
    let artifact = run_experiment(&spec).expect("calibration preset is valid");
    artifact.configs.into_iter().next().expect("one config")
}

fn sweep_row(t: &mut Table, label: String, config: &ConfigResult) {
    let times = times_of(config);
    let s = Summary::of(&times);
    t.row([
        label,
        config.failures.to_string(),
        fnum(s.mean),
        fnum(s.median),
        fnum(ppsim::quantile(&times, 0.9)),
    ]);
}

fn gamma_sweep(n: u64, trials: usize) {
    let base = Params::for_population(n).gamma;
    println!("--- Γ sweep (derived Γ = {base}) ---");
    let mut t = Table::new(["Γ (factor)", "fail", "mean t", "median", "p90"]);
    for factor in [0.5, 0.75, 1.0, 1.5, 2.0] {
        let gamma = (((base as f64 * factor) as u16).max(8) + 1) & !1;
        let config = measure(n, trials, 101, gamma, 0, 0);
        sweep_row(&mut t, format!("{gamma} ({factor:.2})"), &config);
    }
    t.print();
    println!(
        "Measured behaviour: mean time scales ~linearly with Γ and *smaller* Γ\n\
         wins at bench-scale n — incomplete late-half broadcasts only cost\n\
         extra rounds (a graceful, Las-Vegas-safe degradation), so the\n\
         derived Γ (sized for whp-complete broadcasts) is deliberately\n\
         conservative, paying ~2x mean time for round-level guarantees.\n"
    );
}

fn phi_sweep(n: u64, trials: usize) {
    let natural = Params::for_population(n).phi;
    println!("--- Φ sweep (derived Φ = {natural}) ---");
    let mut t = Table::new(["Φ", "E[junta]", "fail", "mean t", "median", "p90"]);
    for phi in 1..=(natural + 1) {
        let expected_junta = components::junta::expected_fraction_at_level(0.25, phi) * n as f64;
        let config = measure(n, trials, 102, 0, phi, 0);
        let times = times_of(&config);
        let s = Summary::of(&times);
        t.row([
            format!("{phi}{}", if phi == natural { " (derived)" } else { "" }),
            fnum(expected_junta),
            config.failures.to_string(),
            fnum(s.mean),
            fnum(s.median),
            fnum(ppsim::quantile(&times, 0.9)),
        ]);
    }
    t.print();
    println!(
        "Expected: Φ one above the derived value shrinks the expected junta\n\
         to a handful of agents — the clock crawls and times blow up (or the\n\
         run falls back to the slow path entirely).\n"
    );
}

fn psi_sweep(n: u64, trials: usize) {
    let natural = Params::for_population(n).psi;
    println!("--- Ψ sweep (derived Ψ = {natural}) ---");
    let mut t = Table::new(["Ψ", "fail", "mean t", "median", "p90"]);
    for psi in [1, natural] {
        let config = measure(n, trials, 103, 0, 0, psi);
        sweep_row(
            &mut t,
            format!("{psi}{}", if psi == natural { " (derived)" } else { "" }),
            &config,
        );
    }
    t.print();
    println!(
        "Expected: at bench-scale n even Ψ = 1 suffices — in fact the two\n\
         variants produce bit-identical trajectories at equal seeds because\n\
         no agent's drag would pass 1 within the run; the derived cap matters\n\
         for the whp horizon at large n (Section 7's Θ(n log² n) window)."
    );
}
