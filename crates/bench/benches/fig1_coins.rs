//! Experiment F1 — the empirical counterpart of the paper's **Figure 1**
//! ("An idealized scheme of coin sub-populations and their relation to
//! biased coins").
//!
//! For each population size we let the coin preprocessing settle, then
//! report per level ℓ: the sub-population size `C_ℓ` (coins at level ≥ ℓ),
//! its fraction of the population (= the heads bias of coin ℓ), the
//! idealised `f_{ℓ+1} = f_ℓ²/2` prediction, and the Lemma 5.1/5.2 envelope
//! `[9/20·q², 11/10·q²]·n` applied level by level to the *measured* sizes.
//! The junta line checks Lemma 5.3: `n^0.45 ≤ C_Φ ≤ n^0.77`.
//!
//! The measurement itself is a `ppexp` experiment: a fixed-horizon census
//! study of GSU19, one spec per population, with the per-level means read
//! from the artifact's `coins_ge{l}` aggregates.

use bench::{lg, scale};
use core_protocol::Gsu19;
use ppexp::{run_experiment, ExperimentSpec, Observables, ProtocolKind, StopCondition};
use ppsim::table::{fnum, Table};

fn main() {
    let sc = scale();
    println!("=== F1: coin sub-populations and biased coins (Figure 1) ({sc:?} scale) ===\n");

    for &n in &sc.n_grid() {
        let params = *Gsu19::for_population(n).params();
        let trials = sc.trials(n).min(16);

        // Mean C_ℓ over trials, measured once preprocessing has settled
        // (well past the first round: 12·round-length ≈ 60·log₂ n).
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Gsu19],
            ns: vec![n],
            trials,
            seed: 11,
            observables: Observables::parse("level_sizes").expect("registered"),
            stop: StopCondition::Horizon {
                at_pt: 60.0 * lg(n),
            },
            ..ExperimentSpec::default()
        };
        let artifact = run_experiment(&spec).expect("figure 1 spec is valid");
        let config = &artifact.configs[0];

        let mut t = Table::new([
            "level",
            "C_l(mean)",
            "frac=bias",
            "ideal f_l",
            "env_lo",
            "env_hi",
            "ok",
        ]);
        let mut prev_mean: Option<f64> = None;
        for l in 0..=params.phi {
            let mean = config
                .aggregate(&format!("coins_ge{l}"))
                .expect("census metrics present")
                .mean;
            let frac = mean / n as f64;
            let ideal = params.coin_bias(l);
            // Envelope from the measured previous level (Lemmas 5.1/5.2).
            let (lo, hi, ok) = match prev_mean {
                None => (f64::NAN, f64::NAN, "-".to_string()),
                Some(p) => {
                    let q = p / n as f64;
                    let lo = 0.45 * q * q * n as f64;
                    let hi = 1.10 * q * q * n as f64;
                    let ok = if mean >= lo && mean <= hi {
                        "yes"
                    } else {
                        "NO"
                    };
                    (lo, hi, ok.to_string())
                }
            };
            t.row([
                format!("{l}{}", if l == params.phi { " (junta)" } else { "" }),
                fnum(mean),
                format!("{frac:.2e}"),
                format!("{ideal:.2e}"),
                fnum(lo),
                fnum(hi),
                ok,
            ]);
            prev_mean = Some(mean);
        }
        println!("n = {n} (Φ = {}, Γ = {})", params.phi, params.gamma);
        t.print();

        // Lemma 5.3: junta size within [n^0.45, n^0.77]. The lemma is
        // asymptotic, so at small n an exponent just outside the window
        // is noted against the loose practical window 0.30–0.85.
        let junta = prev_mean.unwrap_or(0.0);
        let expo = junta.max(1.0).ln() / (n as f64).ln();
        println!(
            "junta C_Φ = {:.1} = n^{:.3}  (Lemma 5.3 window [n^0.45, n^0.77]: {})\n",
            junta,
            expo,
            if (0.45..=0.77).contains(&expo) {
                "within"
            } else if (0.30..=0.85).contains(&expo) {
                "outside, but within the loose practical window [n^0.30, n^0.85]"
            } else {
                "outside, and outside the loose practical window [n^0.30, n^0.85]"
            }
        );
    }
}
