//! Experiment F2 — the empirical counterpart of the paper's **Figure 2**
//! ("An idealised scheme of the fast elimination process"):
//!
//! ```text
//! A ≤ n/2 --(coin Φ)--> A ≤ n^a --> ... --(coin 1)--> A ≤ c·log n
//! ```
//!
//! We track the number of *active* leader candidates at every epoch
//! transition of the fast-elimination countdown — the `epoch_candidates`
//! registry observable, fired whenever the leaders' `cnt` decrements
//! (`Protocol::epoch_of`, maximised over the population at each round
//! checkpoint) — and compare the per-round survival factor with the coin
//! bias `q` used in that round (Lemma 6.1: the expected reduction factor
//! is `q` as long as heads still occur; once `A·q ≲ log n` rounds go void
//! and the count plateaus at `O(log n)`).
//!
//! Two panels:
//! * **cascade only** (rule (11) disabled, `gsu19-no-backup`) — the pure
//!   Lemma 6.2 dynamics;
//! * **full protocol** — at bench-scale n the always-on backup duels
//!   already thin the n/2 candidates to ~n/round-length during the long
//!   first round (the paper: rule (11) "may only speed up the elimination
//!   process"), so the cascade finishes from a much lower starting point.

use bench::{lg, one_config, scale, Scale};
use core_protocol::{Gsu19, Params};
use ppexp::{run_experiment, Observables, ProtocolKind, StopCondition};
use ppsim::table::{fnum, Table};

fn trajectory_panel(title: &str, protocol: ProtocolKind, n: u64, trials: usize, seed: u64) {
    let params = *Gsu19::for_population(n).params();
    let total_rounds = params.cnt_init() as usize + 6;

    let mut spec = one_config(protocol, n, trials, seed, 0.0);
    spec.observables = Observables::parse("epoch_candidates").expect("registered");
    spec.stop = StopCondition::Stabilize {
        budget_pt: 100.0 * lg(n) * total_rounds as f64,
    };
    let artifact = run_experiment(&spec).expect("figure 2 preset is valid");
    let config = &artifact.configs[0];

    println!("--- {title} ---");
    let mut t = Table::new([
        "epoch", "cnt", "coin", "bias q", "mean A", "A_next/A", "note",
    ]);
    let mut prev_mean: Option<f64> = None;
    // One row per epoch transition every *converged* trial reached (the
    // countdown is lockstep, so ordinals line up across trials;
    // aggregates only cover converged trials, hence the failure offset).
    let converged = config.trials.len() - config.failures;
    for k in 0.. {
        let (Some(val), Some(active)) = (
            config.aggregate(&format!("epoch{k}_val")),
            config.aggregate(&format!("epoch{k}_active")),
        ) else {
            break;
        };
        if val.n < converged {
            break; // not every trial got this far before stabilising
        }
        let cnt = params.cnt_init().saturating_sub(val.mean.round() as u8);
        let (coin, bias) = describe_coin(&params, cnt);
        let mean = active.mean;
        let factor = prev_mean.map(|p| mean / p);
        let note = if cnt == 0 {
            "final epoch"
        } else if mean <= 10.0 * lg(n) {
            "<= c*log n plateau"
        } else {
            ""
        };
        t.row([
            k.to_string(),
            cnt.to_string(),
            coin,
            bias,
            fnum(mean),
            factor.map(|f| format!("{f:.3}")).unwrap_or_default(),
            note.to_string(),
        ]);
        prev_mean = Some(mean);
    }
    t.print();
    println!();
}

fn describe_coin(params: &Params, cnt: u8) -> (String, String) {
    match params.coin_for_cnt(cnt) {
        Some(l) => (format!("{l}"), format!("{:.2e}", params.coin_bias(l))),
        None => ("-".into(), "-".into()),
    }
}

fn main() {
    let sc = scale();
    let n: u64 = match sc {
        Scale::Quick => 1 << 11,
        Scale::Default => 1 << 13,
        Scale::Large => 1 << 15,
    };
    let trials = sc.trials(n).min(12);
    println!("=== F2: fast elimination trajectory (Figure 2), n = {n} ===\n");

    trajectory_panel(
        "cascade only (backup rule (11) disabled)",
        ProtocolKind::Gsu19NoBackup,
        n,
        trials,
        21,
    );
    trajectory_panel("full protocol", ProtocolKind::Gsu19, n, trials, 22);

    println!(
        "Expected shape (cascade panel): A starts at ≈ n/2, each coin-ℓ round\n\
         multiplies it by ≈ q (Lemma 6.1) until the O(log n) plateau\n\
         (c·log₂ n ≈ {:.0} here), after which rounds go void; the final epoch\n\
         (coin 0, q ≈ 1/4) finishes the job (Lemma 6.2 / Figure 2).",
        10.0 * lg(n)
    );
}
