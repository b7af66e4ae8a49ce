//! Experiment F3 — the empirical counterpart of the paper's **Figure 3**
//! ("The implementation of slowing down drag counter") and of
//! **Lemma 7.2**: the number of interactions `T_ℓ` between the first
//! active leader reaching drag ℓ and the first reaching drag ℓ+1 grows
//! like `Θ(4^ℓ · n · log n)`.
//!
//! The drag counter keeps ticking after stabilisation (the unique leader
//! keeps flipping and climbing), so the preset simply runs past
//! convergence with a `drag:TARGET` stop, and the `drag_times`
//! observable timestamps the first appearance of every drag value on an
//! active candidate (`drag_ge{l}_pt`, sampled on a fine round grid).
//! Reported: mean `T_ℓ`, the normalised `T_ℓ / (4^ℓ n log₂ n)` (should
//! be roughly level-independent) and the consecutive ratio
//! `T_{ℓ+1}/T_ℓ` (should hover near 4).

use bench::{lg, one_config, scale, Scale};
use core_protocol::Gsu19;
use ppexp::{run_experiment, EngineKind, Observables, ProtocolKind, StopCondition};
use ppsim::table::{fnum, Table};

fn main() {
    let sc = scale();
    let n: u64 = match sc {
        Scale::Quick => 1 << 10,
        Scale::Default => 1 << 11,
        Scale::Large => 1 << 12,
    };
    let params = *Gsu19::for_population(n).params();
    let target_drag = match sc {
        Scale::Quick => 3u8,
        Scale::Default => 4,
        Scale::Large => 5,
    }
    .min(params.psi);
    let trials = sc.trials(n).min(16);
    println!(
        "=== F3: drag-counter tick gaps (Figure 3 / Lemma 7.2), n = {n}, Ψ = {} ===\n",
        params.psi
    );

    // Budget: reaching drag ℓ costs ~Σ 4^i·log n ≈ (4^ℓ·4/3)·c·log n.
    let budget_parallel = 4f64.powi(target_drag as i32) * lg(n) * 40.0;

    let mut spec = one_config(ProtocolKind::Gsu19, n, trials, 31, 0.0);
    // The `drag:` stop takes a census at every check; on the urn a census
    // walks the occupied states, not all n agents.
    spec.engine = EngineKind::UrnBatched;
    spec.stop = StopCondition::DragReached {
        level: target_drag,
        budget_pt: budget_parallel,
    };
    spec.observables = Observables::parse("drag_times").expect("registered");
    // Fine observation grid (~n/4 interactions at bench-scale n), so the
    // level-0 → 1 gap isn't swallowed by quantisation.
    spec.round_every = 0.25 / lg(n);
    let artifact = run_experiment(&spec).expect("figure 3 preset is valid");
    let config = &artifact.configs[0];

    let mut t = Table::new([
        "l",
        "trials seen",
        "mean T_l (inter.)",
        "T_l/(4^l n lg n)",
        "T_{l}/T_{l-1}",
    ]);
    let mut prev_mean: Option<f64> = None;
    for step in 1..=target_drag as usize {
        // T_ℓ := gap between the first drag=ℓ and the first drag=ℓ+1
        // appearance; this row is ℓ = step − 1.
        let l = step - 1;
        let gaps: Vec<f64> = config
            .trials
            .iter()
            .filter_map(|r| {
                let a = r.outcome.metric(&format!("drag_ge{}_pt", step - 1))?;
                let b = r.outcome.metric(&format!("drag_ge{step}_pt"))?;
                (b > a).then_some((b - a) * n as f64)
            })
            .collect();
        if gaps.is_empty() {
            t.row([
                l.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let mean = ppsim::mean(&gaps);
        let norm = mean / (4f64.powi(l as i32) * n as f64 * lg(n));
        let ratio = prev_mean
            .map(|p| format!("{:.2}", mean / p))
            .unwrap_or_default();
        t.row([
            l.to_string(),
            gaps.len().to_string(),
            fnum(mean),
            format!("{norm:.4}"),
            ratio,
        ]);
        prev_mean = Some(mean);
    }
    t.print();

    println!(
        "\nExpected shape: normalised column ~level-independent, consecutive\n\
         ratio ~4 (Lemma 7.2: T_l = Θ(4^l n log n); the level-0 -> 1 tick also\n\
         includes the wait for the final epoch to begin, so the first ratio\n\
         runs low)."
    );
}
