//! Narrated run of the paper's protocol: a census at every epoch
//! transition showing the three phases unfold — partition, fast
//! elimination with biased coins, final elimination with the drag
//! counter.
//!
//! Epochs are reported by the protocol itself (`Protocol::epoch_of`
//! maps a leader's fast-elimination counter to an epoch index). The
//! example polls the population's epoch, the maximum `epoch_of` over the
//! configuration, every n/8 interactions and prints a census row whenever
//! it climbs; the `ppexp` `epoch_candidates` and `epoch_times`
//! observables do the same at round checkpoints for artifact pipelines.
//!
//! ```sh
//! cargo run --release --example trace_epochs [n]
//! ```

use population_protocols::core::{Census, Gsu19};
use population_protocols::ppsim::table::Table;
use population_protocols::ppsim::{AgentSim, BatchPolicy, Protocol, Simulator};

/// The population's epoch: the largest epoch any agent reports. O(n), so
/// it is polled every n/8 interactions, not after each one.
fn epoch(sim: &AgentSim<Gsu19>) -> Option<u32> {
    let mut best = None;
    sim.for_each_state(&mut |s, _| best = best.max(sim.protocol().epoch_of(s)));
    best
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1 << 12);

    let protocol = Gsu19::for_population(n);
    let params = *protocol.params();
    println!(
        "n = {n}, Φ = {}, Ψ = {}, Γ = {}, cnt starts at {}\n",
        params.phi,
        params.psi,
        params.gamma,
        params.cnt_init()
    );

    let mut sim = AgentSim::new(protocol, n as usize, 7);
    let mut t = Table::new([
        "epoch",
        "par.time",
        "phase",
        "active",
        "passive",
        "withdrawn",
        "coins",
        "junta",
        "uninit",
        "max drag",
    ]);

    let budget = 40_000 * n;
    let mut shown = None;
    let mut done = false;
    while !done {
        // Exact per-step stabilisation check between epoch polls.
        let chunk = (n / 8).min(budget - sim.interactions());
        done = sim.steps_until(chunk, &BatchPolicy::PerStep, &mut |s| s.is_stably_elected())
            || sim.interactions() == budget;
        let Some(epoch) = epoch(&sim).filter(|&e| Some(e) > shown) else {
            continue;
        };
        shown = Some(epoch);
        let c = Census::of(&sim, &params);
        let cnt = params.cnt_init().saturating_sub(epoch as u8);
        let phase = if cnt == params.cnt_init() {
            "init".to_string()
        } else if cnt == 0 {
            "final elim".to_string()
        } else {
            format!("fast elim (coin {})", params.coin_for_cnt(cnt).unwrap_or(0))
        };
        t.row([
            epoch.to_string(),
            format!("{:.0}", sim.parallel_time()),
            phase,
            c.active.to_string(),
            c.passive.to_string(),
            c.withdrawn.to_string(),
            c.coins().to_string(),
            c.coin_levels[params.phi as usize].to_string(),
            c.uninitialised().to_string(),
            c.max_alive_drag.map(|d| d.to_string()).unwrap_or_default(),
        ]);
    }

    t.print();

    let c = Census::of(&sim, &params);
    println!(
        "\nfinal: {} active, {} passive, {} withdrawn — {}",
        c.active,
        c.passive,
        c.withdrawn,
        if sim.is_stably_elected() {
            "unique leader elected"
        } else {
            "still running (raise the budget)"
        }
    );
}
