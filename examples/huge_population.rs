//! Simulating a population of a **billion** agents on a laptop: the urn
//! simulator stores one counter per *state* instead of one entry per
//! agent, so memory is O(|states|) and the population size only bounds
//! the counters.
//!
//! With exact batched sampling (`ppsim::batch`) whole blocks of n/16
//! interactions are sampled at once, so even *parallel-time-scale*
//! horizons at n = 2³⁰ — billions of interactions — are practical: this
//! run of 8.6 billion took 36–43 s on one thread of a shared 2-vCPU
//! container and peaked at 13.7 MiB resident. The example follows the
//! protocol through its opening (the partition rules, the coin race, the
//! first junta levels) and prints the census trajectory.
//!
//! The run is a `ppexp` horizon experiment with census observables
//! sampled at doubling parallel times — the declarative form of "follow
//! the opening", identical to
//! `ppctl run --protocol gsu19 --engine urn-batched --n 1073741824 \
//!  --trials 1 --at 8 --sample-at 0.5,1,2,4,8 --observables census`.
//!
//! ```sh
//! cargo run --release --example huge_population
//! ```

use population_protocols::core::Gsu19;
use population_protocols::ppexp::{
    run_experiment, EngineKind, ExperimentSpec, Observables, ProtocolKind, StopCondition,
};
use population_protocols::ppsim::batched_block;
use population_protocols::ppsim::table::Table;

fn main() {
    let n: u64 = 1 << 30;
    let params = *Gsu19::for_population(n).params();
    println!(
        "n = 2^30 = {n} agents, Φ = {}, Ψ = {}, Γ = {}, {} states, urn memory ≈ {} KiB\n",
        params.phi,
        params.psi,
        params.gamma,
        params.num_states(),
        params.num_states() * 8 / 1024,
    );

    let spec = ExperimentSpec {
        protocols: vec![ProtocolKind::Gsu19],
        engine: EngineKind::UrnBatched,
        ns: vec![n],
        trials: 1,
        seed: 1234,
        observables: Observables::parse("census").expect("registered"),
        stop: StopCondition::Horizon { at_pt: 8.0 },
        sample_at: vec![0.5, 1.0, 2.0, 4.0, 8.0],
        ..ExperimentSpec::default()
    };
    let artifact = run_experiment(&spec).expect("huge-population spec is valid");
    let record = &artifact.configs[0].trials[0];

    // Parallel times 0.5, 1, 2, 4, 8: over 8.5 billion interactions. The
    // sequential urn path would need ~35 minutes for this; the batched
    // engine runs it as 128 blocks of n/16, each split into 512 exact
    // sub-batches of about 4√n.
    let trace = |name: &str| {
        record
            .outcome
            .traces
            .iter()
            .find(|s| s.name == name)
            .expect("census trace recorded")
    };
    let mut t = Table::new([
        "parallel time",
        "zero",
        "X",
        "coins",
        "inhibitors",
        "leaders(alive)",
    ]);
    let zero = trace("zero");
    for (k, &target) in spec.sample_at.iter().enumerate() {
        t.row([
            format!("{target}"),
            format!("{}", zero.v[k] as u64),
            format!("{}", trace("x").v[k] as u64),
            format!("{}", trace("coins").v[k] as u64),
            format!("{}", trace("inhibitors").v[k] as u64),
            format!("{}", trace("alive").v[k] as u64),
        ]);
    }
    t.print();

    println!(
        "\n{} interactions simulated; an agent-array for 2^30 agents of\n\
         this protocol would need ≥ 8 GiB, the urn holds {} counters and\n\
         samples whole batches of {} interactions at a time.\n\
         Replay this exact trial: ppctl run --protocol gsu19 --engine urn-batched \
         --n {n} --trials 1 --seed 1234 --at 8 --sample-at 0.5,1,2,4,8 \
         --observables census --replay 0:0",
        record.outcome.metric("interactions").unwrap_or(f64::NAN) as u64,
        params.num_states(),
        batched_block(n),
    );
}
