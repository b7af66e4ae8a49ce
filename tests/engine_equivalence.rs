//! The execution engines must simulate the *same* Markov chain: an urn of
//! anonymous agents. These tests compare them distributionally on the
//! paper's protocol — beyond the structural snapshot agreement of
//! `end_to_end.rs`, here we compare convergence-time distributions and
//! trajectory marginals across [`AgentSim`], sequential [`UrnSim`] and the
//! batched `UrnSim` path (`UrnSim::with_block`, see `ppsim::batch`).
//!
//! The batched path carries a **bit-level gate**: the exact
//! collision-resampling engine records its interaction trace as ordered
//! `(responder, initiator)` state-id pairs, and replaying that trace
//! sequentially (`UrnSim::replay_interaction`) must reproduce the batched
//! configuration bit for bit — exhaustively over tiny populations × block
//! sizes × seeds, and on a seeded n = 2^20 run. That gate is the proof
//! obligation for the exactness claim (a batch of b interactions is
//! distributed as b sequential steps).
//!
//! The KS / chi-square comparisons below are kept as a *sanity layer*: they
//! would catch a sampler that replays its own trace consistently but draws
//! from the wrong distribution (e.g. a biased collision-case weight). All
//! seeds are fixed, so CI sees a deterministic computation — the
//! significance levels are deliberately generous (α = 0.001-ish critical
//! values) and refer to the draw of the seeds, not to reruns.

use population_protocols::baselines::SlowLe;
use population_protocols::core::{Census, Gsu19};
use population_protocols::ppsim::{
    chi_square_stat, ks_critical, ks_statistic, mean, run_trials_threads, run_until_stable,
    AgentSim, EnumerableProtocol, Simulator, UrnSim,
};

/// Replays a batched run's recorded trace on a fresh simulator and asserts
/// the configurations agree bit for bit.
fn assert_trace_replays<P>(make: impl Fn() -> P, n: u64, seed: u64, k: u64, block: u64)
where
    P: EnumerableProtocol,
{
    let mut batched = UrnSim::new(make(), n, seed).with_block(block);
    let mut trace = Vec::new();
    batched.steps_batched_traced(k, &mut trace);
    assert_eq!(trace.len() as u64, k, "trace must record every interaction");
    // Different seed on purpose: replay consumes no randomness.
    let mut replayed = UrnSim::new(make(), n, seed ^ 0xdead_beef);
    for &(r, i) in &trace {
        replayed.replay_interaction(r, i);
    }
    assert_eq!(
        replayed.nonzero_counts(),
        batched.nonzero_counts(),
        "n={n} seed={seed} k={k}: replayed configuration diverged"
    );
    assert_eq!(replayed.output_counts(), batched.output_counts());
    assert_eq!(replayed.interactions(), batched.interactions());
}

#[test]
fn batched_trace_replay_bit_identical_exhaustive_tiny() {
    // Exhaustive sweep over tiny populations, block granularities (n >> 1
    // is n/2, the engine's maximum batch; smaller blocks force block
    // splits and per-step fallbacks) and seeds, on both the paper's
    // protocol and the slow baseline.
    for n in [4u64, 6, 8, 16, 32, 64] {
        for shift in [1u32, 2, 3, 5] {
            let block = n >> shift;
            for seed in 0..4u64 {
                assert_trace_replays(|| SlowLe, n, seed, 40 * n, block);
                if n >= 16 {
                    // Gsu19's parameter derivation needs n ≥ 16.
                    assert_trace_replays(|| Gsu19::for_population(n), n, seed, 40 * n, block);
                }
            }
        }
    }
}

#[test]
fn batched_trace_replay_bit_identical_large() {
    // Seeded large-population gate: one n = 2^20 run of the paper's
    // protocol, long enough that every block runs many exact sub-batches.
    let n = 1u64 << 20;
    assert_trace_replays(|| Gsu19::for_population(n), n, 97, 4 * n, n / 16);
}

#[test]
fn convergence_time_distributions_match_gsu19() {
    let n = 1u64 << 9;
    let trials = 12;
    let agent_times = run_trials_threads(trials, 100, 2, |_, seed| {
        let mut sim = AgentSim::new(Gsu19::for_population(n), n as usize, seed);
        let res = run_until_stable(&mut sim, 100_000 * n);
        assert!(res.converged);
        res.parallel_time
    });
    let urn_times = run_trials_threads(trials, 200, 2, |_, seed| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed);
        let res = run_until_stable(&mut sim, 100_000 * n);
        assert!(res.converged);
        res.parallel_time
    });
    let ma = mean(&agent_times);
    let mu = mean(&urn_times);
    let rel = (ma - mu).abs() / ma;
    assert!(
        rel < 0.35,
        "agent mean {ma:.1} vs urn mean {mu:.1} (rel {rel:.2})"
    );
}

#[test]
fn trajectory_marginals_match_slow_protocol() {
    // The slow protocol's candidate-count trajectory has a known clean
    // marginal: with leader fraction x, an interaction eliminates one
    // leader with probability x², so dx/dt = −x² in parallel time and
    // x(t) = 1/(1+t). Both engines must produce it.
    let n = 1u64 << 12;
    let check = |leaders: u64, t: f64| {
        let expected = n as f64 / (1.0 + t);
        let rel = (leaders as f64 - expected).abs() / expected;
        assert!(
            rel < 0.25,
            "at t={t}: {leaders} leaders vs expected {expected:.0}"
        );
    };
    let mut agent = AgentSim::new(SlowLe, n as usize, 5);
    let mut urn = UrnSim::new(SlowLe, n, 6);
    for k in 1..=8u64 {
        agent.steps(2 * n);
        urn.steps(2 * n);
        let t = 2.0 * k as f64;
        check(agent.leaders(), t);
        check(urn.leaders(), t);
    }
}

#[test]
fn census_totals_conserved_on_both_engines() {
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();

    let mut agent = AgentSim::new(proto, n as usize, 7);
    let proto = Gsu19::for_population(n);
    let mut urn = UrnSim::new(proto, n, 8);
    for _ in 0..10 {
        agent.steps(30 * n);
        urn.steps(30 * n);
        assert_eq!(Census::of(&agent, &params).total(), n);
        assert_eq!(Census::of(&urn, &params).total(), n);
    }
}

#[test]
fn batched_vs_sequential_stabilisation_times_ks() {
    // Kolmogorov–Smirnov gate on the stabilisation-time distribution of
    // the paper's protocol: batched UrnSim vs sequential UrnSim vs
    // AgentSim, 20 seeded trials each. Distinct master seeds per engine —
    // we compare distributions, not trajectories.
    let n = 1u64 << 10;
    let trials = 20;
    let budget = 100_000 * n;
    let agent_times = run_trials_threads(trials, 1100, 2, |_, seed| {
        let mut sim = AgentSim::new(Gsu19::for_population(n), n as usize, seed);
        let res = run_until_stable(&mut sim, budget);
        assert!(res.converged);
        res.parallel_time
    });
    let urn_times = run_trials_threads(trials, 1200, 2, |_, seed| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed);
        let res = run_until_stable(&mut sim, budget);
        assert!(res.converged);
        res.parallel_time
    });
    let batched_times = run_trials_threads(trials, 1300, 2, |_, seed| {
        // Blocks of n/16, the default rule's fraction, below its cutoff.
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed).with_block(n / 16);
        let res = run_until_stable(&mut sim, budget);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        res.parallel_time
    });
    // Generous critical value: α = 0.001 → reject only a gross mismatch.
    let crit = ks_critical(trials, trials, 0.001);
    let d_seq = ks_statistic(&batched_times, &urn_times);
    let d_agent = ks_statistic(&batched_times, &agent_times);
    let d_ref = ks_statistic(&urn_times, &agent_times);
    assert!(
        d_seq < crit,
        "batched vs sequential urn: D={d_seq:.3} ≥ {crit:.3}"
    );
    assert!(
        d_agent < crit,
        "batched urn vs agent: D={d_agent:.3} ≥ {crit:.3}"
    );
    assert!(
        d_ref < crit,
        "sequential urn vs agent: D={d_ref:.3} ≥ {crit:.3}"
    );
}

#[test]
fn batched_leader_count_distribution_chi_square() {
    // Chi-square gate on a configuration marginal: the number of leader
    // candidates of the slow protocol at parallel time 4 follows a clean
    // distribution concentrated near n/5. Histogram the counts from many
    // seeded trials of each engine over common bins and test homogeneity.
    let n = 1u64 << 12;
    let trials = 60;
    let leaders_seq = run_trials_threads(trials, 2100, 4, |_, seed| {
        let mut sim = UrnSim::new(SlowLe, n, seed);
        sim.steps(4 * n);
        sim.leaders()
    });
    let leaders_batched = run_trials_threads(trials, 2200, 4, |_, seed| {
        let mut sim = UrnSim::new(SlowLe, n, seed).with_block(n / 16);
        sim.steps(4 * n);
        sim.leaders()
    });
    // Common equal-width bins spanning both samples.
    let lo = *leaders_seq
        .iter()
        .chain(&leaders_batched)
        .min()
        .expect("non-empty");
    let hi = *leaders_seq
        .iter()
        .chain(&leaders_batched)
        .max()
        .expect("non-empty");
    let bins = 6usize;
    let width = ((hi - lo) / bins as u64 + 1).max(1);
    let histogram = |xs: &[u64]| {
        let mut h = vec![0u64; bins];
        for &x in xs {
            h[((x - lo) / width) as usize] += 1;
        }
        h
    };
    let (stat, dof) = chi_square_stat(&histogram(&leaders_seq), &histogram(&leaders_batched));
    // χ²(5) at α = 0.001 is 20.5; the gate sits above it so only a
    // systematically shifted distribution trips.
    assert!(
        stat < 22.0,
        "leader-count χ²({dof}) = {stat:.1} — batched marginal diverged"
    );
}

#[test]
fn batched_convergence_time_mean_matches() {
    // Coarser (and cheaper) version of the KS gate at a larger population
    // where the batch size is meaningful: means within 35% like the
    // original two-engine test.
    let n = 1u64 << 12;
    let trials = 10;
    let budget = 100_000 * n;
    let urn_times = run_trials_threads(trials, 3100, 2, |_, seed| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed);
        run_until_stable(&mut sim, budget).parallel_time
    });
    let batched_times = run_trials_threads(trials, 3200, 2, |_, seed| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed).with_block(n / 16);
        run_until_stable(&mut sim, budget).parallel_time
    });
    let mu = mean(&urn_times);
    let mb = mean(&batched_times);
    let rel = (mu - mb).abs() / mu;
    assert!(
        rel < 0.35,
        "sequential mean {mu:.1} vs batched mean {mb:.1} (rel {rel:.2})"
    );
}

#[test]
fn batched_census_totals_conserved() {
    // Structural gate: the batched path must conserve the population and
    // every census category total along the way.
    let n = 1u64 << 12;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let mut sim = UrnSim::new(proto, n, 4100).with_block(n / 16);
    for _ in 0..10 {
        sim.steps(10 * n);
        assert_eq!(Census::of(&sim, &params).total(), n);
        assert_eq!(sim.output_counts().iter().sum::<u64>(), n);
    }
}

#[test]
fn urn_handles_heterogeneous_start() {
    use population_protocols::core::synthetic::final_epoch_config;
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let states: Vec<_> = final_epoch_config(&params, n, 20, 9).collect();
    // Aggregate into counts for the urn.
    let mut counts: std::collections::HashMap<_, u64> = std::collections::HashMap::new();
    for s in &states {
        *counts.entry(*s).or_insert(0) += 1;
    }
    let counts: Vec<_> = counts.into_iter().collect();
    let proto2 = Gsu19::for_population(n);
    let mut urn = UrnSim::with_counts(proto2, &counts, 10);
    assert_eq!(urn.population(), n);
    let c = Census::of(&urn, &params);
    assert_eq!(c.active, 20);
    let res = run_until_stable(&mut urn, 100_000 * n);
    assert!(res.converged);
    assert_eq!(urn.leaders(), 1);
}

/// FNV-1a over a configuration's (state id, multiplicity) pairs in state-id
/// order: a compact pin for a configuration spread over many states.
fn fingerprint(sim: &UrnSim<Gsu19>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (state, count) in sim.nonzero_counts() {
        for word in [sim.protocol().state_id(state) as u64, count] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn batched_stop_is_the_trace_first_hit_gsu19() {
    // Gsu19 at n = 4096 runs on the shuffled sampler, whose draws depend on
    // the order of the occupied states (Slow's two states keep the urn unit
    // tests on the bucketized one). The stop must land on the recorded
    // trace's first hit with the replayed configuration, call the
    // predicate a pinned number of times, and leave the RNG state and
    // occupancy order that a pinned continuation depends on.
    let n = 4096u64;
    let k = 1u64 << 18;
    // Blocks of four 256-interaction sub-batches.
    let block = n / 4;
    let hit = |s: &UrnSim<Gsu19>| s.undecided() <= 100;

    let mut traced = UrnSim::new(Gsu19::for_population(n), n, 5).with_block(block);
    let mut trace = Vec::new();
    traced.steps_batched_traced(k, &mut trace);
    let mut replayed = UrnSim::new(Gsu19::for_population(n), n, 1);
    let mut first_hit = None;
    for (j, &(r, i)) in trace.iter().enumerate() {
        replayed.replay_interaction(r, i);
        if hit(&replayed) {
            first_hit = Some(j as u64 + 1);
            break;
        }
    }
    let first_hit = first_hit.expect("trace long enough to hit");

    let mut sim = UrnSim::new(Gsu19::for_population(n), n, 5).with_block(block);
    let mut calls = 0u64;
    assert!(sim.steps_until(k, |s| {
        calls += 1;
        hit(s)
    }));
    assert_eq!(sim.interactions(), first_hit);
    assert_eq!(sim.nonzero_counts(), replayed.nonzero_counts());
    assert_eq!(sim.output_counts(), replayed.output_counts());
    assert_eq!((first_hit, calls), (188_871, 641));
    sim.steps(50_000);
    assert_eq!(sim.output_counts(), [83, 3933, 80]);
    assert_eq!(fingerprint(&sim), 0x74bc_1a04_4536_aabe);
}
