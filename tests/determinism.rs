//! Deterministic replay: the engines are functions of (protocol, n, seed)
//! only. Two runs with the same seed must produce a bit-identical
//! interaction trace — same per-step output counts, same agent-state
//! trajectory — and an identical final census. This guards the
//! `split_seed` / `trial_seeds` contract of `ppsim::rng` that every
//! experiment's reproducibility rests on.

use population_protocols::core::{Census, Gsu19};
use population_protocols::ppsim::{
    run_until_stable, split_seed, trial_seeds, AgentSim, Simulator, UrnSim,
};

#[test]
fn same_seed_replays_bit_identical_trace() {
    let n = 512usize;
    let seed = 0xDEAD_BEEF;
    let mut a = AgentSim::new(Gsu19::for_population(n as u64), n, seed);
    let mut b = AgentSim::new(Gsu19::for_population(n as u64), n, seed);

    // Step in lockstep through the opening of the run: the traces must
    // agree interaction by interaction, not just at the end.
    for step in 0..20_000u64 {
        a.step();
        b.step();
        assert_eq!(
            a.output_counts(),
            b.output_counts(),
            "output trace diverged at interaction {step}"
        );
        if step % 1024 == 0 {
            assert_eq!(
                a.states(),
                b.states(),
                "states diverged at interaction {step}"
            );
        }
    }
    assert_eq!(a.states(), b.states());
}

#[test]
fn chunked_stepping_matches_single_stepping() {
    // `steps(k)` must consume the RNG stream exactly like k × `step()` —
    // batching is a performance knob, never a semantic one.
    let n = 256usize;
    let mut single = AgentSim::new(Gsu19::for_population(n as u64), n, 7);
    let mut chunked = AgentSim::new(Gsu19::for_population(n as u64), n, 7);
    for _ in 0..10_000 {
        single.step();
    }
    chunked.steps(3_000);
    chunked.steps(6_999);
    chunked.steps(1);
    assert_eq!(single.interactions(), chunked.interactions());
    assert_eq!(single.states(), chunked.states());
}

#[test]
fn full_run_replays_to_identical_census() {
    let n = 512u64;
    let run = |seed: u64| {
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = AgentSim::new(proto, n as usize, seed);
        let res = run_until_stable(&mut sim, 60_000 * n);
        assert!(res.converged, "seed {seed} did not converge");
        (res.interactions, Census::of(&sim, &params))
    };
    let (t1, c1) = run(42);
    let (t2, c2) = run(42);
    assert_eq!(t1, t2, "stabilisation time not reproducible");
    assert_eq!(c1, c2, "final census not reproducible");

    // A different seed gives a different trajectory (overwhelmingly).
    let (t3, _) = run(43);
    assert_ne!(
        t1, t3,
        "distinct seeds produced identical stabilisation times"
    );
}

#[test]
fn steps_batched_replays_bit_identical() {
    // The batched path is a function of (protocol, n, seed, k, block)
    // only: two runs must agree on every counter, not just statistically.
    let n = 1u64 << 12;
    let run = |seed: u64| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, seed).with_block(n / 16);
        sim.steps(40 * n);
        (
            sim.interactions(),
            sim.output_counts(),
            sim.nonzero_counts(),
        )
    };
    let (i1, o1, c1) = run(0xBAD_CAFE);
    let (i2, o2, c2) = run(0xBAD_CAFE);
    assert_eq!(i1, i2);
    assert_eq!(o1, o2, "output counts diverged under batched steps");
    assert_eq!(c1, c2, "configuration diverged under batched steps");

    // A different seed gives a different configuration (overwhelmingly).
    let (_, _, c3) = run(0xBAD_CAFF);
    assert_ne!(c1, c3, "distinct seeds produced identical configurations");
}

#[test]
fn batched_chunking_is_a_performance_knob_only() {
    // Splitting the interaction budget across calls at batch-aligned points
    // consumes the RNG stream identically: one call of 8 batches must equal
    // eight calls of one batch, bit for bit.
    let n = 1u64 << 12;
    let b = n / 16;
    let mut whole = UrnSim::new(Gsu19::for_population(n), n, 99).with_block(b);
    let mut split = UrnSim::new(Gsu19::for_population(n), n, 99).with_block(b);
    whole.steps(8 * b);
    for _ in 0..8 {
        split.steps(b);
    }
    assert_eq!(whole.interactions(), split.interactions());
    assert_eq!(whole.output_counts(), split.output_counts());
    assert_eq!(whole.nonzero_counts(), split.nonzero_counts());
}

#[test]
fn batched_stopping_time_is_reproducible() {
    // On a batched urn the stopping predicate is probed at block
    // boundaries but the engine rewinds and replays the recorded trace to
    // the exact first hit, so the reported stabilisation time is the true
    // first satisfying interaction — and it must be identical on every run.
    let n = 1u64 << 12;
    let run = |seed: u64| {
        let proto = Gsu19::for_population(n);
        let params = *proto.params();
        let mut sim = UrnSim::new(proto, n, seed).with_block(n / 16);
        let res = run_until_stable(&mut sim, 100_000 * n);
        assert!(res.converged, "seed {seed} did not converge");
        assert_eq!(
            res.interactions,
            sim.interactions(),
            "result must report the simulator's exact stop point"
        );
        (res, Census::of(&sim, &params))
    };
    let (r1, c1) = run(7);
    let (r2, c2) = run(7);
    assert_eq!(r1, r2, "batched stabilisation result not reproducible");
    assert_eq!(c1, c2, "batched final census not reproducible");
}

#[test]
fn trial_seeds_match_split_seed_contract() {
    // `run_trials` hands trial i the seed `split_seed(master, i)` no matter
    // which thread executes it; `trial_seeds` must enumerate exactly that
    // sequence so offline tooling can reproduce any single trial.
    for master in [0u64, 1, 42, u64::MAX] {
        let seeds = trial_seeds(master, 64);
        assert_eq!(seeds.len(), 64);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(
                s,
                split_seed(master, i as u64),
                "trial_seeds[{i}] disagrees with split_seed for master {master}"
            );
        }
    }
}
