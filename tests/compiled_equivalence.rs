//! Compiled-vs-dynamic transition equivalence — the correctness gate for
//! `ppsim::compiled` (see ISSUE 3 / ROADMAP).
//!
//! The compiled tables are probed from the dynamic transition under the
//! `FactoredProtocol` contract; these tests check the contract *holds*:
//!
//! * **exhaustively** over the full enumerated state space at small
//!   `Params` (every `(responder, initiator)` pair, every ablation
//!   variant);
//! * by **seeded sampling** at paper-scale `Params` (n = 2^20);
//! * at the **engine level**: because the packed id order is monotone in
//!   the codec order, a compiled engine consumes its RNG exactly like the
//!   dynamic one — trajectories must be *bit-identical* under decoding,
//!   on `AgentSim`, sequential `UrnSim` and the batched path alike;
//! * under **concurrent filling**: role entries fill on first lookup, so
//!   trials sharing one fresh table on several threads fill it in a
//!   different order on every run — and must still each match the same
//!   trial on a table of its own and on the dynamic protocol.
//!
//! The CI stress job runs this suite in release mode.

use std::process::Command;
use std::sync::Barrier;

use population_protocols::baselines::Gs18;
use population_protocols::core::{Census, Gsu19, Params};
use population_protocols::ppsim::{
    ks_critical, ks_statistic, run_trials_threads, run_until_stable, AgentSim, CompiledProtocol,
    EnumerableProtocol, FactoredProtocol, Protocol, Simulator, UrnSim,
};

/// Hand-built small parameters: every role component present, state space
/// small enough (≈ 2.8k states) for the full |S|² sweep in debug builds.
fn tiny_params() -> Params {
    Params {
        n: 16,
        gamma: 8,
        phi: 1,
        psi: 2,
        enable_drag: true,
        enable_backup: true,
        skip_fast_elim: false,
        direct_withdrawal: false,
    }
}

/// `tiny_params` with GS18's rule switches: no cascade, no drag, direct
/// withdrawal.
fn gs18_tiny_params() -> Params {
    Params {
        skip_fast_elim: true,
        enable_drag: false,
        direct_withdrawal: true,
        ..tiny_params()
    }
}

/// Exhaustive |S|² comparison of one protocol instance.
fn assert_exhaustive_equivalence(proto: Gsu19) {
    let c = CompiledProtocol::new(proto);
    let s = proto.num_states();
    let states: Vec<_> = (0..s).map(|id| proto.state_from_id(id)).collect();
    let packed: Vec<u32> = states.iter().map(|&st| c.encode_state(st)).collect();
    for r in 0..s {
        for i in 0..s {
            let (dr, di) = proto.transition(states[r], states[i]);
            let (cr, ci) = c.transition(packed[r], packed[i]);
            assert_eq!(
                c.decode_state(cr),
                dr,
                "responder mismatch at ({:?}, {:?})",
                states[r],
                states[i]
            );
            assert_eq!(
                c.decode_state(ci),
                di,
                "initiator mismatch at ({:?}, {:?})",
                states[r],
                states[i]
            );
        }
    }
}

#[test]
fn exhaustive_equivalence_tiny_params() {
    assert_exhaustive_equivalence(Gsu19::new(tiny_params()));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two more |S|² sweeps; run by the release-mode CI stress job"
)]
fn exhaustive_equivalence_tiny_params_ablations() {
    // The GS18-style variant (skip cascade, no drag, direct withdrawal)
    // and the no-backup variant exercise every disabled-rule branch.
    assert_exhaustive_equivalence(Gsu19::new(gs18_tiny_params()));

    let mut no_backup = tiny_params();
    no_backup.enable_backup = false;
    assert_exhaustive_equivalence(Gsu19::new(no_backup));
}

/// The contract's output clause over every state id: a state's output is
/// its bucket's output at phase 0, so compiled tables store one output
/// per bucket.
fn assert_output_is_per_bucket<P: FactoredProtocol>(proto: &P) {
    let phases = proto.phase_count();
    for id in 0..proto.num_states() {
        let at_phase_0 = proto.output(proto.state_from_id(id - id % phases));
        assert_eq!(proto.output(proto.state_from_id(id)), at_phase_0, "id {id}");
    }
}

#[test]
fn output_is_per_bucket_at_tiny_params() {
    assert_output_is_per_bucket(&Gsu19::new(tiny_params()));
    assert_output_is_per_bucket(&Gsu19::new(gs18_tiny_params()));
    // `Gs18` itself takes no parameters: its smallest population.
    assert_output_is_per_bucket(&Gs18::for_population(16));
}

#[test]
fn sampled_equivalence_paper_scale() {
    // Full enumeration at n = 2^20 would be |S|² ≈ 6·10^8 pairs; a seeded
    // 50k-pair sample catches any contract violation that survives the
    // exhaustive tiny-params sweep yet appears at paper-scale parameters
    // (larger Φ/Ψ/Γ, deeper counter ranges).
    let proto = Gsu19::for_population(1 << 20);
    let c = CompiledProtocol::new(proto);
    let s = proto.num_states();
    let mut x = 0x243F_6A88_85A3_08D3u64; // fixed seed: deterministic in CI
    let mut draw = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 16) as usize
    };
    for _ in 0..50_000 {
        let (r, i) = (draw() % s, draw() % s);
        let (rs, is) = (proto.state_from_id(r), proto.state_from_id(i));
        let (dr, di) = proto.transition(rs, is);
        let (cr, ci) = c.transition(c.encode_state(rs), c.encode_state(is));
        assert_eq!(c.decode_state(cr), dr, "responder at ({rs:?}, {is:?})");
        assert_eq!(c.decode_state(ci), di, "initiator at ({rs:?}, {is:?})");
    }
}

#[test]
fn compiled_agent_trajectory_is_bit_identical() {
    // Same seed, same RNG consumption, equivalent transitions ⇒ the
    // compiled agent simulation must shadow the dynamic one exactly.
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let c = CompiledProtocol::new(proto);
    let mut dynamic = AgentSim::new(proto, n as usize, 99);
    let mut compiled = AgentSim::new(c.clone(), n as usize, 99);
    for round in 0..10 {
        dynamic.steps(10 * n);
        compiled.steps(10 * n);
        assert_eq!(
            dynamic.output_counts(),
            compiled.output_counts(),
            "output counts diverged in round {round}"
        );
        for (agent, (&ds, &cs)) in dynamic.states().iter().zip(compiled.states()).enumerate() {
            assert_eq!(
                ds,
                c.decode_state(cs),
                "agent {agent} diverged in round {round}"
            );
        }
    }
}

#[test]
fn compiled_urn_trajectory_is_bit_identical() {
    // The packed id order is monotone in the codec id order and padding
    // ids are never occupied, so the scans of the occupied states in id
    // order select corresponding states for the same uniform draws:
    // sequential urns must match bit for bit under decoding.
    let n = 1u64 << 12;
    let proto = Gsu19::for_population(n);
    let c = CompiledProtocol::new(proto);
    let mut dynamic = UrnSim::new(proto, n, 4242);
    let mut compiled = UrnSim::new(c.clone(), n, 4242);
    for _ in 0..5 {
        dynamic.steps(10 * n);
        compiled.steps(10 * n);
        assert_eq!(dynamic.output_counts(), compiled.output_counts());
        let decoded: Vec<_> = compiled
            .nonzero_counts()
            .into_iter()
            .map(|(id, k)| (c.decode_state(id), k))
            .collect();
        assert_eq!(dynamic.nonzero_counts(), decoded);
    }
}

#[test]
fn compiled_batched_trajectory_is_bit_identical() {
    let n = 1u64 << 12;
    let proto = Gsu19::for_population(n);
    let c = CompiledProtocol::new(proto);
    let mut dynamic = UrnSim::new(proto, n, 777).with_block(n / 16);
    let mut compiled = UrnSim::new(c.clone(), n, 777).with_block(n / 16);
    for _ in 0..5 {
        dynamic.steps(10 * n);
        compiled.steps(10 * n);
        assert_eq!(dynamic.output_counts(), compiled.output_counts());
        let decoded: Vec<_> = compiled
            .nonzero_counts()
            .into_iter()
            .map(|(id, k)| (c.decode_state(id), k))
            .collect();
        assert_eq!(dynamic.nonzero_counts(), decoded);
    }
}

#[test]
fn concurrent_fill_matches_private_tables_and_dynamic() {
    // 16 stabilize trials on 4 threads share one fresh table; a barrier
    // starts the first four together, so they fill it concurrently from
    // empty. Each must end in the same states as the same trial alone on
    // a fresh table of its own, and as the same trial run dynamically.
    let n = 1u64 << 10;
    let budget = 100_000 * n;
    let proto = Gsu19::for_population(n);
    let shared = CompiledProtocol::new(proto);
    let start = Barrier::new(4);
    let compiled_run = |c: &CompiledProtocol<Gsu19>, seed: u64| {
        let mut sim = AgentSim::new(c.clone(), n as usize, seed);
        assert!(run_until_stable(&mut sim, budget).converged);
        sim.states()
            .iter()
            .map(|&s| c.decode_state(s))
            .collect::<Vec<_>>()
    };
    let together = run_trials_threads(16, 9300, 4, |trial, seed| {
        if trial < 4 {
            start.wait();
        }
        (seed, compiled_run(&shared, seed))
    });
    for (seed, states) in together {
        let alone = compiled_run(&CompiledProtocol::new(proto), seed);
        assert_eq!(states, alone, "seed {seed}: shared table vs own table");
        let mut dynamic = AgentSim::new(proto, n as usize, seed);
        assert!(run_until_stable(&mut dynamic, budget).converged);
        assert_eq!(states, dynamic.states(), "seed {seed}: compiled vs dynamic");
    }
}

#[test]
fn compiled_election_census_and_stability() {
    // End to end on the compiled path: elect, decode a census, stay
    // stable.
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let c = CompiledProtocol::new(proto);
    let mut sim = UrnSim::new(c.clone(), n, 5);
    let res = run_until_stable(&mut sim, 100_000 * n);
    assert!(res.converged);
    let census = Census::of_with(&sim, &params, |s| c.decode_state(s));
    assert_eq!(census.total(), n);
    assert_eq!(census.alive(), 1);
    assert_eq!(census.uninitialised(), 0);
    sim.steps(10 * n);
    assert_eq!(sim.leaders(), 1, "election unstable after convergence");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "28 elections; run by the release-mode CI stress job"
)]
fn compiled_batched_urn_vs_dynamic_agent_ks() {
    // Cross-engine distributional gate in the style of
    // `tests/engine_equivalence.rs`: compiled batched urn vs dynamic
    // agent array on stabilisation times, fixed seeds, α = 0.001.
    let n = 1u64 << 9;
    let trials = 14;
    let budget = 100_000 * n;
    let agent_times = run_trials_threads(trials, 8100, 2, |_, seed| {
        let mut sim = AgentSim::new(Gsu19::for_population(n), n as usize, seed);
        let res = run_until_stable(&mut sim, budget);
        assert!(res.converged);
        res.parallel_time
    });
    let compiled_times = run_trials_threads(trials, 8200, 2, |_, seed| {
        let proto = CompiledProtocol::new(Gsu19::for_population(n));
        let mut sim = UrnSim::new(proto, n, seed).with_block(n / 16);
        let res = run_until_stable(&mut sim, budget);
        assert!(res.converged);
        res.parallel_time
    });
    let crit = ks_critical(trials, trials, 0.001);
    let d = ks_statistic(&compiled_times, &agent_times);
    assert!(
        d < crit,
        "compiled batched urn vs dynamic agent: D={d:.3} ≥ {crit:.3}"
    );
}

/// Compiled tables beyond the bucket packing or the table-entry ceiling
/// are a usage error on every command that validates a spec, with or
/// without `--compiled`: exit 2 with a message naming B, Γ and the
/// limit, never a panic or a runaway allocation.
#[test]
fn ppctl_rejects_oversized_compiled_tables_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("pp-compiled-dims-{}", std::process::id()));
    let out = dir.join("out.json");
    let (dir_arg, out_arg) = (dir.to_str().unwrap(), out.to_str().unwrap());
    let base = ["--protocol", "gsu19", "--n", "1024", "--at", "0.001"];
    let cases: [(&[&str], [&str; 2]); 3] = [
        // B = 40 725 buckets: beyond the u16 bucket packing.
        (&["--phi", "32", "--psi", "32"], ["B = 40725", "2^15"]),
        // A 2^27-entry phase table: past the 2^26-entry ceiling.
        (&["--gamma", "4098"], ["Γ = 4098", "limit 67108864"]),
        // A 2^33-entry phase table.
        (&["--gamma", "40000"], ["Γ = 40000", "limit 67108864"]),
    ];
    for (overrides, needles) in cases {
        for command in [
            vec!["plan"],
            vec!["run", "--out", out_arg],
            vec!["work", "--shard", "0/1", "--out", out_arg],
            vec!["merge", "--from-cache", "--cache-dir", dir_arg],
        ] {
            for compiled in [&[][..], &["--compiled"][..]] {
                let output = Command::new(env!("CARGO_BIN_EXE_ppctl"))
                    .args(&command)
                    .args(base)
                    .args(overrides)
                    .args(compiled)
                    .output()
                    .expect("ppctl spawns");
                let stderr = String::from_utf8_lossy(&output.stderr);
                let case = format!("{command:?} {overrides:?} {compiled:?}: {stderr}");
                assert_eq!(output.status.code(), Some(2), "{case}");
                assert!(!stderr.contains("panicked"), "{case}");
                assert!(!stderr.contains("compiled = false"), "{case}");
                assert!(needles.iter().all(|s| stderr.contains(s)), "{case}");
            }
        }
    }
    assert!(!out.exists());
}

/// Overrides at the tables' bounds still plan and run: B = 32 395 buckets
/// (`--phi 25 --psi 32`) is under the 2^15 packing, and Γ = 4096 gives a
/// phase table of 2^25 entries, under the 2^26 ceiling. The Γ = 4096 case
/// is only planned, so the test never builds a table that large.
#[test]
fn ppctl_accepts_overrides_at_the_table_bounds() {
    let dir = std::env::temp_dir().join(format!("pp-compiled-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out.json");
    let base = ["--protocol", "gsu19", "--n", "1024", "--at", "0.001"];
    let ppctl = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_ppctl"))
            .args(args)
            .args(base)
            .output()
            .expect("ppctl spawns");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    };
    ppctl(&["plan", "--phi", "25", "--psi", "32"]);
    ppctl(&["plan", "--gamma", "4096"]);
    ppctl(&[
        "run",
        "--phi",
        "25",
        "--psi",
        "32",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(out.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
