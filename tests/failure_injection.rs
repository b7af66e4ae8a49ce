//! Failure injection on the paper's protocol: the Las Vegas guarantee must
//! survive adversarial scheduling — crashed-and-returned agents, throttled
//! agents, and blackouts aimed specifically at the protocol's load-bearing
//! sub-populations (the junta!).

use population_protocols::core::{Census, Gsu19};
use population_protocols::ppsim::{
    run_until_stable, AdversarialSim, AgentSim, Blackout, EnumerableProtocol, Perturbation,
    Simulator, Throttle,
};

#[test]
fn survives_mid_protocol_blackout() {
    // A quarter of the population disappears during the fast-elimination
    // window and returns later with stale clocks and stale flip records.
    let n = 512usize;
    let blackout = Blackout {
        k: n / 4,
        from: 50_000,
        until: 250_000,
    };
    let mut sim = AdversarialSim::new(Gsu19::for_population(n as u64), blackout, n, 1);
    let res = run_until_stable(&mut sim, 60_000 * n as u64);
    assert!(res.converged, "blackout broke stabilisation");
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn survives_repeated_early_blackout() {
    // The window covers the whole initialisation epoch: partition and coin
    // race run on 3/4 of the population.
    let n = 512usize;
    let blackout = Blackout {
        k: n / 4,
        from: 0,
        until: 400_000,
    };
    let mut sim = AdversarialSim::new(Gsu19::for_population(n as u64), blackout, n, 2);
    let res = run_until_stable(&mut sim, 120_000 * n as u64);
    assert!(res.converged);
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn survives_throttled_minority() {
    // A tenth of the agents run at 5% speed forever: time bounds are off
    // the table, correctness is not.
    let n = 256usize;
    let throttle = Throttle {
        k: n / 10,
        rate: 0.05,
    };
    let mut sim = AdversarialSim::new(Gsu19::for_population(n as u64), throttle, n, 3);
    let res = run_until_stable(&mut sim, 400_000 * n as u64);
    assert!(res.converged, "throttled population did not stabilise");
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn blackout_of_formed_junta_stalls_then_recovers() {
    // Sharper attack: let the protocol run until the junta exists, then
    // black out the agents that happen to be junta members (they are the
    // clock's engine — without them rounds stop advancing), and verify
    // recovery after they return.
    let n = 1024usize;
    let proto = Gsu19::for_population(n as u64);
    let params = *proto.params();

    // Find where junta members sit after the race settles, using a plain
    // simulation first.
    let mut probe = AgentSim::new(proto, n, 4);
    probe.steps(200 * n as u64);
    let c = Census::of(&probe, &params);
    assert!(c.coin_levels[params.phi as usize] > 0, "no junta in probe");

    // Junta members are scattered; blacking out a prefix of agents hits a
    // proportional share of them. Take out half the population for a long
    // window mid-run.
    let blackout = Blackout {
        k: n / 2,
        from: 100 * n as u64,
        until: 700 * n as u64,
    };
    let proto = Gsu19::for_population(n as u64);
    let mut sim = AdversarialSim::new(proto, blackout, n, 5);
    let res = run_until_stable(&mut sim, 100_000 * n as u64);
    assert!(res.converged, "junta blackout broke stabilisation");
    assert_eq!(sim.leaders(), 1);
}

#[test]
fn alive_invariant_holds_under_blackout() {
    // Lemma 8.1 under fire: sample the census repeatedly during a blackout
    // run; once a candidate exists, the alive count never reaches zero.
    let n = 512usize;
    let blackout = Blackout {
        k: n / 3,
        from: 30_000,
        until: 600_000,
    };
    let proto = Gsu19::for_population(n as u64);
    let params = *proto.params();
    let mut sim = AdversarialSim::new(proto, blackout, n, 6);
    let mut seen_leader = false;
    for _ in 0..600 {
        sim.steps((n / 2) as u64);
        let c = Census::of(&sim, &params);
        if c.alive() > 0 {
            seen_leader = true;
        }
        if seen_leader {
            assert!(c.alive() >= 1, "extinction under blackout");
        }
    }
    assert!(seen_leader);
}

/// FNV-1a over every agent's state id, in agent order: a compact pin for
/// one perturbed trajectory's final configuration.
fn state_digest<V: Perturbation>(sim: &AdversarialSim<Gsu19, V>, proto: &Gsu19) -> u64 {
    sim.states().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
        (h ^ proto.state_id(s) as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn perturbed_schedulers_replay_pinned_streams() {
    // A perturbed scheduler draws from the engine's RNG in a fixed order
    // (the responder and its availability checks, then the initiator's),
    // so one seeded run of each perturbation ends in pinned agent states
    // and output counts: a stabilisation stop under a blackout, and a
    // fixed horizon under a throttle.
    let n = 256usize;
    let proto = Gsu19::for_population(n as u64);
    let blackout = Blackout {
        k: n / 4,
        from: 2_000,
        until: 40_000,
    };
    let mut sim = AdversarialSim::new(proto, blackout, n, 21);
    let res = run_until_stable(&mut sim, 60_000 * n as u64);
    assert!(res.converged);
    assert_eq!(res.interactions, 62_033);
    assert_eq!(state_digest(&sim, &proto), 0xa69a_5c9d_dc46_acec);
    assert_eq!(sim.output_counts(), [1, 255, 0]);

    let throttle = Throttle {
        k: n / 10,
        rate: 0.25,
    };
    let mut sim = AdversarialSim::new(proto, throttle, n, 22);
    sim.steps(20 * n as u64);
    assert_eq!(sim.interactions(), 5_120);
    assert_eq!(state_digest(&sim, &proto), 0xc236_d4a2_7a6b_48da);
    assert_eq!(sim.output_counts(), [14, 217, 25]);
}
