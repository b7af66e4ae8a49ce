//! Epoch-level behavioural tests: each test pins one dynamic claim of the
//! paper by constructing the epoch's entry configuration directly
//! (`core_protocol::synthetic`) and watching the mechanism run.

use core_protocol::synthetic::final_epoch_config;
use core_protocol::{AgentState, Census, Flip, Gsu19, LeaderMode, Role};
use ppsim::{run_until, run_until_stable, AgentSim, Simulator};

/// Mechanism: the final epoch's coin rounds reduce actives geometrically
/// (Lemma 7.3's premise E[F'] ≤ (5/6)F).
#[test]
fn final_epoch_reduces_actives_geometrically() {
    let n = 1u64 << 12;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let k = 64;
    let states = final_epoch_config(&params, n, k, 1).collect();
    let mut sim = AgentSim::with_states(proto, states, 2);

    // After ~8 rounds (each ≈ 5·log₂ n parallel time) the count must be
    // far below k — geometric reduction with factor ≈ 1/4 per round would
    // give ~1; allow a lenient bound.
    let round = 5.0 * (n as f64).log2();
    sim.steps((8.0 * round) as u64 * n);
    let c = Census::of(&sim, &params);
    assert!(
        c.active <= k / 8,
        "actives {} after 8 rounds (from {k})",
        c.active
    );
    assert!(c.alive() >= 1);
}

/// Mechanism: active count never increases in the final epoch.
#[test]
fn active_count_is_monotone_in_final_epoch() {
    let n = 1u64 << 11;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let states = final_epoch_config(&params, n, 40, 3).collect();
    let mut sim = AgentSim::with_states(proto, states, 4);
    let mut prev = 40u64;
    for _ in 0..400 {
        sim.steps(n / 2);
        let c = Census::of(&sim, &params);
        assert!(
            c.active <= prev,
            "actives increased: {} -> {}",
            prev,
            c.active
        );
        prev = c.active;
    }
}

/// Mechanism: once a lone survivor advances its drag, rule (9) withdraws
/// the whole passive crowd in a few rounds (the Section 7 "safe
/// withdrawal" — what the drag counter is *for*).
#[test]
fn passives_withdraw_after_drag_advance() {
    let n = 1u64 << 11;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();

    // One active that has already drawn heads, a crowd of passives, and
    // drag-0 inhibitors pre-elevated (high) so rule (10) can fire at the
    // first meeting.
    let mut states: Vec<_> = final_epoch_config(&params, n, 1, 5).collect();
    let mut passives = 0;
    for s in states.iter_mut() {
        match s.role {
            Role::L {
                mode: LeaderMode::A,
                ..
            } => {
                s.role = Role::L {
                    mode: LeaderMode::A,
                    cnt: 0,
                    flip: Flip::Heads,
                    void: false,
                    drag: 0,
                };
            }
            Role::L {
                mode: LeaderMode::W,
                ..
            } if passives < 100 => {
                passives += 1;
                s.role = Role::L {
                    mode: LeaderMode::P,
                    cnt: 0,
                    flip: Flip::Tails,
                    void: false,
                    drag: 0,
                };
            }
            Role::I { drag: 0, .. } => {
                s.role = Role::I {
                    drag: 0,
                    advancing: false,
                    high: true,
                    started: true,
                };
            }
            _ => {}
        }
    }
    let mut sim = AgentSim::with_states(proto, states, 6);

    // The survivor meets a high drag-0 inhibitor quickly (they are ~3/16
    // of the population), advances to drag 1, and the value spreads
    // through the leader sub-population withdrawing every passive.
    let res = run_until(&mut sim, 400 * n, |s| {
        let c = Census::of(s, &params);
        c.passive == 0 && c.active >= 1
    });
    assert!(
        res.converged,
        "passives not withdrawn within 400 parallel time"
    );
    let c = Census::of(&sim, &params);
    assert!(
        c.max_alive_drag.unwrap_or(0) >= 1,
        "survivor never advanced"
    );
}

/// Mechanism: without any active leader, drag-0 inhibitors are never
/// elevated (rule (8) needs an active of equal drag in the final epoch) —
/// the inhibitors really are gated on the leaders, not free-running.
#[test]
fn inhibitors_stay_low_without_actives() {
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let mut states: Vec<_> = final_epoch_config(&params, n, 1, 7).collect();
    // Demote the single active to withdrawn: no actives at all. (A
    // configuration only reachable through backup action, but valid.)
    for s in states.iter_mut() {
        if let Role::L {
            mode: LeaderMode::A,
            ..
        } = s.role
        {
            s.role = Role::L {
                mode: LeaderMode::W,
                cnt: 0,
                flip: Flip::None,
                void: true,
                drag: 0,
            };
        }
    }
    let mut sim = AgentSim::with_states(proto, states, 8);
    sim.steps(300 * n);
    let c = Census::of(&sim, &params);
    assert!(
        c.inhibitor_high.iter().all(|&h| h == 0),
        "inhibitors elevated without an active leader: {:?}",
        c.inhibitor_high
    );
}

/// Mechanism: the fast-elimination epoch ends with every leader candidate
/// in the final epoch (cnt = 0) — the countdown is lockstep across the
/// population.
#[test]
fn countdown_reaches_zero_in_lockstep() {
    let n = 1u64 << 11;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let mut sim = AgentSim::new(proto, n as usize, 9);
    let rounds_needed = params.cnt_init() as f64 + 3.0;
    sim.steps((rounds_needed * 7.0 * (n as f64).log2()) as u64 * n);
    let mut cnts = std::collections::HashSet::new();
    sim.for_each_state(&mut |s: AgentState, _| {
        if let Role::L { cnt, .. } = s.role {
            cnts.insert(cnt);
        }
    });
    assert_eq!(
        cnts.into_iter().collect::<Vec<_>>(),
        vec![0],
        "leaders not all in the final epoch"
    );
}

/// End-to-end determinism of the composed protocol at the transition
/// level: same configuration, same seed, same trajectory — across
/// engines' seeds this is covered elsewhere; here we pin byte-for-byte
/// state equality on AgentSim.
#[test]
fn trajectories_are_reproducible() {
    let n = 1u64 << 10;
    let run = |seed| {
        let proto = Gsu19::for_population(n);
        let mut sim = AgentSim::new(proto, n as usize, seed);
        sim.steps(100 * n);
        sim.states().to_vec()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

/// Stabilisation from the synthetic start is itself stable (no rule can
/// disturb a unique survivor).
#[test]
fn synthetic_start_stabilisation_persists() {
    let n = 1u64 << 10;
    let proto = Gsu19::for_population(n);
    let params = *proto.params();
    let states = final_epoch_config(&params, n, 24, 10).collect();
    let mut sim = AgentSim::with_states(proto, states, 11);
    let res = run_until_stable(&mut sim, 60_000 * n);
    assert!(res.converged);
    for _ in 0..50 {
        sim.steps(10 * n);
        assert_eq!(sim.leaders(), 1);
    }
}
