//! Synthetic mid-protocol configurations.
//!
//! The standard population model starts every agent in the same state, so
//! epochs can only be studied after the preceding ones have run. For
//! component-level experiments (Lemma 7.3's "from c·log n actives",
//! passive-cleanup latency, deep drag ticks) it is useful to *construct* a
//! settled configuration directly: roles partitioned at their expected
//! fractions, coins levelled per the measured recursion, inhibitors with
//! their geometric drag subgroups, and a chosen number of active leader
//! candidates already in the final epoch.
//!
//! The sampled configuration matches the distribution the real first two
//! epochs produce (up to the O(n/log n) straggler noise of Lemma 4.1), so
//! dynamics measured from it transfer; tests in this module verify the
//! structural invariants.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::params::{Params, COIN_BASE_FRACTION};
use crate::state::{AgentState, Flip, LeaderMode, Role};

/// Leader sub-population of a [`final_epoch_config`] of `n` agents, once
/// ⌊n/4⌋ coins and ⌊n/4⌋ inhibitors are placed: the most active
/// candidates it can hold.
pub fn final_epoch_leaders(n: u64) -> u64 {
    n - 2 * (n / 4)
}

/// Draw a settled **final-epoch** configuration of `n` agents, one state
/// per agent, lazily:
///
/// * ≈ n/4 coins with levels following the `f_{ℓ+1} = f_ℓ²/2` recursion
///   (so the junta exists and the clock runs);
/// * ≈ n/4 inhibitors, stopped, with `P(drag = ℓ) = (3/4)·4^{−ℓ}`
///   (Lemma 7.1) and `started` set;
/// * `k_active` active leader candidates at `cnt = 0` (final epoch), the
///   remaining ≈ n/2 leaders withdrawn;
/// * every clock phase at 0.
///
/// The states come in that order (coins, inhibitors, leaders), each drawn
/// as the iterator reaches it, so a consumer that folds them into counts
/// never holds n states.
///
/// # Panics
/// Panics, at the call, if `k_active` exceeds the leader sub-population
/// ([`final_epoch_leaders`]).
pub fn final_epoch_config(
    params: &Params,
    n: u64,
    k_active: u64,
    seed: u64,
) -> impl Iterator<Item = AgentState> {
    let n_coins = n / 4;
    let n_inhibitors = n / 4;
    let n_leaders = final_epoch_leaders(n);
    assert!(
        k_active <= n_leaders,
        "cannot place {k_active} actives among {n_leaders} leaders"
    );
    let (phi, psi) = (params.phi, params.psi);
    // Coins: conditional level distribution from the fraction recursion,
    // P(level >= l | coin) = f_l / f_0 for l = 1..=Φ.
    let f0 = COIN_BASE_FRACTION;
    let p_ge: Vec<f64> = (1..=phi)
        .map(|l| components::junta::expected_fraction_at_level(f0, l) / f0)
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);

    (0..n).map(move |i| {
        let role = if i < n_coins {
            let u: f64 = rng.gen();
            let level = p_ge.iter().take_while(|&&p| u < p).count() as u8;
            Role::C {
                level,
                advancing: level >= phi,
            }
        } else if i < n_coins + n_inhibitors {
            // Inhibitors: truncated-geometric drag, stopped, started.
            let mut drag = 0u8;
            while drag < psi && rng.gen::<f64>() < 0.25 {
                drag += 1;
            }
            Role::I {
                drag,
                advancing: false,
                high: false,
                started: true,
            }
        } else {
            // Leaders: k_active actives in the final epoch, the rest
            // withdrawn.
            let mode = if i - n_coins - n_inhibitors < k_active {
                LeaderMode::A
            } else {
                LeaderMode::W
            };
            Role::L {
                mode,
                cnt: 0,
                flip: Flip::None,
                void: true,
                drag: 0,
            }
        };
        AgentState { role, phase: 0 }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::protocol::Gsu19;
    use ppsim::{run_until_stable, AgentSim, Simulator};

    fn setup(n: u64, k: u64, seed: u64) -> (Gsu19, Vec<AgentState>) {
        let proto = Gsu19::for_population(n);
        let states = final_epoch_config(proto.params(), n, k, seed).collect();
        (proto, states)
    }

    #[test]
    fn config_has_expected_structure() {
        let n = 1u64 << 12;
        let (proto, states) = setup(n, 40, 1);
        let params = *proto.params();
        let sim = AgentSim::with_states(proto, states, 2);
        let c = Census::of(&sim, &params);
        assert_eq!(c.total(), n);
        assert_eq!(c.active, 40);
        assert_eq!(c.passive, 0);
        assert_eq!(c.uninitialised(), 0);
        assert_eq!(c.coins(), n / 4);
        assert_eq!(c.inhibitors(), n / 4);
    }

    #[test]
    fn junta_exists_in_sampled_coins() {
        let n = 1u64 << 12;
        let (proto, states) = setup(n, 10, 3);
        let params = *proto.params();
        let sim = AgentSim::with_states(proto, states, 4);
        let c = Census::of(&sim, &params);
        let junta = c.coin_levels[params.phi as usize];
        assert!(junta > 0, "no junta sampled");
        assert!((junta as f64) < (n as f64).powf(0.85));
    }

    #[test]
    fn inhibitor_drags_follow_geometric_law() {
        let n = 1u64 << 14;
        let (proto, states) = setup(n, 10, 5);
        let params = *proto.params();
        let sim = AgentSim::with_states(proto, states, 6);
        let c = Census::of(&sim, &params);
        let n_i = c.inhibitors() as f64;
        // D'_1 / D'_0 ≈ 1/4.
        let ge1: u64 = c.inhibitor_drags.iter().skip(1).sum();
        let frac = ge1 as f64 / n_i;
        assert!((frac - 0.25).abs() < 0.03, "drag >= 1 fraction {frac}");
    }

    #[test]
    fn final_epoch_from_synthetic_start_elects_leader() {
        let n = 1u64 << 11;
        let (proto, states) = setup(n, 30, 7);
        let mut sim = AgentSim::with_states(proto, states, 8);
        let res = run_until_stable(&mut sim, 60_000 * n);
        assert!(res.converged, "no stabilisation from synthetic start");
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn active_count_never_hits_zero_from_synthetic_start() {
        let n = 1u64 << 10;
        let (proto, states) = setup(n, 16, 9);
        let params = *proto.params();
        let mut sim = AgentSim::with_states(proto, states, 10);
        for _ in 0..500 {
            sim.steps(n / 2);
            let c = Census::of(&sim, &params);
            assert!(c.alive() >= 1, "all candidates eliminated");
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_actives_rejected() {
        let n = 1u64 << 10;
        let proto = Gsu19::for_population(n);
        let _ = final_epoch_config(proto.params(), n, n, 1);
    }
}
