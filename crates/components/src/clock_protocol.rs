//! A self-contained protocol exercising the junta-driven phase clock, used
//! to validate Theorem 3.2 empirically (bench `clock`).
//!
//! The population is partitioned exactly as in Section 4 of the paper
//! (`0 + 0 → X + _`, `X + X → Racer + _`), so racers make up ≈ 1/4 of the
//! population and *arrive gradually* — both properties are load-bearing:
//! outsiders stop racers and staggered arrivals produce the squaring
//! recursion `C_{ℓ+1} ≈ C_ℓ²/2n` of Lemmas 5.1/5.2. Racers that reach the
//! cap Φ become junta members and drive the clock of [`crate::clock`].
//!
//! Each agent additionally counts its own passes through zero modulo
//! [`ROUND_MOD`] — a measurement aid that lets experiments observe (a) the
//! parallel-time length of a round and (b) whether agents stay
//! round-synchronised (the circular spread of round counters).

use ppsim::{EnumerableProtocol, Output, Protocol};

use crate::clock::Clock;
use crate::junta::{phi_for, LevelRace, Opponent};

/// Modulus of the per-agent round counter (measurement only).
pub const ROUND_MOD: u8 = 16;

/// Role of an agent in the clock-test protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockRole {
    /// Uninitialised (the paper's state `0`).
    Zero,
    /// Intermediate (the paper's state `X`).
    Pre,
    /// Initialised but not racing (stands in for the paper's `L`/`I`
    /// sub-populations).
    Blank,
    /// Racing towards the junta (the paper's coin sub-population `C`).
    Racer {
        /// Current level, `0..=Φ`.
        level: u8,
        /// Still willing to climb?
        advancing: bool,
    },
}

/// Agent state: role × clock phase × measurement round counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClockState {
    pub role: ClockRole,
    /// Phase-clock value.
    pub phase: u16,
    /// Passes through zero so far, modulo [`ROUND_MOD`].
    pub rounds: u8,
}

/// The clock-test protocol; see module docs.
#[derive(Clone, Copy, Debug)]
pub struct ClockProtocol {
    race: LevelRace,
    clock: Clock,
}

impl ClockProtocol {
    /// Protocol tuned for populations of size `n` with clock modulus
    /// `gamma`. The racer base fraction is 1/4, as in the paper.
    pub fn new(n: u64, gamma: u16) -> Self {
        Self {
            race: LevelRace::new(phi_for(n, 0.25)),
            clock: Clock::new(gamma),
        }
    }

    /// The level cap Φ of the embedded race.
    pub fn phi(&self) -> u8 {
        self.race.phi
    }

    /// The clock used by this protocol.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Whether a state belongs to the junta.
    pub fn is_junta(&self, s: ClockState) -> bool {
        matches!(s.role, ClockRole::Racer { level, .. } if self.race.is_junta(level))
    }

    /// Number of distinct roles in the dense encoding.
    fn role_count(&self) -> usize {
        3 + (self.race.phi as usize + 1) * 2
    }

    fn role_id(&self, role: ClockRole) -> usize {
        match role {
            ClockRole::Zero => 0,
            ClockRole::Pre => 1,
            ClockRole::Blank => 2,
            ClockRole::Racer { level, advancing } => 3 + (level as usize) * 2 + advancing as usize,
        }
    }

    fn role_from_id(&self, id: usize) -> ClockRole {
        match id {
            0 => ClockRole::Zero,
            1 => ClockRole::Pre,
            2 => ClockRole::Blank,
            r => ClockRole::Racer {
                level: ((r - 3) / 2) as u8,
                advancing: (r - 3) % 2 == 1,
            },
        }
    }
}

impl Protocol for ClockProtocol {
    type State = ClockState;

    fn initial_state(&self) -> ClockState {
        ClockState {
            role: ClockRole::Zero,
            phase: 0,
            rounds: 0,
        }
    }

    fn transition(&self, r: ClockState, i: ClockState) -> (ClockState, ClockState) {
        // Clock: the responder updates its phase; junta members tick.
        let tick = self.clock.update(self.is_junta(r), r.phase, i.phase);
        let rounds = if tick.passed_zero {
            (r.rounds + 1) % ROUND_MOD
        } else {
            r.rounds
        };

        // Partition rules act on both agents; the race acts on the
        // responder only.
        let (r_role, i_role) = match (r.role, i.role) {
            (ClockRole::Zero, ClockRole::Zero) => (ClockRole::Pre, ClockRole::Blank),
            (ClockRole::Pre, ClockRole::Pre) => (
                ClockRole::Racer {
                    level: 0,
                    advancing: true,
                },
                ClockRole::Blank,
            ),
            (ClockRole::Racer { level, advancing }, other) => {
                let opponent = match other {
                    ClockRole::Racer { level: l, .. } => Opponent::Racer(l),
                    _ => Opponent::Outsider,
                };
                let (level, advancing) = self.race.update(level, advancing, opponent);
                (ClockRole::Racer { level, advancing }, other)
            }
            (a, b) => (a, b),
        };

        (
            ClockState {
                role: r_role,
                phase: tick.phase,
                rounds,
            },
            ClockState {
                role: i_role,
                phase: i.phase,
                rounds: i.rounds,
            },
        )
    }

    fn output(&self, _: ClockState) -> Output {
        Output::Follower
    }

    /// Epochs are the per-agent round counter (mod [`ROUND_MOD`]). The
    /// population maximum of `epoch_of` tracks the round frontier while
    /// the counters climb, but **stalls across wraps**: near a wrap the
    /// window spans e.g. {14, 15, 0} and the numeric max stays 15 until
    /// the last agent leaves 15, after which the value jumps to wherever
    /// the frontier got. One reported transition can therefore span
    /// several rounds — consumers must weight the gap between events by
    /// `(new − old) mod ROUND_MOD` (the `epoch_times` observable emits the
    /// values for exactly this).
    fn epoch_of(&self, s: ClockState) -> Option<u32> {
        Some(s.rounds as u32)
    }
}

impl EnumerableProtocol for ClockProtocol {
    fn num_states(&self) -> usize {
        self.role_count() * ROUND_MOD as usize * self.clock.gamma() as usize
    }

    fn state_id(&self, s: ClockState) -> usize {
        (self.role_id(s.role) * ROUND_MOD as usize + s.rounds as usize)
            * self.clock.gamma() as usize
            + s.phase as usize
    }

    fn state_from_id(&self, id: usize) -> ClockState {
        let gamma = self.clock.gamma() as usize;
        let phase = (id % gamma) as u16;
        let id = id / gamma;
        let rounds = (id % ROUND_MOD as usize) as u8;
        let role = self.role_from_id(id / ROUND_MOD as usize);
        ClockState {
            role,
            phase,
            rounds,
        }
    }
}

/// Smallest circular window (in round-counter units) containing every
/// occupied round-counter value. A synchronised population has spread ≤ 2;
/// a desynchronised one smears across the ring.
pub fn round_spread(occupied: &[bool]) -> u8 {
    let m = occupied.len();
    let occupied_count = occupied.iter().filter(|&&b| b).count();
    if occupied_count == 0 {
        return 0;
    }
    if occupied_count == m {
        return m as u8;
    }
    // Largest run of empty slots (circularly); spread = m - that run.
    let mut best_gap = 0usize;
    let mut cur = 0usize;
    for k in 0..2 * m {
        if !occupied[k % m] {
            cur += 1;
            best_gap = best_gap.max(cur.min(m));
        } else {
            cur = 0;
        }
    }
    (m - best_gap) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{AgentSim, Simulator};

    #[test]
    fn initial_state_is_uniform_zero() {
        let p = ClockProtocol::new(1 << 12, 16);
        let s = p.initial_state();
        assert_eq!(s.role, ClockRole::Zero);
        assert_eq!(s.phase, 0);
    }

    #[test]
    fn enumeration_roundtrips() {
        let p = ClockProtocol::new(1 << 12, 16);
        for id in 0..p.num_states() {
            let s = p.state_from_id(id);
            assert_eq!(p.state_id(s), id);
        }
    }

    #[test]
    fn partition_produces_quarter_racers() {
        let n = 1 << 13;
        let p = ClockProtocol::new(n as u64, 16);
        let mut sim = AgentSim::new(p, n, 5);
        sim.steps(40 * n as u64);
        let racers = sim
            .states()
            .iter()
            .filter(|s| matches!(s.role, ClockRole::Racer { .. }))
            .count();
        let frac = racers as f64 / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "racer fraction {frac} (expected ≈ 0.25)"
        );
    }

    #[test]
    fn junta_forms_and_is_small() {
        let n = 1 << 13;
        let p = ClockProtocol::new(n as u64, 16);
        let mut sim = AgentSim::new(p, n, 5);
        sim.steps(60 * n as u64);
        let junta = sim.states().iter().filter(|s| p.is_junta(**s)).count();
        assert!(junta > 0, "no junta formed");
        let nf = n as f64;
        assert!(
            (junta as f64) < nf.powf(0.85),
            "junta too large: {junta} of {n}"
        );
    }

    #[test]
    fn clock_advances_rounds() {
        let n = 1 << 11;
        let p = ClockProtocol::new(n as u64, 16);
        let mut sim = AgentSim::new(p, n, 9);
        sim.steps(600 * n as u64);
        let max_rounds = sim.states().iter().map(|s| s.rounds).max().unwrap();
        assert!(max_rounds > 0, "clock never passed zero");
    }

    #[test]
    fn population_stays_round_synchronised() {
        let n = 1 << 12;
        let p = ClockProtocol::new(n as u64, 24);
        let mut sim = AgentSim::new(p, n, 31);
        // Warm up until the clock has completed a few rounds.
        sim.steps(400 * n as u64);
        // Then sample repeatedly: the circular spread of round counters
        // must stay small (agents at most ~2 rounds apart).
        let mut worst = 0u8;
        for _ in 0..20 {
            sim.steps(n as u64);
            let mut occupied = [false; ROUND_MOD as usize];
            for s in sim.states() {
                occupied[s.rounds as usize] = true;
            }
            worst = worst.max(round_spread(&occupied));
        }
        assert!(worst <= 3, "round spread {worst}");
    }

    #[test]
    fn round_spread_helper() {
        let mut occ = [false; 16];
        assert_eq!(round_spread(&occ), 0);
        occ[3] = true;
        assert_eq!(round_spread(&occ), 1);
        occ[4] = true;
        assert_eq!(round_spread(&occ), 2);
        occ[15] = true; // 15,3,4 -> window 15..4 = 6 slots
        assert_eq!(round_spread(&occ), 6);
        let all = [true; 16];
        assert_eq!(round_spread(&all), 16);
    }

    #[test]
    fn wraparound_spread() {
        // Counters 15 and 0 are adjacent on the ring.
        let mut occ = [false; 16];
        occ[15] = true;
        occ[0] = true;
        assert_eq!(round_spread(&occ), 2);
    }
}
