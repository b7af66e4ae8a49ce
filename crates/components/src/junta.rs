//! The level race of Section 5 ("coin preprocessing"), after the
//! junta-election protocol of GS18.
//!
//! Racing agents carry `level ∈ {0..Φ}` and a mode flag `adv`/`stop`. A
//! racing agent interacting as **responder** while still advancing:
//!
//! * stops if the initiator is outside the racing population;
//! * stops if the initiator races at a *strictly lower* level;
//! * climbs one level if the initiator races at an equal-or-higher level
//!   (until the cap Φ).
//!
//! The fraction of agents reaching level `ℓ+1` is roughly the *square* of
//! the fraction reaching `ℓ` (halved): if `C_ℓ = q·n` then
//! `(9/20)q²n ≤ C_{ℓ+1} ≤ (11/10)q²n` with very high probability
//! (Lemmas 5.1, 5.2). Level-Φ agents form the **junta** that drives the
//! phase clock, and every level ℓ doubles as an asymmetric coin with heads
//! probability `C_ℓ / n` (Figure 1).

/// Parameters and update rule of the level race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelRace {
    /// Level cap Φ; agents at Φ are junta members.
    pub phi: u8,
}

/// What the responder saw on the other side of the interaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opponent {
    /// The initiator is not part of the racing population.
    Outsider,
    /// The initiator races at this level.
    Racer(u8),
}

impl LevelRace {
    /// A race capped at `phi`.
    pub fn new(phi: u8) -> Self {
        Self { phi }
    }

    /// Responder update: `(level, advancing)` before the interaction plus
    /// what the initiator is → `(level, advancing)` after.
    ///
    /// Agents that have stopped, or already sit at the cap, never change.
    #[inline]
    pub fn update(&self, level: u8, advancing: bool, opponent: Opponent) -> (u8, bool) {
        if !advancing || level >= self.phi {
            return (level, advancing);
        }
        match opponent {
            Opponent::Outsider => (level, false),
            Opponent::Racer(other) if other < level => (level, false),
            Opponent::Racer(_) => (level + 1, true),
        }
    }

    /// Whether an agent at `level` is a junta member.
    #[inline]
    pub fn is_junta(&self, level: u8) -> bool {
        level >= self.phi
    }
}

/// The smallest population a level race is sized for: [`phi_for`] asserts
/// it, and experiment specs reject smaller populations for the protocols
/// that run one.
pub const MIN_RACE_POPULATION: u64 = 4;

/// Pick the level cap Φ for a race whose level-0 fraction of the whole
/// population is `base_fraction` (1/4 for the paper's coins, 1 for GS18's
/// whole-population junta election).
///
/// The expected fraction at level ℓ follows `f_{ℓ+1} ≈ f_ℓ²/2`, i.e.
/// `f_ℓ = 2·(f₀/2)^{2^ℓ}`. We take the largest Φ with
/// `f_Φ ≥ n^{−0.55}`, which lands the junta size inside the paper's
/// `[n^{0.45}, n^{0.77}]` window (Lemma 5.3) at practical population sizes.
/// The paper's asymptotic choice Φ = ⌊log log n⌋ − 3 is recovered up to the
/// additive constant; bench `calibration` sweeps Φ around this choice.
pub fn phi_for(n: u64, base_fraction: f64) -> u8 {
    assert!(
        n >= MIN_RACE_POPULATION,
        "population too small for a level race"
    );
    assert!(base_fraction > 0.0 && base_fraction <= 1.0);
    let target = (n as f64).powf(-0.55);
    let mut phi = 0u8;
    loop {
        let next = phi + 1;
        // f_ℓ = 2 (f0/2)^{2^ℓ}
        let f = 2.0 * (base_fraction / 2.0).powi(1 << next.min(20));
        if f >= target && next < 20 {
            phi = next;
        } else {
            break;
        }
    }
    phi.max(1)
}

/// Expected fraction of the *whole population* racing at level ≥ ℓ, per the
/// `f_{ℓ+1} = f_ℓ²/2` recursion. Used by figure benches as the idealised
/// curve to compare against.
pub fn expected_fraction_at_level(base_fraction: f64, level: u8) -> f64 {
    2.0 * (base_fraction / 2.0).powi(1i32 << level.min(25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopped_agents_never_move() {
        let race = LevelRace::new(3);
        assert_eq!(race.update(1, false, Opponent::Racer(3)), (1, false));
        assert_eq!(race.update(1, false, Opponent::Outsider), (1, false));
    }

    #[test]
    fn outsider_stops_racer() {
        let race = LevelRace::new(3);
        assert_eq!(race.update(1, true, Opponent::Outsider), (1, false));
    }

    #[test]
    fn lower_racer_stops_racer() {
        let race = LevelRace::new(3);
        assert_eq!(race.update(2, true, Opponent::Racer(1)), (2, false));
    }

    #[test]
    fn equal_or_higher_racer_advances() {
        let race = LevelRace::new(3);
        assert_eq!(race.update(1, true, Opponent::Racer(1)), (2, true));
        assert_eq!(race.update(1, true, Opponent::Racer(2)), (2, true));
    }

    #[test]
    fn cap_is_respected() {
        let race = LevelRace::new(3);
        assert_eq!(race.update(3, true, Opponent::Racer(3)), (3, true));
        assert!(race.is_junta(3));
        assert!(!race.is_junta(2));
    }

    #[test]
    fn phi_grows_with_n() {
        let small = phi_for(1 << 10, 0.25);
        let large = phi_for(1 << 30, 0.25);
        assert!(small >= 1);
        assert!(large >= small);
    }

    #[test]
    fn phi_for_paper_coins_at_2_20() {
        // f1 = 1/32, f2 = 1/2048 = 2^-11; target n^-0.55 = 2^-11 at n=2^20,
        // so Φ = 2.
        assert_eq!(phi_for(1 << 20, 0.25), 2);
    }

    #[test]
    fn phi_for_gs18_race_is_larger() {
        // Whole-population race decays slower per level, so the cap is
        // deeper for the same n.
        let coins = phi_for(1 << 20, 0.25);
        let whole = phi_for(1 << 20, 1.0);
        assert!(whole > coins, "whole={whole} coins={coins}");
    }

    #[test]
    fn expected_fraction_recursion() {
        let f0 = 0.25;
        let f1 = expected_fraction_at_level(f0, 1);
        let f2 = expected_fraction_at_level(f0, 2);
        assert!((f1 - f0 * f0 / 2.0).abs() < 1e-12);
        assert!((f2 - f1 * f1 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn expected_fraction_level_zero_is_base() {
        // f_0 = 2·(f0/2)^1 = f0.
        assert!((expected_fraction_at_level(0.25, 0) - 0.25).abs() < 1e-12);
        assert!((expected_fraction_at_level(1.0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phi_is_at_least_one_even_for_tiny_n() {
        assert_eq!(phi_for(16, 0.25), 1);
    }
}
