//! Protocol parameters and their derivation from the population size.
//!
//! The protocol is *non-uniform*: like every known sub-polylogarithmic-state
//! protocol it needs rough knowledge of `n` — in the paper's words, "e.g.,
//! to set the size of the phase clock". Three derived quantities matter:
//!
//! * **Φ** — the coin level cap. The paper's asymptotic choice
//!   `⌊log log n⌋ − 3` collapses for feasible `n`; we use the largest Φ whose
//!   expected junta fraction stays ≥ `n^{−0.55}`, reproducing the
//!   Lemma 5.3 window `n^{0.45} ≤ C_Φ ≤ n^{0.77}` (bench `calibration`
//!   sweeps Φ around it).
//! * **Ψ** — the drag cap, Θ(log log n): `⌈log₂ log₂ n⌉ + 2`, so that the
//!   slowest drag tick `Θ(4^Ψ n log n)` lies beyond the `O(n log² n)` whp
//!   horizon the counter must cover (Section 7).
//! * **Γ** — the phase-clock modulus. Theorem 3.2 treats it as a
//!   sufficiently large constant for junta size `n^{1−ε}`; at practical `n`
//!   the quantised level structure pins the junta *fraction* per Φ-plateau,
//!   so we calibrate Γ per plateau from the measured linear law
//!   `round_length ≈ slope(junta fraction) · Γ` (bench `clock`), targeting
//!   rounds of ≈ 5·log₂ n parallel time — long enough for the late-half
//!   one-way epidemic broadcasts to complete whp.

use components::junta::{expected_fraction_at_level, phi_for};

/// Tuning knobs of the GSU19 protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Population size the instance is tuned for.
    pub n: u64,
    /// Phase-clock modulus Γ (even, ≥ 4).
    pub gamma: u16,
    /// Coin level cap Φ ≥ 1; junta = coins at level Φ.
    pub phi: u8,
    /// Drag cap Ψ ≥ 1.
    pub psi: u8,
    /// Final-elimination drag machinery (rules (8)–(10)). Disabling it is
    /// the `GsuNoDrag` ablation: passives are withdrawn only by direct
    /// comparisons, which costs the expected-time bound.
    pub enable_drag: bool,
    /// The seniority-ordered slow backup (rule (11)). Disabling it isolates
    /// the fast path (used to probe how often the backup is actually
    /// needed).
    pub enable_backup: bool,
    /// Skip the biased-coin cascade: leaders start at `cnt = 1` (one idle
    /// round, then level-0 coins forever). Combined with
    /// `direct_withdrawal` and `enable_drag = false` this reproduces the
    /// elimination structure of the GS18 predecessor protocol.
    pub skip_fast_elim: bool,
    /// Eliminate tails-drawers straight to `W` instead of `P` — the unsafe
    /// whp-only variant the paper's passive/drag machinery replaces
    /// (Section 7: "If elimination was equivalent to becoming a follower,
    /// we could accidentally cull all leaders").
    pub direct_withdrawal: bool,
}

impl Params {
    /// Derive all parameters for a population of size `n` (≥ 16).
    pub fn for_population(n: u64) -> Self {
        assert!(n >= 16, "population too small for the protocol structure");
        Self {
            n,
            gamma: gamma_for(n),
            phi: phi_for(n, COIN_BASE_FRACTION),
            psi: psi_for(n),
            enable_drag: true,
            enable_backup: true,
            skip_fast_elim: false,
            direct_withdrawal: false,
        }
    }

    /// Initial value of the leader round counter: one above the number of
    /// coin uses so the first round absorbs initialisation (Section 6).
    /// With `skip_fast_elim` the countdown starts at 1: one idle round,
    /// then the final-elimination epoch.
    pub fn cnt_init(&self) -> u8 {
        if self.skip_fast_elim {
            1
        } else {
            2 * self.phi + 3
        }
    }

    /// The coin level used by active leaders in the round with counter
    /// value `cnt` — the sequence `γ = [1,1,2,2,…,Φ−1,Φ−1,Φ,Φ,Φ,Φ]` of
    /// Section 6, consumed from the top (`cnt` counts *down*):
    ///
    /// * `cnt = 2Φ+3`: the idle first round — no coin (`None`);
    /// * `cnt ∈ {2Φ−1, …, 2Φ+2}`: coin Φ (used four times);
    /// * `cnt ∈ {1, …, 2Φ−2}`: coin `⌈cnt/2⌉` (each used twice);
    /// * `cnt = 0`: the final-elimination epoch — coin 0 (fair-ish, p ≈ ¼).
    pub fn coin_for_cnt(&self, cnt: u8) -> Option<u8> {
        if cnt == self.cnt_init() {
            None
        } else if cnt == 0 {
            Some(0)
        } else if cnt > 2 * self.phi.saturating_sub(1) {
            Some(self.phi)
        } else {
            Some(cnt.div_ceil(2))
        }
    }

    /// Expected heads probability of the level-`ℓ` coin: the expected
    /// fraction of the whole population that is a coin at level ≥ ℓ.
    pub fn coin_bias(&self, level: u8) -> f64 {
        expected_fraction_at_level(COIN_BASE_FRACTION, level)
    }

    /// Number of role configurations, excluding the clock phase.
    pub fn role_count(&self) -> usize {
        // Zero, X, D + coins + inhibitors + leaders.
        3 + self.coin_role_count() + self.inhibitor_role_count() + self.leader_role_count()
    }

    pub(crate) fn coin_role_count(&self) -> usize {
        (self.phi as usize + 1) * 2
    }

    pub(crate) fn inhibitor_role_count(&self) -> usize {
        (self.psi as usize + 1) * 2 * 2 * 2
    }

    pub(crate) fn leader_role_count(&self) -> usize {
        3 * (self.cnt_init() as usize + 1) * 3 * 2 * (self.psi as usize + 1)
    }

    /// Total number of states of this instance (the space-complexity
    /// figure reported in Table 1 rows).
    pub fn num_states(&self) -> usize {
        self.role_count() * self.gamma as usize
    }
}

/// Fraction of the population that becomes coins (sub-population `C`):
/// rules (1) split off half as leaders, then half of the rest as coins.
pub const COIN_BASE_FRACTION: f64 = 0.25;

/// Drag cap Ψ = ⌈log₂ log₂ n⌉ + 2, clamped to `[2, 12]`.
pub fn psi_for(n: u64) -> u8 {
    let l = (n as f64).log2().max(2.0);
    ((l.log2().ceil() as i64) + 2).clamp(2, 12) as u8
}

/// Phase-clock modulus Γ for a population of size `n`.
///
/// Empirical calibration (see module docs and bench `clock`): round length
/// grows linearly in Γ with a slope that depends on the junta *fraction*
/// `f`; measurements give slope ≈ 0.567·log₂(1/f) − 0.93. We size Γ for
/// rounds of `TARGET_ROUND_LOG2 · log₂ n` parallel time and clamp to
/// `[16, 128]`, rounding to even as the clock requires.
pub fn gamma_for(n: u64) -> u16 {
    let l = (n as f64).log2();
    let phi = phi_for(n, COIN_BASE_FRACTION);
    let frac = expected_fraction_at_level(COIN_BASE_FRACTION, phi);
    let lf = -frac.log2();
    let slope = (0.567 * lf - 0.93).max(0.5);
    let gamma = (TARGET_ROUND_LOG2 * l / slope).ceil() as u16;
    let gamma = gamma.clamp(16, 128);
    gamma + (gamma & 1)
}

/// Target round length in units of log₂ n (see [`gamma_for`]).
const TARGET_ROUND_LOG2: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_derivation_is_sane() {
        for exp in [5u32, 8, 10, 14, 16, 20, 24, 30] {
            let p = Params::for_population(1u64 << exp);
            assert!(p.phi >= 1, "phi at 2^{exp}");
            assert!(p.psi >= 2, "psi at 2^{exp}");
            assert!(
                p.gamma >= 16 && p.gamma.is_multiple_of(2),
                "gamma at 2^{exp}"
            );
            assert!(p.num_states() > 0);
        }
    }

    #[test]
    fn phi_matches_design_examples() {
        assert_eq!(Params::for_population(1 << 10).phi, 1);
        assert_eq!(Params::for_population(1 << 16).phi, 1);
        assert_eq!(Params::for_population(1 << 20).phi, 2);
    }

    #[test]
    fn psi_grows_doubly_logarithmically() {
        let small = psi_for(1 << 8);
        let big = psi_for(1 << 30);
        assert!(big >= small);
        assert!(big <= 12);
        // 4^Ψ must exceed log² n (the drag horizon requirement).
        for exp in [8u32, 16, 24, 30] {
            let n = 1u64 << exp;
            let psi = psi_for(n);
            let horizon = (exp as f64) * (exp as f64);
            assert!(4f64.powi(psi as i32) >= horizon, "4^{psi} < log²(2^{exp})");
        }
    }

    #[test]
    fn gamma_sequence_structure_phi_3() {
        let mut p = Params::for_population(1 << 20);
        p.phi = 3; // force Φ=3 to exercise the general shape
        assert_eq!(p.cnt_init(), 9);
        assert_eq!(p.coin_for_cnt(9), None); // idle first round
                                             // cnt 8,7,6,5 -> coin Φ=3 (four uses)
        for cnt in [8, 7, 6, 5] {
            assert_eq!(p.coin_for_cnt(cnt), Some(3), "cnt={cnt}");
        }
        // cnt 4,3 -> coin 2; cnt 2,1 -> coin 1 (two uses each)
        assert_eq!(p.coin_for_cnt(4), Some(2));
        assert_eq!(p.coin_for_cnt(3), Some(2));
        assert_eq!(p.coin_for_cnt(2), Some(1));
        assert_eq!(p.coin_for_cnt(1), Some(1));
        // epoch 3
        assert_eq!(p.coin_for_cnt(0), Some(0));
    }

    #[test]
    fn gamma_sequence_structure_phi_1() {
        let mut p = Params::for_population(1 << 10);
        p.phi = 1;
        assert_eq!(p.cnt_init(), 5);
        assert_eq!(p.coin_for_cnt(5), None);
        for cnt in [4, 3, 2, 1] {
            assert_eq!(p.coin_for_cnt(cnt), Some(1), "cnt={cnt}");
        }
        assert_eq!(p.coin_for_cnt(0), Some(0));
    }

    #[test]
    fn every_coin_level_is_used() {
        // The consumed sequence must cover levels 1..=Φ: Φ four times,
        // everything below exactly twice.
        let mut p = Params::for_population(1 << 20);
        p.phi = 4;
        let mut uses = vec![0u32; p.phi as usize + 1];
        for cnt in 1..=2 * p.phi + 2 {
            uses[p.coin_for_cnt(cnt).unwrap() as usize] += 1;
        }
        assert_eq!(uses[p.phi as usize], 4);
        for level in 1..p.phi {
            assert_eq!(uses[level as usize], 2, "level {level}");
        }
        assert_eq!(uses[0], 0);
    }

    #[test]
    fn coin_bias_decreases_with_level() {
        let p = Params::for_population(1 << 20);
        let mut prev = 1.0;
        for level in 0..=p.phi {
            let b = p.coin_bias(level);
            assert!(b < prev, "bias not decreasing at {level}");
            assert!(b > 0.0);
            prev = b;
        }
        assert!((p.coin_bias(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn state_count_is_loglog_shaped() {
        // The state count must grow far slower than log n (it is
        // O(log log n) up to the Γ calibration); sanity-check that doubling
        // the exponent does not double the states.
        let a = Params::for_population(1 << 12).num_states() as f64;
        let b = Params::for_population(1 << 24).num_states() as f64;
        assert!(b / a < 2.0, "state count doubled: {a} -> {b}");
    }

    #[test]
    fn gamma_for_examples_match_calibration() {
        // Φ=1 plateau: slope ≈ 1.9 → Γ ≈ 2.6·log₂ n.
        let g10 = gamma_for(1 << 10);
        assert!((24..=30).contains(&g10), "gamma(2^10) = {g10}");
        let g16 = gamma_for(1 << 16);
        assert!((40..=46).contains(&g16), "gamma(2^16) = {g16}");
        // Φ=2 plateau: slope ≈ 5.3 → Γ ≈ log₂ n.
        let g20 = gamma_for(1 << 20);
        assert!((16..=24).contains(&g20), "gamma(2^20) = {g20}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_population_rejected() {
        let _ = Params::for_population(8);
    }
}
