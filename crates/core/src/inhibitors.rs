//! The inhibitor sub-population `I` (Section 7).
//!
//! Inhibitors implement the *slowing-down clock* behind the `drag` counter.
//! Two mechanisms:
//!
//! 1. **Drag determination** (round 1): starting at the agent's first pass
//!    through zero, an advancing inhibitor performs synthetic coin flips in
//!    the late half-round — meeting a coin (probability ≈ ¼) is a success
//!    that increments `drag`; meeting anything else stops it. This yields
//!    the subgroup sizes `D_ℓ ≈ n_I · 4^{−ℓ}` of Lemma 7.1.
//!
//!    *Note*: the displayed rules in Section 7 have the two cases swapped
//!    (increment on non-coin); Lemma 7.1 and its Appendix-A proof require
//!    success = "meeting a coin". We follow the lemma.
//!
//! 2. **Elevation** (final epoch): a stopped, low inhibitor meeting an
//!    *active* leader of its own drag value turns `high` (rule (8)), and
//!    `high` spreads among same-drag inhibitors by one-way epidemic. High
//!    inhibitors of drag `x` are the tokens that let an active leader with
//!    heads advance to drag `x+1` (rule (10)) — the `ℓ`-th such transition
//!    takes `Θ(4^ℓ n log n)` interactions (Lemma 7.2, Figure 3).

use components::clock::{Clock, ClockTick};

use crate::params::Params;
use crate::state::{LeaderMode, Role};

/// The mutable fields of an inhibitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InhibitorFields {
    /// Drag subgroup, `0..=Ψ`.
    pub drag: u8,
    /// Still determining the subgroup?
    pub advancing: bool,
    /// Elevated by an active leader of equal drag (rule (8)).
    pub high: bool,
    /// First pass through zero seen (gates drag determination).
    pub started: bool,
}

/// Responder update of an inhibitor.
pub fn update_responder(
    params: &Params,
    clock: &Clock,
    tick: ClockTick,
    mut f: InhibitorFields,
    initiator: &Role,
) -> InhibitorFields {
    // Drag determination starts at the first pass through zero.
    if tick.passed_zero {
        f.started = true;
    }

    // Synthetic coin flips in the late half-round.
    if f.advancing && f.started && clock.is_late(tick) {
        match initiator {
            Role::C { .. } => {
                if f.drag < params.psi {
                    f.drag += 1;
                } else {
                    f.advancing = false;
                }
            }
            _ => f.advancing = false,
        }
    }

    if params.enable_drag && !f.high {
        match initiator {
            // Rule (8): seeding by an active leader of equal drag in the
            // final epoch.
            Role::L {
                mode: LeaderMode::A,
                cnt: 0,
                drag,
                ..
            } if !f.advancing && *drag == f.drag => {
                f.high = true;
            }
            // One-way epidemic of `high` among same-drag inhibitors.
            Role::I {
                drag, high: true, ..
            } if *drag == f.drag => {
                f.high = true;
            }
            _ => {}
        }
    }

    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Flip;

    fn params() -> Params {
        Params::for_population(1 << 12)
    }

    fn clock(p: &Params) -> Clock {
        Clock::new(p.gamma)
    }

    fn fresh() -> InhibitorFields {
        InhibitorFields {
            drag: 0,
            advancing: true,
            high: false,
            started: false,
        }
    }

    fn late_tick(c: &Clock) -> ClockTick {
        let g = c.gamma();
        let t = c.update(false, g - 4, g - 3);
        assert!(c.is_late(t));
        t
    }

    fn early_tick(c: &Clock) -> ClockTick {
        let t = c.update(false, 1, 2);
        assert!(c.is_early(t));
        t
    }

    fn pass_tick(c: &Clock) -> ClockTick {
        let t = c.update(false, c.gamma() - 1, 1);
        assert!(t.passed_zero);
        t
    }

    fn active_leader(cnt: u8, drag: u8) -> Role {
        Role::L {
            mode: LeaderMode::A,
            cnt,
            flip: Flip::Heads,
            void: false,
            drag,
        }
    }

    #[test]
    fn starts_at_first_pass() {
        let p = params();
        let c = clock(&p);
        let f = update_responder(&p, &c, pass_tick(&c), fresh(), &Role::D);
        assert!(f.started);
        assert_eq!(f.drag, 0);
        assert!(f.advancing);
    }

    #[test]
    fn no_drag_flips_before_started() {
        let p = params();
        let c = clock(&p);
        let coin = Role::C {
            level: 0,
            advancing: true,
        };
        let f = update_responder(&p, &c, late_tick(&c), fresh(), &coin);
        assert_eq!(f.drag, 0);
        assert!(f.advancing);
    }

    #[test]
    fn coin_meeting_increments_drag_in_late_half() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        let coin = Role::C {
            level: 1,
            advancing: false,
        };
        let f = update_responder(&p, &c, late_tick(&c), f, &coin);
        assert_eq!(f.drag, 1);
        assert!(f.advancing);
    }

    #[test]
    fn non_coin_stops_drag_determination() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.drag = 2;
        let f = update_responder(&p, &c, late_tick(&c), f, &Role::D);
        assert_eq!(f.drag, 2);
        assert!(!f.advancing);
    }

    #[test]
    fn early_half_does_not_flip() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        let coin = Role::C {
            level: 0,
            advancing: true,
        };
        let f = update_responder(&p, &c, early_tick(&c), f, &coin);
        assert_eq!(f.drag, 0);
        assert!(f.advancing);
    }

    #[test]
    fn drag_caps_at_psi() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.drag = p.psi;
        let coin = Role::C {
            level: 0,
            advancing: true,
        };
        let f = update_responder(&p, &c, late_tick(&c), f, &coin);
        assert_eq!(f.drag, p.psi);
        assert!(!f.advancing);
    }

    #[test]
    fn seeding_requires_equal_drag_active_leader_in_final_epoch() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.advancing = false;
        f.drag = 1;
        // Equal drag, final epoch: elevates.
        let f2 = update_responder(&p, &c, early_tick(&c), f, &active_leader(0, 1));
        assert!(f2.high);
        // Different drag: no.
        let f3 = update_responder(&p, &c, early_tick(&c), f, &active_leader(0, 2));
        assert!(!f3.high);
        // Fast-elimination epoch (cnt > 0): no.
        let f4 = update_responder(&p, &c, early_tick(&c), f, &active_leader(3, 1));
        assert!(!f4.high);
    }

    #[test]
    fn seeding_requires_stopped_inhibitor() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.advancing = true; // still determining its subgroup
        let f2 = update_responder(&p, &c, early_tick(&c), f, &active_leader(0, 0));
        assert!(!f2.high);
    }

    #[test]
    fn passive_leader_does_not_seed() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.advancing = false;
        let passive = Role::L {
            mode: LeaderMode::P,
            cnt: 0,
            flip: Flip::Tails,
            void: false,
            drag: 0,
        };
        let f2 = update_responder(&p, &c, early_tick(&c), f, &passive);
        assert!(!f2.high);
    }

    #[test]
    fn high_spreads_among_same_drag_inhibitors() {
        let p = params();
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.advancing = false;
        f.drag = 2;
        let peer_high = Role::I {
            drag: 2,
            advancing: false,
            high: true,
            started: true,
        };
        let f2 = update_responder(&p, &c, early_tick(&c), f, &peer_high);
        assert!(f2.high);
        let other_drag_high = Role::I {
            drag: 3,
            advancing: false,
            high: true,
            started: true,
        };
        let f3 = update_responder(&p, &c, early_tick(&c), f, &other_drag_high);
        assert!(!f3.high);
    }

    #[test]
    fn drag_machinery_respects_ablation_flag() {
        let mut p = params();
        p.enable_drag = false;
        let c = clock(&p);
        let mut f = fresh();
        f.started = true;
        f.advancing = false;
        let f2 = update_responder(&p, &c, early_tick(&c), f, &active_leader(0, 0));
        assert!(!f2.high);
    }
}
