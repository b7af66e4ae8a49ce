//! Agent state of the GSU19 protocol and its dense encoding.
//!
//! Every agent carries a clock phase plus a role-specific record
//! (Section 4):
//!
//! * `0` / `X` — pre-initialisation states of the partition rules (1);
//! * `D` — deactivated stragglers (rule (2));
//! * `C` — coins: a level race producing the junta and the biased coins
//!   (Section 5);
//! * `I` — inhibitors: the slowing-down `drag` machinery (Section 7);
//! * `L` — leader candidates (Sections 6–7): mode `A`ctive / `P`assive /
//!   `W`ithdrawn, the fast-elimination countdown `cnt`, the per-round flip
//!   record, the `void` flag ("no heads heard this round") and the `drag`
//!   counter.

use crate::params::Params;

/// Leader candidate mode. `A` and `P` map to the leader output ("alive");
/// `W` is a follower that started out as a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeaderMode {
    /// Active: still flipping coins, still incrementing drag.
    A,
    /// Passive: eliminated by a coin round but still a potential leader
    /// until the drag machinery confirms an active candidate survives.
    P,
    /// Withdrawn: a follower.
    W,
}

/// Per-round coin-flip record of an active leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Flip {
    /// Not flipped yet this round.
    None,
    /// Survived the round's coin.
    Heads,
    /// Eliminated if anyone drew heads.
    Tails,
}

/// Role-specific part of the agent state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Uninitialised.
    Zero,
    /// Intermediate partition state.
    X,
    /// Deactivated straggler: carries the clock, does nothing else.
    D,
    /// Coin.
    C {
        /// Level in the race, `0..=Φ`; level Φ ⇒ junta member.
        level: u8,
        /// Still climbing?
        advancing: bool,
    },
    /// Inhibitor.
    I {
        /// Drag subgroup, `0..=Ψ` (Lemma 7.1: `D_ℓ ∝ 4^{−ℓ}`).
        drag: u8,
        /// Still determining the subgroup (synthetic coin flips)?
        advancing: bool,
        /// Elevated: has (transitively) met an active leader of the same
        /// drag — the "permission slip" for rule (10).
        high: bool,
        /// Set at the agent's first pass through zero; gates the drag
        /// determination to round ≥ 1, when coins have settled.
        started: bool,
    },
    /// Leader candidate.
    L {
        mode: LeaderMode,
        /// Fast-elimination countdown: starts at `2Φ+3`, decremented each
        /// round; `0` = final-elimination epoch.
        cnt: u8,
        flip: Flip,
        /// `true` = "round void so far": no heads heard (Section 6).
        void: bool,
        /// Drag value (Section 7).
        drag: u8,
    },
}

/// Complete agent state: role × clock phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AgentState {
    /// Role-specific record.
    pub role: Role,
    /// Phase-clock value, `0..Γ`.
    pub phase: u16,
}

impl AgentState {
    /// The common initial state: uninitialised, phase 0.
    pub fn initial() -> Self {
        Self {
            role: Role::Zero,
            phase: 0,
        }
    }

    /// A leader candidate as created by partition rule (1).
    pub fn fresh_leader(params: &Params, phase: u16) -> Self {
        Self {
            role: Role::L {
                mode: LeaderMode::A,
                cnt: params.cnt_init(),
                flip: Flip::None,
                void: true,
                drag: 0,
            },
            phase,
        }
    }

    /// An inhibitor as created by partition rule (1).
    pub fn fresh_inhibitor(phase: u16) -> Self {
        Self {
            role: Role::I {
                drag: 0,
                advancing: true,
                high: false,
                started: false,
            },
            phase,
        }
    }

    /// A coin as created by partition rule (1).
    pub fn fresh_coin(phase: u16) -> Self {
        Self {
            role: Role::C {
                level: 0,
                advancing: true,
            },
            phase,
        }
    }

    /// Alive = leader output (mode `A` or `P`).
    pub fn is_alive_leader(&self) -> bool {
        matches!(
            self.role,
            Role::L {
                mode: LeaderMode::A | LeaderMode::P,
                ..
            }
        )
    }
}

/// Seniority key of an alive leader for the backup rule (11), Section 8:
/// higher drag first, then `A` beats `P`, then the *smaller* round counter
/// (further ahead) wins, then heads ≻ none ≻ tails. Larger key = more
/// senior. Ties are resolved in favour of the responder by the caller (the
/// model's ordered pairs make this admissible).
pub fn seniority_key(mode: LeaderMode, cnt: u8, flip: Flip, drag: u8, params: &Params) -> u32 {
    debug_assert!(mode != LeaderMode::W, "withdrawn agents have no seniority");
    let mode_rank: u32 = match mode {
        LeaderMode::A => 1,
        LeaderMode::P => 0,
        LeaderMode::W => 0,
    };
    let cnt_rank = (params.cnt_init() - cnt.min(params.cnt_init())) as u32;
    let flip_rank: u32 = match flip {
        Flip::Heads => 2,
        Flip::None => 1,
        Flip::Tails => 0,
    };
    ((drag as u32 * 2 + mode_rank) * 64 + cnt_rank) * 4 + flip_rank
}

/// Dense state enumeration for [`ppsim::UrnSim`]. Layout:
/// `role_index * Γ + phase`, with roles blocked as
/// `[Zero, X, D, C…, I…, L…]`.
#[derive(Clone, Copy, Debug)]
pub struct StateCodec {
    params: Params,
    coin_base: usize,
    inhibitor_base: usize,
    leader_base: usize,
    role_count: usize,
}

impl StateCodec {
    pub fn new(params: Params) -> Self {
        let coin_base = 3;
        let inhibitor_base = coin_base + params.coin_role_count();
        let leader_base = inhibitor_base + params.inhibitor_role_count();
        let role_count = leader_base + params.leader_role_count();
        debug_assert_eq!(role_count, params.role_count());
        Self {
            params,
            coin_base,
            inhibitor_base,
            leader_base,
            role_count,
        }
    }

    /// Total number of encodable states.
    pub fn num_states(&self) -> usize {
        self.role_count * self.params.gamma as usize
    }

    fn role_index(&self, role: Role) -> usize {
        match role {
            Role::Zero => 0,
            Role::X => 1,
            Role::D => 2,
            Role::C { level, advancing } => {
                self.coin_base + (level as usize) * 2 + advancing as usize
            }
            Role::I {
                drag,
                advancing,
                high,
                started,
            } => {
                self.inhibitor_base
                    + (((drag as usize * 2 + advancing as usize) * 2 + high as usize) * 2
                        + started as usize)
            }
            Role::L {
                mode,
                cnt,
                flip,
                void,
                drag,
            } => {
                let mode_i = match mode {
                    LeaderMode::A => 0,
                    LeaderMode::P => 1,
                    LeaderMode::W => 2,
                };
                let flip_i = match flip {
                    Flip::None => 0,
                    Flip::Heads => 1,
                    Flip::Tails => 2,
                };
                let cnts = self.params.cnt_init() as usize + 1;
                let psi1 = self.params.psi as usize + 1;
                self.leader_base
                    + ((((mode_i * cnts + cnt as usize) * 3 + flip_i) * 2 + void as usize) * psi1
                        + drag as usize)
            }
        }
    }

    fn role_from_index(&self, idx: usize) -> Role {
        if idx == 0 {
            return Role::Zero;
        }
        if idx == 1 {
            return Role::X;
        }
        if idx == 2 {
            return Role::D;
        }
        if idx < self.inhibitor_base {
            let k = idx - self.coin_base;
            return Role::C {
                level: (k / 2) as u8,
                advancing: k % 2 == 1,
            };
        }
        if idx < self.leader_base {
            let mut k = idx - self.inhibitor_base;
            let started = k % 2 == 1;
            k /= 2;
            let high = k % 2 == 1;
            k /= 2;
            let advancing = k % 2 == 1;
            let drag = (k / 2) as u8;
            return Role::I {
                drag,
                advancing,
                high,
                started,
            };
        }
        let mut k = idx - self.leader_base;
        let psi1 = self.params.psi as usize + 1;
        let drag = (k % psi1) as u8;
        k /= psi1;
        let void = k % 2 == 1;
        k /= 2;
        let flip = match k % 3 {
            0 => Flip::None,
            1 => Flip::Heads,
            _ => Flip::Tails,
        };
        k /= 3;
        let cnts = self.params.cnt_init() as usize + 1;
        let cnt = (k % cnts) as u8;
        let mode = match k / cnts {
            0 => LeaderMode::A,
            1 => LeaderMode::P,
            _ => LeaderMode::W,
        };
        Role::L {
            mode,
            cnt,
            flip,
            void,
            drag,
        }
    }

    /// Encode a state into `0..num_states()`.
    pub fn encode(&self, s: AgentState) -> usize {
        self.role_index(s.role) * self.params.gamma as usize + s.phase as usize
    }

    /// Decode an id back into a state.
    pub fn decode(&self, id: usize) -> AgentState {
        let gamma = self.params.gamma as usize;
        AgentState {
            role: self.role_from_index(id / gamma),
            phase: (id % gamma) as u16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::for_population(1 << 12)
    }

    #[test]
    fn initial_state_shape() {
        let s = AgentState::initial();
        assert_eq!(s.role, Role::Zero);
        assert_eq!(s.phase, 0);
        assert!(!s.is_alive_leader());
    }

    #[test]
    fn fresh_leader_is_active_with_full_counter() {
        let p = params();
        let s = AgentState::fresh_leader(&p, 3);
        assert!(matches!(
            s.role,
            Role::L {
                mode: LeaderMode::A,
                ..
            }
        ));
        assert!(s.is_alive_leader());
        match s.role {
            Role::L {
                cnt,
                flip,
                void,
                drag,
                ..
            } => {
                assert_eq!(cnt, p.cnt_init());
                assert_eq!(flip, Flip::None);
                assert!(void);
                assert_eq!(drag, 0);
            }
            _ => unreachable!(),
        }
        assert_eq!(s.phase, 3);
    }

    #[test]
    fn codec_roundtrips_every_state() {
        let p = params();
        let codec = StateCodec::new(p);
        for id in 0..codec.num_states() {
            let s = codec.decode(id);
            assert_eq!(codec.encode(s), id, "id {id} -> {s:?}");
        }
    }

    #[test]
    fn codec_is_injective_on_constructed_states() {
        let p = params();
        let codec = StateCodec::new(p);
        let mut seen = std::collections::HashSet::new();
        for phase in 0..p.gamma {
            for s in [
                AgentState::initial(),
                AgentState::fresh_leader(&p, phase),
                AgentState::fresh_inhibitor(phase),
                AgentState::fresh_coin(phase),
            ] {
                let mut s = s;
                s.phase = phase;
                assert!(seen.insert(codec.encode(s)), "collision at {s:?}");
            }
        }
    }

    #[test]
    fn seniority_orders_by_drag_first() {
        let p = params();
        let high_drag_passive = seniority_key(LeaderMode::P, p.cnt_init(), Flip::Tails, 3, &p);
        let low_drag_active = seniority_key(LeaderMode::A, 0, Flip::Heads, 2, &p);
        assert!(high_drag_passive > low_drag_active);
    }

    #[test]
    fn seniority_active_beats_passive_at_equal_drag() {
        let p = params();
        let a = seniority_key(LeaderMode::A, 3, Flip::Tails, 1, &p);
        let pp = seniority_key(LeaderMode::P, 3, Flip::Heads, 1, &p);
        assert!(a > pp);
    }

    #[test]
    fn seniority_smaller_cnt_wins() {
        let p = params();
        let ahead = seniority_key(LeaderMode::A, 1, Flip::Tails, 0, &p);
        let behind = seniority_key(LeaderMode::A, 2, Flip::Heads, 0, &p);
        assert!(ahead > behind);
    }

    #[test]
    fn seniority_heads_beats_none_beats_tails() {
        let p = params();
        let h = seniority_key(LeaderMode::A, 2, Flip::Heads, 0, &p);
        let n = seniority_key(LeaderMode::A, 2, Flip::None, 0, &p);
        let t = seniority_key(LeaderMode::A, 2, Flip::Tails, 0, &p);
        assert!(h > n && n > t);
    }

    #[test]
    fn codec_sizes_match_params() {
        let p = params();
        let codec = StateCodec::new(p);
        assert_eq!(codec.num_states(), p.num_states());
    }
}
