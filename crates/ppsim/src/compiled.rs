//! Compiled transition tables for factored protocols.
//!
//! The per-interaction cost of a rich protocol like GSU19 is dominated by
//! re-deriving structure that never changes: the clock update re-checks
//! junta membership and circular-max arithmetic, the role rules re-match a
//! deep enum tree, and the urn engines round-trip through the codec. For
//! the protocols in this repository the full transition function *factors*:
//!
//! * a state id splits as `bucket · P + phase` (role × clock phase);
//! * the responder's **phase** update depends on the two phases and on the
//!   responder's bucket only through a small *phase class* (junta member vs
//!   follower), and the initiator's phase never changes;
//! * the **bucket** (role) updates of both agents depend on the two buckets
//!   and on the phases only through a small *tick class* of the responder's
//!   phase update (passed zero / early half / late half / neither).
//!
//! [`CompiledProtocol`] exploits this: it probes the dynamic transition
//! once per `(phase class, phase, phase)` triple when it is built, and
//! once per `(bucket, bucket, tick class)` triple the first time an
//! interaction looks that role entry up, and replays the answers from
//! dense lookup tables at memory speed. States are dense `u32` ids
//! (`bucket << pb | phase`), so the compiled protocol drops into
//! [`crate::AgentSim`], [`crate::UrnSim`] and the batched sampling path
//! unchanged — with no codec work left in the hot loop.
//!
//! The role tables hold `tick_class_count()` entries per (responder
//! bucket, initiator bucket) pair: B²·T in all, 2.7 M for GSU19 at
//! n = 2^10, of which a stabilisation trial visits about 0.1%. They are
//! allocated zeroed, 0 meaning "not probed yet", so pages that no lookup
//! touches never become resident and building a compiled protocol costs
//! only its small phase and output tables. A lookup that finds an empty
//! entry probes it and stores the answer. Every thread computes the same
//! answer for an entry, so trials on several threads share one set of
//! tables, and the order in which they fill it cannot change a
//! trajectory.
//!
//! [`table_dims`] checks a protocol's dimensions against the table
//! packing and a ceiling on table entries before anything is allocated.
//! The factorisation contract itself is *checked, not trusted*: every
//! probe `debug_assert`s the contract at its representative, and the
//! repository's equivalence suite (`tests/compiled_equivalence.rs`)
//! compares compiled and dynamic transitions exhaustively at small
//! parameters and by seeded sampling at paper scale.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

use crate::protocol::{EnumerableProtocol, Output, Protocol};
/// A protocol whose transition function factors through a (bucket, phase)
/// state split — the contract [`CompiledProtocol`] compiles against.
///
/// Implementations guarantee, for every reachable state pair:
///
/// 1. **Dense factored ids**: `state_id = bucket * phase_count() + phase`
///    with `num_states() = B * phase_count()` for `B` buckets.
/// 2. **Initiator phase is preserved** by the transition.
/// 3. **Responder phase update** is a function of
///    `(phase_class(responder bucket), responder phase, initiator phase)`
///    alone.
/// 4. **Bucket updates** of both agents are functions of
///    `(responder bucket, initiator bucket,
///    tick_class(old responder phase, new responder phase))` alone.
///
/// Violating the contract cannot crash the compiled protocol but makes it
/// simulate a different chain; the equivalence suite exists to catch that.
pub trait FactoredProtocol: EnumerableProtocol {
    /// Number of clock phases `P` per bucket. `num_states()` must be a
    /// multiple of this.
    fn phase_count(&self) -> usize;

    /// Number of distinct phase-dynamics classes (e.g. 2: follower /
    /// junta).
    fn phase_class_count(&self) -> usize;

    /// Phase-dynamics class of a bucket, in `0..phase_class_count()`.
    /// Buckets of the same class update their phase identically.
    fn phase_class(&self, bucket: usize) -> usize;

    /// Number of distinct tick classes the bucket rules can observe.
    fn tick_class_count(&self) -> usize;

    /// Tick class of a responder phase update `old → new`, in
    /// `0..tick_class_count()`. Must be a pure function of the two phases.
    fn tick_class(&self, old_phase: usize, new_phase: usize) -> usize;
}

/// Largest phase table, and largest role table, in entries, that
/// [`table_dims`] accepts: 2^26. The phase table is built eagerly
/// (4 bytes an entry); the two role tables and the inert bitmap reserve
/// about 4 bytes of address space an entry but fill lazily. Default
/// parameters fit with room to spare: GSU19 at n = 2^30 has B = 1 225
/// buckets (6.0 M entries per role table), and a clock of Γ ≤ 128
/// phases needs at most 2^15 phase entries.
const MAX_TABLE_ENTRIES: usize = 1 << 26;

/// The packed table layout of a factored protocol, from [`table_dims`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableDims {
    /// Bucket count `B`.
    pub buckets: usize,
    /// Phase bits: ids pack as `bucket << pb | phase`.
    pub pb: u32,
    /// Tick-class bits: role-table entries per bucket pair = `1 << tb`.
    pub tb: u32,
    /// Phase-table entries, `classes << 2 pb`.
    pub phase_entries: usize,
    /// Entries of each role table, `B² << tb`.
    pub role_entries: usize,
}

/// Check the dimensions of a factored protocol — `num_states`,
/// `phase_count`, `phase_class_count` and `tick_class_count` — against
/// the table packing and the table-entry ceiling, and lay its tables out.
/// Reads nothing but those four numbers.
///
/// [`CompiledProtocol::new`] asserts through this; callers that take the
/// dimensions from user input call it first to report a usage error.
pub fn table_dims<P: FactoredProtocol>(inner: &P) -> Result<TableDims, String> {
    let states = inner.num_states();
    let phases = inner.phase_count();
    let classes = inner.phase_class_count().max(1);
    let ticks = inner.tick_class_count().max(1);
    if phases == 0 {
        return Err("phase_count must be positive".into());
    }
    if !states.is_multiple_of(phases) {
        return Err(format!(
            "num_states ({states}) must factor as buckets × phases ({phases})"
        ));
    }
    let buckets = states / phases;
    if buckets >= 1 << 15 || phases > 1 << 16 || ticks > 1 << 16 {
        return Err(format!(
            "factored dimensions exceed the table packing (B = {buckets} must be < 2^15, \
             P = {phases} and T = {ticks} must be ≤ 2^16)"
        ));
    }
    let bits = |k: usize| usize::BITS - (k - 1).leading_zeros();
    let (pb, tb) = (bits(phases), bits(ticks));
    // `classes` is not bounded by the packing check: saturate, and let
    // the ceiling reject the result.
    let phase_entries = classes.saturating_mul(1 << (2 * pb));
    let role_entries = (buckets * buckets).saturating_mul(1 << tb);
    if phase_entries > MAX_TABLE_ENTRIES {
        return Err(format!(
            "the phase table for P = {phases} phases × {classes} phase classes needs \
             {phase_entries} entries (B = {buckets}; limit {MAX_TABLE_ENTRIES})"
        ));
    }
    if role_entries > MAX_TABLE_ENTRIES {
        return Err(format!(
            "the role tables for B = {buckets} buckets × {ticks} tick classes need \
             {role_entries} entries each (P = {phases}; limit {MAX_TABLE_ENTRIES})"
        ));
    }
    Ok(TableDims {
        buckets,
        pb,
        tb,
        phase_entries,
        role_entries,
    })
}

/// Shared compiled tables (cheap to clone across trials).
///
/// All tables use power-of-two strides so the hot-loop indexing is pure
/// shifts and masks: the phase table is padded to `1 << pb` per phase
/// dimension, the role tables to `1 << tb` entries per pair.
///
/// The phase and output tables are built with the protocol. The role
/// tables and the inert bitmap start zeroed and fill on first lookup
/// ([`CompiledProtocol::fill`]): a role entry is empty while its
/// `role_resp` word is 0. A fill stores `role_init` and the inert bit
/// with relaxed ordering and then `role_resp` with `Release`; lookups
/// read `role_resp` with `Acquire`, so a filled entry's `role_init` is
/// visible. Every filler stores the same values, so races are benign.
///
/// The role table is split to keep the *randomly accessed* bytes small:
/// the responder's new bucket is a dense `u16` table (the per-step load),
/// while the initiator's new bucket — which differs from its old bucket
/// only for a handful of pair kinds (partition rules, leader duels) — is
/// flagged by the responder entry's top bit and kept in a parallel table
/// whose cache lines stay cold on the overwhelming majority of steps.
struct Tables {
    /// `(new_phase | tick_class << 16)` indexed by
    /// `class_row[bucket] | old_phase << pb | initiator_phase`.
    phase: Vec<u32>,
    /// Responder's new bucket plus one (low 15 bits; 0 = not filled yet)
    /// indexed by `(responder_bucket * B + initiator_bucket) << tb |
    /// tick_class`; the top bit ([`INIT_CHANGED`]) signals that the
    /// initiator's bucket changes too and `role_init` must be consulted.
    role_resp: Box<[AtomicU16]>,
    /// Initiator's new bucket, same indexing as `role_resp`; only read
    /// when the [`INIT_CHANGED`] flag is set.
    role_init: Box<[AtomicU16]>,
    /// Per-(pair, tick) inert bitmap, one bit per `role_resp` entry
    /// (same indexing, bit `idx & 63` of word `idx >> 6`): set when the
    /// filled entry changes neither bucket. In the late-simulation regime
    /// most steps hit inert entries (deactivated agents, stopped coins,
    /// withdrawn leaders outside the round boundary), so the role lookup
    /// resolves from a few hot cache lines — and the branch predicts
    /// well — without touching the big tables. One cache line covers 128
    /// role pairs. (A coarser per-pair bitmap checked *before* the tick
    /// was measured slower: it splits the hot loop into two poorly
    /// predicted branches.)
    inert: Box<[AtomicU64]>,
    /// Representative `(old phase, initiator phase)` per (phase class,
    /// tick class), indexed by `class << tb | tick`: the phases a fill
    /// probes the dynamic transition at. `None` when the class's phase
    /// updates never produce that tick class.
    tick_rep: Vec<Option<(u32, u32)>>,
    /// Pre-shifted phase-table base per bucket:
    /// `phase_class(bucket) << (2 * pb)`.
    class_row: Vec<u32>,
    /// Output per packed state id (`B << pb` entries).
    output: Vec<Output>,
}

/// Top bit of a `role_resp` entry: the initiator's bucket changes.
const INIT_CHANGED: u16 = 1 << 15;

/// A protocol compiled into dense transition tables. See the module docs.
///
/// `State` is the packed dense id `bucket << pb | phase` (`pb` =
/// `ceil(log2(phase_count))`), so simulations run on `u32`s; use
/// [`CompiledProtocol::decode_state`] / [`CompiledProtocol::encode_state`]
/// to translate to the inner protocol's states for inspection (census,
/// traces).
pub struct CompiledProtocol<P: FactoredProtocol> {
    inner: P,
    /// Phase count `P` of the inner protocol.
    phases: u32,
    /// Bucket count `B`.
    buckets: u32,
    /// Phase bits: ids pack as `bucket << pb | phase`.
    pb: u32,
    /// `(1 << pb) - 1`.
    pmask: u32,
    /// Tick-class bits: role-table entries per pair = `1 << tb`.
    tb: u32,
    tables: Arc<Tables>,
    initial_id: u32,
}

impl<P: FactoredProtocol + Clone> Clone for CompiledProtocol<P> {
    /// Clones share the tables, filled entries included.
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            tables: Arc::clone(&self.tables),
            ..*self
        }
    }
}

impl<P: FactoredProtocol> CompiledProtocol<P> {
    /// Compile `inner`: build its phase and output tables and reserve its
    /// role tables, which fill as interactions look their entries up.
    ///
    /// # Panics
    /// Panics if [`table_dims`] rejects the factored dimensions
    /// (`num_states` not a multiple of `phase_count`, dimensions beyond
    /// the table packing, or tables beyond the entry ceiling).
    pub fn new(inner: P) -> Self {
        let dims = table_dims(&inner).unwrap_or_else(|e| panic!("{e}"));
        let phases = inner.phase_count();
        let TableDims {
            buckets, pb, tb, ..
        } = dims;
        let classes = inner.phase_class_count().max(1);
        let ticks = inner.tick_class_count().max(1);

        // Per-bucket phase class, pre-shifted into a phase-table base,
        // plus one representative bucket per class.
        let mut class_row = Vec::with_capacity(buckets);
        let mut rep_bucket: Vec<Option<usize>> = vec![None; classes];
        for b in 0..buckets {
            let c = inner.phase_class(b);
            assert!(c < classes, "phase_class({b}) = {c} out of range");
            class_row.push((c << (2 * pb)) as u32);
            rep_bucket[c].get_or_insert(b);
        }

        // Phase table: probe one representative responder bucket per class
        // against an arbitrary initiator bucket (the contract makes the
        // phase update independent of both buckets given the class).
        // Collect a representative (old phase, initiator phase) pair per
        // realisable (class, tick class) while we are at it.
        let mut phase = vec![0u32; dims.phase_entries];
        let mut tick_rep = vec![None; classes << tb];
        for (c, rep) in rep_bucket.iter().enumerate() {
            let Some(rb) = *rep else { continue };
            for rp in 0..phases {
                let r = inner.state_from_id(rb * phases + rp);
                for ip in 0..phases {
                    let i = inner.state_from_id(ip); // bucket 0
                    let (rn, _) = inner.transition(r, i);
                    let np = inner.state_id(rn) % phases;
                    let t = inner.tick_class(rp, np);
                    debug_assert!(t < ticks, "tick_class out of range");
                    phase[(c << (2 * pb)) | (rp << pb) | ip] = (np as u32) | ((t as u32) << 16);
                    tick_rep[(c << tb) | t].get_or_insert((rp as u32, ip as u32));
                }
            }
        }

        // Role tables: zeroed, so every entry starts empty and pages that
        // no lookup touches are never written.
        // SAFETY: all-zero bytes are a valid `AtomicU16`, which has the
        // same size and bit validity as `u16`.
        let role_resp =
            unsafe { Box::<[AtomicU16]>::new_zeroed_slice(dims.role_entries).assume_init() };
        // SAFETY: as for `role_resp`.
        let role_init =
            unsafe { Box::<[AtomicU16]>::new_zeroed_slice(dims.role_entries).assume_init() };
        // SAFETY: all-zero bytes are a valid `AtomicU64`, which has the
        // same size and bit validity as `u64`.
        let inert = unsafe {
            Box::<[AtomicU64]>::new_zeroed_slice(dims.role_entries.div_ceil(64)).assume_init()
        };

        // Output per packed id; padding phases (≥ P) alias phase 0 so the
        // table is total (those ids never occur, but `UrnSim::new`
        // enumerates them).
        let padded = buckets << pb;
        let mut output = Vec::with_capacity(padded);
        for id in 0..padded {
            let (b, ph) = (id >> pb, id & ((1usize << pb) - 1));
            let ph = if ph < phases { ph } else { 0 };
            output.push(inner.output(inner.state_from_id(b * phases + ph)));
        }

        let init = inner.state_id(inner.initial_state());
        let initial_id = (((init / phases) as u32) << pb) | (init % phases) as u32;
        Self {
            inner,
            phases: phases as u32,
            buckets: buckets as u32,
            pb,
            pmask: if pb == 0 { 0 } else { (1u32 << pb) - 1 },
            tb,
            tables: Arc::new(Tables {
                phase,
                role_resp,
                role_init,
                inert,
                tick_rep,
                class_row,
                output,
            }),
            initial_id,
        }
    }

    /// The wrapped dynamic protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Total table entries (phase + the two role tables), filled or not.
    pub fn table_entries(&self) -> usize {
        self.tables.phase.len() + self.tables.role_resp.len() + self.tables.role_init.len()
    }

    /// Inner-protocol state of a packed id.
    pub fn decode_state(&self, s: u32) -> P::State {
        let b = (s >> self.pb) as usize;
        let ph = (s & self.pmask) as usize;
        self.inner.state_from_id(b * self.phases as usize + ph)
    }

    /// Packed id of an inner-protocol state.
    pub fn encode_state(&self, s: P::State) -> u32 {
        let id = self.inner.state_id(s);
        (((id / self.phases as usize) as u32) << self.pb) | (id % self.phases as usize) as u32
    }

    /// Fill role entry `idx` — responder bucket `rb`, initiator bucket
    /// `ib`, tick class `tick` — by probing the dynamic transition at the
    /// tick class's representative phases, and return its `role_resp`
    /// word. Concurrent fills of one entry store identical values.
    #[cold]
    #[inline(never)]
    fn fill(&self, rb: usize, ib: usize, tick: usize, idx: usize) -> u16 {
        let t = &*self.tables;
        let class_base = t.class_row[rb] as usize;
        let (rb2, ib2) = match t.tick_rep[((class_base >> (2 * self.pb)) << self.tb) | tick] {
            // Tick class never realised for this phase class: only padding
            // ids reach the entry; store the identity.
            None => (rb, ib),
            Some((rp, ip)) => {
                let (p, rp, ip) = (self.phases as usize, rp as usize, ip as usize);
                let r = self.inner.state_from_id(rb * p + rp);
                let i = self.inner.state_from_id(ib * p + ip);
                let (rn, inew) = self.inner.transition(r, i);
                let (rn_id, in_id) = (self.inner.state_id(rn), self.inner.state_id(inew));
                // Contract checks at the probed representative: initiator
                // keeps its phase, responder phase matches the phase table.
                debug_assert_eq!(in_id % p, ip, "initiator phase changed");
                debug_assert_eq!(
                    rn_id % p,
                    (t.phase[class_base | (rp << self.pb) | ip] & 0xFFFF) as usize,
                    "responder phase depends on buckets beyond the phase class"
                );
                (rn_id / p, in_id / p)
            }
        };
        let re = (rb2 as u16 + 1) | if ib2 != ib { INIT_CHANGED } else { 0 };
        t.role_init[idx].store(ib2 as u16, Ordering::Relaxed);
        if rb2 == rb && ib2 == ib {
            t.inert[idx >> 6].fetch_or(1 << (idx & 63), Ordering::Relaxed);
        }
        // Release: a lookup that reads this word with `Acquire` also sees
        // the `role_init` store above.
        t.role_resp[idx].store(re, Ordering::Release);
        re
    }
}

impl<P: FactoredProtocol> Protocol for CompiledProtocol<P> {
    type State = u32;

    fn initial_state(&self) -> u32 {
        self.initial_id
    }

    #[inline]
    fn transition(&self, r: u32, i: u32) -> (u32, u32) {
        let rb = r >> self.pb;
        let rp = r & self.pmask;
        let ib = i >> self.pb;
        let ip = i & self.pmask;
        let t = &*self.tables;
        let pe = t.phase[(t.class_row[rb as usize] | (rp << self.pb) | ip) as usize];
        let np = pe & 0xFFFF;
        let tick = (pe >> 16) as usize;
        let idx = ((rb as usize * self.buckets as usize + ib as usize) << self.tb) | tick;
        // Inert fast path: neither bucket changes, and the bitmap's
        // working set is a few hot cache lines.
        if t.inert[idx >> 6].load(Ordering::Relaxed) & (1 << (idx & 63)) != 0 {
            return ((rb << self.pb) | np, i);
        }
        // Acquire pairs with the fill's Release store (see `Tables`).
        let mut re = t.role_resp[idx].load(Ordering::Acquire);
        if re == 0 {
            re = self.fill(rb as usize, ib as usize, tick, idx);
        }
        let rb2 = (re & !INIT_CHANGED) as u32 - 1;
        // The initiator's bucket changes only for a handful of pair
        // kinds; keep its table out of the hot cache footprint.
        let ib2 = if re & INIT_CHANGED != 0 {
            t.role_init[idx].load(Ordering::Relaxed) as u32
        } else {
            ib
        };
        ((rb2 << self.pb) | np, (ib2 << self.pb) | ip)
    }

    #[inline]
    fn output(&self, s: u32) -> Output {
        self.tables.output[s as usize]
    }

    /// Epochs pass through the packed-id decode, so epoch-aware drivers
    /// see the same transitions on compiled and dynamic runs.
    fn epoch_of(&self, s: u32) -> Option<u32> {
        self.inner.epoch_of(self.decode_state(s))
    }
}

impl<P: FactoredProtocol> EnumerableProtocol for CompiledProtocol<P> {
    /// Packed id space `B << pb`; ids whose phase part is ≥ `P` are
    /// padding and never occur (permitted by the trait contract).
    fn num_states(&self) -> usize {
        (self.buckets as usize) << self.pb
    }

    fn state_id(&self, state: u32) -> usize {
        state as usize
    }

    fn state_from_id(&self, id: usize) -> u32 {
        id as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent_sim::AgentSim;
    use crate::protocol::Simulator;
    use crate::urn::UrnSim;

    /// Toy factored protocol: a token game on a `P`-phase clock.
    ///
    /// Buckets: 0 = Idle, 1 = Token, 2 = Sink. The responder adopts the
    /// forward phase (`max`); when its update lands on the last phase
    /// ("boundary" tick class) a Token responder hands the token to the
    /// initiator (unless the initiator is a Sink, which swallows it).
    #[derive(Clone, Copy)]
    struct TokenGame {
        phases: usize,
    }

    const IDLE: usize = 0;
    const TOKEN: usize = 1;
    const SINK: usize = 2;

    impl TokenGame {
        fn split(&self, s: (usize, usize)) -> (usize, usize) {
            s
        }
    }

    impl Protocol for TokenGame {
        type State = (usize, usize); // (bucket, phase)

        fn initial_state(&self) -> Self::State {
            (TOKEN, 0)
        }

        fn transition(&self, r: Self::State, i: Self::State) -> (Self::State, Self::State) {
            let ((rb, rp), (ib, ip)) = (self.split(r), self.split(i));
            let np = rp.max(ip);
            let boundary = np == self.phases - 1;
            let (rb2, ib2) = if boundary && rb == TOKEN {
                if ib == SINK {
                    (IDLE, SINK)
                } else {
                    (IDLE, TOKEN)
                }
            } else {
                (rb, ib)
            };
            ((rb2, np), (ib2, ip))
        }

        fn output(&self, s: Self::State) -> Output {
            if s.0 == TOKEN {
                Output::Leader
            } else {
                Output::Follower
            }
        }
    }

    impl EnumerableProtocol for TokenGame {
        fn num_states(&self) -> usize {
            3 * self.phases
        }
        fn state_id(&self, s: Self::State) -> usize {
            s.0 * self.phases + s.1
        }
        fn state_from_id(&self, id: usize) -> Self::State {
            (id / self.phases, id % self.phases)
        }
    }

    impl FactoredProtocol for TokenGame {
        fn phase_count(&self) -> usize {
            self.phases
        }
        fn phase_class_count(&self) -> usize {
            1
        }
        fn phase_class(&self, _bucket: usize) -> usize {
            0
        }
        fn tick_class_count(&self) -> usize {
            2
        }
        fn tick_class(&self, _old: usize, new: usize) -> usize {
            (new == self.phases - 1) as usize
        }
    }

    fn game() -> TokenGame {
        TokenGame { phases: 12 }
    }

    #[test]
    fn compiled_matches_dynamic_exhaustively() {
        let p = game();
        let c = CompiledProtocol::new(p);
        for r in 0..p.num_states() {
            for i in 0..p.num_states() {
                let rs = p.state_from_id(r);
                let is = p.state_from_id(i);
                let (dn_r, dn_i) = p.transition(rs, is);
                let (cn_r, cn_i) = c.transition(c.encode_state(rs), c.encode_state(is));
                assert_eq!(c.decode_state(cn_r), dn_r, "responder at ({rs:?}, {is:?})");
                assert_eq!(c.decode_state(cn_i), dn_i, "initiator at ({rs:?}, {is:?})");
                assert_eq!(c.output(cn_r), p.output(dn_r));
            }
        }
    }

    #[test]
    fn packed_ids_roundtrip() {
        let p = game();
        let c = CompiledProtocol::new(p);
        for id in 0..p.num_states() {
            let s = p.state_from_id(id);
            assert_eq!(c.decode_state(c.encode_state(s)), s);
        }
        // The packed space may be padded, never smaller.
        assert!(c.num_states() >= p.num_states());
        assert_eq!(c.initial_state(), c.encode_state(p.initial_state()));
    }

    #[test]
    fn agent_sim_runs_compiled() {
        let p = game();
        let c = CompiledProtocol::new(p);
        let mut sim = AgentSim::new(c, 64, 7);
        assert_eq!(sim.leaders(), 64);
        sim.steps(20_000);
        // Tokens are only ever passed or swallowed, never duplicated.
        assert!(sim.leaders() <= 64);
        assert_eq!(sim.output_counts().iter().sum::<u64>(), 64);
    }

    #[test]
    fn urn_sim_runs_compiled_and_matches_agent_outputs() {
        let p = game();
        let c = CompiledProtocol::new(p);
        let mut urn = UrnSim::new(c.clone(), 256, 11);
        urn.steps(50_000);
        assert_eq!(urn.output_counts().iter().sum::<u64>(), 256);
        // Decode the urn contents back to inner states: population must be
        // conserved bucket-wise.
        let mut total = 0;
        urn.for_each_state(&mut |s, k| {
            let (b, ph) = c.decode_state(s);
            assert!(b <= SINK && ph < 12);
            total += k;
        });
        assert_eq!(total, 256);
    }

    #[test]
    fn table_entry_accounting() {
        let p = game();
        let c = CompiledProtocol::new(p);
        // 1 class × (16 padded phases)² + 2 × (9 pairs × 2 padded ticks).
        assert_eq!(c.table_entries(), 256 + 36);
        assert_eq!(table_dims(c.inner()).unwrap().buckets, 3);
    }

    /// Raw role-table words: responder entries, initiator entries and
    /// the inert bitmap.
    fn raw_entries(c: &CompiledProtocol<TokenGame>) -> (Vec<u16>, Vec<u16>, Vec<u64>) {
        let t = &*c.tables;
        (
            t.role_resp
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
            t.role_init
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
            t.inert.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        )
    }

    fn filled_entries(c: &CompiledProtocol<TokenGame>) -> usize {
        raw_entries(c).0.iter().filter(|&&e| e != 0).count()
    }

    #[test]
    fn fresh_tables_have_no_filled_role_entry() {
        let c = CompiledProtocol::new(game());
        let (resp, init, inert) = raw_entries(&c);
        // 9 bucket pairs × 2 tick classes.
        assert_eq!(resp.len(), 18);
        assert!(resp.iter().chain(&init).all(|&e| e == 0));
        assert!(inert.iter().all(|&w| w == 0));
    }

    #[test]
    fn fill_order_does_not_change_the_entries() {
        let p = game();
        let forward = CompiledProtocol::new(p);
        let reverse = CompiledProtocol::new(p);
        let ids: Vec<u32> = (0..p.num_states())
            .map(|id| forward.encode_state(p.state_from_id(id)))
            .collect();
        let pairs: Vec<(u32, u32)> = ids
            .iter()
            .flat_map(|&r| ids.iter().map(move |&i| (r, i)))
            .collect();
        let ahead: Vec<_> = pairs
            .iter()
            .map(|&(r, i)| forward.transition(r, i))
            .collect();
        let mut back: Vec<_> = pairs
            .iter()
            .rev()
            .map(|&(r, i)| reverse.transition(r, i))
            .collect();
        back.reverse();
        assert_eq!(ahead, back);
        assert_eq!(raw_entries(&forward), raw_entries(&reverse));
        // Every (pair, tick class) entry is reachable in this game.
        assert_eq!(filled_entries(&forward), 18);
    }

    #[test]
    fn seeded_agent_run_fills_a_pinned_number_of_entries() {
        let p = game();
        let c = CompiledProtocol::new(p);
        // Every bucket at spread phases, so both tick classes occur.
        let start: Vec<_> = (0..64).map(|k| (k % 3, (k * 5) % p.phases)).collect();
        let packed = start.iter().map(|&s| c.encode_state(s)).collect();
        let mut sim = AgentSim::with_states(c.clone(), packed, 7);
        let mut dynamic = AgentSim::with_states(p, start, 7);
        sim.steps(40);
        dynamic.steps(40);
        let decoded: Vec<_> = sim.states().iter().map(|&s| c.decode_state(s)).collect();
        assert_eq!(decoded, dynamic.states());
        // Clones share the tables: the run filled `c`'s entries, 12 of 18.
        assert_eq!(filled_entries(&c), 12);
    }

    /// A protocol of given dimensions whose transitions are never probed.
    #[derive(Clone, Copy)]
    struct Shape {
        states: usize,
        phases: usize,
    }

    impl Protocol for Shape {
        type State = usize;
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, r: usize, i: usize) -> (usize, usize) {
            (r, i)
        }
        fn output(&self, _: usize) -> Output {
            Output::Follower
        }
    }

    impl EnumerableProtocol for Shape {
        fn num_states(&self) -> usize {
            self.states
        }
        fn state_id(&self, s: usize) -> usize {
            s
        }
        fn state_from_id(&self, id: usize) -> usize {
            id
        }
    }

    impl FactoredProtocol for Shape {
        fn phase_count(&self) -> usize {
            self.phases
        }
        fn phase_class_count(&self) -> usize {
            2
        }
        fn phase_class(&self, _: usize) -> usize {
            0
        }
        fn tick_class_count(&self) -> usize {
            4
        }
        fn tick_class(&self, _: usize, _: usize) -> usize {
            0
        }
    }

    fn dims_of(buckets: usize, phases: usize) -> Result<TableDims, String> {
        table_dims(&Shape {
            states: buckets * phases,
            phases,
        })
    }

    #[test]
    fn table_dims_enforce_packing_and_entry_ceiling() {
        // GSU19 at n = 2^30: B = 1 225 buckets, Γ = 128 phases.
        let d = dims_of(1_225, 128).unwrap();
        assert_eq!((d.buckets, d.pb, d.tb), (1_225, 7, 2));
        assert_eq!(
            (d.phase_entries, d.role_entries),
            (2 << 14, 1_225 * 1_225 * 4)
        );
        // Beyond the u16 bucket packing.
        let e = dims_of(40_725, 32).unwrap_err();
        assert!(e.contains("B = 40725"), "{e}");
        // Packable, but the role tables exceed the entry ceiling.
        let e = dims_of(5_000, 32).unwrap_err();
        assert!(
            e.contains("B = 5000") && e.contains("limit 67108864"),
            "{e}"
        );
        // The phase table exceeds the ceiling: 2 << 30 and 2 << 32 entries.
        for phases in [32_768, 40_000] {
            let e = dims_of(100, phases).unwrap_err();
            assert!(
                e.contains(&format!("P = {phases}")) && e.contains("limit"),
                "{e}"
            );
        }
        assert!(dims_of(0, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn inconsistent_phase_count_rejected() {
        let _ = CompiledProtocol::new(Shape {
            states: 7,
            phases: 3,
        });
    }
}
