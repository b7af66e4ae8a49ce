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
//!   phase update (passed zero / early half / late half / neither);
//! * the **output** depends on the bucket alone.
//!
//! [`CompiledProtocol`] exploits this: it probes the dynamic transition
//! once per `(phase class, phase, phase)` triple when it is built, and
//! once per `(bucket, bucket, tick class)` triple the first time an
//! interaction looks that role entry up, and replays the answers from
//! lookup tables at memory speed. States are dense `u32` ids
//! (`bucket << pb | phase`), so the compiled protocol drops into
//! [`crate::AgentSim`], [`crate::UrnSim`] and the batched sampling path
//! unchanged — with no codec work left in the hot loop.
//!
//! The role tables are sized by the buckets a config meets, not by all
//! `B` of them. A bucket gets a *compact id* below K = `COMPACT_IDS`
//! (127) the first time an interaction touches it, and the role tables
//! hold `tick_class_count()` entries per (responder id, initiator id)
//! pair: (K + 1)²·T in all, one spare key included, 64 Ki for GSU19 at
//! any n, where one entry per bucket pair would take B²·T, 2.7 M at
//! n = 2^10. A GSU19 config of 64 stabilisation trials at n = 2^10
//! meets 86–90 of its B = 819 buckets. Once all K ids are handed out, a
//! pair that involves a bucket touched later probes the dynamic
//! transition on every lookup and caches nothing: slower, never
//! different. The role tables are allocated zeroed, 0 meaning "not
//! probed yet", so pages that no lookup touches never become resident,
//! and building a compiled protocol costs only its phase table and its
//! per-bucket tables. A lookup that finds an empty entry probes it and
//! stores the answer. Every thread computes the same answer for an
//! entry, so trials on several threads share one set of tables: the
//! order in which they touch buckets decides which compact id each
//! bucket gets, but never an answer, so it cannot change a trajectory.
//!
//! [`table_dims`] checks a protocol's dimensions against the table
//! packing and the phase-table ceiling before anything is allocated.
//! The factorisation contract itself is *checked, not trusted*: every
//! probe `debug_assert`s the contract at its representative, a debug
//! build checks the output clause at every state when it builds the
//! tables, and the repository's equivalence suite
//! (`tests/compiled_equivalence.rs`) compares compiled and dynamic
//! transitions exhaustively at small parameters and by seeded sampling
//! at paper scale.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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
/// and, for every state id:
///
/// 5. **Output is per bucket**: `output` is a function of the bucket
///    alone, the same at every phase.
///
/// Violating the contract cannot crash a release build of the compiled
/// protocol but makes it simulate a different chain. Debug builds check
/// clauses 2 and 3 at every probe and clause 5 when the tables are
/// built; the equivalence suite exists to catch the rest.
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

/// Largest phase table, in entries, that [`table_dims`] accepts: 2^26.
/// It is built eagerly, 4 bytes an entry; a clock of Γ ≤ 128 phases
/// needs at most 2^15 entries.
const MAX_PHASE_ENTRIES: usize = 1 << 26;

/// Key bits: a role-table index interleaves the two agents' bucket keys
/// ([`spread`]).
const KEY_BITS: u32 = 7;

/// Compact bucket ids a compiled protocol hands out: K = 127. The first
/// K buckets its lookups touch get ids, which are their keys into the
/// role tables; every other bucket shares the one key left over, whose
/// entries are never filled, so a pair that involves such a bucket is
/// probed afresh on every lookup.
const COMPACT_IDS: usize = (1 << KEY_BITS) - 1;

/// The key of a bucket without a compact id.
const NO_KEY: u64 = COMPACT_IDS as u64;

/// `key`'s bits spread to the odd bit positions of a role-table pair
/// index. A pair indexes as `spread(responder) | spread(initiator) >> 1`,
/// the two keys' bits interleaved, so the pairs of the first `2^j` keys
/// handed out take the first `4^j` slots: a config that meets few
/// buckets touches few pages.
const fn spread(key: u64) -> u64 {
    let mut spread = 0;
    let mut bit = 0;
    while bit < KEY_BITS {
        spread |= (key >> bit & 1) << (2 * bit + 1);
        bit += 1;
    }
    spread
}

/// Position of the spread key in a `bucket` word: its top
/// `2 * KEY_BITS` bits.
const KEY_SHIFT: u32 = u64::BITS - 2 * KEY_BITS;

/// The spread key of a bucket without a compact id, in place.
const NO_KEY_BITS: u64 = spread(NO_KEY) << KEY_SHIFT;

/// `bucket` word flag: the bucket was first touched after all K ids were
/// handed out, so it keeps [`NO_KEY`].
const PAST_K: u64 = 1 << (KEY_SHIFT - 1);

/// The packed table layout of a factored protocol, from [`table_dims`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableDims {
    /// Bucket count `B`.
    pub buckets: usize,
    /// Phase bits: ids pack as `bucket << pb | phase`.
    pub pb: u32,
    /// Tick-class bits: role-table entries per key pair = `1 << tb`.
    pub tb: u32,
    /// Phase-table entries, `classes << 2 pb`.
    pub phase_entries: usize,
    /// Entries of each role table, `(K + 1)² << tb` (K =
    /// `COMPACT_IDS`): one row and one column per key, whatever the
    /// bucket count.
    pub role_entries: usize,
}

/// Check the dimensions of a factored protocol — `num_states`,
/// `phase_count`, `phase_class_count` and `tick_class_count` — against
/// the table packing and the phase-table ceiling, and lay its tables
/// out. Reads nothing but those four numbers.
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
    if phase_entries > MAX_PHASE_ENTRIES {
        return Err(format!(
            "the phase table for P = {phases} phases × {classes} phase classes needs \
             {phase_entries} entries (B = {buckets}; limit {MAX_PHASE_ENTRIES})"
        ));
    }
    Ok(TableDims {
        buckets,
        pb,
        tb,
        phase_entries,
        role_entries: 1 << (2 * KEY_BITS + tb),
    })
}

/// Shared compiled tables (cheap to clone across trials).
///
/// All tables use power-of-two strides so the hot-loop indexing is pure
/// shifts and masks: the phase table is padded to `1 << pb` per phase
/// dimension, the role tables to `1 << tb` entries per key pair.
///
/// The phase table and the per-bucket tables are built with the
/// protocol. The role tables and the inert bitmap start zeroed and fill
/// on first lookup ([`CompiledProtocol::miss`]): a role entry is empty
/// while its `role_resp` word is 0. A fill stores `role_init` (only when
/// the initiator's bucket changes) or the inert bit with relaxed
/// ordering and then `role_resp` with `Release`; lookups read
/// `role_resp` with `Acquire`, so a filled entry's `role_init` is
/// visible. Every filler stores the same values, so races are benign.
///
/// Role entries are keyed by the two buckets' keys: a bucket's compact
/// id, or [`NO_KEY`] while it has none. An id is handed out under the
/// `next_id` lock and never changes, so a key below K names one bucket
/// for the tables' lifetime, and keys may be read with relaxed ordering:
/// a thread that reads a stale [`NO_KEY`] misses, takes the lock and
/// finds the id. Entries under [`NO_KEY`] are never filled, so every
/// lookup of a bucket without an id misses, with no test on the hot
/// path. Entries hold buckets, not keys.
///
/// The role table is split to keep the *randomly accessed* bytes small:
/// the responder's new bucket is a dense `u16` table (the per-step load),
/// while the initiator's new bucket — which differs from its old bucket
/// only for a handful of pair kinds (partition rules, leader duels) — is
/// flagged by the responder entry's top bit and kept in a parallel table
/// whose cache lines stay cold on the overwhelming majority of steps.
struct Tables {
    /// `(new_phase | tick_class << 16)` indexed by the responder's
    /// phase-table base (from `bucket`) `| old_phase << pb |
    /// initiator_phase`.
    phase: Vec<u32>,
    /// Responder's new bucket plus one (low 15 bits; 0 = not filled yet)
    /// indexed by `(responder key << KEY_BITS | initiator key) << tb |
    /// tick_class`; the top bit ([`INIT_CHANGED`]) signals that the
    /// initiator's bucket changes too and `role_init` must be consulted.
    role_resp: Box<[AtomicU16]>,
    /// Initiator's new bucket, same indexing as `role_resp`; written and
    /// read only when the entry's [`INIT_CHANGED`] flag is set.
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
    /// One word per bucket: its pre-shifted phase-table base
    /// `phase_class(bucket) << (2 * pb)` in the low 32 bits, its key in
    /// the top [`KEY_BITS`], and the [`PAST_K`] flag. One load gives a
    /// responder both its phase-table row and its key.
    bucket: Box<[AtomicU64]>,
    /// Compact ids handed out so far; held while a bucket gets its id.
    next_id: Mutex<u64>,
    /// Output per bucket (the contract's output clause).
    output: Vec<Output>,
}

/// Top bit of a `role_resp` entry: the initiator's bucket changes.
const INIT_CHANGED: u16 = 1 << 15;

/// A protocol compiled into transition tables. See the module docs.
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
    /// Clones share the tables, filled entries and compact ids included.
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            tables: Arc::clone(&self.tables),
            ..*self
        }
    }
}

impl<P: FactoredProtocol> CompiledProtocol<P> {
    /// Compile `inner`: build its phase and per-bucket tables and reserve
    /// its role tables, which fill as interactions look their entries up.
    ///
    /// # Panics
    /// Panics if [`table_dims`] rejects the factored dimensions
    /// (`num_states` not a multiple of `phase_count`, dimensions beyond
    /// the table packing, or a phase table beyond its ceiling). In a
    /// debug build, also panics if some state's output differs from its
    /// bucket's output at phase 0 (the contract's output clause).
    pub fn new(inner: P) -> Self {
        let dims = table_dims(&inner).unwrap_or_else(|e| panic!("{e}"));
        let phases = inner.phase_count();
        let TableDims {
            buckets, pb, tb, ..
        } = dims;
        let classes = inner.phase_class_count().max(1);
        let ticks = inner.tick_class_count().max(1);

        // Per-bucket phase class, pre-shifted into a phase-table base, with
        // no key yet; plus one representative bucket per class.
        let mut bucket = Vec::with_capacity(buckets);
        let mut rep_bucket: Vec<Option<usize>> = vec![None; classes];
        for b in 0..buckets {
            let c = inner.phase_class(b);
            assert!(c < classes, "phase_class({b}) = {c} out of range");
            bucket.push(AtomicU64::new(NO_KEY_BITS | (c << (2 * pb)) as u64));
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

        // Output per bucket, read at phase 0; the contract makes it the
        // output at every phase.
        let output: Vec<Output> = (0..buckets)
            .map(|b| inner.output(inner.state_from_id(b * phases)))
            .collect();
        if cfg!(debug_assertions) {
            for id in 0..buckets * phases {
                assert!(
                    inner.output(inner.state_from_id(id)) == output[id / phases],
                    "the output of state id {id} differs from its bucket's at phase 0"
                );
            }
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
                bucket: bucket.into(),
                next_id: Mutex::new(0),
                output,
            }),
            initial_id,
        }
    }

    /// The wrapped dynamic protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Table entries reserved: the phase table's plus the two role
    /// tables', filled or not. The role tables hold (K + 1)² entries per
    /// tick class (K = `COMPACT_IDS`) whatever the bucket count; the
    /// per-bucket tables and the inert bitmap are not counted.
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

    /// New buckets of responder bucket `rb` and initiator bucket `ib`
    /// under tick class `tick`: the role entry's answer, from the
    /// dynamic transition at the tick class's representative phases.
    fn probe(&self, rb: usize, ib: usize, tick: usize) -> (usize, usize) {
        let t = &*self.tables;
        let class_base = t.bucket[rb].load(Ordering::Relaxed) as u32 as usize;
        match t.tick_rep[((class_base >> (2 * self.pb)) << self.tb) | tick] {
            // Tick class never realised for this phase class: only padding
            // ids reach the entry; answer the identity.
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
        }
    }

    /// New buckets of responder bucket `rb` and initiator bucket `ib`
    /// under tick class `tick`, on a lookup that found the role entry
    /// empty. A bucket touched for the first time gets a compact id while
    /// fewer than K are handed out; when both buckets have one, the
    /// answer fills their entry, and otherwise nothing is cached.
    /// Concurrent fills of one entry store identical values.
    #[cold]
    #[inline(never)]
    fn miss(&self, rb: u32, ib: u32, tick: u32) -> (u32, u32) {
        let t = &*self.tables;
        let (rb, ib, tick) = (rb as usize, ib as usize, tick as usize);
        let needs_id = |b: usize| {
            let word = t.bucket[b].load(Ordering::Relaxed);
            word & (NO_KEY_BITS | PAST_K) == NO_KEY_BITS
        };
        if needs_id(rb) || needs_id(ib) {
            // A poisoned lock still guards a consistent count: each id is
            // published by one store after the count moves.
            let mut next = t.next_id.lock().unwrap_or_else(PoisonError::into_inner);
            for b in [rb, ib] {
                if needs_id(b) {
                    let word = t.bucket[b].load(Ordering::Relaxed);
                    let word = if *next < NO_KEY {
                        *next += 1;
                        word & !NO_KEY_BITS | spread(*next - 1) << KEY_SHIFT
                    } else {
                        word | PAST_K
                    };
                    t.bucket[b].store(word, Ordering::Relaxed);
                }
            }
        }
        let (rb2, ib2) = self.probe(rb, ib, tick);
        let (rw, iw) = (
            t.bucket[rb].load(Ordering::Relaxed),
            t.bucket[ib].load(Ordering::Relaxed),
        );
        if rw & NO_KEY_BITS != NO_KEY_BITS && iw & NO_KEY_BITS != NO_KEY_BITS {
            let idx = self.role_index(rw, iw, tick);
            let mut re = rb2 as u16 + 1;
            if ib2 != ib {
                t.role_init[idx].store(ib2 as u16, Ordering::Relaxed);
                re |= INIT_CHANGED;
            } else if rb2 == rb {
                t.inert[idx >> 6].fetch_or(1 << (idx & 63), Ordering::Relaxed);
            }
            // Release: a lookup that reads this word with `Acquire` also
            // sees the `role_init` store above.
            t.role_resp[idx].store(re, Ordering::Release);
        }
        (rb2 as u32, ib2 as u32)
    }

    /// Role-table index of the responder's and the initiator's keys, read
    /// from their `bucket` words `rw` and `iw`, and tick class `tick`.
    #[inline(always)]
    fn role_index(&self, rw: u64, iw: u64, tick: usize) -> usize {
        ((((rw >> KEY_SHIFT) | (iw >> (KEY_SHIFT + 1))) as usize) << self.tb) | tick
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
        let rw = t.bucket[rb as usize].load(Ordering::Relaxed);
        let pe = t.phase[(rw as u32 | (rp << self.pb) | ip) as usize];
        let np = pe & 0xFFFF;
        let tick = pe >> 16;
        let iw = t.bucket[ib as usize].load(Ordering::Relaxed);
        let idx = self.role_index(rw, iw, tick as usize);
        // Inert fast path: neither bucket changes, and the bitmap's
        // working set is a few hot cache lines.
        if t.inert[idx >> 6].load(Ordering::Relaxed) & (1 << (idx & 63)) != 0 {
            return ((rb << self.pb) | np, i);
        }
        // Acquire pairs with the fill's Release store (see `Tables`).
        let re = t.role_resp[idx].load(Ordering::Acquire);
        let (rb2, ib2) = if re == 0 {
            self.miss(rb, ib, tick)
        } else if re & INIT_CHANGED == 0 {
            ((re - 1) as u32, ib)
        } else {
            // The initiator's bucket changes only for a handful of pair
            // kinds; keep its table out of the hot cache footprint.
            let ib2 = t.role_init[idx].load(Ordering::Relaxed);
            ((re & !INIT_CHANGED) as u32 - 1, ib2 as u32)
        };
        ((rb2 << self.pb) | np, (ib2 << self.pb) | ip)
    }

    /// The bucket's output (the contract's output clause).
    #[inline]
    fn output(&self, s: u32) -> Output {
        self.tables.output[(s >> self.pb) as usize]
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

    /// Assert that `c` answers every `(responder, initiator)` pair of
    /// `p`'s states as `p` does, through its packed ids, in reverse order
    /// when `reverse`.
    fn assert_every_pair_matches<P>(p: &P, c: &CompiledProtocol<P>, reverse: bool)
    where
        P: FactoredProtocol,
        P::State: PartialEq + std::fmt::Debug,
    {
        let s = p.num_states();
        let mut pairs: Vec<(usize, usize)> =
            (0..s).flat_map(|r| (0..s).map(move |i| (r, i))).collect();
        if reverse {
            pairs.reverse();
        }
        for (r, i) in pairs {
            let (rs, is) = (p.state_from_id(r), p.state_from_id(i));
            let (dn_r, dn_i) = p.transition(rs, is);
            let (cn_r, cn_i) = c.transition(c.encode_state(rs), c.encode_state(is));
            assert_eq!(c.decode_state(cn_r), dn_r, "responder at ({rs:?}, {is:?})");
            assert_eq!(c.decode_state(cn_i), dn_i, "initiator at ({rs:?}, {is:?})");
            assert_eq!(c.output(cn_r), p.output(dn_r), "output at {dn_r:?}");
        }
    }

    #[test]
    fn compiled_matches_dynamic_exhaustively() {
        let p = game();
        assert_every_pair_matches(&p, &CompiledProtocol::new(p), false);
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
        // 1 class × (16 padded phases)², plus two role tables of (K + 1)²
        // key pairs × 2 tick classes, whatever the 3 buckets.
        assert_eq!(c.table_entries(), 256 + 2 * (128 * 128 * 2));
        assert_eq!(table_dims(c.inner()).unwrap().buckets, 3);
        assert_eq!(c.tables.output.len(), 3, "one output per bucket");
    }

    /// Raw role-table words: responder entries, initiator entries and
    /// the inert bitmap.
    fn raw_entries<P: FactoredProtocol>(c: &CompiledProtocol<P>) -> (Vec<u16>, Vec<u16>, Vec<u64>) {
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

    fn filled_entries<P: FactoredProtocol>(c: &CompiledProtocol<P>) -> usize {
        raw_entries(c).0.iter().filter(|&&e| e != 0).count()
    }

    /// Compact ids handed out so far.
    fn ids_handed_out<P: FactoredProtocol>(c: &CompiledProtocol<P>) -> usize {
        *c.tables.next_id.lock().unwrap() as usize
    }

    /// Every bucket's key, and whether it came after all K ids were
    /// handed out.
    fn keys<P: FactoredProtocol>(c: &CompiledProtocol<P>) -> Vec<(u64, bool)> {
        let key = |w: u64| (0..=NO_KEY).find(|&k| spread(k) == w >> KEY_SHIFT).unwrap();
        let words = c.tables.bucket.iter().map(|w| w.load(Ordering::Relaxed));
        words.map(|w| (key(w), w & PAST_K != 0)).collect()
    }

    #[test]
    fn fresh_tables_have_no_filled_role_entry() {
        let c = CompiledProtocol::new(game());
        let (resp, init, inert) = raw_entries(&c);
        // (K + 1)² key pairs × 2 tick classes.
        assert_eq!(resp.len(), 128 * 128 * 2);
        assert!(resp.iter().chain(&init).all(|&e| e == 0));
        assert!(inert.iter().all(|&w| w == 0));
        // No bucket has a compact id yet.
        assert_eq!(ids_handed_out(&c), 0);
        assert_eq!(keys(&c), vec![(NO_KEY, false); 3]);
    }

    #[test]
    fn fill_order_does_not_change_the_entries() {
        let p = game();
        let forward = CompiledProtocol::new(p);
        let reverse = CompiledProtocol::new(p);
        // Filling in opposite orders hands the buckets different compact
        // ids, so the raw words differ; every lookup's answer may not.
        assert_every_pair_matches(&p, &forward, false);
        assert_every_pair_matches(&p, &reverse, true);
        let first = |c: &CompiledProtocol<TokenGame>| keys(c).iter().position(|&(k, _)| k == 0);
        assert_ne!(first(&forward), first(&reverse));
        let ids: Vec<u32> = (0..p.num_states())
            .map(|id| forward.encode_state(p.state_from_id(id)))
            .collect();
        for &r in &ids {
            for &i in &ids {
                assert_eq!(forward.transition(r, i), reverse.transition(r, i));
            }
        }
        // Every (pair, tick class) entry is reachable in this game, and
        // each bucket got one id.
        for c in [&forward, &reverse] {
            assert_eq!(filled_entries(c), 18);
            assert_eq!(ids_handed_out(c), 3);
        }
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
        // Clones share the tables: the run gave all 3 buckets compact ids
        // and filled `c`'s entries, 12 of the 18 (pair, tick class) keys.
        assert_eq!(ids_handed_out(&c), 3);
        assert_eq!(filled_entries(&c), 12);
    }

    /// A factored protocol with more buckets than there are compact ids:
    /// `B` buckets on a 4-phase `max` clock. A responder that advances its
    /// phase moves to bucket `(rb + ib) % B` and, when its bucket is below
    /// the initiator's, moves the initiator to `(7 ib + 1) % B`; one that
    /// does not advance moves up by one unless its bucket is a multiple of
    /// 3. So entries of every kind occur: inert, responder-only and both.
    #[derive(Clone, Copy)]
    struct Ladder {
        buckets: usize,
    }

    const LADDER_PHASES: usize = 4;

    impl Protocol for Ladder {
        type State = (usize, usize); // (bucket, phase)

        fn initial_state(&self) -> Self::State {
            (0, 0)
        }

        fn transition(&self, r: Self::State, i: Self::State) -> (Self::State, Self::State) {
            let ((rb, rp), (ib, ip)) = (r, i);
            let b = self.buckets;
            let np = rp.max(ip);
            let (rb2, ib2) = match (np != rp, rb < ib) {
                (true, true) => ((rb + ib) % b, (7 * ib + 1) % b),
                (true, false) => ((rb + ib) % b, ib),
                (false, _) if rb % 3 == 0 => (rb, ib),
                (false, _) => ((rb + 1) % b, ib),
            };
            ((rb2, np), (ib2, ip))
        }

        fn output(&self, s: Self::State) -> Output {
            if s.0 % 5 == 0 {
                Output::Leader
            } else {
                Output::Follower
            }
        }
    }

    impl EnumerableProtocol for Ladder {
        fn num_states(&self) -> usize {
            self.buckets * LADDER_PHASES
        }
        fn state_id(&self, s: Self::State) -> usize {
            s.0 * LADDER_PHASES + s.1
        }
        fn state_from_id(&self, id: usize) -> Self::State {
            (id / LADDER_PHASES, id % LADDER_PHASES)
        }
    }

    impl FactoredProtocol for Ladder {
        fn phase_count(&self) -> usize {
            LADDER_PHASES
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
        fn tick_class(&self, old: usize, new: usize) -> usize {
            (new != old) as usize
        }
    }

    #[test]
    fn buckets_past_k_are_probed_and_match_the_dynamic_transition() {
        let p = Ladder {
            buckets: COMPACT_IDS + 72,
        };
        // One sweep of every pair on a fresh table: the first K buckets it
        // touches get ids, the other 72 are probed on every lookup.
        let c = CompiledProtocol::new(p);
        assert_every_pair_matches(&p, &c, false);
        assert_eq!(ids_handed_out(&c), COMPACT_IDS);
        let past_k = keys(&c)
            .into_iter()
            .filter(|&(k, past)| k == NO_KEY && past);
        assert_eq!(past_k.count(), 72);
        // Two threads sweep one fresh shared table in opposite orders,
        // released together by a barrier: they race for ids and entries,
        // and both must still see the dynamic transition on every pair.
        let shared = CompiledProtocol::new(p);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for reverse in [false, true] {
                let (c, start) = (shared.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    assert_every_pair_matches(&p, &c, reverse);
                });
            }
        });
        assert_eq!(ids_handed_out(&shared), COMPACT_IDS);
        assert_every_pair_matches(&p, &shared, false);
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
        let role_entries = 128 * 128 * 4;
        assert_eq!((d.phase_entries, d.role_entries), (2 << 14, role_entries));
        // Beyond the u16 bucket packing.
        let e = dims_of(40_725, 32).unwrap_err();
        assert!(e.contains("B = 40725"), "{e}");
        // The role tables are sized by keys, not by B²: 5 000 buckets
        // (B²·T = 10^8 entries) take the same role tables.
        let d = dims_of(5_000, 32).unwrap();
        assert_eq!((d.buckets, d.role_entries), (5_000, role_entries));
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
