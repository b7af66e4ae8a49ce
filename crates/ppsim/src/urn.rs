//! Count-based ("urn") simulator.
//!
//! Agents in a population protocol are anonymous, so a configuration is fully
//! described by the multiset of states — an urn. Sampling an ordered pair of
//! distinct agents is equivalent to:
//!
//! 1. draw a state `r` with probability `count[r] / n` (the responder),
//! 2. remove one ball of state `r`,
//! 3. draw a state `i` with probability `count[i] / (n − 1)` (the initiator),
//! 4. apply `δ`, put the two resulting balls back.
//!
//! This gives a process statistically identical to [`crate::AgentSim`] while
//! storing only `|states|` counters, so the population size is limited only
//! by `u64`. Each interaction costs O(occupied states): two scans of the
//! occupied states in ascending id order, plus one move per participant
//! whose state changes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::batch::{collision_free_run, draw_without_replacement_sparse, hypergeometric};
use crate::protocol::{EnumerableProtocol, Output, Simulator, NUM_OUTPUTS};

/// The block size of a batched urn over `n` agents, and so of the
/// `urn-batched` engine: n/16 interactions from n = 4096 up, and 1 (per
/// step) below, where per-block bookkeeping would dominate. Every
/// sub-batch of a block is exact, so the block size only sets how often a
/// stop predicate is probed ([`UrnSim::with_block`]).
pub fn batched_block(n: u64) -> u64 {
    if n < 4096 {
        1
    } else {
        n / 16
    }
}

/// Scale factor for the engine's internal sampling batches: sub-batches are
/// `INNER_BATCH_SCALE · √n`, rounded down to a power of two. Per-sub-batch
/// fixed cost (snapshot + merge, O(occupied)) shrinks with larger
/// sub-batches while collision-handling cost grows as 2b²/n, so the optimum
/// sits at Θ(√n); the constant was picked from the `engine_batched`
/// criterion sweep on `Gsu19`.
const INNER_BATCH_SCALE: u64 = 4;

/// Size of the internal exact sub-batches the batched urn splits its
/// scheduling blocks into: `INNER_BATCH_SCALE·√n` rounded down to a
/// power of two (so power-of-two blocks subdivide without ragged tails),
/// clamped into `[1, n/2]`. Exactness does not depend on this — every
/// sub-batch is exactly distributed, and exact sampling composes — so it is
/// purely a throughput knob.
fn inner_batch_size(n: u64) -> u64 {
    let target = ((n as f64).sqrt() as u64).saturating_mul(INNER_BATCH_SCALE);
    let pow2 = if target <= 1 {
        1
    } else {
        1u64 << (63 - target.leading_zeros())
    };
    pow2.clamp(1, (n / 2).max(1))
}

/// Collision patterns of a sub-batch: which side of the colliding pair is
/// a repeat (touched) agent. `PAT_NONE` marks a segment of the shuffled
/// path that ends the sub-batch without a collision.
const PAT_TU: u8 = 0;
const PAT_UT: u8 = 1;
const PAT_TT: u8 = 2;
const PAT_NONE: u8 = 3;

/// Draw the pattern of the collision interaction that ends a
/// collision-free run, with `t` touched and `u` untouched agents. The
/// weights over ordered (responder, initiator) role pairs, conditioned on
/// "not both fresh", are
/// (touched, fresh) : (fresh, touched) : (touched, touched) = u : u : t − 1.
#[inline]
fn collision_pattern<R: Rng>(rng: &mut R, t: u64, u: u64) -> u8 {
    debug_assert!(t > 0, "a collision needs at least one touched agent");
    let w = 2.0 * u as f64 + (t - 1) as f64;
    let x = rng.gen::<f64>() * w;
    if x < u as f64 {
        PAT_TU
    } else if x < 2.0 * u as f64 {
        PAT_UT
    } else {
        PAT_TT
    }
}

/// log2 of the number of entries of [`UrnSim`]'s transition memo: 2^12
/// entries of 16 bytes, 64 KiB, which hold the working set of ordered
/// state pairs of a gsu19 trial at the populations the urn runs per step
/// and in short sub-batches.
const MEMO_BITS: u32 = 12;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// An empty memo entry: no state id is `u32::MAX`, so it never matches.
const MEMO_EMPTY: [u32; 4] = [u32::MAX; 4];

/// The memo slot of the (responder, initiator) state-id pair: the top
/// [`MEMO_BITS`] bits of a Fibonacci hash of the packed pair, which spreads
/// the clustered ids of a protocol's role × phase layout over the table.
#[inline(always)]
fn memo_slot(r_id: usize, i_id: usize) -> usize {
    let key = (r_id as u64) << 32 | i_id as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
}

/// Reusable buffers for [`UrnSim::step_batch`], kept across batches so the
/// batched path never allocates in steady state.
#[derive(Clone, Debug, Default)]
struct BatchScratch {
    /// Ids of states with non-zero multiplicity at the batch snapshot.
    occupied: Vec<usize>,
    /// Multiplicities of the *untouched* agents per `occupied` slot
    /// (parallel array), consumed as agents are drawn into the batch.
    pool: Vec<u64>,
    /// Sparse (occupied slot, count) responder draws of the current
    /// collision-free run.
    resp_nz: Vec<(u32, u64)>,
    /// Sparse (occupied slot, remaining count) initiator mass of the current
    /// run, consumed during pairing.
    init_nz: Vec<(u32, u64)>,
    /// Post-update state multiset of the batch's *touched* agents (dense per
    /// state id; collisions resample from this, which is what makes the
    /// batch exact).
    touched_counts: Vec<u64>,
    /// State ids with non-zero `touched_counts`, in insertion order.
    touched_ids: Vec<u32>,
    /// Net multiplicity change per state id accumulated over the batch
    /// (dense, zeroed after each apply).
    delta: Vec<i64>,
    /// State ids with possibly non-zero `delta` (may contain duplicates).
    dirty: Vec<u32>,
    /// Collision-free run length per segment of the current shuffled
    /// sub-batch (scalar pre-pass output).
    seg_runs: Vec<u64>,
    /// Collision pattern ending each segment (`PAT_*`; `PAT_NONE` for the
    /// final segment).
    seg_pats: Vec<u8>,
    /// Shuffled stream of fresh participants as occupied-slot indices, in
    /// consumption order (shuffled sub-batch path).
    flat: Vec<u32>,
    /// Recorded (responder, initiator) state-id pairs — the block's implicit
    /// sequential trace, in execution order. Filled only by a block run
    /// with its trace on, so a `steps_until` run whose predicate never
    /// holds never allocates it.
    trace: Vec<(u32, u32)>,
}

impl BatchScratch {
    /// Add `m` agents of state `id` to the touched multiset.
    #[inline]
    fn touched_insert(&mut self, id: usize, m: u64) {
        let c = self.touched_counts[id];
        if c == 0 {
            self.touched_ids.push(id as u32);
        }
        self.touched_counts[id] = c + m;
    }

    /// Remove one uniformly-chosen agent from the touched multiset (which
    /// holds `total` agents), returning its state id.
    #[inline]
    fn touched_remove_one<R: Rng>(&mut self, rng: &mut R, total: u64) -> usize {
        debug_assert!(total > 0);
        let mut x = rng.gen_range(0..total);
        let mut k = 0usize;
        loop {
            let id = self.touched_ids[k] as usize;
            let c = self.touched_counts[id];
            if x < c {
                self.touched_counts[id] = c - 1;
                if c == 1 {
                    self.touched_ids.swap_remove(k);
                }
                return id;
            }
            x -= c;
            k += 1;
        }
    }

    /// Account for `m` interactions of the (responder `r_id`, initiator
    /// `i_id`) state pair whose successors are (`rn_id`, `in_id`): the
    /// successors join the deltas and the touched multiset and, with
    /// `trace`, the pair is logged `m` times. The participants' removal is
    /// the caller's, since the two samplers remove fresh agents
    /// differently.
    #[inline(always)]
    fn credit_pair(
        &mut self,
        (r_id, i_id): (usize, usize),
        (rn_id, in_id): (usize, usize),
        m: u64,
        trace: bool,
    ) {
        self.delta[rn_id] += m as i64;
        self.delta[in_id] += m as i64;
        self.dirty.push(rn_id as u32);
        self.dirty.push(in_id as u32);
        self.touched_insert(rn_id, m);
        self.touched_insert(in_id, m);
        if trace {
            for _ in 0..m {
                self.trace.push((r_id as u32, i_id as u32));
            }
        }
    }

    /// Remove one agent of state `id` from the configuration.
    #[inline]
    fn take_one(&mut self, id: usize) {
        self.delta[id] -= 1;
        self.dirty.push(id as u32);
    }

    /// Remove one uniformly-chosen agent from the untouched pool (which
    /// holds `untouched` agents), returning its state id.
    #[inline]
    fn pool_draw_one<R: Rng>(&mut self, rng: &mut R, untouched: u64) -> usize {
        debug_assert!(untouched > 0);
        let mut x = rng.gen_range(0..untouched);
        let mut j = 0usize;
        loop {
            let c = self.pool[j];
            if x < c {
                self.pool[j] = c - 1;
                return self.occupied[j];
            }
            x -= c;
            j += 1;
        }
    }
}

/// The urn at the start of a `steps_until` block: its occupied states in
/// occupancy order with their counts, its output counters and its
/// interaction count. A stop inside the block puts it back twice, before
/// the block is re-sampled with its trace on and before that trace is
/// replayed.
#[derive(Clone, Debug, Default)]
struct Checkpoint {
    states: Vec<(usize, u64)>,
    outputs: [u64; NUM_OUTPUTS],
    interactions: u64,
}

/// Urn simulator over an [`EnumerableProtocol`].
pub struct UrnSim<P: EnumerableProtocol> {
    protocol: P,
    /// `counts[id]` = multiplicity of state `id`. With the occupancy index
    /// below it is the urn's only record of its configuration: the
    /// per-step draws scan it, the batched path snapshots and updates it.
    counts: Vec<u64>,
    /// Ids of states with non-zero multiplicity, in insertion order
    /// (deterministic, not sorted). Maintained incrementally so the batched
    /// path's per-batch overhead is O(occupied), not O(|states|).
    occupied_ids: Vec<usize>,
    /// Position of each id in `occupied_ids` (`u32::MAX` when absent).
    occupied_pos: Vec<u32>,
    /// The ids of `occupied_ids` in ascending order: the per-step draws
    /// lay the balls out in this order ([`UrnSim::find_ball`]).
    occupied_sorted: Vec<usize>,
    /// Cached decode table: `state_of[id]` = the state with id `id`.
    state_of: Vec<P::State>,
    /// Cached output per state id.
    output_of: Vec<Output>,
    population: u64,
    /// How many interactions [`Simulator::steps_until`] runs as one block.
    block: u64,
    rng: SmallRng,
    interactions: u64,
    output_counts: [u64; NUM_OUTPUTS],
    /// Direct-mapped transition memo: the entry at
    /// `memo_slot(r_id, i_id)` holds `[r_id, i_id, rn_id, in_id]` for the
    /// last pair that hashed there. A transition is a pure function of the
    /// pair, so entries stay valid for the urn's whole life.
    memo: Box<[[u32; 4]; MEMO_SLOTS]>,
    scratch: BatchScratch,
    checkpoint: Checkpoint,
}

impl<P: EnumerableProtocol> UrnSim<P> {
    /// Cost ratio between one conditional hypergeometric call (bucketized
    /// path, per pairing bucket) and one buffered shuffle draw (shuffled
    /// path, per stream element) — see the dispatch in
    /// [`UrnSim::step_batch`]. Empirical, from the `engine_batched`
    /// criterion sweep; the dispatch stays a deterministic function of
    /// `(b, n, occupancy)` whatever its value.
    const BUCKETIZED_RUN_FACTOR: f64 = 3.0;

    /// Create an urn with `n` agents in the initial state. It steps one
    /// interaction at a time unless [`UrnSim::with_block`] says otherwise.
    ///
    /// # Panics
    /// Panics if `n < 2`, if the protocol has `u32::MAX` states or more
    /// (state ids are stored as `u32`), or if its encode/decode pair is
    /// not inverse on the initial state.
    pub fn new(protocol: P, n: u64, seed: u64) -> Self {
        assert!(n >= 2, "population must contain at least two agents");
        let s = protocol.num_states();
        assert!(s < u32::MAX as usize, "state ids must fit in u32");
        let mut state_of = Vec::with_capacity(s);
        let mut output_of = Vec::with_capacity(s);
        for id in 0..s {
            let st = protocol.state_from_id(id);
            debug_assert_eq!(
                protocol.state_id(st),
                id,
                "state_id/state_from_id must be mutually inverse"
            );
            output_of.push(protocol.output(st));
            state_of.push(st);
        }
        let init = protocol.initial_state();
        let init_id = protocol.state_id(init);
        assert!(init_id < s, "initial state id out of range");
        let mut counts = vec![0u64; s];
        counts[init_id] = n;
        let mut occupied_pos = vec![u32::MAX; s];
        occupied_pos[init_id] = 0;
        let mut output_counts = [0u64; NUM_OUTPUTS];
        output_counts[protocol.output(init) as usize] = n;
        Self {
            protocol,
            counts,
            occupied_ids: vec![init_id],
            occupied_pos,
            occupied_sorted: vec![init_id],
            state_of,
            output_of,
            population: n,
            block: 1,
            rng: SmallRng::seed_from_u64(seed),
            interactions: 0,
            output_counts,
            memo: vec![MEMO_EMPTY; MEMO_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("MEMO_SLOTS entries"),
            scratch: BatchScratch::default(),
            checkpoint: Checkpoint::default(),
        }
    }

    /// Apply a multiplicity change to state `id` in `counts` and the
    /// occupancy index: a state that fills joins the end of `occupied_ids`
    /// and its place in `occupied_sorted` (a binary search), one that
    /// empties leaves both.
    #[inline]
    fn add_count(&mut self, id: usize, delta: i64) {
        let old = self.counts[id];
        let new = (old as i64 + delta) as u64;
        self.counts[id] = new;
        if old == 0 && new > 0 {
            self.occupied_pos[id] = self.occupied_ids.len() as u32;
            self.occupied_ids.push(id);
            let at = self.occupied_sorted.partition_point(|&s| s < id);
            self.occupied_sorted.insert(at, id);
        } else if old > 0 && new == 0 {
            let pos = self.occupied_pos[id] as usize;
            self.occupied_ids.swap_remove(pos);
            self.occupied_pos[id] = u32::MAX;
            if pos < self.occupied_ids.len() {
                self.occupied_pos[self.occupied_ids[pos]] = pos as u32;
            }
            let at = self.occupied_sorted.partition_point(|&s| s < id);
            self.occupied_sorted.remove(at);
        }
    }

    /// Create an urn with an explicit initial configuration given as
    /// (state, multiplicity) pairs. See [`crate::AgentSim::with_states`] for
    /// the rationale.
    ///
    /// # Panics
    /// Panics if the total population is below two.
    pub fn with_counts(protocol: P, counts: &[(P::State, u64)], seed: u64) -> Self {
        let n: u64 = counts.iter().map(|&(_, c)| c).sum();
        let mut sim = Self::new(protocol, n.max(2), seed);
        assert!(n >= 2, "population must contain at least two agents");
        // Rebuild the urn from the explicit configuration.
        let init_id = sim.protocol.state_id(sim.protocol.initial_state());
        sim.add_count(init_id, -(n as i64));
        sim.output_counts = [0; NUM_OUTPUTS];
        for &(s, c) in counts {
            let id = sim.protocol.state_id(s);
            sim.add_count(id, c as i64);
            sim.output_counts[sim.protocol.output(s) as usize] += c;
        }
        sim
    }

    /// The protocol instance driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All (state, multiplicity) pairs with non-zero multiplicity, in
    /// ascending state-id order.
    pub fn nonzero_counts(&self) -> Vec<(P::State, u64)> {
        self.occupied_sorted
            .iter()
            .map(|&id| (self.state_of[id], self.counts[id]))
            .collect()
    }

    /// Set the block size every later [`Simulator::steps_until`] (and so
    /// [`Simulator::steps`]) runs under; [`batched_block`] is the default
    /// rule.
    ///
    /// The urn then samples whole blocks of `block` interactions at once,
    /// each *exactly* equivalent in distribution to the same number of
    /// sequential [`Simulator::step`]s (see [`crate::batch`]): a block
    /// alternates collision-free runs of fresh agents with
    /// individually-sampled collision interactions whose repeat
    /// participants are resampled from the post-update touched multiset, so
    /// the block is bit-for-bit a sequential chain under the shared trace
    /// decoding. The block size is a *scheduling* granularity only —
    /// internally each block is split into `inner_batch_size` sub-batches
    /// (≈√n) so sampling cost stays optimal however coarse the blocks are.
    /// A block of fewer than 4 interactions (block 1, the tail of a run)
    /// or of more than n/2 runs per step, so any `block` is valid.
    ///
    /// Deterministic: a fixed (seed, block) pair always produces the same
    /// trajectory, however a run is split into calls at block-aligned
    /// points. The RNG consumption differs from the sequential path's, so
    /// batched and per-step runs of the same seed are different (equally
    /// valid) samples of the process.
    pub fn with_block(mut self, block: u64) -> Self {
        self.block = block;
        self
    }

    /// Execute `k` interactions in the urn's blocks, like
    /// [`Simulator::steps`], and append their implicit sequential trace —
    /// the ordered (responder, initiator) state-id pairs of every
    /// interaction — to `out`. Replaying the trace pair-by-pair with
    /// [`UrnSim::replay_interaction`] from the starting configuration
    /// reproduces this simulator's configuration bit for bit; the
    /// equivalence suite uses this as the shared decoding that promotes the
    /// batched-vs-sequential gates from statistical to bit-level.
    pub fn steps_batched_traced(&mut self, k: u64, out: &mut Vec<(u32, u32)>) {
        let mut left = k;
        while left > 0 {
            let Some(block) = self.next_block(left) else {
                let (r_id, i_id) = self.draw_pair();
                out.push((r_id as u32, i_id as u32));
                self.apply_pair(r_id, i_id);
                left -= 1;
                continue;
            };
            self.run_block(block, true);
            out.extend_from_slice(&self.scratch.trace);
            left -= block;
        }
    }

    /// The next scheduling block of at most `left` interactions, or `None`
    /// when the next interaction runs per step: the urn's block is below 4
    /// interactions (too small to be worth batching) or above n/2 (too many
    /// distinct agents for one batch), or fewer than 4 are left. The
    /// half-check divides rather than doubling so no block size can wrap
    /// it.
    fn next_block(&self, left: u64) -> Option<u64> {
        let block = self.block.min(left);
        ((4..=self.population / 2).contains(&self.block) && block >= 4).then_some(block)
    }

    /// Run one scheduling block of `block` interactions as
    /// [`inner_batch_size`] exact sub-batches, logging with `trace` its
    /// interaction trace.
    fn run_block(&mut self, block: u64, trace: bool) {
        self.scratch.trace.clear();
        let inner = inner_batch_size(self.population);
        let mut rem = block;
        while rem > 0 {
            let b = inner.min(rem);
            self.step_batch(b, trace);
            rem -= b;
        }
    }

    /// Sample and apply one exact sub-batch of `b` interactions (`2b ≤ n`),
    /// dispatching between the two interchangeable exact samplers.
    ///
    /// Both paths draw the same process — the distribution of a sub-batch is
    /// exactly that of `b` sequential steps — but their costs scale
    /// differently with the number of occupied states `occ` and the expected
    /// collision-free run length:
    ///
    /// * the **bucketized** path ([`UrnSim::step_batch_bucketed`]) pays
    ///   Θ(occ + cells) of hypergeometric work *per segment*, amortised over
    ///   the segment's run — a win when runs dwarf `occ²` (huge n, or
    ///   protocols with a handful of states);
    /// * the **shuffled** path ([`UrnSim::step_batch_shuffled`]) pays O(1)
    ///   per interaction (a memoized pair transition plus stream reads)
    ///   after one composition draw and one Fisher–Yates shuffle per
    ///   sub-batch — a win whenever runs are short relative to `occ²`.
    ///
    /// The dispatch predicate compares the expected run length
    /// `b / (1 + b²/n)` (the sub-batch's interactions divided by its
    /// expected segment count) against `occ²`, and is a deterministic
    /// function of (b, n, occupancy), so same-seed runs always pick the same
    /// path and chunked execution stays bit-reproducible.
    fn step_batch(&mut self, b: u64, trace: bool) {
        let bf = b as f64;
        let avg_run = bf / (1.0 + bf * bf / self.population as f64);
        let occ = self.occupied_ids.len() as f64;
        // The bucketized path pays ~occ² conditional hypergeometric calls
        // per segment (the pairing chain), the shuffled path ~2 buffered
        // index draws per interaction. A hypergeometric call costs roughly
        // an order of magnitude more than a shuffle element (Lanczos/
        // Stirling evaluations vs a masked bit take), so runs must dwarf
        // occ² by that factor before per-segment amortisation wins.
        // BUCKETIZED_RUN_FACTOR was fit on the `engine_batched` sweep:
        // Gsu19 mid-phase (occ ≈ 9–15, runs ≈ 241 at n = 2^20) sits firmly
        // in shuffled territory, while few-state protocols (occ ≤ 5) keep
        // the bucketized path's ~6 ns/interaction.
        if avg_run >= Self::BUCKETIZED_RUN_FACTOR * occ * occ {
            self.step_batch_bucketed(b, trace);
        } else {
            self.step_batch_shuffled(b, trace);
        }
    }

    /// Detach the scratch buffers (so the borrow checker lets the sampling
    /// phase call back into `self`; Vec capacities survive the round trip),
    /// size the dense maps, and snapshot the occupied states into parallel
    /// (id, multiplicity) arrays — O(occupied), thanks to the incremental
    /// occupancy index.
    fn begin_sub_batch(&mut self) -> BatchScratch {
        let mut sc = std::mem::take(&mut self.scratch);
        let s = self.counts.len();
        sc.delta.resize(s, 0);
        sc.touched_counts.resize(s, 0);
        sc.occupied.clear();
        sc.pool.clear();
        for &id in &self.occupied_ids {
            sc.occupied.push(id);
            sc.pool.push(self.counts[id]);
        }
        sc
    }

    /// Merge a sub-batch's accumulated deltas into the counts, the
    /// occupancy index and the output counters, reset the touched
    /// multiset, and hand the scratch buffers back. `dirty` may hold
    /// duplicates; zeroing `delta` on apply makes repeats no-ops.
    fn merge_sub_batch(&mut self, mut sc: BatchScratch) {
        for k in 0..sc.dirty.len() {
            let id = sc.dirty[k] as usize;
            let d = sc.delta[id];
            if d != 0 {
                sc.delta[id] = 0;
                self.add_count(id, d);
                let o = self.output_of[id] as usize;
                self.output_counts[o] = (self.output_counts[o] as i64 + d) as u64;
            }
        }
        sc.dirty.clear();
        for &id in &sc.touched_ids {
            sc.touched_counts[id as usize] = 0;
        }
        sc.touched_ids.clear();
        self.scratch = sc;
        debug_assert_eq!(self.occupied_total(), self.population);
    }

    /// The balls in the occupied states, n whenever `counts` and the
    /// occupancy index agree: an O(occupied) debug check.
    fn occupied_total(&self) -> u64 {
        self.occupied_ids.iter().map(|&id| self.counts[id]).sum()
    }

    /// Bucketized exact sub-batch sampler.
    ///
    /// The batch alternates two kinds of segment until `b` interactions are
    /// placed:
    ///
    /// 1. A **collision-free run**: its length is drawn from the exact
    ///    survival distribution ([`collision_free_run`]), its `2·run` agents
    ///    are a without-replacement sample from the untouched pool (sparse
    ///    conditional hypergeometric chains), and the two role halves are
    ///    paired uniformly. The transition is applied once per
    ///    (responder, initiator) bucket.
    /// 2. A **collision interaction**: at least one participant has already
    ///    interacted this batch. The role pattern (touched/untouched) is
    ///    drawn from the exact conditional weights `u : u : t−1`, the
    ///    touched participants uniformly from the *post-update* touched
    ///    multiset, and the fresh participant (if any) from the pool.
    ///
    /// Net multiplicity changes merge into the counts, occupancy index and
    /// output counters at the end. `trace` says whether the interaction
    /// trace is logged too, so a caller can replay the batch pair-by-pair
    /// (exact predicate stops).
    fn step_batch_bucketed(&mut self, b: u64, trace: bool) {
        debug_assert!(b >= 1 && 2 * b <= self.population);
        let mut sc = self.begin_sub_batch();
        let n = self.population;
        let mut untouched = n;
        let mut touched_total = 0u64;
        let mut done = 0u64;
        while done < b {
            let run = collision_free_run(&mut self.rng, n, untouched, b - done);
            if run > 0 {
                // Roles: `run` responders, then `run` initiators from the
                // rest — one exchangeable without-replacement block.
                let mut pool_total = untouched;
                draw_without_replacement_sparse(
                    &mut self.rng,
                    run,
                    &mut sc.pool,
                    &mut pool_total,
                    &mut sc.resp_nz,
                );
                draw_without_replacement_sparse(
                    &mut self.rng,
                    run,
                    &mut sc.pool,
                    &mut pool_total,
                    &mut sc.init_nz,
                );
                untouched -= 2 * run;
                touched_total += 2 * run;
                self.pair_and_apply(&mut sc, run, trace);
                done += run;
                if done == b {
                    break;
                }
            }
            // The run ended before the batch budget: the next interaction is
            // a collision.
            let (t, u) = (touched_total, untouched);
            let pat = collision_pattern(&mut self.rng, t, u);
            let (r_id, i_id) = match pat {
                PAT_TU => (
                    sc.touched_remove_one(&mut self.rng, t),
                    sc.pool_draw_one(&mut self.rng, u),
                ),
                PAT_UT => (
                    sc.pool_draw_one(&mut self.rng, u),
                    sc.touched_remove_one(&mut self.rng, t),
                ),
                _ => (
                    sc.touched_remove_one(&mut self.rng, t),
                    sc.touched_remove_one(&mut self.rng, t - 1),
                ),
            };
            if pat != PAT_TT {
                untouched -= 1;
                touched_total += 1;
            }
            sc.take_one(r_id);
            sc.take_one(i_id);
            sc.credit_pair((r_id, i_id), self.successors(r_id, i_id), 1, trace);
            done += 1;
        }
        self.interactions += b;
        self.merge_sub_batch(sc);
    }

    /// Shuffled-stream exact sub-batch sampler.
    ///
    /// Same process as [`UrnSim::step_batch_bucketed`], factored so the
    /// per-interaction cost is O(1) instead of per-segment hypergeometric
    /// chains:
    ///
    /// 1. **Scalar pre-pass** — the segment structure (collision-free run
    ///    lengths, collision patterns) is sampled first, tracking only the
    ///    untouched/touched counters. Both distributions depend on the
    ///    counters alone, never on participant identities, so this is the
    ///    exact marginal of the sequential chain's segment structure.
    /// 2. **One composition draw** — the pre-pass fixes the total number of
    ///    fresh participants `F`; their state composition is one
    ///    without-replacement draw of `F` agents from the snapshot pool.
    ///    Fresh draws never depend on the touched multiset, so the fresh
    ///    subsequence of the sequential chain *is* a without-replacement
    ///    sample of size `F` — and a uniform shuffle (Fisher–Yates) of that
    ///    sample recovers the sequential draw order exactly
    ///    (exchangeability).
    /// 3. **Apply** — segments are applied in order, consuming the shuffled
    ///    stream pairwise for run interactions and one entry per fresh
    ///    collision participant; touched collision participants are drawn
    ///    from the live post-update touched multiset exactly as in the
    ///    bucketized path. Every transition goes through the urn's
    ///    persistent pair memo ([`UrnSim::successors`]), so the protocol's
    ///    transition function runs only on the pairs the memo has not kept.
    ///
    /// Delta accounting differs from the bucketized path in one spot: fresh
    /// participants are subtracted from the configuration in bulk at the
    /// composition draw, so collision handling only subtracts the touched
    /// sides. Trace and merge machinery are shared.
    fn step_batch_shuffled(&mut self, b: u64, trace: bool) {
        debug_assert!(b >= 1 && 2 * b <= self.population);
        let mut sc = self.begin_sub_batch();
        let n = self.population;

        // Phase 1: scalar pre-pass over the segment structure.
        sc.seg_runs.clear();
        sc.seg_pats.clear();
        let mut untouched = n;
        let mut touched_total = 0u64;
        let mut fresh = 0u64;
        let mut done = 0u64;
        loop {
            let run = collision_free_run(&mut self.rng, n, untouched, b - done);
            sc.seg_runs.push(run);
            untouched -= 2 * run;
            touched_total += 2 * run;
            fresh += 2 * run;
            done += run;
            if done == b {
                sc.seg_pats.push(PAT_NONE);
                break;
            }
            let pat = collision_pattern(&mut self.rng, touched_total, untouched);
            if pat != PAT_TT {
                untouched -= 1;
                touched_total += 1;
                fresh += 1;
            }
            sc.seg_pats.push(pat);
            done += 1;
        }

        // Phase 2: one composition draw for all fresh participants, with
        // their bulk removal from the configuration.
        let mut pool_total = n;
        draw_without_replacement_sparse(
            &mut self.rng,
            fresh,
            &mut sc.pool,
            &mut pool_total,
            &mut sc.resp_nz,
        );
        for &(j, c) in &sc.resp_nz {
            let id = sc.occupied[j as usize];
            sc.delta[id] -= c as i64;
            sc.dirty.push(id as u32);
        }

        // Phase 3: expand the composition into a flat slot stream and
        // shuffle it uniformly.
        sc.flat.clear();
        sc.flat.reserve(fresh as usize);
        for &(j, c) in &sc.resp_nz {
            for _ in 0..c {
                sc.flat.push(j);
            }
        }
        sc.resp_nz.clear();
        debug_assert_eq!(sc.flat.len() as u64, fresh);
        // Bit-buffered Fisher–Yates: packs the per-index bounded draws into
        // shared 64-bit words instead of burning one full xoshiro output per
        // swap (~6–10 bits actually needed per draw at batch sizes here).
        self.rng.shuffle(&mut sc.flat);

        // Phase 4: apply the segments against the shuffled stream.
        let mut idx = 0usize;
        let mut t_live = 0u64;
        for si in 0..sc.seg_runs.len() {
            for _ in 0..sc.seg_runs[si] {
                let jr = sc.flat[idx];
                let ji = sc.flat[idx + 1];
                idx += 2;
                let pair = (sc.occupied[jr as usize], sc.occupied[ji as usize]);
                sc.credit_pair(pair, self.successors(pair.0, pair.1), 1, trace);
            }
            t_live += 2 * sc.seg_runs[si];
            let pat = sc.seg_pats[si];
            if pat == PAT_NONE {
                break;
            }
            // Fresh participants left the configuration at the
            // composition draw; only the touched sides are removed here.
            let (r_id, i_id) = match pat {
                PAT_TU => {
                    let r = sc.touched_remove_one(&mut self.rng, t_live);
                    t_live -= 1;
                    let i = sc.occupied[sc.flat[idx] as usize];
                    idx += 1;
                    sc.take_one(r);
                    (r, i)
                }
                PAT_UT => {
                    let r = sc.occupied[sc.flat[idx] as usize];
                    idx += 1;
                    let i = sc.touched_remove_one(&mut self.rng, t_live);
                    t_live -= 1;
                    sc.take_one(i);
                    (r, i)
                }
                _ => {
                    let r = sc.touched_remove_one(&mut self.rng, t_live);
                    let i = sc.touched_remove_one(&mut self.rng, t_live - 1);
                    t_live -= 2;
                    sc.take_one(r);
                    sc.take_one(i);
                    (r, i)
                }
            };
            sc.credit_pair((r_id, i_id), self.successors(r_id, i_id), 1, trace);
            t_live += 2;
        }
        debug_assert_eq!(idx as u64, fresh, "shuffled stream fully consumed");
        self.interactions += b;
        self.merge_sub_batch(sc);
    }

    /// Pair the current run's responder and initiator halves uniformly and
    /// apply the transition per (responder, initiator) bucket, accumulating
    /// deltas and the post-update touched multiset in `sc` (and, with
    /// `trace`, the run's interactions in `sc.trace`).
    fn pair_and_apply(&mut self, sc: &mut BatchScratch, run: u64, trace: bool) {
        // Removing the drawn agents from the configuration.
        for &(j, c) in &sc.resp_nz {
            let id = sc.occupied[j as usize];
            sc.delta[id] -= c as i64;
            sc.dirty.push(id as u32);
        }
        for &(j, c) in &sc.init_nz {
            let id = sc.occupied[j as usize];
            sc.delta[id] -= c as i64;
            sc.dirty.push(id as u32);
        }
        // Uniform pairing row by row: for each responder state, distribute
        // its draws over the remaining initiator multiset with a conditional
        // multivariate-hypergeometric chain (same scheme and clamps as
        // `draw_without_replacement`, on the compact list, lazily compacted
        // as slots exhaust).
        let mut initiators_left = run;
        for ri in 0..sc.resp_nz.len() {
            let (j, r_draws) = sc.resp_nz[ri];
            let r_id = sc.occupied[j as usize];
            let mut draws_left = r_draws;
            let mut total_left = initiators_left;
            let mut idx = 0usize;
            while draws_left > 0 {
                debug_assert!(idx < sc.init_nz.len());
                let (jj, c) = sc.init_nz[idx];
                if c == 0 {
                    // Exhausted by an earlier row: drop it (swap_remove
                    // pulls in a not-yet-visited entry, so don't advance).
                    sc.init_nz.swap_remove(idx);
                    continue;
                }
                let m = if total_left == c {
                    draws_left
                } else {
                    // Overflow-safe form of max(0, draws + c − total); see
                    // `draw_without_replacement`.
                    let lo = draws_left.saturating_sub(total_left - c);
                    let hi = c.min(draws_left);
                    hypergeometric(&mut self.rng, total_left, c, draws_left).clamp(lo, hi)
                };
                total_left -= c;
                idx += 1;
                if m == 0 {
                    continue;
                }
                sc.init_nz[idx - 1].1 = c - m;
                draws_left -= m;

                let i_id = sc.occupied[jj as usize];
                sc.credit_pair((r_id, i_id), self.successors(r_id, i_id), m, trace);
            }
            initiators_left -= r_draws;
        }
        debug_assert_eq!(initiators_left, 0);
        sc.resp_nz.clear();
        sc.init_nz.clear();
    }

    /// Draw one interaction's (responder, initiator) state pair, leaving
    /// both balls in the urn for [`UrnSim::apply_pair`].
    ///
    /// The initiator is one of the other n − 1 balls. Instead of taking
    /// the responder's ball out for the second scan, the initiator's target
    /// skips it: a target at or above the mass before the responder's state
    /// moves up by one, which maps `0..n − 1` onto the same states as a
    /// scan of the urn without that ball.
    #[inline]
    fn draw_pair(&mut self) -> (usize, usize) {
        let r_target = self.rng.gen_range(0..self.population);
        let (r_id, below_r) = self.find_ball(r_target);
        let target = self.rng.gen_range(0..self.population - 1);
        let (i_id, _) = self.find_ball(target + u64::from(target >= below_r));
        (r_id, i_id)
    }

    /// The state of ball `target` (`target < n`) when the balls are laid
    /// out in ascending state-id order, and the number of balls before it:
    /// a scan of `occupied_sorted` that reads `counts` as it goes.
    #[inline]
    fn find_ball(&self, target: u64) -> (usize, u64) {
        let mut below = 0;
        for &id in &self.occupied_sorted {
            let c = self.counts[id];
            if target < below + c {
                return (id, below);
            }
            below += c;
        }
        unreachable!("ball {target} of {}", self.population)
    }

    /// The state ids the transition sends the (responder `r_id`, initiator
    /// `i_id`) state pair to, through the transition memo. Every urn path,
    /// per step and batched, asks here, so a memo miss is the only place
    /// the protocol's transition function runs.
    // Always inlined, like `BatchScratch::credit_pair`: both sit in every
    // per-interaction loop of the urn, and the hit path is a hash, a load
    // and two compares.
    #[inline(always)]
    fn successors(&mut self, r_id: usize, i_id: usize) -> (usize, usize) {
        let slot = memo_slot(r_id, i_id);
        let [r, i, rn, inn] = self.memo[slot];
        if r == r_id as u32 && i == i_id as u32 {
            return (rn as usize, inn as usize);
        }
        self.successors_miss(slot, r_id, i_id)
    }

    /// Evaluate the transition of a pair the memo does not hold and store
    /// it in `slot`, evicting the pair there.
    #[cold]
    #[inline(never)]
    fn successors_miss(&mut self, slot: usize, r_id: usize, i_id: usize) -> (usize, usize) {
        let (r_new, i_new) = self
            .protocol
            .transition(self.state_of[r_id], self.state_of[i_id]);
        let (rn_id, in_id) = (self.protocol.state_id(r_new), self.protocol.state_id(i_new));
        self.memo[slot] = [r_id as u32, i_id as u32, rn_id as u32, in_id as u32];
        (rn_id, in_id)
    }

    /// Apply the transition to a (responder, initiator) pair of balls in
    /// the urn and count the interaction.
    ///
    /// Only participants whose state changes move: one ball leaves the old
    /// state and joins the new one in the counts, the occupancy index and
    /// the output counters. When a removal would empty a state
    /// (a count of 1, or 2 when both participants share it), the pair
    /// instead takes both balls out and puts the successors back, in that
    /// order: the transient zero reorders `occupied_ids`, and the batched
    /// samplers' draws depend on that order.
    #[inline]
    fn apply_pair(&mut self, r_id: usize, i_id: usize) {
        let (rn_id, in_id) = self.successors(r_id, i_id);
        let shared = u64::from(r_id == i_id);
        if self.counts[r_id] > 1 + shared && self.counts[i_id] > 1 + shared {
            if rn_id != r_id {
                self.move_ball(r_id, rn_id);
            }
            if in_id != i_id {
                self.move_ball(i_id, in_id);
            }
        } else {
            for (id, delta) in [(r_id, -1), (i_id, -1), (rn_id, 1), (in_id, 1)] {
                self.add_count(id, delta);
            }
            if rn_id != r_id {
                self.move_output(r_id, rn_id);
            }
            if in_id != i_id {
                self.move_output(i_id, in_id);
            }
        }
        self.interactions += 1;
    }

    /// Move one ball from state `from` to state `to`.
    #[inline]
    fn move_ball(&mut self, from: usize, to: usize) {
        self.add_count(from, -1);
        self.add_count(to, 1);
        self.move_output(from, to);
    }

    /// Move one agent's output from that of state `from` to that of `to`.
    #[inline]
    fn move_output(&mut self, from: usize, to: usize) {
        self.output_counts[self.output_of[from] as usize] -= 1;
        self.output_counts[self.output_of[to] as usize] += 1;
    }

    /// Apply one interaction with *given* participant states: one ball of
    /// `r_id` and one of `i_id` take the transition's successor states.
    ///
    /// This is the decoding side of the shared interaction trace: replaying
    /// a recorded batch trace pair-by-pair from the batch's starting
    /// configuration reproduces the batched engine's configurations — and
    /// every prefix is a configuration the sequential chain visits, which is
    /// what makes exact predicate stops possible.
    ///
    /// # Panics
    /// In debug builds, panics if the urn lacks the balls for the pair.
    pub fn replay_interaction(&mut self, r_id: u32, i_id: u32) {
        let (r_id, i_id) = (r_id as usize, i_id as usize);
        debug_assert!(self.counts[r_id] >= 1, "replay: responder state empty");
        debug_assert!(
            self.counts[i_id] > u64::from(r_id == i_id),
            "replay: initiator state empty"
        );
        self.apply_pair(r_id, i_id);
    }

    /// Save the configuration a stop inside the next block returns to:
    /// the occupied states in occupancy order with their counts, the output
    /// counters and the interaction count. O(occupied).
    fn save_checkpoint(&mut self) {
        let cp = &mut self.checkpoint;
        cp.states.clear();
        cp.states
            .extend(self.occupied_ids.iter().map(|&id| (id, self.counts[id])));
        cp.outputs = self.output_counts;
        cp.interactions = self.interactions;
    }

    /// Put back the configuration [`UrnSim::save_checkpoint`] saved,
    /// occupancy order included, since the samplers' draws depend on it.
    fn restore_checkpoint(&mut self) {
        for &id in &self.occupied_ids {
            self.counts[id] = 0;
            self.occupied_pos[id] = u32::MAX;
        }
        self.occupied_ids.clear();
        for &(id, c) in &self.checkpoint.states {
            self.counts[id] = c;
            self.occupied_pos[id] = self.occupied_ids.len() as u32;
            self.occupied_ids.push(id);
        }
        self.occupied_sorted.clone_from(&self.occupied_ids);
        self.occupied_sorted.sort_unstable();
        self.output_counts = self.checkpoint.outputs;
        self.interactions = self.checkpoint.interactions;
        debug_assert_eq!(self.occupied_total(), self.population);
    }
}

impl<P: EnumerableProtocol> Simulator for UrnSim<P> {
    type State = P::State;

    fn population(&self) -> u64 {
        self.population
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    #[inline]
    fn step(&mut self) {
        let (r_id, i_id) = self.draw_pair();
        self.apply_pair(r_id, i_id);
    }

    /// The urn's stepping path: per step, or in blocks of its block size
    /// (see [`UrnSim::with_block`]), with *exact* first-hit stops.
    ///
    /// Each block starts by saving a checkpoint of the configuration
    /// (O(occupied)); the predicate is probed at block granularity (cheap).
    /// When it holds at a block's end, the checkpoint is restored and the
    /// block re-sampled from the same RNG state and occupancy order with
    /// its interaction trace on — the same draws, so the same trace and end
    /// state — then the checkpoint is restored again and the trace replayed
    /// pair-by-pair to find the exact first interaction after which the
    /// predicate holds. Only that block's trace is ever recorded, and the
    /// predicate sees exactly one call per block end and per replayed
    /// pair. For the monotone / eventually-stable predicates this repo
    /// uses (stable election, census thresholds) the reported count is
    /// therefore exactly the sequential chain's first-hit time; for a
    /// non-monotone predicate it is the first hit *within the first block
    /// whose endpoint satisfies it* (earlier transient flips strictly
    /// inside an unsatisfied block are not probed).
    fn steps_until<F>(&mut self, k: u64, mut pred: F) -> bool
    where
        F: FnMut(&Self) -> bool,
    {
        if pred(self) {
            return true;
        }
        let mut left = k;
        while left > 0 {
            let Some(block) = self.next_block(left) else {
                self.step();
                left -= 1;
                if pred(self) {
                    return true;
                }
                continue;
            };
            // What a re-sample of this block needs: the RNG state and the
            // configuration, in the occupancy order its first sub-batch
            // snapshots.
            let rng = self.rng.clone();
            self.save_checkpoint();
            self.run_block(block, false);
            left -= block;
            if pred(self) {
                // The predicate holds somewhere inside this block. Go back
                // to its start and re-sample it with its trace on: the same
                // draws give the same trace, end configuration and RNG
                // state.
                self.restore_checkpoint();
                self.rng = rng;
                self.run_block(block, true);
                // Back to the start once more, and replay the trace one
                // interaction at a time until the predicate first holds. A
                // full replay reproduces the block-end configuration bit
                // for bit, so the loop is guaranteed to terminate with the
                // predicate satisfied.
                self.restore_checkpoint();
                let trace = std::mem::take(&mut self.scratch.trace);
                let mut hit = false;
                for &(r, i) in &trace {
                    self.replay_interaction(r, i);
                    if pred(self) {
                        hit = true;
                        break;
                    }
                }
                // A miss is impossible: the full replay equals the block-end
                // configuration, where the predicate held.
                debug_assert!(hit, "predicate held at block end but not on replay");
                let mut trace = trace;
                trace.clear();
                self.scratch.trace = trace;
                return true;
            }
        }
        false
    }

    fn output_counts(&self) -> [u64; NUM_OUTPUTS] {
        self.output_counts
    }

    /// One call per occupied state, in occupancy order: O(occupied states),
    /// however large the state space.
    fn for_each_state(&self, f: &mut dyn FnMut(Self::State, u64)) {
        for &id in &self.occupied_ids {
            f(self.state_of[id], self.counts[id]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use crate::runner::run_until_stable;
    use rand::RngCore;

    /// The slow leader-election protocol with a dense 2-state encoding.
    struct Slow;
    impl Protocol for Slow {
        type State = bool;
        fn initial_state(&self) -> bool {
            true
        }
        fn transition(&self, r: bool, i: bool) -> (bool, bool) {
            if r && i {
                (true, false)
            } else {
                (r, i)
            }
        }
        fn output(&self, s: bool) -> Output {
            if s {
                Output::Leader
            } else {
                Output::Follower
            }
        }
    }
    impl EnumerableProtocol for Slow {
        fn num_states(&self) -> usize {
            2
        }
        fn state_id(&self, s: bool) -> usize {
            s as usize
        }
        fn state_from_id(&self, id: usize) -> bool {
            id == 1
        }
    }

    /// A 16-state cycle: a responder that meets its own state moves one
    /// step on, so states fill and empty as the population drifts round.
    struct Cycle;
    impl Protocol for Cycle {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transition(&self, r: u8, i: u8) -> (u8, u8) {
            if r == i {
                ((r + 1) % 16, i)
            } else {
                (r, i)
            }
        }
        fn output(&self, s: u8) -> Output {
            if s == 0 {
                Output::Leader
            } else {
                Output::Follower
            }
        }
    }
    impl EnumerableProtocol for Cycle {
        fn num_states(&self) -> usize {
            16
        }
        fn state_id(&self, s: u8) -> usize {
            s as usize
        }
        fn state_from_id(&self, id: usize) -> u8 {
            id as u8
        }
    }

    /// A `K`-state protocol whose pairs do everything a transition can:
    /// leave both agents, move the responder, the initiator or both, or
    /// swap their states. Its outputs cycle through all three, so output
    /// counters move too.
    struct Scatter<const K: u16>;
    impl<const K: u16> Protocol for Scatter<K> {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn transition(&self, r: u16, i: u16) -> (u16, u16) {
            match (3 * r + i + 1) % 5 {
                0 => (r, i),
                1 => ((r + i + 1) % K, i),
                2 => (r, (i + r + 5) % K),
                3 => ((r + 7) % K, (i + 11) % K),
                _ => (i, r),
            }
        }
        fn output(&self, s: u16) -> Output {
            match s % 3 {
                0 => Output::Leader,
                1 => Output::Follower,
                _ => Output::Undecided,
            }
        }
    }
    impl<const K: u16> EnumerableProtocol for Scatter<K> {
        fn num_states(&self) -> usize {
            K as usize
        }
        fn state_id(&self, s: u16) -> usize {
            s as usize
        }
        fn state_from_id(&self, id: usize) -> u16 {
            id as u16
        }
    }

    /// The state of ball `target` when the balls of `counts` are laid out
    /// in id order, and the number of balls before it: a plain cumulative
    /// scan over every state.
    fn dense_find(counts: &[u64], target: u64) -> (usize, u64) {
        let mut below = 0;
        for (id, &c) in counts.iter().enumerate() {
            if target < below + c {
                return (id, below);
            }
            below += c;
        }
        panic!("ball {target} of {below}")
    }

    /// The urn as a per-step urn is specified: take the responder's ball
    /// out, draw the initiator from the reduced urn, take its ball out,
    /// and put the successors back, with every count and occupancy change
    /// in that order.
    struct ReferenceUrn {
        counts: Vec<u64>,
        occupied: Vec<usize>,
        pos: Vec<u32>,
        outputs: [u64; NUM_OUTPUTS],
        rng: SmallRng,
    }

    impl ReferenceUrn {
        fn new<P: EnumerableProtocol>(p: &P, n: u64, seed: u64) -> Self {
            let s = p.num_states();
            let mut urn = Self {
                counts: vec![0; s],
                occupied: Vec::new(),
                pos: vec![u32::MAX; s],
                outputs: [0; NUM_OUTPUTS],
                rng: SmallRng::seed_from_u64(seed),
            };
            let init = p.initial_state();
            urn.add(p.state_id(init), n as i64);
            urn.outputs[p.output(init) as usize] = n;
            urn
        }

        fn add(&mut self, id: usize, delta: i64) {
            let old = self.counts[id];
            let new = (old as i64 + delta) as u64;
            self.counts[id] = new;
            if old == 0 {
                self.pos[id] = self.occupied.len() as u32;
                self.occupied.push(id);
            } else if new == 0 {
                let at = self.pos[id] as usize;
                self.occupied.swap_remove(at);
                if at < self.occupied.len() {
                    self.pos[self.occupied[at]] = at as u32;
                }
            }
        }

        /// One sequential step; returns the drawn (responder, initiator).
        fn step<P: EnumerableProtocol>(&mut self, p: &P) -> (usize, usize) {
            let n: u64 = self.counts.iter().sum();
            let r = dense_find(&self.counts, self.rng.gen_range(0..n)).0;
            self.add(r, -1);
            let i = dense_find(&self.counts, self.rng.gen_range(0..n - 1)).0;
            self.add(i, -1);
            self.put_back(p, r, i);
            (r, i)
        }

        fn replay<P: EnumerableProtocol>(&mut self, p: &P, r: usize, i: usize) {
            self.add(r, -1);
            self.add(i, -1);
            self.put_back(p, r, i);
        }

        fn put_back<P: EnumerableProtocol>(&mut self, p: &P, r: usize, i: usize) {
            let (rs, is) = (p.state_from_id(r), p.state_from_id(i));
            let (rn, inn) = p.transition(rs, is);
            self.add(p.state_id(rn), 1);
            self.add(p.state_id(inn), 1);
            for (old, new) in [(rs, rn), (is, inn)] {
                self.outputs[p.output(old) as usize] -= 1;
                self.outputs[p.output(new) as usize] += 1;
            }
        }
    }

    /// The urn and the reference agree in occupancy order, counts, output
    /// counters and the RNG's next output.
    fn assert_same_urn<const K: u16>(sim: &UrnSim<Scatter<K>>, reference: &ReferenceUrn) {
        let mut states = Vec::new();
        sim.for_each_state(&mut |s, k| states.push((s as usize, k)));
        let expected: Vec<(usize, u64)> = reference
            .occupied
            .iter()
            .map(|&id| (id, reference.counts[id]))
            .collect();
        assert_eq!(states, expected);
        assert_eq!(sim.output_counts(), reference.outputs);
        assert_eq!(sim.rng.clone().next_u64(), reference.rng.clone().next_u64());
    }

    #[test]
    fn per_step_urn_matches_the_remove_and_reinsert_reference_bit_for_bit() {
        // At n = 10 over 24 states most occupied states hold one or two
        // balls, so pairs that empty a state on removal, and pairs whose
        // participants share a state, are common on both paths.
        let p = Scatter::<24>;
        let n = 10;
        let (mut emptying, mut shared) = (0u64, 0u64);
        for seed in 0..200 {
            let mut sim = UrnSim::new(Scatter::<24>, n, seed);
            let mut reference = ReferenceUrn::new(&p, n, seed);
            let mut pick = SmallRng::seed_from_u64(seed ^ 0xA5A5);
            for _ in 0..300 {
                let before = reference.counts.clone();
                let (r, i) = if pick.gen_range(0..2u32) == 0 {
                    sim.step();
                    reference.step(&p)
                } else {
                    // Replay a pair of occupied states, chosen per state
                    // rather than per ball, so one-ball states come up
                    // often.
                    let occ = &reference.occupied;
                    let r = occ[pick.gen_range(0..occ.len())];
                    let i = occ[pick.gen_range(0..occ.len())];
                    if r == i && before[r] < 2 {
                        continue;
                    }
                    sim.replay_interaction(r as u32, i as u32);
                    reference.replay(&p, r, i);
                    (r, i)
                };
                let floor = 1 + u64::from(r == i);
                emptying += u64::from(before[r] <= floor || before[i] <= floor);
                shared += u64::from(r == i);
                assert_same_urn(&sim, &reference);
            }
        }
        assert!(emptying > 1000 && shared > 1000, "{emptying} / {shared}");
    }

    /// The urn's occupancy index agrees with `counts`: `occupied_sorted`
    /// is the ascending ids of the occupied states, `occupied_ids` and
    /// `occupied_pos` are a consistent permutation of it, and the counts
    /// sum to n.
    fn assert_index_consistent<P: EnumerableProtocol>(sim: &UrnSim<P>) {
        let occupied: Vec<usize> = (0..sim.counts.len())
            .filter(|&id| sim.counts[id] > 0)
            .collect();
        assert_eq!(sim.occupied_sorted, occupied);
        let mut ids = sim.occupied_ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, occupied);
        for (id, &pos) in sim.occupied_pos.iter().enumerate() {
            match sim.occupied_ids.iter().position(|&o| o == id) {
                Some(at) => assert_eq!(pos as usize, at, "state {id}"),
                None => assert_eq!(pos, u32::MAX, "state {id}"),
            }
        }
        assert_eq!(sim.counts.iter().sum::<u64>(), sim.population);
    }

    /// Everything a stop restores: the occupied states in occupancy order
    /// with their counts, the output counters and the interaction count.
    fn urn_state<P: EnumerableProtocol>(
        sim: &UrnSim<P>,
    ) -> (Vec<(usize, u64)>, [u64; NUM_OUTPUTS], u64) {
        let states = sim.occupied_ids.iter().map(|&id| (id, sim.counts[id]));
        (states.collect(), sim.output_counts, sim.interactions)
    }

    #[test]
    fn occupancy_index_stays_consistent_on_every_urn_path() {
        let start = [(0u16, 5u64), (3, 2), (7, 0), (3, 1), (23, 6), (0, 2)];
        let sim = UrnSim::with_counts(Scatter::<24>, &start, 1);
        assert_index_consistent(&sim);
        assert_eq!(sim.nonzero_counts(), vec![(0, 7), (3, 3), (23, 6)]);
        for seed in 0..40 {
            // Per step, and replayed pairs of occupied states.
            let mut sim = UrnSim::new(Scatter::<24>, 12, seed);
            let mut pick = SmallRng::seed_from_u64(seed);
            for _ in 0..200 {
                sim.step();
                assert_index_consistent(&sim);
                let occ = &sim.occupied_ids;
                let r = occ[pick.gen_range(0..occ.len())];
                let i = occ[pick.gen_range(0..occ.len())];
                if r != i || sim.counts[r] >= 2 {
                    sim.replay_interaction(r as u32, i as u32);
                    assert_index_consistent(&sim);
                }
            }
            // Batched blocks, and stops inside them: the predicate checks
            // the index at every block end and replayed pair, and first
            // holds at the end of the tenth block.
            let mut sim = UrnSim::new(Scatter::<24>, 64, seed).with_block(16);
            for _ in 0..20 {
                sim.steps(16);
                assert_index_consistent(&sim);
            }
            let mut calls = 0;
            assert!(sim.steps_until(1 << 20, |s| {
                assert_index_consistent(s);
                calls += 1;
                calls > 10
            }));
            assert_eq!(sim.interactions(), 20 * 16 + 9 * 16 + 1);
            assert_index_consistent(&sim);
        }
        // Both restores of a stop put back the block start, index
        // included, and a replay of the traced block reaches its end.
        let mut sim = UrnSim::new(Scatter::<24>, 64, 7).with_block(16);
        for _ in 0..300 {
            let rng = sim.rng.clone();
            let before = urn_state(&sim);
            sim.save_checkpoint();
            sim.run_block(16, false);
            let after = urn_state(&sim);
            sim.restore_checkpoint();
            assert_index_consistent(&sim);
            assert_eq!(urn_state(&sim), before);
            sim.rng = rng;
            sim.run_block(16, true);
            assert_eq!(urn_state(&sim), after);
            sim.restore_checkpoint();
            assert_index_consistent(&sim);
            assert_eq!(urn_state(&sim), before);
            for &(r, i) in &sim.scratch.trace.clone() {
                sim.replay_interaction(r, i);
                assert_index_consistent(&sim);
            }
            // The replay keeps the block start's occupancy order.
            let (mut replayed, mut end) = (urn_state(&sim), after);
            replayed.0.sort_unstable();
            end.0.sort_unstable();
            assert_eq!(replayed, end);
        }
    }

    #[test]
    fn find_ball_matches_a_dense_cumulative_scan() {
        for (n, seed) in [(2, 1), (3, 2), (10, 3), (10, 4), (37, 5)] {
            let mut sim = UrnSim::new(Scatter::<24>, n, seed);
            for _ in 0..200 {
                for target in 0..n {
                    assert_eq!(
                        sim.find_ball(target),
                        dense_find(&sim.counts, target),
                        "n = {n}, ball {target}"
                    );
                }
                sim.step();
            }
        }
    }

    #[test]
    fn memo_successors_survive_eviction() {
        // 128 states give 16 384 ordered pairs for the memo's 4 096
        // slots. Two sweeps in different orders make every pair miss at
        // least once, evict pairs that share a slot, and hit the pairs
        // the second sweep finds still stored.
        let p = Scatter::<128>;
        let mut sim = UrnSim::new(Scatter::<128>, 2, 1);
        let k = p.num_states();
        let (mut hits, mut misses) = (0u64, 0u64);
        for pass in 0..2 {
            for a in 0..k {
                for b in 0..k {
                    let (r, i) = if pass == 0 { (a, b) } else { (b, a) };
                    let held = sim.memo[memo_slot(r, i)];
                    if held[..2] == [r as u32, i as u32] {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    let (rn, inn) = p.transition(r as u16, i as u16);
                    assert_eq!(
                        sim.successors(r, i),
                        (p.state_id(rn), p.state_id(inn)),
                        "pair ({r}, {i}), pass {pass}"
                    );
                }
            }
        }
        assert!(hits > 0 && misses > (k * k) as u64 + MEMO_SLOTS as u64);
    }

    /// `for_each_state` visits each state of `nonzero_counts` exactly
    /// once, with its count.
    fn assert_visits_each_occupied_state_once(sim: &UrnSim<Cycle>) {
        let mut visited = Vec::new();
        sim.for_each_state(&mut |s, k| visited.push((s, k)));
        visited.sort();
        assert_eq!(visited, sim.nonzero_counts());
    }

    #[test]
    fn for_each_state_visits_each_occupied_state_once_across_rewinds() {
        let mut sim = UrnSim::new(Cycle, 4096, 61).with_block(256);
        assert!(sim.steps_until(1 << 22, |s| {
            assert_visits_each_occupied_state_once(s);
            let mut count_15 = 0;
            s.for_each_state(&mut |state, k| {
                if state == 15 {
                    count_15 = k;
                }
            });
            count_15 >= 64
        }));
        // The stop fell inside a block, which was rewound and replayed.
        assert_ne!(sim.interactions() % 256, 0);
        assert_visits_each_occupied_state_once(&sim);
        sim.steps(100_000);
        assert_visits_each_occupied_state_once(&sim);
    }

    #[test]
    fn urn_conserves_population() {
        let mut sim = UrnSim::new(Slow, 1000, 3);
        sim.steps(20_000);
        let total: u64 = sim.nonzero_counts().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn urn_slow_converges() {
        let mut sim = UrnSim::new(Slow, 256, 17);
        let res = run_until_stable(&mut sim, 10_000_000);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn urn_handles_large_population() {
        // A population that would need 1 GiB in an agent array is trivial
        // for the urn: just big counters.
        let mut sim = UrnSim::new(Slow, 1 << 30, 5);
        sim.steps(10_000);
        assert_eq!(sim.population(), 1 << 30);
        let leaders = sim.leaders();
        assert!(leaders < 1 << 30 && leaders > (1 << 30) - 10_001);
    }

    #[test]
    fn urn_and_agent_sim_agree_in_distribution() {
        // Compare mean convergence parallel time of the slow protocol on
        // n = 64 across engines; they simulate the same Markov chain so the
        // means must be statistically indistinguishable. Slow protocol
        // converges in ~n parallel time, tight concentration at this scale.
        use crate::agent_sim::AgentSim;
        let trials = 40;
        let mut urn_times = Vec::new();
        let mut arr_times = Vec::new();
        for t in 0..trials {
            let mut u = UrnSim::new(Slow, 64, 1000 + t);
            let r = run_until_stable(&mut u, 10_000_000);
            urn_times.push(r.parallel_time);
            let mut a = AgentSim::new(Slow, 64, 2000 + t);
            let r = run_until_stable(&mut a, 10_000_000);
            arr_times.push(r.parallel_time);
        }
        let mu: f64 = urn_times.iter().sum::<f64>() / trials as f64;
        let ma: f64 = arr_times.iter().sum::<f64>() / trials as f64;
        let rel = (mu - ma).abs() / ma;
        assert!(rel < 0.35, "urn {mu:.1} vs agent {ma:.1}");
    }

    #[test]
    fn batched_conserves_population_and_outputs() {
        let mut sim = UrnSim::new(Slow, 10_000, 3).with_block(625);
        sim.steps(200_000);
        assert_eq!(sim.interactions(), 200_000);
        let total: u64 = sim.nonzero_counts().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10_000);
        let mut leaders = 0;
        sim.for_each_state(&mut |s, c| {
            if s {
                leaders += c;
            }
        });
        assert_eq!(leaders, sim.leaders());
        assert_eq!(sim.output_counts().iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn batched_slow_converges_to_one_leader() {
        let mut sim = UrnSim::new(Slow, 4096, 17).with_block(256);
        let res = run_until_stable(&mut sim, 1 << 32);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        // Exact first-hit stop: the reported interaction count is the one
        // that produced the single leader (no batch-boundary round-up), so
        // the simulator is left exactly at the stop.
        assert_eq!(res.interactions, sim.interactions());
    }

    #[test]
    fn batched_tracks_sequential_trajectory() {
        // Slow protocol marginal x(t) = 1/(1+t) — the batched path must
        // follow it just like the sequential one (the batch sampler is
        // exact, so the tolerance only covers sampling noise).
        let n = 1u64 << 14;
        let mut sim = UrnSim::new(Slow, n, 9).with_block(n / 16);
        for k in 1..=6u64 {
            sim.steps(2 * n);
            let t = 2.0 * k as f64;
            let expected = n as f64 / (1.0 + t);
            let rel = (sim.leaders() as f64 - expected).abs() / expected;
            assert!(rel < 0.2, "t={t}: {} vs {expected:.0}", sim.leaders());
        }
    }

    #[test]
    fn batched_at_exactly_min_population_batches() {
        // n = 4096 is the default rule's cutoff: the per-step range is
        // "strictly below", so at exactly 4096 the urn batches (256 per
        // block). Stops are still exact — blocks are a scheduling
        // granularity, and the stop rewinds/replays to the first hit — so
        // the stopping time need not land on a block boundary.
        let n = 4096u64;
        assert_eq!(batched_block(n), 256);
        let mut sim = UrnSim::new(Slow, n, 77).with_block(batched_block(n));
        let res = run_until_stable(&mut sim, 1 << 40);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
        assert_eq!(res.interactions, sim.interactions());
    }

    #[test]
    fn traced_batches_replay_bit_identically() {
        // The shared trace decoding: a batched run's recorded
        // (responder, initiator) trace, replayed pair-by-pair on a fresh
        // urn, must reproduce the batched configuration bit for bit.
        let n = 4096u64;
        let mut batched = UrnSim::new(Slow, n, 41).with_block(n / 16);
        let mut trace = Vec::new();
        batched.steps_batched_traced(10_000, &mut trace);
        assert_eq!(trace.len(), 10_000);
        let mut replayed = UrnSim::new(Slow, n, 999);
        for &(r, i) in &trace {
            replayed.replay_interaction(r, i);
        }
        assert_eq!(replayed.nonzero_counts(), batched.nonzero_counts());
        assert_eq!(replayed.output_counts(), batched.output_counts());
        assert_eq!(replayed.interactions(), batched.interactions());
    }

    #[test]
    fn steps_until_matches_trace_first_hit() {
        // Exact-stop gate: the interaction count reported by `steps_until`
        // must equal the first-hit index in the recorded trace of the same
        // seeded run.
        let n = 4096u64;
        let target = 40u64;
        let mut traced = UrnSim::new(Slow, n, 53).with_block(n / 16);
        let mut trace = Vec::new();
        traced.steps_batched_traced(1 << 22, &mut trace);
        let mut replayed = UrnSim::new(Slow, n, 1);
        let mut first_hit = None;
        for (k, &(r, i)) in trace.iter().enumerate() {
            replayed.replay_interaction(r, i);
            if replayed.leaders() <= target {
                first_hit = Some(k as u64 + 1);
                break;
            }
        }
        let first_hit = first_hit.expect("trace long enough to hit target");
        let mut sim = UrnSim::new(Slow, n, 53).with_block(n / 16);
        assert!(sim.steps_until(1 << 22, |s| s.leaders() <= target));
        assert_eq!(sim.interactions(), first_hit);
        assert_eq!(sim.leaders(), target);
        assert_eq!(sim.nonzero_counts(), replayed.nonzero_counts());
        assert_eq!(sim.output_counts(), replayed.output_counts());
    }

    #[test]
    fn steps_until_pins_predicate_calls_and_the_state_after_a_stop() {
        // Stateful predicates see one call on entry, one per block end
        // and one per replayed pair up to the hit. The RNG state and
        // occupancy order a stop leaves behind fix every later draw, so a
        // continuation must reach the same configuration.
        let n = 4096u64;
        let mut sim = UrnSim::new(Slow, n, 53).with_block(n / 16);
        let mut calls = 0u64;
        assert!(sim.steps_until(1 << 22, |s| {
            calls += 1;
            s.leaders() <= 40
        }));
        assert_eq!(calls, 1595);
        assert_eq!(sim.interactions(), 384_858);
        sim.steps(100_000);
        assert_eq!(sim.nonzero_counts(), vec![(false, 4061), (true, 35)]);
        assert!(sim.steps_until(1 << 22, |s| s.leaders() <= 20));
        assert_eq!(sim.interactions(), 797_876);
    }

    #[test]
    fn steps_until_records_no_trace_while_the_predicate_fails() {
        // Horizon stops run `steps_until` under a never-true predicate. Only
        // a block whose end satisfies the predicate is re-sampled with its
        // trace, so such a run never allocates one.
        let mut sim = UrnSim::new(Slow, 4096, 7).with_block(256);
        assert!(!sim.steps_until(1 << 20, |_| false));
        assert_eq!(sim.interactions(), 1 << 20);
        assert_eq!(sim.scratch.trace.capacity(), 0);
    }

    #[test]
    fn steps_until_budget_exhaustion_leaves_exact_count() {
        // When the predicate never fires the budget must be consumed
        // exactly, with no partial-block overshoot.
        let n = 4096u64;
        let mut sim = UrnSim::new(Slow, n, 7).with_block(n / 16);
        assert!(!sim.steps_until(12_345, |_| false));
        assert_eq!(sim.interactions(), 12_345);
    }

    #[test]
    fn batch_size_one_consumes_rng_like_per_step() {
        // `with_block(1)` must take the exact sequential path of
        // `UrnSim::new`: bit-identical configurations, not just
        // statistical agreement.
        let mut batched = UrnSim::new(Slow, 4096, 23).with_block(1);
        let mut sequential = UrnSim::new(Slow, 4096, 23);
        batched.steps(10_000);
        sequential.steps(10_000);
        assert_eq!(batched.nonzero_counts(), sequential.nonzero_counts());
        assert_eq!(batched.output_counts(), sequential.output_counts());
        assert_eq!(batched.interactions(), sequential.interactions());
    }

    #[test]
    fn batched_falls_back_to_per_step_below_min_population() {
        // Identical RNG consumption to the sequential path when the
        // default rule says "don't batch": the configurations must match
        // bit for bit.
        assert_eq!(batched_block(500), 1);
        let mut batched = UrnSim::new(Slow, 500, 23).with_block(batched_block(500));
        let mut sequential = UrnSim::new(Slow, 500, 23);
        batched.steps(5_000);
        sequential.steps(5_000);
        assert_eq!(batched.nonzero_counts(), sequential.nonzero_counts());
        assert_eq!(batched.output_counts(), sequential.output_counts());
    }

    #[test]
    fn batched_heterogeneous_start() {
        let counts = [(true, 64u64), (false, 4032)];
        let mut sim = UrnSim::with_counts(Slow, &counts, 31).with_block(256);
        assert_eq!(sim.leaders(), 64);
        let res = run_until_stable(&mut sim, 1 << 32);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
    }

    #[test]
    fn batched_block_is_a_sixteenth_of_n_from_4096_up() {
        assert_eq!(batched_block(100), 1);
        assert_eq!(batched_block(4095), 1);
        assert_eq!(batched_block(4096), 256);
        assert_eq!(batched_block(4097), 256);
        assert_eq!(batched_block(1 << 20), 1 << 16);
        assert_eq!(batched_block(1 << 30), 1 << 26);
    }

    #[test]
    fn no_sampled_batch_exceeds_half_the_population() {
        // A block batches exactly when it is at least 4 and at most
        // ⌊n/2⌋, for even and odd n alike, and its sub-batches never
        // exceed ⌊n/2⌋ either (`step_batch_*` also assert `2b ≤ n` on
        // every sub-batch the runs below sample).
        for n in [4u64, 5, 7, 8, 9, 4096, 4097, (1 << 40) - 1] {
            let half = n / 2;
            assert!(inner_batch_size(n) <= half, "n = {n}");
            for block in [0, 1, 3, 4, half, half + 1, n, u64::MAX] {
                let next = UrnSim::new(Slow, n, 5)
                    .with_block(block)
                    .next_block(u64::MAX);
                let batched = (4..=half).contains(&block);
                assert_eq!(next, batched.then_some(block), "n = {n}, block {block}");
            }
        }
        // At the cap the urn batches; one above it, it is the sequential
        // urn bit for bit, to the last interaction of the run.
        for n in [8u64, 9, 4096, 4097] {
            let mut at_cap = UrnSim::new(Slow, n, 5).with_block(n / 2);
            at_cap.steps(8 * n);
            assert_eq!(at_cap.interactions(), 8 * n);
            let mut over = UrnSim::new(Slow, n, 5).with_block(n / 2 + 1);
            let mut sequential = UrnSim::new(Slow, n, 5);
            over.steps(8 * n);
            sequential.steps(8 * n);
            assert_eq!(
                over.nonzero_counts(),
                sequential.nonzero_counts(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn output_counts_track_urn_contents() {
        let mut sim = UrnSim::new(Slow, 500, 23);
        sim.steps(5_000);
        let mut leaders = 0;
        sim.for_each_state(&mut |s, c| {
            if s {
                leaders += c;
            }
        });
        assert_eq!(leaders, sim.leaders());
    }
}
