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
//! by `u64`. Each interaction costs O(log |states|) through a Fenwick tree.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::batch::{
    collision_free_run, draw_without_replacement_sparse, hypergeometric, BatchPolicy,
};
use crate::fenwick::Fenwick;
use crate::protocol::{EnumerableProtocol, Output, Simulator, NUM_OUTPUTS};

/// Scale factor for the engine's internal sampling batches: sub-batches are
/// `INNER_BATCH_SCALE · √n`, rounded down to a power of two. Per-sub-batch
/// fixed cost (snapshot + merge, O(occupied)) shrinks with larger
/// sub-batches while collision-handling cost grows as 2b²/n, so the optimum
/// sits at Θ(√n); the constant was picked from the `engine_batched`
/// criterion sweep on `Gsu19`.
const INNER_BATCH_SCALE: u64 = 4;

/// Size of the internal exact sub-batches [`UrnSim::steps_batched`] splits
/// its scheduling blocks into: `INNER_BATCH_SCALE·√n` rounded down to a
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

/// Collision patterns of the shuffled sub-batch path: which side of the
/// colliding pair is a repeat (touched) agent. `PAT_NONE` marks a segment
/// that ends the sub-batch without a collision.
const PAT_TU: u8 = 0;
const PAT_UT: u8 = 1;
const PAT_TT: u8 = 2;
const PAT_NONE: u8 = 3;

/// Occupancy ceiling for the shuffled path's dense pair-transition cache
/// (`occ²` entries). Above it — only brief transients for the protocols in
/// this repo — transitions are evaluated directly instead.
const PAIR_CACHE_MAX_OCC: usize = 256;

/// What [`UrnSim::step_batch`] logs besides applying its sub-batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Nothing: [`UrnSim::steps_batched`].
    Nothing,
    /// The merged deltas, so the block can be rewound: the first pass of
    /// [`Simulator::steps_until`] over every block.
    Undo,
    /// The merged deltas and the interaction trace, so the block can be
    /// rewound and replayed pair by pair: the re-run of the block whose end
    /// satisfies a stop predicate, and [`UrnSim::steps_batched_traced`].
    UndoAndTrace,
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
    /// Position of each id in `touched_ids` (`u32::MAX` when absent).
    touched_pos: Vec<u32>,
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
    /// Dense pair-transition memo for the shuffled path, keyed by
    /// `responder_slot · occ + initiator_slot`: (generation stamp, responder
    /// successor id, initiator successor id). Entries from older sub-batches
    /// are invalidated by the generation stamp, never by clearing.
    pair_cache: Vec<(u32, u32, u32)>,
    /// Current generation of `pair_cache` (0 = never valid).
    cache_gen: u32,
    /// Recorded (responder, initiator) state-id pairs — the block's implicit
    /// sequential trace, in execution order. Filled only under
    /// [`Record::UndoAndTrace`], so a `steps_until` run whose predicate
    /// never holds never allocates it.
    trace: Vec<(u32, u32)>,
    /// Net deltas actually applied at each sub-batch merge, for rewinding
    /// (filled under [`Record::Undo`] and [`Record::UndoAndTrace`]).
    undo: Vec<(u32, i64)>,
    /// Start index in `undo` of each recorded sub-batch's segment.
    undo_marks: Vec<usize>,
    /// `UrnSim::occupied_ids` at the start of the current `steps_until`
    /// block, restored before the block is re-sampled with its trace (the
    /// samplers' draws depend on the occupancy order).
    block_occupied: Vec<usize>,
}

impl BatchScratch {
    /// Add `m` agents of state `id` to the touched multiset.
    #[inline]
    fn touched_insert(&mut self, id: usize, m: u64) {
        let c = self.touched_counts[id];
        if c == 0 {
            self.touched_pos[id] = self.touched_ids.len() as u32;
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
                    self.touched_pos[id] = u32::MAX;
                    self.touched_ids.swap_remove(k);
                    if k < self.touched_ids.len() {
                        self.touched_pos[self.touched_ids[k] as usize] = k as u32;
                    }
                }
                return id;
            }
            x -= c;
            k += 1;
        }
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

/// Urn simulator over an [`EnumerableProtocol`].
pub struct UrnSim<P: EnumerableProtocol> {
    protocol: P,
    /// Weighted sampling structure; weight of slot `id` = multiplicity of the
    /// state with that id.
    urn: Fenwick,
    /// Dense mirror of the urn weights: `counts[id]` = multiplicity of state
    /// `id`. Kept in lock-step with `urn`; the batched path reads and
    /// updates it directly and replays net changes into the Fenwick tree.
    counts: Vec<u64>,
    /// Ids of states with non-zero multiplicity, in insertion order
    /// (deterministic, not sorted). Maintained incrementally so the batched
    /// path's per-batch overhead is O(occupied), not O(|states|).
    occupied_ids: Vec<usize>,
    /// Position of each id in `occupied_ids` (`u32::MAX` when absent).
    occupied_pos: Vec<u32>,
    /// Cached decode table: `state_of[id]` = the state with id `id`.
    state_of: Vec<P::State>,
    /// Cached output per state id.
    output_of: Vec<Output>,
    population: u64,
    rng: SmallRng,
    interactions: u64,
    output_counts: [u64; NUM_OUTPUTS],
    scratch: BatchScratch,
}

impl<P: EnumerableProtocol> UrnSim<P> {
    /// Cost ratio between one conditional hypergeometric call (bucketized
    /// path, per pairing bucket) and one buffered shuffle draw (shuffled
    /// path, per stream element) — see the dispatch in
    /// [`UrnSim::step_batch`]. Empirical, from the `engine_batched`
    /// criterion sweep; the dispatch stays a deterministic function of
    /// `(b, n, occupancy)` whatever its value.
    const BUCKETIZED_RUN_FACTOR: f64 = 3.0;

    /// Create an urn with `n` agents in the initial state.
    ///
    /// # Panics
    /// Panics if `n < 2` or if the protocol's encode/decode pair is not
    /// inverse on the initial state.
    pub fn new(protocol: P, n: u64, seed: u64) -> Self {
        assert!(n >= 2, "population must contain at least two agents");
        let s = protocol.num_states();
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
        let mut urn = Fenwick::new(s);
        urn.add(init_id, n as i64);
        let mut counts = vec![0u64; s];
        counts[init_id] = n;
        let mut occupied_pos = vec![u32::MAX; s];
        occupied_pos[init_id] = 0;
        let mut output_counts = [0u64; NUM_OUTPUTS];
        output_counts[protocol.output(init) as usize] = n;
        Self {
            protocol,
            urn,
            counts,
            occupied_ids: vec![init_id],
            occupied_pos,
            state_of,
            output_of,
            population: n,
            rng: SmallRng::seed_from_u64(seed),
            interactions: 0,
            output_counts,
            scratch: BatchScratch::default(),
        }
    }

    /// Apply a multiplicity change to state `id` in both count structures
    /// and the occupancy index (but not the Fenwick tree — callers pair
    /// this with `urn.add`).
    #[inline]
    fn add_count(&mut self, id: usize, delta: i64) {
        let old = self.counts[id];
        let new = (old as i64 + delta) as u64;
        self.counts[id] = new;
        if old == 0 && new > 0 {
            self.occupied_pos[id] = self.occupied_ids.len() as u32;
            self.occupied_ids.push(id);
        } else if old > 0 && new == 0 {
            let pos = self.occupied_pos[id] as usize;
            self.occupied_ids.swap_remove(pos);
            self.occupied_pos[id] = u32::MAX;
            if pos < self.occupied_ids.len() {
                self.occupied_pos[self.occupied_ids[pos]] = pos as u32;
            }
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
        sim.urn.add(init_id, -(n as i64));
        sim.add_count(init_id, -(n as i64));
        sim.output_counts = [0; NUM_OUTPUTS];
        for &(s, c) in counts {
            let id = sim.protocol.state_id(s);
            sim.urn.add(id, c as i64);
            sim.add_count(id, c as i64);
            sim.output_counts[sim.protocol.output(s) as usize] += c;
        }
        sim
    }

    /// Multiplicity of the state with id `id`.
    pub fn count_of_id(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// The protocol instance driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All (state, multiplicity) pairs with non-zero multiplicity.
    pub fn nonzero_counts(&self) -> Vec<(P::State, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(id, &c)| (self.state_of[id], c))
            .collect()
    }

    /// Execute `k` interactions, sampling whole batches at once where
    /// `policy` allows it.
    ///
    /// *Exactly* equivalent in distribution to `k` calls of
    /// [`Simulator::step`] (see [`crate::batch`]): each batch alternates
    /// collision-free runs of fresh agents with individually-sampled
    /// collision interactions whose repeat participants are resampled from
    /// the post-update touched multiset, so the batch is bit-for-bit a
    /// sequential chain under the shared trace decoding. The policy's block
    /// size is a *scheduling* granularity only — internally each block is
    /// split into `inner_batch_size` sub-batches (≈√n) so sampling cost
    /// stays optimal regardless of how coarse the blocks are. Falls back to
    /// per-step sampling whenever the policy's block size is < 4 (per-step
    /// policy, small population) or would exceed n/2.
    ///
    /// Deterministic: a fixed (seed, `k`, `policy`) triple always produces
    /// the same configuration. Note the RNG consumption differs from the
    /// sequential path's, so batched and per-step runs of the same seed are
    /// different (equally valid) samples of the process.
    pub fn steps_batched(&mut self, k: u64, policy: &BatchPolicy) {
        let mut left = k;
        while left > 0 {
            let block = policy.batch_size(self.population).min(left);
            // Batches need 2b ≤ n distinct agents; tiny remainders are
            // cheaper sequentially than through the batch machinery. The
            // half-check divides rather than doubling so hand-built
            // policies can never wrap it.
            if block < 4 || block > self.population / 2 {
                self.step();
                left -= 1;
                continue;
            }
            self.run_block(block, Record::Nothing);
            left -= block;
        }
    }

    /// Like [`UrnSim::steps_batched`], but also appends the batch's implicit
    /// sequential trace — the ordered (responder, initiator) state-id pairs
    /// of every interaction — to `out`. Replaying the trace pair-by-pair
    /// with [`UrnSim::replay_interaction`] from the starting configuration
    /// reproduces this simulator's configuration bit for bit; the
    /// equivalence suite uses this as the shared decoding that promotes the
    /// batched-vs-sequential gates from statistical to bit-level.
    pub fn steps_batched_traced(
        &mut self,
        k: u64,
        policy: &BatchPolicy,
        out: &mut Vec<(u32, u32)>,
    ) {
        let mut left = k;
        while left > 0 {
            let block = policy.batch_size(self.population).min(left);
            if block < 4 || block > self.population / 2 {
                let (r_id, i_id) = self.step_ids();
                out.push((r_id as u32, i_id as u32));
                self.finish_pair(r_id, i_id);
                left -= 1;
                continue;
            }
            self.scratch.trace.clear();
            self.scratch.undo.clear();
            self.scratch.undo_marks.clear();
            self.run_block(block, Record::UndoAndTrace);
            out.extend_from_slice(&self.scratch.trace);
            left -= block;
        }
    }

    /// Run one scheduling block of `block` interactions as
    /// [`inner_batch_size`] exact sub-batches.
    fn run_block(&mut self, block: u64, record: Record) {
        let inner = inner_batch_size(self.population);
        let mut rem = block;
        while rem > 0 {
            let b = inner.min(rem);
            self.step_batch(b, record);
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
    fn step_batch(&mut self, b: u64, record: Record) {
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
            self.step_batch_bucketed(b, record);
        } else {
            self.step_batch_shuffled(b, record);
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
        sc.touched_pos.resize(s, u32::MAX);
        sc.occupied.clear();
        sc.pool.clear();
        for &id in &self.occupied_ids {
            sc.occupied.push(id);
            sc.pool.push(self.counts[id]);
        }
        sc
    }

    /// Merge a sub-batch's accumulated deltas into the counts mirror, the
    /// Fenwick tree, the occupancy index and the output counters, reset the
    /// touched multiset, and hand the scratch buffers back. `dirty` may hold
    /// duplicates; zeroing `delta` on apply makes repeats no-ops, so the
    /// undo log gets at most one entry per state id per sub-batch.
    fn merge_sub_batch(&mut self, mut sc: BatchScratch, record: Record) {
        let undo = record != Record::Nothing;
        if undo {
            sc.undo_marks.push(sc.undo.len());
        }
        for k in 0..sc.dirty.len() {
            let id = sc.dirty[k] as usize;
            let d = sc.delta[id];
            if d != 0 {
                sc.delta[id] = 0;
                self.add_count(id, d);
                self.urn.add(id, d);
                let o = self.output_of[id] as usize;
                self.output_counts[o] = (self.output_counts[o] as i64 + d) as u64;
                if undo {
                    sc.undo.push((id as u32, d));
                }
            }
        }
        sc.dirty.clear();
        for &id in &sc.touched_ids {
            sc.touched_counts[id as usize] = 0;
            sc.touched_pos[id as usize] = u32::MAX;
        }
        sc.touched_ids.clear();
        self.scratch = sc;
        debug_assert_eq!(self.urn.total(), self.population);
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
    /// Net multiplicity changes merge into the Fenwick tree, counts mirror,
    /// occupancy index and output counters at the end. `record` says
    /// whether the merged deltas and the interaction trace are logged, so a
    /// caller can rewind the batch and replay it pair-by-pair (exact
    /// predicate stops).
    fn step_batch_bucketed(&mut self, b: u64, record: Record) {
        debug_assert!(b >= 1 && 2 * b <= self.population);
        let trace = record == Record::UndoAndTrace;
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
            // a collision. Pattern weights over ordered (responder,
            // initiator) role pairs, conditioned on "not both fresh":
            // (touched, fresh) : (fresh, touched) : (touched, touched)
            //   =    u         :       u          :       t − 1.
            let t = touched_total;
            let u = untouched;
            debug_assert!(t > 0, "a collision needs at least one touched agent");
            let w = 2.0 * u as f64 + (t - 1) as f64;
            let x = self.rng.gen::<f64>() * w;
            let (r_id, i_id) = if x < u as f64 {
                let r = sc.touched_remove_one(&mut self.rng, t);
                let i = sc.pool_draw_one(&mut self.rng, u);
                untouched -= 1;
                touched_total += 1;
                (r, i)
            } else if x < 2.0 * u as f64 {
                let r = sc.pool_draw_one(&mut self.rng, u);
                let i = sc.touched_remove_one(&mut self.rng, t);
                untouched -= 1;
                touched_total += 1;
                (r, i)
            } else {
                let r = sc.touched_remove_one(&mut self.rng, t);
                let i = sc.touched_remove_one(&mut self.rng, t - 1);
                (r, i)
            };
            let (r_new, i_new) = self
                .protocol
                .transition(self.state_of[r_id], self.state_of[i_id]);
            let rn_id = self.protocol.state_id(r_new);
            let in_id = self.protocol.state_id(i_new);
            sc.delta[r_id] -= 1;
            sc.delta[i_id] -= 1;
            sc.delta[rn_id] += 1;
            sc.delta[in_id] += 1;
            sc.dirty.push(r_id as u32);
            sc.dirty.push(i_id as u32);
            sc.dirty.push(rn_id as u32);
            sc.dirty.push(in_id as u32);
            sc.touched_insert(rn_id, 1);
            sc.touched_insert(in_id, 1);
            if trace {
                sc.trace.push((r_id as u32, i_id as u32));
            }
            done += 1;
        }
        self.interactions += b;
        self.merge_sub_batch(sc, record);
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
    ///    bucketized path. Run transitions go through a generation-stamped
    ///    dense (responder slot, initiator slot) memo, so the protocol's
    ///    transition function runs at most once per ordered state pair per
    ///    sub-batch.
    ///
    /// Delta accounting differs from the bucketized path in one spot: fresh
    /// participants are subtracted from the configuration in bulk at the
    /// composition draw, so collision handling only subtracts the touched
    /// sides. Trace, undo and merge machinery are shared.
    fn step_batch_shuffled(&mut self, b: u64, record: Record) {
        debug_assert!(b >= 1 && 2 * b <= self.population);
        let trace = record == Record::UndoAndTrace;
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
            // Pattern weights over ordered (responder, initiator) role
            // pairs, conditioned on "not both fresh" — identical to the
            // bucketized path's collision branch.
            let t = touched_total;
            let u = untouched;
            debug_assert!(t > 0, "a collision needs at least one touched agent");
            let w = 2.0 * u as f64 + (t - 1) as f64;
            let x = self.rng.gen::<f64>() * w;
            let pat = if x < u as f64 {
                PAT_TU
            } else if x < 2.0 * u as f64 {
                PAT_UT
            } else {
                PAT_TT
            };
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
        let occ = sc.occupied.len();
        let use_cache = occ <= PAIR_CACHE_MAX_OCC;
        if use_cache {
            sc.pair_cache.resize(occ * occ, (0, 0, 0));
            sc.cache_gen = sc.cache_gen.wrapping_add(1);
            if sc.cache_gen == 0 {
                // Generation counter wrapped: old stamps could collide, so
                // invalidate everything once and restart at 1.
                for e in &mut sc.pair_cache {
                    e.0 = 0;
                }
                sc.cache_gen = 1;
            }
        }
        let gen = sc.cache_gen;
        let mut idx = 0usize;
        let mut t_live = 0u64;
        for si in 0..sc.seg_runs.len() {
            for _ in 0..sc.seg_runs[si] {
                let jr = sc.flat[idx];
                let ji = sc.flat[idx + 1];
                idx += 2;
                let r_id = sc.occupied[jr as usize];
                let i_id = sc.occupied[ji as usize];
                let (rn_id, in_id) = if use_cache {
                    let key = jr as usize * occ + ji as usize;
                    let e = sc.pair_cache[key];
                    if e.0 == gen {
                        (e.1 as usize, e.2 as usize)
                    } else {
                        let (r_new, i_new) = self
                            .protocol
                            .transition(self.state_of[r_id], self.state_of[i_id]);
                        let rn = self.protocol.state_id(r_new);
                        let inn = self.protocol.state_id(i_new);
                        sc.pair_cache[key] = (gen, rn as u32, inn as u32);
                        (rn, inn)
                    }
                } else {
                    let (r_new, i_new) = self
                        .protocol
                        .transition(self.state_of[r_id], self.state_of[i_id]);
                    (self.protocol.state_id(r_new), self.protocol.state_id(i_new))
                };
                sc.delta[rn_id] += 1;
                sc.delta[in_id] += 1;
                sc.dirty.push(rn_id as u32);
                sc.dirty.push(in_id as u32);
                sc.touched_insert(rn_id, 1);
                sc.touched_insert(in_id, 1);
                if trace {
                    sc.trace.push((r_id as u32, i_id as u32));
                }
            }
            t_live += 2 * sc.seg_runs[si];
            let pat = sc.seg_pats[si];
            if pat == PAT_NONE {
                break;
            }
            let (r_id, i_id) = match pat {
                PAT_TU => {
                    let r = sc.touched_remove_one(&mut self.rng, t_live);
                    t_live -= 1;
                    let i = sc.occupied[sc.flat[idx] as usize];
                    idx += 1;
                    sc.delta[r] -= 1;
                    sc.dirty.push(r as u32);
                    (r, i)
                }
                PAT_UT => {
                    let r = sc.occupied[sc.flat[idx] as usize];
                    idx += 1;
                    let i = sc.touched_remove_one(&mut self.rng, t_live);
                    t_live -= 1;
                    sc.delta[i] -= 1;
                    sc.dirty.push(i as u32);
                    (r, i)
                }
                _ => {
                    let r = sc.touched_remove_one(&mut self.rng, t_live);
                    let i = sc.touched_remove_one(&mut self.rng, t_live - 1);
                    t_live -= 2;
                    sc.delta[r] -= 1;
                    sc.delta[i] -= 1;
                    sc.dirty.push(r as u32);
                    sc.dirty.push(i as u32);
                    (r, i)
                }
            };
            let (r_new, i_new) = self
                .protocol
                .transition(self.state_of[r_id], self.state_of[i_id]);
            let rn_id = self.protocol.state_id(r_new);
            let in_id = self.protocol.state_id(i_new);
            sc.delta[rn_id] += 1;
            sc.delta[in_id] += 1;
            sc.dirty.push(rn_id as u32);
            sc.dirty.push(in_id as u32);
            sc.touched_insert(rn_id, 1);
            sc.touched_insert(in_id, 1);
            t_live += 2;
            if trace {
                sc.trace.push((r_id as u32, i_id as u32));
            }
        }
        debug_assert_eq!(idx as u64, fresh, "shuffled stream fully consumed");
        self.interactions += b;
        self.merge_sub_batch(sc, record);
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
            let r_state = self.state_of[r_id];
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
                let (r_new, i_new) = self.protocol.transition(r_state, self.state_of[i_id]);
                let rn_id = self.protocol.state_id(r_new);
                let in_id = self.protocol.state_id(i_new);
                sc.delta[rn_id] += m as i64;
                sc.delta[in_id] += m as i64;
                sc.dirty.push(rn_id as u32);
                sc.dirty.push(in_id as u32);
                sc.touched_insert(rn_id, m);
                sc.touched_insert(in_id, m);
                if trace {
                    for _ in 0..m {
                        sc.trace.push((r_id as u32, i_id as u32));
                    }
                }
            }
            initiators_left -= r_draws;
        }
        debug_assert_eq!(initiators_left, 0);
        sc.resp_nz.clear();
        sc.init_nz.clear();
    }

    /// Draw an interaction pair and remove both balls from the urn; the
    /// caller finishes the interaction with [`UrnSim::finish_pair`].
    #[inline]
    fn step_ids(&mut self) -> (usize, usize) {
        let r_id = self.urn.find(self.rng.gen_range(0..self.population));
        self.urn.add(r_id, -1);
        self.add_count(r_id, -1);
        let i_id = self.urn.find(self.rng.gen_range(0..self.population - 1));
        self.urn.add(i_id, -1);
        self.add_count(i_id, -1);
        (r_id, i_id)
    }

    /// Apply the transition to a drawn (responder, initiator) pair whose
    /// balls have already been removed, reinsert the post-transition states
    /// and update the interaction and output counters.
    #[inline]
    fn finish_pair(&mut self, r_id: usize, i_id: usize) {
        let (r_new, i_new) = self
            .protocol
            .transition(self.state_of[r_id], self.state_of[i_id]);
        let rn_id = self.protocol.state_id(r_new);
        let in_id = self.protocol.state_id(i_new);
        self.urn.add(rn_id, 1);
        self.add_count(rn_id, 1);
        self.urn.add(in_id, 1);
        self.add_count(in_id, 1);
        self.interactions += 1;

        if rn_id != r_id {
            self.output_counts[self.output_of[r_id] as usize] -= 1;
            self.output_counts[self.output_of[rn_id] as usize] += 1;
        }
        if in_id != i_id {
            self.output_counts[self.output_of[i_id] as usize] -= 1;
            self.output_counts[self.output_of[in_id] as usize] += 1;
        }
    }

    /// Apply one interaction with *given* participant states: remove one
    /// ball of `r_id` and one of `i_id`, apply the transition, reinsert.
    ///
    /// This is the decoding side of the shared interaction trace: replaying
    /// a recorded batch trace pair-by-pair from the batch's starting
    /// configuration reproduces the batched engine's configurations — and
    /// every prefix is a configuration the sequential chain visits, which is
    /// what makes exact predicate stops possible.
    ///
    /// # Panics
    /// In debug builds, panics if either state has no balls left.
    pub fn replay_interaction(&mut self, r_id: u32, i_id: u32) {
        let (r_id, i_id) = (r_id as usize, i_id as usize);
        debug_assert!(self.counts[r_id] >= 1, "replay: responder state empty");
        self.urn.add(r_id, -1);
        self.add_count(r_id, -1);
        debug_assert!(self.counts[i_id] >= 1, "replay: initiator state empty");
        self.urn.add(i_id, -1);
        self.add_count(i_id, -1);
        self.finish_pair(r_id, i_id);
    }

    /// Rewind the most recent recorded block of `block` interactions: apply
    /// the logged sub-batch merge deltas in reverse segment order (each
    /// segment is an exact inverse, so counts never go transiently
    /// negative) and roll back the interaction and output counters.
    fn rewind_block(&mut self, block: u64) {
        let undo = std::mem::take(&mut self.scratch.undo);
        let marks = std::mem::take(&mut self.scratch.undo_marks);
        for seg in (0..marks.len()).rev() {
            let start = marks[seg];
            let end = if seg + 1 < marks.len() {
                marks[seg + 1]
            } else {
                undo.len()
            };
            for &(id, d) in &undo[start..end] {
                let id = id as usize;
                self.urn.add(id, -d);
                self.add_count(id, -d);
                let o = self.output_of[id] as usize;
                self.output_counts[o] = (self.output_counts[o] as i64 - d) as u64;
            }
        }
        self.interactions -= block;
        // Hand the (cleared) buffers back so their capacity is reused.
        let mut undo = undo;
        undo.clear();
        let mut marks = marks;
        marks.clear();
        self.scratch.undo = undo;
        self.scratch.undo_marks = marks;
        debug_assert_eq!(self.urn.total(), self.population);
    }

    /// Put back the occupancy order saved at the start of the current
    /// `steps_until` block. A rewind restores the block's set of occupied
    /// states but not their order, on which the samplers' draws depend.
    fn restore_block_occupancy(&mut self) {
        let saved = &self.scratch.block_occupied;
        debug_assert!(
            saved.len() == self.occupied_ids.len() && saved.iter().all(|&id| self.counts[id] > 0),
            "a rewind restores the block's set of occupied states"
        );
        self.occupied_ids.clone_from(saved);
        for (pos, &id) in self.occupied_ids.iter().enumerate() {
            self.occupied_pos[id] = pos as u32;
        }
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
        // Draw responder, remove it from the urn, draw initiator from the
        // remaining n-1 balls, then reinsert the post-transition states.
        let (r_id, i_id) = self.step_ids();
        self.finish_pair(r_id, i_id);
    }

    /// Batched predicate stop with *exact* first-hit semantics.
    ///
    /// Blocks are executed keeping only their undo log (O(occupied) entries
    /// per sub-batch); the predicate is probed at block granularity (cheap).
    /// When it holds at a block's end, the block is rewound and re-sampled
    /// from the same RNG state and occupancy order with its interaction
    /// trace on — the same draws, so the same trace and end state — then
    /// rewound again and replayed pair-by-pair to find the exact first
    /// interaction after which the predicate holds. Only that block's trace
    /// is ever recorded, and the predicate sees exactly one call per block
    /// end and per replayed pair. For the monotone /
    /// eventually-stable predicates this repo uses (stable election, census
    /// thresholds) the reported count is therefore exactly the sequential
    /// chain's first-hit time; for a non-monotone predicate it is the first
    /// hit *within the first block whose endpoint satisfies it* (earlier
    /// transient flips strictly inside an unsatisfied block are not probed).
    fn steps_until(
        &mut self,
        k: u64,
        policy: &BatchPolicy,
        pred: &mut dyn FnMut(&Self) -> bool,
    ) -> bool {
        if pred(self) {
            return true;
        }
        let mut left = k;
        while left > 0 {
            let block = policy.batch_size(self.population).min(left);
            if block < 4 || block > self.population / 2 {
                self.step();
                left -= 1;
                if pred(self) {
                    return true;
                }
                continue;
            }
            // What a re-sample of this block needs: the RNG state and the
            // occupancy order its first sub-batch snapshots.
            let rng = self.rng.clone();
            self.scratch.block_occupied.clone_from(&self.occupied_ids);
            self.scratch.undo.clear();
            self.scratch.undo_marks.clear();
            self.run_block(block, Record::Undo);
            left -= block;
            if pred(self) {
                // The predicate holds somewhere inside this block. Rewind
                // it and re-sample it with its trace on: the same draws
                // give the same trace, end configuration and RNG state.
                self.rewind_block(block);
                self.rng = rng;
                self.restore_block_occupancy();
                self.scratch.trace.clear();
                self.run_block(block, Record::UndoAndTrace);
                // Rewind once more and replay the trace one interaction at
                // a time until the predicate first holds. A full replay
                // reproduces the block-end configuration bit for bit, so
                // the loop is guaranteed to terminate with the predicate
                // satisfied.
                self.rewind_block(block);
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
    use crate::runner::{run_until_stable, run_until_stable_with};

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
        let policy = test_policy();
        let mut sim = UrnSim::new(Cycle, 4096, 61);
        assert!(sim.steps_until(1 << 22, &policy, &mut |s: &UrnSim<Cycle>| {
            assert_visits_each_occupied_state_once(s);
            s.count_of_id(15) >= 64
        }));
        // The stop fell inside a block, which was rewound and replayed.
        assert_ne!(sim.interactions() % policy.batch_size(4096), 0);
        assert_visits_each_occupied_state_once(&sim);
        sim.steps_batched(100_000, &policy);
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

    /// Policy forcing batches even at unit-test populations.
    fn test_policy() -> BatchPolicy {
        BatchPolicy::Adaptive {
            shift: 4,
            min_population: 64,
        }
    }

    #[test]
    fn batched_conserves_population_and_outputs() {
        let mut sim = UrnSim::new(Slow, 10_000, 3);
        sim.steps_batched(200_000, &test_policy());
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
        let mut sim = UrnSim::new(Slow, 4096, 17);
        let res = run_until_stable_with(&mut sim, &test_policy(), 1 << 32);
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
        let mut sim = UrnSim::new(Slow, n, 9);
        for k in 1..=6u64 {
            sim.steps_batched(2 * n, &test_policy());
            let t = 2.0 * k as f64;
            let expected = n as f64 / (1.0 + t);
            let rel = (sim.leaders() as f64 - expected).abs() / expected;
            assert!(rel < 0.2, "t={t}: {} vs {expected:.0}", sim.leaders());
        }
    }

    #[test]
    fn batched_at_exactly_min_population_batches() {
        // n = 4096 = DEFAULT_MIN_POPULATION: the boundary is "strictly
        // below", so at exactly 4096 the default policy batches (256 per
        // block). Stops are still exact — blocks are a scheduling
        // granularity, and the stop rewinds/replays to the first hit — so
        // the stopping time need not land on a block boundary.
        let n = 4096u64;
        let policy = BatchPolicy::adaptive();
        assert_eq!(policy.batch_size(n), 256);
        let mut sim = UrnSim::new(Slow, n, 77);
        let res = run_until_stable_with(&mut sim, &policy, 1 << 40);
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
        let mut batched = UrnSim::new(Slow, n, 41);
        let mut trace = Vec::new();
        batched.steps_batched_traced(10_000, &test_policy(), &mut trace);
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
        let policy = test_policy();
        let target = 40u64;
        let mut traced = UrnSim::new(Slow, n, 53);
        let mut trace = Vec::new();
        traced.steps_batched_traced(1 << 22, &policy, &mut trace);
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
        let mut sim = UrnSim::new(Slow, n, 53);
        assert!(sim.steps_until(1 << 22, &policy, &mut |s: &UrnSim<Slow>| {
            s.leaders() <= target
        }));
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
        let policy = test_policy();
        let mut sim = UrnSim::new(Slow, n, 53);
        let mut calls = 0u64;
        assert!(sim.steps_until(1 << 22, &policy, &mut |s: &UrnSim<Slow>| {
            calls += 1;
            s.leaders() <= 40
        }));
        assert_eq!(calls, 1595);
        assert_eq!(sim.interactions(), 384_858);
        sim.steps_batched(100_000, &policy);
        assert_eq!(sim.nonzero_counts(), vec![(false, 4061), (true, 35)]);
        assert!(sim.steps_until(1 << 22, &policy, &mut |s: &UrnSim<Slow>| {
            s.leaders() <= 20
        }));
        assert_eq!(sim.interactions(), 797_876);
    }

    #[test]
    fn steps_until_records_no_trace_while_the_predicate_fails() {
        // Horizon stops run `steps_until` under a never-true predicate. Only
        // a block whose end satisfies the predicate is re-sampled with its
        // trace, so such a run never allocates one.
        let mut sim = UrnSim::new(Slow, 4096, 7);
        assert!(!sim.steps_until(1 << 20, &test_policy(), &mut |_: &UrnSim<Slow>| false));
        assert_eq!(sim.interactions(), 1 << 20);
        assert_eq!(sim.scratch.trace.capacity(), 0);
    }

    #[test]
    fn steps_until_budget_exhaustion_leaves_exact_count() {
        // When the predicate never fires the budget must be consumed
        // exactly, with no partial-block overshoot.
        let n = 4096u64;
        let mut sim = UrnSim::new(Slow, n, 7);
        assert!(!sim.steps_until(12_345, &test_policy(), &mut |_: &UrnSim<Slow>| false));
        assert_eq!(sim.interactions(), 12_345);
    }

    #[test]
    fn batch_size_one_consumes_rng_like_per_step() {
        // An adaptive policy whose batch degenerates to 1 (huge shift)
        // must take the exact sequential path: bit-identical
        // configurations, not just statistical agreement.
        let policy = BatchPolicy::Adaptive {
            shift: 63,
            min_population: 2,
        };
        assert_eq!(policy.batch_size(4096), 1);
        let mut batched = UrnSim::new(Slow, 4096, 23);
        let mut sequential = UrnSim::new(Slow, 4096, 23);
        batched.steps_batched(10_000, &policy);
        sequential.steps(10_000);
        assert_eq!(batched.nonzero_counts(), sequential.nonzero_counts());
        assert_eq!(batched.output_counts(), sequential.output_counts());
        assert_eq!(batched.interactions(), sequential.interactions());
    }

    #[test]
    fn batched_falls_back_to_per_step_below_min_population() {
        // Identical RNG consumption to the sequential path when the policy
        // says "don't batch": the configurations must match bit for bit.
        let policy = BatchPolicy::Adaptive {
            shift: 4,
            min_population: 1 << 20,
        };
        let mut batched = UrnSim::new(Slow, 500, 23);
        let mut sequential = UrnSim::new(Slow, 500, 23);
        batched.steps_batched(5_000, &policy);
        sequential.steps(5_000);
        assert_eq!(batched.nonzero_counts(), sequential.nonzero_counts());
        assert_eq!(batched.output_counts(), sequential.output_counts());
    }

    #[test]
    fn batched_heterogeneous_start() {
        let counts = [(true, 64u64), (false, 4032)];
        let mut sim = UrnSim::with_counts(Slow, &counts, 31);
        assert_eq!(sim.leaders(), 64);
        let res = run_until_stable_with(&mut sim, &test_policy(), 1 << 32);
        assert!(res.converged);
        assert_eq!(sim.leaders(), 1);
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
