//! Model-based property tests for the engine's data structures and the
//! batched sampling primitives. Case counts honour `PROPTEST_CASES`
//! (default 64; CI's stress job runs 256).

use ppsim::batch::{
    collision_free_run, draw_without_replacement, draw_without_replacement_sparse, hypergeometric,
    BINV_EXACT_N, BINV_MEAN_CUTOFF,
};
use ppsim::{quantile, EnumerableProtocol, Output, Protocol, Simulator, UrnSim};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The slow leader-election protocol with a dense 2-state encoding, for
/// engine-level sampler properties.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_is_monotone_and_bounded(
        mut xs in prop::collection::vec(-1e6f64..1e6, 1..50),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        xs.iter_mut().for_each(|x| *x = x.trunc()); // avoid NaN-ish noise
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let vlo = quantile(&xs, lo);
        let vhi = quantile(&xs, hi);
        prop_assert!(vlo <= vhi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min && vhi <= max);
    }

    #[test]
    fn trial_seeds_injective_prefix(master in any::<u64>()) {
        let seeds = ppsim::trial_seeds(master, 256);
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        prop_assert_eq!(set.len(), seeds.len());
    }

    #[test]
    fn multinomial_sums_and_never_exceeds_counts(
        seed in any::<u64>(),
        pool_template in prop::collection::vec(0u64..5_000, 1..40),
        draw_frac in 0.0f64..1.0,
    ) {
        let total: u64 = pool_template.iter().sum();
        let draws = (total as f64 * draw_frac) as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool = pool_template.clone();
        let mut pool_total = total;
        let mut out = Vec::new();
        draw_without_replacement(&mut rng, draws, &mut pool, &mut pool_total, &mut out);
        prop_assert_eq!(out.len(), pool_template.len());
        prop_assert_eq!(out.iter().sum::<u64>(), draws, "draws must sum to the batch size");
        prop_assert_eq!(pool_total, total - draws);
        for (j, (&x, &c)) in out.iter().zip(&pool_template).enumerate() {
            prop_assert!(x <= c, "slot {j} drew {x} of {c}");
            prop_assert_eq!(pool[j], c - x, "pool must shrink by the draw");
        }
    }

    #[test]
    fn multinomial_drains_pool_exactly(
        seed in any::<u64>(),
        pool_template in prop::collection::vec(0u64..100, 1..20),
    ) {
        // Drawing the whole pool must return it exactly, whatever the seed.
        let total: u64 = pool_template.iter().sum();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool = pool_template.clone();
        let mut pool_total = total;
        let mut out = Vec::new();
        draw_without_replacement(&mut rng, total, &mut pool, &mut pool_total, &mut out);
        prop_assert_eq!(out, pool_template);
        prop_assert_eq!(pool_total, 0);
    }

    #[test]
    fn multinomial_marginal_tracks_weights(
        seed in any::<u64>(),
        heavy in 100u64..10_000,
        light in 100u64..10_000,
    ) {
        // Two-slot pool: over repetitions the first slot's share of the
        // draws must track its share of the mass.
        let total = heavy + light;
        let draws = total / 3;
        let mut rng = SmallRng::seed_from_u64(seed);
        let reps = 150u64;
        let mut first = 0u64;
        let mut out = Vec::new();
        for _ in 0..reps {
            let mut pool = vec![heavy, light];
            let mut pool_total = total;
            draw_without_replacement(&mut rng, draws, &mut pool, &mut pool_total, &mut out);
            first += out[0];
        }
        let expect = reps as f64 * draws as f64 * heavy as f64 / total as f64;
        // Hypergeometric sd per rep ≤ √(draws/4); 6σ across reps plus
        // absolute slack for tiny expectations.
        let sd = (reps as f64 * draws as f64 / 4.0).sqrt();
        prop_assert!(
            (first as f64 - expect).abs() < 6.0 * sd + 5.0,
            "slot share {first} vs {expect} (sd {sd})"
        );
    }

    // ---- exact-batch sampler properties (PR 6) --------------------------

    #[test]
    fn collision_free_run_stays_in_support(
        seed in any::<u64>(),
        n in 2u64..1_000_000,
        untouched_frac in 0.0f64..1.0,
        cap in 1u64..5_000,
    ) {
        let untouched = ((n as f64 * untouched_frac) as u64).min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let run = collision_free_run(&mut rng, n, untouched, cap);
        prop_assert!(run <= cap, "run {run} exceeds cap {cap}");
        prop_assert!(run <= untouched / 2, "run {run} needs {} fresh agents", 2 * run);
        if untouched == n && n >= 2 {
            // A full pool survives the first interaction with certainty.
            prop_assert!(run >= 1);
        }
    }

    #[test]
    fn collision_free_run_mean_matches_closed_form(
        seed in any::<u64>(),
        n in 16u64..5_000,
        touched in 0u64..8,
        cap in 1u64..64,
    ) {
        // E[min(L, cap)] = Σ_{j=1..cap} P(L ≥ j), with
        // P(L ≥ j) = Π_{i<j} (u−2i)(u−2i−1) / (n(n−1)).
        let u = n - touched.min(n / 2);
        let mut expect = 0.0f64;
        let mut q = 1.0f64;
        let denom = n as f64 * (n - 1) as f64;
        for j in 0..cap {
            let fresh = u.saturating_sub(2 * j);
            if fresh < 2 {
                break;
            }
            q *= fresh as f64 * (fresh - 1) as f64 / denom;
            expect += q;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let reps = 400u64;
        let xs: Vec<f64> = (0..reps)
            .map(|_| collision_free_run(&mut rng, n, u, cap) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (reps - 1) as f64;
        let tol = 6.0 * (var / reps as f64).sqrt() + 0.05;
        prop_assert!(
            (mean - expect).abs() < tol,
            "run length (n={n}, u={u}, cap={cap}): mean {mean} vs {expect} (tol {tol})"
        );
    }

    #[test]
    fn batch_size_one_is_bitwise_per_step(seed in any::<u64>(), n in 2u64..2_000, k in 0u64..3_000) {
        // Degenerate b = 1: a block of one interaction must take the
        // sequential path bit for bit, for every seed and population — not
        // just statistically.
        let mut batched = UrnSim::new(Slow, n, seed).with_block(1);
        let mut sequential = UrnSim::new(Slow, n, seed);
        batched.steps(k);
        sequential.steps(k);
        prop_assert_eq!(batched.nonzero_counts(), sequential.nonzero_counts());
        prop_assert_eq!(batched.output_counts(), sequential.output_counts());
        prop_assert_eq!(batched.interactions(), sequential.interactions());
    }

    #[test]
    fn batched_trace_replays_bit_identically(
        seed in any::<u64>(),
        n in 64u64..4_096,
        shift in 1u32..8,
        k in 1u64..20_000,
    ) {
        // The shared trace decoding, swept across populations, block sizes
        // and seeds: the recorded (responder, initiator) trace of a batched
        // run, replayed sequentially, reproduces the batched configuration
        // bit for bit.
        let mut batched = UrnSim::new(Slow, n, seed).with_block(n >> shift);
        let mut trace = Vec::new();
        batched.steps_batched_traced(k, &mut trace);
        prop_assert_eq!(trace.len() as u64, k);
        let mut replayed = UrnSim::new(Slow, n, !seed);
        for &(r, i) in &trace {
            replayed.replay_interaction(r, i);
        }
        prop_assert_eq!(replayed.nonzero_counts(), batched.nonzero_counts());
        prop_assert_eq!(replayed.output_counts(), batched.output_counts());
        prop_assert_eq!(replayed.interactions(), batched.interactions());
    }

    #[test]
    fn hypergeometric_is_continuous_across_the_crossover(
        seed in any::<u64>(),
        side in 0u64..2,
    ) {
        // Regression pin for the inverse-CDF/HRUA crossover: the sampler
        // stays in-support and on-mean with draws·K/N within half a unit
        // of the mean cutoff on either side.
        let total = 100_000u64;
        let marked = total / 2;
        let mean_target = if side == 0 {
            BINV_MEAN_CUTOFF - 0.5
        } else {
            BINV_MEAN_CUTOFF + 0.5
        };
        let draws = (mean_target * total as f64 / marked as f64).round() as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let reps = 400u64;
        let xs: Vec<f64> = (0..reps).map(|_| {
            let x = hypergeometric(&mut rng, total, marked, draws);
            assert!(x <= draws && x <= marked);
            x as f64
        }).collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let expect = draws as f64 * marked as f64 / total as f64;
        let frac = draws as f64 / total as f64;
        let se = (expect * 0.5 * (1.0 - frac) / reps as f64).sqrt();
        prop_assert!(
            (mean - expect).abs() < 6.0 * se + 0.5,
            "Hyp({total}, {marked}, {draws}) at crossover: mean {mean} vs {expect}"
        );
    }

    #[test]
    fn hypergeometric_large_draw_ks_gate(
        seed in any::<u64>(),
        total in 20_000u64..120_000,
        marked_frac in 0.15f64..0.5,
        draws_frac in 0.15f64..0.5,
    ) {
        // KS gate for the large-draw regime, randomized over parameters
        // strictly above the old normal-approximation cutoff
        // (mean ≥ 20 000·0.15·0.15 = 450 ≫ BINV_MEAN_CUTOFF, and
        // min(marked, draws) ≥ 3 000 ≫ BINV_EXACT_N): every draw goes
        // through the HRUA rejection sampler, which must match the *exact*
        // CDF — the old normal-approximation branch fails this gate.
        let marked = (total as f64 * marked_frac) as u64;
        let draws = (total as f64 * draws_frac) as u64;
        let mean = draws as f64 * marked as f64 / total as f64;
        prop_assert!(mean > BINV_MEAN_CUTOFF && marked.min(draws) > BINV_EXACT_N);
        let p = marked as f64 / total as f64;
        let sd = (mean * (1.0 - p) * (total - draws) as f64 / (total - 1) as f64).sqrt();
        // Exact pmf over a ±12σ window (outside mass < 1e-30), built from
        // the ratio recurrence P(x+1)/P(x) = (K−x)(n−x)/((x+1)(N−K−n+x+1))
        // and normalized over the window — no log-gamma needed, and the
        // relative spread across 12σ (~e^72) sits comfortably inside f64.
        let support_lo = (draws + marked).saturating_sub(total);
        let lo = ((mean - 12.0 * sd).floor().max(0.0) as u64).max(support_lo);
        let hi = (((mean + 12.0 * sd).ceil()) as u64).min(marked.min(draws));
        let mut pmf = vec![0.0f64; (hi - lo + 1) as usize];
        pmf[0] = 1.0;
        for i in 1..pmf.len() {
            let x = lo + i as u64 - 1;
            pmf[i] = pmf[i - 1] * ((marked - x) as f64 * (draws - x) as f64)
                / ((x + 1) as f64 * (total - marked - draws + x + 1) as f64);
        }
        let z: f64 = pmf.iter().sum();
        let mut rng = SmallRng::seed_from_u64(seed);
        let reps = 4_000usize;
        let mut counts = vec![0u64; pmf.len()];
        for _ in 0..reps {
            let x = hypergeometric(&mut rng, total, marked, draws);
            prop_assert!((lo..=hi).contains(&x), "H draw {x} outside ±12σ window");
            counts[(x - lo) as usize] += 1;
        }
        let (mut acc_obs, mut acc_exact, mut d) = (0u64, 0.0f64, 0.0f64);
        for (c, w) in counts.iter().zip(&pmf) {
            acc_obs += c;
            acc_exact += w / z;
            d = d.max((acc_obs as f64 / reps as f64 - acc_exact).abs());
        }
        // 2.6/√reps: per-case α ≈ 3e-6, so a PROPTEST_CASES=256 stress run
        // stays false-positive-free while a normal-approximation sampler
        // (CDF error O(1/σ) ≈ 2%) fails essentially every case.
        prop_assert!(d < 2.6 / (reps as f64).sqrt(), "KS statistic {d} at H({total}, {marked}, {draws})");
    }

    #[test]
    fn sparse_draw_matches_dense_totals(
        seed in any::<u64>(),
        pool_template in prop::collection::vec(0u64..2_000, 1..30),
        draw_frac in 0.0f64..1.0,
    ) {
        // The occupancy-bucketed sparse variant must honour the same
        // invariants as the dense sampler: draws sum to the batch, no slot
        // over-drawn, pool shrinks in lock-step, and zero-count slots never
        // appear in the output.
        let total: u64 = pool_template.iter().sum();
        let draws = (total as f64 * draw_frac) as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool = pool_template.clone();
        let mut pool_total = total;
        let mut out = Vec::new();
        draw_without_replacement_sparse(&mut rng, draws, &mut pool, &mut pool_total, &mut out);
        prop_assert_eq!(out.iter().map(|&(_, c)| c).sum::<u64>(), draws);
        prop_assert_eq!(pool_total, total - draws);
        for &(j, c) in &out {
            let j = j as usize;
            prop_assert!(c > 0, "zero-count entry for slot {j}");
            prop_assert!(c <= pool_template[j], "slot {j} drew {c} of {}", pool_template[j]);
            prop_assert_eq!(pool[j], pool_template[j] - c);
        }
    }
}
