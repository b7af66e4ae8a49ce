//! Batched interaction sampling — the exact collision-resampling urn trick.
//!
//! The sequential urn path ([`crate::Simulator::step`] on [`crate::UrnSim`])
//! pays two scans of the occupied states per interaction, plus one move
//! for each participant whose state changes. Between observation points, whole
//! batches of interactions can instead be sampled at once. A batch of `b`
//! interactions is decomposed into **collision-free runs** separated by
//! **collisions**:
//!
//! * A collision-free run is a maximal prefix of interactions in which every
//!   participant is *fresh* (has not interacted earlier in the batch). Its
//!   length has the exact survival distribution
//!   `P(run ≥ j) = ∏_{i<j} (u−2i)(u−2i−1) / (n(n−1))` for `u` fresh agents
//!   ([`collision_free_run`] inverts that CDF with one uniform draw).
//!   Conditional on the length, the run's `2L` participants are an
//!   exchangeable without-replacement sample from the fresh pool, so the
//!   multiset of (responder, initiator) state pairs is obtained by drawing
//!   the two role halves without replacement and pairing them uniformly —
//!   a chain of conditional hypergeometrics over the occupied states.
//! * A collision is one interaction in which at least one participant has
//!   interacted before; its case (which side is the repeat) and the repeat
//!   agent itself are sampled from the **post-update** states of the touched
//!   agents, so transition outputs feed back into the sampling exactly as
//!   they do sequentially.
//!
//! The decomposition makes a batch of any size with `2·batch ≤ n` *exactly*
//! distributed as `b` sequential steps — there is no within-batch
//! approximation left, and the equivalence suite
//! (`tests/engine_equivalence.rs`) gates the batched path against the
//! sequential engine **bit for bit** under a shared interaction-trace
//! decoding (the KS/chi-square comparisons remain only as a sanity layer).
//! A batched [`crate::UrnSim`] ([`crate::UrnSim::with_block`]) still runs a
//! block of fewer than 4 interactions one step at a time, and the default
//! rule ([`crate::batched_block`]) keeps populations below 4096 per step,
//! where per-batch bookkeeping would dominate.

use rand::Rng;

/// Above this expected value [`hypergeometric`] switches from the exact
/// inverse-CDF walk (cost O(mean)) to the exact HRUA rejection sampler
/// (`hypergeometric_hrua` — *not* an approximation; the acceptance test
/// evaluates the exact pmf), whose cost is O(1). Public so the boundary can
/// be pinned by regression tests: the exact batched engine consumes one
/// conditional draw per occupied bucket per run, straddling this crossover
/// constantly.
pub const BINV_MEAN_CUTOFF: f64 = 48.0;

/// Below this sample size [`hypergeometric`] always uses the exact
/// inverse-CDF walk regardless of the mean: small draws are cheap to do
/// exactly. Public for the same boundary-pinning reason as
/// [`BINV_MEAN_CUTOFF`].
pub const BINV_EXACT_N: u64 = 128;

/// `ln Γ(x)` for `x > 0`. Needed to seed the exact hypergeometric walk at
/// `ln P(0) = ln C(N−K, n) − ln C(N, n)` without an O(n) product, and by
/// [`hypergeometric_hrua`]'s exact-pmf acceptance test (several evaluations
/// per candidate — this function is on the batched engine's hot path).
///
/// Two regimes:
///
/// * `x ≥ 16`: Stirling's series truncated after the `1/x⁷` term. The
///   truncation error is below `1/(1188·16⁹)` ≈ 1.2e-14 absolute — under
///   one ulp of `ln Γ(16)` ≈ 27.9 and shrinking as `x` grows, so this is
///   full f64 accuracy over the regime. One `ln` and a Horner chain, ~3×
///   cheaper than the Lanczos sum (whose 8 divisions serialize).
/// * `x < 16`: Lanczos (g = 7, 9 terms; |error| < 1e-13).
fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    const HALF_LN_TAU: f64 = 0.918_938_533_204_672_7;
    if x >= 16.0 {
        let inv = 1.0 / x;
        let inv2 = inv * inv;
        let series = inv
            * (1.0 / 12.0 + inv2 * (-1.0 / 360.0 + inv2 * (1.0 / 1260.0 + inv2 * (-1.0 / 1680.0))));
        return (x - 0.5) * x.ln() - x + HALF_LN_TAU + series;
    }
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut a = G[0];
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(n, k)` for `0 ≤ k ≤ n`. Production seeding goes through the
/// cancelled 4-evaluation closed form in [`hypergeometric_p0`]; this remains
/// as the readable reference the statistical gates compute exact pmfs with.
#[cfg(test)]
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Sample from the hypergeometric distribution: the number of marked balls
/// among `draws` drawn without replacement from an urn of `total` balls of
/// which `marked` are marked.
///
/// This is the marginal the without-replacement batch sampler needs. A
/// plain binomial is *not* good enough here: when `draws` is comparable to
/// `total` (the tail rows of the pairing step) the binomial overestimates
/// the variance by the missing finite-population factor
/// `(total−draws)/(total−1)`, and the engines' nonlinear dynamics convert
/// that extra variance into a systematic drift — the engine-equivalence
/// suite catches exactly this.
///
/// Strategy: symmetry reductions so the walk runs on the small tail, then an
/// exact inverse-CDF walk over the PMF (seeded via `hypergeometric_p0`,
/// advanced by the ratio recurrence) when the mean is small, and the exact
/// HRUA rejection sampler otherwise. There is **no normal-approximation
/// branch**: every parameter regime is sampled from the
/// exact distribution (up to f64 rounding), because this function sits on the
/// exact batched engine's path and the bit-level equivalence gates assume
/// distribution-exactness at every draw.
pub fn hypergeometric<R: Rng>(rng: &mut R, total: u64, marked: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total && draws <= total);
    // Degenerate urns.
    if draws == 0 || marked == 0 {
        return 0;
    }
    if marked == total {
        return draws;
    }
    if draws == total {
        return marked;
    }
    // Symmetry reductions: x ~ H(N, K, n) satisfies
    //   x ≡ n − H(N, N−K, n)   (complement the marking)
    //   x ≡ K − H(N, K, N−n)   (complement the sample)
    // Reduce so both the marked count and the draw count are ≤ N/2, which
    // pins the lower support bound at 0 and keeps the walk short. The
    // half-checks divide instead of doubling (`marked * 2` silently wraps
    // for populations above 2^63).
    if marked > total / 2 {
        return draws - hypergeometric(rng, total, total - marked, draws);
    }
    if draws > total / 2 {
        return marked - hypergeometric(rng, total, marked, total - draws);
    }
    // The marked count and the sample size are exchangeable
    // (H(N, K, n) ≡ H(N, n, K): both count the overlap of two uniform
    // subsets of sizes K and n), so run the walk with the smaller of the
    // two as the sample — the hot path of the batched engine has tiny
    // per-state multiplicities, making P(0) an O(multiplicity) product.
    let (nn, kk, n) = (total, marked.max(draws), marked.min(draws));
    let mean = n as f64 * kk as f64 / nn as f64;
    if mean < BINV_MEAN_CUTOFF || n <= BINV_EXACT_N {
        hypergeometric_inverse_cdf(rng, nn, kk, n)
    } else {
        hypergeometric_hrua(rng, nn, kk, n)
    }
}

/// Exact inverse-CDF walk from `x = 0` (valid after the symmetry
/// reductions of [`hypergeometric`], which pin the support's lower end at
/// 0). Expected cost O(1 + mean).
fn hypergeometric_inverse_cdf<R: Rng>(rng: &mut R, total: u64, marked: u64, draws: u64) -> u64 {
    let mut f = hypergeometric_p0(total, marked, draws);
    let mut u: f64 = rng.gen();
    let mut x = 0u64;
    let hi = marked.min(draws);
    loop {
        if u <= f {
            return x;
        }
        u -= f;
        if x >= hi {
            // Floating-point residue past the top of the support.
            return hi;
        }
        // P(x+1)/P(x) = (K−x)(n−x) / ((x+1)(N−K−n+x+1)).
        f *= ((marked - x) as f64 * (draws - x) as f64)
            / ((x + 1) as f64 * (total - marked - draws + x + 1) as f64);
        x += 1;
    }
}

/// `P(0) = C(N−K, n) / C(N, n)` — the seed of the inverse-CDF walk. The
/// batched engine's composition chains pay this once per occupied slot per
/// run (~40% of the small-n budget before this was tuned), so both regimes
/// are deliberately cheap:
///
/// * sample ≤ 64: the O(n) product of depletion ratios
///   `∏ (N−K−i)/(N−i)`, chunked 8 factors per division. Each factor is
///   below 2^64 ≈ 1.8e19, so an 8-factor running product stays under
///   1.2e155 — far from f64 overflow — while cutting n divisions (the
///   expensive op) to ⌈n/8⌉ and letting the independent chunk products
///   pipeline.
/// * sample > 64: a closed form in **4** Lanczos evaluations instead of
///   the 6 of `ln_choose(N−K, n) − ln_choose(N, n)` — the shared
///   `ln Γ(n+1)` term cancels:
///   `ln Γ(N−K+1) − ln Γ(N−K−n+1) − ln Γ(N+1) + ln Γ(N−n+1)`.
fn hypergeometric_p0(total: u64, marked: u64, draws: u64) -> f64 {
    if draws <= 64 {
        let mut f = 1.0f64;
        let mut i = 0u64;
        while i < draws {
            let hi = (i + 8).min(draws);
            let (mut num, mut den) = (1.0f64, 1.0f64);
            for j in i..hi {
                num *= (total - marked - j) as f64;
                den *= (total - j) as f64;
            }
            f *= num / den;
            i = hi;
        }
        f
    } else {
        let (nn, nk, n) = (total as f64, (total - marked) as f64, draws as f64);
        (ln_gamma(nk + 1.0) - ln_gamma(nk - n + 1.0) - ln_gamma(nn + 1.0) + ln_gamma(nn - n + 1.0))
            .exp()
    }
}

/// Exact large-parameter hypergeometric sampler: Stadlober's HRUA*
/// (ratio-of-uniforms with squeeze), the same algorithm numpy uses above its
/// inverse-CDF cutoff. **This is not an approximation**: candidates are
/// proposed from a dominating curve, but acceptance evaluates the *exact*
/// log-pmf through [`ln_gamma`], so accepted values are distributed exactly
/// hypergeometrically up to f64 rounding — the same convention as the
/// inverse-CDF walks. Expected cost is O(1): a handful of uniform pairs and
/// four Lanczos evaluations per attempt, with the quadratic squeeze
/// accepting most candidates without the logarithm.
///
/// Preconditions (established by [`hypergeometric`]'s symmetry reductions):
/// `marked ≤ total/2` and `draws ≤ total/2`, so `marked` is the smaller
/// color class and `draws` the smaller sample — the regime where the
/// ratio-of-uniforms hat is tightest and no un-flipping of the result is
/// needed.
fn hypergeometric_hrua<R: Rng>(rng: &mut R, total: u64, marked: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total / 2 && draws <= total / 2);
    // 2·sqrt(2/e) and 3 − 2·sqrt(3/e): the ratio-of-uniforms hat constants.
    const D1: f64 = 1.715_527_769_921_413_5;
    const D2: f64 = 0.898_916_162_058_898_8;
    let nn = total as f64;
    let kk = marked as f64;
    let n = draws as f64;
    let d4 = kk / nn;
    let d5 = 1.0 - d4;
    let d6 = n * d4 + 0.5;
    let d7 = ((nn - n) * n * d4 * d5 / (nn - 1.0) + 0.5).sqrt();
    let d8 = D1 * d7 + D2;
    // Mode of the pmf.
    let d9 = ((n + 1.0) * (kk + 1.0) / (nn + 2.0)).floor();
    let d10 = ln_gamma(d9 + 1.0)
        + ln_gamma(kk - d9 + 1.0)
        + ln_gamma(n - d9 + 1.0)
        + ln_gamma(nn - kk - n + d9 + 1.0);
    // Upper cut: one past the support top, or mean + 16σ, whichever is
    // tighter. The 16σ cut discards mass below ~1e-56 — beneath f64
    // rounding, hence within the exactness convention.
    let hi = marked.min(draws);
    let d11 = ((hi + 1) as f64).min((d6 + 16.0 * d7).floor());
    loop {
        // X ∈ (0, 1]: it divides and feeds a logarithm below.
        let x: f64 = 1.0 - rng.gen::<f64>();
        let y: f64 = rng.gen();
        let w = d6 + d8 * (y - 0.5) / x;
        if w < 0.0 || w >= d11 {
            continue;
        }
        let z = w.floor();
        let t = d10
            - (ln_gamma(z + 1.0)
                + ln_gamma(kk - z + 1.0)
                + ln_gamma(n - z + 1.0)
                + ln_gamma(nn - kk - n + z + 1.0));
        // Quadratic squeeze: accept without the log.
        if x * (4.0 - x) - 3.0 <= t {
            return z as u64;
        }
        // Quadratic reject squeeze: discard without the log.
        if x * (x - t) >= 1.0 {
            continue;
        }
        // Full exact-pmf acceptance.
        if 2.0 * x.ln() <= t {
            return z as u64;
        }
    }
}

/// Number of survival-walk steps [`collision_free_run`] takes before
/// switching to a log-gamma binary search for the tail. Short runs (the
/// common case at large batch fractions) stay on the cheap multiply-compare
/// walk; long runs (small touched sets, huge populations) invert the CDF in
/// O(log run) Lanczos evaluations instead of O(run) multiplies.
const RUN_WALK_LIMIT: u64 = 64;

/// Sample the length of a maximal **collision-free run**: the number of
/// consecutive interactions, starting from a configuration with `untouched`
/// agents that have not yet interacted within the current batch, before an
/// interaction first involves a previously-touched agent.
///
/// Each interaction picks an ordered pair of distinct agents uniformly among
/// `n(n−1)`, so the run length `L` has the exact survival function
///
/// ```text
/// P(L ≥ j) = ∏_{i=0}^{j−1} (u−2i)(u−2i−1) / (n(n−1))
/// ```
///
/// with `u = untouched`. This function inverts that CDF with a single
/// uniform draw (exact up to f64 rounding — the same convention as the
/// inverse-CDF walk of [`hypergeometric`]): a
/// multiply-compare walk for the first `RUN_WALK_LIMIT` steps, then a
/// binary search on the closed form `ln P(L ≥ j) = ln Γ(u+1) − ln Γ(u−2j+1)
/// − j·ln(n(n−1))` so astronomically long runs (small batches in huge
/// populations) cost O(log run) instead of O(run).
///
/// The returned length is capped at `max_len` (the remaining batch budget);
/// a return value `< max_len` means the *next* interaction is a collision —
/// certain once fewer than two untouched agents remain. Exactly one uniform
/// is consumed regardless of the outcome.
pub fn collision_free_run<R: Rng>(
    rng: &mut R,
    population: u64,
    untouched: u64,
    max_len: u64,
) -> u64 {
    debug_assert!(population >= 2 && untouched <= population);
    let denom = population as f64 * (population - 1) as f64;
    // U ∈ (0, 1]: `gen` covers [0, 1); a literal 0 would never fall below
    // the shrinking survival probability and loop past its underflow.
    let u_draw = 1.0 - rng.gen::<f64>();
    let mut q = 1.0f64;
    let mut len = 0u64;
    let mut fresh = untouched;
    let walk_cap = max_len.min(RUN_WALK_LIMIT);
    while len < walk_cap {
        if fresh < 2 {
            return len; // a collision is certain
        }
        q *= fresh as f64 * (fresh - 1) as f64 / denom;
        if q < u_draw {
            return len; // interaction len+1 involves a touched agent
        }
        len += 1;
        fresh -= 2;
    }
    if len == max_len || fresh < 2 {
        return len;
    }
    // Still surviving after the walk: binary-search the largest j ≤ cap with
    // P(L ≥ j) ≥ U, using the closed form relative to the walked prefix:
    // P(L ≥ len + d) = q · exp(ln Γ(fresh+1) − ln Γ(fresh−2d+1) − d·ln_denom).
    let ln_threshold = (u_draw / q).ln();
    let ln_denom = denom.ln();
    let ln_top = ln_gamma(fresh as f64 + 1.0);
    let cap = (max_len - len).min(fresh / 2);
    let survives = |d: u64| -> bool {
        ln_top - ln_gamma((fresh - 2 * d) as f64 + 1.0) - d as f64 * ln_denom >= ln_threshold
    };
    // Invariant: survives(lo) holds (d = 0 survives by construction).
    let (mut lo, mut hi) = (0u64, cap);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if survives(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    len + lo
}

/// Draw `draws` balls **without replacement** from the pool described by
/// `pool` (per-slot ball counts summing to `*pool_total`), writing the
/// per-slot draw counts to `out` and removing the drawn balls from the pool.
///
/// Uses the conditional chain of the multivariate hypergeometric: slot by
/// slot, the number drawn from slot `j` is
/// `Hypergeometric(total_left, pool[j], draws_left)` — see
/// [`hypergeometric`] for why the finite-population variance matters —
/// clamped (belt and braces, against f64 rounding at the support edges)
/// into the support
/// `max(0, draws_left + pool[j] − total_left) ..= min(pool[j], draws_left)`.
/// The clamp guarantees two invariants the batched engine relies on (and the
/// property suite checks): the draw counts always sum to exactly `draws`,
/// and no slot ever yields more balls than it holds.
///
/// `out` is cleared and refilled to `pool.len()` entries. Scanning stops as
/// soon as all draws are assigned; remaining slots are zero-filled.
///
/// # Panics
/// Panics (debug) if `draws > *pool_total` or `*pool_total` disagrees with
/// the sum of `pool`.
pub fn draw_without_replacement<R: Rng>(
    rng: &mut R,
    draws: u64,
    pool: &mut [u64],
    pool_total: &mut u64,
    out: &mut Vec<u64>,
) {
    debug_assert!(draws <= *pool_total, "cannot draw {draws} of {pool_total}");
    debug_assert_eq!(pool.iter().sum::<u64>(), *pool_total);
    out.clear();
    let mut draws_left = draws;
    let mut total_left = *pool_total;
    for slot in pool.iter_mut() {
        if draws_left == 0 {
            break;
        }
        let c = *slot;
        if c == 0 {
            out.push(0);
            continue;
        }
        let x = if total_left == c {
            // Only this slot's mass remains: all outstanding draws land here.
            draws_left
        } else {
            // Support lower bound max(0, draws + c − total), computed as a
            // subtraction from the invariant `total_left ≥ c` — the naive
            // `draws_left + c` wraps when both are near u64::MAX.
            let lo = draws_left.saturating_sub(total_left - c);
            let hi = c.min(draws_left);
            hypergeometric(rng, total_left, c, draws_left).clamp(lo, hi)
        };
        out.push(x);
        *slot -= x;
        draws_left -= x;
        total_left -= c;
    }
    out.resize(pool.len(), 0);
    *pool_total -= draws;
    debug_assert_eq!(draws_left, 0);
}

/// Sparse variant of [`draw_without_replacement`]: writes only the slots
/// that actually yielded balls, as `(slot index, draw count)` pairs.
///
/// This is the occupancy-bucketed workhorse of the exact batched engine: a
/// collision-free run draws its participants through this chain, so the cost
/// per run is one [`hypergeometric`] call per *non-empty pool slot visited*
/// (the chain stops as soon as all draws are assigned) rather than a dense
/// pass over the full census. Same distribution, same clamp-enforced
/// invariants (draws sum exactly, no slot over-drawn) as the dense form.
pub fn draw_without_replacement_sparse<R: Rng>(
    rng: &mut R,
    draws: u64,
    pool: &mut [u64],
    pool_total: &mut u64,
    out: &mut Vec<(u32, u64)>,
) {
    debug_assert!(draws <= *pool_total, "cannot draw {draws} of {pool_total}");
    debug_assert_eq!(pool.iter().sum::<u64>(), *pool_total);
    out.clear();
    let mut draws_left = draws;
    let mut total_left = *pool_total;
    for (j, slot) in pool.iter_mut().enumerate() {
        if draws_left == 0 {
            break;
        }
        let c = *slot;
        if c == 0 {
            continue;
        }
        let x = if total_left == c {
            draws_left
        } else {
            // Overflow-safe support bounds; see `draw_without_replacement`.
            let lo = draws_left.saturating_sub(total_left - c);
            let hi = c.min(draws_left);
            hypergeometric(rng, total_left, c, draws_left).clamp(lo, hi)
        };
        total_left -= c;
        if x > 0 {
            out.push((j as u32, x));
            *slot -= x;
            draws_left -= x;
        }
    }
    *pool_total -= draws;
    debug_assert_eq!(draws_left, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ln_choose_matches_direct_computation() {
        // C(10, 3) = 120, C(52, 5) = 2_598_960.
        assert!((ln_choose(10, 3) - 120f64.ln()).abs() < 1e-9);
        assert!((ln_choose(52, 5) - 2_598_960f64.ln()).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn hypergeometric_degenerate_parameters() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(hypergeometric(&mut rng, 100, 40, 0), 0);
        assert_eq!(hypergeometric(&mut rng, 100, 0, 30), 0);
        assert_eq!(hypergeometric(&mut rng, 100, 100, 30), 30);
        assert_eq!(hypergeometric(&mut rng, 100, 40, 100), 40);
    }

    #[test]
    fn hypergeometric_stays_in_support() {
        let mut rng = SmallRng::seed_from_u64(10);
        for &(nn, kk, n) in &[
            (10u64, 5u64, 5u64),
            (100, 90, 60), // both symmetry reductions fire
            (1 << 20, 1 << 10, 1 << 19),
            (1 << 20, 1 << 19, 1 << 18), // HRUA branch
        ] {
            let lo = (n + kk).saturating_sub(nn);
            let hi = kk.min(n);
            for _ in 0..300 {
                let x = hypergeometric(&mut rng, nn, kk, n);
                assert!(
                    (lo..=hi).contains(&x),
                    "H({nn}, {kk}, {n}) = {x} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn hypergeometric_mean_and_variance() {
        // The finite-population correction is the whole point of this
        // sampler: check both moments against the exact formulas in a
        // regime where draws ≈ total/2 (binomial variance would be ~2×
        // too large and fail the variance band).
        let mut rng = SmallRng::seed_from_u64(11);
        let (nn, kk, n) = (10_000u64, 3_000u64, 5_000u64);
        let p = kk as f64 / nn as f64;
        let expect_mean = n as f64 * p;
        let expect_var = n as f64 * p * (1.0 - p) * ((nn - n) as f64 / (nn - 1) as f64);
        let reps = 20_000;
        let xs: Vec<f64> = (0..reps)
            .map(|_| hypergeometric(&mut rng, nn, kk, n) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (reps - 1) as f64;
        let se = (expect_var / reps as f64).sqrt();
        assert!(
            (mean - expect_mean).abs() < 6.0 * se,
            "mean {mean} vs {expect_mean}"
        );
        let rel = (var - expect_var).abs() / expect_var;
        assert!(rel < 0.10, "var {var} vs {expect_var} (rel {rel:.3})");
    }

    #[test]
    fn hypergeometric_exact_branch_matches_pmf() {
        // Small case with a hand-computable PMF: N=6, K=3, n=2 →
        // P(0)=1/5, P(1)=3/5, P(2)=1/5.
        let mut rng = SmallRng::seed_from_u64(12);
        let mut counts = [0u64; 3];
        let reps = 60_000;
        for _ in 0..reps {
            counts[hypergeometric(&mut rng, 6, 3, 2) as usize] += 1;
        }
        for (x, &expect) in [0.2f64, 0.6, 0.2].iter().enumerate() {
            let obs = counts[x] as f64 / reps as f64;
            assert!((obs - expect).abs() < 0.01, "P({x}) = {obs} vs {expect}");
        }
    }

    #[test]
    fn ln_gamma_matches_factorials_across_regimes() {
        // ln Γ(k+1) = ln k! against exact u128 factorials, covering both
        // the Lanczos regime (x < 16) and the Stirling fast path (x ≥ 16)
        // plus the boundary itself. 33! still fits u128.
        let mut fact = 1u128;
        for k in 1..=33u64 {
            fact *= k as u128;
            let reference = (fact as f64).ln();
            let got = ln_gamma((k + 1) as f64);
            let err = (got - reference).abs() / reference.max(1.0);
            assert!(err < 1e-13, "k = {k}: {got} vs {reference}");
        }
        // The recurrence ln Γ(x+1) − ln Γ(x) = ln x deep in the Stirling
        // regime. The subtraction cancels ~x·ln x-magnitude terms, so a few
        // ulps of their rounding survive relative to the ~ln x result:
        // at x = 1e12, ulp(2.7e13)/ln(1e12) ≈ 1.4e-4 per ulp. Tolerances
        // scale accordingly — this checks the series is *wired* right
        // (wrong coefficient ⇒ errors of 1/(360x) ≫ these bounds).
        for &(x, tol) in &[(1e3f64, 1e-12), (1e6, 1e-9), (1e9, 1e-6), (1e12, 1e-3)] {
            let lhs = ln_gamma(x + 1.0) - ln_gamma(x);
            let rel = (lhs - x.ln()).abs() / x.ln();
            assert!(rel < tol, "x = {x}: {lhs} vs {}", x.ln());
        }
    }

    #[test]
    fn hypergeometric_p0_matches_ln_choose_reference() {
        // Both P(0) regimes (chunked product at draws ≤ 64, 4-evaluation
        // log-gamma closed form above) against the readable
        // ln_choose-difference reference, straddling the 64 boundary.
        for &(nn, kk, n) in &[
            (100u64, 30u64, 20u64),
            (10_000, 3_000, 64),
            (10_000, 3_000, 65),
            (1_000, 400, 100),
            (1 << 30, 1 << 20, 500),
            (1 << 30, 1 << 28, 1 << 10),
        ] {
            let reference = (ln_choose(nn - kk, n) - ln_choose(nn, n)).exp();
            let got = hypergeometric_p0(nn, kk, n);
            let rel = (got - reference).abs() / reference;
            // Tolerance is set by f64 cancellation, not the formulas: at
            // N = 2^30 the individual ln Γ terms are ~2e10, so each carries
            // ~2e-6 absolute rounding error that survives the subtraction.
            assert!(
                rel < 1e-5,
                "P0({nn}, {kk}, {n}) = {got:e} vs reference {reference:e} (rel {rel:e})"
            );
        }
    }

    #[test]
    fn hypergeometric_hrua_matches_exact_cdf_above_cutoff() {
        // KS gate at parameters strictly above the old normal-approximation
        // cutoff: mean = 3000 ≫ BINV_MEAN_CUTOFF and min(marked, draws) ≫
        // BINV_EXACT_N, so every draw goes through the HRUA rejection
        // sampler. The old code took the normal branch here; its continuity-
        // corrected CDF misses the exact one by O(1/σ) ≈ 2% near the mode,
        // an order of magnitude above this gate's threshold.
        let (nn, kk, n) = (100_000u64, 30_000u64, 10_000u64);
        let mean = n as f64 * kk as f64 / nn as f64;
        assert!(mean > BINV_MEAN_CUTOFF && kk.min(n) > BINV_EXACT_N);
        let sd = (mean * (1.0 - kk as f64 / nn as f64) * (nn - n) as f64 / (nn - 1) as f64).sqrt();
        // Exact CDF over a ±12σ window (mass outside < 1e-30).
        let lo = (mean - 12.0 * sd).floor() as u64;
        let hi = (mean + 12.0 * sd).ceil() as u64;
        let ln_denom = ln_choose(nn, n);
        let exact_cdf: Vec<f64> = (lo..=hi)
            .scan(0.0f64, |acc, x| {
                *acc += (ln_choose(kk, x) + ln_choose(nn - kk, n - x) - ln_denom).exp();
                Some(*acc)
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(2024);
        let reps = 40_000usize;
        let mut counts = vec![0u64; (hi - lo + 1) as usize];
        for _ in 0..reps {
            let x = hypergeometric(&mut rng, nn, kk, n);
            assert!((lo..=hi).contains(&x), "H draw {x} outside ±12σ window");
            counts[(x - lo) as usize] += 1;
        }
        let mut acc = 0u64;
        let mut d = 0.0f64;
        for (c, f) in counts.iter().zip(&exact_cdf) {
            acc += c;
            d = d.max((acc as f64 / reps as f64 - f).abs());
        }
        // 1.7/√reps ≈ 0.0085: α ≈ 0.3% for a true-distribution sampler, and
        // the seed is fixed so the test is deterministic.
        assert!(d < 1.7 / (reps as f64).sqrt(), "KS statistic {d}");
    }

    #[test]
    fn draw_without_replacement_exhausts_pool() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut pool = vec![5u64, 0, 3, 2];
        let mut total = 10;
        let mut out = Vec::new();
        draw_without_replacement(&mut rng, 10, &mut pool, &mut total, &mut out);
        assert_eq!(out, vec![5, 0, 3, 2]);
        assert_eq!(pool, vec![0, 0, 0, 0]);
        assert_eq!(total, 0);
    }

    #[test]
    fn draw_without_replacement_invariants() {
        let mut rng = SmallRng::seed_from_u64(7);
        for draws in [0u64, 1, 17, 50, 99] {
            let mut pool = vec![10u64, 0, 25, 1, 64];
            let snapshot = pool.clone();
            let mut total = 100;
            let mut out = Vec::new();
            draw_without_replacement(&mut rng, draws, &mut pool, &mut total, &mut out);
            assert_eq!(out.iter().sum::<u64>(), draws);
            assert_eq!(total, 100 - draws);
            for (j, (&x, &c)) in out.iter().zip(&snapshot).enumerate() {
                assert!(x <= c, "slot {j} drew {x} of {c}");
                assert_eq!(pool[j], c - x);
            }
        }
    }

    #[test]
    fn draw_without_replacement_is_proportional() {
        // Marginal of slot j over many draws must track c_j · draws / total.
        let mut rng = SmallRng::seed_from_u64(8);
        let weights = [1000u64, 3000, 6000];
        let (draws, reps) = (100u64, 3000);
        let mut sums = [0u64; 3];
        let mut out = Vec::new();
        for _ in 0..reps {
            let mut pool = weights.to_vec();
            let mut total = 10_000;
            draw_without_replacement(&mut rng, draws, &mut pool, &mut total, &mut out);
            for (s, &x) in sums.iter_mut().zip(&out) {
                *s += x;
            }
        }
        for (j, &s) in sums.iter().enumerate() {
            let expect = reps as f64 * draws as f64 * weights[j] as f64 / 10_000.0;
            let rel = (s as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "slot {j}: {s} vs {expect}");
        }
    }

    #[test]
    fn sparse_draw_matches_dense_invariants() {
        let mut rng = SmallRng::seed_from_u64(50);
        for draws in [0u64, 1, 17, 50, 99, 100] {
            let mut pool = vec![10u64, 0, 25, 1, 64];
            let snapshot = pool.clone();
            let mut total = 100;
            let mut out = Vec::new();
            draw_without_replacement_sparse(&mut rng, draws, &mut pool, &mut total, &mut out);
            assert_eq!(out.iter().map(|&(_, x)| x).sum::<u64>(), draws);
            assert_eq!(total, 100 - draws);
            for &(j, x) in &out {
                assert!(x > 0, "sparse output must omit zero draws");
                assert!(x <= snapshot[j as usize]);
                assert_eq!(pool[j as usize], snapshot[j as usize] - x);
            }
            // Entries are strictly increasing slot indices (chain order).
            for w in out.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn sparse_draw_skips_empty_slots_entirely() {
        // A pool that is almost all zeros: the sparse chain must never
        // report the empty slots, and draining the pool returns exactly
        // the non-empty ones.
        let mut rng = SmallRng::seed_from_u64(51);
        let mut pool = vec![0u64; 100];
        pool[13] = 4;
        pool[77] = 6;
        let mut total = 10;
        let mut out = Vec::new();
        draw_without_replacement_sparse(&mut rng, 10, &mut pool, &mut total, &mut out);
        assert_eq!(out, vec![(13, 4), (77, 6)]);
        assert_eq!(total, 0);
    }

    #[test]
    fn collision_free_run_full_pool_always_survives_one_step() {
        // At batch start every agent is untouched: P(L ≥ 1) = 1, so the
        // sampler must never report an immediate collision.
        let mut rng = SmallRng::seed_from_u64(52);
        for n in [4u64, 100, 1 << 20] {
            for _ in 0..200 {
                assert!(collision_free_run(&mut rng, n, n, 8) >= 1);
            }
        }
    }

    #[test]
    fn collision_free_run_certain_collision_below_two_fresh() {
        let mut rng = SmallRng::seed_from_u64(53);
        for fresh in [0u64, 1] {
            for _ in 0..50 {
                assert_eq!(collision_free_run(&mut rng, 100, fresh, 10), 0);
            }
        }
    }

    #[test]
    fn collision_free_run_respects_cap_and_fresh_budget() {
        let mut rng = SmallRng::seed_from_u64(54);
        for _ in 0..500 {
            let len = collision_free_run(&mut rng, 1 << 10, 1 << 10, 12);
            assert!(len <= 12);
            let len = collision_free_run(&mut rng, 1 << 10, 9, 1 << 20);
            assert!(len <= 4, "only ⌊9/2⌋ collision-free interactions fit");
        }
    }

    #[test]
    fn collision_free_run_mean_matches_survival_sum() {
        // E[min(L, cap)] = Σ_{j=1}^{cap} P(L ≥ j) in closed form; the
        // empirical mean over many draws must match. Exercises both the
        // walk and (with cap > RUN_WALK_LIMIT) the binary-search tail.
        let mut rng = SmallRng::seed_from_u64(55);
        for (n, u, cap) in [(1u64 << 10, 1u64 << 10, 40u64), (1 << 14, 1 << 14, 256)] {
            let denom = n as f64 * (n - 1) as f64;
            let mut expect = 0.0f64;
            let mut q = 1.0f64;
            for j in 0..cap {
                let fresh = u - 2 * j;
                q *= fresh as f64 * (fresh - 1) as f64 / denom;
                expect += q;
            }
            let reps = 40_000u64;
            let sum: u64 = (0..reps)
                .map(|_| collision_free_run(&mut rng, n, u, cap))
                .sum();
            let mean = sum as f64 / reps as f64;
            // Var(min(L, cap)) ≤ E[L²] is O(cap·mean); a generous 6σ band.
            let se = (expect * cap as f64 / reps as f64).sqrt();
            assert!(
                (mean - expect).abs() < 6.0 * se + 0.01,
                "n={n}: mean {mean} vs {expect} (se {se})"
            );
        }
    }

    #[test]
    fn collision_free_run_walk_and_search_agree_at_the_switch() {
        // The log-gamma tail must continue the walk's distribution
        // smoothly: with a huge population the run is astronomically
        // unlikely to end this early, so lengths must pin at the cap on
        // both sides of RUN_WALK_LIMIT.
        let mut rng = SmallRng::seed_from_u64(56);
        for cap in [63u64, 64, 65, 200] {
            for _ in 0..50 {
                let len = collision_free_run(&mut rng, 1 << 40, 1 << 40, cap);
                assert_eq!(len, cap, "run ended early at cap {cap}");
            }
        }
    }

    #[test]
    fn hypergeometric_huge_population_no_overflow() {
        // Populations above 2^63: the symmetry half-checks and the support
        // arithmetic must not wrap (debug builds panic on overflow — this
        // test is the regression gate for the old `marked * 2` forms).
        let mut rng = SmallRng::seed_from_u64(40);
        let total = (1u64 << 63) + 12_345;
        // marked > total/2: the marking-complement reduction fires.
        let marked = total - 3;
        for _ in 0..100 {
            let x = hypergeometric(&mut rng, total, marked, 10);
            // Support: lo = max(0, 10 + marked − total) = 7.
            assert!((7..=10).contains(&x), "H(huge) = {x}");
        }
        // draws > total/2: the sample-complement reduction fires.
        let draws = total - 5;
        for _ in 0..100 {
            let x = hypergeometric(&mut rng, total, 7, draws);
            // Support: lo = max(0, draws + 7 − total) = 2.
            assert!((2..=7).contains(&x), "H(huge draws) = {x}");
        }
    }

    #[test]
    fn draw_without_replacement_huge_pools_no_overflow() {
        // Near-total draws from pools summing to ~u64::MAX: the support
        // lower bound used to be computed as `draws + c`, which wraps.
        let mut rng = SmallRng::seed_from_u64(42);
        let (a, b) = (1u64 << 63, (1u64 << 63) - 2);
        let mut pool = vec![a, b];
        let mut total = a + b; // u64::MAX − 1
        let draws = total - 1;
        let mut out = Vec::new();
        draw_without_replacement(&mut rng, draws, &mut pool, &mut total, &mut out);
        assert_eq!(out.iter().sum::<u64>(), draws);
        assert_eq!(total, 1);
        assert_eq!(pool.iter().sum::<u64>(), 1);
    }

    #[test]
    fn hypergeometric_boundary_population_2_pow_30() {
        // The ISSUE's boundary population: exact mean at n = 2^30 where
        // every count still fits f64 exactly; pins that the widened
        // arithmetic did not disturb the distribution.
        let mut rng = SmallRng::seed_from_u64(43);
        let (nn, kk, n) = (1u64 << 30, 1u64 << 29, 1u64 << 10);
        let reps = 4_000;
        let sum: u64 = (0..reps).map(|_| hypergeometric(&mut rng, nn, kk, n)).sum();
        let mean = sum as f64 / reps as f64;
        let expect = n as f64 * 0.5;
        let se = (expect * 0.5 / reps as f64).sqrt();
        assert!((mean - expect).abs() < 6.0 * se, "mean {mean} vs {expect}");
    }
}
