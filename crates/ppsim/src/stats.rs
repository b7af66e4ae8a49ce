//! Small statistics toolkit for experiment post-processing: summary
//! statistics, confidence intervals, quantiles and least-squares fits used to
//! verify the paper's scaling laws.

/// Arithmetic mean. Returns `NaN` on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation. Returns 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Mean together with the half-width of a normal-approximation 95% CI.
pub fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    let m = mean(xs);
    if xs.len() < 2 {
        return (m, f64::INFINITY);
    }
    (m, 1.96 * std_dev(xs) / (xs.len() as f64).sqrt())
}

/// Quantile with linear interpolation; `q` in `[0, 1]`.
/// Returns `NaN` on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    sorted_quantile(&sorted(xs), q)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    sorted
}

/// [`quantile`] of an ascending sample.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Summary statistics of a sample: the per-metric aggregates of every
/// experiment artifact, and the benches' tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample.
    ///
    /// Mean and variance follow Welford's recurrence in sample order, so
    /// the same values in the same order give the same bits (artifact
    /// aggregates are byte-compared); within rounding they equal [`mean`],
    /// [`std_dev`] and [`mean_ci95`], including their values below two
    /// samples. The order statistics are exact: one sort, interpolated as
    /// [`quantile`] does. An empty sample has NaN mean and order
    /// statistics.
    pub fn of(xs: &[f64]) -> Self {
        let (mut mean, mut m2) = (0.0, 0.0);
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let n = xs.len();
        let (std, ci95) = if n < 2 {
            (0.0, f64::INFINITY)
        } else {
            let std = (m2 / (n - 1) as f64).sqrt();
            (std, 1.96 * std / (n as f64).sqrt())
        };
        let ascending = sorted(xs);
        let at = |q| sorted_quantile(&ascending, q);
        Self {
            n,
            mean: if n == 0 { f64::NAN } else { mean },
            std,
            ci95,
            min: at(0.0),
            q25: at(0.25),
            median: at(0.5),
            q75: at(0.75),
            max: at(1.0),
        }
    }
}

/// Ordinary least squares fit `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept, r²)`. Used to verify scaling laws, e.g. that
/// convergence time against `log n · log log n` is linear with high `r²`.
///
/// # Panics
/// Panics if the slices differ in length or have fewer than two points.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "mismatched fit inputs");
    assert!(xs.len() >= 2, "need at least two points to fit");
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    // r² via explained variance; degenerate syy (constant y) gives r² = 1
    // when the fit is exact.
    let r2 = if syy == 0.0 {
        1.0
    } else {
        let mut ss_res = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let e = y - (slope * x + intercept);
            ss_res += e * e;
        }
        1.0 - ss_res / syy
    };
    (slope, intercept, r2)
}

/// Two-sample Kolmogorov–Smirnov statistic: the largest vertical distance
/// between the empirical CDFs of `a` and `b`.
///
/// Used by the engine-equivalence suite to gate the batched sampler against
/// the sequential reference: under the null (same distribution) the
/// statistic stays below [`ks_critical`] with probability `1 − α`.
///
/// # Panics
/// Panics if either sample is empty or contains NaN.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample in KS test");
    let sort = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
        v
    };
    let (a, b) = (sort(a), sort(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() || j < b.len() {
        // Next jump point of either empirical CDF. Drain the *whole* tie
        // block from both samples before measuring: evaluating mid-jump
        // would inflate D for values present in both samples (exactly the
        // shape batch-quantised stopping times produce).
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!(),
        };
        while i < a.len() && a[i] == v {
            i += 1;
        }
        while j < b.len() && b[j] == v {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Critical value of the two-sample KS statistic at significance `alpha`
/// (asymptotic formula `c(α)·√((n₁+n₂)/(n₁·n₂))`,
/// `c(α) = √(−ln(α/2)/2)`). Reject equality when
/// [`ks_statistic`]` > ks_critical`.
pub fn ks_critical(n1: usize, n2: usize, alpha: f64) -> f64 {
    assert!(n1 > 0 && n2 > 0, "empty sample in KS critical value");
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((n1 + n2) as f64) / ((n1 * n2) as f64)).sqrt()
}

/// Pearson chi-square homogeneity statistic for two observed count vectors
/// over the same categories. Returns `(statistic, degrees_of_freedom)`;
/// dof is `non-empty categories − 1`. Categories empty in both samples are
/// skipped.
///
/// Under the null (both samples drawn from one categorical distribution)
/// the statistic is asymptotically χ²(dof); the equivalence tests compare
/// it against a generous quantile so deterministic seeds stay green.
///
/// # Panics
/// Panics if the vectors differ in length or either sums to zero.
pub fn chi_square_stat(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len(), "mismatched category counts");
    let ta: u64 = a.iter().sum();
    let tb: u64 = b.iter().sum();
    assert!(ta > 0 && tb > 0, "empty sample in chi-square test");
    let (ta, tb) = (ta as f64, tb as f64);
    let mut stat = 0.0;
    let mut dof = 0usize;
    for (&oa, &ob) in a.iter().zip(b) {
        let pooled = oa + ob;
        if pooled == 0 {
            continue;
        }
        dof += 1;
        let ea = ta * pooled as f64 / (ta + tb);
        let eb = tb * pooled as f64 / (ta + tb);
        stat += (oa as f64 - ea).powi(2) / ea + (ob as f64 - eb).powi(2) / eb;
    }
    (stat, dof.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic example is sqrt(32/7).
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert!(mean(&[]).is_nan());
        assert_eq!(std_dev(&[]), 0.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn single_sample() {
        assert_eq!(mean(&[3.0]), 3.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        let (m, ci) = mean_ci95(&[3.0]);
        assert_eq!(m, 3.0);
        assert!(ci.is_infinite());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&a), median(&b));
        assert_eq!(quantile(&a, 0.75), quantile(&b, 0.75));
    }

    #[test]
    fn summary_is_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_matches_batch_reference() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, xs.len());
        assert!((s.mean - mean(&xs)).abs() < 1e-9);
        assert!((s.std - std_dev(&xs)).abs() < 1e-9);
        let (_, ci) = mean_ci95(&xs);
        assert!((s.ci95 - ci).abs() < 1e-9);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 50.0);
        for (got, q) in [(s.q25, 0.25), (s.median, 0.5), (s.q75, 0.75)] {
            assert_eq!(got, quantile(&xs, q));
        }
    }

    #[test]
    fn summary_degenerate_counts() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert!(s.mean.is_nan() && s.min.is_nan() && s.max.is_nan());
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
        assert!(s.ci95.is_infinite());
        assert_eq!((s.min, s.median, s.max), (3.0, 3.0, 3.0));
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let (a, b, r2) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b + 7.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_r2_decreases_with_noise() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic "noise" that is uncorrelated with x.
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                2.0 * x
                    + if (x as u64).is_multiple_of(2) {
                        25.0
                    } else {
                        -25.0
                    }
            })
            .collect();
        let (a, _, r2) = linear_fit(&xs, &ys);
        assert!((a - 2.0).abs() < 0.05);
        assert!(r2 < 1.0 && r2 > 0.8);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn fit_rejects_mismatched_lengths() {
        linear_fit(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&xs, &xs), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
        assert!((ks_statistic(&b, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_known_small_case() {
        // a = {1,3}, b = {2,4}: CDFs differ by 1/2 everywhere between jumps.
        let a = [1.0, 3.0];
        let b = [2.0, 4.0];
        assert!((ks_statistic(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_handles_ties_across_samples() {
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 2.0, 2.0, 2.0];
        let d = ks_statistic(&a, &b);
        // At x = 1: |1/4 - 0| = 0.25; at 2: |3/4 - 1| = 0.25;
        // at 3: |1 - 1| = 0. Max = 0.25.
        assert!((d - 0.25).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn ks_tied_identical_samples_are_zero_distance() {
        // Both CDFs jump at the same points by the same total mass: D must
        // be exactly 0, no matter how the mass splits into repeats. (A
        // mid-jump evaluation bug would report 0.75 for the first case.)
        assert_eq!(ks_statistic(&[1.0, 1.0, 1.0, 1.0], &[1.0]), 0.0);
        assert_eq!(
            ks_statistic(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[1.0, 2.0]),
            0.0
        );
    }

    #[test]
    fn ks_exhausted_sample_tail_still_measured() {
        // All of `a` sits below all of `b`'s tail: the max gap occurs
        // after `a` is exhausted.
        let a = [1.0, 2.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let d = ks_statistic(&a, &b);
        // At x = 2: |1 - 2/8| = 0.75.
        assert!((d - 0.75).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn ks_critical_shrinks_with_sample_size() {
        let c_small = ks_critical(10, 10, 0.01);
        let c_big = ks_critical(1000, 1000, 0.01);
        assert!(c_big < c_small);
        // Stricter alpha needs a larger distance to reject.
        assert!(ks_critical(10, 10, 0.001) > ks_critical(10, 10, 0.05));
    }

    #[test]
    fn ks_same_distribution_stays_under_critical() {
        // Two deterministic streams from the same uniform distribution.
        let mut s1 = 7u64;
        let mut s2 = 99u64;
        let draw = |s: &mut u64| {
            (0..200)
                .map(|_| (crate::rng::splitmix64(s) >> 11) as f64 / (1u64 << 53) as f64)
                .collect::<Vec<_>>()
        };
        let a = draw(&mut s1);
        let b = draw(&mut s2);
        assert!(ks_statistic(&a, &b) < ks_critical(200, 200, 0.001));
    }

    #[test]
    fn chi_square_identical_counts_is_zero() {
        let a = [10u64, 20, 30];
        let (stat, dof) = chi_square_stat(&a, &a);
        assert!(stat.abs() < 1e-12);
        assert_eq!(dof, 2);
    }

    #[test]
    fn chi_square_skips_jointly_empty_categories() {
        let a = [10u64, 0, 30, 0];
        let b = [12u64, 0, 28, 0];
        let (_, dof) = chi_square_stat(&a, &b);
        assert_eq!(dof, 1);
    }

    #[test]
    fn chi_square_detects_gross_difference() {
        let a = [100u64, 0];
        let b = [0u64, 100];
        let (stat, dof) = chi_square_stat(&a, &b);
        assert_eq!(dof, 1);
        assert!(stat > 100.0, "stat = {stat}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn ks_rejects_empty() {
        ks_statistic(&[], &[1.0]);
    }
}
