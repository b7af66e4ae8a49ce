//! Survival analysis of a config's stopping times: [`survival_curve`],
//! with budget failures treated as right-censored. (Per-metric aggregates
//! are [`ppsim::stats::Summary`] values, exact over the whole sample; see
//! [`crate::artifact`].)

use ppsim::trace::Series;

/// Survival curve of stabilisation time: `S(t)` = fraction of all `total`
/// trials still running strictly after time `t`, sampled at each observed
/// stabilisation time.
///
/// `times` holds the stabilisation times of the *converged* trials (any
/// order); trials missing from it (budget failures) are right-censored, so
/// the curve floors at `(total - times.len()) / total` instead of reaching
/// zero.
///
/// # Panics
/// Panics if `total < times.len()` or `total == 0`.
pub fn survival_curve(times: &[f64], total: usize) -> Series {
    assert!(total >= times.len(), "more stabilised trials than trials");
    assert!(total > 0, "survival curve of zero trials");
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN stabilisation time"));
    let mut out = Series::new("survival");
    for (i, &t) in sorted.iter().enumerate() {
        // Collapse ties: only emit at the last index of a tie block.
        if i + 1 < sorted.len() && sorted[i + 1] == t {
            continue;
        }
        out.push(t, (total - i - 1) as f64 / total as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_curve_shape() {
        let s = survival_curve(&[3.0, 1.0, 2.0, 4.0], 4);
        assert_eq!(s.t, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.v, vec![0.75, 0.5, 0.25, 0.0]);
    }

    #[test]
    fn survival_curve_censors_failures() {
        // 4 trials, only 2 stabilised: the curve floors at 0.5.
        let s = survival_curve(&[1.0, 2.0], 4);
        assert_eq!(s.v, vec![0.75, 0.5]);
    }

    #[test]
    fn survival_curve_collapses_ties() {
        let s = survival_curve(&[1.0, 1.0, 2.0], 3);
        assert_eq!(s.t, vec![1.0, 2.0]);
        assert_eq!(s.v, vec![1.0 / 3.0, 0.0]);
    }
}
