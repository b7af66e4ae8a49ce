//! Time-series container used by the figure-generating benches.

/// A sampled time series: parallel time on the x-axis, an observable on the
/// y-axis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Name used when printing.
    pub name: String,
    /// Sample times (parallel time).
    pub t: Vec<f64>,
    /// Sampled values.
    pub v: Vec<f64>,
}

impl Series {
    /// Empty series with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            t: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, t: f64, v: f64) {
        self.t.push(t);
        self.v.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.t.last(), self.v.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Pointwise mean of several series sampled on a **shared time grid**
    /// (e.g. averaging a trajectory over trials).
    ///
    /// Ragged lengths are allowed — a series shorter than the longest is
    /// treated as absent past its end, so index `k` averages over the
    /// series that reach it (the census the figure benches want for trials
    /// that stabilise early). What is *not* allowed is disagreeing sample
    /// times at a shared index: averaging values taken at different times
    /// produces a silently meaningless curve, so that case panics instead
    /// (policy pinned by `mean_of_rejects_misaligned_time_axes`).
    ///
    /// # Panics
    /// Panics when `series` is empty, or when two series disagree on the
    /// sample time at an index they both cover.
    pub fn mean_of(series: &[Series]) -> Series {
        assert!(!series.is_empty(), "mean_of needs at least one series");
        let max_len = series.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut out = Series::new(format!("mean({})", series[0].name));
        for k in 0..max_len {
            let mut sum = 0.0;
            let mut cnt = 0usize;
            let mut t = None;
            for s in series {
                if k < s.len() {
                    match t {
                        None => t = Some(s.t[k]),
                        Some(t) => assert_eq!(
                            s.t[k], t,
                            "mean_of: series sample times disagree at index {k} \
                             ({} vs {t}); resample onto a shared grid first",
                            s.t[k],
                        ),
                    }
                    sum += s.v[k];
                    cnt += 1;
                }
            }
            out.push(
                t.expect("k < max_len covers at least one series"),
                sum / cnt as f64,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_last() {
        let mut s = Series::new("x");
        assert!(s.is_empty());
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((2.0, 20.0)));
    }

    #[test]
    fn mean_of_equal_length() {
        let mut a = Series::new("a");
        let mut b = Series::new("a");
        for k in 0..5 {
            a.push(k as f64, k as f64);
            b.push(k as f64, (k as f64) + 2.0);
        }
        let m = Series::mean_of(&[a, b]);
        assert_eq!(m.len(), 5);
        for k in 0..5 {
            assert!((m.v[k] - (k as f64 + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_of_ragged_lengths() {
        let mut a = Series::new("a");
        a.push(0.0, 1.0);
        a.push(1.0, 3.0);
        let mut b = Series::new("a");
        b.push(0.0, 3.0);
        let m = Series::mean_of(&[a, b]);
        assert_eq!(m.len(), 2);
        assert!((m.v[0] - 2.0).abs() < 1e-12);
        assert!((m.v[1] - 3.0).abs() < 1e-12); // only `a` contributes
    }

    #[test]
    #[should_panic(expected = "sample times disagree")]
    fn mean_of_rejects_misaligned_time_axes() {
        // Same lengths, different time grids: averaging these pointwise
        // would silently mix values from different times.
        let mut a = Series::new("a");
        a.push(0.0, 1.0);
        a.push(1.0, 3.0);
        let mut b = Series::new("a");
        b.push(0.0, 3.0);
        b.push(2.0, 5.0);
        let _ = Series::mean_of(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn mean_of_empty_panics() {
        let _ = Series::mean_of(&[]);
    }
}
