//! Summary statistics: medians and the tail rule every `*_tail` metric
//! follows.

/// A tail needs at least this many samples strictly beyond its value, so
/// one outlier cannot set it.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile never goes above this. With tens of thousands of
/// sub-millisecond samples the rule alone would pick p99.96, which reads
/// scheduler noise of the host rather than the program.
pub const TAIL_CAP_PERCENT: f64 = 99.0;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples per window of [`windowed_tail`]: enough for a p95 with ten
/// samples beyond it.
pub const WINDOW_SAMPLES: usize = 200;
/// Most windows [`windowed_tail`] splits a run into.
pub const MAX_WINDOWS: usize = 8;

/// A sample buffer of fixed capacity, allocated and written in full up
/// front: the process's memory must not grow with the number of samples a
/// run takes, since a faster program takes more and would read as using
/// more memory.
pub struct Samples {
    buf: Vec<f64>,
    len: usize,
}

impl Samples {
    /// A buffer for up to `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        // NaN, not zero: zeroed allocations are mapped lazily and would
        // still grow the resident set as samples arrive.
        Samples {
            buf: vec![f64::NAN; capacity],
            len: 0,
        }
    }

    /// Appends `v`; a full buffer drops it.
    pub fn push(&mut self, v: f64) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = v;
            self.len += 1;
        }
    }

    /// Whether no further sample fits.
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// The samples taken so far.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

/// A tail value with the percentile it sits at and the sample count, so a
/// reader can see how much data stands behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the percentile.
    pub value: f64,
    /// The percentile, in percent (of one window).
    pub percent: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
    /// Number of windows whose tails were reduced to their median.
    pub windows: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} (p{:.2}, median over {} window(s) of {} samples in all)",
            self.value, self.percent, self.windows, self.samples
        )
    }
}

/// The highest nearest-rank percentile that has at least [`TAIL_BEYOND`]
/// samples beyond it, capped at [`TAIL_CAP_PERCENT`] and never below the
/// median: with fewer than `2 * TAIL_BEYOND` samples the tail is the
/// median. Infinite samples (failed requests) sort last and count as
/// beyond any finite value.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n < 2 * TAIL_BEYOND {
        return Tail {
            value: median(values),
            percent: 50.0,
            samples: n,
            windows: 1,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank `r` (1-based) has `n - r` samples beyond it.
    let by_rule = n - TAIL_BEYOND;
    let by_cap = (n as f64 * TAIL_CAP_PERCENT / 100.0).ceil() as usize;
    let rank = by_rule.min(by_cap);
    Tail {
        value: v[rank - 1],
        percent: 100.0 * rank as f64 / n as f64,
        samples: n,
        windows: 1,
    }
}

/// The [`tail`] of each run of consecutive samples (up to [`MAX_WINDOWS`]
/// windows of at least [`WINDOW_SAMPLES`]), reduced to the median over
/// windows. A stall of the host lands in one window and moves the result
/// far less than it moves a single tail over the whole run. Fewer than
/// `2 * WINDOW_SAMPLES` samples make one window, i.e. plain [`tail`].
pub fn windowed_tail(values: &[f64]) -> Tail {
    let windows = (values.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let size = values.len().div_ceil(windows).max(1);
    let tails: Vec<Tail> = values.chunks(size).map(tail).collect();
    Tail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        percent: median(&tails.iter().map(|t| t.percent).collect::<Vec<_>>()),
        samples: values.len(),
        windows: tails.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 40 samples: rank 30 (value 30) has 10 beyond; rank 31 has 9.
        let t = tail(&ramp(40));
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percent, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(ramp(40).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_is_capped_at_p99_for_large_counts() {
        // 10 000 samples: the rule alone allows rank 9 990 (p99.9); the
        // cap stops at rank 9 900.
        let t = tail(&ramp(10_000));
        assert_eq!(t.value, 9_900.0);
        assert_eq!(t.percent, 99.0);
        // Just above the crossover the rule, not the cap, decides.
        let t = tail(&ramp(999));
        assert_eq!(t.value, 989.0);
        assert!(t.percent < 99.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        // Eleven samples: only rank 1 has ten beyond, which would put the
        // tail below the median.
        let t = tail(&ramp(11));
        assert_eq!(t.value, 6.0);
        assert_eq!(t.percent, 50.0);
        // Twenty samples: rank 10 is both the median and the rule's pick.
        let t = tail(&ramp(20));
        assert_eq!(t.value, 10.0);
        assert_eq!(t.percent, 50.0);
    }

    #[test]
    fn one_window_with_a_stall_does_not_move_the_windowed_tail() {
        // Four windows of 200 identical samples; a stall inflates the top
        // of one window only.
        let mut v: Vec<f64> = (0..800).map(|i| (i % 200) as f64).collect();
        for x in &mut v[180..200] {
            *x = 1e6;
        }
        assert_eq!(tail(&v[..200]).value, 1e6);
        let t = windowed_tail(&v);
        assert_eq!(t.windows, 4);
        assert_eq!(t.value, 189.0);
        // The same data as one window: the stall sets the tail.
        assert_eq!(tail(&v).value, 1e6);
        // Few samples: one window, the plain rule.
        assert_eq!(windowed_tail(&ramp(40)), tail(&ramp(40)));
    }

    #[test]
    fn samples_keep_their_capacity() {
        let mut s = Samples::with_capacity(2);
        s.push(1.0);
        assert!(!s.is_full());
        s.push(2.0);
        s.push(3.0);
        assert!(s.is_full());
        assert_eq!(s.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn failures_count_as_beyond_any_limit() {
        let mut v = ramp(20);
        for x in v.iter_mut().take(10) {
            *x = f64::INFINITY;
        }
        // Ten failures out of twenty: the tail is the largest finite
        // sample.
        assert_eq!(tail(&v).value, 10.0);
        v[10] = f64::INFINITY;
        assert!(tail(&v).value.is_infinite());
    }
}
