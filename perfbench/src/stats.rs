//! The benchmark's own arithmetic: medians, the tail percentile, the
//! geometric mean and ratios with their base.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency percentile together with the sample evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in tenths of a percent steps (e.g. `95.2`).
    pub pct: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly ranked beyond it.
    pub beyond: usize,
    /// All samples.
    pub count: usize,
}

/// The highest percentile, in steps of 0.1, that still leaves at least
/// `min_beyond` samples ranked beyond it (nearest-rank definition: the
/// p-th percentile of `n` sorted samples is the one at 1-based rank
/// `ceil(p/100 * n)`). `None` when `n <= min_beyond`: no sample has that
/// many beyond it.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n <= min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // work in integer tenths of a percent so the rank arithmetic is exact
    let rank = |tenths: usize| (tenths * n).div_ceil(1000).max(1);
    let mut tenths = 1000 * (n - min_beyond) / n;
    while n - rank(tenths) < min_beyond {
        tenths -= 1;
    }
    let r = rank(tenths);
    Some(Tail { pct: tenths as f64 / 10.0, value: v[r - 1], beyond: n - r, count: n })
}

/// The [`tail`] of each window of `window` consecutive samples, in sample
/// order; a rest shorter than `window` joins the last window, and fewer
/// than `window` samples make a single window. The median of these tails
/// is a tail whose depth does not depend on how many samples a run
/// collects, and a burst of host noise moves only the windows it falls in.
/// `None` when a window has `min_beyond` samples or fewer.
pub fn windowed_tails(xs: &[f64], window: usize, min_beyond: usize) -> Option<Vec<Tail>> {
    let size = window.max(1);
    let windows = (xs.len() / size).max(1);
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { xs.len() } else { (w + 1) * size };
            tail(&xs[w * size..end], min_beyond)
        })
        .collect()
}

/// Geometric mean of strictly positive values; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A ratio that keeps its base: `hits / base`, reading `0.0` when the base
/// is empty (nothing was attempted, so nothing was gained or wasted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Outcomes counted in the numerator.
    pub hits: u64,
    /// Attempts the ratio is taken over.
    pub base: u64,
}

impl Ratio {
    /// Count one attempt, and a hit when `hit` holds.
    pub fn record(&mut self, hit: bool) {
        self.base += 1;
        self.hits += u64::from(hit);
    }

    /// The ratio's value.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.hits as f64 / self.base as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond_on_round_counts() {
        // 100 samples: p90 is rank 90, with ranks 91..=100 beyond it
        let t = tail(&ramp(100), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.count), (90.0, 90.0, 10, 100));
        // 1000 samples: p99
        let t = tail(&ramp(1000), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 20 samples: only the median leaves ten beyond
        let t = tail(&ramp(20), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_picks_the_highest_tenth_of_a_percent() {
        // 209 samples (11 suite passes of 19 kernels): p95.2 is rank 199
        // (ceil(0.952 * 209) = 199), leaving 10; p95.3 is rank 200, leaving 9
        let t = tail(&ramp(209), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.2, 199.0, 10));
        assert_eq!((953 * 209usize).div_ceil(1000), 200);
        // order of the input does not matter
        let mut rev = ramp(209);
        rev.reverse();
        assert_eq!(tail(&rev, 10), Some(t));
    }

    #[test]
    fn tail_needs_more_samples_than_the_minimum() {
        assert_eq!(tail(&ramp(10), 10), None);
        let t = tail(&ramp(11), 10).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn windowed_tails_split_in_sample_order() {
        // 250 samples in windows of 100: two windows, the rest joins the last
        let ts = windowed_tails(&ramp(250), 100, 10).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!((ts[0].pct, ts[0].value, ts[0].count), (90.0, 90.0, 100));
        assert_eq!((ts[1].count, ts[1].beyond, ts[1].value), (150, 10, 240.0));
        // fewer samples than a window make one window, the plain tail
        let ts = windowed_tails(&ramp(30), 100, 10).unwrap();
        assert_eq!(ts, vec![tail(&ramp(30), 10).unwrap()]);
        assert_eq!(windowed_tails(&ramp(10), 100, 10), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), 0.0, "an empty base reads as zero, not NaN");
        r.record(true);
        r.record(false);
        r.record(false);
        r.record(true);
        assert_eq!((r.hits, r.base), (2, 4));
        assert_eq!(r.value(), 0.5);
    }
}
