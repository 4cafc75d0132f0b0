//! Order statistics for benchmark samples.
//!
//! Everything here is computed the way the driver computes it: quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the default
//! "exclusive" method), so a spread printed by `td-bench aa` is the same
//! number the driver will check against a metric's bound.

/// Sorted copy of `xs`. Samples are finite by construction (wall clocks
/// and counts), so a total order exists.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// The true median: the middle sample, or the mean of the middle two.
///
/// # Panics
///
/// Panics on an empty slice — a metric with no samples is a bug in the
/// workload, not a value to report.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest sample: the least disturbed of repeated timings of the
/// same work, since interference from the host only ever adds time.
/// Infinite for no samples.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First quartile, median, third quartile and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median — the driver's
    /// "spread". 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by Python's exclusive method: with `m = n + 1`, cut point
/// `i` sits at position `i·m/4` of the sorted samples, interpolated
/// linearly and clamped to the sample range. A single sample is its own
/// three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Percentile `p` (0–100) of `xs` by nearest rank: the smallest sample
/// with at least `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest rung of 50 / 90 / 95 / 99 / 99.9 that still has at least
/// ten samples beyond it among `n` samples (50 when none has): a p99 over
/// 100 samples is one sample's opinion, a p90 over them is ten's.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// `(percentile, value)` of the tail [`tail_percentile`] supports.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let p = tail_percentile(xs.len());
    (p, percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_true_median_not_upper() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // `sorted[len/2]` would say 3.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25] before
        // clamping the index; Python clamps j to [1, n-1] exactly as here.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([10,20,30,40,50], n=4) == [15.0, 30.0, 45.0]
        let s = summarize(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.spread(), 1.0);
        let one = summarize(&[5.0]);
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(8), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(4000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
    }
}
