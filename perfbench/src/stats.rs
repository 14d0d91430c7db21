//! Percentiles by the nearest-rank rule, reported with their sample count.
//!
//! A tail percentile is only meaningful when enough samples lie beyond
//! it: [`Summary::tail`] gives one only when at least [`MIN_BEYOND`]
//! samples sit above it, so p99 needs 1,000 samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts `samples` (any order; NaN sorts last and is never expected).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` (0 < p ≤ 100): the smallest
    /// rank whose share of samples at or below it is at least `p` percent.
    pub fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// The nearest-rank percentile `p`, or 0 with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            _ => self.sorted[self.rank(p) - 1],
        }
    }

    /// Samples strictly beyond the rank of percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        self.sorted.len().saturating_sub(self.rank(p))
    }

    /// Whether percentile `p` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        !self.sorted.is_empty() && self.beyond(p) >= MIN_BEYOND
    }

    /// Percentile `p` when [`Summary::supports`] it, else `None`.
    pub fn tail(&self, p: f64) -> Option<f64> {
        self.supports(p).then(|| self.percentile(p))
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The largest sample, or 0 with no samples.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// `"p99 = 12.3456 (n=1000, 10 beyond)"`, flagging an unsupported tail.
    pub fn describe(&self, p: f64) -> String {
        let flag = if p > 50.0 && !self.supports(p) {
            ", too few samples beyond to report"
        } else {
            ""
        };
        format!(
            "p{p} = {:.4} (n={}, {} beyond{flag})",
            self.percentile(p),
            self.len(),
            self.beyond(p)
        )
    }
}

/// The median of `values` (nearest rank), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = Summary::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.5), 1.0);
        let odd = Summary::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let s = Summary::new((0..1000).map(f64::from).collect());
        assert_eq!(s.rank(99.0), 990);
        assert_eq!(s.beyond(99.0), 10);
        assert!(s.supports(99.0));
        let short = Summary::new((0..999).map(f64::from).collect());
        assert_eq!(short.beyond(99.0), 9);
        assert!(!short.supports(99.0));
        assert!(short.describe(99.0).contains("too few samples beyond"));
        assert_eq!(s.tail(99.0), Some(989.0));
        assert_eq!(short.tail(99.0), None);
        // Five values support a median but no tail: p99 would be the max.
        let five = Summary::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(five.median(), 3.0);
        assert_eq!(five.tail(99.0), None);
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let s = Summary::new((0..1000).map(f64::from).collect());
        assert_eq!(s.describe(99.0), "p99 = 989.0000 (n=1000, 10 beyond)");
        assert!(s.describe(50.0).contains("n=1000"));
    }

    #[test]
    fn empty_summary_is_zero_and_unsupported() {
        let s = Summary::new(Vec::new());
        assert_eq!(s.percentile(50.0), 0.0);
        assert!(!s.supports(99.0));
        assert_eq!(median(&[]), 0.0);
    }
}
