//! Evaluation metrics (§V-A).
//!
//! * **RA / EA** — region / event labeling accuracy (fraction of records
//!   whose region / event label is correct),
//! * **CA** — combined accuracy `λ·RA + (1−λ)·EA` (the paper uses
//!   `λ = 0.7`),
//! * **PA** — perfect accuracy (both labels correct),
//! * **top-k precision** — fraction of true top-k results returned by a
//!   top-k query.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use ism_indoor::RegionId;
use ism_mobility::MobilityEvent;

/// The paper's trade-off parameter for combined accuracy.
pub const PAPER_LAMBDA: f64 = 0.7;

/// Record-level labeling accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LabelAccuracy {
    /// Region accuracy (RA).
    pub region: f64,
    /// Event accuracy (EA).
    pub event: f64,
    /// Perfect accuracy (PA): both labels correct.
    pub perfect: f64,
    /// Number of records evaluated.
    pub total: usize,
}

impl LabelAccuracy {
    /// Combined accuracy `CA = λ·RA + (1−λ)·EA`.
    pub fn combined(&self, lambda: f64) -> f64 {
        lambda * self.region + (1.0 - lambda) * self.event
    }
}

/// Combined accuracy helper (free-function form).
pub fn combined_accuracy(acc: &LabelAccuracy, lambda: f64) -> f64 {
    acc.combined(lambda)
}

/// Perfect accuracy helper (free-function form).
pub fn perfect_accuracy(acc: &LabelAccuracy) -> f64 {
    acc.perfect
}

/// Streaming accumulator of labeling accuracy across sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccuracyAccumulator {
    correct_region: usize,
    correct_event: usize,
    correct_both: usize,
    total: usize,
}

impl AccuracyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one labelled sequence: predictions vs ground truth.
    pub fn add<I>(&mut self, predicted: &[(RegionId, MobilityEvent)], truth: I)
    where
        I: IntoIterator<Item = (RegionId, MobilityEvent)>,
    {
        for (p, t) in predicted.iter().zip(truth) {
            let r_ok = p.0 == t.0;
            let e_ok = p.1 == t.1;
            self.correct_region += usize::from(r_ok);
            self.correct_event += usize::from(e_ok);
            self.correct_both += usize::from(r_ok && e_ok);
            self.total += 1;
        }
    }

    /// Finalises the metrics.
    pub fn finish(&self) -> LabelAccuracy {
        let n = self.total.max(1) as f64;
        LabelAccuracy {
            region: self.correct_region as f64 / n,
            event: self.correct_event as f64 / n,
            perfect: self.correct_both as f64 / n,
            total: self.total,
        }
    }
}

/// Precision of a top-k result: `|returned ∩ truth| / k`.
///
/// Duplicates in either list are ignored; `k` is the length of the truth
/// list (callers pass the true top-k).
pub fn top_k_precision<T: PartialEq>(returned: &[T], truth: &[T]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = returned.iter().filter(|r| truth.contains(r)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use MobilityEvent::{Pass, Stay};

    fn r(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn accuracy_counts() {
        let mut acc = AccuracyAccumulator::new();
        let pred = vec![(r(0), Stay), (r(1), Pass), (r(2), Stay)];
        let truth = vec![(r(0), Stay), (r(1), Stay), (r(9), Stay)];
        acc.add(&pred, truth);
        let m = acc.finish();
        assert_eq!(m.total, 3);
        assert!((m.region - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.event - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.perfect - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn combined_accuracy_weighting() {
        let m = LabelAccuracy {
            region: 0.9,
            event: 0.5,
            perfect: 0.4,
            total: 10,
        };
        assert!((m.combined(PAPER_LAMBDA) - (0.7 * 0.9 + 0.3 * 0.5)).abs() < 1e-12);
        assert_eq!(m.combined(1.0), 0.9);
        assert_eq!(m.combined(0.0), 0.5);
    }

    #[test]
    fn accumulator_spans_sequences() {
        let mut acc = AccuracyAccumulator::new();
        acc.add(&[(r(0), Stay)], vec![(r(0), Stay)]);
        acc.add(&[(r(1), Pass)], vec![(r(2), Pass)]);
        let m = acc.finish();
        assert_eq!(m.total, 2);
        assert_eq!(m.region, 0.5);
        assert_eq!(m.event, 1.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let m = AccuracyAccumulator::new().finish();
        assert_eq!(m.total, 0);
        assert_eq!(m.region, 0.0);
    }

    #[test]
    fn top_k_precision_basic() {
        assert_eq!(top_k_precision(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(top_k_precision(&[1, 2, 4], &[1, 2, 3]), 2.0 / 3.0);
        assert_eq!(top_k_precision::<u32>(&[], &[1, 2]), 0.0);
        assert_eq!(top_k_precision::<u32>(&[1], &[]), 1.0);
    }

    #[test]
    fn empty_sequences_contribute_nothing() {
        let mut acc = AccuracyAccumulator::new();
        acc.add(&[], Vec::new());
        acc.add(&[], Vec::new());
        let m = acc.finish();
        assert_eq!(m.total, 0);
        assert_eq!(m.region, 0.0);
        assert_eq!(m.event, 0.0);
        assert_eq!(m.perfect, 0.0);
        assert_eq!(m.combined(PAPER_LAMBDA), 0.0);
    }

    #[test]
    fn all_correct_is_perfect_on_every_metric() {
        let mut acc = AccuracyAccumulator::new();
        let labels = vec![(r(0), Stay), (r(1), Pass), (r(2), Stay), (r(3), Pass)];
        acc.add(&labels, labels.clone());
        let m = acc.finish();
        assert_eq!(m.total, 4);
        assert_eq!(m.region, 1.0);
        assert_eq!(m.event, 1.0);
        assert_eq!(m.perfect, 1.0);
        assert_eq!(m.combined(PAPER_LAMBDA), 1.0);
        assert_eq!(combined_accuracy(&m, PAPER_LAMBDA), 1.0);
        assert_eq!(perfect_accuracy(&m), 1.0);
    }

    #[test]
    fn all_wrong_is_zero_on_every_metric() {
        let mut acc = AccuracyAccumulator::new();
        let pred = vec![(r(0), Stay), (r(1), Pass)];
        let truth = vec![(r(5), Pass), (r(6), Stay)];
        acc.add(&pred, truth);
        let m = acc.finish();
        assert_eq!(m.total, 2);
        assert_eq!(m.region, 0.0);
        assert_eq!(m.event, 0.0);
        assert_eq!(m.perfect, 0.0);
        assert_eq!(m.combined(PAPER_LAMBDA), 0.0);
    }

    #[test]
    fn combined_interpolates_between_components() {
        let m = LabelAccuracy {
            region: 0.8,
            event: 0.2,
            perfect: 0.1,
            total: 5,
        };
        // Endpoints are exactly the components...
        assert_eq!(m.combined(0.0), m.event);
        assert_eq!(m.combined(1.0), m.region);
        // ...and every λ in between stays inside [EA, RA], monotonically.
        let mut prev = m.combined(0.0);
        for step in 1..=10 {
            let ca = m.combined(step as f64 / 10.0);
            assert!(ca >= m.event - 1e-12 && ca <= m.region + 1e-12);
            assert!(ca >= prev - 1e-12, "CA must grow with λ when RA > EA");
            prev = ca;
        }
        // The paper's λ = 0.7 leans toward region accuracy.
        let ca = m.combined(PAPER_LAMBDA);
        assert!((ca - (0.7 * 0.8 + 0.3 * 0.2)).abs() < 1e-12);
        assert!((ca - m.region).abs() < (ca - m.event).abs());
    }
}
