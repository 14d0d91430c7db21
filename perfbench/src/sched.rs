//! The open-loop load generator's schedule.
//!
//! Due times come from the seed alone, never from how fast the program
//! answers: a client that falls behind stays behind, and each request's
//! latency is counted from when it was due, so a stall also charges the
//! requests queued behind it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times in seconds after the start of the run, of a Poisson process
/// at `rate` per second, for `count` events.
pub fn poisson_due_times(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// `count` draws from `0..n` with probability proportional to
/// `1 / (i + 1)^exponent`: a few popular items and a long tail.
pub fn zipf_draws(n: usize, exponent: f64, count: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut u = rng.random::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return i;
                }
                u -= w;
            }
            n - 1
        })
        .collect()
}

/// How late the generator started each request: `started - due`, in
/// milliseconds, never negative.
pub fn lateness_ms(due_s: &[f64], started_s: &[f64]) -> Vec<f64> {
    due_s
        .iter()
        .zip(started_s)
        .map(|(due, started)| ((started - due) * 1e3).max(0.0))
        .collect()
}

/// Latency of each request counted from its due time, in milliseconds.
pub fn latency_from_due_ms(due_s: &[f64], done_s: &[f64]) -> Vec<f64> {
    due_s
        .iter()
        .zip(done_s)
        .map(|(due, done)| (done - due) * 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_due_times() {
        let a = poisson_due_times(50.0, 1000, 3);
        let b = poisson_due_times(50.0, 1000, 3);
        assert_eq!(a, b);
        assert_ne!(a, poisson_due_times(50.0, 1000, 4));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // A thousand arrivals at 50/s span about twenty seconds.
        let span = a[999];
        assert!((17.0..23.0).contains(&span), "span {span}");
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // The second request was due at 1.0 s but started at 1.5 s behind
        // a stall: its latency includes the half second it waited.
        let due = [0.5, 1.0];
        let started = [0.5, 1.5];
        let done = [0.51, 1.52];
        assert_eq!(lateness_ms(&due, &started), vec![0.0, 500.0]);
        let lat = latency_from_due_ms(&due, &done);
        assert!((lat[0] - 10.0).abs() < 1e-9);
        assert!((lat[1] - 520.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_repeats_by_seed() {
        let draws = zipf_draws(16, 1.1, 2000, 9);
        assert_eq!(draws, zipf_draws(16, 1.1, 2000, 9));
        let first = draws.iter().filter(|&&d| d == 0).count();
        let last = draws.iter().filter(|&&d| d == 15).count();
        assert!(first > 4 * last, "first {first} last {last}");
        assert!(draws.iter().all(|&d| d < 16));
    }
}
