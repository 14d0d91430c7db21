//! Numerically stable log-space helpers.

use rand::Rng;

/// Samples an index from the categorical distribution proportional to
/// `exp(log_weights)`.
///
/// Entries of `f64::NEG_INFINITY` have probability zero. Panics on an empty
/// slice or when every weight is `-∞`.
pub fn sample_from_log_weights<R: Rng + ?Sized>(log_weights: &[f64], rng: &mut R) -> usize {
    assert!(!log_weights.is_empty(), "empty categorical distribution");
    let m = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        m.is_finite(),
        "categorical distribution has no finite weight"
    );
    let total: f64 = log_weights.iter().map(|&w| (w - m).exp()).sum();
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in log_weights.iter().enumerate() {
        u -= (w - m).exp();
        if u <= 0.0 {
            return i;
        }
    }
    // Floating-point slack left `u` positive after the full pass. Falling
    // back to `len() - 1` would be wrong when trailing entries are `-∞`
    // (they carry probability zero but would still be returned); fall back
    // to the last *finite*-weight index instead, which exists because `m`
    // is finite.
    log_weights
        .iter()
        .rposition(|w| w.is_finite())
        .expect("a finite weight exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_follows_distribution() {
        let lw = [0.0f64.ln(), 1.0f64.ln(), 3.0f64.ln()]; // probs 0, 1/4, 3/4
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[sample_from_log_weights(&lw, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        let p2 = counts[2] as f64 / 4000.0;
        assert!((p2 - 0.75).abs() < 0.05, "p2 = {p2}");
    }

    #[test]
    fn neg_inf_entries_never_sampled() {
        let lw = [f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(sample_from_log_weights(&lw, &mut rng), 1);
        }
    }

    #[test]
    fn trailing_neg_inf_is_never_sampled_at_extreme_draws() {
        // Regression: the floating-point fallback returned `len() - 1`
        // even when that entry was -∞. A large dominant weight makes every
        // other finite weight underflow to 0 after the max-shift, so the
        // cumulative pass can exit only via accumulated slack — the exact
        // path the fallback serves.
        let lw = [800.0, -900.0, f64::NEG_INFINITY, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let idx = sample_from_log_weights(&lw, &mut rng);
            assert!(lw[idx].is_finite(), "sampled -inf entry {idx}");
        }
    }
}

#[cfg(test)]
mod properties {
    use super::sample_from_log_weights;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `-∞` entries have probability zero and must never be returned,
        /// including when they occupy the last position (the fallback path).
        #[test]
        fn neg_inf_never_sampled(
            len in 2usize..10,
            finite in 1usize..10,
            spread in 0.0f64..600.0,
            seed in 0u64..1_000_000,
        ) {
            let finite = finite.min(len - 1); // ≥ 1 trailing -∞ entry
            let mut gen = StdRng::seed_from_u64(seed);
            let mut lw: Vec<f64> = (0..finite)
                .map(|_| gen.random_range(-spread - 1.0..spread + 1.0))
                .collect();
            // Shuffle a few -∞ entries in, then force one onto the last
            // slot — the position the old fallback would return.
            for _ in finite..len {
                let at = gen.random_range(0..=lw.len());
                lw.insert(at, f64::NEG_INFINITY);
            }
            lw.push(f64::NEG_INFINITY);
            prop_assert!(lw.iter().any(|w| w.is_finite()));

            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
            for _ in 0..200 {
                let idx = sample_from_log_weights(&lw, &mut rng);
                prop_assert!(lw[idx].is_finite(),
                    "sampled -inf index {idx} of {lw:?}");
            }
        }
    }
}
