//! The per-sequence MCMC sampling kernel of Algorithm 1 (lines 5–8) and
//! the training seed derivation.
//!
//! [`sample_sequence`] is *pure*: its output is a function of the prepared
//! sequence, the configured chains, the current weights, and an explicit
//! seed — never of shared mutable state or of which worker runs it. That
//! is what lets [`Trainer::run`](crate::Trainer::run) fan the per-sequence
//! sampling out over a [`WorkerPool`](ism_runtime::WorkerPool) while
//! keeping the learned weights byte-identical for any thread count.

use crate::prep::PreparedSequence;
use crate::structure::NUM_FEATURES;
use crate::{CoupledNetwork, Weights};
use ism_mobility::MobilityEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Domain-separation constant of the training seed stream: keeps
/// `train_seed(base, iter, seq)` disjoint from
/// `sequence_seed(base, seq)` even at `iter = 0`, so a caller reusing one
/// base seed for training and decoding never feeds the same RNG stream to
/// both.
const TRAIN_DOMAIN: u64 = 0x7452_4149_4E53_4545; // "tRAINSEE"

/// SplitMix64 finaliser shared by the seed derivations of this crate
/// ([`sequence_seed`](crate::sequence_seed) and [`train_seed`]).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of training sequence `seq` in outer iteration
/// `iter` of a run keyed by `base_seed`.
///
/// SplitMix64-style finalisation over
/// `base_seed ⊕ domain ⊕ (iter · c₁) ⊕ (seq · φ64)`, mirroring
/// [`sequence_seed`](crate::sequence_seed) but domain-separated from it:
/// neighbouring `(iter, seq)` pairs get uncorrelated streams, reusing one
/// base seed for training and decoding is safe, and the derivation is
/// part of the public determinism contract — the sequential reference
///
/// ```text
/// for iter in 0..max_iter {
///     for (seq, prepared) in training_set.iter().enumerate() {
///         let mut rng = StdRng::seed_from_u64(train_seed(base_seed, iter, seq));
///         /* draw the M Gibbs samples of every site of `prepared` */
///     }
///     /* fold samples into one L-BFGS step */
/// }
/// ```
///
/// produces exactly the weights of a pool-parallel [`Trainer`] run.
///
/// [`Trainer`]: crate::Trainer
pub fn train_seed(base_seed: u64, iter: usize, seq: usize) -> u64 {
    splitmix64(
        base_seed
            ^ TRAIN_DOMAIN
            ^ (iter as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Per-site MCMC sample summary: Δf = f(sampled) − f(empirical), stored
/// only for samples that differ from the empirical label.
pub(crate) struct SiteSamples {
    /// Samples that matched the empirical label.
    pub zero: u32,
    /// Feature displacements of the samples that differed.
    pub deltas: Vec<[f32; NUM_FEATURES]>,
}

/// Everything one sequence contributes to an outer iteration: its sites'
/// sample summaries (feeding the surrogate of Eq. 8) and the per-site
/// sample counts (majority-voted into the configured chain, line 25).
pub(crate) struct SequenceSamples {
    /// One entry per record, in site order.
    pub sites: Vec<SiteSamples>,
    /// `votes[i][c]`: how often candidate `c` was drawn at site `i`.
    pub votes: Vec<Vec<u32>>,
}

/// Reusable per-worker buffers of the sampling kernel: the candidate
/// feature matrix and log-potential vector of the current site.
#[derive(Default)]
pub(crate) struct SampleScratch {
    feats: Vec<[f64; NUM_FEATURES]>,
    log_pot: Vec<f64>,
}

impl SampleScratch {
    pub fn new() -> Self {
        SampleScratch::default()
    }
}

/// Draws the `M` pseudo-likelihood Gibbs samples of every site of one
/// sequence (lines 5–8 of Algorithm 1) from an RNG seeded with `seed`.
///
/// Pseudo-likelihood conditions each site on its Markov blanket at the
/// EMPIRICAL values (Eq. 6): per site, the local feature vector of every
/// candidate is computed with the blanket fixed at the training labels
/// (and the configured chain Ā for the other target chain), then the `M`
/// samples are drawn from that conditional. The candidate feature vectors
/// are reused for both the sampling weights and the Δf of Eq. 8/9.
///
/// `sample_regions` selects which chain is free this iteration;
/// `events_cfg` / `regions_cfg` are the configured chains of the *other*
/// target variable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_sequence(
    prep: &PreparedSequence<'_>,
    events_cfg: &[MobilityEvent],
    regions_cfg: &[ism_indoor::RegionId],
    weights: &Weights,
    sample_regions: bool,
    mcmc_m: usize,
    seed: u64,
    scratch: &mut SampleScratch,
) -> SequenceSamples {
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx = &prep.ctx;
    let net = CoupledNetwork::new(ctx, weights);
    let n = ctx.len();
    // The indexed region path below conditions the blanket on
    // `truth_r_idx`; that is the same labelling as `truth_regions`.
    debug_assert!((0..n).all(|k| ctx.candidates[k][prep.truth_r_idx[k]] == prep.truth_regions[k]));
    let SampleScratch { feats, log_pot } = scratch;

    let mut sites = Vec::with_capacity(n);
    let mut votes: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            vec![
                0u32;
                if sample_regions {
                    ctx.candidates[i].len()
                } else {
                    2
                }
            ]
        })
        .collect();

    for (i, site_votes) in votes.iter_mut().enumerate() {
        let (num_cand, truth_idx) = if sample_regions {
            (ctx.candidates[i].len(), prep.truth_r_idx[i])
        } else {
            (2, prep.truth_events[i].index())
        };
        feats.clear();
        feats.resize(num_cand, [0.0; NUM_FEATURES]);
        for (c, f) in feats.iter_mut().enumerate() {
            if sample_regions {
                // Reads the precomputed pairwise tables and the blanket
                // at `truth_r_idx`.
                net.region_local_features(i, c, &prep.truth_r_idx, |k| events_cfg[k], f);
            } else {
                net.event_local_features(
                    i,
                    MobilityEvent::ALL[c],
                    |k| regions_cfg[k],
                    |k| prep.truth_events[k],
                    f,
                );
            }
        }
        log_pot.clear();
        log_pot.extend(feats.iter().map(|f| weights.dot(f)));
        let mut slot = SiteSamples {
            zero: 0,
            deltas: Vec::new(),
        };
        for _ in 0..mcmc_m {
            let c = ism_pgm::sample_from_log_weights(log_pot, &mut rng);
            site_votes[c] += 1;
            if c == truth_idx {
                slot.zero += 1;
            } else {
                let mut df = [0.0f32; NUM_FEATURES];
                for k in 0..NUM_FEATURES {
                    df[k] = (feats[c][k] - feats[truth_idx][k]) as f32;
                }
                slot.deltas.push(df);
            }
        }
        sites.push(slot);
    }

    SequenceSamples { sites, votes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare;
    use crate::C2mnConfig;
    use ism_indoor::BuildingGenerator;
    use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};

    #[test]
    fn train_seed_is_injective_over_small_grids() {
        let mut seen = std::collections::HashSet::new();
        for iter in 0..64 {
            for seq in 0..256 {
                assert!(
                    seen.insert(train_seed(42, iter, seq)),
                    "collision at iter={iter} seq={seq}"
                );
            }
        }
        // Different base seeds decorrelate.
        assert_ne!(train_seed(1, 0, 0), train_seed(2, 0, 0));
        // iter and seq are not interchangeable.
        assert_ne!(train_seed(7, 1, 2), train_seed(7, 2, 1));
    }

    #[test]
    fn train_seeds_are_domain_separated_from_decode_seeds() {
        // Reusing one base seed for training and batch decoding must not
        // hand the same RNG stream to both: iteration 0's training seeds
        // differ from the decode sequence seeds.
        for base in [0u64, 1, 42, u64::MAX] {
            for seq in 0..64 {
                assert_ne!(
                    train_seed(base, 0, seq),
                    crate::sequence_seed(base, seq),
                    "collision at base={base} seq={seq}"
                );
            }
        }
    }

    #[test]
    fn kernel_is_a_pure_function_of_its_seed() {
        let mut rng = StdRng::seed_from_u64(1);
        let space = BuildingGenerator::small_office()
            .generate(&mut rng)
            .unwrap();
        let dataset = Dataset::generate(
            "s",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(8.0, 2.0),
            None,
            2,
            &mut rng,
        );
        let config = C2mnConfig::quick_test();
        let data = prepare(&space, &config, &dataset.sequences).unwrap();
        let prep = &data.seqs[0];
        let events = prep.initial_events();
        let regions = prep.initial_regions();
        let w = Weights::uniform(0.5);
        let run = |seed: u64, scratch: &mut SampleScratch| {
            let out = sample_sequence(prep, &events, &regions, &w, true, 8, seed, scratch);
            (
                out.votes,
                out.sites
                    .iter()
                    .map(|s| (s.zero, s.deltas.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        // Same seed → identical output, even across reused scratch buffers.
        let mut fresh = SampleScratch::new();
        let mut reused = SampleScratch::new();
        let a = run(11, &mut fresh);
        let b = run(11, &mut reused);
        let _ = run(12, &mut reused); // dirty the buffers
        let c = run(11, &mut reused);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Different seeds diverge (with overwhelming probability).
        let d = run(13, &mut reused);
        assert_ne!(a.0, d.0);
    }
}
