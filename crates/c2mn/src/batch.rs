//! Parallel batch annotation engine.
//!
//! The paper's evaluation annotated five million records on a 10-core
//! machine; [`BatchAnnotator`] is the reproduction's counterpart. It shards
//! a batch of independent p-sequences across a persistent worker pool
//! ([`ism_runtime::WorkerPool`]) and decodes each with
//! [`C2mn::label_with`], reusing one [`DecodeScratch`] per worker. An
//! annotator either owns a pool ([`BatchAnnotator::new`]) or shares an
//! existing one ([`BatchAnnotator::with_pool`] — the engine path, so no
//! threads are ever created per batch).
//!
//! ## Determinism contract
//!
//! Sequence `i` is decoded with an RNG seeded from
//! [`sequence_seed`]`(base_seed, i)` — a function of the *item index
//! only*, never of the worker that happens to run it. Output is therefore
//! byte-identical for any thread count, and identical to the sequential
//! reference:
//!
//! ```text
//! for (i, seq) in sequences.iter().enumerate() {
//!     let mut rng = StdRng::seed_from_u64(sequence_seed(base_seed, i));
//!     model.annotate(seq, &mut rng);
//! }
//! ```

use crate::model::DecodeScratch;
use crate::C2mn;
use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, PositioningRecord};
use ism_queries::ShardedSemanticsStore;
use ism_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives the RNG seed of sequence `index` within a batch keyed by
/// `base_seed`.
///
/// SplitMix64-style finalisation over `base_seed ⊕ (index · φ64)`:
/// neighbouring indices get uncorrelated streams, and the derivation is
/// part of the public determinism contract so sequential callers can
/// reproduce batch output exactly.
pub fn sequence_seed(base_seed: u64, index: usize) -> u64 {
    crate::sample::splitmix64(base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Decodes batches of p-sequences in parallel with deterministic output.
///
/// Each worker owns one [`DecodeScratch`], so the decode buffers of
/// [`C2mn::label_with`] (state vectors, labels and run indexes) are reused
/// across the sequences a worker claims.
///
/// ```
/// # use ism_c2mn::{BatchAnnotator, C2mn, C2mnConfig, Weights};
/// # use ism_indoor::BuildingGenerator;
/// # use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # let mut rng = StdRng::seed_from_u64(1);
/// # let space = BuildingGenerator::small_office().generate(&mut rng).unwrap();
/// # let dataset = Dataset::generate(
/// #     "d", &space, SimulationConfig::quick(),
/// #     PositioningConfig::synthetic(8.0, 1.5), None, 4, &mut rng);
/// # let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
/// let sequences: Vec<Vec<_>> = dataset
///     .sequences
///     .iter()
///     .map(|s| s.positioning().collect())
///     .collect();
/// let engine = BatchAnnotator::new(&model, 4, 42);
/// let labels = engine.label_batch(&sequences);
/// assert_eq!(labels.len(), sequences.len());
/// ```
pub struct BatchAnnotator<'m, 'a> {
    model: &'m C2mn<'a>,
    pool: WorkerPool,
    base_seed: u64,
}

impl<'m, 'a> BatchAnnotator<'m, 'a> {
    /// Creates an engine decoding on `threads` workers (clamped to ≥ 1),
    /// deriving per-sequence RNGs from `base_seed`. The persistent worker
    /// threads are created here, once, and shared by every batch call.
    pub fn new(model: &'m C2mn<'a>, threads: usize, base_seed: u64) -> Self {
        BatchAnnotator::with_pool(model, &WorkerPool::new(threads), base_seed)
    }

    /// Creates an engine decoding on an existing pool's workers — a cloned
    /// handle onto the same persistent threads, so callers that already
    /// own a pool (the `ism-engine` serving path) never create threads per
    /// annotator or per batch.
    pub fn with_pool(model: &'m C2mn<'a>, pool: &WorkerPool, base_seed: u64) -> Self {
        BatchAnnotator {
            model,
            pool: pool.clone(),
            base_seed,
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The batch base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Labels every sequence of the batch with per-record (region, event)
    /// pairs. Results are in input order and independent of thread count.
    pub fn label_batch(
        &self,
        sequences: &[Vec<PositioningRecord>],
    ) -> Vec<Vec<(RegionId, MobilityEvent)>> {
        self.pool
            .run_with(sequences.len(), DecodeScratch::new, |scratch, i| {
                let mut rng = StdRng::seed_from_u64(sequence_seed(self.base_seed, i));
                self.model.label_with(&sequences[i], &mut rng, scratch)
            })
    }

    /// Annotates every sequence of the batch into merged m-semantics
    /// (label-and-merge). Results are in input order and independent of
    /// thread count.
    pub fn annotate_batch(
        &self,
        sequences: &[Vec<PositioningRecord>],
    ) -> Vec<Vec<MobilitySemantics>> {
        self.annotate_batch_at(0, sequences)
    }

    /// Annotates `sequences` as the slice starting at global index
    /// `first_index` of a larger logical batch: sequence `i` of the slice
    /// is decoded with the seed of global sequence `first_index + i`.
    ///
    /// This is the streaming-session decode hook (`ism-engine`): a session
    /// drains its submission queue in chunks, and because each chunk is
    /// decoded at its global offset, the concatenated output is
    /// byte-identical to one [`BatchAnnotator::annotate_batch`] over the
    /// whole stream — for any chunking and any thread count.
    pub fn annotate_batch_at(
        &self,
        first_index: u64,
        sequences: &[Vec<PositioningRecord>],
    ) -> Vec<Vec<MobilitySemantics>> {
        self.pool
            .run_with(sequences.len(), DecodeScratch::new, |scratch, i| {
                let seed = sequence_seed(self.base_seed, first_index as usize + i);
                let mut rng = StdRng::seed_from_u64(seed);
                self.model.annotate_with(&sequences[i], &mut rng, scratch)
            })
    }

    /// Annotates the batch into a sharded semantics store:
    /// [`annotate_batch`](BatchAnnotator::annotate_batch), then in-order
    /// [`ShardedSemanticsStore::append`], then one
    /// [`seal_with`](ShardedSemanticsStore::seal_with) on the annotator's
    /// pool.
    ///
    /// `object_ids[i]` is the object owning `sequences[i]`; repeated ids
    /// (e.g. one object's chunked sub-sequences) extend a single store
    /// entry in item order. The result is byte-identical for any thread
    /// count.
    pub fn annotate_into_store(
        &self,
        sequences: &[Vec<PositioningRecord>],
        object_ids: &[u64],
        num_shards: usize,
    ) -> ShardedSemanticsStore {
        assert_eq!(
            sequences.len(),
            object_ids.len(),
            "one object id per sequence"
        );
        let mut store = ShardedSemanticsStore::new(num_shards);
        for (&object_id, semantics) in object_ids.iter().zip(self.annotate_batch(sequences)) {
            store.append(object_id, semantics);
        }
        store.seal_with(&self.pool);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{C2mnConfig, Weights};
    use ism_indoor::BuildingGenerator;
    use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};

    fn setup() -> (ism_indoor::IndoorSpace, Vec<Vec<PositioningRecord>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let space = BuildingGenerator::small_office()
            .generate(&mut rng)
            .unwrap();
        let dataset = Dataset::generate(
            "b",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(8.0, 1.5),
            None,
            6,
            &mut rng,
        );
        let sequences = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        (space, sequences)
    }

    #[test]
    fn sequence_seed_is_injective_over_small_batches() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(sequence_seed(42, i)), "collision at {i}");
        }
        // Different base seeds decorrelate.
        assert_ne!(sequence_seed(1, 0), sequence_seed(2, 0));
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let (space, sequences) = setup();
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        let reference = BatchAnnotator::new(&model, 1, 7).label_batch(&sequences);
        for threads in [2, 3, 4] {
            let out = BatchAnnotator::new(&model, threads, 7).label_batch(&sequences);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn batch_matches_sequential_annotate() {
        let (space, sequences) = setup();
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        let engine = BatchAnnotator::new(&model, 4, 99);
        let batch = engine.annotate_batch(&sequences);
        for (i, seq) in sequences.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sequence_seed(99, i));
            assert_eq!(batch[i], model.annotate(seq, &mut rng));
        }
    }

    #[test]
    fn annotate_into_store_matches_sequential_builder() {
        let (space, sequences) = setup();
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        // Duplicate ids on purpose: chunked sub-sequences of one object.
        let object_ids: Vec<u64> = (0..sequences.len() as u64).map(|i| i % 4).collect();
        let reference = {
            let engine = BatchAnnotator::new(&model, 1, 21);
            let mut store = ShardedSemanticsStore::new(3);
            for (id, semantics) in object_ids.iter().zip(engine.annotate_batch(&sequences)) {
                store.append(*id, semantics);
            }
            store.seal();
            store
        };
        for threads in [1, 2, 4] {
            let engine = BatchAnnotator::new(&model, threads, 21);
            let store = engine.annotate_into_store(&sequences, &object_ids, 3);
            assert_eq!(store.num_shards(), 3);
            assert_eq!(store.len(), 4);
            for s in 0..store.num_shards() {
                let got: Vec<_> = store
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                let want: Vec<_> = reference
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                assert_eq!(got, want, "shard {s} diverged at threads = {threads}");
            }
        }
    }

    #[test]
    fn chunked_decode_at_offsets_matches_whole_batch() {
        // Decoding a batch in chunks via `annotate_batch_at` — each chunk
        // at its global offset — must concatenate to the whole-batch
        // output, for any chunking and thread count.
        let (space, sequences) = setup();
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        let reference = BatchAnnotator::new(&model, 1, 13).annotate_batch(&sequences);
        for threads in [1, 3] {
            for chunk in [1, 2, sequences.len()] {
                let engine = BatchAnnotator::new(&model, threads, 13);
                let mut out = Vec::new();
                let mut first = 0u64;
                for slice in sequences.chunks(chunk) {
                    out.extend(engine.annotate_batch_at(first, slice));
                    first += slice.len() as u64;
                }
                assert_eq!(out, reference, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_sequences() {
        let (space, _) = setup();
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        let engine = BatchAnnotator::new(&model, 4, 0);
        assert!(engine.label_batch(&[]).is_empty());
        let out = engine.label_batch(&[Vec::new()]);
        assert_eq!(out, vec![Vec::new()]);
    }
}
