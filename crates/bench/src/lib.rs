//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the paper's evaluation (§V) has a binary in
//! `src/bin/` built on these helpers: dataset construction, method
//! training/labeling, accuracy evaluation, query-precision evaluation, and
//! aligned table printing.
//!
//! **Scaling.** The paper's experiments ran on a 10-core Xeon over five
//! million records with `M = 800` MCMC samples. The defaults here are
//! scaled down to finish in minutes on a laptop; set the environment
//! variables `REPRO_OBJECTS`, `REPRO_MCMC_M`, `REPRO_MAX_ITER`, `REPRO_K`
//! to approach paper scale (`REPRO_THREADS` / `REPRO_SHARDS` tune worker
//! and store-shard counts without changing any result). The *shape* of the
//! results (method ranking, trends across sweeps) is what the harness
//! reproduces; absolute numbers depend on scale.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use ism_baselines::{HmmDc, HmmDcConfig, SapConfig, SapDa, SapDv, Smot, SmotConfig};
use ism_c2mn::{
    sequence_seed, BatchAnnotator, C2mn, C2mnConfig, FirstConfigured, ModelStructure, Trainer,
};
use ism_eval::{top_k_precision, AccuracyAccumulator, LabelAccuracy};
use ism_indoor::{BuildingGenerator, IndoorSpace, RegionId, RegionKind};
use ism_mobility::{
    merge_labels, Dataset, LabeledSequence, MobilityEvent, PositioningConfig, PositioningRecord,
    PreprocessConfig, SimulationConfig, TimePeriod,
};
use ism_queries::{tk_frpq_sharded, tk_prq_sharded, ShardedSemanticsStore};
use ism_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Experiment scale, overridable through environment variables.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Objects simulated for each dataset (`REPRO_OBJECTS`).
    pub objects: usize,
    /// MCMC samples per learning step (`REPRO_MCMC_M`).
    pub mcmc_m: usize,
    /// Outer iterations of Algorithm 1 (`REPRO_MAX_ITER`).
    pub max_iter: usize,
    /// Top-k size for the query experiments (`REPRO_K`).
    pub k: usize,
    /// Worker threads for batch annotation (`REPRO_THREADS`); defaults to
    /// the machine's available parallelism. Thread count never changes
    /// results — see [`BatchAnnotator`]'s determinism contract.
    pub threads: usize,
    /// Shards of the semantics stores behind the query experiments
    /// (`REPRO_SHARDS`). Shard count never changes query results — see
    /// the `ism-queries` determinism contract.
    pub shards: usize,
}

impl Scale {
    /// Reads the scale from the environment, with laptop defaults.
    pub fn from_env() -> Self {
        let get = |name: &str, default: usize| -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Scale {
            objects: get("REPRO_OBJECTS", 60),
            mcmc_m: get("REPRO_MCMC_M", 10),
            max_iter: get("REPRO_MAX_ITER", 6),
            k: get("REPRO_K", 10),
            threads: get("REPRO_THREADS", default_threads).max(1),
            shards: get("REPRO_SHARDS", 8).max(1),
        }
    }

    /// The worker pool query evaluation fans out over.
    pub fn pool(&self) -> WorkerPool {
        WorkerPool::new(self.threads)
    }

    /// The C2MN configuration at this scale (real-data profile).
    pub fn c2mn_config(&self) -> C2mnConfig {
        C2mnConfig {
            max_iter: self.max_iter,
            mcmc_m: self.mcmc_m,
            mcmc_burn_in: 1,
            inner_lbfgs_iters: 5,
            uncertainty_radius: 10.0,
            ..C2mnConfig::paper_real()
        }
    }
}

/// Splits long sequences into chunks so segment-window costs stay bounded.
///
/// `chunks(max_len)` can leave a final chunk of a single record, which is
/// too short to label as a sequence. Dropping it (the old behaviour)
/// silently removed records from every accuracy denominator; instead the
/// tail is folded into the preceding chunk, so chunks hold between 2 and
/// `max_len + 1` records and every record of a labelable (≥ 2 records)
/// sequence is conserved.
pub fn chunk_sequences(seqs: &[LabeledSequence], max_len: usize) -> Vec<LabeledSequence> {
    let max_len = max_len.max(2);
    let mut out = Vec::new();
    for s in seqs {
        let first_of_seq = out.len();
        for chunk in s.records.chunks(max_len) {
            out.push(LabeledSequence {
                object_id: s.object_id,
                records: chunk.to_vec(),
            });
        }
        if out.len() > first_of_seq && out[out.len() - 1].records.len() < 2 {
            if out.len() - first_of_seq >= 2 {
                // Fold the 1-record tail into the previous chunk.
                let tail = out.pop().unwrap();
                out.last_mut().unwrap().records.extend(tail.records);
            } else {
                // A 1-record sequence has no previous chunk and cannot be
                // labelled as a sequence at all.
                out.pop();
            }
        }
    }
    out
}

/// Builds the "mall" dataset standing in for the paper's real Wi-Fi data:
/// a generated 7-floor mall, Wi-Fi-like noise, η/ψ preprocessing.
pub fn mall_dataset(scale: &Scale, seed: u64) -> (IndoorSpace, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = BuildingGenerator::mall().generate(&mut rng).unwrap();
    let mut dataset = Dataset::generate(
        "mall",
        &space,
        SimulationConfig::paper(),
        PositioningConfig::wifi_mall(),
        Some(PreprocessConfig::default()),
        scale.objects,
        &mut rng,
    );
    dataset.sequences = chunk_sequences(&dataset.sequences, 200);
    (space, dataset)
}

/// Builds one synthetic dataset over a Vita-like building for a `(T, μ)`
/// grid point (Table V).
pub fn synthetic_dataset(
    space: &IndoorSpace,
    t: f64,
    mu: f64,
    objects: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dataset = Dataset::generate(
        &format!("T{}mu{}", t as u32, mu as u32),
        space,
        SimulationConfig::paper(),
        PositioningConfig::synthetic(t, mu),
        None,
        objects,
        &mut rng,
    );
    dataset.sequences = chunk_sequences(&dataset.sequences, 250);
    dataset
}

/// Generates the Vita-like venue of the synthetic experiments.
pub fn vita_space(seed: u64) -> IndoorSpace {
    BuildingGenerator::vita_like()
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

/// A labeling closure: per-record (region, event) labels from a p-sequence.
pub type Labeler<'a> =
    Box<dyn Fn(&[PositioningRecord], &mut StdRng) -> Vec<(RegionId, MobilityEvent)> + 'a>;

enum LabelerKind<'a> {
    /// An arbitrary per-sequence closure (the non-C2MN baselines).
    PerSequence(Labeler<'a>),
    /// A trained C2MN decoded through the parallel [`BatchAnnotator`].
    Batch { model: &'a C2mn<'a>, threads: usize },
}

/// A method under evaluation: a name plus a labeling strategy.
pub struct Method<'a> {
    /// Display name matching the paper's tables.
    pub name: &'static str,
    kind: LabelerKind<'a>,
}

impl<'a> Method<'a> {
    /// Creates a method from a name and labeling closure.
    pub fn new<F>(name: &'static str, labeler: F) -> Self
    where
        F: Fn(&[PositioningRecord], &mut StdRng) -> Vec<(RegionId, MobilityEvent)> + 'a,
    {
        Method {
            name,
            kind: LabelerKind::PerSequence(Box::new(labeler)),
        }
    }

    /// Creates a method decoding a trained C2MN on `threads` workers.
    pub fn batched(name: &'static str, model: &'a C2mn<'a>, threads: usize) -> Self {
        Method {
            name,
            kind: LabelerKind::Batch { model, threads },
        }
    }

    /// Labels a whole batch of sequences; sequence `i` uses an RNG seeded
    /// from `sequence_seed(seed, i)`.
    ///
    /// Batched methods shard the work across their worker pool; closure
    /// methods run sequentially. Both derive per-sequence RNGs the same
    /// way, so a batched method returns exactly what its sequential
    /// counterpart would.
    pub fn label_all(
        &self,
        sequences: &[Vec<PositioningRecord>],
        seed: u64,
    ) -> Vec<Vec<(RegionId, MobilityEvent)>> {
        match &self.kind {
            LabelerKind::Batch { model, threads } => {
                BatchAnnotator::new(model, *threads, seed).label_batch(sequences)
            }
            LabelerKind::PerSequence(labeler) => sequences
                .iter()
                .enumerate()
                .map(|(i, records)| {
                    let mut rng = StdRng::seed_from_u64(sequence_seed(seed, i));
                    labeler(records, &mut rng)
                })
                .collect(),
        }
    }
}

/// Collects each test sequence's positioning records for batch labeling.
pub fn positioning_batch(test: &[LabeledSequence]) -> Vec<Vec<PositioningRecord>> {
    test.iter().map(|s| s.positioning().collect()).collect()
}

/// The C2MN structural variants in the paper's table order.
pub const C2MN_VARIANTS: [(&str, ModelStructure); 6] = [
    ("CMN", ModelStructure::cmn()),
    ("C2MN/Tran", ModelStructure::no_transitions()),
    ("C2MN/Syn", ModelStructure::no_synchronizations()),
    ("C2MN/ES", ModelStructure::no_event_segmentation()),
    ("C2MN/SS", ModelStructure::no_space_segmentation()),
    ("C2MN", ModelStructure::full()),
];

/// Trains the C2MN family on `train`, returning `(name, model)` pairs.
///
/// Each variant trains through a [`Trainer`] keyed by `seed` with its
/// per-sequence MCMC sampling fanned out over `pool` — thread count never
/// changes the learned weights (the trainer's determinism contract), so
/// `REPRO_THREADS` scales training wall-clock without moving any reported
/// number.
pub fn train_c2mn_family<'a>(
    space: &'a IndoorSpace,
    train: &[LabeledSequence],
    base: &C2mnConfig,
    variants: &[(&'static str, ModelStructure)],
    seed: u64,
    pool: &WorkerPool,
) -> Vec<(&'static str, C2mn<'a>)> {
    variants
        .iter()
        .map(|(name, structure)| {
            let config = base.clone().with_structure(*structure);
            let outcome = Trainer::new(space, config)
                .seed(seed)
                .pool(pool)
                .run(train)
                .expect("training data");
            (*name, outcome.model)
        })
        .collect()
}

/// Builds all ten methods of Table IV: the four non-C2MN baselines plus
/// the six C2MN structures (pre-trained, decoded on `threads` workers).
pub fn all_methods<'a>(
    space: &'a IndoorSpace,
    train: &'a [LabeledSequence],
    family: &'a [(&'static str, C2mn<'a>)],
    threads: usize,
) -> Vec<Method<'a>> {
    let mut methods: Vec<Method<'a>> = Vec::new();
    let smot = Smot::new(space, SmotConfig::default());
    methods.push(Method::new("SMoT", move |r, _| smot.label(r)));
    let hmm_dc = HmmDc::train(space, train, HmmDcConfig::default());
    methods.push(Method::new("HMM+DC", move |r, _| hmm_dc.label(r)));
    let sapdv = SapDv::new(space, SapConfig::default());
    methods.push(Method::new("SAPDV", move |r, _| sapdv.label(r)));
    let sapda = SapDa::new(space, SapConfig::default());
    methods.push(Method::new("SAPDA", move |r, _| sapda.label(r)));
    for (name, model) in family {
        methods.push(Method::batched(name, model, threads));
    }
    methods
}

/// Evaluates one method's labeling accuracy over the test sequences
/// (batched: C2MN methods decode in parallel).
pub fn evaluate_accuracy(
    method: &Method<'_>,
    test: &[LabeledSequence],
    seed: u64,
) -> LabelAccuracy {
    let sequences = positioning_batch(test);
    let all_labels = method.label_all(&sequences, seed);
    let mut acc = AccuracyAccumulator::new();
    for (labels, seq) in all_labels.iter().zip(test) {
        acc.add(labels, seq.truth_labels());
    }
    acc.finish()
}

/// Builds a [`ShardedSemanticsStore`] over `shards` shards from a method's
/// annotations of the test set.
///
/// C2MN methods decode *and shard* in parallel
/// ([`BatchAnnotator::annotate_into_store`] — no intermediate flat
/// collection); closure baselines label sequentially. Both derive
/// per-sequence RNGs from [`sequence_seed`]`(seed, i)`, append in item
/// order and seal once, so the store content is independent of thread and
/// shard count.
pub fn annotate_store(
    method: &Method<'_>,
    test: &[LabeledSequence],
    seed: u64,
    shards: usize,
) -> ShardedSemanticsStore {
    let sequences = positioning_batch(test);
    match &method.kind {
        LabelerKind::Batch { model, threads } => {
            let object_ids: Vec<u64> = test.iter().map(|s| s.object_id).collect();
            BatchAnnotator::new(model, *threads, seed).annotate_into_store(
                &sequences,
                &object_ids,
                shards,
            )
        }
        LabelerKind::PerSequence(_) => {
            let all_labels = method.label_all(&sequences, seed);
            let mut store = ShardedSemanticsStore::new(shards);
            for ((records, labels), seq) in sequences.iter().zip(&all_labels).zip(test) {
                let times: Vec<f64> = records.iter().map(|r| r.t).collect();
                store.append(seq.object_id, merge_labels(&times, labels));
            }
            store.seal();
            store
        }
    }
}

/// Ground-truth store from the test labels themselves, sharded like
/// [`annotate_store`] output.
pub fn truth_store(test: &[LabeledSequence], shards: usize) -> ShardedSemanticsStore {
    let mut store = ShardedSemanticsStore::new(shards);
    for seq in test {
        let times: Vec<f64> = seq.records.iter().map(|r| r.record.t).collect();
        let labels: Vec<(RegionId, MobilityEvent)> = seq.truth_labels().collect();
        store.append(seq.object_id, merge_labels(&times, &labels));
    }
    store.seal();
    store
}

/// Average TkPRQ and TkFRPQ precision of a store against the ground truth
/// over `trials` random query sets within `qt_minutes`-long windows,
/// evaluating both stores' queries on `pool`.
#[allow(clippy::too_many_arguments)]
pub fn query_precision(
    space: &IndoorSpace,
    store: &ShardedSemanticsStore,
    truth: &ShardedSemanticsStore,
    k: usize,
    qt_minutes: f64,
    trials: usize,
    seed: u64,
    pool: &WorkerPool,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shops: Vec<RegionId> = space
        .regions()
        .iter()
        .filter(|r| r.kind == RegionKind::Shop)
        .map(|r| r.id)
        .collect();
    let horizon = SimulationConfig::paper().duration;
    let mut prq_sum = 0.0;
    let mut frpq_sum = 0.0;
    for _ in 0..trials {
        // Random query set: half of the shop regions (paper: 101 of 202).
        let mut q = shops.clone();
        for i in (1..q.len()).rev() {
            let j = rng.random_range(0..=i);
            q.swap(i, j);
        }
        q.truncate((shops.len() / 2).max(1));
        let start = rng.random_range(0.0..(horizon - qt_minutes * 60.0).max(1.0));
        let qt = TimePeriod::new(start, start + qt_minutes * 60.0);

        let true_prq: Vec<RegionId> = tk_prq_sharded(truth, &q, k, qt, pool)
            .into_iter()
            .map(|x| x.0)
            .collect();
        let got_prq: Vec<RegionId> = tk_prq_sharded(store, &q, k, qt, pool)
            .into_iter()
            .map(|x| x.0)
            .collect();
        prq_sum += top_k_precision(&got_prq, &true_prq);

        let true_frpq: Vec<(RegionId, RegionId)> = tk_frpq_sharded(truth, &q, k, qt, pool)
            .into_iter()
            .map(|x| x.0)
            .collect();
        let got_frpq: Vec<(RegionId, RegionId)> = tk_frpq_sharded(store, &q, k, qt, pool)
            .into_iter()
            .map(|x| x.0)
            .collect();
        frpq_sum += top_k_precision(&got_frpq, &true_frpq);
    }
    (prq_sum / trials as f64, frpq_sum / trials as f64)
}

/// Prints an aligned table followed by a machine-readable CSV block.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!("\ncsv:{}", headers.join(","));
    for row in rows {
        println!("csv:{}", row.join(","));
    }
}

/// Convenience: format a float with three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Returns a C2MN config with `first_configured = Regions` (the C2MN@R
/// variant of Fig. 11).
pub fn at_r_config(base: &C2mnConfig) -> C2mnConfig {
    C2mnConfig {
        first_configured: FirstConfigured::Regions,
        ..base.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reads_defaults() {
        let s = Scale::from_env();
        assert!(s.objects > 0 && s.mcmc_m > 0 && s.max_iter > 0 && s.k > 0);
        assert!(s.threads > 0 && s.shards > 0);
        assert_eq!(s.pool().threads(), s.threads);
    }

    fn tiny_dataset(seed: u64, objects: usize) -> Dataset {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(
            "d",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(5.0, 2.0),
            None,
            objects,
            &mut rng,
        )
    }

    #[test]
    fn chunking_respects_bounds() {
        let d = tiny_dataset(2, 3);
        let chunks = chunk_sequences(&d.sequences, 40);
        // A 1-record tail is folded into the previous chunk, so chunk
        // lengths span 2..=max_len+1.
        assert!(chunks
            .iter()
            .all(|c| c.records.len() <= 41 && c.records.len() >= 2));
    }

    #[test]
    fn chunking_conserves_records() {
        // Regression: trailing chunks of length 1 were silently dropped,
        // removing records from every accuracy denominator. Check record
        // conservation across chunk sizes that do and do not divide the
        // sequence lengths (max_len = k and k+1 sweep the remainder space).
        let d = tiny_dataset(3, 4);
        let orig: usize = d
            .sequences
            .iter()
            .map(|s| s.records.len())
            .filter(|&n| n >= 2)
            .sum();
        assert!(orig > 0);
        for max_len in [2, 3, 5, 7, 11, 40, 1000] {
            let chunks = chunk_sequences(&d.sequences, max_len);
            let total: usize = chunks.iter().map(|c| c.records.len()).sum();
            assert_eq!(total, orig, "records lost at max_len={max_len}");
        }
    }

    #[test]
    fn chunking_folds_one_record_tail() {
        // 7 records chunked at 3 → [3, 3, 1]: the tail must fold into the
        // middle chunk, yielding [3, 4].
        let d = tiny_dataset(4, 1);
        let seq = LabeledSequence {
            object_id: d.sequences[0].object_id,
            records: d.sequences[0].records.iter().take(7).cloned().collect(),
        };
        assert_eq!(seq.records.len(), 7, "simulation produced a short run");
        let chunks = chunk_sequences(&[seq], 3);
        let lens: Vec<usize> = chunks.iter().map(|c| c.records.len()).collect();
        assert_eq!(lens, vec![3, 4]);
    }

    #[test]
    fn batched_method_matches_sequential_closure() {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let d = tiny_dataset(5, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let config = C2mnConfig::quick_test();
        let model = C2mn::train(&space, &d.sequences, &config, &mut rng).unwrap();
        let batched = Method::batched("C2MN", &model, 4);
        let closure = Method::new("C2MN", |r, rng| model.label(r, rng));
        let sequences = positioning_batch(&d.sequences);
        assert_eq!(
            batched.label_all(&sequences, 11),
            closure.label_all(&sequences, 11)
        );
    }

    #[test]
    fn truth_store_has_one_entry_per_object() {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dataset::generate(
            "d",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(5.0, 2.0),
            None,
            4,
            &mut rng,
        );
        // Chunked / repeated sequences of one object merge into one entry.
        let mut distinct: Vec<u64> = d.sequences.iter().map(|s| s.object_id).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let store = truth_store(&d.sequences, 3);
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.len(), distinct.len());
    }

    #[test]
    fn annotate_store_is_shard_and_thread_invariant() {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let d = tiny_dataset(7, 5);
        let mut rng = StdRng::seed_from_u64(8);
        let config = C2mnConfig::quick_test();
        let model = C2mn::train(&space, &d.sequences, &config, &mut rng).unwrap();
        let truth = truth_store(&d.sequences, 4);
        let reference = {
            let m = Method::batched("C2MN", &model, 1);
            let store = annotate_store(&m, &d.sequences, 11, 4);
            query_precision(&space, &store, &truth, 5, 10.0, 3, 5, &WorkerPool::new(1))
        };
        for (threads, shards) in [(2, 1), (4, 4), (3, 9)] {
            let m = Method::batched("C2MN", &model, threads);
            let truth = truth_store(&d.sequences, shards);
            let store = annotate_store(&m, &d.sequences, 11, shards);
            let got = query_precision(
                &space,
                &store,
                &truth,
                5,
                10.0,
                3,
                5,
                &WorkerPool::new(threads),
            );
            assert_eq!(got, reference, "threads={threads} shards={shards}");
        }
    }
}
