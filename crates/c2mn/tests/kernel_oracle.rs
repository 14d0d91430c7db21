//! Dual-kernel oracle suite for the decode's row fills.
//!
//! [`C2mn::label_with_naive`] runs the same decode loop as
//! [`C2mn::label_with`], but fills every row one `local_log_potential`
//! call per candidate instead of through the chains' run-indexed
//! `fill_row`, and serves as the oracle:
//!
//! * the fast decode path must be **byte-identical** to it for every
//!   model structure, random space/workload, and thread count {1, 2, 4};
//! * the run-indexed row fills (`fill_row`) must equal the per-candidate
//!   potentials bitwise, on random states and on the run layouts their
//!   window logic special-cases.

use ism_c2mn::{
    sequence_seed, BatchAnnotator, C2mn, C2mnConfig, CoupledNetwork, DecodeScratch, EventSites,
    ModelStructure, RegionSites, RunIndex, SequenceContext, Weights,
};
use ism_indoor::{BuildingGenerator, IndoorSpace, RegionId};
use ism_mobility::{
    Dataset, MobilityEvent, PositioningConfig, PositioningRecord, SimulationConfig,
};
use ism_pgm::ConditionalModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STRUCTURES: [fn() -> ModelStructure; 6] = [
    ModelStructure::full,
    ModelStructure::cmn,
    ModelStructure::no_transitions,
    ModelStructure::no_synchronizations,
    ModelStructure::no_event_segmentation,
    ModelStructure::no_space_segmentation,
];

/// A random venue plus positioning sequences simulated in it.
fn workload(seed: u64, objects: usize) -> (IndoorSpace, Vec<Vec<PositioningRecord>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = BuildingGenerator::small_office()
        .generate(&mut rng)
        .unwrap();
    let dataset = Dataset::generate(
        "ko",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::synthetic(8.0, 2.0),
        None,
        objects,
        &mut rng,
    );
    let seqs = dataset
        .sequences
        .iter()
        .map(|s| s.positioning().collect())
        .collect();
    (space, seqs)
}

#[test]
fn cached_decode_is_byte_identical_to_naive_oracle() {
    for (si, structure) in STRUCTURES.iter().enumerate() {
        let (space, seqs) = workload(40 + si as u64, 3);
        let config = C2mnConfig::quick_test().with_structure(structure());
        let model = C2mn::from_weights(&space, config, Weights::uniform(1.1));
        let mut scratch_c = DecodeScratch::new();
        let mut scratch_n = DecodeScratch::new();
        for (i, records) in seqs.iter().enumerate() {
            let seed = 1_000 * si as u64 + i as u64;
            let cached =
                model.label_with(records, &mut StdRng::seed_from_u64(seed), &mut scratch_c);
            let naive =
                model.label_with_naive(records, &mut StdRng::seed_from_u64(seed), &mut scratch_n);
            assert_eq!(cached, naive, "structure {si} sequence {i}");
        }
    }
}

/// Two Vita-like 250-record p-sequences (Table 5's first grid point), the
/// length the backfill benchmark decodes.
fn vita_workload(seed: u64) -> (IndoorSpace, Vec<Vec<PositioningRecord>>) {
    const LEN: usize = 250;
    let mut rng = StdRng::seed_from_u64(seed);
    let space = BuildingGenerator::vita_like().generate(&mut rng).unwrap();
    let mut seqs = Vec::new();
    while seqs.len() < 2 {
        let dataset = Dataset::generate(
            "vita",
            &space,
            SimulationConfig::paper(),
            PositioningConfig::synthetic(5.0, 3.0),
            None,
            4,
            &mut rng,
        );
        for s in &dataset.sequences {
            if seqs.len() < 2 && s.records.len() >= LEN {
                seqs.push(s.positioning().take(LEN).collect());
            }
        }
    }
    (space, seqs)
}

/// The `small_office` sequences above are short, and so are their label
/// runs. These weights resemble ones trained on Vita-like traffic, with
/// every segmentation feature weighted; on Vita-like samples they decode
/// to event runs of about 80 records and region runs of about 30
/// (site-weighted means).
#[test]
fn cached_decode_matches_naive_oracle_on_long_vita_runs() {
    let weights = Weights([
        1.5, 0.06, 1.5, 1.0, 0.75, 0.75, 0.05, 0.1, 0.01, 0.02, 0.02, 0.05,
    ]);
    let (space, seqs) = vita_workload(250);
    for (si, structure) in STRUCTURES.iter().enumerate() {
        let config = C2mnConfig::quick_test().with_structure(structure());
        let model = C2mn::from_weights(&space, config, weights.clone());
        let mut scratch_c = DecodeScratch::new();
        let mut scratch_n = DecodeScratch::new();
        for (i, records) in seqs.iter().enumerate() {
            let seed = 7_000 + 10 * si as u64 + i as u64;
            let cached =
                model.label_with(records, &mut StdRng::seed_from_u64(seed), &mut scratch_c);
            let naive =
                model.label_with_naive(records, &mut StdRng::seed_from_u64(seed), &mut scratch_n);
            assert_eq!(cached, naive, "structure {si} sequence {i}");
        }
    }
}

#[test]
fn batch_decode_matches_naive_sequential_reference_across_threads() {
    let (space, seqs) = workload(7, 6);
    let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
    let base_seed = 99;
    // Sequential naive reference with the batch seed derivation.
    let mut scratch = DecodeScratch::new();
    let reference: Vec<_> = seqs
        .iter()
        .enumerate()
        .map(|(i, records)| {
            let mut rng = StdRng::seed_from_u64(sequence_seed(base_seed, i));
            model.label_with_naive(records, &mut rng, &mut scratch)
        })
        .collect();
    for threads in [1, 2, 4] {
        let batch = BatchAnnotator::new(&model, threads, base_seed).label_batch(&seqs);
        assert_eq!(batch, reference, "threads {threads}");
    }
}

/// How a state layout picks the label at site `k`.
#[derive(Clone, Copy)]
enum Pick {
    Random,
    /// Repeat the previous site's label where the candidates allow it.
    Same,
    /// Differ from the previous site's label where the candidates allow it.
    Differ,
}

/// The pick at site `k` of `n`.
type Layout = fn(usize, usize) -> Pick;

/// Named run layouts: independent labels, one run over the whole
/// sequence, strictly alternating labels, and a run that starts at site 0
/// or ends at site n − 1.
const LAYOUTS: [(&str, Layout); 5] = [
    ("random", |_, _| Pick::Random),
    (
        "one run",
        |k, _| if k == 0 { Pick::Random } else { Pick::Same },
    ),
    ("alternating", |k, _| {
        if k == 0 {
            Pick::Random
        } else {
            Pick::Differ
        }
    }),
    ("head run", |k, n| {
        if k > 0 && k <= n / 2 {
            Pick::Same
        } else {
            Pick::Random
        }
    }),
    ("tail run", |k, n| {
        if k > n / 2 {
            Pick::Same
        } else {
            Pick::Random
        }
    }),
];

/// Region candidate indices laid out by `pick`.
fn region_layout(ctx: &SequenceContext<'_>, pick: Layout, rng: &mut StdRng) -> Vec<usize> {
    let n = ctx.len();
    let mut state: Vec<usize> = Vec::with_capacity(n);
    for k in 0..n {
        let cands = &ctx.candidates[k];
        let random = rng.random_range(0..cands.len());
        let prev = (k > 0).then(|| ctx.candidates[k - 1][state[k - 1]]);
        let c = match (pick(k, n), prev) {
            (Pick::Same, Some(p)) => ctx.candidate_index(k, p).unwrap_or(random),
            (Pick::Differ, Some(p)) if cands[random] == p && cands.len() > 1 => {
                (random + 1) % cands.len()
            }
            _ => random,
        };
        state.push(c);
    }
    state
}

/// Event indices laid out by `pick`.
fn event_layout(n: usize, pick: Layout, rng: &mut StdRng) -> Vec<usize> {
    let mut state: Vec<usize> = Vec::with_capacity(n);
    for k in 0..n {
        let c = match (pick(k, n), k.checked_sub(1).map(|j| state[j])) {
            (Pick::Same, Some(p)) => p,
            (Pick::Differ, Some(p)) => 1 - p,
            _ => rng.random_range(0..MobilityEvent::ALL.len()),
        };
        state.push(c);
    }
    state
}

/// `fill_row` against `local_log_potential`, bit for bit, at every site.
fn assert_rows_match<M: ConditionalModel>(model: &M, state: &[usize], what: &str) {
    let mut row = Vec::new();
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        row.clear();
        row.resize(k, f64::NAN);
        model.fill_row(site, state, &mut row);
        for (c, v) in row.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                model.local_log_potential(site, c, state).to_bits(),
                "{what}: site {site} cand {c}"
            );
        }
    }
}

/// The run-indexed row fills of both chains equal the per-candidate
/// potentials bitwise, for every structure, on random states and on the
/// run layouts their window logic special-cases, at every sequence length
/// down to one record.
#[test]
fn row_fills_match_per_candidate_potentials() {
    for (si, structure) in STRUCTURES.iter().enumerate() {
        let (space, seqs) = workload(300 + si as u64, 2);
        let config = C2mnConfig::quick_test().with_structure(structure());
        let mut rng = StdRng::seed_from_u64(600 + si as u64);
        // Distinct weights, so a feature summed into the wrong slot shows.
        let weights = Weights(std::array::from_fn(|_| rng.random_range(-2.0..2.0)));
        let mut inputs: Vec<&[PositioningRecord]> = seqs.iter().map(Vec::as_slice).collect();
        inputs.extend((1..=3).map(|n| &seqs[0][..n]));
        let (mut event_runs, mut region_runs) = (RunIndex::new(), RunIndex::new());
        for records in inputs {
            let ctx = SequenceContext::build(&space, &config, records, &[]);
            let net = CoupledNetwork::new(&ctx, &weights);
            let n = ctx.len();
            for (r_name, r_pick) in LAYOUTS {
                for (e_name, e_pick) in LAYOUTS {
                    let r_state = region_layout(&ctx, r_pick, &mut rng);
                    let e_state = event_layout(n, e_pick, &mut rng);
                    let regions: Vec<RegionId> = r_state
                        .iter()
                        .enumerate()
                        .map(|(k, &c)| ctx.candidates[k][c])
                        .collect();
                    let events: Vec<MobilityEvent> =
                        e_state.iter().map(|&c| MobilityEvent::ALL[c]).collect();
                    let what = format!("structure {si}, n {n}, regions {r_name}, events {e_name}");
                    let rs = RegionSites::new(&net, &events, &mut event_runs);
                    assert_rows_match(&rs, &r_state, &format!("region row, {what}"));
                    let es = EventSites::new(&net, &regions, &mut region_runs);
                    assert_rows_match(&es, &e_state, &format!("event row, {what}"));
                }
            }
        }
    }
}
