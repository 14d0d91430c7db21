//! Criterion benchmarks of the end-to-end pipeline stages: Gibbs sweeps,
//! per-sequence decoding latency (the paper reports < 600 ms for a
//! ~100-record sequence), one training step, and the top-k queries.

use criterion::{criterion_group, criterion_main, Criterion};
use ism_c2mn::{C2mn, C2mnConfig, CoupledNetwork, RegionSites, RunIndex, SequenceContext, Weights};
use ism_indoor::BuildingGenerator;
use ism_mobility::{
    Dataset, MobilityEvent, PositioningConfig, PositioningRecord, SimulationConfig, TimePeriod,
};
use ism_pgm::gibbs_sweep;
use ism_queries::{tk_frpq, tk_prq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn setup() -> (ism_indoor::IndoorSpace, Dataset) {
    let mut rng = StdRng::seed_from_u64(1);
    let space = BuildingGenerator::mall().generate(&mut rng).unwrap();
    let dataset = Dataset::generate(
        "bench",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::wifi_mall(),
        None,
        12,
        &mut rng,
    );
    (space, dataset)
}

fn bench_gibbs(c: &mut Criterion) {
    let (space, dataset) = setup();
    let config = C2mnConfig::quick_test();
    let records: Vec<PositioningRecord> = dataset.sequences[0].positioning().take(100).collect();
    let ctx = SequenceContext::build(&space, &config, &records, &[]);
    let weights = Weights::uniform(1.0);
    let net = CoupledNetwork::new(&ctx, &weights);
    let events = vec![MobilityEvent::Stay; ctx.len()];
    let mut runs = RunIndex::new();
    let rs = RegionSites::new(&net, &events, &mut runs);
    c.bench_function("pipeline/gibbs_region_sweep_100", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = ctx.nearest_idx.clone();
        b.iter(|| gibbs_sweep(&rs, black_box(&mut state), 1.0, &mut rng))
    });
}

fn bench_decode(c: &mut Criterion) {
    let (space, dataset) = setup();
    let mut rng = StdRng::seed_from_u64(3);
    let config = C2mnConfig::quick_test();
    let model = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
    let records: Vec<PositioningRecord> = dataset.sequences[0].positioning().take(100).collect();
    // The paper: labeling a ~100-record sequence takes < 600 ms.
    c.bench_function("pipeline/decode_100_record_sequence", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| model.label(black_box(&records), &mut rng))
    });
}

fn bench_train_step(c: &mut Criterion) {
    let (space, dataset) = setup();
    let train: Vec<_> = dataset.sequences.iter().take(4).cloned().collect();
    let config = C2mnConfig {
        max_iter: 1,
        mcmc_m: 4,
        mcmc_burn_in: 0,
        inner_lbfgs_iters: 2,
        ..C2mnConfig::quick_test()
    };
    c.bench_function("pipeline/train_one_outer_iteration", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            C2mn::train(&space, black_box(&train), &config, &mut rng).unwrap()
        })
    });
}

fn bench_queries(c: &mut Criterion) {
    let (space, dataset) = setup();
    let store = {
        let mut store = ism_queries::SemanticsStore::new();
        for seq in &dataset.sequences {
            let times: Vec<f64> = seq.records.iter().map(|r| r.record.t).collect();
            let labels: Vec<_> = seq.truth_labels().collect();
            store.insert(seq.object_id, ism_mobility::merge_labels(&times, &labels));
        }
        store
    };
    let query: Vec<_> = space
        .regions()
        .iter()
        .filter(|r| r.kind == ism_indoor::RegionKind::Shop)
        .map(|r| r.id)
        .take(100)
        .collect();
    let qt = TimePeriod::new(0.0, 1200.0);
    c.bench_function("queries/tk_prq", |b| {
        b.iter(|| tk_prq(black_box(&store), &query, 20, qt))
    });
    c.bench_function("queries/tk_frpq", |b| {
        b.iter(|| tk_frpq(black_box(&store), &query, 20, qt))
    });
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_gibbs, bench_decode, bench_train_step, bench_queries
}
criterion_main!(benches);
