//! `bulk_vita`: a closed-loop backfill. One client pushes Vita-like
//! synthetic p-sequences (Table 5's first grid point, T = 5 s, μ = 3 m;
//! 250 records each, one per object) through one ingest session as fast
//! as pushes return, and seals once; the backfill runs [`ROUNDS`] times
//! into fresh engines that start from the same preloaded store of earlier
//! traffic. Context building and the Gibbs/ICM sweeps take nearly all the
//! time, so decode-side changes show here first. Queries, dashboards and
//! reopens then run over the preloaded and backfilled store.

use crate::day::synthetic_day;
use crate::harness::{
    batch_phase, check_answers, dashboards, distinct_queries, one_sequence_per_object,
    one_shot_phase, record_batches, record_queries, record_recover, record_store, record_visible,
    records_of, reopen_phase, sample_indices, save_snapshot, serial_decode_pass, setup_start,
    Counters, Ctx, THREADS,
};
use ism_c2mn::{sequence_seed, C2mnConfig, DecodeScratch, Trainer};
use ism_engine::EngineBuilder;
use ism_indoor::{BuildingGenerator, IndoorSpace, RegionId};
use ism_mobility::{
    LabeledSequence, MobilitySemantics, PositioningConfig, PositioningRecord, SimulationConfig,
};
use ism_queries::{SemanticsStore, ShardedSemanticsStore, DEFAULT_SHARDS};
use ism_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed of the venue: the building is fixed, the traffic comes from the
/// workload seed.
pub const VENUE_SEED: u64 = 7;
/// Seed of the training data and the trainer: the deployed model is fixed
/// too, so decode cost does not follow the workload seed through it.
pub const MODEL_SEED: u64 = 11;
/// Sequences backfilled per round, per second of `--seconds`.
const SEQUENCES_PER_SECOND: usize = 20;
/// Length of every backfilled sequence: the chunk length of
/// `synthetic_dataset`.
const CHUNK: usize = 250;
/// Backfills per run, each into a fresh engine; `visible_p50_ms` is the
/// median round, so a slow stretch of the host moves it less.
pub const ROUNDS: usize = 5;
/// Objects whose earlier traffic every engine starts with, so reads and
/// restarts measure a store of realistic size rather than microseconds.
const PRELOAD_OBJECTS: u64 = 20_000;

/// The model configuration: the decoder of `C2mnConfig::quick_test`, the
/// profile of the repository's examples and annotate bench, trained with
/// fewer outer iterations so set-up stays short.
pub fn decode_config() -> C2mnConfig {
    C2mnConfig {
        max_iter: 3,
        mcmc_m: 8,
        ..C2mnConfig::quick_test()
    }
}

/// The simulation horizon: query windows are placed in it, not in the
/// span of one seed's data, so query cost does not follow the seed.
pub fn horizon() -> ism_mobility::TimePeriod {
    ism_mobility::TimePeriod::new(0.0, SimulationConfig::paper().duration)
}

/// Generates a venue inside the `indoor.generate` span.
pub fn venue(ctx: &mut Ctx<'_>, generator: BuildingGenerator) -> Result<IndoorSpace, String> {
    let t0 = Instant::now();
    let venue = ctx.span("indoor.generate", None, || {
        generator.generate(&mut StdRng::seed_from_u64(VENUE_SEED))
    });
    ctx.layer
        .set("indoor.generate_s", t0.elapsed().as_secs_f64());
    ctx.checks
        .op("generate venue", venue)
        .ok_or_else(|| "venue generation failed".to_string())
}

/// Trains a model on `train` inside the `c2mn.train` span.
pub fn train<'v>(
    ctx: &mut Ctx<'_>,
    venue: &'v IndoorSpace,
    train: &[LabeledSequence],
    seed: u64,
) -> Result<ism_c2mn::C2mn<'v>, String> {
    let pool = WorkerPool::new(THREADS);
    let t0 = Instant::now();
    let outcome = ctx.span("c2mn.train", None, || {
        Trainer::new(venue, decode_config())
            .seed(seed)
            .pool(&pool)
            .run(train)
    });
    ctx.layer.set("c2mn.train_s", t0.elapsed().as_secs_f64());
    ctx.checks
        .op("train", outcome)
        .map(|o| o.model)
        .ok_or_else(|| "training failed".to_string())
}

/// Sizes of one run.
struct Sizes {
    preload: u64,
    sequences: usize,
    train_sequences: usize,
    query_cycles: usize,
    batches: usize,
    /// Reopens after each round.
    reopens: usize,
    check_objects: usize,
    serial_sample: usize,
}

impl Sizes {
    fn of(ctx: &Ctx<'_>) -> Self {
        if ctx.tiny {
            return Sizes {
                preload: 100,
                sequences: 12,
                train_sequences: 4,
                query_cycles: 1,
                batches: 5,
                reopens: 1,
                check_objects: 2,
                serial_sample: 4,
            };
        }
        Sizes {
            preload: PRELOAD_OBJECTS,
            sequences: SEQUENCES_PER_SECOND * ctx.seconds as usize,
            train_sequences: 24,
            query_cycles: 10,
            batches: 200,
            reopens: 5,
            check_objects: 4,
            serial_sample: 60,
        }
    }
}

/// Vita-like p-sequences of [`CHUNK`] records, one per object.
fn vita_sequences(venue: &IndoorSpace, count: usize, seed: u64) -> Vec<LabeledSequence> {
    one_sequence_per_object(
        venue,
        PositioningConfig::synthetic(5.0, 3.0),
        None,
        CHUNK,
        count,
        seed,
    )
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let sizes = Sizes::of(ctx);
    let mut setup_s = Vec::new();
    for rep in 0..ctx.setup_reps {
        let t0 = setup_start(ctx, rep);
        let venue = venue(ctx, BuildingGenerator::vita_like())?;
        let regions: Vec<RegionId> = venue.regions().iter().map(|r| r.id).collect();
        let preload_flat =
            synthetic_day(&regions, sizes.preload, horizon().end, ctx.stream_seed(0));
        let build_t0 = Instant::now();
        let preload = ctx.span("queries.build", None, || {
            ShardedSemanticsStore::from_store(&preload_flat, DEFAULT_SHARDS)
        });
        ctx.layer
            .set("queries.build_s", build_t0.elapsed().as_secs_f64());
        let sim_t0 = Instant::now();
        let (mut pushed, train_set) = ctx.span("mobility.generate", None, || {
            (
                vita_sequences(&venue, sizes.sequences, ctx.stream_seed(1)),
                vita_sequences(&venue, sizes.train_sequences, MODEL_SEED),
            )
        });
        // Backfilled objects get ids after the preloaded ones.
        pushed.iter_mut().for_each(|s| s.object_id += sizes.preload);
        ctx.layer
            .set("mobility.simulate_s", sim_t0.elapsed().as_secs_f64());
        if pushed.len() < sizes.sequences {
            return Err(format!(
                "{} sequences generated, {} needed",
                pushed.len(),
                sizes.sequences
            ));
        }
        let model = train(ctx, &venue, &train_set, MODEL_SEED)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < ctx.setup_reps {
            continue;
        }
        ctx.set_setup(&setup_s);
        let records: usize = pushed.iter().map(|s| s.records.len()).sum();
        ctx.layer.set("mobility.records", records as f64);
        println!(
            "  inputs: {} preloaded objects, {} sequences, {records} records, {} regions",
            preload.len(),
            pushed.len(),
            regions.len()
        );
        return timed(ctx, &sizes, &venue, &model, &preload, &pushed);
    }
    Err("no set-up ran".into())
}

fn timed(
    ctx: &mut Ctx<'_>,
    sizes: &Sizes,
    venue: &IndoorSpace,
    model: &ism_c2mn::C2mn<'_>,
    preload: &ShardedSemanticsStore,
    pushed: &[LabeledSequence],
) -> Result<(), String> {
    let records: usize = pushed.iter().map(|s| s.records.len()).sum();
    let base_seed = ctx.stream_seed(4);
    let regions: Vec<RegionId> = venue.regions().iter().map(|r| r.id).collect();
    let span = horizon();
    let queries = distinct_queries(&regions, span, sizes.query_cycles, ctx.stream_seed(5));
    let boards = dashboards(
        &regions,
        span,
        span.duration(),
        sizes.batches,
        ctx.stream_seed(6),
    );
    let snapshot = ctx.work_dir.join("bulk_vita.ism");
    let mut counters = Counters::default();
    let (mut round_s, mut push_s, mut flush_s, mut seal_s) = (Vec::new(), 0.0, 0.0, 0.0);
    let (mut latency, mut answers) = (Vec::new(), Vec::new());
    let (mut per_batch, mut batch_answers, mut open_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..ROUNDS {
        // Fresh engine, same store, inputs and seeds: every round does
        // the same work. Building the engine and copying the inputs is
        // not timed.
        let built = ctx.span("engine.build", Some(round as u64), || {
            EngineBuilder::new()
                .threads(THREADS)
                .base_seed(base_seed)
                .initial_store(preload.clone())
                .build(model.clone())
        });
        let live = ctx
            .checks
            .op("build engine", built)
            .ok_or("engine build failed")?;
        let inputs: Vec<(u64, Vec<PositioningRecord>)> = pushed
            .iter()
            .map(|s| (s.object_id, records_of(s)))
            .collect();
        // Every backfilled sequence is due when its round starts.
        let before = Counters::read(&live);
        let start = Instant::now();
        let mut session = live.ingest();
        for (i, (object_id, recs)) in inputs.into_iter().enumerate() {
            let t0 = Instant::now();
            ctx.span("engine.push", Some(i as u64), || {
                session.push(object_id, recs)
            });
            push_s += t0.elapsed().as_secs_f64();
        }
        let t0 = Instant::now();
        ctx.span("engine.flush", Some(round as u64), || session.flush());
        flush_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sealed = ctx.span("engine.seal", Some(round as u64), || session.seal());
        seal_s += t0.elapsed().as_secs_f64();
        round_s.push(start.elapsed().as_secs_f64());
        ctx.checks.ops(pushed.len() as u64 + 1);
        ctx.checks.expect(sealed as usize == pushed.len(), || {
            format!("seal reported {sealed} sequences, pushed {}", pushed.len())
        });

        // One fifth of the reads and restarts after every round, so they
        // are spread over the run like the backfill.
        save_snapshot(&live, &snapshot, ctx)?;
        let (lat, ans) = one_shot_phase(&live, &queries[round_range(queries.len(), round)], ctx);
        latency.extend(lat);
        answers.extend(ans);
        let (ms, ans) = batch_phase(&live, &boards[round_range(boards.len(), round)], ctx);
        per_batch.extend(ms);
        batch_answers.extend(ans);
        counters.add_delta(&before, &Counters::read(&live));
        let reopened = reopen_phase(&snapshot, venue, sizes.reopens, &mut open_s, ctx)?;
        last = Some((live, reopened));
    }
    let (engine, (reopened, _)) = last.ok_or("no backfill round ran")?;
    let visible: Vec<f64> = round_s.iter().map(|s| s * 1e3).collect();
    record_visible(ctx, visible, "round start to seal return, one per round");
    let rate = (records * ROUNDS) as f64 / round_s.iter().sum::<f64>();
    let rounds: Vec<String> = round_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "  backfill: {ROUNDS} rounds of {records} records, {rate:.0} records/s; round s {}",
        rounds.join(" ")
    );
    let l = &mut ctx.layer;
    l.set("engine.annotate_records_per_s", rate);
    l.set("engine.push_blocked_s", push_s);
    l.set("engine.flush_s", flush_s);
    l.set("engine.seal_s", seal_s);
    l.set("engine.seals", ROUNDS as f64);
    counters.record(l);
    record_store(ctx, &engine);
    record_queries(ctx, &queries, &latency, "distinct, closed loop");
    record_batches(ctx, per_batch);
    record_recover(ctx, open_s);

    // Checks, outside the timed phases.
    check_annotation(ctx, &engine, pushed, base_seed, sizes.check_objects);
    let flat = flat_copy(&engine);
    let sample = sample_indices(queries.len(), 24, ctx.stream_seed(7));
    check_answers(
        ctx,
        "one-shot query",
        &answers,
        |i| queries[i].oracle(&flat),
        &sample,
    );
    for b in sample_indices(boards.len(), 2, ctx.stream_seed(8)) {
        let want: Vec<_> = boards[b].iter().map(|q| q.oracle(&flat)).collect();
        ctx.checks.expect(batch_answers[b] == want, || {
            format!("dashboard {b}: batch answers differ from the reference")
        });
    }
    let same = shard_contents(&reopened.store()) == shard_contents(&engine.store());
    ctx.checks
        .expect(same, || "reopened store differs from the live store".into());

    let sample: Vec<Vec<PositioningRecord>> =
        sample_indices(pushed.len(), sizes.serial_sample, ctx.stream_seed(9))
            .into_iter()
            .map(|i| records_of(&pushed[i]))
            .collect();
    serial_decode_pass(ctx, engine.model(), &sample);
    Ok(())
}

/// The `round`th of [`ROUNDS`] consecutive, near-equal parts of `0..len`.
fn round_range(len: usize, round: usize) -> std::ops::Range<usize> {
    len * round / ROUNDS..len * (round + 1) / ROUNDS
}

/// Re-annotates every pushed sequence of a seeded sample of objects
/// serially, sequence `i` of `pushed` with the seed of global sequence
/// `i`, and compares the concatenation with what the engine stored.
pub fn check_annotation(
    ctx: &mut Ctx<'_>,
    engine: &ism_engine::SemanticsEngine<'_>,
    pushed: &[LabeledSequence],
    base_seed: u64,
    objects: usize,
) {
    let mut by_object: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in pushed.iter().enumerate() {
        by_object.entry(s.object_id).or_default().push(i);
    }
    let ids: Vec<u64> = by_object.keys().copied().collect();
    let mut scratch = DecodeScratch::new();
    for k in sample_indices(ids.len(), objects, ctx.stream_seed(10)) {
        let object = ids[k];
        let mut want: Vec<MobilitySemantics> = Vec::new();
        for &i in &by_object[&object] {
            let mut rng = StdRng::seed_from_u64(sequence_seed(base_seed, i));
            let recs = records_of(&pushed[i]);
            want.extend(engine.model().annotate_with(&recs, &mut rng, &mut scratch));
        }
        ctx.checks
            .expect(engine.semantics_of(object) == Some(want), || {
                format!("object {object}: stored m-semantics differ from serial re-annotation")
            });
    }
}

/// A flat reference copy of the engine's sealed store.
pub fn flat_copy(engine: &ism_engine::SemanticsEngine<'_>) -> SemanticsStore {
    let mut flat = SemanticsStore::new();
    for (id, sem) in engine.store().iter() {
        flat.insert(id, sem.to_vec());
    }
    flat
}

/// Every shard's `(object, m-semantics)` entries, in shard order.
pub fn shard_contents(
    store: &ism_queries::ShardedSemanticsStore,
) -> Vec<Vec<(u64, Vec<MobilitySemantics>)>> {
    (0..store.num_shards())
        .map(|s| {
            store
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect()
        })
        .collect()
}
