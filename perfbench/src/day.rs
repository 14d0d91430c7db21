//! `query_day`: the read path at scale. Set-up synthesises one day of
//! m-semantics for 50,000 objects over the mall venue's regions (about
//! two million visit postings), trains the mall model as `serve_mall`
//! does, builds an engine around both and saves a snapshot. The timed
//! phases reopen that snapshot several times, send distinct one-shot
//! queries that never hit the result cache, refresh dashboards through
//! `run_batch`, and finally trickle live mall p-sequences in, one seal
//! each, while two standing queries fold every seal and repeated
//! dashboard queries meet the result cache: freshness, per-seal work and
//! cache hits on a store far larger than the CPU caches.

use crate::bulk::{check_annotation, train, venue, MODEL_SEED};
use crate::harness::{
    batch_phase, check_answers, dashboards, distinct_queries, one_shot_phase, record_batches,
    record_live, record_queries, record_recover, record_store, record_visible, records_of,
    reopen_phase, sample_indices, save_snapshot, serial_decode_pass, setup_start, templates,
    Counters, Ctx, OneShot, Standing, THREADS,
};
use crate::sched::zipf_draws;
use crate::serve::mall_sequences;
use ism_engine::{EngineBuilder, SemanticsEngine};
use ism_indoor::{BuildingGenerator, RegionId};
use ism_mobility::{LabeledSequence, MobilityEvent, MobilitySemantics, TimePeriod};
use ism_queries::{QueryAnswer, QueryBatch, SemanticsStore, ShardedSemanticsStore, DEFAULT_SHARDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seconds in the synthetic day.
const DAY: f64 = 86_400.0;
/// Probe queries answered before the snapshot and after every reopen.
const PROBES: usize = 8;
/// Templates of the repeated queries of the live trickle.
const TEMPLATES: usize = 24;
/// Skew of the template draw.
const ZIPF_EXPONENT: f64 = 1.1;
/// One seal in this many has its standing results checked.
const CHECK_EVERY: u64 = 16;

struct Sizes {
    objects: u64,
    reopens: usize,
    query_cycles: usize,
    batches: usize,
    trickle: usize,
    train_sequences: usize,
    oracle_queries: usize,
    serial_sample: usize,
}

impl Sizes {
    fn of(ctx: &Ctx<'_>) -> Self {
        if ctx.tiny {
            return Sizes {
                objects: 400,
                reopens: 2,
                query_cycles: 1,
                batches: 4,
                trickle: 12,
                train_sequences: 4,
                oracle_queries: 12,
                serial_sample: 4,
            };
        }
        let s = ctx.seconds as usize;
        Sizes {
            objects: 50_000,
            reopens: 7,
            query_cycles: s / 2,
            batches: 2 * s,
            trickle: 50 * s,
            train_sequences: 24,
            oracle_queries: 24,
            serial_sample: 40,
        }
    }
}

/// Stays and passes of `objects` objects over `regions` from time 0 to
/// `until` seconds, like the `query_throughput` bench's store.
pub fn synthetic_day(regions: &[RegionId], objects: u64, until: f64, seed: u64) -> SemanticsStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = SemanticsStore::new();
    for object in 0..objects {
        let mut t = rng.random_range(0.0..3600.0);
        let mut timeline = Vec::new();
        while t < until {
            let duration = rng.random_range(30.0..1800.0);
            timeline.push(MobilitySemantics {
                region: regions[rng.random_range(0..regions.len())],
                period: TimePeriod::new(t, t + duration),
                event: if rng.random_bool(0.6) {
                    MobilityEvent::Stay
                } else {
                    MobilityEvent::Pass
                },
            });
            t += duration + rng.random_range(10.0..600.0);
        }
        store.insert(object, timeline);
    }
    store
}

/// Answers of `probes` in one batch.
fn probe(engine: &SemanticsEngine<'_>, probes: &[OneShot]) -> Vec<QueryAnswer> {
    let mut batch = QueryBatch::new();
    probes.iter().for_each(|q| q.add_to(&mut batch));
    engine.run_batch(&batch)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let sizes = Sizes::of(ctx);
    let mut setup_s = Vec::new();
    for rep in 0..ctx.setup_reps {
        let t0 = setup_start(ctx, rep);
        let venue = venue(ctx, BuildingGenerator::mall())?;
        let regions: Vec<RegionId> = venue.regions().iter().map(|r| r.id).collect();
        let flat = synthetic_day(&regions, sizes.objects, DAY, ctx.stream_seed(1));
        let sim_t0 = Instant::now();
        // Trickle objects get ids after the day's objects.
        let (mut trickle, train_set) = ctx.span("mobility.generate", None, || {
            (
                mall_sequences(&venue, sizes.trickle, ctx.stream_seed(2)),
                mall_sequences(&venue, sizes.train_sequences, MODEL_SEED),
            )
        });
        ctx.layer
            .set("mobility.simulate_s", sim_t0.elapsed().as_secs_f64());
        if trickle.len() < sizes.trickle {
            return Err(format!(
                "{} trickle sequences, {} needed",
                trickle.len(),
                sizes.trickle
            ));
        }
        trickle.truncate(sizes.trickle);
        trickle
            .iter_mut()
            .for_each(|s| s.object_id += sizes.objects);
        let build_t0 = Instant::now();
        let sharded = ctx.span("queries.build", None, || {
            ShardedSemanticsStore::from_store(&flat, DEFAULT_SHARDS)
        });
        ctx.layer
            .set("queries.build_s", build_t0.elapsed().as_secs_f64());
        let model = train(ctx, &venue, &train_set, MODEL_SEED)?;
        let base_seed = ctx.stream_seed(3);
        let engine = ctx.span("engine.build", None, || {
            EngineBuilder::new()
                .threads(THREADS)
                .base_seed(base_seed)
                .initial_store(sharded)
                .build(model)
        });
        let engine = ctx
            .checks
            .op("build engine", engine)
            .ok_or("engine build failed")?;
        let snapshot = ctx.work_dir.join("query_day.ism");
        save_snapshot(&engine, &snapshot, ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < ctx.setup_reps {
            continue;
        }
        ctx.set_setup(&setup_s);
        let day = TimePeriod::new(0.0, DAY);
        let probes = distinct_queries(&regions, day, 1, ctx.stream_seed(4));
        let probes = &probes[..PROBES.min(probes.len())];
        let before = probe(&engine, probes);
        record_store(ctx, &engine);
        let records: usize = trickle.iter().map(|s| s.records.len()).sum();
        ctx.layer.set("mobility.records", records as f64);
        println!(
            "  inputs: {} objects, {} postings, {} trickle sequences of {records} records",
            flat.len(),
            engine.store().num_postings(),
            trickle.len()
        );
        drop(engine);

        // (a) Restart: reopen the snapshot several times.
        let mut open_s = Vec::new();
        let (engine, _) = reopen_phase(&snapshot, &venue, sizes.reopens, &mut open_s, ctx)?;
        record_recover(ctx, open_s);
        ctx.checks.expect(probe(&engine, probes) == before, || {
            "reopened engine answers differently from the engine that saved it".into()
        });

        // (b) Distinct one-shot queries, (c) dashboard refreshes.
        let queries = distinct_queries(&regions, day, sizes.query_cycles, ctx.stream_seed(5));
        let boards = dashboards(&regions, day, 7200.0, sizes.batches, ctx.stream_seed(6));
        let mut counters = Counters::default();
        let before = Counters::read(&engine);
        let (latency, answers) = one_shot_phase(&engine, &queries, ctx);
        let (per_batch, batch_answers) = batch_phase(&engine, &boards, ctx);
        counters.add_delta(&before, &Counters::read(&engine));
        record_queries(ctx, &queries, &latency, "distinct, closed loop");
        record_batches(ctx, per_batch);

        // (d) Live trickle: one p-sequence per seal into the day store,
        // with two standing queries and repeated dashboard queries.
        let standing = Standing::register(&engine, &regions, day, ctx.stream_seed(10));
        let templates = templates(&regions, day, TEMPLATES, ctx.stream_seed(11));
        let before = Counters::read(&engine);
        let visible = live_phase(ctx, &engine, &standing, &trickle, &templates, &snapshot);
        counters.add_delta(&before, &Counters::read(&engine));
        counters.record(&mut ctx.layer);
        record_visible(ctx, visible, "push to seal return, one per seal");

        // Checks against the flat reference of the same day.
        let sample = sample_indices(queries.len(), sizes.oracle_queries, ctx.stream_seed(7));
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
        check_annotation(ctx, &engine, &trickle, base_seed, 4);
        let sample: Vec<_> = sample_indices(trickle.len(), sizes.serial_sample, ctx.stream_seed(9))
            .into_iter()
            .map(|i| records_of(&trickle[i]))
            .collect();
        serial_decode_pass(ctx, engine.model(), &sample);
        return Ok(());
    }
    Err("no set-up ran".into())
}

/// Each sequence in its own session: push, flush (the commit), seal;
/// then both standing results are read and one template query, drawn
/// Zipf-skewed, is asked through the cached one-shot path. Every
/// [`CHECK_EVERY`]th seal the standing results are checked against a
/// re-run. Returns the push-to-seal-return latency of each sequence, ms.
fn live_phase(
    ctx: &mut Ctx<'_>,
    engine: &SemanticsEngine<'_>,
    standing: &Standing,
    trickle: &[LabeledSequence],
    templates: &[OneShot],
    snapshot: &std::path::Path,
) -> Vec<f64> {
    let inputs: Vec<_> = trickle
        .iter()
        .map(|s| (s.object_id, records_of(s)))
        .collect();
    let picks = zipf_draws(
        templates.len(),
        ZIPF_EXPONENT,
        inputs.len(),
        ctx.stream_seed(12),
    );
    let log = ism_engine::log_path(snapshot);
    let log_bytes_before = std::fs::metadata(&log).map_or(0, |m| m.len());
    let n = inputs.len();
    let (mut visible, mut push_ms, mut commit_ms) = (Vec::with_capacity(n), Vec::new(), Vec::new());
    let (mut seal_ms, mut standing_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (i, (object_id, recs)) in inputs.into_iter().enumerate() {
        let request = Some(i as u64);
        let t0 = Instant::now();
        let mut session = engine.ingest();
        ctx.span("engine.push", request, || session.push(object_id, recs));
        push_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.span("engine.flush", request, || session.flush());
        commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        ctx.span("engine.seal", request, || session.seal());
        seal_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        visible.push(t0.elapsed().as_secs_f64() * 1e3);
        let t2 = Instant::now();
        let read = standing.read(engine, ctx, i as u64);
        standing_us.push(t2.elapsed().as_secs_f64() * 1e6);
        if (i as u64).is_multiple_of(CHECK_EVERY) {
            standing.check(engine, ctx, &read, i as u64);
        }
        std::hint::black_box(templates[picks[i]].run(engine, ctx.tracer, i as u64));
    }
    ctx.checks.ops(4 * n as u64);
    let log_growth = std::fs::metadata(&log)
        .map_or(0, |m| m.len())
        .saturating_sub(log_bytes_before);
    record_live(ctx, &push_ms, commit_ms, seal_ms, log_growth, &standing_us);
    visible
}
