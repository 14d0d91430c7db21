//! `serve_mall`: an open loop over a live engine. Distinct mall
//! p-sequences (Wi-Fi profile, the paper's preprocessing, 200 records,
//! one per object) arrive as a seeded Poisson stream at a fixed 50 per
//! second, in order of their last record time, while seeded Poisson
//! one-shot queries draw Zipf-skewed from a few templates so repeats can
//! hit the result cache. The client seals whenever every pushed sequence
//! has committed, then reads both standing queries. Pipelined pushes,
//! per-seal work and cache hits carry this workload, on a store small
//! enough to stay in the CPU caches. It is not in `BENCHMARK.json`: its
//! figures spread between seeds far beyond any allowed bound on a 2-vCPU
//! host whose speed drifts (see `README.md`).

use crate::bulk::{flat_copy, horizon, shard_contents, train, venue, MODEL_SEED};
use crate::harness::{
    batch_phase, dashboards, one_sequence_per_object, record_batches, record_live, record_queries,
    record_recover, record_store, record_visible, records_of, reopen_phase, sample_indices,
    save_snapshot, serial_decode_pass, set_tail, setup_start, templates, Counters, Ctx, OneShot,
    Standing, OPEN_LOOP_LAYER, THREADS,
};
use crate::sched::{latency_from_due_ms, lateness_ms, poisson_due_times, zipf_draws};
use crate::stats::Summary;
use ism_engine::{EngineBuilder, SemanticsEngine};
use ism_indoor::{BuildingGenerator, IndoorSpace, RegionId};
use ism_mobility::{LabeledSequence, PositioningConfig, PreprocessConfig};
use std::time::{Duration, Instant};

/// Arrivals per second: fixed, about 30% of one decoding worker.
pub const ARRIVALS_PER_SECOND: f64 = 50.0;
/// One-shot queries per second.
pub const QUERIES_PER_SECOND: f64 = 50.0;
/// Query templates the one-shot queries repeat.
const TEMPLATES: usize = 24;
/// Skew of the template draw.
const ZIPF_EXPONENT: f64 = 1.1;
/// Length of every mall p-sequence: the chunk length of `mall_dataset`.
pub const CHUNK: usize = 200;
/// One seal in this many has its standing results checked.
const CHECK_EVERY: u64 = 16;
/// The client sleeps at most this long between polls.
const POLL: Duration = Duration::from_micros(200);

struct Sizes {
    arrivals: usize,
    queries: usize,
    train_chunks: usize,
    batches: usize,
    reopens: usize,
    serial_sample: usize,
}

impl Sizes {
    fn of(ctx: &Ctx<'_>) -> Self {
        let seconds = if ctx.tiny { 1.0 } else { ctx.seconds as f64 };
        let arrivals = (ARRIVALS_PER_SECOND * seconds).round() as usize;
        Sizes {
            arrivals,
            queries: (QUERIES_PER_SECOND * seconds).round() as usize,
            train_chunks: if ctx.tiny { 4 } else { 24 },
            batches: if ctx.tiny { 4 } else { 400 },
            reopens: if ctx.tiny { 2 } else { 51 },
            serial_sample: if ctx.tiny { 4 } else { 60 },
        }
    }
}

/// `count` distinct mall p-sequences of [`CHUNK`] records, one per
/// object, ordered by last record time.
pub fn mall_sequences(venue: &IndoorSpace, count: usize, seed: u64) -> Vec<LabeledSequence> {
    one_sequence_per_object(
        venue,
        PositioningConfig::wifi_mall(),
        Some(PreprocessConfig::default()),
        CHUNK,
        count,
        seed,
    )
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let sizes = Sizes::of(ctx);
    ctx.layer.declare(&OPEN_LOOP_LAYER);
    let mut setup_s = Vec::new();
    for rep in 0..ctx.setup_reps {
        let t0 = setup_start(ctx, rep);
        let venue = venue(ctx, BuildingGenerator::mall())?;
        let sim_t0 = Instant::now();
        let (arrivals, train_set) = ctx.span("mobility.generate", None, || {
            (
                mall_sequences(&venue, sizes.arrivals, ctx.stream_seed(1)),
                mall_sequences(&venue, sizes.train_chunks, MODEL_SEED),
            )
        });
        ctx.layer
            .set("mobility.simulate_s", sim_t0.elapsed().as_secs_f64());
        if arrivals.len() < sizes.arrivals {
            return Err(format!(
                "{} sequences generated, {} arrivals needed",
                arrivals.len(),
                sizes.arrivals
            ));
        }
        let model = train(ctx, &venue, &train_set, MODEL_SEED)?;
        let engine = ctx.span("engine.build", None, || {
            EngineBuilder::new()
                .threads(THREADS)
                .base_seed(ctx.stream_seed(4))
                .build(model)
        });
        let engine = ctx
            .checks
            .op("build engine", engine)
            .ok_or("engine build failed")?;
        let snapshot = ctx.work_dir.join("serve_mall.ism");
        save_snapshot(&engine, &snapshot, ctx)?;
        let regions: Vec<RegionId> = venue.regions().iter().map(|r| r.id).collect();
        let span = horizon();
        let standing = Standing::register(&engine, &regions, span, ctx.stream_seed(5));
        ctx.checks.ops(2);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < ctx.setup_reps {
            continue;
        }
        ctx.set_setup(&setup_s);
        let records: usize = arrivals.iter().map(|s| s.records.len()).sum();
        ctx.layer.set("mobility.records", records as f64);
        println!(
            "  inputs: {} arrivals, {records} records, {} regions",
            arrivals.len(),
            regions.len()
        );
        let templates = templates(&regions, span, TEMPLATES, ctx.stream_seed(11));
        open_loop(
            ctx,
            &engine,
            &standing,
            &arrivals,
            &templates,
            sizes.queries,
            &snapshot,
        )?;
        let boards = dashboards(
            &regions,
            span,
            span.duration(),
            sizes.batches,
            ctx.stream_seed(6),
        );
        let (per_batch, answers) = batch_phase(&engine, &boards, ctx);
        record_batches(ctx, per_batch);
        record_store(ctx, &engine);
        let flat = flat_copy(&engine);
        for b in sample_indices(boards.len(), 2, ctx.stream_seed(7)) {
            let want: Vec<_> = boards[b].iter().map(|q| q.oracle(&flat)).collect();
            ctx.checks.expect(answers[b] == want, || {
                format!("dashboard {b}: batch answers differ from the reference")
            });
        }
        // Restart from the snapshot plus the seal log.
        let live_shards = shard_contents(&engine.store());
        let mut open_s = Vec::new();
        let (reopened, report) = reopen_phase(&snapshot, &venue, sizes.reopens, &mut open_s, ctx)?;
        record_recover(ctx, open_s);
        ctx.checks
            .expect(shard_contents(&reopened.store()) == live_shards, || {
                format!(
                    "store reopened from snapshot + {} log frames differs from the live store",
                    report.replayed_frames
                )
            });
        let sample: Vec<_> =
            sample_indices(arrivals.len(), sizes.serial_sample, ctx.stream_seed(8))
                .into_iter()
                .map(|i| records_of(&arrivals[i]))
                .collect();
        serial_decode_pass(ctx, engine.model(), &sample);
        return Ok(());
    }
    Err("no set-up ran".into())
}

/// The open loop: arrivals and one-shot queries on their seeded
/// schedules, a seal whenever every pushed sequence has committed.
fn open_loop(
    ctx: &mut Ctx<'_>,
    engine: &SemanticsEngine<'_>,
    standing: &Standing,
    arrivals: &[LabeledSequence],
    templates: &[OneShot],
    q_count: usize,
    snapshot: &std::path::Path,
) -> Result<(), String> {
    let n = arrivals.len();
    let mut inputs = arrivals
        .iter()
        .map(|s| (s.object_id, records_of(s)))
        .collect::<Vec<_>>()
        .into_iter();
    let a_due = poisson_due_times(ARRIVALS_PER_SECOND, n, ctx.stream_seed(9));
    let q_due = poisson_due_times(QUERIES_PER_SECOND, q_count, ctx.stream_seed(10));
    let q_pick = zipf_draws(templates.len(), ZIPF_EXPONENT, q_count, ctx.stream_seed(12));
    let log = ism_engine::log_path(snapshot);
    let log_bytes_before = std::fs::metadata(&log).map_or(0, |m| m.len());

    // Effective due times (shifted by check pauses), starts and ends.
    let mut a_eff = vec![f64::NAN; n];
    let mut a_start = vec![f64::NAN; n];
    let mut committed_at = vec![f64::NAN; n];
    let mut visible_at = vec![f64::NAN; n];
    let mut q_eff = vec![f64::NAN; q_count];
    let mut q_start = vec![f64::NAN; q_count];
    let mut q_done = vec![f64::NAN; q_count];
    let mut push_ms = Vec::with_capacity(n);
    let mut seal_ms = Vec::new();
    let mut standing_us = Vec::new();
    let (mut next_a, mut next_q, mut pushed, mut observed, mut published) =
        (0, 0, 0usize, 0usize, 0usize);
    let (mut backlog_max, mut seals, mut paused) = (0usize, 0u64, 0.0f64);

    let before = Counters::read(engine);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut session = Some(engine.ingest());
    loop {
        let committed = engine.sequences_committed() as usize;
        let t = now();
        while observed < committed.min(n) {
            committed_at[observed] = t;
            observed += 1;
        }
        backlog_max = backlog_max.max(pushed - committed.min(pushed));
        if pushed > published && committed == pushed {
            let s = session.take().ok_or("no open session")?;
            let t0 = Instant::now();
            ctx.span("engine.seal", Some(seals), || s.seal());
            let done = now();
            seal_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            visible_at[published..pushed].fill(done);
            published = pushed;
            let t0 = Instant::now();
            let read = standing.read(engine, ctx, seals);
            standing_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ctx.checks.ops(3);
            if seals.is_multiple_of(CHECK_EVERY) {
                // Time stops while the check runs: every later due time
                // moves by the pause. Nothing is in flight after a seal.
                let t0 = now();
                standing.check(engine, ctx, &read, seals);
                paused += now() - t0;
            }
            seals += 1;
            session = Some(engine.ingest());
            continue;
        }
        let due_a = a_due.get(next_a).map(|d| d + paused);
        let due_q = q_due.get(next_q).map(|d| d + paused);
        let arrival_first = match (due_a, due_q) {
            (Some(a), Some(q)) => a <= q,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) if published == n => break,
            (None, None) => {
                std::thread::sleep(POLL);
                continue;
            }
        };
        let due = if arrival_first { due_a } else { due_q }.unwrap_or(0.0);
        let t = now();
        if due > t {
            std::thread::sleep(POLL.min(Duration::from_secs_f64(due - t)));
            continue;
        }
        if arrival_first {
            let (object_id, recs) = inputs.next().ok_or("arrivals ran out")?;
            let s = session.as_mut().ok_or("no open session")?;
            a_eff[next_a] = due;
            a_start[next_a] = t;
            ctx.span("engine.push", Some(next_a as u64), || {
                s.push(object_id, recs)
            });
            push_ms.push((now() - t) * 1e3);
            pushed += 1;
            next_a += 1;
        } else {
            q_eff[next_q] = due;
            q_start[next_q] = t;
            let answer = templates[q_pick[next_q]].run(engine, ctx.tracer, next_q as u64);
            q_done[next_q] = now();
            std::hint::black_box(answer);
            next_q += 1;
        }
    }
    let mut counters = Counters::default();
    counters.add_delta(&before, &Counters::read(engine));
    counters.record(&mut ctx.layer);
    ctx.checks.ops((n + q_count) as u64);

    record_visible(
        ctx,
        latency_from_due_ms(&a_eff, &visible_at),
        "due to seal return",
    );
    let asked: Vec<OneShot> = q_pick.iter().map(|&t| templates[t].clone()).collect();
    let latency = latency_from_due_ms(&q_eff, &q_done);
    record_queries(ctx, &asked, &latency, "due to answer, open loop");
    let log_growth = std::fs::metadata(&log)
        .map_or(0, |m| m.len())
        .saturating_sub(log_bytes_before);
    record_live(
        ctx,
        &push_ms,
        latency_from_due_ms(&a_eff, &committed_at),
        seal_ms,
        log_growth,
        &standing_us,
    );
    let mut late = lateness_ms(&a_eff, &a_start);
    late.extend(lateness_ms(&q_eff, &q_start));
    let late = Summary::new(late);
    let l = &mut ctx.layer;
    l.set("engine.backlog_max", backlog_max as f64);
    l.set("gen.arrivals", n as f64);
    l.set("gen.queries", q_count as f64);
    set_tail(l, "gen.late_ms_p99", &late, 99.0);
    l.set("gen.late_ms_max", late.max());
    println!(
        "  generator: {n} arrivals, {q_count} queries, {seals} seals; late ms {}, max {:.3}",
        late.describe(99.0),
        late.max()
    );
    Ok(())
}
