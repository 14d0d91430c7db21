//! Batch annotation throughput: sequences/second of [`BatchAnnotator`] at
//! 1, 2 and 4 worker threads over a mall workload, plus streaming-ingest
//! throughput of the `ism-engine` [`IngestSession`] front-end against the
//! offline `annotate_into_store` reference (both produce byte-identical
//! stores — the measurement is pure overhead accounting), plus training
//! throughput of the pool-parallel [`Trainer`] at the same thread counts
//! (all thread counts learn byte-identical weights — again pure speedup
//! accounting).
//!
//! A **kernel** section compares the naive decode loop (recompute every
//! `(site, candidate)` row every sweep) against the memoized
//! Markov-blanket kernel at 1 thread — identical RNG streams, identical
//! output — and records cache effectiveness: the overall row reuse rate,
//! the reuse rate at the final annealing temperatures (the
//! zero-temperature ICM sweeps finishing the schedule — the converged
//! regime, where memoization pays; hotter sweeps still flip labels whose
//! segmentation features genuinely couple whole runs), and the bytes
//! held by the precomputed pairwise feature tables.
//!
//! A **serving** section measures latency-mode ingest: per-sequence
//! annotation latency (push → commit to the live store) under Poisson
//! arrivals at 1, 2 and 4 threads, with the arrival rate calibrated to
//! ~60% of the measured single-thread decode rate. With ≥ 2 threads the
//! persistent pool picks each arrival up on an idle worker immediately
//! (pipelined ingest); at 1 thread arrivals queue until the bounded
//! submission queue fills — the p50/p99 gap between the two is the
//! latency win the serving path exists for. Each serving row carries the
//! pool's `idle_wakeups` / `async_tasks` counters so a latency regression
//! can be attributed (e.g. thread counts above the host's parallelism
//! spinning each other out of the only core).
//!
//! Besides the usual criterion console report, the bench writes
//! `BENCH_annotate.json` at the repository root so CI can archive the perf
//! trajectory across commits. In `--test` (smoke) mode each configuration
//! runs once and the JSON carries coarse single-run estimates.
//!
//! [`IngestSession`]: ism_engine::IngestSession

use criterion::Criterion;
use ism_bench::positioning_batch;
use ism_c2mn::{
    invalidate_events_after_region_sweep, invalidate_regions_after_event_sweep, sequence_seed,
    BatchAnnotator, C2mn, CoupledNetwork, DecodeScratch, EventSites, RegionSites, RunIndex,
    SequenceContext, Trainer,
};
use ism_engine::{log_path, EngineBuilder, SemanticsEngine};
use ism_indoor::{BuildingGenerator, IndoorSpace};
use ism_mobility::{
    Dataset, MobilityEvent, PositioningConfig, PositioningRecord, SimulationConfig,
};
use ism_pgm::{gibbs_sweep_cached, icm_sweep_cached, AnnealSchedule, SweepCache};
use ism_runtime::{PoolStats, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SHARDS: usize = 8;
const QUEUE_CAPACITY: usize = 8;
/// Queue capacity of the serving (latency-mode) runs: small, so a
/// sequence never waits long for a fill-triggered batch even when no
/// worker is idle.
const SERVING_QUEUE_CAPACITY: usize = 4;
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_annotate.json");

fn main() {
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args();

    // A mall workload sized so a full measurement finishes in seconds:
    // a trained model plus a batch of ~100-record test sequences.
    let mut rng = StdRng::seed_from_u64(1);
    let space = BuildingGenerator::mall().generate(&mut rng).unwrap();
    let dataset = Dataset::generate(
        "bench",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::wifi_mall(),
        None,
        16,
        &mut rng,
    );
    let config = ism_c2mn::C2mnConfig::quick_test();
    let model = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
    let sequences = positioning_batch(&dataset.sequences);
    let object_ids: Vec<u64> = dataset.sequences.iter().map(|s| s.object_id).collect();
    let num_records: usize = sequences.iter().map(|s| s.len()).sum();

    let mut throughputs: Vec<(usize, f64)> = Vec::new();
    for threads in THREAD_COUNTS {
        let engine = BatchAnnotator::new(&model, threads, 7);
        c.bench_function(&format!("annotate/mall_batch_{threads}_threads"), |b| {
            b.iter(|| engine.label_batch(black_box(&sequences)))
        });
        if let Some(ns) = c.last_estimate_ns() {
            throughputs.push((threads, sequences.len() as f64 / (ns / 1e9)));
        }
    }

    // Streaming ingest (session push + incremental seal into the live
    // store) vs the offline annotate-into-store reference, per thread
    // count. Each iteration builds a fresh engine so the store always
    // starts empty; the model clone is parameters-only and cheap. Both
    // sides clone the batch inside the timed region — the session consumes
    // owned sequences, so the offline side clones too to keep the ratio a
    // comparison of engine machinery rather than harness allocation.
    let mut ingest: Vec<(usize, Option<f64>, Option<f64>)> = Vec::new();
    for threads in THREAD_COUNTS {
        let annotator = BatchAnnotator::new(&model, threads, 7);
        c.bench_function(&format!("ingest/offline_store_{threads}_threads"), |b| {
            b.iter(|| {
                let batch = sequences.clone();
                annotator.annotate_into_store(black_box(&batch), &object_ids, SHARDS)
            })
        });
        let offline = c
            .last_estimate_ns()
            .map(|ns| sequences.len() as f64 / (ns / 1e9));
        c.bench_function(&format!("ingest/streaming_{threads}_threads"), |b| {
            b.iter(|| {
                let engine = EngineBuilder::new()
                    .threads(threads)
                    .shards(SHARDS)
                    .base_seed(7)
                    .queue_capacity(QUEUE_CAPACITY)
                    .build(model.clone())
                    .unwrap();
                let mut session = engine.ingest();
                for (id, seq) in object_ids.iter().zip(&sequences) {
                    session.push(*id, seq.clone());
                }
                session.seal();
                black_box(engine.num_objects())
            })
        });
        let streaming = c
            .last_estimate_ns()
            .map(|ns| sequences.len() as f64 / (ns / 1e9));
        ingest.push((threads, streaming, offline));
    }

    // Pool-parallel training (per-sequence MCMC sampling fanned out over
    // the worker pool): training sequences/sec per thread count. Weights
    // are byte-identical at every thread count, so this measures pure
    // parallel speedup of Algorithm 1's sampling stage.
    let train_seqs = &dataset.sequences;
    let mut train: Vec<(usize, Option<f64>)> = Vec::new();
    for threads in THREAD_COUNTS {
        let pool = WorkerPool::new(threads);
        c.bench_function(&format!("train/mall_{threads}_threads"), |b| {
            b.iter(|| {
                Trainer::new(&space, config.clone())
                    .seed(7)
                    .pool(&pool)
                    .run(black_box(train_seqs))
                    .unwrap()
                    .model
            })
        });
        let tp = c
            .last_estimate_ns()
            .map(|ns| train_seqs.len() as f64 / (ns / 1e9));
        train.push((threads, tp));
    }

    // Decode kernel: naive vs memoized sweeps at 1 thread over the same
    // batch with identical RNG streams (so both kernels produce identical
    // labels and run identical sweep counts). The rate counts annealed
    // Gibbs half-sweeps (2 per anneal step per decode); the ICM polish
    // runs inside the timed region for both kernels but is excluded from
    // the count, keeping the two rates comparable.
    let half_sweeps = (2 * config.anneal_sweeps.max(1) * sequences.len()) as f64;
    c.bench_function("kernel/naive_sweeps_1_thread", |b| {
        let mut scratch = DecodeScratch::new();
        b.iter(|| {
            for (i, seq) in sequences.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(sequence_seed(7, i));
                black_box(model.label_with_naive(black_box(seq), &mut rng, &mut scratch));
            }
        })
    });
    let sweeps_naive = c.last_estimate_ns().map(|ns| half_sweeps / (ns / 1e9));
    c.bench_function("kernel/cached_sweeps_1_thread", |b| {
        let mut scratch = DecodeScratch::new();
        b.iter(|| {
            for (i, seq) in sequences.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(sequence_seed(7, i));
                black_box(model.label_with(black_box(seq), &mut rng, &mut scratch));
            }
        })
    });
    let sweeps_cached = c.last_estimate_ns().map(|ns| half_sweeps / (ns / 1e9));

    // Cache effectiveness over one clean sequential pass, bracketed by
    // snapshots of the process-wide counters (they accumulate across every
    // decode, including the runs above).
    let before = ism_pgm::kernel_stats();
    {
        let mut scratch = DecodeScratch::new();
        for (i, seq) in sequences.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sequence_seed(7, i));
            black_box(model.label_with(seq, &mut rng, &mut scratch));
        }
    }
    let after = ism_pgm::kernel_stats();
    let reuse_overall = {
        let filled = after.rows_filled - before.rows_filled;
        let reused = after.rows_reused - before.rows_reused;
        if filled + reused == 0 {
            0.0
        } else {
            reused as f64 / (filled + reused) as f64
        }
    };
    let (reuse_final, pairwise_bytes) = final_temps_reuse(&model, &sequences);
    println!(
        "kernel: naive {} cached {} half-sweeps/sec, reuse overall {:.3} final temps {:.3}, \
         pairwise tables {pairwise_bytes} bytes",
        fmt_opt(sweeps_naive),
        fmt_opt(sweeps_cached),
        reuse_overall,
        reuse_final
    );
    let kernel = KernelResults {
        sweeps_per_sec_naive: sweeps_naive,
        sweeps_per_sec_cached: sweeps_cached,
        row_reuse_rate_overall: reuse_overall,
        row_reuse_rate_final_temps: reuse_final,
        pairwise_table_bytes: pairwise_bytes,
    };

    // Serving latency under Poisson arrivals. Calibrate the offered load
    // to ~60% of the measured single-thread decode rate so the 1-thread
    // run is loaded but stable, then replay the identical (seeded)
    // arrival schedule at every thread count.
    let smoke = std::env::args().any(|a| a == "--test");
    let serving_arrivals = if smoke { 8 } else { 64 };
    let calibrate = Instant::now();
    BatchAnnotator::new(&model, 1, 7).label_batch(&sequences);
    let mean_service = calibrate.elapsed().as_secs_f64() / sequences.len() as f64;
    let arrival_rate = 0.6 / mean_service.max(1e-9);
    let mut serving: Vec<ServingRow> = Vec::new();
    for threads in THREAD_COUNTS {
        let (latencies, pool_stats) = serve_poisson(
            &model,
            threads,
            arrival_rate,
            serving_arrivals,
            &object_ids,
            &sequences,
        );
        let (p50, p99) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0));
        println!(
            "serving/poisson_{threads}_threads: p50 {p50:.3} ms, p99 {p99:.3} ms \
             ({arrival_rate:.1} arrivals/sec, {} idle wakeups, {} async tasks)",
            pool_stats.idle_wakeups, pool_stats.async_tasks
        );
        serving.push(ServingRow {
            threads,
            p50,
            p99,
            idle_wakeups: pool_stats.idle_wakeups,
            async_tasks: pool_stats.async_tasks,
        });
    }

    // Durability: snapshot write/load bandwidth, then warm restart (seal
    // log replay) vs cold re-annotation of the same half-stream. These are
    // one-shot I/O paths, so they are wall-clock timed directly rather
    // than criterion-sampled.
    let persistence = measure_persistence(&model, &space, &object_ids, &sequences);

    write_report(
        &throughputs,
        &ingest,
        &train,
        &kernel,
        &serving,
        &persistence,
        arrival_rate,
        serving_arrivals,
        sequences.len(),
        num_records,
    );
}

/// Decode-kernel measurements for the `kernel_results` report section.
struct KernelResults {
    sweeps_per_sec_naive: Option<f64>,
    sweeps_per_sec_cached: Option<f64>,
    row_reuse_rate_overall: f64,
    row_reuse_rate_final_temps: f64,
    pairwise_table_bytes: u64,
}

/// Durability measurements for the `persistence_results` report section.
struct PersistenceResults {
    snapshot_bytes: u64,
    snapshot_write_mb_per_sec: f64,
    snapshot_load_mb_per_sec: f64,
    seal_log_bytes: u64,
    log_replay_seconds: f64,
    cold_reannotate_seconds: f64,
    /// Warm-restart wall time as a fraction of the cold path (< 1 means
    /// replaying the seal log beats re-annotating the lost sequences).
    replay_vs_cold: f64,
}

/// Snapshot bandwidth over the fully-ingested mall engine, then two ways
/// of recovering an engine whose second half only ever reached the seal
/// log: replaying the log (warm) vs reopening a log-less snapshot and
/// re-annotating the missing p-sequences (cold). Both paths end on the
/// same store, so the ratio isolates what the log buys.
fn measure_persistence(
    model: &C2mn<'_>,
    space: &IndoorSpace,
    object_ids: &[u64],
    sequences: &[Vec<PositioningRecord>],
) -> PersistenceResults {
    let dir = std::env::temp_dir().join(format!("ism-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let threads = *THREAD_COUNTS.last().unwrap();
    let build = || {
        EngineBuilder::new()
            .threads(threads)
            .shards(SHARDS)
            .base_seed(7)
            .queue_capacity(QUEUE_CAPACITY)
            .build(model.clone())
            .unwrap()
    };
    let ingest = |engine: &SemanticsEngine<'_>, range: std::ops::Range<usize>| {
        let mut session = engine.ingest();
        for (id, seq) in object_ids[range.clone()].iter().zip(&sequences[range]) {
            session.push(*id, seq.clone());
        }
        session.seal();
    };

    // Snapshot write/load bandwidth over the whole workload.
    let full = dir.join("full.ism");
    let engine = build();
    ingest(&engine, 0..sequences.len());
    let t = Instant::now();
    engine.save_snapshot(&full).unwrap();
    let write_secs = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&full).unwrap().len();
    drop(engine);
    let t = Instant::now();
    let (_reopened, report) = EngineBuilder::new()
        .threads(threads)
        .open(&full, space)
        .unwrap();
    let load_secs = t.elapsed().as_secs_f64();
    assert_eq!(report.replayed_frames, 0, "full snapshot carries no log");

    // Half the stream in the snapshot, the other half only in the log.
    // `cold.ism` is the same snapshot *without* the log, so its recovery
    // has to re-annotate the second half from p-sequences.
    let split = sequences.len() / 2;
    let half = dir.join("half.ism");
    let cold_path = dir.join("cold.ism");
    let engine = build();
    ingest(&engine, 0..split);
    engine.save_snapshot(&half).unwrap();
    std::fs::copy(&half, &cold_path).expect("copy snapshot");
    ingest(&engine, split..sequences.len());
    drop(engine);
    let seal_log_bytes = std::fs::metadata(log_path(&half)).unwrap().len();

    let t = Instant::now();
    let (warm, report) = EngineBuilder::new()
        .threads(threads)
        .open(&half, space)
        .unwrap();
    let log_replay_seconds = t.elapsed().as_secs_f64();
    assert_eq!(report.replayed_entries, sequences.len() - split);

    let t = Instant::now();
    let (cold, _) = EngineBuilder::new()
        .threads(threads)
        .open(&cold_path, space)
        .unwrap();
    ingest(&cold, split..sequences.len());
    let cold_reannotate_seconds = t.elapsed().as_secs_f64();
    assert_eq!(warm.num_objects(), cold.num_objects());

    let _ = std::fs::remove_dir_all(&dir);
    let mb = snapshot_bytes as f64 / 1e6;
    let results = PersistenceResults {
        snapshot_bytes,
        snapshot_write_mb_per_sec: mb / write_secs.max(1e-9),
        snapshot_load_mb_per_sec: mb / load_secs.max(1e-9),
        seal_log_bytes,
        log_replay_seconds,
        cold_reannotate_seconds,
        replay_vs_cold: log_replay_seconds / cold_reannotate_seconds.max(1e-9),
    };
    println!(
        "persistence: snapshot {} bytes (write {:.1} MB/s, load {:.1} MB/s), \
         log replay {:.4}s vs cold re-annotate {:.4}s ({:.3}x of cold)",
        results.snapshot_bytes,
        results.snapshot_write_mb_per_sec,
        results.snapshot_load_mb_per_sec,
        results.log_replay_seconds,
        results.cold_reannotate_seconds,
        results.replay_vs_cold
    );
    results
}

/// One serving latency row plus the pool counters explaining it.
struct ServingRow {
    threads: usize,
    p50: f64,
    p99: f64,
    idle_wakeups: u64,
    async_tasks: u64,
}

/// Replays the annealed (cached) decode loop per sequence, reading the
/// cache counter deltas to isolate the row-reuse rate at the *final
/// annealing temperatures* — the zero-temperature ICM sweeps that finish
/// the schedule, i.e. the converged regime a cold sampler spends its
/// time in — and summing the pairwise-table bytes of the built contexts.
///
/// The annealed sweeps proper (including the last one at `t_end`) still
/// flip several labels per sweep on this workload, and one flipped label
/// genuinely changes every row whose segmentation window it falls in
/// (`fes`/`fss` couple whole label runs), so those rows *must* refill —
/// the memoization pays once the flip rate drops, which is exactly the
/// window this metric isolates.
///
/// The loop mirrors `C2mn::label_with` (same seeds, same sweep order,
/// same cross-chain invalidation, same ICM fixpoint loop); it is rebuilt
/// here from the public kernel API because the counters are only visible
/// per sweep from outside the decode call.
fn final_temps_reuse(model: &C2mn<'_>, sequences: &[Vec<PositioningRecord>]) -> (f64, u64) {
    let config = model.config();
    let weights = model.weights();
    let coupled = config.structure.event_segmentation || config.structure.space_segmentation;
    let mut final_filled = 0u64;
    let mut final_reused = 0u64;
    let mut table_bytes = 0u64;
    for (qi, records) in sequences.iter().enumerate() {
        if records.is_empty() {
            continue;
        }
        let ctx = SequenceContext::build(model.space(), config, records, &[]);
        table_bytes += ctx.pairwise_table_bytes() as u64;
        let net = CoupledNetwork::new(&ctx, weights);
        let n = ctx.len();
        let mut rng = StdRng::seed_from_u64(sequence_seed(7, qi));
        let mut region_state = ctx.nearest_idx.clone();
        let mut event_state: Vec<usize> = ctx.dbscan_events.iter().map(|e| e.index()).collect();
        let mut regions: Vec<_> = ctx
            .nearest_idx
            .iter()
            .enumerate()
            .map(|(i, &c)| ctx.candidates[i][c])
            .collect();
        let mut events = ctx.dbscan_events.clone();
        let mut region_cache = SweepCache::new();
        let mut event_cache = SweepCache::new();
        let mut event_runs = RunIndex::new();
        let mut region_runs = RunIndex::new();
        {
            let rs = RegionSites::new(&net, &events, &mut event_runs);
            region_cache.reset(&rs);
            let es = EventSites::new(&net, &regions, &mut region_runs);
            event_cache.reset(&es);
        }
        let schedule = AnnealSchedule {
            t_start: config.anneal_t_start,
            t_end: config.anneal_t_end,
            sweeps: config.anneal_sweeps.max(1),
        };
        let mut prev_regions = regions.clone();
        let mut prev_events = events.clone();
        for k in 0..schedule.sweeps {
            let t = schedule.temperature(k);
            prev_regions.clear();
            prev_regions.extend_from_slice(&regions);
            {
                let rs = RegionSites::new(&net, &events, &mut event_runs);
                gibbs_sweep_cached(&rs, &mut region_state, t, &mut rng, &mut region_cache);
            }
            for i in 0..n {
                regions[i] = ctx.candidates[i][region_state[i]];
            }
            if coupled {
                invalidate_events_after_region_sweep(
                    &ctx,
                    &prev_regions,
                    &regions,
                    &events,
                    &mut event_cache,
                );
            }
            prev_events.clear();
            prev_events.extend_from_slice(&events);
            {
                let es = EventSites::new(&net, &regions, &mut region_runs);
                gibbs_sweep_cached(&es, &mut event_state, t, &mut rng, &mut event_cache);
            }
            for i in 0..n {
                events[i] = MobilityEvent::ALL[event_state[i]];
            }
            if coupled {
                invalidate_regions_after_event_sweep(
                    &ctx,
                    &prev_events,
                    &events,
                    &regions,
                    &mut region_cache,
                );
            }
        }
        // The measured window: the zero-temperature ICM polish that
        // finishes the schedule — same fixpoint loop as `C2mn::label_with`.
        let snap = (region_cache.stats(), event_cache.stats());
        for _ in 0..(2 * n + 4) {
            prev_regions.clear();
            prev_regions.extend_from_slice(&regions);
            let changed_r = {
                let rs = RegionSites::new(&net, &events, &mut event_runs);
                icm_sweep_cached(&rs, &mut region_state, &mut region_cache)
            };
            for i in 0..n {
                regions[i] = ctx.candidates[i][region_state[i]];
            }
            if coupled {
                invalidate_events_after_region_sweep(
                    &ctx,
                    &prev_regions,
                    &regions,
                    &events,
                    &mut event_cache,
                );
            }
            prev_events.clear();
            prev_events.extend_from_slice(&events);
            let changed_e = {
                let es = EventSites::new(&net, &regions, &mut region_runs);
                icm_sweep_cached(&es, &mut event_state, &mut event_cache)
            };
            for i in 0..n {
                events[i] = MobilityEvent::ALL[event_state[i]];
            }
            if coupled {
                invalidate_regions_after_event_sweep(
                    &ctx,
                    &prev_events,
                    &events,
                    &regions,
                    &mut region_cache,
                );
            }
            if changed_r == 0 && changed_e == 0 {
                break;
            }
        }
        let (r, e) = (region_cache.stats(), event_cache.stats());
        final_filled += (r.rows_filled - snap.0.rows_filled) + (e.rows_filled - snap.1.rows_filled);
        final_reused += (r.rows_reused - snap.0.rows_reused) + (e.rows_reused - snap.1.rows_reused);
    }
    let total = final_filled + final_reused;
    let rate = if total == 0 {
        0.0
    } else {
        final_reused as f64 / total as f64
    };
    (rate, table_bytes)
}

/// Replays `total` Poisson arrivals (seeded, identical across thread
/// counts) into a fresh latency-mode engine and returns the per-sequence
/// latency in milliseconds: push instant → the instant the sequence's
/// commit was observed via [`SemanticsEngine::sequences_committed`].
///
/// The submitting client observes commits between arrivals (closed loop):
/// when a push blocks on backpressure the schedule slips, so reported
/// latency is decode + queueing as the client experiences it.
///
/// Also returns the engine pool's lifetime counters — the engine is fresh
/// per run, so the counters describe exactly this replay.
fn serve_poisson(
    model: &C2mn<'_>,
    threads: usize,
    arrival_rate: f64,
    total: usize,
    object_ids: &[u64],
    sequences: &[Vec<PositioningRecord>],
) -> (Vec<f64>, PoolStats) {
    let engine = EngineBuilder::new()
        .threads(threads)
        .shards(SHARDS)
        .base_seed(7)
        .queue_capacity(SERVING_QUEUE_CAPACITY)
        .build(model.clone())
        .unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut session = engine.ingest();
    let mut pushed_at: Vec<Instant> = Vec::with_capacity(total);
    let mut committed_at: Vec<Option<Instant>> = vec![None; total];
    let mut observed = 0u64;
    let start = Instant::now();
    let mut next_arrival = 0.0f64;
    for i in 0..total {
        let u: f64 = rng.random();
        next_arrival += -(1.0 - u).ln() / arrival_rate;
        loop {
            observe_commits(&engine, &mut observed, &mut committed_at);
            let now = start.elapsed().as_secs_f64();
            if now >= next_arrival {
                break;
            }
            let remaining = next_arrival - now;
            std::thread::sleep(Duration::from_secs_f64(remaining.min(2e-4)));
        }
        pushed_at.push(Instant::now());
        session.push(
            object_ids[i % object_ids.len()],
            sequences[i % sequences.len()].clone(),
        );
        observe_commits(&engine, &mut observed, &mut committed_at);
    }
    while (observed as usize) < total {
        observe_commits(&engine, &mut observed, &mut committed_at);
        std::thread::sleep(Duration::from_micros(100));
    }
    session.seal();
    let latencies = pushed_at
        .iter()
        .zip(&committed_at)
        .map(|(pushed, committed)| {
            committed
                .expect("every arrival commits")
                .saturating_duration_since(*pushed)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    (latencies, engine.pool_stats())
}

/// Timestamps every commit whose global index became visible since the
/// last call.
fn observe_commits(
    engine: &SemanticsEngine<'_>,
    observed: &mut u64,
    committed_at: &mut [Option<Instant>],
) {
    let committed = engine.sequences_committed();
    let now = Instant::now();
    while *observed < committed && (*observed as usize) < committed_at.len() {
        committed_at[*observed as usize] = Some(now);
        *observed += 1;
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.3}"))
}

/// Emits `BENCH_annotate.json` (hand-rolled JSON: the vendored serde does
/// not serialize).
#[allow(clippy::too_many_arguments)]
fn write_report(
    throughputs: &[(usize, f64)],
    ingest: &[(usize, Option<f64>, Option<f64>)],
    train: &[(usize, Option<f64>)],
    kernel: &KernelResults,
    serving: &[ServingRow],
    persistence: &PersistenceResults,
    arrival_rate: f64,
    serving_arrivals: usize,
    num_sequences: usize,
    num_records: usize,
) {
    // Speedups are relative to the measured 1-thread run; when a CLI
    // filter skipped it, report `null` rather than a made-up baseline.
    let baseline = throughputs
        .iter()
        .find(|&&(threads, _)| threads == 1)
        .map(|&(_, tp)| tp);
    let entries: Vec<String> = throughputs
        .iter()
        .map(|&(threads, tp)| {
            let speedup = baseline.map_or("null".to_string(), |base| format!("{:.3}", tp / base));
            format!(
                "    {{\"threads\": {threads}, \"sequences_per_sec\": {tp:.3}, \
                 \"speedup_vs_1_thread\": {speedup}}}"
            )
        })
        .collect();
    let ingest_entries: Vec<String> = ingest
        .iter()
        .map(|&(threads, streaming, offline)| {
            let ratio = match (streaming, offline) {
                (Some(s), Some(o)) if o > 0.0 => format!("{:.3}", s / o),
                _ => "null".to_string(),
            };
            format!(
                "    {{\"threads\": {threads}, \
                 \"streaming_sequences_per_sec\": {}, \
                 \"offline_sequences_per_sec\": {}, \
                 \"streaming_vs_offline\": {ratio}}}",
                fmt_opt(streaming),
                fmt_opt(offline)
            )
        })
        .collect();
    // Speedups relative to the measured 1-thread training run; `null`
    // when a CLI filter skipped it.
    let train_baseline = train
        .iter()
        .find(|&&(threads, _)| threads == 1)
        .and_then(|&(_, tp)| tp);
    let train_entries: Vec<String> = train
        .iter()
        .map(|&(threads, tp)| {
            let speedup = match (tp, train_baseline) {
                (Some(tp), Some(base)) if base > 0.0 => format!("{:.3}", tp / base),
                _ => "null".to_string(),
            };
            format!(
                "    {{\"threads\": {threads}, \
                 \"train_sequences_per_sec\": {}, \
                 \"speedup_vs_1_thread\": {speedup}}}",
                fmt_opt(tp)
            )
        })
        .collect();
    let serving_entries: Vec<String> = serving
        .iter()
        .map(|row| {
            format!(
                "    {{\"threads\": {}, \"p50_latency_ms\": {:.3}, \
                 \"p99_latency_ms\": {:.3}, \"idle_wakeups\": {}, \
                 \"async_tasks\": {}}}",
                row.threads, row.p50, row.p99, row.idle_wakeups, row.async_tasks
            )
        })
        .collect();
    let cached_vs_naive = match (kernel.sweeps_per_sec_cached, kernel.sweeps_per_sec_naive) {
        (Some(c), Some(n)) if n > 0.0 => format!("{:.3}", c / n),
        _ => "null".to_string(),
    };
    let kernel_entry = format!(
        "{{\n    \"sweeps_per_sec_naive\": {},\n    \"sweeps_per_sec_cached\": {},\n    \
         \"cached_vs_naive\": {cached_vs_naive},\n    \
         \"row_reuse_rate_overall\": {:.4},\n    \
         \"row_reuse_rate_final_temps\": {:.4},\n    \
         \"pairwise_table_bytes\": {}\n  }}",
        fmt_opt(kernel.sweeps_per_sec_naive),
        fmt_opt(kernel.sweeps_per_sec_cached),
        kernel.row_reuse_rate_overall,
        kernel.row_reuse_rate_final_temps,
        kernel.pairwise_table_bytes
    );
    let persistence_entry = format!(
        "{{\n    \"snapshot_bytes\": {},\n    \
         \"snapshot_write_mb_per_sec\": {:.3},\n    \
         \"snapshot_load_mb_per_sec\": {:.3},\n    \
         \"seal_log_bytes\": {},\n    \
         \"log_replay_seconds\": {:.6},\n    \
         \"cold_reannotate_seconds\": {:.6},\n    \
         \"replay_vs_cold\": {:.4}\n  }}",
        persistence.snapshot_bytes,
        persistence.snapshot_write_mb_per_sec,
        persistence.snapshot_load_mb_per_sec,
        persistence.seal_log_bytes,
        persistence.log_replay_seconds,
        persistence.cold_reannotate_seconds,
        persistence.replay_vs_cold
    );
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serving_note = format!(
        "serving ran on a host with {available} available core(s); thread counts above \
         host_parallelism time-share cores, so added threads can worsen latency — read the \
         per-row idle_wakeups/async_tasks counters before comparing rows"
    );
    let json = format!(
        "{{\n  \"bench\": \"annotate_throughput\",\n  \"workload\": \"mall\",\n  \
         \"num_sequences\": {num_sequences},\n  \"num_records\": {num_records},\n  \
         \"host_parallelism\": {available},\n  \"queue_capacity\": {QUEUE_CAPACITY},\n  \
         \"shards\": {SHARDS},\n  \"results\": [\n{}\n  ],\n  \
         \"ingest_results\": [\n{}\n  ],\n  \
         \"train_results\": [\n{}\n  ],\n  \
         \"kernel_results\": {kernel_entry},\n  \
         \"persistence_results\": {persistence_entry},\n  \
         \"serving_arrival_rate_per_sec\": {arrival_rate:.3},\n  \
         \"serving_arrivals\": {serving_arrivals},\n  \
         \"serving_queue_capacity\": {SERVING_QUEUE_CAPACITY},\n  \
         \"serving_note\": \"{serving_note}\",\n  \
         \"serving_results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        ingest_entries.join(",\n"),
        train_entries.join(",\n"),
        serving_entries.join(",\n")
    );
    match std::fs::write(OUT_PATH, &json) {
        Ok(()) => println!("wrote {OUT_PATH}"),
        Err(e) => eprintln!("could not write {OUT_PATH}: {e}"),
    }
}
