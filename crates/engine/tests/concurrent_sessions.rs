//! Concurrent-session oracle: two interleaved [`IngestSession`]s on one
//! engine produce a sealed store **byte-identical** to serial ingestion
//! of the same push order, for thread counts {1, 2, 4} and several
//! interleavings — and no steady-state path ever spawns a thread after
//! pool construction (pinned via `PoolStats::threads_spawned`). Standing
//! queries and cached answers stay exact while seals land concurrently.
//!
//! [`IngestSession`]: ism_engine::IngestSession

use ism_c2mn::{BatchAnnotator, C2mn, C2mnConfig, Weights};
use ism_engine::EngineBuilder;
use ism_indoor::{BuildingGenerator, IndoorSpace};
use ism_mobility::{Dataset, PositioningConfig, PositioningRecord, SimulationConfig, TimePeriod};
use ism_queries::{QueryAnswer, QueryBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A small venue and eight p-sequences with duplicate object ids.
fn workload() -> (IndoorSpace, Vec<u64>, Vec<Vec<PositioningRecord>>) {
    let mut rng = StdRng::seed_from_u64(5);
    let space = BuildingGenerator::small_office()
        .generate(&mut rng)
        .unwrap();
    let dataset = Dataset::generate(
        "concurrent",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::synthetic(8.0, 1.5),
        None,
        8,
        &mut rng,
    );
    let sequences: Vec<Vec<PositioningRecord>> = dataset
        .sequences
        .iter()
        .map(|s| s.positioning().collect())
        .collect();
    let ids: Vec<u64> = (0..sequences.len() as u64).map(|i| i % 3).collect();
    (space, ids, sequences)
}

fn model(space: &IndoorSpace) -> C2mn<'_> {
    C2mn::from_weights(space, C2mnConfig::quick_test(), Weights::uniform(1.0))
}

/// Which of two sessions takes push `i`: `pattern` holds run lengths,
/// alternating session 0 / session 1 as it cycles.
fn session_assignments(n: usize, pattern: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    let mut run = 0;
    while out.len() < n {
        let len = pattern[run % pattern.len()].clamp(1, n - out.len());
        out.extend(std::iter::repeat_n(run % 2, len));
        run += 1;
    }
    out
}

const INTERLEAVINGS: [&[usize]; 4] = [
    &[1],          // strict alternation a, b, a, b, ...
    &[2, 1],       // uneven runs a a, b, a a, b, ...
    &[usize::MAX], // everything in session a, session b stays empty
    &[3, 2, 1],    // shifting runs
];

#[derive(Debug, Clone, Copy)]
struct Case {
    base_seed: u64,
    shards: usize,
    queue_capacity: usize,
    interleaving_id: usize,
    flush_mid: bool,
}

prop_compose! {
    fn arb_case()(
        base_seed in 0u64..1000,
        shards in 1usize..9,
        queue_capacity in 1usize..12,
        interleaving_id in 0usize..INTERLEAVINGS.len(),
        flush_mid in 0u8..2,
    ) -> Case {
        Case { base_seed, shards, queue_capacity, interleaving_id, flush_mid: flush_mid == 1 }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two live sessions, pushes interleaved between them in a fixed
    /// global order, equal the serial single-stream offline reference —
    /// the interleaving, the queue capacity, a mid-stream flush, and the
    /// thread count are all unobservable in the sealed store.
    #[test]
    fn interleaved_sessions_equal_serial_ingestion(case in arb_case()) {
        let (space, ids, sequences) = workload();
        let n = sequences.len();
        let reference = BatchAnnotator::new(&model(&space), 1, case.base_seed)
            .annotate_into_store(&sequences, &ids, case.shards);
        let assignments = session_assignments(n, INTERLEAVINGS[case.interleaving_id]);
        for threads in THREAD_COUNTS {
            let engine = EngineBuilder::new()
                .threads(threads)
                .shards(case.shards)
                .base_seed(case.base_seed)
                .queue_capacity(case.queue_capacity)
                .build(model(&space))
                .unwrap();
            let mut a = engine.ingest();
            let mut b = engine.ingest();
            for (i, &who) in assignments.iter().enumerate() {
                let session = if who == 0 { &mut a } else { &mut b };
                session.push(ids[i], sequences[i].clone());
                if case.flush_mid && i == n / 2 {
                    a.flush();
                }
            }
            let pushed_a = a.seal();
            let pushed_b = b.seal();
            prop_assert_eq!(pushed_a + pushed_b, n as u64);
            prop_assert_eq!(engine.sequences_ingested(), n as u64);
            prop_assert_eq!(engine.sequences_committed(), n as u64);
            prop_assert_eq!(engine.store().num_postings(), reference.num_postings());
            for s in 0..case.shards {
                let want: Vec<_> = reference
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                let got: Vec<_> = engine
                    .store()
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                prop_assert_eq!(
                    got, want,
                    "shard {} diverged at threads={} interleaving={} capacity={} flush_mid={}",
                    s, threads, case.interleaving_id, case.queue_capacity, case.flush_mid
                );
            }
        }
    }
}

/// Sessions racing from real OS threads — with queries running against
/// the live store at the same time — never lose a sequence, never
/// deadlock, and leave the engine fully committed. (Byte-identity under
/// real races is covered by the interleaved test above: the race only
/// permutes the stamped order, which the reorder buffer serialises.)
#[test]
fn racing_sessions_commit_every_sequence() {
    let (space, ids, sequences) = workload();
    let n = sequences.len();
    let split = n / 2;
    let engine = EngineBuilder::new()
        .threads(4)
        .shards(3)
        .base_seed(11)
        .queue_capacity(2)
        .build(model(&space))
        .unwrap();
    let regions: Vec<_> = space.regions().iter().map(|r| r.id).collect();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut session = engine.ingest();
            for i in 0..split {
                session.push(ids[i], sequences[i].clone());
            }
            // Drop seals: an engine-wide barrier racing the other session.
        });
        scope.spawn(|| {
            let mut session = engine.ingest();
            for i in split..n {
                session.push(ids[i], sequences[i].clone());
            }
            session.seal();
        });
        // Queries observe only sealed prefixes while the race runs.
        scope.spawn(|| {
            for _ in 0..10 {
                let _ = engine.tk_prq(&regions, 3, TimePeriod::new(0.0, 1e9));
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(engine.sequences_ingested(), n as u64);
    assert_eq!(engine.sequences_committed(), n as u64);
    let expected_objects: std::collections::BTreeSet<_> = ids.iter().copied().collect();
    assert_eq!(engine.num_objects(), expected_objects.len());
    assert_eq!(engine.store().num_pending(), 0);
    for id in expected_objects {
        assert!(engine.semantics_of(id).is_some_and(|s| !s.is_empty()));
    }
}

/// The acceptance pin for the persistent pool: after engine construction
/// no steady-state path — pipelined ingest, batch fan-out, sealing,
/// one-shot and standing queries, offline helpers — ever spawns another
/// thread. Work provably ran on the pool (claims and dispatches grew).
#[test]
fn steady_state_paths_never_spawn_threads() {
    let (space, ids, sequences) = workload();
    let engine = EngineBuilder::new()
        .threads(3)
        .shards(3)
        .base_seed(7)
        .queue_capacity(2)
        .build(model(&space))
        .unwrap();
    let spawned = engine.pool_stats().threads_spawned;
    assert_eq!(spawned, engine.threads() - 1);

    let regions: Vec<_> = space.regions().iter().map(|r| r.id).collect();
    let qt = TimePeriod::new(0.0, 1e9);
    for round in 0..2 {
        let mut session = engine.ingest();
        for i in 0..sequences.len() {
            session.push(ids[i] + round, sequences[i].clone());
        }
        session.seal();
        let _ = engine.tk_prq(&regions, 3, qt);
        let _ = engine.tk_frpq(&regions, 3, qt);
    }
    let standing = engine.standing_tk_prq(&regions, 3, qt);
    assert!(engine.standing_prq_result(standing).is_some());
    let _ = engine.label_batch(&sequences[..2]);
    let _ = engine.annotate_batch(&sequences[..2]);

    let stats = engine.pool_stats();
    assert_eq!(
        stats.threads_spawned, spawned,
        "a steady-state path spawned a thread: {stats:?}"
    );
    assert!(
        stats.items_claimed > 0,
        "no work ran on the pool: {stats:?}"
    );
    assert!(
        stats.fanout_calls + stats.inline_calls > 0,
        "no blocking call dispatched: {stats:?}"
    );

    // A second engine on its own pool starts its own counter; the first
    // engine's pool still never grows.
    let other = EngineBuilder::new()
        .threads(2)
        .build(model(&space))
        .unwrap();
    assert_eq!(other.pool_stats().threads_spawned, 1);
    assert_eq!(engine.pool_stats().threads_spawned, spawned);
}

/// Derived views stay exact while seals land under them. One thread
/// keeps registering standing queries and issuing a cached one-shot
/// query while the main thread pushes and seals one sequence at a time.
/// Once the stream ends, every standing ranking and the cached answer
/// must equal a fresh evaluation of the sealed store: a registration (or
/// cache fill) whose store read and publish straddle a seal would either
/// miss that seal's stays or count them twice.
#[test]
fn standing_and_cached_queries_stay_exact_under_concurrent_seals() {
    const SEALS: usize = 32;
    let mut rng = StdRng::seed_from_u64(17);
    let space = BuildingGenerator::small_office()
        .generate(&mut rng)
        .unwrap();
    let dataset = Dataset::generate(
        "seal-race",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::synthetic(8.0, 1.5),
        None,
        SEALS,
        &mut rng,
    );
    let engine = EngineBuilder::new()
        .threads(2)
        .shards(3)
        .base_seed(13)
        .build(model(&space))
        .unwrap();
    let regions: Vec<_> = space.regions().iter().map(|r| r.id).collect();
    let qt = TimePeriod::new(0.0, 1e9);
    let done = AtomicBool::new(false);
    let (prqs, frpqs) = std::thread::scope(|scope| {
        let registrar = scope.spawn(|| {
            let (mut prqs, mut frpqs) = (Vec::new(), Vec::new());
            while !done.load(Ordering::Acquire) {
                prqs.push(engine.standing_tk_prq(&regions, 5, qt));
                // An FRPQ registration costs several PRQ ones.
                if prqs.len() % 8 == 0 {
                    frpqs.push(engine.standing_tk_frpq(&regions, 5, qt));
                }
                let _ = engine.tk_prq(&regions, 5, qt);
            }
            (prqs, frpqs)
        });
        for (i, seq) in dataset.sequences.iter().take(SEALS).enumerate() {
            let mut session = engine.ingest();
            session.push(i as u64, seq.positioning().collect());
            session.seal();
        }
        done.store(true, Ordering::Release);
        registrar.join().unwrap()
    });

    let mut batch = QueryBatch::new();
    batch.tk_prq(&regions, 5, qt);
    batch.tk_frpq(&regions, 5, qt);
    let mut fresh = engine.run_batch(&batch).into_iter();
    let prq = fresh.next().and_then(QueryAnswer::into_prq).unwrap();
    let frpq = fresh.next().and_then(QueryAnswer::into_frpq).unwrap();
    let stale = prqs
        .iter()
        .filter(|&&id| engine.standing_prq_result(id).as_ref() != Some(&prq))
        .count()
        + frpqs
            .iter()
            .filter(|&&id| engine.standing_frpq_result(id).as_ref() != Some(&frpq))
            .count();
    assert_eq!(
        stale,
        0,
        "{stale} of {} standing queries diverged from a fresh run",
        prqs.len() + frpqs.len()
    );
    assert_eq!(engine.tk_prq(&regions, 5, qt), prq, "stale cached answer");
}
