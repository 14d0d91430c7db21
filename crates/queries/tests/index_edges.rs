//! Edge-case property suite for the sorted per-region posting lists: stay
//! intervals whose edges land exactly on query window edges and the
//! `max_duration` candidate-range widening must never change results
//! versus the flat sequential oracle, and batched evaluation must equal
//! query-at-a-time evaluation.

use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use ism_queries::{
    tk_frpq, tk_frpq_sharded, tk_prq, tk_prq_sharded, QueryBatch, SemanticsStore,
    ShardedSemanticsStore,
};
use ism_runtime::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one grid-aligned case: every start sits on an integer
/// grid point, so many starts coincide with each other and with the
/// candidate-range bounds the index binary-searches for, and the query
/// window edges land exactly on stored starts/ends.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    objects: u64,
    regions: u32,
    grid: u64,
    k: usize,
    qt_lo: u64,
    qt_len: u64,
}

prop_compose! {
    fn arb_case()(
        seed in 0u64..u64::MAX / 2,
        objects in 1u64..40,
        regions in 1u32..6,
        grid in 1u64..20,
        k in 1usize..6,
        qt_lo in 0u64..80,
        qt_len in 0u64..80,
    ) -> Case {
        Case { seed, objects, regions, grid, k, qt_lo, qt_len }
    }
}

/// Builds a store whose starts/ends are integer multiples of `grid`, with
/// a sprinkle of much-longer stays so `max_duration` widening is load
/// bearing: those stays begin well before a late query window yet overlap
/// it, and only the widened candidate range finds them.
fn grid_store(case: &Case) -> SemanticsStore {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let mut store = SemanticsStore::new();
    for object in 0..case.objects {
        let timeline: Vec<MobilitySemantics> = (0..rng.random_range(1..6))
            .map(|_| {
                let start = (rng.random_range(0..100u64) * case.grid) as f64;
                let cells = if rng.random_bool(0.15) {
                    rng.random_range(50..200u64)
                } else {
                    rng.random_range(0..6u64)
                };
                MobilitySemantics {
                    region: RegionId(rng.random_range(0..case.regions)),
                    period: TimePeriod::new(start, start + (cells * case.grid) as f64),
                    event: if rng.random_bool(0.7) {
                        MobilityEvent::Stay
                    } else {
                        MobilityEvent::Pass
                    },
                }
            })
            .collect();
        store.insert(object, timeline);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Coinciding starts/ends and widened candidate ranges never change
    /// results: the sharded index equals the flat scan,
    /// including query windows whose edges touch stored interval edges.
    #[test]
    fn grid_aligned_intervals_match_flat_oracle(case in arb_case()) {
        let store = grid_store(&case);
        let query: Vec<RegionId> = (0..case.regions).map(RegionId).collect();
        let qt = TimePeriod::new(
            (case.qt_lo * case.grid) as f64,
            ((case.qt_lo + case.qt_len) * case.grid) as f64,
        );
        let want_prq = tk_prq(&store, &query, case.k, qt);
        let want_frpq = tk_frpq(&store, &query, case.k, qt);
        for shards in [1usize, 4] {
            let sharded = ShardedSemanticsStore::from_store(&store, shards);
            for threads in [1usize, 3] {
                let pool = WorkerPool::new(threads);
                prop_assert_eq!(
                    &tk_prq_sharded(&sharded, &query, case.k, qt, &pool),
                    &want_prq,
                    "TkPRQ diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    &tk_frpq_sharded(&sharded, &query, case.k, qt, &pool),
                    &want_frpq,
                    "TkFRPQ diverged at shards={} threads={}", shards, threads
                );
            }
        }
    }

    /// A batch carrying both queries — plus empty and unmatched region
    /// sets — answers each slot exactly like the flat oracle.
    #[test]
    fn batched_evaluation_equals_flat_oracle(case in arb_case()) {
        let store = grid_store(&case);
        let query: Vec<RegionId> = (0..case.regions).map(RegionId).collect();
        let qt = TimePeriod::new(
            (case.qt_lo * case.grid) as f64,
            ((case.qt_lo + case.qt_len) * case.grid) as f64,
        );
        let sharded = ShardedSemanticsStore::from_store(&store, 3);
        let pool = WorkerPool::new(2);
        let unknown = vec![RegionId(case.regions + 100)];
        let mut batch = QueryBatch::new();
        batch.tk_prq(&query, case.k, qt);
        batch.tk_frpq(&query, case.k, qt);
        batch.tk_prq(&[], case.k, qt);
        batch.tk_prq(&unknown, case.k, qt);
        batch.tk_frpq(&unknown, case.k, qt);
        let answers = batch.run(&sharded, &pool);
        prop_assert_eq!(
            answers[0].clone().into_prq().unwrap(),
            tk_prq(&store, &query, case.k, qt)
        );
        prop_assert_eq!(
            answers[1].clone().into_frpq().unwrap(),
            tk_frpq(&store, &query, case.k, qt)
        );
        prop_assert_eq!(
            answers[2].clone().into_prq().unwrap(),
            tk_prq(&store, &[], case.k, qt)
        );
        prop_assert_eq!(
            answers[3].clone().into_prq().unwrap(),
            tk_prq(&store, &unknown, case.k, qt)
        );
        prop_assert_eq!(
            answers[4].clone().into_frpq().unwrap(),
            tk_frpq(&store, &unknown, case.k, qt)
        );
    }
}

/// Regression: empty and unknown-region queries early-return the empty
/// ranking on every path — flat, sharded, and batched — even over a
/// populated store.
#[test]
fn empty_and_unknown_queries_agree_across_engines() {
    let store = grid_store(&Case {
        seed: 7,
        objects: 25,
        regions: 4,
        grid: 3,
        k: 5,
        qt_lo: 0,
        qt_len: 50,
    });
    let sharded = ShardedSemanticsStore::from_store(&store, 4);
    let pool = WorkerPool::new(2);
    let qt = TimePeriod::new(0.0, 1e6);
    let unknown = [RegionId(999)];
    let single = [RegionId(1)]; // one region: valid PRQ, empty FRPQ
    for query in [&[][..], &unknown[..]] {
        assert_eq!(tk_prq(&store, query, 5, qt), Vec::new());
        assert_eq!(tk_prq_sharded(&sharded, query, 5, qt, &pool), Vec::new());
        assert_eq!(tk_frpq(&store, query, 5, qt), Vec::new());
        assert_eq!(tk_frpq_sharded(&sharded, query, 5, qt, &pool), Vec::new());
    }
    assert_eq!(
        tk_frpq_sharded(&sharded, &single, 5, qt, &pool),
        tk_frpq(&store, &single, 5, qt)
    );
    assert_eq!(tk_frpq(&store, &single, 5, qt), Vec::new());
}
