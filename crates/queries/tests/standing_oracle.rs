//! Standing-query oracle property suite: a standing TkPRQ/TkFRPQ folded
//! forward from [`SealSummary`]s is **byte-identical at every seal** to
//! re-running the full query — against both the sharded engine and the
//! flat sequential reference — for random stores, growth schedules, shard
//! counts and thread counts.

use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use ism_queries::{
    tk_frpq, tk_frpq_sharded, tk_prq, tk_prq_sharded, SemanticsStore, ShardedSemanticsStore,
    StandingTkFrpq, StandingTkPrq,
};
use ism_runtime::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one random growth schedule.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    regions: u32,
    query_regions: u32,
    k: usize,
    shards: usize,
    threads: usize,
    waves: usize,
    wave_objects: u64,
    qt_start: f64,
    qt_len: f64,
}

prop_compose! {
    // The vendored proptest derives strategies for tuples up to arity 8,
    // so thread count and wave size are derived from the seed below.
    fn arb_case()(
        seed in 0u64..u64::MAX / 2,
        regions in 1u32..10,
        query_regions in 1u32..10,
        k in 1usize..8,
        shards in 1usize..6,
        waves in 1usize..5,
        qt_start in 0.0f64..500.0,
        qt_len in 0.0f64..800.0,
    ) -> Case {
        Case {
            seed, regions, query_regions, k, shards,
            threads: 1 + (seed % 3) as usize,
            waves,
            wave_objects: 1 + seed % 11,
            qt_start, qt_len,
        }
    }
}

/// One random timeline entry; ~40% passes, occasional long stays so the
/// `max_duration` widening matters.
fn random_semantics(rng: &mut StdRng, regions: u32) -> MobilitySemantics {
    let start = rng.random_range(0.0..1000.0);
    let duration = if rng.random_bool(0.1) {
        rng.random_range(100.0..400.0)
    } else {
        rng.random_range(1.0..60.0)
    };
    MobilitySemantics {
        region: RegionId(rng.random_range(0..regions)),
        period: TimePeriod::new(start, start + duration),
        event: if rng.random_bool(0.6) {
            MobilityEvent::Stay
        } else {
            MobilityEvent::Pass
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every seal of a randomly growing store, standing results
    /// equal full re-runs of the sharded engine *and* the flat oracle.
    #[test]
    fn standing_equals_rerun_at_every_seal(case in arb_case()) {
        let mut rng = StdRng::seed_from_u64(case.seed);
        let query: Vec<RegionId> = (0..case.query_regions)
            .map(|_| RegionId(rng.random_range(0..case.regions)))
            .collect();
        let qt = TimePeriod::new(case.qt_start, case.qt_start + case.qt_len);
        let pool = WorkerPool::new(case.threads);

        let mut sharded = ShardedSemanticsStore::new(case.shards);
        let mut flat = SemanticsStore::new();
        // Pre-seed some sealed data so registration starts non-empty.
        for _ in 0..case.wave_objects {
            let object = rng.random_range(0..20u64);
            let timeline: Vec<_> = (0..rng.random_range(1..4))
                .map(|_| random_semantics(&mut rng, case.regions))
                .collect();
            sharded.append(object, timeline.clone());
            flat.insert(object, timeline);
        }
        sharded.seal();

        let mut standing_prq = StandingTkPrq::new(&query, case.k, qt, &sharded, &pool);
        let mut standing_frpq = StandingTkFrpq::new(&query, case.k, qt, &sharded, &pool);
        prop_assert_eq!(
            standing_prq.result(),
            tk_prq(&flat, &query, case.k, qt),
            "registration PRQ"
        );
        prop_assert_eq!(
            standing_frpq.result(),
            tk_frpq(&flat, &query, case.k, qt),
            "registration FRPQ"
        );

        for wave in 0..case.waves {
            for _ in 0..case.wave_objects {
                let object = rng.random_range(0..20u64);
                let timeline: Vec<_> = (0..rng.random_range(1..4))
                    .map(|_| random_semantics(&mut rng, case.regions))
                    .collect();
                sharded.append(object, timeline.clone());
                flat.insert(object, timeline);
            }
            // Alternate sequential and pool-parallel seals.
            let summary = sharded.pending_summary();
            if wave % 2 == 0 {
                sharded.seal();
            } else {
                sharded.seal_with(&pool);
            }
            standing_prq.observe_seal(&summary);
            standing_frpq.observe_seal(&summary);
            prop_assert_eq!(
                standing_prq.result(),
                tk_prq_sharded(&sharded, &query, case.k, qt, &pool),
                "wave {} PRQ vs sharded", wave
            );
            prop_assert_eq!(
                standing_prq.result(),
                tk_prq(&flat, &query, case.k, qt),
                "wave {} PRQ vs flat", wave
            );
            prop_assert_eq!(
                standing_frpq.result(),
                tk_frpq_sharded(&sharded, &query, case.k, qt, &pool),
                "wave {} FRPQ vs sharded", wave
            );
            prop_assert_eq!(
                standing_frpq.result(),
                tk_frpq(&flat, &query, case.k, qt),
                "wave {} FRPQ vs flat", wave
            );
        }
    }
}
