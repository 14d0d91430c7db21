//! Incremental-maintenance oracle: a sharded store grown by arbitrary
//! append/seal interleavings equals the flat reference store over the same
//! entries — each shard holds the flat store's objects that hash to it, in
//! the flat store's order, and both top-k queries answer like the flat
//! scans — over shard counts {1, 3, 8}.

use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use ism_queries::{
    shard_of, tk_frpq, tk_frpq_sharded, tk_prq, tk_prq_sharded, SemanticsStore,
    ShardedSemanticsStore,
};
use ism_runtime::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    entries: u64,
    regions: u32,
    /// Average entries per append/seal round (1 = seal after every append).
    chunk: u64,
    k: usize,
    qt_start: f64,
    qt_len: f64,
}

/// Random `(object, timeline)` entries with frequent duplicate object ids
/// (one object's chunked sub-sequences arriving separately).
fn random_entries(case: &Case) -> Vec<(u64, Vec<MobilitySemantics>)> {
    let mut rng = StdRng::seed_from_u64(case.seed);
    (0..case.entries)
        .map(|i| {
            let object = if i > 0 && rng.random_bool(0.3) {
                rng.random_range(0..i)
            } else {
                i
            };
            let mut t = rng.random_range(0.0..200.0);
            let mut timeline = Vec::new();
            while t < 1000.0 && timeline.len() < 12 {
                let duration = rng.random_range(1.0..70.0);
                timeline.push(MobilitySemantics {
                    region: RegionId(rng.random_range(0..case.regions)),
                    period: TimePeriod::new(t, t + duration),
                    event: if rng.random_bool(0.6) {
                        MobilityEvent::Stay
                    } else {
                        MobilityEvent::Pass
                    },
                });
                t += duration + rng.random_range(0.5..40.0);
            }
            (object, timeline)
        })
        .collect()
}

prop_compose! {
    fn arb_case()(
        seed in 0u64..u64::MAX / 2,
        entries in 1u64..40,
        regions in 1u32..12,
        chunk in 1u64..10,
        k in 1usize..8,
        qt_start in -100.0f64..1100.0,
        qt_len in 0.0f64..500.0,
    ) -> Case {
        Case { seed, entries, regions, chunk, k, qt_start, qt_len }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Append + seal in random-sized rounds == the flat reference, for
    /// every shard count, including the queries served off the indexes.
    #[test]
    fn incremental_growth_equals_full_rebuild(case in arb_case()) {
        let entries = random_entries(&case);
        let query: Vec<RegionId> = (0..case.regions).map(RegionId).collect();
        let qt = TimePeriod::new(case.qt_start, case.qt_start + case.qt_len);
        let mut chunk_rng = StdRng::seed_from_u64(case.seed ^ 0x5EED);
        let mut reference = SemanticsStore::new();
        for (object, timeline) in &entries {
            reference.insert(*object, timeline.clone());
        }
        let reference_postings = reference
            .iter()
            .flat_map(|(_, sem)| sem)
            .filter(|ms| ms.event == MobilityEvent::Stay)
            .count();
        for shards in SHARD_COUNTS {
            let mut live = ShardedSemanticsStore::new(shards);
            let mut i = 0;
            while i < entries.len() {
                let n = (chunk_rng.random_range(1..=case.chunk) as usize).min(entries.len() - i);
                for (object, timeline) in &entries[i..i + n] {
                    live.append(*object, timeline.clone());
                }
                // Alternate sequential and pooled seals.
                if chunk_rng.random_bool(0.5) {
                    live.seal();
                } else {
                    live.seal_with(&WorkerPool::new(4));
                }
                i += n;
            }
            prop_assert_eq!(live.num_pending(), 0);
            prop_assert_eq!(live.len(), reference.len(), "len at shards={}", shards);
            prop_assert_eq!(
                live.num_postings(),
                reference_postings,
                "postings at shards={}", shards
            );
            for s in 0..shards {
                let want: Vec<_> = reference
                    .iter()
                    .filter(|&(id, _)| shard_of(id, shards) == s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                let got: Vec<_> = live
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .collect();
                prop_assert_eq!(got, want, "shard {} of {} diverged", s, shards);
            }
            let pool = WorkerPool::new(2);
            prop_assert_eq!(
                tk_prq_sharded(&live, &query, case.k, qt, &pool),
                tk_prq(&reference, &query, case.k, qt),
                "TkPRQ diverged at shards={}", shards
            );
            prop_assert_eq!(
                tk_frpq_sharded(&live, &query, case.k, qt, &pool),
                tk_frpq(&reference, &query, case.k, qt),
                "TkFRPQ diverged at shards={}", shards
            );
        }
    }
}
