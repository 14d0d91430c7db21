//! Semantics-oriented top-k queries over annotated m-semantics (§V-B4).
//!
//! Two engines over the same query semantics:
//!
//! * **Flat reference** — [`SemanticsStore`] plus [`tk_prq`] / [`tk_frpq`]:
//!   a sequential full scan, kept as the correctness oracle.
//! * **Sharded engine** — [`ShardedSemanticsStore`] plus
//!   [`tk_prq_sharded`] / [`tk_frpq_sharded`]: objects hashed into `S`
//!   shards ([`shard_of`]), each shard holding a region→visit posting index
//!   sorted by time, query evaluation fanned out over an
//!   [`ism_runtime::WorkerPool`] as a map-reduce (per-shard partial counts
//!   merged by summation).
//!
//! The queries:
//!
//! * **TkPRQ** — the `k` regions from a query set with the most visits
//!   (a visit = a stay event overlapping the query time interval),
//! * **TkFRPQ** — the `k` region pairs most frequently visited by the same
//!   object.
//!
//! The sharded store is **live**: producers
//! [`append`](ShardedSemanticsStore::append) entries into per-shard
//! pending segments and [`seal`](ShardedSemanticsStore::seal) them into
//! the posting indexes incrementally (a seal merges its new postings into
//! the region lists they touch, never the whole store) — the storage layer
//! behind the `ism-engine` streaming ingestion API. Append, then seal, is
//! the only way to fill a store; [`ShardedSemanticsStore::from_store`],
//! the batch annotator and snapshot decode all go through it.
//! `tests/incremental_oracle.rs` pins any append/seal interleaving equal
//! to the flat reference. Each region's postings are one raw list sorted by
//! (start, end, object) and sized exactly to its length (see the `index`
//! module), so a query binary-searches the postings that can overlap its
//! interval and reads them in place.
//!
//! Three read paths share the sharded evaluation core:
//!
//! * **One-shot** — [`tk_prq_sharded`] / [`tk_frpq_sharded`], each a
//!   [`QueryBatch`] of one.
//! * **Batched** — [`QueryBatch`]: N queries share a *single* worker-pool
//!   fan-out over the shards, amortising dispatch overhead that made
//!   query-at-a-time fan-out slower than one thread on small stores. The
//!   batch also sizes the fan-out to the work
//!   (postings × queries), evaluating small workloads on the calling
//!   thread.
//! * **Standing** — [`StandingTkPrq`] / [`StandingTkFrpq`]: registered
//!   once, then folded forward incrementally from each seal's
//!   [`SealSummary`] (read by
//!   [`pending_summary`](ShardedSemanticsStore::pending_summary) before
//!   the seal), byte-identical at every seal to a full re-run.
//!
//! ## Determinism contract
//!
//! Ties are broken by region id, per-shard partials merge through a
//! commutative sum, and objects are hashed whole into a single shard — so
//! sharded results are **byte-identical for any shard count and any thread
//! count**, and equal to the flat sequential reference. The property suite
//! (`tests/sharded_oracle.rs`) pins this over shard counts {1, 3, 8} ×
//! thread counts {1, 2, 4}.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod index;
mod persist;
mod standing;
mod store;
mod topk;

pub use batch::{QueryAnswer, QueryBatch};
pub use standing::{StandingTkFrpq, StandingTkPrq};
pub use store::{
    shard_of, SealSummary, SemanticsStore, ShardedSemanticsStore, StoreError, DEFAULT_SHARDS,
};
pub use topk::{tk_frpq, tk_frpq_sharded, tk_prq, tk_prq_sharded, QuerySet};

#[cfg(test)]
mod tests {
    use super::*;
    use ism_indoor::RegionId;
    use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
    use ism_runtime::WorkerPool;
    use MobilityEvent::{Pass, Stay};

    fn ms(region: u32, start: f64, end: f64, event: MobilityEvent) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event,
        }
    }

    fn sample_store() -> SemanticsStore {
        let mut store = SemanticsStore::new();
        // Object 1 stays in R0 and R1, passes R2.
        store.insert(
            1,
            vec![
                ms(0, 0.0, 100.0, Stay),
                ms(2, 100.0, 110.0, Pass),
                ms(1, 110.0, 200.0, Stay),
            ],
        );
        // Object 2 stays in R0 twice and R2 once.
        store.insert(
            2,
            vec![
                ms(0, 0.0, 50.0, Stay),
                ms(2, 60.0, 80.0, Stay),
                ms(0, 90.0, 120.0, Stay),
            ],
        );
        // Object 3 only passes.
        store.insert(3, vec![ms(0, 0.0, 300.0, Pass)]);
        store
    }

    #[test]
    fn prq_counts_stays_only() {
        let store = sample_store();
        let query: Vec<RegionId> = (0..3).map(RegionId).collect();
        let qt = TimePeriod::new(0.0, 300.0);
        let top = tk_prq(&store, &query, 3, qt);
        // R0: obj1 once + obj2 twice = 3 visits; R2: 1; R1: 1.
        assert_eq!(top[0], (RegionId(0), 3));
        assert_eq!(top.len(), 3);
        assert!(top[1..].iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn prq_respects_time_interval() {
        let store = sample_store();
        let query: Vec<RegionId> = (0..3).map(RegionId).collect();
        // Only the tail: object 1's R1 stay and object 2's second R0 stay.
        let top = tk_prq(&store, &query, 3, TimePeriod::new(115.0, 300.0));
        assert!(top.contains(&(RegionId(1), 1)));
        assert!(top.contains(&(RegionId(0), 1)));
        assert!(!top.iter().any(|&(r, _)| r == RegionId(2)));
    }

    #[test]
    fn prq_respects_query_set() {
        let store = sample_store();
        let top = tk_prq(
            &store,
            &[RegionId(1), RegionId(2)],
            5,
            TimePeriod::new(0.0, 300.0),
        );
        assert!(!top.iter().any(|&(r, _)| r == RegionId(0)));
    }

    #[test]
    fn frpq_counts_objects_per_pair() {
        let store = sample_store();
        let query: Vec<RegionId> = (0..3).map(RegionId).collect();
        let top = tk_frpq(&store, &query, 5, TimePeriod::new(0.0, 300.0));
        // Object 1 visited {R0, R1}; object 2 visited {R0, R2}.
        assert!(top.contains(&((RegionId(0), RegionId(1)), 1)));
        assert!(top.contains(&((RegionId(0), RegionId(2)), 1)));
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn frpq_counts_object_once_per_pair() {
        let mut store = SemanticsStore::new();
        // One object visits R0 and R1 repeatedly: the pair still counts 1.
        store.insert(
            7,
            vec![
                ms(0, 0.0, 10.0, Stay),
                ms(1, 20.0, 30.0, Stay),
                ms(0, 40.0, 50.0, Stay),
                ms(1, 60.0, 70.0, Stay),
            ],
        );
        let query = vec![RegionId(0), RegionId(1)];
        let top = tk_frpq(&store, &query, 5, TimePeriod::new(0.0, 100.0));
        assert_eq!(top, vec![((RegionId(0), RegionId(1)), 1)]);
    }

    #[test]
    fn frpq_does_not_double_count_reinserted_objects() {
        // Regression: two `insert` calls for one object id used to produce
        // two store entries, counting the object twice per pair.
        let mut store = SemanticsStore::new();
        store.insert(7, vec![ms(0, 0.0, 10.0, Stay)]);
        store.insert(7, vec![ms(1, 20.0, 30.0, Stay)]);
        let query = vec![RegionId(0), RegionId(1)];
        let top = tk_frpq(&store, &query, 5, TimePeriod::new(0.0, 100.0));
        assert_eq!(top, vec![((RegionId(0), RegionId(1)), 1)]);
    }

    #[test]
    fn empty_store_returns_empty() {
        let store = SemanticsStore::new();
        assert!(store.is_empty());
        let query = vec![RegionId(0)];
        assert!(tk_prq(&store, &query, 3, TimePeriod::new(0.0, 1.0)).is_empty());
        assert!(tk_frpq(&store, &query, 3, TimePeriod::new(0.0, 1.0)).is_empty());
        let sharded = ShardedSemanticsStore::from_store(&store, 4);
        assert!(sharded.is_empty());
        let pool = WorkerPool::new(2);
        assert!(tk_prq_sharded(&sharded, &query, 3, TimePeriod::new(0.0, 1.0), &pool).is_empty());
        assert!(tk_frpq_sharded(&sharded, &query, 3, TimePeriod::new(0.0, 1.0), &pool).is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let store = sample_store();
        let query: Vec<RegionId> = (0..3).map(RegionId).collect();
        let a = tk_prq(&store, &query, 3, TimePeriod::new(0.0, 300.0));
        let b = tk_prq(&store, &query, 3, TimePeriod::new(0.0, 300.0));
        assert_eq!(a, b);
        // R1 and R2 both have one visit: lower id first.
        assert_eq!(a[1].0, RegionId(1));
        assert_eq!(a[2].0, RegionId(2));
    }

    #[test]
    fn sharded_matches_flat_on_sample_store() {
        let store = sample_store();
        let query: Vec<RegionId> = (0..3).map(RegionId).collect();
        for qt in [
            TimePeriod::new(0.0, 300.0),
            TimePeriod::new(115.0, 300.0),
            TimePeriod::new(400.0, 500.0),
        ] {
            let flat_prq = tk_prq(&store, &query, 3, qt);
            let flat_frpq = tk_frpq(&store, &query, 3, qt);
            for shards in [1, 2, 5] {
                let sharded = ShardedSemanticsStore::from_store(&store, shards);
                for threads in [1, 2, 4] {
                    let pool = WorkerPool::new(threads);
                    assert_eq!(tk_prq_sharded(&sharded, &query, 3, qt, &pool), flat_prq);
                    assert_eq!(tk_frpq_sharded(&sharded, &query, 3, qt, &pool), flat_frpq);
                }
            }
        }
    }
}
