//! Standing (continuous) top-k queries, maintained incrementally.
//!
//! A mall dashboard holds its top-k popular-region and frequent-pair
//! queries open all day; re-evaluating them from scratch after every seal
//! re-pays the full index scan for data that barely changed. A standing
//! query instead keeps the *full count state* its ranking derives from and
//! folds in exactly the visit postings each seal publishes
//! ([`SealSummary::new_stays`](crate::SealSummary), read by
//! [`pending_summary`](crate::ShardedSemanticsStore::pending_summary)
//! just before the seal):
//!
//! * [`StandingTkPrq`] — per-region visit counts; a new qualifying stay
//!   increments one counter.
//! * [`StandingTkFrpq`] — per-pair object counts plus each object's
//!   distinct qualifying region set; a stay in a region the object has not
//!   yet qualified in adds one count for every pair it completes.
//!
//! Both updates are commutative per posting and mirror the counting rules
//! of the batch/flat engines exactly, so after every seal the standing
//! [`result`](StandingTkPrq::result) is **byte-identical** to re-running
//! the full query over the sealed store — the contract the
//! `standing_oracle` property suite pins.

use ism_indoor::RegionId;
use ism_mobility::TimePeriod;
use ism_runtime::WorkerPool;
use std::collections::HashMap;

use crate::store::{SealSummary, ShardedSemanticsStore};
use crate::topk::{rank, QuerySet};

/// A standing top-k popular region query.
#[derive(Debug, Clone)]
pub struct StandingTkPrq {
    query: QuerySet,
    k: usize,
    qt: TimePeriod,
    counts: HashMap<RegionId, usize>,
}

impl StandingTkPrq {
    /// Registers the query over everything `store` has sealed so far (one
    /// indexed evaluation on `pool`); subsequent seals are folded in with
    /// [`observe_seal`](StandingTkPrq::observe_seal).
    pub fn new(
        query: &[RegionId],
        k: usize,
        qt: TimePeriod,
        store: &ShardedSemanticsStore,
        pool: &WorkerPool,
    ) -> Self {
        let query = QuerySet::new(query);
        let counts = store.prq_partials(&query, &qt, pool);
        StandingTkPrq {
            query,
            k,
            qt,
            counts,
        }
    }

    /// Folds one newly published visit posting into the counts.
    pub fn observe(&mut self, _object: u64, region: RegionId, period: TimePeriod) {
        if self.query.contains(region) && period.overlaps(&self.qt) {
            *self.counts.entry(region).or_insert(0) += 1;
        }
    }

    /// Folds everything a seal published into the counts.
    pub fn observe_seal(&mut self, summary: &SealSummary) {
        for &(object, region, period) in &summary.new_stays {
            self.observe(object, region, period);
        }
    }

    /// The current ranking — byte-identical to re-running
    /// [`tk_prq_sharded`](crate::tk_prq_sharded) over the sealed store.
    pub fn result(&self) -> Vec<(RegionId, usize)> {
        rank(self.counts.clone(), self.k)
    }
}

/// A standing top-k frequent region pair query.
#[derive(Debug, Clone)]
pub struct StandingTkFrpq {
    query: QuerySet,
    k: usize,
    qt: TimePeriod,
    pair_counts: HashMap<(RegionId, RegionId), usize>,
    /// Each object's distinct qualifying regions, ascending — the state
    /// that lets a future stay know which pairs it completes.
    visited: HashMap<u64, Vec<RegionId>>,
}

impl StandingTkFrpq {
    /// Registers the query over everything `store` has sealed so far (one
    /// indexed evaluation on `pool`); subsequent seals are folded in with
    /// [`observe_seal`](StandingTkFrpq::observe_seal).
    pub fn new(
        query: &[RegionId],
        k: usize,
        qt: TimePeriod,
        store: &ShardedSemanticsStore,
        pool: &WorkerPool,
    ) -> Self {
        let query = QuerySet::new(query);
        // Objects hash whole into one shard, so per-shard distinct-visit
        // lists concern disjoint objects and concatenate commutatively.
        let visits: Vec<(u64, RegionId)> = pool.map_reduce(
            store.num_shards(),
            Vec::new,
            |acc: &mut Vec<(u64, RegionId)>, s| {
                acc.extend(store.shard(s).index().distinct_visits(&query, &qt));
            },
            |total, acc| total.extend(acc),
        );
        let mut visited: HashMap<u64, Vec<RegionId>> = HashMap::new();
        for (object, region) in visits {
            // Within one object the regions arrive ascending (the shard's
            // list is sorted and an object lives in one shard).
            visited.entry(object).or_default().push(region);
        }
        let mut pair_counts: HashMap<(RegionId, RegionId), usize> = HashMap::new();
        for regions in visited.values() {
            // analyzer: allow(lib-panic) `i < j < regions.len()` by the loop bounds
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    *pair_counts.entry((regions[i], regions[j])).or_insert(0) += 1;
                }
            }
        }
        StandingTkFrpq {
            query,
            k,
            qt,
            pair_counts,
            visited,
        }
    }

    /// Folds one newly published visit posting into the pair counts.
    pub fn observe(&mut self, object: u64, region: RegionId, period: TimePeriod) {
        if !self.query.contains(region) || !period.overlaps(&self.qt) {
            return;
        }
        let regions = self.visited.entry(object).or_default();
        if let Err(pos) = regions.binary_search(&region) {
            for &r in regions.iter() {
                let pair = if r < region { (r, region) } else { (region, r) };
                *self.pair_counts.entry(pair).or_insert(0) += 1;
            }
            regions.insert(pos, region);
        }
    }

    /// Folds everything a seal published into the pair counts.
    pub fn observe_seal(&mut self, summary: &SealSummary) {
        for &(object, region, period) in &summary.new_stays {
            self.observe(object, region, period);
        }
    }

    /// The current ranking — byte-identical to re-running
    /// [`tk_frpq_sharded`](crate::tk_frpq_sharded) over the sealed store.
    pub fn result(&self) -> Vec<((RegionId, RegionId), usize)> {
        rank(self.pair_counts.clone(), self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{tk_frpq_sharded, tk_prq_sharded};
    use ism_mobility::{MobilityEvent, MobilitySemantics};

    fn ms(region: u32, start: f64, end: f64, stay: bool) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event: if stay {
                MobilityEvent::Stay
            } else {
                MobilityEvent::Pass
            },
        }
    }

    #[test]
    fn standing_results_track_seals_exactly() {
        let pool = WorkerPool::new(2);
        let query: Vec<RegionId> = (0..4).map(RegionId).collect();
        let qt = TimePeriod::new(50.0, 400.0);
        let mut store = ShardedSemanticsStore::new(3);
        // Some initial sealed data before registration.
        for i in 0..10u64 {
            store.append(
                i % 6,
                vec![ms(
                    i as u32 % 5,
                    i as f64 * 20.0,
                    i as f64 * 20.0 + 30.0,
                    true,
                )],
            );
        }
        store.seal();
        let mut prq = StandingTkPrq::new(&query, 3, qt, &store, &pool);
        let mut frpq = StandingTkFrpq::new(&query, 3, qt, &store, &pool);
        assert_eq!(prq.result(), tk_prq_sharded(&store, &query, 3, qt, &pool));
        assert_eq!(frpq.result(), tk_frpq_sharded(&store, &query, 3, qt, &pool));
        // Grow in three waves, checking after each seal; waves mix stays,
        // passes, repeat visits and out-of-window periods.
        for wave in 0..3u64 {
            for i in 0..12u64 {
                let object = (wave * 5 + i) % 9;
                let region = (i % 6) as u32; // region 4, 5 outside the query set
                let start = 30.0 + (wave * 12 + i) as f64 * 31.0;
                store.append(object, vec![ms(region, start, start + 25.0, i % 4 != 0)]);
            }
            let summary = store.pending_summary();
            assert!(store.seal() > 0);
            prq.observe_seal(&summary);
            frpq.observe_seal(&summary);
            assert_eq!(
                prq.result(),
                tk_prq_sharded(&store, &query, 3, qt, &pool),
                "wave {wave} prq"
            );
            assert_eq!(
                frpq.result(),
                tk_frpq_sharded(&store, &query, 3, qt, &pool),
                "wave {wave} frpq"
            );
        }
    }
}
