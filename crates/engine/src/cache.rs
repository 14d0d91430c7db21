//! Engine-owned result cache for the one-shot top-k queries.
//!
//! A dashboard re-issuing the same TkPRQ/TkFRPQ between seals re-pays the
//! whole index evaluation for an answer that cannot have changed: query
//! answers only move when a seal publishes new visit postings, and only
//! for queries whose region set intersects the regions those postings
//! touch. The cache exploits exactly that: answers are keyed by the
//! *normalised* query (distinct sorted regions, `k`, the `qt` bit
//! patterns), and each seal's
//! [`SealSummary::touched_regions`](ism_queries::SealSummary) evicts
//! precisely the entries whose regions intersect it. A seal that publishes
//! no visit postings (only pass events) evicts nothing — no answer could
//! have moved.

use ism_indoor::RegionId;
use ism_mobility::TimePeriod;
use ism_queries::{QueryAnswer, QuerySet};
use std::collections::{HashMap, VecDeque};

/// Most entries the cache holds; at capacity the oldest inserted entry is
/// evicted first (deterministic FIFO — no clock involved).
pub(crate) const CACHE_CAPACITY: usize = 1024;

/// A normalised query identity: duplicate/unsorted region slices and
/// numerically equal `qt` values map to the same key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    prq: bool,
    regions: Vec<RegionId>,
    k: usize,
    qt_bits: (u64, u64),
}

impl CacheKey {
    pub(crate) fn new(prq: bool, query: &[RegionId], k: usize, qt: TimePeriod) -> Self {
        CacheKey {
            prq,
            regions: QuerySet::new(query).iter().collect(),
            k,
            // `+ 0.0` maps -0.0 to 0.0, so equal times share a key.
            qt_bits: ((qt.start + 0.0).to_bits(), (qt.end + 0.0).to_bits()),
        }
    }
}

/// Observable cache counters — see
/// [`SemanticsEngine::cache_stats`](crate::SemanticsEngine::cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
}

/// The cache proper: FIFO-bounded map plus hit/miss counters.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    entries: HashMap<CacheKey, QueryAnswer>,
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<QueryAnswer> {
        match self.entries.get(key) {
            Some(answer) => {
                self.hits += 1;
                Some(answer.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&mut self, key: CacheKey, answer: QueryAnswer) {
        if self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= CACHE_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, answer);
    }

    /// Evicts every entry whose region set intersects `touched`
    /// (ascending, as a [`SealSummary`](ism_queries::SealSummary) reports
    /// it). Disjoint entries stay — their answers cannot have moved.
    pub(crate) fn invalidate_touching(&mut self, touched: &[RegionId]) {
        if touched.is_empty() || self.entries.is_empty() {
            return;
        }
        self.entries
            .retain(|key, _| !intersects_sorted(&key.regions, touched));
        let entries = &self.entries;
        self.order.retain(|key| entries.contains_key(key));
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// Whether two ascending region slices share an element (two-pointer walk).
// analyzer: allow(lib-panic) `i < a.len()` and `j < b.len()` are the loop condition
fn intersects_sorted(a: &[RegionId], b: &[RegionId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(prq: bool, regions: &[u32], k: usize) -> CacheKey {
        let regions: Vec<RegionId> = regions.iter().copied().map(RegionId).collect();
        CacheKey::new(prq, &regions, k, TimePeriod::new(0.0, 100.0))
    }

    #[test]
    fn keys_normalise_region_slices() {
        assert_eq!(key(true, &[3, 1, 3, 2], 5), key(true, &[1, 2, 3], 5));
        assert_ne!(key(true, &[1, 2], 5), key(false, &[1, 2], 5));
        assert_ne!(key(true, &[1, 2], 5), key(true, &[1, 2], 6));
        let at = |start| CacheKey::new(true, &[RegionId(1)], 5, TimePeriod::new(start, 100.0));
        assert_eq!(at(-0.0), at(0.0));
        assert_ne!(at(0.0), at(1.0));
    }

    #[test]
    fn invalidation_evicts_only_intersecting_entries() {
        let mut cache = QueryCache::default();
        cache.insert(key(true, &[1, 2], 3), QueryAnswer::Prq(Vec::new()));
        cache.insert(key(false, &[4, 5], 3), QueryAnswer::Frpq(Vec::new()));
        assert_eq!(cache.stats().entries, 2);
        cache.invalidate_touching(&[RegionId(2), RegionId(9)]);
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.get(&key(true, &[1, 2], 3)).is_none());
        assert!(cache.get(&key(false, &[4, 5], 3)).is_some());
        // An empty touched set (a seal of pass-only postings) evicts
        // nothing.
        cache.invalidate_touching(&[]);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut cache = QueryCache::default();
        for i in 0..CACHE_CAPACITY as u32 + 2 {
            cache.insert(key(true, &[i], 1), QueryAnswer::Prq(Vec::new()));
        }
        assert_eq!(cache.stats().entries, CACHE_CAPACITY);
        assert!(cache.get(&key(true, &[0], 1)).is_none());
        assert!(cache.get(&key(true, &[1], 1)).is_none());
        assert!(cache.get(&key(true, &[2], 1)).is_some());
    }
}
