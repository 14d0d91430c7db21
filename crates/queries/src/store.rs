//! Semantics stores: the flat reference store and the sharded, indexed
//! store the parallel query engine runs on.

use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use ism_runtime::WorkerPool;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::index::ShardIndex;
use crate::topk::QuerySet;

/// Default shard count for stores built without an explicit choice —
/// matches the experiment harness default (`REPRO_SHARDS`).
pub const DEFAULT_SHARDS: usize = 8;

/// Errors of store construction and maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A sharded store's shard count disagrees with the count it must
    /// match; objects would hash to different shards on each side.
    ShardCountMismatch {
        /// The shard count required.
        left: usize,
        /// The store's shard count.
        right: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ShardCountMismatch { left, right } => write!(
                f,
                "shard count mismatch: cannot combine {left}-shard and {right}-shard stores"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What the next seal will publish, read from the pending segments by
/// [`pending_summary`](ShardedSemanticsStore::pending_summary).
///
/// The summary is the seal hook consumers build on: `new_stays` is the
/// exact posting feed a standing query folds in to stay byte-identical to
/// a full re-evaluation, and `touched_regions` is the invalidation signal
/// for result caches — a cached answer stays valid precisely when its
/// query regions are disjoint from every touched region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SealSummary {
    /// Every visit posting `(object, region, stay interval)` the seal
    /// publishes, in shard order (pending order within a shard).
    pub new_stays: Vec<(u64, RegionId, TimePeriod)>,
    /// The distinct regions that receive at least one new posting,
    /// ascending.
    pub touched_regions: Vec<RegionId>,
}

/// M-semantics of a set of objects, the input to the semantic queries.
///
/// This is the *flat reference* store: queries against it scan every record
/// sequentially. [`ShardedSemanticsStore`] is the indexed, parallel
/// counterpart; both produce byte-identical query results.
#[derive(Debug, Clone, Default)]
pub struct SemanticsStore {
    objects: Vec<(u64, Vec<MobilitySemantics>)>,
    by_id: HashMap<u64, usize>,
}

impl SemanticsStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one object's annotated m-semantics sequence.
    ///
    /// Inserting an `object_id` that is already present *extends* that
    /// object's existing sequence instead of creating a second entry — two
    /// entries for one object would double-count it in
    /// [`tk_frpq`](crate::tk_frpq), which counts *objects* per region pair.
    pub fn insert(&mut self, object_id: u64, semantics: Vec<MobilitySemantics>) {
        extend_or_push(&mut self.objects, &mut self.by_id, object_id, semantics);
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates over `(object, m-semantics)` entries — the same shape as
    /// [`ShardedSemanticsStore::iter_shard`], so code written against one
    /// store works against the other.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[MobilitySemantics])> {
        self.objects.iter().map(|(id, sem)| (*id, sem.as_slice()))
    }

    /// The m-semantics of `object_id`, if present.
    // analyzer: allow(lib-panic) `by_id` values are maintained as valid indices into `objects`
    pub fn get(&self, object_id: u64) -> Option<&[MobilitySemantics]> {
        self.by_id
            .get(&object_id)
            .map(|&i| self.objects[i].1.as_slice())
    }
}

/// The shard an object hashes to in a store with `num_shards` shards.
///
/// SplitMix64-style finalisation of the object id, reduced modulo the shard
/// count: deterministic, stable across runs and platforms, and part of the
/// public contract so callers can tell which shard holds an object.
pub fn shard_of(object_id: u64, num_shards: usize) -> usize {
    let mut z = object_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % num_shards.max(1) as u64) as usize
}

/// One shard: its sealed objects, the region→visit posting index over
/// them, and a pending segment of appended-but-unsealed entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    pub(crate) objects: Vec<(u64, Vec<MobilitySemantics>)>,
    by_id: HashMap<u64, usize>,
    index: ShardIndex,
    pub(crate) pending: Vec<(u64, Vec<MobilitySemantics>)>,
}

impl Shard {
    /// Merges the pending segment into the sealed objects and posting
    /// index. Only this shard is touched: the index merges the new
    /// postings into the region lists they land in
    /// ([`ShardIndex::append`]).
    fn seal(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.index.append(&pending);
        // Sized once, so a shard filled by one seal (`from_store`, a
        // decoded snapshot) holds exactly sized tables.
        self.objects.reserve(pending.len());
        self.by_id.reserve(pending.len());
        for (object_id, semantics) in pending {
            extend_or_push(&mut self.objects, &mut self.by_id, object_id, semantics);
        }
    }

    pub fn index(&self) -> &ShardIndex {
        &self.index
    }
}

/// A [`SemanticsStore`] split into `S` shards, each carrying a region→visit
/// posting index sorted by time (see the crate's `index` module).
///
/// Objects are hashed whole into one shard by [`shard_of`], so per-shard
/// partial answers of both top-k queries merge by plain summation. Queries
/// fan out across an [`ism_runtime::WorkerPool`] via
/// [`tk_prq_sharded`](crate::tk_prq_sharded) /
/// [`tk_frpq_sharded`](crate::tk_frpq_sharded); results are byte-identical
/// for any shard count and any thread count, and equal to the flat
/// sequential reference.
///
/// The store is **live**: [`append`](ShardedSemanticsStore::append) stages
/// new entries in per-shard pending segments and
/// [`seal`](ShardedSemanticsStore::seal) /
/// [`seal_with`](ShardedSemanticsStore::seal_with) merges them into the
/// posting indexes incrementally — only the shards (and, within a shard,
/// only the region posting lists) that received entries are touched, never
/// the full store. This is the only way to fill a store: `from_store`, the
/// batch annotator and snapshot decode all append, then seal. The
/// `incremental_oracle` property suite pins a store grown by any
/// append/seal interleaving equal to the flat reference over the same
/// entries.
#[derive(Debug, Clone)]
pub struct ShardedSemanticsStore {
    pub(crate) shards: Vec<Shard>,
}

impl ShardedSemanticsStore {
    /// Creates an empty store with `num_shards` shards (clamped to ≥ 1),
    /// ready for incremental [`append`](ShardedSemanticsStore::append) +
    /// [`seal`](ShardedSemanticsStore::seal) ingestion.
    pub fn new(num_shards: usize) -> Self {
        ShardedSemanticsStore {
            shards: (0..num_shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    /// Shards a flat store: appends every entry in the flat store's order,
    /// then seals. Object order within each shard follows the flat store's
    /// insertion order.
    pub fn from_store(store: &SemanticsStore, num_shards: usize) -> Self {
        let mut sharded = ShardedSemanticsStore::new(num_shards);
        for (object_id, semantics) in store.iter() {
            sharded.append(object_id, semantics.to_vec());
        }
        sharded.seal();
        sharded
    }

    /// Appends one object's m-semantics to its shard's **pending segment**.
    ///
    /// Pending entries are invisible to queries and accessors until the
    /// next [`seal`](ShardedSemanticsStore::seal) /
    /// [`seal_with`](ShardedSemanticsStore::seal_with) merges them into the
    /// sealed objects and posting index. Appending an `object_id` that is
    /// already sealed extends that object's entry at seal time — the same
    /// duplicate folding as [`SemanticsStore::insert`] — so a store grown
    /// by any sequence of appends and seals equals one built from scratch
    /// over the same entries in the same order.
    // analyzer: allow(lib-panic) `shard_of` returns a value below `num_shards` by construction
    pub fn append(&mut self, object_id: u64, semantics: Vec<MobilitySemantics>) {
        let shard = shard_of(object_id, self.shards.len());
        self.shards[shard].pending.push((object_id, semantics));
    }

    /// Entries appended but not yet sealed, across all shards.
    pub fn num_pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending.len()).sum()
    }

    /// What the next seal will publish: every pending visit posting and
    /// the regions it lands in. The engine reads it under the same write
    /// guard as the seal that follows, to feed its cache and standing
    /// queries.
    pub fn pending_summary(&self) -> SealSummary {
        let new_stays: Vec<(u64, RegionId, TimePeriod)> = self
            .shards
            .iter()
            .flat_map(|shard| &shard.pending)
            .flat_map(|(object, semantics)| {
                semantics
                    .iter()
                    .filter(|ms| ms.event == MobilityEvent::Stay)
                    .map(|ms| (*object, ms.region, ms.period))
            })
            .collect();
        let mut touched_regions: Vec<RegionId> = new_stays.iter().map(|&(_, r, _)| r).collect();
        touched_regions.sort_unstable();
        touched_regions.dedup();
        SealSummary {
            new_stays,
            touched_regions,
        }
    }

    /// [`seal_with`](ShardedSemanticsStore::seal_with) on the calling
    /// thread.
    pub fn seal(&mut self) -> usize {
        self.seal_with(&WorkerPool::new(1))
    }

    /// Merges every shard's pending segment into its sealed objects and
    /// posting index, the shards fanned out over `pool`. Only shards with
    /// pending entries do any work, and each merges new visits only into
    /// the region posting lists they touch — never the whole store. The
    /// store is identical for any thread count. Returns the number of
    /// entries merged.
    pub fn seal_with(&mut self, pool: &WorkerPool) -> usize {
        let merged = self.num_pending();
        if merged > 0 {
            let shards: Vec<parking_lot::Mutex<&mut Shard>> = self
                .shards
                .iter_mut()
                .map(parking_lot::Mutex::new)
                .collect();
            pool.run(shards.len(), |s| {
                if let Some(shard) = shards.get(s) {
                    shard.lock().seal();
                }
            });
        }
        merged
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of sealed objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.objects.len()).sum()
    }

    /// Whether the store holds no sealed objects.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.objects.is_empty())
    }

    /// The sealed m-semantics of `object_id`, if present.
    // analyzer: allow(lib-panic) `shard_of` is below `num_shards` and `by_id` values index `objects`
    pub fn get(&self, object_id: u64) -> Option<&[MobilitySemantics]> {
        let shard = &self.shards[shard_of(object_id, self.shards.len())];
        shard
            .by_id
            .get(&object_id)
            .map(|&i| shard.objects[i].1.as_slice())
    }

    /// Iterates every sealed `(object, m-semantics)` entry, shard by shard.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[MobilitySemantics])> {
        (0..self.shards.len()).flat_map(|s| self.iter_shard(s))
    }

    /// Total number of indexed visit postings (stay events).
    pub fn num_postings(&self) -> usize {
        self.shards.iter().map(|s| s.index.num_postings()).sum()
    }

    /// Bytes held by the posting index's lists: 24 per posting. Each list
    /// is sized exactly at build and grows by exactly what a seal adds, so
    /// this is the lists' real footprint (the region maps' own overhead is
    /// not counted).
    pub fn index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index.posting_bytes()).sum()
    }

    /// Whether any region of `query` has at least one indexed posting in
    /// any shard — the guard that lets unmatched queries skip the fan-out.
    pub(crate) fn has_any_region(&self, query: &QuerySet) -> bool {
        self.shards
            .iter()
            .any(|s| query.iter().any(|r| s.index.has_region(r)))
    }

    /// Iterates `(object, m-semantics)` entries of shard `s`.
    // analyzer: allow(lib-panic) `s < num_shards()` is the documented API contract of the shard accessors
    pub fn iter_shard(&self, s: usize) -> impl Iterator<Item = (u64, &[MobilitySemantics])> {
        self.shards[s]
            .objects
            .iter()
            .map(|(id, sem)| (*id, sem.as_slice()))
    }

    /// Iterates the **pending** (appended but unsealed) entries of shard
    /// `s`, in append order. This is the exact per-shard segment the next
    /// seal will merge — the engine's durability layer writes it as one
    /// seal-log frame before sealing.
    // analyzer: allow(lib-panic) `s < num_shards()` is the documented API contract of the shard accessors
    pub fn pending_of_shard(&self, s: usize) -> impl Iterator<Item = (u64, &[MobilitySemantics])> {
        self.shards[s]
            .pending
            .iter()
            .map(|(id, sem)| (*id, sem.as_slice()))
    }

    // analyzer: allow(lib-panic) `s < num_shards()` is the documented API contract of the shard accessors
    pub(crate) fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// Per-shard partial TkPRQ counts, evaluated on `pool` and merged by
    /// key. Exposed through [`tk_prq_sharded`](crate::tk_prq_sharded).
    pub(crate) fn prq_partials(
        &self,
        query: &QuerySet,
        qt: &TimePeriod,
        pool: &WorkerPool,
    ) -> HashMap<RegionId, usize> {
        pool.map_reduce(
            self.num_shards(),
            HashMap::new,
            |acc: &mut HashMap<RegionId, usize>, s| {
                for (region, n) in self.shard(s).index().prq_counts(query, qt) {
                    *acc.entry(region).or_insert(0) += n;
                }
            },
            merge_counts,
        )
    }
}

/// Extends an existing object's entry or appends a new one — the single
/// definition of duplicate-object-id folding, shared by
/// [`SemanticsStore::insert`] and the sharded store's seal so flat and
/// sharded stores can never diverge on duplicate handling.
// analyzer: allow(lib-panic) `by_id` values are maintained as valid indices into `objects`
fn extend_or_push(
    objects: &mut Vec<(u64, Vec<MobilitySemantics>)>,
    by_id: &mut HashMap<u64, usize>,
    object_id: u64,
    semantics: Vec<MobilitySemantics>,
) {
    match by_id.entry(object_id) {
        Entry::Occupied(slot) => objects[*slot.get()].1.extend(semantics),
        Entry::Vacant(slot) => {
            slot.insert(objects.len());
            objects.push((object_id, semantics));
        }
    }
}

/// Sums `other` into `total` key-wise — the commutative reduction behind
/// both queries, which is what makes the merge order unobservable.
fn merge_counts<K: std::hash::Hash + Eq>(total: &mut HashMap<K, usize>, other: HashMap<K, usize>) {
    for (key, n) in other {
        *total.entry(key).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ism_mobility::MobilityEvent::Stay;

    fn ms(region: u32, start: f64, end: f64) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event: Stay,
        }
    }

    #[test]
    fn insert_extends_existing_object() {
        // Regression: two inserts under one object id used to create two
        // entries, double-counting the object in TkFRPQ.
        let mut store = SemanticsStore::new();
        store.insert(7, vec![ms(0, 0.0, 10.0)]);
        store.insert(9, vec![ms(1, 0.0, 10.0)]);
        store.insert(7, vec![ms(2, 20.0, 30.0)]);
        assert_eq!(store.len(), 2);
        let entry = store.iter().find(|(id, _)| *id == 7).unwrap();
        assert_eq!(entry.1.len(), 2);
        assert_eq!(entry.1[1].region, RegionId(2));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for id in 0..1000u64 {
            let s = shard_of(id, 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(id, 7));
        }
        // Zero shards clamps rather than dividing by zero.
        assert_eq!(shard_of(42, 0), 0);
    }

    #[test]
    fn from_store_conserves_objects_and_postings() {
        let mut store = SemanticsStore::new();
        for id in 0..50u64 {
            store.insert(id, vec![ms(id as u32 % 5, id as f64, id as f64 + 3.0)]);
        }
        for num_shards in [1, 3, 8, 64] {
            let sharded = ShardedSemanticsStore::from_store(&store, num_shards);
            assert_eq!(sharded.num_shards(), num_shards);
            assert_eq!(sharded.len(), 50);
            assert_eq!(sharded.num_postings(), 50);
            let mut seen: Vec<u64> = (0..num_shards)
                .flat_map(|s| sharded.iter_shard(s).map(|(id, _)| id))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn append_seal_matches_builder_build() {
        // A store grown incrementally — appends in three slices, sealed
        // after each — must equal the from-scratch build (`from_store` over
        // the flat store, one seal), duplicate ids included.
        let semantics = |i: u64| vec![ms(i as u32 % 5, i as f64 * 3.0, i as f64 * 3.0 + 2.0)];
        let object = |i: u64| i % 7;
        let reference = {
            let mut flat = SemanticsStore::new();
            for i in 0..30u64 {
                flat.insert(object(i), semantics(i));
            }
            ShardedSemanticsStore::from_store(&flat, 4)
        };
        let mut live = ShardedSemanticsStore::new(4);
        for (lo, hi) in [(0, 11), (11, 12), (12, 30)] {
            for i in lo..hi {
                live.append(object(i), semantics(i));
            }
            live.seal();
        }
        assert_eq!(live.num_pending(), 0);
        assert_eq!(live.len(), reference.len());
        assert_eq!(live.num_postings(), reference.num_postings());
        for s in 0..4 {
            let want: Vec<_> = reference
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            let got: Vec<_> = live
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            assert_eq!(got, want, "shard {s}");
        }
    }

    #[test]
    fn seal_with_matches_sequential_seal() {
        let build_unsealed = || {
            let mut live = ShardedSemanticsStore::new(5);
            for i in 0..40u64 {
                live.append(i % 9, vec![ms(i as u32 % 3, i as f64, i as f64 + 1.0)]);
            }
            live
        };
        let mut sequential = build_unsealed();
        assert_eq!(sequential.seal(), 40);
        let mut parallel = build_unsealed();
        assert_eq!(parallel.seal_with(&WorkerPool::new(4)), 40);
        for s in 0..5 {
            let want: Vec<_> = sequential
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            let got: Vec<_> = parallel
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            assert_eq!(got, want, "shard {s}");
        }
    }

    #[test]
    fn pending_entries_are_invisible_until_seal() {
        let mut live = ShardedSemanticsStore::new(3);
        live.append(5, vec![ms(1, 0.0, 10.0)]);
        assert_eq!(live.num_pending(), 1);
        assert!(live.is_empty());
        assert_eq!(live.num_postings(), 0);
        assert_eq!(live.get(5), None);
        assert_eq!(live.seal(), 1);
        assert_eq!(live.num_pending(), 0);
        assert_eq!(live.len(), 1);
        assert_eq!(live.num_postings(), 1);
        assert_eq!(live.get(5).unwrap().len(), 1);
        // A second seal with nothing pending is a no-op.
        assert_eq!(live.seal(), 0);
    }

    #[test]
    fn get_and_iter_cover_sealed_objects() {
        let mut live = ShardedSemanticsStore::new(4);
        for i in 0..20u64 {
            live.append(i, vec![ms(i as u32 % 3, i as f64, i as f64 + 1.0)]);
        }
        live.seal();
        assert_eq!(live.get(7).unwrap()[0].region, RegionId(1));
        assert_eq!(live.get(99), None);
        let mut ids: Vec<u64> = live.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        // Appending to an existing object extends its entry at seal time.
        live.append(7, vec![ms(2, 100.0, 110.0)]);
        live.seal();
        assert_eq!(live.get(7).unwrap().len(), 2);
        assert_eq!(live.len(), 20);
    }
}
