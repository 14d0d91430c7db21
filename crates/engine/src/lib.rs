//! Unified streaming engine over annotation, storage, and semantic
//! queries.
//!
//! The paper's pipeline — decode p-sequences into m-semantics, accumulate
//! them per object, serve TkPRQ/TkFRPQ — used to be exposed as
//! disconnected pieces the caller wired by hand (`C2mn::train` →
//! `BatchAnnotator::annotate_into_store` → free query functions, each
//! taking its own `WorkerPool`), and ingestion was strictly offline. This
//! crate redesigns that surface around one owning type:
//!
//! * [`SemanticsEngine`] — owns the trained model, the worker pool, and a
//!   **live** [`ShardedSemanticsStore`]; queries are methods
//!   ([`tk_prq`](SemanticsEngine::tk_prq) /
//!   [`tk_frpq`](SemanticsEngine::tk_frpq)) over everything sealed so far.
//! * [`EngineBuilder`] — threads, shards, base seed, submission-queue
//!   capacity, optional warm-start store; [`build`](EngineBuilder::build)
//!   from a trained model or [`train`](EngineBuilder::train) in one step.
//! * [`IngestSession`] — the streaming front-end: p-sequences go in
//!   incrementally and are handed to **idle workers as they arrive**
//!   (decode overlaps with arrival; a filled queue still fans out as a
//!   batch, bounding memory), sealed m-semantics come out the other end,
//!   **byte-identical** to the offline `BatchAnnotator` reference for any
//!   thread count and any push chunking. Sessions borrow the engine
//!   *shared*, so several can ingest concurrently into one global
//!   numbering.
//! * [`EngineError`] — the unified error surface replacing the panicking
//!   paths of the hand-wired pipeline.
//!
//! ```
//! use ism_engine::EngineBuilder;
//! use ism_c2mn::{C2mn, C2mnConfig, Weights};
//! use ism_indoor::BuildingGenerator;
//! use ism_mobility::{Dataset, PositioningConfig, SimulationConfig, TimePeriod};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let venue = BuildingGenerator::small_office().generate(&mut rng).unwrap();
//! let dataset = Dataset::generate(
//!     "demo", &venue, SimulationConfig::quick(),
//!     PositioningConfig::synthetic(8.0, 1.5), None, 4, &mut rng);
//! let model = C2mn::from_weights(&venue, C2mnConfig::quick_test(), Weights::uniform(1.0));
//!
//! let mut engine = EngineBuilder::new()
//!     .threads(2)
//!     .shards(4)
//!     .base_seed(42)
//!     .build(model)
//!     .unwrap();
//!
//! // Stream p-sequences in as they "arrive"; seal to publish.
//! let mut session = engine.ingest();
//! for seq in &dataset.sequences {
//!     session.push(seq.object_id, seq.positioning().collect());
//! }
//! let ingested = session.seal();
//! assert_eq!(ingested, dataset.sequences.len() as u64);
//!
//! // Queries are methods over everything sealed so far.
//! let regions: Vec<_> = venue.regions().iter().map(|r| r.id).collect();
//! let top = engine.tk_prq(&regions, 3, TimePeriod::new(0.0, 1e6));
//! assert!(top.len() <= 3);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cache;
mod error;
mod ingest;
mod persist;
mod session;

pub use cache::CacheStats;
pub use error::EngineError;
pub use ism_codec::PersistError;
pub use ism_pgm::KernelStats;
pub use persist::{log_path, RecoveryReport};
pub use session::IngestSession;

use cache::{CacheKey, QueryCache};
use ingest::{IngestShared, PendingItem};
use ism_c2mn::{BatchAnnotator, C2mn, C2mnConfig, DecodeScratch, Trainer};
use ism_indoor::{IndoorSpace, RegionId};
use ism_mobility::{
    LabeledSequence, MobilityEvent, MobilitySemantics, PositioningRecord, TimePeriod,
};
use ism_queries::{
    QueryAnswer, QueryBatch, ShardedSemanticsStore, StandingTkFrpq, StandingTkPrq, DEFAULT_SHARDS,
};
use ism_runtime::{PoolStats, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use parking_lot::Mutex;

/// Default capacity of an ingest session's submission queue: how many
/// submitted-but-undecoded p-sequences buffer before a chunk fans out.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Configures and constructs a [`SemanticsEngine`].
///
/// Every knob has a sensible default: threads = available parallelism,
/// shards = [`DEFAULT_SHARDS`], base seed = 0, queue capacity =
/// [`DEFAULT_QUEUE_CAPACITY`], no warm-start store.
#[derive(Debug, Clone, Default)]
#[must_use = "an EngineBuilder does nothing until `build` or `train`"]
pub struct EngineBuilder {
    threads: Option<usize>,
    shards: Option<usize>,
    base_seed: u64,
    queue_capacity: Option<usize>,
    first_sequence_index: u64,
    initial: Option<ShardedSemanticsStore>,
}

impl EngineBuilder {
    /// Creates a builder with every knob at its default.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Worker threads for decoding, sealing, and query fan-out (clamped to
    /// ≥ 1). Never changes any result — see the determinism contract.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Shard count of the live store. Never changes query results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Base seed of the per-sequence RNG derivation
    /// (`sequence_seed(base_seed, global_sequence_index)`).
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Capacity of the engine-wide submission queue (clamped to ≥ 1):
    /// the most submitted-but-undispatched sequences ever buffered across
    /// all concurrent ingest sessions. Never changes any result, only
    /// memory/latency.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Global index of the first sequence the engine will ingest — set it
    /// when resuming a numbered stream so seeds continue rather than
    /// restart (defaults to 0).
    pub fn first_sequence_index(mut self, index: u64) -> Self {
        self.first_sequence_index = index;
        self
    }

    /// Warm-starts the engine with previously annotated data. The store's
    /// shard count must agree with [`shards`](EngineBuilder::shards) if
    /// both are given; otherwise the store's count wins.
    ///
    /// The engine's query surface only ever serves **sealed** data, so a
    /// handed-over store carrying unsealed appends
    /// ([`num_pending`](ShardedSemanticsStore::num_pending) > 0) is sealed
    /// during `build` — the built engine starts with `num_pending() == 0`
    /// and those entries already queryable.
    pub fn initial_store(mut self, store: ShardedSemanticsStore) -> Self {
        self.initial = Some(store);
        self
    }

    /// Builds an engine around an already-trained model.
    pub fn build<'a>(self, model: C2mn<'a>) -> Result<SemanticsEngine<'a>, EngineError> {
        let pool = self.pool();
        self.build_with_pool(model, pool)
    }

    /// The worker pool this builder's engine will own.
    fn pool(&self) -> WorkerPool {
        match self.threads {
            Some(threads) => WorkerPool::new(threads),
            None => WorkerPool::with_available_parallelism(),
        }
    }

    fn build_with_pool<'a>(
        self,
        model: C2mn<'a>,
        pool: WorkerPool,
    ) -> Result<SemanticsEngine<'a>, EngineError> {
        let store = match self.initial {
            Some(mut store) => {
                if let Some(shards) = self.shards {
                    if store.num_shards() != shards {
                        return Err(ism_queries::StoreError::ShardCountMismatch {
                            left: shards,
                            right: store.num_shards(),
                        }
                        .into());
                    }
                }
                // A handed-over store may carry unsealed appends.
                store.seal_with(&pool);
                store
            }
            None => ShardedSemanticsStore::new(self.shards.unwrap_or(DEFAULT_SHARDS)),
        };
        let queue_capacity = self.queue_capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY).max(1);
        Ok(SemanticsEngine {
            // Boxed so the model's address is stable across engine moves —
            // pipelined decode tasks hold a raw borrow of it (see
            // `decode_task`).
            model: Box::new(model),
            pool,
            base_seed: self.base_seed,
            queue_capacity,
            shared: Arc::new(IngestShared::new(store, self.first_sequence_index)),
            cache: Mutex::new(QueryCache::default()),
            standing: Mutex::new(Vec::new()),
            log: Mutex::new(persist::LogState::default()),
        })
    }

    /// Trains a C2MN on `train` (Algorithm 1) and builds an engine around
    /// it in one step.
    ///
    /// Training runs on the engine's own [`WorkerPool`] — the per-sequence
    /// MCMC sampling fans out over the same workers that will later serve
    /// decoding and queries, with the base seed drawn from `rng`. Thread
    /// count never changes the learned weights (the [`Trainer`]
    /// determinism contract), so this is purely a wall-clock knob.
    pub fn train<'a, R: Rng + ?Sized>(
        self,
        space: &'a IndoorSpace,
        train: &[LabeledSequence],
        config: &C2mnConfig,
        rng: &mut R,
    ) -> Result<SemanticsEngine<'a>, EngineError> {
        let pool = self.pool();
        let outcome = Trainer::new(space, config.clone())
            .seed(rng.random::<u64>())
            .pool(&pool)
            .run(train)?;
        self.build_with_pool(outcome.model, pool)
    }
}

/// The unified annotation/storage/query engine.
///
/// Owns the trained [`C2mn`], the [`WorkerPool`], and a live
/// [`ShardedSemanticsStore`]. Data enters through streaming
/// [`ingest`](SemanticsEngine::ingest) sessions (or the offline
/// [`annotate_batch`](SemanticsEngine::annotate_batch) /
/// [`label_batch`](SemanticsEngine::label_batch) helpers) and is served by
/// the query methods.
///
/// All ingest and query methods take `&self`: the live store sits behind
/// a reader/writer lock, sessions share one global submission queue, and
/// the caches are internally synchronised — so several
/// [`IngestSession`]s (and queries) can run concurrently on one engine.
///
/// ## Determinism contract
///
/// The engine inherits — and composes — the contracts of its layers:
/// global sequence `i` decodes with `sequence_seed(base_seed, i)`
/// regardless of worker, session chunking, or queue capacity; decoded
/// results pass through a reorder buffer and commit in global index
/// order; objects hash whole into shards; per-shard query partials merge
/// commutatively. The sealed store and every query answer are therefore
/// **byte-identical for any thread count, shard count, push chunking,
/// and session interleaving**, equal to the offline single-threaded
/// reference.
pub struct SemanticsEngine<'a> {
    /// Boxed for address stability: pipelined decode tasks borrow the
    /// model raw across the lifetime-erased worker queue.
    model: Box<C2mn<'a>>,
    pool: WorkerPool,
    base_seed: u64,
    queue_capacity: usize,
    /// The cross-session ingest core: global submission queue, in-flight
    /// ledger, reorder buffer, and the live store behind its lock.
    shared: Arc<IngestShared>,
    /// Hot-region result cache for the one-shot query methods; seals
    /// evict exactly the entries whose regions they touch.
    cache: Mutex<QueryCache>,
    /// Registered standing queries, folded forward by every seal.
    /// Cancelled slots stay as `None` so handles keep their index.
    standing: Mutex<Vec<Option<StandingState>>>,
    /// The attached seal append-log, if any, plus the error that
    /// detached it (see the `persist` module docs).
    log: Mutex<persist::LogState>,
}

impl std::fmt::Debug for SemanticsEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticsEngine")
            .field("threads", &self.threads())
            .field("base_seed", &self.base_seed)
            .field("queue_capacity", &self.queue_capacity)
            .field("num_shards", &self.num_shards())
            .finish_non_exhaustive()
    }
}

/// Shared read access to the engine's live store, released on drop.
///
/// Dereferences to [`ShardedSemanticsStore`]. Ingest commits and seals
/// take the write side of the same lock, so don't hold a guard across
/// long pauses while sessions are streaming.
pub struct StoreGuard<'e> {
    guard: parking_lot::RwLockReadGuard<'e, ShardedSemanticsStore>,
}

impl std::ops::Deref for StoreGuard<'_> {
    type Target = ShardedSemanticsStore;

    fn deref(&self) -> &ShardedSemanticsStore {
        &self.guard
    }
}

impl std::fmt::Debug for StoreGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&*self.guard, f)
    }
}

/// One registered standing query of either kind.
#[derive(Debug, Clone)]
enum StandingState {
    Prq(StandingTkPrq),
    Frpq(StandingTkFrpq),
}

/// Handle to a standing query registered with
/// [`SemanticsEngine::standing_tk_prq`] /
/// [`SemanticsEngine::standing_tk_frpq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StandingQueryId(usize);

impl<'a> SemanticsEngine<'a> {
    /// The owned trained model.
    pub fn model(&self) -> &C2mn<'a> {
        &self.model
    }

    /// A snapshot of the worker pool's lifetime counters — fan-out vs
    /// inline dispatches, items claimed, pipelined async tasks, idle
    /// wakeups, and the (constant) number of threads ever spawned.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A snapshot of the process-wide decode-kernel counters — memoized
    /// candidate rows filled vs reused, cross-chain invalidations, and
    /// bytes cumulatively allocated to precomputed pairwise feature
    /// tables. Counters accumulate over every decode in the process
    /// (batch, streaming, serving, and training), mirroring how
    /// [`SemanticsEngine::pool_stats`] accumulates over the pool's
    /// lifetime.
    pub fn kernel_stats(&self) -> KernelStats {
        ism_pgm::kernel_stats()
    }

    /// The worker pool shared by decoding, sealing, and queries.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The base seed of the per-sequence RNG derivation.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The submission-queue capacity of ingest sessions.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Shard count of the live store.
    pub fn num_shards(&self) -> usize {
        self.store().num_shards()
    }

    /// Sequences ingested over the engine's lifetime (the global index of
    /// the next pushed sequence, counted across all sessions).
    pub fn sequences_ingested(&self) -> u64 {
        self.state().next_index
    }

    /// Sequences whose decoded m-semantics have been appended to the live
    /// store (the global index of the next commit). Trails
    /// [`sequences_ingested`](SemanticsEngine::sequences_ingested) while
    /// pipelined decodes are in flight; equal after a flush or seal.
    pub fn sequences_committed(&self) -> u64 {
        self.state().next_commit
    }

    /// Records dropped at submission over the engine's lifetime because
    /// their x, y or t was not finite (see [`IngestSession::push`]).
    pub fn records_dropped(&self) -> u64 {
        self.state().records_dropped
    }

    /// Distinct objects with sealed m-semantics.
    pub fn num_objects(&self) -> usize {
        self.shared.store.read().len()
    }

    /// Read access to the live store (sealed data). The guard holds the
    /// store's read lock until dropped.
    pub fn store(&self) -> StoreGuard<'_> {
        StoreGuard {
            guard: self.shared.store.read(),
        }
    }

    /// Hands the live store over to the caller, consuming the engine
    /// (pass it to [`EngineBuilder::initial_store`] to resume later).
    pub fn into_store(self) -> ShardedSemanticsStore {
        // Sessions borrow the engine, so none are open; wait out any
        // still-running pipelined decodes and take the store.
        self.wait_inflight();
        let mut store = self.shared.store.write();
        let empty = ShardedSemanticsStore::new(store.num_shards());
        std::mem::replace(&mut *store, empty)
    }

    /// The sealed m-semantics of `object_id`, if any (cloned out of the
    /// live store so no lock is held after the call).
    pub fn semantics_of(&self, object_id: u64) -> Option<Vec<MobilitySemantics>> {
        self.shared
            .store
            .read()
            .get(object_id)
            .map(<[MobilitySemantics]>::to_vec)
    }

    /// Opens a streaming ingest session. Sessions borrow the engine
    /// *shared*: several may ingest concurrently, all stamping into one
    /// global numbering. Sealing (or dropping) a session flushes and
    /// publishes everything pushed engine-wide so far.
    pub fn ingest(&self) -> IngestSession<'_, 'a> {
        IngestSession::new(self)
    }

    /// The ingest ledger, locked.
    pub(crate) fn state(&self) -> parking_lot::MutexGuard<'_, ingest::IngestState> {
        self.shared.state.lock()
    }

    /// Blocks until no pipelined decode task is running (they borrow the
    /// boxed model raw, so the engine must outlive them).
    fn wait_inflight(&self) {
        let mut state = self.shared.state.lock();
        while state.inflight > 0 {
            self.shared.progress.wait(&mut state);
        }
    }

    /// Offline convenience: labels a batch of p-sequences with per-record
    /// `(region, event)` pairs on the engine's pool. Does not touch the
    /// store or the global sequence counter.
    pub fn label_batch(
        &self,
        sequences: &[Vec<PositioningRecord>],
    ) -> Vec<Vec<(RegionId, MobilityEvent)>> {
        self.annotator().label_batch(sequences)
    }

    /// Offline convenience: annotates a batch into merged m-semantics on
    /// the engine's pool. Does not touch the store or the global sequence
    /// counter.
    pub fn annotate_batch(
        &self,
        sequences: &[Vec<PositioningRecord>],
    ) -> Vec<Vec<MobilitySemantics>> {
        self.annotator().annotate_batch(sequences)
    }

    /// Top-k popular regions among `query` within `qt`, over all sealed
    /// data, evaluated on the engine's pool.
    ///
    /// Answers are served from the engine's result cache when the same
    /// (normalised) query was evaluated before and no seal since touched
    /// any of its regions.
    // analyzer: allow(lib-panic) the cache stores PRQ answers under PRQ keys and a one-query batch yields one answer
    pub fn tk_prq(&self, query: &[RegionId], k: usize, qt: TimePeriod) -> Vec<(RegionId, usize)> {
        let key = CacheKey::new(true, query, k, qt);
        if let Some(hit) = self.cache.lock().get(&key) {
            return hit.into_prq().expect("a PRQ caches as PRQ");
        }
        let mut batch = QueryBatch::new();
        batch.tk_prq(query, k, qt);
        self.evaluate_and_cache(key, &batch)
            .and_then(QueryAnswer::into_prq)
            .expect("a one-query PRQ batch answers one PRQ")
    }

    /// Top-k frequently co-visited region pairs among `query` within `qt`,
    /// over all sealed data, evaluated on the engine's pool.
    ///
    /// Cached like [`tk_prq`](SemanticsEngine::tk_prq).
    // analyzer: allow(lib-panic) the cache stores FRPQ answers under FRPQ keys and a one-query batch yields one answer
    pub fn tk_frpq(
        &self,
        query: &[RegionId],
        k: usize,
        qt: TimePeriod,
    ) -> Vec<((RegionId, RegionId), usize)> {
        let key = CacheKey::new(false, query, k, qt);
        if let Some(hit) = self.cache.lock().get(&key) {
            return hit.into_frpq().expect("an FRPQ caches as FRPQ");
        }
        let mut batch = QueryBatch::new();
        batch.tk_frpq(query, k, qt);
        self.evaluate_and_cache(key, &batch)
            .and_then(QueryAnswer::into_frpq)
            .expect("a one-query FRPQ batch answers one FRPQ")
    }

    /// Evaluates a one-query batch and caches its answer under one store
    /// read guard, so no seal (and its cache invalidation) can land
    /// between the evaluation and the insert.
    fn evaluate_and_cache(&self, key: CacheKey, batch: &QueryBatch) -> Option<QueryAnswer> {
        let store = self.shared.store.read();
        let answer = batch.run(&store, &self.pool).pop()?;
        self.cache.lock().insert(key, answer.clone());
        Some(answer)
    }

    /// Evaluates a prepared [`QueryBatch`] in one fan-out over the sealed
    /// store on the engine's pool (answers in submission order). The batch
    /// path bypasses the result cache — it is the bulk interface.
    pub fn run_batch(&self, batch: &QueryBatch) -> Vec<QueryAnswer> {
        let store = self.shared.store.read();
        batch.run(&store, &self.pool)
    }

    /// Cache counters of the one-shot query methods.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Registers a standing TkPRQ over everything sealed so far; every
    /// subsequent seal folds its new postings in incrementally, keeping
    /// [`standing_prq_result`](SemanticsEngine::standing_prq_result)
    /// byte-identical to re-running [`tk_prq`](SemanticsEngine::tk_prq).
    pub fn standing_tk_prq(&self, query: &[RegionId], k: usize, qt: TimePeriod) -> StandingQueryId {
        let store = self.shared.store.read();
        let state = StandingTkPrq::new(query, k, qt, &store, &self.pool);
        self.register_standing(StandingState::Prq(state))
    }

    /// Registers a standing TkFRPQ over everything sealed so far; every
    /// subsequent seal folds its new postings in incrementally, keeping
    /// [`standing_frpq_result`](SemanticsEngine::standing_frpq_result)
    /// byte-identical to re-running [`tk_frpq`](SemanticsEngine::tk_frpq).
    pub fn standing_tk_frpq(
        &self,
        query: &[RegionId],
        k: usize,
        qt: TimePeriod,
    ) -> StandingQueryId {
        let store = self.shared.store.read();
        let state = StandingTkFrpq::new(query, k, qt, &store, &self.pool);
        self.register_standing(StandingState::Frpq(state))
    }

    /// Publishes a standing query. Callers still hold the store read
    /// guard its initial counts came from, so no seal can fall between
    /// those counts and the first fold (missed or counted twice).
    fn register_standing(&self, state: StandingState) -> StandingQueryId {
        let mut standing = self.standing.lock();
        standing.push(Some(state));
        StandingQueryId(standing.len() - 1)
    }

    /// The current ranking of a standing TkPRQ. `None` if the handle is
    /// unknown, cancelled, or names a TkFRPQ.
    pub fn standing_prq_result(&self, id: StandingQueryId) -> Option<Vec<(RegionId, usize)>> {
        let standing = self.standing.lock();
        match standing.get(id.0)?.as_ref()? {
            StandingState::Prq(state) => Some(state.result()),
            StandingState::Frpq(_) => None,
        }
    }

    /// The current ranking of a standing TkFRPQ. `None` if the handle is
    /// unknown, cancelled, or names a TkPRQ.
    pub fn standing_frpq_result(
        &self,
        id: StandingQueryId,
    ) -> Option<Vec<((RegionId, RegionId), usize)>> {
        let standing = self.standing.lock();
        match standing.get(id.0)?.as_ref()? {
            StandingState::Frpq(state) => Some(state.result()),
            StandingState::Prq(_) => None,
        }
    }

    /// Cancels a standing query; returns whether the handle was live.
    /// Other handles are unaffected.
    pub fn cancel_standing(&self, id: StandingQueryId) -> bool {
        let mut standing = self.standing.lock();
        match standing.get_mut(id.0) {
            Some(slot) => slot.take().is_some(),
            None => false,
        }
    }

    /// Standing queries currently registered (cancelled ones excluded).
    pub fn num_standing(&self) -> usize {
        let standing = self.standing.lock();
        standing.iter().flatten().count()
    }

    fn annotator(&self) -> BatchAnnotator<'_, 'a> {
        BatchAnnotator::with_pool(&self.model, &self.pool, self.base_seed)
    }

    /// Accepts one pushed sequence from a session: drops its records with
    /// a non-finite x, y or t (one would otherwise poison decoding: NaN
    /// distances break the candidate search and NaN potentials the
    /// sampler), stamps it into the engine-wide submission queue, then
    /// either fans the filled queue out synchronously (backpressure — the
    /// memory bound) or hands buffered sequences to idle workers
    /// immediately (pipelining — decode overlaps with arrival).
    pub(crate) fn submit(&self, object_id: u64, mut records: Vec<PositioningRecord>) {
        let pushed = records.len();
        records.retain(|r| {
            r.location.xy.x.is_finite() && r.location.xy.y.is_finite() && r.t.is_finite()
        });
        let full = {
            let mut state = self.state();
            state.records_dropped += (pushed - records.len()) as u64;
            let index = state.next_index;
            state.next_index += 1;
            state.pending.push_back((index, (object_id, records)));
            (state.pending.len() >= self.queue_capacity).then(|| state.pending.drain(..).collect())
        };
        match full {
            Some(batch) => self.decode_chunk(batch),
            None => self.dispatch_pipelined(),
        }
    }

    /// Hands buffered sequences to idle workers, one decode task each.
    /// Never blocks on a busy pool: while a decode is in flight the queue
    /// keeps buffering (the finishing worker claims the next item
    /// itself), but when nothing is in flight — no workers at all, or
    /// every worker parked between our pop and its idle flag — this
    /// caller decodes inline so no sequence is ever stranded unobserved
    /// in the queue.
    fn dispatch_pipelined(&self) {
        loop {
            let idle = self.pool.idle_workers() > 0;
            let item = {
                let mut state = self.state();
                if !idle && state.inflight > 0 {
                    // A running task will claim the queued items when it
                    // finishes; leave them buffered.
                    return;
                }
                match state.pending.pop_front() {
                    Some(item) => {
                        state.inflight += 1;
                        item
                    }
                    None => return,
                }
            };
            let task = self.decode_task(item);
            if idle {
                if let Err(task) = self.pool.try_spawn(task) {
                    // Lost the race for the idle worker — run it here;
                    // the commit still goes through the reorder buffer.
                    task();
                }
            } else {
                task();
            }
        }
    }

    /// Builds the lifetime-erased decode task for one stamped sequence.
    /// The task decodes with the same `(base_seed, index)` derivation as
    /// the batch path, parks the result in the reorder buffer, commits
    /// the contiguous prefix — and then claims the next buffered
    /// sequence itself, so a single dispatch keeps its worker busy until
    /// the queue is dry and no arrival is ever stranded waiting for a
    /// dispatcher.
    fn decode_task(
        &self,
        (index, (object_id, records)): (u64, PendingItem),
    ) -> ism_runtime::AsyncTask {
        let shared = Arc::clone(&self.shared);
        let base_seed = self.base_seed;
        // SAFETY: the model lives in a `Box` owned by the engine, so its
        // address is stable across engine moves, and every path that ends
        // the model's life (`Drop`, `into_store`) first blocks until
        // `inflight == 0` (`wait_inflight`). A task dereferences the
        // model only while its claim is registered: the in-flight
        // decrement and the claim of the next queued sequence happen in
        // one critical section, so `inflight` never observably reaches
        // zero while the task still intends to decode — the reference
        // never outlives the data even though the closure is erased to
        // `'static` for the worker queue.
        let model: &'static C2mn<'static> =
            unsafe { std::mem::transmute::<&C2mn<'a>, &'static C2mn<'static>>(&*self.model) };
        Box::new(move || {
            let mut next = Some((index, (object_id, records)));
            while let Some((index, (object_id, records))) = next.take() {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    decode_one(model, base_seed, index, &records)
                }));
                let mut state = shared.state.lock();
                state.inflight -= 1;
                match result {
                    Ok(semantics) => {
                        state.ready.insert(index, (object_id, semantics));
                        shared.commit_ready(&mut state);
                        // Chain onto the next buffered sequence inside the
                        // same critical section as the decrement, keeping
                        // `inflight` non-zero across the handoff.
                        if let Some(item) = state.pending.pop_front() {
                            state.inflight += 1;
                            next = Some(item);
                        }
                    }
                    Err(_) => state.panicked = true,
                }
                drop(state);
                shared.progress.notify_all();
            }
        })
    }

    /// Decodes one drained submission batch (`(global index, (object id,
    /// records))` in index order) on the pool and commits the results
    /// through the reorder buffer.
    pub(crate) fn decode_chunk(&self, batch: Vec<(u64, PendingItem)>) {
        let Some(&(first, _)) = batch.first() else {
            return;
        };
        let mut object_ids = Vec::with_capacity(batch.len());
        let mut sequences = Vec::with_capacity(batch.len());
        for (index, (object_id, records)) in batch {
            debug_assert_eq!(index, first + object_ids.len() as u64);
            object_ids.push(object_id);
            sequences.push(records);
        }
        let annotated = self.annotator().annotate_batch_at(first, &sequences);
        let mut state = self.state();
        for (offset, (object_id, semantics)) in object_ids.into_iter().zip(annotated).enumerate() {
            state
                .ready
                .insert(first + offset as u64, (object_id, semantics));
        }
        self.shared.commit_ready(&mut state);
        drop(state);
        self.shared.progress.notify_all();
    }

    /// Drains the engine-wide queue, decodes it, and blocks until every
    /// in-flight pipelined decode has committed. Panics if a pipelined
    /// decode task panicked (the deferred equivalent of the synchronous
    /// path's panic).
    pub(crate) fn flush_ingest(&self) {
        let batch = self.state().pending.drain(..).collect();
        self.decode_chunk(batch);
        let mut state = self.state();
        loop {
            assert!(!state.panicked, "a pipelined decode task panicked");
            if state.inflight == 0 && state.ready.is_empty() {
                return;
            }
            self.shared.progress.wait(&mut state);
        }
    }

    /// Seals the store's pending segments on the engine's pool, then feeds
    /// what they published ([`ShardedSemanticsStore::pending_summary`],
    /// read just before the seal) to the result cache (evicting entries
    /// whose regions the seal touched) and to every registered standing
    /// query.
    /// If a seal log is attached, the pending entries are appended to it
    /// as one frame *before* the merge, so a crash after this call loses
    /// nothing (see the `persist` module docs).
    ///
    /// The cache and the standing queries are updated before the store
    /// write guard drops: a query that reads the store is then either
    /// wholly before this seal or wholly after it, together with its
    /// cache entry or standing registration. The engine-wide lock order
    /// is state → store → {log, cache, standing}.
    pub(crate) fn seal_store(&self) {
        // The commit index the frame records must describe exactly the
        // pending set we log, so both are read under one store write guard.
        let state = self.state();
        let next_commit = state.next_commit;
        let mut store = self.shared.store.write();
        drop(state);
        self.seal_locked(next_commit, &mut store);
    }

    /// [`seal_store`](SemanticsEngine::seal_store)'s body, for a caller
    /// that holds the store write guard and read `next_commit` under the
    /// state lock it took that guard in.
    pub(crate) fn seal_locked(&self, next_commit: u64, store: &mut ShardedSemanticsStore) {
        if store.num_pending() == 0 {
            return;
        }
        self.log_seal(next_commit, store);
        let summary = store.pending_summary();
        store.seal_with(&self.pool);
        if summary.new_stays.is_empty() {
            return;
        }
        self.cache
            .lock()
            .invalidate_touching(&summary.touched_regions);
        let mut standing = self.standing.lock();
        for state in standing.iter_mut().flatten() {
            match state {
                StandingState::Prq(q) => q.observe_seal(&summary),
                StandingState::Frpq(q) => q.observe_seal(&summary),
            }
        }
    }
}

impl Drop for SemanticsEngine<'_> {
    fn drop(&mut self) {
        // In-flight pipelined decodes borrow the boxed model raw; wait
        // them out before the model drops. Sessions seal on drop (and
        // borrow the engine, so they are gone by now), so this is
        // normally already quiescent.
        self.wait_inflight();
    }
}

/// Decodes one sequence exactly as the batch path does: per-sequence RNG
/// seeded with `sequence_seed(base_seed, global_index)`, worker-local
/// scratch reused across every sequence the thread ever decodes.
fn decode_one(
    model: &C2mn<'_>,
    base_seed: u64,
    index: u64,
    records: &[PositioningRecord],
) -> Vec<MobilitySemantics> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<DecodeScratch> =
            std::cell::RefCell::new(DecodeScratch::new());
    }
    SCRATCH.with(|scratch| {
        let mut rng = StdRng::seed_from_u64(ism_c2mn::sequence_seed(base_seed, index as usize));
        model.annotate_with(records, &mut rng, &mut scratch.borrow_mut())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ism_c2mn::Weights;
    use ism_indoor::BuildingGenerator;
    use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ism_indoor::IndoorSpace, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let space = BuildingGenerator::small_office()
            .generate(&mut rng)
            .unwrap();
        let dataset = Dataset::generate(
            "e",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(8.0, 1.5),
            None,
            6,
            &mut rng,
        );
        (space, dataset)
    }

    fn model(space: &ism_indoor::IndoorSpace) -> C2mn<'_> {
        C2mn::from_weights(space, C2mnConfig::quick_test(), Weights::uniform(1.0))
    }

    #[test]
    fn builder_defaults_are_sane() {
        let (space, _) = setup();
        let engine = EngineBuilder::new().build(model(&space)).unwrap();
        assert!(engine.threads() >= 1);
        assert_eq!(engine.num_shards(), DEFAULT_SHARDS);
        assert_eq!(engine.base_seed(), 0);
        assert_eq!(engine.queue_capacity(), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(engine.sequences_ingested(), 0);
        assert_eq!(engine.num_objects(), 0);
        // Queue capacity clamps to ≥ 1.
        let engine = EngineBuilder::new()
            .queue_capacity(0)
            .build(model(&space))
            .unwrap();
        assert_eq!(engine.queue_capacity(), 1);
    }

    #[test]
    fn builder_trains_on_the_engine_pool_with_thread_invariant_weights() {
        let (space, dataset) = setup();
        let config = C2mnConfig::quick_test();
        // Sequential reference: `C2mn::train` draws the same base seed
        // from an identically-seeded rng and samples on one thread.
        let mut rng = StdRng::seed_from_u64(77);
        let reference = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
        for threads in [1, 2, 4] {
            let mut rng = StdRng::seed_from_u64(77);
            let engine = EngineBuilder::new()
                .threads(threads)
                .train(&space, &dataset.sequences, &config, &mut rng)
                .unwrap();
            assert_eq!(engine.threads(), threads);
            assert_eq!(
                engine.model().weights().0.map(f64::to_bits),
                reference.weights().0.map(f64::to_bits),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn training_failures_surface_as_engine_errors() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let err = EngineBuilder::new()
            .train(&space, &[], &C2mnConfig::quick_test(), &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Train(ism_c2mn::TrainError::EmptyTrainingSet)
        );
    }

    #[test]
    fn initial_store_shard_mismatch_is_an_error() {
        let (space, _) = setup();
        let err = EngineBuilder::new()
            .shards(4)
            .initial_store(ShardedSemanticsStore::new(3))
            .build(model(&space))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Store(ism_queries::StoreError::ShardCountMismatch { left: 4, right: 3 })
        );
        // Without an explicit shard count the store's count wins.
        let engine = EngineBuilder::new()
            .initial_store(ShardedSemanticsStore::new(3))
            .build(model(&space))
            .unwrap();
        assert_eq!(engine.num_shards(), 3);
    }

    #[test]
    fn sessions_accumulate_and_seeds_continue() {
        let (space, dataset) = setup();
        let sequences: Vec<Vec<PositioningRecord>> = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        let ids: Vec<u64> = dataset.sequences.iter().map(|s| s.object_id).collect();
        let split = sequences.len() / 2;

        // Offline reference over the whole stream in one go.
        let reference =
            BatchAnnotator::new(&model(&space), 1, 9).annotate_into_store(&sequences, &ids, 4);

        // Two sessions, second continuing the first's numbering.
        let engine = EngineBuilder::new()
            .threads(2)
            .shards(4)
            .base_seed(9)
            .queue_capacity(2)
            .build(model(&space))
            .unwrap();
        let mut s1 = engine.ingest();
        s1.push_batch(
            ids[..split]
                .iter()
                .copied()
                .zip(sequences[..split].iter().cloned()),
        );
        assert_eq!(s1.seal(), split as u64);
        assert_eq!(engine.sequences_ingested(), split as u64);
        let mut s2 = engine.ingest();
        s2.push_batch(
            ids[split..]
                .iter()
                .copied()
                .zip(sequences[split..].iter().cloned()),
        );
        drop(s2); // drop seals too
        assert_eq!(engine.sequences_ingested(), sequences.len() as u64);

        for s in 0..4 {
            let want: Vec<_> = reference
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            let got: Vec<_> = engine
                .store()
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            assert_eq!(got, want, "shard {s}");
        }
    }

    #[test]
    fn engine_queries_match_free_functions() {
        let (space, dataset) = setup();
        let sequences: Vec<Vec<PositioningRecord>> = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        let ids: Vec<u64> = dataset.sequences.iter().map(|s| s.object_id).collect();
        let engine = EngineBuilder::new()
            .threads(2)
            .shards(3)
            .base_seed(5)
            .build(model(&space))
            .unwrap();
        let mut session = engine.ingest();
        session.push_batch(ids.iter().copied().zip(sequences.iter().cloned()));
        session.seal();

        let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
        let qt = TimePeriod::new(0.0, 1e9);
        let pool = WorkerPool::new(1);
        assert_eq!(
            engine.tk_prq(&regions, 5, qt),
            ism_queries::tk_prq_sharded(&engine.store(), &regions, 5, qt, &pool)
        );
        assert_eq!(
            engine.tk_frpq(&regions, 5, qt),
            ism_queries::tk_frpq_sharded(&engine.store(), &regions, 5, qt, &pool)
        );
        // Per-object lookup agrees with the store.
        for &id in &ids {
            assert_eq!(engine.semantics_of(id).as_deref(), engine.store().get(id));
        }
    }

    #[test]
    fn into_store_round_trips_through_initial_store() {
        let (space, dataset) = setup();
        let sequences: Vec<Vec<PositioningRecord>> = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        let ids: Vec<u64> = dataset.sequences.iter().map(|s| s.object_id).collect();
        let split = 2.min(sequences.len());

        // One engine ingesting everything...
        let whole = EngineBuilder::new()
            .threads(1)
            .shards(3)
            .base_seed(21)
            .build(model(&space))
            .unwrap();
        let mut s = whole.ingest();
        s.push_batch(ids.iter().copied().zip(sequences.iter().cloned()));
        s.seal();

        // ...equals an engine resumed from a handed-over store.
        let first = EngineBuilder::new()
            .threads(1)
            .shards(3)
            .base_seed(21)
            .build(model(&space))
            .unwrap();
        let mut s = first.ingest();
        s.push_batch(
            ids[..split]
                .iter()
                .copied()
                .zip(sequences[..split].iter().cloned()),
        );
        s.seal();
        let ingested = first.sequences_ingested();
        let resumed = EngineBuilder::new()
            .threads(2)
            .base_seed(21)
            .first_sequence_index(ingested)
            .initial_store(first.into_store())
            .build(model(&space))
            .unwrap();
        let mut s = resumed.ingest();
        s.push_batch(
            ids[split..]
                .iter()
                .copied()
                .zip(sequences[split..].iter().cloned()),
        );
        s.seal();

        for shard in 0..3 {
            let want: Vec<_> = whole
                .store()
                .iter_shard(shard)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            let got: Vec<_> = resumed
                .store()
                .iter_shard(shard)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect();
            assert_eq!(got, want, "shard {shard}");
        }
    }

    #[test]
    fn offline_helpers_do_not_touch_the_counter() {
        let (space, dataset) = setup();
        let sequences: Vec<Vec<PositioningRecord>> = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        let engine = EngineBuilder::new()
            .threads(2)
            .base_seed(7)
            .build(model(&space))
            .unwrap();
        let labels = engine.label_batch(&sequences);
        let semantics = engine.annotate_batch(&sequences);
        assert_eq!(labels.len(), sequences.len());
        assert_eq!(semantics.len(), sequences.len());
        assert_eq!(engine.sequences_ingested(), 0);
        assert_eq!(engine.num_objects(), 0);
        // They equal the BatchAnnotator reference directly.
        let reference = BatchAnnotator::new(engine.model(), 1, 7);
        assert_eq!(labels, reference.label_batch(&sequences));
        assert_eq!(semantics, reference.annotate_batch(&sequences));
    }

    /// Builds an engine with `n` sequences of the setup dataset sealed in.
    fn ingested_engine<'s>(
        space: &'s ism_indoor::IndoorSpace,
        dataset: &Dataset,
        n: usize,
    ) -> SemanticsEngine<'s> {
        let engine = EngineBuilder::new()
            .threads(2)
            .shards(3)
            .base_seed(5)
            .build(model(space))
            .unwrap();
        let mut session = engine.ingest();
        session.push_batch(
            dataset.sequences[..n]
                .iter()
                .map(|s| (s.object_id, s.positioning().collect())),
        );
        session.seal();
        engine
    }

    #[test]
    fn query_cache_hits_until_a_seal_touches_its_regions() {
        let (space, dataset) = setup();
        let engine = ingested_engine(&space, &dataset, 4);
        let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
        let qt = TimePeriod::new(0.0, 1e9);

        let first = engine.tk_prq(&regions, 5, qt);
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                entries: 1,
                hits: 0,
                misses: 1
            }
        );
        // Same query (even unsorted/duplicated) is a hit with the same
        // answer; a different k is a distinct entry.
        let mut shuffled = regions.clone();
        shuffled.reverse();
        shuffled.push(regions[0]);
        assert_eq!(engine.tk_prq(&shuffled, 5, qt), first);
        assert_eq!(engine.cache_stats().hits, 1);
        let _ = engine.tk_frpq(&regions, 3, qt);
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                entries: 2,
                hits: 1,
                misses: 2
            }
        );

        // Sealing new data that visits the cached regions evicts both
        // entries; the re-run reflects the new data.
        let mut session = engine.ingest();
        session.push_batch(
            dataset.sequences[4..]
                .iter()
                .map(|s| (s.object_id, s.positioning().collect())),
        );
        session.seal();
        let after = engine.tk_prq(&regions, 5, qt);
        assert_eq!(engine.cache_stats().misses, 3);
        let pool = WorkerPool::new(1);
        assert_eq!(
            after,
            ism_queries::tk_prq_sharded(&engine.store(), &regions, 5, qt, &pool)
        );
    }

    #[test]
    fn standing_queries_track_full_reruns_across_seals() {
        let (space, dataset) = setup();
        let engine = ingested_engine(&space, &dataset, 2);
        let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
        let qt = TimePeriod::new(0.0, 1e9);
        let prq = engine.standing_tk_prq(&regions, 4, qt);
        let frpq = engine.standing_tk_frpq(&regions, 4, qt);
        assert_eq!(engine.num_standing(), 2);
        // Registration covers data sealed before it...
        assert_eq!(
            engine.standing_prq_result(prq).unwrap(),
            engine.tk_prq(&regions, 4, qt)
        );
        // ...and each subsequent seal folds forward to the full re-run.
        for chunk in dataset.sequences[2..].chunks(2) {
            let mut session = engine.ingest();
            session.push_batch(
                chunk
                    .iter()
                    .map(|s| (s.object_id, s.positioning().collect())),
            );
            session.seal();
            assert_eq!(
                engine.standing_prq_result(prq).unwrap(),
                engine.tk_prq(&regions, 4, qt)
            );
            assert_eq!(
                engine.standing_frpq_result(frpq).unwrap(),
                engine.tk_frpq(&regions, 4, qt)
            );
        }
        // Kind-mismatched reads are None; cancellation frees the slot
        // without disturbing the other handle.
        assert!(engine.standing_frpq_result(prq).is_none());
        assert!(engine.cancel_standing(prq));
        assert!(!engine.cancel_standing(prq));
        assert!(engine.standing_prq_result(prq).is_none());
        assert_eq!(engine.num_standing(), 1);
        assert!(engine.standing_frpq_result(frpq).is_some());
    }

    #[test]
    fn initial_store_with_pending_entries_is_sealed_at_build() {
        // Regression: the engine only queries sealed data, so a
        // handed-over store with unsealed appends must be sealed by
        // `build`, not silently hide those entries.
        let (space, _) = setup();
        let mut store = ShardedSemanticsStore::new(3);
        store.append(
            7,
            vec![MobilitySemantics {
                region: RegionId(0),
                period: TimePeriod::new(0.0, 50.0),
                event: MobilityEvent::Stay,
            }],
        );
        assert_eq!(store.num_pending(), 1);
        let engine = EngineBuilder::new()
            .initial_store(store)
            .build(model(&space))
            .unwrap();
        assert_eq!(engine.store().num_pending(), 0);
        assert_eq!(engine.num_objects(), 1);
        assert_eq!(
            engine.tk_prq(&[RegionId(0)], 1, TimePeriod::new(0.0, 100.0)),
            vec![(RegionId(0), 1)]
        );
    }

    #[test]
    fn non_finite_records_are_dropped_at_submission() {
        let (space, dataset) = setup();
        let mut sequences: Vec<Vec<PositioningRecord>> = dataset
            .sequences
            .iter()
            .map(|s| s.positioning().collect())
            .collect();
        let bad = sequences.len() / 2;
        let mut kept = sequences[bad].clone();
        kept.remove(2);
        sequences[bad][2].location.xy.x = f64::NAN;
        let engine = EngineBuilder::new()
            .threads(2)
            .shards(3)
            .base_seed(11)
            .build(model(&space))
            .unwrap();
        // One object per sequence, so each object's m-semantics are one
        // sequence's annotation.
        let mut session = engine.ingest();
        session.push_batch((0u64..).zip(sequences.iter().cloned()));
        session.flush();
        session.seal();
        assert_eq!(engine.records_dropped(), 1);
        // Later sessions are unaffected.
        let n = sequences.len() as u64;
        for round in 0..3 {
            let mut session = engine.ingest();
            session.push(n + round, sequences[0].clone());
            session.flush();
            session.seal();
        }
        assert_eq!(engine.records_dropped(), 1);
        assert_eq!(engine.sequences_ingested(), n + 3);

        // Each object equals a serial annotation with its global-index
        // seed; the bad sequence keeps its index and loses only its record.
        sequences[bad] = kept;
        sequences.extend(std::iter::repeat_n(sequences[0].clone(), 3));
        let mut scratch = DecodeScratch::new();
        for (g, records) in sequences.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(ism_c2mn::sequence_seed(11, g));
            let want = engine
                .model()
                .annotate_with(records, &mut rng, &mut scratch);
            assert_eq!(engine.semantics_of(g as u64), Some(want), "object {g}");
        }
    }

    #[test]
    fn engine_batch_matches_one_shot_queries() {
        let (space, dataset) = setup();
        let engine = ingested_engine(&space, &dataset, dataset.sequences.len());
        let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
        let qt = TimePeriod::new(0.0, 1e9);
        let mut batch = QueryBatch::new();
        batch.tk_prq(&regions, 3, qt);
        batch.tk_frpq(&regions, 3, qt);
        let answers = engine.run_batch(&batch);
        assert_eq!(
            answers[0].clone().into_prq().unwrap(),
            engine.tk_prq(&regions, 3, qt)
        );
        assert_eq!(
            answers[1].clone().into_frpq().unwrap(),
            engine.tk_frpq(&regions, 3, qt)
        );
    }
}
