//! Batched query fan-out: N queries share one worker-pool dispatch.
//!
//! Sharded TkPRQ/TkFRPQ once ran at 0.79× with 2 threads versus 1,
//! because every single query paid a full `WorkerPool::map_reduce`
//! dispatch (scoped thread spawns + joins) for a few hundred microseconds
//! of index work. A [`QueryBatch`] amortises that dispatch: the batch fans
//! out over the store's shards **once**, each worker evaluating *every*
//! query of the batch against each shard it claims, and per-query partial
//! counts merge commutatively exactly like the single-query path — so
//! batch answers are byte-identical to running each query alone, and to
//! the flat sequential reference.
//!
//! Two additional dispatch rules keep small calls cheap:
//!
//! * Queries whose region set is empty or matches no indexed region are
//!   answered with an empty ranking up front and never enter the fan-out
//!   (a batch of only such queries does no dispatch at all).
//! * The worker count is capped by estimated work and by the host's
//!   available parallelism ([`WorkerPool::capped`]): a batch carrying
//!   less index work than roughly [`FANOUT_WORK_THRESHOLD`]
//!   posting-query units per extra worker evaluates sequentially on the
//!   calling thread, and CPU-bound index work never spawns more workers
//!   than the host has cores. Capping never changes results — the merge
//!   is commutative — only where they are computed.

use ism_indoor::RegionId;
use ism_mobility::TimePeriod;
use ism_runtime::WorkerPool;
use std::collections::HashMap;

use crate::store::ShardedSemanticsStore;
use crate::topk::{rank, QuerySet};

/// Estimated work (total postings × batch queries) a worker must amortise
/// before the batch fans out to it. Below one unit the batch runs
/// sequentially; the cap grows by one worker per additional unit, up to
/// the host's available parallelism.
const FANOUT_WORK_THRESHOLD: usize = 1 << 17;

/// The answer to one batched query, in the batch's submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// A TkPRQ ranking: `(region, visit count)` by count desc, id asc.
    Prq(Vec<(RegionId, usize)>),
    /// A TkFRPQ ranking: `(region pair, object count)` by count desc,
    /// pair asc.
    Frpq(Vec<((RegionId, RegionId), usize)>),
}

impl QueryAnswer {
    /// The TkPRQ ranking, if this answers a TkPRQ.
    pub fn into_prq(self) -> Option<Vec<(RegionId, usize)>> {
        match self {
            QueryAnswer::Prq(v) => Some(v),
            QueryAnswer::Frpq(_) => None,
        }
    }

    /// The TkFRPQ ranking, if this answers a TkFRPQ.
    pub fn into_frpq(self) -> Option<Vec<((RegionId, RegionId), usize)>> {
        match self {
            QueryAnswer::Frpq(v) => Some(v),
            QueryAnswer::Prq(_) => None,
        }
    }
}

/// One prepared query of a batch.
#[derive(Debug, Clone)]
enum Prepared {
    Prq {
        query: QuerySet,
        k: usize,
        qt: TimePeriod,
    },
    Frpq {
        query: QuerySet,
        k: usize,
        qt: TimePeriod,
    },
}

/// Per-query partial counts while a batch is in flight.
#[derive(Debug)]
enum Partial {
    Prq(HashMap<RegionId, usize>),
    Frpq(HashMap<(RegionId, RegionId), usize>),
}

/// A set of TkPRQ / TkFRPQ queries evaluated in one shard fan-out.
///
/// Submission order is answer order. A batch is reusable: [`run`] borrows
/// it immutably, so one prepared dashboard batch can be re-evaluated
/// against a growing store.
///
/// [`run`]: QueryBatch::run
#[derive(Debug, Clone, Default)]
#[must_use = "a QueryBatch does nothing until `run`"]
pub struct QueryBatch {
    queries: Vec<Prepared>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Adds a TkPRQ (top-k popular regions of `query` within `qt`);
    /// returns its answer slot.
    pub fn tk_prq(&mut self, query: &[RegionId], k: usize, qt: TimePeriod) -> usize {
        self.queries.push(Prepared::Prq {
            query: QuerySet::new(query),
            k,
            qt,
        });
        self.queries.len() - 1
    }

    /// Adds a TkFRPQ (top-k frequently co-visited region pairs of `query`
    /// within `qt`); returns its answer slot.
    pub fn tk_frpq(&mut self, query: &[RegionId], k: usize, qt: TimePeriod) -> usize {
        self.queries.push(Prepared::Frpq {
            query: QuerySet::new(query),
            k,
            qt,
        });
        self.queries.len() - 1
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Evaluates every query of the batch in one fan-out over `store`'s
    /// shards, returning answers in submission order.
    ///
    /// Empty-region and unmatched-region queries are answered without
    /// touching the shards; if nothing remains, no dispatch happens at
    /// all. Results are byte-identical to evaluating each query alone
    /// against the flat sequential reference, for any shard, thread and
    /// batch composition.
    pub fn run(&self, store: &ShardedSemanticsStore, pool: &WorkerPool) -> Vec<QueryAnswer> {
        // One worker per FANOUT_WORK_THRESHOLD units of estimated work,
        // and never more workers than the host has cores: index evaluation
        // is CPU-bound, so an extra worker beyond either limit only adds
        // spawn overhead. Capping never changes results (the merge is
        // commutative), only where they are computed — tiny batches stay
        // on the calling thread entirely.
        let estimated_work = store.num_postings().saturating_mul(self.queries.len());
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = (estimated_work / FANOUT_WORK_THRESHOLD)
            .max(1)
            .min(hardware);
        self.run_with_pool(store, &pool.capped(cap))
    }

    /// [`run`](QueryBatch::run) without the dispatch cap — the fan-out
    /// uses `pool` exactly as given. Kept separate so tests exercise the
    /// multi-worker merge path even on single-core hosts.
    pub(crate) fn run_with_pool(
        &self,
        store: &ShardedSemanticsStore,
        pool: &WorkerPool,
    ) -> Vec<QueryAnswer> {
        let mut answers: Vec<Option<QueryAnswer>> = Vec::with_capacity(self.queries.len());
        // (slot, query) pairs that actually need index work: non-empty
        // region sets intersecting at least one indexed posting list.
        let mut live: Vec<(usize, &Prepared)> = Vec::new();
        for (slot, prepared) in self.queries.iter().enumerate() {
            let (query, kind_is_prq) = match prepared {
                Prepared::Prq { query, .. } => (query, true),
                Prepared::Frpq { query, .. } => (query, false),
            };
            // A PRQ needs ≥ 1 matching query region, an FRPQ ≥ 2 query
            // regions; otherwise the empty ranking is already known.
            let trivially_empty = query.is_empty() || (!kind_is_prq && query.len() < 2);
            if trivially_empty || !store.has_any_region(query) {
                answers.push(Some(if kind_is_prq {
                    QueryAnswer::Prq(Vec::new())
                } else {
                    QueryAnswer::Frpq(Vec::new())
                }));
            } else {
                answers.push(None);
                live.push((slot, prepared));
            }
        }
        if !live.is_empty() {
            let init = || {
                live.iter()
                    .map(|(_, prepared)| match prepared {
                        Prepared::Prq { .. } => Partial::Prq(HashMap::new()),
                        Prepared::Frpq { .. } => Partial::Frpq(HashMap::new()),
                    })
                    .collect::<Vec<Partial>>()
            };
            let partials = pool.map_reduce(
                store.num_shards(),
                init,
                |accs: &mut Vec<Partial>, s| {
                    let index = store.shard(s).index();
                    for ((_, prepared), acc) in live.iter().zip(accs.iter_mut()) {
                        match (prepared, acc) {
                            (Prepared::Prq { query, qt, .. }, Partial::Prq(counts)) => {
                                for (region, n) in index.prq_counts(query, qt) {
                                    *counts.entry(region).or_insert(0) += n;
                                }
                            }
                            (Prepared::Frpq { query, qt, .. }, Partial::Frpq(counts)) => {
                                for (pair, n) in index.frpq_counts(query, qt) {
                                    *counts.entry(pair).or_insert(0) += n;
                                }
                            }
                            _ => unreachable!("partial kinds follow query kinds"),
                        }
                    }
                },
                |totals, accs| {
                    for (total, acc) in totals.iter_mut().zip(accs) {
                        match (total, acc) {
                            (Partial::Prq(t), Partial::Prq(a)) => merge_into(t, a),
                            (Partial::Frpq(t), Partial::Frpq(a)) => merge_into(t, a),
                            _ => unreachable!("partial kinds follow query kinds"),
                        }
                    }
                },
            );
            for ((slot, prepared), partial) in live.iter().zip(partials) {
                let answer = match (prepared, partial) {
                    (Prepared::Prq { k, .. }, Partial::Prq(counts)) => {
                        QueryAnswer::Prq(rank(counts, *k))
                    }
                    (Prepared::Frpq { k, .. }, Partial::Frpq(counts)) => {
                        QueryAnswer::Frpq(rank(counts, *k))
                    }
                    _ => unreachable!("partial kinds follow query kinds"),
                };
                // analyzer: allow(lib-panic) `slot` was assigned from this vec's enumeration during prepare
                answers[*slot] = Some(answer);
            }
        }
        answers
            .into_iter()
            // analyzer: allow(lib-panic) the loop above answered every prepared slot exactly once
            .map(|a| a.expect("every slot answered"))
            .collect()
    }
}

/// Sums `other` into `total` key-wise (commutative, so worker scheduling
/// is unobservable).
fn merge_into<K: std::hash::Hash + Eq>(total: &mut HashMap<K, usize>, other: HashMap<K, usize>) {
    for (key, n) in other {
        *total.entry(key).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SemanticsStore;
    use crate::topk::{tk_frpq, tk_prq};
    use ism_mobility::{MobilityEvent, MobilitySemantics};

    fn ms(region: u32, start: f64, end: f64) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event: MobilityEvent::Stay,
        }
    }

    fn sample() -> SemanticsStore {
        let mut store = SemanticsStore::new();
        for i in 0..40u64 {
            store.insert(
                i,
                vec![
                    ms(i as u32 % 5, i as f64 * 3.0, i as f64 * 3.0 + 10.0),
                    ms(
                        (i as u32 + 1) % 5,
                        i as f64 * 3.0 + 20.0,
                        i as f64 * 3.0 + 25.0,
                    ),
                ],
            );
        }
        store
    }

    #[test]
    fn batch_answers_match_single_queries_in_order() {
        let flat = sample();
        let sharded = ShardedSemanticsStore::from_store(&flat, 4);
        let pool = WorkerPool::new(2);
        let all: Vec<RegionId> = (0..5).map(RegionId).collect();
        let some = vec![RegionId(1), RegionId(3)];
        let qt_a = TimePeriod::new(0.0, 60.0);
        let qt_b = TimePeriod::new(30.0, 200.0);

        let mut batch = QueryBatch::new();
        assert!(batch.is_empty());
        let s0 = batch.tk_prq(&all, 3, qt_a);
        let s1 = batch.tk_frpq(&all, 4, qt_b);
        let s2 = batch.tk_prq(&some, 2, qt_b);
        let s3 = batch.tk_frpq(&some, 2, qt_a);
        assert_eq!((s0, s1, s2, s3), (0, 1, 2, 3));
        assert_eq!(batch.len(), 4);

        let answers = batch.run(&sharded, &pool);
        assert_eq!(
            answers[0].clone().into_prq().unwrap(),
            tk_prq(&flat, &all, 3, qt_a)
        );
        assert_eq!(
            answers[1].clone().into_frpq().unwrap(),
            tk_frpq(&flat, &all, 4, qt_b)
        );
        assert_eq!(
            answers[2].clone().into_prq().unwrap(),
            tk_prq(&flat, &some, 2, qt_b)
        );
        assert_eq!(
            answers[3].clone().into_frpq().unwrap(),
            tk_frpq(&flat, &some, 2, qt_a)
        );
        // Kind accessors reject the other kind.
        assert!(answers[0].clone().into_frpq().is_none());
        assert!(answers[1].clone().into_prq().is_none());
    }

    #[test]
    fn empty_and_unknown_region_queries_short_circuit() {
        let sharded = ShardedSemanticsStore::from_store(&sample(), 3);
        let pool = WorkerPool::new(2);
        let qt = TimePeriod::new(0.0, 1e6);
        let mut batch = QueryBatch::new();
        batch.tk_prq(&[], 5, qt);
        batch.tk_frpq(&[], 5, qt);
        batch.tk_prq(&[RegionId(999)], 5, qt); // no such region indexed
        batch.tk_frpq(&[RegionId(999), RegionId(777)], 5, qt);
        let answers = batch.run(&sharded, &pool);
        assert_eq!(answers[0], QueryAnswer::Prq(Vec::new()));
        assert_eq!(answers[1], QueryAnswer::Frpq(Vec::new()));
        assert_eq!(answers[2], QueryAnswer::Prq(Vec::new()));
        assert_eq!(answers[3], QueryAnswer::Frpq(Vec::new()));
    }

    #[test]
    fn forced_multi_worker_fanout_matches_sequential() {
        // `run` caps workers by work and host cores, so on small stores or
        // single-core hosts the merge path never multi-threads; pin its
        // correctness by bypassing the cap.
        let flat = sample();
        let sharded = ShardedSemanticsStore::from_store(&flat, 5);
        let all: Vec<RegionId> = (0..5).map(RegionId).collect();
        let qt = TimePeriod::new(0.0, 200.0);
        let mut batch = QueryBatch::new();
        batch.tk_prq(&all, 4, qt);
        batch.tk_frpq(&all, 4, qt);
        let sequential = batch.run_with_pool(&sharded, &WorkerPool::new(1));
        for threads in [2, 4, 8] {
            let parallel = batch.run_with_pool(&sharded, &WorkerPool::new(threads));
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn batch_is_reusable_across_store_growth() {
        let pool = WorkerPool::new(1);
        let qt = TimePeriod::new(0.0, 1e6);
        let all: Vec<RegionId> = (0..5).map(RegionId).collect();
        let mut batch = QueryBatch::new();
        batch.tk_prq(&all, 5, qt);

        let mut live = ShardedSemanticsStore::new(3);
        live.append(1, vec![ms(0, 0.0, 10.0)]);
        live.seal();
        let first = batch.run(&live, &pool);
        assert_eq!(first[0], QueryAnswer::Prq(vec![(RegionId(0), 1)]));
        live.append(2, vec![ms(0, 5.0, 15.0)]);
        live.seal();
        let second = batch.run(&live, &pool);
        assert_eq!(second[0], QueryAnswer::Prq(vec![(RegionId(0), 2)]));
    }
}
