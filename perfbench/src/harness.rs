//! What every workload shares: the metric lists, the run context, output
//! checks, engine counters, the query mix, and the phases that time
//! one-shot queries, dashboard batches and reopening a snapshot.

use crate::stats::{median, Summary};
use crate::trace::Tracer;
use ism_c2mn::{sequence_seed, C2mn, DecodeScratch, SequenceContext};
use ism_engine::{
    CacheStats, EngineBuilder, KernelStats, RecoveryReport, SemanticsEngine, StandingQueryId,
};
use ism_indoor::{IndoorSpace, RegionId};
use ism_mobility::{
    merge_labels, Dataset, LabeledSequence, PositioningConfig, PositioningRecord, PreprocessConfig,
    SimulationConfig, TimePeriod,
};
use ism_queries::{QueryAnswer, QueryBatch};
use ism_runtime::PoolStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of every engine: one pool worker plus the caller.
pub const THREADS: usize = 2;
/// Top-k size of every query.
pub const K: usize = 10;
/// Queries in one dashboard refresh.
pub const BATCH_QUERIES: usize = 16;

/// End-to-end metrics: every workload reports each one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("visible_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("queries_per_s", "queries/s"),
    ("recover_s", "s"),
];

/// Per-layer metrics of the traced run: every workload reports each one,
/// as 0 where the workload does not reach the layer or has too few
/// samples for a tail.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("indoor.generate_s", "s"),
    ("mobility.simulate_s", "s"),
    ("mobility.records", "count"),
    ("c2mn.train_s", "s"),
    ("c2mn.context_ms_per_seq", "ms"),
    ("c2mn.decode_ms_per_seq", "ms"),
    ("c2mn.context_share", "1"),
    ("c2mn.serial_records_per_s", "records/s"),
    ("mobility.merge_us_per_seq", "us"),
    ("pgm.rows_filled", "count"),
    ("pgm.rows_reused", "count"),
    ("pgm.invalidations", "count"),
    ("pgm.pairwise_table_bytes", "bytes"),
    ("pgm.reuse_ratio", "1"),
    ("runtime.fanout_calls", "count"),
    ("runtime.inline_calls", "count"),
    ("runtime.items_claimed", "count"),
    ("runtime.async_tasks", "count"),
    ("runtime.idle_wakeups", "count"),
    ("engine.visible_p99_ms", "ms"),
    ("engine.annotate_records_per_s", "records/s"),
    ("engine.push_blocked_s", "s"),
    ("engine.flush_s", "s"),
    ("engine.push_ms_p99", "ms"),
    ("engine.commit_p50_ms", "ms"),
    ("engine.commit_p99_ms", "ms"),
    ("engine.seal_s", "s"),
    ("engine.seal_ms_p50", "ms"),
    ("engine.seal_ms_p99", "ms"),
    ("engine.seals", "count"),
    ("codec.log_bytes_per_seal", "bytes"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "1"),
    ("engine.standing_read_us_p50", "us"),
    ("queries.build_s", "s"),
    ("queries.one_shot_p99_ms", "ms"),
    ("queries.prq_p50_ms", "ms"),
    ("queries.frpq_p50_ms", "ms"),
    ("queries.batch_ms_p50", "ms"),
    ("queries.postings", "count"),
    ("queries.index_bytes", "bytes"),
    ("queries.bytes_per_posting", "bytes"),
    ("codec.snapshot_save_s", "s"),
    ("codec.snapshot_bytes", "bytes"),
    ("codec.read_artifact_s", "s"),
    ("engine.snapshot_objects", "count"),
    ("trace.overhead_ratio", "1"),
];

/// Per-layer metrics only the open loop of `serve_mall` measures, reported
/// by its traced runs after [`PER_LAYER`].
pub const OPEN_LOOP_LAYER: [(&str, &str); 5] = [
    ("engine.backlog_max", "count"),
    ("gen.arrivals", "count"),
    ("gen.queries", "count"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
];

/// Per-layer counts that must repeat bit-for-bit for a given seed.
pub const EXACT: [&str; 9] = [
    "mobility.records",
    "pgm.rows_filled",
    "pgm.rows_reused",
    "pgm.invalidations",
    "pgm.pairwise_table_bytes",
    "queries.postings",
    "queries.index_bytes",
    "codec.snapshot_bytes",
    "engine.snapshot_objects",
];

/// Named metric values in a fixed order.
#[derive(Debug, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Every metric of `names`, starting at `initial`.
    pub fn with_names(names: &[(&'static str, &'static str)], initial: f64) -> Self {
        Metrics {
            entries: names.iter().map(|&(n, u)| (n, initial, u)).collect(),
        }
    }

    /// Appends `names`, each at 0.
    pub fn declare(&mut self, names: &[(&'static str, &'static str)]) {
        self.entries.extend(names.iter().map(|&(n, u)| (n, 0.0, u)));
    }

    /// Sets a metric of the list.
    ///
    /// # Panics
    /// If `name` is not in the list: a misspelt metric is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1 = value,
            None => panic!("unknown metric {name}"),
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// `(name, value, unit)` in list order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.entries.iter().copied()
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted against the engine.
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation returning `result`; an error fails it.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records an output check; a mismatch fails one operation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

/// Everything one pass of a workload reads and writes.
pub struct Ctx<'t> {
    /// The workload seed.
    pub seed: u64,
    /// The `--seconds` of the run.
    pub seconds: u64,
    /// Tiny inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Times each pass sets up; the median is `setup_s`.
    pub setup_reps: usize,
    /// Process start, the start of the first set-up.
    pub started: Instant,
    /// Spans of this pass (off when measuring end to end).
    pub tracer: &'t Tracer,
    /// Failures of this pass.
    pub checks: Checks,
    /// End-to-end metrics of this pass.
    pub e2e: Metrics,
    /// Per-layer metrics of this pass.
    pub layer: Metrics,
    /// Scratch directory for snapshots, removed when the run ends.
    pub work_dir: PathBuf,
}

impl<'t> Ctx<'t> {
    /// A fresh pass.
    pub fn new(
        seed: u64,
        seconds: u64,
        tiny: bool,
        setup_reps: usize,
        started: Instant,
        tracer: &'t Tracer,
        work_dir: PathBuf,
    ) -> Self {
        Ctx {
            seed,
            seconds,
            tiny,
            setup_reps,
            started,
            tracer,
            checks: Checks::default(),
            e2e: Metrics::with_names(&END_TO_END, f64::NAN),
            layer: Metrics::with_names(&PER_LAYER, 0.0),
            work_dir,
        }
    }

    /// A seed for one input stream, derived from the workload seed.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        sequence_seed(self.seed, stream as usize)
    }

    /// Runs `f` in a span.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, request, f)
    }

    /// Whether this pass records per-layer metrics.
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Sets `setup_s` to the median of the set-up durations.
    pub fn set_setup(&mut self, durations_s: &[f64]) {
        self.e2e.set("setup_s", median(durations_s));
    }
}

/// Pool, kernel and cache counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// The engine's worker pool.
    pub pool: PoolStats,
    /// The process-wide decode kernel.
    pub kernel: KernelStats,
    /// The engine's one-shot result cache.
    pub cache: CacheStats,
}

impl Counters {
    /// Reads the counters of `engine`.
    pub fn read(engine: &SemanticsEngine<'_>) -> Self {
        Counters {
            pool: engine.pool_stats(),
            kernel: engine.kernel_stats(),
            cache: engine.cache_stats(),
        }
    }

    /// Adds the change from `before` to `after` into `self`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        let (p, a, b) = (&mut self.pool, &after.pool, &before.pool);
        p.fanout_calls += a.fanout_calls - b.fanout_calls;
        p.inline_calls += a.inline_calls - b.inline_calls;
        p.items_claimed += a.items_claimed - b.items_claimed;
        p.async_tasks += a.async_tasks - b.async_tasks;
        p.idle_wakeups += a.idle_wakeups - b.idle_wakeups;
        let (k, a, b) = (&mut self.kernel, &after.kernel, &before.kernel);
        k.rows_filled += a.rows_filled - b.rows_filled;
        k.rows_reused += a.rows_reused - b.rows_reused;
        k.invalidations += a.invalidations - b.invalidations;
        k.pairwise_table_bytes += a.pairwise_table_bytes - b.pairwise_table_bytes;
        let (c, a, b) = (&mut self.cache, &after.cache, &before.cache);
        c.hits += a.hits - b.hits;
        c.misses += a.misses - b.misses;
    }

    /// Writes the counters as per-layer metrics.
    pub fn record(&self, layer: &mut Metrics) {
        let k = &self.kernel;
        layer.set("pgm.rows_filled", k.rows_filled as f64);
        layer.set("pgm.rows_reused", k.rows_reused as f64);
        layer.set("pgm.invalidations", k.invalidations as f64);
        layer.set("pgm.pairwise_table_bytes", k.pairwise_table_bytes as f64);
        layer.set(
            "pgm.reuse_ratio",
            ratio(k.rows_reused, k.rows_filled + k.rows_reused),
        );
        let p = &self.pool;
        layer.set("runtime.fanout_calls", p.fanout_calls as f64);
        layer.set("runtime.inline_calls", p.inline_calls as f64);
        layer.set("runtime.items_claimed", p.items_claimed as f64);
        layer.set("runtime.async_tasks", p.async_tasks as f64);
        layer.set("runtime.idle_wakeups", p.idle_wakeups as f64);
        let c = &self.cache;
        layer.set("engine.cache_hits", c.hits as f64);
        layer.set("engine.cache_misses", c.misses as f64);
        layer.set("engine.cache_hit_ratio", ratio(c.hits, c.hits + c.misses));
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The p-records of a labelled sequence.
pub fn records_of(seq: &LabeledSequence) -> Vec<PositioningRecord> {
    seq.positioning().collect()
}

/// One one-shot query.
#[derive(Debug, Clone)]
pub struct OneShot {
    /// TkFRPQ when set, TkPRQ otherwise.
    pub frpq: bool,
    /// The query's region set.
    pub regions: Vec<RegionId>,
    /// The query's time window.
    pub qt: TimePeriod,
}

impl OneShot {
    /// Adds the query to `batch`.
    pub fn add_to(&self, batch: &mut QueryBatch) {
        if self.frpq {
            batch.tk_frpq(&self.regions, K, self.qt);
        } else {
            batch.tk_prq(&self.regions, K, self.qt);
        }
    }

    /// Runs the query through the engine's one-shot (cached) path.
    pub fn run(&self, engine: &SemanticsEngine<'_>, tracer: &Tracer, request: u64) -> QueryAnswer {
        if self.frpq {
            tracer.span("queries.tk_frpq", Some(request), || {
                QueryAnswer::Frpq(engine.tk_frpq(&self.regions, K, self.qt))
            })
        } else {
            tracer.span("queries.tk_prq", Some(request), || {
                QueryAnswer::Prq(engine.tk_prq(&self.regions, K, self.qt))
            })
        }
    }

    /// The answer of the flat sequential reference over `store`.
    pub fn oracle(&self, store: &ism_queries::SemanticsStore) -> QueryAnswer {
        if self.frpq {
            QueryAnswer::Frpq(ism_queries::tk_frpq(store, &self.regions, K, self.qt))
        } else {
            QueryAnswer::Prq(ism_queries::tk_prq(store, &self.regions, K, self.qt))
        }
    }
}

/// Region-set sizes of the one-shot mix.
pub const REGION_SET_SIZES: [usize; 3] = [10, 60, 150];
/// `(window seconds, queries per 20)` of the one-shot mix: 15 min, 2 h
/// and 24 h windows in a fixed 9 : 9 : 2 proportion.
pub const WINDOWS: [(f64, usize); 3] = [(900.0, 9), (7200.0, 9), (86_400.0, 2)];
/// Queries in one cycle of the mix: 2 kinds × 3 sizes × 20 windows.
pub const MIX_CYCLE: usize = 120;

/// `regions` shuffled by `rng`, first `n` kept.
fn pick_regions(regions: &[RegionId], n: usize, rng: &mut StdRng) -> Vec<RegionId> {
    let mut pool = regions.to_vec();
    let n = n.min(pool.len());
    for i in 0..n {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// A window of `len` seconds inside `span`, or covering it when longer.
fn window(span: TimePeriod, len: f64, rng: &mut StdRng) -> TimePeriod {
    let room = span.duration() - len;
    let start = if room > 0.0 {
        span.start + rng.random::<f64>() * room
    } else {
        // Longer than the data: cover it all, from a start that still
        // makes the query distinct.
        span.start + room * rng.random::<f64>()
    };
    TimePeriod::new(start, start + len)
}

/// `cycles` × [`MIX_CYCLE`] distinct one-shot queries over `regions` and
/// the data's time `span`, shuffled. Every cycle holds the same number
/// of each (kind, region-set size, window) class, so the mix, and with it
/// the class the tail percentile falls in, does not vary with the seed.
pub fn distinct_queries(
    regions: &[RegionId],
    span: TimePeriod,
    cycles: usize,
    seed: u64,
) -> Vec<OneShot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cycles * MIX_CYCLE);
    for _ in 0..cycles {
        for frpq in [false, true] {
            for size in REGION_SET_SIZES {
                for (len, count) in WINDOWS {
                    for _ in 0..count {
                        out.push(OneShot {
                            frpq,
                            regions: pick_regions(regions, size, &mut rng),
                            qt: window(span, len, &mut rng),
                        });
                    }
                }
            }
        }
    }
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    out
}

/// `count` repeatable query templates for a live dashboard: 10- or
/// 60-region sets, 15 min or 2 h windows, alternating TkPRQ and TkFRPQ.
pub fn templates(regions: &[RegionId], span: TimePeriod, count: usize, seed: u64) -> Vec<OneShot> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|t| OneShot {
            frpq: t % 2 == 1,
            regions: pick_regions(regions, [10, 60][(t / 2) % 2], &mut rng),
            qt: window(span, [900.0, 7200.0][(t / 4) % 2], &mut rng),
        })
        .collect()
}

/// `count` dashboard refreshes: each is [`BATCH_QUERIES`] / 2 TkPRQ +
/// TkFRPQ pairs, every pair over its own 60-region set and a window of
/// `window_s` seconds inside `span`.
pub fn dashboards(
    regions: &[RegionId],
    span: TimePeriod,
    window_s: f64,
    count: usize,
    seed: u64,
) -> Vec<Vec<OneShot>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..BATCH_QUERIES / 2)
                .flat_map(|_| {
                    let regions = pick_regions(regions, 60, &mut rng);
                    let qt = window(span, window_s, &mut rng);
                    [false, true].map(|frpq| OneShot {
                        frpq,
                        regions: regions.clone(),
                        qt,
                    })
                })
                .collect()
        })
        .collect()
}

/// Closed loop of one-shot queries: each is sent when the previous
/// answer returns. Returns per-query latency in ms and the answers.
pub fn one_shot_phase(
    engine: &SemanticsEngine<'_>,
    queries: &[OneShot],
    ctx: &mut Ctx<'_>,
) -> (Vec<f64>, Vec<QueryAnswer>) {
    let mut latency = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let answer = q.run(engine, ctx.tracer, i as u64);
        latency.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(std::hint::black_box(answer));
    }
    ctx.checks.ops(queries.len() as u64);
    (latency, answers)
}

/// Closed loop of dashboard refreshes through `run_batch`. Returns the
/// per-batch ms and the answers.
pub fn batch_phase(
    engine: &SemanticsEngine<'_>,
    batches: &[Vec<OneShot>],
    ctx: &mut Ctx<'_>,
) -> (Vec<f64>, Vec<Vec<QueryAnswer>>) {
    let prepared: Vec<QueryBatch> = batches
        .iter()
        .map(|b| {
            let mut batch = QueryBatch::new();
            b.iter().for_each(|q| q.add_to(&mut batch));
            batch
        })
        .collect();
    let mut per_batch = Vec::with_capacity(prepared.len());
    let mut answers = Vec::with_capacity(prepared.len());
    for (i, batch) in prepared.iter().enumerate() {
        let t0 = Instant::now();
        let answer = ctx.span("queries.run_batch", Some(i as u64), || {
            engine.run_batch(batch)
        });
        per_batch.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(std::hint::black_box(answer));
    }
    ctx.checks.ops(prepared.len() as u64);
    (per_batch, answers)
}

/// Consecutive blocks a timed phase is split into; a rate is reported as
/// the median of the blocks' rates, so a few slow seconds of the host
/// move it less than they move the phase's mean.
pub const BLOCKS: usize = 5;

/// The median over [`BLOCKS`] consecutive blocks of `units_per_sample`
/// × samples ÷ the block's summed seconds.
pub fn block_median_rate(samples_ms: &[f64], units_per_sample: f64) -> f64 {
    let per_block = samples_ms.len().div_ceil(BLOCKS).max(1);
    let rates: Vec<f64> = samples_ms
        .chunks(per_block)
        .map(|c| c.len() as f64 * units_per_sample / (c.iter().sum::<f64>() / 1e3))
        .collect();
    median(&rates)
}

/// Sets per-layer metric `name` to tail percentile `p` of `s`, or leaves
/// it at 0 when too few samples lie beyond the tail.
pub fn set_tail(layer: &mut Metrics, name: &str, s: &Summary, p: f64) {
    if let Some(v) = s.tail(p) {
        layer.set(name, v);
    }
}

/// Sets `queries_per_s` and the median batch time from a batch phase.
pub fn record_batches(ctx: &mut Ctx<'_>, per_batch_ms: Vec<f64>) {
    let rate = block_median_rate(&per_batch_ms, BATCH_QUERIES as f64);
    ctx.e2e.set("queries_per_s", rate);
    let s = Summary::new(per_batch_ms);
    ctx.layer.set("queries.batch_ms_p50", s.median());
    println!(
        "  batches: {} x {BATCH_QUERIES} queries, median block {rate:.1} queries/s; batch ms {}",
        s.len(),
        s.describe(50.0)
    );
}

/// Sets `query_p50_ms`, the one-shot tail and the per-kind medians.
pub fn record_queries(ctx: &mut Ctx<'_>, queries: &[OneShot], latency_ms: &[f64], label: &str) {
    let all = Summary::new(latency_ms.to_vec());
    ctx.e2e.set("query_p50_ms", all.median());
    set_tail(&mut ctx.layer, "queries.one_shot_p99_ms", &all, 99.0);
    let by_kind = |frpq: bool| {
        Summary::new(
            queries
                .iter()
                .zip(latency_ms)
                .filter(|(q, _)| q.frpq == frpq)
                .map(|(_, &l)| l)
                .collect(),
        )
    };
    let (prq, frpq) = (by_kind(false), by_kind(true));
    ctx.layer.set("queries.prq_p50_ms", prq.median());
    ctx.layer.set("queries.frpq_p50_ms", frpq.median());
    println!(
        "  one-shot queries ({label}): ms {}; {}; TkPRQ {}; TkFRPQ {}",
        all.describe(50.0),
        all.describe(99.0),
        prq.describe(50.0),
        frpq.describe(50.0)
    );
}

/// Sets `visible_p50_ms` and the per-layer visible tail.
pub fn record_visible(ctx: &mut Ctx<'_>, visible_ms: Vec<f64>, label: &str) {
    let s = Summary::new(visible_ms);
    ctx.e2e.set("visible_p50_ms", s.median());
    set_tail(&mut ctx.layer, "engine.visible_p99_ms", &s, 99.0);
    println!(
        "  visible ({label}): ms {}; {}",
        s.describe(50.0),
        s.describe(99.0)
    );
}

/// Reopens the snapshot at `path` `reps` times, closing each engine
/// before the next opens, and appends the open times in seconds to
/// `times`; returns the last engine with its report.
pub fn reopen_phase<'v>(
    path: &Path,
    venue: &'v IndoorSpace,
    reps: usize,
    times: &mut Vec<f64>,
    ctx: &mut Ctx<'_>,
) -> Result<(SemanticsEngine<'v>, RecoveryReport), String> {
    let mut last = None;
    for i in 0..reps {
        // The previous engine closes before the next opens, as in a restart.
        drop(last.take());
        let t0 = Instant::now();
        let opened = ctx.span("engine.open", Some(i as u64), || {
            EngineBuilder::new().threads(THREADS).open(path, venue)
        });
        times.push(t0.elapsed().as_secs_f64());
        last = Some(
            ctx.checks
                .op("open snapshot", opened)
                .ok_or("reopening the snapshot failed")?,
        );
    }
    let (engine, report) = last.ok_or("no reopen")?;
    ctx.layer
        .set("engine.snapshot_objects", report.snapshot_objects as f64);
    if ctx.traced() {
        let mut reads = Vec::new();
        for i in 0..reps {
            let t0 = Instant::now();
            let bytes = ctx.span("codec.read_artifact", Some(i as u64), || {
                ism_codec::read_artifact(path, ism_codec::ArtifactKind::EngineSnapshot)
            });
            reads.push(t0.elapsed().as_secs_f64());
            ctx.checks.op("read snapshot artifact", bytes);
        }
        ctx.layer.set("codec.read_artifact_s", median(&reads));
    }
    Ok((engine, report))
}

/// Sets `recover_s` to the median open time.
pub fn record_recover(ctx: &mut Ctx<'_>, times: Vec<f64>) {
    let s = Summary::new(times);
    ctx.e2e.set("recover_s", s.median());
    println!("  reopen: s {}", s.describe(50.0));
}

/// Saves a snapshot, timing it and recording its size.
pub fn save_snapshot(
    engine: &SemanticsEngine<'_>,
    path: &Path,
    ctx: &mut Ctx<'_>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let saved = ctx.span("engine.save_snapshot", None, || engine.save_snapshot(path));
    ctx.layer
        .set("codec.snapshot_save_s", t0.elapsed().as_secs_f64());
    ctx.checks
        .op("save snapshot", saved)
        .ok_or("saving the snapshot failed")?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    ctx.layer.set("codec.snapshot_bytes", bytes as f64);
    Ok(())
}

/// Store size metrics of the engine's sealed store.
pub fn record_store(ctx: &mut Ctx<'_>, engine: &SemanticsEngine<'_>) {
    let store = engine.store();
    let (postings, bytes) = (store.num_postings(), store.index_bytes());
    ctx.layer.set("queries.postings", postings as f64);
    ctx.layer.set("queries.index_bytes", bytes as f64);
    ctx.layer.set(
        "queries.bytes_per_posting",
        ratio(bytes as u64, postings as u64),
    );
}

/// Compares sampled answers with a reference: `sample` picks indices.
pub fn check_answers(
    ctx: &mut Ctx<'_>,
    what: &str,
    got: &[QueryAnswer],
    want: impl Fn(usize) -> QueryAnswer,
    sample: &[usize],
) {
    for &i in sample {
        let expected = want(i);
        ctx.checks.expect(got.get(i) == Some(&expected), || {
            format!("{what} {i}: engine answer differs from the reference")
        });
    }
}

/// `count` distinct indices below `n`, sorted, from `seed`.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    let count = count.min(n);
    for i in 0..count {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx.sort_unstable();
    idx
}

/// One-thread pass over `seqs`, timing context building, decoding and
/// merging separately (traced runs only; after the timed phases).
pub fn serial_decode_pass(ctx: &mut Ctx<'_>, model: &C2mn<'_>, seqs: &[Vec<PositioningRecord>]) {
    if !ctx.traced() || seqs.is_empty() {
        return;
    }
    let region_freq = model.snapshot().region_freq;
    let mut scratch = DecodeScratch::new();
    let (mut context_s, mut decode_s, mut merge_s, mut records) = (0.0, 0.0, 0.0, 0usize);
    for (i, recs) in seqs.iter().enumerate() {
        let request = Some(i as u64);
        let t0 = Instant::now();
        let ctx_len = ctx.span("c2mn.context_build", request, || {
            SequenceContext::build(model.space(), model.config(), recs, &region_freq).len()
        });
        context_s += t0.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(sequence_seed(ctx.seed, i));
        let t0 = Instant::now();
        let labels = ctx.span("c2mn.label_with", request, || {
            model.label_with(recs, &mut rng, &mut scratch)
        });
        decode_s += t0.elapsed().as_secs_f64();
        let times: Vec<f64> = recs.iter().map(|r| r.t).collect();
        let t0 = Instant::now();
        let merged = ctx.span("mobility.merge_labels", request, || {
            merge_labels(&times, &labels)
        });
        merge_s += t0.elapsed().as_secs_f64();
        records += recs.len();
        std::hint::black_box((ctx_len, merged));
    }
    let n = seqs.len() as f64;
    ctx.layer
        .set("c2mn.context_ms_per_seq", context_s * 1e3 / n);
    ctx.layer.set("c2mn.decode_ms_per_seq", decode_s * 1e3 / n);
    ctx.layer.set("c2mn.context_share", context_s / decode_s);
    ctx.layer.set(
        "c2mn.serial_records_per_s",
        records as f64 / (decode_s + merge_s),
    );
    ctx.layer
        .set("mobility.merge_us_per_seq", merge_s * 1e6 / n);
}

/// `count` p-sequences of exactly `len` records, one per simulated
/// object (the first `len` records of its first sequence that long),
/// ordered by last record time. Many short pieces of many objects keep
/// the work per run close to the same across seeds. Objects are
/// simulated in small batches so only the kept records stay resident;
/// returns fewer when twice `count` objects run out.
pub fn one_sequence_per_object(
    venue: &IndoorSpace,
    positioning: PositioningConfig,
    preprocess: Option<PreprocessConfig>,
    len: usize,
    count: usize,
    seed: u64,
) -> Vec<LabeledSequence> {
    const BATCH: usize = 64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs: Vec<LabeledSequence> = Vec::with_capacity(count);
    let mut batch = 0;
    while seqs.len() < count && batch * BATCH < 2 * count + BATCH {
        let d = Dataset::generate(
            "perfbench",
            venue,
            SimulationConfig::paper(),
            positioning,
            preprocess,
            BATCH,
            &mut rng,
        );
        let mut taken = BTreeSet::new();
        for mut s in d.sequences {
            if seqs.len() < count && s.records.len() >= len && taken.insert(s.object_id) {
                s.records.truncate(len);
                s.object_id += (batch * BATCH) as u64;
                seqs.push(s);
            }
        }
        batch += 1;
    }
    let last = |s: &LabeledSequence| s.records.last().map_or(0.0, |r| r.record.t);
    seqs.sort_by(|a, b| last(a).total_cmp(&last(b)));
    seqs
}

/// A TkPRQ and a TkFRPQ registered as standing queries.
pub struct Standing {
    ids: [StandingQueryId; 2],
    regions: [Vec<RegionId>; 2],
    qt: TimePeriod,
}

impl Standing {
    /// Registers both over `qt`, each on its own seeded region set.
    pub fn register(
        engine: &SemanticsEngine<'_>,
        regions: &[RegionId],
        qt: TimePeriod,
        seed: u64,
    ) -> Self {
        let sets = templates(regions, qt, 2, seed);
        let regions = [sets[0].regions.clone(), sets[1].regions.clone()];
        Standing {
            ids: [
                engine.standing_tk_prq(&regions[0], K, qt),
                engine.standing_tk_frpq(&regions[1], K, qt),
            ],
            regions,
            qt,
        }
    }

    /// Reads both current results, timing the read in `engine.standing_read`.
    pub fn read(
        &self,
        engine: &SemanticsEngine<'_>,
        ctx: &Ctx<'_>,
        request: u64,
    ) -> [Option<QueryAnswer>; 2] {
        ctx.span("engine.standing_read", Some(request), || {
            [
                engine
                    .standing_prq_result(self.ids[0])
                    .map(QueryAnswer::Prq),
                engine
                    .standing_frpq_result(self.ids[1])
                    .map(QueryAnswer::Frpq),
            ]
        })
    }

    /// Compares `read` with a re-run of both queries through `run_batch`,
    /// which bypasses the result cache.
    pub fn check(
        &self,
        engine: &SemanticsEngine<'_>,
        ctx: &mut Ctx<'_>,
        read: &[Option<QueryAnswer>; 2],
        seal: u64,
    ) {
        let mut batch = QueryBatch::new();
        batch.tk_prq(&self.regions[0], K, self.qt);
        batch.tk_frpq(&self.regions[1], K, self.qt);
        let rerun = engine.run_batch(&batch);
        for (kind, (got, want)) in ["TkPRQ", "TkFRPQ"].iter().zip(read.iter().zip(&rerun)) {
            ctx.checks.expect(got.as_ref() == Some(want), || {
                format!("seal {seal}: standing {kind} differs from a re-run")
            });
        }
    }
}

/// Per-layer ingest and seal metrics of a live phase: push time, commit
/// latency, per-seal time, seal-log growth per seal and standing reads.
pub fn record_live(
    ctx: &mut Ctx<'_>,
    push_ms: &[f64],
    commit_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    log_growth: u64,
    standing_us: &[f64],
) {
    let push = Summary::new(push_ms.to_vec());
    let commit = Summary::new(commit_ms);
    let seal = Summary::new(seal_ms);
    let standing = Summary::new(standing_us.to_vec());
    println!("  push ms {}", push.describe(99.0));
    println!(
        "  commit ms {}; {}",
        commit.describe(50.0),
        commit.describe(99.0)
    );
    println!("  seal ms {}; {}", seal.describe(50.0), seal.describe(99.0));
    println!("  standing read us {}", standing.describe(50.0));
    let l = &mut ctx.layer;
    set_tail(l, "engine.push_ms_p99", &push, 99.0);
    l.set("engine.commit_p50_ms", commit.median());
    set_tail(l, "engine.commit_p99_ms", &commit, 99.0);
    l.set("engine.seal_s", seal.sum() / 1e3);
    l.set("engine.seal_ms_p50", seal.median());
    set_tail(l, "engine.seal_ms_p99", &seal, 99.0);
    l.set("engine.seals", seal.len() as f64);
    l.set(
        "codec.log_bytes_per_seal",
        log_growth as f64 / seal.len().max(1) as f64,
    );
    l.set("engine.standing_read_us_p50", standing.median());
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// When set-up repetition `rep` starts: the first at process start.
pub fn setup_start(ctx: &Ctx<'_>, rep: usize) -> Instant {
    if rep == 0 {
        ctx.started
    } else {
        Instant::now()
    }
}
