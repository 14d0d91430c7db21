//! The persistent worker pool.
//!
//! [`WorkerPool::new`] creates its OS threads **once**; they live until the
//! last pool handle drops and sleep on per-worker condvars between tasks.
//! Work reaches them through per-worker injection queues:
//!
//! * **Blocking fan-out** ([`WorkerPool::run`] / [`run_with`] /
//!   [`map_reduce`]) — the call's body (a claim loop over a shared atomic
//!   item counter) is boxed, its caller-frame lifetime erased, and a handle
//!   pushed to up to `threads - 1` workers; the calling thread participates
//!   as the remaining worker and blocks on a completion latch until every
//!   participant has left the loop. Borrowed captures stay sound because a
//!   participant can only touch them while it holds a participation token,
//!   and the caller does not return while any token is held.
//! * **Fire-and-forget** ([`WorkerPool::try_spawn`]) — a `'static` task is
//!   handed to an idle worker if one exists (the pipelined-ingest path);
//!   the caller is never blocked and never participates.
//!
//! [`run_with`]: WorkerPool::run_with
//! [`map_reduce`]: WorkerPool::map_reduce

use crate::stats::{PoolStats, StatsCells};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};

/// A fire-and-forget task for [`WorkerPool::try_spawn`].
pub type AsyncTask = Box<dyn FnOnce() + Send + 'static>;

/// One unit of work in a worker's injection queue.
enum Task {
    /// Participate in a blocking fan-out call (claim items until none are
    /// left).
    Call(Arc<ErasedCall>),
    /// Run one fire-and-forget task.
    Async(AsyncTask),
    /// Exit the worker loop (sent once per worker when the pool drops).
    Shutdown,
}

/// A fan-out call body with its caller-frame lifetime erased to `'static`.
///
/// The `Arc` keeps the closure object itself alive for arbitrarily late
/// invocations; whether its *captured references* may be dereferenced is
/// governed by the participation-token protocol (see the safety comment in
/// [`WorkerPool::fan_out`]).
struct ErasedCall {
    body: Box<dyn Fn() + Send + Sync + 'static>,
}

/// Per-call shared state: the claim counter and the completion latch.
struct CallState {
    num_items: usize,
    /// Next unclaimed item index. Claims `>= num_items` are no-ops; a
    /// panicking participant forces it to `num_items` so others stop.
    next: AtomicUsize,
    /// Participation tokens currently held. A participant `enter`s before
    /// its first claim and `exit`s after its last caller-frame access, so
    /// the caller may only return once this reaches zero.
    inflight: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl CallState {
    fn new(num_items: usize) -> Self {
        CallState {
            num_items,
            next: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn enter(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    fn exit(&self) {
        // Release pairs with the Acquire load in `wait_quiescent`: every
        // accumulator write of this participant happens-before the
        // caller observing inflight == 0. Notify under the latch mutex so
        // a caller between its predicate check and `wait` cannot miss it.
        if self.inflight.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = self.done.lock();
            self.done_cv.notify_all();
        }
    }

    fn wait_quiescent(&self) {
        let mut guard = self.done.lock();
        while self.inflight.load(Ordering::Acquire) != 0 {
            self.done_cv.wait(&mut guard);
        }
    }

    /// Records the first panic payload and stops further claims.
    fn abort(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        slot.get_or_insert(payload);
        self.next.fetch_max(self.num_items, Ordering::Relaxed);
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().take()
    }
}

/// State shared between one worker thread and the pool handle.
struct WorkerShared {
    queue: Mutex<VecDeque<Task>>,
    signal: Condvar,
    /// True while the worker is parked (or about to park) on an empty
    /// queue. `try_spawn` claims it with a compare-exchange so bursts of
    /// fire-and-forget tasks spread over distinct idle workers.
    idle: AtomicBool,
}

struct WorkerHandle {
    shared: Arc<WorkerShared>,
    join: Option<thread::JoinHandle<()>>,
}

impl WorkerHandle {
    fn push(&self, task: Task) {
        let mut queue = self.shared.queue.lock();
        queue.push_back(task);
        drop(queue);
        self.shared.signal.notify_one();
    }
}

fn worker_loop(shared: Arc<WorkerShared>, stats: Arc<StatsCells>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(task) = queue.pop_front() {
                    shared.idle.store(false, Ordering::Release);
                    break task;
                }
                shared.idle.store(true, Ordering::Release);
                shared.signal.wait(&mut queue);
                stats.idle_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        };
        match task {
            // The body catches its own job panics; a post-call invocation
            // degenerates to one failed claim against Arc-owned state.
            Task::Call(call) => (call.body)(),
            Task::Async(task) => {
                stats.async_tasks.fetch_add(1, Ordering::Relaxed);
                // A panicking task must not kill the persistent worker.
                let _ = catch_unwind(AssertUnwindSafe(task));
            }
            Task::Shutdown => break,
        }
    }
}

/// The pool's threads and counters; dropping the last handle shuts the
/// workers down.
struct PoolCore {
    workers: Vec<WorkerHandle>,
    stats: Arc<StatsCells>,
}

impl PoolCore {
    /// Hands a fan-out call to `helpers` workers, idle ones first.
    // analyzer: allow(lib-panic) `order` enumerates `0..workers.len()`, so every `w` is in bounds
    fn dispatch_call(&self, call: &Arc<ErasedCall>, helpers: usize) {
        let mut order: Vec<usize> = (0..self.workers.len()).collect();
        // Stable sort: idle workers first, original order within groups.
        order.sort_by_key(|&w| !self.workers[w].shared.idle.load(Ordering::Acquire));
        for &w in order.iter().take(helpers) {
            self.workers[w].push(Task::Call(Arc::clone(call)));
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.push(Task::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// A fixed-size pool of **persistent** worker threads.
///
/// `new(threads)` creates `threads - 1` OS threads once (the thread
/// calling a blocking method is always the remaining participant, so
/// `new(1)` creates none); they sleep on condvars between tasks and live
/// until the last handle drops. Cloning (and [`capped`](WorkerPool::capped)
/// views) share the same workers — a clone is a cheap `Arc` handle, not a
/// second set of threads.
///
/// The blocking methods keep the scoped-pool contract they always had:
/// item-order results, dynamic claiming off a shared atomic counter, and
/// jobs that may borrow from the caller's stack — the borrow is protected
/// by a per-call completion latch rather than thread join.
pub struct WorkerPool {
    /// This handle's participant limit (`capped` lowers it; the shared
    /// core may have more workers than this handle will use).
    threads: usize,
    core: Arc<PoolCore>,
}

impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        WorkerPool {
            threads: self.threads,
            core: Arc::clone(&self.core),
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("persistent_workers", &self.core.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool running jobs on `threads` workers (clamped to ≥ 1):
    /// `threads - 1` persistent OS threads plus the calling thread of each
    /// blocking call. The threads are created here, once, and never again.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let stats = Arc::new(StatsCells::default());
        let workers = (0..threads - 1)
            .map(|w| {
                let shared = Arc::new(WorkerShared {
                    queue: Mutex::new(VecDeque::new()),
                    signal: Condvar::new(),
                    idle: AtomicBool::new(true),
                });
                let thread_shared = Arc::clone(&shared);
                let thread_stats = Arc::clone(&stats);
                let join = thread::Builder::new()
                    .name(format!("ism-worker-{w}"))
                    .spawn(move || worker_loop(thread_shared, thread_stats))
                    // analyzer: allow(lib-panic) thread-spawn failure at pool construction is unrecoverable by design
                    .expect("spawn persistent worker");
                WorkerHandle {
                    shared,
                    join: Some(join),
                }
            })
            .collect();
        WorkerPool {
            threads,
            core: Arc::new(PoolCore { workers, stats }),
        }
    }

    /// Creates a pool sized to the machine's available parallelism
    /// (falling back to 1 when it cannot be queried).
    pub fn with_available_parallelism() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        WorkerPool::new(threads)
    }

    /// The configured worker count (participants per blocking call).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A view of this pool limited to at most `max_workers` participants
    /// (clamped to ≥ 1), **sharing the same persistent workers** — no
    /// threads are created or destroyed.
    ///
    /// The dispatch heuristic behind batched query fan-out: callers that
    /// can estimate how much work a call carries cap the participant count
    /// so that small calls run inline (`capped(1)` never touches the
    /// workers) instead of paying a dispatch that costs more than the work
    /// it distributes. Capping never changes results — only which
    /// participants run the items.
    pub fn capped(&self, max_workers: usize) -> WorkerPool {
        WorkerPool {
            threads: self.threads.min(max_workers.max(1)),
            core: Arc::clone(&self.core),
        }
    }

    /// A snapshot of the pool's lifetime counters (shared by all clones
    /// and capped views of this pool).
    pub fn stats(&self) -> PoolStats {
        self.core.stats.snapshot(self.core.workers.len())
    }

    /// Persistent workers this handle may use that are currently parked.
    // analyzer: allow(lib-panic) `helper_limit()` is clamped to `workers.len()` at construction
    pub fn idle_workers(&self) -> usize {
        self.core.workers[..self.helper_limit()]
            .iter()
            .filter(|w| w.shared.idle.load(Ordering::Acquire))
            .count()
    }

    /// Hands a fire-and-forget task to an idle persistent worker, if this
    /// handle has one; otherwise returns the task so the caller can run it
    /// itself (or buffer it). Never blocks, never runs the task inline.
    ///
    /// This is the pipelined-ingest path: decode work overlaps arrival on
    /// workers that would otherwise sleep, and when none is free the
    /// caller keeps its bounded-buffer backpressure behaviour.
    // analyzer: allow(lib-panic) `helper_limit()` is clamped to `workers.len()` at construction
    pub fn try_spawn(&self, task: AsyncTask) -> Result<(), AsyncTask> {
        for worker in &self.core.workers[..self.helper_limit()] {
            // Claim the idle flag so a burst of tasks spreads over
            // distinct workers instead of stacking on the first.
            if worker
                .shared
                .idle
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                worker.push(Task::Async(task));
                return Ok(());
            }
        }
        Err(task)
    }

    /// Runs `job(index)` for every `index in 0..num_items`, returning the
    /// outputs in item order.
    pub fn run<T, F>(&self, num_items: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with(num_items, || (), |(), i| job(i))
    }

    /// Runs `job(&mut state, index)` for every `index in 0..num_items`,
    /// returning the outputs in item order.
    ///
    /// Each participant builds one `state` via `init` when it claims its
    /// first item and reuses it across every item it processes — the hook
    /// for per-worker scratch buffers. Items are claimed dynamically
    /// (atomic counter), so uneven per-item costs balance across
    /// participants; output order is still the item order. This is
    /// [`map_reduce`](WorkerPool::map_reduce) over per-participant
    /// `(state, [(index, output)])` accumulators, sorted by index on
    /// return.
    pub fn run_with<S, T, I, F>(&self, num_items: usize, init: I, job: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let (_, mut tagged) = self.map_reduce(
            num_items,
            || (init(), Vec::new()),
            |(state, out): &mut (S, Vec<(usize, T)>), i| out.push((i, job(state, i))),
            |(_, total), (_, part)| total.extend(part),
        );
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, out)| out).collect()
    }

    /// Folds `0..num_items` into per-participant accumulators and reduces
    /// them into one.
    ///
    /// Each participant builds an accumulator via `init`, folds every item
    /// it claims into it with `fold(&mut acc, index)`, and the caller
    /// thread combines the per-participant accumulators with
    /// `reduce(&mut total, acc)` — starting from a fresh `init()` value,
    /// in participant **completion order**, which varies run to run.
    ///
    /// Items are claimed dynamically, so *which* items land in which
    /// accumulator varies run to run too. The overall result is
    /// deterministic when the accumulation is order-insensitive — a
    /// commutative monoid such as per-key count sums — or when the caller
    /// tags folded entries with their item index and restores order inside
    /// `reduce` (or after it). The map-reduce query engine does the
    /// former; [`run_with`](WorkerPool::run_with) does the latter.
    pub fn map_reduce<A, I, F, R>(&self, num_items: usize, init: I, fold: F, reduce: R) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
        R: Fn(&mut A, A),
    {
        let helpers = self.helpers_for(num_items);
        if helpers == 0 {
            self.core.stats.inline_calls.fetch_add(1, Ordering::Relaxed);
            let mut acc = init();
            for i in 0..num_items {
                fold(&mut acc, i);
            }
            return acc;
        }
        self.core.stats.fanout_calls.fetch_add(1, Ordering::Relaxed);

        let accs: Mutex<Vec<A>> = Mutex::new(Vec::with_capacity(helpers + 1));
        let call = Arc::new(CallState::new(num_items));
        let body = {
            let call = Arc::clone(&call);
            let stats = Arc::clone(&self.core.stats);
            let accs = &accs;
            let init = &init;
            let fold = &fold;
            move || {
                call.enter();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut acc: Option<A> = None;
                    loop {
                        let i = call.next.fetch_add(1, Ordering::Relaxed);
                        if i >= call.num_items {
                            break;
                        }
                        stats.items_claimed.fetch_add(1, Ordering::Relaxed);
                        let acc = acc.get_or_insert_with(init);
                        fold(acc, i);
                    }
                    // Publish before releasing the participation token —
                    // the token is what keeps `accs` (caller frame) alive.
                    if let Some(acc) = acc {
                        accs.lock().push(acc);
                    }
                }));
                if let Err(payload) = outcome {
                    call.abort(payload);
                }
                call.exit();
            }
        };
        self.fan_out(body, helpers, &call);

        let mut total = init();
        for acc in accs.into_inner() {
            reduce(&mut total, acc);
        }
        total
    }

    /// Persistent workers this handle may hand tasks to.
    fn helper_limit(&self) -> usize {
        self.threads.saturating_sub(1).min(self.core.workers.len())
    }

    /// How many persistent workers to enlist for a blocking call over
    /// `num_items` items; 0 means run inline on the caller.
    fn helpers_for(&self, num_items: usize) -> usize {
        self.threads
            .min(num_items)
            .min(self.core.workers.len() + 1)
            .saturating_sub(1)
    }

    /// Erases `body`'s caller-frame lifetime, hands it to `helpers`
    /// workers, participates on the calling thread, and blocks until the
    /// call is quiescent (resuming any participant panic).
    fn fan_out<'env>(
        &self,
        body: impl Fn() + Send + Sync + 'env,
        helpers: usize,
        call: &CallState,
    ) {
        let body: Box<dyn Fn() + Send + Sync + 'env> = Box::new(body);
        // SAFETY: the closure may capture references into the caller's
        // frame; erasing its lifetime is sound because:
        // (1) this function does not return until `wait_quiescent`
        //     observes zero participation tokens, and a participant can
        //     only dereference captured references while it holds a token
        //     (`enter` precedes the first claim; in-range claims and every
        //     frame access happen before `exit`), so the frame strictly
        //     outlives every dereference;
        // (2) a worker invoking the body *after* this call returned only
        //     touches `Arc`-owned call state: `next >= num_items` holds
        //     forever, so its first claim fails and no captured reference
        //     is ever dereferenced on that path;
        // (3) the boxed closure itself lives inside the `Arc`'d
        //     `ErasedCall`, so the closure object (the bytes holding those
        //     references) stays valid for any late invocation.
        let body: Box<dyn Fn() + Send + Sync + 'static> = unsafe { mem::transmute(body) };
        let erased = Arc::new(ErasedCall { body });
        self.core.dispatch_call(&erased, helpers);
        // The calling thread is always a participant, so a call completes
        // even if every worker is busy elsewhere (or enlisted late).
        (erased.body)();
        call.wait_quiescent();
        if let Some(payload) = call.take_panic() {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::WorkerPool;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn capped_clamps_but_never_below_one() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.capped(2).threads(), 2);
        assert_eq!(pool.capped(8).threads(), 4);
        assert_eq!(pool.capped(0).threads(), 1);
        // Capping never changes results.
        let full = pool.run(17, |i| i * 31);
        assert_eq!(pool.capped(1).run(17, |i| i * 31), full);
    }

    #[test]
    fn results_are_in_item_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkerPool::new(4);
        pool.run(counts.len(), |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn more_threads_than_items() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.run(3, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Single worker: the state counts how many jobs it has seen; every
        // job observes the same accumulating state instance.
        let pool = WorkerPool::new(1);
        let out = pool.run_with(
            5,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn output_is_thread_count_invariant() {
        // Jobs that depend only on their index produce identical output
        // regardless of worker count.
        let reference = WorkerPool::new(1).run(100, |i| (i as u64).wrapping_mul(0x9E37));
        for threads in [2, 3, 4, 8] {
            let out = WorkerPool::new(threads).run(100, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_sums_every_item_once() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let total = pool.map_reduce(
                100,
                || 0u64,
                |acc, i| *acc += i as u64 + 1,
                |total, acc| *total += acc,
            );
            assert_eq!(total, 5050, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_zero_items_returns_identity() {
        let pool = WorkerPool::new(4);
        let total = pool.map_reduce(0, || 41u64, |_, _| unreachable!(), |_, _| unreachable!());
        assert_eq!(total, 41);
    }

    #[test]
    fn map_reduce_order_insensitive_reduction_is_thread_invariant() {
        // Per-key count sums: the canonical commutative accumulation.
        let keys: Vec<usize> = (0..200).map(|i| i % 7).collect();
        let count = |threads: usize| {
            WorkerPool::new(threads).map_reduce(
                keys.len(),
                || vec![0usize; 7],
                |acc, i| acc[keys[i]] += 1,
                |total, acc| {
                    for (t, a) in total.iter_mut().zip(acc) {
                        *t += a;
                    }
                },
            )
        };
        let reference = count(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(count(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_index_tagging_restores_order() {
        // Order-sensitive result made deterministic by carrying indices.
        let pool = WorkerPool::new(4);
        let mut pairs = pool.map_reduce(
            50,
            Vec::new,
            |acc: &mut Vec<(usize, usize)>, i| acc.push((i, i * 3)),
            |total, acc| total.extend(acc),
        );
        pairs.sort_unstable();
        let values: Vec<usize> = pairs.into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..40).collect();
        let pool = WorkerPool::new(3);
        let doubled = pool.run(data.len(), |i| data[i] * 2);
        assert_eq!(doubled[7], 14);
    }

    #[test]
    fn workers_are_spawned_once_and_reused_across_calls() {
        // The acceptance pin for the persistent runtime: `threads - 1`
        // threads exist after construction and *no* steady-state call —
        // run, run_with, map_reduce, capped views, clones — creates more.
        let pool = WorkerPool::new(4);
        assert_eq!(pool.stats().threads_spawned, 3);
        for round in 0..5 {
            let out = pool.run(40, |i| i + round);
            assert_eq!(out[7], 7 + round);
            let _ = pool.run_with(
                17,
                || 0u64,
                |s, i| {
                    *s += 1;
                    i as u64 + *s
                },
            );
            let total = pool.map_reduce(30, || 0usize, |a, i| *a += i, |t, a| *t += a);
            assert_eq!(total, (0..30).sum::<usize>());
            let _ = pool.capped(2).run(8, |i| i);
            let _ = pool.clone().run(8, |i| i);
        }
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 3, "no per-call thread creation");
        assert!(stats.fanout_calls >= 15, "fan-outs ran on the workers");
        assert!(stats.items_claimed >= 5 * (40 + 17 + 30) as u64);
        assert!(stats.tasks_executed() >= stats.items_claimed);
    }

    #[test]
    fn inline_and_fanout_dispatch_modes_are_observable() {
        let pool = WorkerPool::new(2);
        let before = pool.stats();
        let _ = pool.run(1, |i| i); // single item → inline
        let _ = pool.capped(1).run(10, |i| i); // capped view → inline
        let _ = pool.run(10, |i| i); // fans out
        let after = pool.stats();
        assert_eq!(after.inline_calls, before.inline_calls + 2);
        assert_eq!(after.fanout_calls, before.fanout_calls + 1);

        // A single-thread pool never fans out and spawns nothing.
        let seq = WorkerPool::new(1);
        let _ = seq.run(10, |i| i);
        assert_eq!(seq.stats().threads_spawned, 0);
        assert_eq!(seq.stats().fanout_calls, 0);
        assert_eq!(seq.stats().inline_calls, 1);
    }

    #[test]
    fn panicking_job_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "the job panic propagates to the caller");
        // The workers survived and the pool still works.
        assert_eq!(
            pool.run(12, |i| i * 2),
            (0..12).map(|i| i * 2).collect::<Vec<_>>()
        );
        assert_eq!(pool.stats().threads_spawned, 2);

        // map_reduce propagates too.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_reduce(16, || 0usize, |_, i| assert!(i != 9, "boom"), |_, _| ())
        }));
        assert!(result.is_err());
        assert_eq!(pool.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_spawn_runs_on_an_idle_worker() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let task_ran = Arc::clone(&ran);
        // The single worker starts idle; hand it a task.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut task = Box::new(move || {
            task_ran.fetch_add(1, Ordering::SeqCst);
        }) as super::AsyncTask;
        loop {
            match pool.try_spawn(task) {
                Ok(()) => break,
                Err(back) => {
                    assert!(Instant::now() < deadline, "worker never went idle");
                    task = back;
                    std::thread::yield_now();
                }
            }
        }
        while ran.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "async task never ran");
            std::thread::yield_now();
        }
        assert!(pool.stats().async_tasks >= 1);
        assert_eq!(pool.stats().threads_spawned, 1);

        // A single-thread pool has no workers to hand tasks to.
        let seq = WorkerPool::new(1);
        assert_eq!(seq.idle_workers(), 0);
        assert!(seq.try_spawn(Box::new(|| ())).is_err());
    }

    #[test]
    fn blocking_calls_complete_while_workers_run_async_tasks() {
        // A fan-out call must finish even when every worker is tied up in
        // a long fire-and-forget task: the caller participates itself.
        let pool = WorkerPool::new(2);
        let release = Arc::new(AtomicUsize::new(0));
        let gate = Arc::clone(&release);
        let _ = pool.try_spawn(Box::new(move || {
            while gate.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }));
        let out = pool.run(10, |i| i + 1); // worker is busy; caller does all
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        release.store(1, Ordering::SeqCst);
    }
}
