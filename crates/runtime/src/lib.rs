//! Deterministic **persistent** worker runtime.
//!
//! Every parallel path of the reproduction — batch annotation, training,
//! streaming ingest, sharded query fan-out — runs on one [`WorkerPool`]:
//! a fixed set of long-lived OS threads created once at pool construction
//! and parked on per-worker condvars between tasks. Calls inject work into
//! per-worker queues; **no path spawns threads per call**.
//!
//! Two properties drive the design:
//!
//! * **Determinism** — a job's output may depend only on its item index
//!   (callers derive per-item RNGs from `(base_seed, index)`), and results
//!   are returned in item order. Which worker ran which item is therefore
//!   unobservable, so output is byte-identical for any thread count.
//! * **Scratch reuse** — each participant of a call owns one mutable state
//!   value built by an `init` closure and threaded through every job it
//!   runs ([`WorkerPool::run_with`]), so per-sweep buffers are allocated
//!   once per participant instead of once per sequence.
//!
//! [`WorkerPool::map_reduce`] holds the pool's only claim loop. Ordered
//! results come from it too: [`WorkerPool::run_with`] folds
//! `(index, output)` pairs into per-participant accumulators and sorts
//! them by index on return.
//!
//! Jobs may still borrow from the caller's stack even though the threads
//! outlive the call: each blocking call erases its body's lifetime, hands
//! it to the workers, and blocks on a completion latch until every
//! participant has finished — a bounded-lifetime job handoff in place of
//! the scoped-thread join the pool used before it became persistent.
//! Fire-and-forget work (pipelined ingest) goes through
//! [`WorkerPool::try_spawn`] instead, and [`PoolStats`] exposes the
//! lifetime counters (dispatch modes, claims, idle wakeups, threads
//! created) that make the steady state observable.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;
mod stats;

pub use pool::{AsyncTask, WorkerPool};
pub use stats::PoolStats;
