//! Pipelined ingest core shared by every session of one engine.
//!
//! The engine used to decode strictly in drained batches: pushes buffered
//! in a per-session queue and nothing ran until the queue filled. This
//! module holds the state that makes ingest *pipelined* and *concurrent*
//! instead:
//!
//! * one engine-wide buffer ([`IngestState::pending`]) stamps every
//!   pushed sequence with a global index in push order, no matter which
//!   session pushed it;
//! * sequences are handed to **idle workers immediately**
//!   ([`WorkerPool::try_spawn`]) so decoding overlaps with arrival, while
//!   a filled queue still falls back to a synchronous batch fan-out — the
//!   memory bound is unchanged;
//! * decode results land in a **reorder buffer** ([`IngestState::ready`])
//!   and only the contiguous prefix is appended to the store, in global
//!   index order — so the sealed store stays byte-identical to offline
//!   annotation regardless of which worker finished first.
//!
//! Lock order: `state` before `store` ([`IngestShared::commit_ready`]
//! nests the store write lock inside the state lock); nothing ever takes
//! `state` while holding `store`. The engine's `log`, `cache` and
//! `standing` mutexes come after `store`: a seal updates them under its
//! store write guard, and standing registration and cache fills under the
//! read guard they evaluated with. `save_snapshot` holds `state` and the
//! store write guard from its seal through the seal-log swap.
//!
//! [`WorkerPool::try_spawn`]: ism_runtime::WorkerPool::try_spawn

use ism_mobility::{MobilitySemantics, PositioningRecord};
use ism_queries::ShardedSemanticsStore;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};

/// One submitted-but-undecoded sequence: `(object_id, p-records)`.
pub(crate) type PendingItem = (u64, Vec<PositioningRecord>);

/// The ingest state every session of one engine shares.
pub(crate) struct IngestShared {
    /// Submission/decode ledger (see the module docs for lock order).
    pub(crate) state: Mutex<IngestState>,
    /// Signalled on every commit and every in-flight decrement.
    pub(crate) progress: Condvar,
    /// The live store: queries take `read`, commits and seals take
    /// `write`.
    pub(crate) store: RwLock<ShardedSemanticsStore>,
}

/// The mutable ledger under [`IngestShared::state`].
pub(crate) struct IngestState {
    /// Submitted-but-undispatched sequences with their global indices,
    /// stamped in push order across all concurrent sessions. Holds at
    /// most the engine's queue capacity.
    pub(crate) pending: VecDeque<(u64, PendingItem)>,
    /// Global index the next pushed sequence gets.
    pub(crate) next_index: u64,
    /// Decode tasks handed to workers (or running inline) but not yet
    /// committed.
    pub(crate) inflight: usize,
    /// Out-of-order decode results waiting for their predecessors:
    /// `global index → (object_id, m-semantics)`.
    pub(crate) ready: BTreeMap<u64, (u64, Vec<MobilitySemantics>)>,
    /// Global index of the next sequence to append to the store.
    pub(crate) next_commit: u64,
    /// A pipelined decode task panicked; surfaced by the next flush.
    pub(crate) panicked: bool,
    /// Records dropped at submission for a non-finite coordinate or
    /// timestamp.
    pub(crate) records_dropped: u64,
}

impl IngestShared {
    pub(crate) fn new(store: ShardedSemanticsStore, first_index: u64) -> Self {
        IngestShared {
            state: Mutex::new(IngestState {
                pending: VecDeque::new(),
                next_index: first_index,
                inflight: 0,
                ready: BTreeMap::new(),
                next_commit: first_index,
                panicked: false,
                records_dropped: 0,
            }),
            progress: Condvar::new(),
            store: RwLock::new(store),
        }
    }

    /// Appends the contiguous prefix of `ready` to the store in global
    /// index order — the reorder barrier that keeps the sealed store
    /// byte-identical to offline annotation no matter which worker
    /// finished first. The store write lock is only taken when there is
    /// something to commit.
    pub(crate) fn commit_ready(&self, state: &mut IngestState) {
        let mut store = None;
        while let Some((object_id, semantics)) = state.ready.remove(&state.next_commit) {
            store
                .get_or_insert_with(|| self.store.write())
                .append(object_id, semantics);
            state.next_commit += 1;
        }
    }
}
