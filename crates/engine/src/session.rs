//! Streaming ingest sessions.

use crate::SemanticsEngine;
use ism_mobility::PositioningRecord;

/// A streaming annotation session: p-sequences go in one at a time,
/// annotated m-semantics come out the other end already sharded into the
/// engine's live store.
///
/// Sessions borrow the engine *shared*, so several can run at once — all
/// of them stamp into one engine-wide submission queue, which is what
/// makes the interleaving unobservable (see the determinism contract).
/// A pushed sequence is handed to an idle worker **immediately**
/// (decode-during-arrival); when no worker keeps up, the bounded queue
/// fills and the buffered chunk fans out synchronously, so at most
/// `queue_capacity` submitted-but-undecoded sequences are ever buffered.
/// Dropping or [`seal`](IngestSession::seal)ing the session flushes the
/// queue, waits for in-flight decodes, and seals the store, making
/// everything ingested engine-wide visible to queries.
///
/// ## Determinism contract
///
/// Sequence number `i` of the engine's lifetime (counted across sessions
/// in push order) is decoded with the seed `sequence_seed(base_seed, i)`
/// — a function of the global sequence index only — and decoded results
/// commit to the store in global index order through a reorder buffer.
/// Push chunking, queue capacity, thread count, and session interleaving
/// are therefore unobservable: the sealed store is byte-identical to
/// annotating the whole stream offline with
/// [`BatchAnnotator::annotate_into_store`], which the `streaming_oracle`
/// and `concurrent_sessions` property suites pin.
///
/// [`BatchAnnotator::annotate_into_store`]: ism_c2mn::BatchAnnotator::annotate_into_store
#[derive(Debug)]
pub struct IngestSession<'e, 'a> {
    engine: &'e SemanticsEngine<'a>,
    pushed: u64,
    sealed: bool,
}

impl<'e, 'a> IngestSession<'e, 'a> {
    pub(crate) fn new(engine: &'e SemanticsEngine<'a>) -> Self {
        IngestSession {
            engine,
            pushed: 0,
            sealed: false,
        }
    }

    /// Submits one object's p-sequence for annotation.
    ///
    /// If a worker is idle the sequence starts decoding immediately and
    /// the call returns; otherwise it buffers, and the push that fills
    /// the queue decodes the buffered chunk on the engine's pool before
    /// returning (the bound is the memory contract: at most
    /// `queue_capacity` undecoded sequences are ever held).
    ///
    /// Records whose x, y or t is not finite (NaN or infinite) are dropped
    /// first and counted by
    /// [`SemanticsEngine::records_dropped`](crate::SemanticsEngine::records_dropped).
    /// The sequence still takes its global index and seed and decodes
    /// from its remaining records, so one bad record changes neither its
    /// neighbours' results nor any later session's.
    pub fn push(&mut self, object_id: u64, records: Vec<PositioningRecord>) {
        self.engine.submit(object_id, records);
        self.pushed += 1;
    }

    /// Submits a batch of `(object_id, p-sequence)` pairs in order.
    pub fn push_batch<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (u64, Vec<PositioningRecord>)>,
    {
        for (object_id, records) in entries {
            self.push(object_id, records);
        }
    }

    /// Decodes everything currently buffered engine-wide and waits for
    /// every in-flight pipelined decode to commit, without sealing the
    /// store. Queries still don't see the results until a session ends.
    pub fn flush(&mut self) {
        self.engine.flush_ingest();
    }

    /// Sequences pushed into this session so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Ends the session: flushes the queue, seals the engine's store (the
    /// incremental per-shard merge), and returns how many sequences this
    /// session pushed. Sealing is an engine-wide barrier — sequences
    /// pushed by other live sessions so far are published too. Dropping
    /// the session without calling `seal` does the same — no pushed
    /// sequence is ever lost.
    pub fn seal(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        self.sealed = true;
        self.engine.flush_ingest();
        self.engine.seal_store();
        self.pushed
    }
}

impl Drop for IngestSession<'_, '_> {
    fn drop(&mut self) {
        // Skip the flush-and-seal during panic unwinding: decoding the
        // remaining queue would likely re-panic (same model, same pool)
        // and turn a clean panic into a double-panic abort.
        if !self.sealed && !std::thread::panicking() {
            self.finish();
        }
    }
}
