//! Engine durability: snapshot artifacts, the per-seal append-log, and
//! warm restart.
//!
//! Two artifacts make an engine durable (both in the `ism-codec` format,
//! see that crate's docs for the byte-level contract):
//!
//! * **Snapshot** — [`SemanticsEngine::save_snapshot`] atomically writes
//!   one [`ArtifactKind::EngineSnapshot`] file holding the base seed, the
//!   next global sequence index, the trained model
//!   ([`ism_c2mn::ModelSnapshot`]), and the entire sealed store.
//! * **Seal log** — a sibling `{path}.log` file
//!   ([`ArtifactKind::SealLog`]) that `save_snapshot` resets and every
//!   subsequent seal appends one frame to: the pending entries being
//!   published plus the commit index they extend to. Crashing between
//!   snapshots loses nothing that was sealed.
//!
//! [`EngineBuilder::open`] is the warm restart: it loads the snapshot,
//! **replays** the log's intact frames into the store (no re-annotation —
//! the decode kernels never run), and resumes the global sequence
//! numbering where the file says it stopped. Two rules keep the replay
//! exact:
//!
//! * **Torn tail** — a frame whose length runs past the end of the file or
//!   whose checksum fails is where the process died mid-append; it and
//!   everything after it are truncated away.
//! * **Stale frames** — a frame whose recorded commit index is at most the
//!   snapshot's next sequence index was sealed before the snapshot was
//!   taken, so the snapshot already holds its entries; it is skipped. Such
//!   frames are left behind when the process dies after `save_snapshot`
//!   renamed the new snapshot into place but before it reset the log, or
//!   when that reset fails.
//!
//! The reopened engine is byte-identical to one that never restarted —
//! same store, same query answers, same seeds for every future sequence —
//! pinned by `tests/persistence.rs`.
//!
//! Crash model: artifacts are replaced by atomic rename and every frame
//! is checksummed, but nothing calls `fsync`, so these guarantees hold
//! when the process crashes, not when the machine loses power.
//!
//! A failing log write never poisons ingest: the log detaches and the
//! error surfaces through [`SemanticsEngine::log_error`], while sealing
//! continues in memory.

use crate::{EngineBuilder, EngineError, SemanticsEngine};
use ism_c2mn::{C2mn, ModelSnapshot};
use ism_codec::{
    append_frame, read_artifact, read_header, write_artifact, write_header, write_u64,
    write_varint, ArtifactKind, CodecError, Decode, Encode, FrameIter, PersistError, Reader,
    FRAME_OVERHEAD, HEADER_LEN,
};
use ism_indoor::IndoorSpace;
use ism_mobility::{decode_semantics_run, encode_semantics_run, MobilitySemantics};
use ism_queries::ShardedSemanticsStore;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The seal-log path of a snapshot at `path`: the same file name with
/// `.log` appended (`engine.ism` → `engine.ism.log`).
pub fn log_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".log");
    PathBuf::from(os)
}

/// What [`EngineBuilder::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Objects restored from the snapshot artifact itself.
    pub snapshot_objects: usize,
    /// Intact seal frames replayed from the append-log.
    pub replayed_frames: usize,
    /// `(object, m-semantics)` entries those frames carried.
    pub replayed_entries: usize,
    /// Intact seal frames skipped because the snapshot already holds
    /// their entries (sealed before the snapshot was taken; see the
    /// stale-frame rule in the module docs).
    pub skipped_frames: usize,
    /// A torn tail frame (a crash mid-append) was detected and truncated.
    pub truncated_tail: bool,
    /// The global index the reopened engine's next sequence will get —
    /// seeds continue rather than restart.
    pub next_sequence_index: u64,
}

/// The engine's attached seal log, plus the error that detached it.
#[derive(Debug, Default)]
pub(crate) struct LogState {
    pub(crate) log: Option<SealLog>,
    pub(crate) error: Option<PersistError>,
}

/// An open append-log: `{snapshot}.log`, header already written,
/// positioned at the end.
#[derive(Debug)]
pub(crate) struct SealLog {
    path: PathBuf,
    file: File,
}

impl SealLog {
    /// Creates (or truncates) the log at `path` with a fresh
    /// [`ArtifactKind::SealLog`] header, open for appending.
    fn create(path: &Path) -> Result<SealLog, PersistError> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        write_header(&mut header, ArtifactKind::SealLog);
        let mut file = File::create(path).map_err(|e| PersistError::io(path, "create", &e))?;
        file.write_all(&header)
            .map_err(|e| PersistError::io(path, "write", &e))?;
        Ok(SealLog {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Opens an existing log for appending after truncating it to `end`
    /// bytes — the offset just past the last intact frame, discarding a
    /// torn tail.
    fn open_truncating(path: &Path, end: u64) -> Result<SealLog, PersistError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io(path, "open", &e))?;
        file.set_len(end)
            .map_err(|e| PersistError::io(path, "truncate", &e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io(path, "seek", &e))?;
        Ok(SealLog {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one checksummed frame.
    fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let mut buf = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        append_frame(&mut buf, payload);
        self.file
            .write_all(&buf)
            .map_err(|e| PersistError::io(&self.path, "append", &e))
    }
}

/// One seal frame: the commit index the seal extends to, then per shard
/// the pending entries being published, in shard-internal append order —
/// exactly the order a replay must re-append them in for the merged store
/// to stay byte-identical.
fn encode_seal_payload(next_commit: u64, store: &ShardedSemanticsStore) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64(&mut out, next_commit);
    write_varint(&mut out, store.num_shards() as u64);
    for s in 0..store.num_shards() {
        let entries: Vec<(u64, &[MobilitySemantics])> = store.pending_of_shard(s).collect();
        write_varint(&mut out, entries.len() as u64);
        for (object_id, semantics) in entries {
            write_varint(&mut out, object_id);
            encode_semantics_run(&mut out, semantics);
        }
    }
    out
}

/// Flattened seal-frame entries in shard order: `(object_id, semantics)`.
type SealEntries = Vec<(u64, Vec<MobilitySemantics>)>;

/// Decodes one seal frame into `(next_commit, entries)`; the entries come
/// back flattened in shard order, ready to re-`append` (objects re-hash
/// into the same shards, in the same per-shard order).
fn decode_seal_payload(
    payload: &[u8],
    num_shards: usize,
) -> Result<(u64, SealEntries), CodecError> {
    let mut r = Reader::new(payload);
    let next_commit = r.u64()?;
    let shards = r.count_prefix(1)?;
    if shards != num_shards {
        return Err(CodecError::InvalidValue {
            what: "seal-log shard count disagrees with the snapshot",
        });
    }
    let mut entries = Vec::new();
    for _ in 0..shards {
        let count = r.count_prefix(2)?;
        entries.reserve(count);
        for _ in 0..count {
            let object_id = r.varint()?;
            let semantics = decode_semantics_run(&mut r)?;
            entries.push((object_id, semantics));
        }
    }
    r.finish()?;
    Ok((next_commit, entries))
}

impl SemanticsEngine<'_> {
    /// Atomically writes the engine's full durable state — base seed, next
    /// sequence index, trained model, and the sealed store — as one
    /// [`ArtifactKind::EngineSnapshot`] artifact at `path`, then starts a
    /// fresh seal log at `{path}.log` (everything the old log held is
    /// superseded by the snapshot).
    ///
    /// Buffered and in-flight sequences are flushed and sealed first, so
    /// the snapshot covers everything pushed engine-wide up to the call.
    /// From that seal until the new log is in place, pushes, commits,
    /// seals and queries on other threads wait, so every concurrent seal
    /// lands wholly in the snapshot or wholly in the new log.
    /// [`EngineBuilder::open`] restores it without re-annotating anything.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        self.flush_ingest();
        // Hold the state lock and the store write guard (the engine-wide
        // lock order) from the seal through the log swap. A seal in
        // between would be logged as pending although the snapshot holds
        // it, or land in the old log the swap discards, or append through
        // the old handle after `SealLog::create` truncated the file.
        // Pushes and commits stall for the save.
        let state = self.state();
        let next_commit = state.next_commit;
        let mut store = self.shared.store.write();
        self.seal_locked(next_commit, &mut store);
        let mut payload = Vec::new();
        write_u64(&mut payload, self.base_seed);
        write_u64(&mut payload, next_commit);
        self.model.snapshot().encode(&mut payload);
        store.encode(&mut payload);
        write_artifact(path, ArtifactKind::EngineSnapshot, &payload)?;
        let log = SealLog::create(&log_path(path))?;
        let mut slot = self.log.lock();
        slot.log = Some(log);
        slot.error = None;
        Ok(())
    }

    /// Whether a seal append-log is attached (it is after
    /// [`save_snapshot`](SemanticsEngine::save_snapshot) or
    /// [`EngineBuilder::open`], until a write failure detaches it).
    pub fn has_seal_log(&self) -> bool {
        self.log.lock().log.is_some()
    }

    /// The I/O error that detached the seal log, if one did. Sealing
    /// continues in memory after a log failure; callers that need
    /// durability check here (or just call
    /// [`save_snapshot`](SemanticsEngine::save_snapshot), which starts a
    /// fresh log).
    pub fn log_error(&self) -> Option<PersistError> {
        self.log.lock().error.clone()
    }

    /// Appends the store's pending entries as one seal frame, if a log is
    /// attached. Called by `seal_store` *before* the merge, under the
    /// store write lock. Failure detaches the log instead of panicking.
    pub(crate) fn log_seal(&self, next_commit: u64, store: &ShardedSemanticsStore) {
        let mut slot = self.log.lock();
        let Some(log) = slot.log.as_mut() else {
            return;
        };
        let payload = encode_seal_payload(next_commit, store);
        if let Err(e) = log.append(&payload) {
            slot.log = None;
            slot.error = Some(e);
        }
    }
}

impl EngineBuilder {
    /// Warm restart: reopens an engine from a snapshot written by
    /// [`SemanticsEngine::save_snapshot`], **replaying** the seal log
    /// instead of re-annotating.
    ///
    /// The snapshot's base seed, shard count, store, and next sequence
    /// index win over the builder's (the file *is* that configuration);
    /// the builder still controls threads and queue capacity. The engine's
    /// worker pool exists before decoding, and the store's shard indexes
    /// are rebuilt on it. Intact log frames are appended and sealed into
    /// the store, except stale ones the snapshot already holds; a torn
    /// tail frame — a crash mid-append — is detected by its checksum,
    /// reported in the [`RecoveryReport`], and truncated so the log is
    /// clean for the frames this process will append. A missing log (fresh
    /// snapshot, or a crash before the first seal) is simply started
    /// empty.
    ///
    /// Corrupt artifacts fail with a typed
    /// [`EngineError::Persist`] — never a panic, never an
    /// over-allocation.
    pub fn open<'a>(
        mut self,
        path: impl AsRef<Path>,
        space: &'a IndoorSpace,
    ) -> Result<(SemanticsEngine<'a>, RecoveryReport), EngineError> {
        let path = path.as_ref();
        let pool = self.pool();
        let (base_seed, snapshot_next, snapshot, mut store) = {
            let payload = read_artifact(path, ArtifactKind::EngineSnapshot)?;
            let mut r = Reader::new(&payload);
            let decoded: Result<_, CodecError> = (|| {
                let base_seed = r.u64()?;
                let next = r.u64()?;
                let snapshot = ModelSnapshot::decode(&mut r)?;
                let store = ShardedSemanticsStore::decode_with(&mut r, &pool)?;
                r.finish()?;
                Ok((base_seed, next, snapshot, store))
            })();
            decoded.map_err(|e| PersistError::codec(path, e))?
        };
        let mut next = snapshot_next;

        let mut report = RecoveryReport {
            snapshot_objects: store.len(),
            replayed_frames: 0,
            replayed_entries: 0,
            skipped_frames: 0,
            truncated_tail: false,
            next_sequence_index: next,
        };

        let lpath = log_path(path);
        let log = match std::fs::read(&lpath) {
            Ok(bytes) => {
                let start = read_header(&bytes, ArtifactKind::SealLog)
                    .map_err(|e| PersistError::codec(&lpath, e))?;
                let mut frames = FrameIter::new(&bytes, start);
                for frame in &mut frames {
                    match frame {
                        Ok(payload) => {
                            // A checksum-valid frame that fails to decode
                            // is real corruption, not a torn tail.
                            let (frame_next, entries) =
                                decode_seal_payload(payload, store.num_shards())
                                    .map_err(|e| PersistError::codec(&lpath, e))?;
                            if frame_next <= snapshot_next {
                                report.skipped_frames += 1;
                                continue;
                            }
                            report.replayed_frames += 1;
                            report.replayed_entries += entries.len();
                            for (object_id, semantics) in entries {
                                store.append(object_id, semantics);
                            }
                            next = frame_next;
                        }
                        Err(_) => {
                            report.truncated_tail = true;
                            break;
                        }
                    }
                }
                SealLog::open_truncating(&lpath, frames.good_end() as u64)?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => SealLog::create(&lpath)?,
            Err(e) => return Err(PersistError::io(&lpath, "read", &e).into()),
        };

        report.next_sequence_index = next;
        self.base_seed = base_seed;
        self.shards = None; // the store's count wins
        self.first_sequence_index = next;
        self.initial = Some(store); // replayed entries seal during build
        let model = C2mn::from_snapshot(space, snapshot);
        let engine = self.build_with_pool(model, pool)?;
        *engine.log.lock() = LogState {
            log: Some(log),
            error: None,
        };
        Ok((engine, report))
    }
}
