//! Engine durability pins: snapshot + warm restart byte-exactness at any
//! thread count, seal log replay (not re-annotation), torn-tail recovery,
//! stale-frame skipping, and typed errors on corrupt artifacts.

use ism_c2mn::{C2mn, C2mnConfig, Weights};
use ism_engine::{log_path, EngineBuilder, EngineError, SemanticsEngine};
use ism_indoor::{BuildingGenerator, IndoorSpace, RegionId};
use ism_mobility::{Dataset, PositioningConfig, PositioningRecord, SimulationConfig, TimePeriod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn setup() -> (IndoorSpace, Vec<(u64, Vec<PositioningRecord>)>) {
    let mut rng = StdRng::seed_from_u64(1);
    let space = BuildingGenerator::small_office()
        .generate(&mut rng)
        .unwrap();
    let dataset = Dataset::generate(
        "persist",
        &space,
        SimulationConfig::quick(),
        PositioningConfig::synthetic(8.0, 1.5),
        None,
        8,
        &mut rng,
    );
    let stream = dataset
        .sequences
        .iter()
        .map(|s| (s.object_id, s.positioning().collect()))
        .collect();
    (space, stream)
}

fn model(space: &IndoorSpace) -> C2mn<'_> {
    C2mn::from_weights(space, C2mnConfig::quick_test(), Weights::uniform(1.0))
}

fn engine(space: &IndoorSpace, threads: usize) -> SemanticsEngine<'_> {
    EngineBuilder::new()
        .threads(threads)
        .shards(4)
        .base_seed(42)
        .build(model(space))
        .unwrap()
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ism-engine-persistence-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shard_contents(
    engine: &SemanticsEngine<'_>,
) -> Vec<Vec<(u64, Vec<ism_mobility::MobilitySemantics>)>> {
    let store = engine.store();
    (0..store.num_shards())
        .map(|s| {
            store
                .iter_shard(s)
                .map(|(id, sem)| (id, sem.to_vec()))
                .collect()
        })
        .collect()
}

#[test]
fn snapshot_reopens_byte_identically() {
    let (space, stream) = setup();
    let path = test_dir("roundtrip").join("engine.ism");
    let first = engine(&space, 2);
    let mut s = first.ingest();
    s.push_batch(stream.iter().cloned());
    s.seal();
    first.save_snapshot(&path).unwrap();
    assert!(first.has_seal_log());

    let (reopened, report) = EngineBuilder::new().threads(2).open(&path, &space).unwrap();
    assert_eq!(report.snapshot_objects, first.num_objects());
    assert_eq!(report.replayed_frames, 0);
    assert_eq!(report.skipped_frames, 0);
    assert_eq!(report.replayed_entries, 0);
    assert!(!report.truncated_tail);
    assert_eq!(report.next_sequence_index, first.sequences_ingested());
    assert_eq!(reopened.base_seed(), first.base_seed());
    assert_eq!(reopened.num_shards(), first.num_shards());
    assert_eq!(reopened.sequences_ingested(), first.sequences_ingested());
    assert_eq!(shard_contents(&reopened), shard_contents(&first));
    // The reopened model is the same model, bit for bit.
    assert_eq!(
        reopened.model().weights().0.map(f64::to_bits),
        first.model().weights().0.map(f64::to_bits)
    );
    // Query answers agree byte for byte.
    let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
    let qt = TimePeriod::new(0.0, 1e9);
    assert_eq!(
        reopened.tk_prq(&regions, 5, qt),
        first.tk_prq(&regions, 5, qt)
    );
    assert_eq!(
        reopened.tk_frpq(&regions, 5, qt),
        first.tk_frpq(&regions, 5, qt)
    );
}

#[test]
fn open_rebuilds_the_same_store_at_any_thread_count() {
    // The shard indexes are rebuilt on the opening engine's pool; the
    // store must not depend on how many threads that pool has. Pending
    // entries replayed from the log seal on the same pool.
    let (space, stream) = setup();
    let split = stream.len() / 2;
    let path = test_dir("threads").join("engine.ism");
    let live = engine(&space, 2);
    let mut s = live.ingest();
    s.push_batch(stream[..split].iter().cloned());
    s.seal();
    live.save_snapshot(&path).unwrap();
    let mut s = live.ingest();
    s.push_batch(stream[split..].iter().cloned());
    s.seal();

    let regions: Vec<RegionId> = space.regions().iter().map(|r| r.id).collect();
    let qt = TimePeriod::new(0.0, 1e9);
    for threads in [1, 2, 4] {
        let (reopened, report) = EngineBuilder::new()
            .threads(threads)
            .open(&path, &space)
            .unwrap();
        assert_eq!(report.replayed_frames, 1, "threads = {threads}");
        assert_eq!(reopened.threads(), threads);
        assert_eq!(
            shard_contents(&reopened),
            shard_contents(&live),
            "threads = {threads}"
        );
        assert_eq!(
            reopened.tk_prq(&regions, 5, qt),
            live.tk_prq(&regions, 5, qt)
        );
        assert_eq!(
            reopened.tk_frpq(&regions, 5, qt),
            live.tk_frpq(&regions, 5, qt)
        );
    }
}

#[test]
fn seal_log_replays_instead_of_reannotating() {
    let (space, stream) = setup();
    let split = stream.len() / 2;
    let path = test_dir("replay").join("engine.ism");

    // Uninterrupted reference over the whole stream.
    let whole = engine(&space, 1);
    let mut s = whole.ingest();
    s.push_batch(stream.iter().cloned());
    s.seal();

    // "Crashing" engine: snapshot after the first half, then two more
    // sealed chunks that only ever reach the append-log.
    let crashing = engine(&space, 2);
    let mut s = crashing.ingest();
    s.push_batch(stream[..split].iter().cloned());
    s.seal();
    crashing.save_snapshot(&path).unwrap();
    let mid = stream.len() - (stream.len() - split) / 2;
    for chunk in [&stream[split..mid], &stream[mid..]] {
        let mut s = crashing.ingest();
        s.push_batch(chunk.iter().cloned());
        s.seal();
    }
    assert!(crashing.has_seal_log());
    assert!(crashing.log_error().is_none());
    drop(crashing); // crash: nothing after the snapshot was re-saved

    let (recovered, report) = EngineBuilder::new().threads(3).open(&path, &space).unwrap();
    assert!(report.snapshot_objects <= split);
    assert_eq!(report.replayed_frames, 2, "one log frame per seal");
    assert_eq!(report.replayed_entries, stream.len() - split);
    assert!(!report.truncated_tail);
    assert_eq!(report.next_sequence_index, stream.len() as u64);
    // Replay reconstructs the sealed store byte-identically to the
    // engine that never crashed — no sequence was decoded twice.
    assert_eq!(shard_contents(&recovered), shard_contents(&whole));
}

#[test]
fn reopened_engine_continues_the_stream_byte_exactly() {
    let (space, stream) = setup();
    let split = stream.len() / 2;
    let path = test_dir("continue").join("engine.ism");

    let whole = engine(&space, 2);
    let mut s = whole.ingest();
    s.push_batch(stream.iter().cloned());
    s.seal();

    let first = engine(&space, 1);
    let mut s = first.ingest();
    s.push_batch(stream[..split].iter().cloned());
    s.seal();
    first.save_snapshot(&path).unwrap();
    drop(first);

    // The resumed "process" may run with any thread count and chunking:
    // seeds continue from the persisted sequence index. Each run gets its
    // own copy of the artifacts — a resumed engine appends to its log.
    for threads in [1, 3] {
        let copy = path.with_file_name(format!("engine-{threads}.ism"));
        std::fs::copy(&path, &copy).unwrap();
        std::fs::copy(log_path(&path), log_path(&copy)).unwrap();
        let (resumed, _) = EngineBuilder::new()
            .threads(threads)
            .open(&copy, &space)
            .unwrap();
        assert_eq!(resumed.sequences_ingested(), split as u64);
        for chunk in stream[split..].chunks(3) {
            let mut s = resumed.ingest();
            s.push_batch(chunk.iter().cloned());
            s.seal();
        }
        assert_eq!(
            shard_contents(&resumed),
            shard_contents(&whole),
            "threads = {threads}"
        );
    }
}

#[test]
fn torn_log_tail_is_truncated_and_recovered() {
    let (space, stream) = setup();
    let split = stream.len() - 2;
    let path = test_dir("torn").join("engine.ism");

    let crashing = engine(&space, 2);
    let mut s = crashing.ingest();
    s.push_batch(stream[..split].iter().cloned());
    s.seal();
    crashing.save_snapshot(&path).unwrap();
    let mut s = crashing.ingest();
    s.push_batch(stream[split..].iter().cloned());
    s.seal();
    drop(crashing);

    // Tear the last frame: the crash happened mid-append.
    let lpath = log_path(&path);
    let intact = std::fs::read(&lpath).unwrap();
    let torn_len = intact.len() - 5;
    let mut torn = intact[..torn_len].to_vec();
    torn.extend_from_slice(&[0xDE, 0xAD]);
    std::fs::write(&lpath, &torn).unwrap();

    let (recovered, report) = EngineBuilder::new().threads(2).open(&path, &space).unwrap();
    assert!(report.truncated_tail);
    assert_eq!(report.replayed_frames, 0, "the only frame was torn");
    assert_eq!(report.next_sequence_index, split as u64);
    // The torn bytes are gone from disk: the log holds exactly its header
    // again, ready for this process's frames.
    assert!(std::fs::metadata(&lpath).unwrap().len() < torn_len as u64);

    // The recovered engine re-ingests what the tail lost and seals —
    // appending a fresh frame to the truncated log...
    let mut s = recovered.ingest();
    s.push_batch(stream[split..].iter().cloned());
    s.seal();
    assert!(recovered.log_error().is_none());
    drop(recovered);

    // ...which a third process replays cleanly.
    let (third, report) = EngineBuilder::new().open(&path, &space).unwrap();
    assert!(!report.truncated_tail);
    assert_eq!(report.replayed_frames, 1);
    assert_eq!(report.replayed_entries, stream.len() - split);

    let whole = engine(&space, 1);
    let mut s = whole.ingest();
    s.push_batch(stream.iter().cloned());
    s.seal();
    assert_eq!(shard_contents(&third), shard_contents(&whole));
}

#[test]
fn stale_log_frames_are_skipped_not_replayed_twice() {
    // Regression: a process that dies after `save_snapshot` renamed the
    // new snapshot into place but before it reset the log leaves the old
    // log's frames next to a snapshot that already holds their entries.
    // Replaying them doubled those objects' m-semantics.
    let (space, stream) = setup();
    let split = stream.len() / 2;
    let mid = stream.len() - (stream.len() - split) / 2;
    let path = test_dir("stale").join("engine.ism");
    let lpath = log_path(&path);

    let crashing = engine(&space, 2);
    let mut s = crashing.ingest();
    s.push_batch(stream[..split].iter().cloned());
    s.seal();
    crashing.save_snapshot(&path).unwrap();
    for chunk in [&stream[split..mid], &stream[mid..]] {
        let mut s = crashing.ingest();
        s.push_batch(chunk.iter().cloned());
        s.seal();
    }
    let old_log = std::fs::read(&lpath).unwrap();
    crashing.save_snapshot(&path).unwrap();
    let live = shard_contents(&crashing);
    drop(crashing);
    // The crash: the new snapshot is in place, the log reset never ran.
    std::fs::write(&lpath, &old_log).unwrap();

    for reopen in 0..2 {
        let (reopened, report) = EngineBuilder::new().threads(2).open(&path, &space).unwrap();
        assert_eq!(report.skipped_frames, 2, "reopen {reopen}");
        assert_eq!(report.replayed_frames, 0, "reopen {reopen}");
        assert_eq!(report.replayed_entries, 0, "reopen {reopen}");
        assert!(!report.truncated_tail);
        assert_eq!(report.next_sequence_index, stream.len() as u64);
        assert_eq!(shard_contents(&reopened), live, "reopen {reopen}");
    }

    // A reopened engine appends behind the stale frames; the next reopen
    // still skips exactly those and replays the new one.
    let (reopened, _) = EngineBuilder::new().threads(2).open(&path, &space).unwrap();
    let mut s = reopened.ingest();
    s.push_batch(stream[..2].iter().cloned());
    s.seal();
    let expected = shard_contents(&reopened);
    drop(reopened);
    let (third, report) = EngineBuilder::new().threads(2).open(&path, &space).unwrap();
    assert_eq!(report.skipped_frames, 2);
    assert_eq!(report.replayed_frames, 1);
    assert_eq!(report.replayed_entries, 2);
    assert_eq!(report.next_sequence_index, stream.len() as u64 + 2);
    assert_eq!(shard_contents(&third), expected);
}

#[test]
fn corrupt_snapshots_fail_typed_never_panic() {
    let (space, stream) = setup();
    let dir = test_dir("corrupt");
    let path = dir.join("engine.ism");
    let first = engine(&space, 1);
    let mut s = first.ingest();
    s.push_batch(stream.iter().take(3).cloned());
    s.seal();
    first.save_snapshot(&path).unwrap();
    drop(first);
    let valid = std::fs::read(&path).unwrap();

    let corrupt = dir.join("corrupt.ism");
    let _ = std::fs::remove_file(log_path(&corrupt));
    for offset in (0..valid.len()).step_by(31) {
        let mut bytes = valid.clone();
        bytes[offset] ^= 0x20;
        std::fs::write(&corrupt, &bytes).unwrap();
        match EngineBuilder::new().open(&corrupt, &space) {
            Ok(_) => panic!("1-bit flip at {offset} went undetected"),
            Err(EngineError::Persist(_)) => {}
            Err(other) => panic!("unexpected error at {offset}: {other:?}"),
        }
    }
    for len in (0..valid.len()).step_by(53) {
        std::fs::write(&corrupt, &valid[..len]).unwrap();
        assert!(
            matches!(
                EngineBuilder::new().open(&corrupt, &space),
                Err(EngineError::Persist(_))
            ),
            "truncation to {len} bytes went undetected"
        );
    }

    // Missing snapshot: a typed I/O error.
    assert!(matches!(
        EngineBuilder::new().open(dir.join("missing.ism"), &space),
        Err(EngineError::Persist(_))
    ));
}
