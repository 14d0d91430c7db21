//! Store persistence properties: a decoded store is indistinguishable
//! from the live store it was encoded from — same contents, same posting
//! counts, byte-identical TkPRQ/TkFRPQ answers, same behaviour under
//! further appends and seals — whether its shard indexes are rebuilt
//! inline or on a pool of any size, and corrupt bytes always fail typed.

use ism_codec::{CodecError, Decode, Encode, Reader};
use ism_indoor::RegionId;
use ism_mobility::{MobilityEvent, MobilitySemantics, TimePeriod};
use ism_queries::{tk_frpq_sharded, tk_prq_sharded, QueryBatch, ShardedSemanticsStore};
use ism_runtime::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random store: sealed base contents plus a random pending segment.
fn random_store(rng: &mut StdRng) -> ShardedSemanticsStore {
    let shards = rng.random_range(1..6);
    random_store_with(rng, shards)
}

/// [`random_store`] with a fixed shard count.
fn random_store_with(rng: &mut StdRng, shards: usize) -> ShardedSemanticsStore {
    let mut store = ShardedSemanticsStore::new(shards);
    let objects = rng.random_range(0..30u64);
    for _ in 0..objects {
        let id = rng.random_range(0..20u64);
        store.append(id, random_run(rng));
    }
    store.seal();
    for _ in 0..rng.random_range(0..10u64) {
        let id = rng.random_range(0..25u64);
        store.append(id, random_run(rng));
    }
    store
}

/// TkPRQ and TkFRPQ answers over every region, for a few windows.
type Answers = Vec<(Vec<(RegionId, usize)>, Vec<((RegionId, RegionId), usize)>)>;

fn answers(store: &ShardedSemanticsStore, pool: &WorkerPool) -> Answers {
    let regions: Vec<RegionId> = (0..8).map(RegionId).collect();
    [
        TimePeriod::new(0.0, 1e9),
        TimePeriod::new(100.0, 300.0),
        TimePeriod::new(900.0, 901.0),
    ]
    .into_iter()
    .map(|qt| {
        (
            tk_prq_sharded(store, &regions, 4, qt, pool),
            tk_frpq_sharded(store, &regions, 4, qt, pool),
        )
    })
    .collect()
}

fn random_run(rng: &mut StdRng) -> Vec<MobilitySemantics> {
    let len = rng.random_range(1..6);
    let mut t = rng.random_range(0.0..500.0);
    (0..len)
        .map(|_| {
            let start = t;
            let dur = rng.random_range(0.5..40.0);
            t = start + dur + rng.random_range(0.0..5.0);
            MobilitySemantics {
                region: RegionId(rng.random_range(0..8)),
                period: TimePeriod::new(start, start + dur),
                event: if rng.random_bool(0.7) {
                    MobilityEvent::Stay
                } else {
                    MobilityEvent::Pass
                },
            }
        })
        .collect()
}

proptest! {
    /// Encode → decode → every query answer byte-identical to the live
    /// store, across shard layouts and thread counts.
    #[test]
    fn reopened_store_answers_queries_byte_identically(seed in 0u64..96) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = random_store(&mut rng);
        live.seal();
        let decoded = ShardedSemanticsStore::from_bytes(&live.to_bytes()).unwrap();
        prop_assert_eq!(decoded.num_postings(), live.num_postings());

        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            prop_assert_eq!(answers(&decoded, &pool), answers(&live, &pool));
        }
        // The batched path agrees too.
        let regions: Vec<RegionId> = (0..8).map(RegionId).collect();
        let mut batch = QueryBatch::new();
        batch.tk_prq(&regions, 3, TimePeriod::new(0.0, 1e9));
        batch.tk_frpq(&regions, 3, TimePeriod::new(0.0, 1e9));
        let pool = WorkerPool::new(2);
        prop_assert_eq!(batch.run(&decoded, &pool), batch.run(&live, &pool));
    }

    /// A store serialized mid-stream (pending entries unsealed) resumes
    /// exactly: the decoded copy seals to the same contents and keeps
    /// accepting appends like the original.
    #[test]
    fn mid_stream_store_resumes_exactly(seed in 0u64..96) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EA1);
        let mut live = random_store(&mut rng);
        let mut decoded = ShardedSemanticsStore::from_bytes(&live.to_bytes()).unwrap();
        prop_assert_eq!(decoded.num_pending(), live.num_pending());

        // The same post-restart traffic lands identically on both.
        let extra: Vec<(u64, Vec<MobilitySemantics>)> = (0..rng.random_range(0..6u64))
            .map(|_| (rng.random_range(0..25u64), random_run(&mut rng)))
            .collect();
        for (id, run) in &extra {
            live.append(*id, run.clone());
            decoded.append(*id, run.clone());
        }
        prop_assert_eq!(decoded.pending_summary(), live.pending_summary());
        prop_assert_eq!(decoded.seal(), live.seal());
        prop_assert_eq!(decoded.to_bytes(), live.to_bytes());
    }

    /// Bit-flipped or truncated encodings fail typed — never a panic,
    /// never an allocation sized by corrupt bytes.
    #[test]
    fn corrupt_store_bytes_fail_typed(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let live = random_store(&mut rng);
        let bytes = live.to_bytes();

        // The raw store codec is unframed (no CRC — files add it via
        // `ism_codec::write_artifact`), so a flip may legitimately decode
        // to a *different* store; the property is: no panic, and any
        // success lands on a stable canonical form.
        let flip = rng.random_range(0..bytes.len() * 8);
        let mut corrupt = bytes.clone();
        corrupt[flip / 8] ^= 1 << (flip % 8);
        if let Ok(decoded) = ShardedSemanticsStore::from_bytes(&corrupt) {
            let canonical = decoded.to_bytes();
            let again = ShardedSemanticsStore::from_bytes(&canonical).unwrap();
            prop_assert_eq!(again.to_bytes(), canonical);
        }

        let cut = rng.random_range(0..bytes.len());
        match ShardedSemanticsStore::from_bytes(&bytes[..cut]) {
            Ok(_) => prop_assert!(false, "strict truncation to {} bytes decoded", cut),
            Err(
                CodecError::Truncated { .. }
                | CodecError::InvalidValue { .. }
                | CodecError::TrailingBytes { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard indexes rebuilt on a pool: for 1, 3 and 8 shards with a
    /// pending segment, a decode through pools of 1, 2 and 4 threads
    /// re-encodes to the input bytes and answers TkPRQ/TkFRPQ like the
    /// inline decode, before and after sealing the pending entries.
    #[test]
    fn pooled_decode_matches_inline_decode(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for shards in [1, 3, 8] {
            let mut live = random_store_with(&mut rng, shards);
            live.append(rng.random_range(0..25u64), random_run(&mut rng));
            let bytes = live.to_bytes();
            let mut inline = ShardedSemanticsStore::from_bytes(&bytes).unwrap();
            let pool = WorkerPool::new(2);
            let inline_answers = answers(&inline, &pool);
            inline.seal();
            let sealed_answers = answers(&inline, &pool);
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                let mut r = Reader::new(&bytes);
                let mut pooled = ShardedSemanticsStore::decode_with(&mut r, &pool).unwrap();
                r.finish().unwrap();
                prop_assert_eq!(pooled.to_bytes(), bytes, "shards {}, threads {}", shards, threads);
                prop_assert_eq!(pooled.num_postings(), live.num_postings());
                prop_assert_eq!(answers(&pooled, &pool), inline_answers);
                pooled.seal_with(&pool);
                prop_assert_eq!(pooled.to_bytes(), inline.to_bytes());
                prop_assert_eq!(answers(&pooled, &pool), sealed_answers);
            }
        }
    }
}
