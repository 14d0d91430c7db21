//! `ism-codec` impls for the sharded semantics store.
//!
//! A store persists as its logical content: for every shard, the sealed
//! `(object, m-semantics)` entries in shard order, then the pending
//! (appended but unsealed) entries in append order. M-semantics runs go
//! through the delta+varint codec in `ism-mobility`.
//!
//! The posting index itself is **not** serialized: [`Shard::build`]
//! reconstructs it deterministically from the sealed objects on decode,
//! exactly the way the `incremental_oracle` suite pins a grown store equal
//! to a rebuilt one. That keeps the artifact small and means a decoded
//! store answers TkPRQ/TkFRPQ byte-identically to the live one it was
//! encoded from (pinned by the `persist_roundtrip` suite).
//!
//! Decoding reads every shard's entries in order (the format has no
//! per-shard offsets), then rebuilds the shard indexes on a worker pool:
//! [`ShardedSemanticsStore::decode_with`] on the caller's pool, the
//! [`Decode`] impl inline on the calling thread.

use ism_codec::{write_varint, CodecError, Decode, Encode, Reader};
use ism_mobility::{decode_semantics_run, encode_semantics_run, MobilitySemantics};
use ism_runtime::WorkerPool;

use crate::store::{run_owned, Shard, ShardedSemanticsStore};

fn encode_entries(out: &mut Vec<u8>, entries: &[(u64, Vec<MobilitySemantics>)]) {
    write_varint(out, entries.len() as u64);
    for (object_id, semantics) in entries {
        write_varint(out, *object_id);
        encode_semantics_run(out, semantics);
    }
}

fn decode_entries(r: &mut Reader<'_>) -> Result<Vec<(u64, Vec<MobilitySemantics>)>, CodecError> {
    // Each entry is at least 2 bytes (object id varint + run count varint).
    let count = r.count_prefix(2)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let object_id = r.varint()?;
        let semantics = decode_semantics_run(r)?;
        entries.push((object_id, semantics));
    }
    Ok(entries)
}

impl Encode for ShardedSemanticsStore {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.shards.len() as u64);
        for shard in &self.shards {
            encode_entries(out, &shard.objects);
            encode_entries(out, &shard.pending);
        }
    }
}

impl ShardedSemanticsStore {
    /// Decodes a store, rebuilding the shard indexes on `pool` in shard
    /// order. The store is identical to the [`Decode`] impl's for any
    /// thread count.
    pub fn decode_with(r: &mut Reader<'_>, pool: &WorkerPool) -> Result<Self, CodecError> {
        // An empty shard still occupies 2 bytes (two zero counts).
        let num_shards = r.count_prefix(2)?;
        if num_shards == 0 {
            return Err(CodecError::InvalidValue {
                what: "store with zero shards",
            });
        }
        let mut parts = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let objects = decode_entries(r)?;
            let pending = decode_entries(r)?;
            parts.push((objects, pending));
        }
        let shards = run_owned(pool, parts, |(objects, pending)| {
            let mut shard = Shard::build(objects);
            shard.pending = pending;
            shard
        });
        Ok(ShardedSemanticsStore { shards })
    }
}

impl Decode for ShardedSemanticsStore {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Self::decode_with(r, &WorkerPool::new(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardedStoreBuilder;
    use ism_indoor::RegionId;
    use ism_mobility::{MobilityEvent, TimePeriod};

    fn ms(region: u32, start: f64, end: f64) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event: if region.is_multiple_of(2) {
                MobilityEvent::Stay
            } else {
                MobilityEvent::Pass
            },
        }
    }

    fn sample_store() -> ShardedSemanticsStore {
        let mut builder = ShardedStoreBuilder::new(4);
        for i in 0..60u64 {
            builder.insert(
                i % 13,
                vec![ms(i as u32 % 6, i as f64 * 2.0, i as f64 * 2.0 + 1.5)],
            );
        }
        let mut store = builder.build();
        // Leave some entries pending so both segments round-trip.
        store.append(100, vec![ms(2, 500.0, 510.0)]);
        store.append(101, vec![ms(3, 520.0, 530.0)]);
        store
    }

    fn contents(store: &ShardedSemanticsStore) -> Vec<Vec<(u64, Vec<MobilitySemantics>)>> {
        (0..store.num_shards())
            .map(|s| {
                store
                    .iter_shard(s)
                    .map(|(id, sem)| (id, sem.to_vec()))
                    .chain(
                        store
                            .pending_of_shard(s)
                            .map(|(id, sem)| (id, sem.to_vec())),
                    )
                    .collect()
            })
            .collect()
    }

    #[test]
    fn store_round_trips_sealed_and_pending() {
        let store = sample_store();
        let decoded = ShardedSemanticsStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(decoded.num_shards(), store.num_shards());
        assert_eq!(decoded.len(), store.len());
        assert_eq!(decoded.num_pending(), store.num_pending());
        assert_eq!(decoded.num_postings(), store.num_postings());
        assert_eq!(contents(&decoded), contents(&store));
        // Deterministic: re-encoding the decoded store is byte-identical.
        assert_eq!(decoded.to_bytes(), store.to_bytes());
    }

    #[test]
    fn decoded_store_seals_like_the_original() {
        let mut live = sample_store();
        let mut decoded = ShardedSemanticsStore::from_bytes(&live.to_bytes()).unwrap();
        let live_summary = live.seal_summarized();
        let decoded_summary = decoded.seal_summarized();
        assert_eq!(decoded_summary, live_summary);
        assert_eq!(contents(&decoded), contents(&live));
    }

    #[test]
    fn zero_shard_store_is_rejected() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 0);
        assert!(matches!(
            ShardedSemanticsStore::from_bytes(&bytes),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn corrupt_shard_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX / 16);
        assert!(ShardedSemanticsStore::from_bytes(&bytes).is_err());
    }
}
