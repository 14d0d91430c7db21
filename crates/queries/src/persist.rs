//! `ism-codec` impls for the sharded semantics store.
//!
//! A store persists as its logical content: for every shard, the sealed
//! `(object, m-semantics)` entries in shard order, then the pending
//! (appended but unsealed) entries in append order. Each is one entry
//! list: a count, then every object id with its m-semantics run, through
//! the delta+varint codec in `ism-mobility`. The engine's seal-log frames
//! carry the same lists ([`ShardedSemanticsStore::encode_pending`]).
//!
//! The posting index itself is **not** serialized. Decode stages each
//! shard's sealed entries as its pending segment and seals them, the same
//! append-then-seal path that fills every store, then restores the
//! decoded pending segment. The `incremental_oracle` suite pins that path
//! equal to the flat reference, so the artifact stays small and a decoded
//! store answers TkPRQ/TkFRPQ byte-identically to the live one it was
//! encoded from (pinned by the `persist_roundtrip` suite).
//!
//! Decoding reads every shard's entries in order (the format has no
//! per-shard offsets) and rejects an object listed under a shard that
//! [`shard_of`] does not give it. The seal then runs on a worker pool:
//! [`ShardedSemanticsStore::decode_with`] on the caller's pool, the
//! [`Decode`] impl inline on the calling thread.

use ism_codec::{write_varint, CodecError, Decode, Encode, Reader};
use ism_mobility::{decode_semantics_run, encode_semantics_run, MobilitySemantics};
use ism_runtime::WorkerPool;

use crate::store::{shard_of, ShardedSemanticsStore};

fn encode_entries(out: &mut Vec<u8>, entries: &[(u64, Vec<MobilitySemantics>)]) {
    write_varint(out, entries.len() as u64);
    for (object_id, semantics) in entries {
        write_varint(out, *object_id);
        encode_semantics_run(out, semantics);
    }
}

/// Reads one entry list of shard `shard` out of `num_shards`.
fn decode_entries(
    r: &mut Reader<'_>,
    shard: usize,
    num_shards: usize,
) -> Result<Vec<(u64, Vec<MobilitySemantics>)>, CodecError> {
    // Each entry is at least 2 bytes (object id varint + run count varint).
    let count = r.count_prefix(2)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let object_id = r.varint()?;
        if shard_of(object_id, num_shards) != shard {
            return Err(CodecError::InvalidValue {
                what: "object listed under the wrong shard",
            });
        }
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
    /// Decodes a store, sealing its shards' sealed entries on `pool`. The
    /// store is identical to the [`Decode`] impl's for any thread count.
    pub fn decode_with(r: &mut Reader<'_>, pool: &WorkerPool) -> Result<Self, CodecError> {
        // An empty shard still occupies 2 bytes (two zero counts).
        let num_shards = r.count_prefix(2)?;
        if num_shards == 0 {
            return Err(CodecError::InvalidValue {
                what: "store with zero shards",
            });
        }
        let mut store = ShardedSemanticsStore::new(num_shards);
        let mut pending = Vec::with_capacity(num_shards);
        for (s, shard) in store.shards.iter_mut().enumerate() {
            shard.pending = decode_entries(r, s, num_shards)?;
            pending.push(decode_entries(r, s, num_shards)?);
        }
        store.seal_with(pool);
        for (shard, pending) in store.shards.iter_mut().zip(pending) {
            shard.pending = pending;
        }
        Ok(store)
    }

    /// Writes every shard's pending segment: the shard count, then one
    /// entry list per shard in append order. This is the body of an
    /// engine seal-log frame.
    pub fn encode_pending(&self, out: &mut Vec<u8>) {
        write_varint(out, self.shards.len() as u64);
        for shard in &self.shards {
            encode_entries(out, &shard.pending);
        }
    }

    /// Reads what [`encode_pending`](ShardedSemanticsStore::encode_pending)
    /// wrote for a store of `num_shards` shards. The entries come back
    /// flattened in shard order, so appending them in turn puts each back
    /// in its shard, in its order.
    pub fn decode_pending(
        r: &mut Reader<'_>,
        num_shards: usize,
    ) -> Result<Vec<(u64, Vec<MobilitySemantics>)>, CodecError> {
        if r.count_prefix(1)? != num_shards {
            return Err(CodecError::InvalidValue {
                what: "pending segments' shard count disagrees with the store",
            });
        }
        let mut entries = Vec::new();
        for s in 0..num_shards {
            entries.extend(decode_entries(r, s, num_shards)?);
        }
        Ok(entries)
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
        let mut store = ShardedSemanticsStore::new(4);
        for i in 0..60u64 {
            store.append(
                i % 13,
                vec![ms(i as u32 % 6, i as f64 * 2.0, i as f64 * 2.0 + 1.5)],
            );
        }
        store.seal();
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
        assert_eq!(decoded.pending_summary(), live.pending_summary());
        assert_eq!(decoded.seal(), live.seal());
        assert_eq!(contents(&decoded), contents(&live));
    }

    #[test]
    fn objects_filed_under_the_wrong_shard_are_rejected() {
        // Regression: decode never checked `shard_of`, so an object listed
        // under another shard decoded, `get` could not find it, and a
        // later append gave it a second entry in its own shard.
        let id = (0..).find(|&id| shard_of(id, 2) == 0).unwrap();
        let entry = vec![(id, vec![ms(2, 0.0, 10.0)])];
        let payload = |lists: [&[(u64, Vec<MobilitySemantics>)]; 4]| {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, 2);
            for list in lists {
                encode_entries(&mut bytes, list);
            }
            bytes
        };
        // Sealed and pending lists of shard 1 alike.
        for misfiled in [
            payload([&[], &[], &entry, &[]]),
            payload([&[], &[], &[], &entry]),
        ] {
            assert!(matches!(
                ShardedSemanticsStore::from_bytes(&misfiled),
                Err(CodecError::InvalidValue { .. })
            ));
        }
        let filed = ShardedSemanticsStore::from_bytes(&payload([&entry, &[], &[], &[]])).unwrap();
        assert_eq!(filed.get(id), Some(entry[0].1.as_slice()));
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
