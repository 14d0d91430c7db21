//! `ism-codec` impls for mobility types, plus the compressed
//! semantics-run codec shared by the store snapshot and the engine's seal
//! log.
//!
//! A run of [`MobilitySemantics`] is time-ordered, so it compresses as
//! deltas: the first start time is an absolute [`ordered_bits`] pattern,
//! subsequent starts are ZigZag varint deltas in ordered-bits space, and
//! each end encodes as a ZigZag offset from its own start. Regions and event tags follow as varint / byte.
//! Encode → decode is the identity on every finite (and non-finite)
//! timestamp — deltas use wrapping arithmetic on the bit patterns, so no
//! input ordering is assumed.

use ism_codec::{
    ordered_bits, write_u64, write_varint, zigzag, CodecError, Decode, Encode, Reader,
};
use ism_indoor::RegionId;

use crate::types::{MobilityEvent, MobilitySemantics, TimePeriod};

impl Encode for MobilityEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
}

impl Decode for MobilityEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(MobilityEvent::Stay),
            1 => Ok(MobilityEvent::Pass),
            _ => Err(CodecError::InvalidValue {
                what: "mobility event tag",
            }),
        }
    }
}

impl Encode for TimePeriod {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
}

impl Decode for TimePeriod {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let start = f64::decode(r)?;
        let end = f64::decode(r)?;
        // Construct directly: decode must round-trip every bit pattern the
        // writer can produce, including a period with `start = 0.0` and
        // `end = -0.0`.
        Ok(TimePeriod { start, end })
    }
}

impl Encode for MobilitySemantics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.region.encode(out);
        self.period.encode(out);
        self.event.encode(out);
    }
}

impl Decode for MobilitySemantics {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MobilitySemantics {
            region: RegionId::decode(r)?,
            period: TimePeriod::decode(r)?,
            event: MobilityEvent::decode(r)?,
        })
    }
}

/// Appends a delta-compressed encoding of `run` to `out`.
pub fn encode_semantics_run(out: &mut Vec<u8>, run: &[MobilitySemantics]) {
    write_varint(out, run.len() as u64);
    let mut prev_start = 0u64;
    for (i, ms) in run.iter().enumerate() {
        let start = ordered_bits(ms.period.start);
        let end = ordered_bits(ms.period.end);
        if i == 0 {
            write_u64(out, start);
        } else {
            write_varint(out, zigzag(start.wrapping_sub(prev_start) as i64));
        }
        write_varint(out, zigzag(end.wrapping_sub(start) as i64));
        ms.region.encode(out);
        ms.event.encode(out);
        prev_start = start;
    }
}

/// Decodes a run written by [`encode_semantics_run`].
pub fn decode_semantics_run(r: &mut Reader<'_>) -> Result<Vec<MobilitySemantics>, CodecError> {
    // Each entry is ≥ 4 bytes after the first (start delta, end offset,
    // region, event); ≥ 1 is all the pre-allocation guard needs.
    let count = r.count_prefix(4)?;
    let mut out = Vec::with_capacity(count);
    let mut prev_start = 0u64;
    for i in 0..count {
        let start = if i == 0 {
            r.u64()?
        } else {
            prev_start.wrapping_add(r.signed_varint()? as u64)
        };
        let end = start.wrapping_add(r.signed_varint()? as u64);
        let region = RegionId::decode(r)?;
        let event = MobilityEvent::decode(r)?;
        out.push(MobilitySemantics {
            region,
            period: TimePeriod {
                start: ism_codec::from_ordered_bits(start),
                end: ism_codec::from_ordered_bits(end),
            },
            event,
        });
        prev_start = start;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(region: u32, start: f64, end: f64, event: MobilityEvent) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod { start, end },
            event,
        }
    }

    #[test]
    fn semantics_round_trip() {
        let v = ms(7, 100.5, 230.25, MobilityEvent::Stay);
        let bytes = v.to_bytes();
        assert_eq!(MobilitySemantics::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn bad_event_tag_is_typed_error() {
        let mut bytes = ms(1, 0.0, 1.0, MobilityEvent::Pass).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert!(matches!(
            MobilitySemantics::from_bytes(&bytes),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn run_codec_round_trips_edge_timestamps() {
        let runs: Vec<Vec<MobilitySemantics>> = vec![
            vec![],
            vec![ms(0, -0.0, 0.0, MobilityEvent::Pass)],
            vec![
                ms(3, 10.0, 40.0, MobilityEvent::Stay),
                ms(5, 40.0, 42.5, MobilityEvent::Pass),
                ms(3, 42.5, 1e9, MobilityEvent::Stay),
            ],
            // Deliberately unsorted + non-finite: the codec must not assume
            // ordering or finiteness.
            vec![
                ms(1, 50.0, 60.0, MobilityEvent::Pass),
                ms(2, -1e300, f64::INFINITY, MobilityEvent::Stay),
            ],
        ];
        for run in runs {
            let mut out = Vec::new();
            encode_semantics_run(&mut out, &run);
            let mut r = Reader::new(&out);
            let decoded = decode_semantics_run(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(decoded.len(), run.len());
            for (a, b) in run.iter().zip(&decoded) {
                assert_eq!(a.region, b.region);
                assert_eq!(a.event, b.event);
                assert_eq!(a.period.start.to_bits(), b.period.start.to_bits());
                assert_eq!(a.period.end.to_bits(), b.period.end.to_bits());
            }
        }
    }

    #[test]
    fn run_codec_no_larger_than_fixed_width() {
        let run: Vec<_> = (0..100)
            .map(|i| {
                ms(
                    i % 4,
                    1000.0 + f64::from(i),
                    1001.0 + f64::from(i),
                    MobilityEvent::Stay,
                )
            })
            .collect();
        let mut out = Vec::new();
        encode_semantics_run(&mut out, &run);
        let mut fixed = Vec::new();
        write_varint(&mut fixed, run.len() as u64);
        for v in &run {
            v.encode(&mut fixed);
        }
        assert!(
            out.len() < fixed.len(),
            "delta {} vs fixed {}",
            out.len(),
            fixed.len()
        );
    }

    #[test]
    fn corrupt_run_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX / 8);
        assert!(decode_semantics_run(&mut Reader::new(&bytes)).is_err());
    }
}
