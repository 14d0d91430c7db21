//! Delta + varint posting codec.
//!
//! Posting lists store three numbers per visit: the start time, the end
//! time, and the visiting object id. Raw, that is 24 bytes per posting.
//! The codec shrinks sorted runs of postings losslessly with the
//! `ism-codec` primitives:
//!
//! * Timestamps map to **order-preserving u64 bit patterns**
//!   ([`ordered_bits`]): for finite `a ≤ b`, `ordered_bits(a) ≤
//!   ordered_bits(b)`, and the mapping round-trips every bit of the f64.
//!   Within a run sorted by start time, consecutive starts therefore
//!   delta-encode as small non-negative integers, and each end encodes as
//!   its ZigZag-ed ([`zigzag`]) offset from its own start.
//! * Deltas and object ids serialize as **LEB128 varints** ([`write_varint`]
//!   / [`read_varint`]): 7 payload bits per byte, continuation bit on top,
//!   so nearby timestamps and small ids take 1–5 bytes instead of 8.
//!
//! Every run restarts its delta chain with an absolute first start, which
//! is what lets the time-bucket index decode any bucket without touching
//! the ones before it.
//!
//! Only the varint read lives here. Posting buffers are encoded in memory
//! by this process, so the query hot path decodes them without the bounds
//! checks [`ism_codec::Reader`] makes on untrusted bytes.
//!
//! [`ordered_bits`]: ism_codec::ordered_bits
//! [`zigzag`]: ism_codec::zigzag
//! [`write_varint`]: ism_codec::write_varint

/// Reads the varint at `buf[*pos..]`, advancing `pos` past it.
#[inline]
// analyzer: allow(lib-panic) callers only pass offsets produced by the matching encoder over the same buffer
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ism_codec::write_varint;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let mut buf = Vec::new();
        let values = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    proptest! {
        #[test]
        fn varint_round_trips(v in 0u64..u64::MAX) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos), v);
            prop_assert_eq!(pos, buf.len());
        }
    }
}
