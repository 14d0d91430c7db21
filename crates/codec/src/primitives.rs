//! Encoding primitives: little-endian fixed-width writes, LEB128 varints,
//! ZigZag, the order-preserving f64 mapping, and CRC-32.
//!
//! The compressed posting index of `ism-queries` encodes with these same
//! functions. The reading side lives in [`crate::Reader`], which
//! bounds-checks every access.

/// Appends `v` little-endian.
#[inline]
pub fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the raw IEEE-754 bit pattern of `x` little-endian. Bit-exact for
/// every value including NaNs and signed zeros.
#[inline]
pub fn write_f64_bits(out: &mut Vec<u8>, x: f64) {
    write_u64(out, x.to_bits());
}

/// Appends `v` as an LEB128 varint (7 payload bits per byte, little endian,
/// high bit = continuation). At most 10 bytes.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// ZigZag-maps a signed value to an unsigned varint payload: small
/// magnitudes of either sign stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Maps an f64 to a u64 whose unsigned order matches the f64 total order
/// (`total_cmp`): negative values are bit-complemented, non-negatives get
/// the sign bit flipped. Round-trips every bit via [`from_ordered_bits`],
/// and makes sorted timestamp runs delta-encode as small integers.
#[inline]
pub fn ordered_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`ordered_bits`].
#[inline]
pub fn from_ordered_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b & !(1 << 63))
    } else {
        f64::from_bits(!b)
    }
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
// analyzer: allow(lib-panic) const-evaluated at compile time; an out-of-bounds index is a build error, not a runtime panic
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables, built at compile time from [`CRC_TABLE`]:
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so one lookup per table folds eight input bytes at once.
// analyzer: allow(lib-panic) const-evaluated at compile time; an out-of-bounds index is a build error, not a runtime panic
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`. Used as the per-frame checksum; it detects the
/// torn writes and bit flips the corruption fuzz suite throws at it.
///
/// Slicing-by-8: eight bytes per step through the `CRC_TABLES`; the
/// bytewise loop over `CRC_TABLE` handles only the last `len % 8` bytes.
// analyzer: allow(lib-panic) every table index is a `u8` cast and each table has 256 entries
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for block in blocks {
        let v = u64::from_le_bytes(*block) ^ u64::from(crc);
        crc = t[7][v as u8 as usize]
            ^ t[6][(v >> 8) as u8 as usize]
            ^ t[5][(v >> 16) as u8 as usize]
            ^ t[4][(v >> 24) as u8 as usize]
            ^ t[3][(v >> 32) as u8 as usize]
            ^ t[2][(v >> 40) as u8 as usize]
            ^ t[1][(v >> 48) as u8 as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ASCII string "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"ISMB"), crc32(b"ISMB"));
        assert_ne!(crc32(b"ISMB"), crc32(b"ISMA"));
    }

    #[test]
    fn fixed_width_writes_are_little_endian() {
        let mut out = Vec::new();
        write_u16(&mut out, 0x1234);
        write_u32(&mut out, 0x5678_9ABC);
        write_u64(&mut out, 0x0102_0304_0506_0708);
        assert_eq!(
            out,
            [0x34, 0x12, 0xBC, 0x9A, 0x78, 0x56, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
    }

    #[test]
    fn ordered_bits_is_monotone_on_samples() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.75,
            86_400.0,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(
                ordered_bits(w[0]) <= ordered_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for &x in &xs {
            assert_eq!(from_ordered_bits(ordered_bits(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn zigzag_round_trips_boundaries() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-3) < 8);
        assert!(zigzag(3) < 8);
    }

    proptest! {
        #[test]
        fn zigzag_round_trips(v in i64::MIN..i64::MAX) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn ordered_bits_round_trip_and_order(a in -1e12f64..1e12, b in -1e12f64..1e12) {
            prop_assert_eq!(from_ordered_bits(ordered_bits(a)).to_bits(), a.to_bits());
            prop_assert_eq!(ordered_bits(a) <= ordered_bits(b), a.total_cmp(&b) != std::cmp::Ordering::Greater);
        }
    }
}
