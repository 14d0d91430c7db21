//! Format pins: the slicing-by-8 CRC-32 agrees with the plain bytewise
//! definition on every length, alignment and size, and artifacts written
//! by earlier builds (checked in below as bytes) still decode — so the
//! checksum speed-up changes no byte on disk.

use ism_codec::{
    append_frame, crc32, decode_artifact, encode_artifact, read_header, write_header, ArtifactKind,
    FrameIter,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The IEEE CRC-32 one bit at a time, straight from the definition: no
/// tables, so it shares nothing with the implementation under test.
fn bytewise_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    StdRng::seed_from_u64(seed).fill_bytes(&mut bytes);
    bytes
}

#[test]
fn check_value_is_the_standard_one() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(bytewise_crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_short_length_at_every_alignment_matches_the_reference() {
    // Lengths 0..=72 cover no block, one block, and every tail length
    // after up to nine blocks; the eight start offsets inside one buffer
    // cover every alignment of the 8-byte loads.
    let buf = random_bytes(0xA11C, 72 + 8);
    for start in 0..8 {
        for len in 0..=72 {
            let data = &buf[start..start + len];
            assert_eq!(
                crc32(data),
                bytewise_crc32(data),
                "start {start}, length {len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random buffers of 1 to 4 MB at a random start offset.
    #[test]
    fn random_multi_megabyte_buffers_match_the_reference(
        len in (1usize << 20)..(4 << 20),
        start in 0usize..8,
        seed in 0u64..1 << 32,
    ) {
        let buf = random_bytes(seed, len);
        let data = &buf[start..];
        prop_assert_eq!(crc32(data), bytewise_crc32(data), "length {}", data.len());
    }
}

/// A 26-byte payload: three 8-byte blocks and a 2-byte tail.
const PAYLOAD: &[u8] = b"indoor m-semantics \x00\x01\x02\x7F\x80\xFE\xFF";

/// `encode_artifact(ArtifactKind::EngineSnapshot, PAYLOAD)` as the
/// bytewise-CRC build wrote it.
const SNAPSHOT_BYTES: [u8; 42] = [
    0x49, 0x53, 0x4D, 0x42, 0x01, 0x00, 0x01, 0x00, 0x1A, 0x00, 0x00, 0x00, //
    0x2A, 0x11, 0x87, 0x8D, 0x69, 0x6E, 0x64, 0x6F, 0x6F, 0x72, 0x20, 0x6D, //
    0x2D, 0x73, 0x65, 0x6D, 0x61, 0x6E, 0x74, 0x69, 0x63, 0x73, 0x20, 0x00, //
    0x01, 0x02, 0x7F, 0x80, 0xFE, 0xFF,
];

/// A seal log with frames `PAYLOAD`, `b""` and `b"seal"`, as the
/// bytewise-CRC build wrote it.
const LOG_BYTES: [u8; 62] = [
    0x49, 0x53, 0x4D, 0x42, 0x01, 0x00, 0x03, 0x00, 0x1A, 0x00, 0x00, 0x00, //
    0x2A, 0x11, 0x87, 0x8D, 0x69, 0x6E, 0x64, 0x6F, 0x6F, 0x72, 0x20, 0x6D, //
    0x2D, 0x73, 0x65, 0x6D, 0x61, 0x6E, 0x74, 0x69, 0x63, 0x73, 0x20, 0x00, //
    0x01, 0x02, 0x7F, 0x80, 0xFE, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x30, 0xAE, 0x30, 0x2E, 0x73, 0x65, //
    0x61, 0x6C,
];

#[test]
fn artifacts_from_earlier_builds_still_decode() {
    assert_eq!(
        decode_artifact(&SNAPSHOT_BYTES, ArtifactKind::EngineSnapshot).unwrap(),
        PAYLOAD
    );
    let start = read_header(&LOG_BYTES, ArtifactKind::SealLog).unwrap();
    let frames: Vec<&[u8]> = FrameIter::new(&LOG_BYTES, start)
        .map(Result::unwrap)
        .collect();
    assert_eq!(frames, [PAYLOAD, b"", b"seal"]);
}

#[test]
fn encoding_still_writes_the_same_bytes() {
    assert_eq!(
        encode_artifact(ArtifactKind::EngineSnapshot, PAYLOAD),
        SNAPSHOT_BYTES
    );
    let mut log = Vec::new();
    write_header(&mut log, ArtifactKind::SealLog);
    for frame in [PAYLOAD, b"", b"seal"] {
        append_frame(&mut log, frame);
    }
    assert_eq!(log, LOG_BYTES);
}
