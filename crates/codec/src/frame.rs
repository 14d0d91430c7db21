//! Artifact headers and checksummed frames.
//!
//! Layout of every persisted file:
//!
//! ```text
//! +-------+---------+------+----------+   +-----+-----+---------+
//! | magic | version | kind | reserved |   | len | crc | payload | ...
//! |  4 B  |  u16 LE | u8   |   u8     |   | u32 | u32 |  len B  |
//! +-------+---------+------+----------+   +-----+-----+---------+
//!          header (8 bytes)                frame (repeated)
//! ```
//!
//! Snapshots and checkpoints carry exactly one frame; the engine's seal log
//! appends one frame per seal. The length prefix is validated against the
//! bytes actually present and the CRC-32 against the payload, so a torn
//! tail (crash mid-append) is detected at the exact frame boundary and can
//! be discarded without losing the frames before it.

use crate::error::CodecError;
use crate::primitives::{crc32, write_u16, write_u32};

/// File magic: every `ism-codec` artifact starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"ISMB";

/// Current format version. Readers accept files with `version <=
/// FORMAT_VERSION`; bumping this is how future layout changes stay
/// detectable.
pub const FORMAT_VERSION: u16 = 1;

/// Size of the artifact header in bytes.
pub const HEADER_LEN: usize = 8;

/// Per-frame overhead in bytes (`u32` length + `u32` CRC-32).
pub const FRAME_OVERHEAD: usize = 8;

/// What a persisted file contains. Recorded in the header so opening the
/// wrong file fails with [`CodecError::WrongKind`] instead of a confusing
/// payload error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ArtifactKind {
    /// Full engine snapshot: seed + ingest cursor + model + sealed store.
    EngineSnapshot = 1,
    /// Trainer checkpoint: weights + configured chains + iteration index.
    TrainCheckpoint = 2,
    /// Engine seal log: one frame per seal since the last snapshot.
    SealLog = 3,
}

impl ArtifactKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ArtifactKind::EngineSnapshot),
            2 => Some(ArtifactKind::TrainCheckpoint),
            3 => Some(ArtifactKind::SealLog),
            _ => None,
        }
    }
}

/// Appends the 8-byte artifact header for `kind`.
pub fn write_header(out: &mut Vec<u8>, kind: ArtifactKind) {
    out.extend_from_slice(&MAGIC);
    write_u16(out, FORMAT_VERSION);
    out.push(kind as u8);
    out.push(0); // reserved
}

/// Validates the header at the start of `buf` and returns the offset of
/// the first frame ([`HEADER_LEN`]).
// analyzer: allow(lib-panic) every byte access is guarded by the HEADER_LEN length check at the top
pub fn read_header(buf: &[u8], expected: ArtifactKind) -> Result<usize, CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN,
            available: buf.len(),
        });
    }
    if buf[..4] != MAGIC {
        return Err(CodecError::BadMagic {
            found: [buf[0], buf[1], buf[2], buf[3]],
        });
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version > FORMAT_VERSION || version == 0 {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if buf[7] != 0 {
        // The reserved byte is zero in every version written so far; a
        // nonzero value is corruption, not a future format.
        return Err(CodecError::InvalidValue {
            what: "nonzero reserved header byte",
        });
    }
    match ArtifactKind::from_u8(buf[6]) {
        Some(kind) if kind == expected => Ok(HEADER_LEN),
        _ => Err(CodecError::WrongKind {
            expected: expected as u8,
            found: buf[6],
        }),
    }
}

/// Appends one checksummed frame (`u32` length, `u32` CRC-32, payload).
///
/// # Panics
///
/// If `payload` exceeds `u32::MAX` bytes — single frames of 4 GiB are far
/// outside this system's artifact sizes, and encoding (unlike decoding) is
/// allowed to assert on programmer error.
// analyzer: allow(lib-panic) encoding asserts on programmer error by contract (see # Panics above)
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    write_u32(out, len);
    write_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Iterates the frames of an artifact body, yielding each validated
/// payload. The first torn or corrupt frame yields one `Err` and ends the
/// iteration; [`FrameIter::good_end`] then reports the byte offset just
/// past the last intact frame, which is exactly where log recovery
/// truncates.
#[derive(Debug)]
pub struct FrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
    index: usize,
    failed: bool,
}

impl<'a> FrameIter<'a> {
    /// Starts iterating frames at `start` (normally the offset returned by
    /// [`read_header`]).
    pub fn new(buf: &'a [u8], start: usize) -> Self {
        FrameIter {
            buf,
            pos: start.min(buf.len()),
            index: 0,
            failed: false,
        }
    }

    /// Byte offset just past the last successfully validated frame.
    pub fn good_end(&self) -> usize {
        self.pos
    }

    /// Number of frames successfully yielded so far.
    pub fn frames_read(&self) -> usize {
        self.index
    }

    fn read_frame(&mut self) -> Result<&'a [u8], CodecError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let (prefix, rest) = rest.split_at(rest.len().min(FRAME_OVERHEAD));
        let payload = frame_payload(prefix, rest, self.index)?;
        self.pos += FRAME_OVERHEAD + payload.len();
        self.index += 1;
        Ok(payload)
    }
}

/// Validates one frame given its length + checksum `prefix` (short only at
/// the end of the input) and the bytes after it, and returns the payload:
/// `Truncated` if either runs out, `BadChecksum { frame }` on a mismatch.
fn frame_payload<'a>(prefix: &[u8], rest: &'a [u8], frame: usize) -> Result<&'a [u8], CodecError> {
    let Ok([l0, l1, l2, l3, c0, c1, c2, c3]) = <[u8; FRAME_OVERHEAD]>::try_from(prefix) else {
        return Err(CodecError::Truncated {
            needed: FRAME_OVERHEAD,
            available: prefix.len(),
        });
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let payload = rest.get(..len).ok_or(CodecError::Truncated {
        needed: len,
        available: rest.len(),
    })?;
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Err(CodecError::BadChecksum { frame });
    }
    Ok(payload)
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<&'a [u8], CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos >= self.buf.len() {
            return None;
        }
        match self.read_frame() {
            Ok(payload) => Some(Ok(payload)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Encodes a complete single-frame artifact: header for `kind` plus one
/// checksummed frame around `payload`.
pub fn encode_artifact(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + FRAME_OVERHEAD + payload.len());
    write_header(&mut out, kind);
    append_frame(&mut out, payload);
    out
}

/// Bytes in front of a single-frame artifact's payload: the header plus
/// the frame's length and checksum.
pub(crate) const ARTIFACT_PREFIX_LEN: usize = HEADER_LEN + FRAME_OVERHEAD;

/// Decodes a single-frame artifact produced by [`encode_artifact`],
/// validating header, checksum, and that exactly one frame is present.
pub fn decode_artifact(bytes: &[u8], kind: ArtifactKind) -> Result<&[u8], CodecError> {
    let (head, payload) = bytes.split_at(bytes.len().min(ARTIFACT_PREFIX_LEN));
    check_artifact(head, payload, kind)?;
    Ok(payload)
}

/// Validates a single-frame artifact held in two pieces: `head`, its first
/// [`ARTIFACT_PREFIX_LEN`] bytes (the whole artifact if it is shorter), and
/// `payload`, everything after them. Fails exactly as [`decode_artifact`]
/// does on the joined bytes; on success `payload` is the frame's payload.
pub(crate) fn check_artifact(
    head: &[u8],
    payload: &[u8],
    kind: ArtifactKind,
) -> Result<(), CodecError> {
    let start = read_header(head, kind)?;
    let prefix = head.get(start..).unwrap_or_default();
    let framed = frame_payload(prefix, payload, 0)?;
    match payload.len() - framed.len() {
        0 => Ok(()),
        trailing => Err(CodecError::TrailingBytes { trailing }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_artifact_round_trips() {
        let payload = b"semantics".as_slice();
        let bytes = encode_artifact(ArtifactKind::TrainCheckpoint, payload);
        assert_eq!(
            decode_artifact(&bytes, ArtifactKind::TrainCheckpoint).unwrap(),
            payload
        );
        // Exactly one frame: stray bytes or a second frame are rejected.
        let mut stray = bytes.clone();
        stray.extend_from_slice(b"xyz");
        assert_eq!(
            decode_artifact(&stray, ArtifactKind::TrainCheckpoint),
            Err(CodecError::TrailingBytes { trailing: 3 })
        );
        let mut two = bytes.clone();
        append_frame(&mut two, payload);
        assert_eq!(
            decode_artifact(&two, ArtifactKind::TrainCheckpoint),
            Err(CodecError::TrailingBytes {
                trailing: FRAME_OVERHEAD + payload.len()
            })
        );
    }

    #[test]
    fn header_errors_are_typed() {
        let good = encode_artifact(ArtifactKind::EngineSnapshot, b"x");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'J';
        assert!(matches!(
            decode_artifact(&bad_magic, ArtifactKind::EngineSnapshot),
            Err(CodecError::BadMagic { .. })
        ));
        let mut future = good.clone();
        future[4] = 0xFF;
        assert!(matches!(
            decode_artifact(&future, ArtifactKind::EngineSnapshot),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            decode_artifact(&good, ArtifactKind::SealLog),
            Err(CodecError::WrongKind { .. })
        ));
        assert!(matches!(
            decode_artifact(&good[..5], ArtifactKind::EngineSnapshot),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_iter_stops_at_torn_tail() {
        let mut log = Vec::new();
        write_header(&mut log, ArtifactKind::SealLog);
        append_frame(&mut log, b"seal-1");
        append_frame(&mut log, b"seal-2");
        let good_len = log.len();
        // Simulate a crash mid-append: half a frame of trailing bytes.
        append_frame(&mut log, b"seal-3-torn");
        log.truncate(good_len + 5);

        let mut frames = FrameIter::new(&log, HEADER_LEN);
        assert_eq!(frames.next().unwrap().unwrap(), b"seal-1");
        assert_eq!(frames.next().unwrap().unwrap(), b"seal-2");
        assert!(frames.next().unwrap().is_err());
        assert!(frames.next().is_none(), "iteration ends after first error");
        assert_eq!(frames.good_end(), good_len);
        assert_eq!(frames.frames_read(), 2);
    }

    #[test]
    fn frame_iter_detects_bit_flips() {
        let mut log = Vec::new();
        write_header(&mut log, ArtifactKind::SealLog);
        append_frame(&mut log, b"payload-bytes");
        let flip_at = HEADER_LEN + FRAME_OVERHEAD + 3;
        log[flip_at] ^= 0x10;
        let mut frames = FrameIter::new(&log, HEADER_LEN);
        assert!(matches!(
            frames.next().unwrap(),
            Err(CodecError::BadChecksum { frame: 0 })
        ));
    }

    #[test]
    fn oversized_declared_length_is_truncation_not_allocation() {
        let mut log = Vec::new();
        write_header(&mut log, ArtifactKind::SealLog);
        // Declared length u32::MAX with a 4-byte body.
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&[1, 2, 3, 4]);
        let mut frames = FrameIter::new(&log, HEADER_LEN);
        assert!(matches!(
            frames.next().unwrap(),
            Err(CodecError::Truncated { .. })
        ));
    }
}
