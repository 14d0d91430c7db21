//! `ism-codec` — hand-rolled, versioned, deterministic binary format for
//! durable engine state.
//!
//! The vendored serde derives in this workspace expand to nothing, so until
//! this crate existed nothing the engine learned survived the process:
//! `TrainCheckpoint` resume was same-process only and every restart
//! re-annotated the whole store from raw records. `ism-codec` is the real
//! serialization layer: a small, dependency-free binary format with the
//! exact properties the workspace's determinism contract needs.
//!
//! # Format
//!
//! * **Primitives** — little-endian fixed-width integers for values that
//!   must round-trip bit-exactly (`f64` weights, seeds), LEB128 varints for
//!   counts and ids, ZigZag for signed deltas, and the order-preserving
//!   [`ordered_bits`] f64 mapping.
//! * **Artifacts** — every persisted file starts with an 8-byte header:
//!   magic `b"ISMB"`, a little-endian `u16` format version, and a one-byte
//!   [`ArtifactKind`]. Readers reject unknown magic, newer versions, and
//!   kind mismatches with typed errors before touching the payload.
//! * **Frames** — after the header, the body is a sequence of frames:
//!   `u32` payload length, `u32` CRC-32 checksum, payload bytes. Snapshots
//!   and checkpoints are a single frame; the engine's seal log appends one
//!   frame per seal, which is what makes a torn tail detectable: a frame
//!   whose length runs past end-of-file or whose checksum fails marks the
//!   crash point, and recovery discards exactly that tail.
//! * **No panics on corrupt input** — decoding goes through a
//!   bounds-checked [`Reader`]; every length prefix is validated against
//!   the remaining input *before* any allocation, so a hostile or torn file
//!   produces a typed [`CodecError`], never a panic or an OOM.
//!
//! # Determinism
//!
//! Encoding is a pure function of the value: no timestamps, no padding, no
//! map iteration order (containers encode in their deterministic in-memory
//! order). Equal values encode to equal bytes, which is what lets the
//! round-trip and cross-process-resume tests compare artifacts byte for
//! byte.

#![forbid(unsafe_code)]

mod error;
mod file;
mod frame;
mod primitives;
mod reader;
mod traits;

pub use error::{CodecError, PersistError};
pub use file::{read_artifact, write_artifact, write_atomic};
pub use frame::{
    append_frame, decode_artifact, encode_artifact, read_header, write_header, ArtifactKind,
    FrameIter, FORMAT_VERSION, FRAME_OVERHEAD, HEADER_LEN, MAGIC,
};
pub use primitives::{
    crc32, from_ordered_bits, ordered_bits, unzigzag, write_f64_bits, write_u16, write_u32,
    write_u64, write_varint, zigzag,
};
pub use reader::Reader;
pub use traits::{Decode, Encode};
