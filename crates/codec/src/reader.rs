//! Bounds-checked cursor over encoded bytes.

use crate::error::CodecError;
use crate::primitives::unzigzag;

/// A cursor over an encoded buffer where every read is bounds-checked and
/// every length prefix is validated against the remaining input *before*
/// any allocation happens. This is the only way `ism-codec` reads bytes, so
/// corrupt or hostile input yields a typed [`CodecError`] — never a panic,
/// never an attempt to allocate a bogus multi-gigabyte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a reader at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes, or fails with [`CodecError::Truncated`].
    // analyzer: allow(lib-panic) the range is guarded by the remaining-length check above it
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    // analyzer: allow(lib-panic) `bytes(2)` returned a length-2 slice
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    // analyzer: allow(lib-panic) `bytes(4)` returned a length-4 slice
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    // analyzer: allow(lib-panic) `bytes(8)` returned a length-8 slice
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a raw IEEE-754 bit pattern written by
    /// [`crate::write_f64_bits`].
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` encoded as a single `0`/`1` byte.
    pub fn boolean(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::InvalidValue { what: "bool tag" }),
        }
    }

    /// Reads an LEB128 varint. Rejects encodings longer than 10 bytes or
    /// overflowing 64 bits (overlong encodings of small values are
    /// accepted: the writer never produces them, but they are harmless).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::InvalidValue {
                    what: "varint overflow",
                });
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::InvalidValue {
                    what: "varint too long",
                });
            }
        }
    }

    /// Reads a ZigZag-ed signed varint.
    pub fn signed_varint(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Reads a varint **byte length** and validates it against the
    /// remaining input. The returned value is always safe to pass to
    /// [`Reader::bytes`] or to use as an allocation size.
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::InvalidValue {
            what: "length prefix overflows usize",
        })?;
        if len > self.remaining() {
            return Err(CodecError::Truncated {
                needed: len,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a varint **element count** for a container whose elements each
    /// occupy at least `min_item_size` bytes (≥ 1 for every encodable
    /// type). The count is validated against the remaining input before the
    /// caller allocates, so a corrupt count of `u64::MAX` fails here
    /// instead of OOM-ing in `Vec::with_capacity`.
    pub fn count_prefix(&mut self, min_item_size: usize) -> Result<usize, CodecError> {
        let count = self.varint()?;
        let count = usize::try_from(count).map_err(|_| CodecError::InvalidValue {
            what: "count prefix overflows usize",
        })?;
        let min_bytes =
            count
                .checked_mul(min_item_size.max(1))
                .ok_or(CodecError::InvalidValue {
                    what: "count prefix overflows",
                })?;
        if min_bytes > self.remaining() {
            return Err(CodecError::Truncated {
                needed: min_bytes,
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Asserts the buffer has been fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                trailing: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::write_varint;

    #[test]
    fn reads_are_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(
            r.u32(),
            Err(CodecError::Truncated {
                needed: 4,
                available: 2
            })
        ));
        // A failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), u16::from_le_bytes([2, 3]));
        assert!(r.finish().is_ok());
    }

    #[test]
    fn varint_rejects_overflow_and_overlength() {
        // 10 continuation bytes with a large final byte: overflows u64.
        let buf = [0xFF; 9].iter().copied().chain([0x7F]).collect::<Vec<_>>();
        assert!(matches!(
            Reader::new(&buf).varint(),
            Err(CodecError::InvalidValue { .. })
        ));
        // u64::MAX itself round-trips.
        let mut ok = Vec::new();
        write_varint(&mut ok, u64::MAX);
        assert_eq!(Reader::new(&ok).varint().unwrap(), u64::MAX);
    }

    #[test]
    fn len_prefix_validates_before_allocation() {
        // Declared length of ~u64::MAX/2 with 1 byte of actual payload.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX / 2);
        buf.push(0xAB);
        let err = Reader::new(&buf).len_prefix().unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated { .. } | CodecError::InvalidValue { .. }
        ));
    }

    #[test]
    fn count_prefix_guards_capacity() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        let err = Reader::new(&buf).count_prefix(8).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }
}
