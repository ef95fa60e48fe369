//! Byte-stream decoding for the workspace's injective encodings.
//!
//! Cache keys, service fingerprints, and (since the persistent cache tier)
//! on-disk snapshot records are all built from the `encode_into` family of
//! byte encodings: little-endian integers, raw `f64::to_bits` patterns, and
//! length-prefixed sequences. [`ByteCursor`] is the shared reader those
//! decoders are written against — every read is bounds-checked and reports a
//! typed [`DecodeError`] instead of panicking, so a truncated or corrupted
//! snapshot can never take a service down.

use std::fmt;

/// A failed decode: what was being read and where the stream gave out or
/// stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was trying to read (e.g. `"gate variant tag"`).
    pub what: &'static str,
    /// Byte offset at which the read was attempted.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed byte stream: failed to decode {} at offset {}",
            self.what, self.offset
        )
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked forward-only reader over a byte slice.
///
/// ```
/// use qcc_ir::bytes::ByteCursor;
///
/// let mut buf = Vec::new();
/// buf.extend_from_slice(&7u64.to_le_bytes());
/// buf.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
/// let mut cur = ByteCursor::new(&buf);
/// assert_eq!(cur.u64("count").unwrap(), 7);
/// assert_eq!(cur.f64("value").unwrap(), 1.5);
/// assert!(cur.is_empty());
/// assert!(cur.u8("past the end").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    /// Current byte offset from the start of the stream.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn fail(&self, what: &'static str) -> DecodeError {
        DecodeError {
            what,
            offset: self.offset,
        }
    }

    /// Reads `n` raw bytes. `what` labels the read in the error.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.fail(what));
        }
        let out = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `u64` and narrows it to `usize`, rejecting values
    /// that do not fit (foreign 32-bit snapshots with absurd lengths must
    /// error, not wrap).
    pub fn len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let start = self.offset;
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| DecodeError {
            what,
            offset: start,
        })
    }

    /// Reads an `f64` stored as its raw IEEE-754 bit pattern
    /// (`f64::from_bits`, bit-exact round-trip with `f64::to_bits`).
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_sequential_and_bounds_checked() {
        let mut buf = vec![0x2a];
        buf.extend_from_slice(&300u32.to_le_bytes());
        buf.extend_from_slice(&(u64::MAX).to_le_bytes());
        let mut cur = ByteCursor::new(&buf);
        assert_eq!(cur.u8("tag").unwrap(), 0x2a);
        assert_eq!(cur.u32("mid").unwrap(), 300);
        assert_eq!(cur.u64("tail").unwrap(), u64::MAX);
        assert!(cur.is_empty());
        let err = cur.u8("eof").unwrap_err();
        assert_eq!(err.what, "eof");
        assert_eq!(err.offset, buf.len());
        assert!(err.to_string().contains("eof"));
    }

    #[test]
    fn f64_round_trips_bit_patterns() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300] {
            let buf = v.to_bits().to_le_bytes();
            let mut cur = ByteCursor::new(&buf);
            assert_eq!(cur.f64("v").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_report_offset() {
        let buf = [1u8, 2, 3];
        let mut cur = ByteCursor::new(&buf);
        assert!(cur.u64("needs eight").is_err());
        // A failed read consumes nothing.
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur.bytes(3, "all").unwrap(), &[1, 2, 3]);
    }
}
