//! Little-endian binary codec, `std` only.
//!
//! Deliberately minimal: fixed-width unsigned integers, `f64` as raw
//! IEEE-754 bits (so values round-trip *exactly* — the determinism
//! contract forbids any reformat-through-text wobble), and
//! length-prefixed sequences. There is no reflection and no
//! self-description; layout compatibility is governed entirely by
//! [`crate::store::SCHEMA_VERSION`], which is baked into both the
//! container header and the content key.

use std::fmt;

/// Why a decode failed. Decode errors are *expected* runtime events
/// (corrupt or stale snapshot files) and always resolve to
/// regeneration, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the requested field.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A structurally impossible value (invalid cell id, length that
    /// exceeds the remaining input, ...).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length or count as a `u64` (platform-independent).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a whole `u32` column as contiguous little-endian words.
    /// One `reserve` then a straight-line byte loop: on little-endian
    /// targets LLVM lowers this to a bulk copy, which is what makes the
    /// columnar container encode memcpy-bound.
    pub fn put_u32_slice(&mut self, vals: &[u32]) {
        self.buf.reserve(vals.len() * 4);
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a whole `u64` column as contiguous little-endian words.
    pub fn put_u64_slice(&mut self, vals: &[u64]) {
        self.buf.reserve(vals.len() * 8);
        for v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a whole `f64` column as raw IEEE-754 bit patterns
    /// (exact round-trip of every bit pattern, NaNs included).
    pub fn put_f64_slice(&mut self, vals: &[f64]) {
        self.buf.reserve(vals.len() * 8);
        for v in vals {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// The finished byte buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a sequence length and validates it against the remaining
    /// input (`len * min_elem_bytes` must still fit), so a corrupt
    /// length can never drive an absurd allocation.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let raw = self.take_u64()?;
        let len = usize::try_from(raw).map_err(|_| DecodeError::Invalid("length overflows"))?;
        match len.checked_mul(min_elem_bytes.max(1)) {
            Some(total) if total <= self.remaining() => Ok(len),
            _ => Err(DecodeError::Invalid("length exceeds remaining input")),
        }
    }

    /// Reads `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads `n` little-endian `u32`s in one bulk take. The whole
    /// column is validated (and the output sized exactly) up front, so
    /// the inner loop is a branch-free `chunks_exact` walk.
    pub fn take_u32_vec(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        let total = n
            .checked_mul(4)
            .ok_or(DecodeError::Invalid("column size overflows"))?;
        let bytes = self.take(total)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        Ok(out)
    }

    /// Reads `n` little-endian `u64`s in one bulk take.
    pub fn take_u64_vec(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        let total = n
            .checked_mul(8)
            .ok_or(DecodeError::Invalid("column size overflows"))?;
        let bytes = self.take(total)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        Ok(out)
    }

    /// Reads `n` `f64`s from raw bits in one bulk take (exact
    /// round-trip of every bit pattern, NaNs included).
    pub fn take_f64_vec(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let total = n
            .checked_mul(8)
            .ok_or(DecodeError::Invalid("column size overflows"))?;
        let bytes = self.take(total)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))),
        );
        Ok(out)
    }

    /// Verifies the input was consumed exactly.
    pub fn expect_empty(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Encoder::default();
        e.put_u8(7);
        e.put_u64(u64::MAX - 1);
        e.put_len(3);
        b"abc".iter().for_each(|&b| e.put_u8(b));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_bytes(1).unwrap(), [7]);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_len(1).unwrap(), 3);
        assert_eq!(d.take_bytes(3).unwrap(), b"abc");
        d.expect_empty().unwrap();
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let mut e = Encoder::default();
        e.put_u64(1);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..5]);
        match d.take_u64() {
            Err(DecodeError::Truncated {
                needed: 8,
                available: 5,
            }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn absurd_lengths_are_rejected() {
        let mut e = Encoder::default();
        e.put_len(usize::MAX / 2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(
            d.take_len(8),
            Err(DecodeError::Invalid("length exceeds remaining input"))
        );
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut e = Encoder::default();
        e.put_u64(1);
        e.put_u8(0);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.take_u64().unwrap();
        assert!(d.expect_empty().is_err());
    }

    #[test]
    fn bulk_columns_round_trip_and_match_scalar_layout() {
        let u32s = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let u64s = [0u64, 7, u64::MAX, 1 << 63];
        let f64s = [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::from_bits(0x7FF8_0000_0000_1234),
        ];
        let mut bulk = Encoder::default();
        bulk.put_u32_slice(&u32s);
        bulk.put_u64_slice(&u64s);
        bulk.put_f64_slice(&f64s);
        // The bulk writers must produce byte-for-byte the scalar
        // little-endian layout (the v2 container format depends on it).
        let mut scalar = Vec::new();
        u32s.iter()
            .for_each(|v| scalar.extend_from_slice(&v.to_le_bytes()));
        u64s.iter()
            .for_each(|v| scalar.extend_from_slice(&v.to_le_bytes()));
        f64s.iter()
            .for_each(|v| scalar.extend_from_slice(&v.to_bits().to_le_bytes()));
        let bytes = bulk.finish();
        assert_eq!(bytes, scalar);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u32_vec(4).unwrap(), u32s);
        assert_eq!(d.take_u64_vec(4).unwrap(), u64s);
        let back = d.take_f64_vec(4).unwrap();
        for (a, b) in back.iter().zip(f64s.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        d.expect_empty().unwrap();
    }

    #[test]
    fn bulk_reads_report_truncation() {
        let mut e = Encoder::default();
        e.put_u64_slice(&[1, 2, 3]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..20]);
        match d.take_u64_vec(3) {
            Err(DecodeError::Truncated {
                needed: 24,
                available: 20,
            }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
        let mut d = Decoder::new(&bytes);
        assert!(d.take_f64_vec(usize::MAX).is_err());
    }

    #[test]
    fn nan_bits_round_trip_exactly() {
        // A non-canonical NaN payload must survive (bits, not values).
        let weird_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut e = Encoder::default();
        e.put_f64_slice(&[weird_nan]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_f64_vec(1).unwrap()[0].to_bits(), weird_nan.to_bits());
    }
}
