use std::fmt;

/// Error returned when a read runs past the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    /// Bit offset at which the failed read started.
    pub at_bit: u64,
    /// Number of bits requested.
    pub wanted: u32,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit stream exhausted: wanted {} bits at bit offset {}",
            self.wanted, self.at_bit
        )
    }
}

impl std::error::Error for ReadError {}

/// MSB-first bit source over a byte slice; the inverse of
/// [`BitWriter`](crate::BitWriter).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at the first bit.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Total number of bits in the underlying buffer.
    #[must_use]
    pub(crate) fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Current bit offset from the start of the stream.
    #[must_use]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining until the end of the buffer.
    #[must_use]
    pub(crate) fn remaining(&self) -> u64 {
        self.bit_len() - self.pos
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, ReadError> {
        if self.pos >= self.bit_len() {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: 1,
            });
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads an unsigned field of `width` bits (MSB first). `width` ≤ 64.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, ReadError> {
        debug_assert!(width <= 64);
        if width == 0 {
            return Ok(0);
        }
        if self.remaining() < u64::from(width) {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: width,
            });
        }
        let mut out: u64 = 0;
        let mut left = width;
        while left > 0 {
            let byte_idx = (self.pos / 8) as usize;
            let bit_in_byte = (self.pos % 8) as u32;
            let avail = 8 - bit_in_byte;
            let take = avail.min(left);
            let byte = u64::from(self.bytes[byte_idx]);
            // Extract `take` bits starting at `bit_in_byte` (from MSB).
            let chunk = (byte >> (avail - take)) & ((1u64 << take) - 1);
            out = if take == 64 { chunk } else { (out << take) | chunk };
            self.pos += u64::from(take);
            left -= take;
        }
        Ok(out)
    }

    /// Reads a two's-complement signed field of `width` bits and
    /// sign-extends it. `width` must be in `1..=64`.
    #[inline]
    pub fn read_signed(&mut self, width: u32) -> Result<i64, ReadError> {
        debug_assert!((1..=64).contains(&width));
        let raw = self.read_bits(width)?;
        if width == 64 {
            return Ok(raw as i64);
        }
        let sign_bit = 1u64 << (width - 1);
        if raw & sign_bit != 0 {
            Ok((raw | !((1u64 << width) - 1)) as i64)
        } else {
            Ok(raw as i64)
        }
    }

    /// Advances to the next byte boundary (no-op if already aligned).
    pub fn align_to_byte(&mut self) {
        let rem = self.pos % 8;
        if rem != 0 {
            self.pos += 8 - rem;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn read_across_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write_bits(0b10110, 5);
        w.write_bits(0x1234_5678_9abc_def0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(5).unwrap(), 0b10110);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9abc_def0);
    }

    #[test]
    fn signed_extremes() {
        for width in 1..=64u32 {
            let lo = if width == 64 {
                i64::MIN
            } else {
                -(1i64 << (width - 1))
            };
            let hi = if width == 64 {
                i64::MAX
            } else {
                (1i64 << (width - 1)) - 1
            };
            for &v in &[lo, hi, 0.min(hi).max(lo)] {
                let mut w = BitWriter::new();
                w.write_signed(v, width);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_signed(width).unwrap(), v, "width={width}");
            }
        }
    }

    #[test]
    fn position_tracking() {
        let mut r = BitReader::new(&[0xab, 0xcd]);
        assert_eq!(r.bit_len(), 16);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        r.align_to_byte();
        assert_eq!(r.bit_pos(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xcd);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn error_reports_position() {
        let mut r = BitReader::new(&[0xff]);
        r.read_bits(6).unwrap();
        let err = r.read_bits(10).unwrap_err();
        assert_eq!(err.at_bit, 6);
        assert_eq!(err.wanted, 10);
        assert!(err.to_string().contains("exhausted"));
    }
}
