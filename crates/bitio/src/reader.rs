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

/// Bits of the stream [`BitReader::peek_word`] guarantees: a byte-aligned
/// 8-byte load shifted left by the cursor's offset within its byte
/// keeps at least `64 − 7` of them.
pub const PEEK_BITS: u32 = 57;

/// MSB-first bit source over a byte slice; the inverse of
/// [`BitWriter`](crate::BitWriter).
///
/// Reads are word loads: [`read_bits`](Self::read_bits) fetches the 8
/// bytes around the cursor as one big-endian `u64` and shifts the field
/// out, splitting fields wider than [`PEEK_BITS`] in two.
/// [`peek_word`](Self::peek_word) exposes that load, zero-padded past the
/// end of the buffer, so a decoder can take several symbols from one
/// word and then commit them with the checked [`skip`](Self::skip).
/// Every load goes through `slice::get`, so nothing reads outside the
/// buffer, and a failed read leaves the cursor where it was.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`; never past its end.
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

    /// The stream from the cursor on, MSB-aligned. The top
    /// [`PEEK_BITS`] bits (or more) are the stream's next bits; bits past
    /// the end of the buffer, and any below the valid ones, read as
    /// zero. Does not move the cursor.
    #[inline]
    #[must_use]
    pub fn peek_word(&self) -> u64 {
        let at = (self.pos / 8) as usize;
        let word = match self.bytes.get(at..at + 8) {
            Some(eight) => u64::from_be_bytes(eight.try_into().expect("8-byte slice")),
            None => {
                let tail = self.bytes.get(at..).unwrap_or_default();
                let mut buf = [0u8; 8];
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos % 8)
    }

    /// Advances the cursor by `n` bits, or fails without moving it when
    /// fewer than `n` remain.
    #[inline]
    pub fn skip(&mut self, n: u32) -> Result<(), ReadError> {
        self.check(n)?;
        self.pos += u64::from(n);
        Ok(())
    }

    /// Fails when fewer than `width` bits remain.
    #[inline]
    fn check(&self, width: u32) -> Result<(), ReadError> {
        if self.remaining() < u64::from(width) {
            return Err(ReadError {
                at_bit: self.pos,
                wanted: width,
            });
        }
        Ok(())
    }

    /// Takes a field of `width` (`1..=PEEK_BITS`) bits the caller has
    /// checked are there.
    #[inline]
    fn take(&mut self, width: u32) -> u64 {
        let v = self.peek_word() >> (64 - width);
        self.pos += u64::from(width);
        v
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, ReadError> {
        self.check(1)?;
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
        self.check(width)?;
        if width > PEEK_BITS {
            // One word holds only `PEEK_BITS` sure bits: take the top 32
            // first, then the remaining 26..=32.
            let hi = self.take(32);
            return Ok((hi << (width - 32)) | self.take(width - 32));
        }
        Ok(self.take(width))
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

    /// The reader's contract against the writer, at every lead offset:
    /// fields of widths 0..=64 (the split above `PEEK_BITS` included)
    /// read back what was written; a read that runs past the end fails
    /// with its own start and width and leaves the cursor where it was;
    /// and `peek_word` near the end reads zeros, never the bytes that
    /// follow the slice.
    mod contract {
        use crate::{BitReader, BitWriter, ReadError};
        use proptest::prelude::*;

        fn low(v: u64, width: u32) -> u64 {
            v & u64::MAX.checked_shr(64 - width).unwrap_or(0)
        }

        proptest! {
            #[test]
            fn fields_roundtrip_and_overruns_fail_in_place(
                lead in 0u32..64,
                fields in proptest::collection::vec((0u32..=64, any::<u64>()), 0..48),
                cut in any::<u64>(),
            ) {
                let mut w = BitWriter::new();
                w.write_bits(u64::MAX, lead);
                let mut starts = Vec::with_capacity(fields.len());
                for &(width, v) in &fields {
                    starts.push(w.bit_len());
                    w.write_bits(v, width);
                }
                let end = w.bit_len();
                let bytes = w.into_bytes();
                let bit_len = bytes.len() as u64 * 8;

                let mut r = BitReader::new(&bytes);
                prop_assert_eq!(r.read_bits(lead).unwrap(), low(u64::MAX, lead));
                for &(width, v) in &fields {
                    prop_assert_eq!(r.read_bits(width).unwrap(), low(v, width));
                }
                prop_assert_eq!(r.bit_pos(), end);
                let pad = (bit_len - end) as u32;
                let overrun = ReadError { at_bit: end, wanted: pad + 1 };
                prop_assert_eq!(r.read_bits(pad + 1), Err(overrun));
                prop_assert_eq!(r.skip(pad + 1), Err(overrun));
                prop_assert_eq!(r.bit_pos(), end);
                r.skip(pad).unwrap();
                let overrun = ReadError { at_bit: bit_len, wanted: 1 };
                prop_assert_eq!(r.read_bit(), Err(overrun));
                prop_assert_eq!(r.read_signed(1), Err(overrun));
                prop_assert_eq!(r.peek_word(), 0);

                // Cut at a byte boundary: every field before the cut reads
                // back, and the first one across it fails in place.
                let limit = cut % (bit_len / 8 + 1) * 8;
                let mut r = BitReader::new(&bytes[..(limit / 8) as usize]);
                let fields = std::iter::once((0, (lead, u64::MAX)))
                    .chain(starts.iter().copied().zip(fields.iter().copied()));
                for (start, (width, v)) in fields {
                    prop_assert_eq!(r.bit_pos(), start);
                    if start + u64::from(width) <= limit {
                        prop_assert_eq!(r.read_bits(width).unwrap(), low(v, width));
                        continue;
                    }
                    let overrun = ReadError { at_bit: start, wanted: width };
                    prop_assert_eq!(r.read_bits(width), Err(overrun));
                    prop_assert_eq!(r.read_signed(width), Err(overrun));
                    prop_assert_eq!(r.skip(width), Err(overrun));
                    prop_assert_eq!(r.bit_pos(), start);
                    // What is left of the field still reads.
                    let rest = (limit - start) as u32;
                    prop_assert_eq!(r.read_bits(rest).unwrap(), low(v, width) >> (width - rest));
                    break;
                }
            }

            #[test]
            fn peek_word_near_the_end_stays_in_the_slice(
                bytes in proptest::collection::vec(any::<u8>(), 0..24),
            ) {
                // The slice is followed by set bits the reader must not see.
                let mut backing = bytes.clone();
                backing.extend_from_slice(&[0xff; 8]);
                let bit_len = bytes.len() as u64 * 8;
                let bit = |i: u64| i < bit_len && (bytes[(i / 8) as usize] >> (7 - i % 8)) & 1 == 1;
                for pos in bit_len.saturating_sub(64)..=bit_len {
                    let mut r = BitReader::new(&backing[..bytes.len()]);
                    r.skip(pos as u32).unwrap();
                    let want = (0..64 - pos % 8)
                        .filter(|&i| bit(pos + i))
                        .fold(0u64, |acc, i| acc | 1 << (63 - i));
                    prop_assert_eq!(r.peek_word(), want, "pos {}", pos);
                    prop_assert_eq!(r.bit_pos(), pos);
                }
            }
        }
    }
}
