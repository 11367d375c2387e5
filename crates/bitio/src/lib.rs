//! MSB-first bit-level I/O.
//!
//! Every compressor in this workspace (PaSTRI, the SZ-style and ZFP-style
//! baselines, the lossless codecs) serializes variable-width fields into a
//! byte stream. This crate provides the two shared primitives:
//!
//! * [`BitWriter`] — append bits/fields to a growable byte buffer,
//! * [`BitReader`] — consume them back in the same order.
//!
//! Both sides move whole words. The writer packs fields into a 64-bit
//! accumulator and appends it 8 bytes at a time; the reader serves each
//! field from one bounds-checked 8-byte big-endian load and a shift.
//! For decoders that take several symbols per load, the reader also
//! offers [`BitReader::peek_word`] (at least [`PEEK_BITS`] upcoming bits,
//! zero-padded past the end) and the checked [`BitReader::skip`] that
//! commits what was consumed. Its counterpart on the writer,
//! [`BitWriter::write_codes`], packs a run of prefix-code symbols the
//! caller has already top-aligned, a group at a time with one 8-byte
//! store per group.
//!
//! Bits are packed MSB-first within each byte: the first bit written becomes
//! the most significant bit of the first byte. Multi-bit fields are written
//! most-significant-bit first, so a field value `0b101` written with width 3
//! appears in the stream as the bit sequence `1, 0, 1`.
//!
//! Signed fields use two's-complement truncated to the field width; the
//! reader sign-extends. Widths of 0 are legal no-ops for unsigned fields and
//! write/read nothing.
//!
//! # Example
//!
//! ```
//! use bitio::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bit(true);
//! w.write_bits(0b1011, 4);
//! w.write_signed(-3, 5);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bit().unwrap(), true);
//! assert_eq!(r.read_bits(4).unwrap(), 0b1011);
//! assert_eq!(r.read_signed(5).unwrap(), -3);
//! ```

mod reader;
mod writer;

pub use reader::{BitReader, ReadError, PEEK_BITS};
pub use writer::{BitWriter, GROUP_BITS};

/// Number of bits needed to represent `v` distinct values (`ceil(log2(v))`),
/// with `bits_for(0) == 0` and `bits_for(1) == 0`.
///
/// Used by the compressors to size index fields (e.g. sparse-outlier indices
/// within a block of known size).
#[inline]
#[must_use]
pub fn bits_for(v: u64) -> u32 {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros()
    }
}

/// Minimum field width (in bits) that can hold the signed value `v` in
/// two's complement, including the sign bit. `signed_width(0) == 1`.
#[inline]
#[must_use]
pub fn signed_width(v: i64) -> u32 {
    if v >= 0 {
        // need one extra bit for the sign
        64 - (v as u64).leading_zeros() + 1
    } else {
        64 - (!(v as u64)).leading_zeros() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn signed_width_edge_cases() {
        assert_eq!(signed_width(0), 1);
        assert_eq!(signed_width(1), 2);
        assert_eq!(signed_width(-1), 1);
        assert_eq!(signed_width(-2), 2);
        assert_eq!(signed_width(3), 3);
        assert_eq!(signed_width(-4), 3);
        assert_eq!(signed_width(i64::MAX), 64);
        assert_eq!(signed_width(i64::MIN), 64);
    }

    #[test]
    fn roundtrip_mixed_fields() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(0xdead, 16);
        w.write_signed(-12345, 17);
        w.write_bits(0, 0); // zero-width no-op
        w.write_bit(false);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(16).unwrap(), 0xdead);
        assert_eq!(r.read_signed(17).unwrap(), -12345);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn msb_first_packing() {
        let mut w = BitWriter::new();
        // 1, then 0b0000001 -> byte should be 0b1000_0001
        w.write_bit(true);
        w.write_bits(1, 7);
        assert_eq!(w.into_bytes(), vec![0b1000_0001]);
    }

    #[test]
    fn align_to_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.align_to_byte();
        w.write_bits(0xff, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_0000, 0xff]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
    }

    #[test]
    fn reader_eof() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
    }
}
