/// Append-only MSB-first bit sink backed by a `Vec<u8>`.
///
/// Writes collect in a 64-bit accumulator that holds up to 63 pending
/// bits; each time it fills, the whole word goes to the byte vector in
/// one 8-byte append. Only [`align_to_byte`](Self::align_to_byte) (and
/// the calls built on it) flushes a partial word, so the hot encoding
/// loops of the compressors pay one shift-or per field.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bit accumulator; pending bits live in the *low* `pending` bits,
    /// and every bit above them is zero.
    acc: u64,
    /// Number of valid bits in `acc` (always < 64 between calls).
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` output bytes.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            pending: 0,
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// `width` must be ≤ 64. Bits of `value` above `width` are ignored.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        let value = if width < 64 {
            value & ((1u64 << width) - 1)
        } else {
            value
        };
        let total = self.pending + width;
        if total < 64 {
            // `width < 64` here, so the shift is in range.
            self.acc = (self.acc << width) | value;
            self.pending = total;
        } else {
            // Fill the word, emit it, keep the `total − 64` low bits left.
            let spill = total - 64;
            let room = 64 - self.pending; // 1..=64
            let word = (self.acc << (room - 1) << 1) | (value >> spill);
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value & !(u64::MAX << spill);
            self.pending = spill;
        }
    }

    /// Appends `value` as a two's-complement field of `width` bits.
    ///
    /// The caller must ensure the value fits, i.e.
    /// `bitio::signed_width(value) <= width` (checked in debug builds).
    #[inline]
    pub fn write_signed(&mut self, value: i64, width: u32) {
        debug_assert!((1..=64).contains(&width));
        debug_assert!(
            crate::signed_width(value) <= width,
            "value {value} does not fit in {width} signed bits"
        );
        self.write_bits(value as u64, width);
    }

    /// Pads with zero bits to the next byte boundary (no-op if aligned)
    /// and moves every pending byte into the output.
    pub fn align_to_byte(&mut self) {
        if self.pending == 0 {
            return;
        }
        let nbytes = self.pending.div_ceil(8) as usize;
        let word = self.acc << (64 - self.pending);
        self.bytes.extend_from_slice(&word.to_be_bytes()[..nbytes]);
        self.acc = 0;
        self.pending = 0;
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Finalizes the stream, zero-padding the final partial byte.
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_is_empty() {
        assert!(BitWriter::new().into_bytes().is_empty());
    }

    #[test]
    fn bit_len_counts_pending_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 14);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn long_field_spanning_accumulator() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(u64::MAX, 64); // forces the split path
        w.write_bits(0, 7);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes[0], 0b1111_1111);
        assert_eq!(bytes[8], 0b1000_0000);
    }

    #[test]
    fn partial_final_byte_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.into_bytes(), vec![0b1100_0000]);
    }
}
