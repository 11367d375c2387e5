/// Bits of symbols [`BitWriter::write_codes`] packs between two stores:
/// with up to 7 bits carried over, a group fills at most 63 of the
/// accumulator's 64.
pub const GROUP_BITS: u32 = 56;

/// Append-only MSB-first bit sink backed by a `Vec<u8>`.
///
/// Writes collect in a 64-bit accumulator that holds up to 63 pending
/// bits; each time it fills, the whole word goes to the byte vector in
/// one 8-byte append. Only [`align_to_byte`](Self::align_to_byte) (and
/// the calls built on it) and [`write_codes`](Self::write_codes) flush a
/// partial word, so the hot encoding loops of the compressors pay one
/// shift-or per field.
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

    /// Appends a run of prefix-code symbols: the top `lens[i]` bits of
    /// each `codes[i]`, in order. Each code is *top-aligned*: its first
    /// bit is bit 63 and every bit below its length is zero. Every length
    /// is at most `max_len`.
    ///
    /// The pending bits go out first as whole bytes, so at most 7 stay in
    /// the accumulator. Symbols then go into it [`GROUP_BITS`]` / max_len`
    /// at a time with one shift-or each, and each group leaves with one
    /// 8-byte store that advances by the whole bytes it filled: no test
    /// per symbol of whether the accumulator is full. The at most 7 bits
    /// past the last whole byte stay pending.
    ///
    /// # Panics
    /// If the slices differ in length or `max_len` is not in
    /// `1..=GROUP_BITS`; in debug builds, also if a length exceeds
    /// `max_len` or a code has a bit below its length.
    #[inline(always)]
    pub fn write_codes(&mut self, codes: &[u64], lens: &[u8], max_len: u32) {
        assert_eq!(codes.len(), lens.len(), "one length per code");
        assert!(
            (1..=GROUP_BITS).contains(&max_len),
            "symbol length {max_len} exceeds a group"
        );
        let group = (GROUP_BITS / max_len) as usize;
        // Top-align the pending bits and flush their whole bytes.
        let mut acc = self.acc << (63 - self.pending) << 1;
        let whole = self.pending / 8;
        self.bytes
            .extend_from_slice(&acc.to_be_bytes()[..whole as usize]);
        acc <<= 8 * whole;
        let mut fill = self.pending % 8;
        // Room for the whole bytes this run fills, plus the 8 bytes the
        // last group's store touches; the surplus is cut off below.
        let bits = u64::from(fill) + lens.iter().map(|&l| u64::from(l)).sum::<u64>();
        let start = self.bytes.len();
        self.bytes.resize(start + (bits / 8) as usize + 8, 0);
        let out = &mut self.bytes[start..];
        let mut pos = 0;
        let mut put = |group_codes: &[u64], group_lens: &[u8]| {
            // `fill` stays below 8 + (group − 1)·max_len ≤ 63 before each
            // shift, and the group ends with at most 63 bits in `acc`.
            for (&code, &len) in group_codes.iter().zip(group_lens) {
                debug_assert!(u32::from(len) <= max_len && code << len == 0);
                acc |= code >> fill;
                fill += u32::from(len);
            }
            out[pos..pos + 8].copy_from_slice(&acc.to_be_bytes());
            let advance = fill / 8;
            pos += advance as usize;
            acc <<= 8 * advance;
            fill %= 8;
        };
        let (mut code_groups, mut len_groups) =
            (codes.chunks_exact(group), lens.chunks_exact(group));
        for (group_codes, group_lens) in (&mut code_groups).zip(&mut len_groups) {
            put(group_codes, group_lens);
        }
        put(code_groups.remainder(), len_groups.remainder());
        self.bytes.truncate(start + pos);
        self.acc = acc >> (63 - fill) >> 1;
        self.pending = fill;
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

    /// `write_codes` writes what one `write_bits` per symbol writes, from
    /// every pending-bit count, and leaves the writer ready for more.
    #[test]
    fn write_codes_matches_write_bits_at_every_start_offset() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for max_len in [1, 2, 3, 5, 8, 13, 28, 29, 55, 56] {
            for lead in 0..64 {
                for n in [0, 1, 7, 100, 257] {
                    let lens: Vec<u8> = (0..n)
                        .map(|_| (next() % u64::from(max_len + 1)) as u8)
                        .collect();
                    let fields: Vec<u64> = lens.iter().map(|&l| next() & mask(l)).collect();
                    let codes: Vec<u64> = fields
                        .iter()
                        .zip(&lens)
                        .map(|(&f, &l)| top_align(f, l))
                        .collect();
                    let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
                    for w in [&mut fast, &mut slow] {
                        w.write_bits(0x5a5a_5a5a_5a5a_5a5a, lead);
                    }
                    fast.write_codes(&codes, &lens, max_len);
                    for (&f, &l) in fields.iter().zip(&lens) {
                        slow.write_bits(f, u32::from(l));
                    }
                    assert_eq!(
                        fast.bit_len(),
                        slow.bit_len(),
                        "max_len {max_len} lead {lead} n {n}"
                    );
                    assert!(fast.pending < 8 || n == 0, "whole bytes left pending");
                    for w in [&mut fast, &mut slow] {
                        w.write_bits(0b1011, 4);
                    }
                    assert_eq!(
                        fast.into_bytes(),
                        slow.into_bytes(),
                        "max_len {max_len} lead {lead} n {n}"
                    );
                }
            }
        }
    }

    fn mask(len: u8) -> u64 {
        if len == 0 {
            0
        } else {
            u64::MAX >> (64 - u32::from(len))
        }
    }

    fn top_align(field: u64, len: u8) -> u64 {
        if len == 0 {
            0
        } else {
            field << (64 - u32::from(len))
        }
    }

    #[test]
    #[should_panic(expected = "exceeds a group")]
    fn write_codes_refuses_symbols_wider_than_a_group() {
        BitWriter::new().write_codes(&[0], &[57], 57);
    }

    #[test]
    fn partial_final_byte_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.into_bytes(), vec![0b1100_0000]);
    }
}
