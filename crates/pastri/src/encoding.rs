//! Fixed variable-length encoding trees for ECQ streams
//! (paper Sec. IV-C, Fig. 7).
//!
//! PaSTRI deliberately uses *fixed* prefix trees instead of Huffman
//! coding: no dictionary to ship, no serialization across blocks, and the
//! ECQ distribution shape (overwhelmingly zeros, thin tail of large
//! values) is known up front. Five trees were evaluated in the paper;
//! Tree 5 — adaptive between a 3-symbol code for `EC_{b,max} = 2` blocks
//! and Tree 3 otherwise — wins and is the default.
//!
//! All trees encode one `i64` ECQ value per symbol. "Others" leaves carry
//! the value verbatim in `EC_{b,max}` signed bits.

use bitio::{BitReader, BitWriter};

use crate::error::DecompressError;
use crate::quant::ecq_bits;

/// Census of an ECQ stream by Fig. 6 bin, with the 2-bit bin split by
/// sign: everything any tree needs to price the stream exactly (see
/// [`EncodingTree::cost_from_counts`]) without walking it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EcqCounts {
    /// `by_bits[b]` counts the values `v` with `ecq_bits(v) == b`.
    pub(crate) by_bits: [u64; 66],
    /// Values equal to `+1` (the rest of `by_bits[2]` are `−1`).
    plus_one: u64,
}

impl Default for EcqCounts {
    fn default() -> Self {
        Self {
            by_bits: [0; 66],
            plus_one: 0,
        }
    }
}

impl EcqCounts {
    /// Counts every value of `ecq`.
    #[cfg(test)]
    pub(crate) fn of(ecq: &[i64]) -> Self {
        let mut c = Self::default();
        for &v in ecq {
            c.record(v);
        }
        c
    }

    /// Counts one value.
    #[inline]
    pub(crate) fn record(&mut self, v: i64) {
        self.by_bits[ecq_bits(v) as usize] += 1;
        self.plus_one += u64::from(v == 1);
    }

    /// Values counted.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.by_bits.iter().sum()
    }

    /// Non-zero values counted.
    #[must_use]
    pub(crate) fn nonzero(&self) -> u64 {
        self.total() - self.by_bits[1]
    }

    /// `EC_{b,max}`: the widest bin holding a value (1 when empty).
    #[must_use]
    pub(crate) fn max_bits(&self) -> u32 {
        self.by_bits
            .iter()
            .rposition(|&n| n > 0)
            .map_or(1, |b| b as u32)
    }
}

/// Which ECQ encoding to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingTree {
    /// `0 → 0`, else `1` + value. Good baseline.
    Tree1,
    /// `0 → 0`, `1 → 10`, `-1 → 110`, else `111` + value. Worse: the
    /// "others" leaf sits too deep.
    Tree2,
    /// `0 → 0`, others `→ 10` + value, `1 → 110`, `-1 → 111`.
    Tree3,
    /// Bin-ladder: bin `i` gets prefix `1^{i-1} 0` plus `i−1` payload bits.
    Tree4,
    /// Adaptive (the paper's winner): the optimal 3-symbol tree when
    /// `EC_{b,max} = 2`, Tree 3 otherwise.
    #[default]
    Tree5,
    /// Plain fixed-length (every value in `EC_{b,max}` bits). Not in the
    /// paper's Fig. 7; used by the ablation benches as the no-tree control.
    FixedLength,
}

impl EncodingTree {
    /// Display name matching Fig. 7.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EncodingTree::Tree1 => "Tree 1",
            EncodingTree::Tree2 => "Tree 2",
            EncodingTree::Tree3 => "Tree 3",
            EncodingTree::Tree4 => "Tree 4",
            EncodingTree::Tree5 => "Tree 5",
            EncodingTree::FixedLength => "Fixed-length",
        }
    }

    /// 3-bit wire id for the container header.
    #[must_use]
    pub(crate) fn wire_id(&self) -> u8 {
        match self {
            EncodingTree::Tree1 => 0,
            EncodingTree::Tree2 => 1,
            EncodingTree::Tree3 => 2,
            EncodingTree::Tree4 => 3,
            EncodingTree::Tree5 => 4,
            EncodingTree::FixedLength => 5,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    #[must_use]
    pub(crate) fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => EncodingTree::Tree1,
            1 => EncodingTree::Tree2,
            2 => EncodingTree::Tree3,
            3 => EncodingTree::Tree4,
            4 => EncodingTree::Tree5,
            5 => EncodingTree::FixedLength,
            _ => return None,
        })
    }

    /// Cost in bits of encoding `v` under this tree with the given
    /// `EC_{b,max}` (used for the dense-vs-sparse decision without a
    /// second encoding pass).
    #[must_use]
    pub(crate) fn symbol_cost(&self, v: i64, ecb_max: u32) -> u64 {
        match self.resolve(ecb_max) {
            Resolved::Tri => match v {
                0 => 1,
                _ => 2,
            },
            Resolved::Tree1 => match v {
                0 => 1,
                _ => 1 + u64::from(ecb_max),
            },
            Resolved::Tree2 => match v {
                0 => 1,
                1 => 2,
                -1 => 3,
                _ => 3 + u64::from(ecb_max),
            },
            Resolved::Tree3 => match v {
                0 => 1,
                1 | -1 => 3,
                _ => 2 + u64::from(ecb_max),
            },
            Resolved::Tree4 => {
                let bits = ecq_bits(v);
                if bits == 1 {
                    1
                } else {
                    // prefix 1^{bits-1} 0, payload bits-1.
                    u64::from(bits) + u64::from(bits - 1)
                }
            }
            Resolved::Fixed => u64::from(ecb_max),
        }
    }

    /// Total cost in bits of a stream.
    #[must_use]
    pub fn stream_cost(&self, ecq: &[i64], ecb_max: u32) -> u64 {
        ecq.iter().map(|&v| self.symbol_cost(v, ecb_max)).sum()
    }

    /// Total cost in bits of the stream `counts` was taken over: equal
    /// to [`stream_cost`](Self::stream_cost) on that stream, in time
    /// independent of its length.
    #[must_use]
    pub(crate) fn cost_from_counts(&self, counts: &EcqCounts, ecb_max: u32) -> u64 {
        let zeros = counts.by_bits[1];
        let nonzero = counts.nonzero();
        let plus = counts.plus_one;
        let minus = counts.by_bits[2] - plus;
        let others = nonzero - plus - minus;
        let ecb = u64::from(ecb_max);
        match self.resolve(ecb_max) {
            Resolved::Tri => zeros + 2 * nonzero,
            Resolved::Tree1 => zeros + (1 + ecb) * nonzero,
            Resolved::Tree2 => zeros + 2 * plus + 3 * minus + (3 + ecb) * others,
            Resolved::Tree3 => zeros + 3 * (plus + minus) + (2 + ecb) * others,
            Resolved::Tree4 => {
                zeros
                    + (2..counts.by_bits.len() as u64)
                        .map(|b| counts.by_bits[b as usize] * (2 * b - 1))
                        .sum::<u64>()
            }
            Resolved::Fixed => ecb * (zeros + nonzero),
        }
    }

    /// Encodes a stream of ECQ values.
    ///
    /// Tree 5's two coders (the 3-symbol code and Tree 3) emit each
    /// symbol as one `(code, len)` field: prefix and value bits are
    /// packed first, so the writer sees one call per value.
    pub(crate) fn encode_stream(&self, ecq: &[i64], ecb_max: u32, w: &mut BitWriter) {
        match self.resolve(ecb_max) {
            Resolved::Tri => {
                for &v in ecq {
                    assert!((-1..=1).contains(&v), "EC_b,max = 2 stream contains {v}");
                    // 0 → `0`, 1 → `10`, −1 → `11`.
                    let nz = u64::from(v != 0);
                    w.write_bits((nz << 1) | u64::from(v < 0), 1 + nz as u32);
                }
            }
            Resolved::Tree1 => {
                for &v in ecq {
                    if v == 0 {
                        w.write_bit(false);
                    } else {
                        w.write_bit(true);
                        w.write_signed(v, ecb_max);
                    }
                }
            }
            Resolved::Tree2 => {
                for &v in ecq {
                    match v {
                        0 => w.write_bit(false),
                        1 => w.write_bits(0b10, 2),
                        -1 => w.write_bits(0b110, 3),
                        _ => {
                            w.write_bits(0b111, 3);
                            w.write_signed(v, ecb_max);
                        }
                    }
                }
            }
            Resolved::Tree3 => {
                // "Others" is `10` + the value's `EC_{b,max}`-bit two's
                // complement, one field while `2 + EC_{b,max} ≤ 64`.
                let mask = u64::MAX >> (64 - ecb_max.clamp(1, 64));
                for &v in ecq {
                    let (code, len) = match v {
                        0 => (0, 1),
                        1 => (0b110, 3),
                        -1 => (0b111, 3),
                        _ if ecb_max <= 62 => ((0b10 << ecb_max) | (v as u64 & mask), 2 + ecb_max),
                        _ => {
                            w.write_bits(0b10, 2);
                            w.write_signed(v, ecb_max);
                            continue;
                        }
                    };
                    w.write_bits(code, len);
                }
            }
            Resolved::Tree4 => {
                for &v in ecq {
                    let bits = ecq_bits(v);
                    if bits == 1 {
                        w.write_bit(false);
                        continue;
                    }
                    // Prefix: bits-1 ones then a zero.
                    for _ in 0..(bits - 1) {
                        w.write_bit(true);
                    }
                    w.write_bit(false);
                    // Payload: sign bit + (bits-2) offset bits from 2^{bits-2}.
                    w.write_bit(v < 0);
                    if bits > 2 {
                        let offset = v.unsigned_abs() - (1u64 << (bits - 2));
                        w.write_bits(offset, bits - 2);
                    }
                }
            }
            Resolved::Fixed => {
                for &v in ecq {
                    w.write_signed(v, ecb_max);
                }
            }
        }
    }

    /// Decodes `n` ECQ values into `out`.
    pub(crate) fn decode_stream(
        &self,
        n: usize,
        ecb_max: u32,
        r: &mut BitReader<'_>,
        out: &mut Vec<i64>,
    ) -> Result<(), DecompressError> {
        out.reserve(n);
        match self.resolve(ecb_max) {
            Resolved::Tri => {
                for _ in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else if !r.read_bit()? {
                        1
                    } else {
                        -1
                    };
                    out.push(v);
                }
            }
            Resolved::Tree1 => {
                for _ in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    out.push(v);
                }
            }
            Resolved::Tree2 => {
                for _ in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else if !r.read_bit()? {
                        1
                    } else if !r.read_bit()? {
                        -1
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    out.push(v);
                }
            }
            Resolved::Tree3 => {
                for _ in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else if !r.read_bit()? {
                        r.read_signed(ecb_max)?
                    } else if !r.read_bit()? {
                        1
                    } else {
                        -1
                    };
                    out.push(v);
                }
            }
            Resolved::Tree4 => {
                for _ in 0..n {
                    let mut bits = 1u32;
                    while r.read_bit()? {
                        bits += 1;
                        if bits > 64 {
                            return Err(DecompressError::corrupt("tree4 prefix overrun"));
                        }
                    }
                    if bits == 1 {
                        out.push(0);
                        continue;
                    }
                    let neg = r.read_bit()?;
                    let mag = if bits > 2 {
                        (1u64 << (bits - 2)) + r.read_bits(bits - 2)?
                    } else {
                        1
                    };
                    out.push(if neg { -(mag as i64) } else { mag as i64 });
                }
            }
            Resolved::Fixed => {
                for _ in 0..n {
                    out.push(r.read_signed(ecb_max)?);
                }
            }
        }
        Ok(())
    }

    /// Tree 5's adaptivity: resolve to the concrete coder for this block.
    fn resolve(&self, ecb_max: u32) -> Resolved {
        match self {
            EncodingTree::Tree1 => Resolved::Tree1,
            EncodingTree::Tree2 => Resolved::Tree2,
            EncodingTree::Tree3 => Resolved::Tree3,
            EncodingTree::Tree4 => Resolved::Tree4,
            EncodingTree::Tree5 => {
                if ecb_max <= 2 {
                    Resolved::Tri
                } else {
                    Resolved::Tree3
                }
            }
            EncodingTree::FixedLength => Resolved::Fixed,
        }
    }
}

/// Concrete per-block coder after Tree 5 adaptivity is resolved.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Tri,
    Tree1,
    Tree2,
    Tree3,
    Tree4,
    Fixed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::ecq_bits;

    fn roundtrip(tree: EncodingTree, ecq: &[i64]) {
        let ecb_max = ecq.iter().map(|&v| ecq_bits(v)).max().unwrap_or(1).max(2);
        let mut w = BitWriter::new();
        tree.encode_stream(ecq, ecb_max, &mut w);
        let cost = tree.stream_cost(ecq, ecb_max);
        assert_eq!(w.bit_len(), cost, "{}: cost model mismatch", tree.name());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        tree.decode_stream(ecq.len(), ecb_max, &mut r, &mut out).unwrap();
        assert_eq!(out, ecq, "{}", tree.name());
    }

    const ALL: [EncodingTree; 6] = [
        EncodingTree::Tree1,
        EncodingTree::Tree2,
        EncodingTree::Tree3,
        EncodingTree::Tree4,
        EncodingTree::Tree5,
        EncodingTree::FixedLength,
    ];

    #[test]
    fn roundtrip_all_trees() {
        let streams: Vec<Vec<i64>> = vec![
            vec![],
            vec![0, 0, 0, 0],
            vec![0, 1, -1, 0, 1],
            vec![0, 0, 5, -3, 0, 127, -128, 2, 0],
            vec![1000, -4096, 0, 7, 8, 15, 16, -17],
            (-40..40).collect(),
        ];
        for tree in ALL {
            for s in &streams {
                roundtrip(tree, s);
            }
        }
    }

    #[test]
    fn tree5_adapts_to_small_blocks() {
        // With only {-1,0,1}, Tree 5 must beat Tree 3 (2-bit vs 3-bit ±1).
        let ecq: Vec<i64> = (0..300).map(|i| [0, 1, -1][i % 3]).collect();
        let t5 = EncodingTree::Tree5.stream_cost(&ecq, 2);
        let t3 = EncodingTree::Tree3.stream_cost(&ecq, 2);
        assert!(t5 < t3, "tree5 {t5} vs tree3 {t3}");
        // 100 zeros (1 bit) + 200 ones (2 bits) = 500 bits.
        assert_eq!(t5, 500);
    }

    #[test]
    fn tree_costs_match_paper_structure() {
        // Relative ordering from the paper on a typical distribution:
        // mostly 0, a few ±1, and *more* larger values than +1s — the
        // paper's stated reason Tree 2 loses ("the occurrences of 1 are
        // not frequent enough to justify such rearrangement"). Tree 3 ≤
        // Tree 1, Tree 2 > Tree 3, Tree 5 ≤ all others.
        let mut ecq = vec![0i64; 10_000];
        for i in 0..20 {
            ecq[i * 25] = if i % 2 == 0 { 1 } else { -1 };
        }
        for i in 0..60 {
            ecq[i * 160 + 3] = 100 + i as i64 * 17;
        }
        let ecb = ecq.iter().map(|&v| ecq_bits(v)).max().unwrap();
        let cost =
            |t: EncodingTree| t.stream_cost(&ecq, ecb);
        assert!(cost(EncodingTree::Tree3) <= cost(EncodingTree::Tree1));
        assert!(cost(EncodingTree::Tree3) < cost(EncodingTree::Tree2));
        assert!(cost(EncodingTree::Tree5) <= cost(EncodingTree::Tree3));
        assert!(cost(EncodingTree::Tree5) < cost(EncodingTree::FixedLength));
    }

    #[test]
    fn tree4_bin_prefix_lengths() {
        // 0 -> 1 bit; ±1 -> '10'+sign = 3 bits; ±2..3 -> '110'+sign+1 = 5.
        assert_eq!(EncodingTree::Tree4.symbol_cost(0, 8), 1);
        assert_eq!(EncodingTree::Tree4.symbol_cost(1, 8), 3);
        assert_eq!(EncodingTree::Tree4.symbol_cost(-1, 8), 3);
        assert_eq!(EncodingTree::Tree4.symbol_cost(2, 8), 5);
        assert_eq!(EncodingTree::Tree4.symbol_cost(3, 8), 5);
        assert_eq!(EncodingTree::Tree4.symbol_cost(4, 8), 7);
    }

    #[test]
    fn wire_ids_roundtrip() {
        for t in ALL {
            assert_eq!(EncodingTree::from_wire_id(t.wire_id()), Some(t));
        }
        assert_eq!(EncodingTree::from_wire_id(6), None);
    }

    #[test]
    fn corrupt_tree4_prefix_detected() {
        // All-ones stream: prefix never terminates.
        let bytes = vec![0xffu8; 16];
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        let err = EncodingTree::Tree4.decode_stream(1, 8, &mut r, &mut out);
        assert!(err.is_err());
    }

    /// The fused ECQ census prices every tree exactly: for any stream and
    /// any `EC_{b,max}`, `cost_from_counts` over the stream's
    /// [`EcqCounts`] equals the per-symbol `stream_cost`, and the
    /// single-write encoder emits exactly that many bits and decodes back
    /// to the stream.
    mod census {
        use super::ALL;
        use crate::encoding::EcqCounts;
        use crate::quant::ecq_bits;
        use bitio::{BitReader, BitWriter};
        use proptest::prelude::*;

        /// A value from Fig. 6 bin `bits` (`1` is zero; bin `b ≥ 2` holds
        /// magnitudes `2^{b-2} ..= 2^{b-1} − 1`), with a random sign.
        fn from_bin(bits: u32, r: u64) -> i64 {
            if bits == 1 {
                return 0;
            }
            let lo = 1i64 << (bits - 2);
            let mag = lo + (r >> 2) as i64 % lo;
            if r & 1 == 0 {
                mag
            } else {
                -mag
            }
        }

        /// An ECQ stream whose values all fit `ecb_max` bits. `shape` picks the
        /// distribution: all zero; only `{0, ±1}` with the two signs at
        /// independent rates (Tree 2 prices them differently); PaSTRI-like
        /// (mostly zero, some ±1, a thin tail); or uniform over Tree 4's bins.
        fn stream(ecb_max: u32, shape: u8, len: usize, seed: u64) -> Vec<i64> {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let plus_rate = next() % 100;
            let minus_rate = next() % 100;
            (0..len)
                .map(|_| {
                    let r = next();
                    match shape {
                        0 => 0,
                        1 => match r % 200 {
                            p if p < plus_rate => 1,
                            p if p < plus_rate + minus_rate => -1,
                            _ => 0,
                        },
                        2 => match r % 100 {
                            0..=79 => 0,
                            80..=89 => 1,
                            90..=94 => -1,
                            _ => from_bin(2 + (next() % u64::from(ecb_max - 1)) as u32, next()),
                        },
                        _ => from_bin(1 + (r % u64::from(ecb_max)) as u32, next()),
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn cost_from_counts_equals_stream_cost(
                ecb_max in 2u32..=62,
                shape in 0u8..4,
                len in 0usize..600,
                seed in any::<u64>(),
            ) {
                let ecq = stream(ecb_max, shape, len, seed);
                let counts = EcqCounts::of(&ecq);
                prop_assert_eq!(counts.total(), len as u64);
                prop_assert_eq!(counts.nonzero(), ecq.iter().filter(|&&v| v != 0).count() as u64);
                prop_assert_eq!(counts.max_bits(), ecq.iter().map(|&v| ecq_bits(v)).max().unwrap_or(1));
                // The block encoder's width, and the wider one this stream was drawn for.
                let derived = counts.max_bits().max(2);
                for ecb in [derived, ecb_max] {
                    for tree in ALL {
                        prop_assert_eq!(
                            tree.cost_from_counts(&counts, ecb),
                            tree.stream_cost(&ecq, ecb),
                            "{} at EC_b,max {}", tree.name(), ecb
                        );
                    }
                }
            }

            #[test]
            fn encoder_writes_the_priced_bits_and_decodes_back(
                ecb_max in 2u32..=62,
                shape in 0u8..4,
                len in 0usize..400,
                seed in any::<u64>(),
                lead in 0u32..64,
            ) {
                let ecq = stream(ecb_max, shape, len, seed);
                let ecb = EcqCounts::of(&ecq).max_bits().max(2);
                for tree in ALL {
                    let mut w = BitWriter::new();
                    w.write_bits(0, lead); // start mid-word
                    tree.encode_stream(&ecq, ecb, &mut w);
                    prop_assert_eq!(w.bit_len(), u64::from(lead) + tree.stream_cost(&ecq, ecb), "{}", tree.name());
                    let bytes = w.into_bytes();
                    let mut r = BitReader::new(&bytes);
                    r.read_bits(lead).unwrap();
                    let mut back = Vec::new();
                    tree.decode_stream(ecq.len(), ecb, &mut r, &mut back).unwrap();
                    prop_assert_eq!(&back, &ecq, "{}", tree.name());
                }
            }
        }
    }
}
