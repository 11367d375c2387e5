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

use bitio::{BitReader, BitWriter, GROUP_BITS, PEEK_BITS};

use crate::error::DecompressError;
use crate::quant::ecq_bits;

/// The integer census of an ECQ stream that the compressor takes as it
/// quantizes: enough to pick `EC_{b,max}` and to price the stream under
/// every tree but Tree 4 (see [`EncodingTree::cost_from_census`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EcqCensus {
    /// Values counted.
    pub(crate) total: u64,
    pub(crate) zeros: u64,
    pub(crate) plus_one: u64,
    pub(crate) minus_one: u64,
    /// `EC_{b,max}`: the widest value's Fig. 6 bin (1 when empty).
    pub(crate) max_bits: u32,
}

impl Default for EcqCensus {
    fn default() -> Self {
        Self {
            total: 0,
            zeros: 0,
            plus_one: 0,
            minus_one: 0,
            max_bits: 1,
        }
    }
}

impl EcqCensus {
    /// Counts one value.
    #[inline]
    pub(crate) fn record(&mut self, v: i64) {
        self.total += 1;
        self.zeros += u64::from(v == 0);
        self.plus_one += u64::from(v == 1);
        self.minus_one += u64::from(v == -1);
        self.max_bits = self.max_bits.max(ecq_bits(v));
    }

    /// Adds the census of a further stretch of the stream.
    #[inline]
    pub(crate) fn merge(&mut self, other: &Self) {
        self.total += other.total;
        self.zeros += other.zeros;
        self.plus_one += other.plus_one;
        self.minus_one += other.minus_one;
        self.max_bits = self.max_bits.max(other.max_bits);
    }

    /// Non-zero values counted.
    #[must_use]
    pub(crate) fn nonzero(&self) -> u64 {
        self.total - self.zeros
    }
}

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

    /// `EC_{b,max}`: the widest bin holding a value (1 when empty).
    #[must_use]
    pub(crate) fn max_bits(&self) -> u32 {
        self.by_bits
            .iter()
            .rposition(|&n| n > 0)
            .map_or(1, |b| b as u32)
    }

    /// The integer census these counts refine.
    #[must_use]
    pub(crate) fn census(&self) -> EcqCensus {
        EcqCensus {
            total: self.total(),
            zeros: self.by_bits[1],
            plus_one: self.plus_one,
            minus_one: self.by_bits[2] - self.plus_one,
            max_bits: self.max_bits(),
        }
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
        self.cost_from_census(&counts.census(), ecb_max)
            .unwrap_or_else(|| {
                counts.by_bits[1]
                    + (2..counts.by_bits.len() as u64)
                        .map(|b| counts.by_bits[b as usize] * (2 * b - 1))
                        .sum::<u64>()
            })
    }

    /// Total cost in bits of the stream `census` was taken over, for
    /// every tree but Tree 4, whose prefix length grows with each value's
    /// bin: pricing it takes the full [`EcqCounts`] histogram (`None`).
    #[must_use]
    pub(crate) fn cost_from_census(&self, census: &EcqCensus, ecb_max: u32) -> Option<u64> {
        let zeros = census.zeros;
        let nonzero = census.nonzero();
        let (plus, minus) = (census.plus_one, census.minus_one);
        let others = nonzero - plus - minus;
        let ecb = u64::from(ecb_max);
        Some(match self.resolve(ecb_max) {
            Resolved::Tri => zeros + 2 * nonzero,
            Resolved::Tree1 => zeros + (1 + ecb) * nonzero,
            Resolved::Tree2 => zeros + 2 * plus + 3 * minus + (3 + ecb) * others,
            Resolved::Tree3 => zeros + 3 * (plus + minus) + (2 + ecb) * others,
            Resolved::Tree4 => return None,
            Resolved::Fixed => ecb * (zeros + nonzero),
        })
    }

    /// Encodes a stream of ECQ values.
    ///
    /// Tree 5's two coders (the 3-symbol code and Tree 3 while its
    /// longest symbol fits a [`GROUP_BITS`] group) go through the
    /// two-pass emitter ([`emit_two_pass`]); the other trees, and Tree 3
    /// at a wider `EC_{b,max}`, write symbol by symbol. Inlined into each
    /// build of the block compressor.
    #[inline(always)]
    pub(crate) fn encode_stream(&self, ecq: &[i64], ecb_max: u32, w: &mut BitWriter) {
        match self.resolve(ecb_max) {
            Resolved::Tri => {
                let bad = ecq.iter().fold(false, |bad, &v| bad | !(-1..=1).contains(&v));
                if bad {
                    let v = ecq.iter().find(|v| !(-1..=1).contains(*v)).expect("a value out of range");
                    panic!("EC_b,max = 2 stream contains {v}");
                }
                // 0 → `0`, 1 → `10`, −1 → `11`.
                emit_two_pass(ecq, 2, w, |v| {
                    let nz = u64::from(v != 0);
                    ((nz << 63) | (u64::from(v < 0) << 62), 1 + nz as u8)
                });
            }
            Resolved::Tree3 if 2 + ecb_max <= GROUP_BITS => {
                // 0 → `0`, 1 → `110`, −1 → `111`, others `10` + the
                // value's `EC_{b,max}`-bit two's complement.
                let other_len = 2 + ecb_max as u8;
                let payload_shift = 64 - ecb_max;
                emit_two_pass(ecq, 2 + ecb_max, w, |v| {
                    let one = v.unsigned_abs() == 1;
                    let others = (1 << 63) | ((v as u64) << payload_shift >> 2);
                    let ones = (0b110 << 61) | (u64::from(v < 0) << 61);
                    match (v == 0, one) {
                        (true, _) => (0, 1),
                        (false, true) => (ones, 3),
                        (false, false) => (others, other_len),
                    }
                });
            }
            _ => self.encode_per_symbol(ecq, ecb_max, w),
        }
    }

    /// [`encode_stream`](Self::encode_stream) for the trees that write
    /// symbol by symbol.
    fn encode_per_symbol(&self, ecq: &[i64], ecb_max: u32, w: &mut BitWriter) {
        match self.resolve(ecb_max) {
            Resolved::Tri => unreachable!("emitted in two passes"),
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
                // "Others" too wide for a group: `10`, then the value.
                for &v in ecq {
                    match v {
                        0 => w.write_bit(false),
                        1 => w.write_bits(0b110, 3),
                        -1 => w.write_bits(0b111, 3),
                        _ => {
                            w.write_bits(0b10, 2);
                            w.write_signed(v, ecb_max);
                        }
                    }
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

    /// Decodes `n` ECQ values, handing value `i` to `emit(i, v)` in
    /// order.
    ///
    /// Tree 5's two coders (the 3-symbol code and Tree 3) decode from a
    /// bit reservoir ([`Prefix3Walk`]); the other trees read symbol by
    /// symbol. On error `emit` may already have seen values decoded from
    /// bits past the end of the stream; the caller discards them.
    pub(crate) fn decode_stream(
        &self,
        n: usize,
        ecb_max: u32,
        r: &mut BitReader<'_>,
        mut emit: impl FnMut(usize, i64),
    ) -> Result<(), DecompressError> {
        if let Some(mut walk) = self.prefix3_walk(n, ecb_max, r.clone()) {
            walk.finish(&mut emit)?;
            *r = walk.r;
            return Ok(());
        }
        match self.resolve(ecb_max) {
            Resolved::Tri | Resolved::Tree3 => unreachable!("walked above"),
            Resolved::Tree1 => {
                for i in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    emit(i, v);
                }
            }
            Resolved::Tree2 => {
                for i in 0..n {
                    let v = if !r.read_bit()? {
                        0
                    } else if !r.read_bit()? {
                        1
                    } else if !r.read_bit()? {
                        -1
                    } else {
                        r.read_signed(ecb_max)?
                    };
                    emit(i, v);
                }
            }
            Resolved::Tree4 => {
                for i in 0..n {
                    let mut bits = 1u32;
                    while r.read_bit()? {
                        bits += 1;
                        if bits > 64 {
                            return Err(DecompressError::corrupt("tree4 prefix overrun"));
                        }
                    }
                    if bits == 1 {
                        emit(i, 0);
                        continue;
                    }
                    let neg = r.read_bit()?;
                    let mag = if bits > 2 {
                        (1u64 << (bits - 2)) + r.read_bits(bits - 2)?
                    } else {
                        1
                    };
                    emit(i, if neg { -(mag as i64) } else { mag as i64 });
                }
            }
            Resolved::Fixed => {
                for i in 0..n {
                    emit(i, r.read_signed(ecb_max)?);
                }
            }
        }
        Ok(())
    }

    /// The reservoir walk of an `n`-symbol stream at `r` when this tree
    /// resolves to one of Tree 5's two coders at `ecb_max`; `None` for
    /// the trees that read symbol by symbol.
    pub(crate) fn prefix3_walk<'a>(
        &self,
        n: usize,
        ecb_max: u32,
        r: BitReader<'a>,
    ) -> Option<Prefix3Walk<'a>> {
        let code = match self.resolve(ecb_max) {
            Resolved::Tri => Prefix3::TRI,
            Resolved::Tree3 => Prefix3::tree3(ecb_max),
            _ => return None,
        };
        Some(Prefix3Walk::new(code, n, ecb_max, r))
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

/// ECQ codes per chunk of [`emit_two_pass`]: its scratch stays on the
/// stack whatever the block size.
const CHUNK: usize = 256;

/// Writes `ecq` under a prefix code whose symbols are at most `max_len ≤
/// GROUP_BITS` bits, in two passes over each chunk of [`CHUNK`] codes.
/// The first maps each code through `symbol` to its top-aligned bits and
/// length, with no branch, so it vectorizes; the second packs them with
/// [`BitWriter::write_codes`], whose accumulator stays in a register.
#[inline(always)]
fn emit_two_pass(ecq: &[i64], max_len: u32, w: &mut BitWriter, symbol: impl Fn(i64) -> (u64, u8)) {
    let mut codes = [0u64; CHUNK];
    let mut lens = [0u8; CHUNK];
    for chunk in ecq.chunks(CHUNK) {
        let (codes, lens) = (&mut codes[..chunk.len()], &mut lens[..chunk.len()]);
        for ((code, len), &v) in codes.iter_mut().zip(lens.iter_mut()).zip(chunk) {
            (*code, *len) = symbol(v);
        }
        w.write_codes(codes, lens, max_len);
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

/// A prefix code whose symbol is fixed by its first three bits: Tree 5's
/// two coders. Indexed by those three bits, byte `top` of `lens` is the
/// symbol's length and `val[top]` its value. Where `other_mask[top]` is
/// all ones the value is instead the `EC_{b,max}`-bit two's complement
/// after a 2-bit prefix, and `val` holds 0.
#[derive(Clone, Copy)]
struct Prefix3 {
    /// One length per byte, so the decode loop's critical path reads a
    /// length with a shift rather than a dependent load.
    lens: u64,
    val: [i64; 8],
    other_mask: [i64; 8],
}

impl Prefix3 {
    /// `0 → 0`, `10 → 1`, `11 → −1`.
    const TRI: Self = Self {
        lens: pack([1, 1, 1, 1, 2, 2, 2, 2]),
        val: [0, 0, 0, 0, 1, 1, -1, -1],
        other_mask: [0; 8],
    };

    /// `0 → 0`, `10` + value, `110 → 1`, `111 → −1`.
    fn tree3(ecb_max: u32) -> Self {
        let other = 2 + ecb_max;
        Self {
            lens: pack([1, 1, 1, 1, other, other, 3, 3]),
            val: [0, 0, 0, 0, 0, 0, 1, -1],
            other_mask: [0, 0, 0, 0, -1, -1, 0, 0],
        }
    }

    /// The longest symbol's length.
    fn max_len(&self) -> u32 {
        (0..8).map(|k| ((self.lens >> (8 * k)) & 0xff) as u32).max().unwrap_or(0)
    }

    /// Decodes the symbol at the top of `word`, an "others" payload
    /// shifted down by `payload_shift = 64 − EC_{b,max}`, then shifts
    /// `word` past it and `marker` left by its length.
    #[inline(always)]
    fn decode(&self, payload_shift: u32, word: &mut u64, marker: &mut u64) -> i64 {
        let top = (*word >> 61) as usize;
        // Byte `top` of `lens`: shift by `8 · top`.
        let len = (self.lens >> ((*word >> 58) & 0x38)) & 0xff;
        let payload = ((*word << 2) as i64) >> payload_shift;
        let v = (payload & self.other_mask[top]) | self.val[top];
        *word <<= len;
        *marker <<= len;
        v
    }
}

/// Packs eight lengths (each < 256) into the bytes of a `u64`, entry `k`
/// in byte `k`.
const fn pack(lens: [u32; 8]) -> u64 {
    let mut packed = 0;
    let mut k = 0;
    while k < 8 {
        packed |= (lens[k] as u64) << (8 * k);
        k += 1;
    }
    packed
}

/// One stream of a [`Prefix3`] code being decoded from a bit reservoir.
///
/// Each step takes one [`BitReader::peek_word`] and decodes a fixed
/// `k = PEEK_BITS / max_len` symbols from it, each branch-free from the
/// word's top three bits, with no test of whether the next symbol fits:
/// `k` of the longest symbols do. A marker bit shifted along with the
/// word counts the bits they took, and one checked [`BitReader::skip`]
/// commits them. Bits past the end of the stream peek as zero, so a
/// truncated stream decodes padding into the reservoir, and that `skip`
/// is what turns it into `Truncated`. A code whose longest symbol is
/// wider than a peeked word (Tree 3's "others" at `EC_{b,max} > 55`)
/// has `k = 0` and decodes one symbol at a time, reading such a symbol
/// with checked field reads.
///
/// Each symbol's length must be known before the next can be read, so
/// one stream keeps the core waiting on that chain; [`walk_pair`] runs
/// two independent chains in one loop.
pub(crate) struct Prefix3Walk<'a> {
    code: Prefix3,
    ecb_max: u32,
    /// Symbols per step; 0 when the longest symbol exceeds a word.
    k: usize,
    /// Index of the next symbol.
    next: usize,
    n: usize,
    /// At the next symbol's first bit.
    r: BitReader<'a>,
}

impl<'a> Prefix3Walk<'a> {
    fn new(code: Prefix3, n: usize, ecb_max: u32, r: BitReader<'a>) -> Self {
        debug_assert!((1..=64).contains(&ecb_max));
        Self {
            code,
            ecb_max,
            k: (PEEK_BITS / code.max_len()) as usize,
            next: 0,
            n,
            r,
        }
    }

    /// Whether a full step of `k` symbols remains.
    #[inline(always)]
    fn has_full_step(&self) -> bool {
        self.k != 0 && self.n - self.next >= self.k
    }

    /// Decodes the next `count ≤ k` symbols from one peeked word.
    #[inline(always)]
    fn step(&mut self, count: usize, emit: &mut impl FnMut(usize, i64)) -> Result<(), DecompressError> {
        let (code, shift) = (self.code, 64 - self.ecb_max);
        let (mut word, mut marker) = (self.r.peek_word(), 1u64);
        let start = self.next;
        for i in start..start + count {
            emit(i, code.decode(shift, &mut word, &mut marker));
        }
        self.next = start + count;
        self.r.skip(marker.trailing_zeros())?;
        Ok(())
    }

    /// Decodes the next symbol alone, for a code with `k = 0`.
    fn wide_symbol(&mut self, emit: &mut impl FnMut(usize, i64)) -> Result<(), DecompressError> {
        let Prefix3 { lens, val, other_mask } = self.code;
        let top = (self.r.peek_word() >> 61) as usize;
        let v = if other_mask[top] != 0 {
            self.r.skip(2)?;
            self.r.read_signed(self.ecb_max)?
        } else {
            self.r.skip(((lens >> (8 * top)) & 0xff) as u32)?;
            val[top]
        };
        emit(self.next, v);
        self.next += 1;
        Ok(())
    }

    /// Decodes the rest of the stream alone.
    #[inline(always)]
    pub(crate) fn finish(&mut self, emit: &mut impl FnMut(usize, i64)) -> Result<(), DecompressError> {
        while self.next < self.n {
            if self.k == 0 {
                self.wide_symbol(emit)?;
            } else {
                self.step(self.k.min(self.n - self.next), emit)?;
            }
        }
        Ok(())
    }
}

/// Decodes two independent streams in one loop, so the core overlaps
/// their symbol-length chains; `emit_a` and `emit_b` see each stream's
/// values in order, exactly as [`Prefix3Walk::finish`] would hand them
/// over. Each turn is one step of each stream, their symbols
/// alternating while both have some left in the turn. When one stream
/// fails or has less than a full step left, the other runs on alone: a
/// failing partner never changes a stream's values or result.
#[inline(always)]
pub(crate) fn walk_pair(
    a: &mut Prefix3Walk<'_>,
    b: &mut Prefix3Walk<'_>,
    emit_a: &mut impl FnMut(usize, i64),
    emit_b: &mut impl FnMut(usize, i64),
) -> (Result<(), DecompressError>, Result<(), DecompressError>) {
    let (code_a, shift_a) = (a.code, 64 - a.ecb_max);
    let (code_b, shift_b) = (b.code, 64 - b.ecb_max);
    let both = a.k.min(b.k);
    while a.has_full_step() && b.has_full_step() {
        let (mut word_a, mut word_b) = (a.r.peek_word(), b.r.peek_word());
        let (mut marker_a, mut marker_b) = (1u64, 1u64);
        let (start_a, start_b) = (a.next, b.next);
        for s in 0..both {
            emit_a(start_a + s, code_a.decode(shift_a, &mut word_a, &mut marker_a));
            emit_b(start_b + s, code_b.decode(shift_b, &mut word_b, &mut marker_b));
        }
        for s in both..a.k {
            emit_a(start_a + s, code_a.decode(shift_a, &mut word_a, &mut marker_a));
        }
        for s in both..b.k {
            emit_b(start_b + s, code_b.decode(shift_b, &mut word_b, &mut marker_b));
        }
        a.next = start_a + a.k;
        b.next = start_b + b.k;
        match (a.r.skip(marker_a.trailing_zeros()), b.r.skip(marker_b.trailing_zeros())) {
            (Ok(()), Ok(())) => {}
            (Err(e), Ok(())) => return (Err(e.into()), b.finish(emit_b)),
            (Ok(()), Err(e)) => return (a.finish(emit_a), Err(e.into())),
            (Err(ea), Err(eb)) => return (Err(ea.into()), Err(eb.into())),
        }
    }
    (a.finish(emit_a), b.finish(emit_b))
}

#[cfg(test)]
pub(crate) mod tests {
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
        let out = decode(tree, ecq.len(), ecb_max, &mut r).unwrap();
        assert_eq!(out, ecq, "{}", tree.name());
    }

    /// [`EncodingTree::decode_stream`] collected into a `Vec`.
    fn decode(
        tree: EncodingTree,
        n: usize,
        ecb_max: u32,
        r: &mut BitReader<'_>,
    ) -> Result<Vec<i64>, DecompressError> {
        let mut out = Vec::with_capacity(n);
        tree.decode_stream(n, ecb_max, r, |i, v| {
            assert_eq!(i, out.len(), "values arrive in order");
            out.push(v);
        })?;
        Ok(out)
    }

    pub(crate) const ALL: [EncodingTree; 6] = [
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
        assert!(decode(EncodingTree::Tree4, 1, 8, &mut r).is_err());
    }

    /// The fused ECQ census prices every tree exactly: for any stream and
    /// any `EC_{b,max}`, `cost_from_counts` over the stream's
    /// [`EcqCounts`] equals the per-symbol `stream_cost`, and the
    /// single-write encoder emits exactly that many bits and decodes back
    /// to the stream.
    mod census {
        use super::ALL;
        use crate::encoding::{EcqCensus, EcqCounts};
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
        pub(super) fn stream(ecb_max: u32, shape: u8, len: usize, seed: u64) -> Vec<i64> {
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
                let mut census = EcqCensus::default();
                for &v in &ecq {
                    census.record(v);
                }
                prop_assert_eq!(census, counts.census());
                prop_assert_eq!(counts.total(), len as u64);
                prop_assert_eq!(census.nonzero(), ecq.iter().filter(|&&v| v != 0).count() as u64);
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
                    let back = super::decode(tree, ecq.len(), ecb, &mut r).unwrap();
                    prop_assert_eq!(&back, &ecq, "{}", tree.name());
                }
            }
        }
    }

    /// The per-bit decoder every tree had before the bit reservoir: it
    /// reads one bit at a time and only through `read_bit`, so it shares
    /// no logic with the word-at-a-time paths it checks.
    fn reference_decode(
        tree: EncodingTree,
        n: usize,
        ecb_max: u32,
        r: &mut BitReader<'_>,
    ) -> Result<Vec<i64>, DecompressError> {
        let bits = |r: &mut BitReader<'_>, width: u32| -> Result<u64, DecompressError> {
            let mut v = 0u64;
            for _ in 0..width {
                v = (v << 1) | u64::from(r.read_bit()?);
            }
            Ok(v)
        };
        let signed = |v: u64, width: u32| ((v << (64 - width)) as i64) >> (64 - width);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match tree.resolve(ecb_max) {
                Resolved::Tri => match bits(r, 1)? {
                    0 => 0,
                    _ if bits(r, 1)? == 0 => 1,
                    _ => -1,
                },
                Resolved::Tree1 => match bits(r, 1)? {
                    0 => 0,
                    _ => signed(bits(r, ecb_max)?, ecb_max),
                },
                Resolved::Tree2 => match bits(r, 1)? {
                    0 => 0,
                    _ if bits(r, 1)? == 0 => 1,
                    _ if bits(r, 1)? == 0 => -1,
                    _ => signed(bits(r, ecb_max)?, ecb_max),
                },
                Resolved::Tree3 => match bits(r, 1)? {
                    0 => 0,
                    _ if bits(r, 1)? == 0 => signed(bits(r, ecb_max)?, ecb_max),
                    _ if bits(r, 1)? == 0 => 1,
                    _ => -1,
                },
                Resolved::Tree4 => {
                    let mut width = 1u32;
                    while bits(r, 1)? == 1 {
                        width += 1;
                        if width > 64 {
                            return Err(DecompressError::corrupt("tree4 prefix overrun"));
                        }
                    }
                    if width == 1 {
                        0
                    } else {
                        let neg = bits(r, 1)? == 1;
                        let mag = if width > 2 {
                            (1u64 << (width - 2)) + bits(r, width - 2)?
                        } else {
                            1
                        };
                        if neg {
                            -(mag as i64)
                        } else {
                            mag as i64
                        }
                    }
                }
                Resolved::Fixed => signed(bits(r, ecb_max)?, ecb_max),
            };
            out.push(v);
        }
        Ok(out)
    }

    /// The per-symbol loops the two-pass emitter replaced, for the
    /// 3-symbol code and Tree 3: one `write_bits` per symbol, or two for
    /// an "others" symbol too wide for one field. The other trees still
    /// write symbol by symbol.
    fn reference_encode(tree: EncodingTree, ecq: &[i64], ecb_max: u32, w: &mut BitWriter) {
        match tree.resolve(ecb_max) {
            Resolved::Tri => {
                for &v in ecq {
                    assert!((-1..=1).contains(&v), "EC_b,max = 2 stream contains {v}");
                    let nz = u64::from(v != 0);
                    w.write_bits((nz << 1) | u64::from(v < 0), 1 + nz as u32);
                }
            }
            Resolved::Tree3 => {
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
            _ => tree.encode_per_symbol(ecq, ecb_max, w),
        }
    }

    #[test]
    #[should_panic(expected = "EC_b,max = 2 stream contains 2")]
    fn three_symbol_code_refuses_wider_values() {
        EncodingTree::Tree5.encode_stream(&[0, 1, -1, 2, 0], 2, &mut BitWriter::new());
    }

    /// Every ECQ decoder against [`reference_decode`], at every lead
    /// offset and `EC_{b,max}` the block layout admits: on byte soup and
    /// on valid encodings cut at every byte length, both decoders return
    /// `Ok` with the same values and end position, or both return `Err`.
    mod differential {
        use super::{census, decode, reference_decode, reference_encode, ALL};
        use crate::encoding::{walk_pair, EncodingTree};
        use crate::error::DecompressError;
        use bitio::{BitReader, BitWriter};
        use proptest::prelude::*;

        /// Decodes `n` values at `ecb_max` after `lead` bits with both
        /// decoders, checks that they agree, and returns the values when
        /// both succeed.
        fn agree(
            tree_ix: usize,
            n: usize,
            ecb_max: u32,
            lead: u32,
            bytes: &[u8],
        ) -> Option<Vec<i64>> {
            let tree = ALL[tree_ix];
            let mut fast = BitReader::new(bytes);
            fast.skip(lead).ok()?;
            let mut slow = fast.clone();
            match (
                decode(tree, n, ecb_max, &mut fast),
                reference_decode(tree, n, ecb_max, &mut slow),
            ) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "{} at EC_b,max {ecb_max}", tree.name());
                    assert_eq!(
                        fast.bit_pos(),
                        slow.bit_pos(),
                        "{} at EC_b,max {ecb_max}",
                        tree.name()
                    );
                    Some(got)
                }
                (Err(_), Err(_)) => None,
                (got, want) => panic!(
                    "{} at EC_b,max {ecb_max}: {:?} vs reference {:?}",
                    tree.name(),
                    got.map(|v| v.len()),
                    want.map(|v| v.len()),
                ),
            }
        }

        proptest! {
            #[test]
            fn fast_decoders_match_the_reference_on_byte_soup(
                tree_ix in 0usize..6,
                ecb_max in 1u32..=62,
                lead in 0u32..64,
                n in 0usize..=1296,
                len in 0usize..2048,
                thinning in 0u32..4,
                seed in any::<u64>(),
            ) {
                // ANDing `thinning` extra random words into each byte makes
                // zero bits, and so long runs of short symbols, likelier.
                let mut x = seed | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let bytes: Vec<u8> = (0..len)
                    .map(|_| (0..thinning).fold(next(), |b, _| b & next()) as u8)
                    .collect();
                agree(tree_ix, n, ecb_max, lead, &bytes);
            }
        }

        proptest! {
            // Every cut re-decodes the stream up to it; CI runs 2000 cases.
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn fast_decoders_match_the_reference_on_cut_encodings(
                tree_ix in 0usize..6,
                ecb_max in 1u32..=62,
                lead in 0u32..64,
                n in 0usize..=1296,
                shape in 0u8..4,
                seed in any::<u64>(),
            ) {
                let ecq = fitting_stream(ecb_max, shape, n, seed);
                let mut w = BitWriter::new();
                w.write_bits(seed, lead);
                ALL[tree_ix].encode_stream(&ecq, ecb_max, &mut w);
                let bytes = w.into_bytes();
                let whole = agree(tree_ix, n, ecb_max, lead, &bytes);
                prop_assert_eq!(whole, Some(ecq));
                for cut in 0..bytes.len() {
                    agree(tree_ix, n, ecb_max, lead, &bytes[..cut]);
                }
            }
        }

        /// An ECQ stream of `n` values that fit `ecb_max` signed bits.
        fn fitting_stream(ecb_max: u32, shape: u8, n: usize, seed: u64) -> Vec<i64> {
            let mut ecq = census::stream(ecb_max.max(2), shape, n, seed);
            if ecb_max == 1 {
                // One signed bit holds only 0 and −1.
                ecq.iter_mut().for_each(|v| *v = v.signum().min(0));
            }
            ecq
        }

        /// Writes `lead` bits of `seed`, then `ecq` through the emitter
        /// and through [`reference_encode`], then one more field, and
        /// checks that both writers end at the same bit with the same
        /// bytes.
        fn encoders_agree(tree: EncodingTree, ecq: &[i64], ecb_max: u32, lead: u32, seed: u64) {
            let [fast, slow] = [false, true].map(|reference| {
                let mut w = BitWriter::new();
                w.write_bits(seed, lead);
                if reference {
                    reference_encode(tree, ecq, ecb_max, &mut w);
                } else {
                    tree.encode_stream(ecq, ecb_max, &mut w);
                }
                let end = w.bit_len();
                w.write_bits(0b101, 3);
                (end, w.into_bytes())
            });
            let ctx = format!("{} at EC_b,max {ecb_max}, lead {lead}, {} symbols", tree.name(), ecq.len());
            assert_eq!(fast.0, slow.0, "end bit: {ctx}");
            if let Some(at) = (0..fast.1.len()).find(|&i| fast.1[i] != slow.1[i]) {
                panic!("byte {at} differs: {ctx}");
            }
        }

        /// Every tree at every `EC_{b,max}` from 1 to 64 and every writer
        /// start offset, on streams from empty to past one emitter chunk.
        #[test]
        fn emitter_matches_the_per_symbol_reference_at_every_width_and_offset() {
            for (t, tree) in ALL.into_iter().enumerate() {
                for ecb_max in 1..=64 {
                    for lead in 0..64 {
                        let k = (t + ecb_max as usize + lead as usize) % 7;
                        let n = [0, 1, 37, 255, 256, 257, 600][k];
                        let seed = u64::from(ecb_max) << 32 | u64::from(lead) << 8 | t as u64;
                        let ecq = fitting_stream(ecb_max, (lead % 4) as u8, n, seed);
                        encoders_agree(tree, &ecq, ecb_max, lead, seed);
                    }
                }
            }
        }

        proptest! {
            /// Random streams, including lengths that are no multiple of
            /// the emitter's chunk and lengths past a `(dd|dd)` block.
            #[test]
            fn emitter_matches_the_per_symbol_reference(
                tree_ix in 0usize..6,
                ecb_max in 1u32..=64,
                lead in 0u32..64,
                n in 0usize..=3000,
                shape in 0u8..4,
                seed in any::<u64>(),
            ) {
                let ecq = fitting_stream(ecb_max, shape, n, seed);
                encoders_agree(ALL[tree_ix], &ecq, ecb_max, lead, seed);
            }
        }

        /// One stream of a pair: its Tree 5 `EC_{b,max}`, lead offset,
        /// symbol count and byte soup. ANDing `thinning` extra random
        /// words into each byte makes zero bits, and so long runs of
        /// short symbols, likelier.
        fn soup_stream() -> impl Strategy<Value = (u32, u32, usize, Vec<u8>)> {
            (1u32..=62, 0u32..64, 0usize..=1296, 0usize..2048, 0u32..4, any::<u64>()).prop_map(
                |(ecb_max, lead, n, len, thinning, seed)| {
                    let mut x = seed | 1;
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    let bytes = (0..len)
                        .map(|_| (0..thinning).fold(next(), |b, _| b & next()) as u8)
                        .collect();
                    (ecb_max, lead, n, bytes)
                },
            )
        }

        /// Checks one stream of a pair walk against [`reference_decode`]
        /// from the walk's start: the same values and end position, or
        /// an error from both.
        fn matches_reference(
            (ecb_max, n): (u32, usize),
            start: &BitReader<'_>,
            result: Result<(), DecompressError>,
            got: &[i64],
            end: u64,
        ) {
            let mut slow = start.clone();
            match (result, reference_decode(EncodingTree::Tree5, n, ecb_max, &mut slow)) {
                (Ok(()), Ok(want)) => {
                    assert_eq!(got, &want[..], "EC_b,max {ecb_max}");
                    assert_eq!(end, slow.bit_pos(), "end position at EC_b,max {ecb_max}");
                }
                (Err(_), Err(_)) => {}
                (got, want) => panic!(
                    "EC_b,max {ecb_max}: {got:?} vs reference {:?}",
                    want.map(|v| v.len())
                ),
            }
        }

        proptest! {
            /// Two independent Tree 5 streams walked as a pair: each
            /// decodes to what the reference reads alone, so a partner that
            /// is truncated or fails never changes the other stream.
            #[test]
            fn pair_walk_matches_the_reference_on_byte_soup(a in soup_stream(), b in soup_stream()) {
                let start = [&a, &b].map(|(_, lead, _, bytes)| {
                    let mut r = BitReader::new(bytes);
                    // A lead past the end leaves the walk at bit 0.
                    let _ = r.skip(*lead);
                    r
                });
                let [mut walk_a, mut walk_b] = [(&a, &start[0]), (&b, &start[1])].map(|((ecb_max, _, n, _), r)| {
                    EncodingTree::Tree5.prefix3_walk(*n, *ecb_max, r.clone()).expect("Tree 5 walks")
                });
                let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
                let (result_a, result_b) = walk_pair(
                    &mut walk_a,
                    &mut walk_b,
                    &mut |i, v| {
                        assert_eq!(i, got_a.len(), "values arrive in order");
                        got_a.push(v);
                    },
                    &mut |i, v| {
                        assert_eq!(i, got_b.len(), "values arrive in order");
                        got_b.push(v);
                    },
                );
                matches_reference((a.0, a.2), &start[0], result_a, &got_a, walk_a.r.bit_pos());
                matches_reference((b.0, b.2), &start[1], result_b, &got_b, walk_b.r.bit_pos());
            }
        }
    }
}
