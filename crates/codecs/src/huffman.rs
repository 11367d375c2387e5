//! Canonical Huffman coding over a `u32` symbol alphabet.
//!
//! The encoder builds an optimal prefix code from symbol frequencies
//! (length-limited to [`MAX_CODE_LEN`] by frequency clamping and a
//! Kraft-repair pass), converts it to *canonical* form, and serializes only
//! the code lengths — the decoder rebuilds identical codes from lengths
//! alone, which is how DEFLATE and SZ ship their dictionaries.

use bitio::{BitReader, BitWriter};

use crate::CodecError;

/// Maximum code length. 32 keeps codes in a `u32` and is far above the
/// entropy of any realistic quantization-code distribution.
pub const MAX_CODE_LEN: u32 = 32;

/// Largest alphabet [`HuffmanCode::read_table`] accepts: the biggest any
/// writer in the workspace emits (SZ's 2^16 quantization intervals;
/// `deflate_like`'s literal/length alphabet is 512). A table header
/// claiming more is corrupt, and is rejected before anything is
/// allocated for it.
pub const MAX_ALPHABET: usize = 1 << 16;

/// A built canonical Huffman code: per-symbol (code, length) pairs.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// `lengths[s]` = code length in bits for symbol `s` (0 = unused).
    lengths: Vec<u32>,
    /// `codes[s]` = canonical code for symbol `s`, MSB-first in the low
    /// `lengths[s]` bits.
    codes: Vec<u32>,
}

impl HuffmanCode {
    /// Builds a canonical code from symbol frequencies.
    ///
    /// `freqs[s]` is the occurrence count of symbol `s`; zero-frequency
    /// symbols get no code. Returns `None` if no symbol has a nonzero
    /// frequency.
    #[must_use]
    pub fn from_frequencies(freqs: &[u64]) -> Option<Self> {
        let n = freqs.len();
        let used: Vec<usize> = (0..n).filter(|&s| freqs[s] > 0).collect();
        if used.is_empty() {
            return None;
        }
        let mut lengths = vec![0u32; n];
        if used.len() == 1 {
            // A single symbol still needs one bit so the stream is framed.
            lengths[used[0]] = 1;
        } else {
            build_lengths(freqs, &used, &mut lengths);
            limit_lengths(&mut lengths, MAX_CODE_LEN);
        }
        let codes = assign_canonical(&lengths);
        Some(Self { lengths, codes })
    }

    /// Rebuilds the code from serialized lengths (the decoder-side entry).
    ///
    /// Fails if the lengths violate the Kraft inequality (not a prefix code).
    pub(crate) fn from_lengths(lengths: Vec<u32>) -> Result<Self, CodecError> {
        let mut kraft: u64 = 0;
        let mut any = false;
        for &l in &lengths {
            if l > MAX_CODE_LEN {
                return Err(CodecError::Corrupt("huffman code length > MAX_CODE_LEN"));
            }
            if l > 0 {
                any = true;
                kraft = kraft
                    .checked_add(1u64 << (MAX_CODE_LEN - l))
                    .ok_or(CodecError::Corrupt("huffman kraft overflow"))?;
            }
        }
        if !any {
            return Err(CodecError::Corrupt("huffman code with no symbols"));
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman lengths violate Kraft inequality"));
        }
        let codes = assign_canonical(&lengths);
        Ok(Self { lengths, codes })
    }

    /// Number of symbols in the alphabet (including unused ones).
    #[must_use]
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Per-symbol code lengths (0 = symbol unused).
    #[must_use]
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Encoded size in bits of symbol `s`, or `None` if it has no code.
    #[must_use]
    pub fn symbol_cost(&self, s: usize) -> Option<u32> {
        match self.lengths.get(s) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Appends the code for symbol `s` to `w`. Panics if `s` is unused
    /// (encoder bug, not data corruption).
    #[inline]
    pub fn encode_symbol(&self, s: usize, w: &mut BitWriter) {
        let len = self.lengths[s];
        assert!(len > 0, "encoding symbol {s} with no huffman code");
        w.write_bits(u64::from(self.codes[s]), len);
    }

    /// Serializes the code lengths (varint-packed) so the decoder can
    /// rebuild the table.
    pub fn write_table(&self, out: &mut Vec<u8>) {
        crate::varint::write_u64(out, self.lengths.len() as u64);
        // Run-length encode zeros since most alphabets are sparse.
        let mut i = 0;
        while i < self.lengths.len() {
            if self.lengths[i] == 0 {
                let start = i;
                while i < self.lengths.len() && self.lengths[i] == 0 {
                    i += 1;
                }
                // 0 marker then run length.
                crate::varint::write_u64(out, 0);
                crate::varint::write_u64(out, (i - start) as u64);
            } else {
                crate::varint::write_u64(out, u64::from(self.lengths[i]));
                i += 1;
            }
        }
    }

    /// Deserializes a table written by [`write_table`](Self::write_table).
    pub fn read_table(input: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let n = crate::varint::read_u64(input, pos)
            .ok_or(CodecError::Corrupt("huffman table truncated"))? as usize;
        if n > MAX_ALPHABET {
            return Err(CodecError::Corrupt("huffman alphabet larger than MAX_ALPHABET"));
        }
        let mut lengths = Vec::with_capacity(n);
        while lengths.len() < n {
            let v = crate::varint::read_u64(input, pos)
                .ok_or(CodecError::Corrupt("huffman table truncated"))?;
            if v == 0 {
                let run = crate::varint::read_u64(input, pos)
                    .ok_or(CodecError::Corrupt("huffman table truncated"))?
                    as usize;
                if lengths.len() + run > n {
                    return Err(CodecError::Corrupt("huffman zero-run overflows table"));
                }
                lengths.resize(lengths.len() + run, 0);
            } else {
                lengths.push(v as u32);
            }
        }
        Self::from_lengths(lengths)
    }

    /// Builds a decoder for this code.
    #[must_use]
    pub fn decoder(&self) -> HuffmanDecoder {
        HuffmanDecoder::new(self)
    }
}

/// Canonical Huffman decoder using the limit/base table method
/// (per-length first-code comparison), O(code length) per symbol with no
/// large lookup tables.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `first_code[l]` = canonical code value of the first code of length l.
    first_code: Vec<u32>,
    /// `first_index[l]` = index into `symbols` of that first code.
    first_index: Vec<u32>,
    /// Count of codes per length.
    count: Vec<u32>,
    /// Symbols sorted by (length, symbol) — canonical order.
    symbols: Vec<u32>,
    max_len: u32,
}

impl HuffmanDecoder {
    fn new(code: &HuffmanCode) -> Self {
        let max_len = code.lengths.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u32; (max_len + 1) as usize];
        for &l in &code.lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut symbols: Vec<u32> = (0..code.lengths.len() as u32)
            .filter(|&s| code.lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (code.lengths[s as usize], s));

        let mut first_code = vec![0u32; (max_len + 2) as usize];
        let mut first_index = vec![0u32; (max_len + 2) as usize];
        let mut c = 0u32;
        let mut idx = 0u32;
        for l in 1..=max_len {
            first_code[l as usize] = c;
            first_index[l as usize] = idx;
            c = (c + count[l as usize]) << 1;
            idx += count[l as usize];
        }
        Self {
            first_code,
            first_index,
            count,
            symbols,
            max_len,
        }
    }

    /// Decodes one symbol from `r`.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut code = 0u32;
        for l in 1..=self.max_len {
            code = (code << 1) | u32::from(r.read_bit()?);
            let cnt = self.count[l as usize];
            if cnt > 0 {
                let first = self.first_code[l as usize];
                if code < first + cnt {
                    if code < first {
                        return Err(CodecError::Corrupt("huffman code underflow"));
                    }
                    let idx = self.first_index[l as usize] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(CodecError::Corrupt("invalid huffman code"))
    }
}

/// Standard two-queue Huffman length construction over the used symbols.
fn build_lengths(freqs: &[u64], used: &[usize], lengths: &mut [u32]) {
    // Node arena: leaves first, then internal nodes.
    #[derive(Clone, Copy)]
    struct Node {
        freq: u64,
        left: u32,
        right: u32, // u32::MAX for leaves
        symbol: u32,
    }
    let mut nodes: Vec<Node> = used
        .iter()
        .map(|&s| Node {
            freq: freqs[s],
            left: u32::MAX,
            right: u32::MAX,
            symbol: s as u32,
        })
        .collect();
    // Min-heap of (freq, node index). Tie-break on index for determinism.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..nodes.len() as u32)
        .map(|i| Reverse((nodes[i as usize].freq, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().unwrap();
        let Reverse((fb, b)) = heap.pop().unwrap();
        let idx = nodes.len() as u32;
        nodes.push(Node {
            freq: fa.saturating_add(fb),
            left: a,
            right: b,
            symbol: u32::MAX,
        });
        heap.push(Reverse((nodes[idx as usize].freq, idx)));
    }
    // Depth-first assignment of depths as code lengths.
    let root = heap.pop().unwrap().0 .1;
    let mut stack = vec![(root, 0u32)];
    while let Some((i, depth)) = stack.pop() {
        let node = nodes[i as usize];
        if node.right == u32::MAX {
            lengths[node.symbol as usize] = depth.max(1);
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }
}

/// Clamp code lengths to `max_len` and repair the Kraft sum
/// (the classic zlib-style length-limiting pass).
fn limit_lengths(lengths: &mut [u32], max_len: u32) {
    let mut overflow = false;
    for l in lengths.iter_mut() {
        if *l > max_len {
            *l = max_len;
            overflow = true;
        }
    }
    if !overflow {
        return;
    }
    // Kraft sum in units of 2^-max_len.
    let unit = |l: u32| 1u64 << (max_len - l);
    let mut kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    let budget = 1u64 << max_len;
    // Demote (lengthen) the shortest over-budget codes until the sum fits.
    while kraft > budget {
        // Find a symbol with length < max_len whose lengthening frees
        // the most Kraft mass (i.e. the longest such length below max).
        let mut candidate: Option<usize> = None;
        for (s, &l) in lengths.iter().enumerate() {
            if l > 0 && l < max_len {
                match candidate {
                    None => candidate = Some(s),
                    Some(c) if lengths[c] < l => candidate = Some(s),
                    _ => {}
                }
            }
        }
        let s = candidate.expect("kraft repair impossible");
        kraft -= unit(lengths[s]) - unit(lengths[s] + 1);
        lengths[s] += 1;
    }
}

/// Assigns canonical codes: symbols sorted by (length, symbol index),
/// consecutive code values within a length.
fn assign_canonical(lengths: &[u32]) -> Vec<u32> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u32; (max_len + 1) as usize];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u32; (max_len + 2) as usize];
    let mut c = 0u32;
    for l in 1..=max_len {
        next[l as usize] = c;
        c = (c + count[l as usize]) << 1;
    }
    let mut codes = vec![0u32; lengths.len()];
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    for s in order {
        let l = lengths[s] as usize;
        codes[s] = next[l];
        next[l] += 1;
    }
    codes
}

/// Convenience: Huffman-encode a symbol stream, producing a
/// self-describing byte buffer (table + payload).
pub fn encode_stream(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let mut out = Vec::new();
    crate::varint::write_u64(&mut out, symbols.len() as u64);
    if symbols.is_empty() {
        return out;
    }
    let code = HuffmanCode::from_frequencies(&freqs).expect("nonempty stream");
    code.write_table(&mut out);
    let mut w = BitWriter::new();
    for &s in symbols {
        code.encode_symbol(s as usize, &mut w);
    }
    let payload = w.into_bytes();
    crate::varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`encode_stream`]. Returns the decoded symbols and the number
/// of input bytes consumed.
pub fn decode_stream(input: &[u8]) -> Result<(Vec<u32>, usize), CodecError> {
    let mut pos = 0usize;
    let n = crate::varint::read_u64(input, &mut pos)
        .ok_or(CodecError::Corrupt("stream header truncated"))? as usize;
    if n == 0 {
        return Ok((Vec::new(), pos));
    }
    let code = HuffmanCode::read_table(input, &mut pos)?;
    let plen = crate::varint::read_u64(input, &mut pos)
        .ok_or(CodecError::Corrupt("payload length truncated"))? as usize;
    let payload = input
        .get(pos..pos + plen)
        .ok_or(CodecError::Corrupt("payload truncated"))?;
    // Each symbol costs at least one bit of payload.
    if n > payload.len().saturating_mul(8) {
        return Err(CodecError::Corrupt("declared symbol count exceeds payload"));
    }
    let dec = code.decoder();
    let mut r = BitReader::new(payload);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec.decode_symbol(&mut r)?);
    }
    Ok((out, pos + plen))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_symbol_stream() {
        let syms = vec![7u32; 100];
        let enc = encode_stream(&syms, 16);
        let (dec, _) = decode_stream(&enc).unwrap();
        assert_eq!(dec, syms);
        // 100 one-bit codes -> ~13 bytes payload, plus small table.
        assert!(enc.len() < 40, "len={}", enc.len());
    }

    #[test]
    fn oversized_alphabet_is_rejected_before_the_table_is_built() {
        // 12 bytes: one symbol, then a 2^28-entry table made of one
        // 2^28-long zero run.
        let mut bytes = Vec::new();
        for v in [1u64, 1 << 28, 0, 1 << 28] {
            crate::varint::write_u64(&mut bytes, v);
        }
        assert_eq!(bytes.len(), 12);
        match decode_stream(&bytes) {
            Err(CodecError::Corrupt(msg)) => assert!(msg.contains("MAX_ALPHABET"), "{msg}"),
            other => panic!("expected the alphabet cap to reject it, got {other:?}"),
        }
        // The largest alphabet a writer emits still round-trips.
        let syms = [0u32, MAX_ALPHABET as u32 - 1, 0];
        let enc = encode_stream(&syms, MAX_ALPHABET);
        assert_eq!(decode_stream(&enc).unwrap().0, syms);
    }

    #[test]
    fn empty_stream() {
        let enc = encode_stream(&[], 4);
        let (dec, used) = decode_stream(&enc).unwrap();
        assert!(dec.is_empty());
        assert_eq!(used, enc.len());
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros, a tail of larger codes — the SZ quantization shape.
        let mut syms = Vec::new();
        for i in 0..10_000u32 {
            syms.push(if i % 10 == 0 { 1 + (i % 7) } else { 0 });
        }
        let enc = encode_stream(&syms, 8);
        let (dec, _) = decode_stream(&enc).unwrap();
        assert_eq!(dec, syms);
        // Entropy ~0.8 bits/symbol; allow generous slack.
        assert!(enc.len() < 10_000 / 4, "len={}", enc.len());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = [5u64, 9, 12, 13, 16, 45, 0, 3];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        for &a in &used {
            for &b in &used {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.lengths[a], code.lengths[b]);
                let (ca, cb) = (code.codes[a], code.codes[b]);
                let l = la.min(lb);
                assert_ne!(ca >> (la - l), cb >> (lb - l), "prefix collision {a},{b}");
            }
        }
    }

    #[test]
    fn table_roundtrip() {
        let freqs = [1u64, 0, 0, 100, 2, 0, 0, 0, 0, 50];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut buf = Vec::new();
        code.write_table(&mut buf);
        let mut pos = 0;
        let back = HuffmanCode::read_table(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.lengths(), code.lengths());
    }

    #[test]
    fn rejects_bad_lengths() {
        // Kraft violation: three codes of length 1.
        assert!(HuffmanCode::from_lengths(vec![1, 1, 1]).is_err());
        assert!(HuffmanCode::from_lengths(vec![0, 0]).is_err());
        assert!(HuffmanCode::from_lengths(vec![MAX_CODE_LEN + 1]).is_err());
    }

    #[test]
    fn optimality_on_known_distribution() {
        // Classic example: frequencies 45,13,12,16,9,5 -> expected lengths
        // {45:1, 16:3, 13:3, 12:3, 9:4, 5:4} (total weighted 224 bits/100).
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let total: u64 = freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * u64::from(code.lengths[s]))
            .sum();
        assert_eq!(total, 224);
    }
}
