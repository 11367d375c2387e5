//! DEFLATE-like lossless codec: LZSS dictionary stage + canonical Huffman
//! entropy stage, built from the `codecs` substrates. Stands in for
//! Gzip/DEFLATE in the paper's related-work comparison.
//!
//! Token encoding: the LZSS stream is split into three symbol streams —
//! a literal/length alphabet (literals 0–255, length symbol 256+len-3),
//! and a raw distance stream (15-bit fixed fields, since ERI byte streams
//! yield few matches and a distance Huffman table would not pay for
//! itself). Both literal and length symbols share one Huffman table, as
//! in DEFLATE.

use bitio::{BitReader, BitWriter};
use codecs::huffman::{HuffmanCode, MAX_CODE_LEN};
use codecs::lzss::{self, Token, MAX_MATCH, MIN_MATCH};
use codecs::varint;

use crate::LosslessError;

const MAGIC: [u8; 4] = *b"DFL0";
/// Literal/length alphabet: 256 literals + match lengths 3..=258.
const ALPHABET: usize = 256 + (MAX_MATCH - MIN_MATCH + 1);
const DIST_BITS: u32 = 15; // window = 32 KiB

/// Compresses arbitrary bytes.
#[must_use]
pub(crate) fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lzss::tokenize(data);
    // Build the literal/length symbol stream.
    let mut freqs = vec![0u64; ALPHABET];
    for t in &tokens {
        let sym = match *t {
            Token::Literal(b) => usize::from(b),
            Token::Match { len, .. } => 256 + (len as usize - MIN_MATCH),
        };
        freqs[sym] += 1;
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    varint::write_u64(&mut out, data.len() as u64);
    varint::write_u64(&mut out, tokens.len() as u64);
    if tokens.is_empty() {
        return out;
    }
    let code = HuffmanCode::from_frequencies(&freqs).expect("nonempty token stream");
    code.write_table(&mut out);
    let mut w = BitWriter::with_capacity(data.len() / 2);
    for t in &tokens {
        match *t {
            Token::Literal(b) => code.encode_symbol(usize::from(b), &mut w),
            Token::Match { dist, len } => {
                code.encode_symbol(256 + (len as usize - MIN_MATCH), &mut w);
                // Distances are 1..=WINDOW (32768); dist-1 fits 15 bits.
                w.write_bits(u64::from(dist - 1), DIST_BITS);
            }
        }
    }
    let payload = w.into_bytes();
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decompresses a stream produced by `compress`.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, LosslessError> {
    let mut pos = 0usize;
    if bytes.get(..4) != Some(&MAGIC) {
        return Err(LosslessError::Corrupt("bad magic"));
    }
    pos += 4;
    let out_len =
        varint::read_u64(bytes, &mut pos).ok_or(LosslessError::Corrupt("bad length"))? as usize;
    let n_tokens =
        varint::read_u64(bytes, &mut pos).ok_or(LosslessError::Corrupt("bad token count"))? as usize;
    // Each token costs at least one payload bit.
    if n_tokens > bytes.len().saturating_mul(8) {
        return Err(LosslessError::Corrupt("declared token count exceeds payload"));
    }
    if n_tokens == 0 {
        return if out_len == 0 {
            Ok(Vec::new())
        } else {
            Err(LosslessError::Corrupt("empty tokens, nonzero length"))
        };
    }
    let code = HuffmanCode::read_table(bytes, &mut pos)?;
    if code.alphabet_size() > ALPHABET || code.lengths().iter().any(|&l| l > MAX_CODE_LEN) {
        return Err(LosslessError::Corrupt("bad huffman table"));
    }
    let plen =
        varint::read_u64(bytes, &mut pos).ok_or(LosslessError::Corrupt("bad payload len"))? as usize;
    let payload = bytes
        .get(pos..pos + plen)
        .ok_or(LosslessError::Corrupt("payload truncated"))?;
    let dec = code.decoder();
    let mut r = BitReader::new(payload);
    let mut tokens = Vec::with_capacity(n_tokens);
    for _ in 0..n_tokens {
        let sym = dec.decode_symbol(&mut r)? as usize;
        if sym < 256 {
            tokens.push(Token::Literal(sym as u8));
        } else {
            let len = (sym - 256 + MIN_MATCH) as u32;
            let dist = r.read_bits(DIST_BITS)? as u32 + 1;
            tokens.push(Token::Match { dist, len });
        }
    }
    let out = lzss::detokenize(&tokens).map_err(LosslessError::Codec)?;
    if out.len() != out_len {
        return Err(LosslessError::Corrupt("length mismatch after expansion"));
    }
    Ok(out)
}

/// Convenience: compress a double array by its byte image.
#[must_use]
pub fn compress_doubles(data: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    compress(&bytes)
}

/// Inverse of [`compress_doubles`].
pub fn decompress_doubles(bytes: &[u8]) -> Result<Vec<f64>, LosslessError> {
    let raw = decompress(bytes)?;
    if raw.len() % 8 != 0 {
        return Err(LosslessError::Corrupt("byte length not a multiple of 8"));
    }
    Ok(raw
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let bytes = compress(data);
        let back = decompress(&bytes).unwrap();
        assert_eq!(back, data);
        bytes.len()
    }

    #[test]
    fn empty_tiny_repetitive() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"banana banana banana banana banana");
    }

    #[test]
    fn text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(100);
        let len = roundtrip(&data);
        assert!(len < data.len() / 4, "len {len} of {}", data.len());
    }

    #[test]
    fn doubles_roundtrip_bit_exact() {
        let data: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.001).sin() * 1e-6)
            .chain([f64::NAN, f64::INFINITY, -0.0])
            .collect();
        let bytes = compress_doubles(&data);
        let back = decompress_doubles(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn match_at_exact_window_distance() {
        // Regression: LZSS emits distances up to WINDOW = 32768, which
        // only fits the 15-bit field as dist-1. Force a repeat exactly
        // one window apart.
        let mut data = vec![0u8; lzss::WINDOW + 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let pattern = *b"UNIQUEPATTERN!";
        data[..pattern.len()].copy_from_slice(&pattern);
        let at = lzss::WINDOW;
        data[at..at + pattern.len()].copy_from_slice(&pattern);
        roundtrip(&data);
    }

    #[test]
    fn rejects_corrupt() {
        assert!(decompress(b"xxxx").is_err());
        // Truncation must surface as an error or decode cleanly — either
        // way it must not panic.
        let bytes = compress(b"hello hello hello hello");
        let _ = decompress(&bytes[..bytes.len() - 1]);
    }
}
