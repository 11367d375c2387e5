//! ZFP-style fixed-accuracy lossy compressor (comparison baseline).
//!
//! A reimplementation of the ZFP 1-D pipeline (Lindstrom, TVCG 2014) the
//! paper compares against:
//!
//! 1. Partition the stream into blocks of 4 doubles.
//! 2. **Block-floating-point**: align all 4 values to the block's largest
//!    exponent and convert to 62-bit signed fixed point.
//! 3. **Decorrelating transform**: ZFP's non-orthogonal lifted 4-point
//!    transform (exact integer lifting steps from the reference codec).
//! 4. **Negabinary** mapping so small signed values have small unsigned
//!    images.
//! 5. **Embedded bit-plane coding** with per-plane unary group testing,
//!    truncated at the precision the accuracy tolerance requires
//!    (`maxprec = emax − minexp + 2·(dims+1)`).
//!
//! The structural reason ZFP loses to PaSTRI on ERI data is visible right
//! in step 1: a 4-point decorrelation window cannot see the sub-block
//! periodicity (36/100-point patterns), so the transform decorrelates
//! almost nothing — the paper's Sec. II observation that "ZFP works
//! particularly well on 3D datasets, but suffers … for 1D datasets".

use bitio::{BitReader, BitWriter};
use codecs::varint;

const MAGIC: [u8; 4] = *b"ZFP1";
/// Negabinary mask (…101010).
const NBMASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
/// Fixed-point integer precision.
const INTPREC: u32 = 64;

/// Decompression failure for the ZFP baseline.
#[derive(Debug)]
pub enum ZfpError {
    Corrupt(&'static str),
    BitRead(bitio::ReadError),
}

impl std::fmt::Display for ZfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZfpError::Corrupt(m) => write!(f, "corrupt ZFP stream: {m}"),
            ZfpError::BitRead(e) => write!(f, "bit read error: {e}"),
        }
    }
}

impl std::error::Error for ZfpError {}

impl From<bitio::ReadError> for ZfpError {
    fn from(e: bitio::ReadError) -> Self {
        ZfpError::BitRead(e)
    }
}

/// The ZFP-style fixed-accuracy compressor.
#[derive(Debug, Clone, Copy)]
pub struct ZfpCompressor {
    tolerance: f64,
    /// `minexp`: tolerance's binary exponent (2^minexp ≤ tol < 2^{minexp+1}).
    minexp: i32,
}

impl ZfpCompressor {
    /// Creates a compressor with absolute error tolerance `tolerance`.
    ///
    /// # Panics
    /// Panics unless the tolerance is finite and positive.
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be finite and > 0"
        );
        let (_, e) = frexp(tolerance);
        Self {
            tolerance,
            minexp: e - 1,
        }
    }

    /// Compresses `data`. Finite values are restored within the tolerance;
    /// blocks containing non-finite values are stored verbatim.
    #[must_use]
    pub fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.tolerance.to_le_bytes());
        varint::write_u64(&mut out, data.len() as u64);
        let mut w = BitWriter::new();
        for chunk in data.chunks(4) {
            let mut block = [0.0f64; 4];
            block[..chunk.len()].copy_from_slice(chunk);
            // ZFP pads partial blocks by repeating the last value.
            let pad = chunk.last().copied().unwrap_or(0.0);
            for slot in block.iter_mut().skip(chunk.len()) {
                *slot = pad;
            }
            self.encode_block(&block, &mut w);
        }
        let payload = w.into_bytes();
        out.extend_from_slice(&payload);
        out
    }

    /// Decompresses a stream produced by [`compress`](Self::compress).
    pub fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, ZfpError> {
        decompress(bytes)
    }

    fn encode_block(&self, block: &[f64; 4], w: &mut BitWriter) {
        let emax = block
            .iter()
            .filter(|v| v.is_finite())
            .map(|&v| frexp(v).1)
            .max()
            .unwrap_or(0);
        // Verbatim escape for non-finite data, and for blocks whose
        // in-block dynamic range exceeds what 62-bit block-floating-point
        // can hold at this tolerance. (The reference ZFP silently exceeds
        // the tolerance in that corner case — see its FAQ; this
        // reimplementation keeps the bound strict instead.)
        if block.iter().any(|v| !v.is_finite()) || emax - self.minexp > 58 {
            w.write_bits(0b11, 2);
            for &v in block {
                w.write_bits(v.to_bits(), 64);
            }
            return;
        }
        let maxprec = self.max_precision(emax);
        if block.iter().all(|&v| v == 0.0) || maxprec == 0 {
            // All-zero (or entirely below tolerance) block: flag 0.
            w.write_bit(false);
            return;
        }
        // Flag 10: coded block.
        w.write_bits(0b10, 2);
        w.write_bits((emax + 1100) as u64, 12);

        // Block-floating-point: scale by 2^(62 - emax).
        let mut ints = [0i64; 4];
        for (i, &v) in block.iter().enumerate() {
            // Truncating cast, as in the reference codec: keeps |q| < 2^62
            // so the first lifting addition cannot overflow.
            ints[i] = ldexp(v, 62 - emax) as i64;
        }
        fwd_lift(&mut ints);
        let mut uints = [0u64; 4];
        for (i, &v) in ints.iter().enumerate() {
            uints[i] = ((v as u64).wrapping_add(NBMASK)) ^ NBMASK;
        }
        encode_ints(&uints, maxprec, w);
    }

    /// ZFP's per-block precision for fixed-accuracy mode:
    /// `min(64, max(0, emax − minexp + 2·(dims+1)))`, dims = 1.
    fn max_precision(&self, emax: i32) -> u32 {
        (emax - self.minexp + 4).clamp(0, INTPREC as i32) as u32
    }
}

/// Decompresses a ZFP-style stream (self-describing).
pub fn decompress(bytes: &[u8]) -> Result<Vec<f64>, ZfpError> {
    let mut pos = 0usize;
    if bytes.get(..4) != Some(&MAGIC) {
        return Err(ZfpError::Corrupt("bad magic"));
    }
    pos += 4;
    let tol_bytes: [u8; 8] = bytes
        .get(pos..pos + 8)
        .ok_or(ZfpError::Corrupt("truncated header"))?
        .try_into()
        .unwrap();
    let tolerance = f64::from_le_bytes(tol_bytes);
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(ZfpError::Corrupt("invalid tolerance"));
    }
    pos += 8;
    let n =
        varint::read_u64(bytes, &mut pos).ok_or(ZfpError::Corrupt("truncated length"))? as usize;
    let payload = bytes.get(pos..).ok_or(ZfpError::Corrupt("no payload"))?;
    // Every 4-value block costs at least one payload bit; reject inflated
    // length headers before allocating.
    if n.div_ceil(4) > payload.len().saturating_mul(8) {
        return Err(ZfpError::Corrupt("declared length exceeds payload"));
    }
    let zfp = ZfpCompressor::new(tolerance);
    let mut r = BitReader::new(payload);
    let mut out = Vec::with_capacity(n.div_ceil(4) * 4);
    while out.len() < n {
        let mut block = [0.0f64; 4];
        zfp.decode_block(&mut block, &mut r)?;
        out.extend_from_slice(&block);
    }
    out.truncate(n);
    Ok(out)
}

impl ZfpCompressor {
    fn decode_block(&self, block: &mut [f64; 4], r: &mut BitReader<'_>) -> Result<(), ZfpError> {
        if !r.read_bit()? {
            block.fill(0.0);
            return Ok(());
        }
        if r.read_bit()? {
            // Verbatim.
            for v in block.iter_mut() {
                *v = f64::from_bits(r.read_bits(64)?);
            }
            return Ok(());
        }
        let emax = r.read_bits(12)? as i32 - 1100;
        if !(-1099..=1099).contains(&emax) {
            return Err(ZfpError::Corrupt("exponent out of range"));
        }
        let maxprec = self.max_precision(emax);
        let mut uints = [0u64; 4];
        decode_ints(&mut uints, maxprec, r)?;
        let mut ints = [0i64; 4];
        for (i, &u) in uints.iter().enumerate() {
            ints[i] = ((u ^ NBMASK).wrapping_sub(NBMASK)) as i64;
        }
        inv_lift(&mut ints);
        for (i, &v) in ints.iter().enumerate() {
            block[i] = ldexp(v as f64, emax - 62);
        }
        Ok(())
    }
}

/// ZFP's forward non-orthogonal 4-point lifting transform (exact integer
/// steps from the reference encoder). Arithmetic wraps, as the reference
/// C relies on two's-complement behaviour near the fixed-point limits.
fn fwd_lift(p: &mut [i64; 4]) {
    let (mut x, mut y, mut z, mut w) = (p[0], p[1], p[2], p[3]);
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    *p = [x, y, z, w];
}

/// Inverse of [`fwd_lift`] (exact integer steps from the reference
/// decoder), with the same wrapping semantics.
fn inv_lift(p: &mut [i64; 4]) {
    let (mut x, mut y, mut z, mut w) = (p[0], p[1], p[2], p[3]);
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w = w.wrapping_shl(1);
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z = z.wrapping_shl(1);
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(w);
    *p = [x, y, z, w];
}

/// Embedded bit-plane coding of 4 negabinary values down to `maxprec`
/// planes (ZFP's `encode_ints`: per-plane verbatim bits for the already-
/// significant group followed by unary group testing).
fn encode_ints(data: &[u64; 4], maxprec: u32, w: &mut BitWriter) {
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        // Gather bit plane k: bit i = value i's bit k.
        let mut x = 0u64;
        for (i, &d) in data.iter().enumerate() {
            x += ((d >> k) & 1) << i;
        }
        // First n bits verbatim (LSB-first to mirror the decoder).
        for _ in 0..n {
            w.write_bit(x & 1 == 1);
            x >>= 1;
        }
        // Unary run-length encoding of the remainder.
        while n < 4 {
            let any = x != 0;
            w.write_bit(any);
            if !any {
                break;
            }
            loop {
                let bit = x & 1 == 1;
                x >>= 1;
                n += 1;
                if n == 4 {
                    break;
                }
                w.write_bit(bit);
                if bit {
                    break;
                }
            }
            if n == 4 {
                break;
            }
        }
    }
}

/// Inverse of [`encode_ints`].
fn decode_ints(data: &mut [u64; 4], maxprec: u32, r: &mut BitReader<'_>) -> Result<(), ZfpError> {
    let kmin = INTPREC.saturating_sub(maxprec);
    data.fill(0);
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        let mut x = 0u64;
        for i in 0..n {
            if r.read_bit()? {
                x |= 1 << i;
            }
        }
        while n < 4 {
            if !r.read_bit()? {
                break;
            }
            loop {
                let pos = n;
                n += 1;
                if n == 4 {
                    x |= 1 << pos;
                    break;
                }
                if r.read_bit()? {
                    x |= 1 << pos;
                    break;
                }
            }
            if n == 4 {
                break;
            }
        }
        for (i, d) in data.iter_mut().enumerate() {
            if (x >> i) & 1 == 1 {
                *d |= 1 << k;
            }
        }
    }
    Ok(())
}

/// `frexp`: returns `(f, e)` with `x = f·2^e`, `0.5 ≤ |f| < 1` (and
/// `(0, 0)` for zero).
fn frexp(x: f64) -> (f64, i32) {
    if x == 0.0 || !x.is_finite() {
        return (x, 0);
    }
    let bits = x.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // Subnormal: normalize first.
        let (f, e) = frexp(x * 2f64.powi(64));
        return (f, e - 64);
    }
    let e = raw_exp - 1022;
    let f = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
    (f, e)
}

/// `ldexp(x, e) = x · 2^e`, split so the power-of-two factor itself never
/// overflows/underflows even for extreme block exponents.
fn ldexp(x: f64, e: i32) -> f64 {
    match e {
        -1000..=1000 => x * 2f64.powi(e),
        1001.. => x * 2f64.powi(1000) * 2f64.powi(e - 1000),
        _ => x * 2f64.powi(-1000) * 2f64.powi(e + 1000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_within(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x.is_finite() {
                assert!((x - y).abs() <= tol, "point {i}: {x} vs {y} tol {tol}");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "point {i}");
            }
        }
    }

    #[test]
    fn frexp_matches_contract() {
        for &x in &[1.0f64, -3.7, 0.5, 1e-300, 2.2e300, 1024.0, 1e-320] {
            let (f, e) = frexp(x);
            assert!((0.5..1.0).contains(&f.abs()), "x={x}: f={f}");
            // Reconstruct with the overflow-safe ldexp (a plain powi
            // underflows for subnormal results).
            assert!((ldexp(f, e) - x).abs() <= x.abs() * 1e-15, "x={x}");
        }
        assert_eq!(frexp(0.0), (0.0, 0));
    }

    #[test]
    fn lift_roundtrip_within_rounding() {
        // ZFP's lifting pair is not bit-exact: the forward transform
        // carries a net 1/16 scale via right-shifts and the inverse a ×4,
        // so the roundtrip loses a few low-order bits (absorbed by the
        // codec's 2·(dims+1) guard bits). The error must stay ≤ 8 ulps of
        // the fixed-point representation.
        let cases: [[i64; 4]; 5] = [
            [0, 0, 0, 0],
            [1, 2, 3, 4],
            [-1000, 999, -998, 997],
            [i64::MAX / 8, i64::MIN / 8, 123, -456],
            [1 << 60, -(1 << 59), 1 << 58, -(1 << 57)],
        ];
        for c in cases {
            let mut t = c;
            fwd_lift(&mut t);
            inv_lift(&mut t);
            for i in 0..4 {
                assert!(
                    (t[i] - c[i]).abs() <= 8,
                    "case {c:?}: component {i} drifted {} -> {}",
                    c[i],
                    t[i]
                );
            }
        }
    }

    #[test]
    fn embedded_coding_roundtrip_full_precision() {
        let cases: [[u64; 4]; 4] = [
            [0, 0, 0, 0],
            [1, 0, u64::MAX, 42],
            [NBMASK, !NBMASK, 0x1234_5678, 0xffff_0000_0000_0001],
            [1 << 63, 1, 0, 1 << 32],
        ];
        for c in cases {
            let mut w = BitWriter::new();
            encode_ints(&c, 64, &mut w);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut out = [0u64; 4];
            decode_ints(&mut out, 64, &mut r).unwrap();
            assert_eq!(out, c);
        }
    }

    #[test]
    fn roundtrip_smooth_signal_within_tolerance() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin() * 1e-5).collect();
        for &tol in &[1e-7, 1e-9, 1e-11] {
            let c = ZfpCompressor::new(tol);
            let bytes = c.compress(&data);
            let back = c.decompress(&bytes).unwrap();
            assert_within(&data, &back, tol);
        }
    }

    #[test]
    fn roundtrip_random_data_within_tolerance() {
        let mut x = 88172645463325252u64;
        let data: Vec<f64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f64 / 2f64.powi(53) - 0.5) * 2e-4
            })
            .collect();
        let tol = 1e-10;
        let c = ZfpCompressor::new(tol);
        let back = c.decompress(&c.compress(&data)).unwrap();
        assert_within(&data, &back, tol);
    }

    #[test]
    fn all_zero_blocks_cost_one_bit() {
        let data = vec![0.0f64; 40_000];
        let c = ZfpCompressor::new(1e-10);
        let bytes = c.compress(&data);
        // 10k blocks × 1 bit ≈ 1.25 kB plus header.
        assert!(bytes.len() < 1_400, "len {}", bytes.len());
        let back = c.decompress(&bytes).unwrap();
        assert_within(&data, &back, 1e-10);
    }

    #[test]
    fn values_below_tolerance_cost_one_bit() {
        let data = vec![1e-14f64; 40_000];
        let c = ZfpCompressor::new(1e-9);
        let bytes = c.compress(&data);
        assert!(bytes.len() < 1_400, "len {}", bytes.len());
        let back = c.decompress(&bytes).unwrap();
        assert_within(&data, &back, 1e-9);
    }

    #[test]
    fn partial_tail_block() {
        for len in [1usize, 2, 3, 5, 6, 7, 9] {
            let data: Vec<f64> = (0..len).map(|i| (i as f64 + 0.5) * 1e-6).collect();
            let c = ZfpCompressor::new(1e-12);
            let back = c.decompress(&c.compress(&data)).unwrap();
            assert_eq!(back.len(), len);
            assert_within(&data, &back, 1e-12);
        }
    }

    #[test]
    fn non_finite_blocks_verbatim() {
        let mut data = vec![1e-5f64; 16];
        data[5] = f64::NAN;
        data[6] = f64::INFINITY;
        let c = ZfpCompressor::new(1e-9);
        let back = c.decompress(&c.compress(&data)).unwrap();
        assert!(back[5].is_nan());
        assert_eq!(back[6], f64::INFINITY);
        assert_within(&data, &back, 1e-9);
    }

    #[test]
    fn mixed_magnitudes_within_tolerance() {
        let data: Vec<f64> = (0..4096)
            .map(|i| match i % 5 {
                0 => 1e3 * ((i as f64) * 0.1).sin(),
                1 => 1e-8 * (i as f64),
                2 => -2e-3,
                3 => 0.0,
                _ => 1e-15,
            })
            .collect();
        let tol = 1e-9;
        let c = ZfpCompressor::new(tol);
        let back = c.decompress(&c.compress(&data)).unwrap();
        assert_within(&data, &back, tol);
    }

    #[test]
    fn rejects_corrupt() {
        assert!(decompress(b"nope").is_err());
        let c = ZfpCompressor::new(1e-9);
        let bytes = c.compress(&[1.0, 2.0]);
        assert!(decompress(&bytes[..6]).is_err());
    }

    #[test]
    fn looser_tolerance_smaller_output() {
        let data: Vec<f64> = (0..20_000)
            .map(|i| (i as f64 * 0.003).sin() * 1e-5)
            .collect();
        let loose = ZfpCompressor::new(1e-7).compress(&data).len();
        let tight = ZfpCompressor::new(1e-12).compress(&data).len();
        assert!(loose < tight, "loose {loose} tight {tight}");
    }
}
