//! Quantization of pattern, scaling coefficients, and error-correction
//! values (paper Sec. IV-B).
//!
//! Three quantized streams per block:
//!
//! * **PQ** — pattern points, bin size `2·EB` (`P_binsize = 2·EB`), so the
//!   dequantized pattern is within `EB` of the exact one. The pattern bit
//!   width `P_b` follows from the pattern extremum via Eq. (8).
//! * **SQ** — scaling coefficients. `S ∈ [-1, 1]`, and per the paper's
//!   practical rule `S_b = P_b` bits. We map `±1` exactly onto the extreme
//!   code (`bin = 1/(2^{S_b-1}-1)`) so the pattern sub-block predicts
//!   itself with no scale error.
//! * **ECQ** — residuals against the *reconstructed* prediction, bin
//!   `2·EB` (`ECQ_binsize = 2·EB`), which makes
//!   `|decompressed − original| ≤ EB` hold unconditionally.

use bitio::signed_width;

/// Number of bits of the Fig. 6 bin an ECQ value falls in: `0 → 1`,
/// `±1 → 2`, `±[2,3] → 3`, `±[2^{i-2}, 2^{i-1}-1] → i`.
#[inline]
#[must_use]
pub fn ecq_bits(v: i64) -> u32 {
    if v == 0 {
        1
    } else {
        64 - v.unsigned_abs().leading_zeros() + 1
    }
}

/// Quantization codes above this magnitude force the verbatim fallback:
/// the arithmetic stays exact in `i64`/`f64` well away from overflow.
pub(crate) const MAX_SAFE_CODE: i64 = 1i64 << 52;

/// `x.round()` as an integer (halves away from zero) for `|x| ≤ 2^52`,
/// inline: truncate, then step by the sign of a fractional part of at
/// least one half. `x − trunc(x)` is exact in that range, so this matches
/// `f64::round` bit for bit, without the libm call `round` compiles to
/// on the baseline x86-64 target. Every larger f64 is an integer whose
/// code would exceed [`MAX_SAFE_CODE`] anyway.
#[inline]
fn round_half_away(x: f64) -> i64 {
    debug_assert!(x.abs() <= MAX_SAFE_CODE as f64);
    let t = x as i64;
    let frac = x - t as f64;
    t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
}

/// The per-block quantizer: holds the error bound and derived bin sizes.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    /// `2·EB`: bin size for both PQ and ECQ.
    bin: f64,
}

impl Quantizer {
    /// Creates a quantizer for absolute error bound `eb`.
    ///
    /// # Panics
    /// Panics unless `eb` is finite and strictly positive.
    #[must_use]
    pub fn new(eb: f64) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be finite and > 0");
        Self { eb, bin: 2.0 * eb }
    }

    /// The absolute error bound.
    #[must_use]
    pub fn eb(&self) -> f64 {
        self.eb
    }

    /// Quantizes one pattern point / EC value with bin `2·EB`.
    /// Returns `None` if the code would leave the safe integer range
    /// (caller falls back to verbatim storage).
    #[inline]
    #[must_use]
    pub fn quantize(&self, v: f64) -> Option<i64> {
        if !v.is_finite() {
            return None;
        }
        let x = v / self.bin;
        (x.abs() <= MAX_SAFE_CODE as f64).then(|| round_half_away(x))
    }

    /// Dequantizes a PQ/ECQ code.
    #[inline]
    #[must_use]
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 * self.bin
    }

    /// Quantizes the whole pattern. Returns `(PQ, P_b)` or `None` on
    /// overflow/non-finite input. `P_b ≥ 2`.
    #[must_use]
    pub fn quantize_pattern(&self, pattern: &[f64]) -> Option<(Vec<i64>, u32)> {
        let mut pq = Vec::with_capacity(pattern.len());
        let mut pb = 2u32;
        for &p in pattern {
            let q = self.quantize(p)?;
            pb = pb.max(signed_width(q));
            pq.push(q);
        }
        Some((pq, pb))
    }
}

/// Scale quantizer for a given bit width `S_b` (≥ 2): maps `[-1, 1]` onto
/// codes `[-(2^{S_b-1}-1), 2^{S_b-1}-1]` with the endpoints exact.
#[derive(Debug, Clone, Copy)]
pub struct ScaleQuantizer {
    sb_bits: u32,
    max_code: i64,
}

impl ScaleQuantizer {
    /// Creates a scale quantizer with `S_b = bits` (clamped to `2..=62`).
    #[must_use]
    pub fn new(bits: u32) -> Self {
        let sb_bits = bits.clamp(2, 62);
        Self {
            sb_bits,
            max_code: (1i64 << (sb_bits - 1)) - 1,
        }
    }

    /// Bit width `S_b`.
    #[must_use]
    pub(crate) fn bits(&self) -> u32 {
        self.sb_bits
    }

    /// Quantizes a scaling coefficient in `[-1, 1]`.
    #[inline]
    #[must_use]
    pub fn quantize(&self, s: f64) -> i64 {
        debug_assert!(s.abs() <= 1.0 + 1e-12);
        ((s * self.max_code as f64).round() as i64).clamp(-self.max_code, self.max_code)
    }

    /// Dequantizes a scale code.
    #[inline]
    #[must_use]
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 / self.max_code as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecq_bits_matches_paper_bins() {
        // Fig. 6: value 0 needs 1 bit, ±1 needs 2, ±[2,3] needs 3,
        // ±[4,7] needs 4, bin i covers ±[2^{i-2}, 2^{i-1}-1].
        assert_eq!(ecq_bits(0), 1);
        assert_eq!(ecq_bits(1), 2);
        assert_eq!(ecq_bits(-1), 2);
        assert_eq!(ecq_bits(2), 3);
        assert_eq!(ecq_bits(3), 3);
        assert_eq!(ecq_bits(-3), 3);
        assert_eq!(ecq_bits(4), 4);
        assert_eq!(ecq_bits(7), 4);
        assert_eq!(ecq_bits(8), 5);
        for bits in 2..=20u32 {
            let lo = 1i64 << (bits - 2);
            let hi = (1i64 << (bits - 1)) - 1;
            assert_eq!(ecq_bits(lo), bits);
            assert_eq!(ecq_bits(hi), bits);
            assert_eq!(ecq_bits(-lo), bits);
            assert_eq!(ecq_bits(-hi), bits);
        }
    }

    #[test]
    fn quantize_respects_half_bin() {
        let q = Quantizer::new(1e-10);
        for &v in &[0.0, 1e-9, -3.7e-8, 2.49e-10, 5.1e-10] {
            let code = q.quantize(v).unwrap();
            let back = q.dequantize(code);
            assert!(
                (v - back).abs() <= 1e-10 + 1e-25,
                "v={v}: code {code} back {back}"
            );
        }
    }

    #[test]
    fn inline_rounding_matches_f64_round() {
        let below_2_52 = MAX_SAFE_CODE as f64 - 0.5;
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            1.4999999999999998,
            below_2_52,
            below_2_52 - 1.0,
            MAX_SAFE_CODE as f64 - 1.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            1e-300,
        ];
        edges.extend(edges.clone().into_iter().map(|x| -x));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Halves and near-halves at every scale up to 2^52.
            let mag = (x >> 11) as f64 / (1u64 << 53) as f64 * 2f64.powi((x % 53) as i32);
            edges.push(if x & 1 == 0 { mag } else { -mag });
            edges.push((x % (1 << 20)) as f64 + 0.5);
        }
        for v in edges {
            assert!(v.abs() < MAX_SAFE_CODE as f64);
            assert_eq!(round_half_away(v), v.round() as i64, "x = {v:e}");
        }
    }

    #[test]
    fn quantize_matches_round_past_the_inline_range() {
        let q = Quantizer::new(0.5); // bin 1: codes equal the rounded input
        let lim = MAX_SAFE_CODE as f64;
        assert_eq!(q.quantize(lim - 0.5), Some(MAX_SAFE_CODE));
        assert_eq!(q.quantize(lim), Some(MAX_SAFE_CODE));
        assert_eq!(q.quantize(-lim), Some(-MAX_SAFE_CODE));
        assert_eq!(q.quantize(lim + 2.0), None);
        assert_eq!(q.quantize(-0.5), Some(-1));
        assert_eq!(q.quantize(0.49999999999999994), Some(0));
    }

    #[test]
    fn quantize_rejects_non_finite_and_overflow() {
        let q = Quantizer::new(1e-10);
        assert_eq!(q.quantize(f64::NAN), None);
        assert_eq!(q.quantize(f64::INFINITY), None);
        assert_eq!(q.quantize(1e60), None); // code would be 5e69
        assert!(q.quantize(1e-3).is_some());
    }

    #[test]
    fn pattern_bits_grow_with_magnitude() {
        let q = Quantizer::new(1e-10);
        // p/2EB = 5e3 -> ~14 bits signed.
        let (pq, pb) = q.quantize_pattern(&[1e-6, -1e-6, 0.0]).unwrap();
        assert_eq!(pq[0], 5_000_000_000_000i64 / 1_000_000_000); // 5e3
        assert_eq!(pq[2], 0);
        assert_eq!(pb, signed_width(5000));
    }

    #[test]
    fn scale_endpoints_exact() {
        for bits in [2u32, 8, 21, 33] {
            let sq = ScaleQuantizer::new(bits.min(62));
            assert_eq!(sq.dequantize(sq.quantize(1.0)), 1.0);
            assert_eq!(sq.dequantize(sq.quantize(-1.0)), -1.0);
            assert_eq!(sq.quantize(0.0), 0);
        }
    }

    #[test]
    fn scale_error_bounded_by_bin() {
        let sq = ScaleQuantizer::new(10);
        let bin = 1.0 / ((1i64 << 9) - 1) as f64;
        let mut s = -1.0;
        while s <= 1.0 {
            let back = sq.dequantize(sq.quantize(s));
            assert!((s - back).abs() <= bin / 2.0 + 1e-15, "s={s}");
            s += 0.00173;
        }
    }

    #[test]
    fn scale_codes_fit_declared_width() {
        for bits in [2u32, 5, 21] {
            let sq = ScaleQuantizer::new(bits);
            for &s in &[1.0, -1.0, 0.3, -0.99999] {
                assert!(signed_width(sq.quantize(s)) <= bits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "error bound")]
    fn zero_eb_panics() {
        let _ = Quantizer::new(0.0);
    }
}
