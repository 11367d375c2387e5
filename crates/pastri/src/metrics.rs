//! Pattern-scaling metrics (paper Sec. IV-A, Fig. 4).
//!
//! A scaling metric does two jobs: it selects which sub-block becomes the
//! scaled pattern (the one with the largest metric magnitude — "the closer
//! the scaling metric is to zero, the more unreliable the scaling"), and it
//! defines the per-sub-block scaling coefficient `a/b`. Metrics whose value
//! is unsigned (AAR, IS) need an explicit sign correction; for the others
//! the sign rides along with the metric.
//!
//! The paper's evaluation (Fig. 4 table) found ER best (compression ratio
//! 17.46 on its workload) and FR unusable (first elements can be ≈ 0);
//! [`ScalingMetric::default`] is therefore `Er`.

use crate::geometry::BlockGeometry;

/// Which sub-block statistic drives pattern selection and scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScalingMetric {
    /// Ratio of firsts: first data point of each sub-block.
    Fr,
    /// Ratio of extremums: the sub-block's largest-magnitude point
    /// (the paper's winner; lowest cost and most reliable).
    #[default]
    Er,
    /// Ratio of averages: signed mean.
    Ar,
    /// Ratio of absolute averages: mean of |x| (needs sign correction).
    Aar,
    /// Interval scaling: max − min range (needs sign correction).
    Is,
}

impl ScalingMetric {
    /// All five metrics, in the paper's Fig. 4 order.
    pub const ALL: [ScalingMetric; 5] = [
        ScalingMetric::Fr,
        ScalingMetric::Er,
        ScalingMetric::Ar,
        ScalingMetric::Aar,
        ScalingMetric::Is,
    ];

    /// 3-bit wire id stored in the container header (provenance only —
    /// decompression does not need the metric).
    #[must_use]
    pub(crate) fn wire_id(&self) -> u8 {
        match self {
            ScalingMetric::Fr => 0,
            ScalingMetric::Er => 1,
            ScalingMetric::Ar => 2,
            ScalingMetric::Aar => 3,
            ScalingMetric::Is => 4,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    #[must_use]
    pub(crate) fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => ScalingMetric::Fr,
            1 => ScalingMetric::Er,
            2 => ScalingMetric::Ar,
            3 => ScalingMetric::Aar,
            4 => ScalingMetric::Is,
            _ => return None,
        })
    }

    /// The metric value of one sub-block (signed where the metric carries
    /// a sign; magnitude otherwise).
    #[must_use]
    pub(crate) fn value(&self, sb: &[f64]) -> f64 {
        match self {
            ScalingMetric::Fr => sb[0],
            ScalingMetric::Er => er_extremum(sb).1,
            ScalingMetric::Ar => sb.iter().sum::<f64>() / sb.len() as f64,
            ScalingMetric::Aar => sb.iter().map(|v| v.abs()).sum::<f64>() / sb.len() as f64,
            ScalingMetric::Is => {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in sb {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                hi - lo
            }
        }
    }

    /// Whether the metric's value is inherently non-negative, requiring an
    /// explicit sign correction on the scaling coefficients (Fig. 4).
    #[must_use]
    pub(crate) fn needs_sign_correction(&self) -> bool {
        matches!(self, ScalingMetric::Aar | ScalingMetric::Is)
    }
}

/// The pattern-scaling analysis of one block: pattern choice plus one
/// scaling coefficient per sub-block (Algorithm 1, lines 5–11).
#[derive(Debug, Clone)]
pub struct PatternFit {
    /// Index of the sub-block chosen as the pattern.
    pub pattern_sb: usize,
    /// Scaling coefficient per sub-block, each in `[-1, 1]`.
    pub scales: Vec<f64>,
}

/// Selects the pattern sub-block and computes all scaling coefficients.
///
/// Scaling coefficients are clamped to `[-1, 1]`; clamping can only occur
/// for non-ER metrics on adversarial data (the error-correction stage
/// absorbs any resulting prediction error, so the bound still holds).
#[must_use]
pub fn fit_pattern(metric: ScalingMetric, geom: &BlockGeometry, block: &[f64]) -> PatternFit {
    debug_assert_eq!(block.len(), geom.block_size());
    let values: Vec<f64> = block
        .chunks_exact(geom.subblock_size)
        .map(|sb| metric.value(sb))
        .collect();
    fit_values(metric, geom, block, &values)
}

/// The fit for per-sub-block metric `values`: the pattern is the first
/// sub-block of largest metric magnitude.
pub(crate) fn fit_values(
    metric: ScalingMetric,
    geom: &BlockGeometry,
    block: &[f64],
    values: &[f64],
) -> PatternFit {
    let sbs = geom.subblock_size;
    let mut pattern_sb = 0usize;
    let mut best = -1.0f64;
    for (sb, v) in values.iter().enumerate() {
        if v.abs() > best {
            best = v.abs();
            pattern_sb = sb;
        }
    }
    let pat = &block[pattern_sb * sbs..(pattern_sb + 1) * sbs];
    let pat_metric = values[pattern_sb];
    // Anchor for sign correction: the pattern's largest-magnitude point.
    let anchor = argmax_abs(pat);

    let mut scales = Vec::with_capacity(geom.num_subblocks);
    for (sb, &value) in values.iter().enumerate() {
        let s = if pat_metric == 0.0 {
            0.0
        } else {
            let raw = value / pat_metric;
            let signed = if metric.needs_sign_correction() {
                let sub = &block[sb * sbs..(sb + 1) * sbs];
                let same_sign = sub[anchor] * pat[anchor] >= 0.0;
                if same_sign {
                    raw
                } else {
                    -raw
                }
            } else {
                raw
            };
            signed.clamp(-1.0, 1.0)
        };
        scales.push(s);
    }
    PatternFit {
        pattern_sb,
        scales,
    }
}

/// Every bit of an f64 but its sign.
const MAGNITUDE: u64 = !(1 << 63);

/// ER's statistic of one sub-block from one integer max over
/// `|v|`'s bit pattern (which orders finite magnitudes as their values
/// do): that bit pattern, and the first element of that magnitude —
/// `+0.0` when every element is zero. For finite and infinite elements
/// alike this is the element of largest `|v|`, first on ties; a NaN
/// sorts above every magnitude, so it is picked over the rest.
#[inline(always)]
fn er_extremum(sb: &[f64]) -> (u64, f64) {
    let max = sb.iter().fold(0, |m, &v| m.max(v.to_bits() & MAGNITUDE));
    let value = if max == 0 {
        0.0
    } else {
        sb.iter()
            .copied()
            .find(|v| v.to_bits() & MAGNITUDE == max)
            .expect("the maximum is some element's")
    };
    (max, value)
}

/// One pass of ER over a block: what the compressor needs to decide
/// Verbatim or AllZero, and the metric values [`fit_values`] takes.
pub(crate) struct ErScan {
    /// `max |v|` over the block as a bit pattern: at or above
    /// [`f64::INFINITY`]'s when some value is not finite.
    ext_bits: u64,
    /// ER's value per sub-block.
    pub(crate) values: Vec<f64>,
}

impl ErScan {
    /// Whether every value of the block is finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.ext_bits < f64::INFINITY.to_bits()
    }

    /// The block's largest `|v|` (meaningful when [`is_finite`](Self::is_finite)).
    pub(crate) fn ext(&self) -> f64 {
        f64::from_bits(self.ext_bits)
    }
}

/// Scans `block` once for ER: per sub-block extremum, their maximum, and
/// with it the finiteness of the whole block. Compiled into each build
/// of [`crate::simd::Simd`].
#[inline(always)]
pub(crate) fn er_scan(geom: &BlockGeometry, block: &[f64]) -> ErScan {
    // A plain loop rather than `collect`, whose out-of-line body would
    // not be compiled for the caller's target features.
    let mut ext_bits = 0;
    let mut values = Vec::with_capacity(geom.num_subblocks);
    for sb in block.chunks_exact(geom.subblock_size) {
        let (max, value) = er_extremum(sb);
        ext_bits = ext_bits.max(max);
        values.push(value);
    }
    ErScan { ext_bits, values }
}

/// Index of the largest-magnitude element (first on ties).
#[must_use]
pub(crate) fn argmax_abs(xs: &[f64]) -> usize {
    let mut best = 0usize;
    let mut bv = -1.0f64;
    for (i, &v) in xs.iter().enumerate() {
        if v.abs() > bv {
            bv = v.abs();
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> BlockGeometry {
        BlockGeometry::new(3, 4)
    }

    #[test]
    fn er_picks_extremum_subblock() {
        let block = vec![
            0.1, -0.2, 0.3, 0.05, // sb0, ext 0.3
            0.2, -0.9, 0.1, 0.0, // sb1, ext -0.9  <- block extremum
            0.0, 0.0, 0.4, -0.1, // sb2, ext 0.4
        ];
        let fit = fit_pattern(ScalingMetric::Er, &geom(), &block);
        assert_eq!(fit.pattern_sb, 1);
        assert_eq!(fit.scales[1], 1.0);
        assert!(fit.scales.iter().all(|s| s.abs() <= 1.0));
    }

    #[test]
    fn er_scales_recover_exact_multiples() {
        let pat = [0.5, -1.0, 0.25, 0.0];
        let coef = [0.3, 1.0, -0.7];
        let mut block = Vec::new();
        for &c in &coef {
            block.extend(pat.iter().map(|p| p * c));
        }
        let fit = fit_pattern(ScalingMetric::Er, &geom(), &block);
        assert_eq!(fit.pattern_sb, 1);
        for (s, &c) in fit.scales.iter().zip(&coef) {
            assert!((s - c).abs() < 1e-15, "scale {s} vs coefficient {c}");
        }
    }

    #[test]
    fn fr_uses_first_point() {
        let block = vec![
            0.9, 0.0, 0.0, 0.0, // sb0 first = 0.9 -> pattern
            -0.45, 0.0, 0.0, 0.0, // sb1 first = -0.45 -> scale -0.5
            0.0, 5.0, 0.0, 0.0, // sb2 first = 0 -> scale 0 (extremum invisible to FR)
        ];
        let fit = fit_pattern(ScalingMetric::Fr, &geom(), &block);
        assert_eq!(fit.pattern_sb, 0);
        assert!((fit.scales[1] + 0.5).abs() < 1e-15);
        assert_eq!(fit.scales[2], 0.0);
    }

    #[test]
    fn aar_sign_correction() {
        let pat = [1.0, 2.0, 3.0, 4.0];
        let mut block: Vec<f64> = pat.to_vec();
        // sb1 = -0.5 * pat: AAR metric is positive, needs the sign flip.
        block.extend(pat.iter().map(|p| p * -0.5));
        block.extend(pat.iter().map(|p| p * 0.25));
        let fit = fit_pattern(ScalingMetric::Aar, &geom(), &block);
        assert_eq!(fit.pattern_sb, 0);
        assert!((fit.scales[1] + 0.5).abs() < 1e-15, "got {}", fit.scales[1]);
        assert!((fit.scales[2] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn is_range_metric() {
        let block = vec![
            0.0, 1.0, 0.0, 1.0, // range 1
            0.0, 4.0, -4.0, 0.0, // range 8 -> pattern
            1.0, 1.0, 1.0, 1.0, // range 0 -> scale 0
        ];
        let fit = fit_pattern(ScalingMetric::Is, &geom(), &block);
        assert_eq!(fit.pattern_sb, 1);
        assert!((fit.scales[0].abs() - 0.125).abs() < 1e-15);
        assert_eq!(fit.scales[2], 0.0);
    }

    #[test]
    fn all_zero_block_scales_are_zero() {
        let block = vec![0.0; 12];
        for m in ScalingMetric::ALL {
            let fit = fit_pattern(m, &geom(), &block);
            assert!(fit.scales.iter().all(|&s| s == 0.0), "{m:?}");
        }
    }

    #[test]
    fn wire_ids_roundtrip() {
        for m in ScalingMetric::ALL {
            assert_eq!(ScalingMetric::from_wire_id(m.wire_id()), Some(m));
        }
        assert_eq!(ScalingMetric::from_wire_id(7), None);
    }

    /// ER's value of one sub-block as the float compare loop computed it
    /// before the one-pass scan: the first element of largest `|v|`,
    /// `+0.0` for an all-zero sub-block; a NaN never compares larger.
    fn reference_er_value(sb: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for &v in sb {
            if v.abs() > best.abs() {
                best = v;
            }
        }
        best
    }

    /// A block of `geom` built to hit the scan's corners: magnitude ties
    /// of either sign within and between sub-blocks, all-zero and `−0.0`
    /// sub-blocks, subnormals, and (when `specials`) ±Inf and NaN.
    fn adversarial_block(geom: &BlockGeometry, seed: u64, specials: bool) -> Vec<f64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let palette = [
            0.0, -0.0, 1.5e-7, -1.5e-7, 3.0e-7, -3.0e-7, 5e-324, -5e-324, 1.0, -1.0,
        ];
        let sbs = geom.subblock_size;
        let mut block = Vec::with_capacity(geom.block_size());
        for _ in 0..geom.num_subblocks {
            match next() % 4 {
                0 => block.extend((0..sbs).map(|_| if next() % 2 == 0 { 0.0 } else { -0.0 })),
                1 => block
                    .extend((0..sbs).map(|_| palette[(next() % palette.len() as u64) as usize])),
                _ => block
                    .extend((0..sbs).map(|_| ((next() >> 11) as f64 / 2f64.powi(53) - 0.5) * 1e-6)),
            }
        }
        if specials {
            for _ in 0..=(next() % 3) {
                let i = (next() % block.len() as u64) as usize;
                block[i] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(next() % 3) as usize];
            }
        }
        block
    }

    /// Checks every build of the ER scan, `ScalingMetric::value` and
    /// `fit_pattern` against the float compare loop on one block.
    fn check_er(geom: &BlockGeometry, block: &[f64]) {
        let has_nan = block.iter().any(|v| v.is_nan());
        let finite = block.iter().all(|v| v.is_finite());
        let reference: Vec<f64> = block
            .chunks_exact(geom.subblock_size)
            .map(reference_er_value)
            .collect();
        for (name, simd) in crate::simd::Simd::variants() {
            let scan = simd.er_scan(geom, block);
            assert_eq!(scan.is_finite(), finite, "{name}: {block:?}");
            if finite {
                let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                assert_eq!(scan.ext().to_bits(), ext.to_bits(), "{name}: {block:?}");
            }
            if !has_nan {
                let got: Vec<u64> = scan.values.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{name}: {block:?}");
            }
        }
        for (sb, &want) in block.chunks_exact(geom.subblock_size).zip(&reference) {
            if !sb.iter().any(|v| v.is_nan()) {
                assert_eq!(
                    ScalingMetric::Er.value(sb).to_bits(),
                    want.to_bits(),
                    "{sb:?}"
                );
            }
        }
        if !has_nan {
            // The pattern choice and scales as `fit_pattern` made them
            // from the reference values.
            let fit = fit_pattern(ScalingMetric::Er, geom, block);
            let mut best = -1.0f64;
            let mut pattern_sb = 0;
            for (sb, v) in reference.iter().enumerate() {
                if v.abs() > best {
                    best = v.abs();
                    pattern_sb = sb;
                }
            }
            assert_eq!(fit.pattern_sb, pattern_sb, "{block:?}");
            let p = reference[pattern_sb];
            for (s, &v) in fit.scales.iter().zip(&reference) {
                let want = if p == 0.0 {
                    0.0
                } else {
                    (v / p).clamp(-1.0, 1.0)
                };
                assert_eq!(s.to_bits(), want.to_bits(), "{block:?}");
            }
        }
    }

    #[test]
    fn er_scan_matches_the_compare_loop_on_corner_blocks() {
        let g = geom();
        let fixed: [[f64; 12]; 6] = [
            // Equal magnitudes of either sign within a sub-block: first wins.
            [0.3, -0.3, 0.1, 0.0, -0.5, 0.5, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
            // The same extremum in two sub-blocks: the first is the pattern.
            [0.1, 0.9, 0.0, 0.0, -0.9, 0.2, 0.0, 0.0, 0.9, 0.0, 0.0, 0.0],
            // All zeros of both signs: every value +0.0, pattern 0.
            [
                -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0,
            ],
            // Subnormal extremum beside a zero sub-block.
            [
                5e-324, -5e-324, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 1e-310, 0.0, 0.0, 0.0,
            ],
            // Infinities: the largest magnitude, first on ties.
            [
                1.0,
                f64::NEG_INFINITY,
                f64::INFINITY,
                0.0,
                2.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ],
            // NaN: not finite.
            [
                1.0,
                f64::NAN,
                0.0,
                0.0,
                2.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ],
        ];
        for block in &fixed {
            check_er(&g, block);
        }
        for seed in 0..2000 {
            let g =
                [geom(), BlockGeometry::new(36, 36), BlockGeometry::new(5, 7)][seed as usize % 3];
            check_er(&g, &adversarial_block(&g, seed, seed % 4 == 0));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn er_scan_matches_the_compare_loop(
            num_sb in 1usize..40,
            sbs in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
            specials in proptest::prelude::any::<bool>(),
        ) {
            let g = BlockGeometry::new(num_sb, sbs);
            check_er(&g, &adversarial_block(&g, seed, specials));
        }
    }

    #[test]
    fn scales_always_bounded() {
        // Even on data where non-pattern sub-blocks have larger values at
        // the anchor (possible for AR), scales stay clamped.
        let block = vec![
            10.0, -10.0, 10.0, -9.0, // mean 0.25
            1.0, 1.0, 1.0, 1.0, // mean 1.0 -> AR pattern
            -3.0, 0.0, 0.0, 0.0, // mean -0.75
        ];
        let fit = fit_pattern(ScalingMetric::Ar, &geom(), &block);
        assert!(fit.scales.iter().all(|s| s.abs() <= 1.0));
    }
}
