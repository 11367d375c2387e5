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
            ScalingMetric::Er => {
                let mut best = 0.0f64;
                for &v in sb {
                    if v.abs() > best.abs() {
                        best = v;
                    }
                }
                best
            }
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
    let sbs = geom.subblock_size;
    // Metric value per sub-block; pattern = largest magnitude.
    let mut values = Vec::with_capacity(geom.num_subblocks);
    let mut pattern_sb = 0usize;
    let mut best = -1.0f64;
    for sb in 0..geom.num_subblocks {
        let v = metric.value(&block[sb * sbs..(sb + 1) * sbs]);
        if v.abs() > best {
            best = v.abs();
            pattern_sb = sb;
        }
        values.push(v);
    }
    let pat = &block[pattern_sb * sbs..(pattern_sb + 1) * sbs];
    let pat_metric = values[pattern_sb];
    // Anchor for sign correction: the pattern's largest-magnitude point.
    let anchor = argmax_abs(pat);

    let mut scales = Vec::with_capacity(geom.num_subblocks);
    for sb in 0..geom.num_subblocks {
        let s = if pat_metric == 0.0 {
            0.0
        } else {
            let raw = values[sb] / pat_metric;
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
