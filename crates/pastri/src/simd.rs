//! The codec's hot loops, and the run-time choice between their two
//! builds.
//!
//! Each direction is one `#[inline(always)]` body compiled twice:
//! portably (2-wide SSE2 on the x86_64 baseline) and, on x86_64, under
//! `avx2,bmi2`. The write path is the block compressor
//! ([`crate::block::compress_block_inner`]), with the ER pattern scan
//! ([`crate::metrics::er_scan`]), the ECQ row kernel below and the
//! two-pass ECQ emitter inlined: AVX2 gives the scan and the kernel
//! four lanes and the 64-bit compares SSE2 lacks, and BMI2's flagless
//! shifts serve the emitter's bit packer. The read path is the batch
//! block decoder ([`crate::block::decompress_blocks`]), where those
//! shifts shorten the ECQ walk's symbol-length chain. [`Simd`] holds
//! the choice, made by CPUID checks once per block or batch before
//! either runs. No build uses FMA, so every build rounds every
//! operation identically: the compressor writes the same bytes and the
//! decoder the same values.
//!
//! # The ECQ row kernel
//!
//! It quantizes, verifies and counts one sub-block row of residuals in
//! a loop with no branch. For each point it computes the code
//! `x = (v − S·P)/(2·EB)` and rounds it half away from zero: adding
//! `1.5·2^52` lands any `|x| < 2^51` where the f64 spacing is 1, so
//! `r = (x + 1.5·2^52) − 1.5·2^52` is `x` rounded to nearest, ties to
//! even, and a tie (`x − r = ±½`) rounded toward zero is then stepped
//! away from it. The integer code is read off the shifted sum's bit
//! pattern. It then checks `|v − (S·P + q·2·EB)| ≤ EB` exactly as the
//! scalar path does, and counts zeros, `±1` and the OR of `|q|` —
//! integer reductions only, since a float reduction would keep the loop
//! scalar.
//!
//! The kernel never nudges a code and never gives up on a block. If any
//! lane is out of its range or fails verification, it rejects the row
//! and [`quantize_row`] reruns that row through the scalar
//! verify-and-nudge path, the only one that nudges a code or sends a
//! block Verbatim. Wherever the kernel accepts a row, both paths give
//! the same codes.

use bitio::BitWriter;

use crate::block::{compress_block_inner, decompress_blocks, BlockJob, BlockKind};
use crate::container::CompressorOptions;
use crate::encoding::EcqCensus;
use crate::geometry::BlockGeometry;
#[cfg(test)]
use crate::metrics::{er_scan, ErScan};
use crate::quant::{ecq_bits, Quantizer};

/// `1.5·2^52`: `x + SHIFT` lies in `[2^52, 2^53)`, where consecutive
/// doubles are 1 apart, for every `|x| < 2^51`.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// The kernel's range: `|x| < 2^51`. Codes from there up to the
/// quantizer's `2^52` limit take the scalar path.
const LIMIT: f64 = 2_251_799_813_685_248.0;

/// Quantizes row `values` against the prediction `scale · pattern` into
/// `codes`, and returns the row's census; `None` rejects the row
/// (`codes` then holds garbage). The three slices have one length.
#[inline(always)]
fn row_kernel(
    values: &[f64],
    pattern: &[f64],
    scale: f64,
    quant: &Quantizer,
    codes: &mut [i64],
) -> Option<EcqCensus> {
    let (bin, eb) = (quant.bin(), quant.eb());
    let (mut zeros, mut plus_one, mut minus_one, mut widest) = (0u64, 0u64, 0u64, 0u64);
    let mut rejected = false;
    for ((code, &v), &p) in codes.iter_mut().zip(values).zip(pattern) {
        let pred = scale * p;
        let x = (v - pred) / bin;
        let r = (x + SHIFT) - SHIFT;
        let d = x - r;
        let step = if (d == 0.5) & (x > 0.0) {
            1.0
        } else if (d == -0.5) & (x < 0.0) {
            -1.0
        } else {
            0.0
        };
        let q = r + step;
        // NaN fails both tests, so non-finite residuals are rejected too.
        rejected |= !((x.abs() < LIMIT) & ((v - (pred + q * bin)).abs() <= eb));
        let c = (q + SHIFT).to_bits().wrapping_sub(SHIFT.to_bits()) as i64;
        zeros += u64::from(c == 0);
        plus_one += u64::from(c == 1);
        minus_one += u64::from(c == -1);
        widest |= c.unsigned_abs();
        *code = c;
    }
    (!rejected).then(|| EcqCensus {
        total: codes.len() as u64,
        zeros,
        plus_one,
        minus_one,
        max_bits: ecq_bits(widest as i64),
    })
}

/// The builds for AVX2 and BMI2.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(test)]
    use super::{row_kernel, EcqCensus, ErScan};
    use super::{BlockGeometry, BlockJob, Quantizer};
    use crate::block::{compress_block_inner, BlockKind};
    use crate::container::CompressorOptions;
    use bitio::BitWriter;

    /// Proof that the running CPU has AVX2 and BMI2: only
    /// [`Avx2Bmi2::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx2Bmi2(());

    impl Avx2Bmi2 {
        /// `Some` when the CPU reports both features. std caches the
        /// CPUID probes, so this is two atomic loads.
        pub(super) fn detect() -> Option<Self> {
            (std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("bmi2"))
                .then_some(Self(()))
        }

        #[inline]
        pub(super) fn decompress_blocks(
            self,
            jobs: &mut [BlockJob<'_>],
            geom: &BlockGeometry,
            quant: &Quantizer,
        ) {
            // SAFETY: an `Avx2Bmi2` exists only once `detect` has seen
            // the CPU report AVX2 and BMI2, the features
            // `decompress_blocks` is compiled for.
            unsafe { decompress_blocks(jobs, geom, quant) }
        }

        #[inline]
        pub(super) fn compress_block(
            self,
            block: &[f64],
            geom: &BlockGeometry,
            quant: &Quantizer,
            opts: &CompressorOptions,
            w: &mut BitWriter,
        ) -> BlockKind {
            // SAFETY: as for `decompress_blocks` above.
            unsafe { compress_block(block, geom, quant, opts, w) }
        }

        #[cfg(test)]
        pub(super) fn er_scan(self, geom: &BlockGeometry, block: &[f64]) -> ErScan {
            // SAFETY: as for `decompress_blocks` above.
            unsafe { er_scan(geom, block) }
        }

        #[cfg(test)]
        pub(super) fn row(
            self,
            values: &[f64],
            pattern: &[f64],
            scale: f64,
            quant: &Quantizer,
            codes: &mut [i64],
        ) -> Option<EcqCensus> {
            // SAFETY: as for `decompress_blocks` above.
            unsafe { row(values, pattern, scale, quant, codes) }
        }
    }

    #[target_feature(enable = "avx2,bmi2")]
    fn decompress_blocks(jobs: &mut [BlockJob<'_>], geom: &BlockGeometry, quant: &Quantizer) {
        super::decompress_blocks(jobs, geom, quant);
    }

    #[target_feature(enable = "avx2,bmi2")]
    fn compress_block(
        block: &[f64],
        geom: &BlockGeometry,
        quant: &Quantizer,
        opts: &CompressorOptions,
        w: &mut BitWriter,
    ) -> BlockKind {
        compress_block_inner(block, geom, quant, opts, w)
    }

    /// The ER scan alone, as the compressor's build inlines it: for the
    /// differential tests.
    #[cfg(test)]
    #[target_feature(enable = "avx2,bmi2")]
    fn er_scan(geom: &BlockGeometry, block: &[f64]) -> ErScan {
        super::er_scan(geom, block)
    }

    /// The row kernel alone, as the compressor's build inlines it: for
    /// the differential tests.
    #[cfg(test)]
    #[target_feature(enable = "avx2,bmi2")]
    fn row(
        values: &[f64],
        pattern: &[f64],
        scale: f64,
        quant: &Quantizer,
        codes: &mut [i64],
    ) -> Option<EcqCensus> {
        row_kernel(values, pattern, scale, quant, codes)
    }
}

/// Asks the CPU to start loading `values` into its L2 cache: the
/// compressor hints the next block while it codes this one, so the ER
/// scan, the first pass over each block, does not wait on memory. A
/// no-op off x86_64.
pub(crate) fn prefetch(values: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    hint::prefetch(values);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = values;
}

/// The prefetch hint.
#[cfg(target_arch = "x86_64")]
mod hint {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};

    pub(super) fn prefetch(values: &[f64]) {
        // One hint per 64-byte cache line.
        for line in values.chunks(8) {
            // SAFETY: a prefetch only hints the cache and never faults,
            // and SSE, the one feature it needs, is baseline on x86_64.
            unsafe { _mm_prefetch::<_MM_HINT_T1>(line.as_ptr().cast::<i8>()) }
        }
    }
}

/// Which build of the hot loops this CPU runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Simd {
    #[cfg(target_arch = "x86_64")]
    avx2_bmi2: Option<avx2::Avx2Bmi2>,
}

impl Simd {
    /// The widest build the CPU supports.
    pub(crate) fn detect() -> Self {
        Self {
            #[cfg(target_arch = "x86_64")]
            avx2_bmi2: avx2::Avx2Bmi2::detect(),
        }
    }

    /// Every build this CPU can run, named, the portable one first: for
    /// differential tests.
    #[cfg(test)]
    pub(crate) fn variants() -> Vec<(&'static str, Self)> {
        #[cfg(target_arch = "x86_64")]
        let avx2_bmi2 = avx2::Avx2Bmi2::detect().map(|_| ("avx2,bmi2", Self::detect()));
        #[cfg(not(target_arch = "x86_64"))]
        let avx2_bmi2 = None;
        let portable = Self {
            #[cfg(target_arch = "x86_64")]
            avx2_bmi2: None,
        };
        std::iter::once(("portable", portable))
            .chain(avx2_bmi2)
            .collect()
    }

    /// [`decompress_blocks`] in this build.
    #[inline]
    pub(crate) fn decompress_blocks(
        self,
        jobs: &mut [BlockJob<'_>],
        geom: &BlockGeometry,
        quant: &Quantizer,
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2_bmi2) = self.avx2_bmi2 {
            return avx2_bmi2.decompress_blocks(jobs, geom, quant);
        }
        decompress_blocks(jobs, geom, quant);
    }

    /// [`compress_block_inner`] in this build.
    #[inline]
    pub(crate) fn compress_block(
        self,
        block: &[f64],
        geom: &BlockGeometry,
        quant: &Quantizer,
        opts: &CompressorOptions,
        w: &mut BitWriter,
    ) -> BlockKind {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2_bmi2) = self.avx2_bmi2 {
            return avx2_bmi2.compress_block(block, geom, quant, opts, w);
        }
        compress_block_inner(block, geom, quant, opts, w)
    }

    /// [`er_scan`] in this build.
    #[cfg(test)]
    pub(crate) fn er_scan(self, geom: &BlockGeometry, block: &[f64]) -> ErScan {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2_bmi2) = self.avx2_bmi2 {
            return avx2_bmi2.er_scan(geom, block);
        }
        er_scan(geom, block)
    }

    /// The ECQ row kernel in this build.
    #[cfg(test)]
    fn row_kernel(
        self,
        values: &[f64],
        pattern: &[f64],
        scale: f64,
        quant: &Quantizer,
        codes: &mut [i64],
    ) -> Option<EcqCensus> {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2_bmi2) = self.avx2_bmi2 {
            return avx2_bmi2.row(values, pattern, scale, quant, codes);
        }
        row_kernel(values, pattern, scale, quant, codes)
    }
}

/// Quantizes one row's ECQ codes into `codes` and returns their census:
/// through the row kernel, or, for a row it rejects, through
/// [`scalar_row`]. `None` means some point of the row cannot be coded
/// within `EB`, and the block goes Verbatim.
///
/// Inlined into each build of the block compressor, with the row kernel.
#[inline(always)]
pub(crate) fn quantize_row(
    values: &[f64],
    pattern: &[f64],
    scale: f64,
    quant: &Quantizer,
    codes: &mut [i64],
) -> Option<EcqCensus> {
    debug_assert!(values.len() == pattern.len() && codes.len() == pattern.len());
    row_kernel(values, pattern, scale, quant, codes)
        .or_else(|| scalar_row(values, pattern, scale, quant, codes))
}

/// ECQ with verify-and-nudge, one point at a time: the residual is
/// quantized against the *reconstructed* prediction, then the decoded
/// value is checked; a floating-point corner case gets its code nudged
/// by ±1, and if that still fails the row (and so the block) is
/// rejected.
fn scalar_row(
    values: &[f64],
    pattern: &[f64],
    scale: f64,
    quant: &Quantizer,
    codes: &mut [i64],
) -> Option<EcqCensus> {
    let eb = quant.eb();
    let mut census = EcqCensus::default();
    for ((code, &v), &p) in codes.iter_mut().zip(values).zip(pattern) {
        let pred = scale * p;
        let mut q = quant.quantize(v - pred)?;
        if (v - (pred + quant.dequantize(q))).abs() > eb {
            let qq = if v > pred + quant.dequantize(q) {
                q + 1
            } else {
                q - 1
            };
            if (v - (pred + quant.dequantize(qq))).abs() > eb {
                return None;
            }
            q = qq;
        }
        census.record(q);
        *code = q;
    }
    Some(census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the scalar verify-and-nudge loop the kernel replaced does
    /// with one point.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Reference {
        /// Coded with no nudge; `in_range` says whether `|x| < 2^51`.
        Code {
            q: i64,
            in_range: bool,
        },
        Nudged(i64),
        /// Not codable within EB: the block goes Verbatim.
        Verbatim,
    }

    /// The scalar ECQ loop as it stood before the row kernel, one point
    /// at a time.
    fn reference(v: f64, p: f64, scale: f64, quant: &Quantizer) -> Reference {
        let eb = quant.eb();
        let pred = scale * p;
        let Some(q) = quant.quantize(v - pred) else {
            return Reference::Verbatim;
        };
        if (v - (pred + quant.dequantize(q))).abs() > eb {
            let qq = if v > pred + quant.dequantize(q) {
                q + 1
            } else {
                q - 1
            };
            return if (v - (pred + quant.dequantize(qq))).abs() <= eb {
                Reference::Nudged(qq)
            } else {
                Reference::Verbatim
            };
        }
        let in_range = ((v - pred) / quant.bin()).abs() < LIMIT;
        Reference::Code { q, in_range }
    }

    /// Which reference outcomes a row exercised.
    #[derive(Default)]
    struct Coverage {
        rows: usize,
        accepted: usize,
        ties: usize,
        out_of_range: usize,
        nudged: usize,
        verbatim: usize,
    }

    /// Checks every variant and the dispatched [`quantize_row`] against
    /// the reference on one row.
    fn check_row(values: &[f64], pattern: &[f64], scale: f64, eb: f64, cov: &mut Coverage) {
        let quant = Quantizer::new(eb);
        let refs: Vec<Reference> = values
            .iter()
            .zip(pattern)
            .map(|(&v, &p)| reference(v, p, scale, &quant))
            .collect();
        let ctx = format!("values {values:?} pattern {pattern:?} scale {scale:e} eb {eb:e}");
        let codes_ref: Option<Vec<i64>> = refs
            .iter()
            .map(|r| match *r {
                Reference::Code { q, .. } | Reference::Nudged(q) => Some(q),
                Reference::Verbatim => None,
            })
            .collect();
        let census_ref = codes_ref.as_ref().map(|codes| {
            let mut c = EcqCensus::default();
            codes.iter().for_each(|&q| c.record(q));
            c
        });
        let must_fall_back = refs
            .iter()
            .any(|r| !matches!(r, Reference::Code { in_range: true, .. }));

        for (name, simd) in Simd::variants() {
            let mut codes = vec![0i64; values.len()];
            match simd.row_kernel(values, pattern, scale, &quant, &mut codes) {
                Some(census) => {
                    assert!(
                        !must_fall_back,
                        "{name} accepted a row the scalar path must take: {ctx}"
                    );
                    assert_eq!(Some(&codes), codes_ref.as_ref(), "{name} codes: {ctx}");
                    assert_eq!(Some(census), census_ref, "{name} census: {ctx}");
                }
                None => assert!(must_fall_back, "{name} rejected a row it can code: {ctx}"),
            }
        }
        let mut codes = vec![0i64; values.len()];
        let got = quantize_row(values, pattern, scale, &quant, &mut codes);
        assert_eq!(got, census_ref, "dispatched census: {ctx}");
        if got.is_some() {
            assert_eq!(Some(&codes), codes_ref.as_ref(), "dispatched codes: {ctx}");
        }

        cov.rows += 1;
        cov.accepted += usize::from(!must_fall_back);
        cov.ties += values
            .iter()
            .zip(pattern)
            .filter(|&(&v, &p)| ((v - scale * p) / quant.bin()).fract().abs() == 0.5)
            .count();
        for r in &refs {
            match r {
                Reference::Code {
                    in_range: false, ..
                } => cov.out_of_range += 1,
                Reference::Nudged(_) => cov.nudged += 1,
                Reference::Verbatim => cov.verbatim += 1,
                Reference::Code { .. } => {}
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_reference_on_adversarial_rows() {
        let mut cov = Coverage::default();
        let two51 = LIMIT;
        let two52 = 2.0 * LIMIT;
        let pattern1 = |n: usize| vec![1.0; n];
        // EB = 0.5 makes the bin 1, so each value is its own code `x`.
        let exact: Vec<Vec<f64>> = vec![
            // Ties ±(k + ½), either parity of k, and their neighbours.
            vec![0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5],
            vec![
                1e6 + 0.5,
                -1e6 - 0.5,
                4503.5,
                -4503.5,
                0.49999999999999994,
                -0.49999999999999994,
            ],
            // −0.0, +0.0 and subnormal residuals.
            vec![
                -0.0,
                0.0,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE / 2.0,
                -f64::MIN_POSITIVE,
            ],
            // |x| just under 2^51: the kernel's last codes.
            vec![two51 - 0.25, -(two51 - 0.25), two51 - 0.5, -(two51 - 1.5)],
            // |x| at 2^51 and 1 ulp past: the scalar path codes these.
            vec![two51, -two51, two51 + 0.5, -(two51 + 0.5), 1.0],
            vec![0.0, 0.0, 0.0, two51 + 0.5],
            // Past 2^52: Verbatim.
            vec![two52 + 2.0, 0.0, 1.0],
            vec![0.0, -(two52 + 4.0)],
            vec![1.0; 37],
            vec![],
        ];
        for row in &exact {
            check_row(row, &pattern1(row.len()), 0.0, 0.5, &mut cov);
            // Through a prediction of −½: ties become integers and back.
            check_row(row, &vec![0.5; row.len()], -1.0, 0.5, &mut cov);
        }
        // Ties in every bin size from 2^-1000 to 1.
        for e in (-1000..=0).step_by(37) {
            let eb = 2f64.powi(e);
            let bin = 2.0 * eb;
            let row: Vec<f64> = (-6..6).map(|k| (f64::from(k) + 0.5) * bin).collect();
            check_row(&row, &pattern1(row.len()), 0.0, eb, &mut cov);
        }
        // EB from 1e-300 to 1 over smooth data, a prediction and noise.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for &eb in &[1e-300, 1e-200, 1e-100, 1e-20, 1e-12, 1e-10, 1e-6, 1e-3, 1.0] {
            for _ in 0..40 {
                let mag = eb * 2f64.powi((next() % 60) as i32);
                let scale = ((next() % 2001) as f64 - 1000.0) / 1000.0;
                let pattern: Vec<f64> = (0..36)
                    .map(|_| ((next() >> 11) as f64 / 2f64.powi(53) - 0.5) * mag)
                    .collect();
                let values: Vec<f64> = pattern
                    .iter()
                    .map(|&p| scale * p + ((next() >> 11) as f64 / 2f64.powi(53) - 0.5) * eb * 8.0)
                    .collect();
                check_row(&values, &pattern, scale, eb, &mut cov);
            }
        }
        // EB within a few ulps of the prediction: rounding `pred + q·bin`
        // to the ulp grid can leave a point just outside EB, which needs
        // a nudge, and some points no code reaches.
        for _ in 0..4000 {
            let big = 2f64.powi((next() % 64) as i32 - 32);
            let ulp = big * f64::EPSILON;
            let eb = ulp * (0.25 + (next() % 64) as f64 / 32.0);
            let scale = if next() % 2 == 0 {
                1.0
            } else {
                1.0 - (next() % 1000) as f64 / 4096.0
            };
            let pattern: Vec<f64> = (0..8)
                .map(|_| big * (1.0 + (next() % 1024) as f64 / 1024.0))
                .collect();
            let values: Vec<f64> = pattern
                .iter()
                .map(|&p| match next() % 4 {
                    0 => (next() % 1024) as f64 * eb,
                    _ => scale * p + ((next() % 64) as f64 - 32.0) * eb * 0.37,
                })
                .collect();
            check_row(&values, &pattern, scale, eb, &mut cov);
        }
        assert!(
            cov.accepted > 100,
            "kernel accepted {} of {} rows",
            cov.accepted,
            cov.rows
        );
        assert!(cov.ties > 50, "ties {}", cov.ties);
        assert!(cov.out_of_range > 0, "no row beyond 2^51");
        assert!(cov.nudged > 0, "no row needed a nudge");
        assert!(cov.verbatim > 0, "no row failed its nudge");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random rows across the error-bound range, with exact ties and
        /// points pushed towards the kernel's range limit.
        #[test]
        fn kernel_matches_scalar_reference(
            eb_exp in -300i32..=0,
            mag_exp in 0i32..60,
            len in 0usize..80,
            scale_code in -1000i64..=1000,
            seed in any::<u64>(),
        ) {
            let eb = 10f64.powi(eb_exp);
            let bin = 2.0 * eb;
            let scale = scale_code as f64 / 1000.0;
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mag = eb * 2f64.powi(mag_exp);
            let pattern: Vec<f64> = (0..len).map(|_| ((next() >> 11) as f64 / 2f64.powi(53) - 0.5) * mag).collect();
            let values: Vec<f64> = pattern
                .iter()
                .map(|&p| {
                    let pred = scale * p;
                    match next() % 8 {
                        0 => pred + ((next() % 64) as f64 - 31.5) * bin,
                        1 => pred + ((next() % 3) as f64 - 1.0) * LIMIT * bin,
                        2 => -0.0,
                        _ => pred + ((next() >> 11) as f64 / 2f64.powi(53) - 0.5) * eb * 16.0,
                    }
                })
                .collect();
            let mut cov = Coverage::default();
            check_row(&values, &pattern, scale, eb, &mut cov);
        }
    }
}
