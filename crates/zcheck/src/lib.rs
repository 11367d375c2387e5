//! Compression assessment metrics — the Z-Checker stand-in (Tao et al.,
//! IJHPCA 2017), providing everything the paper's Fig. 9 reports:
//! compression ratio, bit rate, maximum absolute error, MSE, PSNR, and
//! rate–distortion sweeps, plus error autocorrelation as a sanity check
//! that the compressor is not leaving structured artifacts.

/// Full quality assessment of one compression run.
#[derive(Debug, Clone, Copy)]
pub struct Assessment {
    /// Number of data points compared.
    pub n: usize,
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Largest absolute pointwise error.
    pub max_abs_err: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Peak signal-to-noise ratio `20·log10(range/√MSE)` in dB
    /// (infinite when MSE = 0).
    pub psnr: f64,
    /// Original value range `max − min`.
    pub value_range: f64,
}

impl Assessment {
    /// Compression ratio `original / compressed`.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Bit rate: output bits per input value (`64 / CR` for doubles).
    #[must_use]
    pub(crate) fn bitrate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.compressed_bytes as f64 * 8.0 / self.n as f64
    }
}

/// Compares `original` against `decompressed` and sizes.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn assess(original: &[f64], decompressed: &[f64], compressed_bytes: usize) -> Assessment {
    assert_eq!(
        original.len(),
        decompressed.len(),
        "length mismatch between original and decompressed"
    );
    let n = original.len();
    let mut max_abs_err = 0.0f64;
    let mut sq_sum = 0.0f64;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (&a, &b) in original.iter().zip(decompressed) {
        let e = (a - b).abs();
        max_abs_err = max_abs_err.max(e);
        sq_sum += e * e;
        lo = lo.min(a);
        hi = hi.max(a);
    }
    let mse = if n == 0 { 0.0 } else { sq_sum / n as f64 };
    let value_range = if n == 0 { 0.0 } else { hi - lo };
    let psnr = if mse == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (value_range / mse.sqrt()).log10()
    };
    Assessment {
        n,
        original_bytes: n * 8,
        compressed_bytes,
        max_abs_err,
        mse,
        psnr,
        value_range,
    }
}

/// Lag-`k` autocorrelation of the pointwise error signal. Values near zero
/// mean the compressor's noise is white (desirable); large values expose
/// structured artifacts.
#[must_use]
pub fn error_autocorrelation(original: &[f64], decompressed: &[f64], lag: usize) -> f64 {
    assert_eq!(original.len(), decompressed.len());
    let err: Vec<f64> = original
        .iter()
        .zip(decompressed)
        .map(|(a, b)| a - b)
        .collect();
    if err.len() <= lag + 1 {
        return 0.0;
    }
    let mean = err.iter().sum::<f64>() / err.len() as f64;
    let var: f64 = err.iter().map(|e| (e - mean) * (e - mean)).sum();
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = (0..err.len() - lag)
        .map(|i| (err[i] - mean) * (err[i + lag] - mean))
        .sum();
    cov / var
}

/// One point on a rate–distortion curve (Fig. 9(b)).
#[derive(Debug, Clone, Copy)]
pub struct RateDistortionPoint {
    /// The error bound that produced this point.
    pub error_bound: f64,
    /// Bits per value.
    pub bitrate: f64,
    /// PSNR in dB.
    pub psnr: f64,
    /// Compression ratio.
    pub compression_ratio: f64,
    /// Observed maximum absolute error.
    pub max_abs_err: f64,
}

/// Sweeps error bounds through a codec to build a rate–distortion curve.
///
/// `codec` maps `(data, error_bound)` to
/// `(compressed_bytes_len, decompressed)`.
pub fn rate_distortion_sweep(
    data: &[f64],
    error_bounds: &[f64],
    mut codec: impl FnMut(&[f64], f64) -> (usize, Vec<f64>),
) -> Vec<RateDistortionPoint> {
    error_bounds
        .iter()
        .map(|&eb| {
            let (clen, back) = codec(data, eb);
            let a = assess(data, &back, clen);
            RateDistortionPoint {
                error_bound: eb,
                bitrate: a.bitrate(),
                psnr: a.psnr,
                compression_ratio: a.compression_ratio(),
                max_abs_err: a.max_abs_err,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_infinite_psnr() {
        let data = [1.0, 2.0, 3.0];
        let a = assess(&data, &data, 8);
        assert_eq!(a.max_abs_err, 0.0);
        assert_eq!(a.mse, 0.0);
        assert!(a.psnr.is_infinite());
        assert!((a.compression_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_error_metrics() {
        let orig = [0.0, 1.0, 2.0, 3.0];
        let dec = [0.1, 1.0, 1.9, 3.0];
        let a = assess(&orig, &dec, 16);
        assert!((a.max_abs_err - 0.1).abs() < 1e-12);
        // MSE = (0.01 + 0 + 0.01 + 0)/4 = 0.005.
        assert!((a.mse - 0.005).abs() < 1e-12);
        assert!((a.value_range - 3.0).abs() < 1e-12);
        // PSNR = 20 log10(3/sqrt(0.005)).
        let expect = 20.0 * (3.0 / 0.005f64.sqrt()).log10();
        assert!((a.psnr - expect).abs() < 1e-9);
        assert!((a.bitrate() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_improves_with_smaller_error() {
        let orig: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let noisy = |amp: f64| -> Vec<f64> {
            orig.iter()
                .enumerate()
                .map(|(i, v)| v + amp * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect()
        };
        let a1 = assess(&orig, &noisy(1e-3), 100);
        let a2 = assess(&orig, &noisy(1e-6), 100);
        assert!(a2.psnr > a1.psnr + 50.0, "{} vs {}", a2.psnr, a1.psnr);
    }

    #[test]
    fn autocorrelation_detects_structure() {
        let orig: Vec<f64> = vec![0.0; 2000];
        // Alternating error: strong negative lag-1 autocorrelation.
        let alt: Vec<f64> = (0..2000).map(|i| if i % 2 == 0 { 1e-9 } else { -1e-9 }).collect();
        let ac = error_autocorrelation(&orig, &alt, 1);
        assert!(ac < -0.9, "ac {ac}");
        // Period-2 structure at lag 2: strong positive.
        let ac2 = error_autocorrelation(&orig, &alt, 2);
        assert!(ac2 > 0.9, "ac2 {ac2}");
    }

    #[test]
    fn autocorrelation_of_perfect_reconstruction_is_zero() {
        let orig: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(error_autocorrelation(&orig, &orig, 1), 0.0);
    }

    #[test]
    fn sweep_is_monotone_for_a_quantizer() {
        // Fake codec: quantize to the bound, report size ~ log(1/eb).
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
        let points = rate_distortion_sweep(&data, &[1e-2, 1e-4, 1e-6], |d, eb| {
            let dec: Vec<f64> = d.iter().map(|v| (v / eb).round() * eb).collect();
            let bytes = (-(eb.log10()) * 100.0) as usize;
            (bytes, dec)
        });
        assert!(points[0].bitrate < points[2].bitrate);
        assert!(points[0].psnr < points[2].psnr);
        assert!(points[0].max_abs_err <= 1e-2 * 0.5 + 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = assess(&[1.0], &[1.0, 2.0], 8);
    }
}
