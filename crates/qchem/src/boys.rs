//! The Boys function `F_n(x) = ∫₀¹ t^{2n} e^{-x t²} dt`.
//!
//! Every Coulomb-type Gaussian integral reduces to Boys function values;
//! a `(ff|ff)` ERI needs orders up to `n = 12`. Evaluation strategy
//! (standard in integral codes):
//!
//! * `x` below `SERIES_CUTOFF` (117): evaluate the highest order needed with the
//!   convergent Kummer series
//!   `F_n(x) = e^{-x} Σ_k (2x)^k (2n-1)!! / (2n+2k+1)!!`,
//!   then fill lower orders by the *downward* recursion
//!   `F_n(x) = (2x F_{n+1}(x) + e^{-x}) / (2n+1)`, which is stable.
//! * large `x`: the asymptotic form
//!   `F_n(x) ≈ (2n-1)!! / (2x)^n · √(π/x) / 2` (the `e^{-x}` remainder is
//!   below double precision), again followed by downward recursion.

use crate::angular::double_factorial;

/// Crossover between the convergent series and the asymptotic form.
///
/// The asymptotic form neglects terms of order `e^{-x}`; those must be
/// small relative to `F_n(x)` itself, which for high orders decays like
/// `(2x)^{-n}`. At `x = 117`, `e^{-x} ≈ 1e-51` while `F_24(117)` is only
/// `~1e-40`, so the branch is exact to double precision for every
/// supported order. Below the cutoff the all-positive Kummer series is
/// used (no cancellation; ~`2x + 90` terms worst case).
pub(crate) const SERIES_CUTOFF: f64 = 117.0;

/// Maximum order supported (enough for `(hh|hh)` quartets, l=5 ⇒ n=20).
pub(crate) const MAX_ORDER: usize = 24;

/// Evaluates `F_0(x) … F_{n_max}(x)` into `out[0..=n_max]`.
///
/// # Panics
/// Panics if `n_max > MAX_ORDER`, `x < 0`, or `out` is too short.
pub(crate) fn boys(n_max: usize, x: f64, out: &mut [f64]) {
    assert!(n_max <= MAX_ORDER, "boys order {n_max} > MAX_ORDER");
    assert!(x >= 0.0 && x.is_finite(), "boys argument must be finite and >= 0");
    assert!(out.len() > n_max);

    let emx = (-x).exp();
    if x < SERIES_CUTOFF {
        out[n_max] = boys_series(n_max, x, emx);
    } else {
        out[n_max] = boys_asymptotic(n_max, x);
    }
    // Stable downward recursion.
    for n in (0..n_max).rev() {
        out[n] = (2.0 * x * out[n + 1] + emx) / (2 * n + 1) as f64;
    }
}

/// Convenience wrapper returning a fresh vector.
#[must_use]
pub fn boys_vec(n_max: usize, x: f64) -> Vec<f64> {
    let mut out = vec![0.0; n_max + 1];
    boys(n_max, x, &mut out);
    out
}

/// Kummer series, converges for all x but used only below the cutoff.
fn boys_series(n: usize, x: f64, emx: f64) -> f64 {
    // F_n(x) = e^{-x} Σ_{k≥0} (2x)^k (2n-1)!!/(2n+2k+1)!!
    //        = e^{-x} Σ_{k≥0} term_k,  term_0 = 1/(2n+1),
    //          term_{k+1} = term_k * 2x / (2n+2k+3).
    let mut term = 1.0 / (2 * n + 1) as f64;
    let mut sum = term;
    let mut k = 0usize;
    loop {
        term *= 2.0 * x / (2 * n + 2 * k + 3) as f64;
        sum += term;
        k += 1;
        if term < sum * 1e-17 || k > 600 {
            break;
        }
    }
    emx * sum
}

/// Large-x asymptotic form (relative error < 1e-15 for x > 35).
fn boys_asymptotic(n: usize, x: f64) -> f64 {
    let n_i = n as i64;
    double_factorial(2 * n_i - 1) / (2.0 * (2.0 * x).powi(n as i32))
        * (std::f64::consts::PI / x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference via adaptive Simpson on the defining integral.
    fn boys_reference(n: usize, x: f64) -> f64 {
        let f = |t: f64| t.powi(2 * n as i32) * (-x * t * t).exp();
        // Composite Simpson with many panels is plenty at these scales.
        let panels = 20_000;
        let h = 1.0 / panels as f64;
        let mut sum = f(0.0) + f(1.0);
        for i in 1..panels {
            let t = i as f64 * h;
            sum += f(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        sum * h / 3.0
    }

    #[test]
    fn values_at_zero() {
        let v = boys_vec(12, 0.0);
        for (n, &fv) in v.iter().enumerate() {
            assert!(
                (fv - 1.0 / (2 * n + 1) as f64).abs() < 1e-15,
                "F_{n}(0) = {fv}"
            );
        }
    }

    #[test]
    fn matches_quadrature_small_x() {
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0, 20.0, 34.9] {
            let v = boys_vec(8, x);
            for (n, &fv) in v.iter().enumerate() {
                let r = boys_reference(n, x);
                assert!(
                    (fv - r).abs() < 1e-10 * r.max(1e-30),
                    "F_{n}({x}): got {fv} want {r}"
                );
            }
        }
    }

    #[test]
    fn matches_quadrature_large_x() {
        // Quadrature reference itself is only ~1e-10 accurate here, so the
        // tolerance reflects the reference, not the implementation.
        for &x in &[35.1, 50.0, 100.0, 120.0, 500.0] {
            let v = boys_vec(6, x);
            for (n, &fv) in v.iter().enumerate() {
                let r = boys_reference(n, x);
                assert!(
                    (fv - r).abs() < 1e-8 * r.max(1e-300),
                    "F_{n}({x}): got {fv} want {r}"
                );
            }
        }
    }

    #[test]
    fn continuity_at_cutoff() {
        // The two branches must agree at the seam *evaluated at the same
        // x*, for every supported order including MAX_ORDER.
        let x = SERIES_CUTOFF;
        let emx = (-x).exp();
        for n in 0..=MAX_ORDER {
            let s = boys_series(n, x, emx);
            let a = boys_asymptotic(n, x);
            let rel = (s - a).abs() / a;
            assert!(rel < 1e-13, "order {n}: series {s} vs asymptotic {a}");
        }
    }

    #[test]
    fn f0_closed_form() {
        // F_0(x) = sqrt(pi/x)/2 * erf(sqrt(x)); check against known values.
        // F_0(1) = 0.7468241328124270 (standard tables).
        let v = boys_vec(0, 1.0);
        assert!((v[0] - 0.746_824_132_812_427).abs() < 1e-13);
    }

    #[test]
    fn monotone_decreasing_in_n_and_x() {
        for &x in &[0.0, 0.5, 2.0, 40.0] {
            let v = boys_vec(10, x);
            for n in 0..10 {
                assert!(v[n] >= v[n + 1], "F decreasing in n at x={x}");
            }
        }
        for n in 0..=4usize {
            let mut last = f64::INFINITY;
            for &x in &[0.0, 1.0, 5.0, 20.0, 50.0] {
                let v = boys_vec(n, x);
                assert!(v[n] <= last, "F_{n} decreasing in x");
                last = v[n];
            }
        }
    }

    #[test]
    #[should_panic(expected = "boys argument")]
    fn negative_x_panics() {
        let _ = boys_vec(0, -1.0);
    }
}
