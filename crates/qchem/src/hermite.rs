//! McMurchie–Davidson Hermite expansion coefficients.
//!
//! A product of two 1-D Cartesian Gaussians of angular factors `x_A^i` and
//! `x_B^j` expands in Hermite Gaussians `Λ_t` centred at the Gaussian
//! product centre `P`:
//!
//! ```text
//! x_A^i x_B^j e^{-a x_A²} e^{-b x_B²} = e^{-q X_AB²} Σ_t E_t^{ij} Λ_t(x_P; p)
//! ```
//!
//! with `p = a + b`, `q = ab/p`, `X_AB = A - B`. The `E_t^{ij}` obey the
//! standard transfer recurrences (building up `i`, then `j`):
//!
//! ```text
//! E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + X_PA · E_t^{ij} + (t+1) E_{t+1}^{ij}
//! E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + X_PB · E_t^{ij} + (t+1) E_{t+1}^{ij}
//! E_0^{00}    = e^{-q X_AB²},   E_t^{ij} = 0 unless 0 ≤ t ≤ i+j.
//! ```

/// Hermite expansion table for one Cartesian dimension of a shell pair.
///
/// Indexed as `E[i][j][t]` with `i ≤ i_max`, `j ≤ j_max`, `t ≤ i + j`.
#[derive(Debug, Clone)]
pub(crate) struct ETable {
    data: Vec<f64>,
    j_max: usize,
    t_stride: usize,
}

impl ETable {
    /// Builds the full `E_t^{ij}` table for exponents `a`, `b` and centre
    /// coordinates `ax`, `bx` in this dimension.
    #[must_use]
    pub(crate) fn build(i_max: usize, j_max: usize, a: f64, b: f64, ax: f64, bx: f64) -> Self {
        let p = a + b;
        let q = a * b / p;
        let px = (a * ax + b * bx) / p;
        let xab = ax - bx;
        let xpa = px - ax;
        let xpb = px - bx;
        let t_stride = i_max + j_max + 1;
        let mut table = Self {
            data: vec![0.0; (i_max + 1) * (j_max + 1) * t_stride],
            j_max,
            t_stride,
        };
        table.set(0, 0, 0, (-q * xab * xab).exp());
        // Build up i with j = 0.
        for i in 0..i_max {
            for t in 0..=(i + 1) {
                let mut v = xpa * table.get(i, 0, t);
                if t > 0 {
                    v += table.get(i, 0, t - 1) / (2.0 * p);
                }
                if t < i {
                    v += (t + 1) as f64 * table.get(i, 0, t + 1);
                }
                table.set(i + 1, 0, t, v);
            }
        }
        // Build up j for every i.
        for i in 0..=i_max {
            for j in 0..j_max {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * table.get(i, j, t);
                    if t > 0 {
                        v += table.get(i, j, t - 1) / (2.0 * p);
                    }
                    if t < i + j {
                        v += (t + 1) as f64 * table.get(i, j, t + 1);
                    }
                    table.set(i, j + 1, t, v);
                }
            }
        }
        table
    }

    /// `E_t^{ij}`; zero outside the valid `t` range.
    #[inline]
    #[must_use]
    pub(crate) fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if t >= self.t_stride {
            return 0.0;
        }
        self.data[(i * (self.j_max + 1) + j) * self.t_stride + t]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, t: usize, v: f64) {
        self.data[(i * (self.j_max + 1) + j) * self.t_stride + t] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e000_is_gaussian_prefactor() {
        let (a, b, ax, bx) = (0.9, 1.3, 0.0, 1.5);
        let e = ETable::build(2, 2, a, b, ax, bx);
        let q = a * b / (a + b);
        let expect = (-q * (ax - bx) * (ax - bx)).exp();
        assert!((e.get(0, 0, 0) - expect).abs() < 1e-15);
    }

    #[test]
    fn same_center_odd_t_vanishes_for_s_p() {
        // With A == B, E_t^{ij} reduces to Hermite coefficients of x^{i+j};
        // E_0^{01} = X_PB = 0 on the same centre.
        let e = ETable::build(1, 1, 0.8, 0.8, 2.0, 2.0);
        assert!((e.get(0, 0, 0) - 1.0).abs() < 1e-15);
        assert!(e.get(0, 1, 0).abs() < 1e-15);
        assert!(e.get(1, 0, 0).abs() < 1e-15);
        // E_1^{10} = 1/(2p)
        let p = 1.6;
        assert!((e.get(1, 0, 1) - 1.0 / (2.0 * p)).abs() < 1e-15);
    }

    /// The sum rule Σ_t E_t^{ij} · (t == 0 terms of Λ) recovers the overlap:
    /// ∫ x_A^i x_B^j e^{-a x_A²-b x_B²} dx = E_0^{ij} √(π/p).
    /// Check it against numerical quadrature.
    #[test]
    fn e0_gives_overlap_integral() {
        let (a, b, ax, bx) = (0.7, 0.45, -0.3, 0.9);
        let p = a + b;
        let imax = 3usize;
        let jmax = 3usize;
        let e = ETable::build(imax, jmax, a, b, ax, bx);
        for i in 0..=imax {
            for j in 0..=jmax {
                // numerical integral
                let n = 400_000;
                let (lo, hi) = (-12.0f64, 12.0f64);
                let h = (hi - lo) / n as f64;
                let mut s = 0.0;
                for k in 0..=n {
                    let x = lo + k as f64 * h;
                    let w = if k == 0 || k == n {
                        0.5
                    } else {
                        1.0
                    };
                    s += w
                        * (x - ax).powi(i as i32)
                        * (x - bx).powi(j as i32)
                        * (-a * (x - ax).powi(2) - b * (x - bx).powi(2)).exp();
                }
                s *= h;
                let analytic = e.get(i, j, 0) * (std::f64::consts::PI / p).sqrt();
                assert!(
                    (s - analytic).abs() < 1e-9 * s.abs().max(1e-6),
                    "overlap ({i},{j}): quad {s} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_t_is_zero() {
        let e = ETable::build(1, 1, 0.5, 0.5, 0.0, 1.0);
        assert_eq!(e.get(1, 1, 3), 0.0); // t > i+j within stride? stride=3, t=3 out
    }
}
