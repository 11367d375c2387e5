//! Minimal dense linear algebra for the SCF driver: a row-major matrix
//! type, products, and a cyclic Jacobi eigensolver for real symmetric
//! matrices (all the SCF needs: `S^{-1/2}` and Fock diagonalization).
//!
//! Basis-set dimensions here are tiny (≤ a few dozen), so simplicity and
//! correctness beat asymptotics.

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    #[must_use]
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Matrix product `self · other`.
    #[must_use]
    pub(crate) fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    #[must_use]
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Frobenius norm of `self − other`.
    #[must_use]
    pub(crate) fn distance(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Eigendecomposition of a real symmetric matrix: `a = V · diag(λ) · Vᵀ`.
///
/// Cyclic Jacobi with convergence on the off-diagonal norm; eigenpairs
/// are returned sorted ascending by eigenvalue.
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub(crate) fn eigh(a: &Matrix) -> (Vec<f64>, Matrix) {
    assert_eq!(a.rows, a.cols, "eigh needs a square matrix");
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..200 {
        let off: f64 = {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            s.sqrt()
        };
        if off < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let (app, aqq) = (m[(p, p)], m[(q, q)]);
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/cols p and q.
                for k in 0..n {
                    let (mkp, mkq) = (m[(k, p)], m[(k, q)]);
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[(p, k)], m[(q, k)]);
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs ascending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap());
    let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[(row, new_col)] = v[(row, old_col)];
        }
    }
    (eigenvalues, vectors)
}

/// `S^{-1/2}` of a symmetric positive-definite matrix (the symmetric
/// orthogonalizer of SCF).
///
/// # Panics
/// Panics if any eigenvalue is ≤ 1e-12 (linearly dependent basis).
#[must_use]
pub(crate) fn inverse_sqrt(s: &Matrix) -> Matrix {
    let (vals, vecs) = eigh(s);
    let n = s.rows;
    let mut d = Matrix::zeros(n, n);
    for (i, &l) in vals.iter().enumerate() {
        assert!(l > 1e-12, "matrix not positive definite (eigenvalue {l})");
        d[(i, i)] = 1.0 / l.sqrt();
    }
    vecs.mul(&d).mul(&vecs.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_mul() {
        let i3 = Matrix::identity(3);
        let a = Matrix::from_rows(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 10.]);
        assert_eq!(i3.mul(&a), a);
        assert_eq!(a.mul(&i3), a);
    }

    #[test]
    fn eigh_diagonal() {
        let a = Matrix::from_rows(3, 3, &[3., 0., 0., 0., 1., 0., 0., 0., 2.]);
        let (vals, _) = eigh(&a);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2,1],[1,2]] -> eigenvalues 1, 3 with (1,∓1)/√2 vectors.
        let a = Matrix::from_rows(2, 2, &[2., 1., 1., 2.]);
        let (vals, vecs) = eigh(&a);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Check A v = λ v for both.
        for k in 0..2 {
            for i in 0..2 {
                let av: f64 = (0..2).map(|j| a[(i, j)] * vecs[(j, k)]).sum();
                assert!((av - vals[k] * vecs[(i, k)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        // Random-ish symmetric 6x6.
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        let mut x = 1u64;
        for i in 0..n {
            for j in i..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((x >> 33) as f64 / 2f64.powi(31)) - 0.5;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = eigh(&a);
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = vals[i];
        }
        let rebuilt = vecs.mul(&d).mul(&vecs.transpose());
        assert!(rebuilt.distance(&a) < 1e-10, "distance {}", rebuilt.distance(&a));
        // Orthogonality.
        let vtv = vecs.transpose().mul(&vecs);
        assert!(vtv.distance(&Matrix::identity(n)) < 1e-10);
    }

    #[test]
    fn inverse_sqrt_property() {
        let s = Matrix::from_rows(2, 2, &[1.0, 0.45, 0.45, 1.0]);
        let x = inverse_sqrt(&s);
        // Xᵀ S X = I (the orthogonalization property).
        let t = x.transpose().mul(&s).mul(&x);
        assert!(t.distance(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive definite")]
    fn inverse_sqrt_rejects_singular() {
        let s = Matrix::from_rows(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let _ = inverse_sqrt(&s);
    }
}
