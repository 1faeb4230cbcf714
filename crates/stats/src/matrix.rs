//! Dense row-major matrices and the Householder QR factorisation used by the
//! OLS machinery.
//!
//! Only what the GemStone statistics need is implemented: construction,
//! element access, the matrix–vector product, QR least squares and the
//! upper-triangular inverse required for coefficient covariance estimation.
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::matrix::Matrix;
//!
//! let mut a = Matrix::zeros(2, 2);
//! for (i, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
//!     a.set(i / 2, i % 2, v);
//! }
//! assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
//! ```

use crate::{Result, StatsError};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::matvec",
                expected: self.cols,
                actual: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }
}

/// Result of a Householder QR factorisation of an `n × k` matrix (`n ≥ k`):
/// the upper-triangular factor `R` (as a `k × k` matrix) plus the Householder
/// vectors needed to apply `Qᵀ` to right-hand sides.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorisation: upper triangle holds `R`, lower part holds the
    /// Householder vectors.
    packed: Matrix,
    /// Scalar `β` for each Householder reflector.
    betas: Vec<f64>,
}

impl Qr {
    /// Householder QR factorisation with normalised reflectors
    /// (`H = I − β v vᵀ`, `v₀ = 1`).
    #[allow(clippy::needless_range_loop)] // indexing mirrors the maths
    fn decompose_clear(a: &Matrix) -> Result<Qr> {
        let (n, k) = (a.rows(), a.cols());
        let mut m = a.clone();
        let mut betas = vec![0.0; k];
        for j in 0..k {
            let mut norm = 0.0;
            for i in j..n {
                norm += m.get(i, j) * m.get(i, j);
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                continue;
            }
            let x0 = m.get(j, j);
            let alpha = if x0 >= 0.0 { -norm } else { norm };
            let v0 = x0 - alpha;
            // Normalised Householder vector: v = [1, m[j+1..n, j] / v0].
            for i in (j + 1)..n {
                let vi = m.get(i, j) / v0;
                m.set(i, j, vi);
            }
            let beta = -v0 / alpha; // β such that H = I - β v vᵀ with v0 = 1
            betas[j] = beta;
            m.set(j, j, alpha);
            // Apply H to the remaining columns.
            for c in (j + 1)..k {
                let mut dot = m.get(j, c);
                for i in (j + 1)..n {
                    dot += m.get(i, j) * m.get(i, c);
                }
                let s = beta * dot;
                let top = m.get(j, c) - s;
                m.set(j, c, top);
                for i in (j + 1)..n {
                    let v = m.get(i, c) - s * m.get(i, j);
                    m.set(i, c, v);
                }
            }
        }
        Ok(Qr { packed: m, betas })
    }

    /// Applies `Qᵀ` to a right-hand side vector in place.
    #[allow(clippy::needless_range_loop)] // indexing mirrors the maths
    fn apply_qt(&self, b: &mut [f64]) {
        let (n, k) = (self.packed.rows(), self.packed.cols());
        for j in 0..k {
            let beta = self.betas[j];
            if beta == 0.0 {
                continue;
            }
            let mut dot = b[j];
            for i in (j + 1)..n {
                dot += self.packed.get(i, j) * b[i];
            }
            let s = beta * dot;
            b[j] -= s;
            for i in (j + 1)..n {
                b[i] -= s * self.packed.get(i, j);
            }
        }
    }

    /// Returns the diagonal of `R`.
    fn r_diag(&self) -> Vec<f64> {
        (0..self.packed.cols())
            .map(|j| self.packed.get(j, j))
            .collect()
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `b.len() != rows`, or
    /// [`StatsError::Singular`] when `R` is numerically rank-deficient.
    #[allow(clippy::needless_range_loop)] // indexing mirrors the maths
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (n, k) = (self.packed.rows(), self.packed.cols());
        if b.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "Qr::solve",
                expected: n,
                actual: b.len(),
            });
        }
        let mut work = b.to_vec();
        self.apply_qt(&mut work);
        // Back substitution on R x = work[..k].
        let tol = self.singularity_tolerance();
        let mut x = vec![0.0; k];
        for j in (0..k).rev() {
            let d = self.packed.get(j, j);
            if d.abs() <= tol {
                return Err(StatsError::Singular);
            }
            let mut s = work[j];
            for c in (j + 1)..k {
                s -= self.packed.get(j, c) * x[c];
            }
            x[j] = s / d;
        }
        Ok(x)
    }

    /// Computes `(XᵀX)⁻¹ = R⁻¹ R⁻ᵀ` — the unscaled covariance of OLS
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Singular`] when `R` is numerically
    /// rank-deficient.
    pub fn xtx_inverse(&self) -> Result<Matrix> {
        let k = self.packed.cols();
        let tol = self.singularity_tolerance();
        // Invert the upper-triangular R.
        let mut rinv = Matrix::zeros(k, k);
        for j in 0..k {
            let d = self.packed.get(j, j);
            if d.abs() <= tol {
                return Err(StatsError::Singular);
            }
            rinv.set(j, j, 1.0 / d);
            for i in (0..j).rev() {
                let mut s = 0.0;
                for l in (i + 1)..=j {
                    s += self.packed.get(i, l) * rinv.get(l, j);
                }
                rinv.set(i, j, -s / self.packed.get(i, i));
            }
        }
        // R⁻¹ R⁻ᵀ without materialising the transpose: the (i, j) entry is
        // the dot product of rows i and j of R⁻¹, which are zero below the
        // diagonal.
        let mut out = Matrix::zeros(k, k);
        for i in 0..k {
            for j in i..k {
                let mut s = 0.0;
                for l in j..k {
                    s += rinv.get(i, l) * rinv.get(j, l);
                }
                out.set(i, j, s);
                out.set(j, i, s);
            }
        }
        Ok(out)
    }

    fn singularity_tolerance(&self) -> f64 {
        let maxdiag = self
            .r_diag()
            .iter()
            .fold(0.0_f64, |m, d| m.max(d.abs()))
            .max(1.0);
        maxdiag * 1e-12
    }
}

impl Qr {
    /// Public entry point that always uses the clear implementation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] if `a` has fewer rows than
    /// columns.
    pub fn new(a: &Matrix) -> Result<Qr> {
        let (n, k) = (a.rows(), a.cols());
        if n < k {
            return Err(StatsError::NotEnoughData {
                needed: k,
                available: n,
            });
        }
        Self::decompose_clear(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// A matrix from equal-length rows.
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), m.cols(), "ragged rows");
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// The least-squares solution of `a · x ≈ b` in one call.
    fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        Qr::new(a)?.solve(b)
    }

    #[test]
    fn zeros_and_accessors() {
        let mut z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert_eq!(z.get(1, 2), 0.0);
        z.set(1, 2, 4.0);
        assert_eq!(z.row(1), &[0.0, 0.0, 4.0]);
        assert_eq!((z.get(0, 2), z.get(1, 2)), (0.0, 4.0));
    }

    #[test]
    fn matvec_known() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
    }

    #[test]
    fn lstsq_exact_square() {
        let a = from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 3.0, 1e-10));
    }

    #[test]
    fn lstsq_overdetermined_line_fit() {
        // y = 2 + 3 t with noise-free data.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![1.0, t]).collect();
        let a = from_rows(&rows);
        let y: Vec<f64> = ts.iter().map(|&t| 2.0 + 3.0 * t).collect();
        let x = lstsq(&a, &y).unwrap();
        assert!(approx(x[0], 2.0, 1e-10));
        assert!(approx(x[1], 3.0, 1e-10));
    }

    #[test]
    fn lstsq_detects_singular() {
        // Second column is a multiple of the first.
        let a = from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert_eq!(
            lstsq(&a, &[1.0, 2.0, 3.0]).unwrap_err(),
            StatsError::Singular
        );
    }

    #[test]
    fn qr_needs_tall_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Qr::new(&a).unwrap_err(),
            StatsError::NotEnoughData { .. }
        ));
    }

    #[test]
    fn xtx_inverse_matches_direct() {
        let a = from_rows(&[
            vec![1.0, 0.5],
            vec![1.0, 1.5],
            vec![1.0, 2.5],
            vec![1.0, 4.0],
        ]);
        let qr = Qr::new(&a).unwrap();
        let inv = qr.xtx_inverse().unwrap();
        let xtx = |i: usize, j: usize| (0..4).map(|r| a.get(r, i) * a.get(r, j)).sum::<f64>();
        for i in 0..2 {
            for j in 0..2 {
                let prod: f64 = (0..2).map(|l| xtx(i, l) * inv.get(l, j)).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx(prod, want, 1e-9), "({i}, {j}): {prod}");
            }
        }
    }

    #[test]
    fn qr_r_diag_nonzero_for_full_rank() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0], vec![0.5, 0.25]]);
        let qr = Qr::new(&a).unwrap();
        for d in qr.r_diag() {
            assert!(d.abs() > 1e-9);
        }
    }

    #[test]
    fn solve_reuses_one_factorisation_and_checks_length() {
        let a = from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-9));
        assert!(approx(x[1], 2.0, 1e-9));
        let x = qr.solve(&[2.0, 4.0, 6.0]).unwrap();
        assert!(approx(x[0], 2.0, 1e-9));
        assert!(approx(x[1], 4.0, 1e-9));
        assert!(qr.solve(&[1.0]).is_err());
    }
}
