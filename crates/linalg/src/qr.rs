//! Householder QR factorisation — the middle rung of the solver escalation.
//!
//! The ridge readout solves `(Gram + βI) W = B`. Cholesky is the fast path
//! (`n³/3` flops) but squares nothing it can undo: on an ill-conditioned
//! Gram its pivots collapse and [`crate::cholesky::Cholesky::factor`]
//! rejects the system. QR solves the same square system in `2n³/3` flops
//! with orthogonal transformations only, so it stays accurate roughly up
//! to `cond(A) ≈ 1/ε` where Cholesky already degrades around
//! `cond(A) ≈ 1/√ε`. It is the first fallback of
//! [`crate::solver::SolverPolicy::Auto`]; truly rank-deficient systems are
//! detected at back-substitution ([`LinalgError::Singular`]) and handed to
//! the SVD ([`crate::svd`]).
//!
//! Shapes are general `m×n` with `m ≥ n`: for `m > n` the solve returns
//! the least-squares solution, which the solver tests use to cross-check
//! the ridge normal equations.

use crate::{LinalgError, Matrix};

/// A Householder QR factorisation `A = Q·R` in LAPACK's compact layout.
///
/// # Example
///
/// ```
/// use dfr_linalg::{Matrix, qr::Qr};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let mut qr = Qr::factor(&a)?;
/// let x = qr.solve(&Matrix::from_vec(2, 1, vec![8.0, 7.0])?)?;
/// let b = a.matmul(&x)?;
/// assert!((b[(0, 0)] - 8.0).abs() < 1e-12 && (b[(1, 0)] - 7.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorisation: `R` on and above the diagonal, the essential
    /// part of each Householder vector below it (`v[j] = 1` implicit).
    qr: Matrix,
    /// Householder coefficients `τ`, one per reflector (`0` for a column
    /// that was already zero — no reflector needed, `R[j][j] = 0`).
    tau: Vec<f64>,
    /// Right-hand-side scratch of [`Qr::solve_into`], recycled across
    /// solves.
    work: Matrix,
}

/// Equality is the factorisation itself; solve scratch carries no identity.
impl PartialEq for Qr {
    fn eq(&self, other: &Self) -> bool {
        self.qr == other.qr && self.tau == other.tau
    }
}

/// The placeholder factorisation ([`Qr::empty`]).
impl Default for Qr {
    fn default() -> Self {
        Qr::empty()
    }
}

impl Qr {
    /// Factors an `m×n` matrix (`m ≥ n`) into `Q·R`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `a` has no rows or columns.
    /// * [`LinalgError::ShapeMismatch`] if `m < n` (underdetermined
    ///   systems are not supported — the SVD handles those).
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/∞ — orthogonal
    ///   transforms cannot repair poisoned data, and silently producing a
    ///   garbage factor would let the solver escalation launder it.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let mut out = Qr::empty();
        Qr::factor_into(a, &mut out)?;
        Ok(out)
    }

    /// A placeholder factorisation of dimension zero — the seed value for
    /// [`Qr::factor_into`] scratch reuse.
    pub fn empty() -> Self {
        Qr {
            qr: Matrix::zeros(0, 0),
            tau: Vec::new(),
            work: Matrix::zeros(0, 0),
        }
    }

    /// [`Qr::factor`] writing into a caller-owned factorisation, reusing
    /// its storage — the allocation-free form the solver escalation
    /// refactors with.
    ///
    /// # Errors
    ///
    /// Same as [`Qr::factor`].
    pub fn factor_into(a: &Matrix, out: &mut Qr) -> Result<(), LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty { op: "qr" });
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr",
                lhs: a.shape(),
                rhs: (n, n),
            });
        }
        if !a.as_slice().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite { op: "qr" });
        }
        out.qr.copy_from(a);
        out.tau.clear();
        out.tau.resize(n, 0.0);
        let qr = &mut out.qr;
        for j in 0..n {
            // ‖A[j.., j]‖ — the column below (and including) the diagonal.
            let mut norm2 = 0.0;
            for i in j..m {
                let v = qr[(i, j)];
                norm2 += v * v;
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                // Zero column: no reflector, R[j][j] stays 0 and the
                // singularity surfaces at back-substitution.
                continue;
            }
            let x0 = qr[(j, j)];
            // Opposite-sign pivot avoids cancellation in x0 − β.
            let beta = if x0 >= 0.0 { -norm } else { norm };
            let tau = (beta - x0) / beta;
            let scale = 1.0 / (x0 - beta);
            for i in j + 1..m {
                qr[(i, j)] *= scale;
            }
            qr[(j, j)] = beta;
            out.tau[j] = tau;
            // Apply H_j = I − τ·v·vᵀ to the trailing columns.
            for c in j + 1..n {
                let mut w = qr[(j, c)];
                for i in j + 1..m {
                    w += qr[(i, j)] * qr[(i, c)];
                }
                let tw = tau * w;
                qr[(j, c)] -= tw;
                for i in j + 1..m {
                    let vij = qr[(i, j)];
                    qr[(i, c)] -= tw * vij;
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` (least squares for `m > n`), allocating the output.
    ///
    /// # Errors
    ///
    /// Same as [`Qr::solve_into`].
    pub fn solve(&mut self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// [`Qr::solve`] writing into a caller-owned `n×q` output matrix — the
    /// allocation-free form (internal RHS scratch is recycled too).
    ///
    /// Applies `Qᵀ` reflector by reflector, then back-substitutes `R`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.rows()` differs from the factored matrix's row count.
    /// * [`LinalgError::Singular`] if a diagonal entry of `R` is
    ///   numerically zero (`|R[i][i]| ≤ max(m, n)·ε·max|R[j][j]|`) — the
    ///   system is rank-deficient and needs the SVD's minimum-norm solve.
    pub fn solve_into(&mut self, b: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        let m = self.qr.rows();
        let n = self.qr.cols();
        if b.rows() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_solve",
                lhs: (m, n),
                rhs: b.shape(),
            });
        }
        let q = b.cols();
        self.work.copy_from(b);
        let work = &mut self.work;
        // y = Qᵀ b, reflector by reflector.
        for j in 0..n {
            let tau = self.tau[j];
            if tau == 0.0 {
                continue;
            }
            for c in 0..q {
                let mut w = work[(j, c)];
                for i in j + 1..m {
                    w += self.qr[(i, j)] * work[(i, c)];
                }
                let tw = tau * w;
                work[(j, c)] -= tw;
                for i in j + 1..m {
                    let vij = self.qr[(i, j)];
                    work[(i, c)] -= tw * vij;
                }
            }
        }
        // Rank check: a diagonal entry at roundoff level relative to the
        // largest means the triangular solve would amplify noise into the
        // answer — refuse and let the policy escalate.
        let mut rmax = 0.0f64;
        for i in 0..n {
            rmax = rmax.max(self.qr[(i, i)].abs());
        }
        let tol = m.max(n) as f64 * f64::EPSILON * rmax;
        // Back-substitution R x = y.
        out.resize(n, q);
        for i in (0..n).rev() {
            let rii = self.qr[(i, i)];
            if rii.abs() <= tol {
                return Err(LinalgError::Singular { col: i });
            }
            for c in 0..q {
                let mut s = work[(i, c)];
                for k in i + 1..n {
                    s -= self.qr[(i, k)] * out[(k, c)];
                }
                out[(i, c)] = s / rii;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]).unwrap()
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let mut qr = Qr::factor(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 0.0], &[0.5, 3.0]]).unwrap();
        let x = qr.solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((back[(i, j)] - b[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn matches_cholesky_on_spd() {
        let a = spd3();
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let chol = crate::cholesky::Cholesky::factor(&a)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x = Qr::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..3 {
            let rel = (x[(i, 0)] - chol[(i, 0)]).abs() / chol[(i, 0)].abs().max(1.0);
            assert!(rel < 1e-12, "row {i}: {} vs {}", x[(i, 0)], chol[(i, 0)]);
        }
    }

    #[test]
    fn least_squares_overdetermined() {
        // y = 2x fitted through 3 consistent points: exact recovery.
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]).unwrap();
        let x = Qr::factor(&a).unwrap().solve(&b).unwrap();
        assert_eq!(x.shape(), (1, 1));
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn handles_indefinite_systems_cholesky_rejects() {
        // Eigenvalues 3 and −1: not SPD, but perfectly well-conditioned.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(crate::cholesky::Cholesky::factor(&a).is_err());
        let b = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let x = Qr::factor(&a).unwrap().solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!((back[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((back[(1, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected_at_solve() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let err = Qr::factor(&a).unwrap().solve(&b).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { .. }));
    }

    #[test]
    fn zero_matrix_is_singular() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 1);
        let err = Qr::factor(&a).unwrap().solve(&b).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { .. }));
    }

    #[test]
    fn shape_and_empty_errors() {
        assert!(matches!(
            Qr::factor(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty { .. }
        ));
        assert!(matches!(
            Qr::factor(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        let mut qr = Qr::factor(&spd3()).unwrap();
        assert!(qr.solve(&Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let mut a = spd3();
        a[(1, 1)] = f64::NAN;
        assert!(matches!(
            Qr::factor(&a).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(
            Qr::factor(&a).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
    }

    #[test]
    fn into_forms_reuse_stale_scratch() {
        let a = spd3();
        let fresh = Qr::factor(&a).unwrap();
        let mut scratch =
            Qr::factor(&Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap()).unwrap();
        Qr::factor_into(&a, &mut scratch).unwrap();
        assert_eq!(scratch, fresh);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let alloc = scratch.solve(&b).unwrap();
        let mut out = Matrix::filled(1, 1, 9.0);
        scratch.solve_into(&b, &mut out).unwrap();
        assert_eq!(out, alloc);
    }
}
