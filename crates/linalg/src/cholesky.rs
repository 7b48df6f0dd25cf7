//! Cholesky factorisation and solves for symmetric positive-definite systems.
//!
//! The ridge-regression readout of the DFR solves normal equations
//! `(XᵀX + βI) W = XᵀD` (primal) or `(XXᵀ + βI) α = D` (dual); both system
//! matrices are symmetric positive definite for `β > 0`, so Cholesky is the
//! right tool: no pivoting, `n³/3` flops, and a definiteness check for free.

use crate::gemm::{self, GemmWorkspace, MR, NR};
use crate::kernels::{self, Kernel};
use crate::{LinalgError, Matrix};

/// Panel width of the blocked right-looking factorisation: columns are
/// factored [`NB`] at a time and the trailing submatrix is updated through
/// the subtractive GEMM microkernel. The blocking regroups *when* each
/// `l[i][k]·l[j][k]` term is subtracted, never the per-element order (`k`
/// ascending, one subtraction at a time), so factors are bitwise equal to
/// the unblocked left-looking loop.
const NB: usize = 32;

/// Right-hand-side columns [`Cholesky::solve_into`] substitutes together.
const SOLVE_BLOCK: usize = 8;

/// The lower-triangular Cholesky factor `L` of an SPD matrix `A = L·Lᵀ`.
///
/// The factor is stored transposed, as the row-major upper triangle
/// `U = Lᵀ`: row `k` of `U` is column `k` of `L`, so forward substitution
/// (column axpys), back substitution (row dots) and the rank-1 rotations
/// (one column of `L` per step) all walk memory at unit stride. Every
/// element keeps the operation order of the row-major-`L` loops (terms
/// subtracted one at a time in ascending `k`, then the divide), so the
/// layout changes no bit of any factor, solve or rcond estimate.
///
/// # Example
///
/// ```
/// use dfr_linalg::{Matrix, cholesky::Cholesky};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let mut x = [8.0, 7.0];
/// chol.solve_vec_in_place(&mut x)?;
/// // Check A x = b.
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 8.0).abs() < 1e-12 && (b[1] - 7.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// The factor as `U = Lᵀ`: a full row-major matrix with the strict
    /// lower triangle zeroed.
    u: Matrix,
    /// Packing scratch for the blocked trailing update, recycled across
    /// refactorisations (the β-sweep refactors once per candidate).
    ws: GemmWorkspace,
    /// The error that left `u` half-written (a failed rank-1 rotation or
    /// factorisation), `None` while `u` is a factor. Solves and rank-1
    /// calls answer it until a factorisation succeeds.
    failed: Option<LinalgError>,
}

/// Equality is the factor and its validity, not the packing scratch.
impl PartialEq for Cholesky {
    fn eq(&self, other: &Self) -> bool {
        self.u == other.u && self.is_valid() == other.is_valid()
    }
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix `a` into `L·Lᵀ`.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` is `0x0`.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not positive
    ///   (the matrix is indefinite, semidefinite or badly conditioned).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let mut out = Cholesky::empty();
        Cholesky::factor_into(a, &mut out)?;
        Ok(out)
    }

    /// A placeholder factorisation of dimension zero — the seed value for
    /// [`Cholesky::factor_into`] scratch reuse. Solving with it is a shape
    /// error for any non-empty right-hand side.
    pub fn empty() -> Self {
        Cholesky {
            u: Matrix::zeros(0, 0),
            ws: GemmWorkspace::new(),
            failed: None,
        }
    }

    /// The factor of `diag · I` (that is, `L = √diag · I`) — the seed an
    /// incremental learner starts from: the ridge system `βI + Σ φφᵀ`
    /// begins at `βI` with zero samples absorbed.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `n == 0`.
    /// * [`LinalgError::NonFinite`] if `diag` is not finite.
    /// * [`LinalgError::NotPositiveDefinite`] if `diag ≤ 0`.
    pub fn scaled_identity(n: usize, diag: f64) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty { op: "cholesky" });
        }
        if !diag.is_finite() {
            return Err(LinalgError::NonFinite { op: "cholesky" });
        }
        if diag <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        let mut out = Cholesky::empty();
        out.u.resize(n, n);
        out.u.fill_zero();
        let d = diag.sqrt();
        for i in 0..n {
            out.u[(i, i)] = d;
        }
        Ok(out)
    }

    /// [`Cholesky::factor`] writing into a caller-owned factorisation,
    /// reusing its storage — the allocation-free form the β-sweep ridge
    /// solver refactors with.
    ///
    /// The factorisation is blocked right-looking: columns are factored
    /// `NB` at a time (left-looking within the panel) and the trailing
    /// submatrix is updated through the subtractive GEMM microkernel of
    /// [`crate::gemm`]. Blocking only regroups *when* each
    /// `l[i][k]·l[j][k]` term is subtracted — per element every term is
    /// still subtracted one at a time in ascending `k`, so the factor (and
    /// the index of the first failing pivot) is bitwise identical to the
    /// unblocked left-looking loop. The loop works on `L` row-major; one
    /// in-place transpose at the end hands over the stored `U = Lᵀ`.
    ///
    /// A non-positive pivot leaves `out` invalid: it refuses to solve
    /// until a later `factor_into` succeeds. Shape errors are raised
    /// before `out` is touched.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::factor`].
    pub fn factor_into(a: &Matrix, out: &mut Cholesky) -> Result<(), LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty { op: "cholesky" });
        }
        out.u.resize(n, n);
        out.u.fill_zero();
        // One kernel resolution covers every trailing update of this
        // factorisation (the §13 product-entry convention).
        let kernel = kernels::active();
        let l = &mut out.u;
        // Seed the working lower triangle from `a` (only the lower triangle
        // is read; the strict upper stays zero until the final transpose).
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        let mut kb = 0;
        while kb < n {
            let ke = (kb + NB).min(n);
            // Panel factor: columns kb..ke over rows j..n, left-looking
            // within the panel (terms k < kb were already subtracted by
            // earlier trailing updates).
            for j in kb..ke {
                let mut sum = l[(j, j)];
                for k2 in kb..j {
                    sum -= l[(j, k2)] * l[(j, k2)];
                }
                if sum <= 0.0 || !sum.is_finite() {
                    return out.fail(LinalgError::NotPositiveDefinite { pivot: j });
                }
                let d = sum.sqrt();
                l[(j, j)] = d;
                for i in j + 1..n {
                    let mut sum = l[(i, j)];
                    for k2 in kb..j {
                        sum -= l[(i, k2)] * l[(j, k2)];
                    }
                    l[(i, j)] = sum / d;
                }
            }
            if ke < n {
                trailing_update(l, kb, ke, &mut out.ws, kernel);
            }
            kb = ke;
        }
        transpose_in_place(l);
        out.failed = None;
        Ok(())
    }

    /// Marks the factor invalid with the error that left it half-written.
    fn fail(&mut self, e: LinalgError) -> Result<(), LinalgError> {
        self.failed = Some(e.clone());
        Err(e)
    }

    /// Whether the stored factor is usable: false after a failed rank-1
    /// rotation or factorisation, until [`Cholesky::factor_into`]
    /// succeeds.
    pub fn is_valid(&self) -> bool {
        self.failed.is_none()
    }

    /// The error an invalid factor answers, `Ok` while it is valid.
    fn check_valid(&self) -> Result<(), LinalgError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.u.rows()
    }

    /// The stored factor `U = Lᵀ` (upper triangular, strict lower triangle
    /// zero), so `A = Uᵀ·U`.
    pub fn factor_u(&self) -> &Matrix {
        &self.u
    }

    /// Solves `A x = b` for a single right-hand side vector in place,
    /// overwriting `b` with the solution.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`; an
    /// [invalid](Cholesky::is_valid) factor answers what invalidated it.
    pub fn solve_vec_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        self.check_valid()?;
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        self.solve_block::<1>(b, 1, 0);
        Ok(())
    }

    /// Solves `A X = B` for a matrix of right-hand sides.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::solve_into`].
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// [`Cholesky::solve`] writing into a caller-owned output matrix
    /// (resized to `b.shape()`, allocation reused).
    ///
    /// Right-hand-side columns are substituted `SOLVE_BLOCK` at a time,
    /// each block's lanes held in registers while the rows of `U` stream
    /// past: per element the subtraction order over `k` is identical to
    /// the column-by-column [`Cholesky::solve_vec_in_place`] loop, so results are
    /// bitwise unchanged while the traversal stays unit-stride and
    /// scratch-free.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`; an
    /// [invalid](Cholesky::is_valid) factor answers what invalidated it.
    pub fn solve_into(&self, b: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        self.check_valid()?;
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        out.copy_from(b);
        let q = out.cols();
        let y = out.as_mut_slice();
        let mut c0 = 0;
        while c0 < q {
            let w = (q - c0).min(SOLVE_BLOCK);
            match w {
                1 => self.solve_block::<1>(y, q, c0),
                2 => self.solve_block::<2>(y, q, c0),
                3 => self.solve_block::<3>(y, q, c0),
                4 => self.solve_block::<4>(y, q, c0),
                5 => self.solve_block::<5>(y, q, c0),
                6 => self.solve_block::<6>(y, q, c0),
                7 => self.solve_block::<7>(y, q, c0),
                _ => self.solve_block::<SOLVE_BLOCK>(y, q, c0),
            }
            c0 += w;
        }
        Ok(())
    }

    /// Solves columns `c0..c0 + W` of the row-major `n × q` right-hand
    /// side `y` in place, the `W` lanes held in registers.
    fn solve_block<const W: usize>(&self, y: &mut [f64], q: usize, c0: usize) {
        let n = self.dim();
        // Forward substitution L y = b as column axpys: once y_k is final,
        // y_i -= L[i][k] · y_k for every i > k (row k of U is column k of
        // L). Each y_i still sees its terms in ascending k, then its divide.
        for k in 0..n {
            let row = self.u.row(k);
            let (done, rest) = y.split_at_mut((k + 1) * q);
            let mut yk = [0.0; W];
            for (v, lane) in done[k * q + c0..][..W].iter_mut().zip(&mut yk) {
                *v /= row[k];
                *lane = *v;
            }
            for (yi, &lik) in rest.chunks_exact_mut(q).zip(&row[k + 1..]) {
                for (a, &v) in yi[c0..c0 + W].iter_mut().zip(&yk) {
                    *a -= lik * v;
                }
            }
        }
        // Back substitution Lᵀ x = y as row dots of U: x_i -= U[i][k] · x_k
        // for k > i, accumulated in registers.
        for i in (0..n).rev() {
            let row = self.u.row(i);
            let (head, done) = y.split_at_mut((i + 1) * q);
            let xi = &mut head[i * q + c0..][..W];
            let mut acc = [0.0; W];
            acc.copy_from_slice(xi);
            for (xk, &uik) in done.chunks_exact(q).zip(&row[i + 1..]) {
                for (a, &v) in acc.iter_mut().zip(&xk[c0..c0 + W]) {
                    *a -= uik * v;
                }
            }
            for (x, a) in xi.iter_mut().zip(acc) {
                *x = a / row[i];
            }
        }
    }

    /// Validates a rank-1 vector against this factor and copies it into
    /// `work` (the recurrences consume it destructively). Shared prologue
    /// of [`Cholesky::rank1_update`] / [`Cholesky::rank1_downdate`].
    fn rank1_prologue(
        &self,
        x: &[f64],
        work: &mut Vec<f64>,
        op: &'static str,
    ) -> Result<(), LinalgError> {
        self.check_valid()?;
        let n = self.dim();
        if n == 0 {
            return Err(LinalgError::Empty { op });
        }
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite { op });
        }
        work.clear();
        work.extend_from_slice(x);
        Ok(())
    }

    /// Replaces this factor of `A` with the factor of `A + x·xᵀ` in
    /// `O(n²)` via Givens rotations (LINPACK `dchud`) — the incremental
    /// learner's per-sample absorb, versus the `O(n³/3)` refactorisation.
    ///
    /// Column `k` applies the rotation `r = √(L[k][k]² + w[k]²)`,
    /// `c = r/L[k][k]`, `s = w[k]/L[k][k]`, then for `i > k`:
    /// `L[i][k] ← (L[i][k] + s·w[i])/c`, `w[i] ← c·w[i] − s·L[i][k]`.
    /// An update of an SPD factor cannot induce indefiniteness, so the
    /// only runtime failure is f64 overflow — detected per column; it
    /// leaves the factor half-rotated and [invalid](Cholesky::is_valid).
    ///
    /// `work` is caller-owned scratch (resized to `dim()`, allocation
    /// reused across calls — an online absorb loop updates once per
    /// sample and stays allocation-free after warm-up).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if the factor is the
    ///   [`Cholesky::empty`] placeholder.
    /// * [`LinalgError::ShapeMismatch`] if `x.len() != self.dim()`.
    /// * [`LinalgError::NonFinite`] if `x` carries a non-finite value
    ///   (checked before mutation) or the rotations overflow (factor
    ///   left invalid). An invalid factor answers, unchanged, the error
    ///   that invalidated it.
    pub fn rank1_update(&mut self, x: &[f64], work: &mut Vec<f64>) -> Result<(), LinalgError> {
        self.rank1_prologue(x, work, "rank1_update")?;
        let n = self.dim();
        for k in 0..n {
            let row = &mut self.u.row_mut(k)[k..];
            let lkk = row[0];
            let wk = work[k];
            let r = (lkk * lkk + wk * wk).sqrt();
            if !r.is_finite() {
                return self.fail(LinalgError::NonFinite { op: "rank1_update" });
            }
            let c = r / lkk;
            let s = wk / lkk;
            row[0] = r;
            for (lik, wi) in row[1..].iter_mut().zip(&mut work[k + 1..]) {
                let v = (*lik + s * *wi) / c;
                *lik = v;
                *wi = c * *wi - s * v;
            }
        }
        Ok(())
    }

    /// Replaces this factor of `A` with the factor of `A − x·xᵀ` in
    /// `O(n²)` via hyperbolic rotations (LINPACK `dchdd` semantics) — the
    /// forgetting half of an online learner's sliding window.
    ///
    /// Column `k` forms `r² = (L[k][k] − w[k])·(L[k][k] + w[k])` (the
    /// difference-of-squares form, more accurate than `L[k][k]² − w[k]²`
    /// when the two magnitudes are close); `r² ≤ 0` means `A − x·xᵀ` has
    /// lost positive definiteness — a *typed* failure, never a poisoned
    /// solve: the half-rotated factor is marked
    /// [invalid](Cholesky::is_valid) and refuses every solve, and the
    /// caller escalates through [`crate::solver::SolverPolicy`] to a full
    /// refactorisation of the explicitly-maintained system matrix.
    ///
    /// # Errors
    ///
    /// * As for [`Cholesky::rank1_update`].
    /// * [`LinalgError::NotPositiveDefinite`] with the failing column as
    ///   `pivot` if the downdate would leave the matrix indefinite or
    ///   semidefinite (factor left invalid).
    pub fn rank1_downdate(&mut self, x: &[f64], work: &mut Vec<f64>) -> Result<(), LinalgError> {
        self.rank1_prologue(x, work, "rank1_downdate")?;
        let n = self.dim();
        for k in 0..n {
            let row = &mut self.u.row_mut(k)[k..];
            let lkk = row[0];
            let wk = work[k];
            let r2 = (lkk - wk) * (lkk + wk);
            if !r2.is_finite() {
                return self.fail(LinalgError::NonFinite {
                    op: "rank1_downdate",
                });
            }
            if r2 <= 0.0 {
                return self.fail(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let r = r2.sqrt();
            let c = r / lkk;
            let s = wk / lkk;
            row[0] = r;
            for (lik, wi) in row[1..].iter_mut().zip(&mut work[k + 1..]) {
                let v = (*lik - s * *wi) / c;
                *lik = v;
                *wi = c * *wi - s * v;
            }
        }
        Ok(())
    }

    /// Rescales the factored matrix: `A ← factor · A`, i.e.
    /// `L ← √factor · L` — the exponential-forgetting decay of an online
    /// learner (`S ← λS` each absorb, classic RLS semantics).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NonFinite`] if `factor` is not finite.
    /// * [`LinalgError::NotPositiveDefinite`] if `factor ≤ 0` (the scaled
    ///   matrix would not be positive definite). The factor is unchanged
    ///   on error.
    pub fn scale(&mut self, factor: f64) -> Result<(), LinalgError> {
        if !factor.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "cholesky_scale",
            });
        }
        if factor <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        let s = factor.sqrt();
        for v in self.u.as_mut_slice() {
            *v *= s;
        }
        Ok(())
    }

    /// Cheap 1-norm reciprocal-condition estimate `1 / (‖A‖₁·est‖A⁻¹‖₁)`
    /// of the factored matrix — the vetting signal of
    /// [`crate::solver::SolverPolicy::Auto`].
    ///
    /// `anorm` is the 1-norm of the *original* matrix
    /// ([`Matrix::norm_1`], computed before factoring); `‖A⁻¹‖₁` is
    /// estimated by a few rounds of Hager's power method on the factor
    /// (LAPACK `xPOCON` style: each round is one `O(n²)` solve pair,
    /// negligible next to the `O(n³/3)` factorisation). The inverse-norm
    /// estimate is a **lower** bound, so the returned rcond is an upper
    /// bound on the truth: a reading *below* an escalation threshold is
    /// definitive, a reading above may be optimistic by the estimate's
    /// slack — the conservative direction for an escalation trigger.
    ///
    /// `work` is caller-owned scratch (resized to `dim()`, allocation
    /// reused across calls — the β-sweep vets once per candidate).
    /// Returns `0.0` for empty or invalid factors and for non-finite
    /// inputs/intermediates.
    pub fn rcond_1_est(&self, anorm: f64, work: &mut Vec<f64>) -> f64 {
        let n = self.dim();
        if n == 0 || !self.is_valid() || !anorm.is_finite() || anorm <= 0.0 {
            return 0.0;
        }
        work.clear();
        work.resize(n, 1.0 / n as f64);
        let mut est = 0.0f64;
        let mut last_unit = usize::MAX;
        for _ in 0..5 {
            // z = A⁻¹ x (solve never fails: the length always matches).
            if self.solve_vec_in_place(work).is_err() {
                return 0.0;
            }
            let norm: f64 = work.iter().map(|v| v.abs()).sum();
            if !norm.is_finite() {
                return 0.0;
            }
            if norm <= est {
                break; // estimate stopped growing — converged
            }
            est = norm;
            // w = A⁻ᵀ sign(z) = A⁻¹ sign(z) (A is symmetric); the largest
            // component names the next probe direction e_j.
            for v in work.iter_mut() {
                *v = if *v >= 0.0 { 1.0 } else { -1.0 };
            }
            if self.solve_vec_in_place(work).is_err() {
                return 0.0;
            }
            let mut j = 0;
            let mut best = -1.0;
            for (i, v) in work.iter().enumerate() {
                if v.abs() > best {
                    best = v.abs();
                    j = i;
                }
            }
            if j == last_unit {
                break; // cycling on the same unit vector
            }
            last_unit = j;
            for v in work.iter_mut() {
                *v = 0.0;
            }
            work[j] = 1.0;
        }
        // Final alternating-sign probe (LAPACK xLACON): the power method
        // above can stall in an invariant subspace — e.g. a Gram with two
        // *identical* rows keeps every iterate symmetric in those
        // coordinates, exactly orthogonal to the null direction. The
        // graded alternating vector is symmetric in no coordinate pair,
        // so it always has a component along such directions.
        let denom = n.max(2) as f64 - 1.0;
        for (i, v) in work.iter_mut().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            *v = sign * (1.0 + i as f64 / denom);
        }
        if self.solve_vec_in_place(work).is_err() {
            return 0.0;
        }
        let probe: f64 = work.iter().map(|v| v.abs()).sum();
        if !probe.is_finite() {
            return 0.0;
        }
        est = est.max(2.0 * probe / (3.0 * n as f64));
        if est <= 0.0 {
            return 1.0; // ‖A⁻¹‖ ≈ 0 ⇒ no conditioning concern measurable
        }
        (1.0 / (anorm * est)).min(1.0)
    }
}

/// The placeholder factorisation ([`Cholesky::empty`]).
impl Default for Cholesky {
    fn default() -> Self {
        Cholesky::empty()
    }
}

/// Transposes a square matrix in place (`L` → `U = Lᵀ` after factoring).
fn transpose_in_place(m: &mut Matrix) {
    let n = m.rows();
    let data = m.as_mut_slice();
    for i in 1..n {
        let (above, below) = data.split_at_mut(i * n);
        for (j, v) in below[..i].iter_mut().enumerate() {
            std::mem::swap(v, &mut above[j * n + i]);
        }
    }
}

/// The right-looking trailing update after factoring panel `[kb, ke)`:
/// `T[i][j] -= Σ_{k ∈ [kb, ke)} L[i][k]·L[j][k]` for the lower triangle
/// `ke ≤ j ≤ i < n`, tiled through the subtractive microkernel. Each tile
/// is *loaded* into the register accumulator, every `k` term is subtracted
/// individually in ascending order, and the tile is stored back — the
/// exact per-element subtraction chain of the unblocked loop. Tiles
/// straddling the diagonal compute their full block (the strict upper
/// lanes read zeros and are never stored).
fn trailing_update(l: &mut Matrix, kb: usize, ke: usize, ws: &mut GemmWorkspace, kernel: &Kernel) {
    let n = l.rows();
    let m_tr = n - ke;
    let kk = ke - kb;
    let GemmWorkspace { a_pack, b_pack } = ws;
    gemm::pack_a(a_pack, m_tr, kk, |i, k2| l[(ke + i, kb + k2)]);
    gemm::pack_b(b_pack, m_tr, kk, |k2, j| l[(ke + j, kb + k2)]);
    for pi in 0..m_tr.div_ceil(MR) {
        let i0 = pi * MR;
        let h = MR.min(m_tr - i0);
        let i_max = i0 + h - 1;
        let a_panel = &a_pack[pi * kk * MR..(pi + 1) * kk * MR];
        let mut j0 = 0;
        while j0 <= i_max {
            let b_panel = &b_pack[(j0 / NR) * kk * NR..(j0 / NR + 1) * kk * NR];
            let w_full = NR.min(m_tr - j0);
            let mut acc = [[0.0; NR]; MR];
            for (ii, accr) in acc.iter_mut().enumerate().take(h) {
                let row = &l.row(ke + i0 + ii)[ke + j0..ke + j0 + w_full];
                accr[..w_full].copy_from_slice(row);
            }
            (kernel.mul_sub)(a_panel, b_panel, &mut acc);
            for (ii, accr) in acc.iter().enumerate().take(h) {
                let i_rel = i0 + ii;
                if j0 > i_rel {
                    continue;
                }
                let w = (i_rel + 1 - j0).min(w_full);
                let row = &mut l.row_mut(ke + i_rel)[ke + j0..ke + j0 + w];
                row.copy_from_slice(&accr[..w]);
            }
            j0 += NR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Mᵀ M + I for a fixed M, guaranteed SPD.
        Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let rec = c.factor_u().t_matmul(c.factor_u()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_vec_roundtrip() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let mut x = b.to_vec();
        c.solve_vec_in_place(&mut x).unwrap();
        let back = a.matvec(&x).unwrap();
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = spd3();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((back[(i, j)] - b[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn empty_is_rejected() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::Empty { .. }
        ));
    }

    #[test]
    fn wrong_rhs_len_is_rejected() {
        let c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.solve_vec_in_place(&mut [1.0]).is_err());
        assert!(c.solve(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn into_forms_match_allocating_forms() {
        let a = spd3();
        let fresh = Cholesky::factor(&a).unwrap();
        // A stale scratch factorisation of the wrong size is fully reused.
        let mut scratch =
            Cholesky::factor(&Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap()).unwrap();
        Cholesky::factor_into(&a, &mut scratch).unwrap();
        assert_eq!(scratch, fresh);

        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 0.0], &[0.5, 3.0]]).unwrap();
        let alloc = fresh.solve(&b).unwrap();
        let mut out = Matrix::filled(1, 1, 9.0);
        fresh.solve_into(&b, &mut out).unwrap();
        assert_eq!(out, alloc);
        // Column-wise agreement with solve_vec, bit for bit.
        for j in 0..b.cols() {
            let mut col: Vec<f64> = b.col_iter(j).collect();
            fresh.solve_vec_in_place(&mut col).unwrap();
            for (i, &v) in col.iter().enumerate() {
                assert_eq!(v.to_bits(), alloc[(i, j)].to_bits());
            }
        }
        assert!(Cholesky::empty().solve_vec_in_place(&mut [1.0]).is_err());
    }

    #[test]
    fn rcond_tracks_true_conditioning() {
        let mut work = Vec::new();
        // Well-conditioned: estimate lands in the right decade.
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let rc = c.rcond_1_est(a.norm_1(), &mut work);
        assert!(rc > 1e-3 && rc <= 1.0, "rcond {rc}");
        // diag(1, 1e-12): true 2-norm rcond is 1e-12; the 1-norm estimate
        // must land within a couple of decades.
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-12]]).unwrap();
        let cd = Cholesky::factor(&d).unwrap();
        let rcd = cd.rcond_1_est(d.norm_1(), &mut work);
        assert!(rcd < 1e-10, "rcond {rcd}");
        assert!(rcd > 1e-14, "rcond {rcd}");
        // Degenerate anorm readings never panic.
        assert_eq!(c.rcond_1_est(0.0, &mut work), 0.0);
        assert_eq!(c.rcond_1_est(f64::NAN, &mut work), 0.0);
        assert_eq!(Cholesky::empty().rcond_1_est(1.0, &mut work), 0.0);
    }

    /// The factored matrix reconstructed as `Uᵀ·U`, for tolerance checks.
    fn reconstruct(c: &Cholesky) -> Matrix {
        c.factor_u().t_matmul(c.factor_u()).unwrap()
    }

    #[test]
    fn rank1_update_matches_refactor() {
        // Hand-checked 2×2: A=[[4,2],[2,3]] + [1,1]·[1,1]ᵀ = [[5,3],[3,4]].
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let mut c = Cholesky::factor(&a).unwrap();
        let mut work = Vec::new();
        c.rank1_update(&[1.0, 1.0], &mut work).unwrap();
        let rec = reconstruct(&c);
        let want = Matrix::from_rows(&[&[5.0, 3.0], &[3.0, 4.0]]).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((rec[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
        // 3×3 against a from-scratch refactor of A + xxᵀ.
        let a = spd3();
        let x = [0.5, -1.25, 2.0];
        let mut c = Cholesky::factor(&a).unwrap();
        c.rank1_update(&x, &mut work).unwrap();
        let mut axx = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                axx[(i, j)] += x[i] * x[j];
            }
        }
        let fresh = Cholesky::factor(&axx).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.factor_u()[(i, j)] - fresh.factor_u()[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn update_then_downdate_round_trips() {
        let a = spd3();
        let before = Cholesky::factor(&a).unwrap();
        let mut c = before.clone();
        let mut work = Vec::new();
        let x = [1.5, -0.75, 0.25];
        c.rank1_update(&x, &mut work).unwrap();
        c.rank1_downdate(&x, &mut work).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.factor_u()[(i, j)] - before.factor_u()[(i, j)]).abs() < 1e-10);
            }
        }
        // And the opposite order: downdate a vector A dominates, re-update.
        let mut c = before.clone();
        let y = [0.4, 0.1, -0.2];
        c.rank1_downdate(&y, &mut work).unwrap();
        c.rank1_update(&y, &mut work).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.factor_u()[(i, j)] - before.factor_u()[(i, j)]).abs() < 1e-10);
            }
        }
    }

    /// Every use of an invalid factor answers `err`; rcond reads 0.
    fn assert_refuses(c: &mut Cholesky, err: &LinalgError) {
        let mut work = Vec::new();
        assert!(!c.is_valid());
        assert_eq!(c.solve_vec_in_place(&mut [1.0; 3]).as_ref(), Err(err));
        assert_eq!(c.solve(&Matrix::filled(3, 2, 1.0)).as_ref(), Err(err));
        assert_eq!(c.rank1_update(&[0.1; 3], &mut work).as_ref(), Err(err));
        assert_eq!(c.rank1_downdate(&[0.1; 3], &mut work).as_ref(), Err(err));
        assert_eq!(c.rcond_1_est(1.0, &mut work), 0.0);
    }

    #[test]
    fn failures_invalidate_until_refactored() {
        let a = spd3();
        let fresh = Cholesky::factor(&a).unwrap();
        let mut c = fresh.clone();
        // Fails at the last column, after rotating the first two.
        let err = c.rank1_downdate(&[0.0, 0.0, 10.0], &mut Vec::new());
        assert_eq!(err, Err(LinalgError::NotPositiveDefinite { pivot: 2 }));
        assert_refuses(&mut c, &err.unwrap_err());
        Cholesky::factor_into(&a, &mut c).unwrap();
        assert_eq!(c, fresh, "refactoring restores a usable factor");
        // A failed factorisation invalidates too.
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = Cholesky::factor_into(&indefinite, &mut c).unwrap_err();
        assert_refuses(&mut c, &err);
    }

    #[test]
    fn rank1_rejects_bad_inputs_without_mutation() {
        let mut c = Cholesky::factor(&spd3()).unwrap();
        let before = c.clone();
        let mut work = Vec::new();
        assert!(matches!(
            c.rank1_update(&[1.0], &mut work).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        assert!(matches!(
            c.rank1_downdate(&[1.0, f64::NAN, 0.0], &mut work)
                .unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        assert!(matches!(
            c.rank1_update(&[f64::INFINITY, 0.0, 0.0], &mut work)
                .unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        assert_eq!(c, before);
        assert!(c.is_valid());
        let mut empty = Cholesky::empty();
        assert!(matches!(
            empty.rank1_update(&[], &mut work).unwrap_err(),
            LinalgError::Empty { .. }
        ));
    }

    #[test]
    fn scale_matches_refactor_of_scaled_matrix() {
        let a = spd3();
        let mut c = Cholesky::factor(&a).unwrap();
        c.scale(0.25).unwrap();
        let mut sa = a.clone();
        for v in sa.as_mut_slice() {
            *v *= 0.25;
        }
        let fresh = Cholesky::factor(&sa).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.factor_u()[(i, j)] - fresh.factor_u()[(i, j)]).abs() < 1e-12);
            }
        }
        let before = c.clone();
        assert!(matches!(
            c.scale(0.0).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
        assert!(matches!(
            c.scale(f64::NAN).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        assert_eq!(c, before);
    }

    #[test]
    fn scaled_identity_is_the_beta_seed() {
        let c = Cholesky::scaled_identity(3, 4.0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 2.0 } else { 0.0 };
                assert_eq!(c.factor_u()[(i, j)], want);
            }
        }
        // Bitwise equal to factoring diag(4) directly.
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = 4.0;
        }
        assert_eq!(c, Cholesky::factor(&d).unwrap());
        assert!(Cholesky::scaled_identity(0, 1.0).is_err());
        assert!(Cholesky::scaled_identity(2, 0.0).is_err());
        assert!(Cholesky::scaled_identity(2, f64::INFINITY).is_err());
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = spd3();
        a[(0, 2)] = 999.0; // poison the upper triangle
        a[(0, 1)] = -999.0;
        a[(1, 2)] = 123.0;
        let c = Cholesky::factor(&a).unwrap();
        // Must match the factorisation of the clean symmetric matrix.
        let clean = Cholesky::factor(&spd3()).unwrap();
        assert_eq!(c, clean);
    }
}
