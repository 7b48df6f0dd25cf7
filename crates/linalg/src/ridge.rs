//! Ridge regression in primal and dual form.
//!
//! The DFR readout (paper §4) trains `W_out` by ridge regression on the
//! reservoir-representation features after backpropagation has fixed the
//! reservoir parameters. With `n` samples and `p` features the primal form
//! solves a `p x p` system while the dual form solves `n x n`; the DPRR has
//! `p = N_x (N_x + 1)` features (930 for `N_x = 30`), usually far more than
//! the number of training samples, so the dual form is the fast path.

use crate::cholesky::Cholesky;
use crate::gemm::GemmWorkspace;
use crate::qr::Qr;
use crate::solver::{self, SolverKind, SolverPolicy, SolverReport};
use crate::svd::Svd;
use crate::{LinalgError, Matrix};

/// Which formulation [`ridge_fit`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RidgeMode {
    /// Choose primal when `p <= n`, dual otherwise (the default).
    #[default]
    Auto,
    /// Solve `(XᵀX + βI) W = XᵀY` — `p x p` system.
    Primal,
    /// Solve `W = Xᵀ (XXᵀ + βI)⁻¹ Y` — `n x n` system.
    Dual,
}

/// Fits ridge-regression weights `W` minimising `‖X W − Y‖² + β ‖W‖²`.
///
/// `x` is `n x p` (one sample per row), `y` is `n x q` (targets, e.g. one-hot
/// class rows), and the returned `W` is `p x q`. The formulation is chosen
/// automatically; see [`RidgePlan::with_mode`] to force one.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `x.rows() != y.rows()`.
/// * [`LinalgError::Empty`] if `x` has no rows or no columns.
/// * [`LinalgError::NotPositiveDefinite`] if `β <= 0` makes the system
///   singular **and** the active [`SolverPolicy`] is pinned to Cholesky;
///   the default [`SolverPolicy::Auto`] escalates such systems to a
///   finite minimum-norm solution instead (`DESIGN.md` §15).
///
/// # Example
///
/// ```
/// use dfr_linalg::{Matrix, ridge::ridge_fit};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// // y = 2·x₀ exactly; ridge with tiny β recovers ≈2.
/// let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]])?;
/// let y = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]])?;
/// let w = ridge_fit(&x, &y, 1e-9)?;
/// assert!((w[(0, 0)] - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn ridge_fit(x: &Matrix, y: &Matrix, beta: f64) -> Result<Matrix, LinalgError> {
    RidgePlan::new(x, y)?.solve(beta)
}

/// A prepared ridge system for sweeping several β candidates over the same
/// `(X, Y)` pair — the readout's β selection (paper §4) tries 4 values.
///
/// The dominant cost of one ridge fit is the `O(n²p)` Gram matrix (`XᵀX` or
/// `XXᵀ`) plus, in the primal form, the `O(npq)` `XᵀY`. Both depend only on
/// the data, not on β, so the plan computes them **once** at construction;
/// [`RidgePlan::solve`] then copies the pristine Gram into a reused scratch
/// system, adds `βI` to the diagonal, refactors and substitutes — `O(n³/3)`
/// per candidate instead of `O(n²p + n³/3)`. Every intermediate lives in a
/// workspace buffer, so a sweep allocates nothing after the first solve.
///
/// Per β, results are bitwise identical to a fresh plan's first solve at
/// every thread count (the same Gram/factor/substitution kernels
/// run on the same values).
///
/// # Example
///
/// ```
/// use dfr_linalg::{Matrix, ridge::{ridge_fit, RidgePlan}};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]])?;
/// let mut plan = RidgePlan::new(&x, &y)?;
/// for beta in [1e-6, 1e-2, 1.0] {
///     assert_eq!(plan.solve(beta)?, ridge_fit(&x, &y, beta)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RidgePlan<'a> {
    x: &'a Matrix,
    y: &'a Matrix,
    use_primal: bool,
    scratch: Scratch<'a>,
    /// Outcome of the most recent [`RidgePlan::solve_into`] — which
    /// backend answered, rcond, escalation, terminal error.
    report: SolverReport,
}

/// Every reusable buffer of a [`RidgePlan`]: the pristine Gram system, the
/// per-solve scratch and the GEMM packing workspace.
///
/// Owning one and preparing plans through [`RidgePlan::with_mode_in`]
/// recycles all of it across plans — grid search fits a fresh readout for
/// thousands of `(A, B)` cells against same-shaped systems, so per-worker
/// scratch turns the whole sweep allocation-free after the first cell.
#[derive(Debug, Clone, Default)]
pub struct RidgeScratch {
    /// Pristine Gram matrix (no `βI`): `XᵀX` (primal) or `XXᵀ` (dual).
    gram: Matrix,
    /// Primal right-hand side `XᵀY`, computed once; unused in dual form.
    rhs: Matrix,
    /// Scratch system `gram + βI`, rebuilt per solve.
    sys: Matrix,
    /// Scratch factorisation, refactored per solve.
    chol: Cholesky,
    /// Dual scratch `(XXᵀ + βI)⁻¹ Y`.
    alpha: Matrix,
    /// Panel-packing buffers for the Gram build and the dual
    /// back-substitution product.
    gemm: GemmWorkspace,
    /// QR fallback factorisation, refactored only when the policy
    /// escalates (or is pinned to QR).
    qr: Qr,
    /// SVD last-resort decomposition, same lifecycle as `qr`.
    svd: Svd,
    /// Work vector of the rcond estimate.
    cond: Vec<f64>,
}

impl RidgeScratch {
    /// Empty scratch; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        RidgeScratch::default()
    }
}

/// Plan scratch is either owned (the drop-in [`RidgePlan::new`] path) or
/// borrowed from a caller who reuses it across plans.
#[derive(Debug)]
enum Scratch<'a> {
    Owned(Box<RidgeScratch>),
    Borrowed(&'a mut RidgeScratch),
}

impl Scratch<'_> {
    fn get(&mut self) -> &mut RidgeScratch {
        match self {
            Scratch::Owned(s) => s,
            Scratch::Borrowed(s) => s,
        }
    }
}

impl<'a> RidgePlan<'a> {
    /// Prepares a plan with the formulation chosen by shape
    /// ([`RidgeMode::Auto`]).
    ///
    /// # Errors
    ///
    /// Same shape/emptiness errors as [`ridge_fit`].
    pub fn new(x: &'a Matrix, y: &'a Matrix) -> Result<Self, LinalgError> {
        RidgePlan::with_mode(x, y, RidgeMode::Auto)
    }

    /// Prepares a plan with an explicit [`RidgeMode`], using plan-owned
    /// scratch buffers.
    ///
    /// # Errors
    ///
    /// Same as [`RidgePlan::new`].
    pub fn with_mode(x: &'a Matrix, y: &'a Matrix, mode: RidgeMode) -> Result<Self, LinalgError> {
        RidgePlan::build(x, y, mode, Scratch::Owned(Box::default()))
    }

    /// Prepares a plan against **caller-owned scratch**, recycling its
    /// buffers (Gram, factorisation, packing panels) from any previous
    /// plan. Results are bitwise identical to [`RidgePlan::with_mode`] —
    /// scratch history never leaks into outputs.
    ///
    /// # Errors
    ///
    /// Same as [`RidgePlan::new`].
    pub fn with_mode_in(
        x: &'a Matrix,
        y: &'a Matrix,
        mode: RidgeMode,
        scratch: &'a mut RidgeScratch,
    ) -> Result<Self, LinalgError> {
        RidgePlan::build(x, y, mode, Scratch::Borrowed(scratch))
    }

    fn build(
        x: &'a Matrix,
        y: &'a Matrix,
        mode: RidgeMode,
        mut scratch: Scratch<'a>,
    ) -> Result<Self, LinalgError> {
        if x.rows() != y.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "ridge_fit",
                lhs: x.shape(),
                rhs: y.shape(),
            });
        }
        if x.rows() == 0 || x.cols() == 0 {
            return Err(LinalgError::Empty { op: "ridge_fit" });
        }
        let use_primal = match mode {
            RidgeMode::Primal => true,
            RidgeMode::Dual => false,
            RidgeMode::Auto => x.cols() <= x.rows(),
        };
        let s = scratch.get();
        if use_primal {
            // (XᵀX + βI) W = Xᵀ Y — the microkernel Gram builds XᵀX.
            x.gram_t_into(&mut s.gram, &mut s.gemm);
            x.t_matmul_into(y, &mut s.rhs, &mut s.gemm)?;
        } else {
            // W = Xᵀ (XXᵀ + βI)⁻¹ Y — the microkernel Gram builds XXᵀ.
            x.gram_into(&mut s.gram, &mut s.gemm);
            s.rhs.resize(0, 0);
        }
        Ok(RidgePlan {
            x,
            y,
            use_primal,
            scratch,
            report: SolverReport::default(),
        })
    }

    /// Solves for one β, allocating the returned weight matrix.
    ///
    /// # Errors
    ///
    /// Under [`SolverPolicy::Fixed`]`(Cholesky)` a singular system (e.g.
    /// `β <= 0` on rank-deficient data) is
    /// [`LinalgError::NotPositiveDefinite`]; under the default
    /// [`SolverPolicy::Auto`] the solve escalates to QR and then to the
    /// SVD's minimum-norm solution instead. Non-finite data is
    /// [`LinalgError::NonFinite`] under every policy — no factorisation
    /// can repair it.
    pub fn solve(&mut self, beta: f64) -> Result<Matrix, LinalgError> {
        let mut w = Matrix::zeros(0, 0);
        self.solve_into(beta, &mut w)?;
        Ok(w)
    }

    /// Solves for one β into a caller-owned `p x q` weight matrix — the
    /// allocation-free sweep step.
    ///
    /// The backend is chosen by the active [`SolverPolicy`] (resolution:
    /// [`solver::with_solver`] → `DFR_SOLVER` → [`SolverPolicy::Auto`]); [`RidgePlan::last_report`] records what
    /// happened. Whenever Cholesky accepts the system and its condition
    /// estimate passes, the result is bitwise identical to the historical
    /// Cholesky-only path.
    ///
    /// # Errors
    ///
    /// Same as [`RidgePlan::solve`].
    pub fn solve_into(&mut self, beta: f64, w: &mut Matrix) -> Result<(), LinalgError> {
        self.solve_into_with(beta, w, solver::active())
    }

    /// [`RidgePlan::solve_into`] under an explicit policy.
    fn solve_into_with(
        &mut self,
        beta: f64,
        w: &mut Matrix,
        policy: SolverPolicy,
    ) -> Result<(), LinalgError> {
        let use_primal = self.use_primal;
        let x = self.x;
        let y = self.y;
        let mut report = SolverReport {
            beta,
            policy,
            ..SolverReport::default()
        };
        let RidgeScratch {
            gram,
            rhs,
            sys,
            chol,
            alpha,
            gemm,
            qr,
            svd,
            cond,
        } = self.scratch.get();
        sys.copy_from(gram);
        for i in 0..sys.rows() {
            sys[(i, i)] += beta;
        }
        let result = if use_primal {
            solve_policy(policy, &mut report, sys, rhs, w, chol, qr, svd, cond)
        } else {
            solve_policy(policy, &mut report, sys, y, alpha, chol, qr, svd, cond)
                .and_then(|()| x.t_matmul_into(alpha, w, gemm))
        };
        if let Err(e) = &result {
            report.error = Some(e.clone());
        }
        self.report = report;
        result
    }

    /// The [`SolverReport`] of the most recent solve (all-default before
    /// the first one). Failing solves leave their terminal error here, so
    /// sweep drivers can skip-and-surface a bad candidate.
    pub fn last_report(&self) -> &SolverReport {
        &self.report
    }
}

/// One policy-driven solve of `sys·out = b`: the §15 escalation state
/// machine (Cholesky + rcond vet → QR → SVD under [`SolverPolicy::Auto`],
/// exactly one rung under [`SolverPolicy::Fixed`]).
///
/// Exposed so other solve drivers — notably the incremental
/// `dfr-core::online` refit, whose fast path is a rank-1-maintained factor
/// rather than a fresh one — escalate with *identical* semantics and
/// [`SolverReport`] bookkeeping instead of re-implementing the ladder.
/// `chol`/`qr`/`svd`/`cond` are caller-owned scratch, factored into only
/// by the rungs that actually run; `report.used`/`escalated`/`rcond` are
/// filled in, `report.error` is left to the caller (who may have more
/// rungs of its own).
#[allow(clippy::too_many_arguments)]
pub fn solve_policy(
    policy: SolverPolicy,
    report: &mut SolverReport,
    sys: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    chol: &mut Cholesky,
    qr: &mut Qr,
    svd: &mut Svd,
    cond: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    match policy {
        SolverPolicy::Fixed(kind) => {
            solve_with(kind, sys, b, out, chol, qr, svd)?;
            report.used = Some(kind);
            Ok(())
        }
        SolverPolicy::Auto => {
            match solve_with(SolverKind::Cholesky, sys, b, out, chol, qr, svd) {
                Ok(()) => {
                    // Factorable ≠ trustworthy: vet the factor. Below the
                    // threshold the "solution" may carry no correct digits.
                    let rcond = chol.rcond_1_est(sys.norm_1(), cond);
                    report.rcond = Some(rcond);
                    if rcond >= solver::RCOND_MIN {
                        report.used = Some(SolverKind::Cholesky);
                        return Ok(());
                    }
                }
                // Escalate only what a better factorisation can actually
                // fix; shape errors and poisoned (non-finite) systems are
                // terminal — QR's input scan rejects the latter below.
                Err(LinalgError::NotPositiveDefinite { .. }) => {}
                Err(e) => return Err(e),
            }
            report.escalated = true;
            match solve_with(SolverKind::Qr, sys, b, out, chol, qr, svd) {
                Ok(()) if out.as_slice().iter().all(|v| v.is_finite()) => {
                    report.used = Some(SolverKind::Qr);
                    return Ok(());
                }
                // Rank-deficient (or overflowed) past QR's tolerance: the
                // SVD's truncated minimum-norm solve is the last word.
                Ok(()) | Err(LinalgError::Singular { .. }) => {}
                Err(e) => return Err(e),
            }
            solve_with(SolverKind::Svd, sys, b, out, chol, qr, svd)?;
            report.used = Some(SolverKind::Svd);
            Ok(())
        }
    }
}

/// Factor `sys` with one backend (into its recycled scratch) and solve.
fn solve_with(
    kind: SolverKind,
    sys: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    chol: &mut Cholesky,
    qr: &mut Qr,
    svd: &mut Svd,
) -> Result<(), LinalgError> {
    match kind {
        SolverKind::Cholesky => {
            Cholesky::factor_into(sys, chol)?;
            chol.solve_into(b, out)
        }
        SolverKind::Qr => {
            Qr::factor_into(sys, qr)?;
            qr.solve_into(b, out)
        }
        SolverKind::Svd => {
            Svd::factor_into(sys, svd)?;
            svd.solve_into(b, out)
        }
    }
}

/// Ridge regression with an intercept column.
///
/// Augments `x` with a trailing constant-1 feature so the model is
/// `Y ≈ X W + 1·bᵀ`; returns `(W, b)` with `W` of shape `p x q` and `b` of
/// length `q`. The intercept is regularised together with the weights,
/// matching the paper's readout (which treats `b` as one more feature of the
/// augmented representation `x' = [x, 1]`).
///
/// # Errors
///
/// Same as [`ridge_fit`].
pub fn ridge_fit_intercept(
    x: &Matrix,
    y: &Matrix,
    beta: f64,
) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let p = x.cols();
    let aug = augment_ones(x);
    let w_aug = ridge_fit(&aug, y, beta)?;
    let q = w_aug.cols();
    let mut w = Matrix::zeros(p, q);
    for i in 0..p {
        w.row_mut(i).copy_from_slice(w_aug.row(i));
    }
    let b = w_aug.row(p).to_vec();
    Ok((w, b))
}

/// Appends a trailing constant-1 feature column to `x` — the augmented
/// representation `x' = [x, 1]` behind [`ridge_fit_intercept`]. Exposed so
/// β-sweep callers can build the augmented matrix once and reuse it with a
/// [`RidgePlan`].
pub fn augment_ones(x: &Matrix) -> Matrix {
    let mut aug = Matrix::zeros(0, 0);
    augment_ones_into(x, &mut aug);
    aug
}

/// [`augment_ones`] writing into a caller-owned matrix (resized to
/// `n x (p + 1)`, allocation reused) — the buffer-recycling form sweep
/// callers pair with [`RidgePlan::with_mode_in`].
pub fn augment_ones_into(x: &Matrix, out: &mut Matrix) {
    let n = x.rows();
    let p = x.cols();
    out.resize(n, p + 1);
    for i in 0..n {
        let row = out.row_mut(i);
        row[..p].copy_from_slice(x.row(i));
        row[p] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Matrix) {
        // y = x0 - 2 x1 + noise-free
        let x = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, -1.0],
            &[0.5, 0.5],
        ])
        .unwrap();
        let y = Matrix::from_vec(
            5,
            1,
            x.as_slice().chunks(2).map(|r| r[0] - 2.0 * r[1]).collect(),
        )
        .unwrap();
        (x, y)
    }

    #[test]
    fn recovers_linear_map_small_beta() {
        let (x, y) = toy();
        let w = ridge_fit(&x, &y, 1e-10).unwrap();
        assert!((w[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((w[(1, 0)] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn primal_equals_dual() {
        let (x, y) = toy();
        for beta in [1e-6, 1e-2, 1.0] {
            let wp = RidgePlan::with_mode(&x, &y, RidgeMode::Primal)
                .unwrap()
                .solve(beta)
                .unwrap();
            let wd = RidgePlan::with_mode(&x, &y, RidgeMode::Dual)
                .unwrap()
                .solve(beta)
                .unwrap();
            for i in 0..wp.rows() {
                assert!(
                    (wp[(i, 0)] - wd[(i, 0)]).abs() < 1e-8,
                    "beta={beta} row {i}: {} vs {}",
                    wp[(i, 0)],
                    wd[(i, 0)]
                );
            }
        }
    }

    #[test]
    fn larger_beta_shrinks_weights() {
        let (x, y) = toy();
        let w_small = ridge_fit(&x, &y, 1e-8).unwrap();
        let w_big = ridge_fit(&x, &y, 100.0).unwrap();
        let sq_norm = |w: &Matrix| w.as_slice().iter().map(|v| v * v).sum::<f64>();
        assert!(sq_norm(&w_big) < sq_norm(&w_small));
    }

    #[test]
    fn intercept_fits_offset_data() {
        // y = 3 + 2 x
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = Matrix::from_rows(&[&[3.0], &[5.0], &[7.0], &[9.0]]).unwrap();
        let (w, b) = ridge_fit_intercept(&x, &y, 1e-9).unwrap();
        assert!((w[(0, 0)] - 2.0).abs() < 1e-4);
        assert!((b[0] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(4, 1);
        assert!(ridge_fit(&x, &y, 1.0).is_err());
    }

    #[test]
    fn empty_is_error() {
        let x = Matrix::zeros(0, 0);
        let y = Matrix::zeros(0, 1);
        assert!(matches!(
            ridge_fit(&x, &y, 1.0).unwrap_err(),
            LinalgError::Empty { .. }
        ));
    }

    #[test]
    fn exact_fit_has_zero_mse() {
        let (x, y) = toy();
        let w = ridge_fit(&x, &y, 1e-12).unwrap();
        let residual = &x.matmul(&w).unwrap() - &y;
        let mse = residual.as_slice().iter().map(|d| d * d).sum::<f64>() / y.len() as f64;
        assert!(mse < 1e-10);
    }

    #[test]
    fn plan_sweep_is_bitwise_identical_to_per_beta_fits() {
        let (x, y) = toy();
        for mode in [RidgeMode::Primal, RidgeMode::Dual, RidgeMode::Auto] {
            let mut plan = RidgePlan::with_mode(&x, &y, mode).unwrap();
            let mut w = Matrix::zeros(0, 0);
            for beta in [1e-6, 1e-4, 1e-2, 1.0] {
                plan.solve_into(beta, &mut w).unwrap();
                let standalone = RidgePlan::with_mode(&x, &y, mode)
                    .unwrap()
                    .solve(beta)
                    .unwrap();
                assert_eq!(w.shape(), standalone.shape());
                for (a, b) in w.as_slice().iter().zip(standalone.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "mode {mode:?} beta {beta}");
                }
            }
        }
    }

    #[test]
    fn plan_validates_like_ridge_fit() {
        assert!(RidgePlan::new(&Matrix::zeros(3, 2), &Matrix::zeros(4, 1)).is_err());
        assert!(RidgePlan::new(&Matrix::zeros(0, 0), &Matrix::zeros(0, 1)).is_err());
        // Singular system (β = 0 on rank-deficient data): a pinned
        // Cholesky errors per solve, leaving the plan usable for the next
        // candidate.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let y = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        let mut plan = RidgePlan::new(&x, &y).unwrap();
        solver::with_solver(SolverPolicy::Fixed(SolverKind::Cholesky), || {
            assert!(plan.solve(0.0).is_err());
            assert!(plan.last_report().error.is_some());
            assert!(plan.solve(1e-2).is_ok());
        });
    }

    #[test]
    fn auto_escalates_rank_deficient_to_finite_minimum_norm() {
        // Duplicated feature column at β = 0: the Gram is exactly
        // singular. Cholesky must refuse it, Auto must answer anyway.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let y = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]).unwrap();
        let mut plan = RidgePlan::with_mode(&x, &y, RidgeMode::Primal).unwrap();
        let mut w = Matrix::zeros(0, 0);
        assert!(plan
            .solve_into_with(0.0, &mut w, SolverPolicy::Fixed(SolverKind::Cholesky))
            .is_err());
        plan.solve_into_with(0.0, &mut w, SolverPolicy::Auto)
            .unwrap();
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
        let report = plan.last_report().clone();
        assert!(report.escalated);
        assert_eq!(report.used, Some(SolverKind::Svd));
        assert!(report.is_ok());
        // Minimum-norm solution of y = x·w with duplicated columns:
        // weight splits evenly, w = [1, 1].
        assert!((w[(0, 0)] - 1.0).abs() < 1e-10, "w00 {}", w[(0, 0)]);
        assert!((w[(1, 0)] - 1.0).abs() < 1e-10, "w10 {}", w[(1, 0)]);
    }

    #[test]
    fn auto_uses_cholesky_bitwise_on_well_conditioned_systems() {
        let (x, y) = toy();
        let mut plan = RidgePlan::new(&x, &y).unwrap();
        let mut w_auto = Matrix::zeros(0, 0);
        let mut w_chol = Matrix::zeros(0, 0);
        for beta in [1e-6, 1e-2, 1.0] {
            plan.solve_into_with(beta, &mut w_auto, SolverPolicy::Auto)
                .unwrap();
            let report = plan.last_report().clone();
            assert_eq!(report.used, Some(SolverKind::Cholesky));
            assert!(!report.escalated);
            assert!(report.rcond.unwrap() > solver::RCOND_MIN);
            plan.solve_into_with(beta, &mut w_chol, SolverPolicy::Fixed(SolverKind::Cholesky))
                .unwrap();
            for (a, b) in w_auto.as_slice().iter().zip(w_chol.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "beta {beta}");
            }
        }
    }

    #[test]
    fn qr_and_svd_policies_match_cholesky_within_tolerance() {
        let (x, y) = toy();
        for mode in [RidgeMode::Primal, RidgeMode::Dual] {
            let mut plan = RidgePlan::with_mode(&x, &y, mode).unwrap();
            let mut reference = Matrix::zeros(0, 0);
            let mut w = Matrix::zeros(0, 0);
            for beta in [1e-6, 1e-2, 1.0] {
                plan.solve_into_with(
                    beta,
                    &mut reference,
                    SolverPolicy::Fixed(SolverKind::Cholesky),
                )
                .unwrap();
                for kind in [SolverKind::Qr, SolverKind::Svd] {
                    plan.solve_into_with(beta, &mut w, SolverPolicy::Fixed(kind))
                        .unwrap();
                    assert_eq!(plan.last_report().used, Some(kind));
                    for (a, b) in w.as_slice().iter().zip(reference.as_slice()) {
                        let rel = (a - b).abs() / b.abs().max(1.0);
                        assert!(rel < 1e-10, "{kind:?} {mode:?} beta {beta}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_data_is_terminal_under_every_policy() {
        let x = Matrix::filled(3, 2, 1e200); // Gram overflows to ∞
        let y = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        let mut plan = RidgePlan::with_mode(&x, &y, RidgeMode::Primal).unwrap();
        let mut w = Matrix::zeros(0, 0);
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Fixed(SolverKind::Qr),
            SolverPolicy::Fixed(SolverKind::Svd),
        ] {
            let err = plan.solve_into_with(1e-6, &mut w, policy).unwrap_err();
            assert!(
                matches!(
                    err,
                    LinalgError::NonFinite { .. } | LinalgError::NotPositiveDefinite { .. }
                ),
                "{policy:?}: {err}"
            );
            assert_eq!(plan.last_report().error.as_ref(), Some(&err));
        }
    }

    #[test]
    fn augment_ones_appends_constant_column() {
        let (x, _) = toy();
        let aug = augment_ones(&x);
        assert_eq!(aug.shape(), (x.rows(), x.cols() + 1));
        for i in 0..x.rows() {
            assert_eq!(&aug.row(i)[..x.cols()], x.row(i));
            assert_eq!(aug.row(i)[x.cols()], 1.0);
        }
    }

    #[test]
    fn multi_target_columns() {
        let (x, y1) = toy();
        // Second target = 5*x1.
        let mut y = Matrix::zeros(5, 2);
        for i in 0..5 {
            y[(i, 0)] = y1[(i, 0)];
            y[(i, 1)] = 5.0 * x[(i, 1)];
        }
        let w = ridge_fit(&x, &y, 1e-10).unwrap();
        assert!((w[(1, 1)] - 5.0).abs() < 1e-6);
        assert!((w[(0, 1)]).abs() < 1e-6);
    }
}
