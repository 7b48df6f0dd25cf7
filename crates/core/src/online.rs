//! Online continual learning: a rank-1 up/downdated ridge readout.
//!
//! The paper's storage-frugal training (constant-memory
//! [`crate::streaming::StreamingForward`], cheap linear readout) is
//! exactly the regime where a deployed model should keep learning from
//! live traffic. [`OnlineRidge`] makes that incremental: it maintains the
//! intercept-augmented ridge system
//!
//! ```text
//! S = βI + Σₖ λ^(age) φₖφₖᵀ      C = Σₖ λ^(age) φₖ tₖᵀ      φ = [x, 1]
//! ```
//!
//! together with a Cholesky factor of `S` kept in lockstep via **rank-1
//! up/downdates** ([`Cholesky::rank1_update`] / [`Cholesky::rank1_downdate`],
//! `O(p²)` per sample), so absorbing one sample and refitting the readout
//! costs `O(p²)` — versus the `O(p³/3)` refactorisation a from-scratch
//! [`dfr_linalg::ridge::RidgePlan`] pays per refit. At the forgetting
//! factor `λ = 1` the maintained system equals the batch ridge system on
//! the same sample set exactly (same math, different summation order), so
//! incremental weights agree with a from-scratch refit to rounding — the
//! differential oracle this module is pinned by.
//!
//! Only the lower triangle of `S` is kept current per sample (the
//! factorisation reads no more); it is mirrored into the upper one just
//! before a reader that needs the whole matrix (the rcond vet's 1-norm,
//! the escalation ladder).
//!
//! Failure semantics follow DESIGN.md §15: a downdate that would leave
//! `S − φφᵀ` indefinite (or an update that overflows) is a *typed* failure
//! that never poisons a solve — the exact rank-1 bookkeeping of `S`/`C` is
//! still applied, the half-rotated factor is left
//! [invalid](Cholesky::is_valid), and the next
//! [`OnlineRidge::refit_into`] escalates through the active
//! [`SolverPolicy`] (fresh Cholesky → QR → SVD) on the explicitly
//! maintained system, reporting what happened in a per-refit
//! [`SolverReport`].

use dfr_linalg::cholesky::Cholesky;
use dfr_linalg::qr::Qr;
use dfr_linalg::ridge::solve_policy;
use dfr_linalg::solver::{self, SolverKind, SolverPolicy, SolverReport, RCOND_MIN};
use dfr_linalg::svd::Svd;
use dfr_linalg::{LinalgError, Matrix};

use crate::CoreError;

/// Headroom the conditioning certificate must keep above [`RCOND_MIN`]
/// before a refit trusts it instead of running Hager's estimate: the
/// certificate's rounding allowance is first order, so a certificate
/// near the threshold hands over to the vet.
const CERT_MARGIN: f64 = 16.0;

/// An incrementally-refittable ridge readout over augmented features
/// `φ = [x, 1]` (the intercept is one more regularised feature, matching
/// the batch readout of [`crate::readout::fit_readout`]).
///
/// # Example
///
/// ```
/// use dfr_core::online::OnlineRidge;
///
/// # fn main() -> Result<(), dfr_core::CoreError> {
/// // 2 features, 2 classes: y = class 0 iff x₀ > x₁.
/// let mut learner = OnlineRidge::new(2, 2, 1e-4)?;
/// learner.absorb_label(&[1.0, 0.0], 0)?;
/// learner.absorb_label(&[0.0, 1.0], 1)?;
/// learner.absorb_label(&[0.9, 0.2], 0)?;
/// let (w_out, bias) = learner.refit()?;
/// assert_eq!(w_out.shape(), (2, 2));
/// assert_eq!(bias.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineRidge {
    /// Feature dimension `p` (pre-augmentation).
    p: usize,
    /// Target dimension `q` (class count for one-hot targets).
    q: usize,
    /// Ridge regulariser seeding the system at `βI`.
    beta: f64,
    /// Exponential forgetting factor `λ ∈ (0, 1]`; each absorb decays the
    /// whole system (classic RLS: `S ← λS + φφᵀ`, including the `βI`
    /// seed, so `λ = 1` equals batch ridge exactly).
    forget: f64,
    /// The symmetric system `S`, order `p + 1` — maintained explicitly
    /// (not only as its factor) because the QR/SVD escalation rungs factor
    /// the matrix itself. Only the lower triangle is current; the upper
    /// one is refreshed by [`OnlineRidge::mirror_sys`] before a
    /// whole-matrix read.
    sys: Matrix,
    /// Whether the upper triangle of `sys` mirrors the lower one (cleared
    /// by every absorb and retract).
    mirrored: bool,
    /// Right-hand side `C`, `(p + 1) × q`.
    rhs: Matrix,
    /// Cholesky factor of `sys`, maintained in lockstep by rank-1
    /// rotations. A failed rotation leaves it invalid (no longer a factor
    /// of `sys`) until a refit re-factors `sys` successfully.
    chol: Cholesky,
    /// Lower bound on `λ_min(S)` (Weyl): `β` at construction, `λ·lo` on
    /// each forgetting decay, `lo − ‖φ‖²` on each retract.
    lo: f64,
    /// Upper bound on `λ_max(S)`: `β` at construction, `λ·hi + ‖φ‖²` on
    /// each absorb.
    hi: f64,
    /// Samples absorbed over the learner's lifetime.
    absorbed: u64,
    /// Samples retracted over the learner's lifetime.
    retracted: u64,
    /// Augmented-feature scratch `[x, 1]`.
    phi: Vec<f64>,
    /// Target pass-through scratch of [`OnlineRidge::absorb`] /
    /// [`OnlineRidge::retract`] (taken while the rank-1 application
    /// borrows `self`).
    target: Vec<f64>,
    /// One-hot scratch of [`OnlineRidge::absorb_label`] — distinct from
    /// `target`, which the inner [`OnlineRidge::absorb`] call takes.
    onehot: Vec<f64>,
    /// Rotation scratch of the rank-1 recurrences.
    work: Vec<f64>,
    /// Work vector of the rcond estimate, sized up front so the first
    /// vet after the certificate lapses does not allocate.
    cond: Vec<f64>,
    /// Augmented weights `(p + 1) × q` of the most recent refit.
    w_aug: Matrix,
    /// QR escalation scratch, factored only when a refit escalates.
    qr: Qr,
    /// SVD last-resort scratch, same lifecycle as `qr`.
    svd: Svd,
    /// Outcome of the most recent refit (§15 semantics).
    report: SolverReport,
}

impl OnlineRidge {
    /// A learner over `feature_dim` features and `targets` outputs with
    /// ridge regulariser `beta` and no forgetting (`λ = 1`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `feature_dim == 0`, `targets == 0`
    /// or `beta` is not a positive finite number.
    pub fn new(feature_dim: usize, targets: usize, beta: f64) -> Result<Self, CoreError> {
        OnlineRidge::with_forgetting(feature_dim, targets, beta, 1.0)
    }

    /// [`OnlineRidge::new`] with an exponential forgetting factor
    /// `forget ∈ (0, 1]`: each absorb first decays the whole system by
    /// `forget`, so a sample absorbed `k` steps ago carries weight
    /// `forget^k` — the classic recursive-least-squares response to
    /// drifting streams. `forget = 1` keeps every sample at full weight
    /// and makes the learner exactly equivalent to batch ridge.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineRidge::new`], plus [`CoreError::InvalidConfig`]
    /// for `forget` outside `(0, 1]`.
    pub fn with_forgetting(
        feature_dim: usize,
        targets: usize,
        beta: f64,
        forget: f64,
    ) -> Result<Self, CoreError> {
        if feature_dim == 0 {
            return Err(CoreError::InvalidConfig {
                field: "feature_dim",
                detail: "online ridge needs at least one feature".into(),
            });
        }
        if targets == 0 {
            return Err(CoreError::InvalidConfig {
                field: "targets",
                detail: "online ridge needs at least one target column".into(),
            });
        }
        if !beta.is_finite() || beta <= 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "beta",
                detail: format!("ridge regulariser must be a positive finite number, got {beta}"),
            });
        }
        if !forget.is_finite() || forget <= 0.0 || forget > 1.0 {
            return Err(CoreError::InvalidConfig {
                field: "forget",
                detail: format!("forgetting factor must lie in (0, 1], got {forget}"),
            });
        }
        let n = feature_dim + 1;
        let mut sys = Matrix::zeros(n, n);
        for i in 0..n {
            sys[(i, i)] = beta;
        }
        let chol = Cholesky::scaled_identity(n, beta).map_err(CoreError::Linalg)?;
        Ok(OnlineRidge {
            p: feature_dim,
            q: targets,
            beta,
            forget,
            sys,
            mirrored: true,
            rhs: Matrix::zeros(n, targets),
            chol,
            lo: beta,
            hi: beta,
            absorbed: 0,
            retracted: 0,
            phi: vec![0.0; n],
            target: vec![0.0; targets],
            onehot: vec![0.0; targets],
            work: Vec::new(),
            cond: Vec::with_capacity(n),
            w_aug: Matrix::zeros(n, targets),
            qr: Qr::default(),
            svd: Svd::default(),
            report: SolverReport::default(),
        })
    }

    /// Feature dimension `p` (pre-augmentation).
    pub fn feature_dim(&self) -> usize {
        self.p
    }

    /// Target dimension `q`.
    pub fn targets(&self) -> usize {
        self.q
    }

    /// The ridge regulariser β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Samples absorbed over the learner's lifetime.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Whether the incremental factor no longer matches the system (a
    /// failed up/downdate) — the next refit will re-factor from scratch
    /// under the active [`SolverPolicy`].
    pub fn factor_stale(&self) -> bool {
        !self.chol.is_valid()
    }

    /// The [`SolverReport`] of the most recent refit (all-default before
    /// the first one).
    pub fn last_report(&self) -> &SolverReport {
        &self.report
    }

    /// Validates one `(features, target)` pair and stages `φ = [x, 1]`
    /// into the scratch. Rejects before any state mutation.
    fn stage(&mut self, features: &[f64], target: &[f64]) -> Result<(), CoreError> {
        if features.len() != self.p {
            return Err(CoreError::Linalg(LinalgError::ShapeMismatch {
                op: "online_absorb",
                lhs: (self.p, 1),
                rhs: (features.len(), 1),
            }));
        }
        if target.len() != self.q {
            return Err(CoreError::Linalg(LinalgError::ShapeMismatch {
                op: "online_absorb",
                lhs: (self.q, 1),
                rhs: (target.len(), 1),
            }));
        }
        if features.iter().chain(target).any(|v| !v.is_finite()) {
            return Err(CoreError::Linalg(LinalgError::NonFinite {
                op: "online_absorb",
            }));
        }
        self.phi[..self.p].copy_from_slice(features);
        self.phi[self.p] = 1.0;
        Ok(())
    }

    /// Applies the staged `±φ` rank-1 term to `sys` (lower triangle) and
    /// `rhs` (exact bookkeeping), to the eigenvalue bounds and to the
    /// factor; a failed rotation only invalidates the factor — the system
    /// itself is always correct.
    fn apply_staged(&mut self, target: &[f64], sign: f64) {
        let n = self.p + 1;
        // Weyl: `+φφᵀ` cannot lower λ_min and raises λ_max by at most
        // ‖φ‖²; `−φφᵀ` cannot raise λ_max and lowers λ_min by at most ‖φ‖².
        let phi_sq: f64 = self.phi.iter().map(|v| v * v).sum();
        self.mirrored = false;
        if sign > 0.0 {
            self.hi += phi_sq;
        } else {
            self.lo -= phi_sq;
        }
        for i in 0..n {
            let phi_i = self.phi[i];
            let row = &mut self.sys.row_mut(i)[..=i];
            for (s, &phi_j) in row.iter_mut().zip(&self.phi) {
                *s += sign * phi_i * phi_j;
            }
            let rhs_row = self.rhs.row_mut(i);
            for (c, &t) in target.iter().enumerate() {
                rhs_row[c] += sign * phi_i * t;
            }
        }
        // A failed rotation leaves the factor invalid (and an invalid one
        // refuses without work): the next refit escalates through the
        // solver policy, so the error itself carries nothing more.
        let _ = if sign > 0.0 {
            self.chol.rank1_update(&self.phi, &mut self.work)
        } else {
            self.chol.rank1_downdate(&self.phi, &mut self.work)
        };
    }

    /// Absorbs one sample: decays the system by the forgetting factor,
    /// then adds `φφᵀ` to `S` and `φ·targetᵀ` to `C` — `O(p²)`.
    ///
    /// A rank-1 rotation that fails numerically (overflow on extreme
    /// values) does **not** fail the absorb: the explicit system is
    /// updated exactly and the factor is left invalid for the next refit
    /// to rebuild.
    ///
    /// # Errors
    ///
    /// [`CoreError::Linalg`] with [`LinalgError::ShapeMismatch`] on wrong
    /// `features`/`target` lengths, or [`LinalgError::NonFinite`] if
    /// either carries a non-finite value — checked *before* any state
    /// mutation, so a rejected sample leaves the learner untouched.
    pub fn absorb(&mut self, features: &[f64], target: &[f64]) -> Result<(), CoreError> {
        self.stage(features, target)?;
        if self.forget < 1.0 {
            if self.chol.is_valid() {
                // `forget ∈ (0, 1]` was validated at construction, so the
                // rescale cannot fail (and would fail before any mutation).
                self.chol.scale(self.forget).map_err(CoreError::Linalg)?;
            }
            for i in 0..self.sys.rows() {
                for v in &mut self.sys.row_mut(i)[..=i] {
                    *v *= self.forget;
                }
            }
            for v in self.rhs.as_mut_slice() {
                *v *= self.forget;
            }
            self.lo *= self.forget;
            self.hi *= self.forget;
        }
        // `stage` borrows conflict-free: copy the caller's target through
        // the rank-1 application without re-borrowing self.
        let mut target_scratch = std::mem::take(&mut self.target);
        target_scratch.clear();
        target_scratch.extend_from_slice(target);
        self.apply_staged(&target_scratch, 1.0);
        self.target = target_scratch;
        self.absorbed += 1;
        Ok(())
    }

    /// [`OnlineRidge::absorb`] against a one-hot class target — the form
    /// the serving-side publisher feeds from labelled live traffic.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineRidge::absorb`], plus
    /// [`CoreError::InvalidConfig`] if `label >= self.targets()`.
    pub fn absorb_label(&mut self, features: &[f64], label: usize) -> Result<(), CoreError> {
        if label >= self.q {
            return Err(CoreError::InvalidConfig {
                field: "label",
                detail: format!("label {label} out of range for {} targets", self.q),
            });
        }
        // Staged in its own scratch: the inner `absorb` takes
        // `self.target`, and sharing one buffer would force it to
        // reallocate on every call.
        let mut onehot = std::mem::take(&mut self.onehot);
        onehot.clear();
        onehot.resize(self.q, 0.0);
        onehot[label] = 1.0;
        let result = self.absorb(features, &onehot);
        self.onehot = onehot;
        result
    }

    /// Retracts one previously absorbed sample: subtracts `φφᵀ` from `S`
    /// and `φ·targetᵀ` from `C` via a hyperbolic rank-1 downdate —
    /// the sliding-window companion of [`OnlineRidge::absorb`].
    ///
    /// No forgetting decay is applied: retraction removes the sample at
    /// its current weight, which is exact for sliding windows at
    /// `forget = 1`. Retracting a sample that was never absorbed (or one
    /// already decayed below weight 1) can leave the system indefinite;
    /// that is a typed downdate failure — the factor is marked stale, the
    /// bookkeeping still applies, and the next refit escalates to a
    /// finite minimum-norm solution.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`OnlineRidge::absorb`] (checked before
    /// mutation).
    pub fn retract(&mut self, features: &[f64], target: &[f64]) -> Result<(), CoreError> {
        self.stage(features, target)?;
        let mut target_scratch = std::mem::take(&mut self.target);
        target_scratch.clear();
        target_scratch.extend_from_slice(target);
        self.apply_staged(&target_scratch, -1.0);
        self.target = target_scratch;
        self.retracted += 1;
        Ok(())
    }

    /// Refits the readout from the maintained system under the active
    /// [`SolverPolicy`] (resolution: `with_solver` → `DFR_SOLVER` → Auto),
    /// writing `w_out` (`q × p`) and `bias` (length `q`) in the
    /// [`crate::readout::FittedReadout`] convention.
    ///
    /// The fast path solves with the incrementally maintained factor —
    /// `O(p²q)` substitution, no factorisation at all. Under Auto it first
    /// needs the system's conditioning vouched for. A certificate carried
    /// through absorbs (lower and upper eigenvalue bounds, updated by
    /// Weyl's inequality in `O(p)` per sample) answers when it clears
    /// `RCOND_MIN` sixteen-fold; otherwise (after a retract, after long
    /// forgetting, on overflow) Hager's `O(p²)` rcond estimate vets the
    /// factor as before. The report's `rcond` carries whichever answered:
    /// the certificate is a lower bound on the true reciprocal condition,
    /// Hager's estimate an upper one. The slow path (stale factor, failed
    /// vet, or a QR/SVD-pinned policy) runs the §15 escalation state
    /// machine on the explicit system; a successful fresh Cholesky
    /// factorisation makes the incremental factor valid again as a side
    /// effect, so rank-1 maintenance resumes afterwards.
    /// [`OnlineRidge::last_report`] records which backend answered.
    ///
    /// # Errors
    ///
    /// [`CoreError::Linalg`] with the terminal solver error if every
    /// rung fails (e.g. [`LinalgError::NonFinite`] after the system was
    /// poisoned by overflow) — also recorded in the report.
    pub fn refit_into(&mut self, w_out: &mut Matrix, bias: &mut Vec<f64>) -> Result<(), CoreError> {
        self.refit_into_with(w_out, bias, solver::active())
    }

    /// [`OnlineRidge::refit_into`] under an explicit policy.
    fn refit_into_with(
        &mut self,
        w_out: &mut Matrix,
        bias: &mut Vec<f64>,
        policy: SolverPolicy,
    ) -> Result<(), CoreError> {
        let mut report = SolverReport {
            beta: self.beta,
            policy,
            ..SolverReport::default()
        };
        let warm = !self.factor_stale()
            && match policy {
                SolverPolicy::Fixed(kind) => kind == SolverKind::Cholesky,
                SolverPolicy::Auto => {
                    let cert = self.certificate();
                    // An overflowed `hi` makes `cert` NaN, which fails
                    // the comparison and falls back to the vet.
                    let rcond = if cert >= CERT_MARGIN * RCOND_MIN {
                        cert
                    } else {
                        self.mirror_sys();
                        self.chol.rcond_1_est(self.sys.norm_1(), &mut self.cond)
                    };
                    report.rcond = Some(rcond);
                    rcond >= RCOND_MIN
                }
            };
        let result = if warm {
            let solved = self.chol.solve_into(&self.rhs, &mut self.w_aug);
            report.used = solved.is_ok().then_some(SolverKind::Cholesky);
            solved
        } else {
            // A Cholesky rung refactors `sys` into `chol`, which is then
            // valid exactly when that factorisation succeeded.
            self.mirror_sys();
            report.rcond = None;
            solve_policy(
                policy,
                &mut report,
                &self.sys,
                &self.rhs,
                &mut self.w_aug,
                &mut self.chol,
                &mut self.qr,
                &mut self.svd,
                &mut self.cond,
            )
        };
        if let Err(e) = result {
            report.error = Some(e.clone());
            self.report = report;
            return Err(CoreError::Linalg(e));
        }
        self.report = report;
        // w_aug is (p+1) × q; transpose into the readout convention:
        // w_out q × p plus a separate bias row.
        w_out.resize(self.q, self.p);
        for i in 0..self.p {
            for (c, &v) in self.w_aug.row(i).iter().enumerate() {
                w_out[(c, i)] = v;
            }
        }
        bias.clear();
        bias.extend_from_slice(self.w_aug.row(self.p));
        Ok(())
    }

    /// Certified lower bound on the 1-norm reciprocal condition of the
    /// explicitly kept `sys`, from the eigenvalue bounds `lo`/`hi`.
    ///
    /// For symmetric `S`, `κ₁ ≤ n·κ₂ ≤ n·λ_max/λ_min`. Every rank-1 term
    /// rounds each entry of `sys` twice (product, add), and under
    /// forgetting the decay once more; with `N` terms that error has
    /// 2-norm at most `N·ε·hi` (`ε` = [`f64::EPSILON`], twice the unit
    /// roundoff; the decay's extra rounding counts as half a term), so
    /// `λ_min(sys) ≥ lo − N·ε·hi`. Negative once a retract may have
    /// removed more than `lo`; NaN once `hi` overflowed.
    fn certificate(&self) -> f64 {
        let mut terms = (self.absorbed + self.retracted) as f64;
        if self.forget < 1.0 {
            terms += 0.5 * self.absorbed as f64;
        }
        let n = (self.p + 1) as f64;
        (self.lo - terms * f64::EPSILON * self.hi) / (n * self.hi)
    }

    /// Copies the lower triangle of `sys` into the upper one, unless
    /// nothing has touched it since the last copy.
    fn mirror_sys(&mut self) {
        if !self.mirrored {
            mirror_lower(&mut self.sys);
            self.mirrored = true;
        }
    }

    /// Allocating convenience form of [`OnlineRidge::refit_into`].
    ///
    /// # Errors
    ///
    /// Same as [`OnlineRidge::refit_into`].
    pub fn refit(&mut self) -> Result<(Matrix, Vec<f64>), CoreError> {
        let mut w_out = Matrix::zeros(0, 0);
        let mut bias = Vec::new();
        self.refit_into(&mut w_out, &mut bias)?;
        Ok((w_out, bias))
    }
}

/// Copies the lower triangle of the square `sys` into the upper one.
/// `sign·φᵢ·φⱼ` is exact in `sign` and commutative, and the decay scales
/// both triangles alike, so the result is bitwise the system a
/// two-triangle update would have kept. `dfr-linalg` keeps a private
/// copy of this loop for its Gram products; sharing one would make it
/// public `Matrix` surface.
fn mirror_lower(sys: &mut Matrix) {
    let n = sys.rows();
    let data = sys.as_mut_slice();
    for i in 1..n {
        let (above, below) = data.split_at_mut(i * n);
        for (j, &v) in below[..i].iter().enumerate() {
            above[j * n + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_linalg::ridge::{augment_ones, RidgeMode, RidgePlan};

    /// Deterministic pseudo-random sample stream (no rand dependency in
    /// unit tests; splitmix-style).
    fn sample(i: u64, p: usize, q: usize) -> (Vec<f64>, Vec<f64>) {
        let mut s = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s >> 30;
            s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            s ^= s >> 27;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let x: Vec<f64> = (0..p).map(|_| next() * 2.0).collect();
        let mut t = vec![0.0; q];
        t[(i as usize) % q] = 1.0;
        (x, t)
    }

    /// From-scratch batch refit on the same samples via `RidgePlan`
    /// (primal, intercept-augmented) — the differential oracle.
    fn batch_fit(samples: &[(Vec<f64>, Vec<f64>)], beta: f64) -> (Matrix, Vec<f64>) {
        let p = samples[0].0.len();
        let q = samples[0].1.len();
        let mut x = Matrix::zeros(samples.len(), p);
        let mut y = Matrix::zeros(samples.len(), q);
        for (i, (f, t)) in samples.iter().enumerate() {
            x.row_mut(i).copy_from_slice(f);
            y.row_mut(i).copy_from_slice(t);
        }
        let aug = augment_ones(&x);
        let mut plan = RidgePlan::with_mode(&aug, &y, RidgeMode::Primal).unwrap();
        let w_aug = plan.solve(beta).unwrap();
        let mut w_out = Matrix::zeros(q, p);
        for i in 0..p {
            for c in 0..q {
                w_out[(c, i)] = w_aug[(i, c)];
            }
        }
        (w_out, w_aug.row(p).to_vec())
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn incremental_matches_batch_refit() {
        let (p, q, beta) = (7, 3, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        let samples: Vec<_> = (0..40).map(|i| sample(i, p, q)).collect();
        let mut w = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        for (i, (x, t)) in samples.iter().enumerate() {
            learner.absorb(x, t).unwrap();
            // Refit at several prefixes, not only the end.
            if i % 7 == 6 || i + 1 == samples.len() {
                // Auto named explicitly: the fast-path assertions below
                // describe Auto, whatever `DFR_SOLVER` forces.
                learner
                    .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
                    .unwrap();
                let (bw, bb) = batch_fit(&samples[..=i], beta);
                assert_close(&w, &bw, 1e-9, "w_out");
                for (x1, x2) in b.iter().zip(&bb) {
                    assert!((x1 - x2).abs() < 1e-9, "bias {x1} vs {x2}");
                }
            }
        }
        assert_eq!(learner.absorbed(), 40);
        assert!(!learner.factor_stale());
        let report = learner.last_report();
        assert_eq!(report.used, Some(SolverKind::Cholesky));
        assert!(!report.escalated);
    }

    #[test]
    fn retract_restores_the_exact_sample_set() {
        let (p, q, beta) = (5, 2, 1e-3);
        let keep: Vec<_> = (0..12).map(|i| sample(i, p, q)).collect();
        let extra: Vec<_> = (100..106).map(|i| sample(i, p, q)).collect();
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        for (x, t) in keep.iter().chain(&extra) {
            learner.absorb(x, t).unwrap();
        }
        for (x, t) in extra.iter().rev() {
            learner.retract(x, t).unwrap();
        }
        assert!(!learner.factor_stale());
        let (w, b) = learner.refit().unwrap();
        let (bw, bb) = batch_fit(&keep, beta);
        assert_close(&w, &bw, 1e-9, "w_out after retraction");
        for (x1, x2) in b.iter().zip(&bb) {
            assert!((x1 - x2).abs() < 1e-9);
        }
        assert_eq!(learner.retracted, 6);
    }

    #[test]
    fn forgetting_matches_weighted_batch_oracle() {
        // After n absorbs at factor λ: S = λⁿβI + Σ λ^(n-1-i) φᵢφᵢᵀ —
        // equivalently batch ridge at β' = λⁿβ on rows scaled by
        // λ^((n-1-i)/2) with targets scaled the same way.
        let (p, q, beta, lambda) = (4, 2, 1e-3, 0.9);
        let n = 15;
        let samples: Vec<_> = (0..n).map(|i| sample(i as u64, p, q)).collect();
        let mut learner = OnlineRidge::with_forgetting(p, q, beta, lambda).unwrap();
        for (x, t) in &samples {
            learner.absorb(x, t).unwrap();
        }
        let (w, b) = learner.refit().unwrap();

        let mut x = Matrix::zeros(n, p + 1);
        let mut y = Matrix::zeros(n, q);
        for (i, (f, t)) in samples.iter().enumerate() {
            let scale = lambda.powi((n - 1 - i) as i32).sqrt();
            for (j, &v) in f.iter().enumerate() {
                x[(i, j)] = scale * v;
            }
            x[(i, p)] = scale; // the intercept feature decays too
            for (c, &v) in t.iter().enumerate() {
                y[(i, c)] = scale * v;
            }
        }
        let beta_eff = beta * lambda.powi(n as i32);
        let mut plan = RidgePlan::with_mode(&x, &y, RidgeMode::Primal).unwrap();
        let w_aug = plan.solve(beta_eff).unwrap();
        for i in 0..p {
            for c in 0..q {
                assert!(
                    (w[(c, i)] - w_aug[(i, c)]).abs() < 1e-9,
                    "w[{c}][{i}]: {} vs {}",
                    w[(c, i)],
                    w_aug[(i, c)]
                );
            }
        }
        for (c, bv) in b.iter().enumerate() {
            assert!((bv - w_aug[(p, c)]).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_retraction_escalates_and_recovers() {
        let (p, q, beta) = (4, 2, 1e-6);
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        for i in 0..6 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
        }
        // Retract a sample that was never absorbed, with enough energy to
        // drive the system indefinite: the downdate fails *typed*, the
        // bookkeeping still applies, and the factor goes stale.
        let rogue_x = vec![10.0; p];
        let rogue_t = vec![1.0; q];
        learner.retract(&rogue_x, &rogue_t).unwrap();
        assert!(learner.factor_stale());
        // Refit must still answer (escalating to a finite minimum-norm
        // solution) and must report the escalation honestly.
        let mut w = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
        assert!(b.iter().all(|v| v.is_finite()));
        let report = learner.last_report().clone();
        assert!(report.escalated, "indefinite system must escalate");
        assert!(matches!(
            report.used,
            Some(SolverKind::Qr) | Some(SolverKind::Svd)
        ));
        // Re-absorbing the rogue sample restores definiteness; the next
        // Auto refit re-factors, un-stales, and the learner agrees with
        // batch again.
        learner.absorb(&rogue_x, &rogue_t).unwrap();
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        assert!(!learner.factor_stale());
        assert_eq!(learner.last_report().used, Some(SolverKind::Cholesky));
        // The rogue sample was retracted once and absorbed once, so the
        // net system is exactly the original 6 samples.
        let expect: Vec<_> = (0..6).map(|i| sample(i, p, q)).collect();
        let (bw, bb) = batch_fit(&expect, beta);
        assert_close(&w, &bw, 1e-7, "w_out after recovery");
        for (x1, x2) in b.iter().zip(&bb) {
            assert!((x1 - x2).abs() < 1e-7);
        }
    }

    /// Hager's estimate on the learner's current factor and (mirrored)
    /// system — what the Auto vet computes.
    fn hager(learner: &OnlineRidge) -> f64 {
        let mut sys = learner.sys.clone();
        mirror_lower(&mut sys);
        learner.chol.rcond_1_est(sys.norm_1(), &mut Vec::new())
    }

    /// Whether the last Auto refit was answered by the certificate (its
    /// report carries the certificate bitwise) rather than by the vet.
    fn certified(learner: &OnlineRidge) -> bool {
        learner.last_report().rcond == Some(learner.certificate())
    }

    #[test]
    fn certified_refits_agree_with_the_vet_and_fixed_cholesky() {
        let (p, q, beta) = (48, 3, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        let (mut w, mut b) = (Matrix::zeros(0, 0), Vec::new());
        let (mut w_chol, mut b_chol) = (Matrix::zeros(0, 0), Vec::new());
        let mut refits = 0;
        for i in 0..300 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
            if i % 10 != 9 {
                continue;
            }
            learner
                .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
                .unwrap();
            assert!(certified(&learner), "certificate lapsed at absorb {i}");
            let report = learner.last_report().clone();
            assert_eq!(report.used, Some(SolverKind::Cholesky));
            assert!(!report.escalated);
            let cert = report.rcond.unwrap();
            let vet = hager(&learner);
            assert!(vet >= RCOND_MIN, "vet {vet:e} would have escalated");
            assert!(vet >= cert, "certificate {cert:e} above Hager's {vet:e}");
            learner
                .refit_into_with(
                    &mut w_chol,
                    &mut b_chol,
                    SolverPolicy::Fixed(SolverKind::Cholesky),
                )
                .unwrap();
            assert_eq!(w, w_chol, "certified weights differ at absorb {i}");
            assert_eq!(b, b_chol);
            refits += 1;
        }
        assert_eq!(refits, 30);
    }

    #[test]
    fn forgetting_lapses_the_certificate_where_its_bounds_predict() {
        let (p, q, beta, lambda) = (8, 2, 1e-2, 0.97);
        let mut learner = OnlineRidge::with_forgetting(p, q, beta, lambda).unwrap();
        let (mut w, mut b) = (Matrix::zeros(0, 0), Vec::new());
        // The bounds replayed outside the learner: lo = λᵏβ, and hi
        // decays then gains ‖φ‖² per absorb. Rounding terms aside, the
        // certificate lapses once lo/(n·hi) < 16·RCOND_MIN.
        let (mut lo, mut hi) = (beta, beta);
        let mut predicted = None;
        let mut lapsed = None;
        for i in 0..800u64 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
            lo *= lambda;
            hi = lambda * hi + x.iter().map(|v| v * v).sum::<f64>() + 1.0;
            if predicted.is_none() && lo / ((p + 1) as f64 * hi) < CERT_MARGIN * RCOND_MIN {
                predicted = Some(i);
            }
            learner
                .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
                .unwrap();
            assert_eq!(learner.last_report().used, Some(SolverKind::Cholesky));
            if lapsed.is_none() && !certified(&learner) {
                lapsed = Some(i);
            }
            if lapsed.is_some() {
                assert_eq!(
                    learner.last_report().rcond.map(f64::to_bits),
                    Some(hager(&learner).to_bits()),
                    "absorb {i}: rcond is not Hager's estimate"
                );
            }
        }
        let predicted = predicted.expect("bounds predict a lapse within the stream");
        let lapsed = lapsed.expect("certificate never lapsed");
        // The rounding allowance `N·ε·hi`, which the replay leaves out,
        // can only bring the lapse a few absorbs earlier.
        assert!(
            lapsed <= predicted && predicted - lapsed < 25,
            "lapsed at absorb {lapsed}, bounds predict {predicted}"
        );
    }

    #[test]
    fn a_retraction_beyond_lo_hands_the_refit_back_to_the_vet() {
        let (p, q, beta) = (6, 2, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        let (mut w, mut b) = (Matrix::zeros(0, 0), Vec::new());
        for i in 0..20 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
        }
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        assert!(certified(&learner));
        // Any real sample carries ‖φ‖² ≥ 1 (the intercept) > lo = β.
        let (x, t) = sample(7, p, q);
        learner.retract(&x, &t).unwrap();
        assert!(!learner.factor_stale());
        assert!(learner.certificate() < 0.0);
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        let report = learner.last_report();
        assert_eq!(
            report.rcond.map(f64::to_bits),
            Some(hager(&learner).to_bits())
        );
        assert_eq!(report.used, Some(SolverKind::Cholesky));
        assert!(!report.escalated);
    }

    #[test]
    fn rejects_bad_inputs_before_mutation() {
        let mut learner = OnlineRidge::new(3, 2, 1e-4).unwrap();
        let (x, t) = sample(0, 3, 2);
        learner.absorb(&x, &t).unwrap();
        let before_sys = learner.sys.clone();
        assert!(learner.absorb(&[1.0, 2.0], &t).is_err()); // wrong p
        assert!(learner.absorb(&x, &[1.0]).is_err()); // wrong q
        assert!(learner.absorb(&[1.0, f64::NAN, 0.0], &t).is_err());
        assert!(learner.absorb(&x, &[f64::INFINITY, 0.0]).is_err());
        assert!(learner.retract(&[1.0], &t).is_err());
        assert!(learner.absorb_label(&x, 2).is_err()); // label out of range
        assert_eq!(learner.sys, before_sys, "rejected inputs must not mutate");
        assert_eq!(learner.absorbed(), 1);
        // Config validation.
        assert!(OnlineRidge::new(0, 2, 1e-4).is_err());
        assert!(OnlineRidge::new(3, 0, 1e-4).is_err());
        assert!(OnlineRidge::new(3, 2, 0.0).is_err());
        assert!(OnlineRidge::new(3, 2, f64::NAN).is_err());
        assert!(OnlineRidge::with_forgetting(3, 2, 1e-4, 0.0).is_err());
        assert!(OnlineRidge::with_forgetting(3, 2, 1e-4, 1.1).is_err());
    }

    #[test]
    fn absorb_label_is_one_hot_absorb() {
        let (p, q, beta) = (3, 4, 1e-4);
        let mut a = OnlineRidge::new(p, q, beta).unwrap();
        let mut b = OnlineRidge::new(p, q, beta).unwrap();
        for i in 0..10u64 {
            let (x, _) = sample(i, p, q);
            let label = (i as usize) % q;
            let mut one_hot = vec![0.0; q];
            one_hot[label] = 1.0;
            a.absorb_label(&x, label).unwrap();
            b.absorb(&x, &one_hot).unwrap();
        }
        let (wa, ba) = a.refit().unwrap();
        let (wb, bb) = b.refit().unwrap();
        assert_eq!(wa, wb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn fixed_policies_answer_consistently() {
        let (p, q, beta) = (5, 2, 1e-3);
        let mut learner = OnlineRidge::new(p, q, beta).unwrap();
        for i in 0..20 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
        }
        let mut w_ref = Matrix::zeros(0, 0);
        let mut b_ref = Vec::new();
        learner
            .refit_into_with(
                &mut w_ref,
                &mut b_ref,
                SolverPolicy::Fixed(SolverKind::Cholesky),
            )
            .unwrap();
        for kind in [SolverKind::Qr, SolverKind::Svd] {
            let mut w = Matrix::zeros(0, 0);
            let mut b = Vec::new();
            learner
                .refit_into_with(&mut w, &mut b, SolverPolicy::Fixed(kind))
                .unwrap();
            assert_eq!(learner.last_report().used, Some(kind));
            assert_close(&w, &w_ref, 1e-8, "fixed-policy w_out");
            for (x1, x2) in b.iter().zip(&b_ref) {
                assert!((x1 - x2).abs() < 1e-8);
            }
        }
        // A QR/SVD-pinned refit never touches the incremental factor:
        // the Cholesky fast path still answers afterwards.
        let mut w = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Fixed(SolverKind::Cholesky))
            .unwrap();
        assert!(!learner.factor_stale());
        assert_eq!(w, w_ref, "same factor + rhs must solve bitwise equal");
        assert_eq!(b, b_ref);
    }

    /// `S` and `C` as the two-triangle bookkeeping keeps them: each
    /// absorb (`sign > 0`) decays both, then `±φφᵀ` lands on every entry.
    fn two_triangle(ops: &[(Vec<f64>, Vec<f64>, f64)], beta: f64, forget: f64) -> (Matrix, Matrix) {
        let (n, q) = (ops[0].0.len() + 1, ops[0].1.len());
        let (mut sys, mut rhs) = (Matrix::identity(n), Matrix::zeros(n, q));
        sys.scale(beta);
        for (x, t, sign) in ops {
            if *sign > 0.0 {
                sys.scale(forget);
                rhs.scale(forget);
            }
            let phi: Vec<f64> = x.iter().copied().chain([1.0]).collect();
            for (i, &phi_i) in phi.iter().enumerate() {
                for (j, &phi_j) in phi.iter().enumerate() {
                    sys[(i, j)] += sign * phi_i * phi_j;
                }
                for (c, &tc) in t.iter().enumerate() {
                    rhs[(i, c)] += sign * phi_i * tc;
                }
            }
        }
        (sys, rhs)
    }

    /// `solve_policy` on fresh scratch: the weights a refit on
    /// `sys`/`rhs` must reproduce.
    fn solve_fresh(sys: &Matrix, rhs: &Matrix, policy: SolverPolicy) -> Matrix {
        let (mut w, mut report) = (Matrix::zeros(0, 0), SolverReport::default());
        let (mut chol, mut qr, mut svd) = (Cholesky::empty(), Qr::default(), Svd::default());
        solve_policy(
            policy,
            &mut report,
            sys,
            rhs,
            &mut w,
            &mut chol,
            &mut qr,
            &mut svd,
            &mut Vec::new(),
        )
        .unwrap();
        w
    }

    #[test]
    fn one_triangle_bookkeeping_mirrors_to_the_two_triangle_system_bitwise() {
        let (p, q, beta, lambda) = (9, 3, 1e-3, 0.97);
        let mut learner = OnlineRidge::with_forgetting(p, q, beta, lambda).unwrap();
        let (mut w, mut b) = (Matrix::zeros(0, 0), Vec::new());
        let mut ops = Vec::new();
        for i in 0..60 {
            let (x, t) = sample(i, p, q);
            learner.absorb(&x, &t).unwrap();
            ops.push((x.clone(), t.clone(), 1.0));
            if i % 7 == 6 {
                // Retracting the sample just absorbed keeps S definite.
                learner.retract(&x, &t).unwrap();
                ops.push((x, t, -1.0));
            }
        }
        let (sys, rhs) = two_triangle(&ops, beta, lambda);
        let mut mirrored = learner.sys.clone();
        mirror_lower(&mut mirrored);
        assert_eq!(mirrored, sys);
        assert_eq!(learner.rhs, rhs);

        // The retracts took the certificate below zero, so Auto vets the
        // incremental factor against the mirrored S.
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        let vet = learner.chol.rcond_1_est(sys.norm_1(), &mut Vec::new());
        assert_eq!(learner.report.rcond, Some(vet));
        for kind in [SolverKind::Qr, SolverKind::Svd] {
            let policy = SolverPolicy::Fixed(kind);
            learner.refit_into_with(&mut w, &mut b, policy).unwrap();
            assert_eq!(learner.w_aug, solve_fresh(&sys, &rhs, policy));
        }

        // A rogue retract invalidates the factor: Auto escalates on the
        // mirrored S.
        let (x, t) = (vec![10.0; p], vec![1.0; q]);
        learner.retract(&x, &t).unwrap();
        assert!(learner.factor_stale());
        ops.push((x, t, -1.0));
        let (sys, rhs) = two_triangle(&ops, beta, lambda);
        learner
            .refit_into_with(&mut w, &mut b, SolverPolicy::Auto)
            .unwrap();
        assert!(learner.report.escalated);
        assert_eq!(learner.w_aug, solve_fresh(&sys, &rhs, SolverPolicy::Auto));
    }
}
