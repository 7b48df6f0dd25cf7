//! Readout solver policy: Cholesky → QR → SVD escalation and its dispatch.
//!
//! The ridge readout's Gram systems are SPD for any `β > 0`, so Cholesky
//! is the right default — but "SPD in exact arithmetic" stops meaning
//! "factorable in f64" once the Gram is rank-deficient and `β` is tiny
//! (degenerate channels, drifting streams). [`SolverPolicy::Auto`]
//! escalates per solve:
//!
//! 1. **Cholesky** (`n³/3` flops). On success a cheap 1-norm
//!    reciprocal-condition estimate ([`crate::cholesky::Cholesky::rcond_1_est`])
//!    vets the factor; below [`RCOND_MIN`] the answer may carry no correct
//!    digits, so the policy escalates even though factorisation "worked".
//! 2. **QR** (`2n³/3` flops) — orthogonal transforms, no squaring of the
//!    conditioning at the factorisation step. Detects genuine rank
//!    deficiency at back-substitution ([`crate::LinalgError::Singular`]).
//! 3. **SVD** (several `O(n³)` sweeps) — minimum-norm solve, finite for
//!    any rank. The escalation always terminates here.
//!
//! Non-finite *input* never escalates: no solver can repair poisoned data
//! ([`crate::LinalgError::NonFinite`] is terminal), mirroring the serving
//! layer's pre-admission `BadInput` quarantine.
//!
//! Selection mirrors the §13 kernel dispatch exactly, on the same
//! `dfr_pool::knob` helpers: a scoped [`with_solver`] override, then the
//! `DFR_SOLVER` environment variable (parsed once, panicking on an
//! unknown value — a differential-CI override must never silently fall
//! back), then the [`SolverPolicy::Auto`] default.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::LinalgError;

/// Escalate away from a successful Cholesky factor when its estimated
/// 1-norm reciprocal condition drops below this.
///
/// Rationale: f64 carries ~16 decimal digits; a linear solve loses roughly
/// `log₁₀(1/rcond)` of them, so at `rcond < 1e-14` at most ~2 digits
/// survive and the "solution" is mostly rounding noise. The threshold sits
/// two decades *above* `ε ≈ 2.2e-16` so the estimate's slack (it is an
/// upper bound on the true rcond) cannot hide a fully-degenerate system,
/// yet far below the `rcond ≈ 1e-11…1e-6` range real β-sweep Grams produce
/// — the default policy never escalates on the paper's workloads, which is
/// what keeps the golden digest byte-identical.
pub const RCOND_MIN: f64 = 1e-14;

/// A concrete factorisation backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Blocked Cholesky ([`crate::cholesky`]) — the fast SPD path.
    Cholesky,
    /// Householder QR ([`crate::qr`]) — ill-conditioned fallback.
    Qr,
    /// One-sided Jacobi SVD ([`crate::svd`]) — minimum-norm last resort.
    Svd,
}

impl SolverKind {
    /// Every backend, escalation order.
    pub const ALL: [SolverKind; 3] = [SolverKind::Cholesky, SolverKind::Qr, SolverKind::Svd];

    /// Lower-case name, matching the `DFR_SOLVER` syntax.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Cholesky => "cholesky",
            SolverKind::Qr => "qr",
            SolverKind::Svd => "svd",
        }
    }
}

/// How [`crate::ridge::RidgePlan::solve_into`] picks its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverPolicy {
    /// Cholesky first, QR on failure or low rcond, SVD last (the default).
    #[default]
    Auto,
    /// Exactly one backend, no escalation — the differential suites and
    /// the `DFR_SOLVER` CI matrix pin each backend this way.
    Fixed(SolverKind),
}

impl SolverPolicy {
    /// Every policy `DFR_SOLVER` can select.
    pub const ALL: [SolverPolicy; 4] = [
        SolverPolicy::Auto,
        SolverPolicy::Fixed(SolverKind::Cholesky),
        SolverPolicy::Fixed(SolverKind::Qr),
        SolverPolicy::Fixed(SolverKind::Svd),
    ];

    /// Lower-case name, matching the `DFR_SOLVER` syntax.
    pub fn name(self) -> &'static str {
        match self {
            SolverPolicy::Auto => "auto",
            SolverPolicy::Fixed(k) => k.name(),
        }
    }

    /// Parses a `DFR_SOLVER` / `--solver` value (case-insensitive).
    pub fn parse(s: &str) -> Option<SolverPolicy> {
        let s = s.trim().to_ascii_lowercase();
        SolverPolicy::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The outcome of one policy-driven solve: which backend answered, whether
/// the policy had to escalate to get there, the condition estimate that
/// drove the decision, and the terminal error if every rung failed.
///
/// `fit_readout` keeps one report per β candidate (in its scratch, so the
/// sweep stays allocation-free after warm-up) — a failing candidate is
/// skipped *and visible*, never silently dropped and never fatal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolverReport {
    /// The regularisation candidate this solve served.
    pub beta: f64,
    /// The policy that was in force.
    pub policy: SolverPolicy,
    /// Backend that produced the accepted solution (`None` on failure).
    pub used: Option<SolverKind>,
    /// Whether `Auto` moved past its first rung.
    pub escalated: bool,
    /// 1-norm reciprocal-condition estimate of the factored system, when
    /// one was computed (Cholesky succeeded under `Auto`). Hager's
    /// estimate is an *upper* bound on the true value. On the online
    /// learner's warm-factor fast path it may instead be the certified
    /// *lower* bound carried through absorbs (DESIGN.md §16).
    pub rcond: Option<f64>,
    /// Terminal failure, if the solve produced no solution.
    pub error: Option<LinalgError>,
}

impl SolverReport {
    /// Whether this solve produced an accepted solution.
    pub fn is_ok(&self) -> bool {
        self.error.is_none() && self.used.is_some()
    }
}

/// Parses a `DFR_SOLVER` value: a policy name, or unset/blank.
fn policy_from_env(raw: Option<&str>) -> Option<SolverPolicy> {
    let accepted = format!(
        "one of {}",
        SolverPolicy::ALL.map(SolverPolicy::name).join("/")
    );
    dfr_pool::knob::parse_env("DFR_SOLVER", raw, SolverPolicy::parse, &accepted)
}

/// The process default: `DFR_SOLVER` if set (panicking on an unknown
/// value), otherwise [`SolverPolicy::Auto`].
fn default_policy() -> SolverPolicy {
    static DEFAULT: OnceLock<SolverPolicy> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        policy_from_env(std::env::var("DFR_SOLVER").ok().as_deref()).unwrap_or_default()
    })
}

thread_local! {
    /// Thread-local override installed by [`with_solver`].
    static LOCAL_SOLVER: Cell<Option<SolverPolicy>> = const { Cell::new(None) };
}

/// The policy ridge solves started from this thread will use.
///
/// Resolution order: [`with_solver`] override → `DFR_SOLVER` →
/// [`SolverPolicy::Auto`].
pub fn active() -> SolverPolicy {
    LOCAL_SOLVER.with(Cell::get).unwrap_or_else(default_policy)
}

/// Runs `f` with ridge solves resolved from this thread pinned to
/// `policy`, restoring the previous setting afterwards, even if `f`
/// unwinds — the scoped, race-free form the solver-differential tests use
/// (mirrors [`crate::kernels::with_kernel`]).
///
/// Solves resolve their policy at entry on the calling thread; the
/// override does **not** reach solves issued from inside pool workers —
/// use `DFR_SOLVER` for whole-process runs.
///
/// # Example
///
/// ```
/// use dfr_linalg::solver::{active, with_solver, SolverKind, SolverPolicy};
///
/// let name = with_solver(SolverPolicy::Fixed(SolverKind::Qr), || active().name());
/// assert_eq!(name, "qr");
/// ```
pub fn with_solver<R>(policy: SolverPolicy, f: impl FnOnce() -> R) -> R {
    dfr_pool::knob::scoped(&LOCAL_SOLVER, policy, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_policy() {
        for p in SolverPolicy::ALL {
            assert_eq!(SolverPolicy::parse(p.name()), Some(p));
            assert_eq!(SolverPolicy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(SolverPolicy::parse("lu"), None);
        assert_eq!(SolverPolicy::parse(""), None);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(SolverPolicy::default(), SolverPolicy::Auto);
    }

    #[test]
    fn with_solver_is_what_active_returns() {
        for p in SolverPolicy::ALL {
            assert_eq!(with_solver(p, active), p);
        }
    }

    #[test]
    fn dfr_solver_parses_policy_names_and_panics_otherwise() {
        assert_eq!(policy_from_env(None), None);
        assert_eq!(policy_from_env(Some("")), None);
        assert_eq!(
            policy_from_env(Some(" qr\n")),
            Some(SolverPolicy::Fixed(SolverKind::Qr))
        );
        assert_eq!(
            policy_from_env(Some("SVD")),
            Some(SolverPolicy::Fixed(SolverKind::Svd))
        );
        for bad in ["lu", "avx2-fma"] {
            let err = std::panic::catch_unwind(|| policy_from_env(Some(bad)))
                .expect_err(bad)
                .downcast::<String>()
                .unwrap();
            let want = format!("DFR_SOLVER={bad}: expected one of auto/cholesky/qr/svd");
            assert_eq!(*err, want);
        }
    }

    #[test]
    fn report_is_ok_semantics() {
        let mut r = SolverReport::default();
        assert!(!r.is_ok()); // no backend answered yet
        r.used = Some(SolverKind::Cholesky);
        assert!(r.is_ok());
        r.error = Some(LinalgError::Empty { op: "x" });
        assert!(!r.is_ok());
    }
}
