//! Minimal dense linear algebra for the DFR reproduction.
//!
//! This crate provides exactly the numerical kernels the delayed-feedback
//! reservoir (DFR) pipeline needs, with no external BLAS dependency:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   products ([`Matrix::matmul`], [`Matrix::matvec`], transposes, …).
//! * [`gemm`] — the register-tiled, panel-packed GEMM microkernel family
//!   every dense product routes through (see `DESIGN.md` §10). Each
//!   product has an allocating form and one `_into` form that packs into
//!   a caller-owned [`GemmWorkspace`] (e.g. [`Matrix::matmul_into`]).
//! * [`kernels`] — runtime-dispatched SIMD microkernels (AVX2/SSE2/NEON
//!   with a scalar floor, `DESIGN.md` §13): every kernel is bitwise
//!   identical to scalar, selected once per process and overridable via
//!   `DFR_KERNEL` / [`kernels::with_kernel`].
//! * [`cholesky`] — blocked Cholesky factorisation and solves for
//!   symmetric positive-definite systems, used by the ridge-regression
//!   readout, plus a cheap 1-norm reciprocal-condition estimate.
//! * [`qr`] / [`svd`] — Householder QR and one-sided Jacobi SVD, the
//!   numerically robust fallbacks behind the readout solver escalation
//!   (`DESIGN.md` §15).
//! * [`solver`] — the [`solver::SolverPolicy`] (Cholesky → QR → SVD)
//!   with kernel-style dispatch (`DFR_SOLVER` / [`solver::with_solver`])
//!   and the per-solve [`solver::SolverReport`].
//! * [`ridge`] — ridge regression in both primal and dual form with
//!   automatic selection based on the problem shape.
//! * [`activation`] — numerically stable softmax / log-sum-exp and the
//!   cross-entropy loss used by the output layer.
//! * [`stats`] — small statistics helpers (mean, standard deviation,
//!   argmax) used by dataset normalisation and accuracy metrics.
//!
//! # Example
//!
//! Solve a tiny ridge problem:
//!
//! ```
//! use dfr_linalg::{Matrix, ridge::ridge_fit};
//!
//! # fn main() -> Result<(), dfr_linalg::LinalgError> {
//! // Two samples, three features.
//! let x = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]])?;
//! // One target column.
//! let y = Matrix::from_rows(&[&[1.0], &[2.0]])?;
//! let w = ridge_fit(&x, &y, 1e-6)?;
//! assert_eq!(w.rows(), 3);
//! assert_eq!(w.cols(), 1);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD microkernels in [`kernels`] are
// the one sanctioned unsafe island (std::arch intrinsics behind runtime
// detection); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod cholesky;
mod error;
pub mod gemm;
#[allow(unsafe_code)]
pub mod kernels;
mod matrix;
pub mod qr;
pub mod ridge;
pub mod solver;
pub mod stats;
pub mod svd;

pub use error::LinalgError;
pub use gemm::GemmWorkspace;
pub use matrix::{dot, Matrix};
