//! Delayed feedback reservoir (DFR) substrate.
//!
//! A DFR is a reservoir computer built from a single nonlinear element and a
//! feedback loop carrying `N_x` *virtual nodes* at spacing `θ` (total delay
//! `τ = N_x·θ`). This crate implements every reservoir model the paper
//! discusses:
//!
//! * [`modular::ModularDfr`] — the **modular DFR** (paper Eq. 13), the model
//!   the backpropagation contribution is built on:
//!   `x(k)_n = A·f(j(k)_n + x(k−1)_n) + B·x(k)_{n−1}`.
//! * [`classic::DigitalDfr`] — the classic digital DFR (paper Eq. 8) with a
//!   Mackey–Glass nonlinearity.
//! * [`classic::AnalogDfr`] — an Euler-integrated Mackey–Glass
//!   delay-differential model (paper Eqs. 2–3), the analog substrate the
//!   introduction describes.
//! * [`mask`] — input masking `j(k) = M·u(k)` with random binary or uniform
//!   masks (multivariate inputs use an `N_x × C` mask matrix).
//! * [`nonlinearity`] — pluggable one-input one-output functions `f` with
//!   analytic derivatives, as required for backpropagation.
//! * [`representation`] — reservoir representations turning the `T × N_x`
//!   state history into fixed-length features; [`representation::Dprr`] is
//!   the dot-product reservoir representation of paper §2.2.
//! * [`lanes`] — the streaming feature kernel: several equal-length series
//!   at once, one per SIMD lane, through mask → recurrence → DPRR without
//!   storing the state history.
//!
//! # Example
//!
//! ```
//! use dfr_linalg::Matrix;
//! use dfr_reservoir::mask::Mask;
//! use dfr_reservoir::modular::ModularDfr;
//! use dfr_reservoir::representation::{Dprr, Representation};
//!
//! # fn main() -> Result<(), dfr_reservoir::ReservoirError> {
//! let mask = Mask::binary(30, 1, 42);           // N_x = 30, one channel
//! let dfr = ModularDfr::linear(mask, 0.1, 0.1)?; // A = B = 0.1, f(z) = z
//! let series = Matrix::filled(50, 1, 1.0);       // T = 50 constant input
//! let run = dfr.run(&series)?;
//! let features = Dprr.features(run.states());
//! assert_eq!(features.len(), 30 * 31);           // N_x (N_x + 1)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
mod error;
pub mod lanes;
pub mod mask;
pub mod modular;
pub mod nonlinearity;
pub mod representation;

pub use error::ReservoirError;
pub use modular::{ModularDfr, ReservoirRun};
