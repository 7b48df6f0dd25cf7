//! Fast parameter optimization of delayed feedback reservoirs with
//! backpropagation and gradient descent — the paper's contribution.
//!
//! Conventionally DFR hyperparameters are tuned by grid search because the
//! nonlinear element is hard to differentiate. This crate implements the
//! paper's alternative end to end:
//!
//! * [`model::DfrClassifier`] — modular DFR + DPRR + linear/softmax readout.
//! * [`backprop`] — hand-derived gradients through the output layer
//!   (Eqs. 16–17), the DPRR layer (Eqs. 20–23) and the recursive reservoir
//!   layer (Eqs. 24–32), plus the **truncated** variant (Eqs. 33–36) that
//!   stores only two reservoir states.
//! * [`optimizer`] — plain SGD with the paper's step schedule.
//! * [`trainer`] — the paper's §4 protocol: 25 epochs of per-sample SGD
//!   from `[A, B] = [0.01, 0.01]`, then a ridge readout with
//!   `β ∈ {1e−6, 1e−4, 1e−2, 1}` selected by training loss.
//! * [`grid`] — the grid-search baseline of §4.1 (including the accuracy
//!   landscape of Fig. 6 and the recursive-refinement variant the paper
//!   argues against).
//! * [`memory`] — the closed-form storage model behind Table 2.
//! * [`metrics`] — confusion matrices.
//! * [`workspace`] — reusable training workspaces: the SGD hot path runs
//!   allocation-free after warm-up (`DESIGN.md` §9).
//!
//! # Example
//!
//! ```
//! use dfr_core::trainer::{train, TrainOptions};
//! use dfr_data::DatasetSpec;
//!
//! # fn main() -> Result<(), dfr_core::CoreError> {
//! let mut ds = DatasetSpec::new("quick", 2, 30, 2, 16, 16, 0.4).build(0);
//! dfr_data::normalize::standardize(&mut ds);
//! let report = train(&ds, &TrainOptions::fast_demo())?;
//! assert!(report.test_accuracy >= 0.5); // beats coin flip on an easy task
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backprop;
mod error;
pub mod grid;
pub mod memory;
pub mod metrics;
pub mod model;
pub mod online;
pub mod optimizer;
pub mod readout;
pub mod streaming;
pub mod trainer;
pub mod workspace;

pub use error::CoreError;
pub use model::{DfrClassifier, ForwardCache};
pub use workspace::{BackpropWorkspace, TrainWorkspace};
