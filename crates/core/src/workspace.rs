//! Reusable training workspaces: the allocation-free hot path's storage.
//!
//! The paper's training loop (§4) is per-sample SGD — forward pass,
//! backward pass, parameter update — repeated for every sample of every
//! epoch. Each of those stages needs scratch storage (reservoir state
//! history, DPRR features, backpropagated values, gradient matrices) whose
//! shapes are fixed by the model and dataset, so allocating them per sample
//! is pure overhead. This module groups that storage into workspaces that
//! are created once and recycled:
//!
//! * [`BackpropWorkspace`] — gradient buffers plus the backward pass's
//!   scratch (`∂L/∂r`, bpv, `∂L/∂s` …), consumed by
//!   [`backprop_into`](crate::backprop::backprop_into) and
//!   [`streaming_backprop_into`](crate::streaming::streaming_backprop_into).
//! * [`TrainWorkspace`] — a full SGD-step workspace: a
//!   [`ForwardCache`] for the forward stage plus a [`BackpropWorkspace`]
//!   for the backward stage.
//!
//! # Ownership rules (`DESIGN.md` §9)
//!
//! The **caller** owns the workspace and may reuse it across any sequence
//! of calls with the same or different shapes (buffers are resized, never
//! assumed). Inside `dfr-pool` fan-outs each worker owns a private
//! workspace (built per worker block by `par_try_chunks_mut_with`'s `init`,
//! or owned per part by the caller of `par_try_parts_zip_mut`) — scratch
//! is never shared between workers. After a call that returned an error the
//! workspace contents are unspecified but safe: the next successful call
//! fully overwrites them.

use crate::backprop::Gradients;
use crate::model::ForwardCache;
use dfr_linalg::Matrix;

/// Scratch and gradient storage for one backward pass, reused across
/// samples and epochs.
///
/// The gradients of the most recent
/// [`backprop_into`](crate::backprop::backprop_into) call live in
/// [`BackpropWorkspace::grads`]; everything else is internal scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct BackpropWorkspace {
    /// Gradients of the most recent backward pass.
    pub grads: Gradients,
    /// `∂L/∂logits = y − d`.
    pub(crate) g: Vec<f64>,
    /// `∂L/∂r` (length `N_r`), including the `1/T` feature scaling.
    pub(crate) dr: Vec<f64>,
    /// The product block of `∂L/∂r`, viewed as an `N_x × N_x` matrix.
    pub(crate) dr_products: Matrix,
    /// Backpropagated values of the DPRR stage (Eq. 23 / 33).
    pub(crate) bpv: Matrix,
    /// `∂L/∂s` over the truncation window (Eqs. 24–30 / 34).
    pub(crate) ds: Matrix,
    /// Per-row matvec scratch.
    pub(crate) term: Vec<f64>,
}

impl Default for BackpropWorkspace {
    fn default() -> Self {
        BackpropWorkspace::new()
    }
}

impl BackpropWorkspace {
    /// An empty workspace; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        BackpropWorkspace {
            grads: Gradients {
                a: 0.0,
                b: 0.0,
                w_out: Matrix::zeros(0, 0),
                bias: Vec::new(),
                mask: None,
            },
            g: Vec::new(),
            dr: Vec::new(),
            dr_products: Matrix::zeros(0, 0),
            bpv: Matrix::zeros(0, 0),
            ds: Matrix::zeros(0, 0),
            term: Vec::new(),
        }
    }

    /// Consumes the workspace, returning the gradients of the most recent
    /// backward pass (the allocating [`backprop`](crate::backprop::backprop)
    /// wrapper is built on this).
    pub(crate) fn into_gradients(self) -> Gradients {
        self.grads
    }
}

/// A full SGD-step workspace: forward cache plus backward scratch.
///
/// One `TrainWorkspace` serves an entire training run — and, in parallel
/// regions, one per pool worker serves that worker's block of samples.
/// After warm-up (the first sample of the longest series length) a
/// forward + backward + update step performs **zero heap allocations**;
/// `dfr-bench`'s `count-allocs` regression test pins this.
///
/// # Example
///
/// ```
/// use dfr_core::backprop::{backprop_into, BackpropOptions};
/// use dfr_core::workspace::TrainWorkspace;
/// use dfr_core::DfrClassifier;
/// use dfr_linalg::Matrix;
///
/// # fn main() -> Result<(), dfr_core::CoreError> {
/// let model = DfrClassifier::paper_default(6, 2, 3, 0)?;
/// let series = Matrix::filled(10, 2, 0.4);
/// let mut ws = TrainWorkspace::new();
/// for _ in 0..3 {
///     // Buffers are allocated on the first pass, recycled afterwards.
///     model.forward_into(&series, &mut ws.cache)?;
///     let TrainWorkspace { cache, bp, .. } = &mut ws;
///     backprop_into(&model, &series, cache, &[1.0, 0.0, 0.0],
///                   &BackpropOptions::default(), bp)?;
/// }
/// assert!(ws.bp.grads.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// Forward-pass storage (reservoir run, features, logits, probs).
    pub cache: ForwardCache,
    /// Backward-pass scratch and gradient buffers.
    pub bp: BackpropWorkspace,
    /// Readout-refit scratch: the intercept-augmented ridge system, its
    /// GEMM packing panels and the batched-logits buffers (`DESIGN.md`
    /// §10) — recycled by the trainer's final β sweep.
    pub readout: crate::readout::ReadoutScratch,
}

/// Workspace equality is the forward/backward state; readout scratch
/// carries no identity.
impl PartialEq for TrainWorkspace {
    fn eq(&self, other: &Self) -> bool {
        self.cache == other.cache && self.bp == other.bp
    }
}

impl TrainWorkspace {
    /// An empty workspace; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        TrainWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspaces_start_empty() {
        let ws = TrainWorkspace::new();
        assert!(ws.cache.features.is_empty());
        assert!(ws.bp.grads.bias.is_empty());
        assert_eq!(ws.bp.grads.w_out.shape(), (0, 0));
        let g = BackpropWorkspace::new().into_gradients();
        assert_eq!(g.a, 0.0);
        assert!(g.mask.is_none());
    }
}
