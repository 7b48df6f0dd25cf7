//! Constant-memory forward pass for the paper's truncated training.
//!
//! The storage claim of the paper's Table 2 — `2·N_x` reservoir-state
//! values instead of `(T+1)·N_x` — is only realisable if the forward pass
//! itself avoids materialising the state history. This module provides
//! that pass at the paper's window `W = 1` (§3.4: only the last input step
//! is backpropagated through):
//!
//! * [`StreamingForward::run_into`] gets the `1/T`-scaled DPRR features
//!   from the history-free lane kernel [`dprr_lanes`] (one lane), the same
//!   kernel grid search and serving run. The kernel's ring still holds its
//!   final block on return, so `x(T−2)` and `x(T−1)` are read from it
//!   ([`LaneScratch::last_two_states`]); the pass adds only the masked row
//!   `j(T−1)` and the model's fused readout epilogue.
//! * [`streaming_backprop_into`] hands that tail to the backward body that
//!   [`crate::backprop::backprop_into`] also runs, as a one-step trailing
//!   window.
//!
//! So the pair is bitwise equal to [`DfrClassifier::forward`] followed by
//! `backprop_into` under [`BackpropMode::PAPER_TRUNCATED`] (tested), and a
//! memory-constrained embedded training loop holds no state that grows
//! with `T`: the two tail states the backward pass reads, plus the
//! kernel's five-row ring and the `N_x(N_x+1)` DPRR accumulator. Windows
//! `W > 1` stay on the stored-history path (`BackpropMode::Truncated`).
//!
//! [`BackpropMode::PAPER_TRUNCATED`]: crate::backprop::BackpropMode::PAPER_TRUNCATED

use crate::backprop::{backward_into, Trailing};
use crate::model::DfrClassifier;
use crate::workspace::BackpropWorkspace;
use crate::CoreError;
use dfr_linalg::activation::dense_bias_softmax_into;
use dfr_linalg::Matrix;
use dfr_reservoir::lanes::{dprr_lanes, LaneScratch};
use dfr_reservoir::nonlinearity::Nonlinearity;
use dfr_reservoir::ReservoirError;

/// Output of a constant-memory forward pass: everything the truncated
/// backward pass (Eqs. 33–36) needs, and nothing that grows with `T`.
#[derive(Debug, Clone, Default)]
pub struct StreamingCache {
    /// Normalized DPRR features (`N_x(N_x+1)`, scaled by `1/T`).
    pub features: Vec<f64>,
    /// Readout pre-activations.
    pub logits: Vec<f64>,
    /// Softmax probabilities.
    pub probs: Vec<f64>,
    /// Series length `T`; 0 until a pass succeeds.
    pub t_len: usize,
    /// The masked drive `j(T−1)` of the last step.
    masked: Vec<f64>,
    /// The lane kernel's buffers; its ring holds `x(T−2)` and `x(T−1)`.
    lanes: LaneScratch,
}

impl PartialEq for StreamingCache {
    /// Compares what the pass produced, not the kernel's scratch.
    fn eq(&self, other: &Self) -> bool {
        self.features == other.features
            && self.logits == other.logits
            && self.probs == other.probs
            && self.t_len == other.t_len
            && self.masked == other.masked
            && self.tail_states() == other.tail_states()
    }
}

impl StreamingCache {
    /// An empty cache — the seed value for [`StreamingForward::run_into`]
    /// buffer reuse.
    pub fn empty() -> Self {
        StreamingCache::default()
    }

    /// Cross-entropy loss against a one-hot target.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the class count.
    pub fn loss(&self, target: &[f64]) -> f64 {
        dfr_linalg::activation::cross_entropy(&self.probs, target)
    }

    /// `x(T−2)` then `x(T−1)` (`x(−1) ≡ 0`); empty before a pass succeeds.
    fn tail_states(&self) -> &[f64] {
        if self.t_len == 0 {
            return &[];
        }
        self.lanes.last_two_states(self.t_len)
    }
}

/// The constant-memory forward pass of the paper's truncated training
/// (window `W = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingForward;

impl StreamingForward {
    /// The paper's configuration: the last input step only.
    pub fn paper() -> Self {
        StreamingForward
    }

    /// Runs the reservoir + DPRR + readout over `series` without storing
    /// its state history.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Reservoir`] on an empty series, channel mismatch or
    ///   divergence.
    /// * [`CoreError::Linalg`] on internal shape errors (unreachable for a
    ///   well-formed model).
    pub fn run<N: Nonlinearity + Clone>(
        &self,
        model: &DfrClassifier<N>,
        series: &Matrix,
    ) -> Result<StreamingCache, CoreError> {
        let mut cache = StreamingCache::empty();
        self.run_into(model, series, &mut cache)?;
        Ok(cache)
    }

    /// [`StreamingForward::run`] writing into a caller-owned cache — every
    /// buffer is recycled across samples, so a streaming training loop is
    /// allocation-free after its first sample. Bitwise identical to
    /// [`StreamingForward::run`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamingForward::run`]; on error the cache reads as
    /// empty until a later pass succeeds.
    pub fn run_into<N: Nonlinearity + Clone>(
        &self,
        model: &DfrClassifier<N>,
        series: &Matrix,
        cache: &mut StreamingCache,
    ) -> Result<(), CoreError> {
        cache.t_len = 0;
        let reservoir = model.reservoir();
        cache.features.resize(model.feature_dim(), 0.0);
        dprr_lanes::<N, 1>(reservoir, &[series], &mut cache.features, &mut cache.lanes)?;
        let t_len = series.rows();
        if t_len == 0 {
            // A 0-row series has no reservoir trajectory: the DPRR sums are
            // all zero and the 1/T normalisation is undefined. Reject it
            // with the same typed error the serving path uses — the server
            // maps it onto `BadInput`.
            return Err(ReservoirError::EmptySeries.into());
        }
        // j(T−1) = M·u(T−1) in the kernel's order: from +0.0, channels
        // ascending.
        let u = series.row(t_len - 1);
        let mask = reservoir.mask().matrix();
        cache.masked.resize(reservoir.nodes(), 0.0);
        for (n, j) in cache.masked.iter_mut().enumerate() {
            *j = mask.row(n).iter().zip(u).fold(0.0, |j, (&m, &u)| j + u * m);
        }
        cache.logits.resize(model.num_classes(), 0.0);
        cache.probs.resize(model.num_classes(), 0.0);
        dense_bias_softmax_into(
            model.w_out(),
            &cache.features,
            model.bias(),
            &mut cache.logits,
            &mut cache.probs,
        )?;
        cache.t_len = t_len;
        Ok(())
    }
}

/// Truncated backward pass (Eqs. 33–36) from a streaming cache — the
/// constant-memory counterpart of [`crate::backprop::backprop_into`] under
/// `BackpropMode::PAPER_TRUNCATED`, bitwise equal to it — writing
/// gradients and every intermediate into a reused [`BackpropWorkspace`]:
/// the same workspace type and the same backward body the standard
/// trainer uses, over a one-step window. On success `ws.grads` holds the
/// gradients; mask gradients are not available in streaming mode (they
/// would need the raw input window, which the paper's storage model does
/// not budget for).
///
/// Returns the loss.
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on internal shape mismatches; on error
/// the workspace contents are unspecified.
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn streaming_backprop_into<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    cache: &StreamingCache,
    target: &[f64],
    ws: &mut BackpropWorkspace,
) -> Result<f64, CoreError> {
    let tail = cache.tail_states();
    let (before, last) = tail.split_at(tail.len() / 2);
    let view = Trailing {
        before: (cache.t_len > 1).then_some(before),
        states: last,
        masked: &cache.masked,
        t_len: cache.t_len,
        features: &cache.features,
        probs: &cache.probs,
    };
    ws.grads.mask = None;
    backward_into(model, &view, target, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_reservoir::mask::Mask;
    use dfr_reservoir::modular::ModularDfr;
    use dfr_reservoir::nonlinearity::Tanh;

    fn model() -> DfrClassifier {
        let mut m = DfrClassifier::paper_default(5, 2, 3, 2).expect("model");
        m.reservoir_mut().set_params(0.15, 0.2).expect("params");
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(0, j)] = 0.03 * ((j % 9) as f64 - 4.0);
            m.w_out_mut()[(2, j)] = -0.02 * ((j % 4) as f64);
        }
        m
    }

    fn series(t: usize) -> Matrix {
        let data: Vec<f64> = (0..t * 2).map(|i| ((i as f64) * 0.53).sin()).collect();
        Matrix::from_vec(t, 2, data).expect("sized")
    }

    #[test]
    fn streaming_features_match_standard_forward() {
        let m = model();
        let u = series(12);
        let standard = m.forward(&u).expect("standard");
        let streaming = StreamingForward::paper().run(&m, &u).expect("streaming");
        assert_bitwise(&standard.features, &streaming.features);
        assert_bitwise(&standard.probs, &streaming.probs);
    }

    /// The module's promise: bit-identity, not closeness.
    fn assert_bitwise(want: &[f64], got: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{got:?} vs {want:?}");
    }

    #[test]
    fn streaming_stores_only_two_states() {
        let m = model();
        let u = series(40);
        let cache = StreamingForward::paper().run(&m, &u).expect("streaming");
        // The backward pass reads 2·N_x state values: Table 2's
        // "simplified" storage.
        assert_eq!(cache.tail_states().len(), 2 * 5);
    }

    #[test]
    fn streaming_gradients_match_reference_truncated() {
        use crate::backprop::{backprop, BackpropMode, BackpropOptions};
        let m = model();
        let d = [0.0, 1.0, 0.0];
        for t in [9usize, 5, 1] {
            let u = series(t);
            let cache = m.forward(&u).expect("forward");
            let options = BackpropOptions {
                mode: BackpropMode::PAPER_TRUNCATED,
                mask_gradient: false,
            };
            let (loss_ref, g_ref) = backprop(&m, &u, &cache, &d, &options).expect("reference");
            let streaming = StreamingForward::paper().run(&m, &u).expect("streaming");
            let mut bp = BackpropWorkspace::new();
            let loss_st =
                streaming_backprop_into(&m, &streaming, &d, &mut bp).expect("streaming bp");
            let g_st = bp.grads;
            assert_eq!(loss_st.to_bits(), loss_ref.to_bits(), "t={t}");
            assert_eq!(g_st.a.to_bits(), g_ref.a.to_bits(), "t={t}");
            assert_eq!(g_st.b.to_bits(), g_ref.b.to_bits(), "t={t}");
            assert_bitwise(g_ref.w_out.as_slice(), g_st.w_out.as_slice());
            assert_bitwise(&g_ref.bias, &g_st.bias);
        }
    }

    /// The kernel's ring still holds the final block on return: for every
    /// final-block length (T = 1..=9 covers 1–4 and T = 1's zero row) the
    /// tail is the stored history's last two rows and the masked row is
    /// the mask GEMM's last row, bit for bit.
    #[test]
    fn tail_is_the_stored_history_s_last_rows() {
        fn check<N: Nonlinearity + Clone>(m: &DfrClassifier<N>) {
            let nx = m.nodes();
            for t in 1..=9 {
                let u = series(t);
                let cache = StreamingForward::paper().run(m, &u).expect("streaming");
                let states = m.reservoir().run(&u).expect("run").states().clone();
                let x_prev = if t > 1 {
                    states.row(t - 2).to_vec()
                } else {
                    vec![0.0; nx]
                };
                let tail = cache.tail_states();
                assert_bitwise(&x_prev, &tail[..nx]);
                assert_bitwise(states.row(t - 1), &tail[nx..]);
                let masked = m.reservoir().mask().apply(&u);
                assert_bitwise(masked.row(t - 1), &cache.masked);
            }
        }
        check(&model());
        let tanh = ModularDfr::new(Mask::uniform(4, 2, 7), 0.6, 0.3, Tanh).expect("reservoir");
        check(&DfrClassifier::new(tanh, 2));
    }

    #[test]
    fn empty_series_is_typed_rejection() {
        let m = model();
        let err = StreamingForward::paper().run(&m, &series(0)).unwrap_err();
        assert!(
            matches!(err, CoreError::Reservoir(ReservoirError::EmptySeries)),
            "{err}"
        );
        // The `_into` form rejects identically, and a cache that held a
        // previous good result keeps working for the next sample.
        let mut cache = StreamingForward::paper().run(&m, &series(7)).unwrap();
        assert!(StreamingForward::paper()
            .run_into(&m, &series(0), &mut cache)
            .is_err());
        StreamingForward::paper()
            .run_into(&m, &series(7), &mut cache)
            .unwrap();
        assert_eq!(cache.t_len, 7);
    }

    #[test]
    fn single_step_series_is_served() {
        // t_len = 1 is the boundary the 0-row rejection must not move:
        // one step means one state row, features scaled by 1/1, and
        // bitwise agreement with the standard forward pass.
        let m = model();
        let u = series(1);
        let standard = m.forward(&u).expect("standard");
        let streaming = StreamingForward::paper().run(&m, &u).expect("streaming");
        assert_eq!(streaming.t_len, 1);
        assert_bitwise(&standard.features, &streaming.features);
        assert_bitwise(&standard.probs, &streaming.probs);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let m = model();
        let bad = Matrix::zeros(5, 3);
        assert!(StreamingForward::paper().run(&m, &bad).is_err());
    }

    #[test]
    fn divergence_detected() {
        let mut m = model();
        m.reservoir_mut().set_params(5.0, 5.0).expect("params");
        let big = Matrix::filled(200, 2, 1.0);
        let err = StreamingForward::paper().run(&m, &big).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Reservoir(ReservoirError::Diverged { .. })
        ));
    }
}
