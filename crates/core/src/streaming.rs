//! Constant-memory forward pass for truncated training.
//!
//! The storage claim of the paper's Table 2 — `2·N_x` reservoir-state
//! values instead of `(T+1)·N_x` — is only realisable if the forward pass
//! itself avoids materialising the state history. This module provides that
//! pass: the DPRR accumulators are updated online while only the current
//! and previous reservoir-state rows are kept, plus the trailing window the
//! truncated backward pass needs (the paper's method keeps exactly the last
//! two states).
//!
//! [`StreamingForward::run`] is bit-identical to the standard
//! [`DfrClassifier::forward`] pipeline (tested), and
//! [`streaming_backprop`] consumes its output to produce exactly the
//! truncated gradients of Eqs. 33–36 — so a memory-constrained embedded
//! training loop never holds more than
//! `(W+1)·N_x + N_x(N_x+1) + N_y·(N_x(N_x+1)+1)` values, the paper's
//! "simplified" count for `W = 1`.

use crate::backprop::{backprop, BackpropMode, BackpropOptions, Gradients};
use crate::model::DfrClassifier;
use crate::workspace::BackpropWorkspace;
use crate::CoreError;
use dfr_linalg::activation::{softmax_cross_entropy_grad_into, softmax_into};
use dfr_linalg::Matrix;
use dfr_reservoir::modular::DIVERGENCE_LIMIT;
use dfr_reservoir::nonlinearity::Nonlinearity;
use dfr_reservoir::ReservoirError;

/// Output of a constant-memory forward pass: everything the truncated
/// backward pass (Eqs. 33–36) needs, and nothing more.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingCache {
    /// Normalized DPRR features (`N_x(N_x+1)`, scaled by `1/T`).
    pub features: Vec<f64>,
    /// Readout pre-activations.
    pub logits: Vec<f64>,
    /// Softmax probabilities.
    pub probs: Vec<f64>,
    /// The trailing reservoir states, oldest first: `window + 1` rows of
    /// `N_x` (for the paper's `window = 1`: `x(T−1)` and `x(T)`).
    pub tail_states: Matrix,
    /// The masked drive of the trailing `window` steps (`window × N_x`).
    pub tail_masked: Matrix,
    /// Series length `T`.
    pub t_len: usize,
    /// Rolling state `x(k−1)` scratch, reused across samples.
    prev: Vec<f64>,
    /// Rolling state `x(k)` scratch.
    current: Vec<f64>,
    /// Per-step masked drive `j(k)` scratch.
    j_row: Vec<f64>,
}

impl Default for StreamingCache {
    fn default() -> Self {
        StreamingCache::empty()
    }
}

impl StreamingCache {
    /// An empty cache — the seed value for [`StreamingForward::run_into`]
    /// buffer reuse.
    pub fn empty() -> Self {
        StreamingCache {
            features: Vec::new(),
            logits: Vec::new(),
            probs: Vec::new(),
            tail_states: Matrix::zeros(0, 0),
            tail_masked: Matrix::zeros(0, 0),
            t_len: 0,
            prev: Vec::new(),
            current: Vec::new(),
            j_row: Vec::new(),
        }
    }
    /// Number of stored reservoir-state values — the quantity Table 2
    /// counts as "simplified" storage.
    pub fn stored_state_values(&self) -> usize {
        self.tail_states.len()
    }

    /// Cross-entropy loss against a one-hot target.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the class count.
    pub fn loss(&self, target: &[f64]) -> f64 {
        dfr_linalg::activation::cross_entropy(&self.probs, target)
    }
}

/// A constant-memory forward pass bound to a classifier and a truncation
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingForward {
    window: usize,
}

impl StreamingForward {
    /// Creates a pass retaining the last `window` steps (the paper's
    /// truncated method is `window = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `window == 0`.
    pub fn new(window: usize) -> Result<Self, CoreError> {
        if window == 0 {
            return Err(CoreError::InvalidConfig {
                field: "window",
                detail: "streaming forward needs a window of at least 1".into(),
            });
        }
        Ok(StreamingForward { window })
    }

    /// The paper's configuration (`window = 1`).
    pub fn paper() -> Self {
        StreamingForward { window: 1 }
    }

    /// The retained window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs the reservoir + DPRR + readout over `series` holding at most
    /// `window + 1` state rows at any time.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Reservoir`] on channel mismatch or divergence.
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
    /// buffer (features, logits, trailing windows, rolling state scratch)
    /// is recycled across samples, so a streaming training loop is
    /// allocation-free after its first sample. Bitwise identical to
    /// [`StreamingForward::run`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamingForward::run`]; on error the cache contents are
    /// unspecified.
    pub fn run_into<N: Nonlinearity + Clone>(
        &self,
        model: &DfrClassifier<N>,
        series: &Matrix,
        cache: &mut StreamingCache,
    ) -> Result<(), CoreError> {
        let reservoir = model.reservoir();
        let nx = reservoir.nodes();
        if series.cols() != reservoir.mask().channels() {
            return Err(ReservoirError::ChannelMismatch {
                mask_channels: reservoir.mask().channels(),
                input_channels: series.cols(),
            }
            .into());
        }
        let t_len = series.rows();
        if t_len == 0 {
            // A 0-row series has no reservoir trajectory: the DPRR sums are
            // all zero and the 1/T normalisation is undefined, so the old
            // behaviour (silently emitting the bias-only prediction) hid
            // client bugs. Reject it with the same typed error the serving
            // feature kernel uses — the server maps it onto `BadInput`.
            return Err(ReservoirError::EmptySeries.into());
        }
        let a = reservoir.a();
        let b = reservoir.b();
        let f = reservoir.nonlinearity();
        let window = self.window.min(t_len);

        // DPRR accumulators live directly in the feature buffer (raw sums;
        // scaled by 1/T in place at the end).
        cache.features.resize(nx * (nx + 1), 0.0);
        cache.features.fill(0.0);
        let (products, sums) = cache.features.split_at_mut(nx * nx);
        // Rolling states: prev = x(k−1), current = x(k).
        cache.prev.resize(nx, 0.0);
        cache.prev.fill(0.0);
        cache.current.resize(nx, 0.0);
        cache.j_row.resize(nx, 0.0);
        // Trailing windows as fixed-size ring buffers: `pushes % rows` is
        // the write slot; a final in-place rotation restores chronological
        // order. No per-step allocation, no per-step row shifting.
        let state_rows = (t_len + 1).min(window + 1);
        cache.tail_states.resize(state_rows, nx);
        let masked_rows = t_len.min(window);
        cache.tail_masked.resize(masked_rows, nx);
        cache.tail_states.row_mut(0).fill(0.0); // x(0) = 0, before the series
        let mut state_pushes = 1usize;
        let mut masked_pushes = 0usize;

        let mut chain = 0.0; // s_{t−1} carried across rows
        for k in 0..t_len {
            // j(k) = M·u(k), computed row-wise (no T×N_x buffer).
            let u = series.row(k);
            for (n, jn) in cache.j_row.iter_mut().enumerate() {
                *jn = dfr_linalg::dot(reservoir.mask().matrix().row(n), u);
            }
            for n in 0..nx {
                let z = cache.j_row[n] + cache.prev[n];
                let s = a * f.eval(z) + b * chain;
                if !s.is_finite() || s.abs() > DIVERGENCE_LIMIT {
                    return Err(ReservoirError::Diverged { step: k }.into());
                }
                cache.current[n] = s;
                chain = s;
            }
            // DPRR update: products += x(k) ⊗ x(k−1); sums += x(k).
            for (i, &xi) in cache.current.iter().enumerate() {
                sums[i] += xi;
                if xi != 0.0 {
                    let row = &mut products[i * nx..(i + 1) * nx];
                    for (p, &xj) in row.iter_mut().zip(&cache.prev) {
                        *p += xi * xj;
                    }
                }
            }
            // Maintain the trailing windows.
            cache
                .tail_states
                .row_mut(state_pushes % state_rows)
                .copy_from_slice(&cache.current);
            state_pushes += 1;
            if masked_rows > 0 {
                cache
                    .tail_masked
                    .row_mut(masked_pushes % masked_rows)
                    .copy_from_slice(&cache.j_row);
                masked_pushes += 1;
            }
            std::mem::swap(&mut cache.prev, &mut cache.current);
        }
        // Unroll the rings: the oldest retained row sits at `pushes % rows`
        // once the ring has wrapped.
        if state_pushes > state_rows {
            let offset = state_pushes % state_rows;
            cache.tail_states.as_mut_slice().rotate_left(offset * nx);
        }
        if masked_rows > 0 && masked_pushes > masked_rows {
            let offset = masked_pushes % masked_rows;
            cache.tail_masked.as_mut_slice().rotate_left(offset * nx);
        }

        // Scale features by 1/T in place and run the readout.
        let scale = 1.0 / (t_len as f64);
        for v in &mut cache.features {
            *v *= scale;
        }
        cache.logits.resize(model.num_classes(), 0.0);
        model
            .w_out()
            .matvec_into(&cache.features, &mut cache.logits)?;
        for (l, bias) in cache.logits.iter_mut().zip(model.bias()) {
            *l += bias;
        }
        cache.probs.resize(model.num_classes(), 0.0);
        softmax_into(&cache.logits, &mut cache.probs);
        cache.t_len = t_len;
        Ok(())
    }
}

/// Truncated backward pass (Eqs. 33–36) from a streaming cache — the
/// constant-memory counterpart of [`crate::backprop::backprop`].
///
/// Returns `(loss, gradients)`; mask gradients are not available in
/// streaming mode (they would need the raw input window, which the paper's
/// storage model does not budget for).
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on internal shape mismatches.
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn streaming_backprop<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    cache: &StreamingCache,
    target: &[f64],
) -> Result<(f64, Gradients), CoreError> {
    let mut ws = BackpropWorkspace::new();
    let loss = streaming_backprop_into(model, cache, target, &mut ws)?;
    Ok((loss, ws.into_gradients()))
}

/// [`streaming_backprop`] writing gradients and every intermediate into a
/// reused [`BackpropWorkspace`] — the same workspace type the standard
/// trainer uses, so an embedded streaming loop shares one scratch set for
/// both passes. On success `ws.grads` holds the gradients; results are
/// bitwise identical to [`streaming_backprop`].
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
    assert_eq!(
        target.len(),
        model.num_classes(),
        "target length must equal the class count"
    );
    let loss = cache.loss(target);
    let nx = model.nodes();
    let ny = model.num_classes();
    let nr = model.feature_dim();
    let window = cache.tail_masked.rows();
    ws.g.resize(ny, 0.0);
    softmax_cross_entropy_grad_into(&cache.probs, target, &mut ws.g);
    ws.grads.bias.resize(ny, 0.0);
    ws.grads.bias.copy_from_slice(&ws.g);
    ws.grads.mask = None;
    ws.grads.w_out.resize(ny, nr);
    ws.grads.w_out.fill_zero();
    for (c, &gc) in ws.g.iter().enumerate() {
        if gc == 0.0 {
            continue;
        }
        let row = ws.grads.w_out.row_mut(c);
        for (w, &r) in row.iter_mut().zip(&cache.features) {
            *w = gc * r;
        }
    }
    ws.dr.resize(nr, 0.0);
    model.w_out().t_matvec_into(&ws.g, &mut ws.dr)?;
    let scale = 1.0 / (cache.t_len.max(1) as f64);
    for d in &mut ws.dr {
        *d *= scale;
    }
    ws.grads.a = 0.0;
    ws.grads.b = 0.0;
    if cache.t_len == 0 || window == 0 {
        return Ok(loss);
    }
    ws.dr_products.resize(nx, nx);
    ws.dr_products
        .as_mut_slice()
        .copy_from_slice(&ws.dr[..nx * nx]);
    let dr_sums = &ws.dr[nx * nx..];

    let a = model.reservoir().a();
    let b = model.reservoir().b();
    let f = model.reservoir().nonlinearity();
    // Tail layout: tail_states row r is x(T − window + r − 1 + 1)… i.e. the
    // oldest retained state is x(T − window) at row 0; tail_masked row r is
    // j(T − window + r + 1) in 1-based terms. Global step of tail row r:
    // k = t_len − window + r (0-based).
    let rows = window;
    ws.bpv.resize(rows, nx);
    ws.bpv.fill_zero();
    ws.term.resize(nx, 0.0);
    for r in 0..rows {
        let k = cache.t_len - window + r;
        // x(k−1) is tail_states row r (one row before x(k) at row r+1).
        let x_prev = cache.tail_states.row(r);
        ws.dr_products.matvec_into(x_prev, &mut ws.term)?;
        ws.bpv.row_mut(r).copy_from_slice(&ws.term);
        if k + 1 < cache.t_len {
            let x_next = cache.tail_states.row(r + 2);
            ws.dr_products.t_matvec_into(x_next, &mut ws.term)?;
            for (o, &t2) in ws.bpv.row_mut(r).iter_mut().zip(&ws.term) {
                *o += t2;
            }
        }
        for (o, &s) in ws.bpv.row_mut(r).iter_mut().zip(dr_sums) {
            *o += s;
        }
    }
    ws.ds.resize(rows, nx);
    ws.ds.fill_zero();
    let mut a_grad = 0.0;
    let mut b_grad = 0.0;
    for r in (0..rows).rev() {
        let k = cache.t_len - window + r;
        for n in (0..nx).rev() {
            let mut d = ws.bpv[(r, n)];
            if n + 1 < nx {
                d += b * ws.ds[(r, n + 1)];
            } else if k + 1 < cache.t_len {
                d += b * ws.ds[(r + 1, 0)];
            }
            if k + 1 < cache.t_len {
                let z_next = cache.tail_masked[(r + 1, n)] + cache.tail_states[(r + 1, n)];
                d += a * f.derivative(z_next) * ws.ds[(r + 1, n)];
            }
            ws.ds[(r, n)] = d;
            let z = cache.tail_masked[(r, n)] + cache.tail_states[(r, n)];
            a_grad += f.eval(z) * d;
            // Chain predecessor: previous node of x(k), wrapping to the last
            // node of x(k−1) (tail row r).
            let chain_prev = if n > 0 {
                cache.tail_states[(r + 1, n - 1)]
            } else {
                cache.tail_states[(r, nx - 1)]
            };
            b_grad += chain_prev * d;
        }
    }
    ws.grads.a = a_grad;
    ws.grads.b = b_grad;
    Ok(loss)
}

/// Convenience: the standard (history-materialising) truncated backprop for
/// comparison in tests and benches.
pub fn reference_truncated<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    series: &Matrix,
    target: &[f64],
    window: usize,
) -> Result<(f64, Gradients), CoreError> {
    let cache = model.forward(series)?;
    backprop(
        model,
        series,
        &cache,
        target,
        &BackpropOptions {
            mode: BackpropMode::Truncated { window },
            mask_gradient: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn streaming_stores_only_window_plus_one_states() {
        let m = model();
        let u = series(40);
        let cache = StreamingForward::paper().run(&m, &u).expect("streaming");
        assert_eq!(cache.stored_state_values(), 2 * 5); // 2·N_x, Table 2
        let wide = StreamingForward::new(4).unwrap().run(&m, &u).expect("w=4");
        assert_eq!(wide.stored_state_values(), 5 * 5); // (W+1)·N_x
    }

    #[test]
    fn streaming_gradients_match_reference_truncated() {
        let m = model();
        for (t, window) in [(9usize, 1usize), (9, 3), (5, 5), (1, 1)] {
            let u = series(t);
            let d = [0.0, 1.0, 0.0];
            let (loss_ref, g_ref) = reference_truncated(&m, &u, &d, window).expect("reference");
            let cache = StreamingForward::new(window)
                .unwrap()
                .run(&m, &u)
                .expect("streaming");
            let (loss_st, g_st) = streaming_backprop(&m, &cache, &d).expect("streaming bp");
            assert!((loss_ref - loss_st).abs() < 1e-12, "t={t} w={window}");
            assert!(
                (g_ref.a - g_st.a).abs() < 1e-10,
                "t={t} w={window}: dA {} vs {}",
                g_ref.a,
                g_st.a
            );
            assert!(
                (g_ref.b - g_st.b).abs() < 1e-10,
                "t={t} w={window}: dB {} vs {}",
                g_ref.b,
                g_st.b
            );
            for (a, b) in g_ref.w_out.as_slice().iter().zip(g_st.w_out.as_slice()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_window_rejected() {
        assert!(StreamingForward::new(0).is_err());
        assert!(StreamingForward::new(1).is_ok());
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
