//! The end-to-end DFR classifier: modular reservoir → DPRR → softmax readout.

use crate::CoreError;
use dfr_linalg::activation::{cross_entropy, dense_bias_softmax_into, softmax_in_place};
use dfr_linalg::Matrix;
use dfr_reservoir::mask::Mask;
use dfr_reservoir::modular::{ModularDfr, ReservoirRun};
use dfr_reservoir::nonlinearity::{Linear, Nonlinearity};
use dfr_reservoir::representation::Dprr;

/// A DFR classifier (paper Fig. 2 plus the output layer of §3.1):
/// modular reservoir, dot-product reservoir representation and a linear
/// readout with softmax/cross-entropy.
///
/// # Example
///
/// ```
/// use dfr_core::DfrClassifier;
/// use dfr_linalg::Matrix;
/// use dfr_reservoir::mask::Mask;
/// use dfr_reservoir::modular::ModularDfr;
///
/// # fn main() -> Result<(), dfr_core::CoreError> {
/// let reservoir = ModularDfr::linear(Mask::binary(10, 2, 0), 0.01, 0.01)?;
/// let model = DfrClassifier::new(reservoir, 3);
/// let series = Matrix::filled(15, 2, 0.3);
/// let cache = model.forward(&series)?;
/// assert_eq!(cache.probs.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DfrClassifier<N: Nonlinearity + Clone = Linear> {
    reservoir: ModularDfr<N>,
    /// Readout weights, `N_y × N_r`.
    w_out: Matrix,
    /// Readout bias, length `N_y`.
    bias: Vec<f64>,
}

/// Everything one forward pass produces, retained for backpropagation.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardCache {
    /// Reservoir state history and masked drive.
    pub run: ReservoirRun,
    /// DPRR features `r`, length `N_x (N_x + 1)`.
    pub features: Vec<f64>,
    /// Readout pre-activations `W_out·r + b`.
    pub logits: Vec<f64>,
    /// Softmax probabilities `y`.
    pub probs: Vec<f64>,
}

impl Default for ForwardCache {
    fn default() -> Self {
        ForwardCache::empty()
    }
}

impl ForwardCache {
    /// An empty cache — the seed value for the buffer-reusing forward
    /// passes ([`DfrClassifier::forward_into`],
    /// [`DfrClassifier::forward_masked_into`]). Every buffer grows to its
    /// workload high-water mark on first use and is recycled afterwards.
    pub fn empty() -> Self {
        ForwardCache {
            run: ReservoirRun::empty(),
            features: Vec::new(),
            logits: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Predicted class (argmax of the probabilities).
    pub fn prediction(&self) -> usize {
        dfr_linalg::stats::argmax(&self.probs).expect("at least one class")
    }

    /// Cross-entropy loss against a one-hot target (paper Eq. 15).
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the class count.
    pub fn loss(&self, target: &[f64]) -> f64 {
        cross_entropy(&self.probs, target)
    }
}

impl<N: Nonlinearity + Clone> DfrClassifier<N> {
    /// Creates a classifier with zero-initialised readout (the paper's
    /// initialisation: "the output parameters are initialized to zeros").
    pub fn new(reservoir: ModularDfr<N>, num_classes: usize) -> Self {
        let nr = Dprr.dim(reservoir.nodes());
        DfrClassifier {
            reservoir,
            w_out: Matrix::zeros(num_classes, nr),
            bias: vec![0.0; num_classes],
        }
    }

    /// The underlying reservoir.
    pub fn reservoir(&self) -> &ModularDfr<N> {
        &self.reservoir
    }

    /// Mutable reservoir access (used by the trainer to update `A`, `B`).
    pub fn reservoir_mut(&mut self) -> &mut ModularDfr<N> {
        &mut self.reservoir
    }

    /// Readout weights (`N_y × N_r`).
    pub fn w_out(&self) -> &Matrix {
        &self.w_out
    }

    /// Mutable readout weights.
    pub fn w_out_mut(&mut self) -> &mut Matrix {
        &mut self.w_out
    }

    /// Readout bias.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutable readout bias.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// Replaces the readout (used after ridge refitting).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if shapes do not match the
    /// classifier's feature and class dimensions.
    pub fn set_readout(&mut self, w_out: Matrix, bias: Vec<f64>) -> Result<(), CoreError> {
        if w_out.shape() != self.w_out.shape() || bias.len() != self.bias.len() {
            return Err(CoreError::InvalidConfig {
                field: "readout",
                detail: format!(
                    "expected {}x{} weights and {} biases, got {}x{} and {}",
                    self.w_out.rows(),
                    self.w_out.cols(),
                    self.bias.len(),
                    w_out.rows(),
                    w_out.cols(),
                    bias.len()
                ),
            });
        }
        self.w_out = w_out;
        self.bias = bias;
        Ok(())
    }

    /// Number of virtual nodes `N_x`.
    pub fn nodes(&self) -> usize {
        self.reservoir.nodes()
    }

    /// Number of classes `N_y`.
    pub fn num_classes(&self) -> usize {
        self.bias.len()
    }

    /// DPRR feature dimension `N_r = N_x (N_x + 1)`.
    pub fn feature_dim(&self) -> usize {
        Dprr.dim(self.nodes())
    }

    /// Full forward pass over a `T × C` series, retaining everything
    /// backpropagation needs.
    ///
    /// # Errors
    ///
    /// Propagates reservoir errors (channel mismatch, divergence).
    pub fn forward(&self, series: &Matrix) -> Result<ForwardCache, CoreError> {
        let mut cache = ForwardCache::empty();
        self.forward_into(series, &mut cache)?;
        Ok(cache)
    }

    /// [`DfrClassifier::forward`] writing into a caller-owned cache,
    /// recycling its reservoir-run, feature, logit and probability buffers
    /// — allocation-free once the buffers reach the longest series in the
    /// workload. Bitwise identical to [`DfrClassifier::forward`].
    ///
    /// On error the cache contents are unspecified; reuse it only after a
    /// later forward succeeds.
    ///
    /// # Errors
    ///
    /// Same as [`DfrClassifier::forward`].
    pub fn forward_into(&self, series: &Matrix, cache: &mut ForwardCache) -> Result<(), CoreError> {
        self.reservoir.run_into(series, &mut cache.run)?;
        self.finish_forward(cache)
    }

    /// Buffer-reusing forward pass from a cached masked drive — the
    /// trainer's per-sample fast path (the mask is fixed across epochs, so
    /// the masked inputs are computed once and this pass recycles one
    /// workspace cache for every sample of every epoch).
    ///
    /// # Errors
    ///
    /// Same as [`ModularDfr::run_masked`]
    /// ([`dfr_reservoir::ReservoirError::ChannelMismatch`] /
    /// [`dfr_reservoir::ReservoirError::Diverged`], wrapped in
    /// [`CoreError::Reservoir`]).
    pub fn forward_masked_into(
        &self,
        masked: &Matrix,
        cache: &mut ForwardCache,
    ) -> Result<(), CoreError> {
        self.reservoir.run_masked_into(masked, &mut cache.run)?;
        self.finish_forward(cache)
    }

    /// Forward pass from a pre-computed reservoir run (lets the trainer
    /// reuse masked inputs).
    ///
    /// The DPRR sums of paper Eqs. 18–19 are divided by the series length
    /// `T` before entering the readout. This is a pure per-sample rescaling
    /// — absorbed by `W_out` (and by the ridge refit), so the model class is
    /// unchanged — but it makes the feature scale, and therefore the
    /// paper's learning rate of 1.0, independent of `T` (which spans 28 to
    /// 1917 across the evaluation datasets).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Linalg`] on internal shape errors (unreachable
    /// for caches produced by this model).
    pub fn forward_from_run(&self, run: ReservoirRun) -> Result<ForwardCache, CoreError> {
        let mut cache = ForwardCache::empty();
        cache.run = run;
        self.finish_forward(&mut cache)?;
        Ok(cache)
    }

    /// DPRR + readout from `cache.run`, writing every product into the
    /// cache's reused buffers (the shared tail of all forward entry
    /// points).
    fn finish_forward(&self, cache: &mut ForwardCache) -> Result<(), CoreError> {
        let dim = Dprr.dim(cache.run.nodes());
        cache.features.resize(dim, 0.0);
        Dprr.features_into(cache.run.states(), &mut cache.features);
        let scale = 1.0 / (cache.run.len().max(1) as f64);
        for f in &mut cache.features {
            *f *= scale;
        }
        cache.logits.resize(self.num_classes(), 0.0);
        cache.probs.resize(self.num_classes(), 0.0);
        // Fused readout epilogue: one pass over W_out (lockstep matvec),
        // bias added in the epilogue, stable softmax — bitwise identical
        // to the separate matvec / bias-loop / softmax stages.
        dense_bias_softmax_into(
            &self.w_out,
            &cache.features,
            &self.bias,
            &mut cache.logits,
            &mut cache.probs,
        )?;
        Ok(())
    }

    /// Logits and probabilities for an externally computed feature vector
    /// (used by the ridge readout).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Linalg`] if `features.len() != feature_dim()`.
    pub fn classify_features(&self, features: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut logits = vec![0.0; self.num_classes()];
        self.w_out
            .matvec_bias_into(features, &self.bias, &mut logits)?;
        softmax_in_place(&mut logits);
        Ok(logits)
    }

    /// Predicted class for a series.
    ///
    /// Runs the stored-history forward pass ([`DfrClassifier::forward`]).
    /// The serving layer (`dfr-serve`) gets its features from the
    /// history-free kernel [`dfr_reservoir::lanes::dprr_lanes`] instead,
    /// which is pinned bitwise equal to this pass's `1/T`-scaled DPRR, and
    /// shares its fused readout epilogue — so a frozen copy of this model
    /// predicts **bitwise identically**, per sample or batched.
    ///
    /// # Errors
    ///
    /// Propagates reservoir errors.
    pub fn predict(&self, series: &Matrix) -> Result<usize, CoreError> {
        Ok(self.forward(series)?.prediction())
    }

    /// [`DfrClassifier::predict`] recycling a caller-owned cache — the
    /// allocation-free per-sample serving form (bitwise identical to
    /// [`DfrClassifier::predict`]). The probabilities stay readable in
    /// `cache.probs` after the call.
    ///
    /// # Errors
    ///
    /// Propagates reservoir errors; on error the cache contents are
    /// unspecified.
    pub fn predict_into(
        &self,
        series: &Matrix,
        cache: &mut ForwardCache,
    ) -> Result<usize, CoreError> {
        self.forward_into(series, cache)?;
        Ok(cache.prediction())
    }
}

impl DfrClassifier<Linear> {
    /// Rebuilds a linear-`f` classifier from exported parameters — the
    /// thaw half of the freeze/serve round trip (`dfr-serve` extracts
    /// `(mask, A, B, w_out, bias)` into a `FrozenModel` and this
    /// reconstructs an equivalent trainable classifier from them).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Reservoir`] for non-finite `a`/`b` and
    /// [`CoreError::InvalidConfig`] if `w_out`/`bias` do not match the
    /// `N_y × N_x (N_x + 1)` readout shape the mask implies.
    pub fn from_parts(
        mask: Matrix,
        a: f64,
        b: f64,
        w_out: Matrix,
        bias: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let reservoir = ModularDfr::linear(Mask::from_matrix(mask), a, b)?;
        let nr = Dprr.dim(reservoir.nodes());
        if w_out.cols() != nr || w_out.rows() != bias.len() {
            return Err(CoreError::InvalidConfig {
                field: "readout",
                detail: format!(
                    "expected {}x{nr} weights with matching bias, got {}x{} and {} biases",
                    bias.len(),
                    w_out.rows(),
                    w_out.cols(),
                    bias.len()
                ),
            });
        }
        Ok(DfrClassifier {
            reservoir,
            w_out,
            bias,
        })
    }

    /// Builds the paper's evaluation configuration: linear `f`, binary mask,
    /// `[A, B] = [0.01, 0.01]`, zero readout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Reservoir`] if parameters are rejected
    /// (they are constants here, so only on pathological `nodes = 0`).
    pub fn paper_default(
        nodes: usize,
        channels: usize,
        num_classes: usize,
        mask_seed: u64,
    ) -> Result<Self, CoreError> {
        let reservoir = ModularDfr::linear(Mask::binary(nodes, channels, mask_seed), 0.01, 0.01)?;
        Ok(DfrClassifier::new(reservoir, num_classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DfrClassifier {
        DfrClassifier::paper_default(4, 2, 3, 0).unwrap()
    }

    #[test]
    fn zero_readout_gives_uniform_probabilities() {
        let m = model();
        let cache = m.forward(&Matrix::filled(6, 2, 1.0)).unwrap();
        for &p in &cache.probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
        // Uniform probabilities → loss = ln(N_y).
        assert!((cache.loss(&[1.0, 0.0, 0.0]) - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn dimensions() {
        let m = model();
        assert_eq!(m.nodes(), 4);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.feature_dim(), 20);
        assert_eq!(m.w_out().shape(), (3, 20));
    }

    #[test]
    fn forward_cache_consistency() {
        let mut m = model();
        // Non-trivial readout.
        m.w_out_mut().as_mut_slice()[3] = 0.5;
        m.bias_mut()[1] = -0.2;
        let series = Matrix::filled(5, 2, 0.7);
        let cache = m.forward(&series).unwrap();
        assert_eq!(cache.features.len(), 20);
        // logits = W r + b, probs = softmax(logits).
        let expected_logit0 = 0.5 * cache.features[3];
        assert!((cache.logits[0] - expected_logit0).abs() < 1e-12);
        assert!((cache.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(
            cache.prediction(),
            dfr_linalg::stats::argmax(&cache.probs).unwrap()
        );
    }

    #[test]
    fn set_readout_validates_shape() {
        let mut m = model();
        assert!(m.set_readout(Matrix::zeros(3, 20), vec![0.0; 3]).is_ok());
        assert!(m.set_readout(Matrix::zeros(2, 20), vec![0.0; 3]).is_err());
        assert!(m.set_readout(Matrix::zeros(3, 19), vec![0.0; 3]).is_err());
        assert!(m.set_readout(Matrix::zeros(3, 20), vec![0.0; 2]).is_err());
    }

    #[test]
    fn classify_features_matches_forward() {
        let mut m = model();
        m.w_out_mut().as_mut_slice()[7] = 1.0;
        let series = Matrix::filled(5, 2, 0.4);
        let cache = m.forward(&series).unwrap();
        let probs = m.classify_features(&cache.features).unwrap();
        for (a, b) in probs.iter().zip(&cache.probs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_channel_mismatch_errors() {
        let m = model();
        assert!(m.predict(&Matrix::zeros(5, 3)).is_err());
    }

    #[test]
    fn predict_into_matches_predict() {
        let mut m = model();
        m.w_out_mut().as_mut_slice()[5] = 0.3;
        let mut cache = ForwardCache::empty();
        for t in [7usize, 3, 9] {
            let series = Matrix::filled(t, 2, 0.4);
            let via_into = m.predict_into(&series, &mut cache).unwrap();
            let owning = m.forward(&series).unwrap();
            assert_eq!(via_into, owning.prediction());
            assert_eq!(cache.probs, owning.probs);
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let mut m = model();
        m.reservoir_mut().set_params(0.07, 0.2).unwrap();
        m.w_out_mut().as_mut_slice()[11] = -0.4;
        m.bias_mut()[2] = 0.3;
        let rebuilt = DfrClassifier::from_parts(
            m.reservoir().mask().matrix().clone(),
            m.reservoir().a(),
            m.reservoir().b(),
            m.w_out().clone(),
            m.bias().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        // Shape mismatches are rejected.
        assert!(DfrClassifier::from_parts(
            m.reservoir().mask().matrix().clone(),
            0.1,
            0.1,
            Matrix::zeros(3, 19),
            vec![0.0; 3],
        )
        .is_err());
        assert!(DfrClassifier::from_parts(
            m.reservoir().mask().matrix().clone(),
            f64::NAN,
            0.1,
            Matrix::zeros(3, 20),
            vec![0.0; 3],
        )
        .is_err());
    }
}
