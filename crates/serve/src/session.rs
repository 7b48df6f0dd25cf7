//! The unified serving surface: a builder-constructed session that owns
//! every workspace the hot path needs.
//!
//! Before this module, serving meant free functions with caller-threaded
//! scratch (`predict_batch_into` + a `ServeState`, `predict_one` + a
//! `ServeWorkspace`). [`ServeSession`] folds that plumbing into one
//! object: the model (shared, so a registry can hot-swap it), the
//! [`BatchPlan`], an optional pinned pool width, and the per-band
//! workspaces — callers just hand it series and read results.

use crate::batch::{BatchPlan, ServeState, ServeWorkspace};
use crate::{FrozenModel, ServeError};
use dfr_linalg::Matrix;
use std::sync::Arc;

/// Configures and constructs a [`ServeSession`].
///
/// # Example
///
/// ```
/// use dfr_core::DfrClassifier;
/// use dfr_serve::{BatchPlan, FrozenModel, ServeSession};
///
/// # fn main() -> Result<(), dfr_serve::ServeError> {
/// let model = DfrClassifier::paper_default(6, 2, 3, 0).unwrap();
/// let mut session = ServeSession::builder(FrozenModel::freeze(&model))
///     .batch_plan(BatchPlan::new(32))
///     .threads(1)
///     .build();
/// let series = dfr_linalg::Matrix::filled(10, 2, 0.1);
/// let result = session.predict_batch(std::slice::from_ref(&series))?;
/// assert_eq!(result.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeSessionBuilder {
    model: Arc<FrozenModel>,
    plan: BatchPlan,
    threads: Option<usize>,
}

impl ServeSessionBuilder {
    /// Starts a builder serving `model` (the session takes sole ownership;
    /// use [`ServeSessionBuilder::shared`] when a registry keeps the model
    /// alive for hot-swapping).
    pub fn new(model: FrozenModel) -> Self {
        ServeSessionBuilder::shared(Arc::new(model))
    }

    /// Starts a builder serving an already-shared model.
    pub fn shared(model: Arc<FrozenModel>) -> Self {
        ServeSessionBuilder {
            model,
            plan: BatchPlan::default(),
            threads: None,
        }
    }

    /// Uses `plan` to group batch calls (default: [`BatchPlan::default`],
    /// max 64 samples per group).
    pub fn batch_plan(mut self, plan: BatchPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Shorthand for [`batch_plan`](ServeSessionBuilder::batch_plan) with
    /// `BatchPlan::new(max_batch)`.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.plan = BatchPlan::new(max_batch);
        self
    }

    /// Pins the pool fan-out width of this session's predict calls to
    /// exactly `threads` workers. Without this the session inherits the
    /// ambient [`dfr_pool`] sizing (`DFR_THREADS`, then available cores).
    /// Results are bit-identical either way; this controls resources, not
    /// arithmetic.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the session. Workspaces start empty and grow to the
    /// workload's high-water mark on first use.
    pub fn build(self) -> ServeSession {
        ServeSession {
            model: self.model,
            plan: self.plan,
            threads: self.threads,
            state: ServeState::new(),
            one: ServeWorkspace::new(),
        }
    }
}

/// One serving loop's session: the frozen model, the batch plan, and every
/// workspace the zero-allocation hot path needs, owned in one place.
///
/// Construct with [`ServeSession::builder`]. The session is the **only**
/// public serving surface: both entry points reuse the session's internal
/// buffers, so a warm session allocates nothing per call (pinned by the
/// `count-allocs` regression in `dfr-bench`), and both are **bitwise
/// identical** to the training-side per-sample
/// [`DfrClassifier::predict`](dfr_core::DfrClassifier::predict) at every
/// thread count and batch size (`DESIGN.md` §11).
///
/// The model is held behind an [`Arc`] so a registry can share it with
/// the session without copying parameters.
#[derive(Debug, Clone)]
pub struct ServeSession {
    model: Arc<FrozenModel>,
    plan: BatchPlan,
    threads: Option<usize>,
    state: ServeState,
    one: ServeWorkspace,
}

impl ServeSession {
    /// Starts building a session around `model`.
    pub fn builder(model: FrozenModel) -> ServeSessionBuilder {
        ServeSessionBuilder::new(model)
    }

    /// The model currently served.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Content digest of the model currently served — what response
    /// metadata should carry so clients can pin a version.
    pub fn digest(&self) -> u64 {
        self.model.content_digest()
    }

    /// The batch plan grouping [`ServeSession::predict_batch`] calls.
    pub fn plan(&self) -> &BatchPlan {
        &self.plan
    }

    /// The pinned pool width, if one was configured.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Discards and rebuilds the session's reusable workspaces.
    ///
    /// Predictions are pure functions of (model, input) and the
    /// workspaces are fully overwritten per call, so this never changes
    /// results — its purpose is recovery: after a panic unwinds out of a
    /// serve (`dfr-server` catches it), the buffers may hold a
    /// half-written state, and resetting restores the freshly-built
    /// invariant without rebuilding the session or touching the model.
    pub fn reset(&mut self) {
        self.state = ServeState::new();
        self.one = ServeWorkspace::new();
    }

    /// Predicts a whole batch of series, in input order.
    ///
    /// Groups the input per the session's [`BatchPlan`], fans the
    /// per-sample half out over [`dfr_pool`] (at the session's pinned
    /// width, if any) and runs one GEMM readout epilogue per group.
    /// Returns a [`BatchResult`] view over the session's result buffers —
    /// valid until the next predict call.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sample`] carrying the **lowest** failing sample index,
    /// independent of thread scheduling. On error the session's result
    /// buffers are unspecified (the session itself stays usable).
    pub fn predict_batch(&mut self, series: &[Matrix]) -> Result<BatchResult<'_>, ServeError> {
        let ServeSession {
            model,
            plan,
            threads,
            state,
            ..
        } = self;
        dfr_pool::with_threads_opt(*threads, || model.predict_batch_into(series, plan, state))?;
        // Output-side half of the non-finite quarantine (`DESIGN.md` §15):
        // model parameters and server ingress are both vetted, so a
        // non-finite probability here means a serving-path bug — catch it
        // at the source in debug builds instead of shipping NaN to a
        // client.
        debug_assert!(
            state
                .probabilities()
                .as_slice()
                .iter()
                .all(|p| p.is_finite()),
            "predict_batch produced a non-finite probability"
        );
        Ok(BatchResult {
            digest: model.content_digest(),
            state,
        })
    }

    /// Predicts a single series — the request-at-a-time form, bitwise
    /// identical to [`ServeSession::predict_batch`] of a one-element
    /// batch. Returns a [`Prediction`] view valid until the next predict
    /// call.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sample`] (index 0) on channel mismatch or reservoir
    /// divergence.
    pub fn predict_one(&mut self, series: &Matrix) -> Result<Prediction<'_>, ServeError> {
        let ServeSession {
            model,
            threads,
            one,
            ..
        } = self;
        let class = dfr_pool::with_threads_opt(*threads, || model.predict_one(series, one))?;
        debug_assert!(
            one.probs().iter().all(|p| p.is_finite()),
            "predict_one produced a non-finite probability"
        );
        Ok(Prediction {
            class,
            probabilities: one.probs(),
            digest: model.content_digest(),
        })
    }
}

/// Result view of one [`ServeSession::predict_batch`] call, borrowing the
/// session's buffers.
///
/// **Row-ordering contract:** element `i` of [`predictions`] and row `i`
/// of [`probabilities`] belong to input sample `i` — plain input order,
/// with no grouping artifacts. This holds for every [`BatchPlan`],
/// including ragged final groups and the small-group case where the
/// epilogue switches from the batched GEMM to the per-sample matvec
/// (below 8 rows): the group epilogues write *group-local* rows which are
/// then copied to the sample's *global* row. Verified and pinned by the
/// `ragged_final_groups_keep_input_order` property test.
///
/// [`predictions`]: BatchResult::predictions
/// [`probabilities`]: BatchResult::probabilities
#[derive(Debug)]
pub struct BatchResult<'s> {
    digest: u64,
    state: &'s ServeState,
}

impl BatchResult<'_> {
    /// Number of samples served by the call.
    pub fn len(&self) -> usize {
        self.state.predictions().len()
    }

    /// Whether the call carried no samples.
    pub fn is_empty(&self) -> bool {
        self.state.predictions().is_empty()
    }

    /// Predicted class per sample, in input order.
    pub fn predictions(&self) -> &[usize] {
        self.state.predictions()
    }

    /// Class probabilities, one row per sample (`n × N_y`), in input
    /// order (see the row-ordering contract in the type docs).
    pub fn probabilities(&self) -> &Matrix {
        self.state.probabilities()
    }

    /// Probability row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn probabilities_of(&self, i: usize) -> &[f64] {
        self.state.probabilities().row(i)
    }

    /// Content digest of the model that served the call.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Result view of one [`ServeSession::predict_one`] call.
#[derive(Debug)]
pub struct Prediction<'s> {
    class: usize,
    probabilities: &'s [f64],
    digest: u64,
}

impl Prediction<'_> {
    /// The predicted class.
    pub fn class(&self) -> usize {
        self.class
    }

    /// Class probabilities (length `N_y`).
    pub fn probabilities(&self) -> &[f64] {
        self.probabilities
    }

    /// Content digest of the model that served the call.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_core::DfrClassifier;

    fn model() -> DfrClassifier {
        let mut m = DfrClassifier::paper_default(6, 2, 3, 5).unwrap();
        m.reservoir_mut().set_params(0.06, 0.17).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(j % 3, j)] = 0.02 * (((j * 3 + 1) % 15) as f64 - 7.0);
        }
        m.bias_mut().copy_from_slice(&[0.04, -0.1, 0.02]);
        m
    }

    fn workload(n: usize) -> Vec<Matrix> {
        (0..n)
            .map(|i| {
                let t = 2 + (i * 9) % 21;
                Matrix::from_vec(
                    t,
                    2,
                    (0..t * 2)
                        .map(|k| ((k + 3 * i) as f64 * 0.31).sin())
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    }

    /// The redesigned surface is the old path, bit for bit: pins
    /// `ServeSession::predict_batch` against the raw
    /// `predict_batch_into` + caller-threaded `ServeState` it replaced
    /// (kept crate-private underneath), so the migration is invisible in
    /// the results.
    #[test]
    fn session_matches_the_raw_workspace_threading_path_bitwise() {
        let frozen = FrozenModel::freeze(&model());
        let series = workload(23);
        for max_batch in [1usize, 5, 64] {
            let plan = BatchPlan::new(max_batch);
            let mut old_state = ServeState::new();
            frozen
                .predict_batch_into(&series, &plan, &mut old_state)
                .unwrap();
            let mut session = ServeSession::builder(frozen.clone())
                .batch_plan(plan)
                .build();
            let result = session.predict_batch(&series).unwrap();
            assert_eq!(result.predictions(), old_state.predictions());
            assert_eq!(result.len(), series.len());
            for i in 0..series.len() {
                for j in 0..3 {
                    assert_eq!(
                        result.probabilities()[(i, j)].to_bits(),
                        old_state.probabilities()[(i, j)].to_bits(),
                        "max_batch={max_batch} sample {i} class {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_one_matches_batch_and_reports_digest() {
        let frozen = FrozenModel::freeze(&model());
        let digest = frozen.content_digest();
        let series = workload(7);
        let mut session = ServeSession::builder(frozen).build();
        let (batch_preds, batch_prob_bits): (Vec<usize>, Vec<Vec<u64>>) = {
            let batch = session.predict_batch(&series).unwrap();
            assert_eq!(batch.digest(), digest);
            (
                batch.predictions().to_vec(),
                (0..batch.len())
                    .map(|i| {
                        batch
                            .probabilities_of(i)
                            .iter()
                            .map(|p| p.to_bits())
                            .collect()
                    })
                    .collect(),
            )
        };
        for (i, s) in series.iter().enumerate() {
            let one = session.predict_one(s).unwrap();
            assert_eq!(one.class(), batch_preds[i], "sample {i}");
            assert_eq!(one.digest(), digest);
            let bits: Vec<u64> = one.probabilities().iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits, batch_prob_bits[i], "sample {i}");
        }
    }

    #[test]
    fn builder_options_are_recorded() {
        let frozen = FrozenModel::freeze(&model());
        let session = ServeSession::builder(frozen.clone())
            .max_batch(17)
            .threads(2)
            .build();
        assert_eq!(session.plan().max_batch(), 17);
        assert_eq!(session.threads(), Some(2));
        assert_eq!(session.digest(), frozen.content_digest());
        let ambient = ServeSessionBuilder::shared(Arc::new(frozen)).build();
        assert_eq!(ambient.threads(), None);
        assert_eq!(ambient.plan(), &BatchPlan::default());
    }

    #[test]
    fn session_error_reports_lowest_failing_sample_and_stays_usable() {
        let frozen = FrozenModel::freeze(&model());
        let mut series = workload(8);
        series[5] = Matrix::zeros(3, 4); // wrong channel count
        series[2] = Matrix::zeros(3, 4);
        let mut session = ServeSession::builder(frozen).max_batch(3).build();
        match session.predict_batch(&series).unwrap_err() {
            ServeError::Sample { index, .. } => assert_eq!(index, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let ok = workload(4);
        assert_eq!(session.predict_batch(&ok).unwrap().len(), 4);
    }
}
