//! The paper's training protocol (§4).
//!
//! 1. Initialise `[A, B] = [0.01, 0.01]`, readout = 0.
//! 2. 25 epochs of per-sample SGD through the full pipeline, reservoir
//!    learning rate 1 decayed ×0.1 at epochs 5/10/15/20, output rate 1
//!    decayed ×0.1 at 10/15/20, using truncated backpropagation.
//! 3. Refit the readout by ridge regression, choosing
//!    `β ∈ {10⁻⁶, 10⁻⁴, 10⁻², 1}` by training loss.
//!
//! [`train`] runs the whole pipeline on a [`Dataset`] and reports per-epoch
//! statistics, the selected β, accuracies and wall-clock timings (the raw
//! material of the paper's Table 1 "bp" columns).

use crate::backprop::{backprop_into, BackpropMode, BackpropOptions};
use crate::model::{DfrClassifier, ForwardCache};
use crate::optimizer::{ParamBounds, Schedule, Sgd};
use crate::readout::{fit_readout_with, readout_accuracy_with, PAPER_BETAS};
use crate::workspace::TrainWorkspace;
use crate::{metrics, CoreError};
use dfr_data::Dataset;
use dfr_linalg::kernels::{self, LaneBody};
use dfr_linalg::Matrix;
use dfr_reservoir::lanes::{dprr_lanes, LaneScratch};
use dfr_reservoir::nonlinearity::Nonlinearity;
use dfr_reservoir::{ModularDfr, ReservoirError};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Options for [`train`]; [`TrainOptions::paper`] reproduces §4 exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Virtual nodes `N_x` (paper: 30).
    pub nodes: usize,
    /// Seed of the fixed binary input mask.
    pub mask_seed: u64,
    /// SGD epochs (paper: 25).
    pub epochs: usize,
    /// Initial `[A, B]` (paper: `[0.01, 0.01]`).
    pub init: (f64, f64),
    /// Reservoir-parameter learning-rate schedule.
    pub reservoir_schedule: Schedule,
    /// Output-parameter learning-rate schedule.
    pub output_schedule: Schedule,
    /// Backpropagation variant (paper: truncated, window 1).
    pub mode: BackpropMode,
    /// Also train the mask by gradient descent (extension; paper: false).
    pub train_mask: bool,
    /// Multiplier on the reservoir learning rate for mask updates. Mask
    /// gradients aggregate over all `T · N_x` node updates, so they are far
    /// larger than the `A`/`B` gradients; the paper's reservoir rate of 1.0
    /// would blow the mask up immediately.
    pub mask_lr_scale: f64,
    /// Projection box for trained mask entries. For a linear `f` the mask
    /// scale is redundant with `A`, so bounding it loses no expressivity
    /// while preventing the mask/readout feedback loop from running away.
    pub mask_bounds: (f64, f64),
    /// Ridge β candidates for the final readout.
    pub betas: Vec<f64>,
    /// Projection box for `(A, B)` (defaults to the paper's grid ranges).
    pub bounds: ParamBounds,
    /// Epoch-shuffle seed.
    pub shuffle_seed: u64,
    /// Optional max-abs gradient clip (numerical safeguard; paper: none).
    pub grad_clip: Option<f64>,
}

impl TrainOptions {
    /// The paper's exact §4 configuration.
    pub fn paper() -> Self {
        TrainOptions {
            nodes: 30,
            mask_seed: 0,
            epochs: 25,
            init: (0.01, 0.01),
            reservoir_schedule: Schedule::paper_reservoir(),
            output_schedule: Schedule::paper_output(),
            mode: BackpropMode::PAPER_TRUNCATED,
            train_mask: false,
            mask_lr_scale: 0.01,
            mask_bounds: (-4.0, 4.0),
            betas: PAPER_BETAS.to_vec(),
            bounds: ParamBounds::default(),
            shuffle_seed: 1,
            grad_clip: None,
        }
    }

    /// The paper's protocol with learning rates calibrated to this
    /// repository's synthetic datasets (reservoir 0.03, output 0.1, same
    /// ×0.1 decay points as the paper).
    ///
    /// The paper's literal rate of 1.0 presumes the feature scale of its
    /// (unpublished) data preparation; on the standardized synthetic
    /// stand-ins used here it destabilises the per-sample readout updates
    /// (the stability threshold of per-sample gradient descent is
    /// `lr < 2/‖r‖²`, and the normalized DPRR features have `‖r‖² ≫ 2`).
    /// Every structural element — initialisation, epoch count, decay
    /// schedule shape, truncated backpropagation, β selection — is the
    /// paper's. This is the configuration the benchmark harness uses.
    pub fn calibrated() -> Self {
        TrainOptions {
            reservoir_schedule: Schedule::step_decay(0.03, &[5, 10, 15, 20], 0.1),
            output_schedule: Schedule::step_decay(0.1, &[10, 15, 20], 0.1),
            ..TrainOptions::paper()
        }
    }

    /// A small/fast configuration for doctests and smoke tests.
    pub fn fast_demo() -> Self {
        TrainOptions {
            nodes: 8,
            epochs: 6,
            ..TrainOptions::calibrated()
        }
    }
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions::paper()
    }
}

/// Statistics of one SGD epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean per-sample training loss during the epoch.
    pub mean_loss: f64,
    /// Reservoir gain after the epoch.
    pub a: f64,
    /// Reservoir leak after the epoch.
    pub b: f64,
    /// Learning rates used.
    pub lr_reservoir: f64,
    /// Output learning rate used.
    pub lr_output: f64,
}

/// Everything [`train`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// The trained classifier (reservoir params from SGD, readout from ridge).
    pub model: DfrClassifier,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// β selected for the final readout.
    pub beta: f64,
    /// Mean training cross-entropy with the final readout.
    pub train_loss: f64,
    /// Accuracy on the training split.
    pub train_accuracy: f64,
    /// Accuracy on the test split.
    pub test_accuracy: f64,
    /// Wall-clock seconds spent in the SGD phase.
    pub sgd_seconds: f64,
    /// Wall-clock seconds spent in the ridge phase.
    pub ridge_seconds: f64,
}

impl TrainReport {
    /// Total optimization wall-clock (SGD + ridge), the paper's "bp time".
    pub fn total_seconds(&self) -> f64 {
        self.sgd_seconds + self.ridge_seconds
    }
}

/// Trains a DFR classifier on a dataset with the paper's protocol.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] for empty datasets, zero epochs or nodes.
/// * [`CoreError::Reservoir`] / [`CoreError::Linalg`] on unrecoverable
///   numerical failures (recoverable divergence during SGD is handled by
///   shrinking `(A, B)` back toward the stable region).
///
/// # Example
///
/// ```
/// use dfr_core::trainer::{train, TrainOptions};
/// use dfr_data::DatasetSpec;
///
/// # fn main() -> Result<(), dfr_core::CoreError> {
/// let mut ds = DatasetSpec::new("trainer-doc", 2, 24, 1, 12, 12, 0.3).build(0);
/// dfr_data::normalize::standardize(&mut ds);
/// let report = train(&ds, &TrainOptions::fast_demo())?;
/// assert_eq!(report.epochs.len(), 6);
/// # Ok(())
/// # }
/// ```
pub fn train(ds: &Dataset, options: &TrainOptions) -> Result<TrainReport, CoreError> {
    validate(ds, options)?;
    let mut model = DfrClassifier::paper_default(
        options.nodes,
        ds.channels(),
        ds.num_classes(),
        options.mask_seed,
    )?;
    model
        .reservoir_mut()
        .set_params(options.init.0, options.init.1)?;

    // The mask is fixed (unless the mask-training extension is on), so the
    // masked drive of every training sample can be computed once.
    let mut masked: Vec<Matrix> = ds
        .train()
        .iter()
        .map(|s| model.reservoir().mask().apply(&s.series))
        .collect();
    let targets = ds.one_hot_train();

    let bp_options = BackpropOptions {
        mode: options.mode,
        mask_gradient: options.train_mask,
    };
    let initial_mask = model.reservoir().mask().matrix().clone();
    let mut sgd = Sgd::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.shuffle_seed);
    let mut order: Vec<usize> = (0..ds.train().len()).collect();
    let mut epochs = Vec::with_capacity(options.epochs);

    // One workspace serves the whole run: every per-sample forward cache,
    // backprop scratch and gradient buffer is recycled across samples and
    // epochs (allocation-free after the first sample of the longest
    // series — see DESIGN.md §9).
    let mut ws = TrainWorkspace::new();
    let sgd_start = Instant::now();
    for epoch in 0..options.epochs {
        let lr_res = options.reservoir_schedule.lr(epoch);
        let lr_out = options.output_schedule.lr(epoch);
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let sample = &ds.train()[i];
            match model.forward_masked_into(&masked[i], &mut ws.cache) {
                Ok(()) => {}
                Err(CoreError::Reservoir(dfr_reservoir::ReservoirError::Diverged { .. })) => {
                    // SGD stepped into the unstable region; pull (A, B) — and
                    // the mask, if it is being trained — back toward the
                    // initial point and skip this sample.
                    recover_params(&mut model, options, &initial_mask)?;
                    if options.train_mask {
                        for (j, s) in ds.train().iter().enumerate() {
                            masked[j] = model.reservoir().mask().apply(&s.series);
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            let TrainWorkspace { cache, bp, .. } = &mut ws;
            let loss = backprop_into(
                &model,
                &sample.series,
                cache,
                targets.row(i),
                &bp_options,
                bp,
            )?;
            loss_sum += loss;
            let grads = &mut bp.grads;
            if !grads.is_finite() {
                recover_params(&mut model, options, &initial_mask)?;
                continue;
            }
            if let Some(clip) = options.grad_clip {
                let m = grads.max_abs();
                if m > clip {
                    grads.scale(clip / m);
                }
            }
            sgd.step(&mut model, grads, lr_res, lr_out, &options.bounds)?;
            if options.train_mask {
                if let Some(mg) = &grads.mask {
                    let mask = model.reservoir_mut().mask_mut().matrix_mut();
                    mask.axpy(-lr_res * options.mask_lr_scale, mg)?;
                    let (lo, hi) = options.mask_bounds;
                    for m in mask.as_mut_slice() {
                        *m = m.clamp(lo, hi);
                    }
                    // Mask changed → the cached drive for this sample (and all
                    // others) is stale; recompute lazily below.
                    for (j, s) in ds.train().iter().enumerate() {
                        masked[j] = model.reservoir().mask().apply(&s.series);
                    }
                }
            }
        }
        epochs.push(EpochStats {
            epoch,
            mean_loss: loss_sum / ds.train().len() as f64,
            a: model.reservoir().a(),
            b: model.reservoir().b(),
            lr_reservoir: lr_res,
            lr_output: lr_out,
        });
    }
    let sgd_seconds = sgd_start.elapsed().as_secs_f64();

    // ---- Ridge readout with β selection (§4) -----------------------------
    let ridge_start = Instant::now();
    let train_features = features_for(&model, ds.train().iter().map(|s| &s.series))?;
    let fit = fit_readout_with(&train_features, &targets, &options.betas, &mut ws.readout)?;
    model.set_readout(fit.w_out.clone(), fit.bias.clone())?;
    let ridge_seconds = ridge_start.elapsed().as_secs_f64();

    let train_labels: Vec<usize> = ds.train().iter().map(|s| s.label).collect();
    let train_accuracy = readout_accuracy_with(
        &train_features,
        &fit.w_out,
        &fit.bias,
        &train_labels,
        &mut ws.readout,
    )?;
    let test_accuracy = evaluate(&model, ds)?;

    Ok(TrainReport {
        model,
        epochs,
        beta: fit.beta,
        train_loss: fit.train_loss,
        train_accuracy,
        test_accuracy,
        sgd_seconds,
        ridge_seconds,
    })
}

/// Computes the DPRR feature matrix of a set of series under a model,
/// using the same per-sample `1/T` scaling as
/// [`DfrClassifier::forward`] so ridge-fitted readouts and
/// SGD-trained readouts see identical features.
///
/// # Errors
///
/// Propagates reservoir failures (divergence, channel mismatch).
pub fn features_for<'a, I>(model: &DfrClassifier, series: I) -> Result<Matrix, CoreError>
where
    I: IntoIterator<Item = &'a Matrix>,
{
    let mut features = Matrix::zeros(0, 0);
    features_for_into(model, series, &mut features)?;
    Ok(features)
}

/// [`features_for`] writing into a caller-owned feature matrix (resized,
/// allocation reused) — grid search evaluates thousands of `(A, B)` points
/// against the same dataset, so the `n × N_r` output is recycled across
/// points.
///
/// Rows are produced in groups of [`Kernel::lanes`] samples (4 under the
/// `avx2` kernel, 1 otherwise) by the streaming lane kernel
/// [`dprr_lanes`], which pushes a group through mask → recurrence → DPRR
/// as SIMD lanes without storing any `T × N_x` history. Groups fan out
/// over the pool, one [`LaneScratch`] per worker. A full group of
/// equal-length series takes the lanes; any other group, and any group in
/// which a lane failed (diverged, or a channel mismatch), is re-run one
/// sample at a time, so the error reported is the per-sample path's error
/// of the lowest failing index. Every row is
/// bitwise equal to `run_into` + [`Dprr::features_into`] + `1/T` at every
/// thread count and kernel.
///
/// [`Kernel::lanes`]: dfr_linalg::kernels::Kernel::lanes
/// [`Dprr::features_into`]: dfr_reservoir::representation::Dprr::features_into
///
/// # Errors
///
/// Propagates reservoir failures (divergence, channel mismatch).
pub fn features_for_into<'a, I>(
    model: &DfrClassifier,
    series: I,
    out: &mut Matrix,
) -> Result<(), CoreError>
where
    I: IntoIterator<Item = &'a Matrix>,
{
    let series: Vec<&Matrix> = series.into_iter().collect();
    if series.is_empty() {
        out.resize(0, 0);
        return Ok(());
    }
    let dim = model.feature_dim();
    out.resize(series.len(), dim);
    // Resolved here and carried into the workers, like a GEMM's kernel.
    let kernel = kernels::active();
    let lanes = kernel.lanes();
    let dfr = model.reservoir();
    dfr_pool::par_try_chunks_mut_with(
        out.as_mut_slice(),
        lanes * dim,
        LaneScratch::new,
        |g, rows, scratch| {
            let group = &series[g * lanes..][..rows.len() / dim];
            let lanes_fit = lanes > 1
                && group.len() == lanes
                && group.iter().all(|s| s.rows() == group[0].rows());
            // A channel mismatch fails here too and lands in the re-run.
            let in_lanes = lanes_fit
                && kernel
                    .run_lanes(LaneGroup {
                        dfr,
                        group,
                        rows: &mut *rows,
                        scratch: &mut *scratch,
                    })
                    .is_ok();
            if !in_lanes {
                for (s, row) in group.iter().zip(rows.chunks_exact_mut(dim)) {
                    dprr_lanes::<_, 1>(dfr, std::slice::from_ref(s), row, scratch)?;
                }
            }
            Ok::<(), CoreError>(())
        },
    )
}

/// A full group of equal-length series for [`dprr_lanes`], run at the
/// dispatched kernel's lane width (which equals the group size).
struct LaneGroup<'a, N: Nonlinearity> {
    dfr: &'a ModularDfr<N>,
    group: &'a [&'a Matrix],
    rows: &'a mut [f64],
    scratch: &'a mut LaneScratch,
}

impl<N: Nonlinearity> LaneBody for LaneGroup<'_, N> {
    type Output = Result<(), ReservoirError>;

    #[inline(always)]
    fn run<const L: usize>(self) -> Self::Output {
        dprr_lanes::<N, L>(self.dfr, self.group, self.rows, self.scratch)
    }
}

/// Test-split accuracy of a trained model; per-sample predictions fan out
/// over the pool with one forward-cache workspace per worker.
///
/// # Errors
///
/// Propagates reservoir failures.
pub fn evaluate(model: &DfrClassifier, ds: &Dataset) -> Result<f64, CoreError> {
    let predictions =
        dfr_pool::par_try_map_collect_with(ds.test(), ForwardCache::empty, |_, s, cache| {
            model.forward_into(&s.series, cache)?;
            Ok::<usize, CoreError>(cache.prediction())
        })?;
    let labels: Vec<usize> = ds.test().iter().map(|s| s.label).collect();
    Ok(metrics::accuracy(&predictions, &labels))
}

fn validate(ds: &Dataset, options: &TrainOptions) -> Result<(), CoreError> {
    if ds.train().is_empty() {
        return Err(CoreError::InvalidConfig {
            field: "dataset",
            detail: "training split is empty".into(),
        });
    }
    if options.epochs == 0 {
        return Err(CoreError::InvalidConfig {
            field: "epochs",
            detail: "must be at least 1".into(),
        });
    }
    if options.nodes == 0 {
        return Err(CoreError::InvalidConfig {
            field: "nodes",
            detail: "must be at least 1".into(),
        });
    }
    Ok(())
}

/// Pulls `(A, B)` — and, when mask training is active, the mask — halfway
/// back toward the initial point after a divergence: a cheap
/// trust-region-style recovery that keeps SGD going.
fn recover_params(
    model: &mut DfrClassifier,
    options: &TrainOptions,
    initial_mask: &Matrix,
) -> Result<(), CoreError> {
    let (a, b) = (model.reservoir().a(), model.reservoir().b());
    let (ia, ib) = options.init;
    model
        .reservoir_mut()
        .set_params(0.5 * (a + ia), 0.5 * (b + ib))?;
    if options.train_mask {
        let mask = model.reservoir_mut().mask_mut().matrix_mut();
        mask.scale(0.5);
        mask.axpy(0.5, initial_mask)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_data::DatasetSpec;

    fn easy_dataset() -> Dataset {
        let mut ds = DatasetSpec::new("trainer-test", 2, 30, 2, 20, 20, 0.3).build(0);
        dfr_data::normalize::standardize(&mut ds);
        ds
    }

    fn small_options() -> TrainOptions {
        TrainOptions {
            nodes: 10,
            epochs: 8,
            ..TrainOptions::paper()
        }
    }

    #[test]
    fn trains_above_majority_baseline() {
        let ds = easy_dataset();
        let report = train(&ds, &small_options()).unwrap();
        assert!(
            report.test_accuracy > ds.majority_baseline(),
            "accuracy {} should beat baseline {}",
            report.test_accuracy,
            ds.majority_baseline()
        );
        assert_eq!(report.epochs.len(), 8);
        assert!(PAPER_BETAS.contains(&report.beta));
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = easy_dataset();
        let report = train(&ds, &small_options()).unwrap();
        let first = report.epochs.first().unwrap().mean_loss;
        // Per-sample SGD with reshuffling is noisy epoch to epoch, so
        // require progress beyond the initial epoch rather than a
        // monotone final value.
        let best_later = report.epochs[1..]
            .iter()
            .map(|e| e.mean_loss)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_later < first,
            "best later loss {best_later} should be below initial {first}"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let ds = easy_dataset();
        let a = train(&ds, &small_options()).unwrap();
        let b = train(&ds, &small_options()).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.beta, b.beta);
    }

    #[test]
    fn params_stay_in_bounds() {
        let ds = easy_dataset();
        let options = small_options();
        let report = train(&ds, &options).unwrap();
        let (a, b) = (report.model.reservoir().a(), report.model.reservoir().b());
        assert!(a >= options.bounds.a.0 && a <= options.bounds.a.1);
        assert!(b >= options.bounds.b.0 && b <= options.bounds.b.1);
        // SGD must have actually moved the parameters from the init.
        assert_ne!((a, b), options.init);
    }

    #[test]
    fn full_mode_also_trains() {
        let ds = easy_dataset();
        let options = TrainOptions {
            mode: BackpropMode::Full,
            ..small_options()
        };
        let report = train(&ds, &options).unwrap();
        assert!(report.test_accuracy > ds.majority_baseline());
    }

    #[test]
    fn mask_training_extension_runs() {
        let ds = easy_dataset();
        let options = TrainOptions {
            train_mask: true,
            epochs: 3,
            ..small_options()
        };
        let report = train(&ds, &options).unwrap();
        // Mask must have moved away from ±1 entries.
        let mask = report.model.reservoir().mask().matrix();
        assert!(mask.as_slice().iter().any(|&v| v.abs() != 1.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = easy_dataset();
        let mut o = small_options();
        o.epochs = 0;
        assert!(train(&ds, &o).is_err());
        let mut o = small_options();
        o.nodes = 0;
        assert!(train(&ds, &o).is_err());
        let empty = dfr_data::Dataset::new("e", 2, vec![], vec![]).unwrap();
        assert!(train(&empty, &small_options()).is_err());
    }

    #[test]
    fn grad_clip_limits_updates() {
        let ds = easy_dataset();
        let options = TrainOptions {
            grad_clip: Some(1e-9), // effectively freezes training
            epochs: 2,
            ..small_options()
        };
        let report = train(&ds, &options).unwrap();
        let (a, b) = (report.model.reservoir().a(), report.model.reservoir().b());
        assert!((a - 0.01).abs() < 1e-6, "A barely moves: {a}");
        assert!((b - 0.01).abs() < 1e-6, "B barely moves: {b}");
    }
}
