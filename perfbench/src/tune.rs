//! `tune_bp` and `tune_gs`: the paper's Table 1 comparison on two
//! contrasting dataset stand-ins — CHAR (200 short series, 20 classes) and
//! NET (65 long series, 13 classes).
//!
//! One operation is one round over both datasets: `trainer::train` with
//! the calibrated protocol (backprop), or a fixed 6 × 6
//! `grid::landscape` over the paper's (A, B) box (grid search).
//!
//! Oracles: every round reproduces the first round bitwise (model digest,
//! accuracy map), backprop beats the majority baseline, and the traced run
//! replays `train` / `landscape` from their public pieces and must equal
//! the untraced outputs bitwise.

use crate::trace::{Layers, Tracer};
use crate::{median, peak_rss_mb, run_for, Ledger, Outcome, RunSpec};
use dfr_core::backprop::{backprop_into, BackpropOptions};
use dfr_core::grid::{grid_points, landscape, GridOptions};
use dfr_core::optimizer::Sgd;
use dfr_core::readout::{fit_readout_with, readout_accuracy_with, ReadoutScratch};
use dfr_core::trainer::{evaluate, features_for, train, TrainOptions};
use dfr_core::{CoreError, DfrClassifier, TrainWorkspace};
use dfr_data::{Dataset, PaperDataset};
use dfr_linalg::solver::SolverReport;
use dfr_linalg::Matrix;
use dfr_reservoir::ReservoirError;
use dfr_serve::FrozenModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Which tuning method a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `trainer::train` (the paper's backpropagation).
    Backprop,
    /// A fixed-size `grid::landscape` (the grid-search baseline).
    Grid,
}

/// Grid divisions per axis of the landscape: a round stays near the length
/// of a backprop round, so a 20 s run holds enough rounds for its median
/// to ride out the multi-second slow phases of a shared machine.
const DIVISIONS: usize = 6;
/// Set-up repetitions (dataset build and standardisation).
const SETUP_REPEATS: usize = 7;

fn build_datasets(seed: u64) -> Vec<Dataset> {
    [PaperDataset::Char, PaperDataset::Net]
        .into_iter()
        .map(|which| dfr_bench::prepared_dataset(which, seed, 1.0))
        .collect()
}

fn digest(model: &DfrClassifier) -> u64 {
    FrozenModel::freeze(model).content_digest()
}

fn bits(map: &Matrix) -> Vec<u64> {
    map.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What one round produced, per dataset: the model digest and test
/// accuracy (backprop) or the accuracy map's bits (grid).
type RoundOutput = Vec<Vec<u64>>;

fn err(e: CoreError) -> String {
    e.to_string()
}

pub fn run(method: Method, spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut datasets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        datasets = build_datasets(spec.seed);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let options = TrainOptions::calibrated();
    let grid = GridOptions::default();
    // Work items of one round: SGD sample steps, or landscape cells.
    let round_work: f64 = datasets
        .iter()
        .map(|ds| match method {
            Method::Backprop => (ds.train().len() * options.epochs) as f64,
            Method::Grid => (DIVISIONS * DIVISIONS) as f64,
        })
        .sum();

    let (untraced, traced) = spec.windows();
    let mut reference: Option<RoundOutput> = None;
    let mut ledger = Ledger::default();
    let mut accuracies = Vec::new();
    run_for(untraced, || {
        let t0 = Instant::now();
        let mut round = RoundOutput::new();
        let mut round_acc = Vec::new();
        for ds in &datasets {
            ledger.attempted += 1;
            let result = match method {
                Method::Backprop => train(ds, &options).map(|r| {
                    round_acc.push((r.test_accuracy, ds.majority_baseline()));
                    vec![digest(&r.model), r.test_accuracy.to_bits()]
                }),
                Method::Grid => landscape(ds, &grid, DIVISIONS).map(|map| {
                    let best = map.as_slice().iter().copied().fold(0.0, f64::max);
                    round_acc.push((best, ds.majority_baseline()));
                    bits(&map)
                }),
            };
            match result {
                Ok(r) => {
                    ledger.ok += 1;
                    round.push(r);
                }
                Err(e) => {
                    ledger.failed += 1;
                    return Err(format!("{} on {}: {e}", method_name(method), ds.name()));
                }
            }
        }
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match &reference {
            None => {
                reference = Some(round);
                accuracies = round_acc;
            }
            Some(r) if *r == round => {}
            Some(_) => return Err("a repeated round changed its output bits".into()),
        }
        Ok(())
    })?;
    out.peak_rss_mb = peak_rss_mb()?;
    for ((acc, baseline), ds) in accuracies.iter().zip(&datasets) {
        out.notes.push(format!(
            "{} {}: accuracy {acc:.4} (majority baseline {baseline:.4})",
            method_name(method),
            ds.name()
        ));
        if method == Method::Backprop && acc <= baseline {
            return Err(format!(
                "backprop on {} does not beat the majority baseline",
                ds.name()
            ));
        }
    }
    out.notes.push(format!(
        "oracle: {} rounds bitwise identical; rounds_ms {:?}",
        out.op_ms.len(),
        out.op_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>()
    ));
    let round_ms = median(&out.op_ms);
    out.throughput = round_work / (round_ms / 1e3);
    out.ledger = ledger;

    if spec.trace {
        let reference = reference.expect("run_for runs at least once");
        let epoch = Instant::now();
        let mut tracers = vec![Tracer::new(true, epoch)];
        let mut layers = Layers::default();
        let mut traced_ms = Vec::new();
        run_for(traced, || {
            let t0 = Instant::now();
            for (ds, want) in datasets.iter().zip(&reference) {
                let got = match method {
                    Method::Backprop => {
                        let (model, acc) = replay_train(ds, &options, &mut tracers[0], &mut layers)
                            .map_err(err)?;
                        vec![digest(&model), acc.to_bits()]
                    }
                    Method::Grid => bits(
                        &replay_landscape(ds, &grid, epoch, &mut tracers, &mut layers)
                            .map_err(err)?,
                    ),
                };
                if got != *want {
                    return Err(format!(
                        "traced replay on {} differs from the untraced output",
                        ds.name()
                    ));
                }
            }
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Ok(())
        })?;
        for tracer in &tracers {
            layers.absorb(tracer);
        }
        let name = match method {
            Method::Backprop => "tune_bp",
            Method::Grid => "tune_gs",
        };
        let refs: Vec<&Tracer> = tracers.iter().collect();
        crate::write_spans(name, spec.seed, &refs)?;
        layers.set(
            "trace.overhead_pct",
            (median(&traced_ms) / round_ms - 1.0) * 100.0,
        );
        out.notes
            .push("oracle: traced replay bitwise equal to the untraced output".into());
        out.layers = layers;
    }
    Ok(out)
}

fn method_name(method: Method) -> &'static str {
    match method {
        Method::Backprop => "bp",
        Method::Grid => "gs",
    }
}

/// Records one readout fit: solver escalations and the Gram product's
/// flop count (`2·n·d·min(n, d)` for `n` samples of `d = p + 1`
/// intercept-augmented features, primal or dual form alike).
fn note_fit(layers: &mut Layers, features: &Matrix, reports: &[SolverReport]) {
    let (n, d) = (features.rows() as f64, features.cols() as f64 + 1.0);
    layers.add("linalg.gram_gflop", 2.0 * n * d * n.min(d) / 1e9);
    let escalated = reports.iter().filter(|r| r.escalated).count();
    layers.add("core.readout_escalations", escalated as f64);
}

/// `trainer::train` rebuilt from its public pieces, with a span around
/// every call into a layer. Must produce the same model bit for bit.
fn replay_train(
    ds: &Dataset,
    options: &TrainOptions,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(DfrClassifier, f64), CoreError> {
    let root = tr.open("tune.train");
    let mut model = DfrClassifier::paper_default(
        options.nodes,
        ds.channels(),
        ds.num_classes(),
        options.mask_seed,
    )?;
    model
        .reservoir_mut()
        .set_params(options.init.0, options.init.1)?;
    let masked: Vec<Matrix> = ds
        .train()
        .iter()
        .map(|s| {
            tr.time("reservoir.mask_apply", || {
                model.reservoir().mask().apply(&s.series)
            })
        })
        .collect();
    let targets = ds.one_hot_train();
    let bp_options = BackpropOptions {
        mode: options.mode,
        mask_gradient: false,
    };
    let mut sgd = Sgd::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.shuffle_seed);
    let mut order: Vec<usize> = (0..ds.train().len()).collect();
    let mut ws = TrainWorkspace::new();
    // The trainer's divergence recovery: halfway back to the start point.
    let recover = |model: &mut DfrClassifier| {
        let (a, b) = (model.reservoir().a(), model.reservoir().b());
        let (ia, ib) = options.init;
        model
            .reservoir_mut()
            .set_params(0.5 * (a + ia), 0.5 * (b + ib))
    };
    for epoch in 0..options.epochs {
        let lr_res = options.reservoir_schedule.lr(epoch);
        let lr_out = options.output_schedule.lr(epoch);
        order.shuffle(&mut rng);
        for &i in &order {
            let forward = tr.time("core.forward", || {
                model.forward_masked_into(&masked[i], &mut ws.cache)
            });
            match forward {
                Ok(()) => {}
                Err(CoreError::Reservoir(ReservoirError::Diverged { .. })) => {
                    recover(&mut model)?;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let TrainWorkspace { cache, bp, .. } = &mut ws;
            tr.time("core.backprop", || {
                backprop_into(
                    &model,
                    &ds.train()[i].series,
                    cache,
                    targets.row(i),
                    &bp_options,
                    bp,
                )
            })?;
            if !bp.grads.is_finite() {
                recover(&mut model)?;
                continue;
            }
            tr.time("core.sgd_step", || {
                sgd.step(&mut model, &bp.grads, lr_res, lr_out, &options.bounds)
            })?;
            layers.add("core.sgd_samples", 1.0);
        }
    }
    let features = tr.time("core.features", || {
        features_for(&model, ds.train().iter().map(|s| &s.series))
    })?;
    let fit = tr.time("core.readout_fit", || {
        fit_readout_with(&features, &targets, &options.betas, &mut ws.readout)
    })?;
    note_fit(layers, &features, ws.readout.solver_reports());
    model.set_readout(fit.w_out, fit.bias)?;
    let accuracy = tr.time("core.evaluate", || evaluate(&model, ds))?;
    tr.close(root);
    Ok((model, accuracy))
}

/// `grid::landscape` rebuilt from its public pieces: like
/// `grid::landscape`, one contiguous run of cells per pool worker, each
/// worker serial inside, with one tracer per worker (appended to
/// `tracers`). Must produce the same map bit for bit.
fn replay_landscape(
    ds: &Dataset,
    options: &GridOptions,
    epoch: Instant,
    tracers: &mut Vec<Tracer>,
    layers: &mut Layers,
) -> Result<Matrix, CoreError> {
    let a_points = grid_points(options.a_log10_range, DIVISIONS);
    let b_points = grid_points(options.b_log10_range, DIVISIONS);
    let cells: Vec<(f64, f64)> = a_points
        .iter()
        .flat_map(|&a| b_points.iter().map(move |&b| (a, b)))
        .collect();
    let run_len = cells.len().div_ceil(dfr_pool::max_threads().max(1));
    let targets = ds.one_hot_train();
    let labels: Vec<usize> = ds.test().iter().map(|s| s.label).collect();
    let worker = |run: &[(f64, f64)]| -> Result<(Vec<f64>, Tracer, Layers), CoreError> {
        let mut tr = Tracer::new(true, epoch);
        let mut layers = Layers::default();
        let mut model = DfrClassifier::paper_default(
            options.nodes,
            ds.channels(),
            ds.num_classes(),
            options.mask_seed,
        )?;
        let mut scratch = ReadoutScratch::new();
        let mut accuracies = Vec::with_capacity(run.len());
        for &(a, b) in run {
            let cell = tr.open("core.grid_cell");
            model.reservoir_mut().set_params(a, b)?;
            accuracies.push(replay_cell(
                ds,
                options,
                &model,
                &targets,
                &labels,
                &mut scratch,
                &mut tr,
                &mut layers,
            )?);
            tr.close(cell);
            layers.add("core.grid_cells", 1.0);
        }
        Ok((accuracies, tr, layers))
    };
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks(run_len)
            .map(|run| scope.spawn(move || dfr_pool::with_threads(1, || worker(run))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut accuracies = Vec::with_capacity(cells.len());
    for run in runs {
        let (acc, tr, run_layers) = run?;
        accuracies.extend(acc);
        tracers.push(tr);
        layers.merge(run_layers);
    }
    Ok(Matrix::from_vec(
        a_points.len(),
        b_points.len(),
        accuracies,
    )?)
}

/// One landscape cell; an unusable point (diverged reservoir, failed
/// readout) scores 0, exactly as in `grid::evaluate_point`.
#[allow(clippy::too_many_arguments)]
fn replay_cell(
    ds: &Dataset,
    options: &GridOptions,
    model: &DfrClassifier,
    targets: &Matrix,
    labels: &[usize],
    scratch: &mut ReadoutScratch,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<f64, CoreError> {
    let diverged =
        |e: &CoreError| matches!(e, CoreError::Reservoir(ReservoirError::Diverged { .. }));
    let train_features = match tr.time("core.features", || {
        features_for(model, ds.train().iter().map(|s| &s.series))
    }) {
        Ok(f) => f,
        Err(e) if diverged(&e) => return Ok(0.0),
        Err(e) => return Err(e),
    };
    let fit = tr.time("core.readout_fit", || {
        fit_readout_with(&train_features, targets, &options.betas, scratch)
    });
    note_fit(layers, &train_features, scratch.solver_reports());
    let fit = match fit {
        Ok(f) => f,
        Err(CoreError::Linalg(_)) | Err(CoreError::NumericalFailure { .. }) => return Ok(0.0),
        Err(e) => return Err(e),
    };
    let test_features = match tr.time("core.features", || {
        features_for(model, ds.test().iter().map(|s| &s.series))
    }) {
        Ok(f) => f,
        Err(e) if diverged(&e) => return Ok(0.0),
        Err(e) => return Err(e),
    };
    readout_accuracy_with(&test_features, &fit.w_out, &fit.bias, labels, scratch)
}
