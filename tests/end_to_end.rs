//! End-to-end integration tests spanning all crates: data generation →
//! reservoir → backpropagation training → ridge readout → evaluation.

use dfr::core::backprop::BackpropMode;
use dfr::core::grid::{evaluate_point, grid_search, GridOptions};
use dfr::core::trainer::{evaluate, train, TrainOptions};
use dfr::data::{paper_dataset, DatasetSpec, PaperDataset};

fn small_task() -> dfr::data::Dataset {
    let mut ds = DatasetSpec::new("e2e", 3, 40, 2, 30, 30, 0.5).build(0);
    dfr::data::normalize::standardize(&mut ds);
    ds
}

fn small_options() -> TrainOptions {
    TrainOptions {
        nodes: 12,
        epochs: 10,
        ..TrainOptions::calibrated()
    }
}

#[test]
fn backprop_training_beats_majority_baseline() {
    let ds = small_task();
    let report = train(&ds, &small_options()).expect("training succeeds");
    assert!(
        report.test_accuracy > ds.majority_baseline() + 0.1,
        "accuracy {} vs baseline {}",
        report.test_accuracy,
        ds.majority_baseline()
    );
}

#[test]
fn full_and_truncated_training_reach_similar_accuracy() {
    // The paper's §3.4 claim: truncation preserves optimization quality.
    let ds = small_task();
    let truncated = train(&ds, &small_options()).expect("truncated");
    let full = train(
        &ds,
        &TrainOptions {
            mode: BackpropMode::Full,
            ..small_options()
        },
    )
    .expect("full");
    assert!(
        (truncated.test_accuracy - full.test_accuracy).abs() <= 0.15,
        "truncated {} vs full {}",
        truncated.test_accuracy,
        full.test_accuracy
    );
}

#[test]
fn grid_search_matches_backprop_accuracy_within_budget() {
    // Table 1's protocol end to end on a small task: the grid eventually
    // reaches the backpropagation accuracy.
    let ds = small_task();
    let bp = train(&ds, &small_options()).expect("bp");
    let gs = grid_search(
        &ds,
        &GridOptions {
            nodes: 12,
            max_divisions: 8,
            ..GridOptions::default()
        },
        bp.test_accuracy,
    )
    .expect("grid");
    assert!(
        gs.reached_target,
        "grid best {} never reached bp accuracy {}",
        gs.best.test_accuracy, bp.test_accuracy
    );
}

#[test]
fn training_is_deterministic_across_runs() {
    let ds = small_task();
    let a = train(&ds, &small_options()).expect("run a");
    let b = train(&ds, &small_options()).expect("run b");
    assert_eq!(a.test_accuracy, b.test_accuracy);
    assert_eq!(a.model.reservoir().a(), b.model.reservoir().a());
    assert_eq!(a.model.reservoir().b(), b.model.reservoir().b());
    assert_eq!(a.beta, b.beta);
}

#[test]
fn trained_model_evaluates_consistently() {
    let ds = small_task();
    let report = train(&ds, &small_options()).expect("training");
    let rerun = evaluate(&report.model, &ds).expect("evaluation");
    assert!((rerun - report.test_accuracy).abs() < 1e-12);
}

#[test]
fn paper_dataset_pipeline_smoke() {
    // The smallest paper dataset end to end with the real N_x = 30.
    let mut ds = paper_dataset(PaperDataset::Jpvow);
    dfr::data::normalize::standardize(&mut ds);
    let report = train(
        &ds,
        &TrainOptions {
            epochs: 5,
            ..TrainOptions::calibrated()
        },
    )
    .expect("training");
    assert!(report.test_accuracy > 0.5, "{}", report.test_accuracy);
    assert_eq!(report.model.nodes(), 30);
    assert_eq!(report.model.feature_dim(), 930);
}

#[test]
fn unstable_grid_corner_scores_zero_not_error() {
    let ds = small_task();
    let options = GridOptions {
        nodes: 12,
        ..GridOptions::default()
    };
    // A + B far above 1: the linear reservoir diverges; the protocol treats
    // the point as unusable rather than failing the whole search.
    let point = evaluate_point(&ds, &options, 100.0, 100.0).expect("handled");
    assert_eq!(point.test_accuracy, 0.0);
}

#[test]
fn different_mask_seeds_change_the_model_but_not_much_the_accuracy() {
    let ds = small_task();
    let a = train(&ds, &small_options()).expect("seed 0");
    let b = train(
        &ds,
        &TrainOptions {
            mask_seed: 99,
            ..small_options()
        },
    )
    .expect("seed 99");
    assert_ne!(
        a.model.reservoir().mask(),
        b.model.reservoir().mask(),
        "masks must differ"
    );
    // Mask choice is not supposed to make or break the method.
    assert!((a.test_accuracy - b.test_accuracy).abs() < 0.3);
}
