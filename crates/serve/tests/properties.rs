//! Property suite pinning the serving layer's bit-identity contract on the
//! redesigned [`ServeSession`] surface: `predict_batch` must equal
//! sequential per-sample `predict` **bitwise** (predictions and
//! probabilities) for ragged batch sizes 1..=65 at pool widths {1, 2, 8},
//! result rows must stay in input order for every batch plan (including
//! ragged final groups), and a frozen model must survive the serialize →
//! deserialize round trip with identical predictions.

use dfr_core::DfrClassifier;
use dfr_linalg::Matrix;
use dfr_serve::{BatchPlan, FrozenModel, ServeSession};
use proptest::prelude::*;

/// A deterministic trained-shaped model: paper-default wiring with
/// hand-set reservoir gains and a dense, sign-varied readout.
fn model(nodes: usize, channels: usize, classes: usize, seed: u64) -> DfrClassifier {
    let mut m = DfrClassifier::paper_default(nodes, channels, classes, seed).unwrap();
    m.reservoir_mut().set_params(0.07, 0.18).unwrap();
    for j in 0..m.feature_dim() {
        for k in 0..classes {
            m.w_out_mut()[(k, j)] = 0.02 * (((j * 5 + k * 3 + 1) % 17) as f64 - 8.0);
        }
    }
    for (k, b) in m.bias_mut().iter_mut().enumerate() {
        *b = 0.05 * (k as f64 - 1.0);
    }
    m
}

/// Ragged workload: lengths cycle through 1..=24 so every batch mixes
/// short and long series (including the degenerate T = 1).
fn ragged_series(n: usize, channels: usize) -> Vec<Matrix> {
    (0..n)
        .map(|i| {
            let t = 1 + (i * 11) % 24;
            Matrix::from_vec(
                t,
                channels,
                (0..t * channels)
                    .map(|k| (((k * 7 + i * 13) % 29) as f64 * 0.23 - 3.0).sin())
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

/// The headline contract carried over from ISSUE 5, now stated on the
/// session surface: for every ragged batch size 1..=65 and pool width
/// {1, 2, 8}, batched predictions and probabilities are bitwise equal to
/// the training-side per-sample `predict`.
#[test]
fn predict_batch_matches_per_sample_bitwise_for_ragged_sizes() {
    let m = model(6, 2, 3, 3);
    let frozen = FrozenModel::freeze(&m);
    let series = ragged_series(65, 2);
    // Per-sample oracle, computed once on the training-side path.
    let oracle: Vec<(usize, Vec<u64>)> = series
        .iter()
        .map(|s| {
            let cache = m.forward(s).unwrap();
            (
                cache.prediction(),
                cache.probs.iter().map(|p| p.to_bits()).collect(),
            )
        })
        .collect();
    // Several groups per call once n > 16.
    let mut session = ServeSession::builder(frozen).max_batch(16).build();
    for threads in [1usize, 2, 8] {
        dfr_pool::with_threads(threads, || {
            for n in 1..=65usize {
                let result = session.predict_batch(&series[..n]).unwrap();
                for (i, (expected_class, expected_bits)) in oracle.iter().enumerate().take(n) {
                    assert_eq!(
                        result.predictions()[i],
                        *expected_class,
                        "threads={threads} n={n} sample {i}"
                    );
                    for (j, &bits) in expected_bits.iter().enumerate() {
                        assert_eq!(
                            result.probabilities()[(i, j)].to_bits(),
                            bits,
                            "threads={threads} n={n} sample {i} class {j}"
                        );
                    }
                }
            }
        });
    }
}

/// The §13 kernel-differential form of the batch contract: serving the
/// same ragged workload under every available SIMD kernel yields
/// bitwise-identical predictions and probabilities. Pool width is pinned
/// to 1 because the thread-local `with_kernel` override does not reach
/// products issued from inside pool workers; whole-process selection at
/// width 4 is covered by the CI `DFR_KERNEL` matrix.
#[test]
fn predict_batch_bit_identical_across_kernels() {
    use dfr_linalg::kernels::{available, with_kernel, KernelKind};
    let m = model(6, 2, 3, 3);
    let frozen = FrozenModel::freeze(&m);
    let series = ragged_series(33, 2);
    let mut session = ServeSession::builder(frozen).max_batch(16).build();
    let reference: Vec<(usize, Vec<u64>)> = dfr_pool::with_threads(1, || {
        with_kernel(KernelKind::Scalar, || {
            let r = session.predict_batch(&series).unwrap();
            (0..series.len())
                .map(|i| {
                    (
                        r.predictions()[i],
                        r.probabilities_of(i).iter().map(|p| p.to_bits()).collect(),
                    )
                })
                .collect()
        })
    });
    for kernel in available() {
        dfr_pool::with_threads(1, || {
            with_kernel(kernel.kind(), || {
                let r = session.predict_batch(&series).unwrap();
                for (i, (class, bits)) in reference.iter().enumerate() {
                    assert_eq!(
                        r.predictions()[i],
                        *class,
                        "kernel={} sample {i}",
                        kernel.name()
                    );
                    for (j, &b) in bits.iter().enumerate() {
                        assert_eq!(
                            r.probabilities_of(i)[j].to_bits(),
                            b,
                            "kernel={} sample {i} class {j}",
                            kernel.name()
                        );
                    }
                }
            })
        });
    }
}

/// The row-ordering contract of `BatchResult::probabilities`: row `i`
/// belongs to input sample `i` for **every** batch plan — in particular
/// for plans whose final group is ragged, and for plans whose final group
/// is small enough (< 8 rows) to take the per-sample matvec epilogue
/// instead of the batched GEMM one. Each sample's probability row must be
/// byte-identical to serving that sample alone, so any off-by-a-group row
/// placement (the bug class this pins against) would both misclassify and
/// mismatch bits.
#[test]
fn ragged_final_groups_keep_input_order() {
    let m = model(5, 2, 4, 9);
    let frozen = FrozenModel::freeze(&m);
    let series = ragged_series(29, 2);
    // One-sample-at-a-time oracle through the same serving surface.
    let mut solo = ServeSession::builder(frozen.clone()).max_batch(1).build();
    let oracle: Vec<(usize, Vec<u64>)> = series
        .iter()
        .map(|s| {
            let r = solo.predict_batch(std::slice::from_ref(s)).unwrap();
            (
                r.predictions()[0],
                r.probabilities_of(0).iter().map(|p| p.to_bits()).collect(),
            )
        })
        .collect();
    // 29 samples: max_batch 25 → final group of 4 (matvec epilogue),
    // max_batch 21 → final group of 8 (GEMM epilogue boundary),
    // max_batch 10 → final group of 9, max_batch 4 → ragged tail of 1.
    for max_batch in [4usize, 10, 13, 21, 25, 29, 64] {
        let mut session = ServeSession::builder(frozen.clone())
            .batch_plan(BatchPlan::new(max_batch))
            .build();
        let result = session.predict_batch(&series).unwrap();
        assert_eq!(result.len(), series.len());
        for (i, (class, bits)) in oracle.iter().enumerate() {
            assert_eq!(
                result.predictions()[i],
                *class,
                "max_batch={max_batch} sample {i}"
            );
            let got: Vec<u64> = result
                .probabilities_of(i)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(&got, bits, "max_batch={max_batch} sample {i}");
        }
    }
}

/// The per-sample serving form agrees with the batch form (and therefore
/// with the training-side path) at every width.
#[test]
fn predict_one_matches_batch_at_every_width() {
    let m = model(5, 3, 4, 7);
    let frozen = FrozenModel::freeze(&m);
    let series = ragged_series(12, 3);
    let mut session = ServeSession::builder(frozen).build();
    let per_sample: Vec<usize> = series
        .iter()
        .map(|s| session.predict_one(s).unwrap().class())
        .collect();
    for threads in [1usize, 2, 8] {
        let batched: Vec<usize> = dfr_pool::with_threads(threads, || {
            session
                .predict_batch(&series)
                .unwrap()
                .predictions()
                .to_vec()
        });
        assert_eq!(batched, per_sample, "threads={threads}");
    }
}

/// A session built with an explicit `.threads(..)` pin produces the same
/// bits as one inheriting any ambient width — the pin is a resource
/// control, not an arithmetic one.
#[test]
fn pinned_width_is_bit_identical_to_ambient() {
    let m = model(6, 2, 3, 13);
    let frozen = FrozenModel::freeze(&m);
    let series = ragged_series(17, 2);
    let mut ambient = ServeSession::builder(frozen.clone()).max_batch(5).build();
    let expected: Vec<usize> = ambient
        .predict_batch(&series)
        .unwrap()
        .predictions()
        .to_vec();
    for width in [1usize, 2, 8] {
        let mut pinned = ServeSession::builder(frozen.clone())
            .max_batch(5)
            .threads(width)
            .build();
        let result = pinned.predict_batch(&series).unwrap();
        assert_eq!(result.predictions(), &expected[..], "width={width}");
    }
}

/// Differential round-trip: serialize → deserialize → identical digest,
/// identical predictions and probabilities; and the thawed classifier
/// predicts identically to the original.
#[test]
fn round_trip_preserves_predictions_bitwise() {
    let m = model(6, 2, 3, 11);
    let frozen = FrozenModel::freeze(&m)
        .with_normalization(vec![0.3, -0.2], vec![1.4, 0.6])
        .unwrap();
    let restored = FrozenModel::from_bytes(&frozen.to_bytes()).unwrap();
    assert_eq!(restored.content_digest(), frozen.content_digest());
    assert_eq!(restored.diff(&frozen), None);

    let series = ragged_series(33, 2);
    let mut a = ServeSession::builder(frozen).max_batch(8).build();
    let mut b = ServeSession::builder(restored).max_batch(8).build();
    let ra = a.predict_batch(&series).unwrap();
    let rb = b.predict_batch(&series).unwrap();
    assert_eq!(ra.predictions(), rb.predictions());
    assert_eq!(ra.probabilities(), rb.probabilities());
    assert_eq!(ra.digest(), rb.digest());

    // The thawed classifier is the original, bit for bit.
    let thawed = b.model().thaw().unwrap();
    assert_eq!(thawed, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip identity over random reservoir gains, mask seeds and
    /// workloads (no hand-picked corners).
    #[test]
    fn random_models_round_trip_and_serve_identically(
        a in 0.02_f64..0.3,
        b in 0.02_f64..0.3,
        seed in 0u64..1000,
        scale in -0.5_f64..0.5,
        n in 1usize..12,
    ) {
        let mut m = DfrClassifier::paper_default(4, 2, 3, seed).unwrap();
        m.reservoir_mut().set_params(a, b).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(j % 3, j)] = scale * (((j % 7) as f64) - 3.0);
        }
        let frozen = FrozenModel::freeze(&m);
        let restored = FrozenModel::from_bytes(&frozen.to_bytes()).unwrap();
        prop_assert_eq!(restored.content_digest(), frozen.content_digest());
        let series = ragged_series(n, 2);
        let mut session = ServeSession::builder(restored).build();
        let got: Vec<usize> = session.predict_batch(&series).unwrap().predictions().to_vec();
        for (i, s) in series.iter().enumerate() {
            prop_assert_eq!(got[i], m.predict(s).unwrap());
        }
    }
}
