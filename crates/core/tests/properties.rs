//! Property-based tests of the backpropagation engine and its supporting
//! machinery.

use dfr_core::backprop::{backprop, backprop_into, BackpropMode, BackpropOptions, Gradients};
use dfr_core::memory::MemoryModel;
use dfr_core::online::OnlineRidge;
use dfr_core::optimizer::Schedule;
use dfr_core::streaming::{streaming_backprop_into, StreamingCache, StreamingForward};
use dfr_core::workspace::{BackpropWorkspace, TrainWorkspace};
use dfr_core::{CoreError, DfrClassifier, ForwardCache};
use dfr_linalg::ridge::{augment_ones, RidgeMode, RidgePlan};
use dfr_linalg::solver::{with_solver, SolverKind, SolverPolicy};
use dfr_linalg::Matrix;
use proptest::prelude::*;

/// A small classifier with bounded random readout weights and reservoir
/// parameters in the stable region.
fn classifier(a: f64, b: f64, w_scale: f64, seed: u64) -> DfrClassifier {
    let mut m = DfrClassifier::paper_default(4, 2, 3, seed).expect("model");
    m.reservoir_mut().set_params(a, b).expect("stable params");
    for c in 0..3 {
        for j in 0..m.feature_dim() {
            // Deterministic pseudo-random pattern bounded by w_scale.
            let v = (((c * 31 + j * 17 + seed as usize * 7) % 23) as f64 / 23.0 - 0.5) * w_scale;
            m.w_out_mut()[(c, j)] = v;
        }
    }
    m
}

/// The streaming backward pass into a fresh workspace: `(loss, gradients)`.
fn streaming_backprop(
    model: &DfrClassifier,
    cache: &StreamingCache,
    target: &[f64],
) -> Result<(f64, Gradients), CoreError> {
    let mut ws = BackpropWorkspace::new();
    let loss = streaming_backprop_into(model, cache, target, &mut ws)?;
    Ok((loss, ws.grads))
}

fn input(t: usize, phase: f64) -> Matrix {
    let data: Vec<f64> = (0..t * 2)
        .map(|i| ((i as f64) * 0.61 + phase).sin() * 0.8)
        .collect();
    Matrix::from_vec(t, 2, data).expect("sized")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The analytic full gradient of A and B matches central finite
    /// differences for random stable configurations.
    #[test]
    fn full_gradient_matches_fd(
        a in 0.02_f64..0.4,
        b in 0.02_f64..0.4,
        w_scale in 0.05_f64..0.5,
        phase in 0.0_f64..6.0,
        class in 0usize..3,
    ) {
        let m = classifier(a, b, w_scale, 1);
        let u = input(7, phase);
        let mut d = [0.0; 3];
        d[class] = 1.0;
        let cache = m.forward(&u).expect("forward");
        let (_, g) = backprop(&m, &u, &cache, &d, &BackpropOptions {
            mode: BackpropMode::Full,
            mask_gradient: false,
        }).expect("backprop");
        let h = 1e-6;
        let loss_at = |aa: f64, bb: f64| {
            let mut mm = m.clone();
            mm.reservoir_mut().set_params(aa, bb).expect("params");
            mm.forward(&u).expect("forward").loss(&d)
        };
        let fd_a = (loss_at(a + h, b) - loss_at(a - h, b)) / (2.0 * h);
        let fd_b = (loss_at(a, b + h) - loss_at(a, b - h)) / (2.0 * h);
        prop_assert!((g.a - fd_a).abs() < 1e-4 * (1.0 + fd_a.abs()),
            "dA {} vs {}", g.a, fd_a);
        prop_assert!((g.b - fd_b).abs() < 1e-4 * (1.0 + fd_b.abs()),
            "dB {} vs {}", g.b, fd_b);
    }

    /// Truncated gradients with window ≥ T equal the full gradient.
    #[test]
    fn saturated_window_equals_full(
        a in 0.05_f64..0.3,
        b in 0.05_f64..0.3,
        t in 1usize..9,
    ) {
        let m = classifier(a, b, 0.2, 2);
        let u = input(t, 0.3);
        let d = [1.0, 0.0, 0.0];
        let cache = m.forward(&u).expect("forward");
        let full = backprop(&m, &u, &cache, &d, &BackpropOptions {
            mode: BackpropMode::Full, mask_gradient: false,
        }).expect("full").1;
        let window = backprop(&m, &u, &cache, &d, &BackpropOptions {
            mode: BackpropMode::Truncated { window: t + 3 }, mask_gradient: false,
        }).expect("windowed").1;
        prop_assert!((full.a - window.a).abs() < 1e-10);
        prop_assert!((full.b - window.b).abs() < 1e-10);
    }

    /// The streaming (constant-memory) pipeline is bitwise equal to the
    /// stored-history one under the paper's truncation, for any length.
    #[test]
    fn streaming_equals_reference(
        a in 0.05_f64..0.3,
        b in 0.05_f64..0.3,
        t in 1usize..12,
        class in 0usize..3,
    ) {
        let m = classifier(a, b, 0.3, 3);
        let u = input(t, 1.1);
        let mut d = [0.0; 3];
        d[class] = 1.0;
        let cache = m.forward(&u).expect("forward");
        let (loss_ref, g_ref) = backprop(&m, &u, &cache, &d, &BackpropOptions {
            mode: BackpropMode::PAPER_TRUNCATED, mask_gradient: false,
        }).expect("reference");
        let st_cache = StreamingForward::paper().run(&m, &u).expect("streaming forward");
        let (loss_st, g_st) = streaming_backprop(&m, &st_cache, &d).expect("streaming bp");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(loss_st.to_bits(), loss_ref.to_bits());
        prop_assert_eq!(g_st.a.to_bits(), g_ref.a.to_bits(), "{} vs {}", g_st.a, g_ref.a);
        prop_assert_eq!(g_st.b.to_bits(), g_ref.b.to_bits(), "{} vs {}", g_st.b, g_ref.b);
        prop_assert_eq!(bits(g_st.w_out.as_slice()), bits(g_ref.w_out.as_slice()));
        prop_assert_eq!(bits(&g_st.bias), bits(&g_ref.bias));
    }

    /// Readout gradients are linear in the loss gradient: scaling the
    /// readout scales ∂L/∂r accordingly but ∂L/∂b stays `y − d`.
    #[test]
    fn bias_gradient_is_probability_error(
        a in 0.05_f64..0.3,
        w_scale in 0.05_f64..0.4,
        class in 0usize..3,
    ) {
        let m = classifier(a, 0.1, w_scale, 4);
        let u = input(6, 0.0);
        let mut d = [0.0; 3];
        d[class] = 1.0;
        let cache = m.forward(&u).expect("forward");
        let (_, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default())
            .expect("backprop");
        for ((gb, p), dk) in g.bias.iter().zip(&cache.probs).zip(&d) {
            prop_assert!((gb - (p - dk)).abs() < 1e-12);
        }
    }

    /// Memory model monotonicity: windowed storage is non-decreasing in the
    /// window and bracketed by simplified/naive.
    #[test]
    fn memory_model_monotone(
        t in 1usize..3000,
        nx in 1usize..64,
        ny in 1usize..100,
        w1 in 1usize..3000,
        w2 in 1usize..3000,
    ) {
        let m = MemoryModel::new(t, nx, ny);
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        prop_assert!(m.windowed(lo) <= m.windowed(hi));
        prop_assert!(m.simplified() <= m.windowed(lo));
        prop_assert!(m.windowed(hi) <= m.naive());
        prop_assert!(m.reduction() >= 0.0 && m.reduction() < 1.0);
    }

    /// Step-decay schedules are non-increasing over epochs.
    #[test]
    fn schedules_non_increasing(
        initial in 0.001_f64..10.0,
        e1 in 0usize..50,
        e2 in 0usize..50,
    ) {
        let s = Schedule::step_decay(initial, &[5, 10, 15, 20], 0.1);
        let (lo, hi) = (e1.min(e2), e1.max(e2));
        prop_assert!(s.lr(hi) <= s.lr(lo) + 1e-15);
        prop_assert!(s.lr(0) == initial);
    }
}

// Workspace-reuse bit-identity: the `_into` forms recycling caller-owned
// buffers must equal the allocating forms bit for bit, across random
// shapes, modes, stale buffer contents (one workspace reused for every
// case and thread count) and pool widths 1 / 2 / 8.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `forward_into` + `backprop_into` against a reused [`TrainWorkspace`]
    /// reproduce `forward` + `backprop` exactly.
    #[test]
    fn workspace_step_bit_identical_to_allocating_step(
        a in 0.02_f64..0.35,
        b in 0.02_f64..0.35,
        w_scale in 0.05_f64..0.5,
        t in 1usize..14,
        phase in 0.0_f64..6.0,
        class in 0usize..3,
        window in 1usize..5,
        full in proptest::bool::ANY,
        mask_gradient in proptest::bool::ANY,
    ) {
        let m = classifier(a, b, w_scale, 4);
        let u = input(t, phase);
        let mut d = [0.0; 3];
        d[class] = 1.0;
        let options = BackpropOptions {
            mode: if full { BackpropMode::Full } else { BackpropMode::Truncated { window } },
            mask_gradient,
        };
        let cache = m.forward(&u).expect("forward");
        let (loss, grads) = backprop(&m, &u, &cache, &d, &options).expect("backprop");
        // One workspace shared across every thread count: buffers carry
        // stale contents from the previous iteration by construction.
        let mut ws = TrainWorkspace::new();
        for threads in [1usize, 2, 8] {
            dfr_pool::with_threads(threads, || {
                m.forward_into(&u, &mut ws.cache).expect("forward_into");
                let TrainWorkspace { cache: wc, bp, .. } = &mut ws;
                let loss_ws = backprop_into(&m, &u, wc, &d, &options, bp)
                    .expect("backprop_into");
                assert_eq!(wc, &cache, "cache, threads={threads}");
                assert_eq!(loss_ws.to_bits(), loss.to_bits(), "loss, threads={threads}");
                assert_eq!(&bp.grads, &grads, "grads, threads={threads}");
            });
            // The masked-drive entry point shares the same tail.
            let masked = m.reservoir().mask().apply(&u);
            m.forward_masked_into(&masked, &mut ws.cache).expect("masked into");
            prop_assert_eq!(&ws.cache, &cache);
        }
    }

    /// `StreamingForward::run_into` + `streaming_backprop_into` against
    /// reused buffers reproduce the allocating streaming pipeline exactly.
    #[test]
    fn streaming_workspace_bit_identical(
        a in 0.03_f64..0.3,
        b in 0.03_f64..0.3,
        t in 1usize..12,
        class in 0usize..3,
    ) {
        let m = classifier(a, b, 0.3, 5);
        let u = input(t, 0.7);
        let mut d = [0.0; 3];
        d[class] = 1.0;
        let forward = StreamingForward::paper();
        let cache = forward.run(&m, &u).expect("run");
        let (loss, grads) = streaming_backprop(&m, &cache, &d).expect("bp");
        let mut reused = StreamingCache::empty();
        let mut bp = BackpropWorkspace::new();
        for _ in 0..2 {
            forward.run_into(&m, &u, &mut reused).expect("run_into");
            prop_assert_eq!(&reused, &cache);
            let loss_ws = streaming_backprop_into(&m, &reused, &d, &mut bp).expect("bp into");
            prop_assert_eq!(loss_ws.to_bits(), loss.to_bits());
            prop_assert_eq!(&bp.grads, &grads);
        }
    }

    /// `features_for` (per-worker reservoir-run workspaces over the pool)
    /// and `evaluate`-style forward passes are bit-identical at every
    /// thread count, and `forward_into` stays consistent with them.
    #[test]
    fn feature_matrix_bit_identical_across_thread_counts(
        a in 0.03_f64..0.3,
        b in 0.03_f64..0.3,
        n_samples in 1usize..7,
        t in 1usize..10,
    ) {
        let m = classifier(a, b, 0.2, 6);
        let series: Vec<Matrix> = (0..n_samples)
            .map(|i| input(t, 0.37 * i as f64))
            .collect();
        let serial = dfr_pool::with_threads(1, || {
            dfr_core::trainer::features_for(&m, series.iter()).expect("features")
        });
        for threads in [2usize, 8] {
            let parallel = dfr_pool::with_threads(threads, || {
                dfr_core::trainer::features_for(&m, series.iter()).expect("features")
            });
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
        // Row i equals the forward pass's features for sample i.
        let mut cache = ForwardCache::empty();
        for (i, s) in series.iter().enumerate() {
            m.forward_into(s, &mut cache).expect("forward");
            prop_assert_eq!(serial.row(i), &cache.features[..]);
        }
    }
}

/// Deterministic pseudo-random sample stream for the online-learning
/// properties (splitmix-style; no shared state across cases).
fn online_sample(i: u64, p: usize, q: usize) -> (Vec<f64>, Vec<f64>) {
    let mut s = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        s ^= s >> 30;
        s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s ^= s >> 27;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let x: Vec<f64> = (0..p).map(|_| next() * 2.0).collect();
    let mut t = vec![0.0; q];
    t[(i as usize) % q] = 1.0;
    (x, t)
}

/// From-scratch batch ridge refit (primal, intercept-augmented) on an
/// explicit sample set — the differential oracle the rank-1 learner is
/// held to.
fn online_batch_fit(samples: &[(Vec<f64>, Vec<f64>)], beta: f64) -> (Matrix, Vec<f64>) {
    let p = samples[0].0.len();
    let q = samples[0].1.len();
    let mut x = Matrix::zeros(samples.len(), p);
    let mut y = Matrix::zeros(samples.len(), q);
    for (i, (f, t)) in samples.iter().enumerate() {
        x.row_mut(i).copy_from_slice(f);
        y.row_mut(i).copy_from_slice(t);
    }
    let aug = augment_ones(&x);
    let mut plan = RidgePlan::with_mode(&aug, &y, RidgeMode::Primal).expect("plan");
    let w_aug = plan.solve(beta).expect("batch solve");
    let mut w_out = Matrix::zeros(q, p);
    for i in 0..p {
        for c in 0..q {
            w_out[(c, i)] = w_aug[(i, c)];
        }
    }
    (w_out, w_aug.row(p).to_vec())
}

// Online continual-learning properties (DESIGN.md §16): the rank-1
// Cholesky up/downdated learner agrees with a from-scratch batch refit
// across random absorb orders, random retraction subsets, solver
// policies (auto and pinned Cholesky) and pool widths 1 / 4 — and an
// indefinite downdate escalates instead of poisoning the factor.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Absorbing any permutation of a sample set and refitting equals
    /// the batch oracle on that set to 1e-9, for every solver policy ×
    /// thread-count combination, and the final refit answers bitwise
    /// identically across those execution configurations.
    #[test]
    fn online_refit_matches_batch_across_orders_solvers_and_threads(
        seed in 0u64..1000,
        n in 8usize..28,
        p in 3usize..9,
        q in 2usize..4,
    ) {
        let beta = 1e-4;
        // A seeded Fisher–Yates permutation of the sample stream.
        let mut order: Vec<u64> = (0..n as u64).collect();
        let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7);
        for i in (1..order.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let samples: Vec<_> = order.iter().map(|&i| online_sample(i, p, q)).collect();
        let (bw, bb) = online_batch_fit(&samples, beta);

        let mut answers: Vec<(Matrix, Vec<f64>)> = Vec::new();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Fixed(SolverKind::Cholesky),
        ] {
            for threads in [1usize, 4] {
                let (w, b) = with_solver(policy, || {
                    dfr_pool::with_threads(threads, || {
                        let mut learner = OnlineRidge::new(p, q, beta).expect("learner");
                        for (x, t) in &samples {
                            learner.absorb(x, t).expect("absorb");
                        }
                        learner.refit().expect("refit")
                    })
                });
                for (got, want) in w.as_slice().iter().zip(bw.as_slice()) {
                    prop_assert!(
                        (got - want).abs() < 1e-9,
                        "w_out {got} vs {want} (policy {policy:?}, threads {threads})"
                    );
                }
                for (got, want) in b.iter().zip(&bb) {
                    prop_assert!(
                        (got - want).abs() < 1e-9,
                        "bias {got} vs {want} (policy {policy:?}, threads {threads})"
                    );
                }
                answers.push((w, b));
            }
        }
        // The incremental path is sequential scalar code: execution
        // configuration must not change a single bit.
        for (w, b) in &answers[1..] {
            prop_assert_eq!(w, &answers[0].0);
            prop_assert_eq!(b, &answers[0].1);
        }
    }

    /// Absorbing a superset and retracting a random subset (in a random
    /// interleaved order) lands exactly on the batch fit of the kept
    /// samples — the up/downdate round trip at the system level.
    #[test]
    fn online_retraction_round_trips_to_the_kept_set(
        seed in 0u64..1000,
        n_keep in 6usize..16,
        n_drop in 1usize..6,
        p in 3usize..7,
    ) {
        let (q, beta) = (2usize, 1e-3);
        let keep: Vec<_> = (0..n_keep as u64)
            .map(|i| online_sample(i.wrapping_add(seed * 31), p, q))
            .collect();
        let drop: Vec<_> = (0..n_drop as u64)
            .map(|i| online_sample(i.wrapping_add(seed * 31 + 1000), p, q))
            .collect();
        let mut learner = OnlineRidge::new(p, q, beta).expect("learner");
        for (x, t) in keep.iter().chain(&drop) {
            learner.absorb(x, t).expect("absorb");
        }
        // Retract in an order decided by the seed (forward or reverse).
        let retract: Vec<_> = if seed % 2 == 0 {
            drop.iter().collect()
        } else {
            drop.iter().rev().collect()
        };
        for (x, t) in retract {
            learner.retract(x, t).expect("retract");
        }
        prop_assert!(!learner.factor_stale(), "round trip must keep the factor live");
        let (w, b) = learner.refit().expect("refit");
        let (bw, bb) = online_batch_fit(&keep, beta);
        for (got, want) in w.as_slice().iter().zip(bw.as_slice()) {
            prop_assert!((got - want).abs() < 1e-9, "w_out {got} vs {want}");
        }
        for (got, want) in b.iter().zip(&bb) {
            prop_assert!((got - want).abs() < 1e-9, "bias {got} vs {want}");
        }
    }

    /// Retracting a sample that was never absorbed can drive the system
    /// indefinite: the downdate must fail *typed*, leave the learner
    /// serviceable (escalated refit still answers finite weights), and
    /// never panic — for any rogue vector scale. A refit pinned to
    /// Cholesky cannot escalate: on the stale (indefinite) system it
    /// fails with a typed `CoreError::Linalg`, and the learner still
    /// answers under Auto afterwards. Both refits name their policy, so
    /// the property holds under any `DFR_SOLVER`.
    #[test]
    fn online_indefinite_retraction_escalates_not_poisons(
        seed in 0u64..1000,
        scale in 2.0f64..50.0,
    ) {
        let (p, q, beta) = (4usize, 2usize, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).expect("learner");
        for i in 0..6u64 {
            let (x, t) = online_sample(i.wrapping_add(seed), p, q);
            learner.absorb(&x, &t).expect("absorb");
        }
        let (mut rogue, t) = online_sample(seed ^ 0xdead_beef, p, q);
        for v in &mut rogue {
            *v *= scale;
        }
        // The retraction itself must not panic; whether it succeeds
        // depends on the geometry, but a large enough rogue vector makes
        // the downdated system indefinite and marks the factor stale.
        let _ = learner.retract(&rogue, &t);
        let stale = learner.factor_stale();
        let (mut w, mut b) = (Matrix::zeros(0, 0), Vec::new());
        let forced = with_solver(SolverPolicy::Fixed(SolverKind::Cholesky), || {
            learner.refit_into(&mut w, &mut b)
        });
        prop_assert_eq!(forced.is_err(), stale, "forced Cholesky: {:?}", forced);
        if let Err(e) = forced {
            prop_assert!(matches!(e, CoreError::Linalg(_)), "untyped failure: {}", e);
        }
        with_solver(SolverPolicy::Auto, || learner.refit_into(&mut w, &mut b))
            .expect("escalated refit must answer");
        prop_assert!(w.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(b.iter().all(|v| v.is_finite()));
    }
}

// Whole-pipeline determinism properties are expensive (each case runs a
// full grid of reservoir passes and readout fits), so they get their own
// small case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The execution-layer determinism contract (DESIGN.md §8), end to
    /// end: the `grid::landscape` accuracy map — reservoir runs, DPRR
    /// features, β-selected ridge readouts and all — is bit-identical to
    /// serial at thread counts 1, 2 and 8.
    #[test]
    fn landscape_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        mask_seed in 0u64..1000,
    ) {
        let mut ds = dfr_data::DatasetSpec::new("landscape-par", 2, 20, 1, 12, 12, 0.35)
            .build(seed);
        dfr_data::normalize::standardize(&mut ds);
        let options = dfr_core::grid::GridOptions {
            nodes: 6,
            mask_seed,
            ..dfr_core::grid::GridOptions::default()
        };
        let serial = dfr_pool::with_threads(1, || {
            dfr_core::grid::landscape(&ds, &options, 3).unwrap()
        });
        for threads in [2usize, 8] {
            let parallel = dfr_pool::with_threads(threads, || {
                dfr_core::grid::landscape(&ds, &options, 3).unwrap()
            });
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }

    /// End-to-end trained-model identity across pool widths: the full
    /// `train` pipeline — SGD epochs on the packed mask/matvec kernels,
    /// the microkernel Gram β sweep, blocked Cholesky, batched accuracy —
    /// produces bitwise-identical models, losses and selected β at thread
    /// counts 1, 2 and 8.
    #[test]
    fn trained_model_bit_identical_across_thread_counts(seed in 0u64..1000) {
        let mut ds = dfr_data::DatasetSpec::new("train-par", 2, 18, 1, 10, 8, 0.35)
            .build(seed);
        dfr_data::normalize::standardize(&mut ds);
        let options = dfr_core::trainer::TrainOptions {
            nodes: 6,
            epochs: 3,
            ..dfr_core::trainer::TrainOptions::calibrated()
        };
        let serial = dfr_pool::with_threads(1, || {
            dfr_core::trainer::train(&ds, &options).unwrap()
        });
        for threads in [2usize, 8] {
            let parallel = dfr_pool::with_threads(threads, || {
                dfr_core::trainer::train(&ds, &options).unwrap()
            });
            prop_assert_eq!(&parallel.model, &serial.model, "model, threads={}", threads);
            prop_assert_eq!(parallel.beta.to_bits(), serial.beta.to_bits(),
                "beta, threads={}", threads);
            prop_assert_eq!(parallel.train_loss.to_bits(), serial.train_loss.to_bits(),
                "loss, threads={}", threads);
            prop_assert_eq!(parallel.test_accuracy.to_bits(), serial.test_accuracy.to_bits(),
                "accuracy, threads={}", threads);
        }
    }

    /// End-to-end trained-model identity across SIMD kernels (`DESIGN.md`
    /// §13): the full `train` pipeline produces bitwise-identical models,
    /// losses and selected β under every available kernel. Pinned
    /// at pool width 1 because the thread-local `with_kernel` override
    /// does not reach products issued from inside pool workers — whole-
    /// process kernel selection at width 4 is covered by the CI
    /// `DFR_KERNEL` × golden-digest matrix.
    #[test]
    fn trained_model_bit_identical_across_kernels(seed in 0u64..1000) {
        use dfr_linalg::kernels::{available, with_kernel, KernelKind};
        let mut ds = dfr_data::DatasetSpec::new("train-kern", 2, 18, 1, 10, 8, 0.35)
            .build(seed);
        dfr_data::normalize::standardize(&mut ds);
        let options = dfr_core::trainer::TrainOptions {
            nodes: 6,
            epochs: 3,
            ..dfr_core::trainer::TrainOptions::calibrated()
        };
        let reference = dfr_pool::with_threads(1, || {
            with_kernel(KernelKind::Scalar, || {
                dfr_core::trainer::train(&ds, &options).unwrap()
            })
        });
        for kernel in available() {
            let got = dfr_pool::with_threads(1, || {
                with_kernel(kernel.kind(), || {
                    dfr_core::trainer::train(&ds, &options).unwrap()
                })
            });
            prop_assert_eq!(&got.model, &reference.model, "model, kernel={}", kernel.name());
            prop_assert_eq!(got.beta.to_bits(), reference.beta.to_bits(),
                "beta, kernel={}", kernel.name());
            prop_assert_eq!(got.train_loss.to_bits(), reference.train_loss.to_bits(),
                "loss, kernel={}", kernel.name());
            prop_assert_eq!(got.test_accuracy.to_bits(), reference.test_accuracy.to_bits(),
                "accuracy, kernel={}", kernel.name());
        }
    }
}

// ---------------------------------------------------------------------------
// `features_for_into` against the per-sample reference.
//
// Rows come from the lane kernel (groups of four under the `avx2` kernel,
// one sample at a time otherwise); the reference stores each run and
// reduces it: `run_into` + `Dprr::features_into` + `1/T`. Every feature
// must match bit for bit and every error must be the reference's error of
// the lowest failing index, at pool widths 1 and 2 and under both the
// forced-scalar kernel (width 1) and the best detected one.
// ---------------------------------------------------------------------------

/// The per-sample reference of `features_for_into`.
fn reference_features(
    m: &DfrClassifier,
    series: &[Matrix],
) -> Result<Vec<u64>, dfr_core::CoreError> {
    use dfr_reservoir::representation::Dprr;
    let mut run = dfr_reservoir::ReservoirRun::empty();
    let mut bits = Vec::new();
    for s in series {
        m.reservoir().run_into(s, &mut run)?;
        let mut row = vec![0.0; m.feature_dim()];
        Dprr.features_into(run.states(), &mut row);
        let scale = 1.0 / (run.len().max(1) as f64);
        bits.extend(row.iter().map(|f| (f * scale).to_bits()));
    }
    Ok(bits)
}

/// Scalar (width 1) and the best detected kernel (width 4 under `avx2`).
fn lane_kernels() -> Vec<dfr_linalg::kernels::KernelKind> {
    use dfr_linalg::kernels::{available, KernelKind};
    let mut kinds = vec![KernelKind::Scalar, available()[0].kind()];
    kinds.dedup();
    kinds
}

/// Asserts `features_for_into` equals the reference — features bitwise,
/// or the identical error — at pool widths 1 and 2 under every
/// [`lane_kernels`] kernel.
fn assert_matches_reference(m: &DfrClassifier, series: &[Matrix], what: &str) {
    let want = reference_features(m, series);
    for kind in lane_kernels() {
        for threads in [1usize, 2] {
            let mut out = Matrix::zeros(0, 0);
            let got = dfr_pool::with_threads(threads, || {
                dfr_linalg::kernels::with_kernel(kind, || {
                    dfr_core::trainer::features_for_into(m, series.iter(), &mut out)
                })
            })
            .map(|()| {
                out.as_slice()
                    .iter()
                    .map(|f| f.to_bits())
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                got,
                want,
                "{what}: kernel {}, {threads} threads",
                kind.name()
            );
            if got.is_ok() {
                assert_eq!(out.shape(), (series.len(), m.feature_dim()), "{what}");
            }
        }
    }
}

/// A `T × C` series of smooth values in about ±1.
fn smooth(t: usize, c: usize, phase: f64) -> Matrix {
    Matrix::from_vec(
        t,
        c,
        (0..t * c)
            .map(|i| ((i as f64) * 0.29 + phase).sin() * 0.9)
            .collect(),
    )
    .expect("sized")
}

fn lane_model(channels: usize, a: f64, b: f64) -> DfrClassifier {
    let mut m = DfrClassifier::paper_default(5, channels, 3, 11).expect("model");
    m.reservoir_mut().set_params(a, b).expect("finite params");
    m
}

#[test]
fn features_for_matches_the_per_sample_reference_bitwise() {
    for channels in [1usize, 2, 3, 4, 62] {
        let m = lane_model(channels, 0.3, 0.45);
        for n in (1..=9).chain([13]) {
            for t in [1usize, 2, 3, 4, 5, 8, 9, 204] {
                let series: Vec<Matrix> = (0..n)
                    .map(|i| smooth(t, channels, 0.7 * i as f64))
                    .collect();
                assert_matches_reference(&m, &series, &format!("C={channels} n={n} T={t}"));
            }
        }
    }
}

#[test]
fn ragged_groups_match_the_per_sample_reference() {
    let m = lane_model(3, 0.3, 0.45);
    // Each pattern breaks an equal-length run inside a group of four, and
    // some include an empty (`0 × C`) series, whose features are zeros.
    let patterns: [&[usize]; 6] = [
        &[6, 6, 5, 6],
        &[6, 6, 6, 6, 6, 9, 6, 6, 6],
        &[4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4],
        &[0, 7, 7, 7, 7, 7, 7, 7],
        &[7, 7, 7, 7, 7, 0, 7],
        &[1, 2, 3, 4, 5, 204, 204, 204, 204, 8],
    ];
    for lens in patterns {
        let series: Vec<Matrix> = lens
            .iter()
            .enumerate()
            .map(|(i, &t)| smooth(t, 3, 0.4 * i as f64))
            .collect();
        assert_matches_reference(&m, &series, &format!("lengths {lens:?}"));
    }
}

#[test]
fn signed_zero_states_match_the_per_sample_reference() {
    // Zero inputs give exact zero states whose sign depends on the signs
    // of A and B (with A, B < 0 the chain alternates −0.0 and +0.0). The
    // rows the DPRR used to skip are folded in, and must change no bit.
    let (mut saw_zero, mut saw_negative_zero) = (false, false);
    for (a, b) in [(0.3, 0.45), (-0.3, 0.45), (0.3, -0.45), (-0.3, -0.45)] {
        let m = lane_model(2, a, b);
        let mut series = Vec::new();
        for i in 0..8 {
            let mut s = smooth(9, 2, 0.5 * i as f64);
            for k in 0..9 {
                // Zero rows in runs, some as −0.0, some series all zero.
                if i % 3 == 0 || (k + i) % 4 < 2 {
                    let z = if (k + i) % 2 == 0 { 0.0 } else { -0.0 };
                    s[(k, 0)] = z;
                    s[(k, 1)] = -z;
                }
            }
            series.push(s);
        }
        // All-zero series over every per-step sign pattern of (u₀, u₁),
        // so the mask products take both zero signs.
        for pattern in 0..16u32 {
            let signed = |bit: u32| {
                if pattern >> (bit % 4) & 1 == 1 {
                    -0.0
                } else {
                    0.0
                }
            };
            let rows: Vec<f64> = (0..9u32).flat_map(|k| [signed(k), signed(k + 1)]).collect();
            series.push(Matrix::from_vec(9, 2, rows).expect("sized"));
        }
        for s in &series {
            let run = m.reservoir().run(s).expect("stable");
            let states = run.states().as_slice();
            saw_zero |= states.iter().any(|v| v.to_bits() == 0.0f64.to_bits());
            saw_negative_zero |= states.iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
        }
        assert_matches_reference(&m, &series, &format!("zeros A={a} B={b}"));
    }
    assert!(
        saw_zero && saw_negative_zero,
        "states must hit +0.0 and −0.0"
    );
}

#[test]
fn diverging_lanes_report_the_per_sample_error() {
    let m = lane_model(1, 0.5, 0.4);
    // A 1e7 spike at step `k` pushes |s| past the divergence limit there.
    let spike = |k: usize| {
        let mut s = smooth(12, 1, 0.3);
        s[(k, 0)] = 1e7;
        s
    };
    let calm = |i: usize| smooth(12, 1, 0.9 * i as f64);
    let cases: [(&str, Vec<(usize, usize)>); 6] = [
        ("lane 0", vec![(0, 5)]),
        ("middle lane", vec![(1, 5)]),
        ("last lane", vec![(3, 5)]),
        ("two lanes, later one first", vec![(1, 9), (2, 2)]),
        ("second group", vec![(6, 0)]),
        ("two groups", vec![(7, 3), (1, 11)]),
    ];
    for (what, spikes) in cases {
        let series: Vec<Matrix> = (0..9)
            .map(|i| match spikes.iter().find(|(lane, _)| *lane == i) {
                Some(&(_, k)) => spike(k),
                None => calm(i),
            })
            .collect();
        let want = reference_features(&m, &series);
        assert!(
            matches!(
                want,
                Err(dfr_core::CoreError::Reservoir(
                    dfr_reservoir::ReservoirError::Diverged { .. }
                ))
            ),
            "{what}: the reference must diverge"
        );
        assert_matches_reference(&m, &series, what);
    }
}

#[test]
fn channel_mismatch_and_empty_series_report_the_per_sample_error() {
    let m = lane_model(2, 0.3, 0.45);
    let ok = |i: usize| smooth(6, 2, i as f64);
    let cases: [(&str, Vec<Matrix>); 5] = [
        (
            "wide series in a group",
            vec![ok(0), ok(1), smooth(6, 3, 0.0), ok(3)],
        ),
        (
            "0 × 0 series",
            vec![ok(0), Matrix::zeros(0, 0), ok(2), ok(3), ok(4)],
        ),
        (
            "0 × C series",
            vec![ok(0), ok(1), Matrix::zeros(0, 2), ok(3)],
        ),
        (
            "mismatch after a divergence",
            vec![ok(0), Matrix::filled(6, 2, 1e7), smooth(6, 1, 0.0), ok(3)],
        ),
        (
            "divergence after a mismatch",
            vec![ok(0), smooth(6, 1, 0.0), Matrix::filled(6, 2, 1e7), ok(3)],
        ),
    ];
    for (what, series) in cases {
        assert_matches_reference(&m, &series, what);
    }
}

// ---------------------------------------------------------------------------
// `trainer::evaluate` against per-sample prediction.
//
// `evaluate` takes the grid-search path (`features_for`, then one batched
// readout pass); its accuracy must equal, bit for bit, the fraction of
// test samples whose per-sample `forward(s).prediction()` hits the label,
// and its error must be the per-sample path's error of the lowest failing
// index — at pool widths 1, 2 and 8, and under every available kernel
// (width 1, where `with_kernel` reaches every product).
// ---------------------------------------------------------------------------

/// Accuracy (as bits) counted from per-sample predictions, or the error of
/// the lowest failing test index.
fn per_sample_accuracy(m: &DfrClassifier, ds: &dfr_data::Dataset) -> Result<u64, CoreError> {
    let mut correct = 0usize;
    for s in ds.test() {
        if m.forward(&s.series)?.prediction() == s.label {
            correct += 1;
        }
    }
    let n = ds.test().len();
    let accuracy = if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    };
    Ok(accuracy.to_bits())
}

fn assert_evaluate_matches(m: &DfrClassifier, ds: &dfr_data::Dataset, what: &str) {
    use dfr_linalg::kernels::{available, with_kernel};
    let want = per_sample_accuracy(m, ds);
    let evaluate = || dfr_core::trainer::evaluate(m, ds).map(f64::to_bits);
    for threads in [1usize, 2, 8] {
        let got = dfr_pool::with_threads(threads, evaluate);
        assert_eq!(got, want, "{what}: {threads} threads");
    }
    for kernel in available() {
        let got = dfr_pool::with_threads(1, || with_kernel(kernel.kind(), evaluate));
        assert_eq!(got, want, "{what}: kernel {}", kernel.name());
    }
}

/// `ds` with its test series cut to the given lengths (cycled), so lane
/// groups break and fall back to one-lane reruns.
fn ragged_test_split(ds: &dfr_data::Dataset, lens: &[usize]) -> dfr_data::Dataset {
    let test = ds
        .test()
        .iter()
        .zip(lens.iter().cycle())
        .map(|(s, &t)| {
            let c = s.series.cols();
            let rows = s.series.as_slice()[..t * c].to_vec();
            dfr_data::Sample::new(Matrix::from_vec(t, c, rows).expect("sized"), s.label)
        })
        .collect();
    dfr_data::Dataset::new("ragged", ds.num_classes(), ds.train().to_vec(), test).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn evaluate_equals_per_sample_prediction_bitwise(
        seed in 0u64..1000,
        a in 0.02_f64..0.4,
        b in 0.02_f64..0.4,
        w_scale in 0.5_f64..8.0,
    ) {
        let mut m = classifier(a, b, w_scale, seed);
        for (c, bias) in m.bias_mut().iter_mut().enumerate() {
            *bias = (((c as u64 * 13 + seed) % 7) as f64 / 7.0 - 0.5) * w_scale * 0.1;
        }
        // 13 equal-length test series: three full 4-lane groups and one
        // lone sample.
        let ds = dfr_data::DatasetSpec::new("eval-eq", 3, 12, 2, 4, 13, 0.35).build(seed);
        assert_evaluate_matches(&m, &ds, "equal lengths");
        let ragged = ragged_test_split(&ds, &[12, 11, 12, 12, 7, 1, 12, 0, 12]);
        assert_evaluate_matches(&m, &ragged, "ragged lengths");
    }
}

#[test]
fn evaluate_reports_the_per_sample_error() {
    let m = classifier(0.5, 0.4, 2.0, 3);
    let ds = dfr_data::DatasetSpec::new("eval-err", 3, 12, 2, 4, 11, 0.35).build(1);
    // 1e7 spikes push |s| past the divergence limit: samples 9 (early step)
    // and 5 (later step) diverge, and 5 is the lowest failing index.
    let mut test = ds.test().to_vec();
    for (i, k) in [(9usize, 1usize), (5, 8)] {
        test[i].series[(k, 0)] = 1e7;
        test[i].series[(k, 1)] = 1e7;
    }
    let spiked = dfr_data::Dataset::new("spiked", 3, ds.train().to_vec(), test).expect("valid");
    let want = per_sample_accuracy(&m, &spiked);
    assert!(
        matches!(
            want,
            Err(CoreError::Reservoir(
                dfr_reservoir::ReservoirError::Diverged { .. }
            ))
        ),
        "the per-sample path must diverge: {want:?}"
    );
    assert_evaluate_matches(&m, &spiked, "diverging samples");

    // A model built for three channels meets two-channel series.
    let wide = DfrClassifier::paper_default(4, 3, 3, 1).expect("model");
    assert!(per_sample_accuracy(&wide, &ds).is_err());
    assert_evaluate_matches(&wide, &ds, "channel mismatch");

    let empty =
        dfr_data::Dataset::new("empty-test", 3, ds.train().to_vec(), vec![]).expect("valid");
    assert_eq!(per_sample_accuracy(&m, &empty), Ok(0.0f64.to_bits()));
    assert_evaluate_matches(&m, &empty, "empty test split");
}

/// The solver ladder (DESIGN.md §15) through the real pipeline: every
/// degenerate stream family goes through reservoir features and a
/// β sweep with an unregularised β = 0 candidate on top of the paper's
/// grid. `Auto` always yields a finite readout, and escalates wherever
/// plain Cholesky fails. The per-family counts are pinned at seed 0.
#[test]
fn degenerate_families_escalate_to_finite_readouts() {
    use dfr_core::readout::{fit_readout_with, ReadoutScratch, PAPER_BETAS};
    use dfr_data::{degenerate_dataset, DatasetSpec, Degeneracy};

    let spec = DatasetSpec::new("DEGEN", 2, 48, 3, 16, 8, 0.4);
    let mut betas = vec![0.0];
    betas.extend_from_slice(&PAPER_BETAS);
    // (family, β candidates Cholesky fails, β candidates Auto escalates)
    let pinned = [("constant", 0, 1), ("duplicated", 1, 1), ("nearzero", 0, 1)];
    for (kind, (name, want_failed, want_escalated)) in Degeneracy::ALL.into_iter().zip(pinned) {
        assert_eq!(kind.name(), name);
        let ds = degenerate_dataset(&spec, kind, 0).expect("valid spec");
        let model =
            DfrClassifier::paper_default(10, ds.channels(), ds.num_classes(), 1).expect("model");
        let x = dfr_core::trainer::features_for(&model, ds.train().iter().map(|s| &s.series))
            .expect("features");
        let y = ds.one_hot_train();
        let mut scratch = ReadoutScratch::new();
        let _ = with_solver(SolverPolicy::Fixed(SolverKind::Cholesky), || {
            fit_readout_with(&x, &y, &betas, &mut scratch)
        });
        let failed = scratch
            .solver_reports()
            .iter()
            .filter(|r| !r.is_ok())
            .count();
        let fit = with_solver(SolverPolicy::Auto, || {
            fit_readout_with(&x, &y, &betas, &mut scratch)
        })
        .expect("auto always produces a readout");
        let escalated = scratch
            .solver_reports()
            .iter()
            .filter(|r| r.escalated)
            .count();
        assert!(
            fit.w_out
                .as_slice()
                .iter()
                .chain(&fit.bias)
                .all(|v| v.is_finite()),
            "{name}: non-finite readout"
        );
        if failed > 0 {
            assert!(
                escalated > 0,
                "{name}: Cholesky failed but nothing escalated"
            );
        }
        assert_eq!((failed, escalated), (want_failed, want_escalated), "{name}");
    }
}

/// Prequential (test-then-train) accuracy over one drifting stream:
/// first- and second-half accuracy of a learner with forgetting factor
/// `forget`, refitted after every absorbed sample.
fn prequential_halves(kind: dfr_data::DriftKind, forget: f64) -> (f64, f64) {
    let spec = dfr_data::DatasetSpec::new("DRIFT", 3, 40, 2, 0, 0, 0.3).with_class_sep(2.0);
    let q = spec.num_classes;
    let stream = dfr_data::drifting_stream(&spec, kind, 0, 240).expect("valid spec");
    let model = DfrClassifier::paper_default(10, spec.channels, q, 1).expect("model");
    let forward = StreamingForward::paper();
    let mut learner =
        OnlineRidge::with_forgetting(model.feature_dim(), q, 1e-4, forget).expect("config");
    let mut cache = StreamingCache::empty();
    let mut w_out = Matrix::zeros(q, model.feature_dim());
    let mut bias = Vec::new();
    let (mut correct, mut counted) = ([0usize; 2], [0usize; 2]);
    for (i, sample) in stream.iter().enumerate() {
        forward
            .run_into(&model, &sample.series, &mut cache)
            .expect("finite series");
        if i >= q {
            let half = usize::from(2 * i >= stream.len());
            let logits: Vec<f64> = (0..q)
                .map(|c| {
                    bias[c]
                        + w_out
                            .row(c)
                            .iter()
                            .zip(&cache.features)
                            .map(|(w, v)| w * v)
                            .sum::<f64>()
                })
                .collect();
            let guess = dfr_linalg::stats::argmax(&logits).expect("q > 0");
            correct[half] += usize::from(guess == sample.label);
            counted[half] += 1;
        }
        learner
            .absorb_label(&cache.features, sample.label)
            .expect("finite features");
        learner.refit_into(&mut w_out, &mut bias).expect("refit");
    }
    assert!(
        !learner.factor_stale(),
        "{kind}: drift destabilised the factor"
    );
    let acc = |h: usize| correct[h] as f64 / counted[h] as f64;
    (acc(0), acc(1))
}

/// Forgetting earns its keep on drift (EXPERIMENTS.md E9): with
/// λ = 0.97 the second-half accuracy beats never-forgetting (λ = 1) by
/// at least 0.10 under gradual and abrupt drift. On the recurring
/// family, where the first distribution returns, no direction is
/// claimed; the run must only keep its factor healthy.
#[test]
fn online_forgetting_beats_remembering_on_drifting_streams() {
    use dfr_data::DriftKind;
    with_solver(SolverPolicy::Auto, || {
        for kind in [DriftKind::Gradual, DriftKind::Abrupt] {
            let (_, remember) = prequential_halves(kind, 1.0);
            let (_, forget) = prequential_halves(kind, 0.97);
            assert!(
                forget >= remember + 0.10,
                "{kind}: λ = 0.97 second half {forget:.3} vs λ = 1 {remember:.3}"
            );
        }
        prequential_halves(DriftKind::Recurring, 1.0);
        prequential_halves(DriftKind::Recurring, 0.97);
    });
}
