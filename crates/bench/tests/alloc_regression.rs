//! Allocation-count regression test for the training hot path.
//!
//! Installs a counting global allocator and proves that, after warm-up,
//! one SGD step (buffer-reusing forward pass + backward pass + parameter
//! update) performs **zero** heap allocations — the contract behind the
//! workspace-buffer convention of `DESIGN.md` §9. The same is pinned for
//! the inference forward pass, the streaming (constant-memory) step, the
//! lane feature kernel and the `RidgePlan` β-sweep.
//!
//! Gated behind the `count-allocs` feature so normal test runs keep the
//! system allocator untouched:
//!
//! ```text
//! cargo test -p dfr-bench --features count-allocs --test alloc_regression --release
//! ```
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dfr_core::backprop::{backprop_into, BackpropOptions};
use dfr_core::online::OnlineRidge;
use dfr_core::optimizer::{ParamBounds, Sgd};
use dfr_core::streaming::{streaming_backprop_into, StreamingCache, StreamingForward};
use dfr_core::workspace::TrainWorkspace;
use dfr_core::{DfrClassifier, ForwardCache};
use dfr_linalg::ridge::RidgePlan;
use dfr_linalg::solver::{with_solver, SolverKind, SolverPolicy};
use dfr_linalg::{GemmWorkspace, Matrix};
use dfr_serve::{FrozenModel, ServeSession};

/// Forwards to the system allocator, counting every allocation made by a
/// thread whose `COUNTING` flag is up. Deallocations are not counted:
/// freeing warm-up storage inside the measured region would be legal,
/// allocating is not.
///
/// The flag is **thread-local** (const-initialised `Cell`, so reading it
/// inside the allocator cannot itself allocate): the default test harness
/// runs the `#[test]` fns concurrently, and a process-global flag would
/// attribute another test's setup allocations to whichever test is
/// measuring — a flaky false positive. A mutex additionally serialises
/// the measured sections so the shared counter belongs to one test at a
/// time.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Whether the current thread is inside a measured region.
/// (`try_with`: the thread-local may be gone during thread teardown.)
fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Counts allocations performed by `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _serialise = MEASURE_LOCK.lock().expect("measure lock");
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::SeqCst), r)
}

fn model_and_series(nx: usize, t: usize) -> (DfrClassifier, Matrix, Vec<f64>) {
    let mut model = DfrClassifier::paper_default(nx, 3, 4, 0).expect("model");
    model.reservoir_mut().set_params(0.05, 0.1).expect("params");
    for j in 0..model.feature_dim() {
        model.w_out_mut()[(0, j)] = 0.01 * ((j % 11) as f64 - 5.0);
        model.w_out_mut()[(2, j)] = -0.02 * ((j % 7) as f64 - 3.0);
    }
    let data: Vec<f64> = (0..t * 3).map(|i| ((i as f64) * 0.29).sin()).collect();
    let series = Matrix::from_vec(t, 3, data).expect("sized");
    (model, series, vec![0.0, 0.0, 1.0, 0.0])
}

#[test]
fn sgd_step_is_allocation_free_after_warmup() {
    // Serial region: the pool spawns no threads, so any allocation counted
    // below comes from the step itself.
    dfr_pool::with_threads(1, || {
        let (mut model, series, target) = model_and_series(30, 120);
        let masked = model.reservoir().mask().apply(&series);
        let options = BackpropOptions::default();
        let bounds = ParamBounds::default();
        let mut sgd = Sgd::new();
        let mut ws = TrainWorkspace::new();

        let mut step = |model: &mut DfrClassifier, ws: &mut TrainWorkspace| {
            model
                .forward_masked_into(&masked, &mut ws.cache)
                .expect("forward");
            let TrainWorkspace { cache, bp, .. } = ws;
            backprop_into(model, &series, cache, &target, &options, bp).expect("backprop");
            assert!(bp.grads.is_finite());
            sgd.step(model, &bp.grads, 1e-4, 1e-4, &bounds)
                .expect("sgd");
        };

        for _ in 0..3 {
            step(&mut model, &mut ws); // warm-up: buffers reach steady state
        }
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..100 {
                step(&mut model, &mut ws);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up SGD steps must not allocate ({allocs} allocations in 100 steps)"
        );
    });
}

/// The inference forward pass: the mask product packs into the
/// workspace the cache's `ReservoirRun` owns, so a warm cache serves every
/// later series of at most the warm-up length without allocating.
#[test]
fn forward_into_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (model, series, _) = model_and_series(30, 120);
        let mut cache = ForwardCache::empty();
        model.forward_into(&series, &mut cache).expect("forward"); // warm-up
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..100 {
                model.forward_into(&series, &mut cache).expect("forward");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up forward passes must not allocate ({allocs} allocations in 100 passes)"
        );
    });
}

#[test]
fn streaming_step_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (model, series, target) = model_and_series(20, 80);
        let forward = StreamingForward::paper();
        let mut cache = StreamingCache::empty();
        let mut bp = dfr_core::workspace::BackpropWorkspace::new();
        let mut step = || {
            forward.run_into(&model, &series, &mut cache).expect("run");
            streaming_backprop_into(&model, &cache, &target, &mut bp).expect("backprop");
        };
        for _ in 0..3 {
            step();
        }
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..100 {
                step();
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up streaming steps must not allocate ({allocs} allocations in 100 steps)"
        );
    });
}

#[test]
fn lane_kernel_is_allocation_free_after_warmup() {
    use dfr_reservoir::lanes::{dprr_lanes, LaneScratch};
    use dfr_reservoir::representation::Dprr;
    let (model, long, _) = model_and_series(30, 120);
    let (_, short, _) = model_and_series(30, 5);
    let dfr = model.reservoir();
    let dim = Dprr.dim(30);
    let mut out = vec![0.0; 4 * dim];
    let mut scratch = LaneScratch::new();
    // Warm up on short series: the scratch holds no T-sized buffer, so
    // groups of any length reuse it.
    dprr_lanes::<_, 4>(dfr, &[&short; 4], &mut out, &mut scratch).expect("lanes");
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..20 {
            dprr_lanes::<_, 4>(dfr, &[&long; 4], &mut out, &mut scratch).expect("lanes");
            dprr_lanes::<_, 1>(dfr, &[&long], &mut out[..dim], &mut scratch).expect("lane");
        }
    });
    assert_eq!(
        allocs, 0,
        "post-warm-up lane groups must not allocate ({allocs} allocations in 40 groups)"
    );
}

#[test]
fn packed_matmul_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let n = 48;
        let a = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i as f64) * 0.37).sin()).collect(),
        )
        .expect("sized");
        let b = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|i| ((i as f64) * 0.11).cos()).collect(),
        )
        .expect("sized");
        let mut ws = GemmWorkspace::new();
        let mut out = Matrix::zeros(0, 0);
        let all = |ws: &mut GemmWorkspace, out: &mut Matrix| {
            a.matmul_into(&b, out, ws).expect("matmul");
            a.t_matmul_into(&b, out, ws).expect("t_matmul");
            a.matmul_t_into(&b, out, ws).expect("matmul_t");
            a.gram_into(out, ws);
            a.gram_t_into(out, ws);
        };
        all(&mut ws, &mut out); // warm-up: pack buffers reach high water
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..10 {
                all(&mut ws, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up packed products must not allocate ({allocs} allocations in 10 rounds)"
        );
    });
}

#[test]
fn predict_batch_is_allocation_free_after_warmup() {
    // Serial region, as for the other pins: the pool spawns no threads, so
    // any allocation counted below comes from the serving step itself.
    dfr_pool::with_threads(1, || {
        let (mut model, _, _) = model_and_series(20, 10);
        // Dense readout so predictions exercise real arithmetic.
        for j in 0..model.feature_dim() {
            model.w_out_mut()[(j % 4, j)] = 0.015 * ((j % 9) as f64 - 4.0);
        }
        let frozen = FrozenModel::freeze(&model);
        // Ragged workload, longest series first reached during warm-up.
        let series: Vec<Matrix> = (0..48)
            .map(|i| {
                let t = 8 + (i * 13) % 90;
                Matrix::from_vec(
                    t,
                    3,
                    (0..t * 3).map(|k| ((k + i) as f64 * 0.21).sin()).collect(),
                )
                .expect("sized")
            })
            .collect();
        // The session owns every workspace; one warm call brings its
        // buffers to their high-water mark.
        let mut session = ServeSession::builder(frozen).max_batch(16).build();
        session.predict_batch(&series).expect("warm-up batch");
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..50 {
                session.predict_batch(&series).expect("steady-state batch");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up ServeSession::predict_batch must not allocate ({allocs} allocations in 50 calls)"
        );

        // The per-sample serving form holds the same contract, and no
        // buffer of it grows with T: warmed on the *shortest* series, it
        // serves every longer one without allocating. The model carries no
        // normalization, whose buffer is still T × C and would grow.
        let shortest = series
            .iter()
            .min_by_key(|s| s.rows())
            .expect("non-empty")
            .clone();
        session.predict_one(&shortest).expect("warm-up");
        let (allocs, ()) = count_allocs(|| {
            for s in &series {
                session.predict_one(s).expect("steady-state");
            }
        });
        assert_eq!(
            allocs,
            0,
            "ServeSession::predict_one warmed on T = {} must not allocate ({allocs} allocations)",
            shortest.rows()
        );
    });
}

#[test]
fn ridge_plan_sweep_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let n = 40;
        let p = 25;
        let x = Matrix::from_vec(
            n,
            p,
            (0..n * p).map(|i| ((i as f64) * 0.13).sin()).collect(),
        )
        .expect("sized");
        let mut y = Matrix::zeros(n, 5);
        for i in 0..n {
            y[(i, i % 5)] = 1.0;
        }
        let mut plan = RidgePlan::new(&x, &y).expect("plan");
        let mut w = Matrix::zeros(0, 0);
        plan.solve_into(1e-4, &mut w).expect("warm-up solve");
        // Per-β work after warm-up: re-add βI, refactor, substitute — all
        // in reused buffers. In particular the Gram matrix is never
        // recomputed (construction-time only), which this count pins.
        let (allocs, ()) = count_allocs(|| {
            for &beta in &[1e-6, 1e-4, 1e-2, 1.0] {
                plan.solve_into(beta, &mut w).expect("solve");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up RidgePlan sweeps must not allocate ({allocs} allocations)"
        );
    });
}

/// The online continual-learning hot path (DESIGN.md §16): after
/// warm-up, absorbing a sample (rank-1 Cholesky update of the
/// intercept-augmented system), retracting one (rank-1 downdate) and
/// refitting the readout off the warm factor all run without touching
/// the allocator — on both Auto refit paths: the conditioning
/// certificate answers before the first retract, Hager's vet after it.
/// Publishing is deliberately not pinned — freezing a model's byte
/// layout is a fresh allocation by design.
#[test]
fn online_absorb_retract_refit_are_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (p, q, beta) = (40usize, 4usize, 1e-4);
        let mut learner = OnlineRidge::new(p, q, beta).expect("learner");
        let mut features = vec![0.0f64; p];
        let fill = |buf: &mut [f64], k: usize| {
            for (j, v) in buf.iter_mut().enumerate() {
                *v = ((k * 31 + j * 7) as f64 * 0.173).sin();
            }
        };
        // ‖φ‖² of φ = [x, 1]: the learner's `λ_max` bound gains it per absorb.
        let phi_sq = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>() + 1.0;
        let mut w = Matrix::zeros(0, 0);
        let mut b = Vec::new();
        // One-hot targets prepared up front: building them inside the
        // measured region would charge the pin for test scaffolding.
        let targets: Vec<Vec<f64>> = (0..q).map(|c| one_hot(q, c)).collect();
        // Warm-up: the rank-1 work vector and the refit output buffers
        // reach their high-water marks. No retract here: it would lapse
        // the certificate for good. The vet's work vector is sized at
        // construction, so its first use inside the pin allocates nothing.
        let mut hi = beta;
        for k in 0..4 {
            fill(&mut features, k);
            learner.absorb_label(&features, k % q).expect("absorb");
            hi += phi_sq(&features);
        }
        with_solver(SolverPolicy::Auto, || learner.refit_into(&mut w, &mut b)).expect("refit");

        // Per refit: the reported rcond and `β/(n·hi)`. The certificate
        // never exceeds that ratio; Hager's estimate bounds the true rcond
        // from above, which is at least `λ_min/(n·λ_max) > β/(n·hi)` while
        // the system stays ⪰ βI, as retract-then-re-absorb keeps it.
        let mut seen = [(0.0f64, 0.0f64); 4];
        let n = (p + 1) as f64;
        let (allocs, ()) = count_allocs(|| {
            for k in 4..104 {
                fill(&mut features, k);
                learner.absorb_label(&features, k % q).expect("absorb");
                hi += phi_sq(&features);
                if k >= 30 && k % 10 == 0 {
                    // Retracting the sample just absorbed always leaves
                    // the system positive definite.
                    learner
                        .retract(&features, &targets[k % q])
                        .expect("retract");
                    learner.absorb_label(&features, k % q).expect("re-absorb");
                    hi += phi_sq(&features);
                }
                if k % 25 == 0 {
                    with_solver(SolverPolicy::Auto, || learner.refit_into(&mut w, &mut b))
                        .expect("refit");
                    let rcond = learner.last_report().rcond.expect("auto rcond");
                    seen[k / 25 - 1] = (rcond, beta / (n * hi));
                }
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up online absorb/retract/refit must not allocate ({allocs} allocations in 100 steps)"
        );
        assert!(!learner.factor_stale());
        let (rcond, ceiling) = seen[0];
        assert!(
            rcond <= ceiling,
            "refit before the first retract was not certified: rcond {rcond:e} > {ceiling:e}"
        );
        for (rcond, ceiling) in &seen[1..] {
            assert!(
                rcond > ceiling,
                "refit after a retract was not vetted: rcond {rcond:e} <= {ceiling:e}"
            );
        }
    });
}

/// One-hot helper for the online pin (allocates — call outside measured
/// regions only, or before warm-up).
fn one_hot(q: usize, label: usize) -> Vec<f64> {
    let mut t = vec![0.0; q];
    t[label] = 1.0;
    t
}

/// The serving-stack absorb ([`OnlinePublisher::absorb`]) adds a
/// streaming forward pass in front of the rank-1 update; the combined
/// step holds the same zero-allocation contract.
#[test]
fn publisher_absorb_is_allocation_free_after_warmup() {
    use dfr_server::{ModelRegistry, OnlinePublisher, PublisherConfig};
    use std::sync::Arc;

    dfr_pool::with_threads(1, || {
        let (model, series, _) = model_and_series(20, 60);
        let registry = Arc::new(ModelRegistry::new(FrozenModel::freeze(&model)));
        let mut publisher = OnlinePublisher::new(
            model,
            1e-4,
            registry,
            PublisherConfig {
                publish_every: usize::MAX, // never publish inside the pin
                min_interval: std::time::Duration::ZERO,
            },
        )
        .expect("publisher");
        for k in 0..3 {
            publisher.absorb(&series, k % 4).expect("warm-up absorb");
        }
        let (allocs, ()) = count_allocs(|| {
            for k in 3..53 {
                publisher.absorb(&series, k % 4).expect("absorb");
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up publisher absorb must not allocate ({allocs} allocations in 50 steps)"
        );
    });
}

/// The `DESIGN.md` §15 escalation holds the same contract as the fast
/// path: once the QR/SVD factor scratch and the rcond work vector have
/// reached their high-water marks, pinned-backend solves, failing
/// Cholesky attempts and the full Cholesky → QR → SVD walk on a singular
/// Gram all run without touching the allocator.
#[test]
fn solver_escalation_is_allocation_free_after_warmup() {
    dfr_pool::with_threads(1, || {
        let (n, p) = (30, 12);
        let mut x = Matrix::from_vec(
            n,
            p,
            (0..n * p).map(|i| ((i as f64) * 0.13).sin()).collect(),
        )
        .expect("sized");
        // Exact dependence: the last column duplicates the first, so the
        // β = 0 Gram is singular and `Auto` walks every escalation rung.
        for i in 0..n {
            x[(i, p - 1)] = x[(i, 0)];
        }
        let mut y = Matrix::zeros(n, 4);
        for i in 0..n {
            y[(i, i % 4)] = 1.0;
        }
        let mut plan = RidgePlan::new(&x, &y).expect("plan");
        let mut w = Matrix::zeros(0, 0);
        let policies = [
            SolverPolicy::Fixed(SolverKind::Cholesky),
            SolverPolicy::Fixed(SolverKind::Qr),
            SolverPolicy::Fixed(SolverKind::Svd),
            SolverPolicy::Auto,
        ];
        let sweep = |plan: &mut RidgePlan, w: &mut Matrix| {
            for policy in policies {
                for &beta in &[0.0, 1e-4, 1e-2] {
                    // β = 0 legitimately fails under the pinned
                    // Cholesky/QR backends (that *is* the escalation
                    // trigger); the error paths must be as
                    // allocation-free as the successes.
                    let _ = with_solver(policy, || plan.solve_into(beta, w));
                }
            }
        };
        sweep(&mut plan, &mut w); // warm-up: factor + rcond scratch fill
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..5 {
                sweep(&mut plan, &mut w);
            }
        });
        assert_eq!(
            allocs, 0,
            "post-warm-up solver escalation must not allocate ({allocs} allocations)"
        );
    });
}

/// A failed rank-1 up/downdate leaves the factor invalid: every solve
/// and rotation then answers the failure until a refactorisation. After
/// warm-up the failure paths (overflow on either path, indefiniteness on
/// the downdate), the refusals and the refactorisation that heals the
/// factor are as allocation-free as successes.
#[test]
fn rank1_failure_and_refactor_are_allocation_free_after_warmup() {
    use dfr_linalg::cholesky::Cholesky;

    let n = 40;
    let mut seed = Matrix::identity(n);
    seed.scale(4.0);
    let mut chol = Cholesky::factor(&seed).expect("seed");
    let mut work = Vec::new();
    let mut solved = Matrix::zeros(0, 0);
    let mut rhs = vec![0.0; n];
    let x: Vec<f64> = (0..n).map(|i| 0.1 * ((i as f64) * 0.37).sin()).collect();
    let mut overflow = x.clone();
    overflow[n / 2] = f64::MAX.sqrt() * 2.0;
    let mut indefinite = x.clone();
    indefinite[n - 1] = 10.0;
    let mut step = |chol: &mut Cholesky| {
        for (bad, downdate) in [(&overflow, false), (&overflow, true), (&indefinite, true)] {
            chol.rank1_update(&x, &mut work).expect("update");
            let failed = if downdate {
                chol.rank1_downdate(bad, &mut work)
            } else {
                chol.rank1_update(bad, &mut work)
            };
            assert!(failed.is_err() && !chol.is_valid());
            assert!(chol.solve_into(&seed, &mut solved).is_err());
            assert!(chol.solve_vec_in_place(&mut rhs).is_err());
            assert!(chol.rank1_downdate(&x, &mut work).is_err());
            assert_eq!(chol.rcond_1_est(16.0, &mut work), 0.0);
            Cholesky::factor_into(&seed, chol).expect("refactor");
            chol.solve_into(&seed, &mut solved).expect("solve");
        }
    };
    step(&mut chol); // warm-up: work vector, packing scratch, solve output
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..20 {
            step(&mut chol);
        }
    });
    assert_eq!(
        allocs, 0,
        "post-warm-up rank-1 failure, refusal and refactor paths must not allocate ({allocs} allocations)"
    );
}
