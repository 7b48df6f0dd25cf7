//! Honest numbers for the online continual-learning path (`DESIGN.md`
//! §16): the rank-1 up/downdated [`OnlineRidge`] against the from-scratch
//! [`RidgePlan`] refit it replaces, plus a prequential sweep over the
//! drifting-stream families.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin online_bench [-- --repeat 5 \
//!     --p 462 --seed 0 --threads 1]
//! ```
//!
//! **Part 1 — absorb vs refit.** At the DPRR feature width of the paper's
//! largest configurations (`p = N_x(N_x+1) = 462` for `N_x = 21`; `--p`
//! overrides), one new labelled sample costs either a rank-1 absorb
//! (`O(p²)`) plus a warm-factor readout refit (`O(p²q)`), or a full
//! from-scratch `RidgePlan` build-and-solve (`O(np² + p³/3)`). Before a
//! row is recorded the two answers are verified against each other: the
//! incrementally maintained weights must agree with the batch refit on
//! the identical sample set to `1e-9`. The recorded speedup is asserted
//! `≥ 5×` — the bar the online path has to clear to be worth its
//! complexity.
//!
//! **Part 2 — drifting streams.** Each [`DriftKind`] family is run
//! prequentially (test-then-train on every sample, no splits) through
//! the real pipeline (streaming forward pass → online readout) twice:
//! once with `λ = 1` (never forget) and once with an exponential
//! forgetting factor. First-half / second-half accuracies are recorded
//! so the cost of remembering a dead distribution is visible in the
//! numbers rather than asserted away.

use dfr_bench::{
    apply_threads, git_rev, json_array, json_f64, json_object, json_str, row, sample_stats,
    write_results, Args,
};
use dfr_core::online::OnlineRidge;
use dfr_core::streaming::{StreamingCache, StreamingForward};
use dfr_core::DfrClassifier;
use dfr_data::rng::{randn, seeded_rng};
use dfr_data::{drifting_stream, DatasetSpec, DriftKind};
use dfr_linalg::ridge::{augment_ones, RidgeMode, RidgePlan};
use dfr_linalg::Matrix;
use std::time::Instant;

fn time_samples<R>(repeat: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut result = f();
    let mut samples = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let t0 = Instant::now();
        result = f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    (samples, result)
}

/// A seeded Gaussian feature vector, the synthetic stand-in for one DPRR
/// feature row at width `p`.
fn feature_row(seed: u64, i: u64, p: usize, out: &mut Vec<f64>) {
    let mut rng = seeded_rng("online-bench", &[seed, i]);
    out.clear();
    out.extend((0..p).map(|_| randn(&mut rng)));
}

/// Argmax readout prediction `argmax_c (W x + b)_c`.
fn predict(w_out: &Matrix, bias: &[f64], x: &[f64]) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (c, b) in bias.iter().enumerate() {
        let score = b + w_out.row(c).iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
        if score > best.1 {
            best = (c, score);
        }
    }
    best.0
}

/// Part 1: rank-1 absorb + warm refit vs from-scratch `RidgePlan`, with
/// the differential verification run before anything is recorded.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn bench_absorb_vs_refit(
    repeat: usize,
    seed: u64,
    p: usize,
    warmup: usize,
    block: usize,
    threads: usize,
    cores: usize,
    json_rows: &mut Vec<String>,
) {
    let q = 4;
    let beta = 1e-4;
    let mut learner = OnlineRidge::new(p, q, beta).expect("valid config");
    let mut features = Vec::with_capacity(p);
    let mut absorbed: Vec<(Vec<f64>, usize)> = Vec::new();
    let mut next = 0u64;
    for _ in 0..warmup {
        feature_row(seed, next, p, &mut features);
        let label = (next as usize) % q;
        learner
            .absorb_label(&features, label)
            .expect("finite sample");
        absorbed.push((features.clone(), label));
        next += 1;
    }

    // Absorb cost per sample: timed in blocks so the clock granularity
    // never dominates an O(p²) step. (Recording the sample for the
    // batch oracle is excluded from the timed region.)
    let mut block_samples = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let staged: Vec<(Vec<f64>, usize)> = (0..block)
            .map(|k| {
                feature_row(seed, next + k as u64, p, &mut features);
                (features.clone(), (next + k as u64) as usize % q)
            })
            .collect();
        let t0 = Instant::now();
        for (x, label) in &staged {
            learner.absorb_label(x, *label).expect("finite sample");
        }
        block_samples.push(t0.elapsed().as_secs_f64() / block as f64);
        next += block as u64;
        absorbed.extend(staged);
    }
    let (absorb_mean, absorb_median, absorb_stddev) = sample_stats(&block_samples);

    // Warm-factor readout refit (the other half of an online step).
    let mut w_out = Matrix::zeros(q, p);
    let mut bias = Vec::new();
    let (refit_samples, ()) = time_samples(repeat, || {
        learner
            .refit_into(&mut w_out, &mut bias)
            .expect("warm refit");
    });
    let (_, refit_median, _) = sample_stats(&refit_samples);

    // From-scratch batch refit on the identical sample set: matrix
    // build, intercept augmentation, Gram formation and factorisation
    // all count — that is what a non-incremental deployment pays per
    // new sample.
    let n = absorbed.len();
    let (batch_samples, w_aug) = time_samples(repeat, || {
        let mut x = Matrix::zeros(n, p);
        let mut y = Matrix::zeros(n, q);
        for (i, (f, label)) in absorbed.iter().enumerate() {
            x.row_mut(i).copy_from_slice(f);
            y[(i, *label)] = 1.0;
        }
        let aug = augment_ones(&x);
        let mut plan = RidgePlan::with_mode(&aug, &y, RidgeMode::Primal).expect("shaped");
        plan.solve(beta).expect("well-conditioned batch system")
    });
    let (_, batch_median, _) = sample_stats(&batch_samples);

    // Differential verification before recording: the incrementally
    // maintained readout must match the from-scratch refit.
    let mut max_diff = 0.0f64;
    for i in 0..p {
        for c in 0..q {
            max_diff = max_diff.max((w_out[(c, i)] - w_aug[(i, c)]).abs());
        }
    }
    for (c, b) in bias.iter().enumerate() {
        max_diff = max_diff.max((b - w_aug[(p, c)]).abs());
    }
    assert!(
        max_diff < 1e-9,
        "incremental refit diverged from batch: {max_diff:e}"
    );
    assert!(
        !learner.factor_stale(),
        "healthy stream must keep the factor"
    );

    let speedup_absorb = batch_median / absorb_median.max(1e-12);
    let speedup_step = batch_median / (absorb_median + refit_median).max(1e-12);
    assert!(
        speedup_absorb >= 5.0,
        "rank-1 absorb must be >= 5x a full refit at p = {p}, got {speedup_absorb:.1}x"
    );

    let widths = [22, 9, 9, 14, 11];
    println!("Online readout at p = {p} (q = {q}, n = {n}, medians over {repeat} runs)");
    println!(
        "{}",
        row(
            &[
                "step".into(),
                "p".into(),
                "n".into(),
                "median(us)".into(),
                "speedup".into(),
            ],
            &widths,
        )
    );
    for (name, median, speedup) in [
        ("rank1_absorb", absorb_median, Some(speedup_absorb)),
        ("warm_refit", refit_median, None),
        (
            "absorb+refit",
            absorb_median + refit_median,
            Some(speedup_step),
        ),
        ("batch_ridge_refit", batch_median, None),
    ] {
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    p.to_string(),
                    n.to_string(),
                    format!("{:.2}", median * 1e6),
                    speedup.map_or("-".into(), |s| format!("{s:.1}x")),
                ],
                &widths,
            )
        );
    }

    json_rows.push(json_object(&[
        ("bench", json_str("online_absorb_vs_refit")),
        ("p", p.to_string()),
        ("classes", q.to_string()),
        ("n", n.to_string()),
        ("beta", json_f64(beta)),
        (
            "kernels",
            json_object(&[
                (
                    "rank1_absorb",
                    json_object(&[
                        ("mean_ns", json_f64(absorb_mean * 1e9)),
                        ("median_ns", json_f64(absorb_median * 1e9)),
                        ("stddev_ns", json_f64(absorb_stddev * 1e9)),
                        ("vs_batch_refit", json_f64(speedup_absorb)),
                    ]),
                ),
                (
                    "warm_refit",
                    json_object(&[("median_ns", json_f64(refit_median * 1e9))]),
                ),
                (
                    "absorb_plus_refit",
                    json_object(&[
                        ("median_ns", json_f64((absorb_median + refit_median) * 1e9)),
                        ("vs_batch_refit", json_f64(speedup_step)),
                    ]),
                ),
                (
                    "batch_ridge_refit",
                    json_object(&[("median_ns", json_f64(batch_median * 1e9))]),
                ),
            ]),
        ),
        ("verified_max_abs_diff", json_f64(max_diff)),
        ("speedup_floor", json_f64(5.0)),
        ("repeat", repeat.to_string()),
        ("seed", seed.to_string()),
        ("threads", threads.to_string()),
        ("available_cores", cores.to_string()),
        ("git_rev", json_str(&git_rev())),
        (
            "methodology",
            json_str(
                "one new labelled sample at feature width p: rank-1 absorb \
                 (O(p^2), timed in blocks) and warm-factor refit (O(p^2 q)) \
                 vs a full from-scratch RidgePlan build+solve on the same n \
                 samples (O(n p^2 + p^3/3)); incremental weights verified \
                 against the batch answer to 1e-9 before recording; the \
                 absorb speedup is asserted >= 5x",
            ),
        ),
    ]));
}

/// Part 2: prequential (test-then-train) accuracy over the drifting
/// stream families, with and without exponential forgetting.
fn bench_drift_families(
    seed: u64,
    stream_size: usize,
    threads: usize,
    json_rows: &mut Vec<String>,
) {
    let spec = DatasetSpec::new("DRIFT", 3, 40, 2, 0, 0, 0.3).with_class_sep(2.0);
    let forget_factor = 0.97;
    let beta = 1e-4;
    let model = DfrClassifier::paper_default(10, spec.channels, spec.num_classes, 1)
        .expect("valid model config");
    let forward = StreamingForward::paper();

    let widths = [11, 9, 8, 13, 14];
    println!("\nDrifting streams, prequential test-then-train ({stream_size} samples each)");
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "forget".into(),
                "first".into(),
                "second-half".into(),
                "refits".into(),
            ],
            &widths,
        )
    );
    for kind in DriftKind::ALL {
        let stream = drifting_stream(&spec, kind, seed, stream_size).expect("valid spec");
        let mut halves = Vec::new();
        for forget in [1.0, forget_factor] {
            let mut learner =
                OnlineRidge::with_forgetting(model.feature_dim(), spec.num_classes, beta, forget)
                    .expect("valid config");
            let mut cache = StreamingCache::empty();
            let mut w_out = Matrix::zeros(spec.num_classes, model.feature_dim());
            let mut bias = Vec::new();
            let mut refits = 0u64;
            let mut correct = [0usize; 2];
            let mut counted = [0usize; 2];
            for (i, sample) in stream.iter().enumerate() {
                forward
                    .run_into(&model, &sample.series, &mut cache)
                    .expect("stream series are finite");
                // Test-then-train: score with the readout fitted on
                // samples 0..i only, then absorb sample i.
                if i >= spec.num_classes {
                    let half = usize::from(2 * i >= stream.len());
                    let guess = predict(&w_out, &bias, &cache.features);
                    correct[half] += usize::from(guess == sample.label);
                    counted[half] += 1;
                }
                learner
                    .absorb_label(&cache.features, sample.label)
                    .expect("finite features");
                learner.refit_into(&mut w_out, &mut bias).expect("refit");
                refits += 1;
            }
            let acc = |h: usize| correct[h] as f64 / counted[h].max(1) as f64;
            println!(
                "{}",
                row(
                    &[
                        kind.name().into(),
                        format!("{forget}"),
                        format!("{:.3}", acc(0)),
                        format!("{:.3}", acc(1)),
                        refits.to_string(),
                    ],
                    &widths,
                )
            );
            halves.push((forget, acc(0), acc(1)));
            assert!(
                !learner.factor_stale(),
                "{kind}: drift stream must not destabilise the factor"
            );
        }
        json_rows.push(json_object(&[
            ("bench", json_str(&format!("drift_{}", kind.name()))),
            ("family", json_str(kind.name())),
            ("samples", stream_size.to_string()),
            ("feature_dim", model.feature_dim().to_string()),
            ("classes", spec.num_classes.to_string()),
            ("acc_first_half_no_forget", json_f64(halves[0].1)),
            ("acc_second_half_no_forget", json_f64(halves[0].2)),
            ("forget_factor", json_f64(forget_factor)),
            ("acc_first_half_forget", json_f64(halves[1].1)),
            ("acc_second_half_forget", json_f64(halves[1].2)),
            ("seed", seed.to_string()),
            ("threads", threads.to_string()),
            (
                "methodology",
                json_str(
                    "prequential test-then-train over dfr-data's drifting \
                     stream family through the real pipeline (streaming \
                     forward pass, online rank-1 readout, refit every \
                     sample); first/second-half accuracies recorded for \
                     lambda = 1 and the forgetting learner",
                ),
            ),
        ]));
    }
}

fn main() {
    let args = Args::from_env();
    let repeat = args.get_usize("repeat", 5).max(1);
    let seed = args.get_usize("seed", 0) as u64;
    let p = args.get_usize("p", 462).max(1);
    let warmup = args.get_usize("warmup", 128);
    let block = args.get_usize("block", 32).max(1);
    let stream_size = args.get_usize("drift-size", 240).max(spec_floor());
    let threads = apply_threads(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json_rows = Vec::new();
    bench_absorb_vs_refit(
        repeat,
        seed,
        p,
        warmup,
        block,
        threads,
        cores,
        &mut json_rows,
    );
    bench_drift_families(seed, stream_size, threads, &mut json_rows);

    let path = write_results("BENCH_online.json", &json_array(&json_rows));
    println!("\nwrote {}", path.display());
}

/// Smallest drift stream worth reporting: enough samples that both
/// halves hold every class a few times.
fn spec_floor() -> usize {
    24
}
