//! Honest overhead numbers for the readout solver escalation
//! (`DESIGN.md` §15), plus the degenerate-stream sweep that exercises it.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin solver_bench [-- --repeat 5 \
//!     --seed 0 --threads 1]
//! ```
//!
//! **Part 1 — solver overhead.** The β-sweep readout fit is timed on
//! well-conditioned DPRR-shaped systems in both ridge modes (primal
//! `p ≤ n`, dual `p > n`) under every [`SolverPolicy`]: `cholesky` (the
//! pre-escalation baseline), `auto` (the shipping default: Cholesky plus
//! the rcond vet), and the `qr`/`svd` fallbacks pinned as primaries.
//! Before a column is recorded its results are verified — `auto` must be
//! **bitwise identical** to `cholesky` on these systems (the escalation
//! must never fire on healthy Grams), and `qr`/`svd` must agree to a
//! `1e-10` relative tolerance. Results land in
//! `results/BENCH_solvers.json`, shaped like `BENCH_gemm.json` (a
//! `kernels`-style per-policy median object) so `bench_diff --record
//! results/BENCH_solvers.json` gates regressions unchanged.
//!
//! **Part 2 — degenerate sweep.** Table-1 style rows over the
//! [`Degeneracy`] stream families (constant / duplicated / near-zero-
//! variance channels): each family is run through the real pipeline
//! (reservoir features → β-sweep readout) under `Fixed(Cholesky)` and
//! under `Auto`, recording how many β candidates fail without escalation,
//! how many escalate with it, and that the escalated fit is finite.

use dfr_bench::{
    apply_threads, git_rev, json_array, json_f64, json_object, json_str, row, sample_stats,
    write_results, Args,
};
use dfr_core::readout::{fit_readout_with, ReadoutScratch, PAPER_BETAS};
use dfr_core::trainer::features_for;
use dfr_core::DfrClassifier;
use dfr_data::{degenerate_dataset, DatasetSpec, Degeneracy};
use dfr_linalg::solver::{with_solver, SolverPolicy};
use dfr_linalg::Matrix;
use std::time::Instant;

/// A seeded Gaussian matrix: genuinely full-rank and well-conditioned at
/// the shapes below (`σ_min/σ_max ≈ (√n−√p)/(√n+√p)`), unlike a sine
/// lattice whose angle-addition structure is rank 2.
fn gauss_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = dfr_data::rng::seeded_rng("solver-bench", &[seed]);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| dfr_data::rng::randn(&mut rng))
            .collect(),
    )
    .expect("sized")
}

/// One-hot-ish targets: class `i % q` per sample, like the datasets'
/// round-robin labels.
fn targets(n: usize, q: usize) -> Matrix {
    let mut y = Matrix::zeros(n, q);
    for i in 0..n {
        y[(i, i % q)] = 1.0;
    }
    y
}

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

fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-30))
        .fold(0.0, f64::max)
}

fn main() {
    let args = Args::from_env();
    let repeat = args.get_usize("repeat", 5).max(1);
    let seed = args.get_usize("seed", 0) as u64;
    let threads = apply_threads(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json_rows = Vec::new();

    // ----- Part 1: solver overhead on well-conditioned sweeps -----------
    let shapes = [
        ("sweep_primal", 300usize, 120usize, 10usize),
        ("sweep_dual", 100, 931, 10),
    ];
    let widths = [14, 12, 9, 13, 9, 10];
    println!(
        "Solver policies: β-sweep readout fit, {threads} threads (medians over {repeat} runs)"
    );
    println!(
        "{}",
        row(
            &[
                "bench".into(),
                "n x p".into(),
                "policy".into(),
                "median(ms)".into(),
                "vs chol".into(),
                "verified".into(),
            ],
            &widths,
        )
    );
    for (name, n, p, q) in shapes {
        let x = gauss_matrix(n, p, seed);
        let y = targets(n, q);
        let mut scratch = ReadoutScratch::new();

        // Baseline first: everything else is verified against it.
        let baseline_policy = SolverPolicy::Fixed(dfr_linalg::solver::SolverKind::Cholesky);
        let (chol_samples, chol_fit) = time_samples(repeat, || {
            with_solver(baseline_policy, || {
                fit_readout_with(&x, &y, &PAPER_BETAS, &mut scratch).expect("well-conditioned fit")
            })
        });
        let (_, chol_median, _) = sample_stats(&chol_samples);

        let mut policy_fields = Vec::new();
        for policy in SolverPolicy::ALL {
            let (samples, fit) = time_samples(repeat, || {
                with_solver(policy, || {
                    fit_readout_with(&x, &y, &PAPER_BETAS, &mut scratch)
                        .expect("well-conditioned fit")
                })
            });
            // Verification before recording: auto must be the Cholesky
            // path bit for bit (no spurious escalation); the direct
            // factorisations agree to rounding.
            let verified = match policy {
                SolverPolicy::Auto => {
                    assert_eq!(fit.w_out.as_slice().len(), chol_fit.w_out.as_slice().len());
                    let identical = fit
                        .w_out
                        .as_slice()
                        .iter()
                        .zip(chol_fit.w_out.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(identical, "{name}: auto diverged from cholesky bitwise");
                    "bitwise"
                }
                _ => {
                    let rel = max_rel_diff(&fit.w_out, &chol_fit.w_out);
                    assert!(
                        rel < 1e-10,
                        "{name}: {} is {rel:e} from cholesky",
                        policy.name()
                    );
                    "1e-10"
                }
            };
            let (mean, median, stddev) = sample_stats(&samples);
            let overhead = median / chol_median.max(1e-12);
            println!(
                "{}",
                row(
                    &[
                        name.into(),
                        format!("{n}x{p}"),
                        policy.name().into(),
                        format!("{:.3}", median * 1e3),
                        format!("{overhead:.2}x"),
                        verified.into(),
                    ],
                    &widths,
                )
            );
            policy_fields.push((
                policy.name(),
                json_object(&[
                    ("mean_ns", json_f64(mean * 1e9)),
                    ("median_ns", json_f64(median * 1e9)),
                    ("stddev_ns", json_f64(stddev * 1e9)),
                    ("vs_cholesky", json_f64(overhead)),
                ]),
            ));
        }
        json_rows.push(json_object(&[
            ("bench", json_str(name)),
            ("n", n.to_string()),
            ("p", p.to_string()),
            ("classes", q.to_string()),
            ("betas", PAPER_BETAS.len().to_string()),
            ("kernels", json_object(&policy_fields)),
            ("repeat", repeat.to_string()),
            ("threads", threads.to_string()),
            ("available_cores", cores.to_string()),
            ("git_rev", json_str(&git_rev())),
            (
                "methodology",
                json_str(
                    "β-sweep readout fit on well-conditioned synthetic DPRR-shaped \
                     systems; median over `repeat` runs after one warm-up; auto \
                     asserted bitwise identical to cholesky, qr/svd to 1e-10 \
                     relative, before recording; `kernels` keys are solver \
                     policies so bench_diff compares like for like",
                ),
            ),
        ]));
    }

    // ----- Part 2: degenerate-stream sweep ------------------------------
    let spec = DatasetSpec::new("DEGEN", 2, 48, 3, 16, 8, 0.4);
    let dwidths = [12, 10, 13, 12, 9, 9];
    println!("\nDegenerate streams through the pipeline (reservoir features → β-sweep)");
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "candidates".into(),
                "chol failed".into(),
                "auto escal".into(),
                "beta".into(),
                "finite".into(),
            ],
            &dwidths,
        )
    );
    for kind in Degeneracy::ALL {
        let ds = degenerate_dataset(&spec, kind, seed).expect("spec is valid");
        let model =
            DfrClassifier::paper_default(10, ds.channels(), ds.num_classes(), 1).expect("model");
        let x = features_for(&model, ds.train().iter().map(|s| &s.series)).expect("features");
        let y = ds.one_hot_train();
        // Push the sweep toward the degenerate end with a β=0 candidate on
        // top of the paper's grid: with exact channel dependences the
        // unregularised Gram is where Cholesky gives out.
        let mut betas = vec![0.0];
        betas.extend_from_slice(&PAPER_BETAS);

        let mut scratch = ReadoutScratch::new();
        let chol_failed = {
            let _ = with_solver(
                SolverPolicy::Fixed(dfr_linalg::solver::SolverKind::Cholesky),
                || fit_readout_with(&x, &y, &betas, &mut scratch),
            );
            scratch
                .solver_reports()
                .iter()
                .filter(|r| !r.is_ok())
                .count()
        };
        let fit = with_solver(SolverPolicy::Auto, || {
            fit_readout_with(&x, &y, &betas, &mut scratch)
        })
        .expect("auto policy always produces a finite readout");
        let escalated = scratch
            .solver_reports()
            .iter()
            .filter(|r| r.escalated)
            .count();
        let finite = fit.w_out.as_slice().iter().all(|v| v.is_finite())
            && fit.bias.iter().all(|v| v.is_finite());
        assert!(finite, "{kind}: auto produced a non-finite readout");
        println!(
            "{}",
            row(
                &[
                    kind.name().into(),
                    betas.len().to_string(),
                    chol_failed.to_string(),
                    escalated.to_string(),
                    format!("{:.0e}", fit.beta),
                    if finite { "yes" } else { "NO" }.into(),
                ],
                &dwidths,
            )
        );
        json_rows.push(json_object(&[
            ("bench", json_str(&format!("degenerate_{}", kind.name()))),
            ("family", json_str(kind.name())),
            ("candidates", betas.len().to_string()),
            ("cholesky_failed", chol_failed.to_string()),
            ("auto_escalated", escalated.to_string()),
            ("best_beta", json_f64(fit.beta)),
            ("finite", finite.to_string()),
            ("seed", seed.to_string()),
            ("threads", threads.to_string()),
        ]));
    }

    let path = write_results("BENCH_solvers.json", &json_array(&json_rows));
    println!("\nwrote {}", path.display());
}
