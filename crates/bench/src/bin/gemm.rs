//! Before/after wall-clock measurement of the dense product kernels.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin gemm [-- --repeat 7 --threads 1 \
//!     --samples 100 --features 931 --classes 10]
//! ```
//!
//! **Methodology** (also summarised in `EXPERIMENTS.md` E3): the
//! "baseline" column preserves the pre-PR scalar kernels verbatim inside
//! this binary — the `i-k-j` loop with a `K_BLOCK` panel over `k` and a
//! branchy `a == 0.0` zero-skip for `matmul`, the memory read-modify-write
//! accumulation loops for `t_matmul`/`gram_t`, and row-pair `dot` loops
//! for `matmul_t`/`gram` — all serial, exactly as `matmul_band` /
//! `t_matmul_band` / the Gram triangle kernels computed one band before
//! this PR. The "packed" column is today's register-tiled, panel-packed
//! microkernel path. Both columns must produce **bitwise-identical**
//! results on every shape — asserted before anything is recorded
//! (`DESIGN.md` §8/§10).
//!
//! Shapes are the DPRR operands that dominate `BENCH_hotpath` and
//! `fig6_landscape`: `n ≈ 100` samples × `p ≈ 931` features (930 DPRR
//! features + intercept), `q ≈ 10` classes, plus the `T × C · C × N_x`
//! mask product of the reservoir hot path. Per shape the record carries
//! mean, median and population stddev over `--repeat` runs; the recorded
//! speedup is the **median** ratio, robust to scheduler noise on shared
//! hosts. Results land in `results/BENCH_gemm.json`.
//!
//! **Per-kernel columns** (`DESIGN.md` §13): the packed path is re-timed
//! under every SIMD kernel this host can run (`dfr_linalg::kernels::
//! available()`), via the thread-local `with_kernel` override. Every
//! kernel (scalar/sse2/avx2/neon) must be **bitwise** identical to the
//! frozen scalar baseline before its column is recorded.

use dfr_bench::{
    apply_threads, json_array, json_f64, json_object, json_str, row, sample_stats, write_results,
    Args,
};
use dfr_linalg::kernels::{self, with_kernel};
use dfr_linalg::{dot, Matrix};
use std::time::Instant;

/// Pre-PR inner `k`-panel width of the blocked scalar matmul kernel.
const K_BLOCK: usize = 64;

/// Pre-PR `matmul` kernel (serial band = whole output): blocked `i-k-j`
/// loop with the `a == 0.0` zero-skip, accumulating into the output row
/// in memory on every `k` step.
fn scalar_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, k_dim, n) = (lhs.rows(), lhs.cols(), rhs.cols());
    let mut out = Matrix::zeros(m, n);
    let mut kb = 0;
    while kb < k_dim {
        let ke = (kb + K_BLOCK).min(k_dim);
        for (orow, lrow) in out
            .as_mut_slice()
            .chunks_mut(n)
            .zip(lhs.as_slice().chunks(k_dim))
        {
            for (k, &a) in lrow[kb..ke].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &r) in orow.iter_mut().zip(rhs.row(kb + k)) {
                    *o += a * r;
                }
            }
        }
        kb = ke;
    }
    out
}

/// Pre-PR `t_matmul` kernel: `k` outer over shared rows, `l == 0.0`
/// zero-skip, memory read-modify-write per output row.
fn scalar_t_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, n) = (lhs.cols(), rhs.cols());
    let mut out = Matrix::zeros(m, n);
    for k in 0..lhs.rows() {
        let lrow = lhs.row(k);
        let rrow = rhs.row(k);
        for (bi, orow) in out.as_mut_slice().chunks_mut(n).enumerate() {
            let l = lrow[bi];
            if l == 0.0 {
                continue;
            }
            for (o, &r) in orow.iter_mut().zip(rrow) {
                *o += l * r;
            }
        }
    }
    out
}

/// Pre-PR `matmul_t` kernel: one scalar `dot` per output element.
fn scalar_matmul_t(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, n) = (lhs.rows(), rhs.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let lrow = lhs.row(i);
        for j in 0..n {
            out[(i, j)] = dot(lrow, rhs.row(j));
        }
    }
    out
}

/// Pre-PR `gram` kernel: lower-triangle `dot` per element, mirrored.
fn scalar_gram(x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = dot(x.row(i), x.row(j));
            out[(i, j)] = v;
            out[(j, i)] = v;
        }
    }
    out
}

/// Pre-PR `gram_t` kernel: sample rows outer (`k` ascending), `xi == 0.0`
/// zero-skip, lower triangle accumulated in memory, mirrored.
fn scalar_gram_t(x: &Matrix) -> Matrix {
    let p = x.cols();
    let mut out = Matrix::zeros(p, p);
    for k in 0..x.rows() {
        let xrow = x.row(k);
        for (i, orow) in out.as_mut_slice().chunks_mut(p).enumerate() {
            let xi = xrow[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &xj) in orow[..=i].iter_mut().zip(xrow) {
                *o += xi * xj;
            }
        }
    }
    for i in 0..p {
        for j in i + 1..p {
            let v = out[(j, i)];
            out[(i, j)] = v;
        }
    }
    out
}

fn sin_matrix(rows: usize, cols: usize, stride: f64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (i as f64 * stride).sin())
            .collect(),
    )
    .expect("sized")
}

/// Times `f` once per repeat (after one warm-up run), returning the
/// per-run seconds and the last result for the bit-identity assert.
fn time_samples<R>(repeat: usize, f: impl Fn() -> R) -> (Vec<f64>, R) {
    let mut result = f();
    let mut samples = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let t0 = Instant::now();
        result = f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    (samples, result)
}

fn main() {
    let args = Args::from_env();
    let repeat = args.get_usize("repeat", 7).max(1);
    let n_samples = args.get_usize("samples", 100);
    let p = args.get_usize("features", 931);
    let q = args.get_usize("classes", 10);
    let threads = apply_threads(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // DPRR-shaped operands: features X (n × p), readout W (q × p),
    // targets-sized right factors, and the reservoir mask product.
    let x = sin_matrix(n_samples, p, 0.13);
    let w = sin_matrix(q, p, 0.41);
    let wt = w.transpose(); // p × q, for the plain-matmul shape
    let y = sin_matrix(n_samples, q, 0.29);
    let series = sin_matrix(1917, 13, 0.23);
    let mask = sin_matrix(30, 13, 0.57);

    type Pair<'a> = (
        &'a str,
        (usize, usize, usize),
        Box<dyn Fn() -> Matrix + 'a>,
        Box<dyn Fn() -> Matrix + 'a>,
    );
    let benches: Vec<Pair> = vec![
        (
            "matmul_logits",
            (n_samples, p, q),
            Box::new(|| scalar_matmul(&x, &wt)),
            Box::new(|| x.matmul(&wt).expect("shapes agree")),
        ),
        (
            "t_matmul_dual_w",
            (p, n_samples, q),
            Box::new(|| scalar_t_matmul(&x, &y)),
            Box::new(|| x.t_matmul(&y).expect("shapes agree")),
        ),
        (
            "matmul_t_logits",
            (n_samples, p, q),
            Box::new(|| scalar_matmul_t(&x, &w)),
            Box::new(|| x.matmul_t(&w).expect("shapes agree")),
        ),
        (
            "gram_dual",
            (n_samples, p, n_samples),
            Box::new(|| scalar_gram(&x)),
            Box::new(|| x.gram()),
        ),
        (
            "gram_t_primal",
            (p, n_samples, p),
            Box::new(|| scalar_gram_t(&x)),
            Box::new(|| x.gram_t()),
        ),
        (
            "mask_apply",
            (1917, 13, 30),
            Box::new(|| scalar_matmul_t(&series, &mask)),
            Box::new(|| series.matmul_t(&mask).expect("shapes agree")),
        ),
    ];

    let avail = kernels::available();
    let default_kernel = kernels::active().name();
    let widths = [16, 14, 12, 12, 9, 6];
    println!(
        "GEMM kernels: pre-PR scalar baseline vs packed microkernel \
         ({threads} threads, dispatch={default_kernel})"
    );
    println!(
        "{}",
        row(
            &[
                "bench".into(),
                "m x k x n".into(),
                "scalar(ms)".into(),
                "packed(ms)".into(),
                "speedup".into(),
                "ident".into(),
            ],
            &widths,
        )
    );

    let mut json_rows = Vec::new();
    let mut kernel_table = Vec::new();
    for (name, (m, k, n), baseline, packed) in &benches {
        let (base_samples, base_result) = time_samples(repeat, baseline);
        let (packed_samples, packed_result) = time_samples(repeat, packed);
        // §8/§10 contract: the microkernel path is a pure perf change.
        let identical = base_result == packed_result;
        assert!(
            identical,
            "{name}: packed kernel diverged from the scalar baseline"
        );
        let (base_mean, base_median, base_stddev) = sample_stats(&base_samples);
        let (new_mean, new_median, new_stddev) = sample_stats(&packed_samples);
        let speedup = base_median / new_median.max(1e-12);
        println!(
            "{}",
            row(
                &[
                    (*name).into(),
                    format!("{m}x{k}x{n}"),
                    format!("{:.3}", base_median * 1e3),
                    format!("{:.3}", new_median * 1e3),
                    format!("{speedup:.2}x"),
                    "yes".into(),
                ],
                &widths,
            )
        );
        // §13 per-kernel columns: re-time the packed path under every
        // kernel this host can run, verifying each against the frozen
        // baseline before its column is recorded.
        let mut kernel_fields = Vec::new();
        for kernel in &avail {
            let (k_samples, k_result) = time_samples(repeat, || with_kernel(kernel.kind(), packed));
            assert!(
                k_result == base_result,
                "{name}: kernel {} diverged from the scalar baseline",
                kernel.name()
            );
            let (k_mean, k_median, k_stddev) = sample_stats(&k_samples);
            let k_speedup = base_median / k_median.max(1e-12);
            kernel_table.push(row(
                &[
                    (*name).into(),
                    kernel.name().into(),
                    format!("{:.3}", k_median * 1e3),
                    format!("{k_speedup:.2}x"),
                    "yes".into(),
                ],
                &[16, 12, 12, 9, 6],
            ));
            kernel_fields.push((
                kernel.name(),
                json_object(&[
                    ("mean_ns", json_f64(k_mean * 1e9)),
                    ("median_ns", json_f64(k_median * 1e9)),
                    ("stddev_ns", json_f64(k_stddev * 1e9)),
                    ("speedup_vs_baseline", json_f64(k_speedup)),
                ]),
            ));
        }
        json_rows.push(json_object(&[
            ("bench", json_str(name)),
            ("m", m.to_string()),
            ("k", k.to_string()),
            ("n", n.to_string()),
            ("baseline_mean_ns", json_f64(base_mean * 1e9)),
            ("baseline_median_ns", json_f64(base_median * 1e9)),
            ("baseline_stddev_ns", json_f64(base_stddev * 1e9)),
            ("packed_mean_ns", json_f64(new_mean * 1e9)),
            ("packed_median_ns", json_f64(new_median * 1e9)),
            ("packed_stddev_ns", json_f64(new_stddev * 1e9)),
            ("speedup", json_f64(speedup)),
            ("identical", identical.to_string()),
            ("kernel", json_str(default_kernel)),
            ("kernels", json_object(&kernel_fields)),
            ("repeat", repeat.to_string()),
            ("threads", threads.to_string()),
            ("available_cores", cores.to_string()),
            (
                "methodology",
                json_str(
                    "baseline = pre-PR scalar kernels frozen in this binary (i-k-j \
                     K_BLOCK loop with zero-skip, memory RMW accumulation, per-element \
                     dot); packed = register-tiled panel-packed microkernel path under \
                     the default dispatch; `kernels` re-times the packed path per SIMD \
                     kernel via with_kernel; median over `repeat` runs after one \
                     warm-up; every kernel asserted bitwise identical to the \
                     baseline before recording",
                ),
            ),
        ]));
    }

    println!("\nPer-kernel packed medians (speedup vs frozen scalar baseline)");
    println!(
        "{}",
        row(
            &[
                "bench".into(),
                "kernel".into(),
                "median(ms)".into(),
                "speedup".into(),
                "ident".into(),
            ],
            &[16, 12, 12, 9, 6],
        )
    );
    for line in &kernel_table {
        println!("{line}");
    }

    let path = write_results("BENCH_gemm.json", &json_array(&json_rows));
    println!("\nwrote {}", path.display());
}
