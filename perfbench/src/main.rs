//! End-to-end and per-layer benchmark of the DFR stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune_bp|tune_gs|serve_light|serve_heavy|online|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. Each workload checks its
//! outputs against an oracle before printing a number, then prints a
//! human-readable report and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. `--workload all` runs every workload both ways, each in a
//! process of its own.

mod online;
mod report;
mod serve;
mod trace;
mod tune;

use report::{layer_value, result_line, supported_tail, MetricDef, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Layers;

/// What one run of a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunSpec {
    /// The untraced and traced windows of a traced run (half each), or the
    /// whole window of an untraced one.
    pub fn windows(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Failure accounting of one run. A failed or refused operation is also
/// recorded as an infinite latency, so it misses every percentile.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Operations started.
    pub attempted: u64,
    /// Operations that succeeded.
    pub ok: u64,
    /// Operations that failed (errors, transport failures, quarantines).
    pub failed: u64,
    /// Operations the system refused (`Busy`).
    pub refused: u64,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each operation of the untraced window, ms.
    pub op_ms: Vec<f64>,
    /// Work items completed per second in the untraced window.
    pub throughput: f64,
    /// Peak resident set at the end of the untraced window, before any
    /// oracle or replay allocates, MB.
    pub peak_rss_mb: f64,
    /// Failure accounting of the untraced window.
    pub ledger: Ledger,
    /// Human-readable findings (accuracies, tails, oracle summaries).
    pub notes: Vec<String>,
    /// Per-layer totals of the traced window (traced runs only).
    pub layers: Layers,
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    dfr_bench::sample_stats(samples).1
}

/// Runs `f` until `seconds` have passed (at least once).
pub fn run_for(seconds: f64, mut f: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        f()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Most spans written per traced run (all of them are aggregated).
const SPAN_FILE_ROWS: usize = 100_000;

/// Writes a traced run's spans to `.bench_trace/<workload>-<seed>.csv`.
pub fn write_spans(workload: &str, seed: u64, tracers: &[&trace::Tracer]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-{seed}.csv"));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    for tracer in tracers {
        tracer
            .write_csv(&mut file, SPAN_FILE_ROWS)
            .map_err(|e| e.to_string())?;
    }
    std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;
    println!("spans: {}", path.display());
    Ok(())
}

const WORKLOADS: [&str; 5] = ["tune_bp", "tune_gs", "serve_light", "serve_heavy", "online"];

/// Environment knobs that would silently change what is measured.
const REFUSED_ENV: [&str; 4] = ["DFR_FAULTS", "DFR_KERNEL", "DFR_SOLVER", "DFR_THREADS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        raw.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?} or all)"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The current commit, read from `.git` without spawning a process, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` (peak resident set) of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run_workload(name: &str, spec: RunSpec) -> Result<Outcome, String> {
    match name {
        "tune_bp" => tune::run(tune::Method::Backprop, spec),
        "tune_gs" => tune::run(tune::Method::Grid, spec),
        "serve_light" => serve::run(serve::Load::Light, spec),
        "serve_heavy" => serve::run(serve::Load::Heavy, spec),
        "online" => online::run(spec),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn print_table(rows: &[(&MetricDef, f64)]) {
    for (def, v) in rows {
        println!(
            "  {:<28} {:>16.6} {:<10} {} is better",
            def.name,
            v,
            def.unit,
            def.better.name()
        );
    }
}

/// Runs one workload and prints its report; `Err` carries the reason no
/// metrics were printed.
fn measure(args: &Args) -> Result<(), String> {
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    println!(
        "provenance: git_rev={} nproc={} kernel={} pool_width={} solver={} workload={} seed={} seconds={} trace={}",
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        dfr_linalg::kernels::active().name(),
        dfr_pool::max_threads(),
        dfr_linalg::solver::active().name(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let outcome = run_workload(&args.workload, spec)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    let l = outcome.ledger;
    println!(
        "accounting: attempted={} ok={} failed={} refused={} error_rate={:.6}",
        l.attempted,
        l.ok,
        l.failed,
        l.refused,
        (l.failed + l.refused) as f64 / l.attempted.max(1) as f64
    );
    if outcome.op_ms.is_empty() || outcome.setup_s.is_empty() {
        return Err("the workload completed no operation".into());
    }
    let p50 = dfr_bench::percentile(&outcome.op_ms, 50.0);
    match supported_tail(&outcome.op_ms) {
        Some((p, v)) => println!(
            "latency: p50={p50:.6} ms p{p}={v:.6} ms over {} operations",
            outcome.op_ms.len()
        ),
        None => println!(
            "latency: p50={p50:.6} ms over {} operations (too few for a supported tail)",
            outcome.op_ms.len()
        ),
    }
    let metrics: Vec<(&MetricDef, f64)> = if args.trace {
        let rows: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d, layer_value(d, &outcome.layers)))
            .collect();
        println!("per-layer (traced window; mean self time per call unless a count):");
        rows
    } else {
        let values = [
            median(&outcome.setup_s),
            outcome.peak_rss_mb,
            p50,
            outcome.throughput,
        ];
        println!("end-to-end:");
        END_TO_END.iter().zip(values).collect()
    };
    print_table(&metrics);
    if let Some((def, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{} is not finite ({v})", def.name));
    }
    println!(
        "{}",
        result_line(true, l.attempted, l.failed + l.refused, &metrics)
    );
    Ok(())
}

/// Runs every workload untraced and traced, each in its own process.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{workload} (trace {trace}) failed: {status}"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to measure with {set:?} set; unset them and rerun");
        return ExitCode::from(2);
    }
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        measure(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}; no metrics reported");
            ExitCode::FAILURE
        }
    }
}
