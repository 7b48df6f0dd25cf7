//! One-shot benchmark sweep: runs every harness binary and merges their
//! records into a single provenance-stamped `results/BENCH_all.json`.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin bench_all [-- --threads 1 \
//!     --quick --skip server_bench,serve]
//! ```
//!
//! Runs the `gemm`, `hotpath`, `parallel_bench`, `serve`, `server_bench`
//! and `online_bench` siblings (each still writes its own `results/BENCH_*`
//! file, unchanged), then merges those files under one object whose
//! `meta` block records what the numbers mean: available cores, the pool
//! width, the dispatched SIMD kernel (`DESIGN.md` §13), and the git
//! revision — so a committed `BENCH_all.json` is self-describing even
//! after the host that produced it is gone.
//!
//! Siblings are looked up next to the running executable first (the
//! normal `cargo run`/CI layout after `cargo build --bins`); missing ones
//! fall back to `cargo run --release -p dfr-bench --bin <name>`.
//! `--quick` shrinks every sibling's workload for smoke runs; `--skip`
//! drops named siblings (their section records `null`).

use dfr_bench::{apply_threads, git_rev, json_object, json_str, Args, Json};
use std::process::Command;

/// One sibling benchmark: binary name, results file it writes, and its
/// (full, quick) argument sets.
struct Sibling {
    bin: &'static str,
    results: &'static str,
    full: &'static [&'static str],
    quick: &'static [&'static str],
}

const SIBLINGS: &[Sibling] = &[
    Sibling {
        bin: "gemm",
        results: "BENCH_gemm.json",
        full: &["--repeat", "7"],
        quick: &["--repeat", "3"],
    },
    Sibling {
        bin: "hotpath",
        results: "BENCH_hotpath.json",
        full: &["--scale", "0.25", "--epochs", "25", "--repeat", "2"],
        quick: &[
            "--scale",
            "0.1",
            "--epochs",
            "5",
            "--repeat",
            "1",
            "--datasets",
            "ecg,lib",
        ],
    },
    Sibling {
        bin: "parallel_bench",
        results: "BENCH_parallel.json",
        full: &["--repeats", "3", "--scale", "0.15", "--divisions", "6"],
        quick: &["--repeats", "1", "--scale", "0.08", "--divisions", "3"],
    },
    Sibling {
        bin: "serve",
        results: "BENCH_serve.json",
        full: &["--repeats", "5", "--requests", "512"],
        quick: &["--repeats", "2", "--requests", "128"],
    },
    Sibling {
        bin: "server_bench",
        results: "BENCH_server.json",
        full: &["--requests", "200", "--deadline-us", "500"],
        quick: &["--requests", "60", "--deadline-us", "500"],
    },
    Sibling {
        bin: "online_bench",
        results: "BENCH_online.json",
        full: &["--repeat", "5"],
        quick: &["--repeat", "2", "--warmup", "64", "--drift-size", "120"],
    },
];

/// Runs one sibling to completion, preferring the binary sitting next to
/// this executable and falling back to `cargo run`.
fn run_sibling(bin: &str, extra: &[String]) -> Result<(), String> {
    let beside = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(bin)))
        .filter(|p| p.is_file());
    let mut cmd = match beside {
        Some(path) => Command::new(path),
        None => {
            let mut c = Command::new("cargo");
            c.args(["run", "--release", "-p", "dfr-bench", "--bin", bin, "--"]);
            c
        }
    };
    let status = cmd
        .args(extra)
        .status()
        .map_err(|e| format!("{bin}: failed to spawn: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{bin}: exited with {status}"))
    }
}

/// The sibling's results file as a raw JSON fragment, validated by a
/// parse so a truncated write can never corrupt the merged record.
fn read_fragment(name: &str) -> Result<String, String> {
    let path = std::path::Path::new("results").join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    Ok(text.trim().to_string())
}

fn main() {
    let args = Args::from_env();
    let threads = apply_threads(&args);
    let quick = args.has("quick");
    let skip: Vec<String> = args
        .get("skip")
        .map(|list| list.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = dfr_linalg::kernels::active().name();

    let thread_args: Vec<String> = args
        .get("threads")
        .map(|t| vec!["--threads".to_string(), t.to_string()])
        .unwrap_or_default();

    let mut sections = Vec::new();
    let mut failures = Vec::new();
    for sibling in SIBLINGS {
        if skip.iter().any(|s| s == sibling.bin) {
            println!("== {} skipped (--skip)", sibling.bin);
            sections.push((sibling.bin, "null".to_string()));
            continue;
        }
        let mut extra: Vec<String> = (if quick { sibling.quick } else { sibling.full })
            .iter()
            .map(|s| s.to_string())
            .collect();
        extra.extend(thread_args.iter().cloned());
        println!("== {} {}", sibling.bin, extra.join(" "));
        let fragment =
            run_sibling(sibling.bin, &extra).and_then(|()| read_fragment(sibling.results));
        match fragment {
            Ok(json) => sections.push((sibling.bin, json)),
            Err(e) => {
                eprintln!("bench-all: {e}");
                failures.push(e);
                sections.push((sibling.bin, "null".to_string()));
            }
        }
        println!();
    }

    let meta = json_object(&[
        ("git_rev", json_str(&git_rev())),
        ("available_cores", cores.to_string()),
        ("threads", threads.to_string()),
        ("kernel", json_str(kernel)),
        ("quick", quick.to_string()),
        (
            "note",
            json_str(
                "merged harness sweep; each section is the verbatim \
                 results/BENCH_* record of the named binary",
            ),
        ),
    ]);
    let mut fields = vec![("meta", meta)];
    fields.extend(sections.iter().map(|(k, v)| (*k, v.clone())));
    let merged = json_object(&fields);
    let path = dfr_bench::write_results("BENCH_all.json", &format!("{merged}\n"));
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        eprintln!("bench-all: {} sibling(s) failed", failures.len());
        std::process::exit(1);
    }
}
