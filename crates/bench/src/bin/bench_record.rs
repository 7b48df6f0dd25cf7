//! Records the repository benchmark (`BENCHMARK.json`, run by
//! `perfbench/`) and compares a fresh run against a record.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin bench_record
//! cargo run --release -p dfr-bench --bin bench_record -- \
//!     --diff results/BENCH_perfbench.json
//! ```
//!
//! Run from the repository root. The benchmark's command, run length,
//! workloads and end-to-end bounds are read from `BENCHMARK.json`. Each
//! workload runs untraced 7 times, round-robin
//! across workloads so that drift of the host spreads evenly over them,
//! then once traced. Seed 1 is fixed. The record holds, per workload, the
//! median, Q1, Q3 and n of every end-to-end metric, the per-layer values
//! of the traced run and the attempted/failed operation counts, with the
//! provenance perfbench prints.
//!
//! Without `--diff` the record is written to `results/BENCH_perfbench.json`.
//! With `--diff <record>` nothing is written. A record whose provenance
//! differs from the fresh run's in anything but `git_rev` (another host
//! size, kernel, pool width, solver, run length, seed or repeat count)
//! is refused with exit status 2, since its numbers do not compare.
//! Otherwise every end-to-end metric of the fresh run is judged against its `BENCHMARK.json` bound as `ok`,
//! `worse`, or `unresolved` when either interquartile range, relative to
//! its median, is wider than the bound. The failed-operation share is
//! `worse` when it rises. Only a `worse` row makes the exit status 1.
//! The verdict is only as good as the host is steady between the two
//! runs: record and diff in one session, and claim a gain only from
//! alternating parent/change pairs.

use dfr_bench::{json_f64, json_object, json_str, Json};
use std::process::{Command, ExitCode, Stdio};

const SEED: u64 = 1;
const REPEATS: usize = 7;
const RECORD: &str = "results/BENCH_perfbench.json";

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug)]
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Largest tolerated relative change in the worse direction.
    bound: f64,
}

/// What `BENCHMARK.json` says about how to run and judge the benchmark.
#[derive(Debug)]
struct Benchmark {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_of(json: &Json, key: &str) -> Result<String, String> {
    field(json, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn num_of(json: &Json, key: &str) -> Result<f64, String> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn array_of<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(json, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let json = Json::parse(text)?;
    let command = array_of(&json, "command")?
        .iter()
        .map(|a| a.as_str().map(str::to_string).ok_or("non-string command"))
        .collect::<Result<_, _>>()?;
    let workloads = array_of(&json, "workloads")?
        .iter()
        .map(|w| str_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = array_of(&json, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: str_of(m, "name")?,
                higher_is_better: str_of(m, "better")? == "higher",
                bound: num_of(m, "bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Benchmark {
        command,
        run_seconds: num_of(&json, "run_seconds")?,
        workloads,
        end_to_end,
    })
}

/// What one perfbench run reported.
#[derive(Debug)]
struct Run {
    /// `key=value` pairs of the `provenance:` line.
    provenance: Vec<(String, String)>,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Parses perfbench's stdout: the `provenance:` line and the JSON result
/// object on the last line.
fn parse_run(stdout: &str) -> Result<Run, String> {
    let provenance = stdout
        .lines()
        .find_map(|l| l.strip_prefix("provenance: "))
        .ok_or("no provenance line")?
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = Json::parse(last.ok_or("no output")?)?;
    if field(&result, "correct")? != &Json::Bool(true) {
        return Err("the run is not marked correct".into());
    }
    let metrics = field(&result, "metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| Ok((name.clone(), num_of(m, "value")?)))
        .collect::<Result<_, String>>()?;
    Ok(Run {
        provenance,
        attempted: num_of(&result, "attempted")?,
        failed: num_of(&result, "failed")?,
        metrics,
    })
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Summary {
    /// Quartiles by linear interpolation between order statistics, so
    /// the median equals [`dfr_bench::sample_stats`]'s.
    fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile range relative to the median.
    fn relative_iqr(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }

    fn to_json(self) -> String {
        json_object(&[
            ("median", json_f64(self.median)),
            ("q1", json_f64(self.q1)),
            ("q3", json_f64(self.q3)),
            ("n", self.n.to_string()),
        ])
    }

    fn from_json(json: &Json) -> Result<Summary, String> {
        Ok(Summary {
            median: num_of(json, "median")?,
            q1: num_of(json, "q1")?,
            q3: num_of(json, "q3")?,
            n: num_of(json, "n")? as usize,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn verdict(metric: &Metric, record: &Summary, fresh: &Summary) -> Verdict {
    if record.relative_iqr() > metric.bound || fresh.relative_iqr() > metric.bound {
        return Verdict::Unresolved;
    }
    let worse = if metric.higher_is_better {
        fresh.median < record.median * (1.0 - metric.bound)
    } else {
        fresh.median > record.median * (1.0 + metric.bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn run_perfbench(bench: &Benchmark, workload: &str, trace: bool) -> Result<Run, String> {
    let (program, args) = bench.command.split_first().ok_or("empty command")?;
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) failed: {}",
            output.status
        ));
    }
    parse_run(&stdout).map_err(|e| format!("{workload} (trace {trace}): {e}"))
}

/// Runs the whole benchmark and renders its record.
fn measure(bench: &Benchmark) -> Result<String, String> {
    let total = bench.workloads.len() * (REPEATS + 1);
    let mut done = 0;
    let mut progress = |workload: &str, trace: bool| {
        done += 1;
        eprintln!("bench_record: [{done}/{total}] {workload} trace={trace}");
    };
    let mut untraced: Vec<Vec<Run>> = bench.workloads.iter().map(|_| Vec::new()).collect();
    for _ in 0..REPEATS {
        for (workload, runs) in bench.workloads.iter().zip(&mut untraced) {
            progress(workload, false);
            runs.push(run_perfbench(bench, workload, false)?);
        }
    }
    let mut rows = Vec::new();
    for (workload, runs) in bench.workloads.iter().zip(&untraced) {
        progress(workload, true);
        let traced = run_perfbench(bench, workload, true)?;
        let end_to_end = bench
            .end_to_end
            .iter()
            .map(|m| {
                let samples = runs
                    .iter()
                    .map(|r| r.metrics.iter().find(|(n, _)| *n == m.name).map(|p| p.1))
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("{workload}: no `{}` reported", m.name))?;
                Ok((m.name.as_str(), Summary::of(&samples).to_json()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_layer: Vec<(&str, String)> = traced
            .metrics
            .iter()
            .map(|(n, v)| (n.as_str(), json_f64(*v)))
            .collect();
        let sum = |f: fn(&Run) -> f64| json_f64(runs.iter().map(f).sum());
        rows.push(format!(
            "    {}: {}",
            json_str(workload),
            json_object(&[
                ("end_to_end", json_object(&end_to_end)),
                ("attempted", sum(|r| r.attempted)),
                ("failed", sum(|r| r.failed)),
                ("per_layer", json_object(&per_layer)),
            ])
        ));
    }
    let mut provenance: Vec<(&str, String)> = untraced[0][0]
        .provenance
        .iter()
        .filter(|(k, _)| k != "workload" && k != "trace")
        .map(|(k, v)| (k.as_str(), json_str(v)))
        .collect();
    provenance.push(("repeats", REPEATS.to_string()));
    Ok(format!(
        "{{\n  \"provenance\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_object(&provenance),
        rows.join(",\n")
    ))
}

/// The provenance entries, other than `git_rev`, on which two records
/// differ, as `key: record → fresh`.
fn provenance_differences(record: &Json, fresh: &Json) -> Result<Vec<String>, String> {
    let entries = |doc| {
        field(doc, "provenance")?
            .as_object()
            .ok_or_else(|| "`provenance` is not an object".to_string())
    };
    let (old, new) = (entries(record)?, entries(fresh)?);
    let show = |side: &[(String, Json)], key: &str| match side.iter().find(|(k, _)| k == key) {
        Some((_, Json::Str(s))) => s.clone(),
        Some((_, Json::Num(x))) => x.to_string(),
        Some((_, other)) => format!("{other:?}"),
        None => "absent".to_string(),
    };
    let mut keys: Vec<&str> = Vec::new();
    for (key, _) in old.iter().chain(new) {
        if key != "git_rev" && !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    Ok(keys
        .into_iter()
        .filter(|k| show(old, k) != show(new, k))
        .map(|k| format!("{k}: {} → {}", show(old, k), show(new, k)))
        .collect())
}

/// Compares a fresh record against a committed one; `Ok(true)` when some
/// row is worse, an error when the provenances differ.
fn diff(bench: &Benchmark, record: &Json, fresh: &Json) -> Result<bool, String> {
    let differences = provenance_differences(record, fresh)?;
    if !differences.is_empty() {
        return Err(format!(
            "the record's provenance differs from this run's ({}); its numbers do not compare",
            differences.join(", ")
        ));
    }
    let mut any_worse = false;
    println!(
        "{:<12} {:<17} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "record", "fresh", "change", "bound"
    );
    for workload in &bench.workloads {
        let entry = |doc| field(field(doc, "workloads")?, workload);
        let (old, new) = (entry(record)?, entry(fresh)?);
        for m in &bench.end_to_end {
            let summary = |w| Summary::from_json(field(field(w, "end_to_end")?, &m.name)?);
            let (a, b) = (summary(old)?, summary(new)?);
            let v = verdict(m, &a, &b);
            any_worse |= v == Verdict::Worse;
            println!(
                "{workload:<12} {:<17} {:>14.6} {:>14.6} {:>7.1}% {:>7.0}%  {}",
                m.name,
                a.median,
                b.median,
                (b.median / a.median - 1.0) * 100.0,
                m.bound * 100.0,
                v.name()
            );
        }
        let share = |w| Ok::<_, String>(num_of(w, "failed")? / num_of(w, "attempted")?.max(1.0));
        let (a, b) = (share(old)?, share(new)?);
        let v = if b > a { Verdict::Worse } else { Verdict::Ok };
        any_worse |= v == Verdict::Worse;
        println!(
            "{workload:<12} {:<17} {a:>14.6} {b:>14.6} {:>8} {:>8}  {}",
            "failed_share",
            "",
            "",
            v.name()
        );
    }
    Ok(any_worse)
}

/// Records the benchmark, or diffs a fresh run against `against`;
/// `Ok(true)` when some row is worse.
fn run(against: Option<&str>) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let bench = parse_benchmark(&text)?;
    let record = match against {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Json::parse(&text)?)
        }
        None => None,
    };
    let fresh = measure(&bench)?;
    match record {
        Some(record) => diff(&bench, &record, &Json::parse(&fresh)?),
        None => {
            std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
            std::fs::write(RECORD, fresh).map_err(|e| format!("{RECORD}: {e}"))?;
            println!("wrote {RECORD}");
            Ok(false)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let against = match raw.as_slice() {
        [] => None,
        [flag, path] if flag == "--diff" => Some(path.as_str()),
        _ => {
            eprintln!("usage: bench_record [--diff <record>]");
            return ExitCode::from(2);
        }
    };
    match run(against) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_record: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERFBENCH_STDOUT: &str = "\
provenance: git_rev=abc123 nproc=2 kernel=avx2 pool_width=2 solver=auto workload=online seed=1 seconds=20 trace=0
accounting: attempted=12 ok=11 failed=1 refused=0 error_rate=0.083333
latency: p50=1.5 ms over 12 operations (too few for a supported tail)
end-to-end:
  setup_s                              0.250000 s          lower is better
{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}
";

    #[test]
    fn parses_the_provenance_line_and_the_last_line_json() {
        let run = parse_run(PERFBENCH_STDOUT).unwrap();
        let get = |k: &str| {
            run.provenance
                .iter()
                .find(|(n, _)| n == k)
                .unwrap()
                .1
                .clone()
        };
        assert_eq!(get("git_rev"), "abc123");
        assert_eq!(get("kernel"), "avx2");
        assert_eq!(get("seed"), "1");
        assert_eq!(run.provenance.len(), 9);
        assert_eq!((run.attempted, run.failed), (12.0, 1.0));
        assert_eq!(
            run.metrics,
            [("setup_s".to_string(), 0.25), ("p50_ms".to_string(), 1.5)]
        );
    }

    #[test]
    fn rejects_runs_without_provenance_or_a_correct_result() {
        let no_provenance = PERFBENCH_STDOUT.replace("provenance: ", "");
        assert!(parse_run(&no_provenance).is_err());
        let incorrect = PERFBENCH_STDOUT.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_run(&incorrect).is_err());
        let truncated = PERFBENCH_STDOUT
            .lines()
            .take(4)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(parse_run(&truncated).is_err());
    }

    #[test]
    fn quartiles_on_odd_and_even_n() {
        let odd = Summary::of(&[7.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0]);
        assert_eq!((odd.q1, odd.median, odd.q3, odd.n), (2.5, 4.0, 5.5, 7));
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.q1, even.median, even.q3, even.n),
            (1.75, 2.5, 3.25, 4)
        );
        let one = Summary::of(&[9.0]);
        assert_eq!((one.q1, one.median, one.q3), (9.0, 9.0, 9.0));
        for samples in [&[7.0, 1.0, 3.0, 5.0, 2.0][..], &[4.0, 1.0, 3.0, 2.0]] {
            assert_eq!(
                Summary::of(samples).median,
                dfr_bench::sample_stats(samples).1
            );
        }
    }

    #[test]
    fn summary_round_trips_through_the_record() {
        let s = Summary::of(&[0.1, 0.7, 0.3]);
        assert_eq!(
            Summary::from_json(&Json::parse(&s.to_json()).unwrap()),
            Ok(s)
        );
    }

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound: 0.25,
        }
    }

    fn at(median: f64) -> Summary {
        Summary {
            median,
            q1: median,
            q3: median,
            n: 7,
        }
    }

    #[test]
    fn verdict_at_the_bound_for_lower_is_better() {
        let lower = metric(false);
        assert_eq!(verdict(&lower, &at(100.0), &at(125.0)), Verdict::Ok);
        assert_eq!(verdict(&lower, &at(100.0), &at(125.5)), Verdict::Worse);
        assert_eq!(verdict(&lower, &at(100.0), &at(10.0)), Verdict::Ok);
    }

    #[test]
    fn verdict_at_the_bound_for_higher_is_better() {
        let higher = metric(true);
        assert_eq!(verdict(&higher, &at(100.0), &at(75.0)), Verdict::Ok);
        assert_eq!(verdict(&higher, &at(100.0), &at(74.5)), Verdict::Worse);
        assert_eq!(verdict(&higher, &at(100.0), &at(1000.0)), Verdict::Ok);
    }

    #[test]
    fn verdict_is_unresolved_when_an_iqr_is_wider_than_the_bound() {
        let lower = metric(false);
        let edge = Summary {
            q1: 90.0,
            q3: 115.0,
            ..at(100.0)
        };
        assert_eq!(verdict(&lower, &edge, &at(130.0)), Verdict::Worse);
        let wide = Summary { q3: 115.5, ..edge };
        assert_eq!(verdict(&lower, &wide, &at(130.0)), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &at(100.0), &wide), Verdict::Unresolved);
        assert_eq!(
            verdict(&metric(true), &wide, &at(50.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn provenance_differences_ignore_only_the_git_rev() {
        let record = Json::parse(
            r#"{"provenance": {"git_rev": "a", "nproc": "2", "kernel": "avx2", "repeats": 7}}"#,
        )
        .unwrap();
        let same_but_rev = Json::parse(
            r#"{"provenance": {"git_rev": "b", "nproc": "2", "kernel": "avx2", "repeats": 7}}"#,
        )
        .unwrap();
        assert_eq!(
            provenance_differences(&record, &same_but_rev).unwrap(),
            Vec::<String>::new()
        );
        let other_host = Json::parse(
            r#"{"provenance": {"git_rev": "a", "nproc": "1", "repeats": 7, "solver": "qr"}}"#,
        )
        .unwrap();
        assert_eq!(
            provenance_differences(&record, &other_host).unwrap(),
            [
                "nproc: 2 → 1",
                "kernel: avx2 → absent",
                "solver: absent → qr"
            ]
        );
    }

    #[test]
    fn diff_refuses_a_record_of_another_provenance() {
        let bench = Benchmark {
            command: vec!["true".into()],
            run_seconds: 1.0,
            workloads: Vec::new(),
            end_to_end: Vec::new(),
        };
        let record = Json::parse(r#"{"provenance": {"git_rev": "a", "nproc": "2"}}"#).unwrap();
        let fresh = Json::parse(r#"{"provenance": {"git_rev": "b", "nproc": "4"}}"#).unwrap();
        let err = diff(&bench, &record, &fresh).unwrap_err();
        assert!(err.contains("nproc: 2 → 4"), "{err}");
        assert_eq!(diff(&bench, &record, &record), Ok(false));
    }

    #[test]
    fn reads_the_repository_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let bench = parse_benchmark(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bench.command[0], "cargo");
        assert!(bench.run_seconds > 0.0);
        assert_eq!(bench.workloads.len(), 5);
        let names: Vec<&str> = bench.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "peak_rss_mb", "p50_ms", "throughput_per_s"]
        );
        assert!(bench.end_to_end[3].higher_is_better);
        assert!(bench.end_to_end.iter().all(|m| m.bound > 0.0));
    }
}
