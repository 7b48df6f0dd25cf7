//! Shared plumbing for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §6 for the experiment index); this library provides the
//! common pieces: dataset preparation, a tiny CLI-flag parser and
//! fixed-width table/CSV rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfr_data::{paper_dataset_with, Dataset, PaperDataset};

/// Builds and standardises a paper dataset, optionally scaling split sizes.
pub fn prepared_dataset(which: PaperDataset, seed: u64, scale: f64) -> Dataset {
    let mut ds = if (scale - 1.0).abs() < 1e-12 {
        paper_dataset_with(which, seed)
    } else {
        which.spec().scaled(scale).build(seed)
    };
    dfr_data::normalize::standardize(&mut ds);
    ds
}

/// A minimal `--flag value` command-line parser (no external deps).
///
/// # Example
///
/// ```
/// let args = dfr_bench::Args::parse(["--scale", "0.5", "--fast"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_f64("scale", 1.0), 0.5);
/// assert!(args.has("fast"));
/// assert_eq!(args.get_usize("divisions", 8), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses flags from an iterator of raw arguments.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let raw: Vec<String> = raw.into_iter().collect();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Args::parse(std::env::args().skip(1))
    }

    /// Whether a flag is present (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `f64` value of a flag with a default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `usize` value of a flag with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Comma-separated dataset list, defaulting to all 12.
    pub fn datasets(&self) -> Vec<PaperDataset> {
        match self.get("datasets") {
            None => PaperDataset::ALL.to_vec(),
            Some(list) => list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|code| PaperDataset::from_code(code.trim()).unwrap_or_else(|e| panic!("{e}")))
                .collect(),
        }
    }
}

/// Installs the `--threads` flag (when present) as the process-wide pool
/// width and returns the width parallel regions will actually use.
///
/// Without the flag the pool keeps its environment-driven sizing
/// (`DFR_THREADS`, then available parallelism), so
/// `DFR_THREADS=4 cargo run …` and `cargo run … -- --threads 4` are
/// equivalent.
pub fn apply_threads(args: &Args) -> usize {
    if let Some(t) = args.get("threads").and_then(|v| v.parse::<usize>().ok()) {
        dfr_pool::set_threads(Some(t.max(1)));
    }
    dfr_pool::max_threads()
}

/// Current git revision, or `"unknown"` outside a checkout — provenance
/// for committed records.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders one JSON object from keys and pre-rendered JSON value fragments
/// (use [`json_str`] / [`json_f64`] to render the values).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Renders a JSON array from pre-rendered object/value lines.
pub fn json_array(items: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(item);
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders an escaped JSON string value.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value — just enough JSON for the bench harness to read
/// back its own records (`results/BENCH_*.json`) in the `bench-diff`
/// regression gate and the `bench-all` merger. Recursive descent, no
/// external deps; numbers are `f64` (all the harness ever writes).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (the harness writes it for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the harness never repeats keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Surrogates never appear in harness output; map
                        // them to the replacement character rather than
                        // decoding pairs.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Re-borrow the raw UTF-8: back up to include multibyte
                // sequences verbatim.
                let start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\\' {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// Mean, median and population standard deviation of a sample set —
/// the noise-robust summary the bench records carry alongside the mean.
///
/// # Panics
///
/// Panics if `samples` is empty.
///
/// # Example
///
/// ```
/// let (mean, median, stddev) = dfr_bench::sample_stats(&[1.0, 2.0, 9.0]);
/// assert_eq!(mean, 4.0);
/// assert_eq!(median, 2.0);
/// assert!(stddev > 3.5 && stddev < 3.6);
/// ```
pub fn sample_stats(samples: &[f64]) -> (f64, f64, f64) {
    assert!(
        !samples.is_empty(),
        "sample_stats needs at least one sample"
    );
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    };
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, median, var.sqrt())
}

/// The `p`-th percentile (0 ≤ `p` ≤ 100) of a sample set, by nearest
/// rank on the sorted data — the latency summary (`p50`/`p99`/`p999`)
/// the serving benchmarks record. Nearest rank, not interpolation: a
/// reported tail value is always a latency that actually occurred.
///
/// # Panics
///
/// Panics if `samples` is empty.
///
/// # Example
///
/// ```
/// let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// assert_eq!(dfr_bench::percentile(&samples, 50.0), 50.0);
/// assert_eq!(dfr_bench::percentile(&samples, 99.0), 99.0);
/// assert_eq!(dfr_bench::percentile(&samples, 100.0), 100.0);
/// assert_eq!(dfr_bench::percentile(&samples, 0.0), 1.0);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Renders a row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Writes CSV content to `results/<name>` (creating the directory), and
/// returns the path written.
///
/// # Panics
///
/// Panics on I/O errors — benchmark binaries treat those as fatal.
pub fn write_results(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write results file");
    path
}

/// An ASCII heat-map of a matrix (row-major), one character per cell, with
/// `#` the hottest decile and `.` the coldest.
pub fn ascii_heatmap(values: &dfr_linalg::Matrix) -> String {
    const RAMP: &[u8] = b".:-=+*%@#";
    let (lo, hi) = dfr_linalg::stats::min_max(values.as_slice()).unwrap_or((0.0, 1.0));
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut out = String::new();
    for i in 0..values.rows() {
        for j in 0..values.cols() {
            let t = ((values[(i, j)] - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[t.min(RAMP.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let a = Args::parse(
            ["--x", "3", "--flag", "--datasets", "ecg,lib"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get_usize("x", 0), 3);
        assert!(a.has("flag"));
        assert!(!a.has("missing"));
        assert_eq!(a.datasets(), vec![PaperDataset::Ecg, PaperDataset::Lib]);
        assert_eq!(Args::parse(std::iter::empty()).datasets().len(), 12);
    }

    #[test]
    fn prepared_dataset_is_standardised() {
        let ds = prepared_dataset(PaperDataset::Jpvow, 0, 0.2);
        assert!(ds.train().len() < PaperDataset::Jpvow.spec().train_size);
        assert_eq!(ds.num_classes(), 9);
    }

    #[test]
    fn heatmap_shape() {
        let m = dfr_linalg::Matrix::from_rows(&[&[0.0, 1.0], &[0.5, 0.25]]).unwrap();
        let s = ascii_heatmap(&m);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
        assert!(s.contains('.'));
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn json_rendering() {
        let obj = json_object(&[
            ("name", json_str("a\"b")),
            ("x", json_f64(1.5)),
            ("bad", json_f64(f64::NAN)),
        ]);
        assert_eq!(obj, "{\"name\": \"a\\\"b\", \"x\": 1.5, \"bad\": null}");
        let arr = json_array(&[obj.clone(), obj]);
        assert!(arr.starts_with("[\n  {"));
        assert!(arr.ends_with("}\n]\n"));
        assert_eq!(arr.matches("\"x\": 1.5").count(), 2);
    }

    #[test]
    fn json_parser_round_trips_harness_output() {
        let rendered = json_array(&[json_object(&[
            ("bench", json_str("matmul \"quoted\"")),
            ("median_ns", json_f64(1234.5)),
            ("bad", json_f64(f64::INFINITY)),
            ("identical", "true".to_string()),
            ("kernels", json_object(&[("avx2", json_f64(2.0))])),
        ])]);
        let parsed = Json::parse(&rendered).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("bench").unwrap().as_str(),
            Some("matmul \"quoted\"")
        );
        assert_eq!(rows[0].get("median_ns").unwrap().as_f64(), Some(1234.5));
        assert_eq!(rows[0].get("bad"), Some(&Json::Null));
        assert_eq!(rows[0].get("identical"), Some(&Json::Bool(true)));
        let kernels = rows[0].get("kernels").unwrap();
        assert_eq!(kernels.get("avx2").unwrap().as_f64(), Some(2.0));
        assert_eq!(kernels.get("neon"), None);
    }

    #[test]
    fn json_parser_handles_corners() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse(" {} ").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"a\\u0041\\nb\"").unwrap(),
            Json::Str("aA\nb".into())
        );
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn apply_threads_reads_flag() {
        let args = Args::parse(["--threads", "3"].iter().map(|s| s.to_string()));
        // apply_threads flips the process-wide pool override, which is
        // briefly visible to concurrently running tests; that is safe
        // because results are thread-count-independent by contract and no
        // test asserts the *default* width. The scratch thread keeps this
        // thread's local-override state untouched.
        std::thread::spawn(move || {
            assert_eq!(apply_threads(&args), 3);
            dfr_pool::set_threads(None);
        })
        .join()
        .unwrap();
    }
}
