//! Regenerates the paper's **Fig. 6**: the grid-search accuracy landscape
//! on CHAR at two refinement levels, illustrating why recursive grid
//! refinement can commit to the wrong basin.
//!
//! ```text
//! cargo run --release -p dfr-bench --bin fig6 [-- --divisions 8 --scale 0.5 \
//!     --threads 4]
//! ```
//!
//! Level 1 is the coarse landscape over the full search box; level 2 is
//! the landscape inside the cell the coarse level would refine into. The
//! run also reports the global best of a fine uniform grid, so the output
//! shows directly whether recursive refinement would have missed it.
//!
//! Every landscape evaluates its grid cells concurrently over the
//! `dfr-pool` execution layer (`--threads` / `DFR_THREADS` set the width)
//! and is bit-identical at every thread count.

use dfr_bench::{
    apply_threads, ascii_heatmap, json_array, json_f64, json_object, prepared_dataset,
    write_results, Args,
};
use dfr_core::grid::{grid_points, landscape, recursive_search, GridOptions};
use dfr_data::PaperDataset;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let divisions = args.get_usize("divisions", 8);
    let scale = args.get_f64("scale", 1.0);
    let seed = args.get_usize("seed", 0) as u64;
    let which = args
        .get("dataset")
        .map(|c| PaperDataset::from_code(c).expect("unknown dataset"))
        .unwrap_or(PaperDataset::Char);
    let threads = apply_threads(&args);

    let ds = prepared_dataset(which, seed, scale);
    let options = GridOptions::default();

    // Level 1: coarse landscape over the full box.
    let level1_start = Instant::now();
    let level1 = landscape(&ds, &options, divisions).expect("landscape failed");
    let level1_seconds = level1_start.elapsed().as_secs_f64();
    println!(
        "Fig. 6 — grid-search accuracy landscape on {which} ({threads} threads; rows: A index 0..{divisions}, cols: B)",
    );
    println!(
        "level 1 ({divisions}x{divisions}, full box A∈[1e-3.75,1e-0.25], B∈[1e-2.75,1e-0.25]):"
    );
    print!("{}", ascii_heatmap(&level1));

    // Level 2: recursive refinement into the best coarse cell.
    let rec = recursive_search(&ds, &options, divisions, 2).expect("recursive search failed");
    let coarse_best = rec.trajectory[0];
    let refined_best = rec.trajectory[1];
    // Landscape of the refined cell for display.
    let a_step = (options.a_log10_range.1 - options.a_log10_range.0) / (divisions - 1) as f64;
    let b_step = (options.b_log10_range.1 - options.b_log10_range.0) / (divisions - 1) as f64;
    let zoom = GridOptions {
        a_log10_range: (
            (coarse_best.a.log10() - a_step).max(options.a_log10_range.0),
            (coarse_best.a.log10() + a_step).min(options.a_log10_range.1),
        ),
        b_log10_range: (
            (coarse_best.b.log10() - b_step).max(options.b_log10_range.0),
            (coarse_best.b.log10() + b_step).min(options.b_log10_range.1),
        ),
        ..options.clone()
    };
    let level2 = landscape(&ds, &zoom, divisions).expect("zoom landscape failed");
    println!(
        "\nlevel 2 (zoom into the best coarse cell around A={:.3}, B={:.3}):",
        coarse_best.a, coarse_best.b
    );
    print!("{}", ascii_heatmap(&level2));

    // Global reference: a uniform fine grid of the same total budget as
    // coarse+zoom, to expose basin-commitment failures.
    let fine = landscape(&ds, &options, 2 * divisions).expect("fine landscape failed");
    let global_best = fine
        .as_slice()
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\ncoarse best accuracy:    {:.3} at (A={:.4}, B={:.4})",
        coarse_best.test_accuracy, coarse_best.a, coarse_best.b
    );
    println!(
        "refined best accuracy:   {:.3} at (A={:.4}, B={:.4})",
        refined_best.test_accuracy, refined_best.a, refined_best.b
    );
    println!("uniform fine-grid best:  {global_best:.3}");
    if refined_best.test_accuracy + 1e-9 < global_best {
        println!(
            "→ recursive refinement MISSED the global optimum (the paper's Fig. 6 failure mode)"
        );
    } else {
        println!("→ recursive refinement found the global optimum on this dataset/seed");
    }

    // CSV: level-1 and level-2 landscapes with coordinates.
    let mut csv = String::from("level,a,b,accuracy\n");
    let mut json_rows = Vec::new();
    let a1 = grid_points(options.a_log10_range, divisions);
    let b1 = grid_points(options.b_log10_range, divisions);
    for (i, &a) in a1.iter().enumerate() {
        for (j, &b) in b1.iter().enumerate() {
            let _ = writeln!(csv, "1,{a},{b},{}", level1[(i, j)]);
            json_rows.push(json_object(&[
                ("level", "1".to_string()),
                ("a", json_f64(a)),
                ("b", json_f64(b)),
                ("accuracy", json_f64(level1[(i, j)])),
            ]));
        }
    }
    let a2 = grid_points(zoom.a_log10_range, divisions);
    let b2 = grid_points(zoom.b_log10_range, divisions);
    for (i, &a) in a2.iter().enumerate() {
        for (j, &b) in b2.iter().enumerate() {
            let _ = writeln!(csv, "2,{a},{b},{}", level2[(i, j)]);
            json_rows.push(json_object(&[
                ("level", "2".to_string()),
                ("a", json_f64(a)),
                ("b", json_f64(b)),
                ("accuracy", json_f64(level2[(i, j)])),
            ]));
        }
    }
    println!("\nlevel-1 landscape wall-clock: {level1_seconds:.2}s at {threads} threads");
    let path = write_results("fig6.csv", &csv);
    let json_path = write_results("fig6.json", &json_array(&json_rows));
    println!("wrote {} and {}", path.display(), json_path.display());
}
