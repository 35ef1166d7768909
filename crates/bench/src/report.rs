//! The one JSON writer behind the `BENCH_*.json` files that the
//! custom-`main` benches (`gemm_forward`, `probe_eval`, `simd_forward`,
//! `serving`) leave at the workspace root.
//!
//! Values are rendered with photon-trace's [`json_f64`] / [`json_str`], so a
//! non-finite ratio becomes `null` instead of invalid JSON. Every file
//! opens with the same three fields — `bench`, `kernel` and
//! `host_available_parallelism` — so a reader of any one report knows which
//! kernel tier and how much hardware produced its numbers.

use std::io;
use std::path::Path;

pub use photon_trace::{json_f64, json_str};

/// Threads the host can actually run concurrently.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `v` rounded to `decimals` places as a JSON number (`null` when `v` is
/// not finite).
pub fn json_fixed(v: f64, decimals: i32) -> String {
    let scale = 10f64.powi(decimals);
    json_f64((v * scale).round() / scale)
}

/// A one-line JSON object of pre-rendered values, in the given order.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {value}", json_str(key)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array of pre-rendered values, one element per line.
pub fn json_rows(rows: &[String]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Writes `file` at the workspace root: a JSON object holding `bench`,
/// `kernel` and `host_available_parallelism`, then `fields` in order, one
/// top-level field per line.
///
/// # Errors
///
/// Any I/O error from writing the file.
pub fn write_bench_json(file: &str, bench: &str, fields: &[(&str, String)]) -> io::Result<()> {
    let mut all = vec![
        ("bench", json_str(bench)),
        ("kernel", json_str(photon_linalg::kernel_tier().name())),
        ("host_available_parallelism", host_parallelism().to_string()),
    ];
    all.extend(fields.iter().map(|(key, value)| (*key, value.clone())));
    let body: Vec<String> = all
        .iter()
        .map(|(key, value)| format!("  {}: {value}", json_str(key)))
        .collect();
    // Benches run with CWD = crate root (crates/bench); the reports live at
    // the workspace root.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
}
