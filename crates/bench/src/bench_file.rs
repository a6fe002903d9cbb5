//! The pieces every bench that writes a committed `BENCH_*.json` file
//! shares: the quick-mode switch, the per-point results array, and the
//! write to the workspace root.

use criterion::BenchResult;
use std::path::PathBuf;

/// `QBM_BENCH_QUICK` is set to something other than empty or `0`: the
/// CI perf-smoke variant (fewer samples and points).
pub fn quick() -> bool {
    std::env::var("QBM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The `"results"` member of a BENCH file: one
/// `{"id", "mean_ns_per_iter", "iters"}` row per measured point, in
/// measurement order, indented as a top-level key.
pub fn results_member(results: &[BenchResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"mean_ns_per_iter\": {:.1}, \"iters\": {}}}",
                r.id, r.mean_ns, r.iters
            )
        })
        .collect();
    format!("  \"results\": [\n{}\n  ]", rows.join(",\n"))
}

/// Where the BENCH file `name` lives: the workspace root (cargo runs
/// benches from the package directory).
pub fn path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
}

/// Write `json` to the BENCH file `name` at the workspace root.
pub fn write(name: &str, json: &str) -> std::io::Result<()> {
    let path = path(name);
    std::fs::write(&path, json).map_err(|e| {
        std::io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    })
}
