//! Streaming-sketch overhead on the paper's Table-1 workload.
//!
//! The quantile sketches (DESIGN.md §14) ride the router event loop
//! behind a `stats.sketching()` guard: with `StatsConfig::default()`
//! the occupancy arguments are never computed and the per-departure
//! sketch updates vanish. This bench pins that claim:
//!
//! * `sketch_off` — `run_once` with the default (exact-counters-only)
//!   stats configuration;
//! * `sketch_on` — the same run with aggregate + per-flow delay and
//!   occupancy sketches attached.
//!
//! Two numbers come out of this. The *acceptance* number is the ≤2%
//! noop bar from `obs_overhead`: `sketch_off` runs the identical code
//! path as that bench's `baseline`, so the guard being free when
//! sketches are off is already pinned there. The exported
//! `sketch_on_over_off` ratio here tracks the *live* cost — six bucket
//! updates per packet against a ~20 ns/event loop (≈1.5× on Table 1;
//! see DESIGN.md §14) — so regressions in the update path are visible
//! in `BENCH_obs.json` (`obs_stats` section) rather than hidden.
//! Set `QBM_BENCH_QUICK=1` for the CI perf-smoke variant.
//!
//! A hand-written `main` (instead of `criterion_main!`) splices the
//! measurements into `BENCH_obs.json` next to the workspace root,
//! idempotently, so `obs_overhead` and this bench can run in any order.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_core::units::ByteSize;
use qbm_sim::scenarios::{paper_experiment, section3_schemes};
use qbm_sim::{SketchParams, StatsConfig};

/// Simulated time per iteration (duration after warmup), milliseconds.
const SIM_MS: u64 = 500;

fn quick() -> bool {
    std::env::var("QBM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn bench_sketches(c: &mut Criterion) {
    let specs = qbm_traffic::table1();
    let buffer = ByteSize::from_mib(1).bytes();
    let scheme = section3_schemes()
        .into_iter()
        .find(|s| s.label == "fifo+thresh")
        .expect("fifo+thresh scheme");
    let mut cfg = paper_experiment(&specs, &scheme, buffer);
    cfg.warmup = qbm_core::units::Dur::ZERO;
    cfg.duration = qbm_core::units::Dur::from_millis(SIM_MS);

    let mut g = c.benchmark_group("obs_stats");
    g.sample_size(if quick() { 3 } else { 10 });
    g.throughput(Throughput::Elements(SIM_MS));

    g.bench_with_input(BenchmarkId::new("table1", "sketch_off"), &cfg, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(cfg.run_once(seed))
        });
    });

    let mut on = cfg.clone();
    on.stats = StatsConfig {
        sketches: Some(SketchParams::default()),
    };
    g.bench_with_input(BenchmarkId::new("table1", "sketch_on"), &on, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(cfg.run_once(seed))
        });
    });

    g.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_sketches(&mut criterion);

    let results = criterion.results();
    let find = |suffix: &str| results.iter().find(|r| r.id.ends_with(suffix));

    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"workload\": \"table1, fifo+thresh, {SIM_MS} simulated ms per iter\",\n"
    ));
    section.push_str(&format!("    \"quick\": {},\n", quick()));
    section.push_str("    \"results\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "      {{\"id\": \"{}\", \"mean_ns_per_iter\": {:.1}, \"iters\": {}}}",
                r.id, r.mean_ns, r.iters
            )
        })
        .collect();
    section.push_str(&rows.join(",\n"));
    section.push_str("\n    ]");
    if let (Some(off), Some(on)) = (find("/sketch_off"), find("/sketch_on")) {
        let ratio = on.mean_ns / off.mean_ns;
        section.push_str(&format!(",\n    \"sketch_on_over_off\": {ratio:.4}"));
        println!("obs_stats: sketch_on/sketch_off = {ratio:.3}x (live-update cost; disabled-path acceptance is obs_overhead's noop bar)");
    }
    section.push_str("\n  }");

    // Splice into BENCH_obs.json: replace any prior obs_stats section,
    // else append before the closing brace; write standalone if the
    // obs_overhead bench has not produced the file yet.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    const KEY: &str = ",\n  \"obs_stats\": ";
    let json = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let base = match existing.find(KEY) {
                Some(i) => existing[..i].to_string(),
                None => existing
                    .trim_end()
                    .trim_end_matches('}')
                    .trim_end()
                    .to_string(),
            };
            format!("{base}{KEY}{section}\n}}\n")
        }
        Err(_) => format!("{{\n  \"bench\": \"obs_overhead\"{KEY}{section}\n}}\n"),
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
}
