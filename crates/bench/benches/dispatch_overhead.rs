//! Monomorphized vs boxed engine dispatch on the paper's Table-1
//! workload (9 flows, FIFO + fixed thresholds).
//!
//! `Router<P, S>` defaults its type parameters to `Box<dyn ..>`, so the
//! historical trait-object call sites keep working; this bench runs the
//! same simulation through both instantiations and records the per-run
//! cost of each. The refactor's claim is that the static path is never
//! slower — per-packet work then flows through direct calls the
//! compiler can inline instead of two vtable hops.
//!
//! A hand-written `main` (instead of `criterion_main!`) exports the
//! measurements to `BENCH_dispatch.json` next to the workspace root.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_core::policy::{FixedThreshold, ThresholdOptions};
use qbm_core::units::{ByteSize, Time};
use qbm_sched::Fifo;
use qbm_sim::scenarios::{paper_experiment, section3_schemes, LINK_RATE};
use qbm_sim::Router;
use qbm_traffic::build_source_kind;

/// Simulated time per iteration; long enough for thousands of packets.
const SIM_END_MS: u64 = 500;

fn bench_dispatch(c: &mut Criterion) {
    let specs = qbm_traffic::table1();
    let buffer = ByteSize::from_mib(1).bytes();
    let scheme = section3_schemes()
        .into_iter()
        .find(|s| s.label == "fifo+thresh")
        .expect("fifo+thresh scheme");
    let cfg = paper_experiment(&specs, &scheme, buffer);

    let mut g = c.benchmark_group("dispatch");
    g.throughput(Throughput::Elements(SIM_END_MS));
    let end = Time::from_secs_f64(SIM_END_MS as f64 / 1e3);
    let seed = 1u64;

    g.bench_with_input(BenchmarkId::new("table1", "boxed"), &cfg, |b, cfg| {
        b.iter(|| {
            // The pre-refactor shape: both policy and scheduler behind
            // `Box<dyn ..>` (what `ExperimentConfig::run_once` builds).
            let policy = cfg
                .policy
                .build(cfg.buffer_bytes, cfg.link_rate, &cfg.specs);
            let sched = cfg.sched.build(cfg.link_rate, &cfg.specs);
            let sources: Vec<_> = cfg
                .specs
                .iter()
                .map(|s| build_source_kind(s, seed))
                .collect();
            let router = Router::new(cfg.link_rate, policy, sched, sources);
            black_box(router.run(Time::ZERO, end, seed))
        });
    });

    g.bench_with_input(BenchmarkId::new("table1", "mono"), &cfg, |b, cfg| {
        b.iter(|| {
            // Identical simulation, statically typed end to end:
            // `Router<FixedThreshold, Fifo>`.
            let policy = FixedThreshold::new(
                cfg.buffer_bytes,
                cfg.link_rate,
                &cfg.specs,
                ThresholdOptions::default(),
            );
            let sources: Vec<_> = cfg
                .specs
                .iter()
                .map(|s| build_source_kind(s, seed))
                .collect();
            let router = Router::new(cfg.link_rate, policy, Fifo::new(), sources);
            black_box(router.run(Time::ZERO, end, seed))
        });
    });

    g.finish();
    let _ = LINK_RATE; // workload constant documented by the import
}

fn main() {
    let mut criterion = Criterion::default();
    bench_dispatch(&mut criterion);

    let results = criterion.results();
    let boxed = results.iter().find(|r| r.id.ends_with("/boxed"));
    let mono = results.iter().find(|r| r.id.ends_with("/mono"));
    let mut json = String::from("{\n  \"bench\": \"dispatch_overhead\",\n");
    json.push_str(&format!(
        "  \"workload\": \"table1, fifo+thresh, {SIM_END_MS} simulated ms per iter\",\n"
    ));
    json.push_str("  \"results\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"mean_ns_per_iter\": {:.1}, \"iters\": {}}}",
                r.id, r.mean_ns, r.iters
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]");
    if let (Some(b), Some(m)) = (boxed, mono) {
        let speedup = b.mean_ns / m.mean_ns;
        json.push_str(&format!(",\n  \"boxed_over_mono\": {speedup:.4}"));
        println!("dispatch: boxed/mono = {speedup:.3}x");
    }
    json.push_str("\n}\n");
    // Anchor to the workspace root (cargo runs benches from the
    // package directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
}
