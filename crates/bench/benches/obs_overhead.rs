//! Observer-hook overhead on the paper's Table-1 workload.
//!
//! The `qbm_obs::Observer` hooks in the router event loop are meant to
//! be *zero-cost when disabled*: `run()` passes a `NullObserver` whose
//! `ENABLED = false` makes every `if O::ENABLED { … }` guard a
//! compile-time constant, so monomorphization deletes the hook bodies
//! and the per-flow crossing state. This bench times:
//!
//! * `baseline` — `run()`;
//! * `noop` — `run_with(&mut NullObserver)`, the disabled-observer
//!   path;
//! * `counting` — `run_with(&mut CountingObserver)`, the cheapest live
//!   observer (a handful of u64 increments per event);
//! * `tracer` — `run_with(&mut Tracer)`, full record construction into
//!   the bounded ring buffer.
//!
//! `run()` is itself `run_with(&mut NullObserver)`, so `baseline` and
//! `noop` time the same function: the exported `noop_over_baseline`
//! ratio (`BENCH_obs.json`, committed) shows run-to-run noise, not the
//! zero-cost guarantee, which comes from the `O::ENABLED` const guard.
//! The live-observer rows measure what enabling hooks costs.
//!
//! A hand-written `main` (instead of `criterion_main!`) exports the
//! measurements to `BENCH_obs.json` next to the workspace root. The
//! file's `obs_stats` section is frozen history from a retired bench
//! (live sketch cost is perfbench's `obs.sketch.ns_per_record`); a
//! rewrite carries it over unchanged.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_bench::bench_file;
use qbm_core::policy::{FixedThreshold, ThresholdOptions};
use qbm_core::units::{ByteSize, Time};
use qbm_obs::{CountingObserver, NullObserver, Observer, Tracer};
use qbm_sched::Fifo;
use qbm_sim::scenarios::{paper_experiment, section3_schemes};
use qbm_sim::{Router, SimResult};
use qbm_traffic::build_source_kind;

/// Simulated time per iteration; long enough for thousands of packets.
const SIM_END_MS: u64 = 500;

/// The committed file this bench writes, and the start of its frozen
/// `obs_stats` section (the last member).
const FILE: &str = "BENCH_obs.json";
const FROZEN: &str = ",\n  \"obs_stats\": ";

/// Build the monomorphized Table-1 router and run it to [`SIM_END_MS`]
/// with the given observer — one bench iteration.
fn run_table1<O: Observer>(cfg: &qbm_sim::ExperimentConfig, obs: &mut O) -> SimResult {
    let seed = 1u64;
    let end = Time::from_secs_f64(SIM_END_MS as f64 / 1e3);
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
    router.run_with(Time::ZERO, end, seed, obs)
}

fn bench_obs(c: &mut Criterion) {
    let specs = qbm_traffic::table1();
    let buffer = ByteSize::from_mib(1).bytes();
    let scheme = section3_schemes()
        .into_iter()
        .find(|s| s.label == "fifo+thresh")
        .expect("fifo+thresh scheme");
    let cfg = paper_experiment(&specs, &scheme, buffer);

    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Elements(SIM_END_MS));
    let end = Time::from_secs_f64(SIM_END_MS as f64 / 1e3);
    let seed = 1u64;

    g.bench_with_input(BenchmarkId::new("table1", "baseline"), &cfg, |b, cfg| {
        b.iter(|| {
            // The plain entry point on the statically typed router,
            // as it ran before the observer hooks existed.
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

    g.bench_with_input(BenchmarkId::new("table1", "noop"), &cfg, |b, cfg| {
        b.iter(|| black_box(run_table1(cfg, &mut NullObserver)));
    });

    g.bench_with_input(BenchmarkId::new("table1", "counting"), &cfg, |b, cfg| {
        b.iter(|| {
            let mut obs = CountingObserver::default();
            let res = run_table1(cfg, &mut obs);
            black_box((res, obs.counts.total()))
        });
    });

    g.bench_with_input(BenchmarkId::new("table1", "tracer"), &cfg, |b, cfg| {
        b.iter(|| {
            let mut obs = Tracer::default();
            let res = run_table1(cfg, &mut obs);
            black_box((res, obs.len()))
        });
    });

    g.finish();
}

fn main() -> std::io::Result<()> {
    let mut criterion = Criterion::default();
    bench_obs(&mut criterion);

    let results = criterion.results();
    let find = |suffix: &str| results.iter().find(|r| r.id.ends_with(suffix));
    let baseline = find("/baseline");
    let noop = find("/noop");
    let mut json = String::from("{\n  \"bench\": \"obs_overhead\",\n");
    json.push_str(&format!(
        "  \"workload\": \"table1, fifo+thresh, {SIM_END_MS} simulated ms per iter\",\n"
    ));
    json.push_str(&bench_file::results_member(results));
    if let (Some(b), Some(n)) = (baseline, noop) {
        let ratio = n.mean_ns / b.mean_ns;
        json.push_str(&format!(",\n  \"noop_over_baseline\": {ratio:.4}"));
        println!("obs: noop/baseline = {ratio:.3}x (acceptance: <= 1.02)");
    }
    let old = std::fs::read_to_string(bench_file::path(FILE)).unwrap_or_default();
    if let Some(i) = old.find(FROZEN) {
        let frozen = old[i..].trim_end().strip_suffix('}').unwrap_or_default();
        json.push_str(frozen.trim_end());
    }
    json.push_str("\n}\n");
    bench_file::write(FILE, &json)
}
