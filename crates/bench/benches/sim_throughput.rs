//! End-to-end simulator throughput: the indexed-timer event core
//! (`run_once`, the default) against the reference `BinaryHeap` event
//! queue (`qbm_oracle::run_once_reference`), both over the same
//! enum-dispatched sources, on the paper's workloads.
//!
//! Per §3.2 scheme on Table 1, both paths run the identical simulation
//! (the determinism suite proves byte-identical results); the JSON
//! records mean wall time, the `indexed_over_baseline` speedup, and the
//! headline simulated-seconds-per-wall-second / events-per-second
//! figures for Table 1 and the 30-flow Table 2 workload.
//!
//! A closed-loop section runs the AIMD incast fabric (feedback routed
//! from the shared aggregation link back to each sender's source) and
//! reports its events/sec alongside the open-loop pairs.
//!
//! A hand-written `main` (instead of `criterion_main!`) exports the
//! measurements to `BENCH_simloop.json` next to the workspace root.
//! Set `QBM_BENCH_QUICK=1` for the CI perf-smoke variant (fewer
//! samples, fifo+thresh only, no committed JSON churn expected).

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_bench::bench_file::{self, quick};
use qbm_core::units::{ByteSize, Dur, Rate, Time};
use qbm_oracle::run_once_reference;
use qbm_sim::scenarios::{incast_closed_loop, paper_experiment, section3_schemes, LinkProfile};
use qbm_sim::ExperimentConfig;

/// Simulated time measured per iteration (plus 100 ms warmup).
const SIM_MS: u64 = 1000;

/// Arrivals + departures the config's event loop processes at seed 1 —
/// turns mean wall time into an events-per-second figure.
fn count_events(cfg: &ExperimentConfig) -> u64 {
    let res = cfg.run_once(1);
    res.flows
        .iter()
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum()
}

fn bench_pair(g: &mut criterion::BenchmarkGroup<'_>, label: &str, cfg: &ExperimentConfig) {
    g.bench_with_input(BenchmarkId::new(label, "baseline"), cfg, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once_reference(cfg, seed))
        });
    });
    g.bench_with_input(BenchmarkId::new(label, "indexed"), cfg, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(cfg.run_once(seed))
        });
    });
}

fn bench_sim(c: &mut Criterion) -> Vec<(String, u64)> {
    let buffer = ByteSize::from_mib(1).bytes();
    let mut labelled_events = Vec::new();

    let mut g = c.benchmark_group("simloop");
    g.sample_size(if quick() { 3 } else { 10 });
    g.throughput(Throughput::Elements(SIM_MS));

    // Table 1 (9 flows), one pair per §3.2 scheme.
    let specs1 = qbm_traffic::table1();
    for scheme in section3_schemes() {
        if quick() && scheme.label != "fifo+thresh" {
            continue;
        }
        let mut cfg = paper_experiment(&specs1, &scheme, buffer);
        cfg.warmup = Dur::from_millis(100);
        cfg.duration = Dur::from_millis(100 + SIM_MS);
        let label = format!("table1/{}", scheme.label);
        labelled_events.push((label.clone(), count_events(&cfg)));
        bench_pair(&mut g, &label, &cfg);
    }

    // Table 2 (30 flows) under fifo+thresh — the scaling workload.
    let specs2 = qbm_traffic::table2();
    let scheme = section3_schemes()
        .into_iter()
        .find(|s| s.label == "fifo+thresh")
        .expect("fifo+thresh scheme");
    let mut cfg2 = paper_experiment(&specs2, &scheme, ByteSize::from_mib(2).bytes());
    cfg2.warmup = Dur::from_millis(100);
    cfg2.duration = Dur::from_millis(100 + SIM_MS);
    let label = "table2/fifo+thresh".to_string();
    labelled_events.push((label.clone(), count_events(&cfg2)));
    bench_pair(&mut g, &label, &cfg2);

    g.finish();
    labelled_events
}

/// Closed-loop incast senders feeding one aggregation link. Returns
/// the events the run processes (arrivals + departures across every
/// link at seed 1), for the events/sec figure.
fn bench_closed_loop(c: &mut Criterion) -> u64 {
    const SENDERS: usize = 4;
    let profile = LinkProfile::default();
    let warmup = Time::from_secs_f64(0.1);
    let end = Time::from_secs_f64(0.1 + SIM_MS as f64 / 1e3);
    let run = |seed: u64| {
        incast_closed_loop(SENDERS, Rate::from_mbps(40.0), &profile).run(seed, warmup, end, 1)
    };
    let events: u64 = run(1)
        .iter()
        .flat_map(|r| r.flows.iter())
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum();
    let mut g = c.benchmark_group("simloop");
    g.sample_size(if quick() { 3 } else { 10 });
    g.throughput(Throughput::Elements(SIM_MS));
    g.bench_with_input(
        BenchmarkId::new("closed_loop/incast4", "fabric"),
        &(),
        |b, ()| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run(seed))
            });
        },
    );
    g.finish();
    events
}

fn main() -> std::io::Result<()> {
    let mut criterion = Criterion::default();
    let labelled_events = bench_sim(&mut criterion);
    let closed_loop_events = bench_closed_loop(&mut criterion);
    let results = criterion.results();

    let mean_of = |needle: &str| {
        results
            .iter()
            .find(|r| r.id.ends_with(needle))
            .map(|r| r.mean_ns)
    };

    let mut json = String::from("{\n  \"bench\": \"simloop\",\n");
    json.push_str(&format!(
        "  \"workload\": \"{SIM_MS} simulated ms per iter; baseline = BinaryHeap event queue, indexed = IndexedTimers, both over enum sources\",\n"
    ));
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str(&bench_file::results_member(results));
    json.push_str(",\n  \"indexed_over_baseline\": {\n");
    let mut ratio_rows = Vec::new();
    for (label, events) in &labelled_events {
        let (Some(base), Some(idx)) = (
            mean_of(&format!("{label}/baseline")),
            mean_of(&format!("{label}/indexed")),
        ) else {
            continue;
        };
        let speedup = base / idx;
        let sim_per_wall = SIM_MS as f64 / 1e3 / (idx / 1e9);
        let events_per_sec = *events as f64 / (idx / 1e9);
        ratio_rows.push(format!(
            "    \"{label}\": {{\"speedup\": {speedup:.4}, \"sim_seconds_per_wall_second\": {sim_per_wall:.1}, \"events_per_second\": {events_per_sec:.0}}}"
        ));
        println!(
            "{label}: indexed/baseline = {speedup:.3}x, {sim_per_wall:.0} sim-s/wall-s, {events_per_sec:.2e} events/s"
        );
    }
    json.push_str(&ratio_rows.join(",\n"));
    json.push_str("\n  }");
    if let Some(mean) = mean_of("closed_loop/incast4/fabric") {
        let events_per_sec = closed_loop_events as f64 / (mean / 1e9);
        json.push_str(&format!(
            ",\n  \"closed_loop\": {{\"incast4\": {{\"mean_ns_per_iter\": {mean:.1}, \"events\": {closed_loop_events}, \"events_per_second\": {events_per_sec:.0}}}}}"
        ));
        println!(
            "closed_loop/incast4: {:.2e} events/s ({closed_loop_events} events/iter)",
            events_per_sec
        );
    }
    json.push_str("\n}\n");
    bench_file::write("BENCH_simloop.json", &json)
}
