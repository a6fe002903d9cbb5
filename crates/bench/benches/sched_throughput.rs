//! End-to-end scheduler throughput: the Q32.32 fixed-point virtual-time
//! schedulers (`run_once`, the default) against the retained float
//! references (`qbm_oracle::run_once_sched_reference`: f64 GPS clocks
//! over lazy `BinaryHeap`s, same shared integer quantization) on the
//! paper's workloads.
//!
//! Both sides run the identical simulation — the determinism suite
//! proves byte-identical statistics for every scheduler × policy
//! combination — so the ratio isolates the cost of the virtual-time
//! arithmetic and priority structure: integer tags in an indexed
//! flat-scan [`ActiveSet`](qbm_sched::ActiveSet) versus f64 tags in
//! rebuilt binary heaps.
//!
//! A hand-written `main` (instead of `criterion_main!`) exports the
//! measurements to `BENCH_sched.json` next to the workspace root.
//! Set `QBM_BENCH_QUICK=1` for the CI perf-smoke variant (fewer
//! samples, the headline `table1/wfq+thresh` pair only).

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_bench::bench_file::{self, quick};
use qbm_core::policy::PolicyKind;
use qbm_core::units::{ByteSize, Dur};
use qbm_oracle::run_once_sched_reference;
use qbm_sched::SchedKind;
use qbm_sim::scenarios::{case1_grouping, paper_experiment, plan_hybrid, Scheme};
use qbm_sim::{ExperimentConfig, PolicySpec};

/// Simulated time measured per iteration (plus 100 ms warmup).
const SIM_MS: u64 = 1000;

/// The virtual-time schedulers under test, each over the threshold
/// policy (the paper's §3.2 operating point for WFQ).
fn sched_schemes(specs: &[qbm_core::flow::FlowSpec], buffer: u64) -> Vec<Scheme> {
    let plan = plan_hybrid(specs, &case1_grouping(), buffer);
    let thresh = PolicySpec::Kind(PolicyKind::Threshold);
    let mk = |label: &str, sched: SchedKind| Scheme {
        label: label.to_string(),
        sched,
        policy: thresh.clone(),
        buffer_override: None,
    };
    vec![
        mk("wfq+thresh", SchedKind::Wfq),
        mk("wf2q+thresh", SchedKind::Wf2q),
        mk("vclock+thresh", SchedKind::VirtualClock),
        mk(
            "hybrid+thresh",
            SchedKind::Hybrid {
                assignment: plan.grouping.assignment.clone(),
                queue_rates_bps: plan.queue_rates_bps.clone(),
            },
        ),
    ]
}

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
    // Interleaved measurement: reference and fixed batches alternate so
    // machine-speed drift on a shared runner cannot systematically favor
    // whichever side happened to be timed in the quieter window — the
    // ratio is the quantity under test here.
    let mut seed_r = 0u64;
    let mut seed_f = 0u64;
    g.bench_pair(
        BenchmarkId::new(label, "reference"),
        || {
            seed_r += 1;
            black_box(run_once_sched_reference(cfg, seed_r));
        },
        BenchmarkId::new(label, "fixed"),
        || {
            seed_f += 1;
            black_box(cfg.run_once(seed_f));
        },
    );
}

fn bench_sched(c: &mut Criterion) -> Vec<(String, u64)> {
    let buffer = ByteSize::from_mib(1).bytes();
    let mut labelled_events = Vec::new();

    let mut g = c.benchmark_group("sched");
    g.sample_size(if quick() { 3 } else { 10 });
    g.throughput(Throughput::Elements(SIM_MS));

    // Table 1 (9 flows), one pair per virtual-time scheduler.
    let specs1 = qbm_traffic::table1();
    for scheme in sched_schemes(&specs1, buffer) {
        if quick() && scheme.label != "wfq+thresh" {
            continue;
        }
        let mut cfg = paper_experiment(&specs1, &scheme, buffer);
        cfg.warmup = Dur::from_millis(100);
        cfg.duration = Dur::from_millis(100 + SIM_MS);
        let label = format!("table1/{}", scheme.label);
        labelled_events.push((label.clone(), count_events(&cfg)));
        bench_pair(&mut g, &label, &cfg);
    }

    // Table 2 (30 flows) under wfq+thresh — the scaling workload.
    if !quick() {
        let specs2 = qbm_traffic::table2();
        let scheme = Scheme {
            label: "wfq+thresh".to_string(),
            sched: SchedKind::Wfq,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            buffer_override: None,
        };
        let mut cfg2 = paper_experiment(&specs2, &scheme, ByteSize::from_mib(2).bytes());
        cfg2.warmup = Dur::from_millis(100);
        cfg2.duration = Dur::from_millis(100 + SIM_MS);
        let label = "table2/wfq+thresh".to_string();
        labelled_events.push((label.clone(), count_events(&cfg2)));
        bench_pair(&mut g, &label, &cfg2);
    }

    g.finish();
    labelled_events
}

fn main() -> std::io::Result<()> {
    let mut criterion = Criterion::default();
    let labelled_events = bench_sched(&mut criterion);
    let results = criterion.results();

    let mean_of = |needle: &str| {
        results
            .iter()
            .find(|r| r.id.ends_with(needle))
            .map(|r| r.mean_ns)
    };

    let mut json = String::from("{\n  \"bench\": \"sched\",\n");
    json.push_str(&format!(
        "  \"workload\": \"{SIM_MS} simulated ms per iter; reference = f64 GPS clocks over lazy BinaryHeaps, fixed = Q32.32 VirtualTime over flat indexed ActiveSets\",\n"
    ));
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str(&bench_file::results_member(results));
    json.push_str(",\n  \"fixed_over_reference\": {\n");
    let mut ratio_rows = Vec::new();
    for (label, events) in &labelled_events {
        let (Some(base), Some(idx)) = (
            mean_of(&format!("{label}/reference")),
            mean_of(&format!("{label}/fixed")),
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
            "{label}: fixed/reference = {speedup:.3}x, {sim_per_wall:.0} sim-s/wall-s, {events_per_sec:.2e} events/s"
        );
    }
    json.push_str(&ratio_rows.join(",\n"));
    json.push_str("\n  }\n}\n");
    bench_file::write("BENCH_sched.json", &json)
}
