//! Scheduler scalability: ActiveSet layouts across four orders of
//! magnitude of slot counts, and end-to-end subscriber-tree fabric
//! throughput across 10²–10⁶ flows.
//!
//! Section 1 churns a pre-filled [`ActiveSet`] with the scheduler's
//! characteristic access pattern — peek the winner, re-tag it with a
//! small service increment — under all three layouts at each slot
//! count. Scan pays O(n) per peek, the tournament tree O(log n) per
//! set; the sweep shows where they cross and that [`Layout::Adaptive`]
//! tracks the better of the two on both sides of the crossover.
//!
//! Section 2 runs the `subscriber_tree` scenario family end to end at
//! growing flow counts (sites × APs × subscribers, heavy-tailed plan
//! rates, hybrid core) and reports events per wall-clock second, where
//! an event is an arrival or departure at any link.
//!
//! Section 3 times fabric *construction* alone up to the 10⁶-flow
//! shape — the point that used to stall on quadratic spec renumbering;
//! the committed figure is the receipt that building the ISP-scale
//! topology stays linear. Each row also records the resident memory
//! the build added (`VmRSS` after minus before, Linux only), per flow.
//!
//! A hand-written `main` exports everything to `BENCH_scale.json` next
//! to the workspace root. Set `QBM_BENCH_QUICK=1` for the CI
//! perf-smoke variant (fewer points, shorter horizons).

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use qbm_bench::bench_file::{self, quick};
use qbm_core::units::Time;
use qbm_sched::{ActiveSet, Layout, VirtualTime, SCAN_TREE_CROSSOVER};
use qbm_sim::scenarios::{subscriber_tree, LinkProfile, SubscriberTreeShape};
use std::time::Instant;

fn shards() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// Slot counts for the layout sweep: the paper's class counts (9 and
/// 30), the crossover neighborhood, and power-of-two steps to 2²⁰.
fn slot_counts() -> &'static [usize] {
    if quick() {
        &[9, 30, 1024, 10_000]
    } else {
        &[
            9, 16, 30, 64, 256, 1024, 4096, 10_000, 16_384, 65_536, 262_144, 1_048_576,
        ]
    }
}

const LAYOUTS: [(&str, Layout); 3] = [
    ("scan", Layout::Scan),
    ("tree", Layout::Tree),
    ("adaptive", Layout::Adaptive),
];

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn bench_active_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("active_set");
    g.sample_size(3);
    g.throughput(Throughput::Elements(1));
    for &n in slot_counts() {
        for (name, layout) in LAYOUTS {
            let mut set = ActiveSet::with_layout(n, layout);
            let mut rng = 0x5eed ^ n as u64;
            for i in 0..n {
                set.set(i, VirtualTime::from_raw(1 + (splitmix(&mut rng) >> 32)), 0);
            }
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let mut s = 0u64;
                b.iter(|| {
                    s += 1;
                    let (w, tag, _) = set.peek().unwrap();
                    set.set(
                        w,
                        tag.saturating_add(VirtualTime::from_raw(1 + (s & 63))),
                        s,
                    );
                    black_box(set.len())
                });
            });
        }
    }
    g.finish();
}

/// One measured fabric point: flow count, simulated horizon, events
/// processed and the resulting events/second.
struct ScalePoint {
    flows: usize,
    sim_secs: f64,
    links: usize,
    events: u64,
    events_per_sec: f64,
}

fn bench_fabric_scale() -> Vec<ScalePoint> {
    let flow_counts: &[usize] = if quick() {
        &[100, 1000]
    } else {
        &[100, 1000, 10_000, 100_000, 1_000_000]
    };
    let threads = shards();
    let mut out = Vec::new();
    for &flows in flow_counts {
        // Shrink the horizon as the flow count grows so every point
        // costs roughly the same wall time.
        let sim_secs = match flows {
            0..=100 => 1.0,
            101..=1_000 => 0.5,
            1_001..=10_000 => 0.2,
            10_001..=100_000 => 0.05,
            _ => 0.02,
        };
        let shape = SubscriberTreeShape::for_flows(flows);
        let profile = LinkProfile::default();
        let reps = if quick() { 1 } else { 2 };
        let (mut best, mut events, mut links) = (f64::INFINITY, 0u64, 0usize);
        for _ in 0..reps {
            let fabric = subscriber_tree(shape, &profile, 1);
            links = fabric.n_links();
            let t = Instant::now();
            let res = fabric.run(
                1,
                Time::from_secs_f64(0.05),
                Time::from_secs_f64(0.05 + sim_secs),
                threads,
            );
            let wall = t.elapsed().as_secs_f64();
            events = res
                .iter()
                .flat_map(|r| r.flows.iter())
                .map(|f| f.offered_pkts + f.delivered_pkts)
                .sum();
            best = best.min(wall);
        }
        let events_per_sec = events as f64 / best;
        println!(
            "subscriber_tree/{flows:>7}: {links:>4} links, {sim_secs:.2} sim s, \
             {events:>9} events, {events_per_sec:.3e} events/s"
        );
        out.push(ScalePoint {
            flows,
            sim_secs,
            links,
            events,
            events_per_sec,
        });
    }
    out
}

/// One construction-only timing: flow count, links built, wall seconds
/// to assemble the fabric (no simulation), and the resident bytes per
/// flow the build added.
struct BuildPoint {
    flows: usize,
    links: usize,
    build_secs: f64,
    rss_bytes_per_flow: Option<f64>,
}

/// This process's resident set size in bytes, from `/proc/self/status`
/// (`None` where that file does not exist).
fn vm_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024.0)
}

fn bench_construction() -> Vec<BuildPoint> {
    let flow_counts: &[usize] = if quick() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    flow_counts
        .iter()
        .map(|&flows| {
            let shape = SubscriberTreeShape::for_flows(flows);
            let before = vm_rss_bytes();
            let t = Instant::now();
            let fabric = subscriber_tree(shape, &LinkProfile::default(), 1);
            let build_secs = t.elapsed().as_secs_f64();
            let rss_bytes_per_flow = vm_rss_bytes()
                .zip(before)
                .map(|(after, before)| (after - before) / flows as f64);
            let links = fabric.n_links();
            println!(
                "subscriber_tree-build/{flows:>7}: {links:>5} links in {build_secs:.3} s, \
                 {} resident bytes per flow",
                fmt_opt(rss_bytes_per_flow)
            );
            BuildPoint {
                flows,
                links,
                build_secs,
                rss_bytes_per_flow,
            }
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    // Construction first, on a fresh heap, so its resident-memory
    // deltas are not absorbed by memory the other sections freed.
    let built = bench_construction();
    let mut criterion = Criterion::default();
    bench_active_set(&mut criterion);
    let scale = bench_fabric_scale();
    let results = criterion.results();

    let mean_of = |layout: &str, n: usize| {
        results
            .iter()
            .find(|r| r.id == format!("{layout}/{n}"))
            .map(|r| r.mean_ns)
    };

    let mut json = String::from("{\n  \"bench\": \"sched_scale\",\n");
    json.push_str(
        "  \"workload\": \"ActiveSet peek+set churn per layout per slot count; \
         subscriber_tree fabric end-to-end events/sec per flow count\",\n",
    );
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str(&format!("  \"shard_threads\": {},\n", shards()));
    json.push_str(&format!(
        "  \"scan_tree_crossover\": {SCAN_TREE_CROSSOVER},\n"
    ));

    json.push_str("  \"active_set\": [\n");
    let rows: Vec<String> = slot_counts()
        .iter()
        .map(|&n| {
            let (s, t, a) = (
                mean_of("scan", n),
                mean_of("tree", n),
                mean_of("adaptive", n),
            );
            let ratio = match (s, a) {
                (Some(s), Some(a)) if a > 0.0 => format!("{:.4}", s / a),
                _ => "null".to_string(),
            };
            format!(
                "    {{\"slots\": {n}, \"scan_ns\": {}, \"tree_ns\": {}, \
                 \"adaptive_ns\": {}, \"adaptive_over_scan\": {ratio}}}",
                fmt_opt(s),
                fmt_opt(t),
                fmt_opt(a)
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    json.push_str("  \"fabric_scale\": [\n");
    let rows: Vec<String> = scale
        .iter()
        .map(|p| {
            format!(
                "    {{\"flows\": {}, \"links\": {}, \"sim_secs\": {}, \"events\": {}, \
                 \"events_per_sec\": {:.0}}}",
                p.flows, p.links, p.sim_secs, p.events, p.events_per_sec
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    json.push_str("  \"construction\": [\n");
    let rows: Vec<String> = built
        .iter()
        .map(|p| {
            format!(
                "    {{\"flows\": {}, \"links\": {}, \"build_secs\": {:.3}, \
                 \"rss_bytes_per_flow\": {}}}",
                p.flows,
                p.links,
                p.build_secs,
                fmt_opt(p.rss_bytes_per_flow)
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]");

    // Acceptance figures: adaptive must dominate scan at ISP slot
    // counts and track it within noise at the paper's class counts.
    if let (Some(s), Some(a)) = (mean_of("scan", 10_000), mean_of("adaptive", 10_000)) {
        json.push_str(&format!(",\n  \"adaptive_over_scan_at_10k\": {:.4}", s / a));
        println!("adaptive over scan at 10k slots: {:.2}x", s / a);
    }
    for n in [9usize, 30] {
        if let (Some(s), Some(a)) = (mean_of("scan", n), mean_of("adaptive", n)) {
            json.push_str(&format!(",\n  \"adaptive_over_scan_at_{n}\": {:.4}", s / a));
            println!("adaptive over scan at {n} slots: {:.3}x", s / a);
        }
    }
    json.push_str("\n}\n");
    bench_file::write("BENCH_scale.json", &json)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| format!("{v:.2}"))
}
