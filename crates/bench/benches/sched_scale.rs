//! Scalability of the per-packet decisions and of the simulator: the
//! paper's O(1) buffer management against sorted schedulers, ActiveSet
//! layouts across four orders of magnitude of slot counts, and
//! end-to-end subscriber-tree fabric throughput across 10²–10⁶ flows.
//!
//! Section 1 times one 500 B admit+release through each buffer policy
//! as the flow count grows — the paper's core claim that the decision
//! is O(1) in the number of flows.
//!
//! Section 2 times one enqueue+dequeue with N flows kept backlogged:
//! FIFO and DRR (O(1)) against Virtual Clock and WFQ, whose sorted
//! state grows with N — the cost asymmetry motivating the paper.
//!
//! Section 3 churns a pre-filled [`ActiveSet`] with the scheduler's
//! characteristic access pattern — peek the winner, re-tag it with a
//! small service increment — under all three layouts at each slot
//! count. Scan pays O(n) per peek, the tournament tree O(log n) per
//! set; the sweep shows where they cross and that [`Layout::Adaptive`]
//! tracks the better of the two on both sides of the crossover. Every
//! slot is occupied there, which no scheduler's set is for long, so a
//! second sweep keeps one or two slots occupied — the §4 hybrid's
//! regime — and churns them the way queues turn busy and drain: `set`
//! an empty slot, `peek` the winner, `clear` it.
//!
//! Section 4 runs the `subscriber_tree` scenario family end to end at
//! growing flow counts (sites × APs × subscribers, heavy-tailed plan
//! rates, hybrid core) and reports events per wall-clock second, where
//! an event is an arrival or departure at any link.
//!
//! Section 5 times fabric *construction* alone up to the 10⁶-flow
//! shape — the point that used to stall on quadratic spec renumbering;
//! the committed figure is the receipt that building the ISP-scale
//! topology stays linear. Each row also records the resident memory
//! the build added (`VmRSS` after minus before, Linux only), per flow.
//!
//! Sections 1–3 time each point with [`time_ns`]; `main` exports every
//! section to `BENCH_scale.json` at the workspace root. Set
//! `QBM_BENCH_QUICK=1` for the CI perf-smoke variant (fewer points,
//! shorter horizons).

use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::PolicyKind;
use qbm_core::units::{Dur, Rate, Time};
use qbm_sched::{
    ActiveSet, Drr, Fifo, Layout, PacketRef, Scheduler, VirtualClock, VirtualTime, Wfq,
    SCAN_TREE_CROSSOVER,
};
use qbm_sim::scenarios::{subscriber_tree, LinkProfile, SubscriberTreeShape};
use std::hint::black_box;
use std::time::Instant;

/// `QBM_BENCH_QUICK` is set to something other than empty or `0`: the
/// CI perf-smoke variant (fewer points, shorter horizons).
fn quick() -> bool {
    std::env::var("QBM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Nanoseconds per call of `f`. One timed warm-up call estimates the
/// cost and warms caches; five equal batches then fill a 200 ms budget
/// and the fastest batch mean is reported. Interference (a neighbour
/// stealing the core, a frequency dip) only ever inflates a batch, so
/// the minimum is the noise-robust estimate on a shared host.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    const BUDGET_NS: u64 = 200_000_000;
    const BATCHES: u64 = 5;
    let t = Instant::now();
    black_box(f());
    let estimate = (t.elapsed().as_nanos() as u64).max(1);
    let n = (BUDGET_NS / BATCHES / estimate).clamp(1, 1_000_000);
    let best = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min);
    best.max(f64::MIN_POSITIVE)
}

/// One host-time point: what was timed, at how many flows or slots,
/// and its cost in nanoseconds per call.
struct CostPoint {
    name: &'static str,
    n: usize,
    ns: f64,
}

impl CostPoint {
    /// Print the point as it is measured, and keep it for the file.
    fn new(group: &str, name: &'static str, n: usize, ns: f64) -> CostPoint {
        println!("{:<36} {ns:>10.1} ns/iter", format!("{group}/{name}/{n}"));
        CostPoint { name, n, ns }
    }
}

/// Flow counts for the policy and scheduler sweeps.
fn flow_counts() -> &'static [usize] {
    if quick() {
        &[10, 1000]
    } else {
        &[10, 100, 1000, 10_000]
    }
}

fn synth_specs(n: usize) -> Vec<FlowSpec> {
    (0..n as u32)
        .map(|i| {
            FlowSpec::builder(FlowId(i))
                .token_rate(Rate::from_kbps(400.0 + (i % 64) as f64 * 10.0))
                .bucket(10_000 + (i as u64 % 7) * 1000)
                .build()
        })
        .collect()
}

const LINK: Rate = Rate::from_bps(48_000_000);

fn bench_policies() -> Vec<CostPoint> {
    let mut out = Vec::new();
    for &n in flow_counts() {
        let specs = synth_specs(n);
        // Buffer scaled with N so per-flow room stays comparable.
        let buffer = 10_000u64 * n as u64;
        for kind in [
            PolicyKind::None,
            PolicyKind::Threshold,
            PolicyKind::Sharing {
                headroom_bytes: buffer / 10,
            },
        ] {
            let mut policy = kind.build(buffer, LINK, &specs);
            let mut i = 0u32;
            let ns = time_ns(|| {
                let flow = FlowId(i % n as u32);
                i = i.wrapping_add(1);
                // Admit + immediate release: steady-state cost, state
                // returns to empty so the loop never saturates the
                // buffer.
                if policy.admit(black_box(flow), 500).admitted() {
                    policy.release(flow, 500);
                }
            });
            out.push(CostPoint::new("policy_admit_release", kind.label(), n, ns));
        }
    }
    out
}

fn pkt(flow: u32, seq: u64) -> PacketRef {
    PacketRef {
        flow: FlowId(flow),
        len: 500,
        arrival: Time::ZERO,
        seq,
        green: true,
    }
}

/// Steady-state enqueue+dequeue with `n` flows kept backlogged: the
/// scheduler is primed with one packet per flow, then every call
/// enqueues one packet and dequeues one, so it holds ~n packets
/// throughout and its sorted state reflects the flow count. The clock
/// advances by `tick` per call.
fn time_sched<S: Scheduler>(mut s: S, n: usize, tick: Dur) -> f64 {
    for i in 0..n {
        s.enqueue(Time::ZERO, pkt(i as u32, i as u64));
    }
    let mut seq = n as u64;
    let mut now = Time::ZERO;
    time_ns(|| {
        let f = (seq % n as u64) as u32;
        now += tick;
        s.enqueue(now, black_box(pkt(f, seq)));
        seq += 1;
        s.dequeue(now)
    })
}

fn bench_schedulers() -> Vec<CostPoint> {
    let mut out = Vec::new();
    for &n in flow_counts() {
        let weights: Vec<u64> = (0..n).map(|i| 400_000 + (i as u64 % 64) * 10_000).collect();
        // One 500 B packet time at 48 Mb/s.
        let tick = Dur(83_333);
        for (name, ns) in [
            ("fifo", time_sched(Fifo::new(), n, Dur::ZERO)),
            ("drr", time_sched(Drr::new(weights.clone()), n, Dur::ZERO)),
            (
                "vclock",
                time_sched(VirtualClock::new(weights.clone()), n, tick),
            ),
            ("wfq", time_sched(Wfq::new(LINK, weights), n, tick)),
        ] {
            out.push(CostPoint::new("sched_enqueue_dequeue", name, n, ns));
        }
    }
    out
}

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

/// Slot counts for the sparse sweep: class counts up to the crossover
/// (the paper's 9 and 30, the `isp_tree` core's 25) and two past it.
fn sparse_slot_counts() -> &'static [usize] {
    if quick() {
        &[9, 30]
    } else {
        &[9, 16, 25, 30, 64, 256, 1024]
    }
}

/// Per slot count, the churn cost under each of [`LAYOUTS`], in order.
fn bench_active_set() -> Vec<(usize, [f64; 3])> {
    slot_counts()
        .iter()
        .map(|&n| {
            (
                n,
                LAYOUTS.map(|(name, layout)| {
                    let mut set = ActiveSet::with_layout(n, layout);
                    let mut rng = 0x5eed ^ n as u64;
                    for i in 0..n {
                        set.set(i, VirtualTime::from_raw(1 + (splitmix(&mut rng) >> 32)), 0);
                    }
                    let mut s = 0u64;
                    let ns = time_ns(|| {
                        s += 1;
                        let (w, tag, _) = set.peek().unwrap();
                        set.set(
                            w,
                            tag.saturating_add(VirtualTime::from_raw(1 + (s & 63))),
                            s,
                        );
                        set.len()
                    });
                    CostPoint::new("active_set", name, n, ns).ns
                }),
            )
        })
        .collect()
}

/// Per slot count, the cost under each of [`LAYOUTS`] of one busy
/// period at one or two occupants: an empty slot turns busy at or after
/// the current virtual time, then the winner is served out, so one slot
/// stays occupied between calls.
fn bench_active_set_sparse() -> Vec<(usize, [f64; 3])> {
    sparse_slot_counts()
        .iter()
        .map(|&n| {
            (
                n,
                LAYOUTS.map(|(name, layout)| {
                    let mut set = ActiveSet::with_layout(n, layout);
                    let mut rng = 0x5eed ^ n as u64;
                    set.set(0, VirtualTime::from_raw(1), 0);
                    let (mut now, mut s) = (1u64, 0u64);
                    let ns = time_ns(|| {
                        s += 1;
                        let r = splitmix(&mut rng);
                        let mut i = (r % n as u64) as usize;
                        if set.contains(i) {
                            i = (i + 1) % n;
                        }
                        set.set(i, VirtualTime::from_raw(now + (r >> 58)), s);
                        let (w, tag, _) = set.peek().unwrap();
                        now = tag.raw();
                        set.clear(w);
                        set.len()
                    });
                    CostPoint::new("active_set_sparse", name, n, ns).ns
                }),
            )
        })
        .collect()
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
    let policies = bench_policies();
    let schedulers = bench_schedulers();
    let layouts = bench_active_set();
    let sparse = bench_active_set_sparse();
    let scale = bench_fabric_scale();

    let mut members = vec![
        "\"bench\": \"sched_scale\"".to_string(),
        "\"workload\": \"500 B admit+release per policy and enqueue+dequeue per scheduler per \
         flow count; ActiveSet peek+set churn per layout per slot count, dense and at 1-2 \
         occupants (set+peek+clear); subscriber_tree \
         fabric end-to-end events/sec per flow count\""
            .to_string(),
        format!("\"quick\": {}", quick()),
        format!("\"shard_threads\": {}", shards()),
        format!("\"scan_tree_crossover\": {SCAN_TREE_CROSSOVER}"),
        array("active_set", layouts.iter().map(layout_row)),
        array("active_set_sparse", sparse.iter().map(layout_row)),
        array(
            "fabric_scale",
            scale.iter().map(|p| {
                format!(
                    "{{\"flows\": {}, \"links\": {}, \"sim_secs\": {}, \"events\": {}, \
                     \"events_per_sec\": {:.0}}}",
                    p.flows, p.links, p.sim_secs, p.events, p.events_per_sec
                )
            }),
        ),
        array(
            "construction",
            built.iter().map(|p| {
                format!(
                    "{{\"flows\": {}, \"links\": {}, \"build_secs\": {:.3}, \
                     \"rss_bytes_per_flow\": {}}}",
                    p.flows,
                    p.links,
                    p.build_secs,
                    fmt_opt(p.rss_bytes_per_flow)
                )
            }),
        ),
    ];
    for (key, field, points) in [
        ("policy_admit_release", "policy", &policies),
        ("sched_enqueue_dequeue", "scheduler", &schedulers),
    ] {
        members.push(array(
            key,
            points.iter().map(|p| {
                format!(
                    "{{\"{field}\": \"{}\", \"flows\": {}, \"ns\": {:.2}}}",
                    p.name, p.n, p.ns
                )
            }),
        ));
    }
    // Acceptance figures: adaptive must dominate scan at ISP slot
    // counts and track it within noise at the paper's class counts.
    for (n, key) in [(10_000, "10k"), (9, "9"), (30, "30")] {
        if let Some(&(_, [s, _, a])) = layouts.iter().find(|&&(slots, _)| slots == n) {
            members.push(format!("\"adaptive_over_scan_at_{key}\": {:.4}", s / a));
            println!("adaptive over scan at {key} slots: {:.3}x", s / a);
        }
    }

    let json = format!("{{\n  {}\n}}\n", members.join(",\n  "));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json)
        .map_err(|e| std::io::Error::new(e.kind(), format!("could not write {path}: {e}")))
}

/// One `active_set` row: a slot count's cost under each layout.
fn layout_row(&(n, [s, t, a]): &(usize, [f64; 3])) -> String {
    format!(
        "{{\"slots\": {n}, \"scan_ns\": {s:.2}, \"tree_ns\": {t:.2}, \
         \"adaptive_ns\": {a:.2}, \"adaptive_over_scan\": {:.4}}}",
        s / a
    )
}

/// The member `"key": [rows…]`, one row per line.
fn array(key: &str, rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|r| format!("    {r}")).collect();
    format!("\"{key}\": [\n{}\n  ]", rows.join(",\n"))
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| format!("{v:.2}"))
}
