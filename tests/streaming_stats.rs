//! Streaming-telemetry acceptance (DESIGN.md §14): over a horizon 100×
//! the paper's 22 s experiment, the delay quantile sketch agrees with an
//! exact oracle within its configured relative-error bound, telemetry
//! memory stays within its cap whatever the run length, and
//! sketch-carrying campaign runs are byte-identical for any thread
//! count.

use qos_buffer_mgmt::core::flow::{Conformance, FlowId, FlowSpec};
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{ByteSize, Dur, Rate, Time};
use qos_buffer_mgmt::obs::heatmap::{PRECISION_BITS, SLOTS};
use qos_buffer_mgmt::obs::{HeatmapObserver, Observer, QuantileSketch};
use qos_buffer_mgmt::sched::SchedKind;
use qos_buffer_mgmt::sim::{ExperimentConfig, PolicySpec, SimResult, SketchParams, StatsConfig};

/// A scaled-down Table-1-style pair of flows: the same shape at ~1/100
/// the event rate, so a 2200 s horizon stays quick in debug builds.
fn quick_specs() -> Vec<FlowSpec> {
    (0..2u32)
        .map(|i| {
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_bps(160_000))
                .avg(Rate::from_bps(20_000))
                .bucket(5 * 1024)
                .token_rate(Rate::from_bps(20_000))
                .class(Conformance::Conformant)
                .build()
        })
        .collect()
}

fn cfg(duration: Dur) -> ExperimentConfig {
    ExperimentConfig {
        link_rate: Rate::from_bps(480_000),
        buffer_bytes: ByteSize::from_kib(64).bytes(),
        specs: quick_specs(),
        sched: SchedKind::Fifo,
        policy: PolicySpec::Kind(PolicyKind::Threshold),
        warmup: Dur::from_secs(1),
        duration,
        sojourns: Default::default(),
        stats: StatsConfig {
            sketches: Some(SketchParams::default()),
        },
        sources: Default::default(),
    }
}

/// Exact per-departure sojourn recorder, windowed exactly like
/// `StatsCollector` (departures in `[warmup_end, run_end)`).
struct DelayOracle {
    warmup_end: Time,
    run_end: Time,
    delays: Vec<u64>,
}

impl Observer for DelayOracle {
    fn on_departure(&mut self, now: Time, _flow: FlowId, _len: u32, arrival: Time, _link: u32) {
        if now >= self.warmup_end && now < self.run_end {
            self.delays.push(now.since(arrival).as_nanos());
        }
    }
}

#[test]
fn sketch_tracks_exact_oracle_over_long_horizon() {
    let horizon = Dur::from_secs(2200); // 100× the paper's 22 s runs
    let c = cfg(horizon);
    let mut oracle = DelayOracle {
        warmup_end: Time::ZERO + c.warmup,
        run_end: Time::ZERO + c.warmup + horizon,
        delays: Vec::new(),
    };
    let res = c.run_once_with(1, &mut oracle);
    let sketch = res.delay_sketch.as_ref().expect("sketches attached");
    assert_eq!(
        sketch.count(),
        oracle.delays.len() as u64,
        "sketch and oracle disagree on the windowed departure count"
    );
    assert!(
        oracle.delays.len() > 10_000,
        "horizon too quiet to exercise the sketch ({} departures)",
        oracle.delays.len()
    );
    oracle.delays.sort_unstable();
    for q in [0.5, 0.99] {
        let rank = ((q * oracle.delays.len() as f64).ceil() as usize).clamp(1, oracle.delays.len());
        let exact = oracle.delays[rank - 1];
        let est = sketch.quantile(q);
        assert!(
            est >= exact,
            "p{q}: sketch {est} below exact {exact} (upper edges cannot undershoot)"
        );
        let bound = (exact as f64 * sketch.relative_error()) as u64 + 1;
        assert!(
            est - exact <= bound,
            "p{q}: sketch {est} vs exact {exact} exceeds the {:.2}% bound",
            sketch.relative_error() * 100.0
        );
    }
}

fn run_with_heatmap(duration: Dur) -> (SimResult, HeatmapObserver) {
    let c = cfg(duration);
    let mut obs = HeatmapObserver::default();
    let res = c.run_once_with(1, &mut obs);
    (res, obs)
}

/// FNV-1a 64-bit over the text.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden for the cells the CLI sparklines draw: every live slot of
/// the delay, occupancy and drop heatmaps after a 22 s run (longer
/// than the window, so eviction has run), with its bounds and full
/// sketch digest.
#[test]
fn heatmap_window_golden() {
    let (_, hm) = run_with_heatmap(Dur::from_secs(22));
    let mut text = String::new();
    for h in [&hm.delay, &hm.occupancy, &hm.drops] {
        h.visit_cells(|start, end, cell| text.push_str(&format!("{start} {end} {cell:?}\n")));
    }
    assert!(!text.is_empty());
    assert_eq!(
        fnv64(&text),
        0x7571_dcd1_9445_6811,
        "heatmap window drifted"
    );
}

/// The same window golden with the link overloaded: both flows' token
/// and average rates ×20 (400 kb/s each against the 480 kb/s link) and
/// a 3.2 Mb/s peak, so the run drops packets and the live cells merge
/// many values each.
#[test]
fn heatmap_window_golden_under_overload() {
    let mut c = cfg(Dur::from_secs(22));
    c.specs = (0..2u32)
        .map(|i| {
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_bps(3_200_000))
                .avg(Rate::from_bps(400_000))
                .bucket(5 * 1024)
                .token_rate(Rate::from_bps(400_000))
                .class(Conformance::Conformant)
                .build()
        })
        .collect();
    let mut hm = HeatmapObserver::default();
    let res = c.run_once_with(1, &mut hm);
    assert!(res.flows.iter().map(|f| f.dropped_pkts).sum::<u64>() > 0);
    let (mut drop_cells, mut max_count) = (0, 0);
    hm.drops.visit_cells(|_, _, cell| {
        drop_cells += 1;
        max_count = max_count.max(cell.count());
    });
    assert!(drop_cells > 0, "overload left the drop heatmap empty");
    assert!(max_count > 1, "no drop cell merged more than one value");
    let mut text = String::new();
    for h in [&hm.delay, &hm.occupancy, &hm.drops] {
        h.visit_cells(|start, end, cell| text.push_str(&format!("{start} {end} {cell:?}\n")));
    }
    assert_eq!(
        fnv64(&text),
        0x3eda_303a_6748_dc6e,
        "overloaded heatmap window drifted"
    );
}

/// Bytes a directly recorded default-precision sketch stores: its
/// [min, max] value span rounded out to whole exponent groups of 2^5
/// buckets (group 0 holds 0..32, group g ≥ 1 holds [2^(g+4), 2^(g+5))).
fn span_bytes(s: &QuantileSketch) -> usize {
    let group = |v: u64| (64 - v.leading_zeros() as usize).saturating_sub(5);
    match (s.min(), s.max()) {
        (Some(lo), Some(hi)) => (group(hi) - group(lo) + 1) * 32 * 8,
        _ => 0,
    }
}

#[test]
fn telemetry_memory_is_independent_of_run_length() {
    let inline = core::mem::size_of::<QuantileSketch>();
    // An empty sketch holds no buckets; a full one holds 1920.
    assert_eq!(QuantileSketch::new(5).mem_bytes(), inline);
    let sketch_cap = inline + QuantileSketch::bucket_count(5) * 8;
    // Three heatmaps of 32 cells.
    let heatmap_cap = HeatmapObserver::default().mem_bytes()
        + 3 * SLOTS * QuantileSketch::bucket_count(PRECISION_BITS) * 8;
    let (res_short, hm_short) = run_with_heatmap(Dur::from_secs(22));
    let (res_long, hm_long) = run_with_heatmap(Dur::from_secs(2200));
    // The long run records ~100× the events into the same capped
    // O(buckets × slots) footprint — a ring that reuses the cells of
    // slots leaving its window, and cells that store only their value
    // span.
    assert!(hm_long.delay.count() > 10 * hm_short.delay.count());
    assert!(hm_short.mem_bytes() <= heatmap_cap);
    assert!(hm_long.mem_bytes() <= heatmap_cap);
    let sketches = |r: &SimResult| {
        let mut all: Vec<QuantileSketch> = vec![
            r.delay_sketch.clone().unwrap(),
            r.occ_sketch.clone().unwrap(),
        ];
        for f in &r.flows {
            all.extend(f.delay_sketch.as_deref().cloned());
            all.extend(f.occ_sketch.as_deref().cloned());
        }
        all
    };
    for r in [&res_short, &res_long] {
        let all = sketches(r);
        assert_eq!(all.len(), 2 + 2 * r.flows.len());
        for s in &all {
            // Exactly the recorded span, however many values it took.
            assert_eq!(s.mem_bytes(), inline + span_bytes(s));
            assert!(s.mem_bytes() <= sketch_cap);
        }
    }
}

#[test]
fn sketch_campaign_runs_are_thread_invariant() {
    let c = cfg(Dur::from_secs(30));
    let one = c.run_many_threaded(1, 8, 1);
    let eight = c.run_many_threaded(1, 8, 8);
    assert_eq!(
        one.runs, eight.runs,
        "sketch-carrying runs drift with thread count"
    );
    // Byte-identical, not just equal: the Debug rendering includes the
    // sketch digests, so any bucket-level divergence shows here.
    assert_eq!(format!("{:?}", one.runs), format!("{:?}", eight.runs));
}
