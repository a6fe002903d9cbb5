//! Per-flow statistics with warmup trimming.
//!
//! Counters only accumulate inside the measurement window
//! `[warmup, end)`; the paper averages five runs and reports 95 %
//! confidence intervals, which [`crate::experiment::Summary`] computes
//! on top of these per-run numbers.

use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};
use qbm_obs::{QuantileSketch, SketchParams};
use std::borrow::BorrowMut;

/// Optional streaming-statistics attachments for a run. The default is
/// the classic exact-counters-only collector; enabling `sketches`
/// attaches bounded-memory mergeable quantile sketches
/// ([`qbm_obs::QuantileSketch`]) for delay and occupancy, which the
/// `qbm report` surface renders as p50/p90/p99/p999.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsConfig {
    /// Attach delay + occupancy quantile sketches (aggregate always,
    /// per-flow when the flow count is within
    /// [`PER_FLOW_SKETCH_LIMIT`]).
    pub sketches: Option<SketchParams>,
}

/// ISP-scale guard on per-flow sketches: above this flow count a run
/// downgrades to aggregate-only sketching. Per-flow sketches cost
/// ~30 KiB per flow (DESIGN.md §14) — fine at the paper's 9–30 flows,
/// ~30 GB at the subscriber-tree's 10⁶ — and 4096 flows ≈ 120 MiB of
/// sketch memory worst-case, comfortably above every paper-scale
/// scenario and below the ISP-scale blowup.
pub const PER_FLOW_SKETCH_LIMIT: usize = 4096;

impl StatsConfig {
    /// True iff this configuration turns sketches on but `n_flows`
    /// exceeds the guard, so the run will silently carry aggregate
    /// sketches only — surfaced as a CLI warning.
    pub fn per_flow_downgraded(&self, n_flows: usize) -> bool {
        self.sketches.is_some() && n_flows > PER_FLOW_SKETCH_LIMIT
    }
}

/// Merge the sketch halves of two results: both present → fold,
/// only the source present → adopt a copy (keeps the sketch-less
/// [`StatsCollector::merger`] the merge identity). Generic over the
/// inline aggregate sketches and the boxed per-flow ones.
fn merge_sketch<T>(into: &mut Option<T>, from: &Option<T>)
where
    T: BorrowMut<QuantileSketch> + Clone,
{
    if let Some(b) = from {
        match into {
            Some(a) => a.borrow_mut().merge(b.borrow()),
            None => *into = Some(b.clone()),
        }
    }
}

/// Counters for a single flow over the measurement window.
///
/// One is kept per flow on every link, so its size is the per-flow
/// statistics footprint at ISP scale: the two per-flow sketches sit
/// behind a `Box` (8 B each when absent, which they are above
/// [`PER_FLOW_SKETCH_LIMIT`]) rather than inline.
#[derive(Clone, Default, PartialEq)]
pub struct FlowStats {
    /// Bytes offered to the router (pre-admission).
    pub offered_bytes: u64,
    /// Packets offered.
    pub offered_pkts: u64,
    /// Bytes dropped by the admission policy.
    pub dropped_bytes: u64,
    /// Packets dropped.
    pub dropped_pkts: u64,
    /// Drops by reason (same order as [`DropReason`] discriminants).
    pub drops_buffer_full: u64,
    /// Drops because the flow exceeded its fixed threshold.
    pub drops_over_threshold: u64,
    /// Drops because the shared holes pool could not cover the excess.
    pub drops_no_shared_space: u64,
    /// Bytes fully transmitted.
    pub delivered_bytes: u64,
    /// Packets fully transmitted.
    pub delivered_pkts: u64,
    /// Sum of per-packet delays (arrival → transmission complete), ns.
    pub delay_sum_ns: u128,
    /// Maximum packet delay, ns.
    pub delay_max_ns: u64,
    /// Log₂-bucketed delay histogram: `delay_hist[k]` counts delivered
    /// packets with delay in `[2^k, 2^(k+1))` ns (k = 0 also covers
    /// 0–1 ns). Drives the percentile accessors.
    pub delay_hist: Vec<u64>,
    /// Remark-1 coloring (only populated when the router has meters):
    /// bytes that arrived within the flow's declared envelope.
    pub green_offered_bytes: u64,
    /// Green packets offered.
    pub green_offered_pkts: u64,
    /// Bytes delivered that were marked green at arrival.
    pub green_delivered_bytes: u64,
    /// Streaming delay sketch (ns), populated only when the run was
    /// configured with [`StatsConfig::sketches`] and the flow count is
    /// within [`PER_FLOW_SKETCH_LIMIT`].
    /// Bounded relative error — supersedes the factor-of-2
    /// [`FlowStats::delay_percentile`] for report-facing percentiles.
    pub delay_sketch: Option<Box<QuantileSketch>>,
    /// Streaming per-flow occupancy sketch (bytes, sampled at every
    /// admission and departure), same gating as `delay_sketch`.
    pub occ_sketch: Option<Box<QuantileSketch>>,
}

/// Hand-written so sketch-less results render exactly like the
/// pre-sketch derived output: the golden-digest determinism tests hash
/// `format!("{:?}", flows)`, and attaching no sketches must not move a
/// byte. The sketch fields appear only when populated.
impl std::fmt::Debug for FlowStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("FlowStats");
        s.field("offered_bytes", &self.offered_bytes)
            .field("offered_pkts", &self.offered_pkts)
            .field("dropped_bytes", &self.dropped_bytes)
            .field("dropped_pkts", &self.dropped_pkts)
            .field("drops_buffer_full", &self.drops_buffer_full)
            .field("drops_over_threshold", &self.drops_over_threshold)
            .field("drops_no_shared_space", &self.drops_no_shared_space)
            .field("delivered_bytes", &self.delivered_bytes)
            .field("delivered_pkts", &self.delivered_pkts)
            .field("delay_sum_ns", &self.delay_sum_ns)
            .field("delay_max_ns", &self.delay_max_ns)
            .field("delay_hist", &self.delay_hist)
            .field("green_offered_bytes", &self.green_offered_bytes)
            .field("green_offered_pkts", &self.green_offered_pkts)
            .field("green_delivered_bytes", &self.green_delivered_bytes);
        if self.delay_sketch.is_some() {
            s.field("delay_sketch", &self.delay_sketch);
        }
        if self.occ_sketch.is_some() {
            s.field("occ_sketch", &self.occ_sketch);
        }
        s.finish()
    }
}

impl FlowStats {
    /// Loss ratio in packets (0 when nothing was offered).
    pub fn loss_ratio(&self) -> f64 {
        if self.offered_pkts == 0 {
            0.0
        } else {
            self.dropped_pkts as f64 / self.offered_pkts as f64
        }
    }

    /// Drops attributed to one cause. The three cause counters always
    /// sum to [`FlowStats::dropped_pkts`].
    pub fn drops(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::BufferFull => self.drops_buffer_full,
            DropReason::OverThreshold => self.drops_over_threshold,
            DropReason::NoSharedSpace => self.drops_no_shared_space,
        }
    }

    /// Mean delivered-packet delay.
    pub fn mean_delay(&self) -> Dur {
        if self.delivered_pkts == 0 {
            Dur::ZERO
        } else {
            Dur((self.delay_sum_ns / self.delivered_pkts as u128) as u64)
        }
    }

    /// Fold another flow's counters into this one (the per-flow leg of
    /// [`StatsCollector::merge`]): counters and histograms add, the
    /// delay maximum takes the max. Commutative and associative.
    pub fn merge(&mut self, other: &FlowStats) {
        self.offered_bytes += other.offered_bytes;
        self.offered_pkts += other.offered_pkts;
        self.dropped_bytes += other.dropped_bytes;
        self.dropped_pkts += other.dropped_pkts;
        self.drops_buffer_full += other.drops_buffer_full;
        self.drops_over_threshold += other.drops_over_threshold;
        self.drops_no_shared_space += other.drops_no_shared_space;
        self.delivered_bytes += other.delivered_bytes;
        self.delivered_pkts += other.delivered_pkts;
        self.delay_sum_ns += other.delay_sum_ns;
        self.delay_max_ns = self.delay_max_ns.max(other.delay_max_ns);
        if !other.delay_hist.is_empty() {
            if self.delay_hist.is_empty() {
                self.delay_hist = vec![0; other.delay_hist.len()];
            }
            for (a, b) in self.delay_hist.iter_mut().zip(&other.delay_hist) {
                *a += b;
            }
        }
        self.green_offered_bytes += other.green_offered_bytes;
        self.green_offered_pkts += other.green_offered_pkts;
        self.green_delivered_bytes += other.green_delivered_bytes;
        merge_sketch(&mut self.delay_sketch, &other.delay_sketch);
        merge_sketch(&mut self.occ_sketch, &other.occ_sketch);
    }

    /// **Legacy factor-of-2 percentile.** Approximate delay percentile
    /// from the log₂ histogram: the upper edge of the bucket containing
    /// the q-quantile (q ∈ [0, 1]), i.e. within a *factor of 2* of the
    /// true value. `Dur::ZERO` when no packet was delivered.
    ///
    /// Kept for callers that never enable sketches; the report-facing
    /// percentile source is [`FlowStats::delay_sketch`], whose error is
    /// bounded at `2^-m` relative (3.125 % at the default precision)
    /// instead of 100 %.
    pub fn delay_percentile(&self, q: f64) -> Dur {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let total: u64 = self.delay_hist.iter().sum();
        if total == 0 {
            return Dur::ZERO;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.delay_hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket upper edge, capped at the exact maximum so the
                // estimate never exceeds an observed delay.
                return Dur((1u64 << (k + 1).min(63)).min(self.delay_max_ns));
            }
        }
        Dur(self.delay_max_ns)
    }
}

/// Result of one simulation run.
#[derive(Clone, PartialEq)]
pub struct SimResult {
    /// Per-flow counters, indexed by `FlowId`.
    pub flows: Vec<FlowStats>,
    /// Measurement window length.
    pub window: Dur,
    /// Seed the run used.
    pub seed: u64,
    /// Aggregate streaming delay sketch (ns) over all flows, populated
    /// when the run enabled [`StatsConfig::sketches`].
    pub delay_sketch: Option<QuantileSketch>,
    /// Aggregate occupancy sketch (total buffer bytes, sampled at every
    /// admission and departure), same gating.
    pub occ_sketch: Option<QuantileSketch>,
    /// Closed-loop source counters, `(flow index, stats)` per AIMD
    /// flow, populated only when the run had any — open-loop results
    /// render (and hash) exactly as before.
    pub aimd: Option<Vec<(u32, qbm_traffic::AimdStats)>>,
}

/// Hand-written for the same golden-digest reason as
/// [`FlowStats`]'s `Debug`: sketch-less output must match the old
/// derived rendering byte-for-byte.
impl std::fmt::Debug for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("SimResult");
        s.field("flows", &self.flows)
            .field("window", &self.window)
            .field("seed", &self.seed);
        if self.delay_sketch.is_some() {
            s.field("delay_sketch", &self.delay_sketch);
        }
        if self.occ_sketch.is_some() {
            s.field("occ_sketch", &self.occ_sketch);
        }
        if self.aimd.is_some() {
            s.field("aimd", &self.aimd);
        }
        s.finish()
    }
}

impl SimResult {
    // qbm-lint: cold(per-run result construction, not per-event)
    pub(crate) fn new(n_flows: usize, window: Dur, seed: u64) -> SimResult {
        SimResult {
            flows: vec![FlowStats::default(); n_flows],
            window,
            seed,
            delay_sketch: None,
            occ_sketch: None,
            aimd: None,
        }
    }

    // qbm-lint: cold(per-run result construction, not per-event)
    fn with_config(n_flows: usize, window: Dur, seed: u64, cfg: StatsConfig) -> SimResult {
        let mut r = SimResult::new(n_flows, window, seed);
        if let Some(sp) = cfg.sketches {
            r.delay_sketch = Some(QuantileSketch::new(sp.precision_bits));
            r.occ_sketch = Some(QuantileSketch::new(sp.precision_bits));
            // The flow-count guard: per-flow sketches are ~30 KiB each
            // (DESIGN.md §14), so ISP-scale runs keep aggregates only.
            if n_flows <= PER_FLOW_SKETCH_LIMIT {
                for f in &mut r.flows {
                    f.delay_sketch = Some(Box::new(QuantileSketch::new(sp.precision_bits)));
                    f.occ_sketch = Some(Box::new(QuantileSketch::new(sp.precision_bits)));
                }
            }
        }
        r
    }

    /// Delivered rate of one flow over the window, bits/s.
    pub fn flow_throughput_bps(&self, flow: FlowId) -> f64 {
        self.flows[flow.index()].delivered_bytes as f64 * 8.0 / self.window.as_secs_f64()
    }

    /// Total delivered rate over the window, bits/s.
    pub fn aggregate_throughput_bps(&self) -> f64 {
        let bytes: u64 = self.flows.iter().map(|f| f.delivered_bytes).sum();
        bytes as f64 * 8.0 / self.window.as_secs_f64()
    }

    /// Aggregate packet-loss ratio over flows of a conformance class
    /// (e.g. the paper's "loss for conformant flows" figures).
    pub fn class_loss_ratio(&self, specs: &[FlowSpec], class: Conformance) -> f64 {
        let (mut off, mut drop) = (0u64, 0u64);
        for s in specs.iter().filter(|s| s.class == class) {
            off += self.flows[s.id.index()].offered_pkts;
            drop += self.flows[s.id.index()].dropped_pkts;
        }
        if off == 0 {
            0.0
        } else {
            drop as f64 / off as f64
        }
    }

    /// Total drops of one cause across all flows (the CLI's loss
    /// breakdown line).
    pub fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.flows.iter().map(|f| f.drops(reason)).sum()
    }

    /// Aggregate throughput of a conformance class, bits/s.
    pub fn class_throughput_bps(&self, specs: &[FlowSpec], class: Conformance) -> f64 {
        specs
            .iter()
            .filter(|s| s.class == class)
            .map(|s| self.flow_throughput_bps(s.id))
            .sum()
    }
}

/// Mutable collector the router writes into during a run.
#[derive(Debug)]
pub struct StatsCollector {
    result: SimResult,
    warmup_end: Time,
    run_end: Time,
}

impl StatsCollector {
    /// Collect into a window `[warmup_end, run_end)`.
    pub fn new(n_flows: usize, warmup_end: Time, run_end: Time, seed: u64) -> StatsCollector {
        StatsCollector::with_config(n_flows, warmup_end, run_end, seed, StatsConfig::default())
    }

    /// Collect into a window `[warmup_end, run_end)` with optional
    /// streaming attachments (see [`StatsConfig`]). All sketch memory
    /// is allocated here, once — the per-event paths never allocate.
    pub fn with_config(
        n_flows: usize,
        warmup_end: Time,
        run_end: Time,
        seed: u64,
        cfg: StatsConfig,
    ) -> StatsCollector {
        assert!(run_end > warmup_end, "empty measurement window");
        StatsCollector {
            result: SimResult::with_config(n_flows, run_end.since(warmup_end), seed, cfg),
            warmup_end,
            run_end,
        }
    }

    fn in_window(&self, t: Time) -> bool {
        t >= self.warmup_end && t < self.run_end
    }

    /// Whether this collector carries occupancy sketches — the event
    /// loop's guard for computing occupancy arguments it would
    /// otherwise skip.
    #[inline]
    pub fn sketching(&self) -> bool {
        self.result.occ_sketch.is_some()
    }

    /// Record post-event buffer occupancy into the occupancy sketches
    /// (aggregate + per-flow). Called by the event loop after every
    /// admission and departure when [`StatsCollector::sketching`];
    /// allocation- and panic-free like the rest of the hot path.
    #[inline]
    pub fn on_occupancy(&mut self, now: Time, flow: FlowId, flow_occ: u64, total_occ: u64) {
        if !self.in_window(now) {
            return;
        }
        if let Some(s) = self.result.occ_sketch.as_mut() {
            s.record(total_occ);
        }
        if let Some(f) = self.result.flows.get_mut(flow.index()) {
            if let Some(s) = f.occ_sketch.as_mut() {
                s.record(flow_occ);
            }
        }
    }

    /// Record an offered packet and its verdict.
    pub fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, dropped: Option<DropReason>) {
        if !self.in_window(now) {
            return;
        }
        let f = &mut self.result.flows[flow.index()];
        f.offered_bytes += len as u64;
        f.offered_pkts += 1;
        if let Some(reason) = dropped {
            f.dropped_bytes += len as u64;
            f.dropped_pkts += 1;
            match reason {
                DropReason::BufferFull => f.drops_buffer_full += 1,
                DropReason::OverThreshold => f.drops_over_threshold += 1,
                DropReason::NoSharedSpace => f.drops_no_shared_space += 1,
            }
        }
    }

    /// Record a completed transmission.
    pub fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time) {
        self.on_departure_colored(now, flow, len, arrival, true);
    }

    /// Record a completed transmission with its Remark-1 color.
    pub fn on_departure_colored(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        arrival: Time,
        green: bool,
    ) {
        if !self.in_window(now) {
            return;
        }
        let f = &mut self.result.flows[flow.index()];
        f.delivered_bytes += len as u64;
        f.delivered_pkts += 1;
        if green {
            f.green_delivered_bytes += len as u64;
        }
        let d = now.since(arrival).as_nanos();
        f.delay_sum_ns += d as u128;
        f.delay_max_ns = f.delay_max_ns.max(d);
        if f.delay_hist.is_empty() {
            // qbm-lint: allow(hot-path-alloc) — lazy one-time histogram allocation, once per flow per run
            f.delay_hist = vec![0; 64];
        }
        let bucket = (64 - d.max(1).leading_zeros()).saturating_sub(1) as usize;
        f.delay_hist[bucket.min(63)] += 1;
        if let Some(s) = f.delay_sketch.as_mut() {
            s.record(d);
        }
        if let Some(s) = self.result.delay_sketch.as_mut() {
            s.record(d);
        }
    }

    /// Record a packet's Remark-1 color at arrival (before the
    /// admission verdict; green = fit the declared envelope).
    pub fn on_color(&mut self, now: Time, flow: FlowId, len: u32, green: bool) {
        if !self.in_window(now) || !green {
            return;
        }
        let f = &mut self.result.flows[flow.index()];
        f.green_offered_bytes += len as u64;
        f.green_offered_pkts += 1;
    }

    /// Finish the run.
    pub fn finish(self) -> SimResult {
        self.result
    }

    /// A collector that starts as the merge identity — zero counters,
    /// zero window — for folding completed runs with
    /// [`StatsCollector::merge`].
    pub fn merger(n_flows: usize, seed: u64) -> StatsCollector {
        StatsCollector {
            result: SimResult::new(n_flows, Dur::ZERO, seed),
            warmup_end: Time::ZERO,
            run_end: Time::ZERO,
        }
    }

    /// Fold a completed run into this collector. Counters add, delay
    /// maxima take the max, histograms add element-wise, and windows
    /// add (the merged result spans the concatenation of the runs'
    /// measurement windows, so throughput accessors report the mean
    /// rate across replications). The fold is commutative and
    /// associative: any merge order over the same set of runs yields an
    /// identical result.
    pub fn merge(&mut self, other: &SimResult) {
        assert_eq!(
            self.result.flows.len(),
            other.flows.len(),
            "merging results with different flow counts"
        );
        self.result.window += other.window;
        for (into, from) in self.result.flows.iter_mut().zip(&other.flows) {
            into.merge(from);
        }
        merge_sketch(&mut self.result.delay_sketch, &other.delay_sketch);
        merge_sketch(&mut self.result.occ_sketch, &other.occ_sketch);
        // qbm-lint: cold(per-run fold, not per-event)
        match (&mut self.result.aimd, &other.aimd) {
            (_, None) => {}
            (slot @ None, Some(o)) => *slot = Some(o.clone()),
            (Some(a), Some(o)) => {
                for (flow, st) in o {
                    match a.iter_mut().find(|(f, _)| f == flow) {
                        Some((_, into)) => *into = into.merge(st),
                        None => a.push((*flow, *st)),
                    }
                }
                a.sort_by_key(|(f, _)| *f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::Rate;

    fn spec(i: u32, class: Conformance) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(1.0))
            .bucket(1000)
            .class(class)
            .build()
    }

    #[test]
    fn warmup_events_ignored() {
        let w = Time::from_secs(5);
        let e = Time::from_secs(10);
        let mut c = StatsCollector::new(1, w, e, 0);
        c.on_arrival(Time::from_secs(1), FlowId(0), 500, None);
        c.on_departure(Time::from_secs(2), FlowId(0), 500, Time::from_secs(1));
        c.on_arrival(Time::from_secs(6), FlowId(0), 500, None);
        c.on_departure(Time::from_secs(7), FlowId(0), 500, Time::from_secs(6));
        // Past the end is also ignored.
        c.on_arrival(Time::from_secs(11), FlowId(0), 500, None);
        let r = c.finish();
        assert_eq!(r.flows[0].offered_pkts, 1);
        assert_eq!(r.flows[0].delivered_pkts, 1);
    }

    #[test]
    fn throughput_over_window() {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::from_secs(10), 0);
        for s in 0..10 {
            c.on_departure(
                Time::from_secs_f64(s as f64 + 0.5),
                FlowId(0),
                125_000, // 1 Mbit
                Time::from_secs(s),
            );
        }
        let r = c.finish();
        assert!((r.flow_throughput_bps(FlowId(0)) - 1e6).abs() < 1.0);
        assert!((r.aggregate_throughput_bps() - 1e6).abs() < 1.0);
    }

    #[test]
    fn drop_reasons_tallied() {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::from_secs(1), 0);
        c.on_arrival(Time::ZERO, FlowId(0), 500, Some(DropReason::BufferFull));
        c.on_arrival(Time::ZERO, FlowId(0), 500, Some(DropReason::OverThreshold));
        c.on_arrival(Time::ZERO, FlowId(0), 500, Some(DropReason::NoSharedSpace));
        c.on_arrival(Time::ZERO, FlowId(0), 500, None);
        let r = c.finish();
        let f = &r.flows[0];
        assert_eq!(f.drops_buffer_full, 1);
        assert_eq!(f.drops_over_threshold, 1);
        assert_eq!(f.drops_no_shared_space, 1);
        assert_eq!(f.dropped_pkts, 3);
        assert!((f.loss_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn class_metrics_filter_by_class() {
        let specs = vec![
            spec(0, Conformance::Conformant),
            spec(1, Conformance::Aggressive),
        ];
        let mut c = StatsCollector::new(2, Time::ZERO, Time::from_secs(1), 0);
        c.on_arrival(Time::ZERO, FlowId(0), 500, None);
        c.on_arrival(
            Time::ZERO + Dur::from_millis(1),
            FlowId(1),
            500,
            Some(DropReason::OverThreshold),
        );
        c.on_departure(Time::ZERO + Dur::from_millis(2), FlowId(0), 500, Time::ZERO);
        let r = c.finish();
        assert_eq!(r.class_loss_ratio(&specs, Conformance::Conformant), 0.0);
        assert_eq!(r.class_loss_ratio(&specs, Conformance::Aggressive), 1.0);
        assert!(r.class_throughput_bps(&specs, Conformance::Conformant) > 0.0);
        assert_eq!(r.class_throughput_bps(&specs, Conformance::Aggressive), 0.0);
        // No moderate flows: loss ratio degenerates to zero.
        assert_eq!(
            r.class_loss_ratio(&specs, Conformance::ModeratelyNonConformant),
            0.0
        );
    }

    #[test]
    fn delay_percentiles_from_histogram() {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::from_secs(10), 0);
        // 90 packets at ~1 ms, 10 packets at ~64 ms.
        for i in 0..90 {
            c.on_departure(
                Time::from_secs_f64(0.1 + i as f64 * 0.01),
                FlowId(0),
                500,
                Time::from_secs_f64(0.1 + i as f64 * 0.01 - 0.001),
            );
        }
        for i in 0..10 {
            c.on_departure(
                Time::from_secs_f64(2.0 + i as f64 * 0.01),
                FlowId(0),
                500,
                Time::from_secs_f64(2.0 + i as f64 * 0.01 - 0.064),
            );
        }
        let r = c.finish();
        let f = &r.flows[0];
        // p50 within a factor of 2 of 1 ms; p99 within a factor of 2
        // of 64 ms (log2 bucket edges).
        let p50 = f.delay_percentile(0.5).as_secs_f64();
        let p99 = f.delay_percentile(0.99).as_secs_f64();
        assert!((0.001..=0.0025).contains(&p50), "p50 {p50}");
        assert!((0.064..=0.15).contains(&p99), "p99 {p99}");
        assert!(f.delay_percentile(0.0) <= f.delay_percentile(1.0));
        // Empty stats: zero.
        assert_eq!(FlowStats::default().delay_percentile(0.9), Dur::ZERO);
    }

    #[test]
    fn delay_accounting() {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::from_secs(1), 0);
        c.on_departure(Time::ZERO + Dur::from_millis(3), FlowId(0), 500, Time::ZERO);
        c.on_departure(
            Time::ZERO + Dur::from_millis(9),
            FlowId(0),
            500,
            Time::ZERO + Dur::from_millis(4),
        );
        let r = c.finish();
        assert_eq!(r.flows[0].mean_delay(), Dur::from_millis(4));
        assert_eq!(r.flows[0].delay_max_ns, 5_000_000);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn degenerate_window_rejected() {
        let _ = StatsCollector::new(1, Time::from_secs(1), Time::from_secs(1), 0);
    }

    /// A synthetic run with per-flow counters derived from `tag`, so
    /// different tags give distinguishable results.
    fn synthetic_run(n_flows: usize, tag: u64) -> SimResult {
        let mut r = SimResult::new(n_flows, Dur::from_secs(2), tag);
        for (i, f) in r.flows.iter_mut().enumerate() {
            let k = tag * 100 + i as u64;
            f.offered_pkts = 10 + k;
            f.offered_bytes = (10 + k) * 500;
            f.dropped_pkts = k % 7;
            f.dropped_bytes = (k % 7) * 500;
            f.drops_buffer_full = k % 3;
            f.drops_over_threshold = k % 4;
            f.drops_no_shared_space = k % 5;
            f.delivered_pkts = f.offered_pkts - f.dropped_pkts;
            f.delivered_bytes = f.offered_bytes - f.dropped_bytes;
            f.delay_sum_ns = (k as u128 + 1) * 1_000;
            f.delay_max_ns = (tag + 1) * 1_000 * (i as u64 + 1);
            f.delay_hist = vec![k, k + 1, k + 2];
            f.green_offered_pkts = k % 5;
        }
        r
    }

    fn fold(n_flows: usize, seed: u64, runs: &[SimResult]) -> SimResult {
        let mut acc = StatsCollector::merger(n_flows, seed);
        for r in runs {
            acc.merge(r);
        }
        acc.finish()
    }

    #[test]
    fn merge_identity_is_neutral() {
        // empty ⊕ x preserves x's counters (seed aside — the merged
        // result carries the campaign seed, not any one run's).
        let x = synthetic_run(3, 5);
        let mut merged = fold(3, x.seed, std::slice::from_ref(&x));
        merged.seed = x.seed;
        assert_eq!(merged, x);
    }

    #[test]
    fn merge_is_commutative_over_shuffled_orders() {
        let runs: Vec<SimResult> = (0..5).map(|t| synthetic_run(4, t)).collect();
        let reference = fold(4, 9, &runs);
        for order in [[4usize, 2, 0, 3, 1], [1, 0, 3, 2, 4], [3, 4, 1, 0, 2]] {
            let shuffled: Vec<SimResult> = order.iter().map(|&i| runs[i].clone()).collect();
            assert_eq!(fold(4, 9, &shuffled), reference, "order {order:?} diverged");
        }
    }

    #[test]
    fn merge_adds_counters_and_windows_and_maxes_delay() {
        let a = synthetic_run(2, 1);
        let b = synthetic_run(2, 2);
        let m = fold(2, 0, &[a.clone(), b.clone()]);
        assert_eq!(m.window, a.window + b.window);
        for i in 0..2 {
            let (fa, fb, fm) = (&a.flows[i], &b.flows[i], &m.flows[i]);
            assert_eq!(fm.offered_pkts, fa.offered_pkts + fb.offered_pkts);
            assert_eq!(fm.dropped_bytes, fa.dropped_bytes + fb.dropped_bytes);
            for reason in [
                DropReason::BufferFull,
                DropReason::OverThreshold,
                DropReason::NoSharedSpace,
            ] {
                assert_eq!(fm.drops(reason), fa.drops(reason) + fb.drops(reason));
            }
            assert_eq!(fm.delivered_bytes, fa.delivered_bytes + fb.delivered_bytes);
            assert_eq!(fm.delay_sum_ns, fa.delay_sum_ns + fb.delay_sum_ns);
            assert_eq!(fm.delay_max_ns, fa.delay_max_ns.max(fb.delay_max_ns));
            assert_eq!(
                fm.green_offered_pkts,
                fa.green_offered_pkts + fb.green_offered_pkts
            );
            let hist_sum: Vec<u64> = fa
                .delay_hist
                .iter()
                .zip(&fb.delay_hist)
                .map(|(x, y)| x + y)
                .collect();
            assert_eq!(fm.delay_hist, hist_sum);
        }
        // Window addition makes the merged throughput the mean rate:
        // delivered bytes across both runs over both windows.
        let expect = (a.flows[0].delivered_bytes + b.flows[0].delivered_bytes) as f64 * 8.0
            / m.window.as_secs_f64();
        assert!((m.flow_throughput_bps(FlowId(0)) - expect).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different flow counts")]
    fn merge_rejects_mismatched_flow_counts() {
        let mut acc = StatsCollector::merger(2, 0);
        acc.merge(&synthetic_run(3, 0));
    }

    #[test]
    fn sketches_attach_record_and_merge() {
        let cfg = StatsConfig {
            sketches: Some(SketchParams::default()),
        };
        let mut c = StatsCollector::with_config(1, Time::ZERO, Time::from_secs(1), 0, cfg);
        assert!(c.sketching());
        c.on_departure(Time::ZERO + Dur::from_millis(3), FlowId(0), 500, Time::ZERO);
        c.on_occupancy(Time::ZERO + Dur::from_millis(3), FlowId(0), 500, 1500);
        // Outside the window: ignored like every other counter.
        c.on_occupancy(Time::from_secs(2), FlowId(0), 9999, 9999);
        let r = c.finish();
        assert_eq!(r.delay_sketch.as_ref().unwrap().count(), 1);
        assert_eq!(r.flows[0].delay_sketch.as_ref().unwrap().count(), 1);
        assert_eq!(r.occ_sketch.as_ref().unwrap().quantile(1.0), 1500);
        assert_eq!(r.flows[0].occ_sketch.as_ref().unwrap().quantile(1.0), 500);
        // A sketch-less merger adopts the sketches unchanged — the
        // campaign fold stays identity-preserving with sketches on.
        let mut acc = StatsCollector::merger(1, 0);
        acc.merge(&r);
        let m = acc.finish();
        assert_eq!(m.delay_sketch, r.delay_sketch);
        assert_eq!(m.flows[0].occ_sketch, r.flows[0].occ_sketch);
    }

    #[test]
    fn per_flow_sketches_downgrade_above_the_flow_limit() {
        let cfg = StatsConfig {
            sketches: Some(SketchParams::default()),
        };
        // Within the limit: per-flow sketches attach.
        let within = StatsCollector::with_config(3, Time::ZERO, Time::from_secs(1), 0, cfg);
        assert!(!cfg.per_flow_downgraded(PER_FLOW_SKETCH_LIMIT));
        let r = within.finish();
        assert!(r.flows[0].delay_sketch.is_some());
        // Above it: aggregate-only, and the downgrade is queryable.
        let n = PER_FLOW_SKETCH_LIMIT + 1;
        let above = StatsCollector::with_config(n, Time::ZERO, Time::from_secs(1), 0, cfg);
        assert!(cfg.per_flow_downgraded(n));
        let r = above.finish();
        assert!(r.delay_sketch.is_some(), "aggregate sketch survives");
        assert!(r.flows.iter().all(|f| f.delay_sketch.is_none()));
        assert!(r.flows.iter().all(|f| f.occ_sketch.is_none()));
        // Sketches off entirely: never "downgraded".
        assert!(!StatsConfig::default().per_flow_downgraded(usize::MAX));
    }

    #[test]
    fn debug_format_is_unchanged_without_sketches() {
        // The golden-digest determinism tests hash `{:?}` of sketch-less
        // flows; the manual Debug impl must render exactly like the old
        // derived one (no sketch fields at all).
        let r = synthetic_run(1, 3);
        let txt = format!("{:?}", r.flows);
        assert!(!txt.contains("sketch"), "{txt}");
        let cfg = StatsConfig {
            sketches: Some(SketchParams::default()),
        };
        let c = StatsCollector::with_config(1, Time::ZERO, Time::from_secs(1), 0, cfg);
        let txt2 = format!("{:?}", c.finish().flows);
        assert!(txt2.contains("delay_sketch"), "{txt2}");
    }

    #[test]
    fn flow_stats_stay_within_the_per_flow_budget() {
        // One `FlowStats` per flow per link is the per-flow statistics
        // footprint at ISP scale; inline sketches would take it to 256 B.
        assert!(
            std::mem::size_of::<FlowStats>() <= 160,
            "FlowStats grew to {} B",
            std::mem::size_of::<FlowStats>()
        );
    }

    #[test]
    fn boxed_sketch_renders_like_the_inline_one() {
        // Goldens hash `{:?}` of sketch-carrying flows, so the box must
        // be invisible: `Some(<the sketch's own Debug>)`.
        let mut sketch = QuantileSketch::new(SketchParams::default().precision_bits);
        for d in [1_000, 83_333, 2_500_000] {
            sketch.record(d);
        }
        let f = FlowStats {
            delay_sketch: Some(Box::new(sketch.clone())),
            ..FlowStats::default()
        };
        let txt = format!("{f:?}");
        let field = format!("delay_sketch: Some({sketch:?})");
        assert!(txt.contains(&field), "{txt}");
        assert!(!txt.contains("occ_sketch"), "{txt}");
    }
}
