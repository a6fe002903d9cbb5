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
/// downgrades to aggregate-only sketching. A sketch stores only its
/// recorded value span (DESIGN.md §14), so a flow's pair costs up to
/// 30 KiB worst case (values spanning all of `u64`) and ≈ 6 KiB for a
/// `paper_campaign` flow. The guard is sized on the worst case: fine at
/// the paper's 9–30 flows, ~30 GB at the subscriber-tree's 10⁶ — and
/// 4096 flows ≈ 120 MiB of sketch memory worst case, comfortably above
/// every paper-scale scenario and below the ISP-scale blowup.
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
/// only the source present → adopt a copy (keeps a sketch-less zero
/// result the merge identity). Generic over the inline aggregate
/// sketches and the boxed per-flow ones.
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
    ///
    /// Holds buckets only up to the largest one recorded (at most 64):
    /// no trailing zero bucket, and a bucket past the end counts zero.
    /// A flow whose delays stay under 2¹⁹ ns (≈ 0.5 ms) keeps at most
    /// 19 buckets instead of 64. `Debug` renders a non-empty histogram
    /// padded to 64 buckets.
    pub delay_hist: Vec<u64>,
    /// Remark-1 coloring: bytes that arrived within the flow's declared
    /// envelope. A packet is green unless its link's meter reported it
    /// red, so on a link without meters this equals `offered_bytes`.
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
/// byte. The sketch fields appear only when populated, and a non-empty
/// delay histogram renders padded to the 64 buckets it once always had.
impl std::fmt::Debug for FlowStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut padded = [0u64; 64];
        let hist = match self.delay_hist.len() {
            n @ 1..=63 => {
                padded[..n].copy_from_slice(&self.delay_hist);
                &padded[..]
            }
            _ => &self.delay_hist[..],
        };
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
            .field("delay_hist", &hist)
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
    /// [`SimResult::merge`]): counters and histograms add, sketches
    /// merge, the delay maximum takes the max. Commutative and
    /// associative.
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
        if self.delay_hist.len() < other.delay_hist.len() {
            self.delay_hist.resize(other.delay_hist.len(), 0);
        }
        for (a, b) in self.delay_hist.iter_mut().zip(&other.delay_hist) {
            *a += b;
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

    /// Fold another run into this one. Counters add, delay maxima take
    /// the max, histograms add element-wise, sketches merge, and
    /// windows add (the merged result spans the concatenation of the
    /// runs' measurement windows, so throughput accessors report the
    /// mean rate across replications). The fold is commutative and
    /// associative: any merge order over the same set of runs yields an
    /// identical result. Panics if the flow counts differ.
    pub fn merge(&mut self, other: &SimResult) {
        assert_eq!(
            self.flows.len(),
            other.flows.len(),
            "merging results with different flow counts"
        );
        self.window += other.window;
        for (into, from) in self.flows.iter_mut().zip(&other.flows) {
            into.merge(from);
        }
        merge_sketch(&mut self.delay_sketch, &other.delay_sketch);
        merge_sketch(&mut self.occ_sketch, &other.occ_sketch);
        match (&mut self.aimd, &other.aimd) {
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

/// The per-flow counters every in-window packet touches: what a
/// [`StatsCollector`] keeps for a flow from its first in-window packet
/// on (96 B against [`FlowStats`]' 160 B). Drop counters, red counters,
/// per-flow sketches and spilled delay histograms live in lanes of
/// their own, allocated on first use.
///
/// There are no green counters: a packet is green unless reported red,
/// so [`StatsCollector::finish`] derives each green counter as its
/// total less the red lane's count, and a link without meters never
/// touches the red lane. In a collector that sketches per flow the
/// delay maximum and histogram stay zero through the run: each delay
/// goes only into the flow's sketch, and [`StatsCollector::seal`]
/// derives both from it.
#[derive(Debug, Clone, Copy, Default)]
struct HotStats {
    offered_bytes: u64,
    offered_pkts: u64,
    delivered_bytes: u64,
    delivered_pkts: u64,
    /// [`FlowStats::delay_sum_ns`] as its low and high words: a `u128`
    /// field would 16-align the record and pad it to 128 B.
    delay_sum_ns: [u64; 2],
    delay_max_ns: u64,
    /// [`FlowStats::delay_hist`]'s buckets `hist_lo..hist_lo + 8`,
    /// inline: a flow's delays at one link span a few octaves (at most
    /// five buckets on `isp_tree`'s core), so the histogram needs no
    /// heap block of its own. A flow whose delays outgrow the window,
    /// or a count `u32`, moves to the collector's spill lane.
    hist: [u32; HIST_WINDOW],
    hist_lo: u8,
    /// One plus the index of the flow's full histogram in the spill
    /// lane; 0 while the histogram is inline.
    spill: u32,
}

/// Delay-histogram buckets a [`HotStats`] record holds inline.
const HIST_WINDOW: usize = 8;

/// [`FlowStats::delay_hist`]'s bucket count: one per power of two of a
/// `u64` delay.
const HIST_BUCKETS: usize = 64;

impl HotStats {
    fn add_delay_sum(&mut self, ns: u128) {
        let sum = self.delay_sum() + ns;
        self.delay_sum_ns = [sum as u64, (sum >> 64) as u64];
    }

    fn delay_sum(&self) -> u128 {
        let [lo, hi] = self.delay_sum_ns;
        lo as u128 | (hi as u128) << 64
    }

    /// Count one delay in histogram bucket `k` inline, moving the
    /// window if `k` falls outside it and the counts still fit. False
    /// if the flow's histogram is (or must be) in the spill lane.
    #[inline]
    fn hist_add(&mut self, k: usize) -> bool {
        if self.spill != 0 {
            return false;
        }
        let slot = k.checked_sub(self.hist_lo as usize);
        if let Some(c) = slot.and_then(|j| self.hist.get_mut(j)) {
            return match c.checked_add(1) {
                Some(sum) => {
                    *c = sum;
                    true
                }
                None => false,
            };
        }
        self.hist_move(k) && self.hist_add(k)
    }

    /// Re-place the inline window so it covers bucket `k` and every
    /// counted bucket, keeping room below the lowest; false if they
    /// span more than [`HIST_WINDOW`] buckets.
    #[cold]
    fn hist_move(&mut self, k: usize) -> bool {
        let old = self.hist_lo as usize;
        let counted = |c: &u32| *c > 0;
        let lo = self
            .hist
            .iter()
            .position(counted)
            .map_or(k, |j| (old + j).min(k));
        let hi = self
            .hist
            .iter()
            .rposition(counted)
            .map_or(k, |j| (old + j).max(k));
        if hi - lo >= HIST_WINDOW {
            return false;
        }
        let new = lo
            .saturating_sub(2)
            .clamp((hi + 1).saturating_sub(HIST_WINDOW), lo)
            .min(HIST_BUCKETS - HIST_WINDOW);
        let mut hist = [0; HIST_WINDOW];
        for (j, &c) in self.hist.iter().enumerate() {
            if let Some(to) = (old + j).checked_sub(new).and_then(|i| hist.get_mut(i)) {
                *to = c;
            }
        }
        self.hist = hist;
        self.hist_lo = new as u8;
        true
    }

    /// [`FlowStats::delay_hist`]: buckets up to the largest counted one,
    /// from the inline window or the flow's `spilled` histogram.
    fn delay_hist(&self, spilled: Option<&[u64; HIST_BUCKETS]>) -> Vec<u64> {
        if let Some(h) = spilled {
            let used = h.iter().rposition(|&c| c > 0).map_or(0, |k| k + 1);
            return h.get(..used).map(<[u64]>::to_vec).unwrap_or_default();
        }
        let Some(last) = self.hist.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let lo = self.hist_lo as usize;
        let mut hist = vec![0; lo + last + 1];
        for (to, &c) in hist.iter_mut().skip(lo).zip(&self.hist) {
            *to = c as u64;
        }
        hist
    }
}

/// [`StatsCollector`]'s slot index of a flow without a record yet.
const NO_SLOT: u32 = u32::MAX;

/// A flow's drop counters: the cold lane [`StatsCollector`] allocates
/// at the first in-window drop.
#[derive(Debug, Clone, Copy, Default)]
struct DropStats {
    bytes: u64,
    pkts: u64,
    /// By cause, in [`DropReason`] order.
    by_cause: [u64; 3],
}

/// A flow's red counters: the cold lane [`StatsCollector`] allocates at
/// the first in-window red packet (a meter's verdict, so never on a link
/// without meters). The green counters are the totals less these.
#[derive(Debug, Clone, Copy, Default)]
struct RedStats {
    offered_bytes: u64,
    offered_pkts: u64,
    delivered_bytes: u64,
}

/// Flow `flow`'s entry in a per-flow cold lane, allocating the lane —
/// one default entry for each of `flows` flows — at its first use.
/// `None` for a flow past the end.
// qbm-lint: cold(a drop or a red packet, off the green delivery path; allocates its lane once per run)
fn lane_entry<T: Copy + Default>(lane: &mut Vec<T>, flows: usize, flow: usize) -> Option<&mut T> {
    if lane.is_empty() {
        *lane = vec![T::default(); flows];
    }
    lane.get_mut(flow)
}

/// `total − part`: a green counter from its total and the red lane's
/// count, in `finish`. A red count above its total is a red report
/// without its arrival, which the engine never issues.
fn other_share(total: u64, part: u64) -> u64 {
    let rest = total.checked_sub(part);
    debug_assert!(rest.is_some(), "colour count above its total");
    rest.unwrap_or(0)
}

/// A flow's sketches: the lane [`StatsCollector`] allocates only when
/// it sketches per flow.
#[derive(Debug, Default)]
struct FlowSketches {
    delay: Option<Box<QuantileSketch>>,
    occ: Option<Box<QuantileSketch>>,
}

/// Mutable collector the router writes into during a run.
///
/// Per flow it keeps a 4 B slot index; a flow gets the counters every
/// packet touches (96 B) at its first in-window packet, drop counters
/// at the first drop, red counters at the first red packet, and
/// sketches when the collector sketches per flow.
/// [`StatsCollector::finish`] assembles the [`FlowStats`] of its
/// result from them, zero for a flow that saw nothing in the window.
/// A collector that sketches per flow, which spends kilobytes per flow
/// on sketches anyway, makes every record up front instead and skips
/// the slot lookup on every packet; it also records each delay only
/// into the flow's delay sketch (and the delay sum), and
/// sealing the run derives the delay histogram, the delay maximum and
/// the aggregate delay sketch from the per-flow sketches.
#[derive(Debug)]
pub struct StatsCollector {
    /// Window, seed and the aggregate attachments; `flows` stays empty
    /// until [`StatsCollector::finish`] assembles it.
    result: SimResult,
    /// `slots[f]`: where in `hot` flow `f`'s record is, [`NO_SLOT`]
    /// until its first in-window packet.
    slots: Vec<u32>,
    /// The records of the flows that have seen an in-window packet, in
    /// order of first packet.
    hot: Vec<HotStats>,
    /// Every flow has its record from the start, in slot `f` (so
    /// `slots` is the identity) and a delay sketch in `sketches`, the
    /// one place its delays are recorded.
    dense: bool,
    /// Empty until the first in-window drop, then one per flow.
    drops: Vec<DropStats>,
    /// Empty until the first in-window red packet, then one per flow.
    reds: Vec<RedStats>,
    /// Empty unless sketching per flow, then one per flow.
    sketches: Vec<FlowSketches>,
    /// The full delay histograms of the flows whose delays outgrew
    /// their record's inline window, in order of spilling.
    spills: Vec<[u64; HIST_BUCKETS]>,
    /// Each record's [`FlowStats::delay_hist`], built by
    /// [`StatsCollector::seal`]; empty until then.
    hists: Vec<Vec<u64>>,
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
    /// is allocated here, once — the per-event paths never allocate a
    /// sketch.
    // qbm-lint: cold(per-run construction, before the event loop)
    pub fn with_config(
        n_flows: usize,
        warmup_end: Time,
        run_end: Time,
        seed: u64,
        cfg: StatsConfig,
    ) -> StatsCollector {
        assert!(run_end > warmup_end, "empty measurement window");
        let mut c = StatsCollector::empty(n_flows, seed);
        c.result.window = run_end.since(warmup_end);
        c.warmup_end = warmup_end;
        c.run_end = run_end;
        if let Some(sp) = cfg.sketches {
            c.result.delay_sketch = Some(QuantileSketch::new(sp.precision_bits));
            c.result.occ_sketch = Some(QuantileSketch::new(sp.precision_bits));
            // The flow-count guard: a per-flow pair is up to 30 KiB worst
            // case, ≈ 6 KiB for a `paper_campaign` flow (DESIGN.md §14),
            // so ISP-scale runs keep aggregates only.
            if n_flows <= PER_FLOW_SKETCH_LIMIT {
                c.slots = (0..n_flows as u32).collect();
                c.hot = vec![HotStats::default(); n_flows];
                c.dense = true;
                let sketch = || Some(Box::new(QuantileSketch::new(sp.precision_bits)));
                c.sketches = (0..n_flows)
                    .map(|_| FlowSketches {
                        delay: sketch(),
                        occ: sketch(),
                    })
                    .collect();
            }
        }
        c
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
        if let Some(s) = self.sketches.get_mut(flow.index()) {
            if let Some(s) = s.occ.as_mut() {
                s.record(flow_occ);
            }
        }
    }

    /// Flow `flow`'s record, made at its first call; `None` for a flow
    /// the collector does not have.
    #[inline]
    fn record(&mut self, flow: FlowId) -> Option<&mut HotStats> {
        if self.dense {
            return self.hot.get_mut(flow.index());
        }
        match *self.slots.get(flow.index())? {
            NO_SLOT => self.first_record(flow.index()),
            slot => self.hot.get_mut(slot as usize),
        }
    }

    /// [`StatsCollector::record`]'s first call for flow `f`: give it a
    /// slot and a zero record. Out of line, so the per-packet path
    /// stays a load and a compare.
    #[cold]
    #[inline(never)]
    fn first_record(&mut self, f: usize) -> Option<&mut HotStats> {
        let slot = self.slots.get_mut(f)?;
        *slot = self.hot.len() as u32;
        self.hot.push(HotStats::default());
        self.hot.last_mut()
    }

    /// Record an offered packet and its verdict.
    pub fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, dropped: Option<DropReason>) {
        if !self.in_window(now) {
            return;
        }
        let Some(f) = self.record(flow) else {
            debug_assert!(false, "arrival of an unknown flow");
            return;
        };
        f.offered_bytes += len as u64;
        f.offered_pkts += 1;
        if let Some(reason) = dropped {
            self.on_drop(flow.index(), len, reason);
        }
    }

    fn on_drop(&mut self, flow: usize, len: u32, reason: DropReason) {
        let Some(d) = lane_entry(&mut self.drops, self.slots.len(), flow) else {
            debug_assert!(false, "drop of an unknown flow");
            return;
        };
        d.bytes += len as u64;
        d.pkts += 1;
        let [buffer_full, over_threshold, no_shared_space] = &mut d.by_cause;
        let cause = match reason {
            DropReason::BufferFull => buffer_full,
            DropReason::OverThreshold => over_threshold,
            DropReason::NoSharedSpace => no_shared_space,
        };
        *cause += 1;
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
        if !green {
            let Some(r) = lane_entry(&mut self.reds, self.slots.len(), flow.index()) else {
                debug_assert!(false, "red departure of an unknown flow");
                return;
            };
            r.delivered_bytes += len as u64;
        }
        let dense = self.dense;
        let Some(f) = self.record(flow) else {
            debug_assert!(false, "departure of an unknown flow");
            return;
        };
        f.delivered_bytes += len as u64;
        f.delivered_pkts += 1;
        let d = now.since(arrival).as_nanos();
        f.add_delay_sum(d as u128);
        if dense {
            // The flow's delay sketch is the delay's one record: `seal`
            // derives the histogram, maximum and aggregate sketch.
            if let Some(s) = self.sketches.get_mut(flow.index()) {
                if let Some(s) = s.delay.as_mut() {
                    s.record(d);
                }
            }
            return;
        }
        f.delay_max_ns = f.delay_max_ns.max(d);
        let bucket = (63 - d.max(1).leading_zeros()) as usize;
        if !f.hist_add(bucket) {
            self.spill_delay(flow, bucket);
        }
        if let Some(s) = self.result.delay_sketch.as_mut() {
            s.record(d);
        }
    }

    /// Count one delay of `flow` in histogram bucket `k` in the spill
    /// lane, moving the flow's inline counts there first if this is its
    /// first spill.
    #[cold]
    fn spill_delay(&mut self, flow: FlowId, k: usize) {
        let next = self.spills.len() as u32 + 1;
        let Some(h) = self.record(flow) else {
            debug_assert!(false, "delay of an unknown flow");
            return;
        };
        let inline = if h.spill == 0 {
            h.spill = next;
            Some((h.hist_lo as usize, std::mem::take(&mut h.hist)))
        } else {
            None
        };
        let slot = h.spill as usize - 1;
        if let Some((lo, hist)) = inline {
            let mut full = [0u64; HIST_BUCKETS];
            for (to, &c) in full.iter_mut().skip(lo).zip(&hist) {
                *to = c as u64;
            }
            self.spills.push(full);
        }
        if let Some(c) = self.spills.get_mut(slot).and_then(|h| h.get_mut(k)) {
            *c += 1;
        }
    }

    /// Record a packet's Remark-1 color at arrival (before the
    /// admission verdict; green = fit the declared envelope). A packet
    /// is green unless reported red, so a green report returns at once;
    /// a red one is counted in the red lane, and must be followed by
    /// the packet's [`StatsCollector::on_arrival`], as the engine does.
    pub fn on_color(&mut self, now: Time, flow: FlowId, len: u32, green: bool) {
        if green || !self.in_window(now) {
            return;
        }
        let Some(r) = lane_entry(&mut self.reds, self.slots.len(), flow.index()) else {
            debug_assert!(false, "color of an unknown flow");
            return;
        };
        r.offered_bytes += len as u64;
        r.offered_pkts += 1;
    }

    /// Build every record's delay histogram: the link's run is over, so
    /// no record changes again. A fabric link seals on the thread that
    /// ran it, so [`StatsCollector::finish`], which runs for every link
    /// on one thread, only moves the histograms. A collector that
    /// sketches per flow derives each flow's histogram and delay maximum
    /// from its delay sketch here, and the aggregate delay sketch as the
    /// merge of the flows' — exactly what recording each delay into all
    /// of them would have given.
    // qbm-lint: cold(once per run, after the link's last event)
    pub(crate) fn seal(&mut self) {
        if self.hists.len() == self.hot.len() {
            return;
        }
        if self.dense {
            let mut hists = Vec::with_capacity(self.hot.len());
            for (h, s) in self.hot.iter_mut().zip(&self.sketches) {
                let Some(s) = s.delay.as_deref() else {
                    hists.push(Vec::new());
                    continue;
                };
                h.delay_max_ns = s.max().unwrap_or(0);
                hists.push(s.log2_counts());
                if let Some(all) = self.result.delay_sketch.as_mut() {
                    all.merge(s);
                }
            }
            self.hists = hists;
            return;
        }
        let spills = &self.spills;
        self.hists = self
            .hot
            .iter()
            .map(|h| h.delay_hist(h.spill.checked_sub(1).and_then(|i| spills.get(i as usize))))
            .collect();
    }

    /// Finish the run: assemble one [`FlowStats`] per flow from its hot
    /// record and lanes.
    // qbm-lint: cold(per-run result assembly, after the event loop)
    pub fn finish(mut self) -> SimResult {
        self.seal();
        let StatsCollector {
            mut result,
            slots,
            hot,
            drops,
            reds,
            mut sketches,
            mut hists,
            ..
        } = self;
        result.flows = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let h = hot.get(slot as usize).copied().unwrap_or_default();
                let d = drops.get(i).copied().unwrap_or_default();
                let red = reds.get(i).copied().unwrap_or_default();
                let [buffer_full, over_threshold, no_shared_space] = d.by_cause;
                let s = sketches.get_mut(i).map(std::mem::take).unwrap_or_default();
                FlowStats {
                    offered_bytes: h.offered_bytes,
                    offered_pkts: h.offered_pkts,
                    dropped_bytes: d.bytes,
                    dropped_pkts: d.pkts,
                    drops_buffer_full: buffer_full,
                    drops_over_threshold: over_threshold,
                    drops_no_shared_space: no_shared_space,
                    delivered_bytes: h.delivered_bytes,
                    delivered_pkts: h.delivered_pkts,
                    delay_sum_ns: h.delay_sum(),
                    delay_max_ns: h.delay_max_ns,
                    delay_hist: hists
                        .get_mut(slot as usize)
                        .map(std::mem::take)
                        .unwrap_or_default(),
                    green_offered_bytes: other_share(h.offered_bytes, red.offered_bytes),
                    green_offered_pkts: other_share(h.offered_pkts, red.offered_pkts),
                    green_delivered_bytes: other_share(h.delivered_bytes, red.delivered_bytes),
                    delay_sketch: s.delay,
                    occ_sketch: s.occ,
                }
            })
            .collect();
        result
    }

    /// A collector of `n_flows` flows with zero counters and a zero
    /// window: what [`StatsCollector::with_config`] starts from, and
    /// the link engine's placeholder until its run is primed.
    // qbm-lint: cold(per-run construction, before the event loop)
    pub(crate) fn empty(n_flows: usize, seed: u64) -> StatsCollector {
        StatsCollector {
            result: SimResult::new(0, Dur::ZERO, seed),
            slots: vec![NO_SLOT; n_flows],
            hot: Vec::new(),
            dense: false,
            drops: Vec::new(),
            reds: Vec::new(),
            sketches: Vec::new(),
            spills: Vec::new(),
            hists: Vec::new(),
            warmup_end: Time::ZERO,
            run_end: Time::ZERO,
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
        let mut acc = SimResult::new(n_flows, Dur::ZERO, seed);
        for r in runs {
            acc.merge(r);
        }
        acc
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
        let mut acc = SimResult::new(2, Dur::ZERO, 0);
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
        // A sketch-less zero result adopts the sketches unchanged — the
        // campaign fold stays identity-preserving with sketches on.
        let m = fold(1, 0, std::slice::from_ref(&r));
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
        // Pinned exactly, so an added field shows as a footprint change.
        assert_eq!(std::mem::size_of::<FlowStats>(), 160, "FlowStats footprint");
    }

    #[test]
    fn hot_record_stays_within_its_budget() {
        // What the collector holds for a flow from its first in-window
        // packet on: offered and delivered counters, the delay sum and
        // maximum, and the inline delay-histogram window with its spill
        // index. Drops, red counts, sketches and spilled histograms
        // live in lanes; green counts are derived.
        assert_eq!(std::mem::size_of::<HotStats>(), 96, "HotStats footprint");
    }

    /// An out-of-range flow reaches each recorder's `get_mut` fallback:
    /// a debug build stops at its `debug_assert!`, a release build skips
    /// the record and counts nothing.
    fn record_for_unknown_flow(record: impl FnOnce(&mut StatsCollector)) {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::from_secs(1), 0);
        record(&mut c);
        assert_eq!(c.finish().flows, vec![FlowStats::default()]);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "arrival of an unknown flow")
    )]
    fn arrival_of_an_unknown_flow_is_skipped() {
        record_for_unknown_flow(|c| c.on_arrival(Time::ZERO, FlowId(1), 500, None));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "color of an unknown flow"))]
    fn color_of_an_unknown_flow_is_skipped() {
        record_for_unknown_flow(|c| c.on_color(Time::ZERO, FlowId(1), 500, false));
    }

    #[test]
    fn a_green_color_touches_nothing() {
        // Green is the default: the report returns before any lookup,
        // so even a flow past the end passes without a word.
        record_for_unknown_flow(|c| c.on_color(Time::ZERO, FlowId(1), 500, true));
    }

    #[test]
    fn red_packets_count_in_a_lane_made_at_the_first_one() {
        let mut c = StatsCollector::new(3, Time::ZERO, Time::from_secs(1), 0);
        let at = |ms| Time::ZERO + Dur::from_millis(ms);
        for flow in [FlowId(0), FlowId(2)] {
            c.on_color(at(1), flow, 500, true);
            c.on_arrival(at(1), flow, 500, None);
            c.on_departure_colored(at(2), flow, 500, at(1), true);
        }
        assert!(c.reds.is_empty(), "no red packet yet");
        c.on_color(at(3), FlowId(2), 300, false);
        c.on_arrival(at(3), FlowId(2), 300, Some(DropReason::OverThreshold));
        c.on_color(at(4), FlowId(2), 200, false);
        c.on_arrival(at(4), FlowId(2), 200, None);
        c.on_departure_colored(at(5), FlowId(2), 200, at(4), false);
        assert_eq!(c.reds.len(), 3);
        let r = c.finish();
        let f = &r.flows[2];
        assert_eq!((f.offered_bytes, f.offered_pkts), (1000, 3));
        assert_eq!((f.green_offered_bytes, f.green_offered_pkts), (500, 1));
        assert_eq!((f.delivered_bytes, f.green_delivered_bytes), (700, 500));
        let f = &r.flows[0];
        assert_eq!((f.green_offered_bytes, f.green_delivered_bytes), (500, 500));
        // A merge carries the red shares through.
        let m = fold(3, 0, &[r.clone(), r]);
        assert_eq!(m.flows[2].green_offered_pkts, 2);
        assert_eq!(m.flows[2].green_delivered_bytes, 1000);
        assert_eq!(m.flows[0].green_offered_bytes, 1000);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "departure of an unknown flow")
    )]
    fn departure_of_an_unknown_flow_is_skipped() {
        record_for_unknown_flow(|c| {
            c.on_departure(Time::ZERO + Dur::from_millis(1), FlowId(1), 500, Time::ZERO)
        });
    }

    #[test]
    fn a_flow_gets_its_record_at_its_first_in_window_packet() {
        let mut c = StatsCollector::new(4, Time::from_secs(1), Time::from_secs(2), 0);
        c.on_color(Time::ZERO, FlowId(3), 500, true);
        c.on_arrival(Time::ZERO, FlowId(3), 500, None);
        c.on_departure(Time::from_secs(2), FlowId(1), 500, Time::from_secs(1));
        assert!(c.hot.is_empty(), "out-of-window packets make no record");
        c.on_departure(Time::from_secs(1), FlowId(2), 500, Time::ZERO);
        c.on_color(Time::from_secs(1), FlowId(0), 500, true);
        assert_eq!(c.hot.len(), 1, "a green color makes no record");
        c.on_arrival(Time::from_secs(1), FlowId(0), 500, None);
        c.on_arrival(Time::from_secs(1), FlowId(2), 500, None);
        assert_eq!(c.hot.len(), 2);
        assert_eq!(c.slots, vec![1, NO_SLOT, 0, NO_SLOT]);
        let r = c.finish();
        assert_eq!(r.flows[1], FlowStats::default());
        assert_eq!(r.flows[3], FlowStats::default());
        assert_eq!((r.flows[2].offered_pkts, r.flows[2].delivered_pkts), (1, 1));
        assert_eq!(r.flows[0].green_offered_pkts, 1);
    }

    #[test]
    fn a_collector_sketching_per_flow_makes_every_record_up_front() {
        let cfg = StatsConfig {
            sketches: Some(SketchParams::default()),
        };
        let mut c = StatsCollector::with_config(3, Time::ZERO, Time::from_secs(1), 0, cfg);
        assert!(c.dense);
        assert_eq!((c.slots.clone(), c.hot.len()), (vec![0, 1, 2], 3));
        c.on_departure(Time::ZERO + Dur::from_millis(1), FlowId(2), 500, Time::ZERO);
        assert_eq!(c.hot.len(), 3);
        assert_eq!(c.finish().flows[2].delivered_pkts, 1);
        let above = PER_FLOW_SKETCH_LIMIT + 1;
        let c = StatsCollector::with_config(above, Time::ZERO, Time::from_secs(1), 0, cfg);
        assert!(
            !c.dense && c.hot.is_empty(),
            "aggregate-only sketching stays sparse"
        );
    }

    #[test]
    fn drop_lane_is_allocated_at_the_first_in_window_drop() {
        let mut c = StatsCollector::new(3, Time::from_secs(1), Time::from_secs(2), 0);
        c.on_arrival(Time::ZERO, FlowId(1), 500, Some(DropReason::BufferFull));
        c.on_arrival(Time::from_secs(1), FlowId(0), 500, None);
        assert!(c.drops.is_empty(), "no in-window drop yet");
        c.on_arrival(
            Time::from_secs(1),
            FlowId(2),
            500,
            Some(DropReason::NoSharedSpace),
        );
        assert_eq!(c.drops.len(), 3);
        assert!(c.sketches.is_empty(), "sketches are off");
        let r = c.finish();
        assert_eq!(r.flows[2].drops(DropReason::NoSharedSpace), 1);
        assert_eq!(r.flows[1].dropped_pkts, 0);
    }

    /// One in-window departure of each delay, in ns.
    fn departures(delays: &[u64]) -> FlowStats {
        let mut c = StatsCollector::new(1, Time::ZERO, Time::MAX, 0);
        for &d in delays {
            c.on_departure(Time::ZERO + Dur(d), FlowId(0), 500, Time::ZERO);
        }
        c.finish().flows.remove(0)
    }

    #[test]
    fn delay_hist_ends_at_the_largest_recorded_bucket() {
        // 10 ns is in bucket 3, 600 ns in bucket 9.
        let f = departures(&[10, 600, 12]);
        assert_eq!(f.delay_hist.len(), 10);
        assert_eq!((f.delay_hist[3], f.delay_hist[9]), (2, 1));
        // Goldens hash `{:?}`: it renders the 64 buckets every
        // histogram used to carry.
        let mut padded = f.delay_hist.clone();
        padded.resize(64, 0);
        let old = FlowStats {
            delay_hist: padded,
            ..f.clone()
        };
        assert_eq!(format!("{f:?}"), format!("{old:?}"));
        assert_eq!(format!("{f:#?}"), format!("{old:#?}"));
        assert!(format!("{:?}", FlowStats::default()).contains("delay_hist: [],"));
    }

    #[test]
    fn inline_histogram_moves_and_spills_without_changing_counts() {
        // Buckets 12, 9, 15, 16, 9: falling and rising within eight
        // octaves moves the inline window.
        let f = departures(&[1 << 12, 1 << 9, 1 << 15, 1 << 16, 1 << 9]);
        let mut want = vec![0; 17];
        (want[9], want[12], want[15], want[16]) = (2, 1, 1, 1);
        assert_eq!(f.delay_hist, want);
        // Buckets 9 and 17 span nine: the flow spills.
        let f = departures(&[1 << 9, 1 << 17, 1 << 9]);
        let mut want = vec![0; 18];
        (want[9], want[17]) = (2, 1);
        assert_eq!(f.delay_hist, want);
        // A count past `u32` spills too.
        let mut c = StatsCollector::new(1, Time::ZERO, Time::MAX, 0);
        let depart = |c: &mut StatsCollector| {
            c.on_departure(Time::ZERO + Dur(4), FlowId(0), 500, Time::ZERO);
        };
        depart(&mut c);
        let h = &mut c.hot[0];
        h.hist[2 - h.hist_lo as usize] = u32::MAX;
        depart(&mut c);
        assert_ne!(c.hot[0].spill, 0, "the count outgrew its `u32`");
        assert_eq!(
            c.finish().flows[0].delay_hist,
            vec![0, 0, u32::MAX as u64 + 1]
        );
    }

    #[test]
    fn merge_extends_the_shorter_histogram() {
        let short = departures(&[600, 700]);
        let long = departures(&[10, 10_000]);
        assert_eq!((short.delay_hist.len(), long.delay_hist.len()), (10, 14));
        let mut ab = short.clone();
        ab.merge(&long);
        let mut ba = long.clone();
        ba.merge(&short);
        assert_eq!(ab.delay_hist.len(), 14);
        assert_eq!(
            (ab.delay_hist[3], ab.delay_hist[9], ab.delay_hist[13]),
            (1, 2, 1)
        );
        assert_eq!(ab, ba);
        assert_eq!(ab, departures(&[600, 700, 10, 10_000]));
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One engine step, decoded by [`feed`] and [`model`] alike.
    struct Ev {
        /// 0 coloured arrival (the colour, then the arrival, as the
        /// engine issues them), 1 arrival without a colour, 2
        /// departure, 3 occupancy.
        kind: u32,
        /// Instant, as an offset that straddles both window edges.
        offset: u64,
        flow: usize,
        len: u32,
        /// A random word: delays and occupancies are cut from it.
        word: u64,
        /// Right shift of `word` giving a departure's delay, so delays
        /// land in every bucket; an arrival's colour (even = green).
        shift: u32,
        /// Drop cause (3 = admitted) and a departure's colour (even =
        /// green).
        pick: u32,
    }

    type RawEv = ((u32, u64, usize), (u32, u64, u32, u32));

    impl Ev {
        fn new(((kind, offset, flow), (len, word, shift, pick)): RawEv) -> Ev {
            Ev {
                kind,
                offset,
                flow,
                len,
                word,
                shift,
                pick,
            }
        }
    }

    /// Window `[WARMUP, END)` near the top of the clock, so a departure
    /// can carry any delay up to `2^64 - 1` ns (every bucket, 63 too).
    const END: Time = Time(u64::MAX - 2_000);
    const WARMUP: Time = Time(u64::MAX - 4_000);

    fn events(flows: usize) -> impl Strategy<Value = Vec<RawEv>> {
        proptest::collection::vec(
            (
                (0u32..4, 0u64..6_000, 0..flows),
                (1u32..2_000, 0..u64::MAX, 0u32..64, 0u32..4),
            ),
            0..120,
        )
    }

    /// Event `ev`'s instant: offsets straddle both window edges.
    fn at(ev: &Ev) -> Time {
        Time(u64::MAX - 6_000 + ev.offset)
    }

    fn cause(pick: u32) -> Option<DropReason> {
        [
            DropReason::BufferFull,
            DropReason::OverThreshold,
            DropReason::NoSharedSpace,
        ]
        .get(pick as usize)
        .copied()
    }

    /// A departure's delay: a random word shifted into any bucket,
    /// capped at its instant so the arrival is a real time.
    fn delay(ev: &Ev) -> u64 {
        (ev.word >> ev.shift).min(at(ev).0)
    }

    fn feed(c: &mut StatsCollector, evs: &[Ev]) {
        for ev in evs {
            let (now, flow) = (at(ev), FlowId(ev.flow as u32));
            match ev.kind {
                0 | 1 => {
                    if ev.kind == 0 {
                        c.on_color(now, flow, ev.len, ev.shift % 2 == 0);
                    }
                    c.on_arrival(now, flow, ev.len, cause(ev.pick));
                }
                2 => {
                    let arrival = Time(now.0 - delay(ev));
                    c.on_departure_colored(now, flow, ev.len, arrival, ev.pick % 2 == 0);
                }
                _ => {
                    if c.sketching() {
                        c.on_occupancy(now, flow, ev.word >> 40, ev.word >> 32);
                    }
                }
            }
        }
    }

    /// The same stream folded straight into `FlowStats`, one field at
    /// a time: a packet is green unless its colour says red, on arrival
    /// and on departure alike.
    fn model(flows: usize, seed: u64, sketches: bool, evs: &[Ev]) -> SimResult {
        let mut r = SimResult::new(flows, END.since(WARMUP), seed);
        let bits = SketchParams::default().precision_bits;
        let mut full = vec![[0u64; 64]; flows];
        if sketches {
            r.delay_sketch = Some(QuantileSketch::new(bits));
            r.occ_sketch = Some(QuantileSketch::new(bits));
            for f in &mut r.flows {
                f.delay_sketch = Some(Box::new(QuantileSketch::new(bits)));
                f.occ_sketch = Some(Box::new(QuantileSketch::new(bits)));
            }
        }
        for ev in evs.iter().filter(|ev| at(ev) >= WARMUP && at(ev) < END) {
            let f = &mut r.flows[ev.flow];
            let len = ev.len as u64;
            let green = ev.pick % 2 == 0;
            match ev.kind {
                0 | 1 => {
                    f.offered_bytes += len;
                    f.offered_pkts += 1;
                    if ev.kind == 1 || ev.shift % 2 == 0 {
                        f.green_offered_bytes += len;
                        f.green_offered_pkts += 1;
                    }
                    if let Some(c) = cause(ev.pick) {
                        f.dropped_bytes += len;
                        f.dropped_pkts += 1;
                        match c {
                            DropReason::BufferFull => f.drops_buffer_full += 1,
                            DropReason::OverThreshold => f.drops_over_threshold += 1,
                            DropReason::NoSharedSpace => f.drops_no_shared_space += 1,
                        }
                    }
                }
                2 => {
                    let d = delay(ev);
                    f.delivered_bytes += len;
                    f.delivered_pkts += 1;
                    if green {
                        f.green_delivered_bytes += len;
                    }
                    f.delay_sum_ns += d as u128;
                    f.delay_max_ns = f.delay_max_ns.max(d);
                    full[ev.flow][(0..64).rev().find(|&k| d >> k != 0).unwrap_or(0)] += 1;
                    if let Some(s) = f.delay_sketch.as_mut() {
                        s.record(d);
                    }
                    if let Some(s) = r.delay_sketch.as_mut() {
                        s.record(d);
                    }
                }
                _ => {
                    if let Some(s) = f.occ_sketch.as_mut() {
                        s.record(ev.word >> 40);
                    }
                    if let Some(s) = r.occ_sketch.as_mut() {
                        s.record(ev.word >> 32);
                    }
                }
            }
        }
        for (f, full) in r.flows.iter_mut().zip(&full) {
            let used = full.iter().rposition(|&c| c != 0).map_or(0, |k| k + 1);
            f.delay_hist = full[..used].to_vec();
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hot record and its lanes assemble, in `finish`, exactly
        /// the `FlowStats` a field-by-field fold of the same events
        /// gives; and folding several runs through `SimResult::merge`
        /// gives the field-by-field fold of all their events, over the
        /// sum of their windows.
        #[test]
        fn collector_matches_a_plain_flow_stats_fold(
            runs in proptest::collection::vec(events(4), 1..4),
            sketch in 0u32..2,
        ) {
            let sketches = sketch == 1;
            let cfg = StatsConfig {
                sketches: sketches.then(SketchParams::default),
            };
            let all: Vec<Ev> = runs.iter().flatten().copied().map(Ev::new).collect();
            let mut want = model(4, 9, sketches, &all);
            want.window = END.since(WARMUP) * runs.len() as u64;
            let mut merged = SimResult::new(4, Dur::ZERO, 9);
            for (seed, raw) in runs.into_iter().enumerate() {
                let evs: Vec<Ev> = raw.into_iter().map(Ev::new).collect();
                let evs = &evs[..];
                let mut c = StatsCollector::with_config(4, WARMUP, END, seed as u64, cfg);
                feed(&mut c, evs);
                let got = c.finish();
                let model = model(4, seed as u64, sketches, evs);
                prop_assert_eq!(&got, &model);
                prop_assert_eq!(format!("{got:?}"), format!("{model:?}"));
                merged.merge(&got);
            }
            prop_assert_eq!(format!("{merged:?}"), format!("{want:?}"));
            prop_assert_eq!(merged, want);
        }

        /// A collector that sketches per flow records each delay only in
        /// the flow's sketch and derives the rest at `seal`; a plain
        /// collector counts the same figures directly. From one
        /// engine-shaped stream they agree on every flow's histogram,
        /// maximum and sum, and the derived aggregate sketch, the merge
        /// of the flows', equals one sketch given every delay directly.
        #[test]
        fn per_flow_sketches_derive_the_plain_delay_figures(raw in events(4)) {
            let evs: Vec<Ev> = raw.into_iter().map(Ev::new).collect();
            let cfg = StatsConfig {
                sketches: Some(SketchParams::default()),
            };
            let mut plain = StatsCollector::new(4, WARMUP, END, 0);
            let mut sketched = StatsCollector::with_config(4, WARMUP, END, 0, cfg);
            feed(&mut plain, &evs);
            feed(&mut sketched, &evs);
            let (plain, sketched) = (plain.finish(), sketched.finish());
            for (p, s) in plain.flows.iter().zip(&sketched.flows) {
                prop_assert_eq!(&p.delay_hist, &s.delay_hist);
                prop_assert_eq!(p.delay_max_ns, s.delay_max_ns);
                prop_assert_eq!(p.delay_sum_ns, s.delay_sum_ns);
            }
            let mut direct = QuantileSketch::new(SketchParams::default().precision_bits);
            for ev in evs.iter().filter(|ev| ev.kind == 2 && at(ev) >= WARMUP && at(ev) < END) {
                direct.record(delay(ev));
            }
            let derived = sketched.delay_sketch.expect("aggregate sketch");
            prop_assert_eq!(format!("{derived:?}"), format!("{direct:?}"));
            prop_assert_eq!(derived, direct);
        }

        /// The grown-to-fit histogram, zero-padded to 64 buckets, is an
        /// independent 64-bucket count of the same delays, and the
        /// percentiles read from the two agree.
        #[test]
        fn grown_histogram_matches_a_full_count(
            draws in proptest::collection::vec((0..u64::MAX, 0u32..64), 1..200),
        ) {
            let mut c = StatsCollector::new(1, Time::ZERO, Time::MAX, 0);
            let mut full = vec![0u64; 64];
            // A random word shifted right by a random amount spreads
            // the delays over every bucket, 0 included.
            for d in draws.into_iter().map(|(r, shift)| r >> shift) {
                c.on_departure(Time::ZERO + Dur(d), FlowId(0), 500, Time::ZERO);
                let k = (0..64).rev().find(|&k| d >> k != 0).unwrap_or(0);
                full[k] += 1;
            }
            let got = c.finish().flows.remove(0);
            prop_assert_ne!(got.delay_hist.last(), Some(&0), "trailing zero bucket");
            let mut padded = got.delay_hist.clone();
            padded.resize(64, 0);
            prop_assert_eq!(&padded, &full);
            let want = FlowStats {
                delay_hist: full,
                ..got.clone()
            };
            for q in [0.0, 0.5, 0.99, 1.0] {
                prop_assert_eq!(got.delay_percentile(q), want.delay_percentile(q));
            }
        }
    }
}
