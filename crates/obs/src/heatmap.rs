//! Temporal heatmap: fixed-width time slots × quantile-sketch cells,
//! with ring-buffer eviction into geometrically coarser tiers.
//!
//! [`TimeSeriesProbe`](crate::TimeSeriesProbe) keeps every grid sample
//! until a hard cap, then stops — fine for a 22-second paper run,
//! useless for the ROADMAP's long-horizon targets. The
//! [`TemporalHeatmap`] (LibreQoS `temporal_heatmap.rs` style) instead
//! holds a *constant* number of cells forever: tier 0 covers the most
//! recent `W` slots of width `Δ`; when a slot ages out of the ring it
//! is merged into tier 1 (slot width `Δ·c`), and so on for `n` tiers;
//! whatever ages past the deepest tier collapses into one absorbing
//! overflow sketch. Recent history stays sharp, old history gets
//! coarser, memory stays `O(n·W·buckets)` regardless of horizon (each
//! cell stores only its recorded value span, so that bound is a cap).
//!
//! Determinism and merge follow the same contract as
//! [`QuantileSketch`]: slot placement is pure
//! integer division of simulated time, and because `⌊⌊e/c⌋/c⌋ =
//! ⌊e/c²⌋`, data lands in the same final cell whether a run advances
//! in one jump or many. Merging two heatmaps advances both to the
//! common newest slot and adds cells pairwise — commutative,
//! associative, identity-preserving, so sharded fabric links and
//! campaign cells can each keep a private heatmap and fold them in any
//! order.

use crate::sketch::QuantileSketch;
use crate::Observer;
use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};

/// Hard ceiling on tier count (the eviction cascade uses a fixed-size
/// scratch table of this length).
pub const MAX_TIERS: usize = 8;

/// Shape of a [`TemporalHeatmap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatmapParams {
    /// Width of a tier-0 time slot; tier `t` slots are `c^t` wider.
    pub slot_width: Dur,
    /// Ring-buffer length `W` of every tier (live slots per tier).
    pub slots_per_tier: usize,
    /// Coarsening factor `c` between adjacent tiers.
    pub fanout: u64,
    /// Number of tiers `n` (1 ..= [`MAX_TIERS`]).
    pub tiers: usize,
    /// Precision bits of each cell sketch (cells are coarser than the
    /// report sketches by default — they exist for shape, not tails).
    pub precision_bits: u32,
}

impl Default for HeatmapParams {
    fn default() -> Self {
        HeatmapParams {
            slot_width: Dur::from_millis(100),
            slots_per_tier: 32,
            fanout: 8,
            tiers: 3,
            precision_bits: 3,
        }
    }
}

/// One resolution level: `W` sketch cells in a ring, `head` the newest
/// slot index this tier has reached (slot `j` lives at `j % W`; the
/// live window is `[head + 1 - W, head]`).
#[derive(Debug, Clone, PartialEq)]
struct Tier {
    slots: Vec<QuantileSketch>,
    head: u64,
}

/// Bounded-memory time × value-distribution aggregator. See the module
/// docs for the tiering scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalHeatmap {
    params: HeatmapParams,
    tiers: Vec<Tier>,
    /// Absorbs everything older than the deepest tier's window.
    overflow: QuantileSketch,
    /// Recycled eviction buffer — evicted cells swap allocations with it
    /// rather than allocating.
    scratch: QuantileSketch,
    /// Total values recorded.
    count: u64,
}

impl TemporalHeatmap {
    /// An empty heatmap with the given shape.
    // qbm-lint: cold(one-time construction; record/advance only widen cell spans)
    pub fn new(params: HeatmapParams) -> TemporalHeatmap {
        assert!(params.slot_width > Dur::ZERO, "slot width must be nonzero");
        assert!(params.slots_per_tier >= 2, "need at least 2 slots per tier");
        assert!(params.fanout >= 2, "fanout must be at least 2");
        assert!(
            (1..=MAX_TIERS).contains(&params.tiers),
            "tier count out of range: {}",
            params.tiers
        );
        let w = params.slots_per_tier;
        let cell = QuantileSketch::new(params.precision_bits);
        let tiers = (0..params.tiers)
            .map(|_| Tier {
                slots: vec![cell.clone(); w],
                head: w as u64 - 1,
            })
            .collect();
        TemporalHeatmap {
            params,
            tiers,
            overflow: cell.clone(),
            scratch: cell,
            count: 0,
        }
    }

    /// Record `v` at simulated instant `now`. O(tiers) amortized; it
    /// allocates only when a cell's value span reaches a new exponent
    /// group — a `qbm-lint` hot-path audit root.
    #[inline]
    pub fn record(&mut self, now: Time, v: u64) {
        self.count += 1;
        let w = self.params.slots_per_tier as u64;
        let mut s = now.as_nanos() / self.params.slot_width.as_nanos();
        if let Some(t0) = self.tiers.first() {
            if s > t0.head {
                self.advance_to(s);
            }
        }
        let fanout = self.params.fanout;
        let n = self.tiers.len();
        for (t, tier) in self.tiers.iter_mut().enumerate() {
            if s + w > tier.head {
                debug_assert!(s <= tier.head, "recording ahead of the advanced head");
                let Some(cell) = tier.slots.get_mut((s % w) as usize) else {
                    debug_assert!(false, "ring index out of range");
                    return;
                };
                cell.record(v);
                return;
            }
            if t + 1 < n {
                s /= fanout;
            }
        }
        self.overflow.record(v);
    }

    /// Advance tier 0 to head `new_h0`, cascading evicted slots into
    /// deeper tiers and ultimately the overflow sketch. Pure function
    /// of `new_h0` — every head is derived from it, which is what makes
    /// merge order-independent.
    fn advance_to(&mut self, new_h0: u64) {
        let w = self.params.slots_per_tier as u64;
        let c = self.params.fanout;
        let n = self.tiers.len();
        debug_assert!(n <= MAX_TIERS);
        // Pass 1: target heads, shallow → deep. Tier t+1's newest slot
        // is the image of tier t's newest *evicted* slot.
        let mut targets = [0u64; MAX_TIERS];
        let mut prev = new_h0;
        for (t, tgt) in targets.iter_mut().enumerate().take(n) {
            let want = if t == 0 {
                new_h0
            } else if prev >= w {
                ((prev - w) / c).max(w - 1)
            } else {
                w - 1
            };
            // Heads never move backwards (record() only advances).
            let cur = self.tiers.get(t).map_or(w - 1, |tier| tier.head);
            *tgt = want.max(cur);
            prev = *tgt;
        }
        // Pass 2: evict, deep → shallow, so each eviction lands in a
        // tier whose window is already final.
        for t in (0..n).rev() {
            let Some(&tgt) = targets.get(t) else { continue };
            let cur = self.tiers.get(t).map_or(tgt, |tier| tier.head);
            if tgt > cur && tgt >= w {
                let lo = (cur + 1).saturating_sub(w);
                let hi = (tgt - w).min(cur);
                for e in lo..=hi {
                    self.evict(t, e);
                }
            }
            if let Some(tier) = self.tiers.get_mut(t) {
                tier.head = tgt;
            }
        }
    }

    /// Move tier `t`'s slot `e` into its resting place one or more
    /// tiers deeper (or the overflow sketch), leaving the ring cell
    /// empty for reuse.
    fn evict(&mut self, t: usize, e: u64) {
        let w = self.params.slots_per_tier as u64;
        let c = self.params.fanout;
        {
            let Some(tier) = self.tiers.get_mut(t) else {
                debug_assert!(false, "evicting from a missing tier");
                return;
            };
            let Some(cell) = tier.slots.get_mut((e % w) as usize) else {
                debug_assert!(false, "ring index out of range");
                return;
            };
            if cell.count() == 0 {
                return;
            }
            core::mem::swap(cell, &mut self.scratch);
        }
        let n = self.tiers.len();
        let mut d = e;
        for u in t + 1..n {
            d /= c;
            let Some(tier) = self.tiers.get_mut(u) else {
                break;
            };
            if d + w > tier.head && d <= tier.head {
                if let Some(cell) = tier.slots.get_mut((d % w) as usize) {
                    cell.absorb(&self.scratch);
                    self.scratch.reset_counts();
                    return;
                }
            }
        }
        self.overflow.absorb(&self.scratch);
        self.scratch.reset_counts();
    }

    /// Fold `other` into `self`: both operands are advanced to the
    /// common newest tier-0 slot (normalizing their tier windows), then
    /// cells merge pairwise and the overflows add. Commutative and
    /// associative; an empty heatmap is the identity. Panics on shape
    /// mismatch.
    pub fn merge(&mut self, other: &TemporalHeatmap) {
        assert_eq!(
            self.params, other.params,
            "merging heatmaps of different shape"
        );
        let h0 = self
            .tiers
            .first()
            .map_or(0, |t| t.head)
            .max(other.tiers.first().map_or(0, |t| t.head));
        self.advance_to(h0);
        let mut o = other.clone();
        o.advance_to(h0);
        for (a, b) in self.tiers.iter_mut().zip(o.tiers.iter()) {
            debug_assert_eq!(a.head, b.head, "advance_to left heads unaligned");
            for (x, y) in a.slots.iter_mut().zip(b.slots.iter()) {
                x.absorb(y);
            }
        }
        self.overflow.absorb(&o.overflow);
        self.count += o.count;
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The shape this heatmap was built with.
    pub fn params(&self) -> &HeatmapParams {
        &self.params
    }

    /// Values that aged past the deepest tier (held by the overflow
    /// sketch).
    pub fn overflow_count(&self) -> u64 {
        self.overflow.count()
    }

    /// Heap + inline footprint in bytes: `(tiers · W + 2)` sketches
    /// plus the spine. Each sketch stores only its recorded span, so
    /// the total follows the value range, never the run length, and is
    /// capped at every sketch holding its full layout.
    pub fn mem_bytes(&self) -> usize {
        let cells: usize = self
            .tiers
            .iter()
            .flat_map(|t| t.slots.iter())
            .map(|s| s.mem_bytes())
            .sum();
        core::mem::size_of::<TemporalHeatmap>()
            + self.tiers.len() * core::mem::size_of::<Tier>()
            + cells
            + self.overflow.mem_bytes()
            + self.scratch.mem_bytes()
    }

    /// Visit every non-empty live cell, oldest history first: overflow
    /// (if any), then each tier deepest → shallowest, slots oldest →
    /// newest. `tier` is `None` for the overflow sketch.
    fn for_each_cell(&self, mut f: impl FnMut(Option<usize>, u64, u64, &QuantileSketch)) {
        if self.overflow.count() > 0 {
            f(None, 0, 0, &self.overflow);
        }
        let w = self.params.slots_per_tier as u64;
        for (t, tier) in self.tiers.iter().enumerate().rev() {
            let width = self.params.slot_width.as_nanos() * self.params.fanout.pow(t as u32);
            let lo = (tier.head + 1).saturating_sub(w);
            for e in lo..=tier.head {
                if let Some(cell) = tier.slots.get((e % w) as usize) {
                    if cell.count() > 0 {
                        f(Some(t), e * width, (e + 1) * width, cell);
                    }
                }
            }
        }
    }

    /// Visit every non-empty live cell for external renderers (the CLI
    /// topology heatmaps), in the same deterministic order as
    /// [`TemporalHeatmap::to_csv`]: overflow first (with `tier` =
    /// `None` and zero slot bounds), then each tier deepest →
    /// shallowest, slots oldest → newest. Arguments are
    /// `(tier, slot_start_ns, slot_end_ns, sketch)`.
    pub fn visit_cells(&self, f: impl FnMut(Option<usize>, u64, u64, &QuantileSketch)) {
        self.for_each_cell(f);
    }

    /// CSV export: one row per non-empty cell, oldest history first.
    /// The overflow sketch (everything older than the deepest tier)
    /// reports as tier `overflow` with zero slot bounds.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tier,slot_start_ns,slot_end_ns,count,p50,p90,p99,p999\n");
        self.for_each_cell(|tier, start, end, cell| {
            let label = tier.map_or_else(|| "overflow".to_string(), |t| t.to_string());
            out.push_str(&format!(
                "{label},{start},{end},{},{},{},{},{}\n",
                cell.count(),
                cell.quantile(0.50),
                cell.quantile(0.90),
                cell.quantile(0.99),
                cell.quantile(0.999),
            ));
        });
        out
    }

    /// JSON export (hand-rolled, field-ordered, deterministic — same
    /// conventions as [`TimeSeriesProbe::to_json`](crate::TimeSeriesProbe::to_json)).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"slot_width_ns\":{},\"slots_per_tier\":{},\"fanout\":{},\"tier_count\":{},\"count\":{},\"cells\":[",
            self.params.slot_width.as_nanos(),
            self.params.slots_per_tier,
            self.params.fanout,
            self.params.tiers,
            self.count,
        );
        let mut first = true;
        self.for_each_cell(|tier, start, end, cell| {
            if !first {
                out.push(',');
            }
            first = false;
            let label = tier.map_or_else(|| "\"overflow\"".to_string(), |t| t.to_string());
            out.push_str(&format!(
                "{{\"tier\":{label},\"start_ns\":{start},\"end_ns\":{end},\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                cell.count(),
                cell.quantile(0.50),
                cell.quantile(0.90),
                cell.quantile(0.99),
                cell.quantile(0.999),
            ));
        });
        out.push_str("]}");
        out
    }
}

/// An [`Observer`] that feeds three heatmaps from the event-loop hooks:
/// sojourn delay (departures), aggregate occupancy (enqueues), and
/// dropped bytes (drops). Compose it with other observers via the
/// tuple combinator.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapObserver {
    /// Packet sojourn times in nanoseconds, recorded at departure.
    pub delay: TemporalHeatmap,
    /// Post-enqueue aggregate buffer occupancy in bytes.
    pub occupancy: TemporalHeatmap,
    /// Dropped packet sizes in bytes, recorded at refusal.
    pub drops: TemporalHeatmap,
}

impl HeatmapObserver {
    /// Three empty heatmaps of the same shape.
    // qbm-lint: cold(one-time construction)
    pub fn new(params: HeatmapParams) -> HeatmapObserver {
        HeatmapObserver {
            delay: TemporalHeatmap::new(params),
            occupancy: TemporalHeatmap::new(params),
            drops: TemporalHeatmap::new(params),
        }
    }

    /// Total footprint of all three heatmaps in bytes (capped; see
    /// [`TemporalHeatmap::mem_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        self.delay.mem_bytes() + self.occupancy.mem_bytes() + self.drops.mem_bytes()
    }
}

impl Observer for HeatmapObserver {
    fn on_enqueue(
        &mut self,
        now: Time,
        _flow: FlowId,
        _len: u32,
        _flow_occ: u64,
        total_occ: u64,
        _link: u32,
    ) {
        self.occupancy.record(now, total_occ);
    }

    fn on_drop(&mut self, now: Time, _flow: FlowId, len: u32, _reason: DropReason, _link: u32) {
        self.drops.record(now, len as u64);
    }

    fn on_departure(&mut self, now: Time, _flow: FlowId, _len: u32, arrival: Time, _link: u32) {
        self.delay.record(now, now.since(arrival).as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HeatmapParams {
        HeatmapParams {
            slot_width: Dur::from_millis(1),
            slots_per_tier: 4,
            fanout: 2,
            tiers: 2,
            precision_bits: 3,
        }
    }

    fn at_ms(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn recent_values_land_in_tier_zero() {
        let mut h = TemporalHeatmap::new(tiny());
        h.record(at_ms(0), 10);
        h.record(at_ms(1), 20);
        h.record(at_ms(3), 30);
        assert_eq!(h.count(), 3);
        assert_eq!(h.overflow_count(), 0);
        let csv = h.to_csv();
        // Header plus three distinct tier-0 rows, one value each.
        assert_eq!(csv.lines().count(), 4, "{csv}");
        assert!(csv.contains("0,0,1000000,1,"));
        assert!(csv.contains("0,3000000,4000000,1,"));
    }

    #[test]
    fn aged_slots_cascade_into_coarser_tiers() {
        let mut h = TemporalHeatmap::new(tiny());
        h.record(at_ms(0), 100); // tier-0 slot 0
        h.record(at_ms(10), 200); // advances head to 10, evicts slot 0 → tier 1 slot 0
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow_count(), 0);
        let json = h.to_json();
        // Slot 0's value now sits in tier 1 (slot width 2 ms).
        assert!(
            json.contains("\"tier\":1,\"start_ns\":0,\"end_ns\":2000000,\"count\":1"),
            "{json}"
        );
    }

    #[test]
    fn ancient_history_collapses_into_overflow() {
        let mut h = TemporalHeatmap::new(tiny());
        h.record(at_ms(0), 7);
        // Jump far beyond every tier's reach: tier 1 spans 4 slots of
        // 2 ms; anything older than ~head falls through.
        h.record(at_ms(10_000), 9);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.count(), 2);
        let csv = h.to_csv();
        assert!(csv.contains("overflow,0,0,1,7,7,7,7\n"), "{csv}");
    }

    #[test]
    fn no_value_is_ever_lost() {
        let mut h = TemporalHeatmap::new(tiny());
        let mut total = 0u64;
        for i in 0..500u64 {
            h.record(at_ms(i * 3), i);
            total += 1;
        }
        let mut seen = 0u64;
        h.for_each_cell(|_, _, _, cell| seen += cell.count());
        assert_eq!(seen, total);
        assert_eq!(h.count(), total);
    }

    #[test]
    fn memory_is_run_length_independent() {
        // 2 tiers × 4 slots + overflow + scratch, each at most the full
        // (65 - 3)·2^3-bucket layout.
        let sketches = 2 * 4 + 2;
        let inline = core::mem::size_of::<QuantileSketch>();
        let group = 8 * 8;
        let mut h = TemporalHeatmap::new(tiny());
        let empty = h.mem_bytes();
        let cap = empty + sketches * QuantileSketch::bucket_count(3) * 8;
        // An empty heatmap's sketches hold no buckets.
        let spine = core::mem::size_of::<TemporalHeatmap>() + 2 * core::mem::size_of::<Tier>();
        assert_eq!(empty, spine + sketches * inline);
        // One value in [2^20, 2^21) stores exactly one group of 2^3.
        h.record(at_ms(0), 1 << 20);
        assert_eq!(h.mem_bytes(), empty + group);
        // A long run in that group stores at most one group per sketch.
        for i in 0..50_000u64 {
            h.record(at_ms(i), (1 << 20) + i % 977);
        }
        assert!(h.mem_bytes() <= empty + sketches * group);
        // A long run over a wide span stays within the full-layout cap.
        let mut h = TemporalHeatmap::new(tiny());
        for i in 0..50_000u64 {
            h.record(at_ms(i), (i % 977) << (i % 50));
        }
        assert!(h.mem_bytes() <= cap);
        for i in 50_000..500_000u64 {
            h.record(at_ms(i), (i % 977) << (i % 50));
        }
        assert!(h.mem_bytes() <= cap);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = TemporalHeatmap::new(tiny());
        let mut b = TemporalHeatmap::new(tiny());
        let mut both = TemporalHeatmap::new(tiny());
        for i in 0..300u64 {
            let (t, v) = (at_ms(i * 2), i * 31 % 500);
            if i % 2 == 0 {
                a.record(t, v);
            } else {
                b.record(t, v);
            }
            both.record(t, v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn merge_is_commutative_with_skewed_horizons() {
        let mut a = TemporalHeatmap::new(tiny());
        let mut b = TemporalHeatmap::new(tiny());
        for i in 0..40u64 {
            a.record(at_ms(i), i);
        }
        for i in 0..400u64 {
            b.record(at_ms(i), i + 1000);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut h = TemporalHeatmap::new(tiny());
        for i in 0..100u64 {
            h.record(at_ms(i * 5), i);
        }
        let before = h.clone();
        h.merge(&TemporalHeatmap::new(tiny()));
        assert_eq!(h, before);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn merge_rejects_mixed_shapes() {
        let mut a = TemporalHeatmap::new(tiny());
        a.merge(&TemporalHeatmap::new(HeatmapParams::default()));
    }

    #[test]
    fn observer_routes_hooks_to_the_right_heatmaps() {
        let mut o = HeatmapObserver::new(tiny());
        o.on_enqueue(at_ms(1), FlowId(0), 500, 500, 1500, 0);
        o.on_departure(at_ms(2), FlowId(0), 500, at_ms(1), 0);
        o.on_drop(at_ms(3), FlowId(1), 200, DropReason::BufferFull, 0);
        assert_eq!(o.occupancy.count(), 1);
        assert_eq!(o.delay.count(), 1);
        assert_eq!(o.drops.count(), 1);
        // The delay heatmap saw the 1 ms sojourn.
        assert!(o.delay.to_csv().contains(",1,"));
    }
}
