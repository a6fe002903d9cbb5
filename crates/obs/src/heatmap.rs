//! Temporal heatmap: the most recent window of fixed-width time slots,
//! one quantile-sketch cell per slot.
//!
//! [`TimeSeriesProbe`](crate::TimeSeriesProbe) keeps every grid sample
//! until a hard cap, then stops — fine for a 22-second paper run,
//! useless for the ROADMAP's long-horizon targets. The
//! [`TemporalHeatmap`] (LibreQoS `temporal_heatmap.rs` style) instead
//! holds a *constant* ring of [`SLOTS`] cells of [`SLOT_WIDTH`] each —
//! the last 3.2 s of simulated time. A record past the newest slot
//! empties the cells of the slots that leave the window and reuses
//! them, so memory stays `O(SLOTS·buckets)` whatever the horizon (each
//! cell stores only its recorded value span, so that bound is a cap).
//!
//! Slot placement is pure integer division of simulated time, so a
//! heatmap is a deterministic function of the hook sequence it saw.

use crate::sketch::QuantileSketch;
use crate::Observer;
use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};

/// Live slots in the window.
pub const SLOTS: usize = 32;

/// Width of one slot.
pub const SLOT_WIDTH: Dur = Dur::from_millis(100);

/// Precision bits of each cell sketch (cells are coarser than the
/// report sketches — they exist for shape, not tails).
pub const PRECISION_BITS: u32 = 3;

/// Bounded-memory time × value-distribution aggregator over the last
/// [`SLOTS`] slots. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalHeatmap {
    /// Slot `j` lives at `cells[j % SLOTS]`.
    cells: Vec<QuantileSketch>,
    /// Newest slot index reached; the live window is
    /// `[head + 1 - SLOTS, head]`.
    head: u64,
    /// Total values recorded.
    count: u64,
}

impl Default for TemporalHeatmap {
    fn default() -> Self {
        TemporalHeatmap::new()
    }
}

impl TemporalHeatmap {
    /// An empty heatmap whose window covers slots `0..SLOTS`.
    pub fn new() -> TemporalHeatmap {
        TemporalHeatmap {
            cells: vec![QuantileSketch::new(PRECISION_BITS); SLOTS],
            head: SLOTS as u64 - 1,
            count: 0,
        }
    }

    /// Record `v` at simulated instant `now`. O(1) amortized; it
    /// allocates only when a cell's value span reaches a new exponent
    /// group — a `qbm-lint` hot-path audit root. A value older than the
    /// window is counted but not placed (observer hooks arrive in time
    /// order, so that does not happen).
    #[inline]
    pub fn record(&mut self, now: Time, v: u64) {
        self.count += 1;
        let w = SLOTS as u64;
        let s = now.as_nanos() / SLOT_WIDTH.as_nanos();
        if s > self.head {
            // Slots `head + 1 ..= s` enter the window; the cells they
            // reuse belong to the slots leaving it.
            for e in (self.head + 1).max(s + 1 - w)..=s {
                if let Some(cell) = self.cells.get_mut((e % w) as usize) {
                    cell.reset_counts();
                }
            }
            self.head = s;
        }
        if s + w <= self.head {
            debug_assert!(false, "recording before the heatmap window");
            return;
        }
        if let Some(cell) = self.cells.get_mut((s % w) as usize) {
            cell.record(v);
        }
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Heap + inline footprint in bytes: [`SLOTS`] sketches plus the
    /// spine. Each sketch stores only its recorded span, so the total
    /// follows the value range, never the run length, and is capped at
    /// every sketch holding its full layout.
    pub fn mem_bytes(&self) -> usize {
        core::mem::size_of::<TemporalHeatmap>()
            + self.cells.iter().map(|c| c.mem_bytes()).sum::<usize>()
    }

    /// Visit every non-empty live cell, oldest slot first, as
    /// `(slot_start_ns, slot_end_ns, sketch)` — the CLI topology
    /// sparklines read the window this way.
    pub fn visit_cells(&self, mut f: impl FnMut(u64, u64, &QuantileSketch)) {
        let w = SLOTS as u64;
        let width = SLOT_WIDTH.as_nanos();
        for e in self.head + 1 - w..=self.head {
            if let Some(cell) = self.cells.get((e % w) as usize) {
                if cell.count() > 0 {
                    f(e * width, (e + 1) * width, cell);
                }
            }
        }
    }
}

/// An [`Observer`] that feeds three heatmaps from the event-loop hooks:
/// sojourn delay (departures), aggregate occupancy (enqueues), and
/// dropped bytes (drops). Compose it with other observers via the
/// tuple combinator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatmapObserver {
    /// Packet sojourn times in nanoseconds, recorded at departure.
    pub delay: TemporalHeatmap,
    /// Post-enqueue aggregate buffer occupancy in bytes.
    pub occupancy: TemporalHeatmap,
    /// Dropped packet sizes in bytes, recorded at refusal.
    pub drops: TemporalHeatmap,
}

impl HeatmapObserver {
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

    fn at_ms(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    /// `(slot_start_ms, count)` of every visited cell.
    fn cells(h: &TemporalHeatmap) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        h.visit_cells(|start, end, cell| {
            assert_eq!(end - start, SLOT_WIDTH.as_nanos());
            out.push((start / 1_000_000, cell.count()));
        });
        out
    }

    #[test]
    fn values_land_in_their_slots() {
        let mut h = TemporalHeatmap::new();
        h.record(at_ms(0), 10);
        h.record(at_ms(99), 15);
        h.record(at_ms(100), 20);
        h.record(at_ms(3_150), 30);
        assert_eq!(h.count(), 4);
        assert_eq!(cells(&h), vec![(0, 2), (100, 1), (3_100, 1)]);
    }

    #[test]
    fn advancing_empties_the_slots_that_leave_the_window() {
        let mut h = TemporalHeatmap::new();
        for ms in [0, 100, 200, 1_000] {
            h.record(at_ms(ms), ms);
        }
        // Slot 33 pushes slots 0 and 1 out; slot 2 stays live.
        h.record(at_ms(3_300), 7);
        assert_eq!(cells(&h), vec![(200, 1), (1_000, 1), (3_300, 1)]);
        // A jump past the whole window leaves only the new value.
        h.record(at_ms(60_000), 9);
        assert_eq!(cells(&h), vec![(60_000, 1)]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn window_holds_every_recent_value() {
        let mut h = TemporalHeatmap::new();
        for i in 0..5_000u64 {
            h.record(at_ms(i * 3), i);
        }
        // The window ends at slot ⌊14 997 / 100⌋ = 149, so it holds the
        // values recorded at or after slot 118 (11.8 s).
        let live: u64 = cells(&h).iter().map(|&(_, n)| n).sum();
        let expect = (0..5_000u64).filter(|i| i * 3 >= 11_800).count() as u64;
        assert_eq!(live, expect);
        assert_eq!(h.count(), 5_000);
    }

    #[test]
    fn memory_is_run_length_independent() {
        // 32 cells, each at most the full (65 - 3)·2^3-bucket layout.
        let inline = core::mem::size_of::<QuantileSketch>();
        let group = 8 * 8;
        let mut h = TemporalHeatmap::new();
        let empty = h.mem_bytes();
        let cap = empty + SLOTS * QuantileSketch::bucket_count(PRECISION_BITS) * 8;
        // An empty heatmap's sketches hold no buckets.
        assert_eq!(
            empty,
            core::mem::size_of::<TemporalHeatmap>() + SLOTS * inline
        );
        // One value in [2^20, 2^21) stores exactly one group of 2^3.
        h.record(at_ms(0), 1 << 20);
        assert_eq!(h.mem_bytes(), empty + group);
        // A long run in that group stores at most one group per sketch.
        for i in 0..50_000u64 {
            h.record(at_ms(i), (1 << 20) + i % 977);
        }
        assert!(h.mem_bytes() <= empty + SLOTS * group);
        // A long run over a wide span stays within the full-layout cap.
        let mut h = TemporalHeatmap::new();
        for i in 0..500_000u64 {
            h.record(at_ms(i), (i % 977) << (i % 50));
        }
        assert!(h.mem_bytes() <= cap);
    }

    #[test]
    fn observer_routes_hooks_to_the_right_heatmaps() {
        let mut o = HeatmapObserver::default();
        o.on_enqueue(at_ms(1), FlowId(0), 500, 500, 1500, 0);
        o.on_departure(at_ms(2), FlowId(0), 500, at_ms(1), 0);
        o.on_drop(at_ms(3), FlowId(1), 200, DropReason::BufferFull, 0);
        assert_eq!(o.occupancy.count(), 1);
        assert_eq!(o.delay.count(), 1);
        assert_eq!(o.drops.count(), 1);
        // The delay heatmap saw the 1 ms sojourn (to within 2^-3).
        let mut p50 = Vec::new();
        o.delay
            .visit_cells(|_, _, cell| p50.push(cell.quantile(0.5)));
        assert_eq!(p50.len(), 1);
        assert!((1_000_000..=1_125_000).contains(&p50[0]), "{p50:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the heatmap window")]
    fn recording_before_the_window_is_a_bug() {
        let mut h = TemporalHeatmap::new();
        h.record(at_ms(10_000), 1);
        h.record(at_ms(0), 2);
    }
}
