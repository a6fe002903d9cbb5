//! Per-worker allocation pool for campaign cells.
//!
//! A [`Campaign`](crate::Campaign) grid runs thousands of short cells;
//! before this pool each cell paid a fresh set of heap allocations for
//! the router's per-flow lanes and the event core's tournament vectors.
//! [`SimArena`] keeps those buffers alive between cells: a cell checks
//! them out (cleared, capacity intact), runs, and stows them back.
//! One arena belongs to exactly one worker thread — arenas are never
//! shared, so pooling cannot perturb results. The determinism suite
//! asserts pooled campaigns stay byte-identical to fresh-allocation
//! runs at 1 and 8 threads.
//!
//! Out of scope: the statistics vectors. [`SimResult`] *is* the
//! returned value — its `flows`/histogram storage leaves the cell with
//! the result, so there is nothing to recycle.
//!
//! [`SimResult`]: crate::stats::SimResult

use crate::event::IndexedTimers;
use crate::router::FlowLanes;
use qbm_traffic::SourceKind;

/// Reusable simulation buffers for one campaign worker.
///
/// Construct once per worker ([`SimArena::new`] / `Default`), then pass
/// to [`ExperimentConfig::run_once_pooled`] for every cell the worker
/// executes. A fresh arena is always valid — the first checkout simply
/// allocates.
///
/// [`ExperimentConfig::run_once_pooled`]: crate::ExperimentConfig::run_once_pooled
#[derive(Debug, Default)]
pub struct SimArena {
    /// Spent source slots (cleared on checkout; the `Vec` header and
    /// capacity survive, the per-source state does not).
    sources: Vec<SourceKind>,
    /// Pending-emission lane (`router::FlowLanes::pending`).
    pending: Vec<Option<u32>>,
    /// Over-threshold observer lane (`router::FlowLanes::over`).
    over: Vec<bool>,
    /// Packed slot keys of the indexed event core.
    timer_slots: Vec<u128>,
    /// Tournament-tree vector of the indexed event core.
    timer_win: Vec<u32>,
}

impl SimArena {
    /// An empty arena; buffers materialize on first use.
    pub fn new() -> SimArena {
        SimArena::default()
    }

    /// Check out lanes and an event core for an `n`-flow cell. The
    /// lanes come back with `pending`/`over` sized and zeroed and an
    /// **empty** `sources` vector — the caller fills it (one source per
    /// flow) before building the router.
    pub(crate) fn checkout(&mut self, n: usize) -> (FlowLanes, IndexedTimers) {
        let mut sources = std::mem::take(&mut self.sources);
        sources.clear();
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.resize(n, None);
        let mut over = std::mem::take(&mut self.over);
        over.clear();
        over.resize(n, false);
        let timers = IndexedTimers::from_recycled(
            n,
            std::mem::take(&mut self.timer_slots),
            std::mem::take(&mut self.timer_win),
        );
        (
            FlowLanes {
                sources,
                pending,
                meters: None,
                over,
            },
            timers,
        )
    }

    /// Return a finished cell's buffers to the pool.
    pub(crate) fn stow(&mut self, lanes: FlowLanes, timers: IndexedTimers) {
        self.sources = lanes.sources;
        self.sources.clear();
        self.pending = lanes.pending;
        self.over = lanes.over;
        let (slots, win) = timers.into_parts();
        self.timer_slots = slots;
        self.timer_win = win;
    }
}
