//! # qbm-obs — deterministic observability for the simulator
//!
//! The simulator's statistics layer (`qbm-sim::stats`) reduces a run to
//! end-of-window scalars; this crate exposes the *trajectory*: every
//! arrival, enqueue, drop (with its cause), departure, threshold
//! crossing, and hole/headroom transition, stamped with **simulated
//! time only**. Wall-clock never appears here — traces from the same
//! seed are byte-identical regardless of host load or `QBM_THREADS`.
//!
//! The [`Observer`] trait is statically dispatched: the event loop is
//! generic over `O: Observer` and every hook call is guarded by
//! `O::ENABLED`, a `const`. For [`NullObserver`] (`ENABLED = false`)
//! the guards are constant-false branches that monomorphization deletes
//! outright, so an unobserved run compiles to the same machine code as
//! the pre-instrumentation simulator. That guarantee comes from the
//! const guard alone: `Router::run` is `run_with(&mut NullObserver)`,
//! so there is no disabled-hook cost to measure (the retired
//! `obs_overhead` bench's `noop_over_baseline`, frozen in
//! `BENCH_obs.json`, read run-to-run noise).
//!
//! Every hook carries a **link id** — the index of the emitting link in
//! a multi-link fabric (`qbm-sim::fabric`). Single-router runs pass
//! link 0; observers that predate the fabric simply ignore the
//! parameter, and the JSONL trace schema emits it only in a merged
//! fabric trace ([`Tracer::merged_links_jsonl`]), keeping single-link
//! traces byte-identical to schema v1 output.
//!
//! Concrete observers:
//! - [`Tracer`] — bounded ring buffer of [`TraceRecord`]s, serialized
//!   to JSONL (schema-versioned header line, see [`record`]).
//! - [`TimeSeriesProbe`] — samples per-flow/aggregate occupancy and the
//!   sharing pools at a fixed sim-time interval, for figure-style
//!   occupancy-vs-time plots (CSV export).
//! - [`HeatmapObserver`] — bounded-memory temporal heatmaps (a ring of
//!   the last 32 × 100 ms slots, one quantile-sketch cell each) over
//!   delay, occupancy, and drops; built on [`QuantileSketch`].
//!
//! Observers compose: `(A, B)` is itself an [`Observer`] fanning every
//! hook out to both halves.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod heatmap;
pub mod probe;
pub mod record;
pub mod sketch;
pub mod tracer;

pub use heatmap::{HeatmapObserver, TemporalHeatmap};
pub use probe::{Sample, TimeSeriesProbe};
pub use record::{
    verify_trace, TraceError, TraceRecord, TraceSummary, SCHEMA_VERSION, SCHEMA_VERSION_V1,
};
pub use sketch::{QuantileSketch, SketchParams};
pub use tracer::Tracer;

use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};

/// Hook points raised by the simulation event loop.
///
/// All methods default to no-ops so an observer implements only what it
/// needs. Every timestamp is *simulated* time; implementations must not
/// read wall-clock or ambient entropy (enforced by `qbm-lint`'s
/// `wall-clock` and `obs-hygiene` rules). The trailing `link` parameter
/// identifies the emitting link of a multi-link fabric (0 for
/// single-router runs).
///
/// # Zero-cost contract
///
/// [`Observer::ENABLED`] must be a compile-time constant. Hook call
/// sites in the event loop are written `if O::ENABLED { obs.on_…(…) }`,
/// so for [`NullObserver`] the branch — and any argument computation
/// inside it — is dead code after monomorphization.
pub trait Observer {
    /// Compile-time switch: `false` removes every hook call site.
    const ENABLED: bool = true;

    /// A packet of `len` bytes from `flow` reached the router, before
    /// the admission decision.
    fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, link: u32) {
        let _ = (now, flow, len, link);
    }

    /// The packet was admitted and enqueued. `flow_occ` / `total_occ`
    /// are the post-enqueue per-flow and aggregate buffer occupancies
    /// in bytes.
    fn on_enqueue(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        flow_occ: u64,
        total_occ: u64,
        link: u32,
    ) {
        let _ = (now, flow, len, flow_occ, total_occ, link);
    }

    /// The packet was refused, with the policy's cause.
    fn on_drop(&mut self, now: Time, flow: FlowId, len: u32, reason: DropReason, link: u32) {
        let _ = (now, flow, len, reason, link);
    }

    /// A packet finished transmission. `arrival` is its enqueue
    /// instant, so `now - arrival` is the total sojourn.
    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time, link: u32) {
        let _ = (now, flow, len, arrival, link);
    }

    /// `flow` crossed its policy threshold (`up = true`: entered the
    /// over-threshold regime; `up = false`: drained back below half the
    /// threshold — the hysteresis band documented in DESIGN.md §9).
    /// `occ` is the occupancy that triggered the record, `limit` the
    /// policy threshold.
    fn on_threshold(&mut self, now: Time, flow: FlowId, occ: u64, limit: u64, up: bool, link: u32) {
        let _ = (now, flow, occ, limit, up, link);
    }

    /// The §3.3 sharing pools changed: `holes` bytes of unclaimed
    /// reserved space, `headroom` bytes of the unreserved pool.
    /// Emitted once at the start of a run (initial state) and then only
    /// on transitions.
    fn on_sharing(&mut self, now: Time, holes: u64, headroom: u64, link: u32) {
        let _ = (now, holes, headroom, link);
    }

    /// A feedback signal was routed to `flow`'s closed-loop source:
    /// `delivered = true` for a departure signal (with the packet's
    /// queueing `delay`), `delivered = false` for a loss (with its
    /// `cause`). Emitted at the link that *observed* the event, even
    /// when the owning source sits upstream in a fabric.
    #[allow(clippy::too_many_arguments)]
    fn on_feedback(
        &mut self,
        now: Time,
        flow: FlowId,
        delivered: bool,
        len: u32,
        delay: Dur,
        cause: Option<DropReason>,
        link: u32,
    ) {
        let _ = (now, flow, delivered, len, delay, cause, link);
    }

    /// The run ended (end of the simulation horizon). Gives probes a
    /// chance to flush samples up to the boundary.
    fn on_end(&mut self, end: Time, link: u32) {
        let _ = (end, link);
    }
}

/// The disabled observer: `ENABLED = false`, so instrumented event
/// loops monomorphize to exactly the un-instrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Fan-out combinator: a pair of observers is an observer. `ENABLED`
/// is the OR of the halves, so pairing with [`NullObserver`] costs
/// nothing extra for the null half.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, link: u32) {
        if A::ENABLED {
            self.0.on_arrival(now, flow, len, link);
        }
        if B::ENABLED {
            self.1.on_arrival(now, flow, len, link);
        }
    }
    fn on_enqueue(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        flow_occ: u64,
        total_occ: u64,
        link: u32,
    ) {
        if A::ENABLED {
            self.0.on_enqueue(now, flow, len, flow_occ, total_occ, link);
        }
        if B::ENABLED {
            self.1.on_enqueue(now, flow, len, flow_occ, total_occ, link);
        }
    }
    fn on_drop(&mut self, now: Time, flow: FlowId, len: u32, reason: DropReason, link: u32) {
        if A::ENABLED {
            self.0.on_drop(now, flow, len, reason, link);
        }
        if B::ENABLED {
            self.1.on_drop(now, flow, len, reason, link);
        }
    }
    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time, link: u32) {
        if A::ENABLED {
            self.0.on_departure(now, flow, len, arrival, link);
        }
        if B::ENABLED {
            self.1.on_departure(now, flow, len, arrival, link);
        }
    }
    fn on_threshold(&mut self, now: Time, flow: FlowId, occ: u64, limit: u64, up: bool, link: u32) {
        if A::ENABLED {
            self.0.on_threshold(now, flow, occ, limit, up, link);
        }
        if B::ENABLED {
            self.1.on_threshold(now, flow, occ, limit, up, link);
        }
    }
    fn on_sharing(&mut self, now: Time, holes: u64, headroom: u64, link: u32) {
        if A::ENABLED {
            self.0.on_sharing(now, holes, headroom, link);
        }
        if B::ENABLED {
            self.1.on_sharing(now, holes, headroom, link);
        }
    }
    fn on_feedback(
        &mut self,
        now: Time,
        flow: FlowId,
        delivered: bool,
        len: u32,
        delay: Dur,
        cause: Option<DropReason>,
        link: u32,
    ) {
        if A::ENABLED {
            self.0
                .on_feedback(now, flow, delivered, len, delay, cause, link);
        }
        if B::ENABLED {
            self.1
                .on_feedback(now, flow, delivered, len, delay, cause, link);
        }
    }
    fn on_end(&mut self, end: Time, link: u32) {
        if A::ENABLED {
            self.0.on_end(end, link);
        }
        if B::ENABLED {
            self.1.on_end(end, link);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_observer_is_disabled() {
        // The constants ARE the test: `ENABLED` is what the router's
        // `if O::ENABLED` guards monomorphize on.
        assert!(!NullObserver::ENABLED);
        assert!(!<(NullObserver, NullObserver) as Observer>::ENABLED);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn pair_enabled_is_or_of_halves() {
        assert!(<(Tracer, NullObserver) as Observer>::ENABLED);
        assert!(<(NullObserver, Tracer) as Observer>::ENABLED);
    }

    #[test]
    fn pair_fans_out_to_both_halves() {
        let mut pair = (Tracer::new(16), Tracer::new(16));
        let t = Time::from_secs(1);
        pair.on_arrival(t, FlowId(0), 500, 3);
        pair.on_enqueue(t, FlowId(0), 500, 500, 500, 3);
        pair.on_drop(t, FlowId(1), 500, DropReason::OverThreshold, 3);
        pair.on_departure(t, FlowId(0), 500, Time::ZERO, 3);
        pair.on_threshold(t, FlowId(1), 900, 800, true, 3);
        pair.on_sharing(t, 100, 200, 3);
        pair.on_feedback(
            t,
            FlowId(1),
            false,
            500,
            Dur::ZERO,
            Some(DropReason::BufferFull),
            3,
        );
        pair.on_end(t, 3);
        let kinds = |tr: &Tracer| tr.records().map(TraceRecord::kind).collect::<Vec<_>>();
        let all = ["arr", "enq", "drop", "dep", "thr", "share", "fb"];
        assert_eq!(kinds(&pair.0), all);
        assert_eq!(kinds(&pair.1), all);
        assert!(pair.0.records().all(|r| r.link() == 3));
    }
}
