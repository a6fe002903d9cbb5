//! The simulated router: admission policy × scheduler × output link.
//!
//! The event loop is the whole simulator:
//!
//! 1. **Arrival(flow)** — the policy admits or drops the packet; an
//!    admitted packet goes to the scheduler, and the link starts
//!    transmitting if idle. The flow's next emission is pulled from its
//!    source and scheduled.
//! 2. **Departure** — the in-flight packet completes: the policy
//!    releases its buffer bytes, stats record the delivery, and the
//!    scheduler (if backlogged) hands over the next packet.
//!
//! Ties process departures first (see [`crate::event`]), matching the
//! fluid-model convention that a departing bit frees space for a
//! simultaneous arrival.
//!
//! The loop is written to be allocation-free per event: sources sit in
//! a [`SourceKind`] enum (inlined dispatch, no vtable), per-flow state
//! lives in the SoA `FlowLanes` arrays, and events come from the
//! [`IndexedTimers`] tournament tree. The dev-only `qbm-oracle`
//! package runs the same loop on its reference heap through
//! [`Router::run_on`]. The `hot-path-alloc` qbm-lint rule enforces the
//! no-allocation property on `LinkEngine::advance`/`start_transmission`
//! going forward.

use crate::event::{Event, EventCore, IndexedTimers, Outbox};
use crate::stats::{SimResult, StatsCollector, StatsConfig};
use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::{BufferPolicy, DropReason, Verdict};
use qbm_core::token_bucket::TokenBucket;
use qbm_core::units::{Dur, Rate, Time};
use qbm_obs::{NullObserver, Observer};
use qbm_sched::{PacketRef, Scheduler};
use qbm_traffic::{Feedback, Source, SourceKind};

/// Where one kind of feedback signal goes (see DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// No signal.
    Off,
    /// The owning source sits on this link: apply the signal in place.
    Local,
    /// The owning source sits on an upstream link: buffer the signal
    /// for the fabric's end-of-epoch drain.
    Remote,
}

/// How one flow's feedback signals are routed (see DESIGN.md §16):
/// where a drop's loss signal goes and where a departure's delivery
/// signal goes. Computed once at engine construction from the sources'
/// declared reactivity; the fabric overrides relay flows that carry a
/// closed-loop origin's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FeedbackMode {
    /// Where `Lost` goes.
    pub(crate) lost: Leg,
    /// Where `Delivered` goes: [`Leg::Off`] on every hop of a
    /// multi-hop path but the last.
    pub(crate) delivered: Leg,
}

/// A buffered cross-link feedback signal. `flow` is the *local* flow
/// index on the link that observed the event; the fabric maps it to
/// the origin link's flow before applying.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FbEvent {
    pub(crate) flow: FlowId,
    pub(crate) fb: Feedback,
}

/// Per-flow event-loop state, struct-of-arrays for locality: the inner
/// loop touches `sources[i]` and `pending[i]` on every arrival, and the
/// optional meter/observer lanes only when enabled — keeping each
/// array dense and contiguous instead of scattering the fields across
/// one large per-flow record.
///
/// The sourced flows come first; any relay flows follow them and have
/// no source lane at all (their packets arrive through fabric
/// departure logs), so `sources`/`pending` span the sourced flows and
/// `over` spans every flow.
struct FlowLanes {
    /// `sources[i]` feeds `FlowId(i)` (enum-dispatched, inlined).
    sources: Vec<SourceKind>,
    /// Length of flow `i`'s pending (scheduled but not yet arrived)
    /// emission; the router's pull discipline keeps at most one.
    pending: Vec<Option<u32>>,
    /// Optional `(σ, ρ)` conformance meters (Remark 1 green/red
    /// marking). Meters observe only — they never influence admission.
    meters: Option<Vec<TokenBucket>>,
    /// Observer state: per-flow over-threshold regime (hysteresis —
    /// see DESIGN.md §9). Only read/written when `O::ENABLED`.
    over: Vec<bool>,
}

impl FlowLanes {
    /// Sourced plus relay flows: `over` is the lane spanning both.
    fn n_flows(&self) -> usize {
        self.over.len()
    }

    /// Schedule one pending emission per source with a timer slot in
    /// `events` (relay flows have none: their packets come from
    /// departure logs) — the priming pass of the pull discipline.
    fn prime<E: EventCore>(&mut self, events: &mut E) {
        let timed = events.flow_slots();
        let first = self
            .sources
            .iter_mut()
            .zip(self.pending.iter_mut())
            .take(timed)
            .enumerate()
            .filter_map(|(i, (source, pending))| {
                let e = source.next_emission()?;
                *pending = Some(e.len);
                Some((FlowId(i as u32), e.time))
            });
        events.schedule_arrivals(first);
    }

    /// The pull step of the pull discipline: flow `f`'s pending
    /// emission arrives now, so pull the source's next one. Returns the
    /// arriving emission's length and the next emission's instant
    /// (`None` once the source is exhausted).
    #[inline]
    fn pull(&mut self, f: usize) -> (u32, Option<Time>) {
        let (Some(source), Some(pending)) = (self.sources.get_mut(f), self.pending.get_mut(f))
        else {
            debug_assert!(false, "pull of a flow without a source");
            return (0, None);
        };
        let Some(len) = *pending else {
            debug_assert!(false, "arrival without pending emission");
            return (0, None);
        };
        let next = source.next_emission();
        *pending = next.map(|e| e.len);
        (len, next.map(|e| e.time))
    }
}

/// A single-output-link router under simulation.
///
/// Its flows are the sourced flows `0..sources.len()`, each pulling
/// packets from its own [`SourceKind`], followed by any relay flows
/// ([`Router::relaying`]): source-less flows whose packets a
/// [`Fabric`](crate::Fabric) delivers from an upstream link's
/// departure log. A relay flow costs per-flow statistics and
/// scheduler/policy state only — no source slot, no timer slot.
///
/// Generic over the admission policy and scheduler so concrete types
/// monomorphize to static dispatch; the defaults are trait objects, and
/// the blanket `impl … for Box<…>` in `qbm-core`/`qbm-sched` keeps every
/// pre-existing `Box<dyn …>` call site compiling unchanged.
pub struct Router<P = Box<dyn BufferPolicy>, S = Box<dyn Scheduler>>
where
    P: BufferPolicy,
    S: Scheduler,
{
    link_rate: Rate,
    policy: P,
    scheduler: S,
    lanes: FlowLanes,
    /// Streaming-statistics attachments for the collector (sketches).
    stats_cfg: StatsConfig,
}

impl<P, S> Router<P, S>
where
    P: BufferPolicy,
    S: Scheduler,
{
    /// Number of flows this router multiplexes, sourced and relay.
    pub(crate) fn n_flows(&self) -> usize {
        self.lanes.n_flows()
    }

    /// Whether flow `flow` has a source (relay flows have none).
    pub(crate) fn flow_has_source(&self, flow: usize) -> bool {
        flow < self.lanes.sources.len()
    }

    /// Whether flow `flow`'s source reacts to feedback — the fabric's
    /// probe for wiring closed-loop signal paths. A relay flow has no
    /// source, so it never does.
    pub(crate) fn flow_is_closed_loop(&self, flow: usize) -> bool {
        self.lanes
            .sources
            .get(flow)
            .is_some_and(SourceKind::is_closed_loop)
    }

    /// Whether a departure log may feed flow `flow`: it is a relay flow
    /// (no source) or is backed by a replay source — the empty stub
    /// form of a relay flow, still accepted.
    pub(crate) fn flow_is_trace_fed(&self, flow: usize) -> bool {
        self.lanes
            .sources
            .get(flow)
            .is_none_or(|s| matches!(s, SourceKind::Trace(_)))
    }

    /// Assemble a router. `sources[i]` feeds `FlowId(i)`.
    ///
    /// Accepts anything convertible into [`SourceKind`], so concrete
    /// source types dispatch through an inlinable enum.
    pub fn new<K: Into<SourceKind>>(
        link_rate: Rate,
        policy: P,
        scheduler: S,
        sources: Vec<K>,
    ) -> Router<P, S> {
        Router::relaying(link_rate, policy, scheduler, sources, 0)
    }

    /// Assemble a router whose sourced flows (`sources[i]` feeds
    /// `FlowId(i)`) are followed by `relays` relay flows, numbered
    /// `sources.len()..sources.len() + relays`. A relay flow has no
    /// source: its packets come only from the departure log of the
    /// fabric edge [`Fabric::connect`](crate::Fabric::connect) wires
    /// into it, and a fabric run rejects a relay flow left unwired.
    /// Run on its own, a router's relay flows carry no traffic.
    pub fn relaying<K: Into<SourceKind>>(
        link_rate: Rate,
        policy: P,
        scheduler: S,
        sources: Vec<K>,
        relays: usize,
    ) -> Router<P, S> {
        assert!(link_rate.bps() > 0, "zero link rate");
        let n = sources.len();
        assert!(n + relays > 0, "no flows");
        Router {
            link_rate,
            policy,
            scheduler,
            lanes: FlowLanes {
                sources: sources.into_iter().map(Into::into).collect(),
                pending: vec![None; n],
                meters: None,
                over: vec![false; n + relays],
            },
            stats_cfg: StatsConfig::default(),
        }
    }

    /// Move the sourced flows' sources out (and free their `pending`
    /// lane), leaving the router with no source to pull: a fabric
    /// source stage pulls them ahead of the link instead, feeding the
    /// link's event loop through a log slot.
    pub(crate) fn take_sources(&mut self) -> Vec<SourceKind> {
        self.lanes.pending = Vec::new();
        std::mem::take(&mut self.lanes.sources)
    }

    /// Attach streaming-statistics collection (delay/occupancy quantile
    /// sketches) to every run of this router. The default is off: a
    /// plain run produces byte-identical results to the pre-sketch
    /// simulator.
    pub fn with_stats(mut self, cfg: StatsConfig) -> Router<P, S> {
        self.stats_cfg = cfg;
        self
    }

    /// Attach `(σ, ρ)` conformance meters (one per flow, from the
    /// specs' declared envelopes). Arriving packets are marked *green*
    /// when they fit the envelope, *red* otherwise — the coloring of
    /// the paper's Remark 1. Marking is observational: admission
    /// decisions are unchanged; statistics gain the green counters.
    pub fn with_meters(mut self, specs: &[FlowSpec]) -> Router<P, S> {
        assert_eq!(specs.len(), self.n_flows(), "one meter per flow");
        self.lanes.meters = Some(
            specs
                .iter()
                .map(|s| TokenBucket::new(s.bucket_bytes, s.token_rate))
                .collect(),
        );
        self
    }

    /// Run until `end`, measuring from `warmup` on. Returns the
    /// per-flow statistics for the window `[warmup, end)`.
    pub fn run(self, warmup: Time, end: Time, seed: u64) -> SimResult {
        self.run_with(warmup, end, seed, &mut NullObserver)
    }

    /// Like [`Router::run`], with every event-loop hook fanned out to
    /// `obs` (see [`qbm_obs::Observer`]). Hook call sites are guarded
    /// by `O::ENABLED`, so running with [`NullObserver`] monomorphizes
    /// to the un-instrumented loop — [`Router::run`] is exactly that.
    pub fn run_with<O: Observer>(
        self,
        warmup: Time,
        end: Time,
        seed: u64,
        obs: &mut O,
    ) -> SimResult {
        let events = IndexedTimers::with_flows(self.lanes.sources.len());
        self.run_inner(warmup, end, seed, obs, events)
    }

    /// Like [`Router::run`], on the event core `events` instead of a
    /// fresh [`IndexedTimers`]: the seam through which a differential
    /// test runs the unchanged event loop on another [`EventCore`].
    /// `events` must be empty and sized for the router's sourced flows
    /// ([`EventCore::with_flows`]).
    pub fn run_on<E: EventCore>(self, warmup: Time, end: Time, seed: u64, events: E) -> SimResult {
        self.run_inner(warmup, end, seed, &mut NullObserver, events)
    }

    /// The event loop, generic over observer and event core. The
    /// caller supplies `events`, empty and sized for `sources.len()`
    /// flows, and gets the run's statistics back.
    ///
    /// The loop itself lives in [`LinkEngine`]: a single-link run is
    /// one engine primed and advanced to `end` in a single epoch, while
    /// the fabric (`crate::fabric`) advances many engines in bounded
    /// log-handoff epochs. Either way the event sequence is identical.
    fn run_inner<O: Observer, E: EventCore>(
        self,
        warmup: Time,
        end: Time,
        seed: u64,
        obs: &mut O,
        events: E,
    ) -> SimResult {
        let mut engine = LinkEngine::new(self, warmup, end, seed, None, events, 0);
        engine.prime(obs);
        engine.advance(end, obs);
        engine.finish(obs)
    }
}

/// A resumable single-link event loop: [`Router`] state plus its
/// in-progress run (statistics window, event core, departure logs).
///
/// `Router::run_inner` used to own this loop start-to-finish; the
/// fabric needs to *pause* a link at an epoch horizon, hand its
/// departure logs to downstream links, and resume — so the loop
/// state lives in a struct and [`LinkEngine::advance`] processes
/// exactly the events strictly before a caller-chosen horizon.
/// Peeking before popping keeps a horizon-straddling event (and its
/// flow's source) untouched for the next epoch; with the horizon at
/// `end` the processed event sequence is identical to the historical
/// pop-then-break loop, because the event a pop would have discarded
/// at `end` never reached statistics or observers anyway.
///
/// Invariant the cores rely on: each flow has at most one pending
/// arrival (pull discipline) and the link at most one pending
/// departure.
pub(crate) struct LinkEngine<P, S, E = IndexedTimers>
where
    P: BufferPolicy,
    S: Scheduler,
    E: EventCore,
{
    link_rate: Rate,
    policy: P,
    scheduler: S,
    lanes: FlowLanes,
    in_flight: Option<PacketRef>,
    seq: u64,
    /// Per-flow statistics. An empty placeholder until
    /// [`LinkEngine::prime`] builds the collector, so a fabric link
    /// holds them only from its first epoch on.
    stats: StatsCollector,
    /// What `prime` builds `stats` from: warmup, seed and attachments.
    stats_init: (Time, u64, StatsConfig),
    /// Departure logs (`Some` = this link feeds downstream fabric
    /// links).
    pub(crate) outbox: Option<Outbox>,
    /// Transmission time of the last packet length sent: consecutive
    /// packets mostly share a length, so the division is paid once per
    /// change of length, not once per departure.
    tx_memo: (u32, Dur),
    /// Conservation ledger (debug builds): bytes admitted and not yet
    /// departed, independently of the policy's own accounting. Any
    /// drift between the two is a silent buffer leak.
    queued_bytes: u64,
    /// Observer state: the last reported sharing pools, so `share`
    /// records are emitted only on transitions (the per-flow leg
    /// lives in `lanes.over`). None when the observer is disabled.
    prev_sharing: Option<(u64, u64)>,
    /// Per-flow feedback routing, allocated only on a link that carries
    /// a closed-loop flow (or at the fabric's first override): empty on
    /// an open-loop link, where every lookup misses to [`Leg::Off`], so
    /// the hot arms pay one predictable branch and no per-flow memory.
    fb_modes: Vec<FeedbackMode>,
    /// Cross-link feedback buffer: the signals of [`Leg::Remote`]
    /// flows, drained in place by the fabric each epoch.
    pub(crate) fb_out: Vec<FbEvent>,
    pub(crate) events: E,
    end: Time,
    /// This link's index in its fabric (0 for single-router runs),
    /// forwarded on every observer hook.
    link: u32,
}

impl<P, S, E> LinkEngine<P, S, E>
where
    P: BufferPolicy,
    S: Scheduler,
    E: EventCore,
{
    /// Wrap a router into a paused engine measuring `[warmup, end)`.
    /// `outbox: Some(..)` enables departure recording.
    pub(crate) fn new(
        router: Router<P, S>,
        warmup: Time,
        end: Time,
        seed: u64,
        outbox: Option<Outbox>,
        events: E,
        link: u32,
    ) -> LinkEngine<P, S, E> {
        let n = router.n_flows();
        // A source that reacts to feedback gets the full local loop by
        // default (drops *and* deliveries signalled on this link); the
        // fabric rewires multi-hop flows after construction.
        let mode = |f| {
            let leg = if router.flow_is_closed_loop(f) {
                Leg::Local
            } else {
                Leg::Off
            };
            FeedbackMode {
                lost: leg,
                delivered: leg,
            }
        };
        let fb_modes = if (0..n).any(|f| router.flow_is_closed_loop(f)) {
            // qbm-lint: allow(hot-path-alloc) — once per link at construction, before the event loop starts
            (0..n).map(mode).collect()
        } else {
            Vec::new()
        };
        LinkEngine {
            link_rate: router.link_rate,
            policy: router.policy,
            scheduler: router.scheduler,
            lanes: router.lanes,
            in_flight: None,
            seq: 0,
            stats: StatsCollector::empty(0, seed),
            stats_init: (warmup, seed, router.stats_cfg),
            outbox,
            tx_memo: (0, Dur::ZERO),
            queued_bytes: 0,
            prev_sharing: None,
            fb_modes,
            fb_out: Vec::new(),
            events,
            end,
            link,
        }
    }

    /// Build the per-flow statistics, emit the initial sharing state
    /// and schedule one pending emission per source with a timer slot
    /// (relay flows have none: their packets come from departure logs).
    /// Call exactly once, before the first `advance`, on the thread
    /// that owns the run: an allocation made on a scoped shard thread
    /// would stay in that thread's malloc arena after it ends.
    pub(crate) fn prime<O: Observer>(&mut self, obs: &mut O) {
        let (warmup, seed, cfg) = self.stats_init;
        self.stats = StatsCollector::with_config(self.lanes.n_flows(), warmup, self.end, seed, cfg);
        if O::ENABLED {
            self.report_sharing(obs, Time::ZERO);
        }
        self.lanes.prime(&mut self.events);
    }

    /// Process every pending event with time strictly before `horizon`,
    /// then pause. Resumable: the fabric calls this once per epoch with
    /// an increasing horizon; a single-link run calls it once with
    /// `horizon = end`.
    pub(crate) fn advance<O: Observer>(&mut self, horizon: Time, obs: &mut O) {
        let horizon = horizon.min(self.end);
        // Fused pop: when the popped event is an arrival, the flow's
        // next emission is pulled *inside* the core — on the
        // [`IndexedTimers`] fast path the refill time lands straight in
        // the popped slot and the tournament path replays once instead
        // of twice (empty-then-refill). `arrived_len` carries the
        // popped emission's length out of the closure.
        let mut arrived_len: u32 = 0;
        loop {
            match self.events.peek_time() {
                Some(t) if t < horizon => {}
                _ => break,
            }
            let lanes = &mut self.lanes;
            let popped = self.events.pop_refill(|flow| {
                let (len, next) = lanes.pull(flow.index());
                arrived_len = len;
                next
            });
            let Some((now, ev)) = popped else { break };
            let arrival = match ev {
                Event::Arrival(flow) => Some((flow, arrived_len)),
                Event::Relay(flow, len) => Some((flow, len)),
                Event::Departure => None,
            };
            match arrival {
                Some((flow, len)) => {
                    if O::ENABLED {
                        obs.on_arrival(now, flow, len, self.link);
                    }
                    // Remark-1 coloring: a packet is green iff it fits
                    // the flow's declared envelope at this instant
                    // (consuming meter tokens only when it does).
                    let green = match self.lanes.meters.as_mut() {
                        Some(m) => m
                            .get_mut(flow.index())
                            .is_none_or(|m| m.try_consume(now, len as u64)),
                        None => true,
                    };
                    self.stats.on_color(now, flow, len, green);
                    let q_before = if O::ENABLED || self.stats.sketching() {
                        self.policy.flow_occupancy(flow)
                    } else {
                        0
                    };
                    match self.policy.admit(flow, len) {
                        Verdict::Admit => {
                            self.queued_bytes += len as u64;
                            self.stats.on_arrival(now, flow, len, None);
                            if self.stats.sketching() {
                                self.stats.on_occupancy(
                                    now,
                                    flow,
                                    q_before + len as u64,
                                    self.policy.total_occupancy(),
                                );
                            }
                            if O::ENABLED {
                                let q_after = q_before + len as u64;
                                obs.on_enqueue(
                                    now,
                                    flow,
                                    len,
                                    q_after,
                                    self.policy.total_occupancy(),
                                    self.link,
                                );
                                // Upward crossing via a sharing borrow:
                                // occupancy lands above the threshold.
                                self.report_over(obs, now, flow, q_after, false);
                            }
                            let pkt = PacketRef {
                                flow,
                                len,
                                arrival: now,
                                seq: self.seq,
                                green,
                            };
                            self.seq += 1;
                            self.scheduler.enqueue(now, pkt);
                            if self.in_flight.is_none() {
                                self.start_transmission(now);
                            }
                        }
                        Verdict::Drop(reason) => {
                            self.stats.on_arrival(now, flow, len, Some(reason));
                            // The loss leg of the signal path: tell the
                            // owning source (or buffer for the fabric)
                            // why admission refused its packet.
                            let leg = self.fb_modes.get(flow.index()).map_or(Leg::Off, |m| m.lost);
                            if leg != Leg::Off {
                                let fb = Feedback::Lost { cause: reason };
                                self.signal(obs, leg, now, flow, len, fb);
                            }
                            if O::ENABLED {
                                obs.on_drop(now, flow, len, reason, self.link);
                                // Upward crossing via refusal at the limit.
                                if matches!(
                                    reason,
                                    DropReason::OverThreshold | DropReason::NoSharedSpace
                                ) {
                                    self.report_over(obs, now, flow, q_before + len as u64, true);
                                }
                            }
                        }
                    }
                    if O::ENABLED {
                        self.report_sharing(obs, now);
                    }
                }
                None => {
                    let Some(pkt) = self.in_flight.take() else {
                        debug_assert!(false, "departure with idle link");
                        continue;
                    };
                    self.queued_bytes -= pkt.len as u64;
                    self.policy.release(pkt.flow, pkt.len);
                    self.stats
                        .on_departure_colored(now, pkt.flow, pkt.len, pkt.arrival, pkt.green);
                    if self.stats.sketching() {
                        self.stats.on_occupancy(
                            now,
                            pkt.flow,
                            self.policy.flow_occupancy(pkt.flow),
                            self.policy.total_occupancy(),
                        );
                    }
                    if O::ENABLED {
                        obs.on_departure(now, pkt.flow, pkt.len, pkt.arrival, self.link);
                        // Downward crossing once the flow drains to
                        // half its threshold (hysteresis: one record
                        // per sustained over-threshold episode).
                        if let Some(limit) = self.policy.threshold(pkt.flow) {
                            let q = self.policy.flow_occupancy(pkt.flow);
                            let over = self.lanes.over.get_mut(pkt.flow.index());
                            if let Some(over) = over.filter(|o| **o && q <= limit / 2) {
                                *over = false;
                                obs.on_threshold(now, pkt.flow, q, limit, false, self.link);
                            }
                        }
                        self.report_sharing(obs, now);
                    }
                    if let Some(out) = self.outbox.as_mut() {
                        out.append(pkt.flow, now, pkt.len);
                    }
                    // The delivery leg of the signal path, gated per
                    // flow: only the link that terminates the path
                    // reports `Delivered` (an upstream hop's departure
                    // is just a relay).
                    let leg = self
                        .fb_modes
                        .get(pkt.flow.index())
                        .map_or(Leg::Off, |m| m.delivered);
                    if leg != Leg::Off {
                        let fb = Feedback::Delivered {
                            bytes: pkt.len,
                            delay: now.since(pkt.arrival),
                        };
                        self.signal(obs, leg, now, pkt.flow, pkt.len, fb);
                    }
                    if !self.scheduler.is_empty() {
                        self.start_transmission(now);
                    }
                }
            }
            // Occupancy conservation: the policy's idea of the buffer
            // must equal Σ queued packet sizes (incl. the in-flight
            // packet, whose bytes are released only at departure), and
            // must never exceed B.
            debug_assert_eq!(
                self.policy.total_occupancy(),
                self.queued_bytes,
                "policy occupancy drifted from queued bytes"
            );
            debug_assert!(
                self.policy.total_occupancy() <= self.policy.capacity(),
                "policy occupancy above capacity"
            );
        }
        if horizon >= self.end {
            self.stats.seal();
        }
    }

    /// Report one feedback signal about flow `flow`'s `len`-byte packet
    /// to the observer, then send it along `leg`: applied in place
    /// ([`Leg::Local`]) or buffered for the fabric ([`Leg::Remote`]).
    /// Callers check `leg` before building `fb`, so an open-loop flow
    /// pays one branch.
    #[inline]
    fn signal<O: Observer>(
        &mut self,
        obs: &mut O,
        leg: Leg,
        now: Time,
        flow: FlowId,
        len: u32,
        fb: Feedback,
    ) {
        if O::ENABLED {
            let (ok, delay, cause) = match fb {
                Feedback::Delivered { delay, .. } => (true, delay, None),
                Feedback::Lost { cause } => (false, Dur::ZERO, Some(cause)),
            };
            obs.on_feedback(now, flow, ok, len, delay, cause, self.link);
        }
        match leg {
            Leg::Off => {}
            Leg::Local => self.apply_feedback(flow, now, fb),
            Leg::Remote => self.fb_out.push(FbEvent { flow, fb }),
        }
    }

    /// Observer leg of an upward threshold crossing: flow `flow` at
    /// occupancy `q` enters the over-threshold regime when it holds
    /// more than its limit, or when admission `refused` it at the limit
    /// (partitioned policies refuse at the boundary without ever
    /// exceeding it).
    fn report_over<O: Observer>(
        &mut self,
        obs: &mut O,
        now: Time,
        flow: FlowId,
        q: u64,
        refused: bool,
    ) {
        if let Some(limit) = self.policy.threshold(flow) {
            let Some(over) = self.lanes.over.get_mut(flow.index()) else {
                debug_assert!(false, "threshold report for an unknown flow");
                return;
            };
            if !*over && (refused || q > limit) {
                *over = true;
                obs.on_threshold(now, flow, q, limit, true, self.link);
            }
        }
    }

    /// Observer leg of the sharing pools: report the policy's
    /// holes/headroom whenever they changed since the last report.
    fn report_sharing<O: Observer>(&mut self, obs: &mut O, now: Time) {
        if let Some(state) = self.policy.sharing_state() {
            if self.prev_sharing != Some(state) {
                self.prev_sharing = Some(state);
                obs.on_sharing(now, state.0, state.1, self.link);
            }
        }
    }

    /// Route one feedback signal to flow `flow`'s owning source at
    /// instant `now`: the source updates its window, an RTO request
    /// pushes the flow's pending [`IndexedTimers`] slot out to the
    /// backoff instant, and a window-blocked flow (parked with no
    /// pending arrival by the pull discipline) is re-armed from its
    /// next emission. Allocation-free: two slot updates at most.
    #[inline]
    pub(crate) fn apply_feedback(&mut self, flow: FlowId, now: Time, fb: Feedback) {
        let f = flow.index();
        let (Some(source), Some(pending)) =
            (self.lanes.sources.get_mut(f), self.lanes.pending.get_mut(f))
        else {
            debug_assert!(false, "feedback for a flow without a source");
            return;
        };
        if let Some(at_least) = source.on_feedback(now, fb) {
            self.events.delay_arrival(flow, at_least);
        }
        if pending.is_none() {
            if let Some(e) = source.next_emission() {
                debug_assert!(e.time >= now, "source emitted into the past");
                *pending = Some(e.len);
                self.events.schedule_arrival(flow, e.time);
            }
        }
    }

    /// Override flow `flow`'s feedback routing — fabric wiring for
    /// multi-hop closed-loop paths (cold, construction time). The first
    /// override on a link without closed-loop flows allocates its lane,
    /// every other flow [`Leg::Off`].
    pub(crate) fn set_feedback_mode(&mut self, flow: FlowId, mode: FeedbackMode) {
        if self.fb_modes.is_empty() {
            let off = FeedbackMode {
                lost: Leg::Off,
                delivered: Leg::Off,
            };
            self.fb_modes = vec![off; self.lanes.n_flows()];
        }
        match self.fb_modes.get_mut(flow.index()) {
            Some(m) => *m = mode,
            None => debug_assert!(false, "feedback mode of an unknown flow"),
        }
    }

    /// Close the run: final observer flush and statistics reduction.
    pub(crate) fn finish<O: Observer>(self, obs: &mut O) -> SimResult {
        if O::ENABLED {
            obs.on_end(self.end, self.link);
        }
        let mut result = self.stats.finish();
        // Harvest closed-loop counters; open-loop runs leave the field
        // `None` so their Debug rendering (and goldens) are unchanged.
        let aimd: Vec<(u32, qbm_traffic::AimdStats)> = self
            .lanes
            .sources
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_aimd().map(|a| (i as u32, a.stats())))
            // qbm-lint: allow(hot-path-alloc) — once per run at teardown, after the event loop ends
            .collect();
        if !aimd.is_empty() {
            result.aimd = Some(aimd);
        }
        result
    }

    fn start_transmission(&mut self, now: Time) {
        debug_assert!(self.in_flight.is_none());
        if let Some(pkt) = self.scheduler.dequeue(now) {
            if pkt.len != self.tx_memo.0 {
                self.tx_memo = (pkt.len, self.link_rate.transmission_time(pkt.len as u64));
            }
            let done = now + self.tx_memo.1;
            self.in_flight = Some(pkt);
            self.events.schedule_departure(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::flow::FlowSpec;
    use qbm_core::policy::{PolicyKind, SharedBuffer};
    use qbm_core::units::Dur;
    use qbm_sched::Fifo;
    use qbm_traffic::{CbrSource, Emission, TraceSource};

    const LINK: Rate = Rate::from_bps(48_000_000);

    fn cbr_router(rates_mbps: &[f64], buffer: u64) -> Router {
        let sources: Vec<CbrSource> = rates_mbps
            .iter()
            .map(|&r| CbrSource::new(Rate::from_mbps(r), 500, Time::ZERO))
            .collect();
        Router::new(
            LINK,
            Box::new(SharedBuffer::new(buffer, rates_mbps.len())),
            Box::new(Fifo::new()),
            sources,
        )
    }

    #[test]
    fn underloaded_link_delivers_everything() {
        // 10 + 10 Mb/s into 48 Mb/s: zero loss, throughput = offered.
        let r = cbr_router(&[10.0, 10.0], 1 << 20);
        let res = r.run(Time::from_secs(1), Time::from_secs(11), 0);
        for f in &res.flows {
            assert_eq!(f.dropped_pkts, 0);
        }
        let thr = res.aggregate_throughput_bps();
        assert!((thr - 20e6).abs() / 20e6 < 0.01, "throughput {thr}");
    }

    #[test]
    fn overloaded_link_saturates_at_capacity() {
        // 40 + 40 Mb/s into 48 Mb/s with a small buffer: deliveries cap
        // at the link rate, the rest drops.
        let r = cbr_router(&[40.0, 40.0], 50_000);
        let res = r.run(Time::from_secs(1), Time::from_secs(11), 0);
        let thr = res.aggregate_throughput_bps();
        assert!((thr - 48e6).abs() / 48e6 < 0.01, "throughput {thr}");
        let lost: u64 = res.flows.iter().map(|f| f.dropped_pkts).sum();
        assert!(lost > 0);
    }

    #[test]
    fn conservation_offered_equals_dropped_plus_delivered_plus_queued() {
        let r = cbr_router(&[30.0, 30.0], 100_000);
        let res = r.run(Time::ZERO + Dur::from_millis(1), Time::from_secs(5), 0);
        for f in &res.flows {
            // Queued remainder bounded by buffer: offered − dropped −
            // delivered packets ≤ buffer/500 + 1 in flight.
            let queued = f.offered_pkts - f.dropped_pkts - f.delivered_pkts;
            assert!(queued <= 100_000 / 500 + 1, "queued {queued}");
        }
    }

    #[test]
    fn fifo_delay_bounded_by_buffer_drain_time() {
        let r = cbr_router(&[40.0, 40.0], 50_000);
        let res = r.run(Time::from_secs(1), Time::from_secs(6), 0);
        // Worst-case delay = (buffer + one packet) at link rate.
        let bound = LINK.transmission_time(50_000 + 500).as_nanos();
        for f in &res.flows {
            assert!(
                f.delay_max_ns <= bound,
                "delay {} above FIFO bound {}",
                f.delay_max_ns,
                bound
            );
        }
    }

    #[test]
    fn deterministic_given_seedless_sources() {
        let run = || {
            cbr_router(&[20.0, 35.0], 80_000)
                .run(Time::from_secs(1), Time::from_secs(4), 7)
                .flows
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn relay_flows_follow_the_sourced_flows() {
        // Two sourced flows plus three relay flows: every flow gets a
        // statistics lane, only the sourced ones a source, and a router
        // run on its own sends nothing on the relays.
        let sources = vec![CbrSource::new(Rate::from_mbps(10.0), 500, Time::ZERO); 2];
        let r = Router::relaying(
            LINK,
            Box::new(SharedBuffer::new(100_000, 5)),
            Box::new(Fifo::new()),
            sources,
            3,
        );
        assert_eq!(r.n_flows(), 5);
        assert!(r.flow_has_source(1) && !r.flow_has_source(2));
        assert!(!r.flow_is_trace_fed(1) && r.flow_is_trace_fed(4));
        assert!(!r.flow_is_closed_loop(4));
        let res = r.run(Time::ZERO, Time::from_secs(1), 0);
        assert_eq!(res.flows.len(), 5);
        assert!(res.flows[..2].iter().all(|f| f.delivered_pkts > 0));
        assert!(res.flows[2..].iter().all(|f| f.offered_pkts == 0));
    }

    #[test]
    fn trace_source_packets_flow_through() {
        // Two hand-written packets; verify exact delivery accounting.
        let trace = TraceSource::new(vec![
            Emission {
                time: Time::ZERO,
                len: 500,
            },
            Emission {
                time: Time::ZERO + Dur::from_millis(1),
                len: 500,
            },
        ]);
        let r = Router::new(
            LINK,
            Box::new(SharedBuffer::new(10_000, 1)),
            Box::new(Fifo::new()),
            vec![trace],
        );
        let res = r.run(Time::ZERO, Time::from_secs(1), 0);
        assert_eq!(res.flows[0].delivered_pkts, 2);
        assert_eq!(res.flows[0].offered_pkts, 2);
        // First packet: 500 B at 48 Mb/s = 83.333 µs delay.
        assert_eq!(res.flows[0].delay_max_ns, 83_333);
    }

    #[test]
    fn threshold_policy_protects_in_integration() {
        // A conformant 2 Mb/s CBR against a 46 Mb/s blast through a
        // threshold policy: the conformant flow must not lose anything.
        use qbm_core::flow::Conformance;
        let specs = vec![
            FlowSpec::builder(FlowId(0))
                .token_rate(Rate::from_mbps(2.0))
                .bucket(1000)
                .class(Conformance::Conformant)
                .build(),
            FlowSpec::builder(FlowId(1))
                .token_rate(Rate::from_mbps(2.0))
                .bucket(1000)
                .class(Conformance::Aggressive)
                .build(),
        ];
        let buffer = 200_000;
        let policy = PolicyKind::Threshold.build(buffer, LINK, &specs);
        let sources = vec![
            CbrSource::new(Rate::from_mbps(2.0), 500, Time::ZERO),
            CbrSource::new(Rate::from_mbps(46.0), 500, Time::ZERO),
        ];
        let r = Router::new(LINK, policy, Box::new(Fifo::new()), sources);
        let res = r.run(Time::from_secs(2), Time::from_secs(12), 0);
        assert_eq!(
            res.flows[0].dropped_pkts, 0,
            "conformant flow lost packets despite Prop-2 thresholds"
        );
        // And it gets its full 2 Mb/s through.
        let thr = res.flow_throughput_bps(FlowId(0));
        assert!((thr - 2e6).abs() / 2e6 < 0.02, "throughput {thr}");
    }
}
