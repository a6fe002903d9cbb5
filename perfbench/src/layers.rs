//! Instrumentation around the simulator's public layer traits. Nothing
//! inside the simulator is instrumented:
//!
//! * [`TimedPolicy`] and [`TimedSched`] wrap a `BufferPolicy` and a
//!   `Scheduler`, count and time every per-packet call (admit/release,
//!   enqueue/dequeue), can capture the call stream for a replay, and
//!   forward everything else untouched;
//! * [`Probe`] is a counting observer that can also capture one link's
//!   admission/departure stream;
//! * the `replay_*` and `pull_*` functions time one layer standalone on
//!   a captured or regenerated input;
//! * [`calibrate_timer`] measures what a timed call costs, so spans are
//!   reported net of their clock reads.
//!
//! Wrappers keep their spans locally and deposit them into a shared
//! [`SpanSink`] when dropped: a fabric consumes its routers, so a
//! wrapper cannot be read back after a run.

use crate::report::median;
use qbm_core::flow::FlowId;
use qbm_core::policy::{BufferPolicy, DropReason, Verdict};
use qbm_core::units::{Dur, Time};
use qbm_obs::{Observer, QuantileSketch};
use qbm_sched::{PacketRef, Scheduler};
use qbm_sim::{SimResult, StatsCollector, StatsConfig};
use qbm_traffic::{AimdSource, Feedback, Source, SourceKind};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls into one layer and the host nanoseconds spent inside them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Timed calls.
    pub calls: u64,
    /// Host nanoseconds inside them, clock reads included.
    pub ns: u64,
}

impl Span {
    #[inline]
    fn close(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// One buffer-policy call, captured for a standalone replay.
#[derive(Debug, Clone, Copy)]
pub enum PolicyOp {
    /// `admit(flow, len)`.
    Admit(FlowId, u32),
    /// `release(flow, len)`.
    Release(FlowId, u32),
}

/// One scheduler call, captured for a standalone replay.
#[derive(Debug, Clone, Copy)]
pub enum SchedOp {
    /// `enqueue(now, pkt)`.
    Enqueue(Time, PacketRef),
    /// `dequeue(now)`.
    Dequeue(Time),
}

/// What the wrappers of one run deposited.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Buffer-policy admit and release calls.
    pub policy: Span,
    /// The capturing policy's call stream.
    pub policy_ops: Vec<PolicyOp>,
    /// Scheduler enqueue and dequeue calls, per `SchedKind::label`.
    pub sched: Vec<(&'static str, Span)>,
    /// Largest scheduler backlog seen after an enqueue, packets.
    pub backlog_max: usize,
    /// The capturing scheduler's call stream.
    pub sched_ops: Vec<SchedOp>,
}

impl SpanTotals {
    /// Scheduler calls of every kind.
    pub fn sched_all(&self) -> Span {
        let mut all = Span::default();
        for &(_, s) in &self.sched {
            all.merge(s);
        }
        all
    }

    fn add_sched(&mut self, label: &'static str, span: Span) {
        match self.sched.iter_mut().find(|(l, _)| *l == label) {
            Some((_, s)) => s.merge(span),
            None => self.sched.push((label, span)),
        }
    }
}

/// Shared deposit box for wrapper spans.
#[derive(Debug, Default)]
pub struct SpanSink(Mutex<SpanTotals>);

impl SpanSink {
    /// A fresh, empty sink.
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink::default())
    }

    /// Everything deposited so far.
    pub fn totals(&self) -> SpanTotals {
        self.0
            .lock()
            .expect("a wrapper panicked while depositing its spans")
            .clone()
    }

    /// Called from `Drop`, so a poisoned lock is skipped, never unwrapped.
    fn deposit(&self, f: impl FnOnce(&mut SpanTotals)) {
        if let Ok(mut totals) = self.0.lock() {
            f(&mut totals);
        }
    }
}

/// A buffer policy whose admit and release calls are timed. It can
/// capture its call stream for a replay.
pub struct TimedPolicy<P: BufferPolicy> {
    inner: P,
    span: Span,
    ops: Vec<PolicyOp>,
    capture: usize,
    sink: Arc<SpanSink>,
}

impl<P: BufferPolicy> TimedPolicy<P> {
    /// Wrap `inner`, capturing its first `capture` calls; everything
    /// goes to `sink` when the wrapper is dropped.
    pub fn new(inner: P, sink: &Arc<SpanSink>, capture: usize) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            span: Span::default(),
            ops: Vec::with_capacity(capture),
            capture,
            sink: Arc::clone(sink),
        }
    }
}

impl<P: BufferPolicy> BufferPolicy for TimedPolicy<P> {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let start = Instant::now();
        let verdict = self.inner.admit(flow, len);
        self.span.close(start);
        if self.ops.len() < self.capture {
            self.ops.push(PolicyOp::Admit(flow, len));
        }
        verdict
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        let start = Instant::now();
        self.inner.release(flow, len);
        self.span.close(start);
        if self.ops.len() < self.capture {
            self.ops.push(PolicyOp::Release(flow, len));
        }
    }

    fn flow_occupancy(&self, flow: FlowId) -> u64 {
        self.inner.flow_occupancy(flow)
    }

    fn total_occupancy(&self) -> u64 {
        self.inner.total_occupancy()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn threshold(&self, flow: FlowId) -> Option<u64> {
        self.inner.threshold(flow)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sharing_state(&self) -> Option<(u64, u64)> {
        self.inner.sharing_state()
    }
}

impl<P: BufferPolicy> Drop for TimedPolicy<P> {
    fn drop(&mut self) {
        let span = self.span;
        let ops = std::mem::take(&mut self.ops);
        self.sink.deposit(|t| {
            t.policy.merge(span);
            t.policy_ops.extend(ops);
        });
    }
}

/// A scheduler whose enqueue and dequeue calls are timed. It records the
/// largest backlog and can capture its call stream for a replay.
pub struct TimedSched<S: Scheduler> {
    inner: S,
    label: &'static str,
    span: Span,
    backlog_max: usize,
    ops: Vec<SchedOp>,
    capture: usize,
    sink: Arc<SpanSink>,
}

impl<S: Scheduler> TimedSched<S> {
    /// Wrap `inner` (of kind `label`), capturing its first `capture`
    /// calls; everything goes to `sink` when the wrapper is dropped.
    pub fn new(
        inner: S,
        label: &'static str,
        sink: &Arc<SpanSink>,
        capture: usize,
    ) -> TimedSched<S> {
        TimedSched {
            inner,
            label,
            span: Span::default(),
            backlog_max: 0,
            ops: Vec::with_capacity(capture),
            capture,
            sink: Arc::clone(sink),
        }
    }
}

impl<S: Scheduler> Scheduler for TimedSched<S> {
    fn enqueue(&mut self, now: Time, pkt: PacketRef) {
        let start = Instant::now();
        self.inner.enqueue(now, pkt);
        self.span.close(start);
        self.backlog_max = self.backlog_max.max(self.inner.len());
        if self.ops.len() < self.capture {
            self.ops.push(SchedOp::Enqueue(now, pkt));
        }
    }

    fn dequeue(&mut self, now: Time) -> Option<PacketRef> {
        let start = Instant::now();
        let pkt = self.inner.dequeue(now);
        self.span.close(start);
        if self.ops.len() < self.capture {
            self.ops.push(SchedOp::Dequeue(now));
        }
        pkt
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: Scheduler> Drop for TimedSched<S> {
    fn drop(&mut self) {
        let (label, span, backlog) = (self.label, self.span, self.backlog_max);
        let ops = std::mem::take(&mut self.ops);
        self.sink.deposit(|t| {
            t.add_sched(label, span);
            t.backlog_max = t.backlog_max.max(backlog);
            t.sched_ops.extend(ops);
        });
    }
}

/// A captured admission decision or departure, with the occupancies the
/// router hands its statistics collector at that instant.
#[derive(Debug, Clone, Copy)]
pub enum StatRecord {
    /// A packet offered to the link: admitted (`dropped: None`) or not.
    Arrival {
        /// Arrival instant.
        now: Time,
        /// Flow on this link.
        flow: FlowId,
        /// Bytes.
        len: u32,
        /// Drop cause, `None` when admitted.
        dropped: Option<DropReason>,
        /// The flow's occupancy after admission, bytes.
        flow_occ: u64,
        /// Buffer occupancy after admission, bytes.
        total_occ: u64,
    },
    /// A packet finished transmission.
    Departure {
        /// Departure instant.
        now: Time,
        /// Flow on this link.
        flow: FlowId,
        /// Bytes.
        len: u32,
        /// Its arrival instant.
        arrival: Time,
        /// The flow's occupancy after release, bytes.
        flow_occ: u64,
        /// Buffer occupancy after release, bytes.
        total_occ: u64,
    },
}

/// A counting observer for one link that can also capture the link's
/// admission/departure stream.
#[derive(Debug, Default)]
pub struct Probe {
    /// Packets offered to the link.
    pub arrivals: u64,
    /// Packets transmitted.
    pub departures: u64,
    /// Feedback signals routed to closed-loop sources.
    pub feedback: u64,
    /// The captured stream, at most the capture bound long.
    pub records: Vec<StatRecord>,
    /// Whether the stream outgrew the capture bound.
    pub truncated: bool,
    capture: usize,
    flow_occ: Vec<u64>,
    total_occ: u64,
}

impl Probe {
    /// A probe that also captures the first `records` events of an
    /// `n_flows`-flow link.
    pub fn capturing(n_flows: usize, records: usize) -> Probe {
        Probe {
            records: Vec::with_capacity(records),
            capture: records,
            flow_occ: vec![0; n_flows],
            ..Probe::default()
        }
    }

    fn push(&mut self, r: StatRecord) {
        if self.records.len() < self.capture {
            self.records.push(r);
        } else {
            self.truncated = true;
        }
    }
}

impl Observer for Probe {
    fn on_arrival(&mut self, _now: Time, _flow: FlowId, _len: u32, _link: u32) {
        self.arrivals += 1;
    }

    fn on_enqueue(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        flow_occ: u64,
        total_occ: u64,
        _link: u32,
    ) {
        if self.capture > 0 {
            self.flow_occ[flow.index()] = flow_occ;
            self.total_occ = total_occ;
            self.push(StatRecord::Arrival {
                now,
                flow,
                len,
                dropped: None,
                flow_occ,
                total_occ,
            });
        }
    }

    fn on_drop(&mut self, now: Time, flow: FlowId, len: u32, reason: DropReason, _link: u32) {
        if self.capture > 0 {
            self.push(StatRecord::Arrival {
                now,
                flow,
                len,
                dropped: Some(reason),
                flow_occ: 0,
                total_occ: 0,
            });
        }
    }

    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time, _link: u32) {
        self.departures += 1;
        if self.capture > 0 {
            let q = &mut self.flow_occ[flow.index()];
            *q = q.saturating_sub(len as u64);
            let flow_occ = *q;
            self.total_occ = self.total_occ.saturating_sub(len as u64);
            let total_occ = self.total_occ;
            self.push(StatRecord::Departure {
                now,
                flow,
                len,
                arrival,
                flow_occ,
                total_occ,
            });
        }
    }

    fn on_feedback(
        &mut self,
        _now: Time,
        _flow: FlowId,
        _delivered: bool,
        _len: u32,
        _delay: Dur,
        _cause: Option<DropReason>,
        _link: u32,
    ) {
        self.feedback += 1;
    }
}

/// Replay a captured stream into a fresh `StatsCollector` the way the
/// router feeds it. Returns the collector's result and the host
/// nanoseconds the replay took.
pub fn replay_stats(
    records: &[StatRecord],
    n_flows: usize,
    warmup: Time,
    end: Time,
    seed: u64,
    cfg: StatsConfig,
) -> (SimResult, u64) {
    let mut c = StatsCollector::with_config(n_flows, warmup, end, seed, cfg);
    let start = Instant::now();
    for r in records {
        match *r {
            StatRecord::Arrival {
                now,
                flow,
                len,
                dropped,
                flow_occ,
                total_occ,
            } => {
                c.on_color(now, flow, len, true);
                c.on_arrival(now, flow, len, dropped);
                if dropped.is_none() && c.sketching() {
                    c.on_occupancy(now, flow, flow_occ, total_occ);
                }
            }
            StatRecord::Departure {
                now,
                flow,
                len,
                arrival,
                flow_occ,
                total_occ,
            } => {
                c.on_departure_colored(now, flow, len, arrival, true);
                if c.sketching() {
                    c.on_occupancy(now, flow, flow_occ, total_occ);
                }
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    (c.finish(), ns)
}

/// Record every captured delay and buffer occupancy into fresh quantile
/// sketches. Returns the values recorded and the host nanoseconds.
pub fn replay_sketch(records: &[StatRecord], precision_bits: u32) -> (u64, u64) {
    let mut delay = QuantileSketch::new(precision_bits);
    let mut occ = QuantileSketch::new(precision_bits);
    let start = Instant::now();
    for r in records {
        match *r {
            StatRecord::Arrival {
                dropped: None,
                total_occ,
                ..
            } => occ.record(total_occ),
            StatRecord::Arrival { .. } => {}
            StatRecord::Departure {
                now,
                arrival,
                total_occ,
                ..
            } => {
                delay.record(now.since(arrival).as_nanos());
                occ.record(total_occ);
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    black_box((&delay, &occ));
    (delay.count() + occ.count(), ns)
}

/// Run `op` over `items`, stopping early once half a second has passed
/// (per-flow schedulers at 10⁵ flows take a hundred microseconds and
/// more per call). Returns the items done and the host nanoseconds.
fn replay_budgeted<T>(items: &[T], mut op: impl FnMut(&T)) -> (u64, u64) {
    const BUDGET_NS: u64 = 500_000_000;
    let start = Instant::now();
    let mut done = 0u64;
    for chunk in items.chunks(64) {
        chunk.iter().for_each(&mut op);
        done += chunk.len() as u64;
        if start.elapsed().as_nanos() as u64 >= BUDGET_NS {
            break;
        }
    }
    (done, start.elapsed().as_nanos() as u64)
}

/// Replay a captured scheduler call stream into `sched`. Returns the
/// calls made and the host nanoseconds.
pub fn replay_sched(ops: &[SchedOp], mut sched: Box<dyn Scheduler>) -> (u64, u64) {
    replay_budgeted(ops, |op| match *op {
        SchedOp::Enqueue(now, pkt) => sched.enqueue(now, pkt),
        SchedOp::Dequeue(now) => {
            black_box(sched.dequeue(now));
        }
    })
}

/// Replay a captured buffer-policy call stream into a fresh `policy`
/// built like the captured one (it then reaches the same verdicts).
/// Returns the calls made and the host nanoseconds.
pub fn replay_policy(ops: &[PolicyOp], mut policy: Box<dyn BufferPolicy>) -> (u64, u64) {
    replay_budgeted(ops, |op| match *op {
        PolicyOp::Admit(flow, len) => {
            black_box(policy.admit(flow, len));
        }
        PolicyOp::Release(flow, len) => policy.release(flow, len),
    })
}

/// Pull every open-loop source until its first emission at or past
/// `end`. Returns the emissions pulled and the host nanoseconds.
pub fn pull_sources<'a>(
    sources: impl IntoIterator<Item = &'a mut SourceKind>,
    end: Time,
) -> (u64, u64) {
    let start = Instant::now();
    let mut pulled = 0u64;
    for s in sources {
        while let Some(e) = s.next_emission() {
            pulled += 1;
            if e.time >= end {
                break;
            }
        }
    }
    (pulled, start.elapsed().as_nanos() as u64)
}

/// Pull `n` emissions from an AIMD source, acknowledging each one at
/// once: an AIMD source emits only against acknowledgements, so a
/// closed-loop emission costs one pull plus one feedback. Returns the
/// emissions pulled and the host nanoseconds.
pub fn pull_with_acks(mut src: AimdSource, n: u64) -> (u64, u64) {
    let start = Instant::now();
    let mut pulled = 0u64;
    while pulled < n {
        let Some(e) = src.next_emission() else { break };
        pulled += 1;
        black_box(src.on_feedback(
            e.time,
            Feedback::Delivered {
                bytes: e.len,
                delay: Dur::ZERO,
            },
        ));
    }
    (pulled, start.elapsed().as_nanos() as u64)
}

/// What one timed call costs on this host.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Nanoseconds a timed empty call reports: the bias inside a span.
    pub inner_ns: f64,
    /// Host nanoseconds a timed empty call takes in full.
    pub full_ns: f64,
}

impl TimerCost {
    /// A span's time without its clock-read bias.
    pub fn net_ns(&self, s: Span) -> f64 {
        (s.ns as f64 - self.inner_ns * s.calls as f64).max(0.0)
    }

    /// Host time the clock reads of a span added to the run.
    pub fn overhead_ns(&self, s: Span) -> f64 {
        self.full_ns * s.calls as f64
    }
}

/// Medians over several rounds of timed empty calls.
pub fn calibrate_timer() -> TimerCost {
    const CALLS: u64 = 100_000;
    let (mut inner, mut full) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let mut span = Span::default();
        let round = Instant::now();
        for _ in 0..CALLS {
            let start = Instant::now();
            black_box(&mut span);
            span.close(start);
        }
        full.push(round.elapsed().as_nanos() as f64 / CALLS as f64);
        inner.push(span.ns as f64 / CALLS as f64);
    }
    TimerCost {
        inner_ns: median(&inner),
        full_ns: median(&full),
    }
}

/// A digest of every field of `results`: the byte-identity check for
/// fabric results too large to keep two copies of.
pub fn digest(results: &[SimResult]) -> u64 {
    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    for r in results {
        h.word(r.window.0);
        h.word(r.seed);
        h.word(r.flows.len() as u64);
        for f in &r.flows {
            for w in [
                f.offered_bytes,
                f.offered_pkts,
                f.dropped_bytes,
                f.dropped_pkts,
                f.drops_buffer_full,
                f.drops_over_threshold,
                f.drops_no_shared_space,
                f.delivered_bytes,
                f.delivered_pkts,
                f.delay_sum_ns as u64,
                (f.delay_sum_ns >> 64) as u64,
                f.delay_max_ns,
                f.green_offered_bytes,
                f.green_offered_pkts,
                f.green_delivered_bytes,
                f.delay_hist.len() as u64,
            ] {
                h.word(w);
            }
            for &b in &f.delay_hist {
                h.word(b);
            }
            if f.delay_sketch.is_some() || f.occ_sketch.is_some() {
                let _ = write!(h, "{:?}{:?}", f.delay_sketch, f.occ_sketch);
            }
        }
        let _ = write!(h, "{:?}{:?}{:?}", r.delay_sketch, r.occ_sketch, r.aimd);
    }
    h.0
}

/// Word-at-a-time multiply-rotate hash (FNV prime) behind [`digest`].
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.word(b as u64);
        }
        Ok(())
    }
}
