//! The deterministic time-ordered event core.
//!
//! [`IndexedTimers`] is the simulator's event core behind the
//! [`EventCore`] trait. It exploits the router's event structure: each
//! flow has **at most one** pending arrival and the link at most one
//! pending departure, so the whole queue is one flat array of packed
//! `time << 64 | flow` keys selected by a tournament tree plus a single
//! departure slot. No per-event `seq`, no heap sifting — a handful of
//! branch-predictable integer compares over a cache-resident array per
//! operation.
//!
//! Events are ordered by `(time, departure-first, flow index)`:
//! departures come before arrivals at the same instant (a departing
//! packet frees buffer space for a simultaneous arrival, matching the
//! fluid model's semantics). [`IndexedTimers`] additionally holds one
//! slot per upstream departure log on a fabric link (see
//! [`crate::fabric`]): the slot is keyed by its head's
//! `(time, destination flow)`, so a relayed packet competes exactly as
//! a per-flow timer for that flow would.
//!
//! The original `BinaryHeap` event queue, which breaks same-instant
//! arrival ties by insertion sequence, lives in the dev-only
//! `qbm-oracle` package as the differential oracle for this core.
//! Under the router's pull discipline a colliding arrival was always
//! scheduled at its flow's *previous* emission instant, so the strictly
//! slower flow — which in every workload here also has the lower
//! index — holds the lower sequence number: the two contracts coincide
//! (the oracle's differential tests and the golden fixed-seed
//! snapshots in `tests/determinism.rs` pin this down). The trait is
//! the seam it plugs into ([`crate::Router::run_on`]).

use qbm_core::flow::FlowId;
use qbm_core::units::Time;
use qbm_sched::tournament;

/// What happens at an event instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The link finishes transmitting the in-flight packet.
    Departure,
    /// `flow`'s source emits its next packet (the router pulls the
    /// following emission and schedules the next `Arrival`).
    Arrival(FlowId),
    /// A relayed packet of `len` bytes for `flow`, popped from an
    /// upstream departure log ([`IndexedTimers`] only).
    Relay(FlowId, u32),
}

/// One departure in a link-level log: the destination flow it feeds
/// and the emission (instant and length) it becomes there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogEntry {
    pub(crate) time: Time,
    pub(crate) flow: u32,
    pub(crate) len: u32,
}

/// The departure logs of a recording link: one log per destination
/// link, each appended in departure order with the destination flow
/// every packet becomes.
pub(crate) struct Outbox {
    /// `route[f]` = (log, destination flow) of flow `f`'s departures;
    /// a flow routed to a log past the last (the fabric's unwired
    /// sentinel) is not recorded.
    route: Vec<(u32, u32)>,
    logs: Vec<Vec<LogEntry>>,
}

impl Outbox {
    /// An outbox routing flow `f` to `route[f]`, over `logs` logs.
    pub(crate) fn new(route: Vec<(u32, u32)>, logs: usize) -> Outbox {
        Outbox {
            route,
            logs: vec![Vec::new(); logs],
        }
    }

    /// Mutable access to log `log`, for the fabric's handoff swap.
    pub(crate) fn log_mut(&mut self, log: usize) -> Option<&mut Vec<LogEntry>> {
        self.logs.get_mut(log)
    }

    /// Free every log buffer: the last handoff has taken each log's
    /// final entries, leaving the drained buffer it swapped back.
    pub(crate) fn release(&mut self) {
        for log in &mut self.logs {
            debug_assert!(log.is_empty(), "an outbox released before its handoff");
            *log = Vec::new();
        }
    }

    /// Record flow `flow`'s departure at `now`. Departures arrive in
    /// time order, so appending keeps each log time-sorted; a
    /// same-instant run (a transmission time that rounds to 0 ns) is
    /// kept in destination-flow order, the order the destination's
    /// per-flow timers would pop it in.
    #[inline]
    pub(crate) fn append(&mut self, flow: FlowId, now: Time, len: u32) {
        let Some(&(log, dst)) = self.route.get(flow.index()) else {
            return;
        };
        let Some(log) = self.logs.get_mut(log as usize) else {
            return;
        };
        let out_of_order = log.last().is_some_and(|p| p.time == now && p.flow > dst);
        log.push(LogEntry {
            time: now,
            flow: dst,
            len,
        });
        if out_of_order {
            sort_same_instant_tail(log);
        }
    }
}

/// Move a log's last entry back past the same-instant entries of
/// higher destination flow (stable for equal flows).
#[cold]
fn sort_same_instant_tail(log: &mut [LogEntry]) {
    let Some(&last) = log.last() else { return };
    let run = log
        .iter()
        .rev()
        .skip(1)
        .take_while(|e| e.time == last.time && e.flow > last.flow)
        .count();
    let from = log.len() - 1 - run;
    if let Some(tail) = log.get_mut(from..) {
        tail.rotate_right(1);
    }
}

/// What the router's event loop needs from an event queue: schedule the
/// (unique) pending arrival of a flow, schedule the (unique) pending
/// link departure, and pop the earliest event. Implemented by
/// [`IndexedTimers`] and, in the dev-only `qbm-oracle` package, by the
/// reference heap; the loop is generic over this trait so the two cores
/// are differentially testable on full simulations
/// ([`crate::Router::run_on`]).
pub trait EventCore {
    /// An empty core for `n_flows` flows.
    fn with_flows(n_flows: usize) -> Self;
    /// Number of leading flows with an arrival timer. Flows past it
    /// are relay flows whose packets come from departure logs; only
    /// [`IndexedTimers`] has any.
    fn flow_slots(&self) -> usize;
    /// Schedule `flow`'s next arrival at `time`. The router's pull
    /// discipline guarantees the flow has no other pending arrival.
    fn schedule_arrival(&mut self, flow: FlowId, time: Time);
    /// Schedule the first arrival of every flow in `arrivals` on an
    /// empty core — the priming pass. [`IndexedTimers`] fills its slots
    /// and then builds its tree bottom-up once.
    fn schedule_arrivals<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = (FlowId, Time)>,
    {
        for (flow, time) in arrivals {
            self.schedule_arrival(flow, time);
        }
    }
    /// Schedule the in-flight packet's departure at `time`. At most one
    /// departure is ever pending (one output link).
    fn schedule_departure(&mut self, time: Time);
    /// Remove and return the earliest event, ordering ties as
    /// `(time, departure-first, flow index)`: [`EventCore::pop_refill`]
    /// with nothing to refill.
    fn pop(&mut self) -> Option<(Time, Event)> {
        self.pop_refill(|_| None)
    }
    /// Time of the earliest pending event without removing it — the
    /// horizon gate of a resumable event loop: an epoch-bounded run
    /// peeks before popping so an event at or past the horizon stays
    /// queued (and its flow's source stays unpulled) for the next
    /// epoch.
    fn peek_time(&self) -> Option<Time>;
    /// Push `flow`'s pending arrival (if any) out to at least
    /// `at_least`: the RTO backoff of a closed-loop source, whose
    /// already-scheduled emission must not fire inside the timeout
    /// window. No-op when the flow has no pending arrival or it is
    /// already at `at_least` or later — in particular the event's
    /// identity (and any tie-break state) is untouched unless a real
    /// delay happens.
    fn delay_arrival(&mut self, flow: FlowId, at_least: Time);
    /// Remove and return the earliest event (ordered as in
    /// [`EventCore::pop`]), fused with the router's pull discipline:
    /// when the popped event is an arrival, `refill(flow)` is invoked
    /// once to pull the flow's next emission instant, and the returned
    /// time (if any) is scheduled as the flow's new pending arrival
    /// before this call returns — pop followed by `schedule_arrival`,
    /// in one structure update on [`IndexedTimers`] (its tournament
    /// path replays once instead of twice).
    fn pop_refill<F>(&mut self, refill: F) -> Option<(Time, Event)>
    where
        F: FnMut(FlowId) -> Option<Time>;
}

/// The production event core: one timer slot per flow plus a departure
/// slot, selected by a deterministic [`tournament`] (winner) tree.
///
/// Layout: `slots.key[i]` holds slot `i`'s packed key, `time << 64 |
/// tie` for a pending instant and `u128::MAX` for none. Slots
/// `0..flows` are per-flow arrival timers; on a fabric link, slots
/// `flows..flows + logs.len()` each hold the head of one upstream
/// departure log. The tie of a flow slot is its flow index and the tie
/// of a log slot is its head's destination flow, computed when the slot
/// is keyed — so the flow index is the same-instant tie-break whichever
/// way a packet arrives, a comparison is one integer compare with no
/// log to follow, and the empty key loses to every real timer. A slot's
/// time is the key's high word. The tree runs over the slots, padded to
/// a power of two (at least two), so a slot update replays only its
/// root path: `log₂ n` compares over two flat arrays of 20 B per leaf
/// (a 16 B key, a 4 B winner) — L1-resident at a link's tens of slots,
/// but 2.6 MB at 10⁵ flows, where each replay misses cache on most of
/// its 17 levels (which is why an open-loop origin link's sources go
/// through a sorted source stage instead, [`crate::fabric`]). A pop
/// compares the tree winner against the departure slot, departure
/// winning ties — the full ordering contract in two extra branches,
/// with no per-event sequence counter at all.
#[derive(Debug)]
pub struct IndexedTimers {
    slots: Slots,
    /// Winner tree over `slots` (see [`tournament`]); `win[1]` is the
    /// earliest slot.
    win: Vec<u32>,
    /// Pending departure instant; `Time::MAX` = none.
    departure: Time,
}

/// The key of an empty slot: above every real `(time, tie)` key, since
/// a real time is below `Time::MAX`, and read back as `Time::MAX`.
const EMPTY: u128 = u128::MAX;

/// Slot key of a timer at `time` with same-instant tie `tie`; the empty
/// key for `Time::MAX`, the empty sentinel.
#[inline]
fn key(time: Time, tie: u32) -> u128 {
    if time == Time::MAX {
        return EMPTY;
    }
    (time.0 as u128) << 64 | tie as u128
}

/// The instant a slot key holds (`Time::MAX` for an empty slot).
#[inline]
fn key_time(key: u128) -> Time {
    Time((key >> 64) as u64)
}

/// The keys under an [`IndexedTimers`] tree.
#[derive(Debug)]
struct Slots {
    /// Packed key per slot (see [`key`]); [`EMPTY`] = none. Padded to
    /// the tree's leaf count.
    key: Vec<u128>,
    /// Number of per-flow slots; log slots follow them.
    flows: usize,
    /// One upstream departure log per log slot, in slot order.
    logs: Vec<InLog>,
}

impl Slots {
    /// Whether slot `a` beats slot `b`: the lower key, i.e. the earlier
    /// time, then the lower tie. Empty slots lose to any real timer
    /// (and to each other by position, which keeps the tree total).
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        let at = |i: usize| self.key.get(i).copied().unwrap_or(EMPTY);
        at(a) <= at(b)
    }
}

/// A log slot's backing store: one upstream link's departures for this
/// link in `(time, destination flow)` order, consumed front to back.
#[derive(Debug, Default)]
struct InLog {
    entries: Vec<LogEntry>,
    next: usize,
}

impl InLog {
    #[inline]
    fn head(&self) -> Option<&LogEntry> {
        self.entries.get(self.next)
    }

    /// The log slot's key: its head's `(time, destination flow)`.
    #[inline]
    fn head_key(&self) -> u128 {
        self.head().map_or(EMPTY, |e| key(e.time, e.flow))
    }
}

impl IndexedTimers {
    /// Give slot `i` key `k` ([`EMPTY`] = none) and replay its root
    /// path.
    #[inline]
    fn set_slot(&mut self, i: usize, k: u128) {
        let Some(slot) = self.slots.key.get_mut(i) else {
            debug_assert!(false, "slot out of range");
            return;
        };
        *slot = k;
        tournament::replay(&mut self.win, i, |a, b| self.slots.beats(a, b));
    }

    /// The earliest pending arrival or relay, if any.
    #[inline]
    fn peek_arrival(&self) -> Option<(Time, u32)> {
        let Some((&w, &k)) = self
            .win
            .get(1)
            .and_then(|w| Some((w, self.slots.key.get(*w as usize)?)))
        else {
            debug_assert!(false, "winner tree without a root");
            return None;
        };
        (k != EMPTY).then(|| (key_time(k), w))
    }

    /// Pending instant of `flow`'s timer slot; `None`, after a debug
    /// assertion, for a flow without one (the padding slots past the
    /// flows and logs belong to no flow).
    #[inline]
    fn flow_time(&self, flow: FlowId) -> Option<Time> {
        let i = flow.index();
        let k = self.slots.key.get(i).filter(|_| i < self.slots.flows);
        debug_assert!(k.is_some(), "flow has no timer slot");
        k.map(|&k| key_time(k))
    }

    /// Pop the head of log slot `slot` and re-key the slot by the next
    /// entry. The log-slot pop: no source to pull, the refill is the
    /// log itself.
    #[inline]
    fn pop_log(&mut self, slot: usize) -> Option<(Time, Event)> {
        let log = self
            .slots
            .logs
            .get_mut(slot.checked_sub(self.slots.flows)?)?;
        let e = *log.head()?;
        log.next += 1;
        let next = log.head_key();
        self.set_slot(slot, next);
        Some((e.time, Event::Relay(FlowId(e.flow), e.len)))
    }

    /// A core with `flows` per-flow slots and `logs` log slots.
    fn assemble(flows: usize, logs: usize) -> IndexedTimers {
        assert!(flows + logs > 0, "no flows");
        let leaves = (flows + logs).next_power_of_two().max(2);
        let mut win = vec![0; leaves];
        let slots = Slots {
            key: vec![EMPTY; leaves],
            flows,
            logs: (0..logs).map(|_| InLog::default()).collect(),
        };
        tournament::rebuild(&mut win, |a, b| slots.beats(a, b));
        IndexedTimers {
            slots,
            win,
            departure: Time::MAX,
        }
    }

    /// A fabric link's core: per-flow slots for its first `flows` flows
    /// (the ones it may originate) and `logs` upstream log slots.
    pub(crate) fn with_logs(flows: usize, logs: usize) -> IndexedTimers {
        IndexedTimers::assemble(flows, logs)
    }

    /// Hand log slot `log` a fresh batch of upstream departures (in
    /// `(time, destination flow)` order), leaving the drained buffer in
    /// `batch`, cleared, for the upstream link to record into next —
    /// two buffers per log ping-pong with no allocation in the steady
    /// state.
    pub(crate) fn refill_log(&mut self, log: usize, batch: &mut Vec<LogEntry>) {
        let Some(l) = self.slots.logs.get_mut(log) else {
            debug_assert!(false, "no log slot {log}");
            return;
        };
        debug_assert!(l.head().is_none(), "log handed over before it drained");
        l.entries.clear();
        std::mem::swap(&mut l.entries, batch);
        l.next = 0;
        let head = l.head_key();
        self.set_slot(self.slots.flows + log, head);
    }

    /// Free every log slot's buffer: the link has reached the end of
    /// the run, so no upstream hands it another batch.
    pub(crate) fn release_logs(&mut self) {
        for l in &mut self.slots.logs {
            debug_assert!(l.head().is_none(), "a log released before it drained");
            *l = InLog::default();
        }
    }
}

impl EventCore for IndexedTimers {
    fn with_flows(n_flows: usize) -> IndexedTimers {
        IndexedTimers::assemble(n_flows, 0)
    }

    fn flow_slots(&self) -> usize {
        self.slots.flows
    }

    #[inline]
    fn schedule_arrival(&mut self, flow: FlowId, time: Time) {
        debug_assert!(time != Time::MAX, "Time::MAX is the empty sentinel");
        let Some(pending) = self.flow_time(flow) else {
            return;
        };
        debug_assert!(pending == Time::MAX, "flow already has a pending arrival");
        self.set_slot(flow.index(), key(time, flow.0));
    }

    fn schedule_arrivals<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = (FlowId, Time)>,
    {
        for (flow, time) in arrivals {
            debug_assert!(time != Time::MAX, "Time::MAX is the empty sentinel");
            let i = flow.index();
            match self.slots.key.get_mut(i) {
                Some(slot) if i < self.slots.flows => *slot = key(time, flow.0),
                _ => debug_assert!(false, "flow has no timer slot"),
            }
        }
        tournament::rebuild(&mut self.win, |a, b| self.slots.beats(a, b));
    }

    #[inline]
    fn schedule_departure(&mut self, time: Time) {
        debug_assert!(time != Time::MAX, "Time::MAX is the empty sentinel");
        debug_assert!(self.departure == Time::MAX, "departure already pending");
        self.departure = time;
    }

    #[inline]
    fn peek_time(&self) -> Option<Time> {
        // Earliest of the departure slot and the tournament winner;
        // the departure-first tie-break is irrelevant to the *time*.
        let arrival = self.peek_arrival().map(|(t, _)| t);
        if self.departure != Time::MAX {
            Some(arrival.map_or(self.departure, |t| t.min(self.departure)))
        } else {
            arrival
        }
    }

    #[inline]
    fn delay_arrival(&mut self, flow: FlowId, at_least: Time) {
        debug_assert!(at_least != Time::MAX, "Time::MAX is the empty sentinel");
        let Some(t) = self.flow_time(flow) else {
            return;
        };
        if t != Time::MAX && t < at_least {
            self.set_slot(flow.index(), key(at_least, flow.0));
        }
    }

    /// The one pop: the refill time is written straight into the
    /// popped arrival slot, so the root path replays once rather than
    /// once to clear the slot and again to reschedule the flow. A log
    /// slot refills from its own log and never calls `refill`.
    #[inline]
    fn pop_refill<F>(&mut self, mut refill: F) -> Option<(Time, Event)>
    where
        F: FnMut(FlowId) -> Option<Time>,
    {
        let arrival = self.peek_arrival();
        // Departure wins same-instant ties: a departing packet frees
        // buffer space for a simultaneous arrival.
        if self.departure != Time::MAX && arrival.is_none_or(|(t, _)| self.departure <= t) {
            let t = self.departure;
            self.departure = Time::MAX;
            return Some((t, Event::Departure));
        }
        let (t, w) = arrival?;
        if w as usize >= self.slots.flows {
            return self.pop_log(w as usize);
        }
        let flow = FlowId(w);
        let next = refill(flow).unwrap_or(Time::MAX);
        debug_assert!(next >= t, "source emitted into the past");
        self.set_slot(w as usize, key(next, w));
        Some((t, Event::Arrival(flow)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::Dur;

    #[test]
    fn timers_time_order() {
        let mut q = IndexedTimers::with_flows(3);
        let t = |ms| Time::ZERO + Dur::from_millis(ms);
        q.schedule_arrival(FlowId(0), t(5));
        q.schedule_arrival(FlowId(1), t(1));
        q.schedule_departure(t(3));
        assert_eq!(q.pop(), Some((t(1), Event::Arrival(FlowId(1)))));
        assert_eq!(q.pop(), Some((t(3), Event::Departure)));
        assert_eq!(q.pop(), Some((t(5), Event::Arrival(FlowId(0)))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn timers_departure_wins_same_instant() {
        let mut q = IndexedTimers::with_flows(2);
        q.schedule_arrival(FlowId(0), Time::ZERO);
        q.schedule_departure(Time::ZERO);
        assert_eq!(q.pop(), Some((Time::ZERO, Event::Departure)));
        assert_eq!(q.pop(), Some((Time::ZERO, Event::Arrival(FlowId(0)))));
    }

    #[test]
    fn timers_index_breaks_arrival_ties() {
        // Deliberately scheduled in descending index order: the tree,
        // not insertion order, must produce ascending flow indices.
        let mut q = IndexedTimers::with_flows(10);
        for i in (0..10u32).rev() {
            q.schedule_arrival(FlowId(i), Time::ZERO);
        }
        for i in 0..10u32 {
            assert_eq!(q.pop(), Some((Time::ZERO, Event::Arrival(FlowId(i)))));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn timers_single_flow_and_reschedule() {
        let mut q = IndexedTimers::with_flows(1);
        q.schedule_arrival(FlowId(0), Time::from_secs(1));
        assert_eq!(q.pop().unwrap().0, Time::from_secs(1));
        // The slot is free again after the pop.
        q.schedule_arrival(FlowId(0), Time::from_secs(2));
        q.schedule_departure(Time::from_secs(2));
        assert_eq!(q.pop(), Some((Time::from_secs(2), Event::Departure)));
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(2), Event::Arrival(FlowId(0))))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_refill_reschedules_the_popped_flow() {
        let mut q = IndexedTimers::with_flows(3);
        q.schedule_arrival(FlowId(0), Time::from_secs(1));
        q.schedule_arrival(FlowId(1), Time::from_secs(2));
        // Flow 0 pops and refills at t=3; flow 1 refills with None.
        let got = q.pop_refill(|f| {
            assert_eq!(f, FlowId(0));
            Some(Time::from_secs(3))
        });
        assert_eq!(got, Some((Time::from_secs(1), Event::Arrival(FlowId(0)))));
        let got = q.pop_refill(|_| None);
        assert_eq!(got, Some((Time::from_secs(2), Event::Arrival(FlowId(1)))));
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(3), Event::Arrival(FlowId(0))))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_refill_departure_does_not_invoke_refill() {
        let mut q = IndexedTimers::with_flows(2);
        q.schedule_arrival(FlowId(0), Time::from_secs(1));
        q.schedule_departure(Time::from_secs(1));
        let got = q.pop_refill(|_| panic!("refill on a departure pop"));
        assert_eq!(got, Some((Time::from_secs(1), Event::Departure)));
    }

    #[test]
    fn delay_arrival_pushes_only_earlier_slots() {
        let mut q = IndexedTimers::with_flows(3);
        q.schedule_arrival(FlowId(0), Time::from_secs(1));
        q.schedule_arrival(FlowId(1), Time::from_secs(5));
        // Flow 0 delayed past flow 1; flow 1's later slot untouched;
        // flow 2 has nothing pending — a silent no-op.
        q.delay_arrival(FlowId(0), Time::from_secs(7));
        q.delay_arrival(FlowId(1), Time::from_secs(2));
        q.delay_arrival(FlowId(2), Time::from_secs(1));
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(5), Event::Arrival(FlowId(1))))
        );
        assert_eq!(
            q.pop(),
            Some((Time::from_secs(7), Event::Arrival(FlowId(0))))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn timers_non_power_of_two_padding_never_wins() {
        // 5 flows pad to 8 leaves; the 3 sentinel slots must never
        // surface even when every real flow is scheduled at Time::MAX−1.
        let mut q = IndexedTimers::with_flows(5);
        let late = Time(u64::MAX - 1);
        for i in 0..5u32 {
            q.schedule_arrival(FlowId(i), late);
        }
        for i in 0..5u32 {
            assert_eq!(q.pop(), Some((late, Event::Arrival(FlowId(i)))));
        }
        assert_eq!(q.pop(), None);
    }
    fn entry(ms: u64, flow: u32) -> LogEntry {
        LogEntry {
            time: Time::ZERO + Dur::from_millis(ms),
            flow,
            len: 500,
        }
    }

    #[test]
    fn log_slots_pop_by_time_then_destination_flow() {
        // Flow slots 0..2 (flow 1 relayed, its slot dead) and two logs
        // feeding flows 1 and 3: same-instant ties across flow slots
        // and logs pop in flow order, departures first.
        let t = |ms| Time::ZERO + Dur::from_millis(ms);
        let mut q = IndexedTimers::with_logs(3, 2);
        q.schedule_arrival(FlowId(2), t(1));
        q.schedule_arrival(FlowId(0), t(2));
        let mut a = vec![entry(1, 3), entry(2, 3)];
        let mut b = vec![entry(1, 1), entry(3, 1)];
        q.refill_log(0, &mut a);
        q.refill_log(1, &mut b);
        assert!(a.is_empty() && b.is_empty(), "drained buffers come back");
        q.schedule_departure(t(2));
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            got,
            vec![
                (t(1), Event::Relay(FlowId(1), 500)),
                (t(1), Event::Arrival(FlowId(2))),
                (t(1), Event::Relay(FlowId(3), 500)),
                (t(2), Event::Departure),
                (t(2), Event::Arrival(FlowId(0))),
                (t(2), Event::Relay(FlowId(3), 500)),
                (t(3), Event::Relay(FlowId(1), 500)),
            ]
        );
    }

    #[test]
    fn outbox_keeps_same_instant_runs_in_destination_flow_order() {
        // Flows 0..3 route to destination flows 2, 0, 1 of one log.
        let mut out = Outbox::new(vec![(0, 2), (0, 0), (0, 1), (u32::MAX, u32::MAX)], 1);
        let t = Time::ZERO + Dur::from_millis(1);
        for f in [0, 1, 2, 3, 0] {
            out.append(FlowId(f), t, 500);
        }
        out.append(FlowId(1), t + Dur::from_millis(1), 500);
        let log = out.log_mut(0).expect("one log");
        let order: Vec<(u64, u32)> = log.iter().map(|e| (e.time.0, e.flow)).collect();
        let (t0, t1) = (t.0, t.0 + 1_000_000);
        assert_eq!(order, vec![(t0, 0), (t0, 1), (t0, 2), (t0, 2), (t1, 0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference model for [`IndexedTimers`]: a `BinaryHeap` keyed by
    /// the full `(time, departure-first, flow index)` contract. Under
    /// the router's slot discipline (≤ 1 arrival per flow, ≤ 1
    /// departure) that key is unique, so the model is a total order.
    #[derive(Default)]
    struct ModelHeap {
        heap: BinaryHeap<Reverse<(Time, u8, u32)>>,
    }

    impl ModelHeap {
        fn schedule_arrival(&mut self, flow: FlowId, t: Time) {
            self.heap.push(Reverse((t, 1, flow.0)));
        }
        fn schedule_departure(&mut self, t: Time) {
            self.heap.push(Reverse((t, 0, 0)));
        }
        fn delay_arrival(&mut self, flow: FlowId, at_least: Time) {
            let mut items: Vec<_> = std::mem::take(&mut self.heap).into_vec();
            for Reverse((t, p, f)) in items.iter_mut() {
                if *p == 1 && *f == flow.0 && *t < at_least {
                    *t = at_least;
                }
            }
            self.heap.extend(items);
        }
        fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|Reverse((t, p, f))| {
                (
                    t,
                    if p == 0 {
                        Event::Departure
                    } else {
                        Event::Arrival(FlowId(f))
                    },
                )
            })
        }
    }

    proptest! {
        /// Differential: for any valid schedule/pop interleaving under
        /// the router's slot discipline, [`IndexedTimers`] produces the
        /// exact event sequence of the reference heap model. Ops are
        /// `(kind, flow, t)` triples — kind 0 schedules an arrival,
        /// 1 a departure, 2–3 pop, 4 delays an arrival — with times
        /// drawn from a small range so same-instant collisions (the
        /// interesting case) are frequent.
        #[test]
        fn timers_match_reference_heap(
            n_flows in 1usize..13,
            ops in proptest::collection::vec((0u8..5, 0u8..13, 0u64..50), 1..300),
        ) {
            let mut timers = IndexedTimers::with_flows(n_flows);
            let mut model = ModelHeap::default();
            // Slot discipline mirrors the router: one pending arrival
            // per flow, one pending departure.
            let mut pending = vec![false; n_flows];
            let mut departing = false;
            for (kind, flow, t) in ops {
                match kind {
                    0 => {
                        let f = flow as usize % n_flows;
                        if !pending[f] {
                            pending[f] = true;
                            timers.schedule_arrival(FlowId(f as u32), Time(t));
                            model.schedule_arrival(FlowId(f as u32), Time(t));
                        }
                    }
                    1 => {
                        if !departing {
                            departing = true;
                            timers.schedule_departure(Time(t));
                            model.schedule_departure(Time(t));
                        }
                    }
                    4 => {
                        // Delay (legal whether or not anything is
                        // pending — a no-op when nothing is earlier).
                        let f = flow as usize % n_flows;
                        timers.delay_arrival(FlowId(f as u32), Time(t));
                        model.delay_arrival(FlowId(f as u32), Time(t));
                    }
                    _ => {
                        let peeked = timers.peek_time();
                        let got = timers.pop();
                        prop_assert_eq!(peeked, got.map(|(t, _)| t), "peek/pop time mismatch");
                        prop_assert_eq!(got, model.pop(), "cores diverged");
                        match got {
                            Some((_, Event::Arrival(f))) => pending[f.index()] = false,
                            Some((_, Event::Departure)) => departing = false,
                            Some((_, Event::Relay(..))) => prop_assert!(false, "no logs"),
                            None => {}
                        }
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let peeked = timers.peek_time();
                let got = timers.pop();
                prop_assert_eq!(peeked, got.map(|(t, _)| t), "peek/pop time mismatch");
                prop_assert_eq!(got, model.pop(), "cores diverged during drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        /// Differential for log slots: a core mixing per-flow slots and
        /// upstream logs pops in the exact `(time, departure-first,
        /// flow)` order of a heap that holds every log entry as a timer
        /// of its own — the per-flow replay the logs replaced. Even
        /// flows below `n_flows` originate; every other flow of
        /// `0..12` is relayed by log `flow % n_logs`, so relay flows
        /// sit both among and past the timed ones. A log is refilled
        /// (with a `(time, flow)`-sorted batch, as `Outbox::append`
        /// keeps it) only once drained, as the fabric's handoff does.
        #[test]
        fn log_slots_match_per_entry_model(
            n_flows in 1usize..6,
            n_logs in 1usize..4,
            ops in proptest::collection::vec(
                (0u8..5, 0u8..12, 0u64..40, proptest::collection::vec((0u64..40, 0u8..12), 0..6)),
                1..150,
            ),
        ) {
            let origin = |f: u32| (f as usize) < n_flows && f.is_multiple_of(2);
            let relays: Vec<Vec<u32>> = (0..n_logs)
                .map(|l| (0..12u32).filter(|&f| !origin(f) && f as usize % n_logs == l).collect())
                .collect();
            let mut timers = IndexedTimers::with_logs(n_flows, n_logs);
            // (time, prio, flow, seq, len) — seq keeps a flow's entries in log order.
            let mut model = BinaryHeap::<Reverse<(Time, u8, u32, u64, u32)>>::new();
            let (mut seq, mut pending, mut departing) = (0u64, vec![false; n_flows], false);
            let mut left = vec![0usize; n_logs];
            for (kind, flow, t, batch) in ops {
                match kind {
                    0 => {
                        let f = flow as u32 % n_flows as u32;
                        if origin(f) && !pending[f as usize] {
                            pending[f as usize] = true;
                            timers.schedule_arrival(FlowId(f), Time(t));
                            model.push(Reverse((Time(t), 1, f, 0, 0)));
                        }
                    }
                    1 => {
                        if !departing {
                            departing = true;
                            timers.schedule_departure(Time(t));
                            model.push(Reverse((Time(t), 0, 0, 0, 0)));
                        }
                    }
                    2 => {
                        let l = flow as usize % n_logs;
                        if left[l] == 0 && !relays[l].is_empty() {
                            let mut entries: Vec<LogEntry> = batch
                                .iter()
                                .map(|&(bt, k)| LogEntry {
                                    time: Time(bt),
                                    flow: relays[l][k as usize % relays[l].len()],
                                    len: 100 + k as u32,
                                })
                                .collect();
                            entries.sort_by_key(|e| (e.time, e.flow));
                            for e in &entries {
                                seq += 1;
                                model.push(Reverse((e.time, 1, e.flow, seq, e.len)));
                            }
                            left[l] = entries.len();
                            timers.refill_log(l, &mut entries);
                            prop_assert!(entries.is_empty(), "drained buffer not returned");
                        }
                    }
                    _ => {
                        let peeked = timers.peek_time();
                        let got = timers.pop();
                        prop_assert_eq!(peeked, got.map(|(t, _)| t), "peek/pop time mismatch");
                        let want = model.pop().map(|Reverse((t, p, f, _, len))| {
                            let ev = match p {
                                0 => Event::Departure,
                                _ if origin(f) => Event::Arrival(FlowId(f)),
                                _ => Event::Relay(FlowId(f), len),
                            };
                            (t, ev)
                        });
                        prop_assert_eq!(got, want, "log core diverged from the per-entry model");
                        match got {
                            Some((_, Event::Arrival(f))) => pending[f.index()] = false,
                            Some((_, Event::Departure)) => departing = false,
                            Some((_, Event::Relay(f, _))) => left[f.index() % n_logs] -= 1,
                            None => {}
                        }
                    }
                }
            }
        }
    }
}
