//! Deterministic time-ordered event cores.
//!
//! Two interchangeable implementations sit behind [`EventCore`]:
//!
//! * [`EventQueue`] — the generic `BinaryHeap` reference: ordering is
//!   `(time, priority, insertion sequence)`, departures before arrivals
//!   at the same instant (a departing packet frees buffer space for a
//!   simultaneous arrival, matching the fluid model's semantics), and
//!   insertion order breaks remaining ties so runs are reproducible
//!   regardless of heap internals.
//! * [`IndexedTimers`] — the production core, exploiting the router's
//!   event structure: each flow has **at most one** pending arrival and
//!   the link at most one pending departure, so the whole queue is a
//!   flat `next_arrival: Vec<Time>` selected by an index-tie-breaking
//!   tournament tree plus a single departure slot. No per-event `seq`,
//!   no heap sifting — a handful of branch-predictable comparisons over
//!   a cache-resident array per operation.
//!
//! Both cores order events by `(time, departure-first, flow index)`.
//! [`IndexedTimers`] additionally holds one slot per upstream departure
//! log on a fabric link (see [`crate::fabric`]): the slot is keyed by
//! its head's `(time, destination flow)`, so a relayed packet competes
//! exactly as a per-flow timer for that flow would.
//! The heap nominally breaks same-instant arrival ties by insertion
//! sequence, but under the router's pull discipline a colliding
//! arrival was always scheduled at its flow's *previous* emission
//! instant, so the strictly slower flow — which in every workload here
//! also has the lower index — holds the lower sequence number: the two
//! contracts coincide (the differential proptests and the golden
//! fixed-seed snapshots in `tests/determinism.rs` pin this down).

use qbm_core::flow::FlowId;
use qbm_core::units::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

impl Event {
    /// Same-instant ordering class: departures first.
    fn priority(self) -> u8 {
        match self {
            Event::Departure => 0,
            Event::Arrival(_) | Event::Relay(..) => 1,
        }
    }
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

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    time: Time,
    prio: u8,
    seq: u64,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.prio, self.seq).cmp(&(other.time, other.prio, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator's event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            prio: event.priority(),
            seq,
            event,
        }));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// What the router's event loop needs from an event queue: schedule the
/// (unique) pending arrival of a flow, schedule the (unique) pending
/// link departure, and pop the earliest event. Implemented by the
/// [`EventQueue`] reference heap and by [`IndexedTimers`]; the loop is
/// generic over this trait so the two cores are differentially testable
/// on full simulations.
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
    /// `(time, departure-first, flow index)`.
    fn pop(&mut self) -> Option<(Time, Event)>;
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
    /// [`EventCore::pop`] fused with the router's pull discipline: when
    /// the popped event is an arrival, `refill(flow)` is invoked once
    /// to pull the flow's next emission instant, and the returned time
    /// (if any) is scheduled as the flow's new pending arrival before
    /// this call returns. Semantically identical to `pop` followed by
    /// `schedule_arrival`; cores override it to do both in one
    /// structure update ([`IndexedTimers`] replays its tournament path
    /// once instead of twice).
    fn pop_refill<F>(&mut self, refill: F) -> Option<(Time, Event)>
    where
        F: FnMut(FlowId) -> Option<Time>,
    {
        let popped = self.pop();
        if let Some((t, Event::Arrival(flow))) = popped {
            let mut refill = refill;
            if let Some(next) = refill(flow) {
                debug_assert!(next >= t, "source emitted into the past");
                self.schedule_arrival(flow, next);
            }
        }
        popped
    }
}

impl EventCore for EventQueue {
    fn with_flows(_n_flows: usize) -> EventQueue {
        EventQueue::new()
    }

    fn flow_slots(&self) -> usize {
        usize::MAX
    }

    fn schedule_arrival(&mut self, flow: FlowId, time: Time) {
        self.push(time, Event::Arrival(flow));
    }

    fn schedule_departure(&mut self, time: Time) {
        self.push(time, Event::Departure);
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        EventQueue::pop(self)
    }

    fn peek_time(&self) -> Option<Time> {
        EventQueue::peek_time(self)
    }

    fn delay_arrival(&mut self, flow: FlowId, at_least: Time) {
        // Check before touching the heap: a no-op delay must not churn
        // the sequence counter (it breaks full-tie insertion order).
        let needs_delay = self
            .heap
            .iter()
            .any(|Reverse(e)| e.event == Event::Arrival(flow) && e.time < at_least);
        if needs_delay {
            self.heap
                .retain(|Reverse(e)| e.event != Event::Arrival(flow));
            self.push(at_least, Event::Arrival(flow));
        }
    }
}

/// The production event core: one timer slot per flow plus a departure
/// slot, selected by a deterministic tournament (winner) tree.
///
/// Layout: `next_arrival[i]` holds slot `i`'s pending instant
/// (`Time::MAX` = none). Slots `0..flows` are per-flow arrival timers;
/// on a fabric link, slots `flows..flows + logs.len()` each hold the
/// head of one upstream departure log. A complete binary tree over the
/// slots — padded to a power of two — caches at `win[k]` the winning
/// slot of the subtree under internal node `k` (`win[1]` is the overall
/// winner), so a slot update recomputes only its root path: `log₂ n`
/// comparisons over two flat arrays that fit in L1 for any realistic
/// slot count. Comparison is on `(time, tie)`, where the tie of a flow
/// slot is its flow index and the tie of a log slot is its head's
/// destination flow — so the flow index is the same-instant tie-break
/// whichever way a packet arrives, and `Time::MAX` padding loses to
/// every real timer. `pop` compares the tree winner against the
/// departure slot, departure winning ties — the full ordering contract
/// in two extra branches, with no per-event sequence counter at all.
#[derive(Debug)]
pub struct IndexedTimers {
    /// Pending instant per slot; `Time::MAX` = none. Padded to
    /// `leaves` entries so the tree is complete.
    next_arrival: Vec<Time>,
    /// `win[k]` = winning slot index under internal node `k` (1-based;
    /// `win[0]` unused). Leaf `i` sits under node `(leaves + i) / 2`.
    win: Vec<u32>,
    /// Number of (padded) leaf slots — a power of two.
    leaves: usize,
    /// Number of per-flow slots; log slots follow them.
    flows: usize,
    /// One upstream departure log per log slot, in slot order.
    logs: Vec<InLog>,
    /// Pending departure instant; `Time::MAX` = none.
    departure: Time,
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
}

impl IndexedTimers {
    /// Same-instant tie key of `slot`: the flow index for a flow slot
    /// (and for padding), the head's destination flow for a log slot.
    #[inline]
    fn tie(&self, slot: u32) -> u32 {
        let s = slot as usize;
        if s < self.flows {
            return slot;
        }
        self.logs
            .get(s - self.flows)
            .and_then(InLog::head)
            .map_or(slot, |e| e.flow)
    }

    /// Winner of two slots: earlier time, lower tie key on equal
    /// times. `MAX` sentinels lose to any real timer (and resolve by
    /// tie among themselves, which is irrelevant but keeps the tree
    /// total).
    #[inline]
    fn winner(&self, a: u32, b: u32) -> u32 {
        let (ta, tb) = (self.next_arrival[a as usize], self.next_arrival[b as usize]);
        if ta != tb {
            if ta < tb {
                a
            } else {
                b
            }
        } else if self.tie(a) <= self.tie(b) {
            a
        } else {
            b
        }
    }

    /// Recompute the root path of leaf `i` after its slot changed.
    #[inline]
    fn replay(&mut self, i: usize) {
        if self.leaves == 1 {
            return;
        }
        let mut node = (self.leaves + i) / 2;
        // First round pairs two leaves; later rounds pair cached winners.
        let base = node * 2 - self.leaves;
        let mut w = self.winner(base as u32, base as u32 + 1);
        loop {
            self.win[node] = w;
            if node == 1 {
                break;
            }
            let sibling = self.win[node ^ 1];
            node /= 2;
            w = self.winner(w, sibling);
        }
    }

    /// Establish the tree invariant (`win[k]` = winner under `k`) over
    /// the current slots in one bottom-up pass: O(leaves), against
    /// O(leaves · log leaves) for a replay per slot.
    fn build_tree(&mut self) {
        let leaves = self.leaves;
        for node in (1..leaves).rev() {
            let child = |c: usize| {
                if c >= leaves {
                    Some((c - leaves) as u32)
                } else {
                    self.win.get(c).copied()
                }
            };
            let (Some(a), Some(b)) = (child(2 * node), child(2 * node + 1)) else {
                continue;
            };
            let w = self.winner(a, b);
            if let Some(k) = self.win.get_mut(node) {
                *k = w;
            }
        }
    }

    /// The earliest pending arrival or relay, if any.
    #[inline]
    fn peek_arrival(&self) -> Option<(Time, u32)> {
        let w = if self.leaves == 1 { 0 } else { self.win[1] };
        let t = self.next_arrival[w as usize];
        (t != Time::MAX).then_some((t, w))
    }

    /// Pop the head of log slot `slot` and re-key the slot by the next
    /// entry. The log-slot pop: no source to pull, the refill is the
    /// log itself.
    #[inline]
    fn pop_log(&mut self, slot: u32) -> Option<(Time, Event)> {
        let s = slot as usize;
        let log = self.logs.get_mut(s.checked_sub(self.flows)?)?;
        let e = *log.head()?;
        log.next += 1;
        let next = log.head().map_or(Time::MAX, |n| n.time);
        *self.next_arrival.get_mut(s)? = next;
        self.replay(s);
        Some((e.time, Event::Relay(FlowId(e.flow), e.len)))
    }

    /// A core with `flows` per-flow slots and `logs` log slots on
    /// recycled backing vectors (cleared and resized to fit; capacity
    /// reused).
    fn assemble(flows: usize, logs: usize, slots: Vec<Time>, win: Vec<u32>) -> IndexedTimers {
        assert!(flows + logs > 0, "no flows");
        let leaves = (flows + logs).next_power_of_two();
        let mut next_arrival = slots;
        next_arrival.clear();
        next_arrival.resize(leaves, Time::MAX);
        let mut win = win;
        win.clear();
        win.resize(leaves, 0);
        let mut core = IndexedTimers {
            next_arrival,
            win,
            leaves,
            flows,
            logs: (0..logs).map(|_| InLog::default()).collect(),
            departure: Time::MAX,
        };
        core.build_tree();
        core
    }

    /// Build a core for `n_flows` flows on recycled backing vectors
    /// (cleared and resized to fit; capacity reused). With empty
    /// vectors this is exactly [`EventCore::with_flows`] — the arena
    /// runner hands back the vectors from [`IndexedTimers::into_parts`]
    /// so a campaign allocates one timer tree per worker, not per cell.
    pub fn from_recycled(n_flows: usize, slots: Vec<Time>, win: Vec<u32>) -> IndexedTimers {
        IndexedTimers::assemble(n_flows, 0, slots, win)
    }

    /// A fabric link's core: per-flow slots for its first `flows` flows
    /// (the ones it may originate) and `logs` upstream log slots.
    pub(crate) fn with_logs(flows: usize, logs: usize) -> IndexedTimers {
        IndexedTimers::assemble(flows, logs, Vec::new(), Vec::new())
    }

    /// Hand log slot `log` a fresh batch of upstream departures (in
    /// `(time, destination flow)` order), leaving the drained buffer in
    /// `batch`, cleared, for the upstream link to record into next —
    /// two buffers per log ping-pong with no allocation in the steady
    /// state.
    pub(crate) fn refill_log(&mut self, log: usize, batch: &mut Vec<LogEntry>) {
        let slot = self.flows + log;
        let Some(l) = self.logs.get_mut(log) else {
            debug_assert!(false, "no log slot {log}");
            return;
        };
        debug_assert!(l.head().is_none(), "log handed over before it drained");
        l.entries.clear();
        std::mem::swap(&mut l.entries, batch);
        l.next = 0;
        let head = l.head().map_or(Time::MAX, |e| e.time);
        if let Some(t) = self.next_arrival.get_mut(slot) {
            *t = head;
        }
        self.replay(slot);
    }

    /// Dismantle the core into its backing vectors for recycling via
    /// [`IndexedTimers::from_recycled`].
    pub fn into_parts(self) -> (Vec<Time>, Vec<u32>) {
        (self.next_arrival, self.win)
    }
}

impl EventCore for IndexedTimers {
    fn with_flows(n_flows: usize) -> IndexedTimers {
        IndexedTimers::from_recycled(n_flows, Vec::new(), Vec::new())
    }

    fn flow_slots(&self) -> usize {
        self.flows
    }

    #[inline]
    fn schedule_arrival(&mut self, flow: FlowId, time: Time) {
        debug_assert!(time != Time::MAX, "Time::MAX is the empty sentinel");
        debug_assert!(flow.index() < self.flows, "flow has no timer slot");
        debug_assert!(
            self.next_arrival[flow.index()] == Time::MAX,
            "flow already has a pending arrival"
        );
        self.next_arrival[flow.index()] = time;
        self.replay(flow.index());
    }

    fn schedule_arrivals<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = (FlowId, Time)>,
    {
        for (flow, time) in arrivals {
            debug_assert!(time != Time::MAX, "Time::MAX is the empty sentinel");
            debug_assert!(flow.index() < self.flows, "flow has no timer slot");
            if let Some(slot) = self.next_arrival.get_mut(flow.index()) {
                *slot = time;
            }
        }
        self.build_tree();
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
        debug_assert!(flow.index() < self.flows, "flow has no timer slot");
        let i = flow.index();
        if self.next_arrival[i] != Time::MAX && self.next_arrival[i] < at_least {
            self.next_arrival[i] = at_least;
            self.replay(i);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, Event)> {
        let arrival = self.peek_arrival();
        // Departure wins same-instant ties: a departing packet frees
        // buffer space for a simultaneous arrival.
        if self.departure != Time::MAX && arrival.is_none_or(|(t, _)| self.departure <= t) {
            let t = self.departure;
            self.departure = Time::MAX;
            return Some((t, Event::Departure));
        }
        let (t, w) = arrival?;
        if w as usize >= self.flows {
            return self.pop_log(w);
        }
        self.next_arrival[w as usize] = Time::MAX;
        self.replay(w as usize);
        Some((t, Event::Arrival(FlowId(w))))
    }

    /// The fused pop: instead of clearing the winning arrival slot
    /// (one replay) and rescheduling the flow's next emission later
    /// (a second replay), write the refill time straight into the
    /// popped slot and replay the root path once. Halves the tree
    /// work on the arrival-dominated steady state. A log slot refills
    /// from its own log and never calls `refill`.
    #[inline]
    fn pop_refill<F>(&mut self, mut refill: F) -> Option<(Time, Event)>
    where
        F: FnMut(FlowId) -> Option<Time>,
    {
        let arrival = self.peek_arrival();
        if self.departure != Time::MAX && arrival.is_none_or(|(t, _)| self.departure <= t) {
            let t = self.departure;
            self.departure = Time::MAX;
            return Some((t, Event::Departure));
        }
        let (t, w) = arrival?;
        if w as usize >= self.flows {
            return self.pop_log(w);
        }
        let flow = FlowId(w);
        let next = refill(flow).unwrap_or(Time::MAX);
        debug_assert!(next >= t, "source emitted into the past");
        self.next_arrival[w as usize] = next;
        self.replay(w as usize);
        Some((t, Event::Arrival(flow)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::Dur;

    #[test]
    fn time_order() {
        let mut q = EventQueue::new();
        let t = |ms| Time::ZERO + Dur::from_millis(ms);
        q.push(t(5), Event::Arrival(FlowId(0)));
        q.push(t(1), Event::Arrival(FlowId(1)));
        q.push(t(3), Event::Departure);
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.pop().unwrap().0, t(3));
        assert_eq!(q.pop().unwrap().0, t(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn departures_before_arrivals_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, Event::Arrival(FlowId(0)));
        q.push(Time::ZERO, Event::Departure);
        assert_eq!(q.pop().unwrap().1, Event::Departure);
        assert_eq!(q.pop().unwrap().1, Event::Arrival(FlowId(0)));
    }

    #[test]
    fn insertion_order_breaks_full_ties() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(Time::ZERO, Event::Arrival(FlowId(i)));
        }
        for i in 0..10u32 {
            match q.pop().unwrap().1 {
                Event::Arrival(f) => assert_eq!(f, FlowId(i)),
                _ => panic!("unexpected event"),
            }
        }
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_secs(2), Event::Departure);
        q.push(Time::from_secs(1), Event::Departure);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_secs(1)));
    }

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
    fn recycled_core_matches_fresh_across_sizes() {
        // Recycle 8-leaf vectors into a 3-flow core: behaviour must be
        // identical to a fresh with_flows(3).
        let big = IndexedTimers::with_flows(8);
        let (slots, win) = big.into_parts();
        let mut recycled = IndexedTimers::from_recycled(3, slots, win);
        let mut fresh = IndexedTimers::with_flows(3);
        for q in [&mut recycled, &mut fresh] {
            q.schedule_arrival(FlowId(2), Time::from_secs(1));
            q.schedule_arrival(FlowId(0), Time::from_secs(1));
            q.schedule_departure(Time::from_secs(1));
        }
        for _ in 0..4 {
            assert_eq!(recycled.pop(), fresh.pop());
        }
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
    fn heap_delay_arrival_matches_timers_semantics() {
        let mut q = EventQueue::with_flows(3);
        q.schedule_arrival(FlowId(0), Time::from_secs(1));
        q.schedule_arrival(FlowId(1), Time::from_secs(5));
        q.schedule_departure(Time::from_secs(6));
        q.delay_arrival(FlowId(0), Time::from_secs(7));
        q.delay_arrival(FlowId(1), Time::from_secs(2));
        q.delay_arrival(FlowId(2), Time::from_secs(1));
        assert_eq!(
            EventCore::pop(&mut q),
            Some((Time::from_secs(5), Event::Arrival(FlowId(1))))
        );
        assert_eq!(
            EventCore::pop(&mut q),
            Some((Time::from_secs(6), Event::Departure))
        );
        assert_eq!(
            EventCore::pop(&mut q),
            Some((Time::from_secs(7), Event::Arrival(FlowId(0))))
        );
        assert_eq!(EventCore::pop(&mut q), None);
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

    fn prio(ev: Event) -> u8 {
        ev.priority()
    }

    proptest! {
        /// Pops from the *original* queue come out sorted by
        /// (time, priority) within every drain phase — a maximal run of
        /// pops with no interleaved push. A push may legitimately restart
        /// the clock below the previous pop (the queue is not a
        /// monotone calendar), so each push begins a new phase; within a
        /// phase, any inversion is a real ordering bug. This exercises
        /// interleaved push/pop sequences directly, unlike re-pushing
        /// the popped events into a fresh queue, which only ever tests
        /// one final drain.
        #[test]
        fn pops_are_totally_ordered(
            ops in proptest::collection::vec((0u64..1000, 0u8..3), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut pushed = 0usize;
            let mut popped = 0usize;
            let mut phase_last: Option<(Time, u8)> = None;
            for (t, kind) in ops {
                match kind {
                    0 | 1 => {
                        let ev = if kind == 0 {
                            Event::Departure
                        } else {
                            Event::Arrival(FlowId((t % 7) as u32))
                        };
                        q.push(Time(t), ev);
                        pushed += 1;
                        phase_last = None; // new drain phase
                    }
                    _ => {
                        if let Some((t, ev)) = q.pop() {
                            popped += 1;
                            if let Some(prev) = phase_last {
                                prop_assert!(
                                    prev <= (t, prio(ev)),
                                    "in-phase order violated: {prev:?} then ({t:?}, {ev:?})"
                                );
                            }
                            phase_last = Some((t, prio(ev)));
                        }
                    }
                }
            }
            // Final drain is one phase too, continuing from the last
            // in-loop pop if no push intervened.
            while let Some((t, ev)) = q.pop() {
                popped += 1;
                if let Some(prev) = phase_last {
                    prop_assert!(
                        prev <= (t, prio(ev)),
                        "drain order violated: {prev:?} then ({t:?}, {ev:?})"
                    );
                }
                phase_last = Some((t, prio(ev)));
            }
            prop_assert_eq!(popped, pushed);
        }
    }

    /// Reference model for [`IndexedTimers`]: a `BinaryHeap` keyed by
    /// the full `(time, departure-first, flow index)` contract. Under
    /// the router's slot discipline (≤ 1 arrival per flow, ≤ 1
    /// departure) that key is unique, so the model is a total order.
    #[derive(Default)]
    struct ModelHeap {
        heap: std::collections::BinaryHeap<Reverse<(Time, u8, u32)>>,
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

        /// The fused [`EventCore::pop_refill`] must be observationally
        /// identical to pop-then-schedule *within each core*: the
        /// overridden [`IndexedTimers`] fast path against its own
        /// pop+schedule, and the trait-default path on [`EventQueue`]
        /// likewise. (The two cores are not compared with each other —
        /// they tie-break equal-time arrivals differently by design.)
        /// Refill times grow strictly with the op index so they respect
        /// the source contract (no emission into the past).
        #[test]
        fn pop_refill_matches_pop_plus_schedule(
            n_flows in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u8..9, 0u64..50, 0u8..2), 1..300),
        ) {
            let mut fused = IndexedTimers::with_flows(n_flows);
            let mut plain = IndexedTimers::with_flows(n_flows);
            let mut heap_fused = EventQueue::with_flows(n_flows);
            let mut heap_plain = EventQueue::with_flows(n_flows);
            let mut pending = vec![false; n_flows];
            let mut departing = false;
            for (op_idx, (kind, flow, t, rearm)) in ops.into_iter().enumerate() {
                match kind {
                    0 => {
                        let f = flow as usize % n_flows;
                        if !pending[f] {
                            pending[f] = true;
                            fused.schedule_arrival(FlowId(f as u32), Time(t));
                            plain.schedule_arrival(FlowId(f as u32), Time(t));
                            heap_fused.schedule_arrival(FlowId(f as u32), Time(t));
                            heap_plain.schedule_arrival(FlowId(f as u32), Time(t));
                        }
                    }
                    1 => {
                        if !departing {
                            departing = true;
                            fused.schedule_departure(Time(t));
                            plain.schedule_departure(Time(t));
                            heap_fused.schedule_departure(Time(t));
                            heap_plain.schedule_departure(Time(t));
                        }
                    }
                    _ => {
                        // Strictly-increasing far-future refill instant:
                        // always past every queued time, never repeats.
                        let next = Time(u64::MAX / 2 + op_idx as u64);
                        let a = fused.pop_refill(|_| (rearm == 1).then_some(next));
                        let b = plain.pop();
                        if let Some((_, Event::Arrival(f))) = b {
                            if rearm == 1 {
                                plain.schedule_arrival(f, next);
                            }
                        }
                        prop_assert_eq!(a, b, "indexed fused/plain diverged");
                        let ha = heap_fused.pop_refill(|_| (rearm == 1).then_some(next));
                        let hb = heap_plain.pop();
                        if let Some((_, Event::Arrival(f))) = hb {
                            if rearm == 1 {
                                heap_plain.schedule_arrival(f, next);
                            }
                        }
                        prop_assert_eq!(ha, hb, "heap fused/plain diverged");
                        match a {
                            Some((_, Event::Arrival(f))) => {
                                // Still pending if the refill rearmed it.
                                pending[f.index()] = rearm == 1;
                            }
                            Some((_, Event::Departure)) => departing = false,
                            Some((_, Event::Relay(..))) => prop_assert!(false, "no logs"),
                            None => {}
                        }
                        // The pending/departing bookkeeping above is keyed
                        // off the indexed core; keep it valid for the heap
                        // pair too by requiring both cores drained the same
                        // *kind* of event (times/flows may differ on ties).
                        prop_assert_eq!(a.is_some(), ha.is_some());
                    }
                }
            }
            // Drain: fused and plain agree to exhaustion on each core.
            loop {
                let a = fused.pop();
                prop_assert_eq!(a, plain.pop(), "drain diverged (indexed)");
                let ha = heap_fused.pop();
                prop_assert_eq!(ha, heap_plain.pop(), "drain diverged (heap)");
                if a.is_none() && ha.is_none() {
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
