//! The heap event core — the simulator's original `BinaryHeap` event
//! queue, kept as the differential oracle for the production
//! [`IndexedTimers`] core and as the baseline of the `sim_throughput`
//! benchmark.
//!
//! Ordering is `(time, priority, insertion sequence)`: departures
//! before arrivals at the same instant (a departing packet frees buffer
//! space for a simultaneous arrival, matching the fluid model's
//! semantics), and insertion order breaks remaining ties so runs are
//! reproducible regardless of heap internals. [`IndexedTimers`] breaks
//! the last tie by flow index instead; under the router's pull
//! discipline the two contracts coincide (see [`qbm_sim::event`]).
//!
//! [`IndexedTimers`]: qbm_sim::IndexedTimers

use qbm_core::flow::FlowId;
use qbm_core::units::Time;
use qbm_sim::event::{Event, EventCore};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Same-instant ordering class: departures first.
fn priority(event: Event) -> u8 {
    match event {
        Event::Departure => 0,
        Event::Arrival(_) | Event::Relay(..) => 1,
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
            prio: priority(event),
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

    fn pop_refill<F>(&mut self, mut refill: F) -> Option<(Time, Event)>
    where
        F: FnMut(FlowId) -> Option<Time>,
    {
        let popped = EventQueue::pop(self);
        if let Some((t, Event::Arrival(flow))) = popped {
            if let Some(next) = refill(flow) {
                debug_assert!(next >= t, "source emitted into the past");
                self.schedule_arrival(flow, next);
            }
        }
        popped
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qbm_sim::IndexedTimers;

    fn prio(ev: Event) -> u8 {
        priority(ev)
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

        /// The fused [`EventCore::pop_refill`] must be observationally
        /// identical to pop-then-schedule *within each core*:
        /// [`IndexedTimers`]' one-replay refill against its own
        /// pop+schedule, and [`EventQueue`]'s likewise. (The two cores
        /// are not compared with each other —
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
}
