//! Earliest-Deadline-First scheduling — the rate-controlled EDF family
//! the paper cites as the other sorting scheduler (\[4\], Georgiadis,
//! Guérin, Peris & Sivarajan).
//!
//! Each flow carries a *delay budget* `dᵢ`; a packet arriving at `a`
//! gets deadline `a + dᵢ` and the link serves the earliest deadline.
//! In the cited architecture a per-flow shaper precedes the queue
//! (rate control); in this repo that role is played by the source-side
//! regulators on conformant flows, so the scheduler itself is plain
//! EDF. Default budgets are the natural per-flow bounds
//! `σᵢ/ρᵢ + L/ρᵢ` — the same quantity WFQ guarantees — so EDF and WFQ
//! are directly comparable.
//!
//! Cost: `O(log N)` in *queued packets* (one heap), like WFQ but with
//! no GPS bookkeeping — the cheapest of the sorting schedulers.

use crate::scheduler::{PacketRef, Scheduler};
use qbm_core::flow::FlowSpec;
use qbm_core::units::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Earliest-deadline-first over per-flow delay budgets.
#[derive(Debug)]
pub struct Edf {
    /// Per-flow delay budgets.
    budgets: Vec<Dur>,
    heap: BinaryHeap<Reverse<(Time, u64, PacketRef)>>,
}

impl Edf {
    /// One delay budget per flow.
    pub fn new(budgets: Vec<Dur>) -> Edf {
        assert!(!budgets.is_empty(), "no flows");
        Edf {
            budgets,
            heap: BinaryHeap::new(),
        }
    }

    /// Budgets from the specs' natural delay bounds `σᵢ/ρᵢ + L/ρᵢ`
    /// (flows with zero reserved rate get an effectively infinite
    /// budget — best-effort class).
    pub fn from_specs(specs: &[FlowSpec], max_pkt_bytes: u32) -> Edf {
        let budgets = specs
            .iter()
            .map(|s| {
                if s.token_rate.bps() == 0 {
                    Dur::from_secs(3600)
                } else {
                    s.token_rate
                        .transmission_time(s.bucket_bytes + max_pkt_bytes as u64)
                }
            })
            .collect();
        Edf::new(budgets)
    }

    /// The configured budgets.
    pub fn budgets(&self) -> &[Dur] {
        &self.budgets
    }
}

impl Scheduler for Edf {
    fn enqueue(&mut self, _now: Time, pkt: PacketRef) {
        let Some(&budget) = self.budgets.get(pkt.flow.index()) else {
            debug_assert!(false, "enqueue of an unknown flow");
            return;
        };
        let deadline = pkt.arrival + budget;
        self.heap.push(Reverse((deadline, pkt.seq, pkt)));
    }

    fn dequeue(&mut self, _now: Time) -> Option<PacketRef> {
        self.heap.pop().map(|Reverse((_, _, p))| p)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt};
    use qbm_core::flow::FlowId;
    use qbm_core::units::Rate;

    const LINK: Rate = Rate::from_bps(48_000_000);

    #[test]
    fn tight_budget_preempts_loose_budget() {
        // Flow 0: 1 ms budget; flow 1: 100 ms. Simultaneous arrivals:
        // flow 0 always first regardless of enqueue order.
        let mut e = Edf::new(vec![Dur::from_millis(1), Dur::from_millis(100)]);
        e.enqueue(Time::ZERO, pkt(1, 500, 0, 0));
        e.enqueue(Time::ZERO, pkt(0, 500, 0, 1));
        assert_eq!(e.dequeue(Time::ZERO).unwrap().flow, FlowId(0));
        assert_eq!(e.dequeue(Time::ZERO).unwrap().flow, FlowId(1));
    }

    #[test]
    fn earlier_arrival_wins_within_a_flow_class() {
        // Same budget: deadline order = arrival order.
        let mut e = Edf::new(vec![Dur::from_millis(10), Dur::from_millis(10)]);
        e.enqueue(Time::ZERO, pkt(0, 500, 0, 0));
        e.enqueue(Time::ZERO, pkt(1, 500, 2, 1));
        e.enqueue(Time::ZERO, pkt(0, 500, 5, 2));
        let order = drain(&mut e, LINK, Time::ZERO + Dur::from_millis(5));
        let seqs: Vec<u64> = order.iter().map(|(_, p)| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn loose_flow_can_jump_if_it_arrived_much_earlier() {
        // A 100 ms-budget packet from t=0 beats a 1 ms-budget packet
        // arriving at t=105 ms (deadline 100 < 106): EDF is about
        // deadlines, not priorities.
        let mut e = Edf::new(vec![Dur::from_millis(1), Dur::from_millis(100)]);
        e.enqueue(Time::ZERO, pkt(1, 500, 0, 0));
        e.enqueue(Time::ZERO + Dur::from_millis(105), pkt(0, 500, 105, 1));
        assert_eq!(e.dequeue(Time::ZERO).unwrap().flow, FlowId(1));
    }

    #[test]
    fn budgets_from_specs_match_delay_bounds() {
        let specs = vec![
            FlowSpec::builder(FlowId(0))
                .token_rate(Rate::from_mbps(2.0))
                .bucket(51_200)
                .build(),
            FlowSpec::builder(FlowId(1)).bucket(1000).build(),
        ];
        let e = Edf::from_specs(&specs, 500);
        // σ/ρ + L/ρ = (51200+500)·8/2e6 s = 206.8 ms.
        let expect = Rate::from_mbps(2.0).transmission_time(51_700);
        assert_eq!(e.budgets()[0], expect);
        // Zero-rate flow: best-effort budget.
        assert_eq!(e.budgets()[1], Dur::from_secs(3600));
    }

    #[test]
    fn ties_break_deterministically_by_seq() {
        let mut e = Edf::new(vec![Dur::from_millis(5); 2]);
        e.enqueue(Time::ZERO, pkt(1, 500, 0, 0));
        e.enqueue(Time::ZERO, pkt(0, 500, 0, 1));
        assert_eq!(e.dequeue(Time::ZERO).unwrap().seq, 0);
        assert_eq!(e.dequeue(Time::ZERO).unwrap().seq, 1);
    }
}
