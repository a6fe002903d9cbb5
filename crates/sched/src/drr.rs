//! Deficit Round Robin — an O(1) approximate-fairness baseline.
//!
//! Not part of the paper (which contrasts O(1) FIFO against O(log N)
//! WFQ), but a natural third point on the complexity/fairness plane:
//! DRR gives weighted max-min fair *scheduling* with constant work, yet
//! still needs per-flow queues — so comparing FIFO+thresholds against
//! DRR in the benches isolates how much of WFQ's benefit comes from
//! per-flow queueing versus precise timestamping. Documented as an
//! extension in DESIGN.md.

use crate::scheduler::{PacketRef, Scheduler};
use qbm_core::units::Time;
use std::collections::VecDeque;

/// Classic DRR (Shreedhar & Varghese): each flow has a quantum
/// proportional to its weight; a flow may send while its accumulated
/// deficit covers the head packet.
#[derive(Debug)]
pub struct Drr {
    flows: Vec<DrrFlow>,
    ring: VecDeque<usize>,
    len: usize,
}

/// One flow's DRR state.
#[derive(Debug, Default)]
struct DrrFlow {
    queue: VecDeque<PacketRef>,
    /// Quantum, bytes per round.
    quantum: u64,
    deficit: u64,
    /// Whether the deficit was already credited this visit.
    credited: bool,
    in_ring: bool,
}

impl Drr {
    /// Quanta are scaled so the *smallest* weight gets one 500-byte
    /// packet per round — keeping rounds short (low burst distortion)
    /// while preserving the weight ratios.
    pub fn new(weights: Vec<u64>) -> Drr {
        assert!(!weights.is_empty(), "no flows");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let min_w = *weights.iter().min().unwrap();
        Drr {
            flows: weights
                .iter()
                .map(|&w| DrrFlow {
                    quantum: (w as u128 * 500 / min_w as u128).max(1) as u64,
                    ..DrrFlow::default()
                })
                .collect(),
            ring: VecDeque::new(),
            len: 0,
        }
    }

    /// Configured per-flow quanta (bytes/round).
    pub fn quanta(&self) -> impl Iterator<Item = u64> + '_ {
        self.flows.iter().map(|f| f.quantum)
    }
}

impl Scheduler for Drr {
    fn enqueue(&mut self, _now: Time, pkt: PacketRef) {
        let f = pkt.flow.index();
        let Some(flow) = self.flows.get_mut(f) else {
            debug_assert!(false, "enqueue of an unknown flow");
            return;
        };
        flow.queue.push_back(pkt);
        self.len += 1;
        if !flow.in_ring {
            flow.in_ring = true;
            flow.credited = false;
            self.ring.push_back(f);
        }
    }

    fn dequeue(&mut self, _now: Time) -> Option<PacketRef> {
        loop {
            let &f = self.ring.front()?;
            let Some(flow) = self.flows.get_mut(f) else {
                debug_assert!(false, "an unknown flow in the ring");
                self.ring.pop_front();
                continue;
            };
            let Some(&head) = flow.queue.front() else {
                // Queue drained: leave the ring and forfeit the deficit
                // (standard DRR — an empty flow does not bank credit).
                self.ring.pop_front();
                flow.in_ring = false;
                flow.deficit = 0;
                continue;
            };
            if !flow.credited {
                flow.deficit += flow.quantum;
                flow.credited = true;
            }
            if flow.deficit >= head.len as u64 {
                flow.deficit -= head.len as u64;
                flow.queue.pop_front();
                self.len -= 1;
                return Some(head);
            }
            // Out of credit this round: go to the back of the ring.
            self.ring.pop_front();
            self.ring.push_back(f);
            flow.credited = false;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "drr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt, share_by_flow};
    use qbm_core::units::Rate;

    const LINK: Rate = Rate::from_bps(48_000_000);

    #[test]
    fn quanta_follow_weight_ratios() {
        let d = Drr::new(vec![400_000, 2_000_000, 8_000_000]);
        assert!(d.quanta().eq([500, 2500, 10_000]));
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut d = Drr::new(vec![1, 1]);
        let mut seq = 0;
        for _ in 0..100 {
            for f in 0..2 {
                d.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut d, LINK, Time::ZERO);
        let share = share_by_flow(&order, 100, 2);
        assert_eq!(share[0], share[1]);
    }

    #[test]
    fn weighted_shares_approximate_weights() {
        let mut d = Drr::new(vec![3_000_000, 1_000_000]);
        let mut seq = 0;
        for _ in 0..400 {
            for f in 0..2 {
                d.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut d, LINK, Time::ZERO);
        let share = share_by_flow(&order, 400, 2);
        let ratio = share[0] as f64 / share[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn deficit_accumulates_for_small_quantum() {
        // Quantum 500 but 1500-byte packets: the flow sends one packet
        // every three rounds rather than never.
        let mut d = Drr::new(vec![1, 1]);
        let mut seq = 0;
        d.enqueue(Time::ZERO, pkt(0, 1500, 0, seq));
        seq += 1;
        for _ in 0..6 {
            d.enqueue(Time::ZERO, pkt(1, 500, 0, seq));
            seq += 1;
        }
        let order = drain(&mut d, LINK, Time::ZERO);
        assert_eq!(order.len(), 7);
        let pos = order.iter().position(|(_, p)| p.flow.index() == 0).unwrap();
        // Flow 0 sends after banking 3 rounds of quantum: around the
        // third round, i.e. after ~2-3 of flow 1's packets.
        assert!((2..=4).contains(&pos), "pos {pos}");
    }

    #[test]
    fn empty_flow_forfeits_deficit() {
        let mut d = Drr::new(vec![1, 1]);
        d.enqueue(Time::ZERO, pkt(0, 500, 0, 0));
        let _ = d.dequeue(Time::ZERO);
        assert!(d.dequeue(Time::ZERO).is_none());
        // Re-arrive: deficit must have been reset, not banked.
        d.enqueue(Time::ZERO, pkt(0, 500, 0, 1));
        assert_eq!(d.flows[0].deficit, 0);
        let _ = d.dequeue(Time::ZERO);
        assert_eq!(d.flows[0].deficit, 0); // 500 credited, 500 spent
    }

    #[test]
    fn per_flow_order_preserved() {
        let mut d = Drr::new(vec![1, 5]);
        let mut seq = 0;
        for _ in 0..50 {
            for f in 0..2 {
                d.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut d, LINK, Time::ZERO);
        let mut last = [None::<u64>; 2];
        for (_, p) in order {
            let f = p.flow.index();
            if let Some(prev) = last[f] {
                assert!(p.seq > prev);
            }
            last[f] = Some(p.seq);
        }
    }
}
