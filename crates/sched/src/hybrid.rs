//! The §4 hybrid scheduler: `k` FIFO queues served by WFQ.
//!
//! Flows are statically grouped into a small, fixed number of FIFO
//! queues; a WFQ scheduler serves the *queues* with weights equal to
//! the Eq.-16 rate assignment `Rᵢ = ρ̂ᵢ + αᵢ(R − ρ)`. Per-packet cost is
//! `O(log k)` with `k` fixed and small — the paper's scalable middle
//! ground. Inside each queue, packets stay in arrival order (FIFO), and
//! flow isolation is delegated to buffer management exactly as in the
//! single-queue case.

use crate::scheduler::{PacketRef, Scheduler};
use crate::wfq::WfqCore;
use qbm_core::units::{Rate, Time};

/// k-FIFO-queues-under-WFQ (see module docs).
#[derive(Debug)]
pub struct Hybrid {
    core: WfqCore,
    /// `assignment[flow] = queue`.
    assignment: Vec<usize>,
}

impl Hybrid {
    /// Build for a link of `link_rate`, flow→queue `assignment`, and
    /// per-queue WFQ weights `queue_rates_bps` (normally the Eq.-16
    /// optimal rates from `qbm_core::analysis::hybrid`).
    pub fn new(link_rate: Rate, assignment: Vec<usize>, queue_rates_bps: Vec<u64>) -> Hybrid {
        let k = queue_rates_bps.len();
        assert!(k >= 1, "need at least one queue");
        assert!(
            assignment.iter().all(|&q| q < k),
            "assignment references a queue >= k"
        );
        Hybrid {
            core: WfqCore::new(link_rate, queue_rates_bps),
            assignment,
        }
    }
}

impl Scheduler for Hybrid {
    fn enqueue(&mut self, now: Time, pkt: PacketRef) {
        let q = self.assignment[pkt.flow.index()];
        self.core.enqueue_class(now, q, pkt);
    }

    fn dequeue(&mut self, now: Time) -> Option<PacketRef> {
        self.core.dequeue_min(now)
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt};

    const LINK: Rate = Rate::from_bps(48_000_000);

    fn two_queue() -> Hybrid {
        // Flows 0,1 -> queue 0 (32 Mb/s); flows 2,3 -> queue 1 (16 Mb/s).
        Hybrid::new(LINK, vec![0, 0, 1, 1], vec![32_000_000, 16_000_000])
    }

    #[test]
    fn intra_queue_order_is_fifo() {
        let mut h = two_queue();
        // Flow 1 then flow 0 into the same queue: arrival order must
        // hold even though per-flow WFQ would interleave them.
        for s in 0..10 {
            h.enqueue(Time::ZERO, pkt((s % 2) as u32, 500, 0, s));
        }
        let order = drain(&mut h, LINK, Time::ZERO);
        let q0: Vec<u64> = order
            .iter()
            .filter(|(_, p)| p.flow.index() < 2)
            .map(|(_, p)| p.seq)
            .collect();
        assert!(
            q0.windows(2).all(|w| w[0] < w[1]),
            "queue 0 reordered: {q0:?}"
        );
    }

    #[test]
    fn queues_share_by_assigned_rates() {
        let mut h = two_queue();
        let mut seq = 0;
        for _ in 0..300 {
            for f in 0..4 {
                h.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut h, LINK, Time::ZERO);
        let mut q_bytes = [0u64; 2];
        for (_, p) in order.iter().take(300) {
            q_bytes[h.assignment[p.flow.index()]] += p.len as u64;
        }
        let ratio = q_bytes[0] as f64 / q_bytes[1] as f64;
        assert!((ratio - 2.0).abs() < 0.15, "queue share ratio {ratio}");
    }

    #[test]
    fn single_queue_hybrid_degenerates_to_fifo() {
        let mut h = Hybrid::new(LINK, vec![0, 0, 0], vec![48_000_000]);
        for s in 0..20 {
            h.enqueue(Time::ZERO, pkt((s % 3) as u32, 500, 0, s));
        }
        let order = drain(&mut h, LINK, Time::ZERO);
        let seqs: Vec<u64> = order.iter().map(|(_, p)| p.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn one_flow_per_queue_equals_per_flow_wfq() {
        use crate::wfq::Wfq;
        let weights = vec![2_000_000u64, 8_000_000, 400_000];
        let mut h = Hybrid::new(LINK, vec![0, 1, 2], weights.clone());
        let mut w = Wfq::new(LINK, weights);
        let mut seq = 0;
        for _ in 0..100 {
            for f in 0..3 {
                h.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let ho = drain(&mut h, LINK, Time::ZERO);
        let wo = drain(&mut w, LINK, Time::ZERO);
        assert_eq!(ho, wo, "degenerate hybrid diverged from WFQ");
    }

    #[test]
    #[should_panic(expected = "queue >= k")]
    fn bad_assignment_rejected() {
        let _ = Hybrid::new(LINK, vec![0, 2], vec![1, 1]);
    }
}
