//! Dynamic Threshold (Choudhury–Hahne) — the shared-memory scheme the
//! paper's §3.3 buffer sharing is explicitly compared against \[1\].
//!
//! Every flow shares one *dynamic* threshold `T(t) = α·(B − Q(t))`
//! proportional to the instantaneous free space: as the buffer fills,
//! everyone's allowance shrinks, which is self-stabilizing. Unlike the
//! paper's scheme it carries **no reservations** — all flows get the
//! same cap — so it shares well but cannot enforce per-flow rate
//! guarantees (which is exactly the gap §3.3's headroom/holes variant
//! closes). Included as a comparator policy for the extension benches.

use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::FlowId;

/// Choudhury–Hahne dynamic-threshold buffer sharing.
#[derive(Debug, Clone)]
pub struct DynamicThreshold {
    occ: Occupancy,
    /// Numerator of the α multiplier (α = `alpha_num / alpha_den`).
    alpha_num: u64,
    /// Denominator of the α multiplier.
    alpha_den: u64,
}

impl DynamicThreshold {
    /// A dynamic-threshold buffer of `capacity_bytes` for `flows` flows
    /// with multiplier `α = alpha_num/alpha_den` (the classic choices
    /// are 1 and 2; fractional α down-prioritizes everyone equally).
    pub fn new(capacity_bytes: u64, flows: usize, alpha_num: u64, alpha_den: u64) -> Self {
        assert!(alpha_num > 0 && alpha_den > 0, "alpha must be positive");
        DynamicThreshold {
            occ: Occupancy::new(capacity_bytes, flows),
            alpha_num,
            alpha_den,
        }
    }

    /// The instantaneous threshold `α·(B − Q)` in bytes.
    pub fn current_threshold(&self) -> u64 {
        let free = self.occ.capacity() - self.occ.total();
        (free as u128 * self.alpha_num as u128 / self.alpha_den as u128) as u64
    }
}

impl BufferPolicy for DynamicThreshold {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let limit = self.current_threshold();
        let Some(a) = self.occ.arrival(flow) else {
            return UNKNOWN_FLOW;
        };
        if !a.fits(len) {
            return Verdict::Drop(DropReason::BufferFull);
        }
        // Classic DT: accept iff the flow's occupancy is below the
        // dynamic threshold at arrival.
        if a.held() + len as u64 > limit {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        a.charge(len);
        Verdict::Admit
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        self.occ.credit(flow, len);
    }

    fn flow_occupancy(&self, flow: FlowId) -> u64 {
        self.occ.of(flow)
    }

    fn total_occupancy(&self) -> u64 {
        self.occ.total()
    }

    fn capacity(&self) -> u64 {
        self.occ.capacity()
    }

    fn threshold(&self, _flow: FlowId) -> Option<u64> {
        Some(self.current_threshold())
    }

    fn name(&self) -> &'static str {
        "dynamic-threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_shrinks_as_buffer_fills() {
        let mut p = DynamicThreshold::new(100_000, 2, 1, 1);
        assert_eq!(p.current_threshold(), 100_000);
        // One flow grabs space; the threshold drops with the free pool.
        for _ in 0..40 {
            assert!(p.admit(FlowId(0), 1000).admitted());
        }
        assert_eq!(p.current_threshold(), 60_000);
    }

    #[test]
    fn single_flow_converges_to_alpha_fraction() {
        // With α = 1, one greedy flow stabilizes at q = B − q ⟹ B/2.
        let mut p = DynamicThreshold::new(100_000, 1, 1, 1);
        while p.admit(FlowId(0), 500).admitted() {}
        let q = p.flow_occupancy(FlowId(0));
        assert!((q as i64 - 50_000).abs() <= 500, "q = {q}");
        // With α = 2 it stabilizes at 2(B − q) ⟹ 2B/3.
        let mut p = DynamicThreshold::new(99_999, 1, 2, 1);
        while p.admit(FlowId(0), 500).admitted() {}
        let q = p.flow_occupancy(FlowId(0));
        assert!((q as f64 - 66_666.0).abs() <= 600.0, "q = {q}");
    }

    #[test]
    fn latecomer_still_gets_space() {
        // DT's key property vs a plain shared buffer: the first flow
        // cannot capture everything, so a latecomer finds room.
        let mut p = DynamicThreshold::new(100_000, 2, 1, 1);
        while p.admit(FlowId(0), 500).admitted() {}
        assert!(
            p.admit(FlowId(1), 500).admitted(),
            "latecomer locked out: free = {}",
            p.capacity() - p.total_occupancy()
        );
    }

    #[test]
    fn no_reservations_all_flows_equal() {
        // Two greedy flows end up with equal occupancies — DT cannot
        // express the paper's per-flow guarantees.
        let mut p = DynamicThreshold::new(120_000, 2, 1, 1);
        let mut turn = 0;
        loop {
            let f = FlowId(turn % 2);
            turn += 1;
            if !p.admit(f, 500).admitted() {
                // try the other; stop when both blocked
                let g = FlowId(turn % 2);
                if !p.admit(g, 500).admitted() {
                    break;
                }
            }
        }
        let q0 = p.flow_occupancy(FlowId(0));
        let q1 = p.flow_occupancy(FlowId(1));
        assert!((q0 as i64 - q1 as i64).abs() <= 1000, "{q0} vs {q1}");
    }

    #[test]
    fn release_restores_headroom() {
        let mut p = DynamicThreshold::new(10_000, 1, 1, 1);
        while p.admit(FlowId(0), 500).admitted() {}
        let before = p.flow_occupancy(FlowId(0));
        p.release(FlowId(0), 500);
        p.release(FlowId(0), 500);
        // Freed space raises the threshold enough to admit again.
        assert!(p.admit(FlowId(0), 500).admitted());
        assert!(p.flow_occupancy(FlowId(0)) <= before);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = DynamicThreshold::new(1000, 1, 0, 1);
    }
}
