//! The no-management baseline: a fully shared buffer.
//!
//! Admit while there is room, drop when full — the behaviour of a
//! best-effort router and the paper's first benchmark (§3.1). Provides
//! no isolation whatsoever: one aggressive flow can occupy the whole
//! buffer and starve everyone (which Figures 2/5 demonstrate).

use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::FlowId;

/// Shared buffer with drop-on-full and no per-flow limits.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    occ: Occupancy,
}

impl SharedBuffer {
    /// A shared buffer of `capacity_bytes` tracking `flows` flows
    /// (tracking is only for statistics; it never affects admission).
    pub fn new(capacity_bytes: u64, flows: usize) -> SharedBuffer {
        SharedBuffer {
            occ: Occupancy::new(capacity_bytes, flows),
        }
    }
}

impl BufferPolicy for SharedBuffer {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let Some(a) = self.occ.arrival(flow) else {
            return UNKNOWN_FLOW;
        };
        if a.fits(len) {
            a.charge(len);
            Verdict::Admit
        } else {
            Verdict::Drop(DropReason::BufferFull)
        }
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
        None
    }

    fn name(&self) -> &'static str {
        "shared-buffer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_full_regardless_of_flow() {
        let mut p = SharedBuffer::new(1500, 2);
        assert!(p.admit(FlowId(0), 500).admitted());
        assert!(p.admit(FlowId(0), 500).admitted());
        assert!(p.admit(FlowId(0), 500).admitted());
        // Flow 1 is starved: no isolation.
        assert_eq!(
            p.admit(FlowId(1), 500),
            Verdict::Drop(DropReason::BufferFull)
        );
        assert_eq!(p.flow_occupancy(FlowId(0)), 1500);
        assert_eq!(p.threshold(FlowId(0)), None);
    }

    #[test]
    fn release_frees_space() {
        let mut p = SharedBuffer::new(1000, 2);
        assert!(p.admit(FlowId(0), 1000).admitted());
        assert!(!p.admit(FlowId(1), 1).admitted());
        p.release(FlowId(0), 1000);
        assert!(p.admit(FlowId(1), 1000).admitted());
        assert_eq!(p.total_occupancy(), 1000);
    }

    #[test]
    fn exact_fit_admitted() {
        let mut p = SharedBuffer::new(500, 1);
        assert!(p.admit(FlowId(0), 500).admitted());
        assert_eq!(p.total_occupancy(), p.capacity());
    }

    #[test]
    fn drop_leaves_state_untouched() {
        let mut p = SharedBuffer::new(400, 1);
        assert!(!p.admit(FlowId(0), 500).admitted());
        assert_eq!(p.total_occupancy(), 0);
        assert_eq!(p.flow_occupancy(FlowId(0)), 0);
    }
}
