//! Protective partial buffer sharing — the policy family of the
//! paper's reference \[2\] (Cidon, Guérin & Khamisy, "Protective buffer
//! management policies").
//!
//! A single *global* occupancy threshold `T < B` splits operation into
//! two regimes:
//!
//! * **uncongested** (`Q < T`): every packet is admitted — full
//!   statistical sharing, maximum utilization;
//! * **congested** (`Q ≥ T`): only packets from flows still *below
//!   their reserved share* `rᵢ` are admitted — the remaining `B − T`
//!   is a protected pool that aggressive flows cannot touch.
//!
//! Compared to the paper's per-flow thresholds this needs the same
//! per-flow state but activates it only under congestion, trading some
//! protection (a blast can seize the whole shared region `T` first)
//! for utilization. Included as the second comparator from the paper's
//! own lineage; the benches show where it sits between `SharedBuffer`
//! and `FixedThreshold`.

use super::threshold::{compute_thresholds, ThresholdOptions};
use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::{FlowId, FlowSpec};
use crate::units::Rate;

/// Two-regime protective policy (see module docs).
#[derive(Debug, Clone)]
pub struct PartialBufferSharing {
    occ: Occupancy,
    /// Global congestion threshold `T`, bytes.
    global_threshold: u64,
    /// Per-flow reserved shares `rᵢ` (Prop-2 formula over the protected
    /// pool), bytes.
    reserved: Vec<u64>,
}

impl PartialBufferSharing {
    /// Build with a congestion threshold at `T = threshold_frac·B`
    /// (e.g. 0.8) and reserved shares computed with the Prop-2 formula
    /// over the whole buffer (scaled per footnote 5).
    pub fn new(
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
        threshold_frac: f64,
    ) -> PartialBufferSharing {
        assert!(
            (0.0..=1.0).contains(&threshold_frac),
            "threshold fraction must be in [0, 1]"
        );
        let reserved = compute_thresholds(
            capacity_bytes,
            link_rate,
            specs,
            ThresholdOptions::default(),
        );
        PartialBufferSharing {
            occ: Occupancy::new(capacity_bytes, specs.len()),
            // One-time construction: T = frac·B, rounded to a byte.
            // qbm-lint: allow(float-cast)
            global_threshold: (capacity_bytes as f64 * threshold_frac).round() as u64,
            reserved,
        }
    }

    /// The configured global congestion threshold `T`, bytes.
    pub fn global_threshold(&self) -> u64 {
        self.global_threshold
    }

    /// True iff the buffer is currently in the congested regime.
    pub fn congested(&self) -> bool {
        self.occ.total() >= self.global_threshold
    }
}

impl BufferPolicy for PartialBufferSharing {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let congested = self.congested();
        let (Some(a), Some(&reserved)) = (self.occ.arrival(flow), self.reserved.get(flow.index()))
        else {
            return UNKNOWN_FLOW;
        };
        if !a.fits(len) {
            return Verdict::Drop(DropReason::BufferFull);
        }
        if congested && a.held() + len as u64 > reserved {
            return Verdict::Drop(DropReason::NoSharedSpace);
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

    fn threshold(&self, flow: FlowId) -> Option<u64> {
        self.reserved.get(flow.index()).copied()
    }

    fn name(&self) -> &'static str {
        "partial-buffer-sharing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ByteSize;

    const LINK: Rate = Rate::from_bps(48_000_000);

    fn specs() -> Vec<FlowSpec> {
        vec![
            FlowSpec::builder(FlowId(0))
                .token_rate(Rate::from_mbps(2.0))
                .bucket(ByteSize::from_kib(10).bytes())
                .build(),
            FlowSpec::builder(FlowId(1))
                .token_rate(Rate::from_mbps(8.0))
                .bucket(ByteSize::from_kib(20).bytes())
                .build(),
        ]
    }

    #[test]
    fn uncongested_regime_admits_everything() {
        let mut p = PartialBufferSharing::new(100_000, LINK, &specs(), 0.8);
        assert_eq!(p.global_threshold(), 80_000);
        // Flow 0 alone can fill the whole shared region even though its
        // reserved share is smaller (full sharing below T).
        let mut got = 0u64;
        while !p.congested() {
            assert!(p.admit(FlowId(0), 500).admitted());
            got += 500;
        }
        assert_eq!(got, 80_000);
    }

    #[test]
    fn congested_regime_enforces_reserved_shares() {
        let mut p = PartialBufferSharing::new(100_000, LINK, &specs(), 0.5);
        // Flow 1 fills past the congestion threshold.
        while p.admit(FlowId(1), 500).admitted() {}
        assert!(p.congested());
        // Flow 1 is now over its reserved share -> refused; flow 0 is
        // below its share -> still admitted from the protected pool.
        assert_eq!(
            p.admit(FlowId(1), 500),
            Verdict::Drop(DropReason::NoSharedSpace)
        );
        assert!(p.admit(FlowId(0), 500).admitted());
    }

    #[test]
    fn protected_pool_cannot_be_seized() {
        // After the blast, flow 0 can still reach its full reserved
        // share (thresholds tile B by footnote 5; the blast stopped at
        // its own share once congested).
        let mut p = PartialBufferSharing::new(100_000, LINK, &specs(), 0.5);
        while p.admit(FlowId(1), 500).admitted() {}
        let r0 = p.threshold(FlowId(0)).unwrap();
        let mut got = 0u64;
        while p.admit(FlowId(0), 500).admitted() {
            got += 500;
        }
        assert!(
            got + 500 >= r0.min(p.capacity() - p.flow_occupancy(FlowId(1))),
            "flow 0 got {got} of reserved {r0}"
        );
    }

    #[test]
    fn regime_relaxes_when_queue_drains() {
        let mut p = PartialBufferSharing::new(10_000, LINK, &specs(), 0.5);
        while p.admit(FlowId(1), 500).admitted() {}
        assert!(p.congested());
        while p.congested() {
            p.release(FlowId(1), 500);
        }
        // Back below T: full sharing again.
        assert!(p.admit(FlowId(1), 500).admitted());
    }

    #[test]
    fn frac_edges() {
        // frac = 0: always congested — pure fixed partition.
        let mut p = PartialBufferSharing::new(10_000, LINK, &specs(), 0.0);
        assert!(p.congested());
        // frac = 1: never congested until full — pure shared buffer.
        let mut q = PartialBufferSharing::new(10_000, LINK, &specs(), 1.0);
        while q.admit(FlowId(0), 500).admitted() {}
        assert_eq!(q.total_occupancy(), 10_000);
        let _ = p.admit(FlowId(0), 500);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let _ = PartialBufferSharing::new(1000, LINK, &specs(), 1.5);
    }
}
