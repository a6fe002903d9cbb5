//! Buffer sharing with *holes* and *headroom* — the paper's §3.3 scheme.
//!
//! Reserved shares are computed exactly as in the fixed-partition case
//! (`σᵢ + ρᵢ·B/R`, footnote-5 scaled), but free space is now usable by
//! everybody under a two-pool accounting of the free bytes:
//!
//! * **headroom** `h ≤ H` — free space reserved for flows *below* their
//!   threshold (protects rate guarantees);
//! * **holes** `v` — the remaining free space, shareable by flows
//!   *above* their threshold.
//!
//! Invariant maintained at every instant: `h + v = B − Q` where `Q` is
//! the total occupancy.
//!
//! Admission (paper text, §3.3):
//! * a *below-threshold* packet takes from the holes first, then from
//!   the headroom; it is dropped only when the buffer is truly full;
//! * an *above-threshold* packet is accepted only from the holes, and
//!   only if the flow's excess over its reserved share is smaller than
//!   the holes that remain — the Choudhury–Hahne style self-limiting
//!   rule that shrinks everyone's grabbing ability as free space runs
//!   out;
//! * on departure, freed space first refills the headroom up to `H`,
//!   and only the overflow becomes holes again:
//!   `h += len; v += max(h − H, 0); h = min(h, H)`.

use super::threshold::{compute_thresholds, ThresholdOptions};
use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::{FlowId, FlowSpec};
use crate::units::Rate;

/// The §3.3 holes/headroom buffer-sharing policy.
#[derive(Debug, Clone)]
pub struct BufferSharing {
    occ: Occupancy,
    /// Per-flow reserved shares (same formula as [`super::FixedThreshold`]).
    reserved: Vec<u64>,
    /// Current headroom `h`, bytes.
    headroom: u64,
    /// Current holes `v`, bytes.
    holes: u64,
    /// Maximum headroom `H`, bytes.
    headroom_max: u64,
}

impl BufferSharing {
    /// Build the policy for `specs` sharing `capacity_bytes` in front of
    /// a `link_rate` link, with maximum headroom `headroom_bytes` (the
    /// paper sweeps this in Figure 7; §3.3 uses H = 2 MBytes).
    pub fn new(
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
        headroom_bytes: u64,
    ) -> BufferSharing {
        let reserved = compute_thresholds(
            capacity_bytes,
            link_rate,
            specs,
            ThresholdOptions::default(),
        );
        let headroom = headroom_bytes.min(capacity_bytes);
        BufferSharing {
            occ: Occupancy::new(capacity_bytes, specs.len()),
            reserved,
            headroom,
            holes: capacity_bytes - headroom,
            headroom_max: headroom_bytes,
        }
    }

    /// Build with explicitly supplied per-flow reserved shares (bytes)
    /// — the §4 hybrid computes them per queue instead of per link.
    pub fn with_reserved(
        capacity_bytes: u64,
        reserved: Vec<u64>,
        headroom_bytes: u64,
    ) -> BufferSharing {
        let headroom = headroom_bytes.min(capacity_bytes);
        BufferSharing {
            occ: Occupancy::new(capacity_bytes, reserved.len()),
            reserved,
            headroom,
            holes: capacity_bytes - headroom,
            headroom_max: headroom_bytes,
        }
    }

    /// Current holes `v` (shareable free bytes).
    pub fn holes(&self) -> u64 {
        self.holes
    }

    /// Current headroom `h` (protected free bytes).
    pub fn headroom(&self) -> u64 {
        self.headroom
    }

    /// Configured maximum headroom `H`.
    pub fn headroom_max(&self) -> u64 {
        self.headroom_max
    }

    /// The free-space split invariant `h + v = B − Q`.
    #[cfg(test)]
    fn check_invariants(&self) {
        self.occ.check_invariants();
        assert_eq!(
            self.headroom + self.holes,
            self.occ.capacity() - self.occ.total(),
            "free-space split broken"
        );
        assert!(self.headroom <= self.headroom_max.min(self.occ.capacity()));
    }

    /// Debug-build conservation check: the free-space split
    /// `h + v = B − Q` (equivalently holes + headroom + allocated = B)
    /// and the headroom cap. Run on every admit/release so the sharing
    /// path cannot silently leak buffer.
    #[inline]
    fn debug_check_split(&self) {
        debug_assert_eq!(
            self.headroom + self.holes,
            self.occ.capacity() - self.occ.total(),
            "free-space split broken: h + v != B - Q"
        );
        debug_assert!(
            self.headroom <= self.headroom_max.min(self.occ.capacity()),
            "headroom above its cap"
        );
    }

    fn admit_inner(&mut self, flow: FlowId, len: u32, may_share: bool) -> Verdict {
        let verdict = self.admit_decide(flow, len, may_share);
        self.debug_check_split();
        verdict
    }

    fn admit_decide(&mut self, flow: FlowId, len: u32, may_share: bool) -> Verdict {
        let len64 = len as u64;
        let (Some(a), Some(&reserved)) = (self.occ.arrival(flow), self.reserved.get(flow.index()))
        else {
            return UNKNOWN_FLOW;
        };
        let q = a.held();
        if q + len64 <= reserved {
            // Below threshold: holes first, then headroom.
            let from_holes = self.holes.min(len64);
            let rem = len64 - from_holes;
            if rem <= self.headroom {
                self.holes -= from_holes;
                self.headroom -= rem;
                a.charge(len);
                Verdict::Admit
            } else {
                Verdict::Drop(DropReason::BufferFull)
            }
        } else {
            // Above threshold: holes only, excess-limited.
            if !may_share {
                return Verdict::Drop(DropReason::OverThreshold);
            }
            let excess = q.saturating_sub(reserved);
            if len64 <= self.holes && excess + len64 <= self.holes {
                self.holes -= len64;
                a.charge(len);
                Verdict::Admit
            } else {
                Verdict::Drop(DropReason::NoSharedSpace)
            }
        }
    }

    fn release_inner(&mut self, flow: FlowId, len: u32) {
        self.occ.credit(flow, len);
        // Paper's departure pseudocode, verbatim.
        self.headroom += len as u64;
        self.holes += self.headroom.saturating_sub(self.headroom_max);
        self.headroom = self.headroom.min(self.headroom_max);
        self.debug_check_split();
    }
}

impl BufferPolicy for BufferSharing {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        self.admit_inner(flow, len, true)
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        self.release_inner(flow, len);
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
        "buffer-sharing"
    }

    fn sharing_state(&self) -> Option<(u64, u64)> {
        Some((self.holes, self.headroom))
    }
}

/// §5 future-work variant: only flows marked `adaptive` may borrow from
/// the holes when above threshold; non-adaptive flows behave as under
/// [`super::FixedThreshold`]. This gives adaptive (congestion-reactive)
/// traffic access to idle bandwidth without letting non-adaptive blasts
/// capture it.
#[derive(Debug, Clone)]
pub struct AdaptiveSharing {
    inner: BufferSharing,
    adaptive: Vec<bool>,
}

impl AdaptiveSharing {
    /// Same configuration as [`BufferSharing::new`]; the adaptive mask
    /// comes from [`FlowSpec::adaptive`].
    pub fn new(
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
        headroom_bytes: u64,
    ) -> AdaptiveSharing {
        AdaptiveSharing {
            inner: BufferSharing::new(capacity_bytes, link_rate, specs, headroom_bytes),
            adaptive: specs.iter().map(|s| s.adaptive).collect(),
        }
    }
}

impl BufferPolicy for AdaptiveSharing {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let Some(&may_share) = self.adaptive.get(flow.index()) else {
            debug_assert!(false, "unknown {flow}");
            return UNKNOWN_FLOW;
        };
        self.inner.admit_inner(flow, len, may_share)
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        self.inner.release_inner(flow, len);
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
        "adaptive-sharing"
    }

    fn sharing_state(&self) -> Option<(u64, u64)> {
        self.inner.sharing_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ByteSize;
    use proptest::prelude::*;

    const LINK: Rate = Rate::from_bps(48_000_000);

    fn spec(i: u32, rho_mbps: f64, bucket_kib: u64, adaptive: bool) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(ByteSize::from_kib(bucket_kib).bytes())
            .adaptive(adaptive)
            .build()
    }

    fn two_flows() -> Vec<FlowSpec> {
        vec![spec(0, 2.0, 10, false), spec(1, 2.0, 10, true)]
    }

    #[test]
    fn initial_split_honours_headroom_cap() {
        let p = BufferSharing::new(100_000, LINK, &two_flows(), 30_000);
        assert_eq!(p.headroom(), 30_000);
        assert_eq!(p.holes(), 70_000);
        // H larger than B: all free space is headroom.
        let p2 = BufferSharing::new(100_000, LINK, &two_flows(), 1 << 30);
        assert_eq!(p2.headroom(), 100_000);
        assert_eq!(p2.holes(), 0);
    }

    #[test]
    fn over_threshold_flow_can_borrow_holes() {
        // Unlike FixedThreshold, a bursty flow may exceed its reserved
        // share while holes remain.
        let specs = two_flows();
        let mut p = BufferSharing::new(100_000, LINK, &specs, 10_000);
        let reserved = p.threshold(FlowId(0)).unwrap();
        let mut got = 0u64;
        while p.admit(FlowId(0), 500).admitted() {
            got += 500;
        }
        assert!(got > reserved, "no sharing happened: {got} <= {reserved}");
        p.check_invariants();
    }

    #[test]
    fn excess_is_limited_by_remaining_holes() {
        // The self-limiting rule: once excess ≈ holes, further
        // over-threshold packets are refused even though holes remain.
        let specs = two_flows();
        let mut p = BufferSharing::new(100_000, LINK, &specs, 10_000);
        while p.admit(FlowId(0), 500).admitted() {}
        let reserved = p.threshold(FlowId(0)).unwrap();
        let excess = p.flow_occupancy(FlowId(0)).saturating_sub(reserved);
        // It stopped with holes still available but excess + len > holes.
        assert!(excess <= 100_000 - reserved);
        assert!(excess + 500 > p.holes() || 500 > p.holes());
        assert_eq!(
            p.admit(FlowId(0), 500),
            Verdict::Drop(DropReason::NoSharedSpace)
        );
        p.check_invariants();
    }

    #[test]
    fn headroom_protects_below_threshold_flows() {
        // Flow 0 grabs all the holes; flow 1 (below threshold) can still
        // get in through the headroom.
        let specs = two_flows();
        let mut p = BufferSharing::new(100_000, LINK, &specs, 20_000);
        while p.admit(FlowId(0), 500).admitted() {}
        assert!(p.headroom() > 0, "headroom consumed by over-threshold flow");
        assert!(
            p.admit(FlowId(1), 500).admitted(),
            "below-threshold flow locked out despite headroom"
        );
        p.check_invariants();
    }

    #[test]
    fn departure_refills_headroom_before_holes() {
        let specs = two_flows();
        let mut p = BufferSharing::new(100_000, LINK, &specs, 20_000);
        // Fill the buffer completely via both flows.
        while p.admit(FlowId(0), 500).admitted() {}
        while p.admit(FlowId(1), 500).admitted() {}
        let h_before = p.headroom();
        assert!(h_before < 20_000);
        let holes_before = p.holes();
        // One departure: all 500 B go to headroom (it is below H).
        p.release(FlowId(0), 500);
        assert_eq!(p.headroom(), h_before + 500);
        assert_eq!(p.holes(), holes_before);
        p.check_invariants();
        // Once headroom is saturated, departures become holes.
        for _ in 0..200 {
            p.release(FlowId(0), 500);
            p.check_invariants();
            if p.headroom() == 20_000 {
                break;
            }
        }
        assert_eq!(p.headroom(), 20_000);
        let holes_mid = p.holes();
        p.release(FlowId(1), 500);
        assert_eq!(p.holes(), holes_mid + 500);
        assert_eq!(p.headroom(), 20_000);
        p.check_invariants();
    }

    #[test]
    fn zero_headroom_degenerates_to_pure_sharing() {
        let specs = two_flows();
        let mut p = BufferSharing::new(50_000, LINK, &specs, 0);
        assert_eq!(p.headroom(), 0);
        assert_eq!(p.holes(), 50_000);
        while p.admit(FlowId(0), 500).admitted() {}
        p.release(FlowId(0), 500);
        assert_eq!(p.headroom(), 0); // H = 0: frees go straight to holes
        p.check_invariants();
    }

    #[test]
    fn adaptive_variant_blocks_nonadaptive_excess() {
        // Probe each flow against a fresh, otherwise idle buffer: the
        // non-adaptive flow must stop at its threshold while the
        // adaptive one may keep borrowing from the holes. (Note the
        // footnote-5 scale-up makes thresholds tile the buffer, so the
        // holes available for borrowing are the other flow's unused
        // reserved share.)
        let specs = two_flows(); // flow 0 non-adaptive, flow 1 adaptive
        let mut p = AdaptiveSharing::new(200_000, LINK, &specs, 10_000);
        let r0 = p.threshold(FlowId(0)).unwrap();
        while p.admit(FlowId(0), 500).admitted() {}
        assert!(
            p.flow_occupancy(FlowId(0)) <= r0,
            "non-adaptive flow borrowed"
        );
        let last = p.admit(FlowId(0), 500);
        assert_eq!(last, Verdict::Drop(DropReason::OverThreshold));

        let mut p = AdaptiveSharing::new(200_000, LINK, &specs, 10_000);
        let r1 = p.threshold(FlowId(1)).unwrap();
        while p.admit(FlowId(1), 500).admitted() {}
        assert!(
            p.flow_occupancy(FlowId(1)) > r1,
            "adaptive flow never borrowed"
        );
        assert_eq!(
            p.admit(FlowId(1), 500),
            Verdict::Drop(DropReason::NoSharedSpace)
        );
    }

    proptest! {
        /// Random admit/release interleavings never break the free-space
        /// split, never overflow the buffer, and never corrupt per-flow
        /// accounting.
        #[test]
        fn sharing_invariants_hold_under_random_workload(
            ops in proptest::collection::vec((0u32..4, 1u32..2000), 1..400),
            headroom in 0u64..150_000,
        ) {
            let specs = vec![
                spec(0, 2.0, 10, false),
                spec(1, 8.0, 20, true),
                spec(2, 0.4, 5, false),
                spec(3, 16.0, 50, true),
            ];
            let mut p = BufferSharing::new(100_000, LINK, &specs, headroom);
            // Track in-buffer packets so releases are always legal.
            let mut inflight: Vec<Vec<u32>> = vec![Vec::new(); 4];
            for (f, len) in ops {
                let flow = FlowId(f);
                // Alternate: try admit; if a packet is queued, release
                // the oldest half the time (driven by len parity).
                if len % 2 == 0 || inflight[f as usize].is_empty() {
                    if p.admit(flow, len).admitted() {
                        inflight[f as usize].push(len);
                    }
                } else {
                    let l = inflight[f as usize].remove(0);
                    p.release(flow, l);
                }
                p.check_invariants();
                prop_assert!(p.total_occupancy() <= p.capacity());
            }
        }

        /// The same workload through AdaptiveSharing keeps non-adaptive
        /// flows at or below their reserved share.
        #[test]
        fn adaptive_never_lets_nonadaptive_exceed_reserved(
            ops in proptest::collection::vec((0u32..2, 1u32..2000), 1..300),
        ) {
            let specs = vec![spec(0, 2.0, 10, false), spec(1, 8.0, 20, true)];
            let mut p = AdaptiveSharing::new(100_000, LINK, &specs, 5_000);
            let r0 = p.threshold(FlowId(0)).unwrap();
            let mut inflight: Vec<Vec<u32>> = vec![Vec::new(); 2];
            for (f, len) in ops {
                let flow = FlowId(f);
                if len % 2 == 0 || inflight[f as usize].is_empty() {
                    if p.admit(flow, len).admitted() {
                        inflight[f as usize].push(len);
                    }
                } else {
                    let l = inflight[f as usize].remove(0);
                    p.release(flow, l);
                }
                prop_assert!(p.flow_occupancy(FlowId(0)) <= r0);
            }
        }
    }
}
