//! Packet admission policies — the paper's contribution.
//!
//! Every policy implements [`BufferPolicy`]: an **O(1)** per-packet
//! `admit`/`release` pair over a shared buffer of `B` bytes. This is the
//! whole point of the paper — the decision uses only the arriving
//! packet's flow state plus a constant amount of global state, never a
//! sorted structure over all flows.
//!
//! | Policy | Paper section | Behaviour |
//! |---|---|---|
//! | [`SharedBuffer`] | §3.1 baseline | admit while the buffer has room |
//! | [`FixedThreshold`] | §2, §3.2 | per-flow cap `σᵢ + ρᵢ·B/R` (Props. 1–2) |
//! | [`BufferSharing`] | §3.3 | thresholds + *holes*/*headroom* sharing |
//! | [`AdaptiveSharing`] | §5 (future work) | sharing restricted to adaptive flows |

mod dynamic;
mod fred;
mod none;
mod protective;
mod red;
mod sharing;
mod threshold;

pub use dynamic::DynamicThreshold;
pub use fred::{Fred, FredConfig};
pub use none::SharedBuffer;
pub use protective::PartialBufferSharing;
pub use red::{Red, RedConfig};
pub use sharing::{AdaptiveSharing, BufferSharing};
pub use threshold::{compute_thresholds, raw_threshold, FixedThreshold, ThresholdOptions};

use crate::flow::{FlowId, FlowSpec};
use crate::units::Rate;

/// Outcome of an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet accepted; the policy has charged its occupancy.
    Admit,
    /// Packet dropped; state unchanged.
    Drop(DropReason),
}

impl Verdict {
    /// True iff the packet was admitted.
    pub fn admitted(self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No free space in the buffer at all.
    BufferFull,
    /// The flow would exceed its fixed threshold (partitioned schemes).
    OverThreshold,
    /// The flow is over its reserved share and the *holes* pool cannot
    /// cover the excess (sharing schemes).
    NoSharedSpace,
}

/// A buffer-management policy: constant-work per-packet admission.
///
/// Contract:
/// * `admit` either charges `len` bytes to `flow` and returns
///   [`Verdict::Admit`], or leaves all state untouched and returns a
///   [`Verdict::Drop`];
/// * every admitted packet is eventually `release`d exactly once with
///   the same `(flow, len)`;
/// * `total_occupancy() ≤ capacity()` always holds.
pub trait BufferPolicy: Send {
    /// Decide an arriving packet of `len` bytes from `flow`.
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict;

    /// Account a departing (transmitted) packet.
    fn release(&mut self, flow: FlowId, len: u32);

    /// Bytes currently charged to `flow`.
    fn flow_occupancy(&self, flow: FlowId) -> u64;

    /// Bytes currently charged in total.
    fn total_occupancy(&self) -> u64;

    /// Total buffer size `B` in bytes.
    fn capacity(&self) -> u64;

    /// The flow's configured threshold / reserved share, if the policy
    /// has one (None for [`SharedBuffer`]).
    fn threshold(&self, flow: FlowId) -> Option<u64>;

    /// Short policy name for reports ("fifo-thresh" etc. are composed
    /// one level up from this plus the scheduler name).
    fn name(&self) -> &'static str;

    /// The §3.3 sharing pools `(holes, headroom)` in bytes, for
    /// policies that maintain them (None otherwise). Observability
    /// hook: the simulator samples this to emit hole/headroom
    /// transition records without knowing the concrete policy.
    fn sharing_state(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Boxed policies forward to their contents, so both `Box<dyn
/// BufferPolicy>` (existing call sites) and `Box<Concrete>` satisfy the
/// `P: BufferPolicy` bound of the monomorphized simulator.
impl<P: BufferPolicy + ?Sized> BufferPolicy for Box<P> {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        (**self).admit(flow, len)
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        (**self).release(flow, len)
    }

    fn flow_occupancy(&self, flow: FlowId) -> u64 {
        (**self).flow_occupancy(flow)
    }

    fn total_occupancy(&self) -> u64 {
        (**self).total_occupancy()
    }

    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn threshold(&self, flow: FlowId) -> Option<u64> {
        (**self).threshold(flow)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn sharing_state(&self) -> Option<(u64, u64)> {
        (**self).sharing_state()
    }
}

/// Declarative policy selector used by experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// No management: shared buffer, drop-on-full.
    None,
    /// Fixed per-flow thresholds (footnote-5 scale-up enabled).
    Threshold,
    /// §3.3 buffer sharing with the given headroom `H` in bytes.
    Sharing {
        /// Maximum headroom `H`, bytes.
        headroom_bytes: u64,
    },
    /// §5 adaptive-only sharing with the given headroom.
    AdaptiveSharing {
        /// Maximum headroom `H`, bytes.
        headroom_bytes: u64,
    },
    /// Choudhury–Hahne dynamic threshold `α·(B−Q)` (comparator, \[1\]).
    DynamicThreshold {
        /// α numerator.
        alpha_num: u64,
        /// α denominator.
        alpha_den: u64,
    },
    /// Random Early Detection with Floyd's recommended parameters
    /// (comparator, \[3\]); the seed fixes the drop lottery.
    Red {
        /// Drop-lottery seed.
        seed: u64,
    },
    /// Flow RED with recommended parameters (comparator, \[5\]).
    Fred {
        /// Drop-lottery seed.
        seed: u64,
    },
    /// Protective partial buffer sharing with congestion threshold at
    /// the given fraction of B (comparator, the paper's reference \[2\]).
    PartialSharing {
        /// Congestion threshold as a per-mille fraction of B (e.g. 800
        /// = 0.8·B; integer so the enum stays `Eq`/hashable).
        threshold_permille: u16,
    },
}

impl PolicyKind {
    /// Instantiate the policy for a concrete link/buffer/flow-set.
    pub fn build(
        self,
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
    ) -> Box<dyn BufferPolicy> {
        match self {
            PolicyKind::None => Box::new(SharedBuffer::new(capacity_bytes, specs.len())),
            PolicyKind::Threshold => Box::new(FixedThreshold::new(
                capacity_bytes,
                link_rate,
                specs,
                ThresholdOptions::default(),
            )),
            PolicyKind::Sharing { headroom_bytes } => Box::new(BufferSharing::new(
                capacity_bytes,
                link_rate,
                specs,
                headroom_bytes,
            )),
            PolicyKind::AdaptiveSharing { headroom_bytes } => Box::new(AdaptiveSharing::new(
                capacity_bytes,
                link_rate,
                specs,
                headroom_bytes,
            )),
            PolicyKind::DynamicThreshold {
                alpha_num,
                alpha_den,
            } => Box::new(DynamicThreshold::new(
                capacity_bytes,
                specs.len(),
                alpha_num,
                alpha_den,
            )),
            PolicyKind::Red { seed } => Box::new(Red::new(
                capacity_bytes,
                specs.len(),
                RedConfig::recommended(capacity_bytes, seed),
            )),
            PolicyKind::Fred { seed } => Box::new(Fred::new(
                capacity_bytes,
                specs.len(),
                FredConfig::recommended(capacity_bytes, seed),
            )),
            PolicyKind::PartialSharing { threshold_permille } => {
                Box::new(PartialBufferSharing::new(
                    capacity_bytes,
                    link_rate,
                    specs,
                    // qbm-lint: allow(float-cast) — permille knob unpacked once at build time
                    threshold_permille as f64 / 1000.0,
                ))
            }
        }
    }

    /// Short label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::None => "no-mgmt",
            PolicyKind::Threshold => "thresh",
            PolicyKind::Sharing { .. } => "sharing",
            PolicyKind::AdaptiveSharing { .. } => "adaptive",
            PolicyKind::DynamicThreshold { .. } => "dyn-thresh",
            PolicyKind::Red { .. } => "red",
            PolicyKind::Fred { .. } => "fred",
            PolicyKind::PartialSharing { .. } => "pbs",
        }
    }
}

/// The verdict on an arrival from a flow the policy has no slot for: a
/// construction bug, so debug builds panic in the lookup first.
const UNKNOWN_FLOW: Verdict = Verdict::Drop(DropReason::BufferFull);

/// Shared per-flow occupancy bookkeeping used by every policy.
///
/// Maintains `total == Σ per_flow` (checked in debug builds) and
/// `total ≤ capacity`.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    per_flow: Vec<u64>,
    total: u64,
    capacity: u64,
}

/// An arrival's view of an [`Occupancy`]: its flow's bytes and the
/// buffer totals, from one lookup.
pub(crate) struct Arrival<'a> {
    held: &'a mut u64,
    total: &'a mut u64,
    capacity: u64,
}

impl Arrival<'_> {
    /// Bytes charged to the arriving packet's flow.
    #[inline]
    pub(crate) fn held(&self) -> u64 {
        *self.held
    }

    #[inline]
    pub(crate) fn fits(&self, len: u32) -> bool {
        *self.total + len as u64 <= self.capacity
    }

    #[inline]
    pub(crate) fn charge(self, len: u32) {
        *self.held += len as u64;
        *self.total += len as u64;
        debug_assert!(*self.total <= self.capacity, "occupancy above capacity");
    }
}

impl Occupancy {
    pub(crate) fn new(capacity: u64, flows: usize) -> Occupancy {
        Occupancy {
            per_flow: vec![0; flows],
            total: 0,
            capacity,
        }
    }

    /// An arrival from `flow`, to decide on and then
    /// [`Arrival::charge`].
    #[inline]
    pub(crate) fn arrival(&mut self, flow: FlowId) -> Option<Arrival<'_>> {
        let Some(held) = self.per_flow.get_mut(flow.index()) else {
            debug_assert!(false, "unknown {flow}");
            return None;
        };
        Some(Arrival {
            held,
            total: &mut self.total,
            capacity: self.capacity,
        })
    }

    /// Release `len` bytes of `flow`; returns the bytes it still holds.
    #[inline]
    pub(crate) fn credit(&mut self, flow: FlowId, len: u32) -> Option<u64> {
        let Some(q) = self.per_flow.get_mut(flow.index()) else {
            debug_assert!(false, "unknown {flow}");
            return None;
        };
        assert!(
            *q >= len as u64,
            "release of {len} B from {flow} holding {q} B"
        );
        *q -= len as u64;
        self.total -= len as u64;
        Some(*q)
    }

    /// Bytes charged to `flow` (0 for an unknown flow).
    #[inline]
    pub(crate) fn of(&self, flow: FlowId) -> u64 {
        let q = self.per_flow.get(flow.index());
        debug_assert!(q.is_some(), "unknown {flow}");
        q.copied().unwrap_or(0)
    }

    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        assert_eq!(self.per_flow.iter().sum::<u64>(), self.total);
        assert!(self.total <= self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;

    fn spec(i: u32, rho_mbps: f64, bucket: u64) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(bucket)
            .build()
    }

    #[test]
    fn kind_builds_matching_policy() {
        let specs = vec![spec(0, 2.0, 50_000), spec(1, 8.0, 100_000)];
        let link = Rate::from_mbps(48.0);
        for (kind, name) in [
            (PolicyKind::None, "shared-buffer"),
            (PolicyKind::Threshold, "fixed-threshold"),
            (
                PolicyKind::Sharing {
                    headroom_bytes: 10_000,
                },
                "buffer-sharing",
            ),
            (
                PolicyKind::AdaptiveSharing {
                    headroom_bytes: 10_000,
                },
                "adaptive-sharing",
            ),
        ] {
            let p = kind.build(1_000_000, link, &specs);
            assert_eq!(p.name(), name);
            assert_eq!(p.capacity(), 1_000_000);
            assert_eq!(p.total_occupancy(), 0);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::None.label(), "no-mgmt");
        assert_eq!(PolicyKind::Threshold.label(), "thresh");
        assert_eq!(PolicyKind::Sharing { headroom_bytes: 1 }.label(), "sharing");
    }

    #[test]
    fn occupancy_bookkeeping() {
        let mut o = Occupancy::new(1000, 2);
        assert!(o.arrival(FlowId(0)).unwrap().fits(1000));
        assert!(!o.arrival(FlowId(0)).unwrap().fits(1001));
        o.arrival(FlowId(0)).unwrap().charge(600);
        o.arrival(FlowId(1)).unwrap().charge(400);
        o.check_invariants();
        assert_eq!(o.of(FlowId(0)), 600);
        assert_eq!(o.total(), 1000);
        assert!(!o.arrival(FlowId(1)).unwrap().fits(1));
        o.credit(FlowId(0), 600);
        assert_eq!(o.total(), 400);
        o.check_invariants();
    }

    #[test]
    #[should_panic(expected = "release")]
    fn over_credit_panics() {
        let mut o = Occupancy::new(1000, 1);
        o.arrival(FlowId(0)).unwrap().charge(100);
        o.credit(FlowId(0), 101);
    }
}
