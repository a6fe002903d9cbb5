//! Fixed-point virtual time (Q32.32) and the Virtual Clock scheduler.
//!
//! # [`VirtualTime`]
//!
//! Every timestamp scheduler in this crate — WFQ's GPS clock, WF²Q+'s
//! system virtual time, Virtual Clock's per-flow stamps — is
//! rate-normalized arithmetic over "virtual seconds": quantities of the
//! form `len·8/φ` and `Δt·R/Σφ`. Parekh & Gallager's GPS analysis (and
//! the SFQ/WF²Q line after it) never needs real-valued time, only a
//! totally ordered clock with enough resolution; floats were an
//! implementation convenience that cost us NaN-handling in `Ord`,
//! ulp-dependent tie-breaks, and a lint allowlist. [`VirtualTime`] is
//! the replacement: an unsigned Q32.32 fixed-point count of virtual
//! seconds (resolution 2⁻³² s ≈ 0.23 ns) with
//!
//! * exact, total `Ord` (derived integer comparison — no NaN, no
//!   `partial_cmp(..).expect`),
//! * saturating arithmetic (a pathological workload pegs at the
//!   sentinel instead of wrapping or panicking),
//! * round-to-nearest construction from the exact rational inputs
//!   (`u128` intermediates, ties away from zero).
//!
//! ## Why Q32.32 suffices at 48 Mb/s
//!
//! The integer half covers 2³² virtual seconds. WFQ virtual time grows
//! at `R/Σφ_active ≤ R/φ_min`; with the paper's workloads
//! (`R = 48 Mb/s`, `φ_min = 300 kb/s`) that is at most 160 virtual
//! seconds per real second — years of simulated time before overflow.
//! The fractional half resolves 2⁻³² s, three decimal orders below the
//! smallest per-packet increment in the workloads
//! (`len·8/φ ≥ 4000/48e6 ≈ 8.3e-5 s`), so distinct tag arithmetic
//! stays distinct and ties are *semantic* (identical rationals), not
//! rounding artifacts. All constructors round the exact rational to
//! the nearest representable value, so equal rationals map to equal
//! fixed-point values regardless of the operation order that produced
//! them — the property the float implementation could not offer.
//!
//! # [`VirtualClock`]
//!
//! Zhang's Virtual Clock — the timestamp scheduler family the paper
//! cites via Leap Forward Virtual Clock \[8\]. Each flow stamps packets
//! with
//!
//! ```text
//! VCᵖ = max(now, VCᵢ_prev) + len·8 / ρᵢ
//! ```
//!
//! and the link serves the smallest stamp. Compared to WFQ there is no
//! GPS virtual-time machinery — the clock is *real* time — which makes
//! it cheaper but famously unfair over long horizons: a flow that
//! under-uses its rate builds no credit, while in WFQ it would.
//! Per-flow stamps are non-decreasing, so the earliest stamp overall is
//! always at some flow's queue head: the packet order lives in an
//! [`ActiveSet`] slot per flow instead of a heap.

use crate::active_set::ActiveSet;
use crate::scheduler::{PacketRef, Scheduler};
use qbm_core::units::{Dur, Time, NS_PER_SEC};
use std::collections::VecDeque;

/// Unsigned Q32.32 fixed-point virtual time (see module docs).
///
/// The all-ones bit pattern is reserved as the [`VirtualTime::MAX`]
/// sentinel (empty slots in [`ActiveSet`]);
/// saturating arithmetic therefore tops out *at* the sentinel, and
/// callers that feed results into an active set assert they stay below
/// it — unreachable for any workload whose virtual clock fits 2³²
/// seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualTime(u64);

/// Round-to-nearest `num / den` (ties away from zero), saturating to
/// `u64::MAX`.
#[inline]
fn div_round(num: u128, den: u128) -> u64 {
    debug_assert!(den > 0, "division by zero in virtual-time arithmetic");
    let q = (num + den / 2) / den;
    u64::try_from(q).unwrap_or(u64::MAX)
}

impl VirtualTime {
    /// Virtual time zero.
    pub const ZERO: VirtualTime = VirtualTime(0);
    /// Saturation point, reserved as the empty-slot sentinel.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);
    /// Fractional bits of the Q32.32 representation.
    pub const FRAC_BITS: u32 = 32;

    /// Construct from a raw Q32.32 bit pattern.
    #[inline]
    pub const fn from_raw(raw: u64) -> VirtualTime {
        VirtualTime(raw)
    }

    /// The raw Q32.32 bit pattern.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The virtual-service increment `len·8 / weight` seconds — a
    /// packet's tag advance for a class of GPS weight (or reserved
    /// rate) `weight_bps`.
    #[inline]
    pub fn service(len_bytes: u32, weight_bps: u64) -> VirtualTime {
        debug_assert!(weight_bps > 0, "zero weight");
        let bits = (len_bytes as u128 * 8) << Self::FRAC_BITS;
        VirtualTime(div_round(bits, weight_bps as u128))
    }

    /// Real time `t` on the virtual axis (identity mapping, quantized):
    /// `t` nanoseconds → `t·10⁻⁹` virtual seconds.
    #[inline]
    pub fn from_time(t: Time) -> VirtualTime {
        VirtualTime(div_round(
            (t.as_nanos() as u128) << Self::FRAC_BITS,
            NS_PER_SEC as u128,
        ))
    }

    /// GPS virtual-time advance over a real interval `dt` while the
    /// active weight sum is `active_weight`: `dt·link/Σφ` seconds.
    #[inline]
    pub fn gps_increment(dt: Dur, link_bps: u64, active_weight: u64) -> VirtualTime {
        debug_assert!(active_weight > 0, "GPS increment with idle server");
        let bits = (dt.as_nanos() as u128 * link_bps as u128) << Self::FRAC_BITS;
        VirtualTime(div_round(bits, NS_PER_SEC as u128 * active_weight as u128))
    }

    /// Inverse of [`gps_increment`](Self::gps_increment): the real
    /// duration for GPS virtual time to advance by `self` at rate
    /// `link/Σφ`. Saturates on overflow.
    #[inline]
    pub fn gps_real_dur(self, link_bps: u64, active_weight: u64) -> Dur {
        debug_assert!(link_bps > 0, "zero link rate");
        let num = (self.0 as u128)
            .checked_mul(active_weight as u128)
            .and_then(|x| x.checked_mul(NS_PER_SEC as u128));
        match num {
            Some(n) => Dur(div_round(n, (link_bps as u128) << Self::FRAC_BITS)),
            None => Dur(u64::MAX),
        }
    }

    /// Saturating addition.
    #[inline]
    #[must_use]
    pub fn saturating_add(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(other.0))
    }
}

/// Virtual Clock over per-flow rate stamps (see module docs).
#[derive(Debug)]
pub struct VirtualClock {
    /// Per-flow reserved rates ρᵢ, b/s.
    rates: Vec<u64>,
    /// Per-flow last assigned stamp.
    vclock: Vec<VirtualTime>,
    /// Per-flow `(len, len·8/ρᵢ)` memo — packet sizes repeat, so the
    /// service division is shared across consecutive packets.
    service_cache: Vec<(u32, VirtualTime)>,
    /// Per-flow packet queues with each packet's stamp.
    queues: Vec<VecDeque<(PacketRef, VirtualTime)>>,
    /// Queue heads keyed `(stamp, seq)` — transmission order.
    heads: ActiveSet,
    len: usize,
}

impl VirtualClock {
    /// One reserved rate per flow (b/s, all positive).
    pub fn new(rates_bps: Vec<u64>) -> VirtualClock {
        assert!(!rates_bps.is_empty(), "no flows");
        assert!(rates_bps.iter().all(|&r| r > 0), "rates must be positive");
        let n = rates_bps.len();
        VirtualClock {
            rates: rates_bps,
            vclock: vec![VirtualTime::ZERO; n],
            service_cache: vec![(0, VirtualTime::ZERO); n],
            queues: vec![VecDeque::new(); n],
            heads: ActiveSet::with_slots(n),
            len: 0,
        }
    }

    /// `len·8/ρ_f` through the per-flow memo.
    #[inline]
    fn service(&mut self, f: usize, len: u32) -> VirtualTime {
        let (l, s) = self.service_cache[f];
        if l == len {
            return s;
        }
        let s = VirtualTime::service(len, self.rates[f]);
        self.service_cache[f] = (len, s);
        s
    }
}

impl Scheduler for VirtualClock {
    fn enqueue(&mut self, now: Time, pkt: PacketRef) {
        let f = pkt.flow.index();
        let start = VirtualTime::from_time(now).max(self.vclock[f]);
        let stamp = start.saturating_add(self.service(f, pkt.len));
        self.vclock[f] = stamp;
        if self.queues[f].is_empty() {
            self.heads.set(f, stamp, pkt.seq);
        }
        self.queues[f].push_back((pkt, stamp));
        self.len += 1;
    }

    fn dequeue(&mut self, _now: Time) -> Option<PacketRef> {
        let (f, _, seq) = self.heads.peek()?;
        let Some((pkt, _)) = self.queues[f].pop_front() else {
            debug_assert!(false, "active set/queue desync");
            return None;
        };
        debug_assert_eq!(pkt.seq, seq);
        match self.queues[f].front() {
            Some(&(next, stamp)) => self.heads.set(f, stamp, next.seq),
            None => self.heads.clear(f),
        }
        self.len -= 1;
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "vclock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt, share_by_flow};
    use qbm_core::units::{Dur, Rate};

    const LINK: Rate = Rate::from_bps(48_000_000);

    /// Q32.32 → f64 seconds, for approximate assertions only.
    fn secs(v: VirtualTime) -> f64 {
        v.raw() as f64 / (1u64 << 32) as f64
    }

    #[test]
    fn service_matches_rational() {
        // 500 B at 1 Mb/s = 4 ms of virtual service.
        let v = VirtualTime::service(500, 1_000_000);
        assert!((secs(v) - 4.0e-3).abs() < 1e-9);
        // Equal rationals from different operand scales agree exactly.
        assert_eq!(
            VirtualTime::service(1000, 2_000_000),
            VirtualTime::service(500, 1_000_000)
        );
    }

    #[test]
    fn from_time_round_trips_within_half_ulp() {
        for ns in [0u64, 1, 999, 1_000_000_007, 48 * 1_000_000_000] {
            let v = VirtualTime::from_time(Time(ns));
            let back = secs(v) * 1e9;
            assert!(
                (back - ns as f64).abs() <= 0.12,
                "ns={ns} round-tripped to {back}"
            );
        }
    }

    #[test]
    fn gps_increment_and_inverse_agree() {
        // V needed to expire a 4e-3 s tag at Σφ=2e6 on a 48 Mb/s link:
        // real dt = 4e-3·2e6/48e6 ≈ 166.7 µs.
        let tag = VirtualTime::service(500, 1_000_000);
        let dt = tag.gps_real_dur(48_000_000, 2_000_000);
        assert!((dt.as_nanos() as i64 - 166_667).abs() <= 1, "{dt:?}");
        let v = VirtualTime::gps_increment(dt, 48_000_000, 2_000_000);
        // Inverse within one ns of dt rounding: ≤ link/Σφ·2³²/10⁹ =
        // 24·2³²/10⁹ ≈ 104 raw units.
        assert!(v.raw().abs_diff(tag.raw()) <= 104, "{v:?} vs {tag:?}");
    }

    #[test]
    fn saturating_arithmetic_pegs_at_sentinel() {
        let near = VirtualTime::from_raw(u64::MAX - 1);
        assert_eq!(near.saturating_add(near), VirtualTime::MAX);
        assert_eq!(
            VirtualTime::ZERO.saturating_sub(near),
            VirtualTime::ZERO,
            "subtraction clamps at zero"
        );
        let huge = VirtualTime::MAX.gps_real_dur(1, u64::MAX);
        assert_eq!(huge, Dur(u64::MAX), "inverse saturates, no panic");
    }

    #[test]
    fn ordering_is_exact_and_total() {
        let a = VirtualTime::from_raw(1);
        let b = VirtualTime::from_raw(2);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a, a.max(a));
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn backlogged_shares_follow_rates() {
        let mut v = VirtualClock::new(vec![2_000_000, 1_000_000]);
        let mut seq = 0;
        for _ in 0..300 {
            for f in 0..2 {
                v.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut v, LINK, Time::ZERO);
        let share = share_by_flow(&order, 300, 2);
        let ratio = share[0] as f64 / share[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn idle_flow_builds_no_credit_unlike_wfq() {
        // Flow 0 backlogs for a long real time while flow 1 idles; when
        // flow 1 wakes at t, its stamp starts at *now*, not at a lagging
        // virtual time — so only ~one packet's worth of priority, not a
        // whole backlog jump.
        let mut v = VirtualClock::new(vec![1_000_000, 1_000_000]);
        for s in 0..50 {
            v.enqueue(Time::ZERO, pkt(0, 500, 0, s));
        }
        // Flow 0's stamps run 4ms apart up to 200 ms of virtual debt;
        // flow 1 arrives at t = 8 ms with stamp 8 ms + 4 ms.
        let t = Time::ZERO + Dur::from_millis(8);
        v.enqueue(t, pkt(1, 500, 8, 100));
        let order = drain(&mut v, LINK, t);
        let pos = order.iter().position(|(_, p)| p.flow.index() == 1).unwrap();
        // Stamp 12 ms beats flow-0 stamps 16 ms+ (packets 4..): pos ≈ 3.
        assert!((2..5).contains(&pos), "pos {pos}");
    }

    #[test]
    fn per_flow_order_and_determinism() {
        let build = || {
            let mut v = VirtualClock::new(vec![3_000_000, 1_000_000, 400_000]);
            let mut seq = 0;
            for _ in 0..100 {
                for f in 0..3 {
                    v.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                    seq += 1;
                }
            }
            drain(&mut v, LINK, Time::ZERO)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        let mut last = [None::<u64>; 3];
        for (_, p) in a {
            let f = p.flow.index();
            if let Some(prev) = last[f] {
                assert!(p.seq > prev, "flow {f} reordered");
            }
            last[f] = Some(p.seq);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = VirtualClock::new(vec![0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Time → VirtualTime round-trips within half a quantum:
        /// |from_time(t)·10⁹ − t| ≤ ½·(10⁹/2³²) + ½ ns of combined
        /// rounding, i.e. the map is faithful at ns resolution.
        #[test]
        fn from_time_round_trip(ns in 0u64..(1u64 << 52)) {
            let v = VirtualTime::from_time(Time(ns));
            // Back-convert exactly in integers: raw·1e9/2^32, rounded.
            let back = ((v.raw() as u128 * 1_000_000_000) + (1u128 << 31)) >> 32;
            let err = (back as i128 - ns as i128).abs();
            prop_assert!(err <= 1, "ns={ns} back={back}");
        }

        /// Construction is monotone: later real times and larger
        /// service demands never map to smaller virtual times.
        #[test]
        fn construction_is_monotone(
            a in 0u64..(1u64 << 50),
            b in 0u64..(1u64 << 50),
            len in 1u32..65_536,
            w1 in 1u64..100_000_000,
            w2 in 1u64..100_000_000,
        ) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(VirtualTime::from_time(Time(lo)) <= VirtualTime::from_time(Time(hi)));
            let (wl, wh) = (w1.min(w2), w1.max(w2));
            // Smaller weight ⇒ larger (or equal) service time.
            prop_assert!(VirtualTime::service(len, wl) >= VirtualTime::service(len, wh));
        }

        /// Saturating ops never wrap: a+b is ≥ both operands, a−b ≤ a.
        #[test]
        fn saturation_never_wraps(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (va, vb) = (VirtualTime::from_raw(a), VirtualTime::from_raw(b));
            let sum = va.saturating_add(vb);
            prop_assert!(sum >= va && sum >= vb);
            prop_assert!(va.saturating_sub(vb) <= va);
        }

        /// gps_real_dur is the (rounded) inverse of gps_increment:
        /// advancing for the computed duration lands within a few ulp
        /// of the requested virtual delta.
        #[test]
        fn gps_inverse_round_trip(
            raw in 1u64..(1u64 << 45),
            link in 1_000_000u64..1_000_000_000,
            aw in 1_000u64..100_000_000,
        ) {
            let target = VirtualTime::from_raw(raw);
            let dt = target.gps_real_dur(link, aw);
            let got = VirtualTime::gps_increment(dt, link, aw);
            // One ns of dt maps to ≤ link/aw·2³²/10⁹ raw units; allow
            // a single ns of rounding slack each way.
            let ulp_per_ns = ((link as u128) << 32) / (aw as u128 * 1_000_000_000) + 1;
            let err = got.raw().abs_diff(target.raw()) as u128;
            prop_assert!(err <= 2 * ulp_per_ns, "err={err} ulp/ns={ulp_per_ns}");
        }
    }
}
