//! Weighted Fair Queueing (PGPS) with exact GPS virtual-time tracking.
//!
//! This is the paper's "sophisticated scheduler" benchmark — Parekh's
//! PGPS \[6\]. Each packet gets a *finish tag*
//!
//! ```text
//! Fᵖ = max(V(a), Fᵢ_prev) + len·8 / φᵢ
//! ```
//!
//! where `V(t)` is the GPS virtual time, advancing at `R / Σφ_active`,
//! and packets are transmitted in increasing tag order. The active-set
//! bookkeeping is exact: the GPS backlog of a class ends when `V`
//! crosses its last finish tag.
//!
//! All clock state is fixed-point [`VirtualTime`] (Q32.32) — the hot
//! path is pure integer arithmetic with exact comparisons. The priority
//! structures replacing the float implementation's heaps:
//!
//! * transmission order is an indexed [`ActiveSet`] with one slot per
//!   class, keyed by the head packet's `(finish, seq)` — per-class tags
//!   are non-decreasing, so the global minimum is always a head;
//! * GPS expiry needs only each GPS-active class's *last* finish tag
//!   (`Class::finish`): a second [`ActiveSet`] keyed `(finish, class)`
//!   holds exactly the GPS-active classes, so the next class to expire
//!   is its minimum, and the remaining GPS work is kept as a running
//!   sum `Σ_active finish·φ`, so no GPS step scans the classes —
//!   O(log n) per update at ISP class counts (tree layout), and work
//!   over the occupied classes only at the paper's (bitmap scan).
//!
//! The original float implementation is retained as `WfqReference` in
//! the dev-only `qbm-oracle` package, for differential testing and as
//! the benchmark baseline.
//!
//! The core is written over abstract *classes* so the same machinery
//! serves both per-flow WFQ ([`Wfq`], class = flow) and the §4 hybrid
//! ([`crate::Hybrid`], class = FIFO queue).

use crate::active_set::ActiveSet;
use crate::scheduler::{PacketRef, Scheduler};
use crate::vclock::{ServiceMemo, VirtualTime};
use qbm_core::units::{Dur, Rate, Time, NS_PER_SEC};
use std::collections::VecDeque;

/// Sentinel for [`WfqCore::deadline_key`] when GPS is idle.
const NO_DEADLINE: (usize, VirtualTime) = (usize::MAX, VirtualTime::MAX);

/// Class-indexed PGPS engine (see module docs).
#[derive(Debug)]
pub(crate) struct WfqCore {
    link_bps: u64,
    classes: Vec<Class>,
    /// GPS virtual time `V`.
    vtime: VirtualTime,
    /// Real time at which `vtime` was last brought current.
    last_update: Time,
    /// Σφ over GPS-active classes (integer, so idle detection is exact).
    active_weight: u64,
    /// The GPS-active classes keyed `(Class::finish, class)`: membership
    /// is GPS activity, and the minimum is the next class to expire,
    /// ties to the lowest class index.
    gps: ActiveSet,
    /// `Σ_active finish·φ` in Q32.32 bit units, kept with
    /// wrapping arithmetic — exact whenever the true sum fits, which
    /// it does by a wide margin — so the remaining GPS work is
    /// `finish_weight − V·Σφ` without a scan.
    finish_weight: u128,
    /// Cached *lower bound* on the real instant at which the earliest
    /// active class completes its GPS backlog (`Time::MAX` when idle).
    /// Makes the expiry test in [`WfqCore::advance`] an integer compare
    /// instead of a division. Fast-path enqueues leave it stale on
    /// purpose: growing an active class's finish tag (weight unchanged)
    /// can only move the true deadline *later*, so the cached value
    /// stays a safe bound and is recomputed only when crossed (in
    /// [`WfqCore::advance`]) or when the active set changes (slow-path
    /// enqueue). In exact arithmetic the instant is invariant under
    /// partial advances, so pinning the rounded value at the change
    /// point is both cheaper and more stable than recomputing per call.
    next_expiry: Time,
    /// `(class, finish)` the cached deadline was computed for.
    deadline_key: (usize, VirtualTime),
    /// Active weight the cached deadline was computed for.
    deadline_weight: u64,
    /// Queue heads keyed `(finish, seq)` — transmission order.
    heads: ActiveSet,
    len: usize,
}

/// One class's GPS state beside its packet queue.
#[derive(Debug)]
struct Class {
    /// GPS weight φᵢ (> 0).
    weight: u64,
    /// Last GPS finish tag — the GPS expiry key.
    finish: VirtualTime,
    /// `len·8/φ` memo.
    memo: ServiceMemo,
    /// `(Δraw, Σφ) → duration` memo for the deadline division in
    /// [`WfqCore::refresh_deadline`]. A class re-activating from GPS
    /// idle always has `Δ = len·8/φ` (start tag = V), so consecutive
    /// idle restarts of a fixed-size flow repeat the same inputs; the
    /// memo is a pure-function cache, bit-identical to recomputing.
    expiry: (u64, u64, Dur),
    /// Packets with their finish tags.
    queue: VecDeque<(PacketRef, VirtualTime)>,
}

impl WfqCore {
    pub(crate) fn new(link: Rate, weights: Vec<u64>) -> WfqCore {
        assert!(link.bps() > 0, "zero link rate");
        assert!(!weights.is_empty(), "no classes");
        assert!(
            weights.iter().all(|&w| w > 0),
            "all WFQ weights must be positive"
        );
        let n = weights.len();
        WfqCore {
            link_bps: link.bps(),
            classes: weights
                .into_iter()
                .map(|weight| Class {
                    weight,
                    finish: VirtualTime::ZERO,
                    memo: ServiceMemo::EMPTY,
                    expiry: (u64::MAX, 0, Dur(0)),
                    queue: VecDeque::new(),
                })
                .collect(),
            vtime: VirtualTime::ZERO,
            last_update: Time::ZERO,
            active_weight: 0,
            gps: ActiveSet::with_slots(n),
            finish_weight: 0,
            next_expiry: Time::MAX,
            deadline_key: NO_DEADLINE,
            deadline_weight: 0,
            heads: ActiveSet::with_slots(n),
            len: 0,
        }
    }

    /// The GPS-active class with the smallest last finish tag, ties to
    /// the lowest class index — the next class whose backlog expires.
    #[inline]
    fn expiry_head(&self) -> Option<(usize, VirtualTime)> {
        self.gps.peek().map(|(c, f, _)| (c, f))
    }

    /// Bring [`WfqCore::next_expiry`] in line with the current expiry
    /// head; called when the cached bound is crossed or the active set
    /// changes.
    #[inline]
    fn refresh_deadline(&mut self) {
        match self.expiry_head() {
            Some((c, f)) => {
                if self.deadline_key != (c, f) || self.deadline_weight != self.active_weight {
                    self.deadline_key = (c, f);
                    self.deadline_weight = self.active_weight;
                    // Real time needed for V to reach f, through the
                    // per-class input memo (idle restarts repeat Δ).
                    let delta = f.saturating_sub(self.vtime);
                    let Some(memo) = self.classes.get_mut(c).map(|k| &mut k.expiry) else {
                        debug_assert!(false, "expiry head out of range");
                        return;
                    };
                    let (m_raw, m_aw, m_dur) = *memo;
                    let dt = if (m_raw, m_aw) == (delta.raw(), self.active_weight) {
                        m_dur
                    } else {
                        let dt = delta.gps_real_dur(self.link_bps, self.active_weight);
                        *memo = (delta.raw(), self.active_weight, dt);
                        dt
                    };
                    self.next_expiry = self.last_update.saturating_add(dt);
                }
            }
            None => {
                self.deadline_key = NO_DEADLINE;
                self.deadline_weight = 0;
                self.next_expiry = Time::MAX;
            }
        }
    }

    /// Advance GPS virtual time to real time `now`, expiring classes
    /// whose GPS backlog completes on the way. Only callers that *read*
    /// `vtime` need this — dequeue does not (transmission order lives
    /// in `heads`), so it is called on the enqueue path alone and the
    /// expiry walk catches up lazily there.
    /// True iff the whole GPS backlog completes by `now`. While any
    /// class is active GPS serves at the full link rate, so the real
    /// work remaining is `Σ_active (f_c − V)·φ_c / R` seconds —
    /// compared cross-multiplied in integers, no division. Both engines
    /// (this and the float reference) take the same branch on the same
    /// state, which keeps the rounded value streams identical.
    ///
    /// `Σ_active (f_c − V)·φ_c = Σ_active f_c·φ_c − V·Σφ`, read off the
    /// running sum. It equals the per-class sum of clamped terms
    /// `max(f_c − V, 0)·φ_c` because no active class finishes before V.
    #[inline]
    fn drains_by(&self, now: Time) -> bool {
        debug_assert!(
            self.gps.peek().is_none_or(|(_, f, _)| f >= self.vtime),
            "a GPS-active class has a finish tag below V"
        );
        // Σ (f−V)·φ, Q32.32 bit units.
        let work = self
            .finish_weight
            .wrapping_sub(self.vtime.raw() as u128 * self.active_weight as u128);
        let elapsed = now.since(self.last_update).as_nanos() as u128;
        elapsed
            .saturating_mul(self.link_bps as u128)
            .saturating_mul(1u128 << VirtualTime::FRAC_BITS)
            >= work.saturating_mul(NS_PER_SEC as u128)
    }

    fn advance(&mut self, now: Time) {
        debug_assert!(now >= self.last_update, "time went backwards");
        if self.active_weight > 0 && now >= self.next_expiry {
            if self.drains_by(now) {
                // The whole backlog expires by `now`: the intermediate
                // expiry instants are unobservable (nothing reads V in
                // between), so collapse the walk — V lands on the
                // largest finish tag and the server goes idle. This
                // skips every per-step deadline division of the loop
                // below, the common case for bursty workloads whose
                // GPS backlog drains between bursts.
                let mut vmax = self.vtime;
                self.gps.drain(|_, f, _| vmax = vmax.max(f));
                self.vtime = vmax;
                self.active_weight = 0;
                self.finish_weight = 0;
                self.deadline_key = NO_DEADLINE;
                self.deadline_weight = 0;
                self.next_expiry = Time::MAX;
                self.last_update = now;
                return;
            }
            // The cached bound may be conservative (fast-path enqueues
            // skip the refresh); recompute before trusting it.
            self.refresh_deadline();
            while self.active_weight > 0 && now >= self.next_expiry {
                // `refresh_deadline` pinned the genuine head.
                let (c, f) = self.deadline_key;
                debug_assert_eq!(Some((c, f)), self.expiry_head(), "stale expiry deadline");
                let Some(phi) = self.classes.get(c).map(|k| k.weight) else {
                    debug_assert!(false, "expiry head out of range");
                    break;
                };
                self.vtime = f;
                self.last_update = self.next_expiry;
                self.gps.clear(c);
                self.active_weight -= phi;
                self.finish_weight = self
                    .finish_weight
                    .wrapping_sub(f.raw() as u128 * phi as u128);
                self.refresh_deadline();
            }
        }
        if self.active_weight == 0 {
            // GPS idle: V freezes (arrivals restart from max(V, f)).
            self.last_update = now;
            return;
        }
        if now > self.last_update {
            let inc = VirtualTime::gps_increment(
                now.since(self.last_update),
                self.link_bps,
                self.active_weight,
            );
            self.vtime = self.vtime.saturating_add(inc);
            self.last_update = now;
        }
    }

    pub(crate) fn enqueue_class(&mut self, now: Time, class: usize, pkt: PacketRef) {
        debug_assert!(now >= self.last_update, "time went backwards");
        // Fast path: an active class's previous finish tag is ≥ the
        // expiry head's tag, which V cannot reach before `next_expiry`
        // — so max(V, F_prev) = F_prev without materializing V. The
        // clock stays pinned at `last_update` and the next slow path
        // (idle/expiring class, or a crossed deadline) catches it up
        // over the whole interval at once. Growing an active class's
        // finish tag moves the true expiry deadline later (or not at
        // all), so the cached bound stays valid without a refresh.
        let fast = self.gps.contains(class) && now < self.next_expiry;
        if !fast {
            self.advance(now);
        }
        let Some(c) = self.classes.get_mut(class) else {
            debug_assert!(false, "enqueue of an unknown class");
            return;
        };
        let start = if fast {
            c.finish
        } else {
            self.vtime.max(c.finish)
        };
        let finish = start.saturating_add(c.memo.service(pkt.len, c.weight));
        // Retag the class and make it GPS-active, keeping `gps`,
        // `finish_weight` and `active_weight` in step.
        let phi = c.weight as u128;
        if self.gps.contains(class) {
            self.finish_weight = self
                .finish_weight
                .wrapping_sub(c.finish.raw() as u128 * phi);
        } else {
            self.active_weight += c.weight;
        }
        self.finish_weight = self.finish_weight.wrapping_add(finish.raw() as u128 * phi);
        c.finish = finish;
        self.gps.set(class, finish, class as u64);
        if c.queue.is_empty() {
            self.heads.set(class, finish, pkt.seq);
        }
        c.queue.push_back((pkt, finish));
        self.len += 1;
        // Re-pin the deadline only when this finish tag becomes the new
        // expiry head (covers first-activation: the idle sentinel key
        // is `VirtualTime::MAX`). Otherwise the head kept its tag and
        // the weight only grew — V got slower, the true deadline moved
        // later, and the cached bound remains a valid lower bound that
        // [`WfqCore::advance`] re-pins if crossed. Saves the division
        // on most activations of low-weight (large-service) classes.
        if !fast && finish < self.deadline_key.1 {
            self.refresh_deadline();
        }
    }

    pub(crate) fn dequeue_min(&mut self, _now: Time) -> Option<PacketRef> {
        let (class, f, seq) = self.heads.peek()?;
        let Some(c) = self.classes.get_mut(class) else {
            debug_assert!(false, "active set/queue desynchronized");
            return None;
        };
        let Some((pkt, tag)) = c.queue.pop_front() else {
            debug_assert!(false, "active set/queue desynchronized");
            return None;
        };
        debug_assert_eq!(pkt.seq, seq, "per-class order violated");
        debug_assert_eq!(tag, f);
        match c.queue.front() {
            Some(&(next, t)) => self.heads.set(class, t, next.seq),
            None => self.heads.clear(class),
        }
        self.len -= 1;
        Some(pkt)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Current GPS virtual time (exposed for tests).
    #[cfg(test)]
    pub(crate) fn vtime_at(&mut self, now: Time) -> VirtualTime {
        self.advance(now);
        self.vtime
    }
}

/// Per-flow WFQ: class = flow index, weight = the flow's reserved
/// (token) rate, exactly as the paper configures it in §3.2.
#[derive(Debug)]
pub struct Wfq {
    core: WfqCore,
}

impl Wfq {
    /// A WFQ scheduler on a `link` with one weight per flow (index =
    /// `FlowId`). Weights must be positive.
    pub fn new(link: Rate, weights: Vec<u64>) -> Wfq {
        Wfq {
            core: WfqCore::new(link, weights),
        }
    }
}

impl Scheduler for Wfq {
    fn enqueue(&mut self, now: Time, pkt: PacketRef) {
        self.core.enqueue_class(now, pkt.flow.index(), pkt);
    }

    fn dequeue(&mut self, now: Time) -> Option<PacketRef> {
        self.core.dequeue_min(now)
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn name(&self) -> &'static str {
        "wfq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt, share_by_flow};
    use qbm_core::units::Dur;

    const LINK: Rate = Rate::from_bps(48_000_000);

    /// Q32.32 → f64 seconds, for approximate assertions only.
    fn secs(v: VirtualTime) -> f64 {
        v.raw() as f64 / (1u64 << 32) as f64
    }

    #[test]
    fn equal_weights_alternate_under_backlog() {
        let mut w = Wfq::new(LINK, vec![1_000_000, 1_000_000]);
        // Both flows dump 10 packets at t=0; flow 0 first.
        let mut seq = 0;
        for _ in 0..10 {
            w.enqueue(Time::ZERO, pkt(0, 500, 0, seq));
            seq += 1;
            w.enqueue(Time::ZERO, pkt(1, 500, 0, seq));
            seq += 1;
        }
        let order = drain(&mut w, LINK, Time::ZERO);
        // Perfect alternation by finish tag (ties broken by seq).
        for (i, (_, p)) in order.iter().enumerate() {
            assert_eq!(p.flow.index(), i % 2, "position {i}");
        }
    }

    #[test]
    fn weighted_shares_follow_weights() {
        // Weights 2:1 — over any long backlogged prefix, bytes ≈ 2:1.
        let mut w = Wfq::new(LINK, vec![2_000_000, 1_000_000]);
        let mut seq = 0;
        for _ in 0..300 {
            for f in 0..2 {
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut w, LINK, Time::ZERO);
        let share = share_by_flow(&order, 300, 2);
        let ratio = share[0] as f64 / share[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn unbacklogged_flow_gets_priority_on_return() {
        // Flow 1 idles while flow 0 is backlogged; when flow 1 sends a
        // packet at t₁ its start tag is V(t₁), so it jumps ahead of the
        // tail of flow 0's queue. GPS math: with only flow 0 active
        // (φ = 1 Mb/s), V grows at R/φ = 48 per second, so at
        // t₁ = 2 ms, V = 0.096. Flow 0's k-th packet has tag 0.004·k;
        // flow 1's packet gets tag 0.096 + 0.004 = 0.1 and therefore
        // departs after flow 0's first ~25 packets but ahead of the
        // remaining ~25 — in FIFO it would have waited behind all 50.
        let mut w = Wfq::new(LINK, vec![1_000_000, 1_000_000]);
        for s in 0..50 {
            w.enqueue(Time::ZERO, pkt(0, 500, 0, s));
        }
        let t1 = Time::ZERO + Dur::from_millis(2);
        let _ = w.dequeue(Time::ZERO);
        w.enqueue(t1, pkt(1, 500, 2, 100));
        let order = drain(&mut w, LINK, t1);
        let pos = order
            .iter()
            .position(|(_, p)| p.flow.index() == 1)
            .expect("flow 1 never served");
        assert!(
            (20..28).contains(&pos),
            "flow 1 at position {pos}, expected ≈ 24 by the GPS virtual clock"
        );
    }

    #[test]
    fn per_flow_order_preserved() {
        let mut w = Wfq::new(LINK, vec![1_000_000, 3_000_000]);
        let mut seq = 0;
        for _ in 0..100 {
            for f in 0..2 {
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut w, LINK, Time::ZERO);
        let mut last_seq = [None::<u64>; 2];
        for (_, p) in order {
            let f = p.flow.index();
            if let Some(prev) = last_seq[f] {
                assert!(p.seq > prev, "flow {f} reordered");
            }
            last_seq[f] = Some(p.seq);
        }
    }

    #[test]
    fn virtual_time_freezes_when_idle() {
        let mut core = WfqCore::new(LINK, vec![1_000_000]);
        let v0 = core.vtime_at(Time::ZERO);
        core.enqueue_class(Time::ZERO, 0, pkt(0, 500, 0, 0));
        let _ = core.dequeue_min(Time::ZERO);
        // GPS still busy with that packet's fluid until its finish;
        // after that V freezes.
        let far = Time::from_secs(100);
        let v1 = core.vtime_at(far);
        let very_far = Time::from_secs(200);
        let v2 = core.vtime_at(very_far);
        assert_eq!(v1, v2, "virtual time advanced while GPS idle");
        assert!(v1 > v0);
    }

    #[test]
    fn gps_expiry_uses_partial_active_sets() {
        // Flow 0 sends one packet, flow 1 sends many: after flow 0's
        // GPS backlog expires, V must speed up (fewer active weights).
        let mut core = WfqCore::new(LINK, vec![1_000_000, 1_000_000]);
        core.enqueue_class(Time::ZERO, 0, pkt(0, 500, 0, 0));
        for s in 1..100 {
            core.enqueue_class(Time::ZERO, 1, pkt(1, 500, 0, s));
        }
        // While both active, V grows at R/2e6 per second; flow 0's tag
        // is 4000/1e6 = 4e-3. Expiry real time: V reaches 4e-3 after
        // 4e-3·2e6/48e6 s ≈ 166.7 µs.
        let before = secs(core.vtime_at(Time::ZERO + Dur::from_micros(166)));
        assert!(before < 4.0e-3);
        let after = secs(core.vtime_at(Time::ZERO + Dur::from_micros(168)));
        assert!(after >= 4.0e-3, "v={after}");
        // Growth rate doubled after expiry: measure over 100 µs.
        let v1 = secs(core.vtime_at(Time::ZERO + Dur::from_micros(268)));
        let slope = (v1 - after) * 1e4; // per second
        assert!(
            (slope - 48.0).abs() < 1.0,
            "slope {slope} (expect R/1e6 = 48)"
        );
    }

    #[test]
    fn ties_break_by_sequence_deterministically() {
        let mut w = Wfq::new(LINK, vec![1_000_000, 1_000_000]);
        w.enqueue(Time::ZERO, pkt(1, 500, 0, 0));
        w.enqueue(Time::ZERO, pkt(0, 500, 0, 1));
        // Identical finish tags: lower seq (flow 1) first.
        assert_eq!(w.dequeue(Time::ZERO).unwrap().flow.index(), 1);
        assert_eq!(w.dequeue(Time::ZERO).unwrap().flow.index(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Wfq::new(LINK, vec![1_000_000, 0]);
    }

    #[test]
    fn empty_dequeue_is_none_and_len_tracks() {
        let mut w = Wfq::new(LINK, vec![1]);
        assert!(w.dequeue(Time::ZERO).is_none());
        w.enqueue(Time::ZERO, pkt(0, 500, 0, 0));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        let _ = w.dequeue(Time::ZERO);
        assert_eq!(w.len(), 0);
    }
}
