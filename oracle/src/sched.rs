//! Float reference schedulers — the pre-refactor `f64` + `BinaryHeap`
//! implementations of WFQ, WF²Q+, Virtual Clock and the hybrid,
//! retained for differential testing.
//!
//! These keep the original architecture whose cost the fixed-point
//! rewrite removes: `f64` virtual-time state, `OrdF64` heap keys,
//! per-packet heap pushes, and lazy-deletion skimming. One thing *is*
//! shared with the production schedulers: the elementary virtual-time
//! quantities (per-packet service increments, GPS advances, real-time
//! conversions) are produced by the same Q32.32
//! [`VirtualTime`] constructors and then widened to `f64`. Every such
//! quantity is an exact multiple of 2⁻³² well below 2²⁰ seconds, so
//! the `f64` additions, `max`es and comparisons here are *exact* — the
//! reference traces the production integer arithmetic bit for bit, and
//! the differential suite can demand byte-identical packet orders
//! instead of statistical agreement. Without the shared rounding the
//! two implementations would drift apart by accumulated ulp noise and
//! disagree on near-tie orderings; with it, "differential" means
//! *equal*, which is the property the 56-combo equivalence tests pin.

use qbm_core::units::{Rate, Time};
use qbm_sched::{PacketRef, Scheduler, VirtualTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Totally ordered f64 for heap keys via IEEE-754 `total_cmp`: a
/// pathological workload that smuggled a NaN into the tag arithmetic
/// would degrade to a deterministic (if meaningless) order instead of
/// panicking mid-simulation. The virtual-time arithmetic here never
/// produces NaN (weights and rates are validated positive) and never
/// produces −0.0 (all quantities are non-negative sums), so for every
/// reachable value `total_cmp` agrees with the IEEE partial order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// 2³² — the Q32.32 scale factor.
const SCALE: f64 = 4_294_967_296.0;

/// Widen a Q32.32 virtual time to `f64` — exact for values below 2²⁰
/// seconds (52 significant bits).
#[inline]
fn vt_f64(v: VirtualTime) -> f64 {
    v.raw() as f64 / SCALE
}

/// Narrow an exact Q32.32-multiple `f64` back to [`VirtualTime`].
#[inline]
fn vt_exact(x: f64) -> VirtualTime {
    let raw = x * SCALE;
    debug_assert!(
        (0.0..=18_446_744_073_709_551_615.0).contains(&raw),
        "virtual time {x} out of Q32.32 range"
    );
    let q = raw as u64;
    debug_assert!(
        qbm_core::units::approx_eq(q as f64, raw, 0.0),
        "virtual time {x} is not an exact Q32.32 multiple"
    );
    VirtualTime::from_raw(q)
}

/// Class-indexed float PGPS engine — the retained original
/// implementation of [`qbm_sched::Wfq`]'s core (see module docs).
#[derive(Debug)]
pub(crate) struct WfqCoreReference {
    link_bps: u64,
    /// Per-class GPS weight φᵢ (> 0).
    weights: Vec<u64>,
    /// GPS virtual time `V`.
    vtime: f64,
    /// Real time at which `vtime` was last brought current.
    last_update: Time,
    /// Σφ over GPS-active classes.
    active_weight: u64,
    /// Last GPS finish tag per class.
    class_finish: Vec<f64>,
    /// GPS-active flags.
    class_active: Vec<bool>,
    /// Lazy heap of (finish tag, class) for active-set expiry.
    gps_heap: BinaryHeap<Reverse<(OrdF64, usize)>>,
    /// Cached *lower bound* on the real instant at which the genuine
    /// head of `gps_heap` completes its GPS backlog (`Time::MAX` when
    /// idle). Mirrors [`WfqCore`](qbm_sched::wfq)'s cached deadline exactly
    /// — fast-path enqueues leave it stale (safe: growing a finish tag
    /// only moves the deadline later) and it is re-pinned on the slow
    /// path. The advance *pattern* is part of the rounded value stream,
    /// so both sides must pin the deadline at the same change points
    /// for the byte-identity suite to hold.
    next_expiry: Time,
    /// `(class, finish)` the cached deadline was computed for.
    deadline_key: (usize, f64),
    /// Active weight the cached deadline was computed for.
    deadline_weight: u64,
    /// Per-class packet queues with each packet's finish tag.
    queues: Vec<VecDeque<(PacketRef, f64)>>,
    /// All queued packets by (finish tag, seq) — transmission order.
    pkt_heap: BinaryHeap<Reverse<(OrdF64, u64, usize)>>,
    len: usize,
}

impl WfqCoreReference {
    pub(crate) fn new(link: Rate, weights: Vec<u64>) -> WfqCoreReference {
        assert!(link.bps() > 0, "zero link rate");
        assert!(!weights.is_empty(), "no classes");
        assert!(
            weights.iter().all(|&w| w > 0),
            "all WFQ weights must be positive"
        );
        let n = weights.len();
        WfqCoreReference {
            link_bps: link.bps(),
            weights,
            vtime: 0.0,
            last_update: Time::ZERO,
            active_weight: 0,
            class_finish: vec![0.0; n],
            class_active: vec![false; n],
            gps_heap: BinaryHeap::new(),
            next_expiry: Time::MAX,
            deadline_key: (usize::MAX, f64::INFINITY),
            deadline_weight: 0,
            queues: vec![VecDeque::new(); n],
            pkt_heap: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Bring `next_expiry` in line with the genuine head of `gps_heap`
    /// (skimming stale lazy entries); must be called after anything
    /// that changes the head key or the active weight. Mirrors
    /// `WfqCore::refresh_deadline`.
    fn refresh_deadline(&mut self) {
        let head = loop {
            match self.gps_heap.peek() {
                None => break None,
                Some(&Reverse((OrdF64(f), c))) => {
                    if self.class_active[c] && self.class_finish[c] == f {
                        break Some((c, f));
                    }
                    self.gps_heap.pop(); // stale lazy entry
                }
            }
        };
        match head {
            Some((c, f)) => {
                if self.deadline_key != (c, f) || self.deadline_weight != self.active_weight {
                    self.deadline_key = (c, f);
                    self.deadline_weight = self.active_weight;
                    // Real time needed for V to reach f.
                    let dt = vt_exact((f - self.vtime).max(0.0))
                        .gps_real_dur(self.link_bps, self.active_weight);
                    self.next_expiry = self.last_update.saturating_add(dt);
                }
            }
            None => {
                self.deadline_key = (usize::MAX, f64::INFINITY);
                self.deadline_weight = 0;
                self.next_expiry = Time::MAX;
            }
        }
    }

    /// Advance GPS virtual time to real time `now`, expiring classes
    /// whose GPS backlog completes on the way. Called on the enqueue
    /// path only, mirroring `WfqCore::advance` — dequeue does not read
    /// `vtime`, and the advance pattern must match the fixed-point side
    /// call for call.
    /// True iff the whole GPS backlog completes by `now` — the exact
    /// mirror of `WfqCore::drains_by`, computed over the same Q32.32
    /// raw values (the tags here are exact f64 images of them) so both
    /// engines take the same branch on the same state.
    #[inline]
    fn drains_by(&self, now: Time) -> bool {
        let mut work: u128 = 0; // Σ (f−V)·φ, Q32.32 bit units
        for (c, &f) in self.class_finish.iter().enumerate() {
            if self.class_active[c] {
                work = work.saturating_add(
                    vt_exact((f - self.vtime).max(0.0)).raw() as u128 * self.weights[c] as u128,
                );
            }
        }
        let elapsed = now.since(self.last_update).as_nanos() as u128;
        elapsed
            .saturating_mul(self.link_bps as u128)
            .saturating_mul(1u128 << VirtualTime::FRAC_BITS)
            >= work.saturating_mul(qbm_core::units::NS_PER_SEC as u128)
    }

    fn advance(&mut self, now: Time) {
        debug_assert!(now >= self.last_update, "time went backwards");
        if self.active_weight > 0 && now >= self.next_expiry {
            if self.drains_by(now) {
                // Whole-backlog expiry: collapse the stepwise walk, V
                // lands on the largest finish tag and the server goes
                // idle. Mirrors `WfqCore::advance` — the intermediate
                // expiry instants are unobservable on both sides. The
                // lazy heap is garbage wholesale now; drop it.
                let mut vmax = self.vtime;
                for (c, &f) in self.class_finish.iter().enumerate() {
                    if self.class_active[c] {
                        self.class_active[c] = false;
                        vmax = vmax.max(f);
                    }
                }
                self.vtime = vmax;
                self.active_weight = 0;
                self.gps_heap.clear();
                self.deadline_key = (usize::MAX, f64::INFINITY);
                self.deadline_weight = 0;
                self.next_expiry = Time::MAX;
                self.last_update = now;
                return;
            }
            // The cached bound may be conservative (fast-path enqueues
            // skip the refresh); recompute before trusting it.
            self.refresh_deadline();
            while self.active_weight > 0 && now >= self.next_expiry {
                // `refresh_deadline` pinned the genuine head (its entry
                // goes stale once the class deactivates and is skimmed
                // by the next refresh).
                let (c, f) = self.deadline_key;
                self.vtime = f;
                self.last_update = self.next_expiry;
                self.class_active[c] = false;
                self.active_weight -= self.weights[c];
                self.refresh_deadline();
            }
        }
        if self.active_weight == 0 {
            // GPS idle: V freezes (arrivals restart from max(V, f)).
            self.last_update = now;
            return;
        }
        if now > self.last_update {
            self.vtime += vt_f64(VirtualTime::gps_increment(
                now.since(self.last_update),
                self.link_bps,
                self.active_weight,
            ));
            self.last_update = now;
        }
    }

    pub(crate) fn enqueue_class(&mut self, now: Time, class: usize, pkt: PacketRef) {
        debug_assert!(now >= self.last_update, "time went backwards");
        // Fast path mirroring `WfqCore::enqueue_class`: an active
        // class's previous finish tag is ≥ the expiry head's tag, so
        // before `next_expiry` it equals max(V, F_prev) and V need not
        // be materialized. The advance pattern is part of the rounded
        // value stream — both sides must take the same branch.
        if self.class_active[class] && now < self.next_expiry {
            // Fast path: no refresh — the deadline only moves later
            // when an active class's tag grows, matching `WfqCore`.
            let finish = self.class_finish[class]
                + vt_f64(VirtualTime::service(pkt.len, self.weights[class]));
            self.class_finish[class] = finish;
            self.gps_heap.push(Reverse((OrdF64(finish), class)));
            self.queues[class].push_back((pkt, finish));
            self.pkt_heap
                .push(Reverse((OrdF64(finish), pkt.seq, class)));
            self.len += 1;
            return;
        }
        self.advance(now);
        let start = self.vtime.max(self.class_finish[class]);
        let finish = start + vt_f64(VirtualTime::service(pkt.len, self.weights[class]));
        self.class_finish[class] = finish;
        if !self.class_active[class] {
            self.class_active[class] = true;
            self.active_weight += self.weights[class];
        }
        self.gps_heap.push(Reverse((OrdF64(finish), class)));
        // Re-pin only when this tag becomes the new expiry head (the
        // idle sentinel key is +∞); a grown weight alone moves the old
        // head's deadline later, so the cached bound stays a valid
        // lower bound. Mirrors `WfqCore::enqueue_class`.
        if finish < self.deadline_key.1 {
            self.refresh_deadline();
        }
        self.queues[class].push_back((pkt, finish));
        self.pkt_heap
            .push(Reverse((OrdF64(finish), pkt.seq, class)));
        self.len += 1;
    }

    pub(crate) fn dequeue_min(&mut self, _now: Time) -> Option<PacketRef> {
        let Reverse((OrdF64(f), seq, class)) = self.pkt_heap.pop()?;
        let (pkt, tag) = self.queues[class].pop_front().expect("heap/queue desync");
        debug_assert_eq!(pkt.seq, seq, "per-class order violated");
        debug_assert!(qbm_core::units::approx_eq(tag, f, 0.0));
        self.len -= 1;
        Some(pkt)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Float per-flow WFQ — the retained original [`qbm_sched::Wfq`].
#[derive(Debug)]
pub struct WfqReference {
    core: WfqCoreReference,
}

impl WfqReference {
    /// A float WFQ scheduler on a `link` with one weight per flow.
    pub fn new(link: Rate, weights: Vec<u64>) -> WfqReference {
        WfqReference {
            core: WfqCoreReference::new(link, weights),
        }
    }
}

impl Scheduler for WfqReference {
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
        "wfq_reference"
    }
}

/// Float §4 hybrid — the retained original [`qbm_sched::Hybrid`]:
/// `k` FIFO queues served by the float WFQ core.
#[derive(Debug)]
pub struct HybridReference {
    core: WfqCoreReference,
    /// `assignment[flow] = queue`.
    assignment: Vec<usize>,
}

impl HybridReference {
    /// Build for a link, flow→queue `assignment`, and per-queue WFQ
    /// weights `queue_rates_bps`.
    pub fn new(
        link_rate: Rate,
        assignment: Vec<usize>,
        queue_rates_bps: Vec<u64>,
    ) -> HybridReference {
        let k = queue_rates_bps.len();
        assert!(k >= 1, "need at least one queue");
        assert!(
            assignment.iter().all(|&q| q < k),
            "assignment references a queue >= k"
        );
        HybridReference {
            core: WfqCoreReference::new(link_rate, queue_rates_bps),
            assignment,
        }
    }
}

impl Scheduler for HybridReference {
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
        "hybrid_reference"
    }
}

#[derive(Debug, Clone, Copy)]
struct HeadTags {
    finish: f64,
    /// Epoch counter: lazy heap entries from older heads are stale.
    epoch: u64,
}

/// Float WF²Q+ — the retained original [`qbm_sched::Wf2q`]: per-flow FIFO
/// queues plus two lazy heaps over flow heads, ineligible flows keyed
/// by `S`, eligible flows keyed by `(F, epoch)`.
#[derive(Debug)]
pub struct Wf2qReference {
    /// Per-flow weights φᵢ (b/s scale).
    weights: Vec<u64>,
    /// Σφ over all flows (the virtual-time normalizer).
    total_weight: u64,
    /// Per-flow packet queues.
    queues: Vec<VecDeque<PacketRef>>,
    /// Tags of each flow's head packet (meaningful iff queue non-empty).
    heads: Vec<HeadTags>,
    /// Last finish tag per flow (for the max(V, F_prev) rule).
    last_finish: Vec<f64>,
    /// System virtual time.
    vtime: f64,
    /// Lazy heap of ineligible heads by start tag.
    by_start: BinaryHeap<Reverse<(OrdF64, u64, usize)>>,
    /// Lazy heap of eligible heads by (finish tag, epoch).
    by_finish: BinaryHeap<Reverse<(OrdF64, u64, usize)>>,
    epoch: u64,
    len: usize,
}

impl Wf2qReference {
    /// One positive weight per flow; `link` fixes the tag scale only.
    pub fn new(_link: Rate, weights: Vec<u64>) -> Wf2qReference {
        assert!(!weights.is_empty(), "no flows");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let n = weights.len();
        let total = weights.iter().sum();
        Wf2qReference {
            weights,
            total_weight: total,
            queues: vec![VecDeque::new(); n],
            heads: vec![
                HeadTags {
                    finish: 0.0,
                    epoch: 0
                };
                n
            ],
            last_finish: vec![0.0; n],
            vtime: 0.0,
            by_start: BinaryHeap::new(),
            by_finish: BinaryHeap::new(),
            epoch: 0,
            len: 0,
        }
    }

    /// Install tags for flow `f`'s new head packet and index it.
    fn set_head(&mut self, f: usize, len: u32, fresh: bool) {
        self.epoch += 1;
        let start = if fresh {
            // Flow (re)activates: start at max(V, last finish).
            self.vtime.max(self.last_finish[f])
        } else {
            // Next packet of a backlogged flow: starts at prior finish.
            self.last_finish[f]
        };
        let finish = start + vt_f64(VirtualTime::service(len, self.weights[f]));
        self.last_finish[f] = finish;
        self.heads[f] = HeadTags {
            finish,
            epoch: self.epoch,
        };
        if start <= self.vtime {
            self.by_finish
                .push(Reverse((OrdF64(finish), self.epoch, f)));
        } else {
            self.by_start.push(Reverse((OrdF64(start), self.epoch, f)));
        }
    }

    fn head_valid(&self, f: usize, epoch: u64) -> bool {
        !self.queues[f].is_empty() && self.heads[f].epoch == epoch
    }

    /// Move newly eligible heads (S ≤ V) to the finish heap.
    fn promote(&mut self) {
        while let Some(&Reverse((OrdF64(s), ep, f))) = self.by_start.peek() {
            if !self.head_valid(f, ep) {
                self.by_start.pop();
                continue;
            }
            if s <= self.vtime {
                self.by_start.pop();
                self.by_finish
                    .push(Reverse((OrdF64(self.heads[f].finish), ep, f)));
            } else {
                break;
            }
        }
    }

    /// Smallest start tag among backlogged heads (for the V jump).
    fn min_start(&mut self) -> Option<f64> {
        // Eligible heads have S ≤ V already; only the start heap
        // matters, after skimming stale entries.
        while let Some(&Reverse((OrdF64(s), ep, f))) = self.by_start.peek() {
            if self.head_valid(f, ep) {
                return Some(s);
            }
            self.by_start.pop();
        }
        None
    }

    fn any_eligible(&mut self) -> bool {
        while let Some(&Reverse((_, ep, f))) = self.by_finish.peek() {
            if self.head_valid(f, ep) {
                return true;
            }
            self.by_finish.pop();
        }
        false
    }
}

impl Scheduler for Wf2qReference {
    fn enqueue(&mut self, _now: Time, pkt: PacketRef) {
        let f = pkt.flow.index();
        self.queues[f].push_back(pkt);
        self.len += 1;
        if self.queues[f].len() == 1 {
            self.set_head(f, pkt.len, true);
        }
    }

    fn dequeue(&mut self, _now: Time) -> Option<PacketRef> {
        if self.len == 0 {
            return None;
        }
        self.promote();
        if !self.any_eligible() {
            // No head is eligible: jump V to the earliest start (the
            // WF²Q+ max-rule) and promote again.
            let s = self.min_start().expect("backlogged but no heads indexed");
            self.vtime = self.vtime.max(s);
            self.promote();
        }
        // Serve the minimum finish tag among eligible heads.
        loop {
            let Reverse((_, ep, f)) = self.by_finish.pop()?;
            if !self.head_valid(f, ep) {
                continue;
            }
            // head_valid just confirmed the queue is non-empty
            let pkt = self.queues[f].pop_front().expect("validated non-empty");
            self.len -= 1;
            // Advance V by normalized service.
            self.vtime += vt_f64(VirtualTime::service(pkt.len, self.total_weight));
            if let Some(&next) = self.queues[f].front() {
                self.set_head(f, next.len, false);
            }
            self.promote();
            return Some(pkt);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "wf2q+_reference"
    }
}

/// Float Virtual Clock — the retained original [`qbm_sched::VirtualClock`].
#[derive(Debug)]
pub struct VirtualClockReference {
    /// Per-flow reserved rates ρᵢ, b/s.
    rates: Vec<u64>,
    /// Per-flow last assigned stamp, seconds.
    vclock: Vec<f64>,
    queues: Vec<VecDeque<PacketRef>>,
    heap: BinaryHeap<Reverse<(OrdF64, u64, usize)>>,
    len: usize,
}

impl VirtualClockReference {
    /// One reserved rate per flow (b/s, all positive).
    pub fn new(rates_bps: Vec<u64>) -> VirtualClockReference {
        assert!(!rates_bps.is_empty(), "no flows");
        assert!(rates_bps.iter().all(|&r| r > 0), "rates must be positive");
        let n = rates_bps.len();
        VirtualClockReference {
            rates: rates_bps,
            vclock: vec![0.0; n],
            queues: vec![VecDeque::new(); n],
            heap: BinaryHeap::new(),
            len: 0,
        }
    }
}

impl Scheduler for VirtualClockReference {
    fn enqueue(&mut self, now: Time, pkt: PacketRef) {
        let f = pkt.flow.index();
        let start = vt_f64(VirtualTime::from_time(now)).max(self.vclock[f]);
        let stamp = start + vt_f64(VirtualTime::service(pkt.len, self.rates[f]));
        self.vclock[f] = stamp;
        self.queues[f].push_back(pkt);
        self.heap.push(Reverse((OrdF64(stamp), pkt.seq, f)));
        self.len += 1;
    }

    fn dequeue(&mut self, _now: Time) -> Option<PacketRef> {
        let Reverse((_, seq, f)) = self.heap.pop()?;
        let pkt = self.queues[f].pop_front().expect("heap/queue desync");
        debug_assert_eq!(pkt.seq, seq);
        self.len -= 1;
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "vclock_reference"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_total_cmp_handles_nan_without_panicking() {
        // The satellite fix: a NaN key degrades to a deterministic
        // order (NaN sorts above every number under total_cmp) instead
        // of panicking like the old partial_cmp(..).expect path.
        let mut keys = [OrdF64(f64::NAN), OrdF64(1.0), OrdF64(0.0)];
        keys.sort();
        assert!(qbm_core::units::approx_eq(keys[0].0, 0.0, 0.0));
        assert!(qbm_core::units::approx_eq(keys[1].0, 1.0, 0.0));
        assert!(keys[2].0.is_nan());
    }

    #[test]
    fn vt_round_trip_is_exact_for_tag_arithmetic() {
        let inc = VirtualTime::service(500, 2_000_000);
        let x = vt_f64(inc);
        assert_eq!(vt_exact(x), inc);
        // Sums of exact multiples stay exact.
        assert_eq!(vt_exact(x + x).raw(), 2 * inc.raw());
    }
}
