//! WF²Q+ — worst-case-fair weighted fair queueing (Bennett & Zhang),
//! the "smoother WFQ" extension.
//!
//! WFQ (PGPS) can run a flow *ahead* of its fluid GPS schedule by
//! almost a full busy period: a high-weight flow's whole backlog may
//! have small finish tags and burst out back-to-back. WF²Q+ adds an
//! **eligibility** test — a packet may start only when its GPS service
//! would have started, i.e. its virtual start tag `S ≤ V(t)` — and
//! serves the minimum finish tag among eligible heads. Service is then
//! never more than one packet ahead of GPS for any flow.
//!
//! Tags (per flow `i`, head packet of length `L`):
//!
//! ```text
//! Sᵢ = max(V, Fᵢ_prev)   on becoming head,   Fᵢ = Sᵢ + L·8/φᵢ
//! V  = max(V + l_served·8/Σφ, min_backlogged Sᵢ)
//! ```
//!
//! All tags are fixed-point [`VirtualTime`] (Q32.32). Only flow *heads*
//! are indexed, one slot per flow in two indexed [`ActiveSet`]
//! structures — ineligible heads keyed by `(S, epoch)`, eligible heads
//! by `(F, epoch)` — so eligibility promotion and service are slot
//! moves, not heap churn. The `epoch` counter (bumped per head
//! installation) keeps the pop order identical to the retained float
//! reference (`Wf2qReference` in the dev-only `qbm-oracle` package),
//! whose lazy heaps use it to invalidate stale entries.
//!
//! ## Batched eligibility sweeps
//!
//! The textbook formulation promotes after *every* service: dequeue
//! advances `V` and re-scans the ineligible set for heads whose
//! `S ≤ V`. Most of those scans find nothing — a head's start tag is
//! typically several packet services ahead of the clock — yet each one
//! pays an ineligible-set `peek`. This implementation instead tracks an
//! **eligibility frontier**: a lower bound on the smallest ineligible
//! start tag. Promotion work runs only when the virtual clock has
//! actually crossed the frontier (`Wf2q::sweep`, which then batches
//! every newly eligible head in one pass and re-arms the frontier at
//! the next start tag); otherwise `Wf2q::promote` is a single integer
//! compare. Because the frontier is a certified lower bound, only
//! provably empty sweeps are skipped — the promotion *order* and every
//! tag stream are bit-identical to the per-dequeue formulation, which
//! the differential proptests and the 56-combination equivalence suite
//! pin against the float reference.

use crate::active_set::ActiveSet;
use crate::scheduler::{PacketRef, Scheduler};
use crate::vclock::VirtualTime;
use qbm_core::units::{Rate, Time};
use std::collections::VecDeque;

/// WF²Q+ scheduler (see module docs).
#[derive(Debug)]
pub struct Wf2q {
    /// Per-flow weights φᵢ (b/s scale).
    weights: Vec<u64>,
    /// Σφ over all flows (the virtual-time normalizer).
    total_weight: u64,
    /// Per-flow packet queues.
    queues: Vec<VecDeque<PacketRef>>,
    /// Finish tag of each flow's head (meaningful iff queue non-empty).
    head_finish: Vec<VirtualTime>,
    /// Last finish tag per flow (for the max(V, F_prev) rule).
    last_finish: Vec<VirtualTime>,
    /// System virtual time.
    vtime: VirtualTime,
    /// Ineligible heads (S > V) keyed `(start, epoch)`.
    ineligible: ActiveSet,
    /// Eligible heads (S ≤ V) keyed `(finish, epoch)`.
    eligible: ActiveSet,
    /// Eligibility frontier: a lower bound on the smallest start tag in
    /// `ineligible` ([`VirtualTime::MAX`] when it is empty). While
    /// `vtime < frontier` no head can become eligible, so the
    /// per-dequeue promotion check is one compare instead of a `peek`.
    frontier: VirtualTime,
    /// Per-flow `(len, len·8/φᵢ)` memo — packet sizes repeat, so the
    /// per-head service division is shared across consecutive packets.
    service_cache: Vec<(u32, VirtualTime)>,
    /// `(len, len·8/Σφ)` memo for the per-service V advance.
    total_service_cache: (u32, VirtualTime),
    epoch: u64,
    len: usize,
}

impl Wf2q {
    /// One positive weight per flow; `link` fixes the tag scale only
    /// (behaviour depends on weight ratios).
    pub fn new(_link: Rate, weights: Vec<u64>) -> Wf2q {
        assert!(!weights.is_empty(), "no flows");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let n = weights.len();
        let total = weights.iter().sum();
        Wf2q {
            weights,
            total_weight: total,
            queues: vec![VecDeque::new(); n],
            head_finish: vec![VirtualTime::ZERO; n],
            last_finish: vec![VirtualTime::ZERO; n],
            vtime: VirtualTime::ZERO,
            ineligible: ActiveSet::with_slots(n),
            eligible: ActiveSet::with_slots(n),
            frontier: VirtualTime::MAX,
            service_cache: vec![(0, VirtualTime::ZERO); n],
            total_service_cache: (0, VirtualTime::ZERO),
            epoch: 0,
            len: 0,
        }
    }

    /// `len·8/φ_f` through the per-flow memo.
    #[inline]
    fn service(&mut self, f: usize, len: u32) -> VirtualTime {
        let (l, s) = self.service_cache[f];
        if l == len {
            return s;
        }
        let s = VirtualTime::service(len, self.weights[f]);
        self.service_cache[f] = (len, s);
        s
    }

    /// `len·8/Σφ` through the total-weight memo.
    #[inline]
    fn total_service(&mut self, len: u32) -> VirtualTime {
        let (l, s) = self.total_service_cache;
        if l == len {
            return s;
        }
        let s = VirtualTime::service(len, self.total_weight);
        self.total_service_cache = (len, s);
        s
    }

    /// Install tags for flow `f`'s new head packet and index it. The
    /// flow's slots must be vacant (fresh activation or just served).
    fn set_head(&mut self, f: usize, len: u32, fresh: bool) {
        self.epoch += 1;
        let start = if fresh {
            // Flow (re)activates: start at max(V, last finish).
            self.vtime.max(self.last_finish[f])
        } else {
            // Next packet of a backlogged flow: starts at prior finish.
            self.last_finish[f]
        };
        let finish = start.saturating_add(self.service(f, len));
        self.last_finish[f] = finish;
        self.head_finish[f] = finish;
        if start <= self.vtime {
            self.eligible.set(f, finish, self.epoch);
        } else {
            self.ineligible.set(f, start, self.epoch);
            self.frontier = self.frontier.min(start);
        }
    }

    /// Move newly eligible heads (S ≤ V) to the finish set. Fast path:
    /// while the clock sits below the frontier the ineligible minimum
    /// provably exceeds `V`, so the sweep is skipped outright — only
    /// no-op scans are elided, keeping the promotion stream
    /// bit-identical to the per-dequeue formulation.
    #[inline]
    fn promote(&mut self) {
        if self.frontier > self.vtime {
            return;
        }
        self.sweep();
    }

    /// Batched eligibility sweep: drain every ineligible head with
    /// `S ≤ V` into the eligible set, then re-arm the frontier at the
    /// next start tag (or park it when the set empties).
    fn sweep(&mut self) {
        while let Some((f, s, ep)) = self.ineligible.peek() {
            if s > self.vtime {
                self.frontier = s;
                return;
            }
            self.ineligible.clear(f);
            self.eligible.set(f, self.head_finish[f], ep);
        }
        self.frontier = VirtualTime::MAX;
    }
}

impl Scheduler for Wf2q {
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
        if self.eligible.is_empty() {
            // No head is eligible: jump V to the earliest start (the
            // WF²Q+ max-rule) and promote.
            let Some((_, s, _)) = self.ineligible.peek() else {
                debug_assert!(false, "backlogged but no heads indexed");
                return None;
            };
            self.vtime = self.vtime.max(s);
            self.promote();
        }
        // Serve the minimum (finish tag, epoch) among eligible heads.
        let Some((f, _, _)) = self.eligible.peek() else {
            debug_assert!(false, "promotion yielded no head");
            return None;
        };
        let Some(pkt) = self.queues[f].pop_front() else {
            debug_assert!(false, "indexed head missing");
            return None;
        };
        self.len -= 1;
        self.eligible.clear(f);
        // Advance V by normalized service.
        let inc = self.total_service(pkt.len);
        self.vtime = self.vtime.saturating_add(inc);
        if let Some(&next) = self.queues[f].front() {
            self.set_head(f, next.len, false);
        }
        self.promote();
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "wf2q+"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{drain, pkt, share_by_flow};
    use crate::wfq::Wfq;

    const LINK: Rate = Rate::from_bps(48_000_000);

    #[test]
    fn weighted_shares_follow_weights() {
        let mut w = Wf2q::new(LINK, vec![3_000_000, 1_000_000]);
        let mut seq = 0;
        for _ in 0..400 {
            for f in 0..2 {
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut w, LINK, Time::ZERO);
        let share = share_by_flow(&order, 400, 2);
        let ratio = share[0] as f64 / share[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn smoother_than_wfq_on_weighted_backlog() {
        // One weight-8 flow against eight weight-1 flows, all dumped at
        // t = 0. WFQ serves the heavy flow's first 8 packets nearly
        // back-to-back (all tags below the light flows' first); WF²Q+
        // interleaves because only the heavy head is eligible at a time.
        let weights: Vec<u64> = std::iter::once(8_000_000u64)
            .chain(std::iter::repeat_n(1_000_000, 8))
            .collect();
        let run = |sched: &mut dyn Scheduler| {
            let mut seq = 0;
            for _ in 0..16 {
                sched.enqueue(Time::ZERO, pkt(0, 500, 0, seq));
                seq += 1;
            }
            for f in 1..9 {
                for _ in 0..4 {
                    sched.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                    seq += 1;
                }
            }
            let order = drain(sched, LINK, Time::ZERO);
            // Longest run of consecutive heavy-flow transmissions.
            let mut max_run = 0;
            let mut run_len = 0;
            for (_, p) in &order {
                if p.flow.index() == 0 {
                    run_len += 1;
                    max_run = max_run.max(run_len);
                } else {
                    run_len = 0;
                }
            }
            max_run
        };
        let wfq_run = run(&mut Wfq::new(LINK, weights.clone()));
        let wf2q_run = run(&mut Wf2q::new(LINK, weights));
        assert!(
            wf2q_run < wfq_run,
            "WF2Q+ run {wf2q_run} not smoother than WFQ {wfq_run}"
        );
        assert!(
            wf2q_run <= 2,
            "WF2Q+ burst {wf2q_run} exceeds one-packet-ahead"
        );
    }

    #[test]
    fn per_flow_order_preserved() {
        let mut w = Wf2q::new(LINK, vec![2_000_000, 1_000_000, 500_000]);
        let mut seq = 0;
        for _ in 0..100 {
            for f in 0..3 {
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        let order = drain(&mut w, LINK, Time::ZERO);
        assert_eq!(order.len(), 300);
        let mut last = [None::<u64>; 3];
        for (_, p) in order {
            let f = p.flow.index();
            if let Some(prev) = last[f] {
                assert!(p.seq > prev, "flow {f} reordered");
            }
            last[f] = Some(p.seq);
        }
    }

    #[test]
    fn idle_then_resume_restarts_from_vtime() {
        let mut w = Wf2q::new(LINK, vec![1_000_000, 1_000_000]);
        // Flow 0 runs alone for a while.
        for s in 0..10 {
            w.enqueue(Time::ZERO, pkt(0, 500, 0, s));
        }
        for _ in 0..10 {
            let _ = w.dequeue(Time::ZERO);
        }
        // Flow 1 wakes: it must not be punished for its idle past —
        // its packet goes out immediately (start = V).
        w.enqueue(Time::ZERO, pkt(1, 500, 0, 100));
        assert_eq!(w.dequeue(Time::ZERO).unwrap().flow.index(), 1);
    }

    #[test]
    fn drains_completely_and_reports_len() {
        let mut w = Wf2q::new(LINK, vec![1, 2, 3]);
        let mut seq = 0;
        for f in 0..3 {
            for _ in 0..5 {
                w.enqueue(Time::ZERO, pkt(f, 500, 0, seq));
                seq += 1;
            }
        }
        assert_eq!(w.len(), 15);
        let order = drain(&mut w, LINK, Time::ZERO);
        assert_eq!(order.len(), 15);
        assert!(w.is_empty());
        assert!(w.dequeue(Time::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Wf2q::new(LINK, vec![1, 0]);
    }
}
