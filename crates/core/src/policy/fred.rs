//! Flow Random Early Drop (Lin & Morris) — the per-flow AQM the paper
//! cites alongside RED \[5\].
//!
//! FRED keeps RED's average-queue machinery but adds *per-active-flow*
//! accounting: each flow's instantaneous backlog `qlenᵢ` is compared to
//! the fair share `avgcq = avg / nactive`, and flows that persistently
//! overrun (`strike` counting) are clamped to the fair share while
//! fragile low-rate flows are protected below `min_q`. Like RED it has
//! **no reservations** — it aims at fairness among adaptive flows, not
//! at rate guarantees — which is exactly the gap the paper's threshold
//! scheme fills. Included as the strongest stateless-ish comparator.

use super::red::uniform;
use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::FlowId;

/// FRED configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FredConfig {
    /// RED low-water mark on the average queue, bytes.
    pub min_th_bytes: u64,
    /// RED high-water mark, bytes.
    pub max_th_bytes: u64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight per arrival.
    pub weight: f64,
    /// Always-accept allowance per flow (the `min_q` protection),
    /// bytes — fragile flows below this never suffer early drops.
    pub min_q_bytes: u64,
    /// Lottery seed.
    pub seed: u64,
}

impl FredConfig {
    /// Lin & Morris-style defaults scaled to a buffer of
    /// `capacity_bytes`: RED thresholds at B/4 and 3B/4, `min_q` of two
    /// packets.
    pub fn recommended(capacity_bytes: u64, seed: u64) -> FredConfig {
        FredConfig {
            min_th_bytes: capacity_bytes / 4,
            max_th_bytes: capacity_bytes * 3 / 4,
            max_p: 0.1,
            weight: 0.002,
            min_q_bytes: 1000,
            seed,
        }
    }
}

/// The FRED policy.
#[derive(Debug, Clone)]
pub struct Fred {
    occ: Occupancy,
    cfg: FredConfig,
    avg: f64,
    /// Flows with at least one byte queued (nactive).
    active: usize,
    /// Per-flow strike counters (persistent overrunners).
    strikes: Vec<u32>,
    rng: u64,
}

impl Fred {
    /// Build for `flows` flows over `capacity_bytes`.
    pub fn new(capacity_bytes: u64, flows: usize, cfg: FredConfig) -> Fred {
        assert!(
            cfg.min_th_bytes < cfg.max_th_bytes,
            "min_th must be below max_th"
        );
        assert!(cfg.max_p > 0.0 && cfg.max_p <= 1.0, "max_p in (0,1]");
        Fred {
            occ: Occupancy::new(capacity_bytes, flows),
            cfg,
            avg: 0.0,
            active: 0,
            strikes: vec![0; flows],
            rng: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Fair per-flow share of the average queue, bytes.
    pub fn avgcq(&self) -> f64 {
        if self.active == 0 {
            self.avg
        } else {
            self.avg / self.active as f64
        }
    }
}

impl BufferPolicy for Fred {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        self.avg += self.cfg.weight * (self.occ.total() as f64 - self.avg);
        // Uncongested (avg below min_th): flows may buffer up to the
        // RED low-water mark each, as in the original algorithm —
        // otherwise the near-zero fair share would prevent any queue
        // from ever forming. Congested: fair share of the average.
        let fair = if self.avg < self.cfg.min_th_bytes as f64 {
            self.cfg.min_th_bytes as f64
        } else {
            self.avgcq().max(self.cfg.min_q_bytes as f64)
        };
        let (Some(a), Some(strikes)) = (self.occ.arrival(flow), self.strikes.get_mut(flow.index()))
        else {
            return UNKNOWN_FLOW;
        };
        if !a.fits(len) {
            return Verdict::Drop(DropReason::BufferFull);
        }
        let q = a.held();
        // Persistent overrunners (strikes) are clamped at the fair
        // share outright — FRED's non-adaptive-flow defense.
        if q as f64 + len as f64 > 2.0 * fair {
            *strikes = strikes.saturating_add(1);
            return Verdict::Drop(DropReason::OverThreshold);
        }
        if *strikes > 1 && q as f64 + len as f64 > fair {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        // RED regime on the average queue, but only for flows already
        // at or above their fair share (min_q-protected otherwise).
        if self.avg >= self.cfg.max_th_bytes as f64 {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        if self.avg > self.cfg.min_th_bytes as f64 && q + len as u64 > self.cfg.min_q_bytes {
            let span = (self.cfg.max_th_bytes - self.cfg.min_th_bytes) as f64;
            let pb = self.cfg.max_p * (self.avg - self.cfg.min_th_bytes as f64) / span;
            if uniform(&mut self.rng) < pb {
                return Verdict::Drop(DropReason::OverThreshold);
            }
        }
        if q == 0 {
            self.active += 1;
        }
        a.charge(len);
        Verdict::Admit
    }

    fn release(&mut self, flow: FlowId, len: u32) {
        if self.occ.credit(flow, len) == Some(0) {
            self.active -= 1;
            // A flow that drained its backlog earns its strikes back
            // slowly (one per empty episode).
            if let Some(s) = self.strikes.get_mut(flow.index()) {
                *s = s.saturating_sub(1);
            }
        }
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
        "fred"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fred(capacity: u64, flows: usize) -> Fred {
        Fred::new(capacity, flows, FredConfig::recommended(capacity, 5))
    }

    #[test]
    fn fair_share_tracks_active_flows() {
        let mut p = fred(100_000, 4);
        assert_eq!(p.avgcq(), 0.0);
        // Two flows hold queue; EWMA builds; avgcq = avg/2.
        for _ in 0..2000 {
            let _ = p.admit(FlowId(0), 500);
            let _ = p.admit(FlowId(1), 500);
            if p.total_occupancy() > 40_000 {
                p.release(FlowId(0), 500);
                p.release(FlowId(1), 500);
            }
        }
        assert_eq!(p.active, 2);
        assert!(p.avgcq() > 0.0);
        assert!((p.avgcq() - p.avg / 2.0).abs() < 1e-9);
    }

    #[test]
    fn overrunner_is_clamped_at_twice_fair_share() {
        let mut p = fred(100_000, 2);
        // Flow 1 keeps a modest steady backlog to define the fair share.
        for _ in 0..5000 {
            let _ = p.admit(FlowId(1), 500);
            if p.flow_occupancy(FlowId(1)) > 10_000 {
                p.release(FlowId(1), 500);
            }
        }
        // Flow 0 blasts: FRED clamps it at twice the uncongested
        // per-flow cap (2·min_th = 50 KB), well short of the ~90 KB the
        // buffer would physically allow.
        let mut blast = 0u64;
        while p.admit(FlowId(0), 500).admitted() {
            blast += 500;
            assert!(blast < 90_000, "FRED never clamped the blast");
        }
        let q0 = p.flow_occupancy(FlowId(0));
        assert!(
            q0 <= 2 * p.cfg.min_th_bytes + 500,
            "blast occupancy {q0} above 2·min_th"
        );
        // And the stop was a FRED clamp, not buffer exhaustion.
        assert!(p.total_occupancy() + 500 <= p.capacity());
    }

    #[test]
    fn min_q_protects_fragile_flows() {
        let mut p = fred(100_000, 3);
        // Build congestion with flows 0 and 1 (EWMA above min_th).
        for _ in 0..20_000 {
            let _ = p.admit(FlowId(0), 500);
            let _ = p.admit(FlowId(1), 500);
            if p.total_occupancy() > 60_000 {
                p.release(FlowId(0), 500);
                p.release(FlowId(1), 500);
            }
        }
        assert!(p.avg > p.cfg.min_th_bytes as f64, "no congestion built");
        // A fragile flow sending its first small packet is admitted
        // (below min_q, no RED lottery applies).
        assert!(p.admit(FlowId(2), 500).admitted());
    }

    #[test]
    fn strikes_decay_when_flow_drains() {
        let mut p = fred(50_000, 2);
        // Earn a strike.
        while p.admit(FlowId(0), 500).admitted() {}
        assert!(p.strikes[0] > 0);
        let s = p.strikes[0];
        // Drain completely: strike count decremented.
        while p.flow_occupancy(FlowId(0)) > 0 {
            p.release(FlowId(0), 500);
        }
        assert_eq!(p.strikes[0], s - 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = Fred::new(50_000, 1, FredConfig::recommended(50_000, seed));
            let mut v = Vec::new();
            for _ in 0..3000 {
                v.push(p.admit(FlowId(0), 500).admitted());
                if p.total_occupancy() > 30_000 {
                    p.release(FlowId(0), 500);
                }
            }
            v
        };
        assert_eq!(run(1), run(1));
    }
}
