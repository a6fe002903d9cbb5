//! Random Early Detection (Floyd & Jacobson) — the classic AQM the
//! paper cites as a buffer-management baseline \[3\].
//!
//! RED keeps an EWMA of the total queue length and drops arriving
//! packets with a probability that ramps from 0 at `min_th` to `max_p`
//! at `max_th` (and 1 above). It has **no per-flow state at all**, so —
//! like [`super::SharedBuffer`] — it cannot protect conformant flows
//! from aggressive ones; it exists here as the "stateless AQM"
//! comparator for the extension benches (the paper's historical
//! context: RED-era AQM vs per-flow reservations).
//!
//! Deterministic: the drop lottery runs on a seeded ChaCha-less LCG so
//! the policy stays dependency-free and runs are reproducible.

use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::FlowId;

/// RED configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// EWMA low-water mark, bytes: below this, never drop early.
    pub min_th_bytes: u64,
    /// EWMA high-water mark, bytes: above this, always drop.
    pub max_th_bytes: u64,
    /// Drop probability at `max_th` (the ramp's top), in (0, 1].
    pub max_p: f64,
    /// EWMA weight per arrival (classic RED uses 0.002).
    pub weight: f64,
    /// Lottery seed.
    pub seed: u64,
}

impl RedConfig {
    /// Floyd's rules of thumb for a buffer of `capacity` bytes:
    /// `min_th = B/4`, `max_th = 3B/4`, `max_p = 0.1`, `w = 0.002`.
    pub fn recommended(capacity_bytes: u64, seed: u64) -> RedConfig {
        RedConfig {
            min_th_bytes: capacity_bytes / 4,
            max_th_bytes: capacity_bytes * 3 / 4,
            max_p: 0.1,
            weight: 0.002,
            seed,
        }
    }
}

/// The RED policy (total-queue AQM, no per-flow state).
#[derive(Debug, Clone)]
pub struct Red {
    occ: Occupancy,
    cfg: RedConfig,
    /// EWMA of the total occupancy, bytes.
    avg: f64,
    /// Packets admitted since the last early drop (the count term of
    /// the original algorithm, uniformizing inter-drop gaps).
    count: u64,
    /// LCG state for the drop lottery.
    rng: u64,
}

impl Red {
    /// Build for `flows` flows (tracking only — admission ignores flow
    /// identity) over a `capacity_bytes` buffer.
    pub fn new(capacity_bytes: u64, flows: usize, cfg: RedConfig) -> Red {
        assert!(
            cfg.min_th_bytes < cfg.max_th_bytes,
            "min_th must be below max_th"
        );
        assert!(
            cfg.max_p > 0.0 && cfg.max_p <= 1.0,
            "max_p must be in (0, 1]"
        );
        assert!(
            cfg.weight > 0.0 && cfg.weight <= 1.0,
            "EWMA weight must be in (0, 1]"
        );
        Red {
            occ: Occupancy::new(capacity_bytes, flows),
            cfg,
            avg: 0.0,
            count: 0,
            rng: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Current EWMA queue estimate, bytes.
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }
}

/// The next draw in `[0, 1)` of the drop lottery whose state is `rng`:
/// xorshift64* — tiny, seedable, plenty for a drop lottery.
pub(super) fn uniform(rng: &mut u64) -> f64 {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

impl BufferPolicy for Red {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        // EWMA update on every arrival.
        self.avg += self.cfg.weight * (self.occ.total() as f64 - self.avg);
        let Some(a) = self.occ.arrival(flow) else {
            return UNKNOWN_FLOW;
        };
        if !a.fits(len) {
            self.count = 0;
            return Verdict::Drop(DropReason::BufferFull);
        }
        if self.avg >= self.cfg.max_th_bytes as f64 {
            self.count = 0;
            return Verdict::Drop(DropReason::OverThreshold);
        }
        if self.avg > self.cfg.min_th_bytes as f64 {
            let span = (self.cfg.max_th_bytes - self.cfg.min_th_bytes) as f64;
            let pb = self.cfg.max_p * (self.avg - self.cfg.min_th_bytes as f64) / span;
            // Uniformized drop probability: pa = pb / (1 − count·pb).
            let pa = (pb / (1.0 - self.count as f64 * pb).max(1e-9)).min(1.0);
            if uniform(&mut self.rng) < pa {
                self.count = 0;
                return Verdict::Drop(DropReason::OverThreshold);
            }
            self.count += 1;
        } else {
            self.count = 0;
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
        None
    }

    fn name(&self) -> &'static str {
        "red"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn red(capacity: u64) -> Red {
        Red::new(capacity, 2, RedConfig::recommended(capacity, 7))
    }

    #[test]
    fn below_min_th_never_drops() {
        let mut p = red(100_000);
        // Keep instantaneous (and thus EWMA) queue below min_th = 25 KB.
        for i in 0..2000 {
            assert!(p.admit(FlowId(i % 2), 500).admitted());
            p.release(FlowId(i % 2), 500);
        }
        assert!(p.avg_queue() < 25_000.0);
    }

    #[test]
    fn sustained_congestion_triggers_early_drops() {
        let mut p = red(100_000);
        // Fill to 60 % and hold: EWMA climbs past min_th, drops begin
        // well before the buffer is full.
        let mut drops = 0;
        let mut admitted_total: u64 = 0;
        for _ in 0..5000 {
            match p.admit(FlowId(0), 500) {
                Verdict::Admit => {
                    admitted_total += 500;
                    if p.total_occupancy() > 60_000 {
                        p.release(FlowId(0), 500); // hold ~60 KB
                    }
                }
                Verdict::Drop(DropReason::OverThreshold) => drops += 1,
                Verdict::Drop(r) => panic!("unexpected {r:?}"),
            }
        }
        assert!(drops > 0, "no early drops under sustained 60% load");
        assert!(p.total_occupancy() < p.capacity(), "RED let the queue fill");
        assert!(admitted_total > 0);
    }

    #[test]
    fn ewma_above_max_th_drops_everything() {
        let mut p = red(100_000);
        // Slam the queue full and keep offering until the EWMA passes
        // max_th; from then on every arrival is dropped.
        let mut saw_hard_phase = false;
        for _ in 0..20_000 {
            let v = p.admit(FlowId(0), 500);
            if p.avg_queue() >= 75_000.0 {
                assert!(!v.admitted(), "admitted above max_th");
                saw_hard_phase = true;
                break;
            }
            if !v.admitted() {
                // keep queue pinned full so the EWMA keeps climbing
                continue;
            }
        }
        assert!(saw_hard_phase, "EWMA never reached max_th");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = Red::new(50_000, 1, RedConfig::recommended(50_000, seed));
            let mut verdicts = Vec::new();
            for _ in 0..3000 {
                let v = p.admit(FlowId(0), 500).admitted();
                verdicts.push(v);
                if p.total_occupancy() > 30_000 {
                    p.release(FlowId(0), 500);
                }
            }
            verdicts
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    #[should_panic(expected = "min_th")]
    fn inverted_thresholds_rejected() {
        let _ = Red::new(
            1000,
            1,
            RedConfig {
                min_th_bytes: 800,
                max_th_bytes: 200,
                max_p: 0.1,
                weight: 0.002,
                seed: 0,
            },
        );
    }
}
