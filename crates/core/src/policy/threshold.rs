//! Fixed per-flow occupancy thresholds — the paper's §2 scheme.
//!
//! Flow `i` is assigned a threshold
//!
//! ```text
//! Bᵢ = σᵢ + ρᵢ · B / R        (Propositions 1–2)
//! ```
//!
//! and an arriving packet is admitted iff the flow stays within its
//! threshold *and* the buffer has room. When the buffer is larger than
//! the sum of thresholds, all thresholds are scaled up so the buffer is
//! fully partitioned (the paper's footnote 5); this is what lets the
//! scheme keep using buffer space as `B` grows in the Figure 1–3 sweeps.
//!
//! With `B ≥ R·Σσ/(R−Σρ)` (Eq. 9) every conformant flow is lossless; the
//! necessity direction is Example 1 / the note after Proposition 2.

use super::{BufferPolicy, DropReason, Occupancy, Verdict, UNKNOWN_FLOW};
use crate::flow::{FlowId, FlowSpec};
use crate::units::Rate;

/// Tuning knobs for [`FixedThreshold`] (mostly for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdOptions {
    /// Apply the footnote-5 scale-up when `Σ thresholds < B`
    /// (default: true, as in the paper).
    pub scale_up_to_partition: bool,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        ThresholdOptions {
            scale_up_to_partition: true,
        }
    }
}

/// The §2 fixed-partition policy: per-flow thresholds, O(1) admission.
#[derive(Debug, Clone)]
pub struct FixedThreshold {
    occ: Occupancy,
    /// Per-flow thresholds `Bᵢ`, bytes (post scale-up).
    thresholds: Vec<u64>,
}

impl FixedThreshold {
    /// Compute thresholds for `specs` sharing a `capacity_bytes` buffer
    /// in front of a `link_rate` FIFO link.
    ///
    /// Panics if `link_rate` is zero (a configuration error).
    pub fn new(
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
        opts: ThresholdOptions,
    ) -> FixedThreshold {
        let thresholds = compute_thresholds(capacity_bytes, link_rate, specs, opts);
        FixedThreshold {
            occ: Occupancy::new(capacity_bytes, specs.len()),
            thresholds,
        }
    }

    /// Build with explicitly supplied per-flow thresholds (bytes).
    ///
    /// Used by the §4 hybrid architecture, where flow `j` in queue `i`
    /// gets `σⱼ + ρⱼ·Bᵢ/Rᵢ` computed against its *queue's* buffer share
    /// and service rate rather than the whole link.
    pub fn with_thresholds(capacity_bytes: u64, thresholds: Vec<u64>) -> FixedThreshold {
        FixedThreshold {
            occ: Occupancy::new(capacity_bytes, thresholds.len()),
            thresholds,
        }
    }

    /// The configured per-flow thresholds, bytes.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }
}

/// Raw Proposition-2 threshold `σᵢ + ρᵢ·B/R` in (fractional) bytes.
pub fn raw_threshold(capacity_bytes: u64, link_rate: Rate, spec: &FlowSpec) -> f64 {
    assert!(link_rate.bps() > 0, "zero link rate");
    spec.bucket_bytes as f64
        + spec.token_rate.bps() as f64 * capacity_bytes as f64 / link_rate.bps() as f64
}

/// Thresholds for a flow set, with optional footnote-5 scale-up.
/// Public so harnesses can ablate the scale-up rule via
/// [`FixedThreshold::with_thresholds`].
pub fn compute_thresholds(
    capacity_bytes: u64,
    link_rate: Rate,
    specs: &[FlowSpec],
    opts: ThresholdOptions,
) -> Vec<u64> {
    let raw: Vec<f64> = specs
        .iter()
        .map(|s| raw_threshold(capacity_bytes, link_rate, s))
        .collect();
    let sum: f64 = raw.iter().sum();
    let scale = if opts.scale_up_to_partition && sum > 0.0 && sum < capacity_bytes as f64 {
        capacity_bytes as f64 / sum
    } else {
        1.0
    };
    raw.iter().map(|t| (t * scale).round() as u64).collect()
}

impl BufferPolicy for FixedThreshold {
    fn admit(&mut self, flow: FlowId, len: u32) -> Verdict {
        let (Some(a), Some(&limit)) = (self.occ.arrival(flow), self.thresholds.get(flow.index()))
        else {
            return UNKNOWN_FLOW;
        };
        if a.held() + len as u64 > limit {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        if !a.fits(len) {
            return Verdict::Drop(DropReason::BufferFull);
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
        self.thresholds.get(flow.index()).copied()
    }

    fn name(&self) -> &'static str {
        "fixed-threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ByteSize;

    fn spec(i: u32, rho_mbps: f64, bucket_kib: u64) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(ByteSize::from_kib(bucket_kib).bytes())
            .build()
    }

    const LINK: Rate = Rate::from_bps(48_000_000);

    #[test]
    fn threshold_formula_matches_proposition_2() {
        // Flow with ρ = 12 Mb/s (a quarter of the link), σ = 100 KiB,
        // B = 1 MiB, no scale-up: threshold = σ + B/4.
        let s = [spec(0, 12.0, 100)];
        let t = compute_thresholds(
            ByteSize::from_mib(1).bytes(),
            LINK,
            &s,
            ThresholdOptions {
                scale_up_to_partition: false,
            },
        );
        let expect: f64 = 102_400.0 + 1_048_576.0 / 4.0;
        assert_eq!(t[0], expect.round() as u64);
    }

    #[test]
    fn footnote5_scale_up_fully_partitions() {
        // Small reservations in a big buffer: Σ raw < B, so thresholds
        // scale so that Σ == B (±1 B rounding per flow).
        let s = [spec(0, 2.0, 50), spec(1, 8.0, 100), spec(2, 0.4, 50)];
        let b = ByteSize::from_mib(4).bytes();
        let t = compute_thresholds(b, LINK, &s, ThresholdOptions::default());
        let sum: u64 = t.iter().sum();
        assert!((sum as i64 - b as i64).unsigned_abs() <= s.len() as u64);
        // And scaling preserved proportions.
        let raw0 = raw_threshold(b, LINK, &s[0]);
        let raw1 = raw_threshold(b, LINK, &s[1]);
        let ratio_raw = raw0 / raw1;
        let ratio_scaled = t[0] as f64 / t[1] as f64;
        assert!((ratio_raw - ratio_scaled).abs() < 1e-3);
    }

    #[test]
    fn no_scale_up_when_thresholds_exceed_buffer() {
        // High utilization + small buffer: Σ raw > B, thresholds kept.
        let s = [spec(0, 20.0, 500), spec(1, 20.0, 500)];
        let b = ByteSize::from_kib(100).bytes();
        let t = compute_thresholds(b, LINK, &s, ThresholdOptions::default());
        let raw: u64 = raw_threshold(b, LINK, &s[0]).round() as u64;
        assert_eq!(t[0], raw);
        assert!(t.iter().sum::<u64>() > b);
    }

    #[test]
    fn isolates_an_aggressive_flow() {
        // Conformant flow 0 keeps its reserved share even when flow 1
        // tries to fill the whole buffer.
        let s = [spec(0, 24.0, 10), spec(1, 2.0, 10)];
        let b = 100_000;
        let mut p = FixedThreshold::new(b, LINK, &s, ThresholdOptions::default());
        let t1 = p.threshold(FlowId(1)).unwrap();
        // Flow 1 stuffs packets until its threshold stops it.
        let mut stuffed = 0u64;
        while p.admit(FlowId(1), 500).admitted() {
            stuffed += 500;
        }
        assert!(stuffed <= t1);
        assert_eq!(
            p.admit(FlowId(1), 500),
            Verdict::Drop(DropReason::OverThreshold)
        );
        // Flow 0 can still get its full threshold in.
        let t0 = p.threshold(FlowId(0)).unwrap();
        let mut got = 0u64;
        while p.admit(FlowId(0), 500).admitted() {
            got += 500;
        }
        assert!(
            got + 500 > t0.min(b - stuffed),
            "flow 0 starved: {got} of {t0}"
        );
    }

    #[test]
    fn drop_leaves_state_unchanged() {
        let s = [spec(0, 2.0, 1)];
        let mut p = FixedThreshold::new(
            10_000,
            LINK,
            &s,
            ThresholdOptions {
                scale_up_to_partition: false,
            },
        );
        let before = p.flow_occupancy(FlowId(0));
        let v = p.admit(FlowId(0), 50_000);
        assert!(!v.admitted());
        assert_eq!(p.flow_occupancy(FlowId(0)), before);
        assert_eq!(p.total_occupancy(), 0);
    }

    #[test]
    fn buffer_full_beats_threshold_when_oversubscribed() {
        // Two flows whose thresholds together exceed B: the second flow
        // is under threshold but the buffer is full.
        let s = [spec(0, 20.0, 500), spec(1, 20.0, 500)];
        let b = 100_000;
        let mut p = FixedThreshold::new(b, LINK, &s, ThresholdOptions::default());
        while p.admit(FlowId(0), 500).admitted() {}
        // Flow 0 stopped by BufferFull (its threshold > B here).
        assert_eq!(p.total_occupancy(), b);
        assert_eq!(
            p.admit(FlowId(1), 500),
            Verdict::Drop(DropReason::BufferFull)
        );
    }

    #[test]
    fn release_reopens_threshold_room() {
        let s = [spec(0, 2.0, 1)];
        let mut p = FixedThreshold::new(
            100_000,
            LINK,
            &s,
            ThresholdOptions {
                scale_up_to_partition: false,
            },
        );
        let t = p.threshold(FlowId(0)).unwrap();
        let n_fit = t / 500;
        for _ in 0..n_fit {
            assert!(p.admit(FlowId(0), 500).admitted());
        }
        assert!(!p.admit(FlowId(0), 500).admitted());
        p.release(FlowId(0), 500);
        assert!(p.admit(FlowId(0), 500).admitted());
    }
}
