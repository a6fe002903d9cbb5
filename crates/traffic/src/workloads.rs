//! The paper's exact workloads: Table 1 (9 flows) and Table 2 (30 flows).
//!
//! All sizes use binary KBytes (1 KByte = 1024 B, per DESIGN.md §7) and
//! the paper's universal 500-byte packets. Flow numbering matches the
//! table rows, so "flows 6 and 8" in Figure 3 are `FlowId(6)`/`FlowId(8)`
//! here too.

use crate::kind::SourceKind;
use crate::onoff::{OnOffSource, Sojourns};
use crate::regulator::ShapedSource;
use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::units::{ByteSize, Rate};

/// The paper's maximum (and only) packet size, §3.2.
pub const PACKET_BYTES: u32 = 500;

/// The simulated link rate, "48 Mb/s, a little over T3 capacity" (§3.2).
pub const LINK_RATE_BPS: u64 = 48_000_000;

fn kib(k: u64) -> u64 {
    ByteSize::from_kib(k).bytes()
}

/// Table 1: the 9-flow §3.2 workload.
///
/// | Flow | Peak | Avg | Bucket | Token rate | Class |
/// |------|------|-----|--------|-----------|-------|
/// | 0–2  | 16   | 2   | 50 KB  | 2.0       | conformant (shaped) |
/// | 3–5  | 40   | 8   | 100 KB | 8.0       | conformant (shaped) |
/// | 6–7  | 40   | 4   | 50 KB  | 0.4       | aggressive, bursts 5× bucket |
/// | 8    | 40   | 16  | 50 KB  | 2.0       | aggressive, bursts 5× bucket |
///
/// Aggregate reservation 32.8 Mb/s (≈ 68 % of the link); mean offered
/// load slightly above 100 %.
pub fn table1() -> Vec<FlowSpec> {
    let mut flows = Vec::with_capacity(9);
    for i in 0..3u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(16.0))
                .avg(Rate::from_mbps(2.0))
                .bucket(kib(50))
                .token_rate(Rate::from_mbps(2.0))
                .class(Conformance::Conformant)
                .adaptive(true)
                .build(),
        );
    }
    for i in 3..6u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(40.0))
                .avg(Rate::from_mbps(8.0))
                .bucket(kib(100))
                .token_rate(Rate::from_mbps(8.0))
                .class(Conformance::Conformant)
                .adaptive(true)
                .build(),
        );
    }
    for i in 6..8u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(40.0))
                .avg(Rate::from_mbps(4.0))
                .bucket(kib(50))
                .token_rate(Rate::from_kbps(400.0))
                .mean_burst(5 * kib(50)) // "average burst size exceeds
                // their token bucket by a factor of 5"
                .class(Conformance::Aggressive)
                .build(),
        );
    }
    flows.push(
        FlowSpec::builder(FlowId(8))
            .peak(Rate::from_mbps(40.0))
            .avg(Rate::from_mbps(16.0))
            .bucket(kib(50))
            .token_rate(Rate::from_mbps(2.0))
            .mean_burst(5 * kib(50))
            .class(Conformance::Aggressive)
            .build(),
    );
    flows
}

/// Table 2: the 30-flow §4.2 Case 2 workload.
///
/// | Flows | Peak | Avg | Bucket | Token rate | Class |
/// |-------|------|-----|--------|-----------|-------|
/// | 0–9   | 8    | 0.6 | 15 KB  | 0.6       | conformant (shaped) |
/// | 10–19 | 24   | 2.4 | 30 KB  | 2.4       | moderately non-conformant |
/// | 20–29 | 8    | 2.4 | 35 KB  | 0.3       | aggressive, 500 KB bursts |
pub fn table2() -> Vec<FlowSpec> {
    let mut flows = Vec::with_capacity(30);
    for i in 0..10u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(8.0))
                .avg(Rate::from_mbps(0.6))
                .bucket(kib(15))
                .token_rate(Rate::from_mbps(0.6))
                .class(Conformance::Conformant)
                .adaptive(true)
                .build(),
        );
    }
    for i in 10..20u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(24.0))
                .avg(Rate::from_mbps(2.4))
                .bucket(kib(30))
                .token_rate(Rate::from_mbps(2.4))
                // "their mean rate and average burst size conform to
                // their specified token parameters" — but unshaped.
                .mean_burst(kib(30))
                .class(Conformance::ModeratelyNonConformant)
                .adaptive(true)
                .build(),
        );
    }
    for i in 20..30u32 {
        flows.push(
            FlowSpec::builder(FlowId(i))
                .peak(Rate::from_mbps(8.0))
                .avg(Rate::from_mbps(2.4))
                .bucket(kib(35))
                .token_rate(Rate::from_kbps(300.0))
                .mean_burst(kib(500)) // "average burst size is 500KBytes"
                .class(Conformance::Aggressive)
                .build(),
        );
    }
    flows
}

/// Build the packet source for one flow of a workload.
///
/// Every flow is a Markov-modulated ON-OFF source with the spec's
/// moments; **conformant** flows are additionally passed through a
/// `(σ, ρ)` leaky-bucket regulator, exactly as in §3.2. The seed is
/// mixed with the flow id so each flow gets an independent stream while
/// the whole workload stays reproducible per run seed. The result is a
/// [`SourceKind`], so the simulator's inner loop dispatches through an
/// inlinable `match` instead of a vtable.
pub fn build_source_kind(spec: &FlowSpec, run_seed: u64) -> SourceKind {
    build_source_kind_with_sojourns(spec, run_seed, Sojourns::Exponential)
}

/// [`build_source_kind`] with an explicit sojourn family — the
/// `ablate-burstiness` experiment swaps in heavy-tailed Pareto bursts
/// while keeping every Table-1/2 moment identical.
pub fn build_source_kind_with_sojourns(
    spec: &FlowSpec,
    run_seed: u64,
    sojourns: Sojourns,
) -> SourceKind {
    // SplitMix-style seed mixing: avoids correlated ChaCha streams for
    // adjacent (seed, flow) pairs.
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(spec.id.0 as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;

    let onoff = OnOffSource::with_sojourns(
        spec.peak,
        spec.avg,
        spec.mean_burst_bytes,
        PACKET_BYTES,
        z,
        sojourns,
    );
    if spec.class.is_conformant() {
        SourceKind::Regulated(ShapedSource::new(onoff, spec.bucket_bytes, spec.token_rate))
    } else {
        SourceKind::OnOff(onoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{collect_emissions, empirical_rate_bps};

    #[test]
    fn table1_matches_paper_rows() {
        let t = table1();
        assert_eq!(t.len(), 9);
        // Spot-check the table values.
        assert_eq!(t[0].peak, Rate::from_mbps(16.0));
        assert_eq!(t[0].bucket_bytes, kib(50));
        assert_eq!(t[3].token_rate, Rate::from_mbps(8.0));
        assert_eq!(t[3].bucket_bytes, kib(100));
        assert_eq!(t[6].token_rate, Rate::from_kbps(400.0));
        assert_eq!(t[6].mean_burst_bytes, 5 * kib(50));
        assert_eq!(t[8].avg, Rate::from_mbps(16.0));
        // Flow ids are the row numbers.
        for (i, f) in t.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u32));
        }
    }

    #[test]
    fn table1_aggregate_reservation_is_32_8_mbps() {
        let total: u64 = table1().iter().map(|f| f.token_rate.bps()).sum();
        assert_eq!(total, 32_800_000);
        // ≈ 68 % of the 48 Mb/s link (§3.2).
        assert!((total as f64 / LINK_RATE_BPS as f64 - 0.683).abs() < 0.01);
    }

    #[test]
    fn table1_offered_load_just_over_capacity() {
        // "the mean offered load is a little over 100% of the output
        // link's capacity": 3·2 + 3·8 + 2·4 + 16 = 54 Mb/s offered...
        // conformant flows are shaped to their token rate, so the
        // *post-shaper* load is 3·2 + 3·8 + 4 + 4 + 16 = 54 Mb/s raw,
        // shaped ≈ 30 + 24 = 54 ≥ 48.
        let offered: u64 = table1().iter().map(|f| f.avg.bps()).sum();
        assert_eq!(offered, 54_000_000);
        assert!(offered as f64 / LINK_RATE_BPS as f64 > 1.0);
    }

    #[test]
    fn table2_matches_paper_rows() {
        let t = table2();
        assert_eq!(t.len(), 30);
        assert_eq!(t[0].token_rate, Rate::from_mbps(0.6));
        assert_eq!(t[10].peak, Rate::from_mbps(24.0));
        assert_eq!(t[10].class, Conformance::ModeratelyNonConformant);
        assert_eq!(t[20].token_rate, Rate::from_kbps(300.0));
        assert_eq!(t[20].mean_burst_bytes, kib(500));
        // Aggressive flows offer 8× their reservation (§4.2).
        assert!((t[20].overload_factor() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn table2_reservation_and_load() {
        let t = table2();
        let reserved: u64 = t.iter().map(|f| f.token_rate.bps()).sum();
        assert_eq!(reserved, 33_000_000); // 6 + 24 + 3
        let offered: u64 = t.iter().map(|f| f.avg.bps()).sum();
        assert_eq!(offered, 54_000_000); // 6 + 24 + 24: overload
    }

    #[test]
    fn sources_built_per_class() {
        let t = table1();
        // Conformant flow: long-run output rate equals the token rate.
        let mut s0 = build_source_kind(&t[0], 1);
        let em = collect_emissions(&mut s0, 150_000);
        let r = empirical_rate_bps(&em);
        assert!(
            (r - 2e6).abs() / 2e6 < 0.08,
            "shaped flow 0 rate {r} (expect ≈ 2 Mb/s)"
        );
        // Aggressive flow 8: unshaped, runs at its 16 Mb/s average.
        let mut s8 = build_source_kind(&t[8], 1);
        let em8 = collect_emissions(&mut s8, 40_000);
        let r8 = empirical_rate_bps(&em8);
        assert!(
            (r8 - 16e6).abs() / 16e6 < 0.1,
            "aggressive flow 8 rate {r8} (expect ≈ 16 Mb/s)"
        );
    }

    #[test]
    fn per_flow_seeds_are_decorrelated() {
        let t = table1();
        let mut a = build_source_kind(&t[0], 7);
        let mut b = build_source_kind(&t[1], 7);
        // Identical specs, same run seed, different flow ids -> traces differ.
        let ea = collect_emissions(&mut a, 100);
        let eb = collect_emissions(&mut b, 100);
        assert_ne!(ea, eb);
        // Same flow same seed -> identical.
        let mut a2 = build_source_kind(&t[0], 7);
        assert_eq!(ea, collect_emissions(&mut a2, 100));
    }
}

/// A scaled Table-1 workload: `k` copies of each row with every rate
/// divided by `k`, preserving the 68 % reserved utilization and the
/// conformant/aggressive mix while multiplying the flow count by `k` —
/// the `ablate-scale` experiment's input (the paper's motivation is
/// "thousands of sessions"; this is how we approach that regime on the
/// same link).
///
/// Bucket and burst sizes are also divided by `k` (keeping per-flow
/// burst-to-rate ratios), with a floor of 4 packets so every flow can
/// still emit.
pub fn table1_scaled(k: u32) -> Vec<FlowSpec> {
    assert!(k >= 1, "scale factor must be at least 1");
    let base = table1();
    let mut flows = Vec::with_capacity(base.len() * k as usize);
    let floor = 4 * PACKET_BYTES as u64;
    for copy in 0..k {
        for spec in &base {
            let id = FlowId(copy * base.len() as u32 + spec.id.0);
            flows.push(
                FlowSpec::builder(id)
                    .peak(Rate::from_bps(
                        (spec.peak.bps() / k as u64).max(8 * PACKET_BYTES as u64),
                    ))
                    .avg(Rate::from_bps((spec.avg.bps() / k as u64).max(1)))
                    .bucket((spec.bucket_bytes / k as u64).max(floor))
                    .token_rate(Rate::from_bps((spec.token_rate.bps() / k as u64).max(1)))
                    .mean_burst((spec.mean_burst_bytes / k as u64).max(floor))
                    .class(spec.class)
                    .adaptive(spec.adaptive)
                    .build(),
            );
        }
    }
    flows
}

#[cfg(test)]
mod scaled_tests {
    use super::*;

    #[test]
    fn scaled_preserves_total_reservation() {
        let base: u64 = table1().iter().map(|f| f.token_rate.bps()).sum();
        for k in [1u32, 3, 10] {
            let scaled = table1_scaled(k);
            assert_eq!(scaled.len(), 9 * k as usize);
            let total: u64 = scaled.iter().map(|f| f.token_rate.bps()).sum();
            let rel = (total as f64 - base as f64).abs() / base as f64;
            assert!(rel < 0.01, "k={k}: reservation drifted to {total}");
            // Ids are dense 0..9k.
            for (i, f) in scaled.iter().enumerate() {
                assert_eq!(f.id.0 as usize, i);
            }
        }
    }

    #[test]
    fn scaled_keeps_class_mix() {
        let scaled = table1_scaled(4);
        let aggressive = scaled
            .iter()
            .filter(|f| f.class == Conformance::Aggressive)
            .count();
        assert_eq!(aggressive, 3 * 4);
    }

    #[test]
    fn peak_stays_at_or_above_avg() {
        for f in table1_scaled(20) {
            assert!(f.peak >= f.avg, "{}: peak below avg", f.id);
        }
    }
}
