//! Property-based tests over qbm-core's arithmetic and invariants.

use proptest::prelude::*;
use qbm_core::admission::fifo_required_buffer;
use qbm_core::analysis::{required_buffer_eq9, single_fifo_buffer_eq13};
use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::{compute_thresholds, ThresholdOptions};
use qbm_core::token_bucket::TokenBucket;
use qbm_core::units::{Dur, Rate, Time};

proptest! {
    /// Transmission time is (nearly) additive: splitting a transfer
    /// into two packets costs at most 1 ns of rounding.
    #[test]
    fn transmission_time_additive(
        rate in 1_000u64..10_000_000_000,
        a in 1u64..100_000,
        b in 1u64..100_000,
    ) {
        let r = Rate::from_bps(rate);
        let whole = r.transmission_time(a + b).as_nanos() as i128;
        let split = r.transmission_time(a).as_nanos() as i128
            + r.transmission_time(b).as_nanos() as i128;
        prop_assert!((whole - split).abs() <= 1, "whole {whole} split {split}");
    }

    /// Monotonicity: more bytes never transmit faster; a faster link
    /// never transmits slower.
    #[test]
    fn transmission_time_monotone(
        rate in 1_000u64..1_000_000_000,
        bytes in 1u64..1_000_000,
        extra_bytes in 1u64..1_000_000,
        extra_rate in 1u64..1_000_000_000,
    ) {
        let r = Rate::from_bps(rate);
        prop_assert!(r.transmission_time(bytes + extra_bytes) >= r.transmission_time(bytes));
        let faster = Rate::from_bps(rate + extra_rate);
        prop_assert!(faster.transmission_time(bytes) <= r.transmission_time(bytes));
    }

    /// `bits_in` and `time_to_send_bits` are consistent inverses.
    #[test]
    fn rate_inverse_functions(
        rate in 1_000u64..1_000_000_000,
        bits in 1u64..10_000_000,
    ) {
        let r = Rate::from_bps(rate);
        let t = r.time_to_send_bits(bits).unwrap();
        prop_assert!(r.bits_in(t) >= bits);
        if t.as_nanos() > 0 {
            prop_assert!(r.bits_in(Dur(t.as_nanos() - 1)) < bits);
        }
    }

    /// A token bucket's level never exceeds its depth nor goes negative,
    /// under any interleaving of updates and sends.
    #[test]
    fn token_bucket_level_bounded(
        sigma in 100u64..100_000,
        rate in 1_000u64..100_000_000,
        steps in proptest::collection::vec((1u64..1_000_000, 1u64..2_000), 1..100),
    ) {
        let mut tb = TokenBucket::new(sigma, Rate::from_bps(rate));
        let mut now = Time::ZERO;
        for (dt, want) in steps {
            now += Dur(dt);
            let _ = tb.try_consume(now, want);
            let level = tb.level_bytes();
            prop_assert!(level >= -1e-9 && level <= sigma as f64 + 1e-9, "level {level}");
        }
    }

    /// Once a packet conforms it keeps conforming (token level is
    /// non-decreasing while idle).
    #[test]
    fn conformance_is_monotone_in_time(
        sigma in 1_000u64..100_000,
        rate in 1_000u64..100_000_000,
        drain in 1u64..100_000,
        wait1 in 0u64..10_000_000,
        wait2 in 0u64..10_000_000,
        pkt in 1u64..1_500,
    ) {
        let mut tb = TokenBucket::new(sigma, Rate::from_bps(rate));
        let _ = tb.try_consume(Time::ZERO, drain.min(sigma));
        let t1 = Time::ZERO + Dur(wait1);
        let t2 = t1 + Dur(wait2);
        let c1 = tb.conforms(t1, pkt);
        let c2 = tb.conforms(t2, pkt);
        prop_assert!(!c1 || c2, "conformance lost while idle");
    }

    /// Footnote-5 scale-up: whenever the raw thresholds undershoot the
    /// buffer, the scaled ones tile it (± a byte per flow), and scaling
    /// never produces a threshold below the raw one.
    #[test]
    fn scale_up_tiles_buffer(
        rhos in proptest::collection::vec(100_000u64..8_000_000, 1..10),
        sigmas in proptest::collection::vec(1_000u64..200_000, 1..10),
        buffer in 100_000u64..8_000_000,
    ) {
        let n = rhos.len().min(sigmas.len());
        let specs: Vec<FlowSpec> = (0..n).map(|i| {
            FlowSpec::builder(FlowId(i as u32))
                .token_rate(Rate::from_bps(rhos[i]))
                .bucket(sigmas[i])
                .build()
        }).collect();
        let link = Rate::from_bps(48_000_000);
        let raw = compute_thresholds(buffer, link, &specs, ThresholdOptions {
            scale_up_to_partition: false,
        });
        let scaled = compute_thresholds(buffer, link, &specs, ThresholdOptions::default());
        let raw_sum: u64 = raw.iter().sum();
        if raw_sum < buffer {
            let scaled_sum: u64 = scaled.iter().sum();
            prop_assert!(
                (scaled_sum as i64 - buffer as i64).unsigned_abs() <= n as u64,
                "scaled sum {scaled_sum} vs buffer {buffer}"
            );
            for (r, s) in raw.iter().zip(&scaled) {
                prop_assert!(s >= r, "scale-up shrank a threshold");
            }
        } else {
            prop_assert_eq!(raw, scaled);
        }
    }

    /// At exactly the Eq.-9 buffer, the raw Prop-2 thresholds tile the
    /// buffer: Σ(σi + ρi·B/R) = B. The algebraic fixed point.
    #[test]
    fn eq9_buffer_is_threshold_fixed_point(
        rhos in proptest::collection::vec(100_000u64..6_000_000, 1..8),
        sigmas in proptest::collection::vec(1_000u64..200_000, 1..8),
    ) {
        let n = rhos.len().min(sigmas.len());
        let specs: Vec<FlowSpec> = (0..n).map(|i| {
            FlowSpec::builder(FlowId(i as u32))
                .token_rate(Rate::from_bps(rhos[i]))
                .bucket(sigmas[i])
                .build()
        }).collect();
        let link = Rate::from_bps(48_000_000);
        let needed = fifo_required_buffer(link, &specs);
        prop_assume!(needed.is_finite());
        let b = needed.round() as u64;
        let raw = compute_thresholds(b, link, &specs, ThresholdOptions {
            scale_up_to_partition: false,
        });
        let sum: u64 = raw.iter().sum();
        prop_assert!(
            (sum as i64 - b as i64).unsigned_abs() <= n as u64 + 1,
            "thresholds sum {sum} vs Eq.9 buffer {b}"
        );
    }
}

proptest! {
    /// One Eq. 9: the admission test, the Proposition-2 formula and the
    /// §4 single-FIFO baseline (Eq. 13) agree bit for bit whenever the
    /// link is not oversubscribed, and the admission test reports an
    /// infinite buffer whenever it is — a zero-rate link included.
    #[test]
    fn eq9_eq13_and_admission_buffer_agree(
        link_bps in 0u64..60_000_000,
        rhos in proptest::collection::vec(0u64..20_000_000, 0..8),
        sigmas in proptest::collection::vec(0u64..500_000, 0..8),
    ) {
        let n = rhos.len().min(sigmas.len());
        let specs: Vec<FlowSpec> = (0..n).map(|i| {
            FlowSpec::builder(FlowId(i as u32))
                .token_rate(Rate::from_bps(rhos[i]))
                .bucket(sigmas[i])
                .build()
        }).collect();
        let r = link_bps as f64;
        let rho: f64 = specs.iter().map(|s| s.token_rate.bps() as f64).sum();
        let sigma: f64 = specs.iter().map(|s| s.bucket_bytes as f64).sum();
        let admission = fifo_required_buffer(Rate::from_bps(link_bps), &specs);
        if rho < r {
            let eq9 = required_buffer_eq9(r, rho, sigma);
            prop_assert_eq!(admission.to_bits(), eq9.to_bits());
            prop_assert_eq!(single_fifo_buffer_eq13(r, sigma, rho).to_bits(), eq9.to_bits());
        } else {
            prop_assert!(admission.is_infinite(), "Σρ {rho} ≥ R {r} gave {admission}");
        }
    }
}
