//! Leaky-bucket regulator: the shaper that makes a flow conformant.
//!
//! The paper's conformant flows (Table 1 flows 0–5, Table 2 flows 0–9)
//! are ON-OFF sources "regulated by a leaky bucket with parameters
//! corresponding to their traffic profile". [`ShapedSource`] implements
//! that regulator as a source combinator: it pulls from the inner
//! source and releases each packet at the earliest instant that keeps
//! the output `(σ, ρ)`-conformant, preserving order (an infinite shaper
//! queue — the regulator delays, never drops).

use crate::source::{Emission, Source};
use qbm_core::token_bucket::TokenBucket;
use qbm_core::units::Rate;

/// A `(σ, ρ)` leaky-bucket shaper wrapped around any inner source.
pub struct ShapedSource<S: Source> {
    inner: S,
    /// The bucket's clock doubles as the previous release instant
    /// ([`TokenBucket::last_update`]), which output must not precede:
    /// each release consumes at the release instant.
    bucket: TokenBucket,
}

impl<S: Source> ShapedSource<S> {
    /// Shape `inner` to the envelope (`sigma_bytes`, `rho`).
    ///
    /// Packets longer than `sigma_bytes` can never conform; the shaper
    /// panics if it meets one (a configuration error — the paper's σ
    /// values are ≥ 15 KBytes against 500-byte packets).
    pub fn new(inner: S, sigma_bytes: u64, rho: Rate) -> ShapedSource<S> {
        ShapedSource {
            inner,
            bucket: TokenBucket::new(sigma_bytes, rho),
        }
    }
}

impl<S: Source> Source for ShapedSource<S> {
    fn next_emission(&mut self) -> Option<Emission> {
        let e = self.inner.next_emission()?;
        // Earliest conformant instant at or after both the packet's own
        // arrival at the shaper and the previous release.
        let earliest = e.time.max(self.bucket.last_update());
        let wait = self
            .bucket
            .time_until_conformant(earliest, e.len as u64)
            // qbm-lint: allow(hot-path-panic) — a packet larger than the bucket can never conform; config error, abort
            .unwrap_or_else(|| panic!("packet of {} B larger than bucket", e.len));
        let release = earliest + wait;
        self.bucket.consume(release, e.len as u64);
        Some(Emission {
            time: release,
            len: e.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbr::CbrSource;
    use crate::onoff::OnOffSource;
    use crate::source::collect_emissions;
    use qbm_core::envelope::Envelope;
    use qbm_core::units::{Dur, Time};

    #[test]
    fn output_is_envelope_conformant() {
        // A bursty ON-OFF source shaped to (50 KiB, 2 Mb/s).
        let inner = OnOffSource::new(
            Rate::from_mbps(16.0),
            Rate::from_mbps(2.0),
            5 * 51_200, // bursts 5× the bucket — heavily non-conformant
            500,
            21,
        );
        let mut shaped = ShapedSource::new(inner, 51_200, Rate::from_mbps(2.0));
        let em = collect_emissions(&mut shaped, 20_000);
        let mut cum = 0u64;
        let trace: Vec<(Dur, u64)> = em
            .iter()
            .map(|e| {
                cum += e.len as u64;
                (e.time.since(Time::ZERO), cum)
            })
            .collect();
        // Sample pairs sparsely to keep the O(n²) check fast.
        let sampled: Vec<(Dur, u64)> = trace.iter().step_by(37).copied().collect();
        let env = Envelope::new(51_200, Rate::from_mbps(2.0));
        assert!(
            env.trace_conforms(&sampled, 500),
            "shaper output violated envelope"
        );
    }

    #[test]
    fn conformant_input_passes_undelayed() {
        // A 1 Mb/s CBR through a (10 KiB, 2 Mb/s) shaper: tokens always
        // available, releases equal arrivals.
        let inner = CbrSource::new(Rate::from_mbps(1.0), 500, Time::ZERO);
        let reference = CbrSource::new(Rate::from_mbps(1.0), 500, Time::ZERO);
        let mut shaped = ShapedSource::new(inner, 10_240, Rate::from_mbps(2.0));
        let mut unshaped = reference;
        for _ in 0..1000 {
            assert_eq!(
                shaped.next_emission().unwrap(),
                unshaped.next_emission().unwrap()
            );
        }
    }

    #[test]
    fn burst_passes_then_long_run_rate_is_token_rate() {
        // An 8 Mb/s CBR into a (σ, 2 Mb/s) shaper: after the initial σ
        // burst, output paces at exactly ρ.
        let inner = CbrSource::new(Rate::from_mbps(8.0), 500, Time::ZERO);
        let mut shaped = ShapedSource::new(inner, 2_000, Rate::from_mbps(2.0));
        let em = collect_emissions(&mut shaped, 1000);
        // First 4 packets (2000 B) ride the initial burst: released at
        // the inner CBR's own spacing.
        let inner_gap = Rate::from_mbps(8.0).transmission_time(500);
        assert_eq!(em[1].time.since(em[0].time), inner_gap);
        // Steady state: spacing = token time for 500 B at 2 Mb/s = 2 ms.
        let steady_gap = em[999].time.since(em[998].time);
        assert_eq!(steady_gap, Dur::from_millis(2));
    }

    #[test]
    fn order_preserved() {
        let inner = OnOffSource::new(Rate::from_mbps(40.0), Rate::from_mbps(4.0), 256_000, 500, 5);
        let mut shaped = ShapedSource::new(inner, 51_200, Rate::from_kbps(400.0));
        // collect_emissions asserts monotone times internally.
        let em = collect_emissions(&mut shaped, 5_000);
        assert_eq!(em.len(), 5_000);
    }

    #[test]
    #[should_panic(expected = "larger than bucket")]
    fn oversized_packet_panics() {
        let inner = CbrSource::new(Rate::from_mbps(1.0), 500, Time::ZERO);
        let mut shaped = ShapedSource::new(inner, 100, Rate::from_mbps(1.0));
        let _ = shaped.next_emission();
    }
}
