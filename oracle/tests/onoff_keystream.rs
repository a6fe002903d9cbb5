//! The production ON-OFF source, which computes the one ChaCha8 block
//! each ON/OFF cycle reads, emits exactly what the cached-generator
//! [`OnOffReference`] emits — bare and behind a leaky-bucket
//! regulator, under both sojourn families.

use proptest::prelude::*;
use qbm_core::units::Rate;
use qbm_oracle::OnOffReference;
use qbm_traffic::{OnOffSource, ShapedSource, Sojourns, Source};

const EMISSIONS: usize = 10_000;

fn first_emissions<S: Source>(mut s: S) -> Vec<(u64, u32)> {
    (0..EMISSIONS)
        .map(|_| {
            let e = s.next_emission().expect("ON-OFF sources never end");
            (e.time.as_nanos(), e.len)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn on_demand_keystream_emits_like_the_cached_generator(
        seed in 0..u64::MAX,
        peak_kbps in 1_000u64..100_000,
        avg_permille in 1u64..1001,
        burst in 500u64..200_000,
        pkt_len in 40u32..1500,
        shape in 1.05f64..2.5,
        pareto in 0u32..2,
    ) {
        let peak = Rate::from_bps(peak_kbps * 1000);
        let avg = Rate::from_bps((peak.bps() * avg_permille / 1000).max(1));
        let sojourns = if pareto == 1 {
            Sojourns::Pareto { shape }
        } else {
            Sojourns::Exponential
        };
        let source = || OnOffSource::with_sojourns(peak, avg, burst, pkt_len, seed, sojourns);
        let reference = || OnOffReference::with_sojourns(peak, avg, burst, pkt_len, seed, sojourns);
        prop_assert_eq!(first_emissions(source()), first_emissions(reference()));
        // The regulated form, with a bucket that admits any packet.
        let sigma = 2 * pkt_len as u64 + burst / 4;
        prop_assert_eq!(
            first_emissions(ShapedSource::new(source(), sigma, avg)),
            first_emissions(ShapedSource::new(reference(), sigma, avg))
        );
    }
}
