//! The ON-OFF source on a cached ChaCha8 generator.
//!
//! [`OnOffReference`] is the original design of
//! [`OnOffSource`](qbm_traffic::OnOffSource): the same moments, the same
//! sojourn draws, but its randomness comes from a [`ChaCha8Rng`] that
//! caches a whole 16-word block, where the production source holds a
//! [`ChaCha8Keystream`](rand_chacha::ChaCha8Keystream) and computes
//! the one block each ON/OFF cycle reads. The two must emit the same
//! packets at the same instants.

use qbm_core::units::{Dur, Rate, Time};
use qbm_traffic::{Emission, Sojourns, Source};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A Markov-modulated ON-OFF source drawing its sojourns from a cached
/// [`ChaCha8Rng`].
#[derive(Debug, Clone)]
pub struct OnOffReference {
    gap: Dur,
    mean_on: Dur,
    mean_off: Dur,
    pkt_len: u32,
    next_pkt: Time,
    on_end: Time,
    sojourns: Sojourns,
    rng: ChaCha8Rng,
}

impl OnOffReference {
    /// The reference twin of
    /// [`OnOffSource::with_sojourns`](qbm_traffic::OnOffSource::with_sojourns),
    /// same arguments.
    pub fn with_sojourns(
        peak: Rate,
        avg: Rate,
        mean_burst_bytes: u64,
        pkt_len: u32,
        seed: u64,
        sojourns: Sojourns,
    ) -> OnOffReference {
        assert!(peak.bps() > 0 && avg.bps() > 0, "rates must be positive");
        assert!(avg <= peak, "average {avg} above peak {peak}");
        assert!(mean_burst_bytes > 0, "mean burst must be positive");
        assert!(pkt_len > 0, "packet length must be positive");
        let gap = peak.transmission_time(pkt_len as u64);
        let mean_on = peak.transmission_time(mean_burst_bytes);
        let off_secs = mean_on.as_secs_f64() * (peak.bps() - avg.bps()) as f64 / avg.bps() as f64;
        let mean_off = Dur::from_secs_f64(off_secs);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let first_off = sojourns.sample(&mut rng, mean_off);
        let first_on = sojourns.sample(&mut rng, mean_on);
        let start = Time::ZERO + first_off;
        OnOffReference {
            gap,
            mean_on,
            mean_off,
            pkt_len,
            next_pkt: start,
            on_end: start + first_on,
            sojourns,
            rng,
        }
    }
}

impl Source for OnOffReference {
    fn next_emission(&mut self) -> Option<Emission> {
        while self.next_pkt >= self.on_end {
            let off = self.sojourns.sample(&mut self.rng, self.mean_off);
            let on = self.sojourns.sample(&mut self.rng, self.mean_on);
            let start = self.on_end + off;
            self.next_pkt = start.max(self.next_pkt);
            self.on_end = start + on;
        }
        let e = Emission {
            time: self.next_pkt,
            len: self.pkt_len,
        };
        self.next_pkt += self.gap;
        Some(e)
    }
}
