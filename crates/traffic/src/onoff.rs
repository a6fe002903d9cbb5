//! Markov-modulated ON-OFF sources — the paper's traffic model (§3.2).
//!
//! While ON, the source "continuously transmits maximum size packets at
//! its peak rate"; ON and OFF sojourns are exponentially distributed.
//! The three user-facing moments are the paper's table columns:
//!
//! * `peak` — emission rate while ON;
//! * `avg` — long-run average rate, which fixes the ON probability
//!   `p = avg/peak` and hence the mean OFF time;
//! * `mean_burst_bytes` — average bytes per ON period, which fixes the
//!   mean ON time `E[ON] = burst·8/peak`.
//!
//! `E[OFF] = E[ON]·(peak − avg)/avg` then delivers the requested
//! average rate.

use crate::source::{Emission, Source};
use qbm_core::units::{Dur, Rate, Time};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Keystream;

/// Sojourn-time distribution family for the ON/OFF periods.
///
/// The paper's sources are Markov-modulated (exponential sojourns);
/// [`Sojourns::Pareto`] is this repo's robustness extension — same
/// means, heavy-tailed bursts (shape `a` ∈ (1, 2] has finite mean and
/// infinite variance for a ≤ 2, the classic self-similar-traffic
/// regime). Used by the `ablate-burstiness` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Sojourns {
    /// Exponential sojourns (the paper's Markov-modulated model).
    #[default]
    Exponential,
    /// Pareto sojourns with the given shape `a > 1` (heavy-tailed).
    Pareto {
        /// Tail exponent; smaller = heavier tail. Must exceed 1 so the
        /// mean exists.
        shape: f64,
    },
}

impl Sojourns {
    /// Draw one sojourn with mean `mean` from one uniform `f64` (two
    /// words) of `rng`.
    pub fn sample<R: Rng>(self, rng: &mut R, mean: Dur) -> Dur {
        // `rand`'s float conversion gives U ∈ [0,1); invert on 1−U to
        // avoid ln(0) / division by zero at the tail.
        let u: f64 = rng.random();
        let secs = match self {
            Sojourns::Exponential => -(1.0 - u).ln() * mean.as_secs_f64(),
            Sojourns::Pareto { shape } => {
                debug_assert!(shape > 1.0, "Pareto shape must exceed 1");
                // Scale x_m so the mean is `mean`: E[X] = x_m·a/(a−1).
                let xm = mean.as_secs_f64() * (shape - 1.0) / shape;
                xm * (1.0 - u).powf(-1.0 / shape)
            }
        };
        Dur::from_secs_f64(secs)
    }

    /// The family as one word: the Pareto shape, or 0 for exponential
    /// (a Pareto shape exceeds 1, which [`OnOffSource::with_sojourns`]
    /// checks). Half the enum's 16 B, which keeps a regulated ON-OFF
    /// source within `SourceKind`'s budget.
    fn pack(self) -> f64 {
        match self {
            Sojourns::Exponential => 0.0,
            Sojourns::Pareto { shape } => shape,
        }
    }

    /// Inverse of [`Sojourns::pack`].
    fn unpack(shape: f64) -> Sojourns {
        if shape > 1.0 {
            Sojourns::Pareto { shape }
        } else {
            Sojourns::Exponential
        }
    }
}

/// A Markov-modulated ON-OFF packet source.
///
/// Its randomness is a ChaCha8 keystream read on demand: each ON/OFF
/// cycle takes the next four words (an OFF and an ON draw), always from
/// one block, so the source holds a key and a word position rather than
/// a cached block it would read a quarter of.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    /// Gap between packet starts while ON (packet tx time at peak).
    gap: Dur,
    /// Mean ON duration.
    mean_on: Dur,
    /// Mean OFF duration.
    mean_off: Dur,
    /// Packet length, bytes.
    pkt_len: u32,
    /// Next packet emission instant.
    next_pkt: Time,
    /// Current ON period ends here (exclusive).
    on_end: Time,
    /// Sojourn distribution family, [packed](Sojourns::pack).
    sojourns: f64,
    keys: ChaCha8Keystream,
}

impl OnOffSource {
    /// Build a source with the paper's three moments. The first period
    /// starts OFF with an exponential residual, so an ensemble of
    /// sources does not phase-align at `t = 0`.
    ///
    /// Panics unless `0 < avg ≤ peak` and `mean_burst_bytes > 0`.
    pub fn new(
        peak: Rate,
        avg: Rate,
        mean_burst_bytes: u64,
        pkt_len: u32,
        seed: u64,
    ) -> OnOffSource {
        OnOffSource::with_sojourns(
            peak,
            avg,
            mean_burst_bytes,
            pkt_len,
            seed,
            Sojourns::Exponential,
        )
    }

    /// Like [`OnOffSource::new`] but with an explicit sojourn family
    /// (Pareto for the heavy-tail robustness experiments).
    ///
    /// Also panics on a Pareto shape that does not exceed 1.
    pub fn with_sojourns(
        peak: Rate,
        avg: Rate,
        mean_burst_bytes: u64,
        pkt_len: u32,
        seed: u64,
        sojourns: Sojourns,
    ) -> OnOffSource {
        assert!(peak.bps() > 0 && avg.bps() > 0, "rates must be positive");
        assert!(avg <= peak, "average {avg} above peak {peak}");
        assert!(mean_burst_bytes > 0, "mean burst must be positive");
        assert!(pkt_len > 0, "packet length must be positive");
        if let Sojourns::Pareto { shape } = sojourns {
            assert!(shape > 1.0, "Pareto shape {shape} must exceed 1");
        }
        let gap = peak.transmission_time(pkt_len as u64);
        let mean_on = peak.transmission_time(mean_burst_bytes);
        // E[OFF] = E[ON]·(peak − avg)/avg.
        let off_secs = mean_on.as_secs_f64() * (peak.bps() - avg.bps()) as f64 / avg.bps() as f64;
        let mean_off = Dur::from_secs_f64(off_secs);
        let mut keys = ChaCha8Keystream::seed_from_u64(seed);
        let mut draw = keys.take::<4>();
        let first_off = sojourns.sample(&mut draw, mean_off);
        let first_on = sojourns.sample(&mut draw, mean_on);
        let start = Time::ZERO + first_off;
        OnOffSource {
            gap,
            mean_on,
            mean_off,
            pkt_len,
            next_pkt: start,
            on_end: start + first_on,
            sojourns: sojourns.pack(),
            keys,
        }
    }

    /// Mean ON duration implied by the moments.
    pub fn mean_on(&self) -> Dur {
        self.mean_on
    }

    /// Mean OFF duration implied by the moments.
    pub fn mean_off(&self) -> Dur {
        self.mean_off
    }
}

impl Source for OnOffSource {
    fn next_emission(&mut self) -> Option<Emission> {
        // Skip whole OFF periods until the pending packet start falls
        // inside an ON period.
        while self.next_pkt >= self.on_end {
            let sojourns = Sojourns::unpack(self.sojourns);
            let mut draw = self.keys.take::<4>();
            let off = sojourns.sample(&mut draw, self.mean_off);
            let on = sojourns.sample(&mut draw, self.mean_on);
            let start = self.on_end + off;
            // Never exceed the peak rate across period boundaries: a
            // packet pending from the previous ON period keeps its
            // peak-spaced slot if the OFF sojourn was shorter than the
            // residual gap (relevant when avg ≈ peak).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{collect_emissions, empirical_rate_bps};

    #[test]
    fn derived_sojourns_match_moments() {
        // Table 1 flow 0: peak 16, avg 2, burst 50 KiB.
        let s = OnOffSource::new(Rate::from_mbps(16.0), Rate::from_mbps(2.0), 51_200, 500, 1);
        // E[ON] = 51200·8/16e6 = 25.6 ms.
        assert!((s.mean_on().as_secs_f64() - 0.0256).abs() < 1e-9);
        // E[OFF] = 25.6 ms · (16−2)/2 = 179.2 ms.
        assert!((s.mean_off().as_secs_f64() - 0.1792).abs() < 1e-9);
    }

    #[test]
    fn long_run_rate_converges_to_avg() {
        let avg = Rate::from_mbps(2.0);
        let mut s = OnOffSource::new(Rate::from_mbps(16.0), avg, 51_200, 500, 42);
        let em = collect_emissions(&mut s, 200_000);
        assert_eq!(em.len(), 200_000);
        let rate = empirical_rate_bps(&em);
        let rel = (rate - avg.bps() as f64).abs() / avg.bps() as f64;
        assert!(rel < 0.05, "empirical rate {rate} vs {avg} (rel err {rel})");
    }

    #[test]
    fn on_period_packets_are_peak_spaced() {
        let peak = Rate::from_mbps(16.0);
        let mut s = OnOffSource::new(peak, Rate::from_mbps(2.0), 512_000, 500, 7);
        let em = collect_emissions(&mut s, 5_000);
        let gap = peak.transmission_time(500);
        let mut peak_gaps = 0;
        for w in em.windows(2) {
            let dt = w[1].time.since(w[0].time);
            // Within an ON period gaps equal the peak-rate spacing;
            // larger gaps are OFF periods.
            if dt == gap {
                peak_gaps += 1;
            } else {
                assert!(dt > gap, "sub-peak spacing {dt}");
            }
        }
        // Bursts average 1024 packets, so peak-spaced pairs dominate.
        assert!(peak_gaps > em.len() / 2);
    }

    #[test]
    fn mean_burst_size_matches_configuration() {
        let peak = Rate::from_mbps(16.0);
        let mean_burst = 51_200u64;
        let mut s = OnOffSource::new(peak, Rate::from_mbps(2.0), mean_burst, 500, 99);
        let em = collect_emissions(&mut s, 300_000);
        let gap = peak.transmission_time(500);
        // Count bursts by splitting at gaps > peak spacing.
        let mut bursts = 1u64;
        for w in em.windows(2) {
            if w[1].time.since(w[0].time) > gap {
                bursts += 1;
            }
        }
        let total_bytes: u64 = em.iter().map(|e| e.len as u64).sum();
        let emp_burst = total_bytes as f64 / bursts as f64;
        let rel = (emp_burst - mean_burst as f64).abs() / mean_burst as f64;
        assert!(rel < 0.1, "empirical burst {emp_burst} vs {mean_burst}");
    }

    #[test]
    fn seeds_give_distinct_but_reproducible_traces() {
        let mk = |seed| {
            let mut s = OnOffSource::new(
                Rate::from_mbps(16.0),
                Rate::from_mbps(2.0),
                51_200,
                500,
                seed,
            );
            collect_emissions(&mut s, 100)
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }

    #[test]
    fn cbr_degenerate_case_peak_equals_avg() {
        // avg == peak: the source is always ON (OFF mean = 0).
        let mut s = OnOffSource::new(Rate::from_mbps(8.0), Rate::from_mbps(8.0), 10_000, 500, 3);
        let em = collect_emissions(&mut s, 1_000);
        let gap = Rate::from_mbps(8.0).transmission_time(500);
        for w in em.windows(2) {
            assert_eq!(w[1].time.since(w[0].time), gap);
        }
    }

    #[test]
    #[should_panic(expected = "average")]
    fn avg_above_peak_rejected() {
        let _ = OnOffSource::new(Rate::from_mbps(2.0), Rate::from_mbps(4.0), 1000, 500, 0);
    }
}

#[cfg(test)]
mod pareto_tests {
    use super::*;
    use crate::source::{collect_emissions, empirical_rate_bps};

    #[test]
    fn pareto_preserves_long_run_rate() {
        let avg = Rate::from_mbps(2.0);
        let mut s = OnOffSource::with_sojourns(
            Rate::from_mbps(16.0),
            avg,
            51_200,
            500,
            42,
            Sojourns::Pareto { shape: 1.5 },
        );
        let em = collect_emissions(&mut s, 400_000);
        let rate = empirical_rate_bps(&em);
        // Heavy tails converge slowly; 15 % over 400k packets is the
        // statistically honest tolerance at shape 1.5.
        let rel = (rate - avg.bps() as f64).abs() / avg.bps() as f64;
        assert!(rel < 0.15, "empirical rate {rate} (rel err {rel})");
    }

    #[test]
    fn pareto_bursts_are_heavier_tailed_than_exponential() {
        // Compare the largest ON-burst across the two families at the
        // same mean: the Pareto source must produce a strictly larger
        // maximum burst (with overwhelming probability at these sizes).
        let max_burst = |soj| {
            let peak = Rate::from_mbps(16.0);
            let mut s = OnOffSource::with_sojourns(peak, Rate::from_mbps(2.0), 51_200, 500, 7, soj);
            let em = collect_emissions(&mut s, 200_000);
            let gap = peak.transmission_time(500);
            let mut cur = 0u64;
            let mut max = 0u64;
            for w in em.windows(2) {
                cur += 500;
                if w[1].time.since(w[0].time) > gap {
                    max = max.max(cur);
                    cur = 0;
                }
            }
            max
        };
        let exp = max_burst(Sojourns::Exponential);
        let par = max_burst(Sojourns::Pareto { shape: 1.3 });
        assert!(
            par > 2 * exp,
            "Pareto max burst {par} not heavier than exponential {exp}"
        );
    }

    #[test]
    fn pareto_sample_mean_matches_parameterization() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mean = Dur::from_millis(10);
        let soj = Sojourns::Pareto { shape: 2.5 }; // finite variance
        let n = 200_000;
        let sum: f64 = (0..n)
            .map(|_| soj.sample(&mut rng, mean).as_secs_f64())
            .sum();
        let emp = sum / n as f64;
        assert!((emp - 0.010).abs() / 0.010 < 0.03, "empirical mean {emp}");
    }
}
