//! Flow identities and traffic specifications.
//!
//! A [`FlowSpec`] carries the four columns of the paper's Table 1 /
//! Table 2 — peak rate, average rate, token-bucket size, token rate —
//! plus the conformance class the paper assigns to each flow and the §5
//! "adaptive" marker used by the future-work sharing variant.

use crate::envelope::Envelope;
use crate::units::Rate;

/// Dense flow index. Flows in a configuration are numbered `0..N`
/// exactly like the rows of the paper's tables; policies use the index
/// directly into per-flow state vectors, keeping every admission
/// decision a constant-time array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The array index for per-flow state vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// How a flow's actual traffic relates to its declared profile — the
/// three behaviours the paper evaluates (§3.2 and §4.2 / Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Conformance {
    /// Shaped by a leaky-bucket regulator; never exceeds the profile
    /// (Table 1 flows 0–5, Table 2 flows 0–9).
    #[default]
    Conformant,
    /// Mean rate and burst match the profile but the unshaped ON-OFF
    /// process may transiently exceed it (Table 2 flows 10–19).
    ModeratelyNonConformant,
    /// Sustained traffic far above the reservation (Table 1 flows 6–8,
    /// Table 2 flows 20–29).
    Aggressive,
}

impl Conformance {
    /// Every class, in the paper's order.
    pub const ALL: [Conformance; 3] = [
        Conformance::Conformant,
        Conformance::ModeratelyNonConformant,
        Conformance::Aggressive,
    ];

    /// Flows the paper's "loss for conformant flows" figures track.
    pub fn is_conformant(self) -> bool {
        matches!(self, Conformance::Conformant)
    }

    /// The class's name in tables, reports and scenario files:
    /// `conformant`, `moderate` or `aggressive`.
    pub fn label(self) -> &'static str {
        match self {
            Conformance::Conformant => "conformant",
            Conformance::ModeratelyNonConformant => "moderate",
            Conformance::Aggressive => "aggressive",
        }
    }
}

/// Full traffic specification for one flow — one row of Table 1/2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Flow index (row number).
    pub id: FlowId,
    /// Source peak rate while ON.
    pub peak: Rate,
    /// Source long-run average rate.
    pub avg: Rate,
    /// Declared token-bucket size σ, bytes.
    pub bucket_bytes: u64,
    /// Declared/reserved token rate ρ (the rate guarantee; also the WFQ
    /// weight, per §3.2).
    pub token_rate: Rate,
    /// Mean burst size of the underlying ON-OFF source, bytes. For
    /// conformant flows this equals `bucket_bytes`; the paper makes
    /// flows 6–8 burst 5× their bucket and Table 2's aggressive flows
    /// burst 500 KBytes.
    pub mean_burst_bytes: u64,
    /// Behaviour class.
    pub class: Conformance,
    /// §5 future-work marker: adaptive flows may borrow shared buffer
    /// space under [`crate::policy::AdaptiveSharing`].
    pub adaptive: bool,
}

impl FlowSpec {
    /// Start building a spec for `id`. Unset fields default to zero /
    /// [`Conformance::Conformant`] / non-adaptive; [`SpecBuilder::build`]
    /// validates the combination.
    pub fn builder(id: FlowId) -> SpecBuilder {
        SpecBuilder {
            spec: FlowSpec {
                id,
                peak: Rate::ZERO,
                avg: Rate::ZERO,
                bucket_bytes: 0,
                token_rate: Rate::ZERO,
                mean_burst_bytes: 0,
                class: Conformance::Conformant,
                adaptive: false,
            },
        }
    }

    /// The declared `(σ, ρ, P)` envelope used for thresholds and
    /// admission control.
    pub fn envelope(&self) -> Envelope {
        if self.peak >= self.token_rate && self.peak > Rate::ZERO {
            Envelope::with_peak(self.bucket_bytes, self.token_rate, self.peak)
        } else {
            Envelope::new(self.bucket_bytes, self.token_rate)
        }
    }

    /// Offered load relative to the reservation (`avg / token_rate`);
    /// > 1 means the flow offers excess traffic.
    pub fn overload_factor(&self) -> f64 {
        if self.token_rate.bps() == 0 {
            return f64::INFINITY;
        }
        self.avg.bps() as f64 / self.token_rate.bps() as f64
    }
}

/// Builder for [`FlowSpec`]; see [`FlowSpec::builder`].
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    spec: FlowSpec,
}

impl SpecBuilder {
    /// Source peak rate.
    pub fn peak(mut self, r: Rate) -> Self {
        self.spec.peak = r;
        self
    }

    /// Source average rate.
    pub fn avg(mut self, r: Rate) -> Self {
        self.spec.avg = r;
        self
    }

    /// Declared token-bucket size in bytes.
    pub fn bucket(mut self, bytes: u64) -> Self {
        self.spec.bucket_bytes = bytes;
        self
    }

    /// Declared token (reserved) rate.
    pub fn token_rate(mut self, r: Rate) -> Self {
        self.spec.token_rate = r;
        self
    }

    /// Mean ON-burst size in bytes (defaults to the bucket size).
    pub fn mean_burst(mut self, bytes: u64) -> Self {
        self.spec.mean_burst_bytes = bytes;
        self
    }

    /// Behaviour class.
    pub fn class(mut self, c: Conformance) -> Self {
        self.spec.class = c;
        self
    }

    /// Mark the flow adaptive for §5-style sharing policies.
    pub fn adaptive(mut self, yes: bool) -> Self {
        self.spec.adaptive = yes;
        self
    }

    /// Finish, applying defaults and sanity checks:
    /// * `mean_burst` defaults to the bucket size;
    /// * `avg` defaults to the token rate;
    /// * peak (when set) must be ≥ both rates.
    pub fn build(mut self) -> FlowSpec {
        if self.spec.mean_burst_bytes == 0 {
            self.spec.mean_burst_bytes = self.spec.bucket_bytes;
        }
        if self.spec.avg == Rate::ZERO {
            self.spec.avg = self.spec.token_rate;
        }
        if self.spec.peak > Rate::ZERO {
            assert!(
                self.spec.peak >= self.spec.avg,
                "{}: peak {} below average {}",
                self.spec.id,
                self.spec.peak,
                self.spec.avg
            );
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_flow0() -> FlowSpec {
        FlowSpec::builder(FlowId(0))
            .peak(Rate::from_mbps(16.0))
            .avg(Rate::from_mbps(2.0))
            .bucket(51_200)
            .token_rate(Rate::from_mbps(2.0))
            .build()
    }

    #[test]
    fn builder_defaults() {
        let s = table1_flow0();
        assert_eq!(s.mean_burst_bytes, 51_200); // defaults to bucket
        assert_eq!(s.class, Conformance::Conformant);
        assert!(!s.adaptive);
        assert!((s.overload_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_defaults_to_token_rate() {
        let s = FlowSpec::builder(FlowId(3))
            .token_rate(Rate::from_mbps(8.0))
            .bucket(1000)
            .build();
        assert_eq!(s.avg, Rate::from_mbps(8.0));
    }

    #[test]
    fn aggressive_flow_overload() {
        // Table 1 flow 8: avg 16 Mb/s on a 2 Mb/s reservation.
        let s = FlowSpec::builder(FlowId(8))
            .peak(Rate::from_mbps(40.0))
            .avg(Rate::from_mbps(16.0))
            .bucket(51_200)
            .token_rate(Rate::from_mbps(2.0))
            .mean_burst(5 * 51_200)
            .class(Conformance::Aggressive)
            .build();
        assert!((s.overload_factor() - 8.0).abs() < 1e-12);
        assert!(!s.class.is_conformant());
    }

    #[test]
    fn envelope_includes_peak_when_sensible() {
        let s = table1_flow0();
        assert!(s.envelope().peak.is_some());
        // Token rate above "peak 0" -> pure (σ, ρ) envelope.
        let s2 = FlowSpec::builder(FlowId(1))
            .token_rate(Rate::from_mbps(2.0))
            .bucket(100)
            .build();
        assert!(s2.envelope().peak.is_none());
    }

    #[test]
    #[should_panic(expected = "peak")]
    fn peak_below_average_rejected() {
        let _ = FlowSpec::builder(FlowId(0))
            .peak(Rate::from_mbps(1.0))
            .avg(Rate::from_mbps(2.0))
            .token_rate(Rate::from_mbps(1.0))
            .build();
    }

    #[test]
    fn flow_id_display_and_index() {
        assert_eq!(format!("{}", FlowId(7)), "flow7");
        assert_eq!(FlowId(7).index(), 7);
    }
}
