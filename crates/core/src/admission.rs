//! Admission control and schedulability regions — the paper's §2.3.
//!
//! A set of `(σᵢ, ρᵢ)` flows is schedulable on a link of rate `R` with a
//! buffer of `B` bytes:
//!
//! * under **WFQ** with a fully partitioned buffer iff
//!   `R ≥ Σρᵢ` (Eq. 5) and `B ≥ Σσᵢ` (Eq. 6);
//! * under **FIFO + thresholds** iff
//!   `R ≥ Σρᵢ` (Eq. 7) and `B ≥ R·Σσᵢ/(R − Σρᵢ)` (Eq. 9),
//!   equivalently `B ≥ Σσᵢ/(1 − u)` with `u = Σρᵢ/R` (Eq. 10).
//!
//! A rejected request is classified **bandwidth-limited** when the rate
//! constraint fails and **buffer-limited** when only the buffer
//! constraint fails — the distinction the paper draws right after
//! Eq. (6).

use crate::analysis::fifo_bounds::required_buffer_eq9;
use crate::error::ConfigError;
use crate::flow::FlowSpec;
use crate::units::Rate;

/// The output link a flow set is admitted onto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link service rate `R`.
    pub rate: Rate,
    /// Total buffer `B`, bytes.
    pub buffer_bytes: u64,
}

impl LinkConfig {
    /// A link of `rate` with `buffer_bytes` of packet memory.
    pub fn new(rate: Rate, buffer_bytes: u64) -> LinkConfig {
        LinkConfig { rate, buffer_bytes }
    }

    /// Validate the configuration (positive rate, non-trivial buffer).
    pub fn validate(&self, max_packet_bytes: u64) -> Result<(), ConfigError> {
        if self.rate.bps() == 0 {
            return Err(ConfigError::ZeroLinkRate);
        }
        if self.buffer_bytes < max_packet_bytes {
            return Err(ConfigError::BufferTooSmall {
                capacity: self.buffer_bytes,
                needed: max_packet_bytes,
            });
        }
        Ok(())
    }
}

/// Which discipline's schedulability region to test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Per-flow WFQ with fully partitioned buffers (Eqs. 5–6).
    Wfq,
    /// Single FIFO with threshold buffer management (Eqs. 7–9).
    FifoThreshold,
}

/// Result of an admission test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionOutcome {
    /// Both constraints met.
    Accepted,
    /// Rate constraint violated: the link is *bandwidth limited*.
    RejectedBandwidth,
    /// Buffer constraint violated: the link is *buffer limited*.
    RejectedBuffer,
}

impl AdmissionOutcome {
    /// True iff the flow set was accepted.
    pub fn accepted(self) -> bool {
        self == AdmissionOutcome::Accepted
    }
}

/// Sum of reserved rates Σρᵢ in b/s (as f64 to avoid overflow concerns
/// in pathological synthetic configurations).
fn total_rho_bps(specs: &[FlowSpec]) -> f64 {
    specs.iter().map(|s| s.token_rate.bps() as f64).sum()
}

/// Sum of burst sizes Σσᵢ in bytes.
fn total_sigma_bytes(specs: &[FlowSpec]) -> f64 {
    specs.iter().map(|s| s.bucket_bytes as f64).sum()
}

/// Minimum buffer (bytes) for lossless FIFO+threshold operation —
/// Eq. (9): `B ≥ R·Σσ / (R − Σρ)`, evaluated by
/// [`required_buffer_eq9`]. Returns `f64::INFINITY` when `Σρ ≥ R`,
/// including on a zero-rate link.
pub fn fifo_required_buffer(link_rate: Rate, specs: &[FlowSpec]) -> f64 {
    let r = link_rate.bps() as f64;
    let rho = total_rho_bps(specs);
    if rho >= r {
        return f64::INFINITY;
    }
    required_buffer_eq9(r, rho, total_sigma_bytes(specs))
}

/// Minimum buffer (bytes) for lossless per-flow WFQ — Eq. (6): `Σσᵢ`.
pub fn wfq_required_buffer(specs: &[FlowSpec]) -> f64 {
    total_sigma_bytes(specs)
}

/// Eq. (10) as a curve: buffer needed per byte of total burst at
/// reserved utilization `u ∈ [0, 1)`; `1/(1−u)`, the buffer-inflation
/// factor of FIFO relative to WFQ.
pub fn buffer_inflation(u: f64) -> f64 {
    assert!((0.0..1.0).contains(&u), "utilization must be in [0,1): {u}");
    1.0 / (1.0 - u)
}

/// One-shot schedulability test for a whole flow set.
pub fn admissible(
    link: LinkConfig,
    discipline: Discipline,
    specs: &[FlowSpec],
) -> AdmissionOutcome {
    let r = link.rate.bps() as f64;
    if total_rho_bps(specs) > r {
        return AdmissionOutcome::RejectedBandwidth;
    }
    let needed = match discipline {
        Discipline::Wfq => wfq_required_buffer(specs),
        Discipline::FifoThreshold => fifo_required_buffer(link.rate, specs),
    };
    if (link.buffer_bytes as f64) < needed {
        AdmissionOutcome::RejectedBuffer
    } else {
        AdmissionOutcome::Accepted
    }
}

/// Incremental admission controller: flows arrive one at a time and are
/// accepted or rejected against the running totals — what a signalling
/// plane (e.g. RSVP) would invoke per reservation request.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    link: LinkConfig,
    discipline: Discipline,
    accepted: Vec<FlowSpec>,
    sum_rho_bps: f64,
    sum_sigma_bytes: f64,
}

impl AdmissionController {
    /// An empty controller for `link` under `discipline`.
    pub fn new(link: LinkConfig, discipline: Discipline) -> AdmissionController {
        AdmissionController {
            link,
            discipline,
            accepted: Vec::new(),
            sum_rho_bps: 0.0,
            sum_sigma_bytes: 0.0,
        }
    }

    /// Test `spec` against the region *including* everything already
    /// accepted; accept and record it if it fits.
    pub fn try_admit(&mut self, spec: FlowSpec) -> AdmissionOutcome {
        let r = self.link.rate.bps() as f64;
        let rho = self.sum_rho_bps + spec.token_rate.bps() as f64;
        let sigma = self.sum_sigma_bytes + spec.bucket_bytes as f64;
        if rho > r {
            return AdmissionOutcome::RejectedBandwidth;
        }
        let needed = match self.discipline {
            Discipline::Wfq => sigma,
            Discipline::FifoThreshold => {
                if rho >= r {
                    f64::INFINITY
                } else {
                    r * sigma / (r - rho)
                }
            }
        };
        if (self.link.buffer_bytes as f64) < needed {
            return AdmissionOutcome::RejectedBuffer;
        }
        self.sum_rho_bps = rho;
        self.sum_sigma_bytes = sigma;
        self.accepted.push(spec);
        AdmissionOutcome::Accepted
    }

    /// Flows accepted so far.
    pub fn accepted(&self) -> &[FlowSpec] {
        &self.accepted
    }

    /// Current reserved utilization `u = Σρᵢ/R`.
    pub fn utilization(&self) -> f64 {
        self.sum_rho_bps / self.link.rate.bps() as f64
    }

    /// Remaining lossless buffer slack in bytes (how much of `B` is not
    /// yet needed by the accepted set).
    pub fn buffer_slack_bytes(&self) -> f64 {
        let needed = match self.discipline {
            Discipline::Wfq => self.sum_sigma_bytes,
            Discipline::FifoThreshold => {
                let r = self.link.rate.bps() as f64;
                if self.sum_rho_bps >= r {
                    f64::INFINITY
                } else {
                    r * self.sum_sigma_bytes / (r - self.sum_rho_bps)
                }
            }
        };
        self.link.buffer_bytes as f64 - needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::units::ByteSize;

    fn spec(i: u32, rho_mbps: f64, bucket_kib: u64) -> FlowSpec {
        FlowSpec::builder(FlowId(i))
            .token_rate(Rate::from_mbps(rho_mbps))
            .bucket(ByteSize::from_kib(bucket_kib).bytes())
            .build()
    }

    const LINK_RATE: Rate = Rate::from_bps(48_000_000);

    #[test]
    fn eq9_matches_hand_computation() {
        // Σσ = 150 KiB, Σρ = 24 Mb/s on 48 Mb/s: B ≥ 48/(48−24)·Σσ = 2Σσ.
        let specs = [spec(0, 16.0, 100), spec(1, 8.0, 50)];
        let need = fifo_required_buffer(LINK_RATE, &specs);
        let sigma = ByteSize::from_kib(150).bytes() as f64;
        assert!((need - 2.0 * sigma).abs() < 1e-6);
        assert_eq!(wfq_required_buffer(&specs), sigma);
    }

    #[test]
    fn eq9_diverges_at_full_utilization() {
        let specs = [spec(0, 48.0, 10)];
        assert!(fifo_required_buffer(LINK_RATE, &specs).is_infinite());
    }

    #[test]
    fn inflation_factor_curve() {
        assert_eq!(buffer_inflation(0.0), 1.0);
        assert!((buffer_inflation(0.5) - 2.0).abs() < 1e-12);
        assert!((buffer_inflation(0.9) - 10.0).abs() < 1e-9);
        // Monotone increasing.
        let mut prev = 0.0;
        for i in 0..100 {
            let v = buffer_inflation(i as f64 / 100.0);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn inflation_rejects_u_of_one() {
        let _ = buffer_inflation(1.0);
    }

    #[test]
    fn fifo_needs_more_buffer_than_wfq() {
        // The same flow set accepted by WFQ can be buffer-limited on FIFO.
        let specs = [spec(0, 20.0, 200), spec(1, 20.0, 200)];
        let sigma = ByteSize::from_kib(400).bytes();
        // Buffer exactly Σσ: WFQ accepts, FIFO (u = 40/48) needs 6×.
        let link = LinkConfig::new(LINK_RATE, sigma);
        assert_eq!(
            admissible(link, Discipline::Wfq, &specs),
            AdmissionOutcome::Accepted
        );
        assert_eq!(
            admissible(link, Discipline::FifoThreshold, &specs),
            AdmissionOutcome::RejectedBuffer
        );
        let link6 = LinkConfig::new(LINK_RATE, sigma * 6);
        assert_eq!(
            admissible(link6, Discipline::FifoThreshold, &specs),
            AdmissionOutcome::Accepted
        );
    }

    #[test]
    fn bandwidth_limit_reported_before_buffer_limit() {
        let specs = [spec(0, 30.0, 10), spec(1, 30.0, 10)];
        let link = LinkConfig::new(LINK_RATE, 1); // tiny buffer too
        assert_eq!(
            admissible(link, Discipline::FifoThreshold, &specs),
            AdmissionOutcome::RejectedBandwidth
        );
    }

    #[test]
    fn incremental_controller_matches_batch_test() {
        let link = LinkConfig::new(LINK_RATE, ByteSize::from_mib(1).bytes());
        let mut ctl = AdmissionController::new(link, Discipline::FifoThreshold);
        let mut batch = Vec::new();
        let mut i = 0;
        // Admit identical flows until rejection; the batch test must
        // agree at every prefix.
        loop {
            let s = spec(i, 4.0, 60);
            let inc = ctl.try_admit(s);
            let mut trial = batch.clone();
            trial.push(s);
            let all = admissible(link, Discipline::FifoThreshold, &trial);
            assert_eq!(inc, all, "divergence at flow {i}");
            if !inc.accepted() {
                break;
            }
            batch.push(s);
            i += 1;
            assert!(i < 100, "runaway");
        }
        assert!(!ctl.accepted().is_empty());
        assert!(ctl.utilization() < 1.0);
    }

    #[test]
    fn controller_rejections_do_not_mutate_state() {
        let link = LinkConfig::new(LINK_RATE, ByteSize::from_kib(100).bytes());
        let mut ctl = AdmissionController::new(link, Discipline::Wfq);
        assert!(ctl.try_admit(spec(0, 2.0, 50)).accepted());
        let u = ctl.utilization();
        let slack = ctl.buffer_slack_bytes();
        // This one is buffer-limited (Σσ = 150 KiB > 100 KiB).
        assert_eq!(
            ctl.try_admit(spec(1, 2.0, 100)),
            AdmissionOutcome::RejectedBuffer
        );
        assert_eq!(ctl.accepted().len(), 1);
        assert_eq!(ctl.utilization(), u);
        assert_eq!(ctl.buffer_slack_bytes(), slack);
    }

    #[test]
    fn table1_reserved_utilization_is_68_percent() {
        // §3.2: "the aggregate reserved rate is 32.8 Mb/s, or about 68%
        // of the link capacity".
        let rates = [2.0, 2.0, 2.0, 8.0, 8.0, 8.0, 0.4, 0.4, 2.0];
        let specs: Vec<FlowSpec> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| spec(i as u32, r, 50))
            .collect();
        let sum: f64 = rates.iter().sum();
        assert!((sum - 32.8).abs() < 1e-9);
        let link = LinkConfig::new(LINK_RATE, ByteSize::from_mib(5).bytes());
        let mut ctl = AdmissionController::new(link, Discipline::FifoThreshold);
        for s in &specs {
            assert!(ctl.try_admit(*s).accepted());
        }
        assert!((ctl.utilization() - 32.8 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn link_config_validation() {
        assert_eq!(
            LinkConfig::new(Rate::ZERO, 1000).validate(500),
            Err(ConfigError::ZeroLinkRate)
        );
        assert_eq!(
            LinkConfig::new(LINK_RATE, 100).validate(500),
            Err(ConfigError::BufferTooSmall {
                capacity: 100,
                needed: 500
            })
        );
        assert!(LinkConfig::new(LINK_RATE, 1000).validate(500).is_ok());
    }
}
