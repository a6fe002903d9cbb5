//! Scenario-file parsing (see the crate docs for the format).

use crate::units::{parse_duration, parse_rate, parse_size, UnitError};
use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::policy::PolicyKind;
use qbm_core::units::{Dur, Rate};
use qbm_sched::SchedKind;
use qbm_sim::{ExperimentConfig, PolicySpec, SourceSel};
use qbm_traffic::PACKET_BYTES;

/// A parsed scenario, buildable into an [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Output link rate.
    pub link: Rate,
    /// Buffer size, bytes.
    pub buffer_bytes: u64,
    /// Scheduler.
    pub sched: SchedKind,
    /// Admission policy.
    pub policy: PolicyKind,
    /// Total simulated time.
    pub duration: Dur,
    /// Warmup trimmed from statistics.
    pub warmup: Dur,
    /// Number of replications.
    pub seeds: usize,
    /// Source family (`sources = spec | aimd`; spec is the default).
    pub sources: SourceSel,
    /// The flow mix.
    pub flows: Vec<FlowSpec>,
}

/// Why a scenario failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A `key = value` line could not be understood.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A unit value failed to parse.
    BadUnit {
        /// 1-based line number.
        line: usize,
        /// The unit error.
        inner: UnitError,
    },
    /// The scenario is structurally incomplete.
    Incomplete(&'static str),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::BadLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ScenarioError::BadUnit { line, inner } => write!(f, "line {line}: {inner}"),
            ScenarioError::Incomplete(what) => write!(f, "scenario incomplete: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[derive(Debug, Default, Clone)]
struct FlowDraft {
    peak: Option<Rate>,
    avg: Option<Rate>,
    bucket: Option<u64>,
    rate: Option<Rate>,
    class: Conformance,
    burst: Option<u64>,
    count: u32,
}

impl FlowDraft {
    fn new() -> FlowDraft {
        FlowDraft {
            count: 1,
            ..Default::default()
        }
    }

    fn build(&self, next_id: &mut u32, line: usize) -> Result<Vec<FlowSpec>, ScenarioError> {
        let rate = self.rate.ok_or(ScenarioError::BadLine {
            line,
            message: "flow needs `rate = <reserved rate>`".into(),
        })?;
        let bucket = self.bucket.ok_or(ScenarioError::BadLine {
            line,
            message: "flow needs `bucket = <size>`".into(),
        })?;
        let avg = self.avg.unwrap_or(rate);
        let peak = self.peak.unwrap_or(avg);
        if peak < avg {
            return Err(ScenarioError::BadLine {
                line,
                message: format!("flow peak {peak} below its average {avg}"),
            });
        }
        let mut out = Vec::with_capacity(self.count as usize);
        for _ in 0..self.count {
            let id = FlowId(*next_id);
            *next_id += 1;
            let mut b = FlowSpec::builder(id)
                .peak(peak)
                .avg(avg)
                .token_rate(rate)
                .bucket(bucket)
                .class(self.class)
                .adaptive(matches!(
                    self.class,
                    Conformance::Conformant | Conformance::ModeratelyNonConformant
                ));
            if let Some(mb) = self.burst {
                b = b.mean_burst(mb);
            }
            out.push(b.build());
        }
        Ok(out)
    }
}

impl Scenario {
    /// Parse a scenario from text.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let mut link = None;
        let mut buffer = None;
        let mut sched = SchedKind::Fifo;
        let mut policy = PolicyKind::Threshold;
        let mut duration = Dur::from_secs(22);
        let mut warmup = Dur::from_secs(2);
        let mut seeds = 5usize;
        let mut sources = SourceSel::Spec;
        let mut flows: Vec<FlowSpec> = Vec::new();
        let mut next_id = 0u32;
        let mut draft: Option<(FlowDraft, usize)> = None;

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[flow]" {
                if let Some((d, at)) = draft.take() {
                    flows.extend(d.build(&mut next_id, at)?);
                }
                draft = Some((FlowDraft::new(), line_no));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ScenarioError::BadLine {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            let unit_err = |inner| ScenarioError::BadUnit {
                line: line_no,
                inner,
            };
            if let Some((ref mut d, _)) = draft {
                match key.as_str() {
                    "peak" => d.peak = Some(positive_rate(value, line_no)?),
                    "avg" => d.avg = Some(positive_rate(value, line_no)?),
                    "bucket" => {
                        let bucket = parse_size(value).map_err(unit_err)?;
                        if bucket < PACKET_BYTES as u64 {
                            return Err(ScenarioError::BadLine {
                                line: line_no,
                                message: format!(
                                    "bucket of {bucket} B cannot hold one {PACKET_BYTES} B packet"
                                ),
                            });
                        }
                        d.bucket = Some(bucket);
                    }
                    "rate" => d.rate = Some(positive_rate(value, line_no)?),
                    "burst" => d.burst = Some(parse_size(value).map_err(unit_err)?),
                    "count" => {
                        d.count = value.parse().map_err(|_| ScenarioError::BadLine {
                            line: line_no,
                            message: format!("bad count `{value}`"),
                        })?
                    }
                    "class" => {
                        d.class = match value.to_ascii_lowercase().as_str() {
                            "conformant" => Conformance::Conformant,
                            "moderate" => Conformance::ModeratelyNonConformant,
                            "aggressive" => Conformance::Aggressive,
                            other => {
                                return Err(ScenarioError::BadLine {
                                    line: line_no,
                                    message: format!("unknown class `{other}`"),
                                })
                            }
                        }
                    }
                    other => {
                        return Err(ScenarioError::BadLine {
                            line: line_no,
                            message: format!("unknown flow key `{other}`"),
                        })
                    }
                }
                continue;
            }
            match key.as_str() {
                "link" => link = Some(positive_rate(value, line_no)?),
                "buffer" => buffer = Some(parse_size(value).map_err(unit_err)?),
                "duration" => duration = parse_duration(value).map_err(unit_err)?,
                "warmup" => warmup = parse_duration(value).map_err(unit_err)?,
                "seeds" => {
                    seeds = value.parse().map_err(|_| ScenarioError::BadLine {
                        line: line_no,
                        message: format!("bad seeds `{value}`"),
                    })?
                }
                "sched" => {
                    sched = match value.to_ascii_lowercase().as_str() {
                        "fifo" => SchedKind::Fifo,
                        "wfq" => SchedKind::Wfq,
                        "drr" => SchedKind::Drr,
                        "vclock" => SchedKind::VirtualClock,
                        "edf" => SchedKind::Edf,
                        "wf2q" | "wf2q+" => SchedKind::Wf2q,
                        other => {
                            return Err(ScenarioError::BadLine {
                                line: line_no,
                                message: format!("unknown scheduler `{other}`"),
                            })
                        }
                    }
                }
                "policy" => policy = parse_policy(value, line_no)?,
                "sources" => {
                    sources = match value.to_ascii_lowercase().as_str() {
                        "spec" => SourceSel::Spec,
                        "aimd" => SourceSel::Aimd,
                        other => {
                            return Err(ScenarioError::BadLine {
                                line: line_no,
                                message: format!("unknown sources `{other}`"),
                            })
                        }
                    }
                }
                other => {
                    return Err(ScenarioError::BadLine {
                        line: line_no,
                        message: format!("unknown key `{other}` (before any [flow])"),
                    })
                }
            }
        }
        if let Some((d, at)) = draft.take() {
            flows.extend(d.build(&mut next_id, at)?);
        }
        let link = link.ok_or(ScenarioError::Incomplete("missing `link = <rate>`"))?;
        let buffer = buffer.ok_or(ScenarioError::Incomplete("missing `buffer = <size>`"))?;
        if flows.is_empty() {
            return Err(ScenarioError::Incomplete("no [flow] sections"));
        }
        if duration <= warmup {
            return Err(ScenarioError::Incomplete("duration must exceed warmup"));
        }
        Ok(Scenario {
            link,
            buffer_bytes: buffer,
            sched,
            policy,
            duration,
            warmup,
            seeds: seeds.max(1),
            sources,
            flows,
        })
    }

    /// Materialize the runnable configuration.
    pub fn to_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            link_rate: self.link,
            buffer_bytes: self.buffer_bytes,
            specs: self.flows.clone(),
            sched: self.sched.clone(),
            policy: PolicySpec::Kind(self.policy),
            warmup: self.warmup,
            duration: self.duration,
            sojourns: Default::default(),
            stats: Default::default(),
            sources: self.sources,
        }
    }
}

/// A rate that must be above zero: the link rate, or a flow's reserved
/// (token), average or peak rate.
fn positive_rate(value: &str, line: usize) -> Result<Rate, ScenarioError> {
    let rate = parse_rate(value).map_err(|inner| ScenarioError::BadUnit { line, inner })?;
    if rate == Rate::ZERO {
        return Err(ScenarioError::BadLine {
            line,
            message: format!("rate `{value}` must be above zero"),
        });
    }
    Ok(rate)
}

fn parse_policy(value: &str, line: usize) -> Result<PolicyKind, ScenarioError> {
    let v = value.to_ascii_lowercase();
    let (name, arg) = match v.split_once(':') {
        Some((n, a)) => (n.trim(), Some(a.trim())),
        None => (v.as_str(), None),
    };
    let size_arg = |what: &'static str| -> Result<u64, ScenarioError> {
        let a = arg.ok_or(ScenarioError::BadLine {
            line,
            message: format!("policy `{name}` needs `{name}:<{what}>`"),
        })?;
        parse_size(a).map_err(|inner| ScenarioError::BadUnit { line, inner })
    };
    Ok(match name {
        "none" => PolicyKind::None,
        "threshold" | "thresh" => PolicyKind::Threshold,
        "sharing" => PolicyKind::Sharing {
            headroom_bytes: size_arg("headroom")?,
        },
        "adaptive" => PolicyKind::AdaptiveSharing {
            headroom_bytes: size_arg("headroom")?,
        },
        "dyn-thresh" | "dt" => PolicyKind::DynamicThreshold {
            alpha_num: 1,
            alpha_den: 1,
        },
        "red" => PolicyKind::Red { seed: 42 },
        "fred" => PolicyKind::Fred { seed: 42 },
        "pbs" => PolicyKind::PartialSharing {
            threshold_permille: 800,
        },
        other => {
            return Err(ScenarioError::BadLine {
                line,
                message: format!("unknown policy `{other}`"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# paper-flavoured scenario
link = 48Mbps
buffer = 1MiB
sched = fifo
policy = sharing:512KiB
duration = 10s
warmup = 1s
seeds = 3

[flow]
peak = 16Mbps
avg = 2Mbps
bucket = 50KiB
rate = 2Mbps
class = conformant
count = 3

[flow]
peak = 40Mbps
avg = 16Mbps
bucket = 50KiB
rate = 2Mbps
burst = 250KiB
class = aggressive
"#;

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(GOOD).unwrap();
        assert_eq!(s.link.bps(), 48_000_000);
        assert_eq!(s.buffer_bytes, 1 << 20);
        assert_eq!(s.seeds, 3);
        assert_eq!(s.flows.len(), 4); // 3 replicas + 1
        assert_eq!(s.flows[3].class, Conformance::Aggressive);
        assert_eq!(s.flows[3].mean_burst_bytes, 250 * 1024);
        assert_eq!(
            s.policy,
            PolicyKind::Sharing {
                headroom_bytes: 512 * 1024
            }
        );
        // Ids dense in order.
        for (i, f) in s.flows.iter().enumerate() {
            assert_eq!(f.id.0 as usize, i);
        }
    }

    #[test]
    fn config_round_trip_runs() {
        let s = Scenario::parse(GOOD).unwrap();
        let mut cfg = s.to_config();
        cfg.duration = Dur::from_secs(2);
        cfg.warmup = Dur::from_millis(200);
        let res = cfg.run_once(1);
        assert!(res.aggregate_throughput_bps() > 1e6);
    }

    #[test]
    fn defaults_apply() {
        let s = Scenario::parse(
            "link = 10Mbps\nbuffer = 100KiB\n[flow]\nrate = 1Mbps\nbucket = 10KiB\n",
        )
        .unwrap();
        assert_eq!(s.sched, SchedKind::Fifo);
        assert_eq!(s.policy, PolicyKind::Threshold);
        assert_eq!(s.seeds, 5);
        assert_eq!(s.flows.len(), 1);
        // avg defaults to the reserved rate and peak to avg, adaptive
        // set for conformant.
        assert_eq!(s.flows[0].avg.bps(), 1_000_000);
        assert_eq!(s.flows[0].peak.bps(), 1_000_000);
        assert!(s.flows[0].adaptive);
        // The defaulted flow builds a source and delivers traffic.
        let mut cfg = s.to_config();
        cfg.duration = Dur::from_millis(300);
        cfg.warmup = Dur::from_millis(100);
        let res = cfg.run_once(1);
        assert!(res.flows[0].delivered_pkts > 0);
    }

    #[test]
    fn error_reporting_names_the_line() {
        let bad = "link = 10Mbps\nbuffer = zonk\n";
        match Scenario::parse(bad).unwrap_err() {
            ScenarioError::BadUnit { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
        let bad2 = "link = 10Mbps\nbuffer = 1MiB\nwhatever = 3\n";
        match Scenario::parse(bad2).unwrap_err() {
            ScenarioError::BadLine { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("whatever"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn incomplete_scenarios_rejected() {
        assert!(matches!(
            Scenario::parse("buffer = 1MiB\n[flow]\nrate=1Mbps\nbucket=1KiB\n"),
            Err(ScenarioError::Incomplete(_))
        ));
        assert!(matches!(
            Scenario::parse("link = 1Mbps\nbuffer = 1MiB\n"),
            Err(ScenarioError::Incomplete(_))
        ));
        assert!(matches!(
            Scenario::parse(
                "link=1Mbps\nbuffer=1MiB\nduration=1s\nwarmup=2s\n[flow]\nrate=1Mbps\nbucket=1KiB\n"
            ),
            Err(ScenarioError::Incomplete(_))
        ));
    }

    #[test]
    fn flow_missing_required_keys_rejected() {
        let bad = "link=1Mbps\nbuffer=1MiB\n[flow]\npeak=2Mbps\n";
        match Scenario::parse(bad).unwrap_err() {
            ScenarioError::BadLine { message, .. } => assert!(message.contains("rate")),
            other => panic!("unexpected {other}"),
        }
    }

    /// The line an invalid one-flow scenario is rejected at, and the
    /// error text.
    fn rejected_at(flow: &str) -> (usize, String) {
        let text = format!("link=10Mbps\nbuffer=1MiB\n[flow]\n{flow}");
        match Scenario::parse(&text).unwrap_err() {
            ScenarioError::BadLine { line, message } => (line, message),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn zero_link_rate_rejected() {
        match Scenario::parse("buffer=1MiB\nlink=0Mbps\n[flow]\nrate=1Mbps\nbucket=10KiB\n") {
            Err(ScenarioError::BadLine { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("above zero"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_flow_rate_rejected() {
        let (line, message) = rejected_at("bucket=10KiB\nrate=0Mbps\n");
        assert_eq!(line, 5);
        assert!(message.contains("above zero"), "{message}");
    }

    #[test]
    fn zero_peak_or_average_rejected() {
        let (line, message) = rejected_at("rate=1Mbps\nbucket=10KiB\npeak=0Mbps\n");
        assert_eq!(line, 6);
        assert!(message.contains("above zero"), "{message}");
        let (line, message) = rejected_at("rate=1Mbps\navg=0Mbps\nbucket=10KiB\n");
        assert_eq!(line, 5);
        assert!(message.contains("above zero"), "{message}");
    }

    #[test]
    fn bucket_below_one_packet_rejected() {
        let (line, message) = rejected_at("rate=1Mbps\nbucket=100B\n");
        assert_eq!(line, 5);
        assert!(message.contains("500 B packet"), "{message}");
        // Exactly one packet fits.
        let ok = "link=10Mbps\nbuffer=1MiB\n[flow]\nrate=1Mbps\nbucket=500B\n";
        assert!(Scenario::parse(ok).is_ok());
    }

    #[test]
    fn peak_below_average_rejected() {
        // Named at the flow's section header: peak and avg are checked
        // together once the section is complete.
        let (line, message) = rejected_at("peak=1Mbps\navg=2Mbps\nrate=2Mbps\nbucket=10KiB\n");
        assert_eq!(line, 3);
        assert!(message.contains("below its average"), "{message}");
        // With no `avg`, the reserved rate is the average.
        let (line, _) = rejected_at("peak=1Mbps\nrate=2Mbps\nbucket=10KiB\n");
        assert_eq!(line, 3);
    }

    #[test]
    fn all_scheds_and_policies_parse() {
        for sched in ["fifo", "wfq", "drr", "vclock", "edf", "wf2q"] {
            let text = format!(
                "link=10Mbps\nbuffer=1MiB\nsched={sched}\n[flow]\nrate=1Mbps\nbucket=10KiB\n"
            );
            assert!(Scenario::parse(&text).is_ok(), "sched {sched}");
        }
        for policy in [
            "none",
            "threshold",
            "dyn-thresh",
            "red",
            "fred",
            "pbs",
            "sharing:1MiB",
        ] {
            let text = format!(
                "link=10Mbps\nbuffer=1MiB\npolicy={policy}\n[flow]\nrate=1Mbps\nbucket=10KiB\n"
            );
            assert!(Scenario::parse(&text).is_ok(), "policy {policy}");
        }
        // Missing argument is an error, not a default.
        assert!(Scenario::parse(
            "link=10Mbps\nbuffer=1MiB\npolicy=sharing\n[flow]\nrate=1Mbps\nbucket=10KiB\n"
        )
        .is_err());
    }
}
