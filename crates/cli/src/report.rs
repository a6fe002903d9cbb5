//! Text reporting for the `qbm` binary.

use qbm_core::admission::{admissible, AdmissionOutcome, Discipline, LinkConfig};
use qbm_core::flow::Conformance;
use qbm_core::policy::DropReason;
use qbm_core::units::{ByteSize, Dur};
use qbm_sim::MultiRun;

use crate::Scenario;

/// Which percentile source the `qbm report` surface renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// Exact counters only; percentiles come from the legacy
    /// factor-of-2 log₂ delay histogram.
    Exact,
    /// Streaming quantile sketches (bounded relative error, the
    /// default for `qbm report`).
    Sketch,
    /// Both sources side by side, for comparing the sketch against the
    /// legacy bound.
    Both,
}

/// Render one [`TemporalHeatmap`](qbm_obs::TemporalHeatmap) as a
/// compact ASCII sparkline over its finest (tier-0) live cells, oldest
/// → newest: one glyph per 100 ms slot (at default params), height =
/// that slot's `q`-quantile normalized to the row maximum. Returns
/// `None` when no tier-0 cell has samples (older history may still sit
/// in deeper tiers — the sparkline is a recency view, not a total).
pub fn heatmap_sparkline(
    h: &qbm_obs::TemporalHeatmap,
    q: f64,
    fmt_max: fn(u64) -> String,
) -> Option<String> {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut vals: Vec<u64> = Vec::new();
    let (mut lo_ns, mut hi_ns) = (u64::MAX, 0u64);
    h.visit_cells(|tier, start, end, cell| {
        if tier == Some(0) {
            vals.push(cell.quantile(q));
            lo_ns = lo_ns.min(start);
            hi_ns = hi_ns.max(end);
        }
    });
    let max = *vals.iter().max()?;
    let line: String = vals
        .iter()
        .map(|&v| GLYPHS[(v.saturating_mul(7) / max.max(1)) as usize])
        .collect();
    Some(format!(
        "{line}  (≤{} over {:.1}s)",
        fmt_max(max),
        (hi_ns - lo_ns) as f64 / 1e9,
    ))
}

/// Legend formatter for nanosecond-valued heatmaps (delay).
pub fn fmt_ns(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}µs", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

/// Legend formatter for byte-valued heatmaps (occupancy, drops).
pub fn fmt_bytes(v: u64) -> String {
    format!("{}", ByteSize::from_bytes(v))
}

/// Render the §2.3 admission verdicts for a scenario.
pub fn admission_report(s: &Scenario) -> String {
    let link = LinkConfig::new(s.link, s.buffer_bytes);
    let reserved: u64 = s.flows.iter().map(|f| f.token_rate.bps()).sum();
    let sigma: u64 = s.flows.iter().map(|f| f.bucket_bytes).sum();
    let mut out = format!(
        "link {} | buffer {} | {} flows | reserved {:.2} Mb/s ({:.1}% of link) | Σσ {}\n",
        s.link,
        ByteSize::from_bytes(s.buffer_bytes),
        s.flows.len(),
        reserved as f64 / 1e6,
        reserved as f64 / s.link.bps() as f64 * 100.0,
        ByteSize::from_bytes(sigma),
    );
    for (name, disc) in [
        ("WFQ      (Eqs. 5-6)", Discipline::Wfq),
        ("FIFO+thr (Eqs. 7-9)", Discipline::FifoThreshold),
    ] {
        let verdict = match admissible(link, disc, &s.flows) {
            AdmissionOutcome::Accepted => "ACCEPTED — lossless for conformant flows".to_string(),
            AdmissionOutcome::RejectedBandwidth => {
                "REJECTED — bandwidth limited (Σρ > R)".to_string()
            }
            AdmissionOutcome::RejectedBuffer => {
                let needed = match disc {
                    Discipline::Wfq => sigma as f64,
                    Discipline::FifoThreshold => {
                        qbm_core::admission::fifo_required_buffer(s.link, &s.flows)
                    }
                };
                format!(
                    "REJECTED — buffer limited (needs {})",
                    ByteSize::from_bytes(needed.ceil() as u64)
                )
            }
        };
        out.push_str(&format!("  {name}: {verdict}\n"));
    }
    out
}

/// Render the multi-seed simulation results for a scenario.
pub fn simulation_report(s: &Scenario, multi: &MultiRun) -> String {
    let mut out = format!(
        "simulated {} × {} seeds under {}+{} (warmup {})\n\n",
        Dur(s.duration.as_nanos()),
        s.seeds,
        s.sched.label(),
        s.policy.label(),
        s.warmup,
    );
    out.push_str(&format!(
        "{:>5} {:>11} {:>11} {:>9} {:>11} {:>12}\n",
        "flow", "reserved", "delivered", "loss %", "mean delay", "class"
    ));
    for f in &s.flows {
        let thr = multi.summarize(|r| r.flow_throughput_bps(f.id) / 1e6);
        let loss = multi.summarize(|r| r.flows[f.id.index()].loss_ratio() * 100.0);
        let delay = multi.summarize(|r| r.flows[f.id.index()].mean_delay().as_secs_f64() * 1e3);
        out.push_str(&format!(
            "{:>5} {:>11} {:>11} {:>9} {:>11} {:>12}\n",
            f.id.0,
            format!("{}", f.token_rate),
            format!("{:.2}Mb/s", thr.mean),
            format!("{:.2}", loss.mean),
            format!("{:.2}ms", delay.mean),
            f.class.label(),
        ));
    }
    let agg = multi.summarize(|r| r.aggregate_throughput_bps() / 1e6);
    let conf = multi.summarize(|r| r.class_loss_ratio(&s.flows, Conformance::Conformant) * 100.0);
    out.push_str(&format!(
        "\naggregate: {:.2} ±{:.2} Mb/s ({:.1}% of link) | conformant loss {:.3}%\n",
        agg.mean,
        agg.ci95,
        agg.mean * 1e6 / s.link.bps() as f64 * 100.0,
        conf.mean,
    ));
    // Loss split by cause across all flows and seeds — the observability
    // view of *why* packets were refused, not just how many.
    let by = |reason| {
        multi
            .runs
            .iter()
            .map(|r| r.drops_by_reason(reason))
            .sum::<u64>()
    };
    out.push_str(&format!(
        "drops by cause: threshold {} | buffer-full {} | headroom-denied {}\n",
        by(DropReason::OverThreshold),
        by(DropReason::BufferFull),
        by(DropReason::NoSharedSpace),
    ));
    // Closed-loop window counters — present only when the run used
    // AIMD sources (`sources = aimd`); open-loop reports are unchanged.
    let mut aimd: Vec<(u32, qbm_traffic::AimdStats)> = Vec::new();
    for r in &multi.runs {
        for &(f, st) in r.aimd.iter().flatten() {
            match aimd.iter_mut().find(|(g, _)| *g == f) {
                Some((_, acc)) => *acc = acc.merge(&st),
                None => aimd.push((f, st)),
            }
        }
    }
    if !aimd.is_empty() {
        aimd.sort_by_key(|&(f, _)| f);
        out.push_str(&format!(
            "\nclosed-loop (AIMD) windows:\n{:>5} {:>10} {:>12} {:>13} {:>10}\n",
            "flow", "final cwnd", "loss events", "rto backoffs", "lost pkts"
        ));
        for (f, st) in &aimd {
            out.push_str(&format!(
                "{:>5} {:>10} {:>12} {:>13} {:>10}\n",
                f, st.final_cwnd, st.loss_events, st.rto_backoffs, st.lost_pkts
            ));
        }
    }
    out
}

fn ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

/// Render delay and occupancy percentiles per flow plus the aggregate,
/// from the merged sketches (`Sketch`), the legacy factor-of-2 log₂
/// histogram (`Exact`), or both.
pub fn percentile_report(multi: &MultiRun, mode: StatsMode) -> String {
    let merged = multi.merged(0);
    let mut out = String::new();
    if mode != StatsMode::Exact {
        match merged.delay_sketch.as_ref() {
            Some(agg) => {
                out.push_str(&format!(
                    "delay/occupancy percentiles — sketch, rel. error ≤ {:.2}% ({} seeds merged)\n\n",
                    agg.relative_error() * 100.0,
                    multi.runs.len(),
                ));
                out.push_str(&format!(
                    "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    "flow", "p50", "p90", "p99", "p999", "occ p50", "occ p99"
                ));
                for (i, f) in merged.flows.iter().enumerate() {
                    let (Some(d), Some(o)) = (f.delay_sketch.as_deref(), f.occ_sketch.as_deref())
                    else {
                        continue; // per-flow sketches disabled
                    };
                    out.push_str(&format!(
                        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>9}B {:>9}B\n",
                        i,
                        ms(d.quantile(0.50)),
                        ms(d.quantile(0.90)),
                        ms(d.quantile(0.99)),
                        ms(d.quantile(0.999)),
                        o.quantile(0.50),
                        o.quantile(0.99),
                    ));
                }
                let occ = merged.occ_sketch.as_ref();
                out.push_str(&format!(
                    "{:>5} {:>10} {:>10} {:>10} {:>10} {:>9}B {:>9}B\n",
                    "all",
                    ms(agg.quantile(0.50)),
                    ms(agg.quantile(0.90)),
                    ms(agg.quantile(0.99)),
                    ms(agg.quantile(0.999)),
                    occ.map_or(0, |o| o.quantile(0.50)),
                    occ.map_or(0, |o| o.quantile(0.99)),
                ));
            }
            None => out.push_str(
                "no sketches attached — run with `--stats sketch` (or `both`) to record them\n",
            ),
        }
    }
    if mode != StatsMode::Sketch {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("delay percentiles — legacy log₂ histogram (factor-of-2 bound)\n\n");
        out.push_str(&format!(
            "{:>5} {:>10} {:>10} {:>10} {:>10}\n",
            "flow", "p50", "p90", "p99", "p999"
        ));
        for (i, f) in merged.flows.iter().enumerate() {
            out.push_str(&format!(
                "{:>5} {:>10} {:>10} {:>10} {:>10}\n",
                i,
                ms(f.delay_percentile(0.50).as_nanos()),
                ms(f.delay_percentile(0.90).as_nanos()),
                ms(f.delay_percentile(0.99).as_nanos()),
                ms(f.delay_percentile(0.999).as_nanos()),
            ));
        }
    }
    let by = |reason| {
        multi
            .runs
            .iter()
            .map(|r| r.drops_by_reason(reason))
            .sum::<u64>()
    };
    out.push_str(&format!(
        "\ndrops by cause: threshold {} | buffer-full {} | headroom-denied {}\n",
        by(DropReason::OverThreshold),
        by(DropReason::BufferFull),
        by(DropReason::NoSharedSpace),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::parse(
            "link = 48Mbps\nbuffer = 1MiB\nseeds = 2\nduration = 3s\nwarmup = 1s\n\
             [flow]\nrate = 2Mbps\nbucket = 50KiB\npeak = 16Mbps\navg = 2Mbps\ncount = 2\n",
        )
        .unwrap()
    }

    #[test]
    fn admission_report_contains_verdicts() {
        let r = admission_report(&scenario());
        assert!(r.contains("WFQ"));
        assert!(r.contains("FIFO+thr"));
        assert!(r.contains("ACCEPTED"));
        assert!(r.contains("2 flows"));
    }

    #[test]
    fn buffer_limited_report_names_requirement() {
        let mut s = scenario();
        s.buffer_bytes = 10_000; // far below Σσ = 100 KiB
        let r = admission_report(&s);
        assert!(r.contains("buffer limited"), "{r}");
        assert!(r.contains("needs"));
    }

    #[test]
    fn percentile_report_renders_sketch_rows() {
        let s = scenario();
        let mut cfg = s.to_config();
        cfg.stats.sketches = Some(qbm_sim::SketchParams::default());
        let multi = cfg.run_many(1, s.seeds);
        let r = percentile_report(&multi, StatsMode::Sketch);
        assert!(r.contains("sketch, rel. error"), "{r}");
        assert!(r.contains("drops by cause:"), "{r}");
        // Two flow rows plus the aggregate "all" row under the header.
        assert_eq!(r.lines().filter(|l| l.contains('B')).count(), 3, "{r}");
    }

    #[test]
    fn percentile_report_exact_mode_uses_legacy_histogram() {
        let s = scenario();
        let multi = s.to_config().run_many(1, s.seeds);
        let r = percentile_report(&multi, StatsMode::Exact);
        assert!(r.contains("legacy log₂ histogram"), "{r}");
        assert!(!r.contains("sketch"), "{r}");
    }

    #[test]
    fn percentile_report_without_sketches_says_so() {
        let s = scenario();
        let multi = s.to_config().run_many(1, s.seeds);
        let r = percentile_report(&multi, StatsMode::Sketch);
        assert!(r.contains("no sketches attached"), "{r}");
    }

    #[test]
    fn percentile_report_both_renders_both_sections() {
        let s = scenario();
        let mut cfg = s.to_config();
        cfg.stats.sketches = Some(qbm_sim::SketchParams::default());
        let multi = cfg.run_many(1, s.seeds);
        let r = percentile_report(&multi, StatsMode::Both);
        assert!(r.contains("sketch, rel. error"), "{r}");
        assert!(r.contains("legacy log₂ histogram"), "{r}");
    }

    #[test]
    fn simulation_report_renders_rows() {
        let s = scenario();
        let multi = s.to_config().run_many(1, s.seeds);
        let r = simulation_report(&s, &multi);
        assert!(r.contains("aggregate:"));
        assert!(r.contains("drops by cause: threshold"));
        // Two flow rows plus the "conformant loss" summary line.
        assert_eq!(r.lines().filter(|l| l.contains("conformant")).count(), 3);
    }
}
