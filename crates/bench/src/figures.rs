//! Regeneration of every table and figure in the paper, plus the
//! analytic artifacts and the DESIGN.md ablations.
//!
//! Each `figN` corresponds to the paper's figure of the same number;
//! EXPERIMENTS.md records the expected-vs-measured shapes. Simulation
//! figures share grids (Figures 1–3 reuse the same runs, etc.) so `all`
//! costs one pass per experiment family.

use crate::report::{Figure, RunProfile, Series};
use qbm_core::analysis::example1::Example1;
use qbm_core::analysis::hybrid::{
    buffer_savings_eq17, hybrid_buffer_eq19, single_fifo_buffer_eq13, Grouping,
};
use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::policy::{compute_thresholds, PolicyKind, ThresholdOptions};
use qbm_core::units::{ByteSize, Dur};
use qbm_sched::SchedKind;
use qbm_sim::experiment::summarize_samples;
use qbm_sim::scenarios::{
    buffer_sweep, case1_grouping, case2_grouping, default_headroom, headroom_sweep, hybrid_schemes,
    paper_experiment, plan_hybrid, section3_schemes, sharing_schemes, Scheme, LINK_RATE,
};
use qbm_sim::{Campaign, ExperimentConfig, MultiRun, PolicySpec, SeedMode, SimResult};

/// Simulated link capacity in Mb/s (for utilization percentages).
const LINK_MBPS: f64 = 48.0;

const BUFFER_AXIS: &str = "total buffer (MiB)";
const UTIL_AXIS: &str = "link utilization (%)";
const LOSS_AXIS: &str = "conformant packet loss (%)";

/// Run every point `replications` times as one [`Campaign`] under the
/// profile's window and worker pool. [`SeedMode::BaseOffset`] with base
/// seed 1 gives every point seeds `1..=replications` — the historical
/// per-point `run_many(1, replications)` numbers, for any thread count.
pub fn run_points(
    mut points: Vec<ExperimentConfig>,
    replications: usize,
    profile: &RunProfile,
) -> Vec<MultiRun> {
    for cfg in &mut points {
        cfg.warmup = Dur::from_secs(profile.warmup_s);
        cfg.duration = Dur::from_secs(profile.duration_s);
    }
    let mut campaign = Campaign::new(&points);
    campaign.replications = replications;
    campaign.campaign_seed = 1;
    campaign.seed_mode = SeedMode::BaseOffset;
    campaign.threads = profile.threads;
    campaign.run()
}

/// A computed grid of runs: `runs[scheme][x]`.
pub struct Grid {
    /// Scheme labels (stable across x).
    pub labels: Vec<String>,
    /// The x values (bytes — buffer size or headroom).
    pub xs: Vec<u64>,
    /// Workload the grid ran.
    pub specs: Vec<FlowSpec>,
    /// `runs[scheme][x]`.
    pub runs: Vec<Vec<MultiRun>>,
}

impl Grid {
    /// Run `points`, one per (x, scheme) in x-major order, at the
    /// profile's seed count.
    fn run(
        labels: Vec<String>,
        xs: &[u64],
        specs: &[FlowSpec],
        points: Vec<ExperimentConfig>,
        profile: &RunProfile,
    ) -> Grid {
        let mut runs = vec![Vec::with_capacity(xs.len()); labels.len()];
        for (i, mr) in run_points(points, profile.seeds, profile)
            .into_iter()
            .enumerate()
        {
            runs[i % labels.len()].push(mr);
        }
        Grid {
            labels,
            xs: xs.to_vec(),
            specs: specs.to_vec(),
            runs,
        }
    }

    /// One series per scheme: `metric` against `x_of(x)`.
    pub fn series(
        &self,
        x_of: impl Fn(u64) -> f64,
        metric: impl Fn(&SimResult) -> f64,
    ) -> Vec<Series> {
        let xs: Vec<f64> = self.xs.iter().map(|&x| x_of(x)).collect();
        self.labels
            .iter()
            .zip(&self.runs)
            .map(|(label, runs)| point_series(label.clone(), &xs, runs, &metric))
            .collect()
    }

    /// Per scheme, one throughput series (Mb/s against the buffer in
    /// MiB) for each of `flows`, labelled `"<scheme> f<flow>"`.
    pub fn flow_series(&self, flows: &[u32]) -> Vec<Series> {
        let xs: Vec<f64> = self.xs.iter().map(|&x| mib(x)).collect();
        let mut out = Vec::new();
        for (label, runs) in self.labels.iter().zip(&self.runs) {
            for &flow in flows {
                out.push(point_series(format!("{label} f{flow}"), &xs, runs, |r| {
                    r.flow_throughput_bps(FlowId(flow)) / 1e6
                }));
            }
        }
        out
    }
}

/// Run `scheme_fn(x)` for every x, collecting the full grid as one
/// [`run_points`] campaign.
pub fn run_grid(
    specs: &[FlowSpec],
    xs: &[u64],
    profile: &RunProfile,
    scheme_fn: impl Fn(u64) -> Vec<Scheme>,
) -> Grid {
    let labels: Vec<String> = scheme_fn(xs[0]).iter().map(|s| s.label.clone()).collect();
    let mut points = Vec::with_capacity(xs.len() * labels.len());
    for &x in xs {
        let schemes = scheme_fn(x);
        assert_eq!(schemes.len(), labels.len(), "scheme set changed across x");
        // Headroom sweeps fix the buffer inside the scheme; buffer
        // sweeps take it from x.
        for scheme in &schemes {
            let buffer = scheme.buffer_override.unwrap_or(x);
            points.push(paper_experiment(specs, scheme, buffer));
        }
    }
    Grid::run(labels, xs, specs, points, profile)
}

/// One series over parallel `xs` and `runs`.
fn point_series(
    label: String,
    xs: &[f64],
    runs: &[MultiRun],
    metric: impl Fn(&SimResult) -> f64,
) -> Series {
    Series {
        label,
        points: xs
            .iter()
            .zip(runs)
            .map(|(&x, mr)| (x, mr.summarize(&metric)))
            .collect(),
    }
}

/// Append `suffix` to every series label.
fn suffixed(mut series: Vec<Series>, suffix: &str) -> Vec<Series> {
    for s in &mut series {
        s.label.push_str(suffix);
    }
    series
}

/// A figure with the total buffer (MiB) on its x axis.
fn buffer_figure(
    id: impl Into<String>,
    title: impl Into<String>,
    y_label: &str,
    series: Vec<Series>,
    notes: &[String],
) -> Figure {
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: BUFFER_AXIS.into(),
        y_label: y_label.into(),
        series,
        notes: notes.to_vec(),
    }
}

/// The utilization and conformant-loss figures of a buffer sweep.
fn util_loss(
    grid: &Grid,
    ids: [impl Into<String>; 2],
    titles: [&str; 2],
    notes: &[String],
) -> Vec<Figure> {
    let [util_id, loss_id] = ids;
    let util = grid.series(mib, util_pct);
    let loss = grid.series(mib, conf_loss_pct(&grid.specs));
    vec![
        buffer_figure(util_id, titles[0], UTIL_AXIS, util, notes),
        buffer_figure(loss_id, titles[1], LOSS_AXIS, loss, notes),
    ]
}

/// Figures `first`..`first + 2`: [`util_loss`] plus the throughput of
/// the two contrasting non-conformant flows (6: small excess on a
/// 0.4 Mb/s floor; 8: large excess on 2 Mb/s) — Figures 1–3 and 4–6.
fn util_loss_flows(grid: &Grid, first: u32, titles: [&str; 3], notes: &[String]) -> Vec<Figure> {
    let [util, loss, flows] = titles;
    let ids = [first, first + 1].map(|n| format!("fig{n}"));
    let mut out = util_loss(grid, ids, [util, loss], notes);
    let series = grid.flow_series(&[6, 8]);
    let id = format!("fig{}", first + 2);
    out.push(buffer_figure(
        id,
        flows,
        "flow throughput (Mb/s)",
        series,
        notes,
    ));
    out
}

/// A `sched` scheme under the paper's per-flow thresholds.
fn thresh(label: &str, sched: SchedKind) -> Scheme {
    Scheme::new(label, sched, PolicySpec::Kind(PolicyKind::Threshold))
}

fn mib(x: u64) -> f64 {
    x as f64 / (1u64 << 20) as f64
}

fn util_pct(r: &SimResult) -> f64 {
    r.aggregate_throughput_bps() / (LINK_MBPS * 1e6) * 100.0
}

fn conf_loss_pct(specs: &[FlowSpec]) -> impl Fn(&SimResult) -> f64 + '_ {
    move |r| r.class_loss_ratio(specs, Conformance::Conformant) * 100.0
}

fn class_throughput_mbps(
    specs: &[FlowSpec],
    class: Conformance,
) -> impl Fn(&SimResult) -> f64 + '_ {
    move |r| r.class_throughput_bps(specs, class) / 1e6
}

/// Figures 1–3 share the §3.2 grid (four schemes × buffer sweep).
pub fn section3_figures(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| section3_schemes());
    util_loss_flows(
        &grid,
        1,
        [
            "Aggregate throughput with threshold based buffer management",
            "Loss for conformant flows with threshold based buffer management",
            "Throughput for non-conformant flows with threshold based buffer management",
        ],
        &protocol_notes(profile),
    )
}

/// Figures 4–6 share the §3.3 grid (sharing schemes, H = 2 MB).
pub fn sharing_figures(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let h = default_headroom();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| sharing_schemes(h));
    let mut notes = protocol_notes(profile);
    notes.push("headroom H = 2 MiB (paper's §3.3 setting)".into());
    util_loss_flows(
        &grid,
        4,
        [
            "Aggregate throughput with Buffer Sharing",
            "Loss for conformant flows in Buffer Sharing",
            "Throughput for non-conformant flows with Buffer Sharing",
        ],
        &notes,
    )
}

/// Figure 7: conformant loss as the headroom H varies. The paper runs
/// at B = 1 MByte; this implementation is already lossless there, so
/// the sweep runs at 256 KiB where the headroom's protection is
/// measurable (same monotone-decreasing shape; see EXPERIMENTS.md).
pub fn fig7(profile: &RunProfile) -> Figure {
    let specs = qbm_traffic::table1();
    let b = qbm_sim::scenarios::fig7_buffer();
    let grid = run_grid(&specs, &headroom_sweep(), profile, |h| {
        sharing_schemes(h)
            .into_iter()
            .filter(|s| s.label.contains("sharing"))
            .map(|s| Scheme {
                buffer_override: Some(b),
                ..s
            })
            .collect()
    });
    let mut notes = protocol_notes(profile);
    notes.push("buffer fixed at 256 KiB (see EXPERIMENTS.md on the shifted operating point); x is the headroom H".into());
    Figure {
        id: "fig7".into(),
        title: "Effect of varying the headroom in terms of loss for conformant flows".into(),
        x_label: "headroom H (KiB)".into(),
        y_label: LOSS_AXIS.into(),
        series: grid.series(kib, conf_loss_pct(&grid.specs)),
        notes,
    }
}

fn kib(x: u64) -> f64 {
    x as f64 / 1024.0
}

/// Figures 8–10 (hybrid Case 1) / 11–13 (hybrid Case 2).
pub fn hybrid_figures(profile: &RunProfile, case2: bool) -> Vec<Figure> {
    let (specs, grouping, base, case) = if case2 {
        (qbm_traffic::table2(), case2_grouping(), 11, "Case 2")
    } else {
        (qbm_traffic::table1(), case1_grouping(), 8, "Case 1")
    };
    let h = default_headroom();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |b| {
        hybrid_schemes(&specs, &grouping, b, h)
    });
    let mut notes = protocol_notes(profile);
    notes.push(format!(
        "3-queue hybrid, Prop-3 rate split, per-queue thresholds σj + ρj·Bi/Ri ({case})"
    ));
    // Loss: Case 1 tracks conformant flows; Case 2 additionally tracks
    // the moderately non-conformant class (the paper's Fig. 12).
    // Non-conformant throughput: Case 1 tracks flows 6 and 8; Case 2
    // the aggressive class aggregate.
    let mut loss = suffixed(grid.series(mib, conf_loss_pct(&specs)), " conf");
    let throughput = if case2 {
        loss.extend(suffixed(
            grid.series(mib, |r| {
                r.class_loss_ratio(&specs, Conformance::ModeratelyNonConformant) * 100.0
            }),
            " mod",
        ));
        suffixed(
            grid.series(mib, class_throughput_mbps(&specs, Conformance::Aggressive)),
            " aggr",
        )
    } else {
        grid.flow_series(&[6, 8])
    };
    let moderate = if case2 {
        " and moderately conformant"
    } else {
        ""
    };
    vec![
        buffer_figure(
            format!("fig{base}"),
            format!("Hybrid System, {case}: Aggregate throughput with Buffer Sharing"),
            UTIL_AXIS,
            grid.series(mib, util_pct),
            &notes,
        ),
        buffer_figure(
            format!("fig{}", base + 1),
            format!(
                "Hybrid System, {case}: Loss for conformant{moderate} flows with Buffer Sharing"
            ),
            "packet loss (%)",
            loss,
            &notes,
        ),
        buffer_figure(
            format!("fig{}", base + 2),
            format!(
                "Hybrid System, {case}: Throughput for non-conformant flows with Buffer Sharing"
            ),
            "throughput (Mb/s)",
            throughput,
            &notes,
        ),
    ]
}

/// Tables 1 and 2 as text (workload definitions).
pub fn workload_table(case2: bool) -> String {
    let (id, specs) = if case2 {
        ("table2", qbm_traffic::table2())
    } else {
        ("table1", qbm_traffic::table1())
    };
    let mut out = format!(
        "# {id} — Traffic characteristics and reservation levels\n\
         {:>5} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}\n",
        "flow", "peak Mb/s", "avg Mb/s", "bkt KiB", "tkn Mb/s", "class", "burst KiB"
    );
    for s in &specs {
        out.push_str(&format!(
            "{:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.2} {:>12} {:>10.1}\n",
            s.id.0,
            s.peak.mbps(),
            s.avg.mbps(),
            s.bucket_bytes as f64 / 1024.0,
            s.token_rate.mbps(),
            s.class.label(),
            s.mean_burst_bytes as f64 / 1024.0,
        ));
    }
    let reserved: u64 = specs.iter().map(|s| s.token_rate.bps()).sum();
    out.push_str(&format!(
        "# aggregate reservation: {:.1} Mb/s ({:.0}% of the 48 Mb/s link)\n",
        reserved as f64 / 1e6,
        reserved as f64 / 48e6 * 100.0
    ));
    out
}

/// The Eq.-10 buffer/utilization frontier (analytic): buffer needed per
/// byte of Σσ, FIFO+thresholds vs WFQ.
pub fn frontier_figure() -> Figure {
    let us: Vec<f64> = (0..=19).map(|i| i as f64 * 0.05).collect();
    let curve = |label: &str, f: fn(f64) -> f64| Series {
        label: label.into(),
        points: us
            .iter()
            .map(|&u| (u, summarize_samples(&[f(u)])))
            .collect(),
    };
    let fifo = curve("fifo 1/(1-u)", qbm_core::admission::buffer_inflation);
    let wfq = curve("wfq (=1)", |_| 1.0);
    Figure {
        id: "frontier".into(),
        title: "Eq. 10: buffer inflation vs reserved utilization".into(),
        x_label: "reserved utilization u = Σρ/R".into(),
        y_label: "required buffer / Σσ".into(),
        series: vec![fifo, wfq],
        notes: vec!["analytic — diverges as u → 1 (the paper's §2.3 trade-off)".into()],
    }
}

/// Example 1 convergence table (analytic).
pub fn example1_figure() -> Figure {
    let sys = Example1::from_buffer(1_048_576.0, 48e6, 12e6);
    let ivs: Vec<_> = sys.intervals().take(12).collect();
    let mk = |label: &str, f: &dyn Fn(&qbm_core::analysis::example1::Interval) -> f64| Series {
        label: label.into(),
        points: ivs
            .iter()
            .map(|iv| (iv.i as f64, summarize_samples(&[f(iv)])))
            .collect(),
    };
    Figure {
        id: "example1".into(),
        title: "Example 1: greedy-flow dynamics (B = 1 MiB, R = 48 Mb/s, ρ1 = 12 Mb/s)".into(),
        x_label: "interval i".into(),
        y_label: "value".into(),
        series: vec![
            mk("l_i (ms)", &|iv| iv.len * 1e3),
            mk("R1_i (Mb/s)", &|iv| iv.rate1 / 1e6),
            mk("R2_i (Mb/s)", &|iv| iv.rate2 / 1e6),
            mk("Q1(t_i) (KiB)", &|iv| iv.q1_end_bytes / 1024.0),
        ],
        notes: vec![format!(
            "limits: l∞ = {:.3} ms, R1 → 12 Mb/s, R2 → 36 Mb/s",
            sys.l_limit() * 1e3
        )],
    }
}

/// Prop-3 buffer savings for the paper's groupings and the optimizer's.
pub fn hybrid_savings_text() -> String {
    let mut out = String::from(
        "# hybrid-savings — Eq. 13/17/19: single-FIFO vs hybrid buffer requirements\n",
    );
    let cases: Vec<(&str, Vec<FlowSpec>, Grouping)> = vec![
        ("case1 (paper)", qbm_traffic::table1(), case1_grouping()),
        ("case2 (paper)", qbm_traffic::table2(), case2_grouping()),
        (
            "case1 (DP k=3)",
            qbm_traffic::table1(),
            Grouping::optimize_contiguous(&qbm_traffic::table1(), 3),
        ),
        (
            "case2 (DP k=3)",
            qbm_traffic::table2(),
            Grouping::optimize_contiguous(&qbm_traffic::table2(), 3),
        ),
    ];
    out.push_str(&format!(
        "{:<16} {:>14} {:>14} {:>14} {:>8}\n",
        "grouping", "B_FIFO (KiB)", "B_hyb (KiB)", "saved (KiB)", "saved %"
    ));
    for (name, specs, grouping) in cases {
        let r = LINK_RATE.bps() as f64;
        let sigma: f64 = specs.iter().map(|s| s.bucket_bytes as f64).sum();
        let rho: f64 = specs.iter().map(|s| s.token_rate.bps() as f64).sum();
        let b_fifo = single_fifo_buffer_eq13(r, sigma, rho);
        let groups = grouping.profiles(&specs);
        let b_hyb = hybrid_buffer_eq19(r, &groups);
        let saved = buffer_savings_eq17(r, &groups);
        out.push_str(&format!(
            "{:<16} {:>14.1} {:>14.1} {:>14.1} {:>7.1}%\n",
            name,
            b_fifo / 1024.0,
            b_hyb / 1024.0,
            saved / 1024.0,
            saved / b_fifo * 100.0
        ));
    }
    out.push_str("# identity check: B_FIFO − B_hybrid == Eq.17 savings (verified in tests)\n");
    out
}

/// Ablation: footnote-5 threshold scale-up on vs off (FIFO+thresholds).
pub fn ablate_scaleup(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |b| {
        let no_scale = compute_thresholds(
            b,
            LINK_RATE,
            &specs,
            ThresholdOptions {
                scale_up_to_partition: false,
            },
        );
        vec![
            thresh("scale-up (paper)", SchedKind::Fifo),
            Scheme::new(
                "raw thresholds",
                SchedKind::Fifo,
                PolicySpec::ExplicitThreshold {
                    thresholds: no_scale,
                },
            ),
        ]
    });
    let notes = [
        "footnote 5: when Σ(σi + ρiB/R) < B, scale thresholds to tile the buffer".into(),
        "without scale-up, large buffers go unused and utilization plateaus".into(),
    ];
    util_loss(
        &grid,
        ["ablate-scaleup-util", "ablate-scaleup-loss"],
        [
            "Ablation: threshold scale-up — link utilization",
            "Ablation: threshold scale-up — conformant loss",
        ],
        &notes,
    )
}

/// Ablation: number of hybrid queues k (Table 2 workload, DP grouping).
pub fn ablate_queues(profile: &RunProfile) -> Figure {
    let specs = qbm_traffic::table2();
    let b = ByteSize::from_mib_f64(1.5).bytes();
    let h = ByteSize::from_kib(512).bytes();
    let groupings: Vec<Grouping> = (1..=5)
        .map(|k| Grouping::optimize_contiguous(&specs, k))
        .collect();
    let points = groupings
        .iter()
        .map(|grouping| {
            let scheme = hybrid_schemes(&specs, grouping, b, h)
                .into_iter()
                .find(|s| s.label.starts_with("hybrid"))
                .unwrap();
            paper_experiment(&specs, &scheme, b)
        })
        .collect();
    let runs = run_points(points, profile.seeds, profile);
    let ks: Vec<f64> = (1..=groupings.len()).map(|k| k as f64).collect();
    let b_hyb = Series {
        label: "B_hyb analytic (MiB)".into(),
        points: ks
            .iter()
            .zip(&groupings)
            .map(|(&k, grouping)| {
                let b_hyb = hybrid_buffer_eq19(LINK_RATE.bps() as f64, &grouping.profiles(&specs));
                (k, summarize_samples(&[b_hyb / (1u64 << 20) as f64]))
            })
            .collect(),
    };
    let mut notes = protocol_notes(profile);
    notes.push("B = 1.5 MiB, H = 512 KiB; grouping via σ/ρ-sorted DP".into());
    Figure {
        id: "ablate-queues".into(),
        title: "Ablation: number of hybrid queues k (Table 2)".into(),
        x_label: "queues k".into(),
        y_label: "mixed (see series labels)".into(),
        series: vec![
            point_series("conf loss (%)".into(), &ks, &runs, conf_loss_pct(&specs)),
            point_series("util (%)".into(), &ks, &runs, util_pct),
            b_hyb,
        ],
        notes,
    }
}

/// Ablation: §5 adaptive-only sharing vs all-flow sharing (Table 1).
pub fn ablate_adaptive(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let h = default_headroom();
    let xs: Vec<u64> = [0.5, 1.0, 2.0, 3.0]
        .iter()
        .map(|&m| ByteSize::from_mib_f64(m).bytes())
        .collect();
    let grid = run_grid(&specs, &xs, profile, |_| {
        vec![
            Scheme::new(
                "sharing (all)",
                SchedKind::Fifo,
                PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes: h }),
            ),
            Scheme::new(
                "adaptive-only",
                SchedKind::Fifo,
                PolicySpec::Kind(PolicyKind::AdaptiveSharing { headroom_bytes: h }),
            ),
        ]
    });
    let notes = [
        "§5 future work: only adaptive-marked flows (the conformant set in Table 1) may \
         borrow shared buffers; aggressive flows are held to their reserved shares"
            .into(),
    ];
    vec![
        buffer_figure(
            "ablate-adaptive-loss",
            "Ablation: adaptive-only sharing — conformant loss",
            LOSS_AXIS,
            grid.series(mib, conf_loss_pct(&specs)),
            &notes,
        ),
        buffer_figure(
            "ablate-adaptive-aggr",
            "Ablation: adaptive-only sharing — aggressive-class throughput",
            "aggressive throughput (Mb/s)",
            grid.series(mib, class_throughput_mbps(&specs, Conformance::Aggressive)),
            &notes,
        ),
    ]
}

/// A text rendering of the hybrid plan (rates, buffers, thresholds) —
/// companion output for Figures 8–13.
pub fn hybrid_plan_text(case2: bool) -> String {
    let (specs, grouping, case) = if case2 {
        (qbm_traffic::table2(), case2_grouping(), "Case 2")
    } else {
        (qbm_traffic::table1(), case1_grouping(), "Case 1")
    };
    let b = ByteSize::from_mib(2).bytes();
    let plan = plan_hybrid(&specs, &grouping, b);
    let mut out = format!("# hybrid plan ({case}), B = 2 MiB\n");
    out.push_str(&format!(
        "{:>6} {:>8} {:>12} {:>14} {:>14}\n",
        "queue", "alpha", "rate Mb/s", "Bmin KiB", "B KiB"
    ));
    for q in 0..plan.alphas.len() {
        out.push_str(&format!(
            "{:>6} {:>8.4} {:>12.2} {:>14.1} {:>14.1}\n",
            q,
            plan.alphas[q],
            plan.queue_rates_bps[q] as f64 / 1e6,
            plan.queue_min_buffers[q] / 1024.0,
            plan.queue_buffers[q] as f64 / 1024.0,
        ));
    }
    out.push_str("# per-flow thresholds (KiB): ");
    out.push_str(
        &plan
            .flow_thresholds
            .iter()
            .map(|t| format!("{:.1}", *t as f64 / 1024.0))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push('\n');
    out
}

fn protocol_notes(profile: &RunProfile) -> Vec<String> {
    vec![format!(
        "{} seeds, {} s warmup, {} s measured, 48 Mb/s link, 500 B packets",
        profile.seeds,
        profile.warmup_s,
        profile.duration_s - profile.warmup_s
    )]
}

// ---------------------------------------------------------------------------
// Extension experiments (not figures in the paper; documented in DESIGN.md).
// ---------------------------------------------------------------------------

/// Comparator sweep: the paper's schemes against the cited alternatives
/// — Choudhury–Hahne Dynamic Threshold \[1\], RED \[3\], and a Virtual
/// Clock scheduler (the timestamp family of \[8\]) — on Table 1.
pub fn comparator_figures(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let fifo = |label, policy| Scheme::new(label, SchedKind::Fifo, PolicySpec::Kind(policy));
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| {
        vec![
            fifo("fifo+thresh", PolicyKind::Threshold),
            fifo(
                "fifo+dyn-thresh",
                PolicyKind::DynamicThreshold {
                    alpha_num: 1,
                    alpha_den: 1,
                },
            ),
            fifo("fifo+red", PolicyKind::Red { seed: 42 }),
            fifo(
                "fifo+pbs",
                PolicyKind::PartialSharing {
                    threshold_permille: 800,
                },
            ),
            fifo("fifo+fred", PolicyKind::Fred { seed: 42 }),
            thresh("vclock+thresh", SchedKind::VirtualClock),
            thresh("edf+thresh", SchedKind::Edf),
            thresh("wf2q+thresh", SchedKind::Wf2q),
        ]
    });
    let mut notes = protocol_notes(profile);
    notes.push(
        "comparators: DT and RED carry no reservations, so they cannot protect \
         conformant flows; Virtual Clock is the cheaper timestamp scheduler"
            .into(),
    );
    util_loss(
        &grid,
        ["comparators-util", "comparators-loss"],
        [
            "Comparator policies: aggregate throughput (Table 1)",
            "Comparator policies: loss for conformant flows (Table 1)",
        ],
        &notes,
    )
}

/// The §1 delay trade-off, measured: analytic FIFO/WFQ bounds next to
/// simulated mean and max delays per Table-1 flow at B = 1 MiB.
pub fn delays_text(profile: &RunProfile) -> String {
    use qbm_core::analysis::delay::{fifo_delay_bound, wfq_delay_bound};
    let specs = qbm_traffic::table1();
    let b = ByteSize::from_mib(1).bytes();
    let points = [SchedKind::Fifo, SchedKind::Wfq]
        .map(|sched| paper_experiment(&specs, &thresh("", sched), b))
        .to_vec();
    let runs = run_points(points, 1, profile);
    let (fifo, wfq) = (&runs[0].runs[0], &runs[1].runs[0]);
    let fifo_bound = fifo_delay_bound(b, LINK_RATE, 500);
    let mut out = String::from(
        "# delays — §1 trade-off: FIFO worst-case bound vs WFQ per-flow bounds (B = 1 MiB)\n",
    );
    out.push_str(&format!(
        "# FIFO bound (all flows): {:.3} ms\n",
        fifo_bound.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "{:>5} {:>13} {:>12} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
        "flow",
        "wfq bound ms",
        "fifo mean",
        "fifo p99",
        "fifo max",
        "wfq mean",
        "wfq p99",
        "wfq max"
    ));
    for s in &specs {
        let wb = wfq_delay_bound(s, LINK_RATE, 500)
            .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "-".into());
        let f = &fifo.flows[s.id.index()];
        let w = &wfq.flows[s.id.index()];
        out.push_str(&format!(
            "{:>5} {:>13} {:>12.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}\n",
            s.id.0,
            wb,
            f.mean_delay().as_secs_f64() * 1e3,
            f.delay_percentile(0.99).as_secs_f64() * 1e3,
            f.delay_max_ns as f64 / 1e6,
            w.mean_delay().as_secs_f64() * 1e3,
            w.delay_percentile(0.99).as_secs_f64() * 1e3,
            w.delay_max_ns as f64 / 1e6,
        ));
    }
    out.push_str("# delays in ms; p99 is a log2-bucket upper edge (within 2x)\n");
    out.push_str(
        "# observations: every measured delay sits below its bound; WFQ gives\n\
         # high-rate flows much tighter delays while FIFO delays are uniform\n\
         # (and small in absolute terms — the paper's §1 argument).\n",
    );
    out
}

/// Robustness ablation: exponential (paper) vs heavy-tailed Pareto
/// ON/OFF sojourns at identical moments, FIFO+thresholds.
pub fn ablate_burstiness(profile: &RunProfile) -> Vec<Figure> {
    use qbm_traffic::Sojourns;
    let specs = qbm_traffic::table1();
    let families = [
        ("exponential", Sojourns::Exponential),
        ("pareto a=1.5", Sojourns::Pareto { shape: 1.5 }),
    ];
    let xs = buffer_sweep();
    let scheme = thresh("fifo+thresh", SchedKind::Fifo);
    let mut points = Vec::with_capacity(xs.len() * families.len());
    for &b in &xs {
        for (_, sojourns) in families {
            let mut cfg = paper_experiment(&specs, &scheme, b);
            cfg.sojourns = sojourns;
            points.push(cfg);
        }
    }
    let labels = families.iter().map(|(l, _)| l.to_string()).collect();
    let grid = Grid::run(labels, &xs, &specs, points, profile);
    let mut notes = protocol_notes(profile);
    notes.push(
        "same Table-1 moments; Pareto sojourns (infinite variance) stress the \
         thresholds with much larger worst-case bursts"
            .into(),
    );
    util_loss(
        &grid,
        ["ablate-burstiness-util", "ablate-burstiness-loss"],
        [
            "Ablation: heavy-tailed bursts — utilization (FIFO+thresholds)",
            "Ablation: heavy-tailed bursts — conformant loss (FIFO+thresholds)",
        ],
        &notes,
    )
}

/// Tandem-line artifact: Table 1 through a 48 Mb/s hop then a 40 Mb/s
/// bottleneck hop, both threshold-protected (extension experiment).
pub fn tandem_text(profile: &RunProfile) -> String {
    use qbm_core::units::{Rate, Time};
    use qbm_sim::scenarios::{line, LinkProfile};
    let specs = qbm_traffic::table1();
    let slow = Rate::from_mbps(40.0);
    let needed2 = qbm_core::admission::fifo_required_buffer(slow, &specs).ceil() as u64;
    let threshold = |buffer_bytes| LinkProfile {
        buffer_bytes,
        policy: PolicySpec::Kind(PolicyKind::Threshold),
        ..LinkProfile::default()
    };
    let hops = [
        (LINK_RATE, threshold(ByteSize::from_mib(2).bytes())),
        (slow, threshold(needed2)),
    ];
    let res = line(&specs, &hops, 1).run(
        1,
        Time::from_secs(profile.warmup_s),
        Time::from_secs(profile.duration_s),
        1,
    );
    let mut out = String::from(
        "# tandem — 2-hop line: 48 Mb/s -> 40 Mb/s bottleneck, thresholds at both hops\n",
    );
    out.push_str(&format!(
        "# hop-2 buffer from Eq. 9 at 40 Mb/s: {:.0} KiB\n",
        needed2 as f64 / 1024.0
    ));
    out.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "flow", "h1 Mb/s", "h1 loss%", "h2 Mb/s", "h2 loss%", "class"
    ));
    for s in &specs {
        out.push_str(&format!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12}\n",
            s.id.0,
            res[0].flow_throughput_bps(s.id) / 1e6,
            res[0].flows[s.id.index()].loss_ratio() * 100.0,
            res[1].flow_throughput_bps(s.id) / 1e6,
            res[1].flows[s.id.index()].loss_ratio() * 100.0,
            s.class.label(),
        ));
    }
    out.push_str("# conformant rows must show 0.00 loss at both hops (composition).\n");
    out
}

/// Scalability ablation: the same 68 %-reserved mix split across
/// 9·k flows (k = 1..32), FIFO+thresholds at B = 2 MiB. The paper's
/// whole pitch is that per-flow state stays O(1) as sessions multiply:
/// conformant protection must survive the split. The per-flow cost
/// side is host time, measured by the `sched_scale` bench's
/// `policy_admit_release` rows and perfbench, not here.
pub fn ablate_scale(profile: &RunProfile) -> Figure {
    let b = ByteSize::from_mib(2).bytes();
    let scheme = thresh("fifo+thresh", SchedKind::Fifo);
    let specs: Vec<Vec<FlowSpec>> = [1, 2, 4, 8, 16, 32]
        .into_iter()
        .map(qbm_traffic::table1_scaled)
        .collect();
    let points = specs
        .iter()
        .map(|s| paper_experiment(s, &scheme, b))
        .collect();
    let runs = run_points(points, profile.seeds.min(3), profile);
    let ns: Vec<f64> = specs.iter().map(|s| s.len() as f64).collect();
    let loss = Series {
        label: "conf loss (%)".into(),
        points: ns
            .iter()
            .zip(specs.iter().zip(&runs))
            .map(|(&n, (s, mr))| (n, mr.summarize(conf_loss_pct(s))))
            .collect(),
    };
    let mut notes = protocol_notes(profile);
    notes.push("same aggregate mix (68 % reserved) split across 9·k flows; B = 2 MiB".into());
    Figure {
        id: "ablate-scale".into(),
        title: "Ablation: flow-count scaling at constant load (FIFO+thresholds)".into(),
        x_label: "number of flows".into(),
        y_label: "mixed (see series labels)".into(),
        series: vec![loss, point_series("util (%)".into(), &ns, &runs, util_pct)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RunProfile {
        RunProfile {
            seeds: 1,
            warmup_s: 0,
            duration_s: 1,
            threads: 0,
        }
    }

    #[test]
    fn workload_tables_render() {
        let t1 = workload_table(false);
        assert!(t1.contains("table1"));
        assert!(t1.contains("32.8 Mb/s"));
        let t2 = workload_table(true);
        assert!(t2.contains("aggressive"));
        assert_eq!(t2.lines().count(), 33); // header ×2 + 30 flows + footer
    }

    #[test]
    fn analytic_figures_have_expected_shapes() {
        let f = frontier_figure();
        // FIFO inflation at u=0.95 is 20×; WFQ flat at 1.
        let fifo_last = f.series[0].points.last().unwrap();
        assert!((fifo_last.1.mean - 20.0).abs() < 1e-9);
        assert!(f.series[1].points.iter().all(|(_, s)| s.mean == 1.0));

        let e = example1_figure();
        // R1 series is monotone increasing toward 12 Mb/s.
        let r1 = &e.series[1].points;
        assert!(r1.windows(2).all(|w| w[0].1.mean <= w[1].1.mean + 1e-12));
        assert!((r1.last().unwrap().1.mean - 12.0).abs() < 0.5);
    }

    #[test]
    fn hybrid_savings_text_is_consistent() {
        let t = hybrid_savings_text();
        assert!(t.contains("case1 (paper)"));
        // DP grouping can only match or beat the paper's hand grouping.
        let get = |name: &str| -> f64 {
            let line = t.lines().find(|l| l.starts_with(name)).unwrap();
            let cols: Vec<&str> = line.split_whitespace().collect();
            cols[cols.len() - 3].parse().unwrap() // B_hyb column
        };
        assert!(get("case1 (DP") <= get("case1 (paper)") + 1e-6);
        assert!(get("case2 (DP") <= get("case2 (paper)") + 1e-6);
    }

    #[test]
    fn hybrid_plan_text_renders_both_cases() {
        let p1 = hybrid_plan_text(false);
        assert!(p1.contains("Case 1"));
        assert_eq!(p1.lines().count(), 6); // header + colhdr + 3 queues + thresholds
        let p2 = hybrid_plan_text(true);
        assert!(p2.contains("Case 2"));
    }

    #[test]
    fn section3_grid_smoke() {
        // One-second single-seed pass over two buffer sizes: the grid
        // machinery, labels, and metric extraction all work end-to-end.
        let specs = qbm_traffic::table1();
        let xs = [
            ByteSize::from_kib(512).bytes(),
            ByteSize::from_mib(1).bytes(),
        ];
        let grid = run_grid(&specs, &xs, &fast(), |_| section3_schemes());
        assert_eq!(grid.labels.len(), 4);
        assert_eq!(grid.runs[0].len(), 2);
        let s = &grid.series(mib, util_pct)[0];
        assert_eq!(s.label, "fifo+none");
        assert_eq!(s.points.len(), 2);
        // FIFO with no management on an overloaded link should push
        // utilization well above 50 % even in one second.
        assert!(s.points[0].1.mean > 50.0, "util {}", s.points[0].1.mean);
    }

    #[test]
    fn fig7_uses_headroom_as_x() {
        let f = fig7(&fast());
        assert_eq!(f.series.len(), 2);
        let xs: Vec<f64> = f.series[0].points.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs[0], 0.0);
        assert!((xs.last().unwrap() - 256.0).abs() < 1e-9); // KiB axis
    }
}
