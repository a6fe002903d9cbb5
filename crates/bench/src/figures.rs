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
use qbm_sim::scenarios::{
    buffer_sweep, case1_grouping, case2_grouping, default_headroom, headroom_sweep, hybrid_schemes,
    paper_experiment, plan_hybrid, section3_schemes, sharing_schemes, Scheme, LINK_RATE,
};
use qbm_sim::{Campaign, ExperimentConfig, MultiRun, PolicySpec, SeedMode, SimResult};

/// Simulated link capacity in Mb/s (for utilization percentages).
const LINK_MBPS: f64 = 48.0;

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

fn apply_profile(cfg: &mut ExperimentConfig, profile: &RunProfile) {
    cfg.warmup = Dur::from_secs(profile.warmup_s);
    cfg.duration = Dur::from_secs(profile.duration_s);
}

/// Run `scheme_fn(x)` for every x, collecting the full grid. All
/// `xs.len() × schemes × seeds` cells run as one [`Campaign`], sharded
/// across the profile's worker threads; [`SeedMode::BaseOffset`] with
/// base seed 1 reproduces the historical per-point `run_many(1, seeds)`
/// numbers exactly.
pub fn run_grid(
    specs: &[FlowSpec],
    xs: &[u64],
    profile: &RunProfile,
    scheme_fn: impl Fn(u64) -> Vec<Scheme>,
) -> Grid {
    let labels: Vec<String> = scheme_fn(xs[0]).iter().map(|s| s.label.clone()).collect();
    // Flatten the grid into campaign points, x-major.
    let mut points = Vec::with_capacity(xs.len() * labels.len());
    for &x in xs {
        let schemes = scheme_fn(x);
        assert_eq!(schemes.len(), labels.len(), "scheme set changed across x");
        for scheme in &schemes {
            let mut cfg = paper_experiment(specs, scheme, scheme_buffer(scheme, x));
            apply_profile(&mut cfg, profile);
            points.push(cfg);
        }
    }
    let mut campaign = Campaign::new(&points);
    campaign.replications = profile.seeds;
    campaign.campaign_seed = 1;
    campaign.seed_mode = SeedMode::BaseOffset;
    campaign.threads = profile.threads;
    let mut results = campaign.run().into_iter();
    let mut runs: Vec<Vec<MultiRun>> = vec![Vec::new(); labels.len()];
    for _ in xs {
        for per_scheme in runs.iter_mut() {
            per_scheme.push(results.next().expect("one MultiRun per point"));
        }
    }
    Grid {
        labels,
        xs: xs.to_vec(),
        specs: specs.to_vec(),
        runs,
    }
}

/// For buffer sweeps x *is* the buffer; headroom sweeps fix the buffer
/// inside the scheme and pass it through unchanged. The scheme carries
/// an optional buffer override for that case.
fn scheme_buffer(scheme: &Scheme, x: u64) -> u64 {
    scheme.buffer_override.unwrap_or(x)
}

/// Build a [`Series`] from a grid with an x transform and metric.
fn series_from(
    grid: &Grid,
    scheme_idx: usize,
    label: &str,
    x_of: impl Fn(u64) -> f64,
    metric: impl Fn(&SimResult) -> f64,
) -> Series {
    Series {
        label: label.to_string(),
        points: grid
            .xs
            .iter()
            .zip(&grid.runs[scheme_idx])
            .map(|(&x, mr)| (x_of(x), mr.summarize(&metric)))
            .collect(),
    }
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

/// Figures 1–3 share the §3.2 grid (four schemes × buffer sweep).
pub fn section3_figures(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| section3_schemes());
    let notes = protocol_notes(profile);
    let mut figs = Vec::new();

    figs.push(Figure {
        id: "fig1".into(),
        title: "Aggregate throughput with threshold based buffer management".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "link utilization (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, mib, util_pct))
            .collect(),
        notes: notes.clone(),
    });

    figs.push(Figure {
        id: "fig2".into(),
        title: "Loss for conformant flows with threshold based buffer management".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "conformant packet loss (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, mib, conf_loss_pct(&grid.specs)))
            .collect(),
        notes: notes.clone(),
    });

    // Figure 3: throughput of the two contrasting non-conformant flows
    // (6: small excess on a 0.4 Mb/s floor; 8: large excess on 2 Mb/s).
    let mut series = Vec::new();
    for (i, l) in grid.labels.iter().enumerate() {
        for flow in [6u32, 8u32] {
            series.push(series_from(
                &grid,
                i,
                &format!("{l} f{flow}"),
                mib,
                move |r| r.flow_throughput_bps(FlowId(flow)) / 1e6,
            ));
        }
    }
    figs.push(Figure {
        id: "fig3".into(),
        title: "Throughput for non-conformant flows with threshold based buffer management".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "flow throughput (Mb/s)".into(),
        series,
        notes,
    });
    figs
}

/// Figures 4–6 share the §3.3 grid (sharing schemes, H = 2 MB).
pub fn sharing_figures(profile: &RunProfile) -> Vec<Figure> {
    let specs = qbm_traffic::table1();
    let h = default_headroom();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| sharing_schemes(h));
    let mut notes = protocol_notes(profile);
    notes.push("headroom H = 2 MiB (paper's §3.3 setting)".into());
    let mut figs = Vec::new();

    figs.push(Figure {
        id: "fig4".into(),
        title: "Aggregate throughput with Buffer Sharing".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "link utilization (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, mib, util_pct))
            .collect(),
        notes: notes.clone(),
    });

    figs.push(Figure {
        id: "fig5".into(),
        title: "Loss for conformant flows in Buffer Sharing".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "conformant packet loss (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, mib, conf_loss_pct(&grid.specs)))
            .collect(),
        notes: notes.clone(),
    });

    let mut series = Vec::new();
    for (i, l) in grid.labels.iter().enumerate() {
        for flow in [6u32, 8u32] {
            series.push(series_from(
                &grid,
                i,
                &format!("{l} f{flow}"),
                mib,
                move |r| r.flow_throughput_bps(FlowId(flow)) / 1e6,
            ));
        }
    }
    figs.push(Figure {
        id: "fig6".into(),
        title: "Throughput for non-conformant flows with Buffer Sharing".into(),
        x_label: "total buffer (MiB)".into(),
        y_label: "flow throughput (Mb/s)".into(),
        series,
        notes,
    });
    figs
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
            .map(|mut s| {
                s.buffer_override = Some(b);
                s
            })
            .collect()
    });
    let mut notes = protocol_notes(profile);
    notes.push("buffer fixed at 256 KiB (see EXPERIMENTS.md on the shifted operating point); x is the headroom H".into());
    Figure {
        id: "fig7".into(),
        title: "Effect of varying the headroom in terms of loss for conformant flows".into(),
        x_label: "headroom H (KiB)".into(),
        y_label: "conformant packet loss (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, kib, conf_loss_pct(&grid.specs)))
            .collect(),
        notes,
    }
}

fn kib(x: u64) -> f64 {
    x as f64 / 1024.0
}

/// Figures 8–10 (hybrid Case 1) / 11–13 (hybrid Case 2).
pub fn hybrid_figures(profile: &RunProfile, case2: bool) -> Vec<Figure> {
    let (specs, grouping, base) = if case2 {
        (qbm_traffic::table2(), case2_grouping(), 11)
    } else {
        (qbm_traffic::table1(), case1_grouping(), 8)
    };
    let h = default_headroom();
    let grid = run_grid(&specs, &buffer_sweep(), profile, |b| {
        hybrid_schemes(&specs, &grouping, b, h)
    });
    let case = if case2 { "Case 2" } else { "Case 1" };
    let mut notes = protocol_notes(profile);
    notes.push(format!(
        "3-queue hybrid, Prop-3 rate split, per-queue thresholds σj + ρj·Bi/Ri ({case})"
    ));
    let mut figs = Vec::new();

    figs.push(Figure {
        id: format!("fig{base}"),
        title: format!("Hybrid System, {case}: Aggregate throughput with Buffer Sharing"),
        x_label: "total buffer (MiB)".into(),
        y_label: "link utilization (%)".into(),
        series: grid
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| series_from(&grid, i, l, mib, util_pct))
            .collect(),
        notes: notes.clone(),
    });

    // Loss figure: Case 1 tracks conformant flows; Case 2 additionally
    // tracks the moderately non-conformant class (the paper's Fig. 12).
    let mut series: Vec<Series> = grid
        .labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            series_from(
                &grid,
                i,
                &format!("{l} conf"),
                mib,
                conf_loss_pct(&grid.specs),
            )
        })
        .collect();
    if case2 {
        for (i, l) in grid.labels.iter().enumerate() {
            let specs_m = grid.specs.clone();
            series.push(series_from(&grid, i, &format!("{l} mod"), mib, move |r| {
                r.class_loss_ratio(&specs_m, Conformance::ModeratelyNonConformant) * 100.0
            }));
        }
    }
    figs.push(Figure {
        id: format!("fig{}", base + 1),
        title: format!(
            "Hybrid System, {case}: Loss for conformant{} flows with Buffer Sharing",
            if case2 {
                " and moderately conformant"
            } else {
                ""
            }
        ),
        x_label: "total buffer (MiB)".into(),
        y_label: "packet loss (%)".into(),
        series,
        notes: notes.clone(),
    });

    // Non-conformant throughput: Case 1 tracks flows 6 and 8; Case 2
    // the aggressive class aggregate.
    let mut series = Vec::new();
    for (i, l) in grid.labels.iter().enumerate() {
        if case2 {
            let specs_a = grid.specs.clone();
            series.push(series_from(&grid, i, &format!("{l} aggr"), mib, move |r| {
                r.class_throughput_bps(&specs_a, Conformance::Aggressive) / 1e6
            }));
        } else {
            for flow in [6u32, 8u32] {
                series.push(series_from(
                    &grid,
                    i,
                    &format!("{l} f{flow}"),
                    mib,
                    move |r| r.flow_throughput_bps(FlowId(flow)) / 1e6,
                ));
            }
        }
    }
    figs.push(Figure {
        id: format!("fig{}", base + 2),
        title: format!(
            "Hybrid System, {case}: Throughput for non-conformant flows with Buffer Sharing"
        ),
        x_label: "total buffer (MiB)".into(),
        y_label: "throughput (Mb/s)".into(),
        series,
        notes,
    });
    figs
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
            match s.class {
                Conformance::Conformant => "conformant",
                Conformance::ModeratelyNonConformant => "moderate",
                Conformance::Aggressive => "aggressive",
            },
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
    let fifo = Series {
        label: "fifo 1/(1-u)".into(),
        points: us
            .iter()
            .map(|&u| {
                (
                    u,
                    qbm_sim::experiment::summarize_samples(&[
                        qbm_core::admission::buffer_inflation(u),
                    ]),
                )
            })
            .collect(),
    };
    let wfq = Series {
        label: "wfq (=1)".into(),
        points: us
            .iter()
            .map(|&u| (u, qbm_sim::experiment::summarize_samples(&[1.0])))
            .collect(),
    };
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
            .map(|iv| {
                (
                    iv.i as f64,
                    qbm_sim::experiment::summarize_samples(&[f(iv)]),
                )
            })
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
            Scheme {
                label: "scale-up (paper)".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::Threshold),
                buffer_override: None,
            },
            Scheme {
                label: "raw thresholds".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::ExplicitThreshold {
                    thresholds: no_scale,
                },
                buffer_override: None,
            },
        ]
    });
    let notes = vec![
        "footnote 5: when Σ(σi + ρiB/R) < B, scale thresholds to tile the buffer".into(),
        "without scale-up, large buffers go unused and utilization plateaus".into(),
    ];
    vec![
        Figure {
            id: "ablate-scaleup-util".into(),
            title: "Ablation: threshold scale-up — link utilization".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "link utilization (%)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| series_from(&grid, i, l, mib, util_pct))
                .collect(),
            notes: notes.clone(),
        },
        Figure {
            id: "ablate-scaleup-loss".into(),
            title: "Ablation: threshold scale-up — conformant loss".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "conformant packet loss (%)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| series_from(&grid, i, l, mib, conf_loss_pct(&grid.specs)))
                .collect(),
            notes,
        },
    ]
}

/// Ablation: number of hybrid queues k (Table 2 workload, DP grouping).
pub fn ablate_queues(profile: &RunProfile) -> Figure {
    let specs = qbm_traffic::table2();
    let b = ByteSize::from_mib_f64(1.5).bytes();
    let h = ByteSize::from_kib(512).bytes();
    let ks: Vec<u64> = (1..=5).collect();
    let mut series = vec![
        Series {
            label: "conf loss (%)".into(),
            points: Vec::new(),
        },
        Series {
            label: "util (%)".into(),
            points: Vec::new(),
        },
        Series {
            label: "B_hyb analytic (MiB)".into(),
            points: Vec::new(),
        },
    ];
    for &k in &ks {
        let grouping = Grouping::optimize_contiguous(&specs, k as usize);
        let scheme = hybrid_schemes(&specs, &grouping, b, h)
            .into_iter()
            .find(|s| s.label.starts_with("hybrid"))
            .unwrap();
        let mut cfg = paper_experiment(&specs, &scheme, b);
        apply_profile(&mut cfg, profile);
        let mr = cfg.run_many_threaded(1, profile.seeds, profile.threads);
        series[0].points.push((
            k as f64,
            mr.summarize(|r| r.class_loss_ratio(&specs, Conformance::Conformant) * 100.0),
        ));
        series[1].points.push((k as f64, mr.summarize(util_pct)));
        let b_hyb = hybrid_buffer_eq19(LINK_RATE.bps() as f64, &grouping.profiles(&specs));
        series[2].points.push((
            k as f64,
            qbm_sim::experiment::summarize_samples(&[b_hyb / (1u64 << 20) as f64]),
        ));
    }
    let mut notes = protocol_notes(profile);
    notes.push("B = 1.5 MiB, H = 512 KiB; grouping via σ/ρ-sorted DP".into());
    Figure {
        id: "ablate-queues".into(),
        title: "Ablation: number of hybrid queues k (Table 2)".into(),
        x_label: "queues k".into(),
        y_label: "mixed (see series labels)".into(),
        series,
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
            Scheme {
                label: "sharing (all)".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes: h }),
                buffer_override: None,
            },
            Scheme {
                label: "adaptive-only".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::AdaptiveSharing { headroom_bytes: h }),
                buffer_override: None,
            },
        ]
    });
    let notes = vec![
        "§5 future work: only adaptive-marked flows (the conformant set in Table 1) may \
         borrow shared buffers; aggressive flows are held to their reserved shares"
            .into(),
    ];
    vec![
        Figure {
            id: "ablate-adaptive-loss".into(),
            title: "Ablation: adaptive-only sharing — conformant loss".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "conformant packet loss (%)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| series_from(&grid, i, l, mib, conf_loss_pct(&grid.specs)))
                .collect(),
            notes: notes.clone(),
        },
        Figure {
            id: "ablate-adaptive-aggr".into(),
            title: "Ablation: adaptive-only sharing — aggressive-class throughput".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "aggressive throughput (Mb/s)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let specs_a = grid.specs.clone();
                    series_from(&grid, i, l, mib, move |r| {
                        r.class_throughput_bps(&specs_a, Conformance::Aggressive) / 1e6
                    })
                })
                .collect(),
            notes,
        },
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
    let grid = run_grid(&specs, &buffer_sweep(), profile, |_| {
        vec![
            Scheme {
                label: "fifo+thresh".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::Threshold),
                buffer_override: None,
            },
            Scheme {
                label: "fifo+dyn-thresh".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::DynamicThreshold {
                    alpha_num: 1,
                    alpha_den: 1,
                }),
                buffer_override: None,
            },
            Scheme {
                label: "fifo+red".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::Red { seed: 42 }),
                buffer_override: None,
            },
            Scheme {
                label: "fifo+pbs".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::PartialSharing {
                    threshold_permille: 800,
                }),
                buffer_override: None,
            },
            Scheme {
                label: "fifo+fred".into(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: PolicySpec::Kind(PolicyKind::Fred { seed: 42 }),
                buffer_override: None,
            },
            Scheme {
                label: "vclock+thresh".into(),
                sched: qbm_sched::SchedKind::VirtualClock,
                policy: PolicySpec::Kind(PolicyKind::Threshold),
                buffer_override: None,
            },
            Scheme {
                label: "edf+thresh".into(),
                sched: qbm_sched::SchedKind::Edf,
                policy: PolicySpec::Kind(PolicyKind::Threshold),
                buffer_override: None,
            },
            Scheme {
                label: "wf2q+thresh".into(),
                sched: qbm_sched::SchedKind::Wf2q,
                policy: PolicySpec::Kind(PolicyKind::Threshold),
                buffer_override: None,
            },
        ]
    });
    let mut notes = protocol_notes(profile);
    notes.push(
        "comparators: DT and RED carry no reservations, so they cannot protect \
         conformant flows; Virtual Clock is the cheaper timestamp scheduler"
            .into(),
    );
    vec![
        Figure {
            id: "comparators-loss".into(),
            title: "Comparator policies: loss for conformant flows (Table 1)".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "conformant packet loss (%)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| series_from(&grid, i, l, mib, conf_loss_pct(&grid.specs)))
                .collect(),
            notes: notes.clone(),
        },
        Figure {
            id: "comparators-util".into(),
            title: "Comparator policies: aggregate throughput (Table 1)".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "link utilization (%)".into(),
            series: grid
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| series_from(&grid, i, l, mib, util_pct))
                .collect(),
            notes,
        },
    ]
}

/// The §1 delay trade-off, measured: analytic FIFO/WFQ bounds next to
/// simulated mean and max delays per Table-1 flow at B = 1 MiB.
pub fn delays_text(profile: &RunProfile) -> String {
    use qbm_core::analysis::delay::{fifo_delay_bound, wfq_delay_bound};
    let specs = qbm_traffic::table1();
    let b = ByteSize::from_mib(1).bytes();
    let run = |sched: qbm_sched::SchedKind| {
        let scheme = Scheme {
            label: "x".into(),
            sched,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            buffer_override: None,
        };
        let mut cfg = paper_experiment(&specs, &scheme, b);
        apply_profile(&mut cfg, profile);
        cfg.run_once(1)
    };
    let fifo = run(qbm_sched::SchedKind::Fifo);
    let wfq = run(qbm_sched::SchedKind::Wfq);
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
    let mut grids = Vec::new();
    for (label, soj) in [
        ("exponential", Sojourns::Exponential),
        ("pareto a=1.5", Sojourns::Pareto { shape: 1.5 }),
    ] {
        let scheme = Scheme {
            label: label.into(),
            sched: qbm_sched::SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            buffer_override: None,
        };
        let mut runs = Vec::new();
        for &b in &buffer_sweep() {
            let mut cfg = paper_experiment(&specs, &scheme, b);
            apply_profile(&mut cfg, profile);
            cfg.sojourns = soj;
            runs.push(cfg.run_many_threaded(1, profile.seeds, profile.threads));
        }
        grids.push((label.to_string(), runs));
    }
    let xs = buffer_sweep();
    let mk = |metric: &dyn Fn(&SimResult) -> f64| -> Vec<Series> {
        grids
            .iter()
            .map(|(label, runs)| Series {
                label: label.clone(),
                points: xs
                    .iter()
                    .zip(runs)
                    .map(|(&x, mr)| (mib(x), mr.summarize(metric)))
                    .collect(),
            })
            .collect()
    };
    let mut notes = protocol_notes(profile);
    notes.push(
        "same Table-1 moments; Pareto sojourns (infinite variance) stress the \
         thresholds with much larger worst-case bursts"
            .into(),
    );
    let specs_l = specs.clone();
    vec![
        Figure {
            id: "ablate-burstiness-loss".into(),
            title: "Ablation: heavy-tailed bursts — conformant loss (FIFO+thresholds)".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "conformant packet loss (%)".into(),
            series: mk(&|r| r.class_loss_ratio(&specs_l, Conformance::Conformant) * 100.0),
            notes: notes.clone(),
        },
        Figure {
            id: "ablate-burstiness-util".into(),
            title: "Ablation: heavy-tailed bursts — utilization (FIFO+thresholds)".into(),
            x_label: "total buffer (MiB)".into(),
            y_label: "link utilization (%)".into(),
            series: mk(&util_pct),
            notes,
        },
    ]
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
            match s.class {
                Conformance::Conformant => "conformant",
                Conformance::ModeratelyNonConformant => "moderate",
                Conformance::Aggressive => "aggressive",
            },
        ));
    }
    out.push_str("# conformant rows must show 0.00 loss at both hops (composition).\n");
    out
}

/// Scalability ablation: the same 68 %-reserved mix split across
/// 9·k flows (k = 1..32), FIFO+thresholds at B = 2 MiB. The paper's
/// whole pitch is that per-flow state stays O(1) as sessions multiply:
/// conformant protection must survive the split and wall-clock cost
/// must grow only with packet volume, not flow count.
pub fn ablate_scale(profile: &RunProfile) -> Figure {
    let b = ByteSize::from_mib(2).bytes();
    let mut series = vec![
        Series {
            label: "conf loss (%)".into(),
            points: Vec::new(),
        },
        Series {
            label: "util (%)".into(),
            points: Vec::new(),
        },
        Series {
            label: "runtime (ms/sim-s)".into(),
            points: Vec::new(),
        },
    ];
    for k in [1u32, 2, 4, 8, 16, 32] {
        let specs = qbm_traffic::table1_scaled(k);
        let scheme = Scheme {
            label: "fifo+thresh".into(),
            sched: qbm_sched::SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            buffer_override: None,
        };
        let mut cfg = paper_experiment(&specs, &scheme, b);
        apply_profile(&mut cfg, profile);
        let t0 = std::time::Instant::now();
        let mr = cfg.run_many_threaded(1, profile.seeds.min(3), profile.threads);
        let wall = t0.elapsed().as_secs_f64() * 1e3
            / (profile.seeds.min(3) as f64 * profile.duration_s as f64);
        let n = specs.len() as f64;
        series[0].points.push((
            n,
            mr.summarize(|r| r.class_loss_ratio(&specs, Conformance::Conformant) * 100.0),
        ));
        series[1].points.push((n, mr.summarize(util_pct)));
        series[2]
            .points
            .push((n, qbm_sim::experiment::summarize_samples(&[wall])));
    }
    let mut notes = protocol_notes(profile);
    notes.push("same aggregate mix (68 % reserved) split across 9·k flows; B = 2 MiB".into());
    Figure {
        id: "ablate-scale".into(),
        title: "Ablation: flow-count scaling at constant load (FIFO+thresholds)".into(),
        x_label: "number of flows".into(),
        y_label: "mixed (see series labels)".into(),
        series,
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
        let s = series_from(&grid, 0, "fifo+none", mib, util_pct);
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
