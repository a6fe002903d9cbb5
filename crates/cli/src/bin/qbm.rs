//! `qbm` — run QoS scenarios from the command line.
//!
//! ```text
//! qbm run    <scenario.qbm | table1 | table2>   admission check + simulation
//! qbm report <scenario.qbm | table1 | table2>   delay/occupancy percentile report
//! qbm check  <scenario.qbm | table1 | table2>   admission check only
//! qbm plan   <scenario.qbm | table1 | table2> [k]   §4 hybrid plan (default k = 3)
//! qbm sweep  <scenario.qbm | table1 | table2>   utilization/loss over buffer sizes
//! qbm trace  <scenario.qbm | table1 | table2> [out.jsonl]   traced single-seed run
//! qbm trace-check <trace.jsonl>                 validate a trace's schema
//! ```
//!
//! Flags (anywhere on the line):
//! * `--threads N` — shard `run`/`sweep` replications across N workers
//!   (default `QBM_THREADS`, else one per core); results are identical
//!   for any N. With `--topology`, N is the fabric shard width (how
//!   many wave-mate links advance concurrently).
//! * `--topology tree|incast|subscriber-tree` — with `run`: instead of
//!   the single link, run a multi-link fabric and report per link.
//!   `tree`/`incast` are fixed small shapes carrying the scenario's
//!   flow mix (aggregation tree: 1 site → 2 APs → 6 subscribers;
//!   incast: 3 senders into 1 aggregator); `subscriber-tree` is the
//!   generated ISP hierarchy (sites → APs → heavy-tailed subscriber
//!   plans under the §4 hybrid at the core) sized by `--flows`.
//!   Byte-identical for any `--threads`. A fabric run is open loop and
//!   unprofiled: `--sources aimd` (or `sources = aimd` in the scenario
//!   file), `--probe-interval` and `--profile` are usage errors there.
//! * `--flows N` — subscriber count for `--topology subscriber-tree`
//!   (default 100; 10²–10⁶ supported).
//! * `--trace <path>` — also write a JSONL event trace of the first
//!   seed (schema: see DESIGN.md §9). Sim-time-stamped and
//!   byte-identical across thread counts.
//! * `--probe-interval <dur>` — with a trace: sample per-flow/aggregate
//!   occupancy and the sharing pools every `<dur>` of simulated time
//!   into `<path stem>.timeseries.csv` (e.g. `10ms`).
//! * `--sources spec|aimd` — source family for `run`/`report`/`sweep`:
//!   the scenario's open-loop model (default) or closed-loop AIMD
//!   windows paced at each flow's peak rate, reacting to the link's
//!   drop/departure feedback. With AIMD sources the simulation report
//!   appends per-flow window counters (final cwnd, loss events, RTO
//!   backoffs).
//! * `--profile` — print per-phase wall-clock timing and events/sec.
//! * `--stats sketch|exact|both` — percentile source for `report`
//!   (default `sketch`), and with `run`/`run --topology`: attach
//!   streaming quantile sketches and append the percentile block.
//!   With `--topology` it also attaches per-link temporal heatmaps
//!   ([`qbm_obs::HeatmapObserver`]) and renders delay/occupancy/drop
//!   sparklines per link. Per-flow sketches downgrade to
//!   aggregate-only above the `StatsConfig` flow-count guard (~4096;
//!   DESIGN.md §14), with a warning.

use qbm_cli::profile::Profiler;
use qbm_cli::report::{admission_report, percentile_report, simulation_report, StatsMode};
use qbm_cli::units::parse_duration;
use qbm_cli::Scenario;
use qbm_core::analysis::hybrid::{
    buffer_savings_eq17, hybrid_buffer_eq19, optimal_alphas, rate_assignment_eq16,
    single_fifo_buffer_eq13, Grouping,
};
use qbm_core::units::{ByteSize, Dur, Rate};
use qbm_obs::{verify_trace, TimeSeriesProbe, Tracer};
use qbm_sim::{SimResult, SourceSel};

/// Options shared by the subcommands, parsed from anywhere on the line.
struct Options {
    threads: usize,
    trace: Option<String>,
    probe_interval: Option<Dur>,
    profile: bool,
    topology: Option<String>,
    flows: Option<usize>,
    stats: Option<StatsMode>,
    sources: Option<SourceSel>,
}

impl Options {
    /// Sketch parameters implied by `--stats` (none for `exact`/absent).
    fn sketch_params(&self) -> Option<qbm_sim::SketchParams> {
        self.stats
            .filter(|m| *m != StatsMode::Exact)
            .map(|_| qbm_sim::SketchParams::default())
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (opts, args) = parse_flags(&raw);
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    let Some(target) = rest.first() else {
        usage();
    };
    if cmd == "trace-check" {
        trace_check(target);
        return;
    }
    let mut prof = Profiler::start();
    let mut scenario = load(target);
    if let Some(sel) = opts.sources {
        scenario.sources = sel;
    }
    prof.phase("load");
    match cmd {
        "check" => print!("{}", admission_report(&scenario)),
        "run" if opts.topology.is_some() => {
            run_topology(&scenario, &opts);
        }
        "report" => {
            let mode = opts.stats.unwrap_or(StatsMode::Sketch);
            let mut cfg = scenario.to_config();
            cfg.stats.sketches = match mode {
                StatsMode::Exact => None,
                _ => Some(qbm_sim::SketchParams::default()),
            };
            let multi = cfg.run_many_threaded(1, scenario.seeds, opts.threads);
            prof.phase("simulate");
            print!("{}", percentile_report(&multi, mode));
            if opts.profile {
                println!();
                print!("{}", prof.finish(sim_events(&multi.runs)).render());
            }
        }
        "run" => {
            print!("{}", admission_report(&scenario));
            println!();
            prof.phase("admission");
            let mut cfg = scenario.to_config();
            cfg.stats.sketches = opts.sketch_params();
            let multi = cfg.run_many_threaded(1, scenario.seeds, opts.threads);
            prof.phase("simulate");
            print!("{}", simulation_report(&scenario, &multi));
            if let Some(mode) = opts.stats {
                println!();
                print!("{}", percentile_report(&multi, mode));
            }
            let mut events = sim_events(&multi.runs);
            if let Some(path) = &opts.trace {
                events += traced_run(&scenario, path, opts.probe_interval);
                prof.phase("trace");
            }
            if opts.profile {
                println!();
                print!("{}", prof.finish(events).render());
            }
        }
        "trace" => {
            let default_out = "trace.jsonl".to_string();
            let out = opts
                .trace
                .as_ref()
                .or_else(|| rest.get(1))
                .unwrap_or(&default_out);
            let events = traced_run(&scenario, out, opts.probe_interval);
            prof.phase("trace");
            if opts.profile {
                print!("{}", prof.finish(events).render());
            }
        }
        "sweep" => sweep(&scenario, opts.threads),
        "plan" => {
            let k: usize = rest
                .get(1)
                .and_then(|a| a.parse().ok())
                .unwrap_or(3)
                .clamp(1, scenario.flows.len());
            plan(&scenario, k);
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  qbm run    <scenario.qbm|table1|table2> [--threads N] [--sources spec|aimd] [--stats sketch|exact|both] [--trace out.jsonl] [--probe-interval 10ms] [--profile]\n  qbm run    <scenario.qbm|table1|table2> --topology tree|incast|subscriber-tree [--flows N] [--threads N] [--stats sketch|exact|both] [--trace out.jsonl]\n  qbm report <scenario.qbm|table1|table2> [--threads N] [--stats sketch|exact|both]\n  qbm check  <scenario.qbm|table1|table2>\n  qbm plan   <scenario.qbm|table1|table2> [k]\n  qbm sweep  <scenario.qbm|table1|table2> [--threads N]\n  qbm trace  <scenario.qbm|table1|table2> [out.jsonl] [--probe-interval 10ms]\n  qbm trace-check <trace.jsonl>"
    );
    std::process::exit(2)
}

/// Extract the flags from `args` and return the remaining positional
/// arguments. `--threads` falls back to the `QBM_THREADS` environment
/// variable (0 = one worker per core).
fn parse_flags(args: &[String]) -> (Options, Vec<String>) {
    let mut opts = Options {
        threads: std::env::var("QBM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        trace: None,
        probe_interval: None,
        profile: false,
        topology: None,
        flows: None,
        stats: None,
        sources: None,
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => opts.threads = t,
                None => flag_error("--threads needs a numeric argument"),
            },
            "--trace" => match it.next() {
                Some(p) => opts.trace = Some(p.clone()),
                None => flag_error("--trace needs an output path"),
            },
            "--probe-interval" => match it.next().map(|v| parse_duration(v)) {
                Some(Ok(d)) if !d.is_zero() => opts.probe_interval = Some(d),
                _ => flag_error("--probe-interval needs a nonzero duration (e.g. 10ms)"),
            },
            "--profile" => opts.profile = true,
            "--topology" => match it.next() {
                Some(t) if t == "tree" || t == "incast" || t == "subscriber-tree" => {
                    opts.topology = Some(t.clone())
                }
                _ => flag_error("--topology needs `tree`, `incast` or `subscriber-tree`"),
            },
            "--flows" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.flows = Some(n),
                _ => flag_error("--flows needs a positive subscriber count"),
            },
            "--sources" => match it.next().map(String::as_str) {
                Some("spec") => opts.sources = Some(SourceSel::Spec),
                Some("aimd") => opts.sources = Some(SourceSel::Aimd),
                _ => flag_error("--sources needs `spec` or `aimd`"),
            },
            "--stats" => match it.next().map(String::as_str) {
                Some("sketch") => opts.stats = Some(StatsMode::Sketch),
                Some("exact") => opts.stats = Some(StatsMode::Exact),
                Some("both") => opts.stats = Some(StatsMode::Both),
                _ => flag_error("--stats needs `sketch`, `exact` or `both`"),
            },
            _ => rest.push(arg.clone()),
        }
    }
    (opts, rest)
}

fn flag_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Events processed across `runs`: in-window arrivals plus departures
/// (drops are part of arrivals).
fn sim_events(runs: &[SimResult]) -> u64 {
    runs.iter()
        .flat_map(|r| r.flows.iter())
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum()
}

/// Re-run the scenario's first seed with a tracer (and optionally a
/// time-series probe) attached, and write the artifacts. Returns the
/// re-run's [`sim_events`].
fn traced_run(s: &Scenario, trace_path: &str, probe_interval: Option<Dur>) -> u64 {
    // Seed 1 = the first replication of `run`'s protocol
    // (`run_many_threaded(1, …)` uses seeds 1..=seeds).
    let seed = 1;
    // A disabled probe's first tick sits at u64::MAX ns — never reached.
    let interval = probe_interval.unwrap_or(Dur(u64::MAX));
    let mut obs = (Tracer::default(), TimeSeriesProbe::new(interval));
    let res = s.to_config().run_once_with(seed, &mut obs);
    let (tracer, probe) = obs;
    write_or_die(trace_path, &tracer.to_jsonl());
    println!(
        "trace: {trace_path} ({} records, {} truncated, seed {seed})",
        tracer.len(),
        tracer.truncated()
    );
    if probe_interval.is_some() {
        let csv_path = format!("{}.timeseries.csv", trace_path.trim_end_matches(".jsonl"));
        write_or_die(&csv_path, &probe.to_csv());
        println!("probe: {csv_path} ({} samples)", probe.samples().len());
        if probe.truncated() {
            eprintln!(
                "warning: probe buffer full — dropped {} samples past the cap; \
                 widen --probe-interval to cover the horizon",
                probe.dropped()
            );
        }
    }
    sim_events(std::slice::from_ref(&res))
}

/// Run the scenario's flow mix through a multi-link fabric and report
/// per link. The shapes are fixed small topologies (see the module
/// docs); every origin link carries one seeded copy of the mix, so the
/// fabric scales the paper's single-link experiment out to several
/// multiplexing points. Results are byte-identical for any
/// `--threads` value.
///
/// AIMD sources, the time-series probe and the self-profile have no
/// fabric path: asking for one is a usage error naming the input.
fn run_topology(s: &Scenario, opts: &Options) {
    use qbm_cli::report::{fmt_bytes, fmt_ns, heatmap_sparkline};
    use qbm_obs::HeatmapObserver;
    use qbm_sim::scenarios::{
        aggregation_tree, incast_fanin, subscriber_tree, LinkProfile, SubscriberTreeShape,
    };
    let unsupported = [
        (opts.sources == Some(SourceSel::Aimd), "--sources aimd"),
        (s.sources == SourceSel::Aimd, "scenario `sources = aimd`"),
        (opts.probe_interval.is_some(), "--probe-interval"),
        (opts.profile, "--profile"),
    ];
    if let Some((_, input)) = unsupported.iter().find(|(set, _)| *set) {
        flag_error(&format!("{input} is not supported with --topology"));
    }
    let seed = 1;
    let sketching = opts.sketch_params().is_some();
    let profile = LinkProfile {
        buffer_bytes: s.buffer_bytes,
        sched: s.sched.clone(),
        policy: qbm_sim::PolicySpec::Kind(s.policy),
        stats: qbm_sim::StatsConfig {
            sketches: opts.sketch_params(),
        },
    };
    let kind = opts.topology.as_deref().unwrap_or("tree");
    // How many leading links get their own report row — subscriber
    // trees summarize their AP relays in one aggregate row.
    let mut detail_links = usize::MAX;
    let (fabric, labels): (_, Vec<String>) = match kind {
        "tree" => {
            let (aps, subs) = (2usize, 3usize);
            // Upstream links sized to carry their fan-out losslessly:
            // the per-subscriber experiment happens at the subscriber
            // links.
            let rates = [
                Rate::from_bps(s.link.bps() * (aps * subs) as u64),
                Rate::from_bps(s.link.bps() * subs as u64),
                s.link,
            ];
            let mut labels = vec!["site".to_string()];
            labels.extend((0..aps).map(|a| format!("ap{a}")));
            labels.extend((0..aps * subs).map(|d| format!("sub{d}")));
            (
                aggregation_tree(aps, subs, &s.flows, rates, &profile, seed),
                labels,
            )
        }
        "subscriber-tree" => {
            let shape = SubscriberTreeShape::for_flows(opts.flows.unwrap_or(100));
            if profile.stats.per_flow_downgraded(shape.flows()) {
                eprintln!(
                    "warning: {} flows exceed the per-flow sketch limit ({}); \
                     downgrading to aggregate-only sketches (DESIGN.md §14)",
                    shape.flows(),
                    qbm_sim::stats::PER_FLOW_SKETCH_LIMIT
                );
            }
            detail_links = 1 + shape.sites;
            let mut labels = vec!["core".to_string()];
            labels.extend((0..shape.sites).map(|i| format!("site{i}")));
            for site in 0..shape.sites {
                for a in 0..shape.aps_per_site {
                    labels.push(format!("s{site}ap{a}"));
                }
            }
            (subscriber_tree(shape, &profile, seed), labels)
        }
        _ => {
            let senders = 3usize;
            let mut labels: Vec<String> = (0..senders).map(|i| format!("sender{i}")).collect();
            labels.push("aggregator".to_string());
            (
                incast_fanin(senders, &s.flows, s.link, s.link, &profile, seed),
                labels,
            )
        }
    };
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    };
    let warmup = qbm_core::units::Time::ZERO + s.warmup;
    let end = warmup + s.duration;

    // Four observer shapes: tracing and heatmapping attach per link
    // through `run_observed` and both merge byte-identically at any
    // shard width.
    let n_links = fabric.n_links();
    let print_trace = |tracers: &[Tracer], path: &str| {
        write_or_die(path, &Tracer::merged_links_jsonl(tracers));
        let records: usize = tracers.iter().map(Tracer::len).sum();
        println!(
            "trace: {path} ({records} records across {} links, seed {seed})\n",
            tracers.len()
        );
    };
    let (res, heatmaps): (_, Option<Vec<HeatmapObserver>>) = match (&opts.trace, sketching) {
        (Some(path), true) => {
            let mut obs = vec![(Tracer::default(), HeatmapObserver::default()); n_links];
            let res = fabric.run_observed(seed, warmup, end, threads, &mut obs);
            let (tracers, heat): (Vec<_>, Vec<_>) = obs.into_iter().unzip();
            print_trace(&tracers, path);
            (res, Some(heat))
        }
        (Some(path), false) => {
            let mut tracers = vec![Tracer::default(); n_links];
            let res = fabric.run_observed(seed, warmup, end, threads, &mut tracers);
            print_trace(&tracers, path);
            (res, None)
        }
        (None, true) => {
            let mut heat = vec![HeatmapObserver::default(); n_links];
            let res = fabric.run_observed(seed, warmup, end, threads, &mut heat);
            (res, Some(heat))
        }
        (None, false) => (fabric.run(seed, warmup, end, threads), None),
    };

    println!(
        "{kind} fabric: {} links, {threads} shard threads\n",
        res.len()
    );
    println!(
        "{:>12} {:>7} {:>10} {:>10} {:>9}{}",
        "link",
        "flows",
        "Mb/s",
        "drops",
        "loss%",
        if sketching {
            format!(" {:>10} {:>10}", "p50 delay", "p99 delay")
        } else {
            String::new()
        }
    );
    let row_stats = |r: &qbm_sim::SimResult| {
        let thr: f64 = (0..r.flows.len())
            .map(|f| r.flow_throughput_bps(qbm_core::flow::FlowId(f as u32)))
            .sum::<f64>()
            / 1e6;
        let offered: u64 = r.flows.iter().map(|f| f.offered_pkts).sum();
        let dropped: u64 = r.flows.iter().map(|f| f.dropped_pkts).sum();
        (r.flows.len(), thr, offered, dropped)
    };
    for (i, r) in res.iter().enumerate().take(detail_links) {
        let (flows, thr, offered, dropped) = row_stats(r);
        let percentiles = match r.delay_sketch.as_ref() {
            Some(d) if sketching => format!(
                " {:>10} {:>10}",
                format!("{:.3}ms", d.quantile(0.50) as f64 / 1e6),
                format!("{:.3}ms", d.quantile(0.99) as f64 / 1e6),
            ),
            _ => String::new(),
        };
        println!(
            "{:>12} {:>7} {:>10.2} {:>10} {:>9.3}{percentiles}",
            labels[i],
            flows,
            thr,
            dropped,
            100.0 * dropped as f64 / offered.max(1) as f64
        );
    }
    if detail_links < res.len() {
        // One aggregate row for the AP relay tier.
        let (mut flows, mut thr, mut offered, mut dropped) = (0usize, 0f64, 0u64, 0u64);
        for r in &res[detail_links..] {
            let (f, t, o, d) = row_stats(r);
            flows += f;
            thr += t;
            offered += o;
            dropped += d;
        }
        println!(
            "{:>12} {:>7} {:>10.2} {:>10} {:>9.3}",
            format!("aps×{}", res.len() - detail_links),
            flows,
            thr,
            dropped,
            100.0 * dropped as f64 / offered.max(1) as f64
        );
    }

    if let Some(heat) = &heatmaps {
        let shown = detail_links.min(heat.len());
        type Pick = for<'a> fn(&'a HeatmapObserver) -> &'a qbm_obs::TemporalHeatmap;
        for (title, pick, q, fmt) in [
            (
                "delay heatmap (p99 sojourn per slot, tier 0)",
                (|h| &h.delay) as Pick,
                0.99,
                fmt_ns as fn(u64) -> String,
            ),
            (
                "occupancy heatmap (p99 buffer bytes per slot, tier 0)",
                |h: &HeatmapObserver| &h.occupancy,
                0.99,
                fmt_bytes,
            ),
            (
                "drop heatmap (p99 dropped-packet bytes per slot, tier 0)",
                |h: &HeatmapObserver| &h.drops,
                0.99,
                fmt_bytes,
            ),
        ] {
            let rows: Vec<(usize, String)> = heat
                .iter()
                .take(shown)
                .enumerate()
                .filter_map(|(i, h)| heatmap_sparkline(pick(h), q, fmt).map(|l| (i, l)))
                .collect();
            if rows.is_empty() {
                continue;
            }
            println!("\n{title}:");
            for (i, line) in rows {
                println!("{:>12}  {line}", labels[i]);
            }
        }
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(1);
    }
}

/// Validate a trace file against the JSONL schema; exit 1 on failure
/// (the CI gate).
fn trace_check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(1);
    });
    match verify_trace(&text) {
        Ok(sum) => {
            println!(
                "{path}: ok — {} records (arr {} | enq {} | drop {} | dep {} | thr {} | share {} | fb {}), {} truncated",
                sum.records,
                sum.arrivals,
                sum.enqueues,
                sum.drops,
                sum.departures,
                sum.crossings,
                sum.sharing,
                sum.feedback,
                sum.truncated
            );
        }
        Err(e) => {
            eprintln!("{path}: schema check FAILED — {e}");
            std::process::exit(1);
        }
    }
}

/// Sweep the buffer from half to 4x the scenario's size: the fastest
/// way to see where the configuration sits on the paper's
/// buffer/utilization trade-off curve.
fn sweep(s: &Scenario, threads: usize) {
    use qbm_core::flow::Conformance;
    println!(
        "{:>12} {:>10} {:>12} {:>12}",
        "buffer", "util %", "conf loss %", "agg Mb/s"
    );
    for mult in [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0] {
        let mut cfg = s.to_config();
        cfg.buffer_bytes = (s.buffer_bytes as f64 * mult).round() as u64;
        let multi = cfg.run_many_threaded(1, s.seeds, threads);
        let util = multi.summarize(|r| r.aggregate_throughput_bps() / s.link.bps() as f64 * 100.0);
        let loss =
            multi.summarize(|r| r.class_loss_ratio(&s.flows, Conformance::Conformant) * 100.0);
        let agg = multi.summarize(|r| r.aggregate_throughput_bps() / 1e6);
        println!(
            "{:>12} {:>10.2} {:>12.3} {:>12.2}",
            format!("{}", ByteSize::from_bytes(cfg.buffer_bytes)),
            util.mean,
            loss.mean,
            agg.mean
        );
    }
}

fn load(target: &str) -> Scenario {
    match target {
        // Built-in paper workloads on the paper's link.
        "table1" | "table2" => {
            let flows = if target == "table1" {
                qbm_traffic::table1()
            } else {
                qbm_traffic::table2()
            };
            Scenario {
                link: Rate::from_mbps(48.0),
                buffer_bytes: ByteSize::from_mib(1).bytes(),
                sched: qbm_sched::SchedKind::Fifo,
                policy: qbm_core::policy::PolicyKind::Threshold,
                duration: Dur::from_secs(22),
                warmup: Dur::from_secs(2),
                seeds: 5,
                sources: SourceSel::Spec,
                flows,
            }
        }
        path => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read `{path}`: {e}");
                std::process::exit(2);
            });
            Scenario::parse(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            })
        }
    }
}

fn plan(s: &Scenario, k: usize) {
    let r = s.link.bps() as f64;
    let grouping = Grouping::optimize_contiguous(&s.flows, k);
    let groups = grouping.profiles(&s.flows);
    let alphas = optimal_alphas(&groups);
    let rho: f64 = groups.iter().map(|g| g.rho_bps).sum();
    if rho >= r {
        eprintln!("mix oversubscribes the link (Σρ ≥ R) — no feasible plan");
        std::process::exit(1);
    }
    let rates = rate_assignment_eq16(r, &groups, &alphas);
    let sigma: f64 = groups.iter().map(|g| g.sigma_bytes).sum();
    println!(
        "hybrid plan, k = {k} (σ/ρ-sorted DP grouping over {} flows)\n",
        s.flows.len()
    );
    println!(
        "{:>6} {:>7} {:>8} {:>11} {:>11}",
        "queue", "flows", "alpha", "rho Mb/s", "R_i Mb/s"
    );
    for (q, g) in groups.iter().enumerate() {
        println!(
            "{:>6} {:>7} {:>8.4} {:>11.2} {:>11.2}",
            q,
            g.n_flows,
            alphas[q],
            g.rho_bps / 1e6,
            rates[q] / 1e6
        );
    }
    println!(
        "\nB_single-FIFO = {} | B_hybrid = {} | saved = {} (Eq. 17)",
        ByteSize::from_bytes(single_fifo_buffer_eq13(r, sigma, rho).ceil() as u64),
        ByteSize::from_bytes(hybrid_buffer_eq19(r, &groups).ceil() as u64),
        ByteSize::from_bytes(buffer_savings_eq17(r, &groups).round() as u64),
    );
    println!("queue membership: {:?}", grouping.members());
}
