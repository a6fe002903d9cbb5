//! The traced run: the timed run's simulated work rebuilt from the
//! simulator's public pieces, with timing wrappers around every link's
//! buffer policy and scheduler and a [`Probe`] on every link, plus
//! standalone replays and construction timings for the layers no
//! wrapper reaches. Every traced simulation must equal its untraced twin
//! exactly — the proof that the wrappers are transparent. Spans and
//! counts stay in memory and are printed when the run ends.
//!
//! Accounting, all host time on one thread:
//! * `U` is the untraced wall of the same work;
//! * policy and scheduler time are the traced run's call counts times
//!   nanoseconds per call from replaying one link's captured call
//!   stream standalone (a clock read costs about as much as one call, so
//!   in-situ spans only serve a scheduler kind no replay covers, net of
//!   their clock reads, see [`TimerCost`]);
//! * source and statistics time are standalone nanoseconds per
//!   operation times the traced run's operation counts;
//! * `sim.router.self_ns_per_event` = (`U` − those four) ÷ events;
//! * `trace.unattributed_share` = 1 − (`U` + clock-read cost) ÷ traced
//!   wall: what neither the program nor the timers explain (observer
//!   hooks, calibration error).

use crate::layers::{
    calibrate_timer, digest, pull_sources, pull_with_acks, replay_policy, replay_sched,
    replay_sketch, replay_stats, Probe, SpanSink, SpanTotals, TimedPolicy, TimedSched, TimerCost,
};
use crate::report::{check, median, proc_status_bytes, quantile, timed, Metrics, Tally};
use crate::workloads::{
    admit_ratio, cell_router, cell_sources, cells, count_events, incast_aimd, incast_specs,
    paper_grid, paper_point, run_campaign, IncastParams, PaperParams, Size, TreeParams, Workload,
};
use qbm_core::analysis::hybrid::Grouping;
use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::{BufferPolicy, FixedThreshold, PolicyKind, ThresholdOptions};
use qbm_core::units::{ByteSize, Dur, Rate, Time};
use qbm_obs::SketchParams;
use qbm_sched::{Fifo, SchedKind, Scheduler};
use qbm_sim::experiment::derive_cell_seed;
use qbm_sim::fabric::DEFAULT_EPOCH;
use qbm_sim::scenarios::{
    case1_grouping, case2_grouping, plan_hybrid, plan_hybrid_at, subscriber_plans, LinkProfile,
    SubscriberTreeShape, CLOSED_LOOP_EPOCH,
};
use qbm_sim::{Fabric, PolicySpec, Router, SimArena, SimResult, StatsConfig};
use qbm_traffic::{build_source_kind, table1, table2, AimdSource, SourceKind, TraceSource};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;

/// Admission/departure records captured on the replayed link.
const CAPTURE_RECORDS: usize = 1 << 20;
/// Policy and scheduler calls captured on the replayed link.
const CAPTURE_CALLS: usize = 1 << 19;
/// Alternating repetitions behind each wall-time comparison.
const PAIRS: usize = 3;
/// The second epoch of the paper cell's one-link fabric.
const PAPER_SHORT_EPOCH: Dur = Dur::from_micros(100);

type TracedRouter = Router<TimedPolicy<Box<dyn BufferPolicy>>, TimedSched<Box<dyn Scheduler>>>;
type TracedFabric = Fabric<TimedPolicy<Box<dyn BufferPolicy>>, TimedSched<Box<dyn Scheduler>>>;

/// Traced run of `w`: its per-layer metrics and the checks' tally.
pub fn run_traced(w: Workload, size: Size, seed: u64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let timer = calibrate_timer();
    let m = match w {
        Workload::PaperCampaign => trace_paper(&PaperParams::new(size), seed, timer, &mut tally),
        Workload::IspTree => trace_tree(&TreeParams::new(size), seed, timer, &mut tally),
        Workload::IncastClosedLoop => {
            trace_incast(&IncastParams::new(size), seed, timer, &mut tally)
        }
    };
    (tally, m)
}

/// Number of epochs a fabric runs to reach `end`.
fn epochs(end: Time, epoch: Dur) -> u64 {
    end.as_nanos().div_ceil(epoch.as_nanos())
}

/// Resident bytes added between two `VmRSS` readings.
fn rss_delta(before: Option<f64>, after: Option<f64>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) => a - b,
        _ => f64::NAN,
    }
}

/// The router's self time and the trace overhead (see the module
/// docs). Runs after [`call_metrics`], whose per-call costs it uses.
#[allow(clippy::too_many_arguments)]
fn ledger(
    m: &mut Metrics,
    timer: TimerCost,
    totals: &SpanTotals,
    untraced_s: f64,
    traced_s: f64,
    events: u64,
    source_ns: f64,
    stats_ns: f64,
) {
    let (policy, sched) = (totals.policy, totals.sched_all());
    let per_call = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let policy_ns = per_call("core.policy.ns_per_call") * policy.calls as f64;
    let sched_ns: f64 = totals
        .sched
        .iter()
        .map(|&(label, s)| match label {
            "fifo" => per_call("sched.ns_per_op.fifo") * s.calls as f64,
            "wfq" => per_call("sched.ns_per_op.wfq") * s.calls as f64,
            _ => timer.net_ns(s),
        })
        .sum();
    eprintln!(
        "spans: policy {policy:?}, scheduler {:?}; timer {timer:?}; untraced {untraced_s:.6} s, traced {traced_s:.6} s",
        totals.sched
    );
    let untraced_ns = untraced_s * 1e9;
    m.set("core.policy.calls", policy.calls as f64);
    m.set("sim.events", events as f64);
    m.set(
        "sim.router.self_ns_per_event",
        (untraced_ns - policy_ns - sched_ns - source_ns - stats_ns) / events as f64,
    );
    m.set("trace.overhead_ratio", traced_s / untraced_s);
    let clock_ns = timer.overhead_ns(policy) + timer.overhead_ns(sched);
    m.set(
        "trace.unattributed_share",
        1.0 - (untraced_ns + clock_ns) / (traced_s * 1e9),
    );
}

/// Call counts, and nanoseconds per call from the captured link's call
/// streams replayed standalone: into a fresh copy of its `policy`, and
/// into FIFO and per-flow WFQ for a `rate` link carrying `specs`.
fn call_metrics(
    m: &mut Metrics,
    totals: &SpanTotals,
    policy: Box<dyn BufferPolicy>,
    rate: Rate,
    specs: &[FlowSpec],
) {
    m.set("sched.ops", totals.sched_all().calls as f64);
    m.set("sched.backlog_pkts_max", totals.backlog_max as f64);
    let (calls, ns) = replay_policy(&totals.policy_ops, policy);
    m.set("core.policy.ns_per_call", ns as f64 / calls as f64);
    for (name, kind) in [
        ("sched.ns_per_op.fifo", SchedKind::Fifo),
        ("sched.ns_per_op.wfq", SchedKind::Wfq),
    ] {
        let (ops, ns) = replay_sched(&totals.sched_ops, kind.build(rate, specs));
        m.set(name, ns as f64 / ops as f64);
    }
}

/// Statistics and sketch replays of `probe`'s captured stream. When the
/// capture is complete, the replayed statistics must equal `link`'s.
/// Returns nanoseconds per statistics record.
#[allow(clippy::too_many_arguments)]
fn replay_metrics(
    m: &mut Metrics,
    tally: &mut Tally,
    probe: &Probe,
    warmup: Time,
    end: Time,
    seed: u64,
    cfg: StatsConfig,
    link: &SimResult,
) -> f64 {
    let (replayed, ns) = replay_stats(&probe.records, link.flows.len(), warmup, end, seed, cfg);
    if !probe.truncated {
        tally.attempt("statistics replay reproduces the captured link", || {
            check(
                replayed.flows == link.flows,
                "replayed statistics differ from the run's",
            )
        });
    }
    let per_record = ns as f64 / probe.records.len() as f64;
    m.set("sim.stats.ns_per_record", per_record);
    let (values, ns) = replay_sketch(&probe.records, SketchParams::default().precision_bits);
    m.set("obs.sketch.ns_per_record", ns as f64 / values as f64);
    per_record
}

/// Wall of a fifo+thresh link behind `Box<dyn>` (what `PolicyKind` and
/// `SchedKind` build) over the same link monomorphized as
/// `Router<FixedThreshold, Fifo>`: the median of alternating pairs, with
/// both results checked identical.
#[allow(clippy::too_many_arguments)]
fn dispatch_ratio(
    rate: Rate,
    buffer: u64,
    specs: &[FlowSpec],
    sources: impl Fn() -> Vec<SourceKind>,
    stats: StatsConfig,
    warmup: Time,
    end: Time,
    seed: u64,
) -> Result<f64, String> {
    let boxed = || {
        let r = Router::new(
            rate,
            PolicyKind::Threshold.build(buffer, rate, specs),
            SchedKind::Fifo.build(rate, specs),
            sources(),
        )
        .with_stats(stats);
        timed(|| r.run(warmup, end, seed))
    };
    let mono = || {
        let policy = FixedThreshold::new(buffer, rate, specs, ThresholdOptions::default());
        let r = Router::new(rate, policy, Fifo::new(), sources()).with_stats(stats);
        timed(|| r.run(warmup, end, seed))
    };
    let mut ratios = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let ((rb, wb), (rm, wm)) = if i % 2 == 0 {
            let b = boxed();
            (b, mono())
        } else {
            let m = mono();
            (boxed(), m)
        };
        check(rb == rm, "boxed and monomorphized routers disagree")?;
        ratios.push(wb / wm);
    }
    Ok(median(&ratios))
}

/// Renumber `specs` so flow ids are the link-local indices `0..n`.
fn renumber(specs: &[FlowSpec]) -> Vec<FlowSpec> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| FlowSpec {
            id: FlowId(i as u32),
            ..*s
        })
        .collect()
}

/// `n` empty replay sources: the stubs behind relay flows.
fn relay_stubs(n: usize) -> Vec<SourceKind> {
    (0..n)
        .map(|_| SourceKind::Trace(TraceSource::from_recorded(Vec::new())))
        .collect()
}

/// A fabric link built like the scenario builders build theirs, with
/// timed layers; `capture` bounds its captured policy and scheduler
/// calls.
fn traced_link(
    rate: Rate,
    specs: &[FlowSpec],
    sources: Vec<SourceKind>,
    profile: &LinkProfile,
    sink: &Arc<SpanSink>,
    capture: usize,
) -> TracedRouter {
    let policy = TimedPolicy::new(
        profile.policy.build(profile.buffer_bytes, rate, specs),
        sink,
        capture,
    );
    let sched = TimedSched::new(
        profile.sched.build(rate, specs),
        profile.sched.label(),
        sink,
        capture,
    );
    Router::new(rate, policy, sched, sources).with_stats(profile.stats)
}

// ---------------------------------------------------------------------
// paper_campaign

fn trace_paper(p: &PaperParams, seed: u64, timer: TimerCost, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let (points, build_s) = timed(|| paper_grid(p));
    m.set("sim.scenarios.build_s", build_s);
    let cells = cells(&points, p, seed);
    let (warmup, end) = (Time::ZERO + p.warmup, Time::ZERO + p.duration);

    // Construction and sources, standalone.
    let (mut sources, build_s) = timed(|| {
        cells
            .iter()
            .map(|&(i, s)| cell_sources(&points[i], s))
            .collect::<Vec<_>>()
    });
    m.set("traffic.build_s", build_s);
    let (pulled, pull_ns) = pull_sources(sources.iter_mut().flatten(), end);
    drop(sources);
    let ns_per_emission = pull_ns as f64 / pulled as f64;
    m.set("traffic.ns_per_emission", ns_per_emission);
    let (_, plan_s) = timed(|| {
        black_box(plan_hybrid(
            &table1(),
            &case1_grouping(),
            ByteSize::from_mib(1).bytes(),
        ));
        black_box(plan_hybrid(
            &table2(),
            &case2_grouping(),
            ByteSize::from_mib(2).bytes(),
        ));
    });
    m.set("core.hybrid_plan_s", plan_s);
    let flows: usize = cells.iter().map(|&(i, _)| points[i].specs.len()).sum();
    let before = proc_status_bytes("VmRSS");
    let routers: Vec<_> = cells
        .iter()
        .map(|&(i, s)| cell_router(&points[i], s))
        .collect();
    let after = proc_status_bytes("VmRSS");
    drop(routers);
    m.set(
        "sim.rss_bytes_per_flow",
        rss_delta(before, after) / flows as f64,
    );

    // Untraced: each cell serially on one arena, as a campaign worker
    // runs them, then the whole campaign at 1 and at 2 workers.
    let mut arena = SimArena::new();
    let (untraced, cell_s): (Vec<SimResult>, Vec<f64>) = cells
        .iter()
        .map(|&(i, s)| timed(|| points[i].run_once_pooled(s, &mut arena)))
        .unzip();
    let events = count_events(&untraced);
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (one, w1) = timed(|| run_campaign(&points, p, seed, 1));
        let (two, w2) = timed(|| run_campaign(&points, p, seed, p.workers));
        tally.attempt("campaign at 1 and 2 workers equals its cells", || {
            check(
                one == untraced && two == untraced,
                "campaign results differ from the cells run one by one",
            )
        });
        serial.push(w1);
        parallel.push(w2);
    }
    let (w1, w2) = (median(&serial), median(&parallel));
    let cells_s: f64 = cell_s.iter().sum();
    m.set("sim.campaign.cell_s_p50", median(&cell_s));
    m.set("sim.campaign.cell_s_p90", quantile(&cell_s, 0.9));
    m.set(
        "sim.campaign.parallel_efficiency",
        cells_s / (p.workers as f64 * w2),
    );
    m.set("sim.ns_per_event.serial", w1 * 1e9 / events as f64);
    m.set("core.policy.admit_ratio", admit_ratio(&untraced));
    // A campaign is a fabric of independent one-link cells, each run as
    // a single epoch; workers play the shard threads.
    m.set("sim.fabric.links", 1.0);
    m.set("sim.fabric.epochs", cells.len() as f64);
    m.set("sim.fabric.relay_pkts", 0.0);
    m.set("sim.fabric.busiest_link_share", 1.0);
    m.set("sim.fabric.sharded_over_serial", w1 / w2);
    m.set(
        "sim.fabric.shard_overhead_ns_per_epoch",
        (w2 - w1) * 1e9 / cells.len() as f64,
    );

    // Traced: every cell rebuilt with timed layers and a probe; the
    // Table 2 fifo+thresh cell captures its stream for the replays.
    let capture = paper_point(1, "fifo+thresh") * p.replications;
    let sink = SpanSink::new();
    let (mut traced_s, mut arrivals, mut departures, mut feedback) = (0.0, 0u64, 0u64, 0u64);
    let mut captured = None;
    for (k, &(i, s)) in cells.iter().enumerate() {
        let cfg = &points[i];
        let (mut probe, calls) = if k == capture {
            (
                Probe::capturing(cfg.specs.len(), CAPTURE_RECORDS),
                CAPTURE_CALLS,
            )
        } else {
            (Probe::default(), 0)
        };
        let policy = TimedPolicy::new(
            cfg.policy
                .build(cfg.buffer_bytes, cfg.link_rate, &cfg.specs),
            &sink,
            calls,
        );
        let sched = TimedSched::new(
            cfg.sched.build(cfg.link_rate, &cfg.specs),
            cfg.sched.label(),
            &sink,
            calls,
        );
        let router =
            Router::new(cfg.link_rate, policy, sched, cell_sources(cfg, s)).with_stats(cfg.stats);
        let (res, wall) = timed(|| router.run_with(warmup, end, s, &mut probe));
        traced_s += wall;
        tally.attempt("traced cell equals the untraced cell", || {
            check(
                res == untraced[k],
                "timing wrappers changed a cell's result",
            )
        });
        arrivals += probe.arrivals;
        departures += probe.departures;
        feedback += probe.feedback;
        if k == capture {
            captured = Some(probe);
        }
    }
    m.set("traffic.emissions", arrivals as f64);
    m.set("traffic.feedback_signals", feedback as f64);
    let totals = sink.totals();
    let cfg = &points[cells[capture].0];
    call_metrics(
        &mut m,
        &totals,
        cfg.policy
            .build(cfg.buffer_bytes, cfg.link_rate, &cfg.specs),
        cfg.link_rate,
        &cfg.specs,
    );
    let probe = captured.expect("the capture cell ran");
    let stats_per_record = replay_metrics(
        &mut m,
        tally,
        &probe,
        warmup,
        end,
        cells[capture].1,
        points[cells[capture].0].stats,
        &untraced[capture],
    );
    ledger(
        &mut m,
        timer,
        &totals,
        cells_s,
        traced_s,
        events,
        ns_per_emission * arrivals as f64,
        stats_per_record * (arrivals + departures) as f64,
    );

    // Dispatch and per-epoch cost, on the first Table 1 fifo+thresh cell.
    let k = paper_point(0, "fifo+thresh") * p.replications;
    let (i, s) = cells[k];
    let cfg = &points[i];
    if let Some(r) = tally.attempt("boxed vs monomorphized paper cell", || {
        dispatch_ratio(
            cfg.link_rate,
            cfg.buffer_bytes,
            &cfg.specs,
            || cell_sources(cfg, s),
            cfg.stats,
            warmup,
            end,
            s,
        )
    }) {
        m.set("sim.dispatch.boxed_over_mono", r);
    }
    let one_link = |epoch: Dur| {
        let mut f: Fabric = Fabric::new().with_epoch(epoch);
        f.add_link(cell_router(cfg, s));
        f
    };
    let mut per_epoch = Vec::new();
    for _ in 0..PAIRS {
        let f = one_link(DEFAULT_EPOCH);
        let (a, wa) = timed(|| f.run(s, warmup, end, 1));
        let f = one_link(PAPER_SHORT_EPOCH);
        let (b, wb) = timed(|| f.run(s, warmup, end, 1));
        tally.attempt("one-link fabric equals the cell at both epochs", || {
            check(
                a[0] == untraced[k] && b[0] == untraced[k],
                "the epoch length changed a one-link fabric",
            )
        });
        let extra = epochs(end, PAPER_SHORT_EPOCH) - epochs(end, DEFAULT_EPOCH);
        per_epoch.push((wb - wa) * 1e9 / extra as f64);
    }
    m.set("sim.fabric.ns_per_epoch", median(&per_epoch));
    m
}

// ---------------------------------------------------------------------
// Fabric workloads

/// The fabric half of a traced run, shared by `isp_tree` and
/// `incast_closed_loop`.
struct FabricCase {
    seed: u64,
    warmup: Time,
    end: Time,
    threads: usize,
    epoch: Dur,
    short_epoch: Dur,
    /// Open loop: results must not depend on the epoch length.
    epoch_invariant: bool,
    /// Links whose sources originate traffic.
    origins: Range<usize>,
    /// The link whose streams are captured and replayed.
    capture: usize,
}

/// Serial, sharded and short-epoch runs (untraced), then one traced run
/// at one thread, and the metrics they give.
#[allow(clippy::too_many_arguments)]
fn trace_fabric(
    m: &mut Metrics,
    tally: &mut Tally,
    timer: TimerCost,
    c: &FabricCase,
    build: &dyn Fn() -> Fabric,
    traced: &dyn Fn(&Arc<SpanSink>) -> TracedFabric,
    capture_policy: Box<dyn BufferPolicy>,
    capture_rate: Rate,
    capture_specs: &[FlowSpec],
    ns_per_emission: f64,
) {
    let (mut serial, mut sharded, mut short) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reference, mut events, mut short_events) = (None, 0u64, 0u64);
    for _ in 0..PAIRS {
        let f = build();
        let (res, w) = timed(|| f.run(c.seed, c.warmup, c.end, 1));
        serial.push(w);
        let d = digest(&res);
        if reference.is_none() {
            reference = Some(d);
            events = count_events(&res);
            m.set("core.policy.admit_ratio", admit_ratio(&res));
        }
        drop(res);
        let f = build();
        let (res, w) = timed(|| f.run(c.seed, c.warmup, c.end, c.threads));
        sharded.push(w);
        tally.attempt("serial and sharded runs agree", || {
            check(
                Some(d) == reference && Some(digest(&res)) == reference,
                "per-link results changed between runs or shard widths",
            )
        });
        drop(res);
        let f = build().with_epoch(c.short_epoch);
        let (res, w) = timed(|| f.run(c.seed, c.warmup, c.end, 1));
        short.push(w);
        short_events = count_events(&res);
        if c.epoch_invariant {
            tally.attempt("default and short epochs agree", || {
                check(
                    Some(digest(&res)) == reference,
                    "per-link results depend on the epoch length",
                )
            });
        }
    }
    let (w_serial, w_sharded, w_short) = (median(&serial), median(&sharded), median(&short));
    let (n_epochs, n_short) = (epochs(c.end, c.epoch), epochs(c.end, c.short_epoch));
    m.set("sim.ns_per_event.serial", w_serial * 1e9 / events as f64);
    m.set("sim.campaign.cell_s_p50", median(&serial));
    m.set("sim.campaign.cell_s_p90", quantile(&serial, 0.9));
    m.set(
        "sim.campaign.parallel_efficiency",
        w_serial / (c.threads as f64 * w_sharded),
    );
    m.set("sim.fabric.epochs", n_epochs as f64);
    m.set("sim.fabric.sharded_over_serial", w_serial / w_sharded);
    m.set(
        "sim.fabric.shard_overhead_ns_per_epoch",
        (w_sharded - w_serial) * 1e9 / n_epochs as f64,
    );
    // Compared per event, so a closed loop whose event count moves with
    // the epoch still isolates the per-epoch cost.
    m.set(
        "sim.fabric.ns_per_epoch",
        (w_short / short_events as f64 - w_serial / events as f64) * 1e9 * events as f64
            / (n_short - n_epochs) as f64,
    );

    let sink = SpanSink::new();
    let fabric = traced(&sink);
    let mut probes: Vec<Probe> = (0..fabric.n_links())
        .map(|l| {
            if l == c.capture {
                Probe::capturing(capture_specs.len(), CAPTURE_RECORDS)
            } else {
                Probe::default()
            }
        })
        .collect();
    let (res, traced_s) = timed(|| fabric.run_observed(c.seed, c.warmup, c.end, 1, &mut probes));
    tally.attempt("traced fabric equals the untraced fabric", || {
        check(
            Some(digest(&res)) == reference,
            "timing wrappers changed the fabric's results",
        )
    });
    let per_link: Vec<u64> = probes.iter().map(|p| p.arrivals + p.departures).collect();
    let all: u64 = per_link.iter().sum();
    let emissions: u64 = probes[c.origins.clone()].iter().map(|p| p.arrivals).sum();
    let relay: u64 = probes
        .iter()
        .enumerate()
        .filter(|(l, _)| !c.origins.contains(l))
        .map(|(_, p)| p.arrivals)
        .sum();
    m.set("sim.fabric.links", probes.len() as f64);
    m.set("sim.fabric.relay_pkts", relay as f64);
    m.set(
        "sim.fabric.busiest_link_share",
        per_link.iter().copied().max().unwrap_or(0) as f64 / all as f64,
    );
    m.set("traffic.emissions", emissions as f64);
    m.set(
        "traffic.feedback_signals",
        probes.iter().map(|p| p.feedback).sum::<u64>() as f64,
    );
    let totals = sink.totals();
    call_metrics(m, &totals, capture_policy, capture_rate, capture_specs);
    let stats_per_record = replay_metrics(
        m,
        tally,
        &probes[c.capture],
        c.warmup,
        c.end,
        c.seed,
        StatsConfig::default(),
        &res[c.capture],
    );
    ledger(
        m,
        timer,
        &totals,
        w_serial,
        traced_s,
        events,
        ns_per_emission * emissions as f64,
        stats_per_record * all as f64,
    );
}

// ---------------------------------------------------------------------
// isp_tree

/// The core link's rate, site grouping and per-site reservations,
/// derived exactly as `subscriber_tree` derives them.
fn tree_core(shape: SubscriberTreeShape, specs: &[FlowSpec]) -> (Rate, Grouping, Vec<u64>) {
    let per_site = shape.aps_per_site * shape.subs_per_ap;
    let site_rho: Vec<u64> = (0..shape.sites)
        .map(|s| {
            specs[s * per_site..(s + 1) * per_site]
                .iter()
                .map(|f| f.token_rate.bps())
                .sum()
        })
        .collect();
    let core_rate = Rate::from_bps(site_rho.iter().sum::<u64>() * 5 / 4);
    let grouping = Grouping::new(
        (0..specs.len()).map(|g| g / per_site).collect(),
        shape.sites,
    );
    (core_rate, grouping, site_rho)
}

/// `scenarios::subscriber_tree` (open loop) rebuilt link by link with
/// timed layers; the core link captures its scheduler calls.
fn traced_tree(
    shape: SubscriberTreeShape,
    profile: &LinkProfile,
    seed: u64,
    sink: &Arc<SpanSink>,
) -> TracedFabric {
    let per_site = shape.aps_per_site * shape.subs_per_ap;
    let specs = subscriber_plans(shape.flows());
    let (core_rate, grouping, site_rho) = tree_core(shape, &specs);
    let plan = plan_hybrid_at(core_rate, &specs, &grouping, profile.buffer_bytes);
    let core_profile = LinkProfile {
        buffer_bytes: profile.buffer_bytes,
        sched: SchedKind::Hybrid {
            assignment: plan.grouping.assignment.clone(),
            queue_rates_bps: plan.queue_rates_bps.clone(),
        },
        policy: PolicySpec::ExplicitSharing {
            reserved: plan.flow_thresholds.clone(),
            headroom_bytes: profile.buffer_bytes / 8,
        },
        stats: profile.stats,
    };
    let mut fabric = TracedFabric::new();
    let sources = specs
        .iter()
        .map(|s| build_source_kind(s, derive_cell_seed(seed, s.id.index() as u64, 0)))
        .collect();
    let core = fabric.add_link(traced_link(
        core_rate,
        &specs,
        sources,
        &core_profile,
        sink,
        CAPTURE_CALLS,
    ));
    let mut site_links = Vec::with_capacity(shape.sites);
    for (s, rho) in site_rho.iter().enumerate() {
        let block = renumber(&specs[s * per_site..(s + 1) * per_site]);
        let rate = Rate::from_bps(rho * 3 / 2);
        let link = fabric.add_link(traced_link(
            rate,
            &block,
            relay_stubs(block.len()),
            profile,
            sink,
            0,
        ));
        site_links.push(link);
        for h in 0..per_site as u32 {
            fabric.connect(core, (s * per_site) as u32 + h, link, h);
        }
    }
    for (s, &site) in site_links.iter().enumerate() {
        for a in 0..shape.aps_per_site {
            let lo = s * per_site + a * shape.subs_per_ap;
            let block = renumber(&specs[lo..lo + shape.subs_per_ap]);
            let rho: u64 = block.iter().map(|f| f.token_rate.bps()).sum();
            let ap = fabric.add_link(traced_link(
                Rate::from_bps(rho * 2),
                &block,
                relay_stubs(block.len()),
                profile,
                sink,
                0,
            ));
            for f in 0..shape.subs_per_ap as u32 {
                fabric.connect(site, (a * shape.subs_per_ap) as u32 + f, ap, f);
            }
        }
    }
    fabric
}

fn trace_tree(p: &TreeParams, seed: u64, timer: TimerCost, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let profile = LinkProfile::default();
    let shape = p.shape();
    let n = shape.flows();

    // Construction first, while the heap holds nothing else.
    let before = proc_status_bytes("VmRSS");
    let (fabric, build_s) = timed(|| p.build(seed));
    let after = proc_status_bytes("VmRSS");
    drop(fabric);
    m.set(
        "sim.rss_bytes_per_flow",
        rss_delta(before, after) / n as f64,
    );
    m.set("sim.scenarios.build_s", build_s);
    let ((specs, mut sources), build_s) = timed(|| {
        let specs = subscriber_plans(n);
        let sources: Vec<SourceKind> = specs
            .iter()
            .map(|s| build_source_kind(s, derive_cell_seed(seed, s.id.index() as u64, 0)))
            .collect();
        (specs, sources)
    });
    m.set("traffic.build_s", build_s);
    let (pulled, pull_ns) = pull_sources(sources.iter_mut(), p.end);
    drop(sources);
    let ns_per_emission = pull_ns as f64 / pulled as f64;
    m.set("traffic.ns_per_emission", ns_per_emission);
    let (core_rate, grouping, _) = tree_core(shape, &specs);
    let (plan, plan_s) =
        timed(|| plan_hybrid_at(core_rate, &specs, &grouping, profile.buffer_bytes));
    m.set("core.hybrid_plan_s", plan_s);
    let core_policy = PolicySpec::ExplicitSharing {
        reserved: plan.flow_thresholds,
        headroom_bytes: profile.buffer_bytes / 8,
    }
    .build(profile.buffer_bytes, core_rate, &specs);

    // Dispatch: site 0's subscribers as one fifo+thresh link provisioned
    // like the core (1.25× their reservations).
    let block = &specs[..shape.aps_per_site * shape.subs_per_ap];
    let rate = Rate::from_bps(block.iter().map(|f| f.token_rate.bps()).sum::<u64>() * 5 / 4);
    if let Some(r) = tally.attempt("boxed vs monomorphized subscriber link", || {
        dispatch_ratio(
            rate,
            profile.buffer_bytes,
            block,
            || {
                block
                    .iter()
                    .map(|s| build_source_kind(s, derive_cell_seed(seed, s.id.index() as u64, 0)))
                    .collect()
            },
            StatsConfig::default(),
            p.warmup,
            p.dispatch_end,
            seed,
        )
    }) {
        m.set("sim.dispatch.boxed_over_mono", r);
    }

    let case = FabricCase {
        seed,
        warmup: p.warmup,
        end: p.end,
        threads: p.threads,
        epoch: DEFAULT_EPOCH,
        short_epoch: p.short_epoch,
        epoch_invariant: true,
        origins: 0..1,
        capture: 0,
    };
    trace_fabric(
        &mut m,
        tally,
        timer,
        &case,
        &|| p.build(seed),
        &|sink| traced_tree(shape, &profile, seed, sink),
        core_policy,
        core_rate,
        &specs,
        ns_per_emission,
    );
    m
}

// ---------------------------------------------------------------------
// incast_closed_loop

/// `scenarios::incast_closed_loop` rebuilt link by link with timed
/// layers; the aggregator captures its scheduler calls.
fn traced_incast(p: &IncastParams, profile: &LinkProfile, sink: &Arc<SpanSink>) -> TracedFabric {
    let specs = incast_specs(p.senders, p.agg_rate);
    let mut fabric = TracedFabric::new().with_epoch(CLOSED_LOOP_EPOCH);
    for i in 0..p.senders {
        let source = SourceKind::from(AimdSource::new(incast_aimd(i)));
        fabric.add_link(traced_link(
            p.agg_rate,
            &renumber(&specs[i..=i]),
            vec![source],
            profile,
            sink,
            0,
        ));
    }
    let agg = fabric.add_link(traced_link(
        p.agg_rate,
        &specs,
        relay_stubs(p.senders),
        profile,
        sink,
        CAPTURE_CALLS,
    ));
    for i in 0..p.senders as u32 {
        fabric.connect(i, 0, agg, i);
    }
    fabric
}

fn trace_incast(p: &IncastParams, seed: u64, timer: TimerCost, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let profile = LinkProfile::default();
    let before = proc_status_bytes("VmRSS");
    let (fabric, build_s) = timed(|| p.build());
    let after = proc_status_bytes("VmRSS");
    drop(fabric);
    m.set(
        "sim.rss_bytes_per_flow",
        rss_delta(before, after) / p.senders as f64,
    );
    m.set("sim.scenarios.build_s", build_s);
    let (mut sources, build_s) = timed(|| {
        (0..p.senders)
            .map(|i| AimdSource::new(incast_aimd(i)))
            .collect::<Vec<_>>()
    });
    m.set("traffic.build_s", build_s);
    let responsive = sources.pop().expect("at least two senders");
    let (pulled, pull_ns) = pull_with_acks(responsive, 1 << 20);
    let ns_per_emission = pull_ns as f64 / pulled as f64;
    m.set("traffic.ns_per_emission", ns_per_emission);
    // The plan the §4 hybrid would need here: the non-responsive sender
    // in a queue of its own. The senders reserve the whole aggregator,
    // so the plan provisions 1.25× their reservations, as the tree's
    // core does (planning needs spare capacity).
    let specs = incast_specs(p.senders, p.agg_rate);
    let grouping = Grouping::new((0..p.senders).map(|i| usize::from(i > 0)).collect(), 2);
    let plan_rate = Rate::from_bps(p.agg_rate.bps() * 5 / 4);
    let (_, plan_s) = timed(|| {
        black_box(plan_hybrid_at(
            plan_rate,
            &specs,
            &grouping,
            profile.buffer_bytes,
        ))
    });
    m.set("core.hybrid_plan_s", plan_s);

    // Dispatch: the senders' AIMD flows on one fifo+thresh link, the
    // loop closed locally.
    if let Some(r) = tally.attempt("boxed vs monomorphized closed-loop link", || {
        dispatch_ratio(
            p.agg_rate,
            profile.buffer_bytes,
            &specs,
            || {
                (0..p.senders)
                    .map(|i| SourceKind::from(AimdSource::new(incast_aimd(i))))
                    .collect()
            },
            StatsConfig::default(),
            p.warmup,
            p.end,
            seed,
        )
    }) {
        m.set("sim.dispatch.boxed_over_mono", r);
    }

    let case = FabricCase {
        seed,
        warmup: p.warmup,
        end: p.end,
        threads: p.threads,
        epoch: CLOSED_LOOP_EPOCH,
        short_epoch: p.short_epoch,
        epoch_invariant: false,
        origins: 0..p.senders,
        capture: p.senders,
    };
    trace_fabric(
        &mut m,
        tally,
        timer,
        &case,
        &|| p.build(),
        &|sink| traced_incast(p, &profile, sink),
        profile
            .policy
            .build(profile.buffer_bytes, p.agg_rate, &specs),
        p.agg_rate,
        &specs,
        ns_per_emission,
    );
    m
}
