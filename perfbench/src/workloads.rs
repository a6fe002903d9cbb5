//! The three workloads: their sizes, builders, and the timed (untraced)
//! run with its output checks.
//!
//! Each workload is a batch job of fixed simulated work, repeated for
//! the run's `--seconds`. `events_per_s` is the best repetition's rate:
//! the host is shared, and other tenants slow whole stretches of
//! repetitions by a fifth or more, while the fastest repetition moves
//! far less from run to run. `setup_s` is the median set-up. Every
//! repetition must reproduce the first one exactly (same seed), and
//! each workload adds its own checks after the timed loop.
//!
//! Seeds: campaign cells get `derive_cell_seed(seed, point,
//! replication)` (the campaign's hashed mode) and tree flows
//! `derive_cell_seed(seed, flow, 0)` (inside `subscriber_tree`). The
//! closed-loop incast does not depend on the seed at all — AIMD
//! emission is a pure function of feedback — so its seed only labels
//! the results, and a hold-out check of that workload is a fresh rerun,
//! not a new seed.

use crate::layers::digest;
use crate::report::{check, median, proc_status_bytes, quantile, timed, Metrics, Tally};
use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::units::{ByteSize, Dur, Rate, Time};
use qbm_obs::SketchParams;
use qbm_sim::scenarios::{
    incast_closed_loop, paper_experiment, section3_schemes, subscriber_tree, LinkProfile,
    SubscriberTreeShape, AGGRESSIVE_MIN_CWND,
};
use qbm_sim::{Campaign, ExperimentConfig, Fabric, Router, SimResult, StatsConfig};
use qbm_traffic::{build_source_kind_with_sojourns, table1, table2, AimdConfig, SourceKind};
use std::hint::black_box;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §3 grid through `Campaign`.
    PaperCampaign,
    /// `subscriber_tree` at 10⁵ flows.
    IspTree,
    /// `incast_closed_loop` with 64 AIMD senders.
    IncastClosedLoop,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCampaign,
        Workload::IspTree,
        Workload::IncastClosedLoop,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::IspTree => "isp_tree",
            Workload::IncastClosedLoop => "incast_closed_loop",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much simulated work a workload does: `Full` is what the
/// benchmark measures, `Small` keeps the benchmark's own tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A scaled-down copy for tests.
    Small,
}

/// Set-ups per timed iteration on the workloads whose set-up takes well
/// under a millisecond, so that its median rests on enough samples.
const SETUP_REPS: usize = 5;
/// A timed run makes at least this many iterations, however short
/// `--seconds` is.
const MIN_ITERS: u64 = 3;

/// Timed run of `w`: its end-to-end metrics and the checks' tally.
pub fn run_timed(w: Workload, size: Size, seed: u64, seconds: f64) -> (Tally, Metrics) {
    match w {
        Workload::PaperCampaign => timed_paper(&PaperParams::new(size), seed, seconds),
        Workload::IspTree => timed_tree(&TreeParams::new(size), seed, seconds),
        Workload::IncastClosedLoop => timed_incast(&IncastParams::new(size), seed, seconds),
    }
}

/// Arrivals plus departures over every flow of every result: the event
/// count the simulator's own benches use.
pub fn count_events(results: &[SimResult]) -> u64 {
    results
        .iter()
        .flat_map(|r| &r.flows)
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum()
}

/// Admitted over offered packets, across every flow of every result.
pub fn admit_ratio(results: &[SimResult]) -> f64 {
    let (mut offered, mut dropped) = (0u64, 0u64);
    for f in results.iter().flat_map(|r| &r.flows) {
        offered += f.offered_pkts;
        dropped += f.dropped_pkts;
    }
    (offered - dropped) as f64 / offered as f64
}

/// Set-up and run-phase samples of one timed run.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    events_per_s: Vec<f64>,
}

impl Samples {
    /// Time one run phase and record its events per second.
    fn run_phase(&mut self, run: impl FnOnce() -> Vec<SimResult>) -> Vec<SimResult> {
        let (res, wall) = timed(run);
        self.events_per_s.push(count_events(&res) as f64 / wall);
        res
    }

    fn metrics(&self) -> Metrics {
        for (name, xs) in [
            ("events_per_s", &self.events_per_s),
            ("setup_s", &self.setup_s),
        ] {
            let q = |p| quantile(xs, p);
            eprintln!(
                "{name} over {} samples: min {:.6e} q1 {:.6e} median {:.6e} q3 {:.6e} max {:.6e}",
                xs.len(),
                q(0.0),
                q(0.25),
                q(0.5),
                q(0.75),
                q(1.0)
            );
        }
        let mut m = Metrics::default();
        m.set("events_per_s", quantile(&self.events_per_s, 1.0));
        m.set("setup_s", median(&self.setup_s));
        m.set(
            "peak_rss_mib",
            proc_status_bytes("VmHWM").map_or(f64::NAN, |b| b / (1024.0 * 1024.0)),
        );
        m
    }
}

extern "C" {
    /// glibc: release the free memory of every malloc arena to the OS.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Repeat `iteration` until `seconds` have passed, and at least
/// [`MIN_ITERS`] times. Free heap memory goes back to the OS after each
/// iteration, so `peak_rss_mib` measures one iteration's footprint
/// rather than how the campaign's worker threads happened to fragment
/// their malloc arenas.
fn repeat_for(
    seconds: f64,
    tally: &mut Tally,
    what: &str,
    mut iteration: impl FnMut() -> Result<(), String>,
) {
    let start = Instant::now();
    while tally.attempted < MIN_ITERS || start.elapsed().as_secs_f64() < seconds {
        tally.attempt(what, &mut iteration);
        // SAFETY: malloc_trim takes no pointers; it only hands pages that
        // glibc holds free back to the OS and leaves live allocations be.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Keep the first iteration's output; every later one must equal it.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, now: T) -> Result<(), String> {
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) => check(
            *f == now,
            "output differs from the first iteration of the same seed",
        ),
    }
}

// ---------------------------------------------------------------------
// paper_campaign

/// The §3 grid, run the way the figure pipeline and `qbm report` run it.
#[derive(Debug, Clone, Copy)]
pub struct PaperParams {
    /// Replications per grid point.
    pub replications: usize,
    /// Warmup discarded from statistics.
    pub warmup: Dur,
    /// Simulated horizon per cell.
    pub duration: Dur,
    /// Campaign worker threads.
    pub workers: usize,
}

impl PaperParams {
    /// Parameters at `size`.
    pub fn new(size: Size) -> PaperParams {
        match size {
            // `paper_experiment`'s 2 s warmup and 22 s horizon, and the
            // paper's 5 replications.
            Size::Full => PaperParams {
                replications: 5,
                warmup: Dur::from_secs(2),
                duration: Dur::from_secs(22),
                workers: 2,
            },
            Size::Small => PaperParams {
                replications: 2,
                warmup: Dur::from_millis(100),
                duration: Dur::from_millis(600),
                workers: 2,
            },
        }
    }
}

/// Table 1 (9 flows, 1 MiB) then Table 2 (30 flows, 2 MiB), each under
/// the four §3.2 schemes in `section3_schemes` order, with the per-flow
/// sketches `qbm report` attaches.
pub fn paper_grid(p: &PaperParams) -> Vec<ExperimentConfig> {
    let stats = StatsConfig {
        sketches: Some(SketchParams::default()),
        ..StatsConfig::default()
    };
    let mut points = Vec::new();
    for (specs, mib) in [(table1(), 1), (table2(), 2)] {
        for scheme in section3_schemes() {
            let mut cfg = paper_experiment(&specs, &scheme, ByteSize::from_mib(mib).bytes());
            cfg.warmup = p.warmup;
            cfg.duration = p.duration;
            cfg.stats = stats;
            points.push(cfg);
        }
    }
    points
}

/// The grid point of `table` (0 = Table 1, 1 = Table 2) under the
/// §3.2 scheme labelled `label`.
pub fn paper_point(table: usize, label: &str) -> usize {
    let schemes = section3_schemes();
    let pos = schemes
        .iter()
        .position(|s| s.label == label)
        .expect("a §3.2 scheme label");
    table * schemes.len() + pos
}

/// The grid as a campaign with hashed (`derive_cell_seed`) cell seeds.
pub fn campaign<'a>(
    points: &'a [ExperimentConfig],
    p: &PaperParams,
    seed: u64,
    workers: usize,
) -> Campaign<'a> {
    let mut c = Campaign::new(points);
    c.replications = p.replications;
    c.campaign_seed = seed;
    c.threads = workers;
    c
}

/// Every cell's result, in (point, replication) order.
pub fn run_campaign(
    points: &[ExperimentConfig],
    p: &PaperParams,
    seed: u64,
    workers: usize,
) -> Vec<SimResult> {
    campaign(points, p, seed, workers)
        .run()
        .into_iter()
        .flat_map(|m| m.runs)
        .collect()
}

/// `(point, cell seed)` of every cell, in campaign order.
pub fn cells(points: &[ExperimentConfig], p: &PaperParams, seed: u64) -> Vec<(usize, u64)> {
    let c = campaign(points, p, seed, 1);
    let mut out = Vec::with_capacity(points.len() * p.replications);
    for i in 0..points.len() {
        for r in 0..p.replications {
            out.push((i, c.cell_seed(i, r)));
        }
    }
    out
}

/// One cell's sources, built the way `ExperimentConfig::run_once`
/// builds them.
pub fn cell_sources(cfg: &ExperimentConfig, seed: u64) -> Vec<SourceKind> {
    cfg.specs
        .iter()
        .map(|s| build_source_kind_with_sojourns(s, seed, cfg.sojourns))
        .collect()
}

/// One cell's router: policy, scheduler and seeded sources — all that
/// `run_once` builds before the first event.
pub fn cell_router(cfg: &ExperimentConfig, seed: u64) -> Router {
    Router::new(
        cfg.link_rate,
        cfg.policy
            .build(cfg.buffer_bytes, cfg.link_rate, &cfg.specs),
        cfg.sched.build(cfg.link_rate, &cfg.specs),
        cell_sources(cfg, seed),
    )
    .with_stats(cfg.stats)
}

/// The set-up: the grid plus every cell's router.
fn paper_setup(p: &PaperParams, seed: u64) -> Vec<ExperimentConfig> {
    let points = paper_grid(p);
    for (i, s) in cells(&points, p, seed) {
        black_box(cell_router(&points[i], s));
    }
    points
}

/// Figure 2: without buffer management, FIFO and WFQ drop exactly the
/// same packets of every flow. Each wfq+none cell is rerun with its
/// fifo+none twin's seed and per-flow drops are compared.
fn check_scheduler_invariance(
    points: &[ExperimentConfig],
    p: &PaperParams,
    seed: u64,
    results: &[SimResult],
) -> Result<(), String> {
    let c = campaign(points, p, seed, 1);
    let drops = |r: &SimResult| r.flows.iter().map(|f| f.dropped_pkts).collect::<Vec<_>>();
    for table in 0..2 {
        let (fifo, wfq) = (
            paper_point(table, "fifo+none"),
            paper_point(table, "wfq+none"),
        );
        for r in 0..p.replications {
            let ran = &results[fifo * p.replications + r];
            let twin = points[wfq].run_once(c.cell_seed(fifo, r));
            if drops(ran) != drops(&twin) {
                return Err(format!(
                    "Table {} replication {r}: fifo+none drops {:?}, wfq+none {:?}",
                    table + 1,
                    drops(ran),
                    drops(&twin)
                ));
            }
        }
    }
    Ok(())
}

fn timed_paper(p: &PaperParams, seed: u64, seconds: f64) -> (Tally, Metrics) {
    let (mut tally, mut s) = (Tally::default(), Samples::default());
    let (mut first, mut invariance) = (None, None);
    repeat_for(seconds, &mut tally, "paper_campaign iteration", || {
        let mut points = Vec::new();
        for _ in 0..SETUP_REPS {
            let (built, setup) = timed(|| paper_setup(p, seed));
            s.setup_s.push(setup);
            points = built;
        }
        let res = s.run_phase(|| run_campaign(&points, p, seed, p.workers));
        if invariance.is_none() {
            invariance = Some(check_scheduler_invariance(&points, p, seed, &res));
        }
        same_as_first(&mut first, digest(&res))
    });
    if let Some(first) = first {
        let points = paper_grid(p);
        tally.attempt("paper_campaign at 1 vs 2 workers", || {
            check(
                digest(&run_campaign(&points, p, seed, 1)) == first,
                "campaign results depend on the worker count",
            )
        });
    }
    if let Some(invariant) = invariance {
        tally.attempt("paper_campaign fifo+none vs wfq+none drops", || invariant);
    }
    (tally, s.metrics())
}

// ---------------------------------------------------------------------
// isp_tree

/// `subscriber_tree`, open loop, default profile (1 MiB, FIFO relays
/// with thresholds, hybrid core).
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Subscriber flows.
    pub flows: usize,
    /// Warmup discarded from statistics.
    pub warmup: Time,
    /// Simulated horizon.
    pub end: Time,
    /// Shard threads.
    pub threads: usize,
    /// The second epoch length results must not depend on.
    pub short_epoch: Dur,
    /// Horizon of the one-link dispatch comparison (see `trace`).
    pub dispatch_end: Time,
}

impl TreeParams {
    /// Parameters at `size`.
    pub fn new(size: Size) -> TreeParams {
        match size {
            // 25 sites × 20 APs × 200 subscribers: 526 links. One build
            // plus 0.1 sim-s takes about half a second.
            Size::Full => TreeParams {
                flows: 100_000,
                warmup: Time(10_000_000),
                end: Time(100_000_000),
                threads: 2,
                short_epoch: Dur::from_millis(1),
                dispatch_end: Time::from_secs(1),
            },
            Size::Small => TreeParams {
                flows: 1_000,
                warmup: Time(10_000_000),
                end: Time(50_000_000),
                threads: 2,
                short_epoch: Dur::from_millis(5),
                dispatch_end: Time(200_000_000),
            },
        }
    }

    /// The tree's shape.
    pub fn shape(&self) -> SubscriberTreeShape {
        SubscriberTreeShape::for_flows(self.flows)
    }

    /// Build the tree for `seed`.
    pub fn build(&self, seed: u64) -> Fabric {
        subscriber_tree(self.shape(), &LinkProfile::default(), seed)
    }
}

fn timed_tree(p: &TreeParams, seed: u64, seconds: f64) -> (Tally, Metrics) {
    let (mut tally, mut s) = (Tally::default(), Samples::default());
    let mut first = None;
    repeat_for(seconds, &mut tally, "isp_tree iteration", || {
        let (fabric, setup) = timed(|| p.build(seed));
        s.setup_s.push(setup);
        let res = s.run_phase(|| fabric.run(seed, p.warmup, p.end, p.threads));
        same_as_first(&mut first, digest(&res))
    });
    if let Some(first) = first {
        tally.attempt("isp_tree at 1 vs 2 shard threads", || {
            let serial = p.build(seed).run(seed, p.warmup, p.end, 1);
            check(
                digest(&serial) == first,
                "per-link results depend on the shard-thread count",
            )
        });
        tally.attempt("isp_tree at the default vs a short epoch", || {
            let short = p
                .build(seed)
                .with_epoch(p.short_epoch)
                .run(seed, p.warmup, p.end, p.threads);
            check(
                digest(&short) == first,
                "per-link results depend on the epoch length",
            )
        });
    }
    (tally, s.metrics())
}

// ---------------------------------------------------------------------
// incast_closed_loop

/// `incast_closed_loop` with the default profile (1 MiB, FIFO,
/// thresholds) on its 1 ms closed-loop epoch.
#[derive(Debug, Clone, Copy)]
pub struct IncastParams {
    /// AIMD senders; sender 0 is the non-responsive one.
    pub senders: usize,
    /// Aggregator (and sender) link rate.
    pub agg_rate: Rate,
    /// Warmup discarded from statistics.
    pub warmup: Time,
    /// Simulated horizon.
    pub end: Time,
    /// Shard threads.
    pub threads: usize,
    /// A second epoch length, for the per-epoch cost (results move with
    /// the epoch in closed loop, so it is not a check here).
    pub short_epoch: Dur,
}

impl IncastParams {
    /// Parameters at `size`.
    pub fn new(size: Size) -> IncastParams {
        match size {
            Size::Full => IncastParams {
                senders: 64,
                agg_rate: Rate::from_bps(1_000_000_000),
                warmup: Time(100_000_000),
                end: Time::from_secs(2),
                threads: 2,
                short_epoch: Dur::from_micros(500),
            },
            Size::Small => IncastParams {
                senders: 8,
                agg_rate: Rate::from_bps(100_000_000),
                warmup: Time(50_000_000),
                end: Time(300_000_000),
                threads: 2,
                short_epoch: Dur::from_micros(500),
            },
        }
    }

    /// Build the incast (no seed: the traffic does not depend on one).
    pub fn build(&self) -> Fabric {
        incast_closed_loop(self.senders, self.agg_rate, &LinkProfile::default())
    }
}

/// The flow specs `incast_closed_loop` gives its senders: fair-share
/// reservations with a 16 KiB bucket, sender 0 aggressive.
pub fn incast_specs(senders: usize, agg_rate: Rate) -> Vec<FlowSpec> {
    let share = Rate::from_bps((agg_rate.bps() / senders as u64).max(1));
    let bucket = ByteSize::from_kib(16).bytes();
    (0..senders)
        .map(|i| {
            let b = FlowSpec::builder(FlowId(i as u32))
                .bucket(bucket)
                .token_rate(share)
                .peak(agg_rate);
            if i == 0 {
                b.class(Conformance::Aggressive).build()
            } else {
                b.class(Conformance::Conformant).adaptive(true).build()
            }
        })
        .collect()
}

/// Sender `i`'s AIMD configuration in `incast_closed_loop`: sender 0
/// never closes its window below `AGGRESSIVE_MIN_CWND`.
pub fn incast_aimd(i: usize) -> AimdConfig {
    if i == 0 {
        AimdConfig {
            init_cwnd: AGGRESSIVE_MIN_CWND,
            min_cwnd: AGGRESSIVE_MIN_CWND,
            ..AimdConfig::default()
        }
    } else {
        AimdConfig::default()
    }
}

/// The closed-loop claim the tier-1 suite pins: under thresholds the
/// non-responsive sender 0 takes under 80 % of the aggregator's
/// deliveries, and every responsive sender keeps more than 100 kB.
pub fn check_confinement(res: &[SimResult], senders: usize) -> Result<(), String> {
    let agg = res.get(senders).ok_or("no aggregator link")?;
    let total: u64 = agg.flows.iter().map(|f| f.delivered_bytes).sum();
    let share = agg.flows[0].delivered_bytes as f64 / total.max(1) as f64;
    let weakest = agg.flows[1..]
        .iter()
        .map(|f| f.delivered_bytes)
        .min()
        .unwrap_or(0);
    if share >= 0.8 {
        Err(format!(
            "the aggressive sender took {share:.3} of the aggregator"
        ))
    } else if weakest <= 100_000 {
        Err(format!("a responsive sender starved ({weakest} bytes)"))
    } else {
        Ok(())
    }
}

fn timed_incast(p: &IncastParams, seed: u64, seconds: f64) -> (Tally, Metrics) {
    let (mut tally, mut s) = (Tally::default(), Samples::default());
    let (mut first, mut confinement) = (None, None);
    repeat_for(seconds, &mut tally, "incast_closed_loop iteration", || {
        let mut fabric = None;
        for _ in 0..SETUP_REPS {
            let (built, setup) = timed(|| p.build());
            s.setup_s.push(setup);
            fabric = Some(built);
        }
        let fabric = fabric.expect("at least one set-up per iteration");
        // Serial: at 2 shard threads this run is three quarters thread
        // spawns (one scope per level per 1 ms epoch), and its rate swung
        // twofold between runs on a shared host. The traced run measures
        // the sharded cost (`sim.fabric.sharded_over_serial`).
        let res = s.run_phase(|| fabric.run(seed, p.warmup, p.end, 1));
        if confinement.is_none() {
            confinement = Some(check_confinement(&res, p.senders));
        }
        same_as_first(&mut first, digest(&res))
    });
    if let Some(first) = first {
        tally.attempt("incast_closed_loop at 1 vs 2 shard threads", || {
            let sharded = p.build().run(seed, p.warmup, p.end, p.threads);
            check(
                digest(&sharded) == first,
                "per-link results depend on the shard-thread count",
            )
        });
    }
    if let Some(confined) = confinement {
        tally.attempt("incast_closed_loop confines the aggressive sender", || {
            confined
        });
    }
    (tally, s.metrics())
}
