//! Experiment configuration and the campaign runner.
//!
//! The paper: "We averaged the results over 5 simulation runs and found
//! the 95 % confidence intervals for throughput measurements to be less
//! than 2 % of the corresponding values." [`MultiRun`] reproduces that
//! protocol: N independent seeds, Student-t 95 % confidence intervals
//! on any scalar metric.
//!
//! [`Campaign`] is the execution engine underneath: a grid of
//! *(scenario point × replication)* cells sharded across a scoped
//! thread pool. Every cell's seed is a pure function of
//! `(campaign_seed, point_index, replication)`, and cells are written
//! back into their grid slot by index, so results are **bit-identical
//! regardless of thread count** — `--threads 1` and `--threads 8`
//! produce the same bytes.

use crate::router::Router;
use crate::stats::{SimResult, StatsConfig};
use qbm_core::flow::FlowSpec;
use qbm_core::policy::{BufferPolicy, BufferSharing, FixedThreshold, PolicyKind};
use qbm_core::units::{Dur, Rate, Time};
use qbm_obs::{NullObserver, Observer};
use qbm_sched::{SchedKind, Scheduler};
use qbm_traffic::{build_source_kind_with_sojourns, AimdConfig, AimdSource, Sojourns, SourceKind};
use rand::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How to build the admission policy — either a standard
/// [`PolicyKind`], or explicit per-flow shares (used by the §4 hybrid,
/// whose thresholds are computed per queue).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// One of the paper's four standard policies.
    Kind(PolicyKind),
    /// Fixed thresholds supplied directly (bytes per flow).
    ExplicitThreshold {
        /// Per-flow thresholds, bytes.
        thresholds: Vec<u64>,
    },
    /// §3.3 sharing with explicitly supplied reserved shares.
    ExplicitSharing {
        /// Per-flow reserved shares, bytes.
        reserved: Vec<u64>,
        /// Maximum headroom `H`, bytes.
        headroom_bytes: u64,
    },
}

impl PolicySpec {
    /// Instantiate for a concrete buffer/link/flow set.
    pub fn build(
        &self,
        capacity_bytes: u64,
        link_rate: Rate,
        specs: &[FlowSpec],
    ) -> Box<dyn BufferPolicy> {
        match self {
            PolicySpec::Kind(k) => k.build(capacity_bytes, link_rate, specs),
            PolicySpec::ExplicitThreshold { thresholds } => Box::new(
                FixedThreshold::with_thresholds(capacity_bytes, thresholds.clone()),
            ),
            PolicySpec::ExplicitSharing {
                reserved,
                headroom_bytes,
            } => Box::new(BufferSharing::with_reserved(
                capacity_bytes,
                reserved.clone(),
                *headroom_bytes,
            )),
        }
    }

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::Kind(k) => k.label(),
            PolicySpec::ExplicitThreshold { .. } => "thresh",
            PolicySpec::ExplicitSharing { .. } => "sharing",
        }
    }
}

/// How an experiment's per-flow sources are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceSel {
    /// Open-loop sources from each flow's spec — the paper's ON-OFF /
    /// regulated traffic model ([`qbm_traffic::build_source_kind`]).
    #[default]
    Spec,
    /// Closed-loop AIMD sources: every flow runs an ack-clocked AIMD
    /// window paced at its spec's peak rate, reacting to the link's
    /// own drop/departure feedback. Starts are staggered one
    /// microsecond per flow index; emission is a pure function of
    /// feedback, so the seed only affects statistics labelling.
    Aimd,
}

/// An empty stand-in for the per-worker allocation pool campaign cells
/// once recycled their buffers through; every cell now allocates
/// afresh. The type and [`ExperimentConfig::run_once_pooled`] remain
/// only for perfbench's traced paper runner, written against the pool.
#[derive(Debug, Default)]
pub struct SimArena;

impl SimArena {
    /// The (empty) arena.
    pub fn new() -> SimArena {
        SimArena
    }
}

/// A complete, reproducible experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Output link rate.
    pub link_rate: Rate,
    /// Total buffer, bytes.
    pub buffer_bytes: u64,
    /// Flow set (sources are built per [`SourceSel`]).
    pub specs: Vec<FlowSpec>,
    /// Scheduler.
    pub sched: SchedKind,
    /// Admission policy.
    pub policy: PolicySpec,
    /// Warmup discarded from statistics.
    pub warmup: Dur,
    /// Total simulated time (measurement window = `duration − warmup`).
    pub duration: Dur,
    /// ON/OFF sojourn family for the sources (the paper's model is
    /// exponential; Pareto is the heavy-tail robustness extension).
    pub sojourns: Sojourns,
    /// Streaming-statistics attachments (delay/occupancy quantile
    /// sketches). Defaults to off: exact counters only, byte-identical
    /// to the pre-sketch simulator.
    pub stats: StatsConfig,
    /// Source family: the spec's open-loop model, or closed-loop AIMD.
    pub sources: SourceSel,
}

impl ExperimentConfig {
    /// Build one source per spec according to [`SourceSel`].
    fn build_sources(&self, seed: u64) -> Vec<SourceKind> {
        self.specs
            .iter()
            .map(|s| match self.sources {
                SourceSel::Spec => build_source_kind_with_sojourns(s, seed, self.sojourns),
                SourceSel::Aimd => SourceKind::from(AimdSource::new(AimdConfig {
                    start: Time::ZERO + Dur::from_micros(s.id.index() as u64),
                    pace: Some(s.peak),
                    ..AimdConfig::default()
                })),
            })
            .collect()
    }

    /// The router a cell of this configuration runs at `seed`, with
    /// `sched` in place of the configured scheduler: the seam through
    /// which a differential test swaps in another implementation of a
    /// [`SchedKind`] and runs the same sources and policy.
    pub fn build_router(&self, seed: u64, sched: Box<dyn Scheduler>) -> Router {
        let policy = self
            .policy
            .build(self.buffer_bytes, self.link_rate, &self.specs);
        Router::new(self.link_rate, policy, sched, self.build_sources(seed)).with_stats(self.stats)
    }

    /// The measurement window `[warmup, duration)` as instants.
    fn window(&self) -> (Time, Time) {
        (Time::ZERO + self.warmup, Time::ZERO + self.duration)
    }

    /// Run one seed to completion.
    pub fn run_once(&self, seed: u64) -> SimResult {
        self.run_once_with(seed, &mut NullObserver)
    }

    /// Run one seed with an observer attached to the router's event
    /// loop (see [`qbm_obs::Observer`]). `run_once` is this with
    /// [`NullObserver`], which monomorphizes the hooks away.
    pub fn run_once_with<O: Observer>(&self, seed: u64, obs: &mut O) -> SimResult {
        let sched = self.sched.build(self.link_rate, &self.specs);
        let (warmup, end) = self.window();
        self.build_router(seed, sched)
            .run_with(warmup, end, seed, obs)
    }

    /// [`ExperimentConfig::run_once`]: `arena` holds nothing and is
    /// left untouched. Kept, with [`SimArena`], for callers written
    /// against the retired per-worker allocation pool.
    pub fn run_once_pooled(&self, seed: u64, _arena: &mut SimArena) -> SimResult {
        self.run_once(seed)
    }

    /// Run `n_seeds` independent replications in parallel (the paper
    /// uses 5). Seeds are `base_seed..base_seed + n_seeds`.
    pub fn run_many(&self, base_seed: u64, n_seeds: usize) -> MultiRun {
        self.run_many_threaded(base_seed, n_seeds, 0)
    }

    /// [`ExperimentConfig::run_many`] with an explicit worker-thread
    /// count (`0` = one per available core). The thread count affects
    /// wall-clock time only, never the results.
    pub fn run_many_threaded(&self, base_seed: u64, n_seeds: usize, threads: usize) -> MultiRun {
        let mut campaign = Campaign::new(std::slice::from_ref(self));
        campaign.replications = n_seeds;
        campaign.campaign_seed = base_seed;
        campaign.seed_mode = SeedMode::BaseOffset;
        campaign.threads = threads;
        campaign
            .run()
            .pop()
            .expect("one point in, one MultiRun out")
    }
}

/// How a [`Campaign`] derives each cell's simulation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// `seed = campaign_seed + replication`, ignoring the point index —
    /// the historical `run_many` scheme, kept so the paper-figure
    /// pipeline reproduces its original numbers. Replications of
    /// *different* points share seeds (common random numbers).
    BaseOffset,
    /// `seed = hash(campaign_seed, point_index, replication)` through a
    /// SplitMix64 chain — every cell of the grid gets a statistically
    /// independent stream. The default for new campaigns.
    Hashed,
}

/// Derive a cell seed by chaining each coordinate through a SplitMix64
/// finalization round. Pure and order-sensitive in its inputs, so every
/// `(campaign_seed, point, replication)` triple maps to a well-mixed,
/// reproducible seed.
pub fn derive_cell_seed(campaign_seed: u64, point: u64, replication: u64) -> u64 {
    let mut h = SplitMix64::new(campaign_seed).next_u64();
    h = SplitMix64::new(h ^ point).next_u64();
    SplitMix64::new(h ^ replication).next_u64()
}

/// A deterministic, parallel experiment sweep: every scenario point
/// runs `replications` times, each cell seeded by [`SeedMode`], with
/// the `points × replications` grid sharded across `threads` scoped
/// workers. Workers claim the next unclaimed cell from a shared counter
/// and write results back into per-cell slots, so the outcome is
/// byte-identical for any thread count and any claim order.
#[derive(Debug, Clone)]
pub struct Campaign<'a> {
    /// The scenario grid, one configuration per point.
    pub points: &'a [ExperimentConfig],
    /// Independent replications per point (the paper uses 5).
    pub replications: usize,
    /// Root seed of the whole campaign.
    pub campaign_seed: u64,
    /// Cell-seed derivation scheme.
    pub seed_mode: SeedMode,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
}

impl<'a> Campaign<'a> {
    /// A campaign over `points` with the default protocol: 1
    /// replication, seed 0, [`SeedMode::Hashed`], one worker per core.
    pub fn new(points: &'a [ExperimentConfig]) -> Campaign<'a> {
        Campaign {
            points,
            replications: 1,
            campaign_seed: 0,
            seed_mode: SeedMode::Hashed,
            threads: 0,
        }
    }

    /// The seed cell `(point, replication)` runs with.
    pub fn cell_seed(&self, point: usize, replication: usize) -> u64 {
        match self.seed_mode {
            SeedMode::BaseOffset => self.campaign_seed + replication as u64,
            SeedMode::Hashed => {
                derive_cell_seed(self.campaign_seed, point as u64, replication as u64)
            }
        }
    }

    /// Run the whole grid; returns one [`MultiRun`] per point, with
    /// replications in order.
    pub fn run(&self) -> Vec<MultiRun> {
        assert!(self.replications >= 1, "campaign without replications");
        assert!(!self.points.is_empty(), "campaign without points");
        let cells = self.points.len() * self.replications;
        let workers = self.worker_count(cells);

        let mut slots: Vec<Option<SimResult>> = (0..cells).map(|_| None).collect();
        if workers <= 1 {
            for (idx, slot) in slots.iter_mut().enumerate() {
                *slot = Some(self.run_cell(idx));
            }
        } else {
            // Workers claim cells dynamically — a cheap cell never
            // leaves its worker idle behind a stride of dear ones — and
            // return (index, result) pairs that are scattered back into
            // the grid, so neither claim nor completion order can
            // reorder results.
            let next = AtomicUsize::new(0);
            let buckets: Vec<Vec<(usize, SimResult)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let me: &Campaign<'a> = self;
                        let next = &next;
                        scope.spawn(move || {
                            std::iter::from_fn(|| {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                (idx < cells).then_some(idx)
                            })
                            .map(|idx| (idx, me.run_cell(idx)))
                            .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulation worker panicked"))
                    .collect()
            });
            for (idx, res) in buckets.into_iter().flatten() {
                slots[idx] = Some(res);
            }
        }

        let mut results = slots.into_iter().map(|slot| slot.expect("cell never ran"));
        (0..self.points.len())
            .map(|_| MultiRun {
                runs: (&mut results).take(self.replications).collect(),
            })
            .collect()
    }

    fn run_cell(&self, idx: usize) -> SimResult {
        let point = idx / self.replications;
        let replication = idx % self.replications;
        self.points[point].run_once(self.cell_seed(point, replication))
    }

    fn worker_count(&self, cells: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.min(cells).max(1)
    }
}

/// Results of N replications of one configuration.
#[derive(Debug, Clone)]
pub struct MultiRun {
    /// One [`SimResult`] per seed.
    pub runs: Vec<SimResult>,
}

/// Mean and half-width of a 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// 95 % CI half-width (0 for a single run).
    pub ci95: f64,
}

/// Two-sided Student-t critical values at 95 % for n−1 degrees of
/// freedom, n = 2..=10 (n = 5 → 2.776, the paper's protocol).
const T95: [f64; 9] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
];

impl MultiRun {
    /// Summarize any scalar metric across the replications.
    pub fn summarize<F: Fn(&SimResult) -> f64>(&self, metric: F) -> Summary {
        let xs: Vec<f64> = self.runs.iter().map(metric).collect();
        summarize_samples(&xs)
    }

    /// Fold the replications into one [`SimResult`] carrying `seed`:
    /// each run goes through [`SimResult::merge`] into a zero result,
    /// so exact counters and windows add and attached quantile sketches
    /// merge. The fold is commutative, so the result is byte-identical
    /// for any campaign thread count.
    pub fn merged(&self, seed: u64) -> SimResult {
        let n_flows = self.runs.first().map_or(0, |r| r.flows.len());
        let mut acc = SimResult::new(n_flows, Dur::ZERO, seed);
        for run in &self.runs {
            acc.merge(run);
        }
        acc
    }
}

/// Mean ± t-based 95 % CI of a sample (public for the bench harness).
pub fn summarize_samples(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty());
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Summary { mean, ci95: 0.0 };
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    let t = T95.get(n - 2).copied().unwrap_or(1.96);
    Summary { mean, ci95: t * se }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::flow::{Conformance, FlowId};

    fn tiny_config() -> ExperimentConfig {
        let specs = vec![
            FlowSpec::builder(FlowId(0))
                .peak(Rate::from_mbps(16.0))
                .avg(Rate::from_mbps(2.0))
                .bucket(51_200)
                .token_rate(Rate::from_mbps(2.0))
                .class(Conformance::Conformant)
                .build(),
            FlowSpec::builder(FlowId(1))
                .peak(Rate::from_mbps(40.0))
                .avg(Rate::from_mbps(16.0))
                .bucket(51_200)
                .token_rate(Rate::from_mbps(2.0))
                .mean_burst(5 * 51_200)
                .class(Conformance::Aggressive)
                .build(),
        ];
        ExperimentConfig {
            link_rate: Rate::from_mbps(48.0),
            buffer_bytes: 500_000,
            specs,
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            warmup: Dur::from_secs(1),
            duration: Dur::from_secs(4),
            sojourns: Sojourns::Exponential,
            stats: Default::default(),
            sources: Default::default(),
        }
    }

    #[test]
    fn run_once_is_deterministic_per_seed() {
        let cfg = tiny_config();
        let a = cfg.run_once(3);
        let b = cfg.run_once(3);
        assert_eq!(a.flows, b.flows);
        let c = cfg.run_once(4);
        assert_ne!(a.flows, c.flows);
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let cfg = tiny_config();
        let multi = cfg.run_many(10, 3);
        for (i, run) in multi.runs.iter().enumerate() {
            let solo = cfg.run_once(10 + i as u64);
            assert_eq!(run.flows, solo.flows, "seed {} diverged", 10 + i);
        }
    }

    #[test]
    fn summarize_computes_t_interval() {
        // Known sample: mean 10, sd 1, n = 5 -> CI = 2.776·(1/√5).
        let s = summarize_samples(&[9.0, 9.5, 10.0, 10.5, 11.0]);
        assert!((s.mean - 10.0).abs() < 1e-12);
        let sd = (0.625f64).sqrt(); // sample variance of the set is 0.625
        let expect = 2.776 * sd / 5f64.sqrt();
        assert!((s.ci95 - expect).abs() < 1e-9, "{} vs {expect}", s.ci95);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let s = summarize_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn multirun_metric_extraction() {
        let cfg = tiny_config();
        let multi = cfg.run_many(0, 2);
        let thr = multi.summarize(|r| r.aggregate_throughput_bps());
        assert!(thr.mean > 1e6, "throughput {}", thr.mean);
        // Offered load well above flow 0's reservation but link is
        // uncongested on average (2 + 16 = 18 < 48): decent delivery.
        assert!(thr.mean < 48e6);
    }

    #[test]
    fn cell_seed_modes() {
        let points = [tiny_config()];
        let mut c = Campaign::new(&points);
        c.campaign_seed = 42;
        c.replications = 3;
        // Hashed (default): pure function of all three coordinates, and
        // distinct across both axes.
        assert_eq!(c.cell_seed(0, 1), derive_cell_seed(42, 0, 1));
        assert_ne!(c.cell_seed(0, 1), c.cell_seed(0, 2));
        assert_ne!(c.cell_seed(0, 1), c.cell_seed(1, 1));
        // BaseOffset: the legacy run_many scheme — point-independent.
        c.seed_mode = SeedMode::BaseOffset;
        assert_eq!(c.cell_seed(0, 2), 44);
        assert_eq!(c.cell_seed(7, 2), 44);
    }

    #[test]
    fn campaign_matches_sequential_execution() {
        let mut cfg2 = tiny_config();
        cfg2.buffer_bytes = 250_000;
        let points = [tiny_config(), cfg2];
        let mut c = Campaign::new(&points);
        c.replications = 2;
        c.campaign_seed = 3;
        c.threads = 4;
        let grid = c.run();
        assert_eq!(grid.len(), 2);
        for (p, multi) in grid.iter().enumerate() {
            assert_eq!(multi.runs.len(), 2);
            for (r, run) in multi.runs.iter().enumerate() {
                let solo = points[p].run_once(c.cell_seed(p, r));
                assert_eq!(run, &solo, "cell ({p}, {r}) diverged");
            }
        }
    }

    #[test]
    fn merged_folds_replications() {
        let points = [tiny_config()];
        let mut c = Campaign::new(&points);
        c.replications = 3;
        c.campaign_seed = 11;
        let multi = c.run().pop().unwrap();
        let merged = multi.merged(c.campaign_seed);
        let offered: u64 = multi.runs.iter().map(|r| r.flows[0].offered_pkts).sum();
        assert_eq!(merged.flows[0].offered_pkts, offered);
        let window: Dur = multi
            .runs
            .iter()
            .map(|r| r.window)
            .fold(Dur::ZERO, |a, w| a + w);
        assert_eq!(merged.window, window);
        assert_eq!(merged.seed, 11);
    }

    #[test]
    #[should_panic(expected = "campaign without points")]
    fn empty_campaign_rejected() {
        let _ = Campaign::new(&[]).run();
    }

    #[test]
    fn policy_spec_builders() {
        let specs = tiny_config().specs;
        let link = Rate::from_mbps(48.0);
        let p = PolicySpec::ExplicitThreshold {
            thresholds: vec![1000, 2000],
        }
        .build(10_000, link, &specs);
        assert_eq!(p.threshold(FlowId(1)), Some(2000));
        let p = PolicySpec::ExplicitSharing {
            reserved: vec![1000, 2000],
            headroom_bytes: 500,
        }
        .build(10_000, link, &specs);
        assert_eq!(p.threshold(FlowId(0)), Some(1000));
        assert_eq!(p.name(), "buffer-sharing");
    }
}
