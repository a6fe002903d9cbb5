//! The paper's experiment scenarios, ready to run.
//!
//! * §3.2 (Figures 1–3): four schemes — {FIFO, WFQ} × {no management,
//!   thresholds} — swept over total buffer 0.5–5 MBytes on the Table 1
//!   workload;
//! * §3.3 (Figures 4–6): {FIFO, WFQ} × holes/headroom sharing,
//!   H = 2 MBytes, same sweep; Figure 7 sweeps H at B = 1 MByte;
//! * §4.2 (Figures 8–13): the 3-queue hybrid on Table 1 (Case 1) and
//!   Table 2 (Case 2), with Prop-3 rate assignment and per-queue
//!   thresholds `σⱼ + ρⱼ·Bᵢ/Rᵢ`;
//! * topology generators for the [`Fabric`]: a feed-forward multi-hop
//!   [`line()`], an ISP-style [`aggregation_tree`] (site → access points
//!   → subscribers, download direction) and a datacenter
//!   [`incast_fanin`] (N sender links into one aggregator) — multi-link
//!   shapes the paper's single-point guarantees are evaluated on.

use crate::experiment::{derive_cell_seed, ExperimentConfig, PolicySpec};
use crate::fabric::Fabric;
use crate::router::Router;
use crate::stats::StatsConfig;
use qbm_core::analysis::hybrid::{
    optimal_alphas, per_queue_buffer_eq18, rate_assignment_eq16, Grouping,
};
use qbm_core::flow::{Conformance, FlowId, FlowSpec};
use qbm_core::policy::{BufferPolicy, BufferSharing, PolicyKind};
use qbm_core::units::{ByteSize, Dur, Rate, Time};
use qbm_sched::{Hybrid, SchedKind, Scheduler};
use qbm_traffic::{build_source_kind, AimdConfig, AimdSource, SourceKind};

/// The paper's link rate: 48 Mb/s ("a little over T3 capacity").
pub const LINK_RATE: Rate = Rate::from_bps(48_000_000);

/// §3.3 default headroom: H = 2 MBytes.
pub fn default_headroom() -> u64 {
    ByteSize::from_mib(2).bytes()
}

/// A named (scheduler, policy) pair — one curve in a figure.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Legend label, e.g. `"fifo+thresh"`.
    pub label: String,
    /// Scheduler.
    pub sched: SchedKind,
    /// Admission policy.
    pub policy: PolicySpec,
    /// When set, sweeps use this buffer size regardless of the sweep
    /// variable (Figure 7 sweeps the headroom at a fixed 1 MiB buffer).
    pub buffer_override: Option<u64>,
}

impl Scheme {
    /// A scheme with no buffer override.
    pub fn new(label: &str, sched: SchedKind, policy: PolicySpec) -> Scheme {
        Scheme {
            label: label.to_string(),
            sched,
            policy,
            buffer_override: None,
        }
    }
}

/// The four §3.2 schemes of Figures 1–3.
pub fn section3_schemes() -> Vec<Scheme> {
    vec![
        Scheme::new(
            "fifo+none",
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::None),
        ),
        Scheme::new(
            "wfq+none",
            SchedKind::Wfq,
            PolicySpec::Kind(PolicyKind::None),
        ),
        Scheme::new(
            "fifo+thresh",
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::Threshold),
        ),
        Scheme::new(
            "wfq+thresh",
            SchedKind::Wfq,
            PolicySpec::Kind(PolicyKind::Threshold),
        ),
    ]
}

/// The §3.3 sharing schemes of Figures 4–6 (plus the no-management
/// baselines the paper recalls for the utilization comparison).
pub fn sharing_schemes(headroom_bytes: u64) -> Vec<Scheme> {
    vec![
        Scheme::new(
            "fifo+none",
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::None),
        ),
        Scheme::new(
            "wfq+none",
            SchedKind::Wfq,
            PolicySpec::Kind(PolicyKind::None),
        ),
        Scheme::new(
            "fifo+sharing",
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes }),
        ),
        Scheme::new(
            "wfq+sharing",
            SchedKind::Wfq,
            PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes }),
        ),
    ]
}

/// The figures' buffer sweep: 0.5–5 MBytes.
pub fn buffer_sweep() -> Vec<u64> {
    [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]
        .iter()
        .map(|&m| ByteSize::from_mib_f64(m).bytes())
        .collect()
}

/// Figure 7's headroom sweep. The paper fixes B = 1 MByte; our
/// implementation already achieves zero conformant loss there, so the
/// repo's fig7 runs at [`fig7_buffer`] (256 KBytes), where the
/// headroom's protective effect is measurable — same shape, shifted
/// operating point (see EXPERIMENTS.md).
pub fn headroom_sweep() -> Vec<u64> {
    [0u64, 16, 32, 64, 128, 192, 256]
        .iter()
        .map(|&k| ByteSize::from_kib(k).bytes())
        .collect()
}

/// The buffer size Figure 7 is evaluated at (see [`headroom_sweep`]).
pub fn fig7_buffer() -> u64 {
    ByteSize::from_kib(256).bytes()
}

/// Case 1 grouping (§4.2): Table 1 flows {0,1,2}, {3,4,5}, {6,7,8}.
pub fn case1_grouping() -> Grouping {
    Grouping::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3)
}

/// Case 2 grouping (§4.2): Table 2 flows {0–9}, {10–19}, {20–29}.
pub fn case2_grouping() -> Grouping {
    let mut a = vec![0usize; 30];
    for (f, q) in a.iter_mut().enumerate() {
        *q = f / 10;
    }
    Grouping::new(a, 3)
}

/// Everything derived for a hybrid configuration — exposed so examples
/// and the bench harness can print the planning table.
#[derive(Debug, Clone)]
pub struct HybridPlan {
    /// Flow → queue assignment.
    pub grouping: Grouping,
    /// Eq. 14 optimal excess split.
    pub alphas: Vec<f64>,
    /// Eq. 16 per-queue service rates, b/s.
    pub queue_rates_bps: Vec<u64>,
    /// Eq. 18 minimum per-queue buffers, bytes.
    pub queue_min_buffers: Vec<f64>,
    /// Actual per-queue buffer shares after partitioning `B`, bytes.
    pub queue_buffers: Vec<u64>,
    /// Per-flow thresholds `σⱼ + ρⱼ·Bᵢ/Rᵢ`, bytes.
    pub flow_thresholds: Vec<u64>,
}

/// Plan the §4.2 hybrid: Prop-3 rates, proportional buffer partition,
/// per-queue flow thresholds (see §4.2's Case 1 description).
pub fn plan_hybrid(specs: &[FlowSpec], grouping: &Grouping, buffer_bytes: u64) -> HybridPlan {
    plan_hybrid_at(LINK_RATE, specs, grouping, buffer_bytes)
}

/// [`plan_hybrid`] for an arbitrary link rate — the generated
/// topologies ([`subscriber_tree`]) size their core link to the
/// aggregate reservation instead of the paper's fixed 48 Mb/s.
pub fn plan_hybrid_at(
    link_rate: Rate,
    specs: &[FlowSpec],
    grouping: &Grouping,
    buffer_bytes: u64,
) -> HybridPlan {
    let profiles = grouping.profiles(specs);
    let alphas = optimal_alphas(&profiles);
    let r = link_rate.bps() as f64;
    let rates = rate_assignment_eq16(r, &profiles, &alphas);
    let rho: f64 = profiles.iter().map(|g| g.rho_bps).sum();
    let s_total: f64 = profiles.iter().map(|g| g.s_term()).sum();
    let min_buffers: Vec<f64> = profiles
        .iter()
        .map(|g| per_queue_buffer_eq18(g, s_total, r - rho))
        .collect();
    let min_total: f64 = min_buffers.iter().sum();
    // Partition B in proportion to the minimum requirements.
    let queue_buffers: Vec<u64> = min_buffers
        .iter()
        .map(|m| (buffer_bytes as f64 * m / min_total).round() as u64)
        .collect();
    // Flow j in queue i: σⱼ + ρⱼ·Bᵢ/Rᵢ.
    let flow_thresholds: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let q = grouping.assignment[spec.id.index()];
            let t = spec.bucket_bytes as f64
                + spec.token_rate.bps() as f64 * queue_buffers[q] as f64 / rates[q];
            t.round() as u64
        })
        .collect();
    HybridPlan {
        grouping: grouping.clone(),
        alphas,
        queue_rates_bps: rates.iter().map(|&x| x.round() as u64).collect(),
        queue_min_buffers: min_buffers,
        queue_buffers,
        flow_thresholds,
    }
}

/// The §4.2 schemes of Figures 8–13: the hybrid against per-flow WFQ
/// and single FIFO, all with buffer sharing.
pub fn hybrid_schemes(
    specs: &[FlowSpec],
    grouping: &Grouping,
    buffer_bytes: u64,
    headroom_bytes: u64,
) -> Vec<Scheme> {
    let plan = plan_hybrid(specs, grouping, buffer_bytes);
    vec![
        Scheme::new(
            "fifo+sharing",
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes }),
        ),
        Scheme::new(
            "wfq+sharing",
            SchedKind::Wfq,
            PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes }),
        ),
        Scheme::new(
            "hybrid+sharing",
            SchedKind::Hybrid {
                assignment: plan.grouping.assignment.clone(),
                queue_rates_bps: plan.queue_rates_bps.clone(),
            },
            PolicySpec::ExplicitSharing {
                reserved: plan.flow_thresholds.clone(),
                headroom_bytes,
            },
        ),
    ]
}

/// Assemble a full experiment for one scheme × buffer point with the
/// repo's standard measurement protocol (2 s warmup, 22 s total — long
/// enough for every flow's ON-OFF process to cycle hundreds of times).
pub fn paper_experiment(
    specs: &[FlowSpec],
    scheme: &Scheme,
    buffer_bytes: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        link_rate: LINK_RATE,
        buffer_bytes,
        specs: specs.to_vec(),
        sched: scheme.sched.clone(),
        policy: scheme.policy.clone(),
        warmup: Dur::from_secs(2),
        duration: Dur::from_secs(22),
        sojourns: qbm_traffic::Sojourns::Exponential,
        stats: StatsConfig::default(),
        sources: Default::default(),
    }
}

/// Per-link knobs shared by the topology generators: every link gets
/// the same scheduler/policy family and buffer, sized by its own rate
/// and flow set.
#[derive(Debug, Clone)]
pub struct LinkProfile {
    /// Buffer at each link, bytes.
    pub buffer_bytes: u64,
    /// Scheduler family at each link.
    pub sched: SchedKind,
    /// Admission policy family at each link.
    pub policy: PolicySpec,
    /// Streaming-statistics attachments for every link's collector.
    pub stats: StatsConfig,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            buffer_bytes: ByteSize::from_mib(1).bytes(),
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            stats: StatsConfig::default(),
        }
    }
}

/// Renumber `specs` so flow ids are the per-link indices `0..n` — each
/// fabric link's statistics and scheduler lanes are indexed by its own
/// flow ids, not any global numbering.
fn renumber(specs: &[FlowSpec]) -> Vec<FlowSpec> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut s = *s;
            s.id = FlowId(i as u32);
            s
        })
        .collect()
}

/// Build one fabric link from its (renumbered) spec list: `sources`
/// feed the first flows, and every flow past them is a source-less
/// relay flow, whose packets the fabric delivers from the upstream
/// departure log.
fn topology_link(
    rate: Rate,
    specs: &[FlowSpec],
    sources: Vec<SourceKind>,
    p: &LinkProfile,
) -> Router {
    let policy = p.policy.build(p.buffer_bytes, rate, specs);
    let sched = p.sched.build(rate, specs);
    let relays = specs.len() - sources.len();
    Router::relaying(rate, policy, sched, sources, relays).with_stats(p.stats)
}

/// A feed-forward multi-hop line: the path graph, an extension of the
/// paper's single multiplexing point. Hop `i` is a link at `hops[i].0`
/// with `hops[i].1`'s buffer, scheduler and policy, and every hop
/// multiplexes all of `specs` (numbered `0..n`). Hop 0 originates the
/// traffic with `build_source_kind(spec, seed)`; hop `i+1`'s flow `f`
/// relays hop `i`'s flow `f`, replaying its departures.
///
/// The composition facts the tests establish:
/// * a same-rate downstream hop adds no loss — FIFO output is already
///   serialized at the link rate, so hop 2's queue never exceeds one
///   packet per simultaneous upstream;
/// * at a slower downstream bottleneck, per-hop thresholds keep
///   protecting conformant flows, provided each hop passes its own
///   Eq. 9 admission check with the *downstream* rates.
///
/// Link indices are hop indices.
pub fn line(specs: &[FlowSpec], hops: &[(Rate, LinkProfile)], seed: u64) -> Fabric {
    assert!(!hops.is_empty(), "empty line");
    let mut fabric = Fabric::new();
    for (i, (rate, profile)) in hops.iter().enumerate() {
        let sources = if i == 0 {
            specs.iter().map(|s| build_source_kind(s, seed)).collect()
        } else {
            Vec::new()
        };
        let link = fabric.add_link(topology_link(*rate, specs, sources, profile));
        if i > 0 {
            for f in 0..specs.len() as u32 {
                fabric.connect(link - 1, f, link, f);
            }
        }
    }
    fabric
}

/// An ISP-style aggregation tree in the download direction (the
/// LibreQoS shape): one site link fans out to `aps` access-point
/// links, each fanning out to `subs_per_ap` subscriber links. Every
/// subscriber receives one copy of `specs` (its download mix), so the
/// site link multiplexes `aps·subs_per_ap·specs.len()` flows, each AP
/// `subs_per_ap·specs.len()`, each subscriber `specs.len()`.
///
/// Traffic originates at the site link: flow `(d, k)` (subscriber `d`,
/// spec `k`) gets an independent source stream seeded with the pure
/// derivation `derive_cell_seed(seed, d, k)` — the same discipline
/// campaign cells use, so topology size and shard count never
/// influence any stream. AP and subscriber links relay.
///
/// Link indices: 0 = site, `1..=aps` = APs, then subscribers in
/// `(ap, sub)` order.
pub fn aggregation_tree(
    aps: usize,
    subs_per_ap: usize,
    specs: &[FlowSpec],
    rates: [Rate; 3],
    profile: &LinkProfile,
    seed: u64,
) -> Fabric {
    assert!(
        aps > 0 && subs_per_ap > 0 && !specs.is_empty(),
        "empty tree"
    );
    let [site_rate, ap_rate, sub_rate] = rates;
    let k = specs.len();
    let mut fabric = Fabric::new();

    // Site link: every subscriber's mix, with per-(subscriber, spec)
    // seeded sources.
    let site_specs: Vec<FlowSpec> = (0..aps * subs_per_ap)
        .flat_map(|_| specs.iter().cloned())
        .collect();
    let site_specs = renumber(&site_specs);
    let site_sources: Vec<SourceKind> = site_specs
        .iter()
        .map(|s| {
            let (d, kk) = (s.id.index() / k, s.id.index() % k);
            build_source_kind(s, derive_cell_seed(seed, d as u64, kk as u64))
        })
        .collect();
    let site = fabric.add_link(topology_link(site_rate, &site_specs, site_sources, profile));

    // AP links relay their subscribers' flows.
    let ap_specs = renumber(
        &(0..subs_per_ap)
            .flat_map(|_| specs.iter().cloned())
            .collect::<Vec<_>>(),
    );
    let mut ap_links = Vec::with_capacity(aps);
    for a in 0..aps {
        let ap = fabric.add_link(topology_link(ap_rate, &ap_specs, Vec::new(), profile));
        ap_links.push(ap);
        for h in 0..ap_specs.len() as u32 {
            fabric.connect(site, (a * subs_per_ap * k) as u32 + h, ap, h);
        }
    }

    // Subscriber links relay their own mix from their AP.
    let sub_specs = renumber(specs);
    for &ap in ap_links.iter().take(aps) {
        for s in 0..subs_per_ap {
            let sub = fabric.add_link(topology_link(sub_rate, &sub_specs, Vec::new(), profile));
            for f in 0..k as u32 {
                fabric.connect(ap, (s * k) as u32 + f, sub, f);
            }
        }
    }
    fabric
}

/// A datacenter incast fan-in (the shape of partition/aggregate
/// traffic): `senders` independent links each carrying one copy of
/// `specs`, all draining into a single aggregator link that
/// multiplexes every flow through one shared buffer — the
/// configuration where buffer management earns its keep.
///
/// Sources live on the sender links, seeded
/// `derive_cell_seed(seed, sender, spec)`; the aggregator relays.
/// Link indices: `0..senders` = senders, `senders` = aggregator.
pub fn incast_fanin(
    senders: usize,
    specs: &[FlowSpec],
    sender_rate: Rate,
    agg_rate: Rate,
    profile: &LinkProfile,
    seed: u64,
) -> Fabric {
    assert!(senders > 0 && !specs.is_empty(), "empty incast");
    let k = specs.len();
    let mut fabric = Fabric::new();
    let sender_specs = renumber(specs);
    for i in 0..senders {
        let sources: Vec<SourceKind> = sender_specs
            .iter()
            .map(|s| build_source_kind(s, derive_cell_seed(seed, i as u64, s.id.index() as u64)))
            .collect();
        fabric.add_link(topology_link(sender_rate, &sender_specs, sources, profile));
    }
    let agg_specs = renumber(
        &(0..senders)
            .flat_map(|_| specs.iter().cloned())
            .collect::<Vec<_>>(),
    );
    let agg = fabric.add_link(topology_link(agg_rate, &agg_specs, Vec::new(), profile));
    for i in 0..senders as u32 {
        for f in 0..k as u32 {
            fabric.connect(i, f, agg, i * k as u32 + f);
        }
    }
    fabric
}

/// Epoch length for the closed-loop topologies. Cross-link feedback is
/// applied at the epoch horizon (see DESIGN.md §16), so the epoch must
/// be short against the AIMD recovery timeout (5 ms by default) for
/// the control loop to see losses promptly.
pub const CLOSED_LOOP_EPOCH: Dur = Dur::from_millis(1);

/// `min_cwnd` of the designated aggressive sender in
/// [`incast_closed_loop`]: it never closes its window below this,
/// modelling a non-compliant stack that shrugs off congestion signals.
pub const AGGRESSIVE_MIN_CWND: u32 = 64;

/// A datacenter incast with *closed-loop* senders, in the style of the
/// partition/aggregate configuration: `senders` links each carrying
/// one ack-clocked AIMD flow, all synchronized at `t = 0` (the incast
/// pathology), draining into one aggregator link whose shared buffer
/// is the management point. Sender 0 is a designated aggressive flow
/// — its window never drops below [`AGGRESSIVE_MIN_CWND`] — while the
/// rest respond to loss normally, so the topology asks the paper's
/// question of a reactive workload: does the buffer policy confine the
/// firehose to its share, or does FIFO-with-no-management let it win?
///
/// Each flow's reservation is the fair share `agg_rate / senders`
/// (16 KiB bucket); the aggressive flow is classed
/// [`Conformance::Aggressive`], the rest conformant/adaptive. There is
/// no seed parameter: AIMD emission is a pure function of feedback, so
/// the whole fabric is deterministic by construction. The epoch is
/// [`CLOSED_LOOP_EPOCH`] — results are byte-identical at any shard
/// count, but (unlike open-loop fabrics) *not* across epoch lengths,
/// because feedback latency quantizes to the epoch.
///
/// Link indices: `0..senders` = senders, `senders` = aggregator.
pub fn incast_closed_loop(senders: usize, agg_rate: Rate, profile: &LinkProfile) -> Fabric {
    assert!(senders > 0, "empty incast");
    let share = Rate::from_bps((agg_rate.bps() / senders as u64).max(1));
    let bucket = ByteSize::from_kib(16).bytes();
    let spec_for = |i: usize| {
        let b = FlowSpec::builder(FlowId(i as u32))
            .bucket(bucket)
            .token_rate(share)
            .peak(agg_rate);
        if i == 0 {
            b.class(Conformance::Aggressive).build()
        } else {
            b.class(Conformance::Conformant).adaptive(true).build()
        }
    };
    let mut fabric = Fabric::new().with_epoch(CLOSED_LOOP_EPOCH);
    for i in 0..senders {
        let cfg = if i == 0 {
            AimdConfig {
                init_cwnd: AGGRESSIVE_MIN_CWND,
                min_cwnd: AGGRESSIVE_MIN_CWND,
                ..AimdConfig::default()
            }
        } else {
            AimdConfig::default()
        };
        let spec = renumber(&[spec_for(i)]);
        let sources = vec![SourceKind::from(AimdSource::new(cfg))];
        fabric.add_link(topology_link(agg_rate, &spec, sources, profile));
    }
    let agg_specs = renumber(&(0..senders).map(spec_for).collect::<Vec<_>>());
    let agg = fabric.add_link(topology_link(agg_rate, &agg_specs, Vec::new(), profile));
    for i in 0..senders as u32 {
        fabric.connect(i, 0, agg, i);
    }
    fabric
}

/// Number of subscriber-plan tiers in [`subscriber_plans`].
pub const PLAN_TIERS: usize = 5;

/// Token rate of the lowest [`subscriber_plans`] tier, b/s; each tier
/// doubles it.
pub const PLAN_BASE_BPS: u64 = 64_000;

/// Shape of a generated [`subscriber_tree`] hierarchy:
/// `sites × aps_per_site × subs_per_ap` subscriber flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberTreeShape {
    /// Core-router egress sites (the hybrid's FIFO queues).
    pub sites: usize,
    /// Access points per site.
    pub aps_per_site: usize,
    /// Subscriber plans (flows) per access point.
    pub subs_per_ap: usize,
}

impl SubscriberTreeShape {
    /// Total subscriber flow count.
    pub fn flows(&self) -> usize {
        self.sites * self.aps_per_site * self.subs_per_ap
    }

    /// A deployment-proportioned shape holding at least `n_flows`
    /// subscribers (exact when `n_flows` divides the site×AP grid):
    /// small runs use a 4-site × 5-AP grid, ISP runs a 25-site ×
    /// 20-AP grid, and the subscriber count scales per AP — so the
    /// link count stays in the hundreds even at 10⁶ flows.
    pub fn for_flows(n_flows: usize) -> SubscriberTreeShape {
        assert!(n_flows > 0, "empty subscriber tree");
        let (sites, aps_per_site) = if n_flows < 1000 { (4, 5) } else { (25, 20) };
        SubscriberTreeShape {
            sites,
            aps_per_site,
            subs_per_ap: n_flows.div_ceil(sites * aps_per_site).max(1),
        }
    }
}

/// Generate `n` heavy-tailed subscriber plans. Plan tiers follow a
/// truncated geometric frequency law — tier `t` has frequency `2⁻ᵗ⁻¹`
/// (the top tier absorbs the tail), with the token rate doubling per
/// tier from [`PLAN_BASE_BPS`] — so a few heavy plans dominate the
/// aggregate the way real subscriber mixes do. Every fifth plan is an
/// aggressive one offering twice its reservation in 4×-bucket bursts;
/// the rest are shaped conformant. The mapping is a pure function of
/// the subscriber index: no entropy, identical at any shard count.
pub fn subscriber_plans(n: usize) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| {
            let tier = (((i + 1).trailing_zeros()) as usize).min(PLAN_TIERS - 1);
            let rate = Rate::from_bps(PLAN_BASE_BPS << tier);
            let bucket = ByteSize::from_kib(16).bytes();
            let b = FlowSpec::builder(FlowId(i as u32))
                .bucket(bucket)
                .token_rate(rate);
            if i % 5 == 3 {
                b.peak(Rate::from_bps(rate.bps() * 8))
                    .avg(Rate::from_bps(rate.bps() * 2))
                    .mean_burst(4 * bucket)
                    .class(Conformance::Aggressive)
                    .build()
            } else {
                b.peak(Rate::from_bps(rate.bps() * 4))
                    .class(Conformance::Conformant)
                    .adaptive(true)
                    .build()
            }
        })
        .collect()
}

/// An ISP-scale subscriber hierarchy feeding the §4 hybrid
/// architecture: one core link runs per-site FIFO queues under WFQ
/// (flow → site assignment, Prop-3 rates from [`plan_hybrid_at`] over
/// the generated plans), fanning out to per-site links and per-AP
/// links that relay. Subscribers are *flows* on their AP link, not
/// links of their own, so the fabric stays a few hundred links wide
/// while the flow count sweeps 10²–10⁶ ([`SubscriberTreeShape`]).
///
/// Plans come from [`subscriber_plans`]; flow `g` (site-major,
/// AP-major order) gets the pure seed `derive_cell_seed(seed, g, 0)`.
/// Capacity tapers toward the core the way deployments are
/// provisioned: the core carries 1.25× the aggregate reservation,
/// each site link 1.5× its site's reservation, each AP link 2× — so
/// the core is the contended buffer-management point while the edge
/// stays uncongested.
///
/// The core keeps the given `profile`'s buffer and stats but replaces
/// its scheduler/policy with the planned hybrid and its Eq. 18 flow
/// thresholds under sharing (headroom = buffer/8); relay links use
/// `profile` as-is. Link indices: 0 = core, `1..=sites` = sites, then
/// APs in `(site, ap)` order.
pub fn subscriber_tree(shape: SubscriberTreeShape, profile: &LinkProfile, seed: u64) -> Fabric {
    subscriber_tree_impl(shape, profile, seed, false)
}

/// [`subscriber_tree`] with *closed-loop* subscribers: every plan's
/// open-loop source is replaced by a paced AIMD source whose pace is
/// the plan's peak rate — each subscriber overdrives its reservation
/// until drops at the core push its window down. Starts are staggered
/// by one microsecond per subscriber index to break the synchronized
/// slam the open-loop tree doesn't have to worry about. Deterministic
/// with no seed (AIMD emission is a pure function of feedback); runs
/// on the [`CLOSED_LOOP_EPOCH`], so results are shard-invariant but
/// epoch-sensitive (see DESIGN.md §16).
pub fn subscriber_tree_closed_loop(shape: SubscriberTreeShape, profile: &LinkProfile) -> Fabric {
    subscriber_tree_impl(shape, profile, 0, true)
}

fn subscriber_tree_impl(
    shape: SubscriberTreeShape,
    profile: &LinkProfile,
    seed: u64,
    closed_loop: bool,
) -> Fabric {
    assert!(
        shape.sites > 0 && shape.aps_per_site > 0 && shape.subs_per_ap > 0,
        "empty tree"
    );
    let n = shape.flows();
    let per_site = shape.aps_per_site * shape.subs_per_ap;
    let specs = subscriber_plans(n);

    // Capacity taper (integer math, reservation-proportional).
    let site_rho: Vec<u64> = (0..shape.sites)
        .map(|s| {
            specs[s * per_site..(s + 1) * per_site]
                .iter()
                .map(|f| f.token_rate.bps())
                .sum()
        })
        .collect();
    let total_rho: u64 = site_rho.iter().sum();
    let core_rate = Rate::from_bps(total_rho * 5 / 4);

    // Per-site FIFO under WFQ at the core, with Eq. 14/16/18 planning
    // over the generated plans.
    // The plan's per-flow vectors move into the core's scheduler and
    // policy: at 10⁵ flows each is 0.8 MB, and a copy would outlive
    // the build only as allocator slack.
    let grouping = Grouping::new((0..n).map(|g| g / per_site).collect(), shape.sites);
    let plan = plan_hybrid_at(core_rate, &specs, &grouping, profile.buffer_bytes);
    drop(grouping);
    let core_sched: Box<dyn Scheduler> = Box::new(Hybrid::new(
        core_rate,
        plan.grouping.assignment,
        plan.queue_rates_bps,
    ));
    let core_policy: Box<dyn BufferPolicy> = Box::new(BufferSharing::with_reserved(
        profile.buffer_bytes,
        plan.flow_thresholds,
        profile.buffer_bytes / 8,
    ));

    let mut fabric = Fabric::new();
    if closed_loop {
        fabric = fabric.with_epoch(CLOSED_LOOP_EPOCH);
    }
    let core_sources: Vec<SourceKind> = specs
        .iter()
        .map(|s| {
            if closed_loop {
                let g = s.id.index() as u64;
                SourceKind::from(AimdSource::new(AimdConfig {
                    start: Time::ZERO + Dur::from_micros(g),
                    pace: Some(s.peak),
                    ..AimdConfig::default()
                }))
            } else {
                build_source_kind(s, derive_cell_seed(seed, s.id.index() as u64, 0))
            }
        })
        .collect();
    let core = fabric.add_link(
        Router::relaying(core_rate, core_policy, core_sched, core_sources, 0)
            .with_stats(profile.stats),
    );

    // Site links relay their contiguous block of subscriber flows.
    let mut site_links = Vec::with_capacity(shape.sites);
    for s in 0..shape.sites {
        let block = renumber(&specs[s * per_site..(s + 1) * per_site]);
        let rate = Rate::from_bps(site_rho[s] * 3 / 2);
        let link = fabric.add_link(topology_link(rate, &block, Vec::new(), profile));
        site_links.push(link);
        for h in 0..per_site as u32 {
            fabric.connect(core, (s * per_site) as u32 + h, link, h);
        }
    }

    // AP links relay their slice of the site block.
    for (s, &site) in site_links.iter().enumerate() {
        for a in 0..shape.aps_per_site {
            let lo = s * per_site + a * shape.subs_per_ap;
            let block = renumber(&specs[lo..lo + shape.subs_per_ap]);
            let rho: u64 = block.iter().map(|f| f.token_rate.bps()).sum();
            let ap = fabric.add_link(topology_link(
                Rate::from_bps(rho * 2),
                &block,
                Vec::new(),
                profile,
            ));
            for f in 0..shape.subs_per_ap as u32 {
                fabric.connect(site, (a * shape.subs_per_ap) as u32 + f, ap, f);
            }
        }
    }
    fabric
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_traffic::{table1, table2};

    #[test]
    fn scheme_lists_cover_the_figures() {
        let s3 = section3_schemes();
        assert_eq!(s3.len(), 4);
        assert!(s3.iter().any(|s| s.label == "fifo+thresh"));
        let sh = sharing_schemes(default_headroom());
        assert!(sh.iter().any(|s| s.label == "wfq+sharing"));
        assert_eq!(buffer_sweep().len(), 8);
        assert_eq!(buffer_sweep()[0], ByteSize::from_kib(512).bytes());
    }

    #[test]
    fn case_groupings_are_valid() {
        let g1 = case1_grouping();
        assert_eq!(g1.members()[2], vec![6, 7, 8]);
        let g2 = case2_grouping();
        assert_eq!(g2.members()[1], (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn hybrid_plan_case1_consistency() {
        let specs = table1();
        let plan = plan_hybrid(&specs, &case1_grouping(), ByteSize::from_mib(2).bytes());
        // Rates cover reservations and sum to the link rate.
        let total: u64 = plan.queue_rates_bps.iter().sum();
        assert!((total as i64 - LINK_RATE.bps() as i64).abs() <= 3);
        let profiles = case1_grouping().profiles(&specs);
        for (r, g) in plan.queue_rates_bps.iter().zip(&profiles) {
            assert!(*r as f64 > g.rho_bps);
        }
        // Buffer partition exhausts B (rounding ±k bytes).
        let b_sum: u64 = plan.queue_buffers.iter().sum();
        assert!((b_sum as i64 - ByteSize::from_mib(2).bytes() as i64).abs() <= 3);
        // Each flow's threshold ≥ its burst.
        for (spec, &t) in specs.iter().zip(&plan.flow_thresholds) {
            assert!(t >= spec.bucket_bytes);
        }
        // α for the bursty aggressive group (low ρ̂, σ̂ comparable)
        // differs from the conformant groups.
        assert!((plan.alphas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_plan_case2_runs() {
        let specs = table2();
        let plan = plan_hybrid(&specs, &case2_grouping(), ByteSize::from_mib(3).bytes());
        assert_eq!(plan.flow_thresholds.len(), 30);
        assert_eq!(plan.queue_rates_bps.len(), 3);
    }

    #[test]
    fn hybrid_schemes_build_and_run_briefly() {
        let specs = table1();
        let schemes = hybrid_schemes(
            &specs,
            &case1_grouping(),
            ByteSize::from_mib(1).bytes(),
            ByteSize::from_kib(256).bytes(),
        );
        assert_eq!(schemes.len(), 3);
        // Smoke-run the hybrid scheme for half a simulated second.
        let mut cfg = paper_experiment(&specs, &schemes[2], ByteSize::from_mib(1).bytes());
        cfg.warmup = Dur::from_millis(100);
        cfg.duration = Dur::from_millis(600);
        let res = cfg.run_once(1);
        let delivered: u64 = res.flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(delivered > 100, "hybrid delivered only {delivered} packets");
    }

    #[test]
    fn aggregation_tree_is_shard_invariant_and_conserves() {
        use qbm_core::units::Time;
        let specs = &table1()[..3];
        let rates = [LINK_RATE, Rate::from_mbps(24.0), Rate::from_mbps(16.0)];
        let run = |threads| {
            aggregation_tree(2, 2, specs, rates, &LinkProfile::default(), 7).run(
                7,
                Time::from_secs_f64(0.2),
                Time::from_secs(1),
                threads,
            )
        };
        let (serial, sharded) = (run(1), run(4));
        assert_eq!(serial, sharded, "shard count changed tree results");
        assert_eq!(serial.len(), 1 + 2 + 4);
        // Conservation: subscribers deliver what the site sent them
        // (minus in-flight edge packets per relay stage).
        let site: u64 = serial[0].flows.iter().map(|f| f.delivered_pkts).sum();
        let subs: u64 = serial[3..]
            .iter()
            .flat_map(|r| r.flows.iter().map(|f| f.delivered_pkts))
            .sum();
        assert!(site > 100, "site barely delivered: {site}");
        assert!(
            site.abs_diff(subs) <= (3 * specs.len() * 4) as u64 * 2,
            "tree lost packets without dropping: site {site} vs subs {subs}"
        );
    }

    #[test]
    fn incast_aggregator_multiplexes_all_senders() {
        use qbm_core::units::Time;
        let specs = &table1()[..2];
        let fabric = incast_fanin(
            3,
            specs,
            LINK_RATE,
            Rate::from_mbps(40.0),
            &LinkProfile::default(),
            11,
        );
        let res = fabric.run(11, Time::from_secs_f64(0.2), Time::from_secs(1), 2);
        assert_eq!(res.len(), 4);
        assert_eq!(res[3].flows.len(), 6);
        let agg: u64 = res[3].flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(agg > 100, "aggregator barely delivered: {agg}");
    }

    #[test]
    fn closed_loop_incast_is_shard_invariant_and_reports_aimd() {
        use qbm_core::units::Time;
        let run = |threads| {
            incast_closed_loop(4, Rate::from_mbps(40.0), &LinkProfile::default()).run(
                3,
                Time::from_secs_f64(0.1),
                Time::from_secs_f64(0.6),
                threads,
            )
        };
        let (serial, sharded) = (run(1), run(4));
        assert_eq!(serial, sharded, "shard count changed closed-loop results");
        assert_eq!(serial.len(), 5);
        // Every sender link harvested its AIMD counters; the relays
        // carry none.
        for r in &serial[..4] {
            let aimd = r.aimd.as_ref().expect("sender link has AIMD flows");
            assert_eq!(aimd.len(), 1);
            let (_, stats) = aimd[0];
            assert!(stats.final_cwnd >= 1);
        }
        assert!(serial[4].aimd.is_none(), "relay link grew AIMD stats");
        let agg: u64 = serial[4].flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(agg > 100, "aggregator barely delivered: {agg}");
    }

    #[test]
    fn closed_loop_senders_react_to_loss() {
        use qbm_core::units::Time;
        // A 4:1 overload at a small buffer must produce losses, and
        // the responsive senders must register them as loss events
        // (the control loop is actually closed across the fabric).
        let profile = LinkProfile {
            buffer_bytes: ByteSize::from_kib(32).bytes(),
            ..LinkProfile::default()
        };
        let res = incast_closed_loop(4, Rate::from_mbps(8.0), &profile).run(
            3,
            Time::from_secs_f64(0.1),
            Time::from_secs(1),
            1,
        );
        let losses: u64 = res[..4]
            .iter()
            .flat_map(|r| r.aimd.iter().flatten())
            .map(|&(_, s)| s.loss_events)
            .sum();
        assert!(losses > 0, "overloaded incast produced no loss events");
    }

    #[test]
    fn closed_loop_subscriber_tree_runs_shard_invariant() {
        use qbm_core::units::Time;
        let shape = SubscriberTreeShape::for_flows(100);
        let run = |threads| {
            subscriber_tree_closed_loop(shape, &LinkProfile::default()).run(
                13,
                Time::from_secs_f64(0.1),
                Time::from_secs_f64(0.5),
                threads,
            )
        };
        let (serial, sharded) = (run(1), run(4));
        assert_eq!(serial, sharded, "shard count changed tree results");
        let core = &serial[0];
        let aimd = core.aimd.as_ref().expect("closed-loop core has AIMD flows");
        assert_eq!(aimd.len(), 100);
        let delivered: u64 = core.flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(delivered > 100, "core barely delivered: {delivered}");
    }

    #[test]
    fn subscriber_plans_are_heavy_tailed_and_deterministic() {
        let plans = subscriber_plans(1024);
        assert_eq!(plans, subscriber_plans(1024));
        // Tier frequencies follow the truncated geometric law.
        let top = Rate::from_bps(PLAN_BASE_BPS << (PLAN_TIERS - 1));
        let heavy = plans.iter().filter(|p| p.token_rate == top).count();
        let light = plans
            .iter()
            .filter(|p| p.token_rate.bps() == PLAN_BASE_BPS)
            .count();
        assert_eq!(light, 512, "base tier is half the population");
        assert_eq!(heavy, 64, "top tier absorbs the 2⁻⁵ tail");
        // Heavy tail: the top tier out-weighs the base tier in rate.
        assert!(heavy as u64 * top.bps() > light as u64 * PLAN_BASE_BPS);
        let aggressive = plans
            .iter()
            .filter(|p| p.class == Conformance::Aggressive)
            .count();
        assert!((200..=205).contains(&aggressive), "{aggressive}");
    }

    #[test]
    fn subscriber_shape_scales_and_covers() {
        for n in [100, 1_000, 10_000, 1_000_000] {
            let shape = SubscriberTreeShape::for_flows(n);
            assert_eq!(shape.flows(), n, "exact at the decade points");
        }
        assert!(SubscriberTreeShape::for_flows(137).flows() >= 137);
        // Link count stays in the hundreds at a million flows.
        let big = SubscriberTreeShape::for_flows(1_000_000);
        assert_eq!(1 + big.sites + big.sites * big.aps_per_site, 526);
    }

    #[test]
    fn subscriber_tree_is_shard_invariant_and_delivers() {
        use qbm_core::units::Time;
        let shape = SubscriberTreeShape::for_flows(100);
        let run = |threads| {
            subscriber_tree(shape, &LinkProfile::default(), 13).run(
                13,
                Time::from_secs_f64(0.2),
                Time::from_secs(1),
                threads,
            )
        };
        let (serial, sharded) = (run(1), run(4));
        assert_eq!(serial, sharded, "shard count changed tree results");
        assert_eq!(serial.len(), 1 + 4 + 20);
        let core: u64 = serial[0].flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(core > 100, "core barely delivered: {core}");
        // Every AP relay delivers something — the tree is fully wired.
        let aps: u64 = serial[5..]
            .iter()
            .flat_map(|r| r.flows.iter().map(|f| f.delivered_pkts))
            .sum();
        assert!(
            core.abs_diff(aps) <= 2 * 100 * 2,
            "tree lost packets without dropping: core {core} vs aps {aps}"
        );
    }

    /// One FIFO hop of a [`line()`] at `rate` with `buffer` bytes.
    fn hop(rate: Rate, buffer: u64, policy: PolicyKind) -> (Rate, LinkProfile) {
        let profile = LinkProfile {
            buffer_bytes: buffer,
            policy: PolicySpec::Kind(policy),
            ..LinkProfile::default()
        };
        (rate, profile)
    }

    #[test]
    fn same_rate_second_hop_adds_no_loss() {
        let specs = table1();
        let b = ByteSize::from_mib(2).bytes();
        let hops = vec![
            hop(LINK_RATE, b, PolicyKind::Threshold),
            // Tiny buffer suffices downstream: arrivals are already
            // serialized at exactly the link rate.
            hop(LINK_RATE, ByteSize::from_kib(8).bytes(), PolicyKind::None),
        ];
        let res = line(&specs, &hops, 1).run(1, Time::from_secs(1), Time::from_secs(6), 1);
        assert_eq!(res.len(), 2);
        let hop2_drops: u64 = res[1].flows.iter().map(|f| f.dropped_pkts).sum();
        assert_eq!(hop2_drops, 0, "same-rate downstream hop dropped packets");
        // Conservation across hops: hop 2 delivers what hop 1 delivered
        // (minus at most the in-flight/windowing edge packets).
        let d1: u64 = res[0].flows.iter().map(|f| f.delivered_pkts).sum();
        let d2: u64 = res[1].flows.iter().map(|f| f.delivered_pkts).sum();
        assert!(
            (d1 as i64 - d2 as i64).abs() <= specs.len() as i64 * 2,
            "hop deliveries diverged: {d1} vs {d2}"
        );
    }

    #[test]
    fn slower_bottleneck_still_protects_conformant_flows() {
        let specs = table1();
        // Hop 2 runs at 40 Mb/s — above the 32.8 Mb/s reservation but
        // below hop 1's 48 Mb/s, so excess traffic must be shed there.
        let slow = Rate::from_mbps(40.0);
        let needed2 = qbm_core::admission::fifo_required_buffer(slow, &specs).ceil() as u64;
        let hops = vec![
            hop(
                LINK_RATE,
                ByteSize::from_mib(2).bytes(),
                PolicyKind::Threshold,
            ),
            hop(slow, needed2, PolicyKind::Threshold),
        ];
        let res = line(&specs, &hops, 1).run(1, Time::from_secs(1), Time::from_secs(16), 1);
        // Conformant flows: lossless at both hops.
        for r in &res {
            assert_eq!(r.class_loss_ratio(&specs, Conformance::Conformant), 0.0);
        }
        // The bottleneck did shed aggressive excess.
        let aggr_drops: u64 = specs
            .iter()
            .filter(|s| s.class == Conformance::Aggressive)
            .map(|s| res[1].flows[s.id.index()].dropped_pkts)
            .sum();
        assert!(aggr_drops > 0, "bottleneck shed nothing");
        // End-to-end conformant throughput still meets reservations
        // (within source variance over the short window).
        for s in specs.iter().filter(|s| s.class.is_conformant()) {
            let thr = res[1].flow_throughput_bps(s.id);
            assert!(
                thr > 0.8 * s.token_rate.bps() as f64,
                "{}: end-to-end {thr} below reservation",
                s.id
            );
        }
    }

    #[test]
    fn line_is_deterministic() {
        let specs = table1();
        let hops = vec![
            hop(LINK_RATE, 1 << 20, PolicyKind::Threshold),
            hop(Rate::from_mbps(40.0), 1 << 20, PolicyKind::Threshold),
        ];
        let run = || line(&specs, &hops, 9).run(9, Time::from_secs(1), Time::from_secs(3), 1);
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.flows, y.flows);
        }
    }

    #[test]
    #[should_panic(expected = "empty line")]
    fn empty_line_rejected() {
        let _ = line(&table1(), &[], 0);
    }

    #[test]
    fn paper_experiment_defaults() {
        let specs = table1();
        let cfg = paper_experiment(&specs, &section3_schemes()[0], 1 << 20);
        assert_eq!(cfg.duration, Dur::from_secs(22));
        assert_eq!(cfg.link_rate, LINK_RATE);
        assert_eq!(cfg.specs.len(), 9);
    }
}
