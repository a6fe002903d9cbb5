//! Reproducibility is load-bearing for the experiment harness: the same
//! (configuration, seed) pair must give bit-identical statistics across
//! every scheduler × policy combination, and different seeds must give
//! different traces.

use qbm_oracle::{run_once_reference, run_once_sched_reference};
use qos_buffer_mgmt::core::policy::{BufferPolicy, FixedThreshold, PolicyKind, ThresholdOptions};
use qos_buffer_mgmt::core::units::{ByteSize, Dur, Time};
use qos_buffer_mgmt::obs::{verify_trace, Tracer};
use qos_buffer_mgmt::sched::{Fifo, SchedKind, Scheduler, Wfq};
use qos_buffer_mgmt::sim::scenarios::{case1_grouping, plan_hybrid, LINK_RATE};
use qos_buffer_mgmt::sim::{
    Campaign, ExperimentConfig, PolicySpec, Router, SimResult, SketchParams, SourceSel, StatsConfig,
};
use qos_buffer_mgmt::traffic::{build_source_kind, table1, table2};

fn cfg(sched: SchedKind, policy: PolicySpec) -> ExperimentConfig {
    ExperimentConfig {
        link_rate: LINK_RATE,
        buffer_bytes: ByteSize::from_mib(1).bytes(),
        specs: table1(),
        sched,
        policy,
        warmup: Dur::from_secs(1),
        duration: Dur::from_secs(4),
        sojourns: Default::default(),
        stats: Default::default(),
        sources: Default::default(),
    }
}

fn all_combinations() -> Vec<(String, ExperimentConfig)> {
    let specs = table1();
    let plan = plan_hybrid(&specs, &case1_grouping(), ByteSize::from_mib(1).bytes());
    let h = ByteSize::from_kib(256).bytes();
    let scheds = vec![
        ("fifo", SchedKind::Fifo),
        ("wfq", SchedKind::Wfq),
        ("drr", SchedKind::Drr),
        ("vclock", SchedKind::VirtualClock),
        ("edf", SchedKind::Edf),
        ("wf2q", SchedKind::Wf2q),
        (
            "hybrid",
            SchedKind::Hybrid {
                assignment: plan.grouping.assignment.clone(),
                queue_rates_bps: plan.queue_rates_bps.clone(),
            },
        ),
    ];
    let policies = vec![
        ("none", PolicySpec::Kind(PolicyKind::None)),
        ("thresh", PolicySpec::Kind(PolicyKind::Threshold)),
        (
            "sharing",
            PolicySpec::Kind(PolicyKind::Sharing { headroom_bytes: h }),
        ),
        (
            "adaptive",
            PolicySpec::Kind(PolicyKind::AdaptiveSharing { headroom_bytes: h }),
        ),
        (
            "dyn-thresh",
            PolicySpec::Kind(PolicyKind::DynamicThreshold {
                alpha_num: 1,
                alpha_den: 1,
            }),
        ),
        ("red", PolicySpec::Kind(PolicyKind::Red { seed: 3 })),
        ("fred", PolicySpec::Kind(PolicyKind::Fred { seed: 3 })),
        (
            "pbs",
            PolicySpec::Kind(PolicyKind::PartialSharing {
                threshold_permille: 800,
            }),
        ),
    ];
    let mut out = Vec::new();
    for (sn, s) in &scheds {
        for (pn, p) in &policies {
            out.push((format!("{sn}+{pn}"), cfg(s.clone(), p.clone())));
        }
    }
    out
}

#[test]
fn identical_seed_identical_result_all_combinations() {
    for (name, c) in all_combinations() {
        let a = c.run_once(17);
        let b = c.run_once(17);
        assert_eq!(a.flows, b.flows, "{name}: same seed diverged");
    }
}

#[test]
fn different_seeds_differ() {
    let c = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    let a = c.run_once(1);
    let b = c.run_once(2);
    assert_ne!(a.flows, b.flows, "different seeds produced identical runs");
}

#[test]
fn parallel_runner_equals_sequential() {
    let c = cfg(SchedKind::Wfq, PolicySpec::Kind(PolicyKind::Threshold));
    let multi = c.run_many(100, 4);
    for (i, run) in multi.runs.iter().enumerate() {
        let solo = c.run_once(100 + i as u64);
        assert_eq!(run.flows, solo.flows, "parallel seed {} diverged", 100 + i);
    }
}

#[test]
fn campaign_results_are_thread_count_invariant() {
    // The Table-2 workload (30 flows) over a two-point campaign: the
    // sharded runner must produce byte-identical per-cell results and
    // byte-identical merged results whether the grid runs on 1 worker
    // or 8 — seeds are a pure function of the cell coordinates and
    // results are scattered back by index.
    let mut points = Vec::new();
    for buffer_mib in [1u64, 2] {
        points.push(ExperimentConfig {
            link_rate: LINK_RATE,
            buffer_bytes: ByteSize::from_mib(buffer_mib).bytes(),
            specs: table2(),
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(PolicyKind::Threshold),
            warmup: Dur::from_secs(1),
            duration: Dur::from_secs(3),
            sojourns: Default::default(),
            stats: Default::default(),
            sources: Default::default(),
        });
    }
    let run_with = |threads: usize| {
        let mut campaign = Campaign::new(&points);
        campaign.replications = 3;
        campaign.campaign_seed = 7;
        campaign.threads = threads;
        let grid = campaign.run();
        let merged: Vec<_> = grid
            .iter()
            .map(|m| m.merged(campaign.campaign_seed))
            .collect();
        (grid, merged)
    };
    let (grid1, merged1) = run_with(1);
    let (grid8, merged8) = run_with(8);
    assert_eq!(merged1, merged8, "merged results depend on thread count");
    for (p, (a, b)) in grid1.iter().zip(&grid8).enumerate() {
        for (r, (x, y)) in a.runs.iter().zip(&b.runs).enumerate() {
            assert_eq!(x, y, "point {p} replication {r} diverged across threads");
        }
    }
}

/// FNV-1a-style 64-bit digest (the multiplier deviates from the
/// canonical FNV prime; what matters is that it matches the constant
/// the golden values below were captured with).
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn golden_fixed_seed_statistics_snapshot() {
    // Captured from the pre-overhaul simulator (BinaryHeap event queue,
    // boxed dyn sources) at seed 17. The indexed-timer/enum-source
    // rewrite must reproduce these numbers exactly — any drift means
    // the event ordering contract or a source stream changed.
    let t1 = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    let res = t1.run_once(17);
    let golden: [(u64, u64, u64, u64, u128, u64); 9] = [
        (1157, 0, 1157, 578_500, 31_226_551_577, 63_580_058),
        (1036, 0, 1029, 514_500, 26_761_207_216, 50_204_371),
        (984, 0, 997, 498_500, 29_665_318_869, 59_828_521),
        (6000, 0, 5971, 2_985_500, 154_254_483_416, 64_944_745),
        (6000, 0, 5971, 2_985_500, 154_296_029_118, 64_921_414),
        (6000, 0, 5971, 2_985_500, 153_967_896_214, 64_927_359),
        (4639, 3028, 1611, 805_500, 64_519_890_181, 64_881_464),
        (2745, 1121, 1624, 812_000, 36_003_297_640, 60_632_910),
        (13789, 5203, 8597, 4_298_500, 279_221_220_118, 64_918_583),
    ];
    assert_eq!(res.flows.len(), golden.len());
    for (i, (f, g)) in res.flows.iter().zip(&golden).enumerate() {
        let got = (
            f.offered_pkts,
            f.dropped_pkts,
            f.delivered_pkts,
            f.delivered_bytes,
            f.delay_sum_ns,
            f.delay_max_ns,
        );
        assert_eq!(got, *g, "flow {i} drifted from golden snapshot");
    }
    // Full-struct digest (covers every field, including drop-reason
    // split, delay histogram and green counters).
    assert_eq!(
        fnv64(&format!("{:?}", res.flows)),
        0x0a63_84fc_3883_16c4,
        "Table-1 full-stats digest drifted"
    );

    // Table-2 workload (30 flows) over a shorter window.
    let mut t2 = t1.clone();
    t2.specs = table2();
    t2.duration = Dur::from_secs(3);
    let res2 = t2.run_once(17);
    let off: u64 = res2.flows.iter().map(|f| f.offered_pkts).sum();
    let drop: u64 = res2.flows.iter().map(|f| f.dropped_pkts).sum();
    let del: u64 = res2.flows.iter().map(|f| f.delivered_pkts).sum();
    let dsum: u128 = res2.flows.iter().map(|f| f.delay_sum_ns).sum();
    assert_eq!(
        (off, drop, del, dsum),
        (26_896, 3206, 23_948, 1_140_191_127_386),
        "Table-2 aggregate counters drifted"
    );
    assert_eq!(
        fnv64(&format!("{:?}", res2.flows)),
        0x04fd_0205_07c6_16cb,
        "Table-2 full-stats digest drifted"
    );
}

#[test]
fn golden_merged_replications_snapshot() {
    // `MultiRun::merged` folds replications into the one result the CLI
    // report prints. Pinned over exact counters only (Table 2 FIFO),
    // with per-flow and aggregate sketches (Table 1 WFQ), and with the
    // closed-loop AIMD counters filled in (Table 1 AIMD), each over
    // three replications.
    let mut t2 = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    t2.specs = table2();
    t2.duration = Dur::from_secs(3);
    let mut sketched = cfg(SchedKind::Wfq, PolicySpec::Kind(PolicyKind::Threshold));
    sketched.stats = StatsConfig {
        sketches: Some(SketchParams::default()),
    };
    let mut aimd = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    aimd.sources = SourceSel::Aimd;
    let cases: [(&str, ExperimentConfig, u64); 3] = [
        ("table2 fifo+thresh", t2, 0x652d_8e68_dae9_bde3),
        (
            "table1 wfq+thresh sketched",
            sketched,
            0x8e33_26f4_6227_fec9,
        ),
        ("table1 aimd", aimd, 0xb9b1_fae0_6bb7_b8ba),
    ];
    for (name, c, golden) in cases {
        let merged = c.run_many(31, 3).merged(31);
        assert_eq!(merged.seed, 31, "{name}: merged seed");
        assert_eq!(merged.delay_sketch.is_some(), name.ends_with("sketched"));
        assert_eq!(merged.aimd.is_some(), name.ends_with("aimd"));
        assert_eq!(
            fnv64(&format!("{merged:?}")),
            golden,
            "{name}: merged-replications digest drifted"
        );
    }
}

#[test]
fn golden_fixed_seed_trace_snapshot() {
    // The JSONL event trace is part of the determinism contract too:
    // same capture as above, digested as text. Catches ordering changes
    // that happen to leave the aggregate statistics untouched (e.g. two
    // same-instant arrivals swapping).
    let t1 = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    let mut tracer = Tracer::new(1 << 16);
    let _ = t1.run_once_with(17, &mut tracer);
    let jsonl = tracer.to_jsonl();
    assert_eq!(jsonl.lines().count(), 65_537, "trace line count drifted");
    assert_eq!(jsonl.len(), 3_948_239, "trace byte length drifted");
    assert_eq!(fnv64(&jsonl), 0x5e41_65ee_823e_9179, "trace digest drifted");
}

#[test]
fn indexed_timers_match_reference_heap_end_to_end() {
    // Differential check across the whole pipeline: the pre-overhaul
    // path (boxed dyn sources + BinaryHeap event core) and the new
    // default (enum sources + IndexedTimers) must agree byte-for-byte
    // on every scheduler × policy combination and on the 30-flow
    // Table-2 workload.
    for (name, c) in all_combinations() {
        let new_path = c.run_once(17);
        let old_path = run_once_reference(&c, 17);
        assert_eq!(
            new_path.flows, old_path.flows,
            "{name}: indexed timers diverged from reference heap"
        );
    }
    let mut t2 = cfg(SchedKind::Fifo, PolicySpec::Kind(PolicyKind::Threshold));
    t2.specs = table2();
    t2.duration = Dur::from_secs(3);
    for seed in [1u64, 17, 99] {
        assert_eq!(
            t2.run_once(seed).flows,
            run_once_reference(&t2, seed).flows,
            "table2 seed {seed}: indexed timers diverged from reference heap"
        );
    }
}

#[test]
fn monomorphic_and_boxed_dispatch_give_identical_results() {
    // `Router<P, S>` defaults to `Box<dyn ..>` policy and scheduler,
    // which is what `PolicyKind`/`SchedKind` build for every campaign.
    // The statically typed instantiation must run the same simulation.
    fn run<P: BufferPolicy, S: Scheduler>(
        c: &ExperimentConfig,
        p: P,
        s: S,
        seed: u64,
    ) -> SimResult {
        let sources = c.specs.iter().map(|f| build_source_kind(f, seed)).collect();
        Router::new(c.link_rate, p, s, sources).run(
            Time::ZERO + c.warmup,
            Time::ZERO + c.duration,
            seed,
        )
    }
    for (table, specs) in [("table1", table1()), ("table2", table2())] {
        for sched in [SchedKind::Fifo, SchedKind::Wfq] {
            let mut c = cfg(sched.clone(), PolicySpec::Kind(PolicyKind::Threshold));
            c.specs = specs.clone();
            c.duration = Dur::from_secs(2);
            let thresh = || {
                FixedThreshold::new(
                    c.buffer_bytes,
                    c.link_rate,
                    &c.specs,
                    ThresholdOptions::default(),
                )
            };
            let weights: Vec<u64> = c.specs.iter().map(|f| f.token_rate.bps().max(1)).collect();
            for seed in [1u64, 2] {
                let boxed = run(
                    &c,
                    c.policy.build(c.buffer_bytes, c.link_rate, &c.specs),
                    sched.build(c.link_rate, &c.specs),
                    seed,
                );
                assert_eq!(boxed, c.run_once(seed), "{table} {sched:?} seed {seed}");
                let mono = match sched {
                    SchedKind::Fifo => run(&c, thresh(), Fifo::new(), seed),
                    _ => run(&c, thresh(), Wfq::new(c.link_rate, weights.clone()), seed),
                };
                assert_eq!(
                    mono, boxed,
                    "{table} {sched:?} seed {seed}: monomorphic dispatch diverged from boxed"
                );
            }
        }
    }
}

#[test]
fn fixed_point_schedulers_match_float_references_end_to_end() {
    // The acceptance bar of the Q32.32 virtual-time rewrite: swap every
    // scheduler for its retained float reference (same sources, same
    // policy, same event core — only the virtual-time arithmetic
    // differs) and the statistics must stay byte-identical across all
    // scheduler × policy combinations. Both sides quantize every
    // elementary virtual-time term through the same integer
    // constructors, so this is exact equality, not a tolerance check.
    for (name, c) in all_combinations() {
        let fixed = c.run_once(17);
        let float_ref = run_once_sched_reference(&c, 17);
        assert_eq!(
            fixed.flows, float_ref.flows,
            "{name}: fixed-point scheduler diverged from float reference"
        );
    }
    // The 30-flow Table-2 workload, across the schedulers that actually
    // exercise virtual time (the hybrid gets a simple modular grouping —
    // the Table-1 case-study grouping doesn't apply to 30 flows).
    let specs = table2();
    let queues = 4usize;
    let assignment: Vec<usize> = (0..specs.len()).map(|f| f % queues).collect();
    let mut queue_rates_bps = vec![0u64; queues];
    for s in &specs {
        queue_rates_bps[s.id.index() % queues] += s.token_rate.bps();
    }
    let scheds = [
        SchedKind::Wfq,
        SchedKind::Wf2q,
        SchedKind::VirtualClock,
        SchedKind::Hybrid {
            assignment,
            queue_rates_bps,
        },
    ];
    for sched in scheds {
        let mut c = cfg(sched, PolicySpec::Kind(PolicyKind::Threshold));
        c.specs = table2();
        c.duration = Dur::from_secs(3);
        for seed in [1u64, 17] {
            assert_eq!(
                c.run_once(seed).flows,
                run_once_sched_reference(&c, seed).flows,
                "table2 {} seed {seed}: fixed-point diverged from float reference",
                c.sched.label()
            );
        }
    }
}

#[test]
fn campaign_with_mixed_flow_counts_is_thread_count_invariant() {
    // A grid mixing the 9-flow Table-1 and 30-flow Table-2 workloads
    // must produce byte-identical per-cell results at 1 worker (every
    // cell on one thread, in order) and 8 workers, and both must match
    // a standalone `run_once` of the cell's seed.
    let mut t2 = cfg(SchedKind::Wfq, PolicySpec::Kind(PolicyKind::Threshold));
    t2.specs = table2();
    t2.duration = Dur::from_secs(3);
    let points = vec![
        cfg(SchedKind::Wfq, PolicySpec::Kind(PolicyKind::Threshold)),
        t2,
        cfg(
            SchedKind::Fifo,
            PolicySpec::Kind(PolicyKind::Sharing {
                headroom_bytes: ByteSize::from_kib(256).bytes(),
            }),
        ),
    ];
    let run_with = |threads: usize| {
        let mut campaign = Campaign::new(&points);
        campaign.replications = 2;
        campaign.campaign_seed = 23;
        campaign.threads = threads;
        campaign.run()
    };
    let grid1 = run_with(1);
    let grid8 = run_with(8);
    for (p, (a, b)) in grid1.iter().zip(&grid8).enumerate() {
        for (r, (x, y)) in a.runs.iter().zip(&b.runs).enumerate() {
            assert_eq!(x, y, "point {p} replication {r} diverged across threads");
            let campaign = {
                let mut c = Campaign::new(&points);
                c.replications = 2;
                c.campaign_seed = 23;
                c
            };
            let solo = points[p].run_once(campaign.cell_seed(p, r));
            assert_eq!(
                x, &solo,
                "point {p} replication {r}: campaign cell diverged from run_once"
            );
        }
    }
}

#[test]
fn path_fabric_reproduces_pre_refactor_tandem_goldens() {
    // Captured from the pre-fabric tandem runner (hop-by-hop
    // run-to-completion with full-trace replay) on a 3-hop
    // 48/44/40 Mb/s threshold line at seed 17. The epoch/departure-log
    // fabric the line now runs on must reproduce both the per-hop
    // statistics and the per-hop JSONL traces byte-for-byte.
    use qos_buffer_mgmt::core::units::{Rate, Time};
    use qos_buffer_mgmt::sim::scenarios::{line, LinkProfile};
    let specs = table1();
    let profile = LinkProfile {
        buffer_bytes: 1 << 20,
        sched: SchedKind::Fifo,
        policy: PolicySpec::Kind(PolicyKind::Threshold),
        ..LinkProfile::default()
    };
    let hops: Vec<(Rate, LinkProfile)> = [48.0, 44.0, 40.0]
        .iter()
        .map(|&m| (Rate::from_mbps(m), profile.clone()))
        .collect();
    let (warmup, end) = (Time::from_secs(1), Time::from_secs(5));
    let res = line(&specs, &hops, 17).run(17, warmup, end, 1);
    let stats_golden = [
        0xd2cd17612077d565u64,
        0x9edc29f704242eef,
        0x7c050d4f1443efdc,
    ];
    for (i, (r, g)) in res.iter().zip(&stats_golden).enumerate() {
        assert_eq!(
            fnv64(&format!("{r:?}")),
            *g,
            "hop {i} statistics drifted from pre-fabric goldens"
        );
    }
    let mut tracers = vec![
        Tracer::new(1 << 20),
        Tracer::new(1 << 20),
        Tracer::new(1 << 20),
    ];
    let observed = line(&specs, &hops, 17).run_observed(17, warmup, end, 1, &mut tracers);
    assert_eq!(res, observed, "observed tandem run diverges from plain run");
    let trace_golden = [
        (0x5e3a4b9dc2eb4771u64, 11_469_759usize),
        (0x33362c6ab7977db5, 9_823_109),
        (0xc948036c59621700, 9_363_045),
    ];
    for (i, (t, (g, len))) in tracers.iter().zip(&trace_golden).enumerate() {
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.len(), *len, "hop {i} trace length drifted");
        assert_eq!(
            fnv64(&jsonl),
            *g,
            "hop {i} trace drifted from pre-fabric goldens"
        );
    }
}

/// Run a topology fabric with per-link link-dim tracers; returns the
/// statistics debug digest and the merged per-link trace text.
fn fabric_digests(
    fabric: qos_buffer_mgmt::sim::Fabric,
    seed: u64,
    threads: usize,
) -> (u64, String) {
    use qos_buffer_mgmt::core::units::Time;
    let mut tracers = vec![Tracer::new(1 << 16); fabric.n_links()];
    let res = fabric.run_observed(
        seed,
        Time::from_secs(1),
        Time::from_secs(4),
        threads,
        &mut tracers,
    );
    (
        fnv64(&format!("{res:?}")),
        Tracer::merged_links_jsonl(&tracers),
    )
}

#[test]
fn tree_fabric_golden_and_shard_thread_invariant() {
    // A 2-AP × 2-subscriber aggregation tree: merged statistics and
    // the merged per-link trace must be byte-identical at 1 vs 8 shard
    // threads, and must match the golden capture (so the schedule
    // itself, not just its invariance, is pinned).
    use qos_buffer_mgmt::core::units::Rate;
    use qos_buffer_mgmt::sim::scenarios::{aggregation_tree, LinkProfile, LINK_RATE};
    let specs = &table1()[..3];
    let rates = [LINK_RATE, Rate::from_mbps(24.0), Rate::from_mbps(16.0)];
    let build = || aggregation_tree(2, 2, specs, rates, &LinkProfile::default(), 7);
    let (stats1, trace1) = fabric_digests(build(), 7, 1);
    let (stats8, trace8) = fabric_digests(build(), 7, 8);
    assert_eq!(stats1, stats8, "tree stats depend on shard threads");
    assert_eq!(trace1, trace8, "tree trace depends on shard threads");
    verify_trace(&trace1).expect("merged tree trace must pass the schema check");
    assert_eq!(stats1, 0x6ddc_2dae_2186_2606, "tree stats digest drifted");
    assert_eq!(
        fnv64(&trace1),
        0x1d0d_4375_fa52_6238,
        "tree trace digest drifted"
    );
}

#[test]
fn incast_fabric_golden_and_shard_thread_invariant() {
    use qos_buffer_mgmt::core::units::Rate;
    use qos_buffer_mgmt::sim::scenarios::{incast_fanin, LinkProfile, LINK_RATE};
    let specs = &table1()[..2];
    let build = || {
        incast_fanin(
            3,
            specs,
            LINK_RATE,
            Rate::from_mbps(40.0),
            &LinkProfile::default(),
            11,
        )
    };
    let (stats1, trace1) = fabric_digests(build(), 11, 1);
    let (stats8, trace8) = fabric_digests(build(), 11, 8);
    assert_eq!(stats1, stats8, "incast stats depend on shard threads");
    assert_eq!(trace1, trace8, "incast trace depends on shard threads");
    verify_trace(&trace1).expect("merged incast trace must pass the schema check");
    assert_eq!(stats1, 0xc017_4c3c_fe1b_3279, "incast stats digest drifted");
    assert_eq!(
        fnv64(&trace1),
        0x9750_6948_2927_4546,
        "incast trace digest drifted"
    );
}

#[test]
fn subscriber_tree_fabric_golden_and_shard_thread_invariant() {
    // The ISP-scale scenario family at its smallest shape (10² flows,
    // 4 sites × 5 APs): merged statistics and the merged per-link
    // trace must be byte-identical at 1 vs 8 shard threads and match
    // the golden capture.
    use qos_buffer_mgmt::sim::scenarios::{subscriber_tree, LinkProfile, SubscriberTreeShape};
    let shape = SubscriberTreeShape::for_flows(100);
    let build = || subscriber_tree(shape, &LinkProfile::default(), 7);
    let (stats1, trace1) = fabric_digests(build(), 7, 1);
    let (stats8, trace8) = fabric_digests(build(), 7, 8);
    assert_eq!(stats1, stats8, "subscriber stats depend on shard threads");
    assert_eq!(trace1, trace8, "subscriber trace depends on shard threads");
    verify_trace(&trace1).expect("merged subscriber trace must pass the schema check");
    assert_eq!(
        stats1, 0x50bb_4d29_8fe2_e8a5,
        "subscriber stats digest drifted"
    );
    assert_eq!(
        fnv64(&trace1),
        0x140b_1a5f_96c0_ed3b,
        "subscriber trace digest drifted"
    );
}

#[test]
fn subscriber_tree_scales_to_ten_thousand_flows_deterministically() {
    // The 10⁴-flow shape (25 sites × 20 APs, 526 links) over a short
    // horizon: statistics only (a full trace would dwarf the suite),
    // pinned against a golden digest and shard-thread invariant.
    use qos_buffer_mgmt::core::units::Time;
    use qos_buffer_mgmt::sim::scenarios::{subscriber_tree, LinkProfile, SubscriberTreeShape};
    let shape = SubscriberTreeShape::for_flows(10_000);
    let run = |threads: usize| {
        let fabric = subscriber_tree(shape, &LinkProfile::default(), 5);
        let res = fabric.run(
            5,
            Time::from_secs_f64(0.05),
            Time::from_secs_f64(0.10),
            threads,
        );
        fnv64(&format!("{res:?}"))
    };
    let d1 = run(1);
    assert_eq!(d1, run(8), "10k-flow stats depend on shard threads");
    assert_eq!(
        d1, 0xe0fb_df99_869c_99bb,
        "10k-flow subscriber stats digest drifted"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    // The departure-log handoff ordering invariant, fuzzed over topology
    // shape, seed and epoch length: for ANY aggregation tree, the
    // merged statistics and the merged per-link trace text are
    // byte-identical whether wave-mates advance on 1, 2 or 8 shard
    // threads — the fabric's schedule is a pure function of
    // (topology, seed), never of the thread interleaving.
    #[test]
    fn tree_fabric_shard_invariance_holds_for_any_shape(
        aps in 1usize..4,
        subs in 1usize..3,
        k in 1usize..4,
        seed in 0u64..1000,
        epoch_idx in 0usize..3,
    ) {
        let epoch_ms = [50u64, 250, 1000][epoch_idx];
        use qos_buffer_mgmt::core::units::{Dur, Rate, Time};
        use qos_buffer_mgmt::sim::scenarios::{aggregation_tree, LinkProfile, LINK_RATE};
        let specs = table1();
        let specs = &specs[..k];
        let rates = [LINK_RATE, Rate::from_mbps(24.0), Rate::from_mbps(16.0)];
        let run = |threads: usize| {
            let fabric = aggregation_tree(aps, subs, specs, rates, &LinkProfile::default(), seed)
                .with_epoch(Dur::from_millis(epoch_ms));
            let mut tracers = vec![Tracer::new(4096); fabric.n_links()];
            let res = fabric.run_observed(
                seed,
                Time::from_secs_f64(0.1),
                Time::from_secs_f64(0.6),
                threads,
                &mut tracers,
            );
            (res, Tracer::merged_links_jsonl(&tracers))
        };
        let (res1, trace1) = run(1);
        let (res2, trace2) = run(2);
        let (res8, trace8) = run(8);
        proptest::prop_assert_eq!(&res1, &res2, "1 vs 2 shard threads diverged");
        proptest::prop_assert_eq!(&res1, &res8, "1 vs 8 shard threads diverged");
        proptest::prop_assert_eq!(&trace1, &trace2, "trace 1 vs 2 shard threads diverged");
        proptest::prop_assert_eq!(&trace1, &trace8, "trace 1 vs 8 shard threads diverged");
    }
}

#[test]
fn every_combination_moves_traffic() {
    // Sanity floor: each scheduler × policy pairing delivers a
    // substantial fraction of the link over the window.
    for (name, c) in all_combinations() {
        let res = c.run_once(3);
        let util = res.aggregate_throughput_bps() / 48e6;
        assert!(
            util > 0.5,
            "{name}: only {:.0}% utilization — wiring problem?",
            util * 100.0
        );
    }
}

#[test]
fn closed_loop_incast_golden_and_shard_thread_invariant() {
    // The feedback path's determinism bar: an incast of AIMD senders
    // whose control loop closes across the fabric (departure/drop
    // signals from the aggregation link route back to the ingress
    // links) must produce byte-identical statistics AND a byte-identical
    // merged feedback-enabled (schema v2) trace at 1 vs 8 shard
    // threads, and match the golden capture.
    use qos_buffer_mgmt::core::units::{Rate, Time};
    use qos_buffer_mgmt::sim::scenarios::{incast_closed_loop, LinkProfile};
    let run = |threads: usize| {
        let fabric = incast_closed_loop(4, Rate::from_mbps(40.0), &LinkProfile::default());
        let mut tracers = vec![Tracer::new(1 << 14); fabric.n_links()];
        let res = fabric.run_observed(
            3,
            Time::from_secs_f64(0.1),
            Time::from_secs(1),
            threads,
            &mut tracers,
        );
        (
            fnv64(&format!("{res:?}")),
            Tracer::merged_links_jsonl(&tracers),
        )
    };
    let (stats1, trace1) = run(1);
    let (stats8, trace8) = run(8);
    assert_eq!(stats1, stats8, "closed-loop stats depend on shard threads");
    assert_eq!(trace1, trace8, "closed-loop trace depends on shard threads");
    let summary =
        verify_trace(&trace1).expect("merged closed-loop trace must pass the schema check");
    assert!(
        summary.feedback > 0,
        "closed-loop trace recorded no fb events"
    );
    assert!(
        trace1.starts_with("{\"schema\":\"qbm-trace\",\"version\":2,"),
        "feedback-enabled trace must carry the v2 header"
    );
    assert_eq!(
        stats1, 0x4857_5c6a_81fe_90f7,
        "closed-loop stats digest drifted"
    );
    assert_eq!(
        fnv64(&trace1),
        0xa7dd_9629_c9b4_68ff,
        "closed-loop trace digest drifted"
    );
}

#[test]
fn closed_loop_subscriber_tree_multi_hop_golden() {
    // The three-hop feedback leg: AIMD sources at the core, a relay hop
    // at each site link that reports losses upstream but no deliveries,
    // and the terminal AP hop that reports both. Pins statistics and
    // the merged feedback-enabled trace, shard-thread invariant, and
    // checks that every delivery signal comes from an AP link.
    use qos_buffer_mgmt::core::units::Time;
    use qos_buffer_mgmt::obs::TraceRecord;
    use qos_buffer_mgmt::sim::scenarios::{
        subscriber_tree_closed_loop, LinkProfile, SubscriberTreeShape,
    };
    let shape = SubscriberTreeShape::for_flows(100);
    let run = |threads: usize| {
        let fabric = subscriber_tree_closed_loop(shape, &LinkProfile::default());
        let mut tracers = vec![Tracer::new(1 << 14); fabric.n_links()];
        let res = fabric.run_observed(
            13,
            Time::from_secs_f64(0.1),
            Time::from_secs_f64(0.5),
            threads,
            &mut tracers,
        );
        let delivered_links: Vec<u32> = tracers
            .iter()
            .flat_map(Tracer::records)
            .filter_map(|r| match *r {
                TraceRecord::Feedback {
                    delivered: true,
                    link,
                    ..
                } => Some(link),
                _ => None,
            })
            .collect();
        (
            fnv64(&format!("{res:?}")),
            Tracer::merged_links_jsonl(&tracers),
            delivered_links,
        )
    };
    let (stats1, trace1, delivered) = run(1);
    let (stats4, trace4, _) = run(4);
    assert_eq!(stats1, stats4, "multi-hop stats depend on shard threads");
    assert_eq!(trace1, trace4, "multi-hop trace depends on shard threads");
    verify_trace(&trace1).expect("merged multi-hop trace must pass the schema check");
    assert!(!delivered.is_empty(), "no delivery signal reached a source");
    assert!(
        delivered.iter().all(|&l| l as usize > shape.sites),
        "a delivery signal came from the core or a site link"
    );
    assert_eq!(
        stats1, 0x6f4f_6ada_8b7c_fd9a,
        "multi-hop stats digest drifted"
    );
    assert_eq!(
        fnv64(&trace1),
        0x5c56_2c82_c390_80dd,
        "multi-hop trace digest drifted"
    );
}

#[test]
fn closed_loop_incast_polices_aggressive_flow() {
    // The paper's qualitative claim, closed-loop: a non-responsive
    // (floor-windowed) sender sharing a buffer with responsive AIMD
    // senders starves them under naive FIFO admission, while the
    // threshold policy confines it toward its reserved share and keeps
    // every responsive flow alive. Deterministic, so the shares are
    // exact reproducible values, not statistical bounds.
    use qos_buffer_mgmt::core::policy::PolicyKind;
    use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
    use qos_buffer_mgmt::sim::scenarios::{incast_closed_loop, LinkProfile};
    let senders = 4usize;
    let share_of = |policy: PolicySpec| {
        let profile = LinkProfile {
            buffer_bytes: ByteSize::from_kib(32).bytes(),
            policy,
            ..LinkProfile::default()
        };
        let res = incast_closed_loop(senders, Rate::from_mbps(8.0), &profile).run(
            3,
            Time::from_secs_f64(0.1),
            Time::from_secs(2),
            1,
        );
        let agg = &res[senders];
        let total: u64 = agg.flows.iter().map(|f| f.delivered_bytes).sum();
        let weakest = agg
            .flows
            .iter()
            .skip(1)
            .map(|f| f.delivered_bytes)
            .min()
            .unwrap();
        (agg.flows[0].delivered_bytes as f64 / total as f64, weakest)
    };
    let (fifo_share, fifo_weakest) = share_of(PolicySpec::Kind(PolicyKind::None));
    let (thresh_share, thresh_weakest) = share_of(PolicySpec::Kind(PolicyKind::Threshold));
    assert!(
        fifo_share > 0.9,
        "naive FIFO should let the aggressive flow capture the link (got {fifo_share:.3})"
    );
    assert!(
        thresh_share < 0.8,
        "threshold policy failed to confine the aggressive flow (got {thresh_share:.3})"
    );
    assert!(
        thresh_share < fifo_share - 0.1,
        "drop feedback had no policy-dependent effect ({thresh_share:.3} vs {fifo_share:.3})"
    );
    // Responsive senders survive under thresh (each keeps a real share
    // of its fair 475 kB) but collapse to near-zero under naive FIFO.
    assert!(
        thresh_weakest > 100_000,
        "threshold policy starved a responsive sender ({thresh_weakest} bytes)"
    );
    assert!(
        fifo_weakest < 10_000,
        "expected responsive senders to starve under naive FIFO ({fifo_weakest} bytes)"
    );
}

#[test]
fn source_kind_coverage_every_variant_emits_deterministically() {
    // Every `SourceKind` variant, driven directly: two pulls from
    // identically-seeded twins must agree, and the emission stream must
    // be non-trivial. This is the determinism suite's per-variant floor
    // (qbm-lint's `exhaustive-source` cross-check requires each variant
    // to appear here); the scheduler/policy interactions above exercise
    // them through full runs.
    use qos_buffer_mgmt::core::units::{Rate, Time};
    use qos_buffer_mgmt::traffic::{
        AimdConfig, AimdSource, CbrSource, Emission, Feedback, OnOffSource, ShapedSource, Source,
        SourceKind, TraceSource,
    };
    let rate = Rate::from_mbps(8.0);
    let trace = vec![
        Emission {
            time: Time(10),
            len: 500,
        },
        Emission {
            time: Time(20),
            len: 500,
        },
    ];
    let build = || -> Vec<SourceKind> {
        vec![
            SourceKind::Cbr(CbrSource::new(rate, 500, Time::ZERO)),
            SourceKind::OnOff(OnOffSource::new(rate, Rate::from_mbps(2.0), 15_000, 500, 7)),
            SourceKind::Trace(TraceSource::new(trace.clone())),
            SourceKind::Regulated(ShapedSource::new(
                OnOffSource::new(rate, Rate::from_mbps(2.0), 15_000, 500, 7),
                15_000,
                Rate::from_mbps(2.0),
            )),
            SourceKind::Aimd(AimdSource::new(AimdConfig::default())),
        ]
    };
    let pull = |mut sources: Vec<SourceKind>| -> Vec<Vec<Emission>> {
        sources
            .iter_mut()
            .map(|s| {
                let out: Vec<Emission> = (0..8).map_while(|_| s.next_emission()).collect();
                // Exercise the feedback leg too: open-loop variants
                // must shrug it off, the AIMD variant must accept it.
                let _ = s.on_feedback(
                    Time::from_secs(1),
                    Feedback::Delivered {
                        bytes: 500,
                        delay: qos_buffer_mgmt::core::units::Dur(1000),
                    },
                );
                out
            })
            .collect()
    };
    let a = pull(build());
    let b = pull(build());
    assert_eq!(a, b, "identically-seeded SourceKind twins diverged");
    for (i, stream) in a.iter().enumerate() {
        assert!(!stream.is_empty(), "variant {i} emitted nothing");
    }
}
