//! Relay-log ordering: a fabric link replays its upstream departures in
//! the exact `(time, departure-first, flow index)` order of the
//! single-link event loop, however the departures reach it — from
//! several upstream links whose departures coincide, from one upstream
//! link whose transmission time rounds to 0 ns, or mixed with flows the
//! link originates itself. The goldens below pin the schedule itself,
//! not only its invariance under shard width and epoch length. A relay
//! flow with no source runs exactly like one behind an empty-trace stub.

use qos_buffer_mgmt::core::flow::FlowId;
use qos_buffer_mgmt::core::policy::SharedBuffer;
use qos_buffer_mgmt::core::units::{Dur, Rate, Time};
use qos_buffer_mgmt::obs::Observer;
use qos_buffer_mgmt::sched::Fifo;
use qos_buffer_mgmt::sim::scenarios::{line, subscriber_tree, LinkProfile, SubscriberTreeShape};
use qos_buffer_mgmt::sim::{Fabric, Router, SimResult};
use qos_buffer_mgmt::traffic::{build_source_kind, table1, CbrSource, SourceKind, TraceSource};

/// FNV-1a 64-bit over the text.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records every arrival a link processes, in processing order.
#[derive(Debug, Clone, Default)]
struct Arrivals(Vec<(Time, u32, u32)>);

impl Observer for Arrivals {
    fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, _link: u32) {
        self.0.push((now, flow.0, len));
    }
}

impl Arrivals {
    /// Number of adjacent same-instant pairs, asserting each is in
    /// ascending flow order.
    fn same_instant_pairs_in_flow_order(&self) -> usize {
        let mut ties = 0;
        for w in self.0.windows(2) {
            if w[0].0 == w[1].0 {
                ties += 1;
                assert!(
                    w[0].1 <= w[1].1,
                    "same-instant arrivals out of flow order: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        ties
    }
}

/// An empty replay source behind a fed flow: the older form of a relay
/// flow, which the fabric still accepts.
fn relay_stub() -> SourceKind {
    SourceKind::Trace(TraceSource::from_recorded(Vec::new()))
}

fn fifo_link(rate: Rate, sources: Vec<SourceKind>) -> Router {
    fifo_relaying_link(rate, sources, 0)
}

/// A FIFO link whose `sources` are followed by `relays` source-less
/// relay flows.
fn fifo_relaying_link(rate: Rate, sources: Vec<SourceKind>, relays: usize) -> Router {
    let n = sources.len() + relays;
    Router::relaying(
        rate,
        Box::new(SharedBuffer::new(200_000, n)),
        Box::new(Fifo::new()),
        sources,
        relays,
    )
}

fn cbr(mbps: f64) -> SourceKind {
    SourceKind::from(CbrSource::new(Rate::from_mbps(mbps), 500, Time::ZERO))
}

/// Run `build()` at every shard width and epoch given, assert all
/// results and arrival logs identical, and return the first's digest
/// (statistics and every link's arrival order) and arrival logs.
fn run_everywhere(
    build: &dyn Fn() -> Fabric,
    end: Time,
    threads: &[usize],
    epochs: &[Dur],
) -> (u64, Vec<Arrivals>) {
    let mut first: Option<(Vec<SimResult>, Vec<Arrivals>)> = None;
    for &t in threads {
        for &e in epochs {
            let fabric = build().with_epoch(e);
            let mut obs = vec![Arrivals::default(); fabric.n_links()];
            let res = fabric.run_observed(3, Time::ZERO, end, t, &mut obs);
            match &first {
                None => first = Some((res, obs)),
                Some((r0, o0)) => {
                    assert_eq!(&res, r0, "results moved at {t} threads, {e:?} epoch");
                    let same = o0.iter().zip(&obs).all(|(a, b)| a.0 == b.0);
                    assert!(same, "arrival order moved at {t} threads, {e:?} epoch");
                }
            }
        }
    }
    let (res, obs) = first.expect("at least one run");
    (fnv64(&format!("{res:?}{obs:?}")), obs)
}

const THREADS: [usize; 2] = [1, 8];
const EPOCHS: [Dur; 3] = [Dur::from_millis(1), Dur::from_millis(73), Dur::from_secs(1)];

#[test]
fn coincident_departures_of_two_upstream_links_arrive_in_flow_order() {
    // Two identical CBR links depart at identical instants. Link 0
    // feeds the destination's flow 1 and link 1 its flow 0, so the
    // tie must resolve by destination flow, not by upstream link.
    let build = || {
        let mut f = Fabric::new();
        let a = f.add_link(fifo_link(Rate::from_mbps(48.0), vec![cbr(8.0)]));
        let b = f.add_link(fifo_link(Rate::from_mbps(48.0), vec![cbr(8.0)]));
        let dst = f.add_link(fifo_link(
            Rate::from_mbps(12.0),
            vec![relay_stub(), relay_stub()],
        ));
        f.connect(a, 0, dst, 1);
        f.connect(b, 0, dst, 0);
        f
    };
    let (digest, obs) = run_everywhere(&build, Time::from_secs(2), &THREADS, &EPOCHS);
    let ties = obs[2].same_instant_pairs_in_flow_order();
    assert_eq!(ties, 4000, "every departure pair coincides");
    assert_eq!(digest, 0xda17_350c_e750_d5b5, "two-upstream digest drifted");
}

#[test]
fn zero_transmission_time_ties_inside_one_log_arrive_in_flow_order() {
    // 500-byte packets on a 10 Tb/s link take 0.4 ns, which rounds to
    // 0 ns: both flows depart at the instant they arrive, flow 0 first.
    // Flow 0 feeds the destination's flow 1, so one upstream log holds
    // same-instant departures in the reverse of destination-flow order.
    let build = || {
        let mut f = Fabric::new();
        let up = f.add_link(fifo_link(
            Rate::from_bps(10_000_000_000_000),
            vec![cbr(4.0), cbr(4.0)],
        ));
        let dst = f.add_link(fifo_link(
            Rate::from_mbps(48.0),
            vec![relay_stub(), relay_stub()],
        ));
        f.connect(up, 0, dst, 1);
        f.connect(up, 1, dst, 0);
        f
    };
    let (digest, obs) = run_everywhere(&build, Time::from_secs(2), &THREADS, &EPOCHS);
    let ties = obs[1].same_instant_pairs_in_flow_order();
    assert_eq!(ties, 2000, "every departure pair coincides");
    assert_eq!(obs[1].0[0], (Time::ZERO, 0, 500), "flow 0 arrives first");
    assert_eq!(digest, 0xca92_926d_2f9c_989a, "zero-tx digest drifted");
}

#[test]
fn destination_mixing_origin_and_relay_flows_keeps_its_schedule() {
    // Destination flows 0 and 2 relay the upstream link's flows 1 and
    // 0; flows 1 and 3 originate at the destination itself.
    let specs = table1();
    let build = || {
        let mut f = Fabric::new();
        let up_sources = vec![
            build_source_kind(&specs[0], 21),
            build_source_kind(&specs[1], 22),
        ];
        let up = f.add_link(fifo_link(Rate::from_mbps(24.0), up_sources));
        let dst_sources = vec![
            relay_stub(),
            build_source_kind(&specs[2], 23),
            relay_stub(),
            build_source_kind(&specs[3], 24),
        ];
        let dst = f.add_link(fifo_link(Rate::from_mbps(16.0), dst_sources));
        f.connect(up, 0, dst, 2);
        f.connect(up, 1, dst, 0);
        f
    };
    let (digest, obs) = run_everywhere(&build, Time::from_secs(3), &THREADS, &EPOCHS);
    let mut seen = [0u64; 4];
    for &(_, flow, _) in &obs[1].0 {
        seen[flow as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "every flow arrives: {seen:?}");
    obs[1].same_instant_pairs_in_flow_order();
    assert_eq!(digest, 0x7843_cf89_aadb_20f1, "mixed-link digest drifted");
}

#[test]
fn thousand_flow_subscriber_tree_is_shard_and_epoch_invariant() {
    let shape = SubscriberTreeShape::for_flows(1000);
    let build = || subscriber_tree(shape, &LinkProfile::default(), 9);
    let (digest, obs) = run_everywhere(&build, Time(200_000_000), &[1, 2, 8], &EPOCHS);
    let arrivals: usize = obs.iter().map(|o| o.0.len()).sum();
    assert!(arrivals > 10_000, "tree moved traffic: {arrivals}");
    assert_eq!(
        digest, 0xdd8f_026d_aed9_3176,
        "10³-flow tree digest drifted"
    );
}

#[test]
fn two_hop_line_relays_every_departure_downstream() {
    // Relay is zero-delay, so from t = 0 on every departure hop 1
    // records arrives at hop 2 inside the window: per flow, hop 2's
    // offered traffic is exactly hop 1's delivered traffic.
    let specs = table1();
    for downstream in [Rate::from_mbps(48.0), Rate::from_mbps(40.0)] {
        let hops = [
            (Rate::from_mbps(48.0), LinkProfile::default()),
            (downstream, LinkProfile::default()),
        ];
        let res = line(&specs, &hops, 5).run(5, Time::ZERO, Time::from_secs(2), 1);
        for (f, (up, down)) in res[0].flows.iter().zip(&res[1].flows).enumerate() {
            assert!(up.delivered_pkts > 0, "flow {f} delivered nothing");
            assert_eq!(down.offered_pkts, up.delivered_pkts, "flow {f} packets");
            assert_eq!(down.offered_bytes, up.delivered_bytes, "flow {f} bytes");
        }
    }
}

#[test]
fn source_less_relay_flows_match_empty_trace_stubs() {
    // The destination originates flows 0 and 1 and relays the upstream
    // link's flows 1 and 0 into its flows 2 and 3. Built once with
    // empty-trace stubs behind the relay flows and once with no source
    // at all, the two fabrics must run identically everywhere.
    let specs = table1();
    let build = |stubs: bool| {
        let mut f = Fabric::new();
        let up_sources = vec![
            build_source_kind(&specs[0], 31),
            build_source_kind(&specs[1], 32),
        ];
        let up = f.add_link(fifo_link(Rate::from_mbps(24.0), up_sources));
        let mut dst_sources = vec![
            build_source_kind(&specs[2], 33),
            build_source_kind(&specs[3], 34),
        ];
        let dst = if stubs {
            dst_sources.extend([relay_stub(), relay_stub()]);
            f.add_link(fifo_link(Rate::from_mbps(16.0), dst_sources))
        } else {
            f.add_link(fifo_relaying_link(Rate::from_mbps(16.0), dst_sources, 2))
        };
        f.connect(up, 1, dst, 2);
        f.connect(up, 0, dst, 3);
        f
    };
    let end = Time::from_secs(3);
    for t in THREADS {
        for e in EPOCHS {
            let run = |stubs: bool| {
                let fabric = build(stubs).with_epoch(e);
                let mut obs = vec![Arrivals::default(); fabric.n_links()];
                let res = fabric.run_observed(3, Time::ZERO, end, t, &mut obs);
                (res, obs)
            };
            let ((stub_res, stub_obs), (bare_res, bare_obs)) = (run(true), run(false));
            assert_eq!(stub_res, bare_res, "results differ at {t} threads, {e:?}");
            let relayed = bare_obs[1].0.iter().filter(|a| a.1 >= 2).count();
            assert!(relayed > 0, "no relayed arrivals at {t} threads, {e:?}");
            let same = stub_obs.iter().zip(&bare_obs).all(|(a, b)| a.0 == b.0);
            assert!(same, "arrival order differs at {t} threads, {e:?}");
        }
    }
}
