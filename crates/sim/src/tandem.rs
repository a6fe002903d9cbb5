//! Multi-hop (tandem) lines — a repo extension beyond the paper's
//! single-link evaluation.
//!
//! The paper analyzes one multiplexing point; a natural question for a
//! deployment is whether threshold-based guarantees *compose* along a
//! path. This module chains routers feed-forward: hop `i+1`'s sources
//! replay hop `i`'s recorded departure traces (exact store-and-forward
//! semantics for a line topology, since a feed-forward hop cannot
//! influence its upstream).
//!
//! The composition facts the tests establish:
//! * a same-rate downstream hop adds no loss — FIFO output is already
//!   serialized at the link rate, so hop 2's queue never exceeds one
//!   packet per simultaneous upstream;
//! * at a slower downstream bottleneck, per-hop thresholds keep
//!   protecting conformant flows, provided each hop passes its own
//!   Eq. 9 admission check with the *downstream* rates.
//!
//! A line is the degenerate path graph of the general
//! [`Fabric`](crate::fabric::Fabric): these entry points are thin
//! shims that wire hop `i`'s flow `f` to hop `i+1`'s flow `f` and run
//! the fabric single-threaded. The epoch/log execution processes
//! the exact event sequence the historical run-to-completion
//! hop-by-hop runner did (see the fabric module docs), so existing
//! results — including recorded traces — are byte-identical.

use crate::experiment::PolicySpec;
use crate::fabric::Fabric;
use crate::router::Router;
use crate::stats::SimResult;
use qbm_core::flow::FlowSpec;
use qbm_core::policy::BufferPolicy;
use qbm_core::units::{Rate, Time};
use qbm_obs::{NullObserver, Observer};
use qbm_sched::{SchedKind, Scheduler};
use qbm_traffic::{build_source_kind, SourceKind, TraceSource};

/// One hop of a tandem line.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Output link rate of this hop.
    pub link_rate: Rate,
    /// Buffer at this hop, bytes.
    pub buffer_bytes: u64,
    /// Scheduler at this hop.
    pub sched: SchedKind,
    /// Admission policy at this hop.
    pub policy: PolicySpec,
}

/// Run a feed-forward line of `hops`. Hop 0 is fed by the standard
/// per-spec sources (seeded with `seed`); each later hop replays the
/// previous hop's departures. Returns one [`SimResult`] per hop,
/// all measured over `[warmup, end)`.
pub fn run_line(
    hops: &[Hop],
    specs: &[FlowSpec],
    seed: u64,
    warmup: Time,
    end: Time,
) -> Vec<SimResult> {
    run_line_with(hops.len(), specs, seed, warmup, end, |i, sources| {
        let hop = &hops[i];
        let policy = hop.policy.build(hop.buffer_bytes, hop.link_rate, specs);
        let sched = hop.sched.build(hop.link_rate, specs);
        Router::new(hop.link_rate, policy, sched, sources)
    })
}

/// Generic core of [`run_line`]: `make(i, sources)` assembles hop `i`'s
/// router, so a line over concrete policy/scheduler types runs fully
/// monomorphized (the boxed [`run_line`] is a thin wrapper).
pub fn run_line_with<P, S, F>(
    n_hops: usize,
    specs: &[FlowSpec],
    seed: u64,
    warmup: Time,
    end: Time,
    make: F,
) -> Vec<SimResult>
where
    P: BufferPolicy,
    S: Scheduler,
    F: FnMut(usize, Vec<SourceKind>) -> Router<P, S>,
{
    let mut observers = vec![NullObserver; n_hops];
    run_line_observed(n_hops, specs, seed, warmup, end, make, &mut observers)
}

/// [`run_line_with`] with one observer per hop: `observers[i]` receives
/// hop `i`'s event stream, so a tandem run yields one trace per
/// multiplexing point.
#[allow(clippy::too_many_arguments)] // mirrors run_line_with + the observer slice
pub fn run_line_observed<P, S, F, O>(
    n_hops: usize,
    specs: &[FlowSpec],
    seed: u64,
    warmup: Time,
    end: Time,
    mut make: F,
    observers: &mut [O],
) -> Vec<SimResult>
where
    P: BufferPolicy,
    S: Scheduler,
    F: FnMut(usize, Vec<SourceKind>) -> Router<P, S>,
    O: Observer + Send,
{
    assert!(n_hops > 0, "empty line");
    assert_eq!(observers.len(), n_hops, "one observer per hop");
    let mut fabric = Fabric::new();
    for i in 0..n_hops {
        let sources: Vec<SourceKind> = if i == 0 {
            // qbm-lint: allow(hot-path-alloc) — per-hop setup, not per-event
            specs.iter().map(|s| build_source_kind(s, seed)).collect()
        } else {
            // Relay hops carry empty stubs; their packets come from
            // the upstream hop's departure log every epoch.
            specs
                .iter()
                .map(|_| SourceKind::Trace(TraceSource::from_recorded(Vec::new())))
                // qbm-lint: allow(hot-path-alloc) — per-hop setup, not per-event
                .collect()
        };
        let link = fabric.add_link(make(i, sources));
        if i > 0 {
            for f in 0..specs.len() as u32 {
                fabric.connect(link - 1, f, link, f);
            }
        }
    }
    fabric.run_observed(seed, warmup, end, 1, observers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::flow::Conformance;
    use qbm_core::policy::PolicyKind;
    use qbm_core::units::ByteSize;
    use qbm_traffic::table1;

    const LINK: Rate = Rate::from_bps(48_000_000);

    fn hop(rate: Rate, buffer: u64, policy: PolicyKind) -> Hop {
        Hop {
            link_rate: rate,
            buffer_bytes: buffer,
            sched: SchedKind::Fifo,
            policy: PolicySpec::Kind(policy),
        }
    }

    #[test]
    fn same_rate_second_hop_adds_no_loss() {
        let specs = table1();
        let b = ByteSize::from_mib(2).bytes();
        let hops = vec![
            hop(LINK, b, PolicyKind::Threshold),
            // Tiny buffer suffices downstream: arrivals are already
            // serialized at exactly the link rate.
            hop(LINK, ByteSize::from_kib(8).bytes(), PolicyKind::None),
        ];
        let res = run_line(&hops, &specs, 1, Time::from_secs(1), Time::from_secs(6));
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
            hop(LINK, ByteSize::from_mib(2).bytes(), PolicyKind::Threshold),
            hop(slow, needed2, PolicyKind::Threshold),
        ];
        let res = run_line(&hops, &specs, 1, Time::from_secs(1), Time::from_secs(16));
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
            hop(LINK, 1 << 20, PolicyKind::Threshold),
            hop(Rate::from_mbps(40.0), 1 << 20, PolicyKind::Threshold),
        ];
        let a = run_line(&hops, &specs, 9, Time::from_secs(1), Time::from_secs(3));
        let b = run_line(&hops, &specs, 9, Time::from_secs(1), Time::from_secs(3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.flows, y.flows);
        }
    }

    #[test]
    #[should_panic(expected = "empty line")]
    fn empty_line_rejected() {
        let _ = run_line(&[], &table1(), 0, Time::ZERO, Time::from_secs(1));
    }
}
