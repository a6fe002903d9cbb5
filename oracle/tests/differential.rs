//! Differential suite: the fixed-point schedulers must reproduce the
//! retained float references *packet for packet* on random arrival
//! schedules — not statistically, identically. This is the property
//! that lets `*_reference` serve as an oracle for the Q32.32 rewrite:
//! both sides derive every elementary virtual-time quantity from the
//! same integer constructors, so any divergence is a real bug in one
//! of the two tag/ordering implementations.

use proptest::prelude::*;
use qbm_core::flow::FlowId;
use qbm_core::units::{Dur, Rate, Time};
use qbm_oracle::{HybridReference, VirtualClockReference, Wf2qReference, WfqReference};
use qbm_sched::{Hybrid, PacketRef, Scheduler, VirtualClock, Wf2q, Wfq};

const LINK: Rate = Rate::from_bps(48_000_000);

/// One generated step: advance the clock by `gap_ns`, then either
/// enqueue a `len`-byte packet on `flow` (kinds 0–1) or dequeue
/// (kind 2).
type Op = (u64, usize, u32, u8);

/// Drive two schedulers through the same schedule and assert they
/// agree on every dequeue, then on the full drain order.
fn assert_identical(mut a: impl Scheduler, mut b: impl Scheduler, flows: usize, ops: &[Op]) {
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    for &(gap_ns, f, len, kind) in ops {
        now = now.saturating_add(Dur(gap_ns));
        if kind < 2 {
            let pkt = PacketRef {
                flow: FlowId((f % flows) as u32),
                len,
                arrival: now,
                seq,
                green: true,
            };
            seq += 1;
            a.enqueue(now, pkt);
            b.enqueue(now, pkt);
        } else {
            assert_eq!(
                a.dequeue(now),
                b.dequeue(now),
                "dequeue diverged at {now:?}"
            );
        }
    }
    // Drain at link pace: every remaining packet must come out in the
    // same order from both sides.
    loop {
        let (pa, pb) = (a.dequeue(now), b.dequeue(now));
        assert_eq!(pa, pb, "drain diverged at {now:?}");
        let Some(p) = pa else { break };
        now = now.saturating_add(LINK.transmission_time(p.len as u64));
    }
    assert_eq!(a.len(), 0);
    assert_eq!(b.len(), 0);
}

fn weights_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..10_000_000, 1..6)
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..3_000_000, 0usize..8, 40u32..1501, 0u8..3), 1..250)
}

proptest! {
    #[test]
    fn wfq_matches_float_reference(
        weights in weights_strategy(),
        ops in ops_strategy(),
    ) {
        let n = weights.len();
        assert_identical(
            Wfq::new(LINK, weights.clone()),
            WfqReference::new(LINK, weights),
            n,
            &ops,
        );
    }

    #[test]
    fn wf2q_matches_float_reference(
        weights in weights_strategy(),
        ops in ops_strategy(),
    ) {
        let n = weights.len();
        assert_identical(
            Wf2q::new(LINK, weights.clone()),
            Wf2qReference::new(LINK, weights),
            n,
            &ops,
        );
    }

    #[test]
    fn vclock_matches_float_reference(
        rates in weights_strategy(),
        ops in ops_strategy(),
    ) {
        let n = rates.len();
        assert_identical(
            VirtualClock::new(rates.clone()),
            VirtualClockReference::new(rates),
            n,
            &ops,
        );
    }

    #[test]
    fn hybrid_matches_float_reference(
        queue_rates in weights_strategy(),
        flows in 1usize..10,
        ops in ops_strategy(),
    ) {
        let k = queue_rates.len();
        let assignment: Vec<usize> = (0..flows).map(|f| f % k).collect();
        assert_identical(
            Hybrid::new(LINK, assignment.clone(), queue_rates.clone()),
            HybridReference::new(LINK, assignment, queue_rates),
            flows,
            &ops,
        );
    }
}
