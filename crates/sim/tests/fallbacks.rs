//! Every per-flow lookup on the per-packet path has a fallback arm for a
//! flow id past the end of its tables. Debug builds panic there, at the
//! arm's `debug_assert!`; release builds skip the call and change no
//! count. One table covers every scheduler, every policy, the event
//! core and the statistics collector's red lane. Each row runs under
//! `catch_unwind`, so every row is checked, not only the first to panic.

use qbm_core::flow::{FlowId, FlowSpec};
use qbm_core::policy::{PolicyKind, Verdict};
use qbm_core::units::{Dur, Rate, Time};
use qbm_sched::{PacketRef, SchedKind};
use qbm_sim::event::{EventCore, IndexedTimers};
use qbm_sim::StatsCollector;
use std::panic::{catch_unwind, AssertUnwindSafe};

const LINK: Rate = Rate::from_bps(48_000_000);
const FLOWS: u32 = 2;
/// The first flow id past the end of every table built here.
const UNKNOWN: FlowId = FlowId(FLOWS);

fn specs() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| {
            FlowSpec::builder(FlowId(i))
                .token_rate(Rate::from_mbps(8.0))
                .bucket(20_000)
                .build()
        })
        .collect()
}

fn packet(flow: FlowId, seq: u64) -> PacketRef {
    PacketRef {
        flow,
        len: 500,
        arrival: Time::ZERO,
        seq,
        green: true,
    }
}

/// Run one row. `run` makes the out-of-range call and returns the
/// counts before and after it.
fn check(row: &str, expected: &str, run: impl FnOnce() -> (Vec<u64>, Vec<u64>)) {
    let outcome = catch_unwind(AssertUnwindSafe(run));
    if cfg!(debug_assertions) {
        let Err(payload) = outcome else {
            panic!("{row}: no fallback assertion fired");
        };
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains(expected),
            "{row}: panicked with {msg:?}, expected {expected:?}"
        );
    } else {
        let Ok((before, after)) = outcome else {
            panic!("{row}: a release build panicked");
        };
        assert_eq!(before, after, "{row}: the fallback changed a count");
    }
}

/// The scheduler's fallback message, `None` for a scheduler without
/// per-flow state. Exhaustive, so a new variant must join the table.
fn sched_fallback(kind: &SchedKind) -> Option<&'static str> {
    match kind {
        SchedKind::Fifo => None,
        SchedKind::Wfq => Some("enqueue of an unknown class"),
        SchedKind::Drr
        | SchedKind::VirtualClock
        | SchedKind::Edf
        | SchedKind::Wf2q
        | SchedKind::Hybrid { .. } => Some("enqueue of an unknown flow"),
    }
}

#[test]
fn out_of_range_flows_take_the_fallback_arm() {
    let scheds = [
        SchedKind::Fifo,
        SchedKind::Wfq,
        SchedKind::Drr,
        SchedKind::VirtualClock,
        SchedKind::Edf,
        SchedKind::Wf2q,
        SchedKind::Hybrid {
            assignment: vec![0, 1],
            queue_rates_bps: vec![24_000_000, 24_000_000],
        },
    ];
    for kind in &scheds {
        let row = format!("scheduler {}", kind.label());
        let Some(expected) = sched_fallback(kind) else {
            // No per-flow state: any flow id is a valid FIFO entry.
            let mut s = kind.build(LINK, &specs());
            s.enqueue(Time::ZERO, packet(UNKNOWN, 0));
            assert_eq!(s.len(), 1, "{row}");
            continue;
        };
        check(&row, expected, || {
            let mut s = kind.build(LINK, &specs());
            s.enqueue(Time::ZERO, packet(FlowId(0), 0));
            let before = vec![s.len() as u64];
            s.enqueue(Time::ZERO, packet(UNKNOWN, 1));
            let after = vec![s.len() as u64];
            // The known flow's packet is still the one served.
            assert_eq!(s.dequeue(Time::ZERO).map(|p| p.seq), Some(0));
            assert!(s.dequeue(Time::ZERO).is_none());
            (before, after)
        });
    }

    let policies = [
        PolicyKind::None,
        PolicyKind::Threshold,
        PolicyKind::Sharing {
            headroom_bytes: 10_000,
        },
        PolicyKind::AdaptiveSharing {
            headroom_bytes: 10_000,
        },
        PolicyKind::DynamicThreshold {
            alpha_num: 1,
            alpha_den: 1,
        },
        PolicyKind::Red { seed: 1 },
        PolicyKind::Fred { seed: 1 },
        PolicyKind::PartialSharing {
            threshold_permille: 800,
        },
    ];
    for kind in policies {
        let build = || {
            let mut p = kind.build(200_000, LINK, &specs());
            assert!(p.admit(FlowId(0), 500).admitted());
            p
        };
        let counts = |p: &dyn qbm_core::policy::BufferPolicy| {
            vec![p.total_occupancy(), p.flow_occupancy(FlowId(0))]
        };
        check(
            &format!("policy {} admit", kind.label()),
            "unknown flow2",
            || {
                let mut p = build();
                let before = counts(&p);
                assert!(matches!(p.admit(UNKNOWN, 500), Verdict::Drop(_)));
                (before, counts(&p))
            },
        );
        check(
            &format!("policy {} release", kind.label()),
            "unknown flow2",
            || {
                let mut p = build();
                let before = counts(&p);
                p.release(UNKNOWN, 500);
                (before, counts(&p))
            },
        );
    }

    // Three flows take a four-leaf tree: flow id 3 names the padding
    // leaf, 100 lies past every slot.
    for flow in [FlowId(3), FlowId(100)] {
        let pending = |q: &mut IndexedTimers| {
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            vec![n]
        };
        check(
            &format!("timers schedule_arrival({flow})"),
            "flow has no timer slot",
            || {
                let mut q = IndexedTimers::with_flows(3);
                q.schedule_arrival(FlowId(0), Time::from_secs(1));
                q.schedule_arrival(flow, Time::from_secs(2));
                (vec![1], pending(&mut q))
            },
        );
        check(
            &format!("timers delay_arrival({flow})"),
            "flow has no timer slot",
            || {
                let mut q = IndexedTimers::with_flows(3);
                q.schedule_arrival(FlowId(0), Time::from_secs(1));
                q.delay_arrival(flow, Time::from_secs(2));
                assert_eq!(q.peek_time(), Some(Time::from_secs(1)));
                (vec![1], pending(&mut q))
            },
        );
    }

    // A red report is the one colour the collector acts on: a red
    // colour or a red departure of a flow past the end reaches the red
    // lane's miss arm. `before` is the same traffic without that call.
    check("stats red on_color", "color of an unknown flow", || {
        (
            red_traffic(|_| {}),
            red_traffic(|c| c.on_color(at(2), UNKNOWN, 500, false)),
        )
    });
    check(
        "stats red on_departure_colored",
        "red departure of an unknown flow",
        || {
            (
                red_traffic(|_| {}),
                red_traffic(|c| c.on_departure_colored(at(2), UNKNOWN, 500, at(1), false)),
            )
        },
    );
}

fn at(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

/// The colour counts of one red packet of flow 0, with `extra` called
/// on the collector before it finishes.
fn red_traffic(extra: impl FnOnce(&mut StatsCollector)) -> Vec<u64> {
    let mut c = StatsCollector::new(FLOWS as usize, Time::ZERO, Time::from_secs(1), 0);
    c.on_color(at(1), FlowId(0), 500, false);
    c.on_arrival(at(1), FlowId(0), 500, None);
    c.on_departure_colored(at(2), FlowId(0), 500, at(1), false);
    extra(&mut c);
    c.finish()
        .flows
        .iter()
        .flat_map(|f| {
            [
                f.offered_pkts,
                f.green_offered_bytes,
                f.green_offered_pkts,
                f.delivered_pkts,
                f.green_delivered_bytes,
            ]
        })
        .collect()
}
