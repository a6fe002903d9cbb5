//! Closed-loop incast (repo extension): the fan-in of
//! `topology_incast`, but with sources that *react* — each sender runs
//! an AIMD congestion window fed by per-packet feedback (delivered or
//! dropped-with-cause) routed back from the shared aggregator through
//! the fabric's deterministic per-epoch feedback return leg. One sender is
//! non-responsive (a floor on its window keeps it blasting); the rest
//! are well-behaved AIMD flows.
//!
//! The question the paper cannot ask with open-loop sources: does the
//! threshold rule still isolate flows when traffic fights back? Under
//! naive FIFO admission the non-responsive flow fills the shared
//! buffer, every responsive flow sees a wall of loss, halves its way
//! to the floor, and starves. Threshold admission converts the same
//! buffer into per-flow drop signals: the aggressive flow is clipped
//! at its reservation and the responsive windows stay open.
//!
//! ```text
//! cargo run --release --example closed_loop_incast
//! ```

use qos_buffer_mgmt::core::flow::FlowId;
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
use qos_buffer_mgmt::sim::scenarios::{incast_closed_loop, LinkProfile};
use qos_buffer_mgmt::sim::PolicySpec;

fn main() {
    let senders = 4usize;
    let agg_rate = Rate::from_mbps(8.0);
    println!(
        "closed-loop incast: {senders} AIMD senders (flow 0 non-responsive) -> \
         one {agg_rate} aggregator, 32 KiB shared buffer\n"
    );

    for (label, policy) in [
        ("fifo (no management)", PolicyKind::None),
        ("threshold (Eq. 5)", PolicyKind::Threshold),
    ] {
        let profile = LinkProfile {
            buffer_bytes: ByteSize::from_kib(32).bytes(),
            policy: PolicySpec::Kind(policy),
            ..LinkProfile::default()
        };
        let fabric = incast_closed_loop(senders, agg_rate, &profile);
        let res = fabric.run(3, Time::from_secs_f64(0.1), Time::from_secs(2), 1);
        let agg = &res[senders];
        let total: u64 = agg.flows.iter().map(|f| f.delivered_bytes).sum();

        println!("== {label} ==");
        println!(
            "{:>5} {:>14} {:>7} {:>7} {:>11} {:>11} {:>9}",
            "flow", "class", "kB out", "share%", "final cwnd", "loss events", "RTO fires"
        );
        for (i, sender) in res.iter().take(senders).enumerate() {
            // AIMD state lives on the sender link that owns the source;
            // delivery is accounted where contention happens, at the
            // aggregator.
            let st = sender
                .aimd
                .as_ref()
                .and_then(|v| v.iter().find(|(f, _)| *f == 0).map(|&(_, s)| s))
                .expect("closed-loop senders publish AIMD counters");
            let delivered = agg.flows[i].delivered_bytes;
            println!(
                "{:>5} {:>14} {:>7} {:>7.1} {:>11} {:>11} {:>9}",
                i,
                if i == 0 {
                    "non-responsive"
                } else {
                    "responsive"
                },
                delivered / 1000,
                100.0 * delivered as f64 / total as f64,
                st.final_cwnd,
                st.loss_events,
                st.rto_backoffs,
            );
        }
        let drops0 = agg.flows[0].dropped_pkts;
        println!(
            "aggregator: {} kB delivered, flow 0 drops {} ({}), throughput of flow 1 = {:.2} Mb/s\n",
            total / 1000,
            drops0,
            if drops0 > 0 { "policed" } else { "unpoliced" },
            agg.flow_throughput_bps(FlowId(1)) / 1e6,
        );
    }
    println!(
        "Threshold admission turns the shared buffer into per-flow feedback:\n\
         the non-responsive flow is confined near its reservation while every\n\
         responsive AIMD flow keeps a live window — under FIFO the same flows\n\
         collapse to their minimum cwnd and starve (compare the share columns)."
    );
}
