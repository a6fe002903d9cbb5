//! Flow isolation (the paper's Example 1 at packet level): a conformant
//! CBR flow against a greedy blast, first on a plain FIFO (no buffer
//! management — the conformant flow starves), then with Proposition-1
//! thresholds (the guarantee holds). Also prints the analytic Example 1
//! interval dynamics for comparison.
//!
//! ```text
//! cargo run --release --example isolation
//! ```

use qos_buffer_mgmt::core::analysis::example1::Example1;
use qos_buffer_mgmt::core::flow::{Conformance, FlowId, FlowSpec};
use qos_buffer_mgmt::core::policy::{PolicyKind, SharedBuffer};
use qos_buffer_mgmt::core::units::{ByteSize, Rate, Time};
use qos_buffer_mgmt::sched::Fifo;
use qos_buffer_mgmt::sim::Router;
use qos_buffer_mgmt::traffic::CbrSource;

const LINK: Rate = Rate::from_bps(48_000_000);

fn build_router(policy_kind: Option<PolicyKind>) -> Router {
    let b = ByteSize::from_mib(1).bytes();
    let specs = vec![
        FlowSpec::builder(FlowId(0))
            .token_rate(Rate::from_mbps(12.0))
            .bucket(500) // one packet of burst: effectively pure CBR
            .class(Conformance::Conformant)
            .build(),
        FlowSpec::builder(FlowId(1))
            .token_rate(Rate::from_mbps(1.0))
            .bucket(500)
            .class(Conformance::Aggressive)
            .build(),
    ];
    let policy = match policy_kind {
        Some(k) => k.build(b, LINK, &specs),
        None => Box::new(SharedBuffer::new(b, 2)),
    };
    let sources = vec![
        CbrSource::new(Rate::from_mbps(12.0), 500, Time::ZERO),
        // The "greedy" flow: twice the link rate, never backs off.
        CbrSource::greedy(LINK, 500, 2),
    ];
    Router::new(LINK, policy, Box::new(Fifo::new()), sources)
}

fn main() {
    println!("== analytic Example 1 (B = 1 MiB, R = 48 Mb/s, rho1 = 12 Mb/s) ==");
    let sys = Example1::from_buffer(1_048_576.0, 48e6, 12e6);
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>12}",
        "i", "l_i (ms)", "R1_i (Mb/s)", "R2_i (Mb/s)", "Q1 (KiB)"
    );
    for iv in sys.intervals().take(8) {
        println!(
            "{:>4} {:>10.3} {:>12.3} {:>12.3} {:>12.1}",
            iv.i,
            iv.len * 1e3,
            iv.rate1 / 1e6,
            iv.rate2 / 1e6,
            iv.q1_end_bytes / 1024.0
        );
    }
    println!(
        "limits: l = {:.3} ms, R1 -> 12, R2 -> 36 (the guarantee holds asymptotically)\n",
        sys.l_limit() * 1e3
    );

    let window = (Time::from_secs(1), Time::from_secs(11));

    println!("== packet-level, plain FIFO (no buffer management) ==");
    let res = build_router(None).run(window.0, window.1, 0);
    report(&res);
    println!("   -> sharing the buffer lets the greedy flow inflict loss on the conformant one\n");

    println!("== packet-level, FIFO + Proposition-1 thresholds ==");
    let res = build_router(Some(PolicyKind::Threshold)).run(window.0, window.1, 0);
    report(&res);
    println!("   -> the conformant flow receives its reserved 12 Mb/s, losslessly");
}

fn report(res: &qos_buffer_mgmt::sim::SimResult) {
    for (i, f) in res.flows.iter().enumerate() {
        println!(
            "  flow{}: delivered {:>6.2} Mb/s, loss {:>6.2}%",
            i,
            res.flow_throughput_bps(FlowId(i as u32)) / 1e6,
            f.loss_ratio() * 100.0
        );
    }
}
