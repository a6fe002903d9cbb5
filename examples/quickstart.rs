//! Quickstart: run the paper's Table 1 workload through a FIFO link
//! protected by threshold buffer management, and print per-flow
//! statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qos_buffer_mgmt::core::flow::Conformance;
use qos_buffer_mgmt::core::policy::PolicyKind;
use qos_buffer_mgmt::core::units::{ByteSize, Dur, Rate};
use qos_buffer_mgmt::sim::scenarios::LINK_RATE;
use qos_buffer_mgmt::sim::{ExperimentConfig, PolicySpec};
use qos_buffer_mgmt::traffic::table1;

fn main() {
    // The paper's setup: 48 Mb/s link, Table 1 flows, 1 MiB of buffer.
    let specs = table1();
    let cfg = ExperimentConfig {
        link_rate: LINK_RATE,
        buffer_bytes: ByteSize::from_mib(1).bytes(),
        specs: specs.clone(),
        sched: qos_buffer_mgmt::sched::SchedKind::Fifo,
        policy: PolicySpec::Kind(PolicyKind::Threshold),
        warmup: Dur::from_secs(2),
        duration: Dur::from_secs(12),
        sojourns: Default::default(),
        stats: Default::default(),
        sources: Default::default(),
    };

    println!(
        "simulating {} flows for {} (warmup {}) ...",
        cfg.specs.len(),
        cfg.duration,
        cfg.warmup
    );
    let res = cfg.run_once(1);

    println!(
        "\n{:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "flow", "reserved", "delivered", "loss %", "meandelay", "maxdelay", "class"
    );
    for s in &specs {
        let f = &res.flows[s.id.index()];
        println!(
            "{:>5} {:>12} {:>12} {:>10.2} {:>10} {:>10} {:>12}",
            s.id.0,
            format!("{}", s.token_rate),
            format!("{:.2}Mb/s", res.flow_throughput_bps(s.id) / 1e6),
            f.loss_ratio() * 100.0,
            format!("{}", f.mean_delay()),
            format!("{}", Dur(f.delay_max_ns)),
            s.class.label()
        );
    }
    println!(
        "\naggregate throughput: {:.2} Mb/s ({:.1}% of the {} link)",
        res.aggregate_throughput_bps() / 1e6,
        res.aggregate_throughput_bps() / LINK_RATE.bps() as f64 * 100.0,
        Rate::from_bps(LINK_RATE.bps()),
    );
    println!(
        "conformant loss: {:.3}%  — the paper's guarantee: 0 with enough buffer",
        res.class_loss_ratio(&specs, Conformance::Conformant) * 100.0
    );
}
