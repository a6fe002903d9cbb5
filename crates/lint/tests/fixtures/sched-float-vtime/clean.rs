//@ file: crates/sched/src/wfq.rs
pub struct Wfq {
    vtime: VirtualTime,
    finish: Vec<VirtualTime>,
    rate_bps: u64,
}
