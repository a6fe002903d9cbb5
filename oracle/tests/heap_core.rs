//! Full-simulation differential check of the event cores: the router's
//! unchanged event loop run on the reference heap through
//! [`Router::run_on`] must give the statistics of the production
//! [`IndexedTimers`](qbm_sim::IndexedTimers) run.

use qbm_core::policy::SharedBuffer;
use qbm_core::units::{Rate, Time};
use qbm_oracle::EventQueue;
use qbm_sched::Fifo;
use qbm_sim::{EventCore, Router};
use qbm_traffic::CbrSource;

const LINK: Rate = Rate::from_bps(48_000_000);

fn cbr_router(rates_mbps: &[f64], buffer: u64) -> Router {
    let sources: Vec<CbrSource> = rates_mbps
        .iter()
        .map(|&r| CbrSource::new(Rate::from_mbps(r), 500, Time::ZERO))
        .collect();
    Router::new(
        LINK,
        Box::new(SharedBuffer::new(buffer, rates_mbps.len())),
        Box::new(Fifo::new()),
        sources,
    )
}

#[test]
fn reference_heap_core_matches_indexed_timers() {
    // Differential full-sim check at unit scope: the mixed-rate CBR
    // pair collides every 800 µs, so same-instant ordering is
    // exercised continuously; both cores must agree exactly.
    let timers = cbr_router(&[20.0, 35.0], 80_000).run(Time::from_secs(1), Time::from_secs(4), 7);
    let heap = cbr_router(&[20.0, 35.0], 80_000).run_on(
        Time::from_secs(1),
        Time::from_secs(4),
        7,
        EventQueue::with_flows(2),
    );
    assert_eq!(timers.flows, heap.flows);
}
