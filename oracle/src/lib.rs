//! # qbm-oracle
//!
//! Differential oracles for the qbm simulator: the original designs of
//! its schedulers and event core, kept so the production code can be
//! checked against them and benchmarked relative to them.
//!
//! * [`sched`] — WFQ, WF²Q+, Virtual Clock and the §4 hybrid on `f64`
//!   virtual time over `BinaryHeap`s, against which the integer Q32.32
//!   schedulers of `qbm-sched` must agree packet for packet;
//! * [`event`] — the `BinaryHeap` [`EventQueue`], against which the
//!   production [`IndexedTimers`](qbm_sim::IndexedTimers) core must
//!   agree event for event;
//! * [`traffic`] — the ON-OFF source on a cached
//!   [`ChaCha8Rng`](rand_chacha::ChaCha8Rng) generator, against which
//!   the production on-demand keystream source must agree emission for
//!   emission;
//! * [`run_once_sched_reference`] and [`run_once_reference`] — one
//!   [`ExperimentConfig`] cell run on each oracle, byte-identical to
//!   [`ExperimentConfig::run_once`] (the 56-combination suite in
//!   `tests/determinism.rs` asserts it).
//!
//! This package is test support (`publish = false`): the workspace's
//! tests take it as a dev-dependency, no shipped crate depends on it, and qbm-lint, which scans `crates/` and `src/`, does not hold it
//! to the shipping-code rules. It reaches the simulator through two
//! public seams: [`ExperimentConfig::build_router`] and
//! [`Router::run_on`](qbm_sim::Router::run_on).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod sched;
pub mod traffic;

pub use event::EventQueue;
pub use sched::{HybridReference, VirtualClockReference, Wf2qReference, WfqReference};
pub use traffic::OnOffReference;

use qbm_core::flow::FlowSpec;
use qbm_core::units::{Rate, Time};
use qbm_sched::{SchedKind, Scheduler};
use qbm_sim::{ExperimentConfig, SimResult};

/// Instantiate the retained float/`BinaryHeap` reference
/// implementation of `kind` for differential testing and benchmarking.
/// Schedulers without virtual-time state (FIFO, DRR, EDF) have no
/// separate reference; they build their one implementation.
pub fn build_reference(
    kind: &SchedKind,
    link_rate: Rate,
    specs: &[FlowSpec],
) -> Box<dyn Scheduler> {
    match kind {
        SchedKind::Wfq => {
            let weights: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
            Box::new(WfqReference::new(link_rate, weights))
        }
        SchedKind::VirtualClock => {
            let rates: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
            Box::new(VirtualClockReference::new(rates))
        }
        SchedKind::Wf2q => {
            let weights: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
            Box::new(Wf2qReference::new(link_rate, weights))
        }
        SchedKind::Hybrid {
            assignment,
            queue_rates_bps,
        } => Box::new(HybridReference::new(
            link_rate,
            assignment.clone(),
            queue_rates_bps.clone(),
        )),
        SchedKind::Fifo | SchedKind::Drr | SchedKind::Edf => kind.build(link_rate, specs),
    }
}

/// The measurement window `[warmup, duration)` of `cfg` as instants.
fn window(cfg: &ExperimentConfig) -> (Time, Time) {
    (Time::ZERO + cfg.warmup, Time::ZERO + cfg.duration)
}

/// [`ExperimentConfig::run_once`] with the scheduler swapped for
/// its retained float reference ([`build_reference`]):
/// same sources, same policy, same event core — only the
/// virtual-time arithmetic differs (f64 over the shared Q32.32
/// quantization instead of pure integers). The determinism suite
/// asserts the output is byte-identical to `run_once` for every
/// scheduler × policy combination.
pub fn run_once_sched_reference(cfg: &ExperimentConfig, seed: u64) -> SimResult {
    let sched = build_reference(&cfg.sched, cfg.link_rate, &cfg.specs);
    let (warmup, end) = window(cfg);
    cfg.build_router(seed, sched).run(warmup, end, seed)
}

/// [`ExperimentConfig::run_once`] on the reference binary-heap
/// [`EventQueue`] instead of the [`IndexedTimers`] production core
/// (see [`qbm_sim::event`]), with the same enum sources. Must produce
/// byte-identical results to `run_once` — the determinism suite
/// asserts it.
///
/// [`IndexedTimers`]: qbm_sim::IndexedTimers
pub fn run_once_reference(cfg: &ExperimentConfig, seed: u64) -> SimResult {
    let sched = cfg.sched.build(cfg.link_rate, &cfg.specs);
    let (warmup, end) = window(cfg);
    cfg.build_router(seed, sched)
        .run_on(warmup, end, seed, EventQueue::new())
}
