//! # qbm-sim
//!
//! Deterministic discrete-event simulator for the SIGCOMM '98
//! buffer-management paper. One output link, a buffer-management policy
//! in front of it, a scheduler behind it, and the paper's traffic —
//! everything needed to regenerate Figures 1–13.
//!
//! Design (smoltcp-flavoured, per the networking guides): synchronous,
//! event-driven, zero `unsafe`, no async runtime — simulation is
//! CPU-bound, so an ordinary run loop beats an executor. Determinism is
//! load-bearing: integer-nanosecond clock, seeded per-flow ChaCha
//! streams, and a stable event tie-break mean a `(config, seed)` pair
//! reproduces byte-identical results on any machine.
//!
//! * [`event`] — the timer core: indexed per-flow arrival slots under
//!   a deterministic tournament tree ([`IndexedTimers`]) behind the
//!   [`EventCore`] trait (the reference binary heap it is tested
//!   against lives in the dev-only `qbm-oracle` package);
//! * [`router`] — policy × scheduler × link composition;
//! * [`stats`] — per-flow counters, warmup trimming, throughput/loss
//!   accessors;
//! * [`experiment`] — `(config, seeds)` → multi-run summaries with the
//!   paper's 5-run 95 % confidence intervals, plus the [`Campaign`]
//!   runner that shards a (point × replication) grid across a scoped
//!   thread pool with bit-identical results for any thread count;
//! * [`scenarios`] — the §3.2 schemes, §3.3 sharing setups and §4.2
//!   hybrid cases as ready-made configurations, plus topology
//!   generators (multi-hop line, aggregation tree, incast fan-in) for
//!   the fabric;
//! * [`fabric`] — a DAG of links advanced in deterministic
//!   log-handoff epochs, with link-level sharding across threads
//!   (extension beyond the paper's single link).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod experiment;
pub mod fabric;
pub mod router;
pub mod scenarios;
pub mod stats;

pub use event::{EventCore, IndexedTimers};
pub use experiment::{
    Campaign, ExperimentConfig, MultiRun, PolicySpec, SeedMode, SimArena, SourceSel, Summary,
};
pub use fabric::Fabric;
pub use router::Router;
pub use stats::{FlowStats, SimResult, StatsCollector, StatsConfig};

pub use qbm_obs::{QuantileSketch, SketchParams};
