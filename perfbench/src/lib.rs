//! End-to-end and per-layer benchmark for the qbm simulator.
//!
//! Three workloads of fixed simulated work ([`workloads`]) run untraced
//! for the end-to-end metrics. A separate traced run per workload
//! ([`trace`]) splits the same work across the simulator's layers by
//! timing calls into their public traits ([`layers`]). Metric names and
//! the result line live in [`report`]; `README.md` documents them.

pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;
