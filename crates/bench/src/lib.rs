//! # qbm-bench
//!
//! Benchmark harness for the SIGCOMM '98 buffer-management
//! reproduction:
//!
//! * the [`figures`] module regenerates **every table and figure** of
//!   the paper (Table 1/2, Figures 1–13) plus the analytic artifacts
//!   (Eq.-10 frontier, Example 1 convergence, Prop-3 savings) and the
//!   DESIGN.md ablations;
//! * the `paper` binary (`cargo run -p qbm-bench --release --bin paper
//!   -- <id>`) renders them as aligned text series and JSON under
//!   `results/`;
//! * the `sched_scale` bench (`benches/`) times the per-packet costs
//!   behind the paper's scalability argument — O(1) policy admission vs
//!   sorted schedulers — alongside ActiveSet layouts and fabric scale,
//!   and writes them to `BENCH_scale.json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figures;
pub mod report;

pub use report::{Figure, RunProfile, Series};
