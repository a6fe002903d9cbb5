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
//! * the Criterion benches (`benches/`) measure the per-packet costs
//!   behind the paper's scalability argument: O(1) policy admission vs
//!   O(log N) WFQ scheduling; those that keep a committed `BENCH_*.json`
//!   write it through [`bench_file`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench_file;
pub mod figures;
pub mod report;

pub use report::{Figure, RunProfile, Series};
