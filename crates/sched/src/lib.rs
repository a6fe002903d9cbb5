//! # qbm-sched
//!
//! Link-scheduler substrate for the SIGCOMM '98 buffer-management
//! reproduction. Implements the paper's two endpoints and its hybrid:
//!
//! * [`Fifo`] — the O(1) single queue the paper's scheme relies on;
//! * [`Wfq`] — per-flow Weighted Fair Queueing (PGPS, Parekh \[6\]) with
//!   exact GPS virtual-time tracking — the "sophisticated scheduler"
//!   benchmark, O(log N) per packet;
//! * [`Hybrid`] — §4's architecture: `k` FIFO queues served by WFQ with
//!   Proposition-3 rate weights; per-packet work follows the backlogged
//!   queues (at most k, fixed and small), not the flow count;
//! * [`Drr`] — deficit round-robin, an extra O(1) approximate-fairness
//!   baseline (documented extension, not in the paper).
//!
//! All schedulers implement [`Scheduler`]: `enqueue` stores packet
//! metadata, `dequeue` picks the next packet to transmit. Buffer
//! admission is *not* their job — that's `qbm-core::policy`, applied by
//! the router before enqueueing (the paper's whole point is moving the
//! QoS burden from the scheduler to that admission step).
//!
//! ## Virtual time is fixed-point
//!
//! Every timestamp scheduler (WFQ, WF²Q+, Virtual Clock, the hybrid's
//! WFQ layer) runs on the Q32.32 [`VirtualTime`] integer clock from
//! [`vclock`] and indexes queue heads in the adaptive [`ActiveSet`]
//! from [`active_set`] (occupied-slot bitmap scan at the paper's class
//! counts, winner tree at ISP flow counts) — no `f64` state, no NaN-capable compares,
//! no heap churn on the hot path. The original float/`BinaryHeap`
//! formulations are retained verbatim-in-architecture as `*Reference`
//! schedulers in the dev-only `qbm-oracle` package, for differential
//! testing; this crate ships only the integer schedulers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod active_set;
pub mod drr;
pub mod edf;
pub mod fifo;
pub mod hybrid;
pub mod scheduler;
pub mod tournament;
pub mod vclock;
pub mod wf2q;
pub mod wfq;

pub use active_set::{ActiveSet, Layout, SCAN_TREE_CROSSOVER};
pub use drr::Drr;
pub use edf::Edf;
pub use fifo::Fifo;
pub use hybrid::Hybrid;
pub use scheduler::{PacketRef, Scheduler};
pub use vclock::{VirtualClock, VirtualTime};
pub use wf2q::Wf2q;
pub use wfq::Wfq;

use qbm_core::flow::FlowSpec;
use qbm_core::units::Rate;

/// Declarative scheduler selector used by experiment configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedKind {
    /// Single FIFO queue.
    Fifo,
    /// Per-flow WFQ weighted by token rates (§3.2).
    Wfq,
    /// Deficit round-robin weighted by token rates (extension).
    Drr,
    /// Virtual Clock stamped by token rates (extension; cited via \[8\]).
    VirtualClock,
    /// Earliest-deadline-first with budgets σᵢ/ρᵢ + L/ρᵢ (extension;
    /// the rate-controlled EDF family of \[4\]).
    Edf,
    /// WF²Q+ weighted by token rates (extension; worst-case-fair WFQ).
    Wf2q,
    /// §4 hybrid: `assignment[f]` = queue of flow `f`, one weight
    /// (service rate, b/s) per queue.
    Hybrid {
        /// Queue index per flow.
        assignment: Vec<usize>,
        /// Per-queue service rates `Rᵢ`, b/s (Eq. 16).
        queue_rates_bps: Vec<u64>,
    },
}

impl SchedKind {
    /// Instantiate for a concrete link and flow set.
    pub fn build(&self, link_rate: Rate, specs: &[FlowSpec]) -> Box<dyn Scheduler> {
        match self {
            SchedKind::Fifo => Box::new(Fifo::new()),
            SchedKind::Wfq => {
                let weights: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
                Box::new(Wfq::new(link_rate, weights))
            }
            SchedKind::Drr => {
                let weights: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
                Box::new(Drr::new(weights))
            }
            SchedKind::VirtualClock => {
                let rates: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
                Box::new(VirtualClock::new(rates))
            }
            SchedKind::Edf => Box::new(Edf::from_specs(specs, 500)),
            SchedKind::Wf2q => {
                let weights: Vec<u64> = specs.iter().map(|s| s.token_rate.bps().max(1)).collect();
                Box::new(Wf2q::new(link_rate, weights))
            }
            SchedKind::Hybrid {
                assignment,
                queue_rates_bps,
            } => Box::new(Hybrid::new(
                link_rate,
                assignment.clone(),
                queue_rates_bps.clone(),
            )),
        }
    }

    /// Short label for figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::Wfq => "wfq",
            SchedKind::Drr => "drr",
            SchedKind::VirtualClock => "vclock",
            SchedKind::Edf => "edf",
            SchedKind::Wf2q => "wf2q+",
            SchedKind::Hybrid { .. } => "hybrid",
        }
    }
}
