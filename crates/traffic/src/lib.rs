//! # qbm-traffic
//!
//! Traffic-generation substrate for the SIGCOMM '98 buffer-management
//! reproduction: the Markov-modulated ON-OFF sources the paper simulates
//! (§3.2), leaky-bucket regulators that make flows conformant, several
//! auxiliary source types, and the exact Table 1 / Table 2 workloads.
//!
//! Sources follow a **pull model**: the simulator asks a [`Source`] for
//! its next packet emission, which must be non-decreasing in time. The
//! ON-OFF source draws from a seeded [`rand_chacha::ChaCha8Keystream`],
//! so a `(workload, seed)` pair reproduces the exact same packet trace on any
//! platform — this is what makes the paper's 5-run confidence intervals
//! reproducible here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aimd;
pub mod cbr;
pub mod kind;
pub mod onoff;
pub mod regulator;
pub mod source;
pub mod trace;
pub mod workloads;

pub use aimd::{AimdConfig, AimdSource, AimdStats};
pub use cbr::CbrSource;
pub use kind::SourceKind;
pub use onoff::{OnOffSource, Sojourns};
pub use regulator::ShapedSource;
pub use source::{Emission, Feedback, Source};
pub use trace::TraceSource;
pub use workloads::{
    build_source_kind, build_source_kind_with_sojourns, table1, table1_scaled, table2, PACKET_BYTES,
};
