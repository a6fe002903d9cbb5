//! Enum dispatch over the crate's source types.
//!
//! The simulator's inner loop pulls one emission per packet; behind a
//! `Box<dyn Source>` that pull is a virtual call the compiler cannot
//! inline. [`SourceKind`] closes the set over the source types the
//! workloads actually build, so `next_emission` compiles to a jump
//! table with every arm inlined — and token-bucket/CBR arithmetic
//! fuses into the event loop. The set is closed: a new source type
//! joins the simulator as a new variant (qbm-lint's
//! `exhaustive-source` rule checks the wiring).

use crate::aimd::AimdSource;
use crate::cbr::CbrSource;
use crate::onoff::OnOffSource;
use crate::regulator::ShapedSource;
use crate::source::{Emission, Feedback, Source};
use crate::trace::TraceSource;
use qbm_core::units::Time;

/// A packet source with statically-known dispatch.
///
/// Every variant implements [`Source`]; the enum's own impl is a
/// `match` the optimizer turns into direct, inlinable calls.
pub enum SourceKind {
    /// Constant-bit-rate source.
    Cbr(CbrSource),
    /// Markov-modulated ON-OFF source (the paper's traffic model).
    OnOff(OnOffSource),
    /// Replay of a recorded emission trace (fixtures, and the empty
    /// stub behind every fabric relay flow).
    Trace(TraceSource),
    /// Leaky-bucket-regulated ON-OFF source — the paper's conformant
    /// flows (§3.2), monomorphized end to end.
    Regulated(ShapedSource<OnOffSource>),
    /// Closed-loop AIMD source: window-gated emission driven by
    /// [`Feedback`] from the link it feeds.
    Aimd(AimdSource),
}

impl Source for SourceKind {
    #[inline]
    fn next_emission(&mut self) -> Option<Emission> {
        match self {
            SourceKind::Cbr(s) => s.next_emission(),
            SourceKind::OnOff(s) => s.next_emission(),
            SourceKind::Trace(s) => s.next_emission(),
            SourceKind::Regulated(s) => s.next_emission(),
            SourceKind::Aimd(s) => s.next_emission(),
        }
    }

    #[inline]
    fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {
        // Every variant spelled out (no wildcard): the qbm-lint
        // exhaustiveness check requires a new variant to take an
        // explicit stance on feedback, not inherit silence.
        match self {
            SourceKind::Cbr(_) => None,
            SourceKind::OnOff(_) => None,
            SourceKind::Trace(_) => None,
            SourceKind::Regulated(_) => None,
            SourceKind::Aimd(s) => s.on_feedback(now, fb),
        }
    }

    #[inline]
    fn reacts_to_feedback(&self) -> bool {
        matches!(self, SourceKind::Aimd(_))
    }
}

impl SourceKind {
    /// Whether this source reacts to [`Feedback`] — i.e. the engine
    /// must route drop/departure signals back to it and re-pull after
    /// a `None` emission. Only [`SourceKind::Aimd`] does.
    pub fn is_closed_loop(&self) -> bool {
        self.reacts_to_feedback()
    }

    /// Borrow the AIMD state for stats harvest, if this is an
    /// [`SourceKind::Aimd`] flow.
    pub fn as_aimd(&self) -> Option<&AimdSource> {
        match self {
            SourceKind::Aimd(s) => Some(s),
            _ => None,
        }
    }
}

impl From<CbrSource> for SourceKind {
    fn from(s: CbrSource) -> SourceKind {
        SourceKind::Cbr(s)
    }
}

impl From<OnOffSource> for SourceKind {
    fn from(s: OnOffSource) -> SourceKind {
        SourceKind::OnOff(s)
    }
}

impl From<TraceSource> for SourceKind {
    fn from(s: TraceSource) -> SourceKind {
        SourceKind::Trace(s)
    }
}

impl From<ShapedSource<OnOffSource>> for SourceKind {
    fn from(s: ShapedSource<OnOffSource>) -> SourceKind {
        SourceKind::Regulated(s)
    }
}

impl From<AimdSource> for SourceKind {
    fn from(s: AimdSource) -> SourceKind {
        SourceKind::Aimd(s)
    }
}

impl std::fmt::Debug for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SourceKind::Cbr(_) => "Cbr",
            SourceKind::OnOff(_) => "OnOff",
            SourceKind::Trace(_) => "Trace",
            SourceKind::Regulated(_) => "Regulated",
            SourceKind::Aimd(_) => "Aimd",
        };
        f.debug_tuple(name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn source_kind_stays_within_the_per_flow_budget() {
        // One `SourceKind` per sourced flow is the source footprint at
        // ISP scale. The largest variant is a regulated ON-OFF source:
        // its 96 B source (keystream key and position, no cached
        // block) plus a 48 B token bucket, 16-aligned.
        assert_eq!(size_of::<OnOffSource>(), 96, "OnOffSource footprint");
        assert!(
            size_of::<SourceKind>() <= 160,
            "{} B",
            size_of::<SourceKind>()
        );
    }
}
