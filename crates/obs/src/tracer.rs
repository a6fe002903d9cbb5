//! Bounded ring-buffer tracer: keeps the most recent N records.
//!
//! Traces of long runs are unbounded (a 22 s Table-1 run emits
//! millions of events), so the tracer holds a fixed-capacity ring and
//! evicts oldest-first, counting evictions. The JSONL header reports
//! the eviction count as `truncated`, so a consumer always knows
//! whether it is looking at the whole run or its tail.
//!
//! Fabric traces: every record stores the link index its hook call
//! carried, but only the merged fabric trace
//! ([`Tracer::merged_links_jsonl`]) writes the `link` field —
//! single-link traces stay byte-identical to pre-fabric output.
//!
//! Closed-loop runs raise `fb` hooks; a tracer that recorded one writes
//! a schema-v2 header. Open-loop runs never raise them, so their traces
//! keep their exact v1 bytes.

use std::collections::VecDeque;

use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::{Dur, Time};

use crate::record::{header_with_version, TraceRecord, SCHEMA_VERSION, SCHEMA_VERSION_V1};
use crate::Observer;

/// Default ring capacity (records).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// An [`Observer`] that materializes [`TraceRecord`]s into a bounded
/// ring buffer for JSONL export.
#[derive(Debug, Clone)]
pub struct Tracer {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    truncated: u64,
    /// Highest flow index seen + 1 (header `flows` field).
    flows: usize,
    /// An `fb` record was captured: the header is schema v2.
    feedback: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A tracer keeping at most `capacity` records (oldest evicted).
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "zero-capacity tracer");
        Tracer {
            cap: capacity,
            buf: VecDeque::with_capacity(capacity.min(1 << 12)),
            truncated: 0,
            flows: 0,
            feedback: false,
        }
    }

    /// Schema version this tracer's header advertises: v2 once it
    /// captured an `fb` record, v1 otherwise.
    fn version(&self) -> u32 {
        if self.feedback {
            SCHEMA_VERSION
        } else {
            SCHEMA_VERSION_V1
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.truncated += 1;
        }
        self.buf.push_back(rec);
    }

    fn saw_flow(&mut self, flow: FlowId) {
        self.flows = self.flows.max(flow.index() + 1);
    }

    /// Records currently held (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted from the ring (0 = the trace is complete).
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Render the full trace: header line + one JSON line per record,
    /// each newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = header_with_version(self.flows, self.truncated, self.version());
        out.push('\n');
        for rec in &self.buf {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Merge per-link tracers of one fabric run into a single globally
    /// time-ordered trace: one header (summed `truncated`, max
    /// `flows`), then a k-way merge of the link streams by
    /// `(time, link index)` with the `link` field forced on every
    /// record. The tie-break on the deterministic link index makes the
    /// merged trace byte-identical for any shard-thread count.
    pub fn merged_links_jsonl(links: &[Tracer]) -> String {
        let flows = links.iter().map(|t| t.flows).max().unwrap_or(0);
        let truncated = links.iter().map(|t| t.truncated).sum();
        let version = links
            .iter()
            .map(|t| t.version())
            .max()
            .unwrap_or(SCHEMA_VERSION_V1);
        let mut out = header_with_version(flows, truncated, version);
        out.push('\n');
        let mut pos = vec![0usize; links.len()];
        loop {
            let next = links
                .iter()
                .enumerate()
                .filter_map(|(i, tr)| tr.buf.get(pos[i]).map(|r| (r.time(), i)))
                .min();
            let Some((_, i)) = next else { break };
            out.push_str(&links[i].buf[pos[i]].to_json_with_link());
            out.push('\n');
            pos[i] += 1;
        }
        out
    }
}

impl Observer for Tracer {
    fn on_arrival(&mut self, now: Time, flow: FlowId, len: u32, link: u32) {
        self.saw_flow(flow);
        self.push(TraceRecord::Arrival {
            t: now,
            flow,
            len,
            link,
        });
    }

    fn on_enqueue(
        &mut self,
        now: Time,
        flow: FlowId,
        len: u32,
        flow_occ: u64,
        total_occ: u64,
        link: u32,
    ) {
        self.push(TraceRecord::Enqueue {
            t: now,
            flow,
            len,
            q: flow_occ,
            tot: total_occ,
            link,
        });
    }

    fn on_drop(&mut self, now: Time, flow: FlowId, len: u32, reason: DropReason, link: u32) {
        self.push(TraceRecord::Drop {
            t: now,
            flow,
            len,
            reason,
            link,
        });
    }

    fn on_departure(&mut self, now: Time, flow: FlowId, len: u32, arrival: Time, link: u32) {
        self.push(TraceRecord::Departure {
            t: now,
            flow,
            len,
            sojourn_ns: now.since(arrival).as_nanos(),
            link,
        });
    }

    fn on_threshold(&mut self, now: Time, flow: FlowId, occ: u64, limit: u64, up: bool, link: u32) {
        self.push(TraceRecord::Threshold {
            t: now,
            flow,
            q: occ,
            limit,
            up,
            link,
        });
    }

    fn on_sharing(&mut self, now: Time, holes: u64, headroom: u64, link: u32) {
        self.push(TraceRecord::Sharing {
            t: now,
            holes,
            headroom,
            link,
        });
    }

    fn on_feedback(
        &mut self,
        now: Time,
        flow: FlowId,
        delivered: bool,
        len: u32,
        delay: Dur,
        cause: Option<DropReason>,
        link: u32,
    ) {
        self.feedback = true;
        self.saw_flow(flow);
        self.push(TraceRecord::Feedback {
            t: now,
            flow,
            delivered,
            len,
            delay_ns: delay.as_nanos(),
            cause,
            link,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::verify_trace;

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut tr = Tracer::new(3);
        for i in 0..5u64 {
            tr.on_arrival(Time(i), FlowId(0), 100, 0);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.truncated(), 2);
        let first = tr.records().next().expect("nonempty");
        assert_eq!(first.time(), Time(2));
    }

    #[test]
    fn jsonl_roundtrips_through_verify() {
        let mut tr = Tracer::new(16);
        tr.on_arrival(Time(5), FlowId(1), 500, 0);
        tr.on_enqueue(Time(5), FlowId(1), 500, 500, 500, 0);
        tr.on_departure(Time(90), FlowId(1), 500, Time(5), 0);
        let text = tr.to_jsonl();
        let sum = verify_trace(&text).expect("tracer output must verify");
        assert_eq!(sum.records, 3);
        assert_eq!(sum.departures, 1);
        assert!(text.starts_with("{\"schema\":\"qbm-trace\",\"version\":1,\"flows\":2,"));
    }

    #[test]
    fn only_the_merged_fabric_trace_writes_the_link_field() {
        let mut tr = Tracer::new(4);
        tr.on_arrival(Time(5), FlowId(1), 500, 3);
        let plain_text = tr.to_jsonl();
        let link_text = Tracer::merged_links_jsonl(&[tr]);
        assert!(plain_text.contains("{\"ev\":\"arr\",\"t\":5,\"flow\":1,\"len\":500}\n"));
        assert!(link_text.contains("{\"ev\":\"arr\",\"t\":5,\"flow\":1,\"len\":500,\"link\":3}\n"));
        verify_trace(&plain_text).expect("plain form verifies");
        verify_trace(&link_text).expect("link form verifies");
    }

    #[test]
    fn feedback_records_bump_the_schema() {
        use qbm_core::policy::DropReason;
        // No fb hook, no v2: open-loop traces keep their historical bytes.
        let mut plain = Tracer::new(8);
        plain.on_arrival(Time(5), FlowId(0), 500, 0);
        let plain_text = plain.to_jsonl();
        assert!(plain_text.contains("\"version\":1,"));

        let mut fb = Tracer::new(8);
        fb.on_arrival(Time(5), FlowId(0), 500, 0);
        fb.on_feedback(Time(9), FlowId(0), true, 500, Dur(4), None, 0);
        fb.on_feedback(
            Time(12),
            FlowId(1),
            false,
            500,
            Dur::ZERO,
            Some(DropReason::OverThreshold),
            0,
        );
        let text = fb.to_jsonl();
        assert!(text.starts_with("{\"schema\":\"qbm-trace\",\"version\":2,\"flows\":2,"));
        assert!(text
            .contains("{\"ev\":\"fb\",\"t\":9,\"flow\":0,\"ok\":true,\"len\":500,\"delay\":4}\n"));
        assert!(text.contains(
            "{\"ev\":\"fb\",\"t\":12,\"flow\":1,\"ok\":false,\"len\":500,\"cause\":\"threshold\"}\n"
        ));
        let sum = verify_trace(&text).expect("feedback trace verifies");
        assert_eq!(sum.feedback, 2);
    }

    #[test]
    fn merged_trace_takes_the_max_version_across_inputs() {
        let a = Tracer::new(4); // v1
        let mut b = Tracer::new(4);
        b.on_feedback(Time(3), FlowId(0), true, 100, Dur::ZERO, None, 1);
        let text = Tracer::merged_links_jsonl(&[a, b]);
        assert!(text.contains("\"version\":2,"));
        verify_trace(&text).expect("merged v2 trace verifies");
    }

    #[test]
    fn merged_links_trace_interleaves_by_time_and_verifies() {
        let mut a = Tracer::new(4);
        a.on_arrival(Time(50), FlowId(0), 1, 0);
        a.on_arrival(Time(200), FlowId(0), 1, 0);
        let mut b = Tracer::new(4);
        b.on_departure(Time(100), FlowId(0), 1, Time(40), 1);
        let text = Tracer::merged_links_jsonl(&[a, b]);
        let sum = verify_trace(&text).expect("merged link trace verifies");
        assert_eq!(sum.records, 3);
        // Global time order: link 0 @50, link 1 @100, link 0 @200.
        let links: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| &l[l.find("\"link\":").unwrap() + 7..l.len() - 1])
            .collect();
        assert_eq!(links, ["0", "1", "0"]);
    }
}
