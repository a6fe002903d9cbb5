//! Trace record schema: JSONL serialization and verification.
//!
//! A trace is a sequence of newline-delimited JSON objects:
//!
//! - Line 1 is the **header**: `{"schema":"qbm-trace","version":V,
//!   "flows":N,"truncated":K}`. `version` is 1 for traces without
//!   feedback records and [`SCHEMA_VERSION`] (2) when `fb` records may
//!   appear; consumers must reject versions they do not know.
//!   `truncated` counts records evicted from the bounded ring buffer
//!   (0 = complete trace).
//! - Every following line is one record: `{"ev":"<kind>","t":<ns>,…}`
//!   where `t` is simulated time in integer nanoseconds. Record kinds:
//!
//! | `ev` | fields | meaning |
//! |---|---|---|
//! | `arr` | `flow`, `len` | packet offered to the router |
//! | `enq` | `flow`, `len`, `q`, `tot` | packet admitted; post-enqueue flow/aggregate occupancy |
//! | `drop` | `flow`, `len`, `cause` | packet refused; `cause` ∈ `threshold` \| `buffer-full` \| `headroom-denied` |
//! | `dep` | `flow`, `len`, `sojourn` | packet transmitted; `sojourn` = ns since enqueue |
//! | `thr` | `flow`, `q`, `limit`, `up` | threshold crossing (hysteresis band, DESIGN.md §9) |
//! | `share` | `holes`, `headroom` | §3.3 pool transition |
//! | `fb` | `flow`, `ok`, `len`, `delay` \| `cause` | closed-loop feedback signal routed to the flow's source (v2 only): `ok:true` carries the delivery `delay` in ns, `ok:false` the drop `cause` |
//!
//! Every record additionally carries an optional `link` field —
//! the emitting link's index in a multi-link fabric — emitted only in a
//! merged fabric trace ([`crate::Tracer::merged_links_jsonl`]).
//! Single-link traces omit it entirely, so their bytes are unchanged
//! from pre-fabric output and the schema version stays 1; verifiers
//! accept both forms.
//!
//! Serialization is hand-rolled (fixed field order, no serde): byte
//! identity across runs and thread counts is part of the contract, so
//! the writer must be deterministic down to the characters.

use qbm_core::flow::FlowId;
use qbm_core::policy::DropReason;
use qbm_core::units::Time;

/// Trace schema version written in (and required of) the header line.
pub const SCHEMA_VERSION: u32 = 2;

/// The original (pre-feedback) schema version. Traces that contain no
/// `fb` records are still written as v1, so historical byte-identity
/// holds for every open-loop trace; `fb` records require a v2 header.
pub const SCHEMA_VERSION_V1: u32 = 1;

/// The schema identifier in the header line.
pub const SCHEMA_NAME: &str = "qbm-trace";

/// Stable wire label for a drop cause. These are the ISSUE/paper terms,
/// not the internal enum names: `NoSharedSpace` means the flow was over
/// its reservation and neither holes nor headroom covered the excess —
/// "headroom-denied" on the wire.
pub fn reason_label(reason: DropReason) -> &'static str {
    match reason {
        DropReason::BufferFull => "buffer-full",
        DropReason::OverThreshold => "threshold",
        DropReason::NoSharedSpace => "headroom-denied",
    }
}

/// One simulation event, sim-time-stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// Packet offered to the router (pre-admission).
    Arrival {
        /// Event instant.
        t: Time,
        /// Originating flow.
        flow: FlowId,
        /// Packet length in bytes.
        len: u32,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Packet admitted and enqueued.
    Enqueue {
        /// Event instant.
        t: Time,
        /// Originating flow.
        flow: FlowId,
        /// Packet length in bytes.
        len: u32,
        /// Post-enqueue occupancy of the flow, bytes.
        q: u64,
        /// Post-enqueue aggregate occupancy, bytes.
        tot: u64,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Packet refused.
    Drop {
        /// Event instant.
        t: Time,
        /// Originating flow.
        flow: FlowId,
        /// Packet length in bytes.
        len: u32,
        /// The policy's cause.
        reason: DropReason,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Packet finished transmission.
    Departure {
        /// Event instant.
        t: Time,
        /// Originating flow.
        flow: FlowId,
        /// Packet length in bytes.
        len: u32,
        /// Nanoseconds from enqueue to departure.
        sojourn_ns: u64,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Threshold crossing (up or, after hysteresis, down).
    Threshold {
        /// Event instant.
        t: Time,
        /// Crossing flow.
        flow: FlowId,
        /// Occupancy that triggered the record, bytes.
        q: u64,
        /// The policy threshold `Bᵢ`, bytes.
        limit: u64,
        /// `true` = entered the over-threshold regime.
        up: bool,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Hole/headroom pool transition (§3.3 sharing).
    Sharing {
        /// Event instant.
        t: Time,
        /// Unclaimed reserved space, bytes.
        holes: u64,
        /// Remaining unreserved pool, bytes.
        headroom: u64,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
    /// Closed-loop feedback signal routed back to a flow's source
    /// (schema v2 only).
    Feedback {
        /// Event instant (when the signal was applied).
        t: Time,
        /// The flow whose source received the signal.
        flow: FlowId,
        /// `true` = delivery, `false` = loss.
        delivered: bool,
        /// Length of the packet the signal is about, bytes.
        len: u32,
        /// Queueing delay reported with a delivery, ns (0 for losses).
        delay_ns: u64,
        /// Drop cause reported with a loss (`None` for deliveries).
        cause: Option<DropReason>,
        /// Emitting link index (fabric dimension).
        link: u32,
    },
}

impl TraceRecord {
    /// The record's sim-time stamp.
    pub fn time(&self) -> Time {
        match *self {
            TraceRecord::Arrival { t, .. }
            | TraceRecord::Enqueue { t, .. }
            | TraceRecord::Drop { t, .. }
            | TraceRecord::Departure { t, .. }
            | TraceRecord::Threshold { t, .. }
            | TraceRecord::Sharing { t, .. }
            | TraceRecord::Feedback { t, .. } => t,
        }
    }

    /// The wire `ev` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::Arrival { .. } => "arr",
            TraceRecord::Enqueue { .. } => "enq",
            TraceRecord::Drop { .. } => "drop",
            TraceRecord::Departure { .. } => "dep",
            TraceRecord::Threshold { .. } => "thr",
            TraceRecord::Sharing { .. } => "share",
            TraceRecord::Feedback { .. } => "fb",
        }
    }

    /// Serialize to one JSON line (no trailing newline). Field order is
    /// fixed — byte identity is part of the determinism contract.
    pub fn to_json(&self) -> String {
        match *self {
            TraceRecord::Arrival { t, flow, len, .. } => format!(
                "{{\"ev\":\"arr\",\"t\":{},\"flow\":{},\"len\":{}}}",
                t.as_nanos(),
                flow.0,
                len
            ),
            TraceRecord::Enqueue {
                t,
                flow,
                len,
                q,
                tot,
                ..
            } => format!(
                "{{\"ev\":\"enq\",\"t\":{},\"flow\":{},\"len\":{},\"q\":{},\"tot\":{}}}",
                t.as_nanos(),
                flow.0,
                len,
                q,
                tot
            ),
            TraceRecord::Drop {
                t,
                flow,
                len,
                reason,
                ..
            } => format!(
                "{{\"ev\":\"drop\",\"t\":{},\"flow\":{},\"len\":{},\"cause\":\"{}\"}}",
                t.as_nanos(),
                flow.0,
                len,
                reason_label(reason)
            ),
            TraceRecord::Departure {
                t,
                flow,
                len,
                sojourn_ns,
                ..
            } => format!(
                "{{\"ev\":\"dep\",\"t\":{},\"flow\":{},\"len\":{},\"sojourn\":{}}}",
                t.as_nanos(),
                flow.0,
                len,
                sojourn_ns
            ),
            TraceRecord::Threshold {
                t,
                flow,
                q,
                limit,
                up,
                ..
            } => format!(
                "{{\"ev\":\"thr\",\"t\":{},\"flow\":{},\"q\":{},\"limit\":{},\"up\":{}}}",
                t.as_nanos(),
                flow.0,
                q,
                limit,
                up
            ),
            TraceRecord::Sharing {
                t, holes, headroom, ..
            } => format!(
                "{{\"ev\":\"share\",\"t\":{},\"holes\":{},\"headroom\":{}}}",
                t.as_nanos(),
                holes,
                headroom
            ),
            TraceRecord::Feedback {
                t,
                flow,
                delivered,
                len,
                delay_ns,
                cause,
                ..
            } => match cause {
                None => format!(
                    "{{\"ev\":\"fb\",\"t\":{},\"flow\":{},\"ok\":{},\"len\":{},\"delay\":{}}}",
                    t.as_nanos(),
                    flow.0,
                    delivered,
                    len,
                    delay_ns
                ),
                Some(reason) => format!(
                    "{{\"ev\":\"fb\",\"t\":{},\"flow\":{},\"ok\":{},\"len\":{},\"cause\":\"{}\"}}",
                    t.as_nanos(),
                    flow.0,
                    delivered,
                    len,
                    reason_label(reason)
                ),
            },
        }
    }

    /// The record's link index.
    pub fn link(&self) -> u32 {
        match *self {
            TraceRecord::Arrival { link, .. }
            | TraceRecord::Enqueue { link, .. }
            | TraceRecord::Drop { link, .. }
            | TraceRecord::Departure { link, .. }
            | TraceRecord::Threshold { link, .. }
            | TraceRecord::Sharing { link, .. }
            | TraceRecord::Feedback { link, .. } => link,
        }
    }

    /// [`TraceRecord::to_json`] with the link dimension appended as a
    /// final `"link":N` field. Used by link-dimensioned tracers; plain
    /// tracers call [`TraceRecord::to_json`] so single-link traces keep
    /// their exact pre-fabric bytes.
    pub fn to_json_with_link(&self) -> String {
        let mut s = self.to_json();
        s.pop();
        s.push_str(&format!(",\"link\":{}}}", self.link()));
        s
    }
}

/// Render the header line of a schema-`version` trace covering `flows`
/// flows with `truncated` ring-evicted records. Tracers write v1 unless
/// they captured an `fb` record, which needs v2.
pub fn header_with_version(flows: usize, truncated: u64, version: u32) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA_NAME}\",\"version\":{version},\"flows\":{flows},\"truncated\":{truncated}}}"
    )
}

/// What [`verify_trace`] counted on success.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total record lines (header excluded).
    pub records: u64,
    /// `arr` records.
    pub arrivals: u64,
    /// `enq` records.
    pub enqueues: u64,
    /// `drop` records.
    pub drops: u64,
    /// `dep` records.
    pub departures: u64,
    /// `thr` records.
    pub crossings: u64,
    /// `share` records.
    pub sharing: u64,
    /// `fb` records (schema v2).
    pub feedback: u64,
    /// The header's `truncated` count.
    pub truncated: u64,
}

/// A schema violation found by [`verify_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace has no lines at all.
    Empty,
    /// Line 1 is not a `qbm-trace` header.
    BadHeader,
    /// The header's `version` is neither 1 nor [`SCHEMA_VERSION`].
    WrongVersion(u64),
    /// A record line failed a check: `(1-based line, problem)`.
    BadRecord(usize, String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "empty trace"),
            TraceError::BadHeader => write!(f, "line 1 is not a {SCHEMA_NAME} header"),
            TraceError::WrongVersion(v) => {
                write!(f, "schema version {v} (expected 1..={SCHEMA_VERSION})")
            }
            TraceError::BadRecord(line, what) => write!(f, "line {line}: {what}"),
        }
    }
}

/// Extract the raw value text of `"key":<value>` from a single-line
/// JSON object. Good enough for the fixed schema this module writes;
/// not a general JSON parser.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Validate a JSONL trace: header shape and version, known record
/// kinds, required per-kind fields, and non-decreasing timestamps.
/// Returns counts per kind.
pub fn verify_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let mut lines = text.lines().enumerate();
    let Some((_, head)) = lines.next() else {
        return Err(TraceError::Empty);
    };
    if field(head, "schema") != Some("\"qbm-trace\"") {
        return Err(TraceError::BadHeader);
    }
    let version = match field_u64(head, "version") {
        Some(v) if v >= 1 && v <= SCHEMA_VERSION as u64 => v,
        Some(v) => return Err(TraceError::WrongVersion(v)),
        None => return Err(TraceError::BadHeader),
    };
    let mut sum = TraceSummary {
        truncated: field_u64(head, "truncated").ok_or(TraceError::BadHeader)?,
        ..TraceSummary::default()
    };

    let mut last_t: u64 = 0;
    for (idx, line) in lines {
        let lineno = idx + 1; // 1-based
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| TraceError::BadRecord(lineno, what.to_string());
        let ev = field(line, "ev").ok_or_else(|| bad("missing ev"))?;
        let t = field_u64(line, "t").ok_or_else(|| bad("missing t"))?;
        let required: &[&str] = match ev {
            "\"arr\"" => {
                sum.arrivals += 1;
                &["flow", "len"]
            }
            "\"enq\"" => {
                sum.enqueues += 1;
                &["flow", "len", "q", "tot"]
            }
            "\"drop\"" => {
                sum.drops += 1;
                let cause = field(line, "cause").ok_or_else(|| bad("missing cause"))?;
                if !matches!(
                    cause,
                    "\"threshold\"" | "\"buffer-full\"" | "\"headroom-denied\""
                ) {
                    return Err(bad("unknown drop cause"));
                }
                &["flow", "len"]
            }
            "\"dep\"" => {
                sum.departures += 1;
                &["flow", "len", "sojourn"]
            }
            "\"thr\"" => {
                sum.crossings += 1;
                let up = field(line, "up").ok_or_else(|| bad("missing up"))?;
                if !matches!(up, "true" | "false") {
                    return Err(bad("up must be a bool"));
                }
                &["flow", "q", "limit"]
            }
            "\"share\"" => {
                sum.sharing += 1;
                &["holes", "headroom"]
            }
            "\"fb\"" => {
                if version < SCHEMA_VERSION as u64 {
                    return Err(bad("fb record in a v1 trace"));
                }
                sum.feedback += 1;
                let ok = field(line, "ok").ok_or_else(|| bad("missing ok"))?;
                match ok {
                    "true" => {
                        if field_u64(line, "delay").is_none() {
                            return Err(bad("delivered fb needs delay"));
                        }
                    }
                    "false" => {
                        let cause = field(line, "cause").ok_or_else(|| bad("missing cause"))?;
                        if !matches!(
                            cause,
                            "\"threshold\"" | "\"buffer-full\"" | "\"headroom-denied\""
                        ) {
                            return Err(bad("unknown fb cause"));
                        }
                    }
                    _ => return Err(bad("ok must be a bool")),
                }
                &["flow", "len"]
            }
            _ => return Err(bad("unknown ev kind")),
        };
        for key in required {
            if field_u64(line, key).is_none() {
                return Err(bad(&format!("missing {key}")));
            }
        }
        // The optional fabric dimension: if present it must be a valid
        // link index.
        if field(line, "link").is_some() && field_u64(line, "link").is_none() {
            return Err(bad("link must be an integer"));
        }
        if t < last_t {
            return Err(bad("timestamp went backwards"));
        }
        last_t = t;
        sum.records += 1;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbm_core::units::Time;

    fn rec_arr(t_ns: u64) -> TraceRecord {
        TraceRecord::Arrival {
            t: qbm_core::units::Time(t_ns),
            flow: FlowId(0),
            len: 500,
            link: 0,
        }
    }

    #[test]
    fn records_serialize_with_fixed_field_order() {
        assert_eq!(
            rec_arr(42).to_json(),
            "{\"ev\":\"arr\",\"t\":42,\"flow\":0,\"len\":500}"
        );
        let d = TraceRecord::Drop {
            t: Time(7),
            flow: FlowId(3),
            len: 500,
            reason: DropReason::NoSharedSpace,
            link: 0,
        };
        assert_eq!(
            d.to_json(),
            "{\"ev\":\"drop\",\"t\":7,\"flow\":3,\"len\":500,\"cause\":\"headroom-denied\"}"
        );
    }

    #[test]
    fn reason_labels_follow_issue_taxonomy() {
        assert_eq!(reason_label(DropReason::OverThreshold), "threshold");
        assert_eq!(reason_label(DropReason::BufferFull), "buffer-full");
        assert_eq!(reason_label(DropReason::NoSharedSpace), "headroom-denied");
    }

    #[test]
    fn verify_accepts_a_well_formed_trace() {
        let text = format!(
            "{}\n{}\n{}\n",
            header_with_version(2, 0, SCHEMA_VERSION_V1),
            rec_arr(10).to_json(),
            TraceRecord::Enqueue {
                t: Time(10),
                flow: FlowId(0),
                len: 500,
                q: 500,
                tot: 500,
                link: 0
            }
            .to_json()
        );
        let sum = verify_trace(&text).expect("valid trace");
        assert_eq!(sum.records, 2);
        assert_eq!(sum.arrivals, 1);
        assert_eq!(sum.enqueues, 1);
    }

    #[test]
    fn verify_rejects_bad_header_version_and_order() {
        assert_eq!(verify_trace(""), Err(TraceError::Empty));
        assert_eq!(
            verify_trace("{\"schema\":\"other\"}\n"),
            Err(TraceError::BadHeader)
        );
        let old = "{\"schema\":\"qbm-trace\",\"version\":99,\"flows\":1,\"truncated\":0}\n";
        assert_eq!(verify_trace(old), Err(TraceError::WrongVersion(99)));
        let back = format!(
            "{}\n{}\n{}\n",
            header_with_version(1, 0, SCHEMA_VERSION_V1),
            rec_arr(10).to_json(),
            rec_arr(5).to_json()
        );
        assert!(matches!(
            verify_trace(&back),
            Err(TraceError::BadRecord(3, _))
        ));
    }

    #[test]
    fn verify_rejects_unknown_kind_and_cause() {
        let bad_kind = format!(
            "{}\n{{\"ev\":\"zap\",\"t\":0}}\n",
            header_with_version(1, 0, SCHEMA_VERSION_V1)
        );
        assert!(matches!(
            verify_trace(&bad_kind),
            Err(TraceError::BadRecord(2, _))
        ));
        let bad_cause = format!(
            "{}\n{{\"ev\":\"drop\",\"t\":0,\"flow\":0,\"len\":1,\"cause\":\"tuesday\"}}\n",
            header_with_version(1, 0, SCHEMA_VERSION_V1)
        );
        assert!(matches!(
            verify_trace(&bad_cause),
            Err(TraceError::BadRecord(2, _))
        ));
    }
}
