//! Metric names and units, the run tally, the result line, and the
//! small statistics and host helpers the workloads share.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
/// `README.md` maps each one to its layer, its method and its workloads.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.emissions", "count"),
    ("traffic.ns_per_emission", "ns"),
    ("traffic.feedback_signals", "count"),
    ("traffic.build_s", "s"),
    ("core.policy.calls", "count"),
    ("core.policy.ns_per_call", "ns"),
    ("core.policy.admit_ratio", "ratio"),
    ("core.hybrid_plan_s", "s"),
    ("sched.ops", "count"),
    ("sched.ns_per_op.fifo", "ns"),
    ("sched.ns_per_op.wfq", "ns"),
    ("sched.backlog_pkts_max", "count"),
    ("sim.events", "count"),
    ("sim.router.self_ns_per_event", "ns"),
    ("sim.dispatch.boxed_over_mono", "ratio"),
    ("sim.ns_per_event.serial", "ns"),
    ("sim.rss_bytes_per_flow", "bytes"),
    ("sim.stats.ns_per_record", "ns"),
    ("obs.sketch.ns_per_record", "ns"),
    ("sim.campaign.cell_s_p50", "s"),
    ("sim.campaign.cell_s_p90", "s"),
    ("sim.campaign.parallel_efficiency", "ratio"),
    ("sim.fabric.links", "count"),
    ("sim.fabric.epochs", "count"),
    ("sim.fabric.relay_pkts", "count"),
    ("sim.fabric.busiest_link_share", "ratio"),
    ("sim.fabric.sharded_over_serial", "ratio"),
    ("sim.fabric.shard_overhead_ns_per_epoch", "ns"),
    ("sim.fabric.ns_per_epoch", "ns"),
    ("sim.scenarios.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Measured values by metric name; units come from the tables above.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value recorded under `name`, if it is a finite number.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
    }
}

/// Runs attempted and failed. A panic or a failed output check counts
/// as a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Timed iterations and checks started.
    pub attempted: u64,
    /// Those that panicked or failed their check.
    pub failed: u64,
}

impl Tally {
    /// Run one attempt. `Err` or a panic marks it failed and is
    /// reported on stderr; success yields the value.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(msg)) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {msg}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("FAILED {what}: panicked");
                None
            }
        }
    }
}

/// `Ok` when `ok`, else `Err(msg)` — the shape [`Tally::attempt`] takes.
pub fn check(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

/// The result object, the last line a run prints: `table`'s metrics
/// with units plus the tally. A metric that could not be measured
/// prints as 0 and makes the run incorrect.
pub fn result_json(tally: Tally, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let mut missing = false;
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).unwrap_or_else(|| {
                missing = true;
                eprintln!("FAILED metric {name}: not measured");
                0.0
            });
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && !missing,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// One human-readable line: workload, seed, runs failed of attempted,
/// and every measured metric of `table` with its unit.
pub fn summary(
    workload: &str,
    seed: u64,
    tally: Tally,
    metrics: &Metrics,
    table: &[(&str, &str)],
) -> String {
    let mut line = format!(
        "{workload} seed={seed} failed={}/{}",
        tally.failed, tally.attempted
    );
    for &(name, unit) in table {
        if let Some(v) = metrics.get(name) {
            line.push_str(&format!(" {name}={v:.6} {unit};"));
        }
    }
    line
}

/// Run `f`, returning its value and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; NaN (an unmeasured metric) when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn proc_status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kib: f64 = line[field.len() + 1..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024.0)
}
