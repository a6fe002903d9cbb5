//! Self-profiling for the CLI: per-phase wall-clock timing and
//! events/sec throughput.
//!
//! This is the one place in the `qbm-cli` crate allowed to read the
//! wall clock (`qbm-lint`'s `obs-hygiene` rule pins `Instant` to this
//! file): profiling measures the *host*, not the simulation, so it
//! never feeds back into results — reports print after the run, from
//! data that is already fixed.

use std::time::{Duration, Instant};

/// One timed phase of a CLI invocation.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase label ("parse", "simulate", "trace", …).
    pub label: &'static str,
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
}

/// Structured result of a profiled invocation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Timed phases, in execution order.
    pub phases: Vec<Phase>,
    /// Total wall-clock time from [`Profiler::start`] to
    /// [`Profiler::finish`].
    pub total: Duration,
    /// Simulation events processed: in-window arrivals plus departures
    /// (drops are part of arrivals) over every run the invocation
    /// made, for the events/sec figure.
    pub events: u64,
}

impl RunReport {
    /// Simulation events per wall-clock second (0 when nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Human-readable profile block.
    pub fn render(&self) -> String {
        let mut out = String::from("profile:\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<10} {:>9.1} ms\n",
                p.label,
                p.wall.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "  {:<10} {:>9.1} ms | {} events | {:.2} Mev/s\n",
            "total",
            self.total.as_secs_f64() * 1e3,
            self.events,
            self.events_per_sec() / 1e6
        ));
        out
    }
}

/// Phase timer: call [`Profiler::phase`] at each phase boundary, then
/// [`Profiler::finish`] for the [`RunReport`].
#[derive(Debug)]
pub struct Profiler {
    t0: Instant,
    last: Instant,
    phases: Vec<Phase>,
}

impl Profiler {
    /// Start timing; the first phase begins now.
    pub fn start() -> Profiler {
        let now = Instant::now();
        Profiler {
            t0: now,
            last: now,
            phases: Vec::new(),
        }
    }

    /// Close the phase that just ran, labelling it `label`.
    pub fn phase(&mut self, label: &'static str) {
        let now = Instant::now();
        self.phases.push(Phase {
            label,
            wall: now.duration_since(self.last),
        });
        self.last = now;
    }

    /// Finish and attach the simulation event count.
    pub fn finish(self, events: u64) -> RunReport {
        RunReport {
            total: self.t0.elapsed(),
            phases: self.phases,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_phases_and_rate() {
        let rep = RunReport {
            phases: vec![
                Phase {
                    label: "simulate",
                    wall: Duration::from_millis(200),
                },
                Phase {
                    label: "write",
                    wall: Duration::from_millis(50),
                },
            ],
            total: Duration::from_millis(250),
            events: 1_000_000,
        };
        let text = rep.render();
        assert!(text.contains("simulate"));
        assert!(text.contains("200.0 ms"));
        assert!(text.contains("1000000 events"));
        assert!((rep.events_per_sec() - 4e6).abs() < 1.0);
    }

    #[test]
    fn zero_duration_reports_zero_rate() {
        let rep = RunReport {
            phases: Vec::new(),
            total: Duration::ZERO,
            events: 10,
        };
        assert_eq!(rep.events_per_sec(), 0.0);
    }

    #[test]
    fn profiler_orders_phases() {
        let mut p = Profiler::start();
        p.phase("a");
        p.phase("b");
        let rep = p.finish(0);
        let labels: Vec<&str> = rep.phases.iter().map(|ph| ph.label).collect();
        assert_eq!(labels, vec!["a", "b"]);
        let spent: Duration = rep.phases.iter().map(|ph| ph.wall).sum();
        assert!(rep.total >= spent);
    }
}
