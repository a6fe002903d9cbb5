//! The benchmark's command line; `README.md` in this directory
//! documents the workloads and metrics.
//!
//! ```text
//! qbm-perfbench --workload <paper_campaign|isp_tree|incast_closed_loop|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs every workload in a process of its own, one
//! after another, and exits non-zero if any of them did.

use qbm_perfbench::report::{result_json, summary, END_TO_END, PER_LAYER};
use qbm_perfbench::trace::run_traced;
use qbm_perfbench::workloads::{run_timed, Size, Workload};
use std::process::{exit, Command};

const USAGE: &str =
    "usage: qbm-perfbench --workload <paper_campaign|isp_tree|incast_closed_loop|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad value for --seconds: {value}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Run every workload in a child process of this binary.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("{} did not finish cleanly: {other:?}", w.name());
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    if args.workload == "all" {
        exit(run_all(&args));
    }
    let Some(w) = Workload::from_name(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        exit(2)
    };
    let (tally, metrics, table) = if args.trace {
        let (t, m) = run_traced(w, Size::Full, args.seed);
        (t, m, PER_LAYER)
    } else {
        let (t, m) = run_timed(w, Size::Full, args.seed, args.seconds);
        (t, m, END_TO_END)
    };
    println!("{}", summary(w.name(), args.seed, tally, &metrics, table));
    println!("{}", result_json(tally, &metrics, table));
}
