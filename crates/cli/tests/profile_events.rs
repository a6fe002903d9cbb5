//! `--profile` counts events one way: a run's in-window arrivals plus
//! departures, read from its `SimResult` — the same rule for the
//! replications of `run` and for the traced re-run of `trace`.

use std::path::{Path, PathBuf};
use std::process::Command;

use qbm_cli::Scenario;

fn demo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/demo.qbm")
}

/// In-window offered plus delivered packets of one seed's run.
fn run_events(s: &Scenario, seed: u64) -> u64 {
    s.to_config()
        .run_once(seed)
        .flows
        .iter()
        .map(|f| f.offered_pkts + f.delivered_pkts)
        .sum()
}

/// The event count on the profile's `total` line.
fn profiled_events(args: &[&str]) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_qbm"))
        .args(args)
        .output()
        .expect("run qbm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let total = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("total"))
        .unwrap_or_else(|| panic!("no profile total line in:\n{stdout}"));
    total
        .split('|')
        .nth(1)
        .and_then(|f| f.trim().strip_suffix(" events"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count in `{total}`"))
}

#[test]
fn trace_profile_counts_the_traced_runs_packets() {
    let path = demo();
    let scenario = Scenario::parse(&std::fs::read_to_string(&path).expect("read demo.qbm"))
        .expect("demo.qbm parses");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("profile_events.jsonl");
    let events = profiled_events(&[
        "trace",
        path.to_str().expect("utf-8 path"),
        out.to_str().expect("utf-8 path"),
        "--profile",
    ]);
    assert_eq!(events, run_events(&scenario, 1));
}

#[test]
fn run_profile_adds_the_traced_rerun_by_the_same_rule() {
    let path = demo();
    let scenario = Scenario::parse(&std::fs::read_to_string(&path).expect("read demo.qbm"))
        .expect("demo.qbm parses");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("profile_events_run.jsonl");
    let events = profiled_events(&[
        "run",
        path.to_str().expect("utf-8 path"),
        "--trace",
        out.to_str().expect("utf-8 path"),
        "--profile",
    ]);
    // `run` replicates seeds 1..=seeds, then re-runs seed 1 traced.
    let replications: u64 = (1..=scenario.seeds as u64)
        .map(|seed| run_events(&scenario, seed))
        .sum();
    assert_eq!(events, replications + run_events(&scenario, 1));
}
