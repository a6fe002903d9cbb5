//! `qbm run --topology` has no closed-loop, probe or profile path: each
//! input that asks for one must be a usage error (exit 2) naming it,
//! never a run that silently ignores it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A short two-flow scenario; `extra` lines are appended to the header.
fn scenario(name: &str, extra: &str) -> PathBuf {
    let text = format!(
        "link = 48Mbps\nbuffer = 1MiB\nsched = fifo\npolicy = threshold\n\
         duration = 200ms\nwarmup = 50ms\nseeds = 1\n{extra}\n\
         [flow]\npeak = 16Mbps\navg = 2Mbps\nbucket = 50KiB\nrate = 2Mbps\ncount = 2\n"
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scenario");
    path
}

fn qbm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qbm"))
        .args(args)
        .output()
        .expect("run qbm")
}

fn assert_usage_error(out: &Output, names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(names), "`{names}` not named in: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected run printed a report");
}

#[test]
fn sources_aimd_flag_is_rejected() {
    let spec = scenario("topology_spec.qbm", "");
    let spec = spec.to_str().expect("utf-8 path");
    let out = qbm(&["run", spec, "--topology", "incast", "--sources", "aimd"]);
    assert_usage_error(&out, "--sources aimd");
}

#[test]
fn sources_aimd_in_the_scenario_file_is_rejected() {
    let aimd = scenario("topology_aimd.qbm", "sources = aimd");
    let aimd = aimd.to_str().expect("utf-8 path");
    let out = qbm(&["run", aimd, "--topology", "tree"]);
    assert_usage_error(&out, "sources = aimd");
    // `--sources spec` overrides the file and runs open loop.
    let out = qbm(&["run", aimd, "--topology", "incast", "--sources", "spec"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("incast fabric: 4 links"));
}

#[test]
fn probe_interval_is_rejected() {
    let spec = scenario("topology_probe.qbm", "");
    let spec = spec.to_str().expect("utf-8 path");
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("topology_probe.jsonl");
    let trace = trace.to_str().expect("utf-8 path");
    let out = qbm(&[
        "run",
        spec,
        "--topology",
        "tree",
        "--trace",
        trace,
        "--probe-interval",
        "10ms",
    ]);
    assert_usage_error(&out, "--probe-interval");
}

#[test]
fn profile_is_rejected() {
    let spec = scenario("topology_profile.qbm", "");
    let spec = spec.to_str().expect("utf-8 path");
    let out = qbm(&["run", spec, "--topology", "subscriber-tree", "--profile"]);
    assert_usage_error(&out, "--profile");
}
