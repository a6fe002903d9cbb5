//! The benchmark's own contract, on the scaled-down workload sizes:
//! metric names are well formed and match `BENCHMARK.json`, every
//! metric is emitted for every workload, and the work counts repeat
//! exactly for one seed. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use qbm_perfbench::report::{END_TO_END, PER_LAYER};
use qbm_perfbench::trace::run_traced;
use qbm_perfbench::workloads::{run_timed, Size, Workload};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every `"name": "…"` value in `BENCHMARK.json`.
fn listed_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let key = "\"name\": \"";
    json.match_indices(key)
        .map(|(at, _)| {
            let rest = &json[at + key.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_listed() {
    let listed = listed_names();
    for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(name), "malformed metric name {name:?}");
        assert!(
            listed.iter().any(|l| l == name),
            "{name} is missing from BENCHMARK.json"
        );
    }
    for name in &listed {
        assert!(
            well_formed(name),
            "malformed name {name:?} in BENCHMARK.json"
        );
        let known = Workload::from_name(name).is_some()
            || END_TO_END.iter().chain(PER_LAYER).any(|&(m, _)| m == name);
        assert!(
            known,
            "BENCHMARK.json lists {name}, which the benchmark never emits"
        );
    }
    for w in Workload::ALL {
        assert!(
            listed.iter().any(|l| l == w.name()),
            "{} unlisted",
            w.name()
        );
    }
}

#[test]
fn every_workload_emits_every_metric() {
    for w in Workload::ALL {
        let (tally, m) = run_timed(w, Size::Small, 3, 0.0);
        assert!(
            tally.attempted >= 1 && tally.failed == 0,
            "{}: {tally:?}",
            w.name()
        );
        for &(name, _) in END_TO_END {
            assert!(m.get(name).is_some(), "{} lacks {name}", w.name());
        }
        let (tally, m) = run_traced(w, Size::Small, 3);
        assert_eq!(tally.failed, 0, "{} traced run failed a check", w.name());
        for &(name, _) in PER_LAYER {
            assert!(m.get(name).is_some(), "{} lacks {name}", w.name());
        }
    }
}

#[test]
fn work_counts_repeat_for_one_seed() {
    const COUNTS: [&str; 4] = [
        "sim.events",
        "traffic.emissions",
        "traffic.feedback_signals",
        "sim.fabric.relay_pkts",
    ];
    for w in Workload::ALL {
        let (_, a) = run_traced(w, Size::Small, 5);
        let (_, b) = run_traced(w, Size::Small, 5);
        for name in COUNTS {
            assert!(a.get(name).is_some(), "{} lacks {name}", w.name());
            assert_eq!(a.get(name), b.get(name), "{} {name} moved", w.name());
        }
    }
}
