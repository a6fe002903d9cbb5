//! Fixture-corpus harness: every lint rule has a true-positive
//! (`flag.rs`) and a near-miss (`clean.rs`) fixture under
//! `crates/lint/tests/fixtures/<rule-id>/`, and this test drives the
//! analysis pass over each pair. A rule whose flag fixture goes quiet has
//! silently stopped firing; a rule whose clean fixture trips has grown
//! a false-positive — both fail tier-1.
//!
//! Fixture files are virtual mini-workspaces, not compiled Rust. `//@`
//! marker lines split one fixture into sections:
//!
//! * `//@ file: <repo-relative-path>` — a source file at that path
//!   (rules are path-scoped, so the virtual path selects the rule);
//! * `//@ suite` / `//@ differential` / `//@ rules-md` — reference
//!   text for the exhaustiveness cross-checks ([`qbm_lint::RefSet`]);
//! * `//@ rules-md live` / `//@ fixtures live` — substitute the real
//!   generated docs / the real fixture-directory listing;
//! * `//@ fixtures: id id …` — a literal fixture-ID list.

use qbm_lint::{analyze_workspace, emit, rules, RefSet};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/lint/tests/fixtures")
}

#[derive(Default)]
struct Fixture {
    files: Vec<(String, String)>,
    refs: RefSet,
}

/// Parse the `//@` section markers of one fixture file.
fn parse_fixture(path: &Path) -> Fixture {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let mut fx = Fixture::default();
    // Which section body is currently accumulating.
    enum Into {
        Nothing,
        File(usize),
        Suite,
        Differential,
        RulesMd,
    }
    let mut into = Into::Nothing;
    for line in text.lines() {
        if let Some(marker) = line.trim_start().strip_prefix("//@") {
            let marker = marker.trim();
            into = if let Some(rel) = marker.strip_prefix("file:") {
                fx.files.push((rel.trim().to_string(), String::new()));
                Into::File(fx.files.len() - 1)
            } else if marker == "suite" {
                fx.refs.suite = Some(String::new());
                Into::Suite
            } else if marker == "differential" {
                fx.refs.differential = Some(String::new());
                Into::Differential
            } else if marker == "rules-md" {
                fx.refs.rules_md = Some(String::new());
                Into::RulesMd
            } else if marker == "rules-md live" {
                fx.refs.rules_md = Some(emit::rules_md());
                Into::Nothing
            } else if marker == "fixtures live" {
                let mut ids: Vec<String> = fs::read_dir(fixtures_root())
                    .expect("fixtures dir")
                    .flatten()
                    .filter(|e| e.path().is_dir())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect();
                ids.sort();
                fx.refs.fixture_ids = Some(ids);
                Into::Nothing
            } else if let Some(ids) = marker.strip_prefix("fixtures:") {
                fx.refs.fixture_ids = Some(ids.split_whitespace().map(|s| s.to_string()).collect());
                Into::Nothing
            } else {
                panic!(
                    "unknown fixture marker `//@ {marker}` in {}",
                    path.display()
                );
            };
            continue;
        }
        let buf = match into {
            Into::Nothing => continue,
            Into::File(i) => &mut fx.files[i].1,
            Into::Suite => fx.refs.suite.as_mut().unwrap(),
            Into::Differential => fx.refs.differential.as_mut().unwrap(),
            Into::RulesMd => fx.refs.rules_md.as_mut().unwrap(),
        };
        buf.push_str(line);
        buf.push('\n');
    }
    fx
}

/// Run the analysis pass over a fixture and collect the rule IDs that
/// fired (findings only — suppressions are the *absence* of a finding).
fn rules_fired(fx: &Fixture) -> Vec<&'static str> {
    analyze_workspace(&fx.files, &fx.refs)
        .findings
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// The corpus exists for every registry entry, the flag fixture trips
/// exactly its rule, and the clean near-miss stays quiet on it.
#[test]
fn every_rule_fires_on_flag_and_spares_clean() {
    for m in rules::REGISTRY {
        let dir = fixtures_root().join(m.id);
        assert!(
            dir.is_dir(),
            "rule `{}` has no fixture directory {}",
            m.id,
            dir.display()
        );
        let flagged = rules_fired(&parse_fixture(&dir.join("flag.rs")));
        assert!(
            flagged.contains(&m.id),
            "fixture {}/flag.rs does not trip `{}` (fired: {flagged:?})",
            m.id,
            m.id
        );
        let cleaned = rules_fired(&parse_fixture(&dir.join("clean.rs")));
        assert!(
            !cleaned.contains(&m.id),
            "fixture {}/clean.rs trips `{}`",
            m.id,
            m.id
        );
    }
}

/// No orphan directories: the corpus layout mirrors the registry both
/// ways (the `exhaustive-rule-doc` rule checks registry → fixtures; this
/// checks fixtures → registry).
#[test]
fn fixture_directories_match_the_registry() {
    let mut dirs: Vec<String> = fs::read_dir(fixtures_root())
        .expect("fixtures dir")
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    let mut ids: Vec<String> = rules::REGISTRY.iter().map(|m| m.id.to_string()).collect();
    ids.sort();
    assert_eq!(dirs, ids, "fixture dirs drifted from rules::REGISTRY");
}

/// Each fixture pair is exactly `{flag.rs, clean.rs}`.
#[test]
fn fixture_pairs_are_complete() {
    for m in rules::REGISTRY {
        for name in ["flag.rs", "clean.rs"] {
            let p = fixtures_root().join(m.id).join(name);
            assert!(p.is_file(), "missing fixture {}", p.display());
        }
    }
}
