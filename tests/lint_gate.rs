//! The static-analysis gate: tier-1 `cargo test -q` runs the same
//! `qbm-lint` pass as the standalone binary and the CI `lint` job, so a
//! determinism or unit-discipline regression fails the test suite, not
//! just a side channel.
//!
//! The gate is zero findings: a counted, named pragma at the site is
//! the only way to accept one, and the pragma counts are capped below.

use std::path::Path;

fn report() -> qbm_lint::Report {
    qbm_lint::run_repo(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint walk failed")
}

#[test]
fn workspace_is_lint_clean() {
    let report = report();
    // Guard against the walker silently scanning nothing (e.g. after a
    // directory move): the workspace has far more than 40 library files.
    assert!(
        report.files_scanned >= 40,
        "lint walker found only {} files — walk roots broken?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "qbm-lint found {} violation(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn suppressions_stay_accounted() {
    let report = report();
    // Every silenced match must come from a known channel, and the
    // allow-surface should only change deliberately: a jump here means
    // someone is papering over findings instead of fixing them.
    for s in &report.suppressions {
        assert!(
            matches!(s.via, "pragma" | "allowlist" | "cold"),
            "unknown suppression channel {:?}",
            s.via
        );
    }
    let count = |via: &str| report.suppressions.iter().filter(|s| s.via == via).count();
    let pragmas = count("pragma");
    assert!(
        pragmas <= 16,
        "{pragmas} inline qbm-lint pragmas — audit before growing the allow-surface"
    );
    let cold = count("cold");
    assert!(
        cold <= 8,
        "{cold} cold-pruned functions — audit before widening the cold surface"
    );
}

#[test]
fn rules_md_matches_the_registry() {
    // RULES.md is generated from `rules::REGISTRY`; a hand edit or a
    // registry change without regeneration is drift.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(root.join("RULES.md"))
        .expect("RULES.md is committed at the workspace root");
    assert_eq!(
        committed,
        qbm_lint::emit::rules_md(),
        "RULES.md drifted — regenerate with `cargo run -p qbm-lint -- --rules-md > RULES.md`"
    );
}

#[test]
fn crate_deps_match_the_manifests() {
    // `CRATE_DEPS` gates the call graph's name-only edges, so it must
    // name exactly the workspace crates each manifest depends on.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests: Vec<(String, Vec<String>)> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| {
            let dir = e.expect("crates/ entry").path();
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            let toml = std::fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
            let mut deps: Vec<String> = toml
                .lines()
                .skip_while(|l| l.trim() != "[dependencies]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .filter_map(|l| l.trim().strip_prefix("qbm-"))
                .map(|l| l.split(['.', ' ', '=']).next().unwrap().to_string())
                .collect();
            deps.sort();
            (name, deps)
        })
        .collect();
    manifests.sort();
    let mut table: Vec<(String, Vec<String>)> = qbm_lint::rules::CRATE_DEPS
        .iter()
        .map(|(name, deps)| {
            let mut deps: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
            deps.sort();
            (name.to_string(), deps)
        })
        .collect();
    table.sort();
    assert_eq!(
        table, manifests,
        "rules::CRATE_DEPS drifted from the crates' [dependencies]"
    );
}
