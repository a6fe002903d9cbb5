//! The static-analysis gate: tier-1 `cargo test -q` runs the same
//! `qbm-lint` pass as the standalone binary and the CI `lint` job, so a
//! determinism or unit-discipline regression fails the test suite, not
//! just a side channel.
//!
//! The gate is baseline-aware: findings recorded in the committed
//! `lint-baseline.tsv` (triaged legacy debt, today all `hot-path-index`
//! sites) are accepted, *new* findings fail, and stale baseline records
//! also fail — the baseline may only ever shrink behind the code.

use std::path::Path;

fn gated_report(root: &Path) -> (qbm_lint::Report, usize) {
    let mut report = qbm_lint::run_repo(root).expect("lint walk failed");
    let baseline = std::fs::read_to_string(root.join("lint-baseline.tsv"))
        .expect("lint-baseline.tsv is committed at the workspace root");
    let stale = qbm_lint::emit::apply_baseline(&mut report, &baseline);
    (report, stale)
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (report, stale) = gated_report(root);
    // Guard against the walker silently scanning nothing (e.g. after a
    // directory move): the workspace has far more than 40 library files.
    assert!(
        report.files_scanned >= 40,
        "lint walker found only {} files — walk roots broken?",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "qbm-lint found {} new violation(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        stale, 0,
        "{stale} stale lint-baseline.tsv record(s) allow more findings than remain — \
         regenerate with `cargo run -p qbm-lint -- --write-baseline`"
    );
}

#[test]
fn suppressions_stay_accounted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (report, _) = gated_report(root);
    // Every silenced match must come from a known channel, and the
    // allow-surface should only change deliberately: a jump here means
    // someone is papering over findings instead of fixing them.
    for s in &report.suppressions {
        assert!(
            matches!(s.via, "pragma" | "allowlist" | "cold" | "baseline"),
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
    // The baseline holds the triaged hot-path-index debt; it shrinks as
    // sites are rewritten, and never grows (new findings fail above).
    // The cap is the committed count: lower it whenever a rewrite
    // shrinks lint-baseline.tsv.
    assert!(
        count("baseline") <= 80,
        "baseline suppression count grew — regenerate lint-baseline.tsv only after triage"
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
