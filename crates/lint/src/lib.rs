//! # qbm-lint
//!
//! In-tree static-analysis pass for the buffer-management workspace.
//! The reproduction's headline property is *bit-for-bit determinism*:
//! Propositions 1–3 are checked with exact integer-nanosecond
//! arithmetic, and the parallel campaign runner is only correct because
//! per-cell seeds are pure and stats merges are commutative. One stray
//! wall-clock read, entropy-seeded RNG, unordered-container iteration
//! in a merge path, or raw-`f64` shortcut in a policy silently breaks
//! that. This crate makes those invariants *enforced* instead of
//! aspirational.
//!
//! The scanner is hand-rolled and dependency-free (no `syn`) so it
//! builds offline like the rest of the workspace. It is lexical: string
//! and char-literal contents are blanked and comments stripped before
//! rules run, and `#[cfg(test)]` items are exempt (invariants guard
//! shipping library code; [`rules::REGISTRY`] states every rule).
//!
//! Suppression: append `qbm-lint: allow(<rule>)` in a plain `//`
//! comment on the offending line (or the line just above). Suppressions
//! are themselves counted and reported, so the allow-surface stays
//! visible. File-level allowances for the `float-cast` rule live in
//! [`rules::FLOAT_CAST_ALLOW`] with a recorded justification each.
//!
//! Run it three ways:
//! * `cargo run -p qbm-lint` — the standalone driver binary;
//! * `cargo test -q` — the workspace-root `lint_gate` test runs the
//!   same pass, so tier-1 testing catches regressions;
//! * CI — the `lint` job fails the build on any unsuppressed finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod emit;
pub mod model;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A single rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repository-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// What was matched, verbatim enough to locate.
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A finding that was silenced — either by an inline
/// `qbm-lint: allow(...)` pragma or by a file-level allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Repository-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the silenced match.
    pub line: usize,
    /// The rule that would have fired.
    pub rule: &'static str,
    /// `"pragma"`, `"allowlist"`, `"cold"` (a `qbm-lint: cold(...)`
    /// pragma pruned the function from a transitive audit), or
    /// `"baseline"` (the finding is covered by the committed baseline).
    pub via: &'static str,
}

/// Outcome of an analysis pass.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed violations, ordered by (file, line).
    pub findings: Vec<Finding>,
    /// All silenced matches, ordered by (file, line).
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Record a match: suppressed by a pragma naming its rule in
    /// `allowed` (the pragmas in effect on its line), else by the
    /// `float-cast` allowlist, else reported.
    fn emit(&mut self, allowed: &[String], f: Finding) {
        let via = if allowed.iter().any(|r| r == f.rule) {
            "pragma"
        } else if f.rule == rules::FLOAT_CAST && rules::float_cast_allowance(&f.file).is_some() {
            "allowlist"
        } else {
            self.findings.push(f);
            return;
        };
        self.suppressions.push(Suppression {
            file: f.file,
            line: f.line,
            rule: f.rule,
            via,
        });
    }
}

impl Finding {
    /// A finding carrying its rule's registry hint.
    pub(crate) fn new(rule: &'static str, file: String, line: usize, message: String) -> Finding {
        let hint = rules::meta(rule)
            .expect("every rule ID has a REGISTRY row")
            .hint;
        Finding {
            file,
            line,
            rule,
            message,
            hint,
        }
    }
}

/// Reference material the exhaustiveness cross-checks read: the
/// equivalence suite, the generated rule docs, and the fixture-corpus
/// directory listing. A `None` field skips the checks that need it
/// (partial fixture workspaces); `Some("")` — what [`run_repo`]
/// produces when a reference file is *missing* — makes them all fire,
/// so deleting the suite is maximal drift, not silence.
#[derive(Debug, Default)]
pub struct RefSet {
    /// `tests/determinism.rs` — the 56-combo suite and golden snapshots.
    pub suite: Option<String>,
    /// `RULES.md` — the generated rule documentation.
    pub rules_md: Option<String>,
    /// Directory names under `crates/lint/tests/fixtures/`.
    pub fixture_ids: Option<Vec<String>>,
}

/// The analysis pass over `(rel_path, source_text)` pairs: item model
/// → call graph → hot and shard cones, then one pass over every line
/// that runs each [`rules::REGISTRY`] line check where it applies, plus
/// the special cases — `crate-hygiene`, `root-drift` and the
/// exhaustiveness cross-checks.
///
/// Every match goes through one emit order: a pragma naming the rule on
/// the line or the line above, then the `float-cast` allowlist, then a
/// finding. Findings and suppressions come back ordered by (file,
/// line); the line checks' matches on one line keep registry order.
pub fn analyze_workspace(files: &[(String, String)], refs: &RefSet) -> Report {
    let ws = model::Workspace::build(files);
    let graph = callgraph::Graph::build(&ws);
    let hot = callgraph::reach(&ws, &graph, rules::HOT_ROOTS);
    let shard = callgraph::reach(&ws, &graph, rules::SHARD_ROOTS);
    let mut out = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Root drift is a hard error with no pragma escape: a root that
    // matches nothing silently disarms everything downstream of it.
    let mut drifted: Vec<&String> = hot.unmatched.iter().chain(shard.unmatched.iter()).collect();
    drifted.sort();
    drifted.dedup();
    for desc in drifted {
        out.emit(
            &[],
            Finding::new(
                rules::ROOT_DRIFT,
                "crates/lint/src/rules.rs".to_string(),
                1,
                format!("audit root `{desc}` matches no live function"),
            ),
        );
    }

    // Cold-pruned functions are a visible suppression surface, exactly
    // like pragmas: the audit deliberately looked away.
    for (pruned, rule) in [
        (&hot.cold_pruned, rules::HOT_PATH_ALLOC),
        (&shard.cold_pruned, rules::SHARD_SAFETY),
    ] {
        for &fi in pruned.iter() {
            let f = &ws.fns[fi];
            out.suppressions.push(Suppression {
                file: ws.files[f.file].rel.clone(),
                line: f.first_line + 1,
                rule,
                via: "cold",
            });
        }
    }

    for fm in &ws.files {
        // Pragmas on line N silence matches on lines N and N+1.
        let mut allowed: Vec<Vec<String>> = vec![Vec::new(); fm.lines.len()];
        for (i, line) in fm.lines.iter().enumerate() {
            for rule in scan::pragma_rules(&line.comment) {
                allowed[i].push(rule.clone());
                if i + 1 < fm.lines.len() {
                    allowed[i + 1].push(rule);
                }
            }
        }

        if rules::is_crate_root(&fm.rel) {
            for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
                if !fm.lines.iter().any(|l| l.code.trim() == attr) {
                    out.emit(
                        allowed.first().map_or(&[], Vec::as_slice),
                        Finding::new(
                            rules::HYGIENE,
                            fm.rel.clone(),
                            1,
                            format!("crate root is missing `{attr}`"),
                        ),
                    );
                }
            }
        }

        for (li, line) in fm.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let fni = fm.fn_of_line[li];
            for rule in rules::REGISTRY {
                for check in rule.checks {
                    let applies = match check.applies {
                        rules::Applies::Path(on) => on(&fm.rel),
                        rules::Applies::Hot => fni.is_some_and(|f| hot.reachable[f]),
                        rules::Applies::Shard => fni.is_some_and(|f| shard.reachable[f]),
                    };
                    if !applies {
                        continue;
                    }
                    for (col, pat) in check.matcher.hits(&line.code) {
                        let qname = fni.map(|f| ws.fns[f].qname()).unwrap_or_default();
                        out.emit(
                            &allowed[li],
                            Finding {
                                file: fm.rel.clone(),
                                line: li + 1,
                                rule: rule.id,
                                message: check.render(col, pat, &qname),
                                hint: check.hint.unwrap_or(rule.hint),
                            },
                        );
                    }
                }
            }
        }
    }

    exhaustiveness(&ws, refs, &mut out);
    out.findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// The cross-file exhaustiveness checks: scheduler
/// and policy coverage in the equivalence suite, source dispatch
/// coverage, and the linter's own doc/fixture coverage.
fn exhaustiveness(ws: &model::Workspace, refs: &RefSet, out: &mut Report) {
    // Cross-check findings have no pragma escape.
    let mut flag = |rule, file: &str, line, message| {
        out.emit(&[], Finding::new(rule, file.to_string(), line, message));
    };
    if let Some(suite) = refs.suite.as_deref() {
        for im in ws.impls.iter().filter(|im| {
            im.trait_name.as_deref() == Some("Scheduler") && !im.in_test && im.type_name != "Box"
        }) {
            if !rules::find_word(suite, &im.type_name) {
                flag(
                    rules::EXHAUSTIVE_SCHED,
                    &ws.files[im.file].rel,
                    im.line + 1,
                    format!(
                        "`impl Scheduler for {}` is not exercised by tests/determinism.rs",
                        im.type_name
                    ),
                );
            }
        }
        for (ename, rule) in [
            ("SchedKind", rules::EXHAUSTIVE_SCHED),
            ("PolicyKind", rules::EXHAUSTIVE_POLICY),
            ("SourceKind", rules::EXHAUSTIVE_SOURCE),
        ] {
            let Some(e) = ws.enum_def(ename) else {
                continue;
            };
            for (v, vline) in &e.variants {
                if !rules::find_word(suite, &format!("{ename}::{v}")) {
                    flag(
                        rule,
                        &ws.files[e.file].rel,
                        vline + 1,
                        format!(
                            "enum variant `{ename}::{v}` never appears in tests/determinism.rs"
                        ),
                    );
                }
            }
        }
    }

    // Source dispatch coverage is workspace-internal: the enum, the
    // dispatch fn, and the impls are all in the tree being analyzed.
    if let Some(e) = ws.enum_def("SourceKind") {
        let kind_file = &ws.files[e.file];
        // Both dispatch surfaces must spell every variant out: a
        // wildcard arm in `next_emission` silently emits nothing, one
        // in `on_feedback` silently opens the variant's control loop.
        for fn_name in ["next_emission", "on_feedback"] {
            let dispatch = ws
                .fns
                .iter()
                .find(|f| f.name == fn_name && f.owner.as_deref() == Some("SourceKind") && !f.decl);
            match dispatch {
                Some(d) => {
                    let body: String = ws.files[d.file].lines[d.first_line..=d.last_line]
                        .iter()
                        .map(|l| l.code.as_str())
                        .collect::<Vec<_>>()
                        .join("\n");
                    for (v, vline) in &e.variants {
                        if !body.contains(&format!("SourceKind::{v}")) {
                            let message = format!(
                                "variant `SourceKind::{v}` is not dispatched in {fn_name} (wildcard arm?)"
                            );
                            flag(rules::EXHAUSTIVE_SOURCE, &kind_file.rel, vline + 1, message);
                        }
                    }
                }
                None => flag(
                    rules::EXHAUSTIVE_SOURCE,
                    &kind_file.rel,
                    1,
                    format!("`SourceKind` has no `{fn_name}` dispatch impl"),
                ),
            }
        }
        let kind_code: String = kind_file
            .lines
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for im in ws.impls.iter().filter(|im| {
            im.trait_name.as_deref() == Some("Source")
                && !im.in_test
                && im.type_name != "SourceKind"
        }) {
            if !rules::find_word(&kind_code, &im.type_name) {
                flag(
                    rules::EXHAUSTIVE_SOURCE,
                    &ws.files[im.file].rel,
                    im.line + 1,
                    format!(
                        "`impl Source for {}` is not wired into the SourceKind dispatch enum",
                        im.type_name
                    ),
                );
            }
        }
    }

    // The linter checks itself: every registry entry needs its RULES.md
    // section and its fixture pair.
    if let Some(md) = refs.rules_md.as_deref() {
        for m in rules::REGISTRY {
            if !rules::find_word(md, m.id) {
                flag(
                    rules::EXHAUSTIVE_RULE_DOC,
                    "RULES.md",
                    1,
                    format!("rule `{}` has no RULES.md entry", m.id),
                );
            }
        }
    }
    if let Some(ids) = &refs.fixture_ids {
        for m in rules::REGISTRY {
            if !ids.iter().any(|i| i == m.id) {
                flag(
                    rules::EXHAUSTIVE_RULE_DOC,
                    "crates/lint/tests/fixtures",
                    1,
                    format!("rule `{}` has no fixture pair under tests/fixtures/", m.id),
                );
            }
        }
    }
}

/// Walk `<root>/crates` and `<root>/src` for `.rs` files and run
/// [`analyze_workspace`] over them, with the reference files read from
/// their fixed paths under `root`. `tests/`, `benches/` and `target/`
/// directories are skipped: the rules guard shipping library code, and
/// integration tests are all test code by construction (the
/// exhaustiveness checks read the test suites as *reference text* via
/// [`RefSet`], not as lint subjects).
pub fn run_repo(root: &Path) -> io::Result<Report> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(path)?));
    }

    let refs = RefSet {
        suite: Some(read_or_empty(&root.join("tests/determinism.rs"))),
        rules_md: Some(read_or_empty(&root.join("RULES.md"))),
        fixture_ids: Some(list_dirs(&root.join("crates/lint/tests/fixtures"))),
    };
    Ok(analyze_workspace(&files, &refs))
}

/// Read a reference file, mapping *absence* to the empty string so the
/// dependent exhaustiveness checks all fire (deleting the suite is the
/// loudest possible drift, not a silent skip).
fn read_or_empty(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Sorted subdirectory names (the fixture corpus layout is one
/// directory per rule ID).
fn list_dirs(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == "tests" || name == "benches" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One source file through the analysis pass. A lone snippet at a
    /// root's path (`router.rs`, `event.rs`) anchors audit roots it does
    /// not define, so the `root-drift` findings that raises are dropped.
    fn scan(rel: &str, src: &str) -> Report {
        let mut r = analyze(&[(rel, src)], &NO_REFS);
        r.findings.retain(|f| f.rule != rules::ROOT_DRIFT);
        r
    }

    fn findings_of(rel: &str, src: &str) -> Vec<&'static str> {
        scan(rel, src).findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flagged_in_sim_not_in_bench() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/sim/src/event.rs", src),
            vec![rules::WALL_CLOCK]
        );
        assert!(findings_of("crates/bench/src/figures.rs", src).is_empty());
    }

    #[test]
    fn entropy_rng_flagged() {
        let src = "fn t() { let mut r = rand::thread_rng(); }\n";
        assert_eq!(
            findings_of("crates/traffic/src/onoff.rs", src),
            vec![rules::NONDET_RNG]
        );
        let src2 = "fn t() { let r = ChaCha8Rng::from_entropy(); }\n";
        assert_eq!(
            findings_of("crates/core/src/flow.rs", src2),
            vec![rules::NONDET_RNG]
        );
    }

    #[test]
    fn pattern_in_string_or_comment_is_ignored() {
        let src = "fn t() { let s = \"thread_rng is banned\"; } // mentions Instant::now\n";
        assert!(findings_of("crates/sim/src/event.rs", src).is_empty());
    }

    #[test]
    fn unordered_container_flagged_only_in_sim() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            findings_of("crates/sim/src/stats.rs", src),
            vec![rules::UNORDERED]
        );
        assert!(findings_of("crates/core/src/flow.rs", src).is_empty());
    }

    #[test]
    fn float_eq_flagged_everywhere() {
        assert_eq!(
            findings_of(
                "crates/fluid/src/mux.rs",
                "fn t(x: f64) -> bool { x == 0.0 }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
        assert_eq!(
            findings_of(
                "crates/cli/src/report.rs",
                "fn t(x: f64) -> bool { 1.5 != x }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
        assert_eq!(
            findings_of(
                "crates/sim/src/stats.rs",
                "fn t(x: f64) -> bool { x == f64::EPSILON }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
    }

    #[test]
    fn integer_and_field_comparisons_pass() {
        let src = "fn t(x: u64, p: (u64, u64)) -> bool { x == 0 && p.0 == p.1 && self_0.0 == 3 }\n";
        assert!(findings_of("crates/core/src/units.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "pub fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(x: f64) -> bool { x == 0.0 }\n\
                   fn clock() { let _ = std::time::Instant::now(); }\n\
                   }\n";
        assert!(findings_of("crates/sim/src/event.rs", src).is_empty());
    }

    #[test]
    fn float_cast_flagged_in_policy_allowlisted_in_red() {
        let src = "fn t(x: u64) -> f64 { x as f64 }\n";
        assert_eq!(
            findings_of("crates/core/src/policy/none.rs", src),
            vec![rules::FLOAT_CAST]
        );
        let red = scan("crates/core/src/policy/red.rs", src);
        assert!(red.findings.is_empty());
        assert_eq!(red.suppressions.len(), 1);
        assert_eq!(red.suppressions[0].via, "allowlist");
        // Outside the audited dirs the cast is free.
        assert!(findings_of("crates/fluid/src/mux.rs", src).is_empty());
    }

    #[test]
    fn sched_float_flagged_in_every_sched_source() {
        let src = "pub struct S { vtime: f64 }\n";
        assert_eq!(
            findings_of("crates/sched/src/wfq.rs", src),
            vec![rules::SCHED_FLOAT]
        );
        // Other crates are out of scope (policy floats have their own rule).
        assert!(findings_of("crates/core/src/flow.rs", src).is_empty());
        // Identifier boundaries: `as_secs_f64` is not a bare f64 token.
        let method = "fn t(d: Dur) { let _ = d.as_secs_f64(); }\n";
        assert!(findings_of("crates/sched/src/vclock.rs", method).is_empty());
        // Test modules keep their float assertion helpers.
        let test_src = "#[cfg(test)]\nmod tests {\n fn secs(x: u64) -> f64 { x as f64 }\n}\n";
        assert!(findings_of("crates/sched/src/vclock.rs", test_src).is_empty());
    }

    #[test]
    fn float_cast_in_sched_gets_both_findings() {
        let src = "fn t(x: u64) -> f64 { x as f64 }\n";
        // A scheduler gets both the cast and the float ban.
        let w = findings_of("crates/sched/src/wfq.rs", src);
        assert!(w.contains(&rules::FLOAT_CAST));
        assert!(w.contains(&rules::SCHED_FLOAT));
    }

    #[test]
    fn pragma_suppresses_and_is_counted() {
        let same_line = "fn t(x: f64) -> bool { x == 0.0 } // qbm-lint: allow(float-eq)\n";
        let s = scan("crates/fluid/src/mux.rs", same_line);
        assert!(s.findings.is_empty());
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].via, "pragma");

        let line_above = "// qbm-lint: allow(float-eq)\n\
                          fn t(x: f64) -> bool { x == 0.0 }\n";
        let s2 = scan("crates/fluid/src/mux.rs", line_above);
        assert!(s2.findings.is_empty());
        assert_eq!(s2.suppressions.len(), 1);

        // A pragma for the wrong rule does not silence the finding.
        let wrong = "fn t(x: f64) -> bool { x == 0.0 } // qbm-lint: allow(wall-clock)\n";
        assert_eq!(
            findings_of("crates/fluid/src/mux.rs", wrong),
            vec![rules::FLOAT_EQ]
        );
    }

    #[test]
    fn crate_root_hygiene_enforced() {
        let bare = "//! Docs.\npub fn f() {}\n";
        let f = findings_of("crates/sim/src/lib.rs", bare);
        assert_eq!(f, vec![rules::HYGIENE, rules::HYGIENE]);
        let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert!(findings_of("crates/sim/src/lib.rs", good).is_empty());
        // Non-root files don't need the attributes.
        assert!(findings_of("crates/sim/src/event.rs", bare).is_empty());
    }

    #[test]
    fn print_hygiene_spares_binaries() {
        let src = "fn t() { println!(\"x\"); }\n";
        assert_eq!(
            findings_of("crates/sim/src/stats.rs", src),
            vec![rules::PRINT]
        );
        assert!(findings_of("crates/cli/src/bin/qbm.rs", src).is_empty());
        assert!(findings_of("crates/lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn dbg_macro_flagged() {
        let src = "fn t(x: u64) -> u64 { dbg!(x) }\n";
        assert_eq!(
            findings_of("crates/core/src/flow.rs", src),
            vec![rules::PRINT]
        );
    }

    #[test]
    fn findings_carry_location_and_hint() {
        let src = "fn a() {}\nfn t() { let _ = std::time::Instant::now(); }\n";
        let s = scan("crates/sim/src/event.rs", src);
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!((f.file.as_str(), f.line), ("crates/sim/src/event.rs", 2));
        assert!(!f.hint.is_empty());
        let shown = f.to_string();
        assert!(shown.contains("crates/sim/src/event.rs:2"));
        assert!(shown.contains(rules::WALL_CLOCK));
    }

    #[test]
    fn cfg_test_on_single_item_scopes_to_that_item() {
        // The attribute on one fn must not exempt the following fn.
        let src = "#[cfg(test)]\n\
                   fn helper(x: f64) -> bool { x == 0.0 }\n\
                   fn live(x: f64) -> bool { x == 1.0 }\n";
        let f = scan("crates/fluid/src/mux.rs", src).findings;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn obs_crate_obeys_the_wall_clock_and_rng_bans() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/obs/src/tracer.rs", src),
            vec![rules::WALL_CLOCK]
        );
        let src2 = "fn t() { let r = ChaCha8Rng::from_entropy(); }\n";
        assert_eq!(
            findings_of("crates/obs/src/probe.rs", src2),
            vec![rules::NONDET_RNG]
        );
    }

    #[test]
    fn cli_wall_clock_pinned_to_profile_module() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/cli/src/report.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        assert_eq!(
            findings_of("crates/cli/src/bin/qbm.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        // The profiling module is the one sanctioned wall-clock site.
        assert!(findings_of("crates/cli/src/profile.rs", src).is_empty());
    }

    #[test]
    fn ad_hoc_writeln_traces_flagged_in_sim_and_obs() {
        let src = "fn t(w: &mut String) { writeln!(w, \"ev\").unwrap(); }\n";
        assert_eq!(
            findings_of("crates/sim/src/router.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        assert_eq!(
            findings_of("crates/obs/src/tracer.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        // The report layer and binaries may write freely.
        assert!(findings_of("crates/cli/src/report.rs", src).is_empty());
        assert!(findings_of("crates/lint/src/main.rs", src).is_empty());
    }

    fn analyze(files: &[(&str, &str)], refs: &RefSet) -> Report {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        analyze_workspace(&owned, refs)
    }

    const NO_REFS: RefSet = RefSet {
        suite: None,
        rules_md: None,
        fixture_ids: None,
    };

    fn rules_hit(scan: &Report, rule: &str) -> Vec<usize> {
        scan.findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn hot_path_alloc_is_transitive_two_calls_deep() {
        // The acceptance scenario: a `vec!` two calls below `run_inner`
        // must fire even though neither helper is named in any root.
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner(&mut self) { helper_a(); } }\n\
                 fn helper_a() { helper_b(); }\n\
                 fn helper_b() { let v = vec![1, 2]; }\n\
                 fn unrelated() { let v = vec![3]; }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![3]);
    }

    #[test]
    fn hot_path_panic_flags_unwrap_in_scheduler_dequeue() {
        let scan = analyze(
            &[(
                "crates/sched/src/wfq.rs",
                "impl Scheduler for Wfq {\n\
                     fn dequeue(&mut self, now: Time) -> Option<PacketRef> {\n\
                         let head = self.heap.peek().unwrap();\n\
                         Some(head.pkt)\n\
                     }\n\
                 }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_PANIC), vec![3]);
    }

    #[test]
    fn hot_path_index_counts_expressions_not_attributes() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "#[inline]\n\
                 fn advance(&mut self) {\n\
                     let x = lanes.pending[f];\n\
                     let y = [0u64; 4];\n\
                 }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_INDEX), vec![3]);
    }

    #[test]
    fn shard_safety_flags_interior_mutability_under_advance_level() {
        let scan = analyze(
            &[(
                "crates/sim/src/fabric.rs",
                "fn advance_level(engines: &mut [E]) { per_shard(); }\n\
                 fn per_shard() { let c = RefCell::new(0); }\n\
                 fn outside() { let c = RefCell::new(0); }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::SHARD_SAFETY), vec![2]);
    }

    #[test]
    fn cold_pragma_prunes_and_is_counted() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner(&mut self) { setup(); step(); } }\n\
                 // qbm-lint: cold(one-time table build)\n\
                 fn setup() { let v = vec![0; 64]; }\n\
                 fn step() { let b = Box::new(1); }\n",
            )],
            &NO_REFS,
        );
        // The cold fn's alloc is silent; the hot callee still fires.
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![4]);
        assert!(scan
            .suppressions
            .iter()
            .any(|s| s.via == "cold" && s.line == 3));
    }

    #[test]
    fn workspace_rules_honor_allow_pragmas() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "fn advance(&mut self) {\n\
                     // qbm-lint: allow(hot-path-alloc) — amortized growth\n\
                     let v: Vec<u32> = (0..4).collect();\n\
                     let b = Box::new(v);\n\
                 }\n",
            )],
            &NO_REFS,
        );
        // The pragma covers line 3 (`collect`) but not line 4.
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![4]);
        assert!(scan
            .suppressions
            .iter()
            .any(|s| s.via == "pragma" && s.line == 3));
    }

    #[test]
    fn one_line_trips_path_and_cone_rules_in_registry_order() {
        // `record` in sketch.rs is a hot root; the comparison is a
        // float `==` (path-scoped) on an indexing expression (cone).
        let body = "fn record(&mut self, v: usize) {\n\
                    let hit = self.w[v] == 0.5;\n\
                    }\n";
        let scan = analyze(&[("crates/obs/src/sketch.rs", body)], &NO_REFS);
        let fired: Vec<(&str, usize)> = scan.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            fired,
            vec![(rules::FLOAT_EQ, 2), (rules::HOT_PATH_INDEX, 2)]
        );

        // A pragma on the line above silences only the rule it names.
        let allowed = "fn record(&mut self, v: usize) {\n\
                       // qbm-lint: allow(hot-path-index)\n\
                       let hit = self.w[v] == 0.5;\n\
                       }\n";
        let scan = analyze(&[("crates/obs/src/sketch.rs", allowed)], &NO_REFS);
        assert_eq!(rules_hit(&scan, rules::FLOAT_EQ), vec![3]);
        assert!(rules_hit(&scan, rules::HOT_PATH_INDEX).is_empty());
        let silenced: Vec<(&str, usize, &str)> = scan
            .suppressions
            .iter()
            .map(|s| (s.rule, s.line, s.via))
            .collect();
        assert_eq!(silenced, vec![(rules::HOT_PATH_INDEX, 3, "pragma")]);
    }

    #[test]
    fn root_drift_is_a_hard_error() {
        // router.rs exists but `run_inner` was renamed away.
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner_v2(&mut self) {} }\n\
                 fn advance() {}\n\
                 fn start_transmission() {}\n",
            )],
            &NO_REFS,
        );
        let drift = rules_hit(&scan, rules::ROOT_DRIFT);
        assert_eq!(drift.len(), 1);
        assert!(scan
            .findings
            .iter()
            .any(|f| f.rule == rules::ROOT_DRIFT && f.message.contains("run_inner")));
    }

    #[test]
    fn exhaustive_sched_flags_missing_suite_coverage() {
        let files = [(
            "crates/sched/src/fancy.rs",
            "impl Scheduler for Fancy {\n fn name(&self) -> &'static str { \"fancy\" }\n}\n",
        )];
        let covered = RefSet {
            suite: Some("(\"fancy\", SchedKind::Fancy { x: 1 }), Fancy".to_string()),
            ..Default::default()
        };
        assert!(rules_hit(&analyze(&files, &covered), rules::EXHAUSTIVE_SCHED).is_empty());
        // Deleting the scheduler from the suite text → finding.
        let dropped = RefSet {
            suite: Some("(\"wfq\", SchedKind::Wfq)".to_string()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&files, &dropped), rules::EXHAUSTIVE_SCHED),
            vec![1]
        );
    }

    #[test]
    fn exhaustive_policy_flags_unlisted_variants() {
        let files = [(
            "crates/core/src/policy/mod.rs",
            "pub enum PolicyKind {\n    Threshold,\n    Red { seed: u64 },\n}\n",
        )];
        let partial = RefSet {
            suite: Some("PolicyKind::Threshold".to_string()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&files, &partial), rules::EXHAUSTIVE_POLICY),
            vec![3]
        );
    }

    #[test]
    fn exhaustive_source_flags_wildcard_dispatch_and_unwired_impls() {
        let scan = analyze(
            &[
                (
                    "crates/traffic/src/kind.rs",
                    "pub enum SourceKind {\n\
                         Cbr(CbrSource),\n\
                         Poisson(PoissonSource),\n\
                     }\n\
                     impl Source for SourceKind {\n\
                         fn next_emission(&mut self) -> Option<Emission> {\n\
                             match self {\n\
                                 SourceKind::Cbr(s) => s.next_emission(),\n\
                                 _ => None,\n\
                             }\n\
                         }\n\
                         fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {\n\
                             match self {\n\
                                 SourceKind::Cbr(s) => s.on_feedback(now, fb),\n\
                                 _ => None,\n\
                             }\n\
                         }\n\
                     }\n",
                ),
                (
                    "crates/traffic/src/burst.rs",
                    "impl Source for BurstSource {\n\
                         fn next_emission(&mut self) -> Option<Emission> { None }\n\
                     }\n",
                ),
            ],
            &NO_REFS,
        );
        let f = rules_hit(&scan, rules::EXHAUSTIVE_SOURCE);
        // Poisson falls into both wildcard arms (next_emission and
        // on_feedback); BurstSource is unwired.
        assert_eq!(f.len(), 3);
        assert!(scan
            .findings
            .iter()
            .any(|x| x.message.contains("SourceKind::Poisson")));
        assert!(scan
            .findings
            .iter()
            .any(|x| x.message.contains("BurstSource")));
    }

    #[test]
    fn exhaustive_rule_doc_covers_registry() {
        let all_ids: Vec<String> = rules::REGISTRY.iter().map(|m| m.id.to_string()).collect();
        let full_md = all_ids
            .iter()
            .map(|i| format!("## `{i}`"))
            .collect::<Vec<_>>()
            .join("\n");
        let ok = RefSet {
            rules_md: Some(full_md.clone()),
            fixture_ids: Some(all_ids.clone()),
            ..Default::default()
        };
        assert!(rules_hit(&analyze(&[], &ok), rules::EXHAUSTIVE_RULE_DOC).is_empty());
        // Empty docs/fixtures → one finding per registry entry each.
        let none = RefSet {
            rules_md: Some(String::new()),
            fixture_ids: Some(Vec::new()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&[], &none), rules::EXHAUSTIVE_RULE_DOC).len(),
            2 * rules::REGISTRY.len()
        );
    }

    #[test]
    fn raw_strings_and_chars_do_not_confuse_the_scanner() {
        let src = "fn t() -> (char, &'static str) { ('\"', r#\"Instant::now HashMap\"#) }\n";
        assert!(findings_of("crates/sim/src/stats.rs", src).is_empty());
    }
}
