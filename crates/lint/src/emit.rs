//! Machine-readable output: JSON findings, SARIF 2.1.0, the generated
//! `RULES.md`, and the per-rule summary table CI posts to the job
//! summary.
//!
//! Everything here is hand-rolled (no serde — the crate is
//! dependency-free by design) and deterministic: objects are emitted in
//! a fixed field order and collections in (file, line) order, so two
//! runs over the same tree produce byte-identical artifacts.

use crate::{rules, Report};

/// Escape a string for embedding in a JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the report as a JSON document: scan counters, findings, and
/// suppressions, in report order.
pub fn json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"tool\": \"qbm-lint\",\n  \"files_scanned\": {},\n",
        report.files_scanned
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}{sep}\n",
            js(f.rule),
            js(&f.file),
            f.line,
            js(&f.message),
            js(f.hint),
        ));
    }
    out.push_str("  ],\n  \"suppressions\": [\n");
    for (i, s) in report.suppressions.iter().enumerate() {
        let sep = if i + 1 == report.suppressions.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"via\": \"{}\"}}{sep}\n",
            js(s.rule),
            js(&s.file),
            s.line,
            js(s.via),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the report as SARIF 2.1.0 — the interchange format GitHub
/// code scanning and most editors ingest. One run, one driver
/// (`qbm-lint`), rule metadata from [`rules::REGISTRY`], one `result`
/// per unsuppressed finding.
pub fn sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \
         \"name\": \"qbm-lint\",\n          \
         \"informationUri\": \"RULES.md\",\n          \"rules\": [\n",
    );
    for (i, m) in rules::REGISTRY.iter().enumerate() {
        let sep = if i + 1 == rules::REGISTRY.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"help\": {{\"text\": \"{}\"}}}}{sep}\n",
            js(m.id),
            js(m.scope),
            js(m.hint),
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{sep}\n",
            js(f.rule),
            js(&f.message),
            js(&f.file),
            f.line,
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Generate `RULES.md` from the registry. The committed file must match
/// this output byte-for-byte (`tests/lint_gate.rs` checks), so the
/// registry is the single source of truth for rule documentation.
pub fn rules_md() -> String {
    let mut out = String::from(
        "# qbm-lint rules\n\n\
         <!-- GENERATED FILE: edit crates/lint/src/rules.rs (REGISTRY) and\n     \
         regenerate with `cargo run -p qbm-lint -- --rules-md > RULES.md`. -->\n\n\
         The workspace linter enforces the reproduction's determinism and\n\
         performance invariants. Per-file rules match on lexically cleaned\n\
         source (strings blanked, comments stripped, `#[cfg(test)]` exempt);\n\
         workspace rules run on an item model plus a conservative call graph\n\
         (see DESIGN.md for the approximations). Findings are reported as\n\
         `file:line [rule-id] message`, exported as JSON/SARIF artifacts,\n\
         and gated at zero in CI and by `tests/lint_gate.rs`; a counted,\n\
         named pragma is the only way to accept a finding.\n\n\
         | rule | scope |\n|---|---|\n",
    );
    for m in rules::REGISTRY {
        out.push_str(&format!("| [`{}`](#{}) | {} |\n", m.id, m.id, m.scope));
    }
    out.push('\n');
    for m in rules::REGISTRY {
        out.push_str(&format!(
            "## `{}`\n\n\
             **Scope.** {}\n\n\
             **Rationale.** {}\n\n\
             **Fix.** {}\n\n\
             **Suppression.** `{}`\n\n",
            m.id, m.scope, m.rationale, m.hint, m.pragma
        ));
    }
    out
}

/// Per-rule finding/suppression counts as a GitHub-flavoured markdown
/// table — CI appends this to the job summary.
pub fn summary_table(report: &Report) -> String {
    let mut out = String::from("| rule | findings | suppressed |\n|---|---:|---:|\n");
    for m in rules::REGISTRY {
        let f = report.findings.iter().filter(|x| x.rule == m.id).count();
        let s = report
            .suppressions
            .iter()
            .filter(|x| x.rule == m.id)
            .count();
        if f + s > 0 {
            out.push_str(&format!("| `{}` | {f} | {s} |\n", m.id));
        }
    }
    out.push_str(&format!(
        "| **total** | **{}** | **{}** |\n",
        report.findings.len(),
        report.suppressions.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Suppression};

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    file: "crates/sim/src/router.rs".to_string(),
                    line: 10,
                    rule: rules::HOT_PATH_INDEX,
                    message: "indexing expression in hot-path fn `Router::advance`".to_string(),
                    hint: rules::meta(rules::HOT_PATH_INDEX).unwrap().hint,
                },
                Finding {
                    file: "crates/sim/src/router.rs".to_string(),
                    line: 12,
                    rule: rules::HOT_PATH_INDEX,
                    message: "indexing expression in hot-path fn `Router::advance`".to_string(),
                    hint: rules::meta(rules::HOT_PATH_INDEX).unwrap().hint,
                },
                Finding {
                    file: "crates/sched/src/wfq.rs".to_string(),
                    line: 3,
                    rule: rules::HOT_PATH_ALLOC,
                    message: "`vec!` in hot-path fn `Wfq::enqueue`".to_string(),
                    hint: rules::meta(rules::HOT_PATH_ALLOC).unwrap().hint,
                },
            ],
            suppressions: vec![Suppression {
                file: "crates/sim/src/stats.rs".to_string(),
                line: 262,
                rule: rules::HOT_PATH_ALLOC,
                via: "pragma",
            }],
            files_scanned: 3,
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = sample();
        r.findings[0].message = "quote \" backslash \\ tab\t".to_string();
        let j = json(&r);
        assert!(j.contains("\\\" backslash \\\\ tab\\t"));
        assert!(j.contains("\"files_scanned\": 3"));
        // Crude balance check — the hand-rolled writer has no parser to
        // validate against, so count the braces it emits.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn sarif_carries_registry_rules_and_results() {
        let s = sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        for m in rules::REGISTRY {
            assert!(s.contains(&format!("\"id\": \"{}\"", m.id)));
        }
        assert!(s.contains("\"startLine\": 10"));
        assert_eq!(s.matches("\"ruleId\"").count(), 3);
    }

    #[test]
    fn rules_md_documents_every_registry_entry() {
        let md = rules_md();
        for m in rules::REGISTRY {
            assert!(md.contains(&format!("## `{}`", m.id)), "missing {}", m.id);
            assert!(md.contains(m.rationale));
        }
    }

    #[test]
    fn summary_table_counts_per_rule() {
        let t = summary_table(&sample());
        assert!(t.contains(&format!("| `{}` | 2 | 0 |", rules::HOT_PATH_INDEX)));
        assert!(t.contains(&format!("| `{}` | 1 | 1 |", rules::HOT_PATH_ALLOC)));
        assert!(t.contains("| **total** | **3** | **1** |"));
    }
}
