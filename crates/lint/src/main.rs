//! `qbm-lint` driver binary.
//!
//! Usage: `cargo run -p qbm-lint [FLAGS] [ROOT]`
//!
//! Walks `ROOT` (default: the enclosing workspace root), runs the
//! analysis pass (`qbm_lint::run_repo`), and prints every finding as
//! `file:line [rule] message` plus a fix hint. A finding is accepted
//! only by a counted, named `qbm-lint:` pragma at its site (see
//! `RULES.md`); there is no findings baseline. Exit status: 0 clean,
//! 1 findings, 2 driver error.
//!
//! Flags:
//! * `--json <path>` — write the findings report as JSON (`-` = stdout);
//! * `--sarif <path>` — write SARIF 2.1.0 (`-` = stdout);
//! * `--summary` — print the per-rule markdown table (for CI job summaries);
//! * `--rules-md` — print the generated `RULES.md` to stdout and exit;
//! * `--verbose` — also list the suppressions in effect.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    verbose: bool,
    summary: bool,
    json: Option<String>,
    sarif: Option<String>,
    rules_md: bool,
    root: Option<PathBuf>,
}

fn usage() {
    println!(
        "usage: qbm-lint [--verbose] [--summary] [--json PATH] [--sarif PATH]\n\
         \x20               [--rules-md] [ROOT]"
    );
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        verbose: false,
        summary: false,
        json: None,
        sarif: None,
        rules_md: false,
        root: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" | "-v" => o.verbose = true,
            "--summary" => o.summary = true,
            "--json" => o.json = Some(args.next().ok_or("--json needs a path")?),
            "--sarif" => o.sarif = Some(args.next().ok_or("--sarif needs a path")?),
            "--rules-md" => o.rules_md = true,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => o.root = Some(PathBuf::from(other)),
        }
    }
    Ok(o)
}

/// Write `text` to `path`, with `-` meaning stdout.
fn write_out(path: &str, text: &str) -> std::io::Result<()> {
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        fs::write(path, text)
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qbm-lint: {e}");
            usage();
            return ExitCode::from(2);
        }
    };

    if opts.rules_md {
        print!("{}", qbm_lint::emit::rules_md());
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "qbm-lint: cannot locate the workspace root (looked for Cargo.toml + crates/)"
            );
            return ExitCode::from(2);
        }
    };

    let report = match qbm_lint::run_repo(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qbm-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json {
        if let Err(e) = write_out(path, &qbm_lint::emit::json(&report)) {
            eprintln!("qbm-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.sarif {
        if let Err(e) = write_out(path, &qbm_lint::emit::sarif(&report)) {
            eprintln!("qbm-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    for f in &report.findings {
        println!("{f}");
    }
    if opts.verbose {
        for s in &report.suppressions {
            println!(
                "{}:{} [{}] suppressed via {}",
                s.file, s.line, s.rule, s.via
            );
        }
    }
    if opts.summary {
        println!("{}", qbm_lint::emit::summary_table(&report));
    }
    println!(
        "qbm-lint: {} files scanned, {} finding(s), {} suppression(s) in effect",
        report.files_scanned,
        report.findings.len(),
        report.suppressions.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk upward from the current directory to the first directory that
/// looks like the workspace root (has both `Cargo.toml` and `crates/`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
