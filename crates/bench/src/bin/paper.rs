//! `paper` — regenerate the tables and figures of *Scalable QoS
//! Provision Through Buffer Management* (SIGCOMM 1998).
//!
//! ```text
//! cargo run -p qbm-bench --release --bin paper -- <id> [--quick] [--threads N]
//!
//! ids:
//!   table1 table2            workload definitions
//!   fig1 fig2 fig3           §3.2 threshold schemes   (one shared grid)
//!   fig4 fig5 fig6           §3.3 buffer sharing      (one shared grid)
//!   fig7                     headroom sweep
//!   fig8 fig9 fig10          §4.2 hybrid, Case 1      (one shared grid)
//!   fig11 fig12 fig13        §4.2 hybrid, Case 2      (one shared grid)
//!   frontier example1 hybrid-savings hybrid-plan1 hybrid-plan2   (analytic)
//!   ablate-scaleup ablate-queues ablate-adaptive ablate-burstiness
//!   ablate-scale                                    (ablations)
//!   comparators delays tandem                       (extension experiments)
//!   all                      everything above
//! ```
//!
//! Output goes to stdout and `results/<id>.txt` (+ `.json` for
//! simulation figures). `--quick` runs a reduced protocol for smoke
//! testing; `--threads N` (or `QBM_THREADS`) sets the campaign worker
//! pool — any value produces identical numbers, it only changes
//! wall-clock time.

use qbm_bench::figures;
use qbm_bench::{Figure, RunProfile};
use std::io::Write;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = it.next().and_then(|v| v.parse().ok());
                if threads.is_none() {
                    eprintln!("--threads needs a numeric argument");
                    std::process::exit(2);
                }
            }
            a if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                std::process::exit(2);
            }
            id => ids.push(id),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: paper <id>... [--quick] [--threads N]   (try: paper all)");
        std::process::exit(2);
    }
    let mut profile = if quick {
        RunProfile::quick()
    } else {
        RunProfile::from_env()
    };
    if let Some(t) = threads {
        profile.threads = t;
    }

    for id in ids {
        run_id(id, &profile);
    }
}

fn run_id(id: &str, profile: &RunProfile) {
    match id {
        "all" => {
            for id in [
                "table1",
                "table2",
                "s3",
                "sharing",
                "fig7",
                "hybrid1",
                "hybrid2",
                "frontier",
                "example1",
                "hybrid-savings",
                "hybrid-plan1",
                "hybrid-plan2",
                "ablate-scaleup",
                "ablate-queues",
                "ablate-adaptive",
                "ablate-burstiness",
                "ablate-scale",
                "comparators",
                "delays",
                "tandem",
            ] {
                run_id(id, profile);
            }
        }
        // Text artifacts.
        "table1" => emit_text("table1", &figures::workload_table(false)),
        "table2" => emit_text("table2", &figures::workload_table(true)),
        "hybrid-savings" => emit_text("hybrid-savings", &figures::hybrid_savings_text()),
        "hybrid-plan1" => emit_text("hybrid-plan1", &figures::hybrid_plan_text(false)),
        "hybrid-plan2" => emit_text("hybrid-plan2", &figures::hybrid_plan_text(true)),
        // Analytic figures.
        "frontier" => emit_figures(&[figures::frontier_figure()]),
        "example1" => emit_figures(&[figures::example1_figure()]),
        // Simulation families (shared grids).
        "s3" | "fig1" | "fig2" | "fig3" => {
            emit_selected(&figures::section3_figures(profile), id, "s3")
        }
        "sharing" | "fig4" | "fig5" | "fig6" => {
            emit_selected(&figures::sharing_figures(profile), id, "sharing")
        }
        "fig7" => emit_figures(&[figures::fig7(profile)]),
        "hybrid1" | "fig8" | "fig9" | "fig10" => {
            emit_selected(&figures::hybrid_figures(profile, false), id, "hybrid1")
        }
        "hybrid2" | "fig11" | "fig12" | "fig13" => {
            emit_selected(&figures::hybrid_figures(profile, true), id, "hybrid2")
        }
        // Ablations.
        "ablate-scaleup" => emit_figures(&figures::ablate_scaleup(profile)),
        "ablate-queues" => emit_figures(&[figures::ablate_queues(profile)]),
        "ablate-adaptive" => emit_figures(&figures::ablate_adaptive(profile)),
        "ablate-burstiness" => emit_figures(&figures::ablate_burstiness(profile)),
        "ablate-scale" => emit_figures(&[figures::ablate_scale(profile)]),
        // Extension experiments.
        "comparators" => emit_figures(&figures::comparator_figures(profile)),
        "delays" => emit_text("delays", &figures::delays_text(profile)),
        "tandem" => emit_text("tandem", &figures::tandem_text(profile)),
        other => {
            eprintln!("unknown id: {other}");
            std::process::exit(2);
        }
    }
}

/// Print a whole family but, when a single figure was requested, only
/// that one (the family is computed once either way — the runs are
/// shared).
fn emit_selected(figs: &[Figure], requested: &str, family: &str) {
    if requested == family {
        emit_figures(figs);
    } else {
        match figs.iter().find(|f| f.id == requested) {
            Some(f) => emit_figures(std::slice::from_ref(f)),
            None => unreachable!("figure {requested} missing from family {family}"),
        }
    }
}

fn emit_figures(figs: &[Figure]) {
    for f in figs {
        let text = f.render();
        println!("{text}");
        write_result(&format!("{}.txt", f.id), &text);
        write_result(&format!("{}.json", f.id), &f.to_json());
    }
}

fn emit_text(id: &str, text: &str) {
    println!("{text}");
    write_result(&format!("{id}.txt"), text);
}

fn write_result(name: &str, content: &str) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: stdout output is still complete
    }
    if let Ok(mut f) = std::fs::File::create(dir.join(name)) {
        let _ = f.write_all(content.as_bytes());
    }
}
