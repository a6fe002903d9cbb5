//! Figure/series data model and text rendering.

use qbm_sim::Summary;

/// Measurement protocol knobs. The paper's protocol is
/// [`RunProfile::full`] (5 seeds, 20 s measured); [`RunProfile::quick`]
/// is for smoke tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProfile {
    /// Independent replications per point.
    pub seeds: usize,
    /// Warmup seconds discarded.
    pub warmup_s: u64,
    /// Total simulated seconds (window = duration − warmup).
    pub duration_s: u64,
    /// Campaign worker threads (`0` = one per core). Affects wall-clock
    /// time only — results are bit-identical for any value.
    pub threads: usize,
}

impl RunProfile {
    /// The paper's protocol: 5 seeds, 2 s warmup, 20 s measured.
    pub fn full() -> RunProfile {
        RunProfile {
            seeds: 5,
            warmup_s: 2,
            duration_s: 22,
            threads: 0,
        }
    }

    /// Cheap smoke profile for tests: 2 seeds, 3 s measured.
    pub fn quick() -> RunProfile {
        RunProfile {
            seeds: 2,
            warmup_s: 1,
            duration_s: 4,
            threads: 0,
        }
    }

    /// The full protocol with the worker pool capped by the
    /// `QBM_THREADS` environment variable (default: one per core).
    pub fn from_env() -> RunProfile {
        let mut profile = RunProfile::full();
        if let Ok(t) = std::env::var("QBM_THREADS") {
            if let Ok(t) = t.parse() {
                profile.threads = t;
            }
        }
        profile
    }
}

/// One curve: a label and `(x, mean ± ci)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y-summary)` points.
    pub points: Vec<(f64, Summary)>,
}

/// One regenerated figure or table.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `"fig1"`.
    pub id: String,
    /// Human title echoing the paper's caption.
    pub title: String,
    /// X-axis label (with units).
    pub x_label: String,
    /// Y-axis label (with units).
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form notes (protocol, expected shape, caveats).
    pub notes: Vec<String>,
}

impl Figure {
    /// Render as an aligned text table, one row per x value, one column
    /// pair (`mean ±ci`) per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        out.push_str(&format!("# x: {}   y: {}\n", self.x_label, self.y_label));
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        // Collect the union of x values in first-seen order.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for (x, _) in &s.points {
                if !xs.iter().any(|v| (v - x).abs() < 1e-12) {
                    xs.push(*x);
                }
            }
        }
        let w = self
            .series
            .iter()
            .map(|s| s.label.len() + 2)
            .max()
            .unwrap_or(0)
            .max(18);
        out.push_str(&format!("{:>10}", "x"));
        for s in &self.series {
            out.push_str(&format!("{:>w$}", s.label, w = w));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x:>10.3}"));
            for s in &self.series {
                match s.points.iter().find(|(px, _)| (px - x).abs() < 1e-12) {
                    Some((_, sum)) => {
                        out.push_str(&format!(
                            "{:>w$}",
                            format!("{:.3} ±{:.3}", sum.mean, sum.ci95),
                            w = w
                        ));
                    }
                    None => out.push_str(&format!("{:>w$}", "-", w = w)),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize to pretty JSON (for `results/<id>.json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_if_available(self)
    }
}

/// Tiny hand-rolled JSON encoder (avoids pulling `serde_json`, which is
/// not in the approved dependency set). Handles exactly the shapes in
/// [`Figure`].
mod serde_json {
    use super::Figure;

    pub fn to_string_if_available(fig: &Figure) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"id\": {},\n", quote(&fig.id)));
        s.push_str(&format!("  \"title\": {},\n", quote(&fig.title)));
        s.push_str(&format!("  \"x_label\": {},\n", quote(&fig.x_label)));
        s.push_str(&format!("  \"y_label\": {},\n", quote(&fig.y_label)));
        s.push_str("  \"notes\": [");
        s.push_str(
            &fig.notes
                .iter()
                .map(|n| quote(n))
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str("],\n  \"series\": [\n");
        let series: Vec<String> = fig
            .series
            .iter()
            .map(|ser| {
                let pts: Vec<String> = ser
                    .points
                    .iter()
                    .map(|(x, y)| {
                        format!(
                            "{{\"x\": {}, \"mean\": {}, \"ci95\": {}}}",
                            num(*x),
                            num(y.mean),
                            num(y.ci95)
                        )
                    })
                    .collect();
                format!(
                    "    {{\"label\": {}, \"points\": [{}]}}",
                    quote(&ser.label),
                    pts.join(", ")
                )
            })
            .collect();
        s.push_str(&series.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    fn quote(x: &str) -> String {
        let escaped = x
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        format!("\"{escaped}\"")
    }

    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "figX".into(),
            title: "Test figure".into(),
            x_label: "buffer (MiB)".into(),
            y_label: "utilization (%)".into(),
            series: vec![
                Series {
                    label: "fifo+none".into(),
                    points: vec![
                        (
                            0.5,
                            Summary {
                                mean: 90.1,
                                ci95: 0.5,
                            },
                        ),
                        (
                            1.0,
                            Summary {
                                mean: 92.0,
                                ci95: 0.4,
                            },
                        ),
                    ],
                },
                Series {
                    label: "wfq+thresh".into(),
                    points: vec![(
                        0.5,
                        Summary {
                            mean: 64.0,
                            ci95: 0.6,
                        },
                    )],
                },
            ],
            notes: vec!["5 seeds".into()],
        }
    }

    #[test]
    fn render_contains_all_points_and_labels() {
        let r = fig().render();
        assert!(r.contains("figX"));
        assert!(r.contains("fifo+none"));
        assert!(r.contains("90.100 ±0.500"));
        // Missing point renders as "-".
        let row: &str = r.lines().find(|l| l.starts_with("     1.000")).unwrap();
        assert!(row.trim_end().ends_with('-'));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = fig().to_json();
        assert!(j.contains("\"id\": \"figX\""));
        assert!(j.contains("\"mean\": 90.1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_quotes() {
        let mut f = fig();
        f.title = "has \"quotes\" and \\ backslash".into();
        let j = f.to_json();
        assert!(j.contains("has \\\"quotes\\\" and \\\\ backslash"));
    }

    #[test]
    fn profiles() {
        assert_eq!(RunProfile::full().seeds, 5);
        assert!(RunProfile::quick().duration_s < RunProfile::full().duration_s);
    }
}
