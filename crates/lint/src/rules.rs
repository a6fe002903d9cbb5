//! Rule definitions: the rule [`REGISTRY`], the audit roots, path
//! targeting, the `float-cast` allowlist, and the lexical matchers.
//!
//! [`REGISTRY`] is the one statement of every rule: its ID, scope,
//! rationale, fix hint and suppression form, plus — for the line rules —
//! where each check applies, what it matches and the message it
//! reports. `RULES.md` is generated from it; `crate::analyze_workspace`
//! runs its line checks in one pass over every source line.

/// Rule name: wall-clock reads in determinism-critical crates.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule name: entropy-seeded RNG in determinism-critical crates.
pub const NONDET_RNG: &str = "nondet-rng";
/// Rule name: unordered containers in the simulator.
pub const UNORDERED: &str = "unordered-container";
/// Rule name: float equality comparison.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule name: raw float cast in threshold/scheduler arithmetic.
pub const FLOAT_CAST: &str = "float-cast";
/// Rule name: float virtual-time state in the scheduler crate.
pub const SCHED_FLOAT: &str = "sched-float-vtime";
/// Rule name: crate-root hygiene attributes.
pub const HYGIENE: &str = "crate-hygiene";
/// Rule name: direct printing from library code.
pub const PRINT: &str = "print-hygiene";
/// Rule name: observability hygiene — wall-clock reads outside the
/// sanctioned profiling module, or ad-hoc `writeln!` tracing in the
/// simulator instead of `qbm_obs::Observer` hooks.
pub const OBS_HYGIENE: &str = "obs-hygiene";
/// Rule name: heap allocation inside the simulator's hot path.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule name: panic paths inside the simulator's hot path.
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule name: indexing expressions inside the simulator's hot path.
pub const HOT_PATH_INDEX: &str = "hot-path-index";
/// Rule name: shared-mutability hazards in per-level sharded code.
pub const SHARD_SAFETY: &str = "shard-safety";
/// Rule name: a `Scheduler` impl missing from the 56-combo equivalence
/// suite.
pub const EXHAUSTIVE_SCHED: &str = "exhaustive-sched";
/// Rule name: a `SourceKind` variant missing from the `next_emission`
/// or `on_feedback` dispatch, absent from the determinism suite, or a
/// `Source` impl not wired into the enum.
pub const EXHAUSTIVE_SOURCE: &str = "exhaustive-source";
/// Rule name: a `PolicyKind` variant missing from the equivalence
/// suite.
pub const EXHAUSTIVE_POLICY: &str = "exhaustive-policy";
/// Rule name: a lint rule missing its RULES.md entry or its fixtures.
pub const EXHAUSTIVE_RULE_DOC: &str = "exhaustive-rule-doc";
/// Rule name: an audit root that matches no live function.
pub const ROOT_DRIFT: &str = "root-drift";

/// Where a [`LineCheck`] runs. Lines inside `#[cfg(test)]` items are
/// never checked.
#[derive(Debug, Clone, Copy)]
pub enum Applies {
    /// Every line of a file whose repository-relative path passes.
    Path(fn(&str) -> bool),
    /// Every line of a fn reachable from [`HOT_ROOTS`].
    Hot,
    /// Every line of a fn reachable from [`SHARD_ROOTS`].
    Shard,
}

/// What a [`LineCheck`] matches on a cleaned code line.
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// Each pattern as a whole word ([`find_word`]); one hit per
    /// pattern per line.
    Words(&'static [&'static str]),
    /// Each pattern as a plain substring; one hit per pattern per line.
    Substrings(&'static [&'static str]),
    /// A hand-written matcher returning one `(column, text)` per hit,
    /// columns 1-based in bytes.
    Custom(fn(&str) -> Vec<(usize, &'static str)>),
}

impl Matcher {
    /// The `(column, matched text)` hits on one line, in pattern order.
    /// Word and substring hits carry column 0.
    pub(crate) fn hits(&self, code: &str) -> Vec<(usize, &'static str)> {
        match *self {
            Matcher::Words(pats) => pats
                .iter()
                .filter(|p| find_word(code, p))
                .map(|&p| (0, p))
                .collect(),
            Matcher::Substrings(pats) => pats
                .iter()
                .filter(|p| code.contains(*p))
                .map(|&p| (0, p))
                .collect(),
            Matcher::Custom(f) => f(code),
        }
    }
}

/// One line check of a rule: each hit on a line where it applies is a
/// finding.
#[derive(Debug, Clone, Copy)]
pub struct LineCheck {
    /// Where the check runs.
    pub applies: Applies,
    /// What it matches.
    pub matcher: Matcher,
    /// Message template: `{pat}` is the matched text, `{col}` its
    /// column, `{fn}` the enclosing fn's qualified name. Messages are
    /// baseline keys, so a template edit churns `lint-baseline.tsv`.
    pub message: &'static str,
    /// Fix hint for this check's findings, when it differs from the
    /// rule's.
    pub hint: Option<&'static str>,
}

impl LineCheck {
    /// The finding message for one hit inside fn `qname`.
    pub(crate) fn render(&self, col: usize, pat: &str, qname: &str) -> String {
        self.message
            .replace("{pat}", pat)
            .replace("{col}", &col.to_string())
            .replace("{fn}", qname)
    }
}

/// One registry entry: everything the line pass, the docs, SARIF
/// metadata, and the exhaustiveness self-check need to know about a
/// rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable rule identifier (never renamed; baselines key on it).
    pub id: &'static str,
    /// Where the rule applies, in one line.
    pub scope: &'static str,
    /// Why the rule exists — the invariant it guards.
    pub rationale: &'static str,
    /// One-line fix hint, carried by the rule's findings unless a line
    /// check overrides it.
    pub hint: &'static str,
    /// The suppression channel, or `"none (hard error)"`.
    pub pragma: &'static str,
    /// The line checks, in report order. Empty for `crate-hygiene` and
    /// the workspace cross-checks, which `crate::analyze_workspace`
    /// runs as special cases.
    pub checks: &'static [LineCheck],
}

/// What a `wall-clock` read looks like; `obs-hygiene` bans the same
/// reads in the CLI.
const CLOCK_READS: &[&str] = &["SystemTime", "Instant::now"];

/// The complete rule registry, one entry per rule ID, in report order.
/// `RULES.md` is generated from this table and `tests/lint_gate.rs`
/// fails on drift; the `exhaustive-rule-doc` rule cross-checks that
/// every entry has a fixture pair.
pub const REGISTRY: &[RuleMeta] = &[
    RuleMeta {
        id: WALL_CLOCK,
        scope: "crates core, sched, sim, traffic, fluid, obs",
        rationale: "simulated time is the only clock; a wall-clock read makes results vary across hosts and runs, breaking bit-for-bit reproducibility of Propositions 1-3",
        hint: "use the simulated clock (qbm_core::units::Time); wall time breaks bit-for-bit reproducibility",
        pragma: "qbm-lint: allow(wall-clock)",
        checks: &[LineCheck {
            applies: Applies::Path(determinism_applies),
            matcher: Matcher::Words(CLOCK_READS),
            message: "`{pat}` in a determinism-critical crate",
            hint: None,
        }],
    },
    RuleMeta {
        id: NONDET_RNG,
        scope: "crates core, sched, sim, traffic, fluid, obs",
        rationale: "every random stream derives from an explicit u64 seed so campaigns replay exactly; entropy seeding makes a run unreproducible",
        hint: "derive a ChaCha8Rng from an explicit u64 seed; entropy seeding breaks replayability",
        pragma: "qbm-lint: allow(nondet-rng)",
        checks: &[LineCheck {
            applies: Applies::Path(determinism_applies),
            matcher: Matcher::Words(&["thread_rng", "from_entropy", "OsRng"]),
            message: "`{pat}` in a determinism-critical crate",
            hint: None,
        }],
    },
    RuleMeta {
        id: UNORDERED,
        scope: "crate sim",
        rationale: "stats merges must be order-independent in fact, not by luck; HashMap iteration order varies per process and would make parallel campaign merges nondeterministic",
        hint: "use BTreeMap/BTreeSet or a sorted Vec; HashMap iteration order varies across runs and merges",
        pragma: "qbm-lint: allow(unordered-container)",
        checks: &[LineCheck {
            applies: Applies::Path(|rel| crate_of(rel) == Some("sim")),
            matcher: Matcher::Words(&["HashMap", "HashSet"]),
            message: "`{pat}` in qbm-sim (stats/merge paths must iterate in a fixed order)",
            hint: None,
        }],
    },
    RuleMeta {
        id: FLOAT_EQ,
        scope: "everywhere",
        rationale: "float equality is rounding-fragile and NaN-capable; the workspace compares through approx_eq or integer representations",
        hint: "use qbm_core::units::approx_eq(a, b, eps) or restructure around an integer representation",
        pragma: "qbm-lint: allow(float-eq)",
        checks: &[LineCheck {
            applies: Applies::Path(|_| true),
            matcher: Matcher::Custom(float_eq_matches),
            message: "float `{pat}` comparison at column {col}",
            hint: None,
        }],
    },
    RuleMeta {
        id: FLOAT_CAST,
        scope: "core::policy and sched sources",
        rationale: "threshold admission (Propositions 1-2) is exact integer arithmetic; raw casts reintroduce rounding where the paper's guarantees assume none",
        hint: "route the conversion through the units.rs newtypes, or add the file to rules::FLOAT_CAST_ALLOW with a justification",
        pragma: "qbm-lint: allow(float-cast), or rules::FLOAT_CAST_ALLOW with a justification",
        checks: &[LineCheck {
            applies: Applies::Path(|rel| {
                rel.starts_with("crates/core/src/policy/") || rel.starts_with("crates/sched/src/")
            }),
            matcher: Matcher::Words(&["as f64", "as f32"]),
            message: "`{pat}` outside the sanctioned unit boundary",
            hint: None,
        }],
    },
    RuleMeta {
        id: SCHED_FLOAT,
        scope: "sched sources",
        rationale: "production schedulers run on the Q32.32 integer virtual clock; a stray f64 tag reintroduces NaN-capable compares and cross-platform rounding",
        hint: "schedulers run on the integer Q32.32 vclock::VirtualTime; the float baselines live in the dev-only oracle/ package",
        pragma: "qbm-lint: allow(sched-float-vtime)",
        checks: &[LineCheck {
            applies: Applies::Path(|rel| rel.starts_with("crates/sched/src/")),
            matcher: Matcher::Words(&["f64", "f32"]),
            message: "`{pat}` virtual-time state in a production scheduler",
            hint: None,
        }],
    },
    RuleMeta {
        id: HYGIENE,
        scope: "crate roots",
        rationale: "every crate forbids unsafe code and requires item docs; dropping the attributes silently relaxes both",
        hint: "add `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` to the crate root",
        pragma: "none (hard error)",
        checks: &[],
    },
    RuleMeta {
        id: PRINT,
        scope: "library sources (binaries exempt)",
        rationale: "library code returns data; printing belongs to the report layer and binaries so output stays schema-stable",
        hint: "return data and let the report layer / binaries do the printing",
        pragma: "qbm-lint: allow(print-hygiene)",
        checks: &[LineCheck {
            applies: Applies::Path(|rel| {
                rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("src/main.rs")
            }),
            matcher: Matcher::Words(&["println!", "eprintln!", "print!", "eprint!", "dbg!"]),
            message: "`{pat}` in library code",
            hint: None,
        }],
    },
    RuleMeta {
        id: OBS_HYGIENE,
        scope: "cli (except profile.rs), sim, obs",
        rationale: "host timing lives in the one sanctioned profiling module and traces go through Observer hooks, so every emitted event carries simulated time in a fixed schema",
        hint: "host timing belongs in qbm_cli::profile (the one sanctioned wall-clock site); traces carry simulated time only",
        pragma: "qbm-lint: allow(obs-hygiene)",
        checks: &[
            // The obs crate itself sits under the stricter `wall-clock`
            // rule via DETERMINISM_CRATES.
            LineCheck {
                applies: Applies::Path(|rel| {
                    rel.starts_with("crates/cli/src/") && rel != "crates/cli/src/profile.rs"
                }),
                matcher: Matcher::Words(CLOCK_READS),
                message: "`{pat}` outside the sanctioned profiling module",
                hint: None,
            },
            LineCheck {
                applies: Applies::Path(|rel| {
                    rel.starts_with("crates/sim/src/") || rel.starts_with("crates/obs/src/")
                }),
                matcher: Matcher::Words(&["writeln!"]),
                message: "`{pat}` — ad-hoc trace emission in the simulator",
                hint: Some("emit events through a qbm_obs::Observer hook; hand-rolled writeln! traces bypass the deterministic schema"),
            },
        ],
    },
    RuleMeta {
        id: HOT_PATH_ALLOC,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "the paper's scalability claim is constant per-packet work; one allocation per event undoes the indexed-timer speedup and adds allocator jitter",
        hint: "allocate before the event loop (FlowLanes arrays, recycled trace buffers) — a per-event allocation undoes the indexed-timer speedup",
        pragma: "qbm-lint: allow(hot-path-alloc), or qbm-lint: cold(<reason>) on a setup fn",
        // `to_vec`/`collect` match the method names so
        // `.collect::<Vec<_>>()` is caught too; growth of preallocated
        // buffers (`push`, `reserve`) stays legal because it amortizes.
        checks: &[LineCheck {
            applies: Applies::Hot,
            matcher: Matcher::Words(&["Box::new", "vec!", "to_vec", "collect"]),
            message: "`{pat}` in hot-path fn `{fn}`",
            hint: None,
        }],
    },
    RuleMeta {
        id: HOT_PATH_PANIC,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "a panic in the event loop aborts a whole campaign cell; invariants are checked with debug_assert! and release builds run infallible code",
        hint: "restructure to an infallible match/if-let (debug_assert! the invariant), or justify with `qbm-lint: allow(hot-path-panic)` when failure means a config error that must abort",
        pragma: "qbm-lint: allow(hot-path-panic), or qbm-lint: cold(<reason>) on a setup fn",
        checks: &[
            // Substring match: the receiver `.` is part of the idiom.
            LineCheck {
                applies: Applies::Hot,
                matcher: Matcher::Substrings(&[".unwrap()", ".expect("]),
                message: "`{pat}…)` in hot-path fn `{fn}`",
                hint: None,
            },
            // `debug_assert!` stays legal: it compiles out of release
            // builds.
            LineCheck {
                applies: Applies::Hot,
                matcher: Matcher::Words(&["panic!", "unreachable!", "todo!", "unimplemented!"]),
                message: "`{pat}` in hot-path fn `{fn}`",
                hint: None,
            },
        ],
    },
    RuleMeta {
        id: HOT_PATH_INDEX,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "slice indexing carries a bounds-check panic path; existing audited sites are baselined, new ones need get()/iterators or a proven bound",
        hint: "prefer get()/iterators or prove the bound with a debug_assert!; existing sites live in the committed baseline — new ones fail the gate",
        pragma: "qbm-lint: allow(hot-path-index), baseline file for the audited legacy sites",
        checks: &[LineCheck {
            applies: Applies::Hot,
            matcher: Matcher::Custom(index_exprs),
            message: "indexing expression in hot-path fn `{fn}`",
            hint: None,
        }],
    },
    RuleMeta {
        id: SHARD_SAFETY,
        scope: "every fn reachable from rules::SHARD_ROOTS",
        rationale: "link-level sharding is deterministic only because shards share nothing and exchange through the log handoff; interior mutability or ad-hoc sync reintroduces scheduling-order dependence",
        hint: "fabric shards exchange state only through the log swap in `handoff`; interior mutability or ad-hoc synchronization reintroduces scheduling-order dependence",
        pragma: "qbm-lint: allow(shard-safety)",
        checks: &[
            LineCheck {
                applies: Applies::Shard,
                matcher: Matcher::Words(&[
                    "RefCell",
                    "Cell",
                    "UnsafeCell",
                    "Rc",
                    "Mutex",
                    "RwLock",
                    "static mut",
                ]),
                message: "`{pat}` in sharded fn `{fn}`",
                hint: None,
            },
            LineCheck {
                applies: Applies::Shard,
                matcher: Matcher::Custom(atomic_token),
                message: "`Atomic*` type in sharded fn `{fn}`",
                hint: None,
            },
        ],
    },
    RuleMeta {
        id: EXHAUSTIVE_SCHED,
        scope: "workspace cross-check",
        rationale: "a scheduler outside the 56-combo suite has no golden snapshots or shard-invariance coverage, so its regressions land silently",
        hint: "add the scheduler to tests/determinism.rs::all_combinations",
        pragma: "none (hard error)",
        checks: &[],
    },
    RuleMeta {
        id: EXHAUSTIVE_SOURCE,
        scope: "workspace cross-check",
        rationale: "a SourceKind variant missing from next_emission or on_feedback (wildcard arm) silently emits nothing or ignores its control loop; a variant absent from tests/determinism.rs has no pinned behavior; a Source impl outside the enum cannot reach the simulator",
        hint: "wire the variant/type through crates/traffic/src/kind.rs — a wildcard arm or missing variant silently drops it",
        pragma: "none (hard error)",
        checks: &[],
    },
    RuleMeta {
        id: EXHAUSTIVE_POLICY,
        scope: "workspace cross-check",
        rationale: "a buffer policy outside the suite ships without equivalence or golden coverage — exactly the drift the paper's policy comparisons must not have",
        hint: "add the policy to tests/determinism.rs::all_combinations so it gets golden snapshots and shard-invariance coverage",
        pragma: "none (hard error)",
        checks: &[],
    },
    RuleMeta {
        id: EXHAUSTIVE_RULE_DOC,
        scope: "lint self-check",
        rationale: "an undocumented or untested rule rots: RULES.md and the fixtures corpus must cover every registry entry",
        hint: "regenerate RULES.md (`cargo run -p qbm-lint -- --rules-md`) and add crates/lint/tests/fixtures/<rule>/{flag.rs,clean.rs}",
        pragma: "none (hard error)",
        checks: &[],
    },
    RuleMeta {
        id: ROOT_DRIFT,
        scope: "lint self-check",
        rationale: "an audit root that matches nothing audits nothing — a rename must not silently disarm the transitive rules",
        hint: "a renamed/deleted hot-path function disarms the transitive audit — update rules::HOT_ROOTS/SHARD_ROOTS to match the code",
        pragma: "none (hard error)",
        checks: &[],
    },
];

/// Look up a registry entry by rule ID.
pub fn meta(id: &str) -> Option<&'static RuleMeta> {
    REGISTRY.iter().find(|m| m.id == id)
}

/// Where the transitive hot-path audits start: the event-loop drivers,
/// the link engine, the departure-log append, log-slot pop and log
/// handoff, the fabric's level advance and its source stages'
/// chunk-fill loop, every scheduler's
/// enqueue/dequeue, the streaming-telemetry update paths (sketch/heatmap `record`, called
/// per event when sketches are attached), the shared tournament-tree
/// `replay` (per timer update in the event core, per tag update in
/// `ActiveSet`'s tree layout),
/// WF²Q+'s batched eligibility `sweep` (per virtual-clock advance),
/// and every source's `on_feedback` handler (invoked once per
/// departure/drop when the control loop is closed).
pub const HOT_ROOTS: &[crate::callgraph::RootSpec] = &[
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/router.rs",
        name: "run_inner",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/router.rs",
        name: "advance",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/router.rs",
        name: "start_transmission",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/event.rs",
        name: "append",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/event.rs",
        name: "pop_log",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/fabric.rs",
        name: "advance_level",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/fabric.rs",
        name: "handoff",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sim/src/fabric.rs",
        name: "fill",
    },
    crate::callgraph::RootSpec::TraitMethod {
        trait_name: "Scheduler",
        name: "enqueue",
    },
    crate::callgraph::RootSpec::TraitMethod {
        trait_name: "Scheduler",
        name: "dequeue",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/obs/src/sketch.rs",
        name: "record",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/obs/src/heatmap.rs",
        name: "record",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sched/src/tournament.rs",
        name: "replay",
    },
    crate::callgraph::RootSpec::InFile {
        file: "crates/sched/src/wf2q.rs",
        name: "sweep",
    },
    crate::callgraph::RootSpec::TraitMethod {
        trait_name: "Source",
        name: "on_feedback",
    },
];

/// Where the sharding-safety audit starts: everything that runs inside
/// the fabric's per-level `std::thread::scope` (its reachable set
/// covers `LinkEngine::advance` and the schedulers).
pub const SHARD_ROOTS: &[crate::callgraph::RootSpec] = &[crate::callgraph::RootSpec::InFile {
    file: "crates/sim/src/fabric.rs",
    name: "advance_level",
}];

/// Workspace crate dependencies (`crates/<name>` → direct deps), used
/// to gate broad call-graph resolution: a name-only match cannot be a
/// real edge into a crate the caller does not (transitively) depend
/// on. Keep in sync with the crate `Cargo.toml`s — over-listing is
/// safe (more conservative), under-listing loses audit edges.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("core", &[]),
    ("lint", &[]),
    ("fluid", &["core"]),
    ("obs", &["core"]),
    ("sched", &["core"]),
    ("traffic", &["core"]),
    ("sim", &["core", "traffic", "sched", "obs"]),
    ("cli", &["core", "traffic", "sched", "sim", "obs", "fluid"]),
    (
        "bench",
        &["core", "traffic", "sched", "sim", "obs", "fluid"],
    ),
];

/// May code in `caller_rel` call code in `callee_rel`? True when both
/// sit in the same crate, when the callee's crate is a transitive
/// dependency of the caller's, or when either path is outside
/// `crates/` (the facade root crate depends on everything).
pub fn crate_edge_allowed(caller_rel: &str, callee_rel: &str) -> bool {
    let (Some(from), Some(to)) = (crate_of(caller_rel), crate_of(callee_rel)) else {
        return true;
    };
    if from == to {
        return true;
    }
    // Transitive closure over the small fixed table.
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(c) = stack.pop() {
        let deps = CRATE_DEPS
            .iter()
            .find(|(name, _)| *name == c)
            .map(|(_, d)| *d)
            .unwrap_or(&[]);
        for &d in deps {
            if d == to {
                return true;
            }
            if !seen.contains(&d) {
                seen.push(d);
                stack.push(d);
            }
        }
    }
    false
}

/// Indexing expressions on a cleaned code line, one `(column, "[")`
/// per bracket: a `[` directly after an identifier character, `)`, or
/// `]` is an `Index`/`IndexMut` use (`lanes.pending[f]`,
/// `queues[i][j]`, `f(x)[0]`). Attribute brackets (`#[inline]`), array
/// types/literals, and `vec![…]` don't match because their `[` follows
/// punctuation.
pub fn index_exprs(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let mut prev = ' ';
    for (i, c) in code.char_indices() {
        if c == '[' && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            out.push((i + 1, "["));
        }
        prev = c;
    }
    out
}

/// The first `std::sync::atomic` type on the line, as a one-element
/// `(column, "Atomic")` list. Matched by prefix (`AtomicUsize`,
/// `AtomicU64`, …) at an identifier start.
pub fn atomic_token(code: &str) -> Vec<(usize, &'static str)> {
    let mut from = 0;
    while let Some(pos) = code[from..].find("Atomic") {
        let start = from + pos;
        let pre = code[..start].chars().next_back();
        let post = code[start + "Atomic".len()..].chars().next();
        if pre.is_none_or(|c| !c.is_alphanumeric() && c != '_')
            && post.is_some_and(|c| c.is_ascii_uppercase())
        {
            return vec![(start + 1, "Atomic")];
        }
        from = start + "Atomic".len();
    }
    Vec::new()
}

/// Crates whose library code must be wall-clock- and entropy-free.
/// `obs` is here on purpose: trace records are stamped with simulated
/// time only, so the observability core obeys the same clock ban as the
/// simulator it watches.
pub const DETERMINISM_CRATES: &[&str] = &["core", "sched", "sim", "traffic", "fluid", "obs"];

/// Files allowed to use `as f64`/`as f32` inside the audited
/// directories, each with the recorded justification. Everything else
/// must go through the `units.rs` newtypes (`Rate::bps`,
/// `Dur::as_secs_f64`, …) or carry an inline pragma.
pub const FLOAT_CAST_ALLOW: &[(&str, &str)] = &[
    (
        "crates/core/src/policy/red.rs",
        "RED's EWMA average and drop probability are float math by definition (Floyd & Jacobson)",
    ),
    (
        "crates/core/src/policy/fred.rs",
        "FRED inherits RED's float EWMA state and per-flow fair-share estimate",
    ),
    (
        "crates/core/src/policy/threshold.rs",
        "Prop-1/2 threshold formula is evaluated once at configuration time and rounded to bytes at the boundary; admission itself is pure integer compares",
    ),
];

/// Returns the allowlist entry covering `rel`, if any.
pub fn float_cast_allowance(rel: &str) -> Option<(&'static str, &'static str)> {
    FLOAT_CAST_ALLOW.iter().copied().find(|(p, _)| *p == rel)
}

/// The crate name of a `crates/<name>/…` path.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Do the determinism rules (`wall-clock`, `nondet-rng`) apply to this
/// file?
fn determinism_applies(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| DETERMINISM_CRATES.contains(&c))
}

/// Is this file a crate root that must carry the hygiene attributes?
pub fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, rest)| rest == "src/lib.rs")
}

/// Substring search with identifier boundaries: the character before
/// the match and the character after it must not be `[A-Za-z0-9_]`, so
/// `eprintln!` does not also match `println!` and `HashMaps` does not
/// match `HashMap`.
pub fn find_word(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let pre = code[..start].chars().next_back();
        let post = code[end..].chars().next();
        let boundary = |c: Option<char>| c.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary(pre) && boundary(post) {
            return true;
        }
        from = end;
    }
    false
}

/// Find `==`/`!=` comparisons with a float operand on either side.
/// Returns `(column, operator)` per match.
///
/// Lexical approximation: an operand counts as float when it is a
/// numeric literal with a fractional part, exponent or `f64`/`f32`
/// suffix, an `f64::`/`f32::` associated constant, or an `as f64`/`as
/// f32` cast result. Typed variable–variable comparisons are out of
/// lexical reach — the rule exists to keep float equality from being
/// written in the idioms that actually occur.
pub fn float_eq_matches(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let op = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => {
                i += 1;
                continue;
            }
        };
        // Skip `<=`, `>=`, `=>`, `===`-like runs and `!=`'s `=` half.
        let pre_ok = i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!');
        let post_ok = bytes.get(i + 2) != Some(&b'=');
        if pre_ok && post_ok {
            let left = &code[..i];
            let right = &code[i + 2..];
            if is_float_operand(last_token(left)) || is_float_operand(first_token(right)) {
                out.push((i + 1, op));
            }
        }
        i += 2;
    }
    out
}

/// Last operand-ish token before an operator.
fn last_token(s: &str) -> &str {
    let end = s.trim_end();
    let start = end
        .rfind(|c: char| c.is_whitespace() || "([{,".contains(c))
        .map_or(0, |p| p + c_len(end, p));
    &end[start..]
}

/// First operand-ish token after an operator.
fn first_token(s: &str) -> &str {
    let t = s.trim_start();
    let end = t
        .find(|c: char| c.is_whitespace() || ")]},;".contains(c))
        .unwrap_or(t.len());
    &t[..end]
}

fn c_len(s: &str, pos: usize) -> usize {
    s[pos..].chars().next().map_or(1, |c| c.len_utf8())
}

/// Is this token a float-typed operand, lexically?
fn is_float_operand(tok: &str) -> bool {
    let t = tok.trim_matches(|c: char| "()-!&*".contains(c));
    if t.contains("f64::") || t.contains("f32::") {
        return true;
    }
    if t == "f64" || t == "f32" {
        // `x as f64 == y` — the cast result is the operand.
        return true;
    }
    let cs: Vec<char> = t.chars().collect();
    if cs.is_empty() || !cs[0].is_ascii_digit() {
        return false;
    }
    let mut i = 0;
    while i < cs.len() && (cs[i].is_ascii_digit() || cs[i] == '_') {
        i += 1;
    }
    if i >= cs.len() {
        return false; // pure integer
    }
    match cs[i] {
        // `1.5`, `1.` — but not `1.max(…)` (method on an int literal).
        '.' => cs.get(i + 1).is_none_or(|c| !c.is_alphabetic()),
        'e' | 'E' => cs
            .get(i + 1)
            .is_some_and(|c| c.is_ascii_digit() || *c == '+' || *c == '-'),
        'f' => {
            let suf: String = cs[i..].iter().take(3).collect();
            suf == "f64" || suf == "f32"
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries_hold() {
        assert!(find_word("let x = thread_rng();", "thread_rng"));
        assert!(!find_word("let x = my_thread_rng();", "thread_rng"));
        assert!(!find_word("eprintln!(\"\")", "println!"));
        assert!(find_word("eprintln!(\"\")", "eprintln!"));
        assert!(!find_word("HashMapLike", "HashMap"));
    }

    #[test]
    fn float_eq_matcher_catches_common_idioms() {
        assert_eq!(float_eq_matches("if x == 0.0 {").len(), 1);
        assert_eq!(float_eq_matches("if 0.0 == x {").len(), 1);
        assert_eq!(float_eq_matches("x != 1e-9").len(), 1);
        assert_eq!(float_eq_matches("x == 2f64").len(), 1);
        assert_eq!(float_eq_matches("x == f64::INFINITY").len(), 1);
        assert_eq!(float_eq_matches("y as f64 == x").len(), 1);
    }

    #[test]
    fn float_eq_matcher_spares_integers_and_ranges() {
        assert!(float_eq_matches("if x == 0 {").is_empty());
        assert!(float_eq_matches("a.0 == b.0").is_empty());
        assert!(float_eq_matches("x <= 0.5 && y >= 1.5").is_empty());
        assert!(float_eq_matches("let y = x; z => 3").is_empty());
        assert!(float_eq_matches("assert!(n == len)").is_empty());
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/policy/mod.rs"));
        assert!(!is_crate_root("crates/core/src/analysis/lib.rs"));
    }

    #[test]
    fn allowlist_lookup_is_exact() {
        assert!(float_cast_allowance("crates/core/src/policy/red.rs").is_some());
        assert!(float_cast_allowance("crates/core/src/policy/red_extra.rs").is_none());
    }
}
