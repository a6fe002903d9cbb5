//! Rule definitions: names, hints, path targeting, the `float-cast`
//! allowlist, and the lexical matchers.
//!
//! | rule | scope | invariant |
//! |---|---|---|
//! | `wall-clock` | core, sched, sim, traffic, fluid | no `SystemTime` / `Instant::now` — simulated time only |
//! | `nondet-rng` | core, sched, sim, traffic, fluid | no `thread_rng` / `from_entropy` / `OsRng` — seeds are explicit |
//! | `unordered-container` | sim | no `HashMap`/`HashSet` — merge paths iterate in fixed order |
//! | `float-eq` | everywhere | no float `==`/`!=` — use `qbm_core::units::approx_eq` |
//! | `float-cast` | core::policy, sched | `as f64`/`as f32` only in allowlisted files |
//! | `sched-float-vtime` | sched (except `reference.rs`) | no `f64`/`f32` virtual-time state — schedulers run on the Q32.32 `VirtualTime` integer clock |
//! | `crate-hygiene` | crate roots | `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` |
//! | `print-hygiene` | library sources | no `println!`/`dbg!` — output goes through the report layer |
//! | `obs-hygiene` | cli (except `profile.rs`), sim, obs | no wall clock outside the profiling module; no ad-hoc `writeln!` tracing — events go through `qbm_obs::Observer` |
//! | `hot-path-alloc` | everything reachable from [`HOT_ROOTS`] | no `Box::new` / `vec!` / `to_vec` / `collect` in the event loop — preallocate/recycle outside it |
//! | `hot-path-panic` | everything reachable from [`HOT_ROOTS`] | no `unwrap`/`expect`/`panic!` family in the event loop |
//! | `hot-path-index` | everything reachable from [`HOT_ROOTS`] | indexing expressions are baselined; new ones fail |
//! | `shard-safety` | everything reachable from [`SHARD_ROOTS`] | no `static mut`/`Cell`/`RefCell`/`Rc`/`Mutex`/atomics inside fabric shard scopes |
//! | `exhaustive-sched` | workspace | every `Scheduler` impl appears in the equivalence suite / differential tests |
//! | `exhaustive-source` | workspace | every `SourceKind` variant dispatches (`next_emission` and `on_feedback`) and appears in the determinism suite; every `Source` impl is wired into the enum |
//! | `exhaustive-policy` | workspace | every `PolicyKind` variant appears in the equivalence suite |
//! | `exhaustive-rule-doc` | workspace | every rule has a RULES.md entry and a fixture pair |
//! | `root-drift` | workspace | every audit root matches a live function (hard error) |
//!
//! The full registry — with rationale, fix hint, and pragma form per
//! rule — is [`REGISTRY`]; `RULES.md` is generated from it.

/// Rule name: wall-clock reads in determinism-critical crates.
pub const WALL_CLOCK: &str = "wall-clock";
/// Hint for [`WALL_CLOCK`].
pub const WALL_CLOCK_HINT: &str =
    "use the simulated clock (qbm_core::units::Time); wall time breaks bit-for-bit reproducibility";
/// Matched identifiers for [`WALL_CLOCK`].
pub const WALL_CLOCK_PATTERNS: &[&str] = &["SystemTime", "Instant::now"];

/// Rule name: entropy-seeded RNG in determinism-critical crates.
pub const NONDET_RNG: &str = "nondet-rng";
/// Hint for [`NONDET_RNG`].
pub const NONDET_RNG_HINT: &str =
    "derive a ChaCha8Rng from an explicit u64 seed; entropy seeding breaks replayability";
/// Matched identifiers for [`NONDET_RNG`].
pub const NONDET_RNG_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Rule name: unordered containers in the simulator.
pub const UNORDERED: &str = "unordered-container";
/// Hint for [`UNORDERED`].
pub const UNORDERED_HINT: &str =
    "use BTreeMap/BTreeSet or a sorted Vec; HashMap iteration order varies across runs and merges";

/// Rule name: float equality comparison.
pub const FLOAT_EQ: &str = "float-eq";
/// Hint for [`FLOAT_EQ`].
pub const FLOAT_EQ_HINT: &str =
    "use qbm_core::units::approx_eq(a, b, eps) or restructure around an integer representation";

/// Rule name: raw float cast in threshold/scheduler arithmetic.
pub const FLOAT_CAST: &str = "float-cast";
/// Hint for [`FLOAT_CAST`].
pub const FLOAT_CAST_HINT: &str =
    "route the conversion through the units.rs newtypes, or add the file to rules::FLOAT_CAST_ALLOW with a justification";

/// Rule name: float virtual-time state in the scheduler crate.
pub const SCHED_FLOAT: &str = "sched-float-vtime";
/// Hint for [`SCHED_FLOAT`].
pub const SCHED_FLOAT_HINT: &str =
    "schedulers run on the integer Q32.32 vclock::VirtualTime; float baselines live in sched/src/reference.rs only";
/// Matched type tokens for [`SCHED_FLOAT`].
pub const SCHED_FLOAT_PATTERNS: &[&str] = &["f64", "f32"];

/// Does the scheduler float ban apply? All of `qbm-sched`'s library
/// sources except the retained float reference implementations. The
/// Q32.32 refactor made the hot path fully integer; this rule keeps it
/// that way — a stray `f64` tag or rate reintroduces NaN-capable
/// compares and cross-platform rounding hazards.
pub fn sched_float_applies(rel: &str) -> bool {
    rel.starts_with("crates/sched/src/") && rel != "crates/sched/src/reference.rs"
}

/// Rule name: crate-root hygiene attributes.
pub const HYGIENE: &str = "crate-hygiene";
/// Hint for [`HYGIENE`].
pub const HYGIENE_HINT: &str =
    "add `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` to the crate root";

/// Rule name: direct printing from library code.
pub const PRINT: &str = "print-hygiene";
/// Hint for [`PRINT`].
pub const PRINT_HINT: &str = "return data and let the report layer / binaries do the printing";

/// Rule name: observability hygiene — wall-clock reads outside the
/// sanctioned profiling module, or ad-hoc `writeln!` tracing in the
/// simulator instead of `qbm_obs::Observer` hooks.
pub const OBS_HYGIENE: &str = "obs-hygiene";
/// Hint for [`OBS_HYGIENE`] wall-clock matches.
pub const OBS_WALL_HINT: &str =
    "host timing belongs in qbm_cli::profile (the one sanctioned wall-clock site); traces carry simulated time only";
/// Hint for [`OBS_HYGIENE`] ad-hoc trace matches.
pub const OBS_TRACE_HINT: &str =
    "emit events through a qbm_obs::Observer hook; hand-rolled writeln! traces bypass the deterministic schema";

/// Rule name: heap allocation inside the simulator's hot path.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Hint for [`HOT_PATH_ALLOC`].
pub const HOT_PATH_ALLOC_HINT: &str =
    "allocate before the event loop (FlowLanes arrays, recycled trace buffers) — a per-event allocation undoes the indexed-timer speedup";
/// Matched tokens for [`HOT_PATH_ALLOC`]. Lexical like everything else:
/// `to_vec`/`collect` match the method names so `.collect::<Vec<_>>()`
/// is caught too; growth of preallocated buffers (`push`, `reserve`)
/// stays legal because it amortizes.
pub const HOT_PATH_ALLOC_PATTERNS: &[&str] = &["Box::new", "vec!", "to_vec", "collect"];

/// Rule name: panic paths inside the simulator's hot path.
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Hint for [`HOT_PATH_PANIC`].
pub const HOT_PATH_PANIC_HINT: &str =
    "restructure to an infallible match/if-let (debug_assert! the invariant), or justify with `qbm-lint: allow(hot-path-panic)` when failure means a config error that must abort";
/// Panic-capable method patterns for [`HOT_PATH_PANIC`] (substring
/// match — the receiver character before `.` is part of the idiom).
pub const PANIC_METHOD_PATTERNS: &[&str] = &[".unwrap()", ".expect("];
/// Panic-capable macro patterns for [`HOT_PATH_PANIC`] (word match).
/// `debug_assert!` stays legal: it compiles out of release builds.
pub const PANIC_MACRO_PATTERNS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Rule name: indexing expressions inside the simulator's hot path.
pub const HOT_PATH_INDEX: &str = "hot-path-index";
/// Hint for [`HOT_PATH_INDEX`].
pub const HOT_PATH_INDEX_HINT: &str =
    "prefer get()/iterators or prove the bound with a debug_assert!; existing sites live in the committed baseline — new ones fail the gate";

/// Rule name: shared-mutability hazards in per-level sharded code.
pub const SHARD_SAFETY: &str = "shard-safety";
/// Hint for [`SHARD_SAFETY`].
pub const SHARD_SAFETY_HINT: &str =
    "fabric shards exchange state only through the log swap in `handoff`; interior mutability or ad-hoc synchronization reintroduces scheduling-order dependence";
/// Banned tokens for [`SHARD_SAFETY`] (word match). `Atomic` types are
/// matched by prefix in [`has_atomic_token`].
pub const SHARD_SAFETY_PATTERNS: &[&str] =
    &["RefCell", "Cell", "UnsafeCell", "Rc", "Mutex", "RwLock"];

/// Rule name: a `Scheduler` impl missing from the 56-combo equivalence
/// suite (or, for float baselines, from the differential tests).
pub const EXHAUSTIVE_SCHED: &str = "exhaustive-sched";
/// Hint for [`EXHAUSTIVE_SCHED`].
pub const EXHAUSTIVE_SCHED_HINT: &str =
    "add the scheduler to tests/determinism.rs::all_combinations (production) or crates/sched/tests/differential.rs (reference baseline)";

/// Rule name: a `SourceKind` variant missing from the `next_emission`
/// or `on_feedback` dispatch, absent from the determinism suite, or a
/// `Source` impl not wired into the enum.
pub const EXHAUSTIVE_SOURCE: &str = "exhaustive-source";
/// Hint for [`EXHAUSTIVE_SOURCE`].
pub const EXHAUSTIVE_SOURCE_HINT: &str =
    "wire the variant/type through crates/traffic/src/kind.rs — a wildcard arm or missing variant silently drops it";

/// Rule name: a `PolicyKind` variant missing from the equivalence
/// suite.
pub const EXHAUSTIVE_POLICY: &str = "exhaustive-policy";
/// Hint for [`EXHAUSTIVE_POLICY`].
pub const EXHAUSTIVE_POLICY_HINT: &str =
    "add the policy to tests/determinism.rs::all_combinations so it gets golden snapshots and shard-invariance coverage";

/// Rule name: a lint rule missing its RULES.md entry or its fixtures.
pub const EXHAUSTIVE_RULE_DOC: &str = "exhaustive-rule-doc";
/// Hint for [`EXHAUSTIVE_RULE_DOC`].
pub const EXHAUSTIVE_RULE_DOC_HINT: &str =
    "regenerate RULES.md (`cargo run -p qbm-lint -- --rules-md`) and add crates/lint/tests/fixtures/<rule>/{flag.rs,clean.rs}";

/// Rule name: an audit root that matches no live function.
pub const ROOT_DRIFT: &str = "root-drift";
/// Hint for [`ROOT_DRIFT`].
pub const ROOT_DRIFT_HINT: &str =
    "a renamed/deleted hot-path function disarms the transitive audit — update rules::HOT_ROOTS/SHARD_ROOTS to match the code";

/// Where the transitive hot-path audits start: the event-loop drivers,
/// the link engine, the departure-log append, log-slot pop and log
/// handoff, the fabric's level advance, every scheduler's
/// enqueue/dequeue, the streaming-telemetry update paths (sketch/heatmap `record`, called
/// per event when sketches are attached), the tournament-tree
/// `replay` inside `ActiveSet` (per tag update at tree layouts),
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
        file: "crates/sched/src/active_set.rs",
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

/// Count indexing expressions on a cleaned code line: a `[` directly
/// after an identifier character, `)`, or `]` is an `Index`/`IndexMut`
/// use (`lanes.pending[f]`, `queues[i][j]`, `f(x)[0]`). Attribute
/// brackets (`#[inline]`), array types/literals, and `vec![…]` don't
/// match because their `[` follows punctuation.
pub fn index_exprs(code: &str) -> usize {
    let mut count = 0;
    let mut prev = ' ';
    for c in code.chars() {
        if c == '[' && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            count += 1;
        }
        prev = c;
    }
    count
}

/// Does the line use a `std::sync::atomic` type? Matched by prefix
/// (`AtomicUsize`, `AtomicU64`, …) at an identifier start.
pub fn has_atomic_token(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("Atomic") {
        let start = from + pos;
        let pre = code[..start].chars().next_back();
        let post = code[start + "Atomic".len()..].chars().next();
        if pre.is_none_or(|c| !c.is_alphanumeric() && c != '_')
            && post.is_some_and(|c| c.is_ascii_uppercase())
        {
            return true;
        }
        from = start + "Atomic".len();
    }
    false
}

/// Crates whose library code must be wall-clock- and entropy-free.
/// `obs` is here on purpose: trace records are stamped with simulated
/// time only, so the observability core obeys the same clock ban as the
/// simulator it watches.
pub const DETERMINISM_CRATES: &[&str] = &["core", "sched", "sim", "traffic", "fluid", "obs"];

/// Does the obs-hygiene wall-clock ban apply? Everything in `qbm-cli`
/// except the dedicated profiling module (the obs crate itself is
/// covered by the stricter `wall-clock` rule via
/// [`DETERMINISM_CRATES`]).
pub fn obs_wall_applies(rel: &str) -> bool {
    rel.starts_with("crates/cli/src/") && rel != "crates/cli/src/profile.rs"
}

/// Does the obs-hygiene ad-hoc-trace ban apply? The simulator and the
/// observability core: event emission must go through `Observer` hooks
/// and the `Tracer`'s schema, never a stray `writeln!`.
pub fn obs_trace_applies(rel: &str) -> bool {
    rel.starts_with("crates/sim/src/") || rel.starts_with("crates/obs/src/")
}

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
    (
        "crates/sched/src/reference.rs",
        "the retained float reference schedulers widen Q32.32 VirtualTime to f64 at their boundary; production schedulers are integer-only (see sched-float-vtime)",
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

/// Do the determinism rules apply to this file?
pub fn determinism_applies(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| DETERMINISM_CRATES.contains(&c))
}

/// Does the unordered-container rule apply to this file?
pub fn unordered_applies(rel: &str) -> bool {
    crate_of(rel) == Some("sim")
}

/// Does the float-cast audit apply to this file?
pub fn float_cast_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/policy/") || rel.starts_with("crates/sched/src/")
}

/// Does the print-hygiene rule apply (library sources only — binaries
/// under `src/bin/` and `src/main.rs` are the sanctioned output edge)?
pub fn print_applies(rel: &str) -> bool {
    rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("src/main.rs")
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

/// One registry entry: everything the docs, SARIF metadata, and the
/// exhaustiveness self-check need to know about a rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable rule identifier (never renamed; baselines key on it).
    pub id: &'static str,
    /// Where the rule applies, in one line.
    pub scope: &'static str,
    /// Why the rule exists — the invariant it guards.
    pub rationale: &'static str,
    /// One-line fix hint (same text findings carry).
    pub hint: &'static str,
    /// The suppression channel, or `"none (hard error)"`.
    pub pragma: &'static str,
}

/// The complete rule registry, one entry per rule ID, in report order.
/// `RULES.md` is generated from this table and `tests/lint_gate.rs`
/// fails on drift; the `exhaustive-rule-doc` rule cross-checks that
/// every entry has a fixture pair.
pub const REGISTRY: &[RuleMeta] = &[
    RuleMeta {
        id: WALL_CLOCK,
        scope: "crates core, sched, sim, traffic, fluid, obs",
        rationale: "simulated time is the only clock; a wall-clock read makes results vary across hosts and runs, breaking bit-for-bit reproducibility of Propositions 1-3",
        hint: WALL_CLOCK_HINT,
        pragma: "qbm-lint: allow(wall-clock)",
    },
    RuleMeta {
        id: NONDET_RNG,
        scope: "crates core, sched, sim, traffic, fluid, obs",
        rationale: "every random stream derives from an explicit u64 seed so campaigns replay exactly; entropy seeding makes a run unreproducible",
        hint: NONDET_RNG_HINT,
        pragma: "qbm-lint: allow(nondet-rng)",
    },
    RuleMeta {
        id: UNORDERED,
        scope: "crate sim",
        rationale: "stats merges must be order-independent in fact, not by luck; HashMap iteration order varies per process and would make parallel campaign merges nondeterministic",
        hint: UNORDERED_HINT,
        pragma: "qbm-lint: allow(unordered-container)",
    },
    RuleMeta {
        id: FLOAT_EQ,
        scope: "everywhere",
        rationale: "float equality is rounding-fragile and NaN-capable; the workspace compares through approx_eq or integer representations",
        hint: FLOAT_EQ_HINT,
        pragma: "qbm-lint: allow(float-eq)",
    },
    RuleMeta {
        id: FLOAT_CAST,
        scope: "core::policy and sched sources",
        rationale: "threshold admission (Propositions 1-2) is exact integer arithmetic; raw casts reintroduce rounding where the paper's guarantees assume none",
        hint: FLOAT_CAST_HINT,
        pragma: "qbm-lint: allow(float-cast), or rules::FLOAT_CAST_ALLOW with a justification",
    },
    RuleMeta {
        id: SCHED_FLOAT,
        scope: "sched sources except reference.rs",
        rationale: "production schedulers run on the Q32.32 integer virtual clock; a stray f64 tag reintroduces NaN-capable compares and cross-platform rounding",
        hint: SCHED_FLOAT_HINT,
        pragma: "qbm-lint: allow(sched-float-vtime)",
    },
    RuleMeta {
        id: HYGIENE,
        scope: "crate roots",
        rationale: "every crate forbids unsafe code and requires item docs; dropping the attributes silently relaxes both",
        hint: HYGIENE_HINT,
        pragma: "none (hard error)",
    },
    RuleMeta {
        id: PRINT,
        scope: "library sources (binaries exempt)",
        rationale: "library code returns data; printing belongs to the report layer and binaries so output stays schema-stable",
        hint: PRINT_HINT,
        pragma: "qbm-lint: allow(print-hygiene)",
    },
    RuleMeta {
        id: OBS_HYGIENE,
        scope: "cli (except profile.rs), sim, obs",
        rationale: "host timing lives in the one sanctioned profiling module and traces go through Observer hooks, so every emitted event carries simulated time in a fixed schema",
        hint: OBS_WALL_HINT,
        pragma: "qbm-lint: allow(obs-hygiene)",
    },
    RuleMeta {
        id: HOT_PATH_ALLOC,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "the paper's scalability claim is constant per-packet work; one allocation per event undoes the indexed-timer speedup and adds allocator jitter",
        hint: HOT_PATH_ALLOC_HINT,
        pragma: "qbm-lint: allow(hot-path-alloc), or qbm-lint: cold(<reason>) on a setup fn",
    },
    RuleMeta {
        id: HOT_PATH_PANIC,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "a panic in the event loop aborts a whole campaign cell; invariants are checked with debug_assert! and release builds run infallible code",
        hint: HOT_PATH_PANIC_HINT,
        pragma: "qbm-lint: allow(hot-path-panic), or qbm-lint: cold(<reason>) on a setup fn",
    },
    RuleMeta {
        id: HOT_PATH_INDEX,
        scope: "every fn reachable from rules::HOT_ROOTS",
        rationale: "slice indexing carries a bounds-check panic path; existing audited sites are baselined, new ones need get()/iterators or a proven bound",
        hint: HOT_PATH_INDEX_HINT,
        pragma: "qbm-lint: allow(hot-path-index), baseline file for the audited legacy sites",
    },
    RuleMeta {
        id: SHARD_SAFETY,
        scope: "every fn reachable from rules::SHARD_ROOTS",
        rationale: "link-level sharding is deterministic only because shards share nothing and exchange through the log handoff; interior mutability or ad-hoc sync reintroduces scheduling-order dependence",
        hint: SHARD_SAFETY_HINT,
        pragma: "qbm-lint: allow(shard-safety)",
    },
    RuleMeta {
        id: EXHAUSTIVE_SCHED,
        scope: "workspace cross-check",
        rationale: "a scheduler outside the 56-combo suite has no golden snapshots or shard-invariance coverage, so its regressions land silently",
        hint: EXHAUSTIVE_SCHED_HINT,
        pragma: "none (hard error)",
    },
    RuleMeta {
        id: EXHAUSTIVE_SOURCE,
        scope: "workspace cross-check",
        rationale: "a SourceKind variant missing from next_emission or on_feedback (wildcard arm) silently emits nothing or ignores its control loop; a variant absent from tests/determinism.rs has no pinned behavior; a Source impl outside the enum cannot reach the simulator",
        hint: EXHAUSTIVE_SOURCE_HINT,
        pragma: "none (hard error)",
    },
    RuleMeta {
        id: EXHAUSTIVE_POLICY,
        scope: "workspace cross-check",
        rationale: "a buffer policy outside the suite ships without equivalence or golden coverage — exactly the drift the paper's policy comparisons must not have",
        hint: EXHAUSTIVE_POLICY_HINT,
        pragma: "none (hard error)",
    },
    RuleMeta {
        id: EXHAUSTIVE_RULE_DOC,
        scope: "lint self-check",
        rationale: "an undocumented or untested rule rots: RULES.md and the fixtures corpus must cover every registry entry",
        hint: EXHAUSTIVE_RULE_DOC_HINT,
        pragma: "none (hard error)",
    },
    RuleMeta {
        id: ROOT_DRIFT,
        scope: "lint self-check",
        rationale: "an audit root that matches nothing audits nothing — a rename must not silently disarm the transitive rules",
        hint: ROOT_DRIFT_HINT,
        pragma: "none (hard error)",
    },
];

/// Look up a registry entry by rule ID.
pub fn meta(id: &str) -> Option<&'static RuleMeta> {
    REGISTRY.iter().find(|m| m.id == id)
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
