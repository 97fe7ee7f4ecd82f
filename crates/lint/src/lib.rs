//! `rankfair_lint` — workspace-local static analysis for the serving
//! stack.
//!
//! The offline container rules out dylint and clippy cannot express
//! repo-specific invariants, so — like the in-workspace `rand` and
//! `json` crates — the analyzer is built here. It lexes every `*.rs`
//! under `crates/*/src`, `crates/*/tests` and `src/` ([`lexer`]),
//! parses items into a brace tree ([`parse`]), builds a workspace-wide
//! call graph ([`callgraph`]), and runs eight rules grounded in
//! shipped bugs and standing invariants ([`rules`], [`manifest`]):
//!
//! | rule | invariant | origin |
//! |------|-----------|--------|
//! | `lock-guard-liveness` | no temporary `.read()`/`.lock()` guard in a `match`/`if let`/`while let`/`for` header whose body takes `.write()`/`.lock()` on the same lock | PR 3 deadlock |
//! | `panic-path` | no `unwrap`/`expect`/`panic!`-family/indexing in serving-path files | wire robustness |
//! | `panic-reachability` | no explicit panic construct transitively *reachable* from a serving entry point, anywhere in the workspace | computed serving frontier |
//! | `lock-order-cycle` | the workspace lock-order graph (held-guard sets propagated along call edges) is acyclic, and no lock is re-acquired while held | session-lane deadlock-freedom |
//! | `guard-across-blocking` | no guard held (directly or via callee) across a blocking call on a serving path | PR 3 class, generalized |
//! | `lossy-cast` | no narrowing `as u32`/`u16`/`u8` without same-scope bounds evidence | PR 5 row-id wrap |
//! | `offline-deps` | every manifest dependency is an in-workspace `path` dep | offline container |
//! | `strict-parse` | wire-facing member destructures go through the allowlist helper | strict wire protocol |
//!
//! The first five source rules are intraprocedural and per-file; the
//! three concurrency/reachability rules run on the call graph, with
//! unresolved calls treated conservatively (the per-file rules are the
//! fallback where resolution stops). Files under `tests/` directories
//! are scanned for the two concurrency rules only — a deadlocked test
//! wedges CI just as hard — while the panic rules stay src-only.
//!
//! A finding is suppressed by a `// lint:allow(<rule>) -- <reason>`
//! comment — trailing on the offending line, or on its own line
//! directly above it. An own-line allow also covers the method-chain
//! continuations right below that line (lines that begin with `.` or
//! `?`), so a formatter splitting the chain keeps it in force. The
//! reason is mandatory; malformed or unused allows are themselves
//! findings (`allow-missing-reason`, `allow-unknown-rule`,
//! `allow-unused`), and every live allow must be ledgered in
//! `LINT_ALLOWS.md` (`allow-ledger`) so suppressions cannot accrete
//! silently.

pub mod callgraph;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;

use rankfair_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The eight source-level / manifest-level rules.
pub const RULES: [&str; 8] = [
    "lock-guard-liveness",
    "panic-path",
    "panic-reachability",
    "lock-order-cycle",
    "guard-across-blocking",
    "lossy-cast",
    "offline-deps",
    "strict-parse",
];

/// Meta rules produced by the suppression, ledger, and configuration
/// machinery; these cannot themselves be suppressed.
pub const META_RULES: [&str; 5] = [
    "allow-missing-reason",
    "allow-unknown-rule",
    "allow-unused",
    "allow-ledger",
    "serving-path-config",
];

/// The suppression ledger file, relative to the workspace root.
pub const LEDGER_FILE: &str = "LINT_ALLOWS.md";

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`RULES`] or [`META_RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// One live (used, well-formed) `lint:allow` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative path of the file holding the comment.
    pub file: String,
    /// 1-based line of the comment itself.
    pub line: u32,
    /// Rule being suppressed.
    pub rule: String,
    /// The mandatory justification after `--`.
    pub reason: String,
}

/// Which files each path-scoped rule applies to. Paths are
/// workspace-relative suffixes so tests can synthesize matching names.
#[derive(Debug, Clone)]
pub struct Config {
    /// Serving-path files where `panic-path` applies: the wire loop,
    /// the serve loop, the service registry, the JSON parser, and the
    /// monitor-update path.
    pub panic_path_files: Vec<String>,
    /// Wire-facing files where `strict-parse` applies.
    pub strict_parse_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            panic_path_files: own(&[
                "crates/service/src/lib.rs",
                "crates/service/src/wire.rs",
                "crates/service/src/serve.rs",
                "crates/service/src/session.rs",
                "crates/service/src/net.rs",
                "crates/json/src/lib.rs",
                "crates/core/src/json.rs",
                "crates/core/src/monitor.rs",
            ]),
            strict_parse_files: own(&[
                "crates/service/src/wire.rs",
                "crates/service/src/session.rs",
                "crates/service/src/net.rs",
                "crates/core/src/json.rs",
            ]),
        }
    }
}

impl Config {
    fn applies(list: &[String], file: &str) -> bool {
        list.iter()
            .any(|p| file == p || file.ends_with(&format!("/{p}")))
    }

    /// Does `panic-path` run on `file`?
    pub fn is_panic_path(&self, file: &str) -> bool {
        Self::applies(&self.panic_path_files, file)
    }

    /// Does `strict-parse` run on `file`?
    pub fn is_strict_parse(&self, file: &str) -> bool {
        Self::applies(&self.strict_parse_files, file)
    }
}

/// Result of analyzing one source file.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings, including suppression meta-findings.
    pub findings: Vec<Finding>,
    /// Well-formed allows that suppressed at least one finding.
    pub allows: Vec<Allow>,
}

struct AllowSite {
    line: u32,
    /// The lines the allow covers, `first..=last`.
    target_lines: (u32, u32),
    rule: String,
    reason: String,
    used: bool,
}

/// The crate-directory name a workspace-relative path belongs to:
/// `crates/<name>/…` → `<name>`, everything else → `root`.
pub fn crate_name_of(file: &str) -> String {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Is this a file under a `tests/` directory (integration tests)?
/// Those are scanned for the concurrency rules only.
pub fn is_test_dir(file: &str) -> bool {
    file.starts_with("tests/") || file.contains("/tests/")
}

/// A whole-workspace analysis: per-file findings plus the call graph
/// the interprocedural rules ran on (kept for `--dump-callgraph`).
pub struct WorkspaceAnalysis {
    /// Unsuppressed findings, including suppression meta-findings.
    pub findings: Vec<Finding>,
    /// Well-formed allows that suppressed at least one finding.
    pub allows: Vec<Allow>,
    /// The workspace call graph.
    pub graph: callgraph::Workspace,
}

/// Runs every source-level rule — per-file and interprocedural — over
/// a set of `(workspace-relative path, source)` pairs, applying
/// suppressions. `crate_deps` carries the manifest dependency edges
/// (crate dir → dep crate dirs); an empty map (single-file fixtures)
/// leaves cross-crate visibility open.
pub fn analyze_workspace(
    files: &[(String, String)],
    cfg: &Config,
    crate_deps: &BTreeMap<String, Vec<String>>,
) -> WorkspaceAnalysis {
    let units: Vec<callgraph::Unit> = files
        .iter()
        .map(|(file, src)| callgraph::Unit {
            file: file.clone(),
            crate_name: crate_name_of(file),
            test_dir: is_test_dir(file),
            lexed: lexer::lex(src),
        })
        .collect();

    // Per-file intraprocedural rules (src files only).
    let mut raw: Vec<Finding> = Vec::new();
    for u in &units {
        if u.test_dir {
            continue;
        }
        rules::lock_guard_liveness(&u.file, &u.lexed, &mut raw);
        if cfg.is_panic_path(&u.file) {
            rules::panic_path(&u.file, &u.lexed, &mut raw);
        }
        rules::lossy_cast(&u.file, &u.lexed, &mut raw);
        if cfg.is_strict_parse(&u.file) {
            rules::strict_parse(&u.file, &u.lexed, &mut raw);
        }
    }

    // Interprocedural rules on the call graph.
    let graph = callgraph::build(units, crate_deps);
    let conc = rules::concurrency_summaries(&graph);
    rules::panic_reachability(&graph, cfg, &mut raw);
    rules::lock_order_cycle(&graph, &conc, &mut raw);
    rules::guard_across_blocking(&graph, cfg, &conc, &mut raw);

    // Suppression pass, per file.
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for (ui, (file, src)) in files.iter().enumerate() {
        let lines: Vec<&str> = src.lines().collect();
        let lexed = &graph.units[ui].lexed;
        let mut sites = collect_allow_sites(file, lexed, &lines, &mut findings);

        for f in raw.iter_mut().filter(|f| f.file == *file) {
            f.excerpt = excerpt(&lines, f.line);
            let mut suppressed = false;
            for s in sites.iter_mut() {
                if s.rule == f.rule && (s.target_lines.0..=s.target_lines.1).contains(&f.line) {
                    s.used = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                findings.push(f.clone());
            }
        }

        for s in &sites {
            if s.used {
                allows.push(Allow {
                    file: file.clone(),
                    line: s.line,
                    rule: s.rule.clone(),
                    reason: s.reason.clone(),
                });
            } else {
                findings.push(Finding {
                    file: file.clone(),
                    line: s.line,
                    rule: "allow-unused",
                    message: format!(
                        "lint:allow({}) suppresses nothing — the finding it covered is gone; remove it",
                        s.rule
                    ),
                    excerpt: excerpt(&lines, s.line),
                });
            }
        }
    }

    WorkspaceAnalysis {
        findings,
        allows,
        graph,
    }
}

/// Runs every source-level rule over one file, applying suppressions —
/// a single-file [`analyze_workspace`]. `file` is the
/// workspace-relative path; rules scoped by [`Config`] match on it.
pub fn analyze_source(file: &str, src: &str, cfg: &Config) -> Analysis {
    let wa = analyze_workspace(
        &[(file.to_string(), src.to_string())],
        cfg,
        &BTreeMap::new(),
    );
    Analysis {
        findings: wa.findings,
        allows: wa.allows,
    }
}

/// Parses `lint:allow(rule) -- reason` comments into suppression
/// sites, emitting meta-findings for malformed ones. An own-line
/// comment targets the next token-bearing line and each token-bearing
/// line after it whose first token is `.` or `?` (a chain
/// continuation); a trailing comment targets its own line.
fn collect_allow_sites(
    file: &str,
    lexed: &lexer::Lexed,
    lines: &[&str],
    findings: &mut Vec<Finding>,
) -> Vec<AllowSite> {
    let mut sites = Vec::new();
    for c in &lexed.comments {
        // A directive is the whole comment: `// lint:allow(rule) -- why`.
        // Doc prose *mentioning* the syntax (`/// … lint:allow(…) …`)
        // starts with the doc-comment marker and is skipped.
        let text = c.text.trim_start();
        let Some(rest) = text.strip_prefix("lint:allow(") else {
            continue;
        };
        let (rule, after) = match rest.find(')') {
            Some(close) => (rest[..close].trim().to_string(), &rest[close + 1..]),
            None => (String::new(), ""),
        };
        let reason = after
            .find("--")
            .map(|p| after[p + 2..].trim().to_string())
            .unwrap_or_default();

        if !RULES.contains(&rule.as_str()) {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "allow-unknown-rule",
                message: format!("lint:allow names unknown rule `{rule}`"),
                excerpt: excerpt(lines, c.line),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "allow-missing-reason",
                message: format!(
                    "lint:allow({rule}) has no reason — write `lint:allow({rule}) -- <why this is sound>`"
                ),
                excerpt: excerpt(lines, c.line),
            });
            continue;
        }
        let mut target_lines = (c.line, c.line);
        if c.own_line {
            let mut after = lexed.toks.iter().filter(|t| t.line > c.line);
            if let Some(first) = after.next() {
                target_lines = (first.line, first.line);
                // The first token of each later line, while it continues
                // the chain.
                for t in after {
                    if t.line == target_lines.1 {
                        continue;
                    }
                    if !(t.is_punct('.') || t.is_punct('?')) {
                        break;
                    }
                    target_lines.1 = t.line;
                }
            }
        }
        sites.push(AllowSite {
            line: c.line,
            target_lines,
            rule,
            reason,
            used: false,
        });
    }
    sites
}

fn excerpt(lines: &[&str], line: u32) -> String {
    let idx = (line as usize).saturating_sub(1);
    let text = lines.get(idx).map(|l| l.trim()).unwrap_or("");
    let mut out: String = text.chars().take(120).collect();
    if out.len() < text.len() {
        out.push('…');
    }
    out
}

/// A whole-workspace lint report.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// All live allows, sorted by (file, line).
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_scanned: usize,
}

/// Lints the workspace rooted at `root` and keeps the call graph for
/// inspection (`--dump-callgraph`): every `*.rs` under `src/`,
/// `tests/`, `crates/*/src/` and `crates/*/tests/`, every `Cargo.toml`
/// (root + per-crate), the serving-path configuration, and the
/// suppression ledger.
pub fn run_with_graph(root: &Path) -> Result<(Report, callgraph::Workspace), String> {
    let cfg = Config::default();
    let mut report = Report::default();

    let mut sources = Vec::new();
    for dir in [root.join("src"), root.join("tests")] {
        if dir.is_dir() {
            walk_rs(&dir, &mut sources).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        }
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if !path.is_dir() {
                continue;
            }
            for sub in [path.join("src"), path.join("tests")] {
                if sub.is_dir() {
                    walk_rs(&sub, &mut sources)
                        .map_err(|e| format!("walking {}: {e}", sub.display()))?;
                }
            }
            let manifest = path.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    sources.sort();
    manifests.sort();

    let mut files: Vec<(String, String)> = Vec::new();
    for path in &sources {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        files.push((rel_path(root, path), src));
    }

    // Manifest dependency edges gate cross-crate call resolution.
    let mut crate_deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for path in &manifests {
        if !path.is_file() {
            continue;
        }
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = rel_path(root, path);
        let crate_dir = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("root")
            .to_string();
        crate_deps
            .entry(crate_dir)
            .or_default()
            .extend(manifest::path_deps(&src));
        manifest::offline_deps(&rel, &src, &mut report.findings);
        report.manifests_scanned += 1;
    }

    let paths: Vec<String> = files.iter().map(|(f, _)| f.clone()).collect();
    report.findings.extend(serving_path_config(&cfg, &paths));

    let wa = analyze_workspace(&files, &cfg, &crate_deps);
    report.findings.extend(wa.findings);
    report.allows.extend(wa.allows);
    report.files_scanned = files.len();

    check_ledger(root, &report.allows, &mut report.findings);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((report, wa.graph))
}

/// [`run_with_graph`] without the graph.
pub fn run(root: &Path) -> Result<Report, String> {
    run_with_graph(root).map(|(report, _)| report)
}

/// `serving-path-config` — the drift meta-check on the hand-written
/// serving-file list: a configured file that no longer exists has
/// silently dropped out of `panic-path`/seed coverage, and a new
/// `crates/service/src/*.rs` file absent from the list is serving code
/// the lint is not seeding from. Pure over the scanned path list so it
/// is directly testable.
pub fn serving_path_config(cfg: &Config, scanned: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in &cfg.panic_path_files {
        if !scanned.iter().any(|f| f == p) {
            out.push(Finding {
                file: p.clone(),
                line: 1,
                rule: "serving-path-config",
                message: format!(
                    "serving-path configuration names `{p}` but no such file was scanned — a \
                     rename silently dropped it from panic-path coverage; update \
                     Config::panic_path_files"
                ),
                excerpt: String::new(),
            });
        }
    }
    for f in scanned {
        let Some(rest) = f.strip_prefix("crates/service/src/") else {
            continue;
        };
        if rest.contains('/') || !rest.ends_with(".rs") {
            continue;
        }
        if !cfg.panic_path_files.iter().any(|p| p == f) {
            out.push(Finding {
                file: f.clone(),
                line: 1,
                rule: "serving-path-config",
                message: format!(
                    "new service source file `{f}` is not in the serving-path configuration — \
                     add it to Config::panic_path_files so the panic rules seed from it"
                ),
                excerpt: String::new(),
            });
        }
    }
    out
}

/// Compares live allows against `LINT_ALLOWS.md`. Ledger entries are
/// bullets of the shape ``- `path` · `rule` — reason``, one per allow
/// site; any per-(file, rule) count drift is a finding, so the allow
/// population cannot change without a visible ledger diff.
fn check_ledger(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    let mut actual: BTreeMap<(String, String), usize> = BTreeMap::new();
    for a in allows {
        *actual.entry((a.file.clone(), a.rule.clone())).or_insert(0) += 1;
    }

    let ledger_src = fs::read_to_string(root.join(LEDGER_FILE)).unwrap_or_default();
    let mut ledgered: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut in_fence = false;
    for line in ledger_src.lines() {
        let line = line.trim();
        if line.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with("- `") {
            continue;
        }
        let mut parts = line.split('`');
        // parts: "- ", file, " · ", rule, " — reason"
        let (Some(_), Some(file), Some(_), Some(rule)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        *ledgered
            .entry((file.to_string(), rule.to_string()))
            .or_insert(0) += 1;
    }

    let keys: std::collections::BTreeSet<_> = actual.keys().chain(ledgered.keys()).collect();
    for key in keys {
        let have = actual.get(key).copied().unwrap_or(0);
        let want = ledgered.get(key).copied().unwrap_or(0);
        if have != want {
            findings.push(Finding {
                file: LEDGER_FILE.to_string(),
                line: 1,
                rule: "allow-ledger",
                message: format!(
                    "`{}` has {have} lint:allow({}) suppression(s) but the ledger lists {want} — update {LEDGER_FILE}",
                    key.0, key.1
                ),
                excerpt: String::new(),
            });
        }
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Deterministic JSON encoding of a report (no clocks, sorted entries)
/// so CI runs are byte-diffable.
pub fn report_json(r: &Report) -> Value {
    let findings = r
        .findings
        .iter()
        .map(|f| {
            Value::object([
                ("file", Value::from(f.file.as_str())),
                ("line", Value::from(u64::from(f.line))),
                ("rule", Value::from(f.rule)),
                ("message", Value::from(f.message.as_str())),
                ("excerpt", Value::from(f.excerpt.as_str())),
            ])
        })
        .collect();
    let allows = r
        .allows
        .iter()
        .map(|a| {
            Value::object([
                ("file", Value::from(a.file.as_str())),
                ("line", Value::from(u64::from(a.line))),
                ("rule", Value::from(a.rule.as_str())),
                ("reason", Value::from(a.reason.as_str())),
            ])
        })
        .collect();
    Value::object([
        ("findings", Value::array(findings)),
        ("allows", Value::array(allows)),
        (
            "summary",
            Value::object([
                ("files_scanned", Value::from(r.files_scanned)),
                ("manifests_scanned", Value::from(r.manifests_scanned)),
                ("findings", Value::from(r.findings.len())),
                ("allows", Value::from(r.allows.len())),
            ]),
        ),
    ])
}
