//! Fixture-based self-tests: every rule gets positive, negative, and
//! suppressed cases, including the exact shapes of the two historical
//! bugs the lint exists to keep out — the PR 3 read-guard-into-write
//! deadlock and the PR 5 `as u32` length wrap.

use rankfair_lint::{analyze_source, manifest, Analysis, Config};

/// A neutral path: no path-scoped rule applies, so only
/// `lock-guard-liveness` and `lossy-cast` can fire.
const NEUTRAL: &str = "crates/core/src/engine.rs";
/// A serving-path file: `panic-path` and `strict-parse` both apply.
const SERVING: &str = "crates/service/src/wire.rs";

fn lint(file: &str, src: &str) -> Analysis {
    analyze_source(file, src, &Config::default())
}

fn rule_lines(a: &Analysis, rule: &str) -> Vec<u32> {
    a.findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

fn assert_clean(a: &Analysis) {
    assert!(
        a.findings.is_empty(),
        "expected no findings, got: {:?}",
        a.findings
    );
}

// ---- lock-guard-liveness ----------------------------------------------

/// The exact PR 3 shape: the `if let` header holds a read guard that
/// Rust keeps alive through *both* branches, so the `else` branch's
/// `.write()` self-deadlocks.
#[test]
fn lock_guard_pr3_read_into_write_fires() {
    let src = "\
fn lookup(map: &std::sync::RwLock<Table>, k: u32) -> u32 {
    if let Some(v) = map.read().expect(\"poisoned\").get(&k) {
        *v
    } else {
        let mut w = map.write().expect(\"poisoned\");
        w.insert(k, 0);
        0
    }
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lock-guard-liveness"), vec![2]);
}

/// The PR 3 fix shape: clone out of the guard in a plain `let`, so the
/// guard is dropped before the write path. Must not fire.
#[test]
fn lock_guard_clone_out_then_write_is_clean() {
    let src = "\
fn lookup(map: &std::sync::RwLock<Table>, k: u32) -> u32 {
    let existing = map.read().expect(\"poisoned\").get(&k).cloned();
    match existing {
        Some(v) => v,
        None => {
            let mut w = map.write().expect(\"poisoned\");
            w.insert(k, 0);
            0
        }
    }
}
";
    assert_clean(&lint(NEUTRAL, src));
}

/// A `for` header guard iterated while the body locks the same table.
#[test]
fn lock_guard_for_header_fires() {
    let src = "\
fn sweep(table: &std::sync::RwLock<Table>) {
    for k in table.read().unwrap().stale_keys() {
        table.write().unwrap().remove(&k);
    }
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lock-guard-liveness"), vec![2]);
}

/// Writing a *different* lock inside the guarded body is fine.
#[test]
fn lock_guard_distinct_locks_is_clean() {
    let src = "\
fn cross(a: &std::sync::RwLock<Table>, b: &std::sync::RwLock<Table>) {
    if let Some(v) = a.read().unwrap().peek() {
        b.write().unwrap().push(v);
    }
}
";
    assert_clean(&lint(NEUTRAL, src));
}

#[test]
fn lock_guard_suppression_records_allow() {
    let src = "\
fn lookup(map: &std::sync::RwLock<Table>, k: u32) -> u32 {
    // lint:allow(lock-guard-liveness) -- fixture: deadlock shape kept on purpose
    if let Some(v) = map.read().unwrap().get(&k) {
        *v
    } else {
        map.write().unwrap().insert(k, 0)
    }
}
";
    let a = lint(NEUTRAL, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].rule, "lock-guard-liveness");
    assert!(a.allows[0].reason.starts_with("fixture"));
}

// ---- panic-path -------------------------------------------------------

#[test]
fn panic_path_flags_unwrap_expect_macros_and_indexing() {
    let src = "\
fn handle(req: &[u8], table: &Table) -> u32 {
    let head = req[0];
    let parsed = parse(req).unwrap();
    let row = table.find(parsed).expect(\"present\");
    if head == 0 {
        panic!(\"empty request\");
    }
    match row {
        Row::Data(v) => v,
        Row::Hole => unreachable!(),
    }
}
";
    let a = lint(SERVING, src);
    let lines = rule_lines(&a, "panic-path");
    assert_eq!(lines, vec![2, 3, 4, 6, 10], "findings: {:?}", a.findings);
}

/// The same source on a non-serving file produces nothing: panic-path
/// is scoped to the wire/serve/parse/monitor files.
#[test]
fn panic_path_is_scoped_to_serving_files() {
    let src = "fn f(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n";
    assert!(!rule_lines(&lint(SERVING, src), "panic-path").is_empty());
    assert_clean(&lint(NEUTRAL, src));
}

/// `.lock().expect(..)` / `.read().expect(..)` propagate an existing
/// poison panic rather than creating a new path — exempt.
#[test]
fn panic_path_lock_poison_expect_is_exempt() {
    let src = "\
fn snapshot(state: &std::sync::Mutex<State>) -> State {
    state.lock().expect(\"poisoned\").clone()
}
fn view(state: &std::sync::RwLock<State>) -> State {
    state.read().expect(\"poisoned\").clone()
}
";
    assert_clean(&lint(SERVING, src));
}

/// Attributes, `vec![..]`, slice types, and array literals all contain
/// `[` without being indexing.
#[test]
fn panic_path_indexing_heuristic_excludes_non_indexing_brackets() {
    let src = "\
#[derive(Debug)]
struct Frame {
    payload: Vec<u8>,
}
fn build() -> Vec<u8> {
    let header: [u8; 2] = [0x52, 0x46];
    let mut out: Vec<u8> = vec![header.len() as u8];
    out.extend_from_slice(&header);
    out
}
fn read(buf: &mut [u8]) -> [u8; 2] {
    let _ = buf.len();
    return [0, 1];
}
";
    let a = lint(SERVING, src);
    assert!(rule_lines(&a, "panic-path").is_empty(), "{:?}", a.findings);
}

/// `#[cfg(test)]` spans are exempt from every rule.
#[test]
fn rules_skip_cfg_test_spans() {
    let src = "\
fn serve(b: &[u8]) -> usize {
    b.len()
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u8> = vec![1, 2];
        assert_eq!(v[0], parse(&v).unwrap());
        let _ = v.len() as u16;
    }
}
";
    assert_clean(&lint(SERVING, src));
}

/// A `#[cfg(test)]` on a field gates that field alone: the `impl` after
/// the struct is live code, and its `.unwrap()` is a finding.
#[test]
fn cfg_test_on_a_field_leaves_the_next_item_live() {
    let src = "\
struct Core {
    #[cfg(test)]
    pub(crate) skips: usize,
    slots: Vec<u32>,
}
impl Core {
    fn first(&self) -> u32 {
        self.slots.first().copied().unwrap()
    }
}
";
    let a = lint(SERVING, src);
    assert_eq!(rule_lines(&a, "panic-path"), vec![8], "{:?}", a.findings);
}

/// Panic-looking text inside string literals is not code; the lexer
/// must keep it out of the token stream.
#[test]
fn panic_path_ignores_strings_and_comments() {
    let src = "\
fn describe() -> &'static str {
    // the old code called table.get(k).unwrap() here
    \"refusing to unwrap() or panic!() in serving paths\"
}
";
    assert_clean(&lint(SERVING, src));
}

#[test]
fn panic_path_trailing_and_own_line_suppressions() {
    let src = "\
fn handle(req: &[u8]) -> u8 {
    let head = req[0]; // lint:allow(panic-path) -- fixture: trailing form
    // lint:allow(panic-path) -- fixture: own-line form targets the next line
    let tail = req[1];
    head + tail
}
";
    let a = lint(SERVING, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 2);
    assert_eq!(a.allows[0].line, 2);
    assert_eq!(a.allows[1].line, 3);
}

/// rustfmt splits a long method chain one call per line, moving the
/// flagged call below the line an own-line allow sits above.
#[test]
fn own_line_allow_covers_the_chain_rustfmt_split() {
    let src = "\
fn handle(slots: Vec<Option<u8>>) -> Vec<u8> {
    // lint:allow(panic-path) -- fixture: the split chain's expect
    slots
        .into_iter()
        .map(|s| s.expect(\"slot written\"))
        .collect()
}
";
    let a = lint(SERVING, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].line, 2);
}

#[test]
fn own_line_allow_ends_with_the_chain() {
    let src = "\
fn handle(slots: Vec<Option<u8>>, req: &[u8]) -> u8 {
    // lint:allow(panic-path) -- fixture: covers the chain only
    let n = slots
        .into_iter()
        .map(|s| s.expect(\"slot written\"))
        .count();
    req[n]
}
";
    let a = lint(SERVING, src);
    assert_eq!(rule_lines(&a, "panic-path"), vec![7]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.allows.len(), 1);
}

// ---- lossy-cast -------------------------------------------------------

/// The exact PR 5 shape: a length collapsed to `u32` with no bounds
/// evidence in the enclosing function.
#[test]
fn lossy_cast_pr5_len_as_u32_fires() {
    let src = "\
fn next_id(nodes: &[Node]) -> u32 {
    nodes.len() as u32
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lossy-cast"), vec![2]);
}

/// `try_from` in the same function is bounds evidence: the author
/// visibly confronted the overflow case.
#[test]
fn lossy_cast_try_from_evidence_is_clean() {
    let src = "\
fn next_id(nodes: &[Node]) -> u32 {
    let n = u32::try_from(nodes.len()).expect(\"node ids fit u32\");
    n as u32
}
";
    assert_clean(&lint(NEUTRAL, src));
}

/// Comparing against `<target>::MAX` in the same function also counts.
#[test]
fn lossy_cast_max_comparison_evidence_is_clean() {
    let src = "\
fn code(card: usize) -> u16 {
    assert!(card <= usize::from(u16::MAX));
    card as u16
}
";
    assert_clean(&lint(NEUTRAL, src));
}

/// Evidence is per-function: a `try_from` in one function does not
/// launder a bare cast in its neighbor.
#[test]
fn lossy_cast_evidence_does_not_leak_across_functions() {
    let src = "\
fn checked(n: usize) -> u32 {
    u32::try_from(n).expect(\"fits\")
}
fn unchecked(n: usize) -> u32 {
    n as u32
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lossy-cast"), vec![5]);
}

/// Literal sources that fit the target are fine; ones that don't, fire.
#[test]
fn lossy_cast_literal_fit_is_radix_aware() {
    let src = "\
fn lits() -> (u8, u8, u8) {
    (255 as u8, 0xFF as u8, 0x1_00 as u8)
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lossy-cast"), vec![2]);
}

/// Widening and same-width casts are not narrowing.
#[test]
fn lossy_cast_ignores_widening() {
    let src = "\
fn widen(x: u16) -> (u64, usize) {
    (x as u64, x as usize)
}
";
    assert_clean(&lint(NEUTRAL, src));
}

#[test]
fn lossy_cast_suppression_records_allow() {
    let src = "\
fn sample(draw: u64) -> u32 {
    (draw >> 32) as u32 // lint:allow(lossy-cast) -- fixture: high bits are the sample
}
";
    let a = lint(NEUTRAL, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].rule, "lossy-cast");
}

// ---- strict-parse -----------------------------------------------------

/// Destructuring two members without rejecting unknowns silently
/// accepts misspelled fields on the wire.
#[test]
fn strict_parse_two_members_without_reject_fires() {
    let src = "\
fn edit_from_json(pairs: &Obj) -> Result<Edit, String> {
    let row = pairs.get(\"row\").ok_or(\"missing row\")?;
    let score = pairs.get(\"score\").ok_or(\"missing score\")?;
    Ok(Edit::new(row, score))
}
";
    let a = lint(SERVING, src);
    assert_eq!(rule_lines(&a, "strict-parse"), vec![1]);
}

#[test]
fn strict_parse_reject_unknown_call_is_clean() {
    let src = "\
fn edit_from_json(pairs: &Obj) -> Result<Edit, String> {
    reject_unknown_members(pairs, &[\"row\", \"score\"], \"edit\")?;
    let row = pairs.get(\"row\").ok_or(\"missing row\")?;
    let score = pairs.get(\"score\").ok_or(\"missing score\")?;
    Ok(Edit::new(row, score))
}
";
    assert_clean(&lint(SERVING, src));
}

/// One member is a lookup, not a destructure; and the rule is scoped
/// to wire-facing files.
#[test]
fn strict_parse_scope_and_single_member() {
    let single = "\
fn kind(pairs: &Obj) -> Option<&Value> {
    pairs.get(\"kind\")
}
";
    assert_clean(&lint(SERVING, single));

    let two = "\
fn pair(pairs: &Obj) -> (Option<&Value>, Option<&Value>) {
    (pairs.get(\"a\"), pairs.get(\"b\"))
}
";
    assert_clean(&lint(NEUTRAL, two));
}

// ---- offline-deps -----------------------------------------------------

fn lint_manifest(src: &str) -> Vec<rankfair_lint::Finding> {
    let mut out = Vec::new();
    manifest::offline_deps("crates/demo/Cargo.toml", src, &mut out);
    out
}

#[test]
fn offline_deps_registry_dep_fires() {
    let findings = lint_manifest("[package]\nname = \"demo\"\n\n[dependencies]\nserde = \"1.0\"\n");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "offline-deps");
    assert_eq!(findings[0].line, 5);
}

#[test]
fn offline_deps_path_and_workspace_deps_are_clean() {
    let findings = lint_manifest(
        "[dependencies]\n\
         rankfair_core = { path = \"../core\" }\n\
         rankfair_json = { workspace = true }\n\
         \n\
         [dev-dependencies]\n\
         rankfair_synth = { path = \"../synth\" }\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn offline_deps_table_form_needs_path() {
    let bad = lint_manifest("[dependencies.serde]\nversion = \"1.0\"\n");
    assert_eq!(bad.len(), 1);
    let good = lint_manifest("[dependencies.rankfair_core]\npath = \"../core\"\n");
    assert!(good.is_empty(), "{good:?}");
}

// ---- suppression meta-rules -------------------------------------------

#[test]
fn allow_without_reason_is_a_finding() {
    let src = "\
fn handle(req: &[u8]) -> u8 {
    req[0] // lint:allow(panic-path)
}
";
    let a = lint(SERVING, src);
    assert_eq!(rule_lines(&a, "allow-missing-reason"), vec![2]);
    // The reasonless allow suppresses nothing: the finding survives.
    assert_eq!(rule_lines(&a, "panic-path"), vec![2]);
    assert!(a.allows.is_empty());
}

#[test]
fn allow_naming_unknown_or_meta_rule_is_a_finding() {
    let src = "\
fn f() {
    let _ = 0; // lint:allow(bogus-rule) -- typo'd rule id
    let _ = 1; // lint:allow(allow-unused) -- meta rules cannot be suppressed
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "allow-unknown-rule"), vec![2, 3]);
}

#[test]
fn allow_that_suppresses_nothing_is_a_finding() {
    let src = "\
fn f(n: u64) -> u64 {
    n + 1 // lint:allow(lossy-cast) -- stale: the cast this covered was removed
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "allow-unused"), vec![2]);
    assert!(a.allows.is_empty());
}

/// Doc comments *describing* the syntax are prose, not directives.
#[test]
fn doc_comment_mentioning_allow_syntax_is_ignored() {
    let src = "\
/// Suppress with `lint:allow(panic-path) -- reason`.
fn f() {}
";
    assert_clean(&lint(NEUTRAL, src));
}

// ---- interprocedural fixtures -----------------------------------------

use rankfair_lint::analyze_workspace;
use std::collections::BTreeMap;

/// Multi-file fixture driver: a workspace analysis over in-memory
/// `(path, source)` pairs with an open crate-dependency map.
fn lint_ws(files: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(f, s)| (f.to_string(), s.to_string()))
        .collect();
    let wa = analyze_workspace(&owned, &Config::default(), &BTreeMap::new());
    Analysis {
        findings: wa.findings,
        allows: wa.allows,
    }
}

// ---- panic-reachability -----------------------------------------------

/// A panic reachable only through two call hops, crossing a crate
/// boundary: the serving entry calls into core, which calls deeper
/// into core, where the `.unwrap()` lives. The finding lands on the
/// panic site and carries the witness chain.
#[test]
fn panic_reachability_two_hops_fires() {
    let serving = "\
pub fn entry(n: u32) -> u32 {
    first_hop(n)
}
";
    let neutral = "\
pub fn first_hop(n: u32) -> u32 {
    second_hop(n)
}
fn second_hop(n: u32) -> u32 {
    n.checked_add(1).unwrap()
}
";
    let a = lint_ws(&[(SERVING, serving), (NEUTRAL, neutral)]);
    let hits: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "panic-reachability")
        .collect();
    assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(hits[0].file, NEUTRAL);
    assert_eq!(hits[0].line, 5);
    assert!(
        hits[0]
            .message
            .contains("service::entry → core::first_hop → core::second_hop"),
        "chain missing: {}",
        hits[0].message
    );
}

/// A panic in a function nothing on the serving path calls stays a
/// non-finding — reachability, not file lists, decides.
#[test]
fn panic_reachability_unreached_fn_is_clean() {
    let serving = "\
pub fn entry(x: &External) -> u32 {
    x.process_stuff()
}
";
    let neutral = "\
fn lurking() {
    panic!(\"boom\");
}
";
    let a = lint_ws(&[(SERVING, serving), (NEUTRAL, neutral)]);
    assert!(rule_lines(&a, "panic-reachability").is_empty());
}

/// The two documented exemptions hold transitively: lock-poison
/// `.expect(..)` and checked-narrowing `try_from(..).expect(..)` in a
/// reached function are not findings.
#[test]
fn panic_reachability_poison_and_try_from_exempt() {
    let serving = "\
pub fn entry(n: usize, m: &std::sync::Mutex<u32>) -> u32 {
    first_hop(n, m)
}
";
    let neutral = "\
pub fn first_hop(n: usize, m: &std::sync::Mutex<u32>) -> u32 {
    let v = u32::try_from(n).expect(\"bounded by caller\");
    let g = m.lock().expect(\"poisoned\");
    v + *g
}
";
    let a = lint_ws(&[(SERVING, serving), (NEUTRAL, neutral)]);
    assert_clean(&a);
}

/// Suppressing a reachable panic records the allow.
#[test]
fn panic_reachability_suppression_records_allow() {
    let serving = "\
pub fn entry(n: u32) -> u32 {
    deep(n)
}
";
    let neutral = "\
pub fn deep(n: u32) -> u32 {
    // lint:allow(panic-reachability) -- fixture: invariant documented at the call site
    n.checked_add(1).unwrap()
}
";
    let a = lint_ws(&[(SERVING, serving), (NEUTRAL, neutral)]);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].rule, "panic-reachability");
}

// ---- lock-order-cycle -------------------------------------------------

/// The seeded two-lock cycle: one fn takes `a` then `b`, another takes
/// `b` then `a`. One finding, anchored at the first edge site.
#[test]
fn lock_order_two_lock_cycle_fires() {
    let src = "\
fn ab(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
    drop(gb);
    drop(ga);
}
fn ba(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let gb = b.lock().expect(\"b\");
    let ga = a.lock().expect(\"a\");
    drop(ga);
    drop(gb);
}
";
    let a = lint(NEUTRAL, src);
    let lines = rule_lines(&a, "lock-order-cycle");
    assert_eq!(lines, vec![3], "findings: {:?}", a.findings);
    let f = a
        .findings
        .iter()
        .find(|f| f.rule == "lock-order-cycle")
        .unwrap();
    assert!(f.message.contains("`a`") && f.message.contains("`b`"));
}

/// The exact session-lane shape, inverted: `submit` holds `dispatch`
/// and takes `lane.state`; a second path holds `lane.state` and takes
/// `dispatch`. Reintroducing this ordering must fail the lint.
#[test]
fn lock_order_session_lane_shape_fires() {
    let src = "\
impl Exec {
    fn submit(&self) {
        let d = self.dispatch.lock().expect(\"dispatch lock\");
        let st = self.lane.state.lock().expect(\"lane lock\");
        drop(st);
        drop(d);
    }
    fn reap(&self) {
        let st = self.lane.state.lock().expect(\"lane lock\");
        let d = self.dispatch.lock().expect(\"dispatch lock\");
        drop(d);
        drop(st);
    }
}
";
    let a = lint(NEUTRAL, src);
    let f = a
        .findings
        .iter()
        .find(|f| f.rule == "lock-order-cycle")
        .unwrap_or_else(|| panic!("no cycle finding: {:?}", a.findings));
    assert!(f.message.contains("`dispatch`") && f.message.contains("`lane.state`"));
}

/// A consistent acquisition order everywhere is clean.
#[test]
fn lock_order_consistent_order_is_clean() {
    let src = "\
fn one(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
    drop(gb);
    drop(ga);
}
fn two(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
    drop(gb);
    drop(ga);
}
";
    assert_clean(&lint(NEUTRAL, src));
}

/// An explicit `drop(guard)` before the second acquisition removes the
/// edge — the register-then-evict shape in the service registry.
#[test]
fn lock_order_drop_before_second_lock_is_clean() {
    let src = "\
fn seq(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let ga = a.lock().expect(\"a\");
    drop(ga);
    let gb = b.lock().expect(\"b\");
    drop(gb);
}
fn rev(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let gb = b.lock().expect(\"b\");
    let ga = a.lock().expect(\"a\");
    drop(ga);
    drop(gb);
}
";
    assert_clean(&lint(NEUTRAL, src));
}

/// Re-acquiring a lock whose guard is still bound is self-deadlock.
#[test]
fn lock_order_reentrant_acquisition_fires() {
    let src = "\
fn twice(m: &std::sync::Mutex<u32>) {
    let first = m.lock().expect(\"m\");
    let second = m.lock().expect(\"m\");
    drop(second);
    drop(first);
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lock-order-cycle"), vec![3]);
}

/// A callee that re-takes a lock the caller still holds is flagged
/// through the call graph.
#[test]
fn lock_order_reentrant_via_callee_fires() {
    let src = "\
impl Store {
    fn outer(&self) {
        let g = self.table.lock().expect(\"table\");
        let n = *g;
        self.inner(n);
        drop(g);
    }
    fn inner(&self, n: u32) {
        *self.table.lock().expect(\"table\") += n;
    }
}
";
    let a = lint(NEUTRAL, src);
    assert_eq!(rule_lines(&a, "lock-order-cycle"), vec![5]);
}

/// Suppressing the cycle at its anchor line records the allow.
#[test]
fn lock_order_suppression_records_allow() {
    let src = "\
fn ab(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let ga = a.lock().expect(\"a\");
    // lint:allow(lock-order-cycle) -- fixture: demonstrating suppression
    let gb = b.lock().expect(\"b\");
    drop(gb);
    drop(ga);
}
fn ba(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let gb = b.lock().expect(\"b\");
    let ga = a.lock().expect(\"a\");
    drop(ga);
    drop(gb);
}
";
    let a = lint(NEUTRAL, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].rule, "lock-order-cycle");
}

// ---- guard-across-blocking --------------------------------------------

/// A guard held across a channel `recv` on a serving path.
#[test]
fn guard_across_blocking_recv_fires() {
    let src = "\
fn pump(state: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {
    let g = state.lock().expect(\"state lock\");
    let _ = rx.recv();
    drop(g);
}
";
    let a = lint(SERVING, src);
    assert_eq!(rule_lines(&a, "guard-across-blocking"), vec![3]);
}

/// Dropping the guard before blocking is clean.
#[test]
fn guard_across_blocking_drop_first_is_clean() {
    let src = "\
fn pump(state: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {
    let g = state.lock().expect(\"state lock\");
    drop(g);
    let _ = rx.recv();
}
";
    assert_clean(&lint(SERVING, src));
}

/// The seeded condvar shape: waiting while a *second* guard is held.
/// The guard handed to `wait` is the correct protocol and exempt; the
/// outer guard is the hazard.
#[test]
fn guard_across_blocking_wait_under_second_guard_fires() {
    let src = "\
fn gate(
    order: &std::sync::Mutex<u32>,
    state: &std::sync::Mutex<bool>,
    turned: &std::sync::Condvar,
) {
    let outer = order.lock().expect(\"order lock\");
    let st = state.lock().expect(\"state lock\");
    let _ = turned.wait(st);
    drop(outer);
}
";
    let a = lint(SERVING, src);
    let hits: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "guard-across-blocking")
        .collect();
    assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(hits[0].line, 8);
    assert!(hits[0].message.contains("`order`"));
}

/// The correct condvar protocol — only the waited-on guard is held —
/// is clean. This is the session-lane `Claim::wait` shape.
#[test]
fn guard_across_blocking_condvar_protocol_is_clean() {
    let src = "\
fn wait_turn(state: &std::sync::Mutex<bool>, turned: &std::sync::Condvar) {
    let st = state.lock().expect(\"state lock\");
    let _ = turned.wait(st);
}
";
    assert_clean(&lint(SERVING, src));
}

/// A guard held across a *call* to a function that blocks internally
/// is flagged at the call site, naming the callee and its blocking
/// construct.
#[test]
fn guard_across_blocking_via_callee_fires() {
    let src = "\
fn entry(m: &std::sync::Mutex<u32>) {
    let g = m.lock().expect(\"m lock\");
    drain_queue();
    drop(g);
}
fn drain_queue() {
    let (_tx, rx) = std::sync::mpsc::channel::<u32>();
    let _ = rx.recv();
}
";
    let a = lint(SERVING, src);
    let hits: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "guard-across-blocking")
        .collect();
    assert_eq!(hits.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(hits[0].line, 3);
    assert!(hits[0].message.contains("drain_queue"));
}

/// Blocking with no guard held, on a serving path, is clean.
#[test]
fn guard_across_blocking_without_guard_is_clean() {
    let src = "\
fn pump(rx: &std::sync::mpsc::Receiver<u32>) {
    let _ = rx.recv();
}
";
    assert_clean(&lint(SERVING, src));
}

/// Suppression at the blocking line records the allow.
#[test]
fn guard_across_blocking_suppression_records_allow() {
    let src = "\
fn pump(state: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {
    let g = state.lock().expect(\"state lock\");
    // lint:allow(guard-across-blocking) -- fixture: deliberate single-popper pattern
    let _ = rx.recv();
    drop(g);
}
";
    let a = lint(SERVING, src);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1);
    assert_eq!(a.allows[0].rule, "guard-across-blocking");
}

/// `tests/` directory files get the two concurrency rules — a wedged
/// test hangs CI — but none of the panic or cast rules.
#[test]
fn tests_dir_gets_concurrency_rules_only() {
    let src = "\
fn stress(m: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>) {
    let g = m.lock().unwrap();
    let _ = rx.recv();
    drop(g);
    let n = rx.iter().count() as u32;
    assert!(n < u32::MAX);
}
";
    let a = lint("crates/service/tests/stress.rs", src);
    assert_eq!(rule_lines(&a, "guard-across-blocking"), vec![3]);
    assert!(rule_lines(&a, "panic-path").is_empty());
    assert!(rule_lines(&a, "panic-reachability").is_empty());
    assert!(rule_lines(&a, "lossy-cast").is_empty());
}

// ---- serving-path-config ----------------------------------------------

/// The drift meta-check: a configured file that was not scanned, and a
/// new service source file missing from the configuration, both fail.
#[test]
fn serving_path_config_detects_drift() {
    let cfg = Config::default();
    let scanned: Vec<String> = cfg.panic_path_files.clone();
    assert!(rankfair_lint::serving_path_config(&cfg, &scanned).is_empty());

    let mut missing = scanned.clone();
    let dropped = missing.remove(0);
    let out = rankfair_lint::serving_path_config(&cfg, &missing);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "serving-path-config");
    assert!(out[0].message.contains(&dropped));

    let mut extra = scanned.clone();
    extra.push("crates/service/src/metrics.rs".to_string());
    let out = rankfair_lint::serving_path_config(&cfg, &extra);
    assert_eq!(out.len(), 1);
    assert!(out[0].message.contains("metrics.rs"));

    // Nested modules and test files under the service crate are not
    // serving entry files and must not trip the check.
    let mut nested = scanned.clone();
    nested.push("crates/service/src/wire/frames.rs".to_string());
    nested.push("crates/service/tests/robustness.rs".to_string());
    assert!(rankfair_lint::serving_path_config(&cfg, &nested).is_empty());
}
