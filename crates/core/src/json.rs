//! JSON encodings of the report and error types, for the wire protocol of
//! `rankfair_service` and the CLI's `--format json`.
//!
//! Every encoding is a plain data mapping — deterministic field order,
//! integral counts as JSON integers, durations in fractional milliseconds
//! — so responses can be diffed byte-for-byte in golden tests. Patterns
//! are encoded twice over: as the human-readable `{Attr=value}` display
//! string and as structured `attr → value-label` terms, so wire consumers
//! never need to re-parse the display form.
//!
//! Reports and deltas carry patterns, and consecutive top-`k` sets differ
//! by one tuple (Proposition 4.3), so the same few groups recur at `k`
//! after `k`. Their encoders therefore write JSON text straight into one
//! `String` through `rankfair_json`'s [`write_string`] and
//! [`write_number`], the primitives [`Value::render`] writes with, and
//! hand it over as a pre-rendered [`Value::Raw`]: the bytes equal the
//! tree encoding's by construction, a pattern's `{"group":…,"terms":{…}`
//! fragment is written once per call, and each report row adds only its
//! numbers. The small, fixed-shape encodings below build [`Value`] trees.

use rankfair_data::{Dataset, RowValue};
use rankfair_json::{write_number, write_string, ToJson, Value};

use crate::audit::{AuditError, AuditTask, OverRepScope};
use crate::bounds::{BiasMeasure, Bounds};
use crate::monitor::{DeltaReport, MonitorError, RankingEdit};
use crate::pattern::Pattern;
use crate::report::KReport;
use crate::space::PatternSpace;
use crate::stats::SearchStats;
use crate::util::FxHashMap;

/// Writes the open object `{"group":display,"terms":{"Attr":"label",…}`
/// of pattern `p`: its display string, then its terms in attribute order,
/// resolved against `space`. The caller writes the remaining members and
/// the closing brace.
fn write_pattern_head(display: &str, p: &Pattern, space: &PatternSpace, out: &mut String) {
    out.push_str("{\"group\":");
    write_string(display, out);
    out.push_str(",\"terms\":{");
    for (i, &(attr, code)) in p.terms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(space.attr_name(attr), out);
        out.push(':');
        write_string(space.label(attr, code), out);
    }
    out.push('}');
}

impl ToJson for SearchStats {
    fn to_json(&self) -> Value {
        Value::object([
            ("nodes_evaluated", Value::from(self.nodes_evaluated)),
            ("nodes_touched", Value::from(self.nodes_touched)),
            ("schedule_pops", Value::from(self.schedule_pops)),
            ("full_searches", Value::from(self.full_searches)),
            ("patterns_examined", Value::from(self.patterns_examined())),
            (
                "elapsed_ms",
                Value::from(self.elapsed.as_secs_f64() * 1000.0),
            ),
            ("timed_out", Value::from(self.timed_out)),
        ])
    }
}

impl ToJson for Bounds {
    fn to_json(&self) -> Value {
        match self {
            Bounds::Constant(l) => Value::from(*l),
            Bounds::Steps(pairs) => Value::object([(
                "steps",
                Value::array(
                    pairs
                        .iter()
                        .map(|&(k, b)| Value::array(vec![Value::from(k), Value::from(b)]))
                        .collect(),
                ),
            )]),
            Bounds::LinearFraction(f) => Value::object([("fraction", Value::from(*f))]),
        }
    }
}

impl ToJson for AuditTask {
    fn to_json(&self) -> Value {
        match self {
            AuditTask::UnderRep(BiasMeasure::GlobalLower(b)) => Value::object([
                ("type", Value::from("under")),
                (
                    "measure",
                    Value::object([("type", Value::from("global")), ("lower", b.to_json())]),
                ),
            ]),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha }) => Value::object([
                ("type", Value::from("under")),
                (
                    "measure",
                    Value::object([
                        ("type", Value::from("proportional")),
                        ("alpha", Value::from(*alpha)),
                    ]),
                ),
            ]),
            AuditTask::OverRep { upper, scope } => Value::object([
                ("type", Value::from("over")),
                ("upper", upper.to_json()),
                (
                    "scope",
                    Value::from(match scope {
                        OverRepScope::MostSpecific => "specific",
                        OverRepScope::MostGeneral => "general",
                    }),
                ),
            ]),
            AuditTask::Combined { lower, upper } => Value::object([
                ("type", Value::from("combined")),
                ("lower", lower.to_json()),
                ("upper", upper.to_json()),
            ]),
        }
    }
}

impl ToJson for AuditError {
    fn to_json(&self) -> Value {
        let kind = match self {
            AuditError::Space(_) => "space",
            AuditError::MissingRanking => "missing_ranking",
            AuditError::RankingMismatch { .. } => "ranking_mismatch",
            AuditError::InvalidKRange { .. } => "invalid_k_range",
            AuditError::InvalidAlpha(_) => "invalid_alpha",
            AuditError::InvalidBound(_) => "invalid_bound",
            AuditError::Prepare(_) => "prepare",
        };
        Value::object([
            ("kind", Value::from(kind)),
            ("message", Value::from(self.to_string())),
        ])
    }
}

/// Per-`k` reports as `[{"k":…,"groups":[…]},…]`, each group
/// `{"group","terms","direction","size_in_data","size_in_topk",
/// "required","bias_gap"}`: its display string, its attribute → label
/// terms, and its row. The full-fidelity encoding the service responds
/// with.
///
/// Returned as one pre-rendered [`Value::Raw`], written in a single pass:
/// each distinct pattern's `{"group":…,"terms":{…}` fragment is written
/// once per call and copied at every further row, keyed by the pattern's
/// terms (two distinct patterns may share a display string when a label
/// holds `", "` or `"="`). The text is what a tree of the same members
/// would render, so nest it in any [`Value`] and `render` as usual.
pub fn reports_json(reports: &[KReport], space: &PatternSpace) -> Value {
    let mut heads: FxHashMap<&Pattern, String> = FxHashMap::default();
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"k\":");
        write_number(r.k as f64, &mut out);
        out.push_str(",\"groups\":[");
        for (j, g) in r.groups.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let head = heads.entry(&g.pattern).or_insert_with(|| {
                let mut head = String::new();
                write_pattern_head(&g.display, &g.pattern, space, &mut head);
                head
            });
            out.push_str(head);
            out.push_str(",\"direction\":");
            write_string(g.direction.as_str(), &mut out);
            out.push_str(",\"size_in_data\":");
            write_number(g.size_in_data as f64, &mut out);
            out.push_str(",\"size_in_topk\":");
            write_number(g.size_in_topk as f64, &mut out);
            out.push_str(",\"required\":");
            write_number(g.required, &mut out);
            out.push_str(",\"bias_gap\":");
            write_number(g.bias_gap, &mut out);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
    Value::Raw(out)
}

/// Parses one ranking edit. Two shapes, strict (unknown members are
/// errors, like the rest of the wire protocol):
///
/// * `{"edit": "score", "row": N, "score": X}` — re-score a tuple;
/// * `{"edit": "insert", "cells": {column: value, …}}` — append a tuple.
///   Cells are keyed by column name and must cover **every** dataset
///   column exactly once; strings become categorical labels, numbers
///   numeric values.
///
/// The dataset is needed to resolve cell order and column kinds.
pub fn edit_from_json(v: &Value, ds: &Dataset) -> Result<RankingEdit, String> {
    let Some(pairs) = v.as_obj() else {
        return Err("edit must be a JSON object".to_string());
    };
    let kind = v
        .get("edit")
        .and_then(Value::as_str)
        .ok_or("`edit` must be \"score\" or \"insert\"")?;
    match kind {
        "score" => {
            reject_unknown_members(pairs, &["edit", "row", "score"], "score edit")?;
            let row = v
                .get("row")
                .and_then(Value::as_usize)
                .ok_or("`row` (non-negative integer) is required")?;
            // A bare `as u32` would wrap ids past u32::MAX and silently
            // re-score the wrong tuple.
            let row =
                u32::try_from(row).map_err(|_| format!("row {row} does not fit a TupleId"))?;
            let score = v
                .get("score")
                .and_then(Value::as_f64)
                .ok_or("`score` (number) is required")?;
            Ok(RankingEdit::ScoreUpdate { row, score })
        }
        "insert" => {
            reject_unknown_members(pairs, &["edit", "cells"], "insert edit")?;
            let cells_obj = v
                .get("cells")
                .and_then(Value::as_obj)
                .ok_or("`cells` (object of column → value) is required")?;
            let mut cells = Vec::with_capacity(ds.n_cols());
            for col in ds.columns() {
                let cell = cells_obj
                    .iter()
                    .find(|(k, _)| k == col.name())
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("insert is missing a cell for `{}`", col.name()))?;
                cells.push(match cell {
                    Value::Str(s) => RowValue::Label(s.clone()),
                    Value::Num(n) => RowValue::Number(*n),
                    _ => {
                        return Err(format!(
                            "cell `{}` must be a string label or a number",
                            col.name()
                        ))
                    }
                });
            }
            for (key, _) in cells_obj {
                if ds.column_index(key).is_none() {
                    return Err(format!("insert cell `{key}` names no dataset column"));
                }
            }
            Ok(RankingEdit::Insert { cells })
        }
        other => Err(format!("unknown edit kind `{other}`")),
    }
}

/// Member-allowlist check shared by the edit shapes — the core-side
/// counterpart of the wire layer's `reject_unknown`, so misspelled or
/// smuggled members fail loudly instead of being silently ignored.
fn reject_unknown_members(
    pairs: &[(String, Value)],
    allowed: &[&str],
    context: &str,
) -> Result<(), String> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown member `{key}` in {context}"));
        }
    }
    Ok(())
}

/// Parses an array of ranking edits (one `update` batch).
pub fn edits_from_json(v: &Value, ds: &Dataset) -> Result<Vec<RankingEdit>, String> {
    let items = v.as_arr().ok_or("`edits` must be an array")?;
    items.iter().map(|e| edit_from_json(e, ds)).collect()
}

/// Encodes a [`DeltaReport`] — which groups entered/left the biased sets
/// at which `k` — with patterns resolved against `space`. `strip_timing`
/// zeroes the wall clock for byte-deterministic transcripts. Its
/// `changed` member is pre-rendered ([`Value::Raw`]), its patterns
/// written with the same fragment code as [`reports_json`]'s.
pub fn delta_report_json(d: &DeltaReport, space: &PatternSpace, strip_timing: bool) -> Value {
    let mut stats = d.stats.clone();
    if strip_timing {
        stats.elapsed = std::time::Duration::ZERO;
    }
    Value::object([
        ("edits", Value::from(d.edits)),
        (
            "recomputed",
            match d.recomputed {
                Some((lo, hi)) => Value::array(vec![Value::from(lo), Value::from(hi)]),
                None => Value::Null,
            },
        ),
        (
            "segments",
            Value::array(
                d.segments
                    .iter()
                    .map(|&(lo, hi)| Value::array(vec![Value::from(lo), Value::from(hi)]))
                    .collect(),
            ),
        ),
        ("total_changes", Value::from(d.total_changes())),
        ("changed", changed_json(d, space)),
        ("stats", stats.to_json()),
    ])
}

/// `changed` of [`delta_report_json`]: `[{"k":…,"entered_under":[…],
/// "left_under":[…],"entered_over":[…],"left_over":[…]},…]`.
fn changed_json(d: &DeltaReport, space: &PatternSpace) -> Value {
    let mut out = String::from("[");
    for (i, kd) in d.changed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"k\":");
        write_number(kd.k as f64, &mut out);
        for (key, patterns) in [
            ("entered_under", &kd.entered_under),
            ("left_under", &kd.left_under),
            ("entered_over", &kd.entered_over),
            ("left_over", &kd.left_over),
        ] {
            out.push(',');
            write_string(key, &mut out);
            out.push_str(":[");
            for (j, p) in patterns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_pattern_head(&space.display(p), p, space, &mut out);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
    Value::Raw(out)
}

impl ToJson for crate::monitor::CheckpointStats {
    fn to_json(&self) -> Value {
        Value::object([
            ("cadence", Value::from(self.cadence)),
            ("lower", Value::from(self.lower_checkpoints)),
            ("upper", Value::from(self.upper_checkpoints)),
            ("stored_nodes", Value::from(self.stored_nodes)),
            ("arena_nodes", Value::from(self.arena_nodes)),
            ("seeks", Value::from(self.seeks as usize)),
            ("cold_builds", Value::from(self.cold_builds as usize)),
            ("repairs", Value::from(self.repairs as usize)),
            ("replayed_steps", Value::from(self.replayed_steps as usize)),
            (
                "prefix_recounts",
                Value::from(self.prefix_recounts as usize),
            ),
            ("segments", Value::from(self.segments as usize)),
            ("invalidated", Value::from(self.invalidated as usize)),
        ])
    }
}

impl ToJson for MonitorError {
    fn to_json(&self) -> Value {
        // Audit errors keep their own kind taxonomy; monitor-specific
        // failures get their own kinds.
        let kind = match self {
            MonitorError::Audit(a) => return a.to_json(),
            MonitorError::ScoreColumn(_) => "score_column",
            MonitorError::UnknownRow { .. } => "unknown_row",
            MonitorError::UnknownLabel { .. } => "unknown_label",
            MonitorError::BadEdit(_) => "bad_edit",
            MonitorError::DeadlineUnsupported => "deadline_unsupported",
        };
        Value::object([
            ("kind", Value::from(kind)),
            ("message", Value::from(self.to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{Audit, AuditTask};
    use crate::bounds::{BiasMeasure, Bounds};
    use crate::report::{BiasDirection, BiasedGroup};
    use crate::stats::DetectConfig;
    use crate::Engine;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_json::parse;
    use rankfair_rank::Ranking;
    use std::sync::Arc;

    // The tree encoders the writers replaced, kept as their reference:
    // every writer output must render to the same bytes.

    fn tree_pattern_terms_json(p: &Pattern, space: &PatternSpace) -> Value {
        Value::Obj(
            p.terms()
                .iter()
                .map(|&(attr, code)| {
                    (
                        space.attr_name(attr).to_string(),
                        Value::from(space.label(attr, code)),
                    )
                })
                .collect(),
        )
    }

    fn tree_group_json(g: &BiasedGroup) -> Value {
        Value::object([
            ("group", Value::from(g.display.as_str())),
            ("direction", Value::from(g.direction.as_str())),
            ("size_in_data", Value::from(g.size_in_data)),
            ("size_in_topk", Value::from(g.size_in_topk)),
            ("required", Value::from(g.required)),
            ("bias_gap", Value::from(g.bias_gap)),
        ])
    }

    fn tree_reports_json(reports: &[KReport], space: &PatternSpace) -> Value {
        Value::array(
            reports
                .iter()
                .map(|r| {
                    Value::object([
                        ("k", Value::from(r.k)),
                        (
                            "groups",
                            Value::array(
                                r.groups
                                    .iter()
                                    .map(|g| {
                                        let mut encoded = tree_group_json(g);
                                        if let Value::Obj(pairs) = &mut encoded {
                                            pairs.insert(
                                                1,
                                                (
                                                    "terms".to_string(),
                                                    tree_pattern_terms_json(&g.pattern, space),
                                                ),
                                            );
                                        }
                                        encoded
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn tree_patterns_json(patterns: &[Pattern], space: &PatternSpace) -> Value {
        Value::array(
            patterns
                .iter()
                .map(|p| {
                    Value::object([
                        ("group", Value::from(space.display(p))),
                        ("terms", tree_pattern_terms_json(p, space)),
                    ])
                })
                .collect(),
        )
    }

    fn tree_delta_report_json(d: &DeltaReport, space: &PatternSpace, strip_timing: bool) -> Value {
        let mut stats = d.stats.clone();
        if strip_timing {
            stats.elapsed = std::time::Duration::ZERO;
        }
        Value::object([
            ("edits", Value::from(d.edits)),
            (
                "recomputed",
                match d.recomputed {
                    Some((lo, hi)) => Value::array(vec![Value::from(lo), Value::from(hi)]),
                    None => Value::Null,
                },
            ),
            (
                "segments",
                Value::array(
                    d.segments
                        .iter()
                        .map(|&(lo, hi)| Value::array(vec![Value::from(lo), Value::from(hi)]))
                        .collect(),
                ),
            ),
            ("total_changes", Value::from(d.total_changes())),
            (
                "changed",
                Value::array(
                    d.changed
                        .iter()
                        .map(|kd| {
                            Value::object([
                                ("k", Value::from(kd.k)),
                                (
                                    "entered_under",
                                    tree_patterns_json(&kd.entered_under, space),
                                ),
                                ("left_under", tree_patterns_json(&kd.left_under, space)),
                                ("entered_over", tree_patterns_json(&kd.entered_over, space)),
                                ("left_over", tree_patterns_json(&kd.left_over, space)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats", stats.to_json()),
        ])
    }

    /// The writer's bytes equal the tree's; returns the row count.
    fn assert_reports_match_the_tree(reports: &[KReport], space: &PatternSpace) -> usize {
        assert_eq!(
            reports_json(reports, space).render(),
            tree_reports_json(reports, space).render()
        );
        reports.iter().map(|r| r.groups.len()).sum()
    }

    /// One row of `p` at `k`, its display from `space`.
    fn row(space: &PatternSpace, p: &Pattern, direction: BiasDirection, k: usize) -> BiasedGroup {
        BiasedGroup {
            pattern: p.clone(),
            display: space.display(p),
            direction,
            size_in_data: 7 + k,
            size_in_topk: k / 2,
            required: k as f64 / 3.0,
            bias_gap: k as f64 / 3.0 - (k / 2) as f64,
        }
    }

    #[test]
    fn reports_encode_and_round_trip_through_text() {
        let audit = Audit::builder(Arc::new(students_fig1()))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap();
        let cfg = DetectConfig::new(4, 4, 5);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let reports = audit.report(&out, &task);
        let v = reports_json(&reports, audit.space());
        let parsed = parse(&v.render()).unwrap();
        assert_eq!(parsed, tree_reports_json(&reports, audit.space()));
        let k4 = &parsed.as_arr().unwrap()[0];
        assert_eq!(k4.get("k").unwrap().as_usize(), Some(4));
        let groups = k4.get("groups").unwrap().as_arr().unwrap();
        let gp = groups
            .iter()
            .find(|g| g.get("group").unwrap().as_str() == Some("{School=GP}"))
            .expect("GP group present");
        assert_eq!(gp.get("size_in_data").unwrap().as_usize(), Some(8));
        assert_eq!(gp.get("direction").unwrap().as_str(), Some("under"));
        assert_eq!(
            gp.get("terms").unwrap().get("School").unwrap().as_str(),
            Some("GP")
        );
    }

    /// Fig. 1 and seeded random instances under every task: GlobalBounds
    /// and proportional (fractional `required`) under-representation,
    /// over-representation at both scopes, and both directions at once.
    #[test]
    fn report_writer_matches_the_tree_on_fig1_and_random_instances() {
        let lower = Bounds::steps(vec![(10, 3), (25, 7)]);
        let upper = Bounds::steps(vec![(10, 4), (25, 9)]);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(lower.clone())),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: upper.clone(),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: upper.clone(),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined { lower, upper },
        ];
        let fig1 = Audit::builder(Arc::new(students_fig1()))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap();
        let fig1_tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(2),
            },
        ];
        for task in &fig1_tasks {
            let out = fig1.run(&DetectConfig::new(4, 4, 5), task, Engine::Optimized);
            let rows =
                assert_reports_match_the_tree(&fig1.report(&out.unwrap(), task), fig1.space());
            assert!(rows > 0, "{task:?}");
        }
        let spec = rankfair_synth::RandomSpec {
            rows: 300,
            attrs: 5,
            max_card: 4,
        };
        let (mut fractional, mut both_directions) = (false, false);
        for seed in [2701, 2702, 2703] {
            let audit = Audit::builder(Arc::new(rankfair_synth::random_dataset(seed, spec)))
                .ranking(
                    Ranking::from_order(rankfair_synth::random_ranking(seed, spec.rows)).unwrap(),
                )
                .build()
                .unwrap();
            for task in &tasks {
                let out = audit.run(&DetectConfig::new(10, 10, 40), task, Engine::Optimized);
                let reports = audit.report(&out.unwrap(), task);
                let rows = assert_reports_match_the_tree(&reports, audit.space());
                assert!(rows > 0, "seed {seed}: {task:?}");
                fractional |= reports
                    .iter()
                    .flat_map(|r| &r.groups)
                    .any(|g| g.required.fract() != 0.0);
                both_directions |= reports.iter().any(|r| {
                    let has = |d| r.groups.iter().any(|g| g.direction == d);
                    has(BiasDirection::Under) && has(BiasDirection::Over)
                });
            }
        }
        assert!(fractional, "no proportional row had a fractional bound");
        assert!(both_directions, "no k reported both directions");
    }

    /// Attribute names and labels that need escapes (`"`, `\`, a line
    /// break, U+0001) or hold non-ASCII, alone and combined, with a
    /// non-finite gap, which both encodings write as `null`.
    #[test]
    fn report_writer_escapes_names_and_labels_like_the_tree() {
        let ds = rankfair_data::Dataset::builder()
            .categorical_from_str("qu\"ote\\", &["a\"b", "c\\d", "a\"b"])
            .categorical_from_str("line\nbreak\u{1}", &["\u{1}x\n", "ü λ 🦀", "\t\r"])
            .build()
            .unwrap();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let mut patterns = Vec::new();
        for a in ["qu\"ote\\"] {
            for v in ["a\"b", "c\\d"] {
                patterns.push(space.pattern(&[(a, v)]).unwrap());
                for w in ["\u{1}x\n", "ü λ 🦀", "\t\r"] {
                    patterns.push(space.pattern(&[(a, v), ("line\nbreak\u{1}", w)]).unwrap());
                }
            }
        }
        let mut groups: Vec<BiasedGroup> = patterns
            .iter()
            .map(|p| row(&space, p, BiasDirection::Over, 3))
            .collect();
        groups[0].bias_gap = f64::NAN;
        let reports = vec![
            KReport { k: 3, groups },
            KReport {
                k: 4,
                groups: patterns
                    .iter()
                    .rev()
                    .map(|p| row(&space, p, BiasDirection::Under, 4))
                    .collect(),
            },
        ];
        assert_eq!(assert_reports_match_the_tree(&reports, &space), 16);
        assert!(reports_json(&reports, &space)
            .render()
            .contains("\"bias_gap\":null"));
    }

    /// Two distinct patterns share the display string `{A=x, B=y}` (a
    /// label holding `", "`), and two share `{A=x=1}` (a name and a label
    /// holding `"="`): a memo keyed by display would write one's terms
    /// for the other.
    #[test]
    fn report_writer_keeps_patterns_with_one_display_string_apart() {
        let ds = rankfair_data::Dataset::builder()
            .categorical_from_str("A", &["x", "x, B=y", "x=1"])
            .categorical_from_str("B", &["y", "z", "y"])
            .categorical_from_str("A=x", &["1", "2", "1"])
            .build()
            .unwrap();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let pairs: [&[(&str, &str)]; 4] = [
            &[("A", "x, B=y")],
            &[("A", "x"), ("B", "y")],
            &[("A", "x=1")],
            &[("A=x", "1")],
        ];
        let patterns: Vec<Pattern> = pairs.iter().map(|t| space.pattern(t).unwrap()).collect();
        assert_eq!(space.display(&patterns[0]), space.display(&patterns[1]));
        assert_eq!(space.display(&patterns[2]), space.display(&patterns[3]));
        let at = |k: usize, order: &[usize]| KReport {
            k,
            groups: order
                .iter()
                .map(|&i| row(&space, &patterns[i], BiasDirection::Under, k))
                .collect(),
        };
        let reports = vec![at(2, &[0, 1, 2, 3]), at(3, &[3, 2, 1, 0]), at(4, &[1, 3])];
        assert_eq!(assert_reports_match_the_tree(&reports, &space), 10);
        let parsed = parse(&reports_json(&reports, &space).render()).unwrap();
        let terms = |k: usize, j: usize| {
            parsed.as_arr().unwrap()[k]
                .get("groups")
                .unwrap()
                .as_arr()
                .unwrap()[j]
                .get("terms")
                .unwrap()
                .clone()
        };
        assert_eq!(terms(0, 0), tree_pattern_terms_json(&patterns[0], &space));
        assert_eq!(terms(1, 2), tree_pattern_terms_json(&patterns[1], &space));
        assert_ne!(terms(0, 0), terms(0, 1));
        assert_ne!(terms(0, 2), terms(0, 3));
    }

    #[test]
    fn report_writer_renders_empty_reports_like_the_tree() {
        let space = PatternSpace::from_dataset(&students_fig1()).unwrap();
        assert_eq!(assert_reports_match_the_tree(&[], &space), 0);
        assert_eq!(reports_json(&[], &space).render(), "[]");
        let empty = [KReport {
            k: 3,
            groups: Vec::new(),
        }];
        assert_eq!(assert_reports_match_the_tree(&empty, &space), 0);
        assert_eq!(
            reports_json(&empty, &space).render(),
            r#"[{"k":3,"groups":[]}]"#
        );
    }

    /// Deltas of a live monitor under both directions, rendered with the
    /// wall clock kept and stripped.
    #[test]
    fn delta_writer_matches_the_tree_with_and_without_timing() {
        use crate::monitor::{MonitorAudit, RankingEdit};
        let rows = 200;
        let spec = rankfair_synth::RandomSpec {
            rows,
            attrs: 4,
            max_card: 3,
        };
        let mut ds = rankfair_synth::random_dataset(7, spec);
        let scores: Vec<f64> = (0..rows).map(|r| ((r * 37) % rows) as f64).collect();
        ds.push_column(rankfair_data::Column::numeric("score", scores))
            .unwrap();
        let task = AuditTask::Combined {
            lower: Bounds::steps(vec![(10, 2), (30, 5)]),
            upper: Bounds::steps(vec![(10, 6), (30, 14)]),
        };
        let mut monitor = MonitorAudit::builder(ds, "score")
            .build(DetectConfig::new(8, 10, 40), task, Engine::Optimized)
            .unwrap();
        let (mut entered, mut left) = (0, 0);
        for (pos, to) in [(20, 21), (35, 12), (5, 45), (44, 2), (30, 31)] {
            let row = monitor.ranking().at(pos);
            let score = monitor
                .dataset()
                .column_by_name("score")
                .unwrap()
                .values()
                .unwrap()[monitor.ranking().at(to) as usize]
                + 0.5;
            let delta = monitor
                .apply(&[RankingEdit::ScoreUpdate { row, score }])
                .unwrap();
            for strip_timing in [true, false] {
                assert_eq!(
                    delta_report_json(&delta, monitor.space(), strip_timing).render(),
                    tree_delta_report_json(&delta, monitor.space(), strip_timing).render(),
                    "strip_timing {strip_timing}"
                );
            }
            for kd in &delta.changed {
                entered += kd.entered_under.len() + kd.entered_over.len();
                left += kd.left_under.len() + kd.left_over.len();
            }
        }
        assert!(entered > 0 && left > 0, "entered {entered}, left {left}");
    }

    #[test]
    fn edits_parse_strictly_and_delta_reports_encode() {
        use crate::monitor::{MonitorAudit, MonitorError, RankingEdit};
        use crate::Engine;
        let ds = students_fig1();
        let score = parse(r#"{"edit": "score", "row": 3, "score": 17.5}"#).unwrap();
        assert_eq!(
            edit_from_json(&score, &ds).unwrap(),
            RankingEdit::ScoreUpdate {
                row: 3,
                score: 17.5
            }
        );
        let insert = parse(concat!(
            r#"{"edit": "insert", "cells": {"Gender": "F", "School": "GP", "#,
            r#""Address": "U", "Failures": "0", "Grade": 11.5}}"#
        ))
        .unwrap();
        let edit = edit_from_json(&insert, &ds).unwrap();
        assert!(matches!(&edit, RankingEdit::Insert { cells } if cells.len() == 5));
        // Strictness: unknown members, missing/extra/ill-typed cells.
        for bad in [
            r#"{"edit": "score", "row": 1}"#,
            r#"{"edit": "score", "row": 1, "score": 2, "sco": 3}"#,
            r#"{"edit": "teleport", "row": 1}"#,
            r#"{"row": 1, "score": 2}"#,
            r#"{"edit": "insert", "cells": {"Gender": "F"}}"#,
            r#"{"edit": "insert", "cells": {"Gender": "F", "School": "GP", "Address": "U", "Failures": "0", "Grade": 11.5, "Extra": 1}}"#,
            r#"{"edit": "insert", "cells": {"Gender": true, "School": "GP", "Address": "U", "Failures": "0", "Grade": 11.5}}"#,
            r#"{"edit": "insert"}"#,
            r#"[1]"#,
        ] {
            assert!(
                edit_from_json(&parse(bad).unwrap(), &ds).is_err(),
                "accepted {bad}"
            );
        }
        // A real delta report round-trips through text.
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let mut monitor = MonitorAudit::builder(ds, "Grade")
            .build(crate::DetectConfig::new(2, 2, 16), task, Engine::Optimized)
            .unwrap();
        let bottom = monitor.ranking().at(15);
        let delta = monitor
            .apply(&[RankingEdit::ScoreUpdate {
                row: bottom,
                score: 19.9,
            }])
            .unwrap();
        let v = delta_report_json(&delta, monitor.space(), true);
        let parsed = parse(&v.render()).unwrap();
        assert_eq!(
            parsed,
            tree_delta_report_json(&delta, monitor.space(), true)
        );
        assert_eq!(v.get("edits").unwrap().as_usize(), Some(1));
        assert!(v.get("recomputed").unwrap().as_arr().is_some());
        // The replayed segments mirror the report (outer bounds =
        // recomputed hull).
        let segs = v.get("segments").unwrap().as_arr().unwrap();
        assert!(!segs.is_empty());
        assert_eq!(
            v.get("stats").unwrap().get("elapsed_ms").unwrap().as_f64(),
            Some(0.0)
        );
        // Monitor errors carry kinds.
        let e = MonitorError::UnknownRow { row: 9, n: 5 };
        assert_eq!(
            e.to_json().get("kind").unwrap().as_str(),
            Some("unknown_row")
        );
    }

    #[test]
    fn stats_and_errors_encode() {
        let stats = SearchStats {
            nodes_evaluated: 7,
            nodes_touched: 3,
            ..SearchStats::default()
        };
        let v = stats.to_json();
        assert_eq!(v.get("patterns_examined").unwrap().as_usize(), Some(10));
        assert_eq!(v.get("timed_out").unwrap().as_bool(), Some(false));

        let e = AuditError::InvalidKRange {
            k_min: 2,
            k_max: 20,
            n: 16,
        };
        let v = e.to_json();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("invalid_k_range"));
        assert!(v.get("message").unwrap().as_str().unwrap().contains("20"));
    }
}
