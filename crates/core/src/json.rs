//! JSON encodings of the report and error types, for the wire protocol of
//! `rankfair_service` and the CLI's `--format json`.
//!
//! Every encoding is a plain data mapping — deterministic field order,
//! integral counts as JSON integers, durations in fractional milliseconds
//! — so responses can be diffed byte-for-byte in golden tests. Patterns
//! are encoded twice over: as the human-readable `{Attr=value}` display
//! string and as structured `attr → value-label` terms, so wire consumers
//! never need to re-parse the display form.

use rankfair_data::{Dataset, RowValue};
use rankfair_json::{ToJson, Value};

use crate::audit::{AuditError, AuditTask, OverRepScope};
use crate::bounds::{BiasMeasure, Bounds};
use crate::monitor::{DeltaReport, MonitorError, RankingEdit};
use crate::pattern::Pattern;
use crate::report::{BiasedGroup, KReport};
use crate::space::PatternSpace;
use crate::stats::SearchStats;

/// Encodes a pattern as structured terms: `{"Attr": "label", …}` in
/// attribute order, resolved against `space`.
pub fn pattern_terms_json(p: &Pattern, space: &PatternSpace) -> Value {
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

impl ToJson for BiasedGroup {
    fn to_json(&self) -> Value {
        Value::object([
            ("group", Value::from(self.display.as_str())),
            ("direction", Value::from(self.direction.as_str())),
            ("size_in_data", Value::from(self.size_in_data)),
            ("size_in_topk", Value::from(self.size_in_topk)),
            ("required", Value::from(self.required)),
            ("bias_gap", Value::from(self.bias_gap)),
        ])
    }
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

/// Per-`k` reports as `{"k", "groups"}` objects, each group its
/// [`BiasedGroup`] encoding with a `terms` member (the pattern's
/// attribute → label pairs) inserted second. The full-fidelity encoding
/// the service responds with.
pub fn reports_json(reports: &[KReport], space: &PatternSpace) -> Value {
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
                                    // BiasedGroup encodes as an object;
                                    // anything else passes through
                                    // un-enriched rather than panicking.
                                    let mut encoded = g.to_json();
                                    if let Value::Obj(pairs) = &mut encoded {
                                        pairs.insert(
                                            1,
                                            (
                                                "terms".to_string(),
                                                pattern_terms_json(&g.pattern, space),
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

fn patterns_json(patterns: &[Pattern], space: &PatternSpace) -> Value {
    Value::array(
        patterns
            .iter()
            .map(|p| {
                Value::object([
                    ("group", Value::from(space.display(p))),
                    ("terms", pattern_terms_json(p, space)),
                ])
            })
            .collect(),
    )
}

/// Encodes a [`DeltaReport`] — which groups entered/left the biased sets
/// at which `k` — with patterns resolved against `space`. `strip_timing`
/// zeroes the wall clock for byte-deterministic transcripts.
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
        (
            "changed",
            Value::array(
                d.changed
                    .iter()
                    .map(|kd| {
                        Value::object([
                            ("k", Value::from(kd.k)),
                            ("entered_under", patterns_json(&kd.entered_under, space)),
                            ("left_under", patterns_json(&kd.left_under, space)),
                            ("entered_over", patterns_json(&kd.entered_over, space)),
                            ("left_over", patterns_json(&kd.left_over, space)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("stats", stats.to_json()),
    ])
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
    use crate::stats::DetectConfig;
    use crate::Engine;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_json::parse;
    use rankfair_rank::Ranking;
    use std::sync::Arc;

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
        assert_eq!(parsed, v);
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
        assert_eq!(parsed, v);
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
