//! Result presentation: enriching detected patterns with sizes, bounds and
//! bias gaps, and rendering the per-`k` report the paper sketches in §III
//! (“a user-friendly interface would organize the output by k value and
//! rank the groups by their overall size in the data or by the bias in
//! their representation”).

use rankfair_data::csv::quote_field;

use crate::audit::{AuditKResult, AuditTask};
use crate::pattern::Pattern;
use crate::space::{PatternSpace, RankedIndex};
use crate::util::FxHashMap;

/// Which bound a reported group violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasDirection {
    /// Below the lower bound: fewer top-`k` seats than required.
    Under,
    /// Above the upper bound: more top-`k` seats than allowed.
    Over,
}

impl BiasDirection {
    /// Short display form (`under` / `over`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BiasDirection::Under => "under",
            BiasDirection::Over => "over",
        }
    }
}

/// A detected group enriched for display.
#[derive(Debug, Clone)]
pub struct BiasedGroup {
    /// The pattern describing the group.
    pub pattern: Pattern,
    /// `{Attr=value, …}` rendering.
    pub display: String,
    /// Which bound the group violates.
    pub direction: BiasDirection,
    /// Group size in the data, `s_D(p)`.
    pub size_in_data: usize,
    /// Group size in the top-`k`, `s_Rk(p)`.
    pub size_in_topk: usize,
    /// Required representation at this `k`: the minimum for
    /// [`BiasDirection::Under`], the allowed maximum for
    /// [`BiasDirection::Over`].
    pub required: f64,
    /// Bias magnitude, positive in the violating direction:
    /// `required − actual` for under-representation, `actual − required`
    /// for over-representation.
    pub bias_gap: f64,
}

/// All detected groups for one `k`, sorted by descending bias gap.
#[derive(Debug, Clone)]
pub struct KReport {
    /// The `k` this report covers.
    pub k: usize,
    /// Groups sorted by bias gap (largest first), ties by size.
    pub groups: Vec<BiasedGroup>,
}

/// Enriches per-`k` audit results (an [`AuditOutcome`]'s `per_k`, or a
/// live monitor's current sets) into per-`k` reports covering **both**
/// directions: under-represented groups first (largest deficit first),
/// then over-represented ones (largest excess first).
///
/// A group reported at many `k` values is counted in the data and
/// formatted once: `s_D` and the display string do not depend on `k`, so
/// both are memoized per distinct pattern, and each row pays only the
/// truncated top-`k` prefix count.
///
/// [`AuditOutcome`]: crate::AuditOutcome
pub fn summarize_audit<'o>(
    per_k: &'o [AuditKResult],
    index: &RankedIndex,
    space: &PatternSpace,
    task: &AuditTask,
) -> Vec<KReport> {
    let under_required = |sd: usize, k: usize| -> f64 {
        match task {
            AuditTask::UnderRep(measure) => measure.required(sd, k, index.n()),
            AuditTask::Combined { lower, .. } => lower.at(k) as f64,
            AuditTask::OverRep { .. } => 0.0, // no under side
        }
    };
    let upper_allowed = |k: usize| -> f64 {
        match task {
            AuditTask::OverRep { upper, .. } | AuditTask::Combined { upper, .. } => {
                upper.at(k) as f64
            }
            AuditTask::UnderRep(_) => 0.0, // no over side
        }
    };
    let mut per_pattern: FxHashMap<&'o Pattern, (usize, String)> = FxHashMap::default();
    per_k
        .iter()
        .map(|kr| {
            let mut enrich = |p: &'o Pattern, direction: BiasDirection| {
                let (sd, display) = per_pattern
                    .entry(p)
                    .or_insert_with(|| (index.size_in_data(p), space.display(p)));
                let sd = *sd;
                let count = index.prefix_count(p, kr.k);
                let required = match direction {
                    BiasDirection::Under => under_required(sd, kr.k),
                    BiasDirection::Over => upper_allowed(kr.k),
                };
                let bias_gap = match direction {
                    BiasDirection::Under => required - count as f64,
                    BiasDirection::Over => count as f64 - required,
                };
                BiasedGroup {
                    pattern: p.clone(),
                    display: display.clone(),
                    direction,
                    size_in_data: sd,
                    size_in_topk: count,
                    required,
                    bias_gap,
                }
            };
            let sort = |groups: &mut Vec<BiasedGroup>| {
                groups.sort_by(|a, b| {
                    // total_cmp: a non-finite gap sorts deterministically
                    // instead of panicking report generation.
                    b.bias_gap
                        .total_cmp(&a.bias_gap)
                        .then(b.size_in_data.cmp(&a.size_in_data))
                        .then(a.display.cmp(&b.display))
                });
            };
            let mut under: Vec<BiasedGroup> = kr
                .under
                .iter()
                .map(|p| enrich(p, BiasDirection::Under))
                .collect();
            sort(&mut under);
            let mut over: Vec<BiasedGroup> = kr
                .over
                .iter()
                .map(|p| enrich(p, BiasDirection::Over))
                .collect();
            sort(&mut over);
            under.extend(over);
            KReport {
                k: kr.k,
                groups: under,
            }
        })
        .collect()
}

/// Renders reports as an aligned text table (one block per `k`).
pub fn render_report(reports: &[KReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!("k = {}\n", r.k));
        if r.groups.is_empty() {
            out.push_str("  (no biased groups)\n");
            continue;
        }
        let width = r
            .groups
            .iter()
            .map(|g| g.display.len())
            .max()
            .unwrap_or(0)
            .max("group".len());
        out.push_str(&format!(
            "  {:width$}  {:>5}  {:>6}  {:>6}  {:>9}  {:>7}\n",
            "group", "dir", "s_D", "top-k", "required", "gap"
        ));
        for g in &r.groups {
            out.push_str(&format!(
                "  {:width$}  {:>5}  {:>6}  {:>6}  {:>9.2}  {:>7.2}\n",
                g.display,
                g.direction.as_str(),
                g.size_in_data,
                g.size_in_topk,
                g.required,
                g.bias_gap
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{Audit, AuditOutcome, Engine};
    use crate::bounds::{BiasMeasure, Bounds};
    use crate::stats::DetectConfig;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    /// Example 4.6's GlobalBounds run (`L = 2`, `τs = 4`, `k ∈ [4, 5]`) as
    /// an under-representation outcome, with the audit and the task that
    /// produced it.
    pub(super) fn setup() -> (Audit, AuditOutcome, AuditTask) {
        let audit = Audit::builder(students_fig1())
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap();
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let outcome = audit
            .run(&DetectConfig::new(4, 4, 5), &task, Engine::Optimized)
            .unwrap();
        (audit, outcome, task)
    }

    #[test]
    fn summary_contains_sizes_and_gaps() {
        let (audit, out, task) = setup();
        let reports = audit.report(&out, &task);
        assert_eq!(reports.len(), 2);
        let k4 = &reports[0];
        assert_eq!(k4.k, 4);
        let gp = k4
            .groups
            .iter()
            .find(|g| g.display == "{School=GP}")
            .expect("GP reported at k=4");
        assert_eq!(gp.size_in_data, 8);
        assert_eq!(gp.size_in_topk, 1);
        assert_eq!(gp.required, 2.0);
        assert_eq!(gp.bias_gap, 1.0);
    }

    #[test]
    fn groups_sorted_by_gap_desc() {
        let (audit, out, task) = setup();
        let reports = audit.report(&out, &task);
        for r in &reports {
            for w in r.groups.windows(2) {
                assert!(w[0].bias_gap >= w[1].bias_gap);
            }
        }
    }

    #[test]
    fn render_is_nonempty_and_mentions_k() {
        let (audit, out, task) = setup();
        let text = render_report(&audit.report(&out, &task));
        assert!(text.contains("k = 4"));
        assert!(text.contains("{School=GP}"));
        assert!(text.contains("required"));
    }

    #[test]
    fn render_handles_empty_result() {
        let reports = vec![KReport {
            k: 3,
            groups: vec![],
        }];
        assert!(render_report(&reports).contains("no biased groups"));
    }
}

/// Renders reports as CSV
/// (`k,direction,group,size_in_data,size_in_topk,required,gap`) for
/// machine consumption — plotting scripts, spreadsheets, CI checks.
pub fn render_report_csv(reports: &[KReport]) -> String {
    let mut out = String::from("k,direction,group,size_in_data,size_in_topk,required,gap\n");
    for r in reports {
        for g in &r.groups {
            out.push_str(&format!(
                "{},{},{},{},{},{:.4},{:.4}\n",
                r.k,
                g.direction.as_str(),
                quote_field(&g.display, ','),
                g.size_in_data,
                g.size_in_topk,
                g.required,
                g.bias_gap
            ));
        }
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_has_header_and_quoted_groups() {
        let (audit, out, task) = tests::setup();
        let reports = audit.report(&out, &task);
        let csv = render_report_csv(&reports);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "k,direction,group,size_in_data,size_in_topk,required,gap"
        );
        // Multi-term groups contain ", " so they must be quoted.
        assert!(csv.contains("\"{Gender=F, School=MS}\""));
        // Every data line has 6 comma-separated fields outside quotes.
        for line in csv.lines().skip(1) {
            let mut fields = 1;
            let mut in_quotes = false;
            for ch in line.chars() {
                match ch {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => fields += 1,
                    _ => {}
                }
            }
            assert_eq!(fields, 7, "line `{line}`");
        }
    }

    /// A quoted CSV field may hold a line break, so a label can: the
    /// report must quote such a group, or one row reads back as two
    /// records. Four `"a\nb"` rows rank last under `L = 1`, `τs = 2`,
    /// `k = 4`, so that group is the one reported.
    #[test]
    fn csv_quotes_a_group_holding_a_line_break() {
        use crate::audit::{Audit, Engine};
        use crate::bounds::{BiasMeasure, Bounds};
        use crate::stats::DetectConfig;
        use rankfair_data::csv::{parse_records, read_csv_str, CsvOptions};
        use rankfair_rank::Ranking;

        let text =
            "grp,score\nx,8\nx,7\nx,6\nx,5\n\"a\nb\",4\n\"a\nb\",3\n\"a\nb\",2\n\"a\nb\",1\n";
        let ds = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 8);
        let audit = Audit::builder(ds)
            .ranking(Ranking::from_order((0..8).collect()).unwrap())
            .build()
            .unwrap();
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(1)));
        let out = audit
            .run(&DetectConfig::new(2, 4, 4), &task, Engine::Optimized)
            .unwrap();
        let reports = audit.report(&out, &task);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].groups.len(), 1);
        let records = parse_records(&render_report_csv(&reports), ',').unwrap();
        assert_eq!(records.len(), 2, "{records:?}");
        assert_eq!(records[1].len(), 7, "{records:?}");
        assert_eq!(records[1][2], "{grp=a\nb}");
    }
}
