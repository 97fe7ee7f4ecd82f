//! Shared machinery for the benchmark harness: experiment configuration,
//! timing, and the table writer the `experiments` binary builds on.
//!
//! Every table and figure of the paper’s evaluation (§VI) has a
//! regenerating `experiments` command; the README section “Reproducing
//! the paper's evaluation” lists them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use rankfair::prelude::*;

/// Which algorithm a measurement row refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The `IterTD` baseline.
    IterTd,
    /// `GlobalBounds` (Algorithm 2).
    GlobalBounds,
    /// `PropBounds` (Algorithm 3).
    PropBounds,
}

impl Algo {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::IterTd => "IterTD",
            Algo::GlobalBounds => "GlobalBounds",
            Algo::PropBounds => "PropBounds",
        }
    }
}

/// One timed detection run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Patterns examined (the paper’s search-space metric).
    pub patterns_examined: u64,
    /// Total (k, group) pairs reported.
    pub groups_reported: usize,
    /// Whether the run hit its deadline.
    pub timed_out: bool,
}

/// Runs one algorithm on a prepared audit and measures it.
pub fn run_algo(
    audit: &Audit,
    cfg: &DetectConfig,
    measure: &BiasMeasure,
    algo: Algo,
) -> Measurement {
    let engine = match algo {
        Algo::IterTd => Engine::Baseline,
        Algo::GlobalBounds | Algo::PropBounds => Engine::Optimized,
    };
    let task = AuditTask::UnderRep(measure.clone());
    let start = Instant::now();
    let out = audit
        .run(cfg, &task, engine)
        .expect("benchmark parameters are valid");
    Measurement {
        elapsed: start.elapsed(),
        patterns_examined: out.stats.patterns_examined(),
        groups_reported: out.total_groups(),
        timed_out: out.stats.timed_out,
    }
}

/// Builds an audit over the first `n_attrs` pattern attributes of a
/// workload (the x-axis of Figures 4–5).
pub fn audit_with_attrs(w: &Workload, n_attrs: usize) -> Audit {
    w.audit_with_attrs(n_attrs)
        .expect("workload attributes are categorical")
}

/// The paper’s default parameters (§VI-A): τs = 50, k ∈ [10, 49], step
/// bounds 10/20/30/40, α = 0.8.
pub fn paper_defaults() -> (DetectConfig, Bounds, f64) {
    (DetectConfig::new(50, 10, 49), Bounds::paper_default(), 0.8)
}

/// A minimal aligned-column table writer for experiment output (TSV-ish,
/// readable both by humans and by plotting scripts).
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a duration in milliseconds with 1 decimal, or `TIMEOUT`.
pub fn fmt_ms(m: &Measurement) -> String {
    if m.timed_out {
        "TIMEOUT".to_string()
    } else {
        format!("{:.1}", m.elapsed.as_secs_f64() * 1000.0)
    }
}

/// The share of the baseline's examined patterns the optimized run
/// saved, in percent with 2 decimals, or `TIMEOUT` when either run hit
/// its deadline: a cut-short run's count gives no gain.
pub fn fmt_gain(base: &Measurement, opt: &Measurement) -> String {
    if base.timed_out || opt.timed_out {
        "TIMEOUT".to_string()
    } else {
        let gain = 100.0 * (1.0 - opt.patterns_examined as f64 / base.patterns_examined as f64);
        format!("{gain:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_gain_reads_timeout_when_either_run_was_cut_short() {
        let run = |patterns_examined, timed_out| Measurement {
            elapsed: Duration::ZERO,
            patterns_examined,
            groups_reported: 0,
            timed_out,
        };
        assert_eq!(fmt_gain(&run(400, false), &run(100, false)), "75.00");
        assert_eq!(fmt_gain(&run(0, true), &run(100, false)), "TIMEOUT");
        assert_eq!(fmt_gain(&run(400, false), &run(100, true)), "TIMEOUT");
        assert_eq!(fmt_gain(&run(0, true), &run(0, true)), "TIMEOUT");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "column"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "x".into()]);
        let text = t.render();
        assert!(text.contains("a  column") || text.contains("  a  column"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn run_algo_measures_and_agrees() {
        let w = student_workload(100, 3);
        let audit = audit_with_attrs(&w, 5);
        let cfg = DetectConfig::new(10, 5, 20);
        let bounds = Bounds::constant(3);
        let m = BiasMeasure::GlobalLower(bounds);
        let base = run_algo(&audit, &cfg, &m, Algo::IterTd);
        let opt = run_algo(&audit, &cfg, &m, Algo::GlobalBounds);
        assert!(!base.timed_out && !opt.timed_out);
        assert!(opt.patterns_examined < base.patterns_examined);
        assert_eq!(base.groups_reported, opt.groups_reported);
    }

    #[test]
    fn audit_with_attrs_truncates() {
        let w = student_workload(80, 3);
        let audit = audit_with_attrs(&w, 4);
        assert_eq!(audit.space().n_attrs(), 4);
        let audit_all = audit_with_attrs(&w, 999);
        assert_eq!(audit_all.space().n_attrs(), 33);
    }
}
