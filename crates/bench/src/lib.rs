//! Shared machinery for the benchmark harness: run options, timing,
//! measured runs, the table writer and the [`Bench`] every
//! `BENCH_*.json` file is written through.
//!
//! Every table and figure of the paper’s evaluation (§VI) has a
//! regenerating `experiments` command; the README section “Reproducing
//! the paper's evaluation” lists them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use rankfair::json::Value;
use rankfair::prelude::*;

/// The options every experiment reads.
#[derive(Debug, PartialEq)]
pub struct Opts {
    /// Deadline of each timed search.
    pub timeout: Duration,
    /// Seed of every synthetic workload and edit stream.
    pub seed: u64,
    /// Smaller workloads, and the [`Bench`] gates count.
    pub quick: bool,
}

/// Host core count, recorded in every BENCH file's run header so flat
/// worker-scaling curves from 1-core hosts are machine-readably
/// distinguishable from real regressions.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs `f` and returns its result with its wall-clock time in
/// milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// `rebuild / delta` over per-batch times, with each side's single
/// slowest batch dropped before summing. One scheduler hiccup in a
/// short series of ~1.5 ms batches moves an untrimmed total by 2× either
/// way, while a real regression slows every batch and the survivors
/// still show it. (A per-batch median would be blind at batch=1, where
/// most single-edit batches recompute nothing and stay fast however
/// broken replay is.)
pub fn trimmed_ratio(rebuild: &[f64], delta: &[f64]) -> f64 {
    let trimmed =
        |times: &[f64]| times.iter().sum::<f64>() - times.iter().copied().fold(0.0, f64::max);
    trimmed(rebuild) / trimmed(delta).max(1e-9)
}

/// One timed detection run.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Wall-clock time in milliseconds.
    pub ms: f64,
    /// Patterns examined (the paper’s search-space metric).
    pub patterns_examined: u64,
    /// Total (k, group) pairs reported.
    pub groups_reported: usize,
    /// Whether the run hit its deadline.
    pub timed_out: bool,
}

/// The paper's name for the optimized algorithm of a measure:
/// `GlobalBounds` (Algorithm 2) or `PropBounds` (Algorithm 3).
pub fn opt_name(measure: &BiasMeasure) -> &'static str {
    match measure {
        BiasMeasure::GlobalLower(_) => "GlobalBounds",
        BiasMeasure::Proportional { .. } => "PropBounds",
    }
}

/// Runs an under-representation audit and measures it.
/// `Engine::Baseline` is the paper's `IterTD`; `Engine::Optimized` is
/// the measure's [`opt_name`].
pub fn run(
    audit: &Audit,
    cfg: &DetectConfig,
    measure: &BiasMeasure,
    engine: Engine,
) -> Measurement {
    let task = AuditTask::UnderRep(measure.clone());
    let (out, ms) = timed(|| {
        audit
            .run(cfg, &task, engine)
            .expect("benchmark parameters are valid")
    });
    Measurement {
        ms,
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

/// The paper’s default search (§VI-A), τs = 50 and k ∈ [10, 49], with
/// a deadline.
pub fn paper_config(deadline: Duration) -> DetectConfig {
    DetectConfig::new(50, 10, 49).with_deadline(deadline)
}

/// The paper's under-representation measure with its §VI-A defaults:
/// global bounds stepping at 10/20/30/40, or proportional
/// representation with α = 0.8.
pub fn paper_measure(global: bool) -> BiasMeasure {
    if global {
        BiasMeasure::GlobalLower(Bounds::paper_default())
    } else {
        BiasMeasure::Proportional { alpha: 0.8 }
    }
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

/// One bench: its printed table, its `BENCH_*.json` file and its gates.
///
/// [`Bench::row`] adds a table row and a JSON row in one call, and
/// [`Bench::finish`] prints the table and the notes, writes the file
/// and returns the gates that failed. The file is one JSON object:
/// `bench`, then `config` (the bench's own settings followed by the run
/// header `seed`, `quick`, `timeout_s`, `cores` and `arch`, so every
/// file states its mode and its host), then the bench's top-level
/// members, then `rows`.
#[derive(Debug)]
pub struct Bench {
    bench: &'static str,
    file: &'static str,
    table: Table,
    config: Vec<(String, Value)>,
    members: Vec<(String, Value)>,
    rows: Vec<Value>,
    notes: Vec<String>,
    /// Each gate's verdict line and whether its value crossed the limit.
    gates: Vec<(String, bool)>,
}

impl Bench {
    /// A bench named `bench` that writes `file` and prints a table with
    /// the columns `header`.
    pub fn new(bench: &'static str, file: &'static str, header: &[&str]) -> Self {
        Bench {
            bench,
            file,
            table: Table::new(header),
            config: Vec::new(),
            members: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records a setting in the file's `config`, before the run header.
    pub fn config(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.config.push((key.to_string(), value.into()));
        self
    }

    /// Records a top-level member of the file, between `config` and
    /// `rows`.
    pub fn member(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.members.push((key.to_string(), value.into()));
        self
    }

    /// Appends a table row and the matching JSON row.
    pub fn row(&mut self, cells: &[String], json: Value) {
        self.table.row(cells);
        self.rows.push(json);
    }

    /// A line printed after the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Requires `value >= min` in `--quick` runs.
    pub fn floor(&mut self, what: &str, value: f64, min: f64) {
        let line = format!("{}: {what} {value:.2} (floor {min})", self.bench);
        self.gates.push((line, value < min));
    }

    /// Requires `value <= max` in `--quick` runs.
    pub fn ceiling(&mut self, what: &str, value: f64, max: f64) {
        let line = format!("{}: {what} {value:.2} (ceiling {max})", self.bench);
        self.gates.push((line, value > max));
    }

    /// The gates this run failed: none in a full run, since full runs
    /// measure workloads the limits were not set for.
    fn failed(&self, opts: &Opts) -> Vec<String> {
        self.gates
            .iter()
            .filter(|(_, crossed)| opts.quick && *crossed)
            .map(|(line, _)| line.clone())
            .collect()
    }

    /// The file's contents.
    fn json(&self, opts: &Opts) -> Value {
        let header = [
            ("seed", Value::from(opts.seed)),
            ("quick", Value::from(opts.quick)),
            ("timeout_s", Value::from(opts.timeout.as_secs())),
            ("cores", Value::from(host_cores())),
            ("arch", Value::from(std::env::consts::ARCH)),
        ];
        let config = self
            .config
            .iter()
            .cloned()
            .chain(header.map(|(key, value)| (key.to_string(), value)));
        let mut top = vec![
            ("bench".to_string(), Value::from(self.bench)),
            ("config".to_string(), Value::object(config)),
        ];
        top.extend(self.members.iter().cloned());
        top.push(("rows".to_string(), Value::array(self.rows.clone())));
        Value::object(top)
    }

    /// Prints the table and the notes, writes the file, prints the gates
    /// that held and returns those that failed.
    pub fn finish(self, opts: &Opts) -> Vec<String> {
        print!("{}", self.table.render());
        for note in &self.notes {
            println!("{note}");
        }
        match std::fs::write(self.file, self.json(opts).render() + "\n") {
            Ok(()) => println!("wrote {}", self.file),
            Err(e) => eprintln!("could not write {}: {e}", self.file),
        }
        for (line, _) in self
            .gates
            .iter()
            .filter(|(_, crossed)| opts.quick && !crossed)
        {
            println!("gate met: {line}");
        }
        self.failed(opts)
    }
}

/// Formats a run's time in milliseconds with 1 decimal, or `TIMEOUT`.
pub fn fmt_ms(m: &Measurement) -> String {
    if m.timed_out {
        "TIMEOUT".to_string()
    } else {
        format!("{:.1}", m.ms)
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

    fn opts(quick: bool) -> Opts {
        Opts {
            timeout: Duration::from_secs(5),
            seed: 7,
            quick,
        }
    }

    #[test]
    fn fmt_gain_reads_timeout_when_either_run_was_cut_short() {
        let run = |patterns_examined, timed_out| Measurement {
            ms: 0.0,
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
    fn run_measures_and_agrees() {
        let w = student_workload(100, 3);
        let audit = audit_with_attrs(&w, 5);
        let cfg = DetectConfig::new(10, 5, 20);
        let m = BiasMeasure::GlobalLower(Bounds::constant(3));
        let base = run(&audit, &cfg, &m, Engine::Baseline);
        let opt = run(&audit, &cfg, &m, Engine::Optimized);
        assert!(!base.timed_out && !opt.timed_out);
        assert!(opt.patterns_examined < base.patterns_examined);
        assert_eq!(base.groups_reported, opt.groups_reported);
        assert_eq!(opt_name(&m), "GlobalBounds");
        assert_eq!(
            opt_name(&BiasMeasure::Proportional { alpha: 0.8 }),
            "PropBounds"
        );
    }

    #[test]
    fn audit_with_attrs_truncates() {
        let w = student_workload(80, 3);
        let audit = audit_with_attrs(&w, 4);
        assert_eq!(audit.space().n_attrs(), 4);
        let audit_all = audit_with_attrs(&w, 999);
        assert_eq!(audit_all.space().n_attrs(), 33);
    }

    #[test]
    fn trimmed_ratio_drops_each_sides_slowest_batch() {
        assert_eq!(trimmed_ratio(&[4.0, 4.0, 40.0], &[1.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn gates_fail_only_in_quick_runs_and_only_when_crossed() {
        let mut b = Bench::new("t", "BENCH_t.json", &["x"]);
        b.floor("met floor", 6.0, 6.0);
        b.ceiling("met ceiling", 2.0, 2.0);
        assert!(b.failed(&opts(true)).is_empty());
        b.floor("low", 5.9, 6.0);
        b.ceiling("high", 2.1, 2.0);
        assert_eq!(
            b.failed(&opts(true)),
            ["t: low 5.90 (floor 6)", "t: high 2.10 (ceiling 2)"]
        );
        assert!(b.failed(&opts(false)).is_empty());
    }

    #[test]
    fn bench_json_is_bench_config_members_rows() {
        let mut b = Bench::new("t", "BENCH_t.json", &["x"]);
        b.config("rows", 10usize).member("qps", 2.5);
        b.row(&["1".into()], Value::object([("x", Value::from(1usize))]));
        let json = b.json(&opts(true));
        let keys = |v: &Value| -> Vec<String> {
            v.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&json), ["bench", "config", "qps", "rows"]);
        assert_eq!(json.get("bench").and_then(Value::as_str), Some("t"));
        let config = json.get("config").unwrap();
        assert_eq!(
            keys(config),
            ["rows", "seed", "quick", "timeout_s", "cores", "arch"]
        );
        assert_eq!(config.get("seed").and_then(Value::as_usize), Some(7));
        assert_eq!(config.get("quick").and_then(Value::as_bool), Some(true));
        assert_eq!(config.get("timeout_s").and_then(Value::as_usize), Some(5));
        assert_eq!(
            json.get("rows").and_then(Value::as_arr).map(<[_]>::len),
            Some(1)
        );
    }
}
