//! `audit-wide` and `audit-tall`: a closed loop on one thread runs audit
//! passes. A pass builds the audit (rank, bucketize, pattern space,
//! index), runs GlobalBounds, PropBounds and Combined, then reports and
//! renders each result.
//!
//! The two shapes pull the time into different layers: `wide` (13
//! attributes over 6 889 rows) has a large pattern graph over short
//! bitmaps, so engine bookkeeping dominates; `tall` (8 attributes over a
//! million rows) has a small graph over long bitmaps, so the count kernel,
//! the sort and the index build dominate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rankfair_core::json::reports_json;
use rankfair_core::{
    Audit, AuditIndex, AuditKResult, AuditOutcome, AuditTask, BiasMeasure, Bounds, DetectConfig,
    Engine, OverRepScope, Pattern, PatternSpace, RankedIndex, SearchStats,
};
use rankfair_data::{Dataset, ValueCode};
use rankfair_rank::{Ranker, Ranking};
use rankfair_synth::{random_dataset_streamed, RandomSpec};

use crate::gauge::Gauge;
use crate::metrics::Metrics;
use crate::stats::{median, windowed_tail};
use crate::trace::{overhead, unattributed_share, Trace};
use crate::{compas, setup_median, Outcome, RunConfig};

/// Which audit workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Synthetic COMPAS, 6 889 rows, 13 bucketized attributes.
    Wide,
    /// Streamed random table, 1 000 000 rows, 8 attributes of card ≤ 5.
    Tall,
}

const WIDE_ROWS: usize = 6889;
const WIDE_ATTRS: usize = 13;
const TALL_SPEC: RandomSpec = RandomSpec {
    rows: 1_000_000,
    attrs: 8,
    max_card: 5,
};
/// Seed of the one tall table; the run seed orders its rows (see
/// `compas::permuted` for why the instance is fixed).
const TALL_BASE_SEED: u64 = 2023;
const K_MIN: usize = 10;
const K_MAX: usize = 49;
/// `(pattern, k)` pairs timed by the count-kernel probe.
const COUNT_SAMPLE: usize = 256;

/// The generated inputs of one run.
struct Input {
    /// Wide: raw COMPAS (ranked and bucketized every pass). Tall: the
    /// categorical table itself.
    data: Arc<Dataset>,
    /// Tall only: the score column the pass sorts.
    scores: Vec<f64>,
    attrs: Vec<String>,
    cfg: DetectConfig,
}

fn setup(shape: Shape, seed: u64) -> Input {
    match shape {
        Shape::Wide => {
            let raw = compas::permuted(WIDE_ROWS, 0, seed);
            let attrs = raw
                .columns()
                .iter()
                .take(WIDE_ATTRS)
                .map(|c| c.name().to_string())
                .collect();
            Input {
                data: Arc::new(raw),
                scores: Vec::new(),
                attrs,
                cfg: DetectConfig::new(50, K_MIN, K_MAX),
            }
        }
        Shape::Tall => {
            let base = random_dataset_streamed(TALL_BASE_SEED, TALL_SPEC);
            let mut rng = StdRng::seed_from_u64(TALL_BASE_SEED);
            let base_scores: Vec<f64> = (0..TALL_SPEC.rows).map(|_| rng.random::<f64>()).collect();
            let mut order: Vec<usize> = (0..TALL_SPEC.rows).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let data = base.select_rows(&order);
            let scores = order.iter().map(|&r| base_scores[r]).collect();
            let attrs = data
                .columns()
                .iter()
                .map(|c| c.name().to_string())
                .collect();
            Input {
                data: Arc::new(data),
                scores,
                attrs,
                cfg: DetectConfig::new(TALL_SPEC.rows / 20, K_MIN, K_MAX),
            }
        }
    }
}

/// GlobalBounds, PropBounds and Combined, with the span name of each run.
fn tasks() -> [(&'static str, AuditTask); 3] {
    [
        (
            "core.engine.global",
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default())),
        ),
        (
            "core.engine.prop",
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
        ),
        (
            "core.engine.combined",
            AuditTask::Combined {
                lower: Bounds::paper_default(),
                upper: compas::upper_bounds(),
            },
        ),
    ]
}

/// Stage times of one pass, milliseconds.
#[derive(Debug, Default, Clone)]
struct PassTimes {
    rank: f64,
    bucketize: f64,
    build: f64,
    runs: [f64; 3],
    report: f64,
    render: f64,
    total: f64,
}

/// What a pass produced.
struct PassOut {
    audit: Audit,
    outcomes: Vec<AuditOutcome>,
    rendered: Vec<String>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// One pass. Every stage is timed; spans are recorded when tracing.
fn pass(
    shape: Shape,
    input: &Input,
    tasks: &[(&'static str, AuditTask)],
    trace: &mut Trace,
    no: u64,
) -> Result<(PassOut, PassTimes), String> {
    let mut t = PassTimes::default();
    let start = Instant::now();
    let root = trace.record("audit.pass", None, no, start, start);

    let t0 = Instant::now();
    let ranking = match shape {
        Shape::Wide => compas::ranker().rank(&input.data),
        Shape::Tall => Ranking::from_scores_desc(&input.scores),
    };
    let t1 = Instant::now();
    trace.record("rank.sort", root, no, t0, t1);
    let dataset = match shape {
        Shape::Wide => {
            let mut ds = (*input.data).clone();
            compas::bucketize(&mut ds)?;
            Arc::new(ds)
        }
        Shape::Tall => Arc::clone(&input.data),
    };
    let t2 = Instant::now();
    trace.record("data.bucketize", root, no, t1, t2);
    let audit = Audit::builder(dataset)
        .ranking(ranking)
        .attributes(input.attrs.iter().cloned())
        .build()
        .map_err(|e| format!("audit build: {e}"))?;
    let t3 = Instant::now();
    trace.record("core.audit.build", root, no, t2, t3);
    (t.rank, t.bucketize, t.build) = (ms(t0, t1), ms(t1, t2), ms(t2, t3));

    let mut outcomes = Vec::with_capacity(tasks.len());
    for (i, (name, task)) in tasks.iter().enumerate() {
        let s = Instant::now();
        let out = audit
            .run(&input.cfg, task, Engine::Optimized)
            .map_err(|e| format!("{name}: {e}"))?;
        let e = Instant::now();
        trace.record(name, root, no, s, e);
        t.runs[i] = ms(s, e);
        outcomes.push(out);
    }

    let s = Instant::now();
    let reports: Vec<_> = outcomes
        .iter()
        .zip(tasks)
        .map(|(out, (_, task))| audit.report(out, task))
        .collect();
    let e = Instant::now();
    trace.record("core.report", root, no, s, e);
    t.report = ms(s, e);
    let rendered: Vec<String> = reports
        .iter()
        .map(|r| reports_json(r, audit.space()).render())
        .collect();
    let end = Instant::now();
    trace.record("json.render", root, no, e, end);
    t.render = ms(e, end);
    trace.close(root, end);
    t.total = ms(start, end);
    Ok((
        PassOut {
            audit,
            outcomes,
            rendered,
        },
        t,
    ))
}

/// Combined's over half, run on its own.
fn upper_half(audit: &Audit, cfg: &DetectConfig) -> Result<AuditOutcome, String> {
    let task = AuditTask::OverRep {
        upper: compas::upper_bounds(),
        scope: OverRepScope::MostSpecific,
    };
    audit
        .run(cfg, &task, Engine::Optimized)
        .map_err(|e| format!("over half: {e}"))
}

/// The output checks of the warm-up pass: each run equals the streaming run
/// `k` by `k`, and Combined equals its under half (the GlobalBounds run,
/// same lower bounds) and its over half run on its own. Returns one line
/// per failed check.
fn check_warm_up(
    out: &PassOut,
    cfg: &DetectConfig,
    tasks: &[(&'static str, AuditTask)],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (outcome, (name, task)) in out.outcomes.iter().zip(tasks) {
        match out.audit.run_streaming(cfg, task) {
            Ok(stream) => {
                let per_k: Vec<AuditKResult> = stream.collect();
                if per_k != outcome.per_k {
                    failures.push(format!("{name}: run differs from run_streaming"));
                }
            }
            Err(e) => failures.push(format!("{name}: run_streaming: {e}")),
        }
    }
    match upper_half(&out.audit, cfg) {
        Ok(over) => {
            let (under, combined) = (&out.outcomes[0].per_k, &out.outcomes[2].per_k);
            let halves_match = combined.len() == under.len()
                && combined.len() == over.per_k.len()
                && combined
                    .iter()
                    .zip(under)
                    .zip(&over.per_k)
                    .all(|((c, u), o)| {
                        c.k == u.k && c.k == o.k && c.under == u.under && c.over == o.over
                    });
            if !halves_match {
                failures.push("combined differs from its under and over halves".to_string());
            }
        }
        Err(e) => failures.push(e),
    }
    failures
}

/// `(pattern, k)` pairs the engines evaluated in `outcomes`: every
/// reported group at its `k`, and each of its parents (one term dropped),
/// which the search evaluated on its way down. Up to [`COUNT_SAMPLE`] of
/// them, drawn with `seed`.
fn evaluated_sample(outcomes: &[AuditOutcome], seed: u64) -> Vec<(Pattern, usize)> {
    let mut pairs: Vec<(Pattern, usize)> = Vec::new();
    for r in outcomes.iter().flat_map(|o| &o.per_k) {
        for p in r.under.iter().chain(&r.over) {
            pairs.push((p.clone(), r.k));
            for skip in 0..p.len() {
                let mut terms = p.terms().to_vec();
                terms.remove(skip);
                if let Some(parent) = Pattern::from_terms(terms).filter(|q| !q.is_empty()) {
                    pairs.push((parent, r.k));
                }
            }
        }
    }
    pairs.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0043_4f55_4e54));
    pairs.truncate(COUNT_SAMPLE);
    pairs
}

/// `RankedIndex::counts` over the sample: nanoseconds per call and bitmap
/// bytes each call reads; zeros for an empty sample.
fn count_probe(index: &RankedIndex, sample: &[(Pattern, usize)]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < 3 * sample.len() || start.elapsed().as_millis() < 50 {
        for (p, k) in sample {
            black_box(index.counts(black_box(p), *k));
        }
        calls += sample.len();
    }
    let ns = start.elapsed().as_nanos() as f64 / calls as f64;
    let words = index.n().div_ceil(64) as f64;
    let terms: usize = sample.iter().map(|(p, _)| p.len()).sum();
    (ns, terms as f64 / sample.len() as f64 * words * 8.0)
}

/// Bytes the ranked index holds: one bitmap per (attribute, value) and
/// one code per (attribute, row).
fn index_bytes(space: &PatternSpace, n: usize) -> f64 {
    let words = n.div_ceil(64);
    let bitmaps: usize = space.attr_ids().map(|a| space.card(a) * words * 8).sum();
    (bitmaps + n * space.n_attrs() * std::mem::size_of::<ValueCode>()) as f64
}

/// Runs the workload.
pub fn run(
    shape: Shape,
    cfg: &RunConfig,
    trace: &mut Trace,
    gauge: &mut Gauge,
) -> Result<Outcome, String> {
    let (input, setup_s, setup_raw) = setup_median(
        match shape {
            Shape::Wide => 50,
            Shape::Tall => 5,
        },
        gauge,
        || Ok(setup(shape, cfg.seed)),
    )?;
    let tasks = tasks();
    let mut notes = Vec::new();
    // A warm-up pass, outside the timing: its outputs are checked against
    // the streaming runs and the Combined halves, and every timed pass
    // must reproduce them. Its work counters are every pass's.
    trace.set_enabled(false);
    let (warm, _) =
        pass(shape, &input, &tasks, trace, 0).map_err(|e| format!("warm-up pass: {e}"))?;
    let failures = check_warm_up(&warm, &input.cfg, &tasks);
    let mut failed = u64::from(!failures.is_empty());
    notes.extend(failures);
    let mut times: Vec<PassTimes> = Vec::new();
    let mut scaled: Vec<f64> = Vec::new();
    let mut recorded: Vec<bool> = Vec::new();
    // Traced extras, run outside the pass.
    let mut space_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut upper_ms = Vec::new();
    let mut upper = SearchStats::default();

    gauge.read();
    let start = Instant::now();
    let mut no = 1u64;
    while start.elapsed() < cfg.seconds {
        // The traced run records every other pass, so the pass medians
        // with and without recording give the tracing overhead.
        trace.set_enabled(cfg.traced && no.is_multiple_of(2));
        let result = pass(shape, &input, &tasks, trace, no);
        // The gauge is read between passes, so the latest three readings
        // scaling a pass are the two before it and the one after it.
        gauge.read();
        no += 1;
        let (out, t) = match result {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                notes.push(format!("pass {} failed: {e}", no - 1));
                continue;
            }
        };
        let same = out
            .outcomes
            .iter()
            .map(|o| &o.per_k)
            .eq(warm.outcomes.iter().map(|o| &o.per_k))
            && out.rendered == warm.rendered;
        if !same {
            failed += 1;
            notes.push(format!("pass {} differs from the warm-up pass", no - 1));
        }
        if cfg.traced {
            let ds = out.audit.dataset();
            let names: Vec<&str> = input.attrs.iter().map(String::as_str).collect();
            let s = Instant::now();
            let space = PatternSpace::from_column_names(ds, &names).map_err(|e| e.to_string())?;
            let e = Instant::now();
            black_box(RankedIndex::build(ds, &space, out.audit.ranking()));
            space_ms.push(ms(s, e));
            index_ms.push(ms(e, Instant::now()));
            let s = Instant::now();
            upper = upper_half(&out.audit, &input.cfg)?.stats;
            upper_ms.push(ms(s, Instant::now()));
        }
        scaled.push(gauge.scale(t.total));
        times.push(t);
        recorded.push(trace.enabled());
    }
    trace.set_enabled(cfg.traced);

    let pick = |f: fn(&PassTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let totals = pick(|t| t.total);
    let runs: Vec<f64> = (0..3)
        .map(|i| median(&times.iter().map(|t| t.runs[i]).collect::<Vec<_>>()))
        .collect();
    let op_tail = windowed_tail(&totals);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("op_ms_p50", median(&scaled));
    m.set(
        "throughput_per_s",
        scaled.len() as f64 / (scaled.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    notes.push(format!(
        "raw: setup_s {setup_raw:.6}, pass p50 {:.3} ms, {:.4} passes/s",
        median(&totals),
        totals.len() as f64 / (totals.iter().sum::<f64>() / 1e3).max(1e-9)
    ));
    notes.push(format!("pass_ms_tail = {op_tail}"));

    let mut lower = SearchStats::default();
    lower.merge(&warm.outcomes[0].stats);
    lower.merge(&warm.outcomes[1].stats);
    let groups = warm.outcomes[0].total_groups() + warm.outcomes[1].total_groups();
    let all_evals: u64 = warm.outcomes.iter().map(|o| o.stats.nodes_evaluated).sum();
    m.set("pass_ms_p50", median(&totals));
    m.set("pass_ms_tail", op_tail.value);
    m.set(
        "build_ms_p50",
        median(&pick(|t| t.rank + t.bucketize + t.build)),
    );
    m.set("global_ms_p50", runs[0]);
    m.set("prop_ms_p50", runs[1]);
    m.set("combined_ms_p50", runs[2]);
    m.set("rank.sort_ms", median(&pick(|t| t.rank)));
    m.set("data.bucketize_ms", median(&pick(|t| t.bucketize)));
    m.set("core.report.ms", median(&pick(|t| t.report)));
    m.set("json.render_ms", median(&pick(|t| t.render)));
    m.set(
        "json.render_bytes",
        warm.rendered.iter().map(String::len).sum::<usize>() as f64,
    );
    m.set("core.engine.lower.evals", lower.nodes_evaluated as f64);
    m.set("core.engine.lower.touched", lower.nodes_touched as f64);
    m.set(
        "core.engine.lower.yield",
        groups as f64 / lower.nodes_evaluated.max(1) as f64,
    );

    if cfg.traced {
        let AuditIndex::Single(index) = warm.audit.index() else {
            return Err("the audit index is sharded".to_string());
        };
        let space = warm.audit.space();
        let sample = evaluated_sample(&warm.outcomes, cfg.seed);
        let (count_ns, count_bytes) = count_probe(index, &sample);
        let count_ms = |evals: u64| evals as f64 * count_ns / 1e6;
        m.set("core.space.build_ms", median(&space_ms));
        m.set("core.index.build_ms", median(&index_ms));
        m.set("core.index.bytes", index_bytes(space, index.n()));
        m.set("core.index.count_ns", count_ns);
        m.set("core.index.count_bytes", count_bytes);
        m.set(
            "core.index.count_share",
            (count_ms(all_evals) / runs.iter().sum::<f64>().max(1e-9)).min(1.0),
        );
        // The engines' own time: nothing inside a run is timed from
        // outside, so the count kernel's part of it is the estimate
        // `count_share`, never subtracted.
        m.set("core.engine.lower.self_ms", runs[0] + runs[1]);
        m.set("core.engine.upper.evals", upper.nodes_evaluated as f64);
        m.set("core.engine.upper.touched", upper.nodes_touched as f64);
        m.set("core.engine.upper.self_ms", median(&upper_ms));
        m.set(
            "unattributed_share",
            unattributed_share(trace.spans(), "audit.pass"),
        );
        let (on, off, rel) = overhead(&totals, &recorded);
        m.set("trace_overhead", rel);
        notes.push(format!(
            "trace_overhead: traced pass p50 {on:.3} ms vs untraced {off:.3} ms (base)"
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: no,
        failed,
        notes,
    })
}
