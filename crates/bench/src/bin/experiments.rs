//! Regenerates every table and figure of the paper's evaluation (§VI)
//! and runs the benches whose floors CI gates.
//!
//! Usage:
//!   experiments `<id>` [--timeout SECS] [--seed N] [--quick]
//!
//! The ids are the names in `EXPERIMENTS`, which the usage text lists;
//! `all`, the default, runs every one of them in that order. An unknown
//! flag or id, a missing or non-integer value, or a second id prints the
//! usage and exits 2.
//!
//! `overrep`, `serve`, `monitor`, `shard` and `serve-net` are benches:
//! each writes its measurements through a `rankfair_bench::Bench` to a
//! `BENCH_*.json` file in the working directory and, with `--quick`,
//! checks its gates. A failed gate does not stop the run: the process
//! exits 1 after the last id.
//!
//! Absolute runtimes differ from the paper (Rust vs. the authors' Python
//! testbed, synthetic vs. real data); the reproduced claims are the curve
//! *shapes*: optimized ≪ baseline, gaps widening with attribute count and
//! k-range, runtime decreasing in τs, and the qualitative content of the
//! Shapley analysis and case study.

use std::sync::Arc;
use std::time::Duration;

use rankfair::core::{AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, OverRepScope};
use rankfair::explain::distribution::compare_distributions;
use rankfair::explain::{ExplainConfig, RankSurrogate};
use rankfair::json::{ToJson, Value};
use rankfair::prelude::{compas_workload, german_workload, student_workload, Workload};
use rankfair_bench::{
    audit_with_attrs, fmt_gain, fmt_ms, host_cores, opt_name, paper_config, paper_measure, run,
    timed, trimmed_ratio, Bench, Measurement, Opts, Table,
};
use rankfair_divergence::{display_items, divergent_subgroups, DivergenceConfig};

/// Runs one experiment and returns the gates it failed.
type Experiment = fn(&Opts) -> Vec<String>;

/// Every experiment id and what it runs, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("fig4", |opts| sweep(opts, By::Attrs, true)),
    ("fig5", |opts| sweep(opts, By::Attrs, false)),
    ("fig6", |opts| sweep(opts, By::Tau, true)),
    ("fig7", |opts| sweep(opts, By::Tau, false)),
    ("fig8", |opts| sweep(opts, By::KMax, true)),
    ("fig9", |opts| sweep(opts, By::KMax, false)),
    ("gain", gain),
    ("fig10", fig10),
    ("casestudy", casestudy),
    ("resultsize", resultsize),
    ("worstcase", worstcase),
    ("scaling", scaling),
    ("overrep", overrep),
    ("serve", serve_bench),
    ("monitor", monitor_bench),
    ("shard", shard_bench),
    ("serve-net", serve_net_bench),
];

/// Parses the arguments after the program name: at most one experiment
/// id (default `all`) and the flags. An unknown flag or id, a flag
/// without an integer value, or a second id is an error, so a typo
/// cannot run the wrong mode.
fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut cmd: Option<&str> = None;
    let mut opts = Opts {
        timeout: Duration::from_secs(10),
        seed: 42,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || -> Result<u64, String> {
            let value = args.next().ok_or(format!("`{arg}` needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("`{arg}` takes a non-negative integer, got `{value}`"))
        };
        match arg.as_str() {
            "--timeout" => opts.timeout = Duration::from_secs(value()?),
            "--seed" => opts.seed = value()?,
            "--quick" => opts.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            id if cmd.is_some() => return Err(format!("a second experiment id `{id}`")),
            id if id != "all" && !EXPERIMENTS.iter().any(|(known, _)| *known == id) => {
                return Err(format!("unknown experiment `{id}`"))
            }
            id => cmd = Some(id),
        }
    }
    Ok((cmd.unwrap_or("all").to_string(), opts))
}

fn workloads(opts: &Opts) -> Vec<Workload> {
    let scale = |n: usize| if opts.quick { n / 4 } else { 0 };
    vec![
        compas_workload(scale(6889), opts.seed),
        student_workload(scale(395), opts.seed),
        german_workload(scale(1000), opts.seed),
    ]
}

/// The x-axis of a Figure 4–9 sweep.
#[derive(Clone, Copy, PartialEq)]
enum By {
    /// Figures 4–5: the number of pattern attributes.
    Attrs,
    /// Figures 6–7: the size threshold τs.
    Tau,
    /// Figures 8–9: `k_max`, with `k_min = 10`.
    KMax,
}

/// Figures 4–9: runtime of IterTD and of the measure's optimized
/// algorithm along one axis, per workload. Global bounds draw the even
/// figures, proportional representation the odd ones.
fn sweep(opts: &Opts, by: By, global: bool) -> Vec<String> {
    let cfg = paper_config(opts.timeout);
    let measure = paper_measure(global);
    let fig = 4 + 2 * by as usize + usize::from(!global);
    let attrs = if opts.quick { 8 } else { 11 };
    let (x, axis) = match by {
        By::Attrs => ("attrs", "#attributes"),
        By::Tau => ("tau_s", "size threshold τs"),
        By::KMax => ("k_max", "range of k (k_min = 10)"),
    };
    let detail = match by {
        By::Attrs if global => "global bounds".to_string(),
        By::Attrs => "proportional representation".to_string(),
        By::Tau | By::KMax => format!("{attrs} attributes"),
    };
    let opt_ms = format!("{}_ms", opt_name(&measure));
    for w in &workloads(opts) {
        println!(
            "\n## Figure {fig}: runtime vs {axis} — {} dataset ({detail})",
            w.name
        );
        let points: Vec<usize> = match by {
            By::Attrs => (3..=w.attr_names().len())
                .step_by(if opts.quick { 4 } else { 1 })
                .collect(),
            By::Tau if opts.quick => vec![10, 50, 100],
            By::Tau => (10..=100).step_by(10).collect(),
            // COMPAS sweeps k_max to 1000, the smaller datasets to 350 (§VI-B).
            By::KMax => {
                let cap = if w.name == "compas" { 1000 } else { 350 };
                (50..=cap.min(w.detection.n_rows()))
                    .step_by(if opts.quick { 150 } else { 50 })
                    .collect()
            }
        };
        let fixed = (by != By::Attrs).then(|| audit_with_attrs(w, attrs));
        let mut t = Table::new(&[
            x,
            "IterTD_ms",
            &opt_ms,
            "base_patterns",
            "opt_patterns",
            "groups",
        ]);
        let mut base_dead = false;
        for point in points {
            let per_point = fixed.is_none().then(|| audit_with_attrs(w, point));
            let audit = fixed.as_ref().or(per_point.as_ref()).expect("one audit");
            let mut cfg = cfg.clone();
            match by {
                By::Attrs => {}
                By::Tau => cfg.tau_s = point,
                By::KMax => cfg.k_max = point,
            }
            let base = if base_dead {
                Measurement {
                    timed_out: true,
                    ..Measurement::default()
                }
            } else {
                run(audit, &cfg, &measure, Engine::Baseline)
            };
            // Along the attribute axis the work only grows: the paper stops
            // plotting IterTD after its first timeout, and the figure ends
            // when the optimized run times out too.
            base_dead = by == By::Attrs && base.timed_out;
            let opt = run(audit, &cfg, &measure, Engine::Optimized);
            t.row(&[
                point.to_string(),
                fmt_ms(&base),
                fmt_ms(&opt),
                base.patterns_examined.to_string(),
                opt.patterns_examined.to_string(),
                opt.groups_reported.to_string(),
            ]);
            if by == By::Attrs && opt.timed_out {
                break;
            }
        }
        print!("{}", t.render());
    }
    Vec::new()
}

/// §VI-B search-space gain table.
fn gain(opts: &Opts) -> Vec<String> {
    println!("\n## §VI-B: search-space gain of the optimized algorithms (patterns examined)");
    let attrs = if opts.quick { 8 } else { 11 };
    let cfg = paper_config(opts.timeout);
    let mut t = Table::new(&["dataset", "problem", "IterTD", "optimized", "gain_%"]);
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs);
        for (global, problem) in [(true, "global"), (false, "proportional")] {
            let measure = paper_measure(global);
            let base = run(&audit, &cfg, &measure, Engine::Baseline);
            let opt = run(&audit, &cfg, &measure, Engine::Optimized);
            t.row(&[
                w.name.to_string(),
                problem.to_string(),
                base.patterns_examined.to_string(),
                opt.patterns_examined.to_string(),
                fmt_gain(&base, &opt),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "(paper, on the real data: 39.35/56.87/29.27% global; 39.60/20.49/56.83% proportional)"
    );
    Vec::new()
}

/// Figure 10: Shapley analysis of p1 (Student), p2 (COMPAS), p3 (German).
fn fig10(opts: &Opts) -> Vec<String> {
    println!("\n## Figure 10: result analysis with Shapley values (k = 49, L = 40)");
    let explain_cfg = if opts.quick {
        ExplainConfig::fast()
    } else {
        ExplainConfig::default()
    };
    let ws = workloads(opts);
    // (workload index, group description, paper group)
    type GroupSpec = (usize, &'static [(&'static str, &'static str)], &'static str);
    let specs: [GroupSpec; 3] = [
        (
            1,
            &[("Medu", "primary")],
            "p1 = {mother's education = primary}",
        ),
        (
            0,
            &[("age", "<36ish (youngest bin)")],
            "p2 = {age = younger than ~35}",
        ),
        (
            2,
            &[("status_checking", "0<=...<200 DM")],
            "p3 = {account status = 0≤…<200 DM}",
        ),
    ];
    for (wi, pairs, label) in specs {
        let w = &ws[wi];
        let audit = w.audit().unwrap();
        // Resolve the group pattern; for COMPAS "age" the youngest bin is
        // looked up dynamically (bin labels depend on the synthetic data).
        let pattern = if pairs[0].1.starts_with('<') {
            let a = audit.space().attr_by_name("age").expect("age attribute");
            rankfair::core::Pattern::single(a, 0)
        } else {
            match audit.space().pattern(pairs) {
                Some(p) => p,
                None => {
                    println!(
                        "\n### {} — {label}: group not present in synthetic data, skipped",
                        w.name
                    );
                    continue;
                }
            }
        };
        let (sd, count) = audit.index().counts(&pattern, 49.min(w.detection.n_rows()));
        println!(
            "\n### {} — {label} → {} (s_D = {sd}, top-49 = {count})",
            w.name,
            audit.describe(&pattern)
        );
        let surrogate = RankSurrogate::fit(&w.raw, &w.ranking, &explain_cfg);
        println!("surrogate in-sample R² = {:.3}", surrogate.fit_quality());
        let members = audit.group_members(&pattern);
        let ex = surrogate.explain_group(&members);
        println!("aggregated Shapley values (top 6):");
        print!("{}", ex.render(6));
        let top_attr = ex.ranked_attributes()[0].0.clone();
        let topk: Vec<u32> = w.ranking.top_k(49.min(w.detection.n_rows())).to_vec();
        let cmp = compare_distributions(&w.raw, &top_attr, &topk, &members);
        println!("value distribution of `{top_attr}` (top-k vs group):");
        print!("{}", cmp.render());
        println!("total variation distance: {:.3}", cmp.total_variation());
    }
    Vec::new()
}

/// §VI-D case study vs. the divergence framework.
fn casestudy(opts: &Opts) -> Vec<String> {
    println!("\n## §VI-D case study: detection vs. divergence (Student, 4 attributes, k = 10)");
    let w = student_workload(if opts.quick { 200 } else { 0 }, opts.seed);
    let attrs = ["school", "sex", "age", "address"];
    let audit = rankfair::core::Audit::builder(w.detection.clone())
        .ranking(w.ranking.clone())
        .attributes(attrs)
        .build()
        .unwrap();
    let cfg = DetectConfig::new(50, 10, 10);

    let g_task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(10)));
    let p_task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
    let global = audit.run(&cfg, &g_task, Engine::Optimized).unwrap();
    let prop = audit.run(&cfg, &p_task, Engine::Optimized).unwrap();
    let mut t = Table::new(&["method", "groups", "examples"]);
    let describe = |pats: &[rankfair::core::Pattern]| {
        pats.iter()
            .take(3)
            .map(|p| audit.describe(p))
            .collect::<Vec<_>>()
            .join(" ")
    };
    t.row(&[
        "GlobalBounds".into(),
        global.per_k[0].under.len().to_string(),
        describe(&global.per_k[0].under),
    ]);
    t.row(&[
        "PropBounds".into(),
        prop.per_k[0].under.len().to_string(),
        describe(&prop.per_k[0].under),
    ]);
    let cols: Vec<usize> = attrs
        .iter()
        .map(|a| w.detection.column_index(a).unwrap())
        .collect();
    let div = divergent_subgroups(
        &w.detection,
        &w.ranking,
        10,
        &DivergenceConfig {
            min_support: 0.13,
            max_len: 0,
            columns: Some(cols),
        },
    );
    let div_examples = div
        .iter()
        .take(3)
        .map(|s| display_items(&w.detection, &s.items))
        .collect::<Vec<_>>()
        .join(" ");
    t.row(&["Divergence[27]".into(), div.len().to_string(), div_examples]);
    print!("{}", t.render());
    let subsumed = div
        .iter()
        .filter(|a| {
            div.iter().any(|b| {
                b.items.len() < a.items.len() && b.items.iter().all(|i| a.items.contains(i))
            })
        })
        .count();
    println!(
        "{subsumed}/{} divergence subgroups are subsumed by another; detection outputs only most general patterns",
        div.len()
    );
    println!(
        "(paper, real data: PropBounds 2 groups ⊂ GlobalBounds 5 groups ⊂ divergence 28 groups)"
    );
    Vec::new()
}

/// §III: fraction of parameter settings reporting < 100 groups.
fn resultsize(opts: &Opts) -> Vec<String> {
    println!("\n## §III: size of the reported result sets across a parameter grid");
    let mut total = 0usize;
    let mut small = 0usize;
    let mut max_seen = 0usize;
    let attrs = if opts.quick { 8 } else { 11 };
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs);
        for tau in [30, 50, 80] {
            let proportional = [0.6, 0.8, 1.0].map(|alpha| BiasMeasure::Proportional { alpha });
            for measure in proportional.into_iter().chain([paper_measure(true)]) {
                let task = AuditTask::UnderRep(measure);
                let out = audit
                    .run(&DetectConfig::new(tau, 10, 49), &task, Engine::Optimized)
                    .unwrap();
                for kr in &out.per_k {
                    total += 1;
                    max_seen = max_seen.max(kr.under.len());
                    if kr.under.len() < 100 {
                        small += 1;
                    }
                }
            }
        }
    }
    println!(
        "{small}/{total} = {:.2}% of result sets have < 100 groups (max seen: {max_seen}); paper reports 97.58%",
        100.0 * small as f64 / total as f64
    );
    Vec::new()
}

/// Beyond the paper: runtime as the dataset grows (synthetic COMPAS rows
/// scaled up; default parameters). Both algorithms scan the data only
/// through the bitmap index, so growth should be near-linear in n.
fn scaling(opts: &Opts) -> Vec<String> {
    println!("\n## Extra: runtime vs dataset size (synthetic COMPAS, 11 attributes)");
    let mut t = Table::new(&[
        "rows",
        "IterTD_ms",
        "PropBounds_ms",
        "GlobalBounds_ms",
        "groups_prop",
    ]);
    let sizes: &[usize] = if opts.quick {
        &[2000, 8000]
    } else {
        &[2000, 5000, 10_000, 20_000, 50_000]
    };
    let cfg = paper_config(opts.timeout);
    let (proportional, global) = (paper_measure(false), paper_measure(true));
    for &rows in sizes {
        let w = compas_workload(rows, opts.seed);
        let audit = audit_with_attrs(&w, 11);
        let base = run(&audit, &cfg, &proportional, Engine::Baseline);
        let prop = run(&audit, &cfg, &proportional, Engine::Optimized);
        let glob = run(&audit, &cfg, &global, Engine::Optimized);
        t.row(&[
            rows.to_string(),
            fmt_ms(&base),
            fmt_ms(&prop),
            fmt_ms(&glob),
            prop.groups_reported.to_string(),
        ]);
    }
    print!("{}", t.render());
    Vec::new()
}

/// Over-representation engines: the incremental upper engine (one build,
/// per-`k` subtree walks and frontier deltas) vs. the brute-force
/// baseline. Prints a table and writes `BENCH_overrep.json`.
fn overrep(opts: &Opts) -> Vec<String> {
    println!("\n## Over-representation: incremental engine vs brute force");
    let attrs = if opts.quick { 6 } else { 9 };
    // Step upper bounds in the shape of the paper's lower-bound defaults:
    // the top-k may contain at most ~60% of its slots from one group.
    let upper = Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)]);
    let mut bench = Bench::new(
        "overrep",
        "BENCH_overrep.json",
        &[
            "dataset",
            "rows",
            "incremental_ms",
            "baseline_ms",
            "inc_evals",
            "groups",
        ],
    );
    bench
        .config("tau_s", 50usize)
        .config("k_min", 10usize)
        .config("k_max", 49usize)
        .config("upper", "steps(10:6,20:12,30:18,40:24)");
    for w in &workloads(opts) {
        let attrs = attrs.min(w.attr_names().len());
        let audit = audit_with_attrs(w, attrs);
        let rows = w.detection.n_rows();
        let cfg = DetectConfig::new(50, 10, 49.min(rows)).with_deadline(opts.timeout);
        let task = AuditTask::OverRep {
            upper: upper.clone(),
            scope: OverRepScope::MostSpecific,
        };
        let (inc, inc_ms) = timed(|| audit.run(&cfg, &task, Engine::Optimized).unwrap());
        let (base, base_ms) = timed(|| audit.run(&cfg, &task, Engine::Baseline).unwrap());

        // Both engines must agree on every k both of them completed.
        for (a, b) in inc.per_k.iter().zip(&base.per_k) {
            assert_eq!(a.over, b.over, "incremental vs baseline at k={}", a.k);
        }

        let groups = inc.total_groups();
        bench.row(
            &[
                w.name.to_string(),
                rows.to_string(),
                format!("{inc_ms:.1}"),
                format!(
                    "{base_ms:.1}{}",
                    if base.stats.timed_out { "*" } else { "" }
                ),
                inc.stats.nodes_evaluated.to_string(),
                groups.to_string(),
            ],
            Value::object([
                ("dataset", Value::from(w.name)),
                ("rows", Value::from(rows)),
                ("attrs", Value::from(attrs)),
                ("incremental_ms", Value::from(inc_ms)),
                ("baseline_ms", Value::from(base_ms)),
                ("incremental_evals", Value::from(inc.stats.nodes_evaluated)),
                ("incremental_touched", Value::from(inc.stats.nodes_touched)),
                ("groups", Value::from(groups)),
                ("baseline_timed_out", Value::from(base.stats.timed_out)),
            ]),
        );
    }
    bench.note("(* = hit the timeout)");
    bench.finish(opts)
}

/// Service throughput: cold queries (every request pays audit
/// construction — space + ranked index) vs. cached queries (all requests
/// share one cached audit) at 1/2/4/8 concurrent client workers against a
/// single `AuditService`. Prints a table and writes `BENCH_service.json`.
fn serve_bench(opts: &Opts) -> Vec<String> {
    use rankfair::service::{AuditRequest, AuditService, RankingSpec};

    println!("\n## AuditService throughput: cold (build per request) vs cached");
    let w = compas_workload(if opts.quick { 6889 / 4 } else { 0 }, opts.seed);
    let per_worker = if opts.quick { 4 } else { 16 };
    let order = w.ranking.order().to_vec();
    let raw = Arc::new(w.raw.clone());
    // The request carries the full preparation pipeline (the §VI-A COMPAS
    // bucketization), exactly as a wire client would send it: a cold
    // request pays dataset copy + bucketization + pattern space + ranked
    // index; a cached one skips all of it.
    let bucketize: Vec<(String, usize)> = [
        ("age", 4),
        ("juv_fel_count", 3),
        ("juv_misd_count", 3),
        ("juv_other_count", 3),
        ("priors_count", 4),
        ("days_b_screening_arrest", 3),
        ("c_days_from_compas", 4),
        ("start", 3),
        ("end", 4),
    ]
    .map(|(c, b)| (c.to_string(), b))
    .into_iter()
    .collect();
    // Single-k queries — the interactive serving shape ("who is biased in
    // the top 20?"). The k-range sweep is the batch shape benchmarked by
    // the other experiments; here the contrast under test is construction
    // (cold) vs. not (cached).
    let request_for = |dataset: String| AuditRequest {
        dataset,
        attributes: None,
        bucketize: bucketize.clone(),
        ranking: RankingSpec::Order(order.clone()),
        task: AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default())),
        config: DetectConfig::new(50, 20, 20),
        engine: Engine::Optimized,
    };

    let mut bench = Bench::new(
        "serve",
        "BENCH_service.json",
        &[
            "workers",
            "requests",
            "cold_ms",
            "cold_qps",
            "cached_ms",
            "cached_qps",
            "speedup",
        ],
    );
    bench
        .config("dataset", "compas")
        .config("rows", w.detection.n_rows())
        .config("tau_s", 50usize)
        .config("k_min", 20usize)
        .config("k_max", 20usize)
        .config("per_worker", per_worker);
    for workers in [1usize, 2, 4, 8] {
        let service = AuditService::new();
        let total = workers * per_worker;
        // Cold path: every request addresses a distinct alias of the same
        // in-memory dataset, so every request maps to a fresh cache key
        // and pays space + index construction.
        for i in 0..total {
            service.register_dataset(&format!("compas#{i}"), Arc::clone(&raw));
        }
        let ((), cold_ms) = timed(|| {
            std::thread::scope(|s| {
                for worker in 0..workers {
                    let (service, request_for) = (&service, &request_for);
                    s.spawn(move || {
                        for i in 0..per_worker {
                            let req = request_for(format!("compas#{}", worker * per_worker + i));
                            let resp = service.handle(&req).expect("bench request");
                            assert!(!resp.cache.hit, "cold request must not hit");
                        }
                    });
                }
            })
        });
        assert_eq!(service.cache_stats(), (0, total as u64));

        // Cached path: one shared key, warmed once; every request after
        // the warm-up skips construction.
        service.register_dataset("compas", Arc::clone(&raw));
        let warm_req = request_for("compas".to_string());
        let warm = service.handle(&warm_req).expect("warm-up");
        assert!(!warm.cache.hit);
        let ((), cached_ms) = timed(|| {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let (service, warm_req) = (&service, &warm_req);
                    s.spawn(move || {
                        for _ in 0..per_worker {
                            let resp = service.handle(warm_req).expect("bench request");
                            assert!(resp.cache.hit, "warmed request must hit");
                        }
                    });
                }
            })
        });

        let cold_qps = total as f64 / (cold_ms / 1000.0);
        let cached_qps = total as f64 / (cached_ms / 1000.0);
        bench.row(
            &[
                workers.to_string(),
                total.to_string(),
                format!("{cold_ms:.1}"),
                format!("{cold_qps:.0}"),
                format!("{cached_ms:.1}"),
                format!("{cached_qps:.0}"),
                format!("{:.1}x", cached_qps / cold_qps),
            ],
            Value::object([
                ("workers", Value::from(workers)),
                ("requests", Value::from(total)),
                ("cold_ms", Value::from(cold_ms)),
                ("cold_qps", Value::from(cold_qps)),
                ("cached_ms", Value::from(cached_ms)),
                ("cached_qps", Value::from(cached_qps)),
            ]),
        );
    }
    bench.note("(cold = fresh cache key per request; cached = one warmed key shared by all)");
    bench.finish(opts)
}

/// Speedup floors of the `--quick` monitor bench, guarding the
/// persistent-engine-state win in CI. Quick mode runs COMPAS/4 with 8
/// batches on shared runners; the floors sit below the measured quick numbers to absorb timing noise while still
/// catching a collapse back to pre-checkpoint behavior (delta ≈ rebuild
/// at batch=1; delta ≈ 0.6× at batch=16 when the span seek is broken).
/// With arena-backed stores, run-state snapshots and segmented replay
/// the measured quick numbers are ~16-20× at batch=1, ~2.2-2.5× on the
/// dense batch=16 workload, and ~10-13× on the sparse two-cluster
/// batch=16 workload where segmented replay skips the dead middle of the
/// hull. The dense batch=16 case replays ~37 of the 40 audited `k`
/// values, so its ratio is capped near (fixed rebuild cost + per-`k`
/// work) / per-`k` work ≈ 2.8× — the floor sits at 2.0× (was 1.2× under
/// hull replay) to stay noise-proof, and the ≥ 4× segmented-replay
/// guarantee is gated on the sparse workload, whose changed-`k` set is
/// genuinely small. The floors compare against `trimmed_ratio` (the
/// untrimmed ratio is still reported).
const QUICK_FLOOR_BATCH_1: f64 = 6.0;
const QUICK_FLOOR_BATCH_16: f64 = 2.0;
const QUICK_FLOOR_BATCH_16_SPARSE: f64 = 4.0;

/// Live monitor: delta re-audit after small edit batches vs. a full audit
/// rebuild (space + index construction + whole-`k`-range run) after every
/// batch, on COMPAS. Prints a table and writes `BENCH_monitor.json`; with
/// `--quick` it also checks the speedup floors above.
fn monitor_bench(opts: &Opts) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rankfair::core::MonitorAudit;

    println!("\n## Live monitor: delta re-audit vs full rebuild per edit batch (COMPAS)");
    let attrs = if opts.quick { 6 } else { 9 };
    let w = compas_workload(if opts.quick { 6889 / 4 } else { 0 }, opts.seed);
    let n = w.detection.n_rows();
    // Materialize the ranking as a continuous score column (position-
    // derived, so the monitor's order matches the workload's ranking
    // exactly and score edits move tuples by a controlled distance).
    let mut ds = (*w.detection).clone();
    let scores: Vec<f64> = (0..n)
        .map(|row| {
            let row = u32::try_from(row).expect("bench row ids fit TupleId");
            (n - w.ranking.position(row)) as f64
        })
        .collect();
    ds.push_column(rankfair::data::Column::numeric("__score", scores))
        .expect("fresh column name");
    let attr_names: Vec<String> = w.attr_names().into_iter().take(attrs).collect();

    let cfg = DetectConfig::new(50, 10, 49.min(n));
    let task = AuditTask::Combined {
        lower: Bounds::paper_default(),
        upper: Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)]),
    };

    let batches: usize = if opts.quick { 8 } else { 40 };
    let mut bench = Bench::new(
        "monitor",
        "BENCH_monitor.json",
        &[
            "batch_size",
            "batches",
            "delta_ms",
            "rebuild_ms",
            "speedup",
            "recomputed_k",
            "changes",
            "seeks/repairs",
        ],
    );
    bench
        .config("dataset", "compas")
        .config("rows", n)
        .config("attrs", attrs)
        .config("tau_s", 50usize)
        .config("k_min", 10usize)
        .config("k_max", 49.min(n))
        .config(
            "task",
            "combined(paper_default, steps(10:6,20:12,30:18,40:24))",
        );
    let cases = [
        (1usize, false, Some(QUICK_FLOOR_BATCH_1)),
        (4, false, None),
        (16, false, Some(QUICK_FLOOR_BATCH_16)),
        (16, true, Some(QUICK_FLOOR_BATCH_16_SPARSE)),
    ];
    for (batch_size, sparse, floor) in cases {
        let mut monitor = MonitorAudit::builder(ds.clone(), "__score")
            .attributes(attr_names.iter().cloned())
            .build(cfg.clone(), task.clone(), Engine::Optimized)
            .expect("monitor build");
        let mut rng = StdRng::seed_from_u64(opts.seed ^ batch_size as u64 ^ (sparse as u64) << 8);
        let mut delta_times: Vec<f64> = Vec::with_capacity(batches);
        let mut rebuild_times: Vec<f64> = Vec::with_capacity(batches);
        let mut recomputed_k = 0usize;
        let mut changes = 0usize;
        for _ in 0..batches {
            let ranking = monitor.ranking();
            let edits: Vec<rankfair::core::RankingEdit> = (0..batch_size)
                .map(|i| {
                    let (pos, nudge) = if sparse {
                        // Sparse shape: two tight clusters near the ends of
                        // the audited k window, each row nudged by 1–2
                        // positions. The net-movement hull spans most of the
                        // window but the true changed-k set is two short
                        // segments — the case segmented replay exists for.
                        let base = if i % 2 == 0 { 12 } else { 45.min(n - 3) };
                        (
                            base + rng.random_range(0..2usize),
                            rng.random_range(1..=2usize),
                        )
                    } else {
                        // Contested-region edits: rows currently ranked near
                        // the audited k window, nudged by up to ~25 positions
                        // — the live-traffic shape where the top-k actually
                        // churns. (Edits far below the window would recompute
                        // nothing and make the comparison trivially
                        // flattering.)
                        (
                            rng.random_range(0..80usize.min(n)),
                            rng.random_range(1..=25usize),
                        )
                    };
                    let row = ranking.at(pos);
                    let up: bool = rng.random();
                    let score = (n - pos) as f64 + if up { nudge as f64 } else { -(nudge as f64) };
                    rankfair::core::RankingEdit::ScoreUpdate { row, score }
                })
                .collect();
            let (delta, delta_ms) = timed(|| monitor.apply(&edits).expect("apply"));
            delta_times.push(delta_ms);
            // Sum the segments actually replayed, not the hull width — the
            // two differ exactly when segmented replay pays off.
            recomputed_k += delta
                .segments
                .iter()
                .map(|&(lo, hi)| hi - lo + 1)
                .sum::<usize>();
            changes += delta.total_changes();

            // The alternative a monitor-less server pays per batch: re-rank
            // the edited scores from scratch (O(n log n) sort), rebuild the
            // audit (pattern space + bitmap index) and run the whole k
            // range.
            let snapshot = Arc::new(monitor.dataset().clone());
            let ranker = rankfair::rank::AttributeRanker::by_desc("__score");
            // The audit is returned so that its drop stays out of the timing.
            let ((_audit, full), rebuild_ms) = timed(|| {
                let audit = rankfair::core::Audit::builder(Arc::clone(&snapshot))
                    .ranker(&ranker)
                    .attributes(attr_names.iter().cloned())
                    .build()
                    .expect("audit build");
                let full = audit
                    .run(&cfg, &task, Engine::Optimized)
                    .expect("audit run");
                (audit, full)
            });
            rebuild_times.push(rebuild_ms);
            assert_eq!(
                monitor.results(),
                &full.per_k[..],
                "delta re-audit diverged from full rebuild"
            );
        }
        let delta_ms: f64 = delta_times.iter().sum();
        let rebuild_ms: f64 = rebuild_times.iter().sum();
        let speedup = rebuild_ms / delta_ms.max(1e-9);
        let speedup_trimmed = trimmed_ratio(&rebuild_times, &delta_times);
        let ck = monitor
            .checkpoint_stats()
            .expect("optimized monitor keeps engine state");
        let label = if sparse {
            format!("{batch_size} (sparse)")
        } else {
            batch_size.to_string()
        };
        bench.row(
            &[
                label.clone(),
                batches.to_string(),
                format!("{delta_ms:.2}"),
                format!("{rebuild_ms:.2}"),
                format!("{speedup:.1}x"),
                recomputed_k.to_string(),
                changes.to_string(),
                format!("{}/{}", ck.seeks, ck.repairs),
            ],
            Value::object([
                ("batch_size", Value::from(batch_size)),
                (
                    "workload",
                    Value::from(if sparse { "sparse" } else { "dense" }),
                ),
                ("batches", Value::from(batches)),
                ("delta_ms", Value::from(delta_ms)),
                ("rebuild_ms", Value::from(rebuild_ms)),
                ("speedup", Value::from(speedup)),
                ("speedup_trimmed", Value::from(speedup_trimmed)),
                ("recomputed_k", Value::from(recomputed_k)),
                ("changes", Value::from(changes)),
                ("checkpoints", ck.to_json()),
            ]),
        );
        if let Some(floor) = floor {
            bench.floor(
                &format!("batch={label} trimmed delta-vs-rebuild speedup"),
                speedup_trimmed,
                floor,
            );
        }
    }
    bench.note("(every batch cross-checked: monitor results == fresh audit of the edited ranking)");
    bench.finish(opts)
}

/// Parallel-speedup floor of the `--quick` shard bench at 4 shards.
/// Shard builds only fan out when the host has cores to fan out to, so
/// the floor is **core-count-aware**: hosts with fewer than 4 cores skip
/// it (correctness is still fully checked) instead of failing.
const SHARD_QUICK_FLOOR_AT_4: f64 = 1.5;
const SHARD_FLOOR_MIN_CORES: usize = 4;

/// Sharded audit at scale: a seeded synthetic dataset (10M+ rows; quick
/// mode shrinks it for CI smoke) audited through `RankedIndex::sharded`
/// at several shard counts, every outcome cross-checked against the
/// unsharded audit, plus a subsampled control re-audited both ways.
/// Prints a table and writes `BENCH_shard.json` (scale + parallel-speedup
/// numbers); with `--quick` it checks the speedup floor above when the
/// host has enough cores.
fn shard_bench(opts: &Opts) -> Vec<String> {
    use rankfair::core::Audit;
    use rankfair::rank::Ranking;
    use rankfair::synth::{
        random_dataset_block, random_dataset_streamed, random_ranking, RandomSpec,
    };

    let cores = host_cores();
    let rows: usize = if opts.quick { 200_000 } else { 10_000_000 };
    let shard_counts: &[usize] = if opts.quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let spec = RandomSpec {
        rows,
        attrs: 6,
        max_card: 5,
    };
    println!("\n## Sharded audit at scale ({rows} rows, {cores} core(s))");

    // Streaming generation: the whole table in one pass. The per-row
    // generator makes every block a pure function of (seed, row), checked
    // below at scale against an independently generated block.
    let (ds, gen_ms) = timed(|| Arc::new(random_dataset_streamed(opts.seed, spec)));
    println!(
        "generated {} rows x {} attrs in {:.1}s",
        ds.n_rows(),
        ds.n_cols(),
        gen_ms / 1000.0
    );
    // Split-invariance spot check at scale: a mid-table block generated
    // on its own must reproduce the streamed table bit-for-bit.
    let lo = rows / 2;
    let block = random_dataset_block(opts.seed, spec, lo, lo + 1_000);
    for r in 0..block.n_rows() {
        for c in 0..block.n_cols() {
            assert_eq!(
                block.code(r, c),
                ds.code(lo + r, c),
                "streamed generation is not split-invariant at row {}",
                lo + r
            );
        }
    }

    let order = random_ranking(opts.seed, rows);
    let ranking = Ranking::from_order(order).expect("permutation");
    let cfg = DetectConfig::new(rows / 20, 10, 49);
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(20)));

    let mut bench = Bench::new(
        "shard",
        "BENCH_shard.json",
        &[
            "shards", "build_ms", "run_ms", "speedup", "groups", "patterns",
        ],
    );
    bench
        .config("rows", rows)
        .config("attrs", spec.attrs)
        .config("max_card", spec.max_card)
        .config("tau_s", rows / 20)
        .config("k_min", 10usize)
        .config("k_max", 49usize)
        .config("task", "under(global_lower=20)")
        .config("generate_ms", gen_ms);
    let mut unsharded: Option<(rankfair::core::AuditOutcome, f64)> = None;
    for &shards in shard_counts {
        let (audit, build_ms) = timed(|| {
            Audit::builder(Arc::clone(&ds))
                .ranking(ranking.clone())
                .shards(shards)
                .build()
                .expect("audit build")
        });
        assert_eq!(audit.index().shard_count(), shards);
        let (out, run_ms) = timed(|| {
            audit
                .run(&cfg, &task, Engine::Optimized)
                .expect("audit run")
        });
        // Correctness gate: every sharded outcome must equal the
        // unsharded audit of the same task, k for k. The speedup is
        // end-to-end (index build + run): shard builds fan out over one
        // thread per shard, and counting reads the shards one after
        // another.
        let total_ms = build_ms + run_ms;
        let speedup = match &unsharded {
            None => {
                unsharded = Some((out.clone(), total_ms));
                1.0
            }
            Some((base, base_ms)) => {
                assert_eq!(
                    base.per_k, out.per_k,
                    "sharded audit ({shards} shards) diverged from unsharded"
                );
                base_ms / total_ms.max(1e-9)
            }
        };
        if shards == 4 && cores >= SHARD_FLOOR_MIN_CORES {
            bench.floor(
                "end-to-end speedup at 4 shards",
                speedup,
                SHARD_QUICK_FLOOR_AT_4,
            );
        }
        bench.row(
            &[
                shards.to_string(),
                format!("{build_ms:.1}"),
                format!("{run_ms:.1}"),
                format!("{speedup:.2}x"),
                out.total_groups().to_string(),
                out.stats.patterns_examined().to_string(),
            ],
            Value::object([
                ("shards", Value::from(shards)),
                ("build_ms", Value::from(build_ms)),
                ("run_ms", Value::from(run_ms)),
                ("speedup_vs_unsharded", Value::from(speedup)),
                ("groups", Value::from(out.total_groups())),
                (
                    "patterns_examined",
                    Value::from(out.stats.patterns_examined()),
                ),
            ]),
        );
    }
    bench.note("(every shard count cross-checked: sharded per-k results == unsharded audit)");

    // Subsampled control: a small prefix of the same streamed table (its
    // own dataset by split-invariance), audited sharded and unsharded.
    let control_rows = (rows / 100).max(10_000).min(rows);
    let control_spec = RandomSpec {
        rows: control_rows,
        ..spec
    };
    let control = Arc::new(random_dataset_block(
        opts.seed,
        control_spec,
        0,
        control_rows,
    ));
    let control_ranking =
        Ranking::from_order(random_ranking(opts.seed ^ 1, control_rows)).expect("permutation");
    let control_cfg = DetectConfig::new(control_rows / 20, 10, 49);
    let base = Audit::builder(Arc::clone(&control))
        .ranking(control_ranking.clone())
        .build()
        .expect("control build")
        .run(&control_cfg, &task, Engine::Optimized)
        .expect("control run");
    for shards in [3usize, 7] {
        let out = Audit::builder(Arc::clone(&control))
            .ranking(control_ranking.clone())
            .shards(shards)
            .build()
            .expect("control build")
            .run(&control_cfg, &task, Engine::Optimized)
            .expect("control run");
        assert_eq!(
            base.per_k, out.per_k,
            "subsampled control diverged at {shards} shards"
        );
    }
    bench.note(format!(
        "(subsampled control: {control_rows} rows re-audited at 3 and 7 shards, equal)"
    ));
    bench.config("control_rows", control_rows);
    if opts.quick && cores < SHARD_FLOOR_MIN_CORES {
        bench.note(format!(
            "speedup floor skipped: {cores} core(s) < {SHARD_FLOOR_MIN_CORES} (correctness \
             still checked above)"
        ));
    }
    bench.finish(opts)
}

/// The qps floor and p99 ceiling of the `--quick` network bench.
/// Deliberately loose — shared CI runners are slow and 1-core containers
/// serialize everything — they catch order-of-magnitude regressions
/// (an accidental global barrier, a lost flush), not few-percent drift.
const NET_QUICK_MIN_QPS: f64 = 50.0;
const NET_QUICK_MAX_P99_MS: f64 = 2_000.0;

/// Network serving: mixed audit/update/snapshot traffic from concurrent
/// TCP connections against `serve-net`, spread over 64 distinct monitors
/// (each with its own dataset registry entry, so the per-resource lanes
/// can actually parallelize). Measures per-class round-trip latency
/// (p50/p99) and total qps; writes `BENCH_net.json`; with `--quick`
/// checks the limits above.
fn serve_net_bench(opts: &Opts) -> Vec<String> {
    use rankfair::service::net::{serve_net, NetListeners, NetOptions};
    use rankfair::service::AuditService;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const MONITORS: usize = 64;
    const CLIENTS: usize = 8;
    let rounds = if opts.quick { 4 } else { 16 };
    let rows = if opts.quick { 200 } else { 600 };
    let cores = host_cores();
    println!("\n## serve-net: mixed audit/update/snapshot over {MONITORS} monitors ({CLIENTS} connections, {cores} core(s))");

    let ds = Arc::new(rankfair::synth::student(rankfair::synth::SynthConfig::new(
        rows, 5,
    )));
    let service = AuditService::new();
    // One registry entry per monitor: updates to different monitors hold
    // different dataset lanes and different monitor lanes — nothing
    // global between them but the worker pool itself.
    for m in 0..MONITORS {
        service.register_dataset(&format!("ds{m}"), Arc::clone(&ds));
    }
    let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).expect("bind loopback");
    let addr = listeners
        .local_addrs()
        .remove(0)
        .strip_prefix("tcp:")
        .expect("tcp addr")
        .to_string();
    let handle = listeners.handle();
    let net_opts = NetOptions {
        workers: cores.clamp(2, 8),
        strip_timing: true,
        idle_timeout: Duration::from_secs(60),
        ..NetOptions::default()
    };

    let audit_line = |m: usize| {
        format!(
            concat!(
                r#"{{"dataset": "ds{}", "ranking": {{"rank_by": "G3"}}, "#,
                r#""task": {{"type": "under", "measure": {{"type": "global", "lower": 2}}}}, "#,
                r#""config": {{"tau": 10, "kmin": 5, "kmax": 40}}, "#,
                r#""attributes": ["school", "sex", "address"]}}"#
            ),
            m
        )
    };
    let register_line = |m: usize| {
        format!(
            concat!(
                r#"{{"op": "register_monitor", "name": "m{}", "dataset": "ds{}", "#,
                r#""rank_by": "G3", "task": {{"type": "under", "measure": {{"type": "global", "lower": 2}}}}, "#,
                r#""config": {{"tau": 10, "kmin": 5, "kmax": 40}}, "#,
                r#""attributes": ["school", "sex", "address"]}}"#
            ),
            m, m
        )
    };
    let update_line = |m: usize, round: usize| {
        // Deterministic score churn: every monitor sees a different edit
        // stream, every round moves a different row.
        let row = (round * 31 + m * 7) % rows;
        let score = ((round * 13 + m * 17) % 200) as f64 / 10.0;
        format!(
            r#"{{"op": "update", "monitor": "m{m}", "edits": [{{"edit": "score", "row": {row}, "score": {score}}}]}}"#
        )
    };
    let snapshot_line = |m: usize| format!(r#"{{"op": "snapshot", "monitor": "m{m}"}}"#);

    // (elapsed total, per-class latencies)
    let (elapsed_ms, per_class) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(&service, listeners, &net_opts));
        let (per_class, elapsed_ms) = timed(|| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let addr = addr.clone();
                    let (audit_line, register_line, update_line, snapshot_line) =
                        (&audit_line, &register_line, &update_line, &snapshot_line);
                    scope.spawn(move || {
                        let conn = TcpStream::connect(&addr).expect("connect");
                        conn.set_nodelay(true).expect("nodelay");
                        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                        let mut conn = conn;
                        let mut line = String::new();
                        let mut roundtrip = |req: &str| -> f64 {
                            let ((), ms) = timed(|| {
                                // One write per request: a trailing-newline write
                                // of its own would sit in Nagle's buffer waiting
                                // for the delayed ACK.
                                conn.write_all(format!("{req}\n").as_bytes()).expect("send");
                                line.clear();
                                reader.read_line(&mut line).expect("recv");
                                assert!(line.contains(r#""ok":true"#), "request failed: {line}");
                            });
                            ms
                        };
                        // This connection owns an eighth of the monitors.
                        let mine: Vec<usize> = (0..MONITORS).filter(|m| m % CLIENTS == c).collect();
                        for &m in &mine {
                            roundtrip(&register_line(m));
                        }
                        let mut lat = [Vec::new(), Vec::new(), Vec::new()];
                        for round in 0..rounds {
                            for &m in &mine {
                                lat[0].push(roundtrip(&update_line(m, round)));
                                lat[1].push(roundtrip(&snapshot_line(m)));
                                lat[2].push(roundtrip(&audit_line(m)));
                            }
                        }
                        lat
                    })
                })
                .collect();
            let mut per_class = [Vec::new(), Vec::new(), Vec::new()];
            for h in clients {
                let lat = h.join().expect("client thread");
                for (all, mine) in per_class.iter_mut().zip(lat) {
                    all.extend(mine);
                }
            }
            per_class
        });
        handle.shutdown();
        let summary = server.join().expect("server thread");
        assert_eq!(summary.errors, 0, "bench traffic must not error");
        (elapsed_ms, per_class)
    });

    let pct = |sorted: &[f64], p: f64| {
        let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len().saturating_sub(1));
        sorted.get(idx).copied().unwrap_or(0.0)
    };
    let mut bench = Bench::new(
        "serve_net",
        "BENCH_net.json",
        &["class", "count", "p50_ms", "p99_ms", "max_ms"],
    );
    bench
        .config("rows", rows)
        .config("monitors", MONITORS)
        .config("clients", CLIENTS)
        .config("workers", net_opts.workers)
        .config("rounds", rounds);
    let mut total = 0usize;
    let mut worst_p99 = 0.0f64;
    for (class, mut lat) in ["update", "snapshot", "audit"].into_iter().zip(per_class) {
        lat.sort_by(|a, b| a.total_cmp(b));
        let (p50, p99) = (pct(&lat, 0.50), pct(&lat, 0.99));
        let max = lat.last().copied().unwrap_or(0.0);
        total += lat.len();
        worst_p99 = worst_p99.max(p99);
        bench.row(
            &[
                class.to_string(),
                lat.len().to_string(),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
                format!("{max:.2}"),
            ],
            Value::object([
                ("class", Value::from(class)),
                ("count", Value::from(lat.len())),
                ("p50_ms", Value::from(p50)),
                ("p99_ms", Value::from(p99)),
                ("max_ms", Value::from(max)),
            ]),
        );
    }
    let qps = total as f64 / (elapsed_ms / 1000.0);
    bench.note(format!(
        "({total} round-trip requests plus {MONITORS} registrations in {elapsed_ms:.1} ms — {qps:.0} qps)"
    ));
    bench.member("qps", qps).member("elapsed_ms", elapsed_ms);
    bench.floor("qps", qps, NET_QUICK_MIN_QPS);
    bench.ceiling("worst p99 ms", worst_p99, NET_QUICK_MAX_P99_MS);
    bench.finish(opts)
}

/// Theorem 3.3: the adversarial instance is exponential.
fn worstcase(opts: &Opts) -> Vec<String> {
    println!("\n## Theorem 3.3: worst-case instance (n attributes, n+1 tuples, k = n)");
    let mut t = Table::new(&[
        "n",
        "C(n,n/2)",
        "global_groups",
        "global_ms",
        "prop_groups",
        "prop_ms",
    ]);
    let cap = if opts.quick { 12 } else { 18 };
    for n in (4..=cap).step_by(2) {
        let (ds, order) = rankfair::synth::worst_case(n);
        let ranking = rankfair::rank::Ranking::from_order(order).unwrap();
        let audit = rankfair::core::Audit::builder(std::sync::Arc::new(ds))
            .ranking(ranking)
            .build()
            .unwrap();
        let cfg = DetectConfig::new(1, n, n).with_deadline(opts.timeout);
        let g_task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(n / 2 + 1)));
        let (g, g_ms) = timed(|| audit.run(&cfg, &g_task, Engine::Optimized).unwrap());
        let alpha = (n as f64 + 3.0) / (n as f64 + 4.0);
        let p_task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha });
        let (p, p_ms) = timed(|| audit.run(&cfg, &p_task, Engine::Optimized).unwrap());
        let cell = |out: &rankfair::core::AuditOutcome, ms: f64| match out.per_k.first() {
            Some(kr) if !out.stats.timed_out => (kr.under.len().to_string(), format!("{ms:.1}")),
            _ => ("-".to_string(), "TIMEOUT".to_string()),
        };
        let (g_groups, g_time) = cell(&g, g_ms);
        let (p_groups, p_time) = cell(&p, p_ms);
        t.row(&[
            n.to_string(),
            rankfair::synth::worst_case_result_count(n).to_string(),
            g_groups,
            g_time,
            p_groups,
            p_time,
        ]);
        if g.stats.timed_out && p.stats.timed_out {
            break;
        }
    }
    print!("{}", t.render());
    println!("(result counts grow as C(n, n/2) — exponential, matching the theorem)");
    Vec::new()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = parse_args(&args).unwrap_or_else(|e| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: {e}\nusage: experiments <id> [--timeout SECS] [--seed N] [--quick]\nids: {} all",
            ids.join(" ")
        );
        std::process::exit(2);
    });
    println!(
        "# rankfair experiments — reproducing ICDE 2023 §VI (seed {}, timeout {:?}{})",
        opts.seed,
        opts.timeout,
        if opts.quick { ", quick mode" } else { "" }
    );
    let failed: Vec<String> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| cmd == "all" || cmd == *id)
        .flat_map(|(_, experiment)| experiment(&opts))
        .collect();
    for gate in &failed {
        eprintln!("GATE FAILED: {gate}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Opts), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_reads_an_id_and_every_flag() {
        let defaults = Opts {
            timeout: Duration::from_secs(10),
            seed: 42,
            quick: false,
        };
        assert_eq!(parse(&[]), Ok(("all".to_string(), defaults)));
        let (cmd, opts) = parse(&["--seed", "7", "monitor", "--quick", "--timeout", "5"]).unwrap();
        assert_eq!(cmd, "monitor");
        assert_eq!(
            opts,
            Opts {
                timeout: Duration::from_secs(5),
                seed: 7,
                quick: true,
            }
        );
    }

    #[test]
    fn parse_args_rejects_what_it_cannot_read() {
        for args in [
            &["monitor", "--quik"][..],
            &["monitor", "--timeout", "five"],
            &["monitor", "--timeout", "-1"],
            &["monitor", "--timeout"],
            &["monitor", "--seed"],
            &["--seed", "--quick", "monitor"],
            &["monitor", "shard"],
            &["monitr"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
