//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! Usage:
//!   experiments `<id>` [--timeout SECS] [--seed N] [--quick]
//!
//! ids: fig4 fig5 fig6 fig7 fig8 fig9 fig10 gain casestudy resultsize
//!      worstcase faststeps scaling overrep serve monitor shard serve-net all
//!
//! An unknown flag or id, a missing or non-integer value, or a second id
//! prints the usage and exits 2.
//!
//! `overrep`, `serve`, `monitor`, `shard` and `serve-net` additionally
//! write their measurements to `BENCH_overrep.json` / `BENCH_service.json`
//! / `BENCH_monitor.json` / `BENCH_shard.json` / `BENCH_net.json` in the
//! working directory.
//!
//! Absolute runtimes differ from the paper (Rust vs. the authors' Python
//! testbed, synthetic vs. real data); the reproduced claims are the curve
//! *shapes*: optimized ≪ baseline, gaps widening with attribute count and
//! k-range, runtime decreasing in τs, and the qualitative content of the
//! Shapley analysis and case study.

use std::sync::Arc;
use std::time::Duration;

use rankfair::core::{
    AuditKResult, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, OverRepScope,
};
use rankfair::explain::distribution::compare_distributions;
use rankfair::explain::{ExplainConfig, RankSurrogate};
use rankfair::prelude::{compas_workload, german_workload, student_workload, Workload};
use rankfair_bench::{
    audit_with_attrs, fmt_gain, fmt_ms, paper_defaults, run_algo, Algo, Measurement, Table,
};
use rankfair_divergence::{display_items, divergent_subgroups, DivergenceConfig};

#[derive(Debug, PartialEq)]
struct Opts {
    timeout: Duration,
    seed: u64,
    quick: bool,
}

/// Every experiment id, for the usage line.
const IDS: &str = "fig4 fig5 fig6 fig7 fig8 fig9 fig10 gain casestudy resultsize worstcase faststeps scaling overrep serve monitor shard serve-net all";

/// Host core count, recorded in every BENCH_*.json `config` so flat
/// worker-scaling curves from 1-core CI containers are machine-readably
/// distinguishable from real regressions.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parses the arguments after the program name: at most one experiment
/// id (default `all`) and the flags. An unknown flag, a flag without an
/// integer value, or a second id is an error, so a typo cannot run the
/// wrong mode.
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

/// Attribute sweep for one workload (Figures 4–5): x = #attributes,
/// y = runtime per algorithm.
fn attr_sweep(w: &Workload, global: bool, opts: &Opts) {
    let (cfg, bounds, alpha) = paper_defaults();
    let cfg = DetectConfig {
        deadline: Some(opts.timeout),
        ..cfg
    };
    let max_attrs = w.attr_names().len();
    let step = if opts.quick { 4 } else { 1 };
    let (measure, opt_algo) = if global {
        (BiasMeasure::GlobalLower(bounds), Algo::GlobalBounds)
    } else {
        (BiasMeasure::Proportional { alpha }, Algo::PropBounds)
    };
    let mut t = Table::new(&[
        "attrs",
        "IterTD_ms",
        &format!("{}_ms", opt_algo.name()),
        "base_patterns",
        "opt_patterns",
        "groups",
    ]);
    let mut base_dead = false;
    for n_attrs in (3..=max_attrs).step_by(step) {
        let audit = audit_with_attrs(w, n_attrs);
        let base = if base_dead {
            Measurement {
                elapsed: opts.timeout,
                patterns_examined: 0,
                groups_reported: 0,
                timed_out: true,
            }
        } else {
            run_algo(&audit, &cfg, &measure, Algo::IterTd)
        };
        if base.timed_out {
            base_dead = true; // the paper stops plotting after the timeout
        }
        let opt = run_algo(&audit, &cfg, &measure, opt_algo);
        t.row(&[
            n_attrs.to_string(),
            fmt_ms(&base),
            fmt_ms(&opt),
            base.patterns_examined.to_string(),
            opt.patterns_examined.to_string(),
            opt.groups_reported.to_string(),
        ]);
        if opt.timed_out {
            break;
        }
    }
    print!("{}", t.render());
}

fn fig45(global: bool, opts: &Opts) {
    let fig = if global { "Figure 4" } else { "Figure 5" };
    let measure = if global {
        "global bounds"
    } else {
        "proportional representation"
    };
    for w in &workloads(opts) {
        println!(
            "\n## {fig}: runtime vs #attributes — {} dataset ({measure})",
            w.name
        );
        attr_sweep(w, global, opts);
    }
}

/// τs sweep (Figures 6–7).
fn fig67(global: bool, opts: &Opts) {
    let fig = if global { "Figure 6" } else { "Figure 7" };
    let (base_cfg, bounds, alpha) = paper_defaults();
    let attrs = if opts.quick { 8 } else { 11 };
    for w in &workloads(opts) {
        println!(
            "\n## {fig}: runtime vs size threshold τs — {} dataset ({} attributes)",
            w.name, attrs
        );
        let audit = audit_with_attrs(w, attrs);
        let (measure, opt_algo) = if global {
            (BiasMeasure::GlobalLower(bounds.clone()), Algo::GlobalBounds)
        } else {
            (BiasMeasure::Proportional { alpha }, Algo::PropBounds)
        };
        let mut t = Table::new(&[
            "tau_s",
            "IterTD_ms",
            &format!("{}_ms", opt_algo.name()),
            "groups",
        ]);
        let taus: Vec<usize> = if opts.quick {
            vec![10, 50, 100]
        } else {
            (10..=100).step_by(10).collect()
        };
        for tau in taus {
            let cfg = DetectConfig {
                tau_s: tau,
                deadline: Some(opts.timeout),
                ..base_cfg.clone()
            };
            let base = run_algo(&audit, &cfg, &measure, Algo::IterTd);
            let opt = run_algo(&audit, &cfg, &measure, opt_algo);
            t.row(&[
                tau.to_string(),
                fmt_ms(&base),
                fmt_ms(&opt),
                opt.groups_reported.to_string(),
            ]);
        }
        print!("{}", t.render());
    }
}

/// k-range sweep (Figures 8–9).
fn fig89(global: bool, opts: &Opts) {
    let fig = if global { "Figure 8" } else { "Figure 9" };
    let attrs = if opts.quick { 8 } else { 11 };
    let (_, bounds, alpha) = paper_defaults();
    for w in &workloads(opts) {
        let n = w.detection.n_rows();
        // COMPAS sweeps k_max to 1000, the smaller datasets to 350 (§VI-B).
        let hard_cap = if w.name == "compas" { 1000 } else { 350 };
        let cap = hard_cap.min(n);
        println!(
            "\n## {fig}: runtime vs range of k (k_min = 10) — {} dataset ({} attributes)",
            w.name, attrs
        );
        let audit = audit_with_attrs(w, attrs);
        let (measure, opt_algo) = if global {
            (BiasMeasure::GlobalLower(bounds.clone()), Algo::GlobalBounds)
        } else {
            (BiasMeasure::Proportional { alpha }, Algo::PropBounds)
        };
        let mut t = Table::new(&[
            "k_max",
            "IterTD_ms",
            &format!("{}_ms", opt_algo.name()),
            "base_patterns",
            "opt_patterns",
        ]);
        let step = if opts.quick { 150 } else { 50 };
        let mut k_max = 50;
        while k_max <= cap {
            let cfg = DetectConfig::new(50, 10, k_max).with_deadline(opts.timeout);
            let base = run_algo(&audit, &cfg, &measure, Algo::IterTd);
            let opt = run_algo(&audit, &cfg, &measure, opt_algo);
            t.row(&[
                k_max.to_string(),
                fmt_ms(&base),
                fmt_ms(&opt),
                base.patterns_examined.to_string(),
                opt.patterns_examined.to_string(),
            ]);
            k_max += step;
        }
        print!("{}", t.render());
    }
}

/// §VI-B search-space gain table.
fn gain(opts: &Opts) {
    println!("\n## §VI-B: search-space gain of the optimized algorithms (patterns examined)");
    let attrs = if opts.quick { 8 } else { 11 };
    let (cfg, bounds, alpha) = paper_defaults();
    let cfg = DetectConfig {
        deadline: Some(opts.timeout),
        ..cfg
    };
    let mut t = Table::new(&["dataset", "problem", "IterTD", "optimized", "gain_%"]);
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs);
        for global in [true, false] {
            let (measure, opt_algo, label) = if global {
                (
                    BiasMeasure::GlobalLower(bounds.clone()),
                    Algo::GlobalBounds,
                    "global",
                )
            } else {
                (
                    BiasMeasure::Proportional { alpha },
                    Algo::PropBounds,
                    "proportional",
                )
            };
            let base = run_algo(&audit, &cfg, &measure, Algo::IterTd);
            let opt = run_algo(&audit, &cfg, &measure, opt_algo);
            t.row(&[
                w.name.to_string(),
                label.to_string(),
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
}

/// Figure 10: Shapley analysis of p1 (Student), p2 (COMPAS), p3 (German).
fn fig10(opts: &Opts) {
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
}

/// §VI-D case study vs. the divergence framework.
fn casestudy(opts: &Opts) {
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
}

/// §III: fraction of parameter settings reporting < 100 groups.
fn resultsize(opts: &Opts) {
    println!("\n## §III: size of the reported result sets across a parameter grid");
    let mut total = 0usize;
    let mut small = 0usize;
    let mut max_seen = 0usize;
    let attrs = if opts.quick { 8 } else { 11 };
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs);
        for tau in [30, 50, 80] {
            for alpha in [0.6, 0.8, 1.0] {
                let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha });
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
            let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default()));
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
    println!(
        "{small}/{total} = {:.2}% of result sets have < 100 groups (max seen: {max_seen}); paper reports 97.58%",
        100.0 * small as f64 / total as f64
    );
}

/// Ablation of the bound-step extension: Algorithm 2's rebuild-at-steps
/// vs. the node-store rescan (the streaming path's bound-step handling).
fn faststeps(opts: &Opts) {
    println!("\n## Ablation: bound-step handling in GlobalBounds (rebuild vs. rescan)");
    let attrs = if opts.quick { 8 } else { 11 };
    let (cfg, bounds, _) = paper_defaults();
    let cfg = DetectConfig {
        deadline: Some(opts.timeout),
        ..cfg
    };
    let mut t = Table::new(&[
        "dataset",
        "rebuild_ms",
        "rescan_ms",
        "rebuild_evals",
        "rescan_evals",
    ]);
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(bounds.clone()));
        let t0 = std::time::Instant::now();
        let rebuild = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let rebuild_ms = t0.elapsed().as_secs_f64() * 1000.0;
        // The streaming path applies the rescan extension at bound steps.
        let t0 = std::time::Instant::now();
        let mut stream = audit.run_streaming(&cfg, &task).unwrap();
        let rescan_per_k: Vec<AuditKResult> = stream.by_ref().collect();
        let rescan_evals = stream.stats().nodes_evaluated;
        let rescan_ms = t0.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(
            rebuild.per_k, rescan_per_k,
            "extension must be output-equivalent"
        );
        t.row(&[
            w.name.to_string(),
            format!("{rebuild_ms:.1}"),
            format!("{rescan_ms:.1}"),
            rebuild.stats.nodes_evaluated.to_string(),
            rescan_evals.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(identical outputs; the rescan never re-evaluates a pattern at a bound step)");
}

/// Beyond the paper: runtime as the dataset grows (synthetic COMPAS rows
/// scaled up; default parameters). Both algorithms scan the data only
/// through the bitmap index, so growth should be near-linear in n.
fn scaling(opts: &Opts) {
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
    let (cfg, bounds, alpha) = paper_defaults();
    let cfg = DetectConfig {
        deadline: Some(opts.timeout),
        ..cfg
    };
    for &rows in sizes {
        let w = compas_workload(rows, opts.seed);
        let audit = audit_with_attrs(&w, 11);
        let base = run_algo(
            &audit,
            &cfg,
            &BiasMeasure::Proportional { alpha },
            Algo::IterTd,
        );
        let prop = run_algo(
            &audit,
            &cfg,
            &BiasMeasure::Proportional { alpha },
            Algo::PropBounds,
        );
        let glob = run_algo(
            &audit,
            &cfg,
            &BiasMeasure::GlobalLower(bounds.clone()),
            Algo::GlobalBounds,
        );
        t.row(&[
            rows.to_string(),
            fmt_ms(&base),
            fmt_ms(&prop),
            fmt_ms(&glob),
            prop.groups_reported.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Over-representation engines: the incremental upper engine (one build,
/// per-`k` subtree walks and frontier deltas) vs. the brute-force
/// baseline. Prints a table and writes `BENCH_overrep.json`.
fn overrep(opts: &Opts) {
    println!("\n## Over-representation: incremental engine vs brute force");
    let attrs = if opts.quick { 6 } else { 9 };
    // Step upper bounds in the shape of the paper's lower-bound defaults:
    // the top-k may contain at most ~60% of its slots from one group.
    let upper = Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)]);
    let mut t = Table::new(&[
        "dataset",
        "rows",
        "incremental_ms",
        "baseline_ms",
        "inc_evals",
        "groups",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for w in &workloads(opts) {
        let audit = audit_with_attrs(w, attrs.min(w.attr_names().len()));
        let rows = w.detection.n_rows();
        let cfg = DetectConfig::new(50, 10, 49.min(rows)).with_deadline(opts.timeout);
        let task = AuditTask::OverRep {
            upper: upper.clone(),
            scope: OverRepScope::MostSpecific,
        };

        let t0 = std::time::Instant::now();
        let inc = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let inc_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let t0 = std::time::Instant::now();
        let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
        let base_ms = t0.elapsed().as_secs_f64() * 1000.0;

        // Both engines must agree on every k both of them completed.
        for (a, b) in inc.per_k.iter().zip(&base.per_k) {
            assert_eq!(a.over, b.over, "incremental vs baseline at k={}", a.k);
        }

        let groups = inc.total_groups();
        t.row(&[
            w.name.to_string(),
            rows.to_string(),
            format!("{inc_ms:.1}"),
            format!(
                "{base_ms:.1}{}",
                if base.stats.timed_out { "*" } else { "" }
            ),
            inc.stats.nodes_evaluated.to_string(),
            groups.to_string(),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"rows\": {}, \"attrs\": {}, ",
                "\"incremental_ms\": {:.3}, \"baseline_ms\": {:.3}, \"incremental_evals\": {}, ",
                "\"incremental_touched\": {}, \"groups\": {}, \"baseline_timed_out\": {}}}"
            ),
            w.name,
            rows,
            attrs.min(w.attr_names().len()),
            inc_ms,
            base_ms,
            inc.stats.nodes_evaluated,
            inc.stats.nodes_touched,
            groups,
            base.stats.timed_out,
        ));
    }
    print!("{}", t.render());
    println!("(* = hit the timeout)");
    let json = format!(
        "{{\n  \"bench\": \"overrep\",\n  \"config\": {{\"tau_s\": 50, \"k_min\": 10, \"k_max\": 49, \"upper\": \"steps(10:6,20:12,30:18,40:24)\", \"quick\": {}, \"timeout_s\": {}, \"cores\": {}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        opts.quick,
        opts.timeout.as_secs(),
        host_cores(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_overrep.json", &json) {
        Ok(()) => println!("wrote BENCH_overrep.json"),
        Err(e) => eprintln!("could not write BENCH_overrep.json: {e}"),
    }
}

/// Service throughput: cold queries (every request pays audit
/// construction — space + ranked index) vs. cached queries (all requests
/// share one cached audit) at 1/2/4/8 concurrent client workers against a
/// single `AuditService`. Prints a table and writes `BENCH_service.json`.
fn serve_bench(opts: &Opts) {
    use rankfair::json::Value;
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

    let mut t = Table::new(&[
        "workers",
        "requests",
        "cold_ms",
        "cold_qps",
        "cached_ms",
        "cached_qps",
        "speedup",
    ]);
    let mut json_rows: Vec<Value> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let service = AuditService::new();
        let total = workers * per_worker;
        // Cold path: every request addresses a distinct alias of the same
        // in-memory dataset, so every request maps to a fresh cache key
        // and pays space + index construction.
        for i in 0..total {
            service.register_dataset(&format!("compas#{i}"), Arc::clone(&raw));
        }
        let t0 = std::time::Instant::now();
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
        });
        let cold_s = t0.elapsed().as_secs_f64();
        assert_eq!(service.cache_stats(), (0, total as u64));

        // Cached path: one shared key, warmed once; every request after
        // the warm-up skips construction.
        service.register_dataset("compas", Arc::clone(&raw));
        let warm_req = request_for("compas".to_string());
        let warm = service.handle(&warm_req).expect("warm-up");
        assert!(!warm.cache.hit);
        let t0 = std::time::Instant::now();
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
        });
        let cached_s = t0.elapsed().as_secs_f64();

        let cold_qps = total as f64 / cold_s;
        let cached_qps = total as f64 / cached_s;
        t.row(&[
            workers.to_string(),
            total.to_string(),
            format!("{:.1}", cold_s * 1000.0),
            format!("{cold_qps:.0}"),
            format!("{:.1}", cached_s * 1000.0),
            format!("{cached_qps:.0}"),
            format!("{:.1}x", cached_qps / cold_qps),
        ]);
        json_rows.push(Value::object([
            ("workers", Value::from(workers)),
            ("requests", Value::from(total)),
            ("cold_ms", Value::from(cold_s * 1000.0)),
            ("cold_qps", Value::from(cold_qps)),
            ("cached_ms", Value::from(cached_s * 1000.0)),
            ("cached_qps", Value::from(cached_qps)),
        ]));
    }
    print!("{}", t.render());
    println!("(cold = fresh cache key per request; cached = one warmed key shared by all)");
    let json = Value::object([
        ("bench", Value::from("serve")),
        (
            "config",
            Value::object([
                ("dataset", Value::from("compas")),
                ("rows", Value::from(w.detection.n_rows())),
                ("tau_s", Value::from(50usize)),
                ("k_min", Value::from(20usize)),
                ("k_max", Value::from(20usize)),
                ("per_worker", Value::from(per_worker)),
                ("quick", Value::from(opts.quick)),
                ("cores", Value::from(host_cores())),
            ]),
        ),
        ("rows", Value::array(json_rows)),
    ]);
    match std::fs::write("BENCH_service.json", json.render() + "\n") {
        Ok(()) => println!("wrote BENCH_service.json"),
        Err(e) => eprintln!("could not write BENCH_service.json: {e}"),
    }
}

/// Speedup floors the `--quick` monitor bench enforces (exit 1 on
/// regression), guarding the persistent-engine-state win in CI. Quick
/// mode runs COMPAS/4 with 8 batches on shared runners; the floors sit
/// below the measured quick numbers to absorb timing noise while still
/// catching a collapse back to pre-checkpoint behavior (delta ≈ rebuild
/// at batch=1; delta ≈ 0.6× at batch=16 when the span seek is broken).
/// With arena-backed stores, counts-only snapshots and segmented replay
/// the measured quick numbers are ~16-20× at batch=1, ~2.2-2.5× on the
/// dense batch=16 workload, and ~10-13× on the sparse two-cluster
/// batch=16 workload where segmented replay skips the dead middle of the
/// hull. The dense batch=16 case replays ~37 of the 40 audited `k`
/// values, so its ratio is capped near (fixed rebuild cost + per-`k`
/// work) / per-`k` work ≈ 2.8× — the floor sits at 2.0× (was 1.2× under
/// hull replay) to stay noise-proof, and the ≥ 4× segmented-replay
/// guarantee is gated on the sparse workload, whose changed-`k` set is
/// genuinely small. The floors compare against a *trimmed* ratio — each
/// side's single slowest batch is dropped before summing (the untrimmed
/// ratio is still reported): a single scheduler hiccup in a ~1.5ms batch
/// series swings the total by 2×, while a real regression slows every
/// batch and the survivors still show it.
const QUICK_FLOOR_BATCH_1: f64 = 6.0;
const QUICK_FLOOR_BATCH_16: f64 = 2.0;
const QUICK_FLOOR_BATCH_16_SPARSE: f64 = 4.0;

/// Live monitor: delta re-audit after small edit batches vs. a full audit
/// rebuild (space + index construction + whole-`k`-range run) after every
/// batch, on COMPAS. Prints a table and writes `BENCH_monitor.json`; with
/// `--quick` it additionally enforces the speedup floors above.
fn monitor_bench(opts: &Opts) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rankfair::core::MonitorAudit;
    use rankfair::json::Value;

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
    let mut t = Table::new(&[
        "batch_size",
        "batches",
        "delta_ms",
        "rebuild_ms",
        "speedup",
        "recomputed_k",
        "changes",
        "seeks/repairs",
    ]);
    let mut json_rows: Vec<Value> = Vec::new();
    let mut floor_failures: Vec<String> = Vec::new();
    for (batch_size, sparse) in [(1usize, false), (4, false), (16, false), (16, true)] {
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
            let t0 = std::time::Instant::now();
            let delta = monitor.apply(&edits).expect("apply");
            delta_times.push(t0.elapsed().as_secs_f64());
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
            let t0 = std::time::Instant::now();
            let audit = rankfair::core::Audit::builder(Arc::clone(&snapshot))
                .ranker(&ranker)
                .attributes(attr_names.iter().cloned())
                .build()
                .expect("audit build");
            let full = audit
                .run(&cfg, &task, Engine::Optimized)
                .expect("audit run");
            rebuild_times.push(t0.elapsed().as_secs_f64());
            assert_eq!(
                monitor.results(),
                &full.per_k[..],
                "delta re-audit diverged from full rebuild"
            );
        }
        let delta_s: f64 = delta_times.iter().sum();
        let rebuild_s: f64 = rebuild_times.iter().sum();
        let speedup = rebuild_s / delta_s.max(1e-9);
        // The floor gates on a *trimmed* ratio — each side's single
        // slowest batch is dropped before summing. One scheduler hiccup in
        // an 8-batch × ~1.5ms series moves the untrimmed total by 2×
        // either way, and a flaky CI gate is worse than a slightly
        // later-firing one; a real regression slows every batch and the
        // seven survivors still show it. (A per-batch median would be
        // blind at batch=1, where most single-edit batches recompute
        // nothing and stay fast no matter how broken replay is.)
        let trimmed = |times: &[f64]| -> f64 {
            let max = times.iter().copied().fold(0.0f64, f64::max);
            times.iter().sum::<f64>() - max
        };
        let speedup_trimmed = trimmed(&rebuild_times) / trimmed(&delta_times).max(1e-9);
        let ck = monitor
            .checkpoint_stats()
            .expect("optimized monitor keeps engine state");
        let label = if sparse {
            format!("{batch_size} (sparse)")
        } else {
            batch_size.to_string()
        };
        t.row(&[
            label,
            batches.to_string(),
            format!("{:.2}", delta_s * 1000.0),
            format!("{:.2}", rebuild_s * 1000.0),
            format!("{speedup:.1}x"),
            recomputed_k.to_string(),
            changes.to_string(),
            format!("{}/{}", ck.seeks, ck.repairs),
        ]);
        json_rows.push(Value::object([
            ("batch_size", Value::from(batch_size)),
            (
                "workload",
                Value::from(if sparse { "sparse" } else { "dense" }),
            ),
            ("batches", Value::from(batches)),
            ("delta_ms", Value::from(delta_s * 1000.0)),
            ("rebuild_ms", Value::from(rebuild_s * 1000.0)),
            ("speedup", Value::from(speedup)),
            ("speedup_trimmed", Value::from(speedup_trimmed)),
            ("recomputed_k", Value::from(recomputed_k)),
            ("changes", Value::from(changes)),
            (
                "checkpoints",
                Value::object([
                    ("cadence", Value::from(ck.cadence)),
                    ("seeks", Value::from(ck.seeks as usize)),
                    ("repairs", Value::from(ck.repairs as usize)),
                    ("cold_builds", Value::from(ck.cold_builds as usize)),
                    ("replayed_steps", Value::from(ck.replayed_steps as usize)),
                    ("segments", Value::from(ck.segments as usize)),
                    ("prefix_recounts", Value::from(ck.prefix_recounts as usize)),
                    ("stored_nodes", Value::from(ck.stored_nodes)),
                    ("arena_nodes", Value::from(ck.arena_nodes)),
                ]),
            ),
        ]));
        let floor = match (batch_size, sparse) {
            (1, false) => Some(QUICK_FLOOR_BATCH_1),
            (16, false) => Some(QUICK_FLOOR_BATCH_16),
            (16, true) => Some(QUICK_FLOOR_BATCH_16_SPARSE),
            _ => None,
        };
        if let Some(floor) = floor {
            if opts.quick && speedup_trimmed < floor {
                floor_failures.push(format!(
                    "batch={batch_size}{}: trimmed delta-vs-rebuild speedup {speedup_trimmed:.2}x below the floor {floor}x",
                    if sparse { " (sparse)" } else { "" }
                ));
            }
        }
    }
    print!("{}", t.render());
    println!("(every batch cross-checked: monitor results == fresh audit of the edited ranking)");
    let json = Value::object([
        ("bench", Value::from("monitor")),
        (
            "config",
            Value::object([
                ("dataset", Value::from("compas")),
                ("rows", Value::from(n)),
                ("attrs", Value::from(attrs)),
                ("tau_s", Value::from(50usize)),
                ("k_min", Value::from(10usize)),
                ("k_max", Value::from(49.min(n))),
                (
                    "task",
                    Value::from("combined(paper_default, steps(10:6,20:12,30:18,40:24))"),
                ),
                ("seed", Value::from(opts.seed as usize)),
                ("quick", Value::from(opts.quick)),
                ("cores", Value::from(host_cores())),
            ]),
        ),
        ("rows", Value::array(json_rows)),
    ]);
    match std::fs::write("BENCH_monitor.json", json.render() + "\n") {
        Ok(()) => println!("wrote BENCH_monitor.json"),
        Err(e) => eprintln!("could not write BENCH_monitor.json: {e}"),
    }
    if !floor_failures.is_empty() {
        for f in &floor_failures {
            eprintln!("MONITOR BENCH REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

/// Parallel-speedup floor the `--quick` shard bench enforces at 4 shards
/// (exit 1 on regression). Per-shard counting only fans out when the host
/// has cores to fan out to, so the floor is **core-count-aware**: hosts
/// with fewer than 4 cores skip it (sharding degenerates to a sequential
/// merge there — correctness is still fully checked) instead of failing.
const SHARD_QUICK_FLOOR_AT_4: f64 = 1.5;
const SHARD_FLOOR_MIN_CORES: usize = 4;

/// Sharded audit at scale: a seeded synthetic dataset (10M+ rows; quick
/// mode shrinks it for CI smoke) audited through `RankedIndex::sharded`
/// at several shard counts, every outcome cross-checked against the
/// unsharded audit, plus a subsampled control re-audited both ways.
/// Prints a table and writes `BENCH_shard.json` (scale + parallel-speedup
/// numbers); with `--quick` it enforces the speedup floor above when the
/// host has enough cores.
fn shard_bench(opts: &Opts) {
    use rankfair::core::Audit;
    use rankfair::json::Value;
    use rankfair::rank::Ranking;
    use rankfair::synth::{
        random_dataset_block, random_dataset_streamed, random_ranking, RandomSpec,
    };

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
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
    let t0 = std::time::Instant::now();
    let ds = Arc::new(random_dataset_streamed(opts.seed, spec));
    let gen_s = t0.elapsed().as_secs_f64();
    println!(
        "generated {} rows x {} attrs in {:.1}s",
        ds.n_rows(),
        ds.n_cols(),
        gen_s
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

    let mut t = Table::new(&[
        "shards", "build_ms", "run_ms", "speedup", "groups", "patterns",
    ]);
    let mut json_rows: Vec<Value> = Vec::new();
    let mut unsharded: Option<(rankfair::core::AuditOutcome, f64)> = None;
    let mut speedup_at_floor: Option<f64> = None;
    for &shards in shard_counts {
        let t0 = std::time::Instant::now();
        let audit = Audit::builder(Arc::clone(&ds))
            .ranking(ranking.clone())
            .shards(shards)
            .build()
            .expect("audit build");
        let build_s = t0.elapsed().as_secs_f64();
        assert_eq!(audit.index().shard_count(), shards);
        let t0 = std::time::Instant::now();
        let out = audit
            .run(&cfg, &task, Engine::Optimized)
            .expect("audit run");
        let run_s = t0.elapsed().as_secs_f64();
        // Correctness gate: every sharded outcome must equal the
        // unsharded audit of the same task, k for k. The speedup is
        // end-to-end (index build + run): shard builds fan out over one
        // thread per shard, and per-shard counting fans out too once the
        // universe is large enough for scans to dominate spawn cost.
        let total_s = build_s + run_s;
        let speedup = match &unsharded {
            None => {
                unsharded = Some((out.clone(), total_s));
                1.0
            }
            Some((base, base_s)) => {
                assert_eq!(
                    base.per_k, out.per_k,
                    "sharded audit ({shards} shards) diverged from unsharded"
                );
                base_s / total_s.max(1e-9)
            }
        };
        if shards == 4 {
            speedup_at_floor = Some(speedup);
        }
        t.row(&[
            shards.to_string(),
            format!("{:.1}", build_s * 1000.0),
            format!("{:.1}", run_s * 1000.0),
            format!("{speedup:.2}x"),
            out.total_groups().to_string(),
            out.stats.patterns_examined().to_string(),
        ]);
        json_rows.push(Value::object([
            ("shards", Value::from(shards)),
            ("build_ms", Value::from(build_s * 1000.0)),
            ("run_ms", Value::from(run_s * 1000.0)),
            ("speedup_vs_unsharded", Value::from(speedup)),
            ("groups", Value::from(out.total_groups())),
            (
                "patterns_examined",
                Value::from(out.stats.patterns_examined()),
            ),
        ]));
    }
    print!("{}", t.render());
    println!("(every shard count cross-checked: sharded per-k results == unsharded audit)");

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
    println!("(subsampled control: {control_rows} rows re-audited at 3 and 7 shards, equal)");

    let json = Value::object([
        ("bench", Value::from("shard")),
        (
            "config",
            Value::object([
                ("rows", Value::from(rows)),
                ("attrs", Value::from(spec.attrs)),
                ("max_card", Value::from(spec.max_card)),
                ("tau_s", Value::from(rows / 20)),
                ("k_min", Value::from(10usize)),
                ("k_max", Value::from(49usize)),
                ("task", Value::from("under(global_lower=20)")),
                ("seed", Value::from(opts.seed as usize)),
                ("quick", Value::from(opts.quick)),
                ("cores", Value::from(cores)),
                ("generate_ms", Value::from(gen_s * 1000.0)),
                ("control_rows", Value::from(control_rows)),
            ]),
        ),
        ("rows", Value::array(json_rows)),
    ]);
    match std::fs::write("BENCH_shard.json", json.render() + "\n") {
        Ok(()) => println!("wrote BENCH_shard.json"),
        Err(e) => eprintln!("could not write BENCH_shard.json: {e}"),
    }

    if opts.quick {
        let speedup = speedup_at_floor.expect("4 shards is in every sweep");
        if cores < SHARD_FLOOR_MIN_CORES {
            println!(
                "speedup floor skipped: {cores} core(s) < {SHARD_FLOOR_MIN_CORES} (per-shard \
                 counting stays sequential; correctness still checked above)"
            );
        } else if speedup < SHARD_QUICK_FLOOR_AT_4 {
            eprintln!(
                "SHARD BENCH REGRESSION: speedup {speedup:.2}x at 4 shards below the floor \
                 {SHARD_QUICK_FLOOR_AT_4}x on a {cores}-core host"
            );
            std::process::exit(1);
        } else {
            println!("speedup floor met: {speedup:.2}x >= {SHARD_QUICK_FLOOR_AT_4}x at 4 shards");
        }
    }
}

/// Floors the `--quick` network bench enforces (exit 1 on regression).
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
/// enforces the floors above.
fn serve_net_bench(opts: &Opts) {
    use rankfair::json::Value;
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
    let (elapsed_s, per_class) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(&service, listeners, &net_opts));
        let t0 = std::time::Instant::now();
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
                        let t = std::time::Instant::now();
                        // One write per request: a trailing-newline write
                        // of its own would sit in Nagle's buffer waiting
                        // for the delayed ACK.
                        conn.write_all(format!("{req}\n").as_bytes()).expect("send");
                        line.clear();
                        reader.read_line(&mut line).expect("recv");
                        assert!(line.contains(r#""ok":true"#), "request failed: {line}");
                        t.elapsed().as_secs_f64() * 1000.0
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
        let elapsed_s = t0.elapsed().as_secs_f64();
        handle.shutdown();
        let summary = server.join().expect("server thread");
        assert_eq!(summary.errors, 0, "bench traffic must not error");
        (elapsed_s, per_class)
    });

    let pct = |sorted: &[f64], p: f64| {
        let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len().saturating_sub(1));
        sorted.get(idx).copied().unwrap_or(0.0)
    };
    let mut t = Table::new(&["class", "count", "p50_ms", "p99_ms", "max_ms"]);
    let mut json_rows: Vec<Value> = Vec::new();
    let mut total = 0usize;
    let mut worst_p99 = 0.0f64;
    for (class, mut lat) in ["update", "snapshot", "audit"].into_iter().zip(per_class) {
        lat.sort_by(|a, b| a.total_cmp(b));
        let (p50, p99) = (pct(&lat, 0.50), pct(&lat, 0.99));
        let max = lat.last().copied().unwrap_or(0.0);
        total += lat.len();
        worst_p99 = worst_p99.max(p99);
        t.row(&[
            class.to_string(),
            lat.len().to_string(),
            format!("{p50:.2}"),
            format!("{p99:.2}"),
            format!("{max:.2}"),
        ]);
        json_rows.push(Value::object([
            ("class", Value::from(class)),
            ("count", Value::from(lat.len())),
            ("p50_ms", Value::from(p50)),
            ("p99_ms", Value::from(p99)),
            ("max_ms", Value::from(max)),
        ]));
    }
    let qps = total as f64 / elapsed_s;
    print!("{}", t.render());
    println!(
        "({total} round-trip requests plus {MONITORS} registrations in {:.1} ms — {qps:.0} qps)",
        elapsed_s * 1000.0
    );

    let json = Value::object([
        ("bench", Value::from("serve_net")),
        (
            "config",
            Value::object([
                ("rows", Value::from(rows)),
                ("monitors", Value::from(MONITORS)),
                ("clients", Value::from(CLIENTS)),
                ("workers", Value::from(net_opts.workers)),
                ("rounds", Value::from(rounds)),
                ("seed", Value::from(opts.seed as usize)),
                ("quick", Value::from(opts.quick)),
                ("cores", Value::from(cores)),
            ]),
        ),
        ("qps", Value::from(qps)),
        ("elapsed_ms", Value::from(elapsed_s * 1000.0)),
        ("rows", Value::array(json_rows)),
    ]);
    match std::fs::write("BENCH_net.json", json.render() + "\n") {
        Ok(()) => println!("wrote BENCH_net.json"),
        Err(e) => eprintln!("could not write BENCH_net.json: {e}"),
    }

    if opts.quick {
        let mut failures = Vec::new();
        if qps < NET_QUICK_MIN_QPS {
            failures.push(format!("qps {qps:.1} below the floor {NET_QUICK_MIN_QPS}"));
        }
        if worst_p99 > NET_QUICK_MAX_P99_MS {
            failures.push(format!(
                "worst p99 {worst_p99:.1} ms above the ceiling {NET_QUICK_MAX_P99_MS} ms"
            ));
        }
        if failures.is_empty() {
            println!(
                "net floors met: {qps:.0} qps >= {NET_QUICK_MIN_QPS}, worst p99 {worst_p99:.1} ms <= {NET_QUICK_MAX_P99_MS} ms"
            );
        } else {
            for f in &failures {
                eprintln!("NET BENCH REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Theorem 3.3: the adversarial instance is exponential.
fn worstcase(opts: &Opts) {
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
        let t0 = std::time::Instant::now();
        let g = audit.run(&cfg, &g_task, Engine::Optimized).unwrap();
        let g_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let alpha = (n as f64 + 3.0) / (n as f64 + 4.0);
        let p_task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha });
        let t0 = std::time::Instant::now();
        let p = audit.run(&cfg, &p_task, Engine::Optimized).unwrap();
        let p_ms = t0.elapsed().as_secs_f64() * 1000.0;
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: experiments <id> [--timeout SECS] [--seed N] [--quick]\nids: {IDS}"
        );
        std::process::exit(2);
    });
    println!(
        "# rankfair experiments — reproducing ICDE 2023 §VI (seed {}, timeout {:?}{})",
        opts.seed,
        opts.timeout,
        if opts.quick { ", quick mode" } else { "" }
    );
    match cmd.as_str() {
        "fig4" => fig45(true, &opts),
        "fig5" => fig45(false, &opts),
        "fig6" => fig67(true, &opts),
        "fig7" => fig67(false, &opts),
        "fig8" => fig89(true, &opts),
        "fig9" => fig89(false, &opts),
        "fig10" => fig10(&opts),
        "gain" => gain(&opts),
        "casestudy" => casestudy(&opts),
        "resultsize" => resultsize(&opts),
        "worstcase" => worstcase(&opts),
        "faststeps" => faststeps(&opts),
        "scaling" => scaling(&opts),
        "overrep" => overrep(&opts),
        "serve" => serve_bench(&opts),
        "monitor" => monitor_bench(&opts),
        "shard" => shard_bench(&opts),
        "serve-net" => serve_net_bench(&opts),
        "all" => {
            fig45(true, &opts);
            fig45(false, &opts);
            fig67(true, &opts);
            fig67(false, &opts);
            fig89(true, &opts);
            fig89(false, &opts);
            gain(&opts);
            fig10(&opts);
            casestudy(&opts);
            resultsize(&opts);
            worstcase(&opts);
            faststeps(&opts);
            scaling(&opts);
            overrep(&opts);
            serve_bench(&opts);
            monitor_bench(&opts);
            shard_bench(&opts);
            serve_net_bench(&opts);
        }
        other => {
            eprintln!("unknown experiment `{other}`; expected one of: {IDS}");
            std::process::exit(2);
        }
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
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
