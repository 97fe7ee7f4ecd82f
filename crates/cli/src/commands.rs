//! The CLI subcommands, built directly on the library crates: every
//! detection path goes through the owned [`Audit`] API, so the CLI
//! exercises exactly what a server embedding the library would.

use std::sync::Arc;

use rankfair_core::{
    render_report, render_report_csv, Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine,
    MonitorAudit, OverRepScope,
};
use rankfair_data::csv::{read_csv, CsvOptions};
use rankfair_data::Dataset;
use rankfair_divergence::{display_items, divergent_subgroups, DivergenceConfig};
use rankfair_explain::{ExplainConfig, ForestParams, RankSurrogate};
use rankfair_rank::{AttributeRanker, Ranker, Ranking, SortKey};
use rankfair_service::net::{NetListeners, NetOptions};
use rankfair_service::serve::ServeOptions;
use rankfair_service::AuditService;

use crate::args::{parse_bucketize, parse_group, Flags};

/// A command failure, classified so `main` can map it to the right exit
/// code: **usage** errors (bad flags/values — the invocation itself is
/// wrong, exit 2) vs. **runtime** failures (missing files, data-dependent
/// errors, failed runs — exit 1). Scripts driving the CLI rely on the
/// distinction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation is malformed; rerunning it will never work.
    Usage(String),
    /// The invocation is well-formed but failed against this environment
    /// or data.
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) | CliError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

// Flag parsing/validation helpers all yield Strings describing a bad
// invocation; let `?` classify them as usage errors. Runtime failures are
// wrapped explicitly via `rt`.
impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

fn rt(e: impl ToString) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Loads the CSV and computes the ranking on the raw data — the shared
/// front half of every subcommand.
fn load(flags: &Flags) -> Result<(Arc<Dataset>, Ranking), CliError> {
    let path = flags.require("csv")?;
    let sep = flags
        .get("sep")
        .map(|s| s.chars().next().unwrap_or(','))
        .unwrap_or(',');
    let opts = CsvOptions {
        separator: sep,
        ..CsvOptions::default()
    };
    let raw = read_csv(path, &opts).map_err(|e| rt(format!("reading {path}: {e}")))?;

    let rank_col = flags.require("rank-by")?;
    if raw.column_index(rank_col).is_none() {
        return Err(rt(format!("--rank-by: no column named `{rank_col}`")));
    }
    let key = if flags.switch("asc") {
        SortKey::asc(rank_col)
    } else {
        SortKey::desc(rank_col)
    };
    let ranking = AttributeRanker::new(vec![key]).rank(&raw);
    Ok((Arc::new(raw), ranking))
}

/// Builds the audit: bucketization (as builder hooks on a private copy),
/// attribute restriction, and worker threads all come from flags.
fn build_audit(raw: &Arc<Dataset>, ranking: &Ranking, flags: &Flags) -> Result<Audit, CliError> {
    let mut builder = Audit::builder(Arc::clone(raw)).ranking(ranking.clone());
    if let Some(spec) = flags.get("bucketize") {
        for (col, bins) in parse_bucketize(spec)? {
            builder = builder.bucketize(&col, bins);
        }
    }
    if let Some(attrs) = flags.list("attrs") {
        builder = builder.attributes(attrs);
    }
    builder = builder.threads(flags.num("threads", 1)?);
    // `--shards` is only in the detect flag spec; the other commands fall
    // through to the default monolithic index.
    builder = builder.shards(flags.num("shards", 1)?);
    // Build failures are data-dependent (unknown attribute columns, failed
    // bucketization hooks): runtime, not usage.
    builder.build().map_err(rt)
}

fn parse_engine(flags: &Flags) -> Result<Engine, String> {
    if flags.switch("baseline") {
        // The deprecated alias must not silently override an explicit,
        // contradictory --engine choice.
        if flags.get("engine") == Some("optimized") {
            return Err("--baseline contradicts --engine optimized".to_string());
        }
        return Ok(Engine::Baseline);
    }
    match flags.get("engine").unwrap_or("optimized") {
        "optimized" => Ok(Engine::Optimized),
        "baseline" => Ok(Engine::Baseline),
        other => Err(format!(
            "--engine must be optimized or baseline, got `{other}`"
        )),
    }
}

fn parse_task(flags: &Flags) -> Result<AuditTask, String> {
    let lower = || -> Result<Bounds, String> { Ok(Bounds::constant(flags.num("lower", 10)?)) };
    let upper = || -> Result<Bounds, String> { Ok(Bounds::constant(flags.num("upper", 20)?)) };
    let scope = || -> Result<OverRepScope, String> {
        match flags.get("scope").unwrap_or("specific") {
            "specific" => Ok(OverRepScope::MostSpecific),
            "general" => Ok(OverRepScope::MostGeneral),
            other => Err(format!(
                "--scope must be specific or general, got `{other}`"
            )),
        }
    };
    let task = flags.get("task").unwrap_or("under");
    // Reject flags the chosen task would silently ignore: a dropped
    // measure changes the result set without any diagnostic.
    let reject = |flag: &str| -> Result<(), String> {
        if flags.get(flag).is_some() {
            return Err(format!("--{flag} does not apply to --task {task}"));
        }
        Ok(())
    };
    match task {
        "under" => {
            reject("upper")?;
            reject("scope")?;
            let measure = match flags.get("problem").unwrap_or("global") {
                "global" => {
                    reject("alpha")?;
                    BiasMeasure::GlobalLower(lower()?)
                }
                "prop" | "proportional" => {
                    reject("lower")?;
                    BiasMeasure::Proportional {
                        alpha: flags.num("alpha", 0.8)?,
                    }
                }
                other => return Err(format!("--problem must be global or prop, got `{other}`")),
            };
            Ok(AuditTask::UnderRep(measure))
        }
        "over" => {
            reject("problem")?;
            reject("alpha")?;
            reject("lower")?;
            Ok(AuditTask::OverRep {
                upper: upper()?,
                scope: scope()?,
            })
        }
        "combined" => {
            reject("problem")?;
            reject("alpha")?;
            reject("scope")?;
            Ok(AuditTask::Combined {
                lower: lower()?,
                upper: upper()?,
            })
        }
        other => Err(format!(
            "--task must be under, over or combined, got `{other}`"
        )),
    }
}

/// Parses `--tau/--kmin/--kmax` and validates the range: a malformed
/// range is a usage error, a well-formed one too large for *this*
/// dataset a runtime failure (the exit-code split scripts rely on).
fn parse_detect_config(flags: &Flags, n_rows: usize) -> Result<DetectConfig, CliError> {
    let tau: usize = flags.num("tau", 50)?;
    let k_min: usize = flags.num("kmin", 10)?;
    let k_max: usize = flags.num("kmax", 49)?;
    if k_min == 0 || k_min > k_max {
        return Err(CliError::Usage(format!(
            "invalid k range [{k_min}, {k_max}]"
        )));
    }
    if k_max > n_rows {
        return Err(rt(format!(
            "invalid k range [{k_min}, {k_max}] for {n_rows} rows"
        )));
    }
    Ok(DetectConfig::new(tau, k_min, k_max))
}

/// Keeps at most `top` groups per `k` **per direction**: the under block
/// precedes the over block, and a global cap would silently swallow
/// every over group.
fn truncate_reports(reports: &mut [rankfair_core::KReport], top: usize) {
    for r in reports {
        let mut under_seen = 0usize;
        let mut over_seen = 0usize;
        r.groups.retain(|g| {
            let seen = match g.direction {
                rankfair_core::BiasDirection::Under => &mut under_seen,
                rankfair_core::BiasDirection::Over => &mut over_seen,
            };
            *seen += 1;
            *seen <= top
        });
    }
}

/// `rankfair detect`.
pub fn detect(flags: &Flags) -> Result<(), CliError> {
    let (raw, ranking) = load(flags)?;
    let audit = build_audit(&raw, &ranking, flags)?;
    let mut cfg = parse_detect_config(flags, audit.dataset().n_rows())?;
    if let Some(secs) = flags.get("deadline") {
        let parsed: f64 = secs
            .parse()
            .map_err(|_| format!("--deadline must be a number of seconds, got `{secs}`"))?;
        // try_from_secs_f64 rejects NaN, negatives, and values past
        // u64::MAX seconds — from_secs_f64 would panic on the latter.
        let d = std::time::Duration::try_from_secs_f64(parsed).map_err(|_| {
            format!("--deadline must be a representable number of seconds (non-negative, below u64::MAX), got {secs}")
        })?;
        cfg = cfg.with_deadline(d);
    }
    let task = parse_task(flags)?;
    let engine = parse_engine(flags)?;
    // Validate the remaining output flags *before* the (possibly long)
    // run: a pure usage error must not cost minutes of computation first.
    let format = flags.get("format").unwrap_or("table");
    if !matches!(format, "table" | "csv" | "json") {
        return Err(CliError::Usage(format!(
            "--format must be table, csv or json, got `{format}`"
        )));
    }
    let top: usize = flags.num("top", 20)?;

    let out = audit.run(&cfg, &task, engine).map_err(rt)?;
    let mut reports = audit.report(&out, &task);
    truncate_reports(&mut reports, top);
    match format {
        "table" => print!("{}", render_report(&reports)),
        "csv" => print!("{}", render_report_csv(&reports)),
        "json" => {
            use rankfair_json::{ToJson, Value};
            let v = Value::object([
                (
                    "per_k",
                    rankfair_core::json::reports_json(&reports, audit.space()),
                ),
                ("stats", out.stats.to_json()),
            ]);
            println!("{v}");
        }
        _ => unreachable!("format validated before the run"),
    }
    eprintln!(
        "[{} groups over {} k values; {} patterns examined in {:.1?}; {} thread(s){}{}]",
        out.total_groups(),
        out.per_k.len(),
        out.stats.patterns_examined(),
        out.stats.elapsed,
        audit.threads(),
        match audit.index().shard_count() {
            0 | 1 => String::new(),
            s => format!(", {s} shards"),
        },
        if out.stats.timed_out {
            "; TIMED OUT — results truncated"
        } else {
            ""
        },
    );
    Ok(())
}

/// `rankfair explain`.
pub fn explain(flags: &Flags) -> Result<(), CliError> {
    let (raw, ranking) = load(flags)?;
    let audit = build_audit(&raw, &ranking, flags)?;
    let pairs = parse_group(flags.require("group")?)?;
    let refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(a, v)| (a.as_str(), v.as_str()))
        .collect();
    let pattern = audit
        .space()
        .pattern(&refs)
        .ok_or_else(|| rt("unknown attribute or value in --group"))?;
    let members = audit.group_members(&pattern);
    if members.is_empty() {
        return Err(rt("the group matches no tuples"));
    }
    let k: usize = flags.num("k", 49.min(raw.n_rows()))?;
    let (sd, count) = audit.index().counts(&pattern, k);
    println!(
        "group {} — s_D = {sd}, top-{k} = {count}",
        audit.describe(&pattern)
    );

    let config = ExplainConfig {
        forest: ForestParams {
            n_trees: flags.num("trees", 30)?,
            ..ForestParams::default()
        },
        shapley_samples: flags.num("samples", 48)?,
        ..ExplainConfig::default()
    };
    let surrogate = RankSurrogate::fit(&raw, &ranking, &config);
    println!("surrogate in-sample R² = {:.3}\n", surrogate.fit_quality());
    let ex = surrogate.explain_group(&members);
    println!("aggregated Shapley values (top 6 attributes):");
    print!("{}", ex.render(6));

    let top_attr = ex.ranked_attributes()[0].0.clone();
    let topk: Vec<u32> = ranking.top_k(k).to_vec();
    let cmp =
        rankfair_explain::distribution::compare_distributions(&raw, &top_attr, &topk, &members);
    println!("\nvalue distribution of `{top_attr}`:");
    print!("{}", cmp.render());
    Ok(())
}

/// `rankfair compare`.
pub fn compare(flags: &Flags) -> Result<(), CliError> {
    let (raw, ranking) = load(flags)?;
    let audit = build_audit(&raw, &ranking, flags)?;
    let k: usize = flags.num("k", 10)?;
    let tau: usize = flags.num("tau", 50)?;
    let cfg = DetectConfig::new(tau, k, k);

    let global_task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(
        flags.num("lower", 10)?,
    )));
    let prop_task = AuditTask::UnderRep(BiasMeasure::Proportional {
        alpha: flags.num("alpha", 0.8)?,
    });
    let global = audit
        .run(&cfg, &global_task, Engine::Optimized)
        .map_err(rt)?;
    let prop = audit.run(&cfg, &prop_task, Engine::Optimized).map_err(rt)?;
    println!("GlobalBounds ({} groups):", global.per_k[0].under.len());
    for p in &global.per_k[0].under {
        println!("  {}", audit.describe(p));
    }
    println!("\nPropBounds ({} groups):", prop.per_k[0].under.len());
    for p in &prop.per_k[0].under {
        println!("  {}", audit.describe(p));
    }

    let support: f64 = flags.num("support", 0.13)?;
    let detection = audit.dataset();
    let cols = flags.list("attrs").map(|attrs| {
        attrs
            .iter()
            .filter_map(|a| detection.column_index(a))
            .collect::<Vec<_>>()
    });
    let div = divergent_subgroups(
        detection,
        &ranking,
        k,
        &DivergenceConfig {
            min_support: support,
            max_len: 0,
            columns: cols,
        },
    );
    println!(
        "\nDivergence baseline ({} subgroups, five most negative):",
        div.len()
    );
    for s in div.iter().take(5) {
        println!(
            "  {:50} support {:>5}  divergence {:+.3}",
            display_items(detection, &s.items),
            s.support,
            s.divergence
        );
    }
    Ok(())
}

/// `rankfair demo` — the Figure 1 running example, both directions.
pub fn demo() -> Result<(), CliError> {
    let ds = Arc::new(rankfair_data::examples::students_fig1());
    let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
    let audit = Audit::builder(ds).ranker(&ranker).build().map_err(rt)?;
    println!("Figure 1 running example: 16 students, ranking by grade then failures.\n");

    let cfg = DetectConfig::new(4, 4, 5);
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
    let out = audit.run(&cfg, &task, Engine::Optimized).map_err(rt)?;
    println!("Global bounds (τs = 4, L = 2):");
    print!("{}", render_report(&audit.report(&out, &task)));

    let cfg = DetectConfig::new(5, 4, 5);
    let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.9 });
    let out = audit.run(&cfg, &task, Engine::Optimized).map_err(rt)?;
    println!("\nProportional (τs = 5, α = 0.9):");
    print!("{}", render_report(&audit.report(&out, &task)));

    let cfg = DetectConfig::new(4, 5, 5);
    let task = AuditTask::Combined {
        lower: Bounds::constant(2),
        upper: Bounds::constant(2),
    };
    let out = audit.run(&cfg, &task, Engine::Optimized).map_err(rt)?;
    println!("\nCombined lower + upper bounds (τs = 4, L = 2, U = 2):");
    print!("{}", render_report(&audit.report(&out, &task)));
    Ok(())
}

/// `rankfair monitor` — build a live monitor over a CSV and replay a
/// JSONL edit log against it, one delta re-audit per log line.
pub fn monitor(flags: &Flags) -> Result<(), CliError> {
    let path = flags.require("csv")?;
    let sep = flags
        .get("sep")
        .map(|s| s.chars().next().unwrap_or(','))
        .unwrap_or(',');
    let opts = CsvOptions {
        separator: sep,
        ..CsvOptions::default()
    };
    let ds = read_csv(path, &opts).map_err(|e| rt(format!("reading {path}: {e}")))?;
    let rank_col = flags.require("rank-by")?;
    let edits_path = flags.require("edits")?;
    let cfg = parse_detect_config(flags, ds.n_rows())?;
    let task = parse_task(flags)?;
    let engine = parse_engine(flags)?;
    let format = flags.get("format").unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(CliError::Usage(format!(
            "--format must be table or json, got `{format}`"
        )));
    }
    let top: usize = flags.num("top", 20)?;
    let cadence: usize = flags.num("checkpoint-every", MonitorAudit::DEFAULT_CHECKPOINT_CADENCE)?;
    if cadence == 0 {
        return Err(CliError::Usage(
            "--checkpoint-every must be at least 1".into(),
        ));
    }

    let mut builder = MonitorAudit::builder(ds, rank_col)
        .ascending(flags.switch("asc"))
        .checkpoint_every(cadence);
    if let Some(attrs) = flags.list("attrs") {
        builder = builder.attributes(attrs);
    }
    let mut monitor = builder.build(cfg.clone(), task, engine).map_err(rt)?;
    eprintln!(
        "[monitor over {} rows, ranked by `{rank_col}`; k in [{}, {}], τs = {}]",
        monitor.n_rows(),
        cfg.k_min,
        cfg.k_max,
        cfg.tau_s,
    );

    let log = std::fs::read_to_string(edits_path)
        .map_err(|e| rt(format!("reading {edits_path}: {e}")))?;
    let mut batches = 0usize;
    let mut edits_total = 0usize;
    let mut changes_total = 0usize;
    for (lineno, line) in log.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: &dyn std::fmt::Display| rt(format!("edit log line {}: {e}", lineno + 1));
        let v = rankfair_json::parse(line).map_err(|e| at(&e))?;
        let batch = match v.get("edits") {
            Some(arr) => {
                if let Some(pairs) = v.as_obj() {
                    if let Some((key, _)) = pairs.iter().find(|(k, _)| k != "edits") {
                        return Err(at(&format!("unknown member `{key}` in edit batch")));
                    }
                }
                rankfair_core::json::edits_from_json(arr, monitor.dataset())
            }
            None => rankfair_core::json::edit_from_json(&v, monitor.dataset()).map(|e| vec![e]),
        }
        .map_err(|e| at(&e))?;
        let delta = monitor.apply(&batch).map_err(|e| at(&e))?;
        batches += 1;
        edits_total += delta.edits;
        changes_total += delta.total_changes();
        match format {
            "json" => println!(
                "{}",
                rankfair_core::json::delta_report_json(&delta, monitor.space(), false).render()
            ),
            _ => {
                let span = match delta.recomputed {
                    Some((lo, hi)) => format!("re-audited k in [{lo}, {hi}]"),
                    None => "no top-k set changed".to_string(),
                };
                println!(
                    "[batch {batches}] {} edit(s); {span}; {} membership change(s)",
                    delta.edits,
                    delta.total_changes()
                );
                for kd in &delta.changed {
                    let mut parts: Vec<String> = Vec::new();
                    for (list, tag, sign) in [
                        (&kd.entered_under, "under", '+'),
                        (&kd.left_under, "under", '-'),
                        (&kd.entered_over, "over", '+'),
                        (&kd.left_over, "over", '-'),
                    ] {
                        for p in list {
                            parts.push(format!("{sign}{} ({tag})", monitor.describe(p)));
                        }
                    }
                    println!("  k={:<4} {}", kd.k, parts.join("  "));
                }
            }
        }
    }

    // Final state: the same report shape `detect` prints.
    let mut reports = monitor.reports();
    truncate_reports(&mut reports, top);
    match format {
        "json" => {
            use rankfair_json::Value;
            let v = Value::object([
                ("rows", Value::from(monitor.n_rows())),
                (
                    "per_k",
                    rankfair_core::json::reports_json(&reports, monitor.space()),
                ),
            ]);
            println!("{v}");
        }
        _ => {
            println!("\nFinal audit state after the edit log:");
            print!("{}", render_report(&reports));
        }
    }
    eprintln!(
        "[replayed {batches} batch(es), {edits_total} edit(s); {changes_total} membership change(s); {} rows; {} patterns examined in {:.1?}]",
        monitor.n_rows(),
        monitor.stats().patterns_examined(),
        monitor.stats().elapsed,
    );
    if let Some(ck) = monitor.checkpoint_stats() {
        eprintln!(
            "[engine checkpoints: every {} k, {}+{} live ({} snapshot nodes, {} arena nodes); {} seek(s), {} repair(s), {} cold build(s), {} replayed step(s) over {} segment(s), {} prefix recount(s), {} invalidated]",
            ck.cadence,
            ck.lower_checkpoints,
            ck.upper_checkpoints,
            ck.stored_nodes,
            ck.arena_nodes,
            ck.seeks,
            ck.repairs,
            ck.cold_builds,
            ck.replayed_steps,
            ck.segments,
            ck.prefix_recounts,
            ck.invalidated,
        );
    }
    Ok(())
}

/// `rankfair serve` — answer JSONL requests from stdin on stdout until
/// EOF, on a worker pool. See `rankfair_service::wire` for the protocol.
pub fn serve(flags: &Flags) -> Result<(), CliError> {
    let workers: usize = flags.num("workers", 1)?;
    let service = AuditService::new();
    // The Figure 1 example dataset ships preloaded so sessions (and the
    // golden-file CI check) work without any CSV on disk.
    service.register_dataset("fig1", Arc::new(rankfair_data::examples::students_fig1()));
    if let Some(specs) = flags.list("datasets") {
        for spec in specs {
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("--datasets entry `{spec}` must look like name=path"))?;
            let (rows, cols) = service.register_csv(name, path, ',').map_err(rt)?;
            eprintln!("[loaded {name} from {path}: {rows} rows, {cols} cols]");
        }
    }
    let opts = ServeOptions {
        workers,
        strip_timing: flags.switch("no-timing"),
    };
    let stdin = std::io::stdin();
    // `StdoutLock` is not `Send` (the writer runs on its own thread);
    // plain `Stdout` locks per write, which is fine for one writer.
    let summary = rankfair_service::serve::serve(&service, stdin.lock(), std::io::stdout(), &opts)
        .map_err(|e| rt(format!("serving: {e}")))?;
    eprintln!(
        "[served {} request(s), {} error(s); cache: {} audit(s), {} hit(s)/{} miss(es); {} worker(s)]",
        summary.requests,
        summary.errors,
        service.cache_len(),
        service.cache_stats().0,
        service.cache_stats().1,
        workers.max(1),
    );
    Ok(())
}

/// `rankfair serve-net` — serve the JSONL protocol over TCP and/or
/// Unix-domain sockets, one pipelined session per connection over a
/// shared worker pool, until an in-stream `{"op": "shutdown"}` drains the
/// server. See `rankfair_service::net`.
pub fn serve_net(flags: &Flags) -> Result<(), CliError> {
    let workers: usize = flags.num("workers", 4)?;
    let service = AuditService::new();
    // Same preload as `serve`: sessions work without any CSV on disk.
    service.register_dataset("fig1", Arc::new(rankfair_data::examples::students_fig1()));
    if let Some(specs) = flags.list("datasets") {
        for spec in specs {
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("--datasets entry `{spec}` must look like name=path"))?;
            let (rows, cols) = service.register_csv(name, path, ',').map_err(rt)?;
            eprintln!("[loaded {name} from {path}: {rows} rows, {cols} cols]");
        }
    }
    let listens = flags
        .list("listen")
        .unwrap_or_else(|| vec!["tcp:127.0.0.1:7878".to_string()]);
    let opts = NetOptions {
        workers,
        strip_timing: flags.switch("no-timing"),
        max_connections: flags.num("max-conns", 256)?,
        pipeline_window: flags.num("window", 64)?,
        max_line_bytes: flags.num("max-line-bytes", 1 << 20)?,
        idle_timeout: std::time::Duration::from_secs(flags.num("idle-timeout", 300)?),
    };
    let listeners = NetListeners::bind(&listens).map_err(|e| rt(format!("binding: {e}")))?;
    for addr in listeners.local_addrs() {
        eprintln!("[listening on {addr}]");
    }
    let summary = rankfair_service::net::serve_net(&service, listeners, &opts);
    eprintln!(
        "[served {} connection(s) ({} rejected at cap), {} request(s), {} error(s); cache: {} audit(s), {} hit(s)/{} miss(es); {} worker(s)]",
        summary.connections,
        summary.rejected,
        summary.requests,
        summary.errors,
        service.cache_len(),
        service.cache_stats().0,
        service.cache_stats().1,
        workers.max(1),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_flags, DETECT_SPEC, EXPLAIN_SPEC};

    fn detect_flags(args: &[&str]) -> Flags {
        parse_flags(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &DETECT_SPEC,
        )
        .unwrap()
    }

    fn explain_flags(args: &[&str]) -> Flags {
        parse_flags(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &EXPLAIN_SPEC,
        )
        .unwrap()
    }

    /// A private directory for test `test`: tests run in parallel threads
    /// and test binaries run concurrently, so a shared path would let one
    /// test rewrite a file another is reading.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rankfair_cli_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The seeded synthetic Student CSV, written into `test`'s own
    /// directory.
    fn student_csv(test: &str) -> std::path::PathBuf {
        let path = test_dir(test).join("student.csv");
        let ds = rankfair_synth::student(rankfair_synth::SynthConfig::new(150, 7));
        rankfair_data::csv::write_csv(&ds, &path, ',').unwrap();
        path
    }

    #[test]
    fn demo_runs() {
        demo().unwrap();
    }

    #[test]
    fn detect_runs_on_csv() {
        let path = student_csv("detect_runs_on_csv");
        let f = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--bucketize",
            "age=3,absences=4,G1=4,G2=4,G3=4",
            "--tau",
            "20",
            "--kmin",
            "5",
            "--kmax",
            "10",
            "--lower",
            "3",
        ]);
        detect(&f).unwrap();
    }

    #[test]
    fn detect_proportional_with_attr_subset() {
        let path = student_csv("detect_proportional_with_attr_subset");
        let f = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--problem",
            "prop",
            "--alpha",
            "0.8",
            "--tau",
            "20",
            "--kmin",
            "5",
            "--kmax",
            "10",
            "--attrs",
            "school,sex,address",
        ]);
        detect(&f).unwrap();
    }

    #[test]
    fn detect_over_and_combined_tasks() {
        let path = student_csv("detect_over_and_combined_tasks");
        for task in ["over", "combined"] {
            for engine in ["optimized", "baseline"] {
                let mut args = vec![
                    "--csv",
                    path.to_str().unwrap(),
                    "--rank-by",
                    "G3",
                    "--task",
                    task,
                    "--engine",
                    engine,
                    "--tau",
                    "20",
                    "--kmin",
                    "8",
                    "--kmax",
                    "10",
                    "--upper",
                    "5",
                    "--attrs",
                    "school,sex,address",
                ];
                if task == "combined" {
                    args.extend(["--lower", "3"]);
                }
                let f = detect_flags(&args);
                detect(&f).unwrap();
            }
        }
        // Flags the task would silently ignore are rejected instead.
        for (extra, task) in [
            (["--alpha", "0.8"], "over"),
            (["--upper", "5"], "under"),
            (["--problem", "prop"], "combined"),
        ] {
            let mut args = vec![
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                "--task",
                task,
            ];
            args.extend(extra);
            let f = detect_flags(&args);
            let err = detect(&f).unwrap_err();
            assert!(err.to_string().contains("does not apply"), "{err:?}");
            assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        }
        // Most-general scope parses and runs.
        let f = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--task",
            "over",
            "--scope",
            "general",
            "--tau",
            "20",
            "--kmin",
            "8",
            "--kmax",
            "9",
            "--upper",
            "4",
            "--attrs",
            "school,sex,address",
        ]);
        detect(&f).unwrap();
        // Bad task / engine / scope values are reported.
        for (flag, value, hint) in [
            ("--task", "sideways", "--task"),
            ("--engine", "quantum", "--engine"),
            ("--scope", "broad", "--scope"),
        ] {
            let mut args = vec![
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                flag,
                value,
            ];
            if flag == "--scope" {
                args.extend(["--task", "over"]);
            }
            let f = detect_flags(&args);
            assert!(detect(&f).unwrap_err().to_string().contains(hint));
        }
    }

    #[test]
    fn detect_multithreaded_matches_single() {
        // The CLI output goes to stdout; here we only assert both runs
        // succeed (byte-identity is covered by the library tests).
        let path = student_csv("detect_multithreaded_matches_single");
        for threads in ["1", "4"] {
            let f = detect_flags(&[
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                "--threads",
                threads,
                "--tau",
                "20",
                "--kmin",
                "5",
                "--kmax",
                "12",
                "--lower",
                "3",
                "--attrs",
                "school,sex,address",
            ]);
            detect(&f).unwrap();
        }
    }

    #[test]
    fn explain_runs_on_csv() {
        let path = student_csv("explain_runs_on_csv");
        let f = explain_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--group",
            "sex=F",
            "--k",
            "20",
            "--trees",
            "8",
            "--samples",
            "8",
        ]);
        explain(&f).unwrap();
    }

    #[test]
    fn compare_runs_on_csv() {
        let path = student_csv("compare_runs_on_csv");
        let f = parse_flags(
            &[
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                "--k",
                "10",
                "--tau",
                "20",
                "--support",
                "0.13",
                "--attrs",
                "school,sex,address",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
            &crate::args::COMPARE_SPEC,
        )
        .unwrap();
        compare(&f).unwrap();
    }

    #[test]
    fn detect_csv_format() {
        let path = student_csv("detect_csv_format");
        let f = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--bucketize",
            "G3=4",
            "--tau",
            "20",
            "--kmin",
            "5",
            "--kmax",
            "6",
            "--lower",
            "2",
            "--format",
            "csv",
        ]);
        detect(&f).unwrap();
        let bad = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--format",
            "xml",
        ]);
        let err = detect(&bad).unwrap_err();
        assert!(err.to_string().contains("--format"));
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn monitor_replays_an_edit_log() {
        let path = student_csv("monitor_replays_an_edit_log");
        let dir = test_dir("monitor_replays_an_edit_log");
        let log = dir.join("edits.jsonl");
        // A score batch, an insert (cells must cover every column of the
        // synthetic student CSV — build it from the dataset itself), and
        // a no-op nudge.
        let ds = rankfair_data::csv::read_csv(&path, &rankfair_data::csv::CsvOptions::default())
            .unwrap();
        let cells: Vec<String> = ds
            .columns()
            .iter()
            .map(|c| {
                if c.is_categorical() {
                    format!("{:?}: {:?}", c.name(), c.display(0))
                } else {
                    format!("{:?}: {}", c.name(), c.value(0))
                }
            })
            .collect();
        let log_text = format!(
            "{}\n{}\n{}\n",
            r#"{"edits": [{"edit": "score", "row": 3, "score": 19.5}, {"edit": "score", "row": 7, "score": 0.5}]}"#,
            format_args!(
                "{{\"edit\": \"insert\", \"cells\": {{{}}}}}",
                cells.join(", ")
            ),
            r#"{"edit": "score", "row": 3, "score": 19.5}"#,
        );
        std::fs::write(&log, log_text).unwrap();
        for format in ["table", "json"] {
            let f = parse_flags(
                &[
                    "--csv",
                    path.to_str().unwrap(),
                    "--rank-by",
                    "G3",
                    "--edits",
                    log.to_str().unwrap(),
                    "--task",
                    "combined",
                    "--lower",
                    "3",
                    "--upper",
                    "6",
                    "--tau",
                    "20",
                    "--kmin",
                    "5",
                    "--kmax",
                    "15",
                    "--attrs",
                    "school,sex,address",
                    "--format",
                    format,
                    "--checkpoint-every",
                    "3",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
                &crate::args::MONITOR_SPEC,
            )
            .unwrap();
            monitor(&f).unwrap();
        }
        // A zero cadence is a usage error, not a silent clamp.
        let f = parse_flags(
            &[
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                "--edits",
                log.to_str().unwrap(),
                "--checkpoint-every",
                "0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
            &crate::args::MONITOR_SPEC,
        )
        .unwrap();
        let err = monitor(&f).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // Malformed logs and bad flags fail loudly.
        let bad_log = dir.join("bad_edits.jsonl");
        std::fs::write(&bad_log, "{\"edit\": \"warp\"}\n").unwrap();
        let f = parse_flags(
            &[
                "--csv",
                path.to_str().unwrap(),
                "--rank-by",
                "G3",
                "--edits",
                bad_log.to_str().unwrap(),
                "--tau",
                "20",
                "--kmin",
                "5",
                "--kmax",
                "15",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
            &crate::args::MONITOR_SPEC,
        )
        .unwrap();
        let err = monitor(&f).unwrap_err();
        assert!(err.to_string().contains("edit log line 1"), "{err:?}");
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn missing_csv_flag_is_reported() {
        let f = detect_flags(&["--rank-by", "G3"]);
        let err = detect(&f).unwrap_err();
        assert!(err.to_string().contains("--csv"));
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn unknown_rank_column_is_reported() {
        let path = student_csv("unknown_rank_column_is_reported");
        let f = detect_flags(&["--csv", path.to_str().unwrap(), "--rank-by", "nope"]);
        let err = detect(&f).unwrap_err();
        assert!(err.to_string().contains("nope"));
        // The flag is well-formed; the *data* lacks the column: runtime.
        assert!(matches!(err, CliError::Runtime(_)), "{err:?}");
    }

    #[test]
    fn bad_k_range_is_reported() {
        let path = student_csv("bad_k_range_is_reported");
        let f = detect_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--kmin",
            "50",
            "--kmax",
            "10",
        ]);
        let err = detect(&f).unwrap_err();
        assert!(err.to_string().contains("invalid k range"));
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn unknown_group_value_is_reported() {
        let path = student_csv("unknown_group_value_is_reported");
        let f = explain_flags(&[
            "--csv",
            path.to_str().unwrap(),
            "--rank-by",
            "G3",
            "--group",
            "sex=Q",
        ]);
        let err = explain(&f).unwrap_err();
        assert!(err.to_string().contains("unknown attribute"));
        assert!(matches!(err, CliError::Runtime(_)), "{err:?}");
    }
}
