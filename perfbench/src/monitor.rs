//! `monitor-churn`: a live `MonitorAudit` over COMPAS (6 889 rows, 9
//! attributes, Combined task, default checkpoint cadence) receives a
//! seeded closed-loop stream of edit batches in three shapes: single
//! contested edits, dense 16-edit contested batches, and sparse
//! two-cluster 16-edit batches. This is the write path: checkpoint seek,
//! repair and replay plus the index's `rewrite_span`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rankfair_core::{
    Audit, AuditTask, Bounds, CheckpointStats, DetectConfig, Engine, MonitorAudit, PatternSpace,
    RankedIndex, RankingEdit,
};
use rankfair_data::{Column, Dataset};
use rankfair_rank::{AttributeRanker, Ranker, ScoredRanking};

use crate::gauge::Gauge;
use crate::metrics::Metrics;
use crate::stats::{median, windowed_tail, Samples};
use crate::trace::{overhead, Trace};
use crate::{compas, peak_rss_mb, setup_median, Outcome, RunConfig};

const ROWS: usize = 6889;
const ATTRS: usize = 9;
const SCORE: &str = "__score";
/// Batches between two checks against a fresh audit.
const CHECK_EVERY: u64 = 64;
/// Most batches one run times: about four times what a 15-second run
/// takes today. The sample buffers are this large from the start.
const MAX_BATCHES: usize = 1 << 18;
/// The monitor's arenas grow with every distinct pattern the stream
/// reaches, so its memory grows with the batches done: `peak_rss_mb` is
/// read after this many batches (or at the end of a shorter run), so that
/// a faster monitor does not read as a bigger one.
const RSS_AT_BATCH: u64 = 1 << 14;
/// How often the host gauge is read, between batches.
const GAUGE_EVERY: Duration = Duration::from_millis(100);

struct Input {
    /// The bucketized dataset with the score column, as the monitor
    /// started from (pattern columns never change under score edits).
    dataset: Dataset,
    attrs: Vec<String>,
    monitor: MonitorAudit,
}

fn setup(seed: u64) -> Result<Input, String> {
    let raw = compas::permuted(ROWS, 0, seed);
    let ranking = compas::ranker().rank(&raw);
    let mut dataset = raw;
    compas::bucketize(&mut dataset)?;
    // The ranking as a score column: position-derived, so score edits
    // move tuples by a controlled distance.
    let scores = (0..ROWS)
        .map(|row| (ROWS - ranking.position(row as u32)) as f64)
        .collect();
    dataset
        .push_column(Column::numeric(SCORE, scores))
        .map_err(|e| e.to_string())?;
    let attrs: Vec<String> = dataset
        .columns()
        .iter()
        .take(ATTRS)
        .map(|c| c.name().to_string())
        .collect();
    let cfg = DetectConfig::new(50, 10, 49);
    let task = AuditTask::Combined {
        lower: Bounds::paper_default(),
        upper: compas::upper_bounds(),
    };
    let monitor = MonitorAudit::builder(dataset.clone(), SCORE)
        .attributes(attrs.iter().cloned())
        .build(cfg, task, Engine::Optimized)
        .map_err(|e| format!("monitor build: {e}"))?;
    Ok(Input {
        dataset,
        attrs,
        monitor,
    })
}

/// One batch of the stream, in one of the three shapes, against the
/// current order (`order[pos]` is the row at rank position `pos`).
fn next_batch(rng: &mut StdRng, order: &[u32]) -> Vec<RankingEdit> {
    let n = order.len();
    let (size, sparse) = match rng.random_range(0..3u32) {
        0 => (1, false),
        1 => (16, false),
        _ => (16, true),
    };
    (0..size)
        .map(|i| {
            let (pos, nudge) = if sparse {
                // Two tight clusters near the ends of the audited k
                // window, each row nudged by 1–2 positions: the hull spans
                // most of the window, the changed k set is two segments.
                let base = if i % 2 == 0 { 12 } else { 45 };
                (
                    base + rng.random_range(0..2usize),
                    rng.random_range(1..=2usize),
                )
            } else {
                // Contested rows near the window, nudged up to ~25
                // positions: the top-k actually churns.
                (rng.random_range(0..80usize), rng.random_range(1..=25usize))
            };
            let up: bool = rng.random();
            let nudge = nudge as f64;
            RankingEdit::ScoreUpdate {
                row: order[pos],
                score: (n - pos) as f64 + if up { nudge } else { -nudge },
            }
        })
        .collect()
}

/// A fresh audit of the monitor's current data; returns whether it
/// matches the monitor and how long build + run took, in milliseconds.
fn check_against_fresh(monitor: &MonitorAudit, attrs: &[String]) -> Result<(bool, f64), String> {
    let start = Instant::now();
    let audit = Audit::builder(Arc::new(monitor.dataset().clone()))
        .ranker(&AttributeRanker::by_desc(SCORE))
        .attributes(attrs.iter().cloned())
        .build()
        .map_err(|e| format!("fresh audit: {e}"))?;
    let fresh = audit
        .run(monitor.config(), monitor.task(), Engine::Optimized)
        .map_err(|e| format!("fresh run: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((fresh.per_k == monitor.results(), ms))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, trace: &mut Trace, gauge: &mut Gauge) -> Result<Outcome, String> {
    let (input, setup_s, setup_raw) = setup_median(30, gauge, || setup(cfg.seed))?;
    let Input {
        dataset,
        attrs,
        mut monitor,
    } = input;
    let dataset = &dataset;
    let base: CheckpointStats = monitor
        .checkpoint_stats()
        .ok_or("an optimized monitor keeps checkpoints")?;

    // The shadow: the ranking and index layers replayed on their own
    // through the same edits, timed per batch.
    let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let space = PatternSpace::from_column_names(dataset, &names).map_err(|e| e.to_string())?;
    let scores = dataset
        .column_by_name(SCORE)
        .and_then(Column::values)
        .ok_or("score column")?
        .to_vec();
    let mut shadow = ScoredRanking::new(scores).map_err(|e| e.to_string())?;
    let mut shadow_index = RankedIndex::build(dataset, &space, &shadow.to_ranking());

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d4f_4e49);
    let mut apply_ms = Samples::with_capacity(MAX_BATCHES);
    let mut scaled_ms = Samples::with_capacity(MAX_BATCHES);
    let mut recorded: Vec<bool> = Vec::with_capacity(MAX_BATCHES);
    let mut live_us = Samples::with_capacity(MAX_BATCHES);
    let mut rewrite_us = Samples::with_capacity(MAX_BATCHES);
    let mut rebuild_ms: Vec<f64> = Vec::new();
    let (mut changed_k, mut failed) = (0usize, 0u64);
    // Apply time, and the part of it the shadow replay attributes to the
    // ranking and index layers, summed over batches, milliseconds.
    let (mut apply_sum, mut shadow_sum) = (0.0, 0.0);
    let mut peak_rss = None;
    let mut notes = Vec::new();

    let start = Instant::now();
    let mut batches = 0u64;
    loop {
        let done = start.elapsed() >= cfg.seconds || apply_ms.is_full();
        if batches > 0 && (done || batches.is_multiple_of(CHECK_EVERY)) {
            // Checks run outside the timed region: the monitor must equal
            // a fresh audit, and the shadow order the monitor's.
            let (same, ms) = check_against_fresh(&monitor, &attrs)?;
            rebuild_ms.push(ms);
            if !same || monitor.ranking().order() != shadow.order() {
                failed += 1;
                notes.push(format!("monitor diverged by batch {batches}"));
            }
        }
        if done {
            break;
        }
        let edits = next_batch(&mut rng, shadow.order());
        trace.set_enabled(cfg.traced && batches.is_multiple_of(2));
        gauge.read_every(GAUGE_EVERY);
        let s = Instant::now();
        let result = monitor.apply(&edits);
        let e = Instant::now();
        trace.record("core.monitor.apply", None, batches, s, e);
        let batch = batches;
        batches += 1;
        if batches == RSS_AT_BATCH {
            peak_rss = Some(peak_rss_mb());
        }
        match result {
            Ok(delta) => {
                let ms = (e - s).as_secs_f64() * 1e3;
                apply_ms.push(ms);
                scaled_ms.push(gauge.scale(ms));
                apply_sum += ms;
                recorded.push(trace.enabled());
                changed_k += delta.changed.len();
            }
            Err(err) => {
                failed += 1;
                notes.push(format!("batch {} failed: {err}", batches - 1));
                continue;
            }
        }
        // Shadow replay, untimed as far as the batch is concerned: the
        // ranking and index layers' part of the batch, timed on their own.
        let mut span: Option<(usize, usize)> = None;
        let s = Instant::now();
        for edit in &edits {
            if let RankingEdit::ScoreUpdate { row, score } = edit {
                let d = shadow
                    .update_score(*row, *score)
                    .map_err(|e| e.to_string())?;
                if let Some((lo, hi)) = d.changed {
                    span = Some(span.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
                }
            }
        }
        let e = Instant::now();
        trace.record("rank.live.update", None, batch, s, e);
        live_us.push((e - s).as_secs_f64() * 1e6 / edits.len() as f64);
        shadow_sum += (e - s).as_secs_f64() * 1e3;
        if let Some((lo, hi)) = span {
            let s = Instant::now();
            shadow_index.rewrite_span(dataset, &space, shadow.order(), lo, hi);
            let e = Instant::now();
            trace.record("core.index.rewrite", None, batch, s, e);
            rewrite_us.push((e - s).as_secs_f64() * 1e6);
            shadow_sum += (e - s).as_secs_f64() * 1e3;
        }
    }
    trace.set_enabled(cfg.traced);
    let (apply_ms, scaled_ms, live_us, rewrite_us) = (
        apply_ms.as_slice(),
        scaled_ms.as_slice(),
        live_us.as_slice(),
        rewrite_us.as_slice(),
    );

    let after = monitor
        .checkpoint_stats()
        .ok_or("an optimized monitor keeps checkpoints")?;
    let per_batch = |a: u64, b: u64| (a - b) as f64 / batches.max(1) as f64;
    let op_tail = windowed_tail(apply_ms);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb));
    m.set("op_ms_p50", median(scaled_ms));
    m.set(
        "throughput_per_s",
        scaled_ms.len() as f64 / (scaled_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    notes.push(format!(
        "raw: setup_s {setup_raw:.6}, batch p50 {:.4} ms, {:.1} batches/s",
        median(apply_ms),
        apply_ms.len() as f64 / (apply_sum / 1e3).max(1e-9)
    ));
    notes.push(format!("update_ms_tail = {op_tail}"));
    m.set("update_ms_p50", median(apply_ms));
    m.set("update_ms_tail", op_tail.value);
    m.set(
        "core.monitor.replayed_steps",
        per_batch(after.replayed_steps, base.replayed_steps),
    );
    m.set("core.monitor.seeks", per_batch(after.seeks, base.seeks));
    m.set(
        "core.monitor.repairs",
        per_batch(after.repairs, base.repairs),
    );
    m.set(
        "core.monitor.cold_builds",
        per_batch(after.cold_builds, base.cold_builds),
    );
    m.set(
        "core.monitor.segments",
        per_batch(after.segments, base.segments),
    );
    m.set(
        "core.monitor.prefix_recounts",
        per_batch(after.prefix_recounts, base.prefix_recounts),
    );
    m.set(
        "core.monitor.changed_k_per_step",
        changed_k as f64 / (after.replayed_steps - base.replayed_steps).max(1) as f64,
    );
    m.set("core.monitor.arena_nodes", after.arena_nodes as f64);
    m.set(
        "core.monitor.rebuild_ratio",
        median(&rebuild_ms) / median(apply_ms).max(1e-9),
    );
    m.set("rank.live.update_us", median(live_us));
    m.set("core.index.rewrite_us", median(rewrite_us));
    if cfg.traced {
        // Nothing inside `apply` is timed from outside: the shadow replay
        // attributes the ranking and index layers' part of it; the engines'
        // seek, repair and replay stay unattributed.
        m.set(
            "unattributed_share",
            (1.0 - shadow_sum / apply_sum.max(1e-9)).clamp(0.0, 1.0),
        );
        let (on, off, rel) = overhead(apply_ms, &recorded);
        m.set("trace_overhead", rel);
        notes.push(format!(
            "trace_overhead: traced batch p50 {on:.4} ms vs untraced {off:.4} ms (base)"
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: batches,
        failed,
        notes,
    })
}
