//! Edge-case integration tests for the detection engine: degenerate
//! datasets, extreme parameters, and bound shapes the paper's assumptions
//! do not cover (the engine must stay correct, reclassifying its node
//! store where the one-tuple step does not apply).

use std::sync::Arc;

use rankfair_core::{
    oracle, Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, KResult, MonitorAudit,
    Pattern, RankingEdit,
};
use rankfair_data::Column;
use rankfair_rank::Ranking;
use rankfair_synth::{random_dataset, random_ranking, RandomSpec};

fn build(seed: u64, rows: usize, attrs: usize) -> Audit {
    let ds = random_dataset(
        seed,
        RandomSpec {
            rows,
            attrs,
            max_card: 3,
        },
    );
    let ranking = Ranking::from_order(random_ranking(seed + 1, rows)).unwrap();
    Audit::builder(Arc::new(ds))
        .ranking(ranking)
        .build()
        .unwrap()
}

fn under(audit: &Audit, cfg: &DetectConfig, measure: &BiasMeasure, engine: Engine) -> Vec<KResult> {
    audit
        .run(cfg, &AuditTask::UnderRep(measure.clone()), engine)
        .unwrap()
        .detection_output()
        .per_k
}

#[test]
fn single_row_dataset() {
    let ds = rankfair_data::Dataset::builder()
        .categorical_from_str("a", &["x"])
        .categorical_from_str("b", &["y"])
        .build()
        .unwrap();
    let audit = Audit::builder(Arc::new(ds))
        .ranking(Ranking::from_order(vec![0]).unwrap())
        .build()
        .unwrap();
    let cfg = DetectConfig::new(1, 1, 1);
    // L = 1: the single tuple satisfies every pattern, nothing is biased.
    let m = BiasMeasure::GlobalLower(Bounds::constant(1));
    let out = under(&audit, &cfg, &m, Engine::Optimized);
    assert!(out[0].patterns.is_empty());
    // L = 2 can never be met: the level-1 patterns are all reported.
    let m = BiasMeasure::GlobalLower(Bounds::constant(2));
    let out = under(&audit, &cfg, &m, Engine::Optimized);
    assert_eq!(out[0].patterns.len(), 2);
}

#[test]
fn tau_larger_than_dataset_returns_nothing() {
    let audit = build(3, 40, 3);
    let cfg = DetectConfig::new(41, 2, 20);
    let out = under(
        &audit,
        &cfg,
        &BiasMeasure::GlobalLower(Bounds::constant(5)),
        Engine::Optimized,
    );
    assert!(out.iter().all(|kr| kr.patterns.is_empty()));
    let out = under(
        &audit,
        &cfg,
        &BiasMeasure::Proportional { alpha: 0.8 },
        Engine::Optimized,
    );
    assert!(out.iter().all(|kr| kr.patterns.is_empty()));
}

#[test]
fn cardinality_one_attribute() {
    // An attribute where every tuple has the same value: its only pattern
    // covers the whole dataset, and Proposition 4.3's "at least 2 values"
    // assumption does not hold — the engine must still be exact.
    let n = 30;
    let constant = vec!["same"; n];
    let varied: Vec<String> = (0..n).map(|i| format!("v{}", i % 3)).collect();
    let ds = rankfair_data::Dataset::builder()
        .categorical_from_str("c", &constant)
        .categorical_from_str("v", &varied)
        .build()
        .unwrap();
    let audit = Audit::builder(Arc::new(ds))
        .ranking(Ranking::from_order(random_ranking(9, n)).unwrap())
        .build()
        .unwrap();
    let cfg = DetectConfig::new(1, 2, n);
    for measure in [
        BiasMeasure::GlobalLower(Bounds::constant(4)),
        BiasMeasure::Proportional { alpha: 0.9 },
    ] {
        let base = under(&audit, &cfg, &measure, Engine::Baseline);
        let opt = under(&audit, &cfg, &measure, Engine::Optimized);
        assert_eq!(base, opt);
    }
}

#[test]
fn decreasing_bounds_still_exact() {
    // Footnote 3 assumes non-decreasing L_k. Every execution mode — the
    // batch run, the stream and a monitor's replay — reclassifies its node
    // store at a bound change in either direction, with one build at
    // k_min. A bound that falls, and one that falls and then rises again,
    // must still be exact (if unusual) in each mode.
    let audit = build(11, 50, 4);
    let cfg = DetectConfig::new(2, 2, 40);
    for bounds in [
        Bounds::steps(vec![(0, 6), (10, 4), (20, 2)]),
        Bounds::steps(vec![(0, 6), (10, 4), (20, 2), (30, 5)]),
    ] {
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = under(&audit, &cfg, &measure, Engine::Baseline);
        let opt = under(&audit, &cfg, &measure, Engine::Optimized);
        assert_eq!(base, opt, "{bounds:?}");
        let want = oracle::detect(
            audit.dataset(),
            audit.space(),
            audit.ranking(),
            2,
            2,
            40,
            &measure,
        );
        assert_eq!(opt, want, "{bounds:?}");

        // The stream equals the batch run, and neither searches again
        // after the build at k_min.
        let task = AuditTask::UnderRep(measure);
        let batch = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let mut stream = audit.run_streaming(&cfg, &task).unwrap();
        let streamed: Vec<_> = stream.by_ref().collect();
        assert_eq!(streamed, batch.per_k, "{bounds:?}");
        assert_eq!(batch.stats.full_searches, 1, "{bounds:?}");
        assert_eq!(stream.stats().full_searches, 1, "{bounds:?}");

        // A monitor's checkpointed replay: scores that reproduce the
        // audit's ranking, then reorder batches whose changed-k spans
        // cross every step (k = 10, 20 and 30).
        let mut ds = audit.dataset().clone();
        let mut scores = vec![0.0; ds.n_rows()];
        for (pos, &row) in audit.ranking().order().iter().enumerate() {
            scores[row as usize] = (ds.n_rows() - pos) as f64;
        }
        ds.push_column(Column::numeric("score", scores)).unwrap();
        let combined = AuditTask::Combined {
            lower: bounds.clone(),
            upper: Bounds::LinearFraction(0.4),
        };
        // Each batch moves the row at `from` to just above the row at
        // `to`, both positions read before the batch.
        let batches: [&[(usize, usize)]; 4] =
            [&[(3, 25)], &[(35, 0)], &[(6, 14), (28, 18)], &[(0, 45)]];
        for task in [task, combined] {
            for cadence in [1, 3, 8] {
                let mut monitor = MonitorAudit::builder(ds.clone(), "score")
                    .checkpoint_every(cadence)
                    .build(cfg.clone(), task.clone(), Engine::Optimized)
                    .unwrap();
                for (b, moves) in batches.iter().enumerate() {
                    let ranking = monitor.ranking();
                    let score = monitor.dataset().column_by_name("score").unwrap();
                    let at = |pos: usize| score.value(ranking.at(pos) as usize);
                    let edits: Vec<RankingEdit> = moves
                        .iter()
                        .map(|&(from, to)| RankingEdit::ScoreUpdate {
                            row: ranking.at(from),
                            score: if to == 0 {
                                at(0) + 1.0
                            } else {
                                (at(to - 1) + at(to)) / 2.0
                            },
                        })
                        .collect();
                    monitor.apply(&edits).unwrap();
                    // The baseline engines share no step code with the
                    // replay.
                    let fresh = Audit::builder(Arc::new(monitor.dataset().clone()))
                        .ranking(monitor.ranking())
                        .build()
                        .unwrap()
                        .run(&cfg, &task, Engine::Baseline)
                        .unwrap();
                    assert_eq!(
                        monitor.results(),
                        &fresh.per_k[..],
                        "{bounds:?} {task:?} cadence {cadence} batch {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn full_k_range_to_dataset_size() {
    let audit = build(13, 120, 4);
    let cfg = DetectConfig::new(5, 1, 120);
    let measure = BiasMeasure::Proportional { alpha: 0.85 };
    let base = under(&audit, &cfg, &measure, Engine::Baseline);
    let opt = under(&audit, &cfg, &measure, Engine::Optimized);
    assert_eq!(base, opt);
    // At k = n every pattern's count equals its size: nothing is biased
    // for α ≤ 1.
    assert!(opt.last().unwrap().patterns.is_empty());
}

#[test]
fn alpha_above_one_flags_even_proportional_groups() {
    let audit = build(17, 60, 3);
    let cfg = DetectConfig::new(2, 5, 55);
    let measure = BiasMeasure::Proportional { alpha: 1.5 };
    let base = under(&audit, &cfg, &measure, Engine::Baseline);
    let opt = under(&audit, &cfg, &measure, Engine::Optimized);
    assert_eq!(base, opt);
    // With α = 1.5 at k = n the requirement 1.5·s_D > s_D can never be
    // met, so every substantial level-1 pattern (or a subset refinement)
    // is biased — the result set must be non-empty.
    assert!(!opt.last().unwrap().patterns.is_empty());
}

#[test]
fn zero_deadline_times_out_gracefully() {
    let audit = build(19, 200, 4);
    let cfg = DetectConfig::new(1, 2, 150).with_deadline(std::time::Duration::ZERO);
    let out = audit
        .run(
            &cfg,
            &AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(3))),
            Engine::Optimized,
        )
        .unwrap();
    // Either it finished instantly (tiny search) or it truncated; both are
    // acceptable, and no panic occurred.
    if out.stats.timed_out {
        assert!(out.per_k.len() < 149);
    }
}

#[test]
fn kmin_equals_kmax() {
    let audit = build(23, 45, 4);
    let cfg = DetectConfig::new(3, 7, 7);
    let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
    let opt = under(&audit, &cfg, &measure, Engine::Optimized);
    assert_eq!(opt.len(), 1);
    let want = oracle::detect(
        audit.dataset(),
        audit.space(),
        audit.ranking(),
        3,
        7,
        7,
        &measure,
    );
    assert_eq!(opt, want);
}

#[test]
fn duplicate_rows_and_heavy_skew() {
    // All rows identical except one attribute: exercises extreme counts.
    let n = 64;
    let a: Vec<&str> = (0..n)
        .map(|i| if i == 0 { "rare" } else { "common" })
        .collect();
    let b = vec!["only"; n];
    let ds = rankfair_data::Dataset::builder()
        .categorical_from_str("a", &a)
        .categorical_from_str("b", &b)
        .build()
        .unwrap();
    // Rank the rare row last.
    let mut order: Vec<u32> = (1..n as u32).collect();
    order.push(0);
    let audit = Audit::builder(Arc::new(ds))
        .ranking(Ranking::from_order(order).unwrap())
        .build()
        .unwrap();
    let cfg = DetectConfig::new(1, 2, n);
    let measure = BiasMeasure::GlobalLower(Bounds::constant(1));
    let base = under(&audit, &cfg, &measure, Engine::Baseline);
    let opt = under(&audit, &cfg, &measure, Engine::Optimized);
    assert_eq!(base, opt);
    // {a=rare} has count 0 until the final k, so it is reported for every
    // k < n and disappears at k = n.
    let rare = Pattern::single(
        0,
        audit.space().pattern(&[("a", "rare")]).unwrap().terms()[0].1,
    );
    assert!(opt[0].patterns.contains(&rare));
    assert!(!opt.last().unwrap().patterns.contains(&rare));
}

#[test]
fn stats_monotonicity_between_algorithms() {
    // On a moderate instance, the optimized engines must examine strictly
    // fewer patterns than the baseline while agreeing on results.
    let audit = build(29, 150, 5);
    let cfg = DetectConfig::new(8, 10, 120);
    let bounds = Bounds::steps(vec![(10, 3), (50, 6), (90, 9)]);
    let g = AuditTask::UnderRep(BiasMeasure::GlobalLower(bounds));
    let base = audit.run(&cfg, &g, Engine::Baseline).unwrap();
    let opt = audit.run(&cfg, &g, Engine::Optimized).unwrap();
    assert_eq!(base.per_k, opt.per_k);
    assert!(opt.stats.patterns_examined() < base.stats.patterns_examined());
    assert_eq!(opt.stats.full_searches, 1); // the steps at 50 and 90 reclassify

    let p = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.7 });
    let base = audit.run(&cfg, &p, Engine::Baseline).unwrap();
    let opt = audit.run(&cfg, &p, Engine::Optimized).unwrap();
    assert_eq!(base.per_k, opt.per_k);
    assert!(opt.stats.patterns_examined() < base.stats.patterns_examined());
    assert_eq!(opt.stats.full_searches, 1); // PropBounds builds once too
}

/// Upper-bound edge cases through the audit API: impossible bounds and
/// bound-zero behavior.
#[test]
fn over_rep_extremes() {
    let audit = build(31, 40, 3);
    let n = 40;
    // U ≥ k can never be exceeded: nothing is over-represented.
    let cfg = DetectConfig::new(1, 5, 10);
    let task = AuditTask::OverRep {
        upper: Bounds::constant(n),
        scope: rankfair_core::OverRepScope::MostSpecific,
    };
    let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    assert!(out.per_k.iter().all(|kr| kr.over.is_empty()));
    // U = 0 at k = n: every non-empty substantial pattern qualifies.
    let cfg = DetectConfig::new(1, n, n);
    let task = AuditTask::OverRep {
        upper: Bounds::constant(0),
        scope: rankfair_core::OverRepScope::MostGeneral,
    };
    let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    // Most general qualifying patterns are exactly the substantial
    // level-1 patterns (every level-1 pattern with a match qualifies).
    assert!(out.per_k[0].over.iter().all(|p| p.len() == 1));
    assert!(!out.per_k[0].over.is_empty());
}
