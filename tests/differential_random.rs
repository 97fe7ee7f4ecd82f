//! Randomized differential harness: on seeded random instances —
//! datasets, bucketizations, rankings with heavy score ties, bounds
//! including `LinearFraction` at extreme `α`s, `k = 1`, all-qualifying
//! and none-qualifying `τs` edges — the optimized engines, the baseline
//! engines and a test-local brute-force oracle (a *third* code path: full
//! pattern-graph enumeration with naive row-scan counting) must agree on
//! every `k` for UnderRep, OverRep and Combined. And a [`MonitorAudit`]
//! must equal a fresh [`Audit::run`] over its current data after **every
//! edit** of ≥ 100 seeded edit sequences.
//!
//! Everything is reproducible by seed; CI runs exactly this file as the
//! randomized sweep gate.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rankfair::core::{
    oracle, Audit, AuditKResult, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, KDelta,
    MonitorAudit, OverRepScope, Pattern, PatternSpace, RankingEdit,
};
use rankfair::data::{Dataset, RowValue};
use rankfair::rank::Ranking;
use rankfair::synth::{random_dataset, random_ranking, RandomSpec};

/// Test-local brute force for the upper-bound side: enumerate the entire
/// pattern graph by cartesian product (no search tree, no pruning), count
/// by row scan, filter, and apply a quadratic boundary filter. Written
/// deliberately unlike both the optimized engine and `Engine::Baseline`'s
/// stack-based enumeration.
fn oracle_over_full(
    ds: &Dataset,
    space: &PatternSpace,
    ranking: &Ranking,
    tau: usize,
    k: usize,
    u: usize,
    scope: OverRepScope,
) -> Vec<Pattern> {
    let m = space.n_attrs();
    // Mixed-radix counter over (card(a) + 1) digits; digit card(a) = "attribute absent".
    let radix: Vec<usize> = (0..m).map(|a| space.card(a as u16) + 1).collect();
    let mut digits = vec![0usize; m];
    let mut qualifying: Vec<Pattern> = Vec::new();
    loop {
        let terms: Vec<(u16, u16)> = digits
            .iter()
            .enumerate()
            .filter(|&(a, &d)| d < radix[a] - 1)
            .map(|(a, &d)| (a as u16, d as u16))
            .collect();
        if !terms.is_empty() {
            let p = Pattern::from_terms(terms).expect("distinct attributes");
            let (sd, srk) = oracle::naive_counts(ds, space, ranking, &p, k);
            if sd >= tau && srk > u {
                qualifying.push(p);
            }
        }
        // Increment the counter.
        let mut i = 0;
        loop {
            if i == m {
                let mut out: Vec<Pattern> = qualifying
                    .iter()
                    .filter(|p| {
                        !qualifying.iter().any(|q| match scope {
                            OverRepScope::MostSpecific => p.is_proper_subset_of(q),
                            OverRepScope::MostGeneral => q.is_proper_subset_of(p),
                        })
                    })
                    .cloned()
                    .collect();
                out.sort_unstable();
                return out;
            }
            digits[i] += 1;
            if digits[i] < radix[i] {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// A random instance: categorical attributes plus a numeric score column
/// (drawn from a tiny value set so ties are the norm, exercising the
/// stable tie-break everywhere), optionally bucketized into extra
/// pattern attributes.
fn random_audit(rng: &mut StdRng) -> (Audit, usize) {
    let rows = rng.random_range(10..48usize);
    let attrs = rng.random_range(2..4usize);
    let max_card = rng.random_range(2..4usize);
    let mut ds = random_dataset(
        rng.random::<u64>() % 100_000,
        RandomSpec {
            rows,
            attrs,
            max_card,
        },
    );
    let tied_scores = rng.random::<bool>();
    let scores: Vec<f64> = (0..rows)
        .map(|_| {
            if tied_scores {
                rng.random_range(0..6usize) as f64
            } else {
                rng.random::<f64>() * 100.0
            }
        })
        .collect();
    ds.push_column(rankfair::data::Column::numeric("score", scores.clone()))
        .unwrap();
    let mut builder = Audit::builder(Arc::new(ds));
    // Half the instances rank by the (tied) score column, half by a
    // random permutation; a third of them bucketize the score into a
    // pattern attribute.
    builder = if rng.random::<bool>() {
        builder.ranking(Ranking::from_scores_desc(&scores))
    } else {
        builder.ranking(Ranking::from_order(random_ranking(rng.random::<u64>(), rows)).unwrap())
    };
    if rng.random_range(0..3usize) == 0 {
        builder = builder.bucketize("score", rng.random_range(2..5usize));
    }
    (builder.build().unwrap(), rows)
}

fn random_bounds(rng: &mut StdRng, rows: usize) -> Bounds {
    match rng.random_range(0..4usize) {
        0 => Bounds::constant(rng.random_range(0..=rows / 2)),
        1 => {
            let base = rng.random_range(0..3usize);
            let step = rng.random_range(1..3usize);
            Bounds::steps(vec![
                (0, base),
                (rows / 4, base + step),
                (rows / 2, base + 2 * step),
            ])
        }
        // LinearFraction across the extremes: 0 (nothing bounded), tiny,
        // mid, ~1, and > 1 (bound beyond k — everything under / nothing
        // legal over).
        _ => Bounds::LinearFraction(
            [0.0, 0.01, 0.3, 0.5, 0.99, 1.0, 2.5][rng.random_range(0..7usize)],
        ),
    }
}

#[test]
fn engines_agree_with_each_other_and_the_oracle_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..60 {
        let (audit, rows) = random_audit(&mut rng);
        // τs sweep hits both degenerate edges: 0 (every pattern
        // substantial) and > rows (no pattern substantial).
        let tau = [0, 1, rng.random_range(1..8usize), rows + 1][rng.random_range(0..4usize)];
        // k = 1 always included; k_max sometimes the whole dataset.
        let k_max = if rng.random::<bool>() {
            rows
        } else {
            rng.random_range(1..=rows)
        };
        let cfg = DetectConfig::new(tau, 1, k_max);
        let lower = random_bounds(&mut rng, rows);
        let upper = random_bounds(&mut rng, rows);
        let alpha = [0.01, 0.5, 0.8, 1.0, 1.5, 10.0][rng.random_range(0..6usize)];
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(lower.clone())),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha }),
            AuditTask::OverRep {
                upper: upper.clone(),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: upper.clone(),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined {
                lower: lower.clone(),
                upper: upper.clone(),
            },
        ];
        for task in &tasks {
            let opt = audit.run(&cfg, task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, task, Engine::Baseline).unwrap();
            assert_eq!(
                opt.per_k, base.per_k,
                "case {case}: optimized vs baseline, {task:?}"
            );
            // Third implementation: the full-enumeration oracle.
            match task {
                AuditTask::UnderRep(measure) => {
                    let want = oracle::detect(
                        audit.dataset(),
                        audit.space(),
                        audit.ranking(),
                        tau,
                        1,
                        k_max,
                        measure,
                    );
                    let got: Vec<_> = opt
                        .per_k
                        .iter()
                        .map(|kr| (kr.k, kr.under.clone()))
                        .collect();
                    let want: Vec<_> = want.into_iter().map(|kr| (kr.k, kr.patterns)).collect();
                    assert_eq!(got, want, "case {case}: vs oracle, {task:?}");
                }
                AuditTask::OverRep { upper, scope } => {
                    for kr in &opt.per_k {
                        let want = oracle_over_full(
                            audit.dataset(),
                            audit.space(),
                            audit.ranking(),
                            tau,
                            kr.k,
                            upper.at(kr.k),
                            *scope,
                        );
                        assert_eq!(
                            kr.over, want,
                            "case {case}: vs full-enumeration oracle at k={}, {task:?}",
                            kr.k
                        );
                    }
                }
                AuditTask::Combined { .. } => {} // both sides checked above
            }
        }
    }
}

/// Checkpoint-equivalence sweep: seeded edit sequences against monitors
/// whose engines carry **persistent checkpointed state** at every cadence
/// `C ∈ {1, 2, 3, 5, 9}`. After every batch — top-of-ranking edits whose
/// hull swallows the whole checkpoint grid (forcing an in-place seek
/// repair), deep-span reorders, mixed batches, and checkpoint-
/// invalidating inserts — the delta re-audit (seek + repair + replay)
/// must be identical to a fresh `Audit::run` over the monitor's current
/// data. Bounds include `LinearFraction` on **both** sides, whose
/// `L_k`/`U_k` change at every single `k`, so replays cross a bound step
/// at every advance.
#[test]
fn checkpointed_delta_reaudits_match_fresh_audits_at_every_cadence() {
    let mut rng = StdRng::seed_from_u64(0xC4E7);
    for case in 0..40usize {
        let cadence = [1usize, 2, 3, 5, 9][case % 5];
        let rows = rng.random_range(12..36usize);
        let attrs = rng.random_range(2..4usize);
        let mut ds = random_dataset(
            rng.random::<u64>() % 100_000,
            RandomSpec {
                rows,
                attrs,
                max_card: 3,
            },
        );
        let scores: Vec<f64> = (0..rows)
            .map(|_| rng.random_range(0..8usize) as f64)
            .collect();
        ds.push_column(rankfair::data::Column::numeric("score", scores))
            .unwrap();
        let tau = rng.random_range(0..5usize);
        let k_max = rng.random_range(3..=rows);
        let cfg = DetectConfig::new(tau, rng.random_range(1..3usize).min(k_max), k_max);
        // Fraction bounds change at every k — the hardest replay shape.
        let task = match rng.random_range(0..3usize) {
            0 => AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(
                [0.1, 0.3, 0.6][rng.random_range(0..3usize)],
            ))),
            1 => AuditTask::OverRep {
                upper: Bounds::LinearFraction([0.2, 0.4][rng.random_range(0..2usize)]),
                scope: if rng.random::<bool>() {
                    OverRepScope::MostSpecific
                } else {
                    OverRepScope::MostGeneral
                },
            },
            _ => AuditTask::Combined {
                lower: Bounds::LinearFraction(0.25),
                upper: Bounds::LinearFraction(0.5),
            },
        };
        let mut monitor = MonitorAudit::builder(ds, "score")
            .checkpoint_every(cadence)
            .build(cfg.clone(), task.clone(), Engine::Optimized)
            .unwrap();
        assert_eq!(
            monitor.checkpoint_stats().unwrap().cadence,
            cadence,
            "case {case}"
        );
        for batch_no in 0..5 {
            let n = monitor.n_rows();
            let batch: Vec<RankingEdit> = match batch_no % 3 {
                // A top-of-ranking strike: position 0 changes occupant,
                // the hull swallows *every* checkpoint, and the seek
                // snapshot must be repaired in place from the top-k set
                // diff before the replay.
                0 => vec![RankingEdit::ScoreUpdate {
                    row: monitor.ranking().at(0),
                    score: -1.0 - batch_no as f64,
                }],
                // A mid/deep reorder whose seek checkpoint is already
                // valid (hull starts at or above it).
                1 => vec![RankingEdit::ScoreUpdate {
                    row: monitor.ranking().at(rng.random_range(n / 2..n)),
                    score: rng.random_range(0..8usize) as f64,
                }],
                // A mixed batch with an insert: n and s_D move, the
                // whole store is invalidated and reseeded.
                _ => {
                    let cells: Vec<RowValue> = monitor
                        .dataset()
                        .columns()
                        .iter()
                        .map(|c| {
                            if c.is_categorical() {
                                let card = c.cardinality().unwrap();
                                let code = rng.random_range(0..card) as u16;
                                RowValue::Label(c.label_of(code).unwrap().to_string())
                            } else {
                                RowValue::Number(rng.random_range(0..8usize) as f64)
                            }
                        })
                        .collect();
                    vec![
                        RankingEdit::ScoreUpdate {
                            row: rng.random_range(0..n) as u32,
                            score: rng.random_range(0..8usize) as f64,
                        },
                        RankingEdit::Insert { cells },
                    ]
                }
            };
            monitor.apply(&batch).unwrap();
            let fresh = Audit::builder(Arc::new(monitor.dataset().clone()))
                .ranking(monitor.ranking())
                .build()
                .unwrap()
                .run(&cfg, &task, Engine::Optimized)
                .unwrap();
            assert_eq!(
                monitor.results(),
                &fresh.per_k[..],
                "case {case} cadence {cadence} batch {batch_no}: checkpointed delta diverged"
            );
        }
        let stats = monitor.checkpoint_stats().unwrap();
        // The sequence forced every regime: top strikes exercised the
        // in-place checkpoint repair, deep edits plain seeks, and the
        // inserts full invalidation plus cold reseeding.
        assert!(stats.seeks > 0, "case {case}: {stats:?}");
        assert!(stats.repairs > 0, "case {case}: {stats:?}");
        assert!(stats.cold_builds >= 2, "case {case}: {stats:?}");
        assert!(stats.invalidated > 0, "case {case}: {stats:?}");
    }
}

/// The changes between two fresh audits' results, per `k`: the groups in
/// one result set and not in the other, by membership test.
fn fresh_deltas(before: &[AuditKResult], after: &[AuditKResult]) -> Vec<KDelta> {
    let minus = |a: &[Pattern], b: &[Pattern]| -> Vec<Pattern> {
        a.iter().filter(|p| !b.contains(p)).cloned().collect()
    };
    before
        .iter()
        .zip(after)
        .map(|(old, new)| KDelta {
            k: new.k,
            entered_under: minus(&new.under, &old.under),
            left_under: minus(&old.under, &new.under),
            entered_over: minus(&new.over, &old.over),
            left_over: minus(&old.over, &new.over),
        })
        .filter(|d| !d.is_empty())
        .collect()
}

/// Segmented replay against independent references: at every cadence
/// `C ∈ {1, 2, 3, 5, 9}` and on both engine sides (lower-only,
/// upper-only, and combined tasks), after every batch a monitor must
/// equal a fresh `Audit::run` and report as `changed` exactly the diff of
/// fresh audits before and after the batch. On a **sparse** batch (two
/// tight adjacent swaps 55 rank positions apart inside a full-width `k`
/// range) it must report exactly the two point segments inside the hull
/// `(6, 61)`, and replay fewer steps, summed over its engine sides, than
/// the hull's `k_hi − k_lo` that a hull replay pays per side.
#[test]
fn segmented_replay_matches_fresh_audits_in_fewer_steps_than_the_hull() {
    let rows = 72usize;
    let tasks = [
        // Lower engine only.
        AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.3))),
        // Upper engine only.
        AuditTask::OverRep {
            upper: Bounds::LinearFraction(0.4),
            scope: OverRepScope::MostSpecific,
        },
        // Both engines at once.
        AuditTask::Combined {
            lower: Bounds::LinearFraction(0.25),
            upper: Bounds::LinearFraction(0.5),
        },
    ];
    // Move the occupant of rank `pos` exactly one position down: score it
    // strictly between the current occupants of `pos + 1` and `pos + 2`.
    let swap_at = |m: &MonitorAudit, pos: usize| {
        let col = m.dataset().column_by_name("score").unwrap();
        let below = col.value(m.ranking().at(pos + 1) as usize);
        let floor = col.value(m.ranking().at(pos + 2) as usize);
        RankingEdit::ScoreUpdate {
            row: m.ranking().at(pos),
            score: (below + floor) / 2.0,
        }
    };
    for cadence in [1usize, 2, 3, 5, 9] {
        for (t, task) in tasks.iter().enumerate() {
            let mut ds = random_dataset(
                (cadence * 31 + t) as u64,
                RandomSpec {
                    rows,
                    attrs: 3,
                    max_card: 3,
                },
            );
            // Distinct descending scores: row `i` starts at position `i`,
            // so the batches below can target exact rank positions.
            let scores: Vec<f64> = (0..rows).map(|i| (rows - i) as f64).collect();
            ds.push_column(rankfair::data::Column::numeric("score", scores))
                .unwrap();
            let cfg = DetectConfig::new(2, 1, rows);
            let mut monitor = MonitorAudit::builder(ds, "score")
                .checkpoint_every(cadence)
                .build(cfg.clone(), task.clone(), Engine::Optimized)
                .unwrap();
            let fresh = |m: &MonitorAudit| {
                Audit::builder(Arc::new(m.dataset().clone()))
                    .ranking(m.ranking())
                    .build()
                    .unwrap()
                    .run(&cfg, task, Engine::Optimized)
                    .unwrap()
                    .per_k
            };
            let mut before = fresh(&monitor);
            let mut prev_steps = monitor.checkpoint_stats().unwrap().replayed_steps;
            for batch_no in 0..3 {
                let batch: Vec<RankingEdit> = match batch_no {
                    // Sparse: two adjacent-swap clusters 55 positions apart.
                    0 => vec![swap_at(&monitor, 5), swap_at(&monitor, 60)],
                    // One deep swap.
                    1 => vec![swap_at(&monitor, 40)],
                    // Top strike: the hull swallows the whole grid and the
                    // seek checkpoints need in-place repair.
                    _ => vec![RankingEdit::ScoreUpdate {
                        row: monitor.ranking().at(0),
                        score: -1.0,
                    }],
                };
                let report = monitor.apply(&batch).unwrap();
                let after = fresh(&monitor);
                assert_eq!(
                    monitor.results(),
                    &after[..],
                    "cadence {cadence} task {t} batch {batch_no}: monitor diverged"
                );
                assert_eq!(
                    report.changed,
                    fresh_deltas(&before, &after),
                    "cadence {cadence} task {t} batch {batch_no}: changed-k sets differ"
                );
                let steps = monitor.checkpoint_stats().unwrap().replayed_steps;
                if batch_no == 0 {
                    assert_eq!(
                        report.segments,
                        vec![(6, 6), (61, 61)],
                        "cadence {cadence} task {t}: sparse batch segments"
                    );
                    assert_eq!(report.recomputed, Some((6, 61)));
                    assert!(
                        steps - prev_steps < 61 - 6,
                        "cadence {cadence} task {t}: replayed {} steps over the hull (6, 61)",
                        steps - prev_steps
                    );
                }
                before = after;
                prev_steps = steps;
            }
        }
    }
}

/// ≥ 100 seeded edit sequences: after **every** edit, the monitor's
/// cached results must equal a fresh `Audit::run` over the edited
/// dataset and ranking — for score updates (including ones creating and
/// breaking ties), no-op updates, and insertions.
#[test]
fn monitor_delta_reaudits_match_fresh_audits_across_edit_sequences() {
    let mut rng = StdRng::seed_from_u64(0x3D17);
    let mut sequences = 0;
    while sequences < 104 {
        let rows = rng.random_range(10..40usize);
        let attrs = rng.random_range(2..4usize);
        let mut ds = random_dataset(
            rng.random::<u64>() % 100_000,
            RandomSpec {
                rows,
                attrs,
                max_card: 3,
            },
        );
        // Small integer scores: ties are the norm.
        let scores: Vec<f64> = (0..rows)
            .map(|_| rng.random_range(0..9usize) as f64)
            .collect();
        ds.push_column(rankfair::data::Column::numeric("score", scores))
            .unwrap();
        let tau = rng.random_range(0..6usize);
        let k_max = rng.random_range(2..=rows);
        let cfg = DetectConfig::new(tau, 1, k_max);
        let task = match rng.random_range(0..4usize) {
            0 => AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(
                rng.random_range(1..4usize),
            ))),
            1 => AuditTask::UnderRep(BiasMeasure::Proportional {
                alpha: [0.5, 0.8, 1.2][rng.random_range(0..3usize)],
            }),
            2 => AuditTask::OverRep {
                upper: Bounds::LinearFraction([0.2, 0.5][rng.random_range(0..2usize)]),
                scope: if rng.random::<bool>() {
                    OverRepScope::MostSpecific
                } else {
                    OverRepScope::MostGeneral
                },
            },
            _ => AuditTask::Combined {
                lower: Bounds::constant(rng.random_range(1..3usize)),
                upper: Bounds::constant(rng.random_range(0..3usize)),
            },
        };
        let ascending = rng.random::<bool>();
        let monitor = MonitorAudit::builder(ds, "score")
            .ascending(ascending)
            .build(cfg.clone(), task.clone(), Engine::Optimized);
        let mut monitor = match monitor {
            Ok(m) => m,
            Err(e) => panic!("monitor build failed: {e}"),
        };
        sequences += 1;
        for _edit in 0..6 {
            let n = monitor.n_rows();
            let edit = if rng.random_range(0..4usize) == 0 {
                // Insert a row with cells sampled from existing labels.
                let cells: Vec<RowValue> = monitor
                    .dataset()
                    .columns()
                    .iter()
                    .map(|c| {
                        if c.is_categorical() {
                            let card = c.cardinality().unwrap();
                            let code = rng.random_range(0..card) as u16;
                            RowValue::Label(c.label_of(code).unwrap().to_string())
                        } else {
                            RowValue::Number(rng.random_range(0..9usize) as f64)
                        }
                    })
                    .collect();
                RankingEdit::Insert { cells }
            } else {
                RankingEdit::ScoreUpdate {
                    row: rng.random_range(0..n) as u32,
                    score: rng.random_range(0..9usize) as f64,
                }
            };
            monitor.apply(&[edit]).unwrap();
            // The ground truth: a fresh audit of the monitor's current
            // dataset under its current ranking.
            let fresh = Audit::builder(Arc::new(monitor.dataset().clone()))
                .ranking(monitor.ranking())
                .build()
                .unwrap()
                .run(&cfg, &task, Engine::Optimized)
                .unwrap();
            assert_eq!(
                monitor.results(),
                &fresh.per_k[..],
                "sequence {sequences}: monitor diverged from fresh audit"
            );
        }
    }
    // Multi-edit batches (mixed updates + inserts applied atomically)
    // must agree too.
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for _ in 0..8 {
        let rows = 24;
        let mut ds = random_dataset(
            rng.random::<u64>(),
            RandomSpec {
                rows,
                attrs: 3,
                max_card: 3,
            },
        );
        let scores: Vec<f64> = (0..rows)
            .map(|_| rng.random_range(0..7usize) as f64)
            .collect();
        ds.push_column(rankfair::data::Column::numeric("score", scores))
            .unwrap();
        let cfg = DetectConfig::new(2, 1, rows);
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        let mut monitor = MonitorAudit::builder(ds, "score")
            .build(cfg.clone(), task.clone(), Engine::Optimized)
            .unwrap();
        let batch: Vec<RankingEdit> = (0..5)
            .map(|i| {
                if i % 2 == 0 {
                    RankingEdit::ScoreUpdate {
                        row: rng.random_range(0..rows) as u32,
                        score: rng.random_range(0..7usize) as f64,
                    }
                } else {
                    let cells: Vec<RowValue> = monitor
                        .dataset()
                        .columns()
                        .iter()
                        .map(|c| {
                            if c.is_categorical() {
                                RowValue::Label(c.label_of(0).unwrap().to_string())
                            } else {
                                RowValue::Number(rng.random_range(0..7usize) as f64)
                            }
                        })
                        .collect();
                    RankingEdit::Insert { cells }
                }
            })
            .collect();
        monitor.apply(&batch).unwrap();
        let fresh = Audit::builder(Arc::new(monitor.dataset().clone()))
            .ranking(monitor.ranking())
            .build()
            .unwrap()
            .run(&cfg, &task, Engine::Optimized)
            .unwrap();
        let got: Vec<AuditKResult> = monitor.results().to_vec();
        assert_eq!(got, fresh.per_k);
    }
}
