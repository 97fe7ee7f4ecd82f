//! Differential correctness suite: on randomized instances, the baseline
//! (`IterTD` / brute force), the optimized engines (`GlobalBounds`,
//! `PropBounds`, the incremental upper engine) and the brute-force
//! oracle must produce identical result sets for every `k`, for **every**
//! [`AuditTask`].
//!
//! This is the test that pins the incremental engine to the paper's
//! semantics: any divergence in count maintenance, frontier resumption,
//! dominance bookkeeping or `k̃` scheduling shows up here immediately.
//!
//! Originally written against `proptest`; this container builds offline,
//! so the randomized sweeps run on the workspace's deterministic
//! generator — reproducible by seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rankfair_core::{
    oracle, Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, KResult, OverRepScope,
    PatternSpace,
};
use rankfair_rank::Ranking;
use rankfair_synth::{random_dataset, random_ranking, RandomSpec};

fn build_audit(seed: u64, rows: usize, attrs: usize, max_card: usize) -> Audit {
    let ds = random_dataset(
        seed,
        RandomSpec {
            rows,
            attrs,
            max_card,
        },
    );
    let ranking = Ranking::from_order(random_ranking(seed.wrapping_add(1), rows)).unwrap();
    Audit::builder(Arc::new(ds))
        .ranking(ranking)
        .build()
        .unwrap()
}

fn oracle_results(audit: &Audit, cfg: &DetectConfig, measure: &BiasMeasure) -> Vec<KResult> {
    oracle::detect(
        audit.dataset(),
        audit.space(),
        audit.ranking(),
        cfg.tau_s,
        cfg.k_min,
        cfg.k_max,
        measure,
    )
}

fn under(audit: &Audit, cfg: &DetectConfig, measure: &BiasMeasure, engine: Engine) -> Vec<KResult> {
    audit
        .run(cfg, &AuditTask::UnderRep(measure.clone()), engine)
        .unwrap()
        .detection_output()
        .per_k
}

#[test]
fn global_bounds_agrees_with_baseline_and_oracle() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..48 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..70usize);
        let attrs = rng.random_range(2..5usize);
        let max_card = rng.random_range(2..4usize);
        let tau = rng.random_range(1..12usize);
        let lower = rng.random_range(1..8usize);
        let audit = build_audit(seed, rows, attrs, max_card);
        let cfg = DetectConfig::new(tau, 2.min(rows), rows.min(40));
        let measure = BiasMeasure::GlobalLower(Bounds::constant(lower));

        let base = under(&audit, &cfg, &measure, Engine::Baseline);
        let opt = under(&audit, &cfg, &measure, Engine::Optimized);
        assert_eq!(base, opt, "seed={seed} rows={rows} tau={tau} lower={lower}");
        let want = oracle_results(&audit, &cfg, &measure);
        assert_eq!(opt, want, "seed={seed} rows={rows} tau={tau} lower={lower}");
    }
}

#[test]
fn global_bounds_with_step_bounds_agrees() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..48 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..60usize);
        let attrs = rng.random_range(2..5usize);
        let tau = rng.random_range(1..10usize);
        let l1 = rng.random_range(1..4usize);
        let step = rng.random_range(1..4usize);
        let audit = build_audit(seed, rows, attrs, 3);
        let cfg = DetectConfig::new(tau, 2, rows.min(36));
        // Non-decreasing step bounds, stepping at k = 10, 20, 30.
        let bounds = Bounds::steps(vec![
            (0, l1),
            (10, l1 + step),
            (20, l1 + 2 * step),
            (30, l1 + 3 * step),
        ]);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = under(&audit, &cfg, &measure, Engine::Baseline);
        let opt = under(&audit, &cfg, &measure, Engine::Optimized);
        assert_eq!(base, opt, "seed={seed}");
        let want = oracle_results(&audit, &cfg, &measure);
        assert_eq!(opt, want, "seed={seed}");
        // The stream reclassifies its node store at each bound step, as
        // the batch run does — it must be output-equivalent too.
        let streamed: Vec<KResult> = audit
            .run_streaming(&cfg, &AuditTask::UnderRep(measure.clone()))
            .unwrap()
            .map(|kr| KResult {
                k: kr.k,
                patterns: kr.under,
            })
            .collect();
        assert_eq!(streamed, want, "seed={seed}");
    }
}

#[test]
fn prop_bounds_agrees_with_baseline_and_oracle() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..48 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..70usize);
        let attrs = rng.random_range(2..5usize);
        let max_card = rng.random_range(2..4usize);
        let tau = rng.random_range(1..12usize);
        let alpha = rng.random_range(10..140usize) as f64 / 100.0;
        let audit = build_audit(seed, rows, attrs, max_card);
        let cfg = DetectConfig::new(tau, 2, rows.min(40));
        let measure = BiasMeasure::Proportional { alpha };

        let base = under(&audit, &cfg, &measure, Engine::Baseline);
        let opt = under(&audit, &cfg, &measure, Engine::Optimized);
        assert_eq!(base, opt, "seed={seed} tau={tau} alpha={alpha}");
        let want = oracle_results(&audit, &cfg, &measure);
        assert_eq!(opt, want, "seed={seed} tau={tau} alpha={alpha}");
    }
}

#[test]
fn results_are_sound_minimal_and_substantial() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..48 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..60usize);
        let attrs = rng.random_range(2..5usize);
        let tau = rng.random_range(1..10usize);
        let alpha = rng.random_range(30..120usize) as f64 / 100.0;
        let audit = build_audit(seed, rows, attrs, 3);
        let cfg = DetectConfig::new(tau, 3, rows.min(30));
        let measure = BiasMeasure::Proportional { alpha };
        let out = under(&audit, &cfg, &measure, Engine::Optimized);
        for kr in &out {
            for p in &kr.patterns {
                let (sd, count) = audit.index().counts(p, kr.k);
                assert!(sd >= tau, "reported group below τs");
                assert!(
                    measure.is_biased(count, sd, kr.k, rows),
                    "non-biased group reported"
                );
            }
            for a in &kr.patterns {
                for b in &kr.patterns {
                    assert!(a == b || !a.is_proper_subset_of(b), "non-minimal result");
                }
            }
        }
    }
}

/// Over-representation (both scopes) and the combined task: the pruned
/// optimized searches must match the brute-force baseline engine for every
/// single `k` on randomized instances.
#[test]
fn over_rep_and_combined_agree_with_baseline_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(113);
    for _ in 0..32 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..50usize);
        let attrs = rng.random_range(2..5usize);
        let tau = rng.random_range(1..8usize);
        let u = rng.random_range(0..6usize);
        let audit = build_audit(seed, rows, attrs, 3);
        let cfg = DetectConfig::new(tau, 2, rows.min(24));
        for task in [
            AuditTask::OverRep {
                upper: Bounds::constant(u),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: Bounds::constant(u),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined {
                lower: Bounds::constant(u + 1),
                upper: Bounds::constant(u),
            },
        ] {
            let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
            assert_eq!(
                opt.per_k, base.per_k,
                "seed={seed} tau={tau} u={u} {task:?}"
            );
        }
    }
}

/// Satellite requirement: `Combined` / `OverRep` single-`k` results agree
/// between the optimized and baseline paths on the paper's Figure 1
/// dataset, across a parameter sweep.
#[test]
fn over_rep_and_combined_single_k_agree_on_students_fig1() {
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    let audit = Audit::builder(Arc::new(students_fig1()))
        .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
        .build()
        .unwrap();
    for tau in [1, 2, 4] {
        for k in [3, 5, 8, 16] {
            for u in [0, 1, 2, 4] {
                let cfg = DetectConfig::new(tau, k, k);
                for task in [
                    AuditTask::OverRep {
                        upper: Bounds::constant(u),
                        scope: OverRepScope::MostSpecific,
                    },
                    AuditTask::OverRep {
                        upper: Bounds::constant(u),
                        scope: OverRepScope::MostGeneral,
                    },
                    AuditTask::Combined {
                        lower: Bounds::constant(2),
                        upper: Bounds::constant(u),
                    },
                ] {
                    let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
                    let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
                    assert_eq!(opt.per_k, base.per_k, "tau={tau} k={k} u={u} {task:?}");
                }
            }
        }
    }
}

/// Satellite requirement: the same agreement on seeded synthetic COMPAS
/// (small subsample, restricted attribute set so the brute-force baseline
/// stays tractable).
#[test]
fn over_rep_and_combined_single_k_agree_on_synthetic_compas() {
    use rankfair_rank::{AttributeRanker, Ranker};
    let ds = rankfair_synth::compas(rankfair_synth::SynthConfig::new(200, 7));
    let ranker = AttributeRanker::by_desc("priors_count");
    let ranking = ranker.rank(&ds);
    let cats = ds.categorical_columns();
    let space = PatternSpace::from_columns(&ds, &cats).unwrap();
    let attr_names: Vec<String> = (0..space.n_attrs().min(5))
        .map(|a| space.attr_name(a as u16).to_string())
        .collect();
    let audit = Audit::builder(Arc::new(ds))
        .ranking(ranking)
        .attributes(attr_names)
        .build()
        .unwrap();
    for (tau, k, u) in [(5, 10, 2), (10, 25, 5), (20, 49, 8), (5, 49, 0)] {
        let cfg = DetectConfig::new(tau, k, k);
        for task in [
            AuditTask::OverRep {
                upper: Bounds::constant(u),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: Bounds::constant(u),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined {
                lower: Bounds::constant(u + 2),
                upper: Bounds::constant(u),
            },
        ] {
            let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
            assert_eq!(opt.per_k, base.per_k, "tau={tau} k={k} u={u} {task:?}");
        }
    }
}

/// Satellite requirement: the **incremental** over-representation engine
/// (one build, then per-`k` subtree walks and frontier deltas) must match
/// the brute-force baseline over whole `k` ranges with *step* upper
/// bounds — the case that exercises the store-rescan path — on the
/// paper's Figure 1 data.
#[test]
fn incremental_over_rep_matches_baseline_across_step_bounds_on_fig1() {
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    let audit = Audit::builder(Arc::new(students_fig1()))
        .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
        .build()
        .unwrap();
    let bounds = [
        Bounds::constant(1),
        Bounds::steps(vec![(0, 1), (6, 2), (11, 3)]),
        // A decreasing step: outside the paper's assumption, but the
        // rescan must stay exact for it.
        Bounds::Steps(vec![(8, 1), (0, 2)]),
        // Changes at almost every k — the frontier delta's gains+losses
        // path runs on nearly every step.
        Bounds::LinearFraction(0.3),
    ];
    for tau in [1, 2, 4] {
        for upper in &bounds {
            for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let task = AuditTask::OverRep {
                    upper: upper.clone(),
                    scope,
                };
                let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
                let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
                assert_eq!(opt.per_k, base.per_k, "tau={tau} {upper:?} {scope:?}");
            }
            let task = AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: upper.clone(),
            };
            let cfg = DetectConfig::new(tau, 2, 16);
            let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
            assert_eq!(opt.per_k, base.per_k, "combined tau={tau} {upper:?}");
        }
    }
}

fn synthetic_audit(which: &str, rows: usize, seed: u64, rank_by: &str, n_attrs: usize) -> Audit {
    use rankfair_rank::{AttributeRanker, Ranker};
    let ds = match which {
        "compas" => rankfair_synth::compas(rankfair_synth::SynthConfig::new(rows, seed)),
        "german" => rankfair_synth::german_credit(rankfair_synth::SynthConfig::new(rows, seed)),
        other => panic!("unknown synthetic dataset {other}"),
    };
    let ranking = AttributeRanker::by_desc(rank_by).rank(&ds);
    let cats = ds.categorical_columns();
    let space = PatternSpace::from_columns(&ds, &cats).unwrap();
    let attr_names: Vec<String> = (0..space.n_attrs().min(n_attrs))
        .map(|a| space.attr_name(a as u16).to_string())
        .collect();
    Audit::builder(Arc::new(ds))
        .ranking(ranking)
        .attributes(attr_names)
        .build()
        .unwrap()
}

/// Satellite requirement: incremental OverRep ≡ baseline on seeded
/// synthetic COMPAS and German ranges with step upper bounds, and the
/// streaming path must be byte-identical to the batch path.
#[test]
fn incremental_over_rep_matches_baseline_on_synthetic_compas_and_german() {
    for (which, rank_by) in [("compas", "priors_count"), ("german", "credit_amount")] {
        let audit = synthetic_audit(which, 180, 7, rank_by, 4);
        let upper = Bounds::steps(vec![(10, 4), (25, 9), (40, 14)]);
        for tau in [5, 15] {
            let cfg = DetectConfig::new(tau, 10, 60);
            for task in [
                AuditTask::OverRep {
                    upper: upper.clone(),
                    scope: OverRepScope::MostSpecific,
                },
                AuditTask::OverRep {
                    upper: upper.clone(),
                    scope: OverRepScope::MostGeneral,
                },
                AuditTask::Combined {
                    lower: Bounds::paper_default(),
                    upper: upper.clone(),
                },
            ] {
                let opt = audit.run(&cfg, &task, Engine::Optimized).unwrap();
                let base = audit.run(&cfg, &task, Engine::Baseline).unwrap();
                assert_eq!(opt.per_k, base.per_k, "{which} tau={tau} {task:?}");
                let streamed: Vec<_> = audit.run_streaming(&cfg, &task).unwrap().collect();
                assert_eq!(opt.per_k, streamed, "streaming {which} tau={tau} {task:?}");
            }
        }
    }
}

/// The incremental engine carries its store from one `k` to the next, so
/// over a range it must evaluate strictly fewer patterns than a fresh run
/// at each single `k`, and return the same sets.
#[test]
fn incremental_over_rep_evaluates_fewer_nodes_than_fresh_single_k_runs() {
    let audit = synthetic_audit("compas", 300, 11, "priors_count", 5);
    let cfg = DetectConfig::new(10, 10, 80);
    let task = AuditTask::OverRep {
        upper: Bounds::steps(vec![(10, 4), (25, 9), (40, 14)]),
        scope: OverRepScope::MostSpecific,
    };
    let inc = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    assert_eq!(inc.per_k.len(), 71);
    let mut fresh_evals = 0;
    for kr in &inc.per_k {
        let single = DetectConfig::new(cfg.tau_s, kr.k, kr.k);
        let fresh = audit.run(&single, &task, Engine::Optimized).unwrap();
        assert_eq!(fresh.per_k, std::slice::from_ref(kr), "k={}", kr.k);
        fresh_evals += fresh.stats.nodes_evaluated;
    }
    assert!(
        inc.stats.nodes_evaluated < fresh_evals,
        "incremental {} >= fresh single-k runs {fresh_evals}",
        inc.stats.nodes_evaluated,
    );
}

/// The adversarial instance of Theorem 3.3: the number of most general
/// biased patterns is C(n, n/2), exponential in the attribute count. Both
/// measures of the theorem's proof are checked.
#[test]
fn worst_case_result_set_is_exponential() {
    for n in [4usize, 6, 8, 10] {
        let (ds, order) = rankfair_synth::worst_case(n);
        let ranking = Ranking::from_order(order).unwrap();
        let audit = Audit::builder(Arc::new(ds))
            .ranking(ranking)
            .build()
            .unwrap();
        let expected = {
            // C(n, n/2)
            let mut c: u64 = 1;
            for i in 0..n / 2 {
                c = c * (n - i) as u64 / (i + 1) as u64;
            }
            c as usize
        };

        // Global bounds: k = n, L = n/2 + 1.
        let cfg = DetectConfig::new(1, n, n);
        let count_half_zeros = |per_k: &[rankfair_core::AuditKResult]| {
            per_k[0]
                .under
                .iter()
                .filter(|p| p.len() == n / 2 && p.terms().iter().all(|&(_, v)| v == 0))
                .count()
        };
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(n / 2 + 1)));
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        assert_eq!(count_half_zeros(&out.per_k), expected, "global, n={n}");

        // Proportional: α = (n+3)/(n+4).
        let alpha = (n as f64 + 3.0) / (n as f64 + 4.0);
        let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha });
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        assert_eq!(
            count_half_zeros(&out.per_k),
            expected,
            "proportional, n={n}"
        );
    }
}

/// Incremental equivalence on the realistic synthetic datasets (small
/// subsamples so the oracle stays tractable).
#[test]
fn synthetic_datasets_smoke_differential() {
    use rankfair_rank::{AttributeRanker, Ranker};

    let ds = rankfair_synth::student(rankfair_synth::SynthConfig::new(120, 7));
    let ranker = AttributeRanker::by_desc("G3");
    let ranking = ranker.rank(&ds);
    // Restrict to the first few categorical attributes (after bucketizing
    // `age`) to keep the oracle fast.
    let probe = {
        let mut d = ds.clone();
        rankfair_data::bucketize::bucketize_in_place(
            &mut d,
            "age",
            3,
            rankfair_data::bucketize::BinStrategy::EqualWidth,
        )
        .unwrap();
        d
    };
    let cats = probe.categorical_columns();
    let attr_names: Vec<String> = cats[..5]
        .iter()
        .map(|&c| probe.column(c).name().to_string())
        .collect();
    let audit = Audit::builder(Arc::new(ds))
        .ranking(ranking)
        .bucketize("age", 3)
        .attributes(attr_names)
        .build()
        .unwrap();
    let cfg = DetectConfig::new(15, 5, 40);

    let bounds = Bounds::steps(vec![(5, 3), (20, 6), (30, 9)]);
    let g_measure = BiasMeasure::GlobalLower(bounds);
    let base = under(&audit, &cfg, &g_measure, Engine::Baseline);
    let opt = under(&audit, &cfg, &g_measure, Engine::Optimized);
    assert_eq!(base, opt);
    let want = oracle_results(&audit, &cfg, &g_measure);
    assert_eq!(opt, want);

    let p_measure = BiasMeasure::Proportional { alpha: 0.8 };
    let base = under(&audit, &cfg, &p_measure, Engine::Baseline);
    let opt = under(&audit, &cfg, &p_measure, Engine::Optimized);
    assert_eq!(base, opt);
    let want = oracle_results(&audit, &cfg, &p_measure);
    assert_eq!(opt, want);
}
