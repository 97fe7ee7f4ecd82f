//! Cross-crate integration tests: the full pipeline (synthetic data →
//! ranking → detection → explanation) on all three paper workloads,
//! through the owned `Audit` API.

use rankfair::core::{render_report, KResult};
use rankfair::explain::distribution::compare_distributions;
use rankfair::prelude::*;

fn under(audit: &Audit, cfg: &DetectConfig, measure: &BiasMeasure, engine: Engine) -> AuditOutcome {
    audit
        .run(cfg, &AuditTask::UnderRep(measure.clone()), engine)
        .unwrap()
}

fn check_workload(w: &Workload, tau: usize, attrs_cap: usize) {
    let audit = w.audit_with_attrs(attrs_cap).unwrap();
    let cfg = DetectConfig::new(tau, 10, 49);

    // Baseline and optimized engines agree for both measures.
    let bounds = Bounds::paper_default();
    let g_measure = BiasMeasure::GlobalLower(bounds.clone());
    let base_g = under(&audit, &cfg, &g_measure, Engine::Baseline);
    let opt_g = under(&audit, &cfg, &g_measure, Engine::Optimized);
    assert_eq!(base_g.per_k, opt_g.per_k, "{}: global mismatch", w.name);

    let p_measure = BiasMeasure::Proportional { alpha: 0.8 };
    let base_p = under(&audit, &cfg, &p_measure, Engine::Baseline);
    let opt_p = under(&audit, &cfg, &p_measure, Engine::Optimized);
    assert_eq!(
        base_p.per_k, opt_p.per_k,
        "{}: proportional mismatch",
        w.name
    );

    // The optimized algorithms examine fewer patterns.
    assert!(
        opt_g.stats.patterns_examined() < base_g.stats.patterns_examined(),
        "{}: no global gain",
        w.name
    );
    assert!(
        opt_p.stats.patterns_examined() < base_p.stats.patterns_examined(),
        "{}: no proportional gain",
        w.name
    );

    // Every reported group is substantial, biased and most general.
    for (out, measure) in [(&opt_g, &g_measure), (&opt_p, &p_measure)] {
        for kr in &out.per_k {
            for p in &kr.under {
                let (sd, count) = audit.index().counts(p, kr.k);
                assert!(sd >= tau);
                assert!(measure.is_biased(count, sd, kr.k, w.detection.n_rows()));
            }
            for a in &kr.under {
                for b in &kr.under {
                    assert!(a == b || !a.is_proper_subset_of(b));
                }
            }
        }
    }

    // Reports render with sizes and bounds.
    let task = AuditTask::UnderRep(g_measure);
    let text = render_report(&audit.report(&opt_g, &task));
    assert!(text.contains("k = 10"));
}

#[test]
fn student_pipeline() {
    let w = student_workload(0, 42);
    check_workload(&w, 50, 8);
}

#[test]
fn compas_pipeline() {
    let w = compas_workload(1500, 42);
    check_workload(&w, 50, 8);
}

#[test]
fn german_pipeline() {
    let w = german_workload(0, 42);
    check_workload(&w, 50, 8);
}

#[test]
fn explanation_surfaces_the_true_scoring_attribute() {
    // Student ranking is a function of G3: for any detected group the
    // surrogate's strongest attribute must be one of the grade columns.
    let w = student_workload(0, 42);
    let audit = w.audit().unwrap();
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(40)));
    let out = audit
        .run(&DetectConfig::new(50, 49, 49), &task, Engine::Optimized)
        .unwrap();
    let group_pattern = &out.per_k[0].under[0];
    let members = audit.group_members(group_pattern);
    assert!(!members.is_empty());

    let surrogate = RankSurrogate::fit(&w.raw, &w.ranking, &ExplainConfig::fast());
    assert!(surrogate.fit_quality() > 0.8);
    let ex = surrogate.explain_group(&members);
    let top = &ex.ranked_attributes()[0].0;
    assert!(
        ["G1", "G2", "G3"].contains(&top.as_str()),
        "top attribute was {top}"
    );

    // Fig. 10d analogue: the top attribute distribution separates the
    // group from the top-k.
    let topk: Vec<u32> = w.ranking.top_k(49).to_vec();
    let cmp = compare_distributions(&w.raw, top, &topk, &members);
    assert!(cmp.total_variation() > 0.2);
}

#[test]
fn upper_bound_extension_on_workload() {
    let w = german_workload(0, 42);
    let audit = w.audit().unwrap();
    let cfg = DetectConfig::new(50, 49, 49);
    let task = AuditTask::Combined {
        lower: Bounds::constant(40),
        upper: Bounds::constant(45),
    };
    let combined = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    assert_eq!(combined.per_k.len(), 1);
    for p in &combined.per_k[0].over {
        let (sd, count) = audit.index().counts(p, 49);
        assert!(sd >= 50 && count > 45);
    }
}

#[test]
fn csv_roundtrip_preserves_detection_results() {
    use rankfair::data::csv::{read_csv_str, write_csv_string, CsvOptions};
    use std::sync::Arc;

    let w = student_workload(150, 9);
    let audit = w.audit().unwrap();
    let cfg = DetectConfig::new(20, 5, 30);
    let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
    let before = audit.run(&cfg, &task, Engine::Optimized).unwrap();

    // Serialize the detection dataset, reload it, re-run: the labels and
    // encodings survive the round trip, so results must be identical.
    let text = write_csv_string(&w.detection, ',');
    let force: Vec<String> = w.attr_names();
    let opts = CsvOptions {
        force_categorical: force,
        ..CsvOptions::default()
    };
    let reloaded = read_csv_str(&text, &opts).unwrap();
    let audit2 = Audit::builder(Arc::new(reloaded))
        .ranking(w.ranking.clone())
        .build()
        .unwrap();
    let after = audit2.run(&cfg, &task, Engine::Optimized).unwrap();

    let render = |out: &AuditOutcome, a: &Audit| -> Vec<Vec<String>> {
        out.per_k
            .iter()
            .map(|kr| {
                let mut v: Vec<String> = kr.under.iter().map(|p| a.describe(p)).collect();
                v.sort();
                v
            })
            .collect()
    };
    assert_eq!(render(&before, &audit), render(&after, &audit2));
}

#[test]
fn deadline_produces_truncated_but_valid_output() {
    let w = compas_workload(2000, 1);
    let audit = w.audit().unwrap();
    let cfg = DetectConfig::new(50, 10, 49).with_deadline(std::time::Duration::from_micros(200));
    let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
    let out = audit.run(&cfg, &task, Engine::Baseline).unwrap();
    if out.stats.timed_out {
        assert!(out.per_k.len() < 40);
    }
    // Results that were produced are still exact prefixes.
    let full = audit
        .run(&DetectConfig::new(50, 10, 49), &task, Engine::Optimized)
        .unwrap();
    for (got, want) in out.per_k.iter().zip(&full.per_k) {
        assert_eq!(got, want);
    }
}

#[test]
fn streaming_matches_batch_on_workload() {
    let w = german_workload(0, 42);
    let audit = w.audit_with_attrs(8).unwrap();
    let cfg = DetectConfig::new(50, 10, 49);
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default()));

    let batch = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    // Where the paper's GlobalBounds reruns its search at every bound
    // step, the batch run and the stream both reclassify the node store
    // instead: exactly one full search each (the initial build), with
    // identical results.
    assert_eq!(batch.stats.full_searches, 1);
    let mut stream = audit.run_streaming(&cfg, &task).unwrap();
    let streamed: Vec<AuditKResult> = stream.by_ref().collect();
    assert_eq!(batch.per_k, streamed);
    assert_eq!(stream.stats().full_searches, 1);
}

#[test]
fn multithreaded_run_is_byte_identical_on_workload() {
    use std::sync::Arc;
    let w = german_workload(0, 42);
    let names = w.attr_names();
    let seq = w.audit_with_attrs(8).unwrap();
    let par = Audit::builder(Arc::clone(&w.detection))
        .ranking(w.ranking.clone())
        .attributes(names.into_iter().take(8))
        .threads(4)
        .build()
        .unwrap();
    let cfg = DetectConfig::new(50, 10, 49);
    for task in [
        AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default())),
        AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
        AuditTask::Combined {
            lower: Bounds::constant(40),
            upper: Bounds::constant(45),
        },
    ] {
        let a = seq.run(&cfg, &task, Engine::Optimized).unwrap();
        let b = par.run(&cfg, &task, Engine::Optimized).unwrap();
        assert_eq!(a.per_k, b.per_k);
        let a_dets: Vec<KResult> = a.detection_output().per_k;
        let b_dets: Vec<KResult> = b.detection_output().per_k;
        assert_eq!(a_dets, b_dets);
    }
}

#[test]
fn permutation_importance_agrees_with_shapley_on_student() {
    use rankfair::explain::permutation_importance;

    let w = student_workload(200, 5);
    let surrogate = RankSurrogate::fit(&w.raw, &w.ranking, &ExplainConfig::fast());
    let features = rankfair::explain::FeatureMatrix::from_dataset(&w.raw);
    let target = w.ranking.rank_vector();
    let imp = permutation_importance(surrogate.forest(), &features, &target, 2, 7);
    // The ranking is a function of G3; both attribution methods must put a
    // grade column on top.
    let top = &imp.ranked()[0].0;
    assert!(
        ["G1", "G2", "G3"].contains(&top.as_str()),
        "importance top: {top}"
    );
}
