//! Differential sweep for the sharded index: on randomized instances,
//! an audit whose `RankedIndex` cuts its membership maps into row blocks
//! (`AuditBuilder::shards`) must produce per-`k` result sets identical
//! to the unsharded audit — across shard counts, every task family, both
//! engines, and [`Bounds::LinearFraction`] bounds.
//!
//! Shards are contiguous row-id blocks of membership maps with one
//! global rank side. The additive-merge law (`s_D(p)` as a sum of
//! per-shard counts, `s_Rk(p)` read once from the global rank blocks) is
//! checked at the unit level in `space::tests`; this suite checks the law
//! *through the engines*: the search order, dominance bookkeeping and
//! bound schedules must be insensitive to how the index is partitioned.
//! Edge cases ride along: empty shards (more shards than rows), a `k`
//! range shorter than a shard, and shard counts that do not divide the
//! row count.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rankfair_core::{Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, OverRepScope};
use rankfair_rank::Ranking;
use rankfair_synth::{random_dataset, random_ranking, RandomSpec};

const SHARD_SWEEP: [usize; 4] = [1, 2, 3, 7];

fn audit_with_shards(
    seed: u64,
    rows: usize,
    attrs: usize,
    max_card: usize,
    shards: usize,
) -> Audit {
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
        .shards(shards)
        .build()
        .unwrap()
}

/// The five task families the engines distinguish, all with a
/// `LinearFraction` bound somewhere in the mix.
fn tasks() -> Vec<AuditTask> {
    vec![
        AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.3))),
        AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
        AuditTask::OverRep {
            upper: Bounds::LinearFraction(0.5),
            scope: OverRepScope::MostSpecific,
        },
        AuditTask::OverRep {
            upper: Bounds::LinearFraction(0.5),
            scope: OverRepScope::MostGeneral,
        },
        AuditTask::Combined {
            lower: Bounds::LinearFraction(0.25),
            upper: Bounds::LinearFraction(0.6),
        },
    ]
}

#[test]
fn sharded_audits_equal_unsharded_across_tasks_engines_and_shard_counts() {
    let mut rng = StdRng::seed_from_u64(211);
    for _ in 0..10 {
        let seed = rng.random::<u64>() % 10_000;
        let rows = rng.random_range(12..60usize);
        let attrs = rng.random_range(2..5usize);
        let max_card = rng.random_range(2..4usize);
        let tau = rng.random_range(1..10usize);
        let cfg = DetectConfig::new(tau, 2.min(rows), rows.min(36));
        let baseline = audit_with_shards(seed, rows, attrs, max_card, 1);
        for &shards in &SHARD_SWEEP {
            let sharded = audit_with_shards(seed, rows, attrs, max_card, shards);
            assert_eq!(sharded.index().shard_count(), shards);
            for task in tasks() {
                for engine in [Engine::Optimized, Engine::Baseline] {
                    let want = baseline.run(&cfg, &task, engine).unwrap();
                    let got = sharded.run(&cfg, &task, engine).unwrap();
                    assert_eq!(
                        want.per_k, got.per_k,
                        "seed={seed} rows={rows} shards={shards} task={task:?} engine={engine:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn more_shards_than_rows_still_agrees() {
    // 7 shards over 5 rows: trailing shards are empty and must contribute
    // zero to every merged count.
    let cfg = DetectConfig::new(1, 1, 5);
    let baseline = audit_with_shards(77, 5, 3, 3, 1);
    let sharded = audit_with_shards(77, 5, 3, 3, 7);
    assert_eq!(sharded.index().shard_count(), 7);
    for task in tasks() {
        for engine in [Engine::Optimized, Engine::Baseline] {
            let want = baseline.run(&cfg, &task, engine).unwrap();
            let got = sharded.run(&cfg, &task, engine).unwrap();
            assert_eq!(want.per_k, got.per_k, "task={task:?} engine={engine:?}");
        }
    }
}

#[test]
fn k_inside_the_first_shard_slice_agrees() {
    // 2 shards of 20 row ids each under the short k range [2, 9]: `s_Rk`
    // reads only the top 9 positions of the one global rank side, while
    // every `s_D` sums both shards.
    let cfg = DetectConfig::new(2, 2, 9);
    let baseline = audit_with_shards(909, 40, 3, 3, 1);
    let sharded = audit_with_shards(909, 40, 3, 3, 2);
    for task in tasks() {
        for engine in [Engine::Optimized, Engine::Baseline] {
            let want = baseline.run(&cfg, &task, engine).unwrap();
            let got = sharded.run(&cfg, &task, engine).unwrap();
            assert_eq!(want.per_k, got.per_k, "task={task:?} engine={engine:?}");
        }
    }
}

#[test]
fn streaming_path_agrees_over_sharded_index() {
    // The streaming audit (checkpointed engine state, bound-step
    // reclassification) reads counts through the same provider surface —
    // shard it and compare against the collected unsharded stream.
    let cfg = DetectConfig::new(2, 2, 20);
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.35)));
    let baseline = audit_with_shards(313, 24, 3, 3, 1);
    for &shards in &SHARD_SWEEP {
        let sharded = audit_with_shards(313, 24, 3, 3, shards);
        let want: Vec<_> = baseline.run_streaming(&cfg, &task).unwrap().collect();
        let got: Vec<_> = sharded.run_streaming(&cfg, &task).unwrap().collect();
        assert_eq!(want, got, "shards={shards}");
    }
}
