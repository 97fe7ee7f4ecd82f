//! The paper's COMPAS preparation (§VI-A), shared by three workloads:
//! rank on the raw numeric attributes, then bucketize them for detection.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rankfair_core::Bounds;
use rankfair_data::bucketize::{bucketize_in_place, BinStrategy};
use rankfair_data::Dataset;
use rankfair_rank::{LinearScoreRanker, ScoreTerm};
use rankfair_synth::SynthConfig;

/// Seed of the first synthetic COMPAS instance the workloads start from.
const BASE_SEED: u64 = 2023;

/// Fixed synthetic COMPAS instance number `instance`, of `rows` rows, with
/// its rows in an order drawn from `seed`. Every seed audits the same
/// tuples, so runs with different seeds do the same work; a fresh instance
/// per seed would move the pattern-graph size, and with it the run time,
/// by ±15%.
pub fn permuted(rows: usize, instance: u64, seed: u64) -> Dataset {
    let base = rankfair_synth::compas(SynthConfig::new(rows, BASE_SEED + instance));
    let mut order: Vec<usize> = (0..base.n_rows()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    base.select_rows(&order)
}

/// `(column, bins)`: every continuous COMPAS attribute, 3–4 equal-width
/// bins.
pub const BUCKETS: &[(&str, usize)] = &[
    ("age", 4),
    ("juv_fel_count", 3),
    ("juv_misd_count", 3),
    ("juv_other_count", 3),
    ("priors_count", 4),
    ("days_b_screening_arrest", 3),
    ("c_days_from_compas", 4),
    ("start", 3),
    ("end", 4),
];

/// The normalized sum of the seven scoring attributes, age inverted.
pub fn ranker() -> LinearScoreRanker {
    LinearScoreRanker::new(vec![
        ScoreTerm::plain("c_days_from_compas"),
        ScoreTerm::plain("juv_other_count"),
        ScoreTerm::plain("days_b_screening_arrest"),
        ScoreTerm::plain("start"),
        ScoreTerm::plain("end"),
        ScoreTerm::inverted("age"),
        ScoreTerm::plain("priors_count"),
    ])
}

/// Bucketizes every [`BUCKETS`] column of `ds` in place.
pub fn bucketize(ds: &mut Dataset) -> Result<(), String> {
    for &(col, bins) in BUCKETS {
        bucketize_in_place(ds, col, bins, BinStrategy::EqualWidth)
            .map_err(|e| format!("bucketizing {col}: {e}"))?;
    }
    Ok(())
}

/// Upper bounds shaped like the paper's lower defaults: at most ~60% of
/// the top-`k` from one group.
pub fn upper_bounds() -> Bounds {
    Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)])
}
