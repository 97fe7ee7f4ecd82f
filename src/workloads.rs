//! The three evaluation workloads of the paper (§VI-A), prepared
//! end-to-end: synthetic dataset → ranking (computed on the raw numeric
//! attributes, exactly as the paper does) → detection-ready dataset with
//! every continuous attribute bucketized into 3–4 equal-width bins.
//!
//! Row counts default to the real datasets’ sizes (COMPAS 6,889; Student
//! 395; German Credit 1,000) and can be scaled for stress tests.

use std::sync::Arc;

use rankfair_core::{Audit, AuditError};
use rankfair_data::bucketize::{bucketize_in_place, BinStrategy};
use rankfair_data::Dataset;
use rankfair_rank::{AttributeRanker, LinearScoreRanker, Ranker, Ranking, ScoreTerm};
use rankfair_synth::SynthConfig;

/// A fully prepared workload.
pub struct Workload {
    /// Workload name (`student`, `compas`, `german`).
    pub name: &'static str,
    /// The original mixed-type dataset (used by rankers and the
    /// explanation module, whose regression features keep raw numerics).
    pub raw: Dataset,
    /// The detection-ready dataset: same columns, continuous attributes
    /// bucketized, so every column is a pattern attribute. Shared behind
    /// an `Arc` so [`Workload::audit`] hands the same in-memory dataset to
    /// any number of audits without copying.
    pub detection: Arc<Dataset>,
    /// The ranking, computed on `raw` **before** bucketization.
    pub ranking: Ranking,
    /// Name of the ranking method (for reports).
    pub ranker_name: String,
}

impl Workload {
    /// Names of the pattern attributes (all columns of `detection`), in
    /// search-tree order. The scalability experiments take prefixes of
    /// this list.
    pub fn attr_names(&self) -> Vec<String> {
        self.detection
            .columns()
            .iter()
            .map(|c| c.name().to_string())
            .collect()
    }

    /// An [`Audit`] over the full attribute set, sharing this workload's
    /// detection dataset and ranking.
    pub fn audit(&self) -> Result<Audit, AuditError> {
        Audit::builder(Arc::clone(&self.detection))
            .ranking(self.ranking.clone())
            .build()
    }

    /// An [`Audit`] restricted to the first `n_attrs` pattern attributes
    /// (the x-axis of the paper's scalability experiments).
    pub fn audit_with_attrs(&self, n_attrs: usize) -> Result<Audit, AuditError> {
        let names = self.attr_names();
        let take = n_attrs.min(names.len());
        Audit::builder(Arc::clone(&self.detection))
            .ranking(self.ranking.clone())
            .attributes(names.into_iter().take(take))
            .build()
    }
}

fn bucketize_all(ds: &mut Dataset, specs: &[(&str, usize)]) {
    for &(col, bins) in specs {
        bucketize_in_place(ds, col, bins, BinStrategy::EqualWidth)
            .unwrap_or_else(|e| panic!("bucketizing `{col}`: {e}"));
    }
}

/// Student Performance: ranked by the final math grade `G3` (descending),
/// as in §VI-A. 33 attributes after bucketization.
pub fn student_workload(rows: usize, seed: u64) -> Workload {
    let raw = rankfair_synth::student(SynthConfig::new(rows, seed));
    let ranker = AttributeRanker::by_desc("G3");
    let ranking = ranker.rank(&raw);
    let mut detection = raw.clone();
    bucketize_all(
        &mut detection,
        &[("age", 3), ("absences", 4), ("G1", 4), ("G2", 4), ("G3", 4)],
    );
    Workload {
        name: "student",
        raw,
        detection: Arc::new(detection),
        ranking,
        ranker_name: ranker.name().to_string(),
    }
}

/// COMPAS: ranked by the normalized sum of the seven scoring attributes
/// of §VI-A (age inverted). 16 attributes after bucketization.
pub fn compas_workload(rows: usize, seed: u64) -> Workload {
    let raw = rankfair_synth::compas(SynthConfig::new(rows, seed));
    let ranker = LinearScoreRanker::new(vec![
        ScoreTerm::plain("c_days_from_compas"),
        ScoreTerm::plain("juv_other_count"),
        ScoreTerm::plain("days_b_screening_arrest"),
        ScoreTerm::plain("start"),
        ScoreTerm::plain("end"),
        ScoreTerm::inverted("age"),
        ScoreTerm::plain("priors_count"),
    ]);
    let ranking = ranker.rank(&raw);
    let mut detection = raw.clone();
    bucketize_all(
        &mut detection,
        &[
            ("age", 4),
            ("juv_fel_count", 3),
            ("juv_misd_count", 3),
            ("juv_other_count", 3),
            ("priors_count", 4),
            ("days_b_screening_arrest", 3),
            ("c_days_from_compas", 4),
            ("start", 3),
            ("end", 4),
        ],
    );
    Workload {
        name: "compas",
        raw,
        detection: Arc::new(detection),
        ranking,
        ranker_name: ranker.name().to_string(),
    }
}

/// German Credit: ranked by a creditworthiness score over duration, credit
/// amount, installment rate and residence length — the attributes the
/// paper’s Shapley analysis identifies as strongest for this dataset
/// (Fig. 10c). The detection side keeps all 20 attributes.
pub fn german_workload(rows: usize, seed: u64) -> Workload {
    let raw = rankfair_synth::german_credit(SynthConfig::new(rows, seed));
    let ranker = LinearScoreRanker::new(vec![
        ScoreTerm::inverted("duration"),
        ScoreTerm::inverted("credit_amount"),
        ScoreTerm {
            column: "installment_rate".into(),
            weight: 0.8,
            invert: true,
        },
        ScoreTerm {
            column: "residence_since".into(),
            weight: 0.6,
            invert: false,
        },
    ]);
    let ranking = ranker.rank(&raw);
    let mut detection = raw.clone();
    bucketize_all(
        &mut detection,
        &[("duration", 4), ("credit_amount", 4), ("age", 4)],
    );
    Workload {
        name: "german",
        raw,
        detection: Arc::new(detection),
        ranking,
        ranker_name: ranker.name().to_string(),
    }
}

/// All three workloads at their paper-default sizes.
pub fn all_workloads(seed: u64) -> Vec<Workload> {
    vec![
        compas_workload(0, seed),
        student_workload(0, seed),
        german_workload(0, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_detection_dataset_is_fully_categorical() {
        let w = student_workload(120, 3);
        assert_eq!(w.detection.categorical_columns().len(), 33);
        assert_eq!(w.raw.n_rows(), 120);
        assert_eq!(w.ranking.len(), 120);
        assert_eq!(w.attr_names().len(), 33);
    }

    #[test]
    fn compas_detection_dataset_is_fully_categorical() {
        let w = compas_workload(300, 3);
        assert_eq!(w.detection.categorical_columns().len(), 16);
    }

    #[test]
    fn german_detection_dataset_is_fully_categorical() {
        let w = german_workload(200, 3);
        assert_eq!(w.detection.categorical_columns().len(), 20);
    }

    #[test]
    fn ranking_follows_g3_descending() {
        let w = student_workload(150, 5);
        let g3 = w.raw.column_by_name("G3").unwrap();
        let order = w.ranking.order();
        for pair in order.windows(2) {
            assert!(g3.value(pair[0] as usize) >= g3.value(pair[1] as usize));
        }
    }

    #[test]
    fn default_sizes_match_paper() {
        let ws = all_workloads(1);
        assert_eq!(ws[0].raw.n_rows(), 6889);
        assert_eq!(ws[1].raw.n_rows(), 395);
        assert_eq!(ws[2].raw.n_rows(), 1000);
    }
}
