//! Seeded synthetic dataset generators for the `rankfair` workspace.
//!
//! The paper evaluates on three real datasets (COMPAS, UCI Student
//! Performance, UCI German Credit). Those files cannot be redistributed
//! here, so this crate generates synthetic stand-ins with the documented
//! **schemas, row counts, cardinalities and the correlations the paper’s
//! analysis depends on**. The row count and the pattern graph that the
//! schema and cardinalities span set the size of the search; the
//! correlations with the ranking attributes carry the §VI-C explanations:
//!
//! * [`student`] — 395 students × 33 attributes; grades `G1`/`G2`/`G3`
//!   strongly correlated with each other and moderately with mother’s
//!   education and (negatively) past failures, so the Shapley analysis of
//!   §VI-C reproduces;
//! * [`compas`] — 6,889 defendants × 16 attributes with the seven scoring
//!   attributes the paper’s ranking uses;
//! * [`german_credit`] — 1,000 applicants × 20 attributes with a
//!   creditworthiness signal carried by account status, duration, credit
//!   amount, installment rate and residence length;
//! * [`worst_case`] — the adversarial instance of Theorem 3.3 whose result
//!   set is exponential;
//! * [`random_dataset`] / [`random_ranking`] — arbitrary small instances
//!   for differential and property-based testing.
//!
//! Every generator is deterministic in its seed, so experiments and tests
//! are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compas;
mod german;
mod random;
mod student;
mod util;
mod worst_case;

pub use compas::compas;
pub use german::german_credit;
pub use random::{
    random_dataset, random_dataset_block, random_dataset_streamed, random_ranking, RandomSpec,
};
pub use student::student;
pub use util::pearson;
pub use worst_case::{worst_case, worst_case_result_count};

/// Common knobs for the three dataset simulators.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of rows to generate. Defaults mirror the real datasets
    /// (COMPAS 6,889; Student 395; German Credit 1,000); larger values
    /// scale the same distributions for stress tests.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SynthConfig {
    /// Config with an explicit row count.
    pub fn new(rows: usize, seed: u64) -> Self {
        SynthConfig { rows, seed }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { rows: 0, seed: 42 } // rows = 0 → generator default
    }
}
