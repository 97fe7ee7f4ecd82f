//! Ranking substrate: black-box rankers and rankings-as-permutations.
//!
//! The paper treats the ranking algorithm `R` as a black box (§III, “the
//! ranking algorithm is treated as a black box, making the problem model
//! agnostic”). This crate provides:
//!
//! * [`Ranking`] — a permutation of row ids with O(1) access to both
//!   directions (`order[rank] = row`, `position[row] = rank`), held
//!   behind a shared handle: a clone reads the same order. A ranking by
//!   score of more than 8 192 rows sorts only its best 4 096 rows when it
//!   is built, which is all an audit up to `k_max ≤ 4 096` reads; the
//!   first read past them (`order`, `position`, a `top_k` or `at` beyond
//!   the head) finishes the sort from one stored key per row (8 bytes a
//!   row);
//! * the [`Ranker`] trait — anything that turns a dataset into a
//!   [`Ranking`];
//! * three concrete rankers mirroring §VI-A of the paper:
//!   [`AttributeRanker`] (Student: final grade descending, failures as
//!   tie-breaker), [`LinearScoreRanker`] (COMPAS: sum of min–max-normalized
//!   scoring attributes, age inverted), and [`FnRanker`] (arbitrary
//!   user-supplied scoring, standing in for externally provided rankings
//!   such as the German Credit creditworthiness order).
//!
//! Every ranker breaks remaining ties by row id, so a given dataset
//! always produces the same ranking — a property the incremental
//! detection algorithms and the test suite rely on. [`LinearScoreRanker`]
//! and [`FnRanker`] rank a NaN score last, whatever its sign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod live;
mod rankers;
mod ranking;

pub use live::{RankDelta, ScoredRanking};
pub use rankers::{AttributeRanker, FnRanker, LinearScoreRanker, ScoreTerm, SortKey};
pub use ranking::{Ranking, RankingError};

use rankfair_data::Dataset;

/// A black-box ranking algorithm.
pub trait Ranker {
    /// Produces the ranking of every row of `ds`.
    fn rank(&self, ds: &Dataset) -> Ranking;

    /// Human-readable name used in reports and benchmark output.
    fn name(&self) -> &str {
        "ranker"
    }
}
