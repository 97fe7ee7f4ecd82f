use rankfair_data::Dataset;

use crate::ranking::{inverse, score_key};
use crate::{Ranker, Ranking};

/// Extracts a sortable numeric key from a column: numeric columns yield the
/// value; categorical columns yield the label parsed as a number when
/// possible (the running example’s `Failures` column stores "0"/"1"/"2" as
/// labels), otherwise the dictionary code.
fn sort_value(ds: &Dataset, col: usize, row: usize) -> f64 {
    let c = ds.column(col);
    if let Some(vals) = c.values() {
        vals[row]
    } else {
        let code = c.code(row);
        c.label_of(code)
            .and_then(|l| l.trim().parse::<f64>().ok())
            .unwrap_or(f64::from(code))
    }
}

/// One sort criterion of an [`AttributeRanker`].
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Column name.
    pub column: String,
    /// Sort descending (higher is better) when `true`.
    pub descending: bool,
}

impl SortKey {
    /// Descending key (higher value ranks first).
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: true,
        }
    }

    /// Ascending key (lower value ranks first).
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: false,
        }
    }
}

/// Lexicographic multi-key ranker.
///
/// The running example’s ranker is
/// `AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")])`:
/// students are ranked by grade, and “in the case of similar grades,
/// students with fewer failures are ranked higher” (Example 2.1). The
/// Student-dataset experiments rank by `G3` alone.
///
/// A NaN key ranks last in either direction, whatever its sign, as it
/// does in [`Ranking::from_scores_desc`] and in a live monitor.
#[derive(Debug, Clone)]
pub struct AttributeRanker {
    keys: Vec<SortKey>,
    name: String,
}

impl AttributeRanker {
    /// Creates a ranker from sort keys, applied lexicographically.
    pub fn new(keys: Vec<SortKey>) -> Self {
        let name = format!(
            "attr({})",
            keys.iter()
                .map(|k| format!("{}{}", k.column, if k.descending { "↓" } else { "↑" }))
                .collect::<Vec<_>>()
                .join(",")
        );
        AttributeRanker { keys, name }
    }

    /// Single descending key, the most common case.
    pub fn by_desc(column: impl Into<String>) -> Self {
        Self::new(vec![SortKey::desc(column)])
    }
}

impl Ranker for AttributeRanker {
    fn rank(&self, ds: &Dataset) -> Ranking {
        let cols: Vec<(usize, bool)> = self
            .keys
            .iter()
            .map(|k| {
                let idx = ds
                    .column_index(&k.column)
                    // lint:allow(panic-reachability) -- the service rejects unknown ranking columns with BadRequest before calling rank(); this guards direct library misuse
                    .unwrap_or_else(|| panic!("no column named `{}`", k.column));
                (idx, k.descending)
            })
            .collect();
        let mut order: Vec<u32> =
            (0..u32::try_from(ds.n_rows()).expect("row count fits TupleId")).collect();
        order.sort_by(|&a, &b| {
            for &(col, desc) in &cols {
                // score_key: every NaN ranks last in either direction,
                // as in a score ranking or a live monitor.
                let key = |row: u32| score_key(sort_value(ds, col, row as usize), !desc);
                let ord = key(a).cmp(&key(b));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal // stable sort → ties by row id
        });
        // Sorting 0..n yields a permutation: no validation pass.
        let position = inverse(&order);
        Ranking::from_parts(order, position)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One scoring attribute of a [`LinearScoreRanker`].
#[derive(Debug, Clone)]
pub struct ScoreTerm {
    /// Column name (numeric, or categorical with numeric labels).
    pub column: String,
    /// Weight of the normalized value in the score.
    pub weight: f64,
    /// When `true`, the normalized value is flipped (`1 − norm`): used for
    /// attributes where smaller raw values mean better, like `age` in the
    /// paper’s COMPAS ranking (“higher values correspond to higher scores,
    /// except for age”).
    pub invert: bool,
}

impl ScoreTerm {
    /// Positive term with weight 1.
    pub fn plain(column: impl Into<String>) -> Self {
        ScoreTerm {
            column: column.into(),
            weight: 1.0,
            invert: false,
        }
    }

    /// Inverted term with weight 1.
    pub fn inverted(column: impl Into<String>) -> Self {
        ScoreTerm {
            column: column.into(),
            weight: 1.0,
            invert: true,
        }
    }
}

/// Ranks by a weighted sum of min–max-normalized attributes, descending.
///
/// This reproduces the paper’s COMPAS ranking method (§VI-A): “values are
/// normalized as `(val − min)/(max − min)`; higher values correspond to
/// higher scores, except for age; tuples are ranked descendingly according
/// to their scores”.
#[derive(Debug, Clone)]
pub struct LinearScoreRanker {
    terms: Vec<ScoreTerm>,
    name: String,
}

impl LinearScoreRanker {
    /// Creates the ranker from its score terms.
    pub fn new(terms: Vec<ScoreTerm>) -> Self {
        let name = format!(
            "linear({})",
            terms
                .iter()
                .map(|t| if t.invert {
                    format!("-{}", t.column)
                } else {
                    t.column.clone()
                })
                .collect::<Vec<_>>()
                .join("+")
        );
        LinearScoreRanker { terms, name }
    }

    /// Computes the score of every row (exposed for tests and the
    /// explanation module, which may want the raw score as a regression
    /// target).
    pub fn scores(&self, ds: &Dataset) -> Vec<f64> {
        let n = ds.n_rows();
        let mut scores = vec![0.0; n];
        for term in &self.terms {
            let col = ds
                .column_index(&term.column)
                // lint:allow(panic-reachability) -- the service rejects unknown ranking columns with BadRequest before calling rank(); this guards direct library misuse
                .unwrap_or_else(|| panic!("no column named `{}`", term.column));
            let raw: Vec<f64> = (0..n).map(|r| sort_value(ds, col, r)).collect();
            let min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let span = max - min;
            for (s, &v) in scores.iter_mut().zip(&raw) {
                let norm = if span == 0.0 { 0.0 } else { (v - min) / span };
                let norm = if term.invert { 1.0 - norm } else { norm };
                *s += term.weight * norm;
            }
        }
        scores
    }
}

impl Ranker for LinearScoreRanker {
    fn rank(&self, ds: &Dataset) -> Ranking {
        Ranking::from_scores_desc(&self.scores(ds))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A ranker defined by an arbitrary scoring closure — the fully black-box
/// case. Higher scores rank first; ties break by row id.
pub struct FnRanker<F: Fn(&Dataset, usize) -> f64> {
    score: F,
    name: String,
}

impl<F: Fn(&Dataset, usize) -> f64> FnRanker<F> {
    /// Wraps `score` as a ranker.
    pub fn new(name: impl Into<String>, score: F) -> Self {
        FnRanker {
            score,
            name: name.into(),
        }
    }
}

impl<F: Fn(&Dataset, usize) -> f64> Ranker for FnRanker<F> {
    fn rank(&self, ds: &Dataset) -> Ranking {
        let scores: Vec<f64> = (0..ds.n_rows()).map(|r| (self.score)(ds, r)).collect();
        Ranking::from_scores_desc(&scores)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};

    #[test]
    fn running_example_ranker_reproduces_fig1_rank_column() {
        let ds = students_fig1();
        let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        let ranking = ranker.rank(&ds);
        assert_eq!(ranking.order(), fig1_rank_order().as_slice());
    }

    #[test]
    fn attribute_ranker_name_mentions_keys() {
        let r = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        assert!(r.name().contains("Grade"));
        assert!(r.name().contains("Failures"));
    }

    #[test]
    fn linear_score_normalizes_per_attribute() {
        let ds = Dataset::builder()
            .numeric("a", vec![0.0, 5.0, 10.0])
            .numeric("b", vec![100.0, 300.0, 200.0])
            .build()
            .unwrap();
        let ranker = LinearScoreRanker::new(vec![ScoreTerm::plain("a"), ScoreTerm::plain("b")]);
        let scores = ranker.scores(&ds);
        assert_eq!(scores[0], 0.0);
        assert_eq!(scores[1], 0.5 + 1.0);
        assert_eq!(scores[2], 1.0 + 0.5);
        assert_eq!(ranker.rank(&ds).order(), &[1, 2, 0]);
    }

    #[test]
    fn linear_score_ranks_a_nan_cell_last() {
        use rankfair_data::csv::{read_csv_str, CsvOptions};
        // The CSV reader parses `NaN` (and an empty cell) as a NaN number,
        // and min-max normalization carries it into the score.
        let ds = read_csv_str("x\n1\nNaN\n3\n\n2\n", &CsvOptions::default()).unwrap();
        let ranker = LinearScoreRanker::new(vec![ScoreTerm::plain("x")]);
        let scores = ranker.scores(&ds);
        assert!(scores[1].is_nan() && scores[3].is_nan());
        assert_eq!(ranker.rank(&ds).order(), &[2, 4, 0, 1, 3]);
    }

    #[test]
    fn inverted_term_prefers_small_values() {
        let ds = Dataset::builder()
            .numeric("age", vec![20.0, 60.0, 40.0])
            .build()
            .unwrap();
        let ranker = LinearScoreRanker::new(vec![ScoreTerm::inverted("age")]);
        assert_eq!(ranker.rank(&ds).order(), &[0, 2, 1]);
    }

    #[test]
    fn constant_column_contributes_zero() {
        let ds = Dataset::builder()
            .numeric("c", vec![7.0, 7.0])
            .build()
            .unwrap();
        let ranker = LinearScoreRanker::new(vec![ScoreTerm::plain("c")]);
        assert_eq!(ranker.scores(&ds), vec![0.0, 0.0]);
        assert_eq!(ranker.rank(&ds).order(), &[0, 1]); // tie → row order
    }

    #[test]
    fn categorical_numeric_labels_sort_numerically() {
        let ds = Dataset::builder()
            .categorical_from_str("fails", &["10", "2", "0"])
            .build()
            .unwrap();
        let ranker = AttributeRanker::new(vec![SortKey::asc("fails")]);
        assert_eq!(ranker.rank(&ds).order(), &[2, 1, 0]);
    }

    #[test]
    fn attribute_ranker_ranks_a_nan_key_last_whatever_its_sign() {
        let nan = f64::NAN;
        let ds = Dataset::builder()
            .numeric("x", vec![1.0, nan, 3.0, -nan])
            .numeric("y", vec![0.0, 5.0, 0.0, 9.0])
            .build()
            .unwrap();
        assert!(ds.value(3, 0).is_sign_negative());
        let rank = |keys| AttributeRanker::new(keys).rank(&ds).order().to_vec();
        assert_eq!(rank(vec![SortKey::desc("x")]), [2, 0, 1, 3]);
        assert_eq!(rank(vec![SortKey::asc("x")]), [0, 2, 1, 3]);
        // The two NaN rows tie on `x`, so `y` orders them.
        assert_eq!(
            rank(vec![SortKey::desc("x"), SortKey::desc("y")]),
            [2, 0, 3, 1]
        );
        assert_eq!(
            rank(vec![SortKey::asc("x"), SortKey::desc("y")]),
            [0, 2, 3, 1]
        );
    }

    #[test]
    fn fn_ranker_is_black_box() {
        let ds = Dataset::builder()
            .numeric("x", vec![1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let ranker = FnRanker::new("parity", |ds, row| {
            let v = ds.value(row, 0);
            if (v as i64) % 2 == 0 {
                v + 100.0
            } else {
                v
            }
        });
        assert_eq!(ranker.rank(&ds).order(), &[1, 2, 0]);
        assert_eq!(ranker.name(), "parity");
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let ds = Dataset::builder().numeric("x", vec![1.0]).build().unwrap();
        AttributeRanker::by_desc("nope").rank(&ds);
    }
}
