//! Binning of continuous attributes into categorical ranges.
//!
//! The paper assumes group-defining attributes are categorical and renders
//! continuous ones categorical by bucketizing them into ranges (§II-A); its
//! experiments bucketize “equally into 3–4 bins, based on their domain and
//! values” (§VI-A). Two strategies are provided:
//!
//! * [`BinStrategy::EqualWidth`] — splits `[min, max]` into equal-width
//!   intervals (the paper’s choice);
//! * [`BinStrategy::Quantile`] — splits at empirical quantiles so bins have
//!   roughly equal population, useful for heavily skewed attributes.
//!
//! Bin labels are human-readable half-open ranges such as `[15.0,17.5)`;
//! the last bin is closed. Labels are ordered low→high, so dictionary codes
//! are monotone in the underlying value — tests rely on this.

use crate::{Column, DataError, Dataset, ValueCode};

/// How to place bin boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Equal-width bins over `[min, max]`.
    EqualWidth,
    /// Equal-population bins at empirical quantiles.
    Quantile,
}

/// Computes bin edges for `values` (length `bins + 1`, strictly increasing
/// where possible).
///
/// `bins` must lie in `1..=u16::MAX`: a bin is a dictionary code, and the
/// cap is checked before anything is allocated.
pub fn bin_edges(
    values: &[f64],
    bins: usize,
    strategy: BinStrategy,
) -> Result<Vec<f64>, DataError> {
    if bins == 0 {
        return Err(DataError::Invalid("bins must be ≥ 1".into()));
    }
    if bins > usize::from(u16::MAX) {
        return Err(DataError::Invalid(format!(
            "bins must be ≤ {}, the dictionary cap",
            u16::MAX
        )));
    }
    if values.is_empty() {
        return Err(DataError::Invalid(
            "cannot bucketize an empty column".into(),
        ));
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(DataError::Invalid("cannot bucketize NaN values".into()));
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut edges = Vec::with_capacity(bins + 1);
    match strategy {
        BinStrategy::EqualWidth => {
            let width = (max - min) / bins as f64;
            for i in 0..=bins {
                edges.push(min + width * i as f64);
            }
        }
        BinStrategy::Quantile => {
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN checked above"));
            for i in 0..=bins {
                let q = i as f64 / bins as f64;
                let pos = q * (sorted.len() - 1) as f64;
                edges.push(sorted[pos.round() as usize]);
            }
        }
    }
    // Degenerate columns (constant values, duplicate quantiles) collapse
    // into fewer effective bins; dedup keeps bin assignment well-defined.
    edges.dedup_by(|a, b| a == b);
    if edges.len() == 1 {
        edges.push(edges[0]);
    }
    Ok(edges)
}

/// Assigns `v` to a bin given `edges` (half-open, last bin closed), by
/// binary search: [`bin_edges`] returns non-decreasing edges, so the bin
/// is the number of inner edges at or below `v`. Values below the first
/// edge take bin 0 and values past the last take the last bin. `v` is a
/// value of the column the edges came from, so never NaN ([`bin_edges`]
/// rejects NaN).
pub fn bin_index(v: f64, edges: &[f64]) -> usize {
    let n_bins = edges.len() - 1;
    edges[1..n_bins].partition_point(|&e| e <= v)
}

fn format_edge(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Human-readable label for bin `i` of `edges`.
pub fn bin_label(edges: &[f64], i: usize) -> String {
    let last = edges.len() - 2;
    if i == last {
        format!("[{},{}]", format_edge(edges[i]), format_edge(edges[i + 1]))
    } else {
        format!("[{},{})", format_edge(edges[i]), format_edge(edges[i + 1]))
    }
}

/// Builds a categorical column by binning `values`.
pub fn bucketize_values(
    name: &str,
    values: &[f64],
    bins: usize,
    strategy: BinStrategy,
) -> Result<Column, DataError> {
    let edges = bin_edges(values, bins, strategy)?;
    let n_bins = edges.len() - 1;
    let labels: Vec<String> = (0..n_bins).map(|i| bin_label(&edges, i)).collect();
    let codes: Vec<ValueCode> = values
        .iter()
        .map(|&v| bin_index(v, &edges) as ValueCode)
        .collect();
    Ok(Column::categorical_encoded(name, codes, labels))
}

/// Replaces the numeric column `col` of `ds` with its bucketized
/// categorical version (same name).
pub fn bucketize_in_place(
    ds: &mut Dataset,
    col: &str,
    bins: usize,
    strategy: BinStrategy,
) -> Result<(), DataError> {
    let idx = ds
        .column_index(col)
        .ok_or_else(|| DataError::UnknownColumn(col.to_string()))?;
    let values = ds.column(idx).values().ok_or(DataError::KindMismatch {
        column: col.to_string(),
        expected: "numeric",
    })?;
    let new_col = bucketize_values(col, values, bins, strategy)?;
    ds.replace_column(idx, new_col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_edges() {
        let e = bin_edges(&[0.0, 10.0, 5.0], 2, BinStrategy::EqualWidth).unwrap();
        assert_eq!(e, vec![0.0, 5.0, 10.0]);
    }

    #[test]
    fn equal_width_assignment_half_open() {
        let e = vec![0.0, 5.0, 10.0];
        assert_eq!(bin_index(0.0, &e), 0);
        assert_eq!(bin_index(4.9, &e), 0);
        assert_eq!(bin_index(5.0, &e), 1);
        assert_eq!(bin_index(10.0, &e), 1); // last bin closed
        assert_eq!(bin_index(12.0, &e), 1); // clamped above
        assert_eq!(bin_index(-1.0, &e), 0); // clamped below
    }

    /// The binary search against the linear scan it replaced, under both
    /// strategies, at 1 to 65 535 bins and on a constant column: below
    /// the minimum, on each edge, between edges and at and past the
    /// maximum. At 65 535 bins the scan's cost per probe grows with the
    /// edge's position, so it probes the first and last 64 edges and
    /// every 256th edge between.
    #[test]
    fn bin_index_binary_search_matches_a_linear_scan() {
        fn linear(v: f64, edges: &[f64]) -> usize {
            let n_bins = edges.len() - 1;
            if v >= edges[n_bins] {
                return n_bins - 1;
            }
            match edges[1..n_bins].iter().position(|&e| v < e) {
                Some(i) => i,
                None => n_bins - 1,
            }
        }
        let check = |values: &[f64], bins: usize, strategy: BinStrategy| {
            let edges = bin_edges(values, bins, strategy).unwrap();
            let last = edges.len() - 1;
            let probed =
                |i: usize| last <= 1000 || i < 64 || i + 64 > last || i.is_multiple_of(256);
            let mut probes = vec![edges[0] - 1.0, edges[last], edges[last] + 1.0];
            for i in (0..=last).filter(|&i| probed(i)) {
                probes.push(edges[i]);
                if i < last {
                    probes.push(edges[i] + (edges[i + 1] - edges[i]) / 2.0);
                }
            }
            for v in probes {
                assert_eq!(
                    bin_index(v, &edges),
                    linear(v, &edges),
                    "{v} into {bins} bins ({strategy:?})"
                );
            }
            edges.len() - 1
        };
        for bins in [1, 2, 3, 4, 1000, usize::from(u16::MAX)] {
            // Distinct, unevenly spaced values: both strategies yield
            // `bins` bins with fractional edges.
            let values: Vec<f64> = (0..=bins).map(|i| (i * i) as f64 / 7.0 - 5.0).collect();
            for strategy in [BinStrategy::EqualWidth, BinStrategy::Quantile] {
                assert_eq!(check(&values, bins, strategy), bins, "{strategy:?}");
            }
        }
        for strategy in [BinStrategy::EqualWidth, BinStrategy::Quantile] {
            assert_eq!(check(&[3.0; 5], 4, strategy), 1, "{strategy:?}");
        }
    }

    #[test]
    fn quantile_bins_balance_population() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let col = bucketize_values("v", &values, 4, BinStrategy::Quantile).unwrap();
        let codes = col.codes().unwrap();
        let mut counts = [0usize; 4];
        for &c in codes {
            counts[usize::from(c)] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "unbalanced bins: {counts:?}");
        }
    }

    #[test]
    fn labels_are_ranges() {
        let e = vec![0.0, 5.0, 10.0];
        assert_eq!(bin_label(&e, 0), "[0,5)");
        assert_eq!(bin_label(&e, 1), "[5,10]");
    }

    #[test]
    fn constant_column_collapses_to_one_bin() {
        let col = bucketize_values("v", &[3.0, 3.0, 3.0], 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(col.cardinality(), Some(1));
        assert_eq!(col.codes().unwrap(), &[0, 0, 0]);
    }

    #[test]
    fn zero_bins_rejected() {
        assert!(bin_edges(&[1.0], 0, BinStrategy::EqualWidth).is_err());
    }

    /// A bin is a dictionary code: `u16::MAX` bins are one code each,
    /// the top value takes the last one, and one more bin is an error,
    /// not a wrapped code.
    #[test]
    fn bins_are_capped_at_the_dictionary_cap() {
        let cap = usize::from(u16::MAX);
        let values = [0.0, 1.0, (cap - 1) as f64];
        let col = bucketize_values("v", &values, cap, BinStrategy::EqualWidth).unwrap();
        assert_eq!(col.cardinality(), Some(cap));
        assert_eq!(col.codes().unwrap(), &[0, 1, u16::MAX - 1]);
        for strategy in [BinStrategy::EqualWidth, BinStrategy::Quantile] {
            let err = bucketize_values("v", &values, cap + 1, strategy).unwrap_err();
            assert!(matches!(err, DataError::Invalid(_)), "{err:?}");
        }
    }

    #[test]
    fn nan_rejected() {
        assert!(bin_edges(&[1.0, f64::NAN], 2, BinStrategy::EqualWidth).is_err());
    }

    #[test]
    fn in_place_replaces_column() {
        let mut ds = Dataset::builder()
            .numeric("age", vec![15.0, 16.0, 17.0, 18.0, 19.0, 22.0])
            .build()
            .unwrap();
        bucketize_in_place(&mut ds, "age", 3, BinStrategy::EqualWidth).unwrap();
        let col = ds.column_by_name("age").unwrap();
        assert!(col.is_categorical());
        assert!(col.cardinality().unwrap() <= 3);
    }

    #[test]
    fn in_place_on_categorical_fails() {
        let mut ds = Dataset::builder()
            .categorical_from_str("c", &["a", "b"])
            .build()
            .unwrap();
        assert!(bucketize_in_place(&mut ds, "c", 2, BinStrategy::EqualWidth).is_err());
        assert!(bucketize_in_place(&mut ds, "nope", 2, BinStrategy::EqualWidth).is_err());
    }

    #[test]
    fn codes_monotone_in_value() {
        let values = vec![9.0, 1.0, 5.0, 7.0, 3.0, 0.0, 10.0];
        let col = bucketize_values("v", &values, 3, BinStrategy::EqualWidth).unwrap();
        let codes = col.codes().unwrap();
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    assert!(codes[i] <= codes[j]);
                }
            }
        }
    }
}
