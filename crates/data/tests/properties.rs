//! Property-based tests for the data substrate: bitmap algebra,
//! bucketization laws, and CSV round-trips on arbitrary content.
//!
//! Originally written against `proptest`; this container builds offline,
//! so the strategies are replaced by seeded randomized sweeps with the
//! workspace's deterministic generator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rankfair_data::bucketize::{bin_edges, bin_index, bucketize_values, BinStrategy};
use rankfair_data::csv::{read_csv_str, write_csv_string, CsvOptions};
use rankfair_data::{intersect_counts_iter, Bitmap, Column, Dataset};

/// Intersection counts agree with the definitionally-correct per-bit
/// evaluation for any pair of bit sets.
#[test]
fn intersect_counts_matches_naive() {
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..256 {
        let n = rng.random_range(1..300usize);
        let bits_a: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
        let bits_b: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
        let mut a = Bitmap::new(n);
        let mut b = Bitmap::new(n);
        for i in 0..n {
            if bits_a[i] {
                a.set(i);
            }
            if bits_b[i] {
                b.set(i);
            }
        }
        let full = intersect_counts_iter([&a, &b].into_iter(), n);
        let naive_full = (0..n).filter(|&i| bits_a[i] && bits_b[i]).count();
        assert_eq!(full, naive_full);
        // An intersection is bounded by each of its maps.
        assert!(full <= a.count_ones().min(b.count_ones()));
    }
}

/// Bucketization assigns every value to a bin whose edges contain it
/// (up to clamping), codes are monotone in the value, and every label
/// parses back as a range.
#[test]
fn bucketize_is_total_and_monotone() {
    let mut rng = StdRng::seed_from_u64(43);
    for case in 0..128 {
        let len = rng.random_range(2..200usize);
        let values: Vec<f64> = (0..len)
            .map(|_| (rng.random::<f64>() - 0.5) * 2e6)
            .collect();
        let bins = rng.random_range(1..8usize);
        let strategy = if case % 2 == 0 {
            BinStrategy::Quantile
        } else {
            BinStrategy::EqualWidth
        };
        let edges = bin_edges(&values, bins, strategy).unwrap();
        assert!(edges.len() >= 2);
        assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        let col = bucketize_values("v", &values, bins, strategy).unwrap();
        let codes = col.codes().unwrap();
        assert_eq!(codes.len(), values.len());
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    assert!(codes[i] <= codes[j]);
                }
            }
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(usize::from(codes[i]), bin_index(v, &edges));
        }
    }
}

/// CSV round-trips arbitrary categorical content, including separators,
/// quotes and newlines inside fields.
#[test]
fn csv_roundtrip_arbitrary_strings() {
    let mut rng = StdRng::seed_from_u64(47);
    for _ in 0..128 {
        let rows = rng.random_range(1..40usize);
        let strings: Vec<String> = (0..rows)
            .map(|_| {
                let len = rng.random_range(0..12usize);
                let s: String = (0..len)
                    .map(|_| {
                        // Printable ASCII, including separator, quote, space.
                        char::from(rng.random_range(0x20..0x7fu8))
                    })
                    .collect();
                if s.is_empty() {
                    "∅".to_string()
                } else {
                    s
                }
            })
            .collect();
        let ds =
            Dataset::from_columns(vec![Column::categorical("payload", &strings).unwrap()]).unwrap();
        let text = write_csv_string(&ds, ',');
        let opts = CsvOptions {
            force_categorical: vec!["payload".into()],
            ..CsvOptions::default()
        };
        let back = read_csv_str(&text, &opts).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        for r in 0..ds.n_rows() {
            assert_eq!(back.column(0).display(r), ds.column(0).display(r));
        }
    }
}

/// Dictionary encoding is a bijection between occurring labels and
/// codes: decoding every row reproduces the input.
#[test]
fn categorical_encoding_roundtrips() {
    let mut rng = StdRng::seed_from_u64(53);
    for _ in 0..128 {
        let rows = rng.random_range(1..100usize);
        let strings: Vec<String> = (0..rows)
            .map(|_| format!("val{}", rng.random_range(0..6u8)))
            .collect();
        let col = Column::categorical("c", &strings).unwrap();
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(col.label_of(col.code(i)).unwrap(), s.as_str());
        }
        let card = col.cardinality().unwrap();
        let distinct: std::collections::BTreeSet<&String> = strings.iter().collect();
        assert_eq!(card, distinct.len());
    }
}
