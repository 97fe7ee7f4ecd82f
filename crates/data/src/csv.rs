//! Minimal, dependency-free CSV reader and writer.
//!
//! Supports the RFC-4180 essentials the UCI / ProPublica files need: quoted
//! fields, embedded separators and quotes, CR/LF line endings, and a
//! configurable separator (the Student Performance file is
//! semicolon-separated). Columns where every non-empty cell parses as `f64`
//! are inferred numeric unless pinned otherwise via [`CsvOptions`].

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::{Column, DataError, Dataset};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header (default `true`).
    pub has_header: bool,
    /// Column names to force categorical even if numeric-looking
    /// (e.g. zip codes, school ids).
    pub force_categorical: Vec<String>,
    /// Column names to force numeric; non-parsing cells become an error.
    pub force_numeric: Vec<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            force_categorical: Vec::new(),
            force_numeric: Vec::new(),
        }
    }
}

/// Parses CSV text into records of string fields.
pub fn parse_records(text: &str, separator: char) -> Result<Vec<Vec<String>>, DataError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        // Quote mid-field: keep it literal, as most parsers do.
                        field.push('"');
                    }
                }
                '\r' => {
                    // Swallow; `\n` terminates the record.
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c if c == separator => record.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv("unterminated quoted field".into()));
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

fn all_numeric(cells: &[&str]) -> bool {
    let mut saw = false;
    for c in cells {
        if c.is_empty() {
            continue;
        }
        if c.trim().parse::<f64>().is_err() {
            return false;
        }
        saw = true;
    }
    saw
}

/// Builds a [`Dataset`] from CSV text.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Dataset, DataError> {
    let records = parse_records(text, opts.separator)?;
    if records.is_empty() {
        return Err(DataError::Csv("empty input".into()));
    }
    let n_cols = records[0].len();
    for (i, r) in records.iter().enumerate() {
        if r.len() != n_cols {
            return Err(DataError::Csv(format!(
                "record {i} has {} fields, expected {n_cols}",
                r.len()
            )));
        }
    }
    let (header, body): (Vec<String>, &[Vec<String>]) = if opts.has_header {
        (records[0].clone(), &records[1..])
    } else {
        (
            (0..n_cols).map(|i| format!("col{i}")).collect(),
            &records[..],
        )
    };
    let mut columns = Vec::with_capacity(n_cols);
    for (ci, name) in header.iter().enumerate() {
        let cells: Vec<&str> = body.iter().map(|r| r[ci].as_str()).collect();
        let forced_cat = opts.force_categorical.iter().any(|n| n == name);
        let forced_num = opts.force_numeric.iter().any(|n| n == name);
        let numeric = forced_num || (!forced_cat && all_numeric(&cells));
        if numeric {
            let mut values = Vec::with_capacity(cells.len());
            for c in &cells {
                let v = if c.is_empty() {
                    f64::NAN
                } else {
                    c.trim().parse::<f64>().map_err(|_| {
                        DataError::Csv(format!("column `{name}`: cannot parse `{c}` as number"))
                    })?
                };
                values.push(v);
            }
            columns.push(Column::numeric(name.clone(), values));
        } else {
            columns.push(
                Column::categorical(name.clone(), &cells)
                    .ok_or_else(|| DataError::DictionaryOverflow(name.clone()))?,
            );
        }
    }
    Dataset::from_columns(columns)
}

/// Reads a CSV file into a [`Dataset`].
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset, DataError> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    read_csv_str(&text, opts)
}

fn quote_field(s: &str, separator: char) -> String {
    if s.contains(separator) || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes `ds` to CSV text.
pub fn write_csv_string(ds: &Dataset, separator: char) -> String {
    let mut out = String::new();
    for (i, c) in ds.columns().iter().enumerate() {
        if i > 0 {
            out.push(separator);
        }
        out.push_str(&quote_field(c.name(), separator));
    }
    out.push('\n');
    for row in 0..ds.n_rows() {
        for (i, c) in ds.columns().iter().enumerate() {
            if i > 0 {
                out.push(separator);
            }
            out.push_str(&quote_field(&c.display(row), separator));
        }
        out.push('\n');
    }
    out
}

/// Writes `ds` to a CSV file (buffered).
pub fn write_csv(ds: &Dataset, path: impl AsRef<Path>, separator: char) -> Result<(), DataError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(write_csv_string(ds, separator).as_bytes())?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnData;

    #[test]
    fn parses_basic_csv_with_header() {
        let ds = read_csv_str("a,b,c\nx,1,2.5\ny,2,3.5\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert!(ds.column_by_name("a").unwrap().is_categorical());
        assert!(ds.column_by_name("b").unwrap().is_numeric());
        assert_eq!(ds.value(1, 2), 3.5);
    }

    #[test]
    fn quoted_fields_and_embedded_separators() {
        let ds = read_csv_str(
            "name,score\n\"Doe, Jane\",1\n\"say \"\"hi\"\"\",2\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let c = ds.column_by_name("name").unwrap();
        assert_eq!(c.label_of(0), Some("Doe, Jane"));
        assert_eq!(c.label_of(1), Some("say \"hi\""));
    }

    #[test]
    fn crlf_and_missing_trailing_newline() {
        let ds = read_csv_str("a,b\r\n1,x\r\n2,y", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.value(1, 0), 2.0);
    }

    #[test]
    fn semicolon_separator() {
        let opts = CsvOptions {
            separator: ';',
            ..CsvOptions::default()
        };
        let ds = read_csv_str("a;b\nGP;1\nMS;2\n", &opts).unwrap();
        assert_eq!(ds.column_by_name("a").unwrap().cardinality(), Some(2));
    }

    #[test]
    fn no_header_generates_names() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let ds = read_csv_str("1,x\n2,y\n", &opts).unwrap();
        assert_eq!(ds.column(0).name(), "col0");
        assert_eq!(ds.column(1).name(), "col1");
    }

    #[test]
    fn force_categorical_overrides_inference() {
        let opts = CsvOptions {
            force_categorical: vec!["zip".into()],
            ..CsvOptions::default()
        };
        let ds = read_csv_str("zip\n48109\n48104\n", &opts).unwrap();
        match ds.column(0).data() {
            ColumnData::Categorical { labels, .. } => assert_eq!(labels.len(), 2),
            _ => panic!("expected categorical"),
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(read_csv_str("a,b\n1\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(read_csv_str("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv_str("", &CsvOptions::default()).is_err());
    }

    #[test]
    fn roundtrip() {
        let ds = Dataset::builder()
            .categorical_from_str("g", &["F", "M", "F"])
            .numeric("s", vec![1.0, 2.0, 3.5])
            .build()
            .unwrap();
        let text = write_csv_string(&ds, ',');
        let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.column_by_name("g").unwrap().label_of(1), Some("M"));
        assert_eq!(back.value(2, 1), 3.5);
    }

    #[test]
    fn roundtrip_with_quoting() {
        let ds = Dataset::builder()
            .categorical_from_str("g", &["a,b", "c\"d"])
            .build()
            .unwrap();
        let text = write_csv_string(&ds, ',');
        let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(back.column(0).label_of(0), Some("a,b"));
        assert_eq!(back.column(0).label_of(1), Some("c\"d"));
    }

    #[test]
    fn file_roundtrip() {
        let ds = Dataset::builder()
            .categorical_from_str("g", &["x", "y"])
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("rankfair_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(&ds, &path, ',').unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), 2);
    }
}
