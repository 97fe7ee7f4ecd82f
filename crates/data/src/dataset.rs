use crate::{Column, ColumnData, DataError, ValueCode};

/// One cell of a row being appended to a [`Dataset`] — a label for
/// categorical columns, a number for numeric ones.
#[derive(Debug, Clone, PartialEq)]
pub enum RowValue {
    /// A categorical value, resolved against (and possibly extending) the
    /// column's dictionary.
    Label(String),
    /// A numeric value.
    Number(f64),
}

/// An immutable, column-oriented relational table.
///
/// Categorical columns carry the group-defining attributes of the paper’s
/// §II data model; numeric columns carry ranking scores and regression
/// features. Rows are addressed by position (`0..n_rows`); the ranking
/// layer assigns rank positions on top of these row ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// Starts building a dataset column by column.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder {
            columns: Vec::new(),
        }
    }

    /// Constructs a dataset from pre-built columns.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self, DataError> {
        let n_rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != n_rows {
                return Err(DataError::LengthMismatch {
                    column: c.name().to_string(),
                    got: c.len(),
                    expected: n_rows,
                });
            }
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name() == c.name()) {
                return Err(DataError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(Dataset { columns, n_rows })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Position of the column named `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Positions of all categorical columns, in declaration order.
    ///
    /// This is the default attribute set over which patterns are defined;
    /// the paper’s Definition 4.1 search-tree ordering follows this order.
    pub fn categorical_columns(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].is_categorical())
            .collect()
    }

    /// Positions of all numeric columns, in declaration order.
    pub fn numeric_columns(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].is_numeric())
            .collect()
    }

    /// Dictionary code at (`row`, `col`); panics if `col` is numeric.
    pub fn code(&self, row: usize, col: usize) -> ValueCode {
        self.columns[col].code(row)
    }

    /// Numeric value at (`row`, `col`); panics if `col` is categorical.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.columns[col].value(row)
    }

    /// Returns a new dataset containing only the given rows (in the given
    /// order).
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|c| match c.data() {
                ColumnData::Categorical { codes, labels } => Column::categorical_encoded(
                    c.name(),
                    rows.iter().map(|&r| codes[r]).collect(),
                    labels.clone(),
                ),
                ColumnData::Numeric { values } => {
                    Column::numeric(c.name(), rows.iter().map(|&r| values[r]).collect())
                }
            })
            .collect();
        Dataset {
            columns,
            n_rows: rows.len(),
        }
    }

    /// Replaces the column at `idx` (same length required).
    pub fn replace_column(&mut self, idx: usize, column: Column) -> Result<(), DataError> {
        if column.len() != self.n_rows {
            return Err(DataError::LengthMismatch {
                column: column.name().to_string(),
                got: column.len(),
                expected: self.n_rows,
            });
        }
        self.columns[idx] = column;
        Ok(())
    }

    /// Appends a column (same length required, unique name required).
    pub fn push_column(&mut self, column: Column) -> Result<(), DataError> {
        if self.columns.iter().any(|c| c.name() == column.name()) {
            return Err(DataError::DuplicateColumn(column.name().to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows {
            return Err(DataError::LengthMismatch {
                column: column.name().to_string(),
                got: column.len(),
                expected: self.n_rows,
            });
        }
        if self.columns.is_empty() {
            self.n_rows = column.len();
        }
        self.columns.push(column);
        Ok(())
    }

    /// Overwrites the numeric value at (`row`, `col`) — the dataset half
    /// of a live score update.
    pub fn set_number(&mut self, row: usize, col: usize, value: f64) -> Result<(), DataError> {
        self.columns[col].set_number(row, value)
    }

    /// Appends one row, given a cell per column in declaration order.
    ///
    /// Categorical cells must be [`RowValue::Label`]s (new labels extend
    /// the column's dictionary); numeric cells must be
    /// [`RowValue::Number`]s. On error nothing is modified.
    ///
    /// This is the data half of the live-monitor workload: tuples arriving
    /// in a stream are appended here, then inserted into the evolving
    /// ranking.
    pub fn push_row(&mut self, cells: &[RowValue]) -> Result<(), DataError> {
        if cells.len() != self.columns.len() {
            return Err(DataError::Invalid(format!(
                "row has {} cells but the dataset has {} columns",
                cells.len(),
                self.columns.len()
            )));
        }
        // Validate every cell's kind first so a failure mid-row cannot
        // leave columns with differing lengths.
        for (c, cell) in self.columns.iter().zip(cells) {
            match (cell, c.is_categorical()) {
                (RowValue::Label(l), true) => {
                    // `>=` matches `Column::push_label`'s cap, which
                    // keeps every cardinality representable as a
                    // ValueCode.
                    if c.code_of(l).is_none() && c.cardinality() >= Some(usize::from(u16::MAX)) {
                        return Err(DataError::DictionaryOverflow(c.name().to_string()));
                    }
                }
                (RowValue::Number(_), false) => {}
                (RowValue::Label(_), false) => {
                    return Err(DataError::KindMismatch {
                        column: c.name().to_string(),
                        expected: "categorical",
                    })
                }
                (RowValue::Number(_), true) => {
                    return Err(DataError::KindMismatch {
                        column: c.name().to_string(),
                        expected: "numeric",
                    })
                }
            }
        }
        for (c, cell) in self.columns.iter_mut().zip(cells) {
            match cell {
                RowValue::Label(l) => {
                    c.push_label(l)?;
                }
                RowValue::Number(v) => c.push_number(*v)?,
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Renders row `row` as `name=value` pairs — handy in examples and CLI
    /// output.
    pub fn display_row(&self, row: usize) -> String {
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(c.name());
            out.push('=');
            out.push_str(&c.display(row));
        }
        out
    }
}

/// Incremental builder returned by [`Dataset::builder`].
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    columns: Vec<Column>,
}

impl DatasetBuilder {
    /// Adds a categorical column, dictionary-encoding `values`.
    pub fn categorical_from_str<S: AsRef<str>>(mut self, name: &str, values: &[S]) -> Self {
        // Overflow is deferred to `build` to keep the builder chainable.
        match Column::categorical(name, values) {
            Some(c) => self.columns.push(c),
            None => self
                .columns
                .push(Column::categorical_encoded(name, Vec::new(), Vec::new())),
        }
        self
    }

    /// Adds a pre-encoded categorical column.
    pub fn categorical_encoded(
        mut self,
        name: &str,
        codes: Vec<ValueCode>,
        labels: Vec<String>,
    ) -> Self {
        self.columns
            .push(Column::categorical_encoded(name, codes, labels));
        self
    }

    /// Adds a numeric column.
    pub fn numeric(mut self, name: &str, values: Vec<f64>) -> Self {
        self.columns.push(Column::numeric(name, values));
        self
    }

    /// Finalizes the dataset, validating lengths and name uniqueness.
    pub fn build(self) -> Result<Dataset, DataError> {
        Dataset::from_columns(self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::builder()
            .categorical_from_str("a", &["x", "y", "x", "z"])
            .categorical_from_str("b", &["1", "1", "2", "2"])
            .numeric("score", vec![0.5, 0.25, 1.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_shape() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 4);
        assert_eq!(ds.n_cols(), 3);
        assert_eq!(ds.categorical_columns(), vec![0, 1]);
        assert_eq!(ds.numeric_columns(), vec![2]);
        assert_eq!(ds.column_index("b"), Some(1));
        assert_eq!(ds.column_index("nope"), None);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = Dataset::builder()
            .categorical_from_str("a", &["x"])
            .numeric("s", vec![1.0, 2.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Dataset::builder()
            .categorical_from_str("a", &["x"])
            .numeric("a", vec![1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateColumn(_)));
    }

    #[test]
    fn select_rows_reorders_and_subsets() {
        let ds = sample();
        let sub = ds.select_rows(&[3, 0]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.column(0).display(0), "z");
        assert_eq!(sub.column(2).value(1), 0.5);
    }

    #[test]
    fn push_and_replace_column() {
        let mut ds = sample();
        ds.push_column(Column::numeric("extra", vec![1.0; 4]))
            .unwrap();
        assert_eq!(ds.n_cols(), 4);
        assert!(ds
            .push_column(Column::numeric("extra", vec![1.0; 4]))
            .is_err());
        assert!(ds.push_column(Column::numeric("short", vec![1.0])).is_err());
        ds.replace_column(0, Column::categorical("a2", &["q"; 4]).unwrap())
            .unwrap();
        assert_eq!(ds.column(0).name(), "a2");
        assert!(ds
            .replace_column(0, Column::categorical("a3", &["q"]).unwrap())
            .is_err());
    }

    #[test]
    fn display_row_formats_all_columns() {
        let ds = sample();
        assert_eq!(ds.display_row(0), "a=x, b=1, score=0.5");
    }

    #[test]
    fn push_row_appends_and_validates() {
        let mut ds = sample();
        ds.push_row(&[
            RowValue::Label("y".into()),
            RowValue::Label("3".into()), // new label: dictionary extends
            RowValue::Number(0.75),
        ])
        .unwrap();
        assert_eq!(ds.n_rows(), 5);
        assert_eq!(ds.column(0).display(4), "y");
        assert_eq!(ds.column(1).display(4), "3");
        assert_eq!(ds.column(1).cardinality(), Some(3));
        assert_eq!(ds.column(2).value(4), 0.75);
        // Wrong arity and wrong kinds are rejected without mutating.
        assert!(ds.push_row(&[RowValue::Number(1.0)]).is_err());
        assert!(ds
            .push_row(&[
                RowValue::Number(1.0), // categorical column
                RowValue::Label("1".into()),
                RowValue::Number(0.0),
            ])
            .is_err());
        assert!(ds
            .push_row(&[
                RowValue::Label("x".into()),
                RowValue::Label("1".into()),
                RowValue::Label("oops".into()), // numeric column
            ])
            .is_err());
        assert_eq!(ds.n_rows(), 5);
        for c in ds.columns() {
            assert_eq!(c.len(), 5);
        }
    }
}
