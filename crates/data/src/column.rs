use crate::ValueCode;

/// The payload of a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Dictionary-encoded categorical values.
    ///
    /// `codes[row]` indexes into `labels`; labels are stored in order of
    /// first appearance so encoding is deterministic for a given input
    /// order.
    Categorical {
        /// Per-row dictionary codes.
        codes: Vec<ValueCode>,
        /// Dictionary: distinct values in order of first appearance.
        labels: Vec<String>,
    },
    /// Continuous values (scores, grades, amounts, …).
    Numeric {
        /// Per-row values.
        values: Vec<f64>,
    },
}

/// A named column of a [`crate::Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Creates a categorical column by dictionary-encoding `values`.
    ///
    /// Returns `None` if the number of distinct values exceeds the `u16`
    /// dictionary space.
    pub fn categorical<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Option<Self> {
        let mut labels: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        // Linear label scan: columns in this domain have tiny cardinality
        // (2–60 distinct values), so a hash map would cost more than it
        // saves.
        for v in values {
            let v = v.as_ref();
            let code = match labels.iter().position(|l| l == v) {
                Some(i) => i,
                None => {
                    // `>=` caps the cardinality at ValueCode::MAX, so
                    // every cardinality is itself a ValueCode (see
                    // `PatternSpace::value_codes`).
                    if labels.len() >= usize::from(u16::MAX) {
                        return None;
                    }
                    labels.push(v.to_string());
                    labels.len() - 1
                }
            };
            codes.push(code as ValueCode);
        }
        Some(Column {
            name: name.into(),
            data: ColumnData::Categorical { codes, labels },
        })
    }

    /// Creates a categorical column from pre-encoded codes and a dictionary.
    ///
    /// Callers (e.g. the synthetic generators) guarantee
    /// `codes[i] < labels.len()`; this is checked with a debug assertion.
    pub fn categorical_encoded(
        name: impl Into<String>,
        codes: Vec<ValueCode>,
        labels: Vec<String>,
    ) -> Self {
        debug_assert!(codes.iter().all(|&c| usize::from(c) < labels.len()));
        Column {
            name: name.into(),
            data: ColumnData::Categorical { codes, labels },
        }
    }

    /// Creates a numeric column.
    pub fn numeric(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Numeric { values },
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Categorical { codes, .. } => codes.len(),
            ColumnData::Numeric { values } => values.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a categorical column.
    pub fn is_categorical(&self) -> bool {
        matches!(self.data, ColumnData::Categorical { .. })
    }

    /// Whether this is a numeric column.
    pub fn is_numeric(&self) -> bool {
        matches!(self.data, ColumnData::Numeric { .. })
    }

    /// Cardinality of the dictionary (categorical) or `None` (numeric).
    pub fn cardinality(&self) -> Option<usize> {
        match &self.data {
            ColumnData::Categorical { labels, .. } => Some(labels.len()),
            ColumnData::Numeric { .. } => None,
        }
    }

    /// Dictionary code for `label`, if this column is categorical and the
    /// label occurs.
    pub fn code_of(&self, label: &str) -> Option<ValueCode> {
        match &self.data {
            ColumnData::Categorical { labels, .. } => labels
                .iter()
                .position(|l| l == label)
                .map(|i| i as ValueCode),
            ColumnData::Numeric { .. } => None,
        }
    }

    /// Label for `code`, if this column is categorical and the code is in
    /// range.
    pub fn label_of(&self, code: ValueCode) -> Option<&str> {
        match &self.data {
            ColumnData::Categorical { labels, .. } => {
                labels.get(usize::from(code)).map(String::as_str)
            }
            ColumnData::Numeric { .. } => None,
        }
    }

    /// Dictionary code at `row` (categorical columns only).
    ///
    /// # Panics
    /// Panics if the column is numeric or `row` is out of bounds.
    pub fn code(&self, row: usize) -> ValueCode {
        self.code_slice()[row]
    }

    /// Dictionary codes of every row, in row order: the slice form of
    /// [`Column::code`], under the same contract (categorical columns
    /// only; [`Column::codes`] is the checked form).
    ///
    /// # Panics
    /// Panics if the column is numeric.
    pub fn code_slice(&self) -> &[ValueCode] {
        match &self.data {
            ColumnData::Categorical { codes, .. } => codes,
            // lint:allow(panic-reachability) -- documented contract: pattern spaces only hold categorical (or bucketized) columns, so serving paths never call code() or code_slice() on a numeric column
            ColumnData::Numeric { .. } => panic!("column `{}` is not categorical", self.name),
        }
    }

    /// Value at `row` (numeric columns only).
    ///
    /// # Panics
    /// Panics if the column is categorical or `row` is out of bounds.
    pub fn value(&self, row: usize) -> f64 {
        match &self.data {
            ColumnData::Numeric { values } => values[row],
            ColumnData::Categorical { .. } => panic!("column `{}` is not numeric", self.name),
        }
    }

    /// Appends a row to a categorical column by label, extending the
    /// dictionary if the label is new. Returns the code the row received.
    ///
    /// Errors with [`crate::DataError::KindMismatch`] on numeric columns
    /// and [`crate::DataError::DictionaryOverflow`] when a new label would
    /// exceed the `u16` dictionary space.
    pub fn push_label(&mut self, label: &str) -> Result<ValueCode, crate::DataError> {
        match &mut self.data {
            ColumnData::Categorical { codes, labels } => {
                let code = match labels.iter().position(|l| l == label) {
                    Some(i) => i as ValueCode,
                    None => {
                        // `>=` caps the cardinality at ValueCode::MAX,
                        // so every cardinality is itself a ValueCode.
                        if labels.len() >= usize::from(u16::MAX) {
                            return Err(crate::DataError::DictionaryOverflow(self.name.clone()));
                        }
                        labels.push(label.to_string());
                        (labels.len() - 1) as ValueCode
                    }
                };
                codes.push(code);
                Ok(code)
            }
            ColumnData::Numeric { .. } => Err(crate::DataError::KindMismatch {
                column: self.name.clone(),
                expected: "categorical",
            }),
        }
    }

    /// Appends a row to a numeric column.
    ///
    /// Errors with [`crate::DataError::KindMismatch`] on categorical
    /// columns.
    pub fn push_number(&mut self, value: f64) -> Result<(), crate::DataError> {
        match &mut self.data {
            ColumnData::Numeric { values } => {
                values.push(value);
                Ok(())
            }
            ColumnData::Categorical { .. } => Err(crate::DataError::KindMismatch {
                column: self.name.clone(),
                expected: "numeric",
            }),
        }
    }

    /// Overwrites the numeric value at `row` (live score updates).
    ///
    /// Errors with [`crate::DataError::KindMismatch`] on categorical
    /// columns and [`crate::DataError::Invalid`] on an out-of-range row.
    pub fn set_number(&mut self, row: usize, value: f64) -> Result<(), crate::DataError> {
        match &mut self.data {
            ColumnData::Numeric { values } => match values.get_mut(row) {
                Some(v) => {
                    *v = value;
                    Ok(())
                }
                None => Err(crate::DataError::Invalid(format!(
                    "row {row} out of range for column `{}`",
                    self.name
                ))),
            },
            ColumnData::Categorical { .. } => Err(crate::DataError::KindMismatch {
                column: self.name.clone(),
                expected: "numeric",
            }),
        }
    }

    /// The codes slice of a categorical column, if any.
    pub fn codes(&self) -> Option<&[ValueCode]> {
        match &self.data {
            ColumnData::Categorical { codes, .. } => Some(codes),
            ColumnData::Numeric { .. } => None,
        }
    }

    /// The values slice of a numeric column, if any.
    pub fn values(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Numeric { values } => Some(values),
            ColumnData::Categorical { .. } => None,
        }
    }

    /// Renders the cell at `row` as text (label for categorical, value for
    /// numeric).
    pub fn display(&self, row: usize) -> String {
        match &self.data {
            ColumnData::Categorical { codes, labels } => labels[usize::from(codes[row])].clone(),
            ColumnData::Numeric { values } => {
                let v = values[row];
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{}", v as i64)
                } else {
                    format!("{v}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_encoding_is_first_appearance_order() {
        let c = Column::categorical("x", &["b", "a", "b", "c", "a"]).unwrap();
        assert_eq!(c.cardinality(), Some(3));
        assert_eq!(c.code_of("b"), Some(0));
        assert_eq!(c.code_of("a"), Some(1));
        assert_eq!(c.code_of("c"), Some(2));
        assert_eq!(c.codes().unwrap(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.label_of(2), Some("c"));
        assert_eq!(c.label_of(3), None);
        assert_eq!(c.code_of("zzz"), None);
    }

    #[test]
    fn numeric_column_accessors() {
        let c = Column::numeric("score", vec![1.5, 2.0]);
        assert!(c.is_numeric());
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), 2.0);
        assert_eq!(c.cardinality(), None);
        assert_eq!(c.display(0), "1.5");
        assert_eq!(c.display(1), "2");
    }

    #[test]
    #[should_panic(expected = "not categorical")]
    fn code_on_numeric_panics() {
        Column::numeric("score", vec![1.0]).code(0);
    }

    #[test]
    #[should_panic(expected = "not numeric")]
    fn value_on_categorical_panics() {
        Column::categorical("c", &["x"]).unwrap().value(0);
    }

    #[test]
    fn display_categorical() {
        let c = Column::categorical("c", &["lo", "hi"]).unwrap();
        assert_eq!(c.display(1), "hi");
    }
}
