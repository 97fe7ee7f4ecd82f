//! Columnar dataset substrate for the `rankfair` workspace.
//!
//! The detection problem of *“Detection of Groups with Biased Representation
//! in Ranking”* (ICDE 2023) is defined over a single relational table whose
//! group-defining attributes are categorical (§II of the paper). This crate
//! provides that table:
//!
//! * [`Dataset`] — an immutable, column-oriented table mixing
//!   [`ColumnData::Categorical`] columns (dictionary-encoded `u16` codes)
//!   used for pattern definitions, and [`ColumnData::Numeric`] columns used
//!   by rankers and the explanation module.
//! * [`bucketize`] — equal-width and quantile binning that renders
//!   continuous attributes categorical, exactly as the paper’s experiments
//!   do (“continuous attributes, e.g. age, were bucketized equally into 3–4
//!   bins”).
//! * [`csv`] — a dependency-free CSV reader/writer with type inference so
//!   the real COMPAS / Student / German Credit files can be loaded verbatim
//!   when available.
//! * [`Bitmap`] — packed bitsets with fused *full + prefix* intersection
//!   popcounts. When rows are laid out in rank order, the size of a pattern
//!   in the whole data (`s_D`) and in the top-k (`s_Rk`) fall out of a single
//!   pass over the AND of the per-term bitmaps; [`intersect_into`] and
//!   [`and_counts`] count all one-term extensions of a pattern from one
//!   shared AND.
//! * [`examples`] — the paper’s Figure 1 running example, used verbatim by
//!   unit tests across the workspace.
//!
//! # Quick example
//!
//! ```
//! use rankfair_data::{Dataset, ColumnData};
//!
//! let ds = Dataset::builder()
//!     .categorical_from_str("color", &["red", "blue", "red"])
//!     .numeric("score", vec![1.0, 2.0, 3.0])
//!     .build()
//!     .unwrap();
//! assert_eq!(ds.n_rows(), 3);
//! let col = ds.column_by_name("color").unwrap();
//! match col.data() {
//!     ColumnData::Categorical { codes, labels } => {
//!         assert_eq!(labels, &["red".to_string(), "blue".to_string()]);
//!         assert_eq!(codes, &[0, 1, 0]);
//!     }
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
pub mod bucketize;
mod column;
pub mod csv;
mod dataset;
mod error;
pub mod examples;

pub use bitmap::{
    and_counts, intersect_counts, intersect_counts_iter, intersect_into, intersect_prefix_iter,
    Bitmap,
};
pub use column::{Column, ColumnData};
pub use dataset::{Dataset, DatasetBuilder, RowValue};
pub use error::DataError;

/// Row identifier within a [`Dataset`].
///
/// `u32` is ample for the workloads in the paper (≤ ~10⁷ rows) and keeps the
/// hot search structures compact, following the perf-book guidance on using
/// narrow index types.
pub type TupleId = u32;

/// Dictionary code of a categorical value within its column.
pub type ValueCode = u16;
