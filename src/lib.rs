//! # rankfair
//!
//! A Rust implementation of *“Detection of Groups with Biased
//! Representation in Ranking”* (Li, Moskovitch, Jagadish — ICDE 2023):
//! given a dataset and a black-box ranking, find **all** groups
//! (conjunctions of attribute=value conditions) whose representation in
//! the top-`k` ranked tuples is biased, for every `k` in a range — without
//! pre-defining protected groups — then **explain** the detected groups
//! with Shapley values over a surrogate of the ranker.
//!
//! The workspace is organized as one crate per subsystem, all re-exported
//! here:
//!
//! | module | contents |
//! |---|---|
//! | [`data`] | columnar dataset, bucketization, CSV, bitmaps |
//! | [`rank`] | `Ranker` trait, score-based rankers, rankings |
//! | [`core`] | the `Audit` API, patterns, `IterTD`, `GlobalBounds`, `PropBounds`, upper bounds, the live `MonitorAudit`, oracle |
//! | [`service`] | `AuditService`: dataset registry, audit cache, JSONL wire protocol |
//! | [`json`] | minimal in-workspace JSON (value, serializer, strict parser) |
//! | [`explain`] | regression-forest surrogate, Shapley values, distributions |
//! | [`divergence`] | the Pastor et al. divergence baseline (§VI-D) |
//! | [`synth`] | seeded synthetic COMPAS / Student / German Credit generators |
//! | [`workloads`] | the three paper workloads, prepared end-to-end |
//!
//! # Quickstart
//!
//! Everything goes through the owned [`core::Audit`], built fluently by
//! [`core::AuditBuilder`]: pick a dataset, a ranking (or a ranker), the
//! task, and run.
//!
//! ```
//! use std::sync::Arc;
//! use rankfair::prelude::*;
//!
//! // The paper's Figure 1 running example: sixteen students ranked by
//! // grade, failures as tie-breaker.
//! let ds = rankfair::data::examples::students_fig1();
//! let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
//! let audit = Audit::builder(Arc::new(ds)).ranker(&ranker).build().unwrap();
//!
//! // Detect groups of size ≥ 4 under-represented in the top-4..5 given a
//! // lower bound of 2 (Example 4.6).
//! let cfg = DetectConfig::new(4, 4, 5);
//! let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
//! let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
//! let found: Vec<String> = out.per_k[0].under.iter().map(|p| audit.describe(p)).collect();
//! assert!(found.contains(&"{School=GP}".to_string()));
//!
//! // The same audit also answers over-representation and combined
//! // questions — the task is a value, not a method:
//! let both = AuditTask::Combined { lower: Bounds::constant(2), upper: Bounds::constant(3) };
//! let out = audit.run(&cfg, &both, Engine::Optimized).unwrap();
//! assert!(out.per_k.iter().any(|kr| !kr.over.is_empty()));
//! ```
//!
//! # Thread safety
//!
//! [`core::Audit`] owns its dataset (`Arc<Dataset>`), pattern space,
//! ranking and bitmap index, and is **`Send + Sync` by contract** — a
//! single audit can be shared by reference across however many server
//! threads you have, and [`core::Audit::run`] itself fans the `k` range
//! out over scoped worker threads when built with
//! [`core::AuditBuilder::threads`]. The contract is enforced at compile
//! time:
//!
//! ```
//! use std::sync::Arc;
//! use rankfair::prelude::*;
//!
//! fn assert_send_sync<T: Send + Sync>() {}
//! assert_send_sync::<Audit>(); // fails to compile if the contract breaks
//!
//! // Concurrent use: one audit, many threads, no locks.
//! let ds = rankfair::data::examples::students_fig1();
//! let ranking = Ranking::from_order(rankfair::data::examples::fig1_rank_order()).unwrap();
//! let audit = Audit::builder(Arc::new(ds)).ranking(ranking).build().unwrap();
//! let cfg = DetectConfig::new(4, 4, 5);
//! let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let (audit, cfg, task) = (&audit, &cfg, &task);
//!         s.spawn(move || audit.run(cfg, task, Engine::Optimized).unwrap());
//!     }
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rankfair_core as core;
pub use rankfair_data as data;
pub use rankfair_divergence as divergence;
pub use rankfair_explain as explain;
pub use rankfair_json as json;
pub use rankfair_rank as rank;
pub use rankfair_service as service;
pub use rankfair_synth as synth;

pub mod workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::core::{
        Audit, AuditBuilder, AuditError, AuditIndex, AuditKResult, AuditOutcome, AuditTask,
        BiasMeasure, Bounds, DeltaReport, DetectConfig, Engine, MonitorAudit, OverRepScope,
        Pattern, PatternSpace, RankedIndex, RankingEdit,
    };
    pub use crate::data::{Column, ColumnData, Dataset};
    pub use crate::explain::{ExplainConfig, RankSurrogate};
    pub use crate::rank::{
        AttributeRanker, FnRanker, LinearScoreRanker, Ranker, Ranking, ScoreTerm, SortKey,
    };
    pub use crate::service::{AuditRequest, AuditResponse, AuditService, RankingSpec};
    pub use crate::workloads::{compas_workload, german_workload, student_workload, Workload};
}
