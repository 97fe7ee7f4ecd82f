//! Detection of groups with biased representation in ranking.
//!
//! This crate implements the core contribution of *“Detection of Groups
//! with Biased Representation in Ranking”* (Li, Moskovitch, Jagadish —
//! ICDE 2023): given a dataset, a black-box ranking and a range of `k`
//! values, find **all** patterns (conjunctions of attribute=value terms
//! describing groups) whose representation among the top-`k` ranked tuples
//! is biased, for every `k` in the range — without pre-defining protected
//! groups.
//!
//! The entry point is the owned, `Send + Sync` [`Audit`], built by
//! [`AuditBuilder`] and executing an [`AuditTask`]:
//!
//! * [`AuditTask::UnderRep`] — most general under-represented groups under
//!   either fairness measure (the paper's Problems 3.1/3.2):
//!   [`BiasMeasure::GlobalLower`] (`s_Rk(p) < L_k`) or
//!   [`BiasMeasure::Proportional`] (`s_Rk(p) < α·s_D(p)·k/n`);
//! * [`AuditTask::OverRep`] — groups exceeding an upper bound `U_k`
//!   (§III), most specific or most general ([`OverRepScope`]);
//! * [`AuditTask::Combined`] — both directions at once.
//!
//! Each task runs on the [`Engine`] of your choice — `Optimized` (the
//! incremental Algorithms 2–3 for under-representation and the matching
//! incremental upper engine for over-representation) or `Baseline`
//! (`IterTD` / brute force) — and all pairs provably agree; the
//! test suite checks them against each other and against a brute-force
//! [`oracle`] on thousands of randomized instances, and pins the paper's
//! worked Examples 2.3–4.9 as unit tests. [`Audit::run`] can split the
//! `k` range across scoped threads ([`AuditBuilder::threads`]);
//! [`Audit::run_streaming`] yields results `k` by `k` on demand; and
//! [`MonitorAudit`] keeps an audit live over an *evolving* ranking by
//! re-auditing only the `k` span each edit batch can have changed.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use rankfair_core::{Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine};
//! use rankfair_data::examples::{students_fig1, fig1_rank_order};
//! use rankfair_rank::Ranking;
//!
//! let audit = Audit::builder(Arc::new(students_fig1()))
//!     .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
//!     .build()
//!     .unwrap();
//! let cfg = DetectConfig::new(4, 4, 5); // τs = 4, k ∈ [4, 5]
//! let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
//! let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
//! // At k = 4, {School=GP}, {Address=U}, {Failures=1} and {Failures=2} are
//! // under-represented (Example 4.6 of the paper).
//! let k4: Vec<String> = out.per_k[0].under.iter().map(|p| audit.describe(p)).collect();
//! assert!(k4.contains(&"{Address=U}".to_string()));
//! ```
//!
//! # Thread safety
//!
//! [`Audit`] owns all of its state (`Arc<Dataset>`, pattern space, ranking,
//! bitmap index) and is `Send + Sync` — asserted at compile time — so one
//! audit can serve concurrent requests:
//!
//! ```
//! fn assert_send_sync<T: Send + Sync>() {}
//! assert_send_sync::<rankfair_core::Audit>();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod bounds;
mod engine;
mod incremental;
pub mod json;
mod monitor;
pub mod oracle;
mod pattern;
mod report;
mod space;
mod stats;
mod suggest;
mod topdown;
mod upper_engine;
pub mod util;

pub use audit::{
    Audit, AuditBuilder, AuditError, AuditIndex, AuditKResult, AuditOutcome, AuditStream,
    AuditTask, Engine, OverRepScope,
};
pub use bounds::{BiasMeasure, Bounds};
pub use monitor::{
    CheckpointStats, DeltaReport, KDelta, MonitorAudit, MonitorBuilder, MonitorError, RankingEdit,
};
pub use pattern::Pattern;
pub use report::{
    render_report, render_report_csv, summarize_audit, BiasDirection, BiasedGroup, KReport,
};
pub use space::{AttrId, PatternSpace, RankedIndex, SpaceError};
pub use stats::{DetectConfig, DetectionOutput, KResult, SearchStats};
pub use suggest::suggest_tau;
pub use topdown::lower_most_specific_single_k;
