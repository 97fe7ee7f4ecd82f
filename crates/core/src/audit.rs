//! The owned, thread-safe audit API: one builder, one task enum, one
//! entry point for every detection mode in the paper.
//!
//! [`Audit`] owns its dataset (behind an [`Arc`]), the pattern space, the
//! ranking and the ranked counting index ([`AuditIndex`]: a single
//! [`RankedIndex`] or a [`ShardedIndex`] merging per-shard counts
//! additively), so it is `Send + Sync` and can be shared across threads,
//! held in a server, or cached between requests. The detection mode is a
//! value, not a method name:
//!
//! * [`AuditTask::UnderRep`] — the paper's Problems 3.1/3.2 (most general
//!   under-represented groups, Algorithms 1–3);
//! * [`AuditTask::OverRep`] — the §III upper-bound extension (groups whose
//!   top-`k` count exceeds `U_k`, most specific or most general);
//! * [`AuditTask::Combined`] — both directions at once, the paper's
//!   "plausible problem definition" accounting for both bounds.
//!
//! Each task runs on either the optimized incremental engines or the
//! brute-force baseline ([`Engine`]), which keeps every mode
//! differentially testable. [`Audit::run`] splits the `k` range across
//! scoped threads ([`AuditBuilder::threads`]) sharing the immutable index;
//! results are byte-identical to the single-threaded run.
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
//! let out = audit
//!     .run(
//!         &DetectConfig::new(4, 4, 5),
//!         &AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
//!         Engine::Optimized,
//!     )
//!     .unwrap();
//! let k4: Vec<String> = out.per_k[0].under.iter().map(|p| audit.describe(p)).collect();
//! assert!(k4.contains(&"{Address=U}".to_string())); // Example 4.6
//! ```

use std::fmt;
use std::sync::Arc;

use rankfair_data::{Dataset, ValueCode};
use rankfair_rank::{Ranker, Ranking};

use crate::bounds::{BiasMeasure, Bounds};
use crate::engine::{LowerEngine, LowerFrontier};
use crate::incremental::{self, ReorderSpec, Store, Stream};
use crate::oracle;
use crate::pattern::Pattern;
use crate::report::{summarize_audit, KReport};
use crate::shard::ShardedIndex;
use crate::space::{AttrId, CountsProvider, PatternSpace, RankedIndex, SpaceError};
use crate::stats::{
    DeadlineGuard, DetectConfig, DetectionOutput, KResult, ReplayCounters, SearchStats,
};
use crate::topdown;
use crate::upper_engine::{UpperEngine, UpperFrontier};

/// Typed error for audit construction and execution, replacing the
/// `SpaceError`-or-`String` mix of the old facade.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The pattern space could not be built.
    Space(SpaceError),
    /// Neither [`AuditBuilder::ranking`] nor [`AuditBuilder::ranker`] was
    /// called.
    MissingRanking,
    /// The ranking length does not match the dataset.
    RankingMismatch {
        /// Tuples in the ranking.
        ranking: usize,
        /// Rows in the dataset.
        rows: usize,
    },
    /// `k_max` exceeds the number of ranked tuples.
    InvalidKRange {
        /// Largest requested `k`.
        k_max: usize,
        /// Ranked tuples available.
        n: usize,
    },
    /// The proportional factor `α` must be positive and finite (a NaN
    /// silently classifies nothing as biased).
    InvalidAlpha(f64),
    /// A [`Bounds::LinearFraction`] must be finite and non-negative (a NaN
    /// or negative fraction silently empties or floods the result set).
    InvalidBound(f64),
    /// A dataset-preparation hook (bucketization) failed.
    Prepare(String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Space(e) => write!(f, "pattern space: {e}"),
            AuditError::MissingRanking => {
                write!(f, "no ranking: call AuditBuilder::ranking or ::ranker")
            }
            AuditError::RankingMismatch { ranking, rows } => write!(
                f,
                "ranking covers {ranking} tuples but the dataset has {rows} rows"
            ),
            AuditError::InvalidKRange { k_max, n } => {
                write!(
                    f,
                    "k_max ({k_max}) exceeds the number of ranked tuples ({n})"
                )
            }
            AuditError::InvalidAlpha(a) => {
                write!(f, "alpha must be positive and finite, got {a}")
            }
            AuditError::InvalidBound(v) => write!(
                f,
                "LinearFraction bounds must be finite and non-negative, got {v}"
            ),
            AuditError::Prepare(e) => write!(f, "preparing dataset: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<SpaceError> for AuditError {
    fn from(e: SpaceError) -> Self {
        AuditError::Space(e)
    }
}

/// Which implementation executes a task: the paper's optimized algorithms
/// or the from-scratch baselines used for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `GlobalBounds` / `PropBounds` for under-representation, the
    /// incremental upper engine (persistent node store, per-`k` subtree
    /// walks, incremental maximal frontier) for over-representation.
    Optimized,
    /// `IterTD` for under-representation; brute-force enumeration with
    /// naive row-scan counting for over-representation. Kept as the
    /// differential anchor for the incremental engines.
    Baseline,
}

/// Which boundary of the (subset-closed) over-represented set is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverRepScope {
    /// Most specific substantial patterns exceeding the bound — the
    /// narrowest actionable descriptions (the paper's primary variant).
    MostSpecific,
    /// Most general patterns exceeding the bound — the broadest groups.
    MostGeneral,
}

/// One detection mode of the paper, unified as a value.
#[derive(Debug, Clone)]
pub enum AuditTask {
    /// Most general substantial groups below the measure's lower bound
    /// (Problems 3.1 and 3.2, Algorithms 1–3).
    UnderRep(BiasMeasure),
    /// Groups whose top-`k` count exceeds `U_k` (§III upper bounds).
    OverRep {
        /// The upper bound `U_k`.
        upper: Bounds,
        /// Report the most specific or the most general qualifying
        /// patterns.
        scope: OverRepScope,
    },
    /// Both directions at once: most general groups below `lower` and most
    /// specific substantial groups above `upper`.
    Combined {
        /// The lower bound `L_k`.
        lower: Bounds,
        /// The upper bound `U_k`.
        upper: Bounds,
    },
}

/// Result set of one `k` under an [`AuditTask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditKResult {
    /// The `k` this refers to.
    pub k: usize,
    /// Most general under-represented patterns (empty for
    /// [`AuditTask::OverRep`]).
    pub under: Vec<Pattern>,
    /// Over-represented patterns (empty for [`AuditTask::UnderRep`]).
    pub over: Vec<Pattern>,
}

/// Full output of [`Audit::run`]: one [`AuditKResult`] per `k`, plus
/// instrumentation summed over every sub-search (and every worker thread).
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Per-`k` result sets, ordered by `k`.
    pub per_k: Vec<AuditKResult>,
    /// Instrumentation counters.
    pub stats: SearchStats,
}

impl AuditOutcome {
    /// The result set for a specific `k`, if computed.
    pub fn at_k(&self, k: usize) -> Option<&AuditKResult> {
        self.per_k.iter().find(|r| r.k == k)
    }

    /// Total number of reported `(k, pattern)` pairs, both directions.
    pub fn total_groups(&self) -> usize {
        self.per_k
            .iter()
            .map(|r| r.under.len() + r.over.len())
            .sum()
    }

    /// The under-representation side as a classic [`DetectionOutput`]
    /// (what the deprecated `Detector` methods returned).
    pub fn detection_output(&self) -> DetectionOutput {
        DetectionOutput {
            per_k: self
                .per_k
                .iter()
                .map(|r| KResult {
                    k: r.k,
                    patterns: r.under.clone(),
                })
                .collect(),
            stats: self.stats.clone(),
        }
    }
}

/// The counting index an [`Audit`] executes against: one [`RankedIndex`]
/// over the whole ranking, or a [`ShardedIndex`] whose per-shard counts
/// merge additively ([`AuditBuilder::shards`]). Both satisfy the
/// [`CountsProvider`] contract the engines consume, so every task,
/// engine and streaming mode runs unchanged on either variant and the
/// results are identical — the differential suite sweeps that equality.
#[derive(Debug, Clone)]
pub enum AuditIndex {
    /// A single index over the whole ranking (the default).
    Single(RankedIndex),
    /// Rows partitioned into contiguous rank blocks with one shard-local
    /// index per block.
    Sharded(ShardedIndex),
}

impl AuditIndex {
    /// Number of ranked tuples.
    pub fn n(&self) -> usize {
        match self {
            AuditIndex::Single(i) => i.n(),
            AuditIndex::Sharded(i) => i.n(),
        }
    }

    /// `(s_D(p), s_Rk(p))` in one pass.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        match self {
            AuditIndex::Single(i) => i.counts(p, k),
            AuditIndex::Sharded(i) => i.counts(p, k),
        }
    }

    /// `s_Rk(p)` alone via a truncated prefix scan — the arena engines'
    /// re-activation fast path (the stored `s_D` makes the full fused
    /// scan redundant).
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        match self {
            AuditIndex::Single(i) => i.prefix_count(p, k),
            AuditIndex::Sharded(i) => i.prefix_count(p, k),
        }
    }

    /// `s_D(p)` alone.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        self.counts(p, 0).0
    }

    /// Value of `attr` for the tuple at rank position `pos`.
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        match self {
            AuditIndex::Single(i) => i.code_at(pos, attr),
            AuditIndex::Sharded(i) => i.code_at(pos, attr),
        }
    }

    /// Whether the tuple at rank position `pos` satisfies `p`.
    pub fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }

    /// Number of shards (`1` for the single-index variant).
    pub fn shard_count(&self) -> usize {
        match self {
            AuditIndex::Single(_) => 1,
            AuditIndex::Sharded(i) => i.shard_count(),
        }
    }
}

impl CountsProvider for AuditIndex {
    fn n(&self) -> usize {
        AuditIndex::n(self)
    }

    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        AuditIndex::counts(self, p, k)
    }

    fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        match self {
            AuditIndex::Single(i) => i.child_counts(parent, start, k, out),
            AuditIndex::Sharded(i) => i.child_counts(parent, start, k, out),
        }
    }

    fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        AuditIndex::code_at(self, pos, attr)
    }

    fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        AuditIndex::prefix_count(self, p, k)
    }
}

type PrepareHook = Box<dyn FnOnce(&mut Dataset) -> Result<(), String>>;

/// Fluent construction of an [`Audit`].
///
/// The dataset arrives as an `Arc` so a server can hand the same in-memory
/// dataset to many audits without copying; the ranking is either supplied
/// precomputed or produced by a [`Ranker`] on the *unprepared* dataset
/// (the paper ranks on raw numeric attributes and detects on the
/// bucketized ones — [`AuditBuilder::bucketize`] reproduces exactly that
/// split).
pub struct AuditBuilder {
    dataset: Arc<Dataset>,
    ranking: Option<Ranking>,
    attrs: Option<Vec<String>>,
    prepare: Vec<PrepareHook>,
    threads: usize,
    shards: usize,
}

impl AuditBuilder {
    /// Starts a builder over `dataset`.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        AuditBuilder {
            dataset: dataset.into(),
            ranking: None,
            attrs: None,
            prepare: Vec::new(),
            threads: 1,
            shards: 1,
        }
    }

    /// Uses a precomputed ranking.
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.ranking = Some(ranking);
        self
    }

    /// Ranks the (raw, unprepared) dataset with `ranker` now.
    pub fn ranker(mut self, ranker: &dyn Ranker) -> Self {
        self.ranking = Some(ranker.rank(&self.dataset));
        self
    }

    /// Restricts the pattern attributes to the named columns (the
    /// experiments vary the attribute count this way). Default: every
    /// categorical column.
    pub fn attributes<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Bucketizes a numeric column into `bins` equal-width bins before
    /// detection (after ranking). May be called repeatedly.
    pub fn bucketize(mut self, column: &str, bins: usize) -> Self {
        let column = column.to_string();
        self.prepare.push(Box::new(move |ds| {
            rankfair_data::bucketize::bucketize_in_place(
                ds,
                &column,
                bins,
                rankfair_data::bucketize::BinStrategy::EqualWidth,
            )
            .map_err(|e| format!("bucketizing `{column}`: {e}"))
        }));
        self
    }

    /// Arbitrary dataset-preparation hook, run (in registration order,
    /// after ranking) on a private copy of the dataset.
    pub fn prepare_with(
        mut self,
        hook: impl FnOnce(&mut Dataset) -> Result<(), String> + 'static,
    ) -> Self {
        self.prepare.push(Box::new(hook));
        self
    }

    /// Number of worker threads [`Audit::run`] splits the `k` range
    /// across. `0` means one per available CPU; default 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Partitions the ranking into `shards` contiguous rank blocks, each
    /// with its own shard-local index; pattern counts are merged
    /// additively across shards ([`ShardedIndex`]). `0` or `1` keeps the
    /// single unsharded index; results are identical either way.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builds the audit: ranks (if needed), applies preparation hooks,
    /// constructs the pattern space and the ranked bitmap index.
    pub fn build(self) -> Result<Audit, AuditError> {
        let Some(ranking) = self.ranking else {
            return Err(AuditError::MissingRanking);
        };
        let dataset = if self.prepare.is_empty() {
            self.dataset
        } else {
            let mut ds = (*self.dataset).clone();
            for hook in self.prepare {
                hook(&mut ds).map_err(AuditError::Prepare)?;
            }
            Arc::new(ds)
        };
        if ranking.len() != dataset.n_rows() {
            return Err(AuditError::RankingMismatch {
                ranking: ranking.len(),
                rows: dataset.n_rows(),
            });
        }
        let space = match &self.attrs {
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                PatternSpace::from_column_names(&dataset, &refs)?
            }
            None => PatternSpace::from_dataset(&dataset)?,
        };
        let index = if self.shards <= 1 {
            AuditIndex::Single(RankedIndex::build(&dataset, &space, &ranking))
        } else {
            AuditIndex::Sharded(ShardedIndex::build(&dataset, &space, &ranking, self.shards))
        };
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        Ok(Audit {
            dataset,
            space,
            ranking,
            index,
            threads,
        })
    }
}

/// An owned, `Send + Sync` audit: dataset + ranking + pattern space +
/// ranked index, executing [`AuditTask`]s. Built by [`AuditBuilder`].
#[derive(Debug, Clone)]
pub struct Audit {
    dataset: Arc<Dataset>,
    space: PatternSpace,
    ranking: Ranking,
    index: AuditIndex,
    threads: usize,
}

// Compile-time half of the thread-safety contract: `Audit` (and the types
// an audit run shares across worker threads) must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Audit>();
    assert_send_sync::<AuditOutcome>();
    assert_send_sync::<AuditTask>();
};

impl Audit {
    /// Starts an [`AuditBuilder`] over `dataset`.
    pub fn builder(dataset: impl Into<Arc<Dataset>>) -> AuditBuilder {
        AuditBuilder::new(dataset)
    }

    /// The (prepared) dataset the audit detects on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// A clone of the shared dataset handle.
    pub fn dataset_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The pattern space (attribute order, cardinalities, labels).
    pub fn space(&self) -> &PatternSpace {
        &self.space
    }

    /// The ranking in use.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The ranked counting index (single or sharded).
    pub fn index(&self) -> &AuditIndex {
        &self.index
    }

    /// Worker threads [`Audit::run`] uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Renders a pattern with attribute names and value labels.
    pub fn describe(&self, p: &Pattern) -> String {
        self.space.display(p)
    }

    /// Row ids of the tuples matching `p`.
    pub fn group_members(&self, p: &Pattern) -> Vec<u32> {
        let n = u32::try_from(self.dataset.n_rows()).expect("row count fits TupleId");
        (0..n)
            .filter(|&r| p.matches(|a| self.dataset.code(r as usize, self.space.dataset_col(a))))
            .collect()
    }

    /// Enriches an outcome into per-`k` display reports (both directions).
    pub fn report(&self, out: &AuditOutcome, task: &AuditTask) -> Vec<KReport> {
        summarize_audit(out, &self.index, &self.space, task)
    }

    fn validate(&self, cfg: &DetectConfig, task: &AuditTask) -> Result<(), AuditError> {
        validate_task(cfg, task, self.index.n())
    }

    /// The borrowed execution core shared with [`crate::MonitorAudit`].
    fn parts(&self) -> AuditParts<'_, AuditIndex> {
        AuditParts {
            dataset: &self.dataset,
            space: &self.space,
            ranking: &self.ranking,
            index: &self.index,
        }
    }

    /// Executes `task` over `cfg`'s `k` range.
    ///
    /// With [`AuditBuilder::threads`] > 1 (and no deadline) the range is
    /// split into contiguous chunks executed on `std::thread::scope`
    /// workers that share the immutable index; every algorithm is exact
    /// for any starting `k`, so the concatenated `per_k` is identical to
    /// the single-threaded result (only the work counters differ, since
    /// each chunk pays its own initial build). Deadline-bound runs stay
    /// sequential so truncation keeps its prefix semantics; both the
    /// under- and over-representation loops honor the deadline and mark
    /// [`SearchStats::timed_out`].
    pub fn run(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
        engine: Engine,
    ) -> Result<AuditOutcome, AuditError> {
        self.validate(cfg, task)?;
        let threads = self.threads.min(cfg.range_len()).max(1);
        if threads == 1 || cfg.deadline.is_some() {
            return Ok(self.run_range(cfg, task, engine));
        }
        let chunk = cfg.range_len().div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|i| {
                let lo = cfg.k_min + i * chunk;
                let hi = (lo + chunk - 1).min(cfg.k_max);
                (lo, hi)
            })
            .filter(|(lo, hi)| lo <= hi)
            .collect();
        let parts: Vec<AuditOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let sub = DetectConfig {
                        tau_s: cfg.tau_s,
                        k_min: lo,
                        k_max: hi,
                        deadline: None,
                    };
                    s.spawn(move || self.run_range(&sub, task, engine))
                })
                .collect();
            handles
                .into_iter()
                // lint:allow(panic-reachability) -- join() only errs if the worker panicked; re-raising that panic is propagation, not a new panic path
                .map(|h| h.join().expect("audit worker"))
                .collect()
        });
        let mut per_k = Vec::with_capacity(cfg.range_len());
        let mut stats = SearchStats::default();
        for part in parts {
            per_k.extend(part.per_k);
            stats.merge(&part.stats);
        }
        Ok(AuditOutcome { per_k, stats })
    }

    /// Sequential execution over one contiguous sub-range (already
    /// validated).
    fn run_range(&self, cfg: &DetectConfig, task: &AuditTask, engine: Engine) -> AuditOutcome {
        self.parts().run_range(cfg, task, engine)
    }
}

/// Shared validation of a `(config, task)` pair against a universe of `n`
/// ranked tuples — used by [`Audit`] and [`crate::MonitorAudit`].
pub(crate) fn validate_task(
    cfg: &DetectConfig,
    task: &AuditTask,
    n: usize,
) -> Result<(), AuditError> {
    if cfg.k_max > n {
        return Err(AuditError::InvalidKRange {
            k_max: cfg.k_max,
            n,
        });
    }
    // The finiteness check must come first: a bare `alpha <= 0.0` is
    // false for NaN, which would sail through and mark nothing biased.
    if let AuditTask::UnderRep(BiasMeasure::Proportional { alpha }) = task {
        if !alpha.is_finite() || *alpha <= 0.0 {
            return Err(AuditError::InvalidAlpha(*alpha));
        }
    }
    let bounds_of = |task: &AuditTask| -> Vec<Bounds> {
        match task {
            AuditTask::UnderRep(BiasMeasure::GlobalLower(b)) => vec![b.clone()],
            AuditTask::UnderRep(BiasMeasure::Proportional { .. }) => Vec::new(),
            AuditTask::OverRep { upper, .. } => vec![upper.clone()],
            AuditTask::Combined { lower, upper } => vec![lower.clone(), upper.clone()],
        }
    };
    for b in bounds_of(task) {
        b.validate().map_err(AuditError::InvalidBound)?;
    }
    Ok(())
}

/// The borrowed pieces an audit task executes against. [`Audit`] owns one
/// set; [`crate::MonitorAudit`] owns an *evolving* set and re-runs tasks
/// over sub-ranges of `k` after ranking edits — both drive exactly this
/// code, so a delta re-audit can never drift from a full audit.
pub(crate) struct AuditParts<'a, I: CountsProvider> {
    pub dataset: &'a Dataset,
    pub space: &'a PatternSpace,
    pub ranking: &'a Ranking,
    pub index: &'a I,
}

/// The persistent engine state a [`crate::MonitorAudit`] carries between
/// delta re-audits: one [`Store`] per direction (the shared node arena
/// plus counts-only engine checkpoints every `cadence` values of `k`, grid
/// `k ≡ k_min (mod cadence)`) and the replay work counters. The monitor
/// invalidates entries that an edit batch made stale — the changed-`k`
/// segments for a pure reorder, everything (arena included) for an
/// insertion — and [`AuditParts::run_range_checkpointed`] heals the holes
/// while recomputing.
#[derive(Debug)]
pub(crate) struct EngineCheckpoints {
    /// Grid spacing `C`: one checkpoint every `C` values of `k`.
    pub(crate) cadence: usize,
    /// Lower-engine store (UnderRep and the lower half of Combined).
    pub(crate) lower: Store<LowerFrontier>,
    /// Upper-engine store (OverRep and the upper half of Combined).
    pub(crate) upper: Store<UpperFrontier>,
    /// Seek/build/replay counters accumulated over the monitor's life.
    pub(crate) counters: ReplayCounters,
    /// Checkpoints dropped by edit invalidation so far.
    pub(crate) invalidated: u64,
}

impl EngineCheckpoints {
    pub(crate) fn new(cadence: usize) -> Self {
        EngineCheckpoints {
            cadence: cadence.max(1),
            lower: Store::default(),
            upper: Store::default(),
            counters: ReplayCounters::default(),
            invalidated: 0,
        }
    }

    /// Drops every checkpoint *and* both arenas — an insertion moved `n`
    /// and `s_D`, which every interned node's pruned verdict and every
    /// checkpoint's classification depend on.
    pub(crate) fn invalidate_all(&mut self) {
        self.invalidated += (self.lower.snaps.len() + self.upper.snaps.len()) as u64;
        self.lower.clear();
        self.upper.clear();
    }

    /// Live checkpoints per direction.
    pub(crate) fn live(&self) -> (usize, usize) {
        (self.lower.snaps.len(), self.upper.snaps.len())
    }

    /// Total node slots held across every stored checkpoint.
    pub(crate) fn stored_nodes(&self) -> usize {
        self.lower.stored_nodes() + self.upper.stored_nodes()
    }

    /// Nodes interned across both arenas (the steady-state memory
    /// driver; checkpoints only add counts-vector slots on top).
    pub(crate) fn arena_nodes(&self) -> usize {
        self.lower.arena.len() + self.upper.arena.len()
    }
}

/// One direction of a task, as [`assemble`] asks a runner for it.
enum Side<'t> {
    /// Most general groups under the measure.
    Under(&'t BiasMeasure),
    /// Groups over the upper bound, at the given scope.
    Over(&'t Bounds, OverRepScope),
}

/// Pulls the next `k` from each present side and zips them into one row;
/// `None` once any present side has ended.
fn next_row(
    under: Option<&mut impl Iterator<Item = KResult>>,
    over: Option<&mut impl Iterator<Item = KResult>>,
) -> Option<AuditKResult> {
    let under = match under {
        Some(side) => Some(side.next()?),
        None => None,
    };
    let over = match over {
        Some(side) => Some(side.next()?),
        None => None,
    };
    let k = under.as_ref().or(over.as_ref())?.k;
    Some(AuditKResult {
        k,
        under: under.map(|r| r.patterns).unwrap_or_default(),
        over: over.map(|r| r.patterns).unwrap_or_default(),
    })
}

/// The sides `task` runs: the under-representation measure and the
/// over-representation bound with its scope.
fn sides(task: &AuditTask) -> (Option<BiasMeasure>, Option<(&Bounds, OverRepScope)>) {
    match task {
        AuditTask::UnderRep(measure) => (Some(measure.clone()), None),
        AuditTask::OverRep { upper, scope } => (None, Some((upper, *scope))),
        AuditTask::Combined { lower, upper } => (
            Some(BiasMeasure::GlobalLower(lower.clone())),
            Some((upper, OverRepScope::MostSpecific)),
        ),
    }
}

/// The one task assembly behind every batch mode: runs each side the task
/// needs through `run_side` and zips their rows. For Combined, the over side
/// covers only the `k` values the (possibly deadline-truncated) under side
/// produced — no work whose results the zip would discard — under the
/// *remaining* wall-clock budget, not a fresh one.
fn assemble(
    cfg: &DetectConfig,
    task: &AuditTask,
    mut run_side: impl FnMut(Side<'_>, &DetectConfig) -> DetectionOutput,
) -> AuditOutcome {
    let (under, over) = sides(task);
    let low = under.map(|measure| run_side(Side::Under(&measure), cfg));
    let over_cfg = match &low {
        None => Some(cfg.clone()),
        Some(low) => low.per_k.last().map(|last| DetectConfig {
            k_max: last.k,
            deadline: cfg.deadline.map(|d| d.saturating_sub(low.stats.elapsed)),
            ..cfg.clone()
        }),
    };
    let high = over
        .zip(over_cfg)
        .map(|((upper, scope), over_cfg)| run_side(Side::Over(upper, scope), &over_cfg));
    let mut stats = SearchStats::default();
    for side in low.iter().chain(&high) {
        stats.merge(&side.stats);
    }
    // The sides ran back to back: report their total, not the max merge
    // takes for parallel workers.
    stats.elapsed = low.iter().chain(&high).map(|side| side.stats.elapsed).sum();
    let mut under_rows = low.map(|side| side.per_k.into_iter());
    let mut over_rows = high.map(|side| side.per_k.into_iter());
    let per_k = std::iter::from_fn(|| next_row(under_rows.as_mut(), over_rows.as_mut())).collect();
    AuditOutcome { per_k, stats }
}

impl<I: CountsProvider> AuditParts<'_, I> {
    /// Sequential execution over one contiguous, already validated `k`
    /// sub-range.
    pub(crate) fn run_range(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
        engine: Engine,
    ) -> AuditOutcome {
        assemble(cfg, task, |side, cfg| match side {
            Side::Under(measure) => self.run_under(cfg, measure, engine),
            Side::Over(upper, scope) => self.run_over(cfg, upper, scope, engine),
        })
    }

    /// Checkpointed execution over the disjoint ascending `k` segments
    /// `spans` (each `[lo, hi]` inclusive) —
    /// [`crate::MonitorAudit`]'s delta path with `Engine::Optimized`.
    ///
    /// Functionally identical to [`AuditParts::run_range`] over the same
    /// `k` values (both directions drive the same engine step code; the
    /// differential sweeps assert equality), but it seeks into `ckpts`'s
    /// stored checkpoints instead of building the engines from scratch at
    /// each segment's first `k`, repairing the seek checkpoint against
    /// `reorder` when an edit swallowed it, and refreshes checkpoints as
    /// it replays. Deadlines are unsupported (monitors reject them at
    /// construction): a truncated replay would leave the checkpoint store
    /// inconsistent with the cached results.
    pub(crate) fn run_range_checkpointed(
        &self,
        cfg: &DetectConfig,
        spans: &[(usize, usize)],
        task: &AuditTask,
        ckpts: &mut EngineCheckpoints,
        reorder: Option<&ReorderSpec>,
    ) -> AuditOutcome {
        debug_assert!(cfg.deadline.is_none(), "checkpointed runs take no deadline");
        let reorder = reorder.map(|r| (r, self.ranking.order()));
        let EngineCheckpoints {
            cadence,
            lower,
            upper: upper_store,
            counters,
            ..
        } = ckpts;
        assemble(cfg, task, |side, cfg| match side {
            Side::Under(measure) => {
                let engine = LowerEngine::new(self.index, self.space, cfg, measure.clone(), true);
                incremental::replay(engine, lower, cfg.k_min, spans, reorder, *cadence, counters)
            }
            Side::Over(upper, scope) => {
                let engine = UpperEngine::new(self.index, self.space, cfg, upper.clone(), scope);
                incremental::replay(
                    engine,
                    upper_store,
                    cfg.k_min,
                    spans,
                    reorder,
                    *cadence,
                    counters,
                )
            }
        })
    }

    fn run_under(
        &self,
        cfg: &DetectConfig,
        measure: &BiasMeasure,
        engine_sel: Engine,
    ) -> DetectionOutput {
        match engine_sel {
            Engine::Baseline => topdown::iter_td(self.index, self.space, cfg, measure),
            Engine::Optimized => Stream::new(
                LowerEngine::new(self.index, self.space, cfg, measure.clone(), false),
                cfg,
            )
            .into_output(),
        }
    }

    fn run_over(
        &self,
        cfg: &DetectConfig,
        upper: &Bounds,
        scope: OverRepScope,
        engine_sel: Engine,
    ) -> DetectionOutput {
        // The optimized path is the incremental engine: one build at
        // `k_min`, then per-`k` subtree walks and frontier deltas instead
        // of a fresh DFS plus full maximality sweep at every `k`.
        if engine_sel == Engine::Optimized {
            let engine = UpperEngine::new(self.index, self.space, cfg, upper.clone(), scope);
            return Stream::new(engine, cfg).into_output();
        }
        // The guard starts before the substantial-set enumeration so that
        // time counts against the budget; within each per-`k` scan it is
        // polled per pattern, so a deadline overrun is bounded by one
        // naive count, not by a whole `k` value (tens of seconds on the
        // larger benches).
        let mut guard = DeadlineGuard::new(cfg.deadline);
        let mut stats = SearchStats::default();
        let mut per_k = Vec::with_capacity(cfg.range_len());
        // The substantial set depends only on τs, not on k: enumerate once
        // per run for the brute-force baseline.
        let substantial =
            oracle::enumerate_substantial(self.dataset, self.space, self.ranking, cfg.tau_s);
        stats.nodes_evaluated += substantial.len() as u64;
        for k in cfg.k_min..=cfg.k_max {
            stats.full_searches += 1;
            match self.oracle_over(&substantial, k, upper.at(k), scope, &mut guard) {
                Some(patterns) => per_k.push(KResult { k, patterns }),
                None => {
                    stats.timed_out = true;
                    break;
                }
            }
        }
        stats.elapsed = guard.elapsed();
        DetectionOutput { per_k, stats }
    }

    /// Brute-force over-representation baseline on a different code path
    /// from the optimized searches: naive row-scan counting over the
    /// pre-enumerated substantial patterns, then a quadratic
    /// maximality/minimality filter. Returns `None` on deadline expiry.
    fn oracle_over(
        &self,
        substantial: &[Pattern],
        k: usize,
        u: usize,
        scope: OverRepScope,
        guard: &mut DeadlineGuard,
    ) -> Option<Vec<Pattern>> {
        let mut qualifying: Vec<&Pattern> = Vec::new();
        for p in substantial {
            if guard.expired() {
                return None;
            }
            if oracle::naive_counts(self.dataset, self.space, self.ranking, p, k).1 > u {
                qualifying.push(p);
            }
        }
        let mut out: Vec<Pattern> = Vec::new();
        for p in &qualifying {
            if guard.expired() {
                return None;
            }
            let dominated = match scope {
                OverRepScope::MostSpecific => qualifying.iter().any(|q| p.is_proper_subset_of(q)),
                OverRepScope::MostGeneral => qualifying.iter().any(|q| q.is_proper_subset_of(p)),
            };
            if !dominated {
                out.push((*p).clone());
            }
        }
        out.sort_unstable();
        Some(out)
    }
}

impl Audit {
    /// Lazily yields the [`AuditKResult`] for each `k` on demand,
    /// maintaining the incremental engines between pulls — the owned
    /// successor of the deprecated `DetectionStream`.
    ///
    /// Later `k` values cost nothing unless pulled; **both** directions
    /// run their optimized incremental engine (the under side via
    /// `GlobalBounds`/`PropBounds`, the over side via the incremental
    /// upper engine).
    pub fn run_streaming(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
    ) -> Result<AuditStream<'_>, AuditError> {
        self.validate(cfg, task)?;
        let (index, space) = (&self.index, &self.space);
        let (under, over) = sides(task);
        let under = under
            .map(|measure| Stream::new(LowerEngine::new(index, space, cfg, measure, true), cfg));
        let over = over.map(|(upper, scope)| {
            Stream::new(
                UpperEngine::new(index, space, cfg, upper.clone(), scope),
                cfg,
            )
        });
        Ok(AuditStream { under, over })
    }
}

/// Lazy per-`k` iterator returned by [`Audit::run_streaming`].
pub struct AuditStream<'a> {
    under: Option<Stream<LowerEngine<'a, AuditIndex>>>,
    over: Option<Stream<UpperEngine<'a, AuditIndex>>>,
}

impl AuditStream<'_> {
    /// Instrumentation counters accumulated so far (both directions).
    pub fn stats(&self) -> SearchStats {
        let mut stats = self.over.as_ref().map(|s| s.stats()).unwrap_or_default();
        if let Some(s) = &self.under {
            stats.merge(&s.stats());
        }
        stats
    }

    /// Whether either side stopped early on the deadline.
    pub fn timed_out(&self) -> bool {
        let under = self.under.as_ref().is_some_and(|s| s.timed_out());
        under || self.over.as_ref().is_some_and(|s| s.timed_out())
    }
}

impl Iterator for AuditStream<'_> {
    type Item = AuditKResult;

    /// Each side enforces the deadline inside its incremental engine; if
    /// either truncates, the zipped stream ends (truncate-and-flag,
    /// matching the batch path).
    fn next(&mut self) -> Option<AuditKResult> {
        next_row(self.under.as_mut(), self.over.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::{AttributeRanker, SortKey};

    fn fig1_audit() -> Audit {
        Audit::builder(Arc::new(students_fig1()))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_with_ranker_matches_precomputed() {
        let ds = Arc::new(students_fig1());
        let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        let via_ranker = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .build()
            .unwrap();
        let via_order = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 5);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        assert_eq!(
            via_ranker
                .run(&cfg, &task, Engine::Optimized)
                .unwrap()
                .per_k,
            via_order.run(&cfg, &task, Engine::Optimized).unwrap().per_k,
        );
    }

    #[test]
    fn builder_errors_are_typed() {
        let ds = Arc::new(students_fig1());
        assert_eq!(
            Audit::builder(Arc::clone(&ds)).build().unwrap_err(),
            AuditError::MissingRanking
        );
        let short = Ranking::from_order(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            Audit::builder(Arc::clone(&ds))
                .ranking(short)
                .build()
                .unwrap_err(),
            AuditError::RankingMismatch {
                ranking: 3,
                rows: 16
            }
        ));
        let bad_attr = Audit::builder(Arc::clone(&ds))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .attributes(["Nope"])
            .build();
        assert!(matches!(
            bad_attr.unwrap_err(),
            AuditError::Space(SpaceError::UnknownColumn(_))
        ));
    }

    #[test]
    fn run_validates_range_and_alpha() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 17);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        assert_eq!(
            audit.run(&cfg, &task, Engine::Optimized).unwrap_err(),
            AuditError::InvalidKRange { k_max: 17, n: 16 }
        );
        let cfg = DetectConfig::new(2, 2, 5);
        let bad = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.0 });
        assert_eq!(
            audit.run(&cfg, &bad, Engine::Optimized).unwrap_err(),
            AuditError::InvalidAlpha(0.0)
        );
    }

    #[test]
    fn run_rejects_nan_and_negative_parameters() {
        // Regression: a NaN α passed `alpha <= 0.0` (false for NaN) and a
        // NaN/negative `LinearFraction` was never inspected — both
        // produced silently empty or all-biased results.
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 5);
        let nan_alpha = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: f64::NAN });
        assert!(matches!(
            audit.run(&cfg, &nan_alpha, Engine::Optimized).unwrap_err(),
            AuditError::InvalidAlpha(a) if a.is_nan()
        ));
        let nan_lower =
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(f64::NAN)));
        assert!(matches!(
            audit.run(&cfg, &nan_lower, Engine::Optimized).unwrap_err(),
            AuditError::InvalidBound(v) if v.is_nan()
        ));
        let neg_upper = AuditTask::OverRep {
            upper: Bounds::LinearFraction(-0.5),
            scope: OverRepScope::MostSpecific,
        };
        assert_eq!(
            audit.run(&cfg, &neg_upper, Engine::Optimized).unwrap_err(),
            AuditError::InvalidBound(-0.5)
        );
        let bad_combined = AuditTask::Combined {
            lower: Bounds::constant(1),
            upper: Bounds::LinearFraction(f64::INFINITY),
        };
        assert!(matches!(
            audit
                .run(&cfg, &bad_combined, Engine::Optimized)
                .unwrap_err(),
            AuditError::InvalidBound(_)
        ));
        // The streaming entry point validates identically.
        assert!(audit.run_streaming(&cfg, &nan_alpha).is_err());
        // Well-formed fractional bounds still pass.
        let ok = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.25)));
        assert!(audit.run(&cfg, &ok, Engine::Optimized).is_ok());
    }

    #[test]
    fn under_rep_matches_example_4_6() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 5);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let k4: Vec<String> = out.per_k[0]
            .under
            .iter()
            .map(|p| audit.describe(p))
            .collect();
        for e in ["{School=GP}", "{Address=U}", "{Failures=1}", "{Failures=2}"] {
            assert!(k4.contains(&e.to_string()), "missing {e}: {k4:?}");
        }
        assert!(out.per_k.iter().all(|kr| kr.over.is_empty()));
    }

    #[test]
    fn all_tasks_agree_between_engines_on_fig1() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 3, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: Bounds::constant(1),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let opt = audit.run(&cfg, task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, task, Engine::Baseline).unwrap();
            assert_eq!(opt.per_k, base.per_k, "{task:?}");
        }
    }

    #[test]
    fn combined_reports_both_directions() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 6);
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        assert_eq!(out.per_k.len(), 3);
        assert!(out.per_k.iter().any(|kr| !kr.under.is_empty()));
        assert!(out.per_k.iter().any(|kr| !kr.over.is_empty()));
        for kr in &out.per_k {
            for p in &kr.over {
                let (sd, count) = audit.index().counts(p, kr.k);
                assert!(sd >= 4 && count > 2);
            }
        }
    }

    #[test]
    fn parallel_run_is_byte_identical_for_every_task() {
        let ds = Arc::new(students_fig1());
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let seq = Audit::builder(Arc::clone(&ds))
            .ranking(ranking.clone())
            .build()
            .unwrap();
        let par = Audit::builder(Arc::clone(&ds))
            .ranking(ranking)
            .threads(4)
            .build()
            .unwrap();
        let cfg = DetectConfig::new(2, 2, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::steps(vec![
                (2, 1),
                (6, 2),
                (10, 3),
            ]))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.9 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let a = seq.run(&cfg, task, Engine::Optimized).unwrap();
            let b = par.run(&cfg, task, Engine::Optimized).unwrap();
            assert_eq!(a.per_k, b.per_k, "{task:?}");
            assert_eq!(
                a.detection_output().per_k,
                b.detection_output().per_k,
                "{task:?}"
            );
        }
    }

    #[test]
    fn sharded_builder_matches_unsharded_for_every_task() {
        let ds = Arc::new(students_fig1());
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let single = Audit::builder(Arc::clone(&ds))
            .ranking(ranking.clone())
            .build()
            .unwrap();
        assert_eq!(single.index().shard_count(), 1);
        let cfg = DetectConfig::new(2, 2, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for shards in [2, 4, 7] {
            let sharded = Audit::builder(Arc::clone(&ds))
                .ranking(ranking.clone())
                .shards(shards)
                .build()
                .unwrap();
            assert_eq!(sharded.index().shard_count(), shards);
            for task in &tasks {
                for engine in [Engine::Optimized, Engine::Baseline] {
                    let a = single.run(&cfg, task, engine).unwrap();
                    let b = sharded.run(&cfg, task, engine).unwrap();
                    assert_eq!(a.per_k, b.per_k, "shards={shards} {task:?} {engine:?}");
                }
                let streamed: Vec<AuditKResult> =
                    sharded.run_streaming(&cfg, task).unwrap().collect();
                assert_eq!(
                    single.run(&cfg, task, Engine::Optimized).unwrap().per_k,
                    streamed,
                    "streaming shards={shards} {task:?}"
                );
            }
        }
    }

    #[test]
    fn audit_is_shareable_across_threads() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 4, 8);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let expected = audit.run(&cfg, &task, Engine::Optimized).unwrap().per_k;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (audit, cfg, task, expected) = (&audit, &cfg, &task, &expected);
                s.spawn(move || {
                    let got = audit.run(cfg, task, Engine::Optimized).unwrap();
                    assert_eq!(&got.per_k, expected);
                });
            }
        });
    }

    #[test]
    fn streaming_matches_batch_for_every_task() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 3, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let batch = audit.run(&cfg, task, Engine::Optimized).unwrap();
            let streamed: Vec<AuditKResult> = audit.run_streaming(&cfg, task).unwrap().collect();
            assert_eq!(batch.per_k, streamed, "{task:?}");
        }
    }

    #[test]
    fn streaming_is_lazy_and_stoppable() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 16);
        let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
        let mut stream = audit.run_streaming(&cfg, &task).unwrap();
        let first = stream.next().unwrap();
        assert_eq!(first.k, 2);
        let after_one = stream.stats().nodes_evaluated;
        let ks: Vec<usize> = stream.by_ref().take(3).map(|kr| kr.k).collect();
        assert_eq!(ks, vec![3, 4, 5]);
        assert!(stream.stats().nodes_evaluated >= after_one);
        assert!(!stream.timed_out());
    }

    #[test]
    fn over_rep_honors_deadline() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
        let task = AuditTask::OverRep {
            upper: Bounds::constant(1),
            scope: OverRepScope::MostSpecific,
        };
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        // A zero deadline truncates (possibly to nothing) and says so.
        assert!(out.stats.timed_out || out.per_k.len() == 15);
        if out.stats.timed_out {
            assert!(out.per_k.len() < 15);
        }
        // Produced prefixes are exact.
        let full = audit
            .run(&DetectConfig::new(1, 2, 16), &task, Engine::Optimized)
            .unwrap();
        for (got, want) in out.per_k.iter().zip(&full.per_k) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn combined_honors_deadline() {
        // Under a zero budget the lower engine truncates before producing
        // any `k`, and the combined report is a (here empty) consistent
        // prefix rather than a full-length result.
        let audit = fig1_audit();
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(3),
        };
        let cfg = DetectConfig::new(2, 4, 6).with_deadline(std::time::Duration::ZERO);
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        assert!(out.per_k.is_empty());
        assert!(out.stats.timed_out);
        // And the undeadlined run still covers the whole range.
        let full = audit
            .run(&DetectConfig::new(2, 4, 6), &task, Engine::Optimized)
            .unwrap();
        assert_eq!(full.per_k.len(), 3);
        assert!(!full.stats.timed_out);
    }

    #[test]
    fn streaming_stats_carry_timeout_and_elapsed() {
        let audit = fig1_audit();
        for task in [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::OverRep {
                upper: Bounds::constant(1),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ] {
            let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
            let mut stream = audit.run_streaming(&cfg, &task).unwrap();
            assert_eq!(stream.by_ref().count(), 0, "{task:?}");
            assert!(stream.timed_out(), "{task:?}");
            assert_eq!(stream.stats().timed_out, stream.timed_out(), "{task:?}");
            let mut stream = audit
                .run_streaming(&DetectConfig::new(1, 2, 16), &task)
                .unwrap();
            assert_eq!(stream.by_ref().count(), 15, "{task:?}");
            assert!(!stream.stats().timed_out, "{task:?}");
            assert!(
                stream.stats().elapsed > std::time::Duration::ZERO,
                "{task:?}"
            );
        }
    }

    #[test]
    fn evaluation_counts_stay_pinned_on_a_fixed_instance() {
        // `nodes_evaluated` counts one per pattern the engines evaluate,
        // however the counts are computed (one batched pass per expansion
        // or one scan per child). Pinned so the meaning of "evals" in
        // benchmarks and stats cannot drift with the count kernel, and
        // with every other work counter so a restructuring of the engines
        // cannot change the work they do.
        let spec = rankfair_synth::RandomSpec {
            rows: 400,
            attrs: 5,
            max_card: 4,
        };
        let order = rankfair_synth::random_ranking(12, spec.rows);
        let audit = Audit::builder(Arc::new(rankfair_synth::random_dataset(12, spec)))
            .ranking(Ranking::from_order(order.clone()).unwrap())
            .build()
            .unwrap();
        let cfg = DetectConfig::new(10, 10, 60);
        let counters = |s: &SearchStats| {
            (
                s.nodes_evaluated,
                s.nodes_touched,
                s.schedule_pops,
                s.full_searches,
            )
        };
        // (evaluated, touched, schedule pops, full searches) of the batch
        // run and of the stream. They differ only where the batch
        // GlobalBounds rebuilds at a bound step and the stream rescans.
        for (task, batch, streamed) in [
            (
                AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
                (607, 1140, 509, 1),
                (607, 1140, 509, 1),
            ),
            (
                AuditTask::OverRep {
                    upper: Bounds::LinearFraction(0.3),
                    scope: OverRepScope::MostSpecific,
                },
                (121, 2608, 0, 1),
                (121, 2608, 0, 1),
            ),
            (
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.2))),
                (1638, 682, 0, 11),
                (283, 2865, 0, 1),
            ),
        ] {
            let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
            let mut stream = audit.run_streaming(&cfg, &task).unwrap();
            assert_eq!(stream.by_ref().count(), cfg.range_len());
            assert_eq!(counters(&out.stats), batch, "{task:?}");
            assert_eq!(counters(&stream.stats()), streamed, "{task:?}");
        }
        // The monitor's replay path over the same instance: a score column
        // that reproduces the ranking above, then one reorder batch.
        let mut ds = rankfair_synth::random_dataset(12, spec);
        let mut scores = vec![0.0; spec.rows];
        for (pos, &row) in order.iter().enumerate() {
            scores[row as usize] = (spec.rows - pos) as f64;
        }
        ds.push_column(rankfair_data::Column::numeric("score", scores))
            .unwrap();
        let task = AuditTask::Combined {
            lower: Bounds::LinearFraction(0.2),
            upper: Bounds::LinearFraction(0.3),
        };
        let mut monitor = crate::MonitorAudit::builder(ds, "score")
            .build(cfg.clone(), task, Engine::Optimized)
            .unwrap();
        let built = crate::CheckpointStats {
            cadence: 8,
            lower_checkpoints: 7,
            upper_checkpoints: 7,
            stored_nodes: 2621,
            arena_nodes: 404,
            seeks: 0,
            cold_builds: 2,
            repairs: 0,
            replayed_steps: 102,
            prefix_recounts: 0,
            segments: 2,
            invalidated: 0,
        };
        assert_eq!(monitor.checkpoint_stats().unwrap(), built);
        // Lift the row at position 49 to position 25: the changed-k
        // segment starts at k = 26, a grid k, so its seek checkpoint is
        // repaired.
        monitor
            .apply(&[crate::RankingEdit::ScoreUpdate {
                row: order[49],
                score: (spec.rows - 25) as f64 + 0.5,
            }])
            .unwrap();
        let reordered = crate::CheckpointStats {
            lower_checkpoints: 6,
            upper_checkpoints: 6,
            stored_nodes: 2282,
            seeks: 2,
            repairs: 2,
            replayed_steps: 148,
            prefix_recounts: 33,
            segments: 4,
            ..built
        };
        assert_eq!(monitor.checkpoint_stats().unwrap(), reordered);
    }

    #[test]
    fn bucketize_hook_prepares_detection_dataset() {
        // Rank on the numeric Grade, then bucketize it for detection: the
        // grade becomes a pattern attribute without disturbing the ranking.
        let ds = Arc::new(students_fig1());
        let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        let audit = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .bucketize("Grade", 3)
            .build()
            .unwrap();
        assert_eq!(audit.space().n_attrs(), 5); // 4 categorical + bucketized Grade
        assert!(audit.space().attr_by_name("Grade").is_some());
        // The source dataset is untouched (copy-on-prepare).
        assert!(ds.column_by_name("Grade").unwrap().codes().is_none());
        // Hooks that fail surface as typed errors.
        let err = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .bucketize("Nope", 3)
            .build()
            .unwrap_err();
        assert!(matches!(err, AuditError::Prepare(_)));
    }
}
