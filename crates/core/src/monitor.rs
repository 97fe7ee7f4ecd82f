//! Live ranking monitor: delta re-audits over an evolving ranking.
//!
//! The paper's algorithms audit a *frozen* ranking; a serving deployment
//! faces rankings that churn — scores get re-estimated, new tuples
//! arrive, the interesting `k` cutoffs move. Rebuilding an [`Audit`]
//! (pattern space + counting index) and re-running the whole
//! `k` range after every batch of edits throws away almost all of the
//! previous work: a small batch of score updates only reorders a narrow
//! band of rank positions, and the per-`k` result sets outside that band
//! are **provably unchanged**.
//!
//! [`MonitorAudit`] exploits exactly that. It owns the [`Audit`] it
//! edits (an evolving [`Dataset`], the fixed [`PatternSpace`], a
//! [`RankedIndex`] it patches in place and a ranking), a [`ScoredRanking`]
//! (the updatable ranking layer, which the audit's ranking follows), and
//! the current per-`k` results. One [`MonitorAudit::apply`] call takes a
//! batch of [`RankingEdit`]s and:
//!
//! 1. applies each edit to the dataset and the ranking, accumulating the
//!    hull `[lo, hi]` of rank positions whose occupant changed;
//! 2. patches the index over that span only
//!    ([`RankedIndex::rewrite_span`]: it copies the span of the rank order
//!    and rewrites the span's positions in the rank blocks already built,
//!    `O(span)` plus `O(m)` per built position, no rebuild; the membership
//!    maps do not depend on the order);
//! 3. re-runs the audit task over exactly the `k` values whose top-`k`
//!    membership changed. The hull `[lo+1, hi]` bounds them (for
//!    `k ≤ lo` the top-`k` prefix is untouched, and for `k > hi` it
//!    contains the whole reordered span, i.e. the same *set* of tuples —
//!    every count `s_Rk`, every bound `L_k`/`U_k`, `s_D` and `n` are
//!    therefore unchanged), but the hull over-recomputes: the true
//!    changed-`k` set is the **union of per-row net movement intervals**
//!    — a row that moved from position `op` to `p` changes top-`k`
//!    membership for `k ∈ [min(op,p)+1, max(op,p)]` only. The monitor
//!    lists the batch's **moves** once (every row whose position changed,
//!    with its position before and after), takes the union of their
//!    intervals, merges segments closer than the checkpoint cadence (a
//!    seek would replay the gap anyway), and replays only the surviving
//!    segments — a batch of two tight edit clusters far apart no longer
//!    re-audits the dead middle. The re-run is the monitor's
//!    own audit running its sub-range code, the code every
//!    [`Audit::run`] runs, so a delta re-audit cannot drift from a full
//!    one. Both engines take the same segments: the optimized ones replay
//!    each, and a baseline monitor re-runs their hull in one pass;
//! 4. splices the recomputed `k` results over the cached ones and diffs
//!    old vs new into a typed [`DeltaReport`] — which groups entered and
//!    left the biased set, per `k` and per direction.
//!
//! # Persistent engine state
//!
//! With [`Engine::Optimized`] the monitor keeps the engines' search
//! state **across** edit batches. The pattern-tree *structure* (interned
//! patterns, parent/child links, `s_D`) is `k`- and bound-independent, so
//! each engine interns it once, for substantial nodes only, in a flat
//! index-addressed **arena** that persists for the monitor's lifetime (a
//! child with `s_D < τs` is one pruned slot in its parent's child row);
//! every `C` values of `k` ([`MonitorBuilder::checkpoint_every`]) the
//! engine snapshots only its *run state* — per-node counts, frontier
//! bits and result sets, a few flat-vector memcpys — never the arena.
//! Step 3 then *seeks* to the checkpoint at or below each recompute
//! segment and replays forward with per-`k` subtree walks, re-activating
//! stored arena nodes with prefix-only recounts (the stored `s_D` makes
//! the full fused scan redundant), instead of paying the from-scratch
//! top-down build at the segment's first `k` that used to dominate delta
//! cost. A checkpoint is exact after a reorder whenever no move crosses
//! its `k` (stored counts are functions of the top-`k` *set* alone); a
//! seek checkpoint a move does cross is **repaired in place** from the
//! top-`k` set diff read off the same moves — ±count walks for the rows
//! that crossed, plus one store reclassify — so no pure reorder ever
//! triggers a fresh engine build. The replay rewrites the checkpoints
//! near each segment's start and drops the deeper stale ones, so a
//! reorder can leave fewer checkpoints than it found.
//! [`MonitorAudit::checkpoint_stats`] exposes the live-checkpoint,
//! arena/memory and seek/repair/segment counters (also on the wire
//! `snapshot` op).
//!
//! Insertions grow the universe (`n`, and `s_D` of every pattern the new
//! tuple matches), which can flip substantiality, the proportional
//! bound and every stored checkpoint count at *any* `k`; a batch
//! containing an insertion therefore voids the checkpoint store and
//! recomputes the full `k` range (reseeding the checkpoint grid) —
//! still against the patched index ([`RankedIndex::grow`] appends one bit
//! per attribute to the membership maps), so the index rebuild is
//! avoided even then.
//!
//! ```
//! use rankfair_core::{
//!     AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, MonitorAudit, RankingEdit,
//! };
//! use rankfair_data::examples::students_fig1;
//!
//! let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
//! let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
//!     .build(DetectConfig::new(4, 4, 5), task, Engine::Optimized)
//!     .unwrap();
//! let before = monitor.results().to_vec();
//! // The bottom-ranked student gets a much better grade: re-audit the
//! // delta (their climb reorders every position above them).
//! let delta = monitor
//!     .apply(&[RankingEdit::ScoreUpdate { row: 5, score: 19.5 }])
//!     .unwrap();
//! assert!(delta.recomputed.is_some());
//! assert_ne!(before, monitor.results());
//! ```

use rankfair_data::{Dataset, RowValue, TupleId};
use rankfair_rank::{Ranking, ScoredRanking};

use crate::audit::{Audit, AuditError, AuditKResult, AuditTask, Engine, EngineCheckpoints};
use crate::incremental::Reorder;
use crate::pattern::Pattern;
use crate::report::KReport;
use crate::space::PatternSpace;
use crate::stats::{DetectConfig, SearchStats};

/// One edit to a live ranking.
#[derive(Debug, Clone, PartialEq)]
pub enum RankingEdit {
    /// Re-score an existing tuple; the ranking reorders locally.
    ScoreUpdate {
        /// Row id of the tuple to re-score.
        row: TupleId,
        /// The new score (written into the monitor's score column too).
        score: f64,
    },
    /// Append a new tuple (one cell per dataset column, in declaration
    /// order) and insert it into the ranking at the position its score
    /// column cell dictates.
    Insert {
        /// The new tuple's cells.
        cells: Vec<RowValue>,
    },
}

/// Typed error of the monitor layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorError {
    /// Construction-time audit error (bad attributes, invalid task
    /// bounds, `k_max` beyond the dataset, …).
    Audit(AuditError),
    /// The score column is missing or not numeric.
    ScoreColumn(String),
    /// A score update names a row outside the dataset.
    UnknownRow {
        /// The offending row id.
        row: TupleId,
        /// Rows currently ranked.
        n: usize,
    },
    /// An inserted tuple uses a label unknown to a pattern attribute.
    /// The pattern space (and the bitmap index derived from it) has fixed
    /// cardinalities; new labels on non-pattern columns are fine, but on
    /// a pattern attribute they would require a rebuild — reported as an
    /// error instead of silently miscounting.
    UnknownLabel {
        /// The pattern attribute column.
        column: String,
        /// The unknown label.
        label: String,
    },
    /// An edit carries a NaN score or an otherwise malformed payload.
    BadEdit(String),
    /// The configuration carries a deadline. Monitors require *complete*
    /// cached results for the whole `k` range — a truncated initial
    /// build would make every later delta splice against missing entries
    /// — so a deadline is rejected loudly instead of silently ignored.
    DeadlineUnsupported,
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Audit(e) => write!(f, "audit: {e}"),
            MonitorError::ScoreColumn(c) => {
                write!(f, "score column `{c}` is missing or not numeric")
            }
            MonitorError::UnknownRow { row, n } => {
                write!(f, "row {row} out of range 0..{n}")
            }
            MonitorError::UnknownLabel { column, label } => write!(
                f,
                "label `{label}` is not in the dictionary of pattern attribute `{column}`"
            ),
            MonitorError::BadEdit(e) => write!(f, "bad edit: {e}"),
            MonitorError::DeadlineUnsupported => write!(
                f,
                "monitors do not support config.deadline (cached results must cover the whole k range)"
            ),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<AuditError> for MonitorError {
    fn from(e: AuditError) -> Self {
        MonitorError::Audit(e)
    }
}

/// Per-`k` membership changes produced by one edit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KDelta {
    /// The `k` this delta refers to.
    pub k: usize,
    /// Under-represented groups that entered the result set.
    pub entered_under: Vec<Pattern>,
    /// Under-represented groups that left it.
    pub left_under: Vec<Pattern>,
    /// Over-represented groups that entered.
    pub entered_over: Vec<Pattern>,
    /// Over-represented groups that left.
    pub left_over: Vec<Pattern>,
}

impl KDelta {
    /// Whether nothing changed at this `k`.
    pub fn is_empty(&self) -> bool {
        self.entered_under.is_empty()
            && self.left_under.is_empty()
            && self.entered_over.is_empty()
            && self.left_over.is_empty()
    }
}

/// What one [`MonitorAudit::apply`] call did.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Edits applied.
    pub edits: usize,
    /// Inclusive `k` hull that was re-audited (outer bounds of
    /// `segments`), or `None` when the batch provably changed no top-`k`
    /// set in the configured range.
    pub recomputed: Option<(usize, usize)>,
    /// The disjoint ascending `k` segments actually replayed — the union
    /// of per-row net movement intervals, merged across gaps shorter
    /// than the checkpoint cadence (adjacent ones for a baseline monitor)
    /// and clamped to the configured range. Empty iff `recomputed` is
    /// `None`; the whole range for insertions.
    pub segments: Vec<(usize, usize)>,
    /// The `k` values whose result sets changed, with the group-level
    /// diff. Only non-empty deltas appear; `k` ascending.
    pub changed: Vec<KDelta>,
    /// Instrumentation of the re-audit (zero when nothing was recomputed).
    pub stats: SearchStats,
}

impl DeltaReport {
    /// Total `(k, group)` membership changes, both directions.
    pub fn total_changes(&self) -> usize {
        self.changed
            .iter()
            .map(|d| {
                d.entered_under.len()
                    + d.left_under.len()
                    + d.entered_over.len()
                    + d.left_over.len()
            })
            .sum()
    }
}

/// A point-in-time view of the monitor's persistent engine state: how
/// many checkpoints are live, what they cost in memory, and how well the
/// delta replays have been exploiting them. `None` from
/// [`MonitorAudit::checkpoint_stats`] means the monitor runs the baseline
/// engine, which keeps no state between `k` values to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Grid spacing `C`: one engine snapshot every `C` values of `k`.
    pub cadence: usize,
    /// Live lower-engine checkpoints.
    pub lower_checkpoints: usize,
    /// Live upper-engine checkpoints.
    pub upper_checkpoints: usize,
    /// Node *slots* held across every snapshot (each slot a `u32` count,
    /// an open flag and a `u32` membership word), substantial nodes only —
    /// the memory the speed/memory trade-off spends (smaller `C` ⇒
    /// shorter replays, more stored slots).
    pub stored_nodes: usize,
    /// Pattern nodes interned across both engines' persistent arenas,
    /// substantial nodes only (`s_D ≥ τs`; a pruned child is a slot in
    /// its parent's child row, not a node) — structure stored once, shared
    /// by every snapshot.
    pub arena_nodes: usize,
    /// Delta runs (per direction) that resumed from a checkpoint.
    pub seeks: u64,
    /// Runs that found no usable checkpoint and paid a from-scratch
    /// build (includes the initial audit).
    pub cold_builds: u64,
    /// Seek checkpoints repaired in place (±count walks over the top-`k`
    /// set diff + one store reclassify) because an edit had swallowed
    /// them — each repair is a from-scratch build avoided.
    pub repairs: u64,
    /// Every `k` position the replay drivers computed (cold builds,
    /// catch-up steps and requested `k`s alike) — the total replay work.
    pub replayed_steps: u64,
    /// Node activations served by the arena's stored `s_D` plus a
    /// truncated prefix-only recount, instead of a full fused scan.
    pub prefix_recounts: u64,
    /// Replay segments driven (per engine direction) — with segmented
    /// replay a sparse batch contributes its changed-`k` clusters only.
    pub segments: u64,
    /// Checkpoints dropped by insertions, which void the whole store,
    /// arena included. The stale checkpoints a reorder replay drops past
    /// each segment's start are not counted here.
    pub invalidated: u64,
}

/// Fluent construction of a [`MonitorAudit`].
pub struct MonitorBuilder {
    dataset: Dataset,
    score_column: String,
    ascending: bool,
    attrs: Option<Vec<String>>,
    checkpoint_every: usize,
}

impl MonitorBuilder {
    /// Ranks ascending (lower scores first) instead of the default
    /// descending.
    pub fn ascending(mut self, ascending: bool) -> Self {
        self.ascending = ascending;
        self
    }

    /// Sets the checkpoint cadence `C` (clamped to ≥ 1; default
    /// [`MonitorAudit::DEFAULT_CHECKPOINT_CADENCE`]): the optimized
    /// engines snapshot their search state every `C` values of `k`, so a
    /// delta re-audit replays at most `C − 1` extra `k` steps to reach
    /// its span — at the cost of `⌈k_max / C⌉` stored node stores.
    /// Smaller `C` = faster deltas, more memory.
    pub fn checkpoint_every(mut self, cadence: usize) -> Self {
        self.checkpoint_every = cadence.max(1);
        self
    }

    /// Restricts the pattern attributes to the named columns (default:
    /// every categorical column).
    pub fn attributes<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Builds the monitor and runs the initial full audit.
    pub fn build(
        self,
        cfg: DetectConfig,
        task: AuditTask,
        engine: Engine,
    ) -> Result<MonitorAudit, MonitorError> {
        let Some(score_col) = self.dataset.column_index(&self.score_column) else {
            return Err(MonitorError::ScoreColumn(self.score_column));
        };
        let Some(scores) = self.dataset.column(score_col).values() else {
            return Err(MonitorError::ScoreColumn(self.score_column));
        };
        let scored = if self.ascending {
            ScoredRanking::ascending(scores.to_vec())
        } else {
            ScoredRanking::new(scores.to_vec())
        }
        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
        let mut builder = Audit::builder(self.dataset).ranking(scored.to_ranking());
        if let Some(attrs) = self.attrs {
            builder = builder.attributes(attrs);
        }
        let audit = builder.build()?;
        if cfg.deadline.is_some() {
            return Err(MonitorError::DeadlineUnsupported);
        }
        audit.validate(&cfg, &task)?;
        // The optimized engines carry persistent, checkpointed state
        // between re-audits; the baseline rebuilds per k by design (it is
        // the differential anchor) and has nothing to checkpoint.
        let (out, checkpoints) = match engine {
            Engine::Optimized => {
                let mut ckpts = EngineCheckpoints::new(self.checkpoint_every);
                let out = audit.run_range_checkpointed(
                    &cfg,
                    &[(cfg.k_min, cfg.k_max)],
                    &task,
                    &mut ckpts,
                    None,
                );
                (out, Some(ckpts))
            }
            Engine::Baseline => (audit.run_range(&cfg, &task, engine), None),
        };
        Ok(MonitorAudit {
            audit,
            score_col,
            scored,
            cfg,
            task,
            checkpoints,
            results: out.per_k,
            stats: out.stats,
        })
    }
}

/// An audit kept up to date over an evolving ranking by delta re-audits.
/// See the module docs for the recomputation contract.
#[derive(Debug)]
pub struct MonitorAudit {
    /// The audit the monitor edits: its dataset, pattern space, counting
    /// index and a ranking that equals `scored`'s order after every batch.
    audit: Audit,
    score_col: usize,
    scored: ScoredRanking,
    cfg: DetectConfig,
    task: AuditTask,
    /// Persistent engine snapshots: `Some` exactly for optimized monitors.
    checkpoints: Option<EngineCheckpoints>,
    /// Current result sets for every `k` in `cfg`'s range, `k` ascending.
    results: Vec<AuditKResult>,
    /// Cumulative instrumentation: the initial build plus every re-audit.
    stats: SearchStats,
}

impl MonitorAudit {
    /// Starts a builder over `dataset`, ranking by `score_column`
    /// (numeric, descending by default).
    pub fn builder(dataset: Dataset, score_column: &str) -> MonitorBuilder {
        MonitorBuilder {
            dataset,
            score_column: score_column.to_string(),
            ascending: false,
            attrs: None,
            checkpoint_every: Self::DEFAULT_CHECKPOINT_CADENCE,
        }
    }

    /// Default checkpoint cadence `C` (see
    /// [`MonitorBuilder::checkpoint_every`]). Counts-only arena snapshots
    /// are cheap enough that a denser grid is affordable, but a finer
    /// default buys little: seek distance shrinks while per-replay grid
    /// maintenance (snapshot writes, repair-heal work) grows to match.
    pub const DEFAULT_CHECKPOINT_CADENCE: usize = 8;

    /// The evolving dataset (edits applied so far included).
    pub fn dataset(&self) -> &Dataset {
        self.audit.dataset()
    }

    /// The pattern space (fixed for the monitor's lifetime).
    pub fn space(&self) -> &PatternSpace {
        self.audit.space()
    }

    /// The current ranking: a handle on the ranking of the audit the
    /// monitor edits, which every batch that moves the order replaces
    /// with a snapshot of it (`O(1)`, no copy).
    pub fn ranking(&self) -> Ranking {
        self.audit.ranking().clone()
    }

    /// Rows currently ranked.
    pub fn n_rows(&self) -> usize {
        self.audit.dataset().n_rows()
    }

    /// The detection configuration the monitor audits under.
    pub fn config(&self) -> &DetectConfig {
        &self.cfg
    }

    /// The task the monitor audits.
    pub fn task(&self) -> &AuditTask {
        &self.task
    }

    /// Current per-`k` result sets, `k` ascending over the configured
    /// range.
    pub fn results(&self) -> &[AuditKResult] {
        &self.results
    }

    /// Cumulative instrumentation: initial build plus every delta
    /// re-audit.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// The persistent-engine-state picture: live checkpoints, their node
    /// footprint, and the seek/build/replay counters. `None` when the
    /// monitor runs [`Engine::Baseline`], which keeps no incremental
    /// state to checkpoint.
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.checkpoints.as_ref().map(|ck| {
            let (lower, upper) = ck.live();
            CheckpointStats {
                cadence: ck.cadence,
                lower_checkpoints: lower,
                upper_checkpoints: upper,
                stored_nodes: ck.stored_nodes(),
                arena_nodes: ck.arena_nodes(),
                seeks: ck.counters.seeks,
                cold_builds: ck.counters.cold_builds,
                repairs: ck.counters.repairs,
                replayed_steps: ck.counters.replayed_steps,
                prefix_recounts: ck.counters.prefix_recounts,
                segments: ck.counters.segments,
                invalidated: ck.invalidated,
            }
        })
    }

    /// Renders the current results as enriched per-`k` reports (the same
    /// shape [`Audit::report`] produces).
    ///
    /// [`Audit::report`]: crate::Audit::report
    pub fn reports(&self) -> Vec<KReport> {
        let audit = &self.audit;
        crate::report::summarize_audit(&self.results, audit.index(), audit.space(), &self.task)
    }

    /// Renders a pattern with attribute names and value labels.
    pub fn describe(&self, p: &Pattern) -> String {
        self.audit.describe(p)
    }

    /// Pre-validates a batch so a failure cannot leave the monitor
    /// half-updated. `n` tracks insertions earlier in the same batch.
    fn validate_edits(&self, edits: &[RankingEdit]) -> Result<(), MonitorError> {
        let (dataset, space) = (self.audit.dataset(), self.audit.space());
        let mut n = dataset.n_rows();
        // Row ids are dense: every insert of the batch must fit the
        // TupleId space *before* any edit is applied, or `insert` could
        // fail mid-batch and break atomicity.
        let inserts = edits
            .iter()
            .filter(|e| matches!(e, RankingEdit::Insert { .. }))
            .count();
        if !self.scored.can_insert(inserts) {
            return Err(MonitorError::BadEdit(format!(
                "batch of {inserts} inserts would overflow the TupleId row-id space"
            )));
        }
        // New labels earlier inserts in this batch will add per column:
        // `push_row` must not be able to fail on dictionary overflow
        // after part of the batch has been applied.
        let mut pending_labels: Vec<Vec<&str>> = vec![Vec::new(); dataset.n_cols()];
        for edit in edits {
            match edit {
                RankingEdit::ScoreUpdate { row, score } => {
                    if (*row as usize) >= n {
                        return Err(MonitorError::UnknownRow { row: *row, n });
                    }
                    if score.is_nan() {
                        return Err(MonitorError::BadEdit(format!(
                            "new score of row {row} is NaN"
                        )));
                    }
                }
                RankingEdit::Insert { cells } => {
                    if cells.len() != dataset.n_cols() {
                        return Err(MonitorError::BadEdit(format!(
                            "insert has {} cells but the dataset has {} columns",
                            cells.len(),
                            dataset.n_cols()
                        )));
                    }
                    for ((col, cell), pending) in dataset
                        .columns()
                        .iter()
                        .zip(cells)
                        .zip(pending_labels.iter_mut())
                    {
                        match (cell, col.is_categorical()) {
                            (RowValue::Label(label), true) => {
                                let is_new = col.code_of(label).is_none()
                                    && !pending.contains(&label.as_str());
                                if is_new {
                                    let card = col.cardinality().unwrap_or(0);
                                    // `>=` mirrors the data layer's cap,
                                    // which keeps every cardinality a
                                    // ValueCode.
                                    if card + pending.len() >= usize::from(u16::MAX) {
                                        return Err(MonitorError::BadEdit(format!(
                                            "column `{}` would exceed the dictionary space",
                                            col.name()
                                        )));
                                    }
                                    pending.push(label);
                                }
                            }
                            (RowValue::Number(_), false) => {}
                            _ => {
                                return Err(MonitorError::BadEdit(format!(
                                    "cell kind mismatch for column `{}`",
                                    col.name()
                                )))
                            }
                        }
                    }
                    match cells.get(self.score_col) {
                        Some(RowValue::Number(s)) if s.is_nan() => {
                            return Err(MonitorError::BadEdit("inserted score is NaN".into()))
                        }
                        Some(RowValue::Number(_)) => {}
                        // The kind check above already rejected a label
                        // here; cover it in-band all the same.
                        _ => {
                            return Err(MonitorError::BadEdit(
                                "insert score cell must be numeric".into(),
                            ))
                        }
                    }
                    // Pattern attributes have fixed cardinalities: a label
                    // outside the dictionary cannot be represented in the
                    // index.
                    for a in space.attr_ids() {
                        let col_idx = space.dataset_col(a);
                        let col = dataset.column(col_idx);
                        // Pattern columns are categorical by
                        // construction; reject in-band regardless.
                        let Some(RowValue::Label(label)) = cells.get(col_idx) else {
                            return Err(MonitorError::BadEdit(format!(
                                "cell for pattern column `{}` must be a label",
                                col.name()
                            )));
                        };
                        if col.code_of(label).is_none() {
                            return Err(MonitorError::UnknownLabel {
                                column: col.name().to_string(),
                                label: label.clone(),
                            });
                        }
                    }
                    n += 1;
                }
            }
        }
        Ok(())
    }

    /// Applies one batch of edits and re-audits the affected `k` span,
    /// returning the typed diff. On error the monitor is unchanged.
    pub fn apply(&mut self, edits: &[RankingEdit]) -> Result<DeltaReport, MonitorError> {
        self.validate_edits(edits)?;
        let has_insert = edits
            .iter()
            .any(|e| matches!(e, RankingEdit::Insert { .. }));
        let mut span: Option<(usize, usize)> = None;
        let merge = |d: Option<(usize, usize)>, span: &mut Option<(usize, usize)>| {
            if let Some((lo, hi)) = d {
                *span = Some(match *span {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        };
        let (dataset, space, index, ranking) = self.audit.edit();
        for edit in edits {
            match edit {
                RankingEdit::ScoreUpdate { row, score } => {
                    let d = self
                        .scored
                        .update_score(*row, *score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    dataset
                        .set_number(*row as usize, self.score_col, *score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    merge(d.changed, &mut span);
                }
                RankingEdit::Insert { cells } => {
                    let score = match cells.get(self.score_col) {
                        Some(RowValue::Number(s)) => *s,
                        _ => unreachable!("validate_edits proved this cell numeric"), // lint:allow(panic-path) -- earlier batch edits are already applied here; an in-band error would break apply's all-or-nothing contract, and validate_edits pre-proved the cell
                    };
                    dataset
                        .push_row(cells)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    let d = self
                        .scored
                        .insert(score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    index.grow(dataset, space);
                    merge(d.changed, &mut span);
                }
            }
        }
        // A pure reorder's moves: every row of the hull whose position
        // changed, its old position read off the audit's ranking before
        // the scored order replaces it. Both the changed-`k` segments and
        // the repair of a seek checkpoint a move crossed read this list.
        let gap = self.checkpoints.as_ref().map_or(1, |ck| ck.cadence);
        let horizon = self.cfg.k_max + gap;
        let reorder = span.filter(|_| !has_insert).and_then(|(lo, hi)| {
            let hull = self.scored.order().get(lo..=hi)?;
            Some(Reorder::new(hull, lo, |row| ranking.position(row), horizon))
        });
        // Patch the index over the hull of occupant-changed positions, and
        // keep the audit's ranking equal to the scored order.
        if let Some((lo, hi)) = span {
            index.rewrite_span(dataset, space, self.scored.order(), lo, hi);
            *ranking = self.scored.to_ranking();
        }
        // Checkpoint maintenance. An insertion moves `n` and the `s_D` of
        // every pattern the new tuple matches, so every snapshot (and the
        // arena's pruned slots) is stale: the store is voided, counted in
        // `invalidated`, and reseeded by the full-range recompute below.
        // A pure reorder voids nothing here: the replay repairs the seek
        // snapshot a move crossed (no reorder pays a fresh build) and
        // drops deeper stale ones, uncounted. A hull outside the ranking
        // cannot happen (it comes from the ranking's own deltas); it is
        // handled like an insert, never as a reorder without a repair.
        let full = has_insert || (span.is_some() && reorder.is_none());
        if full {
            if let Some(ckpts) = &mut self.checkpoints {
                ckpts.invalidate_all();
            }
        }
        // The k values whose top-k membership can have changed: the whole
        // range when the universe grew (n and s_D moved); else the union
        // of the moves' intervals, merged across gaps shorter than the
        // checkpoint cadence (1 for a baseline monitor).
        let segments: Vec<(usize, usize)> = match &reorder {
            _ if full => vec![(self.cfg.k_min, self.cfg.k_max)],
            Some(reorder) => reorder.segments(self.cfg.k_min, self.cfg.k_max, gap),
            None => Vec::new(),
        };
        // Every segment empty (or clamped away): no top-k set in the
        // configured range changed, nothing to recompute — checkpoints in
        // the hull's dead middle are exact by the same argument.
        let Some((&(k_lo, _), &(_, k_hi))) = segments.first().zip(segments.last()) else {
            return Ok(DeltaReport {
                edits: edits.len(),
                recomputed: None,
                segments: Vec::new(),
                changed: Vec::new(),
                stats: SearchStats::default(),
            });
        };
        // The delta path: seek into the persistent engine snapshots
        // (repairing a seek point this batch's edits swallowed) and
        // replay each segment, instead of paying a from-scratch engine
        // build at `k_lo`. A baseline monitor keeps no engine state and
        // re-runs `[k_lo, k_hi]` whole.
        let out = match &mut self.checkpoints {
            Some(ckpts) => self.audit.run_range_checkpointed(
                &self.cfg,
                &segments,
                &self.task,
                ckpts,
                reorder.as_ref(),
            ),
            None => {
                let sub = DetectConfig {
                    tau_s: self.cfg.tau_s,
                    k_min: k_lo,
                    k_max: k_hi,
                    deadline: None,
                };
                self.audit.run_range(&sub, &self.task, Engine::Baseline)
            }
        };
        // Re-audits run back to back with the initial build: their wall
        // clocks add (merge's max is for parallel workers).
        let elapsed_before = self.stats.elapsed;
        self.stats.merge(&out.stats);
        self.stats.elapsed = elapsed_before + out.stats.elapsed;
        let mut changed = Vec::new();
        for new in out.per_k {
            let slot = new.k - self.cfg.k_min;
            let old = std::mem::replace(&mut self.results[slot], new); // lint:allow(panic-path) -- run_range only produces k inside (k_lo, k_hi] ⊆ the configured grid `results` was built over
            let new = &self.results[slot]; // lint:allow(panic-path) -- same in-grid slot as the line above

            let (entered_under, left_under) = diff_sorted(&old.under, &new.under);
            let (entered_over, left_over) = diff_sorted(&old.over, &new.over);
            let delta = KDelta {
                k: new.k,
                entered_under,
                left_under,
                entered_over,
                left_over,
            };
            if !delta.is_empty() {
                changed.push(delta);
            }
        }
        Ok(DeltaReport {
            edits: edits.len(),
            recomputed: Some((k_lo, k_hi)),
            segments,
            changed,
            stats: out.stats,
        })
    }
}

/// `(in new but not old, in old but not new)` for canonically sorted
/// pattern lists.
fn diff_sorted(old: &[Pattern], new: &[Pattern]) -> (Vec<Pattern>, Vec<Pattern>) {
    let mut entered = Vec::new();
    let mut left = Vec::new();
    // Most replayed `k` keep their patterns: one equality pass, no merge.
    if old == new {
        return (entered, left);
    }
    let (mut i, mut j) = (0, 0);
    loop {
        match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => match o.cmp(n) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    left.push(o.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entered.push(n.clone());
                    j += 1;
                }
            },
            (Some(o), None) => {
                left.push(o.clone());
                i += 1;
            }
            (None, Some(n)) => {
                entered.push(n.clone());
                j += 1;
            }
            (None, None) => break,
        }
    }
    (entered, left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{BiasMeasure, Bounds};
    use crate::{Audit, OverRepScope};
    use rankfair_data::examples::students_fig1;
    use std::sync::Arc;

    fn grade_monitor(task: AuditTask) -> MonitorAudit {
        MonitorAudit::builder(students_fig1(), "Grade")
            .build(DetectConfig::new(2, 2, 16), task, Engine::Optimized)
            .unwrap()
    }

    /// A fresh audit's results over the monitor's current dataset.
    fn fresh_results(monitor: &MonitorAudit) -> Vec<AuditKResult> {
        let audit = Audit::builder(Arc::new(monitor.dataset().clone()))
            .ranking(monitor.ranking())
            .build()
            .unwrap();
        audit
            .run(monitor.config(), monitor.task(), Engine::Optimized)
            .unwrap()
            .per_k
    }

    /// A fresh audit over the monitor's current dataset must agree with
    /// the monitor's cached results exactly.
    fn assert_matches_fresh(monitor: &MonitorAudit) {
        assert_eq!(monitor.results(), &fresh_results(monitor)[..]);
    }

    /// The changes between two fresh audits' results, per `k`: the groups
    /// in one result set and not in the other, by membership test.
    fn fresh_deltas(before: &[AuditKResult], after: &[AuditKResult]) -> Vec<KDelta> {
        let minus = |a: &[Pattern], b: &[Pattern]| -> Vec<Pattern> {
            a.iter().filter(|p| !b.contains(p)).cloned().collect()
        };
        before
            .iter()
            .zip(after)
            .map(|(old, new)| KDelta {
                k: new.k,
                entered_under: minus(&new.under, &old.under),
                left_under: minus(&old.under, &new.under),
                entered_over: minus(&new.over, &old.over),
                left_over: minus(&old.over, &new.over),
            })
            .filter(|d| !d.is_empty())
            .collect()
    }

    #[test]
    fn initial_results_match_fresh_audit() {
        for task in [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.9 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ] {
            let monitor = grade_monitor(task);
            assert_matches_fresh(&monitor);
        }
    }

    #[test]
    fn score_update_recomputes_only_the_affected_span() {
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let mut monitor = grade_monitor(task);
        // Row 8 sits near the bottom of the fig1 ranking; a small nudge
        // that does not cross anyone yields no recompute at all.
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate {
                row: monitor.ranking().at(15),
                score: monitor.scored.score(monitor.ranking().at(15)) - 0.01,
            }])
            .unwrap();
        assert_eq!(d.recomputed, None);
        assert!(d.changed.is_empty());
        assert_matches_fresh(&monitor);
        // A big promotion recomputes a bounded span and changes results.
        let bottom = monitor.ranking().at(15);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate {
                row: bottom,
                score: 19.9,
            }])
            .unwrap();
        let (lo, hi) = d.recomputed.unwrap();
        assert!(lo >= 2 && hi <= 16, "span [{lo}, {hi}]");
        assert_matches_fresh(&monitor);
    }

    #[test]
    fn delta_report_lists_exactly_the_patterns_that_moved() {
        use rankfair_synth::{random_dataset, RandomSpec};
        let rows = 200;
        let spec = RandomSpec {
            rows,
            attrs: 4,
            max_card: 3,
        };
        let mut ds = random_dataset(7, spec);
        let scores: Vec<f64> = (0..rows).map(|r| ((r * 37) % rows) as f64).collect();
        ds.push_column(rankfair_data::Column::numeric("score", scores))
            .unwrap();
        let task = AuditTask::Combined {
            lower: Bounds::steps(vec![(10, 2), (30, 5)]),
            upper: Bounds::steps(vec![(10, 6), (30, 14)]),
        };
        let mut monitor = MonitorAudit::builder(ds, "score")
            .build(DetectConfig::new(8, 10, 40), task, Engine::Optimized)
            .unwrap();
        let minus = |a: &[Pattern], b: &[Pattern]| -> Vec<Pattern> {
            a.iter().filter(|p| !b.contains(p)).cloned().collect()
        };
        let (mut moved, mut kept) = (0, 0);
        // Swaps of neighbours and longer moves across the audited range.
        for (pos, to) in [(20, 21), (35, 12), (11, 10), (5, 45), (30, 31), (44, 2)] {
            let before = monitor.results().to_vec();
            let row = monitor.ranking().at(pos);
            let target = monitor.scored.score(monitor.ranking().at(to));
            let score = target + if to < pos { 0.5 } else { -0.5 };
            let d = monitor
                .apply(&[RankingEdit::ScoreUpdate { row, score }])
                .unwrap();
            let want: Vec<KDelta> = before
                .iter()
                .zip(monitor.results())
                .map(|(old, new)| KDelta {
                    k: new.k,
                    entered_under: minus(&new.under, &old.under),
                    left_under: minus(&old.under, &new.under),
                    entered_over: minus(&new.over, &old.over),
                    left_over: minus(&old.over, &new.over),
                })
                .filter(|kd| !kd.is_empty())
                .collect();
            assert_eq!(d.changed, want, "move {pos} -> {to}");
            assert_matches_fresh(&monitor);
            let replayed: usize = d.segments.iter().map(|&(lo, hi)| hi - lo + 1).sum();
            moved += want.len();
            kept += replayed - want.len();
        }
        // Both paths of the diff ran: replayed `k` whose patterns moved
        // and replayed `k` that kept them.
        assert!(moved > 0 && kept > 0, "moved {moved}, kept {kept}");
    }

    #[test]
    fn insert_recomputes_full_range_and_matches_fresh_audit() {
        use rankfair_data::RowValue;
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(3),
        };
        let mut monitor = grade_monitor(task);
        let d = monitor
            .apply(&[RankingEdit::Insert {
                cells: vec![
                    RowValue::Label("F".into()),
                    RowValue::Label("GP".into()),
                    RowValue::Label("U".into()),
                    RowValue::Label("0".into()),
                    RowValue::Number(12.5),
                ],
            }])
            .unwrap();
        assert_eq!(d.recomputed, Some((2, 16)));
        assert_eq!(monitor.n_rows(), 17);
        assert_matches_fresh(&monitor);
    }

    #[test]
    fn bad_edits_are_rejected_atomically() {
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let mut monitor = grade_monitor(task);
        let before = monitor.results().to_vec();
        let n_before = monitor.n_rows();
        // Second edit invalid: the valid first edit must not be applied.
        let err = monitor
            .apply(&[
                RankingEdit::ScoreUpdate { row: 0, score: 1.0 },
                RankingEdit::ScoreUpdate {
                    row: 99,
                    score: 1.0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, MonitorError::UnknownRow { row: 99, .. }));
        assert_eq!(monitor.results(), &before[..]);
        assert_eq!(monitor.n_rows(), n_before);
        // NaN scores, wrong arity, unknown labels.
        assert!(matches!(
            monitor
                .apply(&[RankingEdit::ScoreUpdate {
                    row: 0,
                    score: f64::NAN
                }])
                .unwrap_err(),
            MonitorError::BadEdit(_)
        ));
        assert!(matches!(
            monitor
                .apply(&[RankingEdit::Insert { cells: vec![] }])
                .unwrap_err(),
            MonitorError::BadEdit(_)
        ));
        use rankfair_data::RowValue;
        assert!(matches!(
            monitor
                .apply(&[RankingEdit::Insert {
                    cells: vec![
                        RowValue::Label("X".into()), // unknown Gender label
                        RowValue::Label("GP".into()),
                        RowValue::Label("U".into()),
                        RowValue::Label("0".into()),
                        RowValue::Number(1.0),
                    ],
                }])
                .unwrap_err(),
            MonitorError::UnknownLabel { .. }
        ));
        assert_eq!(monitor.results(), &before[..]);
    }

    #[test]
    fn builder_validates_score_column_and_task() {
        let err = MonitorAudit::builder(students_fig1(), "Nope")
            .build(
                DetectConfig::new(2, 2, 16),
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                Engine::Optimized,
            )
            .unwrap_err();
        assert!(matches!(err, MonitorError::ScoreColumn(_)));
        let err = MonitorAudit::builder(students_fig1(), "Gender")
            .build(
                DetectConfig::new(2, 2, 16),
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                Engine::Optimized,
            )
            .unwrap_err();
        assert!(matches!(err, MonitorError::ScoreColumn(_)));
        let err = MonitorAudit::builder(students_fig1(), "Grade")
            .build(
                DetectConfig::new(2, 2, 17),
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                Engine::Optimized,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            MonitorError::Audit(AuditError::InvalidKRange { .. })
        ));
        // A deadline would let the initial build truncate, leaving later
        // delta splices with missing k entries: rejected loudly.
        let err = MonitorAudit::builder(students_fig1(), "Grade")
            .build(
                DetectConfig::new(2, 2, 16).with_deadline(std::time::Duration::from_secs(1)),
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                Engine::Optimized,
            )
            .unwrap_err();
        assert!(matches!(err, MonitorError::DeadlineUnsupported));
    }

    #[test]
    fn checkpoints_seek_and_invalidate_across_edit_kinds() {
        use rankfair_data::RowValue;
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        for cadence in [1usize, 3, 8] {
            let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
                .checkpoint_every(cadence)
                .build(DetectConfig::new(2, 2, 16), task.clone(), Engine::Optimized)
                .unwrap();
            let initial = monitor.checkpoint_stats().expect("optimized keeps state");
            assert_eq!(initial.cadence, cadence);
            // Both directions built once from scratch and laid checkpoints
            // on the grid k = k_min, k_min+C, … up to k_max = 16.
            assert_eq!(initial.cold_builds, 2);
            assert_eq!(initial.seeks, 0);
            let per_dir = (16 - 2) / cadence + 1;
            assert_eq!(initial.lower_checkpoints, per_dir);
            assert_eq!(initial.upper_checkpoints, per_dir);
            assert!(initial.stored_nodes > 0);
            // The audit's ranking follows the score column after every batch.
            let assert_ranking_follows_scores = |monitor: &MonitorAudit| {
                let col = monitor.dataset().column_index("Grade").unwrap();
                let scores = monitor.dataset().column(col).values().unwrap();
                let want = Ranking::from_scores_desc(scores);
                assert_eq!(monitor.ranking().order(), want.order(), "cadence {cadence}");
            };
            assert_ranking_follows_scores(&monitor);
            // A mid-ranking swap: the delta seeks (repairing the seek
            // snapshot if the hull swallowed it) instead of rebuilding.
            let mid = monitor.ranking().at(9);
            let score = monitor.scored.score(monitor.ranking().at(5));
            let d = monitor
                .apply(&[RankingEdit::ScoreUpdate {
                    row: mid,
                    score: score + 0.01,
                }])
                .unwrap();
            assert!(d.recomputed.is_some());
            let after = monitor.checkpoint_stats().unwrap();
            assert_eq!(after.seeks, 2, "cadence {cadence}");
            assert_eq!(after.cold_builds, 2, "no fresh build on a reorder");
            assert_eq!(after.invalidated, 0, "only inserts count as invalidations");
            // The replay heals the grid near the span start and may prune
            // deep stale snapshots (bounded clone churn), but always keeps
            // a seekable store.
            assert!(after.lower_checkpoints >= 1 && after.lower_checkpoints <= per_dir);
            assert!(after.upper_checkpoints >= 1 && after.upper_checkpoints <= per_dir);
            assert_matches_fresh(&monitor);
            assert_ranking_follows_scores(&monitor);
            // A strike at the very top of the ranking swallows every
            // checkpoint at or below the hull end — the seek snapshot is
            // repaired in place, still without any fresh build.
            let top = monitor.ranking().at(0);
            monitor
                .apply(&[RankingEdit::ScoreUpdate {
                    row: top,
                    score: -5.0,
                }])
                .unwrap();
            let struck = monitor.checkpoint_stats().unwrap();
            assert_eq!(struck.cold_builds, 2, "cadence {cadence}");
            assert_eq!(
                struck.repairs,
                after.repairs + 2,
                "both directions repair their seek"
            );
            assert!(struck.lower_checkpoints >= 1);
            // The replay drops the deeper stale snapshots past the heal
            // cutoff, which `invalidated` does not count.
            if cadence == 1 {
                assert!(struck.lower_checkpoints < after.lower_checkpoints);
                assert!(struck.upper_checkpoints < after.upper_checkpoints);
            }
            assert_eq!(struck.invalidated, 0);
            assert_matches_fresh(&monitor);
            assert_ranking_follows_scores(&monitor);
            // An insertion moves n and s_D: every snapshot is dropped,
            // then the full-range recompute reseeds the grid.
            let before_insert = monitor.checkpoint_stats().unwrap();
            monitor
                .apply(&[RankingEdit::Insert {
                    cells: vec![
                        RowValue::Label("F".into()),
                        RowValue::Label("GP".into()),
                        RowValue::Label("U".into()),
                        RowValue::Label("0".into()),
                        RowValue::Number(12.5),
                    ],
                }])
                .unwrap();
            let after_insert = monitor.checkpoint_stats().unwrap();
            assert_eq!(
                after_insert.invalidated,
                before_insert.invalidated
                    + (before_insert.lower_checkpoints + before_insert.upper_checkpoints) as u64,
                "insert must drop every checkpoint"
            );
            assert_eq!(after_insert.cold_builds, 4, "insert rebuilds both sides");
            // The post-insert full-range rebuild relays the whole grid.
            assert_eq!(after_insert.lower_checkpoints, per_dir);
            assert_matches_fresh(&monitor);
            assert_ranking_follows_scores(&monitor);
        }
        // The baseline engine has no incremental state to checkpoint.
        let baseline = MonitorAudit::builder(students_fig1(), "Grade")
            .build(
                DetectConfig::new(2, 2, 8),
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                Engine::Baseline,
            )
            .unwrap();
        assert!(baseline.checkpoint_stats().is_none());
    }

    /// Satellite of the segmented-replay change: the `(lo + 1).max(k_min)`
    /// / `hi.min(k_max)` clamp math at the very edges of the configured
    /// `k` grid, for both the no-op and the exactly-one-`k` outcomes.
    #[test]
    fn span_clamp_boundaries_at_k_min_and_k_max() {
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        // A swap of rank positions 0↔1 only changes the top-1 set, below
        // k_min = 2: provably nothing to recompute.
        let mut monitor = grade_monitor(task.clone());
        let top1 = monitor.ranking().at(1);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate {
                row: top1,
                score: 20.5,
            }])
            .unwrap();
        assert_eq!(d.recomputed, None);
        assert!(d.segments.is_empty());
        assert_matches_fresh(&monitor);
        // Positions 1↔2 change exactly the top-2 set: k = k_min alone.
        let mut monitor = grade_monitor(task.clone());
        let row = monitor.ranking().at(2);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate { row, score: 19.5 }])
            .unwrap();
        assert_eq!(d.recomputed, Some((2, 2)));
        assert_eq!(d.segments, vec![(2, 2)]);
        assert_matches_fresh(&monitor);
        // Positions 14↔15 change exactly the top-15 set: k = 15 ≤ k_max.
        let mut monitor = grade_monitor(task.clone());
        let row = monitor.ranking().at(15);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate { row, score: 4.5 }])
            .unwrap();
        assert_eq!(d.recomputed, Some((15, 15)));
        assert_eq!(d.segments, vec![(15, 15)]);
        assert_matches_fresh(&monitor);
        // The same bottom swap under k_max = 14: the one changed k lies
        // past the range and the hi.min(k_max) clamp empties the span.
        let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
            .build(DetectConfig::new(2, 2, 14), task.clone(), Engine::Optimized)
            .unwrap();
        let row = monitor.ranking().at(15);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate { row, score: 4.5 }])
            .unwrap();
        assert_eq!(d.recomputed, None);
        assert!(d.segments.is_empty());
        assert_matches_fresh(&monitor);
        // And with k_max = 15 exactly, the clamp keeps the edge k.
        let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
            .build(DetectConfig::new(2, 2, 15), task, Engine::Optimized)
            .unwrap();
        let row = monitor.ranking().at(15);
        let d = monitor
            .apply(&[RankingEdit::ScoreUpdate { row, score: 4.5 }])
            .unwrap();
        assert_eq!(d.recomputed, Some((15, 15)));
        assert_eq!(d.segments, vec![(15, 15)]);
        assert_matches_fresh(&monitor);
    }

    /// A batch of two tight swaps far apart replays two one-`k` segments
    /// instead of the whole hull: the results and the changes that fresh
    /// audits before and after the batch give, in fewer replayed steps
    /// than the hull spans. A baseline monitor reports the same segments
    /// and changes: one delta rule for both engines.
    #[test]
    fn segmented_replay_skips_the_dead_middle() {
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        for engine in [Engine::Optimized, Engine::Baseline] {
            let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
                .checkpoint_every(1)
                .build(DetectConfig::new(2, 2, 16), task.clone(), engine)
                .unwrap();
            let before = fresh_results(&monitor);
            let steps0 = monitor.checkpoint_stats().map(|ck| ck.replayed_steps);
            // Swap rank positions 2↔3 and 12↔13 in one batch.
            let r_a = monitor.ranking().at(3);
            let r_b = monitor.ranking().at(13);
            let d = monitor
                .apply(&[
                    RankingEdit::ScoreUpdate {
                        row: r_a,
                        score: 15.5,
                    },
                    RankingEdit::ScoreUpdate {
                        row: r_b,
                        score: 6.5,
                    },
                ])
                .unwrap();
            let after = fresh_results(&monitor);
            assert_eq!(monitor.results(), &after[..], "{engine:?}");
            assert_eq!(d.recomputed, Some((3, 13)), "{engine:?}");
            assert_eq!(d.segments, vec![(3, 3), (13, 13)], "{engine:?}");
            assert_eq!(d.changed, fresh_deltas(&before, &after), "{engine:?}");
            if let Some(steps0) = steps0 {
                let steps = monitor.checkpoint_stats().unwrap().replayed_steps - steps0;
                assert!(
                    steps < 13 - 3,
                    "replayed {steps} k steps over the hull (3, 13)"
                );
            }
        }
    }

    #[test]
    fn reports_render_current_state() {
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let monitor = grade_monitor(task);
        let reports = monitor.reports();
        assert_eq!(reports.len(), 15);
        assert!(reports.iter().any(|r| !r.groups.is_empty()));
    }
}
