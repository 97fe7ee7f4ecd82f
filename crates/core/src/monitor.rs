//! Live ranking monitor: delta re-audits over an evolving ranking.
//!
//! The paper's algorithms audit a *frozen* ranking; a serving deployment
//! faces rankings that churn — scores get re-estimated, new tuples
//! arrive, the interesting `k` cutoffs move. Rebuilding an [`Audit`]
//! (pattern space + rank-ordered bitmap index) and re-running the whole
//! `k` range after every batch of edits throws away almost all of the
//! previous work: a small batch of score updates only reorders a narrow
//! band of rank positions, and the per-`k` result sets outside that band
//! are **provably unchanged**.
//!
//! [`MonitorAudit`] exploits exactly that. It owns an evolving
//! [`Dataset`], a [`ScoredRanking`] (the updatable ranking layer), the
//! fixed [`PatternSpace`] and a [`RankedIndex`] it patches in place, plus
//! the current per-`k` results. One [`MonitorAudit::apply`] call takes a
//! batch of [`RankingEdit`]s and:
//!
//! 1. applies each edit to the dataset and the ranking, accumulating the
//!    hull `[lo, hi]` of rank positions whose occupant changed;
//! 2. patches the bitmap index over that span only
//!    ([`RankedIndex::rewrite_span`] — `O(span·m)` bit flips, no
//!    rebuild);
//! 3. re-runs the audit task over exactly the `k` values whose top-`k`
//!    membership changed. The hull `[lo+1, hi]` bounds them (for
//!    `k ≤ lo` the top-`k` prefix is untouched, and for `k > hi` it
//!    contains the whole reordered span, i.e. the same *set* of tuples —
//!    every count `s_Rk`, every bound `L_k`/`U_k`, `s_D` and `n` are
//!    therefore unchanged), but the hull over-recomputes: the true
//!    changed-`k` set is the **union of per-row net movement intervals**
//!    — a row that moved from position `op` to `p` changes top-`k`
//!    membership for `k ∈ [min(op,p)+1, max(op,p)]` only. The monitor
//!    computes that union, merges segments closer than the checkpoint
//!    cadence (a seek would replay the gap anyway), and replays only the
//!    surviving segments — a batch of two tight edit clusters far apart
//!    no longer re-audits the dead middle. The re-run drives the same
//!    incremental engines (`engine.rs` / `upper_engine.rs`) through the
//!    same [`crate::audit::AuditParts`] execution core as a fresh
//!    [`Audit::run`], so a delta re-audit cannot drift from a full one;
//! 4. splices the recomputed `k` results over the cached ones and diffs
//!    old vs new into a typed [`DeltaReport`] — which groups entered and
//!    left the biased set, per `k` and per direction.
//!
//! # Persistent engine state
//!
//! With [`Engine::Optimized`] the monitor keeps the engines' search
//! state **across** edit batches. The pattern-tree *structure* (interned
//! patterns, parent/child links, `s_D`, pruned verdicts) is `k`- and
//! bound-independent, so each engine interns it once in a flat
//! index-addressed **arena** that persists for the monitor's lifetime;
//! every `C` values of `k` ([`MonitorBuilder::checkpoint_every`]) the
//! engine snapshots only its *run state* — per-node counts, frontier
//! bits and result sets, a few flat-vector memcpys — never the arena.
//! Step 3 then *seeks* to the checkpoint at or below each recompute
//! segment and replays forward with per-`k` subtree walks, re-activating
//! stored arena nodes with prefix-only recounts (the stored `s_D` makes
//! the full fused scan redundant), instead of paying the from-scratch
//! top-down build at the segment's first `k` that used to dominate delta
//! cost. A checkpoint is exact after a reorder whenever no moved row's
//! net movement interval covers its `k` (stored counts are functions of
//! the top-`k` *set* alone); a seek checkpoint an edit did swallow is
//! **repaired in place** from the old-vs-new top-`k` set diff — ±count
//! walks for the tuples that crossed, plus one store reclassify — so no
//! pure reorder ever triggers a fresh engine build. (One carve out: a
//! *decreasing* lower step bound still rebuilds at its step during
//! replay, exactly as Algorithm 2 does — the store-rescan shortcut only
//! covers increases.)
//! [`MonitorAudit::checkpoint_stats`] exposes the live-checkpoint,
//! arena/memory and seek/repair/segment counters (also on the wire
//! `snapshot` op).
//!
//! Insertions grow the universe (`n`, and `s_D` of every pattern the new
//! tuple matches), which can flip substantiality, the proportional
//! bound and every stored checkpoint count at *any* `k`; a batch
//! containing an insertion therefore voids the checkpoint store and
//! recomputes the full `k` range (reseeding the checkpoint grid) —
//! still against the patched index, so the `O(n·m)` index rebuild is
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

use crate::audit::{
    validate_task, AuditError, AuditKResult, AuditParts, AuditTask, Engine, EngineCheckpoints,
};
use crate::incremental::ReorderSpec;
use crate::pattern::Pattern;
use crate::report::KReport;
use crate::space::{PatternSpace, RankedIndex};
use crate::stats::{DetectConfig, SearchStats};
use crate::util::FxHashMap;
use crate::AuditOutcome;

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
    /// than the checkpoint cadence and clamped to the configured range.
    /// Empty iff `recomputed` is `None`; a single hull-wide segment for
    /// insertions (and in hull-replay mode).
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
    /// Node *slots* held across every snapshot (each slot one `u32`
    /// count plus frontier bits) — the memory the speed/memory trade-off
    /// spends (smaller `C` ⇒ shorter replays, more stored slots).
    pub stored_nodes: usize,
    /// Pattern nodes interned across both engines' persistent arenas —
    /// structure stored once, shared by every snapshot.
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
    /// Checkpoints dropped by edit invalidation (everything, arena
    /// included, on insertions; reorders repair instead).
    pub invalidated: u64,
}

/// Fluent construction of a [`MonitorAudit`].
pub struct MonitorBuilder {
    dataset: Dataset,
    score_column: String,
    ascending: bool,
    attrs: Option<Vec<String>>,
    checkpoint_every: usize,
    segmented: bool,
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

    /// Toggles segmented replay (default `true`): delta re-audits replay
    /// only the union of per-row net movement intervals instead of the
    /// whole edit hull `[lo+1, hi]`. `false` restores hull replay — the
    /// differential sweeps compare both modes against a fresh audit.
    pub fn segmented_replay(mut self, segmented: bool) -> Self {
        self.segmented = segmented;
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
        let space = match &self.attrs {
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                PatternSpace::from_column_names(&self.dataset, &refs)
            }
            None => PatternSpace::from_dataset(&self.dataset),
        }
        .map_err(AuditError::Space)?;
        if cfg.deadline.is_some() {
            return Err(MonitorError::DeadlineUnsupported);
        }
        validate_task(&cfg, &task, self.dataset.n_rows())?;
        let ranking = scored.to_ranking();
        let index = RankedIndex::build(&self.dataset, &space, &ranking);
        let parts = AuditParts {
            dataset: &self.dataset,
            space: &space,
            ranking: &ranking,
            index: &index,
        };
        // The optimized engines carry persistent, checkpointed state
        // between re-audits; the baseline rebuilds per k by design (it is
        // the differential anchor) and has nothing to checkpoint.
        let (out, checkpoints) = match engine {
            Engine::Optimized => {
                let mut ckpts = EngineCheckpoints::new(self.checkpoint_every);
                let out = parts.run_range_checkpointed(
                    &cfg,
                    &[(cfg.k_min, cfg.k_max)],
                    &task,
                    &mut ckpts,
                    None,
                );
                (out, Some(ckpts))
            }
            Engine::Baseline => (parts.run_range(&cfg, &task, engine), None),
        };
        Ok(MonitorAudit {
            dataset: self.dataset,
            space,
            score_col,
            scored,
            index,
            cfg,
            task,
            engine,
            checkpoints,
            segmented: self.segmented,
            results: out.per_k,
            stats: out.stats,
        })
    }
}

/// An audit kept up to date over an evolving ranking by delta re-audits.
/// See the module docs for the recomputation contract.
#[derive(Debug)]
pub struct MonitorAudit {
    dataset: Dataset,
    space: PatternSpace,
    score_col: usize,
    scored: ScoredRanking,
    index: RankedIndex,
    cfg: DetectConfig,
    task: AuditTask,
    engine: Engine,
    /// Persistent engine snapshots (`Some` iff `engine` is optimized).
    checkpoints: Option<EngineCheckpoints>,
    /// Replay the exact changed-`k` segments (default) vs the edit hull.
    segmented: bool,
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
            segmented: true,
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
        &self.dataset
    }

    /// The pattern space (fixed for the monitor's lifetime).
    pub fn space(&self) -> &PatternSpace {
        &self.space
    }

    /// The current ranking as a frozen snapshot (`O(n)`).
    pub fn ranking(&self) -> Ranking {
        self.scored.to_ranking()
    }

    /// Rows currently ranked.
    pub fn n_rows(&self) -> usize {
        self.dataset.n_rows()
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
        let out = AuditOutcome {
            per_k: self.results.clone(),
            stats: self.stats.clone(),
        };
        crate::report::summarize_audit(&out, &self.index, &self.space, &self.task)
    }

    /// Renders a pattern with attribute names and value labels.
    pub fn describe(&self, p: &Pattern) -> String {
        self.space.display(p)
    }

    /// Pre-validates a batch so a failure cannot leave the monitor
    /// half-updated. `n` tracks insertions earlier in the same batch.
    fn validate_edits(&self, edits: &[RankingEdit]) -> Result<(), MonitorError> {
        let mut n = self.dataset.n_rows();
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
        let mut pending_labels: Vec<Vec<&str>> = vec![Vec::new(); self.dataset.n_cols()];
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
                    if cells.len() != self.dataset.n_cols() {
                        return Err(MonitorError::BadEdit(format!(
                            "insert has {} cells but the dataset has {} columns",
                            cells.len(),
                            self.dataset.n_cols()
                        )));
                    }
                    for ((col, cell), pending) in self
                        .dataset
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
                                    // which reserves ValueCode::MAX.
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
                    for a in self.space.attr_ids() {
                        let col_idx = self.space.dataset_col(a);
                        let col = self.dataset.column(col_idx);
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
        // The pre-batch order: a pure reorder's seek checkpoint may need
        // repairing from the old-vs-new top-k set diff. Batches with an
        // insert never repair (the whole store is invalidated), so skip
        // the O(n) copy for them.
        let has_insert = edits
            .iter()
            .any(|e| matches!(e, RankingEdit::Insert { .. }));
        let old_order =
            (self.checkpoints.is_some() && !has_insert).then(|| self.scored.order().to_vec());
        let mut span: Option<(usize, usize)> = None;
        let merge = |d: Option<(usize, usize)>, span: &mut Option<(usize, usize)>| {
            if let Some((lo, hi)) = d {
                *span = Some(match *span {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
        };
        let mut inserted = false;
        for edit in edits {
            match edit {
                RankingEdit::ScoreUpdate { row, score } => {
                    let d = self
                        .scored
                        .update_score(*row, *score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    self.dataset
                        .set_number(*row as usize, self.score_col, *score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    merge(d.changed, &mut span);
                }
                RankingEdit::Insert { cells } => {
                    let score = match cells.get(self.score_col) {
                        Some(RowValue::Number(s)) => *s,
                        _ => unreachable!("validate_edits proved this cell numeric"), // lint:allow(panic-path) -- earlier batch edits are already applied here; an in-band error would break apply's all-or-nothing contract, and validate_edits pre-proved the cell
                    };
                    self.dataset
                        .push_row(cells)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    let d = self
                        .scored
                        .insert(score)
                        .map_err(|e| MonitorError::BadEdit(e.to_string()))?;
                    self.index.grow();
                    inserted = true;
                    merge(d.changed, &mut span);
                }
            }
        }
        // Patch the index over the hull of occupant-changed positions.
        if let Some((lo, hi)) = span {
            self.index
                .rewrite_span(&self.dataset, &self.space, self.scored.order(), lo, hi);
        }
        // Checkpoint maintenance. An insertion moves `n` and the `s_D`
        // of every pattern the new tuple matches — every snapshot's
        // counts (and pruned flags) are stale, so the store is voided
        // and reseeded by the full-range recompute below. A pure reorder
        // of positions `[lo, hi]` only changes the top-k *sets* for
        // `k ∈ (lo, hi]`: snapshots at `k ≤ lo` and `k > hi` stay exact;
        // of the stale ones, the replay rewrites every grid k inside the
        // recomputed span and *repairs* the single seek checkpoint that
        // can sit in the gap `(lo, k_min)` — so no snapshot is ever
        // discarded on a reorder, and no reorder ever pays a fresh
        // build. (Gap proof: grid ks are ≥ k_min and the seek k is the
        // largest grid k ≤ max(lo + 1, k_min), so every other stale grid
        // k lies inside the recomputed span.)
        if inserted {
            if let Some(ckpts) = &mut self.checkpoints {
                ckpts.invalidate_all();
            }
        }
        // The k values whose top-k membership can have changed: the whole
        // range when the universe grew (n and s_D moved); else the union
        // of per-row net movement intervals — exact, and a subset of the
        // hull (lo, hi] that hull replay recomputes wholesale.
        let segments: Vec<(usize, usize)> = if inserted {
            vec![(self.cfg.k_min, self.cfg.k_max)]
        } else if let Some((lo, hi)) = span {
            let gap = self.checkpoints.as_ref().map_or(1, |ck| ck.cadence);
            match &old_order {
                Some(old) if self.segmented => changed_k_segments(
                    old,
                    self.scored.order(),
                    lo,
                    hi,
                    self.cfg.k_min,
                    self.cfg.k_max,
                    gap,
                ),
                _ => {
                    let k_lo = (lo + 1).max(self.cfg.k_min);
                    let k_hi = hi.min(self.cfg.k_max);
                    if k_lo <= k_hi {
                        vec![(k_lo, k_hi)]
                    } else {
                        Vec::new()
                    }
                }
            }
        } else {
            Vec::new()
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
        let ranking = self.scored.to_ranking();
        let parts = AuditParts {
            dataset: &self.dataset,
            space: &self.space,
            ranking: &ranking,
            index: &self.index,
        };
        // The delta path: seek into the persistent engine snapshots
        // (repairing a seek point this batch's edits swallowed) and
        // replay each segment, instead of paying a from-scratch engine
        // build at `k_lo`. Baseline monitors re-run the hull the old way
        // (their segments are always the single clamped hull — the
        // segmented union needs the pre-batch order, which only
        // checkpointed monitors retain).
        let reorder = if inserted {
            None
        } else {
            old_order
                .zip(span)
                .map(|(old_order, (lo, _))| ReorderSpec { lo, old_order })
        };
        let out = match &mut self.checkpoints {
            Some(ckpts) => parts.run_range_checkpointed(
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
                parts.run_range(&sub, &self.task, self.engine)
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

/// The exact changed-`k` set of a pure reorder, as disjoint ascending
/// inclusive segments. A row that moved from old position `op` to new
/// position `p` (0-based ranks) changes top-`k` membership exactly for
/// `k ∈ [min(op,p)+1, max(op,p)]`; the changed-`k` set is the union of
/// those intervals over every moved row in the hull `[lo, hi]`. Segments
/// separated by less than `gap` (the checkpoint cadence) are merged — a
/// separate seek would replay the gap anyway — and the result is clamped
/// to `[k_min, k_max]`. The union's outer bounds equal the hull's
/// `[lo+1, hi]`, so hull replay is the one-segment special case.
fn changed_k_segments(
    old_order: &[TupleId],
    new_order: &[TupleId],
    lo: usize,
    hi: usize,
    k_min: usize,
    k_max: usize,
    gap: usize,
) -> Vec<(usize, usize)> {
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    match (old_order.get(lo..=hi), new_order.get(lo..=hi)) {
        (Some(old_hull), Some(new_hull)) => {
            let mut old_pos = FxHashMap::default();
            for (i, &row) in old_hull.iter().enumerate() {
                old_pos.insert(row, lo + i);
            }
            for (i, &row) in new_hull.iter().enumerate() {
                let p = lo + i;
                match old_pos.get(&row) {
                    // A pure reorder permutes the hull's own occupants; an
                    // unknown row means the caller's hull is unsound — fall
                    // back to full-hull replay rather than under-recompute.
                    None => {
                        debug_assert!(false, "row {row} entered the reorder hull");
                        intervals = vec![(lo + 1, hi)];
                        break;
                    }
                    Some(&op) if op != p => intervals.push((op.min(p) + 1, op.max(p))),
                    Some(_) => {}
                }
            }
        }
        // A hull outside the ranking is a caller bug; replay it whole
        // (clamped below) rather than panic or under-recompute.
        _ => {
            debug_assert!(false, "reorder hull [{lo}, {hi}] outside the ranking");
            intervals.push((lo + 1, hi));
        }
    }
    intervals.sort_unstable();
    let mut segments: Vec<(usize, usize)> = Vec::new();
    for (s, e) in intervals {
        match segments.last_mut() {
            Some(last) if s <= last.1 + gap => last.1 = last.1.max(e),
            _ => segments.push((s, e)),
        }
    }
    segments
        .into_iter()
        .filter_map(|(s, e)| {
            let s = s.max(k_min);
            let e = e.min(k_max);
            (s <= e).then_some((s, e))
        })
        .collect()
}

/// `(in new but not old, in old but not new)` for canonically sorted
/// pattern lists.
fn diff_sorted(old: &[Pattern], new: &[Pattern]) -> (Vec<Pattern>, Vec<Pattern>) {
    let mut entered = Vec::new();
    let mut left = Vec::new();
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

    /// A fresh audit over the monitor's current dataset must agree with
    /// the monitor's cached results exactly.
    fn assert_matches_fresh(monitor: &MonitorAudit) {
        let audit = Audit::builder(Arc::new(monitor.dataset().clone()))
            .ranking(monitor.ranking())
            .build()
            .unwrap();
        let fresh = audit
            .run(monitor.config(), monitor.task(), Engine::Optimized)
            .unwrap();
        assert_eq!(monitor.results(), &fresh.per_k[..]);
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
            assert_eq!(after.invalidated, 0, "reorders repair, never discard");
            // The replay heals the grid near the span start and may prune
            // deep stale snapshots (bounded clone churn), but always keeps
            // a seekable store.
            assert!(after.lower_checkpoints >= 1 && after.lower_checkpoints <= per_dir);
            assert!(after.upper_checkpoints >= 1 && after.upper_checkpoints <= per_dir);
            assert_matches_fresh(&monitor);
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
            assert_matches_fresh(&monitor);
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
    /// instead of the whole hull — same results, strictly less work.
    #[test]
    fn segmented_replay_skips_the_dead_middle() {
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        let run = |segmented: bool| {
            let mut monitor = MonitorAudit::builder(students_fig1(), "Grade")
                .checkpoint_every(1)
                .segmented_replay(segmented)
                .build(DetectConfig::new(2, 2, 16), task.clone(), Engine::Optimized)
                .unwrap();
            let steps0 = monitor.checkpoint_stats().unwrap().replayed_steps;
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
            assert_matches_fresh(&monitor);
            let stats = monitor.checkpoint_stats().unwrap();
            (d, stats.replayed_steps - steps0)
        };
        let (seg, seg_steps) = run(true);
        let (hull, hull_steps) = run(false);
        assert_eq!(seg.recomputed, Some((3, 13)));
        assert_eq!(hull.recomputed, Some((3, 13)));
        assert_eq!(seg.segments, vec![(3, 3), (13, 13)]);
        assert_eq!(hull.segments, vec![(3, 13)]);
        assert_eq!(seg.changed, hull.changed);
        assert!(
            seg_steps < hull_steps,
            "segmented replayed {seg_steps} k steps vs hull {hull_steps}"
        );
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
