//! The serving layer: long-lived datasets, cached audits, typed
//! request/response queries.
//!
//! The paper frames detection as a *query* a decision-maker issues against
//! a ranked dataset — "which groups are under- or over-represented in the
//! top-`k`?" — and real deployments answer many such queries against the
//! same datasets, not one process invocation per question. [`AuditService`]
//! is the piece PR 1 built the owned, `Send + Sync` [`Audit`] for:
//!
//! * a **dataset registry**: named datasets, registered in-memory or
//!   loaded from CSV, shared behind `Arc` across every audit built on
//!   them ([`AuditService::register_dataset`] /
//!   [`AuditService::register_csv`]);
//! * an **audit cache**: built [`Audit`] instances (pattern space + ranked
//!   bitmap index) keyed by [`AuditKey`] — dataset, attribute selection,
//!   bucketization, ranking spec — behind an `RwLock`, so repeated queries
//!   skip space/index construction entirely and concurrent callers share
//!   one immutable index ([`CacheInfo::hit`] reports which path a
//!   response took);
//! * a **typed query interface**: [`AuditRequest`] → [`AuditResponse`]
//!   ([`AuditService::handle`]), taking `&self` and safe to call from any
//!   number of threads;
//! * a **JSONL wire protocol** ([`wire`]) and a worker-pool line server
//!   ([`serve::serve`]) that make the whole thing scriptable as a
//!   long-lived process (`rankfair serve`).
//!
//! ```
//! use std::sync::Arc;
//! use rankfair_core::{AuditTask, BiasMeasure, Bounds, DetectConfig, Engine};
//! use rankfair_service::{AuditRequest, AuditService, RankingSpec};
//!
//! let service = AuditService::new();
//! service.register_dataset("fig1", Arc::new(rankfair_data::examples::students_fig1()));
//! let request = AuditRequest {
//!     dataset: "fig1".into(),
//!     attributes: None,
//!     bucketize: Vec::new(),
//!     ranking: RankingSpec::Order(rankfair_data::examples::fig1_rank_order()),
//!     task: AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
//!     config: DetectConfig::new(4, 4, 5),
//!     engine: Engine::Optimized,
//! };
//! let cold = service.handle(&request).unwrap();
//! assert!(!cold.cache.hit);
//! let warm = service.handle(&request).unwrap();
//! assert!(warm.cache.hit); // same key: index construction skipped
//! assert_eq!(cold.reports.len(), warm.reports.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use rankfair_core::{
    Audit, AuditError, AuditOutcome, AuditTask, CheckpointStats, DeltaReport, DetectConfig, Engine,
    KReport, MonitorAudit, MonitorError, PatternSpace, RankingEdit,
};
use rankfair_data::csv::{read_csv, CsvOptions};
use rankfair_data::Dataset;
use rankfair_rank::{AttributeRanker, Ranker, Ranking, SortKey};

pub mod net;
pub mod serve;
mod session;
pub mod wire;

/// How a request wants the dataset ranked. Part of the cache key: two
/// requests with the same dataset, attributes, bucketization and ranking
/// spec share one cached [`Audit`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RankingSpec {
    /// Rank by one column of the (raw, un-bucketized) dataset.
    ByColumn {
        /// The column to sort on.
        column: String,
        /// Ascending instead of the default descending.
        ascending: bool,
    },
    /// A precomputed ranking: tuple ids, best first.
    Order(Vec<u32>),
}

impl RankingSpec {
    fn describe(&self) -> String {
        match self {
            RankingSpec::ByColumn { column, ascending } => {
                format!("by:{column}:{}", if *ascending { "asc" } else { "desc" })
            }
            RankingSpec::Order(ids) => {
                // The display key must distinguish different orderings of
                // the same length — clients correlate responses by it.
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                ids.hash(&mut h);
                format!("order:{}ids:{:016x}", ids.len(), h.finish())
            }
        }
    }
}

/// One typed query against a registered dataset.
#[derive(Debug, Clone)]
pub struct AuditRequest {
    /// Name of a registered dataset.
    pub dataset: String,
    /// Pattern attributes (default: every categorical column).
    pub attributes: Option<Vec<String>>,
    /// `(column, bins)` bucketization applied before detection.
    pub bucketize: Vec<(String, usize)>,
    /// How to rank the dataset.
    pub ranking: RankingSpec,
    /// What to detect.
    pub task: AuditTask,
    /// τs, the `k` range, and the optional deadline.
    pub config: DetectConfig,
    /// Optimized or baseline engine.
    pub engine: Engine,
}

impl AuditRequest {
    /// The cache key this request maps to — everything that determines the
    /// built [`Audit`], and nothing that doesn't (task, config and engine
    /// only affect the *run*, so they deliberately stay out).
    ///
    /// The shard count is a property of the *registered dataset*, not the
    /// request, so it is keyed as `1` here; [`AuditService::handle`]
    /// substitutes the registry's value before touching the cache.
    pub fn cache_key(&self) -> AuditKey {
        AuditKey {
            dataset: self.dataset.clone(),
            attributes: self.attributes.clone(),
            bucketize: self.bucketize.clone(),
            ranking: self.ranking.clone(),
            shards: 1,
        }
    }
}

/// The audit-cache key: (dataset id, attribute selection, bucketization,
/// ranking spec, shard count).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AuditKey {
    /// Registered dataset name.
    pub dataset: String,
    /// Attribute restriction, if any.
    pub attributes: Option<Vec<String>>,
    /// Bucketization steps, in application order.
    pub bucketize: Vec<(String, usize)>,
    /// Ranking specification.
    pub ranking: RankingSpec,
    /// Shard count the audit's index was built with. Part of the key so
    /// re-registering a dataset with a different shard spec can never
    /// serve an audit whose index layout no longer matches.
    pub shards: usize,
}

impl fmt::Display for AuditKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|rank={}", self.dataset, self.ranking.describe())?;
        if let Some(attrs) = &self.attributes {
            write!(f, "|attrs={}", attrs.join(","))?;
        }
        if !self.bucketize.is_empty() {
            let spec: Vec<String> = self
                .bucketize
                .iter()
                .map(|(c, b)| format!("{c}:{b}"))
                .collect();
            write!(f, "|bucketize={}", spec.join(","))?;
        }
        if self.shards > 1 {
            write!(f, "|shards={}", self.shards)?;
        }
        Ok(())
    }
}

/// How a response was produced: from a freshly built audit or from the
/// cache. (Deliberately no global cache-size snapshot here — under
/// concurrency that would capture racy state of *other* requests; use
/// [`AuditService::cache_len`] for diagnostics.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheInfo {
    /// `true` iff the audit (pattern space + ranked index) came from the
    /// cache and no construction work was done for this request.
    pub hit: bool,
    /// Display form of the [`AuditKey`] the request mapped to.
    pub key: String,
}

/// The answer to an [`AuditRequest`].
#[derive(Debug, Clone)]
pub struct AuditResponse {
    /// The dataset queried.
    pub dataset: String,
    /// Raw per-`k` outcome (pattern-level, what `Audit::run` returned).
    pub outcome: AuditOutcome,
    /// Enriched per-`k` reports, both directions, sorted by bias gap.
    pub reports: Vec<KReport>,
    /// Wall-clock time spent handling the request, milliseconds.
    pub wall_ms: f64,
    /// Whether the audit came from the cache.
    pub cache: CacheInfo,
    /// The audit that answered (shared with the cache); gives access to
    /// the pattern space for serialization and follow-up queries.
    pub audit: Arc<Audit>,
}

/// Typed error of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request names a dataset that was never registered.
    UnknownDataset(String),
    /// The request names a monitor that was never registered.
    UnknownMonitor(String),
    /// A dataset registration failed (CSV read/parse error).
    Csv(String),
    /// The request is malformed at the wire or semantic level (bad JSON
    /// shape, unknown ranking column, invalid `k` range spec, …).
    BadRequest(String),
    /// Audit construction or execution failed.
    Audit(AuditError),
    /// Monitor construction or an edit batch failed.
    Monitor(MonitorError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDataset(name) => {
                write!(f, "unknown dataset `{name}` (register it first)")
            }
            ServiceError::UnknownMonitor(name) => {
                write!(f, "unknown monitor `{name}` (register_monitor it first)")
            }
            ServiceError::Csv(e) => write!(f, "loading dataset: {e}"),
            ServiceError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServiceError::Audit(e) => write!(f, "audit: {e}"),
            ServiceError::Monitor(e) => write!(f, "monitor: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<AuditError> for ServiceError {
    fn from(e: AuditError) -> Self {
        ServiceError::Audit(e)
    }
}

impl From<MonitorError> for ServiceError {
    fn from(e: MonitorError) -> Self {
        ServiceError::Monitor(e)
    }
}

/// How to build a [`MonitorAudit`] over a registered dataset.
///
/// Monitors rank by a numeric column of the dataset (the updatable
/// ranking layer needs scores it can edit); bucketization is deliberately
/// unsupported — bin edges fixed at build time would silently misplace
/// later insertions.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Registered dataset the monitor snapshots at registration time.
    pub dataset: String,
    /// Numeric column supplying the scores.
    pub rank_by: String,
    /// Rank ascending instead of the default descending.
    pub ascending: bool,
    /// Pattern attributes (default: every categorical column).
    pub attributes: Option<Vec<String>>,
    /// What to detect after every edit batch.
    pub task: AuditTask,
    /// τs and the `k` range audited on every update.
    pub config: DetectConfig,
    /// Optimized or baseline engine.
    pub engine: Engine,
    /// Checkpoint cadence `C` for the optimized engines' persistent
    /// state (positive; ignored by baseline monitors, which keep none).
    /// The wire layer defaults it to
    /// [`MonitorAudit::DEFAULT_CHECKPOINT_CADENCE`] and echoes the
    /// effective value as `checkpoints.cadence` in `snapshot`.
    pub checkpoint_every: usize,
}

/// A point-in-time view of a monitor, rendered for the wire.
#[derive(Debug, Clone)]
pub struct MonitorView {
    /// The dataset name the monitor was registered over.
    pub dataset: String,
    /// Rows currently ranked (edits included).
    pub rows: usize,
    /// Enriched per-`k` reports of the current result sets.
    pub reports: Vec<KReport>,
    /// The monitor's pattern space (needed to render patterns).
    pub space: PatternSpace,
    /// Persistent-engine-state stats (live checkpoints, seek/build
    /// counters); `None` for baseline-engine monitors, which keep no
    /// incremental state.
    pub checkpoints: Option<CheckpointStats>,
}

/// What a monitor update did, plus everything needed to render it.
#[derive(Debug, Clone)]
pub struct MonitorUpdate {
    /// The dataset name the monitor tracks.
    pub dataset: String,
    /// Rows ranked after the batch.
    pub rows: usize,
    /// The typed diff the batch produced.
    pub delta: DeltaReport,
    /// The monitor's pattern space (needed to render the delta).
    pub space: PatternSpace,
}

struct DatasetEntry {
    dataset: Arc<Dataset>,
    source: String,
    /// Shard count for audits built on this dataset: `1` means one
    /// monolithic [`rankfair_core::RankedIndex`]; `> 1` partitions the
    /// rows across shard-local indexes merged additively at query time
    /// (see [`rankfair_core::ShardedIndex`]).
    shards: usize,
}

/// A single-flight cache slot: the first request for a key creates the
/// cell and builds into it; concurrent requests for the same key block on
/// `get_or_init` and share the one build instead of duplicating it.
type AuditCell = Arc<OnceLock<Result<Arc<Audit>, ServiceError>>>;

/// A thread-safe audit server: dataset registry + audit cache + typed
/// query handling. All methods take `&self`; share one instance behind an
/// `Arc` (or plain reference with scoped threads) across workers.
pub struct AuditService {
    datasets: RwLock<HashMap<String, DatasetEntry>>,
    audits: RwLock<HashMap<AuditKey, AuditCell>>,
    monitors: RwLock<HashMap<String, Arc<Mutex<MonitorEntry>>>>,
    max_audits: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct MonitorEntry {
    monitor: MonitorAudit,
    dataset: String,
}

impl Default for AuditService {
    fn default() -> Self {
        AuditService {
            datasets: RwLock::default(),
            audits: RwLock::default(),
            monitors: RwLock::default(),
            max_audits: Self::DEFAULT_MAX_AUDITS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

// Compile-time half of the concurrency contract: the service must remain
// shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AuditService>();
};

impl AuditService {
    /// Default bound on cached audits ([`AuditService::max_cached_audits`]).
    pub const DEFAULT_MAX_AUDITS: usize = 64;

    /// An empty service: no datasets, no cached audits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the audit cache at `max` entries (min 1). A long-lived server
    /// receiving many distinct keys (varying attribute subsets,
    /// bucketizations, rankings) must not grow without bound; when full,
    /// an arbitrary existing entry is dropped to make room — coarse, but
    /// the cache is an optimization, never a correctness requirement.
    pub fn max_cached_audits(mut self, max: usize) -> Self {
        self.max_audits = max.max(1);
        self
    }

    /// Registers (or replaces) an in-memory dataset under `name`.
    /// Replacing a dataset invalidates the cached audits built on it.
    pub fn register_dataset(&self, name: &str, dataset: Arc<Dataset>) {
        self.register_dataset_sharded(name, dataset, 1);
    }

    /// Registers (or replaces) an in-memory dataset under `name`, with
    /// audits built on it partitioning rows across `shards` shard-local
    /// indexes ([`rankfair_core::ShardedIndex`]) whose pattern counts
    /// merge additively at query time. `shards <= 1` means the ordinary
    /// monolithic index. Replacing a dataset — including re-registering
    /// it with a different shard count — invalidates its cached audits.
    pub fn register_dataset_sharded(&self, name: &str, dataset: Arc<Dataset>, shards: usize) {
        let mut datasets = self.datasets.write().expect("registry lock");
        datasets.insert(
            name.to_string(),
            DatasetEntry {
                dataset,
                source: "memory".to_string(),
                shards: shards.max(1),
            },
        );
        drop(datasets);
        self.evict_dataset(name);
    }

    /// Loads a CSV and registers it under `name`. Returns `(rows, cols)`.
    pub fn register_csv(
        &self,
        name: &str,
        path: &str,
        separator: char,
    ) -> Result<(usize, usize), ServiceError> {
        self.register_csv_sharded(name, path, separator, 1)
    }

    /// Loads a CSV and registers it under `name` with a shard spec (see
    /// [`AuditService::register_dataset_sharded`]). Returns `(rows, cols)`.
    pub fn register_csv_sharded(
        &self,
        name: &str,
        path: &str,
        separator: char,
        shards: usize,
    ) -> Result<(usize, usize), ServiceError> {
        let opts = CsvOptions {
            separator,
            ..CsvOptions::default()
        };
        let ds = read_csv(path, &opts).map_err(|e| ServiceError::Csv(format!("{path}: {e}")))?;
        let shape = (ds.n_rows(), ds.n_cols());
        let mut datasets = self.datasets.write().expect("registry lock");
        datasets.insert(
            name.to_string(),
            DatasetEntry {
                dataset: Arc::new(ds),
                source: path.to_string(),
                shards: shards.max(1),
            },
        );
        drop(datasets);
        self.evict_dataset(name);
        Ok(shape)
    }

    /// The shard count audits on `name` are built with (`1` when the
    /// dataset was registered without a shard spec).
    pub fn dataset_shards(&self, name: &str) -> Result<usize, ServiceError> {
        let datasets = self.datasets.read().expect("registry lock");
        datasets
            .get(name)
            .map(|e| e.shards)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// `(name, source, rows, cols, shards)` of every registered dataset,
    /// sorted by name.
    pub fn datasets(&self) -> Vec<(String, String, usize, usize, usize)> {
        let datasets = self.datasets.read().expect("registry lock");
        let mut out: Vec<_> = datasets
            .iter()
            .map(|(name, e)| {
                (
                    name.clone(),
                    e.source.clone(),
                    e.dataset.n_rows(),
                    e.dataset.n_cols(),
                    e.shards,
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Number of cached audits.
    pub fn cache_len(&self) -> usize {
        self.audits.read().expect("cache lock").len()
    }

    /// `(hits, misses)` counters since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops every cached audit (datasets stay registered). The next
    /// request per key pays construction again — the benchmark uses this
    /// to measure the cold path.
    pub fn clear_cache(&self) {
        self.audits.write().expect("cache lock").clear();
    }

    fn evict_dataset(&self, name: &str) {
        self.audits
            .write()
            .expect("cache lock")
            .retain(|k, _| k.dataset != name);
    }

    /// Registers (or replaces) a live monitor over the current snapshot
    /// of a registered dataset, returning the initial audit state.
    ///
    /// The monitor owns a **private evolving copy** of the dataset:
    /// subsequent [`AuditService::monitor_update`] calls mutate the copy
    /// and republish it under the dataset's name, so plain `audit`
    /// requests issued after an update see the post-edit data (and never
    /// a stale cached audit). Re-registering the dataset itself does
    /// *not* retroactively change an existing monitor.
    pub fn register_monitor(
        &self,
        name: &str,
        spec: &MonitorSpec,
    ) -> Result<MonitorView, ServiceError> {
        let dataset = {
            let datasets = self.datasets.read().expect("registry lock");
            let entry = datasets
                .get(&spec.dataset)
                .ok_or_else(|| ServiceError::UnknownDataset(spec.dataset.clone()))?;
            Arc::clone(&entry.dataset)
        };
        let mut builder = MonitorAudit::builder((*dataset).clone(), &spec.rank_by)
            .ascending(spec.ascending)
            .checkpoint_every(spec.checkpoint_every);
        if let Some(attrs) = &spec.attributes {
            builder = builder.attributes(attrs.iter().cloned());
        }
        let monitor = builder.build(spec.config.clone(), spec.task.clone(), spec.engine)?;
        let view = MonitorView {
            dataset: spec.dataset.clone(),
            rows: monitor.n_rows(),
            reports: monitor.reports(),
            space: monitor.space().clone(),
            checkpoints: monitor.checkpoint_stats(),
        };
        self.monitors.write().expect("monitor lock").insert(
            name.to_string(),
            Arc::new(Mutex::new(MonitorEntry {
                monitor,
                dataset: spec.dataset.clone(),
            })),
        );
        Ok(view)
    }

    fn monitor_entry(&self, name: &str) -> Result<Arc<Mutex<MonitorEntry>>, ServiceError> {
        self.monitors
            .read()
            .expect("monitor lock")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownMonitor(name.to_string()))
    }

    /// Applies one edit batch to a monitor: delta re-audit, then the
    /// cache interplay — the monitor's new dataset snapshot replaces the
    /// registry entry for its dataset name, which **evicts every cached
    /// audit** built on the pre-edit data.
    pub fn monitor_update(
        &self,
        name: &str,
        edits: &[RankingEdit],
    ) -> Result<MonitorUpdate, ServiceError> {
        let entry = self.monitor_entry(name)?;
        let mut entry = entry.lock().expect("monitor entry lock");
        let delta = entry.monitor.apply(edits)?;
        let update = MonitorUpdate {
            dataset: entry.dataset.clone(),
            rows: entry.monitor.n_rows(),
            delta,
            space: entry.monitor.space().clone(),
        };
        // Republish the evolved dataset under its name and drop the now
        // stale cached audits for it. Lock order: monitor entry first,
        // registry second — no other path takes them in reverse.
        let snapshot = Arc::new(entry.monitor.dataset().clone());
        let mut datasets = self.datasets.write().expect("registry lock");
        // The shard spec belongs to the dataset *name*, so a monitor
        // republishing its evolved snapshot keeps it.
        let shards = datasets.get(&update.dataset).map_or(1, |e| e.shards);
        datasets.insert(
            update.dataset.clone(),
            DatasetEntry {
                dataset: snapshot,
                source: format!("monitor:{name}"),
                shards,
            },
        );
        drop(datasets);
        self.evict_dataset(&update.dataset);
        Ok(update)
    }

    /// Runs `f` against a monitor's current dataset — the wire layer uses
    /// this to resolve edit cells against the evolving column set without
    /// cloning the dataset.
    pub fn with_monitor_dataset<T>(
        &self,
        name: &str,
        f: impl FnOnce(&Dataset) -> T,
    ) -> Result<T, ServiceError> {
        let entry = self.monitor_entry(name)?;
        let entry = entry.lock().expect("monitor entry lock");
        Ok(f(entry.monitor.dataset()))
    }

    /// The current state of a monitor (rows, per-`k` reports).
    pub fn monitor_snapshot(&self, name: &str) -> Result<MonitorView, ServiceError> {
        let entry = self.monitor_entry(name)?;
        let entry = entry.lock().expect("monitor entry lock");
        Ok(MonitorView {
            dataset: entry.dataset.clone(),
            rows: entry.monitor.n_rows(),
            reports: entry.monitor.reports(),
            space: entry.monitor.space().clone(),
            checkpoints: entry.monitor.checkpoint_stats(),
        })
    }

    /// The dataset a monitor was registered over, or `None` for an
    /// unknown monitor — the server uses this to claim the right dataset
    /// ordering lane for an `update` without locking the monitor itself.
    pub fn monitor_dataset(&self, name: &str) -> Option<String> {
        let monitors = self.monitors.read().expect("monitor lock");
        let entry = monitors.get(name)?;
        let entry = entry.lock().expect("monitor entry lock");
        Some(entry.dataset.clone())
    }

    /// `(name, dataset, rows)` of every registered monitor, sorted by
    /// name.
    pub fn monitors(&self) -> Vec<(String, String, usize)> {
        let monitors = self.monitors.read().expect("monitor lock");
        let mut out: Vec<_> = monitors
            .iter()
            .map(|(name, e)| {
                let e = e.lock().expect("monitor entry lock");
                (name.clone(), e.dataset.clone(), e.monitor.n_rows())
            })
            .collect();
        out.sort();
        out
    }

    /// Answers one request: resolve (or build and cache) the audit for the
    /// request's [`AuditKey`], run the task, enrich the reports.
    ///
    /// The cache is **single-flight**: of any number of concurrent cold
    /// requests for one key, exactly one builds the audit (pattern space +
    /// ranked index); the others block on that build and share the result,
    /// reporting a cache hit — so the hit flag deterministically means
    /// "this request did not pay construction".
    pub fn handle(&self, request: &AuditRequest) -> Result<AuditResponse, ServiceError> {
        let start = Instant::now();
        let mut key = request.cache_key();
        // The shard spec lives with the registered dataset, not the
        // request; fold it into the key so audits built under different
        // shard counts never alias. An unknown dataset keeps shards = 1 —
        // the build below reports the typed error.
        if let Ok(shards) = self.dataset_shards(&request.dataset) {
            key.shards = shards;
        }
        let (audit, hit) = self.audit_for(&key, request)?;
        let outcome = audit.run(&request.config, &request.task, request.engine)?;
        let reports = audit.report(&outcome, &request.task);
        Ok(AuditResponse {
            dataset: request.dataset.clone(),
            outcome,
            reports,
            wall_ms: start.elapsed().as_secs_f64() * 1000.0,
            cache: CacheInfo {
                hit,
                key: key.to_string(),
            },
            audit,
        })
    }

    fn audit_for(
        &self,
        key: &AuditKey,
        request: &AuditRequest,
    ) -> Result<(Arc<Audit>, bool), ServiceError> {
        // Fast path: the cell already exists (built or in flight). The
        // read guard must be dropped before the write lock below — an
        // `if let` on the guard would keep it alive into the else branch
        // and self-deadlock.
        let existing = self.audits.read().expect("cache lock").get(key).cloned();
        let (cell, hit) = match existing {
            Some(cell) => (cell, true),
            None => {
                let mut cache = self.audits.write().expect("cache lock");
                // Double-check: another thread may have inserted between
                // the read unlock and the write lock.
                match cache.get(key) {
                    Some(cell) => (Arc::clone(cell), true),
                    None => {
                        // Bounded cache: drop an arbitrary *settled* entry
                        // when full (in-flight builds are left alone so
                        // their waiters resolve normally).
                        if cache.len() >= self.max_audits {
                            if let Some(evict) = cache
                                .iter()
                                .find(|(_, c)| c.get().is_some())
                                .map(|(k, _)| k.clone())
                            {
                                cache.remove(&evict);
                            }
                        }
                        let cell = AuditCell::default();
                        cache.insert(key.clone(), Arc::clone(&cell));
                        (cell, false)
                    }
                }
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        // No locks held here: the build (or the wait for a concurrent
        // build of the same key) never serializes unrelated requests.
        match cell.get_or_init(|| self.build_audit(request)) {
            Ok(audit) => Ok((Arc::clone(audit), hit)),
            Err(e) => {
                // Failed builds must not stick: a later request may
                // succeed (e.g. the dataset gets registered in between).
                // Only remove the cell if it is still *this* failed one.
                let mut cache = self.audits.write().expect("cache lock");
                if cache.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                    cache.remove(key);
                }
                Err(e.clone())
            }
        }
    }

    fn build_audit(&self, request: &AuditRequest) -> Result<Arc<Audit>, ServiceError> {
        let (dataset, shards) = {
            let datasets = self.datasets.read().expect("registry lock");
            let entry = datasets
                .get(&request.dataset)
                .ok_or_else(|| ServiceError::UnknownDataset(request.dataset.clone()))?;
            (Arc::clone(&entry.dataset), entry.shards)
        };
        let ranking = self.resolve_ranking(&dataset, &request.ranking)?;
        let mut builder = Audit::builder(Arc::clone(&dataset))
            .ranking(ranking)
            .shards(shards);
        for (column, bins) in &request.bucketize {
            builder = builder.bucketize(column, *bins);
        }
        if let Some(attrs) = &request.attributes {
            builder = builder.attributes(attrs.iter().cloned());
        }
        Ok(Arc::new(builder.build()?))
    }

    fn resolve_ranking(
        &self,
        dataset: &Arc<Dataset>,
        spec: &RankingSpec,
    ) -> Result<Ranking, ServiceError> {
        match spec {
            RankingSpec::ByColumn { column, ascending } => {
                if dataset.column_index(column).is_none() {
                    return Err(ServiceError::BadRequest(format!(
                        "ranking column `{column}` does not exist"
                    )));
                }
                let key = if *ascending {
                    SortKey::asc(column)
                } else {
                    SortKey::desc(column)
                };
                Ok(AttributeRanker::new(vec![key]).rank(dataset))
            }
            RankingSpec::Order(ids) => Ranking::from_order(ids.clone())
                .map_err(|e| ServiceError::BadRequest(format!("ranking order: {}", e.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_core::{BiasMeasure, Bounds, OverRepScope};
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_json::ToJson;

    fn fig1_service() -> AuditService {
        let service = AuditService::new();
        service.register_dataset("fig1", Arc::new(students_fig1()));
        service
    }

    fn request(task: AuditTask, cfg: DetectConfig) -> AuditRequest {
        AuditRequest {
            dataset: "fig1".into(),
            attributes: None,
            bucketize: Vec::new(),
            ranking: RankingSpec::Order(fig1_rank_order()),
            task,
            config: cfg,
            engine: Engine::Optimized,
        }
    }

    fn mixed_workload() -> Vec<AuditRequest> {
        vec![
            request(
                AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
                DetectConfig::new(4, 4, 5),
            ),
            request(
                AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
                DetectConfig::new(2, 3, 16),
            ),
            request(
                AuditTask::OverRep {
                    upper: Bounds::constant(2),
                    scope: OverRepScope::MostSpecific,
                },
                DetectConfig::new(2, 3, 16),
            ),
            request(
                AuditTask::Combined {
                    lower: Bounds::constant(2),
                    upper: Bounds::constant(3),
                },
                DetectConfig::new(2, 3, 16),
            ),
        ]
    }

    #[test]
    fn repeated_request_hits_cache() {
        let service = fig1_service();
        let req = &mixed_workload()[0];
        let cold = service.handle(req).unwrap();
        assert!(!cold.cache.hit);
        assert_eq!(service.cache_len(), 1);
        let warm = service.handle(req).unwrap();
        assert!(warm.cache.hit);
        assert_eq!(service.cache_len(), 1);
        assert_eq!(service.cache_stats(), (1, 1));
        // Same audit instance answers both (index construction skipped).
        assert!(Arc::ptr_eq(&cold.audit, &warm.audit));
        assert_eq!(cold.outcome.per_k, warm.outcome.per_k);
    }

    #[test]
    fn distinct_keys_get_distinct_audits() {
        let service = fig1_service();
        let base = &mixed_workload()[0];
        service.handle(base).unwrap();
        let mut restricted = base.clone();
        restricted.attributes = Some(vec!["School".into(), "Gender".into()]);
        let r = service.handle(&restricted).unwrap();
        assert!(!r.cache.hit);
        assert_eq!(service.cache_len(), 2);
        // Task/config/engine do NOT key the cache: a different task on the
        // same dataset+ranking reuses the audit.
        let mut other_task = base.clone();
        other_task.task = AuditTask::OverRep {
            upper: Bounds::constant(2),
            scope: OverRepScope::MostGeneral,
        };
        assert!(service.handle(&other_task).unwrap().cache.hit);
        assert_eq!(service.cache_len(), 2);
    }

    #[test]
    fn concurrent_mixed_workload_matches_serial_audit_byte_for_byte() {
        let service = fig1_service();
        let workload = mixed_workload();
        // Serial ground truth: a plain Audit::run per request, serialized
        // through the same JSON encoding the wire uses.
        let audit = Audit::builder(Arc::new(students_fig1()))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap();
        let expected: Vec<String> = workload
            .iter()
            .map(|r| {
                let out = audit.run(&r.config, &r.task, r.engine).unwrap();
                rankfair_core::json::reports_json(&audit.report(&out, &r.task), audit.space())
                    .render()
            })
            .collect();
        // N threads hammer the one service with the mixed workload.
        std::thread::scope(|s| {
            for t in 0..8 {
                let (service, workload, expected) = (&service, &workload, &expected);
                s.spawn(move || {
                    for round in 0..4 {
                        let i = (t + round) % workload.len();
                        let resp = service.handle(&workload[i]).unwrap();
                        let got =
                            rankfair_core::json::reports_json(&resp.reports, resp.audit.space())
                                .render();
                        assert_eq!(got, expected[i], "request {i} in thread {t}");
                    }
                });
            }
        });
        // All requests share one cache key → exactly one entry, and at
        // least one request was answered from the cache.
        assert_eq!(service.cache_len(), 1);
        let (hits, misses) = service.cache_stats();
        assert!(hits >= 1, "no cache hits across 32 requests");
        assert!(misses >= 1);
        // A final repeated request reports the hit in-band.
        assert!(service.handle(&workload[0]).unwrap().cache.hit);
    }

    #[test]
    fn unknown_dataset_and_bad_ranking_are_typed_errors() {
        let service = fig1_service();
        let mut req = mixed_workload()[0].clone();
        req.dataset = "nope".into();
        assert_eq!(
            service.handle(&req).unwrap_err(),
            ServiceError::UnknownDataset("nope".into())
        );
        let mut req = mixed_workload()[0].clone();
        req.ranking = RankingSpec::ByColumn {
            column: "Nope".into(),
            ascending: false,
        };
        assert!(matches!(
            service.handle(&req).unwrap_err(),
            ServiceError::BadRequest(_)
        ));
        let mut req = mixed_workload()[0].clone();
        req.config = DetectConfig::new(4, 4, 400);
        assert!(matches!(
            service.handle(&req).unwrap_err(),
            ServiceError::Audit(AuditError::InvalidKRange { .. })
        ));
        // Errors have JSON encodings for the wire.
        let v = wire::error_json(&ServiceError::UnknownDataset("nope".into()));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("unknown_dataset"));
        let v = wire::error_json(&ServiceError::Audit(AuditError::MissingRanking));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("missing_ranking"));
        let _ = ServiceError::Csv("x".into()).to_json();
    }

    #[test]
    fn ranking_by_column_matches_precomputed_order() {
        // fig1's paper order is Grade descending (failures tie-break).
        // Ranking by Grade alone must produce identical top-k *counts* for
        // the groups at k where no tie straddles the boundary; here we just
        // assert the by-column path runs and caches independently.
        let service = fig1_service();
        let mut req = mixed_workload()[0].clone();
        req.ranking = RankingSpec::ByColumn {
            column: "Grade".into(),
            ascending: false,
        };
        let r1 = service.handle(&req).unwrap();
        assert!(!r1.cache.hit);
        let r2 = service.handle(&req).unwrap();
        assert!(r2.cache.hit);
        assert_eq!(r1.outcome.per_k, r2.outcome.per_k);
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn replacing_a_dataset_evicts_its_audits() {
        let service = fig1_service();
        service.register_dataset("other", Arc::new(students_fig1()));
        let req = mixed_workload()[0].clone();
        let mut other = req.clone();
        other.dataset = "other".into();
        service.handle(&req).unwrap();
        service.handle(&other).unwrap();
        assert_eq!(service.cache_len(), 2);
        // Re-registering fig1 drops only fig1's cached audit.
        service.register_dataset("fig1", Arc::new(students_fig1()));
        assert_eq!(service.cache_len(), 1);
        assert!(!service.handle(&req).unwrap().cache.hit);
        assert!(service.handle(&other).unwrap().cache.hit);
        // clear_cache drops everything.
        service.clear_cache();
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn cache_is_bounded_with_arbitrary_eviction() {
        let service = fig1_service().max_cached_audits(2);
        let base = &mixed_workload()[0];
        let with_attrs = |attrs: &[&str]| {
            let mut r = base.clone();
            r.attributes = Some(attrs.iter().map(|s| s.to_string()).collect());
            r
        };
        // Three distinct keys through a 2-entry cache: never grows past 2.
        service.handle(base).unwrap();
        service.handle(&with_attrs(&["School"])).unwrap();
        assert_eq!(service.cache_len(), 2);
        service.handle(&with_attrs(&["Gender"])).unwrap();
        assert_eq!(service.cache_len(), 2);
        // Evicted keys still answer correctly (rebuild, reported cold).
        let again = service.handle(base).unwrap();
        assert_eq!(
            again.outcome.per_k,
            service.handle(base).unwrap().outcome.per_k
        );
        assert!(service.cache_len() <= 2);
    }

    #[test]
    fn sharded_registration_matches_unsharded_and_keys_separately() {
        let service = fig1_service();
        service.register_dataset_sharded("fig1s", Arc::new(students_fig1()), 3);
        assert_eq!(service.dataset_shards("fig1s").unwrap(), 3);
        assert_eq!(service.dataset_shards("fig1").unwrap(), 1);
        // Every task/engine shape answers identically through the sharded
        // index, the response is keyed (and cached) under the shard spec,
        // and the audit really is sharded.
        for req in mixed_workload() {
            let mut sharded = req.clone();
            sharded.dataset = "fig1s".into();
            let mono = service.handle(&req).unwrap();
            let shard = service.handle(&sharded).unwrap();
            assert_eq!(mono.outcome.per_k, shard.outcome.per_k);
            assert!(shard.cache.key.contains("|shards=3"), "{}", shard.cache.key);
            assert!(!mono.cache.key.contains("shards"), "{}", mono.cache.key);
            assert_eq!(shard.audit.index().shard_count(), 3);
            assert!(service.handle(&sharded).unwrap().cache.hit);
        }
        // Re-registering under a different shard count evicts the cached
        // audits and the next request rebuilds with the new layout.
        service.register_dataset_sharded("fig1s", Arc::new(students_fig1()), 5);
        let mut req = mixed_workload()[0].clone();
        req.dataset = "fig1s".into();
        let resp = service.handle(&req).unwrap();
        assert!(!resp.cache.hit, "stale sharded audit served");
        assert_eq!(resp.audit.index().shard_count(), 5);
        assert!(resp.cache.key.contains("|shards=5"), "{}", resp.cache.key);
        // The registry listing reports the shard spec.
        let listed = service.datasets();
        let entry = listed.iter().find(|d| d.0 == "fig1s").unwrap();
        assert_eq!(entry.4, 5);
        assert_eq!(
            service.dataset_shards("nope").unwrap_err(),
            ServiceError::UnknownDataset("nope".into())
        );
    }

    #[test]
    fn monitor_lifecycle_register_update_snapshot() {
        use rankfair_core::RankingEdit;
        let service = fig1_service();
        let spec = MonitorSpec {
            dataset: "fig1".into(),
            rank_by: "Grade".into(),
            ascending: false,
            attributes: None,
            task: AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            config: DetectConfig::new(2, 2, 16),
            engine: Engine::Optimized,
            checkpoint_every: 4,
        };
        let view = service.register_monitor("m1", &spec).unwrap();
        assert_eq!(view.rows, 16);
        assert_eq!(view.reports.len(), 15);
        // Optimized monitors surface their persistent engine state.
        let ck = view.checkpoints.as_ref().expect("optimized keeps state");
        assert!(ck.lower_checkpoints > 0 && ck.stored_nodes > 0);
        assert_eq!(ck.upper_checkpoints, 0, "UnderRep has no upper engine");
        assert_eq!(
            service.monitors(),
            vec![("m1".to_string(), "fig1".to_string(), 16)]
        );
        // Unknown names are typed errors.
        assert_eq!(
            service.monitor_snapshot("nope").unwrap_err(),
            ServiceError::UnknownMonitor("nope".into())
        );
        let mut bad = spec.clone();
        bad.dataset = "nope".into();
        assert_eq!(
            service.register_monitor("m2", &bad).unwrap_err(),
            ServiceError::UnknownDataset("nope".into())
        );
        // An update changes the snapshot and reports a delta.
        let before = service.monitor_snapshot("m1").unwrap();
        let update = service
            .monitor_update(
                "m1",
                &[RankingEdit::ScoreUpdate {
                    row: 8,
                    score: 19.75,
                }],
            )
            .unwrap();
        assert!(update.delta.recomputed.is_some());
        let after = service.monitor_snapshot("m1").unwrap();
        assert_eq!(after.rows, 16);
        // The delta re-audit either seeked into a checkpoint or rebuilt
        // after a full invalidation — both show up in the counters.
        let ck = after.checkpoints.as_ref().unwrap();
        assert!(ck.seeks + ck.cold_builds >= 2);
        if update.delta.total_changes() > 0 {
            assert_ne!(
                rankfair_core::json::reports_json(&before.reports, &before.space).render(),
                rankfair_core::json::reports_json(&after.reports, &after.space).render(),
            );
        }
        // Bad edits surface as typed monitor errors and change nothing.
        assert!(matches!(
            service
                .monitor_update(
                    "m1",
                    &[RankingEdit::ScoreUpdate {
                        row: 999,
                        score: 1.0
                    }]
                )
                .unwrap_err(),
            ServiceError::Monitor(_)
        ));
    }

    #[test]
    fn monitor_update_evicts_and_republishes_the_dataset() {
        use rankfair_core::RankingEdit;
        let service = fig1_service();
        let audit_req = mixed_workload()[0].clone();
        // Warm the audit cache for fig1.
        assert!(!service.handle(&audit_req).unwrap().cache.hit);
        assert!(service.handle(&audit_req).unwrap().cache.hit);
        let spec = MonitorSpec {
            dataset: "fig1".into(),
            rank_by: "Grade".into(),
            ascending: false,
            attributes: None,
            task: AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            config: DetectConfig::new(2, 2, 16),
            engine: Engine::Optimized,
            checkpoint_every: rankfair_core::MonitorAudit::DEFAULT_CHECKPOINT_CADENCE,
        };
        service.register_monitor("m1", &spec).unwrap();
        service
            .monitor_update(
                "m1",
                &[RankingEdit::ScoreUpdate {
                    row: 8,
                    score: 19.75,
                }],
            )
            .unwrap();
        // The cached audit for fig1 was evicted and the registry now
        // serves the monitor's evolved snapshot.
        assert_eq!(service.cache_len(), 0);
        let resp = service.handle(&audit_req).unwrap();
        assert!(!resp.cache.hit, "stale audit served after monitor update");
        let listed = service.datasets();
        assert_eq!(listed[0].1, "monitor:m1");
        // The post-edit grade is visible to fresh audits.
        let grade = resp
            .audit
            .dataset()
            .column_by_name("Grade")
            .unwrap()
            .value(8);
        assert_eq!(grade, 19.75);
    }

    #[test]
    fn order_ranking_keys_are_distinguishable() {
        let order = fig1_rank_order();
        let mut reversed = order.clone();
        reversed.reverse();
        let a = RankingSpec::Order(order).describe();
        let b = RankingSpec::Order(reversed).describe();
        assert_ne!(a, b, "equal-length orders must not share a display key");
    }

    #[test]
    fn bucketize_and_csv_registration_work_end_to_end() {
        let dir =
            std::env::temp_dir().join(format!("rankfair_service_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("student.csv");
        let ds = rankfair_synth::student(rankfair_synth::SynthConfig::new(80, 7));
        rankfair_data::csv::write_csv(&ds, &path, ',').unwrap();

        let service = AuditService::new();
        let (rows, _cols) = service
            .register_csv("students", path.to_str().unwrap(), ',')
            .unwrap();
        assert_eq!(rows, 80);
        assert!(service
            .register_csv("bad", "/definitely/not/here.csv", ',')
            .is_err());

        let req = AuditRequest {
            dataset: "students".into(),
            attributes: Some(vec!["school".into(), "sex".into(), "address".into()]),
            bucketize: vec![("G3".into(), 4)],
            ranking: RankingSpec::ByColumn {
                column: "G3".into(),
                ascending: false,
            },
            task: AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(3))),
            config: DetectConfig::new(10, 5, 10),
            engine: Engine::Optimized,
        };
        let resp = service.handle(&req).unwrap();
        assert_eq!(resp.reports.len(), 6);
        assert!(!resp.cache.hit);
        assert!(service.handle(&req).unwrap().cache.hit);
        let listed = service.datasets();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, "students");
        assert_eq!(listed[0].2, 80);
    }
}
