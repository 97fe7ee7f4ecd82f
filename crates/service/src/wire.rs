//! The JSON wire protocol: one request object per line in, one response
//! object per line out.
//!
//! # Requests
//!
//! Every request line is a JSON object with an optional `id` (echoed
//! verbatim in the response) and an `op` selecting the operation
//! (default `audit`):
//!
//! ```json
//! {"op": "register", "name": "students", "csv": "students.csv", "separator": ","}
//! {"op": "register", "name": "big", "csv": "big.csv", "shards": 8}
//! {"op": "datasets"}
//! {"id": 1, "dataset": "students",
//!  "ranking": {"rank_by": "G3"},
//!  "task": {"type": "under", "measure": {"type": "global", "lower": 10}},
//!  "config": {"tau": 50, "kmin": 10, "kmax": 49},
//!  "engine": "optimized",
//!  "attributes": ["school", "sex"],
//!  "bucketize": {"age": 3}}
//! ```
//!
//! * `ranking` — `{"rank_by": COL, "ascending": BOOL?}` (default
//!   descending) or `{"order": [tuple ids, best first]}`.
//! * `task` — `{"type": "under", "measure": M}` with `M` either
//!   `{"type": "global", "lower": B}` or `{"type": "proportional",
//!   "alpha": X}`; `{"type": "over", "upper": B, "scope":
//!   "specific"|"general"}`; or `{"type": "combined", "lower": B,
//!   "upper": B}`.
//! * bounds `B` — a number (constant), `{"steps": [[k_from, bound], …]}`,
//!   or `{"fraction": X}` (`⌈X·k⌉`).
//! * `config` — `{"tau": N, "kmin": N, "kmax": N, "deadline_s": X?}`.
//! * `register.shards` — optional positive integer (default 1), at most
//!   the CSV's row count (a larger count is a `bad_request`). With
//!   `shards > 1`, audits on the dataset cut its rows into that many
//!   contiguous blocks, build each block's membership maps separately,
//!   and merge per-shard pattern counts additively at query time; results
//!   are identical to one block, and the audit-cache key records
//!   the shard count so re-registering with a different spec never serves
//!   a stale layout.
//!
//! # Monitor ops
//!
//! Live monitors track an evolving ranking with delta re-audits:
//!
//! ```json
//! {"op": "register_monitor", "name": "m", "dataset": "students",
//!  "rank_by": "G3", "task": {"type": "combined", "lower": 2, "upper": 6},
//!  "config": {"tau": 20, "kmin": 5, "kmax": 40}, "checkpoint_every": 4}
//! {"op": "update", "monitor": "m", "edits": [
//!   {"edit": "score", "row": 17, "score": 14.5},
//!   {"edit": "insert", "cells": {"school": "GP", "sex": "F", "G3": 12}}]}
//! {"op": "snapshot", "monitor": "m"}
//! ```
//!
//! `register_monitor` and `update` serialize **per resource** (see
//! [`crate::serve`]): earlier requests touching the same monitor or
//! dataset see the pre-mutation state, later lines the post-mutation
//! state, while requests on unrelated resources proceed in parallel. An
//! `update` additionally republishes the monitor's evolved dataset under
//! its dataset name, evicting the cached audits built on the pre-edit
//! data. `snapshot` is a plain read and runs on the worker pool.
//!
//! An admin `{"op": "shutdown"}` asks the server to stop: the stdio
//! server stops reading, the socket server ([`crate::net`]) additionally
//! stops accepting connections; either way in-flight requests drain and
//! their responses flush before the process exits.
//!
//! The protocol is **strict**: unknown members anywhere in a request are
//! rejected (like the CLI's per-command flag specs), so a misspelled
//! optional field fails loudly instead of silently changing results.
//!
//! # Responses
//!
//! Success: `{"id", "ok": true, …}` with the op's payload (an audit
//! response carries `per_k`, `stats`, `wall_ms` and `cache`). Failure:
//! `{"id", "ok": false, "error": {"kind", "message"}}`. Responses are
//! emitted in request order regardless of worker count.

use rankfair_core::json::{delta_report_json, edits_from_json, reports_json};
use rankfair_core::{AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, OverRepScope};
use rankfair_json::{parse, ToJson, Value};

use crate::{
    AuditRequest, AuditResponse, AuditService, MonitorSpec, MonitorView, RankingSpec, ServiceError,
};

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run an audit query.
    Audit {
        /// Client correlation id, echoed in the response.
        id: Option<Value>,
        /// The typed query.
        request: AuditRequest,
    },
    /// Register a CSV-backed dataset.
    Register {
        /// Client correlation id.
        id: Option<Value>,
        /// Name to register under.
        name: String,
        /// CSV path.
        csv: String,
        /// Field separator.
        separator: char,
        /// Shard count for audits on this dataset (`1` = one row block;
        /// `> 1` = row blocks whose counts merge additively).
        shards: usize,
    },
    /// List registered datasets.
    Datasets {
        /// Client correlation id.
        id: Option<Value>,
    },
    /// Register a live monitor over a dataset.
    RegisterMonitor {
        /// Client correlation id.
        id: Option<Value>,
        /// Name to register the monitor under.
        name: String,
        /// How to build it.
        spec: MonitorSpec,
    },
    /// Apply an edit batch to a monitor (delta re-audit).
    MonitorUpdate {
        /// Client correlation id.
        id: Option<Value>,
        /// The monitor to update.
        monitor: String,
        /// Raw `edits` array — cells can only be resolved against the
        /// monitor's dataset at execution time.
        edits: Value,
    },
    /// Read a monitor's current per-`k` state.
    MonitorSnapshot {
        /// Client correlation id.
        id: Option<Value>,
        /// The monitor to read.
        monitor: String,
    },
    /// Admin op: gracefully stop the server (stop reading/accepting,
    /// drain in-flight requests, flush, close).
    Shutdown {
        /// Client correlation id.
        id: Option<Value>,
    },
}

impl Request {
    /// The request's correlation id, if any.
    pub fn id(&self) -> Option<&Value> {
        match self {
            Request::Audit { id, .. }
            | Request::Register { id, .. }
            | Request::Datasets { id }
            | Request::RegisterMonitor { id, .. }
            | Request::MonitorUpdate { id, .. }
            | Request::MonitorSnapshot { id, .. }
            | Request::Shutdown { id } => id.as_ref(),
        }
    }
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

/// Parses one JSONL line into a [`Request`]. On failure, returns the
/// correlation id (when the line was at least valid JSON) together with
/// the error, so the caller can still address its error response.
pub fn parse_line(line: &str) -> Result<Request, (Option<Value>, ServiceError)> {
    let v = parse(line).map_err(|e| (None, bad(format!("invalid JSON: {e}"))))?;
    let id = v.get("id").cloned();
    parse_request(&v).map_err(|e| (id, e))
}

/// Rejects members outside `allowed` — a misspelled optional field
/// (`"asc"` for `"ascending"`, `"deadline"` for `"deadline_s"`) must be
/// an error, not a silently dropped knob that changes results. Mirrors
/// the CLI's per-command flag specs.
fn reject_unknown(v: &Value, allowed: &[&str], context: &str) -> Result<(), ServiceError> {
    let Some(pairs) = v.as_obj() else {
        return Ok(());
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(format!(
                "unknown member `{key}` in {context}; allowed: {}",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn parse_request(v: &Value) -> Result<Request, ServiceError> {
    if v.as_obj().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let id = v.get("id").cloned();
    match v.get("op").map(|o| o.as_str()) {
        None | Some(Some("audit")) => Ok(Request::Audit {
            id,
            request: audit_request_from_json(v)?,
        }),
        Some(Some("register")) => {
            reject_unknown(
                v,
                &["id", "op", "name", "csv", "separator", "shards"],
                "register",
            )?;
            let name = require_str(v, "name")?.to_string();
            let csv = require_str(v, "csv")?.to_string();
            let separator = match v.get("separator") {
                None => ',',
                Some(s) => {
                    let s = s
                        .as_str()
                        .ok_or_else(|| bad("`separator` must be a one-character string"))?;
                    let mut chars = s.chars();
                    match (chars.next(), chars.next()) {
                        (Some(c), None) => c,
                        _ => return Err(bad("`separator` must be a one-character string")),
                    }
                }
            };
            let shards = match v.get("shards") {
                None => 1,
                Some(s) => s
                    .as_usize()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("`shards` must be a positive integer"))?,
            };
            Ok(Request::Register {
                id,
                name,
                csv,
                separator,
                shards,
            })
        }
        Some(Some("datasets")) => {
            reject_unknown(v, &["id", "op"], "datasets")?;
            Ok(Request::Datasets { id })
        }
        Some(Some("register_monitor")) => {
            reject_unknown(
                v,
                &[
                    "id",
                    "op",
                    "name",
                    "dataset",
                    "rank_by",
                    "ascending",
                    "attributes",
                    "task",
                    "config",
                    "engine",
                    "checkpoint_every",
                ],
                "register_monitor",
            )?;
            let name = require_str(v, "name")?.to_string();
            let spec = MonitorSpec {
                dataset: require_str(v, "dataset")?.to_string(),
                rank_by: require_str(v, "rank_by")?.to_string(),
                ascending: match v.get("ascending") {
                    None => false,
                    Some(a) => a
                        .as_bool()
                        .ok_or_else(|| bad("`ascending` must be a boolean"))?,
                },
                attributes: attributes_from_json(v)?,
                task: task_from_json(v.get("task").ok_or_else(|| bad("`task` is required"))?)?,
                config: config_from_json(
                    v.get("config").ok_or_else(|| bad("`config` is required"))?,
                )?,
                engine: engine_from_json(v)?,
                checkpoint_every: match v.get("checkpoint_every") {
                    None => rankfair_core::MonitorAudit::DEFAULT_CHECKPOINT_CADENCE,
                    Some(c) => c
                        .as_usize()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("`checkpoint_every` must be a positive integer"))?,
                },
            };
            Ok(Request::RegisterMonitor { id, name, spec })
        }
        Some(Some("update")) => {
            reject_unknown(v, &["id", "op", "monitor", "edits"], "update")?;
            let monitor = require_str(v, "monitor")?.to_string();
            let edits = v
                .get("edits")
                .cloned()
                .ok_or_else(|| bad("`edits` (array) is required"))?;
            if edits.as_arr().is_none() {
                return Err(bad("`edits` must be an array"));
            }
            Ok(Request::MonitorUpdate { id, monitor, edits })
        }
        Some(Some("snapshot")) => {
            reject_unknown(v, &["id", "op", "monitor"], "snapshot")?;
            Ok(Request::MonitorSnapshot {
                id,
                monitor: require_str(v, "monitor")?.to_string(),
            })
        }
        Some(Some("shutdown")) => {
            reject_unknown(v, &["id", "op"], "shutdown")?;
            Ok(Request::Shutdown { id })
        }
        Some(Some(other)) => Err(bad(format!(
            "unknown op `{other}` (expected audit, register, datasets, register_monitor, update, snapshot or shutdown)"
        ))),
        Some(None) => Err(bad("`op` must be a string")),
    }
}

fn attributes_from_json(v: &Value) -> Result<Option<Vec<String>>, ServiceError> {
    match v.get("attributes") {
        None => Ok(None),
        Some(a) => {
            let items = a
                .as_arr()
                .ok_or_else(|| bad("`attributes` must be an array of strings"))?;
            let names: Option<Vec<String>> = items
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect();
            Ok(Some(names.ok_or_else(|| {
                bad("`attributes` must be an array of strings")
            })?))
        }
    }
}

fn engine_from_json(v: &Value) -> Result<Engine, ServiceError> {
    match v.get("engine") {
        None => Ok(Engine::Optimized),
        Some(e) => match e.as_str() {
            Some("optimized") => Ok(Engine::Optimized),
            Some("baseline") => Ok(Engine::Baseline),
            _ => Err(bad("`engine` must be \"optimized\" or \"baseline\"")),
        },
    }
}

fn require_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ServiceError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(format!("`{key}` (string) is required")))
}

fn require_usize(v: &Value, key: &str) -> Result<usize, ServiceError> {
    v.get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| bad(format!("`{key}` (non-negative integer) is required")))
}

/// Parses the audit fields of a request object into an [`AuditRequest`].
pub fn audit_request_from_json(v: &Value) -> Result<AuditRequest, ServiceError> {
    reject_unknown(
        v,
        &[
            "id",
            "op",
            "dataset",
            "ranking",
            "task",
            "config",
            "engine",
            "attributes",
            "bucketize",
        ],
        "audit request",
    )?;
    let dataset = require_str(v, "dataset")?.to_string();
    let ranking = ranking_from_json(
        v.get("ranking")
            .ok_or_else(|| bad("`ranking` is required"))?,
    )?;
    let task = task_from_json(v.get("task").ok_or_else(|| bad("`task` is required"))?)?;
    let config = config_from_json(v.get("config").ok_or_else(|| bad("`config` is required"))?)?;
    let engine = engine_from_json(v)?;
    let attributes = attributes_from_json(v)?;
    let bucketize = match v.get("bucketize") {
        None => Vec::new(),
        Some(b) => {
            let pairs = b
                .as_obj()
                .ok_or_else(|| bad("`bucketize` must be an object of column → bins"))?;
            pairs
                .iter()
                .map(|(col, bins)| {
                    let bins = bins
                        .as_usize()
                        .filter(|&b| b >= 1)
                        .ok_or_else(|| bad(format!("bucketize `{col}`: bins must be ≥ 1")))?;
                    Ok((col.clone(), bins))
                })
                .collect::<Result<Vec<_>, ServiceError>>()?
        }
    };
    Ok(AuditRequest {
        dataset,
        attributes,
        bucketize,
        ranking,
        task,
        config,
        engine,
    })
}

fn ranking_from_json(v: &Value) -> Result<RankingSpec, ServiceError> {
    // Strictness is per shape: `ascending` only modifies `rank_by`, and
    // mixing `rank_by` with `order` would silently drop one of them.
    if v.get("rank_by").is_some() {
        reject_unknown(v, &["rank_by", "ascending"], "ranking")?;
    } else {
        reject_unknown(v, &["order"], "ranking")?;
    }
    if let Some(col) = v.get("rank_by") {
        let column = col
            .as_str()
            .ok_or_else(|| bad("`rank_by` must be a string"))?
            .to_string();
        let ascending = match v.get("ascending") {
            None => false,
            Some(a) => a
                .as_bool()
                .ok_or_else(|| bad("`ascending` must be a boolean"))?,
        };
        return Ok(RankingSpec::ByColumn { column, ascending });
    }
    if let Some(order) = v.get("order") {
        let items = order
            .as_arr()
            .ok_or_else(|| bad("`order` must be an array of tuple ids"))?;
        let ids: Option<Vec<u32>> = items
            .iter()
            .map(|x| x.as_usize().and_then(|n| u32::try_from(n).ok()))
            .collect();
        return Ok(RankingSpec::Order(ids.ok_or_else(|| {
            bad("`order` must be an array of non-negative integers")
        })?));
    }
    Err(bad("`ranking` needs `rank_by` or `order`"))
}

fn bounds_from_json(v: &Value) -> Result<Bounds, ServiceError> {
    if let Some(n) = v.as_usize() {
        return Ok(Bounds::constant(n));
    }
    reject_unknown(v, &["steps", "fraction"], "bounds")?;
    if let Some(steps) = v.get("steps") {
        let items = steps
            .as_arr()
            .ok_or_else(|| bad("`steps` must be an array of [k_from, bound] pairs"))?;
        let pairs: Option<Vec<(usize, usize)>> = items
            .iter()
            .map(|pair| {
                let p = pair.as_arr()?;
                match p {
                    [k, b] => Some((k.as_usize()?, b.as_usize()?)),
                    _ => None,
                }
            })
            .collect();
        return Ok(Bounds::steps(pairs.ok_or_else(|| {
            bad("`steps` must be an array of [k_from, bound] pairs")
        })?));
    }
    if let Some(f) = v.get("fraction") {
        let f = f
            .as_f64()
            .ok_or_else(|| bad("`fraction` must be a number"))?;
        return Ok(Bounds::LinearFraction(f));
    }
    Err(bad(
        "bounds must be a number, {\"steps\": …} or {\"fraction\": …}",
    ))
}

/// Parses a task object (see module docs for the shape).
pub fn task_from_json(v: &Value) -> Result<AuditTask, ServiceError> {
    // Per-type allowlists: a member the chosen task type never reads
    // (e.g. `scope` on `combined`, `upper` on `under`) must fail loudly,
    // not silently produce a different result set — mirroring the CLI's
    // per-task flag rejection.
    match v.get("type").and_then(Value::as_str) {
        Some("under") => reject_unknown(v, &["type", "measure"], "task (under)")?,
        Some("over") => reject_unknown(v, &["type", "upper", "scope"], "task (over)")?,
        Some("combined") => reject_unknown(v, &["type", "lower", "upper"], "task (combined)")?,
        _ => {}
    }
    let scope = |v: &Value| -> Result<OverRepScope, ServiceError> {
        match v.get("scope").map(|s| s.as_str()) {
            None | Some(Some("specific")) => Ok(OverRepScope::MostSpecific),
            Some(Some("general")) => Ok(OverRepScope::MostGeneral),
            _ => Err(bad("`scope` must be \"specific\" or \"general\"")),
        }
    };
    let bounds_at = |key: &str| -> Result<Bounds, ServiceError> {
        bounds_from_json(
            v.get(key)
                .ok_or_else(|| bad(format!("`{key}` bounds are required")))?,
        )
    };
    match v.get("type").and_then(Value::as_str) {
        Some("under") => {
            let m = v
                .get("measure")
                .ok_or_else(|| bad("`measure` is required for task type `under`"))?;
            match m.get("type").and_then(Value::as_str) {
                Some("global") => reject_unknown(m, &["type", "lower"], "measure (global)")?,
                Some("proportional") | Some("prop") => {
                    reject_unknown(m, &["type", "alpha"], "measure (proportional)")?
                }
                _ => {}
            }
            let measure = match m.get("type").and_then(Value::as_str) {
                Some("global") => BiasMeasure::GlobalLower(bounds_from_json(
                    m.get("lower")
                        .ok_or_else(|| bad("`lower` bounds are required"))?,
                )?),
                Some("proportional") | Some("prop") => {
                    let alpha = m
                        .get("alpha")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| bad("`alpha` (number) is required"))?;
                    BiasMeasure::Proportional { alpha }
                }
                _ => return Err(bad("measure `type` must be \"global\" or \"proportional\"")),
            };
            Ok(AuditTask::UnderRep(measure))
        }
        Some("over") => Ok(AuditTask::OverRep {
            upper: bounds_at("upper")?,
            scope: scope(v)?,
        }),
        Some("combined") => Ok(AuditTask::Combined {
            lower: bounds_at("lower")?,
            upper: bounds_at("upper")?,
        }),
        _ => Err(bad(
            "task `type` must be \"under\", \"over\" or \"combined\"",
        )),
    }
}

fn config_from_json(v: &Value) -> Result<DetectConfig, ServiceError> {
    reject_unknown(v, &["tau", "kmin", "kmax", "deadline_s"], "config")?;
    let tau = require_usize(v, "tau")?;
    let k_min = require_usize(v, "kmin")?;
    let k_max = require_usize(v, "kmax")?;
    // DetectConfig::new panics on a bad range; a wire request must never
    // take the process down.
    if k_min == 0 || k_min > k_max {
        return Err(bad(format!("invalid k range [{k_min}, {k_max}]")));
    }
    let mut cfg = DetectConfig::new(tau, k_min, k_max);
    if let Some(d) = v.get("deadline_s") {
        let secs = d
            .as_f64()
            .ok_or_else(|| bad("`deadline_s` must be a number"))?;
        let d = std::time::Duration::try_from_secs_f64(secs)
            .map_err(|_| bad("`deadline_s` must be a representable non-negative duration"))?;
        cfg = cfg.with_deadline(d);
    }
    Ok(cfg)
}

// --- encoding -----------------------------------------------------------
// (`Bounds` and `AuditTask` encode in rankfair_core::json — the orphan
// rule keeps those impls next to the types.)

impl ToJson for AuditRequest {
    fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> =
            vec![("dataset".to_string(), Value::from(self.dataset.as_str()))];
        let ranking = match &self.ranking {
            RankingSpec::ByColumn { column, ascending } => {
                let mut r = vec![("rank_by".to_string(), Value::from(column.as_str()))];
                if *ascending {
                    r.push(("ascending".to_string(), Value::Bool(true)));
                }
                Value::Obj(r)
            }
            RankingSpec::Order(ids) => Value::object([(
                "order",
                Value::array(ids.iter().map(|&i| Value::from(i as usize)).collect()),
            )]),
        };
        pairs.push(("ranking".to_string(), ranking));
        pairs.push(("task".to_string(), self.task.to_json()));
        let mut config = vec![
            ("tau".to_string(), Value::from(self.config.tau_s)),
            ("kmin".to_string(), Value::from(self.config.k_min)),
            ("kmax".to_string(), Value::from(self.config.k_max)),
        ];
        if let Some(d) = self.config.deadline {
            config.push(("deadline_s".to_string(), Value::from(d.as_secs_f64())));
        }
        pairs.push(("config".to_string(), Value::Obj(config)));
        pairs.push((
            "engine".to_string(),
            Value::from(match self.engine {
                Engine::Optimized => "optimized",
                Engine::Baseline => "baseline",
            }),
        ));
        if let Some(attrs) = &self.attributes {
            pairs.push((
                "attributes".to_string(),
                Value::array(attrs.iter().map(|a| Value::from(a.as_str())).collect()),
            ));
        }
        if !self.bucketize.is_empty() {
            pairs.push((
                "bucketize".to_string(),
                Value::Obj(
                    self.bucketize
                        .iter()
                        .map(|(c, b)| (c.clone(), Value::from(*b)))
                        .collect(),
                ),
            ));
        }
        Value::Obj(pairs)
    }
}

/// The `error` payload of a failure response.
pub fn error_json(e: &ServiceError) -> Value {
    match e {
        // Audit and monitor errors keep their own kind taxonomies from
        // rankfair_core.
        ServiceError::Audit(a) => a.to_json(),
        ServiceError::Monitor(m) => m.to_json(),
        ServiceError::UnknownDataset(_) => Value::object([
            ("kind", Value::from("unknown_dataset")),
            ("message", Value::from(e.to_string())),
        ]),
        ServiceError::UnknownMonitor(_) => Value::object([
            ("kind", Value::from("unknown_monitor")),
            ("message", Value::from(e.to_string())),
        ]),
        ServiceError::MonitorPoisoned(_) => Value::object([
            ("kind", Value::from("monitor_poisoned")),
            ("message", Value::from(e.to_string())),
        ]),
        ServiceError::Csv(_) => Value::object([
            ("kind", Value::from("csv")),
            ("message", Value::from(e.to_string())),
        ]),
        ServiceError::BadRequest(_) => Value::object([
            ("kind", Value::from("bad_request")),
            ("message", Value::from(e.to_string())),
        ]),
        ServiceError::Internal(_) => Value::object([
            ("kind", Value::from("internal")),
            ("message", Value::from(e.to_string())),
        ]),
    }
}

impl ToJson for ServiceError {
    fn to_json(&self) -> Value {
        error_json(self)
    }
}

fn envelope(id: Option<&Value>, ok: bool, rest: Vec<(String, Value)>) -> Value {
    let mut pairs = Vec::with_capacity(rest.len() + 2);
    if let Some(id) = id {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("ok".to_string(), Value::Bool(ok)));
    pairs.extend(rest);
    Value::Obj(pairs)
}

/// A failure response line.
pub fn error_response(id: Option<&Value>, e: &ServiceError) -> Value {
    envelope(id, false, vec![("error".to_string(), error_json(e))])
}

/// A successful audit response line. With `strip_timing`, wall-clock
/// fields are zeroed so output is byte-deterministic (golden tests).
pub fn audit_response(id: Option<&Value>, resp: &AuditResponse, strip_timing: bool) -> Value {
    let mut stats = resp.outcome.stats.clone();
    let wall_ms = if strip_timing {
        stats.elapsed = std::time::Duration::ZERO;
        0.0
    } else {
        resp.wall_ms
    };
    envelope(
        id,
        true,
        vec![
            ("dataset".to_string(), Value::from(resp.dataset.as_str())),
            (
                "per_k".to_string(),
                reports_json(&resp.reports, resp.audit.space()),
            ),
            ("stats".to_string(), stats.to_json()),
            ("wall_ms".to_string(), Value::from(wall_ms)),
            (
                "cache".to_string(),
                Value::object([
                    ("hit", Value::from(resp.cache.hit)),
                    ("key", Value::from(resp.cache.key.as_str())),
                ]),
            ),
        ],
    )
}

/// Executes one parsed request against `service` and renders the response
/// line (never fails: errors become `"ok": false` responses).
pub fn execute(service: &AuditService, request: &Request, strip_timing: bool) -> Value {
    match request {
        Request::Audit { id, request } => match service.handle(request) {
            Ok(resp) => audit_response(id.as_ref(), &resp, strip_timing),
            Err(e) => error_response(id.as_ref(), &e),
        },
        Request::Register {
            id,
            name,
            csv,
            separator,
            shards,
        } => match service.register_csv_sharded(name, csv, *separator, *shards) {
            Ok((rows, cols)) => envelope(
                id.as_ref(),
                true,
                vec![
                    ("op".to_string(), Value::from("register")),
                    ("dataset".to_string(), Value::from(name.as_str())),
                    ("rows".to_string(), Value::from(rows)),
                    ("cols".to_string(), Value::from(cols)),
                    ("shards".to_string(), Value::from(*shards)),
                ],
            ),
            Err(e) => error_response(id.as_ref(), &e),
        },
        Request::Datasets { id } => {
            let datasets = service
                .datasets()
                .into_iter()
                .map(|(name, source, rows, cols, shards)| {
                    Value::object([
                        ("name", Value::from(name)),
                        ("source", Value::from(source)),
                        ("rows", Value::from(rows)),
                        ("cols", Value::from(cols)),
                        ("shards", Value::from(shards)),
                    ])
                })
                .collect();
            envelope(
                id.as_ref(),
                true,
                vec![
                    ("op".to_string(), Value::from("datasets")),
                    ("datasets".to_string(), Value::array(datasets)),
                ],
            )
        }
        Request::RegisterMonitor { id, name, spec } => match service.register_monitor(name, spec) {
            Ok(view) => envelope(
                id.as_ref(),
                true,
                vec![
                    ("op".to_string(), Value::from("register_monitor")),
                    ("monitor".to_string(), Value::from(name.as_str())),
                    ("dataset".to_string(), Value::from(view.dataset)),
                    ("rows".to_string(), Value::from(view.rows)),
                    ("per_k".to_string(), view.per_k),
                ],
            ),
            Err(e) => error_response(id.as_ref(), &e),
        },
        Request::MonitorUpdate { id, monitor, edits } => {
            // Cell resolution needs the monitor's dataset: parse against
            // it, then apply. The server holds the monitor's exclusive
            // ordering lane for the whole job, so no other update on this
            // monitor can interleave between the two.
            let result = service
                .with_monitor_dataset(monitor, |ds| edits_from_json(edits, ds))
                .and_then(|parsed| parsed.map_err(bad))
                .and_then(|parsed| service.monitor_update(monitor, &parsed));
            match result {
                Ok(update) => envelope(
                    id.as_ref(),
                    true,
                    vec![
                        ("op".to_string(), Value::from("update")),
                        ("monitor".to_string(), Value::from(monitor.as_str())),
                        ("dataset".to_string(), Value::from(update.dataset)),
                        ("rows".to_string(), Value::from(update.rows)),
                        (
                            "delta".to_string(),
                            delta_report_json(&update.delta, &update.space, strip_timing),
                        ),
                    ],
                ),
                Err(e) => error_response(id.as_ref(), &e),
            }
        }
        Request::MonitorSnapshot { id, monitor } => match service.monitor_snapshot(monitor) {
            Ok(view) => monitor_view_response(id.as_ref(), monitor, view),
            Err(e) => error_response(id.as_ref(), &e),
        },
        Request::Shutdown { id } => envelope(
            id.as_ref(),
            true,
            vec![("op".to_string(), Value::from("shutdown"))],
        ),
    }
}

fn monitor_view_response(id: Option<&Value>, monitor: &str, view: MonitorView) -> Value {
    let mut rest = vec![
        ("op".to_string(), Value::from("snapshot")),
        ("monitor".to_string(), Value::from(monitor)),
        ("dataset".to_string(), Value::from(view.dataset)),
        ("rows".to_string(), Value::from(view.rows)),
        ("per_k".to_string(), view.per_k),
    ];
    // Persistent-engine-state health: live checkpoints per direction,
    // their node footprint, and the seek/build/replay counters. All
    // deterministic (no wall clocks), so golden transcripts stay
    // byte-stable. Absent for baseline-engine monitors.
    if let Some(ck) = &view.checkpoints {
        rest.push(("checkpoints".to_string(), ck.to_json()));
    }
    envelope(id, true, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_request_round_trips_through_json() {
        let line = concat!(
            r#"{"id": 7, "dataset": "students", "#,
            r#""ranking": {"rank_by": "G3"}, "#,
            r#""task": {"type": "combined", "lower": 3, "upper": {"steps": [[10, 6], [20, 12]]}}, "#,
            r#""config": {"tau": 20, "kmin": 5, "kmax": 10, "deadline_s": 2.5}, "#,
            r#""engine": "baseline", "#,
            r#""attributes": ["school", "sex"], "bucketize": {"age": 3}}"#,
        );
        let parsed = parse_line(line).unwrap();
        let Request::Audit { id, request } = parsed else {
            panic!("expected audit request");
        };
        assert_eq!(id, Some(Value::Num(7.0)));
        assert_eq!(request.dataset, "students");
        assert_eq!(request.engine, Engine::Baseline);
        assert_eq!(request.config.tau_s, 20);
        assert_eq!(
            request.config.deadline,
            Some(std::time::Duration::from_secs_f64(2.5))
        );
        assert_eq!(request.bucketize, vec![("age".to_string(), 3)]);
        assert!(matches!(request.task, AuditTask::Combined { .. }));
        // Encode → parse again: semantically identical request.
        let encoded = request.to_json().render();
        let Request::Audit { request: again, .. } = parse_line(&encoded).unwrap() else {
            panic!("expected audit request");
        };
        assert_eq!(format!("{:?}", again), format!("{:?}", request));
        assert_eq!(again.cache_key(), request.cache_key());
    }

    #[test]
    fn register_with_shards_parses_and_defaults() {
        let r = parse_line(r#"{"op": "register", "name": "x", "csv": "y", "shards": 4}"#).unwrap();
        let Request::Register {
            shards, separator, ..
        } = r
        else {
            panic!("expected register request");
        };
        assert_eq!(shards, 4);
        assert_eq!(separator, ',');
        let r = parse_line(r#"{"op": "register", "name": "x", "csv": "y"}"#).unwrap();
        let Request::Register { shards, .. } = r else {
            panic!("expected register request");
        };
        assert_eq!(shards, 1);
        // Zero, negative and fractional shard counts are rejected.
        for bad in [
            r#"{"op": "register", "name": "x", "csv": "y", "shards": 0}"#,
            r#"{"op": "register", "name": "x", "csv": "y", "shards": -2}"#,
            r#"{"op": "register", "name": "x", "csv": "y", "shards": 2.5}"#,
            r#"{"op": "register", "name": "x", "csv": "y", "shards": "four"}"#,
        ] {
            assert!(parse_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn register_monitor_checkpoint_every_parses_strictly() {
        let base = concat!(
            r#"{"op": "register_monitor", "name": "m", "dataset": "d", "rank_by": "s", "#,
            r#""task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}"#,
        );
        let r = parse_line(&format!(r#"{base}, "checkpoint_every": 3}}"#)).unwrap();
        let Request::RegisterMonitor { spec, .. } = r else {
            panic!("expected register_monitor request");
        };
        assert_eq!(spec.checkpoint_every, 3);
        // Absent → the monitor's default cadence.
        let r = parse_line(&format!("{base}}}")).unwrap();
        let Request::RegisterMonitor { spec, .. } = r else {
            panic!("expected register_monitor request");
        };
        assert_eq!(
            spec.checkpoint_every,
            rankfair_core::MonitorAudit::DEFAULT_CHECKPOINT_CADENCE
        );
        // Zero, negative, fractional and non-numeric cadences are
        // rejected in-band, not clamped.
        for bad in [
            r#""checkpoint_every": 0"#,
            r#""checkpoint_every": -3"#,
            r#""checkpoint_every": 2.5"#,
            r#""checkpoint_every": "eight""#,
        ] {
            let line = format!("{base}, {bad}}}");
            assert!(parse_line(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn every_task_shape_parses() {
        for (json, want) in [
            (
                r#"{"type": "under", "measure": {"type": "global", "lower": 5}}"#,
                "UnderRep(GlobalLower(Constant(5)))",
            ),
            (
                r#"{"type": "under", "measure": {"type": "proportional", "alpha": 0.8}}"#,
                "UnderRep(Proportional { alpha: 0.8 })",
            ),
            (
                r#"{"type": "over", "upper": {"fraction": 0.5}, "scope": "general"}"#,
                "OverRep { upper: LinearFraction(0.5), scope: MostGeneral }",
            ),
            (
                r#"{"type": "over", "upper": 9}"#,
                "OverRep { upper: Constant(9), scope: MostSpecific }",
            ),
        ] {
            let task = task_from_json(&parse(json).unwrap()).unwrap();
            assert_eq!(format!("{task:?}"), want);
            // Encoding round-trips.
            let again = task_from_json(&task.to_json()).unwrap();
            assert_eq!(format!("{again:?}"), want);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_ids_preserved() {
        // Invalid JSON: no id recoverable.
        let (id, e) = parse_line("{nope").unwrap_err();
        assert!(id.is_none());
        assert!(e.to_string().contains("invalid JSON"));
        // Valid JSON, bad request: id survives for the error response.
        let (id, e) = parse_line(r#"{"id": "q1", "dataset": "x"}"#).unwrap_err();
        assert_eq!(id, Some(Value::from("q1")));
        assert!(e.to_string().contains("ranking"));
        let err_line = error_response(id.as_ref(), &e).render();
        assert!(
            err_line.starts_with(r#"{"id":"q1","ok":false"#),
            "{err_line}"
        );
        // Assorted shape errors.
        for bad_line in [
            r#"[1,2,3]"#,
            r#"{"op": "frobnicate"}"#,
            r#"{"op": "register", "name": "x"}"#,
            r#"{"op": "register", "name": "x", "csv": "y", "separator": "ab"}"#,
            r#"{"dataset": "d", "ranking": {}, "task": {"type": "under"}, "config": {}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "sideways"}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 0, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 5, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"order": [0, -1]}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}, "engine": "quantum"}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}, "bucketize": {"age": 0}}"#,
            // Unknown/misspelled members are rejected, never silently
            // dropped — a typoed knob must not change results.
            r#"{"dataset": "d", "ranking": {"rank_by": "c", "asc": true}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            // Members inapplicable to the chosen shape are rejected too.
            r#"{"dataset": "d", "ranking": {"rank_by": "c", "order": [0, 1]}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"order": [0, 1], "ascending": true}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "combined", "lower": 1, "upper": 2, "scope": "general"}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "under", "measure": {"type": "global", "lower": 1}, "upper": 5}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "under", "measure": {"type": "global", "lower": 1, "alpha": 0.5}}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "under", "measure": {"type": "proportional", "alpha": 0.5, "lower": 1}}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2, "deadline": 5}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2, "scopes": "general"}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "under", "measure": {"type": "proportional", "alpha": 0.8, "aplha": 1}}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": {"fraction": 0.5, "steep": 1}}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"dataset": "d", "extra": 1, "ranking": {"rank_by": "c"}, "task": {"type": "over", "upper": 2}, "config": {"tau": 1, "kmin": 1, "kmax": 2}}"#,
            r#"{"op": "register", "name": "x", "csv": "y", "separ": ";"}"#,
            r#"{"op": "datasets", "verbose": true}"#,
        ] {
            assert!(parse_line(bad_line).is_err(), "accepted {bad_line}");
        }
    }
}
