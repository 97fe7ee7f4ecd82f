//! The JSONL line server: read requests line by line, answer them on a
//! worker pool, write responses in request order.
//!
//! This is what `rankfair serve` runs against stdin/stdout, turning the
//! library into a long-lived scriptable process:
//!
//! ```text
//! $ rankfair serve --workers 4 < requests.jsonl > responses.jsonl
//! ```
//!
//! Ordering contract: responses appear in **request order** regardless of
//! worker count (a reorder buffer on the writer side). Mutations
//! (`register`, `register_monitor`, `update`) serialize **per resource**
//! through the ordering lanes of the shared session core (see
//! `crate::session`): a request sees exactly the dataset/monitor state at
//! the point its line appeared in the stream relative to other requests
//! *on that resource* — a `register` is a registry-entry barrier for its
//! own name, a monitor `update` is ordered against that monitor's
//! snapshots and its dataset's audits — while requests on unrelated
//! resources proceed in parallel. The same core drives the socket
//! front-end ([`crate::net`]), where the parallelism actually pays off
//! across connections.
//!
//! An `{"op": "shutdown"}` line answers, stops reading, and drains.
//!
//! Determinism: at `workers = 1` a session is fully deterministic apart
//! from wall-clock fields, and with [`ServeOptions::strip_timing`] those
//! are zeroed too — which is how the golden-file CI check diffs a whole
//! session byte-for-byte. At higher worker counts the report/stats
//! payloads are still deterministic, but *which* of several concurrently
//! racing cold requests for one cache key pays the build (the `cache.hit`
//! flag) is scheduling-dependent by nature — single-flight guarantees
//! exactly one build, not which request runs it.

use std::io::{BufRead, Write};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};

use crate::session::{Executor, Gate, LineOutcome, Session};
use crate::AuditService;

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads answering audit requests (min 1).
    pub workers: usize,
    /// Zero out `wall_ms` and `stats.elapsed_ms` so responses are
    /// byte-deterministic.
    pub strip_timing: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            strip_timing: false,
        }
    }
}

/// What a [`serve`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines answered (empty lines are skipped).
    pub requests: usize,
    /// How many of them answered `"ok": false`.
    pub errors: usize,
}

/// How many responses may be past dispatch but unwritten in a stdio
/// session — generous, since stdout cannot "never read" the way a
/// network peer can; it still bounds the reorder buffer on huge inputs.
fn pipeline_window(workers: usize) -> usize {
    (workers * 4).max(64)
}

/// Reads JSONL requests from `input` until EOF, answers them against
/// `service` on a pool of [`ServeOptions::workers`] threads, and writes
/// one JSONL response per request to `output`, in request order.
///
/// Individual request failures are answered in-band (`"ok": false`) and
/// never abort the session; the only `Err` here is an I/O failure on the
/// streams themselves.
pub fn serve<R: BufRead, W: Write + Send>(
    service: &AuditService,
    input: R,
    output: W,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let workers = opts.workers.max(1);
    // Declared before the scope so worker threads can borrow it.
    let exec = Executor::new(workers, opts.strip_timing);
    let gate = Arc::new(Gate::new(pipeline_window(workers)));
    let dead = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        exec.start_workers(scope, service);
        let (res_tx, res_rx) = mpsc::channel();
        let writer = scope.spawn({
            let gate = Arc::clone(&gate);
            let dead = Arc::clone(&dead);
            move || crate::session::write_responses(output, &res_rx, &gate, &dead)
        });
        let mut session =
            Session::new(&exec, service, res_tx, Arc::clone(&dead), Arc::clone(&gate));
        let mut read_error = None;
        for line in input.lines() {
            // Responses stopped being deliverable (output I/O error):
            // reading further input would silently discard it. Stop now;
            // the writer's error is surfaced below.
            if session.dead() {
                break;
            }
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            if session.dispatch_line(&line) == LineOutcome::Shutdown {
                break;
            }
        }
        // Drop the session (and with it this session's response sender):
        // once the in-flight jobs complete, the writer's receive loop
        // ends. Closing the executor lets the workers exit so the scope
        // can join.
        drop(session);
        exec.close();
        let summary = writer.join().expect("writer thread")?; // lint:allow(panic-path) -- join only errs if the writer thread panicked; re-raising on the serve thread beats silently losing the session summary
        match read_error {
            Some(e) => Err(e),
            None => Ok(summary),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::students_fig1;
    use std::io::Cursor;

    fn fig1_service() -> AuditService {
        let service = AuditService::new();
        service.register_dataset("fig1", Arc::new(students_fig1()));
        service
    }

    fn session(input: &str, workers: usize) -> (Vec<String>, ServeSummary) {
        let service = fig1_service();
        let mut out = Vec::new();
        let summary = serve(
            &service,
            Cursor::new(input.to_string()),
            &mut out,
            &ServeOptions {
                workers,
                strip_timing: true,
            },
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    fn audit_line(id: usize) -> String {
        format!(
            concat!(
                r#"{{"id": {}, "dataset": "fig1", "ranking": {{"rank_by": "Grade"}}, "#,
                r#""task": {{"type": "under", "measure": {{"type": "global", "lower": 2}}}}, "#,
                r#""config": {{"tau": 4, "kmin": 4, "kmax": 5}}}}"#
            ),
            id
        )
    }

    /// Re-renders a response line with the `cache` member removed — the
    /// one field that is legitimately scheduling-dependent when several
    /// cold requests race for the same key (single-flight guarantees one
    /// build, not *which* request runs it).
    fn strip_cache(line: &str) -> String {
        match rankfair_json::parse(line).expect("response is JSON") {
            rankfair_json::Value::Obj(pairs) => {
                rankfair_json::Value::Obj(pairs.into_iter().filter(|(k, _)| k != "cache").collect())
                    .render()
            }
            v => v.render(),
        }
    }

    #[test]
    fn answers_in_request_order_at_any_worker_count() {
        let input: String = (0..12).map(|i| audit_line(i) + "\n").collect::<String>() + "\n\n"; // trailing empty lines are skipped
        let (serial, s1) = session(&input, 1);
        for workers in [2, 4, 8] {
            let (parallel, sn) = session(&input, workers);
            // Payloads (reports, stats) are deterministic at any worker
            // count; only the cache-hit attribution may race.
            let a: Vec<String> = serial.iter().map(|l| strip_cache(l)).collect();
            let b: Vec<String> = parallel.iter().map(|l| strip_cache(l)).collect();
            assert_eq!(a, b, "workers={workers}");
            assert_eq!(s1, sn);
            // Single-flight: exactly one of the twelve shared-key
            // requests paid the build, whichever thread won.
            let misses = parallel
                .iter()
                .filter(|l| l.contains(r#""cache":{"hit":false"#))
                .count();
            assert_eq!(misses, 1, "workers={workers}");
        }
        assert_eq!(s1.requests, 12);
        assert_eq!(s1.errors, 0);
        for (i, line) in serial.iter().enumerate() {
            assert!(
                line.starts_with(&format!(r#"{{"id":{i},"ok":true"#)),
                "{line}"
            );
        }
        // Serial session: the first request builds, the rest hit.
        assert!(serial[0].contains(r#""cache":{"hit":false"#));
        for line in &serial[1..] {
            assert!(line.contains(r#""cache":{"hit":true"#), "{line}");
        }
    }

    #[test]
    fn register_is_a_barrier_for_in_flight_requests() {
        // Line order: audit against 60-row `d` with kmax 70 (must fail:
        // k_max exceeds the 60 ranked tuples) → re-register `d` with 100
        // rows → same audit again (must now succeed). Without the
        // dataset-lane ordering the first audit could race past the
        // re-registration and nondeterministically succeed.
        let dir =
            std::env::temp_dir().join(format!("rankfair_serve_barrier_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (small, large) = (dir.join("small.csv"), dir.join("large.csv"));
        for (path, rows) in [(&small, 60), (&large, 100)] {
            let ds = rankfair_synth::student(rankfair_synth::SynthConfig::new(rows, 5));
            rankfair_data::csv::write_csv(&ds, path, ',').unwrap();
        }
        let audit = |id: usize| {
            format!(
                concat!(
                    r#"{{"id": {}, "dataset": "d", "ranking": {{"rank_by": "G3"}}, "#,
                    r#""task": {{"type": "over", "upper": 5}}, "#,
                    r#""config": {{"tau": 10, "kmin": 5, "kmax": 70}}, "#,
                    r#""attributes": ["school", "sex"]}}"#
                ),
                id
            )
        };
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            format_args!(
                r#"{{"id": 0, "op": "register", "name": "d", "csv": {:?}}}"#,
                small.to_str().unwrap()
            ),
            audit(1),
            format_args!(
                r#"{{"id": 2, "op": "register", "name": "d", "csv": {:?}}}"#,
                large.to_str().unwrap()
            ),
            audit(3),
        );
        for workers in [1, 4] {
            let (lines, summary) = session(&input, workers);
            assert_eq!(summary.requests, 4, "workers={workers}");
            assert_eq!(summary.errors, 1, "workers={workers}");
            assert!(lines[0].contains(r#""rows":60"#), "{}", lines[0]);
            assert!(
                lines[1].contains(r#""kind":"invalid_k_range""#),
                "workers={workers}: {}",
                lines[1]
            );
            assert!(lines[2].contains(r#""rows":100"#), "{}", lines[2]);
            assert!(
                lines[3].contains(r#""ok":true"#),
                "workers={workers}: {}",
                lines[3]
            );
        }
    }

    #[test]
    fn mixed_ops_and_errors_stay_in_band() {
        let dir = std::env::temp_dir().join(format!("rankfair_serve_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("students.csv");
        let ds = rankfair_synth::student(rankfair_synth::SynthConfig::new(60, 5));
        rankfair_data::csv::write_csv(&ds, &path, ',').unwrap();
        let input = format!(
            concat!(
                r#"{{"id": 0, "op": "register", "name": "students", "csv": {path:?}}}"#,
                "\n",
                r#"{{"id": 1, "dataset": "students", "ranking": {{"rank_by": "G3"}}, "#,
                r#""task": {{"type": "over", "upper": 3}}, "#,
                r#""config": {{"tau": 10, "kmin": 5, "kmax": 8}}, "#,
                r#""attributes": ["school", "sex", "address"]}}"#,
                "\n",
                r#"{{"id": 2, "dataset": "missing", "ranking": {{"rank_by": "G3"}}, "#,
                r#""task": {{"type": "over", "upper": 3}}, "config": {{"tau": 10, "kmin": 5, "kmax": 8}}}}"#,
                "\n",
                "not json at all\n",
                r#"{{"id": 4, "op": "datasets"}}"#,
                "\n",
            ),
            path = path.to_str().unwrap()
        );
        let (lines, summary) = session(&input, 4);
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.errors, 2);
        assert!(lines[0].contains(r#""op":"register""#) && lines[0].contains(r#""rows":60"#));
        assert!(lines[1].contains(r#""ok":true"#) && lines[1].contains(r#""per_k""#));
        assert!(lines[2].contains(r#""kind":"unknown_dataset""#));
        assert!(lines[3].contains(r#""kind":"bad_request""#));
        // The datasets listing sees the stream's own registration plus the
        // preloaded fig1.
        assert!(lines[4].contains(r#""op":"datasets""#));
        assert!(lines[4].contains(r#""name":"fig1""#));
        assert!(lines[4].contains(r#""name":"students""#));
        // Every line parses as JSON.
        for line in &lines {
            rankfair_json::parse(line).unwrap();
        }
    }

    #[test]
    fn monitor_session_is_deterministic_at_any_worker_count() {
        let register = concat!(
            r#"{"id": 0, "op": "register_monitor", "name": "m", "dataset": "fig1", "#,
            r#""rank_by": "Grade", "task": {"type": "combined", "lower": 2, "upper": 3}, "#,
            r#""config": {"tau": 2, "kmin": 2, "kmax": 16}}"#
        );
        let update = concat!(
            r#"{"id": 1, "op": "update", "monitor": "m", "edits": ["#,
            r#"{"edit": "score", "row": 8, "score": 19.75}, "#,
            r#"{"edit": "insert", "cells": {"Gender": "F", "School": "GP", "#,
            r#""Address": "U", "Failures": "0", "Grade": 13.25}}]}"#
        );
        let input = [
            register,
            // Snapshots before and after the update must bracket it in
            // stream order (the monitor's lane orders them).
            r#"{"id": 1, "op": "snapshot", "monitor": "m"}"#,
            update,
            r#"{"id": 3, "op": "snapshot", "monitor": "m"}"#,
            // Audits against the dataset now see the evolved snapshot.
            r#"{"id": 4, "dataset": "fig1", "ranking": {"rank_by": "Grade"}, "task": {"type": "under", "measure": {"type": "global", "lower": 2}}, "config": {"tau": 4, "kmin": 4, "kmax": 5}}"#,
            // Error paths stay in-band.
            r#"{"id": 5, "op": "snapshot", "monitor": "nope"}"#,
            r#"{"id": 6, "op": "update", "monitor": "m", "edits": [{"edit": "score", "row": 999, "score": 1}]}"#,
            r#"{"id": 7, "op": "update", "monitor": "m", "edits": [{"edit": "warp"}]}"#,
        ]
        .join("\n");
        let (serial, summary) = session(&input, 1);
        assert_eq!(summary.requests, 8);
        assert_eq!(summary.errors, 3);
        assert!(
            serial[0].contains(r#""op":"register_monitor""#) && serial[0].contains(r#""rows":16"#)
        );
        assert!(serial[2].contains(r#""op":"update""#) && serial[2].contains(r#""rows":17"#));
        assert!(serial[2].contains(r#""recomputed""#));
        assert!(serial[3].contains(r#""rows":17"#));
        // The pre-update snapshot must show the pre-update row count.
        assert!(serial[1].contains(r#""rows":16"#), "{}", serial[1]);
        assert!(serial[5].contains(r#""kind":"unknown_monitor""#));
        assert!(serial[6].contains(r#""kind":"unknown_row""#));
        assert!(serial[7].contains(r#""kind":"bad_request""#));
        for line in &serial {
            rankfair_json::parse(line).unwrap();
        }
        // Monitor mutations hold the monitor's and dataset's lanes:
        // payloads are identical at any worker count, cache attribution
        // aside.
        for workers in [2, 4, 8] {
            let (parallel, sn) = session(&input, workers);
            let a: Vec<String> = serial.iter().map(|l| strip_cache(l)).collect();
            let b: Vec<String> = parallel.iter().map(|l| strip_cache(l)).collect();
            assert_eq!(a, b, "workers={workers}");
            assert_eq!(summary, sn);
        }
    }

    #[test]
    fn strip_timing_makes_serial_sessions_byte_identical() {
        let input = audit_line(1) + "\n" + &audit_line(1);
        let (a, _) = session(&input, 1);
        let (b, _) = session(&input, 1);
        assert_eq!(a, b);
        assert!(a[0].contains(r#""wall_ms":0"#));
        assert!(a[0].contains(r#""elapsed_ms":0"#));
        // Parallel sessions: payloads identical, cache attribution aside.
        let (c, _) = session(&input, 2);
        assert_eq!(
            a.iter().map(|l| strip_cache(l)).collect::<Vec<_>>(),
            c.iter().map(|l| strip_cache(l)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn shutdown_op_answers_then_stops_reading() {
        let input = format!(
            "{}\n{}\n{}\n",
            audit_line(0),
            r#"{"id": 1, "op": "shutdown"}"#,
            audit_line(2), // never read: the shutdown line ends the session
        );
        for workers in [1, 4] {
            let (lines, summary) = session(&input, workers);
            assert_eq!(summary.requests, 2, "workers={workers}");
            assert_eq!(summary.errors, 0, "workers={workers}");
            assert!(lines[0].contains(r#""id":0"#), "{}", lines[0]);
            assert_eq!(lines[1], r#"{"id":1,"ok":true,"op":"shutdown"}"#);
        }
    }
}
