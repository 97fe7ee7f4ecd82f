//! Wire-protocol robustness: byte-level corruption of a valid request
//! stream must never panic the server. `serve` answers every non-blank
//! line, one that is not valid UTF-8 included, with either a valid
//! response or an in-band `{"ok": false, ...}` error — never a crash,
//! never a half-written line, never an early stop.

use std::io::{BufRead as _, BufReader, Cursor, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rankfair::service::net::{serve_net, NetHandle, NetListeners, NetOptions, NetSummary};
use rankfair::service::serve::{serve, ServeOptions};
use rankfair::service::AuditService;

fn requests() -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/serve_requests.jsonl");
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

fn monitor_requests() -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/monitor_requests.jsonl");
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

fn run(input: Vec<u8>, workers: usize) -> std::io::Result<(usize, Vec<String>)> {
    let service = AuditService::new();
    service.register_dataset("fig1", Arc::new(rankfair::data::examples::students_fig1()));
    let mut out = Vec::new();
    let summary = serve(
        &service,
        Cursor::new(input),
        &mut out,
        &ServeOptions {
            workers,
            strip_timing: true,
        },
    )?;
    let text = String::from_utf8(out).expect("responses are always UTF-8");
    Ok((summary.requests, text.lines().map(str::to_string).collect()))
}

/// The lines `serve` answers: every line that is not blank, one that is
/// not valid UTF-8 included.
fn non_blank_lines(bytes: &[u8]) -> usize {
    bytes
        .split(|&b| b == b'\n')
        .filter(|line| std::str::from_utf8(line).map_or(true, |l| !l.trim().is_empty()))
        .count()
}

/// Runs a corrupted stream, which must be answered line for line.
fn assert_every_line_answered(bytes: Vec<u8>, workers: usize, case: usize) {
    let expected = non_blank_lines(&bytes);
    let (answered, lines) =
        run(bytes, workers).unwrap_or_else(|e| panic!("case {case}: I/O error {e}"));
    assert_eq!(answered, expected, "case {case}");
    assert_eq!(lines.len(), expected, "case {case}");
    assert_lines_well_formed(&lines);
}

fn assert_lines_well_formed(lines: &[String]) {
    for line in lines {
        let v = rankfair::json::parse(line)
            .unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"));
        let ok = v
            .get("ok")
            .and_then(|b| b.as_bool())
            .unwrap_or_else(|| panic!("response without boolean `ok`: {line}"));
        if !ok {
            assert!(
                v.get("error").and_then(|e| e.get("kind")).is_some(),
                "error response without error.kind: {line}"
            );
        }
    }
}

/// Printable-ASCII corruption keeps the stream valid UTF-8, so the
/// server must answer **every** (non-empty) line in-band.
#[test]
fn printable_ascii_mutations_always_answer_in_band() {
    let base = requests();
    let mut rng = StdRng::seed_from_u64(0xF022);
    for case in 0..120 {
        let mut bytes = base.clone();
        match rng.random_range(0..3usize) {
            // Truncate at an arbitrary offset.
            0 => {
                let cut = rng.random_range(0..bytes.len());
                bytes.truncate(cut);
            }
            // Overwrite a byte with a random printable character.
            1 => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] = rng.random_range(0x20usize..0x7f) as u8;
            }
            // Insert a random printable character.
            _ => {
                let at = rng.random_range(0..=bytes.len());
                let c = rng.random_range(0x20usize..0x7f) as u8;
                bytes.insert(at, c);
            }
        }
        let expected_lines = String::from_utf8(bytes.clone())
            .expect("printable mutations keep UTF-8 valid")
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        let workers = [1, 4][case % 2];
        let (answered, lines) =
            run(bytes, workers).expect("valid-UTF-8 input must not be an I/O error");
        assert_eq!(answered, expected_lines, "case {case}");
        assert_eq!(lines.len(), expected_lines, "case {case}");
        assert_lines_well_formed(&lines);
    }
}

/// Arbitrary byte corruption (flips, insertions, truncation) may break
/// UTF-8 mid-stream: the server must still never panic, and must answer
/// every non-blank line well-formed, a line that is not valid UTF-8 with
/// an in-band error.
#[test]
fn arbitrary_byte_mutations_never_panic() {
    let base = requests();
    let mut rng = StdRng::seed_from_u64(0xB17E);
    for case in 0..120 {
        let mut bytes = base.clone();
        for _ in 0..=rng.random_range(0..4usize) {
            match rng.random_range(0..3usize) {
                0 => {
                    let cut = rng.random_range(0..bytes.len());
                    bytes.truncate(cut.max(1));
                }
                1 => {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] = (rng.random::<u32>() & 0xff) as u8;
                }
                _ => {
                    let at = rng.random_range(0..=bytes.len());
                    bytes.insert(at, (rng.random::<u32>() & 0xff) as u8);
                }
            }
        }
        assert_every_line_answered(bytes, [1, 2, 8][case % 3], case);
    }
}

/// The original, uncorrupted stream sanity-checks the harness itself.
#[test]
fn uncorrupted_stream_answers_every_line() {
    let (answered, lines) = run(requests(), 4).unwrap();
    assert_eq!(answered, 10);
    assert_eq!(lines.len(), 10);
    assert_lines_well_formed(&lines);
}

/// Byte-level corruption of the **monitor** op stream
/// (`register_monitor` / `update` / `snapshot`): a mangled `update` must
/// surface as an in-band error, never as a panic — a panicking serve
/// worker would take the whole session down. This drives
/// the monitor's edit validation and the (debug-assert-guarded)
/// `RankedIndex::rewrite_span` patch path under every corruption the
/// wire can deliver.
#[test]
fn corrupted_monitor_update_streams_never_panic() {
    let base = monitor_requests();
    let mut rng = StdRng::seed_from_u64(0x0b5e);
    for case in 0..120 {
        let mut bytes = base.clone();
        for _ in 0..=rng.random_range(0..3usize) {
            match rng.random_range(0..4usize) {
                0 => {
                    let cut = rng.random_range(0..bytes.len());
                    bytes.truncate(cut.max(1));
                }
                1 => {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] = rng.random_range(0x20usize..0x7f) as u8;
                }
                2 => {
                    let at = rng.random_range(0..=bytes.len());
                    bytes.insert(at, rng.random_range(0x20usize..0x7f) as u8);
                }
                _ => {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] = (rng.random::<u32>() & 0xff) as u8;
                }
            }
        }
        assert_every_line_answered(bytes, [1, 2, 4][case % 3], case);
    }
}

/// Hostile but well-formed-JSON `update` ops — out-of-range and absurd
/// row ids, non-finite and overflowing scores, wrong-arity and
/// wrong-kind cells, unknown labels and columns, empty and nested edit
/// batches — every one must be answered in-band with `"ok": false`
/// while the monitor keeps serving correct snapshots afterwards.
#[test]
fn hostile_update_ops_answer_in_band() {
    let mut input = String::from(concat!(
        r#"{"id": 0, "op": "register_monitor", "name": "m", "dataset": "fig1", "#,
        r#""rank_by": "Grade", "task": {"type": "combined", "lower": 2, "upper": 3}, "#,
        r#""config": {"tau": 2, "kmin": 2, "kmax": 16}}"#,
        "\n",
    ));
    let hostile = [
        r#"{"edit": "score", "row": 4294967295, "score": 1}"#,
        // One past TupleId::MAX: a bare `as u32` cast would wrap this to
        // row 0 and silently re-score the wrong tuple.
        r#"{"edit": "score", "row": 4294967296, "score": 1}"#,
        r#"{"edit": "score", "row": 99999999999999999999, "score": 1}"#,
        r#"{"edit": "score", "row": -3, "score": 1}"#,
        r#"{"edit": "score", "row": 0, "score": 1e309}"#,
        r#"{"edit": "score", "row": 0.5, "score": 1}"#,
        r#"{"edit": "score", "row": 0}"#,
        r#"{"edit": "insert", "cells": {}}"#,
        r#"{"edit": "insert", "cells": {"Gender": "F"}}"#,
        r#"{"edit": "insert", "cells": {"Gender": "F", "School": "GP", "Address": "U", "Failures": "0", "Grade": 1, "Bogus": 2}}"#,
        r#"{"edit": "insert", "cells": {"Gender": 7, "School": "GP", "Address": "U", "Failures": "0", "Grade": 1}}"#,
        r#"{"edit": "insert", "cells": {"Gender": "???", "School": "GP", "Address": "U", "Failures": "0", "Grade": 1}}"#,
        r#"{"edit": "insert", "cells": {"Gender": "F", "School": "GP", "Address": "U", "Failures": "0", "Grade": "ten"}}"#,
        r#"{"edit": "teleport", "row": 1}"#,
        r#"{"edits": [{"edit": "score", "row": 0, "score": 2}]}"#,
        r#"[]"#,
        r#"17"#,
    ];
    for (i, edit) in hostile.iter().enumerate() {
        input.push_str(&format!(
            "{{\"id\": {}, \"op\": \"update\", \"monitor\": \"m\", \"edits\": [{edit}]}}\n",
            i + 1,
        ));
    }
    // A valid update and a snapshot close the session: the monitor must
    // still be alive and consistent after the onslaught.
    input.push_str(concat!(
        r#"{"id": 90, "op": "update", "monitor": "m", "edits": "#,
        r#"[{"edit": "score", "row": 5, "score": 19.5}]}"#,
        "\n",
    ));
    input.push_str("{\"id\": 91, \"op\": \"snapshot\", \"monitor\": \"m\"}\n");
    let (answered, lines) = run(input.into_bytes(), 2).expect("valid UTF-8 stream");
    assert_eq!(answered, hostile.len() + 3);
    assert_lines_well_formed(&lines);
    for line in &lines {
        let v = rankfair::json::parse(line).unwrap();
        // The non-finite-score line is rejected by the JSON parser
        // itself, so its in-band error carries no id.
        let id = v.get("id").and_then(|i| i.as_usize());
        let ok = v.get("ok").and_then(|b| b.as_bool()).unwrap();
        match id {
            Some(0) | Some(90) | Some(91) => assert!(ok, "expected success: {line}"),
            _ => assert!(!ok, "hostile edit must fail in-band: {line}"),
        }
    }
}

/// `register.shards` may not exceed the CSV's row count: one request past
/// it would make the first audit allocate a boundary per block (about
/// 34 GB at `u32::MAX`), which no in-band error can catch, so it is
/// answered in-band as `bad_request` and registers nothing. At the cap
/// every row is its own block, and an audit equals the unsharded one.
#[test]
fn register_shards_past_the_row_count_is_a_bad_request() {
    let dir = std::env::temp_dir().join(format!("rankfair_wire_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("fig1.csv");
    let fig1 = rankfair::data::examples::students_fig1();
    assert_eq!(fig1.n_rows(), 16);
    rankfair::data::csv::write_csv(&fig1, &csv, ',').unwrap();
    let csv = csv.to_str().unwrap();
    let register = |id: usize, name: &str, shards: usize| {
        format!(
            r#"{{"id": {id}, "op": "register", "name": "{name}", "csv": "{csv}", "shards": {shards}}}"#
        )
    };
    let audit = |id: usize, dataset: &str| {
        format!(
            r#"{{"id": {id}, "dataset": "{dataset}", "ranking": {{"rank_by": "Grade"}}, "task": {{"type": "combined", "lower": 2, "upper": 3}}, "config": {{"tau": 2, "kmin": 2, "kmax": 16}}}}"#
        )
    };
    let input = [
        register(1, "too_many", 17),
        register(2, "at_cap", 16),
        register(3, "one", 1),
        audit(4, "at_cap"),
        audit(5, "one"),
    ]
    .map(|line| line + "\n")
    .concat();
    let (answered, lines) = run(input.into_bytes(), 1).expect("valid UTF-8 stream");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(answered, 5);
    assert_lines_well_formed(&lines);
    let by_id = |id: usize| {
        lines
            .iter()
            .map(|line| rankfair::json::parse(line).unwrap())
            .find(|v| v.get("id").and_then(|i| i.as_usize()) == Some(id))
            .unwrap_or_else(|| panic!("no response for id {id}"))
    };
    let rejected = by_id(1);
    assert_eq!(rejected.get("ok").and_then(|b| b.as_bool()), Some(false));
    let kind = rejected.get("error").and_then(|e| e.get("kind"));
    assert_eq!(
        kind.and_then(|k| k.as_str()),
        Some("bad_request"),
        "{rejected:?}"
    );
    for id in 2..=5 {
        let v = by_id(id);
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    }
    assert_eq!(by_id(2).get("shards").and_then(|s| s.as_usize()), Some(16));
    let (sharded, single) = (by_id(4), by_id(5));
    assert!(!sharded.get("per_k").unwrap().as_arr().unwrap().is_empty());
    assert_eq!(sharded.get("per_k"), single.get("per_k"));
    assert_eq!(sharded.get("stats"), single.get("stats"));
}

/// A bucketize bin is a dictionary code, so `u16::MAX` bins is the most
/// a column can take: one more is answered in-band as `prepare`, before
/// anything is allocated for the bins, instead of wrapping codes past the
/// cap and panicking the audit.
#[test]
fn bucketize_past_the_dictionary_cap_is_a_prepare_error() {
    let audit = |id: usize, bins: usize| {
        format!(
            r#"{{"id": {id}, "dataset": "fig1", "ranking": {{"rank_by": "Grade"}}, "task": {{"type": "under", "measure": {{"type": "global", "lower": 2}}}}, "config": {{"tau": 4, "kmin": 4, "kmax": 5}}, "bucketize": {{"Grade": {bins}}}}}"#
        )
    };
    let input = [audit(1, 65_536), audit(2, 65_535)]
        .map(|line| line + "\n")
        .concat();
    let (answered, lines) = run(input.into_bytes(), 1).expect("valid UTF-8 stream");
    assert_eq!(answered, 2);
    assert_lines_well_formed(&lines);
    let [rejected, capped] = [0, 1].map(|i| rankfair::json::parse(&lines[i]).unwrap());
    assert_eq!(rejected.get("id").and_then(|i| i.as_usize()), Some(1));
    assert_eq!(rejected.get("ok").and_then(|b| b.as_bool()), Some(false));
    let kind = rejected.get("error").and_then(|e| e.get("kind"));
    assert_eq!(
        kind.and_then(|k| k.as_str()),
        Some("prepare"),
        "{rejected:?}"
    );
    assert_eq!(capped.get("id").and_then(|i| i.as_usize()), Some(2));
    assert_eq!(
        capped.get("ok").and_then(|b| b.as_bool()),
        Some(true),
        "{capped:?}"
    );
}

// ---------------------------------------------------------------------------
// Socket framing: the same robustness contract over the TCP front-end.
// The socket reader reassembles lines from arbitrary segment boundaries,
// so every split, stall, and disconnect the transport can produce must
// leave the server answering in-band or closing cleanly — never stuck,
// never panicking, never emitting a half-written line.
// ---------------------------------------------------------------------------

/// Shuts a server down when dropped.
struct StopOnDrop(NetHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `serve_net` on a loopback TCP listener with `fig1` preloaded and
/// hands the client closure the `host:port` address. Shuts the server
/// down once the closure returns, or unwinds, so that a failed client
/// assertion fails the test instead of hanging it, and reports the
/// summary alongside the closure's result.
fn with_net_server<T: Send>(
    opts: NetOptions,
    client: impl FnOnce(&str) -> T + Send,
) -> (NetSummary, T) {
    let service = AuditService::new();
    service.register_dataset("fig1", Arc::new(rankfair::data::examples::students_fig1()));
    let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).unwrap();
    let addr = listeners.local_addrs().remove(0);
    let addr = addr.strip_prefix("tcp:").unwrap().to_string();
    let stop = StopOnDrop(listeners.handle());
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(&service, listeners, &opts));
        let out = client(&addr);
        drop(stop);
        (server.join().expect("server thread"), out)
    })
}

/// Lines split across TCP segments: the request stream dribbled to the
/// socket in tiny random chunks (1–6 bytes, i.e. every request arrives
/// across many partial writes) must produce **byte-identical** responses
/// to the stdio transport over the same bytes — for the fixture, and for
/// the fixture with a line that is not valid UTF-8 after its second
/// request, which both transports answer in-band and then read on.
#[test]
fn socket_lines_split_across_segments_match_stdio() {
    let base = requests();
    let second_eol = base
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(1)
        .unwrap()
        .0;
    let mut not_utf8 = base[..=second_eol].to_vec();
    not_utf8.extend_from_slice(b"{\"id\": 99, \"op\": \"datasets\xff\"}\n");
    not_utf8.extend_from_slice(&base[second_eol + 1..]);
    let mut rng = StdRng::seed_from_u64(0x5E61);
    for (input, stream) in [base, not_utf8].iter().enumerate() {
        let (_, stdio_lines) = run(stream.clone(), 1).unwrap();
        for case in 0..4 {
            let opts = NetOptions {
                workers: 1,
                strip_timing: true,
                ..NetOptions::default()
            };
            let (summary, lines) = with_net_server(opts, |addr| {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_nodelay(true).unwrap();
                let mut pos = 0;
                let mut chunks = 0usize;
                while pos < stream.len() {
                    let end = (pos + rng.random_range(1..=6usize)).min(stream.len());
                    conn.write_all(&stream[pos..end]).unwrap();
                    chunks += 1;
                    // An occasional stall between segments exercises the
                    // reader's timeout-and-retry path mid-line.
                    if chunks.is_multiple_of(64) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    pos = end;
                }
                let reader = BufReader::new(conn);
                reader
                    .lines()
                    .take(stdio_lines.len())
                    .map(|l| l.unwrap())
                    .collect::<Vec<String>>()
            });
            assert_eq!(lines, stdio_lines, "input {input} case {case}");
            assert_eq!(
                summary.requests,
                stdio_lines.len(),
                "input {input} case {case}"
            );
            // The fixture deliberately includes bad requests; the socket
            // transport must count exactly the same in-band errors.
            let expected_errors = stdio_lines
                .iter()
                .filter(|l| l.contains(r#""ok":false"#))
                .count();
            assert_eq!(summary.errors, expected_errors, "input {input} case {case}");
        }
    }
}

/// Mid-line disconnects: a client that cuts the stream at an arbitrary
/// byte offset and half-closes gets an answer for every **complete**
/// line it managed to send — the trailing unterminated fragment is
/// dropped, the connection closes cleanly, and the server keeps
/// accepting fresh connections afterwards.
#[test]
fn mid_line_disconnects_answer_complete_lines_then_close() {
    let base = requests();
    let opts = NetOptions {
        workers: 2,
        strip_timing: true,
        ..NetOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0xD15C);
    const CASES: usize = 10;
    let (summary, ()) = with_net_server(opts, |addr| {
        for case in 0..CASES {
            let cut = rng.random_range(1..base.len());
            let prefix = &base[..cut];
            // Complete lines are everything before the last newline;
            // blank ones are skipped, per the wire contract.
            let expected = String::from_utf8_lossy(prefix)
                .rsplit_once('\n')
                .map_or(0, |(head, _)| {
                    head.lines().filter(|l| !l.trim().is_empty()).count()
                });
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(prefix).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let reader = BufReader::new(conn);
            let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), expected, "case {case} (cut at {cut})");
            assert_lines_well_formed(&lines);
        }
    });
    assert_eq!(summary.connections, CASES);
}

/// Oversized lines against the read cap: a line **at** `max_line_bytes`
/// is still parsed (and answered in-band, here as a JSON error), one
/// byte **over** draws an in-band `bad_request` naming the cap and the
/// connection is closed — the reader never buffers past the limit.
#[test]
fn oversized_lines_hit_the_read_cap_in_band() {
    let opts = NetOptions {
        workers: 1,
        strip_timing: true,
        max_line_bytes: 512,
        ..NetOptions::default()
    };
    let first_request = {
        let base = requests();
        let eol = base.iter().position(|&b| b == b'\n').unwrap();
        base[..=eol].to_vec()
    };
    let (summary, ()) = with_net_server(opts, |addr| {
        // Exactly at the cap: garbage JSON, but framed fine — answered
        // in-band and the session stays open for a valid follow-up.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut at_cap = vec![b'x'; 512];
        at_cap.push(b'\n');
        conn.write_all(&at_cap).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":false"#) && line.contains("bad_request"),
            "at-cap garbage answered in-band: {line}"
        );
        conn.write_all(&first_request).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":true"#),
            "session survives an at-cap line: {line}"
        );
        drop((conn, reader));

        // One byte over: in-band error naming the cap, then EOF.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut over = vec![b'y'; 513];
        over.push(b'\n');
        conn.write_all(&over).unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":false"#) && line.contains("512"),
            "over-cap line names the cap: {line}"
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "connection closes after an over-cap line"
        );
    });
    assert_eq!(summary.connections, 2);
}

/// A client that pipelines far past the window and never reads: the
/// pipeline gate bounds what the server buffers (memory stays bounded
/// instead of OOMing), other connections stay fully served, and once
/// the stalled client finally reads it receives every response in
/// order.
#[test]
fn never_reading_client_stalls_only_itself() {
    const BACKLOG: usize = 4_000;
    let opts = NetOptions {
        workers: 2,
        strip_timing: true,
        pipeline_window: 8,
        ..NetOptions::default()
    };
    let first_request = {
        let base = requests();
        let eol = base.iter().position(|&b| b == b'\n').unwrap();
        base[..=eol].to_vec()
    };
    let (summary, ()) = with_net_server(opts, |addr| {
        let stalled = TcpStream::connect(addr).unwrap();
        let mut stalled_writer = stalled.try_clone().unwrap();
        // Blast requests without ever reading. The writes themselves
        // block once the 8-response window plus the kernel buffers
        // fill, so they run on their own thread.
        let pump = std::thread::spawn(move || {
            let line = b"{\"op\": \"datasets\"}\n";
            for _ in 0..BACKLOG {
                if stalled_writer.write_all(line).is_err() {
                    panic!("server dropped a backpressured connection");
                }
            }
        });
        std::thread::sleep(Duration::from_millis(100));

        // A second connection is answered while the first is wedged.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        conn.write_all(&first_request).unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(r#""ok":true"#),
            "an independent connection must not stall: {line}"
        );
        drop(reader);

        // Draining the stalled connection yields every response, in
        // order, well-formed.
        let reader = BufReader::new(stalled);
        let mut ids = 0usize;
        let lines: Vec<String> = reader
            .lines()
            .take(BACKLOG)
            .map(|l| l.unwrap())
            .inspect(|_| ids += 1)
            .collect();
        assert_eq!(ids, BACKLOG);
        assert_lines_well_formed(&lines);
        pump.join().expect("pump thread");
    });
    assert_eq!(summary.requests, BACKLOG + 1);
    assert_eq!(summary.errors, 0);
}
