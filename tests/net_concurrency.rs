//! Many-monitors concurrency over the socket front-end: 64 monitors
//! registered and updated from 64 simultaneous TCP connections, with
//! audits and snapshots interleaved into every session.
//!
//! What this pins down, per the lane design in
//! `crates/service/src/session.rs`:
//!
//! - **No global stall**: all 64 sessions are held open at once (a
//!   barrier releases them together) and every one must run to
//!   completion. Under the old global reader barrier a slow update on
//!   one monitor would serialize the entire sweep; under a lane bug it
//!   would wedge — either way this test hangs instead of passing.
//! - **Per-monitor order**: each session rewrites row 0 of its
//!   monitor's dataset every round; last-writer-wins means the final
//!   score is exactly the last round's value only if updates applied
//!   in client order.
//! - **Final state ≡ fresh build**: after shutdown, every monitor's
//!   snapshot (rows + per-`k` reports) must equal a [`MonitorAudit`]
//!   built from scratch over the monitor's evolved dataset — the
//!   incremental path may not drift from a fresh [`Audit::run`], no
//!   matter how the 64 sessions interleaved.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use rankfair::core::{AuditTask, Bounds, DetectConfig, Engine, MonitorAudit};
use rankfair::data::Column;
use rankfair::service::net::{serve_net, NetListeners, NetOptions};
use rankfair::service::AuditService;
use rankfair::synth::{random_dataset, RandomSpec};

const MONITORS: usize = 64;
const ROUNDS: usize = 6;
const ROWS: usize = 24;

/// Score written to `row` in `round` — distinct from every initial
/// score (`0..ROWS`), every row-0 sentinel, and every other update, so
/// the ranking never ties and a fresh rebuild is order-unambiguous.
fn unique_score(round: usize, row: usize) -> f64 {
    1_000.0 + (round * ROWS + row) as f64
}

/// Row-0 sentinel for `round`; the final value proves update order.
fn row0_score(round: usize) -> f64 {
    10_000.0 + round as f64
}

/// The monitor spec every session registers over the wire, mirrored
/// here for the fresh rebuild.
fn spec() -> (DetectConfig, AuditTask) {
    (
        DetectConfig::new(2, 2, ROWS),
        AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(3),
        },
    )
}

/// One round-trip: write the request line, read one response line,
/// require in-band success echoing the request id.
fn round_trip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, id: usize, req: &str) {
    conn.write_all(format!("{req}\n").as_bytes())
        .expect("request write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    assert!(
        line.contains(r#""ok":true"#),
        "request failed in-band: {req} -> {line}"
    );
    assert!(
        line.contains(&format!(r#""id":{id}"#)),
        "response answers the wrong request: {req} -> {line}"
    );
}

/// One session: register monitor `i` over dataset `i`, then `ROUNDS`
/// rounds of update → audit → snapshot, each answered in order.
fn drive_monitor(addr: &str, barrier: &Barrier, i: usize) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    // Hold until all 64 sessions are connected: the whole sweep runs
    // with 64 live connections, so cross-monitor serialization (or a
    // lane deadlock) shows up as a hang, not a silently slow pass.
    barrier.wait();
    let mut id = 0usize;
    let reg = format!(
        concat!(
            r#"{{"id":{id},"op":"register_monitor","name":"m{i}","dataset":"ds{i}","#,
            r#""rank_by":"score","task":{{"type":"combined","lower":2,"upper":3}},"#,
            r#""config":{{"tau":2,"kmin":2,"kmax":{rows}}}}}"#
        ),
        id = id,
        i = i,
        rows = ROWS
    );
    round_trip(&mut conn, &mut reader, id, &reg);
    for round in 0..ROUNDS {
        let row = 1 + (round % (ROWS - 1));
        id += 1;
        let update = format!(
            concat!(
                r#"{{"id":{id},"op":"update","monitor":"m{i}","edits":["#,
                r#"{{"edit":"score","row":{row},"score":{a}}},"#,
                r#"{{"edit":"score","row":0,"score":{b}}}]}}"#
            ),
            id = id,
            i = i,
            row = row,
            a = unique_score(round, row),
            b = row0_score(round)
        );
        round_trip(&mut conn, &mut reader, id, &update);
        id += 1;
        let audit = format!(
            concat!(
                r#"{{"id":{id},"dataset":"ds{i}","ranking":{{"rank_by":"score"}},"#,
                r#""task":{{"type":"under","measure":{{"type":"global","lower":2}}}},"#,
                r#""config":{{"tau":2,"kmin":2,"kmax":8}}}}"#
            ),
            id = id,
            i = i
        );
        round_trip(&mut conn, &mut reader, id, &audit);
        id += 1;
        let snap = format!(r#"{{"id":{id},"op":"snapshot","monitor":"m{i}"}}"#);
        round_trip(&mut conn, &mut reader, id, &snap);
    }
}

#[test]
fn sixty_four_monitors_update_concurrently_and_match_fresh_builds() {
    let service = AuditService::new();
    let mut base = random_dataset(
        0xC0FFEE % 100_000,
        RandomSpec {
            rows: ROWS,
            attrs: 3,
            max_card: 3,
        },
    );
    base.push_column(Column::numeric(
        "score",
        (0..ROWS).map(|r| r as f64).collect(),
    ))
    .expect("score column");
    let base = Arc::new(base);
    // 64 registry names aliasing one snapshot: each monitor republishes
    // its own evolved copy under its own name, so sessions only ever
    // contend on the lanes, never on shared data.
    for i in 0..MONITORS {
        service.register_dataset(&format!("ds{i}"), Arc::clone(&base));
    }
    let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).expect("bind");
    let addr = listeners.local_addrs().remove(0);
    let addr = addr.strip_prefix("tcp:").expect("tcp addr").to_string();
    let handle = listeners.handle();
    let opts = NetOptions {
        workers: 8,
        strip_timing: true,
        ..NetOptions::default()
    };
    let summary = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(&service, listeners, &opts));
        let barrier = Barrier::new(MONITORS);
        std::thread::scope(|clients| {
            for i in 0..MONITORS {
                let addr = &addr;
                let barrier = &barrier;
                clients.spawn(move || drive_monitor(addr, barrier, i));
            }
        });
        handle.shutdown();
        server.join().expect("server thread")
    });
    assert_eq!(summary.connections, MONITORS);
    assert_eq!(summary.requests, MONITORS * (1 + 3 * ROUNDS));
    assert_eq!(summary.errors, 0);

    // Ground truth per monitor: order via the row-0 sentinel, then a
    // from-scratch rebuild over the evolved dataset.
    let (cfg, task) = spec();
    for i in 0..MONITORS {
        let name = format!("m{i}");
        let evolved = service
            .with_monitor_dataset(&name, |ds| ds.clone())
            .expect("monitor dataset");
        let score_col = evolved.column_index("score").expect("score column");
        assert_eq!(
            evolved.value(0, score_col),
            row0_score(ROUNDS - 1),
            "{name}: updates applied out of order"
        );
        for round in 0..ROUNDS {
            let row = 1 + (round % (ROWS - 1));
            assert_eq!(
                evolved.value(row, score_col),
                unique_score(round, row),
                "{name}: round {round} edit lost"
            );
        }
        let view = service.monitor_snapshot(&name).expect("snapshot");
        let fresh = MonitorAudit::builder(evolved, "score")
            .build(cfg.clone(), task.clone(), Engine::Optimized)
            .expect("fresh build");
        assert_eq!(view.rows, fresh.n_rows(), "{name}: row count diverged");
        assert_eq!(
            view.per_k.render(),
            rankfair::core::json::reports_json(&fresh.reports(), fresh.space()).render(),
            "{name}: monitor state diverged from a fresh audit"
        );
    }
}
