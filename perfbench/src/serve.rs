//! `serve-mixed`: `serve_net` in-process on TCP loopback, `workers =
//! nproc`, 16 live monitors each on its own registered COMPAS dataset of
//! 1 722 rows. Traffic is ~60% wire `audit` (single `k = 20`, the §VI-A
//! bucketization), ~25% `snapshot` and ~15% one-edit `update`, sent as an
//! open loop at a few fixed rates over one pipelined connection (one
//! sender thread, one receiver thread), then as a burst far above what
//! the server can answer, whose completion rate is its capacity.
//!
//! An update republishes its monitor's dataset and evicts that dataset's
//! cached audit, so reads next to writes set the cache hit ratio. The 16
//! cache keys stay under the service's 64-entry cap, where eviction would
//! be arbitrary and the hit ratio nondeterministic.
//!
//! After the network phase the same lines are replayed serially through
//! `wire::parse_line`, `wire::execute` and `Value::render` on a second,
//! identically set-up service: the replay checks every response, times
//! the layers a request passes through, and gives the service time that is
//! the workload's end-to-end latency.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rankfair_data::Column;
use rankfair_service::net::{serve_net, NetListeners, NetOptions};
use rankfair_service::{wire, AuditService};

use crate::gauge::Gauge;
use crate::metrics::Metrics;
use crate::openloop::{
    latency_from_due_ms, lateness_ms, outstanding_at, run_schedule, schedule, step_sustained,
    Clock, RealClock,
};
use crate::stats::{median, tail, windowed_tail, Tail};
use crate::trace::{overhead, Trace};
use crate::{compas, setup_median, Outcome, RunConfig};

const DATASETS: usize = 16;
const ROWS: usize = 1722;
const SCORE: &str = "__score";

/// The fixed request rates, per second, each with the share of the run's
/// seconds it lasts and the metric names of its backlog and tail. The
/// first is the reference rate, well below capacity, so its latency reads
/// service time rather than queueing; it runs longest because its median
/// is an end-to-end metric. `max_rate_qps` is the highest of these rates
/// the server sustains.
const STEPS: &[(f64, f64, &str, &str)] = &[
    (500.0, 0.4, "serve.backlog.r0500", "serve.tail_ms.r0500"),
    (1000.0, 0.2, "serve.backlog.r1000", "serve.tail_ms.r1000"),
    (2000.0, 0.2, "serve.backlog.r2000", "serve.tail_ms.r2000"),
    (4000.0, 0.1, "serve.backlog.r4000", "serve.tail_ms.r4000"),
];
/// The step whose latency is reported as `op_ms_*` / `req_ms_*`.
const REFERENCE_STEP: usize = 0;
/// After the rate steps, a burst offered at this rate, many times what
/// the server answers (about 2 000/s on 2 cores): its completion rate is
/// the server's capacity, `throughput_per_s`.
const BURST_RATE: f64 = 32_000.0;
/// Requests in the burst per second of the run.
const BURST_PER_SECOND: f64 = 250.0;
/// A burst answered at more than this share of its offered rate did not
/// overload the server, so its completion rate is not a capacity: the run
/// fails and [`BURST_RATE`] must be raised.
const BURST_MAX_SHARE: f64 = 0.5;
/// How often the host gauge is read between replayed lines.
const GAUGE_EVERY: Duration = Duration::from_millis(100);
/// A step is sustained only if its tail stays within this limit.
const LIMIT_MS: f64 = 50.0;
/// Longest wait for a step's responses before the next step starts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// A socket read or write blocked this long fails the rest of the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Op mix, in percent: audit, snapshot, then update.
const AUDIT_PCT: u32 = 60;
const SNAPSHOT_PCT: u32 = 25;

/// Pattern attributes of the monitors: the categorical COMPAS columns
/// (monitors take no bucketization).
const MONITOR_ATTRS: &str =
    r#"["sex","race","c_charge_degree","is_recid","is_violent_recid","decile_score","score_text"]"#;
const LOWER: &str = r#"{"steps":[[10,10],[20,20],[30,30],[40,40]]}"#;

/// Dataset `i`: raw COMPAS instance `i`, its rows in an order drawn from
/// the seed (see `compas::permuted`), plus its ranking score as a numeric
/// column.
fn dataset(seed: u64, i: usize) -> rankfair_data::Dataset {
    let mut ds = compas::permuted(ROWS, i as u64, seed.wrapping_add(i as u64));
    let scores = compas::ranker().scores(&ds);
    ds.push_column(Column::numeric(SCORE, scores))
        .expect("fresh column name");
    ds
}

fn register_monitor_line(i: usize) -> String {
    format!(
        r#"{{"op":"register_monitor","name":"m{i}","dataset":"ds{i}","rank_by":"{SCORE}","attributes":{MONITOR_ATTRS},"task":{{"type":"under","measure":{{"type":"global","lower":{LOWER}}}}},"config":{{"tau":50,"kmin":10,"kmax":49}}}}"#
    )
}

/// A service with the datasets registered and the monitors built.
fn setup(seed: u64) -> Result<AuditService, String> {
    let service = AuditService::new();
    for i in 0..DATASETS {
        service.register_dataset(&format!("ds{i}"), Arc::new(dataset(seed, i)));
    }
    for i in 0..DATASETS {
        let request = wire::parse_line(&register_monitor_line(i))
            .map_err(|(_, e)| format!("register_monitor line: {e}"))?;
        let response = wire::execute(&service, &request, true).render();
        if !response.contains(r#""ok":true"#) {
            return Err(format!("register_monitor m{i}: {response}"));
        }
    }
    Ok(service)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Audit,
    Snapshot,
    Update,
}

/// The request lines of the whole run, in send order, with their op.
fn request_lines(seed: u64, counts: &[usize]) -> Vec<(Op, String)> {
    let bucketize = compas::BUCKETS
        .iter()
        .map(|(c, b)| format!(r#""{c}":{b}"#))
        .collect::<Vec<_>>()
        .join(",");
    // Updates move a random row to a score inside the initial top-60, so
    // most of them reorder the audited top-k.
    let ranges: Vec<(f64, f64)> = (0..DATASETS)
        .map(|i| {
            let mut s = compas::ranker().scores(&dataset(seed, i));
            s.sort_by(|a, b| b.total_cmp(a));
            (s[59], s[0])
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5345_5256);
    let total: usize = counts.iter().sum();
    (0..total)
        .map(|id| {
            let i = rng.random_range(0..DATASETS);
            let pick = rng.random_range(0..100u32);
            if pick < AUDIT_PCT {
                (
                    Op::Audit,
                    format!(
                        r#"{{"id":{id},"dataset":"ds{i}","ranking":{{"rank_by":"{SCORE}"}},"task":{{"type":"under","measure":{{"type":"global","lower":{LOWER}}}}},"config":{{"tau":50,"kmin":20,"kmax":20}},"bucketize":{{{bucketize}}}}}"#
                    ),
                )
            } else if pick < AUDIT_PCT + SNAPSHOT_PCT {
                (
                    Op::Snapshot,
                    format!(r#"{{"id":{id},"op":"snapshot","monitor":"m{i}"}}"#),
                )
            } else {
                let (lo, hi) = ranges[i];
                let row = rng.random_range(0..ROWS);
                let score = lo + rng.random::<f64>() * (hi - lo);
                (
                    Op::Update,
                    format!(
                        r#"{{"id":{id},"op":"update","monitor":"m{i}","edits":[{{"edit":"score","row":{row},"score":{score}}}]}}"#
                    ),
                )
            }
        })
        .collect()
}

/// A response's identity for comparison: its text with the cache-hit
/// flag blanked (which of two concurrent reads of one key builds the
/// audit is a race; everything else must match the serial replay).
fn response_digest(line: &str) -> u64 {
    let stripped = line
        .replace(r#""hit":true"#, r#""hit":null"#)
        .replace(r#""hit":false"#, r#""hit":null"#);
    let mut h = DefaultHasher::new();
    stripped.hash(&mut h);
    h.finish()
}

/// What the client saw of one request.
#[derive(Debug, Clone, Copy)]
struct Received {
    at: u64,
    ok: bool,
    digest: u64,
}

/// The network phase's timestamps, nanoseconds from one origin.
struct NetRun {
    origin: Instant,
    due: Vec<u64>,
    sent: Vec<u64>,
    received: Vec<Option<Received>>,
    /// Per step: index range of its requests, start time and end time.
    steps: Vec<(std::ops::Range<usize>, u64, u64)>,
    cache: (u64, u64),
}

/// Runs every step (`rates[i]` per second for `counts[i]` requests)
/// against `service` over one pipelined loopback connection.
fn network_phase(
    service: &AuditService,
    lines: &[(Op, String)],
    rates: &[f64],
    counts: &[usize],
    trace: &mut Trace,
) -> Result<NetRun, String> {
    let listeners =
        NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).map_err(|e| format!("bind: {e}"))?;
    let addr = listeners
        .local_addrs()
        .first()
        .and_then(|a| a.strip_prefix("tcp:").map(str::to_string))
        .ok_or("no tcp address")?;
    let handle = listeners.handle();
    let opts = NetOptions {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        strip_timing: true,
        ..NetOptions::default()
    };
    let origin = Instant::now();
    let received_count = AtomicUsize::new(0);
    let total = lines.len();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(service, listeners, &opts));
        let result = (|| {
            let conn = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            conn.set_nodelay(true).map_err(|e| e.to_string())?;
            conn.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let read_half = conn.try_clone().map_err(|e| e.to_string())?;
            read_half
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let received_count = &received_count;
            let receiver = scope.spawn(move || {
                let clock = RealClock::new(origin);
                let mut reader = BufReader::new(read_half);
                let mut got: Vec<Option<Received>> = vec![None; total];
                let mut line = String::new();
                for slot in got.iter_mut() {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    *slot = Some(Received {
                        at: clock.now(),
                        ok: line.contains(r#""ok":true"#),
                        digest: response_digest(line.trim_end()),
                    });
                    received_count.fetch_add(1, Ordering::Release);
                }
                got
            });

            let mut clock = RealClock::new(origin);
            let mut writer = &conn;
            let mut due_all = Vec::with_capacity(total);
            let mut sent_all = Vec::with_capacity(total);
            let mut steps = Vec::with_capacity(counts.len());
            let mut next = 0usize;
            for (&rate, &count) in rates.iter().zip(counts) {
                let start = clock.now() + 1_000_000;
                let due = schedule(start, rate, count);
                let range = next..next + count;
                let sent = run_schedule(&mut clock, &due, |i| {
                    let id = range.start + i;
                    let mut buf = lines[id].1.clone().into_bytes();
                    buf.push(b'\n');
                    let s = Instant::now();
                    // Every other request carries spans, so latency with
                    // and without recording gives the tracing overhead.
                    let record = trace.enabled() && id.is_multiple_of(2);
                    let result = writer.write_all(&buf);
                    let e = Instant::now();
                    if record {
                        let root = trace.record("serve.request", None, id as u64, s, e);
                        trace.record("serve.send", root, id as u64, s, e);
                    }
                    result
                });
                let sent_n = sent.len();
                due_all.extend_from_slice(&due[..sent_n]);
                sent_all.extend(sent);
                next += sent_n;
                let end = start + (count as f64 * 1e9 / rate) as u64;
                clock.sleep_until(end);
                // Drain before the next step so steps do not overlap.
                let drain_until = clock.now() + DRAIN_TIMEOUT.as_nanos() as u64;
                while received_count.load(Ordering::Acquire) < next && clock.now() < drain_until {
                    std::thread::sleep(Duration::from_millis(1));
                }
                steps.push((range.start..next, start, end));
                if sent_n < count {
                    break;
                }
            }
            // Closing the write half lets the server finish and close.
            let _ = conn.shutdown(Shutdown::Write);
            let received = receiver.join().map_err(|_| "receiver panicked")?;
            Ok::<_, String>(NetRun {
                origin,
                due: due_all,
                sent: sent_all,
                received,
                steps,
                cache: service.cache_stats(),
            })
        })();
        handle.shutdown();
        let summary = server.join().map_err(|_| "server panicked".to_string())?;
        let run = result?;
        if summary.errors > 0 {
            eprintln!("serve-mixed: server answered {} errors", summary.errors);
        }
        Ok(run)
    })
}

/// Per-line layer times of the serial replay, microseconds, and each
/// line's whole time scaled by the host gauge, milliseconds.
struct Replay {
    parse_us: Vec<f64>,
    execute_us: Vec<f64>,
    render_us: Vec<f64>,
    scaled_ms: Vec<f64>,
    digests: Vec<u64>,
}

fn replay(
    service: &AuditService,
    lines: &[(Op, String)],
    trace: &mut Trace,
    gauge: &mut Gauge,
) -> Replay {
    let n = lines.len();
    let mut r = Replay {
        parse_us: Vec::with_capacity(n),
        execute_us: Vec::with_capacity(n),
        render_us: Vec::with_capacity(n),
        scaled_ms: Vec::with_capacity(n),
        digests: Vec::with_capacity(n),
    };
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    for (id, (op, line)) in lines.iter().enumerate() {
        let req = id as u64;
        gauge.read_every(GAUGE_EVERY);
        let t0 = Instant::now();
        let root = trace.record("serve.replay", None, req, t0, t0);
        let parsed = wire::parse_line(line);
        let t1 = Instant::now();
        trace.record("service.wire.parse", root, req, t0, t1);
        let value = match &parsed {
            Ok(request) => wire::execute(service, request, true),
            Err((id, e)) => wire::error_response(id.as_ref(), e),
        };
        let t2 = Instant::now();
        let name = match op {
            Op::Audit => "service.execute.audit",
            Op::Snapshot => "service.execute.snapshot",
            Op::Update => "service.execute.update",
        };
        trace.record(name, root, req, t1, t2);
        let text = value.render();
        let t3 = Instant::now();
        trace.record("json.render", root, req, t2, t3);
        trace.close(root, t3);
        r.parse_us.push(us(t0, t1));
        r.execute_us.push(us(t1, t2));
        r.render_us.push(us(t2, t3));
        r.scaled_ms.push(gauge.scale(us(t0, t3) / 1e3));
        r.digests.push(response_digest(&text));
    }
    r
}

/// Each op's median of `values` (one per line), weighted by the op's
/// share of the mix.
fn mix_median(lines: &[(Op, String)], values: &[f64]) -> f64 {
    [
        (Op::Audit, AUDIT_PCT),
        (Op::Snapshot, SNAPSHOT_PCT),
        (Op::Update, 100 - AUDIT_PCT - SNAPSHOT_PCT),
    ]
    .iter()
    .map(|&(op, pct)| {
        let of_op: Vec<f64> = lines
            .iter()
            .zip(values)
            .filter(|((o, _), _)| *o == op)
            .map(|(_, &v)| v)
            .collect();
        median(&of_op) * f64::from(pct) / 100.0
    })
    .sum()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, trace: &mut Trace, gauge: &mut Gauge) -> Result<Outcome, String> {
    let (service, setup_s, setup_raw) = setup_median(15, gauge, || setup(cfg.seed))?;
    let replay_service = setup(cfg.seed)?;
    let secs = cfg.seconds.as_secs_f64();
    let rates: Vec<f64> = STEPS.iter().map(|s| s.0).chain([BURST_RATE]).collect();
    let counts: Vec<usize> = STEPS
        .iter()
        .map(|&(rate, share, _, _)| (rate * share * secs).round() as usize)
        .chain([(BURST_PER_SECOND * secs).round() as usize])
        .collect();
    let lines = request_lines(cfg.seed, &counts);
    // Two spans per request on the wire, four per replayed line.
    trace.reserve(6 * lines.len());

    let net = network_phase(&service, &lines, &rates, &counts, trace)?;
    let rep = replay(&replay_service, &lines, trace, gauge);

    let mut failed = 0u64;
    let mut notes = Vec::new();
    let ok: Vec<bool> = net
        .received
        .iter()
        .map(|r| r.is_some_and(|r| r.ok))
        .collect();
    for (id, got) in net.received.iter().enumerate() {
        let wrong = match got {
            Some(r) => !r.ok || rep.digests.get(id) != Some(&r.digest),
            None => id < lines.len(),
        };
        if wrong {
            failed += 1;
            if notes.len() < 5 {
                notes.push(format!(
                    "request {id} failed or differs from the serial replay"
                ));
            }
        }
    }
    let recv: Vec<Option<u64>> = net.received.iter().map(|r| r.map(|r| r.at)).collect();

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    // Completions per second from the step's start to its last response
    // (or the end of its schedule, if later).
    let achieved = |(range, start, end): &(std::ops::Range<usize>, u64, u64)| {
        let last = recv[range.clone()]
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(*end);
        range.len() as f64 / ((last.max(*end) - start) as f64 / 1e9)
    };
    let mut max_rate: Option<f64> = None;
    let mut reference: Option<(Tail, f64)> = None;
    for (s, (step, &(rate, _, backlog_name, tail_name))) in net.steps.iter().zip(STEPS).enumerate()
    {
        let (range, _, end) = step;
        let lat = latency_from_due_ms(
            &net.due[range.clone()],
            &recv[range.clone()],
            &ok[range.clone()],
        );
        let step_tail = windowed_tail(&lat);
        let backlog = outstanding_at(*end, &net.due[..range.end], &recv[..range.end]);
        m.set(backlog_name, backlog as f64);
        m.set(tail_name, step_tail.value);
        let sustained =
            range.len() == counts[s] && step_sustained(step_tail.value, LIMIT_MS, backlog, rate);
        notes.push(format!(
            "rate {rate}/s: achieved {:.1}/s, tail {step_tail}, backlog at end {backlog}{}",
            achieved(step),
            if sustained { "" } else { " (not sustained)" }
        ));
        if sustained {
            max_rate = Some(rate);
        }
        if s == REFERENCE_STEP {
            reference = Some((step_tail, median(&lat)));
        }
    }
    let (ref_tail, ref_p50) = reference.ok_or("the reference step did not run")?;
    let service_ms: Vec<f64> = (0..lines.len())
        .map(|i| (rep.parse_us[i] + rep.execute_us[i] + rep.render_us[i]) / 1e3)
        .collect();
    let burst = net.steps.get(STEPS.len()).ok_or("the burst did not run")?;
    let capacity = achieved(burst);
    if capacity > BURST_MAX_SHARE * BURST_RATE {
        failed += 1;
        notes.push(format!(
            "the burst at {BURST_RATE}/s was answered at {capacity:.1}/s: it did not overload the server, so it measures no capacity"
        ));
    }
    // The end-to-end latency is the service time of the serial replay,
    // each op's median weighted by its share of the mix: over loopback at
    // 500/s, thread wake-ups on a shared host set the round trip (its
    // median spread 0.6 of itself over ten runs, scaled or not), and the
    // median of all requests sits in the gap between cached audits and
    // the rest, where a point of hit ratio moves it by a tenth.
    m.set("op_ms_p50", mix_median(&lines, &rep.scaled_ms));
    m.set("req_ms_p50", ref_p50);
    m.set("req_ms_tail", ref_tail.value);
    // Not scaled by the gauge: how five threads (sender, receiver,
    // connection, two workers) share two cores sets the capacity more than
    // how fast either core runs, and scaling did not narrow its spread.
    m.set("throughput_per_s", capacity);
    m.set("max_rate_qps", max_rate.unwrap_or(0.0));
    notes.push(format!(
        "raw: setup_s {setup_raw:.6}, service p50 {:.4} ms, round trip p50 at {}/s {ref_p50:.4} ms, burst of {} at {BURST_RATE}/s answered at {capacity:.1}/s",
        mix_median(&lines, &service_ms),
        STEPS[REFERENCE_STEP].0,
        burst.0.len()
    ));
    notes.push(format!(
        "req_ms_tail at {}/s = {ref_tail}",
        STEPS[REFERENCE_STEP].0
    ));

    // The sender's lateness at the fixed rates; the burst outruns it on
    // purpose.
    let rated = burst.0.start;
    let late = lateness_ms(&net.due[..rated], &net.sent[..rated]);
    m.set("serve.gen_late_ms", tail(&late).value);
    let by_op = |op: Op| {
        lines
            .iter()
            .zip(&rep.execute_us)
            .filter(|((o, _), _)| *o == op)
            .map(|(_, &t)| t)
            .collect::<Vec<f64>>()
    };
    m.set("service.wire.parse_us", median(&rep.parse_us));
    m.set("service.execute_us.audit", median(&by_op(Op::Audit)));
    m.set("service.execute_us.update", median(&by_op(Op::Update)));
    m.set("service.execute_us.snapshot", median(&by_op(Op::Snapshot)));
    m.set("json.render_us", median(&rep.render_us));
    let (hits, misses) = net.cache;
    m.set(
        "service.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // At the reference rate: client round trip minus the layers the
    // replay attributes, per request.
    let (range, _, _) = &net.steps[REFERENCE_STEP];
    let mut residual = Vec::new();
    let (mut residual_sum, mut rtt_sum) = (0.0, 0.0);
    let (mut rtts, mut recorded) = (Vec::new(), Vec::new());
    for id in range.clone() {
        let Some(at) = recv[id] else { continue };
        let rtt_us = at.saturating_sub(net.sent[id]) as f64 / 1e3;
        let server_us = rep.parse_us[id] + rep.execute_us[id] + rep.render_us[id];
        residual.push(rtt_us - server_us);
        residual_sum += (rtt_us - server_us).max(0.0);
        rtt_sum += rtt_us;
        rtts.push(rtt_us);
        recorded.push(id.is_multiple_of(2));
    }
    m.set("service.session.residual_us", median(&residual));
    if cfg.traced {
        // Close the request spans the sender opened at the receive time.
        let opened: Vec<(usize, usize)> = trace
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "serve.request")
            .map(|(i, s)| (i, s.req as usize))
            .collect();
        for (i, id) in opened {
            if let Some(at) = recv.get(id).copied().flatten() {
                trace.close(Some(i), net.origin + Duration::from_nanos(at));
            }
        }
        m.set("unattributed_share", residual_sum / rtt_sum.max(1e-9));
        let (on, off, rel) = overhead(&rtts, &recorded);
        m.set("trace_overhead", rel);
        notes.push(format!(
            "trace_overhead: traced request round trip p50 {on:.1} us vs untraced {off:.1} us (base); unattributed = residual / round trip at {}/s",
            STEPS[REFERENCE_STEP].0
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: lines.len() as u64,
        failed,
        notes,
    })
}
