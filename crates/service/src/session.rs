//! The session core shared by the stdio server ([`crate::serve`]) and the
//! socket front-end ([`crate::net`]): one bounded worker pool executing
//! wire requests from any number of concurrent sessions, with
//! **per-resource ordering lanes** instead of a global barrier.
//!
//! # Lanes
//!
//! Every dispatched request claims the lanes of the resources it touches
//! — `ds:<name>` for a dataset registry entry, `mon:<name>` for a
//! monitor, plus one registry-listing lane — in either `Shared` or
//! `Exclusive` mode:
//!
//! | request            | claims                                              |
//! |--------------------|-----------------------------------------------------|
//! | `audit`            | `ds:D` shared                                       |
//! | `register`         | `ds:N` exclusive, registry shared                   |
//! | `datasets`         | registry exclusive                                  |
//! | `register_monitor` | `mon:M` exclusive, `ds:D` shared                    |
//! | `update`           | `mon:M` exclusive, `ds:D` exclusive, registry shared|
//! | `snapshot`         | `mon:M` shared                                      |
//! | `shutdown`         | none (answered from the session loop)               |
//!
//! A shared claim waits only for earlier *exclusive* claims on the lane;
//! an exclusive claim waits for *everything* dispatched before it on the
//! lane. So updates to the same monitor stay ordered against its
//! snapshots and against audits of its dataset — exactly the old global
//! barrier guarantee, per resource — while updates to *different*
//! monitors, and audits on one dataset, proceed fully in parallel. A
//! dataset `register` is a registry-entry barrier (its own `ds:` lane),
//! not a whole-stream one.
//!
//! # Why blocking lane waits cannot starve the pool
//!
//! Lane tickets are assigned and the job is enqueued under one dispatch
//! lock, so queue order equals ticket order globally. Workers pop the
//! shared queue FIFO, so whenever a popped job waits on a lane, every
//! job it waits for was popped earlier; among popped-but-unfinished jobs
//! the earliest-dispatched one is always runnable, so some worker always
//! makes progress.
//!
//! # Sessions
//!
//! A [`Session`] owns one request stream: it parses lines, computes lane
//! claims, and submits jobs tagged with its private response channel;
//! [`write_responses`] reorders completed responses back into request
//! order. A [`Gate`] caps responses in flight per session (the pipeline
//! window), so a client that never reads its socket bounds its own
//! memory and stalls only itself — the pool and every other session keep
//! moving.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::serve::ServeSummary;
use crate::{wire, AuditService};

/// Lane key for the dataset-registry listing (`datasets` op). The `!`
/// keeps it outside the `ds:`/`mon:` namespaces.
const REGISTRY_LANE: &str = "registry!";

/// Prune idle lanes once the map holds this many entries.
const LANE_GC_THRESHOLD: usize = 4096;

/// How a job uses a lane: `Shared` claims run concurrently with each
/// other; an `Exclusive` claim is a lane-local barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Concurrent with other shared claims (audits, snapshots).
    Shared,
    /// Ordered against everything on the lane (registers, updates).
    Exclusive,
}

#[derive(Default)]
struct LaneState {
    shared_dispatched: u64,
    excl_dispatched: u64,
    shared_done: u64,
    excl_done: u64,
}

/// One resource's ordering state. Jobs wait on [`Claim`]s against it.
#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    turned: Condvar,
}

/// A job's ticket on one lane: the dispatch counts it must wait out
/// before executing.
struct Claim {
    lane: Arc<Lane>,
    mode: Mode,
    excl_before: u64,
    shared_before: u64,
}

impl Claim {
    /// Blocks until every lane predecessor this claim orders against has
    /// completed. See the module docs for why this cannot starve the
    /// pool.
    fn wait(&self) {
        let mut st = self.lane.state.lock().expect("lane lock");
        loop {
            let ready = match self.mode {
                Mode::Shared => st.excl_done >= self.excl_before,
                Mode::Exclusive => {
                    st.excl_done >= self.excl_before && st.shared_done >= self.shared_before
                }
            };
            if ready {
                return;
            }
            st = self.lane.turned.wait(st).expect("lane lock"); // lint:allow(panic-path) -- Condvar::wait only fails on mutex poison, i.e. another worker already panicked; propagates an existing panic rather than creating a path
        }
    }

    fn complete(self) {
        let mut st = self.lane.state.lock().expect("lane lock");
        match self.mode {
            Mode::Shared => st.shared_done += 1,
            Mode::Exclusive => st.excl_done += 1,
        }
        drop(st);
        self.lane.turned.notify_all();
    }
}

/// `(seq, response line, ok)` flowing from workers to a session writer.
pub(crate) type Response = (usize, String, bool);

/// What a worker does for one job.
pub(crate) enum Work {
    /// Execute a parsed wire request.
    Request(Box<wire::Request>),
    /// Forward an already-rendered response (parse errors, shutdown
    /// acknowledgements), preserving order and backpressure.
    Ready(String, bool),
    /// Run an arbitrary closure — lane-semantics tests only.
    #[cfg(test)]
    Call(Box<dyn FnOnce() -> (String, bool) + Send>),
}

/// One unit of work in the shared bounded queue.
struct Job {
    seq: usize,
    res_tx: mpsc::Sender<Response>,
    dead: Arc<AtomicBool>,
    claims: Vec<Claim>,
    work: Work,
}

struct Dispatch {
    /// `None` once [`Executor::close`] ran: workers drain and exit.
    job_tx: Option<mpsc::SyncSender<Job>>,
    lanes: HashMap<String, Arc<Lane>>,
}

/// The shared bounded job pool: lane bookkeeping plus the queue every
/// session dispatches into. Construct with [`Executor::new`], spawn the
/// workers inside a thread scope with [`Executor::start_workers`], and
/// call [`Executor::close`] once every session has stopped dispatching
/// so the scope can join.
pub(crate) struct Executor {
    dispatch: Mutex<Dispatch>,
    job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: usize,
    strip_timing: bool,
}

impl Executor {
    pub(crate) fn new(workers: usize, strip_timing: bool) -> Executor {
        let workers = workers.max(1);
        // Bounded: a session reading faster than the pool drains blocks
        // in submit — that is the global queue backpressure.
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(workers * 4);
        Executor {
            dispatch: Mutex::new(Dispatch {
                job_tx: Some(job_tx),
                lanes: HashMap::new(),
            }),
            job_rx: Arc::new(Mutex::new(job_rx)),
            workers,
            strip_timing,
        }
    }

    /// Spawns the worker threads into `scope`. They exit when
    /// [`Executor::close`] drops the queue sender.
    pub(crate) fn start_workers<'scope, 'env>(
        &self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        service: &'env AuditService,
    ) {
        for _ in 0..self.workers {
            let job_rx = Arc::clone(&self.job_rx);
            let strip_timing = self.strip_timing;
            scope.spawn(move || worker_loop(service, strip_timing, &job_rx));
        }
    }

    /// Assigns lane tickets and enqueues the job **atomically** (one
    /// dispatch lock), so queue order equals ticket order — the progress
    /// guarantee the blocking claim waits rely on. Blocking here when
    /// the queue is full is the global backpressure. Returns `false` if
    /// the executor was already closed (the job is dropped).
    pub(crate) fn submit(
        &self,
        seq: usize,
        res_tx: mpsc::Sender<Response>,
        dead: Arc<AtomicBool>,
        lanes: &[(String, Mode)],
        work: Work,
    ) -> bool {
        let mut d = self.dispatch.lock().expect("dispatch lock");
        let Some(job_tx) = d.job_tx.clone() else {
            return false;
        };
        if d.lanes.len() > LANE_GC_THRESHOLD {
            // A lane referenced only by the map has no outstanding
            // claims (claims hold an Arc until completion) — safe to
            // forget; a later op on the name gets a fresh lane.
            d.lanes.retain(|_, lane| Arc::strong_count(lane) > 1);
        }
        let claims: Vec<Claim> = lanes
            .iter()
            .map(|(key, mode)| {
                let lane = Arc::clone(d.lanes.entry(key.clone()).or_default());
                let mut st = lane.state.lock().expect("lane lock");
                let claim = Claim {
                    mode: *mode,
                    excl_before: st.excl_dispatched,
                    shared_before: st.shared_dispatched,
                    lane: Arc::clone(&lane),
                };
                match mode {
                    Mode::Shared => st.shared_dispatched += 1,
                    Mode::Exclusive => st.excl_dispatched += 1,
                }
                drop(st);
                claim
            })
            .collect();
        // Send while still holding the dispatch lock: queue order must
        // equal ticket order.
        // lint:allow(guard-across-blocking) -- deliberate: send blocks only while the bounded queue is full, and workers never take `dispatch` to pop or complete a job, so the queue always drains; holding `dispatch` is what makes queue order equal ticket order
        let _ = job_tx.send(Job {
            seq,
            res_tx,
            dead,
            claims,
            work,
        });
        true
    }

    /// Drops the queue sender: workers finish what is queued, then exit.
    pub(crate) fn close(&self) {
        self.dispatch.lock().expect("dispatch lock").job_tx = None;
    }
}

fn worker_loop(service: &AuditService, strip_timing: bool, job_rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // Hold the lock only while popping, not while working.
        // lint:allow(guard-across-blocking) -- deliberate: the guard serializes poppers; recv only blocks while the queue is empty, when no other worker needs the lock
        let job = job_rx.lock().expect("job queue lock").recv();
        let Ok(job) = job else { break };
        for claim in &job.claims {
            claim.wait();
        }
        let Job {
            seq,
            res_tx,
            dead,
            claims,
            work,
        } = job;
        // A dead session (output error, peer gone) has nowhere to
        // deliver: skip the work, but still complete the lane claims or
        // every later job on those lanes would wait forever.
        if !dead.load(Ordering::Relaxed) {
            let (line, ok) = match work {
                Work::Ready(line, ok) => (line, ok),
                Work::Request(request) => {
                    let response = wire::execute(service, &request, strip_timing);
                    let ok = response
                        .get("ok")
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false);
                    (response.render(), ok)
                }
                #[cfg(test)]
                Work::Call(f) => f(),
            };
            if res_tx.send((seq, line, ok)).is_err() {
                dead.store(true, Ordering::Relaxed);
            }
        }
        for claim in claims {
            claim.complete();
        }
    }
}

/// Per-session pipeline window: at most `limit` requests may be past
/// dispatch but not yet written. Bounds the reorder buffer and the
/// response channel of a session whose output has stalled (a client
/// that never reads), without blocking any worker.
pub(crate) struct Gate {
    emitted: Mutex<usize>,
    advanced: Condvar,
    limit: usize,
}

impl Gate {
    pub(crate) fn new(limit: usize) -> Gate {
        Gate {
            emitted: Mutex::new(0),
            advanced: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Blocks until request `seq` fits in the window (or the session
    /// died — polled, so a writer that errors without a final notify
    /// cannot strand the reader).
    fn admit(&self, seq: usize, dead: &AtomicBool) {
        let mut emitted = self.emitted.lock().expect("gate lock");
        while seq.saturating_sub(*emitted) >= self.limit && !dead.load(Ordering::Relaxed) {
            let (guard, _) = self
                .advanced
                .wait_timeout(emitted, Duration::from_millis(50))
                .expect("gate lock"); // lint:allow(panic-path) -- Condvar::wait_timeout only fails on mutex poison, i.e. the writer thread already panicked; propagates an existing panic rather than creating a path
            emitted = guard;
        }
    }

    fn advance(&self) {
        *self.emitted.lock().expect("gate lock") += 1;
        self.advanced.notify_all();
    }

    fn wake(&self) {
        self.advanced.notify_all();
    }
}

/// What dispatching one line decided about the rest of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineOutcome {
    /// Keep reading.
    Continue,
    /// The line was a `shutdown` op: its acknowledgement is queued; stop
    /// reading and begin the graceful drain.
    Shutdown,
}

/// One request stream bound to a shared [`Executor`]: parses lines,
/// computes lane claims, submits jobs tagged with this session's
/// response channel and sequence numbers.
pub(crate) struct Session<'a> {
    exec: &'a Executor,
    service: &'a AuditService,
    res_tx: mpsc::Sender<Response>,
    dead: Arc<AtomicBool>,
    gate: Arc<Gate>,
    seq: usize,
    /// Monitor → dataset, learned from `register_monitor` lines, so an
    /// `update` can claim its dataset lane without racing the registry.
    monitor_datasets: HashMap<String, String>,
}

impl<'a> Session<'a> {
    pub(crate) fn new(
        exec: &'a Executor,
        service: &'a AuditService,
        res_tx: mpsc::Sender<Response>,
        dead: Arc<AtomicBool>,
        gate: Arc<Gate>,
    ) -> Session<'a> {
        Session {
            exec,
            service,
            res_tx,
            dead,
            gate,
            seq: 0,
            monitor_datasets: HashMap::new(),
        }
    }

    /// Responses stopped being deliverable (the writer hit an output
    /// error or the peer vanished): reading further input is pointless.
    pub(crate) fn dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Parses and dispatches one input line (empty lines are the
    /// caller's to skip). Blocks on the pipeline window and on global
    /// queue backpressure.
    pub(crate) fn dispatch_line(&mut self, line: &str) -> LineOutcome {
        self.gate.admit(self.seq, &self.dead);
        let (lanes, work, outcome) = match wire::parse_line(line) {
            Err((id, e)) => (
                Vec::new(),
                Work::Ready(wire::error_response(id.as_ref(), &e).render(), false),
                LineOutcome::Continue,
            ),
            Ok(request @ wire::Request::Shutdown { .. }) => (
                Vec::new(),
                // Answered inline: the acknowledgement must flush during
                // the drain even though no worker may pick new work.
                Work::Ready(wire::execute(self.service, &request, true).render(), true),
                LineOutcome::Shutdown,
            ),
            Ok(request) => {
                let lanes = self.lanes_for(&request);
                (
                    lanes,
                    Work::Request(Box::new(request)),
                    LineOutcome::Continue,
                )
            }
        };
        self.submit(lanes, work);
        outcome
    }

    /// Dispatches a pre-rendered in-band error (framing violations the
    /// parser never sees: broken UTF-8, an over-long line).
    pub(crate) fn dispatch_error(&mut self, message: String) {
        self.gate.admit(self.seq, &self.dead);
        let line = wire::error_response(None, &crate::ServiceError::BadRequest(message)).render();
        self.submit(Vec::new(), Work::Ready(line, false));
    }

    fn submit(&mut self, lanes: Vec<(String, Mode)>, work: Work) {
        if self.exec.submit(
            self.seq,
            self.res_tx.clone(),
            Arc::clone(&self.dead),
            &lanes,
            work,
        ) {
            self.seq += 1;
        } else {
            // Executor closed under us (server-wide shutdown): nothing
            // will answer; mark the session dead so the read loop stops.
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    /// The lane claims a request needs — the per-resource ordering
    /// contract (see the module docs table).
    fn lanes_for(&mut self, request: &wire::Request) -> Vec<(String, Mode)> {
        use wire::Request as R;
        match request {
            R::Audit { request, .. } => {
                vec![(format!("ds:{}", request.dataset), Mode::Shared)]
            }
            R::Register { name, .. } => vec![
                (format!("ds:{name}"), Mode::Exclusive),
                (REGISTRY_LANE.to_string(), Mode::Shared),
            ],
            R::Datasets { .. } => vec![(REGISTRY_LANE.to_string(), Mode::Exclusive)],
            R::RegisterMonitor { name, spec, .. } => {
                self.monitor_datasets
                    .insert(name.clone(), spec.dataset.clone());
                vec![
                    (format!("mon:{name}"), Mode::Exclusive),
                    (format!("ds:{}", spec.dataset), Mode::Shared),
                ]
            }
            R::MonitorUpdate { monitor, .. } => {
                let mut lanes = vec![(format!("mon:{monitor}"), Mode::Exclusive)];
                // The update republishes the monitor's evolved snapshot
                // under its dataset name: claim that registry entry
                // exclusively so audits bracket the update in stream
                // order, and the listing lane shared so `datasets` sees
                // a settled registry.
                let dataset = self
                    .monitor_datasets
                    .get(monitor.as_str())
                    .cloned()
                    .or_else(|| self.service.monitor_dataset(monitor));
                if let Some(dataset) = dataset {
                    lanes.push((format!("ds:{dataset}"), Mode::Exclusive));
                    lanes.push((REGISTRY_LANE.to_string(), Mode::Shared));
                }
                lanes
            }
            R::MonitorSnapshot { monitor, .. } => {
                vec![(format!("mon:{monitor}"), Mode::Shared)]
            }
            R::Shutdown { .. } => Vec::new(),
        }
    }
}

/// Drains a session's response channel into `output` in request order (a
/// reorder buffer keyed by sequence number), flushing per line and
/// advancing the session's [`Gate`]. Returns when every response sender
/// is gone — the session dropped its handle and all its in-flight jobs
/// completed — which is exactly the per-session drain point.
pub(crate) fn write_responses<W: Write>(
    mut output: W,
    res_rx: &mpsc::Receiver<Response>,
    gate: &Gate,
    dead: &AtomicBool,
) -> std::io::Result<ServeSummary> {
    let mut pending: HashMap<usize, (String, bool)> = HashMap::new();
    let mut next = 0usize;
    let mut summary = ServeSummary {
        requests: 0,
        errors: 0,
    };
    for (seq, line, ok) in res_rx {
        pending.insert(seq, (line, ok));
        while let Some((line, ok)) = pending.remove(&next) {
            let wrote = writeln!(output, "{line}").and_then(|()| output.flush());
            if let Err(e) = wrote {
                // Tell the reader to stop consuming input — nothing it
                // reads can be answered anymore.
                dead.store(true, Ordering::Relaxed);
                gate.wake();
                return Err(e);
            }
            next += 1;
            summary.requests += 1;
            summary.errors += usize::from(!ok);
            gate.advance();
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    const TICK: Duration = Duration::from_secs(10);

    fn call(f: impl FnOnce() -> String + Send + 'static) -> Work {
        Work::Call(Box::new(move || (f(), true)))
    }

    /// Submits `work` on `lanes` and returns the session-side response
    /// receiver plumbing shared by every test below.
    fn harness() -> (AuditService, Executor) {
        (AuditService::new(), Executor::new(4, true))
    }

    #[test]
    fn cross_lane_exclusive_jobs_run_in_parallel() {
        // Two *exclusive* jobs on different monitor lanes, forced into a
        // rendezvous: A blocks until B has run. Under the old global
        // barrier (or any accidental cross-lane serialization) A would
        // hold the pool while B never starts — a deadlock this test
        // turns into a visible timeout. This is the "updates to
        // different monitors proceed in parallel; no global stall"
        // guarantee, asserted structurally.
        let (service, exec) = harness();
        let (res_tx, res_rx) = mpsc::channel();
        let dead = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            let (signal_tx, signal_rx) = mpsc::channel::<()>();
            exec.submit(
                0,
                res_tx.clone(),
                Arc::clone(&dead),
                &[("mon:a".to_string(), Mode::Exclusive)],
                call(move || {
                    signal_rx
                        .recv_timeout(TICK)
                        .expect("job B must run while job A is in flight");
                    "a".to_string()
                }),
            );
            exec.submit(
                1,
                res_tx.clone(),
                Arc::clone(&dead),
                &[("mon:b".to_string(), Mode::Exclusive)],
                call(move || {
                    signal_tx.send(()).expect("job A is waiting");
                    "b".to_string()
                }),
            );
            let mut got = Vec::new();
            for _ in 0..2 {
                let (_, line, _) = res_rx.recv_timeout(TICK).expect("both jobs complete");
                got.push(line);
            }
            got.sort();
            assert_eq!(got, ["a", "b"]);
            exec.close();
        });
    }

    #[test]
    fn shared_claims_on_one_lane_run_in_parallel() {
        // Two *shared* jobs on the same dataset lane, mutually blocking:
        // each waits for the other's signal. If shared claims
        // serialized, this would deadlock — concurrent audits on one
        // dataset must not queue behind each other.
        let (service, exec) = harness();
        let (res_tx, res_rx) = mpsc::channel();
        let dead = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            let (tx_ab, rx_ab) = mpsc::channel::<()>();
            let (tx_ba, rx_ba) = mpsc::channel::<()>();
            let lane = [("ds:d".to_string(), Mode::Shared)];
            exec.submit(
                0,
                res_tx.clone(),
                Arc::clone(&dead),
                &lane,
                call(move || {
                    tx_ab.send(()).expect("peer waits");
                    rx_ba.recv_timeout(TICK).expect("peer runs concurrently");
                    "a".to_string()
                }),
            );
            exec.submit(
                1,
                res_tx.clone(),
                Arc::clone(&dead),
                &lane,
                call(move || {
                    tx_ba.send(()).expect("peer waits");
                    rx_ab.recv_timeout(TICK).expect("peer runs concurrently");
                    "b".to_string()
                }),
            );
            for _ in 0..2 {
                res_rx.recv_timeout(TICK).expect("both jobs complete");
            }
            exec.close();
        });
    }

    #[test]
    fn exclusive_claims_order_a_lane_and_fence_shared_ones() {
        // One lane, mixed modes, many workers: X(0) S(1) S(2) X(3) S(4).
        // The exclusives must observe every predecessor done; the
        // shareds must observe every earlier exclusive done. Event log
        // order proves it across 50 repeats.
        let (service, exec) = harness();
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            for round in 0..50usize {
                let (res_tx, res_rx) = mpsc::channel();
                let dead = Arc::new(AtomicBool::new(false));
                let log: Arc<Mutex<Vec<usize>>> = Arc::default();
                let modes = [
                    Mode::Exclusive,
                    Mode::Shared,
                    Mode::Shared,
                    Mode::Exclusive,
                    Mode::Shared,
                ];
                for (i, mode) in modes.into_iter().enumerate() {
                    let log = Arc::clone(&log);
                    exec.submit(
                        i,
                        res_tx.clone(),
                        Arc::clone(&dead),
                        &[(format!("mon:m{round}"), mode)],
                        call(move || {
                            log.lock().expect("event log").push(i);
                            String::new()
                        }),
                    );
                }
                for _ in 0..modes.len() {
                    res_rx.recv_timeout(TICK).expect("jobs complete");
                }
                let events = log.lock().expect("event log").clone();
                let at = |i: usize| {
                    events
                        .iter()
                        .position(|&e| e == i)
                        .expect("every job logged")
                };
                assert_eq!(at(0), 0, "round {round}: first exclusive runs first");
                assert!(at(3) > at(1) && at(3) > at(2), "round {round}: {events:?}");
                assert!(at(4) > at(3), "round {round}: {events:?}");
            }
            exec.close();
        });
    }

    #[test]
    fn closed_executor_rejects_jobs() {
        let (service, exec) = harness();
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            exec.close();
            let (res_tx, _res_rx) = mpsc::channel();
            let accepted = exec.submit(
                0,
                res_tx,
                Arc::new(AtomicBool::new(false)),
                &[],
                Work::Ready(String::new(), true),
            );
            assert!(!accepted);
        });
    }

    #[test]
    fn gate_bounds_in_flight_and_unblocks_on_death() {
        let gate = Gate::new(2);
        let dead = AtomicBool::new(false);
        gate.admit(0, &dead);
        gate.admit(1, &dead);
        gate.advance();
        // seq 2 fits only because one response was emitted.
        gate.admit(2, &dead);
        // seq 3 would block; a dead session must not hang the reader.
        dead.store(true, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        gate.admit(3, &dead);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn write_responses_reorders_by_sequence() {
        let (res_tx, res_rx) = mpsc::channel();
        res_tx.send((2, "c".to_string(), true)).expect("send");
        res_tx.send((0, "a".to_string(), true)).expect("send");
        res_tx.send((1, "b".to_string(), false)).expect("send");
        drop(res_tx);
        let mut out = Vec::new();
        let gate = Gate::new(8);
        let dead = AtomicBool::new(false);
        let summary = write_responses(&mut out, &res_rx, &gate, &dead).expect("writes");
        assert_eq!(String::from_utf8(out).expect("utf8"), "a\nb\nc\n");
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn submit_blocked_on_a_full_queue_completes_once_a_job_is_released() {
        // One worker, queue capacity 4. Job 0 holds the worker, jobs 1-4
        // fill the queue, and job 5's submitter blocks in `send` while
        // holding `dispatch`. The worker pops and completes jobs without
        // ever taking `dispatch`, so releasing job 0 drains one slot and
        // the blocked submit completes.
        let service = AuditService::new();
        let exec = Executor::new(1, true);
        let (res_tx, res_rx) = mpsc::channel();
        let dead = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            let (started_tx, started_rx) = mpsc::channel::<()>();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            exec.submit(
                0,
                res_tx.clone(),
                Arc::clone(&dead),
                &[],
                call(move || {
                    started_tx.send(()).expect("test waits for the start");
                    release_rx.recv_timeout(TICK).expect("test releases job 0");
                    "0".to_string()
                }),
            );
            started_rx
                .recv_timeout(TICK)
                .expect("the worker runs job 0");
            for seq in 1..=4 {
                let fill = exec.submit(
                    seq,
                    res_tx.clone(),
                    Arc::clone(&dead),
                    &[],
                    Work::Ready(seq.to_string(), true),
                );
                assert!(fill);
            }
            let (done_tx, done_rx) = mpsc::channel::<bool>();
            let (exec, dead, tx) = (&exec, Arc::clone(&dead), res_tx.clone());
            scope.spawn(move || {
                let ok = exec.submit(5, tx, dead, &[], Work::Ready("5".to_string(), true));
                done_tx.send(ok).expect("test waits for the submit");
            });
            // The submitter holds `dispatch` from its lock until its send
            // returns, and the send cannot return while the queue is full.
            while exec.dispatch.try_lock().is_ok() {
                std::thread::yield_now();
            }
            assert!(done_rx.try_recv().is_err(), "the queue is full");
            release_tx.send(()).expect("job 0 is waiting");
            assert!(done_rx
                .recv_timeout(TICK)
                .expect("the blocked submit completes"));
            let mut got: Vec<String> = (0..6)
                .map(|_| res_rx.recv_timeout(TICK).expect("every job completes").1)
                .collect();
            got.sort();
            assert_eq!(got, ["0", "1", "2", "3", "4", "5"]);
            exec.close();
        });
    }

    #[test]
    fn lane_gc_spares_lanes_with_pending_claims() {
        // Regression guard for the idle-lane sweep in `submit`: it prunes
        // by Arc strong count once the map passes LANE_GC_THRESHOLD. A
        // lane whose jobs are merely pending — executing, popped and
        // waiting on a claim, or still queued — must survive the sweep;
        // if it were dropped, a later claim on the same name would get a
        // fresh lane with zeroed tickets and jump ahead of the pending
        // exclusives, silently breaking per-resource serialization.
        let (service, exec) = harness();
        let (keep_tx, keep_rx) = mpsc::channel();
        let (flood_tx, flood_rx) = mpsc::channel();
        let dead = Arc::new(AtomicBool::new(false));
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let keep = [("mon:keep".to_string(), Mode::Exclusive)];
            // A occupies a worker inside the lane until released; B and C
            // sit behind it with undischarged exclusive claims.
            {
                let log = Arc::clone(&log);
                exec.submit(
                    0,
                    keep_tx.clone(),
                    Arc::clone(&dead),
                    &keep,
                    call(move || {
                        release_rx
                            .recv_timeout(TICK)
                            .expect("released after the flood");
                        log.lock().expect("event log").push("a");
                        "a".to_string()
                    }),
                );
            }
            for (i, name) in [(1usize, "b"), (2, "c")] {
                let log = Arc::clone(&log);
                exec.submit(
                    i,
                    keep_tx.clone(),
                    Arc::clone(&dead),
                    &keep,
                    call(move || {
                        log.lock().expect("event log").push(name);
                        name.to_string()
                    }),
                );
            }
            // Flood one-shot lanes past the GC threshold while every
            // claim on the keep lane is still pending, so the sweep runs
            // mid-flood with the keep lane at risk.
            let flood = LANE_GC_THRESHOLD + 104;
            for i in 0..flood {
                exec.submit(
                    3 + i,
                    flood_tx.clone(),
                    Arc::clone(&dead),
                    &[(format!("ds:f{i}"), Mode::Exclusive)],
                    Work::Ready(String::new(), true),
                );
            }
            for _ in 0..flood {
                flood_rx.recv_timeout(TICK).expect("flood job completes");
            }
            {
                let d = exec.dispatch.lock().expect("dispatch lock");
                assert!(
                    d.lanes.len() < LANE_GC_THRESHOLD,
                    "the sweep must have pruned idle lanes ({} live)",
                    d.lanes.len()
                );
                assert!(
                    d.lanes.contains_key("mon:keep"),
                    "lane with pending claims was garbage-collected"
                );
            }
            // D joins the lane after the sweep: it must order behind the
            // surviving lane state, not start over on a fresh lane.
            {
                let log = Arc::clone(&log);
                exec.submit(
                    3 + flood,
                    keep_tx.clone(),
                    Arc::clone(&dead),
                    &keep,
                    call(move || {
                        log.lock().expect("event log").push("d");
                        "d".to_string()
                    }),
                );
            }
            assert_eq!(
                keep_rx.recv_timeout(Duration::from_millis(200)),
                Err(RecvTimeoutError::Timeout),
                "nothing on the lane may run before A is released"
            );
            release_tx.send(()).expect("A is waiting");
            let mut got = Vec::new();
            for _ in 0..4 {
                let (_, line, _) = keep_rx.recv_timeout(TICK).expect("lane drains");
                got.push(line);
            }
            assert_eq!(got, ["a", "b", "c", "d"], "lane serialization broken");
            assert_eq!(log.lock().expect("event log").clone(), ["a", "b", "c", "d"]);
            exec.close();
        });
    }

    #[test]
    fn dead_session_skips_work_but_completes_lanes() {
        // A dead session's queued jobs must still tick their lanes, or a
        // later job on the lane (from a live session) would wait forever.
        let (service, exec) = harness();
        let dead = Arc::new(AtomicBool::new(true));
        let (dead_tx, dead_rx) = mpsc::channel();
        let (live_tx, live_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            exec.start_workers(scope, &service);
            exec.submit(
                0,
                dead_tx,
                Arc::clone(&dead),
                &[("mon:x".to_string(), Mode::Exclusive)],
                call(|| "dropped".to_string()),
            );
            exec.submit(
                0,
                live_tx,
                Arc::new(AtomicBool::new(false)),
                &[("mon:x".to_string(), Mode::Exclusive)],
                call(|| "lives".to_string()),
            );
            let (_, line, _) = live_rx.recv_timeout(TICK).expect("lane not wedged");
            assert_eq!(line, "lives");
            assert_eq!(
                dead_rx.recv_timeout(Duration::from_millis(200)),
                Err(RecvTimeoutError::Disconnected),
                "dead session receives nothing"
            );
            exec.close();
        });
    }
}
