//! The socket front-end: TCP and Unix-domain listeners speaking the same
//! strict JSONL wire protocol as [`crate::serve`], one thread per
//! connection over the shared session core.
//!
//! ```text
//! $ rankfair serve-net --listen tcp:127.0.0.1:7878,unix:/tmp/rankfair.sock --workers 8
//! ```
//!
//! Every connection is an independent pipelined session: clients may
//! send many request lines without waiting, and responses come back **in
//! that connection's request order** (a per-connection reorder buffer).
//! All connections share one bounded worker pool and the per-resource
//! ordering lanes of the session core, so updates to different monitors
//! proceed in parallel while updates to the same monitor stay ordered
//! against its snapshots and audits — no global stall.
//!
//! # Backpressure
//!
//! Three bounds keep a hostile or slow client from growing server
//! memory:
//!
//! * [`NetOptions::max_connections`] — excess connections are answered
//!   with one in-band `overloaded` error line and closed;
//! * the shared bounded job queue — a connection reading requests faster
//!   than the pool drains blocks in dispatch;
//! * [`NetOptions::pipeline_window`] — per connection, at most this many
//!   responses may be in flight (dispatched but unwritten); a client
//!   that never reads its socket stalls only itself.
//!
//! An oversized request line ([`NetOptions::max_line_bytes`]) is answered
//! in-band and the connection is closed. A line that is not valid UTF-8
//! is answered in-band and reading goes on, as on stdio. A connection
//! idle longer than [`NetOptions::idle_timeout`] is closed; the same
//! duration bounds blocked writes to a never-reading peer.
//!
//! # Shutdown
//!
//! Graceful shutdown is triggered by the wire `{"op": "shutdown"}` admin
//! op on any connection, or programmatically via [`NetHandle::shutdown`]
//! (the hook a signal handler would call; plain `rankfair serve-net` has
//! no signal runtime, so Ctrl-C is an immediate OS kill). Either way:
//! listeners stop accepting, every connection stops reading, in-flight
//! jobs drain, responses flush, sockets close, and [`serve_net`]
//! returns.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::session::{Executor, Gate, LineOutcome, Session};
use crate::AuditService;
use rankfair_json::Value;

/// How often blocked accepts and reads wake up to check the shutdown
/// flag and the idle clock.
const POLL: Duration = Duration::from_millis(100);

/// Options for [`serve_net`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Worker threads shared by every connection (min 1).
    pub workers: usize,
    /// Zero out `wall_ms` and `stats.elapsed_ms` so responses are
    /// byte-deterministic.
    pub strip_timing: bool,
    /// Concurrent connections accepted across all listeners; excess
    /// connections get one in-band `overloaded` error line and are
    /// closed.
    pub max_connections: usize,
    /// Per-connection pipeline window: how many responses may be past
    /// dispatch but unwritten before the connection's reader blocks.
    pub pipeline_window: usize,
    /// Longest accepted request line in bytes; longer lines are answered
    /// in-band and the connection is closed.
    pub max_line_bytes: usize,
    /// Close a connection with no complete request line for this long;
    /// also bounds a blocked write to a peer that never reads.
    pub idle_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            workers: 4,
            strip_timing: false,
            max_connections: 256,
            pipeline_window: 64,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// What a [`serve_net`] run did, summed over every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSummary {
    /// Connections accepted and served.
    pub connections: usize,
    /// Connections turned away at the [`NetOptions::max_connections`]
    /// cap.
    pub rejected: usize,
    /// Request lines answered.
    pub requests: usize,
    /// How many of them answered `"ok": false`.
    pub errors: usize,
}

/// One bound listening socket.
enum Bound {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener and the socket path to unlink on drop.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Bound {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Bound::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Bound::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    fn local_addr(&self) -> String {
        match self {
            Bound::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:?".to_string(),
            },
            #[cfg(unix)]
            Bound::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }
}

impl Drop for Bound {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Bound::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted connection stream.
enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_blocking(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(false),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(false),
        }
    }

    /// Disable Nagle on TCP: responses are single buffered writes, and
    /// letting the kernel hold them for a delayed ACK adds tens of
    /// milliseconds to every pipelined round trip. No-op on Unix
    /// sockets.
    fn set_nodelay(&self) {
        if let Conn::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    fn set_read_timeout(&self, t: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(t)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(t)),
        }
    }

    fn set_write_timeout(&self, t: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(Some(t)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(Some(t)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound listeners a [`serve_net`] run accepts on. Bind first, then
/// serve — so callers (and tests) can bind port 0 and read the kernel's
/// choice from [`NetListeners::local_addrs`] before any traffic flows.
pub struct NetListeners {
    bounds: Vec<Bound>,
    shutdown: Arc<AtomicBool>,
}

impl NetListeners {
    /// Binds every address in `addrs`. Accepted forms: `tcp:host:port`,
    /// bare `host:port` (TCP), and `unix:/path/to.sock` (Unix systems
    /// only; a stale socket file left by a dead server is unlinked
    /// first). Listeners are nonblocking — the accept loops poll them.
    pub fn bind(addrs: &[String]) -> io::Result<NetListeners> {
        let mut bounds = Vec::new();
        for spec in addrs {
            bounds.push(bind_one(spec)?);
        }
        if bounds.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listen addresses given",
            ));
        }
        Ok(NetListeners {
            bounds,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound addresses, `tcp:`/`unix:`-prefixed — with port 0 these
    /// carry the kernel-assigned port.
    pub fn local_addrs(&self) -> Vec<String> {
        self.bounds.iter().map(Bound::local_addr).collect()
    }

    /// A handle that can trigger graceful shutdown from another thread
    /// (what a signal handler would call).
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }
}

/// Remote control for a running [`serve_net`]: the programmatic
/// equivalent of the wire `{"op": "shutdown"}` admin op.
#[derive(Clone)]
pub struct NetHandle {
    shutdown: Arc<AtomicBool>,
}

impl NetHandle {
    /// Begin graceful shutdown: stop accepting, drain in-flight jobs,
    /// flush responses, close connections. [`serve_net`] returns once
    /// the drain completes.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

fn bind_one(spec: &str) -> io::Result<Bound> {
    if let Some(path) = spec.strip_prefix("unix:") {
        return bind_unix(path);
    }
    let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(Bound::Tcp(listener))
}

#[cfg(unix)]
fn bind_unix(path: &str) -> io::Result<Bound> {
    use std::os::unix::fs::FileTypeExt;
    let path = PathBuf::from(path);
    // A stale socket file from a dead server would fail the bind with
    // AddrInUse; unlink it — but only if it really is a socket, never an
    // unrelated file that happens to share the name.
    if let Ok(meta) = std::fs::symlink_metadata(&path) {
        if meta.file_type().is_socket() {
            let _ = std::fs::remove_file(&path);
        }
    }
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;
    Ok(Bound::Unix(listener, path))
}

#[cfg(not(unix))]
fn bind_unix(_path: &str) -> io::Result<Bound> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "unix: listeners are not supported on this platform",
    ))
}

/// Counts live connections against the cap and lets the shutdown path
/// wait for all of them to finish draining.
#[derive(Default)]
struct ConnTracker {
    live: Mutex<usize>,
    changed: Condvar,
}

impl ConnTracker {
    fn try_acquire(&self, cap: usize) -> bool {
        let mut live = self.live.lock().expect("conn tracker lock");
        if *live >= cap {
            return false;
        }
        *live += 1;
        true
    }

    fn release(&self) {
        let mut live = self.live.lock().expect("conn tracker lock");
        *live = live.saturating_sub(1);
        drop(live);
        self.changed.notify_all();
    }

    fn wait_zero(&self) {
        let mut live = self.live.lock().expect("conn tracker lock");
        while *live > 0 {
            live = self.changed.wait(live).expect("conn tracker lock"); // lint:allow(panic-path) -- Condvar::wait only fails on mutex poison, i.e. a connection thread already panicked; propagates an existing panic rather than creating a path
        }
    }
}

/// Run totals summed across connections (each connection folds its
/// session summary in as it closes).
#[derive(Default)]
struct Totals {
    connections: AtomicUsize,
    rejected: AtomicUsize,
    requests: AtomicUsize,
    errors: AtomicUsize,
}

impl Totals {
    fn summary(&self) -> NetSummary {
        NetSummary {
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Everything an accept loop or connection thread needs, by reference —
/// all of it outlives the thread scope.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    exec: &'a Executor,
    service: &'a AuditService,
    opts: &'a NetOptions,
    shutdown: &'a AtomicBool,
    live: &'a ConnTracker,
    totals: &'a Totals,
}

/// Accepts connections on `listeners` and serves each as a pipelined
/// JSONL session against `service` until graceful shutdown (the wire
/// `shutdown` op on any connection, or [`NetHandle::shutdown`]).
///
/// Per-connection I/O failures close that connection only; this function
/// itself does not fail — bind errors are surfaced earlier by
/// [`NetListeners::bind`].
pub fn serve_net(service: &AuditService, listeners: NetListeners, opts: &NetOptions) -> NetSummary {
    let NetListeners { bounds, shutdown } = listeners;
    // Declared before the scope so every scoped thread can borrow them.
    let exec = Executor::new(opts.workers, opts.strip_timing);
    let live = ConnTracker::default();
    let totals = Totals::default();
    std::thread::scope(|scope| {
        exec.start_workers(scope, service);
        let ctx = Ctx {
            exec: &exec,
            service,
            opts,
            shutdown: &shutdown,
            live: &live,
            totals: &totals,
        };
        let accepts: Vec<_> = bounds
            .iter()
            .map(|bound| scope.spawn(move || accept_loop(scope, ctx, bound)))
            .collect();
        for h in accepts {
            let _ = h.join();
        }
        // Accept loops are done (shutdown flag set); connections notice
        // the flag at their next poll point, drain, and release.
        live.wait_zero();
        // No session can dispatch anymore: let the workers exit so the
        // scope can join.
        exec.close();
    });
    totals.summary()
}

fn accept_loop<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'scope>,
    bound: &'scope Bound,
) {
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match bound.accept() {
            Ok(conn) => {
                if !ctx.live.try_acquire(ctx.opts.max_connections) {
                    ctx.totals.rejected.fetch_add(1, Ordering::Relaxed);
                    reject_overloaded(conn);
                    continue;
                }
                ctx.totals.connections.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || {
                    handle_connection(scope, ctx, conn);
                    ctx.live.release();
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (e.g. out of descriptors):
                // back off rather than spin or die.
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Answers an over-the-cap connection with one in-band error line, then
/// drops it. The write is best-effort and time-bounded so a peer that
/// never reads cannot wedge the accept loop.
fn reject_overloaded(mut conn: Conn) {
    let _ = conn.set_blocking();
    let _ = conn.set_write_timeout(Duration::from_secs(1));
    let line = Value::object([
        ("ok", Value::from(false)),
        (
            "error",
            Value::object([
                ("kind", Value::from("overloaded")),
                (
                    "message",
                    Value::from("connection limit reached; retry later"),
                ),
            ]),
        ),
    ])
    .render();
    let _ = writeln!(conn, "{line}");
    let _ = conn.flush();
}

/// Why the read half of a connection stopped.
enum ReadEnd {
    /// EOF, error, timeout, an oversized line, or server shutdown.
    Closed,
    /// The peer sent the `shutdown` admin op.
    ShutdownRequested,
}

fn handle_connection<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'scope>,
    mut conn: Conn,
) {
    // Accepted sockets may inherit the listener's nonblocking mode on
    // some platforms; read timeouts need blocking mode.
    if conn.set_blocking().is_err() {
        return;
    }
    conn.set_nodelay();
    // Reads wake at POLL to check shutdown/idle; writes to a peer that
    // never reads give up after the idle timeout.
    if conn
        .set_read_timeout(ctx.opts.idle_timeout.min(POLL))
        .is_err()
    {
        return;
    }
    let _ = conn.set_write_timeout(ctx.opts.idle_timeout);
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let (res_tx, res_rx) = mpsc::channel();
    let dead = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Gate::new(ctx.opts.pipeline_window));
    let writer = scope.spawn({
        let gate = Arc::clone(&gate);
        let dead = Arc::clone(&dead);
        // Buffered so each response line reaches the kernel as one
        // write; write_responses flushes per line.
        move || {
            crate::session::write_responses(io::BufWriter::new(write_half), &res_rx, &gate, &dead)
        }
    });
    let mut session = Session::new(
        ctx.exec,
        ctx.service,
        res_tx,
        Arc::clone(&dead),
        Arc::clone(&gate),
    );
    let end = read_loop(ctx, &mut conn, &mut session);
    // Drop the session: its response sender goes away, so once the
    // in-flight jobs complete the writer drains the reorder buffer and
    // returns — that is the per-connection flush point.
    drop(session);
    if let Ok(Ok(summary)) = writer.join() {
        ctx.totals
            .requests
            .fetch_add(summary.requests, Ordering::Relaxed);
        ctx.totals
            .errors
            .fetch_add(summary.errors, Ordering::Relaxed);
    }
    if matches!(end, ReadEnd::ShutdownRequested) {
        // Flip the global flag only after this connection's drain, so
        // the shutdown acknowledgement itself is flushed.
        ctx.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Reads and dispatches request lines until EOF, error, idle timeout,
/// an oversized line, server shutdown, or a `shutdown` op.
///
/// Framing is manual (not `BufRead::lines`): reads time out at poll
/// points, and a timeout mid-line must not discard the partial line the
/// way a buffered reader would.
fn read_loop(ctx: Ctx<'_>, conn: &mut Conn, session: &mut Session<'_>) -> ReadEnd {
    let mut acc: VecDeque<u8> = VecDeque::new();
    let mut buf = [0u8; 8192];
    let mut last_activity = Instant::now();
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) || session.dead() {
            return ReadEnd::Closed;
        }
        match conn.read(&mut buf) {
            Ok(0) => return ReadEnd::Closed,
            Ok(n) => {
                last_activity = Instant::now();
                let Some(chunk) = buf.get(..n) else {
                    return ReadEnd::Closed;
                };
                acc.extend(chunk.iter().copied());
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let mut line: Vec<u8> = acc.drain(..=pos).collect();
                    line.pop(); // the newline
                    if line.len() > ctx.opts.max_line_bytes {
                        session.dispatch_error(format!(
                            "request line exceeds {} bytes",
                            ctx.opts.max_line_bytes
                        ));
                        return ReadEnd::Closed;
                    }
                    if session.dispatch_bytes(&line) == LineOutcome::Shutdown {
                        return ReadEnd::ShutdownRequested;
                    }
                    if ctx.shutdown.load(Ordering::Relaxed) || session.dead() {
                        return ReadEnd::Closed;
                    }
                }
                // A partial line larger than the cap can never become a
                // valid request: answer and close rather than buffer an
                // unbounded stream of garbage.
                if acc.len() > ctx.opts.max_line_bytes {
                    session.dispatch_error(format!(
                        "request line exceeds {} bytes",
                        ctx.opts.max_line_bytes
                    ));
                    return ReadEnd::Closed;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= ctx.opts.idle_timeout {
                    return ReadEnd::Closed;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadEnd::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::students_fig1;
    use std::io::{BufRead, BufReader};

    fn fig1_service() -> AuditService {
        let service = AuditService::new();
        service.register_dataset("fig1", Arc::new(students_fig1()));
        service
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

    fn opts() -> NetOptions {
        NetOptions {
            workers: 4,
            strip_timing: true,
            idle_timeout: Duration::from_secs(30),
            ..NetOptions::default()
        }
    }

    /// Shuts the server down when dropped: a client that panics inside
    /// the server's scope then fails its test instead of hanging it.
    struct StopOnDrop(NetHandle);

    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Binds a loopback listener, runs `serve_net` on a scoped thread,
    /// and hands the client half to `client`; shuts the server down once
    /// `client` returns or unwinds, and returns the run summary.
    fn with_server<T: Send>(
        opts: NetOptions,
        client: impl FnOnce(&str, NetHandle) -> T + Send,
    ) -> (NetSummary, T) {
        let service = fig1_service();
        let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).unwrap();
        let addr = listeners.local_addrs().remove(0);
        let addr = addr.strip_prefix("tcp:").unwrap().to_string();
        let handle = listeners.handle();
        let stop = StopOnDrop(handle.clone());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_net(&service, listeners, &opts));
            let out = client(&addr, handle);
            drop(stop);
            (server.join().unwrap(), out)
        })
    }

    #[test]
    fn pipelined_tcp_session_answers_in_order_and_shuts_down() {
        let (summary, lines) = with_server(opts(), |addr, _| {
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut batch = String::new();
            for i in 0..8 {
                batch.push_str(&audit_line(i));
                batch.push('\n');
            }
            batch.push_str("{\"id\": 8, \"op\": \"shutdown\"}\n");
            // One write: the whole pipeline in flight at once.
            conn.write_all(batch.as_bytes()).unwrap();
            let reader = BufReader::new(conn);
            let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
            lines
        });
        assert_eq!(lines.len(), 9);
        for (i, line) in lines.iter().take(8).enumerate() {
            assert!(
                line.starts_with(&format!(r#"{{"id":{i},"ok":true"#)),
                "{line}"
            );
        }
        assert_eq!(lines[8], r#"{"id":8,"ok":true,"op":"shutdown"}"#);
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 9);
        assert_eq!(summary.errors, 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trips_and_unlinks_on_drop() {
        let path =
            std::env::temp_dir().join(format!("rankfair_net_test_{}.sock", std::process::id()));
        let spec = format!("unix:{}", path.display());
        let service = fig1_service();
        let listeners = NetListeners::bind(&[spec]).unwrap();
        let handle = listeners.handle();
        let summary = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_net(&service, listeners, &opts()));
            let mut conn = UnixStream::connect(&path).unwrap();
            conn.write_all((audit_line(0) + "\n").as_bytes()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with(r#"{"id":0,"ok":true"#), "{line}");
            handle.shutdown();
            server.join().unwrap()
        });
        assert_eq!(summary.connections, 1);
        assert!(!path.exists(), "socket file unlinked on drop");
    }

    #[test]
    fn over_cap_connections_get_in_band_overloaded_error() {
        let opts = NetOptions {
            max_connections: 1,
            ..opts()
        };
        let (summary, rejected_line) = with_server(opts, |addr, _| {
            // First connection holds the only slot (it never sends, the
            // server is just waiting on it).
            let held = TcpStream::connect(addr).unwrap();
            let second = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(second);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            drop(held);
            line
        });
        assert!(
            rejected_line.contains(r#""kind":"overloaded""#),
            "{rejected_line}"
        );
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.connections, 1);
    }

    #[test]
    fn a_panicking_job_on_one_connection_leaves_the_others_served() {
        // A monitor whose entry lock a panic poisoned, as an `apply` that
        // unwound on connection A leaves it. A's next update on it draws
        // one `monitor_poisoned` error echoing its id and A's next audit
        // is answered; connection B's pipelined audits are all answered;
        // B's `shutdown` then drains the server on its own.
        let service = fig1_service();
        let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).unwrap();
        let addr = listeners.local_addrs().remove(0);
        let addr = addr.strip_prefix("tcp:").unwrap().to_string();
        let stop = StopOnDrop(listeners.handle());
        let summary = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_net(&service, listeners, &opts()));
            // Read timeouts turn a wedged lane into a failure, not a hang.
            let mut a = TcpStream::connect(&addr).unwrap();
            a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut a_lines = BufReader::new(a.try_clone().unwrap()).lines();
            let register = concat!(
                r#"{"id":1,"op":"register_monitor","name":"m","dataset":"fig1","rank_by":"Grade","#,
                r#""task":{"type":"under","measure":{"type":"global","lower":2}},"#,
                r#""config":{"tau":4,"kmin":4,"kmax":5}}"#,
                "\n"
            );
            a.write_all(register.as_bytes()).unwrap();
            let line = a_lines.next().unwrap().unwrap();
            assert!(line.starts_with(r#"{"id":1,"ok":true"#), "{line}");
            let entry = service.monitor_entry("m").unwrap();
            let poisoner = std::thread::spawn(move || {
                let _held = entry.lock().unwrap();
                panic!("apply unwound");
            });
            assert!(poisoner.join().is_err());

            let update = r#"{"id":2,"op":"update","monitor":"m","edits":[{"edit":"score","row":5,"score":19.5}]}"#;
            a.write_all(format!("{update}\n{}\n", audit_line(3)).as_bytes())
                .unwrap();
            let line = a_lines.next().unwrap().unwrap();
            assert!(
                line.starts_with(r#"{"id":2,"ok":false,"error":{"kind":"monitor_poisoned""#),
                "{line}"
            );
            let line = a_lines.next().unwrap().unwrap();
            assert!(line.starts_with(r#"{"id":3,"ok":true"#), "{line}");

            let mut b = TcpStream::connect(&addr).unwrap();
            b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut batch: String = (10..18).map(|i| audit_line(i) + "\n").collect();
            batch.push_str("{\"id\": 18, \"op\": \"shutdown\"}\n");
            b.write_all(batch.as_bytes()).unwrap();
            let b_lines: Vec<String> = BufReader::new(b).lines().map(|l| l.unwrap()).collect();
            assert_eq!(b_lines.len(), 9);
            for (i, line) in (10..).zip(&b_lines[..8]) {
                assert!(
                    line.starts_with(&format!(r#"{{"id":{i},"ok":true"#)),
                    "{line}"
                );
            }
            assert_eq!(b_lines[8], r#"{"id":18,"ok":true,"op":"shutdown"}"#);

            // The shutdown op alone must drain the server; `stop` only
            // stops a server that failed to, so the test fails, not hangs.
            let deadline = Instant::now() + Duration::from_secs(30);
            while !server.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let drained = server.is_finished();
            drop(stop);
            let summary = server.join().unwrap();
            assert!(drained, "the shutdown op drains every connection");
            summary
        });
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.requests, 12);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn oversized_line_is_answered_in_band_and_closes() {
        let opts = NetOptions {
            max_line_bytes: 256,
            ..opts()
        };
        let (_, (err_line, eof)) = with_server(opts, |addr, _| {
            let mut conn = TcpStream::connect(addr).unwrap();
            let huge = "x".repeat(1024);
            conn.write_all((huge + "\n").as_bytes()).unwrap();
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut rest = String::new();
            let eof = reader.read_line(&mut rest).unwrap() == 0;
            (line, eof)
        });
        assert!(err_line.contains(r#""kind":"bad_request""#), "{err_line}");
        assert!(err_line.contains("exceeds 256 bytes"), "{err_line}");
        assert!(eof, "connection closed after the framing violation");
    }
}
