//! Thread-per-connection TCP server over a shared [`PTDataStore`].
//!
//! Architecture:
//!
//! ```text
//! acceptor thread ──► bounded `mpsc::sync_channel` ──► N worker threads
//!    (nonblocking           (queue_depth)              (one connection
//!     accept loop)                                      each, to completion)
//! ```
//!
//! The acceptor never blocks indefinitely: it polls a nonblocking
//! listener so it can observe the shutdown flag, and it *rejects* (with a
//! best-effort `Busy` error frame) rather than queues when the dispatch
//! channel is full — a slow store must surface as back-pressure the
//! client can retry, not as an unbounded backlog.
//!
//! Past the accept queue, admission is one expensive-request slot: an
//! expensive request ([`Request::is_expensive`]: export, compare, fsck)
//! runs only while no other one does, and is otherwise shed at once with
//! a typed `Overloaded { retry_after_ms }` response. Cheap requests are
//! bounded by the worker count alone and never wait, and `Shutdown`
//! bypasses admission so a drain is always possible. All socket I/O
//! goes through the [`Transport`] seam so tests can splice the
//! [`crate::transport::ChaosInjector`] into either side of the wire.
//!
//! Workers serve one connection at a time to completion. Requests on a
//! connection execute ([`crate::ops::execute`]) under a server-level
//! `RwLock<()>` gate: PTdf loads take the write side, every other store
//! request the read side, and `Ping`/`Shutdown` neither, so the
//! store sees at most one writer while readers proceed concurrently
//! (the engine's own latching makes this safe; the gate makes it
//! *scheduled* — a bulk load cannot starve between individual readers).
//!
//! Per-request deadlines are enforced post-hoc: the store's operations
//! are not cancellable mid-flight, so a request that overruns the
//! deadline completes internally but the client receives a `Deadline`
//! error (and `server.deadline_expired` increments). Idle connections
//! are reaped after `idle_timeout` without a complete request.
//!
//! Shutdown (via [`ServerHandle::shutdown`], a `Shutdown` request, or a
//! signal handler in the CLI) is a graceful drain: the acceptor stops
//! and drops the channel, workers finish the request in flight, answer
//! nothing further, and exit once the queue is empty.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::metrics::ServerMetrics;
use crate::ops::{self, execute};
use crate::proto::{ErrorCategory, Request, RequestHeader, Response};
use crate::transport::{wrap_stream, Transport, TransportFactory};
use crate::wire::{FrameDecoder, WireError};
use perftrack::{PTDataStore, PtError};
// Named by the unit tests through `use super::*`.
#[cfg(test)]
use crate::proto::{QuerySpec, WIRE_VERSION};
#[cfg(test)]
use perftrack_store::metrics::Json;
use perftrack_store::sync::{Level, Mutex, RwLock};
use perftrack_store::StoreError;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7071"`. Port 0 picks a free
    /// port (read it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads (= maximum concurrently served connections).
    pub workers: usize,
    /// Accepted-but-unclaimed connection queue bound; beyond it new
    /// connections are rejected with a `Busy` error frame.
    pub queue_depth: usize,
    /// Per-request wall-clock deadline (post-hoc enforced). A shorter
    /// client-propagated deadline in the request header wins.
    pub request_deadline: Duration,
    /// Close connections with no complete request for this long.
    pub idle_timeout: Duration,
    /// Optional transport wrapper applied to every accepted connection;
    /// `None` means plain TCP. Tests splice in a chaos injector here.
    pub transport: Option<TransportFactory>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("request_deadline", &self.request_deadline)
            .field("idle_timeout", &self.idle_timeout)
            .field("transport", &self.transport.as_ref().map(|_| "<factory>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 16,
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            transport: None,
        }
    }
}

/// How often blocked loops (accept poll, channel recv, socket read) wake
/// to re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Backoff hint of every `Overloaded` answer: an expensive request shed
/// because another one holds the slot.
const RETRY_AFTER_MS: u32 = 100;

/// State shared between the acceptor, the workers, and the handle.
struct Shared {
    store: Arc<PTDataStore>,
    metrics: Arc<ServerMetrics>,
    shutdown: AtomicBool,
    /// Single-writer/multi-reader request gate (see module docs).
    write_gate: RwLock<()>,
    /// Set while an expensive request runs (see [`ExpensiveSlot`]).
    expensive_running: AtomicBool,
    cfg: ServerConfig,
}

impl Shared {
    fn new(store: Arc<PTDataStore>, cfg: ServerConfig) -> Arc<Self> {
        Arc::new(Shared {
            store,
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: AtomicBool::new(false),
            write_gate: RwLock::new(Level::WriteGate, ()),
            expensive_running: AtomicBool::new(false),
            cfg,
        })
    }
}

/// The server's one expensive-request slot, held while the request runs.
/// Dropping it frees the slot, also when the request panics.
struct ExpensiveSlot<'a>(&'a AtomicBool);

impl<'a> ExpensiveSlot<'a> {
    /// The slot if no expensive request holds it, `None` otherwise.
    fn try_take(running: &'a AtomicBool) -> Option<Self> {
        running
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| ExpensiveSlot(running))
    }
}

impl Drop for ExpensiveSlot<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The server type; construct a running instance with [`Server::start`].
pub struct Server;

/// A running server: its bound address, metrics, and thread handles.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and worker threads, and return a handle.
    pub fn start(store: Arc<PTDataStore>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Shared::new(store, cfg.clone());
        let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        // One connection per message, so the lock around the shared
        // receiver is taken per connection, not per request.
        let rx = Arc::new(Mutex::new(Level::AcceptQueue, rx));

        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        drop(rx);
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(&shared, &listener, tx);
            }));
        }
        Ok(ServerHandle {
            local_addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Server-side metrics (shared with the worker threads).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Begin a graceful drain: stop accepting, finish in-flight
    /// requests, let workers exit. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the acceptor and every worker thread has exited.
    /// Call [`ServerHandle::shutdown`] first (or send a `Shutdown`
    /// request) or this will wait forever.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Dropping the only Sender lets workers drain the queue and
            // then observe disconnection.
            drop(tx);
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Counted before the send: a worker may claim the stream
                // and `dec` before `try_send` even returns.
                shared.metrics.queue_depth.inc();
                match tx.try_send(stream) {
                    Ok(()) => shared.metrics.connections_accepted.inc(),
                    Err(TrySendError::Full(stream)) => {
                        shared.metrics.queue_depth.dec();
                        shared.metrics.connections_rejected.inc();
                        reject_busy(shared, stream);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.metrics.queue_depth.dec();
                        return;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Best-effort `Busy` error frame to a connection we will not serve.
fn reject_busy(shared: &Shared, stream: TcpStream) {
    let mut transport = wrap_stream(shared.cfg.transport.as_ref(), stream);
    let resp = Response::Err {
        category: ErrorCategory::Busy,
        message: "server accept queue is full; retry with backoff".into(),
    };
    let _ = transport.write_all(&resp.encode());
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // The guard is a temporary of this statement: the receiver is
        // free again before the connection is served.
        let next = rx.lock().recv_timeout(POLL_INTERVAL);
        match next {
            Ok(stream) => {
                shared.metrics.queue_depth.dec();
                serve_connection(shared, stream);
            }
            Err(RecvTimeoutError::Timeout) => {}
            // The acceptor dropped the sender and the queue is empty:
            // the drain is complete.
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one connection until the peer closes it, a protocol error makes
/// the stream undecodable, the idle timeout fires, or shutdown drains us.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let mut stream: Box<dyn Transport> = wrap_stream(shared.cfg.transport.as_ref(), stream);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    let mut last_activity = Instant::now();
    loop {
        // Drain every complete frame already buffered before reading.
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    last_activity = Instant::now();
                    let (resp, stop) = handle_frame(shared, Request::decode(&frame));
                    if stream.write_all(&resp.encode()).is_err() {
                        return;
                    }
                    if stop {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // The stream is no longer decodable; answer once and
                    // tear the connection down.
                    let resp = Response::Err {
                        category: ErrorCategory::Invalid,
                        message: format!("protocol error: {e}"),
                    };
                    let _ = stream.write_all(&resp.encode());
                    return;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if last_activity.elapsed() >= shared.cfg.idle_timeout {
            shared.metrics.connections_reaped.inc();
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            // `read` guarantees `n <= buf.len()`; `get` keeps the slice
            // panic-free even against a misbehaving Read impl.
            Ok(n) => decoder.extend(buf.get(..n).unwrap_or_default()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Execute one decoded (or undecodable) request and build the response.
/// The boolean asks the connection loop to stop (shutdown was requested).
fn handle_frame(
    shared: &Shared,
    decoded: Result<(Request, RequestHeader), WireError>,
) -> (Response, bool) {
    let (req, header) = match decoded {
        Ok(pair) => pair,
        Err(e) => {
            shared.metrics.errors.inc();
            return (
                Response::Err {
                    category: ErrorCategory::Invalid,
                    message: format!("protocol error: {e}"),
                },
                true,
            );
        }
    };
    // The client-propagated deadline tightens (never loosens) the
    // server's own per-request deadline.
    let mut deadline = shared.cfg.request_deadline;
    if header.deadline_ms > 0 {
        deadline = deadline.min(Duration::from_millis(u64::from(header.deadline_ms)));
    }
    // Admission: an expensive request needs the one slot and is shed
    // when another holds it. Cheap requests never wait, and `Shutdown`
    // bypasses admission so a drain is always possible.
    let slot = if req.is_expensive() {
        let Some(slot) = ExpensiveSlot::try_take(&shared.expensive_running) else {
            shared.metrics.admission_shed.inc();
            let shed = Response::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            };
            return (shed, false);
        };
        Some(slot)
    } else {
        None
    };
    if !matches!(req, Request::Shutdown) {
        shared.metrics.admission_admitted.inc();
    }
    let label = req.label();
    shared.metrics.in_flight.inc();
    let start = Instant::now();
    let mut resp = execute_gated(shared, &req);
    let elapsed = start.elapsed();
    shared.metrics.in_flight.dec();
    drop(slot);
    // Post-hoc deadline: the work happened, but the client asked for a
    // bounded response time and gets a typed error it can act on.
    if elapsed > deadline && !matches!(resp, Response::Err { .. }) {
        shared.metrics.deadline_expired.inc();
        resp = Response::Err {
            category: ErrorCategory::Deadline,
            message: format!(
                "request exceeded the {}ms deadline (took {}ms)",
                deadline.as_millis(),
                elapsed.as_millis()
            ),
        };
    }
    let is_error = matches!(resp, Response::Err { .. });
    shared.metrics.record_request(label, elapsed, is_error);
    let stop = matches!(req, Request::Shutdown);
    if stop {
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    (resp, stop)
}

/// Run a request under the scheduling gate, taken once and keyed on
/// [`Request::is_read_only`]: the write side for writes, the read side
/// for other store requests, and neither for `Ping`/`Shutdown`. `Stats`
/// gains the server's own section.
fn execute_gated(shared: &Shared, req: &Request) -> Response {
    let store = &*shared.store;
    let result = if matches!(req, Request::Ping | Request::Shutdown) {
        execute(store, req)
    } else if req.is_read_only() {
        let _r = shared.write_gate.read();
        match req {
            Request::Stats => Ok(ops::stats(store, Some(&shared.metrics))),
            _ => execute(store, req),
        }
    } else {
        let _w = shared.write_gate.write();
        execute(store, req)
    };
    result.unwrap_or_else(|e| Response::Err {
        category: categorize(&e),
        message: e.to_string(),
    })
}

/// Map an engine error onto the wire error taxonomy (the contract table
/// lives in `docs/SERVER.md`).
pub fn categorize(e: &PtError) -> ErrorCategory {
    match e {
        PtError::Store(StoreError::ReadOnly) => ErrorCategory::ReadOnly,
        PtError::Store(StoreError::Corrupt(_)) => ErrorCategory::Corrupt,
        PtError::Store(StoreError::Locked(_)) => ErrorCategory::Locked,
        PtError::Store(s) if s.is_transient() => ErrorCategory::Transient,
        PtError::Io(io) if StoreError::Io(clone_io_kind(io)).is_transient() => {
            ErrorCategory::Transient
        }
        PtError::NotFound(_) | PtError::Invalid(_) | PtError::Model(_) | PtError::Ptdf(_) => {
            ErrorCategory::Invalid
        }
        _ => ErrorCategory::Internal,
    }
}

/// `std::io::Error` is not `Clone`; rebuild one with the same kind for
/// transience classification.
fn clone_io_kind(e: &std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::NameFilter;
    use std::io::{Read, Write};

    const GOOD_PTDF: &str = "Application A\n\
                             Execution e1 A\n\
                             Resource /r application\n\
                             PerfResult e1 /r(primary) T m 1.5 u\n";

    fn start_test_server(cfg: ServerConfig) -> (ServerHandle, Arc<PTDataStore>) {
        let store = Arc::new(PTDataStore::in_memory().unwrap());
        let handle = Server::start(Arc::clone(&store), cfg).unwrap();
        (handle, store)
    }

    /// Minimal raw-socket client for exercising the server without the
    /// retry layer in `crate::client`.
    fn call_raw(addr: SocketAddr, req: &Request) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&req.encode()).unwrap();
        read_response(&mut stream)
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = dec.next_frame().unwrap() {
                return Response::decode(&frame).unwrap();
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed before responding");
            dec.extend(&buf[..n]);
        }
    }

    fn shutdown_and_join(handle: ServerHandle) {
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn ping_reports_version_and_degraded_flag() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        let resp = call_raw(handle.local_addr(), &Request::Ping);
        assert_eq!(
            resp,
            Response::Pong {
                version: WIRE_VERSION,
                degraded: false
            }
        );
        shutdown_and_join(handle);
    }

    #[test]
    fn load_then_query_roundtrip_over_tcp() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        let addr = handle.local_addr();
        // One connection, two requests back to back.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                &Request::LoadPtdf {
                    text: GOOD_PTDF.into(),
                    token: String::new(),
                }
                .encode(),
            )
            .unwrap();
        match read_response(&mut stream) {
            Response::Loaded { stats: s, replayed } => {
                assert_eq!(s.statements, 4);
                assert_eq!(s.results, 1);
                assert!(!replayed);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let spec = QuerySpec {
            names: vec![NameFilter {
                pattern: "/r".into(),
                relatives: 'N',
            }],
            ..QuerySpec::default()
        };
        stream.write_all(&Request::Query(spec).encode()).unwrap();
        match read_response(&mut stream) {
            Response::Table { columns, rows } => {
                assert!(!columns.is_empty());
                assert_eq!(rows.len(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let m = handle.metrics();
        assert_eq!(m.requests.get(), 2);
        assert_eq!(m.errors.get(), 0);
        shutdown_and_join(handle);
    }

    #[test]
    fn stats_response_carries_server_section() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        match call_raw(handle.local_addr(), &Request::Stats) {
            Response::Stats { json, table } => {
                let doc = Json::parse(&json).unwrap();
                assert!(doc.get("server").is_some());
                assert!(doc.get("wal").is_some());
                assert!(table.contains("server.requests"));
                assert!(table.contains("wal.appends"));
            }
            other => panic!("unexpected response {other:?}"),
        }
        shutdown_and_join(handle);
    }

    #[test]
    fn fsck_over_the_wire_is_clean() {
        let (handle, store) = start_test_server(ServerConfig::default());
        store.load_ptdf_str(GOOD_PTDF).unwrap();
        match call_raw(handle.local_addr(), &Request::Fsck { deep: true }) {
            Response::FsckDone { errors, .. } => assert_eq!(errors, 0),
            other => panic!("unexpected response {other:?}"),
        }
        shutdown_and_join(handle);
    }

    #[test]
    fn compare_over_the_wire() {
        let (handle, store) = start_test_server(ServerConfig::default());
        store
            .load_ptdf_str(
                "Application A\n\
                 Resource /f application\n\
                 Execution e1 A\nExecution e2 A\n\
                 PerfResult e1 /f(primary) T time 2.0 s\n\
                 PerfResult e2 /f(primary) T time 8.0 s\n",
            )
            .unwrap();
        let req = Request::Compare {
            executions: vec!["e1".into(), "e2".into()],
            top: 10,
            threshold_pct: 25,
        };
        match call_raw(handle.local_addr(), &req) {
            Response::CompareDone { json, table } => {
                let doc = Json::parse(&json).unwrap();
                assert_eq!(doc.get("schema"), Some(&Json::Str("pt-compare/v1".into())));
                assert!(table.contains("/f"), "table mentions the resource: {table}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Unknown executions are an Invalid error, not a panic.
        let bad = Request::Compare {
            executions: vec!["e1".into(), "nope".into()],
            top: 10,
            threshold_pct: 25,
        };
        match call_raw(handle.local_addr(), &bad) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Invalid),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(handle.metrics().requests.get(), 2);
        shutdown_and_join(handle);
    }

    #[test]
    fn invalid_query_maps_to_invalid_category() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        let spec = QuerySpec {
            names: vec![NameFilter {
                pattern: "x".into(),
                relatives: 'Z', // not a relatives code
            }],
            ..QuerySpec::default()
        };
        match call_raw(handle.local_addr(), &Request::Query(spec)) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Invalid),
            other => panic!("unexpected response {other:?}"),
        }
        shutdown_and_join(handle);
    }

    #[test]
    fn garbage_bytes_get_error_response_not_panic() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // A hostile length prefix makes the stream undecodable.
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.write_all(&[0xAB; 16]).unwrap();
        match read_response(&mut stream) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Invalid),
            other => panic!("unexpected response {other:?}"),
        }
        // The server must still answer on a fresh connection.
        let resp = call_raw(handle.local_addr(), &Request::Ping);
        assert!(matches!(resp, Response::Pong { .. }));
        shutdown_and_join(handle);
    }

    #[test]
    fn malformed_payload_in_valid_frame_gets_typed_error_not_panic() {
        // Regression for the panic-freedom contract: a frame whose header
        // is well-formed but whose payload bytes are hostile must come
        // back as a typed Invalid error — never a worker panic — and the
        // same server must keep answering afterwards.
        let (handle, _store) = start_test_server(ServerConfig::default());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Opcode 0x03 (QUERY, docs/SERVER.md) expects a structured
        // QuerySpec payload; feed it a string length prefix pointing far
        // past the payload's end.
        let frame =
            crate::wire::encode_frame(crate::proto::WIRE_VERSION, 0x03, &u32::MAX.to_be_bytes());
        stream.write_all(&frame).unwrap();
        match read_response(&mut stream) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Invalid),
            other => panic!("unexpected response {other:?}"),
        }
        let resp = call_raw(handle.local_addr(), &Request::Ping);
        assert!(matches!(resp, Response::Pong { .. }));
        shutdown_and_join(handle);
    }

    #[test]
    fn shutdown_request_drains_the_server() {
        let (handle, _store) = start_test_server(ServerConfig::default());
        let resp = call_raw(handle.local_addr(), &Request::Shutdown);
        assert_eq!(resp, Response::ShuttingDown);
        // join() returns because the shutdown flag stops all threads.
        handle.join();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let (handle, _store) = start_test_server(cfg);
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Send nothing; the server should close the connection.
        let mut buf = [0u8; 16];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = stream.read(&mut buf).unwrap();
        assert_eq!(n, 0, "expected EOF from the reaper");
        assert_eq!(handle.metrics().connections_reaped.get(), 1);
        shutdown_and_join(handle);
    }

    #[test]
    fn deadline_overrun_yields_deadline_error() {
        let cfg = ServerConfig {
            request_deadline: Duration::from_nanos(1),
            ..ServerConfig::default()
        };
        let (handle, _store) = start_test_server(cfg);
        match call_raw(handle.local_addr(), &Request::Stats) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Deadline),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(handle.metrics().deadline_expired.get(), 1);
        shutdown_and_join(handle);
    }

    /// Build a `Shared` directly so tests can hold the expensive-request
    /// slot and observe shedding without racing real request timing.
    fn test_shared() -> Arc<Shared> {
        Shared::new(
            Arc::new(PTDataStore::in_memory().unwrap()),
            ServerConfig::default(),
        )
    }

    fn decoded(req: Request) -> (Request, RequestHeader) {
        (req, RequestHeader::default())
    }

    fn compare_e1_e2() -> Request {
        Request::Compare {
            executions: vec!["e1".into(), "e2".into()],
            top: 10,
            threshold_pct: 25,
        }
    }

    fn shared_with_two_executions() -> Arc<Shared> {
        let shared = test_shared();
        shared
            .store
            .load_ptdf_str(
                "Application A\n\
                 Resource /f application\n\
                 Execution e1 A\nExecution e2 A\n\
                 PerfResult e1 /f(primary) T time 2.0 s\n\
                 PerfResult e2 /f(primary) T time 8.0 s\n",
            )
            .unwrap();
        shared
    }

    #[test]
    fn admission_sheds_a_second_expensive_request() {
        let shared = shared_with_two_executions();
        let held = ExpensiveSlot::try_take(&shared.expensive_running).unwrap();
        match handle_frame(&shared, Ok(decoded(compare_e1_e2()))) {
            (Response::Overloaded { retry_after_ms }, false) => assert_eq!(retry_after_ms, 100),
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert_eq!(shared.metrics.admission_shed.get(), 1);
        assert_eq!(shared.metrics.admission_admitted.get(), 0);
        assert_eq!(
            shared.metrics.requests.get(),
            0,
            "a shed request never runs"
        );
        drop(held);
        match handle_frame(&shared, Ok(decoded(compare_e1_e2()))) {
            (Response::CompareDone { .. }, false) => {}
            other => panic!("expected a comparison, got {other:?}"),
        }
        assert_eq!(shared.metrics.admission_admitted.get(), 1);
        assert!(!shared.expensive_running.load(Ordering::SeqCst));
    }

    #[test]
    fn admission_lets_cheap_requests_run_beside_an_expensive_one() {
        let shared = test_shared();
        let _held = ExpensiveSlot::try_take(&shared.expensive_running).unwrap();
        let load = Request::LoadPtdf {
            text: GOOD_PTDF.into(),
            token: "load-beside-export".into(),
        };
        let query = Request::Query(QuerySpec {
            names: vec![NameFilter {
                pattern: "/r".into(),
                relatives: 'N',
            }],
            ..QuerySpec::default()
        });
        let start = Instant::now();
        match handle_frame(&shared, Ok(decoded(load))) {
            (Response::Loaded { stats, .. }, false) => assert_eq!(stats.results, 1),
            other => panic!("expected a load, got {other:?}"),
        }
        match handle_frame(&shared, Ok(decoded(query))) {
            (Response::Table { rows, .. }, false) => assert_eq!(rows.len(), 1),
            other => panic!("expected a table, got {other:?}"),
        }
        match handle_frame(&shared, Ok(decoded(Request::Ping))) {
            (Response::Pong { .. }, false) => {}
            other => panic!("expected pong, got {other:?}"),
        }
        // Cheap requests never wait for the slot.
        assert!(start.elapsed() < Duration::from_millis(200));
        assert_eq!(shared.metrics.admission_admitted.get(), 3);
        assert_eq!(shared.metrics.admission_shed.get(), 0);
    }

    #[test]
    fn admission_slot_is_released_when_its_holder_panics() {
        let shared = test_shared();
        let holder = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let _slot = ExpensiveSlot::try_take(&holder.expensive_running).unwrap();
            panic!("worker dies holding the expensive-request slot");
        })
        .join();
        assert!(panicked.is_err());
        match handle_frame(&shared, Ok(decoded(Request::Fsck { deep: false }))) {
            (Response::FsckDone { .. }, false) => {}
            other => panic!("expected fsck result, got {other:?}"),
        }
        assert_eq!(shared.metrics.admission_shed.get(), 0);
    }

    #[test]
    fn expensive_ops_shed_while_cheap_ops_keep_succeeding() {
        let shared = test_shared();
        let held = ExpensiveSlot::try_take(&shared.expensive_running).unwrap();
        // Every expensive op is shed with the typed retry hint...
        for req in [
            Request::Export,
            Request::Fsck { deep: true },
            compare_e1_e2(),
        ] {
            match handle_frame(&shared, Ok(decoded(req))) {
                (Response::Overloaded { retry_after_ms }, false) => {
                    assert_eq!(retry_after_ms, RETRY_AFTER_MS);
                }
                other => panic!("expected overloaded, got {other:?}"),
            }
        }
        assert_eq!(shared.metrics.admission_shed.get(), 3);
        // ...while a cheap op still goes straight through.
        match handle_frame(&shared, Ok(decoded(Request::Stats))) {
            (Response::Stats { .. }, false) => {}
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(shared.metrics.admission_admitted.get(), 1);
        // Once the slot is free, the same expensive op is admitted.
        drop(held);
        match handle_frame(&shared, Ok(decoded(Request::Fsck { deep: false }))) {
            (Response::FsckDone { .. }, false) => {}
            other => panic!("expected fsck result, got {other:?}"),
        }
        assert!(!shared.expensive_running.load(Ordering::SeqCst));
    }

    #[test]
    fn admission_is_bypassed_by_shutdown() {
        let shared = test_shared();
        let _held = ExpensiveSlot::try_take(&shared.expensive_running).unwrap();
        // An expensive op sheds (the slot is held)...
        match handle_frame(&shared, Ok(decoded(Request::Export))) {
            (Response::Overloaded { .. }, false) => {}
            other => panic!("expected overloaded, got {other:?}"),
        }
        // ...but shutdown still drains the server.
        match handle_frame(&shared, Ok(decoded(Request::Shutdown))) {
            (Response::ShuttingDown, true) => {}
            other => panic!("expected shutdown, got {other:?}"),
        }
        assert!(shared.shutdown.load(Ordering::SeqCst));
        assert_eq!(shared.metrics.admission_admitted.get(), 0);
    }

    #[test]
    fn client_deadline_header_tightens_server_deadline() {
        let shared = test_shared();
        // Server deadline is 10s; the client asks for 1ms via the header.
        match handle_frame(
            &shared,
            Ok((Request::Stats, RequestHeader { deadline_ms: 1 })),
        ) {
            (
                Response::Err {
                    category: ErrorCategory::Deadline,
                    ..
                },
                false,
            ) => {}
            // Sub-millisecond stats are possible on a fast machine; the
            // contract is only "no looser than the header".
            (Response::Stats { .. }, false) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tokened_load_replays_instead_of_double_applying() {
        let (handle, store) = start_test_server(ServerConfig::default());
        let addr = handle.local_addr();
        let req = Request::LoadPtdf {
            text: GOOD_PTDF.into(),
            token: "retry-abc".into(),
        };
        match call_raw(addr, &req) {
            Response::Loaded { stats, replayed } => {
                assert_eq!(stats.results, 1);
                assert!(!replayed);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The same token again — e.g. a client retry after a lost
        // response — must not double-apply rows.
        match call_raw(addr, &req) {
            Response::Loaded { stats, replayed } => {
                assert_eq!(stats.results, 1);
                assert!(replayed);
            }
            other => panic!("unexpected {other:?}"),
        }
        let report = store.fsck(true).unwrap();
        assert_eq!(report.error_count(), 0);
        shutdown_and_join(handle);
    }

    #[test]
    fn concurrent_readers_share_the_store() {
        let (handle, store) = start_test_server(ServerConfig::default());
        store.load_ptdf_str(GOOD_PTDF).unwrap();
        let addr = handle.local_addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let spec = QuerySpec {
                            names: vec![NameFilter {
                                pattern: "/r".into(),
                                relatives: 'N',
                            }],
                            ..QuerySpec::default()
                        };
                        match call_raw(addr, &Request::Query(spec)) {
                            Response::Table { rows, .. } => assert_eq!(rows.len(), 1),
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.metrics().requests.get(), 20);
        shutdown_and_join(handle);
    }

    /// A connection the server holds open: connected, one `Ping` answered.
    fn held_connection(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&Request::Ping.encode()).unwrap();
        assert!(matches!(read_response(&mut stream), Response::Pong { .. }));
        stream
    }

    #[test]
    fn full_accept_queue_answers_busy_and_shutdown_drains_it() {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let (handle, _store) = start_test_server(cfg);
        let addr = handle.local_addr();
        // The answered ping proves the only worker has taken `serving`
        // off the queue; `queued` then fills the queue's one place.
        let _serving = held_connection(addr);
        let mut queued = TcpStream::connect(addr).unwrap();
        let mut refused = TcpStream::connect(addr).unwrap();
        match read_response(&mut refused) {
            Response::Err { category, .. } => assert_eq!(category, ErrorCategory::Busy),
            other => panic!("expected a busy reject, got {other:?}"),
        }
        assert_eq!(handle.metrics().connections_accepted.get(), 2);
        assert_eq!(handle.metrics().connections_rejected.get(), 1);
        // Drain with one connection in service and one still queued: the
        // worker leaves the first, takes and drops the second, then sees
        // the closed queue — `join` returning is the assertion.
        shutdown_and_join(handle);
        let mut buf = [0u8; 16];
        assert_eq!(
            queued.read(&mut buf).unwrap(),
            0,
            "queued connection closed"
        );
    }

    #[test]
    fn every_worker_takes_connections_from_the_shared_receiver() {
        let cfg = ServerConfig {
            workers: 4,
            queue_depth: 4,
            ..ServerConfig::default()
        };
        let (handle, _store) = start_test_server(cfg);
        let addr = handle.local_addr();
        // A worker serves its connection to completion, so four held
        // connections are all answered only if four different workers
        // each got one while the rest waited on the receiver's lock.
        let held: Vec<TcpStream> = (0..4).map(|_| held_connection(addr)).collect();
        drop(held);
        // All four are back on the receiver; each must observe the drain.
        shutdown_and_join(handle);
    }

    #[test]
    fn queue_depth_reads_zero_once_sequential_connections_drain() {
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let (handle, _store) = start_test_server(cfg);
        let addr = handle.local_addr();
        // The one worker is parked on the receiver for each connection, so
        // it can claim the stream before the acceptor's `try_send` returns.
        for _ in 0..40 {
            assert!(matches!(
                call_raw(addr, &Request::Ping),
                Response::Pong { .. }
            ));
        }
        let metrics = handle.metrics();
        shutdown_and_join(handle);
        assert_eq!(metrics.connections_accepted.get(), 40);
        assert_eq!(metrics.queue_depth.get(), 0);
    }
}
