//! Blocking client with bounded-backoff retry.
//!
//! The client owns one lazily (re)established TCP connection. Retry
//! policy, mirroring the engine's `StoreError::is_transient()` contract:
//!
//! * A *server-reported* `Transient` error is always safe to retry — the
//!   server answered, so the request's transaction rolled back cleanly
//!   (or, for a request that failed its checksum, never ran) before the
//!   error frame was sent.
//! * A *transport* failure (connect refused, connection reset, short
//!   read) is retried only for idempotent requests
//!   ([`crate::proto::Request::is_idempotent`]): if the socket died
//!   mid-`LoadPtdf` the client cannot know whether the load committed,
//!   and loads append results, so replaying could double-load.
//!
//! * A typed `Overloaded { retry_after_ms }` response is the server
//!   shedding load *before* executing anything, so it is always safe to
//!   retry — the client honors the server's retry-after hint (taking
//!   the larger of the hint and its own backoff).
//!
//! Each retry waits a *jittered* exponential backoff, and a retry after
//! a transport failure reconnects from scratch: attempt `n` sleeps a
//! pseudo-random duration in `[backoff * 2^n / 2, backoff * 2^n]`,
//! drawn from a stream seeded per client, so a fleet of clients bounced by the same overload event
//! does not reconnect in lockstep (no thundering herd). At most
//! [`ClientConfig::max_retries`] retries follow the first attempt.
//! [`Client::retries_performed`] exposes the cumulative retry count so
//! the CLI can report "succeeded after retries" (exit code 2), matching
//! the local degraded-mode contract in `docs/FAULTS.md`.

use crate::proto::{ErrorCategory, Request, Response};
use crate::transport::{wrap_stream, Transport, TransportFactory};
use crate::wire::{FrameDecoder, WireError};
use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol frame.
    Wire(WireError),
    /// The server answered with an error response.
    Remote {
        /// Server-side failure classification.
        category: ErrorCategory,
        /// Server-provided description.
        message: String,
    },
    /// The server shed the request before executing it.
    Overloaded {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
    /// Every retry attempt failed; carries the final error.
    RetriesExhausted {
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ClientError::Remote { category, message } => {
                write!(f, "server error ({category}): {message}")
            }
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::RetriesExhausted { last, .. } => Some(last),
            ClientError::Remote { .. } | ClientError::Overloaded { .. } => None,
        }
    }
}

impl ClientError {
    /// The server-reported error category, if the failure was remote
    /// (walks through [`ClientError::RetriesExhausted`]).
    pub fn remote_category(&self) -> Option<ErrorCategory> {
        match self {
            ClientError::Remote { category, .. } => Some(*category),
            ClientError::Overloaded { .. } => Some(ErrorCategory::Overloaded),
            ClientError::RetriesExhausted { last, .. } => last.remote_category(),
            _ => None,
        }
    }
}

/// Retry and timeout knobs for [`Client::with_config`].
#[derive(Clone)]
pub struct ClientConfig {
    /// Retries after the initial attempt (so `max_retries = 3` means up
    /// to 4 attempts).
    pub max_retries: u32,
    /// Base backoff; attempt `n` sleeps a jittered duration in
    /// `[backoff * 2^n / 2, backoff * 2^n]`.
    pub backoff: Duration,
    /// Socket read timeout while waiting for a response; the bound on
    /// how long one attempt waits for the server's answer.
    pub read_timeout: Duration,
    /// Optional transport wrapper applied to every connection; `None`
    /// means plain TCP. Tests splice in a chaos injector here.
    pub transport: Option<TransportFactory>,
}

impl fmt::Debug for ClientConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientConfig")
            .field("max_retries", &self.max_retries)
            .field("backoff", &self.backoff)
            .field("read_timeout", &self.read_timeout)
            .field("transport", &self.transport.as_ref().map(|_| "<factory>"))
            .finish()
    }
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 3,
            backoff: Duration::from_millis(20),
            read_timeout: Duration::from_secs(30),
            transport: None,
        }
    }
}

/// Monotonic per-process nonce that seeds each client's jitter stream,
/// so no two clients of one process share a backoff schedule.
static CLIENT_NONCE: AtomicU64 = AtomicU64::new(1);

/// A blocking, lazily reconnecting client for one server address.
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    conn: Option<Box<dyn Transport>>,
    retries: u64,
    /// xorshift64* state for backoff jitter.
    jitter: u64,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7071"`) with default
    /// retry/timeout settings. Does not connect yet; the first call does.
    pub fn connect(addr: impl Into<String>) -> Client {
        Client::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit retry/timeout settings.
    pub fn with_config(addr: impl Into<String>, cfg: ClientConfig) -> Client {
        let nonce = CLIENT_NONCE.fetch_add(1, Ordering::Relaxed);
        // Scramble so consecutive nonces produce well-spread states.
        let jitter = nonce.wrapping_mul(0xFF51_AFD7_ED55_8CCD) | 1;
        Client {
            addr: addr.into(),
            cfg,
            conn: None,
            retries: 0,
            jitter,
        }
    }

    /// Next value from the client's xorshift64* jitter stream.
    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Jittered sleep duration for retry `attempt`: uniform over
    /// `[base/2, base]` where `base = backoff * 2^attempt`, but never
    /// below the server's retry-after hint.
    fn backoff_for(&mut self, attempt: u32, min_hint: Duration) -> Duration {
        let base = self.cfg.backoff * 2u32.saturating_pow(attempt);
        let half = base / 2;
        let span_ms = (base.saturating_sub(half)).as_millis() as u64;
        let jittered = if span_ms == 0 {
            base
        } else {
            half + Duration::from_millis(self.next_jitter() % (span_ms + 1))
        };
        jittered.max(min_hint)
    }

    /// Cumulative retries performed over the life of this client (drives
    /// the CLI's "succeeded after retries" exit code).
    pub fn retries_performed(&self) -> u64 {
        self.retries
    }

    /// Close the cached connection now (the next call reconnects).
    ///
    /// Closing from the client side first matters when the *server* is
    /// about to restart on the same address: the side that initiates the
    /// TCP close holds the TIME_WAIT state, so a client-first close
    /// leaves the server's port free to rebind immediately.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Issue one request, retrying per the policy in the module docs.
    /// A `Response::Err` frame from the server is returned as
    /// [`ClientError::Remote`] (after retries, if its category is
    /// retryable).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let result = self.call_once(req);
            let err = match result {
                Ok(Response::Err { category, message }) => {
                    ClientError::Remote { category, message }
                }
                Ok(Response::Overloaded { retry_after_ms }) => {
                    ClientError::Overloaded { retry_after_ms }
                }
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let retryable = match &err {
                // The server answered: the transaction rolled back
                // cleanly, so any request may be replayed.
                ClientError::Remote { category, .. } => category.is_retryable(),
                // The server shed the request before touching the store.
                ClientError::Overloaded { .. } => true,
                // The transport died: only idempotent requests replay.
                ClientError::Io(_) | ClientError::Wire(_) => req.is_idempotent(),
                ClientError::RetriesExhausted { .. } => false,
            };
            // Honor the server's retry-after hint as a floor under the
            // client's own jittered backoff.
            let min_hint = match &err {
                ClientError::Overloaded { retry_after_ms } => {
                    Duration::from_millis(u64::from(*retry_after_ms))
                }
                _ => Duration::ZERO,
            };
            if !retryable || attempt >= self.cfg.max_retries {
                if attempt > 0 {
                    return Err(ClientError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: Box::new(err),
                    });
                }
                return Err(err);
            }
            std::thread::sleep(self.backoff_for(attempt, min_hint));
            attempt += 1;
            self.retries += 1;
        }
    }

    /// One attempt: (re)connect if needed, write the frame, read one
    /// response frame. Any failure drops the cached connection so the
    /// next attempt starts from a fresh socket.
    fn call_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        let result = self.call_on_current_conn(req);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn call_on_current_conn(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            let mut addrs = self.addr.to_socket_addrs().map_err(ClientError::Io)?;
            let addr = addrs.next().ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                ))
            })?;
            let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
            let transport = wrap_stream(self.cfg.transport.as_ref(), stream);
            transport
                .set_read_timeout(Some(self.cfg.read_timeout))
                .map_err(ClientError::Io)?;
            let _ = transport.set_nodelay(true);
            self.conn = Some(transport);
        }
        let Some(stream) = self.conn.as_mut() else {
            // Unreachable: the block above just connected. A typed error
            // beats a panic if that ever changes.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no connection after connect",
            )));
        };
        stream.write_all(&req.encode()).map_err(ClientError::Io)?;
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        loop {
            if let Some(frame) = dec.next_frame().map_err(ClientError::Wire)? {
                return Response::decode(&frame).map_err(ClientError::Wire);
            }
            let n = stream.read(&mut buf).map_err(ClientError::Io)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            // `read` guarantees `n <= buf.len()`; `get` keeps this
            // panic-free against a misbehaving transport.
            dec.extend(buf.get(..n).unwrap_or_default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{NameFilter, QuerySpec, WIRE_VERSION};
    use crate::server::{Server, ServerConfig, ServerHandle};
    use perftrack::PTDataStore;
    use std::sync::Arc;

    const GOOD_PTDF: &str = "Application A\n\
                             Execution e1 A\n\
                             Resource /r application\n\
                             PerfResult e1 /r(primary) T m 1.5 u\n";

    fn start() -> (ServerHandle, Arc<PTDataStore>) {
        let store = Arc::new(PTDataStore::in_memory().unwrap());
        let handle = Server::start(Arc::clone(&store), ServerConfig::default()).unwrap();
        (handle, store)
    }

    #[test]
    fn client_load_query_export_roundtrip() {
        let (handle, _store) = start();
        let mut client = Client::connect(handle.local_addr().to_string());
        match client
            .call(&Request::LoadPtdf {
                text: GOOD_PTDF.into(),
                token: String::new(),
            })
            .unwrap()
        {
            Response::Loaded { stats, replayed } => {
                assert_eq!(stats.results, 1);
                assert!(!replayed);
            }
            other => panic!("unexpected {other:?}"),
        }
        let spec = QuerySpec {
            names: vec![NameFilter {
                pattern: "/r".into(),
                relatives: 'N',
            }],
            ..QuerySpec::default()
        };
        match client.call(&Request::Query(spec)).unwrap() {
            Response::Table { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Export).unwrap() {
            Response::Ptdf { text } => assert!(text.contains("Application A")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.retries_performed(), 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let (handle, store) = start();
        let addr = handle.local_addr();
        let mut client = Client::with_config(
            addr.to_string(),
            ClientConfig {
                max_retries: 5,
                backoff: Duration::from_millis(5),
                ..ClientConfig::default()
            },
        );
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong { .. }
        ));
        // Kill the server; the cached connection is now dead.
        handle.shutdown();
        handle.join();
        // Restart on the same port (retry loop also covers the window
        // where the port is not yet listening again).
        let cfg = ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        };
        let handle2 = Server::start(store, cfg).unwrap();
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong {
                version: WIRE_VERSION,
                ..
            }
        ));
        assert!(
            client.retries_performed() >= 1,
            "reconnect should count as a retry"
        );
        handle2.shutdown();
        handle2.join();
    }

    #[test]
    fn transport_failure_is_not_retried_for_loads() {
        // Nothing listens on this port (bind, learn the port, drop).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = Client::with_config(
            addr,
            ClientConfig {
                max_retries: 3,
                backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        );
        let err = client
            .call(&Request::LoadPtdf {
                text: GOOD_PTDF.into(),
                token: String::new(),
            })
            .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        assert_eq!(
            client.retries_performed(),
            0,
            "untokened loads must not replay on transport failure"
        );
        // A load carrying an idempotency token IS retried: the server
        // would dedup a replay, so a transport failure is safe to chase.
        let err = client
            .call(&Request::LoadPtdf {
                text: GOOD_PTDF.into(),
                token: "retry-me".into(),
            })
            .unwrap_err();
        assert!(
            matches!(err, ClientError::RetriesExhausted { .. }),
            "got {err:?}"
        );
        assert_eq!(client.retries_performed(), 3);
        // Idempotent requests DO retry against the dead address.
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(matches!(
            err,
            ClientError::RetriesExhausted { attempts: 4, .. }
        ));
        assert_eq!(client.retries_performed(), 6);
    }

    #[test]
    fn jittered_backoff_stays_within_bounds_and_is_seeded() {
        let mk = || {
            Client::with_config(
                "127.0.0.1:1",
                ClientConfig {
                    backoff: Duration::from_millis(64),
                    ..ClientConfig::default()
                },
            )
        };
        let mut c = mk();
        for attempt in 0..4 {
            let base = Duration::from_millis(64) * 2u32.saturating_pow(attempt);
            let d = c.backoff_for(attempt, Duration::ZERO);
            assert!(d >= base / 2 && d <= base, "attempt {attempt}: {d:?}");
        }
        // The server's retry-after hint is a floor.
        let d = c.backoff_for(0, Duration::from_millis(500));
        assert_eq!(d, Duration::from_millis(500));
        // Two clients never share a jitter stream (per-client nonce),
        // so lockstep reconnect storms cannot form.
        let (mut a, mut b) = (mk(), mk());
        let sa: Vec<u64> = (0..8).map(|_| a.next_jitter()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_jitter()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn overloaded_surfaces_as_retryable_category() {
        let err = ClientError::Overloaded {
            retry_after_ms: 250,
        };
        assert_eq!(err.remote_category(), Some(ErrorCategory::Overloaded));
        assert!(ErrorCategory::Overloaded.is_retryable());
        assert!(err.to_string().contains("250ms"));
    }

    #[test]
    fn remote_invalid_error_is_not_retried() {
        let (handle, _store) = start();
        let mut client = Client::connect(handle.local_addr().to_string());
        let spec = QuerySpec {
            names: vec![NameFilter {
                pattern: "x".into(),
                relatives: 'Z',
            }],
            ..QuerySpec::default()
        };
        let err = client.call(&Request::Query(spec)).unwrap_err();
        assert_eq!(err.remote_category(), Some(ErrorCategory::Invalid));
        assert_eq!(client.retries_performed(), 0);
        handle.shutdown();
        handle.join();
    }
}
