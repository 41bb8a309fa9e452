//! Network service layer for the PerfTrack store.
//!
//! The paper's PerfTrack deployment put one shared DBMS behind many
//! clients (GUI sessions, batch loaders); this crate gives the embedded
//! Rust engine the same shape: a TCP server exposing a
//! [`perftrack::PTDataStore`] over a length-prefixed binary protocol,
//! plus a blocking client library the `pt` CLI uses for
//! `pt serve` / `pt --connect`.
//!
//! * [`wire`] — framing (`[len:u32][ver:u8][op:u8][payload]`) and the
//!   panic-free incremental decoder.
//! * [`proto`] — typed [`proto::Request`]/[`proto::Response`] messages
//!   and the [`proto::ErrorCategory`] taxonomy.
//! * [`ops`] — the store side of every request: [`ops::execute`] and one
//!   function per request kind, free of socket and admission, so the
//!   server and `pt` on a local store answer from the same code.
//! * [`server`] — thread-per-connection server whose workers accept
//!   from one shared listener, one expensive-request slot (admission: a
//!   second export, compare or fsck is shed with a retry hint), idle
//!   reaping, and graceful drain; the engine's own gate orders writes.
//! * [`client`] — blocking client with jittered-backoff retry keyed off
//!   the server-reported error category and request idempotency.
//! * [`transport`] — byte-stream seam over [`std::net::TcpStream`] with
//!   a deterministic network-fault injector ([`transport::ChaosInjector`])
//!   for delay, partial writes, corruption, disconnects, and blackholes.
//! * [`metrics`] — `server.*` counters/gauges/histograms merged into
//!   `pt stats` output.
//!
//! The wire contract (opcode table, field layouts, error mapping, and
//! versioning rules) is documented in `docs/SERVER.md`.

#![deny(missing_docs)]
// I/O confinement: no `std::fs` outside the Vfs seam (lists in clippy.toml).
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod client;
pub mod metrics;
pub mod ops;
pub mod proto;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use metrics::ServerMetrics;
pub use ops::execute;
pub use proto::{
    ErrorCategory, NameFilter, QuerySpec, Request, Response, WireFreeColumn, WireLoadStats,
    WIRE_VERSION,
};
pub use server::{categorize, Server, ServerConfig, ServerHandle};
pub use transport::{
    wrap_stream, ChaosInjector, ChaosTransport, NetFault, NetTrigger, StdTransport, Transport,
    TransportFactory,
};
pub use wire::{Frame, FrameDecoder, WireError, MAX_FRAME};
