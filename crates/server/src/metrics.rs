//! Server-side observability: connection/request counters, an
//! in-flight gauge, and per-opcode latency histograms.
//!
//! These reuse the engine's lock-free primitives
//! ([`perftrack_store::metrics::Counter`] and
//! [`perftrack_store::metrics::LatencyHistogram`]) so recording on the
//! request path costs a few relaxed atomic adds. `pt stats --connect`
//! merges the [`ServerMetrics::to_json`] object under a `"server"` key
//! next to the engine snapshot; `docs/METRICS.md` documents the schema.

use perftrack_store::metrics::{Counter, Json, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A gauge: a value that can rise and fall (in-flight requests).
/// Relaxed atomics, mirroring [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one (saturating at zero).
    #[inline]
    pub fn dec(&self) {
        // fetch_update so a racing double-decrement cannot wrap.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Request opcodes tracked by the per-operation latency histograms, in
/// display order.
pub const OP_LABELS: [&str; 9] = [
    "ping",
    "load",
    "query",
    "free_resources",
    "export",
    "stats",
    "fsck",
    "compare",
    "shutdown",
];

/// All server-level metrics. One instance lives for the lifetime of a
/// [`crate::server::Server`] and is shared (via `Arc`) with every worker
/// thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections a worker accepted from the listener.
    pub connections_accepted: Counter,
    /// Connections closed by the idle-timeout reaper.
    pub connections_reaped: Counter,
    /// Requests executed (any opcode, any outcome).
    pub requests: Counter,
    /// Requests that produced an error response.
    pub errors: Counter,
    /// Requests currently executing against the store.
    pub in_flight: Gauge,
    /// Requests admitted past admission (every request but `Shutdown`
    /// and the shed ones).
    pub admission_admitted: Counter,
    /// Expensive requests shed with a typed `Overloaded` response because
    /// another expensive request held the slot.
    pub admission_shed: Counter,
    /// Per-opcode request latency, indexed like [`OP_LABELS`].
    pub op_latency: [LatencyHistogram; OP_LABELS.len()],
}

impl ServerMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// Histogram index for a request label; `None` for unknown labels.
    fn op_index(label: &str) -> Option<usize> {
        OP_LABELS.iter().position(|l| *l == label)
    }

    /// Record one completed request: its opcode label, elapsed wall
    /// time, and whether it produced an error response.
    pub fn record_request(&self, label: &str, elapsed: Duration, is_error: bool) {
        self.requests.inc();
        if is_error {
            self.errors.inc();
        }
        if let Some(i) = Self::op_index(label) {
            self.op_latency[i].record_duration(elapsed);
        }
    }

    /// JSON object for the `"server"` key of the merged stats document
    /// (schema in `docs/METRICS.md`).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "connections_accepted".into(),
                Json::UInt(self.connections_accepted.get()),
            ),
            (
                "connections_reaped".into(),
                Json::UInt(self.connections_reaped.get()),
            ),
            ("requests".into(), Json::UInt(self.requests.get())),
            ("errors".into(), Json::UInt(self.errors.get())),
            ("in_flight".into(), Json::UInt(self.in_flight.get())),
            (
                "admission".into(),
                Json::Obj(vec![
                    ("admitted".into(), Json::UInt(self.admission_admitted.get())),
                    ("shed".into(), Json::UInt(self.admission_shed.get())),
                ]),
            ),
        ];
        let ops: Vec<(String, Json)> = OP_LABELS
            .iter()
            .zip(self.op_latency.iter())
            .filter(|(_, h)| h.snapshot().count > 0)
            .map(|(label, h)| ((*label).to_string(), h.snapshot().to_json()))
            .collect();
        pairs.push(("op_latency".into(), Json::Obj(ops)));
        Json::Obj(pairs)
    }

    /// Human-readable `server.*` lines in the same `name  value` format
    /// as the engine's metrics table.
    pub fn render_table(&self) -> String {
        use perftrack_store::metrics::format_nanos;
        let mut out = String::new();
        let mut line = |k: &str, v: String| out.push_str(&format!("{k:<28} {v}\n"));
        line(
            "server.connections_accepted",
            self.connections_accepted.get().to_string(),
        );
        line(
            "server.connections_reaped",
            self.connections_reaped.get().to_string(),
        );
        line("server.requests", self.requests.get().to_string());
        line("server.errors", self.errors.get().to_string());
        line("server.in_flight", self.in_flight.get().to_string());
        line(
            "server.admission.admitted",
            self.admission_admitted.get().to_string(),
        );
        line(
            "server.admission.shed",
            self.admission_shed.get().to_string(),
        );
        for (label, h) in OP_LABELS.iter().zip(self.op_latency.iter()) {
            let s = h.snapshot();
            if s.count == 0 {
                continue;
            }
            line(&format!("server.op.{label}.count"), s.count.to_string());
            line(
                &format!("server.op.{label}.mean"),
                format_nanos(s.mean_nanos() as u64),
            );
            line(
                &format!("server.op.{label}.p99"),
                format_nanos(s.quantile_nanos(0.99)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_never_wraps_below_zero() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn record_request_tracks_counts_and_latency() {
        let m = ServerMetrics::new();
        m.record_request("query", Duration::from_micros(50), false);
        m.record_request("query", Duration::from_micros(70), true);
        m.record_request("load", Duration::from_millis(2), false);
        assert_eq!(m.requests.get(), 3);
        assert_eq!(m.errors.get(), 1);
        let qi = OP_LABELS.iter().position(|l| *l == "query").unwrap();
        assert_eq!(m.op_latency[qi].snapshot().count, 2);
    }

    #[test]
    fn every_request_label_has_a_histogram() {
        use crate::proto::Request;
        let requests = [
            Request::Ping,
            Request::LoadPtdf {
                text: String::new(),
                token: String::new(),
            },
            Request::Query(Default::default()),
            Request::FreeResources(Default::default()),
            Request::Export,
            Request::Stats,
            Request::Fsck { deep: false },
            Request::Compare {
                executions: vec![],
                top: 0,
                threshold_pct: 0,
            },
            Request::Shutdown,
        ];
        for r in &requests {
            assert!(
                ServerMetrics::op_index(r.label()).is_some(),
                "no OP_LABELS entry for {:?}",
                r.label()
            );
        }
    }

    #[test]
    fn unknown_label_still_counts_request() {
        let m = ServerMetrics::new();
        m.record_request("bogus", Duration::from_nanos(1), false);
        assert_eq!(m.requests.get(), 1);
        for h in &m.op_latency {
            assert_eq!(h.snapshot().count, 0);
        }
    }

    #[test]
    fn json_and_table_renderings_cover_all_counters() {
        let m = ServerMetrics::new();
        m.connections_accepted.inc();
        m.record_request("ping", Duration::from_micros(3), false);
        m.admission_admitted.inc();
        m.admission_shed.inc();
        let json = m.to_json();
        assert_eq!(
            json.get("connections_accepted").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("requests").and_then(Json::as_u64), Some(1));
        let admission = json.get("admission").unwrap();
        assert_eq!(admission.get("admitted").and_then(Json::as_u64), Some(1));
        assert_eq!(admission.get("shed").and_then(Json::as_u64), Some(1));
        let ops = json.get("op_latency").unwrap();
        assert!(ops.get("ping").is_some());
        assert!(ops.get("load").is_none(), "empty histograms are omitted");
        // The table parses as `name  value` lines prefixed with server.
        let table = m.render_table();
        for l in table.lines() {
            assert!(l.starts_with("server."), "line {l:?}");
        }
        assert!(table.contains("server.op.ping.count"));
        // The JSON document survives a parse round-trip.
        assert_eq!(Json::parse(&json.emit()).unwrap(), json);
    }
}
