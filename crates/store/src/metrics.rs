//! Observability primitives: lock-cheap counters, latency histograms,
//! per-operator query profiles, and a dependency-free JSON codec.
//!
//! Every hot path in the engine (buffer pool, WAL, B+tree, query
//! operators) records into atomics declared here or in its own module;
//! nothing in this module takes a lock on the read or write side, so the
//! overhead of instrumentation is a handful of relaxed atomic adds per
//! event. [`crate::db::Database::metrics`] assembles the full
//! [`MetricsSnapshot`]; the CLI (`pt stats`, `--profile`) and the bench
//! harness render it as tables or JSON.
//!
//! The JSON schema emitted by [`MetricsSnapshot::to_json`] and
//! [`QueryProfile::to_json`] is documented in `docs/METRICS.md` at the
//! repository root; treat that file as the contract for downstream
//! tooling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets in a [`LatencyHistogram`]. Bucket `i` counts
/// samples whose nanosecond value has `i` significant bits, i.e. the range
/// `[2^(i-1), 2^i)`; bucket 0 holds exact zeros. The last bucket is a
/// catch-all for everything at or above `2^(BUCKETS-2)` ns (~9.2 minutes),
/// far beyond any single engine operation.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free latency histogram over nanosecond samples.
///
/// Buckets are powers of two ([`HISTOGRAM_BUCKETS`] of them), which keeps
/// recording to a single relaxed `fetch_add` plus a `leading_zeros`. The
/// histogram also tracks count, sum, and max so snapshots can report exact
/// means alongside approximate quantiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond sample: number of significant bits,
/// clamped to the final catch-all bucket.
#[inline]
fn bucket_index(nanos: u64) -> usize {
    let bits = (64 - nanos.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (exclusive, in nanoseconds) of bucket `i`; the last bucket
/// is unbounded and reports `u64::MAX`.
#[inline]
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample of `nanos` nanoseconds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Record an elapsed [`Duration`].
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Point-in-time copy of the histogram. Buckets, count, and sum are
    /// read with relaxed loads; under concurrent recording the snapshot is
    /// internally consistent to within in-flight samples.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum.load(Ordering::Relaxed),
            max_nanos: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_nanos: u64,
    /// Largest single sample in nanoseconds.
    pub max_nanos: u64,
    /// Per-bucket sample counts (log2 nanosecond buckets).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Exact mean in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing the q-th sample. Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The true max is a tighter bound than the top bucket edge.
                return bucket_upper_bound(i).min(self.max_nanos.max(1));
            }
        }
        self.max_nanos
    }

    /// JSON object matching the `histogram` schema in `docs/METRICS.md`.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Json::Obj(vec![
                    ("le_nanos".into(), Json::UInt(bucket_upper_bound(i))),
                    ("count".into(), Json::UInt(c)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("sum_nanos".into(), Json::UInt(self.sum_nanos)),
            ("max_nanos".into(), Json::UInt(self.max_nanos)),
            ("mean_nanos".into(), Json::Num(self.mean_nanos())),
            ("p50_nanos".into(), Json::UInt(self.quantile_nanos(0.5))),
            ("p99_nanos".into(), Json::UInt(self.quantile_nanos(0.99))),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

// ---------------------------------------------------------------------------
// JSON (no external dependencies)
// ---------------------------------------------------------------------------

/// A JSON value. The engine carries no serde_json dependency, so metrics
/// and profiles serialize through this small self-contained codec
/// ([`Json::emit`] / [`Json::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, byte counts, nanoseconds).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs (insertion order is preserved so
    /// emitted output is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize to a compact JSON string.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        // Keep integral floats round-trippable as numbers
                        // with an explicit decimal point.
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&f.to_string());
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => emit_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Accepts exactly one value plus surrounding
    /// whitespace; returns a message describing the first syntax error.
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Look up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64 if it is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> std::result::Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Operator profiles
// ---------------------------------------------------------------------------

/// One executed operator in a query plan: its cardinalities and wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Operator name, e.g. `"index-eq"`, `"full-scan"`, `"sort"`.
    pub operator: String,
    /// Rows (or candidate entries) entering the operator.
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Wall-clock time spent in the operator, nanoseconds.
    pub elapsed_nanos: u64,
    /// The planner's output-row estimate for this operator, when one was
    /// made — comparing it to `rows_out` makes misestimates visible.
    pub estimated_rows: Option<u64>,
}

impl OperatorProfile {
    /// Build a profile record (no planner estimate attached).
    pub fn new(
        operator: impl Into<String>,
        rows_in: u64,
        rows_out: u64,
        elapsed: Duration,
    ) -> Self {
        OperatorProfile {
            operator: operator.into(),
            rows_in,
            rows_out,
            elapsed_nanos: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
            estimated_rows: None,
        }
    }

    /// Attach the planner's output-row estimate.
    pub fn with_estimated_rows(mut self, rows: Option<u64>) -> Self {
        self.estimated_rows = rows;
        self
    }

    /// JSON object matching the `operator` schema in `docs/METRICS.md`.
    /// `estimated_rows` is present only when the planner made an
    /// estimate, so pre-planner consumers see an unchanged document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("operator".into(), Json::Str(self.operator.clone())),
            ("rows_in".into(), Json::UInt(self.rows_in)),
            ("rows_out".into(), Json::UInt(self.rows_out)),
            ("elapsed_nanos".into(), Json::UInt(self.elapsed_nanos)),
        ];
        if let Some(est) = self.estimated_rows {
            pairs.push(("estimated_rows".into(), Json::UInt(est)));
        }
        Json::Obj(pairs)
    }
}

/// An EXPLAIN-style profile of one executed query: the operator pipeline in
/// execution order plus the end-to-end wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Operators in execution order.
    pub operators: Vec<OperatorProfile>,
    /// End-to-end wall time of the query, nanoseconds.
    pub total_nanos: u64,
}

impl QueryProfile {
    /// Append an operator record.
    pub fn push(&mut self, op: OperatorProfile) {
        self.operators.push(op);
    }

    /// Human-readable fixed-width table, one operator per row. The
    /// `est rows` column shows the planner's pre-execution estimate
    /// (`-` when the operator carried none) next to the actual
    /// `rows out`, so misestimates are visible at a glance.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>10} {:>14}\n",
            "operator", "rows in", "rows out", "est rows", "elapsed"
        ));
        for op in &self.operators {
            let est = match op.estimated_rows {
                Some(n) => n.to_string(),
                None => "-".into(),
            };
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>10} {:>14}\n",
                op.operator,
                op.rows_in,
                op.rows_out,
                est,
                format_nanos(op.elapsed_nanos)
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>10} {:>14}\n",
            "total",
            "",
            "",
            "",
            format_nanos(self.total_nanos)
        ));
        out
    }

    /// JSON object matching the `profile` schema in `docs/METRICS.md`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "operators".into(),
                Json::Arr(
                    self.operators
                        .iter()
                        .map(OperatorProfile::to_json)
                        .collect(),
                ),
            ),
            ("total_nanos".into(), Json::UInt(self.total_nanos)),
        ])
    }
}

/// Render nanoseconds with a human-friendly unit.
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

// ---------------------------------------------------------------------------
// Whole-engine snapshot
// ---------------------------------------------------------------------------

/// Aggregate counters for every B+tree index in a database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStatsSnapshot {
    /// Total entries across all indexes.
    pub entries: u64,
    /// Node splits performed by inserts.
    pub splits: u64,
    /// Nodes visited by lookups and scans.
    pub node_reads: u64,
    /// Maximum tree depth across indexes (leaf = 1).
    pub max_depth: u64,
    /// Single-key equality probes (`get_eq`/`contains_key`).
    pub point_probes: u64,
    /// Batched multi-key probes (`get_eq_batch`); each batch counts once
    /// regardless of how many keys it carries.
    pub batch_probes: u64,
}

/// WAL counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Records appended.
    pub appends: u64,
    /// Payload bytes appended (framed body bytes).
    pub append_bytes: u64,
    /// `sync` calls (each flushes pending records and fsyncs).
    pub syncs: u64,
    /// Latency distribution of `sync` calls.
    pub sync_latency: HistogramSnapshot,
}

/// Transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStatsSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (explicitly or via drop).
    pub rollbacks: u64,
}

/// I/O fault-handling counters: retry activity and the degraded-mode
/// flag (see `docs/FAULTS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Transient I/O errors that were retried (each backoff attempt
    /// counts once).
    pub retries: u64,
    /// Whether the database is in read-only degraded mode after an
    /// irrecoverable WAL flush failure.
    pub degraded: bool,
    /// Write attempts rejected with `StoreError::ReadOnly` while
    /// degraded.
    pub readonly_rejections: u64,
}

/// Live planner counters, owned by the [`crate::db::Database`] and bumped
/// by the core pr-filter planning pass (`perftrack::planner::plan_filters`)
/// and its profiled runs: every seed decision lands in exactly one of
/// `stats_hits`, `stale_fallbacks` or `stats_misses`, so `plans` is
/// their sum.
#[derive(Debug, Default)]
pub struct PlannerStats {
    /// Seed-probe decisions planned (one per pr-filter family).
    pub plans: Counter,
    /// Decisions costed from fresh statistics.
    pub stats_hits: Counter,
    /// Decisions that found no histogram for the probed index (never
    /// analyzed, or the index postdates ANALYZE).
    pub stats_misses: Counter,
    /// Decisions made on statistics drifted past the invalidation rule;
    /// the stale estimate is still used and labelled `[stale]`.
    pub stale_fallbacks: Counter,
    /// Sum of planner row estimates over profiled operators.
    pub estimated_rows: Counter,
    /// Sum of actual output rows over those same profiled operators;
    /// comparing against `estimated_rows` gives the aggregate estimate
    /// error.
    pub actual_rows: Counter,
}

impl PlannerStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> PlannerStatsSnapshot {
        PlannerStatsSnapshot {
            plans: self.plans.get(),
            stats_hits: self.stats_hits.get(),
            stats_misses: self.stats_misses.get(),
            stale_fallbacks: self.stale_fallbacks.get(),
            estimated_rows: self.estimated_rows.get(),
            actual_rows: self.actual_rows.get(),
        }
    }
}

/// A point-in-time copy of [`PlannerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStatsSnapshot {
    /// Seed-probe decisions planned.
    pub plans: u64,
    /// Decisions costed from fresh statistics.
    pub stats_hits: u64,
    /// Decisions that found no histogram.
    pub stats_misses: u64,
    /// Decisions made on drifted statistics.
    pub stale_fallbacks: u64,
    /// Sum of planner row estimates over profiled operators.
    pub estimated_rows: u64,
    /// Sum of actual output rows over those operators.
    pub actual_rows: u64,
}

/// A point-in-time view of every engine-level metric, assembled by
/// [`crate::db::Database::metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Buffer pool counters (summed across shards).
    pub pool: crate::buffer::PoolStatsSnapshot,
    /// Per-shard buffer pool counters (`pool.shard.*`), in shard order.
    pub pool_shards: Vec<crate::buffer::PoolShardSnapshot>,
    /// Write-ahead log counters.
    pub wal: WalStatsSnapshot,
    /// B+tree counters aggregated over all indexes.
    pub btree: BTreeStatsSnapshot,
    /// Transaction counters.
    pub txn: TxnStatsSnapshot,
    /// I/O fault-handling counters and degraded-mode flag.
    pub io: IoStatsSnapshot,
    /// Query-planner counters (see `docs/PLANNER.md`).
    pub planner: PlannerStatsSnapshot,
}

impl MetricsSnapshot {
    /// JSON object matching the top-level `stats` schema in
    /// `docs/METRICS.md`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "buffer_pool".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::UInt(self.pool.hits)),
                    ("misses".into(), Json::UInt(self.pool.misses)),
                    ("evictions".into(), Json::UInt(self.pool.evictions)),
                    ("writebacks".into(), Json::UInt(self.pool.writebacks)),
                    ("contended".into(), Json::UInt(self.pool.contended)),
                    ("hit_rate".into(), Json::Num(self.pool.hit_rate())),
                    (
                        "shards".into(),
                        Json::Arr(
                            self.pool_shards
                                .iter()
                                .map(|s| {
                                    Json::Obj(vec![
                                        ("shard".into(), Json::UInt(s.shard as u64)),
                                        ("frames".into(), Json::UInt(s.frames as u64)),
                                        ("hits".into(), Json::UInt(s.hits)),
                                        ("misses".into(), Json::UInt(s.misses)),
                                        ("evictions".into(), Json::UInt(s.evictions)),
                                        ("writebacks".into(), Json::UInt(s.writebacks)),
                                        ("contended".into(), Json::UInt(s.contended)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "wal".into(),
                Json::Obj(vec![
                    ("appends".into(), Json::UInt(self.wal.appends)),
                    ("append_bytes".into(), Json::UInt(self.wal.append_bytes)),
                    ("syncs".into(), Json::UInt(self.wal.syncs)),
                    ("sync_latency".into(), self.wal.sync_latency.to_json()),
                ]),
            ),
            (
                "btree".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::UInt(self.btree.entries)),
                    ("splits".into(), Json::UInt(self.btree.splits)),
                    ("node_reads".into(), Json::UInt(self.btree.node_reads)),
                    ("max_depth".into(), Json::UInt(self.btree.max_depth)),
                    ("point_probes".into(), Json::UInt(self.btree.point_probes)),
                    ("batch_probes".into(), Json::UInt(self.btree.batch_probes)),
                ]),
            ),
            (
                "txn".into(),
                Json::Obj(vec![
                    ("commits".into(), Json::UInt(self.txn.commits)),
                    ("rollbacks".into(), Json::UInt(self.txn.rollbacks)),
                ]),
            ),
            (
                "io".into(),
                Json::Obj(vec![
                    ("retries".into(), Json::UInt(self.io.retries)),
                    ("degraded".into(), Json::Bool(self.io.degraded)),
                    (
                        "readonly_rejections".into(),
                        Json::UInt(self.io.readonly_rejections),
                    ),
                ]),
            ),
            (
                "planner".into(),
                Json::Obj(vec![
                    ("plans".into(), Json::UInt(self.planner.plans)),
                    ("stats_hits".into(), Json::UInt(self.planner.stats_hits)),
                    ("stats_misses".into(), Json::UInt(self.planner.stats_misses)),
                    (
                        "stale_fallbacks".into(),
                        Json::UInt(self.planner.stale_fallbacks),
                    ),
                    (
                        "estimated_rows".into(),
                        Json::UInt(self.planner.estimated_rows),
                    ),
                    ("actual_rows".into(), Json::UInt(self.planner.actual_rows)),
                ]),
            ),
        ])
    }

    /// Human-readable table, one metric per line (`name  value`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| out.push_str(&format!("{k:<28} {v}\n"));
        line("buffer_pool.hits", self.pool.hits.to_string());
        line("buffer_pool.misses", self.pool.misses.to_string());
        line("buffer_pool.evictions", self.pool.evictions.to_string());
        line("buffer_pool.writebacks", self.pool.writebacks.to_string());
        line("buffer_pool.contended", self.pool.contended.to_string());
        line(
            "buffer_pool.hit_rate",
            format!("{:.4}", self.pool.hit_rate()),
        );
        for s in &self.pool_shards {
            line(&format!("pool.shard.{}.hits", s.shard), s.hits.to_string());
            line(
                &format!("pool.shard.{}.misses", s.shard),
                s.misses.to_string(),
            );
            line(
                &format!("pool.shard.{}.contended", s.shard),
                s.contended.to_string(),
            );
        }
        line("wal.appends", self.wal.appends.to_string());
        line("wal.append_bytes", self.wal.append_bytes.to_string());
        line("wal.syncs", self.wal.syncs.to_string());
        line(
            "wal.sync_latency.mean",
            format_nanos(self.wal.sync_latency.mean_nanos() as u64),
        );
        line(
            "wal.sync_latency.p99",
            format_nanos(self.wal.sync_latency.quantile_nanos(0.99)),
        );
        line("btree.entries", self.btree.entries.to_string());
        line("btree.splits", self.btree.splits.to_string());
        line("btree.node_reads", self.btree.node_reads.to_string());
        line("btree.max_depth", self.btree.max_depth.to_string());
        line("btree.point_probes", self.btree.point_probes.to_string());
        line("btree.batch_probes", self.btree.batch_probes.to_string());
        line("txn.commits", self.txn.commits.to_string());
        line("txn.rollbacks", self.txn.rollbacks.to_string());
        line("io.retries", self.io.retries.to_string());
        line("io.degraded", self.io.degraded.to_string());
        line(
            "io.readonly_rejections",
            self.io.readonly_rejections.to_string(),
        );
        line("planner.plans", self.planner.plans.to_string());
        line("planner.stats_hits", self.planner.stats_hits.to_string());
        line(
            "planner.stats_misses",
            self.planner.stats_misses.to_string(),
        );
        line(
            "planner.stale_fallbacks",
            self.planner.stale_fallbacks.to_string(),
        );
        line(
            "planner.estimated_rows",
            self.planner.estimated_rows.to_string(),
        );
        line("planner.actual_rows", self.planner.actual_rows.to_string());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every sample lands strictly below its bucket's upper bound.
        for nanos in [0u64, 1, 7, 100, 4096, 1 << 30, 1 << 45] {
            assert!(nanos < bucket_upper_bound(bucket_index(nanos)), "{nanos}");
        }
    }

    #[test]
    fn histogram_snapshot_consistency() {
        let h = LatencyHistogram::new();
        for nanos in [10u64, 20, 30, 1000, 50_000, 2_000_000] {
            h.record(nanos);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum_nanos, 10 + 20 + 30 + 1000 + 50_000 + 2_000_000);
        assert_eq!(s.max_nanos, 2_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert!((s.mean_nanos() - s.sum_nanos as f64 / 6.0).abs() < 1e-9);
        // Quantiles are monotone and bounded by max.
        let p50 = s.quantile_nanos(0.5);
        let p99 = s.quantile_nanos(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= s.max_nanos.max(1) || p99 <= bucket_upper_bound(HISTOGRAM_BUCKETS - 1));
        // p50 of {10,20,30,1000,50k,2M}: 3rd sample = 30, bucket (16,32].
        assert_eq!(p50, 32);
    }

    #[test]
    fn histogram_concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max_nanos, 3999);
    }

    #[test]
    fn json_emit_parse_roundtrip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("full-scan \"quoted\"\n".into())),
            ("rows".into(), Json::UInt(12345)),
            ("rate".into(), Json::Num(0.75)),
            ("whole".into(), Json::Num(3.0)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "list".into(),
                Json::Arr(vec![
                    Json::UInt(1),
                    Json::Str("é→".into()),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.emit();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Emission is stable across a round trip.
        assert_eq!(parsed.emit(), text);
    }

    #[test]
    fn json_parse_errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn json_accessors() {
        let doc = Json::parse(r#"{"a": 7, "b": "x", "c": [1, 2]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn profile_render_and_json() {
        let mut p = QueryProfile::default();
        p.push(OperatorProfile::new(
            "index-eq",
            100,
            20,
            Duration::from_micros(150),
        ));
        p.push(OperatorProfile::new(
            "sort",
            20,
            20,
            Duration::from_nanos(900),
        ));
        p.total_nanos = 160_000;
        let table = p.render_table();
        assert!(table.contains("index-eq"));
        assert!(table.contains("rows in"));
        assert!(table.contains("total"));
        let json = p.to_json();
        let text = json.emit();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, json);
        let ops = parsed.get("operators").and_then(Json::as_arr).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].get("rows_out").and_then(Json::as_u64), Some(20));
        assert_eq!(
            parsed.get("total_nanos").and_then(Json::as_u64),
            Some(160_000)
        );
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(7), "7ns");
        assert_eq!(format_nanos(1_500), "1.50us");
        assert_eq!(format_nanos(2_500_000), "2.500ms");
        assert_eq!(format_nanos(3_000_000_000), "3.000s");
    }
}
