//! Request/response message types and their wire encoding.
//!
//! The protocol mirrors the `PTDataStore` surface the paper's client
//! tools needed from the shared DBMS: bulk PTdf loading, pr-filter
//! queries, free-resource discovery, whole-store export, stats/fsck, and
//! session control (ping/shutdown). Opcodes, field layouts, and the
//! error taxonomy are documented in `docs/SERVER.md`; that document is
//! the compatibility contract for the `version` byte.

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

use crate::wire::{
    encode_frame, put_bool, put_str, put_str_list, put_u32, put_u64, put_u8, Frame, PayloadReader,
    WireError,
};
use perftrack_store::wal::crc32;

/// Current wire-protocol version. Bump whenever a frame layout or opcode
/// meaning changes; servers reject frames from other versions with
/// [`WireError::BadVersion`].
///
/// v3: a request payload is the request's fields and a CRC-32 trailer
/// over them (v2 prefixed a 4-byte header and had no trailer),
/// `LOAD_PTDF` carries an idempotency token, `LOADED` carries a
/// `replayed` flag, and `R_OVERLOADED` (0x8A) exists.
///
/// v4: error category 1 (a full accept queue) is retired; a v3 server
/// could still send it.
pub const WIRE_VERSION: u8 = 4;

mod op {
    pub const PING: u8 = 0x01;
    pub const LOAD_PTDF: u8 = 0x02;
    pub const QUERY: u8 = 0x03;
    pub const FREE_RESOURCES: u8 = 0x04;
    pub const EXPORT: u8 = 0x05;
    pub const STATS: u8 = 0x06;
    pub const FSCK: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const COMPARE: u8 = 0x09;

    pub const R_PONG: u8 = 0x81;
    pub const R_LOADED: u8 = 0x82;
    pub const R_TABLE: u8 = 0x83;
    pub const R_FREE_RESOURCES: u8 = 0x84;
    pub const R_PTDF: u8 = 0x85;
    pub const R_STATS: u8 = 0x86;
    pub const R_FSCK: u8 = 0x87;
    pub const R_SHUTTING_DOWN: u8 = 0x88;
    pub const R_COMPARE: u8 = 0x89;
    pub const R_OVERLOADED: u8 = 0x8A;
    pub const R_ERR: u8 = 0xFF;
}

/// Bytes of the CRC-32 trailer that ends every request payload.
const CRC_LEN: usize = 4;

/// The fields of a request payload, once its CRC-32 trailer matches
/// them. A request is what the server acts on, so a byte damaged in
/// transit must fail the request, not change a field such as a load's
/// idempotency token (which would defeat its dedup).
fn checked_fields(payload: &[u8]) -> Result<&[u8], WireError> {
    let (fields, trailer) = payload
        .split_last_chunk::<CRC_LEN>()
        .ok_or(WireError::Malformed("request checksum"))?;
    if *trailer != crc32(fields).to_be_bytes() {
        return Err(WireError::BadChecksum);
    }
    Ok(fields)
}

/// One name-pattern term of a pr-filter: a resource-name suffix plus the
/// relatives code (`D`/`A`/`B`/`N`, the GUI's include-relatives toggle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameFilter {
    /// Resource name suffix to match.
    pub pattern: String,
    /// Relatives code: `D`, `A`, `B`, or `N`.
    pub relatives: char,
}

/// A pr-filter query shipped over the wire: name terms, type terms, and
/// resource columns to append to the result table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySpec {
    /// Name-pattern terms (ANDed families).
    pub names: Vec<NameFilter>,
    /// Resource-type path terms.
    pub types: Vec<String>,
    /// Extra resource columns for the result table.
    pub add_columns: Vec<String>,
}

fn put_query_spec(out: &mut Vec<u8>, spec: &QuerySpec) {
    put_u32(out, spec.names.len() as u32);
    for nf in &spec.names {
        put_str(out, &nf.pattern);
        let mut code = [0u8; 4];
        put_str(out, nf.relatives.encode_utf8(&mut code));
    }
    put_str_list(out, &spec.types);
    put_str_list(out, &spec.add_columns);
}

fn read_query_spec(r: &mut PayloadReader<'_>) -> Result<QuerySpec, WireError> {
    let n = r.u32("name filter count")? as usize;
    if n > r.remaining() / 8 + 1 {
        return Err(WireError::Malformed("name filter count"));
    }
    let mut names = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let pattern = r.str("name pattern")?;
        let code = r.str("relatives code")?;
        let relatives = code
            .chars()
            .next()
            .ok_or(WireError::Malformed("relatives code"))?;
        names.push(NameFilter { pattern, relatives });
    }
    Ok(QuerySpec {
        names,
        types: r.str_list("type list")?,
        add_columns: r.str_list("add-column list")?,
    })
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + version/degraded-state probe.
    Ping,
    /// Load a PTdf document into the store (the write path).
    LoadPtdf {
        /// PTdf source text.
        text: String,
        /// Idempotency token: non-empty means "apply at most once under
        /// this token" — the server records it in the same transaction
        /// as the rows, so a retried request replays the recorded
        /// counters instead of double-loading. Empty means no dedup.
        token: String,
    },
    /// Run a pr-filter query and return the rendered result table.
    Query(QuerySpec),
    /// Discover the free (addable) resource columns for a query.
    FreeResources(QuerySpec),
    /// Export the whole store as PTdf text.
    Export,
    /// Engine + server metrics snapshot (JSON and table renderings).
    Stats,
    /// Run the storage integrity checker.
    Fsck {
        /// Include the deep (content-hashing) passes.
        deep: bool,
    },
    /// Align two-or-N executions' resource trees server-side and return
    /// the rendered comparison, so `pt --connect` can diff executions
    /// without shipping result rows over the wire.
    Compare {
        /// Execution names, in order; index 0 is the baseline.
        executions: Vec<String>,
        /// Ranked-cell truncation (`--top`).
        top: u32,
        /// Regression threshold in whole percent (`--threshold`; integer
        /// so request frames stay `Eq`/hashable).
        threshold_pct: u32,
    },
    /// Ask the server to drain and exit.
    Shutdown,
}

impl Request {
    /// The opcode byte this request encodes to.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => op::PING,
            Request::LoadPtdf { .. } => op::LOAD_PTDF,
            Request::Query(_) => op::QUERY,
            Request::FreeResources(_) => op::FREE_RESOURCES,
            Request::Export => op::EXPORT,
            Request::Stats => op::STATS,
            Request::Fsck { .. } => op::FSCK,
            Request::Compare { .. } => op::COMPARE,
            Request::Shutdown => op::SHUTDOWN,
        }
    }

    /// Short lowercase label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::LoadPtdf { .. } => "load",
            Request::Query(_) => "query",
            Request::FreeResources(_) => "free_resources",
            Request::Export => "export",
            Request::Stats => "stats",
            Request::Fsck { .. } => "fsck",
            Request::Compare { .. } => "compare",
            Request::Shutdown => "shutdown",
        }
    }

    /// True when replaying the request after a *transport* failure is
    /// safe. A token-less `LoadPtdf` is excluded: if the connection died
    /// mid-call the client cannot know whether the load committed, and
    /// PTdf loads append performance results (they are not idempotent).
    /// With an idempotency token the server dedups server-side, so the
    /// replay is safe. A clean error *response* from the server is
    /// different — the transaction rolled back, so retrying any request
    /// is safe then.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::LoadPtdf { token, .. } => !token.is_empty(),
            _ => true,
        }
    }

    /// True for the requests that need the server's one expensive-request
    /// slot (`docs/SERVER.md` §4): whole-store export and fsck and the
    /// server-side comparison. No `_` arm, so a new opcode must pick a
    /// class to compile.
    pub fn is_expensive(&self) -> bool {
        match self {
            Request::Export | Request::Compare { .. } | Request::Fsck { .. } => true,
            Request::Ping
            | Request::LoadPtdf { .. }
            | Request::Query(_)
            | Request::FreeResources(_)
            | Request::Stats
            | Request::Shutdown => false,
        }
    }

    /// Encode to a complete frame (length prefix and the payload's
    /// CRC-32 trailer included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Request::Ping | Request::Export | Request::Stats | Request::Shutdown => {}
            Request::LoadPtdf { text, token } => {
                put_str(&mut p, text);
                put_str(&mut p, token);
            }
            Request::Query(spec) | Request::FreeResources(spec) => put_query_spec(&mut p, spec),
            Request::Fsck { deep } => put_bool(&mut p, *deep),
            Request::Compare {
                executions,
                top,
                threshold_pct,
            } => {
                put_str_list(&mut p, executions);
                put_u32(&mut p, *top);
                put_u32(&mut p, *threshold_pct);
            }
        }
        let crc = crc32(&p);
        put_u32(&mut p, crc);
        encode_frame(WIRE_VERSION, self.opcode(), &p)
    }

    /// Decode from a frame. Rejects frames from other protocol versions
    /// and payloads whose checksum does not match.
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        if frame.version != WIRE_VERSION {
            return Err(WireError::BadVersion(frame.version));
        }
        // Reject unknown opcodes before the checksum so a garbage frame
        // reports BadOpcode, not a checksum mismatch.
        if !matches!(
            frame.opcode,
            op::PING
                | op::LOAD_PTDF
                | op::QUERY
                | op::FREE_RESOURCES
                | op::EXPORT
                | op::STATS
                | op::FSCK
                | op::COMPARE
                | op::SHUTDOWN
        ) {
            return Err(WireError::BadOpcode(frame.opcode));
        }
        let mut r = PayloadReader::new(checked_fields(&frame.payload)?);
        let req = match frame.opcode {
            op::PING => Request::Ping,
            op::LOAD_PTDF => Request::LoadPtdf {
                text: r.str("ptdf text")?,
                token: r.str("idempotency token")?,
            },
            op::QUERY => Request::Query(read_query_spec(&mut r)?),
            op::FREE_RESOURCES => Request::FreeResources(read_query_spec(&mut r)?),
            op::EXPORT => Request::Export,
            op::STATS => Request::Stats,
            op::FSCK => Request::Fsck {
                deep: r.bool("deep flag")?,
            },
            op::COMPARE => Request::Compare {
                executions: r.str_list("execution list")?,
                top: r.u32("top")?,
                threshold_pct: r.u32("threshold pct")?,
            },
            op::SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Load counters reported back to the client (mirrors
/// `perftrack::LoadStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireLoadStats {
    /// PTdf statements applied.
    pub statements: u64,
    /// Applications created.
    pub applications: u64,
    /// Resource types created.
    pub resource_types: u64,
    /// Executions created.
    pub executions: u64,
    /// Resources created.
    pub resources: u64,
    /// Attributes created.
    pub attributes: u64,
    /// Constraints created.
    pub constraints: u64,
    /// Performance results created.
    pub results: u64,
}

/// One free (addable) resource column, mirroring
/// `perftrack::FreeResourceColumn`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireFreeColumn {
    /// Resource type path.
    pub type_path: String,
    /// Distinct resource base names observed across the results.
    pub distinct_values: u64,
    /// Attribute names available on those resources.
    pub attributes: Vec<String>,
}

/// Server-side failure classification, shipped with every error
/// response so clients can decide between retrying, degrading, and
/// giving up without parsing message strings. The mapping from engine
/// errors is documented in `docs/SERVER.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// Plausibly temporary (maps from `StoreError::is_transient()`, or
    /// a request that failed its checksum); retry with backoff.
    Transient,
    /// The store is in read-only degraded mode; writes will keep failing
    /// until an operator intervenes, reads still work.
    ReadOnly,
    /// The store detected corruption; do not retry.
    Corrupt,
    /// The store directory is locked by another process.
    Locked,
    /// The request was malformed or referenced missing entities.
    Invalid,
    /// Any other server-side failure.
    Internal,
    /// Admission control shed the request (the store itself is fine);
    /// retry after the server-suggested delay.
    Overloaded,
}

impl ErrorCategory {
    /// Wire discriminant. Codes 1 (retired in wire v4) and 5 (retired
    /// in wire v3) are unassigned; a retired code is never reused.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCategory::Transient => 0,
            ErrorCategory::ReadOnly => 2,
            ErrorCategory::Corrupt => 3,
            ErrorCategory::Locked => 4,
            ErrorCategory::Invalid => 6,
            ErrorCategory::Internal => 7,
            ErrorCategory::Overloaded => 8,
        }
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<ErrorCategory> {
        Some(match v {
            0 => ErrorCategory::Transient,
            2 => ErrorCategory::ReadOnly,
            3 => ErrorCategory::Corrupt,
            4 => ErrorCategory::Locked,
            6 => ErrorCategory::Invalid,
            7 => ErrorCategory::Internal,
            8 => ErrorCategory::Overloaded,
            _ => return None,
        })
    }

    /// True for categories a client should retry with backoff.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCategory::Transient | ErrorCategory::Overloaded)
    }
}

impl std::fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCategory::Transient => "transient",
            ErrorCategory::ReadOnly => "read-only",
            ErrorCategory::Corrupt => "corrupt",
            ErrorCategory::Locked => "locked",
            ErrorCategory::Invalid => "invalid",
            ErrorCategory::Internal => "internal",
            ErrorCategory::Overloaded => "overloaded",
        };
        f.write_str(s)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// Server wire-protocol version.
        version: u8,
        /// Whether the store is in read-only degraded mode.
        degraded: bool,
    },
    /// Reply to [`Request::LoadPtdf`].
    Loaded {
        /// Counters from the load (or from the original load, when
        /// `replayed`).
        stats: WireLoadStats,
        /// True when an idempotency token matched an earlier committed
        /// load and nothing was applied this time.
        replayed: bool,
    },
    /// Reply to [`Request::Query`]: rendered result table.
    Table {
        /// Column headers.
        columns: Vec<String>,
        /// Rendered rows (same arity as `columns`).
        rows: Vec<Vec<String>>,
    },
    /// Reply to [`Request::FreeResources`].
    FreeResources(Vec<WireFreeColumn>),
    /// Reply to [`Request::Export`].
    Ptdf {
        /// The whole store as PTdf text.
        text: String,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// Combined engine + server metrics as a JSON object (schema in
        /// `docs/METRICS.md`).
        json: String,
        /// Human-readable `name  value` table.
        table: String,
    },
    /// Reply to [`Request::Fsck`].
    FsckDone {
        /// Error-severity findings.
        errors: u64,
        /// Warning-severity findings.
        warnings: u64,
        /// Full report as JSON (schema in `docs/FSCK.md`).
        json: String,
        /// Human-readable report table.
        table: String,
    },
    /// Reply to [`Request::Compare`]: both renderings of the tree
    /// comparison, so the client chooses output format without a second
    /// round trip (same shape as [`Response::Stats`]).
    CompareDone {
        /// The `pt-compare/v1` JSON document (schema in `docs/COMPARE.md`).
        json: String,
        /// Human-readable fixed-width table.
        table: String,
    },
    /// Reply to [`Request::Shutdown`]: the server stops accepting and
    /// drains in-flight connections.
    ShuttingDown,
    /// Admission shed the request before execution: it is expensive and
    /// another expensive request holds the server's one slot. Nothing
    /// ran; retry after the hint.
    Overloaded {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
    /// Any request that failed.
    Err {
        /// Failure classification (drives client retry policy).
        category: ErrorCategory,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// The opcode byte this response encodes to.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Pong { .. } => op::R_PONG,
            Response::Loaded { .. } => op::R_LOADED,
            Response::Table { .. } => op::R_TABLE,
            Response::FreeResources(_) => op::R_FREE_RESOURCES,
            Response::Ptdf { .. } => op::R_PTDF,
            Response::Stats { .. } => op::R_STATS,
            Response::FsckDone { .. } => op::R_FSCK,
            Response::CompareDone { .. } => op::R_COMPARE,
            Response::ShuttingDown => op::R_SHUTTING_DOWN,
            Response::Overloaded { .. } => op::R_OVERLOADED,
            Response::Err { .. } => op::R_ERR,
        }
    }

    /// Encode to a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Response::Pong { version, degraded } => {
                put_u8(&mut p, *version);
                put_bool(&mut p, *degraded);
            }
            Response::Loaded { stats: s, replayed } => {
                for v in [
                    s.statements,
                    s.applications,
                    s.resource_types,
                    s.executions,
                    s.resources,
                    s.attributes,
                    s.constraints,
                    s.results,
                ] {
                    put_u64(&mut p, v);
                }
                put_bool(&mut p, *replayed);
            }
            Response::Table { columns, rows } => {
                put_str_list(&mut p, columns);
                put_u32(&mut p, rows.len() as u32);
                for row in rows {
                    put_str_list(&mut p, row);
                }
            }
            Response::FreeResources(cols) => {
                put_u32(&mut p, cols.len() as u32);
                for c in cols {
                    put_str(&mut p, &c.type_path);
                    put_u64(&mut p, c.distinct_values);
                    put_str_list(&mut p, &c.attributes);
                }
            }
            Response::Ptdf { text } => put_str(&mut p, text),
            Response::Stats { json, table } => {
                put_str(&mut p, json);
                put_str(&mut p, table);
            }
            Response::FsckDone {
                errors,
                warnings,
                json,
                table,
            } => {
                put_u64(&mut p, *errors);
                put_u64(&mut p, *warnings);
                put_str(&mut p, json);
                put_str(&mut p, table);
            }
            Response::CompareDone { json, table } => {
                put_str(&mut p, json);
                put_str(&mut p, table);
            }
            Response::ShuttingDown => {}
            Response::Overloaded { retry_after_ms } => put_u32(&mut p, *retry_after_ms),
            Response::Err { category, message } => {
                put_u8(&mut p, category.to_u8());
                put_str(&mut p, message);
            }
        }
        encode_frame(WIRE_VERSION, self.opcode(), &p)
    }

    /// Decode from a frame. Rejects frames from other protocol versions.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        if frame.version != WIRE_VERSION {
            return Err(WireError::BadVersion(frame.version));
        }
        let mut r = PayloadReader::new(&frame.payload);
        let resp = match frame.opcode {
            op::R_PONG => Response::Pong {
                version: r.u8("pong version")?,
                degraded: r.bool("degraded flag")?,
            },
            op::R_LOADED => Response::Loaded {
                stats: WireLoadStats {
                    statements: r.u64("statements")?,
                    applications: r.u64("applications")?,
                    resource_types: r.u64("resource_types")?,
                    executions: r.u64("executions")?,
                    resources: r.u64("resources")?,
                    attributes: r.u64("attributes")?,
                    constraints: r.u64("constraints")?,
                    results: r.u64("results")?,
                },
                replayed: r.bool("replayed flag")?,
            },
            op::R_TABLE => {
                let columns = r.str_list("columns")?;
                let n = r.u32("row count")? as usize;
                if n > r.remaining() / 4 + 1 {
                    return Err(WireError::Malformed("row count"));
                }
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    rows.push(r.str_list("row")?);
                }
                Response::Table { columns, rows }
            }
            op::R_FREE_RESOURCES => {
                let n = r.u32("free column count")? as usize;
                if n > r.remaining() / 8 + 1 {
                    return Err(WireError::Malformed("free column count"));
                }
                let mut cols = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    cols.push(WireFreeColumn {
                        type_path: r.str("type path")?,
                        distinct_values: r.u64("distinct values")?,
                        attributes: r.str_list("attribute list")?,
                    });
                }
                Response::FreeResources(cols)
            }
            op::R_PTDF => Response::Ptdf {
                text: r.str("ptdf text")?,
            },
            op::R_STATS => Response::Stats {
                json: r.str("stats json")?,
                table: r.str("stats table")?,
            },
            op::R_FSCK => Response::FsckDone {
                errors: r.u64("error count")?,
                warnings: r.u64("warning count")?,
                json: r.str("fsck json")?,
                table: r.str("fsck table")?,
            },
            op::R_COMPARE => Response::CompareDone {
                json: r.str("compare json")?,
                table: r.str("compare table")?,
            },
            op::R_SHUTTING_DOWN => Response::ShuttingDown,
            op::R_OVERLOADED => Response::Overloaded {
                retry_after_ms: r.u32("retry-after ms")?,
            },
            op::R_ERR => {
                let cat = r.u8("error category")?;
                Response::Err {
                    category: ErrorCategory::from_u8(cat)
                        .ok_or(WireError::Malformed("error category"))?,
                    message: r.str("error message")?,
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameDecoder;

    fn roundtrip_req(req: &Request) {
        let mut dec = FrameDecoder::new();
        dec.extend(&req.encode());
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(&Request::decode(&frame).unwrap(), req);
    }

    fn roundtrip_resp(resp: &Response) {
        let mut dec = FrameDecoder::new();
        dec.extend(&resp.encode());
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(&Response::decode(&frame).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(&Request::Ping);
        roundtrip_req(&Request::LoadPtdf {
            text: "Application A\n".into(),
            token: String::new(),
        });
        roundtrip_req(&Request::LoadPtdf {
            text: "Application A\n".into(),
            token: "load-0001".into(),
        });
        roundtrip_req(&Request::Query(QuerySpec {
            names: vec![NameFilter {
                pattern: "rmatmult3".into(),
                relatives: 'N',
            }],
            types: vec!["/grid/machine".into()],
            add_columns: vec!["execution".into()],
        }));
        roundtrip_req(&Request::FreeResources(QuerySpec::default()));
        roundtrip_req(&Request::Export);
        roundtrip_req(&Request::Stats);
        roundtrip_req(&Request::Fsck { deep: true });
        roundtrip_req(&Request::Fsck { deep: false });
        roundtrip_req(&Request::Compare {
            executions: vec!["v1".into(), "v2".into(), "v3".into()],
            top: 10,
            threshold_pct: 25,
        });
        roundtrip_req(&Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(&Response::Pong {
            version: WIRE_VERSION,
            degraded: false,
        });
        roundtrip_resp(&Response::Loaded {
            stats: WireLoadStats {
                statements: 10,
                results: 4,
                ..Default::default()
            },
            replayed: false,
        });
        roundtrip_resp(&Response::Loaded {
            stats: WireLoadStats {
                statements: 10,
                results: 4,
                ..Default::default()
            },
            replayed: true,
        });
        roundtrip_resp(&Response::Overloaded {
            retry_after_ms: 250,
        });
        roundtrip_resp(&Response::Table {
            columns: vec!["metric".into(), "value".into()],
            rows: vec![
                vec!["CPU_time".into(), "1.5".into()],
                vec!["wall".into(), "2.0".into()],
            ],
        });
        roundtrip_resp(&Response::FreeResources(vec![WireFreeColumn {
            type_path: "/grid/machine".into(),
            distinct_values: 2,
            attributes: vec!["memory size".into()],
        }]));
        roundtrip_resp(&Response::Ptdf {
            text: "Application A\n".into(),
        });
        roundtrip_resp(&Response::Stats {
            json: "{}".into(),
            table: "io.retries 0\n".into(),
        });
        roundtrip_resp(&Response::FsckDone {
            errors: 0,
            warnings: 2,
            json: "{}".into(),
            table: "ok\n".into(),
        });
        roundtrip_resp(&Response::CompareDone {
            json: "{\"schema\":\"pt-compare/v1\"}".into(),
            table: "compare: v1 vs v2\n".into(),
        });
        roundtrip_resp(&Response::ShuttingDown);
        roundtrip_resp(&Response::Err {
            category: ErrorCategory::Transient,
            message: "i/o error: interrupted".into(),
        });
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut frame_bytes = Request::Ping.encode();
        frame_bytes[4] = WIRE_VERSION + 1; // version byte
        let mut dec = FrameDecoder::new();
        dec.extend(&frame_bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(
            Request::decode(&frame),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
    }

    /// `fields` followed by their CRC-32 trailer: a request payload.
    fn with_crc(fields: &[u8]) -> Vec<u8> {
        let mut p = fields.to_vec();
        p.extend_from_slice(&crc32(fields).to_be_bytes());
        p
    }

    #[test]
    fn damaged_request_payload_fails_its_checksum() {
        let req = Request::LoadPtdf {
            text: "Application A\n".into(),
            token: "load-0001".into(),
        };
        let frame = req.encode();
        // Every byte after the 6-byte frame header, trailer included.
        for i in 6..frame.len() {
            let mut bytes = frame.clone();
            bytes[i] ^= 0x20;
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            let damaged = dec.next_frame().unwrap().unwrap();
            assert_eq!(
                Request::decode(&damaged),
                Err(WireError::BadChecksum),
                "byte {i}"
            );
        }
    }

    #[test]
    fn v2_frames_are_rejected() {
        // A v2 client still prefixes every payload with a 4-byte header,
        // and a v3 server can still answer with the retired category 1;
        // the version byte turns both away before any field is read.
        for version in [2, 3] {
            let frame = Frame {
                version,
                opcode: 0x01,
                payload: vec![0, 0, 0, 0],
            };
            assert_eq!(Request::decode(&frame), Err(WireError::BadVersion(version)));
        }
        let v3_code_1 = Frame {
            version: 3,
            opcode: 0xFF,
            payload: vec![1, 0, 0, 0, 0],
        };
        assert_eq!(Response::decode(&v3_code_1), Err(WireError::BadVersion(3)));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let frame = Frame {
            version: WIRE_VERSION,
            opcode: 0x7E,
            payload: Vec::new(),
        };
        assert_eq!(Request::decode(&frame), Err(WireError::BadOpcode(0x7E)));
        assert_eq!(Response::decode(&frame), Err(WireError::BadOpcode(0x7E)));
    }

    #[test]
    fn trailing_payload_rejected() {
        let frame = Frame {
            version: WIRE_VERSION,
            opcode: 0x01, // Ping has no fields
            payload: with_crc(&[9, 9]),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::Trailing { remaining: 2 })
        ));
    }

    #[test]
    fn truncated_request_payload_rejected() {
        let frame = Frame {
            version: WIRE_VERSION,
            opcode: 0x02, // LoadPtdf: cut inside the text's length prefix
            payload: with_crc(&[0, 0]),
        };
        assert_eq!(
            Request::decode(&frame),
            Err(WireError::Malformed("ptdf text"))
        );
    }

    #[test]
    fn error_category_codes_are_stable() {
        for cat in [
            ErrorCategory::Transient,
            ErrorCategory::ReadOnly,
            ErrorCategory::Corrupt,
            ErrorCategory::Locked,
            ErrorCategory::Invalid,
            ErrorCategory::Internal,
            ErrorCategory::Overloaded,
        ] {
            assert_eq!(ErrorCategory::from_u8(cat.to_u8()), Some(cat));
        }
        // Codes 1 and 5 (retired categories) stay unassigned; 9 is past
        // the end.
        assert_eq!(ErrorCategory::from_u8(1), None);
        assert_eq!(ErrorCategory::from_u8(5), None);
        assert_eq!(ErrorCategory::from_u8(9), None);
        assert!(ErrorCategory::Transient.is_retryable());
        assert!(ErrorCategory::Overloaded.is_retryable());
        assert!(!ErrorCategory::ReadOnly.is_retryable());
        assert!(!ErrorCategory::Corrupt.is_retryable());
    }

    #[test]
    fn only_export_compare_and_fsck_are_expensive() {
        let load = Request::LoadPtdf {
            text: String::new(),
            token: String::new(),
        };
        let compare = Request::Compare {
            executions: vec!["a".into(), "b".into()],
            top: 10,
            threshold_pct: 25,
        };
        let table = [
            (Request::Ping, false),
            (load, false),
            (Request::Query(QuerySpec::default()), false),
            (Request::FreeResources(QuerySpec::default()), false),
            (Request::Export, true),
            (Request::Stats, false),
            (Request::Fsck { deep: true }, true),
            (compare, true),
            (Request::Shutdown, false),
        ];
        for (req, expensive) in &table {
            assert_eq!(req.is_expensive(), *expensive, "{}", req.label());
        }
    }

    #[test]
    fn idempotency_classification() {
        assert!(Request::Ping.is_idempotent());
        assert!(Request::Compare {
            executions: vec!["a".into(), "b".into()],
            top: 10,
            threshold_pct: 25,
        }
        .is_idempotent());
        assert!(Request::Query(QuerySpec::default()).is_idempotent());
        assert!(Request::Export.is_idempotent());
        assert!(!Request::LoadPtdf {
            text: String::new(),
            token: String::new(),
        }
        .is_idempotent());
        // A load carrying an idempotency token is safe to retry: the server
        // dedups on the token, so replays cannot double-apply rows.
        assert!(Request::LoadPtdf {
            text: String::new(),
            token: "load-0001".into(),
        }
        .is_idempotent());
    }
}
