//! # perftrack-store
//!
//! An embedded relational storage engine, built from scratch as the DBMS
//! substrate for the PerfTrack performance experiment management tool
//! (Karavanic et al., SC|05). The paper's prototype ran on Oracle or
//! PostgreSQL; this crate provides the equivalent architectural substance
//! — durable pages, a buffer pool, write-ahead logging with crash
//! recovery, B+tree secondary indexes, typed tables with schema and
//! unique-constraint enforcement, transactions, and the read primitives
//! (streaming scans, point and batched index probes, ANALYZE statistics)
//! that PerfTrack's pr-filter query engine is built from — as an
//! embeddable library. Queries are composed in code by the `perftrack`
//! core crate; this crate has no query language or operator pipeline of
//! its own.
//!
//! Layers, bottom-up:
//!
//! * [`page`] — 8 KiB slotted pages with stable record slots.
//! * [`vfs`] — the file-system seam: real disk, memory, or the
//!   deterministic fault injector (fault kinds, fsync-gate semantics,
//!   and the degraded-mode contract are documented in `docs/FAULTS.md`).
//! * [`disk`] — the page file (any [`vfs::Vfs`] backend).
//! * [`buffer`] — frame cache with clock eviction and a write-ahead hook.
//! * [`wal`] — CRC-framed logical write-ahead log.
//! * [`btree`] — order-preserving-key B+tree index.
//! * [`catalog`] — table schemas, index definitions, heap page lists.
//! * [`lock`] — the exclusive store-directory lock (one process per
//!   store; a second opener gets a typed [`StoreError::Locked`]).
//! * [`db`] — [`db::Database`]: transactions, recovery, scans, lookups.
//! * [`stats`] — ANALYZE statistics: row counts, distinct-key counts,
//!   equi-depth histograms, and the drift-invalidation rule.
//! * [`planner`] — the shared cost constants and statistics view the core
//!   pr-filter planner reads, plus the versioned EXPLAIN tree (documented
//!   in `docs/PLANNER.md`).
//! * [`sync`] — the workspace's `Mutex`/`RwLock` over `std::sync`,
//!   each at its lock-order `Level` (checked in debug builds), and the
//!   one statement of the poison policy.
//! * [`metrics`] — observability: counters, latency histograms,
//!   per-operator query profiles, and the JSON codec that serializes them
//!   (schema documented in `docs/METRICS.md`).
//! * [`check`] — structural verification ("fsck"): page, B+tree, WAL,
//!   and catalog invariants as typed findings (invariants and report
//!   schema documented in `docs/FSCK.md`).
//!
//! ## Quick example
//!
//! ```
//! use perftrack_store::prelude::*;
//!
//! let db = Database::in_memory();
//! let t = db
//!     .create_table(
//!         "metric",
//!         vec![
//!             Column::new("id", ColumnType::Int),
//!             Column::new("name", ColumnType::Text),
//!         ],
//!     )
//!     .unwrap();
//! db.create_index("metric_name", t, &["name"], true).unwrap();
//!
//! let mut txn = db.begin();
//! txn.insert(t, vec![Value::Int(1), Value::Text("CPU time".into())])
//!     .unwrap();
//! txn.commit().unwrap();
//!
//! let idx = db.index_id("metric_name").unwrap();
//! let hits = db
//!     .index_lookup(idx, &[Value::Text("CPU time".into())])
//!     .unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

#![deny(missing_docs)]
// I/O confinement: no `std::fs` outside the Vfs seam (lists in clippy.toml).
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod check;
pub mod db;
pub mod disk;
pub mod error;
pub mod lock;
pub mod metrics;
pub mod page;
pub mod planner;
pub mod stats;
pub mod sync;
pub mod value;
pub mod vfs;
pub mod wal;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use crate::catalog::{Column, IndexId, TableId};
    pub use crate::check::{Finding, FsckReport, Severity};
    pub use crate::db::{Database, DbOptions, ScanIter, Txn};
    pub use crate::error::{Result as StoreResult, StoreError};
    pub use crate::metrics::{Json, MetricsSnapshot, OperatorProfile, QueryProfile};
    pub use crate::page::{PageId, RowId};
    pub use crate::planner::{ExplainNode, ExplainPlan, StatsState, EXPLAIN_SCHEMA};
    pub use crate::stats::{IndexStats, StatsCatalog, TableStats};
    pub use crate::value::{ColumnType, Row, Value};
    pub use crate::vfs::{
        FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile,
    };
}

pub use prelude::*;
