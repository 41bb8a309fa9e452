//! Per-layer counters read from outside: differences of the public
//! `Database::metrics()` snapshot around a measured window.

use perftrack_store::Database;
use std::collections::BTreeMap;

/// Per-layer metric values by name (see [`crate::spec::PER_LAYER`]).
pub type Layer = BTreeMap<&'static str, f64>;

// Slots of `EngineCounters::v`. The first `PER_OP.len()` are reported
// per op under the name at the same index.
const PER_OP: [&str; 13] = [
    "store.pool.misses_per_op",
    "store.pool.evictions_per_op",
    "store.pool.writebacks_per_op",
    "store.pool.contended_per_op",
    "store.wal.appends_per_op",
    "store.wal.bytes_per_op",
    "store.wal.syncs_per_op",
    "store.txn.commits_per_op",
    "store.btree.batch_probes_per_op",
    "store.btree.point_probes_per_op",
    "store.btree.node_reads_per_op",
    "planner.plans_per_op",
    "planner.stats_hits_per_op",
];
const POOL_MISSES: usize = 0;
const WAL_BYTES: usize = 5;
const WAL_SYNCS: usize = 6;
const STALE_FALLBACKS: usize = 13;
const POOL_HITS: usize = 14;
const SYNC_NANOS: usize = 15;
const SLOTS: usize = 16;

/// The engine's monotonic counters, flattened so that snapshots can be
/// subtracted and summed across the stores a window opens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    v: [u64; SLOTS],
}

impl EngineCounters {
    /// The counters of `db` now. A database starts at zero, so for one
    /// opened inside the window this is also its whole contribution.
    pub fn read(db: &Database) -> Self {
        let m = db.metrics();
        EngineCounters {
            v: [
                m.pool.misses,
                m.pool.evictions,
                m.pool.writebacks,
                m.pool.contended,
                m.wal.appends,
                m.wal.append_bytes,
                m.wal.syncs,
                m.txn.commits,
                m.btree.batch_probes,
                m.btree.point_probes,
                m.btree.node_reads,
                m.planner.plans,
                m.planner.stats_hits,
                m.planner.stale_fallbacks,
                m.pool.hits,
                m.wal.sync_latency.sum_nanos,
            ],
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(mut self, earlier: &EngineCounters) -> Self {
        for (a, b) in self.v.iter_mut().zip(earlier.v) {
            *a = a.saturating_sub(b);
        }
        self
    }

    pub fn add(&mut self, other: &EngineCounters) {
        for (a, b) in self.v.iter_mut().zip(other.v) {
            *a += b;
        }
    }

    pub fn wal_bytes(&self) -> u64 {
        self.v[WAL_BYTES]
    }

    pub fn wal_syncs(&self) -> u64 {
        self.v[WAL_SYNCS]
    }

    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.v[POOL_HITS] + self.v[POOL_MISSES];
        if total == 0 {
            0.0
        } else {
            self.v[POOL_HITS] as f64 / total as f64
        }
    }

    /// Write the per-layer values for a window of `ops` ops.
    pub fn emit(&self, ops: u64, layer: &mut Layer) {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        for (name, n) in PER_OP.iter().zip(self.v) {
            layer.insert(name, per_op(n));
        }
        layer.insert(
            "planner.stale_fallbacks_per_op",
            per_op(self.v[STALE_FALLBACKS]),
        );
        layer.insert("store.pool.hit_rate", self.pool_hit_rate());
        // The mean, not the histogram's p50: the log2 buckets make every
        // quantile read as the same bucket edge.
        layer.insert(
            "store.wal.sync_mean_us",
            self.v[SYNC_NANOS] as f64 / 1e3 / self.wal_syncs().max(1) as f64,
        );
    }
}

/// Resident set size of this process in MB (0 where /proc is absent).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
