//! The `Database`: tables + indexes + transactions + recovery, tying the
//! pager, WAL, catalog, and B+tree layers together.
//!
//! Concurrency model: **single writer, many readers**. [`Database::begin`]
//! hands out the unique write token; readers (scans, index lookups) run
//! concurrently and observe a *read-uncommitted* view of the single active
//! transaction — the isolation level the PerfTrack workload needs (bulk
//! load, then query).
//!
//! Durability: logical WAL with commit-time fsync, idempotent redo, and a
//! guarded undo pass for transactions that never committed (including
//! changes that reached the page file through buffer-pool eviction).
//! `checkpoint` flushes all pages, persists the catalog, and truncates the
//! log.

use crate::btree::BTreeIndex;
use crate::buffer::{BufferPool, PoolStatsSnapshot};
use crate::catalog::{Catalog, Column, IndexId, IndexMeta, TableId};
use crate::disk::DiskManager;
use crate::error::{Result, StoreError};
use crate::lock::DirLock;
use crate::metrics::{
    BTreeStatsSnapshot, Counter, IoStatsSnapshot, MetricsSnapshot, PlannerStats, TxnStatsSnapshot,
};
use crate::page::{PageId, PageMut, PageRef, PageType, RowId, MAX_RECORD, PAGE_SIZE};
use crate::planner::StatsState;
use crate::stats::{build_histogram, drifted, IndexStats, StatsCatalog, TableStats};
use crate::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use crate::value::{decode_row, encode_key_vec, encode_row_vec, Row, Value};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{Wal, WalOp, WalPayload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a database instance.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Buffer pool capacity in frames (frames are [`PAGE_SIZE`] bytes).
    pub pool_frames: usize,
    /// Number of independent buffer-pool shards (page table + eviction
    /// state partitions). `0` picks the default
    /// (`min(pool_frames, DEFAULT_POOL_SHARDS)`); see [`BufferPool`].
    pub pool_shards: usize,
    /// Checkpoint automatically when the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// Retries of the WAL flush path on *transient* I/O failures
    /// (see [`StoreError::is_transient`]) before the error is final.
    pub max_io_retries: u32,
    /// Backoff before the first retry; doubles per attempt (bounded
    /// exponential backoff).
    pub retry_backoff: Duration,
    /// Clock injection point: how a retry waits out its backoff. A plain
    /// fn pointer so options stay `Clone + Debug`; tests install a no-op
    /// to stay deterministic and instantaneous.
    pub sleep: fn(Duration),
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            pool_frames: 4096, // 32 MiB of cache
            pool_shards: 0,    // auto
            checkpoint_wal_bytes: 64 << 20,
            max_io_retries: 3,
            retry_backoff: Duration::from_millis(10),
            sleep: std::thread::sleep,
        }
    }
}

/// I/O resilience counters shared between the database and its
/// buffer-pool writeback hook.
#[derive(Debug, Default)]
struct IoStats {
    retries: Counter,
    readonly_rejections: Counter,
}

enum UndoOp {
    Insert {
        table: TableId,
        rowid: RowId,
        row: Row,
    },
    Delete {
        table: TableId,
        rowid: RowId,
        row: Row,
    },
    Update {
        table: TableId,
        rowid: RowId,
        old: Row,
        new: Row,
    },
}

/// An embedded relational database.
pub struct Database {
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    catalog: RwLock<Catalog>,
    indexes: RwLock<HashMap<IndexId, Arc<RwLock<BTreeIndex>>>>,
    writer: Mutex<()>,
    next_txn: AtomicU64,
    dir: Option<PathBuf>,
    opts: DbOptions,
    commits: Counter,
    rollbacks: Counter,
    /// Set when the WAL write path fails irrecoverably; reads continue,
    /// writes are rejected with [`StoreError::ReadOnly`].
    degraded: Arc<AtomicBool>,
    io: Arc<IoStats>,
    /// Query-planner counters (`planner.*` metrics).
    planner: PlannerStats,
    /// Row mutations per table since open (inserts, deletes, updates, and
    /// rollback compensation all count) — the drift-detection input.
    mutations: RwLock<HashMap<TableId, u64>>,
    /// Per-table value of the mutation counter at the last ANALYZE.
    /// In-memory only: a reopen resets both maps, so freshly loaded
    /// statistics start un-drifted.
    stats_epoch: RwLock<HashMap<TableId, u64>>,
    /// Exclusive store-directory lock (persistent opens only). Held for
    /// the database's whole lifetime so a second *process* opening the
    /// same directory fails fast with [`StoreError::Locked`] instead of
    /// corrupting pages behind this instance's buffer pool.
    _dir_lock: Option<DirLock>,
}

/// Flush the WAL with the retry policy: transient failures back off and
/// retry; a fatal failure (or exhausted retries) flips the database into
/// read-only degraded mode. Free-standing so the buffer pool's writeback
/// hook can share the exact policy with the commit path.
fn wal_sync_guarded(
    wal: &Wal,
    opts: &DbOptions,
    io: &IoStats,
    degraded: &AtomicBool,
) -> Result<()> {
    let mut attempt = 0u32;
    let mut delay = opts.retry_backoff;
    loop {
        match wal.sync() {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempt < opts.max_io_retries => {
                attempt += 1;
                io.retries.inc();
                (opts.sleep)(delay);
                delay = delay.saturating_mul(2);
            }
            Err(e) => {
                degraded.store(true, Ordering::Release);
                return Err(e);
            }
        }
    }
}

const CATALOG_FILE: &str = "catalog.meta";
const PAGES_FILE: &str = "pages.db";
const WAL_FILE: &str = "wal.log";

impl Database {
    /// A fully in-memory database (no files, no durability).
    pub fn in_memory() -> Self {
        Self::in_memory_with(DbOptions::default())
    }

    /// In-memory database with explicit options.
    pub fn in_memory_with(opts: DbOptions) -> Self {
        let disk = Arc::new(DiskManager::in_memory());
        let pool = Arc::new(BufferPool::with_shards(
            disk,
            opts.pool_frames,
            opts.pool_shards,
        ));
        let wal = Arc::new(Wal::in_memory());
        let db = Database {
            pool,
            wal,
            catalog: RwLock::new(Catalog::new()),
            indexes: RwLock::new(HashMap::new()),
            writer: Mutex::new(()),
            next_txn: AtomicU64::new(1),
            dir: None,
            opts,
            commits: Counter::new(),
            rollbacks: Counter::new(),
            degraded: Arc::new(AtomicBool::new(false)),
            io: Arc::new(IoStats::default()),
            planner: PlannerStats::default(),
            mutations: RwLock::new(HashMap::new()),
            stats_epoch: RwLock::new(HashMap::new()),
            _dir_lock: None,
        };
        db.install_wal_hook();
        db
    }

    /// Open (or create) a persistent database in directory `dir`, running
    /// crash recovery if the write-ahead log is non-empty.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, DbOptions::default())
    }

    /// Open with explicit options; see [`Database::open`].
    pub fn open_with(dir: &Path, opts: DbOptions) -> Result<Self> {
        Self::open_with_vfs(dir, opts, &StdVfs)
    }

    /// Open with explicit options and an explicit [`Vfs`] for the page
    /// file and WAL (the catalog snapshot is a small atomically-renamed
    /// file and stays on the host filesystem). This is the entry point
    /// fault-injection tests use to run a whole database against
    /// [`crate::vfs::FaultVfs`].
    pub fn open_with_vfs(dir: &Path, opts: DbOptions, vfs: &dyn Vfs) -> Result<Self> {
        // ptlint: allow(io) -- store-directory creation happens before any Vfs handle exists
        std::fs::create_dir_all(dir)?;
        // Take the directory lock before reading a single page: two
        // processes racing through recovery would each replay the WAL
        // into their own buffer pool and clobber each other's pages.
        let dir_lock = DirLock::acquire(dir)?;
        let disk = Arc::new(DiskManager::open_with_vfs(vfs, &dir.join(PAGES_FILE))?);
        let pool = Arc::new(BufferPool::with_shards(
            disk,
            opts.pool_frames,
            opts.pool_shards,
        ));
        let wal = Arc::new(Wal::open_with_vfs(vfs, &dir.join(WAL_FILE))?);
        let catalog_path = dir.join(CATALOG_FILE);
        let catalog = if catalog_path.exists() {
            Catalog::load(&catalog_path)?
        } else {
            Catalog::new()
        };
        let db = Database {
            pool,
            wal,
            catalog: RwLock::new(catalog),
            indexes: RwLock::new(HashMap::new()),
            writer: Mutex::new(()),
            next_txn: AtomicU64::new(1),
            dir: Some(dir.to_path_buf()),
            opts,
            commits: Counter::new(),
            rollbacks: Counter::new(),
            degraded: Arc::new(AtomicBool::new(false)),
            io: Arc::new(IoStats::default()),
            planner: PlannerStats::default(),
            mutations: RwLock::new(HashMap::new()),
            stats_epoch: RwLock::new(HashMap::new()),
            _dir_lock: Some(dir_lock),
        };
        db.recover()?;
        db.rebuild_indexes()?;
        db.install_wal_hook();
        // Start from a clean checkpoint so the log only holds new work.
        db.checkpoint()?;
        // Post-recovery verification: recovery must hand back a
        // structurally sound store. Failing the open here beats serving
        // corrupt rows later.
        let report = db.verify(false)?;
        if report.error_count() > 0 {
            return Err(StoreError::Corrupt(format!(
                "post-recovery verification failed: {}",
                report.summary()
            )));
        }
        Ok(db)
    }

    fn install_wal_hook(&self) {
        let wal = Arc::clone(&self.wal);
        let opts = self.opts.clone();
        let io = Arc::clone(&self.io);
        let degraded = Arc::clone(&self.degraded);
        self.pool.set_writeback_hook(Box::new(move || {
            wal_sync_guarded(&wal, &opts, &io, &degraded)
        }));
    }

    /// Flush the WAL under the configured retry/degradation policy.
    fn wal_sync(&self) -> Result<()> {
        wal_sync_guarded(&self.wal, &self.opts, &self.io, &self.degraded)
    }

    /// Append one WAL record, degrading to read-only mode if the append
    /// path itself fails (only possible under fault injection).
    fn wal_append(&self, txn: u64, payload: &WalPayload) -> Result<u64> {
        self.wal.append(txn, payload).inspect_err(|_| {
            self.degraded.store(true, Ordering::Release);
        })
    }

    /// True once the database has entered read-only degraded mode (the
    /// WAL write path failed irrecoverably). Reads keep working; writes
    /// return [`StoreError::ReadOnly`]. The flag clears only by
    /// reopening the database, which re-runs recovery.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Reject writes while degraded, counting each rejection.
    fn check_writable(&self) -> Result<()> {
        if self.is_degraded() {
            self.io.readonly_rejections.inc();
            return Err(StoreError::ReadOnly);
        }
        Ok(())
    }

    // -- DDL ----------------------------------------------------------------

    /// Create a table. DDL is a checkpoint barrier: the catalog is
    /// persisted immediately on durable databases.
    pub fn create_table(&self, name: &str, columns: Vec<Column>) -> Result<TableId> {
        let _w = self.writer.lock();
        self.check_writable()?;
        let id = self.catalog.write().create_table(name, columns)?;
        self.checkpoint_locked()?;
        Ok(id)
    }

    /// Create an index over `columns` (by name) of `table`, building it
    /// from existing rows. Errors if `unique` and existing rows collide.
    pub fn create_index(
        &self,
        name: &str,
        table: TableId,
        columns: &[&str],
        unique: bool,
    ) -> Result<IndexId> {
        let _w = self.writer.lock();
        self.check_writable()?;
        let ordinals: Vec<usize> = {
            let cat = self.catalog.read();
            let meta = cat.table(table)?;
            columns
                .iter()
                .map(|c| meta.column_index(c))
                .collect::<Result<Vec<_>>>()?
        };
        let id = self
            .catalog
            .write()
            .create_index(name, table, ordinals, unique)?;
        // Build from existing rows.
        let meta = self.catalog.read().index(id)?.clone();
        let tree = match self.build_trees(table, std::slice::from_ref(&meta), true) {
            Ok(mut trees) => trees.pop().unwrap_or_default(),
            Err(e) => {
                // Roll the DDL back: without this, the catalog keeps an
                // IndexMeta that has no tree, and every later write on
                // the table fails with NoSuchIndex.
                self.catalog.write().drop_index(id)?;
                return Err(e);
            }
        };
        self.indexes.write().insert(id, Arc::new(RwLock::new(tree)));
        self.checkpoint_locked()?;
        Ok(id)
    }

    /// Resolve a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.catalog.read().table_id(name)
    }

    /// Resolve an index id by name.
    pub fn index_id(&self, name: &str) -> Result<IndexId> {
        self.catalog.read().index_id(name)
    }

    /// Names and ids of all tables.
    pub fn tables(&self) -> Vec<(TableId, String)> {
        self.catalog
            .read()
            .all_tables()
            .iter()
            .map(|t| (t.id, t.name.clone()))
            .collect()
    }

    /// Ordinal of `column` within `table`'s schema.
    pub fn column_index(&self, table: TableId, column: &str) -> Result<usize> {
        self.catalog.read().table(table)?.column_index(column)
    }

    // -- transactions ---------------------------------------------------

    /// Begin the (single) write transaction. Blocks while another write
    /// transaction is active.
    pub fn begin(&self) -> Txn<'_> {
        let guard = self.writer.lock();
        Txn {
            db: self,
            _guard: guard,
            id: self.next_txn.fetch_add(1, Ordering::AcqRel),
            undo: Vec::new(),
            plans: HashMap::new(),
            finished: false,
        }
    }

    // -- reads ------------------------------------------------------------

    /// Fetch one row by id.
    pub fn get(&self, table: TableId, rowid: RowId) -> Result<Row> {
        // Validate the page belongs to the table. O(1) via the catalog's
        // page → table map — index-driven fetch loops call this per rowid,
        // so a linear walk of the table's page list would dominate them.
        let belongs = {
            let cat = self.catalog.read();
            cat.table(table)?; // surface NoSuchTable over RowNotFound
            cat.page_owner(rowid.page) == Some(table)
        };
        if !belongs {
            return Err(StoreError::RowNotFound);
        }
        self.pool
            .with_page(rowid.page, |buf| {
                PageRef::new(&buf[..])
                    .get(rowid.slot)
                    .map(decode_row)
                    .ok_or(StoreError::RowNotFound)
            })?
            .and_then(|r| r)
    }

    /// Streaming scan over every live row of `table`: rows are decoded
    /// once, page by page (the page is pinned only while it is decoded),
    /// and yielded **by value** — no second materialize-then-clone pass.
    /// This is the primitive behind [`Database::for_each_row`],
    /// [`Database::scan`], fsck's logical pass, and the PTdf exporter.
    pub fn scan_iter(&self, table: TableId) -> Result<ScanIter<'_>> {
        let pages = self.catalog.read().table(table)?.pages.clone();
        Ok(ScanIter {
            pool: &self.pool,
            pages,
            next_page: 0,
            current: Vec::new().into_iter(),
        })
    }

    /// Visit every live row of `table`; the callback returns `false` to
    /// stop early.
    pub fn for_each_row(
        &self,
        table: TableId,
        mut f: impl FnMut(RowId, &Row) -> bool,
    ) -> Result<()> {
        for item in self.scan_iter(table)? {
            let (rid, row) = item?;
            if !f(rid, &row) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Materialize every row of `table`.
    pub fn scan(&self, table: TableId) -> Result<Vec<(RowId, Row)>> {
        self.scan_iter(table)?.collect()
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: TableId) -> Result<usize> {
        let pages = self.catalog.read().table(table)?.pages.clone();
        let mut n = 0usize;
        for page in pages {
            n += self
                .pool
                .with_page(page, |buf| PageRef::new(&buf[..]).live_count())?;
        }
        Ok(n)
    }

    // -- index reads ------------------------------------------------------

    fn index_tree(&self, index: IndexId) -> Result<Arc<RwLock<BTreeIndex>>> {
        self.indexes
            .read()
            .get(&index)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchIndex(format!("index id {}", index.0)))
    }

    /// Rowids whose index key equals `key` exactly (full key).
    pub fn index_lookup(&self, index: IndexId, key: &[Value]) -> Result<Vec<RowId>> {
        let tree = self.index_tree(index)?;
        let enc = encode_key_vec(key);
        let rids = tree.read().get_eq(&enc);
        Ok(rids.into_iter().map(RowId::from_u64).collect())
    }

    /// Batched equality probe: rowids for every key in `keys`, walking the
    /// B+tree **once** for the whole batch (keys are sorted internally and
    /// routed down shared paths together). `out[i]` corresponds to
    /// `keys[i]`, exactly as if [`Database::index_lookup`] had been called
    /// per key. The pr-filter closure expansion uses this — it probes
    /// hundreds of resource ids per filter, and one batch replaces that
    /// many root-to-leaf descents.
    pub fn index_lookup_many(
        &self,
        index: IndexId,
        keys: &[Vec<Value>],
    ) -> Result<Vec<Vec<RowId>>> {
        let tree = self.index_tree(index)?;
        let encoded: Vec<Vec<u8>> = keys.iter().map(|k| encode_key_vec(k)).collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let batches = tree.read().get_eq_batch(&refs);
        Ok(batches
            .into_iter()
            .map(|rids| rids.into_iter().map(RowId::from_u64).collect())
            .collect())
    }

    /// Rowids whose index key starts with `prefix` (a prefix of the index's
    /// columns), in key order.
    pub fn index_prefix(&self, index: IndexId, prefix: &[Value]) -> Result<Vec<RowId>> {
        let tree = self.index_tree(index)?;
        let enc = encode_key_vec(prefix);
        let mut out = Vec::new();
        tree.read().for_prefix(&enc, |_, rid| {
            out.push(RowId::from_u64(rid));
            true
        });
        Ok(out)
    }

    /// Rowids with keys in the given bounds, in key order.
    pub fn index_range(
        &self,
        index: IndexId,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> Result<Vec<RowId>> {
        let tree = self.index_tree(index)?;
        let lo_enc = map_bound_owned(lo);
        let hi_enc = map_bound_owned(hi);
        let rids = tree
            .read()
            .collect_range(as_bound_ref(&lo_enc), as_bound_ref(&hi_enc));
        Ok(rids.into_iter().map(RowId::from_u64).collect())
    }

    // -- maintenance ------------------------------------------------------

    /// Flush dirty pages, persist the catalog, and truncate the WAL.
    pub fn checkpoint(&self) -> Result<()> {
        let _w = self.writer.lock();
        self.checkpoint_locked()
    }

    fn checkpoint_locked(&self) -> Result<()> {
        #[cfg(feature = "failpoints")]
        crate::failpoints::check("db.checkpoint")?;
        self.wal_sync()?;
        self.pool.flush_all()?;
        if let Some(dir) = &self.dir {
            self.catalog.read().save(&dir.join(CATALOG_FILE))?;
        }
        self.wal.truncate()?;
        Ok(())
    }

    /// Compact every page of `table` in place (PageMut::compact preserves
    /// slot ids, so RowIds and indexes stay valid). Returns the number of
    /// contiguous free bytes gained. Run after bulk deletes.
    pub fn compact_table(&self, table: TableId) -> Result<usize> {
        let _w = self.writer.lock();
        let pages = self.catalog.read().table(table)?.pages.clone();
        let mut gained = 0usize;
        for page in pages {
            gained += self.pool.with_page_mut(page, |buf| {
                let before = PageRef::new(&buf[..]).contiguous_free();
                PageMut::new(&mut buf[..]).compact();
                PageRef::new(&buf[..]).contiguous_free() - before
            })?;
        }
        Ok(gained)
    }

    /// Approximate on-disk footprint: page file + WAL + catalog bytes.
    /// This backs the paper's Table 1 "Approx. DB size increase" column.
    pub fn size_bytes(&self) -> Result<u64> {
        let pages = u64::from(self.pool.disk().page_count()) * PAGE_SIZE as u64;
        let wal = self.wal.len()?;
        let cat = self.catalog.read().to_bytes().len() as u64;
        Ok(pages + wal + cat)
    }

    /// Buffer pool statistics.
    pub fn pool_stats(&self) -> PoolStatsSnapshot {
        self.pool.stats()
    }

    /// Point-in-time snapshot of every engine metric: buffer pool, WAL,
    /// B+tree (aggregated over all indexes), and transaction counters.
    /// See `docs/METRICS.md` for the meaning and JSON schema of each field.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut btree = BTreeStatsSnapshot::default();
        for tree in self.indexes.read().values() {
            let s = tree.read().stats();
            btree.entries += s.entries;
            btree.splits += s.splits;
            btree.node_reads += s.node_reads;
            btree.max_depth = btree.max_depth.max(s.max_depth);
            btree.point_probes += s.point_probes;
            btree.batch_probes += s.batch_probes;
        }
        // One pass over the shard counters; the aggregate is derived from
        // the same reads so `pool` always equals the sum of `pool_shards`,
        // even while readers are mutating the counters concurrently.
        let pool_shards = self.pool.shard_stats();
        let mut pool = PoolStatsSnapshot::default();
        for s in &pool_shards {
            pool.hits += s.hits;
            pool.misses += s.misses;
            pool.evictions += s.evictions;
            pool.writebacks += s.writebacks;
            pool.contended += s.contended;
        }
        MetricsSnapshot {
            pool,
            pool_shards,
            wal: self.wal.stats(),
            btree,
            txn: TxnStatsSnapshot {
                commits: self.commits.get(),
                rollbacks: self.rollbacks.get(),
            },
            io: IoStatsSnapshot {
                retries: self.io.retries.get(),
                degraded: self.is_degraded(),
                readonly_rejections: self.io.readonly_rejections.get(),
            },
            planner: self.planner.snapshot(),
        }
    }

    // -- optimizer statistics ---------------------------------------------

    /// Live planner counters; the core pr-filter planning pass
    /// (`perftrack::planner::plan_filters`) and its profiled runs bump
    /// these (see `docs/PLANNER.md`).
    pub fn planner_stats(&self) -> &PlannerStats {
        &self.planner
    }

    /// Record one row mutation against `table` for drift detection.
    fn note_mutation(&self, table: TableId) {
        *self.mutations.write().entry(table).or_insert(0) += 1;
    }

    /// Test-only: mutate the in-memory statistics catalog in place, for
    /// fsck fixtures that need deliberately inconsistent statistics.
    #[cfg(test)]
    pub(crate) fn stats_mut<R>(&self, f: impl FnOnce(&mut StatsCatalog) -> R) -> R {
        f(&mut self.catalog.write().stats)
    }

    /// How the planner should treat `table`'s statistics right now:
    /// fresh, drifted past the invalidation threshold, or never analyzed.
    pub fn table_stats_state(&self, table: TableId) -> StatsState {
        let Some(rows) = self
            .catalog
            .read()
            .stats
            .tables
            .get(&table)
            .map(|t| t.row_count)
        else {
            return StatsState::Missing;
        };
        let current = self.mutations.read().get(&table).copied().unwrap_or(0);
        let at_analyze = self.stats_epoch.read().get(&table).copied().unwrap_or(0);
        if drifted(current.saturating_sub(at_analyze), rows) {
            StatsState::Stale(rows)
        } else {
            StatsState::Fresh(rows)
        }
    }

    /// Estimated rows matching one equality probe of `index`, from the
    /// persisted statistics; `None` when the index was never analyzed.
    pub fn index_eq_estimate(&self, index: IndexId, encoded_key: &[u8]) -> Option<f64> {
        self.catalog
            .read()
            .stats
            .indexes
            .get(&index)
            .map(|s| s.eq_estimate(encoded_key))
    }

    /// Index-wide average rows per distinct key (no probe key) — the
    /// core-level pr-filter planning pass costs closure expansion with
    /// this.
    pub fn index_avg_fanout(&self, index: IndexId) -> Option<f64> {
        self.catalog
            .read()
            .stats
            .indexes
            .get(&index)
            .map(|s| s.avg_eq_estimate())
    }

    /// ANALYZE: collect optimizer statistics for every table and index —
    /// live row counts, distinct-key counts, and equi-depth histograms
    /// over encoded keys — and store them in the catalog. On persistent
    /// databases the pass ends with a checkpoint, so the statistics are
    /// durable (and fsck-checked) immediately. Returns the number of
    /// `(tables, indexes)` analyzed.
    pub fn analyze(&self) -> Result<(usize, usize)> {
        let _w = self.writer.lock();
        self.check_writable()?;
        let table_ids: Vec<TableId> = self
            .catalog
            .read()
            .all_tables()
            .iter()
            .map(|t| t.id)
            .collect();
        let index_metas: Vec<IndexMeta> = {
            let cat = self.catalog.read();
            cat.indexes.values().cloned().collect()
        };
        let mut stats = StatsCatalog::default();
        for t in &table_ids {
            stats.tables.insert(
                *t,
                TableStats {
                    row_count: self.row_count(*t)? as u64,
                },
            );
        }
        for meta in &index_metas {
            let tree = self.index_tree(meta.id)?;
            let guard = tree.read();
            // One in-order walk; adjacent equal keys collapse into
            // per-key entry counts for the histogram builder.
            let mut per_key: Vec<(Vec<u8>, u64)> = Vec::new();
            guard.for_prefix(&[], |k, _| {
                match per_key.last_mut() {
                    Some((lk, n)) if lk.as_slice() == k => *n += 1,
                    _ => per_key.push((k.to_vec(), 1)),
                }
                true
            });
            let entries = per_key.iter().map(|(_, n)| n).sum();
            stats.indexes.insert(
                meta.id,
                IndexStats {
                    entries,
                    distinct_keys: per_key.len() as u64,
                    buckets: build_histogram(&per_key),
                },
            );
        }
        {
            let mods = self.mutations.read();
            let mut epoch = self.stats_epoch.write();
            epoch.clear();
            for t in &table_ids {
                epoch.insert(*t, mods.get(t).copied().unwrap_or(0));
            }
        }
        let counts = (table_ids.len(), index_metas.len());
        self.catalog.write().stats = stats;
        self.checkpoint_locked()?;
        Ok(counts)
    }

    /// Pages allocated in the page file.
    pub fn page_count(&self) -> u32 {
        self.pool.disk().page_count()
    }

    /// Read access to the catalog (crate-internal; used by the planner).
    pub(crate) fn catalog_read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    /// Buffer pool handle for the structural verifier.
    pub(crate) fn pool_ref(&self) -> &BufferPool {
        &self.pool
    }

    /// WAL handle for the structural verifier.
    pub(crate) fn wal_handle(&self) -> &Wal {
        &self.wal
    }

    /// The installed B+tree for `id`, if any (the verifier must
    /// distinguish a missing tree from an empty one).
    pub(crate) fn index_tree_opt(&self, id: IndexId) -> Option<Arc<RwLock<BTreeIndex>>> {
        self.indexes.read().get(&id).cloned()
    }

    /// Run the structural verifier over the whole database and return its
    /// findings; see [`crate::check`] for the invariants covered. Takes
    /// the writer lock so the view is quiescent (do not call while holding
    /// a [`Txn`] on the same thread — it would deadlock, like
    /// [`Database::checkpoint`]). `deep` adds the full index ↔ heap
    /// bijection check.
    pub fn verify(&self, deep: bool) -> Result<crate::check::FsckReport> {
        let _w = self.writer.lock();
        crate::check::verify_database(self, deep)
    }

    // -- recovery ---------------------------------------------------------

    fn recover(&self) -> Result<()> {
        let records = self.wal.read_all()?;
        if records.is_empty() {
            return Ok(());
        }
        let mut committed: HashSet<u64> = HashSet::new();
        let mut finished: HashSet<u64> = HashSet::new();
        for r in &records {
            match r.payload {
                WalPayload::Commit => {
                    committed.insert(r.txn);
                    finished.insert(r.txn);
                }
                WalPayload::Abort => {
                    finished.insert(r.txn);
                }
                _ => {}
            }
        }
        // Redo pass (LSN order): page allocations always; row ops only for
        // committed transactions. All redo steps are idempotent against
        // partially flushed pages.
        for r in &records {
            let WalPayload::Op(op) = &r.payload else {
                continue;
            };
            match op {
                WalOp::AllocPage { table, page } => {
                    self.redo_alloc(TableId(*table), PageId(*page))?;
                }
                WalOp::Insert { table, rowid, row } if committed.contains(&r.txn) => {
                    self.redo_put(TableId(*table), *rowid, row)?;
                }
                WalOp::Update {
                    table, rowid, new, ..
                } if committed.contains(&r.txn) => {
                    self.redo_put(TableId(*table), *rowid, new)?;
                }
                WalOp::Delete { table, rowid, .. } if committed.contains(&r.txn) => {
                    self.redo_delete(TableId(*table), *rowid)?;
                }
                _ => {}
            }
        }
        // Undo pass (reverse LSN order): guarded inverse of every op whose
        // transaction never committed (unfinished or explicitly aborted —
        // the abort's in-memory compensation may or may not have reached
        // the page file, so the guards check current state first).
        for r in records.iter().rev() {
            if committed.contains(&r.txn) {
                continue;
            }
            let WalPayload::Op(op) = &r.payload else {
                continue;
            };
            match op {
                WalOp::AllocPage { .. } => {}
                WalOp::Insert { table, rowid, row } => {
                    self.undo_if_match(TableId(*table), *rowid, Some(row), None)?;
                }
                WalOp::Update {
                    table,
                    rowid,
                    old,
                    new,
                } => {
                    self.undo_if_match(TableId(*table), *rowid, Some(new), Some(old))?;
                }
                WalOp::Delete { table, rowid, old } => {
                    self.undo_if_match(TableId(*table), *rowid, None, Some(old))?;
                }
            }
        }
        Ok(())
    }

    fn redo_alloc(&self, table: TableId, page: PageId) -> Result<()> {
        while self.pool.disk().page_count() <= page.0 {
            self.pool.allocate_page()?;
        }
        self.pool.with_page_mut(page, |buf| {
            let needs_format = !PageRef::new(&buf[..]).is_formatted();
            if needs_format {
                PageMut::new(&mut buf[..]).format(PageType::Heap);
            }
        })?;
        self.catalog.write().attach_page(table, page)?;
        Ok(())
    }

    fn redo_put(&self, _table: TableId, rowid: RowId, bytes: &[u8]) -> Result<()> {
        self.pool.with_page_mut(rowid.page, |buf| {
            let current = PageRef::new(&buf[..]).get(rowid.slot).map(<[u8]>::to_vec);
            let mut page = PageMut::new(&mut buf[..]);
            match current {
                Some(cur) if cur == bytes => Ok(()),
                Some(_) => page.update(rowid.slot, bytes),
                None => page.insert_at(rowid.slot, bytes).map(|_| ()),
            }
        })?
    }

    fn redo_delete(&self, _table: TableId, rowid: RowId) -> Result<()> {
        self.pool.with_page_mut(rowid.page, |buf| {
            let live = PageRef::new(&buf[..]).get(rowid.slot).is_some();
            if live {
                PageMut::new(&mut buf[..]).delete(rowid.slot)
            } else {
                Ok(())
            }
        })?
    }

    /// Guarded inverse: if the slot currently holds `expect_now` (None =
    /// tombstone), rewrite it to `restore` (None = delete).
    fn undo_if_match(
        &self,
        _table: TableId,
        rowid: RowId,
        expect_now: Option<&[u8]>,
        restore: Option<&[u8]>,
    ) -> Result<()> {
        if rowid.page.0 >= self.pool.disk().page_count() {
            return Ok(()); // page never materialized
        }
        self.pool.with_page_mut(rowid.page, |buf| {
            let current = PageRef::new(&buf[..]).get(rowid.slot).map(<[u8]>::to_vec);
            let matches = match (&current, expect_now) {
                (Some(cur), Some(exp)) => cur.as_slice() == exp,
                (None, None) => true,
                _ => false,
            };
            if !matches {
                return Ok(()); // compensation already applied (or never needed)
            }
            let mut page = PageMut::new(&mut buf[..]);
            match restore {
                Some(bytes) => match current {
                    Some(_) => page.update(rowid.slot, bytes),
                    None => page.insert_at(rowid.slot, bytes).map(|_| ()),
                },
                None => {
                    if current.is_some() {
                        page.delete(rowid.slot)
                    } else {
                        Ok(())
                    }
                }
            }
        })?
    }

    /// Rebuild every index from the heap: one scan per table, in table id
    /// order (so the pool holds the same pages after every open), feeding
    /// all of that table's indexes in index id order. The catalog's map
    /// iterates in a different order on every open; sorting makes every
    /// open do the same work in the same order.
    fn rebuild_indexes(&self) -> Result<()> {
        let mut by_table: BTreeMap<TableId, Vec<IndexMeta>> = BTreeMap::new();
        for meta in self.catalog.read().indexes.values() {
            by_table.entry(meta.table).or_default().push(meta.clone());
        }
        let mut map = HashMap::new();
        for (table, mut metas) in by_table {
            metas.sort_by_key(|m| m.id);
            let trees = self.build_trees(table, &metas, false)?;
            for (meta, tree) in metas.into_iter().zip(trees) {
                map.insert(meta.id, Arc::new(RwLock::new(tree)));
            }
        }
        *self.indexes.write() = map;
        Ok(())
    }

    /// Build a tree for each of `metas` (all indexes on `table`) from one
    /// scan of its heap, encoding each row's key once per index. With
    /// `check_unique`, a key already present in a unique index fails the
    /// build (CREATE INDEX); a rebuild on open leaves that to fsck.
    fn build_trees(
        &self,
        table: TableId,
        metas: &[IndexMeta],
        check_unique: bool,
    ) -> Result<Vec<BTreeIndex>> {
        let mut trees: Vec<BTreeIndex> = metas.iter().map(|_| BTreeIndex::new()).collect();
        let mut key = Vec::new();
        for item in self.scan_iter(table)? {
            let (rowid, row) = item?;
            for (meta, tree) in metas.iter().zip(&mut trees) {
                key.clear();
                meta.encode_key(&row, &mut key)?;
                if check_unique && meta.unique && tree.contains_key(&key) {
                    return Err(StoreError::UniqueViolation(format!(
                        "index {} over existing rows",
                        meta.name
                    )));
                }
                tree.insert(&key, rowid.to_u64());
            }
        }
        Ok(trees)
    }
}

/// Decode every live row of `page` in one pin: the page is latched for
/// the duration of the decode only, and the rows come out owned.
fn decode_page_rows(pool: &BufferPool, page: PageId) -> Result<Vec<(RowId, Row)>> {
    pool.with_page(page, |buf| {
        PageRef::new(&buf[..])
            .iter()
            .map(|(slot, rec)| decode_row(rec).map(|row| (RowId { page, slot }, row)))
            .collect::<Result<Vec<_>>>()
    })?
}

/// Streaming row iterator returned by [`Database::scan_iter`].
///
/// Each page is pinned once, decoded into owned rows, and released before
/// rows are yielded, so the iterator never holds buffer-pool pins between
/// `next` calls and arbitrarily slow consumers cannot wedge eviction. A
/// decode or I/O error is yielded in place and ends the iteration.
pub struct ScanIter<'db> {
    pool: &'db BufferPool,
    pages: Vec<PageId>,
    next_page: usize,
    current: std::vec::IntoIter<(RowId, Row)>,
}

impl Iterator for ScanIter<'_> {
    type Item = Result<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(Ok(item));
            }
            if self.next_page >= self.pages.len() {
                return None;
            }
            let page = self.pages[self.next_page];
            self.next_page += 1;
            match decode_page_rows(self.pool, page) {
                Ok(rows) => self.current = rows.into_iter(),
                Err(e) => {
                    self.next_page = self.pages.len();
                    return Some(Err(e));
                }
            }
        }
    }
}

fn map_bound_owned(b: Bound<&[Value]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(encode_key_vec(v)),
        Bound::Excluded(v) => Bound::Excluded(encode_key_vec(v)),
    }
}

fn as_bound_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
    }
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

/// An index's definition and its tree.
type IndexedTree = (IndexMeta, Arc<RwLock<BTreeIndex>>);

/// The indexes a write to one table maintains. DDL takes the writer lock
/// a [`Txn`] holds, so a transaction's plan for a table can never go
/// stale.
type IndexPlan = Arc<[IndexedTree]>;

/// Every key of `row`, one per index of `plan`, each encoded once.
fn encode_keys(plan: &[IndexedTree], row: &[Value]) -> Result<Vec<Vec<u8>>> {
    plan.iter()
        .map(|(meta, _)| {
            let mut key = Vec::new();
            meta.encode_key(row, &mut key)?;
            Ok(key)
        })
        .collect()
}

/// Move `rowid`'s entry in every index whose key changed from `from` to
/// `to` (keys as [`encode_keys`] returns them).
fn rekey(plan: &[IndexedTree], from: &[Vec<u8>], to: &[Vec<u8>], rowid: RowId) {
    for (((_, tree), from), to) in plan.iter().zip(from).zip(to) {
        if from != to {
            let mut t = tree.write();
            t.remove(from, rowid.to_u64());
            t.insert(to, rowid.to_u64());
        }
    }
}

/// The error for a write whose key unique index `meta` already holds.
fn unique_violation(meta: &IndexMeta, row: &[Value]) -> StoreError {
    let key: Vec<&Value> = meta.columns.iter().filter_map(|&c| row.get(c)).collect();
    StoreError::UniqueViolation(format!("index {} key {:?}", meta.name, key))
}

/// The unique write transaction. Dropped without [`Txn::commit`], all its
/// changes roll back.
pub struct Txn<'db> {
    db: &'db Database,
    _guard: MutexGuard<'db, ()>,
    id: u64,
    undo: Vec<UndoOp>,
    /// Index plans of the tables written so far (see [`IndexPlan`]).
    plans: HashMap<TableId, IndexPlan>,
    finished: bool,
}

impl<'db> Txn<'db> {
    /// This transaction's id (appears in the WAL).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The database this transaction writes to (for reads mid-transaction).
    pub fn db(&self) -> &'db Database {
        self.db
    }

    /// Insert `row` into `table`; returns its stable [`RowId`].
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowId> {
        self.db.check_writable()?;
        let plan = self.index_plan(table)?;
        {
            let cat = self.db.catalog.read();
            cat.table(table)?.check_row(&row)?;
        }
        let bytes = encode_row_vec(&row);
        if bytes.len() > MAX_RECORD {
            return Err(StoreError::SchemaMismatch(format!(
                "row of {} bytes exceeds page capacity",
                bytes.len()
            )));
        }
        // Each key is encoded once: for the unique check against current
        // index state, then for the tree insert.
        let keys = encode_keys(&plan, &row)?;
        for ((meta, tree), key) in plan.iter().zip(&keys) {
            if meta.unique && tree.read().contains_key(key) {
                return Err(unique_violation(meta, &row));
            }
        }
        let rowid = self.place(table, &bytes)?;
        // `place` already put the record on a page; if the log append
        // fails the row would be physically present but unlogged (and not
        // yet in `undo`, so rollback could never remove it). Compensate
        // inline: take the slot back out before surfacing the error.
        if let Err(e) = self.db.wal_append(
            self.id,
            &WalPayload::Op(WalOp::Insert {
                table: table.0,
                rowid,
                row: bytes,
            }),
        ) {
            let _ = self.db.pool.with_page_mut(rowid.page, |buf| {
                PageMut::new(&mut buf[..]).delete(rowid.slot)
            });
            return Err(e);
        }
        for ((_, tree), key) in plan.iter().zip(&keys) {
            tree.write().insert(key, rowid.to_u64());
        }
        self.undo.push(UndoOp::Insert { table, rowid, row });
        self.db.note_mutation(table);
        Ok(rowid)
    }

    /// Delete the row at `rowid`.
    pub fn delete(&mut self, table: TableId, rowid: RowId) -> Result<()> {
        self.db.check_writable()?;
        let plan = self.index_plan(table)?;
        let old = self.db.get(table, rowid)?;
        let keys = encode_keys(&plan, &old)?;
        let old_bytes = encode_row_vec(&old);
        self.db.wal_append(
            self.id,
            &WalPayload::Op(WalOp::Delete {
                table: table.0,
                rowid,
                old: old_bytes,
            }),
        )?;
        self.db.pool.with_page_mut(rowid.page, |buf| {
            PageMut::new(&mut buf[..]).delete(rowid.slot)
        })??;
        for ((_, tree), key) in plan.iter().zip(&keys) {
            tree.write().remove(key, rowid.to_u64());
        }
        self.undo.push(UndoOp::Delete {
            table,
            rowid,
            row: old,
        });
        self.db.note_mutation(table);
        Ok(())
    }

    /// Replace the row at `rowid` with `new`. The `RowId` is preserved.
    pub fn update(&mut self, table: TableId, rowid: RowId, new: Row) -> Result<()> {
        self.db.check_writable()?;
        let plan = self.index_plan(table)?;
        {
            let cat = self.db.catalog.read();
            cat.table(table)?.check_row(&new)?;
        }
        let old = self.db.get(table, rowid)?;
        let old_bytes = encode_row_vec(&old);
        let new_bytes = encode_row_vec(&new);
        if new_bytes.len() > MAX_RECORD {
            return Err(StoreError::SchemaMismatch(format!(
                "row of {} bytes exceeds page capacity",
                new_bytes.len()
            )));
        }
        let old_keys = encode_keys(&plan, &old)?;
        let new_keys = encode_keys(&plan, &new)?;
        for (((meta, tree), old_key), new_key) in plan.iter().zip(&old_keys).zip(&new_keys) {
            if meta.unique && old_key != new_key && tree.read().contains_key(new_key) {
                return Err(unique_violation(meta, &new));
            }
        }
        // Pre-flight the only real page-level failure (PageFull on grow)
        // *before* the WAL record exists. Otherwise a failed update leaves
        // a phantom Update record; if the transaction later commits, redo
        // hits PageFull during recovery and the database cannot be opened.
        if new_bytes.len() > old_bytes.len() {
            let fits = self.db.pool.with_page(rowid.page, |buf| {
                let p = PageRef::new(&buf[..]);
                let cur_len = p.get(rowid.slot).map_or(0, <[u8]>::len);
                new_bytes.len() <= cur_len || new_bytes.len() <= p.total_free() + cur_len
            })?;
            if !fits {
                return Err(StoreError::PageFull);
            }
        }
        self.db.wal_append(
            self.id,
            &WalPayload::Op(WalOp::Update {
                table: table.0,
                rowid,
                old: old_bytes,
                new: new_bytes.clone(),
            }),
        )?;
        self.db.pool.with_page_mut(rowid.page, |buf| {
            PageMut::new(&mut buf[..]).update(rowid.slot, &new_bytes)
        })??;
        rekey(&plan, &old_keys, &new_keys, rowid);
        self.undo.push(UndoOp::Update {
            table,
            rowid,
            old,
            new,
        });
        self.db.note_mutation(table);
        Ok(())
    }

    /// Make this transaction's changes durable. The WAL flush runs under
    /// the retry policy; a final failure leaves the database degraded
    /// (read-only) and this transaction uncommitted — recovery on the
    /// next open rolls its operations back.
    pub fn commit(mut self) -> Result<()> {
        self.db.check_writable()?;
        self.db.wal_append(self.id, &WalPayload::Commit)?;
        self.db.wal_sync()?;
        self.finished = true;
        self.db.commits.inc();
        // Opportunistic checkpoint to bound WAL growth.
        if self.db.dir.is_some() && self.db.wal.len()? > self.db.opts.checkpoint_wal_bytes {
            self.db.checkpoint_locked()?;
        }
        Ok(())
    }

    /// Roll this transaction back explicitly (dropping does the same).
    pub fn rollback(mut self) -> Result<()> {
        self.do_rollback()
    }

    fn do_rollback(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.db.rollbacks.inc();
        while let Some(op) = self.undo.pop() {
            // Each compensation is itself a physical row mutation; count
            // it for drift detection (conservative over-counting is fine —
            // it only makes statistics go stale sooner).
            match &op {
                UndoOp::Insert { table, .. }
                | UndoOp::Delete { table, .. }
                | UndoOp::Update { table, .. } => self.db.note_mutation(*table),
            }
            match op {
                UndoOp::Insert { table, rowid, row } => {
                    self.db.pool.with_page_mut(rowid.page, |buf| {
                        PageMut::new(&mut buf[..]).delete(rowid.slot)
                    })??;
                    let plan = self.index_plan(table)?;
                    for ((_, tree), key) in plan.iter().zip(encode_keys(&plan, &row)?) {
                        tree.write().remove(&key, rowid.to_u64());
                    }
                }
                UndoOp::Delete { table, rowid, row } => {
                    let bytes = encode_row_vec(&row);
                    self.db.pool.with_page_mut(rowid.page, |buf| {
                        PageMut::new(&mut buf[..])
                            .insert_at(rowid.slot, &bytes)
                            .map(|_| ())
                    })??;
                    let plan = self.index_plan(table)?;
                    for ((_, tree), key) in plan.iter().zip(encode_keys(&plan, &row)?) {
                        tree.write().insert(&key, rowid.to_u64());
                    }
                }
                UndoOp::Update {
                    table,
                    rowid,
                    old,
                    new,
                } => {
                    let bytes = encode_row_vec(&old);
                    self.db.pool.with_page_mut(rowid.page, |buf| {
                        PageMut::new(&mut buf[..]).update(rowid.slot, &bytes)
                    })??;
                    let plan = self.index_plan(table)?;
                    let (old_keys, new_keys) =
                        (encode_keys(&plan, &old)?, encode_keys(&plan, &new)?);
                    rekey(&plan, &new_keys, &old_keys, rowid);
                }
            }
        }
        self.db.wal.append(self.id, &WalPayload::Abort)?;
        Ok(())
    }

    /// The indexes a write to `table` maintains, looked up on this
    /// transaction's first write to the table and kept for the rest.
    fn index_plan(&mut self, table: TableId) -> Result<IndexPlan> {
        if let Some(plan) = self.plans.get(&table) {
            return Ok(Arc::clone(plan));
        }
        let metas: Vec<IndexMeta> = {
            let cat = self.db.catalog.read();
            cat.indexes_on(table)
                .into_iter()
                .map(|id| cat.index(id).cloned())
                .collect::<Result<_>>()?
        };
        let plan: IndexPlan = metas
            .into_iter()
            .map(|meta| {
                let tree = self.db.index_tree(meta.id)?;
                Ok((meta, tree))
            })
            .collect::<Result<_>>()?;
        self.plans.insert(table, Arc::clone(&plan));
        Ok(plan)
    }

    /// Find space for `bytes` in `table`'s heap, allocating a fresh page if
    /// the last page is full.
    fn place(&self, table: TableId, bytes: &[u8]) -> Result<RowId> {
        let last = self.db.catalog.read().table(table)?.pages.last().copied();
        if let Some(page) = last {
            let placed = self
                .db
                .pool
                .with_page_mut(page, |buf| PageMut::new(&mut buf[..]).insert(bytes))?;
            match placed {
                Ok(slot) => return Ok(RowId { page, slot }),
                Err(StoreError::PageFull) => {}
                Err(e) => return Err(e),
            }
        }
        // Allocate and format a new heap page (non-transactional).
        let page = self.db.pool.allocate_page()?;
        self.db.wal_append(
            0,
            &WalPayload::Op(WalOp::AllocPage {
                table: table.0,
                page: page.0,
            }),
        )?;
        self.db.pool.with_page_mut(page, |buf| {
            PageMut::new(&mut buf[..]).format(PageType::Heap);
        })?;
        self.db.catalog.write().attach_page(table, page)?;
        let slot = self
            .db
            .pool
            .with_page_mut(page, |buf| PageMut::new(&mut buf[..]).insert(bytes))??;
        Ok(RowId { page, slot })
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Errors during drop-rollback cannot be surfaced; recovery will
            // finish the job on next open (the WAL lacks our Commit).
            let _ = self.do_rollback();
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        if self.dir.is_some() {
            // Best-effort clean shutdown; on failure, recovery handles it.
            let _ = self.checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn people_schema() -> Vec<Column> {
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::nullable("score", ColumnType::Real),
        ]
    }

    fn setup(db: &Database) -> TableId {
        let t = db.create_table("people", people_schema()).unwrap();
        db.create_index("people_id", t, &["id"], true).unwrap();
        db.create_index("people_name", t, &["name"], false).unwrap();
        t
    }

    fn row(id: i64, name: &str, score: Option<f64>) -> Row {
        vec![
            Value::Int(id),
            Value::Text(name.into()),
            score.map_or(Value::Null, Value::Real),
        ]
    }

    #[test]
    fn insert_commit_read_back() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        let r1 = txn.insert(t, row(1, "ada", Some(9.5))).unwrap();
        let r2 = txn.insert(t, row(2, "grace", None)).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.get(t, r1).unwrap()[1], Value::Text("ada".into()));
        assert_eq!(db.get(t, r2).unwrap()[2], Value::Null);
        assert_eq!(db.row_count(t).unwrap(), 2);
    }

    #[test]
    fn rollback_on_drop_restores_everything() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        let keep = txn.insert(t, row(1, "kept", None)).unwrap();
        txn.commit().unwrap();
        {
            let mut txn = db.begin();
            txn.insert(t, row(2, "phantom", None)).unwrap();
            txn.update(t, keep, row(1, "mutated", None)).unwrap();
            txn.delete(t, keep).unwrap();
            // dropped without commit
        }
        assert_eq!(db.row_count(t).unwrap(), 1);
        assert_eq!(db.get(t, keep).unwrap()[1], Value::Text("kept".into()));
        // Indexes rolled back too.
        let idx = db.index_id("people_id").unwrap();
        assert_eq!(db.index_lookup(idx, &[Value::Int(2)]).unwrap(), vec![]);
        assert_eq!(db.index_lookup(idx, &[Value::Int(1)]).unwrap(), vec![keep]);
    }

    #[test]
    fn unique_violation_rejected() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        txn.insert(t, row(1, "a", None)).unwrap();
        let err = txn.insert(t, row(1, "b", None)).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation(_)));
        // Non-unique index allows duplicates.
        txn.insert(t, row(2, "a", None)).unwrap();
        txn.commit().unwrap();
        let by_name = db.index_id("people_name").unwrap();
        assert_eq!(
            db.index_lookup(by_name, &[Value::Text("a".into())])
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn update_maintains_indexes() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        let rid = txn.insert(t, row(1, "before", None)).unwrap();
        txn.update(t, rid, row(1, "after", Some(2.0))).unwrap();
        txn.commit().unwrap();
        let by_name = db.index_id("people_name").unwrap();
        assert!(db
            .index_lookup(by_name, &[Value::Text("before".into())])
            .unwrap()
            .is_empty());
        assert_eq!(
            db.index_lookup(by_name, &[Value::Text("after".into())])
                .unwrap(),
            vec![rid]
        );
    }

    #[test]
    fn schema_violations_rejected() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        assert!(txn.insert(t, vec![Value::Int(1)]).is_err());
        assert!(txn
            .insert(t, vec![Value::Null, Value::Text("x".into()), Value::Null])
            .is_err());
        assert!(txn
            .insert(
                t,
                vec![
                    Value::Text("no".into()),
                    Value::Text("x".into()),
                    Value::Null
                ]
            )
            .is_err());
    }

    #[test]
    fn many_rows_span_pages() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        for i in 0..5000 {
            txn.insert(t, row(i, &format!("name-{i:05}"), Some(i as f64)))
                .unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(db.row_count(t).unwrap(), 5000);
        assert!(db.page_count() > 10, "rows must span many pages");
        // Point lookup through the unique index.
        let idx = db.index_id("people_id").unwrap();
        let rids = db.index_lookup(idx, &[Value::Int(4321)]).unwrap();
        assert_eq!(rids.len(), 1);
        assert_eq!(
            db.get(t, rids[0]).unwrap()[1],
            Value::Text("name-04321".into())
        );
    }

    #[test]
    fn index_range_and_prefix() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        for i in 0..100 {
            txn.insert(t, row(i, &format!("n{:03}", i % 10), None))
                .unwrap();
        }
        txn.commit().unwrap();
        let idx = db.index_id("people_id").unwrap();
        let lo = [Value::Int(10)];
        let hi = [Value::Int(19)];
        let rids = db
            .index_range(idx, Bound::Included(&lo), Bound::Included(&hi))
            .unwrap();
        assert_eq!(rids.len(), 10);
        let by_name = db.index_id("people_name").unwrap();
        let rids = db
            .index_prefix(by_name, &[Value::Text("n003".into())])
            .unwrap();
        assert_eq!(rids.len(), 10);
    }

    #[test]
    fn persistence_clean_shutdown() {
        let dir = std::env::temp_dir().join(format!("ptdb-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            for i in 0..100 {
                txn.insert(t, row(i, &format!("persist-{i}"), None))
                    .unwrap();
            }
            txn.commit().unwrap();
        } // Drop → checkpoint
        let db = Database::open(&dir).unwrap();
        let t = db.table_id("people").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 100);
        let idx = db.index_id("people_id").unwrap();
        let rids = db.index_lookup(idx, &[Value::Int(42)]).unwrap();
        assert_eq!(
            db.get(t, rids[0]).unwrap()[1],
            Value::Text("persist-42".into())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_recovery_replays_committed_only() {
        let dir = std::env::temp_dir().join(format!("ptdb-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            for i in 0..50 {
                txn.insert(t, row(i, &format!("committed-{i}"), None))
                    .unwrap();
            }
            txn.commit().unwrap();
            // Second transaction never commits; simulate a crash by leaking
            // the Txn (no rollback) and forgetting the Database (no
            // checkpoint, pages never flushed).
            let mut txn2 = db.begin();
            for i in 100..120 {
                txn2.insert(t, row(i, &format!("uncommitted-{i}"), None))
                    .unwrap();
            }
            // Crash: neither txn2 rollback nor db checkpoint runs.
            std::mem::forget(txn2);
            std::mem::forget(db);
        }
        let db = Database::open(&dir).unwrap();
        let t = db.table_id("people").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 50, "only committed rows survive");
        let idx = db.index_id("people_id").unwrap();
        assert_eq!(db.index_lookup(idx, &[Value::Int(110)]).unwrap(), vec![]);
        assert_eq!(db.index_lookup(idx, &[Value::Int(10)]).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_recovery_with_updates_and_deletes() {
        let dir = std::env::temp_dir().join(format!("ptdb-crash2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (keep, gone): (RowId, RowId);
        {
            let db = Database::open(&dir).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            let a = txn.insert(t, row(1, "original", None)).unwrap();
            let b = txn.insert(t, row(2, "to-delete", None)).unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin();
            txn.update(t, a, row(1, "updated", Some(1.0))).unwrap();
            txn.delete(t, b).unwrap();
            txn.commit().unwrap();
            keep = a;
            gone = b;
            std::mem::forget(db); // crash without checkpoint
        }
        let db = Database::open(&dir).unwrap();
        let t = db.table_id("people").unwrap();
        assert_eq!(db.get(t, keep).unwrap()[1], Value::Text("updated".into()));
        assert!(db.get(t, gone).is_err());
        assert_eq!(db.row_count(t).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_pool_forces_eviction_while_loading() {
        // A tiny pool exercises the writeback hook + eviction path under a
        // committing workload.
        let db = Database::in_memory_with(DbOptions {
            pool_frames: 2,
            ..DbOptions::default()
        });
        let t = setup(&db);
        let mut txn = db.begin();
        for i in 0..2000 {
            txn.insert(t, row(i, &format!("evict-{i}"), None)).unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(db.row_count(t).unwrap(), 2000);
        assert!(db.pool_stats().evictions > 0);
    }

    #[test]
    fn create_index_on_populated_table() {
        let db = Database::in_memory();
        let t = db.create_table("people", people_schema()).unwrap();
        let mut txn = db.begin();
        for i in 0..500 {
            txn.insert(t, row(i, &format!("late-{i}"), None)).unwrap();
        }
        txn.commit().unwrap();
        let idx = db.create_index("late_id", t, &["id"], true).unwrap();
        assert_eq!(db.index_lookup(idx, &[Value::Int(123)]).unwrap().len(), 1);
    }

    #[test]
    fn create_unique_index_rejects_existing_duplicates() {
        let db = Database::in_memory();
        let t = db.create_table("people", people_schema()).unwrap();
        let mut txn = db.begin();
        txn.insert(t, row(1, "same", None)).unwrap();
        txn.insert(t, row(2, "same", None)).unwrap();
        txn.commit().unwrap();
        assert!(db.create_index("uniq_name", t, &["name"], true).is_err());
    }

    #[test]
    fn failed_unique_index_build_rolls_back_catalog() {
        let db = Database::in_memory();
        let t = db.create_table("people", people_schema()).unwrap();
        let mut txn = db.begin();
        txn.insert(t, row(1, "same", None)).unwrap();
        txn.insert(t, row(2, "same", None)).unwrap();
        txn.commit().unwrap();
        assert!(db.create_index("uniq_name", t, &["name"], true).is_err());
        // Regression: the failed DDL used to leave a tree-less IndexMeta
        // behind, so every later write on the table hit NoSuchIndex.
        let mut txn = db.begin();
        txn.insert(t, row(3, "after", None)).unwrap();
        txn.commit().unwrap();
        assert!(db.index_id("uniq_name").is_err());
        assert_eq!(db.row_count(t).unwrap(), 3);
        let report = db.verify(true).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.render_table());
    }

    #[test]
    fn failed_update_grow_does_not_poison_recovery() {
        let dir = std::env::temp_dir().join(format!("ptdb-phantom-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first;
        {
            let db = Database::open(&dir).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            first = txn.insert(t, row(0, &"x".repeat(1000), None)).unwrap();
            for i in 1..40 {
                txn.insert(t, row(i, &"x".repeat(1000), None)).unwrap();
            }
            // The first page is packed; growing row 0 to ~7 KiB cannot fit.
            // Regression: this used to append a WAL Update record before
            // discovering PageFull, and once the transaction committed the
            // phantom record made redo fail — the database was unopenable.
            let err = txn
                .update(t, first, row(0, &"y".repeat(7000), None))
                .unwrap_err();
            assert!(matches!(err, StoreError::PageFull), "{err}");
            txn.insert(t, row(999, "tail", None)).unwrap();
            txn.commit().unwrap();
            std::mem::forget(db); // crash without checkpoint → recovery replays
        }
        let db = Database::open(&dir).unwrap();
        let t = db.table_id("people").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 41);
        assert_eq!(
            db.get(t, first).unwrap()[1],
            Value::Text("x".repeat(1000)),
            "failed update left the original row intact"
        );
        let report = db.verify(true).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.render_table());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_bytes_grows_with_data() {
        let db = Database::in_memory();
        let t = setup(&db);
        let before = db.size_bytes().unwrap();
        let mut txn = db.begin();
        for i in 0..2000 {
            txn.insert(t, row(i, &format!("size-{i}"), None)).unwrap();
        }
        txn.commit().unwrap();
        assert!(db.size_bytes().unwrap() > before);
    }

    #[test]
    fn compact_table_reclaims_space_and_preserves_rows() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        let mut rids = Vec::new();
        for i in 0..2000 {
            rids.push(txn.insert(t, row(i, &format!("pad-{i:06}"), None)).unwrap());
        }
        txn.commit().unwrap();
        // Delete every other row, creating fragmentation.
        let mut txn = db.begin();
        for (i, rid) in rids.iter().enumerate() {
            if i % 2 == 0 {
                txn.delete(t, *rid).unwrap();
            }
        }
        txn.commit().unwrap();
        let gained = db.compact_table(t).unwrap();
        assert!(gained > 0, "fragmented space reclaimed");
        // Surviving rows unchanged, RowIds still valid.
        assert_eq!(db.row_count(t).unwrap(), 1000);
        for (i, rid) in rids.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    db.get(t, *rid).unwrap()[1],
                    Value::Text(format!("pad-{i:06}"))
                );
            } else {
                assert!(db.get(t, *rid).is_err());
            }
        }
        // Indexes still resolve.
        let idx = db.index_id("people_id").unwrap();
        assert_eq!(db.index_lookup(idx, &[Value::Int(1001)]).unwrap().len(), 1);
        // Compacting again gains nothing further.
        assert_eq!(db.compact_table(t).unwrap(), 0);
    }

    #[test]
    fn metrics_snapshot_aggregates_subsystems() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        for i in 0..2000 {
            txn.insert(t, row(i, &format!("obs-{i}"), None)).unwrap();
        }
        txn.commit().unwrap();
        {
            let mut txn = db.begin();
            txn.insert(t, row(9999, "rolled-back", None)).unwrap();
            // dropped without commit → rollback
        }
        let m = db.metrics();
        assert_eq!(m.txn.commits, 1);
        assert_eq!(m.txn.rollbacks, 1);
        assert!(m.wal.appends > 2000, "one op record per insert plus commit");
        assert!(m.wal.append_bytes > 0);
        assert!(m.wal.syncs >= 1);
        // Two indexes (id, name) over 2000 committed rows.
        assert_eq!(m.btree.entries, 4000);
        assert!(m.btree.splits > 0);
        assert!(m.btree.max_depth >= 2);
        assert!(m.pool.hits > 0);
        // The snapshot serializes to JSON that parses back identically.
        let json = m.to_json();
        let reparsed = crate::metrics::Json::parse(&json.emit()).unwrap();
        assert_eq!(reparsed, json);
        assert!(json.get("buffer_pool").is_some());
        assert!(json.get("wal").is_some());
    }

    #[test]
    fn readers_concurrent_with_writer() {
        let db = Arc::new(Database::in_memory());
        let t = setup(&db);
        {
            let mut txn = db.begin();
            for i in 0..1000 {
                txn.insert(t, row(i, "seed", None)).unwrap();
            }
            txn.commit().unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen_max = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let n = db.row_count(t).unwrap();
                        assert!(n >= 1000, "committed rows never vanish");
                        seen_max = seen_max.max(n);
                    }
                    seen_max
                })
            })
            .collect();
        for batch in 0..5 {
            let mut txn = db.begin();
            for i in 0..200 {
                txn.insert(t, row(10_000 + batch * 200 + i, "more", None))
                    .unwrap();
            }
            txn.commit().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.row_count(t).unwrap(), 2000);
    }

    #[test]
    fn fatal_wal_failure_degrades_to_read_only() {
        use crate::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs};
        let dir = std::env::temp_dir().join(format!("ptdb-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = FaultVfs::new(Arc::new(MemVfs::new()));
        let db = Database::open_with_vfs(&dir, DbOptions::default(), &fault).unwrap();
        let t = setup(&db);
        let mut txn = db.begin();
        let rid = txn.insert(t, row(1, "survivor", None)).unwrap();
        txn.commit().unwrap();
        assert!(!db.is_degraded());

        // Every sync from here on fails with ENOSPC — not transient, so
        // no amount of retrying helps.
        let syncs_so_far = fault.op_stats().syncs;
        fault.arm(FaultRule {
            trigger: FaultTrigger::NthSync(syncs_so_far),
            kind: FaultKind::Error(std::io::ErrorKind::StorageFull),
            once: false,
        });
        // Arm it for every later sync too.
        for n in 1..50 {
            fault.arm(FaultRule {
                trigger: FaultTrigger::NthSync(syncs_so_far + n),
                kind: FaultKind::Error(std::io::ErrorKind::StorageFull),
                once: false,
            });
        }

        let mut txn = db.begin();
        txn.insert(t, row(2, "doomed", None)).unwrap();
        let err = txn.commit().unwrap_err();
        assert!(!err.is_transient());
        assert!(db.is_degraded(), "fatal WAL flush flips the degraded flag");

        // Reads still work against committed state.
        assert_eq!(db.get(t, rid).unwrap()[1], Value::Text("survivor".into()));
        assert!(db.row_count(t).unwrap() >= 1);

        // Writes are rejected with the typed ReadOnly error.
        let mut txn = db.begin();
        let err = txn.insert(t, row(3, "rejected", None)).unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly));
        drop(txn);
        let err = db
            .create_table("nope", vec![Column::new("x", ColumnType::Int)])
            .unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly));

        // The condition is observable in metrics.
        let m = db.metrics();
        assert!(m.io.degraded);
        assert!(m.io.readonly_rejections >= 2);
        let json = m.to_json();
        assert_eq!(
            json.get("io").and_then(|io| io.get("degraded")),
            Some(&crate::metrics::Json::Bool(true))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_wal_failures_are_retried() {
        use crate::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs};
        let dir = std::env::temp_dir().join(format!("ptdb-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = FaultVfs::new(Arc::new(MemVfs::new()));
        let opts = DbOptions {
            retry_backoff: Duration::from_millis(0),
            sleep: |_| {},
            ..DbOptions::default()
        };
        let db = Database::open_with_vfs(&dir, opts, &fault).unwrap();
        let t = setup(&db);

        // The next sync is interrupted once; the retry must succeed and
        // the commit must be durable.
        let syncs_so_far = fault.op_stats().syncs;
        fault.arm(FaultRule {
            trigger: FaultTrigger::NthSync(syncs_so_far),
            kind: FaultKind::Error(std::io::ErrorKind::Interrupted),
            once: true,
        });
        let mut txn = db.begin();
        txn.insert(t, row(1, "retried", None)).unwrap();
        txn.commit().unwrap();

        assert!(!db.is_degraded());
        let m = db.metrics();
        assert!(m.io.retries >= 1, "the transient failure was retried");
        assert_eq!(m.io.readonly_rejections, 0);
        assert_eq!(db.row_count(t).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
