//! The `Database`: tables + indexes + transactions + recovery, tying the
//! pager, WAL, catalog, and B+tree layers together.
//!
//! Concurrency model: **single writer, many readers**, behind one
//! `RwLock`. A [`Txn`] (and DDL, checkpoint, ANALYZE, compaction) holds
//! its write side; a request holds [`Database::read`] while it reads, so
//! it sees committed data only — read-committed per guarded call, not a
//! snapshot. Scans and probes take no guard themselves, so a `Txn`'s
//! probes still run; unguarded, they may see an open transaction's rows.
//!
//! Durability: logical WAL with commit-time fsync, idempotent redo, and a
//! guarded undo pass for transactions that never committed (including
//! changes that reached the page file through buffer-pool eviction).
//! `checkpoint` flushes all pages, persists the catalog, and truncates the
//! log.
//!
//! Writes come in runs. [`Txn::insert_many`] writes one table's rows,
//! and [`Txn::insert`] is its one-row case; the core loader stages a
//! batch's rows per table and writes each table's run at commit. A run
//! is checked whole before any row is written. It is then written page
//! by page, and the write-ahead rule holds per page: a page's `Insert`
//! records are appended to the log while the page is still latched. A
//! latched page is pinned, so eviction cannot write it back before its
//! records are in the log, and the writeback hook syncs the log before
//! any page write. A new page's `AllocPage` record is logged before the
//! page is formatted.

use crate::btree::{BTreeIndex, Entry};
use crate::buffer::BufferPool;
use crate::catalog::{Catalog, Column, IndexId, IndexMeta, TableId};
use crate::check::{self, CatalogView, HeapCheck, IndexCheck};
use crate::disk::DiskManager;
use crate::error::{Result, StoreError};
use crate::lock::DirLock;
use crate::metrics::{
    BTreeStatsSnapshot, Counter, IoStatsSnapshot, MetricsSnapshot, PlannerStats, TxnStatsSnapshot,
};
use crate::page::{PageId, PageMut, PageRef, PageType, RowId, MAX_RECORD, PAGE_SIZE};
use crate::planner::StatsState;
use crate::stats::{build_histogram, drifted, IndexStats, StatsCatalog, TableStats};
use crate::sync::{Level, RwLock, RwLockReadGuard, RwLockWriteGuard};
use crate::value::{decode_row, encode_key_vec, encode_row, encode_row_vec, Row, Value};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{Wal, WalOp, WalPayload};
use std::collections::{HashMap, HashSet};
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
    /// Checkpoint automatically when the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// Clock injection point: how a retry waits out its backoff. A plain
    /// fn pointer so options stay `Clone + Debug`; tests install a no-op
    /// to stay deterministic and instantaneous.
    pub sleep: fn(Duration),
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            pool_frames: 4096, // 32 MiB of cache
            checkpoint_wal_bytes: 64 << 20,
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
    writer: RwLock<()>,
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

/// Retries of the WAL flush path on *transient* I/O failures (see
/// [`StoreError::is_transient`]) before the error is final.
const MAX_IO_RETRIES: u32 = 3;
/// Backoff before the first retry; doubles per attempt (bounded
/// exponential backoff).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Flush the WAL with the retry policy: transient failures back off and
/// retry; a fatal failure (or exhausted retries) flips the database into
/// read-only degraded mode. Free-standing so the buffer pool's writeback
/// hook can share the exact policy with the commit path.
fn wal_sync_guarded(
    wal: &Wal,
    sleep: fn(Duration),
    io: &IoStats,
    degraded: &AtomicBool,
) -> Result<()> {
    let mut attempt = 0u32;
    let mut delay = RETRY_BACKOFF;
    loop {
        match wal.sync() {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempt < MAX_IO_RETRIES => {
                attempt += 1;
                io.retries.inc();
                sleep(delay);
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
        let pool = Arc::new(BufferPool::new(disk, opts.pool_frames));
        let wal = Arc::new(Wal::in_memory());
        let db = Self::from_parts(pool, wal, Catalog::new(), opts, None);
        db.install_wal_hook();
        db
    }

    /// A database over its parts, with every lock at its level and no
    /// writeback hook installed yet.
    fn from_parts(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        catalog: Catalog,
        opts: DbOptions,
        dir: Option<(PathBuf, DirLock)>,
    ) -> Self {
        let (dir, dir_lock) = dir.unzip();
        Database {
            pool,
            wal,
            catalog: RwLock::new(Level::Catalog, catalog),
            indexes: RwLock::new(Level::Indexes, HashMap::new()),
            writer: RwLock::new(Level::Writer, ()),
            next_txn: AtomicU64::new(1),
            dir,
            opts,
            commits: Counter::new(),
            rollbacks: Counter::new(),
            degraded: Arc::new(AtomicBool::new(false)),
            io: Arc::new(IoStats::default()),
            planner: PlannerStats::default(),
            mutations: RwLock::new(Level::Mutations, HashMap::new()),
            stats_epoch: RwLock::new(Level::StatsEpoch, HashMap::new()),
            _dir_lock: dir_lock,
        }
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
        #[expect(
            clippy::disallowed_methods,
            reason = "store-directory creation happens before any Vfs handle exists"
        )]
        std::fs::create_dir_all(dir)?;
        // Take the directory lock before reading a single page: two
        // processes racing through recovery would each replay the WAL
        // into their own buffer pool and clobber each other's pages.
        let dir_lock = DirLock::acquire(dir)?;
        let disk = Arc::new(DiskManager::open_with_vfs(vfs, &dir.join(PAGES_FILE))?);
        let pool = Arc::new(BufferPool::new(disk, opts.pool_frames));
        let wal = Arc::new(Wal::open_with_vfs(vfs, &dir.join(WAL_FILE))?);
        let catalog_path = dir.join(CATALOG_FILE);
        let catalog = if catalog_path.exists() {
            Catalog::load(&catalog_path)?
        } else {
            Catalog::new()
        };
        let db = Self::from_parts(
            pool,
            wal,
            catalog,
            opts,
            Some((dir.to_path_buf(), dir_lock)),
        );
        db.recover()?;
        db.reclaim_lost_allocations()?;
        // Post-recovery verification: recovery must hand back a
        // structurally sound store. Failing the open here beats serving
        // corrupt rows later. The heap and index halves of `verify(false)`
        // run in the pass that builds the indexes; the rest runs after
        // the checkpoint, as a standalone verify would.
        let view = CatalogView::of(&db);
        let (heaps, index_checks) = db.build_and_check_indexes(&view)?;
        db.install_wal_hook();
        // Start from a clean checkpoint so the log only holds new work.
        db.checkpoint()?;
        let report = check::assemble_report(&db, &view, false, heaps, index_checks)?;
        if report.error_count() > 0 {
            return Err(StoreError::Corrupt(format!(
                "post-recovery verification failed: {}",
                report.summary()
            )));
        }
        Ok(db)
    }

    /// Shrink the page file past trailing pages that no table owns and
    /// that were never formatted. `DiskManager::allocate` extends the file
    /// before the page's `AllocPage` record reaches the log, so a crash or
    /// a failed WAL sync in between leaves such a page behind, and with
    /// no record nothing can refer to it. Read straight from disk: the
    /// pool holds no frame for a page nobody owns.
    fn reclaim_lost_allocations(&self) -> Result<()> {
        let disk = self.pool.disk();
        let mut count = disk.page_count();
        let mut buf = [0u8; PAGE_SIZE];
        while let Some(last) = count.checked_sub(1) {
            if self.catalog.read().page_owner(PageId(last)).is_some() {
                break;
            }
            disk.read_page(PageId(last), &mut buf)?;
            if PageRef::new(&buf[..]).is_formatted() {
                break;
            }
            count = last;
        }
        if count < disk.page_count() {
            disk.truncate_pages(count)?;
        }
        Ok(())
    }

    fn install_wal_hook(&self) {
        let wal = Arc::clone(&self.wal);
        let sleep = self.opts.sleep;
        let io = Arc::clone(&self.io);
        let degraded = Arc::clone(&self.degraded);
        self.pool.set_writeback_hook(Box::new(move || {
            wal_sync_guarded(&wal, sleep, &io, &degraded)
        }));
    }

    /// Flush the WAL under the retry/degradation policy.
    fn wal_sync(&self) -> Result<()> {
        wal_sync_guarded(&self.wal, self.opts.sleep, &self.io, &self.degraded)
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
        let _w = self.writer.write();
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
        let _w = self.writer.write();
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
        self.indexes
            .write()
            .insert(id, Arc::new(RwLock::new(Level::IndexTree, tree)));
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
    /// transaction or a [`Database::read`] guard is held.
    pub fn begin(&self) -> Txn<'_> {
        let guard = self.writer.write();
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

    /// Hold writers out, so reads see committed data only. Not
    /// re-entrant: never take it on a thread holding it or a [`Txn`].
    pub fn read(&self) -> RwLockReadGuard<'_, ()> {
        self.writer.read()
    }

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
    /// This is the one table-scan primitive: every full read of a table —
    /// the core layer's caches and reports, fsck's logical pass, the PTdf
    /// exporter — loops over it.
    pub fn scan_iter(&self, table: TableId) -> Result<ScanIter<'_>> {
        let pages = self.catalog.read().table(table)?.pages.clone();
        Ok(ScanIter {
            pool: &self.pool,
            pages,
            next_page: 0,
            current: Vec::new().into_iter(),
        })
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

    /// Entries in `index` — one per live row of its table — counted
    /// without reading a page, unlike [`Database::row_count`].
    pub fn index_len(&self, index: IndexId) -> Result<usize> {
        Ok(self.index_tree(index)?.read().len())
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

    /// The rowid of the last entry in `index` whose key is within `hi`:
    /// the row with the largest key at or below the bound, found by one
    /// descent instead of a scan. `None` when no key is.
    pub fn index_last(&self, index: IndexId, hi: Bound<&[Value]>) -> Result<Option<RowId>> {
        let tree = self.index_tree(index)?;
        let hi_enc = map_bound_owned(hi);
        let last = tree.read().last_within(as_bound_ref(&hi_enc));
        Ok(last.map(RowId::from_u64))
    }

    // -- maintenance ------------------------------------------------------

    /// Flush dirty pages, persist the catalog, and truncate the WAL.
    pub fn checkpoint(&self) -> Result<()> {
        let _w = self.writer.write();
        self.checkpoint_locked()
    }

    fn checkpoint_locked(&self) -> Result<()> {
        self.wal_sync()?;
        self.pool.flush_all()?;
        if let Some(dir) = &self.dir {
            self.catalog.read().save(&dir.join(CATALOG_FILE))?;
        }
        self.wal.truncate()?;
        Ok(())
    }

    /// Compact every page of `table` in place (PageMut::compact preserves
    /// slot ids, so RowIds and indexes stay valid), and pack each of its
    /// index trees again from its own entries, which drops the empty and
    /// underfull leaves deletes leave behind. Returns the number of
    /// contiguous free bytes gained. Run after bulk deletes.
    pub fn compact_table(&self, table: TableId) -> Result<usize> {
        let _w = self.writer.write();
        let (pages, index_ids): (Vec<PageId>, Vec<IndexId>) = {
            let cat = self.catalog.read();
            let pages = cat.table(table)?.pages.clone();
            let ids = cat.indexes.values().filter(|m| m.table == table);
            (pages, ids.map(|m| m.id).collect())
        };
        let mut gained = 0usize;
        for page in pages {
            gained += self.pool.with_page_mut(page, |buf| {
                let before = PageRef::new(&buf[..]).contiguous_free();
                PageMut::new(&mut buf[..]).compact();
                PageRef::new(&buf[..]).contiguous_free() - before
            })?;
        }
        for id in index_ids {
            if let Some(tree) = self.index_tree_opt(id) {
                tree.write().repack();
            }
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
        MetricsSnapshot {
            pool: self.pool.stats(),
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

    /// Record `n` row mutations against `table` for drift detection.
    fn note_mutations(&self, table: TableId, n: u64) {
        *self.mutations.write().entry(table).or_insert(0) += n;
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
        let _w = self.writer.write();
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
    /// findings; see [`crate::check`] for the invariants covered. Holds
    /// [`Database::read`]'s guard so the view is quiescent (do not call
    /// while holding a [`Txn`] or that guard on the same thread). `deep`
    /// adds the full index ↔ heap bijection check.
    pub fn verify(&self, deep: bool) -> Result<crate::check::FsckReport> {
        let _r = self.writer.read();
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
                // A commit whose sync failed is rolled back in memory and
                // followed by an Abort; if a later sync makes both durable,
                // the Abort wins.
                WalPayload::Abort => {
                    committed.remove(&r.txn);
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

    /// Build every index from the heap and run the heap and index halves
    /// of `verify(false)` on the way, reading each heap page once. Tables
    /// go in table id order, so the pool holds the same pages after every
    /// open. Each table's pages and rows are checked, the rows that pass
    /// feed one `(key, rowid)` run per index on the table, and each run is
    /// sorted, packed by [`BTreeIndex::from_sorted`] and checked before
    /// the next table is scanned. The trees are installed; the findings
    /// are returned for [`check::assemble_report`].
    ///
    /// All of it runs on the opening thread. Packing on a helper thread
    /// made the open faster but the rest of the process slower: once a
    /// process has started a thread, glibc's malloc leaves its
    /// single-threaded fast path for good, and the allocation-heavy work
    /// after the open (the core's runtime state, a query, freeing the
    /// trees on close) lost more than the open gained (docs/PERF.md,
    /// "Open: one heap pass").
    fn build_and_check_indexes(
        &self,
        view: &CatalogView,
    ) -> Result<(Vec<HeapCheck>, HashMap<IndexId, IndexCheck>)> {
        let mut by_table: HashMap<TableId, Vec<IndexMeta>> = HashMap::new();
        for meta in &view.indexes {
            by_table.entry(meta.table).or_default().push(meta.clone());
        }
        let mut heaps = Vec::with_capacity(view.tables.len());
        let mut trees = HashMap::with_capacity(view.indexes.len());
        let mut checks = HashMap::with_capacity(view.indexes.len());
        let mut key = Vec::new();
        for t in &view.tables {
            let metas = by_table.remove(&t.id).unwrap_or_default();
            let mut runs: Vec<Vec<Entry>> = metas.iter().map(|_| Vec::new()).collect();
            let heap = check::check_table_heap(&self.pool, t, view.page_count, |rowid, row| {
                push_keys(&metas, &mut runs, &mut key, rowid, row)
            })?;
            let live = heap.live_if_clean();
            heaps.push(heap);
            for (meta, mut run) in metas.iter().zip(runs) {
                // Tuple order is the tree's composite (key, rowid) order.
                run.sort_unstable();
                let tree = BTreeIndex::from_sorted(run);
                checks.insert(meta.id, check::check_index(&tree, meta, live));
                trees.insert(meta.id, Arc::new(RwLock::new(Level::IndexTree, tree)));
            }
        }
        *self.indexes.write() = trees;
        Ok((heaps, checks))
    }

    /// Build a tree for each of `metas` (all indexes on `table`) from one
    /// scan of its heap: each row's key is encoded once per index into
    /// that index's `(key, rowid)` run, and each run is sorted and packed
    /// by [`BTreeIndex::from_sorted`]. With `check_unique`, two equal keys
    /// side by side in a unique index's sorted run fail the build (CREATE
    /// INDEX); the open reports them as `index.unique` instead.
    fn build_trees(
        &self,
        table: TableId,
        metas: &[IndexMeta],
        check_unique: bool,
    ) -> Result<Vec<BTreeIndex>> {
        let mut runs: Vec<Vec<Entry>> = metas.iter().map(|_| Vec::new()).collect();
        let mut key = Vec::new();
        for item in self.scan_iter(table)? {
            let (rowid, row) = item?;
            push_keys(metas, &mut runs, &mut key, rowid, &row)?;
        }
        metas
            .iter()
            .zip(runs)
            .map(|(meta, mut run)| {
                // Tuple order is the tree's composite (key, rowid) order.
                run.sort_unstable();
                if check_unique && meta.unique && run.windows(2).any(|w| w[0].0 == w[1].0) {
                    return Err(StoreError::UniqueViolation(format!(
                        "index {} over existing rows",
                        meta.name
                    )));
                }
                Ok(BTreeIndex::from_sorted(run))
            })
            .collect()
    }
}

/// Append `row`'s key in each of `metas` to that index's run, encoding
/// through the reused buffer `key`.
fn push_keys(
    metas: &[IndexMeta],
    runs: &mut [Vec<Entry>],
    key: &mut Vec<u8>,
    rowid: RowId,
    row: &[Value],
) -> Result<()> {
    for (meta, run) in metas.iter().zip(runs) {
        key.clear();
        meta.encode_key(row, key)?;
        run.push((key.as_slice().into(), rowid.to_u64()));
    }
    Ok(())
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
    _guard: RwLockWriteGuard<'db, ()>,
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

    /// Insert `row` into `table`; returns its stable [`RowId`]. The
    /// one-row case of [`Txn::insert_many`].
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowId> {
        self.insert_many(table, vec![row])?
            .pop()
            .ok_or_else(|| StoreError::TxnError("insert placed no row".into()))
    }

    /// Insert `rows` into `table`, in order; returns their [`RowId`]s,
    /// which are the ones the same rows inserted one at a time would get.
    ///
    /// Every row is checked before any is written: the schema (one
    /// catalog read), [`MAX_RECORD`], and each unique index's keys against
    /// the index (one read lock) and against the run's other rows. A call
    /// that fails a check writes nothing. Then the rows are written: the
    /// table's last page is filled, then each new page, under one latch
    /// per page, and that page's `Insert` records reach the WAL before its
    /// latch is released (the module doc's write-ahead rule). Last, each index takes
    /// its keys under one write lock. An I/O error while writing stops the
    /// run; the rows written before it stay, indexed, as a row-by-row loop
    /// that failed there would leave them.
    pub fn insert_many(&mut self, table: TableId, rows: Vec<Row>) -> Result<Vec<RowId>> {
        self.db.check_writable()?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let plan = self.index_plan(table)?;
        {
            let cat = self.db.catalog.read();
            let meta = cat.table(table)?;
            rows.iter().try_for_each(|row| meta.check_row(row))?;
        }
        let mut records = Packed::default();
        for row in &rows {
            let len = records.push(|out| {
                encode_row(row, out);
                Ok(())
            })?;
            if len > MAX_RECORD {
                return Err(StoreError::SchemaMismatch(format!(
                    "row of {len} bytes exceeds page capacity"
                )));
            }
        }
        // Each key is encoded once: for the unique checks, then for the
        // tree insert.
        let mut keys = Vec::with_capacity(plan.len());
        for (meta, tree) in plan.iter() {
            let mut run = Packed::default();
            for row in &rows {
                run.push(|out| meta.encode_key(row, out))?;
            }
            if meta.unique {
                check_unique(meta, &tree.read(), &run, &rows)?;
            }
            keys.push(run);
        }
        let mut rowids = Vec::with_capacity(rows.len());
        let written = self.place_run(table, &records, &mut rowids);
        if !rowids.is_empty() {
            for ((_, tree), run) in plan.iter().zip(&keys) {
                let mut tree = tree.write();
                for (key, rowid) in run.iter().zip(&rowids) {
                    tree.insert(key, rowid.to_u64());
                }
            }
            self.db.note_mutations(table, rowids.len() as u64);
        }
        let undo = rows.into_iter().zip(&rowids);
        self.undo
            .extend(undo.map(|(row, &rowid)| UndoOp::Insert { table, rowid, row }));
        written.map(|()| rowids)
    }

    /// Delete the row at `rowid`.
    pub fn delete(&mut self, table: TableId, rowid: RowId) -> Result<()> {
        self.db.check_writable()?;
        let plan = self.index_plan(table)?;
        let old = self.db.get(table, rowid)?;
        let keys = encode_keys(&plan, &old)?;
        let old_bytes = encode_row_vec(&old);
        self.db.wal.append(
            self.id,
            &WalPayload::Op(WalOp::Delete {
                table: table.0,
                rowid,
                old: old_bytes,
            }),
        );
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
        self.db.note_mutations(table, 1);
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
        self.db.wal.append(
            self.id,
            &WalPayload::Op(WalOp::Update {
                table: table.0,
                rowid,
                old: old_bytes,
                new: new_bytes.clone(),
            }),
        );
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
        self.db.note_mutations(table, 1);
        Ok(())
    }

    /// Make this transaction's changes durable. The WAL flush runs under
    /// the retry policy; a final failure leaves the database degraded
    /// (read-only) and this transaction uncommitted — recovery on the
    /// next open rolls its operations back.
    pub fn commit(mut self) -> Result<()> {
        self.db.check_writable()?;
        self.db.wal.append(self.id, &WalPayload::Commit);
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
                | UndoOp::Update { table, .. } => self.db.note_mutations(*table, 1),
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
        self.db.wal.append(self.id, &WalPayload::Abort);
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

    /// Write `records` to `table`'s heap in order, pushing each one's
    /// [`RowId`] to `rowids`: the table's last page takes what fits, then
    /// each new page. A page is allocated (its `AllocPage` record logged
    /// first, as recovery requires) only once the page before it is full,
    /// and joins the table only once it is formatted: a new page whose
    /// latch could not be taken stays unowned, which fsck reports as an
    /// orphan, rather than a zeroed page the table would write into.
    fn place_run(&self, table: TableId, records: &Packed, rowids: &mut Vec<RowId>) -> Result<()> {
        let last = self.db.catalog.read().table(table)?.pages.last().copied();
        if let Some(page) = last {
            self.fill_page(table, page, false, records, rowids)??;
        }
        while rowids.len() < records.len() {
            let before = rowids.len();
            let page = self.db.pool.allocate_page()?;
            self.db.wal.append(
                0,
                &WalPayload::Op(WalOp::AllocPage {
                    table: table.0,
                    page: page.0,
                }),
            );
            let filled = self.fill_page(table, page, true, records, rowids)?;
            self.db.catalog.write().attach_page(table, page)?;
            filled?;
            if rowids.len() == before {
                // A record of at most MAX_RECORD bytes fits an empty page.
                return Err(StoreError::PageFull);
            }
        }
        Ok(())
    }

    /// Place the next of `records` (from `rowids.len()` on) in `page`
    /// until one does not fit, under one page latch, formatting the page
    /// first if it is `fresh`. Before the latch is released, the placed
    /// rows' `Insert` records are appended to the WAL under one WAL lock
    /// (`PoolFrame` is below `Wal` in the lock order): the page cannot be
    /// evicted, and so written back, before its records are in the log.
    /// The outer error means the latch was never taken, so the page is
    /// untouched; the inner one, a placement that failed after.
    fn fill_page(
        &self,
        table: TableId,
        page: PageId,
        fresh: bool,
        records: &Packed,
        rowids: &mut Vec<RowId>,
    ) -> Result<Result<()>> {
        let from = rowids.len();
        self.db.pool.with_page_mut(page, |buf| {
            let mut heap = PageMut::new(&mut buf[..]);
            if fresh {
                heap.format(PageType::Heap);
            }
            let filled = heap.insert_each(records.iter_from(from), |slot| {
                rowids.push(RowId { page, slot });
            });
            let placed = rowids.get(from..).unwrap_or_default();
            let logged = placed.iter().copied().zip(records.iter_from(from));
            self.db.wal.append_inserts(self.id, table.0, logged);
            filled
        })
    }
}

/// Byte strings packed end to end in one buffer: a run's encoded rows, or
/// its keys in one index.
#[derive(Default)]
struct Packed {
    bytes: Vec<u8>,
    /// End offset of each item in `bytes`.
    ends: Vec<usize>,
}

impl Packed {
    /// Append one item written by `encode`; returns its length.
    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<usize> {
        let start = self.bytes.len();
        encode(&mut self.bytes)?;
        self.ends.push(self.bytes.len());
        Ok(self.bytes.len() - start)
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The items from the `from`th on, in order.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = &[u8]> {
        let start = from.checked_sub(1).and_then(|i| self.ends.get(i));
        let ends = self.ends.get(from..).unwrap_or_default();
        ends.iter()
            .scan(start.copied().unwrap_or(0), |start, &end| {
                let item = self.bytes.get(*start..end).unwrap_or_default();
                *start = end;
                Some(item)
            })
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.iter_from(0)
    }
}

/// Fail with [`StoreError::UniqueViolation`] if any of `keys` (unique
/// index `meta`'s key for each of `rows`) is already in `tree` or appears
/// twice in the run. One tree probe per key, as a row-by-row insert makes.
fn check_unique(meta: &IndexMeta, tree: &BTreeIndex, keys: &Packed, rows: &[Row]) -> Result<()> {
    let mut seen = HashSet::new();
    for (key, row) in keys.iter().zip(rows) {
        if tree.contains_key(key) || (keys.len() > 1 && !seen.insert(key)) {
            return Err(unique_violation(meta, row));
        }
    }
    Ok(())
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
#[allow(
    clippy::disallowed_methods,
    reason = "the tests open, crash and reopen stores in host scratch directories"
)]
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

    /// Every `(key, rowid)` entry of `tree`, in tree order.
    fn entries(tree: &BTreeIndex) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        tree.for_range(Bound::Unbounded, Bound::Unbounded, |key, rid| {
            out.push((key.to_vec(), rid));
            true
        });
        out
    }

    /// The trees the open's one checked heap pass installs equal what
    /// CREATE INDEX's build over the same heap gives, and the reopened
    /// store verifies clean. Small enough for Miri.
    #[test]
    fn open_builds_the_trees_a_serial_build_does() {
        let dir = std::env::temp_dir().join(format!("ptdb-one-pass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            for name in ["a", "b", "c"] {
                let t = db.create_table(name, people_schema()).unwrap();
                db.create_index(&format!("{name}_id"), t, &["id"], true)
                    .unwrap();
                db.create_index(&format!("{name}_name"), t, &["name"], false)
                    .unwrap();
                db.create_index(&format!("{name}_score"), t, &["score"], false)
                    .unwrap();
                let mut txn = db.begin();
                let rids: Vec<RowId> = (0..24)
                    .map(|i| {
                        let score = (i % 3 != 0).then_some((i % 5) as f64);
                        txn.insert(t, row(i, &format!("{name}{}", i % 4), score))
                            .unwrap()
                    })
                    .collect();
                for rid in rids.iter().step_by(5) {
                    txn.delete(t, *rid).unwrap();
                }
                txn.commit().unwrap();
            }
        }
        let db = Database::open(&dir).unwrap();
        let mut checked = 0;
        for (t, _) in db.tables() {
            let mut metas: Vec<IndexMeta> = db
                .catalog_read()
                .indexes
                .values()
                .filter(|m| m.table == t)
                .cloned()
                .collect();
            metas.sort_by_key(|m| m.id);
            let serial = db.build_trees(t, &metas, false).unwrap();
            for (meta, tree) in metas.iter().zip(&serial) {
                let opened = db.index_tree(meta.id).unwrap();
                assert_eq!(entries(&opened.read()), entries(tree), "{}", meta.name);
                assert_eq!(opened.read().len(), 19, "{}", meta.name);
                checked += 1;
            }
        }
        assert_eq!(checked, 9);
        assert!(db.verify(true).unwrap().is_clean());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rows in `table`, with their ids, in scan order.
    fn scan(db: &Database, table: TableId) -> Vec<(RowId, Row)> {
        db.scan_iter(table).unwrap().map(Result::unwrap).collect()
    }

    /// Each index's entry count, by name, in index id order.
    fn index_lens(db: &Database) -> Vec<(String, usize)> {
        let mut metas: Vec<IndexMeta> = db.catalog_read().indexes.values().cloned().collect();
        metas.sort_by_key(|m| m.id);
        let len = |m: &IndexMeta| db.index_len(m.id).unwrap();
        metas.iter().map(|m| (m.name.clone(), len(m))).collect()
    }

    /// A run that fails a check writes nothing: no row, no index entry,
    /// no WAL record, and the transaction still commits what it wrote
    /// before. Small enough for Miri.
    #[test]
    fn failing_run_writes_nothing() {
        let db = Database::in_memory();
        let t = setup(&db);
        let mut txn = db.begin();
        let kept = txn
            .insert_many(t, vec![row(1, "a", None), row(2, "b", Some(1.0))])
            .unwrap();
        let runs: [(&str, Vec<Row>); 4] = [
            (
                "duplicate key within the run",
                vec![row(10, "c", None), row(11, "d", None), row(10, "e", None)],
            ),
            (
                "key the index already holds",
                vec![row(20, "c", None), row(2, "d", None)],
            ),
            (
                "row over MAX_RECORD",
                vec![row(30, "c", None), row(31, &"x".repeat(MAX_RECORD), None)],
            ),
            (
                "wrong number of columns",
                vec![row(40, "c", None), vec![Value::Int(41)]],
            ),
        ];
        for (what, rows) in runs {
            let before = (index_lens(&db), db.metrics().wal.appends);
            let err = txn.insert_many(t, rows).unwrap_err();
            let expected = match err {
                StoreError::UniqueViolation(_) => what.contains("key"),
                StoreError::SchemaMismatch(_) => !what.contains("key"),
                _ => false,
            };
            assert!(expected, "{what}: {err}");
            assert_eq!(db.row_count(t).unwrap(), 2, "{what}");
            let after = (index_lens(&db), db.metrics().wal.appends);
            assert_eq!(after, before, "{what}");
        }
        txn.commit().unwrap();
        let rows: Vec<RowId> = scan(&db, t).into_iter().map(|(rid, _)| rid).collect();
        assert_eq!(rows, kept);
        assert!(index_lens(&db).iter().all(|(_, n)| *n == 2));
        assert!(db.verify(true).unwrap().is_clean());
    }

    /// One run across several pages: it reads back in order, rolls back
    /// to empty indexes, and once committed and reopened holds the rows
    /// and index entries a row-by-row build of the same history does.
    /// Small enough for Miri.
    #[test]
    fn page_spanning_run_matches_row_by_row_build() {
        // 1000-byte names: eight rows to a page.
        let rows: Vec<Row> = (0..30)
            .map(|i| row(i, &format!("{i:04}{}", "n".repeat(996)), Some(i as f64)))
            .collect();
        let base = std::env::temp_dir().join(format!("ptdb-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (batched, serial) = (base.join("batched"), base.join("serial"));
        {
            let db = Database::open(&batched).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            let rids = txn.insert_many(t, rows.clone()).unwrap();
            let pages: HashSet<PageId> = rids.iter().map(|r| r.page).collect();
            assert!(pages.len() >= 3, "the run spans {} pages", pages.len());
            let read: Vec<(RowId, Row)> = rids.iter().copied().zip(rows.clone()).collect();
            assert_eq!(scan(&db, t), read);
            drop(txn);
            assert_eq!(db.row_count(t).unwrap(), 0);
            assert!(index_lens(&db).iter().all(|(_, n)| *n == 0));
            let mut txn = db.begin();
            txn.insert_many(t, rows.clone()).unwrap();
            txn.commit().unwrap();
        }
        {
            let db = Database::open(&serial).unwrap();
            let t = setup(&db);
            for commit in [false, true] {
                let mut txn = db.begin();
                for r in &rows {
                    txn.insert(t, r.clone()).unwrap();
                }
                if commit {
                    txn.commit().unwrap();
                }
            }
        }
        let (a, b) = (
            Database::open(&batched).unwrap(),
            Database::open(&serial).unwrap(),
        );
        let t = a.table_id("people").unwrap();
        let content = |db: &Database| {
            let mut trees = Vec::new();
            for name in ["people_id", "people_name"] {
                trees.push(entries(
                    &db.index_tree(db.index_id(name).unwrap()).unwrap().read(),
                ));
            }
            (scan(db, t), trees)
        };
        let (heap, trees) = content(&a);
        assert_eq!(
            heap.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            rows
        );
        assert_eq!((heap, trees), content(&b));
        assert!(a.verify(true).unwrap().is_clean());
        assert!(b.verify(true).unwrap().is_clean());
        drop((a, b));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn new_page_that_could_not_be_read_stays_out_of_the_table() {
        use crate::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs};
        let dir = std::env::temp_dir().join(format!("ptdb-freshfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = Arc::new(MemVfs::new());
        let fault = FaultVfs::new(mem.clone());
        // 1000-byte names: eight rows to a page.
        let rows = |ids: std::ops::Range<i64>| -> Vec<Row> {
            ids.map(|i| row(i, &format!("{i:04}{}", "n".repeat(996)), None))
                .collect()
        };
        {
            let db = Database::open_with_vfs(&dir, DbOptions::default(), &fault).unwrap();
            let t = setup(&db);
            let mut txn = db.begin();
            txn.insert_many(t, rows(0..5)).unwrap();
            txn.commit().unwrap();
            // The run fills the table's page, then allocates a new one
            // (one truncate) and misses it in the pool: that read fails.
            let ops = fault.op_stats();
            let next = ops.reads + ops.writes + ops.syncs + ops.truncates;
            fault.arm(FaultRule {
                trigger: FaultTrigger::OpIndex(next + 1),
                kind: FaultKind::Error(std::io::ErrorKind::PermissionDenied),
                once: true,
            });
            let mut txn = db.begin();
            let err = txn.insert_many(t, rows(5..12)).unwrap_err();
            assert!(matches!(err, StoreError::Io(_)), "{err}");
            assert_eq!(fault.injected_faults(), 1);
            assert!(!db.is_degraded());
            drop(txn);
            let mut txn = db.begin();
            txn.insert_many(t, rows(5..12)).unwrap();
            txn.commit().unwrap();
            db.checkpoint().unwrap();
        }
        let db = Database::open_with_vfs(&dir, DbOptions::default(), &*mem).unwrap();
        let t = db.table_id("people").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 12);
        let report = db.verify(true).unwrap();
        assert_eq!(report.error_count(), 0, "{report:?}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
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
        // The crashing process runs on its own thread: the leaked Txn's
        // writer level stays held there, not on the thread that reopens.
        std::thread::scope(|s| {
            s.spawn(|| {
                let db = Database::open(&dir).unwrap();
                let t = setup(&db);
                let mut txn = db.begin();
                for i in 0..50 {
                    txn.insert(t, row(i, &format!("committed-{i}"), None))
                        .unwrap();
                }
                txn.commit().unwrap();
                // Second transaction never commits; simulate a crash by
                // leaking the Txn (no rollback) and forgetting the Database
                // (no checkpoint, pages never flushed).
                let mut txn2 = db.begin();
                for i in 100..120 {
                    txn2.insert(t, row(i, &format!("uncommitted-{i}"), None))
                        .unwrap();
                }
                // Crash: neither txn2 rollback nor db checkpoint runs.
                std::mem::forget(txn2);
                std::mem::forget(db);
            });
        });
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
        assert!(db.metrics().pool.evictions > 0);
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
    fn create_unique_index_finds_duplicates_on_different_pages() {
        let db = Database::in_memory();
        let t = db.create_table("people", people_schema()).unwrap();
        let mut txn = db.begin();
        let rids: Vec<RowId> = (0..500)
            .map(|i| {
                let name = if i == 0 || i == 499 {
                    "twin".to_string()
                } else {
                    format!("p-{i}")
                };
                txn.insert(t, row(i, &name, None)).unwrap()
            })
            .collect();
        txn.commit().unwrap();
        assert_ne!(rids[0].page, rids[499].page);
        let err = db
            .create_index("uniq_name", t, &["name"], true)
            .unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation(_)), "{err}");
        assert!(db.index_id("uniq_name").is_err(), "catalog rolled back");
        // The same column builds as a non-unique index, twins included.
        let idx = db.create_index("by_name", t, &["name"], false).unwrap();
        let twins = db.index_lookup(idx, &[Value::Text("twin".into())]).unwrap();
        assert_eq!(twins, [rids[0], rids[499]]);
        let report = db.verify(true).unwrap();
        assert!(report.is_clean(), "{}", report.render_table());
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
        let fill = |db: &Database| {
            let report = db.verify(true).unwrap();
            assert_eq!(report.error_count(), 0, "{}", report.render_table());
            report
                .findings
                .iter()
                .filter(|f| f.code == "tree.fill")
                .count()
        };
        assert!(fill(&db) > 0, "deletes leave leaves below half fill");
        let gained = db.compact_table(t).unwrap();
        assert!(gained > 0, "fragmented space reclaimed");
        assert_eq!(fill(&db), 0, "compaction repacks the table's trees");
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
    fn a_read_guard_sees_only_committed_rows() {
        for commit in [false, true] {
            let db = &Database::in_memory();
            let t = setup(db);
            let mut txn = db.begin();
            for i in 0..10 {
                txn.insert(t, row(i, "pending", None)).unwrap();
            }
            std::thread::scope(|s| {
                let (started, wait) = std::sync::mpsc::channel();
                let reader = s.spawn(move || {
                    started.send(()).unwrap();
                    let _committed = db.read();
                    db.scan_iter(t).unwrap().count()
                });
                wait.recv().unwrap();
                // The answer does not depend on this pause; it gives an
                // unguarded scan the time to count the open rows.
                std::thread::sleep(Duration::from_millis(20));
                if commit {
                    txn.commit().unwrap();
                } else {
                    txn.rollback().unwrap();
                }
                assert_eq!(reader.join().unwrap(), if commit { 10 } else { 0 });
            });
        }
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
