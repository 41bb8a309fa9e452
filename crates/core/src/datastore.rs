//! `PTDataStore`: the PerfTrack data store interface (§3.3).
//!
//! Wraps the embedded relational database with PerfTrack's semantics:
//! resource-type bootstrap (the base types of Fig. 2 are loaded through
//! the same extension interface users call), resource creation with
//! hierarchy validation and closure-table maintenance, attribute and
//! constraint storage, and performance-result loading — plus PTdf import
//! (serial and parallel-parse) and export.

use crate::error::{PtError, Result};
use crate::schema::{col, Schema};
use perftrack_model::{ContextRole, ModelError, PerformanceResult, ResourceName, TypeRegistry};
use perftrack_ptdf::{AttrType, PtdfStatement};
use perftrack_store::sync::{Level, Mutex, RwLock};
use perftrack_store::{Database, DbOptions, Row, TableId, Value};
use std::collections::HashMap;
use std::ops::Bound;
use std::path::Path;

/// A resource row, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    pub id: i64,
    pub name: String,
    pub base_name: String,
    pub type_id: i64,
    pub parent_id: Option<i64>,
}

/// Counters reported by a load (drives the paper's Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    pub statements: usize,
    pub applications: usize,
    pub resource_types: usize,
    pub executions: usize,
    pub resources: usize,
    pub attributes: usize,
    pub constraints: usize,
    pub results: usize,
}

impl LoadStats {
    /// Accumulate another load's counters.
    pub fn merge(&mut self, other: &LoadStats) {
        self.statements += other.statements;
        self.applications += other.applications;
        self.resource_types += other.resource_types;
        self.executions += other.executions;
        self.resources += other.resources;
        self.attributes += other.attributes;
        self.constraints += other.constraints;
        self.results += other.results;
    }
}

/// Options for resumable bulk loads ([`PTDataStore::load_ptdf_files_resumable`]).
#[derive(Debug, Clone, Copy)]
pub struct BulkLoadOptions {
    /// Statements applied per committed batch. Each batch commits the
    /// applied rows *and* the manifest watermark in one transaction, so a
    /// crash between batches loses at most one uncommitted batch.
    pub batch_statements: usize,
    /// Skip files (and statement prefixes) the manifest records as
    /// already loaded, provided the file content hash still matches.
    pub resume: bool,
}

impl Default for BulkLoadOptions {
    fn default() -> Self {
        BulkLoadOptions {
            batch_statements: 256,
            resume: false,
        }
    }
}

/// What a resumable bulk load did (see `docs/FAULTS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Row counters for the statements actually applied this run.
    pub stats: LoadStats,
    /// Files (fully or partially) applied this run.
    pub files_loaded: usize,
    /// Files skipped entirely: manifest says done and the hash matches.
    pub files_skipped: usize,
    /// Batches committed this run.
    pub batches_committed: usize,
    /// Statements skipped because a previous run already committed them.
    pub resumed_statements: usize,
    /// Transient I/O retries the engine performed during this load.
    pub retries: u64,
}

/// One `load_manifest` row, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub path: String,
    pub content_hash: i64,
    pub watermark: usize,
    pub done: bool,
}

#[derive(Default)]
struct NameCache {
    applications: HashMap<String, i64>,
    types: HashMap<String, i64>,
    executions: HashMap<String, i64>,
    resources: HashMap<String, i64>,
    metrics: HashMap<String, i64>,
    tools: HashMap<String, i64>,
    /// resource id → (parent id, type id); lets closure maintenance walk
    /// parent chains without touching the database.
    resource_meta: HashMap<i64, (Option<i64>, i64)>,
    /// Ordered resource-id list → focus id: the intern map that stores
    /// each distinct focus once. `None` until the first result is loaded
    /// after open ([`PTDataStore::ensure_foci`]), so opening a store for
    /// reads never pays for it.
    foci: Option<HashMap<Vec<i64>, i64>>,
}

/// First id of the foci a non-primary set — `(parent)`, `(child)`,
/// `(sender)`, `(receiver)` — names first; a primary set's new foci are
/// numbered from 1. A primary set usually names its execution's own
/// resources, so its focus is private to one execution, while the other
/// roles name code or partners that many executions share. Numbering the
/// two apart keeps one execution's primary foci adjacent in `rhf_focus`
/// and `fhr_focus`: a shared focus's links, which grow with every
/// execution that names it, never sit between them, so a narrow query's
/// probes read as many leaves at 10 executions as at 2. Which range a
/// focus is in changes no stored content and no answer.
const SHARED_FOCUS_IDS: i64 = 1 << 40;

/// The id sequence a focus id belongs to (see [`SHARED_FOCUS_IDS`]).
fn focus_seq(shared: bool) -> &'static str {
    if shared {
        "focus.shared"
    } else {
        "focus"
    }
}

#[derive(Default)]
struct IdGen {
    next: HashMap<&'static str, i64>,
}

impl IdGen {
    fn alloc(&mut self, seq: &'static str) -> i64 {
        let e = self.next.entry(seq).or_insert(1);
        let id = *e;
        *e += 1;
        id
    }
}

/// The PerfTrack data store.
///
/// # Threading
///
/// Every public method takes `&self` — including the write paths (loads,
/// deletes, checkpoint), which serialize internally on the storage
/// engine's writer lock. The type is `Send + Sync` (pinned by a
/// compile-time test in `tests/send_sync.rs`), so one store can be
/// shared across threads behind an `Arc`: readers run concurrently,
/// writers queue. Each call that answers a request (a query, `render`,
/// `tree_compare`, export, fsck) holds [`Database::read`] while it reads,
/// so it sees committed data; two calls may see two committed states.
/// `perftrack-server` builds on this contract — see `docs/SERVER.md`.
pub struct PTDataStore {
    db: Database,
    schema: Schema,
    registry: RwLock<TypeRegistry>,
    cache: RwLock<NameCache>,
    ids: Mutex<IdGen>,
}

impl PTDataStore {
    /// An in-memory store with the schema created and base types loaded.
    pub fn in_memory() -> Result<Self> {
        Self::from_db(Database::in_memory())
    }

    /// Open (or create) a persistent store in `dir`.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::from_db(Database::open(dir)?)
    }

    /// Open with explicit engine options (pool size, retry sleep, ...).
    pub fn open_with(dir: &Path, opts: DbOptions) -> Result<Self> {
        Self::from_db(Database::open_with(dir, opts)?)
    }

    /// Open against an explicit [`Vfs`](perftrack_store::Vfs) — the
    /// entry point fault-injection tests use to run a whole PerfTrack
    /// store on [`perftrack_store::FaultVfs`].
    pub fn open_with_vfs(
        dir: &Path,
        opts: DbOptions,
        vfs: &dyn perftrack_store::Vfs,
    ) -> Result<Self> {
        Self::from_db(Database::open_with_vfs(dir, opts, vfs)?)
    }

    fn from_db(db: Database) -> Result<Self> {
        let schema = Schema::create(&db)?;
        let store = PTDataStore {
            db,
            schema,
            registry: RwLock::new(Level::TypeRegistry, TypeRegistry::empty()),
            cache: RwLock::new(Level::NameCache, NameCache::default()),
            ids: Mutex::new(Level::IdGen, IdGen::default()),
        };
        // Seed the Figure 2 base types if absent. The freshness signal is
        // the row count, not table existence: a crash between the schema
        // DDL and this seed commit leaves `focus_framework` present but
        // empty, and the next open must finish the bootstrap. The seed is
        // one transaction, so it is all-or-nothing itself.
        if store.db.row_count(store.schema.focus_framework)? == 0 {
            store.bootstrap_base_types()?;
        }
        store.rebuild_runtime_state()?;
        Ok(store)
    }

    /// Load the Figure 2 base type set through the normal type-extension
    /// interface, exactly as the paper's initialization does.
    fn bootstrap_base_types(&self) -> Result<()> {
        let mut txn = self.db.begin();
        let mut by_path: HashMap<String, i64> = HashMap::new();
        for (i, path) in perftrack_model::types::BASE_HIERARCHIES
            .iter()
            .chain(perftrack_model::types::BASE_SINGLETON_TYPES)
            .enumerate()
        {
            let next_id = i as i64 + 1;
            let parent_id = path.rfind('/').map(|i| by_path[&path[..i]]);
            txn.insert(
                self.schema.focus_framework,
                vec![
                    Value::Int(next_id),
                    Value::Text(path.to_string()),
                    parent_id.map_or(Value::Null, Value::Int),
                ],
            )?;
            by_path.insert(path.to_string(), next_id);
        }
        txn.commit()?;
        Ok(())
    }

    /// Rebuild the in-memory registry, caches, and id counters from the
    /// database contents (called on open).
    fn rebuild_runtime_state(&self) -> Result<()> {
        let mut cache = NameCache::default();
        let mut registry = TypeRegistry::empty();
        let mut max: HashMap<&'static str, i64> = HashMap::new();
        let track = |seq: &'static str, id: i64, max: &mut HashMap<&'static str, i64>| {
            let e = max.entry(seq).or_insert(0);
            *e = (*e).max(id);
        };

        // Types, ordered by depth so parents precede children.
        let mut type_rows: Vec<Row> = self
            .db
            .scan_iter(self.schema.focus_framework)?
            .map(|item| item.map(|(_, r)| r))
            .collect::<std::result::Result<_, _>>()?;
        type_rows.sort_by_key(|r| {
            r[col::focus_framework::TYPE_PATH]
                .as_text()
                .map_or(0, |s| s.split('/').count())
        });
        for r in &type_rows {
            let id = r[col::focus_framework::ID].as_int()?;
            let path = r[col::focus_framework::TYPE_PATH].as_text()?;
            registry.add_or_get(path).map_err(PtError::Model)?;
            cache.types.insert(path.to_string(), id);
            track("focus_framework", id, &mut max);
        }
        for item in self.db.scan_iter(self.schema.application)? {
            let (_, r) = item?;
            if let (Ok(id), Ok(name)) = (
                r[col::application::ID].as_int(),
                r[col::application::NAME].as_text(),
            ) {
                cache.applications.insert(name.to_string(), id);
                track("application", id, &mut max);
            }
        }
        for item in self.db.scan_iter(self.schema.execution)? {
            let (_, r) = item?;
            if let (Ok(id), Ok(name)) = (
                r[col::execution::ID].as_int(),
                r[col::execution::NAME].as_text(),
            ) {
                cache.executions.insert(name.to_string(), id);
                track("execution", id, &mut max);
            }
        }
        for item in self.db.scan_iter(self.schema.resource_item)? {
            let (_, r) = item?;
            if let (Ok(id), Ok(name), Ok(type_id)) = (
                r[col::resource_item::ID].as_int(),
                r[col::resource_item::NAME].as_text(),
                r[col::resource_item::FOCUS_FRAMEWORK_ID].as_int(),
            ) {
                let parent = r[col::resource_item::PARENT_ID].as_int().ok();
                cache.resources.insert(name.to_string(), id);
                cache.resource_meta.insert(id, (parent, type_id));
                track("resource_item", id, &mut max);
            }
        }
        for item in self.db.scan_iter(self.schema.metric)? {
            let (_, r) = item?;
            if let (Ok(id), Ok(name)) =
                (r[col::metric::ID].as_int(), r[col::metric::NAME].as_text())
            {
                cache.metrics.insert(name.to_string(), id);
                track("metric", id, &mut max);
            }
        }
        for item in self.db.scan_iter(self.schema.performance_tool)? {
            let (_, r) = item?;
            if let (Ok(id), Ok(name)) = (
                r[col::performance_tool::ID].as_int(),
                r[col::performance_tool::NAME].as_text(),
            ) {
                cache.tools.insert(name.to_string(), id);
                track("performance_tool", id, &mut max);
            }
        }
        // The two largest tables give their largest ids from the last
        // entry of their id index: one descent each, not a scan.
        if let Some(id) = self.last_id(
            "performance_result_id",
            self.schema.performance_result,
            col::performance_result::ID,
            Bound::Unbounded,
        )? {
            track("performance_result", id, &mut max);
        }
        max.insert(focus_seq(true), SHARED_FOCUS_IDS - 1);
        let shared = [Value::Int(SHARED_FOCUS_IDS)];
        for hi in [Bound::Excluded(shared.as_slice()), Bound::Unbounded] {
            if let Some(id) = self.last_id("focus_id", self.schema.focus, col::focus::ID, hi)? {
                track(focus_seq(id >= SHARED_FOCUS_IDS), id, &mut max);
            }
        }

        let mut ids = self.ids.lock();
        ids.next = max.into_iter().map(|(k, v)| (k, v + 1)).collect();
        drop(ids);
        *self.cache.write() = cache;
        *self.registry.write() = registry;
        Ok(())
    }

    /// The id in column `column` of the `table` row that holds the last
    /// key within `hi` of `index`, a one-column index over that id; `None`
    /// when no key is.
    fn last_id(
        &self,
        index: &str,
        table: TableId,
        column: usize,
        hi: Bound<&[Value]>,
    ) -> Result<Option<i64>> {
        match self.db.index_last(self.db.index_id(index)?, hi)? {
            Some(rowid) => Ok(Some(self.db.get(table, rowid)?[column].as_int()?)),
            None => Ok(None),
        }
    }

    // -- accessors ----------------------------------------------------------

    /// The underlying database (read-side use: benches and reports).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The resolved schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Snapshot of the type registry.
    pub fn registry(&self) -> TypeRegistry {
        self.registry.read().clone()
    }

    /// Approximate on-disk footprint (Table 1's size column).
    pub fn size_bytes(&self) -> Result<u64> {
        Ok(self.db.size_bytes()?)
    }

    /// Start a bulk loader holding one write transaction.
    pub fn begin_load(&self) -> Loader<'_> {
        Loader {
            store: self,
            txn: Some(self.db.begin()),
            registry: self.registry.read().clone(),
            overlay: NameCache::default(),
            staged: Vec::new(),
            stats: LoadStats::default(),
        }
    }

    // -- one-shot convenience wrappers ---------------------------------------

    /// Register an application.
    pub fn add_application(&self, name: &str) -> Result<i64> {
        let mut l = self.begin_load();
        let id = l.ensure_application(name)?;
        l.commit()?;
        Ok(id)
    }

    /// Register a resource type (extension interface).
    pub fn add_resource_type(&self, path: &str) -> Result<i64> {
        let mut l = self.begin_load();
        let id = l.ensure_type(path)?;
        l.commit()?;
        Ok(id)
    }

    /// Register an execution of an application.
    pub fn add_execution(&self, name: &str, application: &str) -> Result<i64> {
        let mut l = self.begin_load();
        let id = l.ensure_execution(name, application)?;
        l.commit()?;
        Ok(id)
    }

    /// Create a resource (parent must already exist for nested names).
    pub fn add_resource(&self, name: &str, type_path: &str) -> Result<i64> {
        let mut l = self.begin_load();
        let id = l.ensure_resource(name, type_path)?;
        l.commit()?;
        Ok(id)
    }

    /// Attach a string attribute to a resource.
    pub fn add_attribute(&self, resource: &str, attr: &str, value: &str) -> Result<()> {
        let mut l = self.begin_load();
        l.add_attribute(resource, attr, value, AttrType::String)?;
        l.commit()?;
        Ok(())
    }

    /// Record a resource constraint (resource-valued attribute).
    pub fn add_constraint(&self, first: &str, second: &str) -> Result<()> {
        let mut l = self.begin_load();
        l.add_constraint(first, second)?;
        l.commit()?;
        Ok(())
    }

    /// Store one performance result.
    pub fn add_performance_result(&self, result: &PerformanceResult) -> Result<i64> {
        let mut l = self.begin_load();
        let id = l.add_performance_result(result)?;
        l.commit()?;
        Ok(id)
    }

    // -- PTdf import/export --------------------------------------------------

    /// Load a parsed PTdf document in a single transaction.
    pub fn load_statements(&self, stmts: &[PtdfStatement]) -> Result<LoadStats> {
        let mut l = self.begin_load();
        for s in stmts {
            l.apply(s)?;
        }
        l.commit()
    }

    /// Parse and load PTdf text.
    pub fn load_ptdf_str(&self, text: &str) -> Result<LoadStats> {
        let stmts = perftrack_ptdf::parse_str(text)?;
        self.load_statements(&stmts)
    }

    /// Parse and load PTdf text at most once per idempotency `token`.
    ///
    /// If a previous load already committed under `token`, nothing is
    /// applied and the recorded counters come back with the second
    /// element `true` ("replayed"). Otherwise the statements and the
    /// `load_token` row commit in one transaction, so after a crash or a
    /// lost response either everything *and* the token are durable or
    /// neither is — a network client may replay the request safely
    /// (the retry-safe write contract in `docs/SERVER.md`). An empty
    /// token means "no dedup" and behaves like [`Self::load_ptdf_str`].
    pub fn load_ptdf_str_dedup(&self, text: &str, token: &str) -> Result<(LoadStats, bool)> {
        if token.is_empty() {
            return Ok((self.load_ptdf_str(text)?, false));
        }
        let stmts = perftrack_ptdf::parse_str(text)?;
        let mut l = self.begin_load();
        // Checked under the writer lock, so a racing duplicate replays.
        if let Some(stats) = self.load_token_entry(token)? {
            l.rollback()?;
            return Ok((stats, true));
        }
        for s in &stmts {
            l.apply(s)?;
        }
        l.set_load_token(token)?;
        let stats = l.commit()?;
        Ok((stats, false))
    }

    /// Load PTdf files through the crash-safe manifest: statements are
    /// applied in bounded batches, and every batch commit also advances
    /// the file's `load_manifest` watermark *in the same transaction*.
    /// Killed at any point and reopened, a `resume: true` run skips
    /// exactly the committed prefix — the final row counts equal an
    /// uninterrupted load's (see `docs/FAULTS.md` for the contract).
    pub fn load_ptdf_files_resumable(
        &self,
        paths: &[std::path::PathBuf],
        opts: &BulkLoadOptions,
    ) -> Result<LoadReport> {
        let retries_before = self.db.metrics().io.retries;
        let mut report = LoadReport::default();
        for path in paths {
            let text = std::fs::read_to_string(path)?;
            self.load_file_resumable(&path.to_string_lossy(), &text, opts, &mut report)?;
        }
        report.retries = self.db.metrics().io.retries - retries_before;
        Ok(report)
    }

    fn load_file_resumable(
        &self,
        key: &str,
        text: &str,
        opts: &BulkLoadOptions,
        report: &mut LoadReport,
    ) -> Result<()> {
        let hash = perftrack_store::wal::crc32(text.as_bytes()) as i64;
        let batch = opts.batch_statements.max(1);
        let mut start = 0usize;
        if let Some(entry) = self.manifest_entry(key)? {
            if opts.resume && entry.content_hash == hash {
                if entry.done {
                    report.files_skipped += 1;
                    return Ok(());
                }
                start = entry.watermark;
                report.resumed_statements += start;
            }
            // Hash mismatch (file edited since) or resume off: reload
            // from the top; the manifest row is rewritten batch by batch.
        }
        let stmts = perftrack_ptdf::parse_str(text)?;
        let total = stmts.len();
        let mut pos = start.min(total);
        report.resumed_statements -= start.saturating_sub(total);
        loop {
            let end = (pos + batch).min(total);
            let mut l = self.begin_load();
            for s in &stmts[pos..end] {
                l.apply(s)?;
            }
            l.set_manifest(key, hash, end as i64, end == total)?;
            let stats = l.commit()?;
            report.stats.merge(&stats);
            report.batches_committed += 1;
            pos = end;
            if pos >= total {
                break;
            }
        }
        report.files_loaded += 1;
        Ok(())
    }

    /// The manifest row for `path`, if a load ever recorded one.
    pub fn manifest_entry(&self, path: &str) -> Result<Option<ManifestEntry>> {
        let idx = self.db.index_id("load_manifest_path")?;
        let rids = self
            .db
            .index_lookup(idx, &[Value::Text(path.to_string())])?;
        match rids.first() {
            Some(&rid) => {
                let row = self.db.get(self.schema.load_manifest, rid)?;
                Ok(Some(decode_manifest(&row)))
            }
            None => Ok(None),
        }
    }

    /// The counters recorded under idempotency `token`, if a load ever
    /// committed with it.
    pub fn load_token_entry(&self, token: &str) -> Result<Option<LoadStats>> {
        let idx = self.db.index_id("load_token_token")?;
        let rids = self
            .db
            .index_lookup(idx, &[Value::Text(token.to_string())])?;
        match rids.first() {
            Some(&rid) => {
                let row = self.db.get(self.schema.load_token, rid)?;
                Ok(Some(decode_load_token(&row)))
            }
            None => Ok(None),
        }
    }

    /// Every manifest row, sorted by path (`pt load` status reporting
    /// and tests).
    pub fn manifest(&self) -> Result<Vec<ManifestEntry>> {
        let mut out = Vec::new();
        for item in self.db.scan_iter(self.schema.load_manifest)? {
            let (_, r) = item?;
            out.push(decode_manifest(&r));
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// True once the engine has entered read-only degraded mode (writes
    /// rejected; see `docs/FAULTS.md`).
    pub fn is_degraded(&self) -> bool {
        self.db.is_degraded()
    }

    /// Export the complete store as PTdf statements (inverse of load).
    pub fn export_ptdf(&self) -> Result<Vec<PtdfStatement>> {
        let _committed = self.db.read();
        let mut out = Vec::new();
        // Types beyond the base set.
        let base: std::collections::HashSet<&str> = perftrack_model::types::BASE_HIERARCHIES
            .iter()
            .chain(perftrack_model::types::BASE_SINGLETON_TYPES)
            .copied()
            .collect();
        let registry = self.registry.read();
        for tp in registry.all() {
            if !base.contains(tp.as_str()) {
                out.push(PtdfStatement::ResourceType {
                    type_path: tp.as_str().to_string(),
                });
            }
        }
        drop(registry);
        // Applications.
        let mut apps: Vec<(i64, String)> = Vec::new();
        for item in self.db.scan_iter(self.schema.application)? {
            let (_, r) = item?;
            apps.push((
                r[col::application::ID].as_int().unwrap_or(0),
                r[col::application::NAME]
                    .as_text()
                    .unwrap_or("")
                    .to_string(),
            ));
        }
        apps.sort();
        let app_by_id: HashMap<i64, String> = apps.iter().cloned().collect();
        for (_, name) in &apps {
            out.push(PtdfStatement::Application { name: name.clone() });
        }
        // Executions.
        let mut execs: Vec<(i64, String, i64)> = Vec::new();
        for item in self.db.scan_iter(self.schema.execution)? {
            let (_, r) = item?;
            execs.push((
                r[col::execution::ID].as_int().unwrap_or(0),
                r[col::execution::NAME].as_text().unwrap_or("").to_string(),
                r[col::execution::APPLICATION_ID].as_int().unwrap_or(0),
            ));
        }
        execs.sort();
        let exec_by_id: HashMap<i64, String> =
            execs.iter().map(|(i, n, _)| (*i, n.clone())).collect();
        for (_, name, app_id) in &execs {
            out.push(PtdfStatement::Execution {
                name: name.clone(),
                application: app_by_id.get(app_id).cloned().unwrap_or_default(),
            });
        }
        // Resources, parents before children (sort by name depth then name).
        let mut resources: Vec<ResourceRecord> = Vec::new();
        for item in self.db.scan_iter(self.schema.resource_item)? {
            let (_, r) = item?;
            resources.push(decode_resource(&r));
        }
        resources.sort_by(|a, b| {
            a.name
                .matches('/')
                .count()
                .cmp(&b.name.matches('/').count())
                .then_with(|| a.name.cmp(&b.name))
        });
        let type_by_id: HashMap<i64, String> = {
            let cache = self.cache.read();
            cache.types.iter().map(|(k, v)| (*v, k.clone())).collect()
        };
        let res_by_id: HashMap<i64, String> =
            resources.iter().map(|r| (r.id, r.name.clone())).collect();
        for r in &resources {
            out.push(PtdfStatement::Resource {
                name: r.name.clone(),
                type_path: type_by_id.get(&r.type_id).cloned().unwrap_or_default(),
                execution: None,
            });
        }
        // Attributes.
        for item in self.db.scan_iter(self.schema.resource_attribute)? {
            let (_, r) = item?;
            let rid = r[col::resource_attribute::RESOURCE_ID]
                .as_int()
                .unwrap_or(0);
            if let Some(name) = res_by_id.get(&rid) {
                out.push(PtdfStatement::ResourceAttribute {
                    resource: name.clone(),
                    attribute: r[col::resource_attribute::NAME]
                        .as_text()
                        .unwrap_or("")
                        .to_string(),
                    value: r[col::resource_attribute::VALUE]
                        .as_text()
                        .unwrap_or("")
                        .to_string(),
                    attr_type: AttrType::String,
                });
            }
        }
        // Constraints.
        for item in self.db.scan_iter(self.schema.resource_constraint)? {
            let (_, r) = item?;
            let a = r[col::resource_constraint::RESOURCE1_ID]
                .as_int()
                .unwrap_or(0);
            let b = r[col::resource_constraint::RESOURCE2_ID]
                .as_int()
                .unwrap_or(0);
            if let (Some(an), Some(bn)) = (res_by_id.get(&a), res_by_id.get(&b)) {
                out.push(PtdfStatement::ResourceConstraint {
                    first: an.clone(),
                    second: bn.clone(),
                });
            }
        }
        // Performance results with their foci.
        let metric_by_id: HashMap<i64, String> = {
            let cache = self.cache.read();
            cache.metrics.iter().map(|(k, v)| (*v, k.clone())).collect()
        };
        let tool_by_id: HashMap<i64, String> = {
            let cache = self.cache.read();
            cache.tools.iter().map(|(k, v)| (*v, k.clone())).collect()
        };
        // Each focus's resources, in stored order; then each result's
        // sets, in link order. A link to a missing focus, or a focus
        // naming a missing resource, fails the export rather than writing
        // PTdf that cannot be loaded back.
        let mut focus_resources: HashMap<i64, Vec<String>> = HashMap::new();
        for (fid, rids) in self.focus_lists()? {
            let names = rids
                .iter()
                .map(|rid| {
                    res_by_id.get(rid).cloned().ok_or_else(|| {
                        PtError::NotFound(format!("resource {rid} named by focus {fid}"))
                    })
                })
                .collect::<Result<Vec<String>>>()?;
            focus_resources.insert(fid, names);
        }
        let mut result_sets: HashMap<i64, Vec<perftrack_ptdf::PtdfResourceSet>> = HashMap::new();
        for item in self.db.scan_iter(self.schema.result_has_focus)? {
            let (_, r) = item?;
            let result_id = r[col::result_has_focus::RESULT_ID].as_int()?;
            let fid = r[col::result_has_focus::FOCUS_ID].as_int()?;
            let resources = focus_resources.get(&fid).ok_or_else(|| {
                PtError::NotFound(format!("focus {fid} linked by result {result_id}"))
            })?;
            result_sets
                .entry(result_id)
                .or_default()
                .push(perftrack_ptdf::PtdfResourceSet {
                    resources: resources.clone(),
                    set_type: r[col::result_has_focus::FOCUS_TYPE].as_text()?.to_string(),
                });
        }
        // Stream the result rows out of the pool, taking ownership of each
        // decoded row instead of cloning it out of a materialized scan.
        let mut result_rows: Vec<Row> = self
            .db
            .scan_iter(self.schema.performance_result)?
            .map(|item| item.map(|(_, row)| row))
            .collect::<perftrack_store::StoreResult<_>>()?;
        result_rows.sort_by_key(|r| r[col::performance_result::ID].as_int().unwrap_or(0));
        for r in result_rows {
            let id = r[col::performance_result::ID].as_int()?;
            out.push(PtdfStatement::PerfResult {
                execution: exec_by_id
                    .get(&r[col::performance_result::EXECUTION_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                resource_sets: result_sets.remove(&id).unwrap_or_default(),
                tool: tool_by_id
                    .get(&r[col::performance_result::TOOL_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                metric: metric_by_id
                    .get(&r[col::performance_result::METRIC_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                value: r[col::performance_result::VALUE].as_real()?,
                units: r[col::performance_result::UNITS].as_text()?.to_string(),
            });
        }
        Ok(out)
    }

    // -- lookups -------------------------------------------------------------

    /// Resource id by full name.
    pub fn resource_id(&self, name: &str) -> Option<i64> {
        self.cache.read().resources.get(name).copied()
    }

    /// Resource record by full name.
    pub fn resource_by_name(&self, name: &str) -> Result<Option<ResourceRecord>> {
        let idx = self.db.index_id("resource_item_name")?;
        let rids = self
            .db
            .index_lookup(idx, &[Value::Text(name.to_string())])?;
        match rids.first() {
            Some(&rid) => {
                let row = self.db.get(self.schema.resource_item, rid)?;
                Ok(Some(decode_resource(&row)))
            }
            None => Ok(None),
        }
    }

    /// Resource record by id.
    pub fn resource_by_id(&self, id: i64) -> Result<Option<ResourceRecord>> {
        let idx = self.db.index_id("resource_item_id")?;
        let rids = self.db.index_lookup(idx, &[Value::Int(id)])?;
        match rids.first() {
            Some(&rid) => {
                let row = self.db.get(self.schema.resource_item, rid)?;
                Ok(Some(decode_resource(&row)))
            }
            None => Ok(None),
        }
    }

    /// Attributes of a resource as `(name, value, attr_type)` tuples.
    pub fn attributes_of(&self, resource_id: i64) -> Result<Vec<(String, String, String)>> {
        let idx = self.db.index_id("resource_attribute_rid")?;
        let rids = self.db.index_lookup(idx, &[Value::Int(resource_id)])?;
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            let row = self.db.get(self.schema.resource_attribute, rid)?;
            out.push((
                row[col::resource_attribute::NAME].as_text()?.to_string(),
                row[col::resource_attribute::VALUE].as_text()?.to_string(),
                row[col::resource_attribute::ATTR_TYPE]
                    .as_text()?
                    .to_string(),
            ));
        }
        out.sort();
        Ok(out)
    }

    /// Type id by path.
    pub fn type_id(&self, path: &str) -> Option<i64> {
        self.cache.read().types.get(path).copied()
    }

    /// Execution id by name.
    pub fn execution_id(&self, name: &str) -> Option<i64> {
        self.cache.read().executions.get(name).copied()
    }

    /// Metric id by name.
    pub fn metric_id(&self, name: &str) -> Option<i64> {
        self.cache.read().metrics.get(name).copied()
    }

    /// All executions as `(id, name)`.
    pub fn executions(&self) -> Vec<(i64, String)> {
        let cache = self.cache.read();
        let mut v: Vec<(i64, String)> = cache
            .executions
            .iter()
            .map(|(n, i)| (*i, n.clone()))
            .collect();
        v.sort();
        v
    }

    /// All metric names.
    pub fn metrics(&self) -> Vec<String> {
        let cache = self.cache.read();
        let mut v: Vec<String> = cache.metrics.keys().cloned().collect();
        v.sort();
        v
    }

    /// Total number of stored performance results.
    pub fn result_count(&self) -> Result<usize> {
        Ok(self.db.row_count(self.schema.performance_result)?)
    }

    /// Total number of stored resources.
    pub fn resource_count(&self) -> Result<usize> {
        Ok(self.db.row_count(self.schema.resource_item)?)
    }

    /// Force a checkpoint (flush + catalog + WAL truncate).
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.db.checkpoint()?)
    }

    /// Whole-store integrity verification: the storage engine's structural
    /// fsck (pages, B+trees, WAL, catalog) plus PerfTrack's logical checks
    /// (closure-table consistency, referential integrity). `deep` adds the
    /// engine's index-entry ↔ row bijection checks. See `docs/FSCK.md`.
    ///
    /// Holds the engine's read guard for each pass — do not call while a
    /// [`Txn`](perftrack_store::Txn) or [`Loader`] is open on this thread.
    pub fn fsck(&self, deep: bool) -> Result<crate::fsck::FsckReport> {
        crate::fsck::verify_store(self, deep)
    }

    /// Delete an execution and everything hanging off it: its performance
    /// results, their `result_has_focus` links, the foci no remaining link
    /// references (with their resource rows), and the execution row
    /// itself. Foci another execution still links to stay, and resources
    /// are left in place (they are shared across executions by design).
    /// Runs in one transaction; returns `(results, foci, links)` removed.
    pub fn delete_execution(&self, name: &str) -> Result<(usize, usize, usize)> {
        let exec_id = self
            .cache
            .read()
            .executions
            .get(name)
            .copied()
            .ok_or_else(|| PtError::NotFound(format!("execution {name}")))?;
        let mut txn = self.db.begin();
        let mut n_results = 0usize;
        let mut n_links = 0usize;
        // Results of this execution and their links.
        let result_idx = self.db.index_id("performance_result_exec")?;
        let link_idx = self.db.index_id("rhf_result")?;
        let mut touched: Vec<i64> = Vec::new();
        for result_rowid in self.db.index_lookup(result_idx, &[Value::Int(exec_id)])? {
            let result_row = self.db.get(self.schema.performance_result, result_rowid)?;
            let result_id = result_row[col::performance_result::ID].as_int()?;
            for link_rowid in self.db.index_lookup(link_idx, &[Value::Int(result_id)])? {
                let link = self.db.get(self.schema.result_has_focus, link_rowid)?;
                touched.push(link[col::result_has_focus::FOCUS_ID].as_int()?);
                txn.delete(self.schema.result_has_focus, link_rowid)?;
                n_links += 1;
            }
            txn.delete(self.schema.performance_result, result_rowid)?;
            n_results += 1;
        }
        // Foci that no link references any more. The transaction's deletes
        // are already in the indexes, so an empty `rhf_focus` probe means
        // no other execution shares the focus.
        touched.sort_unstable();
        touched.dedup();
        let mut orphaned: Vec<i64> = Vec::new();
        for (&focus_id, links) in touched.iter().zip(
            self.db
                .index_lookup_many(self.db.index_id("rhf_focus")?, &int_keys(&touched))?,
        ) {
            if links.is_empty() {
                orphaned.push(focus_id);
            }
        }
        let keys = int_keys(&orphaned);
        for rowids in self
            .db
            .index_lookup_many(self.db.index_id("fhr_focus")?, &keys)?
        {
            for rowid in rowids {
                txn.delete(self.schema.focus_has_resource, rowid)?;
            }
        }
        for rowids in self
            .db
            .index_lookup_many(self.db.index_id("focus_id")?, &keys)?
        {
            for rowid in rowids {
                txn.delete(self.schema.focus, rowid)?;
            }
        }
        // The execution row itself.
        let exec_idx = self.db.index_id("execution_id")?;
        for rowid in self.db.index_lookup(exec_idx, &[Value::Int(exec_id)])? {
            txn.delete(self.schema.execution, rowid)?;
        }
        // The cache changes under its lock taken before the commit: the
        // transaction holds the writer lock until `commit` returns, so the
        // next writer cannot look up the deleted execution or intern onto
        // a deleted focus, and a failed commit leaves the cache as it was.
        let mut cache = self.cache.write();
        txn.commit()?;
        cache.executions.remove(name);
        if let Some(foci) = cache.foci.as_mut() {
            foci.retain(|_, id| orphaned.binary_search(id).is_err());
        }
        drop(cache);
        // Reclaim fragmented page space in the touched tables.
        self.db.compact_table(self.schema.performance_result)?;
        self.db.compact_table(self.schema.result_has_focus)?;
        self.db.compact_table(self.schema.focus)?;
        self.db.compact_table(self.schema.focus_has_resource)?;
        Ok((n_results, orphaned.len(), n_links))
    }

    /// Every focus's resource ids, in stored order: one pass over `focus`
    /// (a focus may name no resource) and one over `focus_has_resource`,
    /// whose rows of one focus were written together in PTdf order.
    pub(crate) fn focus_lists(&self) -> Result<HashMap<i64, Vec<i64>>> {
        let mut lists: HashMap<i64, Vec<i64>> =
            HashMap::with_capacity(self.db.index_len(self.db.index_id("focus_id")?)?);
        for item in self.db.scan_iter(self.schema.focus)? {
            lists.insert(item?.1[col::focus::ID].as_int()?, Vec::new());
        }
        for item in self.db.scan_iter(self.schema.focus_has_resource)? {
            let (_, r) = item?;
            if let Some(list) = lists.get_mut(&r[col::focus_has_resource::FOCUS_ID].as_int()?) {
                list.push(r[col::focus_has_resource::RESOURCE_ID].as_int()?);
            }
        }
        Ok(lists)
    }

    /// Build the focus intern map if this open has not yet. Called by the
    /// loader, which holds the writer lock, before it interns its first
    /// focus.
    fn ensure_foci(&self) -> Result<()> {
        if self.cache.read().foci.is_some() {
            return Ok(());
        }
        let foci = self
            .focus_lists()?
            .into_iter()
            .map(|(id, list)| (list, id))
            .collect();
        self.cache.write().foci.get_or_insert(foci);
        Ok(())
    }
}

/// One single-column integer key per id, for a batched index probe.
pub(crate) fn int_keys(ids: &[i64]) -> Vec<Vec<Value>> {
    ids.iter().map(|&id| vec![Value::Int(id)]).collect()
}

fn decode_manifest(row: &Row) -> ManifestEntry {
    ManifestEntry {
        path: row[col::load_manifest::PATH]
            .as_text()
            .unwrap_or("")
            .to_string(),
        content_hash: row[col::load_manifest::CONTENT_HASH].as_int().unwrap_or(0),
        watermark: row[col::load_manifest::WATERMARK].as_int().unwrap_or(0) as usize,
        done: row[col::load_manifest::DONE].as_int().unwrap_or(0) != 0,
    }
}

fn decode_load_token(row: &Row) -> LoadStats {
    let int = |i: usize| row.get(i).and_then(|v| v.as_int().ok()).unwrap_or(0) as usize;
    LoadStats {
        statements: int(col::load_token::STATEMENTS),
        applications: int(col::load_token::APPLICATIONS),
        resource_types: int(col::load_token::RESOURCE_TYPES),
        executions: int(col::load_token::EXECUTIONS),
        resources: int(col::load_token::RESOURCES),
        attributes: int(col::load_token::ATTRIBUTES),
        constraints: int(col::load_token::CONSTRAINTS),
        results: int(col::load_token::RESULTS),
    }
}

pub(crate) fn decode_resource(row: &Row) -> ResourceRecord {
    ResourceRecord {
        id: row[col::resource_item::ID].as_int().unwrap_or(0),
        name: row[col::resource_item::NAME]
            .as_text()
            .unwrap_or("")
            .to_string(),
        base_name: row[col::resource_item::BASE_NAME]
            .as_text()
            .unwrap_or("")
            .to_string(),
        type_id: row[col::resource_item::FOCUS_FRAMEWORK_ID]
            .as_int()
            .unwrap_or(0),
        parent_id: row[col::resource_item::PARENT_ID].as_int().ok(),
    }
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// The scalar fields of one performance result, borrowed from a
/// [`PerformanceResult`] or a `PerfResult` statement.
struct ResultFields<'a> {
    execution: &'a str,
    metric: &'a str,
    tool: &'a str,
    value: f64,
    units: &'a str,
}

/// Bulk loader holding one write transaction. Name→id caches added during
/// the load live in an overlay that is merged into the store's global
/// cache only on commit, so a rolled-back load leaves no stale entries.
///
/// The loader resolves names and allocates ids as it applies statements,
/// but stages the rows: each goes to its table's list, and
/// [`Loader::commit`] writes each list with one
/// [`insert_many`](perftrack_store::Txn::insert_many). A store error such
/// as `UniqueViolation` or a degraded store's `ReadOnly` therefore
/// surfaces at the commit, with the same rollback. Nothing in a load reads
/// back the rows it staged: the overlay answers every name and id.
pub struct Loader<'s> {
    store: &'s PTDataStore,
    txn: Option<perftrack_store::Txn<'s>>,
    registry: TypeRegistry,
    overlay: NameCache,
    /// Rows not yet written, indexed by table id.
    staged: Vec<Vec<Row>>,
    stats: LoadStats,
}

impl<'s> Loader<'s> {
    fn txn(&mut self) -> &mut perftrack_store::Txn<'s> {
        self.txn.as_mut().expect("loader already finished")
    }

    /// Queue `row` for `table` until [`Loader::commit`].
    fn stage(&mut self, table: TableId, row: Row) {
        let i = table.0 as usize;
        if self.staged.len() <= i {
            self.staged.resize_with(i + 1, Vec::new);
        }
        if let Some(rows) = self.staged.get_mut(i) {
            rows.push(row);
        }
    }

    fn lookup(&self, pick: impl Fn(&NameCache) -> Option<i64>) -> Option<i64> {
        pick(&self.overlay).or_else(|| pick(&self.store.cache.read()))
    }

    /// Apply one PTdf statement.
    pub fn apply(&mut self, stmt: &PtdfStatement) -> Result<()> {
        self.stats.statements += 1;
        match stmt {
            PtdfStatement::Application { name } => {
                self.ensure_application(name)?;
            }
            PtdfStatement::ResourceType { type_path } => {
                self.ensure_type(type_path)?;
            }
            PtdfStatement::Execution { name, application } => {
                self.ensure_execution(name, application)?;
            }
            PtdfStatement::Resource {
                name, type_path, ..
            } => {
                self.ensure_resource(name, type_path)?;
            }
            PtdfStatement::ResourceAttribute {
                resource,
                attribute,
                value,
                attr_type,
            } => {
                if *attr_type == AttrType::Resource {
                    self.add_constraint_named(resource, value, attribute)?;
                } else {
                    self.add_attribute(resource, attribute, value, *attr_type)?;
                }
            }
            PtdfStatement::PerfResult {
                execution,
                resource_sets,
                tool,
                metric,
                value,
                units,
            } => {
                let mut unknown = None;
                let mut sets = Vec::with_capacity(resource_sets.len());
                for set in resource_sets {
                    let role = ContextRole::parse(&set.set_type).ok_or_else(|| {
                        PtError::Invalid(format!("bad resource set type {:?}", set.set_type))
                    })?;
                    let names = set.resources.iter().map(String::as_str);
                    sets.push((role, self.resource_ids(names, &mut unknown)?));
                }
                let fields = ResultFields {
                    execution,
                    metric,
                    tool,
                    value: *value,
                    units,
                };
                self.insert_result(&fields, sets, unknown)?;
            }
            PtdfStatement::ResourceConstraint { first, second } => {
                self.add_constraint(first, second)?;
            }
        }
        Ok(())
    }

    /// Intern an application by name.
    pub fn ensure_application(&mut self, name: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.applications.get(name).copied()) {
            return Ok(id);
        }
        let id = self.store.ids.lock().alloc("application");
        let table = self.store.schema.application;
        self.stage(table, vec![Value::Int(id), Value::Text(name.to_string())]);
        self.overlay.applications.insert(name.to_string(), id);
        self.stats.applications += 1;
        Ok(id)
    }

    /// Register a resource type; parents must exist (base set is
    /// preloaded).
    pub fn ensure_type(&mut self, path: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.types.get(path).copied()) {
            return Ok(id);
        }
        self.registry.add(path).map_err(PtError::Model)?;
        let parent_id = match path.rfind('/') {
            Some(i) => Some(
                self.lookup(|c| c.types.get(&path[..i]).copied())
                    .ok_or_else(|| PtError::Model(ModelError::UnknownParentType(path.into())))?,
            ),
            None => None,
        };
        let id = self.store.ids.lock().alloc("focus_framework");
        let table = self.store.schema.focus_framework;
        self.stage(
            table,
            vec![
                Value::Int(id),
                Value::Text(path.to_string()),
                parent_id.map_or(Value::Null, Value::Int),
            ],
        );
        self.overlay.types.insert(path.to_string(), id);
        self.stats.resource_types += 1;
        Ok(id)
    }

    /// Intern an execution (creating its application if needed).
    pub fn ensure_execution(&mut self, name: &str, application: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.executions.get(name).copied()) {
            return Ok(id);
        }
        let app_id = self.ensure_application(application)?;
        let id = self.store.ids.lock().alloc("execution");
        let table = self.store.schema.execution;
        self.stage(
            table,
            vec![
                Value::Int(id),
                Value::Text(name.to_string()),
                Value::Int(app_id),
            ],
        );
        self.overlay.executions.insert(name.to_string(), id);
        self.stats.executions += 1;
        Ok(id)
    }

    /// Create (or return) a resource, enforcing the model rules and
    /// maintaining the `resource_has_ancestor` closure table.
    pub fn ensure_resource(&mut self, name: &str, type_path: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.resources.get(name).copied()) {
            // Type agreement check for idempotent re-adds.
            let type_id = self
                .lookup(|c| c.types.get(type_path).copied())
                .ok_or_else(|| PtError::Model(ModelError::UnknownType(type_path.into())))?;
            let meta = self
                .lookup_meta(id)
                .ok_or_else(|| PtError::Invalid(format!("resource {name} missing meta")))?;
            if meta.1 != type_id {
                return Err(PtError::Model(ModelError::TypeMismatch {
                    resource: name.to_string(),
                    detail: format!("exists with a different type than {type_path}"),
                }));
            }
            return Ok(id);
        }
        let rn = ResourceName::new(name).map_err(PtError::Model)?;
        let type_id = self
            .lookup(|c| c.types.get(type_path).copied())
            .ok_or_else(|| PtError::Model(ModelError::UnknownType(type_path.into())))?;
        // Validate hierarchy agreement using the registry.
        let tp = self.registry.get(type_path).map_err(PtError::Model)?;
        let parent_id = match rn.parent() {
            Some(parent_name) => {
                let pid = self
                    .lookup(|c| c.resources.get(parent_name.as_str()).copied())
                    .ok_or_else(|| {
                        PtError::Model(ModelError::UnknownResource(
                            parent_name.as_str().to_string(),
                        ))
                    })?;
                let (_, parent_type_id) = self
                    .lookup_meta(pid)
                    .ok_or_else(|| PtError::Invalid("missing parent meta".into()))?;
                let expected = tp.parent().ok_or_else(|| {
                    PtError::Model(ModelError::TypeMismatch {
                        resource: name.to_string(),
                        detail: format!("top-level type {type_path} cannot name a nested resource"),
                    })
                })?;
                let expected_id = self
                    .lookup(|c| c.types.get(expected.as_str()).copied())
                    .ok_or_else(|| PtError::Model(ModelError::UnknownType(expected.to_string())))?;
                if parent_type_id != expected_id {
                    return Err(PtError::Model(ModelError::TypeMismatch {
                        resource: name.to_string(),
                        detail: format!("parent type does not match {expected}"),
                    }));
                }
                Some(pid)
            }
            None => {
                if tp.depth() != 1 {
                    return Err(PtError::Model(ModelError::TypeMismatch {
                        resource: name.to_string(),
                        detail: format!("nested type {type_path} requires a parent resource"),
                    }));
                }
                None
            }
        };
        let id = self.store.ids.lock().alloc("resource_item");
        let table = self.store.schema.resource_item;
        self.stage(
            table,
            vec![
                Value::Int(id),
                Value::Text(name.to_string()),
                Value::Text(rn.base_name().to_string()),
                Value::Int(type_id),
                parent_id.map_or(Value::Null, Value::Int),
            ],
        );
        // Closure-table maintenance: walk the parent chain through caches,
        // one `resource_has_ancestor` row per ancestor.
        let rha = self.store.schema.resource_has_ancestor;
        let mut cur = parent_id;
        while let Some(a) = cur {
            self.stage(rha, vec![Value::Int(id), Value::Int(a)]);
            cur = self.lookup_meta(a).and_then(|(p, _)| p);
        }
        self.overlay.resources.insert(name.to_string(), id);
        self.overlay.resource_meta.insert(id, (parent_id, type_id));
        self.stats.resources += 1;
        Ok(id)
    }

    fn lookup_meta(&self, id: i64) -> Option<(Option<i64>, i64)> {
        self.overlay
            .resource_meta
            .get(&id)
            .copied()
            .or_else(|| self.store.cache.read().resource_meta.get(&id).copied())
    }

    /// Attach a string attribute to a resource.
    pub fn add_attribute(
        &mut self,
        resource: &str,
        attr: &str,
        value: &str,
        attr_type: AttrType,
    ) -> Result<()> {
        let rid = self
            .lookup(|c| c.resources.get(resource).copied())
            .ok_or_else(|| PtError::Model(ModelError::UnknownResource(resource.into())))?;
        let table = self.store.schema.resource_attribute;
        self.stage(
            table,
            vec![
                Value::Int(rid),
                Value::Text(attr.to_string()),
                Value::Text(value.to_string()),
                Value::Text(attr_type.keyword().to_string()),
            ],
        );
        self.stats.attributes += 1;
        Ok(())
    }

    /// Record a resource constraint between two existing resources.
    pub fn add_constraint(&mut self, first: &str, second: &str) -> Result<()> {
        self.add_constraint_named(first, second, "")
    }

    fn add_constraint_named(&mut self, first: &str, second: &str, attr: &str) -> Result<()> {
        let a = self
            .lookup(|c| c.resources.get(first).copied())
            .ok_or_else(|| PtError::Model(ModelError::UnknownResource(first.into())))?;
        let b = self
            .lookup(|c| c.resources.get(second).copied())
            .ok_or_else(|| PtError::Model(ModelError::UnknownResource(second.into())))?;
        let table = self.store.schema.resource_constraint;
        self.stage(
            table,
            vec![Value::Int(a), Value::Int(b), Value::Text(attr.to_string())],
        );
        self.stats.constraints += 1;
        Ok(())
    }

    fn ensure_metric(&mut self, name: &str) -> i64 {
        if let Some(id) = self.lookup(|c| c.metrics.get(name).copied()) {
            return id;
        }
        let id = self.store.ids.lock().alloc("metric");
        let table = self.store.schema.metric;
        self.stage(table, vec![Value::Int(id), Value::Text(name.to_string())]);
        self.overlay.metrics.insert(name.to_string(), id);
        id
    }

    fn ensure_tool(&mut self, name: &str) -> i64 {
        if let Some(id) = self.lookup(|c| c.tools.get(name).copied()) {
            return id;
        }
        let id = self.store.ids.lock().alloc("performance_tool");
        let table = self.store.schema.performance_tool;
        self.stage(table, vec![Value::Int(id), Value::Text(name.to_string())]);
        self.overlay.tools.insert(name.to_string(), id);
        id
    }

    /// Store one performance result (execution and all context resources
    /// must already exist).
    pub fn add_performance_result(&mut self, result: &PerformanceResult) -> Result<i64> {
        let mut unknown = None;
        let mut sets = Vec::with_capacity(result.resource_sets.len());
        for set in &result.resource_sets {
            let names = set.resources.iter().map(ResourceName::as_str);
            sets.push((set.role, self.resource_ids(names, &mut unknown)?));
        }
        let fields = ResultFields {
            execution: &result.execution,
            metric: &result.metric,
            tool: &result.tool,
            value: result.value,
            units: &result.units,
        };
        self.insert_result(&fields, sets, unknown)
    }

    /// The cached ids of `names`, in order. A name no resource has is
    /// checked to be well formed here, so a malformed name fails before
    /// any other fault of its result; a cached name was checked when its
    /// resource was created. The first such name is kept in `unknown`
    /// and its id left out.
    fn resource_ids<'n>(
        &self,
        names: impl ExactSizeIterator<Item = &'n str>,
        unknown: &mut Option<&'n str>,
    ) -> Result<Vec<i64>> {
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            match self.lookup(|c| c.resources.get(name).copied()) {
                Some(id) => ids.push(id),
                None => {
                    ResourceName::new(name).map_err(PtError::Model)?;
                    unknown.get_or_insert(name);
                }
            }
        }
        Ok(ids)
    }

    /// Insert one result whose context resources [`Self::resource_ids`]
    /// resolved into `sets`. Faults are reported in this order: no
    /// resource set, an unknown execution, then the first `unknown`
    /// resource; every resource is resolved before anything is written, so
    /// a failure leaves no partial foci.
    fn insert_result(
        &mut self,
        result: &ResultFields<'_>,
        sets: Vec<(ContextRole, Vec<i64>)>,
        unknown: Option<&str>,
    ) -> Result<i64> {
        if sets.is_empty() {
            return Err(PtError::Invalid(
                "performance result needs at least one resource set".into(),
            ));
        }
        let exec_id = self
            .lookup(|c| c.executions.get(result.execution).copied())
            .ok_or_else(|| PtError::NotFound(format!("execution {}", result.execution)))?;
        let metric_id = self.ensure_metric(result.metric);
        let tool_id = self.ensure_tool(result.tool);
        if let Some(name) = unknown {
            return Err(PtError::Model(ModelError::UnknownResource(
                name.to_string(),
            )));
        }
        let id = self.store.ids.lock().alloc("performance_result");
        let table = self.store.schema.performance_result;
        self.stage(
            table,
            vec![
                Value::Int(id),
                Value::Int(exec_id),
                Value::Int(metric_id),
                Value::Int(tool_id),
                Value::Real(result.value),
                Value::Text(result.units.to_string()),
            ],
        );
        let links = self.store.schema.result_has_focus;
        for (role, rids) in sets {
            let focus_id = self.intern_focus(rids, role != ContextRole::Primary)?;
            self.stage(
                links,
                vec![
                    Value::Int(id),
                    Value::Int(focus_id),
                    Value::Text(role.name().to_string()),
                ],
            );
        }
        self.stats.results += 1;
        Ok(id)
    }

    /// The id of the focus naming exactly `rids`, in this order: an
    /// existing one, or a new `focus` row and its `focus_has_resource`
    /// rows, remembered in the overlay until commit. A new focus is
    /// numbered in the range of the role naming it (see
    /// [`SHARED_FOCUS_IDS`]).
    fn intern_focus(&mut self, rids: Vec<i64>, shared: bool) -> Result<i64> {
        if self.overlay.foci.is_none() {
            self.store.ensure_foci()?;
            self.overlay.foci = Some(HashMap::new());
        }
        let known = |c: &NameCache| c.foci.as_ref()?.get(rids.as_slice()).copied();
        if let Some(id) = self.lookup(known) {
            return Ok(id);
        }
        let focus_id = self.store.ids.lock().alloc(focus_seq(shared));
        let (focus, fhr) = (
            self.store.schema.focus,
            self.store.schema.focus_has_resource,
        );
        self.stage(focus, vec![Value::Int(focus_id)]);
        for &rid in &rids {
            self.stage(fhr, vec![Value::Int(focus_id), Value::Int(rid)]);
        }
        self.overlay
            .foci
            .get_or_insert_with(HashMap::new)
            .insert(rids, focus_id);
        Ok(focus_id)
    }

    /// Record (or advance) the manifest row for `path` inside this
    /// load's transaction, so the watermark becomes durable atomically
    /// with the rows it covers.
    pub fn set_manifest(
        &mut self,
        path: &str,
        hash: i64,
        watermark: i64,
        done: bool,
    ) -> Result<()> {
        let table = self.store.schema.load_manifest;
        let idx = self.store.db.index_id("load_manifest_path")?;
        let existing = self
            .store
            .db
            .index_lookup(idx, &[Value::Text(path.to_string())])?;
        let row = vec![
            Value::Text(path.to_string()),
            Value::Int(hash),
            Value::Int(watermark),
            Value::Int(i64::from(done)),
        ];
        match existing.first() {
            Some(&rid) => self.txn().update(table, rid, row)?,
            None => {
                self.txn().insert(table, row)?;
            }
        }
        Ok(())
    }

    /// Record this load's accumulated counters under idempotency
    /// `token` inside the load's transaction — the network-load analog
    /// of [`Loader::set_manifest`]. The unique `load_token_token` index
    /// turns a second write of a token into a typed `UniqueViolation`;
    /// [`PTDataStore::load_ptdf_str_dedup`] checks first, in the same txn.
    pub fn set_load_token(&mut self, token: &str) -> Result<()> {
        let table = self.store.schema.load_token;
        let s = self.stats;
        self.txn().insert(
            table,
            vec![
                Value::Text(token.to_string()),
                Value::Int(s.statements as i64),
                Value::Int(s.applications as i64),
                Value::Int(s.resource_types as i64),
                Value::Int(s.executions as i64),
                Value::Int(s.resources as i64),
                Value::Int(s.attributes as i64),
                Value::Int(s.constraints as i64),
                Value::Int(s.results as i64),
            ],
        )?;
        Ok(())
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LoadStats {
        self.stats
    }

    /// Commit the load: write the staged rows, table by table in table id
    /// order, then commit the transaction, merge the caches into the store
    /// and return the stats. A failed write drops the transaction, which
    /// rolls the whole load back.
    pub fn commit(mut self) -> Result<LoadStats> {
        let mut txn = self.txn.take().expect("loader already finished");
        for (table, rows) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            if !rows.is_empty() {
                txn.insert_many(TableId(table as u32), rows)?;
            }
        }
        // Publish under the cache and registry locks taken before the
        // commit, as `delete_execution` does: the next writer and every
        // reader that sees this load's rows see its names, foci and types,
        // and a failed commit publishes nothing.
        let mut cache = self.store.cache.write();
        let mut registry = self.store.registry.write();
        txn.commit()?;
        cache.applications.extend(self.overlay.applications.drain());
        cache.types.extend(self.overlay.types.drain());
        cache.executions.extend(self.overlay.executions.drain());
        cache.resources.extend(self.overlay.resources.drain());
        cache.metrics.extend(self.overlay.metrics.drain());
        cache.tools.extend(self.overlay.tools.drain());
        cache
            .resource_meta
            .extend(self.overlay.resource_meta.drain());
        if let (Some(foci), Some(new)) = (cache.foci.as_mut(), self.overlay.foci.take()) {
            foci.extend(new);
        }
        *registry = std::mem::replace(&mut self.registry, TypeRegistry::empty());
        Ok(self.stats)
    }

    /// Abandon the load; the transaction rolls back and caches are
    /// untouched.
    pub fn rollback(mut self) -> Result<()> {
        if let Some(txn) = self.txn.take() {
            txn.rollback()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ptdf() -> &'static str {
        r#"
Application IRS
Execution irs-mcr-008 IRS
Resource /MCRGrid grid
Resource /MCRGrid/MCR grid/machine
Resource /MCRGrid/MCR/batch grid/machine/partition
Resource /MCRGrid/MCR/batch/n1 grid/machine/partition/node
Resource /MCRGrid/MCR/batch/n1/p0 grid/machine/partition/node/processor
ResourceAttribute /MCRGrid/MCR/batch/n1/p0 vendor Intel string
ResourceAttribute /MCRGrid/MCR/batch/n1/p0 "clock MHz" 2400 string
Resource /irs-run execution irs-mcr-008
Resource /irs-run/process0 execution/process
ResourceAttribute /irs-run/process0 node /MCRGrid/MCR/batch/n1 resource
PerfResult irs-mcr-008 "/irs-run/process0,/MCRGrid/MCR/batch/n1/p0(primary)" IRS "CPU time" 42.5 seconds
PerfResult irs-mcr-008 /irs-run(primary) IRS "wall time" 99.25 seconds
"#
    }

    #[test]
    fn bootstrap_loads_base_types() {
        let store = PTDataStore::in_memory().unwrap();
        let reg = store.registry();
        assert!(reg.contains("grid/machine/partition/node/processor"));
        assert!(reg.contains("metric"));
        assert_eq!(
            store
                .db()
                .row_count(store.schema().focus_framework)
                .unwrap(),
            perftrack_model::types::BASE_HIERARCHIES.len()
                + perftrack_model::types::BASE_SINGLETON_TYPES.len()
        );
        assert!(store.type_id("grid").is_some());
    }

    #[test]
    fn load_sample_ptdf_and_counts() {
        let store = PTDataStore::in_memory().unwrap();
        let stats = store.load_ptdf_str(sample_ptdf()).unwrap();
        assert_eq!(stats.applications, 1);
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.resources, 7);
        assert_eq!(stats.attributes, 2);
        assert_eq!(
            stats.constraints, 1,
            "resource-typed attribute becomes constraint"
        );
        assert_eq!(stats.results, 2);
        assert_eq!(store.result_count().unwrap(), 2);
        assert_eq!(store.resource_count().unwrap(), 7);
        // Attributes readable back.
        let p0 = store
            .resource_by_name("/MCRGrid/MCR/batch/n1/p0")
            .unwrap()
            .unwrap();
        let attrs = store.attributes_of(p0.id).unwrap();
        assert_eq!(attrs.len(), 2);
        assert!(attrs
            .iter()
            .any(|(n, v, _)| n == "clock MHz" && v == "2400"));
    }

    #[test]
    fn closure_tables_maintained() {
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        let p0 = store
            .resource_by_name("/MCRGrid/MCR/batch/n1/p0")
            .unwrap()
            .unwrap();
        // p0 has 4 ancestors.
        let idx = store.db().index_id("rha_resource").unwrap();
        let rows = store.db().index_lookup(idx, &[Value::Int(p0.id)]).unwrap();
        assert_eq!(rows.len(), 4);
        // The grid has 4 descendants (machine, partition, node, p0), read
        // by ancestor from the same table.
        let grid = store.resource_by_name("/MCRGrid").unwrap().unwrap();
        let idx = store.db().index_id("rha_ancestor").unwrap();
        let rows = store
            .db()
            .index_lookup(idx, &[Value::Int(grid.id)])
            .unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn hierarchy_violations_rejected() {
        let store = PTDataStore::in_memory().unwrap();
        store.add_resource("/G", "grid").unwrap();
        // Missing parent.
        assert!(store
            .add_resource("/G/M/batch", "grid/machine/partition")
            .is_err());
        // Wrong parent type.
        assert!(store
            .add_resource("/G/p", "grid/machine/partition/node/processor")
            .is_err());
        // Unknown type.
        assert!(store.add_resource("/X", "mystery").is_err());
        // Nested type at top level.
        assert!(store.add_resource("/M", "grid/machine").is_err());
        // Duplicate with same type is idempotent.
        let id1 = store.add_resource("/G", "grid").unwrap();
        assert_eq!(store.resource_id("/G"), Some(id1));
        // Duplicate with different type errors.
        assert!(store.add_resource("/G", "application").is_err());
    }

    #[test]
    fn result_requires_existing_execution_and_resources() {
        let store = PTDataStore::in_memory().unwrap();
        store.add_resource("/app", "application").unwrap();
        let pr = PerformanceResult::simple(
            "no-such-exec",
            "m",
            1.0,
            "u",
            "t",
            vec![ResourceName::new("/app").unwrap()],
        );
        assert!(store.add_performance_result(&pr).is_err());
        store.add_execution("e1", "IRS").unwrap();
        let pr = PerformanceResult::simple(
            "e1",
            "m",
            1.0,
            "u",
            "t",
            vec![ResourceName::new("/ghost").unwrap()],
        );
        assert!(store.add_performance_result(&pr).is_err());
        // Empty resource sets rejected.
        let pr = PerformanceResult {
            execution: "e1".into(),
            metric: "m".into(),
            value: 1.0,
            units: "u".into(),
            tool: "t".into(),
            resource_sets: vec![],
        };
        assert!(store.add_performance_result(&pr).is_err());
    }

    /// A `PerfResult` line with one or two faults fails with the error of
    /// the fault checked first, and stores nothing.
    #[test]
    fn perf_result_faults_fail_in_priority_order() {
        let store = PTDataStore::in_memory().unwrap();
        store.add_resource("/app", "application").unwrap();
        store.add_execution("e1", "IRS").unwrap();
        let before = store.result_count().unwrap();
        let fails = |line: &str| {
            let err = store.load_ptdf_str(line).unwrap_err();
            assert_eq!(store.result_count().unwrap(), before, "{line}");
            err
        };
        let bad_name =
            |e: &PtError| matches!(e, PtError::Model(ModelError::BadResourceName(n)) if n == "r");
        let err = fails("PerfResult e1 /app(bogus) t m 1 s");
        assert!(matches!(err, PtError::Invalid(_)), "{err:?}");
        let err = fails("PerfResult e1 r(primary) t m 1 s");
        assert!(bad_name(&err), "{err:?}");
        let err = fails("PerfResult e1 /ghost(primary) t m 1 s");
        assert!(
            matches!(&err, PtError::Model(ModelError::UnknownResource(n)) if n == "/ghost"),
            "{err:?}"
        );
        let err = fails("PerfResult nope /app(primary) t m 1 s");
        assert!(matches!(err, PtError::NotFound(_)), "{err:?}");
        let err = fails("PerfResult nope /app,r(primary) t m 1 s");
        assert!(bad_name(&err), "{err:?}");
        store
            .load_ptdf_str("PerfResult e1 /app(primary) t m 1 s")
            .unwrap();
        assert_eq!(store.result_count().unwrap(), before + 1);
    }

    #[test]
    fn rolled_back_load_leaves_no_trace() {
        let store = PTDataStore::in_memory().unwrap();
        let mut l = store.begin_load();
        l.ensure_application("ghost-app").unwrap();
        l.ensure_resource("/ghost", "application").unwrap();
        l.rollback().unwrap();
        assert_eq!(store.resource_id("/ghost"), None);
        assert_eq!(store.db().row_count(store.schema().application).unwrap(), 0);
        // A fresh load works fine afterwards.
        store.load_ptdf_str(sample_ptdf()).unwrap();
        assert_eq!(store.result_count().unwrap(), 2);
    }

    #[test]
    fn type_extension_via_statements() {
        let store = PTDataStore::in_memory().unwrap();
        let stats = store
            .load_ptdf_str("ResourceType syncObject\nResourceType syncObject/communicator\n")
            .unwrap();
        assert_eq!(stats.resource_types, 2);
        assert!(store.registry().contains("syncObject/communicator"));
        // Unknown parent fails the load.
        assert!(store.load_ptdf_str("ResourceType nowhere/child\n").is_err());
    }

    #[test]
    fn export_import_roundtrip() {
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        store.add_resource_type("syncObject").unwrap();
        let exported = store.export_ptdf().unwrap();
        let store2 = PTDataStore::in_memory().unwrap();
        store2.load_statements(&exported).unwrap();
        assert_eq!(
            store2.result_count().unwrap(),
            store.result_count().unwrap()
        );
        assert_eq!(
            store2.resource_count().unwrap(),
            store.resource_count().unwrap()
        );
        assert!(store2.registry().contains("syncObject"));
        // Second export is identical (canonical order).
        let exported2 = store2.export_ptdf().unwrap();
        assert_eq!(exported, exported2);
    }

    #[test]
    fn export_refuses_dangling_focus_references() {
        // A link to a focus that does not exist.
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        let s = *store.schema();
        let mut txn = store.db().begin();
        txn.insert(
            s.result_has_focus,
            vec![
                Value::Int(1),
                Value::Int(9_999),
                Value::Text("child".into()),
            ],
        )
        .unwrap();
        txn.commit().unwrap();
        let err = store.export_ptdf().unwrap_err();
        assert!(
            matches!(&err, PtError::NotFound(m) if m.contains("focus 9999")),
            "{err}"
        );

        // A focus naming a resource that does not exist.
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        let mut txn = store.db().begin();
        txn.insert(s.focus_has_resource, vec![Value::Int(1), Value::Int(8_888)])
            .unwrap();
        txn.commit().unwrap();
        let err = store.export_ptdf().unwrap_err();
        assert!(
            matches!(&err, PtError::NotFound(m) if m.contains("resource 8888")),
            "{err}"
        );
    }

    #[test]
    fn persistent_store_reopens() {
        let dir = std::env::temp_dir().join(format!("ptds-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = PTDataStore::open(&dir).unwrap();
            store.load_ptdf_str(sample_ptdf()).unwrap();
        }
        let store = PTDataStore::open(&dir).unwrap();
        assert_eq!(store.result_count().unwrap(), 2);
        assert!(store.resource_id("/MCRGrid/MCR/batch/n1/p0").is_some());
        assert!(store.registry().contains("grid/machine"));
        // Ids keep advancing after reopen (no collisions).
        let id = store.add_resource("/NewTop", "grid").unwrap();
        let p0 = store
            .resource_by_name("/MCRGrid/MCR/batch/n1/p0")
            .unwrap()
            .unwrap();
        assert!(id > p0.id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_execution_cascades_and_leaves_resources() {
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        // Add a second execution sharing resources.
        store
            .load_ptdf_str(
                "Execution irs-mcr-009 IRS\nPerfResult irs-mcr-009 /irs-run(primary) IRS \"wall time\" 55.0 seconds\n",
            )
            .unwrap();
        assert_eq!(store.result_count().unwrap(), 3);
        let (results, foci, links) = store.delete_execution("irs-mcr-008").unwrap();
        assert_eq!(results, 2);
        assert_eq!(links, 2);
        // `/irs-run` is still linked by irs-mcr-009's result, so only the
        // `process0,p0` focus goes.
        assert_eq!(foci, 1);
        let count = |t| store.db().row_count(t).unwrap();
        let s = *store.schema();
        assert_eq!(
            (
                count(s.focus),
                count(s.focus_has_resource),
                count(s.result_has_focus)
            ),
            (1, 1, 1)
        );
        // The other execution's result and all resources survive.
        assert_eq!(store.result_count().unwrap(), 1);
        assert_eq!(store.resource_count().unwrap(), 7);
        assert!(store.execution_id("irs-mcr-008").is_none());
        assert!(store.execution_id("irs-mcr-009").is_some());
        // Queries see a consistent store.
        let engine = crate::query::QueryEngine::new(&store);
        let rows = engine.run(&[]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(&*rows[0].execution, "irs-mcr-009");
        // Deleting again errors.
        assert!(store.delete_execution("irs-mcr-008").is_err());
        // The intern map forgot the deleted focus: loading it again writes
        // it once more, and the store stays free of orphan and duplicate
        // foci.
        store.load_ptdf_str(
            "Execution irs-mcr-010 IRS\nPerfResult irs-mcr-010 \"/irs-run/process0,/MCRGrid/MCR/batch/n1/p0(primary)\" IRS \"CPU time\" 1.0 seconds\n",
        )
        .unwrap();
        assert_eq!(count(s.focus), 2);
        let report = store.fsck(true).unwrap();
        assert!(report.findings.is_empty(), "{}", report.summary());
    }

    #[test]
    fn deletes_racing_loads_leave_no_dangling_links() {
        // Each round, one thread deletes the only execution naming `/rN`
        // while another loads an execution naming it. The loader waits
        // for the delete's writer lock and must then see the focus gone
        // from the intern map; a stale entry links a deleted focus.
        const ROUNDS: usize = 200;
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from("Application App\n");
        for r in 0..ROUNDS {
            ptdf.push_str(&format!(
                "Resource /r{r} execution\nExecution old{r} App\n\
                 PerfResult old{r} /r{r}(primary) T m 1.0 s\n"
            ));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    barrier.wait();
                    store.delete_execution(&format!("old{r}")).unwrap();
                }
            });
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    barrier.wait();
                    store
                        .load_ptdf_str(&format!(
                            "Execution new{r} App\nPerfResult new{r} /r{r}(primary) T m 2.0 s\n"
                        ))
                        .unwrap();
                }
            });
        });
        let report = store.fsck(false).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.summary());
        let results = store
            .export_ptdf()
            .unwrap()
            .into_iter()
            .filter(|s| matches!(s, PtdfStatement::PerfResult { .. }))
            .count();
        assert_eq!(results, ROUNDS);
    }

    #[test]
    fn size_bytes_reports_growth() {
        let store = PTDataStore::in_memory().unwrap();
        let before = store.size_bytes().unwrap();
        store.load_ptdf_str(sample_ptdf()).unwrap();
        assert!(store.size_bytes().unwrap() >= before);
    }

    fn write_sample_file(dir: &Path) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("sample.ptdf");
        std::fs::write(&path, sample_ptdf()).unwrap();
        path
    }

    #[test]
    fn resumable_load_records_manifest_and_skips_done_files() {
        let dir = std::env::temp_dir().join(format!("ptds-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = write_sample_file(&dir.join("in"));
        let store = PTDataStore::in_memory().unwrap();
        let opts = BulkLoadOptions {
            batch_statements: 3,
            resume: true,
        };
        let r1 = store
            .load_ptdf_files_resumable(std::slice::from_ref(&file), &opts)
            .unwrap();
        assert_eq!(r1.files_loaded, 1);
        assert_eq!(r1.files_skipped, 0);
        assert!(r1.batches_committed >= 4, "14 statements / batches of 3");
        assert_eq!(r1.stats.results, 2);
        let entry = store
            .manifest_entry(&file.to_string_lossy())
            .unwrap()
            .unwrap();
        assert!(entry.done);
        assert_eq!(entry.watermark, r1.stats.statements);

        // A second resume run is a no-op: the manifest says done.
        let r2 = store.load_ptdf_files_resumable(&[file], &opts).unwrap();
        assert_eq!(r2.files_skipped, 1);
        assert_eq!(r2.files_loaded, 0);
        assert_eq!(r2.stats.statements, 0);
        assert_eq!(store.result_count().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumable_load_resumes_from_watermark() {
        let dir = std::env::temp_dir().join(format!("ptds-wm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = write_sample_file(&dir.join("in"));
        let key = file.to_string_lossy().to_string();
        let text = sample_ptdf();
        let store = PTDataStore::in_memory().unwrap();
        // Simulate a run that committed the first 5 statements and died:
        // apply them by hand and record the watermark the way the loader
        // would have.
        let stmts = perftrack_ptdf::parse_str(text).unwrap();
        let hash = perftrack_store::wal::crc32(text.as_bytes()) as i64;
        let mut l = store.begin_load();
        for s in &stmts[..5] {
            l.apply(s).unwrap();
        }
        l.set_manifest(&key, hash, 5, false).unwrap();
        l.commit().unwrap();

        let opts = BulkLoadOptions {
            batch_statements: 4,
            resume: true,
        };
        let r = store.load_ptdf_files_resumable(&[file], &opts).unwrap();
        assert_eq!(r.resumed_statements, 5, "committed prefix skipped");
        assert_eq!(r.stats.statements, stmts.len() - 5);
        // The total store contents equal an uninterrupted load's.
        let baseline = PTDataStore::in_memory().unwrap();
        baseline.load_ptdf_str(text).unwrap();
        assert_eq!(
            store.result_count().unwrap(),
            baseline.result_count().unwrap()
        );
        assert_eq!(
            store.resource_count().unwrap(),
            baseline.resource_count().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_file_reloads_from_scratch_under_resume() {
        let dir = std::env::temp_dir().join(format!("ptds-hash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let in_dir = dir.join("in");
        std::fs::create_dir_all(&in_dir).unwrap();
        let path = in_dir.join("app.ptdf");
        std::fs::write(&path, "Application One\n").unwrap();
        let store = PTDataStore::in_memory().unwrap();
        let opts = BulkLoadOptions {
            batch_statements: 8,
            resume: true,
        };
        store
            .load_ptdf_files_resumable(std::slice::from_ref(&path), &opts)
            .unwrap();
        // Edit the file: the stale manifest row must not mask new content.
        std::fs::write(&path, "Application One\nApplication Two\n").unwrap();
        let r = store.load_ptdf_files_resumable(&[path], &opts).unwrap();
        assert_eq!(r.files_loaded, 1);
        assert_eq!(r.files_skipped, 0);
        assert_eq!(r.stats.applications, 1, "only the new app row is added");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Next `performance_result`, private focus and shared focus ids.
    fn next_ids(store: &PTDataStore) -> [i64; 3] {
        let ids = store.ids.lock();
        ["performance_result", focus_seq(false), focus_seq(true)]
            .map(|seq| ids.next.get(seq).copied().unwrap_or(1))
    }

    /// The same three ids from every `performance_result` and `focus` row.
    fn scanned_next_ids(store: &PTDataStore) -> [i64; 3] {
        let ids = |table, column: usize| {
            let rows = store.db.scan_iter(table).unwrap();
            rows.map(move |item| item.unwrap().1[column].as_int().unwrap())
        };
        let mut max = [0, 0, SHARED_FOCUS_IDS - 1];
        for id in ids(store.schema.performance_result, col::performance_result::ID) {
            max[0] = max[0].max(id);
        }
        for id in ids(store.schema.focus, col::focus::ID) {
            let seq = if id >= SHARED_FOCUS_IDS { 2 } else { 1 };
            max[seq] = max[seq].max(id);
        }
        max.map(|id| id + 1)
    }

    #[test]
    fn reopen_takes_next_ids_from_the_id_indexes() {
        use perftrack_adapters::{self as adapters, ExecContext};
        use perftrack_workloads as wl;
        let dir = std::env::temp_dir().join(format!("ptds-nextid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // SMG-UV's mpiP (parent) sets make shared foci; IRS makes only
        // private ones. IRS, loaded last, holds the highest result and
        // private focus ids.
        let uv = wl::smg_uv(5, 1).remove(0);
        let ctx = ExecContext::new(&uv.exec_name, &uv.application);
        let mut uv_stmts = adapters::smg::convert(&ctx, &uv.files[0].content).unwrap();
        uv_stmts.extend(adapters::mpip::convert(&ctx, &uv.files[1].content).unwrap());
        let irs = wl::irs_purple(5, 1).remove(0);
        let ctx = ExecContext::new(&irs.exec_name, &irs.application);
        let files: Vec<(String, String)> = irs
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        let irs_stmts = adapters::irs::convert(&ctx, &files).unwrap();
        {
            let store = PTDataStore::open(&dir).unwrap();
            store.load_statements(&uv_stmts).unwrap();
            store.load_statements(&irs_stmts).unwrap();
        }
        let store = PTDataStore::open(&dir).unwrap();
        let full = next_ids(&store);
        assert_eq!(full, scanned_next_ids(&store));
        assert!(full[2] > SHARED_FOCUS_IDS, "the load made shared foci");
        store.delete_execution(&irs.exec_name).unwrap();
        drop(store);
        let store = PTDataStore::open(&dir).unwrap();
        let next = next_ids(&store);
        assert_eq!(next, scanned_next_ids(&store));
        assert!(
            next[0] < full[0] && next[1] < full[1],
            "{next:?} vs {full:?}"
        );
        assert_eq!(next[2], full[2]);
        // The SMG-UV execution takes the last shared foci with it.
        store.delete_execution(&uv.exec_name).unwrap();
        drop(store);
        let store = PTDataStore::open(&dir).unwrap();
        assert_eq!(next_ids(&store), scanned_next_ids(&store));
        assert_eq!(
            next_ids(&store),
            [1, 1, SHARED_FOCUS_IDS],
            "the store is empty"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ptds-mreopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = write_sample_file(&dir.join("in"));
        let opts = BulkLoadOptions {
            batch_statements: 64,
            resume: true,
        };
        {
            let store = PTDataStore::open(&dir.join("db")).unwrap();
            store
                .load_ptdf_files_resumable(std::slice::from_ref(&file), &opts)
                .unwrap();
        }
        let store = PTDataStore::open(&dir.join("db")).unwrap();
        let r = store.load_ptdf_files_resumable(&[file], &opts).unwrap();
        assert_eq!(r.files_skipped, 1, "manifest persisted across reopen");
        assert_eq!(store.result_count().unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
