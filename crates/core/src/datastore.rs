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
use perftrack_store::sync::{Mutex, RwLock};
use perftrack_store::{Database, DbOptions, Row, Value};
use std::collections::HashMap;
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
}

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
/// writers queue. The network service layer (`perftrack-server`) builds
/// directly on this contract — see `docs/SERVER.md`.
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

    /// In-memory store with explicit engine options.
    pub fn in_memory_with(opts: DbOptions) -> Result<Self> {
        Self::from_db(Database::in_memory_with(opts))
    }

    /// Open (or create) a persistent store in `dir`.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::from_db(Database::open(dir)?)
    }

    /// Open with explicit engine options (retry policy, pool size, ...).
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
        let schema = Schema::create_or_resolve(&db)?;
        let store = PTDataStore {
            db,
            schema,
            registry: RwLock::new(TypeRegistry::empty()),
            cache: RwLock::new(NameCache::default()),
            ids: Mutex::new(IdGen {
                next: HashMap::new(),
            }),
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
            .scan(self.schema.focus_framework)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        type_rows.sort_by_key(|r| {
            r[col::focus_framework::TYPE_PATH]
                .as_text()
                .map(|s| s.split('/').count())
                .unwrap_or(0)
        });
        for r in &type_rows {
            let id = r[col::focus_framework::ID].as_int()?;
            let path = r[col::focus_framework::TYPE_PATH].as_text()?;
            registry.add_or_get(path).map_err(PtError::Model)?;
            cache.types.insert(path.to_string(), id);
            track("focus_framework", id, &mut max);
        }
        self.db.for_each_row(self.schema.application, |_, r| {
            if let (Ok(id), Ok(name)) = (
                r[col::application::ID].as_int(),
                r[col::application::NAME].as_text(),
            ) {
                cache.applications.insert(name.to_string(), id);
                track("application", id, &mut max);
            }
            true
        })?;
        self.db.for_each_row(self.schema.execution, |_, r| {
            if let (Ok(id), Ok(name)) = (
                r[col::execution::ID].as_int(),
                r[col::execution::NAME].as_text(),
            ) {
                cache.executions.insert(name.to_string(), id);
                track("execution", id, &mut max);
            }
            true
        })?;
        self.db.for_each_row(self.schema.resource_item, |_, r| {
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
            true
        })?;
        self.db.for_each_row(self.schema.metric, |_, r| {
            if let (Ok(id), Ok(name)) =
                (r[col::metric::ID].as_int(), r[col::metric::NAME].as_text())
            {
                cache.metrics.insert(name.to_string(), id);
                track("metric", id, &mut max);
            }
            true
        })?;
        self.db.for_each_row(self.schema.performance_tool, |_, r| {
            if let (Ok(id), Ok(name)) = (
                r[col::performance_tool::ID].as_int(),
                r[col::performance_tool::NAME].as_text(),
            ) {
                cache.tools.insert(name.to_string(), id);
                track("performance_tool", id, &mut max);
            }
            true
        })?;
        self.db
            .for_each_row(self.schema.performance_result, |_, r| {
                if let Ok(id) = r[col::performance_result::ID].as_int() {
                    track("performance_result", id, &mut max);
                }
                true
            })?;
        self.db.for_each_row(self.schema.focus, |_, r| {
            if let Ok(id) = r[col::focus::ID].as_int() {
                track("focus", id, &mut max);
            }
            true
        })?;

        let mut ids = self.ids.lock();
        ids.next = max.into_iter().map(|(k, v)| (k, v + 1)).collect();
        drop(ids);
        *self.cache.write() = cache;
        *self.registry.write() = registry;
        Ok(())
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
        if let Some(stats) = self.load_token_entry(token)? {
            return Ok((stats, true));
        }
        let stmts = perftrack_ptdf::parse_str(text)?;
        let mut l = self.begin_load();
        for s in &stmts {
            l.apply(s)?;
        }
        l.set_load_token(token)?;
        let stats = l.commit()?;
        Ok((stats, false))
    }

    /// Load one PTdf file.
    pub fn load_ptdf_file(&self, path: &Path) -> Result<LoadStats> {
        let text = std::fs::read_to_string(path)?;
        self.load_ptdf_str(&text)
    }

    /// Load many PTdf files: parsing fans out across `threads` worker
    /// threads, application stays serial (single-writer engine). This is
    /// the optimization the paper's §4.2 flags data-load time for.
    pub fn load_ptdf_files_parallel(
        &self,
        paths: &[std::path::PathBuf],
        threads: usize,
    ) -> Result<LoadStats> {
        let texts: Vec<String> = paths
            .iter()
            .map(std::fs::read_to_string)
            .collect::<std::io::Result<_>>()?;
        self.load_ptdf_texts_parallel(&texts, threads)
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
        self.db.for_each_row(self.schema.load_manifest, |_, r| {
            out.push(decode_manifest(r));
            true
        })?;
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// True once the engine has entered read-only degraded mode (writes
    /// rejected; see `docs/FAULTS.md`).
    pub fn is_degraded(&self) -> bool {
        self.db.is_degraded()
    }

    /// Parallel-parse already-read PTdf documents, then apply serially.
    pub fn load_ptdf_texts_parallel(&self, texts: &[String], threads: usize) -> Result<LoadStats> {
        let threads = threads.max(1).min(texts.len().max(1));
        let chunk = texts.len().div_ceil(threads);
        let parsed: Vec<Result<Vec<Vec<PtdfStatement>>>> = std::thread::scope(|s| {
            texts
                .chunks(chunk.max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|t| perftrack_ptdf::parse_str(t).map_err(PtError::Ptdf))
                            .collect::<Result<Vec<_>>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("parser thread panicked"))
                .collect()
        });
        let mut stats = LoadStats::default();
        for group in parsed {
            for stmts in group? {
                stats.merge(&self.load_statements(&stmts)?);
            }
        }
        Ok(stats)
    }

    /// Export the complete store as PTdf statements (inverse of load).
    pub fn export_ptdf(&self) -> Result<Vec<PtdfStatement>> {
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
        self.db.for_each_row(self.schema.application, |_, r| {
            apps.push((
                r[col::application::ID].as_int().unwrap_or(0),
                r[col::application::NAME]
                    .as_text()
                    .unwrap_or("")
                    .to_string(),
            ));
            true
        })?;
        apps.sort();
        let app_by_id: HashMap<i64, String> = apps.iter().cloned().collect();
        for (_, name) in &apps {
            out.push(PtdfStatement::Application { name: name.clone() });
        }
        // Executions.
        let mut execs: Vec<(i64, String, i64)> = Vec::new();
        self.db.for_each_row(self.schema.execution, |_, r| {
            execs.push((
                r[col::execution::ID].as_int().unwrap_or(0),
                r[col::execution::NAME].as_text().unwrap_or("").to_string(),
                r[col::execution::APPLICATION_ID].as_int().unwrap_or(0),
            ));
            true
        })?;
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
        self.db.for_each_row(self.schema.resource_item, |_, r| {
            resources.push(decode_resource(r));
            true
        })?;
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
        self.db
            .for_each_row(self.schema.resource_attribute, |_, r| {
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
                true
            })?;
        // Constraints.
        self.db
            .for_each_row(self.schema.resource_constraint, |_, r| {
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
                true
            })?;
        // Performance results with their foci.
        let metric_by_id: HashMap<i64, String> = {
            let cache = self.cache.read();
            cache.metrics.iter().map(|(k, v)| (*v, k.clone())).collect()
        };
        let tool_by_id: HashMap<i64, String> = {
            let cache = self.cache.read();
            cache.tools.iter().map(|(k, v)| (*v, k.clone())).collect()
        };
        // focus id -> (result id, role); then group resources per focus.
        let mut focus_info: HashMap<i64, (i64, String)> = HashMap::new();
        self.db.for_each_row(self.schema.focus, |_, r| {
            focus_info.insert(
                r[col::focus::ID].as_int().unwrap_or(0),
                (
                    r[col::focus::RESULT_ID].as_int().unwrap_or(0),
                    r[col::focus::FOCUS_TYPE]
                        .as_text()
                        .unwrap_or("primary")
                        .to_string(),
                ),
            );
            true
        })?;
        let mut focus_resources: HashMap<i64, Vec<String>> = HashMap::new();
        self.db
            .for_each_row(self.schema.focus_has_resource, |_, r| {
                let fid = r[col::focus_has_resource::FOCUS_ID].as_int().unwrap_or(0);
                let rid = r[col::focus_has_resource::RESOURCE_ID]
                    .as_int()
                    .unwrap_or(0);
                if let Some(name) = res_by_id.get(&rid) {
                    focus_resources.entry(fid).or_default().push(name.clone());
                }
                true
            })?;
        let mut result_sets: HashMap<i64, Vec<perftrack_ptdf::PtdfResourceSet>> = HashMap::new();
        let mut focus_ids: Vec<i64> = focus_info.keys().copied().collect();
        focus_ids.sort_unstable();
        for fid in focus_ids {
            let (result_id, role) = &focus_info[&fid];
            result_sets
                .entry(*result_id)
                .or_default()
                .push(perftrack_ptdf::PtdfResourceSet {
                    resources: focus_resources.remove(&fid).unwrap_or_default(),
                    set_type: role.clone(),
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
    /// Takes the writer lock for the structural pass — do not call while a
    /// [`Txn`](perftrack_store::Txn) or [`Loader`] is open on this thread.
    pub fn fsck(&self, deep: bool) -> Result<crate::fsck::FsckReport> {
        crate::fsck::verify_store(self, deep)
    }

    /// Delete an execution and everything hanging off it: its performance
    /// results, their foci and focus-resource links, and the execution row
    /// itself. Resources are left in place (they are shared across
    /// executions by design). Runs in one transaction; returns
    /// `(results, foci, links)` removed.
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
        let mut n_foci = 0usize;
        let mut n_links = 0usize;
        // Results of this execution.
        let result_idx = self.db.index_id("performance_result_exec")?;
        let focus_idx = self.db.index_id("focus_result")?;
        let fhr_idx = self.db.index_id("fhr_focus")?;
        for result_rowid in self.db.index_lookup(result_idx, &[Value::Int(exec_id)])? {
            let result_row = self.db.get(self.schema.performance_result, result_rowid)?;
            let result_id = result_row[col::performance_result::ID].as_int()?;
            for focus_rowid in self.db.index_lookup(focus_idx, &[Value::Int(result_id)])? {
                let focus_row = self.db.get(self.schema.focus, focus_rowid)?;
                let focus_id = focus_row[col::focus::ID].as_int()?;
                for link_rowid in self.db.index_lookup(fhr_idx, &[Value::Int(focus_id)])? {
                    txn.delete(self.schema.focus_has_resource, link_rowid)?;
                    n_links += 1;
                }
                txn.delete(self.schema.focus, focus_rowid)?;
                n_foci += 1;
            }
            txn.delete(self.schema.performance_result, result_rowid)?;
            n_results += 1;
        }
        // The execution row itself.
        let exec_idx = self.db.index_id("execution_id")?;
        for rowid in self.db.index_lookup(exec_idx, &[Value::Int(exec_id)])? {
            txn.delete(self.schema.execution, rowid)?;
        }
        txn.commit()?;
        self.cache.write().executions.remove(name);
        // Reclaim fragmented page space in the touched tables.
        self.db.compact_table(self.schema.performance_result)?;
        self.db.compact_table(self.schema.focus)?;
        self.db.compact_table(self.schema.focus_has_resource)?;
        Ok((n_results, n_foci, n_links))
    }
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

/// Bulk loader holding one write transaction. Name→id caches added during
/// the load live in an overlay that is merged into the store's global
/// cache only on commit, so a rolled-back load leaves no stale entries.
pub struct Loader<'s> {
    store: &'s PTDataStore,
    txn: Option<perftrack_store::Txn<'s>>,
    registry: TypeRegistry,
    overlay: NameCache,
    stats: LoadStats,
}

impl<'s> Loader<'s> {
    fn txn(&mut self) -> &mut perftrack_store::Txn<'s> {
        self.txn.as_mut().expect("loader already finished")
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
                let sets = resource_sets
                    .iter()
                    .map(|s| {
                        Ok(perftrack_model::ResourceSet {
                            role: ContextRole::parse(&s.set_type).ok_or_else(|| {
                                PtError::Invalid(format!("bad resource set type {:?}", s.set_type))
                            })?,
                            resources: s
                                .resources
                                .iter()
                                .map(|r| ResourceName::new(r).map_err(PtError::Model))
                                .collect::<Result<Vec<_>>>()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let pr = PerformanceResult {
                    execution: execution.clone(),
                    metric: metric.clone(),
                    value: *value,
                    units: units.clone(),
                    tool: tool.clone(),
                    resource_sets: sets,
                };
                self.add_performance_result(&pr)?;
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
        self.txn()
            .insert(table, vec![Value::Int(id), Value::Text(name.to_string())])?;
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
        self.txn().insert(
            table,
            vec![
                Value::Int(id),
                Value::Text(path.to_string()),
                parent_id.map_or(Value::Null, Value::Int),
            ],
        )?;
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
        self.txn().insert(
            table,
            vec![
                Value::Int(id),
                Value::Text(name.to_string()),
                Value::Int(app_id),
            ],
        )?;
        self.overlay.executions.insert(name.to_string(), id);
        self.stats.executions += 1;
        Ok(id)
    }

    /// Create (or return) a resource, enforcing the model rules and
    /// maintaining the ancestor/descendant closure tables.
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
        self.txn().insert(
            table,
            vec![
                Value::Int(id),
                Value::Text(name.to_string()),
                Value::Text(rn.base_name().to_string()),
                Value::Int(type_id),
                parent_id.map_or(Value::Null, Value::Int),
            ],
        )?;
        // Closure-table maintenance: walk the parent chain through caches.
        let mut ancestors = Vec::new();
        let mut cur = parent_id;
        while let Some(a) = cur {
            ancestors.push(a);
            cur = self.lookup_meta(a).and_then(|(p, _)| p);
        }
        let rha = self.store.schema.resource_has_ancestor;
        let rhd = self.store.schema.resource_has_descendant;
        for a in &ancestors {
            self.txn()
                .insert(rha, vec![Value::Int(id), Value::Int(*a)])?;
            self.txn()
                .insert(rhd, vec![Value::Int(*a), Value::Int(id)])?;
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
        self.txn().insert(
            table,
            vec![
                Value::Int(rid),
                Value::Text(attr.to_string()),
                Value::Text(value.to_string()),
                Value::Text(attr_type.keyword().to_string()),
            ],
        )?;
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
        self.txn().insert(
            table,
            vec![Value::Int(a), Value::Int(b), Value::Text(attr.to_string())],
        )?;
        self.stats.constraints += 1;
        Ok(())
    }

    fn ensure_metric(&mut self, name: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.metrics.get(name).copied()) {
            return Ok(id);
        }
        let id = self.store.ids.lock().alloc("metric");
        let table = self.store.schema.metric;
        self.txn()
            .insert(table, vec![Value::Int(id), Value::Text(name.to_string())])?;
        self.overlay.metrics.insert(name.to_string(), id);
        Ok(id)
    }

    fn ensure_tool(&mut self, name: &str) -> Result<i64> {
        if let Some(id) = self.lookup(|c| c.tools.get(name).copied()) {
            return Ok(id);
        }
        let id = self.store.ids.lock().alloc("performance_tool");
        let table = self.store.schema.performance_tool;
        self.txn()
            .insert(table, vec![Value::Int(id), Value::Text(name.to_string())])?;
        self.overlay.tools.insert(name.to_string(), id);
        Ok(id)
    }

    /// Store one performance result (execution and all context resources
    /// must already exist).
    pub fn add_performance_result(&mut self, result: &PerformanceResult) -> Result<i64> {
        if result.resource_sets.is_empty() {
            return Err(PtError::Invalid(
                "performance result needs at least one resource set".into(),
            ));
        }
        let exec_id = self
            .lookup(|c| c.executions.get(&result.execution).copied())
            .ok_or_else(|| PtError::NotFound(format!("execution {}", result.execution)))?;
        let metric_id = self.ensure_metric(&result.metric)?;
        let tool_id = self.ensure_tool(&result.tool)?;
        // Resolve every resource up front so failures leave no partial foci.
        let mut resolved: Vec<(ContextRole, Vec<i64>)> =
            Vec::with_capacity(result.resource_sets.len());
        for set in &result.resource_sets {
            let ids = set
                .resources
                .iter()
                .map(|r| {
                    self.lookup(|c| c.resources.get(r.as_str()).copied())
                        .ok_or_else(|| {
                            PtError::Model(ModelError::UnknownResource(r.as_str().to_string()))
                        })
                })
                .collect::<Result<Vec<_>>>()?;
            resolved.push((set.role, ids));
        }
        let id = self.store.ids.lock().alloc("performance_result");
        let table = self.store.schema.performance_result;
        self.txn().insert(
            table,
            vec![
                Value::Int(id),
                Value::Int(exec_id),
                Value::Int(metric_id),
                Value::Int(tool_id),
                Value::Real(result.value),
                Value::Text(result.units.clone()),
            ],
        )?;
        for (role, rids) in resolved {
            let focus_id = self.store.ids.lock().alloc("focus");
            let ftable = self.store.schema.focus;
            self.txn().insert(
                ftable,
                vec![
                    Value::Int(focus_id),
                    Value::Int(id),
                    Value::Text(role.name().to_string()),
                ],
            )?;
            let fhr = self.store.schema.focus_has_resource;
            for rid in rids {
                self.txn()
                    .insert(fhr, vec![Value::Int(focus_id), Value::Int(rid)])?;
            }
        }
        self.stats.results += 1;
        Ok(id)
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
    /// turns a racing duplicate into a typed `UniqueViolation` instead
    /// of a double-apply.
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

    /// Commit the load; merges caches into the store and returns stats.
    pub fn commit(mut self) -> Result<LoadStats> {
        let txn = self.txn.take().expect("loader already finished");
        txn.commit()?;
        let mut cache = self.store.cache.write();
        cache.applications.extend(self.overlay.applications.drain());
        cache.types.extend(self.overlay.types.drain());
        cache.executions.extend(self.overlay.executions.drain());
        cache.resources.extend(self.overlay.resources.drain());
        cache.metrics.extend(self.overlay.metrics.drain());
        cache.tools.extend(self.overlay.tools.drain());
        cache
            .resource_meta
            .extend(self.overlay.resource_meta.drain());
        drop(cache);
        *self.store.registry.write() = std::mem::replace(&mut self.registry, TypeRegistry::empty());
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
        // The grid has 4 descendants (machine, partition, node, p0).
        let grid = store.resource_by_name("/MCRGrid").unwrap().unwrap();
        let idx = store.db().index_id("rhd_resource").unwrap();
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
        assert_eq!(exported.len(), exported2.len());
    }

    #[test]
    fn parallel_text_load_matches_serial() {
        let store1 = PTDataStore::in_memory().unwrap();
        let store2 = PTDataStore::in_memory().unwrap();
        // Shared machine definitions must load first in both paths.
        let machine = r#"
Resource /G grid
Resource /G/M grid/machine
"#;
        store1.load_ptdf_str(machine).unwrap();
        store2.load_ptdf_str(machine).unwrap();
        let texts: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "Application A\nExecution e{i} A\nResource /run{i} execution\nPerfResult e{i} /run{i}(primary) T m{i} {i}.5 s\n"
                )
            })
            .collect();
        for t in &texts {
            store1.load_ptdf_str(t).unwrap();
        }
        let stats = store2.load_ptdf_texts_parallel(&texts, 3).unwrap();
        assert_eq!(stats.results, 6);
        assert_eq!(
            store1.result_count().unwrap(),
            store2.result_count().unwrap()
        );
        assert_eq!(store1.metrics(), store2.metrics());
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
        assert_eq!(foci, 2);
        assert_eq!(links, 3);
        // The other execution's result and all resources survive.
        assert_eq!(store.result_count().unwrap(), 1);
        assert_eq!(store.resource_count().unwrap(), 7);
        assert!(store.execution_id("irs-mcr-008").is_none());
        assert!(store.execution_id("irs-mcr-009").is_some());
        // Queries see a consistent store.
        let engine = crate::query::QueryEngine::new(&store);
        let rows = engine.run(&[]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].execution, "irs-mcr-009");
        // Deleting again errors.
        assert!(store.delete_execution("irs-mcr-008").is_err());
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
            .load_ptdf_files_resumable(&[file.clone()], &opts)
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
            .load_ptdf_files_resumable(&[path.clone()], &opts)
            .unwrap();
        // Edit the file: the stale manifest row must not mask new content.
        std::fs::write(&path, "Application One\nApplication Two\n").unwrap();
        let r = store.load_ptdf_files_resumable(&[path], &opts).unwrap();
        assert_eq!(r.files_loaded, 1);
        assert_eq!(r.files_skipped, 0);
        assert_eq!(r.stats.applications, 1, "only the new app row is added");
        let _ = std::fs::remove_dir_all(&dir);
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
                .load_ptdf_files_resumable(&[file.clone()], &opts)
                .unwrap();
        }
        let store = PTDataStore::open(&dir.join("db")).unwrap();
        let r = store.load_ptdf_files_resumable(&[file], &opts).unwrap();
        assert_eq!(r.files_skipped, 1, "manifest persisted across reopen");
        assert_eq!(store.result_count().unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
