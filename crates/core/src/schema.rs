//! The PerfTrack database schema (Figure 1 of the paper), instantiated on
//! the embedded relational engine.
//!
//! Tables:
//! * `application` — application names.
//! * `focus_framework` — the resource type system (one row per type path);
//!   `resource_item.focus_framework_id` references it.
//! * `execution` — executions, each belonging to an application.
//! * `resource_item` — one row per resource: full name, base name, type,
//!   parent.
//! * `resource_attribute` — string attributes of resources.
//! * `resource_constraint` — resource-valued attributes (resource pairs).
//! * `resource_has_ancestor` / `resource_has_descendant` — transitive
//!   closure of the parent relation, maintained on insert; the paper adds
//!   these "for performance reasons" (EXPERIMENTS.md keeps the retired
//!   closure-ablation bench's measurement of that choice).
//! * `metric`, `performance_tool` — interned names.
//! * `performance_result` — the measured values.
//! * `focus` — one row per resource set of a result, with its role
//!   (`primary`, `parent`, `child`, `sender`, `receiver`).
//! * `focus_has_resource` — the resources in each focus.
//! * `load_manifest` — bulk-load bookkeeping: one row per PTdf file ever
//!   loaded, carrying its content hash and batch watermark so interrupted
//!   loads can resume idempotently (`pt load --resume`; see
//!   `docs/FAULTS.md`). Not part of Figure 1 — operational metadata.
//! * `load_token` — retry-safe network loads: one row per idempotency
//!   token a client ever attached to a `LoadPtdf` request, committed in
//!   the same transaction as the rows it covers. A replayed token
//!   returns the recorded counters instead of double-applying
//!   (`docs/SERVER.md` §idempotency). Also operational metadata.

use perftrack_store::{Column, ColumnType, Database, StoreError, StoreResult, TableId};

/// Create `name` if absent, resolve it otherwise. Schema bootstrap is a
/// sequence of DDL statements, each its own checkpoint barrier — a crash
/// can leave any prefix of them durable. Making every step idempotent
/// makes bootstrap as a whole crash-restartable (see `docs/FAULTS.md`).
fn ensure_table(db: &Database, name: &str, columns: Vec<Column>) -> StoreResult<TableId> {
    match db.table_id(name) {
        Ok(t) => Ok(t),
        Err(_) => db.create_table(name, columns),
    }
}

/// Create index `name` if absent; tolerate it already existing.
fn ensure_index(
    db: &Database,
    name: &str,
    table: TableId,
    columns: &[&str],
    unique: bool,
) -> StoreResult<()> {
    match db.create_index(name, table, columns, unique) {
        Ok(_) | Err(StoreError::AlreadyExists(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Resolved table ids for the PerfTrack schema.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    pub application: TableId,
    pub focus_framework: TableId,
    pub execution: TableId,
    pub resource_item: TableId,
    pub resource_attribute: TableId,
    pub resource_constraint: TableId,
    pub resource_has_ancestor: TableId,
    pub resource_has_descendant: TableId,
    pub metric: TableId,
    pub performance_tool: TableId,
    pub performance_result: TableId,
    pub focus: TableId,
    pub focus_has_resource: TableId,
    pub load_manifest: TableId,
    pub load_token: TableId,
}

/// Column ordinals, by table, for code clarity. Kept in sync with
/// [`Schema::create`] by the `schema_integrity` tests.
pub mod col {
    /// `application(id, name)`
    pub mod application {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
    }
    /// `focus_framework(id, type_path, parent_id)`
    pub mod focus_framework {
        pub const ID: usize = 0;
        pub const TYPE_PATH: usize = 1;
        pub const PARENT_ID: usize = 2;
    }
    /// `execution(id, name, application_id)`
    pub mod execution {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
        pub const APPLICATION_ID: usize = 2;
    }
    /// `resource_item(id, name, base_name, focus_framework_id, parent_id)`
    pub mod resource_item {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
        pub const BASE_NAME: usize = 2;
        pub const FOCUS_FRAMEWORK_ID: usize = 3;
        pub const PARENT_ID: usize = 4;
    }
    /// `resource_attribute(resource_id, name, value, attr_type)`
    pub mod resource_attribute {
        pub const RESOURCE_ID: usize = 0;
        pub const NAME: usize = 1;
        pub const VALUE: usize = 2;
        pub const ATTR_TYPE: usize = 3;
    }
    /// `resource_constraint(resource1_id, resource2_id, name)`
    pub mod resource_constraint {
        pub const RESOURCE1_ID: usize = 0;
        pub const RESOURCE2_ID: usize = 1;
        pub const NAME: usize = 2;
    }
    /// `resource_has_ancestor(resource_id, ancestor_id)`
    pub mod resource_has_ancestor {
        pub const RESOURCE_ID: usize = 0;
        pub const ANCESTOR_ID: usize = 1;
    }
    /// `resource_has_descendant(resource_id, descendant_id)`
    pub mod resource_has_descendant {
        pub const RESOURCE_ID: usize = 0;
        pub const DESCENDANT_ID: usize = 1;
    }
    /// `metric(id, name)`
    pub mod metric {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
    }
    /// `performance_tool(id, name)`
    pub mod performance_tool {
        pub const ID: usize = 0;
        pub const NAME: usize = 1;
    }
    /// `performance_result(id, execution_id, metric_id, tool_id, value, units)`
    pub mod performance_result {
        pub const ID: usize = 0;
        pub const EXECUTION_ID: usize = 1;
        pub const METRIC_ID: usize = 2;
        pub const TOOL_ID: usize = 3;
        pub const VALUE: usize = 4;
        pub const UNITS: usize = 5;
    }
    /// `focus(id, result_id, focus_type)`
    pub mod focus {
        pub const ID: usize = 0;
        pub const RESULT_ID: usize = 1;
        pub const FOCUS_TYPE: usize = 2;
    }
    /// `focus_has_resource(focus_id, resource_id)`
    pub mod focus_has_resource {
        pub const FOCUS_ID: usize = 0;
        pub const RESOURCE_ID: usize = 1;
    }
    /// `load_manifest(path, content_hash, watermark, done)`
    pub mod load_manifest {
        pub const PATH: usize = 0;
        pub const CONTENT_HASH: usize = 1;
        pub const WATERMARK: usize = 2;
        pub const DONE: usize = 3;
    }
    /// `load_token(token, statements, applications, resource_types,
    /// executions, resources, attributes, constraints, results)`
    pub mod load_token {
        pub const TOKEN: usize = 0;
        pub const STATEMENTS: usize = 1;
        pub const APPLICATIONS: usize = 2;
        pub const RESOURCE_TYPES: usize = 3;
        pub const EXECUTIONS: usize = 4;
        pub const RESOURCES: usize = 5;
        pub const ATTRIBUTES: usize = 6;
        pub const CONSTRAINTS: usize = 7;
        pub const RESULTS: usize = 8;
    }
}

impl Schema {
    /// Create all tables and indexes on a fresh database.
    pub fn create(db: &Database) -> StoreResult<Schema> {
        let application = ensure_table(
            db,
            "application",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        )?;
        ensure_index(db, "application_id", application, &["id"], true)?;
        ensure_index(db, "application_name", application, &["name"], true)?;

        let focus_framework = ensure_table(
            db,
            "focus_framework",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("type_path", ColumnType::Text),
                Column::nullable("parent_id", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "focus_framework_id", focus_framework, &["id"], true)?;
        ensure_index(
            db,
            "focus_framework_path",
            focus_framework,
            &["type_path"],
            true,
        )?;

        let execution = ensure_table(
            db,
            "execution",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("application_id", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "execution_id", execution, &["id"], true)?;
        ensure_index(db, "execution_name", execution, &["name"], true)?;
        ensure_index(db, "execution_app", execution, &["application_id"], false)?;

        let resource_item = ensure_table(
            db,
            "resource_item",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("base_name", ColumnType::Text),
                Column::new("focus_framework_id", ColumnType::Int),
                Column::nullable("parent_id", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "resource_item_id", resource_item, &["id"], true)?;
        ensure_index(db, "resource_item_name", resource_item, &["name"], true)?;
        ensure_index(
            db,
            "resource_item_base",
            resource_item,
            &["base_name"],
            false,
        )?;
        ensure_index(
            db,
            "resource_item_type",
            resource_item,
            &["focus_framework_id"],
            false,
        )?;

        let resource_attribute = ensure_table(
            db,
            "resource_attribute",
            vec![
                Column::new("resource_id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("value", ColumnType::Text),
                Column::new("attr_type", ColumnType::Text),
            ],
        )?;
        ensure_index(
            db,
            "resource_attribute_rid",
            resource_attribute,
            &["resource_id"],
            false,
        )?;
        ensure_index(
            db,
            "resource_attribute_name",
            resource_attribute,
            &["name"],
            false,
        )?;

        let resource_constraint = ensure_table(
            db,
            "resource_constraint",
            vec![
                Column::new("resource1_id", ColumnType::Int),
                Column::new("resource2_id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        )?;
        ensure_index(
            db,
            "resource_constraint_r1",
            resource_constraint,
            &["resource1_id"],
            false,
        )?;
        ensure_index(
            db,
            "resource_constraint_r2",
            resource_constraint,
            &["resource2_id"],
            false,
        )?;

        let resource_has_ancestor = ensure_table(
            db,
            "resource_has_ancestor",
            vec![
                Column::new("resource_id", ColumnType::Int),
                Column::new("ancestor_id", ColumnType::Int),
            ],
        )?;
        ensure_index(
            db,
            "rha_resource",
            resource_has_ancestor,
            &["resource_id"],
            false,
        )?;
        ensure_index(
            db,
            "rha_ancestor",
            resource_has_ancestor,
            &["ancestor_id"],
            false,
        )?;

        let resource_has_descendant = ensure_table(
            db,
            "resource_has_descendant",
            vec![
                Column::new("resource_id", ColumnType::Int),
                Column::new("descendant_id", ColumnType::Int),
            ],
        )?;
        ensure_index(
            db,
            "rhd_resource",
            resource_has_descendant,
            &["resource_id"],
            false,
        )?;

        let metric = ensure_table(
            db,
            "metric",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        )?;
        ensure_index(db, "metric_id", metric, &["id"], true)?;
        ensure_index(db, "metric_name", metric, &["name"], true)?;

        let performance_tool = ensure_table(
            db,
            "performance_tool",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        )?;
        ensure_index(db, "performance_tool_id", performance_tool, &["id"], true)?;
        ensure_index(
            db,
            "performance_tool_name",
            performance_tool,
            &["name"],
            true,
        )?;

        let performance_result = ensure_table(
            db,
            "performance_result",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("execution_id", ColumnType::Int),
                Column::new("metric_id", ColumnType::Int),
                Column::new("tool_id", ColumnType::Int),
                Column::new("value", ColumnType::Real),
                Column::new("units", ColumnType::Text),
            ],
        )?;
        ensure_index(
            db,
            "performance_result_id",
            performance_result,
            &["id"],
            true,
        )?;
        ensure_index(
            db,
            "performance_result_exec",
            performance_result,
            &["execution_id"],
            false,
        )?;
        ensure_index(
            db,
            "performance_result_metric",
            performance_result,
            &["metric_id"],
            false,
        )?;

        let focus = ensure_table(
            db,
            "focus",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("result_id", ColumnType::Int),
                Column::new("focus_type", ColumnType::Text),
            ],
        )?;
        ensure_index(db, "focus_id", focus, &["id"], true)?;
        ensure_index(db, "focus_result", focus, &["result_id"], false)?;

        let focus_has_resource = ensure_table(
            db,
            "focus_has_resource",
            vec![
                Column::new("focus_id", ColumnType::Int),
                Column::new("resource_id", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "fhr_focus", focus_has_resource, &["focus_id"], false)?;
        ensure_index(
            db,
            "fhr_resource",
            focus_has_resource,
            &["resource_id"],
            false,
        )?;

        let load_manifest = Self::create_manifest_table(db)?;
        let load_token = Self::create_token_table(db)?;

        Ok(Schema {
            application,
            focus_framework,
            execution,
            resource_item,
            resource_attribute,
            resource_constraint,
            resource_has_ancestor,
            resource_has_descendant,
            metric,
            performance_tool,
            performance_result,
            focus,
            focus_has_resource,
            load_manifest,
            load_token,
        })
    }

    /// Create the `load_manifest` bookkeeping table (split out so
    /// [`Schema::resolve`] can add it to stores created before it
    /// existed).
    fn create_manifest_table(db: &Database) -> StoreResult<TableId> {
        let load_manifest = ensure_table(
            db,
            "load_manifest",
            vec![
                Column::new("path", ColumnType::Text),
                Column::new("content_hash", ColumnType::Int),
                Column::new("watermark", ColumnType::Int),
                Column::new("done", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "load_manifest_path", load_manifest, &["path"], true)?;
        Ok(load_manifest)
    }

    /// Create the `load_token` idempotency table (split out like
    /// `load_manifest` so [`Schema::resolve`] can add it to stores
    /// created before it existed).
    fn create_token_table(db: &Database) -> StoreResult<TableId> {
        let load_token = ensure_table(
            db,
            "load_token",
            vec![
                Column::new("token", ColumnType::Text),
                Column::new("statements", ColumnType::Int),
                Column::new("applications", ColumnType::Int),
                Column::new("resource_types", ColumnType::Int),
                Column::new("executions", ColumnType::Int),
                Column::new("resources", ColumnType::Int),
                Column::new("attributes", ColumnType::Int),
                Column::new("constraints", ColumnType::Int),
                Column::new("results", ColumnType::Int),
            ],
        )?;
        ensure_index(db, "load_token_token", load_token, &["token"], true)?;
        Ok(load_token)
    }

    /// Resolve table ids on a database where the schema already exists.
    /// Any table still missing is created: that covers both stores from
    /// before a table existed (`load_manifest` is an additive migration)
    /// and stores whose bootstrap was killed between DDL statements — a
    /// crashed `create` and a `resolve` are the same idempotent walk.
    pub fn resolve(db: &Database) -> StoreResult<Schema> {
        Self::create(db)
    }

    /// Create the schema if absent, otherwise resolve it. (Both paths
    /// run the same idempotent ensure-walk; the names document intent.)
    pub fn create_or_resolve(db: &Database) -> StoreResult<Schema> {
        Schema::create(db)
    }

    /// Every table in the schema, with its name (test support and the
    /// CLI's `report tables`).
    pub fn all_tables(&self) -> [(&'static str, TableId); 15] {
        [
            ("application", self.application),
            ("focus_framework", self.focus_framework),
            ("execution", self.execution),
            ("resource_item", self.resource_item),
            ("resource_attribute", self.resource_attribute),
            ("resource_constraint", self.resource_constraint),
            ("resource_has_ancestor", self.resource_has_ancestor),
            ("resource_has_descendant", self.resource_has_descendant),
            ("metric", self.metric),
            ("performance_tool", self.performance_tool),
            ("performance_result", self.performance_result),
            ("focus", self.focus),
            ("focus_has_resource", self.focus_has_resource),
            ("load_manifest", self.load_manifest),
            ("load_token", self.load_token),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_resolve_roundtrip() {
        let db = Database::in_memory();
        let s1 = Schema::create(&db).unwrap();
        let s2 = Schema::resolve(&db).unwrap();
        for ((n1, t1), (n2, t2)) in s1.all_tables().iter().zip(s2.all_tables().iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn create_or_resolve_is_idempotent() {
        let db = Database::in_memory();
        let s1 = Schema::create_or_resolve(&db).unwrap();
        let s2 = Schema::create_or_resolve(&db).unwrap();
        assert_eq!(s1.application, s2.application);
        assert_eq!(s1.focus_has_resource, s2.focus_has_resource);
    }

    #[test]
    fn column_ordinals_match_schema() {
        let db = Database::in_memory();
        let s = Schema::create(&db).unwrap();
        assert_eq!(
            db.column_index(s.resource_item, "id").unwrap(),
            col::resource_item::ID
        );
        assert_eq!(
            db.column_index(s.resource_item, "name").unwrap(),
            col::resource_item::NAME
        );
        assert_eq!(
            db.column_index(s.resource_item, "base_name").unwrap(),
            col::resource_item::BASE_NAME
        );
        assert_eq!(
            db.column_index(s.resource_item, "focus_framework_id")
                .unwrap(),
            col::resource_item::FOCUS_FRAMEWORK_ID
        );
        assert_eq!(
            db.column_index(s.resource_item, "parent_id").unwrap(),
            col::resource_item::PARENT_ID
        );
        assert_eq!(
            db.column_index(s.performance_result, "value").unwrap(),
            col::performance_result::VALUE
        );
        assert_eq!(
            db.column_index(s.focus, "focus_type").unwrap(),
            col::focus::FOCUS_TYPE
        );
        assert_eq!(
            db.column_index(s.focus_has_resource, "resource_id")
                .unwrap(),
            col::focus_has_resource::RESOURCE_ID
        );
    }

    #[test]
    fn unique_indexes_enforced() {
        let db = Database::in_memory();
        let s = Schema::create(&db).unwrap();
        use perftrack_store::Value;
        let mut txn = db.begin();
        txn.insert(
            s.application,
            vec![Value::Int(1), Value::Text("IRS".into())],
        )
        .unwrap();
        let err = txn
            .insert(
                s.application,
                vec![Value::Int(2), Value::Text("IRS".into())],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            perftrack_store::StoreError::UniqueViolation(_)
        ));
    }
}
