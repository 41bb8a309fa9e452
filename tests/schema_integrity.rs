//! Figure 1 verification: the PerfTrack schema exists with every table,
//! key, and index the paper's diagram shows, and referential integrity
//! holds after a full case-study load.

use perftrack::{PTDataStore, Schema};
use perftrack_adapters as adapters;
use perftrack_store::{Database, Value};
use perftrack_workloads as wl;
use std::collections::HashSet;

#[test]
fn all_figure1_tables_exist() {
    let db = Database::in_memory();
    let schema = Schema::create(&db).unwrap();
    let names: Vec<&str> = schema.all_tables().iter().map(|(n, _)| *n).collect();
    for expected in [
        "application",
        "focus_framework",
        "execution",
        "resource_item",
        "resource_attribute",
        "resource_constraint",
        "resource_has_ancestor",
        "metric",
        "performance_tool",
        "performance_result",
        "focus",
        "focus_has_resource",
        "result_has_focus",
    ] {
        assert!(names.contains(&expected), "missing table {expected}");
    }
}

#[test]
fn primary_key_indexes_are_unique() {
    let db = Database::in_memory();
    let schema = Schema::create(&db).unwrap();
    // Inserting duplicate primary keys must fail for id-keyed tables.
    for (table, row) in [
        (
            schema.application,
            vec![Value::Int(1), Value::Text("A".into())],
        ),
        (schema.metric, vec![Value::Int(1), Value::Text("m".into())]),
        (
            schema.performance_tool,
            vec![Value::Int(1), Value::Text("t".into())],
        ),
    ] {
        let mut txn = db.begin();
        txn.insert(table, row.clone()).unwrap();
        let mut dup = row.clone();
        dup[1] = Value::Text("other".into());
        assert!(
            txn.insert(table, dup).is_err(),
            "duplicate id accepted in a PK-indexed table"
        );
        drop(txn);
    }
}

/// Load a real study and check foreign-key-style integrity across tables.
#[test]
fn referential_integrity_after_study_load() {
    let store = PTDataStore::in_memory().unwrap();
    let bundle = &wl::smg_uv(3, 1)[0];
    let ctx = adapters::ExecContext::new(&bundle.exec_name, &bundle.application);
    store
        .load_statements(&adapters::smg::convert(&ctx, &bundle.files[0].content).unwrap())
        .unwrap();
    store
        .load_statements(&adapters::mpip::convert(&ctx, &bundle.files[1].content).unwrap())
        .unwrap();

    let db = store.db();
    let s = store.schema();
    let collect_ids = |table, col: usize| -> HashSet<i64> {
        db.scan_iter(table)
            .unwrap()
            .map(|item| item.unwrap().1[col].as_int().unwrap())
            .collect()
    };
    let resource_ids = collect_ids(s.resource_item, 0);
    let result_ids = collect_ids(s.performance_result, 0);
    let focus_ids = collect_ids(s.focus, 0);
    let metric_ids = collect_ids(s.metric, 0);
    let tool_ids = collect_ids(s.performance_tool, 0);
    let exec_ids = collect_ids(s.execution, 0);
    let type_ids = collect_ids(s.focus_framework, 0);

    // resource_item.focus_framework_id → focus_framework.id
    for (_, r) in db.scan_iter(s.resource_item).unwrap().map(Result::unwrap) {
        assert!(type_ids.contains(&r[3].as_int().unwrap()));
        if let Ok(pid) = r[4].as_int() {
            assert!(resource_ids.contains(&pid), "dangling parent_id");
        }
    }
    // performance_result FKs.
    for (_, r) in db
        .scan_iter(s.performance_result)
        .unwrap()
        .map(Result::unwrap)
    {
        assert!(exec_ids.contains(&r[1].as_int().unwrap()));
        assert!(metric_ids.contains(&r[2].as_int().unwrap()));
        assert!(tool_ids.contains(&r[3].as_int().unwrap()));
    }
    // result_has_focus → performance_result.id and focus.id
    for (_, r) in db
        .scan_iter(s.result_has_focus)
        .unwrap()
        .map(Result::unwrap)
    {
        assert!(result_ids.contains(&r[0].as_int().unwrap()));
        assert!(focus_ids.contains(&r[1].as_int().unwrap()));
    }
    // focus_has_resource FKs.
    for (_, r) in db
        .scan_iter(s.focus_has_resource)
        .unwrap()
        .map(Result::unwrap)
    {
        assert!(focus_ids.contains(&r[0].as_int().unwrap()));
        assert!(resource_ids.contains(&r[1].as_int().unwrap()));
    }
    // Attributes and constraints point at real resources.
    for (_, r) in db
        .scan_iter(s.resource_attribute)
        .unwrap()
        .map(Result::unwrap)
    {
        assert!(resource_ids.contains(&r[0].as_int().unwrap()));
    }
    for (_, r) in db
        .scan_iter(s.resource_constraint)
        .unwrap()
        .map(Result::unwrap)
    {
        assert!(resource_ids.contains(&r[0].as_int().unwrap()));
        assert!(resource_ids.contains(&r[1].as_int().unwrap()));
    }
    // Closure tables agree with recomputed transitive closure.
    let mut parent_of = std::collections::HashMap::new();
    for (_, r) in db.scan_iter(s.resource_item).unwrap().map(Result::unwrap) {
        parent_of.insert(r[0].as_int().unwrap(), r[4].as_int().ok());
    }
    let mut expected_pairs = HashSet::new();
    for &id in parent_of.keys() {
        let mut cur = parent_of[&id];
        while let Some(a) = cur {
            expected_pairs.insert((id, a));
            cur = parent_of.get(&a).copied().flatten();
        }
    }
    let ancestor_pairs: HashSet<(i64, i64)> = db
        .scan_iter(s.resource_has_ancestor)
        .unwrap()
        .map(|item| item.unwrap().1)
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(ancestor_pairs, expected_pairs, "rha is the exact closure");
}

#[test]
fn focus_types_are_valid_roles() {
    let store = PTDataStore::in_memory().unwrap();
    let bundle = &wl::smg_uv(5, 1)[0];
    let ctx = adapters::ExecContext::new(&bundle.exec_name, &bundle.application);
    store
        .load_statements(&adapters::mpip::convert(&ctx, &bundle.files[1].content).unwrap())
        .unwrap();
    let db = store.db();
    let s = store.schema();
    let mut seen = HashSet::new();
    for (_, r) in db
        .scan_iter(s.result_has_focus)
        .unwrap()
        .map(Result::unwrap)
    {
        let role = r[2].as_text().unwrap().to_string();
        assert!(
            perftrack_model::ContextRole::parse(&role).is_some(),
            "invalid focus type {role:?}"
        );
        seen.insert(role);
    }
    assert!(seen.contains("primary"));
    assert!(seen.contains("parent"), "mpiP loads use caller sets");
}

/// Figure 1's descendant table and its index. Descendants are read from
/// `resource_has_ancestor` by ancestor, so a fresh store has neither; a
/// store written while the mirror was kept still holds both, unused.
const MIRROR_TABLE: &str = "resource_has_descendant";
const MIRROR_INDEX: &str = "rhd_resource";

/// Every index of the schema.
const INDEXES: [&str; 27] = [
    "application_id",
    "application_name",
    "focus_framework_id",
    "focus_framework_path",
    "execution_id",
    "execution_name",
    "resource_item_id",
    "resource_item_name",
    "resource_item_base",
    "resource_item_type",
    "resource_attribute_rid",
    "resource_attribute_name",
    "rha_resource",
    "rha_ancestor",
    "metric_id",
    "metric_name",
    "performance_tool_id",
    "performance_tool_name",
    "performance_result_id",
    "performance_result_exec",
    "focus_id",
    "fhr_focus",
    "fhr_resource",
    "rhf_result",
    "rhf_focus",
    "load_manifest_path",
    "load_token_token",
];

/// The write side's footprint, pinned exactly: one seeded SMG-UV
/// execution (SMG2000 plus mpiP, whose results carry a `(parent)` set)
/// stores each distinct focus once and links every result set to it. A
/// loader that wrote a focus per result set again would store as many
/// `focus` rows as `result_has_focus` rows, and fail here.
#[test]
fn focus_layout_row_and_index_counts_are_pinned() {
    let store = PTDataStore::in_memory().unwrap();
    let bundle = &wl::smg_uv(2005, 1)[0];
    let ctx = adapters::ExecContext::new(&bundle.exec_name, &bundle.application);
    store
        .load_statements(&adapters::smg::convert(&ctx, &bundle.files[0].content).unwrap())
        .unwrap();
    store
        .load_statements(&adapters::mpip::convert(&ctx, &bundle.files[1].content).unwrap())
        .unwrap();

    let db = store.db();
    let s = store.schema();
    let rows = |t| db.row_count(t).unwrap();
    let counts = (
        rows(s.performance_result),
        rows(s.result_has_focus),
        rows(s.focus),
        rows(s.focus_has_resource),
    );
    let entries: usize = INDEXES
        .iter()
        .map(|name| db.index_len(db.index_id(name).unwrap()).unwrap())
        .sum();
    assert_eq!(
        counts,
        (7_101, 13_023, 644, 1_753),
        "(results, links, foci, focus resources)"
    );
    // Each closure pair is one row with two index entries.
    assert_eq!(rows(s.resource_has_ancestor), 205, "closure pairs");
    assert_eq!(entries, 45_678, "index entries");
    for unread in [
        "performance_result_metric",
        "execution_app",
        "resource_constraint_r1",
        "resource_constraint_r2",
        "focus_result",
        MIRROR_INDEX,
    ] {
        assert!(db.index_id(unread).is_err(), "{unread} is not maintained");
    }
    // Descendants read `resource_has_ancestor` by ancestor; no mirror
    // table holds the closure pairs a second time.
    for table in db.tables().into_iter().map(|(_, name)| name) {
        assert_ne!(table, MIRROR_TABLE, "{table} is not maintained");
    }
}

/// A store written while every closure pair was also kept transposed in
/// [`MIRROR_TABLE`] opens and loads without migration: descendants come
/// from `resource_has_ancestor`, the leftover mirror is neither read nor
/// written, and deep fsck stays clean.
#[test]
fn store_with_descendant_mirror_opens_and_loads() {
    use perftrack::{fsck::verify_store, schema::col::resource_item as ri, QueryEngine};
    use perftrack_model::{Relatives, ResourceFilter};
    use perftrack_store::{Column, ColumnType};

    let dir = std::env::temp_dir().join(format!("pt-old-mirror-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chain = "Resource /G grid\nResource /G/M grid/machine\n\
                 Resource /G/M/batch grid/machine/partition\n";
    PTDataStore::open(&dir)
        .unwrap()
        .load_ptdf_str(chain)
        .unwrap();
    {
        let db = Database::open(&dir).unwrap();
        let rha = db.table_id("resource_has_ancestor").unwrap();
        let columns = vec![
            Column::new("resource_id", ColumnType::Int),
            Column::new("descendant_id", ColumnType::Int),
        ];
        let mirror = db.create_table(MIRROR_TABLE, columns).unwrap();
        db.create_index(MIRROR_INDEX, mirror, &["resource_id"], false)
            .unwrap();
        let pairs: Vec<_> = db.scan_iter(rha).unwrap().map(|i| i.unwrap().1).collect();
        let mut txn = db.begin();
        for row in pairs {
            txn.insert(mirror, vec![row[1].clone(), row[0].clone()])
                .unwrap();
        }
        txn.commit().unwrap();
    }

    let store = PTDataStore::open(&dir).unwrap();
    let more = "Resource /G/M/batch/n0 grid/machine/partition/node\nResource /H grid\n";
    store.load_ptdf_str(more).unwrap();
    let db = store.db();
    let mirror = db.table_id(MIRROR_TABLE).unwrap();
    assert_eq!(
        db.row_count(mirror).unwrap(),
        3,
        "the mirror is not written"
    );
    let parent_of: std::collections::HashMap<i64, Option<i64>> = db
        .scan_iter(store.schema().resource_item)
        .unwrap()
        .map(|item| {
            let row = item.unwrap().1;
            (
                row[ri::ID].as_int().unwrap(),
                row[ri::PARENT_ID].as_int().ok(),
            )
        })
        .collect();
    let mut descendants: std::collections::HashMap<i64, HashSet<i64>> = Default::default();
    for &d in parent_of.keys() {
        let mut cur = Some(d);
        while let Some(a) = cur {
            descendants.entry(a).or_default().insert(d);
            cur = parent_of[&a];
        }
    }
    let engine = QueryEngine::new(&store);
    for (id, expected) in descendants {
        let name = store.resource_by_id(id).unwrap().unwrap().name;
        let filter = ResourceFilter::by_name(&name).relatives(Relatives::Descendants);
        assert_eq!(engine.family(&filter).unwrap(), expected, "{name}");
    }

    let report = verify_store(&store, true).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
