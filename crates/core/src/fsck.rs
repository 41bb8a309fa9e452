//! Logical integrity verification for a PerfTrack store.
//!
//! The storage engine's `check` module verifies the physical layers:
//! slotted pages, B+trees, the WAL, and the catalog. This module layers
//! the PerfTrack-specific invariants of the paper's Figure 1 schema on
//! top and appends its findings to the same
//! [`FsckReport`], so `pt fsck`
//! emits one unified report:
//!
//! * **Closure table** — `resource_has_ancestor` must equal the
//!   transitive closure of `resource_item.parent_id` (excluding
//!   self-pairs); `verify_closure` recomputes it (codes `closure.*`).
//! * **Referential integrity** — every foreign key in the schema must
//!   resolve to a live row (`ref.dangling`), and key columns must hold
//!   integers, with `NULL` allowed only where the schema says a root is
//!   legal (`ref.type`).
//! * **Foci are values** — every `focus` row is linked by at least one
//!   `result_has_focus` row (`focus.orphan`), and no two foci name the
//!   same resources in the same order (`focus.duplicate`). Both are
//!   warnings: reads stay correct, but the loader's intern map and
//!   `delete_execution` keep neither from happening.

use crate::datastore::PTDataStore;
use crate::error::Result;
use crate::schema::col;
pub use perftrack_store::check::{Finding, FsckReport, Severity};

use perftrack_store::{RowId, ScanIter, TableId, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Verify a whole store: the storage engine's structural fsck plus the
/// PerfTrack logical checks described in the module docs.
///
/// `deep` is forwarded to the engine (index-entry ↔ row bijection
/// checks); the logical checks always run in full — they are linear in
/// the closure-table size either way.
pub fn verify_store(store: &PTDataStore, deep: bool) -> Result<FsckReport> {
    let mut report = store.db().verify(deep)?;
    let _committed = store.db().read();
    check_closure(store, &mut report)?;
    check_references(store, &mut report)?;
    check_foci(store, &mut report)?;
    Ok(report)
}

/// Extract an integer key column, reporting `ref.type` when the value is
/// neither an integer nor an allowed `NULL`. Returns `Ok(None)` for an
/// allowed `NULL`, `Err(())` after reporting.
fn key_of(
    report: &mut FsckReport,
    object: &str,
    rid: RowId,
    value: &Value,
    nullable: bool,
) -> std::result::Result<Option<i64>, ()> {
    match value {
        Value::Null if nullable => Ok(None),
        v => match v.as_int() {
            Ok(id) => Ok(Some(id)),
            Err(_) => {
                report.push(Finding::external(
                    "ref.type",
                    Severity::Error,
                    object,
                    format!("row {rid:?}: expected an integer key, found {v:?}"),
                ));
                Err(())
            }
        },
    }
}

/// Rebuild the expected resource hierarchy closure from
/// `resource_item.parent_id` and diff it against the materialized
/// `resource_has_ancestor` table.
fn check_closure(store: &PTDataStore, report: &mut FsckReport) -> Result<()> {
    let db = store.db();
    let s = store.schema();

    let mut nodes: Vec<(i64, Option<i64>)> = Vec::new();
    for item in db.scan_iter(s.resource_item)? {
        let (rid, row) = item?;
        let Ok(Some(id)) = key_of(
            report,
            "resource_item.id",
            rid,
            &row[col::resource_item::ID],
            false,
        ) else {
            continue;
        };
        let Ok(parent) = key_of(
            report,
            "resource_item.parent_id",
            rid,
            &row[col::resource_item::PARENT_ID],
            true,
        ) else {
            continue;
        };
        nodes.push((id, parent));
    }

    use col::resource_has_ancestor::{ANCESTOR_ID, RESOURCE_ID};
    let mut ancestors = Vec::new();
    for item in db.scan_iter(s.resource_has_ancestor)? {
        let (rid, row) = item?;
        let [node, ancestor] = [RESOURCE_ID, ANCESTOR_ID]
            .map(|c| key_of(report, "resource_has_ancestor", rid, &row[c], false));
        if let (Ok(Some(node)), Ok(Some(ancestor))) = (node, ancestor) {
            ancestors.push((node, ancestor));
        }
    }

    verify_closure(&nodes, &ancestors, report);
    Ok(())
}

fn closure_finding(code: &'static str, severity: Severity, detail: String) -> Finding {
    Finding::external(code, severity, "closure", detail)
}

fn push_pair_diffs(
    report: &mut FsckReport,
    code: &'static str,
    mut pairs: Vec<(i64, i64)>,
    what: &str,
) {
    pairs.sort_unstable();
    for (node, anc) in pairs {
        let detail = format!("{what}: ({node}, {anc})");
        report.push(closure_finding(code, Severity::Error, detail));
    }
}

/// Verify a parent-pointer hierarchy against its materialized closure.
///
/// `nodes` is the base relation `(id, parent_id)`; `ancestors` holds
/// `(node, ancestor)` pairs, excluding self-pairs (the convention the
/// loader maintains). The expected closure is recomputed by walking parent
/// chains; cycles and dangling parents are findings of their own.
fn verify_closure(nodes: &[(i64, Option<i64>)], ancestors: &[(i64, i64)], report: &mut FsckReport) {
    let parent: HashMap<i64, Option<i64>> = nodes.iter().copied().collect();
    if parent.len() != nodes.len() {
        let detail = format!(
            "{} duplicate node id(s) in the base relation",
            nodes.len() - parent.len()
        );
        report.push(closure_finding("closure.node-dup", Severity::Error, detail));
    }
    let mut expected: HashSet<(i64, i64)> = HashSet::new();
    for &(id, p) in nodes {
        let mut cur = p;
        let mut steps = 0usize;
        while let Some(a) = cur {
            let Some(&next) = parent.get(&a) else {
                let detail = format!("node {id}: ancestor chain reaches unknown node {a}");
                report.push(closure_finding("closure.parent", Severity::Error, detail));
                break;
            };
            expected.insert((id, a));
            steps += 1;
            if steps > nodes.len() {
                let detail = format!("node {id}: parent chain does not terminate (cycle)");
                report.push(closure_finding("closure.cycle", Severity::Error, detail));
                break;
            }
            cur = next;
        }
    }
    let actual: HashSet<(i64, i64)> = ancestors.iter().copied().collect();
    if actual.len() != ancestors.len() {
        let detail = format!(
            "{} duplicate ancestor pair(s)",
            ancestors.len() - actual.len()
        );
        report.push(closure_finding("closure.dup", Severity::Warning, detail));
    }
    push_pair_diffs(
        report,
        "closure.missing",
        expected.difference(&actual).copied().collect(),
        "pair derivable from parents but absent from resource_has_ancestor",
    );
    push_pair_diffs(
        report,
        "closure.extra",
        actual.difference(&expected).copied().collect(),
        "resource_has_ancestor pair not derivable from parents",
    );
}

/// One foreign-key constraint of the Figure 1 schema.
struct FkCheck {
    /// `table.column`, used as the finding object.
    object: &'static str,
    /// Which table holds the foreign key.
    table: TableId,
    /// Column ordinal of the key within that table.
    column: usize,
    /// Whether `NULL` marks a legal root (hierarchy parents).
    nullable: bool,
    /// Index into the referenced-id-set list below.
    parent: usize,
}

/// Verify every foreign key of the schema against the live primary-key
/// sets, reporting `ref.dangling` for each unresolved reference.
fn check_references(store: &PTDataStore, report: &mut FsckReport) -> Result<()> {
    let db = store.db();
    let s = store.schema();

    let id_set = |table: TableId, ordinal: usize| -> Result<HashSet<i64>> {
        let mut out = HashSet::new();
        for item in db.scan_iter(table)? {
            if let Ok(id) = item?.1[ordinal].as_int() {
                out.insert(id);
            }
        }
        Ok(out)
    };
    // Primary-key sets, indexed by `FkCheck::parent`.
    let parents: Vec<HashSet<i64>> = vec![
        id_set(s.application, col::application::ID)?,
        id_set(s.focus_framework, col::focus_framework::ID)?,
        id_set(s.resource_item, col::resource_item::ID)?,
        id_set(s.metric, col::metric::ID)?,
        id_set(s.performance_tool, col::performance_tool::ID)?,
        id_set(s.execution, col::execution::ID)?,
        id_set(s.performance_result, col::performance_result::ID)?,
        id_set(s.focus, col::focus::ID)?,
    ];
    const APP: usize = 0;
    const FF: usize = 1;
    const RES: usize = 2;
    const METRIC: usize = 3;
    const TOOL: usize = 4;
    const EXEC: usize = 5;
    const RESULT: usize = 6;
    const FOCUS: usize = 7;

    let checks = [
        FkCheck {
            object: "execution.application_id",
            table: s.execution,
            column: col::execution::APPLICATION_ID,
            nullable: false,
            parent: APP,
        },
        FkCheck {
            object: "focus_framework.parent_id",
            table: s.focus_framework,
            column: col::focus_framework::PARENT_ID,
            nullable: true,
            parent: FF,
        },
        FkCheck {
            object: "resource_item.focus_framework_id",
            table: s.resource_item,
            column: col::resource_item::FOCUS_FRAMEWORK_ID,
            nullable: false,
            parent: FF,
        },
        FkCheck {
            object: "resource_item.parent_id",
            table: s.resource_item,
            column: col::resource_item::PARENT_ID,
            nullable: true,
            parent: RES,
        },
        FkCheck {
            object: "resource_attribute.resource_id",
            table: s.resource_attribute,
            column: col::resource_attribute::RESOURCE_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "resource_constraint.resource1_id",
            table: s.resource_constraint,
            column: col::resource_constraint::RESOURCE1_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "resource_constraint.resource2_id",
            table: s.resource_constraint,
            column: col::resource_constraint::RESOURCE2_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "resource_has_ancestor.resource_id",
            table: s.resource_has_ancestor,
            column: col::resource_has_ancestor::RESOURCE_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "resource_has_ancestor.ancestor_id",
            table: s.resource_has_ancestor,
            column: col::resource_has_ancestor::ANCESTOR_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "performance_result.execution_id",
            table: s.performance_result,
            column: col::performance_result::EXECUTION_ID,
            nullable: false,
            parent: EXEC,
        },
        FkCheck {
            object: "performance_result.metric_id",
            table: s.performance_result,
            column: col::performance_result::METRIC_ID,
            nullable: false,
            parent: METRIC,
        },
        FkCheck {
            object: "performance_result.tool_id",
            table: s.performance_result,
            column: col::performance_result::TOOL_ID,
            nullable: false,
            parent: TOOL,
        },
        FkCheck {
            object: "result_has_focus.result_id",
            table: s.result_has_focus,
            column: col::result_has_focus::RESULT_ID,
            nullable: false,
            parent: RESULT,
        },
        FkCheck {
            object: "result_has_focus.focus_id",
            table: s.result_has_focus,
            column: col::result_has_focus::FOCUS_ID,
            nullable: false,
            parent: FOCUS,
        },
        FkCheck {
            object: "focus_has_resource.focus_id",
            table: s.focus_has_resource,
            column: col::focus_has_resource::FOCUS_ID,
            nullable: false,
            parent: FOCUS,
        },
        FkCheck {
            object: "focus_has_resource.resource_id",
            table: s.focus_has_resource,
            column: col::focus_has_resource::RESOURCE_ID,
            nullable: false,
            parent: RES,
        },
    ];

    for c in &checks {
        check_fk(report, db.scan_iter(c.table)?, c, &parents[c.parent])?;
    }
    Ok(())
}

/// Report foci no link references (`focus.orphan`) and foci naming the
/// same ordered resource list as a lower-numbered one (`focus.duplicate`).
/// Keys that are not integers are `ref.type` findings already.
fn check_foci(store: &PTDataStore, report: &mut FsckReport) -> Result<()> {
    let db = store.db();
    let s = store.schema();
    let mut lists: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for item in db.scan_iter(s.focus)? {
        if let Ok(id) = item?.1[col::focus::ID].as_int() {
            lists.insert(id, Vec::new());
        }
    }
    for item in db.scan_iter(s.focus_has_resource)? {
        let (_, row) = item?;
        let focus = row[col::focus_has_resource::FOCUS_ID].as_int();
        let resource = row[col::focus_has_resource::RESOURCE_ID].as_int();
        if let (Ok(focus), Ok(resource)) = (focus, resource) {
            if let Some(list) = lists.get_mut(&focus) {
                list.push(resource);
            }
        }
    }
    let mut linked = HashSet::new();
    for item in db.scan_iter(s.result_has_focus)? {
        if let Ok(id) = item?.1[col::result_has_focus::FOCUS_ID].as_int() {
            linked.insert(id);
        }
    }
    let mut first: HashMap<&[i64], i64> = HashMap::with_capacity(lists.len());
    for (&id, list) in &lists {
        if !linked.contains(&id) {
            report.push(Finding::external(
                "focus.orphan",
                Severity::Warning,
                "focus",
                format!("focus {id}: no result_has_focus row links it"),
            ));
        }
        if let Some(&kept) = first.get(list.as_slice()) {
            report.push(Finding::external(
                "focus.duplicate",
                Severity::Warning,
                "focus",
                format!("focus {id} names the same resources, in order, as focus {kept}"),
            ));
        } else {
            first.insert(list, id);
        }
    }
    Ok(())
}

/// Check one foreign-key column of one table against its parent-id set,
/// streaming the table one page at a time.
fn check_fk(
    report: &mut FsckReport,
    rows: ScanIter<'_>,
    c: &FkCheck,
    parents: &HashSet<i64>,
) -> Result<()> {
    for item in rows {
        let (rid, row) = item?;
        let Ok(Some(id)) = key_of(report, c.object, rid, &row[c.column], c.nullable) else {
            continue;
        };
        if !parents.contains(&id) {
            report.push(Finding::external(
                "ref.dangling",
                Severity::Error,
                c.object,
                format!("row {rid:?}: value {id} references no live row"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastore::PTDataStore;

    const GOOD: &str = "\
Application IRS
Execution irs-mcr-008 IRS
Resource /MCRGrid grid
Resource /MCRGrid/MCR grid/machine
Resource /MCRGrid/MCR/batch grid/machine/partition
Resource /MCRGrid/MCR/batch/n1 grid/machine/partition/node
ResourceAttribute /MCRGrid/MCR/batch/n1 os linux string
PerfResult irs-mcr-008 /MCRGrid/MCR/batch/n1(primary) IRS \"CPU time\" 42.5 seconds
";

    fn loaded_store() -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_str(GOOD).unwrap();
        store
    }

    #[test]
    fn clean_store_verifies_clean() {
        let store = loaded_store();
        let report = verify_store(&store, true).unwrap();
        assert_eq!(report.error_count(), 0, "unexpected: {}", report.summary());
    }

    #[test]
    fn dangling_foreign_key_detected() {
        let store = loaded_store();
        let s = *store.schema();
        let mut txn = store.db().begin();
        txn.insert(
            s.execution,
            vec![
                Value::Int(999_000),
                Value::Text("ghost-run".into()),
                Value::Int(424_242), // no such application
            ],
        )
        .unwrap();
        txn.commit().unwrap();

        let report = verify_store(&store, false).unwrap();
        assert!(report.error_count() > 0);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "ref.dangling" && f.object == "execution.application_id"));
    }

    #[test]
    fn closure_table_drift_detected() {
        let store = loaded_store();
        let s = *store.schema();

        // Forge an extra ancestor pair that the parent chain does not imply:
        // claim cpu0 is its own sibling's descendant. Any two live resource
        // ids that are not in an ancestor relationship will do; easiest is
        // to reverse an existing pair.
        let (_rid, row) = store
            .db()
            .scan_iter(s.resource_has_ancestor)
            .unwrap()
            .next()
            .expect("loader materialized at least one ancestor pair")
            .unwrap();
        let node = row[col::resource_has_ancestor::RESOURCE_ID]
            .as_int()
            .unwrap();
        let anc = row[col::resource_has_ancestor::ANCESTOR_ID]
            .as_int()
            .unwrap();
        let mut txn = store.db().begin();
        txn.insert(
            s.resource_has_ancestor,
            vec![Value::Int(anc), Value::Int(node)],
        )
        .unwrap();
        txn.commit().unwrap();

        let report = verify_store(&store, false).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "closure.extra" || f.code == "closure.cycle"));
    }

    #[test]
    fn closure_consistency_checks() {
        let codes = |nodes: &[(i64, Option<i64>)], anc: &[(i64, i64)]| {
            let mut report = FsckReport::new(false);
            verify_closure(nodes, anc, &mut report);
            report.findings.iter().map(|f| f.code).collect::<Vec<_>>()
        };
        // 1 → 2 → 3 chain (3's parent is 2, 2's parent is 1).
        let nodes = [(1, None), (2, Some(1)), (3, Some(2))];
        assert!(codes(&nodes, &[(2, 1), (3, 2), (3, 1)]).is_empty());
        // Missing pair (3, 1).
        assert_eq!(codes(&nodes, &[(2, 1), (3, 2)]), ["closure.missing"]);
        // Extra pair (1, 3): 3 is not an ancestor of 1.
        let extra = codes(&nodes, &[(2, 1), (3, 2), (3, 1), (1, 3)]);
        assert_eq!(extra, ["closure.extra"]);
        // Cycle: 1's parent is 3.
        let cyc = [(1, Some(3)), (2, Some(1)), (3, Some(2))];
        assert!(codes(&cyc, &[]).contains(&"closure.cycle"));
        // Dangling parent id.
        assert_eq!(codes(&[(1, Some(99))], &[]), ["closure.parent"]);
    }

    #[test]
    fn closure_diffs_count_every_pair() {
        // Thirty children of node 0 and no materialized pairs: thirty
        // pairs are missing, and each is one error.
        let nodes: Vec<(i64, Option<i64>)> = std::iter::once((0, None))
            .chain((1..=30).map(|i| (i, Some(0))))
            .collect();
        let mut report = FsckReport::new(false);
        verify_closure(&nodes, &[], &mut report);
        assert_eq!(report.error_count(), 30);
        assert_eq!(findings_with(&report, "closure.missing").len(), 30);
    }

    fn findings_with<'r>(report: &'r FsckReport, code: &str) -> Vec<&'r Finding> {
        report.findings.iter().filter(|f| f.code == code).collect()
    }

    #[test]
    fn dangling_result_focus_links_detected() {
        let store = loaded_store();
        let s = *store.schema();
        let mut txn = store.db().begin();
        txn.insert(
            s.result_has_focus,
            vec![
                Value::Int(777),
                Value::Int(888),
                Value::Text("primary".into()),
            ],
        )
        .unwrap();
        txn.commit().unwrap();

        let report = verify_store(&store, false).unwrap();
        let dangling: Vec<&str> = findings_with(&report, "ref.dangling")
            .iter()
            .map(|f| f.object.as_str())
            .collect();
        assert_eq!(
            dangling,
            ["result_has_focus.result_id", "result_has_focus.focus_id"]
        );
    }

    #[test]
    fn orphan_focus_detected() {
        let store = loaded_store();
        let s = *store.schema();
        let mut txn = store.db().begin();
        txn.insert(s.focus, vec![Value::Int(500)]).unwrap();
        txn.commit().unwrap();

        let report = verify_store(&store, false).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.summary());
        let orphans = findings_with(&report, "focus.orphan");
        assert_eq!(orphans.len(), 1, "{:?}", report.findings);
        assert_eq!(orphans[0].severity, Severity::Warning);
        assert!(orphans[0].detail.contains("focus 500"), "{:?}", orphans[0]);
    }

    #[test]
    fn duplicate_focus_detected() {
        let store = loaded_store();
        let s = *store.schema();
        // A second, linked focus naming the loaded result's one resource.
        let db = store.db();
        let (_, row) = db
            .scan_iter(s.focus_has_resource)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        let resource = row[col::focus_has_resource::RESOURCE_ID].clone();
        let mut txn = db.begin();
        txn.insert(s.focus, vec![Value::Int(501)]).unwrap();
        txn.insert(s.focus_has_resource, vec![Value::Int(501), resource])
            .unwrap();
        txn.insert(
            s.result_has_focus,
            vec![Value::Int(1), Value::Int(501), Value::Text("parent".into())],
        )
        .unwrap();
        txn.commit().unwrap();

        let report = verify_store(&store, false).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.summary());
        assert!(findings_with(&report, "focus.orphan").is_empty());
        let duplicates = findings_with(&report, "focus.duplicate");
        assert_eq!(duplicates.len(), 1, "{:?}", report.findings);
        assert!(
            duplicates[0].detail.contains("focus 501"),
            "{:?}",
            duplicates[0]
        );
    }

    #[test]
    fn store_with_per_result_foci_is_refused() {
        let dir = std::env::temp_dir().join(format!("pt-old-foci-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            use perftrack_store::{Column, ColumnType, Database};
            let db = Database::open(&dir).unwrap();
            db.create_table(
                "focus",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("result_id", ColumnType::Int),
                    Column::new("focus_type", ColumnType::Text),
                ],
            )
            .unwrap();
        }
        let Err(err) = PTDataStore::open(&dir) else {
            panic!("a store with focus.result_id must be refused");
        };
        assert!(
            matches!(
                &err,
                crate::PtError::Store(perftrack_store::StoreError::SchemaMismatch(m))
                    if m.contains("pt export") && m.contains("pt load")
            ),
            "{err}"
        );
        // Refused before any DDL: the old store is left as it was.
        let db = perftrack_store::Database::open(&dir).unwrap();
        let tables: Vec<String> = db.tables().into_iter().map(|(_, n)| n).collect();
        assert_eq!(tables, ["focus"]);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
