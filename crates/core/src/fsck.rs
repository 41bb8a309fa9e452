//! Logical integrity verification for a PerfTrack store.
//!
//! The storage engine's `check` module verifies the physical layers:
//! slotted pages, B+trees, the WAL, and the catalog. This module layers
//! the PerfTrack-specific invariants of the paper's Figure 1 schema on
//! top and appends its findings to the same
//! [`FsckReport`], so `pt fsck`
//! emits one unified report:
//!
//! * **Closure tables** — `resource_has_ancestor` must equal the
//!   transitive closure of `resource_item.parent_id` (excluding
//!   self-pairs), and `resource_has_descendant` must mirror it exactly.
//!   Delegated to [`perftrack_store::check::verify_closure`] (codes
//!   `closure.*`).
//! * **Referential integrity** — every foreign key in the schema must
//!   resolve to a live row (`ref.dangling`), and key columns must hold
//!   integers, with `NULL` allowed only where the schema says a root is
//!   legal (`ref.type`).

use crate::datastore::PTDataStore;
use crate::error::Result;
use crate::schema::col;
pub use perftrack_store::check::{Finding, FsckReport, Severity};

use perftrack_store::check::verify_closure;
use perftrack_store::{RowId, ScanIter, TableId, Value};
use std::collections::HashSet;

/// Verify a whole store: the storage engine's structural fsck plus the
/// PerfTrack logical checks described in the module docs.
///
/// `deep` is forwarded to the engine (index-entry ↔ row bijection
/// checks); the logical checks always run in full — they are linear in
/// the closure-table size either way.
pub fn verify_store(store: &PTDataStore, deep: bool) -> Result<FsckReport> {
    let mut report = store.db().verify(deep)?;
    check_closure(store, &mut report)?;
    check_references(store, &mut report)?;
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
/// `resource_has_ancestor` / `resource_has_descendant` tables.
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

    let pairs =
        |table: TableId, object: &str, report: &mut FsckReport| -> Result<Vec<(i64, i64)>> {
            let mut out = Vec::new();
            for item in db.scan_iter(table)? {
                let (rid, row) = item?;
                let a = key_of(report, object, rid, &row[0], false);
                let b = key_of(report, object, rid, &row[1], false);
                if let (Ok(Some(a)), Ok(Some(b))) = (a, b) {
                    out.push((a, b));
                }
            }
            Ok(out)
        };
    let ancestors = pairs(s.resource_has_ancestor, "resource_has_ancestor", report)?;
    let descendants = pairs(s.resource_has_descendant, "resource_has_descendant", report)?;

    for f in verify_closure(&nodes, &ancestors, &descendants) {
        report.push(f);
    }
    Ok(())
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
            object: "resource_has_descendant.resource_id",
            table: s.resource_has_descendant,
            column: col::resource_has_descendant::RESOURCE_ID,
            nullable: false,
            parent: RES,
        },
        FkCheck {
            object: "resource_has_descendant.descendant_id",
            table: s.resource_has_descendant,
            column: col::resource_has_descendant::DESCENDANT_ID,
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
            object: "focus.result_id",
            table: s.focus,
            column: col::focus::RESULT_ID,
            nullable: false,
            parent: RESULT,
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
            .scan(s.resource_has_ancestor)
            .unwrap()
            .into_iter()
            .next()
            .expect("loader materialized at least one ancestor pair");
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
        // The forged pair also breaks the ancestor/descendant mirror.
        assert!(report.findings.iter().any(|f| f.code == "closure.mirror"));
    }
}
