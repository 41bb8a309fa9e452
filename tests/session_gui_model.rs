//! Figure 3 / Figure 4 behaviours: the selection dialog and main-window
//! model must reproduce every interaction the paper describes for the
//! GUI — type menus, incremental child expansion with scope restriction,
//! attribute viewers, live match counts, D/A/B/N relatives editing, the
//! two-step free-resource column selection, sorting, filtering, chart
//! plotting, and CSV export/import round-trips.

use perftrack::{PTDataStore, SelectionDialog};
use perftrack_adapters::{self as adapters, ExecContext};
use perftrack_collect::MachineModel;
use perftrack_model::prelude::*;
use perftrack_workloads as wl;

fn study_store() -> PTDataStore {
    let store = PTDataStore::in_memory().unwrap();
    store
        .load_statements(&MachineModel::frost().to_ptdf(2))
        .unwrap();
    store
        .load_statements(&MachineModel::mcr().to_ptdf(2))
        .unwrap();
    for bundle in wl::irs_purple(17, 2) {
        let files: Vec<(String, String)> = bundle
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        store
            .load_statements(&adapters::irs::convert(&ctx, &files).unwrap())
            .unwrap();
    }
    store
}

#[test]
fn fig3_type_menu_and_name_lists() {
    let store = study_store();
    let dialog = SelectionDialog::new(&store);
    let menu = dialog.resource_type_menu();
    // Base types plus hierarchies appear.
    for t in [
        "application",
        "grid/machine",
        "build/module/function",
        "metric",
    ] {
        assert!(menu.contains(&t.to_string()), "{t} missing from menu");
    }
    // Selecting a type lists names with counts; "batch" spans machines.
    let names = dialog.names_for_type("grid/machine/partition").unwrap();
    let batch = names.iter().find(|(n, _)| n == "batch").unwrap();
    assert_eq!(batch.1, 2, "batch exists on both machines");
    // Function names from the IRS load appear under the function type.
    let funcs = dialog.names_for_type("build/module/function").unwrap();
    assert!(funcs.iter().any(|(n, _)| n == "rmatmult3"));
}

#[test]
fn fig3_child_expansion_restricts_scope() {
    // "Choosing a resource name as a child of another resource name
    // restricts the subset" — the Frost/batch example from the paper.
    let store = study_store();
    let dialog = SelectionDialog::new(&store);
    let top = dialog.children_of_name("batch").unwrap();
    let frost_only = dialog.children_of_name("Frost/batch").unwrap();
    // Top-level expansion covers nodes on both machines; the restricted
    // one covers only Frost's.
    let top_total: usize = top.iter().map(|(_, c)| c).sum();
    let frost_total: usize = frost_only.iter().map(|(_, c)| c).sum();
    assert!(top_total > frost_total);
    assert!(frost_only
        .iter()
        .all(|(n, _)| n.starts_with("Frost/batch/")));
}

#[test]
fn fig3_attribute_viewer_multi_resource() {
    let store = study_store();
    let dialog = SelectionDialog::new(&store);
    // "p0" refers to processors on both machines; the viewer lists each
    // resource's attributes separately.
    let rows = dialog.attribute_viewer("p0").unwrap();
    let machines: std::collections::BTreeSet<&str> = rows
        .iter()
        .map(|(name, _, _)| {
            if name.contains("Frost") {
                "Frost"
            } else {
                "MCR"
            }
        })
        .collect();
    assert_eq!(machines.len(), 2);
    assert!(rows.iter().any(|(_, a, v)| a == "vendor" && v == "IBM"));
    assert!(rows.iter().any(|(_, a, v)| a == "vendor" && v == "Intel"));
}

#[test]
fn fig3_live_counts_and_relatives_editing() {
    let store = study_store();
    let mut dialog = SelectionDialog::new(&store);
    dialog.add_name("rmatmult3", Relatives::Descendants);
    let one = dialog.counts().unwrap();
    assert!(one.whole > 0);
    // Add a machine restriction that matches nothing at first (machines
    // aren't in IRS contexts), then widen via the relatives flag — the
    // tailoring loop the live counts exist for.
    dialog.add_name("MCR", Relatives::Neither);
    assert_eq!(dialog.counts().unwrap().whole, 0);
    dialog.set_relatives(1, Relatives::Descendants).unwrap();
    // Still zero: processor resources aren't in IRS timing contexts
    // either. Remove the family.
    dialog.remove(1);
    assert_eq!(dialog.counts().unwrap().whole, one.whole);
    // Relatives code is reflected in the label.
    assert!(dialog.selected()[0].label.ends_with("[D]"));
}

#[test]
fn fig4_two_step_columns_sort_filter_export() {
    let store = study_store();
    let mut dialog = SelectionDialog::new(&store);
    dialog.add_name("rmatmult3", Relatives::Neither);
    let mut table = dialog.retrieve().unwrap();
    let n = table.len();
    assert!(n > 0);

    // Step 2: the addable columns list only types whose values vary.
    let addable = table.addable_columns().unwrap();
    assert!(
        addable.iter().any(|c| c.type_path == "execution"),
        "execution runs vary across rows: {addable:?}"
    );
    table.add_resource_column("execution");
    assert!(table.columns().contains(&"execution".to_string()));

    // Sort by value descending; verify order.
    table.sort_by(2, false).unwrap();
    let rendered = table.render().unwrap();
    let vals: Vec<f64> = rendered.iter().map(|r| r[2].parse().unwrap()).collect();
    assert!(
        vals.windows(2).all(|w| w[0] >= w[1]),
        "descending: {vals:?}"
    );

    // Filter by metric, then clear.
    table.filter_metric("CPU_time (max)");
    assert!(table.len() < n);
    assert!(table
        .render()
        .unwrap()
        .iter()
        .all(|r| r[1] == "CPU_time (max)"));
    table.clear_filters();
    assert_eq!(table.len(), n);

    // CSV export: header + row per visible result; parseable back.
    let csv = table.to_csv().unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), n + 1);
    assert!(lines[0].starts_with("execution,metric,value,units,tool"));

    // Chart the table (Figure 5's pathway): category=execution col,
    // series=metric col.
    let exec_col = table
        .columns()
        .iter()
        .position(|c| c == "execution")
        .unwrap();
    let chart = table.chart("per-exec", exec_col, 1).unwrap();
    assert_eq!(chart.categories.len(), 2, "two executions loaded");
    assert!(!chart.series.is_empty());
    let svg = chart.to_svg(640, 400);
    assert!(svg.contains("</svg>"));
}

#[test]
fn machine_level_only_queries_via_bare_type() {
    // "Users can also add a resource type to the query list without
    // specifying a name ... to get only machine-level measurements."
    let store = study_store();
    // Add one machine-level result so the distinction is observable.
    store
        .load_ptdf_str(
            "Application IRS\nExecution probe IRS\nPerfResult probe /MCRGrid/MCR(primary) Probe \"machine check\" 1.0 ok\n",
        )
        .unwrap();
    let mut dialog = SelectionDialog::new(&store);
    dialog.add_type(&TypePath::new("grid/machine").unwrap());
    let table = dialog.retrieve().unwrap();
    assert_eq!(table.len(), 1);
    assert_eq!(&*table.rows()[0].metric, "machine check");
}
