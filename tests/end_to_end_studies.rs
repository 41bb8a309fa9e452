//! End-to-end pipeline tests: raw tool output → adapters → PTdf → data
//! store → query engine → session/comparison — the complete flow of each
//! case study, plus a combined store holding all three at once (the
//! paper's core claim: heterogeneous data in a single analysis session).

use perftrack::{Compare, CompareOptions, PTDataStore, QueryEngine, SelectionDialog};
use perftrack_adapters::{self as adapters, ExecContext, ParadynFiles};
use perftrack_collect::MachineModel;
use perftrack_model::prelude::*;
use perftrack_workloads as wl;

fn load_irs(store: &PTDataStore, seed: u64, execs: usize) {
    for bundle in wl::irs_purple(seed, execs) {
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
}

fn load_smg(store: &PTDataStore, seed: u64, uv: usize, bgl: usize) {
    for bundle in wl::smg_uv(seed, uv) {
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        store
            .load_statements(&adapters::smg::convert(&ctx, &bundle.files[0].content).unwrap())
            .unwrap();
        store
            .load_statements(&adapters::mpip::convert(&ctx, &bundle.files[1].content).unwrap())
            .unwrap();
    }
    for bundle in wl::smg_bgl(seed, bgl) {
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        store
            .load_statements(&adapters::smg::convert(&ctx, &bundle.files[0].content).unwrap())
            .unwrap();
    }
}

fn load_paradyn(store: &PTDataStore, seed: u64, execs: usize) {
    for bundle in wl::paradyn_irs(seed, execs, true) {
        let files = ParadynFiles {
            resources: bundle.export.resources.content.clone(),
            index: bundle.export.index.content.clone(),
            histograms: bundle
                .export
                .histograms
                .iter()
                .map(|f| (f.name.clone(), f.content.clone()))
                .collect(),
            shg: Some(bundle.export.shg.content.clone()),
        };
        let ctx = ExecContext::new(&bundle.exec_name, "IRS");
        store
            .load_statements(&adapters::paradyn::convert(&ctx, &files).unwrap())
            .unwrap();
    }
}

#[test]
fn purple_study_pipeline() {
    let store = PTDataStore::in_memory().unwrap();
    store
        .load_statements(&MachineModel::mcr().to_ptdf(2))
        .unwrap();
    store
        .load_statements(&MachineModel::frost().to_ptdf(2))
        .unwrap();
    load_irs(&store, 1, 4);
    assert_eq!(store.executions().len(), 4);
    // Per-execution results in the paper's range.
    let per_exec = store.result_count().unwrap() / 4;
    assert!(
        (1_400..1_700).contains(&per_exec),
        "per-exec results {per_exec}"
    );
    // Navigate: all results for one function on one machine's executions.
    let engine = QueryEngine::new(&store);
    let rows = engine
        .run(&[ResourceFilter::by_name("/IRS-code/irs.c/rmatmult3").relatives(Relatives::Neither)])
        .unwrap();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.metric.contains('(')));
}

#[test]
fn noise_study_pipeline_and_multiset_results() {
    let store = PTDataStore::in_memory().unwrap();
    store
        .load_statements(&MachineModel::uv().to_ptdf(2))
        .unwrap();
    store
        .load_statements(&MachineModel::bgl().to_ptdf(2))
        .unwrap();
    load_smg(&store, 2, 2, 3);
    assert_eq!(store.executions().len(), 5);
    // BG/L executions contribute exactly 8 results each.
    let engine = QueryEngine::new(&store);
    let all = engine.run(&[]).unwrap();
    for i in 0..3 {
        let exec = format!("smg-bgl-{i:04}");
        assert_eq!(
            all.iter().filter(|r| *r.execution == *exec).count(),
            8,
            "{exec}"
        );
    }
    // Caller/callee: querying by a build-hierarchy caller reaches mpiP
    // results whose primary context is an MPI function.
    let rows = engine
        .run(&[ResourceFilter::by_name("/SMG2000-code")])
        .unwrap();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| &*r.tool == "mpiP"));
}

#[test]
fn paradyn_study_pipeline() {
    let store = PTDataStore::in_memory().unwrap();
    load_paradyn(&store, 3, 3);
    assert_eq!(store.executions().len(), 3);
    assert!(store.registry().contains("syncObject"));
    // nan bins were skipped: result counts differ across executions.
    let engine = QueryEngine::new(&store);
    let all = engine.run(&[]).unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for r in &all {
        *counts.entry(r.execution.clone()).or_insert(0usize) += 1;
    }
    assert_eq!(counts.len(), 3);
    let distinct: std::collections::BTreeSet<_> = counts.values().collect();
    assert!(distinct.len() > 1, "counts vary: {counts:?}");
}

#[test]
fn combined_store_single_analysis_session() {
    // The paper's central claim: data from different tools, formats, and
    // machines analyzed in ONE session.
    let store = PTDataStore::in_memory().unwrap();
    for m in [
        MachineModel::mcr(),
        MachineModel::frost(),
        MachineModel::uv(),
        MachineModel::bgl(),
    ] {
        store.load_statements(&m.to_ptdf(2)).unwrap();
    }
    load_irs(&store, 10, 2);
    load_smg(&store, 10, 1, 1);
    load_paradyn(&store, 10, 1);
    let engine = QueryEngine::new(&store);
    let all = engine.run(&[]).unwrap();
    let tools: std::collections::BTreeSet<_> = all.iter().map(|r| &*r.tool).collect();
    assert!(tools.contains("IRS"));
    assert!(tools.contains("SMG2000"));
    assert!(tools.contains("PMAPI"));
    assert!(tools.contains("mpiP"));
    assert!(tools.contains("Paradyn"));
    // Cross-tool query: every result for the execution/process type.
    let dialog = SelectionDialog::new(&store);
    let menu = dialog.resource_type_menu();
    assert!(
        menu.contains(&"syncObject".to_string()),
        "extended types visible"
    );
    // Export the combined store and reload it elsewhere — granularity of
    // exchange is statements, not opaque files.
    let exported = store.export_ptdf().unwrap();
    let store2 = PTDataStore::in_memory().unwrap();
    store2.load_statements(&exported).unwrap();
    assert_eq!(
        store.result_count().unwrap(),
        store2.result_count().unwrap()
    );
    assert_eq!(
        store.resource_count().unwrap(),
        store2.resource_count().unwrap()
    );
}

#[test]
fn ptdfgen_batch_conversion_roundtrip() {
    // The §3.3 PTdfGen flow: one directory, one index file, full convert.
    let mut files: Vec<(String, String)> = Vec::new();
    for bundle in wl::irs_purple(4, 2) {
        for f in &bundle.files {
            files.push((f.name.clone(), f.content.clone()));
        }
    }
    let entries: Vec<adapters::IndexEntry> = wl::irs_purple(4, 2)
        .iter()
        .map(|b| adapters::IndexEntry {
            execution: b.exec_name.clone(),
            application: b.application.clone(),
            concurrency: "MPI".into(),
            processes: b.np,
            threads: 1,
            build_timestamp: "2005-05-01T00:00:00".into(),
            run_timestamp: "2005-05-02T00:00:00".into(),
        })
        .collect();
    let index = adapters::write_index(&entries);
    let converted = adapters::generate_all(&index, &files).unwrap();
    assert_eq!(converted.len(), 2);
    let store = PTDataStore::in_memory().unwrap();
    for (_, stmts) in &converted {
        store.load_statements(stmts).unwrap();
    }
    assert_eq!(store.executions().len(), 2);
    assert!(store.result_count().unwrap() > 2_000);
}

#[test]
fn cross_platform_comparison_after_combined_load() {
    let store = PTDataStore::in_memory().unwrap();
    load_irs(&store, 8, 4); // alternates MCR / Frost
    let compare = Compare::new(&store);
    let execs = store.executions();
    let (a, b) = (&execs[0].1, &execs[1].1);
    let report = compare
        .tree_compare(&[a, b], &CompareOptions::default())
        .unwrap();
    assert!(report.aligned_cells > 500, "rich alignment across machines");
    assert!(report.geo_mean_ratio().is_some());
}

#[test]
fn build_and_run_capture_integrate() {
    let store = PTDataStore::in_memory().unwrap();
    let runner = perftrack_collect::simulated_irs_build();
    let build = perftrack_collect::capture_build(
        &runner,
        "b1",
        "IRS",
        &["-f", "Makefile.irs"],
        &[("PATH".into(), "/usr/bin".into())],
    )
    .unwrap();
    store
        .load_statements(&perftrack_collect::build_to_ptdf(&build))
        .unwrap();
    let run = perftrack_collect::RunInfo::simulated("e1", "IRS", 4);
    store
        .load_statements(&perftrack_collect::run_to_ptdf(&run))
        .unwrap();
    // Both hierarchies exist in one store, tied to the same application.
    assert!(store.resource_id("/b1").is_some());
    assert!(store.resource_id("/e1-env/libmpi.so").is_some());
    assert!(store.resource_id("/zrad.4").is_some());
    let engine = QueryEngine::new(&store);
    let fam = engine
        .family(&ResourceFilter::by_type(
            TypePath::new("inputDeck").unwrap(),
        ))
        .unwrap();
    assert_eq!(fam.len(), 1);
}
