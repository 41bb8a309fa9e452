//! `PTDataStore::export_ptdf` gives back every `PerfResult` exactly as it
//! was loaded: same order, same resource sets, sets in their order and
//! resources in theirs. A focus is stored once and shared by every result
//! naming the same resources, so this is checked against the input
//! statements themselves — SMG-UV with mpiP's `(parent)` sets, IRS, and a
//! small Paradyn execution — not against a golden, and again after
//! `delete_execution` (which compacts the touched tables) and a reload
//! into the slots it freed.

use perftrack::PTDataStore;
use perftrack_adapters::{self as adapters, ExecContext, ParadynFiles};
use perftrack_ptdf::PtdfStatement;
use perftrack_workloads as wl;

/// One batch of statements per execution, in load order.
fn inputs() -> Vec<(String, Vec<PtdfStatement>)> {
    let mut out = Vec::new();
    for bundle in wl::smg_uv(11, 2) {
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        let mut stmts = adapters::smg::convert(&ctx, &bundle.files[0].content).unwrap();
        stmts.extend(adapters::mpip::convert(&ctx, &bundle.files[1].content).unwrap());
        out.push((bundle.exec_name.clone(), stmts));
    }
    for bundle in wl::irs_purple(11, 1) {
        let files: Vec<(String, String)> = bundle
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        out.push((
            bundle.exec_name.clone(),
            adapters::irs::convert(&ctx, &files).unwrap(),
        ));
    }
    for bundle in wl::paradyn_irs(11, 1, true) {
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
        out.push((
            bundle.exec_name.clone(),
            adapters::paradyn::convert(&ctx, &files).unwrap(),
        ));
    }
    out
}

fn perf_results<'a>(stmts: impl IntoIterator<Item = &'a PtdfStatement>) -> Vec<&'a PtdfStatement> {
    stmts
        .into_iter()
        .filter(|s| matches!(s, PtdfStatement::PerfResult { .. }))
        .collect()
}

/// No error, no orphan or duplicate focus, and no B+tree node below half
/// fill: a delete repacks the trees of the tables it deleted from.
fn assert_clean(store: &PTDataStore) {
    let report = store.fsck(true).unwrap();
    assert_eq!(report.error_count(), 0, "{}", report.summary());
    let found: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code.starts_with("focus.") || f.code == "tree.fill")
        .collect();
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn export_returns_every_result_as_loaded() {
    let inputs = inputs();
    let store = PTDataStore::in_memory().unwrap();
    for (_, stmts) in &inputs {
        store.load_statements(stmts).unwrap();
    }
    let loaded = perf_results(inputs.iter().flat_map(|(_, s)| s));
    let multi_set = loaded.iter().any(|s| {
        matches!(s, PtdfStatement::PerfResult { resource_sets, .. }
            if resource_sets.iter().any(|set| set.set_type == "parent"))
    });
    assert!(multi_set, "the input has results with a (parent) set");
    let exported = store.export_ptdf().unwrap();
    assert_eq!(perf_results(&exported), loaded);
}

#[test]
fn export_stays_faithful_after_delete_and_reload() {
    let inputs = inputs();
    let store = PTDataStore::in_memory().unwrap();
    for (_, stmts) in &inputs {
        store.load_statements(stmts).unwrap();
    }
    // The first SMG-UV execution shares foci with the second one; the
    // Paradyn execution was loaded last, so its rows end every table and
    // a reload goes into the slots its delete freed.
    let (first, last) = (&inputs[0], &inputs[inputs.len() - 1]);
    store.delete_execution(&first.0).unwrap();
    store.delete_execution(&last.0).unwrap();
    let kept = perf_results(inputs[1..inputs.len() - 1].iter().flat_map(|(_, s)| s));
    assert_eq!(perf_results(&store.export_ptdf().unwrap()), kept);
    assert_clean(&store);

    // Reloaded, their results come back in load order, after everything
    // loaded before.
    store.load_statements(&last.1).unwrap();
    store.load_statements(&first.1).unwrap();
    let mut expected = kept;
    expected.extend(perf_results(&last.1));
    expected.extend(perf_results(&first.1));
    assert_eq!(perf_results(&store.export_ptdf().unwrap()), expected);
    assert_clean(&store);
}
