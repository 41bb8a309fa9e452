//! Figures 10–11: Paradyn's resource hierarchy and its mapping into the
//! PerfTrack type system, verified end to end on generated exports.

use perftrack::{PTDataStore, QueryEngine};
use perftrack_adapters::{paradyn, ExecContext, ParadynFiles};
use perftrack_model::prelude::*;
use perftrack_workloads::paradyn::{generate, ParadynConfig};

fn load_one(store: &PTDataStore, exec: &str, seed: u64) {
    let e = generate(&ParadynConfig::small(exec, seed));
    let files = ParadynFiles {
        resources: e.resources.content,
        index: e.index.content,
        histograms: e
            .histograms
            .into_iter()
            .map(|f| (f.name, f.content))
            .collect(),
        shg: Some(e.shg.content),
    };
    let ctx = ExecContext::new(exec, "IRS");
    store
        .load_statements(&paradyn::convert(&ctx, &files).unwrap())
        .unwrap();
}

#[test]
fn fig10_paradyn_hierarchy_recognized() {
    // The generator produces the three Paradyn top-level hierarchies of
    // Figure 10: Code, Machine, SyncObject.
    let e = generate(&ParadynConfig::small("x", 1));
    let roots: std::collections::BTreeSet<&str> = e
        .resources
        .content
        .lines()
        .filter_map(|l| l.trim_start_matches('/').split('/').next())
        .filter(|s| !s.is_empty())
        .collect();
    assert_eq!(
        roots,
        ["Code", "Machine", "SyncObject"].into_iter().collect()
    );
}

#[test]
fn fig11_code_maps_to_build() {
    let store = PTDataStore::in_memory().unwrap();
    load_one(&store, "pd1", 1);
    // Every /Code path landed in the build hierarchy under /IRS-pd.
    let engine = QueryEngine::new(&store);
    let funcs = engine
        .family(&ResourceFilter::by_type(
            TypePath::new("build/module/function").unwrap(),
        ))
        .unwrap();
    assert!(!funcs.is_empty());
    for id in funcs {
        let rec = store.resource_by_id(id).unwrap().unwrap();
        assert!(rec.name.starts_with("/IRS-pd/"), "{}", rec.name);
    }
}

#[test]
fn fig11_machine_maps_to_execution_with_node_attrs() {
    let store = PTDataStore::in_memory().unwrap();
    load_one(&store, "pd1", 2);
    let engine = QueryEngine::new(&store);
    let procs = engine
        .family(&ResourceFilter::by_type(
            TypePath::new("execution/process").unwrap(),
        ))
        .unwrap();
    assert!(!procs.is_empty());
    for id in &procs {
        let rec = store.resource_by_id(*id).unwrap().unwrap();
        assert!(rec.name.starts_with("/pd1-run/"));
        // The Paradyn machine node became an attribute, not an ancestor.
        let attrs = store.attributes_of(*id).unwrap();
        assert!(
            attrs
                .iter()
                .any(|(n, v, _)| n == "node" && v.starts_with("mcr")),
            "process {} lacks node attribute",
            rec.name
        );
    }
    // Threads hang off processes.
    let threads = engine
        .family(&ResourceFilter::by_type(
            TypePath::new("execution/process/thread").unwrap(),
        ))
        .unwrap();
    assert_eq!(
        threads.len(),
        procs.len(),
        "one thread per process in the fixture"
    );
}

#[test]
fn fig11_syncobject_becomes_new_top_level_hierarchy() {
    let store = PTDataStore::in_memory().unwrap();
    let before: Vec<String> = store
        .registry()
        .all()
        .map(|t| t.as_str().to_string())
        .collect();
    assert!(!before.iter().any(|t| t.starts_with("syncObject")));
    load_one(&store, "pd1", 3);
    let reg = store.registry();
    for t in [
        "syncObject",
        "syncObject/class",
        "syncObject/class/instance",
    ] {
        assert!(reg.contains(t), "{t} not registered");
    }
    // Instances exist for the MPI communicators.
    assert!(store
        .resource_id("/pd1-sync/Message/MPI_COMM_WORLD")
        .is_some());
    assert!(store.resource_id("/pd1-sync/Window").is_some());
}

#[test]
fn fig11_time_hierarchy_bins_shared_across_histograms() {
    let store = PTDataStore::in_memory().unwrap();
    load_one(&store, "pd1", 4);
    let engine = QueryEngine::new(&store);
    let bins = engine
        .family(&ResourceFilter::by_type(
            TypePath::new("time/interval").unwrap(),
        ))
        .unwrap();
    // 6 histograms × 20 bins, but bins are global time slices shared
    // across histograms: at most 20 bin resources exist.
    assert!(!bins.is_empty());
    assert!(bins.len() <= 20, "bins shared, got {}", bins.len());
    // Bin attributes form contiguous intervals.
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    for id in bins {
        let attrs = store.attributes_of(id).unwrap();
        let get = |k: &str| -> f64 {
            attrs
                .iter()
                .find(|(n, _, _)| n == k)
                .map(|(_, v, _)| v.parse().unwrap())
                .unwrap()
        };
        intervals.push((get("start time"), get("end time")));
    }
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for w in intervals.windows(2) {
        assert!((w[0].1 - w[1].0).abs() < 1e-6, "bins must tile time: {w:?}");
    }
}

#[test]
fn results_join_code_machine_and_time() {
    // A single Paradyn result's context spans all the mapped hierarchies
    // its focus named, plus the time bin.
    let store = PTDataStore::in_memory().unwrap();
    load_one(&store, "pd1", 5);
    let engine = QueryEngine::new(&store);
    let rows = engine.run(&[]).unwrap();
    assert!(!rows.is_empty());
    let type_by_id = engine.type_path_by_id().unwrap();
    let mut saw_process_focus = false;
    for row in &rows {
        let mut roots = std::collections::BTreeSet::new();
        for &rid in row.context.iter() {
            let rec = store.resource_by_id(rid).unwrap().unwrap();
            let tp = &type_by_id[&rec.type_id];
            roots.insert(tp.split('/').next().unwrap().to_string());
        }
        assert!(roots.contains("time"), "every result sits in a bin");
        assert!(roots.contains("build"), "every focus names code");
        if roots.contains("execution") {
            saw_process_focus = true;
        }
    }
    assert!(saw_process_focus, "some foci are refined by process");
}
