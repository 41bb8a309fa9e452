//! Concurrency and durability at the PerfTrack level: concurrent readers
//! during a bulk load, reopen-after-close, and crash recovery of a
//! partially loaded study.

use perftrack::{PTDataStore, QueryEngine};
use perftrack_adapters::{self as adapters, ExecContext};
use perftrack_model::prelude::*;
use perftrack_ptdf::to_string as ptdf_to_string;
use perftrack_workloads as wl;
use std::sync::Arc;

fn irs_ptdf_texts(seed: u64, execs: usize) -> Vec<String> {
    wl::irs_purple(seed, execs)
        .iter()
        .map(|bundle| {
            let files: Vec<(String, String)> = bundle
                .files
                .iter()
                .map(|f| (f.name.clone(), f.content.clone()))
                .collect();
            let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
            ptdf_to_string(&adapters::irs::convert(&ctx, &files).unwrap())
        })
        .collect()
}

#[test]
fn readers_run_during_bulk_load() {
    let filter = [ResourceFilter::by_name("/IRS").relatives(Relatives::Neither)];
    let texts = irs_ptdf_texts(31, 3);
    // The query's answer after each committed prefix of the loads, from
    // a second store loaded one execution at a time.
    let committed: Vec<usize> = {
        let reference = PTDataStore::in_memory().unwrap();
        texts
            .iter()
            .map(|t| {
                reference.load_ptdf_str(t).unwrap();
                QueryEngine::new(&reference).run(&filter).unwrap().len()
            })
            .collect()
    };
    let store = Arc::new(PTDataStore::in_memory().unwrap());
    // Seed one execution so readers always have data.
    store.load_ptdf_str(&texts[0]).unwrap();
    let baseline = store.result_count().unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let (filter, committed) = (filter.clone(), committed.clone());
            std::thread::spawn(move || {
                let mut iterations = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let n = store.result_count().unwrap();
                    assert!(n >= baseline, "loaded results never disappear");
                    // A query sees a committed prefix of the loads, each
                    // result whole with its context.
                    let rows = QueryEngine::new(&store).run(&filter).unwrap();
                    assert!(
                        committed.contains(&rows.len()),
                        "{} rows; committed prefixes give {committed:?}",
                        rows.len()
                    );
                    assert!(rows.iter().all(|r| !r.context.is_empty()));
                    iterations += 1;
                }
                iterations
            })
        })
        .collect();
    for t in &texts[1..] {
        store.load_ptdf_str(t).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers made progress");
    }
    assert_eq!(store.executions().len(), 3);
}

#[test]
fn durable_store_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("pt-e2e-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let texts = irs_ptdf_texts(41, 2);
    let (results, resources);
    {
        let store = PTDataStore::open(&dir).unwrap();
        for t in &texts {
            store.load_ptdf_str(t).unwrap();
        }
        results = store.result_count().unwrap();
        resources = store.resource_count().unwrap();
    }
    let store = PTDataStore::open(&dir).unwrap();
    assert_eq!(store.result_count().unwrap(), results);
    assert_eq!(store.resource_count().unwrap(), resources);
    // Queries work identically after reopen.
    let engine = QueryEngine::new(&store);
    let rows = engine
        .run(&[ResourceFilter::by_name("rmatmult3").relatives(Relatives::Neither)])
        .unwrap();
    assert!(!rows.is_empty());
    // And new loads continue cleanly (renamed so the execution is new).
    let more = irs_ptdf_texts(42, 1)[0].replace("irs-mcr-0000", "irs-mcr-1000");
    store.load_ptdf_str(&more).unwrap();
    assert_eq!(store.executions().len(), 3);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_loads_preserves_committed_studies() {
    let dir = std::env::temp_dir().join(format!("pt-e2e-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let texts = irs_ptdf_texts(51, 2);
    // The crashing process runs on its own thread: the leaked loader's
    // writer level stays held there, not on the thread that reopens.
    let committed = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let store = PTDataStore::open(&dir).unwrap();
                store.load_ptdf_str(&texts[0]).unwrap();
                let committed = store.result_count().unwrap();
                // Second load starts but "crashes" before commit: simulate
                // by building a loader, applying statements, and leaking
                // everything. The leaked loader holds only staged rows,
                // which are written at commit, so none of them reached
                // the WAL.
                let stmts = perftrack_ptdf::parse_str(&texts[1]).unwrap();
                let mut loader = store.begin_load();
                for s in stmts.iter().take(500) {
                    loader.apply(s).unwrap();
                }
                std::mem::forget(loader);
                std::mem::forget(store);
                committed
            })
            .join()
            .unwrap()
    });
    let store = PTDataStore::open(&dir).unwrap();
    assert_eq!(
        store.result_count().unwrap(),
        committed,
        "only the committed study survives the crash"
    );
    assert_eq!(store.executions().len(), 1);
    // The store is fully usable: reload the second study properly.
    store.load_ptdf_str(&texts[1]).unwrap();
    assert_eq!(store.executions().len(), 2);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_bounds_growth_and_preserves_data() {
    let dir = std::env::temp_dir().join(format!("pt-e2e-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PTDataStore::open(&dir).unwrap();
    let texts = irs_ptdf_texts(61, 2);
    store.load_ptdf_str(&texts[0]).unwrap();
    store.checkpoint().unwrap();
    let wal = dir.join("wal.log");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0, "WAL truncated");
    store.load_ptdf_str(&texts[1]).unwrap();
    assert!(
        std::fs::metadata(&wal).unwrap().len() > 0,
        "WAL grows again"
    );
    assert_eq!(store.executions().len(), 2);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
