//! Failure injection at the system level: corrupted store files, torn
//! logs, malformed inputs mid-load, and conflicting data must surface as
//! errors (never panics) and must not corrupt previously committed data.

use perftrack::PTDataStore;
use perftrack_model::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-fail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const GOOD: &str = "\
Application A
Execution e1 A
Resource /r application
PerfResult e1 /r(primary) T m 1.5 u
";

#[test]
fn corrupt_catalog_is_detected_on_open() {
    let dir = tmpdir("catalog");
    {
        let store = PTDataStore::open(&dir).unwrap();
        store.load_ptdf_str(GOOD).unwrap();
    }
    // Flip bytes in the middle of the catalog.
    let path = dir.join("catalog.meta");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let err = PTDataStore::open(&dir).err().expect("corruption detected");
    assert!(err.to_string().contains("corruption") || err.to_string().contains("checksum"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ragged_page_file_is_detected_on_open() {
    let dir = tmpdir("pages");
    {
        let store = PTDataStore::open(&dir).unwrap();
        store.load_ptdf_str(GOOD).unwrap();
    }
    // Truncate the page file to a non-page-multiple length.
    let path = dir.join("pages.db");
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 100).unwrap();
    drop(f);
    assert!(PTDataStore::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_wal_tail_is_ignored_cleanly() {
    let dir = tmpdir("wal");
    {
        let store = PTDataStore::open(&dir).unwrap();
        store.load_ptdf_str(GOOD).unwrap();
        store.checkpoint().unwrap();
        // Append garbage to the (now empty) WAL, simulating a torn write.
        std::mem::forget(store);
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02]);
    std::fs::write(&wal, &bytes).unwrap();
    let store = PTDataStore::open(&dir).unwrap();
    assert_eq!(store.result_count().unwrap(), 1, "committed data intact");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_document_error_rolls_back_whole_load() {
    let store = PTDataStore::in_memory().unwrap();
    store.load_ptdf_str(GOOD).unwrap();
    let before = store.result_count().unwrap();
    // A document whose 4th statement references a missing resource: the
    // whole document must roll back (load is transactional).
    let bad = "\
Application B
Execution e2 B
PerfResult e2 /r(primary) T m 2.0 u
PerfResult e2 /ghost(primary) T m 3.0 u
";
    assert!(store.load_ptdf_str(bad).is_err());
    assert_eq!(store.result_count().unwrap(), before, "no partial load");
    assert!(
        store.execution_id("e2").is_none(),
        "rolled-back execution not visible"
    );
    // The store remains usable.
    store
        .load_ptdf_str("Application B\nExecution e2 B\nPerfResult e2 /r(primary) T m 2.0 u\n")
        .unwrap();
    assert_eq!(store.result_count().unwrap(), before + 1);
}

#[test]
fn syntax_error_reports_line_and_loads_nothing() {
    let store = PTDataStore::in_memory().unwrap();
    let doc = "Application A\nNotAStatement x y\n";
    let err = store.load_ptdf_str(doc).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    assert_eq!(store.db().row_count(store.schema().application).unwrap(), 0);
}

#[test]
fn conflicting_resource_type_rejected_without_damage() {
    let store = PTDataStore::in_memory().unwrap();
    store.load_ptdf_str(GOOD).unwrap();
    // /r exists as an application; redefining it as a grid must fail.
    let err = store.load_ptdf_str("Resource /r grid\n").unwrap_err();
    assert!(err.to_string().contains("type"), "{err}");
    // Original type intact.
    let rec = store.resource_by_name("/r").unwrap().unwrap();
    let types = perftrack::QueryEngine::new(&store)
        .type_path_by_id()
        .unwrap();
    assert_eq!(types[&rec.type_id], "application");
}

#[test]
fn queries_on_unknown_entities_error_not_panic() {
    let store = PTDataStore::in_memory().unwrap();
    store.load_ptdf_str(GOOD).unwrap();
    let engine = perftrack::QueryEngine::new(&store);
    // Unknown type in a filter.
    let err = engine
        .family(&ResourceFilter::by_type(TypePath::new("no/such").unwrap()))
        .unwrap_err();
    assert!(err.to_string().contains("not found"));
    // Unknown column type path.
    assert!(engine.column_values(&[], "mystery").is_err());
    // Compare with a missing execution is a typed error, not a crash.
    let err = perftrack::Compare::new(&store)
        .tree_compare(&["e1", "missing"], &Default::default())
        .unwrap_err();
    assert!(matches!(err, perftrack::PtError::NotFound(_)), "{err}");
}

#[test]
fn adapter_rejects_binary_garbage() {
    use perftrack_adapters::{irs, mpip, smg, ExecContext};
    let ctx = ExecContext::new("e", "A");
    let junk = "\u{0}\u{1}\u{2}binary-ish garbage\nnot a real format\n";
    assert!(smg::convert(&ctx, junk).is_err());
    assert!(mpip::convert(&ctx, junk).is_err());
    assert!(irs::convert(&ctx, &[("x.timing.dat".into(), junk.into())]).is_err());
}

#[test]
fn oversized_row_rejected_cleanly() {
    // A resource attribute value bigger than a page cannot be stored; the
    // load errors and rolls back.
    let store = PTDataStore::in_memory().unwrap();
    let huge = "x".repeat(9000);
    let doc = format!("Resource /r application\nResourceAttribute /r big {huge} string\n");
    assert!(store.load_ptdf_str(&doc).is_err());
    assert_eq!(store.resource_count().unwrap(), 0, "rolled back");
    // Reasonable sizes still work afterwards.
    store.load_ptdf_str(GOOD).unwrap();
}
