//! Integration tests for the structural verifier (`check`, `pt fsck`):
//! a clean database passes `--deep` verification with zero findings of
//! error severity, and deliberately corrupted page/WAL fixtures yield
//! non-empty typed findings reports.

use perftrack_store::check::{self, FsckReport, Severity};
use perftrack_store::page::{HEADER_SIZE, PAGE_SIZE};
use perftrack_store::prelude::*;
use perftrack_store::wal::{crc32, Wal};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptstore-fsck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn columns() -> Vec<Column> {
    vec![
        Column::new("id", ColumnType::Int),
        Column::new("name", ColumnType::Text),
    ]
}

/// Populate a database the way `pt load` does: batched transactions,
/// secondary indexes, deletes and updates mixed in.
fn populate(db: &Database) -> TableId {
    let t = db.create_table("item", columns()).unwrap();
    db.create_index("item_id", t, &["id"], true).unwrap();
    db.create_index("item_name", t, &["name"], false).unwrap();
    let mut rids = Vec::new();
    for chunk in 0..8 {
        let mut txn = db.begin();
        for i in 0..100i64 {
            let id = chunk * 100 + i;
            let rid = txn
                .insert(t, vec![Value::Int(id), Value::Text(format!("row-{id:04}"))])
                .unwrap();
            rids.push(rid);
        }
        txn.commit().unwrap();
    }
    let mut txn = db.begin();
    for rid in rids.iter().step_by(7) {
        txn.delete(t, *rid).unwrap();
    }
    for (i, rid) in rids.iter().enumerate().skip(1).step_by(13) {
        if i % 7 == 0 {
            continue; // deleted above
        }
        // Same-size replacement: updates are in-place, and the insert
        // loop packs pages full, so growing here could hit PageFull.
        txn.update(
            t,
            *rid,
            vec![Value::Int(i as i64), Value::Text(format!("upd-{i:04}"))],
        )
        .unwrap();
    }
    txn.commit().unwrap();
    t
}

#[test]
fn clean_database_passes_deep_verification() {
    let db = Database::in_memory();
    populate(&db);
    let report = db.verify(true).unwrap();
    assert_eq!(report.error_count(), 0, "unexpected: {}", report.summary());
    assert!(report.pages_checked > 0);
    assert!(report.rows_checked > 0);
    assert!(report.index_entries_checked > 0);
}

#[test]
fn corrupted_page_fixture_yields_typed_findings() {
    let dir = tmpdir("page");
    {
        let db = Database::open(&dir).unwrap();
        populate(&db);
        db.checkpoint().unwrap();
    }

    // Find a formatted page in the on-disk fixture and wreck its slot
    // directory: claim far more slots than the record area can hold.
    let pages_path = dir.join("pages.db");
    let mut bytes = std::fs::read(&pages_path).unwrap();
    let page_no = (0..bytes.len() / PAGE_SIZE)
        .find(|p| {
            let off = p * PAGE_SIZE;
            u16::from_be_bytes([bytes[off], bytes[off + 1]]) == 0x5054 && bytes[off + 2] == 1
            // Heap tag
        })
        .expect("fixture contains a heap page");
    let off = page_no * PAGE_SIZE;
    bytes[off + 4..off + 6].copy_from_slice(&u16::MAX.to_be_bytes());

    // The verifier reports the corruption as typed findings.
    let page = &bytes[off..off + PAGE_SIZE];
    let findings = check::check_page(page, page_no as u32);
    assert!(!findings.is_empty());
    assert!(findings
        .iter()
        .any(|f| f.code == "page.dir-bounds" && f.severity == Severity::Error));
    assert!(findings.iter().all(|f| f.page == Some(page_no as u32)));

    // The findings survive the JSON codec with their typing intact.
    let mut report = FsckReport::new(false);
    for f in findings {
        report.push(f);
    }
    assert!(report.error_count() > 0);
    let json = report.to_json().emit();
    assert!(json.contains("\"page.dir-bounds\""), "{json}");
    assert!(json.contains("\"error\""), "{json}");

    // And a database whose page file carries the corruption refuses to
    // open: the post-recovery verification pass fails.
    std::fs::write(&pages_path, &bytes).unwrap();
    let msg = match Database::open(&dir) {
        Ok(_) => panic!("corrupted store must not open"),
        Err(e) => e.to_string(),
    };
    assert!(
        msg.contains("verification") || msg.contains("corrupt"),
        "{msg}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_gives_back_trailing_lost_allocations() {
    let dir = tmpdir("lost-alloc");
    let pages = {
        let db = Database::open(&dir).unwrap();
        populate(&db);
        db.checkpoint().unwrap();
        db.page_count()
    };
    // Two zeroed pages past the last owned one: what an allocation whose
    // `AllocPage` record never reached the log leaves behind.
    let pages_path = dir.join("pages.db");
    let mut bytes = std::fs::read(&pages_path).unwrap();
    bytes.resize(bytes.len() + 2 * PAGE_SIZE, 0);
    std::fs::write(&pages_path, &bytes).unwrap();

    let db = Database::open(&dir).unwrap();
    assert_eq!(db.page_count(), pages, "the lost pages are given back");
    let report = db.verify(true).unwrap();
    assert!(
        report.findings.iter().all(|f| f.code != "page.orphan"),
        "{}",
        report.summary()
    );
    drop(db);
    assert_eq!(
        std::fs::metadata(&pages_path).unwrap().len(),
        u64::from(pages) * PAGE_SIZE as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_record_area_fails_deep_scan() {
    let dir = tmpdir("recarea");
    {
        let db = Database::open(&dir).unwrap();
        populate(&db);
        db.checkpoint().unwrap();
    }
    let pages_path = dir.join("pages.db");
    let mut bytes = std::fs::read(&pages_path).unwrap();
    let page_no = (0..bytes.len() / PAGE_SIZE)
        .find(|p| {
            let off = p * PAGE_SIZE;
            u16::from_be_bytes([bytes[off], bytes[off + 1]]) == 0x5054 && bytes[off + 2] == 1
        })
        .unwrap();
    // Scribble over the record area without touching the slot directory:
    // structurally the page still parses, but the rows are garbage, which
    // the row-decode check catches.
    let area = page_no * PAGE_SIZE + PAGE_SIZE - 512;
    for b in &mut bytes[area..area + 512] {
        *b ^= 0xA5;
    }
    let page = &bytes[page_no * PAGE_SIZE..(page_no + 1) * PAGE_SIZE];
    // Either the slot geometry breaks or the page still parses; both are
    // fine — the point is corruption never goes unreported end to end.
    let structural = check::check_page(page, page_no as u32);
    std::fs::write(&pages_path, &bytes).unwrap();
    match Database::open(&dir) {
        Ok(db) => {
            // Structure happened to survive; the verifier must flag the
            // rows instead (this can only happen if decode succeeds by
            // luck on structural findings being empty).
            assert!(structural.is_empty());
            let report = db.verify(true).unwrap();
            assert!(report.error_count() > 0, "corruption unreported");
        }
        Err(e) => {
            // Refused to open: recovery or the post-open verify saw it.
            assert!(!e.to_string().is_empty());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Build a populated store in `dir`, close it, and overwrite the first
/// value tag of the first live record on its first heap page with `tag`.
fn store_with_retagged_row(dir: &std::path::Path, tag: u8) {
    {
        let db = Database::open(dir).unwrap();
        populate(&db);
        db.checkpoint().unwrap();
    }
    let pages_path = dir.join("pages.db");
    let mut bytes = std::fs::read(&pages_path).unwrap();
    let page = (0..bytes.len() / PAGE_SIZE)
        .map(|p| p * PAGE_SIZE)
        .find(|&off| {
            u16::from_be_bytes([bytes[off], bytes[off + 1]]) == 0x5054 && bytes[off + 2] == 1
        })
        .expect("fixture contains a heap page");
    let slots = usize::from(u16::from_be_bytes([bytes[page + 4], bytes[page + 5]]));
    let record = (0..slots)
        .map(|s| page + HEADER_SIZE + s * 4)
        .map(|slot| usize::from(u16::from_be_bytes([bytes[slot], bytes[slot + 1]])))
        .find(|&off| off != 0)
        .expect("the heap page holds a live record");
    // A record is a u16 value count, then each value's tag and payload.
    let at = page + record + 2;
    assert_eq!(bytes[at], 1, "the first column is an Int");
    bytes[at] = tag;
    std::fs::write(&pages_path, &bytes).unwrap();
}

/// The open refuses `dir` with a `Corrupt` error naming `code` first.
fn assert_open_refused_with(dir: &std::path::Path, code: &str) {
    match Database::open(dir) {
        Ok(_) => panic!("a store with a damaged row must not open"),
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("first: {code}")), "{msg}");
        }
        Err(e) => panic!("expected a Corrupt error, got: {e}"),
    }
}

#[test]
fn row_that_does_not_decode_is_refused_through_the_report() {
    let dir = tmpdir("row-decode");
    store_with_retagged_row(&dir, 0xEE);
    assert_open_refused_with(&dir, "row.decode");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn row_that_breaks_its_schema_is_refused_through_the_report() {
    let dir = tmpdir("row-schema");
    // Tag 2 is Real: the same eight payload bytes decode, as the wrong type.
    store_with_retagged_row(&dir, 2);
    assert_open_refused_with(&dir, "row.schema");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_fixture_with_lsn_regression_and_torn_tail_is_reported() {
    let dir = tmpdir("wal");
    let path = dir.join("wal.log");
    // Hand-craft a log (framing: `len | crc | body`, body = lsn, txn,
    // kind): LSN 7 then LSN 2 — a regression — then a torn tail.
    let mut bytes = Vec::new();
    for lsn in [7u64, 2u64] {
        let mut body = Vec::new();
        body.extend_from_slice(&lsn.to_be_bytes());
        body.extend_from_slice(&1u64.to_be_bytes());
        body.push(4); // Commit
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
    }
    bytes.extend_from_slice(&[0x51, 0x17, 0x51]);
    std::fs::write(&path, &bytes).unwrap();

    let wal = Wal::open(&path).unwrap();
    let (findings, checked) = check::verify_wal(&wal).unwrap();
    assert_eq!(checked, 2);
    assert!(findings
        .iter()
        .any(|f| f.code == "wal.lsn" && f.severity == Severity::Error));
    assert!(findings
        .iter()
        .any(|f| f.code == "wal.torn" && f.severity == Severity::Warning));

    let mut report = FsckReport::new(false);
    for f in findings {
        report.push(f);
    }
    let json = report.to_json().emit();
    assert!(json.contains("\"wal.lsn\""), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_holds_writer_lock_but_not_reentrantly() {
    // `verify` takes the writer lock; calling it between transactions on
    // one thread must work repeatedly (no poisoned/leaked lock).
    let db = Database::in_memory();
    let t = populate(&db);
    for _ in 0..3 {
        let report = db.verify(false).unwrap();
        assert_eq!(report.error_count(), 0);
        let mut txn = db.begin();
        txn.insert(t, vec![Value::Int(9_000_000), Value::Text("again".into())])
            .unwrap();
        txn.rollback().unwrap();
    }
}

#[test]
fn report_render_table_mentions_mode_and_counts() {
    let db = Database::in_memory();
    populate(&db);
    let deep = db.verify(true).unwrap();
    let text = deep.render_table();
    assert!(text.contains("deep"), "{text}");
    let fast = db.verify(false).unwrap();
    assert!(fast.render_table().contains("fast"));
}

/// The slot-bounds check uses HEADER_SIZE as its lower fence; keep the
/// fixture offsets in sync with the real layout.
#[test]
fn header_layout_assumptions() {
    assert_eq!(HEADER_SIZE, 12);
    assert_eq!(PAGE_SIZE, 8192);
}
