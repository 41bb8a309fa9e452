//! Integration tests for the observability layer: buffer-pool counters
//! under a known access pattern, end-to-end metrics through a `Database`,
//! and the documented JSON schemas (docs/METRICS.md) round-tripping.

use perftrack_store::buffer::BufferPool;
use perftrack_store::disk::DiskManager;
use perftrack_store::metrics::{Json, OperatorProfile, QueryProfile};
use perftrack_store::{Column, ColumnType, Database, Value};
use std::sync::Arc;
use std::time::Instant;

/// A 4-frame pool under a deterministic single-threaded access pattern.
/// The clock policy makes every count exact: 8 cold reads miss, the four
/// loads past capacity each evict, and re-reading the resident pages hits.
#[test]
fn buffer_pool_counts_for_known_access_pattern() {
    let pool = BufferPool::new(Arc::new(DiskManager::in_memory()), 4);
    let pages: Vec<_> = (0..8).map(|_| pool.allocate_page().unwrap()).collect();

    // Cold pass over all 8 pages: 8 misses; loading pages 4..8 into the
    // full pool evicts the first four (clock order), so 4 evictions.
    for &p in &pages {
        pool.with_page(p, |_| ()).unwrap();
    }
    let s = pool.stats();
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, 8);
    assert_eq!(s.evictions, 4);
    assert_eq!(s.writebacks, 0, "read-only pages are never written back");
    assert_eq!(s.hit_rate(), 0.0);

    // Pages 4..8 are resident: re-reading them is pure hits.
    for &p in &pages[4..] {
        pool.with_page(p, |_| ()).unwrap();
    }
    let s = pool.stats();
    assert_eq!(s.hits, 4);
    assert_eq!(s.misses, 8);
    assert_eq!(s.evictions, 4);
    assert!((s.hit_rate() - 4.0 / 12.0).abs() < 1e-12);

    // One more cold page: a miss plus exactly one further eviction.
    pool.with_page(pages[0], |_| ()).unwrap();
    let s = pool.stats();
    assert_eq!(s.misses, 9);
    assert_eq!(s.evictions, 5);
}

/// Dirty pages displaced from a tiny pool are counted as writebacks.
#[test]
fn buffer_pool_counts_writebacks_on_dirty_eviction() {
    let pool = BufferPool::new(Arc::new(DiskManager::in_memory()), 2);
    let pages: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |buf| buf[0] = i as u8).unwrap();
    }
    let s = pool.stats();
    assert_eq!(s.misses, 4);
    assert_eq!(s.evictions, 2, "pages 0 and 1 displaced");
    assert_eq!(s.writebacks, 2, "both displaced pages were dirty");
}

fn populated_db(rows: i64) -> (Database, perftrack_store::TableId) {
    let db = Database::in_memory();
    let t = db
        .create_table(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        )
        .unwrap();
    db.create_index("t_id", t, &["id"], true).unwrap();
    let mut txn = db.begin();
    for i in 0..rows {
        txn.insert(t, vec![Value::Int(i), Value::Text(format!("row{i}"))])
            .unwrap();
    }
    txn.commit().unwrap();
    (db, t)
}

/// End-to-end: a loaded database reports consistent metrics, and both the
/// stats snapshot and a query profile serialize to the documented JSON
/// schema and parse back identically.
#[test]
fn database_metrics_and_profile_json_roundtrip() {
    let (db, t) = populated_db(3000);

    let start = Instant::now();
    let idx = db.index_id("t_id").unwrap();
    let rids = db.index_lookup(idx, &[Value::Int(1500)]).unwrap();
    let rows: Vec<_> = rids.iter().map(|&rid| db.get(t, rid).unwrap()).collect();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1500));
    let mut profile = QueryProfile::default();
    profile.push(
        OperatorProfile::new(
            "fetch",
            rids.len() as u64,
            rows.len() as u64,
            start.elapsed(),
        )
        .with_estimated_rows(Some(1)),
    );
    profile.total_nanos = start.elapsed().as_nanos() as u64;
    let profile_json = profile.to_json();
    assert_eq!(Json::parse(&profile_json.emit()).unwrap(), profile_json);

    let snap = db.metrics();
    assert_eq!(snap.txn.commits, 1);
    assert_eq!(snap.btree.entries, 3000);
    assert!(snap.btree.splits > 0);
    assert!(snap.btree.node_reads > 0, "the lookup visited nodes");
    assert!(snap.wal.appends > 3000, "3000 ops plus the commit record");
    let stats_json = snap.to_json();
    let parsed = Json::parse(&stats_json.emit()).unwrap();
    assert_eq!(parsed, stats_json);
    // Spot-check documented paths.
    assert_eq!(
        parsed
            .get("txn")
            .and_then(|j| j.get("commits"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        parsed
            .get("btree")
            .and_then(|j| j.get("entries"))
            .and_then(Json::as_u64),
        Some(3000)
    );
    assert!(parsed
        .get("buffer_pool")
        .and_then(|j| j.get("hit_rate"))
        .is_some());
    assert!(parsed
        .get("wal")
        .and_then(|j| j.get("sync_latency"))
        .and_then(|j| j.get("count"))
        .is_some());
}

/// Metrics are monotone: running more work never decreases counters.
#[test]
fn metrics_are_monotone_across_queries() {
    let (db, t) = populated_db(500);
    let idx = db.index_id("t_id").unwrap();
    let before = db.metrics();
    for i in 0..50 {
        let rids = db.index_lookup(idx, &[Value::Int(i * 10)]).unwrap();
        assert_eq!(rids.len(), 1);
        assert_eq!(db.get(t, rids[0]).unwrap()[0], Value::Int(i * 10));
    }
    let after = db.metrics();
    assert!(after.btree.node_reads >= before.btree.node_reads + 50);
    assert!(after.pool.hits >= before.pool.hits);
    assert_eq!(after.txn.commits, before.txn.commits);
}
