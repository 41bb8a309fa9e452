//! Stress test for the concurrent read path: eight reader threads hammer
//! a shared [`Database`] with mixed point gets, index probes, and
//! streaming scans while the main thread takes metrics snapshots, then
//! the final counters and data are checked for consistency. The pool is
//! deliberately smaller than the heap so eviction under the pool latch
//! and the contention counter are both exercised — this is the
//! integration counterpart to the per-interleaving model checker in
//! `loom_buffer.rs`.

use perftrack_store::{Column, ColumnType, Database, DbOptions, Value};
use perftrack_workloads::rng::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const READERS: usize = 8;
const ROWS: i64 = 5_000;
const OPS_PER_READER: usize = 3_000;

#[test]
fn eight_readers_with_live_stats_snapshots() {
    let db = Database::in_memory_with(DbOptions {
        pool_frames: 32,
        ..DbOptions::default()
    });
    let table = db
        .create_table(
            "result",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("payload", ColumnType::Text),
            ],
        )
        .unwrap();
    db.create_index("result_id", table, &["id"], true).unwrap();
    let mut rids = Vec::new();
    let mut txn = db.begin();
    for i in 0..ROWS {
        rids.push(
            txn.insert(
                table,
                vec![Value::Int(i), Value::Text(format!("payload-{i:06}"))],
            )
            .unwrap(),
        );
    }
    txn.commit().unwrap();
    let idx = db.index_id("result_id").unwrap();

    let stop = AtomicBool::new(false);
    // Page reads the reader ops must make: one per get, one per heap
    // page per full scan. Index probes read only the tree, never the pool.
    let heap_pages = rids.iter().map(|r| r.page).collect::<HashSet<_>>().len() as u64;
    let page_reads = AtomicU64::new(0);
    let loaded = db.metrics().pool;
    std::thread::scope(|s| {
        for w in 0..READERS {
            let (db, rids, stop, page_reads) = (&db, &rids, &stop, &page_reads);
            s.spawn(move || {
                // Seeded per thread: different threads walk different
                // row sequences.
                let mut rng = Rng::seed_from_u64(w as u64 + 1);
                for i in 0..OPS_PER_READER {
                    let pick = rng.gen_range(0..rids.len());
                    let want = pick as i64;
                    if i % 512 == 0 {
                        // A full streaming scan sees every row exactly once
                        // even while seven other readers churn the pool.
                        let mut seen = 0u64;
                        for item in db.scan_iter(table).unwrap() {
                            item.unwrap();
                            seen += 1;
                        }
                        assert_eq!(seen, ROWS as u64);
                        page_reads.fetch_add(heap_pages, Ordering::Relaxed);
                    } else if i % 4 == 1 {
                        let hits = db.index_lookup(idx, &[Value::Int(want)]).unwrap();
                        assert_eq!(hits.len(), 1, "unique index returns one rid");
                    } else {
                        let row = db.get(table, rids[pick]).unwrap();
                        assert_eq!(row[0], Value::Int(want), "row round-trips intact");
                        page_reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Main thread: take live snapshots while readers run. Snapshots
        // must always be internally consistent (hits + misses covers
        // every completed acquire, never going backwards).
        let mut last_accesses = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let snap = db.metrics();
            let accesses = snap.pool.hits + snap.pool.misses;
            assert!(accesses >= last_accesses, "pool counters are monotonic");
            last_accesses = accesses;
            std::thread::yield_now();
        }
    });

    let snap = db.metrics();
    let read = snap.pool.hits + snap.pool.misses - loaded.hits - loaded.misses;
    assert!(
        read >= page_reads.load(Ordering::Relaxed),
        "every get touched the pool, and every scan each heap page"
    );
    assert!(
        snap.pool.misses > 0,
        "heap outgrows the pool, so misses occur"
    );
    // The data survived: a final scan still sees every row.
    assert_eq!(db.scan_iter(table).unwrap().count(), ROWS as usize);
    assert!(db.verify(true).unwrap().error_count() == 0);
}
