//! Index maintenance across the write path and the rebuild on open:
//! every index a write touches ends up holding exactly what a fresh
//! rebuild from the heap produces, and a heap row that cannot feed an
//! index makes open fail with a typed error instead of a panic.

use perftrack_store::prelude::*;
use perftrack_store::value::encode_row_vec;
use perftrack_store::wal::{Wal, WalOp, WalPayload};
use perftrack_workloads::rng::Rng;
use std::ops::Bound;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const INDEXES: [&str; 5] = ["t_id", "t_grp", "t_grp_score", "t_name", "u_k"];

/// Every index's full contents, in key order.
fn index_contents(db: &Database) -> Vec<Vec<RowId>> {
    INDEXES
        .iter()
        .map(|name| {
            let idx = db.index_id(name).unwrap();
            db.index_range(idx, Bound::Unbounded, Bound::Unbounded)
                .unwrap()
        })
        .collect()
}

fn assert_deep_clean(db: &Database) {
    let report = db.verify(true).unwrap();
    assert_eq!(report.error_count(), 0, "{}", report.render_table());
}

fn t_row(id: i64, grp: i64, name: &str, score: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(grp),
        Value::Text(name.into()),
        Value::Int(score),
    ]
}

/// Four index shapes on one table (unique int, non-unique int, two
/// columns, text) plus a second table, written through shuffled inserts,
/// deletes, key-changing and key-keeping updates, and a rolled-back
/// transaction over both tables; then closed and reopened, and crashed
/// and reopened. The rebuilt indexes equal the maintained ones.
#[test]
fn rebuild_reproduces_indexes_maintained_by_writes() {
    let dir = temp_dir("rebuild");
    let before = {
        let db = Database::open(&dir).unwrap();
        let t = db
            .create_table(
                "t",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("grp", ColumnType::Int),
                    Column::new("name", ColumnType::Text),
                    Column::new("score", ColumnType::Int),
                ],
            )
            .unwrap();
        let u = db
            .create_table(
                "u",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("label", ColumnType::Text),
                ],
            )
            .unwrap();
        db.create_index("t_id", t, &["id"], true).unwrap();
        db.create_index("t_grp", t, &["grp"], false).unwrap();
        db.create_index("t_grp_score", t, &["grp", "score"], false)
            .unwrap();
        db.create_index("t_name", t, &["name"], false).unwrap();
        db.create_index("u_k", u, &["k"], true).unwrap();

        let mut rng = Rng::seed_from_u64(0x5707_1000);
        let mut ids: Vec<i64> = (0..800).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        let mut rids = Vec::new();
        let mut txn = db.begin();
        for &id in &ids {
            let row = t_row(id, id % 7, &format!("n{:02}", id % 40), (id * 37) % 101);
            rids.push((id, txn.insert(t, row).unwrap()));
        }
        for k in 0..100 {
            txn.insert(u, vec![Value::Int(k), Value::Text(format!("u{k}"))])
                .unwrap();
        }
        txn.commit().unwrap();

        let mut txn = db.begin();
        for (i, &(id, rid)) in rids.iter().enumerate() {
            match i % 6 {
                0 => txn.delete(t, rid).unwrap(),
                // Every key moves, the unique one to a fresh value.
                1 => txn
                    .update(t, rid, t_row(id + 10_000, id % 5, "moved", id % 3))
                    .unwrap(),
                // No key moves.
                2 => txn
                    .update(
                        t,
                        rid,
                        t_row(id, id % 7, &format!("n{:02}", id % 40), (id * 37) % 101),
                    )
                    .unwrap(),
                _ => {}
            }
        }
        txn.commit().unwrap();

        {
            let mut txn = db.begin();
            for &(id, rid) in rids.iter().skip(3).step_by(6).take(40) {
                txn.update(t, rid, t_row(id + 20_000, 99, "rolled-back", 0))
                    .unwrap();
            }
            for &(_, rid) in rids.iter().skip(4).step_by(6).take(40) {
                txn.delete(t, rid).unwrap();
            }
            for id in 0..50 {
                txn.insert(t, t_row(30_000 + id, 1, "phantom", 1)).unwrap();
            }
            let u0 = db.index_lookup(db.index_id("u_k").unwrap(), &[Value::Int(0)]);
            txn.delete(u, u0.unwrap()[0]).unwrap();
            txn.insert(u, vec![Value::Int(500), Value::Text("phantom".into())])
                .unwrap();
            txn.rollback().unwrap();
        }
        assert_eq!(db.row_count(t).unwrap(), 800 - 134, "every 6th row deleted");
        assert_deep_clean(&db);
        index_contents(&db)
    };

    // Clean close, then reopen: the rebuild equals what writes maintained.
    let db = Database::open(&dir).unwrap();
    assert_eq!(index_contents(&db), before);
    assert_deep_clean(&db);

    // More committed writes, then a crash: redo plus rebuild agrees too.
    let t = db.table_id("t").unwrap();
    let mut txn = db.begin();
    let late = txn.insert(t, t_row(40_000, 3, "late", 7)).unwrap();
    txn.update(t, late, t_row(40_001, 4, "later", 8)).unwrap();
    txn.commit().unwrap();
    let after = index_contents(&db);
    std::mem::forget(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(index_contents(&db), after);
    assert_deep_clean(&db);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A committed WAL insert whose row is shorter than its table's schema,
/// with an index on the missing column: open used to panic while
/// rebuilding that index; now its heap pass reports the row as a schema
/// error before any key is built from it, and the open refuses the store.
#[test]
fn open_rejects_committed_insert_shorter_than_schema() {
    let dir = temp_dir("short-row");
    let (t, first) = {
        let db = Database::open(&dir).unwrap();
        let t = db
            .create_table(
                "t",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("b", ColumnType::Int),
                ],
            )
            .unwrap();
        db.create_index("t_b", t, &["b"], false).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, vec![Value::Int(1), Value::Int(2)]).unwrap();
        txn.commit().unwrap();
        (t, rid)
    };
    let wal = Wal::open(&dir.join("wal.log")).unwrap();
    let next = RowId {
        page: first.page,
        slot: first.slot + 1,
    };
    wal.append(
        99,
        &WalPayload::Op(WalOp::Insert {
            table: t.0,
            rowid: next,
            row: encode_row_vec(&[Value::Int(7)]),
        }),
    );
    wal.append(99, &WalPayload::Commit);
    wal.sync().unwrap();
    drop(wal);
    match Database::open(&dir) {
        Err(StoreError::Corrupt(msg)) => assert!(
            msg.contains("first: row.schema") && msg.contains("table t expects 2 columns, got 1"),
            "{msg}"
        ),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("a row missing its key column opened cleanly"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
