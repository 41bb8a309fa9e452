//! Table-driven fault matrix: fault kinds crossed with the two places
//! the engine's durable state crosses the file boundary — page-file
//! writes and the WAL's write + fsync — all injected through
//! [`FaultVfs`]. Each cell asserts the documented contract from
//! `docs/FAULTS.md`: transient WAL sync faults are retried to success;
//! everything else surfaces a typed error (degrading the database where
//! the WAL write path is involved); and in **every** cell a reopen
//! recovers a store that passes deep fsck with exactly the committed
//! rows.

#![allow(
    clippy::incompatible_msrv,
    reason = "the ENOSPC cases inject ErrorKind::StorageFull (Rust 1.83); the MSRV covers the library, not its tests"
)]

use perftrack_store::prelude::*;
use perftrack_store::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs};
use perftrack_store::StoreError;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptstore-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn no_sleep_opts() -> DbOptions {
    DbOptions {
        sleep: |_| {},
        ..DbOptions::default()
    }
}

/// Where the fault is injected.
#[derive(Debug, Clone, Copy)]
enum Point {
    /// The next page-file write (fires during checkpoint, when dirty
    /// pages reach the VFS).
    PageWrite,
    /// The next fsync, which is the commit's WAL flush: the log records
    /// are written but never made durable, and commits retry through it.
    WalSync,
}

/// What the cell must observe at the injection site.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// The operation succeeds and the retry counter moved.
    RetriedOk,
    /// The operation fails with a typed `StoreError`; `degraded` states
    /// whether the database must be in read-only mode afterwards
    /// (`None` = don't care, the point sits outside the WAL write path).
    Fails { degraded: Option<bool> },
}

struct Case {
    name: &'static str,
    point: Point,
    kind: FaultKind,
    /// After the fault, crash on the first page write of the closing
    /// checkpoint: whatever that checkpoint's WAL flush made durable is
    /// left for recovery to replay.
    crash_on_close: bool,
    expect: Expect,
}

const BASELINE_ROWS: i64 = 20;

const CASES: &[Case] = &[
    Case {
        name: "wal-sync/transient",
        point: Point::WalSync,
        kind: FaultKind::Error(ErrorKind::Interrupted),
        crash_on_close: false,
        expect: Expect::RetriedOk,
    },
    Case {
        name: "wal-sync/timeout",
        point: Point::WalSync,
        kind: FaultKind::Error(ErrorKind::TimedOut),
        crash_on_close: false,
        expect: Expect::RetriedOk,
    },
    Case {
        name: "wal-sync/enospc",
        point: Point::WalSync,
        kind: FaultKind::Error(ErrorKind::StorageFull),
        crash_on_close: false,
        expect: Expect::Fails {
            degraded: Some(true),
        },
    },
    Case {
        // The failed commit's records (Insert…, Commit) and the rollback's
        // Abort reach the log together at the closing checkpoint; the
        // crash keeps them there. Recovery must honour the Abort.
        name: "wal-sync/enospc-then-crash",
        point: Point::WalSync,
        kind: FaultKind::Error(ErrorKind::StorageFull),
        crash_on_close: true,
        expect: Expect::Fails {
            degraded: Some(true),
        },
    },
    Case {
        name: "page-write/transient",
        point: Point::PageWrite,
        kind: FaultKind::Error(ErrorKind::Interrupted),
        crash_on_close: false,
        expect: Expect::Fails { degraded: None },
    },
    Case {
        name: "page-write/enospc",
        point: Point::PageWrite,
        kind: FaultKind::Error(ErrorKind::StorageFull),
        crash_on_close: false,
        expect: Expect::Fails { degraded: None },
    },
    Case {
        name: "page-write/torn",
        point: Point::PageWrite,
        kind: FaultKind::ShortWrite { keep: 100 },
        crash_on_close: false,
        expect: Expect::Fails { degraded: None },
    },
];

/// Run one matrix cell end to end: build a baseline, arm the fault,
/// provoke it, assert the contract, then disarm + reopen and prove the
/// store recovered clean.
fn run_case(case: &Case) {
    let dir = tmpdir(&case.name.replace('/', "-"));
    let inner: Arc<MemVfs> = Arc::new(MemVfs::new());
    let fault = FaultVfs::new(Arc::clone(&inner) as Arc<dyn Vfs>);

    let committed_rows;
    {
        let db = Database::open_with_vfs(&dir, no_sleep_opts(), &fault).unwrap();
        let t = db
            .create_table("m", vec![Column::new("v", ColumnType::Int)])
            .unwrap();
        let mut txn = db.begin();
        for i in 0..BASELINE_ROWS {
            txn.insert(t, vec![Value::Int(i)]).unwrap();
        }
        txn.commit().unwrap();
        let retries_before = db.metrics().io.retries;

        // Arm the cell's fault.
        let ops = fault.op_stats();
        let trigger = match case.point {
            Point::PageWrite => FaultTrigger::NthWrite(ops.writes),
            Point::WalSync => FaultTrigger::NthSync(ops.syncs),
        };
        fault.arm(FaultRule {
            trigger,
            kind: case.kind,
            once: true,
        });

        // Provoke it. Page-write faults fire on an explicit checkpoint;
        // sync faults fire at the next transaction's commit. The failed
        // transaction rolls back on drop.
        let outcome: Result<(), StoreError> = match case.point {
            Point::PageWrite => db.checkpoint(),
            Point::WalSync => {
                let txn = db.begin();
                (|mut txn: Txn<'_>| {
                    for i in 0..BASELINE_ROWS {
                        txn.insert(t, vec![Value::Int(BASELINE_ROWS + i)])?;
                    }
                    txn.commit()
                })(txn)
            }
        };

        match case.expect {
            Expect::RetriedOk => {
                outcome
                    .unwrap_or_else(|e| panic!("{}: expected retried success, got {e}", case.name));
                assert!(
                    db.metrics().io.retries > retries_before,
                    "{}: retry counter must move",
                    case.name
                );
                assert!(
                    !db.is_degraded(),
                    "{}: retried success must not degrade",
                    case.name
                );
            }
            Expect::Fails { degraded } => {
                let err = outcome.expect_err(case.name);
                assert!(
                    matches!(err, StoreError::Io(_)),
                    "{}: typed I/O error expected, got {err}",
                    case.name
                );
                if let Some(want) = degraded {
                    assert_eq!(db.is_degraded(), want, "{}: degraded flag", case.name);
                    if want {
                        // Reads keep working; writes are rejected.
                        assert_eq!(db.scan_iter(t).unwrap().count() as i64, BASELINE_ROWS);
                        let mut txn = db.begin();
                        assert!(matches!(
                            txn.insert(t, vec![Value::Int(999)]),
                            Err(StoreError::ReadOnly)
                        ));
                    }
                }
            }
        }
        committed_rows = match case.expect {
            Expect::RetriedOk => 2 * BASELINE_ROWS,
            Expect::Fails { .. } => BASELINE_ROWS,
        };

        // Disarm the fault before the database drops (Drop checkpoints).
        // A crash cell instead lets that checkpoint flush the WAL (one
        // write) and dies on its first page write.
        fault.clear_rules();
        if case.crash_on_close {
            fault.arm(FaultRule {
                trigger: FaultTrigger::NthWrite(fault.op_stats().writes + 1),
                kind: FaultKind::Crash,
                once: true,
            });
        }
    }
    assert_eq!(
        fault.crashed(),
        case.crash_on_close,
        "{}: the closing checkpoint crashed",
        case.name
    );

    // Simulated restart: reopen from the durable layer and demand a
    // structurally sound store with every committed row present.
    let db = Database::open_with_vfs(&dir, no_sleep_opts(), inner.as_ref()).unwrap();
    let t = db.table_id("m").unwrap();
    assert_eq!(
        db.scan_iter(t).unwrap().count() as i64,
        committed_rows,
        "{}: committed rows after recovery",
        case.name
    );
    let report = db.verify(true).unwrap();
    assert_eq!(
        report.error_count(),
        0,
        "{}: deep fsck after recovery: {}",
        case.name,
        report.summary()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_matrix_every_cell_holds_its_contract() {
    for case in CASES {
        run_case(case);
    }
}
