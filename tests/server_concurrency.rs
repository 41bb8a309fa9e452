//! End-to-end acceptance test for the network service layer: one server
//! over a fault-injecting VFS serves concurrent clients through load and
//! query traffic, an injected transient read fault is absorbed by the
//! client's retry policy without degrading the store, a forced
//! degraded-mode flip turns writers away with typed `read-only` errors
//! while readers keep succeeding, and after a wire-initiated shutdown
//! the durable image reopens clean under deep fsck with exactly the
//! committed data.
//!
//! Fault placement follows the storage engine's documented matrix
//! (`crates/store/tests/fault_matrix.rs` / `docs/FAULTS.md`):
//!
//! * The *client-retried* fault lands on a **page read** (during deep
//!   fsck with a deliberately small buffer pool). Read failures sit
//!   outside the WAL write path, so the engine surfaces them without
//!   degrading, the server maps `Interrupted` to `transient`, and the
//!   client replays the idempotent request.
//! * The *degraded flip* lands on a **WAL sync** with `StorageFull` — a
//!   non-transient durability failure, which the engine answers by
//!   flipping into read-only degraded mode.

use perftrack::PTDataStore;
use perftrack_server::{
    Client, ClientConfig, ErrorCategory, NameFilter, QuerySpec, Request, Response, Server,
    ServerConfig,
};
use perftrack_store::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs, Vfs};
use perftrack_store::DbOptions;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
/// Large enough that the heap spans far more pages than `pool_frames`,
/// so the deep fsck in phase B must read pages back from the VFS (the
/// armed fault fires on that read). A tiny dataset fits entirely in the
/// pool and the fsck would never touch the disk.
const RESULTS_PER_CLIENT: usize = 250;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-srvconc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small buffer pool so deep fsck is guaranteed to miss the cache (the
/// schema alone spans far more pages than this), plus no retry sleeps.
fn opts() -> DbOptions {
    DbOptions {
        pool_frames: 16,
        sleep: |_| {},
        ..DbOptions::default()
    }
}

/// Each client loads its own application/execution/resources so the
/// concurrent loads never conflict logically.
fn client_ptdf(i: usize) -> String {
    let mut s = format!("Application A{i}\nExecution e{i} A{i}\n");
    s.push_str(&format!("Resource /c{i} execution e{i}\n"));
    for r in 0..RESULTS_PER_CLIENT {
        s.push_str(&format!("Resource /c{i}/p{r} execution/process\n"));
        s.push_str(&format!(
            "PerfResult e{i} /c{i}/p{r}(primary) T \"CPU time\" {r}.5 seconds\n"
        ));
    }
    s
}

fn query_rows(client: &mut Client, pattern: &str) -> usize {
    let spec = QuerySpec {
        names: vec![NameFilter {
            pattern: pattern.to_string(),
            relatives: 'D',
        }],
        ..QuerySpec::default()
    };
    match client.call(&Request::Query(spec)).unwrap() {
        Response::Table { rows, .. } => rows.len(),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn faulted_store_serves_concurrent_clients_degrades_and_recovers() {
    let dir = tmpdir("accept");
    let inner: Arc<MemVfs> = Arc::new(MemVfs::new());
    let fault = FaultVfs::new(Arc::clone(&inner) as Arc<dyn Vfs>);
    let store = Arc::new(PTDataStore::open_with_vfs(&dir, opts(), &fault).unwrap());
    let handle = Server::start(Arc::clone(&store), ServerConfig::default()).unwrap();
    let addr = handle.local_addr().to_string();

    // Phase A — four concurrent clients, mixed load + query + stats.
    // Loads serialize on the engine's writer lock; queries overlap.
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                match client
                    .call(&Request::LoadPtdf {
                        text: client_ptdf(i),
                        token: String::new(),
                    })
                    .unwrap()
                {
                    Response::Loaded { stats, .. } => {
                        assert_eq!(stats.results as usize, RESULTS_PER_CLIENT, "client {i}");
                    }
                    other => panic!("unexpected response {other:?}"),
                }
                assert_eq!(
                    query_rows(&mut client, &format!("/c{i}")),
                    RESULTS_PER_CLIENT,
                    "client {i} sees its own rows"
                );
                match client.call(&Request::Stats).unwrap() {
                    Response::Stats { json, .. } => assert!(json.contains("\"server\"")),
                    other => panic!("unexpected response {other:?}"),
                }
                assert_eq!(client.retries_performed(), 0, "client {i}: clean phase");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(store.result_count().unwrap(), CLIENTS * RESULTS_PER_CLIENT);
    assert!(!store.is_degraded());
    let m = handle.metrics();
    assert!(m.connections_accepted.get() >= CLIENTS as u64);
    assert!(m.requests.get() >= (CLIENTS * 3) as u64);

    // Phase B — a transient read fault, retried by the client. After a
    // checkpoint every page is clean, so the next VFS operation the
    // store performs is a page read issued by the deep fsck below; arm
    // exactly that operation. The first attempt fails `transient`, the
    // retry succeeds, and the store never degrades.
    store.checkpoint().unwrap();
    let s = fault.op_stats();
    fault.arm(FaultRule {
        trigger: FaultTrigger::OpIndex(s.reads + s.writes + s.syncs + s.truncates),
        kind: FaultKind::Error(ErrorKind::Interrupted),
        once: true,
    });
    let mut retrier = Client::with_config(
        addr.clone(),
        ClientConfig {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    );
    match retrier.call(&Request::Fsck { deep: true }).unwrap() {
        Response::FsckDone { errors, .. } => assert_eq!(errors, 0),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(
        retrier.retries_performed() >= 1,
        "the injected transient fault must be absorbed by a client retry"
    );
    assert!(
        !store.is_degraded(),
        "a read fault must not degrade the store"
    );

    // Phase C — degraded flip: the next WAL sync fails with a
    // non-transient StorageFull, so the in-flight load errors and the
    // engine drops into read-only mode.
    let s = fault.op_stats();
    fault.arm(FaultRule {
        trigger: FaultTrigger::NthSync(s.syncs),
        kind: FaultKind::Error(ErrorKind::StorageFull),
        once: true,
    });
    let mut writer = Client::connect(addr.clone());
    let err = writer
        .call(&Request::LoadPtdf {
            text: client_ptdf(90),
            token: String::new(),
        })
        .unwrap_err();
    assert_eq!(err.remote_category(), Some(ErrorCategory::Internal));
    assert!(store.is_degraded(), "StorageFull on WAL sync must degrade");

    // Writers now get the typed read-only rejection...
    let err = writer
        .call(&Request::LoadPtdf {
            text: client_ptdf(91),
            token: String::new(),
        })
        .unwrap_err();
    assert_eq!(err.remote_category(), Some(ErrorCategory::ReadOnly));
    assert_eq!(writer.retries_performed(), 0, "read-only is not retryable");

    // ...while concurrent readers keep succeeding against the same data.
    let readers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                assert_eq!(
                    query_rows(&mut client, &format!("/c{i}")),
                    RESULTS_PER_CLIENT
                );
                match client.call(&Request::Ping).unwrap() {
                    Response::Pong { degraded, .. } => {
                        assert!(degraded, "ping must advertise degraded mode");
                    }
                    other => panic!("unexpected response {other:?}"),
                }
                match client.call(&Request::Export).unwrap() {
                    Response::Ptdf { text } => assert!(text.contains(&format!("e{i}"))),
                    other => panic!("unexpected response {other:?}"),
                }
            })
        })
        .collect();
    for t in readers {
        t.join().unwrap();
    }

    // Phase D — wire-initiated shutdown drains the server.
    match writer.call(&Request::Shutdown).unwrap() {
        Response::ShuttingDown => {}
        other => panic!("unexpected response {other:?}"),
    }
    handle.join();

    // Phase E — simulated restart from the durable layer: everything the
    // concurrent clients committed survives, the degraded-phase load
    // (whose WAL sync never reached stable storage) does not, and deep
    // fsck is clean.
    drop(store);
    let reopened = PTDataStore::open_with_vfs(&dir, opts(), inner.as_ref()).unwrap();
    assert!(!reopened.is_degraded());
    assert_eq!(
        reopened.result_count().unwrap(),
        CLIENTS * RESULTS_PER_CLIENT,
        "committed data survives; the failed load does not"
    );
    let report = reopened.fsck(true).unwrap();
    assert_eq!(report.error_count(), 0, "{}", report.summary());
    assert_eq!(report.warning_count(), 0, "{}", report.summary());
}
