//! Network chaos matrix: every `ChaosTransport` fault kind, fired on
//! both the request (write) and response (read) side of the client's
//! transport, crossed with the retry-safe request set. For every cell
//! the client must end in success or a *typed* error — never a panic,
//! never a hang past its bounded read timeout — and a tokened
//! `LoadPtdf` must apply its rows **exactly once** no matter where the
//! fault landed: if the connection died after the server committed but
//! before the response arrived, the replayed token dedups instead of
//! double-loading. After the whole matrix the server drains and the
//! store passes a deep fsck — chaos may cost availability, never
//! integrity.
//!
//! This is the network analog of the storage fault matrix
//! (`crates/store/tests/fault_matrix.rs`); see `docs/FAULTS.md` §5.

use perftrack::PTDataStore;
use perftrack_server::{
    ChaosInjector, Client, ClientConfig, NameFilter, NetFault, NetTrigger, QuerySpec, Request,
    Response, Server, ServerConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One distinct result per matrix cell so duplicate application is
/// visible as a row-count change.
fn cell_ptdf(cell: usize) -> String {
    format!(
        "Application chaos{cell}\n\
         Execution ce{cell} chaos{cell}\n\
         Resource /chaos{cell} application\n\
         PerfResult ce{cell} /chaos{cell}(primary) T m {cell}.5 u\n"
    )
}

/// Chaos-wrapped client: fast retries, a short bounded read timeout
/// (the blackhole cells turn silence into this timeout), and the
/// injector's factory on every connection.
fn chaos_client(addr: &str, injector: &Arc<ChaosInjector>) -> Client {
    Client::with_config(
        addr.to_string(),
        ClientConfig {
            max_retries: 6,
            backoff: Duration::from_millis(1),
            read_timeout: Duration::from_millis(300),
            transport: Some(injector.factory()),
        },
    )
}

fn clean_client(addr: &str) -> Client {
    Client::with_config(
        addr.to_string(),
        ClientConfig {
            max_retries: 6,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    )
}

fn rows_for(client: &mut Client, pattern: &str) -> usize {
    let spec = QuerySpec {
        names: vec![NameFilter {
            pattern: pattern.to_string(),
            relatives: 'N',
        }],
        ..QuerySpec::default()
    };
    match client.call(&Request::Query(spec)).unwrap() {
        Response::Table { rows, .. } => rows.len(),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn chaos_matrix_is_typed_exactly_once_and_fsck_clean() {
    let faults: [(&str, NetFault); 5] = [
        ("delay", NetFault::Delay(5)),
        ("partial-write", NetFault::PartialWrite(3)),
        ("corrupt-byte", NetFault::CorruptByte),
        ("disconnect", NetFault::Disconnect),
        ("blackhole", NetFault::Blackhole),
    ];
    type Side = (&'static str, fn() -> NetTrigger);
    let sides: [Side; 2] = [
        ("write", || NetTrigger::NthWrite(1)),
        ("read", || NetTrigger::NthRead(1)),
    ];

    let dir = tmpdir("matrix");
    let store = Arc::new(PTDataStore::open(&dir).unwrap());
    // Short idle timeout so half-dead connections a fault leaves behind
    // (e.g. a server parked on a torn frame) release their worker
    // quickly instead of serializing the matrix on the reaper.
    let cfg = ServerConfig {
        workers: 8,
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&store), cfg).unwrap();
    let addr = handle.local_addr().to_string();
    let mut verifier = clean_client(&addr);

    let mut cell = 0usize;
    for (fname, fault) in faults {
        for (sname, trigger) in sides {
            let label = format!("{fname}/{sname} (cell {cell})");
            let token = format!("chaos-{fname}-{sname}");
            let load = Request::LoadPtdf {
                text: cell_ptdf(cell),
                token: token.clone(),
            };

            // A fresh injector per cell (cell-derived seed keeps the
            // corruption bytes reproducible), armed one-shot so the
            // client's own retries run over a clean transport.
            let injector = ChaosInjector::new(0xC4A0_5000 + cell as u64);
            injector.fault_once(trigger(), fault);
            let mut chaotic = chaos_client(&addr, &injector);

            // The chaotic attempt must end in a decoded response or a
            // typed error. `call` returning at all (within the bounded
            // read timeout) is the no-hang half; the match is the
            // no-panic half. Field values are NOT asserted here: a
            // corrupt-byte fault on the read side can flip a payload
            // byte such that the frame still decodes, just wrong — the
            // clean-verifier convergence below is the correctness check.
            match chaotic.call(&load) {
                Ok(_) => {}
                Err(err) => {
                    assert!(!err.to_string().is_empty(), "{label}");
                }
            }
            assert!(
                injector.faults_fired() >= 1,
                "{label}: the armed fault must actually fire"
            );

            // Whatever happened, replaying the same token over a clean
            // transport converges: the load is applied exactly once
            // across both attempts (dedup if the chaotic one committed).
            match verifier.call(&load).unwrap() {
                Response::Loaded { stats, .. } => {
                    assert_eq!(stats.results, 1, "{label}: converged counters");
                }
                other => panic!("{label}: unexpected response {other:?}"),
            }
            assert_eq!(
                rows_for(&mut verifier, &format!("/chaos{cell}")),
                1,
                "{label}: exactly one row despite the retry"
            );

            // Cheap idempotent traffic through a re-armed transport:
            // same contract, success or typed error, no panic.
            injector.reset_counters();
            injector.fault_once(trigger(), fault);
            let mut pinger = chaos_client(&addr, &injector);
            match pinger.call(&Request::Ping) {
                Ok(_) => {}
                Err(err) => assert!(!err.to_string().is_empty(), "{label}"),
            }

            cell += 1;
        }
    }

    // Every cell applied its rows exactly once.
    let expected = faults.len() * sides.len();
    assert_eq!(store.result_count().unwrap(), expected);

    // The store survived the whole matrix without integrity damage.
    match verifier.call(&Request::Fsck { deep: true }).unwrap() {
        Response::FsckDone { errors, .. } => assert_eq!(errors, 0, "deep fsck after chaos"),
        other => panic!("unexpected response {other:?}"),
    }

    // Drain and re-verify from a cold local reopen.
    match verifier.call(&Request::Shutdown).unwrap() {
        Response::ShuttingDown => {}
        other => panic!("unexpected response {other:?}"),
    }
    handle.join();
    drop(verifier);
    drop(store);
    let reopened = PTDataStore::open(&dir).unwrap();
    assert_eq!(reopened.result_count().unwrap(), expected);
    let report = reopened.fsck(true).unwrap();
    assert_eq!(report.error_count(), 0, "{}", report.summary());
}
