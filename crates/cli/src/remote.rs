//! `pt serve`, and `pt --connect ADDR load`: the one remote command
//! with an implementation of its own, since the wire has no op for the
//! local resumable manifest. It uploads each file's text with a
//! per-invocation idempotency token, so client-side retries can never
//! double-apply rows, and exits 2 when it succeeded only after retries.

use crate::args::{parse, CliError};
use crate::commands::exit;
use perftrack::PTDataStore;
use perftrack_server::{Client, Request, Response, Server, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Result<T> = std::result::Result<T, CliError>;

/// Set by the SIGTERM/SIGINT handler; polled by the serve loop.
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal(2)` with a handler that performs a single atomic
    // store is async-signal-safe; the function pointer ABI matches the
    // C `void (*)(int)` sighandler type on every unix target we build.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `pt serve <store-dir> [--bind ADDR] [--port N] [--workers N]
/// [--idle-ms N]` — serve the store over TCP until a
/// signal or a remote shutdown request. At most one expensive request
/// (export, compare, fsck) runs at a time; cheap ones are bounded by
/// `--workers` alone.
pub fn serve(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["bind", "port", "workers", "idle-ms"], &[])?;
    let dir = a.positional(0, "store directory")?;
    let addr = match (a.get("bind"), a.get("port")) {
        (Some(bind), _) => bind.to_string(),
        (None, Some(port)) => format!("127.0.0.1:{port}"),
        (None, None) => "127.0.0.1:0".to_string(),
    };
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr,
        workers: a.get_num("workers", defaults.workers)?,
        idle_timeout: Duration::from_millis(
            a.get_num("idle-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        transport: None,
    };
    // Opening the store also takes the directory lock, so a second
    // `pt serve` (or any local pt command) on the same dir fails fast.
    let store = Arc::new(PTDataStore::open(Path::new(dir))?);
    let handle = Server::start(store, cfg).map_err(|e| format!("failed to start server: {e}"))?;
    // Parseable by wrappers and tests: the only stdout line before drain.
    println!("listening on {}", handle.local_addr());
    install_signal_handlers();
    while !SHUTDOWN_SIGNAL.load(Ordering::SeqCst) && !handle.is_shut_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    handle.join();
    println!("server drained; store closed cleanly");
    Ok(())
}

/// Mint a per-invocation idempotency token: unique across CLI runs
/// (pid, wall clock and a process-local counter) so re-running `pt load`
/// on the same file still appends, while *retries within one run* reuse
/// the token and can never double-apply.
fn mint_load_token(path: &str, seq: usize) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    // FNV-1a over the path keeps tokens short but path-distinct.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "cli-{:08x}-{:016x}-{}-{}",
        std::process::id(),
        nanos ^ h,
        INVOCATION.fetch_add(1, Ordering::Relaxed),
        seq
    )
}

/// `pt --connect ADDR load <ptdf-file>...` — upload each file as one
/// load request carrying an idempotency token. Exits 2 when any request
/// succeeded only after retries.
pub fn load(addr: &str, argv: &[String]) -> Result<u8> {
    let a = parse(argv, &[], &[])?;
    let mut client = Client::connect(addr);
    if a.positional.is_empty() {
        return Err("at least one PTdf file required".into());
    }
    let mut total = perftrack_server::WireLoadStats::default();
    let mut replays = 0u64;
    for (i, path) in a.positional.iter().enumerate() {
        let text = std::fs::read_to_string(path)?;
        let token = mint_load_token(path, i);
        match client.call(&Request::LoadPtdf { text, token })? {
            Response::Loaded { stats: s, replayed } => {
                if replayed {
                    replays += 1;
                }
                total.statements += s.statements;
                total.executions += s.executions;
                total.resources += s.resources;
                total.attributes += s.attributes;
                total.results += s.results;
            }
            other => return Err(format!("unexpected response from server: {other:?}").into()),
        }
    }
    println!(
        "loaded {} files: {} executions, {} resources, {} attributes, {} results",
        a.positional.len(),
        total.executions,
        total.resources,
        total.attributes,
        total.results
    );
    if replays > 0 {
        println!("{replays} requests were replays of already-applied loads");
    }
    let retries = client.retries_performed();
    if retries > 0 {
        println!("completed after {retries} retries");
        return Ok(exit::RETRIED);
    }
    Ok(exit::OK)
}
