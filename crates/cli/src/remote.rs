//! `pt serve` and `pt --connect`: the networked halves of the CLI.
//!
//! `pt serve <store-dir>` opens the store (taking the directory lock)
//! and exposes it over TCP until SIGTERM/SIGINT or a remote `shutdown`
//! request drains it. `pt --connect host:port <subcommand>` routes the
//! read/write subcommands (`load`, `query`, `stats`, `fsck`, `compare`,
//! `export`, plus `ping`/`shutdown`) through the retrying client instead of
//! opening a local store. Exit codes mirror the local contract: remote
//! `read-only` maps to 3, `corrupt` to 4, `locked` to 5, a shed request
//! whose retry budget ran out maps to 8, and a load that succeeded only
//! after transient retries exits 2. Every `load` request carries a
//! per-invocation idempotency token so client-side retries can never
//! double-apply rows.

use crate::args::{parse, CliError};
use crate::commands::{exit, ExitCodeError};
use perftrack::PTDataStore;
use perftrack_server::{
    AdmissionConfig, Client, ClientError, ErrorCategory, NameFilter, QuerySpec, Request, Response,
    Server, ServerConfig,
};
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
/// [--queue N] [--deadline-ms N] [--idle-ms N] [--capacity N]
/// [--admission-queue N]` — serve the store over TCP until a signal or
/// a remote shutdown request. `--capacity` sets the admission
/// controller's concurrent cost budget and `--admission-queue` bounds
/// how many cheap requests may wait for capacity.
pub fn serve(argv: &[String]) -> Result<()> {
    let a = parse(
        argv,
        &[
            "bind",
            "port",
            "workers",
            "queue",
            "deadline-ms",
            "idle-ms",
            "capacity",
            "admission-queue",
        ],
        &[],
    )?;
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
        queue_depth: a.get_num("queue", defaults.queue_depth)?,
        request_deadline: Duration::from_millis(
            a.get_num("deadline-ms", defaults.request_deadline.as_millis() as u64)?,
        ),
        idle_timeout: Duration::from_millis(
            a.get_num("idle-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        admission: AdmissionConfig {
            capacity: a.get_num("capacity", defaults.admission.capacity)?,
            queue_depth: a.get_num("admission-queue", defaults.admission.queue_depth)?,
            ..defaults.admission
        },
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

/// Map a client failure onto the CLI exit-code contract. Server-reported
/// categories translate to the same codes the local commands use; pure
/// transport failures stay at the generic exit 1.
fn map_client_err(e: ClientError) -> CliError {
    let code = match e.remote_category() {
        Some(ErrorCategory::ReadOnly) => exit::DEGRADED,
        Some(ErrorCategory::Corrupt) => exit::CORRUPT,
        Some(ErrorCategory::Locked) => exit::LOCKED,
        Some(ErrorCategory::Overloaded) => exit::OVERLOADED,
        _ => 1,
    };
    if code != 1 {
        return ExitCodeError {
            code,
            msg: e.to_string(),
        }
        .into();
    }
    Box::new(e)
}

fn unexpected(resp: &Response) -> CliError {
    format!("unexpected response from server: {resp:?}").into()
}

/// `pt --connect host:port <subcommand> ...` — dispatch a subcommand
/// over the wire. Returns the process exit code.
pub fn dispatch(addr: &str, cmd: &str, rest: &[String]) -> Result<u8> {
    let mut client = Client::connect(addr);
    match cmd {
        "ping" => {
            match client.call(&Request::Ping).map_err(map_client_err)? {
                Response::Pong { version, degraded } => {
                    println!("server protocol v{version}, degraded: {degraded}");
                    Ok(0)
                }
                other => Err(unexpected(&other)),
            }
        }
        "load" => remote_load(&mut client, rest),
        "query" => remote_query(&mut client, rest).map(|()| 0),
        "stats" => remote_stats(&mut client, rest).map(|()| 0),
        "fsck" => remote_fsck(&mut client, rest).map(|()| 0),
        "compare" => remote_compare(&mut client, rest).map(|()| 0),
        "export" => remote_export(&mut client, rest).map(|()| 0),
        "shutdown" => {
            match client.call(&Request::Shutdown).map_err(map_client_err)? {
                Response::ShuttingDown => {
                    println!("server is draining");
                    Ok(0)
                }
                other => Err(unexpected(&other)),
            }
        }
        other => Err(format!(
            "unknown remote command {other:?} (supported: ping, load, query, stats, fsck, compare, export, shutdown)"
        )
        .into()),
    }
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
fn remote_load(client: &mut Client, argv: &[String]) -> Result<u8> {
    let a = parse(argv, &[], &[])?;
    if a.positional.is_empty() {
        return Err("at least one PTdf file required".into());
    }
    let mut total = perftrack_server::WireLoadStats::default();
    let mut replays = 0u64;
    for (i, path) in a.positional.iter().enumerate() {
        let text = std::fs::read_to_string(path)?;
        let token = mint_load_token(path, i);
        match client
            .call(&Request::LoadPtdf { text, token })
            .map_err(map_client_err)?
        {
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
            other => return Err(unexpected(&other)),
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

/// Build a [`QuerySpec`] from `--name/--type/--relatives/--add-column`,
/// mirroring the local `pt query` flags.
fn query_spec_from_args(argv: &[String]) -> Result<(QuerySpec, crate::args::Args)> {
    let a = parse(argv, &["name", "type", "relatives", "add-column"], &["csv"])?;
    let relatives = a
        .get("relatives")
        .and_then(|c| c.chars().next())
        .unwrap_or('D');
    let spec = QuerySpec {
        names: a
            .get_all("name")
            .into_iter()
            .map(|p| NameFilter {
                pattern: p.to_string(),
                relatives,
            })
            .collect(),
        types: a.get_all("type").into_iter().map(String::from).collect(),
        add_columns: a
            .get_all("add-column")
            .into_iter()
            .map(String::from)
            .collect(),
    };
    Ok((spec, a))
}

fn remote_query(client: &mut Client, argv: &[String]) -> Result<()> {
    let (spec, a) = query_spec_from_args(argv)?;
    match client.call(&Request::Query(spec)).map_err(map_client_err)? {
        Response::Table { columns, rows } => {
            if a.has_flag("csv") {
                println!("{}", columns.join(","));
                for row in &rows {
                    println!("{}", row.join(","));
                }
            } else {
                println!("{}", columns.join(" | "));
                for row in &rows {
                    println!("{}", row.join(" | "));
                }
                println!("({} rows)", rows.len());
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

fn remote_stats(client: &mut Client, argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &["json"])?;
    match client.call(&Request::Stats).map_err(map_client_err)? {
        Response::Stats { json, table } => {
            if a.has_flag("json") {
                println!("{json}");
            } else {
                print!("{table}");
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

fn remote_fsck(client: &mut Client, argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &["deep", "json"])?;
    let deep = a.has_flag("deep");
    match client
        .call(&Request::Fsck { deep })
        .map_err(map_client_err)?
    {
        Response::FsckDone {
            errors,
            json,
            table,
            ..
        } => {
            if a.has_flag("json") {
                println!("{json}");
            } else {
                print!("{table}");
            }
            if errors > 0 {
                return Err(format!("integrity check failed: {errors} errors").into());
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

/// `pt --connect ADDR compare <exec-a> <exec-b> [exec...] [--json]
/// [--top K] [--threshold PCT]` — run the tree comparison server-side
/// and print whichever rendering was asked for. The wire protocol
/// carries the threshold in whole percent; `--agg`/`--normalize` are
/// local-only options.
fn remote_compare(client: &mut Client, argv: &[String]) -> Result<()> {
    let a = parse(argv, &["top", "threshold"], &["json", "table"])?;
    let req = Request::Compare {
        executions: a.positional.clone(),
        top: a.get_num("top", 10u32)?,
        threshold_pct: a.get_num("threshold", 25u32)?,
    };
    match client.call(&req).map_err(map_client_err)? {
        Response::CompareDone { json, table } => {
            if a.has_flag("json") {
                println!("{json}");
            } else {
                print!("{table}");
            }
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}

fn remote_export(client: &mut Client, argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let out = a.positional(0, "output file")?;
    match client.call(&Request::Export).map_err(map_client_err)? {
        Response::Ptdf { text } => {
            let statements = text.lines().filter(|l| !l.trim().is_empty()).count();
            std::fs::write(out, text)?;
            println!("exported {statements} statements to {out}");
            Ok(())
        }
        other => Err(unexpected(&other)),
    }
}
