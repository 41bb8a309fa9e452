//! Implementations of the `pt` subcommands.
//!
//! `query`, `stats`, `fsck`, `export` and `compare` run on a [`Site`]:
//! the store directory `pt <cmd> <store-dir>` names, answered in-process
//! by `perftrack_server::ops`, or the `pt serve` address of
//! `pt --connect ADDR <cmd>`, answered by the same functions through the
//! [`Client`]. Each builds one [`Request`] from its arguments and prints
//! the [`Response`] with [`render`], so both sites print the same bytes.

use crate::args::{parse, Args, CliError};
use perftrack::{
    BulkLoadOptions, CompareOptions, DetachedTable, PTDataStore, Predictor, PtError, QueryEngine,
    Reports,
};
use perftrack_adapters as adapters;
use perftrack_collect::MachineModel;
use perftrack_server::{
    categorize, ops, Client, ClientError, ErrorCategory, NameFilter, QuerySpec, Request, Response,
};
use perftrack_workloads as wl;
use std::path::{Path, PathBuf};

type Result<T> = std::result::Result<T, CliError>;

/// `pt` exit codes (documented in the README's CLI table):
/// 0 = success, 2 = completed after transient I/O retries, 3 = store is
/// in read-only degraded mode, 4 = corruption detected, 5 = the store
/// directory is locked by another process, 8 = the server stayed
/// overloaded past the retry budget. 1 stays the generic failure code;
/// 6 and 7 are unused.
pub mod exit {
    pub const OK: u8 = 0;
    pub const RETRIED: u8 = 2;
    pub const DEGRADED: u8 = 3;
    pub const CORRUPT: u8 = 4;
    pub const LOCKED: u8 = 5;
    /// The server shed the request under load and the retry budget ran
    /// out before it was admitted.
    pub const OVERLOADED: u8 = 8;
}

/// An error that carries an explicit process exit code (used when a
/// failure classifies as degraded/corrupt rather than generic).
#[derive(Debug)]
pub struct ExitCodeError {
    pub code: u8,
    pub msg: String,
}

impl std::fmt::Display for ExitCodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ExitCodeError {}

/// The exit code of an error category, for local and remote errors
/// alike; categories outside the contract exit 1.
fn code_for(category: ErrorCategory) -> u8 {
    match category {
        ErrorCategory::ReadOnly => exit::DEGRADED,
        ErrorCategory::Corrupt => exit::CORRUPT,
        ErrorCategory::Locked => exit::LOCKED,
        ErrorCategory::Overloaded => exit::OVERLOADED,
        _ => 1,
    }
}

/// Map a command's error to the exit-code contract: a local engine error
/// is categorized as the server would report it, and a remote one
/// carries the server's category.
pub fn exit_code_for(e: &CliError) -> u8 {
    if let Some(x) = e.downcast_ref::<ExitCodeError>() {
        return x.code;
    }
    let category = match (e.downcast_ref::<PtError>(), e.downcast_ref::<ClientError>()) {
        (Some(pt), _) => Some(categorize(pt)),
        (None, Some(c)) => c.remote_category(),
        (None, None) => None,
    };
    category.map_or(1, code_for)
}

/// Where a command runs: a local store directory, or the address of a
/// `pt serve` (`pt --connect ADDR <cmd>`).
enum Site {
    Dir(String),
    Addr(String),
}

/// A command's value options and flags.
type Opts<'a> = (&'a [&'a str], &'a [&'a str]);

const NO_OPTS: Opts<'static> = (&[], &[]);

/// Parse a command that runs on either site. `opts` are declared on
/// both; `local_only` only on a store directory, so over `--connect`
/// they are unknown options and fail here, before anything is opened.
/// A local command's first positional is its store directory, which is
/// taken out of the returned positionals.
fn parse_at(
    connect: Option<&str>,
    argv: &[String],
    opts: Opts<'_>,
    local_only: Opts<'_>,
) -> Result<(Site, Args)> {
    let Some(addr) = connect else {
        let values = [opts.0, local_only.0].concat();
        let flags = [opts.1, local_only.1].concat();
        let mut a = parse(argv, &values, &flags)?;
        let dir = a.positional(0, "store directory")?.to_string();
        a.positional.remove(0);
        return Ok((Site::Dir(dir), a));
    };
    Ok((Site::Addr(addr.to_string()), parse(argv, opts.0, opts.1)?))
}

impl Site {
    /// Answer `req`: in-process on the local store (opening it takes
    /// its directory lock), or over the wire.
    fn call(&self, req: &Request) -> Result<Response> {
        Ok(match self {
            Site::Dir(dir) => ops::execute(&open_store(dir)?, req)?,
            Site::Addr(addr) => Client::connect(addr.as_str()).call(req)?,
        })
    }
}

/// Print a response as its command does, whichever site answered.
/// `--json` picks the JSON rendering where there is one, `--csv` the CSV
/// form of a table; an export writes its text to positional 0. A check
/// with error findings prints its report, then fails.
fn render(resp: Response, a: &Args) -> Result<()> {
    let failed = match &resp {
        Response::FsckDone {
            errors, warnings, ..
        } => (*errors > 0).then(|| format!("{errors} error(s), {warnings} warning(s)")),
        _ => None,
    };
    match resp {
        Response::Table { columns, rows } => {
            if a.has_flag("csv") {
                print!("{}", DetachedTable { columns, rows }.to_csv());
            } else {
                println!("{}", columns.join(" | "));
                for row in &rows {
                    println!("{}", row.join(" | "));
                }
                println!("({} rows)", rows.len());
            }
        }
        Response::Stats { json, table }
        | Response::CompareDone { json, table }
        | Response::FsckDone { json, table, .. } => {
            if a.has_flag("json") {
                println!("{json}");
            } else {
                print!("{table}");
            }
        }
        Response::Ptdf { text } => {
            let out = a.positional(0, "output file")?;
            let statements = text.lines().filter(|l| !l.trim().is_empty()).count();
            std::fs::write(out, text)?;
            println!("exported {statements} statements to {out}");
        }
        Response::Pong { version, degraded } => {
            println!("server protocol v{version}, degraded: {degraded}");
        }
        Response::ShuttingDown => println!("server is draining"),
        other => return Err(format!("unexpected response from server: {other:?}").into()),
    }
    match failed {
        Some(summary) => Err(format!("integrity check failed: {summary}").into()),
        None => Ok(()),
    }
}

fn open_store(dir: &str) -> Result<PTDataStore> {
    Ok(PTDataStore::open(Path::new(dir))?)
}

/// `pt init <store-dir>` — create a persistent store with the schema and
/// base types.
pub fn init(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    println!(
        "initialized PerfTrack store at {dir} ({} base resource types, {} bytes)",
        store.registry().len(),
        store.size_bytes()?
    );
    Ok(())
}

/// `pt machines <store-dir>` — load the paper's four machine models.
pub fn machines(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["nodes"], &[])?;
    let dir = a.positional(0, "store directory")?;
    let nodes: usize = a.get_num("nodes", 4)?;
    let store = open_store(dir)?;
    for model in [
        MachineModel::mcr(),
        MachineModel::frost(),
        MachineModel::uv(),
        MachineModel::bgl(),
    ] {
        let stats = store.load_statements(&model.to_ptdf(nodes))?;
        println!(
            "{}: {} resources, {} attributes",
            model.name, stats.resources, stats.attributes
        );
    }
    Ok(())
}

/// `pt gen <dataset> <out-dir>` — write a synthetic dataset plus a PTdfGen
/// index file.
pub fn gen(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["execs", "seed"], &[])?;
    let dataset = a.positional(0, "dataset (irs|smg-uv|smg-bgl|paradyn)")?;
    let out = PathBuf::from(a.positional(1, "output directory")?);
    let seed: u64 = a.get_num("seed", 2005)?;
    let (bundles, default_execs): (Box<dyn Fn(usize) -> Vec<wl::ExecutionBundle>>, usize) =
        match dataset {
            "irs" => (Box::new(move |n| wl::irs_purple(seed, n)), 62),
            "smg-uv" => (Box::new(move |n| wl::smg_uv(seed, n)), 35),
            "smg-bgl" => (Box::new(move |n| wl::smg_bgl(seed, n)), 60),
            "paradyn" => {
                let execs: usize = a.get_num("execs", 3)?;
                std::fs::create_dir_all(&out)?;
                let mut files = 0usize;
                for b in wl::paradyn_irs(seed, execs, false) {
                    wl::write_files(&out, &b.export.all_files())?;
                    files += b.export.all_files().len();
                }
                println!("wrote {files} Paradyn export files to {}", out.display());
                return Ok(());
            }
            other => return Err(format!("unknown dataset {other:?}").into()),
        };
    let execs: usize = a.get_num("execs", default_execs)?;
    std::fs::create_dir_all(&out)?;
    let bundles = bundles(execs);
    let mut index_entries = Vec::new();
    let mut nfiles = 0usize;
    for b in &bundles {
        wl::write_files(&out, &b.files)?;
        nfiles += b.files.len();
        index_entries.push(adapters::IndexEntry {
            execution: b.exec_name.clone(),
            application: b.application.clone(),
            concurrency: "MPI".into(),
            processes: b.np,
            threads: 1,
            build_timestamp: "2005-06-01T00:00:00".into(),
            run_timestamp: "2005-06-02T00:00:00".into(),
        });
    }
    let index_path = out.join("ptdfgen.index");
    std::fs::write(&index_path, adapters::write_index(&index_entries))?;
    println!(
        "wrote {nfiles} raw files for {} executions to {} (index: {})",
        bundles.len(),
        out.display(),
        index_path.display()
    );
    Ok(())
}

/// `pt convert <raw-dir> --index <file> --out <dir>` — PTdfGen batch
/// conversion.
pub fn convert(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["index", "out"], &[])?;
    let raw_dir = PathBuf::from(a.positional(0, "raw data directory")?);
    let index_path = a
        .get("index")
        .map_or_else(|| raw_dir.join("ptdfgen.index"), PathBuf::from);
    let out = PathBuf::from(a.get("out").ok_or("--out <dir> required")?);
    std::fs::create_dir_all(&out)?;
    let index_text = std::fs::read_to_string(&index_path)?;
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&raw_dir)? {
        let entry = entry?;
        if entry.path() == index_path {
            continue;
        }
        if entry.file_type()?.is_file() {
            files.push((
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(entry.path())?,
            ));
        }
    }
    let converted = adapters::generate_all(&index_text, &files)?;
    for (exec, stmts) in &converted {
        let path = out.join(format!("{exec}.ptdf"));
        std::fs::write(&path, perftrack_ptdf::to_string(stmts))?;
        println!("{}: {} statements", path.display(), stmts.len());
    }
    println!("converted {} executions", converted.len());
    Ok(())
}

/// `pt load <store-dir> <ptdf-file>... [--resume] [--batch N]` — load
/// PTdf files through the crash-safe, idempotent bulk loader. Returns
/// the exit code per the contract in [`exit`].
pub fn load(argv: &[String]) -> Result<u8> {
    let a = parse(argv, &["batch"], &["resume", "verify", "profile", "json"])?;
    let dir = a.positional(0, "store directory")?;
    if a.positional.len() < 2 {
        return Err("at least one PTdf file required".into());
    }
    let opts = BulkLoadOptions {
        batch_statements: a.get_num("batch", 256)?,
        resume: a.has_flag("resume"),
    };
    let store = PTDataStore::open(Path::new(dir))?;
    let paths: Vec<PathBuf> = a.positional[1..].iter().map(PathBuf::from).collect();
    let start = std::time::Instant::now();
    let retries_before = store.db().metrics().io.retries;
    let report = store.load_ptdf_files_resumable(&paths, &opts)?;
    let stats = &report.stats;
    println!(
        "loaded {} files in {:.2?}: {} executions, {} resources, {} attributes, {} results",
        paths.len(),
        start.elapsed(),
        stats.executions,
        stats.resources,
        stats.attributes,
        stats.results
    );
    println!(
        "manifest: {} loaded, {} skipped, {} batches, {} statements resumed",
        report.files_loaded,
        report.files_skipped,
        report.batches_committed,
        report.resumed_statements
    );
    println!("store size: {} bytes", store.size_bytes()?);
    if a.has_flag("verify") {
        let report = store.fsck(false)?;
        println!("fsck: {}", report.summary());
        if report.error_count() > 0 {
            return Err(ExitCodeError {
                code: exit::CORRUPT,
                msg: format!("post-load verification failed: {}", report.summary()),
            }
            .into());
        }
    }
    if a.has_flag("profile") {
        let snap = store.db().metrics();
        if a.has_flag("json") {
            println!("{}", snap.to_json().emit());
        } else {
            print!("{}", snap.render_table());
        }
    }
    let retries = store.db().metrics().io.retries - retries_before;
    if store.is_degraded() {
        eprintln!("pt load: store entered read-only degraded mode");
        Ok(exit::DEGRADED)
    } else if retries > 0 {
        println!("completed after {retries} transient I/O retries");
        Ok(exit::RETRIED)
    } else {
        Ok(exit::OK)
    }
}

/// `pt stats <store-dir> [--json]` — engine observability counters
/// (buffer pool, WAL, B+trees, transactions); a server adds its own
/// under `server`. The metric names and the JSON schema are documented
/// in `docs/METRICS.md`.
pub fn stats(connect: Option<&str>, argv: &[String]) -> Result<()> {
    let (site, a) = parse_at(connect, argv, (&[], &["json"]), NO_OPTS)?;
    render(site.call(&Request::Stats)?, &a)
}

/// `pt analyze <store-dir>` — collect planner statistics (per-table row
/// counts, per-index distinct-key counts, equi-depth histograms) and
/// persist them in the catalog. Until the next `analyze`, the query
/// planner costs access paths from these numbers; heavy mutation drifts
/// them stale and the planner falls back to its heuristic (thresholds
/// and the statistics format are documented in `docs/PLANNER.md`).
pub fn analyze(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    let (tables, indexes) = store.db().analyze().map_err(PtError::from)?;
    println!("analyzed {tables} tables and {indexes} indexes; statistics persisted to the catalog");
    Ok(())
}

/// `pt fsck <store-dir> [--deep] [--json]` — whole-store integrity
/// verification: slotted pages, B+trees, WAL, catalog, closure tables,
/// and foreign keys. Every invariant, finding code, and the JSON schema
/// are documented in `docs/FSCK.md`. Exits nonzero when any
/// error-severity finding is reported (warnings alone exit zero).
pub fn fsck(connect: Option<&str>, argv: &[String]) -> Result<()> {
    let (site, a) = parse_at(connect, argv, (&[], &["deep", "json"]), NO_OPTS)?;
    // Unlike the other commands, refuse to create a store here: verifying
    // a store this command just created would always (vacuously) pass.
    if let Site::Dir(dir) = &site {
        if !Path::new(dir).join("pages.db").exists() {
            return Err(format!("no store found at {dir} (missing pages.db)").into());
        }
    }
    let req = Request::Fsck {
        deep: a.has_flag("deep"),
    };
    render(site.call(&req)?, &a)
}

/// `pt report <store-dir> [kind]` — simple reports (§3.3).
pub fn report(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let dir = a.positional(0, "store directory")?;
    let kind = a.positional.get(1).map_or("summary", String::as_str);
    let store = open_store(dir)?;
    match kind {
        "summary" => {
            let summary = Reports::new(&store).summary()?;
            print!("{}", Reports::render_summary(&summary));
        }
        "execution" => {
            let name = a.positional(2, "execution name")?;
            let detail = Reports::new(&store).execution(name)?;
            print!("{}", Reports::render_execution(&detail));
        }
        "resource" => {
            let name = a.positional(2, "resource full name")?;
            let d = Reports::new(&store).resource(name)?;
            println!("{} ({})", d.name, d.type_path);
            println!(
                "  children: {}  results in context: {}",
                d.children, d.results_in_context
            );
            for (k, v) in &d.attributes {
                println!("  {k} = {v}");
            }
        }
        "types" => {
            for tp in store.registry().all() {
                println!("{tp}");
            }
        }
        "executions" => {
            for (id, name) in store.executions() {
                println!("{id}\t{name}");
            }
        }
        "metrics" => {
            for m in store.metrics() {
                println!("{m}");
            }
        }
        "tables" => {
            for (name, table) in store.schema().all_tables() {
                let rows = store.db().row_count(table).map_err(PtError::from)?;
                println!("{name}\t{rows} rows");
            }
        }
        other => return Err(format!("unknown report {other:?}").into()),
    }
    Ok(())
}

/// The pr-filter flags: `--name`, `--type`, `--relatives` and
/// `--add-column`, as the spec `pt query` sends on either site (and
/// `count`, `chart` and `explain` run locally).
/// [`QuerySpec::filters`] validates them.
fn query_spec(a: &Args) -> QuerySpec {
    let relatives = a
        .get("relatives")
        .map_or('D', |c| c.chars().next().unwrap_or('D'));
    QuerySpec {
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
    }
}

/// `pt query <store-dir> [--name PAT]... [--type PATH]...` — run a
/// pr-filter query and print the result table. With `--profile`, an
/// EXPLAIN-style per-operator profile of the executed pipeline follows
/// the rows (as JSON with `--json`; schema in `docs/METRICS.md`);
/// `--explain` prints the plan instead of running it. Both are
/// local-only options.
pub fn query(connect: Option<&str>, argv: &[String]) -> Result<()> {
    let (site, a) = parse_at(
        connect,
        argv,
        (&["name", "type", "relatives", "add-column"], &["csv"]),
        (&[], &["explain", "profile", "json"]),
    )?;
    let spec = query_spec(&a);
    let Site::Dir(dir) = &site else {
        return render(site.call(&Request::Query(spec))?, &a);
    };
    let store = open_store(dir)?;
    if a.has_flag("explain") {
        // EXPLAIN without executing, like SQL's EXPLAIN.
        return print_explain(&store, &spec, &a);
    }
    // The function `Request::Query` runs, which also yields the profile.
    let (resp, profile) = ops::query(&store, &spec)?;
    render(resp, &a)?;
    if a.has_flag("profile") {
        if a.has_flag("json") {
            println!("{}", profile.to_json().emit());
        } else {
            // To stderr so `--csv | ...` pipelines stay clean.
            eprint!("{}", profile.render_table());
        }
    }
    Ok(())
}

fn print_explain(store: &PTDataStore, spec: &QuerySpec, a: &Args) -> Result<()> {
    let plan = QueryEngine::new(store).explain(&spec.filters()?)?;
    if a.has_flag("json") {
        println!("{}", plan.to_json().emit());
    } else {
        print!("{}", plan.render_table());
    }
    Ok(())
}

/// `pt explain <store-dir> [--name PAT]... [--type PATH]...
/// [--relatives D|A|B|N] [--json]` — show the pr-filter pipeline
/// without running it: access path, closure expansion, the match order
/// and context access execution takes, and estimated rows per operator,
/// as the versioned `pt-explain/v1` tree (schema in `docs/PLANNER.md`).
pub fn explain(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["name", "type", "relatives"], &["json"])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    print_explain(&store, &query_spec(&a), &a)
}

/// `pt count <store-dir> ...` — the GUI's live match counts.
pub fn count(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["name", "type", "relatives"], &[])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    let engine = QueryEngine::new(&store);
    let filters = query_spec(&a).filters()?;
    let families: Vec<_> = filters
        .iter()
        .map(|f| engine.family(f))
        .collect::<std::result::Result<_, _>>()?;
    let counts = engine.match_counts(&families)?;
    for (i, (f, n)) in filters.iter().zip(&counts.per_family).enumerate() {
        println!("family {i} ({:?}): {n} results", f.selector);
    }
    println!("whole pr-filter: {} results", counts.whole);
    Ok(())
}

/// `pt chart <store-dir> --name PAT --category COL --series COL`.
pub fn chart(argv: &[String]) -> Result<()> {
    let a = parse(
        argv,
        &[
            "name",
            "type",
            "relatives",
            "category",
            "series",
            "title",
            "add-column",
            "svg",
        ],
        &["csv"],
    )?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    let (table, _) = ops::retrieve(&store, &query_spec(&a))?;
    let category: usize = a.get_num("category", 0)?;
    let series: usize = a.get_num("series", 1)?;
    let title = a.get("title").unwrap_or("PerfTrack chart");
    let chart = table.chart(title, category, series)?;
    // Write the SVG before printing: stdout may be a pipe that closes
    // early, and the file artifact should not depend on it.
    if let Some(path) = a.get("svg") {
        std::fs::write(path, chart.to_svg(720, 420))?;
    }
    println!("{}", chart.render_ascii(78));
    if a.has_flag("csv") {
        print!("{}", chart.to_csv());
    }
    if let Some(path) = a.get("svg") {
        println!("wrote {path}");
    }
    Ok(())
}

/// Build [`CompareOptions`] from `--top/--threshold/--agg/--normalize`.
fn compare_options(a: &Args) -> Result<CompareOptions> {
    let defaults = CompareOptions::default();
    let aggregate = match a.get("agg") {
        Some(s) => perftrack::Aggregate::parse(s)
            .ok_or_else(|| format!("bad --agg {s:?} (mean|sum|min|max)"))?,
        None => defaults.aggregate,
    };
    let normalization = match a.get("normalize") {
        Some(s) => perftrack::Normalization::parse(s)
            .ok_or_else(|| format!("bad --normalize {s:?} (raw|share)"))?,
        None => defaults.normalization,
    };
    Ok(CompareOptions {
        aggregate,
        normalization,
        threshold_pct: a.get_num("threshold", defaults.threshold_pct)?,
        top: a.get_num("top", defaults.top)?,
    })
}

/// `pt compare <store-dir> <exec-a> <exec-b> [exec...] [--json|--table]
/// [--top K] [--threshold PCT] [--agg A] [--normalize N]` — align the
/// executions' resource trees, rank the most-divergent resources, and
/// render the result as a table (default) or as the versioned
/// `pt-compare/v1` JSON document (contract in `docs/COMPARE.md`).
pub fn compare(connect: Option<&str>, argv: &[String]) -> Result<()> {
    let (site, a) = parse_at(
        connect,
        argv,
        (&["threshold", "top"], &["json", "table"]),
        (&["agg", "normalize"], &[]),
    )?;
    if a.positional.len() < 2 {
        return Err("at least two executions required".into());
    }
    let resp = match &site {
        // `Request::Compare` carries no `--agg`/`--normalize` and takes
        // the threshold in whole percent, so a local store is compared
        // with the full options, by the function the server's arm calls.
        Site::Dir(dir) => {
            let opts = compare_options(&a)?;
            ops::compare(&open_store(dir)?, &a.positional, &opts)?
        }
        Site::Addr(_) => {
            let defaults = CompareOptions::default();
            let req = Request::Compare {
                executions: a.positional.clone(),
                top: a.get_num("top", defaults.top as u32)?,
                threshold_pct: a.get_num("threshold", defaults.threshold_pct as u32)?,
            };
            site.call(&req)?
        }
    };
    render(resp, &a)
}

/// `pt predict <store-dir> --metric M --train E1,E2,... [--check EXEC]
/// [--at NP]` — fit a scaling model and optionally validate it against a
/// held-out execution or predict a new process count (§6 future work).
pub fn predict(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["metric", "train", "check", "at"], &[])?;
    let dir = a.positional(0, "store directory")?;
    let metric = a.get("metric").ok_or("--metric required")?;
    let train = a.get("train").ok_or("--train E1,E2,... required")?;
    let store = open_store(dir)?;
    let predictor = Predictor::new(&store);
    let execs: Vec<&str> = train.split(',').map(str::trim).collect();
    let model = predictor.fit_scaling(metric, &execs)?;
    println!(
        "fitted T(p) = {:.4} + {:.4}/p over {} observations (R² = {:.4})",
        model.serial,
        model.parallel,
        model.observations.len(),
        model.r_squared
    );
    if let Some(exec) = a.get("check") {
        let check = predictor.check(&model, exec)?;
        println!(
            "holdout {exec} (np={}): predicted {:.4}, actual {:.4}, error {:+.2}%",
            check.processes,
            check.predicted,
            check.actual,
            check.relative_error * 100.0
        );
    }
    if let Some(at) = a.get("at") {
        let np: usize = at.parse().map_err(|_| format!("--at: bad count {at:?}"))?;
        println!(
            "prediction at np={np}: {:.4} (efficiency {:.1}%)",
            model.predict(np),
            model.efficiency(np) * 100.0
        );
    }
    Ok(())
}

/// `pt delete <store-dir> <execution>` — cascade-delete an execution.
pub fn delete(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let dir = a.positional(0, "store directory")?;
    let exec = a.positional(1, "execution name")?;
    let store = open_store(dir)?;
    let (results, foci, links) = store.delete_execution(exec)?;
    println!("deleted execution {exec}: {results} results, {foci} foci, {links} focus links");
    Ok(())
}

/// `pt export <store-dir> <out-file>` — dump the store as PTdf.
pub fn export(connect: Option<&str>, argv: &[String]) -> Result<()> {
    let (site, a) = parse_at(connect, argv, NO_OPTS, NO_OPTS)?;
    a.positional(0, "output file")?;
    render(site.call(&Request::Export)?, &a)
}

/// `pt --connect ADDR ping|shutdown` — the requests a server answers
/// about itself: its protocol version and degraded flag, or a drain.
pub fn session(addr: &str, req: &Request, argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    render(Site::Addr(addr.to_string()).call(req)?, &a)
}
