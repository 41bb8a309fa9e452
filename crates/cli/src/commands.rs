//! Implementations of the `pt` subcommands.

use crate::args::{parse, Args, CliError};
use perftrack::{
    BulkLoadOptions, Compare, CompareOptions, PTDataStore, Predictor, QueryEngine, Reports,
    SelectionDialog,
};
use perftrack_adapters as adapters;
use perftrack_collect::MachineModel;
use perftrack_model::{Relatives, ResourceFilter, TypePath};
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

/// Map an error to the exit-code contract by walking its source chain
/// for typed storage errors.
pub fn exit_code_for(e: &CliError) -> u8 {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e.as_ref());
    while let Some(err) = cur {
        if let Some(x) = err.downcast_ref::<ExitCodeError>() {
            return x.code;
        }
        if let Some(s) = err.downcast_ref::<perftrack_store::StoreError>() {
            match s {
                perftrack_store::StoreError::ReadOnly => return exit::DEGRADED,
                perftrack_store::StoreError::Corrupt(_) => return exit::CORRUPT,
                perftrack_store::StoreError::Locked(_) => return exit::LOCKED,
                _ => {}
            }
        }
        cur = err.source();
    }
    1
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
/// (buffer pool, WAL, B+trees, transactions). The metric names and the
/// JSON schema are documented in `docs/METRICS.md`.
pub fn stats(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &["json"])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    let snap = store.db().metrics();
    if a.has_flag("json") {
        println!("{}", snap.to_json().emit());
    } else {
        print!("{}", snap.render_table());
    }
    Ok(())
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
    let (tables, indexes) = store.db().analyze()?;
    println!("analyzed {tables} tables and {indexes} indexes; statistics persisted to the catalog");
    Ok(())
}

/// `pt fsck <store-dir> [--deep] [--json]` — whole-store integrity
/// verification: slotted pages, B+trees, WAL, catalog, closure tables,
/// and foreign keys. Every invariant, finding code, and the JSON schema
/// are documented in `docs/FSCK.md`. Exits nonzero when any
/// error-severity finding is reported (warnings alone exit zero).
pub fn fsck(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &["deep", "json"])?;
    let dir = a.positional(0, "store directory")?;
    // Unlike the other commands, refuse to create a store here: verifying
    // a store this command just created would always (vacuously) pass.
    if !Path::new(dir).join("pages.db").exists() {
        return Err(format!("no store found at {dir} (missing pages.db)").into());
    }
    let store = open_store(dir)?;
    let report = store.fsck(a.has_flag("deep"))?;
    if a.has_flag("json") {
        println!("{}", report.to_json().emit());
    } else {
        print!("{}", report.render_table());
    }
    if report.error_count() > 0 {
        return Err(format!("integrity check failed: {}", report.summary()).into());
    }
    Ok(())
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
                println!("{name}\t{} rows", store.db().row_count(table)?);
            }
        }
        other => return Err(format!("unknown report {other:?}").into()),
    }
    Ok(())
}

fn filters_from_args(a: &Args) -> Result<Vec<ResourceFilter>> {
    let relatives = match a.get("relatives") {
        Some(code) => {
            let c = code.chars().next().unwrap_or('D');
            Relatives::from_code(c).ok_or_else(|| format!("bad relatives code {code:?}"))?
        }
        None => Relatives::Descendants,
    };
    let mut filters = Vec::new();
    for name in a.get_all("name") {
        filters.push(ResourceFilter::by_name(name).relatives(relatives));
    }
    for ty in a.get_all("type") {
        filters.push(ResourceFilter::by_type(
            TypePath::new(ty).map_err(|e| e.to_string())?,
        ));
    }
    Ok(filters)
}

/// `pt query <store-dir> [--name PAT]... [--type PATH]...` — run a
/// pr-filter query and print the result table. With `--profile`, an
/// EXPLAIN-style per-operator profile of the executed pipeline follows
/// the rows (as JSON with `--json`; schema in `docs/METRICS.md`).
pub fn query(argv: &[String]) -> Result<()> {
    let a = parse(
        argv,
        &["name", "type", "relatives", "add-column"],
        &["explain", "profile", "csv", "json"],
    )?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    if a.has_flag("explain") {
        // EXPLAIN without executing, like SQL's EXPLAIN.
        print_explain(&store, &a)?;
        return Ok(());
    }
    let mut dialog = SelectionDialog::new(&store);
    for f in filters_from_args(&a)? {
        match &f.selector {
            perftrack_model::Selector::ByName(n) => dialog.add_name(n, f.relatives),
            perftrack_model::Selector::ByType(t) => dialog.add_type(t),
            perftrack_model::Selector::ByAttrs(_) => {}
        }
    }
    let (mut table, profile) = if a.has_flag("profile") {
        let (t, p) = dialog.retrieve_profiled()?;
        (t, Some(p))
    } else {
        (dialog.retrieve()?, None)
    };
    for col in a.get_all("add-column") {
        table.add_resource_column(col);
    }
    if a.has_flag("csv") {
        print!("{}", table.to_csv()?);
    } else {
        println!("{}", table.columns().join(" | "));
        for row in table.render()? {
            println!("{}", row.join(" | "));
        }
        println!("({} rows)", table.len());
    }
    if let Some(p) = profile {
        if a.has_flag("json") {
            println!("{}", p.to_json().emit());
        } else {
            // To stderr so `--csv | ...` pipelines stay clean.
            eprint!("{}", p.render_table());
        }
    }
    Ok(())
}

fn print_explain(store: &PTDataStore, a: &Args) -> Result<()> {
    let engine = QueryEngine::new(store);
    let plan = engine.explain(&filters_from_args(a)?);
    if a.has_flag("json") {
        println!("{}", plan.to_json().emit());
    } else {
        print!("{}", plan.render_table());
    }
    Ok(())
}

/// `pt explain <store-dir> [--name PAT]... [--type PATH]...
/// [--relatives D|A|B|N] [--json]` — show the planned pr-filter pipeline
/// without running it: access path, closure expansion, match order, and
/// estimated rows per operator, as the versioned `pt-explain/v1` tree
/// (schema in `docs/PLANNER.md`).
pub fn explain(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["name", "type", "relatives"], &["json"])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    print_explain(&store, &a)
}

/// `pt count <store-dir> ...` — the GUI's live match counts.
pub fn count(argv: &[String]) -> Result<()> {
    let a = parse(argv, &["name", "type", "relatives"], &[])?;
    let dir = a.positional(0, "store directory")?;
    let store = open_store(dir)?;
    let engine = QueryEngine::new(&store);
    let filters = filters_from_args(&a)?;
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
    let mut dialog = SelectionDialog::new(&store);
    for f in filters_from_args(&a)? {
        if let perftrack_model::Selector::ByName(n) = &f.selector {
            dialog.add_name(n, f.relatives);
        }
    }
    let mut table = dialog.retrieve()?;
    for col in a.get_all("add-column") {
        table.add_resource_column(col);
    }
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

/// Build [`CompareOptions`] from the shared `--top/--threshold/--agg/
/// --normalize` flags (used by the local and remote compare paths).
pub fn compare_options(a: &Args) -> Result<CompareOptions> {
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
pub fn compare(argv: &[String]) -> Result<()> {
    let a = parse(
        argv,
        &["threshold", "top", "agg", "normalize"],
        &["json", "table"],
    )?;
    let dir = a.positional(0, "store directory")?;
    if a.positional.len() < 3 {
        return Err("at least two executions required".into());
    }
    let execs: Vec<&str> = a.positional[1..].iter().map(String::as_str).collect();
    let opts = compare_options(&a)?;
    let store = open_store(dir)?;
    let report = Compare::new(&store).tree_compare(&execs, &opts)?;
    if a.has_flag("json") {
        println!("{}", report.to_json().emit());
    } else {
        print!("{}", report.render_table());
    }
    Ok(())
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
pub fn export(argv: &[String]) -> Result<()> {
    let a = parse(argv, &[], &[])?;
    let dir = a.positional(0, "store directory")?;
    let out = a.positional(1, "output file")?;
    let store = open_store(dir)?;
    let stmts = store.export_ptdf()?;
    std::fs::write(out, perftrack_ptdf::to_string(&stmts))?;
    println!("exported {} statements to {out}", stmts.len());
    Ok(())
}
