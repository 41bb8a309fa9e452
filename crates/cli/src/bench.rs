//! `pt bench` — the quick-mode performance harness.
//!
//! Runs the three read-path workloads the paper's interactivity promise
//! rests on (bulk load, full scan, pr-filter query) plus a concurrent
//! reader sweep, and writes machine-readable summaries to
//! `BENCH_load.json` and `BENCH_query.json`. CI runs this in quick mode
//! and gates on the JSON *schema* (`pt bench --check`), never on the
//! absolute numbers — see `docs/PERF.md` for the schema and how to read
//! the results.

use crate::args::{parse, CliError};
use crate::commands::exit;
use perftrack::{
    evaluate_baseline, BaselineCheck, Direction, FindingKind, PTDataStore, QueryEngine, Regression,
};
use perftrack_adapters::{self as adapters, ExecContext};
use perftrack_model::ResourceFilter;
use perftrack_ptdf::PtdfStatement;
use perftrack_store::{DbOptions, Json, Value};
use perftrack_workloads as wl;
use std::path::Path;
use std::time::Instant;

type Result<T> = std::result::Result<T, CliError>;

/// Schema tags embedded in the emitted files; bump on layout changes so
/// `--check` catches accidental drift.
const LOAD_SCHEMA: &str = "pt-bench-load/v1";
const QUERY_SCHEMA: &str = "pt-bench-query/v2";

/// Reader-thread counts driven by the concurrent sweep.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Metrics the baseline gate checks, with their directions. `load.*`
/// resolves into `BENCH_load.json`, `query.*` into `BENCH_query.json`
/// (both wrapped under those keys before evaluation).
fn baseline_checks() -> Vec<BaselineCheck> {
    vec![
        BaselineCheck::new("load.statements_per_sec", Direction::HigherIsBetter),
        BaselineCheck::new("query.scan.rows_per_sec", Direction::HigherIsBetter),
        BaselineCheck::new("query.pr_filter.avg_micros", Direction::LowerIsBetter),
        BaselineCheck::new(
            "query.concurrent_read.speedup_8v1",
            Direction::HigherIsBetter,
        ),
    ]
}

/// Default `--threshold` for the baseline gate, in percent. Deliberately
/// generous: committed baselines come from other machines and CI
/// runners are noisy, so only a >2x slowdown counts as a regression.
const DEFAULT_GATE_THRESHOLD_PCT: f64 = 100.0;

/// `pt bench [--quick] [--json] [--out DIR] [--seed S]
/// [--compare-baseline DIR] [--threshold PCT]` or
/// `pt bench --check [--out DIR]`. Returns the process exit code: with
/// `--compare-baseline`, a real performance regression exits
/// [`exit::REGRESSION`] and schema drift exits [`exit::DRIFT`]
/// (contract in `docs/COMPARE.md`).
pub fn bench(argv: &[String]) -> Result<u8> {
    let a = parse(argv, &["out", "seed", "compare-baseline", "threshold"])?;
    let out_dir = a.get("out").unwrap_or(".").to_string();
    if a.has_flag("check") {
        return check(Path::new(&out_dir)).map(|()| exit::OK);
    }
    let quick = a.has_flag("quick");
    let seed: u64 = a.get_num("seed", 2005)?;
    let mode = if quick { "quick" } else { "full" };

    // Fixture: IRS/Purple executions in a store whose heap outgrows the
    // pool, so scans and gets exercise eviction and shard traffic rather
    // than a fully resident cache.
    let execs = if quick { 2 } else { 8 };
    let store = PTDataStore::in_memory_with(DbOptions {
        pool_frames: 128,
        ..DbOptions::default()
    })?;

    // -- load ---------------------------------------------------------------
    let bundles = wl::irs_purple(seed, execs);
    let mut statements = 0u64;
    let t0 = Instant::now();
    for b in &bundles {
        let stmts = bundle_to_ptdf(b)?;
        statements += stmts.len() as u64;
        store.load_statements(&stmts)?;
    }
    let load_secs = t0.elapsed().as_secs_f64();
    let load = Json::Obj(vec![
        ("schema".into(), Json::Str(LOAD_SCHEMA.into())),
        ("mode".into(), Json::Str(mode.into())),
        ("execs".into(), Json::UInt(execs as u64)),
        ("statements".into(), Json::UInt(statements)),
        ("seconds".into(), Json::Num(load_secs)),
        (
            "statements_per_sec".into(),
            Json::Num(statements as f64 / load_secs.max(1e-9)),
        ),
    ]);

    // -- scan ---------------------------------------------------------------
    let db = store.db();
    let result_table = store.schema().performance_result;
    let passes = if quick { 3 } else { 10 };
    let t0 = Instant::now();
    let mut scanned = 0u64;
    for _ in 0..passes {
        for item in db.scan_iter(result_table)? {
            item?;
            scanned += 1;
        }
    }
    let scan_secs = t0.elapsed().as_secs_f64();
    let scan = Json::Obj(vec![
        ("rows".into(), Json::UInt(scanned)),
        ("passes".into(), Json::UInt(passes)),
        ("seconds".into(), Json::Num(scan_secs)),
        (
            "rows_per_sec".into(),
            Json::Num(scanned as f64 / scan_secs.max(1e-9)),
        ),
    ]);

    // -- pr-filter ----------------------------------------------------------
    let engine = QueryEngine::new(&store);
    let filter = ResourceFilter::by_name("rmatmult3");
    let iters = if quick { 5 } else { 50 };
    let mut fetched = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        fetched = engine.run(std::slice::from_ref(&filter))?.len() as u64;
    }
    let pr_secs = t0.elapsed().as_secs_f64();
    let pr_filter = Json::Obj(vec![
        ("iters".into(), Json::UInt(iters)),
        ("rows".into(), Json::UInt(fetched)),
        ("seconds".into(), Json::Num(pr_secs)),
        ("avg_micros".into(), Json::Num(pr_secs * 1e6 / iters as f64)),
    ]);

    // -- concurrent readers -------------------------------------------------
    // Probe material shared by every reader: the result rowids (for
    // point gets) and result ids (for index probes).
    let mut rids = Vec::new();
    let mut ids = Vec::new();
    for item in db.scan_iter(result_table)? {
        let (rid, row) = item?;
        rids.push(rid);
        ids.push(row[0].as_int()?);
    }
    let idx = db.index_id("performance_result_id")?;

    let ops = if quick { 2_000u64 } else { 20_000 };
    let mut sweep = Vec::new();
    let mut per_thread_tput = Vec::new();
    for &threads in &THREAD_COUNTS {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..threads {
                let (rids, ids) = (&rids, &ids);
                s.spawn(move || {
                    // Cheap deterministic LCG so readers fan out over
                    // different pages without a rand dependency.
                    let mut x = 0x9E37_79B9u64.wrapping_mul(w as u64 + 1) | 1;
                    for i in 0..ops {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let pick = (x >> 33) as usize;
                        if i % 256 == 0 {
                            for item in db.scan_iter(result_table).expect("scan") {
                                item.expect("row");
                            }
                        } else if i % 4 == 1 {
                            db.index_lookup(idx, &[Value::Int(ids[pick % ids.len()])])
                                .expect("probe");
                        } else {
                            db.get(result_table, rids[pick % rids.len()]).expect("get");
                        }
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let total = ops * threads as u64;
        let tput = total as f64 / secs.max(1e-9);
        per_thread_tput.push(tput);
        sweep.push(Json::Obj(vec![
            ("threads".into(), Json::UInt(threads as u64)),
            ("ops".into(), Json::UInt(total)),
            ("seconds".into(), Json::Num(secs)),
            ("ops_per_sec".into(), Json::Num(tput)),
        ]));
    }
    let speedup = per_thread_tput.last().unwrap() / per_thread_tput[0].max(1e-9);
    let snap = db.metrics();
    let query = Json::Obj(vec![
        ("schema".into(), Json::Str(QUERY_SCHEMA.into())),
        ("mode".into(), Json::Str(mode.into())),
        ("scan".into(), scan),
        ("pr_filter".into(), pr_filter),
        (
            "concurrent_read".into(),
            Json::Obj(vec![
                ("ops_per_thread".into(), Json::UInt(ops)),
                ("threads".into(), Json::Arr(sweep)),
                ("speedup_8v1".into(), Json::Num(speedup)),
            ]),
        ),
        (
            "pool".into(),
            Json::Obj(vec![
                ("shards".into(), Json::UInt(snap.pool_shards.len() as u64)),
                ("hits".into(), Json::UInt(snap.pool.hits)),
                ("misses".into(), Json::UInt(snap.pool.misses)),
                ("contended".into(), Json::UInt(snap.pool.contended)),
            ]),
        ),
    ]);

    std::fs::create_dir_all(&out_dir)?;
    let load_path = Path::new(&out_dir).join("BENCH_load.json");
    let query_path = Path::new(&out_dir).join("BENCH_query.json");
    std::fs::write(&load_path, load.emit() + "\n")?;
    std::fs::write(&query_path, query.emit() + "\n")?;

    if a.has_flag("json") {
        let combined = Json::Obj(vec![
            ("load".into(), load.clone()),
            ("query".into(), query.clone()),
        ]);
        println!("{}", combined.emit());
    } else {
        println!(
            "load: {execs} execs, {statements} statements in {load_secs:.3}s \
             ({:.0} stmts/s)",
            statements as f64 / load_secs.max(1e-9)
        );
        println!(
            "scan: {scanned} rows over {passes} passes in {scan_secs:.3}s \
             ({:.0} rows/s)",
            scanned as f64 / scan_secs.max(1e-9)
        );
        println!(
            "pr-filter: {iters} iters, {fetched} rows, {:.1} µs/query",
            pr_secs * 1e6 / iters as f64
        );
        for (t, tput) in THREAD_COUNTS.iter().zip(&per_thread_tput) {
            println!("concurrent-read[{t}]: {tput:.0} ops/s");
        }
        println!("speedup 8v1: {speedup:.2}x");
        println!("wrote {} and {}", load_path.display(), query_path.display());
    }
    if let Some(baseline_dir) = a.get("compare-baseline") {
        let threshold: f64 = a.get_num("threshold", DEFAULT_GATE_THRESHOLD_PCT)?;
        return compare_baseline(
            Path::new(baseline_dir),
            &load,
            &query,
            threshold,
            Path::new(&out_dir),
        );
    }
    Ok(exit::OK)
}

/// Gate this run's results against the baseline `BENCH_load.json` /
/// `BENCH_query.json` in `dir`. Writes the `pt-compare-baseline/v1`
/// report to `BENCH_compare.json` in the output directory and returns
/// the exit code: [`exit::DRIFT`] when the baseline documents are
/// missing/unparseable/mis-tagged or a checked path no longer resolves,
/// [`exit::REGRESSION`] when any metric is worse than the baseline by
/// more than `threshold` percent, [`exit::OK`] otherwise.
fn compare_baseline(
    dir: &Path,
    current_load: &Json,
    current_query: &Json,
    threshold: f64,
    out_dir: &Path,
) -> Result<u8> {
    // Load and tag-check the baseline documents; an unreadable or
    // mis-tagged baseline is schema drift, not a crash — the gate must
    // report it with its own exit code so CI can tell the cases apart.
    let mut drift_findings: Vec<Regression> = Vec::new();
    let mut read_doc = |file: &str, tag: &str| -> Json {
        let path = dir.join(file);
        let fail = |msg: String| Regression {
            kind: FindingKind::SchemaDrift,
            path: file.to_string(),
            baseline: None,
            current: None,
            ratio: None,
            message: msg,
        };
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
        {
            Ok(doc) => {
                match lookup(&doc, "schema") {
                    Some(Json::Str(s)) if s == tag => {}
                    Some(Json::Str(s)) => drift_findings.push(fail(format!(
                        "{}: baseline schema {s:?}, expected {tag:?}",
                        path.display()
                    ))),
                    _ => drift_findings.push(fail(format!(
                        "{}: baseline is missing its schema tag",
                        path.display()
                    ))),
                }
                doc
            }
            Err(e) => {
                drift_findings.push(fail(format!("{}: {e}", path.display())));
                Json::Obj(Vec::new())
            }
        }
    };
    let base_load = read_doc("BENCH_load.json", LOAD_SCHEMA);
    let base_query = read_doc("BENCH_query.json", QUERY_SCHEMA);
    let wrap = |load: &Json, query: &Json| {
        Json::Obj(vec![
            ("load".into(), load.clone()),
            ("query".into(), query.clone()),
        ])
    };
    let mut report = evaluate_baseline(
        &wrap(&base_load, &base_query),
        &wrap(current_load, current_query),
        &baseline_checks(),
        threshold,
    );
    // File-level drift findings come before path-level ones.
    drift_findings.append(&mut report.findings);
    report.findings = drift_findings;

    let report_path = out_dir.join("BENCH_compare.json");
    std::fs::write(&report_path, report.to_json().emit() + "\n")?;
    print!("{}", report.render_table());
    println!("wrote {}", report_path.display());
    if report.has_drift() {
        eprintln!("pt bench: baseline schema drift — regenerate the baseline with `pt bench`");
        Ok(exit::DRIFT)
    } else if report.has_regressions() {
        eprintln!("pt bench: performance regression against baseline");
        Ok(exit::REGRESSION)
    } else {
        Ok(exit::OK)
    }
}

/// Convert one IRS execution bundle to PTdf statements (same pipeline as
/// `pt convert`, inlined for the in-memory fixture).
fn bundle_to_ptdf(bundle: &wl::ExecutionBundle) -> Result<Vec<PtdfStatement>> {
    let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
    let files: Vec<(String, String)> = bundle
        .files
        .iter()
        .map(|f| (f.name.clone(), f.content.clone()))
        .collect();
    Ok(adapters::irs::convert(&ctx, &files)?)
}

// ---------------------------------------------------------------------------
// Schema check (--check)
// ---------------------------------------------------------------------------

/// Expected value shape at a dotted path. `Number` accepts both the
/// codec's `UInt` and `Num` variants.
enum Kind {
    Str,
    Number,
    Arr,
}

/// Validate the two committed BENCH files against the current schema;
/// absolute numbers are deliberately ignored.
fn check(dir: &Path) -> Result<()> {
    let mut failures = Vec::new();
    check_file(
        &dir.join("BENCH_load.json"),
        LOAD_SCHEMA,
        &[
            ("mode", Kind::Str),
            ("execs", Kind::Number),
            ("statements", Kind::Number),
            ("seconds", Kind::Number),
            ("statements_per_sec", Kind::Number),
        ],
        &mut failures,
    );
    check_file(
        &dir.join("BENCH_query.json"),
        QUERY_SCHEMA,
        &[
            ("mode", Kind::Str),
            ("scan.rows", Kind::Number),
            ("scan.passes", Kind::Number),
            ("scan.seconds", Kind::Number),
            ("scan.rows_per_sec", Kind::Number),
            ("pr_filter.iters", Kind::Number),
            ("pr_filter.rows", Kind::Number),
            ("pr_filter.seconds", Kind::Number),
            ("pr_filter.avg_micros", Kind::Number),
            ("concurrent_read.ops_per_thread", Kind::Number),
            ("concurrent_read.threads", Kind::Arr),
            ("concurrent_read.speedup_8v1", Kind::Number),
            ("pool.shards", Kind::Number),
            ("pool.hits", Kind::Number),
            ("pool.misses", Kind::Number),
            ("pool.contended", Kind::Number),
        ],
        &mut failures,
    );
    if failures.is_empty() {
        println!("bench schema check: ok");
        Ok(())
    } else {
        for f in &failures {
            eprintln!("bench schema check: {f}");
        }
        Err(format!("{} schema check failure(s)", failures.len()).into())
    }
}

fn check_file(path: &Path, schema: &str, fields: &[(&str, Kind)], failures: &mut Vec<String>) {
    let name = path.display();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("{name}: unreadable: {e}"));
            return;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            failures.push(format!("{name}: invalid JSON: {e}"));
            return;
        }
    };
    match lookup(&json, "schema") {
        Some(Json::Str(s)) if s == schema => {}
        Some(Json::Str(s)) => failures.push(format!("{name}: schema {s:?}, expected {schema:?}")),
        _ => failures.push(format!("{name}: missing schema tag")),
    }
    for (field, kind) in fields {
        let ok = match (lookup(&json, field), kind) {
            (Some(Json::Str(_)), Kind::Str) => true,
            (Some(Json::UInt(_) | Json::Num(_)), Kind::Number) => true,
            (Some(Json::Arr(a)), Kind::Arr) => !a.is_empty(),
            _ => false,
        };
        if !ok {
            failures.push(format!("{name}: field {field:?} missing or wrong type"));
        }
    }
}

/// Resolve a dotted path through nested objects.
fn lookup<'a>(json: &'a Json, path: &str) -> Option<&'a Json> {
    let mut cur = json;
    for seg in path.split('.') {
        match cur {
            Json::Obj(pairs) => cur = &pairs.iter().find(|(k, _)| k == seg)?.1,
            _ => return None,
        }
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_nested_paths() {
        let j = Json::parse(r#"{"a":{"b":{"c":7}},"d":[1]}"#).unwrap();
        assert_eq!(lookup(&j, "a.b.c"), Some(&Json::UInt(7)));
        assert!(matches!(lookup(&j, "d"), Some(Json::Arr(_))));
        assert!(lookup(&j, "a.x").is_none());
        assert!(lookup(&j, "a.b.c.d").is_none());
    }

    #[test]
    fn check_flags_missing_fields_and_wrong_schema() {
        let dir = std::env::temp_dir().join(format!("ptbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("good.json"),
            r#"{"schema":"pt-bench-load/v1","mode":"quick","execs":2,
                "statements":10,"seconds":0.5,"statements_per_sec":20.0}"#,
        )
        .unwrap();
        let mut failures = Vec::new();
        check_file(
            &dir.join("good.json"),
            LOAD_SCHEMA,
            &[("mode", Kind::Str), ("statements", Kind::Number)],
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        check_file(
            &dir.join("good.json"),
            QUERY_SCHEMA,
            &[("scan.rows", Kind::Number)],
            &mut failures,
        );
        assert_eq!(
            failures.len(),
            2,
            "schema tag + missing field: {failures:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
