//! `pt explain` / `pt query --explain` output contract, driven through
//! the real binary. The table and JSON goldens pin the `pt-explain/v1`
//! document shape described in `docs/PLANNER.md`; drifting them
//! deliberately requires editing this file and the doc together.
//!
//! The fixture is a fixed hand-written PTdf file (never `pt gen`), so
//! the statistics — and therefore every estimate below — are exact
//! consequences of the planner logic alone.

use perftrack_store::metrics::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-explain-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One execution tree: module `a.c` has three functions, `b.c` one, so
/// after ANALYZE the base-name seed for `a.c` expands to a family of 4
/// while a `build`-typed seed stays at 1 — enough skew to flip the
/// match order.
const PTDF: &str = "\
Application App
Resource /build build
Resource /build/a.c build/module
Resource /build/b.c build/module
Resource /build/a.c/f1 build/module/function
Resource /build/a.c/f2 build/module/function
Resource /build/a.c/f3 build/module/function
Resource /build/b.c/g1 build/module/function
Execution e1 App
Execution e2 App
PerfResult e1 /build/a.c/f1(primary) T \"CPU time\" 1.0 seconds
PerfResult e1 /build/b.c/g1(primary) T \"CPU time\" 2.0 seconds
PerfResult e2 /build/a.c/f1(primary) T \"CPU time\" 3.0 seconds
";

/// Create a store in `dir` and load the fixture.
fn loaded_store(dir: &Path) -> String {
    let file = dir.join("in.ptdf");
    std::fs::write(&file, PTDF).unwrap();
    let store = dir.join("store");
    let out = pt()
        .args(["load", store.to_str().unwrap(), file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "load failed: {out:?}");
    store.to_str().unwrap().to_string()
}

fn analyze(store: &str) {
    let out = pt().args(["analyze", store]).output().unwrap();
    assert!(out.status.success(), "analyze failed: {out:?}");
    let msg = String::from_utf8(out.stdout).unwrap();
    assert!(msg.contains("statistics persisted to the catalog"), "{msg}");
}

/// Byte-stable golden: an un-ANALYZEd store plans heuristically with no
/// estimates — and that is an ordinary plan, not an error. The `a.c`
/// family's one posting fans out to two links; following them costs more
/// than the scan of two focus resources and three links, so the scan is
/// the path execution takes.
const GOLDEN_HEURISTIC: &str = "\
plan (pt-explain/v1)
pr-filter  est=?
  family[0]  index-eq(resource_item_base) [heuristic] relatives=descendants  est=?
  context-map  scan(focus_has_resource+result_has_focus)  est=?
  match  order=[0]  est=?
  fetch  index-eq(performance_result_id)  est=?
";

/// Byte-stable golden after ANALYZE: estimates appear, and the match
/// stage checks the smaller `build`-typed family (one resource) before
/// the expanded `a.c` family (four). No result names `/build`, so its
/// zero postings are the path; `est=2` is the statistics' guess.
const GOLDEN_STATISTICS: &str = "\
plan (pt-explain/v1)
pr-filter  est=?
  family[0]  index-eq(resource_item_base) [statistics] relatives=descendants  est=4
  family[1]  index-eq(resource_item_type) [statistics] relatives=neither  est=1
  context-map  postings(fhr_resource,rhf_focus)  est=2
  match  order=[1,0]  est=?
  fetch  index-eq(performance_result_id)  est=?
";

/// Byte-stable golden `--json` form of the same plan (compact, key
/// order fixed by the in-tree codec).
const GOLDEN_JSON: &str = "{\"schema\":\"pt-explain/v1\",\"plan\":{\"operator\":\"pr-filter\",\"detail\":\"\",\"estimated_rows\":null,\"children\":[{\"operator\":\"family[0]\",\"detail\":\"index-eq(resource_item_base) [statistics] relatives=descendants\",\"estimated_rows\":4,\"children\":[]},{\"operator\":\"family[1]\",\"detail\":\"index-eq(resource_item_type) [statistics] relatives=neither\",\"estimated_rows\":1,\"children\":[]},{\"operator\":\"context-map\",\"detail\":\"postings(fhr_resource,rhf_focus)\",\"estimated_rows\":2,\"children\":[]},{\"operator\":\"match\",\"detail\":\"order=[1,0]\",\"estimated_rows\":null,\"children\":[]},{\"operator\":\"fetch\",\"detail\":\"index-eq(performance_result_id)\",\"estimated_rows\":null,\"children\":[]}]}}\n";

#[test]
fn explain_without_statistics_is_heuristic_golden() {
    let dir = tmpdir("heuristic");
    let store = loaded_store(&dir);
    let out = pt()
        .args(["explain", &store, "--name", "a.c", "--relatives", "D"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), GOLDEN_HEURISTIC);
}

#[test]
fn explain_after_analyze_matches_table_and_json_goldens() {
    let dir = tmpdir("golden");
    let store = loaded_store(&dir);
    analyze(&store);
    let query = ["--name", "a.c", "--relatives", "D", "--type", "build"];
    let mut args = vec!["explain", store.as_str()];
    args.extend_from_slice(&query);
    let out = pt().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), GOLDEN_STATISTICS);

    args.push("--json");
    let out = pt().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json, GOLDEN_JSON);
    // The golden is also well-formed under the in-tree codec.
    let doc = Json::parse(json.trim_end()).unwrap();
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("pt-explain/v1".into())),
        "{json}"
    );
}

#[test]
fn query_explain_flag_prints_the_plan_and_does_not_execute() {
    let dir = tmpdir("query-flag");
    let store = loaded_store(&dir);
    analyze(&store);
    let out = pt()
        .args([
            "query",
            &store,
            "--name",
            "a.c",
            "--relatives",
            "D",
            "--type",
            "build",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // `pt query --explain` and `pt explain` print the identical plan:
    // both routes derive from the same planning pass.
    assert_eq!(stdout, GOLDEN_STATISTICS);
    // No result rows follow the plan — the query was planned, not run.
    assert!(!stdout.contains("e1"), "{stdout}");
}
