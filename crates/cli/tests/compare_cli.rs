//! `pt compare` output contract and exit codes, driven through the real
//! binary. The JSON and table goldens pin the `pt-compare/v1` document
//! shape described in `docs/COMPARE.md`; drifting them deliberately
//! requires editing this file and the doc together.

use perftrack_store::metrics::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-compare-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two executions over the same build tree; e2 is 4x slower on `solve`,
/// identical on `init`, and measures an `extra` function e1 lacks.
const PTDF: &str = "\
Application App
Resource /build build
Resource /build/main.c build/module
Resource /build/main.c/solve build/module/function
Resource /build/main.c/init build/module/function
Resource /build/main.c/extra build/module/function
Execution e1 App
Execution e2 App
PerfResult e1 /build/main.c/solve(primary) T \"CPU time\" 2.0 seconds
PerfResult e1 /build/main.c/init(primary) T \"CPU time\" 1.0 seconds
PerfResult e2 /build/main.c/solve(primary) T \"CPU time\" 8.0 seconds
PerfResult e2 /build/main.c/init(primary) T \"CPU time\" 1.0 seconds
PerfResult e2 /build/main.c/extra(primary) T \"CPU time\" 3.0 seconds
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

/// Golden `--json` document. The `score` fields are compared
/// approximately (they come through `ln`), everything else exactly.
const GOLDEN_JSON: &str = r#"{
  "schema": "pt-compare/v1",
  "executions": ["e1", "e2"],
  "options": {"aggregate": "mean", "normalization": "raw", "threshold_pct": 25.0, "top": 10},
  "aligned_cells": 2,
  "ranked_total": 1,
  "ranked": [
    {
      "resource": "/build/main.c/solve",
      "type": "build/module/function",
      "metric": "CPU time",
      "values": [2.0, 8.0],
      "delta": 6.0,
      "ratio": 4.0,
      "score": 0.0
    }
  ],
  "drift": [
    {
      "resource": "/build/main.c/extra",
      "type": "build/module/function",
      "present": [false, true]
    }
  ],
  "summary": {"regressions": 1, "improvements": 0, "geo_mean_ratio": 4.0}
}"#;

/// Remove every `score` key (checked separately) so the rest of the
/// document can be compared exactly.
fn strip_scores(doc: &mut Json) {
    match doc {
        Json::Obj(pairs) => {
            pairs.retain(|(k, _)| k != "score");
            for (_, v) in pairs {
                strip_scores(v);
            }
        }
        Json::Arr(items) => {
            for v in items {
                strip_scores(v);
            }
        }
        _ => {}
    }
}

fn num_at(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for seg in path {
        if let Ok(idx) = seg.parse::<usize>() {
            let Json::Arr(items) = cur else {
                panic!("not an array at {seg}")
            };
            cur = &items[idx];
        } else {
            cur = cur.get(seg).unwrap_or_else(|| panic!("missing {seg}"));
        }
    }
    match cur {
        Json::Num(x) => *x,
        Json::UInt(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn compare_json_matches_golden() {
    let dir = tmpdir("json");
    let store = loaded_store(&dir);
    let out = pt()
        .args(["compare", &store, "e1", "e2", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "compare failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut actual = Json::parse(&stdout).expect("valid JSON");
    let score = num_at(&actual, &["ranked", "0", "score"]);
    assert!(
        (score - 4.0f64.ln()).abs() < 1e-12,
        "score should be ln(ratio): {score}"
    );
    let mut expected = Json::parse(GOLDEN_JSON).unwrap();
    strip_scores(&mut actual);
    strip_scores(&mut expected);
    assert_eq!(
        actual, expected,
        "JSON drifted from docs/COMPARE.md:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden `--table` rendering (also the default output).
const GOLDEN_TABLE: &str = "\
compare: e1 vs e2 (aggregate=mean, normalization=raw, threshold=25%)
aligned cells: 2   divergent: 1   presence drift: 1
geo-mean ratio e2/e1: 4.0000

RESOURCE                                     METRIC                  FIRST         LAST      DELTA    RATIO
/build/main.c/solve                          CPU time               2.0000       8.0000    +6.0000    4.00x
only in e2: /build/main.c/extra (build/module/function)
regressions (> 25% slower): 1   improvements: 0
";

#[test]
fn compare_table_matches_golden() {
    let dir = tmpdir("table");
    let store = loaded_store(&dir);
    for extra in [&["--table"][..], &[][..]] {
        let mut args = vec!["compare", &store, "e1", "e2"];
        args.extend_from_slice(extra);
        let out = pt().args(&args).output().unwrap();
        assert!(out.status.success(), "compare failed: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, GOLDEN_TABLE, "table drifted ({extra:?})");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_rejects_unknown_execution_and_too_few_args() {
    let dir = tmpdir("errs");
    let store = loaded_store(&dir);
    let out = pt()
        .args(["compare", &store, "e1", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown execution"), "{stderr}");
    let out = pt().args(["compare", &store, "e1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}
