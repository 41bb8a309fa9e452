//! Tier-1 guard for the benchmark: the binary builds, every workload runs
//! end to end at smoke size with its checks and its trace, the output
//! keeps its schema, and `BENCHMARK.json` lists what `spec.rs` lists.

use perftrack_store::Json;
use pt_e2e::spec::{self, MetricSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_pt-e2e");

/// A fresh directory for one test, under Cargo's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("pt-e2e starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Num(v) => Some(*v),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

/// The last line is the result object the driver reads: exactly the four
/// keys, and exactly the metrics of `specs` with their units.
fn check_result_line(stdout: &str, specs: &[MetricSpec]) {
    let doc = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let Json::Obj(pairs) = &doc else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(names, want);
    for ((_, m), spec) in metrics.iter().zip(specs) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        assert!(number(m.get("value").unwrap()).unwrap().is_finite());
    }
}

#[test]
fn smoke_runs_every_workload_with_checks_and_traces() {
    let dir = scratch("smoke-full");
    let (ok, stdout) = run(
        &dir,
        &["--smoke", "--out", "run.json", "--emit-ptdf", "run.ptdf"],
    );
    assert!(ok, "smoke run failed");
    for w in spec::WORKLOADS {
        assert!(stdout.contains(&format!("== {w} (seed 2005, untraced)")));
        assert!(stdout.contains(&format!("== {w} (seed 2005, traced)")));
        let trace = std::fs::read_to_string(dir.join(format!("trace.{w}.json"))).unwrap();
        let trace = Json::parse(&trace).unwrap();
        assert_eq!(
            trace.get("schema").and_then(Json::as_str),
            Some("pt-e2e-trace/v1")
        );
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("op")));
        // Write-side spans appear where writes happen and nowhere else.
        let has = |name: &str| {
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(name))
        };
        assert_eq!(has("ptdf.parse"), w == "load.smg_uv", "{w}");
        assert_eq!(has("store.commit"), w == "load.smg_uv", "{w}");
    }
    assert!(!stdout.contains("FAILED"));

    // The stored run compares equal to itself under the real bounds.
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let (ok, table) = run(
        &dir,
        &[
            "compare-runs",
            "run.json",
            "run.json",
            "--bounds",
            benchmark,
        ],
    );
    assert!(ok, "{table}");
    assert!(table.contains("every end-to-end metric agrees"));
    assert!(std::fs::read_to_string(dir.join("run.ptdf"))
        .unwrap()
        .contains("PerfResult"));
    // Nothing but the requested outputs is left behind.
    assert!(!dir.join(".pt-e2e-work").exists());
}

#[test]
fn driver_mode_prints_the_contract_line() {
    let dir = scratch("smoke-driver");
    let base = ["--smoke", "--workload", "query.irs_warm", "--seed", "7"];
    let (ok, stdout) = run(&dir, &[&base[..], &["--trace", "0"]].concat());
    assert!(ok);
    check_result_line(&stdout, &spec::END_TO_END);
    let (ok, stdout) = run(&dir, &[&base[..], &["--trace", "1"]].concat());
    assert!(ok);
    check_result_line(&stdout, &spec::PER_LAYER);

    let (ok, _) = run(&dir, &["--smoke", "--workload", "no.such"]);
    assert!(!ok);
}

#[test]
fn compare_runs_flags_a_difference_beyond_the_bound() {
    let dir = scratch("smoke-compare");
    let stored = |value: f64| {
        format!(
            r#"{{"schema":"pt-e2e/v1","workloads":[{{"name":"load.smg_uv",
            "end_to_end":{{"op_p50_ms":{{"value":{value},"unit":"ms"}}}}}}]}}"#
        )
    };
    std::fs::write(dir.join("a.json"), stored(100.0)).unwrap();
    std::fs::write(dir.join("near.json"), stored(101.0)).unwrap();
    std::fs::write(dir.join("far.json"), stored(150.0)).unwrap();
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let (ok, _) = run(
        &dir,
        &["compare-runs", "a.json", "near.json", "--bounds", benchmark],
    );
    assert!(ok);
    let (ok, table) = run(
        &dir,
        &["compare-runs", "a.json", "far.json", "--bounds", benchmark],
    );
    assert!(!ok);
    assert!(table.contains("DIFFERS"));
}

#[test]
fn benchmark_json_lists_what_spec_lists() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the root of the repository");
    let doc = Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), spec::WORKLOADS);
    for (key, specs) in [
        ("end_to_end", &spec::END_TO_END[..]),
        ("per_layer", &spec::PER_LAYER[..]),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (m, spec) in listed.iter().zip(specs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                spec.name
            );
            if key == "end_to_end" {
                let bound = number(m.get("bound").unwrap()).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
            }
        }
    }
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr),
        Some(&[Json::Str("e2e".into())][..])
    );
}
