//! Property tests for the execution-comparison engine, over stores drawn
//! from the workspace's seeded generator: deltas are
//! antisymmetric under argument swap, self-comparison is exactly zero,
//! and alignment tolerates deliberately mismatched resource trees. The
//! read path is checked too: a compare reads only the named executions'
//! results, and those are exactly the rows a full scan would give.

use perftrack::compare::{Aggregate, CompareOptions, Normalization};
use perftrack::{AlignedNode, Compare, PTDataStore, QueryEngine};
use perftrack_workloads::rng::check_cases;
use perftrack_workloads::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// A positive value in `[0.01, 100.00]`, in hundredths.
fn value(rng: &mut Rng) -> f64 {
    rng.gen_range(1..10_001) as f64 / 100.0
}

/// Build a store with two executions over a random module/function tree.
/// Each execution measures a random subset of the functions, so trees
/// mismatch in both directions. Returns the store and the function count.
fn random_store(seed: u64) -> PTDataStore {
    let mut rng = Rng::seed_from_u64(0xc03b_0000 + seed);
    let store = PTDataStore::in_memory().unwrap();
    let modules = rng.gen_range(1..4);
    let mut ptdf =
        String::from("Application App\nResource /app application\nResource /build build\n");
    let mut functions = Vec::new();
    for m in 0..modules {
        ptdf.push_str(&format!("Resource /build/m{m}.c build/module\n"));
        for f in 0..rng.gen_range(1..5) {
            let name = format!("/build/m{m}.c/fn{f}");
            ptdf.push_str(&format!("Resource {name} build/module/function\n"));
            functions.push(name);
        }
    }
    for exec in ["x", "y"] {
        ptdf.push_str(&format!("Execution {exec} App\n"));
        for f in &functions {
            // ~75% of functions are measured per execution; the rest are
            // the mismatched subtrees alignment must tolerate.
            if rng.gen_bool(0.75) {
                let reps = rng.gen_range(1..4);
                for _ in 0..reps {
                    ptdf.push_str(&format!(
                        "PerfResult {exec} \"/app,{f}(primary)\" T \"CPU time\" {} seconds\n",
                        value(&mut rng)
                    ));
                }
            }
        }
    }
    store.load_ptdf_str(&ptdf).unwrap();
    store
}

fn all_options() -> Vec<CompareOptions> {
    let mut opts = Vec::new();
    for aggregate in [
        Aggregate::Mean,
        Aggregate::Sum,
        Aggregate::Min,
        Aggregate::Max,
    ] {
        for normalization in [Normalization::Raw, Normalization::Share] {
            opts.push(CompareOptions {
                aggregate,
                normalization,
                threshold_pct: 25.0,
                top: usize::MAX,
            });
        }
    }
    opts
}

#[test]
fn deltas_are_antisymmetric_under_swap() {
    for seed in 0..20 {
        let store = random_store(seed);
        let cmp = Compare::new(&store);
        for opts in all_options() {
            let fwd = cmp.tree_compare(&["x", "y"], &opts).unwrap();
            let rev = cmp.tree_compare(&["y", "x"], &opts).unwrap();
            assert_eq!(fwd.ranked_total, rev.ranked_total, "seed {seed}");
            for f in &fwd.ranked {
                let r = rev
                    .ranked
                    .iter()
                    .find(|r| r.resource == f.resource && r.metric == f.metric)
                    .unwrap_or_else(|| panic!("seed {seed}: {} missing in reverse", f.resource));
                assert!(
                    (f.delta + r.delta).abs() <= 1e-9 * f.delta.abs().max(1.0),
                    "seed {seed}: delta not antisymmetric: {} vs {}",
                    f.delta,
                    r.delta
                );
                if let (Some(fq), Some(rq)) = (f.ratio, r.ratio) {
                    assert!(
                        (fq * rq - 1.0).abs() < 1e-9,
                        "seed {seed}: ratios not reciprocal: {fq} * {rq}"
                    );
                }
                assert!(
                    (f.score - r.score).abs() < 1e-9
                        || (f.score.is_infinite() && r.score.is_infinite()),
                    "seed {seed}: scores differ under swap: {} vs {}",
                    f.score,
                    r.score
                );
            }
            // Presence drift is the same set either way, with flags flipped.
            assert_eq!(fwd.drift.len(), rev.drift.len(), "seed {seed}");
            for d in &fwd.drift {
                let rd = rev
                    .drift
                    .iter()
                    .find(|r| r.resource == d.resource)
                    .unwrap_or_else(|| panic!("seed {seed}: drift {} missing", d.resource));
                assert_eq!(d.present[0], rd.present[1], "seed {seed}");
                assert_eq!(d.present[1], rd.present[0], "seed {seed}");
            }
        }
    }
}

#[test]
fn self_comparison_is_exactly_zero() {
    for seed in 0..20 {
        let store = random_store(seed);
        let cmp = Compare::new(&store);
        for opts in all_options() {
            let t = cmp.tree_compare(&["x", "x"], &opts).unwrap();
            assert_eq!(t.ranked_total, 0, "seed {seed}: self-compare diverges");
            assert!(t.drift.is_empty(), "seed {seed}: self-compare drifts");
            assert!(t.regressions().is_empty() && t.improvements().is_empty());
            // Every cell is measured in both columns with equal values.
            fn walk(n: &perftrack::AlignedNode, seed: u64) {
                for (metric, row) in &n.metrics {
                    assert_eq!(row.len(), 2);
                    assert_eq!(row[0], row[1], "seed {seed}: {} {metric}", n.name);
                }
                for c in &n.children {
                    walk(c, seed);
                }
            }
            for root in &t.roots {
                walk(root, seed);
            }
        }
    }
}

#[test]
fn alignment_tolerates_mismatched_trees() {
    // Deliberate mismatch: executions share only `common`; each has a
    // private subtree the other never measures.
    let store = PTDataStore::in_memory().unwrap();
    store
        .load_ptdf_str(
            "Application App\n\
             Resource /build build\n\
             Resource /build/shared.c build/module\n\
             Resource /build/shared.c/common build/module/function\n\
             Resource /build/old.c build/module\n\
             Resource /build/old.c/legacy build/module/function\n\
             Resource /build/new.c build/module\n\
             Resource /build/new.c/replacement build/module/function\n\
             Execution x App\nExecution y App\n\
             PerfResult x /build/shared.c/common(primary) T t 4.0 s\n\
             PerfResult y /build/shared.c/common(primary) T t 2.0 s\n\
             PerfResult x /build/old.c/legacy(primary) T t 9.0 s\n\
             PerfResult y /build/new.c/replacement(primary) T t 1.0 s\n",
        )
        .unwrap();
    let cmp = Compare::new(&store);
    let t = cmp
        .tree_compare(&["x", "y"], &CompareOptions::default())
        .unwrap();
    // The shared cell aligns and ranks; the private subtrees are drift,
    // not errors, and never rank (only one side has a value).
    assert_eq!(t.aligned_cells, 1);
    assert_eq!(t.ranked.len(), 1);
    assert!(t.ranked[0].resource.ends_with("/common"));
    assert_eq!(t.ranked[0].ratio, Some(0.5));
    let drifted: Vec<&str> = t.drift.iter().map(|d| d.resource.as_str()).collect();
    assert!(drifted.contains(&"/build/old.c"));
    assert!(drifted.contains(&"/build/old.c/legacy"));
    assert!(drifted.contains(&"/build/new.c"));
    assert!(drifted.contains(&"/build/new.c/replacement"));
    assert!(!drifted.contains(&"/build/shared.c/common"));
    // The merged tree still holds both private subtrees under one root.
    let build = t.roots.iter().find(|r| r.name == "/build").unwrap();
    assert_eq!(build.children.len(), 3);
}

#[test]
fn share_normalization_bounds_values() {
    for seed in 0..10 {
        let store = random_store(seed);
        let cmp = Compare::new(&store);
        let opts = CompareOptions {
            normalization: Normalization::Share,
            top: usize::MAX,
            ..CompareOptions::default()
        };
        let t = cmp.tree_compare(&["x", "y"], &opts).unwrap();
        for r in &t.ranked {
            for v in r.values.iter().flatten() {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(v),
                    "seed {seed}: share {v} out of [0,1] at {}",
                    r.resource
                );
            }
        }
    }
}

/// PTdf for `execs` executions over `functions`, each result naming its
/// function and application (primary) plus the module as a second focus.
fn executions_ptdf(rng: &mut Rng, execs: &[String], functions: &[String]) -> String {
    let mut ptdf = String::new();
    for exec in execs {
        ptdf.push_str(&format!(
            "Execution {exec} App\nResource /{exec}-run execution\n"
        ));
        for f in functions {
            let module = &f[..f.rfind('/').unwrap()];
            for metric in ["CPU time", "wall time"] {
                ptdf.push_str(&format!(
                    "PerfResult {exec} \"/app,/{exec}-run,{f}(primary):{module}(parent)\" T \"{metric}\" {} seconds\n",
                    value(rng)
                ));
            }
        }
    }
    ptdf
}

/// `x` and `y` over a fixed tree, loaded first, then `unrelated` more
/// executions over the same functions.
fn store_with_unrelated(unrelated: usize) -> PTDataStore {
    let store = PTDataStore::in_memory().unwrap();
    let mut ptdf =
        String::from("Application App\nResource /app application\nResource /build build\n");
    let mut functions = Vec::new();
    for m in 0..3 {
        ptdf.push_str(&format!("Resource /build/m{m}.c build/module\n"));
        for f in 0..4 {
            let name = format!("/build/m{m}.c/fn{f}");
            ptdf.push_str(&format!("Resource {name} build/module/function\n"));
            functions.push(name);
        }
    }
    let mut rng = Rng::seed_from_u64(0xc03b_1000);
    ptdf.push_str(&executions_ptdf(
        &mut rng,
        &["x".into(), "y".into()],
        &functions,
    ));
    store.load_ptdf_str(&ptdf).unwrap();
    let others: Vec<String> = (0..unrelated).map(|i| format!("z{i:02}")).collect();
    store
        .load_ptdf_str(&executions_ptdf(&mut rng, &others, &functions))
        .unwrap();
    store
}

#[test]
fn compare_work_is_independent_of_unrelated_executions() {
    let mut seen: Vec<(String, u64, u64)> = Vec::new();
    for unrelated in [2, 10, 40] {
        let store = store_with_unrelated(unrelated);
        let cmp = Compare::new(&store);
        let before = store.db().metrics();
        let json = cmp
            .tree_compare(&["x", "y"], &CompareOptions::default())
            .unwrap()
            .to_json()
            .emit();
        let after = store.db().metrics();
        let pages = (after.pool.hits + after.pool.misses) - (before.pool.hits + before.pool.misses);
        let probes = (after.btree.point_probes + after.btree.batch_probes)
            - (before.btree.point_probes + before.btree.batch_probes);
        seen.push((json, pages, probes));
    }
    let (json, pages, probes) = &seen[0];
    assert!(json.contains("\"aligned_cells\":32"), "{json}");
    for (i, (j, p, q)) in seen.iter().enumerate().skip(1) {
        assert_eq!(j, json, "store {i}: the answer changed");
        assert_eq!(p, pages, "store {i}: page requests grew with the store");
        assert_eq!(q, probes, "store {i}: index probes grew with the store");
    }
}

#[test]
fn rows_of_executions_equal_the_filtered_full_scan() {
    check_cases(0xc03b_2000, 24, |rng| {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf =
            String::from("Application App\nResource /app application\nResource /build build\n");
        let mut resources = vec!["/app".to_string(), "/build".to_string()];
        for m in 0..rng.gen_range(1..4) {
            ptdf.push_str(&format!("Resource /build/m{m}.c build/module\n"));
            resources.push(format!("/build/m{m}.c"));
            for f in 0..rng.gen_range(1..4) {
                ptdf.push_str(&format!(
                    "Resource /build/m{m}.c/fn{f} build/module/function\n"
                ));
                resources.push(format!("/build/m{m}.c/fn{f}"));
            }
        }
        let execs: Vec<String> = (0..rng.gen_range(1..6)).map(|e| format!("e{e}")).collect();
        for _ in 0..rng.gen_range(0..40) {
            let exec = &execs[rng.gen_range(0..execs.len())];
            // One to three foci, each naming one or two resources.
            let foci: Vec<String> = (0..rng.gen_range(1..4))
                .zip(["primary", "parent", "child"])
                .map(|(_, role)| {
                    let set: Vec<&str> = (0..rng.gen_range(1..3))
                        .map(|_| resources[rng.gen_range(0..resources.len())].as_str())
                        .collect();
                    format!("{}({role})", set.join(","))
                })
                .collect();
            ptdf.push_str(&format!(
                "Execution {exec} App\nPerfResult {exec} \"{}\" T m{} {} s\n",
                foci.join(":"),
                rng.gen_range(0..3),
                value(rng)
            ));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        let engine = QueryEngine::new(&store);
        let all = engine.run(&[]).unwrap();
        // Random id lists: repeats, and an id no execution has.
        let mut ids: Vec<i64> = Vec::new();
        for e in &execs {
            if let Some(id) = store.execution_id(e) {
                for _ in 0..rng.gen_range(0..3) {
                    ids.push(id);
                }
            }
        }
        if rng.gen_bool(0.3) {
            ids.push(i64::MAX);
        }
        let names: BTreeSet<&str> = execs
            .iter()
            .filter(|e| store.execution_id(e).is_some_and(|id| ids.contains(&id)))
            .map(String::as_str)
            .collect();
        let expected: Vec<_> = all
            .iter()
            .filter(|r| names.contains(r.execution.as_str()))
            .cloned()
            .collect();
        assert_eq!(engine.rows_of_executions(&ids).unwrap(), expected);
    });
}

#[test]
fn self_compare_sums_each_result_once() {
    let sum = CompareOptions {
        aggregate: Aggregate::Sum,
        top: usize::MAX,
        ..CompareOptions::default()
    };
    for seed in 0..10 {
        let store = random_store(seed);
        // Expected: each result of `x` summed once into every structural
        // resource of its context.
        let mut expected: BTreeMap<(String, String), f64> = BTreeMap::new();
        for row in Compare::new(&store).rows_of_execution("x").unwrap() {
            for &rid in &row.context {
                let name = store.resource_by_id(rid).unwrap().unwrap().name;
                *expected.entry((name, row.metric.clone())).or_insert(0.0) += row.value;
            }
        }
        let t = Compare::new(&store)
            .tree_compare(&["x", "x"], &sum)
            .unwrap();
        let mut got: BTreeMap<(String, String), f64> = BTreeMap::new();
        fn walk(n: &AlignedNode, got: &mut BTreeMap<(String, String), f64>) {
            for (metric, row) in &n.metrics {
                assert_eq!(row[0], row[1], "{} {metric}", n.name);
                got.insert((n.name.clone(), metric.clone()), row[0].unwrap());
            }
            for c in &n.children {
                walk(c, got);
            }
        }
        for root in &t.roots {
            walk(root, &mut got);
        }
        assert_eq!(got, expected, "seed {seed}");
    }
}
