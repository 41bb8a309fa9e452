//! The in-memory model (`perftrack-model`) is the reference semantics;
//! the DB-backed query engine must agree with it. These tests build the
//! same randomized world in both, then cross-check families, pr-filter
//! matching, and match counts — including a seeded sweep over random
//! worlds (a failure prints the case seed that replays it).

use perftrack::{PTDataStore, QueryEngine};
use perftrack_model::prelude::*;
use perftrack_workloads::rng::check_cases;

/// A world description both sides can construct.
#[derive(Debug, Clone)]
struct World {
    machines: usize,
    nodes: usize,
    procs: usize,
    results_per_proc: usize,
}

fn build_model(w: &World) -> (TypeRegistry, ResourceRepo, Vec<PerformanceResult>) {
    let reg = TypeRegistry::with_base_types();
    let mut repo = ResourceRepo::new();
    let mut results = Vec::new();
    repo.add(&reg, "/App", "application").unwrap();
    for m in 0..w.machines {
        repo.add(&reg, &format!("/G{m}"), "grid").unwrap();
        repo.add(&reg, &format!("/G{m}/M{m}"), "grid/machine")
            .unwrap();
        repo.add(&reg, &format!("/G{m}/M{m}/batch"), "grid/machine/partition")
            .unwrap();
        for n in 0..w.nodes {
            let node = format!("/G{m}/M{m}/batch/node{n}");
            repo.add(&reg, &node, "grid/machine/partition/node")
                .unwrap();
            repo.set_attr(
                &ResourceName::new(&node).unwrap(),
                "mem",
                AttrValue::Str(format!("{}", (n + 1) * 4)),
            )
            .unwrap();
            for p in 0..w.procs {
                let proc = format!("{node}/p{p}");
                repo.add(&reg, &proc, "grid/machine/partition/node/processor")
                    .unwrap();
                for r in 0..w.results_per_proc {
                    results.push(PerformanceResult::simple(
                        &format!("exec-{m}"),
                        &format!("metric-{r}"),
                        (m * 100 + n * 10 + p) as f64,
                        "u",
                        "T",
                        vec![
                            ResourceName::new("/App").unwrap(),
                            ResourceName::new(&proc).unwrap(),
                        ],
                    ));
                }
            }
        }
    }
    (reg, repo, results)
}

fn build_db(w: &World) -> PTDataStore {
    let store = PTDataStore::in_memory().unwrap();
    let mut ptdf = String::from("Application App\nResource /App application\n");
    for m in 0..w.machines {
        ptdf.push_str(&format!("Execution exec-{m} App\n"));
        ptdf.push_str(&format!("Resource /G{m} grid\n"));
        ptdf.push_str(&format!("Resource /G{m}/M{m} grid/machine\n"));
        ptdf.push_str(&format!(
            "Resource /G{m}/M{m}/batch grid/machine/partition\n"
        ));
        for n in 0..w.nodes {
            let node = format!("/G{m}/M{m}/batch/node{n}");
            ptdf.push_str(&format!("Resource {node} grid/machine/partition/node\n"));
            ptdf.push_str(&format!(
                "ResourceAttribute {node} mem {} string\n",
                (n + 1) * 4
            ));
            for p in 0..w.procs {
                let proc = format!("{node}/p{p}");
                ptdf.push_str(&format!(
                    "Resource {proc} grid/machine/partition/node/processor\n"
                ));
                for r in 0..w.results_per_proc {
                    ptdf.push_str(&format!(
                        "PerfResult exec-{m} \"/App,{proc}(primary)\" T metric-{r} {} u\n",
                        m * 100 + n * 10 + p
                    ));
                }
            }
        }
    }
    store.load_ptdf_str(&ptdf).unwrap();
    store
}

/// Filters to cross-check, parameterized over the world.
fn filters_under_test(reg: &TypeRegistry) -> Vec<ResourceFilter> {
    vec![
        ResourceFilter::by_name("M0"),
        ResourceFilter::by_name("M0").relatives(Relatives::Neither),
        ResourceFilter::by_name("M0").relatives(Relatives::Ancestors),
        ResourceFilter::by_name("M0").relatives(Relatives::Both),
        ResourceFilter::by_name("batch"),
        ResourceFilter::by_name("node0").relatives(Relatives::Both),
        ResourceFilter::by_name("/App").relatives(Relatives::Neither),
        ResourceFilter::by_type(reg.get("grid/machine/partition/node/processor").unwrap()),
        ResourceFilter::by_type(reg.get("grid/machine").unwrap()),
        ResourceFilter::by_attrs(vec![AttrPredicate {
            attr: "mem".into(),
            cmp: AttrCmp::Ge,
            value: "8".into(),
        }])
        .relatives(Relatives::Descendants),
        ResourceFilter::by_name("/nonexistent").relatives(Relatives::Neither),
    ]
}

fn check_equivalence(w: &World) {
    let (reg, repo, model_results) = build_model(w);
    let store = build_db(w);
    let engine = QueryEngine::new(&store);
    let filters = filters_under_test(&reg);

    // 1. Family contents agree (names).
    for f in &filters {
        let model_family: std::collections::BTreeSet<String> = f
            .apply(&repo)
            .members
            .iter()
            .map(|n| n.as_str().to_string())
            .collect();
        let db_family: std::collections::BTreeSet<String> = engine
            .family(f)
            .unwrap()
            .into_iter()
            .map(|id| store.resource_by_id(id).unwrap().unwrap().name)
            .collect();
        assert_eq!(model_family, db_family, "family mismatch for {f:?}");
    }

    // 2. Whole pr-filter matching agrees, for pairs of filters.
    for pair in filters.chunks(2) {
        let prf = PrFilter::from_filters(&repo, pair);
        let model_matched = prf.filter(&model_results).len();
        let families: Vec<_> = pair.iter().map(|f| engine.family(f).unwrap()).collect();
        let db_matched = engine.matching_result_ids(&families).unwrap().len();
        assert_eq!(
            model_matched, db_matched,
            "match count mismatch for {pair:?}"
        );

        // 3. Live counts agree.
        let model_counts = prf.match_counts(&model_results);
        let db_counts = engine.match_counts(&families).unwrap();
        assert_eq!(model_counts.per_family, db_counts.per_family);
        assert_eq!(model_counts.whole, db_counts.whole);
    }
}

#[test]
fn equivalence_on_reference_world() {
    check_equivalence(&World {
        machines: 2,
        nodes: 3,
        procs: 2,
        results_per_proc: 2,
    });
}

#[test]
fn equivalence_on_degenerate_worlds() {
    check_equivalence(&World {
        machines: 1,
        nodes: 1,
        procs: 1,
        results_per_proc: 1,
    });
    check_equivalence(&World {
        machines: 3,
        nodes: 1,
        procs: 4,
        results_per_proc: 1,
    });
}

#[test]
fn equivalence_on_random_worlds() {
    check_cases(0xe901_0100, 8, |rng| {
        check_equivalence(&World {
            machines: rng.gen_range(1..4),
            nodes: rng.gen_range(1..4),
            procs: rng.gen_range(1..3),
            results_per_proc: rng.gen_range(1..3),
        });
    });
}
