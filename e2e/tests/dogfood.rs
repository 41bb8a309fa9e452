//! The paper's thesis applied to the benchmark itself: two runs emitted
//! as PTdf load into one PerfTrack store, and `Compare::tree_compare`
//! aligns them by workload and layer and ranks what moved — the
//! continuous-benchmarking loop of ROADMAP item 1, without `pt bench`.

use perftrack::{Compare, CompareOptions, PTDataStore};
use pt_e2e::report::{RunReport, Summary, WorkloadReport};
use pt_e2e::spec;

/// A run whose metrics all read `base`, except `moved`, which reads
/// `base * factor`.
fn run(commit: &str, base: f64, moved: &str, factor: f64) -> RunReport {
    let summarize = |specs: &[spec::MetricSpec]| {
        specs
            .iter()
            .map(|&spec| Summary {
                spec,
                median: if spec.name == moved {
                    base * factor
                } else {
                    base
                },
                mad: 0.0,
                n: 1,
            })
            .collect()
    };
    RunReport {
        seed: 2005,
        seconds: 15.0,
        commit: commit.into(),
        machine: "x86_64-2cpu".into(),
        workloads: spec::WORKLOADS
            .iter()
            .map(|&name| WorkloadReport {
                name,
                attempted: 100,
                failed: 0,
                end_to_end: summarize(&spec::END_TO_END),
                per_layer: summarize(&spec::PER_LAYER),
            })
            .collect(),
    }
}

#[test]
fn two_emitted_runs_align_and_the_moved_metric_ranks_first() {
    let store = PTDataStore::in_memory().unwrap();
    let before = run("aaaa111", 10.0, "store.commit_ms", 1.0);
    let after = run("bbbb222", 10.0, "store.commit_ms", 3.0);
    for r in [&before, &after] {
        // Through the text form, as `--emit-ptdf` writes it.
        let text = perftrack_ptdf::to_string(&r.to_ptdf());
        store.load_ptdf_str(&text).unwrap();
    }
    assert!(store.fsck(false).unwrap().error_count() == 0);

    let cmp = Compare::new(&store)
        .tree_compare(
            &["e2e-aaaa111-s2005", "e2e-bbbb222-s2005"],
            &CompareOptions::default(),
        )
        .unwrap();
    // Every metric of every workload is a cell both runs measured.
    let metrics = spec::END_TO_END.len() + spec::PER_LAYER.len();
    assert_eq!(cmp.aligned_cells, metrics * spec::WORKLOADS.len());
    assert!(cmp.drift.is_empty(), "{:?}", cmp.drift);
    // The commit-time regression is found on every workload, at its layer.
    assert_eq!(cmp.regressions().len(), spec::WORKLOADS.len());
    let top = &cmp.ranked[0];
    assert_eq!(top.metric, "store.commit_ms");
    assert!(top.resource.starts_with("/pt-e2e/"));
    assert!(top.resource.ends_with("/store"));
    assert_eq!(top.ratio, Some(3.0));
    assert!(cmp.render_table().contains("store.commit_ms"));
}
