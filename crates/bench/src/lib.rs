//! Shared helpers for the Table 1 / Figure 5 harness binaries:
//! converting workload bundles to PTdf and loading them.

use perftrack::{LoadStats, PTDataStore};
use perftrack_adapters::{self as adapters, ExecContext, ParadynFiles};
use perftrack_ptdf::PtdfStatement;
use perftrack_workloads::{ExecutionBundle, ParadynBundle};

/// Convert one execution bundle (IRS or SMG±mpiP) to PTdf statements.
pub fn bundle_to_ptdf(bundle: &ExecutionBundle) -> Vec<PtdfStatement> {
    let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
    let mut stmts = Vec::new();
    if bundle.application == "IRS" {
        let files: Vec<(String, String)> = bundle
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        stmts.extend(adapters::irs::convert(&ctx, &files).expect("irs convert"));
    } else {
        for f in &bundle.files {
            if f.content.starts_with("@ mpiP") {
                stmts.extend(adapters::mpip::convert(&ctx, &f.content).expect("mpip convert"));
            } else {
                stmts.extend(adapters::smg::convert(&ctx, &f.content).expect("smg convert"));
            }
        }
    }
    stmts
}

/// Convert a Paradyn bundle to PTdf statements.
pub fn paradyn_to_ptdf(bundle: &ParadynBundle) -> Vec<PtdfStatement> {
    let ctx = ExecContext::new(&bundle.exec_name, "IRS");
    let files = ParadynFiles {
        resources: bundle.export.resources.content.clone(),
        index: bundle.export.index.content.clone(),
        histograms: bundle
            .export
            .histograms
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect(),
        shg: Some(bundle.export.shg.content.clone()),
    };
    adapters::paradyn::convert(&ctx, &files).expect("paradyn convert")
}

/// Load bundles into a store, returning the accumulated stats.
pub fn load_bundles(store: &PTDataStore, bundles: &[ExecutionBundle]) -> LoadStats {
    let mut total = LoadStats::default();
    for b in bundles {
        let stmts = bundle_to_ptdf(b);
        total.merge(&store.load_statements(&stmts).expect("load"));
    }
    total
}

/// A store preloaded with `execs` IRS executions (bench fixture).
pub fn irs_store(seed: u64, execs: usize) -> PTDataStore {
    let store = PTDataStore::in_memory().expect("store");
    let bundles = perftrack_workloads::irs_purple(seed, execs);
    load_bundles(&store, &bundles);
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let store = irs_store(1, 1);
        assert!(store.result_count().unwrap() > 1_000);
        let pd = perftrack_workloads::paradyn_irs(1, 1, true);
        let stmts = paradyn_to_ptdf(&pd[0]);
        assert!(!stmts.is_empty());
    }
}
