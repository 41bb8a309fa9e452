//! Case study §4.3 — Incorporating Paradyn Performance Data.
//!
//! Reproduces the paper's third case study: take Paradyn's exported
//! session data (resources list, histogram index, histogram files) for
//! three IRS executions on MCR, map Paradyn's resource hierarchy onto
//! PerfTrack's (Figure 11) — Code → build, Machine → execution with nodes
//! as process attributes, SyncObject → a brand-new top-level hierarchy —
//! convert to PTdf, and load into an *existing* PerfTrack store. Bins
//! recorded before dynamic instrumentation was inserted (`nan`) produce no
//! results, so counts vary across the three executions.
//!
//! Run with: `cargo run --example paradyn_integration`

use perftrack::QueryEngine;
use perftrack_suite::adapters::{self, ParadynFiles};
use perftrack_suite::prelude::*;
use perftrack_suite::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An existing store: machine data already present (as in the paper,
    // where IRS/MCR data from §4.1 was already loaded).
    let store = PTDataStore::in_memory()?;
    store.load_statements(&MachineModel::mcr().to_ptdf(4))?;
    println!(
        "starting from an existing store with {} resources",
        store.resource_count()?
    );
    let types_before = store.registry().len();

    // Three Paradyn-exported IRS executions. `small: false` is the paper's
    // ~17k-resource scale; we use a mid-size config here for a quick run.
    let bundles = workloads::paradyn_irs(7, 3, true);
    for bundle in &bundles {
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
        let ctx = ExecContext::new(&bundle.exec_name, "IRS");
        let stmts = adapters::paradyn::convert(&ctx, &files)?;
        let stats = store.load_statements(&stmts)?;
        println!(
            "{}: +{} resources, +{} results ({} PTdf statements)",
            bundle.exec_name, stats.resources, stats.results, stats.statements
        );
    }

    // The new top-level hierarchy exists alongside the base types.
    let registry = store.registry();
    println!(
        "\ntype system grew from {types_before} to {} types; syncObject registered: {}",
        registry.len(),
        registry.contains("syncObject/class/instance")
    );

    // Machine nodes became process attributes (Fig. 11's mapping).
    let engine = QueryEngine::new(&store);
    let procs = engine.family(&ResourceFilter::by_type(
        TypePath::new("execution/process").unwrap(),
    ))?;
    let mut node_attrs = 0;
    for &id in &procs {
        if store.attributes_of(id)?.iter().any(|(n, _, _)| n == "node") {
            node_attrs += 1;
        }
    }
    println!(
        "{node_attrs}/{} process resources carry a node attribute",
        procs.len()
    );

    // Query Paradyn data through the ordinary pr-filter machinery: cpu
    // time for one code function across time bins.
    let rows = engine.run(&[
        ResourceFilter::by_name("/IRS-pd/irs_mod_00.c").relatives(Relatives::Descendants)
    ])?;
    println!(
        "\n{} results for module irs_mod_00.c; metrics: {:?}",
        rows.len(),
        rows.iter()
            .map(|r| &*r.metric)
            .collect::<std::collections::BTreeSet<_>>()
    );

    // Time bins: each result's context includes a time/interval resource
    // with start/end attributes.
    if let Some(row) = rows.first() {
        for &res in row.context.iter() {
            let rec = store.resource_by_id(res)?.unwrap();
            let attrs = store.attributes_of(res)?;
            let attr_str: Vec<String> = attrs.iter().map(|(n, v, _)| format!("{n}={v}")).collect();
            println!("  context: {} [{}]", rec.name, attr_str.join(", "));
        }
    }

    // Counts vary per execution (dynamic instrumentation timing).
    let mut per_exec: std::collections::BTreeMap<String, usize> = Default::default();
    for r in engine.run(&[])? {
        if &*r.tool == "Paradyn" {
            *per_exec.entry(String::from(&*r.execution)).or_default() += 1;
        }
    }
    println!("\nParadyn results per execution (varies, as in the paper):");
    for (exec, n) in &per_exec {
        println!("  {exec}: {n}");
    }
    let distinct: std::collections::BTreeSet<_> = per_exec.values().collect();
    assert!(
        distinct.len() > 1,
        "executions should differ in result counts"
    );

    // The Performance Consultant's search history graph is loaded too:
    // list the confirmed (true) hypotheses — Paradyn's diagnoses — with
    // the resources they implicate.
    println!("\nPerformance Consultant diagnoses (true SHG nodes):");
    let nodes = engine.family(&ResourceFilter::by_type(
        TypePath::new("searchHistory/node").unwrap(),
    ))?;
    let mut shown = 0;
    for id in nodes {
        let attrs = store.attributes_of(id)?;
        let get = |k: &str| {
            attrs
                .iter()
                .find(|(n, _, _)| n == k)
                .map(|(_, v, _)| v.clone())
        };
        if get("state").as_deref() == Some("true") {
            if let (Some(h), Some(f)) = (get("hypothesis"), get("focus")) {
                if h != "TopLevelHypothesis" && shown < 6 {
                    println!("  {h:<26} @ {f}");
                    shown += 1;
                }
            }
        }
    }
    assert!(shown > 0, "at least one confirmed diagnosis");
    Ok(())
}
