//! Case study §4.2 — A Noise Analysis Study.
//!
//! Reproduces the paper's second case study: SMG2000 runs from an OS-noise
//! study on two new platforms — UV (128-node Power4+ SMP cluster, noisy)
//! and BlueGene/L (quiet) — with three kinds of performance data per the
//! paper's Figures 7 and 8: the standard benchmark output, PMAPI hardware
//! counters, and mpiP profiles whose caller/callee breakdown exercises
//! multiple resource sets per result.
//!
//! Run with: `cargo run --example noise_analysis_study`

use perftrack::QueryEngine;
use perftrack_suite::adapters;
use perftrack_suite::prelude::*;
use perftrack_suite::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = PTDataStore::in_memory()?;

    // Step 1 (paper): add descriptive data for the two new platforms.
    for machine in [MachineModel::uv(), MachineModel::bgl()] {
        let stats = store.load_statements(&machine.to_ptdf(2))?;
        println!(
            "described {}: {} resources ({} total nodes in attributes)",
            machine.name,
            stats.resources,
            machine.partitions.iter().map(|p| p.1).sum::<usize>()
        );
    }

    // Step 2: load the study data — a few executions per platform here
    // (the bench harness loads the full Table 1 volumes).
    let mut loaded = 0usize;
    for bundle in workloads::smg_uv(42, 4) {
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        // File 1: SMG stdout with PMAPI counters appended (Fig. 7).
        let smg = adapters::smg::convert(&ctx, &bundle.files[0].content)?;
        store.load_statements(&smg)?;
        // File 2: the mpiP report (Fig. 8).
        let mpip = adapters::mpip::convert(&ctx, &bundle.files[1].content)?;
        store.load_statements(&mpip)?;
        loaded += 1;
    }
    for bundle in workloads::smg_bgl(42, 6) {
        let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
        let smg = adapters::smg::convert(&ctx, &bundle.files[0].content)?;
        store.load_statements(&smg)?;
        loaded += 1;
    }
    println!(
        "\nloaded {loaded} executions: {} resources, {} results, {} metrics",
        store.resource_count()?,
        store.result_count()?,
        store.metrics().len()
    );

    // The noise signal: solve-time spread across runs per platform.
    let engine = QueryEngine::new(&store);
    let all = engine.run(&[])?;
    let spread = |prefix: &str| -> (usize, f64) {
        let vals: Vec<f64> = all
            .iter()
            .filter(|r| {
                r.execution.starts_with(prefix) && &*r.metric == "SMG Solve wall clock time"
            })
            .map(|r| r.value)
            .collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(0.0f64, f64::max);
        (vals.len(), (max - min) / min)
    };
    let (n_uv, uv_spread) = spread("smg-uv");
    let (n_bgl, bgl_spread) = spread("smg-bgl");
    println!("\nOS-noise signal (solve wall-time spread across identical runs):");
    println!("  UV : {n_uv} runs, spread {:.1}%", uv_spread * 100.0);
    println!("  BG/L: {n_bgl} runs, spread {:.1}%", bgl_spread * 100.0);
    assert!(
        uv_spread > bgl_spread,
        "the noisy platform must show more run-to-run variation"
    );

    // The mpiP caller/callee view: MPI time by *calling* function, which
    // only works because results carry multiple resource sets (§4.2).
    println!("\nmpiP callsite data by calling function (caller → mean ms, results):");
    let rows = engine.run(&[ResourceFilter::by_name("/SMG2000-code")])?;
    use std::collections::BTreeMap;
    let mut by_caller: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for r in rows.iter().filter(|r| &*r.metric == "Callsite Mean") {
        // The caller is the build-hierarchy function in the context.
        for &res in r.context.iter() {
            if let Some(rec) = store.resource_by_id(res)? {
                if rec.name.contains("-code/") && rec.name.matches('/').count() == 3 {
                    let e = by_caller.entry(rec.base_name.clone()).or_insert((0.0, 0));
                    e.0 += r.value;
                    e.1 += 1;
                }
            }
        }
    }
    for (caller, (sum, n)) in &by_caller {
        println!(
            "  {caller:<28} {:>8.3} ms over {n} callsite rows",
            sum / *n as f64
        );
    }
    assert!(!by_caller.is_empty(), "caller attribution must resolve");

    // PMAPI counters per process, tied to the execution hierarchy.
    let uv_exec = "smg-uv-0000";
    let rows = engine.run(&[ResourceFilter::by_name(&format!("/{uv_exec}-run"))])?;
    let pmapi = rows.iter().filter(|r| &*r.tool == "PMAPI").count();
    println!("\n{uv_exec}: {pmapi} PMAPI counter results attached to processes");
    Ok(())
}
