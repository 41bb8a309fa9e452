//! Comparison-based diagnosis across executions — the §6 extension
//! ("addition of a set of comparison operators to automate the comparison
//! of different executions and performance results in the data store"),
//! grounded in the Karavanic & Miller comparison-based diagnosis work the
//! paper builds on.
//!
//! Scenario: two versions of IRS are run on the same machine; version 2
//! regressed one kernel. The comparison engine aligns the executions'
//! structural resource trees, ranks the (resource, metric) cells that
//! diverged, and its regression report localizes the problem
//! automatically.
//!
//! Run with: `cargo run --example comparison_diagnosis`

use perftrack::{Compare, CompareOptions, QueryEngine};
use perftrack_suite::adapters;
use perftrack_suite::prelude::*;
use perftrack_suite::workloads::irs::{generate, IrsConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = PTDataStore::in_memory()?;
    store.load_statements(&MachineModel::mcr().to_ptdf(2))?;

    // Version 1: baseline run.
    let v1 = IrsConfig::new("irs-v1", "MCR", 32, 11);
    load_irs(&store, &v1)?;

    // Version 2: generated byte-identical to version 1 (same seed and RNG
    // stream) then renamed, with the timing of one kernel inflated —
    // simulating a code change that regressed `MatrixSolveCG` and nothing
    // else.
    let mut files: Vec<(String, String)> = generate(&v1)
        .into_iter()
        .map(|f| {
            (
                f.name.replace("irs-v1", "irs-v2"),
                f.content.replace("irs-v1", "irs-v2"),
            )
        })
        .collect();
    for (_, content) in &mut files {
        // Triple every MatrixSolveCG timing value in the raw output.
        *content = content
            .lines()
            .map(|l| {
                if l.starts_with("MatrixSolveCG ") && !l.contains("cache") && !l.contains("flops") {
                    let mut parts: Vec<String> = l.split_whitespace().map(str::to_string).collect();
                    for p in &mut parts[2..] {
                        if let Ok(v) = p.parse::<f64>() {
                            *p = format!("{:.6}", v * 3.0);
                        }
                    }
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
    }
    let ctx = ExecContext::new("irs-v2", "IRS");
    store.load_statements(&adapters::irs::convert(&ctx, &files)?)?;

    println!(
        "two executions loaded: {} results total",
        store.result_count()?
    );

    // --- automated comparison -------------------------------------------------
    let compare = Compare::new(&store);
    let opts = CompareOptions {
        threshold_pct: 50.0,
        top: usize::MAX,
        ..CompareOptions::default()
    };
    let report = compare.tree_compare(&["irs-v1", "irs-v2"], &opts)?;
    println!(
        "\naligned {} (resource, metric) cells; presence drift: {}",
        report.aligned_cells,
        report.drift.len()
    );
    println!(
        "divergent cells: {} of {} (the regression is local)",
        report.ranked_total, report.aligned_cells
    );

    // Regression report: anything 50%+ slower.
    let regressions = report.regressions();
    println!("\nregressions (v2 > 1.5× v1): {}", regressions.len());
    let mut shown = 0;
    for r in &regressions {
        if r.metric.contains("CPU_time") {
            println!(
                "  {:<52} {:>9.4} → {:>9.4}  ({:.2}x)",
                format!("{} @ {}", r.metric, r.resource),
                r.values[0].unwrap_or(f64::NAN),
                r.values[1].unwrap_or(f64::NAN),
                r.ratio.unwrap_or(f64::INFINITY)
            );
            shown += 1;
        }
    }
    assert!(shown > 0);
    assert!(
        regressions
            .iter()
            .all(|r| r.resource == "/IRS-code/irs.c/MatrixSolveCG"),
        "diagnosis must localize the regression to the changed kernel"
    );

    // Improvements: none expected.
    println!(
        "improvements (v2 < v1/1.5): {}",
        report.improvements().len()
    );

    // --- load balance view (Figure 5's computation as an operator) ------------
    let engine = QueryEngine::new(&store);
    let rows =
        engine
            .run(&[ResourceFilter::by_name("/IRS-code/irs.c/MatrixSolveCG")
                .relatives(Relatives::Neither)])?;
    let max_rows: Vec<_> = rows
        .into_iter()
        .filter(|r| &*r.metric == "CPU_time (max)")
        .collect();
    let lb = compare.load_balance(&max_rows);
    println!("\nper-execution MatrixSolveCG max-CPU-time summary:");
    for g in &lb {
        println!(
            "  {:<8} n={} min={:.4} max={:.4} mean={:.4}",
            g.label, g.n, g.min, g.max, g.mean
        );
    }
    Ok(())
}

fn load_irs(store: &PTDataStore, cfg: &IrsConfig) -> Result<LoadStats, Box<dyn std::error::Error>> {
    let files: Vec<(String, String)> = generate(cfg)
        .into_iter()
        .map(|f| (f.name, f.content))
        .collect();
    let ctx = ExecContext::new(&cfg.exec_name, "IRS");
    Ok(store.load_statements(&adapters::irs::convert(&ctx, &files)?)?)
}
