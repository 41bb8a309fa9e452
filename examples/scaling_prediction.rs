//! Performance prediction (§6: "incorporation of performance predictions
//! and models into PerfTrack for direct comparison to actual program
//! runs").
//!
//! Fit an Amdahl-style scaling model from a parameter study already in
//! the data store, validate it against a held-out run, store the model's
//! prediction for an untested process count *as a performance result*,
//! and compare prediction vs reality with the ordinary comparison
//! operators.
//!
//! Run with: `cargo run --example scaling_prediction`

use perftrack::{Predictor, QueryEngine};
use perftrack_suite::adapters::{self, ExecContext};
use perftrack_suite::prelude::*;
use perftrack_suite::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = PTDataStore::in_memory()?;

    // A parameter study: IRS at np ∈ {8..256} on MCR.
    let nps = [8usize, 16, 32, 64, 128, 256];
    for bundle in workloads::irs_scaling_sweep(99, "MCR", &nps) {
        let files: Vec<(String, String)> = bundle
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        let ctx = ExecContext::new(&bundle.exec_name, "IRS");
        store.load_statements(&adapters::irs::convert(&ctx, &files)?)?;
    }
    println!(
        "parameter study loaded: {} executions, {} results",
        store.executions().len(),
        store.result_count()?
    );

    // Fit on the four smallest process counts; hold out np=128 and 256.
    let predictor = Predictor::new(&store);
    let metric = "CPU_time (average)";
    let train: Vec<String> = nps[..4]
        .iter()
        .map(|np| format!("irs-mcr-np{np:03}"))
        .collect();
    let train_refs: Vec<&str> = train.iter().map(String::as_str).collect();
    let model = predictor.fit_scaling(metric, &train_refs)?;
    println!(
        "\nmodel: T(p) = {:.5} + {:.4}/p   (R² = {:.4}, trained on np ≤ 64)",
        model.serial, model.parallel, model.r_squared
    );

    // Validate against the held-out runs.
    println!("\nholdout validation:");
    for np in [128usize, 256] {
        let check = predictor.check(&model, &format!("irs-mcr-np{np:03}"))?;
        println!(
            "  np={np:<4} predicted {:.4}s  actual {:.4}s  error {:+.2}%",
            check.predicted,
            check.actual,
            check.relative_error * 100.0
        );
        assert!(
            check.relative_error.abs() < 0.25,
            "prediction within 25% of reality"
        );
    }

    // Store a prediction for an *untested* scale as a first-class result,
    // flagged `predicted=true`, then query it back like any measurement.
    let app = ResourceName::new("/IRS")?;
    predictor.store_prediction(
        &model,
        "irs-mcr-predicted-1024",
        "IRS",
        1024,
        vec![app],
        "seconds",
    )?;
    let engine = QueryEngine::new(&store);
    let rows =
        engine
            .run(&[ResourceFilter::by_name("/irs-mcr-predicted-1024-run")
                .relatives(Relatives::Neither)])?;
    println!("\nstored prediction queryable like a measurement:");
    for r in &rows {
        println!(
            "  {} | {} | {:.5} {} | tool={}",
            r.execution, r.metric, r.value, r.units, r.tool
        );
    }
    assert_eq!(&*rows[0].tool, "PerfTrackModel");

    // Efficiency outlook from the model.
    println!("\npredicted parallel efficiency:");
    for np in [64usize, 256, 1024, 4096] {
        println!("  np={np:<5} {:.1}%", model.efficiency(np) * 100.0);
    }
    Ok(())
}
