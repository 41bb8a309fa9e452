//! Case study §4.1 — A Purple Benchmark Study.
//!
//! Reproduces the paper's first case study end to end: build the IRS
//! benchmark (PTbuild capture), run it on MCR (Linux) and Frost (AIX)
//! across process counts (PTrun capture), convert the benchmark output to
//! PTdf, load everything into one PerfTrack store, navigate the data, and
//! export a dataset of interest — the min/max function time per process
//! count that becomes Figure 5.
//!
//! Run with: `cargo run --example purple_benchmark_study`

use perftrack::{Compare, CompareOptions, QueryEngine, Series};
use perftrack_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = PTDataStore::in_memory()?;

    // --- machines: already in the store "from previous studies" ------------
    for machine in [MachineModel::mcr(), MachineModel::frost()] {
        store.load_statements(&machine.to_ptdf(4))?;
    }
    println!("machine descriptions loaded (MCR, Frost)");

    // --- PTbuild: capture the build -----------------------------------------
    let runner = perftrack_collect::simulated_irs_build();
    let build = perftrack_collect::capture_build(
        &runner,
        "irs-build-2005-06",
        "IRS",
        &["-f", "Makefile.irs"],
        &[
            ("CC".into(), "mpicc".into()),
            ("OBJECT_MODE".into(), "64".into()),
        ],
    )?;
    store.load_statements(&perftrack_collect::build_to_ptdf(&build))?;
    println!(
        "build captured on {} ({} {}): compilers {:?}, libs {:?}",
        build.build_host,
        build.os_name,
        build.os_version,
        build
            .compilers
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>(),
        build.static_libs
    );

    // --- runs: IRS at np ∈ {8,16,32,64} on both machines ---------------------
    let nps = [8usize, 16, 32, 64];
    let mut total = LoadStats::default();
    for machine in ["MCR", "Frost"] {
        let sweep = perftrack_suite::workloads::irs_scaling_sweep(2005, machine, &nps);
        for bundle in &sweep {
            // PTrun capture for the execution environment.
            let run_info =
                perftrack_collect::RunInfo::simulated(&bundle.exec_name, "IRS", bundle.np);
            store.load_statements(&perftrack_collect::run_to_ptdf(&run_info))?;
            // Convert the benchmark's own output files.
            let files: Vec<(String, String)> = bundle
                .files
                .iter()
                .map(|f| (f.name.clone(), f.content.clone()))
                .collect();
            let ctx = ExecContext::new(&bundle.exec_name, "IRS");
            let stmts = perftrack_suite::adapters::irs::convert(&ctx, &files)?;
            let stats = store.load_statements(&stmts)?;
            total.merge(&stats);
        }
    }
    println!(
        "loaded {} executions: {} resources, {} performance results ({} bytes store)",
        store.executions().len(),
        store.resource_count()?,
        store.result_count()?,
        store.size_bytes()?
    );

    // --- navigate: dominant function, per machine ----------------------------
    let engine = QueryEngine::new(&store);
    let rows = engine.run(&[
        ResourceFilter::by_name("/IRS-code/irs.c/rmatmult3").relatives(Relatives::Neither)
    ])?;
    println!(
        "\n{} results touch rmatmult3 across machines/np",
        rows.len()
    );

    // --- the Figure 5 dataset: min/max CPU time vs process count -------------
    // IRS reports max/min across processes directly; select those metrics
    // for the dominant kernel on MCR, ordered by np.
    let mut categories = Vec::new();
    let mut mins = Vec::new();
    let mut maxs = Vec::new();
    for np in nps {
        let exec = format!("irs-mcr-np{np:03}");
        let per_exec: Vec<_> = rows.iter().filter(|r| *r.execution == *exec).collect();
        let value_of = |metric: &str| -> Option<f64> {
            per_exec
                .iter()
                .find(|r| &*r.metric == metric)
                .map(|r| r.value)
        };
        if let (Some(min), Some(max)) = (value_of("CPU_time (min)"), value_of("CPU_time (max)")) {
            categories.push(format!("np={np}"));
            mins.push(min);
            maxs.push(max);
        }
    }
    let chart = perftrack::BarChart::new(
        "rmatmult3 min/max CPU time across processes (MCR)",
        categories,
        vec![
            Series {
                name: "min".into(),
                values: mins,
            },
            Series {
                name: "max".into(),
                values: maxs,
            },
        ],
        "seconds",
    );
    println!("\n{}", chart.render_ascii(76));
    println!("spreadsheet export:\n{}", chart.to_csv());

    // --- cross-machine comparison (the study's motivation) -------------------
    let compare = Compare::new(&store);
    let report = compare.tree_compare(
        &["irs-mcr-np032", "irs-frost-np032"],
        &CompareOptions::default(),
    )?;
    println!(
        "MCR vs Frost at np=32: {} aligned cells, {} divergent",
        report.aligned_cells, report.ranked_total
    );
    Ok(())
}
