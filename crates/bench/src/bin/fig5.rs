//! Regenerates **Figure 5** of the paper: "minimum and maximum running
//! time of a function across all the processors for different process
//! counts, which is a rough indication of load balance" — as a
//! multi-series bar chart plus the CSV the GUI would export.
//!
//! Usage: `cargo run --release -p perftrack-bench --bin fig5 [-- --function NAME]`

use perftrack::{BarChart, Compare, PTDataStore, QueryEngine, Series};
use perftrack_bench::bundle_to_ptdf;
use perftrack_model::{Relatives, ResourceFilter};
use perftrack_workloads as wl;

fn main() {
    let function = std::env::args()
        .skip_while(|a| a != "--function")
        .nth(1)
        .unwrap_or_else(|| "rmatmult3".to_string());
    let nps = [8usize, 16, 32, 64, 128];

    // Load one IRS execution per process count (the paper's parameter
    // study shape).
    let store = PTDataStore::in_memory().unwrap();
    for bundle in wl::irs_scaling_sweep(2005, "MCR", &nps) {
        store.load_statements(&bundle_to_ptdf(&bundle)).unwrap();
    }
    println!(
        "loaded {} executions, {} results\n",
        store.executions().len(),
        store.result_count().unwrap()
    );

    // Query: all results for the chosen function (pr-filter by name),
    // executed with per-operator profiling (the CLI's `--profile`).
    let engine = QueryEngine::new(&store);
    let (rows, profile) = engine
        .run_profiled(&[
            ResourceFilter::by_name(&format!("/IRS-code/irs.c/{function}"))
                .relatives(Relatives::Neither),
        ])
        .unwrap();
    println!("query operator profile (schema: docs/METRICS.md):");
    print!("{}", profile.render_table());
    println!("profile JSON: {}\n", profile.to_json().emit());

    let mut categories = Vec::new();
    let mut mins = Vec::new();
    let mut maxs = Vec::new();
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "np", "min (s)", "max (s)", "max/min"
    );
    for np in nps {
        let exec = format!("irs-mcr-np{np:03}");
        let get = |metric: &str| {
            rows.iter()
                .find(|r| *r.execution == *exec && &*r.metric == metric)
                .map(|r| r.value)
        };
        let (Some(min), Some(max)) = (get("CPU_time (min)"), get("CPU_time (max)")) else {
            println!("{np:<8} (metric not reported for this execution)");
            continue;
        };
        println!("{np:<8} {min:>12.4} {max:>12.4} {:>10.3}", max / min);
        categories.push(format!("np={np}"));
        mins.push(min);
        maxs.push(max);
    }

    let chart = BarChart::new(
        &format!("{function}: min/max CPU time across processes (Figure 5)"),
        categories,
        vec![
            Series {
                name: "min".into(),
                values: mins.clone(),
            },
            Series {
                name: "max".into(),
                values: maxs.clone(),
            },
        ],
        "seconds",
    );
    println!("\n{}", chart.render_ascii(76));
    println!("CSV (spreadsheet import):\n{}", chart.to_csv());

    // The same computation through the comparison operators' load-balance
    // summary (per-process results from mem.dat drive this one).
    let mem_rows = engine.run(&[]).unwrap();
    let mem_rows: Vec<_> = mem_rows
        .into_iter()
        .filter(|r| &*r.metric == "memory high water")
        .collect();
    let compare = Compare::new(&store);
    println!("load-balance operator over per-process memory results:");
    for g in compare.load_balance(&mem_rows) {
        println!(
            "  {:<18} n={:<4} min={:>8.2} max={:>8.2} imbalance={:.3}",
            g.label,
            g.n,
            g.min,
            g.max,
            g.imbalance.unwrap_or(f64::NAN)
        );
    }

    // Shape checks: times fall as np grows; max stays above min.
    let monotone = mins.windows(2).all(|w| w[1] < w[0]);
    let spread_ok = mins.iter().zip(&maxs).all(|(mn, mx)| mx > mn);
    println!("\nShape checks vs the paper:");
    println!(
        "  - per-process time decreases with process count: {}",
        if monotone { "yes" } else { "NO" }
    );
    println!(
        "  - max > min at every process count (load imbalance visible): {}",
        if spread_ok { "yes" } else { "NO" }
    );

    // Integrity gate: fast fsck over the loaded store (docs/FSCK.md).
    if std::env::args().any(|a| a == "--verify") {
        let report = store.fsck(false).unwrap();
        println!("\nfsck: {}", report.summary());
        assert_eq!(report.error_count(), 0, "integrity check failed");
    }
}
