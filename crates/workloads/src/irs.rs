//! Synthetic IRS (Implicit Radiation Solver) benchmark output.
//!
//! The ASC Purple IRS benchmark (§4.1) writes several data files per run;
//! timings cover ~80 functions, and for each function five metrics are
//! reported as aggregate/average/max/min over all processes — with some
//! values occasionally not applicable, yielding "slightly varying numbers
//! of performance results" (~1,500) per execution. This generator
//! reproduces that file shape deterministically from a seed, with a
//! load-imbalance model so the paper's Figure 5 (min/max function time vs
//! process count) has its characteristic spread.

use crate::common::{jitter, rng_for, GenFile};

/// Configuration of one synthetic IRS execution.
#[derive(Debug, Clone)]
pub struct IrsConfig {
    /// Execution name, e.g. `irs-mcr-0008`.
    pub exec_name: String,
    /// Machine tag recorded in the run header (`MCR`, `Frost`).
    pub machine: String,
    /// MPI process count.
    pub np: usize,
    /// OpenMP threads per process.
    pub threads: usize,
    /// Number of timed functions (the paper's ~80).
    pub functions: usize,
    /// Relative max/min spread across processes (load imbalance).
    pub imbalance: f64,
    /// RNG seed.
    pub seed: u64,
    /// Seed of the program being run. When set, the weights of the
    /// non-dominant functions — among them the serial ones that fix the
    /// Amdahl fraction — come from a stream keyed by this seed alone, so
    /// every run of one code (a process-count sweep) shares them. `None`
    /// draws them from the run's own stream.
    pub code_seed: Option<u64>,
}

impl IrsConfig {
    /// A paper-shaped config: 80 functions, 15% imbalance.
    pub fn new(exec_name: &str, machine: &str, np: usize, seed: u64) -> Self {
        IrsConfig {
            exec_name: exec_name.to_string(),
            machine: machine.to_string(),
            np,
            threads: 1,
            functions: 80,
            imbalance: 0.15,
            seed,
            code_seed: None,
        }
    }
}

/// The five per-function metrics IRS reports.
pub const IRS_METRICS: [&str; 5] = ["CPU_time", "wall_time", "MPI_time", "cache_misses", "flops"];

/// Well-known IRS function names; the remainder are generated.
const KNOWN_FUNCTIONS: [&str; 12] = [
    "rmatmult3",
    "SetupHydro",
    "RadiationSolve",
    "MatrixSolveCG",
    "GlobalSum",
    "ExchangeBoundary",
    "ZoneUpdate",
    "EosLookup",
    "TimeStepControl",
    "WriteDump",
    "ReadInput",
    "DomainDecompose",
];

/// Function names for a run of `n` functions.
pub fn function_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            KNOWN_FUNCTIONS
                .get(i)
                .map_or_else(|| format!("irs_kernel_{i:03}"), |s| s.to_string())
        })
        .collect()
}

/// Generate the six output files of one IRS execution.
pub fn generate(cfg: &IrsConfig) -> Vec<GenFile> {
    let mut rng = rng_for(cfg.seed, &format!("irs:{}", cfg.exec_name));
    let mut code_rng = cfg.code_seed.map(|seed| rng_for(seed, "irs:code"));
    let funcs = function_names(cfg.functions);
    // Per-function "work" determines base times; a handful of functions
    // dominate, like a real solver.
    let mut timing = String::with_capacity(64 * 1024);
    timing.push_str("# IRS timing summary\n");
    timing.push_str(&format!(
        "# execution: {}  machine: {}  np: {}  threads: {}\n",
        cfg.exec_name, cfg.machine, cfg.np, cfg.threads
    ));
    timing.push_str("# function metric aggregate average max min\n");
    for (fi, f) in funcs.iter().enumerate() {
        let weight = match fi {
            0..=4 => 40.0 / (fi + 1) as f64, // dominant kernels
            _ => {
                // The run stream draws its weight either way, so a code
                // seed changes the weights and nothing else.
                let run_weight = jitter(&mut rng, 1.5, 0.8);
                match code_rng.as_mut() {
                    Some(code) => jitter(code, 1.5, 0.8),
                    None => run_weight,
                }
            }
        };
        for metric in IRS_METRICS {
            // Average per-process value: work/np for time-like metrics,
            // flat for counter-like. I/O and timestep control are serial
            // (they do not speed up with more processes), giving the
            // application a realistic Amdahl serial fraction.
            let serial_fn = matches!(fi, 8..=10); // TimeStepControl, WriteDump, ReadInput
            let per_proc = match metric {
                "cache_misses" => weight * 1.0e6,
                "flops" => weight * 5.0e7 / cfg.np as f64,
                _ if serial_fn => weight * 0.2,
                _ => weight / cfg.np as f64,
            };
            let avg = jitter(&mut rng, per_proc, 0.05);
            let spread = cfg.imbalance * jitter(&mut rng, 1.0, 0.4);
            let max = avg * (1.0 + spread);
            let min = (avg * (1.0 - spread)).max(0.0);
            let agg = avg * cfg.np as f64;
            // ~5% of stats are "not applicable" ("-"), as in the paper.
            // Dominant kernels always report, so scaling studies (Fig. 5)
            // have complete series.
            let drop_p = if fi < 5 { 0.0 } else { 0.055 };
            let fmt = |v: f64, rng: &mut crate::rng::Rng| {
                if rng.gen_bool(drop_p) {
                    "-".to_string()
                } else {
                    format!("{v:.6}")
                }
            };
            let line = format!(
                "{f} {metric} {} {} {} {}\n",
                fmt(agg, &mut rng),
                fmt(avg, &mut rng),
                fmt(max, &mut rng),
                fmt(min, &mut rng)
            );
            timing.push_str(&line);
        }
    }

    let mut run_info = String::new();
    run_info.push_str(&format!("execution: {}\n", cfg.exec_name));
    run_info.push_str("application: IRS\n");
    run_info.push_str(&format!("machine: {}\n", cfg.machine));
    run_info.push_str(&format!("processes: {}\n", cfg.np));
    run_info.push_str(&format!("threads_per_process: {}\n", cfg.threads));
    run_info.push_str(&format!(
        "concurrency_model: {}\n",
        match (cfg.np > 1, cfg.threads > 1) {
            (true, true) => "MPI+OpenMP",
            (true, false) => "MPI",
            (false, true) => "OpenMP",
            (false, false) => "sequential",
        }
    ));
    run_info.push_str(&format!("input_deck: zrad.{}\n", cfg.np));

    let mut mem = String::from("# rank high_water_MB\n");
    for rank in 0..cfg.np {
        mem.push_str(&format!("{rank} {:.2}\n", jitter(&mut rng, 180.0, 0.2)));
    }

    let mut io = String::from("# phase bytes seconds\n");
    for phase in ["read_input", "write_dump", "write_restart"] {
        io.push_str(&format!(
            "{phase} {} {:.4}\n",
            rng.gen_range(1_000_000..50_000_000),
            jitter(&mut rng, 2.0, 0.5)
        ));
    }

    let mut residual = String::from("# iteration residual\n");
    let mut r = 1.0f64;
    for it in 0..25 {
        r *= rng.gen_range(0.3..0.7);
        residual.push_str(&format!("{it} {r:.6e}\n"));
    }

    let mut counters = String::from("# counter value\n");
    for (name, base) in [
        ("PM_CYC", 2.0e11),
        ("PM_INST_CMPL", 1.5e11),
        ("PM_FPU_FMA", 3.0e10),
        ("PM_LD_MISS_L1", 8.0e8),
        ("PM_ST_MISS_L1", 4.0e8),
        ("PM_TLB_MISS", 2.0e7),
        ("PM_BR_MPRED", 6.0e8),
        ("PM_DATA_FROM_MEM", 3.0e8),
    ] {
        counters.push_str(&format!("{name} {:.0}\n", jitter(&mut rng, base, 0.3)));
    }

    vec![
        GenFile {
            name: format!("{}.timing.dat", cfg.exec_name),
            content: timing,
        },
        GenFile {
            name: format!("{}.run_info.txt", cfg.exec_name),
            content: run_info,
        },
        GenFile {
            name: format!("{}.mem.dat", cfg.exec_name),
            content: mem,
        },
        GenFile {
            name: format!("{}.io.dat", cfg.exec_name),
            content: io,
        },
        GenFile {
            name: format!("{}.residual.dat", cfg.exec_name),
            content: residual,
        },
        GenFile {
            name: format!("{}.counters.dat", cfg.exec_name),
            content: counters,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_six_files_deterministically() {
        let cfg = IrsConfig::new("irs-mcr-0008", "MCR", 8, 42);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), 6);
        assert_eq!(a, b, "same seed, same bytes");
        let other = generate(&IrsConfig::new("irs-mcr-0008", "MCR", 8, 43));
        assert_ne!(a, other, "different seed differs");
    }

    #[test]
    fn timing_file_has_expected_shape() {
        let cfg = IrsConfig::new("e", "Frost", 16, 7);
        let files = generate(&cfg);
        let timing = &files[0].content;
        let data_lines: Vec<&str> = timing
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert_eq!(data_lines.len(), 80 * 5);
        // Stat values: max >= avg >= min when all three present.
        let mut checked = 0;
        for l in &data_lines {
            let parts: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(parts.len(), 6);
            if let (Ok(avg), Ok(max), Ok(min)) = (
                parts[3].parse::<f64>(),
                parts[4].parse::<f64>(),
                parts[5].parse::<f64>(),
            ) {
                assert!(max >= avg && avg >= min, "bad stats in {l}");
                checked += 1;
            }
        }
        assert!(checked > 300, "most lines have all stats");
        // Some stats are n/a.
        assert!(timing.contains(" - "), "occasional missing values");
    }

    #[test]
    fn times_shrink_with_more_processes() {
        // Figure 5's premise: per-process function time drops as np grows.
        let t8 = generate(&IrsConfig::new("a", "M", 8, 9));
        let t64 = generate(&IrsConfig::new("a", "M", 64, 9));
        let avg_of = |files: &[GenFile]| -> f64 {
            files[0]
                .content
                .lines()
                .filter(|l| l.starts_with("rmatmult3 CPU_time"))
                .filter_map(|l| l.split_whitespace().nth(3)?.parse::<f64>().ok())
                .next()
                .unwrap()
        };
        assert!(avg_of(&t8) > 4.0 * avg_of(&t64));
    }

    #[test]
    fn per_process_files_scale_with_np() {
        let files = generate(&IrsConfig::new("e", "M", 32, 1));
        let mem = files.iter().find(|f| f.name.ends_with("mem.dat")).unwrap();
        assert_eq!(
            mem.content.lines().filter(|l| !l.starts_with('#')).count(),
            32
        );
    }

    #[test]
    fn run_info_concurrency_model() {
        let mut cfg = IrsConfig::new("e", "M", 4, 1);
        cfg.threads = 4;
        let files = generate(&cfg);
        assert!(files[1].content.contains("concurrency_model: MPI+OpenMP"));
        cfg.np = 1;
        cfg.threads = 1;
        let files = generate(&cfg);
        assert!(files[1].content.contains("concurrency_model: sequential"));
    }
}
