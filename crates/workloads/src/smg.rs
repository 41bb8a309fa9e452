//! Synthetic SMG2000 benchmark output, optionally with appended PMAPI
//! hardware-counter instrumentation data (the paper's Figure 7 shows
//! exactly this combination from the noise-analysis study, §4.2).
//!
//! The raw SMG2000 stdout carries only ~8 whole-execution values (the
//! paper's SMG-BG/L row of Table 1: 8 performance results per
//! execution); the PMAPI section adds per-process counters (SMG-UV).

use crate::common::{jitter, rng_for, GenFile};

/// Configuration of one synthetic SMG2000 run.
#[derive(Debug, Clone)]
pub struct SmgConfig {
    pub exec_name: String,
    /// Machine tag (`UV`, `BGL`).
    pub machine: String,
    pub np: usize,
    /// Grid size per process.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Process grid.
    pub px: usize,
    pub py: usize,
    pub pz: usize,
    /// OS-noise factor (the study's subject): multiplies timing jitter.
    /// BG/L was famously quiet (~0.01); large SMP nodes noisy (~0.1).
    pub noise: f64,
    /// Emit the PMAPI per-process counter section.
    pub with_pmapi: bool,
    /// PMAPI counters per process.
    pub pmapi_counters: usize,
    pub seed: u64,
}

impl SmgConfig {
    /// UV-flavoured config (noisy, with PMAPI instrumentation).
    pub fn uv(exec_name: &str, np: usize, seed: u64) -> Self {
        let p = cube_factors(np);
        SmgConfig {
            exec_name: exec_name.to_string(),
            machine: "UV".into(),
            np,
            nx: 40,
            ny: 40,
            nz: 40,
            px: p.0,
            py: p.1,
            pz: p.2,
            noise: 0.10,
            with_pmapi: true,
            pmapi_counters: 8,
            seed,
        }
    }

    /// BG/L-flavoured config (quiet, bare benchmark output).
    pub fn bgl(exec_name: &str, np: usize, seed: u64) -> Self {
        let p = cube_factors(np);
        SmgConfig {
            exec_name: exec_name.to_string(),
            machine: "BGL".into(),
            np,
            nx: 35,
            ny: 35,
            nz: 35,
            px: p.0,
            py: p.1,
            pz: p.2,
            noise: 0.01,
            with_pmapi: false,
            pmapi_counters: 0,
            seed,
        }
    }
}

/// Split `np` into a roughly-cubic process grid.
pub fn cube_factors(np: usize) -> (usize, usize, usize) {
    let mut best = (np, 1, 1);
    let mut best_score = usize::MAX;
    for x in 1..=np {
        if !np.is_multiple_of(x) {
            continue;
        }
        let rem = np / x;
        for y in 1..=rem {
            if !rem.is_multiple_of(y) {
                continue;
            }
            let z = rem / y;
            let score = x.max(y).max(z) - x.min(y).min(z);
            if score < best_score {
                best_score = score;
                best = (x, y, z);
            }
        }
    }
    best
}

/// The eight whole-execution metric names the parser extracts.
pub const SMG_METRICS: [&str; 8] = [
    "SMG Setup wall clock time",
    "SMG Setup cpu clock time",
    "SMG Solve wall clock time",
    "SMG Solve cpu clock time",
    "Iterations",
    "Final Relative Residual Norm",
    "Total wall clock time",
    "Solve MFLOPS",
];

/// PMAPI counter names emitted per process.
pub const PMAPI_COUNTERS: [&str; 8] = [
    "PM_CYC",
    "PM_INST_CMPL",
    "PM_FPU0_CMPL",
    "PM_FPU1_CMPL",
    "PM_LSU_LMQ_SRQ_EMPTY_CYC",
    "PM_LD_MISS_L1",
    "PM_ST_REF_L1",
    "PM_TLB_MISS",
];

/// Generate the SMG2000 stdout (one file; PMAPI appended when enabled).
pub fn generate(cfg: &SmgConfig) -> GenFile {
    let mut rng = rng_for(cfg.seed, &format!("smg:{}", cfg.exec_name));
    let mut out = String::with_capacity(8 * 1024);
    out.push_str("Running with these driver parameters:\n");
    out.push_str(&format!(
        "  (nx, ny, nz)    = ({}, {}, {})\n",
        cfg.nx, cfg.ny, cfg.nz
    ));
    out.push_str(&format!(
        "  (Px, Py, Pz)    = ({}, {}, {})\n",
        cfg.px, cfg.py, cfg.pz
    ));
    out.push_str("  (bx, by, bz)    = (1, 1, 1)\n");
    out.push_str("  (cx, cy, cz)    = (1.0, 1.0, 1.0)\n");
    out.push_str("  (n_pre, n_post) = (1, 1)\n");
    out.push_str("  dim             = 3\n");
    out.push_str("  solver ID       = 0\n");
    out.push_str("=============================================\n");

    // Work model: setup ~ volume, solve ~ volume * iterations, plus the
    // machine's noise factor.
    let volume = (cfg.nx * cfg.ny * cfg.nz) as f64;
    let setup_wall = jitter(&mut rng, volume / 28_000.0, cfg.noise);
    let setup_cpu = setup_wall * jitter(&mut rng, 0.97, 0.02);
    // Iteration count is a property of the problem, not of noise: fixed
    // for a given grid so run-to-run variation reflects the noise factor.
    let iterations = 6 + (volume as u64 % 3) as i32;
    let solve_wall = jitter(&mut rng, volume * iterations as f64 / 38_000.0, cfg.noise);
    let solve_cpu = solve_wall * jitter(&mut rng, 0.97, 0.02);
    let residual = 10f64.powf(-(rng.gen_range(6.0..8.0)));
    let mflops = jitter(&mut rng, 220.0 * cfg.np as f64, cfg.noise);

    out.push_str("SMG Setup:\n");
    out.push_str(&format!("  wall clock time = {setup_wall:.6} seconds\n"));
    out.push_str(&format!("  cpu clock time  = {setup_cpu:.6} seconds\n"));
    out.push_str("=============================================\n");
    out.push_str("SMG Solve:\n");
    out.push_str(&format!("  wall clock time = {solve_wall:.6} seconds\n"));
    out.push_str(&format!("  cpu clock time  = {solve_cpu:.6} seconds\n"));
    out.push_str("=============================================\n");
    out.push_str(&format!("Iterations = {iterations}\n"));
    out.push_str(&format!("Final Relative Residual Norm = {residual:.6e}\n"));
    out.push_str(&format!(
        "Total wall clock time = {:.6} seconds\n",
        setup_wall + solve_wall
    ));
    out.push_str(&format!("Solve MFLOPS = {mflops:.2}\n"));

    if cfg.with_pmapi {
        out.push_str("\n# PMAPI hardware counter data\n");
        for rank in 0..cfg.np {
            out.push_str(&format!("PMAPI process {rank}:\n"));
            for (i, counter) in PMAPI_COUNTERS.iter().take(cfg.pmapi_counters).enumerate() {
                let base = 1.0e9 * (8.0 - i as f64);
                out.push_str(&format!(
                    "  {counter:28}: {:.0}\n",
                    jitter(&mut rng, base, cfg.noise.max(0.05))
                ));
            }
        }
    }
    GenFile {
        name: format!("{}.out", cfg.exec_name),
        content: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_factors_multiply_back() {
        for np in [1, 2, 8, 16, 64, 128, 100] {
            let (x, y, z) = cube_factors(np);
            assert_eq!(x * y * z, np);
        }
        assert_eq!(cube_factors(64), (4, 4, 4));
    }

    #[test]
    fn bgl_output_is_bare_benchmark() {
        let f = generate(&SmgConfig::bgl("smg-bgl-001", 512, 3));
        assert!(f.content.contains("SMG Solve:"));
        assert!(!f.content.contains("PMAPI"), "BG/L preset has no PMAPI");
        // All eight extractable metrics present.
        for needle in [
            "wall clock time",
            "cpu clock time",
            "Iterations =",
            "Final Relative Residual Norm =",
            "Total wall clock time =",
            "Solve MFLOPS =",
        ] {
            assert!(f.content.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn uv_output_has_per_process_counters() {
        let cfg = SmgConfig::uv("smg-uv-001", 16, 5);
        let f = generate(&cfg);
        assert!(f.content.contains("PMAPI process 15:"));
        let counter_lines = f
            .content
            .lines()
            .filter(|l| l.trim_start().starts_with("PM_"))
            .count();
        assert_eq!(counter_lines, 16 * 8);
    }

    #[test]
    fn deterministic_and_noise_sensitive() {
        let a = generate(&SmgConfig::uv("e", 8, 11));
        let b = generate(&SmgConfig::uv("e", 8, 11));
        assert_eq!(a, b);
        // BG/L (quiet) runs vary less across seeds than UV (noisy) runs.
        let solve = |machine: fn(&str, usize, u64) -> SmgConfig, seed: u64| -> f64 {
            let f = generate(&machine("e", 8, seed));
            f.content
                .lines()
                .skip_while(|l| !l.starts_with("SMG Solve"))
                .find(|l| l.contains("wall clock"))
                .and_then(|l| l.split('=').nth(1))
                .and_then(|s| s.trim().strip_suffix(" seconds"))
                .unwrap()
                .parse()
                .unwrap()
        };
        let spread = |machine: fn(&str, usize, u64) -> SmgConfig| -> f64 {
            let vals: Vec<f64> = (0..20).map(|s| solve(machine, s)).collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(0.0f64, f64::max);
            (max - min) / min
        };
        assert!(
            spread(SmgConfig::bgl) < spread(SmgConfig::uv),
            "noise model must separate the platforms"
        );
    }
}
