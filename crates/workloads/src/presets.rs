//! Dataset presets shaped like the paper's Table 1 and §4.3 study data.

use crate::common::GenFile;
use crate::irs::{generate as irs_generate, IrsConfig};
use crate::mpip::{generate as mpip_generate, MpipConfig};
use crate::paradyn::{generate as paradyn_generate, ParadynConfig, ParadynExport};
use crate::smg::{generate as smg_generate, SmgConfig};

/// One execution's raw tool output plus the metadata adapters need.
#[derive(Debug, Clone)]
pub struct ExecutionBundle {
    pub exec_name: String,
    pub application: String,
    pub machine: String,
    pub np: usize,
    pub files: Vec<GenFile>,
}

/// The IRS Purple-benchmark study (§4.1): runs on MCR (Linux) and Frost
/// (AIX) across process counts. `execs` executions (the paper loaded 62).
pub fn irs_purple(seed: u64, execs: usize) -> Vec<ExecutionBundle> {
    let machines = ["MCR", "Frost"];
    let nps = [8usize, 16, 32, 64];
    (0..execs)
        .map(|i| {
            let machine = machines[i % machines.len()];
            let np = nps[(i / machines.len()) % nps.len()];
            let exec_name = format!("irs-{}-{i:04}", machine.to_lowercase());
            let mut cfg = IrsConfig::new(&exec_name, machine, np, seed.wrapping_add(i as u64));
            // A few hybrid MPI+OpenMP runs, as the benchmark supports.
            if i % 7 == 3 {
                cfg.threads = 4;
            }
            ExecutionBundle {
                exec_name,
                application: "IRS".into(),
                machine: machine.into(),
                np,
                files: irs_generate(&cfg),
            }
        })
        .collect()
}

/// The SMG2000 noise study on UV (§4.2): per execution, the benchmark
/// stdout with PMAPI data plus an mpiP report (2 files). The paper loaded
/// 35 executions.
pub fn smg_uv(seed: u64, execs: usize) -> Vec<ExecutionBundle> {
    (0..execs)
        .map(|i| {
            let exec_name = format!("smg-uv-{i:04}");
            let np = 128;
            let smg = smg_generate(&SmgConfig::uv(&exec_name, np, seed.wrapping_add(i as u64)));
            let mpip = mpip_generate(&MpipConfig::new(
                &exec_name,
                np,
                seed.wrapping_add(i as u64),
            ));
            ExecutionBundle {
                exec_name,
                application: "SMG2000".into(),
                machine: "UV".into(),
                np,
                files: vec![smg, mpip],
            }
        })
        .collect()
}

/// The SMG2000 noise study on BG/L (§4.2): bare benchmark output, one
/// file, eight whole-execution values. The paper loaded 60 executions.
pub fn smg_bgl(seed: u64, execs: usize) -> Vec<ExecutionBundle> {
    (0..execs)
        .map(|i| {
            let exec_name = format!("smg-bgl-{i:04}");
            let np = 1024;
            let smg = smg_generate(&SmgConfig::bgl(&exec_name, np, seed.wrapping_add(i as u64)));
            ExecutionBundle {
                exec_name,
                application: "SMG2000".into(),
                machine: "BGL".into(),
                np,
                files: vec![smg],
            }
        })
        .collect()
}

/// A Paradyn export bundle (§4.3): three IRS executions on MCR at paper
/// scale (~17k resources, ~25k results each) unless `small` is set.
#[derive(Debug, Clone)]
pub struct ParadynBundle {
    pub exec_name: String,
    pub export: ParadynExport,
}

/// The §4.3 Paradyn study.
pub fn paradyn_irs(seed: u64, execs: usize, small: bool) -> Vec<ParadynBundle> {
    (0..execs)
        .map(|i| {
            let exec_name = format!("irs-paradyn-{i:02}");
            let cfg = if small {
                ParadynConfig::small(&exec_name, seed.wrapping_add(i as u64))
            } else {
                ParadynConfig::paper_scale(&exec_name, seed.wrapping_add(i as u64))
            };
            ParadynBundle {
                exec_name,
                export: paradyn_generate(&cfg),
            }
        })
        .collect()
}

/// The IRS study runs a sweep over process counts for the Figure 5
/// load-balance chart: one execution per process count on one machine,
/// all of one code (function weights keyed by `seed`, run noise by
/// `seed + np`).
pub fn irs_scaling_sweep(seed: u64, machine: &str, nps: &[usize]) -> Vec<ExecutionBundle> {
    nps.iter()
        .map(|&np| {
            let exec_name = format!("irs-{}-np{np:03}", machine.to_lowercase());
            let mut cfg = IrsConfig::new(&exec_name, machine, np, seed.wrapping_add(np as u64));
            // One code across the sweep: only the run noise varies with np.
            cfg.code_seed = Some(seed);
            ExecutionBundle {
                exec_name,
                application: "IRS".into(),
                machine: machine.into(),
                np,
                files: irs_generate(&cfg),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::total_bytes;

    #[test]
    fn irs_preset_shape() {
        let execs = irs_purple(1, 8);
        assert_eq!(execs.len(), 8);
        assert!(execs.iter().any(|e| e.machine == "MCR"));
        assert!(execs.iter().any(|e| e.machine == "Frost"));
        for e in &execs {
            assert_eq!(e.files.len(), 6, "the paper's 6 files per IRS execution");
            // Table 1: ~61 KB raw data per execution.
            let bytes = total_bytes(&e.files);
            assert!(bytes > 20_000 && bytes < 120_000, "bytes {bytes}");
        }
        // Unique execution names.
        let names: std::collections::HashSet<_> = execs.iter().map(|e| &e.exec_name).collect();
        assert_eq!(names.len(), execs.len());
    }

    #[test]
    fn smg_presets_shape() {
        let uv = smg_uv(1, 3);
        for e in &uv {
            assert_eq!(e.files.len(), 2, "stdout + mpiP");
            assert!(e.files[0].content.contains("PMAPI"));
            assert!(e.files[1].content.starts_with("@ mpiP"));
        }
        let bgl = smg_bgl(1, 3);
        for e in &bgl {
            assert_eq!(e.files.len(), 1);
            assert!(!e.files[0].content.contains("PMAPI"));
            // Table 1: ~1 KB raw per BG/L execution.
            assert!(e.files[0].content.len() < 3_000);
        }
    }

    #[test]
    fn paradyn_preset_small() {
        let bundles = paradyn_irs(1, 3, true);
        assert_eq!(bundles.len(), 3);
        // Executions differ (pids, instrumentation timing).
        assert_ne!(
            bundles[0].export.resources.content,
            bundles[1].export.resources.content
        );
    }

    #[test]
    fn scaling_sweep_covers_each_np() {
        let sweep = irs_scaling_sweep(1, "MCR", &[8, 16, 32, 64]);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[2].np, 32);
        assert!(sweep[0].exec_name.contains("np008"));
    }

    #[test]
    fn scaling_sweep_runs_share_one_code() {
        // Serial functions do not speed up with np, so within one code
        // their per-process CPU time differs across the sweep only by the
        // run's ±5 % jitter, never by a redrawn weight.
        let sweep = irs_scaling_sweep(3, "MCR", &[8, 64, 256]);
        for function in ["TimeStepControl", "WriteDump", "ReadInput"] {
            let averages: Vec<f64> = sweep
                .iter()
                .filter_map(|run| {
                    let timing = run.files.iter().find(|f| f.name.ends_with("timing.dat"))?;
                    let line = timing
                        .content
                        .lines()
                        .find(|l| l.starts_with(&format!("{function} CPU_time ")))?;
                    line.split_whitespace().nth(3)?.parse().ok()
                })
                .collect();
            assert!(averages.len() >= 2, "{function}: {averages:?}");
            let lo = averages.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = averages.iter().copied().fold(0.0, f64::max);
            assert!(
                hi / lo < 1.11,
                "{function} varies across one code: {averages:?}"
            );
        }
    }
}
