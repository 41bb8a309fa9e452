//! Synthetic mpiP profile reports (the paper's Figure 8).
//!
//! mpiP breaks MPI time down by callsite — an (MPI function, calling
//! function, source location) triple — and reports per-rank and aggregate
//! statistics. The caller/callee pairs in this data are what drove the
//! paper's §4.2 extension to multiple resource sets per performance
//! result.

use crate::common::{jitter, rng_for, GenFile};

/// Configuration of a synthetic mpiP report.
#[derive(Debug, Clone)]
pub struct MpipConfig {
    pub exec_name: String,
    pub np: usize,
    /// Number of distinct callsites.
    pub callsites: usize,
    /// Ranks reported per callsite (mpiP reports all, but the `*`
    /// aggregate plus a subset keeps files realistic at scale).
    pub ranks_per_callsite: usize,
    pub seed: u64,
}

impl MpipConfig {
    /// A paper-shaped config.
    pub fn new(exec_name: &str, np: usize, seed: u64) -> Self {
        MpipConfig {
            exec_name: exec_name.to_string(),
            np,
            callsites: 30,
            ranks_per_callsite: np.min(48),
            seed,
        }
    }
}

/// MPI functions that appear in callsites.
pub const MPI_CALLS: [&str; 10] = [
    "Waitall",
    "Isend",
    "Irecv",
    "Allreduce",
    "Barrier",
    "Bcast",
    "Reduce",
    "Wait",
    "Send",
    "Recv",
];

/// SMG-ish caller functions.
pub const CALLERS: [&str; 8] = [
    "hypre_SMGSolve",
    "hypre_SMGRelax",
    "hypre_SMGResidual",
    "hypre_StructInnerProd",
    "hypre_SemiRestrict",
    "hypre_SemiInterp",
    "hypre_StructMatvec",
    "main",
];

/// Source files for callsites.
const FILES: [&str; 6] = [
    "smg_solve.c",
    "smg_relax.c",
    "smg_residual.c",
    "struct_innerprod.c",
    "semi_restrict.c",
    "struct_matvec.c",
];

/// Generate one mpiP report file.
pub fn generate(cfg: &MpipConfig) -> GenFile {
    let mut rng = rng_for(cfg.seed, &format!("mpip:{}", cfg.exec_name));
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("@ mpiP\n");
    out.push_str(&format!(
        "@ Command : ./smg2000 -n 40 40 40 ({})\n",
        cfg.exec_name
    ));
    out.push_str("@ Version : 2.8.2\n");
    out.push_str(&format!("@ MPI Task Assignment : {} tasks\n", cfg.np));
    out.push('\n');

    // Per-task app/MPI time.
    let app_time_per_task = jitter(&mut rng, 30.0, 0.1);
    let mpi_fraction = rng.gen_range(0.12..0.30);
    out.push_str("@--- MPI Time (seconds) ---\n");
    out.push_str("Task    AppTime    MPITime     MPI%\n");
    let mut total_app = 0.0;
    let mut total_mpi = 0.0;
    for task in 0..cfg.np.min(cfg.ranks_per_callsite) {
        let app = jitter(&mut rng, app_time_per_task, 0.05);
        let mpi = app * jitter(&mut rng, mpi_fraction, 0.2);
        total_app += app;
        total_mpi += mpi;
        out.push_str(&format!(
            "{task:>4} {app:>10.4} {mpi:>10.4} {:>8.2}\n",
            100.0 * mpi / app
        ));
    }
    out.push_str(&format!(
        "   * {total_app:>10.4} {total_mpi:>10.4} {:>8.2}\n\n",
        100.0 * total_mpi / total_app
    ));

    // Callsite table: id → (file, line, caller, MPI call).
    out.push_str(&format!("@--- Callsites: {} ---\n", cfg.callsites));
    out.push_str(" ID Lev File/Address        Line Parent_Funct             MPI_Call\n");
    let mut sites = Vec::with_capacity(cfg.callsites);
    for id in 1..=cfg.callsites {
        let file = FILES[rng.gen_range(0..FILES.len())];
        let line = rng.gen_range(40..900);
        let caller = CALLERS[rng.gen_range(0..CALLERS.len())];
        let call = MPI_CALLS[rng.gen_range(0..MPI_CALLS.len())];
        out.push_str(&format!(
            "{id:>3}   0 {file:<18} {line:>4} {caller:<24} {call}\n"
        ));
        sites.push((id, file, line, caller, call));
    }
    out.push('\n');

    // Callsite time statistics: per rank plus the `*` aggregate.
    out.push_str(&format!(
        "@--- Callsite Time statistics (all, milliseconds): {} ---\n",
        cfg.callsites * (cfg.ranks_per_callsite + 1)
    ));
    out.push_str("Name              Site Rank  Count      Max     Mean      Min\n");
    for (id, _, _, _, call) in &sites {
        let mean = jitter(&mut rng, 5.0, 0.9);
        let mut agg_count = 0u64;
        for r in 0..cfg.ranks_per_callsite {
            let count = rng.gen_range(100..20_000);
            agg_count += count;
            let m = jitter(&mut rng, mean, 0.3);
            out.push_str(&format!(
                "{call:<16} {id:>4} {r:>4} {count:>6} {:>8.3} {m:>8.3} {:>8.4}\n",
                m * jitter(&mut rng, 4.0, 0.5),
                m * jitter(&mut rng, 0.1, 0.5)
            ));
        }
        out.push_str(&format!(
            "{call:<16} {id:>4}    * {agg_count:>6} {:>8.3} {mean:>8.3} {:>8.4}\n",
            mean * 5.0,
            mean * 0.05
        ));
    }
    // Aggregate sent message sizes for the point-to-point/collective
    // sends among the callsites.
    out.push('\n');
    out.push_str("@--- Aggregate Sent Message Size (top twenty, descending, bytes) ---\n");
    out.push_str("Call                 Site      Count      Total       Avrg  Sent%\n");
    let senders: Vec<_> = sites
        .iter()
        .filter(|(_, _, _, _, call)| {
            ["Isend", "Send", "Bcast", "Allreduce", "Reduce"].contains(call)
        })
        .take(20)
        .collect();
    for (id, _, _, _, call) in &senders {
        let count = rng.gen_range(1_000..500_000) as f64;
        let avg = jitter(&mut rng, 8.0e3, 0.9);
        out.push_str(&format!(
            "{call:<16} {id:>8} {count:>10.0} {:>10.3e} {avg:>10.3e} {:>6.2}\n",
            count * avg,
            jitter(&mut rng, 100.0 / senders.len().max(1) as f64, 0.5)
        ));
    }
    GenFile {
        name: format!("{}.mpiP", cfg.exec_name),
        content: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_structure() {
        let f = generate(&MpipConfig::new("smg-uv-007", 32, 9));
        let rpc = 32; // ranks_per_callsite = min(np, 48)
        assert!(f.content.starts_with("@ mpiP"));
        assert!(f.content.contains("@--- MPI Time (seconds) ---"));
        assert!(f.content.contains("@--- Callsites: 30 ---"));
        assert!(f.content.contains("@--- Callsite Time statistics"));
        // 30 callsites × (ranks + aggregate).
        let stat_lines = f
            .content
            .lines()
            .skip_while(|l| !l.starts_with("@--- Callsite Time"))
            .skip(2)
            .take_while(|l| !l.is_empty())
            .count();
        assert_eq!(stat_lines, 30 * (rpc + 1));
    }

    #[test]
    fn message_size_section_present_when_senders_exist() {
        // With 30 random callsites, send-ish calls are essentially certain.
        let f = generate(&MpipConfig::new("e", 16, 4));
        assert!(f.content.contains("@--- Aggregate Sent Message Size"));
        let rows = f
            .content
            .lines()
            .skip_while(|l| !l.starts_with("@--- Aggregate Sent"))
            .skip(2)
            .take_while(|l| !l.is_empty())
            .count();
        assert!(rows > 0);
    }

    #[test]
    fn deterministic() {
        let a = generate(&MpipConfig::new("e", 8, 1));
        let b = generate(&MpipConfig::new("e", 8, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn callsite_ids_are_consistent_between_tables() {
        let f = generate(&MpipConfig::new("e", 8, 2));
        // Every site id in the stats table appears in the callsite table.
        let mut site_ids = std::collections::HashSet::new();
        let mut in_sites = false;
        for l in f.content.lines() {
            if l.starts_with("@--- Callsites") {
                in_sites = true;
                continue;
            }
            if in_sites {
                if l.is_empty() {
                    break;
                }
                if let Some(id) = l
                    .split_whitespace()
                    .next()
                    .and_then(|t| t.parse::<u32>().ok())
                {
                    site_ids.insert(id);
                }
            }
        }
        assert_eq!(site_ids.len(), 30);
        let mut in_stats = false;
        for l in f.content.lines() {
            if l.starts_with("@--- Callsite Time") {
                in_stats = true;
                continue;
            }
            if in_stats {
                if l.is_empty() {
                    break; // end of the stats table
                }
                if l.starts_with("Name") {
                    continue;
                }
                let id: u32 = l.split_whitespace().nth(1).unwrap().parse().unwrap();
                assert!(site_ids.contains(&id), "unknown site {id}");
            }
        }
    }
}
