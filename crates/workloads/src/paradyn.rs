//! Synthetic Paradyn export files (§4.3): a resources file, an index
//! file, and histogram files — one per metric-focus pair, with `nan`
//! entries for bins recorded before dynamic instrumentation was inserted.
//!
//! Because Paradyn inserts instrumentation at different moments in each
//! run, the number of resources, histograms, and non-nan bins varies
//! between executions with the same configuration — the behaviour §4.3
//! reports for its three IRS executions.

use crate::common::{jitter, rng_for, GenFile};

/// Configuration of one Paradyn export.
#[derive(Debug, Clone)]
pub struct ParadynConfig {
    pub exec_name: String,
    /// Machine nodes the run used.
    pub nodes: usize,
    /// Processes per node.
    pub procs_per_node: usize,
    /// Source modules in the Code hierarchy.
    pub modules: usize,
    /// Functions per module.
    pub functions_per_module: usize,
    /// Histogram (metric-focus pair) count.
    pub histograms: usize,
    /// Bins per histogram.
    pub bins: usize,
    pub seed: u64,
}

impl ParadynConfig {
    /// Shaped like the paper's IRS/MCR exports: ~17k resources,
    /// 8 metrics, ~25k performance results per execution.
    pub fn paper_scale(exec_name: &str, seed: u64) -> Self {
        ParadynConfig {
            exec_name: exec_name.to_string(),
            nodes: 16,
            procs_per_node: 2,
            modules: 200,
            functions_per_module: 80,
            histograms: 280,
            bins: 100,
            seed,
        }
    }

    /// A small config for unit tests.
    pub fn small(exec_name: &str, seed: u64) -> Self {
        ParadynConfig {
            exec_name: exec_name.to_string(),
            nodes: 2,
            procs_per_node: 2,
            modules: 3,
            functions_per_module: 4,
            histograms: 6,
            bins: 20,
            seed,
        }
    }
}

/// The eight Paradyn metrics exported.
pub const PARADYN_METRICS: [&str; 8] = [
    "cpu",
    "cpu_inclusive",
    "exec_time",
    "sync_wait",
    "msg_bytes_sent",
    "msg_bytes_recv",
    "io_wait",
    "procedure_calls",
];

/// A complete Paradyn export: resources, index, histograms, and the
/// Performance Consultant's search history graph.
#[derive(Debug, Clone)]
pub struct ParadynExport {
    pub resources: GenFile,
    pub index: GenFile,
    pub histograms: Vec<GenFile>,
    /// The search history graph exported from the Performance Consultant.
    pub shg: GenFile,
}

impl ParadynExport {
    /// All files, flattened.
    pub fn all_files(&self) -> Vec<GenFile> {
        let mut v = vec![self.resources.clone(), self.index.clone(), self.shg.clone()];
        v.extend(self.histograms.iter().cloned());
        v
    }
}

/// Hypotheses the Performance Consultant tests.
pub const PC_HYPOTHESES: [&str; 4] = [
    "TopLevelHypothesis",
    "CPUbound",
    "ExcessiveSyncWaitingTime",
    "ExcessiveIOBlockingTime",
];

/// Generate one export.
pub fn generate(cfg: &ParadynConfig) -> ParadynExport {
    let mut rng = rng_for(cfg.seed, &format!("paradyn:{}", cfg.exec_name));

    // --- resources file -----------------------------------------------------
    let mut resources = String::with_capacity(256 * 1024);
    let mut code_foci: Vec<String> = Vec::new();
    let mut machine_foci: Vec<String> = Vec::new();
    resources.push_str("/Code\n");
    for m in 0..cfg.modules {
        let module = format!("irs_mod_{m:02}.c");
        resources.push_str(&format!("/Code/{module}\n"));
        for f in 0..cfg.functions_per_module {
            let func = format!("func_{m:02}_{f:02}");
            resources.push_str(&format!("/Code/{module}/{func}\n"));
            code_foci.push(format!("/Code/{module}/{func}"));
        }
    }
    resources.push_str("/Machine\n");
    for n in 0..cfg.nodes {
        let node = format!("mcr{:03}", 100 + n);
        resources.push_str(&format!("/Machine/{node}\n"));
        for p in 0..cfg.procs_per_node {
            // Paradyn names processes by pid; vary per execution.
            let pid = 1000 + rng.gen_range(0..9000);
            let proc_path = format!("/Machine/{node}/irs{{{pid}}}_{p}");
            resources.push_str(&format!("{proc_path}\n"));
            resources.push_str(&format!("{proc_path}/thr_1\n"));
            machine_foci.push(proc_path);
        }
    }
    resources.push_str("/SyncObject\n");
    resources.push_str("/SyncObject/Message\n");
    for comm in ["MPI_COMM_WORLD", "MPI_COMM_SELF"] {
        resources.push_str(&format!("/SyncObject/Message/{comm}\n"));
    }
    resources.push_str("/SyncObject/Window\n");

    // --- histograms + index ---------------------------------------------------
    let mut index = String::new();
    index.push_str("# histogram_file metric focus\n");
    let mut histograms = Vec::with_capacity(cfg.histograms);
    // Paradyn histogram bins are global time slices: every histogram in
    // one export shares the same bin width (so PerfTrack can share bin
    // resources under the global phase, as §4.3 describes).
    let bin_width = jitter(&mut rng, 0.2, 0.1);
    for h in 0..cfg.histograms {
        let metric = PARADYN_METRICS[h % PARADYN_METRICS.len()];
        // Focus: a code resource, sometimes refined by a process.
        let code = &code_foci[rng.gen_range(0..code_foci.len())];
        let focus = if rng.gen_bool(0.5) {
            let m = &machine_foci[rng.gen_range(0..machine_foci.len())];
            format!("{code},{m}")
        } else {
            code.clone()
        };
        let file_name = format!("{}_hist_{h:04}.hist", cfg.exec_name);
        index.push_str(&format!("{file_name} {metric} {focus}\n"));

        let mut hist = String::with_capacity(cfg.bins * 10 + 200);
        hist.push_str("# Paradyn histogram export\n");
        hist.push_str(&format!("metric: {metric}\n"));
        hist.push_str(&format!("focus: {focus}\n"));
        hist.push_str(&format!("numBins: {}\n", cfg.bins));
        hist.push_str(&format!("binWidth: {bin_width:.4}\n"));
        hist.push_str("startTime: 0.0\n");
        hist.push_str("values:\n");
        // Dynamic instrumentation starts at a random bin; everything
        // before is nan. The insertion point varies per histogram and per
        // execution.
        let start = rng.gen_range(0..cfg.bins / 2);
        let base = jitter(&mut rng, 0.1, 0.8);
        for b in 0..cfg.bins {
            if b < start {
                hist.push_str("nan\n");
            } else {
                hist.push_str(&format!("{:.6}\n", jitter(&mut rng, base, 0.3)));
            }
        }
        histograms.push(GenFile {
            name: file_name,
            content: hist,
        });
    }

    // --- search history graph -------------------------------------------------
    // The Performance Consultant starts at the top-level hypothesis and
    // refines true nodes by hypothesis and by focus. Node lines:
    //   node <id> <parent|root> <hypothesis> <focus> <true|false|unknown>
    let mut shg = String::new();
    shg.push_str("# Paradyn search history graph export\n");
    shg.push_str("node 0 root TopLevelHypothesis /Code true\n");
    let mut next_id = 1u32;
    let mut frontier: Vec<(u32, usize)> = vec![(0, 0)]; // (node id, depth)
    while let Some((parent, depth)) = frontier.pop() {
        if depth >= 3 || next_id > 40 {
            continue;
        }
        let children = rng.gen_range(1..4);
        for _ in 0..children {
            let hypo = PC_HYPOTHESES[1 + rng.gen_range(0..3)];
            // Deeper refinements narrow the focus.
            let focus = match depth {
                0 => "/Code".to_string(),
                1 => code_foci[rng.gen_range(0..code_foci.len())].clone(),
                _ => format!(
                    "{},{}",
                    code_foci[rng.gen_range(0..code_foci.len())],
                    machine_foci[rng.gen_range(0..machine_foci.len())]
                ),
            };
            let state = match rng.gen_range(0..10) {
                0..=3 => "true",
                4..=8 => "false",
                _ => "unknown",
            };
            shg.push_str(&format!("node {next_id} {parent} {hypo} {focus} {state}\n"));
            if state == "true" {
                frontier.push((next_id, depth + 1));
            }
            next_id += 1;
        }
    }

    ParadynExport {
        resources: GenFile {
            name: format!("{}.resources", cfg.exec_name),
            content: resources,
        },
        index: GenFile {
            name: format!("{}.index", cfg.exec_name),
            content: index,
        },
        histograms,
        shg: GenFile {
            name: format!("{}.shg", cfg.exec_name),
            content: shg,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_structure() {
        let e = generate(&ParadynConfig::small("irs-p1", 3));
        assert!(e
            .resources
            .content
            .contains("/Code/irs_mod_00.c/func_00_00"));
        assert!(e
            .resources
            .content
            .contains("/SyncObject/Message/MPI_COMM_WORLD"));
        assert_eq!(e.histograms.len(), 6);
        assert_eq!(e.index.content.lines().count(), 7); // header + 6
        for h in &e.histograms {
            assert!(h.content.contains("numBins: 20"));
            assert_eq!(
                h.content
                    .lines()
                    .skip_while(|l| *l != "values:")
                    .skip(1)
                    .count(),
                20
            );
        }
    }

    #[test]
    fn nan_prefix_models_late_instrumentation() {
        let e = generate(&ParadynConfig::small("irs-p1", 5));
        let mut any_nan = false;
        for h in &e.histograms {
            let values: Vec<&str> = h
                .content
                .lines()
                .skip_while(|l| *l != "values:")
                .skip(1)
                .collect();
            // nans form a (possibly empty) prefix only.
            let first_real = values
                .iter()
                .position(|v| *v != "nan")
                .unwrap_or(values.len());
            assert!(values[first_real..].iter().all(|v| *v != "nan"));
            any_nan |= first_real > 0;
        }
        assert!(any_nan, "some histograms start with nan bins");
    }

    #[test]
    fn executions_vary_in_resource_and_bin_counts() {
        // §4.3: counts differ across executions because instrumentation
        // timing and pids differ.
        let a = generate(&ParadynConfig::small("irs-p1", 1));
        let b = generate(&ParadynConfig::small("irs-p2", 2));
        assert_ne!(a.resources.content, b.resources.content);
        let nan_count = |e: &ParadynExport| {
            e.histograms
                .iter()
                .flat_map(|h| h.content.lines())
                .filter(|l| *l == "nan")
                .count()
        };
        assert_ne!(nan_count(&a), nan_count(&b));
    }

    #[test]
    fn shg_structure_is_a_rooted_tree_of_known_hypotheses() {
        let e = generate(&ParadynConfig::small("irs-p1", 9));
        let mut ids = std::collections::HashSet::new();
        for line in e.shg.content.lines().filter(|l| l.starts_with("node")) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 6, "bad shg line {line}");
            let id: u32 = parts[1].parse().unwrap();
            if parts[2] != "root" {
                let parent: u32 = parts[2].parse().unwrap();
                assert!(ids.contains(&parent), "parent before child");
            }
            assert!(PC_HYPOTHESES.contains(&parts[3]), "{}", parts[3]);
            assert!(["true", "false", "unknown"].contains(&parts[5]));
            ids.insert(id);
        }
        assert!(ids.len() > 1, "search refined beyond the root");
    }

    #[test]
    fn paper_scale_resource_count() {
        let e = generate(&ParadynConfig::paper_scale("irs-big", 7));
        let n = e.resources.content.lines().count();
        // modules*functions + modules + machine nodes*procs*2 + fixed ≈
        // 200*80 + 200 + 16*2*2 ≈ 16.4k — the paper's ~17k per execution.
        assert!(n > 16_000 && n < 18_000, "got {n}");
        assert_eq!(e.histograms.len(), 280);
    }
}
