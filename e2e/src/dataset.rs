//! Inputs: the `perftrack-workloads` presets converted to PTdf by the
//! adapters, as PTdfGen would. The engine only ever sees the generated
//! PTdf files or requests. The statements are kept beside the text so
//! that expected counts come from a brute-force pass over the inputs,
//! not from the engine under test.

use perftrack_adapters::{self as adapters, ExecContext, ParadynFiles};
use perftrack_ptdf::PtdfStatement;
use perftrack_workloads as wl;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One execution as a PTdf document.
pub struct ExecDoc {
    /// Execution name.
    pub name: String,
    pub statements: Vec<PtdfStatement>,
    /// The document `pt load` reads.
    pub text: String,
}

impl ExecDoc {
    fn new(name: &str, statements: Vec<PtdfStatement>) -> Self {
        ExecDoc {
            name: name.to_string(),
            text: perftrack_ptdf::to_string(&statements),
            statements,
        }
    }

    /// The execution's own resource, which every one of its results has
    /// in context (alone or through a process below it).
    pub fn run_resource(&self) -> String {
        format!("{}-run", self.name)
    }
}

/// As `perftrack_bench::bundle_to_ptdf`, which is not reused: that crate
/// is the legacy harness this benchmark is meant to outlive.
fn convert(bundle: &wl::ExecutionBundle) -> ExecDoc {
    let ctx = ExecContext::new(&bundle.exec_name, &bundle.application);
    let mut stmts = Vec::new();
    if bundle.application == "IRS" {
        let files: Vec<(String, String)> = bundle
            .files
            .iter()
            .map(|f| (f.name.clone(), f.content.clone()))
            .collect();
        stmts.extend(adapters::irs::convert(&ctx, &files).expect("generated IRS output converts"));
    } else {
        for f in &bundle.files {
            stmts.extend(if f.content.starts_with("@ mpiP") {
                adapters::mpip::convert(&ctx, &f.content).expect("generated mpiP report converts")
            } else {
                adapters::smg::convert(&ctx, &f.content).expect("generated SMG output converts")
            });
        }
    }
    ExecDoc::new(&bundle.exec_name, stmts)
}

/// `n` IRS executions of the Purple study (§4.1; the paper loaded 62).
pub fn irs(seed: u64, n: usize) -> Vec<ExecDoc> {
    wl::irs_purple(seed, n).iter().map(convert).collect()
}

/// `n` SMG2000 executions on UV with PMAPI and mpiP data (§4.2; 35).
pub fn smg_uv(seed: u64, n: usize) -> Vec<ExecDoc> {
    wl::smg_uv(seed, n).iter().map(convert).collect()
}

/// One SMG2000 execution on BG/L (eight whole-execution results) under
/// a caller-chosen name, so that every load op of `serve.irs_mixed` is a
/// fresh execution.
pub fn smg_bgl_named(exec_name: &str, seed: u64) -> ExecDoc {
    let np = 1024;
    let file = wl::smg::generate(&wl::smg::SmgConfig::bgl(exec_name, np, seed));
    convert(&wl::ExecutionBundle {
        exec_name: exec_name.to_string(),
        application: "SMG2000".into(),
        machine: "BGL".into(),
        np,
        files: vec![file],
    })
}

/// `n` Paradyn exports of IRS (§4.3): ~17k resources and ~25k results
/// each at paper scale.
pub fn paradyn(seed: u64, n: usize, small: bool) -> Vec<ExecDoc> {
    wl::paradyn_irs(seed, n, small)
        .iter()
        .map(|b| {
            let ctx = ExecContext::new(&b.exec_name, "IRS");
            let files = ParadynFiles {
                resources: b.export.resources.content.clone(),
                index: b.export.index.content.clone(),
                histograms: b
                    .export
                    .histograms
                    .iter()
                    .map(|f| (f.name.clone(), f.content.clone()))
                    .collect(),
                shg: Some(b.export.shg.content.clone()),
            };
            let stmts = adapters::paradyn::convert(&ctx, &files)
                .expect("generated Paradyn export converts");
            ExecDoc::new(&b.exec_name, stmts)
        })
        .collect()
}

/// Write one PTdf file per execution under `dir`, in order, and sync
/// each: the files are inputs on disk, and their writeback must not
/// compete with the measured window's fsyncs.
pub fn write_ptdf(dir: &Path, docs: &[ExecDoc]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    docs.iter()
        .map(|d| {
            let path = dir.join(format!("{}.ptdf", d.name));
            let mut file = std::fs::File::create(&path)?;
            file.write_all(d.text.as_bytes())?;
            file.sync_all()?;
            Ok(path)
        })
        .collect()
}

/// What a store must hold after loading `docs` into an empty one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    pub statements: usize,
    pub results: usize,
    pub resources: usize,
    pub ptdf_bytes: usize,
}

impl Expected {
    pub fn of(docs: &[ExecDoc]) -> Self {
        let mut names = BTreeSet::new();
        let mut e = Expected::default();
        for d in docs {
            e.statements += d.statements.len();
            e.ptdf_bytes += d.text.len();
            for s in &d.statements {
                match s {
                    PtdfStatement::PerfResult { .. } => e.results += 1,
                    PtdfStatement::Resource { name, .. } => {
                        names.insert(name.as_str());
                    }
                    _ => {}
                }
            }
        }
        e.resources = names.len();
        e
    }
}

/// Whether `resource`, or one of its ancestors, is named by the
/// shorthand `pattern` — membership in the family of a name filter with
/// relatives `D`, by the paper's rule and without the engine.
fn in_family(resource: &str, suffix: &str) -> bool {
    let mut end = resource.len();
    loop {
        if resource[..end].ends_with(suffix) {
            return true;
        }
        match resource[..end].rfind('/') {
            Some(i) if i > 0 => end = i,
            _ => return false,
        }
    }
}

/// Row count of a pr-filter of name patterns (relatives `D`) over
/// `docs`: the results whose context has, for every pattern, a resource
/// in that pattern's family.
pub fn oracle_rows(docs: &[ExecDoc], patterns: &[String]) -> usize {
    let suffixes: Vec<String> = patterns.iter().map(|p| format!("/{p}")).collect();
    docs.iter()
        .flat_map(|d| &d.statements)
        .filter(|s| match s {
            PtdfStatement::PerfResult { resource_sets, .. } => suffixes.iter().all(|suffix| {
                resource_sets
                    .iter()
                    .flat_map(|set| &set.resources)
                    .any(|r| in_family(r, suffix))
            }),
            _ => false,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_oracle_follows_ancestors() {
        let a = irs(11, 2);
        let b = irs(11, 2);
        assert_eq!(a[1].text, b[1].text);
        assert_ne!(irs(12, 1)[0].text, a[0].text);

        let e = Expected::of(&a);
        assert!(e.results > 2_000 && e.resources > 90);
        // Every result of an execution hangs below its run resource.
        let per_exec = oracle_rows(&a, &[a[0].run_resource()]);
        let both: usize = oracle_rows(&a, &["IRS".to_string()]);
        assert_eq!(both, e.results);
        assert!(per_exec > 1_000 && per_exec < both);
        let narrow = oracle_rows(&a, &[a[0].run_resource(), "rmatmult3".to_string()]);
        assert!(narrow > 0 && narrow <= 20);
        assert!(in_family("/a/b/c", "/b"));
        assert!(!in_family("/a/bb/c", "/b"));
    }

    #[test]
    fn bgl_execution_has_eight_results() {
        let d = smg_bgl_named("smg-bgl-x", 3);
        assert_eq!(Expected::of(std::slice::from_ref(&d)).results, 8);
    }
}
