//! PTrun: automatic capture of runtime environment information (§3.3).
//!
//! The run script records environment variables, process/thread counts,
//! runtime (dynamic) libraries, and the input deck name and timestamp,
//! emitting `environment` and `execution` hierarchy resources plus
//! `inputDeck` and `submission` resources with attributes.

use perftrack_ptdf::{AttrType, PtdfStatement};

/// One dynamic library observed at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeLib {
    pub name: String,
    pub version: String,
    /// `MPI`, `thread`, `math`, ... (the paper's library-type attribute).
    pub kind: String,
    pub size_bytes: u64,
    pub timestamp: String,
}

/// Everything PTrun captures for one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    pub exec_name: String,
    pub application: String,
    pub processes: usize,
    pub threads_per_process: usize,
    pub environment: Vec<(String, String)>,
    pub libraries: Vec<RuntimeLib>,
    pub input_deck: String,
    pub input_deck_timestamp: String,
    /// Batch submission identifier (e.g. LCRM/SLURM job id).
    pub submission_id: String,
}

impl RunInfo {
    /// A typical MPI run description used by the simulated studies.
    pub fn simulated(exec_name: &str, application: &str, np: usize) -> Self {
        RunInfo {
            exec_name: exec_name.to_string(),
            application: application.to_string(),
            processes: np,
            threads_per_process: 1,
            environment: vec![
                ("MP_PROCS".into(), np.to_string()),
                ("OMP_NUM_THREADS".into(), "1".into()),
                ("LD_LIBRARY_PATH".into(), "/usr/lib:/opt/mpi/lib".into()),
            ],
            libraries: vec![
                RuntimeLib {
                    name: "libmpi.so".into(),
                    version: "7.0.1".into(),
                    kind: "MPI".into(),
                    size_bytes: 2_345_678,
                    timestamp: "2005-03-14T09:26:53".into(),
                },
                RuntimeLib {
                    name: "libpthread.so".into(),
                    version: "2.3".into(),
                    kind: "thread".into(),
                    size_bytes: 123_456,
                    timestamp: "2004-11-02T12:00:00".into(),
                },
                RuntimeLib {
                    name: "libm.so".into(),
                    version: "2.3".into(),
                    kind: "math".into(),
                    size_bytes: 654_321,
                    timestamp: "2004-11-02T12:00:00".into(),
                },
            ],
            input_deck: format!("zrad.{np}"),
            input_deck_timestamp: "2005-06-01T08:00:00".into(),
            submission_id: format!("job-{:06}", 37_000 + np),
        }
    }

    /// Capture the *actual* current process environment (selected
    /// variables) — the real-capture path.
    pub fn from_current_env(exec_name: &str, application: &str, np: usize) -> Self {
        let mut info = Self::simulated(exec_name, application, np);
        info.environment = std::env::vars()
            .filter(|(k, _)| {
                ["PATH", "HOME", "USER", "SHELL", "LANG", "HOSTNAME"].contains(&k.as_str())
            })
            .collect();
        info.environment.sort();
        info
    }
}

/// Convert run info to PTdf: execution/process resources, an environment
/// hierarchy with one module per runtime library, inputDeck and
/// submission resources, and attributes for everything else.
pub fn to_ptdf(info: &RunInfo) -> Vec<PtdfStatement> {
    let mut out = Vec::new();
    out.push(PtdfStatement::Application {
        name: info.application.clone(),
    });
    out.push(PtdfStatement::Execution {
        name: info.exec_name.clone(),
        application: info.application.clone(),
    });
    let attr = |resource: &str, name: &str, value: &str| PtdfStatement::ResourceAttribute {
        resource: resource.to_string(),
        attribute: name.to_string(),
        value: value.to_string(),
        attr_type: AttrType::String,
    };
    // Execution hierarchy: the run, its processes, their threads.
    let run = format!("/{}", info.exec_name);
    out.push(PtdfStatement::Resource {
        name: run.clone(),
        type_path: "execution".into(),
        execution: Some(info.exec_name.clone()),
    });
    out.push(attr(&run, "processes", &info.processes.to_string()));
    out.push(attr(
        &run,
        "threads per process",
        &info.threads_per_process.to_string(),
    ));
    for (k, v) in &info.environment {
        out.push(attr(&run, &format!("env:{k}"), v));
    }
    for p in 0..info.processes {
        let proc = format!("{run}/process{p}");
        out.push(PtdfStatement::Resource {
            name: proc.clone(),
            type_path: "execution/process".into(),
            execution: Some(info.exec_name.clone()),
        });
        for t in 0..info.threads_per_process.max(1) {
            if info.threads_per_process > 1 {
                out.push(PtdfStatement::Resource {
                    name: format!("{proc}/thread{t}"),
                    type_path: "execution/process/thread".into(),
                    execution: Some(info.exec_name.clone()),
                });
            }
        }
    }
    // Environment hierarchy: runtime libraries as modules.
    let env = format!("/{}-env", info.exec_name);
    out.push(PtdfStatement::Resource {
        name: env.clone(),
        type_path: "environment".into(),
        execution: Some(info.exec_name.clone()),
    });
    for lib in &info.libraries {
        let module = format!("{env}/{}", lib.name);
        out.push(PtdfStatement::Resource {
            name: module.clone(),
            type_path: "environment/module".into(),
            execution: Some(info.exec_name.clone()),
        });
        out.push(attr(&module, "version", &lib.version));
        out.push(attr(&module, "type", &lib.kind));
        out.push(attr(&module, "size", &lib.size_bytes.to_string()));
        out.push(attr(&module, "timestamp", &lib.timestamp));
    }
    // Input deck and submission.
    let deck = format!("/{}", info.input_deck);
    out.push(PtdfStatement::Resource {
        name: deck.clone(),
        type_path: "inputDeck".into(),
        execution: None,
    });
    out.push(attr(&deck, "timestamp", &info.input_deck_timestamp));
    let sub = format!("/{}", info.submission_id);
    out.push(PtdfStatement::Resource {
        name: sub,
        type_path: "submission".into(),
        execution: Some(info.exec_name.clone()),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_run_info_shape() {
        let info = RunInfo::simulated("irs-0001", "IRS", 8);
        assert_eq!(info.processes, 8);
        assert_eq!(info.libraries.len(), 3);
        assert!(info.libraries.iter().any(|l| l.kind == "MPI"));
        assert_eq!(info.input_deck, "zrad.8");
    }

    #[test]
    fn ptdf_loads_and_describes_the_run() {
        use perftrack::PTDataStore;
        let info = RunInfo::simulated("irs-0001", "IRS", 4);
        let store = PTDataStore::in_memory().unwrap();
        let stats = store.load_statements(&to_ptdf(&info)).unwrap();
        assert_eq!(stats.executions, 1);
        // run + 4 processes + env + 3 libs + deck + submission = 11.
        assert_eq!(stats.resources, 11);
        let run = store.resource_by_name("/irs-0001").unwrap().unwrap();
        let attrs = store.attributes_of(run.id).unwrap();
        assert!(attrs.iter().any(|(n, v, _)| n == "processes" && v == "4"));
        assert!(attrs.iter().any(|(n, _, _)| n.starts_with("env:")));
        let lib = store
            .resource_by_name("/irs-0001-env/libmpi.so")
            .unwrap()
            .unwrap();
        let attrs = store.attributes_of(lib.id).unwrap();
        assert!(attrs.iter().any(|(n, v, _)| n == "type" && v == "MPI"));
    }

    #[test]
    fn threads_emitted_only_for_hybrid_runs() {
        let mut info = RunInfo::simulated("e", "A", 2);
        info.threads_per_process = 2;
        let stmts = to_ptdf(&info);
        let threads = stmts
            .iter()
            .filter(|s| {
                matches!(s, PtdfStatement::Resource { type_path, .. }
                    if type_path == "execution/process/thread")
            })
            .count();
        assert_eq!(threads, 4);
    }

    #[test]
    fn current_env_capture_includes_known_vars() {
        // PATH is essentially always present.
        let info = RunInfo::from_current_env("e", "A", 1);
        assert!(info.environment.iter().any(|(k, _)| k == "PATH"));
    }
}
