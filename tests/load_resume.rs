//! Crash-safe resumable bulk loading, end to end: a PTdf load driven
//! against a [`FaultVfs`] is killed at a sweep of deterministic
//! operation indices; after each simulated crash the store is reopened
//! (recovery) and the load re-run with `resume: true`. The final store
//! must hold exactly the same row counts as an uninterrupted baseline
//! load and pass deep fsck — kill + resume is indistinguishable from
//! never having crashed.

use perftrack::{BulkLoadOptions, PTDataStore};
use perftrack_store::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs, Vfs};
use perftrack_store::DbOptions;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic PTdf document: one application, `execs` executions, each
/// with `results` per-process performance results (the same statement
/// shapes as the paper's IRS example).
fn make_ptdf(app: &str, execs: usize, results: usize) -> String {
    let mut s = format!("Application {app}\n");
    for e in 0..execs {
        s.push_str(&format!("Execution {app}-e{e} {app}\n"));
        s.push_str(&format!("Resource /{app}-run{e} execution {app}-e{e}\n"));
        for r in 0..results {
            s.push_str(&format!("Resource /{app}-run{e}/p{r} execution/process\n"));
            s.push_str(&format!(
                "PerfResult {app}-e{e} /{app}-run{e}/p{r}(primary) {app} \"CPU time\" {}.5 seconds\n",
                r + 1
            ));
        }
    }
    s
}

fn write_inputs(dir: &Path) -> Vec<PathBuf> {
    let a = dir.join("alpha.ptdf");
    let b = dir.join("beta.ptdf");
    std::fs::write(&a, make_ptdf("alpha", 2, 25)).unwrap();
    std::fs::write(&b, make_ptdf("beta", 3, 20)).unwrap();
    vec![a, b]
}

struct Counts {
    results: usize,
    resources: usize,
    executions: usize,
}

fn counts(store: &PTDataStore) -> Counts {
    Counts {
        results: store.result_count().unwrap(),
        resources: store.resource_count().unwrap(),
        executions: store.db().row_count(store.schema().execution).unwrap(),
    }
}

#[test]
fn kill_and_resume_equals_uninterrupted_load() {
    let input_dir = tmpdir("inputs");
    let paths = write_inputs(&input_dir);
    let opts = BulkLoadOptions {
        batch_statements: 10,
        resume: true,
    };

    // Baseline: the same files loaded with no faults at all.
    let baseline = {
        let store = PTDataStore::in_memory().unwrap();
        store.load_ptdf_files_resumable(&paths, &opts).unwrap();
        counts(&store)
    };

    // Crash sweep: kill the process (fsync-gate semantics — unsynced
    // data is lost) at a deterministic ladder of VFS operation indices,
    // reopening + resuming after every kill. The ladder is coarse enough
    // to terminate quickly and fine enough to land inside recovery,
    // mid-batch, and between batches.
    let store_dir = tmpdir("store");
    let inner: Arc<MemVfs> = Arc::new(MemVfs::new());
    let mut crash_at: u64 = 3;
    let mut crashes = 0u32;
    let mut rounds = 0u32;
    let mut last_err = String::new();
    loop {
        rounds += 1;
        assert!(
            rounds < 500,
            "crash sweep failed to converge (crash_at {crash_at}, last error: {last_err})"
        );
        // A fresh FaultVfs over the same inner MemVfs is a process
        // restart: the image is rebuilt from whatever was synced.
        let fault = FaultVfs::new(Arc::clone(&inner) as Arc<dyn Vfs>);
        fault.arm(FaultRule {
            trigger: FaultTrigger::OpIndex(crash_at),
            kind: FaultKind::Crash,
            once: true,
        });
        let outcome = PTDataStore::open_with_vfs(&store_dir, DbOptions::default(), &fault)
            .and_then(|store| store.load_ptdf_files_resumable(&paths, &opts));
        match outcome {
            Ok(_) if !fault.crashed() => break,
            // The load "finished" but the crash fired during teardown
            // syncs, or it died mid-flight: either way, restart later.
            // The ladder grows geometrically: dense kills early (inside
            // recovery and the first batches), sparser once each round
            // must redo the whole open just to reach new territory.
            outcome => {
                if let Err(e) = outcome {
                    last_err = e.to_string();
                }
                crashes += 1;
                crash_at = crash_at.saturating_add(3 + crash_at / 3);
            }
        }
    }
    assert!(
        crashes > 3,
        "sweep must actually kill a few runs (got {crashes})"
    );

    // Reopen clean (no faults) and compare against the baseline.
    let store =
        PTDataStore::open_with_vfs(&store_dir, DbOptions::default(), inner.as_ref()).unwrap();
    let fin = counts(&store);
    assert_eq!(fin.results, baseline.results, "results after kill+resume");
    assert_eq!(
        fin.resources, baseline.resources,
        "resources after kill+resume"
    );
    assert_eq!(
        fin.executions, baseline.executions,
        "executions after kill+resume"
    );

    // Every input is marked done in the manifest at its full watermark.
    let manifest = store.manifest().unwrap();
    assert_eq!(manifest.len(), paths.len());
    assert!(
        manifest.iter().all(|m| m.done),
        "all files done: {manifest:?}"
    );

    // And the store is structurally sound.
    let report = store.fsck(true).unwrap();
    assert_eq!(report.error_count(), 0, "deep fsck: {}", report.summary());

    // Idempotence: one more resume pass is a no-op.
    let rerun = store.load_ptdf_files_resumable(&paths, &opts).unwrap();
    assert_eq!(rerun.files_skipped, paths.len());
    assert_eq!(rerun.stats.results, 0);
    assert_eq!(store.result_count().unwrap(), baseline.results);

    drop(store);
    let _ = std::fs::remove_dir_all(&input_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn resume_without_faults_skips_completed_work() {
    let input_dir = tmpdir("plain");
    let paths = write_inputs(&input_dir);
    let store = PTDataStore::in_memory().unwrap();
    let opts = BulkLoadOptions {
        batch_statements: 16,
        resume: true,
    };
    let first = store.load_ptdf_files_resumable(&paths, &opts).unwrap();
    assert_eq!(first.files_loaded, 2);
    assert!(first.batches_committed > 2, "bounded batches were used");
    let second = store.load_ptdf_files_resumable(&paths, &opts).unwrap();
    assert_eq!(second.files_skipped, 2);
    assert_eq!(second.stats.statements, 0);
    let _ = std::fs::remove_dir_all(&input_dir);
}
