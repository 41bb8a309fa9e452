//! `ptlint` — the lock-order check for the PerfTrack workspace.
//!
//! Deadlock freedom in the engine rests on one global lock-acquisition
//! order. `ptlint` re-derives the held-while-acquiring graph from the
//! source, diffs it against the committed allowlist
//! (`tools/lock-order.toml`) and reports new edges and cycles as typed
//! [`Finding`]s, with the same table/JSON contract as `pt fsck`. No
//! standard tool checks this; the workspace's other static policies
//! (I/O confinement, panic-freedom, protocol and metric consistency)
//! are clippy lints and tests — `docs/ANALYSIS.md` maps each policy to
//! where it is enforced.
//!
//! The analysis is token-level, not AST-level: the crate is
//! deliberately dependency-free (a lint gate should never be knocked
//! over by the dependencies of the code it checks), so it lexes Rust by
//! hand — enough to strip comments and strings, mark `#[cfg(test)]`
//! regions, and match brace structure.

#![deny(missing_docs)]

pub mod checks;
pub mod config;
pub mod findings;
pub mod lexer;

pub use config::LockOrderConfig;
pub use findings::{Finding, LintReport, Severity};

use checks::Workspace;
use std::path::Path;

/// Where to run the check.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root directory.
    pub root: std::path::PathBuf,
    /// Workspace-relative path of the lock-order allowlist.
    pub lock_order: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            root: std::path::PathBuf::from("."),
            lock_order: "tools/lock-order.toml".to_string(),
        }
    }
}

/// Run the lock-order check over the workspace and return the report.
pub fn run_all(opts: &Options) -> LintReport {
    let ws = Workspace::new(&opts.root);
    let mut report = LintReport::new();
    match load_lock_config(&ws, &opts.lock_order) {
        Ok(cfg) => checks::locks::run(&ws, &cfg, &mut report),
        Err(f) => report.push(f),
    }
    report.files_scanned = ws.files_lexed();
    report
}

/// The observed lock-acquisition edges (powers `--list-edges`).
pub fn list_edges(opts: &Options) -> Result<Vec<checks::locks::ObservedEdge>, String> {
    let ws = Workspace::new(&opts.root);
    match load_lock_config(&ws, &opts.lock_order) {
        Ok(cfg) => Ok(checks::locks::observed_edges(&ws, &cfg)),
        Err(f) => Err(f.detail),
    }
}

fn load_lock_config(ws: &Workspace, rel: &str) -> Result<LockOrderConfig, Finding> {
    let Some(text) = ws.read(rel) else {
        return Err(Finding {
            code: "locks.missing-config",
            severity: Severity::Error,
            file: rel.to_string(),
            line: 0,
            detail: "lock-order allowlist is missing; commit tools/lock-order.toml".to_string(),
        });
    };
    LockOrderConfig::parse(&text).map_err(|e| Finding {
        code: "locks.bad-config",
        severity: Severity::Error,
        file: rel.to_string(),
        line: 0,
        detail: e,
    })
}

/// Convenience for tests: run everything against a given root with the
/// default lock-order path.
pub fn run_at(root: &Path) -> LintReport {
    run_all(&Options {
        root: root.to_path_buf(),
        ..Options::default()
    })
}
