//! The `ptlint` binary: run the lock-order check and render the report
//! as a table (default) or JSON (`--json`), optionally writing to a
//! file (`--out`) for CI artifact upload.
//!
//! ```text
//! ptlint [--root DIR] [--json] [--out FILE] [--lock-order FILE] [--list-edges]
//! ```
//!
//! Exit codes: `0` — no errors (warnings never fail the build); `1` —
//! at least one error finding; `2` — usage or internal error.

use ptlint::{run_all, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ptlint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = Options::default();
    let mut json = false;
    let mut out: Option<String> = None;
    let mut list_edges = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => opts.root = next_value(&mut it, "--root")?.into(),
            "--lock-order" => opts.lock_order = next_value(&mut it, "--lock-order")?,
            "--json" => json = true,
            "--out" => out = Some(next_value(&mut it, "--out")?),
            "--list-edges" => list_edges = true,
            "--help" | "-h" => {
                println!(
                    "usage: ptlint [--root DIR] [--json] [--out FILE] [--lock-order FILE] [--list-edges]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if list_edges {
        let edges = ptlint::list_edges(&opts)?;
        let mut seen = std::collections::BTreeSet::new();
        for e in &edges {
            if seen.insert((e.from.clone(), e.to.clone())) {
                println!(
                    "{} -> {}    # first seen {}:{}",
                    e.from, e.to, e.file, e.line
                );
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let report = run_all(&opts);
    let rendered = if json {
        report.to_json()
    } else {
        report.render_table()
    };
    if let Some(path) = out {
        std::fs::write(&path, rendered.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    } else {
        print!("{rendered}");
        if json {
            println!();
        }
    }

    Ok(if report.errors() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}
