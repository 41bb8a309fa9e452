//! SMG2000 stdout (with optional PMAPI section) → PTdf (§4.2, Figure 7).
//!
//! The bare benchmark output yields eight whole-execution values — the
//! paper's SMG-BG/L row. When PMAPI instrumentation was active, the
//! appended counter blocks add per-process hardware counter results
//! (SMG-UV).

use crate::common::{ConvertError, ExecContext, PtdfBuilder, Result};
use perftrack_ptdf::PtdfStatement;

/// Tool names recorded on results.
pub const TOOL_SMG: &str = "SMG2000";
pub const TOOL_PMAPI: &str = "PMAPI";

/// Convert one SMG2000 stdout capture.
pub fn convert(ctx: &ExecContext, stdout: &str) -> Result<Vec<PtdfStatement>> {
    let mut b = PtdfBuilder::for_execution(ctx);
    let exec = &ctx.exec_name;
    let app_res = format!("/{}", ctx.application);
    b.resource(&app_res, "application");
    let run = ctx.run_resource();

    let mut section = String::new();
    let mut found = 0usize;
    let mut pmapi_process: Option<usize> = None;
    for (lineno, line) in stdout.lines().enumerate() {
        let trimmed = line.trim();
        // Driver parameters → run attributes.
        if let Some(rest) = trimmed.strip_prefix('(') {
            if let Some((names, value)) = rest.split_once('=') {
                let names = names.trim_end().trim_end_matches(')');
                b.attr(&run, &format!("({names})"), value.trim());
                continue;
            }
        }
        if trimmed == "SMG Setup:" {
            section = "SMG Setup".into();
            continue;
        }
        if trimmed == "SMG Solve:" {
            section = "SMG Solve".into();
            continue;
        }
        // PMAPI blocks.
        if let Some(rest) = trimmed.strip_prefix("PMAPI process ") {
            let rank: usize = rest.trim_end_matches(':').parse().map_err(|_| {
                ConvertError::new(TOOL_PMAPI, format!("line {}: bad process id", lineno + 1))
            })?;
            pmapi_process = Some(rank);
            continue;
        }
        if trimmed.starts_with("PM_") {
            let rank = pmapi_process.ok_or_else(|| {
                ConvertError::new(
                    TOOL_PMAPI,
                    format!("line {}: counter outside block", lineno + 1),
                )
            })?;
            let (name, value) = trimmed.split_once(':').ok_or_else(|| {
                ConvertError::new(TOOL_PMAPI, format!("line {}: bad counter line", lineno + 1))
            })?;
            let value: f64 = value.trim().parse().map_err(|_| {
                ConvertError::new(
                    TOOL_PMAPI,
                    format!("line {}: bad counter value", lineno + 1),
                )
            })?;
            let proc = ctx.process_resource(rank);
            b.resource(&proc, "execution/process");
            let mut context = vec![app_res.clone(), proc];
            if let Some(cpu) = ctx.rank_processors.get(rank) {
                context.push(cpu.clone());
            }
            b.result(exec, context, TOOL_PMAPI, name.trim(), value, "count");
            continue;
        }
        // Timed sections.
        if let Some((label, rest)) = trimmed.split_once('=') {
            let label = label.trim();
            let rest = rest.trim();
            let metric_value: Option<(String, f64, &str)> = match label {
                "wall clock time" | "cpu clock time" if !section.is_empty() => {
                    let secs = rest.strip_suffix(" seconds").unwrap_or(rest);
                    secs.parse::<f64>()
                        .ok()
                        .map(|v| (format!("{section} {label}"), v, "seconds"))
                }
                "Iterations" => rest
                    .parse::<f64>()
                    .ok()
                    .map(|v| (label.to_string(), v, "count")),
                "Final Relative Residual Norm" => rest
                    .parse::<f64>()
                    .ok()
                    .map(|v| (label.to_string(), v, "norm")),
                "Total wall clock time" => {
                    let secs = rest.strip_suffix(" seconds").unwrap_or(rest);
                    secs.parse::<f64>()
                        .ok()
                        .map(|v| (label.to_string(), v, "seconds"))
                }
                "Solve MFLOPS" => rest
                    .parse::<f64>()
                    .ok()
                    .map(|v| (label.to_string(), v, "MFLOPS")),
                _ => None,
            };
            if let Some((metric, value, units)) = metric_value {
                b.result(
                    exec,
                    vec![app_res.clone(), run.clone()],
                    TOOL_SMG,
                    &metric,
                    value,
                    units,
                );
                found += 1;
            }
        }
    }
    if found < 6 {
        return Err(ConvertError::new(
            TOOL_SMG,
            format!("only {found} benchmark values recognized; not SMG output?"),
        ));
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perftrack::PTDataStore;
    use perftrack_workloads::smg::{generate, SmgConfig};

    #[test]
    fn bgl_output_yields_eight_results() {
        let f = generate(&SmgConfig::bgl("smg-bgl-0001", 512, 3));
        let ctx = ExecContext::new("smg-bgl-0001", "SMG2000");
        let stmts = convert(&ctx, &f.content).unwrap();
        let results = stmts
            .iter()
            .filter(|s| matches!(s, PtdfStatement::PerfResult { .. }))
            .count();
        assert_eq!(
            results, 8,
            "Table 1's SMG-BG/L row: 8 results per execution"
        );
        let store = PTDataStore::in_memory().unwrap();
        let stats = store.load_statements(&stmts).unwrap();
        assert_eq!(stats.results, 8);
        assert!(store
            .metrics()
            .contains(&"SMG Solve wall clock time".to_string()));
    }

    #[test]
    fn uv_output_adds_pmapi_per_process() {
        let f = generate(&SmgConfig::uv("smg-uv-0001", 16, 5));
        let ctx = ExecContext::new("smg-uv-0001", "SMG2000");
        let stmts = convert(&ctx, &f.content).unwrap();
        let store = PTDataStore::in_memory().unwrap();
        let stats = store.load_statements(&stmts).unwrap();
        assert_eq!(stats.results, 8 + 16 * 8);
        // Per-process resources created.
        assert!(store.resource_id("/smg-uv-0001-run/process15").is_some());
        // PMAPI results are attributed to the PMAPI tool.
        let engine = perftrack::QueryEngine::new(&store);
        let rows = engine.run(&[]).unwrap();
        assert!(rows.iter().any(|r| &*r.tool == "PMAPI"));
        assert!(rows.iter().any(|r| &*r.tool == "SMG2000"));
    }

    #[test]
    fn driver_parameters_become_attributes() {
        let f = generate(&SmgConfig::uv("e", 8, 1));
        let ctx = ExecContext::new("e", "SMG2000");
        let stmts = convert(&ctx, &f.content).unwrap();
        let store = PTDataStore::in_memory().unwrap();
        store.load_statements(&stmts).unwrap();
        let run = store.resource_by_name("/e-run").unwrap().unwrap();
        let attrs = store.attributes_of(run.id).unwrap();
        assert!(attrs.iter().any(|(n, _, _)| n.contains("nx, ny, nz")));
        assert!(attrs.iter().any(|(n, _, _)| n.contains("Px, Py, Pz")));
    }

    #[test]
    fn non_smg_text_rejected() {
        let ctx = ExecContext::new("e", "SMG2000");
        assert!(convert(&ctx, "hello world\n").is_err());
    }

    #[test]
    fn counter_outside_block_rejected() {
        let f = generate(&SmgConfig::bgl("e", 8, 1));
        let broken = format!("{}\nPM_CYC : 123\n", f.content);
        let ctx = ExecContext::new("e", "SMG2000");
        assert!(convert(&ctx, &broken).is_err());
    }
}
