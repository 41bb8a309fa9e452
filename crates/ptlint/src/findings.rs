//! Typed findings and the report they roll up into.
//!
//! Mirrors the fsck reporting contract from `perftrack-store`
//! (`check::Finding` / `check::FsckReport`): stable machine-readable
//! codes, error/warning severities, a capped findings list, a JSON
//! document for CI artifacts, and an aligned human table. The schemas
//! differ only in coordinates — fsck findings point at pages, lint
//! findings point at `file:line`.

use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/consistency issue; never fails the build.
    Warning,
    /// Invariant violation; fails the build.
    Error,
}

/// One static-analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable machine-readable code, `family.kind`
    /// (e.g. `locks.new-edge`, `locks.cycle`).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line, or 0 when the finding has no single line (e.g. a
    /// cycle or a missing allowlist is about the whole graph).
    pub line: u32,
    /// What the rule saw, in one line.
    pub detail: String,
}

/// Everything one `ptlint` run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned across all checks (deduplicated).
    pub files_scanned: usize,
    /// All findings, in discovery order (sorted before rendering).
    pub findings: Vec<Finding>,
}

/// At most this many findings are kept per code; the rest only bump the
/// counters. Same guardrail as fsck's `FINDINGS_CAP_PER_CODE`.
pub const FINDINGS_CAP_PER_CODE: usize = 50;

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Record a finding, enforcing the per-code cap.
    pub fn push(&mut self, f: Finding) {
        let same_code = self.findings.iter().filter(|x| x.code == f.code).count();
        if same_code < FINDINGS_CAP_PER_CODE {
            self.findings.push(f);
        } else if same_code == FINDINGS_CAP_PER_CODE {
            self.findings.push(Finding {
                detail: format!(
                    "further `{}` findings suppressed (cap {})",
                    f.code, FINDINGS_CAP_PER_CODE
                ),
                ..f
            });
        }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Sort findings into the canonical render order:
    /// (file, line, code). Both renderers call this, so `--json` and
    /// `--table` are deterministic byte-for-byte.
    fn sorted(&self) -> Vec<&Finding> {
        let mut v: Vec<&Finding> = self.findings.iter().collect();
        v.sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
        v
    }

    /// The machine-readable report (schema `pt-lint/v1`), uploaded as a
    /// CI artifact. Emitted with sorted keys and sorted findings so two
    /// runs over the same tree are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"pt-lint/v1\",");
        let _ = write!(out, "\"files_scanned\":{},", self.files_scanned);
        let _ = write!(out, "\"errors\":{},", self.errors());
        let _ = write!(out, "\"warnings\":{},", self.warnings());
        out.push_str("\"findings\":[");
        for (i, f) in self.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"severity\":\"{}\",\"file\":{},\"line\":{},\"detail\":{}}}",
                json_str(f.code),
                match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                json_str(&f.file),
                f.line,
                json_str(&f.detail),
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable table, same shape as `pt fsck`'s:
    /// a summary line, a scanned line, then one aligned row per finding.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ptlint: {} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        );
        let _ = writeln!(out, "  files={}", self.files_scanned);
        for f in self.sorted() {
            let sev = match f.severity {
                Severity::Error => "E",
                Severity::Warning => "W",
            };
            let loc = if f.line == 0 {
                f.file.clone()
            } else {
                format!("{}:{}", f.file, f.line)
            };
            let _ = writeln!(out, "  [{sev}] {:<24} {:<40} {}", f.code, loc, f.detail);
        }
        out
    }
}

/// JSON-escape a string, with quotes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(code: &'static str, file: &str, line: u32, sev: Severity) -> Finding {
        Finding {
            code,
            severity: sev,
            file: file.into(),
            line,
            detail: "d".into(),
        }
    }

    #[test]
    fn counters_and_severities() {
        let mut r = LintReport::new();
        r.push(f("locks.new-edge", "a.rs", 3, Severity::Error));
        r.push(f("locks.unused-edge", "b.rs", 0, Severity::Warning));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn render_order_is_file_line_code() {
        let mut r = LintReport::new();
        r.push(f("z.late", "b.rs", 1, Severity::Error));
        r.push(f("a.early", "a.rs", 9, Severity::Error));
        r.push(f("a.early", "a.rs", 2, Severity::Error));
        let table = r.render_table();
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert!(rows[0].contains("a.rs:2"));
        assert!(rows[1].contains("a.rs:9"));
        assert!(rows[2].contains("b.rs:1"));
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = LintReport::new();
        r.files_scanned = 2;
        r.push(Finding {
            code: "locks.new-edge",
            severity: Severity::Error,
            file: "a.rs".into(),
            line: 1,
            detail: "acquires \"pool.a\"\n".into(),
        });
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"schema\":\"pt-lint/v1\","));
        assert!(j1.contains("\\\"pool.a\\\"\\n"));
    }

    #[test]
    fn per_code_cap_truncates_with_a_marker() {
        let mut r = LintReport::new();
        for i in 0..(FINDINGS_CAP_PER_CODE + 10) {
            r.push(f("locks.new-edge", "x.rs", i as u32 + 1, Severity::Error));
        }
        let count = r
            .findings
            .iter()
            .filter(|x| x.code == "locks.new-edge")
            .count();
        assert_eq!(count, FINDINGS_CAP_PER_CODE + 1);
        assert!(r.findings.last().unwrap().detail.contains("suppressed"));
    }
}
