//! The committed lock-order contract (`tools/lock-order.toml`) and the
//! minimal TOML subset it is written in.
//!
//! The file has two tables. `[locks]` names every lock the checker
//! models and anchors it to the field that owns it, so a refactor that
//! moves or renames a lock field fails loudly instead of silently
//! dropping the lock from the model. `[edges]` is the allowlist of
//! permitted acquisition orders, each with a one-line justification —
//! the contract the MVCC work will extend deliberately rather than
//! accidentally.
//!
//! The parser handles exactly the subset the file uses — `[section]`
//! headers, `"key" = "value"` pairs, `#` comments, blank lines — and
//! rejects everything else. A hand-rolled parser is a deliberate
//! trade: ptlint must stay dependency-free so the CI gate builds from
//! a cold cache in seconds.

/// One modelled lock: a short name plus the `file::field` that owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDef {
    /// Short name used in edges and findings (e.g. `pool.latch`).
    pub name: String,
    /// Workspace-relative file that declares the lock field.
    pub file: String,
    /// The struct field holding the mutex/rwlock.
    pub field: String,
}

/// One permitted acquisition-order edge: `from` may be held while
/// `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Why the order is what it is (required, shown in `--list-edges`).
    pub reason: String,
}

/// Parsed `tools/lock-order.toml`.
#[derive(Debug, Default, Clone)]
pub struct LockOrderConfig {
    /// All modelled locks.
    pub locks: Vec<LockDef>,
    /// All permitted edges.
    pub edges: Vec<LockEdge>,
}

impl LockOrderConfig {
    /// Parse the lock-order file. Returns a human-readable error (with
    /// a 1-based line number) on any construct outside the subset.
    pub fn parse(text: &str) -> Result<LockOrderConfig, String> {
        let mut cfg = LockOrderConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "locks" && section != "edges" {
                    return Err(format!("line {lineno}: unknown section [{section}]"));
                }
                continue;
            }
            let (key, value) = split_kv(&line)
                .ok_or_else(|| format!("line {lineno}: expected `key = \"value\"`"))?;
            match section.as_str() {
                "locks" => {
                    let (file, field) = value.rsplit_once("::").ok_or_else(|| {
                        format!("line {lineno}: lock value must be `file::field`")
                    })?;
                    cfg.locks.push(LockDef {
                        name: key,
                        file: file.to_string(),
                        field: field.to_string(),
                    });
                }
                "edges" => {
                    let (from, to) = key
                        .split_once("->")
                        .ok_or_else(|| format!("line {lineno}: edge key must be `from -> to`"))?;
                    if value.trim().is_empty() {
                        return Err(format!("line {lineno}: edge is missing its reason"));
                    }
                    cfg.edges.push(LockEdge {
                        from: from.trim().to_string(),
                        to: to.trim().to_string(),
                        reason: value,
                    });
                }
                _ => {
                    return Err(format!(
                        "line {lineno}: key outside a [locks]/[edges] section"
                    ))
                }
            }
        }
        for e in &cfg.edges {
            for end in [&e.from, &e.to] {
                if !cfg.locks.iter().any(|l| &l.name == end) {
                    return Err(format!(
                        "edge `{} -> {}` references undefined lock `{end}`",
                        e.from, e.to
                    ));
                }
            }
        }
        Ok(cfg)
    }

    /// Is the edge `from -> to` in the allowlist?
    pub fn allows(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

/// Drop a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Split `key = "value"` where key may be bare or double-quoted.
fn split_kv(line: &str) -> Option<(String, String)> {
    let (key_part, value_part) = if let Some(rest) = line.strip_prefix('"') {
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        let after = rest[end + 1..].trim_start();
        (key, after.strip_prefix('=')?.trim_start())
    } else {
        let eq = line.find('=')?;
        (line[..eq].trim().to_string(), line[eq + 1..].trim_start())
    };
    let value = value_part.strip_prefix('"')?.strip_suffix('"')?.to_string();
    Some((key_part, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# The committed contract.
[locks]
"pool.latch" = "crates/store/src/buffer.rs::state"
"wal.inner" = "crates/store/src/wal.rs::inner"

[edges]
"pool.latch -> wal.inner" = "flush takes the WAL under the pool latch"
"#;

    #[test]
    fn parses_locks_and_edges() {
        let cfg = LockOrderConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.locks.len(), 2);
        assert_eq!(cfg.locks[0].name, "pool.latch");
        assert_eq!(cfg.locks[0].file, "crates/store/src/buffer.rs");
        assert_eq!(cfg.locks[0].field, "state");
        assert!(cfg.allows("pool.latch", "wal.inner"));
        assert!(!cfg.allows("wal.inner", "pool.latch"));
    }

    #[test]
    fn edge_with_undefined_lock_is_rejected() {
        let bad = "[locks]\n\"a\" = \"f.rs::x\"\n[edges]\n\"a -> ghost\" = \"r\"\n";
        let err = LockOrderConfig::parse(bad).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn edge_without_reason_is_rejected() {
        let bad = "[locks]\n\"a\" = \"f.rs::x\"\n\"b\" = \"f.rs::y\"\n[edges]\n\"a -> b\" = \"\"\n";
        let err = LockOrderConfig::parse(bad).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_sections_and_malformed_lines_error_with_line_numbers() {
        assert!(LockOrderConfig::parse("[surprise]\n")
            .unwrap_err()
            .contains("line 1"));
        assert!(LockOrderConfig::parse("[locks]\nnot a pair\n")
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = LockOrderConfig::parse(
            "[locks]\n\"a\" = \"f.rs::x\"\n\"b\" = \"f.rs::y\"\n[edges]\n\"a -> b\" = \"issue #42\" # trailing\n",
        )
        .unwrap();
        assert_eq!(cfg.edges[0].reason, "issue #42");
    }
}
