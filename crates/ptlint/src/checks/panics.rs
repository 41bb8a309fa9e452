//! Check 2: panic-freedom on hot/untrusted paths.
//!
//! A panic in the wire decoder is a remote denial of service; a panic
//! under the buffer-pool or WAL mutex poisons nothing
//! (`perftrack_store::sync` recovers, and leans on this check to do so)
//! but still kills the worker mid-update. The files listed in
//! [`HOT_FILES`] — the request path and the storage-engine core — must
//! not contain `unwrap`/`expect`, panicking macros, or bare slice
//! indexing outside `#[cfg(test)]`.
//!
//! Three escape levels, in preference order: restructure the code so
//! the invariant is type-checked (`try_into` to an array, `.get()`),
//! return a typed error, or — when the invariant is real but invisible
//! to the type system — annotate the site with
//! `// ptlint: allow(panic) -- <why the index/expect cannot fire>`.

use super::{Allows, Workspace};
use crate::findings::{Finding, LintReport, Severity};
use crate::lexer::{LexedFile, Token, TokenKind};

/// Files that must be panic-free outside tests.
pub const HOT_FILES: &[&str] = &[
    "crates/server/src/wire.rs",
    "crates/server/src/proto.rs",
    "crates/server/src/server.rs",
    "crates/store/src/page.rs",
    "crates/store/src/btree.rs",
    "crates/store/src/wal.rs",
    "crates/store/src/buffer.rs",
];

/// Macros that compile to a panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` without it being an index
/// expression (patterns, types, array literals).
const NOT_INDEX_BEFORE: &[&str] = &[
    "let", "mut", "ref", "in", "return", "else", "as", "box", "move", "break", "continue", "where",
    "unsafe", "dyn", "impl", "for", "match", "if", "while", "const", "static", "type", "enum",
    "struct", "union", "fn", "pub", "use", "mod", "crate", "yield", "await",
];

/// Run the panic-freedom check, appending findings to `report`.
pub fn run(ws: &Workspace, report: &mut LintReport) {
    for file in HOT_FILES {
        let Some(lexed) = ws.lex(file) else { continue };
        check_file(&lexed, file, report);
    }
}

fn check_file(lexed: &LexedFile, file: &str, report: &mut LintReport) {
    let allows = Allows::parse(lexed);
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.in_test[i] {
            continue;
        }
        let t = &toks[i];
        let finding = match t.kind {
            TokenKind::Ident
                if (t.text == "unwrap" || t.text == "expect") && is_method_call(toks, i) =>
            {
                Some((
                    if t.text == "unwrap" {
                        "panics.unwrap"
                    } else {
                        "panics.expect"
                    },
                    format!(
                        "`.{}()` on a hot/untrusted path; return a typed error instead",
                        t.text
                    ),
                ))
            }
            TokenKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                Some((
                    "panics.panic-macro",
                    format!("`{}!` on a hot/untrusted path", t.text),
                ))
            }
            TokenKind::Punct if t.text == "[" && is_index_expr(toks, i) => Some((
                "panics.index",
                "bare slice indexing can panic; use `.get()`/`get_mut()` or prove the bound"
                    .to_string(),
            )),
            _ => None,
        };
        if let Some((code, detail)) = finding {
            if !allows.permits("panic", t.line) {
                report.push(Finding {
                    code,
                    severity: Severity::Error,
                    file: file.to_string(),
                    line: t.line,
                    detail,
                });
            }
        }
    }
    allows.report_unjustified(file, report);
}

/// `.unwrap()` / `.expect(` as a method call: preceded by `.`,
/// followed by `(`. Rules out `unwrap_or` (distinct ident) and paths
/// like `Option::unwrap` used as a value (no preceding dot — flagged
/// anyway if called? No: `map(Option::unwrap)` has preceding `::`,
/// which this deliberately also treats as a call site).
fn is_method_call(toks: &[Token], i: usize) -> bool {
    let after_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    if i == 0 {
        return false;
    }
    let prev_dot = toks[i - 1].is_punct('.');
    let prev_path = toks[i - 1].is_punct(':');
    (prev_dot && after_paren) || prev_path
}

/// Is the `[` at `i` an index expression? True when the previous token
/// can end an expression being indexed: an identifier (minus keywords),
/// a closing `)`/`]`, or `?`.
fn is_index_expr(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    match prev.kind {
        TokenKind::Ident => !NOT_INDEX_BEFORE.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']') || prev.is_punct('?'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<&'static str> {
        let lexed = LexedFile::lex(src);
        let mut report = LintReport::new();
        check_file(&lexed, "hot.rs", &mut report);
        report.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn unwrap_and_expect_are_flagged_but_unwrap_or_is_not() {
        assert_eq!(
            findings("fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
            vec!["panics.unwrap"]
        );
        assert_eq!(
            findings("fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }"),
            vec!["panics.expect"]
        );
        assert!(findings("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
        assert!(findings("fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }").is_empty());
    }

    #[test]
    fn panic_macros_are_flagged() {
        assert_eq!(
            findings("fn f() { panic!(\"boom\") }"),
            vec!["panics.panic-macro"]
        );
        assert_eq!(
            findings("fn f() { unreachable!() }"),
            vec!["panics.panic-macro"]
        );
    }

    #[test]
    fn indexing_expressions_are_flagged_but_types_and_patterns_are_not() {
        assert_eq!(
            findings("fn f(b: &[u8]) -> u8 { b[0] }"),
            vec!["panics.index"]
        );
        assert_eq!(
            findings("fn f(b: &[u8]) -> &[u8] { &b[1..3] }"),
            vec!["panics.index"]
        );
        assert!(findings("fn f() -> [u8; 4] { [0u8; 4] }").is_empty());
        assert!(findings("struct S { b: [u8; 8] }").is_empty());
        assert!(findings("fn f(v: Vec<[u8; 4]>) {}").is_empty());
        assert!(findings("#[derive(Debug)]\nstruct T;").is_empty());
        assert!(findings("fn f() { let [a, b] = [1, 2]; let _ = (a, b); }").is_empty());
        // vec![..] is a macro literal, not indexing.
        assert!(findings("fn f() -> Vec<u8> { vec![1, 2] }").is_empty());
    }

    #[test]
    fn chained_and_postfix_receivers_are_flagged() {
        assert_eq!(
            findings("fn f(v: Vec<Vec<u8>>) -> u8 { v[0][1] }"),
            vec!["panics.index", "panics.index"]
        );
        assert_eq!(
            findings("fn f() -> u8 { g().buf[0] }"),
            vec!["panics.index"]
        );
    }

    #[test]
    fn allow_panic_with_reason_suppresses() {
        assert!(findings(
            "fn f(b: &[u8; 8]) -> u8 {\n    // ptlint: allow(panic) -- fixed-size array, index is const\n    b[3]\n}"
        )
        .is_empty());
        assert_eq!(
            findings("fn f(b: &[u8]) -> u8 {\n    // ptlint: allow(panic)\n    b[3]\n}"),
            vec!["panics.index", "directive.unjustified-allow"]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(findings("#[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }").is_empty());
    }
}
