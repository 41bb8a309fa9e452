//! Static lock-order checking.
//!
//! Deadlock freedom in the engine rests on a global acquisition order
//! over a handful of locks (the buffer-pool latch, frame rwlocks,
//! the writer gate, the WAL mutex, catalog/index rwlocks). That order
//! lives in `tools/lock-order.toml` as an explicit allowlist of edges,
//! each with a reason. This check re-derives the *observed* acquisition
//! graph from the source and compares:
//!
//! * an observed edge missing from the allowlist is an error
//!   (`locks.new-edge`) — new nesting must be a reviewed decision;
//! * a cycle anywhere in the union of observed and allowed edges is an
//!   error (`locks.cycle`) — the contract must stay a partial order;
//! * an allowlisted edge never observed is a warning
//!   (`locks.unused-edge`) unless its reason starts with `dynamic:`,
//!   which marks orders that flow through function pointers or other
//!   indirection the static pass cannot see (e.g. the buffer pool's
//!   writeback hook forcing the WAL).
//!
//! ## How the graph is extracted
//!
//! The pass lexes every file named in `[locks]` and walks each function
//! body, tracking which modelled locks are held at each point:
//!
//! * An acquisition is a call of `.lock()`, `.try_lock()`, `.read()`, or
//!   `.write()` **with an empty argument list** (which separates lock
//!   acquisition from `io::Read::read(&mut buf)`), attributed to a lock
//!   by `(file, receiver field)` per the `[locks]` table.
//! * Guards bound with `let` live to the end of their block (or an
//!   explicit `drop(binding)`); guards in temporaries live to the end
//!   of the enclosing statement — matching Rust's temporary-lifetime
//!   rules closely enough for lock-shaped code.
//! * Function summaries propagate to call sites: calling a function
//!   that (transitively) acquires lock `B` while holding `A` records
//!   the edge `A -> B`, and a call that *returns* a guard (`fn
//!   lock_state(..) -> MutexGuard<..>`) counts as acquiring the lock at
//!   the call site. Summaries are matched by bare function name across
//!   the scanned files; ubiquitous names (`get`, `push`, ...) are
//!   excluded from summary matching to avoid false edges.
//!
//! The walker is an approximation — Rust's real temporary lifetimes and
//! trait dispatch are out of reach for a token-level pass — but it is a
//! *conservative* one for this codebase's lock style, and the allowlist
//! keeps any residual noise explicit and reviewed.

use super::Workspace;
use crate::config::LockOrderConfig;
use crate::findings::{Finding, LintReport, Severity};
use crate::lexer::{LexedFile, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One acquisition-order edge observed in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedEdge {
    /// Lock held at the moment of acquisition.
    pub from: String,
    /// Lock being acquired.
    pub to: String,
    /// File of the inner acquisition (workspace-relative).
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
}

/// Method names that acquire a lock when called with no arguments.
const ACQUIRE_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];

/// Function names never matched against summaries at call sites: too
/// generic, they collide with std types across files.
const SUMMARY_STOPLIST: &[&str] = &[
    "lock", "try_lock", "read", "write", "drop", "new", "default", "len", "get", "get_mut",
    "insert", "remove", "push", "pop", "clone", "iter", "next", "unwrap", "expect", "map",
    "collect", "contains", "clear", "extend", "from", "into", "as_ref", "as_mut", "is_empty",
];

/// Run the lock-order check, appending findings to `report`.
pub fn run(ws: &Workspace, cfg: &LockOrderConfig, report: &mut LintReport) {
    anchor_check(ws, cfg, report);
    let observed = observed_edges(ws, cfg);

    // Dedup to (from, to) keeping the first location for the finding.
    let mut first: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for e in &observed {
        first
            .entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| (e.file.clone(), e.line));
    }

    for ((from, to), (file, line)) in &first {
        if !cfg.allows(from, to) {
            report.push(Finding {
                code: "locks.new-edge",
                severity: Severity::Error,
                file: file.clone(),
                line: *line,
                detail: format!(
                    "acquires `{to}` while holding `{from}`; this order is not in tools/lock-order.toml — add it with a reason or restructure"
                ),
            });
        }
    }

    for e in &cfg.edges {
        if e.reason.starts_with("dynamic:") {
            continue;
        }
        if !first.contains_key(&(e.from.clone(), e.to.clone())) {
            report.push(Finding {
                code: "locks.unused-edge",
                severity: Severity::Warning,
                file: "tools/lock-order.toml".to_string(),
                line: 0,
                detail: format!(
                    "allowlisted edge `{} -> {}` was not observed; delete it or mark its reason `dynamic:`",
                    e.from, e.to
                ),
            });
        }
    }

    // Cycles over the union of allowed and observed edges.
    let mut union: BTreeSet<(String, String)> = first.keys().cloned().collect();
    for e in &cfg.edges {
        union.insert((e.from.clone(), e.to.clone()));
    }
    for cycle in find_cycles(&union) {
        let anchor = first
            .get(&(cycle[0].clone(), cycle[1 % cycle.len()].clone()))
            .cloned()
            .unwrap_or_else(|| ("tools/lock-order.toml".to_string(), 0));
        // Close the loop in the rendering: `a -> b` reads like an edge,
        // `a -> b -> a` reads like the cycle it is.
        let mut path = cycle.join(" -> ");
        if let Some(head) = cycle.first() {
            path.push_str(" -> ");
            path.push_str(head);
        }
        report.push(Finding {
            code: "locks.cycle",
            severity: Severity::Error,
            file: anchor.0,
            line: anchor.1,
            detail: format!("acquisition-order cycle: {path}"),
        });
    }
}

/// Every lock in `[locks]` must still be anchored to a real field in its
/// file, so a refactor that moves a lock cannot silently shrink the
/// model.
fn anchor_check(ws: &Workspace, cfg: &LockOrderConfig, report: &mut LintReport) {
    for lock in &cfg.locks {
        let Some(lexed) = ws.lex(&lock.file) else {
            report.push(Finding {
                code: "locks.missing-lock-field",
                severity: Severity::Error,
                file: lock.file.clone(),
                line: 0,
                detail: format!("file for lock `{}` is missing or unreadable", lock.name),
            });
            continue;
        };
        let found = lexed.tokens.iter().any(|t| t.is_ident(&lock.field));
        if !found {
            report.push(Finding {
                code: "locks.missing-lock-field",
                severity: Severity::Error,
                file: lock.file.clone(),
                line: 0,
                detail: format!(
                    "lock `{}` is anchored to `{}::{}` but that identifier no longer appears; update tools/lock-order.toml",
                    lock.name, lock.file, lock.field
                ),
            });
        }
    }
}

/// Extract the full observed acquisition graph (also powers
/// `--list-edges`).
pub fn observed_edges(ws: &Workspace, cfg: &LockOrderConfig) -> Vec<ObservedEdge> {
    // (file, field) -> lock name.
    let mut lock_of: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    let mut files: BTreeSet<&str> = BTreeSet::new();
    for l in &cfg.locks {
        lock_of.insert((l.file.as_str(), l.field.as_str()), l.name.as_str());
        files.insert(l.file.as_str());
    }

    // Pass 1: function spans per file, then direct-acquisition summaries.
    let mut fns: Vec<FnDef> = Vec::new();
    for file in &files {
        if let Some(lexed) = ws.lex(file) {
            extract_fns(&lexed, file, &mut fns);
        }
    }
    let mut summaries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &fns {
        let Some(lexed) = ws.lex(&f.file) else {
            continue;
        };
        let direct = direct_acquisitions(&lexed, f, &lock_of);
        summaries.entry(f.name.clone()).or_default().extend(direct);
    }
    // Fixpoint: fold callee summaries into callers.
    loop {
        let mut changed = false;
        for f in &fns {
            let Some(lexed) = ws.lex(&f.file) else {
                continue;
            };
            let mut acc: BTreeSet<String> = summaries.get(&f.name).cloned().unwrap_or_default();
            let before = acc.len();
            for callee in called_names(&lexed, f) {
                if let Some(s) = summaries.get(&callee) {
                    acc.extend(s.iter().cloned());
                }
            }
            if acc.len() != before {
                changed = true;
            }
            summaries.insert(f.name.clone(), acc);
        }
        if !changed {
            break;
        }
    }

    // Name -> returns-a-guard (ambiguity resolves to "yes", which errs
    // toward reporting more held-lock context rather than less).
    let mut returns_guard: BTreeMap<String, bool> = BTreeMap::new();
    for f in &fns {
        let e = returns_guard.entry(f.name.clone()).or_insert(false);
        *e = *e || f.returns_guard;
    }

    // Pass 2: walk each function with a held-lock stack.
    let mut edges = Vec::new();
    for f in &fns {
        let Some(lexed) = ws.lex(&f.file) else {
            continue;
        };
        walk_function(&lexed, f, &lock_of, &summaries, &returns_guard, &mut edges);
    }
    edges
}

/// A function definition found in a scanned file.
struct FnDef {
    file: String,
    name: String,
    /// Token range of the body, inside the braces.
    body: (usize, usize),
    /// Whether the return type names a `*Guard` type.
    returns_guard: bool,
}

fn extract_fns(lexed: &LexedFile, file: &str, out: &mut Vec<FnDef>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && !lexed.in_test[i]
            && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let (bstart, bend) = lexed.brace_span(j);
                let returns_guard = toks[i + 2..j]
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text.ends_with("Guard"));
                out.push(FnDef {
                    file: file.to_string(),
                    name,
                    body: (bstart, bend),
                    returns_guard,
                });
                i = bstart;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Is token `i` the method ident of an empty-args acquisition call
/// (`recv.lock()`)? Returns the receiver field name.
fn acquisition_at(toks: &[Token], i: usize) -> Option<&str> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident || !ACQUIRE_METHODS.contains(&t.text.as_str()) {
        return None;
    }
    if i < 2 || !toks[i - 1].is_punct('.') {
        return None;
    }
    if !(toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')')))
    {
        return None;
    }
    (toks[i - 2].kind == TokenKind::Ident).then(|| toks[i - 2].text.as_str())
}

/// Locks a function acquires directly in its own body.
fn direct_acquisitions(
    lexed: &LexedFile,
    f: &FnDef,
    lock_of: &BTreeMap<(&str, &str), &str>,
) -> BTreeSet<String> {
    let toks = &lexed.tokens;
    let mut out = BTreeSet::new();
    for i in f.body.0..f.body.1 {
        if let Some(field) = acquisition_at(toks, i) {
            if let Some(lock) = lock_of.get(&(f.file.as_str(), field)) {
                out.insert((*lock).to_string());
            }
        }
    }
    out
}

/// Names of functions called from `f`'s body (idents followed by `(`,
/// excluding the stoplist and acquisition methods).
fn called_names(lexed: &LexedFile, f: &FnDef) -> BTreeSet<String> {
    let toks = &lexed.tokens;
    let mut out = BTreeSet::new();
    for i in f.body.0..f.body.1 {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !SUMMARY_STOPLIST.contains(&t.text.as_str())
        {
            out.insert(t.text.clone());
        }
    }
    out
}

/// One lock held at a point during the walk.
struct Held {
    lock: String,
    depth: i32,
    binder: Option<String>,
    statement_scoped: bool,
    /// `drop(binder)` seen in a block deeper than the acquisition: the
    /// release is conditional on that branch, so the lock is only
    /// suspended until the block exits (a `let..else { drop(g);
    /// continue }` arm must not blind the rest of the function).
    suspended_at: Option<i32>,
}

fn walk_function(
    lexed: &LexedFile,
    f: &FnDef,
    lock_of: &BTreeMap<(&str, &str), &str>,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    returns_guard: &BTreeMap<String, bool>,
    edges: &mut Vec<ObservedEdge>,
) {
    let toks = &lexed.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = f.body.0;
    while i < f.body.1 {
        let t = &toks[i];
        if lexed.in_test[i] {
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            // A block closing back to a temporary's depth ends the
            // statement that created it (`for x in m.read().iter() {..}`
            // drops the iterator guard here), while let-bound guards
            // live on to the end of their scope.
            held.retain(|h| h.depth <= depth && !(h.statement_scoped && h.depth == depth));
            // Conditional drops lapse when their branch exits.
            for h in &mut held {
                if h.suspended_at.is_some_and(|d| d > depth) {
                    h.suspended_at = None;
                }
            }
        } else if t.is_punct(';') {
            held.retain(|h| !(h.statement_scoped && h.depth >= depth));
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            let victim = toks[i + 2].text.clone();
            let mut keep = Vec::new();
            for mut h in held.drain(..) {
                if h.binder.as_deref() == Some(victim.as_str()) {
                    if depth > h.depth {
                        h.suspended_at = Some(depth);
                    } else {
                        continue; // unconditional release
                    }
                }
                keep.push(h);
            }
            held = keep;
        } else if let Some(field) = acquisition_at(toks, i) {
            if let Some(lock) = lock_of.get(&(f.file.as_str(), field)) {
                record_edges(&held, lock, &f.file, t.line, edges);
                held.push(make_held(lock, toks, f.body.0, i, i + 2, depth));
            }
        } else if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !SUMMARY_STOPLIST.contains(&t.text.as_str())
            && t.text != f.name
        {
            if let Some(acquired) = summaries.get(&t.text) {
                for lock in acquired {
                    record_edges(&held, lock, &f.file, t.line, edges);
                }
                // A call that returns a guard keeps its single lock held
                // at the call site (the `lock_state` pattern).
                if acquired.len() == 1 && returns_guard.get(&t.text).copied().unwrap_or(false) {
                    if let Some(lock) = acquired.iter().next() {
                        let close = matching_paren(toks, i + 1);
                        held.push(make_held(lock, toks, f.body.0, i, close, depth));
                    }
                }
            }
        }
        i += 1;
    }
}

/// Build a [`Held`] entry for an acquisition whose call closes at token
/// `close`. The guard is let-bound only when the statement ends right
/// after the call — `let g = x.lock();`. A longer chain
/// (`let id = x.write().create(..)?;`) means the guard is a temporary
/// that dies at the end of the statement, whatever the `let` binds.
fn make_held(
    lock: &str,
    toks: &[Token],
    body_start: usize,
    i: usize,
    close: usize,
    depth: i32,
) -> Held {
    let ends_statement = toks.get(close + 1).is_some_and(|t| t.is_punct(';'));
    let binder = if ends_statement {
        let_binder(toks, body_start, i)
    } else {
        None
    };
    Held {
        lock: lock.to_string(),
        depth,
        statement_scoped: binder.is_none(),
        binder,
        suspended_at: None,
    }
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Record one edge from every currently-held, unsuspended lock to `to`.
fn record_edges(held: &[Held], to: &str, file: &str, line: u32, edges: &mut Vec<ObservedEdge>) {
    for h in held {
        if h.suspended_at.is_none() && h.lock != to {
            edges.push(ObservedEdge {
                from: h.lock.clone(),
                to: to.to_string(),
                file: file.to_string(),
                line,
            });
        }
    }
}

/// Find the first ident bound by `let` in the statement containing
/// token `i` (scanning back to the statement start), if any.
fn let_binder(toks: &[Token], body_start: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > body_start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            // First ident after `let`, skipping `mut`/`ref` and pattern
            // punctuation.
            for k in toks.iter().skip(j + 1).take(8) {
                if k.kind == TokenKind::Ident && k.text != "mut" && k.text != "ref" {
                    return Some(k.text.clone());
                }
            }
            return None;
        }
    }
    None
}

/// All elementary cycles in the edge set, as lock-name paths. Small
/// graphs only (the lock model has a dozen nodes).
fn find_cycles(edges: &BTreeSet<(String, String)>) -> Vec<Vec<String>> {
    let nodes: BTreeSet<&String> = edges.iter().flat_map(|(a, b)| [a, b]).collect();
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_sigs: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        let mut path: Vec<&String> = vec![start];
        dfs(
            start,
            start,
            edges,
            &mut path,
            &mut cycles,
            &mut seen_sigs,
            0,
        );
    }
    cycles
}

fn dfs<'a>(
    start: &'a String,
    at: &'a String,
    edges: &'a BTreeSet<(String, String)>,
    path: &mut Vec<&'a String>,
    cycles: &mut Vec<Vec<String>>,
    seen_sigs: &mut BTreeSet<Vec<String>>,
    depth: usize,
) {
    if depth > 16 {
        return;
    }
    for (a, b) in edges {
        if a != at {
            continue;
        }
        if b == start {
            // Canonical signature: rotate so the smallest node is first.
            let cyc: Vec<String> = path.iter().map(|s| (*s).clone()).collect();
            let min_idx = cyc
                .iter()
                .enumerate()
                .min_by(|x, y| x.1.cmp(y.1))
                .map_or(0, |(i, _)| i);
            let mut sig = cyc[min_idx..].to_vec();
            sig.extend_from_slice(&cyc[..min_idx]);
            if seen_sigs.insert(sig.clone()) {
                cycles.push(sig);
            }
        } else if !path.contains(&b) {
            path.push(b);
            dfs(start, b, edges, path, cycles, seen_sigs, depth + 1);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const CFG: &str = r#"
[locks]
"a" = "src/demo.rs::lock_a"
"b" = "src/demo.rs::lock_b"
[edges]
"a -> b" = "a wraps b by design"
"#;

    fn ws_with(src: &str) -> (Workspace, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ptlint-locks-{}-{:p}",
            std::process::id(),
            &src as *const _
        ));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/demo.rs"), src).unwrap();
        (Workspace::new(Path::new(&dir)), dir)
    }

    #[test]
    fn nested_acquisition_yields_edge() {
        let (ws, dir) = ws_with(
            "fn f(&self) { let g = self.lock_a.lock(); let h = self.lock_b.lock(); use_both(g, h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("a", "b"));
        let mut report = LintReport::new();
        run(&ws, &cfg, &mut report);
        assert_eq!(report.errors(), 0, "{:?}", report.findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reversed_order_is_a_new_edge_and_a_cycle() {
        let (ws, dir) = ws_with(
            "fn f(&self) { let g = self.lock_a.lock(); touch(self.lock_b.lock()); }\nfn g(&self) { let h = self.lock_b.lock(); touch(self.lock_a.lock()); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let mut report = LintReport::new();
        run(&ws, &cfg, &mut report);
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"locks.new-edge"), "{codes:?}");
        assert!(codes.contains(&"locks.cycle"), "{codes:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_releases_the_guard() {
        let (ws, dir) = ws_with(
            "fn f(&self) { let g = self.lock_a.lock(); drop(g); let h = self.lock_b.lock(); touch(h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert!(edges.is_empty(), "{edges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let (ws, dir) = ws_with(
            "fn f(&self) { self.lock_a.lock().poke(); let h = self.lock_b.lock(); touch(h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert!(edges.is_empty(), "{edges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chained_let_binds_the_result_not_the_guard() {
        // `let id = ...write().create(..)?;` — the guard is a temporary;
        // a later acquisition in the next statement must not see it.
        let (ws, dir) = ws_with(
            "fn f(&self) { let id = self.lock_a.lock().create()?; let h = self.lock_b.lock(); touch(id, h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert!(edges.is_empty(), "{edges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conditional_drop_only_releases_inside_its_branch() {
        // The drop in the inner block is conditional; after the block
        // exits the guard is live again and the edge must be seen.
        let (ws, dir) = ws_with(
            "fn f(&self) { let g = self.lock_a.lock(); if bad() { drop(g); return; } let h = self.lock_b.lock(); touch(h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("a", "b"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_iterator_guard_dies_when_the_loop_closes() {
        let (ws, dir) = ws_with(
            "fn f(&self) { for t in self.lock_a.lock().iter() { touch(t); } let h = self.lock_b.lock(); touch(h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert!(edges.is_empty(), "{edges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_iterator_guard_is_held_during_the_body() {
        let (ws, dir) = ws_with(
            "fn f(&self) { for t in self.lock_a.lock().iter() { let h = self.lock_b.lock(); touch(t, h); } }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("a", "b"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn callee_summary_produces_cross_function_edge() {
        let (ws, dir) = ws_with(
            "fn inner(&self) { let h = self.lock_b.lock(); touch(h); }\nfn outer(&self) { let g = self.lock_a.lock(); self.inner(); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("a", "b"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scope_exit_releases_inner_guard() {
        let (ws, dir) = ws_with(
            "fn f(&self) { { let g = self.lock_b.lock(); touch(g); } let h = self.lock_a.lock(); touch(h); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let edges = observed_edges(&ws, &cfg);
        assert!(edges.is_empty(), "{edges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unused_edge_warns_unless_dynamic() {
        // Mention both lock fields so the anchor check stays quiet.
        let (ws, dir) = ws_with(
            "struct S { lock_a: M, lock_b: M }\nfn f(&self) { let _x = self.lock_a.lock(); }",
        );
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let mut report = LintReport::new();
        run(&ws, &cfg, &mut report);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.findings[0].code, "locks.unused-edge");

        let dyn_cfg = LockOrderConfig::parse(
            "[locks]\n\"a\" = \"src/demo.rs::lock_a\"\n\"b\" = \"src/demo.rs::lock_b\"\n[edges]\n\"a -> b\" = \"dynamic: via hook\"\n",
        )
        .unwrap();
        let mut report = LintReport::new();
        run(&ws, &dyn_cfg, &mut report);
        assert_eq!(report.warnings(), 0, "{:?}", report.findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_anchor_field_is_an_error() {
        let (ws, dir) = ws_with("fn f() {}");
        let cfg = LockOrderConfig::parse(CFG).unwrap();
        let mut report = LintReport::new();
        run(&ws, &cfg, &mut report);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "locks.missing-lock-field"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
