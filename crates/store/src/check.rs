//! Structural integrity verification ("fsck") for the storage engine.
//!
//! The paper's case for putting performance data in a real DBMS rests on
//! the store being *trustworthy* — scalability, robustness, fault
//! tolerance. This module is the proof obligation behind that claim: a
//! whole-database verifier that re-derives every structural invariant the
//! engine relies on and reports violations as typed [`Finding`]s instead
//! of undefined behavior downstream.
//!
//! Checked invariants, by layer:
//!
//! * **Slotted pages** ([`check_page`]) — magic/type tags, slot directory
//!   vs. free-space accounting, every live record inside the record area,
//!   no overlapping cells.
//! * **B+trees** ([`verify_tree`]) — strict composite `(key, rowid)`
//!   ordering globally (the in-memory equivalent of sibling-link
//!   consistency), uniform leaf depth, fanout and fill-factor bounds,
//!   separator/child agreement, entry-count accounting.
//! * **WAL** ([`verify_wal`]) — LSN monotonicity, per-record CRC framing,
//!   torn-tail detection with the byte offset of the damage.
//! * **Catalog & referential integrity** ([`verify_database`]) — page
//!   ownership (in-range, no duplicates, no cross-table sharing), index
//!   definitions that resolve, and — in `deep` mode — a full bijection
//!   check between index entries and live heap rows.
//! * **Closure tables** ([`verify_closure`]) — the ancestor/descendant
//!   transitive closure equals the one recomputed from the parent
//!   relation, and the two tables mirror each other exactly.
//!
//! Every invariant, finding code, and the JSON report schema are
//! documented in `docs/FSCK.md`. The same checks back three surfaces: the
//! `pt fsck` CLI subcommand, `debug_assert!`-gated hooks at mutation
//! sites (`page.rs`, `btree.rs`, `wal.rs`), and the post-recovery
//! verification pass in [`Database::open`](crate::db::Database::open).

use crate::btree::{BTreeIndex, Entry, Node, MAX_KEYS};
use crate::catalog::{IndexMeta, TableId, TableMeta};
use crate::db::Database;
use crate::error::Result;
use crate::metrics::Json;
use crate::page::{PageId, PageRef, PageType, RowId, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};
use crate::value::{decode_row, Row};
use crate::wal::Wal;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but survivable: the engine still functions (e.g. an
    /// orphaned page wasting space, an underfull B+tree node).
    Warning,
    /// A broken invariant: data is missing, unreadable, or inconsistent.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One verified-invariant violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable machine-readable invariant name, e.g. `page.overlap`.
    /// The full vocabulary is documented in `docs/FSCK.md`.
    pub code: &'static str,
    /// Severity of the violation.
    pub severity: Severity,
    /// Page the finding concerns, if page-scoped.
    pub page: Option<u32>,
    /// Table, index, or subsystem the finding concerns (may be empty).
    pub object: String,
    /// Human-readable description with the observed values.
    pub detail: String,
}

impl Finding {
    fn new(code: &'static str, severity: Severity, detail: String) -> Self {
        Finding {
            code,
            severity,
            page: None,
            object: String::new(),
            detail,
        }
    }

    /// Build a finding originating outside the storage engine — e.g. the
    /// PerfTrack core layer's referential and closure-table checks, which
    /// append their results to the same [`FsckReport`] the engine produced
    /// so `pt fsck` emits one unified report.
    pub fn external(code: &'static str, severity: Severity, object: &str, detail: String) -> Self {
        Finding::new(code, severity, detail).on_object(object)
    }

    fn on_page(mut self, page: u32) -> Self {
        self.page = Some(page);
        self
    }

    fn on_object(mut self, object: &str) -> Self {
        self.object = object.to_string();
        self
    }

    /// Serialize this finding to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("code".into(), Json::Str(self.code.into())),
            ("severity".into(), Json::Str(self.severity.to_string())),
            (
                "page".into(),
                self.page.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
            ),
            ("object".into(), Json::Str(self.object.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

/// Per-code cap on findings kept in a report; counts stay exact beyond it.
const FINDINGS_CAP_PER_CODE: usize = 50;

/// Outcome of a verification pass: findings plus coverage counters.
#[derive(Debug)]
pub struct FsckReport {
    /// Whether the expensive (`--deep`) checks ran.
    pub deep: bool,
    /// The findings, in discovery order. Capped per code (see
    /// `docs/FSCK.md`); [`FsckReport::error_count`] stays exact.
    pub findings: Vec<Finding>,
    /// Pages examined (catalog-owned plus orphan sweep).
    pub pages_checked: u64,
    /// Live rows decoded and schema-checked.
    pub rows_checked: u64,
    /// B+tree entries examined.
    pub index_entries_checked: u64,
    /// WAL records examined.
    pub wal_records_checked: u64,
    errors: u64,
    warnings: u64,
    per_code: HashMap<&'static str, usize>,
}

impl FsckReport {
    /// An empty report.
    pub fn new(deep: bool) -> Self {
        FsckReport {
            deep,
            findings: Vec::new(),
            pages_checked: 0,
            rows_checked: 0,
            index_entries_checked: 0,
            wal_records_checked: 0,
            errors: 0,
            warnings: 0,
            per_code: HashMap::new(),
        }
    }

    /// Record a finding. Counters are always exact; the stored list is
    /// capped per code so a single corrupt page cannot flood the report.
    pub fn push(&mut self, f: Finding) {
        match f.severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        let n = self.per_code.entry(f.code).or_insert(0);
        *n += 1;
        if *n <= FINDINGS_CAP_PER_CODE {
            self.findings.push(f);
        } else if *n == FINDINGS_CAP_PER_CODE + 1 {
            self.findings.push(Finding::new(
                "fsck.truncated",
                Severity::Warning,
                format!(
                    "further `{}` findings suppressed (counts stay exact)",
                    f.code
                ),
            ));
        }
    }

    /// Exact number of Error-severity findings.
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Exact number of Warning-severity findings.
    pub fn warning_count(&self) -> u64 {
        self.warnings
    }

    /// True when the store is pristine: no errors *and* no warnings.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }

    /// One-line summary, e.g. for error messages.
    pub fn summary(&self) -> String {
        let mut s = format!("{} error(s), {} warning(s)", self.errors, self.warnings);
        if let Some(first) = self.findings.iter().find(|f| f.severity == Severity::Error) {
            s.push_str(&format!(" (first: {} — {})", first.code, first.detail));
        }
        s
    }

    /// Serialize the whole report. Schema documented in `docs/FSCK.md`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("deep".into(), Json::Bool(self.deep)),
            ("errors".into(), Json::UInt(self.errors)),
            ("warnings".into(), Json::UInt(self.warnings)),
            ("pages_checked".into(), Json::UInt(self.pages_checked)),
            ("rows_checked".into(), Json::UInt(self.rows_checked)),
            (
                "index_entries_checked".into(),
                Json::UInt(self.index_entries_checked),
            ),
            (
                "wal_records_checked".into(),
                Json::UInt(self.wal_records_checked),
            ),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// Render a human-readable report table.
    pub fn render_table(&self) -> String {
        let mode = if self.deep { "deep" } else { "fast" };
        let mut out = format!(
            "fsck ({mode}): {} error(s), {} warning(s)\n  pages={} rows={} index_entries={} wal_records={}\n",
            self.errors,
            self.warnings,
            self.pages_checked,
            self.rows_checked,
            self.index_entries_checked,
            self.wal_records_checked
        );
        if self.findings.is_empty() {
            out.push_str("  clean: every checked invariant holds\n");
        }
        for f in &self.findings {
            let sev = match f.severity {
                Severity::Error => "E",
                Severity::Warning => "W",
            };
            let page = f.page.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  [{sev}] {:<22} page {:<6} {:<24} {}\n",
                f.code, page, f.object, f.detail
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Slotted-page invariants
// ---------------------------------------------------------------------------

/// Verify every structural invariant of one page buffer.
///
/// Checks, in order: magic number, type tag, slot-directory bounds,
/// `free_end` within `[directory end, PAGE_SIZE]`, every live slot's
/// record inside the record area, and no two live records overlapping.
pub fn check_page(buf: &[u8], page_no: u32) -> Vec<Finding> {
    let mut out = Vec::new();
    let p = PageRef::new(buf);
    if !p.is_formatted() {
        out.push(
            Finding::new(
                "page.magic",
                Severity::Error,
                "bad magic number (unformatted or foreign bytes)".into(),
            )
            .on_page(page_no),
        );
        return out;
    }
    if let Err(e) = p.page_type() {
        out.push(Finding::new("page.type", Severity::Error, e.to_string()).on_page(page_no));
        return out;
    }
    let count = usize::from(p.slot_count());
    let dir_end = HEADER_SIZE + count * SLOT_SIZE;
    if dir_end > PAGE_SIZE {
        out.push(
            Finding::new(
                "page.dir-bounds",
                Severity::Error,
                format!("slot directory of {count} slots overruns the page"),
            )
            .on_page(page_no),
        );
        return out;
    }
    let fe = usize::from(p.free_end());
    if fe < dir_end || fe > PAGE_SIZE {
        out.push(
            Finding::new(
                "page.free-end",
                Severity::Error,
                format!("free_end {fe} outside [{dir_end}, {PAGE_SIZE}]"),
            )
            .on_page(page_no),
        );
        return out;
    }
    // Live cells: in-bounds, then pairwise non-overlapping.
    let mut live: Vec<(usize, usize, u16)> = Vec::new();
    for s in 0..p.slot_count() {
        let (off, len) = p.slot(s);
        if off == 0 {
            continue; // tombstone
        }
        let (off, len) = (usize::from(off), usize::from(len));
        if off < fe || off + len > PAGE_SIZE {
            out.push(
                Finding::new(
                    "page.slot-bounds",
                    Severity::Error,
                    format!(
                        "slot {s}: record [{off}, {}) outside record area [{fe}, {PAGE_SIZE})",
                        off + len
                    ),
                )
                .on_page(page_no),
            );
        } else {
            live.push((off, len, s));
        }
    }
    live.sort_unstable();
    for pair in live.windows(2) {
        let (a_off, a_len, a_slot) = pair[0];
        let (b_off, _, b_slot) = pair[1];
        // Zero-length records may share an offset; only real extents clash.
        if a_off + a_len > b_off && a_len > 0 {
            out.push(
                Finding::new(
                    "page.overlap",
                    Severity::Error,
                    format!("records in slots {a_slot} and {b_slot} overlap at offset {b_off}"),
                )
                .on_page(page_no),
            );
        }
    }
    out
}

/// Debug-hook helper: `true` when `buf` has no Error-severity page
/// findings. Used by `debug_assert!`s at mutation sites in `page.rs`.
pub fn page_is_sound(buf: &[u8]) -> bool {
    check_page(buf, 0)
        .iter()
        .all(|f| f.severity != Severity::Error)
}

// ---------------------------------------------------------------------------
// B+tree invariants
// ---------------------------------------------------------------------------

fn cmp_entries(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.as_ref().cmp(b.0.as_ref()).then(a.1.cmp(&b.1))
}

struct TreeWalk<'a> {
    object: &'a str,
    out: Vec<Finding>,
    leaf_depths: HashSet<usize>,
    entries_seen: usize,
    last: Option<Entry>,
}

impl TreeWalk<'_> {
    fn finding(&mut self, code: &'static str, severity: Severity, detail: String) {
        let object = self.object;
        self.out
            .push(Finding::new(code, severity, detail).on_object(object));
    }

    fn check_entry(&mut self, e: &Entry, lo: Option<&Entry>, hi: Option<&Entry>) {
        if let Some(l) = lo {
            if cmp_entries(e, l).is_lt() {
                self.finding(
                    "tree.sep",
                    Severity::Error,
                    format!(
                        "entry below its subtree's separator lower bound (key {:?})",
                        e.0
                    ),
                );
            }
        }
        if let Some(h) = hi {
            if cmp_entries(e, h).is_ge() {
                self.finding(
                    "tree.sep",
                    Severity::Error,
                    format!(
                        "entry at/above its subtree's separator upper bound (key {:?})",
                        e.0
                    ),
                );
            }
        }
        if let Some(prev) = self.last.take() {
            if cmp_entries(&prev, e).is_ge() {
                self.finding(
                    "tree.order",
                    Severity::Error,
                    format!(
                        "composite (key, rowid) order violated between leaves: {:?}/{} then {:?}/{}",
                        prev.0, prev.1, e.0, e.1
                    ),
                );
            }
        }
        self.last = Some((e.0.clone(), e.1));
        self.entries_seen += 1;
    }

    fn walk(&mut self, node: &Node, depth: usize, lo: Option<&Entry>, hi: Option<&Entry>) {
        match node {
            Node::Leaf(entries) => {
                self.leaf_depths.insert(depth);
                if entries.len() > MAX_KEYS {
                    self.finding(
                        "tree.fanout",
                        Severity::Error,
                        format!("leaf holds {} entries (max {MAX_KEYS})", entries.len()),
                    );
                }
                if depth > 0 && entries.len() < MAX_KEYS / 2 {
                    // Deletes do not rebalance (by design), so underfull
                    // nodes are legal but worth surfacing.
                    self.finding(
                        "tree.fill",
                        Severity::Warning,
                        format!(
                            "leaf below half fill: {} of {MAX_KEYS} entries",
                            entries.len()
                        ),
                    );
                }
                for e in entries {
                    self.check_entry(e, lo, hi);
                }
            }
            Node::Internal { seps, children } => {
                if children.len() != seps.len() + 1 {
                    self.finding(
                        "tree.sep",
                        Severity::Error,
                        format!(
                            "internal node has {} separators but {} children",
                            seps.len(),
                            children.len()
                        ),
                    );
                    return; // child/separator pairing is meaningless now
                }
                if seps.len() > MAX_KEYS {
                    self.finding(
                        "tree.fanout",
                        Severity::Error,
                        format!(
                            "internal node holds {} separators (max {MAX_KEYS})",
                            seps.len()
                        ),
                    );
                }
                if depth > 0 && seps.len() < MAX_KEYS / 2 {
                    self.finding(
                        "tree.fill",
                        Severity::Warning,
                        format!(
                            "internal node below half fill: {} of {MAX_KEYS} separators",
                            seps.len()
                        ),
                    );
                }
                for pair in seps.windows(2) {
                    if cmp_entries(&pair[0], &pair[1]).is_ge() {
                        self.finding(
                            "tree.order",
                            Severity::Error,
                            format!(
                                "separators out of order: {:?} then {:?}",
                                pair[0].0, pair[1].0
                            ),
                        );
                    }
                }
                for (i, child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let chi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    self.walk(child, depth + 1, clo, chi);
                }
            }
        }
    }
}

/// Verify every structural invariant of a B+tree.
///
/// Checks: strict composite `(key, rowid)` ascent across the whole tree
/// (which subsumes sibling-order consistency for this in-memory layout),
/// uniform leaf depth, node fanout ≤ `MAX_KEYS`, fill factor (underfull
/// non-root nodes are a Warning — deletes do not rebalance), separator /
/// child-count agreement, separator bounds on every subtree, and the
/// entry-count accounting against [`BTreeIndex::len`].
pub fn verify_tree(tree: &BTreeIndex, object: &str) -> Vec<Finding> {
    let mut w = TreeWalk {
        object,
        out: Vec::new(),
        leaf_depths: HashSet::new(),
        entries_seen: 0,
        last: None,
    };
    w.walk(tree.root_node(), 0, None, None);
    if w.leaf_depths.len() > 1 {
        let mut depths: Vec<usize> = w.leaf_depths.iter().copied().collect();
        depths.sort_unstable();
        w.finding(
            "tree.depth",
            Severity::Error,
            format!("leaves at differing depths {depths:?}"),
        );
    }
    if w.entries_seen != tree.len() {
        w.finding(
            "tree.count",
            Severity::Error,
            format!(
                "tree reports len {} but holds {} entries",
                tree.len(),
                w.entries_seen
            ),
        );
    }
    w.out
}

/// Debug-hook helper: `true` when the tree has no Error-severity
/// findings. Used by the sampled `debug_assert!` in `btree.rs`.
pub fn tree_is_sound(tree: &BTreeIndex) -> bool {
    verify_tree(tree, "")
        .iter()
        .all(|f| f.severity != Severity::Error)
}

// ---------------------------------------------------------------------------
// WAL chain
// ---------------------------------------------------------------------------

/// Verify the durable write-ahead log: every intact record's CRC already
/// gates the scan; on top of that, LSNs must be strictly increasing and
/// any bytes past the last intact record are reported as a torn tail
/// (Warning — recovery truncates them by design).
///
/// Returns the findings and the number of records examined.
pub fn verify_wal(wal: &Wal) -> Result<(Vec<Finding>, u64)> {
    let scan = wal.scan_report()?;
    let mut out = Vec::new();
    let mut last_lsn = 0u64;
    for r in &scan.records {
        if last_lsn != 0 && r.lsn <= last_lsn {
            out.push(
                Finding::new(
                    "wal.lsn",
                    Severity::Error,
                    format!("LSN not strictly increasing: {} after {}", r.lsn, last_lsn),
                )
                .on_object("wal"),
            );
        }
        last_lsn = r.lsn;
    }
    if scan.consumed_bytes < scan.total_bytes {
        out.push(
            Finding::new(
                "wal.torn",
                Severity::Warning,
                format!(
                    "torn tail: {} of {} bytes unparseable starting at offset {}",
                    scan.total_bytes - scan.consumed_bytes,
                    scan.total_bytes,
                    scan.consumed_bytes
                ),
            )
            .on_object("wal"),
        );
    }
    Ok((out, scan.records.len() as u64))
}

// ---------------------------------------------------------------------------
// Closure-table transitive consistency
// ---------------------------------------------------------------------------

const CLOSURE_DIFF_CAP: usize = 10;

fn push_pair_diffs(
    out: &mut Vec<Finding>,
    code: &'static str,
    mut pairs: Vec<(i64, i64)>,
    what: &str,
) {
    if pairs.is_empty() {
        return;
    }
    pairs.sort_unstable();
    let total = pairs.len();
    for (node, anc) in pairs.into_iter().take(CLOSURE_DIFF_CAP) {
        out.push(
            Finding::new(code, Severity::Error, format!("{what}: ({node}, {anc})"))
                .on_object("closure"),
        );
    }
    if total > CLOSURE_DIFF_CAP {
        out.push(
            Finding::new(
                code,
                Severity::Error,
                format!(
                    "{what}: {} further pair(s) omitted",
                    total - CLOSURE_DIFF_CAP
                ),
            )
            .on_object("closure"),
        );
    }
}

/// Verify a parent-pointer hierarchy against its materialized closure
/// tables.
///
/// `nodes` is the base relation `(id, parent_id)`; `ancestors` holds
/// `(node, ancestor)` pairs and `descendants` holds `(node, descendant)`
/// pairs, both excluding self-pairs (the convention the PerfTrack loader
/// maintains). The expected closure is recomputed by walking parent
/// chains; cycles and dangling parents are findings of their own.
pub fn verify_closure(
    nodes: &[(i64, Option<i64>)],
    ancestors: &[(i64, i64)],
    descendants: &[(i64, i64)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let parent: HashMap<i64, Option<i64>> = nodes.iter().copied().collect();
    if parent.len() != nodes.len() {
        out.push(
            Finding::new(
                "closure.node-dup",
                Severity::Error,
                format!(
                    "{} duplicate node id(s) in the base relation",
                    nodes.len() - parent.len()
                ),
            )
            .on_object("closure"),
        );
    }
    let mut expected: HashSet<(i64, i64)> = HashSet::new();
    for &(id, p) in nodes {
        let mut cur = p;
        let mut steps = 0usize;
        while let Some(a) = cur {
            if !parent.contains_key(&a) {
                out.push(
                    Finding::new(
                        "closure.parent",
                        Severity::Error,
                        format!("node {id}: ancestor chain reaches unknown node {a}"),
                    )
                    .on_object("closure"),
                );
                break;
            }
            expected.insert((id, a));
            steps += 1;
            if steps > nodes.len() {
                out.push(
                    Finding::new(
                        "closure.cycle",
                        Severity::Error,
                        format!("node {id}: parent chain does not terminate (cycle)"),
                    )
                    .on_object("closure"),
                );
                break;
            }
            cur = parent[&a];
        }
    }
    let actual: HashSet<(i64, i64)> = ancestors.iter().copied().collect();
    if actual.len() != ancestors.len() {
        out.push(
            Finding::new(
                "closure.dup",
                Severity::Warning,
                format!(
                    "{} duplicate ancestor pair(s)",
                    ancestors.len() - actual.len()
                ),
            )
            .on_object("closure"),
        );
    }
    push_pair_diffs(
        &mut out,
        "closure.missing",
        expected.difference(&actual).copied().collect(),
        "pair derivable from parents but absent from resource_has_ancestor",
    );
    push_pair_diffs(
        &mut out,
        "closure.extra",
        actual.difference(&expected).copied().collect(),
        "resource_has_ancestor pair not derivable from parents",
    );
    // resource_has_descendant must be the exact mirror of the ancestor
    // table: row (a, d) exists iff (d, a) is an ancestor pair.
    let mirrored: HashSet<(i64, i64)> = descendants.iter().map(|&(a, d)| (d, a)).collect();
    push_pair_diffs(
        &mut out,
        "closure.mirror",
        mirrored.symmetric_difference(&actual).copied().collect(),
        "ancestor/descendant tables disagree (pair present on one side only)",
    );
    out
}

// ---------------------------------------------------------------------------
// Whole-database verification
// ---------------------------------------------------------------------------

/// Run every store-level check over `db`.
///
/// The fast pass verifies the catalog, every catalog-owned page, every
/// row's decodability and schema conformance, orphan pages, B+tree
/// structure, per-index entry counts, unique-key uniqueness, and the WAL
/// chain. `deep` adds the index ↔ heap bijection: every entry resolves to
/// a live row whose recomputed key matches, and every live row is present
/// in every index over its table.
///
/// Call through [`Database::verify`](crate::db::Database::verify), which
/// serializes against the writer so the view is quiescent.
pub fn verify_database(db: &Database, deep: bool) -> Result<FsckReport> {
    let mut report = FsckReport::new(deep);
    let (mut tables, mut index_metas): (Vec<TableMeta>, Vec<IndexMeta>) = {
        let cat = db.catalog_read();
        (
            cat.all_tables().into_iter().cloned().collect(),
            cat.indexes.values().cloned().collect(),
        )
    };
    tables.sort_by_key(|t| t.id.0);
    index_metas.sort_by_key(|m| m.id.0);
    let page_count = db.pool_ref().disk().page_count();

    // Catalog: page ownership and index definitions.
    let mut owner: HashMap<PageId, TableId> = HashMap::new();
    for t in &tables {
        let mut seen: HashSet<PageId> = HashSet::new();
        for &pg in &t.pages {
            if pg.0 >= page_count {
                report.push(
                    Finding::new(
                        "catalog.page-range",
                        Severity::Error,
                        format!("references page {} but only {page_count} exist", pg.0),
                    )
                    .on_object(&t.name),
                );
                continue;
            }
            if !seen.insert(pg) {
                report.push(
                    Finding::new(
                        "catalog.page-dup",
                        Severity::Error,
                        format!("page {} listed twice in the table's heap", pg.0),
                    )
                    .on_page(pg.0)
                    .on_object(&t.name),
                );
            }
            if let Some(prev) = owner.insert(pg, t.id) {
                if prev != t.id {
                    report.push(
                        Finding::new(
                            "catalog.page-shared",
                            Severity::Error,
                            format!("page {} owned by table ids {} and {}", pg.0, prev.0, t.id.0),
                        )
                        .on_page(pg.0),
                    );
                }
            }
        }
    }
    for im in &index_metas {
        match tables.iter().find(|t| t.id == im.table) {
            None => report.push(
                Finding::new(
                    "catalog.index-table",
                    Severity::Error,
                    format!("index references missing table id {}", im.table.0),
                )
                .on_object(&im.name),
            ),
            Some(t) => {
                if im.columns.iter().any(|&c| c >= t.columns.len()) {
                    report.push(
                        Finding::new(
                            "catalog.index-column",
                            Severity::Error,
                            format!(
                                "index column ordinals {:?} exceed {}'s schema",
                                im.columns, t.name
                            ),
                        )
                        .on_object(&im.name),
                    );
                }
            }
        }
    }

    // ANALYZE statistics (the `PTST` catalog section): every statistics
    // entry must reference a live table or index, and each histogram's
    // bucket bounds must be in strictly ascending key order — a
    // violation means `eq_estimate`'s bucket search is meaningless.
    // Drift is deliberately NOT a finding: stale statistics are a
    // normal state the planner handles, not corruption.
    {
        let stats = db.catalog_read().stats.clone();
        let mut stat_tables: Vec<TableId> = stats.tables.keys().copied().collect();
        stat_tables.sort_by_key(|t| t.0);
        for tid in stat_tables {
            if !tables.iter().any(|t| t.id == tid) {
                report.push(Finding::new(
                    "stats.orphan-table",
                    Severity::Error,
                    format!("statistics recorded for missing table id {}", tid.0),
                ));
            }
        }
        let mut stat_indexes: Vec<_> = stats.indexes.iter().collect();
        stat_indexes.sort_by_key(|(id, _)| id.0);
        for (iid, istats) in stat_indexes {
            let Some(im) = index_metas.iter().find(|m| m.id == *iid) else {
                report.push(Finding::new(
                    "stats.orphan-index",
                    Severity::Error,
                    format!("statistics recorded for missing index id {}", iid.0),
                ));
                continue;
            };
            if istats.buckets.windows(2).any(|w| w[0].upper >= w[1].upper) {
                report.push(
                    Finding::new(
                        "stats.histogram-order",
                        Severity::Error,
                        "histogram bucket bounds are not strictly ascending".into(),
                    )
                    .on_object(&im.name),
                );
            }
        }
    }

    // Pages and rows, per table.
    let mut table_rows: HashMap<TableId, Vec<(RowId, Row)>> = HashMap::new();
    let mut table_clean: HashMap<TableId, bool> = HashMap::new();
    for t in &tables {
        let mut rows: Vec<(RowId, Row)> = Vec::new();
        let mut clean = true;
        for &pg in &t.pages {
            if pg.0 >= page_count {
                clean = false;
                continue; // already reported
            }
            report.pages_checked += 1;
            let (mut findings, page_rows) = db.pool_ref().with_page(pg, |buf| {
                let mut fs = check_page(&buf[..], pg.0);
                let p = PageRef::new(&buf[..]);
                if fs.is_empty() && matches!(p.page_type(), Ok(PageType::Free)) {
                    fs.push(
                        Finding::new(
                            "page.type",
                            Severity::Error,
                            "catalog-owned page is marked Free".into(),
                        )
                        .on_page(pg.0),
                    );
                }
                let mut page_rows: Vec<(RowId, Row)> = Vec::new();
                if fs.iter().all(|f| f.severity != Severity::Error) {
                    for (slot, rec) in p.iter() {
                        match decode_row(rec) {
                            Err(e) => fs.push(
                                Finding::new(
                                    "row.decode",
                                    Severity::Error,
                                    format!("slot {slot}: {e}"),
                                )
                                .on_page(pg.0),
                            ),
                            Ok(row) => {
                                if let Err(e) = t.check_row(&row) {
                                    fs.push(
                                        Finding::new(
                                            "row.schema",
                                            Severity::Error,
                                            format!("slot {slot}: {e}"),
                                        )
                                        .on_page(pg.0),
                                    );
                                }
                                page_rows.push((RowId { page: pg, slot }, row));
                            }
                        }
                    }
                }
                (fs, page_rows)
            })?;
            report.rows_checked += page_rows.len() as u64;
            rows.extend(page_rows);
            for f in findings.iter_mut() {
                if f.object.is_empty() {
                    f.object = t.name.clone();
                }
            }
            if findings.iter().any(|f| f.severity == Severity::Error) {
                clean = false;
            }
            for f in findings {
                report.push(f);
            }
        }
        table_rows.insert(t.id, rows);
        table_clean.insert(t.id, clean);
    }

    // Orphan sweep: allocated pages no table owns.
    for p in 0..page_count {
        let pg = PageId(p);
        if owner.contains_key(&pg) {
            continue;
        }
        report.pages_checked += 1;
        let finding = db.pool_ref().with_page(pg, |buf| {
            let pr = PageRef::new(&buf[..]);
            if !pr.is_formatted() {
                // A crash between DiskManager::allocate and the AllocPage
                // record reaching the log leaves a zeroed page behind.
                return Some(Finding::new(
                    "page.orphan",
                    Severity::Warning,
                    "allocated but unformatted (lost allocation, wasted space)".into(),
                ));
            }
            match pr.page_type() {
                Ok(PageType::Free) => None,
                Ok(PageType::Heap) => Some(Finding::new(
                    "page.orphan",
                    Severity::Warning,
                    format!(
                        "heap page with {} live record(s) unreachable from the catalog",
                        pr.live_count()
                    ),
                )),
                Err(e) => Some(Finding::new(
                    "page.orphan",
                    Severity::Warning,
                    e.to_string(),
                )),
            }
        })?;
        if let Some(f) = finding {
            report.push(f.on_page(p));
        }
    }

    // Indexes: structure, counts, uniqueness, and (deep) the bijection.
    for im in &index_metas {
        if !tables.iter().any(|t| t.id == im.table) {
            continue; // already reported
        }
        let Some(tree) = db.index_tree_opt(im.id) else {
            report.push(
                Finding::new(
                    "index.missing-tree",
                    Severity::Error,
                    "index defined in the catalog but no tree is installed".into(),
                )
                .on_object(&im.name),
            );
            continue;
        };
        let tree = tree.read();
        report.index_entries_checked += tree.len() as u64;
        for f in verify_tree(&tree, &im.name) {
            report.push(f);
        }
        if !table_clean.get(&im.table).copied().unwrap_or(false) {
            continue; // heap damage already reported; derived checks would cascade
        }
        let rows = &table_rows[&im.table];
        if tree.len() != rows.len() {
            report.push(
                Finding::new(
                    "index.count",
                    Severity::Error,
                    format!(
                        "tree holds {} entries but the heap has {} live rows",
                        tree.len(),
                        rows.len()
                    ),
                )
                .on_object(&im.name),
            );
        }
        if im.unique {
            let mut prev: Option<Vec<u8>> = None;
            tree.for_range(Bound::Unbounded, Bound::Unbounded, |key, rid| {
                if prev.as_deref() == Some(key) {
                    report.push(
                        Finding::new(
                            "index.unique",
                            Severity::Error,
                            format!(
                                "duplicate key in unique index (rowid {})",
                                RowId::from_u64(rid)
                            ),
                        )
                        .on_object(&im.name),
                    );
                }
                prev = Some(key.to_vec());
                true
            });
        }
        if deep {
            let by_rid: HashMap<u64, &Row> =
                rows.iter().map(|(rid, row)| (rid.to_u64(), row)).collect();
            let mut row_key = Vec::new();
            tree.for_range(Bound::Unbounded, Bound::Unbounded, |key, rid| {
                let Some(row) = by_rid.get(&rid) else {
                    report.push(
                        Finding::new(
                            "index.dangling",
                            Severity::Error,
                            format!("entry points at missing row {}", RowId::from_u64(rid)),
                        )
                        .on_object(&im.name),
                    );
                    return true;
                };
                row_key.clear();
                let rid = RowId::from_u64(rid);
                let detail = match im.encode_key(row, &mut row_key) {
                    Ok(()) if row_key == key => return true,
                    Ok(()) => format!("entry key no longer matches row {rid}"),
                    Err(e) => format!("entry key cannot be rebuilt from row {rid}: {e}"),
                };
                report.push(
                    Finding::new("index.stale-key", Severity::Error, detail).on_object(&im.name),
                );
                true
            });
            for (rid, row) in rows {
                row_key.clear();
                let detail = match im.encode_key(row, &mut row_key) {
                    Ok(()) if tree.get_eq(&row_key).contains(&rid.to_u64()) => continue,
                    Ok(()) => format!("live row {rid} absent from the index"),
                    Err(e) => format!("live row {rid} has no index key: {e}"),
                };
                report.push(
                    Finding::new("index.missing", Severity::Error, detail).on_object(&im.name),
                );
            }
        }
    }

    // WAL chain.
    let (wal_findings, wal_records) = verify_wal(db.wal_handle())?;
    report.wal_records_checked += wal_records;
    for f in wal_findings {
        report.push(f);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageMut;

    fn fresh_page() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        PageMut::new(&mut buf).format(PageType::Heap);
        buf
    }

    fn errors(fs: &[Finding]) -> usize {
        fs.iter().filter(|f| f.severity == Severity::Error).count()
    }

    #[test]
    fn clean_page_has_no_findings() {
        let mut buf = fresh_page();
        let mut p = PageMut::new(&mut buf);
        p.insert(b"alpha").unwrap();
        p.insert(b"beta").unwrap();
        p.delete(0).unwrap();
        p.insert(b"gamma-replaces-alpha").unwrap();
        assert!(check_page(&buf, 0).is_empty());
        assert!(page_is_sound(&buf));
    }

    #[test]
    fn unformatted_and_bad_type_detected() {
        let zero = vec![0u8; PAGE_SIZE];
        let fs = check_page(&zero, 7);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code, "page.magic");
        assert_eq!(fs[0].page, Some(7));

        let mut buf = fresh_page();
        buf[2] = 0xAB; // type tag
        let fs = check_page(&buf, 1);
        assert_eq!(fs[0].code, "page.type");
    }

    #[test]
    fn slot_pointing_outside_record_area_detected() {
        let mut buf = fresh_page();
        PageMut::new(&mut buf).insert(b"victim").unwrap();
        // Slot 0 lives at HEADER_SIZE; point its offset into the header.
        buf[HEADER_SIZE] = 0;
        buf[HEADER_SIZE + 1] = 4;
        let fs = check_page(&buf, 0);
        assert!(fs.iter().any(|f| f.code == "page.slot-bounds"), "{fs:?}");
        assert!(!page_is_sound(&buf));
    }

    #[test]
    fn overlapping_records_detected() {
        let mut buf = fresh_page();
        {
            let mut p = PageMut::new(&mut buf);
            p.insert(&[1u8; 64]).unwrap();
            p.insert(&[2u8; 64]).unwrap();
        }
        // Rewrite slot 1's offset to equal slot 0's (same 64-byte extent).
        let s0_off = [buf[HEADER_SIZE], buf[HEADER_SIZE + 1]];
        buf[HEADER_SIZE + SLOT_SIZE] = s0_off[0];
        buf[HEADER_SIZE + SLOT_SIZE + 1] = s0_off[1];
        let fs = check_page(&buf, 3);
        assert!(fs.iter().any(|f| f.code == "page.overlap"), "{fs:?}");
    }

    #[test]
    fn corrupt_free_end_detected() {
        let mut buf = fresh_page();
        PageMut::new(&mut buf).insert(b"x").unwrap();
        buf[6] = 0xFF; // OFF_FREE_END high byte → free_end > PAGE_SIZE
        buf[7] = 0xFF;
        let fs = check_page(&buf, 0);
        assert!(fs.iter().any(|f| f.code == "page.free-end"), "{fs:?}");
    }

    #[test]
    fn healthy_tree_verifies_clean_and_underfull_warns() {
        let mut t = BTreeIndex::new();
        for i in 0..5000u64 {
            t.insert(format!("k{:05}", (i * 7919) % 5000).as_bytes(), i);
        }
        assert!(errors(&verify_tree(&t, "t")) == 0);
        // Delete most entries: structure stays valid, fill drops.
        for i in 0..5000u64 {
            if i % 16 != 0 {
                t.remove(format!("k{:05}", (i * 7919) % 5000).as_bytes(), i);
            }
        }
        let fs = verify_tree(&t, "t");
        assert_eq!(errors(&fs), 0, "underfull is never an Error: {fs:?}");
        assert!(fs.iter().any(|f| f.code == "tree.fill"));
        assert!(tree_is_sound(&t));
    }

    #[test]
    fn wal_torn_tail_and_lsn_regression_detected() {
        let dir = std::env::temp_dir().join(format!("ptstore-chk-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verify.wal");
        let _ = std::fs::remove_file(&path);
        // Hand-craft a log: framing is `len | crc | body`, body starts with
        // lsn/txn. Write LSN 5 then LSN 3 (regression), then garbage.
        let mut bytes = Vec::new();
        for lsn in [5u64, 3u64] {
            let mut body = Vec::new();
            body.extend_from_slice(&lsn.to_be_bytes());
            body.extend_from_slice(&0u64.to_be_bytes()); // txn
            body.push(4); // Commit
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&crate::wal::crc32(&body).to_be_bytes());
            bytes.extend_from_slice(&body);
        }
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 9, 9, 9, 9, 9]);
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path).unwrap();
        let (fs, n) = verify_wal(&wal).unwrap();
        assert_eq!(n, 2);
        assert!(fs
            .iter()
            .any(|f| f.code == "wal.lsn" && f.severity == Severity::Error));
        assert!(fs
            .iter()
            .any(|f| f.code == "wal.torn" && f.severity == Severity::Warning));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn closure_consistency_checks() {
        // 1 → 2 → 3 chain (3's parent is 2, 2's parent is 1).
        let nodes = vec![(1, None), (2, Some(1)), (3, Some(2))];
        let anc = vec![(2, 1), (3, 2), (3, 1)];
        let desc = vec![(1, 2), (2, 3), (1, 3)];
        assert!(verify_closure(&nodes, &anc, &desc).is_empty());

        // Missing pair (3, 1).
        let fs = verify_closure(&nodes, &[(2, 1), (3, 2)], &[(1, 2), (2, 3)]);
        assert!(fs.iter().any(|f| f.code == "closure.missing"), "{fs:?}");
        // Extra pair (1, 3): 3 is not an ancestor of 1.
        let mut anc2 = anc.clone();
        anc2.push((1, 3));
        let fs = verify_closure(&nodes, &anc2, &desc);
        assert!(fs.iter().any(|f| f.code == "closure.extra"));
        assert!(
            fs.iter().any(|f| f.code == "closure.mirror"),
            "descendants no longer mirror"
        );
        // Cycle: 1's parent is 3.
        let cyc = vec![(1, Some(3)), (2, Some(1)), (3, Some(2))];
        let fs = verify_closure(&cyc, &[], &[]);
        assert!(fs.iter().any(|f| f.code == "closure.cycle"));
        // Dangling parent id.
        let fs = verify_closure(&[(1, Some(99))], &[], &[]);
        assert!(fs.iter().any(|f| f.code == "closure.parent"));
    }

    #[test]
    fn report_caps_findings_but_counts_exactly() {
        let mut r = FsckReport::new(false);
        for i in 0..(FINDINGS_CAP_PER_CODE as u64 + 25) {
            r.push(Finding::new("page.magic", Severity::Error, format!("f{i}")));
        }
        assert_eq!(r.error_count(), FINDINGS_CAP_PER_CODE as u64 + 25);
        // Capped list plus one truncation marker.
        assert_eq!(r.findings.len(), FINDINGS_CAP_PER_CODE + 1);
        assert!(r.findings.last().unwrap().code == "fsck.truncated");
        assert!(!r.is_clean());
        assert!(r.summary().contains("error(s)"));
    }

    #[test]
    fn report_json_roundtrips() {
        let mut r = FsckReport::new(true);
        r.pages_checked = 4;
        r.push(
            Finding::new(
                "page.overlap",
                Severity::Error,
                "slots 1 and 2 overlap".into(),
            )
            .on_page(3)
            .on_object("people"),
        );
        let json = r.to_json();
        let reparsed = Json::parse(&json.emit()).unwrap();
        assert_eq!(reparsed, json);
        assert_eq!(reparsed.get("errors").unwrap().as_u64(), Some(1));
        let fs = reparsed.get("findings").unwrap().as_arr().unwrap();
        assert_eq!(fs[0].get("code").unwrap().as_str(), Some("page.overlap"));
        assert_eq!(fs[0].get("page").unwrap().as_u64(), Some(3));
        // Human rendering mentions the code and the severity tag.
        assert!(r.render_table().contains("page.overlap"));
        assert!(r.render_table().contains("[E]"));
    }

    #[test]
    fn statistics_referential_checks() {
        use crate::catalog::{Column, IndexId};
        use crate::db::Database;
        use crate::stats::{Bucket, IndexStats, TableStats};
        use crate::value::{ColumnType, Value};

        let db = Database::in_memory();
        let t = db
            .create_table("s", vec![Column::new("id", ColumnType::Int)])
            .unwrap();
        db.create_index("s_id", t, &["id"], true).unwrap();
        let mut txn = db.begin();
        for i in 0..10 {
            txn.insert(t, vec![Value::Int(i)]).unwrap();
        }
        txn.commit().unwrap();
        db.analyze().unwrap();
        // Fresh ANALYZE statistics verify clean, deep mode included.
        let report = verify_database(&db, true).unwrap();
        assert!(report.is_clean(), "{}", report.render_table());

        // Orphaned entries and an out-of-order histogram become typed
        // errors. (Fetch the id before stats_mut: the hook holds the
        // catalog write lock.)
        let idx = db.index_id("s_id").unwrap();
        db.stats_mut(|s| {
            s.tables.insert(TableId(999), TableStats { row_count: 1 });
            s.indexes.insert(
                IndexId(998),
                IndexStats {
                    entries: 1,
                    distinct_keys: 1,
                    buckets: Vec::new(),
                },
            );
            let st = s.indexes.get_mut(&idx).unwrap();
            st.buckets = vec![
                Bucket {
                    upper: vec![9],
                    rows: 5,
                    distinct: 5,
                },
                Bucket {
                    upper: vec![3],
                    rows: 5,
                    distinct: 5,
                },
            ];
        });
        let report = verify_database(&db, false).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        for code in [
            "stats.orphan-table",
            "stats.orphan-index",
            "stats.histogram-order",
        ] {
            assert!(codes.contains(&code), "missing {code}: {codes:?}");
        }
        assert_eq!(report.error_count(), 3, "{}", report.render_table());
    }
}
