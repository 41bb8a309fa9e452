//! The four workloads, and what two of them share: the analysed IRS
//! store and the seeded cycle of pr-filter queries over it.

pub mod load;
pub mod open;
pub mod query;
pub mod serve;

use crate::dataset::{self, ExecDoc, Expected};
use crate::trace::Tracer;
use crate::{Checks, Result, Rng64};
use perftrack::{BulkLoadOptions, Compare, CompareOptions, PTDataStore, SelectionDialog};
use perftrack_model::Relatives;
use perftrack_ptdf::PtdfStatement;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// A pr-filter of name patterns (relatives `D`) with its expected rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCase {
    pub patterns: Vec<String>,
    /// Row count by [`dataset::oracle_rows`].
    pub rows: usize,
}

/// Two executions to compare, with the (resource, metric) cells both
/// measured, counted from the inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparePair {
    pub a: String,
    pub b: String,
    pub aligned_cells: usize,
}

/// Distinct instances per class that the cycle draws from; bounds the
/// oracle's brute-force passes in set-up.
const NARROW_POOL: usize = 24;
const MEDIUM_POOL: usize = 12;
const COMPARE_POOL: usize = 8;
/// Length of the query cycle. Ops walk it round and round, so every run
/// of a seed issues the same queries in the same order.
const CYCLE: usize = 100;

/// Base names of the resources of `type_path` that `doc` declares.
fn resources_of_type(doc: &ExecDoc, type_path: &str) -> Vec<String> {
    doc.statements
        .iter()
        .filter_map(|s| match s {
            PtdfStatement::Resource {
                name, type_path: t, ..
            } if t == type_path => name.rsplit('/').next().map(str::to_string),
            _ => None,
        })
        .collect()
}

/// The seeded query cycle over `docs` (IRS executions), with expected
/// row counts. Three classes at 60/30/10: an analyst mostly drills into
/// one function of one run (narrow, ≤ 20 rows), often pulls a whole run
/// (medium, ≈ 1.5k rows), and now and then pulls everything (wide).
pub fn draw_queries(seed: u64, docs: &[ExecDoc]) -> Vec<QueryCase> {
    let mut rng = Rng64(seed ^ 0x51ED_270B);
    let functions = resources_of_type(&docs[0], "build/module/function");
    let mut pools: [Vec<Vec<String>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..NARROW_POOL {
        let doc = &docs[rng.below(docs.len())];
        let function = functions[rng.below(functions.len())].clone();
        pools[0].push(vec![doc.run_resource(), function]);
    }
    for _ in 0..MEDIUM_POOL {
        pools[1].push(vec![docs[rng.below(docs.len())].run_resource()]);
    }
    // Every result of every execution; every function-level result.
    pools[2] = vec![vec!["IRS".to_string()], vec!["irs.c".to_string()]];

    // Exactly 60/30/10 over the cycle, in seeded order: drawing the
    // class per slot would let the share of wide queries, and with it
    // every latency and rate, swing with the seed.
    let mut classes: Vec<usize> = (0..CYCLE)
        .map(|i| match i * 10 / CYCLE {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2,
        })
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i + 1));
    }
    let mut rows: HashMap<Vec<String>, usize> = HashMap::new();
    classes
        .into_iter()
        .map(|c| {
            let patterns = pools[c][rng.below(pools[c].len())].clone();
            let rows = *rows
                .entry(patterns.clone())
                .or_insert_with(|| dataset::oracle_rows(docs, &patterns));
            QueryCase { patterns, rows }
        })
        .collect()
}

/// (resource, metric) cells of `doc` that a tree comparison aligns on:
/// results attach at their context resources outside the per-run
/// `execution` and `time` hierarchies.
fn compare_cells(doc: &ExecDoc) -> BTreeSet<(&str, &str)> {
    let types: HashMap<&str, &str> = doc
        .statements
        .iter()
        .filter_map(|s| match s {
            PtdfStatement::Resource {
                name, type_path, ..
            } => Some((name.as_str(), type_path.as_str())),
            _ => None,
        })
        .collect();
    let mut cells = BTreeSet::new();
    for s in &doc.statements {
        if let PtdfStatement::PerfResult {
            resource_sets,
            metric,
            ..
        } = s
        {
            for r in resource_sets.iter().flat_map(|set| &set.resources) {
                let root = types
                    .get(r.as_str())
                    .and_then(|t| t.split('/').next())
                    .unwrap_or("");
                if root != "execution" && root != "time" {
                    cells.insert((r.as_str(), metric.as_str()));
                }
            }
        }
    }
    cells
}

/// Seeded pairs of distinct executions to compare.
pub fn draw_compares(seed: u64, docs: &[ExecDoc]) -> Vec<ComparePair> {
    let mut rng = Rng64(seed ^ 0xC0_4A2E);
    (0..COMPARE_POOL)
        .map(|_| {
            let i = rng.below(docs.len());
            let j = (i + 1 + rng.below(docs.len() - 1)) % docs.len();
            let aligned_cells = compare_cells(&docs[i])
                .intersection(&compare_cells(&docs[j]))
                .count();
            ComparePair {
                a: docs[i].name.clone(),
                b: docs[j].name.clone(),
                aligned_cells,
            }
        })
        .collect()
}

/// Load `paths` into the empty store at `dir` as `pt load` does, and
/// check the counts against the inputs. Returns the open store.
pub fn load_fresh(
    dir: &Path,
    paths: &[std::path::PathBuf],
    expected: &Expected,
) -> Result<PTDataStore> {
    let store = PTDataStore::open(dir)?;
    let report = store.load_ptdf_files_resumable(paths, &BulkLoadOptions::default())?;
    let got = (
        report.stats.statements,
        store.result_count()?,
        store.resource_count()?,
    );
    let want = (expected.statements, expected.results, expected.resources);
    if got != want {
        return Err(format!(
            "set-up load: (statements, results, resources) = {got:?}, inputs have {want:?}"
        )
        .into());
    }
    Ok(store)
}

/// The IRS store both `query.irs_warm` and `serve.irs_mixed` run on:
/// loaded through the resumable path, then analysed.
pub struct IrsFixture {
    pub store: PTDataStore,
    pub queries: Vec<QueryCase>,
    pub compares: Vec<ComparePair>,
    pub expected: Expected,
}

impl IrsFixture {
    pub fn build(seed: u64, execs: usize, dir: &Path) -> Result<Self> {
        let docs = dataset::irs(seed, execs);
        let paths = dataset::write_ptdf(&dir.join("ptdf"), &docs)?;
        let expected = Expected::of(&docs);
        let store = load_fresh(&dir.join("store"), &paths, &expected)?;
        store.db().analyze()?;
        Ok(IrsFixture {
            store,
            queries: draw_queries(seed, &docs),
            compares: draw_compares(seed, &docs),
            expected,
        })
    }
}

/// One `pt query` on an open store: the selection dialog, `retrieve`,
/// `render`. Returns the rendered row count.
pub fn query_spans(store: &PTDataStore, case: &QueryCase, t: &mut Tracer) -> Result<usize> {
    let mut dialog = SelectionDialog::new(store);
    for p in &case.patterns {
        dialog.add_name(p, Relatives::Descendants);
    }
    let table = t.span("core.query.retrieve", |_| dialog.retrieve())?;
    let rows = t.span("core.session.render", |_| table.render())?;
    Ok(rows.len())
}

/// One `pt compare` of two executions. Returns the aligned cell count.
pub fn compare_op(store: &PTDataStore, pair: &ComparePair, t: &mut Tracer) -> Result<usize> {
    t.span("op", |t| {
        let cmp = t.span("core.compare.tree_compare", |_| {
            Compare::new(store).tree_compare(&[&pair.a, &pair.b], &CompareOptions::default())
        })?;
        let table = t.span("core.compare.render_table", |_| cmp.render_table());
        std::hint::black_box(table);
        Ok(cmp.aligned_cells)
    })
}

/// Record a wrong answer as a failed check.
pub fn right_answer(checks: &mut Checks, what: &str, got: usize, want: usize) {
    checks.ensure(got == want, || {
        format!("{what}: got {got}, inputs say {want}")
    });
}
