//! Comparison operators across executions (§6 lists these as the
//! enhancement "in progress"; they are grounded in the comparison-based
//! diagnosis line of work the paper builds on, Karavanic & Miller).
//!
//! Two executions rarely share context resources verbatim — process and
//! time resources are execution-specific — so results are aligned on a
//! *normalized key*: the metric plus the base names of context resources
//! whose hierarchy is structural (build, environment, grid,
//! application, ...), dropping the per-run `execution` and `time`
//! hierarchies. Difference/ratio operators and a load-balance summary
//! (the Figure 5 computation) operate on aligned pairs.
//!
//! On top of the pairwise operators this module provides the
//! execution-comparison engine behind `pt compare`:
//!
//! * [`Compare::tree_compare`] aligns two-or-N executions' *resource
//!   trees* by resource name and type path, tolerating missing or extra
//!   subtrees (reported as [`PresenceDrift`]), and computes per-resource
//!   per-metric deltas and ratios under configurable aggregation and
//!   normalization ([`CompareOptions`]).
//! * [`TreeComparison`] ranks the most-divergent resources and renders
//!   itself as a fixed-width table or as the versioned
//!   `pt-compare/v1` JSON document (contract in `docs/COMPARE.md`).
//! * [`evaluate_baseline`] checks a current metrics document against a
//!   stored baseline and produces typed [`Regression`] findings,
//!   distinguishing real performance regressions from schema drift —
//!   the engine behind `pt bench --compare-baseline`.
#![deny(missing_docs)]

use crate::datastore::{PTDataStore, ResourceRecord};
use crate::error::Result;
use crate::query::{QueryEngine, ResultRow};
use perftrack_store::metrics::Json;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// An aligned pair of results from two executions.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Human-readable alignment key: `metric @ resource,resource,...`.
    pub key: String,
    /// Aggregated value in the first execution.
    pub value_a: f64,
    /// Aggregated value in the second execution.
    pub value_b: f64,
    /// `value_b - value_a`.
    pub difference: f64,
    /// `value_b / value_a` (`None` when `value_a == 0`).
    pub ratio: Option<f64>,
}

/// Summary of a comparison between two executions.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Name of the first (baseline) execution.
    pub execution_a: String,
    /// Name of the second execution.
    pub execution_b: String,
    /// Aligned pairs, sorted by key.
    pub rows: Vec<ComparisonRow>,
    /// Results in A with no aligned partner in B.
    pub only_in_a: usize,
    /// Results in B with no aligned partner in A.
    pub only_in_b: usize,
}

impl ComparisonReport {
    /// Rows where B is slower than A by more than `threshold_ratio`
    /// (regressions when A is the baseline).
    pub fn regressions(&self, threshold_ratio: f64) -> Vec<&ComparisonRow> {
        self.rows
            .iter()
            .filter(|r| r.ratio.is_some_and(|q| q > threshold_ratio))
            .collect()
    }

    /// Rows where B is faster than A by more than the reciprocal of
    /// `threshold_ratio`.
    pub fn improvements(&self, threshold_ratio: f64) -> Vec<&ComparisonRow> {
        self.rows
            .iter()
            .filter(|r| r.ratio.is_some_and(|q| q < 1.0 / threshold_ratio))
            .collect()
    }

    /// Geometric-mean ratio over aligned rows with positive values — an
    /// overall speedup/slowdown factor of B relative to A.
    pub fn geo_mean_ratio(&self) -> Option<f64> {
        geo_mean(self.rows.iter().filter_map(|r| r.ratio))
    }
}

/// Geometric mean over the positive values of an iterator of ratios.
fn geo_mean(ratios: impl Iterator<Item = f64>) -> Option<f64> {
    let logs: Vec<f64> = ratios.filter(|q| *q > 0.0).map(f64::ln).collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// One group of the load-balance summary (Figure 5: one process count).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalanceRow {
    /// Group label (typically the execution or its process count).
    pub label: String,
    /// Number of values in the group.
    pub n: usize,
    /// Smallest value in the group.
    pub min: f64,
    /// Largest value in the group.
    pub max: f64,
    /// Mean of the group.
    pub mean: f64,
    /// `max / min` (`None` if min is 0) — the paper's "rough indication of
    /// load balance".
    pub imbalance: Option<f64>,
}

// ---------------------------------------------------------------------------
// Tree alignment (`pt compare`)
// ---------------------------------------------------------------------------

/// How several raw results that land on the same (resource, metric,
/// execution) cell are collapsed into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Arithmetic mean (the default; matches the pairwise operators).
    Mean,
    /// Sum — total cost attribution.
    Sum,
    /// Minimum — best-case per cell.
    Min,
    /// Maximum — worst-case per cell (load-imbalance hunting).
    Max,
}

impl Aggregate {
    /// Parse a CLI spelling (`mean`/`sum`/`min`/`max`).
    pub fn parse(s: &str) -> Option<Aggregate> {
        Some(match s {
            "mean" => Aggregate::Mean,
            "sum" => Aggregate::Sum,
            "min" => Aggregate::Min,
            "max" => Aggregate::Max,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Mean => "mean",
            Aggregate::Sum => "sum",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
        }
    }
}

/// How aggregated values are scaled before deltas and ratios are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// Use the aggregated values as-is.
    Raw,
    /// Divide each value by the execution's total for that metric, so
    /// executions of different overall scale compare by *distribution*
    /// (each cell becomes a share in `[0, 1]`).
    Share,
}

impl Normalization {
    /// Parse a CLI spelling (`raw`/`share`).
    pub fn parse(s: &str) -> Option<Normalization> {
        Some(match s {
            "raw" => Normalization::Raw,
            "share" => Normalization::Share,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Normalization::Raw => "raw",
            Normalization::Share => "share",
        }
    }
}

/// Options for [`Compare::tree_compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOptions {
    /// Cell aggregation (default [`Aggregate::Mean`]).
    pub aggregate: Aggregate,
    /// Value normalization (default [`Normalization::Raw`]).
    pub normalization: Normalization,
    /// Regression threshold in percent: a ranked cell whose last/first
    /// ratio exceeds `1 + threshold_pct/100` counts as a regression
    /// (default 25).
    pub threshold_pct: f64,
    /// How many ranked cells to keep in [`TreeComparison::ranked`]
    /// (default 10; the total before truncation is reported separately).
    pub top: usize,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            aggregate: Aggregate::Mean,
            normalization: Normalization::Raw,
            threshold_pct: 25.0,
            top: 10,
        }
    }
}

/// One node of the merged resource tree: a structural resource observed
/// in at least one compared execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedNode {
    /// Full resource name (e.g. `/irs-build/main.c/solve`).
    pub name: String,
    /// Last path segment of the name.
    pub base_name: String,
    /// Resource type path (e.g. `build/module/function`).
    pub type_path: String,
    /// Per-execution presence flags, index-aligned with
    /// [`TreeComparison::executions`].
    pub present: Vec<bool>,
    /// Per-metric aggregated (and normalized) values, one slot per
    /// execution; `None` when the execution has no result for the metric
    /// at this resource.
    pub metrics: BTreeMap<String, Vec<Option<f64>>>,
    /// Child nodes, sorted by name.
    pub children: Vec<AlignedNode>,
}

/// A (resource, metric) cell ranked by divergence across the compared
/// executions.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergentResource {
    /// Full resource name.
    pub resource: String,
    /// Resource type path.
    pub type_path: String,
    /// Metric name.
    pub metric: String,
    /// Aggregated value per execution (index-aligned with
    /// [`TreeComparison::executions`]; `None` = not measured there).
    pub values: Vec<Option<f64>>,
    /// `last - first` over the executions that have the cell.
    pub delta: f64,
    /// `last / first` (`None` when the first value is 0).
    pub ratio: Option<f64>,
    /// Divergence score: the largest `|ln(v_i / v_0)|` over later
    /// executions; infinite when a value flips to or from zero.
    pub score: f64,
}

/// A resource present in some compared executions but not all — a
/// missing or extra subtree the alignment tolerated.
#[derive(Debug, Clone, PartialEq)]
pub struct PresenceDrift {
    /// Full resource name.
    pub resource: String,
    /// Resource type path.
    pub type_path: String,
    /// Per-execution presence flags.
    pub present: Vec<bool>,
}

/// Result of [`Compare::tree_compare`]: the merged resource tree, the
/// divergence ranking, and presence drift, with renderers for the table
/// and the versioned JSON contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeComparison {
    /// Compared execution names, in argument order; index 0 is the
    /// baseline all deltas and ratios are taken against.
    pub executions: Vec<String>,
    /// Roots of the merged structural resource tree.
    pub roots: Vec<AlignedNode>,
    /// Most-divergent (resource, metric) cells, highest score first,
    /// truncated to [`CompareOptions::top`].
    pub ranked: Vec<DivergentResource>,
    /// Number of divergence-scored cells before truncation.
    pub ranked_total: usize,
    /// Resources not present in every execution.
    pub drift: Vec<PresenceDrift>,
    /// Number of (resource, metric) cells measured in every execution.
    pub aligned_cells: usize,
    /// Options the comparison ran under.
    pub options: CompareOptions,
}

impl TreeComparison {
    /// Ranked cells whose last/first ratio exceeds the threshold —
    /// regressions when execution 0 is the baseline. Cells whose value
    /// appeared from zero (infinite score, no ratio) count too.
    pub fn regressions(&self) -> Vec<&DivergentResource> {
        let limit = 1.0 + self.options.threshold_pct / 100.0;
        self.ranked
            .iter()
            .filter(|r| match r.ratio {
                Some(q) => q > limit,
                None => r.delta > 0.0,
            })
            .collect()
    }

    /// Ranked cells faster than the baseline by more than the threshold.
    pub fn improvements(&self) -> Vec<&DivergentResource> {
        let limit = 1.0 + self.options.threshold_pct / 100.0;
        self.ranked
            .iter()
            .filter(|r| match r.ratio {
                Some(q) => q > 0.0 && q < 1.0 / limit,
                None => r.delta < 0.0,
            })
            .collect()
    }

    /// Geometric-mean last/first ratio over all ranked cells with a
    /// positive ratio.
    pub fn geo_mean_ratio(&self) -> Option<f64> {
        geo_mean(self.ranked.iter().filter_map(|r| r.ratio))
    }

    /// The `pt-compare/v1` JSON document (schema in `docs/COMPARE.md`).
    pub fn to_json(&self) -> Json {
        let num_or_null = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => Json::Num(x),
            _ => Json::Null,
        };
        let ranked = self
            .ranked
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("resource".into(), Json::Str(r.resource.clone())),
                    ("type".into(), Json::Str(r.type_path.clone())),
                    ("metric".into(), Json::Str(r.metric.clone())),
                    (
                        "values".into(),
                        Json::Arr(r.values.iter().map(|v| num_or_null(*v)).collect()),
                    ),
                    ("delta".into(), num_or_null(Some(r.delta))),
                    ("ratio".into(), num_or_null(r.ratio)),
                    ("score".into(), num_or_null(Some(r.score))),
                ])
            })
            .collect();
        let drift = self
            .drift
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("resource".into(), Json::Str(d.resource.clone())),
                    ("type".into(), Json::Str(d.type_path.clone())),
                    (
                        "present".into(),
                        Json::Arr(d.present.iter().map(|p| Json::Bool(*p)).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("pt-compare/v1".into())),
            (
                "executions".into(),
                Json::Arr(
                    self.executions
                        .iter()
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            (
                "options".into(),
                Json::Obj(vec![
                    (
                        "aggregate".into(),
                        Json::Str(self.options.aggregate.name().into()),
                    ),
                    (
                        "normalization".into(),
                        Json::Str(self.options.normalization.name().into()),
                    ),
                    (
                        "threshold_pct".into(),
                        Json::Num(self.options.threshold_pct),
                    ),
                    ("top".into(), Json::UInt(self.options.top as u64)),
                ]),
            ),
            (
                "aligned_cells".into(),
                Json::UInt(self.aligned_cells as u64),
            ),
            ("ranked_total".into(), Json::UInt(self.ranked_total as u64)),
            ("ranked".into(), Json::Arr(ranked)),
            ("drift".into(), Json::Arr(drift)),
            (
                "summary".into(),
                Json::Obj(vec![
                    (
                        "regressions".into(),
                        Json::UInt(self.regressions().len() as u64),
                    ),
                    (
                        "improvements".into(),
                        Json::UInt(self.improvements().len() as u64),
                    ),
                    ("geo_mean_ratio".into(), num_or_null(self.geo_mean_ratio())),
                ]),
            ),
        ])
    }

    /// Human-readable fixed-width rendering (the `--table` output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compare: {} (aggregate={}, normalization={}, threshold={}%)\n",
            self.executions.join(" vs "),
            self.options.aggregate.name(),
            self.options.normalization.name(),
            self.options.threshold_pct
        ));
        out.push_str(&format!(
            "aligned cells: {}   divergent: {}   presence drift: {}\n",
            self.aligned_cells,
            self.ranked_total,
            self.drift.len()
        ));
        if let Some(g) = self.geo_mean_ratio() {
            out.push_str(&format!(
                "geo-mean ratio {}/{}: {g:.4}\n",
                self.executions.last().map(String::as_str).unwrap_or("?"),
                self.executions.first().map(String::as_str).unwrap_or("?")
            ));
        }
        if !self.ranked.is_empty() {
            out.push_str(&format!(
                "\n{:<44} {:<16} {:>12} {:>12} {:>10} {:>8}\n",
                "RESOURCE", "METRIC", "FIRST", "LAST", "DELTA", "RATIO"
            ));
            for r in &self.ranked {
                let first = r.values.first().copied().flatten();
                let last = r.values.last().copied().flatten();
                let fmt = |v: Option<f64>| match v {
                    Some(x) => format!("{x:.4}"),
                    None => "-".into(),
                };
                let ratio = match r.ratio {
                    Some(q) => format!("{q:.2}x"),
                    None => "-".into(),
                };
                out.push_str(&format!(
                    "{:<44} {:<16} {:>12} {:>12} {:>+10.4} {:>8}\n",
                    r.resource,
                    r.metric,
                    fmt(first),
                    fmt(last),
                    r.delta,
                    ratio
                ));
            }
        }
        for d in &self.drift {
            let present: Vec<&str> = self
                .executions
                .iter()
                .zip(&d.present)
                .filter(|(_, p)| **p)
                .map(|(e, _)| e.as_str())
                .collect();
            out.push_str(&format!(
                "only in {}: {} ({})\n",
                present.join(","),
                d.resource,
                d.type_path
            ));
        }
        out.push_str(&format!(
            "regressions (> {}% slower): {}   improvements: {}\n",
            self.options.threshold_pct,
            self.regressions().len(),
            self.improvements().len()
        ));
        out
    }
}

/// Comparison engine over a data store.
pub struct Compare<'s> {
    store: &'s PTDataStore,
}

/// Per-call memo of [`PTDataStore::resource_by_id`]: every resource on a
/// structural chain is probed and decoded once per compare, however many
/// results name it.
struct ResourceMemo<'s> {
    store: &'s PTDataStore,
    records: HashMap<i64, Option<Rc<ResourceRecord>>>,
}

impl<'s> ResourceMemo<'s> {
    fn new(store: &'s PTDataStore) -> Self {
        ResourceMemo {
            store,
            records: HashMap::new(),
        }
    }

    fn get(&mut self, id: i64) -> Result<Option<Rc<ResourceRecord>>> {
        if let Some(rec) = self.records.get(&id) {
            return Ok(rec.clone());
        }
        let rec = self.store.resource_by_id(id)?.map(Rc::new);
        self.records.insert(id, rec.clone());
        Ok(rec)
    }
}

impl<'s> Compare<'s> {
    /// Bind to a store.
    pub fn new(store: &'s PTDataStore) -> Self {
        Compare { store }
    }

    /// All result rows of one execution (none for an unknown name).
    pub fn rows_of_execution(&self, execution: &str) -> Result<Vec<ResultRow>> {
        self.rows_of(&[execution])
    }

    /// All result rows of the named executions, in ascending result id;
    /// unknown names contribute nothing and repeated names count once.
    pub(crate) fn rows_of(&self, executions: &[&str]) -> Result<Vec<ResultRow>> {
        let ids: Vec<i64> = executions
            .iter()
            .filter_map(|e| self.store.execution_id(e))
            .collect();
        QueryEngine::new(self.store).rows_of_executions(&ids)
    }

    /// The normalized alignment key of a result: metric plus sorted base
    /// names of structural context resources (execution/time hierarchies
    /// dropped).
    pub fn alignment_key(&self, row: &ResultRow) -> Result<String> {
        let engine = QueryEngine::new(self.store);
        let types = engine.type_path_by_id()?;
        self.alignment_key_with(row, &types, &mut ResourceMemo::new(self.store))
    }

    /// [`Compare::alignment_key`] with a pre-built type map and resource
    /// memo, so per-row callers (the comparison loop) scan the type table
    /// once and decode each context resource once, not per row.
    fn alignment_key_with(
        &self,
        row: &ResultRow,
        types: &HashMap<i64, String>,
        memo: &mut ResourceMemo<'_>,
    ) -> Result<String> {
        let mut parts: Vec<String> = Vec::new();
        for &rid in &row.context {
            if let Some(rec) = memo.get(rid)? {
                let tp = types.get(&rec.type_id).map_or("", String::as_str);
                let root = tp.split('/').next().unwrap_or("");
                if root == "execution" || root == "time" {
                    continue;
                }
                parts.push(rec.base_name.clone());
            }
        }
        parts.sort();
        parts.dedup();
        Ok(format!("{} @ {}", row.metric, parts.join(",")))
    }

    /// Align and compare two executions.
    pub fn compare_executions(&self, exec_a: &str, exec_b: &str) -> Result<ComparisonReport> {
        let rows_a = self.rows_of_execution(exec_a)?;
        let rows_b = self.rows_of_execution(exec_b)?;
        let types = QueryEngine::new(self.store).type_path_by_id()?;
        let mut memo = ResourceMemo::new(self.store);
        // Key → mean value (several rows can share a normalized key, e.g.
        // per-process results collapse when process resources are dropped).
        let mut collapse = |rows: &[ResultRow]| -> Result<HashMap<String, (f64, usize)>> {
            let mut m: HashMap<String, (f64, usize)> = HashMap::new();
            for r in rows {
                let key = self.alignment_key_with(r, &types, &mut memo)?;
                let e = m.entry(key).or_insert((0.0, 0));
                e.0 += r.value;
                e.1 += 1;
            }
            Ok(m)
        };
        let map_a = collapse(&rows_a)?;
        let map_b = collapse(&rows_b)?;
        let mut rows = Vec::new();
        let mut only_in_a = 0usize;
        for (key, (sum_a, n_a)) in &map_a {
            match map_b.get(key) {
                Some((sum_b, n_b)) => {
                    let value_a = sum_a / *n_a as f64;
                    let value_b = sum_b / *n_b as f64;
                    rows.push(ComparisonRow {
                        key: key.clone(),
                        value_a,
                        value_b,
                        difference: value_b - value_a,
                        ratio: (value_a != 0.0).then(|| value_b / value_a),
                    });
                }
                None => only_in_a += 1,
            }
        }
        let only_in_b = map_b
            .keys()
            .filter(|k| !map_a.contains_key(k.as_str()))
            .count();
        rows.sort_by(|x, y| x.key.cmp(&y.key));
        Ok(ComparisonReport {
            execution_a: exec_a.to_string(),
            execution_b: exec_b.to_string(),
            rows,
            only_in_a,
            only_in_b,
        })
    }

    /// Align two-or-N executions' resource trees and rank the
    /// most-divergent (resource, metric) cells.
    ///
    /// Structural resources (anything outside the per-run `execution`
    /// and `time` hierarchies) are merged across executions by full
    /// name; resources present in some executions only are tolerated and
    /// reported as [`PresenceDrift`]. Every result row attaches its
    /// value to its structural context resources, cells are collapsed
    /// under [`CompareOptions::aggregate`], optionally normalized to
    /// per-execution shares, and scored by `|ln(ratio)|` against
    /// execution 0.
    ///
    /// ```
    /// use perftrack::{Compare, PTDataStore};
    /// use perftrack::compare::CompareOptions;
    ///
    /// let store = PTDataStore::in_memory().unwrap();
    /// store
    ///     .load_ptdf_str(
    ///         "Application A\nResource /f application\n\
    ///          Execution a A\nExecution b A\n\
    ///          PerfResult a /f(primary) T time 2.0 s\n\
    ///          PerfResult b /f(primary) T time 4.0 s\n",
    ///     )
    ///     .unwrap();
    /// let cmp = Compare::new(&store);
    /// let t = cmp.tree_compare(&["a", "b"], &CompareOptions::default()).unwrap();
    /// assert_eq!(t.ranked[0].ratio, Some(2.0));
    /// assert_eq!(t.regressions().len(), 1);
    /// ```
    pub fn tree_compare(&self, execs: &[&str], opts: &CompareOptions) -> Result<TreeComparison> {
        let n = execs.len();
        let types = QueryEngine::new(self.store).type_path_by_id()?;
        let rows = self.rows_of(execs)?;
        let mut memo = ResourceMemo::new(self.store);
        // Name → every argument slot with that name, so a self-compare
        // (`pt compare s v1 v1`) fills both columns.
        let mut exec_index: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, e) in execs.iter().enumerate() {
            exec_index.entry(e).or_default().push(i);
        }

        /// Accumulator for one (resource, metric, execution) cell.
        #[derive(Clone, Copy)]
        struct Cell {
            sum: f64,
            count: usize,
            min: f64,
            max: f64,
        }
        struct NodeAcc {
            base_name: String,
            type_path: String,
            parent: Option<String>,
            present: Vec<bool>,
            metrics: BTreeMap<String, Vec<Option<Cell>>>,
        }
        let mut nodes: BTreeMap<String, NodeAcc> = BTreeMap::new();

        // Pass 1: walk every result of the compared executions, mark the
        // structural ancestor chain present, and accumulate the value at
        // the context resources themselves (not their ancestors, which
        // would multiply-count shared cost).
        for row in &rows {
            let Some(slots) = exec_index.get(row.execution.as_str()) else {
                continue;
            };
            for &rid in &row.context {
                let mut cursor = Some(rid);
                let mut at_context = true;
                while let Some(cur) = cursor {
                    let Some(rec) = memo.get(cur)? else {
                        break;
                    };
                    let tp = types.get(&rec.type_id).map_or("", String::as_str);
                    let root = tp.split('/').next().unwrap_or("");
                    if root == "execution" || root == "time" {
                        break;
                    }
                    let node = match nodes.entry(rec.name.clone()) {
                        Entry::Occupied(node) => node.into_mut(),
                        Entry::Vacant(slot) => {
                            let parent = match rec.parent_id {
                                Some(pid) => memo.get(pid)?.map(|p| p.name.clone()),
                                None => None,
                            };
                            slot.insert(NodeAcc {
                                base_name: rec.base_name.clone(),
                                type_path: tp.to_string(),
                                parent,
                                present: vec![false; n],
                                metrics: BTreeMap::new(),
                            })
                        }
                    };
                    for &ei in slots {
                        node.present[ei] = true;
                        if at_context {
                            let cells = node
                                .metrics
                                .entry(row.metric.clone())
                                .or_insert_with(|| vec![None; n]);
                            let c = cells[ei].get_or_insert(Cell {
                                sum: 0.0,
                                count: 0,
                                min: f64::INFINITY,
                                max: f64::NEG_INFINITY,
                            });
                            c.sum += row.value;
                            c.count += 1;
                            c.min = c.min.min(row.value);
                            c.max = c.max.max(row.value);
                        }
                    }
                    at_context = false;
                    cursor = rec.parent_id;
                }
            }
        }

        // Pass 2: collapse cells under the chosen aggregate, then
        // normalize to per-execution metric shares if asked.
        let aggregate = |c: &Cell| match opts.aggregate {
            Aggregate::Mean => c.sum / c.count as f64,
            Aggregate::Sum => c.sum,
            Aggregate::Min => c.min,
            Aggregate::Max => c.max,
        };
        let mut values: BTreeMap<String, BTreeMap<String, Vec<Option<f64>>>> = BTreeMap::new();
        for (name, node) in &nodes {
            for (metric, cells) in &node.metrics {
                let row: Vec<Option<f64>> =
                    cells.iter().map(|c| c.as_ref().map(aggregate)).collect();
                values
                    .entry(name.clone())
                    .or_default()
                    .insert(metric.clone(), row);
            }
        }
        if opts.normalization == Normalization::Share {
            // metric → per-execution totals over all resources.
            let mut totals: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for per_metric in values.values() {
                for (metric, row) in per_metric {
                    let t = totals.entry(metric.clone()).or_insert_with(|| vec![0.0; n]);
                    for (i, v) in row.iter().enumerate() {
                        t[i] += v.unwrap_or(0.0);
                    }
                }
            }
            for per_metric in values.values_mut() {
                for (metric, row) in per_metric.iter_mut() {
                    let t = &totals[metric];
                    for (i, v) in row.iter_mut().enumerate() {
                        if let Some(x) = v {
                            *v = (t[i] != 0.0).then(|| *x / t[i]);
                        }
                    }
                }
            }
        }

        // Pass 3: rank divergence and collect drift.
        let mut ranked: Vec<DivergentResource> = Vec::new();
        let mut aligned_cells = 0usize;
        for (name, per_metric) in &values {
            let node = &nodes[name];
            for (metric, row) in per_metric {
                if row.iter().all(Option::is_some) {
                    aligned_cells += 1;
                }
                let known: Vec<(usize, f64)> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|x| (i, x)))
                    .collect();
                if known.len() < 2 {
                    continue;
                }
                let (first, last) = (known[0].1, known[known.len() - 1].1);
                let mut score = 0.0f64;
                for &(_, v) in &known[1..] {
                    score = score.max(log_divergence(first, v));
                }
                if score == 0.0 {
                    continue;
                }
                ranked.push(DivergentResource {
                    resource: name.clone(),
                    type_path: node.type_path.clone(),
                    metric: metric.clone(),
                    values: row.clone(),
                    delta: last - first,
                    ratio: (first != 0.0).then(|| last / first),
                    score,
                });
            }
        }
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    b.delta
                        .abs()
                        .partial_cmp(&a.delta.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.resource.cmp(&b.resource))
                .then_with(|| a.metric.cmp(&b.metric))
        });
        let ranked_total = ranked.len();
        ranked.truncate(opts.top);

        let drift: Vec<PresenceDrift> = nodes
            .iter()
            .filter(|(_, node)| node.present.iter().any(|p| !p))
            .map(|(name, node)| PresenceDrift {
                resource: name.clone(),
                type_path: node.type_path.clone(),
                present: node.present.clone(),
            })
            .collect();

        // Pass 4: assemble the merged tree (children sorted by name via
        // the BTreeMap iteration order).
        fn build(
            name: &str,
            nodes: &BTreeMap<String, NodeAcc>,
            values: &BTreeMap<String, BTreeMap<String, Vec<Option<f64>>>>,
            children_of: &BTreeMap<&str, Vec<&str>>,
        ) -> AlignedNode {
            let acc = &nodes[name];
            AlignedNode {
                name: name.to_string(),
                base_name: acc.base_name.clone(),
                type_path: acc.type_path.clone(),
                present: acc.present.clone(),
                metrics: values.get(name).cloned().unwrap_or_default(),
                children: children_of
                    .get(name)
                    .into_iter()
                    .flatten()
                    .map(|c| build(c, nodes, values, children_of))
                    .collect(),
            }
        }
        let mut children_of: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut root_names: Vec<&str> = Vec::new();
        for (name, node) in &nodes {
            match node.parent.as_deref().filter(|p| nodes.contains_key(*p)) {
                Some(p) => children_of.entry(p).or_default().push(name),
                None => root_names.push(name),
            }
        }
        let roots = root_names
            .iter()
            .map(|r| build(r, &nodes, &values, &children_of))
            .collect();

        Ok(TreeComparison {
            executions: execs.iter().map(|e| e.to_string()).collect(),
            roots,
            ranked,
            ranked_total,
            drift,
            aligned_cells,
            options: opts.clone(),
        })
    }

    /// Load-balance summary (Figure 5): group `rows` (already filtered to
    /// one metric, typically one function) by execution and report
    /// min/max/mean across the group — e.g. across a run's processors.
    pub fn load_balance(&self, rows: &[ResultRow]) -> Vec<LoadBalanceRow> {
        let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in rows {
            groups.entry(r.execution.clone()).or_default().push(r.value);
        }
        groups
            .into_iter()
            .map(|(label, values)| {
                let n = values.len();
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mean = values.iter().sum::<f64>() / n as f64;
                LoadBalanceRow {
                    label,
                    n,
                    min,
                    max,
                    mean,
                    imbalance: (min != 0.0).then(|| max / min),
                }
            })
            .collect()
    }
}

/// Divergence of `v` against baseline `b`: `|ln(v/b)|` when both are
/// nonzero with the same sign, `0` when both are zero, infinite when the
/// value flips to or from zero (or across zero).
fn log_divergence(b: f64, v: f64) -> f64 {
    if b == 0.0 && v == 0.0 {
        0.0
    } else if b == 0.0 || v == 0.0 || (b > 0.0) != (v > 0.0) {
        f64::INFINITY
    } else {
        (v / b).ln().abs()
    }
}

// ---------------------------------------------------------------------------
// Baseline gating (`pt bench --compare-baseline`)
// ---------------------------------------------------------------------------

/// Whether a larger value of a checked metric is good or bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-style metrics (ops/sec): a drop is a regression.
    HigherIsBetter,
    /// Latency-style metrics (seconds, µs): a rise is a regression.
    LowerIsBetter,
}

/// One metric to gate: a dotted path into the JSON documents plus its
/// direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineCheck {
    /// Dotted path (e.g. `load.statements_per_sec`).
    pub path: String,
    /// Which way is worse.
    pub direction: Direction,
}

impl BaselineCheck {
    /// Construct a check.
    pub fn new(path: &str, direction: Direction) -> Self {
        BaselineCheck {
            path: path.to_string(),
            direction,
        }
    }
}

/// Classification of one [`Regression`] finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The current value is worse than the baseline beyond the threshold.
    PerfRegression,
    /// A checked path is missing or non-numeric in either document — the
    /// schemas no longer line up, so the numbers cannot be trusted.
    SchemaDrift,
    /// The current value is better than the baseline beyond the
    /// threshold (informational; never fails the gate).
    Improvement,
}

impl FindingKind {
    /// Stable lowercase label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::PerfRegression => "regression",
            FindingKind::SchemaDrift => "schema-drift",
            FindingKind::Improvement => "improvement",
        }
    }
}

/// A typed finding from [`evaluate_baseline`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// What happened.
    pub kind: FindingKind,
    /// The checked dotted path.
    pub path: String,
    /// Baseline value (`None` when missing — schema drift).
    pub baseline: Option<f64>,
    /// Current value (`None` when missing — schema drift).
    pub current: Option<f64>,
    /// `current / baseline` when both are present and baseline is
    /// nonzero.
    pub ratio: Option<f64>,
    /// Human-readable description.
    pub message: String,
}

/// Result of gating a current metrics document against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// All findings, worst first (drift, then regressions, then
    /// improvements).
    pub findings: Vec<Regression>,
    /// Threshold the gate ran with, in percent.
    pub threshold_pct: f64,
    /// Number of checks evaluated.
    pub checks: usize,
}

impl BaselineReport {
    /// True when any finding is a real performance regression.
    pub fn has_regressions(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.kind == FindingKind::PerfRegression)
    }

    /// True when any checked path failed to resolve — the documents'
    /// schemas have drifted and the comparison is unsound.
    pub fn has_drift(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.kind == FindingKind::SchemaDrift)
    }

    /// The `pt-compare-baseline/v1` JSON document (schema in
    /// `docs/COMPARE.md`).
    pub fn to_json(&self) -> Json {
        let num_or_null = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => Json::Num(x),
            _ => Json::Null,
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str("pt-compare-baseline/v1".into())),
            ("threshold_pct".into(), Json::Num(self.threshold_pct)),
            ("checks".into(), Json::UInt(self.checks as u64)),
            (
                "regressions".into(),
                Json::UInt(
                    self.findings
                        .iter()
                        .filter(|f| f.kind == FindingKind::PerfRegression)
                        .count() as u64,
                ),
            ),
            ("drift".into(), Json::Bool(self.has_drift())),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("kind".into(), Json::Str(f.kind.label().into())),
                                ("path".into(), Json::Str(f.path.clone())),
                                ("baseline".into(), num_or_null(f.baseline)),
                                ("current".into(), num_or_null(f.current)),
                                ("ratio".into(), num_or_null(f.ratio)),
                                ("message".into(), Json::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable summary, one line per finding.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "baseline gate: {} checks, threshold {}%\n",
            self.checks, self.threshold_pct
        );
        if self.findings.is_empty() {
            out.push_str("all checks within threshold\n");
        }
        for f in &self.findings {
            out.push_str(&format!("[{}] {}\n", f.kind.label(), f.message));
        }
        out
    }
}

/// Resolve a dotted path through nested JSON objects to a number.
fn json_num(doc: &Json, path: &str) -> Option<f64> {
    let mut cur = doc;
    for seg in path.split('.') {
        match cur {
            Json::Obj(pairs) => cur = &pairs.iter().find(|(k, _)| k == seg)?.1,
            _ => return None,
        }
    }
    match cur {
        Json::Num(x) => Some(*x),
        Json::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// Gate `current` against `baseline`: evaluate every check at
/// `threshold_pct` percent tolerance and produce typed findings.
///
/// A metric regresses when it is worse than the baseline by more than
/// the threshold in its [`Direction`]; a path that does not resolve to a
/// number in either document is [`FindingKind::SchemaDrift`].
///
/// ```
/// use perftrack::compare::{evaluate_baseline, BaselineCheck, Direction};
/// use perftrack::Json;
///
/// let base = Json::parse(r#"{"load":{"statements_per_sec":1000.0}}"#).unwrap();
/// let cur = Json::parse(r#"{"load":{"statements_per_sec":400.0}}"#).unwrap();
/// let checks = [BaselineCheck::new("load.statements_per_sec", Direction::HigherIsBetter)];
/// let report = evaluate_baseline(&base, &cur, &checks, 50.0);
/// assert!(report.has_regressions() && !report.has_drift());
/// ```
pub fn evaluate_baseline(
    baseline: &Json,
    current: &Json,
    checks: &[BaselineCheck],
    threshold_pct: f64,
) -> BaselineReport {
    let mut findings = Vec::new();
    let limit = 1.0 + threshold_pct / 100.0;
    for check in checks {
        let b = json_num(baseline, &check.path);
        let c = json_num(current, &check.path);
        let (Some(b), Some(c)) = (b, c) else {
            findings.push(Regression {
                kind: FindingKind::SchemaDrift,
                path: check.path.clone(),
                baseline: b,
                current: c,
                ratio: None,
                message: format!(
                    "{}: missing or non-numeric in {} document",
                    check.path,
                    if b.is_none() { "baseline" } else { "current" }
                ),
            });
            continue;
        };
        let ratio = (b != 0.0).then(|| c / b);
        // Normalize to "how many times worse", so one comparison serves
        // both directions.
        let worseness = match (check.direction, ratio) {
            (Direction::LowerIsBetter, Some(q)) => Some(q),
            (Direction::HigherIsBetter, Some(q)) if q > 0.0 => Some(1.0 / q),
            _ => None,
        };
        match worseness {
            Some(w) if w > limit => findings.push(Regression {
                kind: FindingKind::PerfRegression,
                path: check.path.clone(),
                baseline: Some(b),
                current: Some(c),
                ratio,
                message: format!(
                    "{}: {c:.4} vs baseline {b:.4} ({:.0}% worse, threshold {threshold_pct}%)",
                    check.path,
                    (w - 1.0) * 100.0
                ),
            }),
            Some(w) if w < 1.0 / limit => findings.push(Regression {
                kind: FindingKind::Improvement,
                path: check.path.clone(),
                baseline: Some(b),
                current: Some(c),
                ratio,
                message: format!(
                    "{}: {c:.4} vs baseline {b:.4} ({:.0}% better)",
                    check.path,
                    (1.0 / w - 1.0) * 100.0
                ),
            }),
            _ => {}
        }
    }
    findings.sort_by_key(|f| match f.kind {
        FindingKind::SchemaDrift => 0,
        FindingKind::PerfRegression => 1,
        FindingKind::Improvement => 2,
    });
    BaselineReport {
        findings,
        threshold_pct,
        checks: checks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two executions of the same app on the same machine; v2 is ~2x
    /// faster on `solve` and has an extra function.
    fn setup() -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from(
            "Application IRS\nResource /G grid\nResource /G/M grid/machine\nResource /irs application\nResource /irs-build build\nResource /irs-build/main.c build/module\nResource /irs-build/main.c/solve build/module/function\nResource /irs-build/main.c/init build/module/function\nResource /irs-build/main.c/extra build/module/function\n",
        );
        for (exec, scale) in [("v1", 1.0f64), ("v2", 0.5)] {
            ptdf.push_str(&format!("Execution {exec} IRS\n"));
            ptdf.push_str(&format!("Resource /run-{exec} execution\n"));
            for p in 0..4 {
                ptdf.push_str(&format!("Resource /run-{exec}/p{p} execution/process\n"));
                // Per-process solve time with imbalance: process p takes
                // (10 + p) * scale.
                ptdf.push_str(&format!(
                    "PerfResult {exec} \"/irs,/irs-build/main.c/solve,/run-{exec}/p{p}(primary)\" IRS \"CPU time\" {} seconds\n",
                    (10.0 + p as f64) * scale
                ));
            }
            ptdf.push_str(&format!(
                "PerfResult {exec} \"/irs,/irs-build/main.c/init(primary)\" IRS \"CPU time\" {} seconds\n",
                2.0 * scale
            ));
        }
        // Function only measured in v2.
        ptdf.push_str(
            "PerfResult v2 \"/irs,/irs-build/main.c/extra(primary)\" IRS \"CPU time\" 1.0 seconds\n",
        );
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    #[test]
    fn alignment_drops_execution_specific_resources() {
        let store = setup();
        let c = Compare::new(&store);
        let rows = c.rows_of_execution("v1").unwrap();
        let solve_row = rows.iter().find(|r| r.value == 10.0).expect("p0 solve row");
        let key = c.alignment_key(solve_row).unwrap();
        assert!(key.contains("solve"));
        assert!(
            !key.contains("p0"),
            "process resource must be dropped: {key}"
        );
        assert!(!key.contains("run-v1"));
    }

    #[test]
    fn compare_executions_reports_speedup() {
        let store = setup();
        let c = Compare::new(&store);
        let report = c.compare_executions("v1", "v2").unwrap();
        // Aligned keys: solve (collapsed over 4 processes) and init.
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.only_in_a, 0);
        assert_eq!(report.only_in_b, 1, "extra function only in v2");
        for row in &report.rows {
            let q = row.ratio.unwrap();
            assert!(
                (q - 0.5).abs() < 1e-9,
                "v2 should be exactly 2x faster: {row:?}"
            );
            assert!(row.difference < 0.0);
        }
        let gm = report.geo_mean_ratio().unwrap();
        assert!((gm - 0.5).abs() < 1e-9);
        // Regression/improvement classification.
        assert!(report.regressions(1.1).is_empty());
        assert_eq!(report.improvements(1.1).len(), 2);
        // Reverse direction flags regressions.
        let reverse = c.compare_executions("v2", "v1").unwrap();
        assert_eq!(reverse.regressions(1.1).len(), 2);
    }

    #[test]
    fn load_balance_min_max() {
        let store = setup();
        let c = Compare::new(&store);
        let engine = QueryEngine::new(&store);
        // All solve rows (per-process) across both executions.
        let rows: Vec<ResultRow> = engine
            .run(&[
                perftrack_model::ResourceFilter::by_name("/irs-build/main.c/solve")
                    .relatives(perftrack_model::Relatives::Neither),
            ])
            .unwrap();
        assert_eq!(rows.len(), 8);
        let lb = c.load_balance(&rows);
        assert_eq!(lb.len(), 2);
        let v1 = lb.iter().find(|g| g.label == "v1").unwrap();
        assert_eq!(v1.n, 4);
        assert_eq!(v1.min, 10.0);
        assert_eq!(v1.max, 13.0);
        assert!((v1.mean - 11.5).abs() < 1e-9);
        assert!((v1.imbalance.unwrap() - 1.3).abs() < 1e-9);
        let v2 = lb.iter().find(|g| g.label == "v2").unwrap();
        assert_eq!(v2.min, 5.0);
        assert_eq!(v2.max, 6.5);
    }

    #[test]
    fn zero_baseline_has_no_ratio() {
        let store = PTDataStore::in_memory().unwrap();
        store
            .load_ptdf_str(
                "Application A\nResource /r application\nExecution a A\nExecution b A\nPerfResult a /r(primary) T m 0.0 s\nPerfResult b /r(primary) T m 5.0 s\n",
            )
            .unwrap();
        let c = Compare::new(&store);
        let report = c.compare_executions("a", "b").unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].ratio, None);
        assert_eq!(report.rows[0].difference, 5.0);
        assert_eq!(report.geo_mean_ratio(), None);
    }

    #[test]
    fn tree_compare_aligns_and_ranks() {
        let store = setup();
        let c = Compare::new(&store);
        let t = c
            .tree_compare(&["v1", "v2"], &CompareOptions::default())
            .unwrap();
        assert_eq!(t.executions, vec!["v1", "v2"]);
        // solve, init, and /irs are measured in both; extra only in v2.
        let extra = t
            .drift
            .iter()
            .find(|d| d.resource.ends_with("/extra"))
            .expect("extra is presence drift");
        assert_eq!(extra.present, vec![false, true]);
        // Every fully-aligned cell halves, so all ranked cells have
        // ratio 0.5 and identical score.
        let solve = t
            .ranked
            .iter()
            .find(|r| r.resource.ends_with("/solve"))
            .expect("solve is ranked");
        assert_eq!(solve.metric, "CPU time");
        assert!((solve.ratio.unwrap() - 0.5).abs() < 1e-9);
        assert!((solve.score - 2.0f64.ln()).abs() < 1e-9);
        assert!(solve.delta < 0.0);
        // Per-process mean: v1 = 11.5, v2 = 5.75.
        assert!((solve.values[0].unwrap() - 11.5).abs() < 1e-9);
        assert!((solve.values[1].unwrap() - 5.75).abs() < 1e-9);
        // The merged tree contains the build hierarchy with children.
        let build = t
            .roots
            .iter()
            .find(|r| r.name == "/irs-build")
            .expect("build root");
        assert_eq!(build.children.len(), 1, "main.c under the build root");
        assert_eq!(build.children[0].children.len(), 3, "three functions");
        // v2 got strictly faster: improvements, no regressions.
        assert!(t.regressions().is_empty());
        assert!(!t.improvements().is_empty());
    }

    #[test]
    fn tree_compare_self_is_zero() {
        let store = setup();
        let c = Compare::new(&store);
        let t = c
            .tree_compare(&["v1", "v1"], &CompareOptions::default())
            .unwrap();
        assert_eq!(t.ranked_total, 0, "self-compare has no divergence");
        assert!(t.drift.is_empty());
        assert!(t.regressions().is_empty());
    }

    #[test]
    fn tree_compare_share_normalization_cancels_uniform_speedup() {
        let store = setup();
        let c = Compare::new(&store);
        let opts = CompareOptions {
            normalization: Normalization::Share,
            ..CompareOptions::default()
        };
        let t = c.tree_compare(&["v1", "v2"], &opts).unwrap();
        // v2 is uniformly 2x faster on the fully-aligned cells, so their
        // *shares* of total CPU time barely move; the only divergence
        // left comes from the extra function shifting the v2 total.
        for r in &t.ranked {
            assert!(
                r.score < 2.0f64.ln(),
                "share normalization should shrink a uniform speedup: {r:?}"
            );
        }
    }

    #[test]
    fn tree_compare_aggregates() {
        let store = setup();
        let c = Compare::new(&store);
        for (agg, v1_expect) in [
            (Aggregate::Min, 10.0),
            (Aggregate::Max, 13.0),
            (Aggregate::Sum, 46.0),
            (Aggregate::Mean, 11.5),
        ] {
            let opts = CompareOptions {
                aggregate: agg,
                ..CompareOptions::default()
            };
            let t = c.tree_compare(&["v1", "v2"], &opts).unwrap();
            let solve = t
                .ranked
                .iter()
                .find(|r| r.resource.ends_with("/solve"))
                .unwrap();
            assert!(
                (solve.values[0].unwrap() - v1_expect).abs() < 1e-9,
                "{agg:?}: {solve:?}"
            );
        }
    }

    #[test]
    fn tree_compare_json_contract() {
        let store = setup();
        let c = Compare::new(&store);
        let t = c
            .tree_compare(&["v1", "v2"], &CompareOptions::default())
            .unwrap();
        let doc = Json::parse(&t.to_json().emit()).unwrap();
        assert_eq!(doc.get("schema"), Some(&Json::Str("pt-compare/v1".into())));
        assert!(matches!(doc.get("executions"), Some(Json::Arr(a)) if a.len() == 2));
        assert!(matches!(doc.get("ranked"), Some(Json::Arr(a)) if !a.is_empty()));
        assert!(matches!(doc.get("drift"), Some(Json::Arr(a)) if a.len() == 1));
        let table = t.render_table();
        assert!(table.contains("RESOURCE"));
        assert!(table.contains("/solve"));
        assert!(table.contains("only in v2"));
    }

    #[test]
    fn baseline_gate_classifies_findings() {
        let base = Json::parse(
            r#"{"load":{"statements_per_sec":1000.0},"query":{"pr_filter":{"avg_micros":50.0}}}"#,
        )
        .unwrap();
        let checks = [
            BaselineCheck::new("load.statements_per_sec", Direction::HigherIsBetter),
            BaselineCheck::new("query.pr_filter.avg_micros", Direction::LowerIsBetter),
        ];
        // Within threshold: clean.
        let same = evaluate_baseline(&base, &base, &checks, 25.0);
        assert!(!same.has_regressions() && !same.has_drift());
        assert!(same.findings.is_empty());
        // Throughput halves and latency triples: two regressions.
        let worse = Json::parse(
            r#"{"load":{"statements_per_sec":500.0},"query":{"pr_filter":{"avg_micros":150.0}}}"#,
        )
        .unwrap();
        let report = evaluate_baseline(&base, &worse, &checks, 25.0);
        assert!(report.has_regressions());
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.kind == FindingKind::PerfRegression)
                .count(),
            2
        );
        // Missing path: schema drift, not a regression.
        let drifted = Json::parse(r#"{"load":{"renamed":1.0}}"#).unwrap();
        let report = evaluate_baseline(&base, &drifted, &checks, 25.0);
        assert!(report.has_drift());
        assert!(!report.has_regressions());
        // Both directions see improvements symmetrically.
        let better = Json::parse(
            r#"{"load":{"statements_per_sec":4000.0},"query":{"pr_filter":{"avg_micros":10.0}}}"#,
        )
        .unwrap();
        let report = evaluate_baseline(&base, &better, &checks, 25.0);
        assert!(!report.has_regressions());
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.kind == FindingKind::Improvement)
                .count(),
            2
        );
        // JSON contract.
        let doc = Json::parse(&report.to_json().emit()).unwrap();
        assert_eq!(
            doc.get("schema"),
            Some(&Json::Str("pt-compare-baseline/v1".into()))
        );
        assert!(matches!(doc.get("findings"), Some(Json::Arr(a)) if a.len() == 2));
    }
}
