//! Comparison operators across executions (§6 lists these as the
//! enhancement "in progress"; they are grounded in the comparison-based
//! diagnosis line of work the paper builds on, Karavanic & Miller).
//!
//! Two executions rarely share context resources verbatim — process and
//! time resources are execution-specific — so the engine behind
//! `pt compare` aligns only *structural* resources (build, environment,
//! grid, application, ...), dropping the per-run `execution` and `time`
//! hierarchies:
//!
//! * [`Compare::tree_compare`] aligns two-or-N executions' *resource
//!   trees* by full resource name, tolerating missing or extra subtrees
//!   (reported as [`PresenceDrift`]), and computes per-resource
//!   per-metric deltas and ratios under configurable aggregation and
//!   normalization ([`CompareOptions`]).
//! * [`TreeComparison`] ranks the most-divergent resources and renders
//!   itself as a fixed-width table or as the versioned
//!   `pt-compare/v1` JSON document (contract in `docs/COMPARE.md`).
//! * [`Compare::load_balance`] is the Figure 5 min/max/mean summary
//!   over one execution's per-process values.
#![deny(missing_docs)]

use crate::datastore::PTDataStore;
use crate::error::{PtError, Result};
use crate::query::{QueryEngine, ResourceMemo, ResultRow};
use perftrack_store::metrics::Json;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// Arithmetic mean (the default).
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
                self.executions.last().map_or("?", String::as_str),
                self.executions.first().map_or("?", String::as_str)
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

impl<'s> Compare<'s> {
    /// Bind to a store.
    pub fn new(store: &'s PTDataStore) -> Self {
        Compare { store }
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
    /// Fewer than two names is [`PtError::Invalid`]; a name the store
    /// does not know is [`PtError::NotFound`].
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
        let _committed = self.store.db().read();
        let n = execs.len();
        if n < 2 {
            return Err(PtError::Invalid(
                "compare needs at least two executions".into(),
            ));
        }
        let ids = execs
            .iter()
            .map(|e| {
                self.store
                    .execution_id(e)
                    .ok_or_else(|| PtError::NotFound(format!("unknown execution {e:?}")))
            })
            .collect::<Result<Vec<i64>>>()?;
        let engine = QueryEngine::new(self.store);
        let types = engine.type_path_by_id()?;
        let rows = engine.rows_of_executions(&ids)?;
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
            metrics: BTreeMap<Arc<str>, Vec<Option<Cell>>>,
        }
        // Keyed by resource id while walking: a full name names one
        // resource, so this is the merge by name without a name clone or
        // string compare per step.
        let mut by_id: HashMap<i64, (String, NodeAcc)> = HashMap::new();

        // Pass 1: walk every result of the compared executions, mark the
        // structural ancestor chain present, and accumulate the value at
        // the context resources themselves (not their ancestors, which
        // would multiply-count shared cost). A walk stops at the first
        // node already present for all of the row's slots: the walk that
        // marked it marked the rest of its chain.
        for row in &rows {
            let Some(slots) = exec_index.get(&*row.execution) else {
                continue;
            };
            for &rid in row.context.iter() {
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
                    let (_, node) = match by_id.entry(cur) {
                        Entry::Occupied(node) => node.into_mut(),
                        Entry::Vacant(slot) => {
                            let parent = match rec.parent_id {
                                Some(pid) => memo.get(pid)?.map(|p| p.name.clone()),
                                None => None,
                            };
                            slot.insert((
                                rec.name.clone(),
                                NodeAcc {
                                    base_name: rec.base_name.clone(),
                                    type_path: tp.to_string(),
                                    parent,
                                    present: vec![false; n],
                                    metrics: BTreeMap::new(),
                                },
                            ))
                        }
                    };
                    let marked = slots.iter().all(|&ei| node.present[ei]);
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
                    if marked {
                        break;
                    }
                    at_context = false;
                    cursor = rec.parent_id;
                }
            }
        }
        let nodes: BTreeMap<String, NodeAcc> = by_id.into_values().collect();

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
                    .insert(String::from(&**metric), row);
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
        let mut groups: BTreeMap<Arc<str>, Vec<f64>> = BTreeMap::new();
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
                    label: String::from(&*label),
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
            ptdf.push_str(&format!("Resource /t-{exec} time\n"));
            ptdf.push_str(&format!(
                "PerfResult {exec} \"/irs,/irs-build/main.c/init,/t-{exec}(primary)\" IRS \"CPU time\" {} seconds\n",
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
                "Application A\nResource /r application\nResource /s application\nExecution a A\nExecution b A\nPerfResult a /r(primary) T m 0.0 s\nPerfResult b /r(primary) T m 5.0 s\nPerfResult a /s(primary) T m 1.0 s\nPerfResult b /s(primary) T m 10.0 s\n",
            )
            .unwrap();
        let c = Compare::new(&store);
        let opts = CompareOptions {
            top: 1,
            ..CompareOptions::default()
        };
        let t = c.tree_compare(&["a", "b"], &opts).unwrap();
        // The value that appeared from zero outranks a tenfold slowdown.
        assert_eq!(t.ranked_total, 2);
        let r = &t.ranked[0];
        assert_eq!(r.resource, "/r");
        assert_eq!(r.ratio, None);
        assert_eq!(r.delta, 5.0);
        assert!(r.score.is_infinite());
        assert_eq!(t.regressions().len(), 1, "zero → positive is a regression");
        assert!(t.improvements().is_empty());
        assert_eq!(t.geo_mean_ratio(), None);
        let json = t.to_json().emit();
        assert!(json.contains(r#""ratio":null,"score":null"#), "{json}");
        assert!(json.contains(r#""geo_mean_ratio":null"#), "{json}");
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
        // Per-run `execution` and `time` resources, named by every solve
        // and init result, never become nodes (each would root its own
        // subtree) or drift.
        let roots = t.roots.iter().map(|r| &r.name);
        assert!(roots
            .chain(t.drift.iter().map(|d| &d.resource))
            .all(|n| !n.starts_with("/run-") && !n.starts_with("/t-")));
        // v2 got strictly faster: improvements, no regressions.
        assert!(t.regressions().is_empty());
        assert!(!t.improvements().is_empty());
        assert!(t.geo_mean_ratio().unwrap() < 1.0);
        // The reverse direction flags the same cells as regressions.
        let reverse = c
            .tree_compare(&["v2", "v1"], &CompareOptions::default())
            .unwrap();
        assert_eq!(reverse.regressions().len(), t.improvements().len());
        assert!(reverse.improvements().is_empty());
    }

    /// A walk stops at a node already present for the row's executions;
    /// one present for another execution only is walked through, so the
    /// chain above it is marked for this one too.
    #[test]
    fn tree_compare_marks_whole_chain_per_execution() {
        let store = PTDataStore::in_memory().unwrap();
        store
            .load_ptdf_str(
                "Application A\nResource /b build\nResource /b/m build/module\nResource /b/m/f build/module/function\nResource /b/m/g build/module/function\nExecution a A\nExecution b A\nPerfResult a /b/m/f(primary) T t 1.0 s\nPerfResult a /b/m/g(primary) T t 2.0 s\nPerfResult b /b/m/g(primary) T t 4.0 s\n",
            )
            .unwrap();
        let c = Compare::new(&store);
        let opts = CompareOptions::default();
        let t = c.tree_compare(&["a", "b"], &opts).unwrap();
        let drift: Vec<(&str, &[bool])> = t
            .drift
            .iter()
            .map(|d| (d.resource.as_str(), &d.present[..]))
            .collect();
        assert_eq!(drift, vec![("/b/m/f", &[true, false][..])]);
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].present, vec![true, true]);
        assert_eq!(t.roots[0].children[0].children.len(), 2);
        assert_eq!(t.aligned_cells, 1);
        let itself = c.tree_compare(&["a", "a"], &opts).unwrap();
        assert!(itself.drift.is_empty());
        assert_eq!(itself.aligned_cells, 2);
    }

    #[test]
    fn tree_compare_rejects_bad_arguments() {
        let store = setup();
        let c = Compare::new(&store);
        let opts = CompareOptions::default();
        for execs in [&[][..], &["v1"][..]] {
            let err = c.tree_compare(execs, &opts).unwrap_err();
            assert!(matches!(err, PtError::Invalid(_)), "{execs:?}: {err}");
        }
        let err = c.tree_compare(&["v1", "nope"], &opts).unwrap_err();
        assert!(
            matches!(&err, PtError::NotFound(m) if m.contains("\"nope\"")),
            "{err}"
        );
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
}
