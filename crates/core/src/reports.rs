//! Simple reports over the data store (§3.3: "The user may request one of
//! several simple reports" — information about resources and their
//! attributes, details of individual executions, and performance
//! results).
//!
//! Reports are structured values with plain-text renderers, so the CLI,
//! tests, and downstream tools all consume the same data.

use crate::datastore::PTDataStore;
use crate::error::{PtError, Result};
use crate::query::QueryEngine;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Store-wide inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSummary {
    pub applications: Vec<String>,
    pub executions: usize,
    pub resources: usize,
    pub resources_by_root_type: BTreeMap<String, usize>,
    pub results: usize,
    pub results_by_tool: BTreeMap<String, usize>,
    pub metrics: usize,
    pub types: usize,
    pub size_bytes: u64,
}

/// Detail of one execution (§3.3's "details of individual executions").
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionDetail {
    pub name: String,
    pub application: String,
    pub results: usize,
    pub metrics: BTreeMap<String, MetricSummary>,
    pub tools: Vec<String>,
    /// Attributes of the execution's run resource, if one exists.
    pub run_attributes: Vec<(String, String)>,
}

/// Per-metric value summary within one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

/// One resource's full description (the attribute viewer's data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDetail {
    pub name: String,
    pub type_path: String,
    pub attributes: Vec<(String, String)>,
    pub children: usize,
    pub results_in_context: usize,
}

/// Report builder over a store.
pub struct Reports<'s> {
    store: &'s PTDataStore,
}

impl<'s> Reports<'s> {
    /// Bind to a store.
    pub fn new(store: &'s PTDataStore) -> Self {
        Reports { store }
    }

    /// The store-wide summary.
    pub fn summary(&self) -> Result<StoreSummary> {
        let engine = QueryEngine::new(self.store);
        let rows = engine.run(&[])?;
        let mut results_by_tool: BTreeMap<String, usize> = BTreeMap::new();
        for r in &rows {
            *results_by_tool.entry(String::from(&*r.tool)).or_insert(0) += 1;
        }
        let types = engine.type_path_by_id()?;
        let mut resources_by_root_type: BTreeMap<String, usize> = BTreeMap::new();
        for item in self
            .store
            .db()
            .scan_iter(self.store.schema().resource_item)?
        {
            let (_, row) = item?;
            if let Ok(tid) = row[crate::schema::col::resource_item::FOCUS_FRAMEWORK_ID].as_int() {
                if let Some(tp) = types.get(&tid) {
                    let root = tp.split('/').next().unwrap_or(tp).to_string();
                    *resources_by_root_type.entry(root).or_insert(0) += 1;
                }
            }
        }
        let mut applications: Vec<String> = Vec::new();
        for item in self.store.db().scan_iter(self.store.schema().application)? {
            let (_, row) = item?;
            if let Ok(n) = row[crate::schema::col::application::NAME].as_text() {
                applications.push(n.to_string());
            }
        }
        applications.sort();
        Ok(StoreSummary {
            applications,
            executions: self.store.executions().len(),
            resources: self.store.resource_count()?,
            resources_by_root_type,
            results: rows.len(),
            results_by_tool,
            metrics: self.store.metrics().len(),
            types: self.store.registry().len(),
            size_bytes: self.store.size_bytes()?,
        })
    }

    /// Detail for one execution.
    pub fn execution(&self, name: &str) -> Result<ExecutionDetail> {
        let id = self
            .store
            .execution_id(name)
            .ok_or_else(|| PtError::NotFound(format!("execution {name}")))?;
        let rows = QueryEngine::new(self.store).rows_of_executions(&[id])?;
        let mut metrics: BTreeMap<String, MetricSummary> = BTreeMap::new();
        let mut tools: Vec<String> = Vec::new();
        for r in &rows {
            let m = metrics
                .entry(String::from(&*r.metric))
                .or_insert(MetricSummary {
                    count: 0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    mean: 0.0,
                });
            m.count += 1;
            m.min = m.min.min(r.value);
            m.max = m.max.max(r.value);
            m.mean += r.value;
            if !tools.iter().any(|t| *t == *r.tool) {
                tools.push(String::from(&*r.tool));
            }
        }
        for m in metrics.values_mut() {
            m.mean /= m.count.max(1) as f64;
        }
        tools.sort();
        // Application name: via any result row or the execution table.
        let application = {
            let db = self.store.db();
            let schema = self.store.schema();
            use crate::schema::col::{application as a, execution as e};
            let mut app = String::new();
            for item in db.scan_iter(schema.execution)? {
                let (_, row) = item?;
                if row[e::NAME].as_text().ok() != Some(name) {
                    continue;
                }
                let app_id = row[e::APPLICATION_ID].as_int().unwrap_or(0);
                for item in db.scan_iter(schema.application)? {
                    let (_, arow) = item?;
                    if arow[a::ID].as_int().ok() == Some(app_id) {
                        app = arow[a::NAME].as_text().unwrap_or("").to_string();
                        break;
                    }
                }
                break;
            }
            app
        };
        // Run-resource attributes (both `-run` and bare-name conventions).
        let mut run_attributes = Vec::new();
        for candidate in [format!("/{name}-run"), format!("/{name}")] {
            if let Some(rec) = self.store.resource_by_name(&candidate)? {
                run_attributes = self
                    .store
                    .attributes_of(rec.id)?
                    .into_iter()
                    .map(|(k, v, _)| (k, v))
                    .collect();
                break;
            }
        }
        Ok(ExecutionDetail {
            name: name.to_string(),
            application,
            results: rows.len(),
            metrics,
            tools,
            run_attributes,
        })
    }

    /// Detail for one resource by full name.
    pub fn resource(&self, name: &str) -> Result<ResourceDetail> {
        let rec = self
            .store
            .resource_by_name(name)?
            .ok_or_else(|| PtError::NotFound(format!("resource {name}")))?;
        let engine = QueryEngine::new(self.store);
        let types = engine.type_path_by_id()?;
        // Children: resources whose parent_id is this id.
        let mut children = 0usize;
        for item in self
            .store
            .db()
            .scan_iter(self.store.schema().resource_item)?
        {
            let (_, row) = item?;
            if row[crate::schema::col::resource_item::PARENT_ID]
                .as_int()
                .ok()
                == Some(rec.id)
            {
                children += 1;
            }
        }
        // Results whose context contains this resource: the matches of
        // the one-resource family.
        let results_in_context = engine
            .matching_result_ids(&[HashSet::from([rec.id])])?
            .len();
        Ok(ResourceDetail {
            name: rec.name.clone(),
            type_path: types.get(&rec.type_id).cloned().unwrap_or_default(),
            attributes: self
                .store
                .attributes_of(rec.id)?
                .into_iter()
                .map(|(k, v, _)| (k, v))
                .collect(),
            children,
            results_in_context,
        })
    }

    /// Render the summary as text.
    pub fn render_summary(s: &StoreSummary) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "applications : {}", s.applications.join(", "));
        let _ = writeln!(out, "executions   : {}", s.executions);
        let _ = writeln!(out, "resources    : {}", s.resources);
        for (root, n) in &s.resources_by_root_type {
            let _ = writeln!(out, "  {root:<12}: {n}");
        }
        let _ = writeln!(out, "results      : {}", s.results);
        for (tool, n) in &s.results_by_tool {
            let _ = writeln!(out, "  {tool:<12}: {n}");
        }
        let _ = writeln!(out, "metrics      : {}", s.metrics);
        let _ = writeln!(out, "types        : {}", s.types);
        let _ = writeln!(out, "size (bytes) : {}", s.size_bytes);
        out
    }

    /// Render an execution detail as text.
    pub fn render_execution(d: &ExecutionDetail) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "execution {} (application {})", d.name, d.application);
        let _ = writeln!(
            out,
            "  results: {}  tools: {}",
            d.results,
            d.tools.join(", ")
        );
        if !d.run_attributes.is_empty() {
            let _ = writeln!(out, "  run attributes:");
            for (k, v) in &d.run_attributes {
                let _ = writeln!(out, "    {k} = {v}");
            }
        }
        let _ = writeln!(out, "  metrics:");
        for (name, m) in &d.metrics {
            let _ = writeln!(
                out,
                "    {name:<32} n={:<5} min={:<12.4} mean={:<12.4} max={:.4}",
                m.count, m.min, m.mean, m.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PTDataStore {
        let s = PTDataStore::in_memory().unwrap();
        s.load_ptdf_str(
            r#"
Application IRS
Execution e1 IRS
Execution e2 IRS
Resource /IRS application
Resource /e1-run execution
ResourceAttribute /e1-run processes 8 string
Resource /G grid
Resource /G/M grid/machine
PerfResult e1 "/IRS,/e1-run(primary)" IRS "CPU time" 4.0 seconds
PerfResult e1 "/IRS,/e1-run(primary)" IRS "CPU time" 6.0 seconds
PerfResult e1 "/IRS,/G/M(primary)" mpiP "MPI time" 1.0 seconds
PerfResult e2 /IRS(primary) IRS "CPU time" 9.0 seconds
"#,
        )
        .unwrap();
        s
    }

    #[test]
    fn summary_counts_and_breakdowns() {
        let s = store();
        let sum = Reports::new(&s).summary().unwrap();
        assert_eq!(sum.applications, vec!["IRS"]);
        assert_eq!(sum.executions, 2);
        assert_eq!(sum.results, 4);
        assert_eq!(sum.results_by_tool["IRS"], 3);
        assert_eq!(sum.results_by_tool["mpiP"], 1);
        assert_eq!(sum.resources_by_root_type["grid"], 2);
        assert_eq!(sum.resources_by_root_type["application"], 1);
        assert_eq!(sum.resources_by_root_type["execution"], 1);
        let text = Reports::render_summary(&sum);
        assert!(text.contains("executions   : 2"));
        assert!(text.contains("mpiP"));
    }

    #[test]
    fn execution_detail_with_metric_stats() {
        let s = store();
        let d = Reports::new(&s).execution("e1").unwrap();
        assert_eq!(d.application, "IRS");
        assert_eq!(d.results, 3);
        assert_eq!(d.tools, vec!["IRS", "mpiP"]);
        let cpu = &d.metrics["CPU time"];
        assert_eq!(cpu.count, 2);
        assert_eq!(cpu.min, 4.0);
        assert_eq!(cpu.max, 6.0);
        assert!((cpu.mean - 5.0).abs() < 1e-12);
        assert!(d
            .run_attributes
            .iter()
            .any(|(k, v)| k == "processes" && v == "8"));
        let text = Reports::render_execution(&d);
        assert!(text.contains("execution e1"));
        assert!(text.contains("CPU time"));
        // Unknown execution errors.
        assert!(Reports::new(&s).execution("ghost").is_err());
    }

    #[test]
    fn resource_detail() {
        let s = store();
        let d = Reports::new(&s).resource("/G").unwrap();
        assert_eq!(d.type_path, "grid");
        assert_eq!(d.children, 1);
        assert_eq!(d.results_in_context, 0);
        let d = Reports::new(&s).resource("/G/M").unwrap();
        assert_eq!(d.results_in_context, 1);
        assert!(Reports::new(&s).resource("/nope").is_err());
    }
}
