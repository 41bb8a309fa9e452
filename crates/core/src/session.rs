//! The GUI session model (§3.2, Figures 3–5), toolkit-free.
//!
//! Every behaviour the paper describes for the Qt GUI lives here as plain
//! data and methods: the *selection dialog* (resource-type menu, resource
//! name lists with child expansion, attribute lists, pr-filter
//! construction with the D/A/B/N relatives flag, live match counts) and
//! the *main window* (tabular results, two-step "Add Columns" over free
//! resources, sorting, row filtering, CSV export, bar-chart extraction).

use crate::chart::{csv_escape, BarChart, Series};
use crate::datastore::PTDataStore;
use crate::error::{PtError, Result};
use crate::query::{FreeResourceColumn, MatchCounts, QueryEngine, ResultRow};
use perftrack_model::{AttrPredicate, Relatives, ResourceFilter, TypePath};
use perftrack_store::metrics::QueryProfile;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// One entry in the dialog's "Selected Parameters" list.
#[derive(Debug, Clone)]
pub struct SelectedParameter {
    /// Display label (resource name pattern, type path, or predicate).
    pub label: String,
    pub filter: ResourceFilter,
}

/// The selection dialog (Figure 3).
///
/// # Threading
///
/// The builder methods (`add_name`, `add_type`, …) take `&mut self`
/// deliberately: a dialog is one user's in-progress parameter list, not
/// shared state, so accumulation is exclusive by construction. The
/// query it ultimately runs — [`SelectionDialog::retrieve`] — takes
/// `&self` and only reads the store, so finished dialogs (and the
/// [`ResultTable`]s they produce) can be shipped to and used from other
/// threads: both types are `Send + Sync` (`tests/send_sync.rs`).
pub struct SelectionDialog<'s> {
    store: &'s PTDataStore,
    selected: Vec<SelectedParameter>,
}

impl<'s> SelectionDialog<'s> {
    /// Open a dialog over a store (the GUI's "establish a database
    /// connection and present a selection dialog").
    pub fn new(store: &'s PTDataStore) -> Self {
        SelectionDialog {
            store,
            selected: Vec::new(),
        }
    }

    /// The resource-type popup menu: every registered type path.
    pub fn resource_type_menu(&self) -> Vec<String> {
        self.store
            .registry()
            .all()
            .map(|tp| tp.as_str().to_string())
            .collect()
    }

    /// Top-level name list for a type: distinct base names of resources of
    /// that type, with occurrence counts (an entry can represent several
    /// resources, like `batch` on multiple machines).
    pub fn names_for_type(&self, type_path: &str) -> Result<Vec<(String, usize)>> {
        let type_id = self
            .store
            .type_id(type_path)
            .ok_or_else(|| PtError::NotFound(format!("type {type_path}")))?;
        let db = self.store.db();
        let schema = self.store.schema();
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for item in db.scan_iter(schema.resource_item)? {
            let (_, row) = item?;
            let rec = crate::datastore::decode_resource(&row);
            if rec.type_id == type_id {
                *counts.entry(rec.base_name).or_insert(0) += 1;
            }
        }
        Ok(counts.into_iter().collect())
    }

    /// Attribute names present on resources of a type (the dialog's
    /// attribute box).
    pub fn attributes_for_type(&self, type_path: &str) -> Result<Vec<String>> {
        let type_id = self
            .store
            .type_id(type_path)
            .ok_or_else(|| PtError::NotFound(format!("type {type_path}")))?;
        let db = self.store.db();
        let schema = self.store.schema();
        let mut ids = Vec::new();
        for item in db.scan_iter(schema.resource_item)? {
            let (_, row) = item?;
            let rec = crate::datastore::decode_resource(&row);
            if rec.type_id == type_id {
                ids.push(rec.id);
            }
        }
        let mut attrs: BTreeSet<String> = BTreeSet::new();
        for id in ids {
            for (name, _, _) in self.store.attributes_of(id)? {
                attrs.insert(name);
            }
        }
        Ok(attrs.into_iter().collect())
    }

    /// Expand a name entry to its children (clicking a resource name in
    /// the list). `suffix` is the paper's path shorthand — expanding
    /// `Frost` yields `Frost/batch`, whose semantics are "batch partitions
    /// under a machine named Frost".
    pub fn children_of_name(&self, suffix: &str) -> Result<Vec<(String, usize)>> {
        let engine = QueryEngine::new(self.store);
        let fam = engine.family(&ResourceFilter::by_name(suffix).relatives(Relatives::Neither))?;
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let db = self.store.db();
        let schema = self.store.schema();
        for item in db.scan_iter(schema.resource_item)? {
            let (_, row) = item?;
            let rec = crate::datastore::decode_resource(&row);
            if let Some(pid) = rec.parent_id {
                if fam.contains(&pid) {
                    *counts
                        .entry(format!("{suffix}/{}", rec.base_name))
                        .or_insert(0) += 1;
                }
            }
        }
        Ok(counts.into_iter().collect())
    }

    /// The attribute viewer: `(resource full name, attribute, value)` for
    /// every resource an entry refers to.
    pub fn attribute_viewer(&self, suffix: &str) -> Result<Vec<(String, String, String)>> {
        let engine = QueryEngine::new(self.store);
        let fam = engine.family(&ResourceFilter::by_name(suffix).relatives(Relatives::Neither))?;
        let mut out = Vec::new();
        for id in fam {
            if let Some(rec) = self.store.resource_by_id(id)? {
                for (attr, value, _) in self.store.attributes_of(id)? {
                    out.push((rec.name.clone(), attr, value));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Add a resource-name selection to the pr-filter (default relatives:
    /// descendants, the GUI's `D`).
    pub fn add_name(&mut self, suffix: &str, relatives: Relatives) {
        self.selected.push(SelectedParameter {
            label: format!("{suffix} [{}]", relatives.code()),
            filter: ResourceFilter::by_name(suffix).relatives(relatives),
        });
    }

    /// Add a bare resource type (no name): machine-level-only queries.
    pub fn add_type(&mut self, type_path: &TypePath) {
        self.selected.push(SelectedParameter {
            label: format!("type {type_path} [N]"),
            filter: ResourceFilter::by_type(type_path.clone()),
        });
    }

    /// Add an attribute predicate selection.
    pub fn add_attr(&mut self, pred: AttrPredicate) {
        self.selected.push(SelectedParameter {
            label: format!("{} {:?} {}", pred.attr, pred.cmp, pred.value),
            filter: ResourceFilter::by_attrs(vec![pred]),
        });
    }

    /// Change the relatives flag of an already-selected parameter (the
    /// editable "Relatives" column).
    pub fn set_relatives(&mut self, index: usize, relatives: Relatives) -> Result<()> {
        let p = self
            .selected
            .get_mut(index)
            .ok_or_else(|| PtError::Invalid(format!("no selected parameter {index}")))?;
        p.filter.relatives = relatives;
        if let Some(open) = p.label.rfind('[') {
            p.label.truncate(open);
            p.label.push_str(&format!("[{}]", relatives.code()));
        }
        Ok(())
    }

    /// Remove a selected parameter.
    pub fn remove(&mut self, index: usize) {
        if index < self.selected.len() {
            self.selected.remove(index);
        }
    }

    /// The current "Selected Parameters" list.
    pub fn selected(&self) -> &[SelectedParameter] {
        &self.selected
    }

    /// Live match counts for the pr-filter under construction ("lets users
    /// tailor queries to return a reasonable number of results").
    pub fn counts(&self) -> Result<MatchCounts> {
        let _committed = self.store.db().read();
        let engine = QueryEngine::new(self.store);
        let families = self
            .selected
            .iter()
            .map(|p| engine.family(&p.filter))
            .collect::<Result<Vec<_>>>()?;
        engine.match_counts(&families)
    }

    /// Execute the query and open the main window (Figure 4).
    pub fn retrieve(&self) -> Result<ResultTable<'s>> {
        Ok(self.retrieve_profiled()?.0)
    }

    /// Like [`SelectionDialog::retrieve`], but also returns the
    /// per-operator [`QueryProfile`] of the executed pr-filter pipeline
    /// (the CLI's `--profile` flag surfaces this).
    pub fn retrieve_profiled(&self) -> Result<(ResultTable<'s>, QueryProfile)> {
        let engine = QueryEngine::new(self.store);
        let filters: Vec<ResourceFilter> = self.selected.iter().map(|p| p.filter.clone()).collect();
        let (rows, profile, families) = engine.run_with_families(&filters)?;
        Ok((
            ResultTable {
                store: self.store,
                fixed_families: families,
                base_rows: rows,
                extra_columns: Vec::new(),
                hidden: HashSet::new(),
            },
            profile,
        ))
    }
}

/// An added display column.
#[derive(Debug, Clone)]
enum ExtraColumn {
    /// Resource base name of a type.
    ResourceType { type_path: String },
    /// Attribute of the context resource of a type.
    Attribute { type_path: String, attr: String },
}

/// The main window's result table (Figure 4).
pub struct ResultTable<'s> {
    store: &'s PTDataStore,
    fixed_families: Vec<HashSet<i64>>,
    base_rows: Vec<ResultRow>,
    extra_columns: Vec<(String, ExtraColumn)>,
    hidden: HashSet<i64>,
}

/// Fixed leading columns of the table.
pub const BASE_COLUMNS: [&str; 5] = ["execution", "metric", "value", "units", "tool"];

impl<'s> ResultTable<'s> {
    /// Number of (visible) result rows.
    pub fn len(&self) -> usize {
        self.base_rows
            .iter()
            .filter(|r| !self.hidden.contains(&r.result_id))
            .count()
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying matched rows (including hidden).
    pub fn rows(&self) -> &[ResultRow] {
        &self.base_rows
    }

    /// Column headers: the base columns plus added ones.
    pub fn columns(&self) -> Vec<String> {
        BASE_COLUMNS
            .iter()
            .map(|s| s.to_string())
            .chain(self.extra_columns.iter().map(|(n, _)| n.clone()))
            .collect()
    }

    /// The "Add Columns" dialog content: free resource types whose values
    /// vary across the displayed results (§3.2's two-step design).
    pub fn addable_columns(&self) -> Result<Vec<FreeResourceColumn>> {
        let _committed = self.store.db().read();
        let engine = QueryEngine::new(self.store);
        engine.free_resource_types(&self.base_rows, &self.fixed_families)
    }

    /// Add a free-resource column by type.
    pub fn add_resource_column(&mut self, type_path: &str) {
        self.extra_columns.push((
            type_path
                .rsplit('/')
                .next()
                .unwrap_or(type_path)
                .to_string(),
            ExtraColumn::ResourceType {
                type_path: type_path.to_string(),
            },
        ));
    }

    /// Add an attribute column for the context resources of a type.
    pub fn add_attribute_column(&mut self, type_path: &str, attr: &str) {
        self.extra_columns.push((
            attr.to_string(),
            ExtraColumn::Attribute {
                type_path: type_path.to_string(),
                attr: attr.to_string(),
            },
        ));
    }

    /// Render the visible table as strings (row-major).
    pub fn render(&self) -> Result<Vec<Vec<String>>> {
        let _committed = self.store.db().read();
        let engine = QueryEngine::new(self.store);
        // Pre-compute extra column values over all rows, then filter.
        let mut extra_values: Vec<Vec<Option<String>>> = Vec::new();
        for (_, c) in &self.extra_columns {
            let vals = match c {
                ExtraColumn::ResourceType { type_path } => {
                    engine.column_values(&self.base_rows, type_path)?
                }
                ExtraColumn::Attribute { type_path, attr } => {
                    engine.attr_column_values(&self.base_rows, type_path, attr)?
                }
            };
            extra_values.push(vals);
        }
        let mut out = Vec::new();
        for (i, r) in self.base_rows.iter().enumerate() {
            if self.hidden.contains(&r.result_id) {
                continue;
            }
            let mut row = vec![
                String::from(&*r.execution),
                String::from(&*r.metric),
                format!("{}", r.value),
                String::from(&*r.units),
                String::from(&*r.tool),
            ];
            for vals in &extra_values {
                row.push(vals[i].clone().unwrap_or_default());
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Sort rows by a column index (over the rendered representation;
    /// numeric when every value parses as a number).
    pub fn sort_by(&mut self, column: usize, ascending: bool) -> Result<()> {
        let rendered = self.render()?;
        if rendered.is_empty() {
            return Ok(());
        }
        if column >= rendered[0].len() {
            return Err(PtError::Invalid(format!("no column {column}")));
        }
        // Build a sort key per visible row, then reorder base_rows to
        // match (hidden rows keep relative order at the end).
        let visible: Vec<&ResultRow> = self
            .base_rows
            .iter()
            .filter(|r| !self.hidden.contains(&r.result_id))
            .collect();
        let numeric = rendered.iter().all(|r| r[column].parse::<f64>().is_ok());
        let mut order: Vec<usize> = (0..visible.len()).collect();
        order.sort_by(|&a, &b| {
            let (va, vb) = (&rendered[a][column], &rendered[b][column]);
            let ord = if numeric {
                va.parse::<f64>()
                    .unwrap()
                    .partial_cmp(&vb.parse::<f64>().unwrap())
                    .unwrap_or(std::cmp::Ordering::Equal)
            } else {
                va.cmp(vb)
            };
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        let sorted_visible: Vec<ResultRow> = order.iter().map(|&i| visible[i].clone()).collect();
        let hidden_rows: Vec<ResultRow> = self
            .base_rows
            .iter()
            .filter(|r| self.hidden.contains(&r.result_id))
            .cloned()
            .collect();
        self.base_rows = sorted_visible;
        self.base_rows.extend(hidden_rows);
        Ok(())
    }

    /// Hide rows whose metric is not `metric` (one of the GUI's row
    /// filters).
    pub fn filter_metric(&mut self, metric: &str) {
        for r in &self.base_rows {
            if &*r.metric != metric {
                self.hidden.insert(r.result_id);
            }
        }
    }

    /// Hide rows whose execution is not `execution`.
    pub fn filter_execution(&mut self, execution: &str) {
        for r in &self.base_rows {
            if &*r.execution != execution {
                self.hidden.insert(r.result_id);
            }
        }
    }

    /// Clear all row filters.
    pub fn clear_filters(&mut self) {
        self.hidden.clear();
    }

    /// Export the visible table as CSV ("store data in a format suitable
    /// for spreadsheet programs to import"), by [`DetachedTable::to_csv`].
    pub fn to_csv(&self) -> Result<String> {
        let table = DetachedTable {
            columns: self.columns(),
            rows: self.render()?,
        };
        Ok(table.to_csv())
    }

    /// Plot visible rows as a bar chart: categories from one rendered
    /// column, one series per distinct value of another column, values
    /// from the `value` column (mean when several rows share a cell).
    pub fn chart(&self, title: &str, category_col: usize, series_col: usize) -> Result<BarChart> {
        let rendered = self.render()?;
        let mut categories: Vec<String> = Vec::new();
        let mut series_names: Vec<String> = Vec::new();
        for row in &rendered {
            if !categories.contains(&row[category_col]) {
                categories.push(row[category_col].clone());
            }
            if !series_names.contains(&row[series_col]) {
                series_names.push(row[series_col].clone());
            }
        }
        let units = self
            .base_rows
            .iter()
            .find(|r| !self.hidden.contains(&r.result_id))
            .map(|r| String::from(&*r.units))
            .unwrap_or_default();
        let mut series = Vec::new();
        for name in &series_names {
            let mut values = Vec::new();
            for cat in &categories {
                let cells: Vec<f64> = rendered
                    .iter()
                    .filter(|r| &r[category_col] == cat && &r[series_col] == name)
                    .filter_map(|r| r[2].parse::<f64>().ok())
                    .collect();
                let mean = if cells.is_empty() {
                    0.0
                } else {
                    cells.iter().sum::<f64>() / cells.len() as f64
                };
                values.push(mean);
            }
            series.push(Series {
                name: name.clone(),
                values,
            });
        }
        Ok(BarChart::new(title, categories, series, &units))
    }
}

/// A table detached from any store, reconstructed from a CSV export —
/// the GUI's "store the data to files, read it back in" path (§3.2).
/// Detached tables support the display-side operations (sort, filter,
/// chart) without a database connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetachedTable {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl DetachedTable {
    /// Parse a CSV document produced by [`ResultTable::to_csv`] (or any
    /// CSV with the same quoting rules).
    pub fn from_csv(text: &str) -> Result<DetachedTable> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| PtError::Invalid("empty CSV".into()))?;
        let columns = parse_csv_line(header)?;
        if columns.is_empty() {
            return Err(PtError::Invalid("CSV has no columns".into()));
        }
        let mut rows = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let row = parse_csv_line(line)?;
            if row.len() != columns.len() {
                return Err(PtError::Invalid(format!(
                    "CSV row {} has {} fields, expected {}",
                    i + 2,
                    row.len(),
                    columns.len()
                )));
            }
            rows.push(row);
        }
        Ok(DetachedTable { columns, rows })
    }

    /// Sort rows by a column (numeric when every value parses).
    pub fn sort_by(&mut self, column: usize, ascending: bool) -> Result<()> {
        if column >= self.columns.len() {
            return Err(PtError::Invalid(format!("no column {column}")));
        }
        let numeric = self.rows.iter().all(|r| r[column].parse::<f64>().is_ok());
        self.rows.sort_by(|a, b| {
            let ord = if numeric {
                a[column]
                    .parse::<f64>()
                    .unwrap()
                    .partial_cmp(&b[column].parse::<f64>().unwrap())
                    .unwrap_or(std::cmp::Ordering::Equal)
            } else {
                a[column].cmp(&b[column])
            };
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(())
    }

    /// Keep only rows whose `column` equals `value`.
    pub fn filter_eq(&mut self, column: usize, value: &str) -> Result<()> {
        if column >= self.columns.len() {
            return Err(PtError::Invalid(format!("no column {column}")));
        }
        self.rows.retain(|r| r[column] == value);
        Ok(())
    }

    /// Round-trip back to CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Chart a detached table, like [`ResultTable::chart`]: `value_col`
    /// supplies the numbers.
    pub fn chart(
        &self,
        title: &str,
        category_col: usize,
        series_col: usize,
        value_col: usize,
    ) -> Result<BarChart> {
        for c in [category_col, series_col, value_col] {
            if c >= self.columns.len() {
                return Err(PtError::Invalid(format!("no column {c}")));
            }
        }
        let mut categories: Vec<String> = Vec::new();
        let mut series_names: Vec<String> = Vec::new();
        for row in &self.rows {
            if !categories.contains(&row[category_col]) {
                categories.push(row[category_col].clone());
            }
            if !series_names.contains(&row[series_col]) {
                series_names.push(row[series_col].clone());
            }
        }
        let mut series = Vec::new();
        for name in &series_names {
            let mut values = Vec::new();
            for cat in &categories {
                let cells: Vec<f64> = self
                    .rows
                    .iter()
                    .filter(|r| &r[category_col] == cat && &r[series_col] == name)
                    .filter_map(|r| r[value_col].parse().ok())
                    .collect();
                values.push(if cells.is_empty() {
                    0.0
                } else {
                    cells.iter().sum::<f64>() / cells.len() as f64
                });
            }
            series.push(Series {
                name: name.clone(),
                values,
            });
        }
        Ok(BarChart::new(title, categories, series, ""))
    }
}

/// Parse one CSV line with the quoting rules of [`csv_escape`].
fn parse_csv_line(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            None => {
                fields.push(std::mem::take(&mut cur));
                break;
            }
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => cur.push(c),
                        None => {
                            return Err(PtError::Invalid("unterminated CSV quote".into()));
                        }
                    }
                }
            }
            Some(',') => {
                chars.next();
                fields.push(std::mem::take(&mut cur));
            }
            Some(_) => {
                cur.push(chars.next().unwrap());
            }
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perftrack_model::AttrCmp;

    fn setup() -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from("Application IRS\n");
        for (grid, machine, os) in [("GF", "Frost", "AIX"), ("GM", "MCR", "Linux")] {
            ptdf.push_str(&format!("Resource /{grid} grid\n"));
            ptdf.push_str(&format!("Resource /{grid}/{machine} grid/machine\n"));
            ptdf.push_str(&format!(
                "ResourceAttribute /{grid}/{machine} os {os} string\n"
            ));
            ptdf.push_str(&format!(
                "Resource /{grid}/{machine}/batch grid/machine/partition\n"
            ));
            for n in 0..2 {
                ptdf.push_str(&format!(
                    "Resource /{grid}/{machine}/batch/node{n} grid/machine/partition/node\n"
                ));
            }
            ptdf.push_str(&format!("Resource /irs-{machine} application\n"));
            ptdf.push_str(&format!("Execution exec-{machine} IRS\n"));
            for n in 0..2 {
                ptdf.push_str(&format!(
                    "PerfResult exec-{machine} \"/irs-{machine},/{grid}/{machine}/batch/node{n}(primary)\" IRS \"CPU time\" {}.5 seconds\n",
                    n + 1
                ));
            }
        }
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    #[test]
    fn addable_columns_resolve_each_resource_once() {
        let store = PTDataStore::in_memory().unwrap();
        store
            .load_ptdf_str(
                "Application App\nResource /app application\nResource /grid grid\n\
                 Resource /grid/m1 grid/machine\nResource /grid/m2 grid/machine\n\
                 ResourceAttribute /grid/m1 os AIX string\n",
            )
            .unwrap();
        // Each execution's results name the same resources.
        let execution = |e: usize| {
            let mut ptdf = format!("Execution e{e} App\n");
            for m in ["m1", "m2"] {
                for metric in ["time", "calls"] {
                    ptdf.push_str(&format!(
                        "PerfResult e{e} \"/app,/grid/{m}(primary)\" T {metric} 1.0 s\n"
                    ));
                }
            }
            ptdf
        };
        let addable = |store: &PTDataStore| {
            let mut d = SelectionDialog::new(store);
            d.add_name("/app", Relatives::Neither);
            let table = d.retrieve().unwrap();
            let before = store.db().metrics().btree.point_probes;
            let columns = table.addable_columns().unwrap();
            let probes = store.db().metrics().btree.point_probes - before;
            (table.len(), columns, probes)
        };
        store.load_ptdf_str(&execution(0)).unwrap();
        let (rows, columns, probes) = addable(&store);
        assert_eq!(rows, 4);
        assert_eq!(
            columns,
            vec![FreeResourceColumn {
                type_path: "grid/machine".into(),
                distinct_values: 2,
                attributes: vec!["os".into()],
            }]
        );
        for e in 1..4 {
            store.load_ptdf_str(&execution(e)).unwrap();
        }
        assert_eq!(addable(&store), (16, columns, probes));
    }

    #[test]
    fn dialog_menus_and_lists() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        let menu = d.resource_type_menu();
        assert!(menu.contains(&"grid/machine".to_string()));
        let names = d.names_for_type("grid/machine").unwrap();
        assert_eq!(
            names,
            vec![("Frost".to_string(), 1), ("MCR".to_string(), 1)]
        );
        // "batch" appears once per machine.
        let names = d.names_for_type("grid/machine/partition").unwrap();
        assert_eq!(names, vec![("batch".to_string(), 2)]);
        let attrs = d.attributes_for_type("grid/machine").unwrap();
        assert_eq!(attrs, vec!["os".to_string()]);
    }

    #[test]
    fn child_expansion_restricts_scope() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        // Children of the generic "batch" entry: nodes on both machines.
        let kids = d.children_of_name("batch").unwrap();
        assert_eq!(
            kids,
            vec![
                ("batch/node0".to_string(), 2),
                ("batch/node1".to_string(), 2)
            ]
        );
        // Children of "Frost/batch" restrict to Frost (Fig. 3 semantics).
        let kids = d.children_of_name("Frost/batch").unwrap();
        assert_eq!(
            kids,
            vec![
                ("Frost/batch/node0".to_string(), 1),
                ("Frost/batch/node1".to_string(), 1)
            ]
        );
    }

    #[test]
    fn attribute_viewer_lists_per_resource() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        let rows = d.attribute_viewer("Frost").unwrap();
        assert_eq!(rows, vec![("/GF/Frost".into(), "os".into(), "AIX".into())]);
        // Multi-resource entry shows all.
        let rows = d.attribute_viewer("batch").unwrap();
        assert!(rows.is_empty(), "batch partitions have no attributes");
    }

    #[test]
    fn build_query_with_live_counts_then_retrieve() {
        let store = setup();
        let mut d = SelectionDialog::new(&store);
        d.add_name("Frost", Relatives::Descendants);
        let counts = d.counts().unwrap();
        assert_eq!(counts.per_family, vec![2]);
        assert_eq!(counts.whole, 2);
        d.add_attr(AttrPredicate {
            attr: "os".into(),
            cmp: AttrCmp::Eq,
            value: "AIX".into(),
        });
        // The os=AIX family is only machine-level; machine isn't in any
        // context, so the whole filter now matches nothing — the feedback
        // loop the GUI counts exist for. Switch the attr family to include
        // descendants instead.
        assert_eq!(d.counts().unwrap().whole, 0);
        d.set_relatives(2 - 1, Relatives::Descendants).unwrap();
        assert_eq!(d.counts().unwrap().whole, 2);
        let table = d.retrieve().unwrap();
        assert_eq!(table.len(), 2);
        // Selected parameters are inspectable and removable.
        assert_eq!(d.selected().len(), 2);
        d.remove(1);
        assert_eq!(d.selected().len(), 1);
    }

    #[test]
    fn table_columns_sort_filter_csv() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        let mut table = d.retrieve().unwrap(); // empty filter: all 4 results
        assert_eq!(table.len(), 4);
        assert_eq!(table.columns(), BASE_COLUMNS.to_vec());
        // Sort by value descending: first row has the largest value.
        table.sort_by(2, false).unwrap();
        let rows = table.render().unwrap();
        assert_eq!(rows[0][2], "2.5");
        // Filter to one execution.
        table.filter_execution("exec-Frost");
        assert_eq!(table.len(), 2);
        table.clear_filters();
        assert_eq!(table.len(), 4);
        // Add a free-resource column.
        let addable = table.addable_columns().unwrap();
        assert!(
            addable
                .iter()
                .any(|c| c.type_path == "grid/machine/partition/node"),
            "node varies: {addable:?}"
        );
        table.add_resource_column("grid/machine/partition/node");
        let rows = table.render().unwrap();
        assert!(rows.iter().any(|r| r[5] == "node0"));
        // Attribute column via the machine's os — machines aren't in the
        // context, so instead add the application column.
        table.add_resource_column("application");
        let rows = table.render().unwrap();
        assert!(rows.iter().any(|r| r[6].starts_with("irs-")));
        // CSV includes headers and all rows.
        let csv = table.to_csv().unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("execution,metric,value,units,tool,node,application"));
    }

    #[test]
    fn retrieve_profiled_matches_retrieve() {
        let store = setup();
        let mut d = SelectionDialog::new(&store);
        d.add_name("Frost", Relatives::Descendants);
        let plain = d.retrieve().unwrap();
        let (profiled, profile) = d.retrieve_profiled().unwrap();
        assert_eq!(profiled.rows(), plain.rows());
        let names: Vec<&str> = profile
            .operators
            .iter()
            .map(|o| o.operator.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["family[0]", "context-map:scan", "match", "fetch"]
        );
        assert!(profile.total_nanos > 0);
    }

    #[test]
    fn csv_roundtrip_through_detached_table() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        let mut table = d.retrieve().unwrap();
        table.add_resource_column("grid/machine/partition/node");
        let csv = table.to_csv().unwrap();
        // "Read it back in": full round-trip.
        let mut detached = DetachedTable::from_csv(&csv).unwrap();
        assert_eq!(detached.columns, table.columns());
        assert_eq!(detached.rows.len(), table.len());
        assert_eq!(detached.to_csv(), csv);
        // Display-side operations work offline.
        detached.sort_by(2, false).unwrap();
        let vals: Vec<f64> = detached
            .rows
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]));
        detached.filter_eq(0, "exec-Frost").unwrap();
        assert_eq!(detached.rows.len(), 2);
        let chart = detached.chart("offline", 5, 1, 2).unwrap();
        assert!(!chart.categories.is_empty());
    }

    #[test]
    fn detached_table_error_paths() {
        assert!(DetachedTable::from_csv("").is_err());
        assert!(DetachedTable::from_csv("a,b\n1\n").is_err(), "ragged row");
        assert!(DetachedTable::from_csv("a,\"unterminated\n1,2\n").is_err());
        // Quoted fields with commas and quotes round-trip.
        let t = DetachedTable::from_csv("name,note\nx,\"hello, \"\"world\"\"\"\n").unwrap();
        assert_eq!(t.rows[0][1], "hello, \"world\"");
        let again = DetachedTable::from_csv(&t.to_csv()).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn chart_extraction() {
        let store = setup();
        let d = SelectionDialog::new(&store);
        let mut table = d.retrieve().unwrap();
        table.add_resource_column("grid/machine/partition/node");
        // Category = node (col 5), series = execution (col 0).
        let chart = table.chart("cpu by node", 5, 0).unwrap();
        assert_eq!(chart.categories, vec!["node0", "node1"]);
        assert_eq!(chart.series.len(), 2);
        assert_eq!(chart.units, "seconds");
        let ascii = chart.render_ascii(70);
        assert!(ascii.contains("node1"));
    }
}
