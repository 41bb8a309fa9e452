//! The pr-filter query engine over the database (§2.2 semantics, §3.2
//! behaviours): building resource families from filters, matching
//! performance results, live match counts, and *free resource* discovery
//! for the GUI's two-step column selection.

use crate::datastore::{decode_resource, PTDataStore};
use crate::error::{PtError, Result};
use crate::planner::{explain_filters, plan_filters};
use crate::schema::col;
use perftrack_model::{AttrPredicate, Relatives, ResourceFilter, Selector};
use perftrack_store::metrics::{OperatorProfile, QueryProfile};
use perftrack_store::planner::{ExplainPlan, COST_FETCH_ROW, COST_PROBE, COST_SCAN_ROW};
use perftrack_store::sync::Mutex;
use perftrack_store::{Row, StatsState, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// One matched performance result, denormalized for display.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub result_id: i64,
    pub execution: String,
    pub metric: String,
    pub value: f64,
    pub units: String,
    pub tool: String,
    /// Resource ids in the result's context (union of its foci).
    pub context: Vec<i64>,
}

/// A candidate "Add Columns" entry: a free resource type whose values vary
/// across the displayed results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeResourceColumn {
    pub type_path: String,
    /// Distinct resource base names observed across the results.
    pub distinct_values: usize,
    /// Attribute names available on those resources.
    pub attributes: Vec<String>,
}

/// Per-family and whole-filter match counts (GUI live counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchCounts {
    pub per_family: Vec<usize>,
    pub whole: usize,
}

/// Query engine bound to a data store.
///
/// The engine lazily caches the result-context map (the join of `focus`
/// and `focus_has_resource`), which every matching and counting operation
/// needs. An engine is therefore a cheap *snapshot view*: create a fresh
/// one after loading new data.
/// Cached result-id → context-resource-ids map.
type ContextMap = Arc<HashMap<i64, Vec<i64>>>;

pub struct QueryEngine<'s> {
    store: &'s PTDataStore,
    context_cache: Mutex<Option<ContextMap>>,
}

impl<'s> QueryEngine<'s> {
    /// Engine over `store`; families expand through the closure tables.
    pub fn new(store: &'s PTDataStore) -> Self {
        QueryEngine {
            store,
            context_cache: Mutex::new(None),
        }
    }

    // -- family construction -------------------------------------------------

    /// Apply a resource filter, producing the family as a set of resource
    /// ids.
    pub fn family(&self, filter: &ResourceFilter) -> Result<HashSet<i64>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let seed: Vec<i64> = match &filter.selector {
            Selector::ByType(tp) => {
                let type_id = self
                    .store
                    .type_id(tp.as_str())
                    .ok_or_else(|| PtError::NotFound(format!("type {tp}")))?;
                let idx = db.index_id("resource_item_type")?;
                let rids = db.index_lookup(idx, &[Value::Int(type_id)])?;
                rids.iter()
                    .map(|&rid| Ok(decode_resource(&db.get(schema.resource_item, rid)?).id))
                    .collect::<Result<Vec<_>>>()?
            }
            Selector::ByName(pattern) => {
                if pattern.starts_with('/') {
                    // Exact full-name lookup.
                    match self.store.resource_by_name(pattern)? {
                        Some(r) => vec![r.id],
                        None => vec![],
                    }
                } else {
                    // Shorthand: resolve via the base-name index, then
                    // verify the suffix.
                    let base = pattern.rsplit('/').next().unwrap_or(pattern);
                    let idx = db.index_id("resource_item_base")?;
                    let rids = db.index_lookup(idx, &[Value::Text(base.to_string())])?;
                    let mut out = Vec::new();
                    for rid in rids {
                        let rec = decode_resource(&db.get(schema.resource_item, rid)?);
                        let rn = perftrack_model::ResourceName::new(&rec.name)
                            .map_err(PtError::Model)?;
                        if rn.matches_shorthand(pattern) {
                            out.push(rec.id);
                        }
                    }
                    out
                }
            }
            Selector::ByAttrs(preds) => self.resources_matching_attrs(preds)?,
        };
        let mut family: HashSet<i64> = seed.iter().copied().collect();
        if matches!(filter.relatives, Relatives::Ancestors | Relatives::Both) {
            self.expand_closure_batch(
                "rha_resource",
                schema.resource_has_ancestor,
                col::resource_has_ancestor::RESOURCE_ID,
                col::resource_has_ancestor::ANCESTOR_ID,
                &seed,
                &mut family,
            )?;
        }
        if matches!(filter.relatives, Relatives::Descendants | Relatives::Both) {
            self.expand_closure_batch(
                "rhd_resource",
                schema.resource_has_descendant,
                col::resource_has_descendant::RESOURCE_ID,
                col::resource_has_descendant::DESCENDANT_ID,
                &seed,
                &mut family,
            )?;
        }
        Ok(family)
    }

    fn resources_matching_attrs(&self, preds: &[AttrPredicate]) -> Result<Vec<i64>> {
        if preds.is_empty() {
            return Ok(Vec::new());
        }
        let db = self.store.db();
        let schema = self.store.schema();
        // Drive from the first predicate via the attribute-name index.
        let idx = db.index_id("resource_attribute_name")?;
        let rids = db.index_lookup(idx, &[Value::Text(preds[0].attr.clone())])?;
        let mut candidates: HashSet<i64> = HashSet::new();
        for rid in rids {
            let row = db.get(schema.resource_attribute, rid)?;
            let value = row[col::resource_attribute::VALUE].as_text()?;
            if preds[0].cmp.apply(value, &preds[0].value) {
                candidates.insert(row[col::resource_attribute::RESOURCE_ID].as_int()?);
            }
        }
        // Check remaining predicates against each candidate's attributes.
        let mut out = Vec::new();
        'cand: for rid in candidates {
            for p in &preds[1..] {
                let attrs = self.store.attributes_of(rid)?;
                let ok = attrs
                    .iter()
                    .any(|(n, v, _)| n == &p.attr && p.cmp.apply(v, &p.value));
                if !ok {
                    continue 'cand;
                }
            }
            out.push(rid);
        }
        Ok(out)
    }

    /// Closure-table expansion for a whole seed set at once.
    ///
    /// With fresh statistics, the expansion is itself planned: a batched
    /// B+tree probe costs `seeds × (probe + fanout × fetch)`, a scan of
    /// the closure table costs one unit per row. Large seed sets over
    /// small closure tables take the scan; everything else (including
    /// every un-ANALYZEd store) takes the batched probe, exactly as
    /// before the planner existed.
    fn expand_closure_batch(
        &self,
        index_name: &str,
        table: perftrack_store::TableId,
        seed_col: usize,
        relative_col: usize,
        seeds: &[i64],
        into: &mut HashSet<i64>,
    ) -> Result<()> {
        if seeds.is_empty() {
            return Ok(());
        }
        let db = self.store.db();
        let idx = db.index_id(index_name)?;
        if let (StatsState::Fresh(rows), Some(fanout)) =
            (db.table_stats_state(table), db.index_avg_fanout(idx))
        {
            let probe_cost = seeds.len() as f64 * (COST_PROBE + fanout * COST_FETCH_ROW);
            if rows as f64 * COST_SCAN_ROW < probe_cost {
                let seed_set: HashSet<i64> = seeds.iter().copied().collect();
                let mut bad = None;
                db.for_each_row(table, |_, row| {
                    match (row[seed_col].as_int(), row[relative_col].as_int()) {
                        (Ok(rid), Ok(rel)) => {
                            if seed_set.contains(&rid) {
                                into.insert(rel);
                            }
                            true
                        }
                        (Err(e), _) | (_, Err(e)) => {
                            bad = Some(e);
                            false
                        }
                    }
                })?;
                return match bad {
                    Some(e) => Err(e.into()),
                    None => Ok(()),
                };
            }
        }
        let keys: Vec<Vec<Value>> = seeds.iter().map(|&id| vec![Value::Int(id)]).collect();
        for rids in db.index_lookup_many(idx, &keys)? {
            for rid in rids {
                let row = db.get(table, rid)?;
                into.insert(row[relative_col].as_int()?);
            }
        }
        Ok(())
    }

    // -- matching -------------------------------------------------------------

    /// Map of result id → context resource ids (one pass over focus +
    /// focus_has_resource, cached for the engine's lifetime).
    pub fn result_context_map(&self) -> Result<Arc<HashMap<i64, Vec<i64>>>> {
        if let Some(cached) = self.context_cache.lock().clone() {
            return Ok(cached);
        }
        let built = Arc::new(self.build_context_map()?);
        *self.context_cache.lock() = Some(Arc::clone(&built));
        Ok(built)
    }

    fn build_context_map(&self) -> Result<HashMap<i64, Vec<i64>>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let mut focus_to_result: HashMap<i64, i64> = HashMap::new();
        db.for_each_row(schema.focus, |_, row| {
            if let (Ok(fid), Ok(rid)) = (
                row[col::focus::ID].as_int(),
                row[col::focus::RESULT_ID].as_int(),
            ) {
                focus_to_result.insert(fid, rid);
            }
            true
        })?;
        let mut out: HashMap<i64, Vec<i64>> = HashMap::with_capacity(focus_to_result.len());
        db.for_each_row(schema.focus_has_resource, |_, row| {
            if let (Ok(fid), Ok(res)) = (
                row[col::focus_has_resource::FOCUS_ID].as_int(),
                row[col::focus_has_resource::RESOURCE_ID].as_int(),
            ) {
                if let Some(&result) = focus_to_result.get(&fid) {
                    out.entry(result).or_default().push(res);
                }
            }
            true
        })?;
        // Results whose foci name no resources still exist.
        for (_, rid) in focus_to_result {
            out.entry(rid).or_default();
        }
        for v in out.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        Ok(out)
    }

    /// Result ids whose context matches every family (the paper's rule).
    ///
    /// Families are checked smallest-first — the planner's match-order
    /// rule, here with exact cardinalities since the sets are already
    /// materialized — so non-matching contexts fail on the cheapest,
    /// most selective probe. The result set is order-independent.
    pub fn matching_result_ids(&self, families: &[HashSet<i64>]) -> Result<Vec<i64>> {
        let contexts = self.result_context_map()?;
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by_key(|&i| families[i].len());
        let mut ids: Vec<i64> = contexts
            .iter()
            .filter(|(_, ctx)| {
                order
                    .iter()
                    .all(|&i| ctx.iter().any(|r| families[i].contains(r)))
            })
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Live counts: how many results each family matches alone, and how
    /// many match the whole filter (§3.2's query-size feedback).
    pub fn match_counts(&self, families: &[HashSet<i64>]) -> Result<MatchCounts> {
        let contexts = self.result_context_map()?;
        let mut per_family = vec![0usize; families.len()];
        let mut whole = 0usize;
        for ctx in contexts.values() {
            let mut all = true;
            for (i, fam) in families.iter().enumerate() {
                if ctx.iter().any(|r| fam.contains(r)) {
                    per_family[i] += 1;
                } else {
                    all = false;
                }
            }
            if all {
                whole += 1;
            }
        }
        Ok(MatchCounts { per_family, whole })
    }

    /// Full query: build families from filters, match, and denormalize
    /// into displayable rows.
    pub fn run(&self, filters: &[ResourceFilter]) -> Result<Vec<ResultRow>> {
        Ok(self.run_profiled(filters)?.0)
    }

    /// EXPLAIN the pr-filter pipeline without running it: the planned
    /// access path, expansion, and match order per filter, as a
    /// `pt-explain/v1` tree with estimated rows per operator.
    pub fn explain(&self, filters: &[ResourceFilter]) -> ExplainPlan {
        explain_filters(&plan_filters(self.store, filters))
    }

    /// Like [`QueryEngine::run`], but also returns a per-operator profile
    /// of the pr-filter pipeline (operator names documented in
    /// `docs/METRICS.md`): one `family` operator per filter, then
    /// `context-map`, `match`, and `fetch`.
    pub fn run_profiled(
        &self,
        filters: &[ResourceFilter],
    ) -> Result<(Vec<ResultRow>, QueryProfile)> {
        let total_start = Instant::now();
        let mut profile = QueryProfile::default();
        let plan = plan_filters(self.store, filters);
        let planner_metrics = self.store.db().planner_stats();

        let mut families = Vec::with_capacity(filters.len());
        for (i, f) in filters.iter().enumerate() {
            let stage = Instant::now();
            let fam = self.family(f)?;
            let est = plan.filters[i].estimated_family;
            if let Some(e) = est {
                planner_metrics.estimated_rows.add(e);
                planner_metrics.actual_rows.add(fam.len() as u64);
            }
            profile.push(
                OperatorProfile::new(format!("family[{i}]"), 0, fam.len() as u64, stage.elapsed())
                    .with_estimated_rows(est),
            );
            families.push(fam);
        }

        // Context map (cached after the first build; the profile records
        // whatever this call actually cost).
        let stage = Instant::now();
        let contexts = self.result_context_map()?;
        profile.push(
            OperatorProfile::new("context-map", 0, contexts.len() as u64, stage.elapsed())
                .with_estimated_rows(plan.estimated_contexts),
        );

        let stage = Instant::now();
        let ids = self.matching_result_ids(&families)?;
        profile.push(
            OperatorProfile::new(
                "match",
                contexts.len() as u64,
                ids.len() as u64,
                stage.elapsed(),
            )
            .with_estimated_rows(plan.estimated_matches),
        );

        let stage = Instant::now();
        let rows = self.fetch_rows(&ids)?;
        profile.push(
            OperatorProfile::new(
                "fetch",
                ids.len() as u64,
                rows.len() as u64,
                stage.elapsed(),
            )
            .with_estimated_rows(plan.estimated_matches),
        );

        profile.total_nanos = total_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        Ok((rows, profile))
    }

    /// Denormalize result rows by id.
    pub fn fetch_rows(&self, ids: &[i64]) -> Result<Vec<ResultRow>> {
        let db = self.store.db();
        let contexts = self.result_context_map()?;
        let idx = db.index_id("performance_result_id")?;
        // One batched probe resolves every result id in a single tree walk.
        let keys: Vec<Vec<Value>> = ids.iter().map(|&id| vec![Value::Int(id)]).collect();
        let table = self.store.schema().performance_result;
        let rows = db
            .index_lookup_many(idx, &keys)?
            .into_iter()
            .filter_map(|rids| rids.first().copied())
            .map(|rid| Ok(db.get(table, rid)?));
        self.fetch_rows_with(rows, &contexts)
    }

    /// Every result of the executions with ids `exec_ids`, in ascending
    /// result id — exactly the rows `run(&[])` returns for them.
    ///
    /// Only the named executions are read: one batched probe of
    /// `performance_result_exec`, one decode per result row, and
    /// [`QueryEngine::contexts_of`] for their contexts. The cost scales
    /// with the executions' results, not with the store. Repeated ids
    /// count once.
    pub fn rows_of_executions(&self, exec_ids: &[i64]) -> Result<Vec<ResultRow>> {
        let db = self.store.db();
        let mut execs = exec_ids.to_vec();
        execs.sort_unstable();
        execs.dedup();
        let idx = db.index_id("performance_result_exec")?;
        let keys: Vec<Vec<Value>> = execs.iter().map(|&id| vec![Value::Int(id)]).collect();
        let mut rows: Vec<(i64, Row)> = Vec::new();
        for rids in db.index_lookup_many(idx, &keys)? {
            for rid in rids {
                let row = db.get(self.store.schema().performance_result, rid)?;
                rows.push((row[col::performance_result::ID].as_int()?, row));
            }
        }
        rows.sort_unstable_by_key(|(id, _)| *id);
        let ids: Vec<i64> = rows.iter().map(|(id, _)| *id).collect();
        let contexts = self.contexts_of(&ids)?;
        // `run(&[])` matches over the context map, which holds only
        // results with at least one focus; keep the same set.
        let rows = rows
            .into_iter()
            .filter(|(id, _)| contexts.contains_key(id))
            .map(|(_, row)| Ok(row));
        self.fetch_rows_with(rows, &contexts)
    }

    /// Context resource ids of the given results: a batched `focus_result`
    /// probe, then a batched `fhr_focus` probe, each context sorted and
    /// deduplicated as in [`QueryEngine::result_context_map`]. Like that
    /// map, it has an entry for every result with at least one focus
    /// (empty when the foci name no resource) and none for the others.
    pub fn contexts_of(&self, result_ids: &[i64]) -> Result<HashMap<i64, Vec<i64>>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let keys: Vec<Vec<Value>> = result_ids.iter().map(|&id| vec![Value::Int(id)]).collect();
        let mut out: HashMap<i64, Vec<i64>> = HashMap::with_capacity(result_ids.len());
        let mut foci: Vec<(i64, i64)> = Vec::new();
        for (&result, rids) in result_ids
            .iter()
            .zip(db.index_lookup_many(db.index_id("focus_result")?, &keys)?)
        {
            for rid in rids {
                let row = db.get(schema.focus, rid)?;
                foci.push((row[col::focus::ID].as_int()?, result));
                out.entry(result).or_default();
            }
        }
        let keys: Vec<Vec<Value>> = foci.iter().map(|&(f, _)| vec![Value::Int(f)]).collect();
        for (&(_, result), rids) in foci
            .iter()
            .zip(db.index_lookup_many(db.index_id("fhr_focus")?, &keys)?)
        {
            let context = out.entry(result).or_default();
            for rid in rids {
                let row = db.get(schema.focus_has_resource, rid)?;
                context.push(row[col::focus_has_resource::RESOURCE_ID].as_int()?);
            }
        }
        for v in out.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        Ok(out)
    }

    /// Denormalize `performance_result` rows as they are fetched, in
    /// order, taking each result's context from `contexts`: the shared
    /// tail of [`QueryEngine::fetch_rows`] and
    /// [`QueryEngine::rows_of_executions`].
    fn fetch_rows_with(
        &self,
        rows: impl Iterator<Item = Result<Row>>,
        contexts: &HashMap<i64, Vec<i64>>,
    ) -> Result<Vec<ResultRow>> {
        let db = self.store.db();
        let schema = self.store.schema();
        // Reverse maps for names.
        let exec_by_id: HashMap<i64, String> = self.store.executions().into_iter().collect();
        let mut metric_by_id: HashMap<i64, String> = HashMap::new();
        db.for_each_row(schema.metric, |_, row| {
            if let (Ok(id), Ok(name)) = (
                row[col::metric::ID].as_int(),
                row[col::metric::NAME].as_text(),
            ) {
                metric_by_id.insert(id, name.to_string());
            }
            true
        })?;
        let mut tool_by_id: HashMap<i64, String> = HashMap::new();
        db.for_each_row(schema.performance_tool, |_, row| {
            if let (Ok(id), Ok(name)) = (
                row[col::performance_tool::ID].as_int(),
                row[col::performance_tool::NAME].as_text(),
            ) {
                tool_by_id.insert(id, name.to_string());
            }
            true
        })?;
        let (lower, upper) = rows.size_hint();
        let mut out = Vec::with_capacity(upper.unwrap_or(lower));
        for row in rows {
            let row = row?;
            let id = row[col::performance_result::ID].as_int()?;
            out.push(ResultRow {
                result_id: id,
                execution: exec_by_id
                    .get(&row[col::performance_result::EXECUTION_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                metric: metric_by_id
                    .get(&row[col::performance_result::METRIC_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                value: row[col::performance_result::VALUE].as_real()?,
                units: row[col::performance_result::UNITS].as_text()?.to_string(),
                tool: tool_by_id
                    .get(&row[col::performance_result::TOOL_ID].as_int()?)
                    .cloned()
                    .unwrap_or_default(),
                context: contexts.get(&id).cloned().unwrap_or_default(),
            });
        }
        Ok(out)
    }

    // -- free resources ("Add Columns", §3.2) ---------------------------------

    /// Free resource types for a displayed result set: context resources
    /// the query did not pin, grouped by type, *excluding* types whose
    /// resource names are identical across all results (the GUI hides
    /// those as uninformative).
    pub fn free_resource_types(
        &self,
        rows: &[ResultRow],
        fixed: &[HashSet<i64>],
    ) -> Result<Vec<FreeResourceColumn>> {
        let type_by_id = self.type_path_by_id()?;
        // type path -> set of resource names observed (per result).
        let mut per_type_values: BTreeMap<String, HashSet<String>> = BTreeMap::new();
        let mut per_type_attrs: BTreeMap<String, HashSet<String>> = BTreeMap::new();
        for row in rows {
            for &res_id in &row.context {
                if fixed.iter().any(|f| f.contains(&res_id)) {
                    continue; // user pinned this resource; not "free"
                }
                let Some(rec) = self.store.resource_by_id(res_id)? else {
                    continue;
                };
                let tp = type_by_id.get(&rec.type_id).cloned().unwrap_or_default();
                per_type_values
                    .entry(tp.clone())
                    .or_default()
                    .insert(rec.name.clone());
                for (attr, _, _) in self.store.attributes_of(res_id)? {
                    per_type_attrs.entry(tp.clone()).or_default().insert(attr);
                }
            }
        }
        let mut out = Vec::new();
        for (tp, values) in per_type_values {
            if values.len() <= 1 {
                continue; // identical across results — not shown (§3.2)
            }
            let mut attributes: Vec<String> = per_type_attrs
                .remove(&tp)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default();
            attributes.sort();
            out.push(FreeResourceColumn {
                type_path: tp,
                distinct_values: values.len(),
                attributes,
            });
        }
        Ok(out)
    }

    /// Values for an added column: per result, the base name(s) of context
    /// resources of `type_path` (joined with `+` when several).
    pub fn column_values(
        &self,
        rows: &[ResultRow],
        type_path: &str,
    ) -> Result<Vec<Option<String>>> {
        let type_id = self
            .store
            .type_id(type_path)
            .ok_or_else(|| PtError::NotFound(format!("type {type_path}")))?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut names = Vec::new();
            for &res_id in &row.context {
                if let Some(rec) = self.store.resource_by_id(res_id)? {
                    if rec.type_id == type_id {
                        names.push(rec.base_name);
                    }
                }
            }
            names.sort();
            out.push(if names.is_empty() {
                None
            } else {
                Some(names.join("+"))
            });
        }
        Ok(out)
    }

    /// Values for an added *attribute* column: per result, the attribute
    /// value of the context resource(s) of `type_path`.
    pub fn attr_column_values(
        &self,
        rows: &[ResultRow],
        type_path: &str,
        attr: &str,
    ) -> Result<Vec<Option<String>>> {
        let type_id = self
            .store
            .type_id(type_path)
            .ok_or_else(|| PtError::NotFound(format!("type {type_path}")))?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut values = Vec::new();
            for &res_id in &row.context {
                if let Some(rec) = self.store.resource_by_id(res_id)? {
                    if rec.type_id == type_id {
                        for (name, value, _) in self.store.attributes_of(res_id)? {
                            if name == attr {
                                values.push(value);
                            }
                        }
                    }
                }
            }
            values.sort();
            values.dedup();
            out.push(if values.is_empty() {
                None
            } else {
                Some(values.join("+"))
            });
        }
        Ok(out)
    }

    /// type id → type path map.
    pub fn type_path_by_id(&self) -> Result<HashMap<i64, String>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let mut out = HashMap::new();
        db.for_each_row(schema.focus_framework, |_, row| {
            if let (Ok(id), Ok(path)) = (
                row[col::focus_framework::ID].as_int(),
                row[col::focus_framework::TYPE_PATH].as_text(),
            ) {
                out.insert(id, path.to_string());
            }
            true
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perftrack_model::TypePath;

    /// Two machines, an application, processor- and machine-level results.
    fn setup() -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from("Application IRS\n");
        for (grid, machine) in [("GFrost", "Frost"), ("GMcr", "MCR")] {
            ptdf.push_str(&format!("Resource /{grid} grid\n"));
            ptdf.push_str(&format!("Resource /{grid}/{machine} grid/machine\n"));
            ptdf.push_str(&format!(
                "Resource /{grid}/{machine}/batch grid/machine/partition\n"
            ));
            for n in 0..2 {
                ptdf.push_str(&format!(
                    "Resource /{grid}/{machine}/batch/node{n} grid/machine/partition/node\n"
                ));
                ptdf.push_str(&format!(
                    "ResourceAttribute /{grid}/{machine}/batch/node{n} memoryGB {} string\n",
                    8 * (n + 1)
                ));
                for p in 0..2 {
                    ptdf.push_str(&format!(
                        "Resource /{grid}/{machine}/batch/node{n}/p{p} grid/machine/partition/node/processor\n"
                    ));
                }
            }
            ptdf.push_str(&format!("Resource /IRS-{machine} application\n"));
            ptdf.push_str(&format!("Execution irs-{machine} IRS\n"));
            for n in 0..2 {
                for p in 0..2 {
                    ptdf.push_str(&format!(
                        "PerfResult irs-{machine} \"/IRS-{machine},/{grid}/{machine}/batch/node{n}/p{p}(primary)\" IRS \"CPU time\" {}.0 seconds\n",
                        n * 2 + p
                    ));
                }
            }
            ptdf.push_str(&format!(
                "PerfResult irs-{machine} \"/IRS-{machine},/{grid}/{machine}(primary)\" IRS \"wall time\" 99.0 seconds\n"
            ));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    #[test]
    fn family_by_name_with_descendants() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let fam = q.family(&ResourceFilter::by_name("Frost")).unwrap();
        // Frost + batch + 2 nodes + 4 processors.
        assert_eq!(fam.len(), 8);
        let fam = q
            .family(&ResourceFilter::by_name("Frost").relatives(Relatives::Neither))
            .unwrap();
        assert_eq!(fam.len(), 1);
        let fam = q
            .family(&ResourceFilter::by_name("Frost").relatives(Relatives::Both))
            .unwrap();
        assert_eq!(fam.len(), 9, "plus the grid ancestor");
        // Shorthand across machines.
        let fam = q
            .family(&ResourceFilter::by_name("batch").relatives(Relatives::Neither))
            .unwrap();
        assert_eq!(fam.len(), 2);
        // Unknown name: empty family.
        let fam = q
            .family(&ResourceFilter::by_name("/nope").relatives(Relatives::Neither))
            .unwrap();
        assert!(fam.is_empty());
    }

    #[test]
    fn family_by_type_and_attrs() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let fam = q
            .family(&ResourceFilter::by_type(
                TypePath::new("grid/machine").unwrap(),
            ))
            .unwrap();
        assert_eq!(fam.len(), 2);
        let fam = q
            .family(&ResourceFilter::by_attrs(vec![AttrPredicate {
                attr: "memoryGB".into(),
                cmp: perftrack_model::AttrCmp::Ge,
                value: "16".into(),
            }]))
            .unwrap();
        assert_eq!(fam.len(), 2, "node1 on each machine");
    }

    #[test]
    fn pr_filter_matching_and_counts() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let filters = vec![
            ResourceFilter::by_name("/IRS-Frost").relatives(Relatives::Neither),
            ResourceFilter::by_name("Frost"),
        ];
        let rows = q.run(&filters).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.execution == "irs-Frost"));
        // Counts.
        let families: Vec<_> = filters.iter().map(|f| q.family(f).unwrap()).collect();
        let counts = q.match_counts(&families).unwrap();
        assert_eq!(counts.per_family[0], 5);
        assert_eq!(counts.per_family[1], 5);
        assert_eq!(counts.whole, 5);
        // Empty filter matches all 10 results.
        assert_eq!(q.run(&[]).unwrap().len(), 10);
    }

    #[test]
    fn run_profiled_reports_pipeline_stages() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let filters = vec![
            ResourceFilter::by_name("/IRS-Frost").relatives(Relatives::Neither),
            ResourceFilter::by_name("Frost"),
        ];
        let (rows, profile) = q.run_profiled(&filters).unwrap();
        assert_eq!(rows.len(), 5);
        let names: Vec<&str> = profile
            .operators
            .iter()
            .map(|o| o.operator.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["family[0]", "family[1]", "context-map", "match", "fetch"]
        );
        assert_eq!(profile.operators[0].rows_out, 1, "exact-name family");
        assert_eq!(profile.operators[3].rows_out, 5, "match narrows to 5 ids");
        assert_eq!(profile.operators[4].rows_out, 5, "all ids fetched");
        assert!(profile.total_nanos > 0);
        // The profile serializes to the documented JSON schema.
        let json = profile.to_json().emit();
        let parsed = perftrack_store::metrics::Json::parse(&json).unwrap();
        assert_eq!(parsed, profile.to_json());
    }

    #[test]
    fn pr_filter_probes_each_index_once_per_batch() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let before = store.db().metrics().btree;
        let rows = q
            .run(&[ResourceFilter::by_name("Frost").relatives(Relatives::Both)])
            .unwrap();
        assert_eq!(rows.len(), 5);
        let after = store.db().metrics().btree;
        // Family expansion walks rha_resource and rhd_resource once each,
        // and fetch resolves every matched result id in one walk of
        // performance_result_id: three batched probes total, regardless of
        // how many seeds or ids are in flight.
        assert_eq!(
            after.batch_probes - before.batch_probes,
            3,
            "one batch per index touched"
        );
        // The only point probe is the shorthand seed resolution against
        // the base-name index.
        assert_eq!(
            after.point_probes - before.point_probes,
            1,
            "per-seed point probes are gone"
        );
    }

    #[test]
    fn machine_level_only_by_type() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let rows = q
            .run(&[ResourceFilter::by_type(
                TypePath::new("grid/machine").unwrap(),
            )])
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.metric == "wall time"));
    }

    #[test]
    fn result_rows_are_denormalized() {
        let store = setup();
        let q = QueryEngine::new(&store);
        let rows = q
            .run(&[ResourceFilter::by_name("Frost/batch/node0")])
            .unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.tool, "IRS");
            assert_eq!(r.units, "seconds");
            assert_eq!(r.metric, "CPU time");
            assert!(!r.context.is_empty());
        }
    }

    #[test]
    fn free_resources_exclude_constant_types() {
        let store = setup();
        let q = QueryEngine::new(&store);
        // Query pinned to Frost: application and processor vary across the
        // 4 processor-level rows; machine does not appear because all rows
        // share... actually all contexts have distinct processors.
        let filters = vec![ResourceFilter::by_name("Frost/batch")];
        let families: Vec<_> = filters.iter().map(|f| q.family(f).unwrap()).collect();
        let rows = q.run(&filters).unwrap();
        assert_eq!(rows.len(), 4);
        let free = q.free_resource_types(&rows, &families).unwrap();
        // The only free varying type is `application`? Application differs
        // per machine but these rows are all Frost → constant → hidden.
        // Processor resources are *inside* the pinned family → excluded.
        assert!(
            free.iter().all(|c| c.type_path != "application"),
            "constant application type must be hidden: {free:?}"
        );
    }

    #[test]
    fn free_resources_and_column_values_across_machines() {
        let store = setup();
        let q = QueryEngine::new(&store);
        // Machine-level rows across both machines: machine type varies.
        let filters = vec![ResourceFilter::by_type(
            TypePath::new("grid/machine").unwrap(),
        )];
        let families: Vec<_> = filters.iter().map(|f| q.family(f).unwrap()).collect();
        let rows = q.run(&filters).unwrap();
        let free = q.free_resource_types(&rows, &families).unwrap();
        assert!(
            free.iter().any(|c| c.type_path == "application"),
            "application varies across machines: {free:?}"
        );
        // Column values for the application type.
        let vals = q.column_values(&rows, "application").unwrap();
        assert_eq!(vals.len(), 2);
        assert!(vals.iter().all(|v| v.is_some()));
        // Attribute column on nodes for processor rows.
        let rows = q.run(&[ResourceFilter::by_name("node1")]).unwrap();
        assert_eq!(rows.len(), 4, "two processors per node1 on two machines");
        let vals = q
            .attr_column_values(&rows, "grid/machine/partition/node", "memoryGB")
            .unwrap();
        // node resources aren't in the context (only processors are), so
        // attribute values come back None — the GUI would add the node
        // *resource* type first. Verify processor column instead.
        assert!(vals.iter().all(|v| v.is_none()));
        let vals = q
            .column_values(&rows, "grid/machine/partition/node/processor")
            .unwrap();
        assert!(vals.iter().all(|v| v.is_some()));
    }
}
