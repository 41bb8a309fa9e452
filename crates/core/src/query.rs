//! The pr-filter query engine over the database (§2.2 semantics, §3.2
//! behaviours): building resource families from filters, matching
//! performance results, live match counts, and *free resource* discovery
//! for the GUI's two-step column selection.

use crate::datastore::{decode_resource, int_keys, PTDataStore, ResourceRecord};
use crate::error::{PtError, Result};
use crate::planner::{explain_filters, plan_filters, table_rows, ContextAccess};
use crate::schema::col;
use perftrack_model::{AttrPredicate, Relatives, ResourceFilter, Selector};
use perftrack_store::metrics::{OperatorProfile, QueryProfile};
use perftrack_store::planner::{ExplainPlan, COST_FETCH_ROW, COST_PROBE, COST_SCAN_ROW};
use perftrack_store::{Row, RowId, StatsState, TableId, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One matched performance result, denormalized for display. One query's
/// rows share one allocation per distinct name, and results linking the
/// same single focus share one context.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub result_id: i64,
    pub execution: Arc<str>,
    pub metric: Arc<str>,
    pub value: f64,
    pub units: Arc<str>,
    pub tool: Arc<str>,
    /// Resource ids in the result's context (union of its foci), sorted
    /// and deduplicated.
    pub context: Arc<[i64]>,
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
pub struct QueryEngine<'s> {
    store: &'s PTDataStore,
}

/// Results' contexts as one run sorted by result id. Each distinct
/// focus's resource list is sorted and deduplicated once, and every
/// result linking only that focus shares it; a result with several foci
/// holds their merged list. A result has an entry when it has at least
/// one focus, empty when its foci name no resource.
pub(crate) struct Contexts(Vec<(i64, Arc<[i64]>)>);

impl Contexts {
    /// Group `(result, focus)` links, in any order, by result, taking
    /// each focus's resources from `by_focus`.
    fn group(mut links: Vec<(i64, i64)>, by_focus: HashMap<i64, Vec<i64>>) -> Contexts {
        links.sort_unstable();
        links.dedup();
        let empty: Arc<[i64]> = Arc::new([]);
        let shared: HashMap<i64, Arc<[i64]>> = by_focus
            .into_iter()
            .map(|(focus, mut resources)| {
                resources.sort_unstable();
                resources.dedup();
                (focus, resources.into())
            })
            .collect();
        let list = |focus: i64| shared.get(&focus).unwrap_or(&empty);
        let run = links
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let context = match group {
                    [(_, focus)] => list(*focus).clone(),
                    _ => {
                        let mut merged: Vec<i64> = group
                            .iter()
                            .flat_map(|&(_, focus)| list(focus).iter().copied())
                            .collect();
                        merged.sort_unstable();
                        merged.dedup();
                        merged.into()
                    }
                };
                (group[0].0, context)
            })
            .collect();
        Contexts(run)
    }

    /// The context of `result`, if it has a focus.
    pub(crate) fn get(&self, result: i64) -> Option<&Arc<[i64]>> {
        self.seek(result, &mut 0)
    }

    /// [`Contexts::get`] through `cursor`, for lookups in result order.
    fn seek(&self, result: i64, cursor: &mut usize) -> Option<&Arc<[i64]>> {
        let at = seek(&self.0, result, |(id, _)| *id, cursor)?;
        Some(&self.0[at].1)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Runs of consecutive results sharing one context allocation: a
    /// check of the run's first context holds for all of it.
    fn runs(&self) -> impl Iterator<Item = &[(i64, Arc<[i64]>)]> {
        self.0.chunk_by(|a, b| Arc::ptr_eq(&a.1, &b.1))
    }
}

/// Where `key` is in `run`, sorted by `key_of`: at `*cursor` when lookups
/// come in key order, else found by binary search. A hit moves the
/// cursor past it.
fn seek<T>(run: &[T], key: i64, key_of: impl Fn(&T) -> i64, cursor: &mut usize) -> Option<usize> {
    let at = match run.get(*cursor) {
        Some(next) if key_of(next) == key => *cursor,
        _ => run.binary_search_by_key(&key, key_of).ok()?,
    };
    *cursor = at + 1;
    Some(at)
}

/// True when `items` never decrease.
fn ascending<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] <= w[1])
}

/// True when `context` names a member of every family in `check`.
fn meets(context: &[i64], families: &[HashSet<i64>], check: &[usize]) -> bool {
    check
        .iter()
        .all(|&i| context.iter().any(|r| families[i].contains(r)))
}

/// The contexts the match stage read, how, and the families still to
/// check them against, smallest first — the planner's match-order rule,
/// with exact sizes since the families are built.
struct Candidates {
    access: ContextAccess,
    contexts: Contexts,
    check: Vec<usize>,
}

impl Candidates {
    /// Ids (ascending) of the candidates meeting every family in `check`,
    /// each shared context checked once per run.
    fn matching(&self, families: &[HashSet<i64>]) -> Vec<i64> {
        let mut ids = Vec::new();
        for run in self.contexts.runs() {
            if meets(&run[0].1, families, &self.check) {
                ids.extend(run.iter().map(|(id, _)| *id));
            }
        }
        ids
    }
}

/// The execution, metric and tool names of one query's rows, each run
/// sorted by id, and the units seen so far: each distinct name is one
/// allocation, shared by every row naming it.
struct Names {
    executions: Vec<(i64, Arc<str>)>,
    metrics: Vec<(i64, Arc<str>)>,
    tools: Vec<(i64, Arc<str>)>,
    units: HashSet<Arc<str>>,
    unknown: Arc<str>,
}

impl Names {
    fn read(store: &PTDataStore) -> Result<Names> {
        let schema = store.schema();
        Ok(Names {
            executions: store
                .executions()
                .into_iter()
                .map(|(id, name)| (id, name.into()))
                .collect(),
            metrics: names_by_id(store, schema.metric, col::metric::ID, col::metric::NAME)?,
            tools: names_by_id(
                store,
                schema.performance_tool,
                col::performance_tool::ID,
                col::performance_tool::NAME,
            )?,
            units: HashSet::new(),
            unknown: Arc::from(""),
        })
    }

    fn name(&self, names: &[(i64, Arc<str>)], row: &Row, column: usize) -> Result<Arc<str>> {
        let id = row[column].as_int()?;
        Ok(match names.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(at) => names[at].1.clone(),
            Err(_) => self.unknown.clone(),
        })
    }

    /// The display row of one `performance_result` row with `context`.
    fn row(&mut self, row: &Row, context: Arc<[i64]>) -> Result<ResultRow> {
        use col::performance_result as c;
        let units = row[c::UNITS].as_text()?;
        let units = match self.units.get(units) {
            Some(shared) => shared.clone(),
            None => {
                let shared: Arc<str> = units.into();
                self.units.insert(shared.clone());
                shared
            }
        };
        Ok(ResultRow {
            result_id: row[c::ID].as_int()?,
            execution: self.name(&self.executions, row, c::EXECUTION_ID)?,
            metric: self.name(&self.metrics, row, c::METRIC_ID)?,
            value: row[c::VALUE].as_real()?,
            units,
            tool: self.name(&self.tools, row, c::TOOL_ID)?,
            context,
        })
    }
}

/// `(id_col, name_col)` of every row of `table`, sorted by id.
fn names_by_id(
    store: &PTDataStore,
    table: TableId,
    id_col: usize,
    name_col: usize,
) -> Result<Vec<(i64, Arc<str>)>> {
    let mut out = Vec::new();
    for item in store.db().scan_iter(table)? {
        let (_, row) = item?;
        if let (Ok(id), Ok(name)) = (row[id_col].as_int(), row[name_col].as_text()) {
            out.push((id, name.into()));
        }
    }
    out.sort_unstable_by_key(|(id, _)| *id);
    Ok(out)
}

/// Per-call memo of [`PTDataStore::resource_by_id`] and
/// [`PTDataStore::attributes_of`]: each resource is probed and decoded
/// once per call, however many results name it.
pub(crate) struct ResourceMemo<'s> {
    store: &'s PTDataStore,
    records: HashMap<i64, Option<Rc<ResourceRecord>>>,
    attributes: HashMap<i64, Attributes>,
}

/// A resource's `(name, value, attr_type)` attributes.
type Attributes = Rc<[(String, String, String)]>;

impl<'s> ResourceMemo<'s> {
    pub(crate) fn new(store: &'s PTDataStore) -> Self {
        ResourceMemo {
            store,
            records: HashMap::new(),
            attributes: HashMap::new(),
        }
    }

    pub(crate) fn get(&mut self, id: i64) -> Result<Option<Rc<ResourceRecord>>> {
        if let Some(rec) = self.records.get(&id) {
            return Ok(rec.clone());
        }
        let rec = self.store.resource_by_id(id)?.map(Rc::new);
        self.records.insert(id, rec.clone());
        Ok(rec)
    }

    fn attributes(&mut self, id: i64) -> Result<Attributes> {
        if let Some(attrs) = self.attributes.get(&id) {
            return Ok(attrs.clone());
        }
        let attrs: Attributes = self.store.attributes_of(id)?.into();
        self.attributes.insert(id, attrs.clone());
        Ok(attrs)
    }
}

/// How the match stage reads contexts: `access`, from the `links` the
/// family `check[0]` fans out to when that is [`ContextAccess::Postings`],
/// checking the families in `check`.
struct MatchPath {
    access: ContextAccess,
    links: Vec<RowId>,
    check: Vec<usize>,
}

impl<'s> QueryEngine<'s> {
    /// Engine over `store`; families expand through the closure table.
    pub fn new(store: &'s PTDataStore) -> Self {
        QueryEngine { store }
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
        use col::resource_has_ancestor::{ANCESTOR_ID, RESOURCE_ID};
        let mut family: HashSet<i64> = seed.iter().copied().collect();
        if matches!(filter.relatives, Relatives::Ancestors | Relatives::Both) {
            self.expand_closure_batch(
                "rha_resource",
                RESOURCE_ID,
                ANCESTOR_ID,
                &seed,
                &mut family,
            )?;
        }
        if matches!(filter.relatives, Relatives::Descendants | Relatives::Both) {
            self.expand_closure_batch(
                "rha_ancestor",
                ANCESTOR_ID,
                RESOURCE_ID,
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

    /// Closure-table expansion for a whole seed set at once: every
    /// `resource_has_ancestor` row whose `seed_col` is a seed adds its
    /// `relative_col` to `into`. Ancestors read the table by resource
    /// (`rha_resource`), descendants by ancestor (`rha_ancestor`).
    ///
    /// With fresh statistics, the expansion is itself planned: a batched
    /// B+tree probe costs `seeds × (probe + fanout × fetch)`, a scan of
    /// the closure table costs one unit per row. Large seed sets over
    /// a small closure table take the scan; everything else (including
    /// every un-ANALYZEd store) takes the batched probe, exactly as
    /// before the planner existed.
    fn expand_closure_batch(
        &self,
        index_name: &str,
        seed_col: usize,
        relative_col: usize,
        seeds: &[i64],
        into: &mut HashSet<i64>,
    ) -> Result<()> {
        if seeds.is_empty() {
            return Ok(());
        }
        let db = self.store.db();
        let table = self.store.schema().resource_has_ancestor;
        let idx = db.index_id(index_name)?;
        if let (StatsState::Fresh(rows), Some(fanout)) =
            (db.table_stats_state(table), db.index_avg_fanout(idx))
        {
            let probe_cost = seeds.len() as f64 * (COST_PROBE + fanout * COST_FETCH_ROW);
            if rows as f64 * COST_SCAN_ROW < probe_cost {
                let seed_set: HashSet<i64> = seeds.iter().copied().collect();
                for item in db.scan_iter(table)? {
                    let (_, row) = item?;
                    let (rid, rel) = (row[seed_col].as_int()?, row[relative_col].as_int()?);
                    if seed_set.contains(&rid) {
                        into.insert(rel);
                    }
                }
                return Ok(());
            }
        }
        for rids in db.index_lookup_many(idx, &int_keys(seeds))? {
            for rid in rids {
                let row = db.get(table, rid)?;
                into.insert(row[relative_col].as_int()?);
            }
        }
        Ok(())
    }

    // -- matching -------------------------------------------------------------

    /// Every result with a focus → its context resource ids:
    /// [`PTDataStore::focus_lists`] reads each distinct focus once, and one
    /// pass over `result_has_focus` links them to their results.
    fn context_scan(&self) -> Result<Contexts> {
        let db = self.store.db();
        let table = self.store.schema().result_has_focus;
        let by_focus = self.store.focus_lists()?;
        let mut links = Vec::with_capacity(table_rows(self.store, "rhf_focus")? as usize);
        for item in db.scan_iter(table)? {
            let (_, row) = item?;
            links.push((
                row[col::result_has_focus::RESULT_ID].as_int()?,
                row[col::result_has_focus::FOCUS_ID].as_int()?,
            ));
        }
        Ok(Contexts::group(links, by_focus))
    }

    /// The `focus_has_resource` rows naming a member of `family` — its
    /// postings — from one batched `fhr_resource` probe, reading no row.
    fn postings(&self, family: &HashSet<i64>) -> Result<Vec<RowId>> {
        let db = self.store.db();
        let ids: Vec<i64> = family.iter().copied().collect();
        let rids = db.index_lookup_many(db.index_id("fhr_resource")?, &int_keys(&ids))?;
        Ok(rids.into_iter().flatten().collect())
    }

    /// The `result_has_focus` rows `postings` fan out to: each posting's
    /// focus, deduplicated, then one batched `rhf_focus` probe, reading no
    /// link row.
    fn links_of(&self, postings: &[RowId]) -> Result<Vec<RowId>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let mut foci = Vec::with_capacity(postings.len());
        for &rid in postings {
            let row = db.get(schema.focus_has_resource, rid)?;
            foci.push(row[col::focus_has_resource::FOCUS_ID].as_int()?);
        }
        foci.sort_unstable();
        foci.dedup();
        let idx = db.index_id("rhf_focus")?;
        Ok(db
            .index_lookup_many(idx, &int_keys(&foci))?
            .into_iter()
            .flatten()
            .collect())
    }

    /// The links `family` fans out to, or `None` when
    /// [`ContextAccess::choose`] finds the scan cheaper: postings that
    /// alone cost more than the scan decide before any row is read;
    /// otherwise [`QueryEngine::links_of`] counts the links exactly.
    fn fan_out(&self, family: &HashSet<i64>) -> Result<Option<Vec<RowId>>> {
        let postings = self.postings(family)?;
        let mut links = Vec::new();
        let access = ContextAccess::choose(self.store, postings.len() as u64, || {
            links = self.links_of(&postings)?;
            Ok(links.len() as u64)
        })?;
        Ok((access == ContextAccess::Postings).then_some(links))
    }

    /// The match stage's decision: the families to check, smallest first,
    /// and how to read contexts — [`QueryEngine::fan_out`] of the smallest
    /// family. With no family at all, everything matches, so that scans.
    /// Reads at most the postings' `focus_has_resource` rows; no link,
    /// context or result row.
    fn match_path(&self, families: &[HashSet<i64>]) -> Result<MatchPath> {
        let mut check: Vec<usize> = (0..families.len()).collect();
        check.sort_by_key(|&i| families[i].len());
        let links = match check.first() {
            Some(&smallest) => self.fan_out(&families[smallest])?,
            None => None,
        };
        Ok(MatchPath {
            access: match links {
                Some(_) => ContextAccess::Postings,
                None => ContextAccess::Scan,
            },
            links: links.unwrap_or_default(),
            check,
        })
    }

    /// The contexts the match stage checks, read by [`QueryEngine::match_path`].
    fn candidates(&self, families: &[HashSet<i64>]) -> Result<Candidates> {
        let path = self.match_path(families)?;
        self.read_contexts(path.access, &path.links, path.check)
    }

    /// Read contexts by `access`. From the links of the family `check[0]`:
    /// [`QueryEngine::results_of`] them, and [`QueryEngine::contexts_of`]
    /// those; they all meet `check[0]`, so it is not checked again.
    fn read_contexts(
        &self,
        access: ContextAccess,
        links: &[RowId],
        mut check: Vec<usize>,
    ) -> Result<Candidates> {
        let contexts = match access {
            ContextAccess::Scan => self.context_scan()?,
            ContextAccess::Postings => {
                check.remove(0);
                self.contexts_of(&self.results_of(links)?)?
            }
        };
        Ok(Candidates {
            access,
            contexts,
            check,
        })
    }

    /// The distinct results (ascending) of `links`, one link row each.
    fn results_of(&self, links: &[RowId]) -> Result<Vec<i64>> {
        let db = self.store.db();
        let table = self.store.schema().result_has_focus;
        let mut results = links
            .iter()
            .map(|&rid| Ok(db.get(table, rid)?[col::result_has_focus::RESULT_ID].as_int()?))
            .collect::<Result<Vec<i64>>>()?;
        results.sort_unstable();
        results.dedup();
        Ok(results)
    }

    /// Result ids whose context matches every family (the paper's rule),
    /// ascending, read by the cheaper [`ContextAccess`].
    pub fn matching_result_ids(&self, families: &[HashSet<i64>]) -> Result<Vec<i64>> {
        Ok(self.candidates(families)?.matching(families))
    }

    /// Live counts: how many results each family matches alone, and how
    /// many match the whole filter (§3.2's query-size feedback). Each
    /// family's matches are the results its links lead to, and the
    /// whole filter's are their intersection — unless the match stage's
    /// cost rule picks the scan for any family (or there is none): then
    /// one scan counts them all.
    pub fn match_counts(&self, families: &[HashSet<i64>]) -> Result<MatchCounts> {
        // Largest first: the family most likely to pick the scan is costed
        // before any of the others' postings are read.
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(families[i].len()));
        let mut links = vec![Vec::new(); families.len()];
        for &i in &order {
            match self.fan_out(&families[i])? {
                Some(l) => links[i] = l,
                None => return self.count_by_scan(families),
            }
        }
        let Some(&smallest) = order.last() else {
            return self.count_by_scan(families);
        };
        let matched = links
            .iter()
            .map(|l| self.results_of(l))
            .collect::<Result<Vec<_>>>()?;
        let mut whole = matched[smallest].clone();
        for m in &matched {
            whole.retain(|id| m.binary_search(id).is_ok());
        }
        Ok(MatchCounts {
            per_family: matched.iter().map(Vec::len).collect(),
            whole: whole.len(),
        })
    }

    /// [`QueryEngine::match_counts`] in one pass over every context, each
    /// shared context checked once per run.
    fn count_by_scan(&self, families: &[HashSet<i64>]) -> Result<MatchCounts> {
        let mut per_family = vec![0usize; families.len()];
        let mut whole = 0usize;
        for run in self.context_scan()?.runs() {
            let mut all = true;
            for (i, fam) in families.iter().enumerate() {
                if run[0].1.iter().any(|r| fam.contains(r)) {
                    per_family[i] += run.len();
                } else {
                    all = false;
                }
            }
            if all {
                whole += run.len();
            }
        }
        Ok(MatchCounts { per_family, whole })
    }

    /// Full query: build families from filters, match, and denormalize
    /// into displayable rows.
    pub fn run(&self, filters: &[ResourceFilter]) -> Result<Vec<ResultRow>> {
        Ok(self.run_with_families(filters)?.0)
    }

    /// EXPLAIN the pr-filter pipeline without running it, as a
    /// `pt-explain/v1` tree: each filter's access path and expansion, and
    /// the match order and context access that execution takes — built
    /// families and their postings count decide them, as in
    /// [`QueryEngine::run`], with no context or result row read.
    /// Statistics supply only the estimated rows per operator.
    pub fn explain(&self, filters: &[ResourceFilter]) -> Result<ExplainPlan> {
        let _committed = self.store.db().read();
        let plan = plan_filters(self.store, filters);
        let families = filters
            .iter()
            .map(|f| self.family(f))
            .collect::<Result<Vec<_>>>()?;
        let path = self.match_path(&families)?;
        Ok(explain_filters(&plan, path.access, &path.check))
    }

    /// Like [`QueryEngine::run`], but also returns a per-operator profile
    /// of the pr-filter pipeline (operator names documented in
    /// `docs/METRICS.md`): one `family` operator per filter, then
    /// `context-map:postings` or `context-map:scan` (the path the match
    /// stage took), `match`, and `fetch`.
    pub fn run_profiled(
        &self,
        filters: &[ResourceFilter],
    ) -> Result<(Vec<ResultRow>, QueryProfile)> {
        let (rows, profile, _) = self.run_with_families(filters)?;
        Ok((rows, profile))
    }

    /// [`QueryEngine::run_profiled`], also handing back the families it
    /// built, so a caller that needs them does not expand them twice.
    pub(crate) fn run_with_families(
        &self,
        filters: &[ResourceFilter],
    ) -> Result<(Vec<ResultRow>, QueryProfile, Vec<HashSet<i64>>)> {
        let _committed = self.store.db().read();
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

        let stage = Instant::now();
        let candidates = self.candidates(&families)?;
        let read = candidates.contexts.len() as u64;
        profile.push(
            OperatorProfile::new(
                format!("context-map:{}", candidates.access.label()),
                0,
                read,
                stage.elapsed(),
            )
            .with_estimated_rows(plan.estimated_candidates(candidates.access)),
        );

        let stage = Instant::now();
        let ids = candidates.matching(&families);
        profile.push(
            OperatorProfile::new("match", read, ids.len() as u64, stage.elapsed())
                .with_estimated_rows(plan.estimated_matches),
        );

        let stage = Instant::now();
        let rows = self.fetch(&ids, &candidates.contexts)?;
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
        Ok((rows, profile, families))
    }

    /// Denormalize result rows by id, in the order given; unknown ids
    /// are skipped, and the rest must name distinct results. Contexts come
    /// through the `rhf_result` and `fhr_focus` indexes when the ids are
    /// under a quarter of all results, from one scan of every context
    /// otherwise; rows through `performance_result_id` when the ids are at
    /// most a twelfth of all results, from one scan otherwise.
    pub fn fetch_rows(&self, ids: &[i64]) -> Result<Vec<ResultRow>> {
        let results = table_rows(self.store, "performance_result_id")?;
        let contexts = if ids.len() as f64 * COST_FETCH_ROW >= results as f64 * COST_SCAN_ROW {
            self.context_scan()?
        } else {
            self.contexts_of(ids)?
        };
        self.fetch(ids, &contexts)
    }

    /// The fetch stage: the rows of `ids`, in order, each with its context
    /// from `contexts`. Rows come from one batched `performance_result_id`
    /// probe, or, when that costs more, from one scan merge-joined
    /// against the ids in id order.
    fn fetch(&self, ids: &[i64], contexts: &Contexts) -> Result<Vec<ResultRow>> {
        let db = self.store.db();
        let table = self.store.schema().performance_result;
        let results = table_rows(self.store, "performance_result_id")?;
        let mut names = Names::read(self.store)?;
        let mut near = 0;
        let mut context = |id| {
            contexts
                .seek(id, &mut near)
                .cloned()
                .unwrap_or_else(|| Arc::new([]))
        };
        if ids.len() as f64 * (COST_PROBE + COST_FETCH_ROW) <= results as f64 * COST_SCAN_ROW {
            let idx = db.index_id("performance_result_id")?;
            let mut out = Vec::with_capacity(ids.len());
            for (&id, rids) in ids.iter().zip(db.index_lookup_many(idx, &int_keys(ids))?) {
                if let Some(&rid) = rids.first() {
                    out.push(names.row(&db.get(table, rid)?, context(id))?);
                }
            }
            return Ok(out);
        }
        // (id, caller position), in id order.
        let mut wanted: Vec<(i64, usize)> = ids.iter().copied().zip(0..).collect();
        if !ascending(ids) {
            wanted.sort_unstable();
        }
        let mut out = Vec::with_capacity(ids.len());
        let mut positions = Vec::with_capacity(ids.len());
        let mut cursor = 0;
        for item in db.scan_iter(table)? {
            let (_, row) = item?;
            let id = row[col::performance_result::ID].as_int()?;
            // The heap is in id order until a delete frees space that a
            // later load refills; then the cursor misses and searches.
            if let Some(at) = seek(&wanted, id, |&(w, _)| w, &mut cursor) {
                out.push(names.row(&row, context(id))?);
                positions.push(wanted[at].1);
            }
        }
        if !ascending(&positions) {
            let mut placed: Vec<(usize, ResultRow)> = positions.into_iter().zip(out).collect();
            placed.sort_unstable_by_key(|(position, _)| *position);
            out = placed.into_iter().map(|(_, row)| row).collect();
        }
        Ok(out)
    }

    /// Every result of the executions with ids `exec_ids`, in ascending
    /// result id — exactly the rows `run(&[])` returns for them.
    ///
    /// Only the named executions are read: one batched probe of
    /// `performance_result_exec`, one decode per result row, and batched
    /// `rhf_result` and `fhr_focus` probes for their contexts. The cost
    /// scales with the executions' results, not with the store. Repeated
    /// ids count once.
    pub fn rows_of_executions(&self, exec_ids: &[i64]) -> Result<Vec<ResultRow>> {
        let db = self.store.db();
        let mut execs = exec_ids.to_vec();
        execs.sort_unstable();
        execs.dedup();
        let idx = db.index_id("performance_result_exec")?;
        let mut rows: Vec<(i64, Row)> = Vec::new();
        for rids in db.index_lookup_many(idx, &int_keys(&execs))? {
            for rid in rids {
                let row = db.get(self.store.schema().performance_result, rid)?;
                rows.push((row[col::performance_result::ID].as_int()?, row));
            }
        }
        rows.sort_unstable_by_key(|(id, _)| *id);
        let ids: Vec<i64> = rows.iter().map(|(id, _)| *id).collect();
        let contexts = self.contexts_of(&ids)?;
        let mut names = Names::read(self.store)?;
        // `run(&[])` matches over every context, which only results with
        // at least one focus have; keep the same set.
        rows.iter()
            .filter_map(|(id, row)| Some(names.row(row, contexts.get(*id)?.clone())))
            .collect()
    }

    /// The contexts of the given results, as [`Contexts`]: a batched
    /// `rhf_result` probe for their links, then one batched `fhr_focus`
    /// probe for the distinct foci those name. Like the scan of every
    /// context, it has an entry for every result with at least one focus
    /// and none for the others.
    pub(crate) fn contexts_of(&self, result_ids: &[i64]) -> Result<Contexts> {
        let db = self.store.db();
        let schema = self.store.schema();
        let mut links: Vec<(i64, i64)> = Vec::new();
        for (&result, rids) in result_ids
            .iter()
            .zip(db.index_lookup_many(db.index_id("rhf_result")?, &int_keys(result_ids))?)
        {
            for rid in rids {
                let link = db.get(schema.result_has_focus, rid)?;
                links.push((result, link[col::result_has_focus::FOCUS_ID].as_int()?));
            }
        }
        let mut foci: Vec<i64> = links.iter().map(|&(_, f)| f).collect();
        foci.sort_unstable();
        foci.dedup();
        let mut by_focus: HashMap<i64, Vec<i64>> = HashMap::with_capacity(foci.len());
        for (&focus, rids) in foci
            .iter()
            .zip(db.index_lookup_many(db.index_id("fhr_focus")?, &int_keys(&foci))?)
        {
            let resources = rids
                .into_iter()
                .map(|rid| {
                    Ok(db.get(schema.focus_has_resource, rid)?
                        [col::focus_has_resource::RESOURCE_ID]
                        .as_int()?)
                })
                .collect::<Result<Vec<i64>>>()?;
            by_focus.insert(focus, resources);
        }
        Ok(Contexts::group(links, by_focus))
    }

    // -- free resources ("Add Columns", §3.2) ---------------------------------

    /// Free resource types for a displayed result set: context resources
    /// the query did not pin, grouped by type, *excluding* types whose
    /// resource names are identical across all results (the GUI hides
    /// those as uninformative). Each distinct resource is resolved once.
    pub fn free_resource_types(
        &self,
        rows: &[ResultRow],
        fixed: &[HashSet<i64>],
    ) -> Result<Vec<FreeResourceColumn>> {
        let type_by_id = self.type_path_by_id()?;
        let mut free: Vec<i64> = shared_contexts(rows)
            .flat_map(|run| run[0].context.iter().copied())
            .filter(|id| !fixed.iter().any(|f| f.contains(id)))
            .collect();
        free.sort_unstable();
        free.dedup();
        let mut memo = ResourceMemo::new(self.store);
        // type path -> set of resource names observed.
        let mut per_type_values: BTreeMap<String, HashSet<String>> = BTreeMap::new();
        let mut per_type_attrs: BTreeMap<String, HashSet<String>> = BTreeMap::new();
        for res_id in free {
            let Some(rec) = memo.get(res_id)? else {
                continue;
            };
            let tp = type_by_id.get(&rec.type_id).cloned().unwrap_or_default();
            per_type_values
                .entry(tp.clone())
                .or_default()
                .insert(rec.name.clone());
            let attrs = per_type_attrs.entry(tp).or_default();
            for (attr, _, _) in memo.attributes(res_id)?.iter() {
                attrs.insert(attr.clone());
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
        let type_id = self.type_id_of(type_path)?;
        let mut memo = ResourceMemo::new(self.store);
        per_shared_context(rows, |context| {
            let mut names = Vec::new();
            for &res_id in context {
                if let Some(rec) = memo.get(res_id)? {
                    if rec.type_id == type_id {
                        names.push(rec.base_name.clone());
                    }
                }
            }
            names.sort();
            Ok((!names.is_empty()).then(|| names.join("+")))
        })
    }

    /// Values for an added *attribute* column: per result, the attribute
    /// value of the context resource(s) of `type_path`.
    pub fn attr_column_values(
        &self,
        rows: &[ResultRow],
        type_path: &str,
        attr: &str,
    ) -> Result<Vec<Option<String>>> {
        let type_id = self.type_id_of(type_path)?;
        let mut memo = ResourceMemo::new(self.store);
        per_shared_context(rows, |context| {
            let mut values = Vec::new();
            for &res_id in context {
                if memo.get(res_id)?.is_some_and(|rec| rec.type_id == type_id) {
                    for (name, value, _) in memo.attributes(res_id)?.iter() {
                        if name == attr {
                            values.push(value.clone());
                        }
                    }
                }
            }
            values.sort();
            values.dedup();
            Ok((!values.is_empty()).then(|| values.join("+")))
        })
    }

    fn type_id_of(&self, type_path: &str) -> Result<i64> {
        self.store
            .type_id(type_path)
            .ok_or_else(|| PtError::NotFound(format!("type {type_path}")))
    }

    /// type id → type path map.
    pub fn type_path_by_id(&self) -> Result<HashMap<i64, String>> {
        let db = self.store.db();
        let schema = self.store.schema();
        let mut out = HashMap::new();
        for item in db.scan_iter(schema.focus_framework)? {
            let (_, row) = item?;
            if let (Ok(id), Ok(path)) = (
                row[col::focus_framework::ID].as_int(),
                row[col::focus_framework::TYPE_PATH].as_text(),
            ) {
                out.insert(id, path.to_string());
            }
        }
        Ok(out)
    }
}

/// Runs of consecutive rows sharing one context allocation.
fn shared_contexts(rows: &[ResultRow]) -> impl Iterator<Item = &[ResultRow]> {
    rows.chunk_by(|a, b| Arc::ptr_eq(&a.context, &b.context))
}

/// `value` of each row's context, computed once per run of rows sharing
/// one context allocation.
fn per_shared_context<T: Clone>(
    rows: &[ResultRow],
    mut value: impl FnMut(&[i64]) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(rows.len());
    for run in shared_contexts(rows) {
        out.extend(std::iter::repeat(value(&run[0].context)?).take(run.len()));
    }
    Ok(out)
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
            ptdf.push_str(&machine_results(grid, machine));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    /// The execution `irs-{machine}` and its four processor-level and one
    /// machine-level result.
    fn machine_results(grid: &str, machine: &str) -> String {
        let mut ptdf = format!("Execution irs-{machine} IRS\n");
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
        ptdf
    }

    /// [`setup`] plus `n` results of a third execution whose one focus
    /// names only `/IRS-MCR`: they match no Frost filter but grow every
    /// table a query may scan.
    fn setup_with_unrelated(n: usize) -> PTDataStore {
        let store = setup();
        let mut ptdf = String::from("Execution irs-pad IRS\n");
        for i in 0..n {
            ptdf.push_str(&format!(
                "PerfResult irs-pad \"/IRS-MCR(primary)\" IRS \"CPU time\" {i}.0 seconds\n"
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
        assert!(rows.iter().all(|r| &*r.execution == "irs-Frost"));
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
            vec![
                "family[0]",
                "family[1]",
                "context-map:scan",
                "match",
                "fetch"
            ]
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
        // Family expansion walks rha_resource and rha_ancestor once each;
        // matching walks fhr_resource for the postings, rhf_focus for the
        // links their foci fan out to, and rhf_result and fhr_focus for
        // the contexts of the results linked: six
        // batched probes, however many seeds or ids are in flight. Fetch
        // adds one walk of performance_result_id for every matched id when
        // it probes, and none when it scans a table that small. The only
        // point probe is the shorthand seed resolution against the
        // base-name index.
        let cases = [
            // 10 results: two ids cost more to probe than to scan.
            (setup(), "Frost/batch/node0/p0", 2, "fetch:scan", 6),
            // 70 results: five ids are probed.
            (setup_with_unrelated(60), "Frost", 5, "fetch:probe", 7),
        ];
        for (store, name, matched, fetch, batches) in cases {
            let q = QueryEngine::new(&store);
            let before = store.db().metrics().btree;
            let (rows, profile) = q
                .run_profiled(&[ResourceFilter::by_name(name).relatives(Relatives::Both)])
                .unwrap();
            assert_eq!(rows.len(), matched, "{name}");
            assert_eq!(profile.operators[1].operator, "context-map:postings");
            let after = store.db().metrics().btree;
            assert_eq!(
                after.batch_probes - before.batch_probes,
                batches,
                "{fetch}: one batch per index touched"
            );
            assert_eq!(
                after.point_probes - before.point_probes,
                1,
                "per-seed point probes are gone"
            );
        }
    }

    /// A random tree of modules and functions under `/build`, results over
    /// it with one to three foci each, and some results whose one focus
    /// names no resource. Returns the store and its resource names.
    fn random_world(rng: &mut perftrack_workloads::Rng) -> (PTDataStore, Vec<String>) {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf =
            String::from("Application App\nResource /app application\nResource /build build\n");
        let mut resources = vec!["/app".to_string(), "/build".to_string()];
        for m in 0..rng.gen_range(1..4) {
            ptdf.push_str(&format!("Resource /build/m{m}.c build/module\n"));
            resources.push(format!("/build/m{m}.c"));
            for f in 0..rng.gen_range(0..4) {
                ptdf.push_str(&format!(
                    "Resource /build/m{m}.c/fn{f} build/module/function\n"
                ));
                resources.push(format!("/build/m{m}.c/fn{f}"));
            }
        }
        ptdf.push_str("Execution e0 App\nExecution e1 App\n");
        for _ in 0..rng.gen_range(0..40) {
            let foci: Vec<String> = (0..rng.gen_range(1..4))
                .zip(["primary", "parent", "child"])
                .map(|(_, role)| {
                    let set: Vec<&str> = (0..rng.gen_range(1..3))
                        .map(|_| resources[rng.gen_range(0..resources.len())].as_str())
                        .collect();
                    format!("{}({role})", set.join(","))
                })
                .collect();
            ptdf.push_str(&format!(
                "PerfResult e{} \"{}\" T m{} 1.0 s\n",
                rng.gen_range(0..2),
                foci.join(":"),
                rng.gen_range(0..3)
            ));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        for _ in 0..rng.gen_range(0..3) {
            let empty =
                perftrack_model::PerformanceResult::simple("e0", "m0", 1.0, "s", "T", vec![]);
            store.add_performance_result(&empty).unwrap();
        }
        (store, resources)
    }

    #[test]
    fn postings_and_scan_agree_on_ids_and_contexts() {
        perftrack_workloads::rng::check_cases(0x9057_0100, 48, |rng| {
            let (store, resources) = random_world(rng);
            let q = QueryEngine::new(&store);
            let relatives = [
                Relatives::Neither,
                Relatives::Ancestors,
                Relatives::Descendants,
                Relatives::Both,
            ];
            let filters: Vec<ResourceFilter> = (0..rng.gen_range(1..4))
                .map(|_| {
                    // One in eight names nothing: an empty family.
                    let name = if rng.gen_bool(0.125) {
                        "/nope".to_string()
                    } else {
                        resources[rng.gen_range(0..resources.len())].clone()
                    };
                    ResourceFilter::by_name(&name).relatives(relatives[rng.gen_range(0..4)])
                })
                .collect();
            let families: Vec<_> = filters.iter().map(|f| q.family(f).unwrap()).collect();
            let mut order: Vec<usize> = (0..families.len()).collect();
            order.sort_by_key(|&i| families[i].len());
            let links = q
                .links_of(&q.postings(&families[order[0]]).unwrap())
                .unwrap();
            let by_postings = q
                .read_contexts(ContextAccess::Postings, &links, order.clone())
                .unwrap();
            let by_scan = q.read_contexts(ContextAccess::Scan, &[], order).unwrap();
            let ids = by_scan.matching(&families);
            assert_eq!(by_postings.matching(&families), ids, "{filters:?}");
            for id in &ids {
                assert_eq!(
                    by_postings.contexts.get(*id),
                    by_scan.contexts.get(*id),
                    "result {id}"
                );
            }
            // The public calls, whichever path the cost rule picks.
            assert_eq!(q.matching_result_ids(&families).unwrap(), ids);
            let per_family: Vec<usize> = families
                .iter()
                .map(|f| {
                    by_scan
                        .contexts
                        .0
                        .iter()
                        .filter(|(_, ctx)| ctx.iter().any(|r| f.contains(r)))
                        .count()
                })
                .collect();
            let counts = q.match_counts(&families).unwrap();
            assert_eq!((counts.per_family, counts.whole), (per_family, ids.len()));
            let rows = q.fetch_rows(&ids).unwrap();
            assert_eq!(rows.len(), ids.len());
            for row in rows {
                assert_eq!(Some(&row.context), by_scan.contexts.get(row.result_id));
            }
        });
    }

    #[test]
    fn results_sharing_a_focus_share_its_context() {
        let store = PTDataStore::in_memory().unwrap();
        store
            .load_ptdf_str(
                "Application App\nResource /app application\nResource /build build\n\
                 Resource /build/a.c build/module\nExecution e App\n\
                 PerfResult e \"/build/a.c,/app(primary)\" T m1 1.0 s\n\
                 PerfResult e \"/build/a.c,/app(primary)\" T m2 2.0 s\n\
                 PerfResult e \"/build/a.c(primary):/app,/build(parent)\" T m3 3.0 s\n",
            )
            .unwrap();
        let id = |name| store.resource_by_name(name).unwrap().unwrap().id;
        let (app, build, module) = (id("/app"), id("/build"), id("/build/a.c"));
        let mut one = [app, module];
        one.sort_unstable();
        let mut union = [app, build, module];
        union.sort_unstable();
        let q = QueryEngine::new(&store);
        let rows = q.run(&[]).unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.result_id).collect();
        assert_eq!(ids.len(), 3);
        assert!(Arc::ptr_eq(&rows[0].context, &rows[1].context));
        let families = [q
            .family(&ResourceFilter::by_name("/app").relatives(Relatives::Neither))
            .unwrap()];
        let links = q.links_of(&q.postings(&families[0]).unwrap()).unwrap();
        for access in [ContextAccess::Postings, ContextAccess::Scan] {
            let contexts = q.read_contexts(access, &links, vec![0]).unwrap().contexts;
            let [first, second, merged] = [0, 1, 2].map(|i| contexts.get(ids[i]).unwrap());
            assert!(
                Arc::ptr_eq(first, second),
                "{access:?}: one focus, one allocation"
            );
            assert_eq!(**first, one[..], "{access:?}");
            assert_eq!(
                **merged,
                union[..],
                "{access:?}: two foci, their sorted union"
            );
        }
    }

    #[test]
    fn fetch_rows_keeps_caller_order_and_skips_unknown_ids() {
        // Deleting the first execution frees heap space that reloading it
        // refills, so heap order is no longer id order.
        let reloaded = setup_with_unrelated(60);
        reloaded.delete_execution("irs-Frost").unwrap();
        reloaded
            .load_ptdf_str(&machine_results("GFrost", "Frost"))
            .unwrap();
        let heap: Vec<i64> = reloaded
            .db()
            .scan_iter(reloaded.schema().performance_result)
            .unwrap()
            .map(|item| {
                item.unwrap().1[col::performance_result::ID]
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert!(!ascending(&heap), "{heap:?}");
        let mut rng = perftrack_workloads::Rng::seed_from_u64(0x9057_0300);
        let mut branches = HashSet::new();
        for store in [setup_with_unrelated(60), reloaded] {
            let q = QueryEngine::new(&store);
            let known: Vec<i64> = q.run(&[]).unwrap().iter().map(|r| r.result_id).collect();
            let results = table_rows(&store, "performance_result_id").unwrap();
            // Under and over a twelfth of the results: probe and scan.
            for take in [2, 12, known.len()] {
                let mut ids: Vec<i64> = known[..take].to_vec();
                ids.extend([-1, 0, i64::MAX]);
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.gen_range(0..i + 1));
                }
                let one_at_a_time: Vec<ResultRow> = ids
                    .iter()
                    .flat_map(|&id| q.fetch_rows(&[id]).unwrap())
                    .collect();
                assert_eq!(one_at_a_time.len(), take);
                assert_eq!(q.fetch_rows(&ids).unwrap(), one_at_a_time, "{ids:?}");
                branches.insert(
                    ids.len() as f64 * (COST_PROBE + COST_FETCH_ROW)
                        > results as f64 * COST_SCAN_ROW,
                );
            }
        }
        assert_eq!(branches.len(), 2, "both fetch branches ran");
    }

    #[test]
    fn explain_names_the_path_execution_takes() {
        let mut seen = HashSet::new();
        perftrack_workloads::rng::check_cases(0x9057_0200, 48, |rng| {
            let (store, resources) = random_world(rng);
            let analysed = rng.gen_bool(0.5);
            if analysed {
                store.db().analyze().unwrap();
            }
            let filters: Vec<ResourceFilter> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let name = &resources[rng.gen_range(0..resources.len())];
                    ResourceFilter::by_name(name).relatives(Relatives::Descendants)
                })
                .collect();
            let q = QueryEngine::new(&store);
            let plan = q.explain(&filters).unwrap();
            let planned = plan
                .root
                .children
                .iter()
                .find(|n| n.operator == "context-map")
                .map(|n| n.detail.split('(').next().unwrap().to_string())
                .unwrap();
            let (_, profile) = q.run_profiled(&filters).unwrap();
            let ran = profile
                .operators
                .iter()
                .find_map(|op| op.operator.strip_prefix("context-map:"))
                .unwrap()
                .to_string();
            assert_eq!(planned, ran, "analysed={analysed} {filters:?}");
            seen.insert((ran, analysed));
        });
        assert_eq!(seen.len(), 4, "both paths, analysed and not: {seen:?}");
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
        assert!(rows.iter().all(|r| &*r.metric == "wall time"));
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
            assert_eq!(&*r.tool, "IRS");
            assert_eq!(&*r.units, "seconds");
            assert_eq!(&*r.metric, "CPU time");
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
