//! Core-level planning pass over the pr-filter IR.
//!
//! Before running a pr-filter query, [`plan_filters`] estimates each
//! [`ResourceFilter`]'s seed access and closure expansion from the
//! store's ANALYZE statistics ([`perftrack_store::db::Database::analyze`]),
//! and the contexts and matches the match stage will see. These are
//! estimates only: the match stage's order and its [`ContextAccess`] are
//! decided from the built families' exact sizes and their postings
//! count ([`crate::query::QueryEngine::explain`] names that same
//! decision), so statistics annotate the `pt-explain/v1` tree and the
//! profiled runs with `est=` and never change a path.
//!
//! This is the planner every query runs, so it owns the store's
//! `planner.*` counters: each filter's seed estimate counts once, as a
//! statistics hit, a stale fallback, or a miss. The pass never fails:
//! missing statistics leave estimates empty, drifted ones are used but
//! labelled `[stale]`, and execution is the same either way.

use crate::datastore::PTDataStore;
use crate::error::Result;
use perftrack_model::{Relatives, ResourceFilter, Selector};
use perftrack_store::planner::{ExplainNode, ExplainPlan, COST_FETCH_ROW, COST_SCAN_ROW};
use perftrack_store::value::encode_key_vec;
use perftrack_store::{StatsState, TableId, Value};

/// The planned evaluation of one resource filter.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// Seed access-path description, e.g.
    /// `index-eq(resource_item_base) [statistics]`.
    pub access: String,
    /// Requested relative expansion.
    pub relatives: Relatives,
    /// Estimated seed resources before expansion.
    pub estimated_seed: Option<u64>,
    /// Estimated family size after ancestor/descendant expansion.
    pub estimated_family: Option<u64>,
}

/// The estimated evaluation of a whole pr-filter query.
#[derive(Debug, Clone)]
pub struct PrFilterPlan {
    /// One plan per filter, in the caller's filter order.
    pub filters: Vec<FilterPlan>,
    /// Estimated `result_has_focus` links the smallest estimated family's
    /// postings fan out to: the contexts the match stage reads on
    /// [`ContextAccess::Postings`].
    pub estimated_links: Option<u64>,
    /// Estimated result contexts (rows of `performance_result`): what it
    /// reads on [`ContextAccess::Scan`].
    pub estimated_contexts: Option<u64>,
    /// Estimated matching results, when it can be bounded.
    pub estimated_matches: Option<u64>,
}

impl PrFilterPlan {
    /// Estimated contexts the match stage reads by `access`.
    pub fn estimated_candidates(&self, access: ContextAccess) -> Option<u64> {
        match access {
            ContextAccess::Postings => self.estimated_links,
            ContextAccess::Scan => self.estimated_contexts,
        }
    }
}

/// How the match stage reads result contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextAccess {
    /// From the smallest family's postings — the `focus_has_resource`
    /// rows naming a member, found through `fhr_resource` — to their
    /// foci, and through `rhf_focus` to the results linking those: only
    /// the contexts of those results.
    Postings,
    /// Every context, by one pass over `focus_has_resource` (each focus
    /// once) and one over `result_has_focus`.
    Scan,
}

impl ContextAccess {
    /// The cost rule. Following `postings` reads each posting and, twice,
    /// each link its focus fans out to — once for the result, once for
    /// that result's context — at `COST_FETCH_ROW`. The scan reads every
    /// `focus_has_resource` and `result_has_focus` row at `COST_SCAN_ROW`,
    /// and wins ties. Table sizes are exact index sizes; `links` counts
    /// the postings' links exactly, and is not asked for when the
    /// postings alone already cost as much as the scan.
    pub(crate) fn choose(
        store: &PTDataStore,
        postings: u64,
        links: impl FnOnce() -> Result<u64>,
    ) -> Result<ContextAccess> {
        let scanned = (table_rows(store, "fhr_resource")? + table_rows(store, "rhf_focus")?) as f64
            * COST_SCAN_ROW;
        let reading = |links: u64| (postings + 2 * links) as f64 * COST_FETCH_ROW;
        if reading(0) >= scanned || reading(links()?) >= scanned {
            Ok(ContextAccess::Scan)
        } else {
            Ok(ContextAccess::Postings)
        }
    }

    /// `postings` or `scan`, as in the profile's `context-map:<label>`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ContextAccess::Postings => "postings",
            ContextAccess::Scan => "scan",
        }
    }
}

/// Live rows of the table `index` is on: the index's entry count, exact
/// and read without a page, so the cost rules never act on drifted
/// statistics.
pub(crate) fn table_rows(store: &PTDataStore, index: &str) -> Result<u64> {
    let db = store.db();
    Ok(db.index_len(db.index_id(index)?)? as u64)
}

fn relatives_label(r: Relatives) -> &'static str {
    match r {
        Relatives::Neither => "neither",
        Relatives::Ancestors => "ancestors",
        Relatives::Descendants => "descendants",
        Relatives::Both => "both",
    }
}

/// Cost one seed probe of `index` (on `table`) and record the decision
/// in the store's `planner.*` counters. Every call bumps `plans` and
/// exactly one of `stats_hits` (fresh statistics → `[statistics]`),
/// `stale_fallbacks` (statistics drifted past the rule in
/// `perftrack_store::stats::drifted`; the stale estimate is still used →
/// `[stale]`) or `stats_misses` (no histogram → `[heuristic]`, no
/// estimate). `key` is `None` when the catalog already proves the seed
/// empty (an unknown type), which estimates to exactly zero rows.
fn probe_estimate(
    store: &PTDataStore,
    index: &str,
    table: TableId,
    key: Option<&[Value]>,
) -> (String, Option<u64>) {
    let db = store.db();
    let m = db.planner_stats();
    m.plans.inc();
    let idx = db.index_id(index).ok();
    let analyzed = idx.and_then(|i| db.index_avg_fanout(i)).is_some();
    let source = match db.table_stats_state(table) {
        StatsState::Fresh(_) if analyzed => {
            m.stats_hits.inc();
            "statistics"
        }
        StatsState::Stale(_) if analyzed => {
            m.stale_fallbacks.inc();
            "stale"
        }
        _ => {
            m.stats_misses.inc();
            "heuristic"
        }
    };
    let est = match key {
        None => Some(0),
        Some(key) => idx
            .and_then(|i| db.index_eq_estimate(i, &encode_key_vec(key)))
            .map(|e| e.round() as u64),
    };
    (format!("index-eq({index}) [{source}]"), est)
}

/// Average closure fan-out (relatives per seed) of one closure index.
fn closure_fanout(store: &PTDataStore, index: &str) -> Option<f64> {
    let db = store.db();
    db.index_id(index).ok().and_then(|i| db.index_avg_fanout(i))
}

fn plan_one(store: &PTDataStore, filter: &ResourceFilter) -> FilterPlan {
    let schema = store.schema();
    let (access, seed) = match &filter.selector {
        Selector::ByType(tp) => {
            let key = store.type_id(tp.as_str()).map(|id| [Value::Int(id)]);
            probe_estimate(
                store,
                "resource_item_type",
                schema.resource_item,
                key.as_ref().map(|k| &k[..]),
            )
        }
        Selector::ByName(pattern) => {
            if pattern.starts_with('/') {
                probe_estimate(
                    store,
                    "resource_item_name",
                    schema.resource_item,
                    Some(&[Value::Text(pattern.clone())]),
                )
            } else {
                let base = pattern.rsplit('/').next().unwrap_or(pattern);
                probe_estimate(
                    store,
                    "resource_item_base",
                    schema.resource_item,
                    Some(&[Value::Text(base.to_string())]),
                )
            }
        }
        Selector::ByAttrs(preds) => match preds.first() {
            Some(p) => probe_estimate(
                store,
                "resource_attribute_name",
                schema.resource_attribute,
                Some(&[Value::Text(p.attr.clone())]),
            ),
            None => ("none".into(), Some(0)),
        },
    };
    // Expansion multiplies the seed set by the average closure fan-out.
    let estimated_family = seed.map(|s| {
        let mut total = s as f64;
        if matches!(filter.relatives, Relatives::Ancestors | Relatives::Both) {
            total += s as f64 * closure_fanout(store, "rha_resource").unwrap_or(0.0);
        }
        if matches!(filter.relatives, Relatives::Descendants | Relatives::Both) {
            total += s as f64 * closure_fanout(store, "rha_ancestor").unwrap_or(0.0);
        }
        total.round() as u64
    });
    FilterPlan {
        access,
        relatives: filter.relatives,
        estimated_seed: seed,
        estimated_family,
    }
}

/// Estimate a pr-filter query: each filter's seed access and expansion,
/// and what the match stage reads and returns.
pub fn plan_filters(store: &PTDataStore, filters: &[ResourceFilter]) -> PrFilterPlan {
    let plans: Vec<FilterPlan> = filters.iter().map(|f| plan_one(store, f)).collect();
    let db = store.db();
    let estimated_contexts = db
        .table_stats_state(store.schema().performance_result)
        .rows();
    // The links the smallest family's postings fan out to: its size times
    // the `fhr_resource` fan-out (foci per resource) times the `rhf_focus`
    // fan-out (links per focus).
    let fanout = |index: &str| db.index_id(index).ok().and_then(|i| db.index_avg_fanout(i));
    let estimated_links = (plans.iter().map(|p| p.estimated_family).min().flatten())
        .zip(fanout("fhr_resource").zip(fanout("rhf_focus")))
        .map(|(family, (foci, links))| (family as f64 * foci * links).round() as u64);
    // An empty family can't match anything; an empty filter list matches
    // every context. In between, context membership isn't estimable from
    // per-table statistics alone.
    let estimated_matches = if plans.iter().any(|p| p.estimated_family == Some(0)) {
        Some(0)
    } else if plans.is_empty() {
        estimated_contexts
    } else {
        None
    };
    PrFilterPlan {
        filters: plans,
        estimated_links,
        estimated_contexts,
        estimated_matches,
    }
}

/// Render a [`PrFilterPlan`] as a `pt-explain/v1` operator tree, using
/// the profiled-run operator vocabulary (`family[i]`, `context-map`,
/// `match`, `fetch` — documented in `docs/METRICS.md`). `access` and
/// `match_order` are the match stage's decision, from the exact family
/// sizes; the plan supplies only the `est=` annotations.
pub fn explain_filters(
    plan: &PrFilterPlan,
    access: ContextAccess,
    match_order: &[usize],
) -> ExplainPlan {
    let mut root = ExplainNode::new("pr-filter", "").with_estimate(plan.estimated_matches);
    for (i, f) in plan.filters.iter().enumerate() {
        root = root.child(
            ExplainNode::new(
                &format!("family[{i}]"),
                &format!("{} relatives={}", f.access, relatives_label(f.relatives)),
            )
            .with_estimate(f.estimated_family),
        );
    }
    let order = match_order
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    root = root
        .child(
            ExplainNode::new(
                "context-map",
                match access {
                    ContextAccess::Postings => "postings(fhr_resource,rhf_focus)",
                    ContextAccess::Scan => "scan(focus_has_resource+result_has_focus)",
                },
            )
            .with_estimate(plan.estimated_candidates(access)),
        )
        .child(
            ExplainNode::new("match", &format!("order=[{order}]"))
                .with_estimate(plan.estimated_matches),
        )
        .child(
            ExplainNode::new("fetch", "index-eq(performance_result_id)")
                .with_estimate(plan.estimated_matches),
        );
    ExplainPlan { root }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_data() -> PTDataStore {
        let store = PTDataStore::in_memory().unwrap();
        let mut ptdf = String::from("Application IRS\nResource /M grid\n");
        for n in 0..8 {
            ptdf.push_str(&format!("Resource /M/m{n} grid/machine\n"));
        }
        ptdf.push_str("Execution e1 IRS\n");
        ptdf.push_str("PerfResult e1 \"/M/m0(primary)\" IRS \"CPU time\" 1.0 seconds\n");
        store.load_ptdf_str(&ptdf).unwrap();
        store
    }

    #[test]
    fn unanalyzed_store_plans_without_estimates() {
        let store = store_with_data();
        let plan = plan_filters(&store, &[ResourceFilter::by_name("/M/m0")]);
        assert_eq!(plan.filters.len(), 1);
        assert!(plan.filters[0].access.contains("[heuristic]"));
        assert_eq!(plan.filters[0].estimated_family, None);
        assert_eq!(plan.estimated_links, None);
    }

    #[test]
    fn analyzed_store_estimates_and_orders_families() {
        let store = store_with_data();
        store.db().analyze().unwrap();
        let filters = vec![
            ResourceFilter::by_name("M").relatives(Relatives::Descendants),
            ResourceFilter::by_name("/M/m0").relatives(Relatives::Neither),
        ];
        let plan = plan_filters(&store, &filters);
        assert!(plan.filters[0].access.contains("[statistics]"));
        assert_eq!(plan.filters[1].estimated_family, Some(1));
        assert!(
            plan.filters[0].estimated_family.unwrap() > 1,
            "descendant expansion multiplies the seed: {plan:?}"
        );
        // The selective exact-name family is checked first.
        let table = crate::QueryEngine::new(&store)
            .explain(&filters)
            .unwrap()
            .render_table();
        assert!(
            table.starts_with("plan (pt-explain/v1)\npr-filter"),
            "{table}"
        );
        assert!(table.contains("match  order=[1,0]"), "{table}");
    }

    #[test]
    fn unknown_names_estimate_to_zero_matches() {
        let store = store_with_data();
        store.db().analyze().unwrap();
        let plan = plan_filters(
            &store,
            &[ResourceFilter::by_type(
                perftrack_model::TypePath::new("no/such/type").unwrap(),
            )],
        );
        assert_eq!(plan.filters[0].estimated_family, Some(0));
        assert_eq!(plan.estimated_matches, Some(0));
    }

    fn counters(store: &PTDataStore) -> (u64, u64, u64, u64) {
        let p = store.db().metrics().planner;
        (p.plans, p.stats_hits, p.stale_fallbacks, p.stats_misses)
    }

    #[test]
    fn unanalyzed_store_counts_only_misses() {
        let store = store_with_data();
        let before = counters(&store);
        plan_filters(
            &store,
            &[
                ResourceFilter::by_name("/M/m0"),
                ResourceFilter::by_name("m1"),
            ],
        );
        let after = counters(&store);
        assert_eq!(after.0 - before.0, 2, "one plan per filter");
        assert_eq!(after.3 - before.3, 2, "both filters miss");
        assert_eq!((after.1, after.2), (before.1, before.2));
    }

    #[test]
    fn analyzed_store_counts_hits() {
        let store = store_with_data();
        store.db().analyze().unwrap();
        let before = counters(&store);
        let plan = plan_filters(&store, &[ResourceFilter::by_name("m1")]);
        assert!(plan.filters[0].access.ends_with("[statistics]"));
        let after = counters(&store);
        assert_eq!(after.0 - before.0, 1);
        assert_eq!(after.1 - before.1, 1, "fresh statistics are a hit");
        assert_eq!((after.2, after.3), (before.2, before.3));
    }

    #[test]
    fn drifted_statistics_are_labelled_stale_and_still_estimate() {
        let store = store_with_data();
        store.db().analyze().unwrap();
        // Well past the drift rule (mutations * 4 > max(rows, 64)).
        let mut ptdf = String::new();
        for n in 8..48 {
            ptdf.push_str(&format!("Resource /M/m{n} grid/machine\n"));
        }
        store.load_ptdf_str(&ptdf).unwrap();
        let before = counters(&store);
        let plan = plan_filters(&store, &[ResourceFilter::by_name("/M/m0")]);
        assert!(
            plan.filters[0].access.ends_with("[stale]"),
            "{:?}",
            plan.filters[0]
        );
        assert_eq!(plan.filters[0].estimated_seed, Some(1), "estimate kept");
        let after = counters(&store);
        assert_eq!(after.0 - before.0, 1);
        assert_eq!(after.2 - before.2, 1, "drift counts a stale fallback");
        assert_eq!((after.1, after.3), (before.1, before.3));
    }
}
