//! Core-level planning pass over the pr-filter IR.
//!
//! Before running a pr-filter query, [`plan_filters`] costs each
//! [`ResourceFilter`]'s seed access path and closure expansion from the
//! store's ANALYZE statistics ([`perftrack_store::db::Database::analyze`])
//! and decides the order in which families are checked during the match
//! stage — most selective first, so non-matching contexts are rejected
//! after the fewest set probes. The same pass feeds
//! [`crate::query::QueryEngine::explain`] (the `pt-explain/v1` tree) and
//! the estimate annotations on profiled runs.
//!
//! This is the planner every query runs, so it owns the store's
//! `planner.*` counters: each filter's seed decision counts once, as a
//! statistics hit, a stale fallback, or a miss. The pass never fails:
//! missing statistics leave estimates empty, drifted ones are used but
//! labelled `[stale]`, and execution is the same either way.

use crate::datastore::PTDataStore;
use crate::schema::Schema;
use perftrack_model::{Relatives, ResourceFilter, Selector};
use perftrack_store::planner::{ExplainNode, ExplainPlan};
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

/// The planned evaluation of a whole pr-filter query.
#[derive(Debug, Clone)]
pub struct PrFilterPlan {
    /// One plan per filter, in the caller's filter order.
    pub filters: Vec<FilterPlan>,
    /// Family-check order for the match stage: filter indexes sorted by
    /// ascending estimated family size (unestimated filters last).
    pub match_order: Vec<usize>,
    /// Estimated result contexts (rows of the `focus` table).
    pub estimated_contexts: Option<u64>,
    /// Estimated matching results, when it can be bounded.
    pub estimated_matches: Option<u64>,
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
            total += s as f64 * closure_fanout(store, "rhd_resource").unwrap_or(0.0);
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

/// Plan a pr-filter query: cost each filter's seed access and expansion,
/// and order the match-stage family checks by estimated selectivity.
pub fn plan_filters(store: &PTDataStore, filters: &[ResourceFilter]) -> PrFilterPlan {
    let plans: Vec<FilterPlan> = filters.iter().map(|f| plan_one(store, f)).collect();
    let mut match_order: Vec<usize> = (0..plans.len()).collect();
    match_order.sort_by_key(|&i| plans[i].estimated_family.unwrap_or(u64::MAX));
    let schema: &Schema = store.schema();
    let estimated_contexts = store.db().table_stats_state(schema.focus).rows();
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
        match_order,
        estimated_contexts,
        estimated_matches,
    }
}

/// Render a [`PrFilterPlan`] as a `pt-explain/v1` operator tree, using
/// the profiled-run operator vocabulary (`family[i]`, `context-map`,
/// `match`, `fetch` — documented in `docs/METRICS.md`).
pub fn explain_filters(plan: &PrFilterPlan) -> ExplainPlan {
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
    let order = plan
        .match_order
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    root = root
        .child(
            ExplainNode::new("context-map", "focus+focus_has_resource")
                .with_estimate(plan.estimated_contexts),
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
        assert_eq!(plan.match_order, vec![0]);
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
        // The selective exact-name family is checked first.
        assert_eq!(plan.match_order[0], 1);
        assert!(
            plan.filters[0].estimated_family.unwrap() > 1,
            "descendant expansion multiplies the seed: {plan:?}"
        );
        let table = explain_filters(&plan).render_table();
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
