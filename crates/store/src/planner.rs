//! The shared cost constants, the statistics view the planners read,
//! and the versioned EXPLAIN plan tree.
//!
//! Access planning itself lives with the query layer that runs it:
//! `perftrack::planner::plan_filters` costs each pr-filter family's
//! seed probe and orders the match stage, and the core query engine's
//! closure expansion picks batched probe vs. scan with the `COST_*`
//! constants below. Both read statistics collected by
//! [`crate::db::Database::analyze`] through
//! [`crate::db::Database::table_stats_state`] and never fail: missing or
//! drifted statistics only change the estimate annotations and the
//! `planner.*` counters. The cost model, drift policy and EXPLAIN schema
//! are documented in `docs/PLANNER.md`.

use crate::metrics::Json;

/// Schema tag on EXPLAIN documents ([`ExplainPlan::to_json`]).
pub const EXPLAIN_SCHEMA: &str = "pt-explain/v1";

/// Cost of producing one row from a full heap scan (the unit cost).
pub const COST_SCAN_ROW: f64 = 1.0;
/// Fixed cost of one B+tree root-to-leaf descent.
pub const COST_PROBE: f64 = 8.0;
/// Cost of fetching one heap row found through an index (random access
/// is costed above sequential).
pub const COST_FETCH_ROW: f64 = 4.0;

/// How the planner sees a table's statistics at decision time.
#[derive(Debug, Clone, Copy)]
pub enum StatsState {
    /// Statistics exist and pass the drift check; value is the analyzed
    /// row count.
    Fresh(u64),
    /// Statistics exist but drifted past the threshold.
    Stale(u64),
    /// Never analyzed.
    Missing,
}

impl StatsState {
    /// The analyzed row count, fresh or stale.
    pub fn rows(self) -> Option<u64> {
        match self {
            StatsState::Fresh(n) | StatsState::Stale(n) => Some(n),
            StatsState::Missing => None,
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// One operator in an EXPLAIN tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Operator name, matching the `--profile` operator vocabulary
    /// (documented in `docs/METRICS.md`).
    pub operator: String,
    /// Chosen strategy / arguments, e.g. `index-eq(people_id)`.
    pub detail: String,
    /// Estimated output rows, when statistics could produce a number.
    pub estimated_rows: Option<u64>,
    /// Child operators (inputs).
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// A leaf node.
    pub fn new(operator: &str, detail: &str) -> Self {
        ExplainNode {
            operator: operator.to_string(),
            detail: detail.to_string(),
            estimated_rows: None,
            children: Vec::new(),
        }
    }

    /// Attach an estimate.
    pub fn with_estimate(mut self, rows: Option<u64>) -> Self {
        self.estimated_rows = rows;
        self
    }

    /// Attach a child operator.
    pub fn child(mut self, node: ExplainNode) -> Self {
        self.children.push(node);
        self
    }

    /// Serialize this node (and its children) to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("operator".into(), Json::Str(self.operator.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
            (
                "estimated_rows".into(),
                self.estimated_rows.map_or(Json::Null, Json::UInt),
            ),
            (
                "children".into(),
                Json::Arr(self.children.iter().map(ExplainNode::to_json).collect()),
            ),
        ])
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.operator);
        if !self.detail.is_empty() {
            out.push_str("  ");
            out.push_str(&self.detail);
        }
        match self.estimated_rows {
            Some(n) => out.push_str(&format!("  est={n}")),
            None => out.push_str("  est=?"),
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// A whole EXPLAIN document: one operator tree under a schema tag.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    /// The root operator.
    pub root: ExplainNode,
}

impl ExplainPlan {
    /// Serialize with the `pt-explain/v1` schema tag.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(EXPLAIN_SCHEMA.into())),
            ("plan".into(), self.root.to_json()),
        ])
    }

    /// Human-readable indented tree (byte-stable; golden-tested).
    pub fn render_table(&self) -> String {
        let mut out = format!("plan ({EXPLAIN_SCHEMA})\n");
        self.root.render_into(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_tree_renders_and_serializes() {
        let plan = ExplainPlan {
            root: ExplainNode::new("pr-filter", "")
                .with_estimate(Some(4))
                .child(
                    ExplainNode::new("family[0]", "index-eq(resource_item_base)")
                        .with_estimate(Some(1)),
                )
                .child(ExplainNode::new("fetch", "").with_estimate(None)),
        };
        let table = plan.render_table();
        assert_eq!(
            table,
            "plan (pt-explain/v1)\n\
             pr-filter  est=4\n\
             \x20 family[0]  index-eq(resource_item_base)  est=1\n\
             \x20 fetch  est=?\n"
        );
        let json = plan.to_json().emit();
        assert!(json.contains("\"schema\":\"pt-explain/v1\""), "{json}");
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("plan").unwrap().get("operator"),
            Some(&Json::Str("pr-filter".into()))
        );
    }
}
