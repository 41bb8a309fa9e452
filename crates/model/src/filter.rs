//! Resource filters, resource families, and pr-filters (§2.2).
//!
//! A *resource filter* selects resources by type, by name, or by
//! attribute-value-comparator tuples, optionally expanded to ancestors
//! and/or descendants. Applying one to a repository yields a *resource
//! family* — a set of resources from one type hierarchy. A *pr-filter* is
//! a set of families; it matches a context `C` iff every family contains
//! at least one resource of `C`:
//!
//! ```text
//! PRF matches C  ⇔  ∀ R ∈ PRF: ∃ r ∈ C such that r ∈ R
//! ```

use crate::resource::{AttrValue, Resource, ResourceName, ResourceRepo};
use crate::result::PerformanceResult;
use crate::types::{ModelError, TypePath};
use std::collections::BTreeSet;

/// The ancestor/descendant expansion flag — the GUI's D/A/B/N "Relatives"
/// column (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Relatives {
    /// Neither (N).
    Neither,
    /// Ancestors only (A).
    Ancestors,
    /// Descendants only (D) — the GUI's default when a name is selected.
    #[default]
    Descendants,
    /// Both (B).
    Both,
}

impl Relatives {
    /// Parse the single-letter GUI code.
    pub fn from_code(c: char) -> Option<Self> {
        Some(match c.to_ascii_uppercase() {
            'N' => Relatives::Neither,
            'A' => Relatives::Ancestors,
            'D' => Relatives::Descendants,
            'B' => Relatives::Both,
            _ => return None,
        })
    }

    /// The single-letter GUI code.
    pub fn code(self) -> char {
        match self {
            Relatives::Neither => 'N',
            Relatives::Ancestors => 'A',
            Relatives::Descendants => 'D',
            Relatives::Both => 'B',
        }
    }
}

/// Comparator for attribute filters. Attribute values are strings;
/// ordered comparators compare numerically when both sides parse as
/// numbers, lexicographically otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrCmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Contains,
    StartsWith,
}

impl AttrCmp {
    /// Parse comparator syntax used by the script interface.
    pub fn parse(s: &str) -> Result<Self, ModelError> {
        Ok(match s {
            "=" | "==" => AttrCmp::Eq,
            "!=" | "<>" => AttrCmp::Ne,
            "<" => AttrCmp::Lt,
            "<=" => AttrCmp::Le,
            ">" => AttrCmp::Gt,
            ">=" => AttrCmp::Ge,
            "contains" => AttrCmp::Contains,
            "startswith" => AttrCmp::StartsWith,
            other => return Err(ModelError::BadComparator(other.to_string())),
        })
    }

    /// Apply the comparator to an attribute value and a reference string.
    pub fn apply(self, actual: &str, expected: &str) -> bool {
        match self {
            AttrCmp::Eq => actual == expected,
            AttrCmp::Ne => actual != expected,
            AttrCmp::Contains => actual.contains(expected),
            AttrCmp::StartsWith => actual.starts_with(expected),
            ordered => {
                let ord = match (actual.parse::<f64>(), expected.parse::<f64>()) {
                    (Ok(a), Ok(b)) => a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal),
                    _ => actual.cmp(expected),
                };
                match ordered {
                    AttrCmp::Lt => ord == std::cmp::Ordering::Less,
                    AttrCmp::Le => ord != std::cmp::Ordering::Greater,
                    AttrCmp::Gt => ord == std::cmp::Ordering::Greater,
                    AttrCmp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// One attribute predicate: `(attribute, comparator, value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrPredicate {
    pub attr: String,
    pub cmp: AttrCmp,
    pub value: String,
}

impl AttrPredicate {
    /// Does `resource` satisfy this predicate? The resource must *have*
    /// the attribute and the comparison must hold (§2.2: "resources that
    /// contain all of the listed attributes").
    pub fn matches(&self, resource: &Resource) -> bool {
        match resource.attr(&self.attr) {
            Some(AttrValue::Str(s)) => self.cmp.apply(s, &self.value),
            Some(AttrValue::Resource(r)) => self.cmp.apply(r.as_str(), &self.value),
            None => false,
        }
    }
}

/// The selection part of a resource filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selector {
    /// All resources of the given type (exact type, not subtree — the GUI
    /// uses this for "machine-level measurements only").
    ByType(TypePath),
    /// Resources matching a name: a full name (leading `/`) matches
    /// exactly; a base/suffix shorthand (`batch`, `Frost/batch`) matches
    /// any resource whose name ends with it.
    ByName(String),
    /// Resources satisfying *all* attribute predicates.
    ByAttrs(Vec<AttrPredicate>),
}

/// A resource filter: a selector plus the relatives-expansion flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceFilter {
    pub selector: Selector,
    pub relatives: Relatives,
}

impl ResourceFilter {
    /// Filter selecting a type with no expansion (the GUI's "add a
    /// resource type without a name").
    pub fn by_type(t: TypePath) -> Self {
        ResourceFilter {
            selector: Selector::ByType(t),
            relatives: Relatives::Neither,
        }
    }

    /// Filter selecting a name with descendant expansion (the GUI default).
    pub fn by_name(name: &str) -> Self {
        ResourceFilter {
            selector: Selector::ByName(name.to_string()),
            relatives: Relatives::Descendants,
        }
    }

    /// Filter selecting by attribute predicates, no expansion.
    pub fn by_attrs(preds: Vec<AttrPredicate>) -> Self {
        ResourceFilter {
            selector: Selector::ByAttrs(preds),
            relatives: Relatives::Neither,
        }
    }

    /// Override the relatives flag.
    pub fn relatives(mut self, r: Relatives) -> Self {
        self.relatives = r;
        self
    }

    /// Apply to a repository, producing the resource family (member names).
    pub fn apply(&self, repo: &ResourceRepo) -> ResourceFamily {
        let seed: Vec<&Resource> = match &self.selector {
            Selector::ByType(t) => repo.of_type(t),
            Selector::ByName(pattern) => repo.by_shorthand(pattern),
            Selector::ByAttrs(preds) => repo
                .all()
                .filter(|r| preds.iter().all(|p| p.matches(r)))
                .collect(),
        };
        let mut members: BTreeSet<ResourceName> = BTreeSet::new();
        for r in &seed {
            members.insert(r.name.clone());
        }
        if matches!(self.relatives, Relatives::Ancestors | Relatives::Both) {
            for r in &seed {
                for a in repo.ancestors(&r.name) {
                    members.insert(a.name.clone());
                }
            }
        }
        if matches!(self.relatives, Relatives::Descendants | Relatives::Both) {
            for r in &seed {
                for d in repo.descendants(&r.name) {
                    members.insert(d.name.clone());
                }
            }
        }
        ResourceFamily { members }
    }
}

/// A resource family: the set of resources produced by a resource filter.
/// All members belong to the same type hierarchy in intended use, though
/// the model does not enforce it (attribute filters may legitimately span
/// hierarchies).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceFamily {
    pub members: BTreeSet<ResourceName>,
}

impl ResourceFamily {
    /// Family from explicit member names.
    pub fn from_names(names: impl IntoIterator<Item = ResourceName>) -> Self {
        ResourceFamily {
            members: names.into_iter().collect(),
        }
    }

    /// Membership test.
    pub fn contains(&self, name: &ResourceName) -> bool {
        self.members.contains(name)
    }

    /// Number of member resources.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the family is empty (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A pr-filter: a set of resource families.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrFilter {
    pub families: Vec<ResourceFamily>,
}

impl PrFilter {
    /// Empty pr-filter (matches every result).
    pub fn new() -> Self {
        PrFilter::default()
    }

    /// Add a family.
    pub fn push(&mut self, family: ResourceFamily) {
        self.families.push(family);
    }

    /// Build from resource filters applied to a repository.
    pub fn from_filters(repo: &ResourceRepo, filters: &[ResourceFilter]) -> Self {
        PrFilter {
            families: filters.iter().map(|f| f.apply(repo)).collect(),
        }
    }

    /// The paper's matching rule over an explicit context (resource set).
    pub fn matches_context<'a>(
        &self,
        context: impl IntoIterator<Item = &'a ResourceName> + Clone,
    ) -> bool {
        self.families
            .iter()
            .all(|family| context.clone().into_iter().any(|r| family.contains(r)))
    }

    /// Does this pr-filter match a performance result? The result's
    /// context is the union of its resource sets.
    pub fn matches(&self, result: &PerformanceResult) -> bool {
        self.matches_context(result.context_union())
    }

    /// Apply to a set of results, yielding the matching subset (the
    /// `PR -> PR'` operation of §2.2).
    pub fn filter<'a>(&self, results: &'a [PerformanceResult]) -> Vec<&'a PerformanceResult> {
        results.iter().filter(|r| self.matches(r)).collect()
    }

    /// Count matches per family and for the whole filter — the numbers the
    /// GUI shows live while the user builds a query (§3.2).
    pub fn match_counts(&self, results: &[PerformanceResult]) -> MatchCounts {
        let mut per_family = vec![0usize; self.families.len()];
        let mut whole = 0usize;
        for r in results {
            let ctx = r.context_union();
            let mut all = true;
            for (i, family) in self.families.iter().enumerate() {
                let hit = ctx.iter().any(|res| family.contains(res));
                if hit {
                    per_family[i] += 1;
                } else {
                    all = false;
                }
            }
            // An empty pr-filter matches every result.
            if all || self.families.is_empty() {
                whole += 1;
            }
        }
        MatchCounts { per_family, whole }
    }
}

/// Live match counts for a pr-filter under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchCounts {
    /// Results matching each family alone.
    pub per_family: Vec<usize>,
    /// Results matching the entire pr-filter.
    pub whole: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRegistry;

    fn rn(s: &str) -> ResourceName {
        ResourceName::new(s).unwrap()
    }

    /// Two machines with processors, an application, and some metrics.
    fn setup() -> (TypeRegistry, ResourceRepo, Vec<PerformanceResult>) {
        let reg = TypeRegistry::with_base_types();
        let mut repo = ResourceRepo::new();
        for (grid, machine) in [("GFrost", "Frost"), ("GMcr", "MCR")] {
            repo.add(&reg, &format!("/{grid}"), "grid").unwrap();
            repo.add(&reg, &format!("/{grid}/{machine}"), "grid/machine")
                .unwrap();
            repo.add(
                &reg,
                &format!("/{grid}/{machine}/batch"),
                "grid/machine/partition",
            )
            .unwrap();
            for n in 0..2 {
                let node = format!("/{grid}/{machine}/batch/node{n}");
                repo.add(&reg, &node, "grid/machine/partition/node")
                    .unwrap();
                let nn = rn(&node);
                repo.set_attr(&nn, "memoryGB", AttrValue::Str(format!("{}", 8 * (n + 1))))
                    .unwrap();
                for p in 0..2 {
                    repo.add(
                        &reg,
                        &format!("{node}/p{p}"),
                        "grid/machine/partition/node/processor",
                    )
                    .unwrap();
                }
            }
        }
        repo.add(&reg, "/IRS", "application").unwrap();
        let mut results = Vec::new();
        for machine in ["Frost", "MCR"] {
            let grid = if machine == "Frost" { "GFrost" } else { "GMcr" };
            for n in 0..2 {
                for p in 0..2 {
                    results.push(PerformanceResult::simple(
                        &format!("irs-{machine}"),
                        "CPU time",
                        (n * 2 + p) as f64,
                        "seconds",
                        "IRS",
                        vec![
                            rn("/IRS"),
                            rn(&format!("/{grid}/{machine}/batch/node{n}/p{p}")),
                        ],
                    ));
                }
            }
            // One machine-level result per machine.
            results.push(PerformanceResult::simple(
                &format!("irs-{machine}"),
                "wall time",
                99.0,
                "seconds",
                "IRS",
                vec![rn("/IRS"), rn(&format!("/{grid}/{machine}"))],
            ));
        }
        (reg, repo, results)
    }

    #[test]
    fn relatives_codes() {
        assert_eq!(Relatives::from_code('d'), Some(Relatives::Descendants));
        assert_eq!(Relatives::from_code('B'), Some(Relatives::Both));
        assert_eq!(Relatives::from_code('x'), None);
        assert_eq!(Relatives::Ancestors.code(), 'A');
        assert_eq!(Relatives::default(), Relatives::Descendants);
    }

    #[test]
    fn attr_cmp_numeric_and_string() {
        assert!(AttrCmp::Eq.apply("IBM", "IBM"));
        assert!(
            AttrCmp::Lt.apply("9", "10"),
            "numeric compare when both parse"
        );
        assert!(
            AttrCmp::Gt.apply("zebra", "apple"),
            "lexicographic otherwise"
        );
        assert!(AttrCmp::Contains.apply("Power4+", "ower4"));
        assert!(AttrCmp::StartsWith.apply("linux-2.6", "linux"));
        assert!(AttrCmp::parse("bogus").is_err());
        assert_eq!(AttrCmp::parse(">=").unwrap(), AttrCmp::Ge);
    }

    #[test]
    fn filter_by_name_with_descendants() {
        let (_, repo, _) = setup();
        // The paper's example: choosing "Frost" includes partitions, nodes,
        // and processors.
        let fam = ResourceFilter::by_name("Frost").apply(&repo);
        assert_eq!(fam.len(), 1 + 1 + 2 + 4); // Frost + batch + 2 nodes + 4 procs
                                              // With Neither, just the machine itself.
        let fam = ResourceFilter::by_name("Frost")
            .relatives(Relatives::Neither)
            .apply(&repo);
        assert_eq!(fam.len(), 1);
        // Ancestors adds the grid.
        let fam = ResourceFilter::by_name("Frost")
            .relatives(Relatives::Ancestors)
            .apply(&repo);
        assert_eq!(fam.len(), 2);
        // Both.
        let fam = ResourceFilter::by_name("Frost")
            .relatives(Relatives::Both)
            .apply(&repo);
        assert_eq!(fam.len(), 9);
    }

    #[test]
    fn filter_by_shorthand_across_machines() {
        let (_, repo, _) = setup();
        // "batch" matches the batch partition on *any* machine (§2.1).
        let fam = ResourceFilter::by_name("batch")
            .relatives(Relatives::Neither)
            .apply(&repo);
        assert_eq!(fam.len(), 2);
        // "Frost/batch" pins the machine.
        let fam = ResourceFilter::by_name("Frost/batch")
            .relatives(Relatives::Neither)
            .apply(&repo);
        assert_eq!(fam.len(), 1);
    }

    #[test]
    fn filter_by_type_exact_level() {
        let (reg, repo, _) = setup();
        let t = reg.get("grid/machine").unwrap();
        let fam = ResourceFilter::by_type(t).apply(&repo);
        assert_eq!(fam.len(), 2, "machines only, no nodes/processors");
    }

    #[test]
    fn filter_by_attributes() {
        let (_, repo, _) = setup();
        let fam = ResourceFilter::by_attrs(vec![AttrPredicate {
            attr: "memoryGB".into(),
            cmp: AttrCmp::Ge,
            value: "16".into(),
        }])
        .apply(&repo);
        // node1 on each machine has 16 GB.
        assert_eq!(fam.len(), 2);
        // Missing attribute never matches.
        let fam = ResourceFilter::by_attrs(vec![AttrPredicate {
            attr: "nonexistent".into(),
            cmp: AttrCmp::Eq,
            value: "x".into(),
        }])
        .apply(&repo);
        assert!(fam.is_empty());
        // Conjunction of predicates.
        let fam = ResourceFilter::by_attrs(vec![
            AttrPredicate {
                attr: "memoryGB".into(),
                cmp: AttrCmp::Ge,
                value: "8".into(),
            },
            AttrPredicate {
                attr: "memoryGB".into(),
                cmp: AttrCmp::Lt,
                value: "16".into(),
            },
        ])
        .apply(&repo);
        assert_eq!(fam.len(), 2, "8 <= mem < 16 selects node0s");
    }

    #[test]
    fn pr_filter_matching_rule() {
        let (_, repo, results) = setup();
        // Family 1: application /IRS. Family 2: everything under Frost.
        let prf = PrFilter::from_filters(
            &repo,
            &[
                ResourceFilter::by_name("/IRS").relatives(Relatives::Neither),
                ResourceFilter::by_name("Frost"),
            ],
        );
        let matched = prf.filter(&results);
        // 4 processor results + 1 machine result on Frost.
        assert_eq!(matched.len(), 5);
        assert!(matched.iter().all(|r| r.execution == "irs-Frost"));
        // An empty pr-filter matches everything.
        assert_eq!(PrFilter::new().filter(&results).len(), results.len());
        // An empty family matches nothing.
        let mut prf = PrFilter::new();
        prf.push(ResourceFamily::default());
        assert!(prf.filter(&results).is_empty());
    }

    #[test]
    fn machine_level_only_via_type_family() {
        let (reg, repo, results) = setup();
        // The GUI use-case: only machine-level measurements, excluding
        // processor-level data (§3.2).
        let prf = PrFilter::from_filters(
            &repo,
            &[ResourceFilter::by_type(reg.get("grid/machine").unwrap())],
        );
        let matched = prf.filter(&results);
        assert_eq!(matched.len(), 2);
        assert!(matched.iter().all(|r| r.metric == "wall time"));
    }

    #[test]
    fn match_counts_per_family_and_whole() {
        let (_, repo, results) = setup();
        let prf = PrFilter::from_filters(
            &repo,
            &[
                ResourceFilter::by_name("/IRS").relatives(Relatives::Neither),
                ResourceFilter::by_name("MCR"),
            ],
        );
        let counts = prf.match_counts(&results);
        assert_eq!(counts.per_family[0], results.len(), "all results name /IRS");
        assert_eq!(counts.per_family[1], 5, "MCR-side results");
        assert_eq!(counts.whole, 5);
        // Empty filter: whole = all.
        assert_eq!(PrFilter::new().match_counts(&results).whole, results.len());
    }
}
