//! Performance results, metrics, and contexts (§2.2).
//!
//! A *performance result* is a measured or calculated value plus metadata:
//! a metric and one or more *contexts*. A context (the "focus" in the
//! database schema) is the set of resources defining the part of the code
//! or environment the measurement covers. One result may carry several
//! resource sets with roles — the §4.2 extension that records mpiP
//! caller/callee pairs without loss of granularity — and a single context
//! may apply to many results (e.g. wall time and FLOP count measured over
//! the same run).

use crate::resource::ResourceName;
use std::collections::BTreeSet;
use std::fmt;

/// Role of a resource set within a performance result's focus, matching
/// the `focus_type` column of the paper's schema (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextRole {
    Primary,
    Parent,
    Child,
    Sender,
    Receiver,
}

impl ContextRole {
    /// Canonical lowercase name used in PTdf resource-set suffixes.
    pub fn name(self) -> &'static str {
        match self {
            ContextRole::Primary => "primary",
            ContextRole::Parent => "parent",
            ContextRole::Child => "child",
            ContextRole::Sender => "sender",
            ContextRole::Receiver => "receiver",
        }
    }

    /// Every role, in declaration order.
    const ALL: [ContextRole; 5] = [
        ContextRole::Primary,
        ContextRole::Parent,
        ContextRole::Child,
        ContextRole::Sender,
        ContextRole::Receiver,
    ];

    /// Parse a role name, ignoring ASCII case. The loader calls this once
    /// per resource set, so it compares in place instead of lowercasing
    /// into a new string.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|role| role.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for ContextRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One resource set of a result's focus: a role plus resource names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSet {
    pub role: ContextRole,
    pub resources: Vec<ResourceName>,
}

impl ResourceSet {
    /// A primary resource set.
    pub fn primary(resources: Vec<ResourceName>) -> Self {
        ResourceSet {
            role: ContextRole::Primary,
            resources,
        }
    }
}

/// A measured or calculated performance value plus its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceResult {
    /// The execution this result belongs to.
    pub execution: String,
    /// Metric name (`CPU time`, `I/O wait time`, ...). Metrics are kept
    /// out of contexts by design — see §2.2's discussion.
    pub metric: String,
    /// The measured value. The prototype stores scalars only (§3).
    pub value: f64,
    /// Measurement units (`seconds`, `count`, ...).
    pub units: String,
    /// The tool that produced the measurement.
    pub tool: String,
    /// One or more resource sets forming the focus.
    pub resource_sets: Vec<ResourceSet>,
}

impl PerformanceResult {
    /// Convenience constructor for the common single-primary-context case.
    pub fn simple(
        execution: &str,
        metric: &str,
        value: f64,
        units: &str,
        tool: &str,
        resources: Vec<ResourceName>,
    ) -> Self {
        PerformanceResult {
            execution: execution.to_string(),
            metric: metric.to_string(),
            value,
            units: units.to_string(),
            tool: tool.to_string(),
            resource_sets: vec![ResourceSet::primary(resources)],
        }
    }

    /// The union of every resource named anywhere in the focus — the
    /// context used for pr-filter matching.
    pub fn context_union(&self) -> BTreeSet<&ResourceName> {
        self.resource_sets
            .iter()
            .flat_map(|rs| rs.resources.iter())
            .collect()
    }

    /// Resources in sets with a given role.
    pub fn resources_with_role(&self, role: ContextRole) -> Vec<&ResourceName> {
        self.resource_sets
            .iter()
            .filter(|rs| rs.role == role)
            .flat_map(|rs| rs.resources.iter())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rn(s: &str) -> ResourceName {
        ResourceName::new(s).unwrap()
    }

    #[test]
    fn role_names_roundtrip() {
        for role in ContextRole::ALL {
            assert_eq!(ContextRole::parse(role.name()), Some(role));
            assert_eq!(ContextRole::parse(&role.name().to_uppercase()), Some(role));
        }
        assert_eq!(ContextRole::parse("bogus"), None);
    }

    #[test]
    fn role_parse_ignores_ascii_case_only() {
        assert_eq!(ContextRole::parse("PRIMARY"), Some(ContextRole::Primary));
        assert_eq!(ContextRole::parse("Parent"), Some(ContextRole::Parent));
        assert_eq!(ContextRole::parse("cHiLd"), Some(ContextRole::Child));
        // A prefix, the empty string and a non-ASCII look-alike (dotless
        // i, U+0131) name no role.
        assert_eq!(ContextRole::parse("prim"), None);
        assert_eq!(ContextRole::parse(""), None);
        assert_eq!(ContextRole::parse("pr\u{131}mary"), None);
    }

    #[test]
    fn simple_result_has_one_primary_set() {
        let r = PerformanceResult::simple(
            "exec1",
            "CPU time",
            12.5,
            "seconds",
            "IRS",
            vec![rn("/irs"), rn("/M/m/b/n/p0")],
        );
        assert_eq!(r.resource_sets.len(), 1);
        assert_eq!(r.resource_sets[0].role, ContextRole::Primary);
        assert_eq!(r.context_union().len(), 2);
    }

    #[test]
    fn multi_set_caller_callee() {
        // The mpiP shape: time in MPI_Send broken down by calling function.
        let r = PerformanceResult {
            execution: "smg-run".into(),
            metric: "MPI time".into(),
            value: 3.25,
            units: "seconds".into(),
            tool: "mpiP".into(),
            resource_sets: vec![
                ResourceSet {
                    role: ContextRole::Primary,
                    resources: vec![rn("/smg/env/MPI_Send")],
                },
                ResourceSet {
                    role: ContextRole::Parent,
                    resources: vec![rn("/smg/build/solve.c/hypre_SMGSolve")],
                },
            ],
        };
        assert_eq!(r.resources_with_role(ContextRole::Primary).len(), 1);
        assert_eq!(
            r.resources_with_role(ContextRole::Parent)[0].as_str(),
            "/smg/build/solve.c/hypre_SMGSolve"
        );
        assert_eq!(r.context_union().len(), 2);
    }

    #[test]
    fn context_union_dedups() {
        let r = PerformanceResult {
            execution: "e".into(),
            metric: "m".into(),
            value: 1.0,
            units: "u".into(),
            tool: "t".into(),
            resource_sets: vec![
                ResourceSet::primary(vec![rn("/a"), rn("/b")]),
                ResourceSet {
                    role: ContextRole::Sender,
                    resources: vec![rn("/a")],
                },
            ],
        };
        assert_eq!(r.context_union().len(), 2);
    }
}
