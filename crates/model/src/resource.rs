//! Resources, resource attributes, and the in-memory resource repository.
//!
//! A *resource* is any named element of an application or its compile-time
//! or runtime environment (§2.1): machine nodes, processes, functions,
//! compilers. Full resource names are written like Unix paths with a
//! leading slash — `/SingleMachineFrost/Frost/batch/frost121/p0` — and a
//! full name uniquely identifies a resource *and all its ancestors*.
//!
//! Attributes are characteristics of resources; an attribute value is
//! either a string or another resource (the latter are PerfTrack's
//! "resource constraints").

use crate::types::{ModelError, TypePath, TypeRegistry};
use std::collections::BTreeMap;
use std::fmt;

/// A full resource name: `/Frost/batch/frost121/p0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceName(String);

impl ResourceName {
    /// Parse a full resource name (leading `/`, non-empty segments).
    pub fn new(name: &str) -> Result<Self, ModelError> {
        if !name.starts_with('/')
            || name.len() == 1
            || name.ends_with('/')
            || name[1..].split('/').any(str::is_empty)
        {
            return Err(ModelError::BadResourceName(name.to_string()));
        }
        Ok(ResourceName(name.to_string()))
    }

    /// The full name string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The base (final) segment; the paper's shorthand name (`batch`).
    pub fn base_name(&self) -> &str {
        self.0.rsplit('/').next().unwrap()
    }

    /// Parent resource name, or `None` for top-level resources.
    pub fn parent(&self) -> Option<ResourceName> {
        let i = self.0.rfind('/').unwrap();
        (i > 0).then(|| ResourceName(self.0[..i].to_string()))
    }

    /// All ancestors, nearest first.
    pub fn ancestors(&self) -> Vec<ResourceName> {
        let mut out = Vec::new();
        let mut cur = self.parent();
        while let Some(p) = cur {
            cur = p.parent();
            out.push(p);
        }
        out
    }

    /// Number of segments.
    pub fn depth(&self) -> usize {
        self.0[1..].split('/').count()
    }

    /// Child name formed by appending one segment.
    pub fn child(&self, segment: &str) -> Result<ResourceName, ModelError> {
        if segment.is_empty() || segment.contains('/') {
            return Err(ModelError::BadResourceName(segment.to_string()));
        }
        Ok(ResourceName(format!("{}/{}", self.0, segment)))
    }

    /// True if `self` is a strict descendant of `other`.
    pub fn is_descendant_of(&self, other: &ResourceName) -> bool {
        self.0.len() > other.0.len() && self.0.starts_with(&format!("{}/", other.0))
    }

    /// True when the name matches the paper's base-name shorthand: either
    /// `pattern` equals the full name, or the full name ends with
    /// `/pattern` (so `batch` matches `/Frost/batch` on any machine, and
    /// `Frost/batch` matches the batch partition of Frost specifically).
    pub fn matches_shorthand(&self, pattern: &str) -> bool {
        if let Some(stripped) = pattern.strip_prefix('/') {
            return self.0[1..] == *stripped;
        }
        self.0[1..] == *pattern || self.0.ends_with(&format!("/{pattern}"))
    }
}

impl fmt::Display for ResourceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An attribute value: a plain string or a reference to another resource
/// (a *resource constraint*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    Str(String),
    Resource(ResourceName),
}

impl AttrValue {
    /// The value as a display string (resource values show their name).
    pub fn as_display(&self) -> &str {
        match self {
            AttrValue::Str(s) => s,
            AttrValue::Resource(r) => r.as_str(),
        }
    }
}

/// A resource: name, type, attributes.
#[derive(Debug, Clone)]
pub struct Resource {
    pub name: ResourceName,
    pub rtype: TypePath,
    pub attributes: BTreeMap<String, AttrValue>,
}

impl Resource {
    /// Attribute lookup.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attributes.get(name)
    }
}

/// In-memory repository of resources with hierarchy-aware lookups. This is
/// the reference semantics that the DB-backed store in the `perftrack`
/// crate must agree with.
#[derive(Debug, Clone, Default)]
pub struct ResourceRepo {
    /// Keyed by full name; BTreeMap gives ordered prefix scans for
    /// descendant queries.
    resources: BTreeMap<ResourceName, Resource>,
}

impl ResourceRepo {
    /// Empty repository.
    pub fn new() -> Self {
        ResourceRepo::default()
    }

    /// Add a resource, enforcing the model's structural rules:
    /// * the full name is unique;
    /// * the type is registered;
    /// * a multi-segment resource's parent exists, and the resource's type
    ///   is a direct child of the parent's type;
    /// * a top-level resource has a top-level type.
    pub fn add(
        &mut self,
        registry: &TypeRegistry,
        name: &str,
        rtype: &str,
    ) -> Result<ResourceName, ModelError> {
        let name = ResourceName::new(name)?;
        let rtype = registry.get(rtype)?;
        if self.resources.contains_key(&name) {
            return Err(ModelError::DuplicateResource(name.as_str().to_string()));
        }
        match name.parent() {
            Some(parent_name) => {
                let parent = self
                    .resources
                    .get(&parent_name)
                    .ok_or_else(|| ModelError::UnknownResource(parent_name.as_str().to_string()))?;
                let expected_parent_type =
                    rtype.parent().ok_or_else(|| ModelError::TypeMismatch {
                        resource: name.as_str().to_string(),
                        detail: format!("top-level type {rtype} cannot name a nested resource"),
                    })?;
                if parent.rtype != expected_parent_type {
                    return Err(ModelError::TypeMismatch {
                        resource: name.as_str().to_string(),
                        detail: format!(
                            "parent {} has type {}, expected {}",
                            parent_name, parent.rtype, expected_parent_type
                        ),
                    });
                }
            }
            None => {
                if rtype.depth() != 1 {
                    return Err(ModelError::TypeMismatch {
                        resource: name.as_str().to_string(),
                        detail: format!("nested type {rtype} requires a parent resource"),
                    });
                }
            }
        }
        self.resources.insert(
            name.clone(),
            Resource {
                name: name.clone(),
                rtype,
                attributes: BTreeMap::new(),
            },
        );
        Ok(name)
    }

    /// Add a resource if absent; returns its name either way (types must
    /// agree when it already exists).
    pub fn add_or_get(
        &mut self,
        registry: &TypeRegistry,
        name: &str,
        rtype: &str,
    ) -> Result<ResourceName, ModelError> {
        if let Ok(existing) = ResourceName::new(name) {
            if let Some(r) = self.resources.get(&existing) {
                if r.rtype.as_str() != rtype {
                    return Err(ModelError::TypeMismatch {
                        resource: name.to_string(),
                        detail: format!("exists with type {}, got {rtype}", r.rtype),
                    });
                }
                return Ok(existing);
            }
        }
        self.add(registry, name, rtype)
    }

    /// Set (or overwrite) an attribute.
    pub fn set_attr(
        &mut self,
        name: &ResourceName,
        attr: &str,
        value: AttrValue,
    ) -> Result<(), ModelError> {
        // Resource-valued attributes must reference existing resources.
        if let AttrValue::Resource(target) = &value {
            if !self.resources.contains_key(target) {
                return Err(ModelError::UnknownResource(target.as_str().to_string()));
            }
        }
        let r = self
            .resources
            .get_mut(name)
            .ok_or_else(|| ModelError::UnknownResource(name.as_str().to_string()))?;
        r.attributes.insert(attr.to_string(), value);
        Ok(())
    }

    /// Look up one resource.
    pub fn get(&self, name: &ResourceName) -> Option<&Resource> {
        self.resources.get(name)
    }

    /// Look up by string name.
    pub fn get_str(&self, name: &str) -> Option<&Resource> {
        ResourceName::new(name).ok().and_then(|n| self.get(&n))
    }

    /// True if the full name exists.
    pub fn contains(&self, name: &ResourceName) -> bool {
        self.resources.contains_key(name)
    }

    /// All resources, ordered by name.
    pub fn all(&self) -> impl Iterator<Item = &Resource> {
        self.resources.values()
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Resources of exactly this type.
    pub fn of_type(&self, rtype: &TypePath) -> Vec<&Resource> {
        self.resources
            .values()
            .filter(|r| &r.rtype == rtype)
            .collect()
    }

    /// Strict descendants of `name`, in name order (prefix scan).
    pub fn descendants(&self, name: &ResourceName) -> Vec<&Resource> {
        let lo = format!("{}/", name.as_str());
        self.resources
            .range(ResourceName(lo.clone())..)
            .take_while(|(k, _)| k.as_str().starts_with(&lo))
            .map(|(_, v)| v)
            .collect()
    }

    /// Ancestors of `name` that exist in the repo, nearest first.
    pub fn ancestors(&self, name: &ResourceName) -> Vec<&Resource> {
        name.ancestors()
            .into_iter()
            .filter_map(|a| self.resources.get(&a))
            .collect()
    }

    /// Resources matching the paper's base-name shorthand (see
    /// [`ResourceName::matches_shorthand`]).
    pub fn by_shorthand(&self, pattern: &str) -> Vec<&Resource> {
        self.resources
            .values()
            .filter(|r| r.name.matches_shorthand(pattern))
            .collect()
    }

    /// Direct children of `name`.
    pub fn children(&self, name: &ResourceName) -> Vec<&Resource> {
        self.descendants(name)
            .into_iter()
            .filter(|r| r.name.depth() == name.depth() + 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TypeRegistry {
        TypeRegistry::with_base_types()
    }

    fn frost_repo() -> (TypeRegistry, ResourceRepo) {
        let reg = registry();
        let mut repo = ResourceRepo::new();
        repo.add(&reg, "/SingleMachineFrost", "grid").unwrap();
        repo.add(&reg, "/SingleMachineFrost/Frost", "grid/machine")
            .unwrap();
        repo.add(
            &reg,
            "/SingleMachineFrost/Frost/batch",
            "grid/machine/partition",
        )
        .unwrap();
        for node in ["frost121", "frost122"] {
            repo.add(
                &reg,
                &format!("/SingleMachineFrost/Frost/batch/{node}"),
                "grid/machine/partition/node",
            )
            .unwrap();
            for p in 0..4 {
                repo.add(
                    &reg,
                    &format!("/SingleMachineFrost/Frost/batch/{node}/p{p}"),
                    "grid/machine/partition/node/processor",
                )
                .unwrap();
            }
        }
        (reg, repo)
    }

    #[test]
    fn resource_name_structure() {
        let n = ResourceName::new("/SingleMachineFrost/Frost/batch/frost121/p0").unwrap();
        assert_eq!(n.base_name(), "p0");
        assert_eq!(n.depth(), 5);
        assert_eq!(
            n.parent().unwrap().as_str(),
            "/SingleMachineFrost/Frost/batch/frost121"
        );
        assert_eq!(n.ancestors().len(), 4);
        let top = ResourceName::new("/Linpack").unwrap();
        assert_eq!(top.parent(), None);
        assert!(n.is_descendant_of(&ResourceName::new("/SingleMachineFrost/Frost").unwrap()));
        assert!(!top.is_descendant_of(&n));
    }

    #[test]
    fn malformed_names_rejected() {
        for bad in ["", "noslash", "/", "/a/", "/a//b"] {
            assert!(ResourceName::new(bad).is_err(), "{bad:?}");
        }
        let n = ResourceName::new("/a").unwrap();
        assert!(n.child("has/slash").is_err());
        assert_eq!(n.child("ok").unwrap().as_str(), "/a/ok");
    }

    #[test]
    fn shorthand_matching() {
        let n = ResourceName::new("/SingleMachineFrost/Frost/batch").unwrap();
        assert!(n.matches_shorthand("batch"));
        assert!(n.matches_shorthand("Frost/batch"));
        assert!(n.matches_shorthand("/SingleMachineFrost/Frost/batch"));
        assert!(!n.matches_shorthand("atch"));
        assert!(!n.matches_shorthand("Frost"));
    }

    #[test]
    fn add_enforces_hierarchy() {
        let (reg, mut repo) = frost_repo();
        // Parent must exist.
        assert!(matches!(
            repo.add(&reg, "/Nowhere/x", "grid/machine"),
            Err(ModelError::UnknownResource(_))
        ));
        // Type must be child of parent's type.
        assert!(matches!(
            repo.add(
                &reg,
                "/SingleMachineFrost/Frost/p9",
                "grid/machine/partition/node/processor"
            ),
            Err(ModelError::TypeMismatch { .. })
        ));
        // Top-level resources need top-level types.
        assert!(matches!(
            repo.add(&reg, "/orphan", "grid/machine"),
            Err(ModelError::TypeMismatch { .. })
        ));
        // Duplicate names rejected; full names are unique (§2.1).
        assert!(matches!(
            repo.add(&reg, "/SingleMachineFrost", "grid"),
            Err(ModelError::DuplicateResource(_))
        ));
        // Unknown type rejected.
        assert!(matches!(
            repo.add(&reg, "/Linpack", "benchmark"),
            Err(ModelError::UnknownType(_))
        ));
    }

    #[test]
    fn hierarchy_queries() {
        let (_, repo) = frost_repo();
        assert_eq!(repo.len(), 1 + 1 + 1 + 2 + 8);
        let frost = ResourceName::new("/SingleMachineFrost/Frost").unwrap();
        assert_eq!(repo.descendants(&frost).len(), 1 + 2 + 8);
        assert_eq!(repo.children(&frost).len(), 1);
        let p0 = ResourceName::new("/SingleMachineFrost/Frost/batch/frost121/p0").unwrap();
        assert_eq!(repo.ancestors(&p0).len(), 4);
        // by type
        let reg = registry();
        let proc_ty = reg.get("grid/machine/partition/node/processor").unwrap();
        assert_eq!(repo.of_type(&proc_ty).len(), 8);
        // shorthand: "batch" matches the batch partition.
        assert_eq!(repo.by_shorthand("batch").len(), 1);
        assert_eq!(repo.by_shorthand("p0").len(), 2);
        assert_eq!(repo.by_shorthand("Frost/batch").len(), 1);
    }

    #[test]
    fn attributes_and_constraints() {
        let (reg, mut repo) = frost_repo();
        let p0 = ResourceName::new("/SingleMachineFrost/Frost/batch/frost121/p0").unwrap();
        repo.set_attr(&p0, "vendor", AttrValue::Str("IBM".into()))
            .unwrap();
        repo.set_attr(&p0, "clock MHz", AttrValue::Str("375".into()))
            .unwrap();
        let r = repo.get(&p0).unwrap();
        assert_eq!(r.attr("vendor").unwrap().as_display(), "IBM");
        assert_eq!(r.attr("missing"), None);

        // Resource-valued attribute (constraint): process runs on node.
        repo.add(&reg, "/exec1", "execution").unwrap();
        repo.add(&reg, "/exec1/process8", "execution/process")
            .unwrap();
        let proc8 = ResourceName::new("/exec1/process8").unwrap();
        let node = ResourceName::new("/SingleMachineFrost/Frost/batch/frost121").unwrap();
        repo.set_attr(&proc8, "node", AttrValue::Resource(node.clone()))
            .unwrap();
        assert_eq!(
            repo.get(&proc8).unwrap().attr("node"),
            Some(&AttrValue::Resource(node))
        );
        // Constraint target must exist.
        assert!(repo
            .set_attr(
                &proc8,
                "bad",
                AttrValue::Resource(ResourceName::new("/ghost").unwrap())
            )
            .is_err());
        // Attribute on missing resource errors.
        assert!(repo
            .set_attr(
                &ResourceName::new("/ghost").unwrap(),
                "x",
                AttrValue::Str("y".into())
            )
            .is_err());
    }

    #[test]
    fn add_or_get_idempotent() {
        let (reg, mut repo) = frost_repo();
        let n = repo
            .add_or_get(&reg, "/SingleMachineFrost/Frost", "grid/machine")
            .unwrap();
        assert_eq!(n.as_str(), "/SingleMachineFrost/Frost");
        // Same name with a different type is a mismatch.
        assert!(repo
            .add_or_get(&reg, "/SingleMachineFrost/Frost", "grid")
            .is_err());
    }
}
