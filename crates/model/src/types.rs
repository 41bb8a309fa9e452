//! Resource *types* and the extensible type registry.
//!
//! PerfTrack identifies a resource type by its hierarchical path, written
//! Unix style: `grid/machine/partition/node/processor`. Types that do not
//! fall into hierarchies are single-level paths (`application`).
//!
//! The registry starts from the paper's Figure 2 base set and is
//! extensible at runtime: users can append levels to existing hierarchies
//! (e.g. `time/interval/phase`) or add whole new top-level hierarchies —
//! exactly what the Paradyn integration (§4.3) does for `syncObject`.

use std::collections::BTreeMap;
use std::fmt;

/// A resource type path such as `grid/machine/partition`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypePath(String);

impl TypePath {
    /// Parse a type path; segments are non-empty and `/`-separated with no
    /// leading slash.
    pub fn new(path: &str) -> Result<Self, ModelError> {
        if path.is_empty()
            || path.starts_with('/')
            || path.ends_with('/')
            || path.split('/').any(str::is_empty)
        {
            return Err(ModelError::BadTypePath(path.to_string()));
        }
        Ok(TypePath(path.to_string()))
    }

    /// The full path string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The final segment — the type's short name (`processor`).
    pub fn short_name(&self) -> &str {
        self.0.rsplit('/').next().unwrap()
    }

    /// The parent type path, or `None` for top-level types.
    pub fn parent(&self) -> Option<TypePath> {
        self.0.rfind('/').map(|i| TypePath(self.0[..i].to_string()))
    }

    /// The top-level hierarchy this type belongs to (`grid` for
    /// `grid/machine/partition`).
    pub fn root(&self) -> TypePath {
        TypePath(self.0.split('/').next().unwrap().to_string())
    }

    /// Number of levels (1 = top-level).
    pub fn depth(&self) -> usize {
        self.0.split('/').count()
    }

    /// True if `self` is `other` or lies below it in the hierarchy.
    pub fn is_self_or_descendant_of(&self, other: &TypePath) -> bool {
        self.0 == other.0 || self.0.starts_with(&format!("{}/", other.0))
    }
}

impl fmt::Display for TypePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Errors from the model layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    BadTypePath(String),
    BadResourceName(String),
    UnknownType(String),
    UnknownResource(String),
    UnknownParentType(String),
    DuplicateType(String),
    DuplicateResource(String),
    TypeMismatch { resource: String, detail: String },
    BadComparator(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadTypePath(p) => write!(f, "malformed type path {p:?}"),
            ModelError::BadResourceName(n) => write!(f, "malformed resource name {n:?}"),
            ModelError::UnknownType(t) => write!(f, "unknown resource type {t:?}"),
            ModelError::UnknownResource(r) => write!(f, "unknown resource {r:?}"),
            ModelError::UnknownParentType(t) => {
                write!(f, "parent type of {t:?} is not registered")
            }
            ModelError::DuplicateType(t) => write!(f, "type {t:?} already registered"),
            ModelError::DuplicateResource(r) => write!(f, "resource {r:?} already exists"),
            ModelError::TypeMismatch { resource, detail } => {
                write!(f, "type mismatch for {resource:?}: {detail}")
            }
            ModelError::BadComparator(c) => write!(f, "bad comparator {c:?}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The extensible resource type system.
#[derive(Debug, Clone)]
pub struct TypeRegistry {
    /// All registered type paths mapped to nothing (BTreeMap for
    /// deterministic iteration and cheap prefix queries).
    types: BTreeMap<TypePath, ()>,
}

/// The paper's Figure 2 base hierarchies.
pub const BASE_HIERARCHIES: &[&str] = &[
    "build",
    "build/module",
    "build/module/function",
    "build/module/function/codeBlock",
    "grid",
    "grid/machine",
    "grid/machine/partition",
    "grid/machine/partition/node",
    "grid/machine/partition/node/processor",
    "environment",
    "environment/module",
    "environment/module/function",
    "environment/module/function/codeBlock",
    "execution",
    "execution/process",
    "execution/process/thread",
    "time",
    "time/interval",
];

/// The paper's Figure 2 non-hierarchical base types.
pub const BASE_SINGLETON_TYPES: &[&str] = &[
    "application",
    "compiler",
    "preprocessor",
    "inputDeck",
    "submission",
    "operatingSystem",
    "metric",
    "performanceTool",
];

impl TypeRegistry {
    /// An empty registry (PerfTrack itself always starts from
    /// [`TypeRegistry::with_base_types`]; the empty form exists because the
    /// base set is loaded *through the same extension interface*, as the
    /// paper notes).
    pub fn empty() -> Self {
        TypeRegistry {
            types: BTreeMap::new(),
        }
    }

    /// Registry preloaded with the Figure 2 base types.
    pub fn with_base_types() -> Self {
        let mut reg = TypeRegistry::empty();
        for path in BASE_HIERARCHIES.iter().chain(BASE_SINGLETON_TYPES) {
            reg.add(path).expect("base types are well-formed");
        }
        reg
    }

    /// Register a new type. Its parent (all but the last segment) must
    /// already exist; top-level types need no parent.
    pub fn add(&mut self, path: &str) -> Result<TypePath, ModelError> {
        let tp = TypePath::new(path)?;
        if self.types.contains_key(&tp) {
            return Err(ModelError::DuplicateType(path.to_string()));
        }
        if let Some(parent) = tp.parent() {
            if !self.types.contains_key(&parent) {
                return Err(ModelError::UnknownParentType(path.to_string()));
            }
        }
        self.types.insert(tp.clone(), ());
        Ok(tp)
    }

    /// Register a type, returning the existing path when already present.
    pub fn add_or_get(&mut self, path: &str) -> Result<TypePath, ModelError> {
        match self.add(path) {
            Err(ModelError::DuplicateType(_)) => TypePath::new(path),
            other => other,
        }
    }

    /// Is this type path registered?
    pub fn contains(&self, path: &str) -> bool {
        TypePath::new(path).is_ok_and(|tp| self.types.contains_key(&tp))
    }

    /// Resolve a registered type path.
    pub fn get(&self, path: &str) -> Result<TypePath, ModelError> {
        let tp = TypePath::new(path)?;
        if self.types.contains_key(&tp) {
            Ok(tp)
        } else {
            Err(ModelError::UnknownType(path.to_string()))
        }
    }

    /// Resolve a type by its *short* name (`processor`). Errors if the
    /// short name is ambiguous across hierarchies (like `module`, which
    /// exists under both `build` and `environment`).
    pub fn resolve_short(&self, short: &str) -> Result<TypePath, ModelError> {
        let mut hits = self.types.keys().filter(|tp| tp.short_name() == short);
        match (hits.next(), hits.next()) {
            (Some(tp), None) => Ok(tp.clone()),
            (Some(_), Some(_)) => Err(ModelError::UnknownType(format!(
                "short type name {short:?} is ambiguous; use a full path"
            ))),
            _ => Err(ModelError::UnknownType(short.to_string())),
        }
    }

    /// Direct child types of `path`.
    pub fn children_of(&self, path: &TypePath) -> Vec<TypePath> {
        let prefix = format!("{}/", path.as_str());
        self.types
            .keys()
            .filter(|tp| {
                tp.as_str().starts_with(&prefix) && !tp.as_str()[prefix.len()..].contains('/')
            })
            .cloned()
            .collect()
    }

    /// All top-level types (hierarchy roots and singleton types).
    pub fn top_level(&self) -> Vec<TypePath> {
        self.types
            .keys()
            .filter(|tp| tp.depth() == 1)
            .cloned()
            .collect()
    }

    /// Every registered type, in path order.
    pub fn all(&self) -> impl Iterator<Item = &TypePath> {
        self.types.keys()
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

impl Default for TypeRegistry {
    fn default() -> Self {
        TypeRegistry::with_base_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_path_parsing_and_parts() {
        let tp = TypePath::new("grid/machine/partition").unwrap();
        assert_eq!(tp.short_name(), "partition");
        assert_eq!(tp.parent().unwrap().as_str(), "grid/machine");
        assert_eq!(tp.root().as_str(), "grid");
        assert_eq!(tp.depth(), 3);
        assert!(tp.is_self_or_descendant_of(&TypePath::new("grid").unwrap()));
        assert!(!tp.is_self_or_descendant_of(&TypePath::new("gri").unwrap()));
        let top = TypePath::new("application").unwrap();
        assert_eq!(top.parent(), None);
        assert_eq!(top.root(), top);
    }

    #[test]
    fn malformed_type_paths_rejected() {
        for bad in ["", "/grid", "grid/", "a//b"] {
            assert!(TypePath::new(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn base_types_load() {
        let reg = TypeRegistry::with_base_types();
        assert_eq!(
            reg.len(),
            BASE_HIERARCHIES.len() + BASE_SINGLETON_TYPES.len()
        );
        assert!(reg.contains("grid/machine/partition/node/processor"));
        assert!(reg.contains("metric"));
        assert!(!reg.contains("syncObject"));
        // Five hierarchies + eight singleton top-level types.
        assert_eq!(reg.top_level().len(), 5 + 8);
    }

    #[test]
    fn extension_requires_parent() {
        let mut reg = TypeRegistry::with_base_types();
        // Paper's example: extend Time with a phase level below interval.
        reg.add("time/interval/phase").unwrap();
        assert!(reg.contains("time/interval/phase"));
        // Unknown parent rejected.
        assert_eq!(
            reg.add("nonexistent/child"),
            Err(ModelError::UnknownParentType("nonexistent/child".into()))
        );
        // Whole new top-level hierarchy (Paradyn's syncObject).
        reg.add("syncObject").unwrap();
        reg.add("syncObject/communicator").unwrap();
        assert!(reg.contains("syncObject/communicator"));
        // Duplicates rejected, add_or_get tolerates them.
        assert!(matches!(
            reg.add("syncObject"),
            Err(ModelError::DuplicateType(_))
        ));
        assert_eq!(reg.add_or_get("syncObject").unwrap().as_str(), "syncObject");
    }

    #[test]
    fn short_name_resolution() {
        let reg = TypeRegistry::with_base_types();
        assert_eq!(
            reg.resolve_short("processor").unwrap().as_str(),
            "grid/machine/partition/node/processor"
        );
        // `module` exists in both build and environment hierarchies.
        assert!(reg.resolve_short("module").is_err());
        assert!(reg.resolve_short("nosuch").is_err());
    }

    #[test]
    fn children_listing() {
        let reg = TypeRegistry::with_base_types();
        let grid = reg.get("grid").unwrap();
        let kids = reg.children_of(&grid);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].as_str(), "grid/machine");
        let leaf = reg.get("time/interval").unwrap();
        assert!(reg.children_of(&leaf).is_empty());
    }
}
