//! PTdf statements (the Figure 6 grammar) and their parsing/printing.

use crate::lexer::{quote, tokenize};
use crate::PtdfError;
use std::fmt;

/// Attribute value type. The paper's prototype defines `string` and
/// `resource`; the field is "partly a placeholder" for richer types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// Free-form string value.
    String,
    /// Value names another resource (a cross-reference).
    Resource,
}

impl AttrType {
    /// Canonical lowercase keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AttrType::String => "string",
            AttrType::Resource => "resource",
        }
    }

    /// Parse the keyword (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "string" => Some(AttrType::String),
            "resource" => Some(AttrType::Resource),
            _ => None,
        }
    }
}

/// One resource set of a PerfResult: names plus a set-type (role) name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtdfResourceSet {
    /// Full resource names participating in the set.
    pub resources: Vec<String>,
    /// Set type name in parentheses (`primary`, `parent`, ...).
    pub set_type: String,
}

/// A parsed PTdf statement.
#[derive(Debug, Clone, PartialEq)]
pub enum PtdfStatement {
    /// `Application appName`
    Application {
        /// Application name.
        name: String,
    },
    /// `ResourceType resourceTypeName`
    ResourceType {
        /// Slash-separated resource-type path.
        type_path: String,
    },
    /// `Execution execName appName`
    Execution {
        /// Execution name.
        name: String,
        /// Owning application name.
        application: String,
    },
    /// `Resource resourceName resourceTypeName [execName]`
    Resource {
        /// Full slash-separated resource name.
        name: String,
        /// Resource-type path the resource instantiates.
        type_path: String,
        /// Execution the resource is scoped to, if any.
        execution: Option<String>,
    },
    /// `ResourceAttribute resourceName attributeName attributeValue attributeType`
    ResourceAttribute {
        /// Resource the attribute describes.
        resource: String,
        /// Attribute name.
        attribute: String,
        /// Attribute value, encoded per `attr_type`.
        value: String,
        /// Declared type of `value`.
        attr_type: AttrType,
    },
    /// `PerfResult execName resourceSet perfToolName metricName value units`
    PerfResult {
        /// Execution the measurement belongs to.
        execution: String,
        /// Resource sets the measurement is attributed to.
        resource_sets: Vec<PtdfResourceSet>,
        /// Tool that produced the measurement.
        tool: String,
        /// Metric name (e.g. "wall time").
        metric: String,
        /// Measured value.
        value: f64,
        /// Units of `value`.
        units: String,
    },
    /// `ResourceConstraint resourceName1 resourceName2` — equivalent to a
    /// resource-typed attribute.
    ResourceConstraint {
        /// Resource carrying the constraint.
        first: String,
        /// Resource it is constrained to.
        second: String,
    },
}

impl PtdfStatement {
    /// Parse one line; `Ok(None)` for blank/comment lines.
    pub fn parse_line(line: &str, line_no: usize) -> Result<Option<PtdfStatement>, PtdfError> {
        let mut tokens = tokenize(line, line_no)?;
        let Some((keyword, fields)) = tokens.split_first_mut() else {
            return Ok(None);
        };
        let n = fields.len();
        let err = |msg: String| PtdfError::new(line_no, msg);
        let expect = |want: usize| -> Result<(), PtdfError> {
            if n == want {
                Ok(())
            } else {
                Err(err(format!("{keyword} expects {want} fields, got {n}")))
            }
        };
        // Each field is moved out of the token vector once.
        let take = |fields: &mut [String], i: usize| std::mem::take(&mut fields[i]);
        let stmt = match keyword.as_str() {
            "Application" => {
                expect(1)?;
                PtdfStatement::Application {
                    name: take(fields, 0),
                }
            }
            "ResourceType" => {
                expect(1)?;
                PtdfStatement::ResourceType {
                    type_path: take(fields, 0),
                }
            }
            "Execution" => {
                expect(2)?;
                PtdfStatement::Execution {
                    name: take(fields, 0),
                    application: take(fields, 1),
                }
            }
            "Resource" => {
                if n != 2 && n != 3 {
                    return Err(err(format!("Resource expects 2 or 3 fields, got {n}")));
                }
                PtdfStatement::Resource {
                    name: take(fields, 0),
                    type_path: take(fields, 1),
                    execution: (n == 3).then(|| take(fields, 2)),
                }
            }
            "ResourceAttribute" => {
                expect(4)?;
                let attr_type = AttrType::parse(&fields[3])
                    .ok_or_else(|| err(format!("bad attribute type {:?}", fields[3])))?;
                PtdfStatement::ResourceAttribute {
                    resource: take(fields, 0),
                    attribute: take(fields, 1),
                    value: take(fields, 2),
                    attr_type,
                }
            }
            "PerfResult" => {
                expect(6)?;
                let resource_sets = parse_resource_sets(&fields[1], line_no)?;
                let value: f64 = fields[4]
                    .parse()
                    .map_err(|_| err(format!("bad numeric value {:?}", fields[4])))?;
                PtdfStatement::PerfResult {
                    execution: take(fields, 0),
                    resource_sets,
                    tool: take(fields, 2),
                    metric: take(fields, 3),
                    value,
                    units: take(fields, 5),
                }
            }
            "ResourceConstraint" => {
                expect(2)?;
                PtdfStatement::ResourceConstraint {
                    first: take(fields, 0),
                    second: take(fields, 1),
                }
            }
            other => return Err(err(format!("unknown statement {other:?}"))),
        };
        Ok(Some(stmt))
    }
}

/// Parse the resource-set field: colon-separated lists, each a
/// comma-separated resource-name list followed by a set type name in
/// parentheses. Example: `/irs,/M/m/b/n/p0(primary):/irs/build/f(parent)`.
/// A bare list with no parentheses is treated as `(primary)`.
pub fn parse_resource_sets(field: &str, line_no: usize) -> Result<Vec<PtdfResourceSet>, PtdfError> {
    let mut sets = Vec::new();
    for part in field.split(':') {
        let part = part.trim();
        if part.is_empty() {
            return Err(PtdfError::new(line_no, "empty resource set".to_string()));
        }
        let (names_part, set_type) = match part.rfind('(') {
            Some(open) => {
                let close = part.rfind(')').filter(|&c| c > open).ok_or_else(|| {
                    PtdfError::new(line_no, format!("unclosed set type in {part:?}"))
                })?;
                if close != part.len() - 1 {
                    return Err(PtdfError::new(
                        line_no,
                        format!("trailing characters after set type in {part:?}"),
                    ));
                }
                (&part[..open], part[open + 1..close].to_string())
            }
            None => (part, "primary".to_string()),
        };
        let resources: Vec<String> = names_part
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if resources.is_empty() {
            return Err(PtdfError::new(
                line_no,
                format!("resource set {part:?} names no resources"),
            ));
        }
        sets.push(PtdfResourceSet {
            resources,
            set_type,
        });
    }
    Ok(sets)
}

/// Render the resource-set field (inverse of [`parse_resource_sets`]).
pub fn format_resource_sets(sets: &[PtdfResourceSet]) -> String {
    sets.iter()
        .map(|s| format!("{}({})", s.resources.join(","), s.set_type))
        .collect::<Vec<_>>()
        .join(":")
}

impl fmt::Display for PtdfStatement {
    /// Canonical single-line PTdf rendering (parseable back).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtdfStatement::Application { name } => {
                write!(f, "Application {}", quote(name))
            }
            PtdfStatement::ResourceType { type_path } => {
                write!(f, "ResourceType {}", quote(type_path))
            }
            PtdfStatement::Execution { name, application } => {
                write!(f, "Execution {} {}", quote(name), quote(application))
            }
            PtdfStatement::Resource {
                name,
                type_path,
                execution,
            } => {
                write!(f, "Resource {} {}", quote(name), quote(type_path))?;
                if let Some(e) = execution {
                    write!(f, " {}", quote(e))?;
                }
                Ok(())
            }
            PtdfStatement::ResourceAttribute {
                resource,
                attribute,
                value,
                attr_type,
            } => write!(
                f,
                "ResourceAttribute {} {} {} {}",
                quote(resource),
                quote(attribute),
                quote(value),
                attr_type.keyword()
            ),
            PtdfStatement::PerfResult {
                execution,
                resource_sets,
                tool,
                metric,
                value,
                units,
            } => write!(
                f,
                "PerfResult {} {} {} {} {} {}",
                quote(execution),
                quote(&format_resource_sets(resource_sets)),
                quote(tool),
                quote(metric),
                value,
                quote(units)
            ),
            PtdfStatement::ResourceConstraint { first, second } => {
                write!(f, "ResourceConstraint {} {}", quote(first), quote(second))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse1(line: &str) -> PtdfStatement {
        PtdfStatement::parse_line(line, 1).unwrap().unwrap()
    }

    #[test]
    fn parse_each_statement_kind() {
        assert_eq!(
            parse1("Application IRS"),
            PtdfStatement::Application { name: "IRS".into() }
        );
        assert_eq!(
            parse1("ResourceType grid/machine/partition"),
            PtdfStatement::ResourceType {
                type_path: "grid/machine/partition".into()
            }
        );
        assert_eq!(
            parse1("Execution irs-mcr-064 IRS"),
            PtdfStatement::Execution {
                name: "irs-mcr-064".into(),
                application: "IRS".into()
            }
        );
        assert_eq!(
            parse1("Resource /MCRGrid/MCR grid/machine"),
            PtdfStatement::Resource {
                name: "/MCRGrid/MCR".into(),
                type_path: "grid/machine".into(),
                execution: None
            }
        );
        assert_eq!(
            parse1("Resource /irs-run execution irs-mcr-064"),
            PtdfStatement::Resource {
                name: "/irs-run".into(),
                type_path: "execution".into(),
                execution: Some("irs-mcr-064".into())
            }
        );
        assert_eq!(
            parse1(r#"ResourceAttribute /MCRGrid/MCR "clock MHz" 2400 string"#),
            PtdfStatement::ResourceAttribute {
                resource: "/MCRGrid/MCR".into(),
                attribute: "clock MHz".into(),
                value: "2400".into(),
                attr_type: AttrType::String
            }
        );
        assert_eq!(
            parse1("ResourceConstraint /exec/p8 /MCRGrid/MCR/batch/n16"),
            PtdfStatement::ResourceConstraint {
                first: "/exec/p8".into(),
                second: "/MCRGrid/MCR/batch/n16".into()
            }
        );
    }

    #[test]
    fn parse_perf_result_multi_set() {
        let s = parse1(
            r#"PerfResult irs-1 "/irs/env/MPI_Send(primary):/irs/build/solve(parent)" mpiP "MPI time" 3.5 seconds"#,
        );
        match s {
            PtdfStatement::PerfResult {
                execution,
                resource_sets,
                tool,
                metric,
                value,
                units,
            } => {
                assert_eq!(execution, "irs-1");
                assert_eq!(resource_sets.len(), 2);
                assert_eq!(resource_sets[0].set_type, "primary");
                assert_eq!(resource_sets[1].set_type, "parent");
                assert_eq!(resource_sets[1].resources, vec!["/irs/build/solve"]);
                assert_eq!(tool, "mpiP");
                assert_eq!(metric, "MPI time");
                assert_eq!(value, 3.5);
                assert_eq!(units, "seconds");
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn bare_resource_set_defaults_to_primary() {
        let sets = parse_resource_sets("/a,/b", 1).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].set_type, "primary");
        assert_eq!(sets[0].resources, vec!["/a", "/b"]);
    }

    #[test]
    fn resource_set_errors() {
        assert!(parse_resource_sets("", 1).is_err());
        assert!(parse_resource_sets("(primary)", 1).is_err());
        assert!(parse_resource_sets("/a(primary):", 1).is_err());
        assert!(parse_resource_sets("/a(unclosed", 1).is_err());
        assert!(parse_resource_sets("/a(primary)x", 1).is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = PtdfStatement::parse_line("Bogus x", 42).unwrap_err();
        assert!(e.to_string().contains("line 42"));
        assert!(PtdfStatement::parse_line("Application", 1).is_err());
        assert!(PtdfStatement::parse_line("Execution only-one", 1).is_err());
        assert!(
            PtdfStatement::parse_line("PerfResult e /r(primary) tool metric NaNish units", 1)
                .is_err()
        );
        assert!(PtdfStatement::parse_line("ResourceAttribute /r a v badtype", 1).is_err());
    }

    #[test]
    fn blank_and_comment_lines_skipped() {
        assert_eq!(PtdfStatement::parse_line("", 1).unwrap(), None);
        assert_eq!(PtdfStatement::parse_line("# note", 1).unwrap(), None);
    }

    #[test]
    fn display_parse_roundtrip() {
        let samples = vec![
            PtdfStatement::Application {
                name: "SMG 2000".into(),
            },
            PtdfStatement::ResourceType {
                type_path: "time/interval".into(),
            },
            PtdfStatement::Execution {
                name: "smg-uv-0007".into(),
                application: "SMG 2000".into(),
            },
            PtdfStatement::Resource {
                name: "/UVGrid/UV/batch/uv12/p3".into(),
                type_path: "grid/machine/partition/node/processor".into(),
                execution: None,
            },
            PtdfStatement::Resource {
                name: "/smg-run".into(),
                type_path: "execution".into(),
                execution: Some("smg-uv-0007".into()),
            },
            PtdfStatement::ResourceAttribute {
                resource: "/UVGrid/UV".into(),
                attribute: "operating system".into(),
                value: "AIX 5.2".into(),
                attr_type: AttrType::String,
            },
            PtdfStatement::ResourceAttribute {
                resource: "/smg-run/process8".into(),
                attribute: "node".into(),
                value: "/UVGrid/UV/batch/uv12".into(),
                attr_type: AttrType::Resource,
            },
            PtdfStatement::PerfResult {
                execution: "smg-uv-0007".into(),
                resource_sets: vec![
                    PtdfResourceSet {
                        resources: vec!["/env/MPI_Wait".into(), "/smg-run/process3".into()],
                        set_type: "primary".into(),
                    },
                    PtdfResourceSet {
                        resources: vec!["/build/smg.c/main".into()],
                        set_type: "parent".into(),
                    },
                ],
                tool: "mpiP".into(),
                metric: "Aggregate MPI time".into(),
                value: 123.456,
                units: "seconds".into(),
            },
            PtdfStatement::ResourceConstraint {
                first: "/smg-run/process8".into(),
                second: "/UVGrid/UV/batch/uv16".into(),
            },
        ];
        for stmt in samples {
            let line = stmt.to_string();
            let reparsed = PtdfStatement::parse_line(&line, 1)
                .unwrap_or_else(|e| panic!("reparse failed for {line:?}: {e}"))
                .unwrap();
            assert_eq!(stmt, reparsed, "roundtrip through {line:?}");
        }
    }
}
