//! The store side of every request: [`execute`] answers one [`Request`]
//! from a [`PTDataStore`] with no socket or admission, through one
//! function per request kind; the store's own read/write gate orders it
//! against loads. The server wraps it with admission and metrics; `pt`
//! calls the same functions in-process on a local store, so a command
//! prints the same answer with or without `--connect`.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::metrics::ServerMetrics;
use crate::proto::{QuerySpec, Request, Response, WireFreeColumn, WireLoadStats, WIRE_VERSION};
use perftrack::{Compare, CompareOptions, PTDataStore, PtError, ResultTable, SelectionDialog};
use perftrack_model::{Relatives, ResourceFilter, Selector, TypePath};
use perftrack_store::metrics::{Json, QueryProfile};

/// Answer `req` from `store`.
pub fn execute(store: &PTDataStore, req: &Request) -> Result<Response, PtError> {
    match req {
        Request::Ping => Ok(Response::Pong {
            version: WIRE_VERSION,
            degraded: store.is_degraded(),
        }),
        Request::LoadPtdf { text, token } => load(store, text, token),
        Request::Query(spec) => Ok(query(store, spec)?.0),
        Request::FreeResources(spec) => free_resources(store, spec),
        Request::Export => export(store),
        Request::Stats => Ok(stats(store, None)),
        Request::Fsck { deep } => fsck(store, *deep),
        Request::Compare {
            executions,
            top,
            threshold_pct,
        } => {
            let opts = CompareOptions {
                top: *top as usize,
                threshold_pct: f64::from(*threshold_pct),
                ..CompareOptions::default()
            };
            compare(store, executions, &opts)
        }
        Request::Shutdown => Ok(Response::ShuttingDown),
    }
}

impl QuerySpec {
    /// The pr-filter the spec names: one filter per name term, then one
    /// per type term. Relatives codes and type paths are validated here
    /// and nowhere else.
    pub fn filters(&self) -> Result<Vec<ResourceFilter>, PtError> {
        let mut filters = Vec::with_capacity(self.names.len() + self.types.len());
        for nf in &self.names {
            let rel = Relatives::from_code(nf.relatives).ok_or_else(|| {
                PtError::Invalid(format!("bad relatives code {:?}", nf.relatives))
            })?;
            filters.push(ResourceFilter::by_name(&nf.pattern).relatives(rel));
        }
        for t in &self.types {
            filters.push(ResourceFilter::by_type(TypePath::new(t)?));
        }
        Ok(filters)
    }
}

/// Apply a tokened PTdf load (an empty token applies without dedup).
pub fn load(store: &PTDataStore, text: &str, token: &str) -> Result<Response, PtError> {
    let (s, replayed) = store.load_ptdf_str_dedup(text, token)?;
    Ok(Response::Loaded {
        stats: WireLoadStats {
            statements: s.statements as u64,
            applications: s.applications as u64,
            resource_types: s.resource_types as u64,
            executions: s.executions as u64,
            resources: s.resources as u64,
            attributes: s.attributes as u64,
            constraints: s.constraints as u64,
            results: s.results as u64,
        },
        replayed,
    })
}

/// Run the spec's pr-filter and append its resource columns; the profile
/// is the executed pipeline's, at no extra cost.
pub fn retrieve<'s>(
    store: &'s PTDataStore,
    spec: &QuerySpec,
) -> Result<(ResultTable<'s>, QueryProfile), PtError> {
    let mut dialog = SelectionDialog::new(store);
    for f in spec.filters()? {
        match &f.selector {
            Selector::ByName(n) => dialog.add_name(n, f.relatives),
            Selector::ByType(t) => dialog.add_type(t),
            // A spec names no attribute predicates.
            Selector::ByAttrs(_) => {}
        }
    }
    let (mut table, profile) = dialog.retrieve_profiled()?;
    for col in &spec.add_columns {
        table.add_resource_column(col);
    }
    Ok((table, profile))
}

/// [`retrieve`], rendered as a [`Response::Table`].
pub fn query(store: &PTDataStore, spec: &QuerySpec) -> Result<(Response, QueryProfile), PtError> {
    let (table, profile) = retrieve(store, spec)?;
    let resp = Response::Table {
        columns: table.columns(),
        rows: table.render()?,
    };
    Ok((resp, profile))
}

/// The resource columns that could be added to the spec's result table.
pub fn free_resources(store: &PTDataStore, spec: &QuerySpec) -> Result<Response, PtError> {
    let cols = retrieve(store, spec)?
        .0
        .addable_columns()?
        .into_iter()
        .map(|c| WireFreeColumn {
            type_path: c.type_path,
            distinct_values: c.distinct_values as u64,
            attributes: c.attributes,
        })
        .collect();
    Ok(Response::FreeResources(cols))
}

/// The whole store as PTdf text.
pub fn export(store: &PTDataStore) -> Result<Response, PtError> {
    Ok(Response::Ptdf {
        text: perftrack_ptdf::to_string(&store.export_ptdf()?),
    })
}

/// Engine metrics; a server passes its own, which follow under `server`.
pub fn stats(store: &PTDataStore, server: Option<&ServerMetrics>) -> Response {
    let engine = store.db().metrics();
    let (mut json, mut table) = (engine.to_json(), engine.render_table());
    // The engine document is an object of sections; the server's is one more.
    if let (Some(m), Json::Obj(sections)) = (server, &mut json) {
        sections.push(("server".into(), m.to_json()));
        table.push_str(&m.render_table());
    }
    Response::Stats {
        json: json.emit(),
        table,
    }
}

/// Run the integrity checker.
pub fn fsck(store: &PTDataStore, deep: bool) -> Result<Response, PtError> {
    let report = store.fsck(deep)?;
    Ok(Response::FsckDone {
        errors: report.error_count(),
        warnings: report.warning_count(),
        json: report.to_json().emit(),
        table: report.render_table(),
    })
}

/// Align the executions' resource trees and render the comparison.
pub fn compare(
    store: &PTDataStore,
    executions: &[String],
    opts: &CompareOptions,
) -> Result<Response, PtError> {
    let execs: Vec<&str> = executions.iter().map(String::as_str).collect();
    let report = Compare::new(store).tree_compare(&execs, opts)?;
    Ok(Response::CompareDone {
        json: report.to_json().emit(),
        table: report.render_table(),
    })
}
