//! # perftrack
//!
//! PerfTrack: a performance experiment management tool (Karavanic et al.,
//! SC|05), reimplemented in Rust on an embedded relational engine. This
//! crate is the paper's primary contribution: the DBMS-backed data store
//! ([`datastore::PTDataStore`]), the Figure 1 schema ([`schema`]), the
//! pr-filter query engine ([`query`]), the GUI session model
//! ([`session`]), and cross-execution comparison operators ([`compare`]).

pub mod chart;
pub mod compare;
pub mod datastore;
pub mod error;
pub mod fsck;
pub mod planner;
pub mod predict;
pub mod query;
pub mod reports;
pub mod schema;
pub mod session;

pub use chart::{BarChart, Series};
pub use compare::{
    Aggregate, AlignedNode, Compare, CompareOptions, DivergentResource, LoadBalanceRow,
    Normalization, PresenceDrift, TreeComparison,
};
pub use datastore::{
    BulkLoadOptions, LoadReport, LoadStats, Loader, ManifestEntry, PTDataStore, ResourceRecord,
};
pub use error::{PtError, Result};
pub use perftrack_store::check::{Finding, FsckReport, Severity};
pub use perftrack_store::metrics::{Json, MetricsSnapshot, OperatorProfile, QueryProfile};
pub use perftrack_store::planner::{ExplainNode, ExplainPlan};
pub use planner::{explain_filters, plan_filters, ContextAccess, FilterPlan, PrFilterPlan};
pub use predict::{Observation, PredictionCheck, Predictor, ScalingModel};
pub use query::{FreeResourceColumn, QueryEngine, ResultRow};
pub use reports::{ExecutionDetail, MetricSummary, Reports, ResourceDetail, StoreSummary};
pub use schema::Schema;
pub use session::{DetachedTable, ResultTable, SelectionDialog, BASE_COLUMNS};
