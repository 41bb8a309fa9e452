//! # perftrack-suite
//!
//! Facade crate tying the PerfTrack reproduction together. Downstream
//! users can depend on this single crate and reach every subsystem:
//!
//! * [`store`] — the embedded relational engine (pages, buffer pool, WAL,
//!   B+tree indexes, transactions, scans, index probes, statistics);
//! * [`model`] — resources, type hierarchies, contexts, pr-filters;
//! * [`ptdf`] — the PerfTrack data format;
//! * [`core`] — the `PTDataStore`, the pr-filter query engine and its
//!   planner, GUI session model, comparison operators;
//! * [`collect`] — machine models and build/run capture;
//! * [`adapters`] — tool-output converters (IRS, SMG, mpiP, PMAPI,
//!   Paradyn, PTdfGen);
//! * [`workloads`] — deterministic synthetic datasets shaped like the
//!   paper's studies.
//!
//! The `examples/` directory walks through the paper's three case studies
//! end to end; `crates/bench` regenerates Table 1 and Figure 5.

pub use perftrack as core;
pub use perftrack_adapters as adapters;
pub use perftrack_collect as collect;
pub use perftrack_model as model;
pub use perftrack_ptdf as ptdf;
pub use perftrack_store as store;
pub use perftrack_workloads as workloads;

/// The most commonly used items across the suite.
pub mod prelude {
    pub use perftrack::{
        BarChart, Compare, LoadStats, PTDataStore, QueryEngine, ResultTable, SelectionDialog,
        Series,
    };
    pub use perftrack_adapters::ExecContext;
    pub use perftrack_collect::MachineModel;
    pub use perftrack_model::prelude::*;
    pub use perftrack_ptdf::PtdfStatement;
}
