//! # perftrack-workloads
//!
//! Deterministic synthetic workload generators standing in for the LLNL
//! datasets the paper loaded into PerfTrack: IRS benchmark output files
//! (§4.1), SMG2000 stdout with PMAPI hardware-counter data and mpiP
//! profiles (§4.2, Figures 7–8), and Paradyn exports — resources, index,
//! and histogram files with `nan` bins (§4.3).
//!
//! Each generator is a pure function of its config (seeded RNG), so
//! adapters' golden tests, the Table 1 harness, and the benches all see
//! identical bytes across runs. The [`presets`] module sizes the datasets
//! to the paper's Table 1 (files per execution, bytes, result counts).

pub mod common;
pub mod irs;
pub mod mpip;
pub mod paradyn;
pub mod presets;
pub mod rng;
pub mod smg;

pub use common::{total_bytes, write_files, GenFile};
pub use presets::{
    irs_purple, irs_scaling_sweep, paradyn_irs, smg_bgl, smg_uv, ExecutionBundle, ParadynBundle,
};
pub use rng::Rng;
