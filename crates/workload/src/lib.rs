//! Workload generators driving the benchmark harness.
//!
//! The paper evaluates ForkBase with (§6): YCSB-style key-value workloads
//! generated by Blockbench for the blockchain experiments, wiki page edit
//! streams with a configurable in-place-update ratio, zipf-skewed page
//! popularity, and a 5M-record CSV dataset for collaborative analytics.
//! Everything here is seeded and deterministic, so any benchmark run is
//! reproducible bit-for-bit.

pub mod dataset;
pub mod driver;
pub mod text;
pub mod ycsb;
pub mod zipf;

pub use dataset::{DatasetGen, Record};
pub use driver::{
    per_worker_slices, run_closed_loop, run_closed_loop_for, run_closed_loop_with, DriverReport,
};
pub use text::{EditKind, PageEditGen};
pub use ycsb::{Op, YcsbConfig, YcsbGen};
pub use zipf::Zipf;
