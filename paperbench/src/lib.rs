//! Whole-day paper benchmark for the o2o taxi-dispatch workspace.
//!
//! Each workload is a closed-loop, simulated-clock replay of one whole
//! paper day: the engine starts frame *k+1* only after frame *k*'s
//! dispatch returns. The benchmark drives the library only through public
//! items (`o2o_trace` generators, `PolicyKind::build_parallel`,
//! `Simulator::run`, `DispatchPolicy`) and times frames with its own
//! policy adapter. See `README.md` in this directory for the workloads,
//! every metric and the layer → metric → workload map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod checks;
pub mod metric;
pub mod replay;
pub mod run;
pub mod speed;
pub mod stats;
pub mod workload;
