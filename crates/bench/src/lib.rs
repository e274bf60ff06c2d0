//! # cfd-bench — the experiment harness
//!
//! Regenerates every table and figure of the CFD paper's evaluation on the
//! `cfd-core` simulator and the `cfd-workloads` kernels. See DESIGN.md §4
//! for the experiment-to-module index and EXPERIMENTS.md for recorded
//! paper-vs-measured results.
//!
//! Run experiments with:
//!
//! ```text
//! cargo run --release -p cfd-bench --bin experiments -- list
//! cargo run --release -p cfd-bench --bin experiments -- fig18
//! cargo run --release -p cfd-bench --bin experiments -- all
//! ```
//!
//! Per-layer timings of the simulator's own structures come from the
//! standalone benchmark in `perfbench/`.

pub mod ckpt;
pub mod experiments;
pub mod lint;
pub mod observe;
pub mod runner;
pub mod separability;
pub mod simperf;

pub use experiments::{all, by_id, Experiment};
