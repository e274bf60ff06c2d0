//! # cfd-obs — the observability layer
//!
//! The paper's claims are all *cycle-attribution* claims: misprediction
//! penalty removed at fetch, BQ/TQ stalls traded against squashes. This
//! crate supplies the measurement substrate that makes those arguments
//! legible on a live simulation instead of only in end-of-run aggregates:
//!
//! * [`MetricsRegistry`] — an integer-only counters/gauges/histograms
//!   registry with `&'static str` names.
//! * [`CpiStack`] / [`CpiComponent`] — CPI-stack cycle accounting. Every
//!   retire-width slot of every cycle is attributed to exactly one
//!   component ({base, frontend/BTB, branch-mispredict, BQ/TQ stall,
//!   memory level, backend}), so the components sum to
//!   `cycles × retire_width` with zero slack (see [`CpiStack::check`]).
//! * [`TimeSeries`] — interval samples of cumulative integer counters,
//!   exported as CSV ([`TimeSeries::to_csv`]) or an ASCII occupancy/IPC
//!   timeline ([`TimeSeries::ascii_timeline`]).
//! * [`EventLog`] — a leveled operational event log (JSONL / stderr /
//!   memory sinks) whose logical sequence numbers — not wall time — are
//!   the determinism surface; see [`log`].
//! * [`TraceLog`] — a structured span/event tracer exporting
//!   Chrome/Perfetto trace-event JSON ([`TraceLog::to_json`]). Timestamps
//!   are *simulated cycles* (or a logical job clock for campaign spans),
//!   never wall time, so the exported bytes are deterministic across
//!   machines, runs and worker counts.
//! * [`json`] — the workspace's one JSON reader ([`json::Json::parse`])
//!   and string escaper ([`json::write_str`]).
//!
//! Everything in this crate is plain `std` and every stored quantity is
//! an integer: serializing any artifact twice yields identical bytes.

mod cpi;
pub mod json;
pub mod log;
mod registry;
mod series;
mod trace;

pub use cpi::{CpiComponent, CpiStack, CPI_COMPONENTS};
pub use log::{strip_wall, EventLog, Level, LOG_SCHEMA_VERSION};
pub use registry::{GaugeState, HistogramState, MetricsRegistry};
pub use series::TimeSeries;
pub use trace::{ArgValue, TraceEvent, TraceLog};

/// Telemetry knobs a simulation is armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample the time series every this many cycles (0 disables
    /// sampling; the registry, CPI stack and event trace still run).
    pub sample_interval: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { sample_interval: 1000 }
    }
}

/// Everything a telemetry-armed run hands back: the registry snapshot,
/// the sampled time series, and the event trace.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Final registry state (counters, gauge maxima, histograms).
    pub registry: MetricsRegistry,
    /// The interval-sampled time series.
    pub series: TimeSeries,
    /// The recorded pipeline events (recoveries, faults) and counter
    /// tracks.
    pub trace: TraceLog,
}
