//! `experiments observe`: one telemetry-observed run of a catalog workload.
//!
//! Unlike the figure experiments, an observation runs the core *directly*
//! (never through the result cache): the point is the live telemetry —
//! the interval-sampled time series, the CPI stack, and the pipeline
//! event trace — and a cached aggregate has none of it. All artifacts
//! are integer-derived and byte-deterministic: observing the same
//! workload twice yields identical CSV and identical Perfetto JSON.

use crate::runner::CYCLE_LIMIT;
use cfd_core::{Core, CoreConfig, CpiStack, RunReport, Telemetry, TelemetryConfig, TelemetryReport};
use cfd_workloads::{by_name, catalog, Scale, Variant};

/// Every variant, for `--variant` label parsing.
pub const ALL_VARIANTS: [Variant; 9] = [
    Variant::Base,
    Variant::Cfd,
    Variant::CfdPlus,
    Variant::Dfd,
    Variant::CfdDfd,
    Variant::CfdTq,
    Variant::CfdBq,
    Variant::CfdBqTq,
    Variant::IfConv,
];

/// Parses a report label (`base`, `cfd`, `cfd+`, `cfd(bq+tq)`, ...) back
/// into its [`Variant`].
pub fn parse_variant(label: &str) -> Option<Variant> {
    ALL_VARIANTS.iter().copied().find(|v| v.label() == label)
}

/// Filesystem-safe slug for a variant (labels contain `+`/`(`/`)`).
pub fn variant_slug(v: Variant) -> &'static str {
    match v {
        Variant::Base => "base",
        Variant::Cfd => "cfd",
        Variant::CfdPlus => "cfd_plus",
        Variant::Dfd => "dfd",
        Variant::CfdDfd => "cfd_dfd",
        Variant::CfdTq => "cfd_tq",
        Variant::CfdBq => "cfd_bq",
        Variant::CfdBqTq => "cfd_bq_tq",
        Variant::IfConv => "if_conv",
    }
}

/// Knobs for one observation.
#[derive(Debug, Clone, Copy)]
pub struct ObserveOptions {
    /// Which transformation of the kernel to run.
    pub variant: Variant,
    /// Workload scale.
    pub scale: Scale,
    /// Time-series sampling interval in cycles.
    pub interval: u64,
}

impl Default for ObserveOptions {
    fn default() -> Self {
        ObserveOptions { variant: Variant::Base, scale: Scale::default(), interval: 1000 }
    }
}

/// One telemetry-observed run and its identifying labels.
pub struct Observation {
    /// Workload name.
    pub name: String,
    /// Variant run.
    pub variant: Variant,
    /// The full report.
    pub report: RunReport,
    /// What the telemetry observer collected.
    telemetry: TelemetryReport,
    /// Retire width the run used (for CPI/timeline scaling).
    pub width: u64,
}

/// Runs `name` under a telemetry observer.
///
/// # Errors
///
/// An explanatory message when the workload is unknown, the variant is
/// unsupported for it, or the simulation itself fails.
pub fn observe(name: &str, opts: &ObserveOptions) -> Result<Observation, String> {
    let entry = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = catalog().iter().map(|e| e.name).collect();
        format!("unknown workload `{name}`; catalog: {}", names.join(", "))
    })?;
    if !entry.variants.contains(&opts.variant) {
        let labels: Vec<&str> = entry.variants.iter().map(|v| v.label()).collect();
        return Err(format!("workload `{name}` has no `{}` variant; it supports: {}", opts.variant, labels.join(", ")));
    }
    let wl = entry.build(opts.variant, opts.scale);
    let cfg = CoreConfig::default();
    let width = cfg.width as u64;
    let failed = |e| format!("{name} [{}]: {e}", opts.variant);
    let mut core = Core::new(cfg, wl.program, wl.mem).map_err(failed)?;
    let mut telemetry = Telemetry::new(TelemetryConfig { sample_interval: opts.interval, trace: true });
    core.drive(CYCLE_LIMIT, &mut telemetry).map_err(failed)?;
    let report = core.run(CYCLE_LIMIT).map_err(failed)?;
    Ok(Observation { name: name.to_string(), variant: opts.variant, report, telemetry: telemetry.report(), width })
}

impl Observation {
    /// The sampled time series as CSV.
    pub fn csv(&self) -> String {
        self.telemetry.series.to_csv()
    }

    /// The pipeline event trace as Perfetto/Chrome trace-event JSON.
    pub fn trace_json(&self) -> String {
        self.telemetry.trace.to_json()
    }

    /// The metrics registry the run filled.
    pub fn registry(&self) -> &cfd_obs::MetricsRegistry {
        &self.telemetry.registry
    }

    /// The run's CPI stack.
    pub fn cpi_stack(&self) -> CpiStack {
        self.report.stats.cpi_stack()
    }

    /// Headline summary + CPI-stack table + ASCII occupancy/IPC timeline.
    pub fn render(&self) -> String {
        let s = &self.report.stats;
        let stack = self.cpi_stack();
        let mut out = format!(
            "observe {} [{}]: {} cycles, {} retired, IPC {:.3}, {} mispredictions\n\n",
            self.name,
            self.variant,
            s.cycles,
            s.retired,
            self.report.ipc(),
            s.mispredictions,
        );
        out.push_str("CPI stack (every retire slot of every cycle attributed exactly once):\n");
        out.push_str(&stack.table(self.width, s.retired));
        out.push_str("\ntimeline (interval IPC + queue occupancies at each sample):\n");
        out.push_str(&self.telemetry.series.ascii_timeline(self.width, 32));
        let reg = &self.telemetry.registry;
        let (checks, wakeups, poll) =
            (reg.counter("sched.ready_checks"), reg.counter("sched.wakeup_events"), reg.counter("sched.poll_equiv"));
        let per_cycle = |n: u64| n as f64 / s.cycles.max(1) as f64;
        out.push_str(&format!(
            "\nscheduler (event-driven wakeup vs per-cycle IQ polling):\n  \
             ready checks      {checks:>12}  ({:.3}/cycle)\n  \
             wakeup events     {wakeups:>12}  ({:.3}/cycle)\n  \
             polling would scan{poll:>12}  ({:.3}/cycle)\n",
            per_cycle(checks),
            per_cycle(wakeups),
            per_cycle(poll),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_round_trip() {
        for v in ALL_VARIANTS {
            assert_eq!(parse_variant(v.label()), Some(v));
        }
        assert_eq!(parse_variant("nope"), None);
    }

    #[test]
    fn variant_slugs_are_unique_and_safe() {
        use std::collections::BTreeSet;
        let slugs: BTreeSet<&str> = ALL_VARIANTS.iter().map(|&v| variant_slug(v)).collect();
        assert_eq!(slugs.len(), ALL_VARIANTS.len());
        for s in slugs {
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{s}");
        }
    }

    #[test]
    fn unknown_workload_and_variant_are_errors() {
        assert!(observe("no_such_kernel", &ObserveOptions::default()).is_err());
        let opts = ObserveOptions { variant: Variant::CfdTq, ..Default::default() };
        // soplex has no TQ variant.
        assert!(observe("soplex_ref_like", &opts).is_err());
    }

    #[test]
    fn observation_is_byte_deterministic() {
        let opts = ObserveOptions { scale: Scale { n: 200, ..Scale::default() }, interval: 200, ..Default::default() };
        let a = observe("soplex_ref_like", &opts).unwrap();
        let b = observe("soplex_ref_like", &opts).unwrap();
        assert_eq!(a.csv(), b.csv());
        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.render(), b.render());
        assert!(!a.telemetry.series.is_empty());
        assert_eq!(a.cpi_stack().check(a.report.stats.cycles, a.width), Ok(()));
    }
}
