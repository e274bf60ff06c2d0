//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's metric contract: every
//! workload reports every end-to-end metric from an untraced run and
//! every per-layer metric from a traced run, under these names and
//! units (`BENCHMARK.json` declares the same lists).

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("kips", "kinstr/s"),
    ("kips_min", "kinstr/s"),
    ("points_per_s", "1/s"),
    ("replay_points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("core.frontend_ns_per_cycle", "ns/cycle"),
    ("core.dispatch_ns_per_cycle", "ns/cycle"),
    ("core.scheduler_ns_per_cycle", "ns/cycle"),
    ("core.lsq_ns_per_cycle", "ns/cycle"),
    ("core.commit_ns_per_cycle", "ns/cycle"),
    ("core.ready_checks_per_kcycle", "count/kcycle"),
    ("core.run_s", "s"),
    ("core.new_us", "us"),
    ("core.useful_fetch_ratio", "ratio"),
    ("core.cycles", "count"),
    ("core.retired", "count"),
    ("core.profile_overhead_pct", "%"),
    ("sampled.run_s", "s"),
    ("sampled.detail_frac", "ratio"),
    ("sampled.intervals", "count"),
    ("sampled.ipc_err_pct", "%"),
    ("isa.step_ns", "ns"),
    ("predictor.observe_ns", "ns"),
    ("predictor.mispredict_ratio", "ratio"),
    ("mem.access_ns", "ns"),
    ("mem.l1d_hit_ratio", "ratio"),
    ("profile.run_s", "s"),
    ("exec.run_all_s", "s"),
    ("exec.fingerprint_us", "us"),
    ("exec.execute_ms", "ms"),
    ("exec.worker_util", "ratio"),
    ("exec.cache_store_us", "us"),
    ("exec.cache_load_us", "us"),
    ("exec.journal_append_us", "us"),
    ("exec.executed", "count"),
    ("exec.cache_hits", "count"),
    ("serve.expand_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics by name, taking each unit from the contract tables.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables: a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the contract tables"));
        self.0.push(Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit });
    }

    /// The recorded metrics, in recording order.
    pub fn into_vec(self) -> Vec<Metric> {
        self.0
    }
}

/// What one run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Simulated-statistics digest (equal across traced and untraced runs
    /// of one seed).
    pub digest: u64,
    /// Passes measured (untraced, traced).
    pub passes: (usize, usize),
    /// The metrics of this run kind.
    pub metrics: Vec<Metric>,
    /// Further human-readable figures: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: one per metric, then the check summary.
    pub fn human(&self) -> String {
        let mut out = format!(
            "perfbench workload={} seed={} trace={} passes={}+{}\n",
            self.workload, self.seed, self.traced as u8, self.passes.0, self.passes.1
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (name, value, unit) in &self.extra {
            let _ = writeln!(out, "  {name:<30} {value:>16.4} {unit}");
        }
        let rate = if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = writeln!(out, "  {:<30} {:>16.4} fraction ({} of {})", "error_rate", rate, self.failed, self.attempted);
        let _ = writeln!(out, "  digest=0x{:016x}", self.digest);
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }
}
