//! `perfbench`: the repository benchmark.
//!
//! Four closed-loop workloads, each with one client, drive the
//! simulator's public API from outside its crates:
//!
//! * `detail`: every catalog kernel through `Core::new` + `Core::run`;
//! * `sampled`: the same kernels through `run_sampled`;
//! * `profile`: every kernel × variant × predictor through
//!   `cfd_profile::profile`;
//! * `campaign`: a DSE grid through `Engine::run_all` with the result
//!   cache and journal on, then a warm-cache replay by a fresh engine.
//!
//! An untraced run reports the end-to-end metrics. A traced run records
//! spans around every call into a simulator crate, measures each layer
//! on the workload's own kernels, and reports the per-layer metrics.
//! `README.md` next to this package defines every metric.

pub mod layers;
pub mod measure;
pub mod plan;
pub mod replay;
pub mod report;
pub mod trace;
pub mod workloads;

use measure::{median, peak_rss_mib, summarize, Ctx, Pass};
use report::{Metrics, Outcome};
use std::path::{Path, PathBuf};

/// Scratch directory, relative to the directory the benchmark runs in.
pub const WORK_DIR: &str = ".perfbench";

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Full detailed simulation of the catalog.
    Detail,
    /// Sampled simulation of the catalog.
    Sampled,
    /// Functional branch profiling of every variant.
    Profile,
    /// DSE grid through the campaign engine.
    Campaign,
}

impl WorkloadName {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 4] =
        [WorkloadName::Detail, WorkloadName::Sampled, WorkloadName::Profile, WorkloadName::Campaign];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Detail => "detail",
            WorkloadName::Sampled => "sampled",
            WorkloadName::Profile => "profile",
            WorkloadName::Campaign => "campaign",
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Seed the inputs are made from.
    pub seed: u64,
    /// Seconds the measurement loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Usage line.
pub const USAGE: &str =
    "usage: perfbench --workload <detail|sampled|profile|campaign> --seed <n> --seconds <s> --trace <0|1>";

impl Options {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, each
    /// required once.
    ///
    /// # Errors
    ///
    /// On a missing, repeated, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let slot_taken = match flag.as_str() {
                "--workload" => workload
                    .replace(
                        WorkloadName::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                    .is_some(),
                "--seed" => seed.replace(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?).is_some(),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("--seconds {value}: must be a non-negative number"));
                    }
                    seconds.replace(s).is_some()
                }
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: must be 0 or 1")),
                    })
                    .is_some(),
                _ => return Err(format!("unknown argument `{flag}`")),
            };
            if slot_taken {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload under `plan` with scratch space under `root`, and
/// returns what the run prints. A traced run also writes its spans to
/// `<root>/trace-<workload>-<seed>.json`.
///
/// # Errors
///
/// When scratch space cannot be created or written; simulator failures
/// are counted as failed operations instead.
pub fn run(opts: &Options, plan: &plan::Plan, root: &Path) -> Result<Outcome, String> {
    let name = opts.workload.name();
    let scratch = Scratch(root.join(format!("{name}-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let mut ctx = Ctx::new(opts.seed, opts.seconds, opts.trace, plan, &scratch.0);
    let m = match opts.workload {
        WorkloadName::Detail => workloads::detail(&mut ctx)?,
        WorkloadName::Sampled => workloads::sampled(&mut ctx)?,
        WorkloadName::Profile => workloads::profile(&mut ctx)?,
        WorkloadName::Campaign => workloads::campaign(&mut ctx)?,
    };
    let digest = m.passes.first().map_or(0, |p| p.digest);
    for (i, p) in m.passes.iter().enumerate().skip(1) {
        ctx.checks.check(p.digest == digest, || {
            format!(
                "pass {i} ({}) digest 0x{:016x} differs from pass 0's 0x{digest:016x}",
                if p.traced { "traced" } else { "untraced" },
                p.digest
            )
        });
    }
    let untraced: Vec<&Pass> = m.passes.iter().filter(|p| !p.traced).collect();
    let mut metrics = Metrics::default();
    let mut extra = m.extra.clone();
    let s = summarize(untraced.iter().copied(), true);
    if opts.trace {
        let traced: Vec<&Pass> = m.passes.iter().filter(|p| p.traced).collect();
        let probe = layers::probe(&mut ctx, &m.probe_items, &m.probe_sweeps, &mut metrics)?;
        let build = ctx.tr.total("workloads.build");
        metrics.set("workloads.build_ms", build.total_ns as f64 / 1e6 / plan.setup_repeats.max(1) as f64);
        let t = summarize(traced.iter().copied(), true);
        metrics.set("trace.overhead_pct", if t.kips > 0.0 { (s.kips / t.kips - 1.0) * 100.0 } else { 0.0 });
        let path = root.join(format!("trace-{name}-{}.json", opts.seed));
        let doc = format!(
            "{{\"workload\":\"{name}\",\"seed\":{},\"run\":{},\"probe\":{}}}\n",
            opts.seed,
            ctx.tr.to_json(),
            probe.to_json()
        );
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        extra.push(("kips", s.kips, "kinstr/s"));
        extra.push(("traced_kips", t.kips, "kinstr/s"));
    } else {
        metrics.set("kips", s.kips);
        metrics.set("kips_min", s.kips_min);
        metrics.set("points_per_s", s.points_per_s);
        metrics.set("replay_points_per_s", s.replay_points_per_s);
        metrics.set("setup_s", m.setup_s);
        metrics.set("peak_rss_mb", peak_rss_mib());
    }
    let raw = summarize(untraced.iter().copied(), false);
    extra.push(("kips_median", s.kips_median, "kinstr/s"));
    extra.push(("host_kips", raw.kips, "kinstr/s"));
    extra.push(("host_factor", median(untraced.iter().map(|p| p.time.ref_ns / p.time.host_ns.max(1) as f64)), "ratio"));
    Ok(Outcome {
        workload: name,
        seed: opts.seed,
        traced: opts.trace,
        attempted: ctx.checks.attempted,
        failed: ctx.checks.failed,
        failures: std::mem::take(&mut ctx.checks.failures),
        digest,
        passes: (untraced.len(), m.passes.len() - untraced.len()),
        metrics: metrics.into_vec(),
        extra,
    })
}
