//! # cfd-harden — fault-injection campaigns with differential verification
//!
//! The timing core carries a retire-side functional oracle, so every
//! completed run is already verified instruction-by-instruction. This
//! crate turns that into a *robustness harness*: it sweeps deterministic
//! microarchitectural faults ([`cfd_core::FaultKind`]) across the
//! workload catalog and classifies each trial's outcome against the
//! detection contract:
//!
//! * **Masked** — the run completed and is architecturally identical to
//!   the fault-free functional reference (normal speculation machinery
//!   absorbed the fault);
//! * **Detected** — the run ended in a typed [`cfd_core::CoreError`]
//!   naming the failure (oracle mismatch, queue-protocol error, or the
//!   bounded-latency deadlock watchdog);
//! * **Hang** — the run blew through the cycle limit without the
//!   watchdog converting it into a report (a harness failure);
//! * **SilentDivergence** — the run completed with a result that differs
//!   from the reference (the one outcome the contract forbids);
//! * **NotReached** — the fault's trigger site was never visited (e.g. a
//!   VQ fault on a variant that never pushes the VQ).
//!
//! Campaigns are seeded: the same [`CampaignConfig`] produces the same
//! trial list and the same verdict table, byte for byte.
//!
//! # Example
//!
//! ```
//! use cfd_harden::{CampaignConfig, run_campaign};
//!
//! let cfg = CampaignConfig { scale_n: 40, trials_per_pair: 1, ..CampaignConfig::default() };
//! let report = run_campaign(&cfg);
//! assert!(report.outcomes.len() >= 12);
//! assert_eq!(report.silent_divergences(), 0);
//! ```

mod chaos;

pub use chaos::{run_exec_chaos, ChaosConfig, ChaosOutcome, ChaosReport};

use cfd_analysis::lint_program;
use cfd_core::{
    Core, CoreConfig, CoreError, FaultKind, FaultSpec, Observer, Telemetry, TelemetryConfig, TelemetryReport,
};
use cfd_exec::json::quote;
use cfd_exec::{CampaignJob, Engine, Fingerprint, Hasher, Json};
use cfd_isa::check::Rng;
use cfd_isa::QueueConfig;
use cfd_workloads::{by_name, catalog, CatalogEntry, Scale, Variant, Workload};
use std::fmt;

/// The classified outcome of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Completed, architecturally identical to the reference.
    Masked,
    /// Ended in a typed [`CoreError`]; the string is the error class
    /// (`"oracle_mismatch"`, `"deadlock"`, `"queue_protocol"`).
    Detected(String),
    /// Ran past the cycle limit without a watchdog report.
    Hang,
    /// Completed with a result that differs from the reference.
    SilentDivergence,
    /// The fault's trigger site was never visited.
    NotReached,
}

impl Verdict {
    /// Short machine-readable label.
    pub fn label(&self) -> &str {
        match self {
            Verdict::Masked => "masked",
            Verdict::Detected(_) => "detected",
            Verdict::Hang => "hang",
            Verdict::SilentDivergence => "silent_divergence",
            Verdict::NotReached => "not_reached",
        }
    }

    /// Whether this outcome satisfies the detection contract.
    pub fn acceptable(&self) -> bool {
        !matches!(self, Verdict::Hang | Verdict::SilentDivergence)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Detected(class) => write!(f, "detected({class})"),
            v => f.write_str(v.label()),
        }
    }
}

/// One row of the verdict table.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Workload name from the catalog.
    pub workload: &'static str,
    /// Variant the trial ran.
    pub variant: Variant,
    /// Injected fault class (machine name, e.g. `"bq_corrupt"`).
    pub fault: &'static str,
    /// Site the fault targets (e.g. `"execute.push_bq"`).
    pub site: &'static str,
    /// The trial fired the fault at the site's `nth` visit.
    pub nth: u64,
    /// Classified outcome.
    pub verdict: Verdict,
    /// Cycle the fault fired, when it did.
    pub injected_cycle: Option<u64>,
    /// Cycles simulated (to completion or failure).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Cycles between injection and the failure report, for detected
    /// trials — the observed detection latency.
    pub detect_latency: Option<u64>,
}

/// A fault-injection campaign: seed, sweep axes, and run limits.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for trial-point selection (`nth` choices).
    pub seed: u64,
    /// Catalog workloads to sweep (must support [`Variant::CfdPlus`] or
    /// [`Variant::Cfd`]).
    pub workloads: Vec<&'static str>,
    /// Fault classes to sweep.
    pub faults: Vec<FaultKind>,
    /// Trials per (workload, fault) pair, each at a fresh `nth`.
    pub trials_per_pair: usize,
    /// Workload scale (outer trip count).
    pub scale_n: usize,
    /// Cycle limit per trial.
    pub cycle_limit: u64,
    /// Deadlock watchdog interval (cycles with no retirement).
    pub watchdog_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xcfdf_a017,
            workloads: vec!["soplex_ref_like", "astar_r1_like", "bzip2_like", "gromacs_like", "bzip2_tq_like"],
            faults: vec![
                FaultKind::PredictorFlip,
                FaultKind::BqCorrupt,
                FaultKind::BqDrop,
                FaultKind::TqCorrupt,
                FaultKind::VqRemapCorrupt,
                FaultKind::MemDelay(300),
            ],
            trials_per_pair: 1,
            scale_n: 120,
            cycle_limit: 4_000_000,
            watchdog_cycles: 50_000,
        }
    }
}

/// A finished campaign: the verdict table plus its config echo.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// One row per trial, in sweep order.
    pub outcomes: Vec<TrialOutcome>,
}

impl CampaignReport {
    /// Number of trials whose outcome violates the contract.
    pub fn silent_divergences(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.verdict.acceptable()).count()
    }

    /// Count of each verdict label, in a fixed order.
    pub fn tally(&self) -> Vec<(&'static str, usize)> {
        ["masked", "detected", "hang", "silent_divergence", "not_reached"]
            .iter()
            .map(|&label| (label, self.outcomes.iter().filter(|o| o.verdict.label() == label).count()))
            .collect()
    }

    /// Renders the verdict table for humans.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<8} {:<16} {:<18} {:>5} {:<22} {:>9} {:>9}",
            "workload", "variant", "fault", "site", "nth", "verdict", "cycles", "latency"
        );
        for o in &self.outcomes {
            let lat = o.detect_latency.map_or_else(|| "-".to_string(), |l| l.to_string());
            let _ = writeln!(
                out,
                "{:<18} {:<8} {:<16} {:<18} {:>5} {:<22} {:>9} {:>9}",
                o.workload,
                o.variant.label(),
                o.fault,
                o.site,
                o.nth,
                o.verdict.to_string(),
                o.cycles,
                lat
            );
        }
        let _ = writeln!(out);
        for (label, n) in self.tally() {
            let _ = writeln!(out, "{label:<18} {n}");
        }
        out
    }

    /// Serialises the verdict table as JSON (hand-rolled; no external
    /// dependencies). The output is deterministic for a given config.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"silent_divergences\": {},\n", self.silent_divergences()));
        s.push_str("  \"tally\": {");
        let tally = self.tally();
        for (i, (label, n)) in tally.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{label}\": {n}"));
        }
        s.push_str("},\n  \"trials\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"workload\": {}, ", quote(o.workload)));
            s.push_str(&format!("\"variant\": {}, ", quote(o.variant.label())));
            s.push_str(&format!("\"fault\": {}, ", quote(o.fault)));
            s.push_str(&format!("\"site\": {}, ", quote(o.site)));
            s.push_str(&format!("\"nth\": {}, ", o.nth));
            s.push_str(&format!("\"verdict\": {}, ", quote(o.verdict.label())));
            let class = match &o.verdict {
                Verdict::Detected(c) => quote(c),
                _ => "null".to_string(),
            };
            s.push_str(&format!("\"error_class\": {class}, "));
            let cyc = o.injected_cycle.map_or("null".to_string(), |c| c.to_string());
            s.push_str(&format!("\"injected_cycle\": {cyc}, "));
            s.push_str(&format!("\"cycles\": {}, ", o.cycles));
            s.push_str(&format!("\"retired\": {}, ", o.retired));
            let lat = o.detect_latency.map_or("null".to_string(), |l| l.to_string());
            s.push_str(&format!("\"detect_latency\": {lat}"));
            s.push_str(if i + 1 < self.outcomes.len() { "},\n" } else { "}\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// One row of the static/dynamic cross-check: the static verifier's
/// verdict for a program against a fault-free timing simulation of it.
#[derive(Debug, Clone)]
pub struct CrosscheckRow {
    /// Workload name from the catalog.
    pub workload: &'static str,
    /// Variant the row covers.
    pub variant: Variant,
    /// The static verifier found no error-severity violation.
    pub clean: bool,
    /// Static per-queue occupancy bounds `[BQ, VQ, TQ]` (`None` =
    /// unproved).
    pub static_bounds: [Option<u64>; 3],
    /// Fault-free run outcome: `None` when the run completed, else the
    /// error it raised.
    pub run_error: Option<String>,
    /// Observed architectural high-water marks `[BQ, VQ, TQ]` from
    /// [`cfd_core::CoreStats`] (zeros when the run failed).
    pub observed: [u64; 3],
}

impl CrosscheckRow {
    /// The soundness contract the verifier promises: a statically-clean
    /// program completes its fault-free run without a queue-structure
    /// error, and every proved bound dominates the occupancy the
    /// simulation actually observed. Rows the verifier flagged (or
    /// declined to bound) are vacuously fine — the contract only binds
    /// positive claims.
    pub fn holds(&self) -> bool {
        if !self.clean {
            return true;
        }
        self.run_error.is_none()
            && self.static_bounds.iter().zip(self.observed).all(|(b, seen)| b.is_none_or(|b| b >= seen))
    }
}

/// Cross-checks the static verifier against fault-free simulation for
/// every `(workload, variant)` pair in the catalog at scale `n`: lints
/// the program under the core's queue configuration, runs it with no
/// fault injected, and records both verdicts side by side.
pub fn run_crosscheck(n: usize, cycle_limit: u64) -> Vec<CrosscheckRow> {
    let core_cfg = CoreConfig::default();
    let lint_cfg = QueueConfig {
        bq_size: core_cfg.bq_size,
        vq_size: core_cfg.vq_size,
        tq_size: core_cfg.tq_size,
        tq_trip_bits: core_cfg.tq_trip_bits,
    };
    let scale = Scale { n, ..Scale::small() };
    let mut rows = Vec::new();
    for entry in catalog() {
        for &variant in entry.variants {
            let w = entry.build(variant, scale);
            let rep = lint_program(&w.program, &lint_cfg);
            let out = Core::new(core_cfg.clone(), w.program.clone(), w.mem.clone())
                .expect("default config is valid")
                .run(cycle_limit);
            let (run_error, observed) = match out {
                Ok(r) => (None, [r.stats.max_bq_occupancy, r.stats.max_vq_occupancy, r.stats.max_tq_occupancy]),
                Err(e) => (Some(e.to_string()), [0; 3]),
            };
            rows.push(CrosscheckRow {
                workload: entry.name,
                variant,
                clean: rep.clean(),
                static_bounds: [rep.bounds.bq, rep.bounds.vq, rep.bounds.tq],
                run_error,
                observed,
            });
        }
    }
    rows
}

/// One statically-proven (load, store) disjointness claim held against a
/// fault-free functional run's observed addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimObservation {
    /// PC of the load the claim covers.
    pub load_pc: u32,
    /// PC of the store claimed disjoint from it.
    pub store_pc: u32,
    /// The observed byte footprints intersect: the static proof is wrong.
    pub contradicted: bool,
}

/// Dynamically cross-checks the alias analysis' disjointness claims
/// (`cfd_analysis::BranchReport::disjoint_claims`): runs `program`
/// functionally on `mem`, records the byte footprint every claimed PC
/// touches across the whole run, and reports a claim contradicted when
/// its load and store footprints intersect. A sound analysis yields zero
/// contradictions; one is a bug in `cfd_analysis`, not in the program.
///
/// # Errors
///
/// Propagates functional-simulation errors (the claims are then
/// unjudged, not vacuously confirmed).
pub fn check_disjoint_claims(
    program: &cfd_isa::Program,
    mem: &cfd_isa::MemImage,
    claims: &[(u32, u32)],
    limit: u64,
) -> Result<Vec<ClaimObservation>, cfd_isa::SimError> {
    use std::collections::{BTreeMap, BTreeSet};
    let watched: BTreeSet<u32> = claims.iter().flat_map(|&(l, s)| [l, s]).collect();
    let mut footprints: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    let mut machine = cfd_isa::Machine::new(program.clone(), mem.clone());
    let mut sink = |ev: &cfd_isa::RetireEvent| {
        if let Some(access) = ev.mem {
            if watched.contains(&ev.pc) {
                let bytes = footprints.entry(ev.pc).or_default();
                for b in 0..access.width.bytes() {
                    bytes.insert(access.addr + b);
                }
            }
        }
    };
    machine.run(limit, &mut sink)?;
    Ok(claims
        .iter()
        .map(|&(load_pc, store_pc)| {
            let contradicted = match (footprints.get(&load_pc), footprints.get(&store_pc)) {
                (Some(l), Some(s)) => l.intersection(s).next().is_some(),
                // A PC that never executed (or never touched memory)
                // has an empty footprint: vacuously disjoint.
                _ => false,
            };
            ClaimObservation { load_pc, store_pc, contradicted }
        })
        .collect())
}

/// Picks the variant a fault should run under: the richest decoupled
/// form the workload supports, so the fault's target structure is live.
fn variant_for(workload: &CatalogEntry, fault: FaultKind) -> Option<Variant> {
    let prefer: &[Variant] = match fault {
        // TQ faults need a TQ-using variant.
        FaultKind::TqCorrupt => &[Variant::CfdTq, Variant::CfdBqTq],
        // VQ faults need CFD+ (the only VQ user).
        FaultKind::VqRemapCorrupt => &[Variant::CfdPlus],
        // Everything else fires on any CFD variant (BQ + loads + branches).
        _ => &[Variant::CfdPlus, Variant::Cfd, Variant::CfdTq, Variant::CfdBqTq],
    };
    prefer.iter().copied().find(|v| workload.variants.contains(v))
}

/// Runs one trial and classifies it.
pub fn run_trial(wl: &Workload, fault: FaultKind, nth: u64, cfg: &CampaignConfig) -> TrialOutcome {
    run_trial_observed(wl, fault, nth, cfg, &mut ())
}

/// Like [`run_trial`], but with a telemetry observer on the core: the
/// returned [`TelemetryReport`] carries the pipeline trace of the faulted
/// run — the injection instant, every recovery, and the occupancy
/// counter tracks — up to completion *or* the detected failure.
pub fn run_trial_traced(
    wl: &Workload,
    fault: FaultKind,
    nth: u64,
    cfg: &CampaignConfig,
) -> (TrialOutcome, TelemetryReport) {
    let mut telemetry = Telemetry::new(TelemetryConfig::default());
    let outcome = run_trial_observed(wl, fault, nth, cfg, &mut telemetry);
    (outcome, telemetry.report())
}

fn run_trial_observed<O: Observer>(
    wl: &Workload,
    fault: FaultKind,
    nth: u64,
    cfg: &CampaignConfig,
    obs: &mut O,
) -> TrialOutcome {
    let reference = wl.dynamic_instructions().expect("catalog workloads run clean functionally");
    let core_cfg = CoreConfig { watchdog_cycles: cfg.watchdog_cycles, ..Default::default() };
    let spec = FaultSpec { kind: fault, nth };
    let core =
        Core::new(core_cfg, wl.program.clone(), wl.mem.clone()).expect("default config is valid").with_fault(spec);
    let (verdict, injected_cycle, cycles, retired, detect_latency) = match core.run_diag(cfg.cycle_limit, obs) {
        Ok(rep) => {
            let injected = rep.injection.as_ref().map(|i| i.cycle);
            let verdict = match (&rep.injection, rep.stats.retired == reference) {
                (None, _) => Verdict::NotReached,
                (Some(_), true) => Verdict::Masked,
                (Some(_), false) => Verdict::SilentDivergence,
            };
            (verdict, injected, rep.stats.cycles, rep.stats.retired, None)
        }
        Err(fail) => {
            let injected = fail.injection.as_ref().map(|i| i.cycle);
            let (at, verdict) = match &fail.error {
                CoreError::Deadlock { cycle, .. } => (Some(*cycle), Verdict::Detected("deadlock".to_string())),
                CoreError::OracleMismatch { .. } => (None, Verdict::Detected("oracle_mismatch".to_string())),
                CoreError::Program(_) => (None, Verdict::Detected("queue_protocol".to_string())),
                CoreError::CycleLimit(n) => (Some(*n), Verdict::Hang),
                // Trials never arm a CancelToken; if one ever trips it is
                // a supervisor intervention, which counts as detected.
                CoreError::Cancelled { cycle, .. } => (Some(*cycle), Verdict::Detected("cancelled".to_string())),
                CoreError::Config(_) => (None, Verdict::Detected("config".to_string())),
                // Trials never restore checkpoints; a rejected restore is
                // likewise a supervisor-level detection.
                CoreError::Checkpoint(_) => (None, Verdict::Detected("checkpoint".to_string())),
            };
            let latency = match (at, injected) {
                (Some(at), Some(inj)) => at.checked_sub(inj),
                _ => None,
            };
            (verdict, injected, 0, 0, latency)
        }
    };
    TrialOutcome {
        workload: wl.name,
        variant: wl.variant,
        fault: fault.name(),
        site: fault.site().name(),
        nth,
        verdict,
        injected_cycle,
        cycles,
        retired,
        detect_latency,
    }
}

/// One fault-injection trial as a campaign-engine job: the built
/// workload, the fault to inject, and the run limits.
#[derive(Debug, Clone)]
pub struct TrialJob {
    /// The built workload the trial runs.
    pub workload: Workload,
    /// Fault class to inject.
    pub fault: FaultKind,
    /// Fire the fault at the site's `nth` visit.
    pub nth: u64,
    /// Cycle limit for the trial.
    pub cycle_limit: u64,
    /// Deadlock watchdog interval.
    pub watchdog_cycles: u64,
}

impl TrialJob {
    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            cycle_limit: self.cycle_limit,
            watchdog_cycles: self.watchdog_cycles,
            ..CampaignConfig::default()
        }
    }

    fn verdict_from(&self, label: &str, class: Option<&str>) -> Option<Verdict> {
        Some(match label {
            "masked" => Verdict::Masked,
            "detected" => Verdict::Detected(class?.to_string()),
            "hang" => Verdict::Hang,
            "silent_divergence" => Verdict::SilentDivergence,
            "not_reached" => Verdict::NotReached,
            _ => return None,
        })
    }
}

impl CampaignJob for TrialJob {
    type Output = TrialOutcome;

    fn kind(&self) -> &'static str {
        "trial"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        self.workload.hash_into(&mut h);
        h.section("fault", format!("{:?} nth={}", self.fault, self.nth).as_bytes());
        let core_cfg = CoreConfig { watchdog_cycles: self.watchdog_cycles, ..Default::default() };
        h.section("config", core_cfg.stable_repr().as_bytes());
        h.section("limits", format!("cycle_limit={}", self.cycle_limit).as_bytes());
        h.finish()
    }

    fn describe(&self) -> String {
        format!(
            "trial {} [{}] {} nth={}",
            self.workload.name,
            self.workload.variant.label(),
            self.fault.name(),
            self.nth
        )
    }

    fn execute(&self) -> TrialOutcome {
        run_trial(&self.workload, self.fault, self.nth, &self.campaign_config())
    }

    fn result_to_json(out: &TrialOutcome) -> String {
        let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
        let class = match &out.verdict {
            Verdict::Detected(c) => quote(c),
            _ => "null".to_string(),
        };
        format!(
            "{{\"verdict\":{},\"error_class\":{},\"injected_cycle\":{},\"cycles\":{},\"retired\":{},\"detect_latency\":{}}}",
            quote(out.verdict.label()),
            class,
            opt(out.injected_cycle),
            out.cycles,
            out.retired,
            opt(out.detect_latency)
        )
    }

    fn result_from_json(&self, v: &Json) -> Option<TrialOutcome> {
        let class = match v.get("error_class")? {
            Json::Null => None,
            c => Some(c.as_str()?),
        };
        let verdict = self.verdict_from(v.get("verdict")?.as_str()?, class)?;
        Some(TrialOutcome {
            workload: self.workload.name,
            variant: self.workload.variant,
            fault: self.fault.name(),
            site: self.fault.site().name(),
            nth: self.nth,
            verdict,
            injected_cycle: v.get("injected_cycle")?.as_opt_u64()?,
            cycles: v.get("cycles")?.as_u64()?,
            retired: v.get("retired")?.as_u64()?,
            detect_latency: v.get("detect_latency")?.as_opt_u64()?,
        })
    }
}

/// Enumerates a campaign's trials — same sweep order and seeded `nth`
/// sequence as [`run_campaign`] — as engine jobs.
///
/// # Panics
///
/// Panics when a configured workload is not in the catalog.
pub fn campaign_jobs(cfg: &CampaignConfig) -> Vec<TrialJob> {
    let mut rng = Rng::new(cfg.seed);
    let mut jobs = Vec::new();
    for name in &cfg.workloads {
        let entry = by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let scale = Scale { n: cfg.scale_n, ..Scale::small() };
        for &fault in &cfg.faults {
            let Some(variant) = variant_for(&entry, fault) else {
                continue;
            };
            let wl = entry.build(variant, scale);
            for _ in 0..cfg.trials_per_pair {
                // Early site visits exercise warm-up; spread `nth` across
                // a window the run length comfortably covers (sites are
                // visited roughly once per outer iteration).
                let nth = rng.below((cfg.scale_n as u64 / 2).max(8));
                jobs.push(TrialJob {
                    workload: wl.clone(),
                    fault,
                    nth,
                    cycle_limit: cfg.cycle_limit,
                    watchdog_cycles: cfg.watchdog_cycles,
                });
            }
        }
    }
    jobs
}

/// Runs a full campaign on the given engine: every configured fault
/// class against every configured workload, `trials_per_pair` times at
/// seeded `nth` offsets. The verdict table is byte-identical at any
/// worker count.
///
/// # Panics
///
/// Panics when a configured workload is not in the catalog, a catalog
/// workload fails its fault-free functional run, or a trial panics
/// (all are repo bugs, not campaign outcomes).
pub fn run_campaign_on(engine: &Engine, cfg: &CampaignConfig) -> CampaignReport {
    let jobs = campaign_jobs(cfg);
    let outcomes = jobs
        .iter()
        .zip(engine.run_all(&jobs))
        .map(|(job, res)| res.unwrap_or_else(|e| panic!("{} failed: {e}", job.describe())))
        .collect();
    CampaignReport { seed: cfg.seed, outcomes }
}

/// Runs a full campaign serially (no worker threads, no result cache).
/// See [`run_campaign_on`] to run on a configured engine.
///
/// # Panics
///
/// Panics when a configured workload is not in the catalog, or a catalog
/// workload fails its fault-free functional run (both are repo bugs, not
/// campaign outcomes).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_on(&Engine::serial(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> CampaignConfig {
        CampaignConfig {
            workloads: vec!["soplex_ref_like", "astar_r1_like", "bzip2_like"],
            scale_n: 40,
            trials_per_pair: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_has_no_silent_divergence() {
        let report = run_campaign(&smoke_cfg());
        assert!(report.outcomes.len() >= 12, "got {} trials", report.outcomes.len());
        for o in &report.outcomes {
            assert!(o.verdict.acceptable(), "{} / {} / nth {}: {}", o.workload, o.fault, o.nth, o.verdict);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&smoke_cfg()).to_json();
        let b = run_campaign(&smoke_cfg()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let serial = run_campaign(&smoke_cfg()).to_json();
        let engine = Engine::new(cfd_exec::ExecConfig { jobs: 4, use_cache: false, ..cfd_exec::ExecConfig::default() });
        let parallel = run_campaign_on(&engine, &smoke_cfg()).to_json();
        assert_eq!(serial, parallel);
        assert_eq!(engine.stats().executed, engine.stats().submitted - engine.stats().deduped);
    }

    #[test]
    fn different_seeds_pick_different_trial_points() {
        let a = run_campaign(&smoke_cfg());
        let b = run_campaign(&CampaignConfig { seed: 99, ..smoke_cfg() });
        let nths_a: Vec<u64> = a.outcomes.iter().map(|o| o.nth).collect();
        let nths_b: Vec<u64> = b.outcomes.iter().map(|o| o.nth).collect();
        assert_ne!(nths_a, nths_b);
    }

    #[test]
    fn json_is_parseable_shape() {
        let report = run_campaign(&CampaignConfig {
            workloads: vec!["soplex_ref_like"],
            faults: vec![FaultKind::PredictorFlip, FaultKind::BqCorrupt],
            scale_n: 40,
            ..CampaignConfig::default()
        });
        let j = report.to_json();
        assert!(j.contains("\"trials\": ["));
        assert!(j.contains("\"verdict\": "));
        assert!(j.contains("\"silent_divergences\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn verdict_labels_and_contract() {
        assert!(Verdict::Masked.acceptable());
        assert!(Verdict::Detected("deadlock".into()).acceptable());
        assert!(Verdict::NotReached.acceptable());
        assert!(!Verdict::Hang.acceptable());
        assert!(!Verdict::SilentDivergence.acceptable());
        assert_eq!(Verdict::Detected("x".into()).label(), "detected");
    }

    #[test]
    fn disjoint_claims_judged_against_observed_footprints() {
        use cfd_isa::{Assembler, MemImage, Reg};
        let (i, n, base, x) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        let mut a = Assembler::new();
        a.li(n, 50);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(x, i, 3i64);
        a.add(x, x, base);
        let load_pc = a.here();
        a.ld(Reg::new(5), 0, x);
        let far_store = a.here();
        a.sd(Reg::new(5), 8 * 50, x); // one array away: truly disjoint
        let near_store = a.here();
        a.sd(Reg::new(5), 8, x); // hits the next element: overlaps the load
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let obs = check_disjoint_claims(
            &program,
            &MemImage::new(),
            &[(load_pc, far_store), (load_pc, near_store), (load_pc, 0)],
            1_000_000,
        )
        .unwrap();
        assert_eq!(obs[0], ClaimObservation { load_pc, store_pc: far_store, contradicted: false });
        assert_eq!(obs[1], ClaimObservation { load_pc, store_pc: near_store, contradicted: true });
        // A claimed PC with no memory footprint (the `li`) is vacuous.
        assert!(!obs[2].contradicted);
    }

    #[test]
    fn traced_trial_records_the_fault_instant() {
        let cfg = smoke_cfg();
        let entry = by_name("soplex_ref_like").unwrap();
        let wl = entry.build(Variant::CfdPlus, Scale { n: cfg.scale_n, ..Scale::small() });
        let (outcome, t) = run_trial_traced(&wl, FaultKind::BqCorrupt, 4, &cfg);
        let injected = outcome.injected_cycle.expect("nth=4 BQ corruption fires");
        let faults: Vec<_> = t.trace.events().iter().filter(|e| e.name == "fault").collect();
        assert_eq!(faults.len(), 1, "exactly one injection instant");
        assert_eq!(faults[0].ts, injected, "instant stamped at the injection cycle");
        assert!(t.trace.to_json().contains("\"name\":\"fault\""));
        // The untraced trial classifies identically: telemetry is neutral.
        let plain = run_trial(&wl, FaultKind::BqCorrupt, 4, &cfg);
        assert_eq!(plain.verdict, outcome.verdict);
        assert_eq!(plain.cycles, outcome.cycles);
    }

    #[test]
    fn static_verdicts_agree_with_fault_free_simulation() {
        let rows = run_crosscheck(48, 4_000_000);
        assert!(rows.len() >= 12, "got {} rows", rows.len());
        let mut clean_bounded = 0;
        for r in &rows {
            assert!(
                r.holds(),
                "{} / {}: clean={} bounds={:?} observed={:?} error={:?}",
                r.workload,
                r.variant.label(),
                r.clean,
                r.static_bounds,
                r.observed,
                r.run_error
            );
            if r.clean && r.static_bounds.iter().any(|b| b.is_some()) {
                clean_bounded += 1;
            }
        }
        // The check must not pass vacuously: most catalog rows are
        // statically clean with at least one proved bound.
        assert!(clean_bounded >= 8, "only {clean_bounded} clean bounded rows");
    }
}
