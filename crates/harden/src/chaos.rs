//! IO-fault chaos campaigns against the execution engine itself.
//!
//! The microarchitectural campaigns in this crate inject faults into the
//! *simulated machine* and demand a masked-or-detected verdict for every
//! one. [`run_exec_chaos`] applies the identical discipline to the
//! machinery that runs those campaigns — `cfd-exec`'s result cache and
//! write-ahead journal:
//!
//! * **torn cache writes** and **corrupt cache bytes** — a seeded
//!   [`IoFaultShim`] mangles every entry the engine stores; a second
//!   engine over the same directory must detect the damage (digest or
//!   parse failure, quarantined entry, `corrupt=` counter) and reproduce
//!   the reference output by re-executing;
//! * **truncated journal records** — the shim tears WAL appends; resume
//!   recovery must truncate the torn tail (detected) and still replay to
//!   the reference output;
//! * **mid-campaign kill** — a campaign is abandoned halfway and resumed;
//!   the resumed run must serve the finished half from the durable cache
//!   and produce output byte-identical to an uninterrupted run.
//!
//! Each scenario is scored with the same [`Verdict`] taxonomy as the
//! fault-injection campaigns: a fault the system absorbed with no
//! observable signal is *masked*, one it flagged (quarantine, torn-tail
//! truncation, resume accounting) is *detected*, and any byte of output
//! that differs from the uninterrupted reference is a *silent
//! divergence* — the outcome the contract forbids. A scenario that
//! failed to produce output at all would be a *hang*; scenarios run to
//! completion cooperatively, so a hang can only mean a harness bug.
//!
//! Everything is seeded: the same [`ChaosConfig`] produces the same
//! verdict table, byte for byte.

use crate::Verdict;
use cfd_core::CoreConfig;
use cfd_exec::json::quote;
use cfd_exec::{run_report_to_json, Engine, ExecConfig, IoFaultKind, IoFaultShim, JobError, Journal, SimJob};
use cfd_workloads::{by_name, Scale, Variant};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Configuration for one chaos sweep over the engine's persistence.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the IO-fault shims (one derived seed per scenario).
    pub seed: u64,
    /// Workload scale (outer trip count) for the probe campaign.
    pub scale_n: usize,
    /// Cycle limit per probe job.
    pub cycle_limit: u64,
    /// Root directory the scenarios build their cache dirs under; each
    /// scenario wipes and owns `<root>/<scenario>/`.
    pub cache_root: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xcfdc_4a05,
            scale_n: 40,
            cycle_limit: 4_000_000,
            cache_root: PathBuf::from("target/cfd-chaos"),
        }
    }
}

/// One row of the chaos verdict table.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Scenario name (`"torn_cache_write"`, ...).
    pub scenario: &'static str,
    /// The write site the faults targeted.
    pub site: &'static str,
    /// Injected fault kind (machine name).
    pub fault: &'static str,
    /// Faults injected at the site.
    pub injected: u64,
    /// Faults the engine observably flagged (quarantined entries, torn
    /// tails truncated, resume accounting).
    pub detected: u64,
    /// Faults absorbed with no signal but also no output effect.
    pub masked: u64,
    /// Classified outcome for the scenario.
    pub verdict: Verdict,
}

/// A finished chaos sweep: the verdict table plus its config echo.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the sweep ran with.
    pub seed: u64,
    /// One row per scenario, in a fixed order.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Number of scenarios whose outcome violates the contract.
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
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<16} {:<12} {:>8} {:>8} {:>7} {:<22}",
            "scenario", "site", "fault", "injected", "detected", "masked", "verdict"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{:<20} {:<16} {:<12} {:>8} {:>8} {:>7} {:<22}",
                o.scenario,
                o.site,
                o.fault,
                o.injected,
                o.detected,
                o.masked,
                o.verdict.to_string()
            );
        }
        let _ = writeln!(out);
        for (label, n) in self.tally() {
            let _ = writeln!(out, "{label:<18} {n}");
        }
        out
    }

    /// Serialises the verdict table as JSON (hand-rolled; no external
    /// dependencies). Deterministic for a given config.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"silent_divergences\": {},\n", self.silent_divergences()));
        s.push_str("  \"tally\": {");
        for (i, (label, n)) in self.tally().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{label}\": {n}"));
        }
        s.push_str("},\n  \"scenarios\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"scenario\": {}, ", quote(o.scenario)));
            s.push_str(&format!("\"site\": {}, ", quote(o.site)));
            s.push_str(&format!("\"fault\": {}, ", quote(o.fault)));
            s.push_str(&format!("\"injected\": {}, ", o.injected));
            s.push_str(&format!("\"detected\": {}, ", o.detected));
            s.push_str(&format!("\"masked\": {}, ", o.masked));
            s.push_str(&format!("\"verdict\": {}", quote(o.verdict.label())));
            s.push_str(if i + 1 < self.outcomes.len() { "},\n" } else { "}\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The probe campaign every scenario runs: a small catalog sweep whose
/// reports exercise the full result codec.
fn probe_jobs(cfg: &ChaosConfig) -> Vec<SimJob> {
    let core_cfg = CoreConfig::default();
    let scale = Scale { n: cfg.scale_n, ..Scale::small() };
    let mut jobs = Vec::new();
    for name in ["soplex_ref_like", "astar_r1_like", "bzip2_like"] {
        let entry = by_name(name).expect("chaos probe workloads are in the catalog");
        for v in [Variant::Base, Variant::Cfd] {
            jobs.push(SimJob { workload: entry.build(v, scale), cfg: core_cfg.clone(), cycle_limit: cfg.cycle_limit });
        }
    }
    jobs
}

/// Folds a campaign's results into one comparable byte string.
fn transcript(engine: &Engine, jobs: &[SimJob]) -> String {
    let mut out = String::new();
    for res in engine.run_all(jobs) {
        match res {
            Ok(rep) => out.push_str(&run_report_to_json(&rep)),
            Err(e) => {
                let _ = write!(out, "{{\"error\":\"{}\"}}", classify(&e));
            }
        }
        out.push('\n');
    }
    out
}

fn classify(e: &JobError) -> &'static str {
    match e {
        JobError::Panicked(_) => "panicked",
        JobError::Timeout { .. } => "timeout",
        JobError::Quarantined { .. } => "quarantined",
    }
}

/// Serial probe engine over `dir` (cache + journal on, no faults).
fn engine_on(dir: &Path, resume: bool) -> Engine {
    Engine::new(ExecConfig { jobs: 1, use_cache: true, cache_dir: dir.to_path_buf(), resume, ..ExecConfig::default() })
}

/// Scores a scenario: output divergence is the cardinal sin; otherwise a
/// flagged fault is detected, an absorbed one masked, and a scenario
/// whose faults never landed is not-reached.
fn score(diverged: bool, injected: u64, detected: u64, detail: &'static str) -> Verdict {
    if diverged {
        Verdict::SilentDivergence
    } else if detected > 0 {
        Verdict::Detected(detail.to_string())
    } else if injected > 0 {
        Verdict::Masked
    } else {
        Verdict::NotReached
    }
}

/// The single `.wal` file a scenario's campaign journaled under `dir`.
fn wal_path(dir: &Path) -> Option<PathBuf> {
    let entries = fs::read_dir(dir.join("journal")).ok()?;
    entries.filter_map(|e| e.ok()).map(|e| e.path()).find(|p| p.extension().and_then(|x| x.to_str()) == Some("wal"))
}

/// Runs the IO-fault chaos sweep: every scenario injects storage faults
/// into a probe campaign and is scored against an uninterrupted
/// reference run. See the module docs for the scenario list and the
/// verdict contract (`silent_divergences() == 0` is the gate).
pub fn run_exec_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let jobs = probe_jobs(cfg);
    let _ = fs::remove_dir_all(&cfg.cache_root);

    // The uninterrupted reference: serial, cache-less.
    let reference = transcript(&Engine::serial(), &jobs);

    let mut outcomes = Vec::new();

    // Scenario 1 & 2: every cache store is mangled (torn or bit-flipped)
    // on its way to disk. The writing run computes results in memory, so
    // its output is unaffected; the *next* run over the same directory
    // must detect the damage entry by entry and re-execute.
    for (scenario, kind, fault) in [
        ("torn_cache_write", IoFaultKind::TornWrite, "torn_write"),
        ("corrupt_cache_bytes", IoFaultKind::BitFlip, "bit_flip"),
    ] {
        let dir = cfg.cache_root.join(scenario);
        let shim = IoFaultShim::new(cfg.seed ^ kind as u64, kind, 1);
        let writer = Engine::new(ExecConfig {
            jobs: 1,
            use_cache: true,
            cache_dir: dir.clone(),
            io_faults: Some(shim.clone()),
            ..ExecConfig::default()
        });
        let written = transcript(&writer, &jobs);
        let reader = engine_on(&dir, false);
        let reread = transcript(&reader, &jobs);
        let injected = shim.injected().iter().filter(|f| f.site == "cache.store").count() as u64;
        let detected = reader.stats().corrupt;
        let diverged = written != reference || reread != reference;
        outcomes.push(ChaosOutcome {
            scenario,
            site: "cache.store",
            fault,
            injected,
            detected,
            masked: injected.saturating_sub(detected),
            verdict: score(diverged, injected, detected, "cache_quarantine"),
        });
    }

    // Scenario 3: every journal append is torn mid-record. Resume
    // recovery must find the torn tail, truncate it, and still replay the
    // campaign to the reference output.
    {
        let dir = cfg.cache_root.join("truncated_journal");
        let shim = IoFaultShim::new(cfg.seed.rotate_left(17), IoFaultKind::TornWrite, 1);
        let writer = Engine::new(ExecConfig {
            jobs: 1,
            use_cache: true,
            cache_dir: dir.clone(),
            io_faults: Some(shim.clone()),
            ..ExecConfig::default()
        });
        let written = transcript(&writer, &jobs);
        let injected = shim.injected().iter().filter(|f| f.site == "journal.append").count() as u64;
        // Recovery through the public resume API: the torn tail must be
        // detected (and healed) before any record replays.
        let detected = match wal_path(&dir).and_then(|p| Journal::open_resume(&p).ok()) {
            Some((_, replay)) if replay.torn_bytes > 0 => 1,
            _ => 0,
        };
        let resumed = engine_on(&dir, true);
        let reread = transcript(&resumed, &jobs);
        let diverged = written != reference || reread != reference;
        outcomes.push(ChaosOutcome {
            scenario: "truncated_journal",
            site: "journal.append",
            fault: "torn_write",
            injected,
            detected,
            // One torn-tail truncation covers every append after the
            // first torn one; either recovery saw the damage or it
            // silently absorbed all of it.
            masked: if detected > 0 { 0 } else { injected },
            verdict: score(diverged, injected, detected, "torn_tail_truncated"),
        });
    }

    // Scenario 4: a campaign dies halfway (only half its jobs ever ran),
    // then is resumed. The finished half must come back from the durable
    // cache and the final output must match the uninterrupted reference.
    {
        let dir = cfg.cache_root.join("midrun_kill");
        let half = jobs.len() / 2;
        let first = engine_on(&dir, false);
        let _ = transcript(&first, &jobs[..half]);
        let resumed = engine_on(&dir, true);
        let reread = transcript(&resumed, &jobs);
        let s = resumed.stats();
        let accounted = s.cache_hits == half as u64 && s.executed == (jobs.len() - half) as u64;
        let diverged = reread != reference;
        outcomes.push(ChaosOutcome {
            scenario: "midrun_kill",
            site: "campaign",
            fault: "kill",
            injected: 1,
            detected: u64::from(accounted),
            masked: 0,
            verdict: score(diverged, 1, u64::from(accounted), "resume_from_cache"),
        });
    }

    ChaosReport { seed: cfg.seed, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(tag: &str) -> ChaosConfig {
        ChaosConfig {
            cache_root: std::env::temp_dir().join(format!("cfd-chaos-test-{tag}-{}", std::process::id())),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn chaos_sweep_has_no_silent_divergence_and_no_hangs() {
        let cfg = test_cfg("contract");
        let report = run_exec_chaos(&cfg);
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert!(o.verdict.acceptable(), "{}: {}", o.scenario, o.verdict);
            assert!(o.injected > 0, "{} injected nothing", o.scenario);
        }
        assert_eq!(report.silent_divergences(), 0);
        let hangs = report.tally().iter().find(|(l, _)| *l == "hang").map(|(_, n)| *n);
        assert_eq!(hangs, Some(0));
        // Storage chaos must actually be *detected*, not just absorbed.
        let torn = &report.outcomes[0];
        assert_eq!(torn.scenario, "torn_cache_write");
        assert!(torn.detected > 0, "torn stores must be caught by the digest");
        let _ = fs::remove_dir_all(&cfg.cache_root);
    }

    #[test]
    fn chaos_report_renders_table_and_json() {
        let cfg = test_cfg("render");
        let report = run_exec_chaos(&cfg);
        let table = report.table();
        assert!(table.contains("torn_cache_write"));
        assert!(table.contains("silent_divergence"));
        let json = report.to_json();
        assert!(json.contains("\"scenarios\": ["));
        assert!(json.contains("\"silent_divergences\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let _ = fs::remove_dir_all(&cfg.cache_root);
    }
}
