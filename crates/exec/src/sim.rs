//! Built-in campaign jobs: timing simulation, functional execution, and
//! branch profiling — with exact JSON codecs for the result cache.
//!
//! Every cached quantity is an unsigned integer counter (`RunReport`,
//! `ProfileReport` and friends hold no floats; rates like IPC are
//! computed at format time), so serializing and re-reading a result
//! reproduces it bit-for-bit. That exactness is what lets warm-cache
//! sweeps emit byte-identical reports to cold ones.

use crate::engine::CampaignJob;
use crate::fingerprint::{Fingerprint, Hasher};
use crate::json::Json;
use crate::policy::timeout_panic;
use cfd_core::{
    BranchStat, CancelToken, Core, CoreConfig, CoreError, CoreStats, FaultKind, InjectionRecord, RunReport,
};
use cfd_energy::EventCounts;
use cfd_mem::CacheStats;
use cfd_predictor::predictor_by_name;
use cfd_profile::{profile, ProfileReport};
use cfd_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Writes the named `u64` fields of `$src` into `$out` as JSON members
/// (no surrounding braces, no leading comma).
macro_rules! put_u64_fields {
    ($out:ident, $src:expr, $($f:ident),+ $(,)?) => {{
        let mut first = true;
        $(
            if !first { $out.push(','); }
            first = false;
            let _ = write!($out, "\"{}\":{}", stringify!($f), $src.$f);
        )+
        let _ = first;
    }};
}

/// Reads the named `u64` fields of `$dst` back out of a parsed object;
/// any missing or mistyped field aborts the decode (`return None`).
macro_rules! take_u64_fields {
    ($v:expr, $dst:expr, $($f:ident),+ $(,)?) => {{
        $( $dst.$f = $v.get(stringify!($f))?.as_u64()?; )+
    }};
}

macro_rules! core_stats_u64_fields {
    ($m:ident, $a:ident, $b:expr) => {
        $m!(
            $a,
            $b,
            cycles,
            retired,
            fetched,
            wrong_path_fetched,
            issued,
            wrong_path_issued,
            retired_branches,
            mispredictions,
            bq_hits,
            bq_misses,
            bq_spec_recoveries,
            bq_push_stall_cycles,
            bq_miss_stall_cycles,
            tq_hits,
            tq_miss_stall_cycles,
            tq_push_stall_cycles,
            immediate_recoveries,
            retire_recoveries,
            checkpoints_allocated,
            checkpoints_denied,
            checkpoints_unwanted,
            btb_misfetches,
            icache_misses,
            lsq_forwards,
            max_bq_occupancy,
            max_vq_occupancy,
            max_tq_occupancy,
            faults_injected,
            post_fault_recoveries,
        )
    };
}

macro_rules! event_counts_u64_fields {
    ($m:ident, $a:ident, $b:expr) => {
        $m!(
            $a,
            $b,
            cycles,
            fetched,
            decoded,
            renamed,
            iq_writes,
            iq_wakeups,
            regfile_reads,
            regfile_writes,
            alu_simple,
            alu_complex,
            lsq_ops,
            l1d_accesses,
            l2_accesses,
            l3_accesses,
            dram_accesses,
            bpred_ops,
            btb_ops,
            rob_ops,
            checkpoint_ops,
            bq_ops,
            vq_ops,
            tq_ops,
        )
    };
}

fn put_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn take_u64_array(v: &Json) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(Json::as_u64).collect()
}

fn put_cache_stats(out: &mut String, s: &CacheStats) {
    out.push('{');
    put_u64_fields!(out, s, accesses, hits, writebacks);
    out.push('}');
}

fn take_cache_stats(v: &Json) -> Option<CacheStats> {
    let mut s = CacheStats::default();
    take_u64_fields!(v, s, accesses, hits, writebacks);
    Some(s)
}

fn put_core_stats(out: &mut String, s: &CoreStats) {
    out.push('{');
    core_stats_u64_fields!(put_u64_fields, out, s);
    out.push_str(",\"cpi_slots\":");
    put_u64_array(out, &s.cpi_slots);
    out.push_str(",\"branches\":[");
    for (i, (pc, b)) in s.branches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{pc},{{");
        put_u64_fields!(out, b, executed, taken, mispredicted);
        out.push_str(",\"by_level\":");
        put_u64_array(out, &b.mispredicted_by_level);
        out.push_str("}]");
    }
    out.push_str("]}");
}

fn take_core_stats(v: &Json) -> Option<CoreStats> {
    let mut s = CoreStats::default();
    core_stats_u64_fields!(take_u64_fields, v, s);
    s.cpi_slots = take_u64_array(v.get("cpi_slots")?)?.try_into().ok()?;
    let mut branches = BTreeMap::new();
    for entry in v.get("branches")?.as_arr()? {
        let pair = entry.as_arr()?;
        let [pc, body] = pair else { return None };
        let pc = u32::try_from(pc.as_u64()?).ok()?;
        let mut b = BranchStat::default();
        take_u64_fields!(body, b, executed, taken, mispredicted);
        let levels = take_u64_array(body.get("by_level")?)?;
        b.mispredicted_by_level = levels.try_into().ok()?;
        branches.insert(pc, b);
    }
    s.branches = branches;
    Some(s)
}

fn put_events(out: &mut String, e: &EventCounts) {
    out.push('{');
    event_counts_u64_fields!(put_u64_fields, out, e);
    out.push('}');
}

fn take_events(v: &Json) -> Option<EventCounts> {
    let mut e = EventCounts::default();
    event_counts_u64_fields!(take_u64_fields, v, e);
    Some(e)
}

fn put_injection(out: &mut String, inj: &Option<InjectionRecord>) {
    match inj {
        None => out.push_str("null"),
        Some(rec) => {
            let delay = match rec.kind {
                FaultKind::MemDelay(d) => d.to_string(),
                _ => "null".to_string(),
            };
            let _ = write!(out, "{{\"kind\":\"{}\",\"delay\":{delay},\"cycle\":{}}}", rec.kind.name(), rec.cycle);
        }
    }
}

/// Rebuilds a [`FaultKind`] from its stable name (plus the `MemDelay`
/// parameter); the site string is recovered from the kind, which is how
/// the `&'static str` field survives the cache round trip.
pub fn fault_kind_by_name(name: &str, delay: Option<u64>) -> Option<FaultKind> {
    Some(match name {
        "predictor_flip" => FaultKind::PredictorFlip,
        "bq_corrupt" => FaultKind::BqCorrupt,
        "bq_drop" => FaultKind::BqDrop,
        "tq_corrupt" => FaultKind::TqCorrupt,
        "vq_remap_corrupt" => FaultKind::VqRemapCorrupt,
        "mem_delay" => FaultKind::MemDelay(delay?),
        _ => return None,
    })
}

fn take_injection(v: &Json) -> Option<Option<InjectionRecord>> {
    if *v == Json::Null {
        return Some(None);
    }
    let kind = fault_kind_by_name(v.get("kind")?.as_str()?, v.get("delay")?.as_opt_u64()?)?;
    let cycle = v.get("cycle")?.as_u64()?;
    Some(Some(InjectionRecord { kind, cycle, site: kind.site().name() }))
}

/// Serializes a [`RunReport`] as a compact JSON document.
pub fn run_report_to_json(r: &RunReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"stats\":");
    put_core_stats(&mut out, &r.stats);
    out.push_str(",\"events\":");
    put_events(&mut out, &r.events);
    out.push_str(",\"cache_stats\":[");
    put_cache_stats(&mut out, &r.cache_stats.0);
    out.push(',');
    put_cache_stats(&mut out, &r.cache_stats.1);
    out.push(',');
    put_cache_stats(&mut out, &r.cache_stats.2);
    out.push_str("],\"mshr_histogram\":");
    put_u64_array(&mut out, &r.mshr_histogram);
    out.push_str(",\"level_counts\":");
    put_u64_array(&mut out, &r.level_counts);
    out.push_str(",\"injection\":");
    put_injection(&mut out, &r.injection);
    out.push('}');
    out
}

/// Rebuilds a [`RunReport`] from [`run_report_to_json`] output.
pub fn run_report_from_json(v: &Json) -> Option<RunReport> {
    let caches = v.get("cache_stats")?.as_arr()?;
    let [l1, l2, l3] = caches else { return None };
    Some(RunReport {
        stats: take_core_stats(v.get("stats")?)?,
        events: take_events(v.get("events")?)?,
        cache_stats: (take_cache_stats(l1)?, take_cache_stats(l2)?, take_cache_stats(l3)?),
        mshr_histogram: take_u64_array(v.get("mshr_histogram")?)?,
        level_counts: take_u64_array(v.get("level_counts")?)?.try_into().ok()?,
        injection: take_injection(v.get("injection")?)?,
    })
}

/// A timing-simulation job: one workload on one core configuration.
///
/// This is the workhorse of every figure sweep. `execute` mirrors the
/// bench runner's semantics: a simulator error is a panic (isolated by
/// the engine into a failed row), carrying the workload name and variant.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The built workload to simulate.
    pub workload: Workload,
    /// Core configuration.
    pub cfg: CoreConfig,
    /// Cycle budget.
    pub cycle_limit: u64,
}

impl CampaignJob for SimJob {
    type Output = RunReport;

    fn kind(&self) -> &'static str {
        "sim"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.section("kind", b"sim");
        h.section("workload", &self.workload.fingerprint_bytes());
        h.section("config", self.cfg.stable_repr().as_bytes());
        h.section("cycle_limit", &self.cycle_limit.to_le_bytes());
        h.finish()
    }

    fn describe(&self) -> String {
        format!("{} [{}]", self.workload.name, self.workload.variant)
    }

    fn execute(&self) -> RunReport {
        self.execute_cancellable(&CancelToken::new())
    }

    /// Runs the core under the engine's cancellation token, which the
    /// kernel polls once per simulated cycle: a run past its cycle budget
    /// is killed cooperatively at exactly the first over-budget cycle and
    /// classified as a timeout, identically at any worker count.
    fn execute_cancellable(&self, cancel: &CancelToken) -> RunReport {
        let core = Core::new(self.cfg.clone(), self.workload.program.clone(), self.workload.mem.clone())
            .unwrap_or_else(|e| {
                panic!("{} [{}] core construction failed: {e}", self.workload.name, self.workload.variant)
            })
            .with_cancellation(cancel.clone());
        match core.run(self.cycle_limit) {
            Ok(report) => report,
            Err(CoreError::Cancelled { budget: Some(b), .. }) => timeout_panic(b),
            Err(e) => panic!("{} [{}] failed: {e}", self.workload.name, self.workload.variant),
        }
    }

    fn result_to_json(out: &RunReport) -> String {
        run_report_to_json(out)
    }

    fn result_from_json(&self, v: &Json) -> Option<RunReport> {
        run_report_from_json(v)
    }
}

/// A functional-execution job: runs the workload on the ISA-level machine
/// and reports retired instructions (the reference instruction count the
/// effective-IPC metrics need).
#[derive(Debug, Clone)]
pub struct FuncJob {
    /// The built workload to execute.
    pub workload: Workload,
}

impl CampaignJob for FuncJob {
    type Output = u64;

    fn kind(&self) -> &'static str {
        "func"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.section("kind", b"func");
        h.section("workload", &self.workload.fingerprint_bytes());
        h.finish()
    }

    fn describe(&self) -> String {
        format!("{} [{}] functional", self.workload.name, self.workload.variant)
    }

    fn execute(&self) -> u64 {
        self.workload
            .dynamic_instructions()
            .unwrap_or_else(|e| panic!("{} [{}] functional run failed: {e}", self.workload.name, self.workload.variant))
    }

    fn result_to_json(out: &u64) -> String {
        format!("{{\"retired\":{out}}}")
    }

    fn result_from_json(&self, v: &Json) -> Option<u64> {
        v.get("retired")?.as_u64()
    }
}

/// A branch-profiling job: functional run under a software predictor
/// model (the paper's Fig. 6 characterization tables).
#[derive(Debug, Clone)]
pub struct ProfileJob {
    /// The built workload to profile.
    pub workload: Workload,
    /// Predictor name (must be known to `cfd-predictor`).
    pub predictor: String,
    /// Instruction budget.
    pub instruction_limit: u64,
}

impl CampaignJob for ProfileJob {
    type Output = ProfileReport;

    fn kind(&self) -> &'static str {
        "profile"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.section("kind", b"profile");
        h.section("workload", &self.workload.fingerprint_bytes());
        h.section("predictor", self.predictor.as_bytes());
        h.section("instruction_limit", &self.instruction_limit.to_le_bytes());
        h.finish()
    }

    fn describe(&self) -> String {
        format!("{} [{}] profile/{}", self.workload.name, self.workload.variant, self.predictor)
    }

    fn execute(&self) -> ProfileReport {
        profile(&self.workload, &self.predictor, self.instruction_limit)
            .unwrap_or_else(|e| panic!("{} [{}] profile failed: {e}", self.workload.name, self.workload.variant))
    }

    fn result_to_json(out: &ProfileReport) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        put_u64_fields!(s, out, instructions, branches, mispredictions);
        s.push_str(",\"per_branch\":[");
        for (i, (pc, b)) in out.per_branch.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{pc},{{");
            put_u64_fields!(s, b, executed, taken, mispredicted);
            s.push_str("}]");
        }
        s.push_str("]}");
        s
    }

    fn result_from_json(&self, v: &Json) -> Option<ProfileReport> {
        // The `&'static str` fields can't live in the cache; rebuild them
        // from the job, exactly as `profile()` would have set them.
        let mut rep = ProfileReport {
            name: self.workload.name,
            predictor: predictor_by_name(&self.predictor)?.name(),
            instructions: 0,
            branches: 0,
            mispredictions: 0,
            per_branch: BTreeMap::new(),
        };
        take_u64_fields!(v, rep, instructions, branches, mispredictions);
        for entry in v.get("per_branch")?.as_arr()? {
            let pair = entry.as_arr()?;
            let [pc, body] = pair else { return None };
            let pc = u32::try_from(pc.as_u64()?).ok()?;
            let mut b = cfd_profile::BranchProfile::default();
            take_u64_fields!(body, b, executed, taken, mispredicted);
            rep.per_branch.insert(pc, b);
        }
        Some(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut stats = CoreStats {
            cycles: 1234,
            retired: 5678,
            mispredictions: 9,
            bq_push_stall_cycles: 17,
            cpi_slots: [900, 8, 7, 6, 5, 4, 3, 2, 1],
            ..Default::default()
        };
        stats.branches.insert(
            4,
            BranchStat { executed: 100, taken: 60, mispredicted: 9, mispredicted_by_level: [1, 2, 3, 0, 3] },
        );
        RunReport {
            stats,
            events: EventCounts { cycles: 1234, fetched: 9000, bq_ops: 7, ..Default::default() },
            cache_stats: (
                CacheStats { accesses: 10, hits: 8, writebacks: 1 },
                CacheStats { accesses: 2, hits: 1, writebacks: 0 },
                CacheStats { accesses: 1, hits: 0, writebacks: 0 },
            ),
            mshr_histogram: vec![5, 4, 3],
            level_counts: [7, 2, 1, 1],
            injection: Some(InjectionRecord {
                kind: FaultKind::MemDelay(25),
                cycle: 900,
                site: FaultKind::MemDelay(25).site().name(),
            }),
        }
    }

    #[test]
    fn run_report_roundtrips_exactly() {
        let r = sample_report();
        let json = run_report_to_json(&r);
        let back = run_report_from_json(&Json::parse(&json).unwrap()).unwrap();
        // Re-serializing the decoded report must reproduce the bytes —
        // the property warm-cache byte-stability rests on.
        assert_eq!(run_report_to_json(&back), json);
        assert_eq!(back.stats.cycles, 1234);
        assert_eq!(back.stats.cpi_slots, [900, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(back.stats.branches[&4].mispredicted_by_level, [1, 2, 3, 0, 3]);
        assert_eq!(back.cache_stats.0.hits, 8);
        assert_eq!(back.level_counts, [7, 2, 1, 1]);
        let inj = back.injection.unwrap();
        assert_eq!(inj.kind, FaultKind::MemDelay(25));
        assert_eq!(inj.site, "execute.load");
    }

    #[test]
    fn run_report_without_injection_roundtrips() {
        let mut r = sample_report();
        r.injection = None;
        let json = run_report_to_json(&r);
        let back = run_report_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(back.injection.is_none());
        assert_eq!(run_report_to_json(&back), json);
    }

    #[test]
    fn fault_kinds_roundtrip_by_name() {
        for kind in [
            FaultKind::PredictorFlip,
            FaultKind::BqCorrupt,
            FaultKind::BqDrop,
            FaultKind::TqCorrupt,
            FaultKind::VqRemapCorrupt,
        ] {
            assert_eq!(fault_kind_by_name(kind.name(), None), Some(kind));
        }
        assert_eq!(fault_kind_by_name("mem_delay", Some(30)), Some(FaultKind::MemDelay(30)));
        assert_eq!(fault_kind_by_name("mem_delay", None), None);
        assert_eq!(fault_kind_by_name("unknown", None), None);
    }

    #[test]
    fn truncated_report_is_rejected() {
        let v = Json::parse(r#"{"stats":{"cycles":1}}"#).unwrap();
        assert!(run_report_from_json(&v).is_none());
    }
}
