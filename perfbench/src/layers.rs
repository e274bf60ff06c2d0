//! The layer probe of a traced run: every layer measured on the
//! workload's own kernels, each call inside a span, so one traced run
//! reports every per-layer metric for every workload.
//!
//! The predictor and memory layers are measured from outside: each
//! kernel's retired branch and data-access streams are recorded once and
//! replayed into every predictor's `observe` and through a fresh
//! `Hierarchy::access`.

use crate::measure::Ctx;
use crate::plan::{CYCLE_LIMIT, INSTRUCTION_LIMIT, PREDICTORS};
use crate::replay::{self, ExecLog};
use crate::report::Metrics;
use crate::trace::Tracer;
use cfd_core::{run_sampled, Core, CoreConfig, SampleConfig, StageProfile};
use cfd_exec::{run_report_to_json, CacheLoad, CampaignJob, DiskCache, Journal, JournalRecord, SimJob};
use cfd_isa::{Machine, NullSink, RetireEvent};
use cfd_mem::Hierarchy;
use cfd_predictor::predictor_by_name;
use cfd_serve::SweepConfig;
use cfd_workloads::Workload;

/// Per-layer metric of each stage bucket, in `cfd_core::STAGE_NAMES` order.
const STAGE_METRICS: [&str; 5] = [
    "core.frontend_ns_per_cycle",
    "core.dispatch_ns_per_cycle",
    "core.scheduler_ns_per_cycle",
    "core.lsq_ns_per_cycle",
    "core.commit_ns_per_cycle",
];

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A kernel's retired streams: plain conditional branches `(pc, taken)`
/// and data accesses `(pc, addr, is_store, now)`, with the retirement
/// count as the hierarchy clock (as sampled simulation's warming does).
#[derive(Default)]
struct Streams {
    branches: Vec<(u64, bool)>,
    accesses: Vec<(u64, u64, bool, u64)>,
}

fn record_streams(w: &Workload) -> Result<Streams, String> {
    let mut s = Streams::default();
    let mut m = Machine::new(w.program.clone(), w.mem.clone());
    m.run(INSTRUCTION_LIMIT, &mut |ev: &RetireEvent| {
        let pc = u64::from(ev.pc) << 2;
        if let (true, Some(taken)) = (ev.instr.is_plain_conditional(), ev.taken) {
            s.branches.push((pc, taken));
        }
        if let Some(a) = &ev.mem {
            s.accesses.push((pc, a.addr, a.is_store, ev.seq + 1));
        }
    })
    .map_err(|e| format!("{} [{}] functional: {e}", w.name, w.variant))?;
    Ok(s)
}

/// Runs the probe over `items` and `sweeps` and sets every per-layer
/// metric except the ones taken from set-up and the passes. Its spans go
/// to a recorder of their own, returned for the trace file.
///
/// # Errors
///
/// When a scratch directory or the journal cannot be created.
pub fn probe(ctx: &mut Ctx, items: &[Workload], sweeps: &[SweepConfig], out: &mut Metrics) -> Result<Tracer, String> {
    let mut tr = Tracer::new(true);
    core_layer(ctx, &mut tr, items, out);
    functional_layers(ctx, &mut tr, items, out);
    exec_layer(ctx, &mut tr, items, out)?;
    for sweep in sweeps {
        let expanded = tr.span("serve.expand", |_| sweep.expand());
        ctx.checks.check(expanded.is_ok(), || format!("expanding {}: {:?}", sweep.describe(), expanded.err()));
    }
    out.set("serve.expand_ms", tr.total("serve.expand").total_ns as f64 / 1e6);
    Ok(tr)
}

/// cfd-core: construction, a plain and a profiled run of each kernel
/// (their reports must match byte for byte), and a sampled run.
fn core_layer(ctx: &mut Ctx, tr: &mut Tracer, items: &[Workload], out: &mut Metrics) {
    let cfg = CoreConfig::default();
    for _ in 0..ctx.plan.core_new_repeats {
        for w in items {
            let (program, mem) = (w.program.clone(), w.mem.clone());
            let core = tr.span("core.new", |_| Core::new(cfg.clone(), program, mem));
            ctx.checks.check(core.is_ok(), || format!("{}: Core::new failed", w.name));
        }
    }
    let mut stages = StageProfile::default();
    let (mut retired, mut fetched, mut cycles) = (0u64, 0u64, 0u64);
    let (mut detail, mut total, mut intervals, mut errs) = (0u64, 0u64, 0u64, Vec::new());
    for w in items {
        let plain = Core::new(cfg.clone(), w.program.clone(), w.mem.clone())
            .and_then(|core| tr.span("core.run", |_| core.run(CYCLE_LIMIT)));
        let profiled = Core::new(cfg.clone(), w.program.clone(), w.mem.clone())
            .and_then(|core| tr.span("core.run_profiled", |_| core.run_profiled(CYCLE_LIMIT)));
        let (plain, profiled) = match (plain, profiled) {
            (Ok(a), Ok((b, p))) => (a, (b, p)),
            (a, b) => {
                ctx.checks.check(false, || format!("{}: {:?} / {:?}", w.name, a.err(), b.err()));
                continue;
            }
        };
        ctx.checks.check(run_report_to_json(&plain) == run_report_to_json(&profiled.0), || {
            format!("{}: the profiled run's report differs from the plain run's", w.name)
        });
        stages.merge(&profiled.1);
        retired += plain.stats.retired;
        fetched += plain.stats.fetched;
        cycles += plain.stats.cycles;

        let (program, mem) = (w.program.clone(), w.mem.clone());
        match tr
            .span("core.run_sampled", |_| run_sampled(cfg.clone(), program, mem, SampleConfig::default(), CYCLE_LIMIT))
        {
            Ok(s) => {
                detail += s.warmup_instructions + s.measured_instructions;
                total += s.total_instructions;
                intervals += s.intervals;
                if s.intervals > 0 && plain.ipc() > 0.0 {
                    errs.push((s.ipc_estimate() - plain.ipc()).abs() / plain.ipc() * 100.0);
                }
            }
            Err(e) => ctx.checks.check(false, || format!("{} sampled: {e}", w.name)),
        }
    }
    for (i, name) in STAGE_METRICS.into_iter().enumerate() {
        out.set(name, ratio(stages.ns[i], stages.cycles));
    }
    out.set("core.ready_checks_per_kcycle", ratio(stages.sched_ready_checks * 1000, stages.cycles));
    let (plain_ns, profiled_ns) = (tr.total("core.run").total_ns, tr.total("core.run_profiled").total_ns);
    out.set("core.run_s", plain_ns as f64 / 1e9);
    let new = tr.total("core.new");
    out.set("core.new_us", ratio(new.total_ns, new.count) / 1e3);
    out.set("core.useful_fetch_ratio", ratio(retired, fetched));
    out.set("core.cycles", cycles as f64);
    out.set("core.retired", retired as f64);
    out.set("core.profile_overhead_pct", (ratio(profiled_ns, plain_ns) - 1.0) * 100.0);
    out.set("sampled.run_s", tr.total("core.run_sampled").total_ns as f64 / 1e9);
    out.set("sampled.detail_frac", ratio(detail, total));
    out.set("sampled.intervals", intervals as f64);
    out.set("sampled.ipc_err_pct", mean(&errs));
}

/// cfd-isa, cfd-predictor, cfd-mem and cfd-profile, each on the
/// kernels' functional execution.
fn functional_layers(ctx: &mut Ctx, tr: &mut Tracer, items: &[Workload], out: &mut Metrics) {
    let hierarchy = CoreConfig::default().hierarchy;
    let (mut instructions, mut observes, mut accesses) = (0u64, 0u64, 0u64);
    let (mut tage, mut tage_misses, mut l1_hits, mut l1_accesses) = (0u64, 0u64, 0u64, 0u64);
    for w in items {
        let mut m = Machine::new(w.program.clone(), w.mem.clone());
        let count = match tr.span("isa.run", |_| m.run(INSTRUCTION_LIMIT, &mut NullSink)) {
            Ok(s) => s.retired,
            Err(e) => {
                ctx.checks.check(false, || format!("{} functional: {e}", w.name));
                continue;
            }
        };
        instructions += count;
        let streams = match record_streams(w) {
            Ok(s) => s,
            Err(e) => {
                ctx.checks.check(false, || e);
                continue;
            }
        };
        for name in PREDICTORS {
            let mut p = predictor_by_name(name).expect("the benchmark names known predictors");
            let misses =
                tr.span("predictor.observe", |_| streams.branches.iter().filter(|&&(pc, t)| p.observe(pc, t)).count());
            observes += streams.branches.len() as u64;
            if name == "isl-tage" {
                tage += streams.branches.len() as u64;
                tage_misses += misses as u64;
            }
        }
        let mut h = Hierarchy::new(hierarchy.clone());
        tr.span("mem.access", |_| {
            for &(pc, addr, store, now) in &streams.accesses {
                h.access(pc, addr, store, now);
                h.advance(now);
            }
        });
        accesses += streams.accesses.len() as u64;
        let l1 = h.cache_stats().0;
        l1_hits += l1.hits;
        l1_accesses += l1.accesses;
        for name in PREDICTORS {
            match tr.span("profile.profile", |_| cfd_profile::profile(w, name, INSTRUCTION_LIMIT)) {
                Ok(r) => ctx.checks.check(r.instructions == count, || {
                    format!("{} {name}: profiled {} instructions, functional run {count}", w.name, r.instructions)
                }),
                Err(e) => ctx.checks.check(false, || format!("{} profile {name}: {e}", w.name)),
            }
        }
    }
    out.set("isa.step_ns", ratio(tr.total("isa.run").total_ns, instructions));
    out.set("predictor.observe_ns", ratio(tr.total("predictor.observe").total_ns, observes));
    out.set("predictor.mispredict_ratio", ratio(tage_misses, tage));
    out.set("mem.access_ns", ratio(tr.total("mem.access").total_ns, accesses));
    out.set("mem.l1d_hit_ratio", ratio(l1_hits, l1_accesses));
    out.set("profile.run_s", tr.total("profile.profile").total_ns as f64 / 1e9);
}

/// cfd-exec: a cold batch through the engine with per-job execute times,
/// a warm replay, then fingerprint, cache store/load and journal append
/// timed one call at a time on the batch's own results.
fn exec_layer(ctx: &mut Ctx, tr: &mut Tracer, items: &[Workload], out: &mut Metrics) -> Result<(), String> {
    let workers = ctx.plan.jobs;
    let jobs: Vec<SimJob> = items
        .iter()
        .map(|w| SimJob { workload: w.clone(), cfg: CoreConfig::default(), cycle_limit: CYCLE_LIMIT })
        .collect();
    let dir = ctx.fresh_dir("probe-exec")?;
    let log = ExecLog::default();
    let timed = replay::timed(&jobs, &log);
    let engine = replay::engine(&dir, workers);
    let results = tr.span("exec.run_all", |tr| {
        let results = engine.run_all(&timed);
        for &(start, end) in log.lock().expect("execute log poisoned").iter().flatten() {
            tr.record("exec.execute", start, end);
        }
        results
    });
    let executed = engine.stats().executed;
    let jsons: Vec<String> =
        results.iter().map(|r| r.as_ref().map_or_else(|_| String::new(), run_report_to_json)).collect();
    for (job, r) in jobs.iter().zip(&results) {
        ctx.checks.check(r.is_ok(), || format!("{}: {:?}", job.describe(), r.as_ref().err()));
    }
    let warm = replay::engine(&dir, workers);
    let replayed = tr.span("exec.replay", |_| warm.run_all(&jobs));
    for ((job, r), want) in jobs.iter().zip(&replayed).zip(&jsons) {
        let same = matches!(r, Ok(out) if run_report_to_json(out) == *want);
        ctx.checks.check(same, || format!("{}: replay differs from the executed result", job.describe()));
    }
    let cache_hits = warm.stats().cache_hits;

    let fps: Vec<_> = jobs.iter().map(|j| tr.span("exec.fingerprint", |_| j.fingerprint())).collect();
    let store_dir = ctx.fresh_dir("probe-store")?;
    let cache = DiskCache::new(&store_dir);
    for ((job, fp), json) in jobs.iter().zip(&fps).zip(&jsons) {
        let stored = tr.span("exec.cache_store", |_| cache.store(job.kind(), *fp, &job.describe(), json));
        ctx.checks.check(stored.is_ok(), || format!("{}: cache store: {:?}", job.describe(), stored.err()));
    }
    for (job, fp) in jobs.iter().zip(&fps) {
        let loaded = tr.span("exec.cache_load", |_| cache.load_checked(job.kind(), *fp));
        ctx.checks.check(matches!(loaded, CacheLoad::Hit(_)), || format!("{}: cache load missed", job.describe()));
    }
    let journal = Journal::create(&store_dir.join("probe.wal")).map_err(|e| format!("journal: {e}"))?;
    for (i, fp) in fps.iter().enumerate() {
        let rec = JournalRecord::Done { index: i as u64, fp: fp.hex() };
        let appended = tr.span("exec.journal_append", |_| journal.append(&rec));
        ctx.checks.check(appended.is_ok(), || format!("journal append: {:?}", appended.err()));
    }

    let t = tr.totals();
    let per_call_us = |name: &str| t.get(name).map_or(0.0, |s| ratio(s.total_ns, s.count) / 1e3);
    let run_all_ns = tr.total("exec.run_all").total_ns;
    let execute_ns = tr.total("exec.execute").total_ns;
    out.set("exec.run_all_s", run_all_ns as f64 / 1e9);
    out.set("exec.fingerprint_us", per_call_us("exec.fingerprint"));
    out.set("exec.execute_ms", ratio(execute_ns, jobs.len() as u64) / 1e6);
    out.set("exec.worker_util", ratio(execute_ns, workers as u64 * run_all_ns));
    out.set("exec.cache_store_us", per_call_us("exec.cache_store"));
    out.set("exec.cache_load_us", per_call_us("exec.cache_load"));
    out.set("exec.journal_append_us", per_call_us("exec.journal_append"));
    out.set("exec.executed", executed as f64);
    out.set("exec.cache_hits", cache_hits as f64);
    Ok(())
}
