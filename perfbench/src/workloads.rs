//! The four workloads. Each builds its inputs from the seed (the timed
//! set-up), measures passes over them, checks every output against the
//! functional simulator, serves its results back from a warm result
//! cache, and folds its simulated statistics into a digest.

use crate::measure::{ns_since, Clocked, Ctx, Digest, Pass};
use crate::plan::{data_seed, default_variant, CYCLE_LIMIT, INSTRUCTION_LIMIT, PREDICTORS};
use crate::replay::{self, ExecLog};
use cfd_core::{run_sampled, Core, CoreConfig, CoreError, RunReport, SampleConfig};
use cfd_exec::{run_report_to_json, CampaignJob, ProfileJob, SimJob};
use cfd_serve::SweepConfig;
use cfd_workloads::{by_name, catalog, Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// What a workload hands back for reporting.
#[derive(Debug)]
pub struct Measured {
    /// Median time to build the inputs, in seconds.
    pub setup_s: f64,
    /// The measured passes.
    pub passes: Vec<Pass>,
    /// Kernels the layer probe measures: the workload's own inputs.
    pub probe_items: Vec<Workload>,
    /// Sweeps the layer probe expands.
    pub probe_sweeps: Vec<SweepConfig>,
    /// Further figures for the human-readable report.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// Every catalog kernel in its default variant.
fn build_kernels(ctx: &mut Ctx, scale: Scale) -> Vec<Workload> {
    catalog().iter().map(|e| ctx.tr.span("workloads.build", |_| e.build(default_variant(e), scale))).collect()
}

/// Instruction count of each workload's functional run: the reference
/// every simulated run is checked against.
fn functional_counts(ctx: &mut Ctx, workloads: &[Workload]) -> Vec<u64> {
    workloads
        .iter()
        .map(|w| match w.dynamic_instructions() {
            Ok(n) => n,
            Err(e) => {
                ctx.checks.check(false, || format!("{} [{}] functional run: {e}", w.name, w.variant));
                u64::MAX
            }
        })
        .collect()
}

/// Detailed-simulation jobs for `workloads` on the default core.
fn sim_jobs(workloads: &[Workload]) -> Vec<SimJob> {
    workloads
        .iter()
        .map(|w| SimJob { workload: w.clone(), cfg: CoreConfig::default(), cycle_limit: CYCLE_LIMIT })
        .collect()
}

/// One-point sweeps submitting each workload on the default core, as a
/// daemon client would.
fn one_point_sweeps(workloads: &[Workload], scale_n: usize) -> Vec<SweepConfig> {
    let c = CoreConfig::default();
    workloads
        .iter()
        .map(|w| SweepConfig {
            workload: w.name.to_string(),
            variant: w.variant.label().to_string(),
            scale_n,
            predictors: vec![c.predictor.clone()],
            bq: vec![c.bq_size],
            vq: vec![c.vq_size],
            tq: vec![c.tq_size],
            widths: vec![(c.width, c.issue_width)],
            l1_kb: vec![c.hierarchy.l1.size_bytes / 1024],
        })
        .collect()
}

/// Checks a detailed run: it must succeed and retire exactly the
/// functional instruction count.
fn checked(ctx: &mut Ctx, w: &Workload, want: u64, run: Result<RunReport, CoreError>) -> Option<RunReport> {
    match run {
        Ok(r) => {
            let got = r.stats.retired;
            ctx.checks.check(got == want, || {
                format!("{} [{}]: retired {got}, functional run executed {want}", w.name, w.variant)
            });
            Some(r)
        }
        Err(e) => {
            ctx.checks.check(false, || format!("{} [{}]: {e}", w.name, w.variant));
            None
        }
    }
}

fn fold_report(d: &mut Digest, r: &RunReport) {
    d.fold(&[r.stats.cycles, r.stats.retired, r.stats.mispredictions]);
}

/// `detail`: every catalog kernel through `Core::new` + `Core::run`.
///
/// # Errors
///
/// When a scratch directory or cache store fails.
pub fn detail(ctx: &mut Ctx) -> Result<Measured, String> {
    let scale = ctx.plan.scale(ctx.seed);
    let (kernels, setup_s) = ctx.setup(|ctx| Ok(build_kernels(ctx, scale)))?;
    let counts = functional_counts(ctx, &kernels);
    let cfg = CoreConfig::default();
    let jobs = sim_jobs(&kernels);
    let replay_dir = ctx.fresh_dir("replay")?;
    let mut stored: Option<Vec<String>> = None;
    let passes = ctx.run_passes(|ctx| {
        let (mut pass, mut digest, mut results) = (Pass::default(), Digest::default(), Vec::new());
        for (w, &want) in kernels.iter().zip(&counts) {
            let (program, mem) = (w.program.clone(), w.mem.clone());
            let t = Instant::now();
            let run = ctx
                .tr
                .span("core.new", |_| Core::new(cfg.clone(), program, mem))
                .and_then(|core| ctx.tr.span("core.run", |_| core.run(CYCLE_LIMIT)));
            let ns = ns_since(t);
            let factor = ctx.host.sample();
            let json = checked(ctx, w, want, run).map_or_else(String::new, |r| {
                fold_report(&mut digest, &r);
                pass.item(w.name, r.stats.retired, ns, factor);
                run_report_to_json(&r)
            });
            results.push(json);
        }
        pass.digest = digest.value();
        let expected = match stored {
            Some(ref s) => s,
            None => {
                replay::store(&replay_dir, &jobs, &results)?;
                stored.insert(results)
            }
        };
        (pass.replay_points, pass.replay) = replay::replay(ctx, &replay_dir, &jobs, expected);
        Ok(pass)
    })?;
    Ok(Measured {
        setup_s,
        passes,
        probe_sweeps: one_point_sweeps(&kernels, ctx.plan.scale_n),
        probe_items: kernels,
        extra: Vec::new(),
    })
}

/// `sampled`: the same kernels through `run_sampled`, with the default
/// sampling shape. The full-detail reference runs outside the passes.
///
/// # Errors
///
/// When a scratch directory or cache store fails.
pub fn sampled(ctx: &mut Ctx) -> Result<Measured, String> {
    let scale = ctx.plan.scale(ctx.seed);
    let (kernels, setup_s) = ctx.setup(|ctx| Ok(build_kernels(ctx, scale)))?;
    let counts = functional_counts(ctx, &kernels);
    let cfg = CoreConfig::default();
    let jobs = sim_jobs(&kernels);
    let mut reference = Digest::default();
    let (mut ipc_full, mut results) = (Vec::new(), Vec::new());
    for (w, &want) in kernels.iter().zip(&counts) {
        let run = Core::new(cfg.clone(), w.program.clone(), w.mem.clone()).and_then(|c| c.run(CYCLE_LIMIT));
        let r = checked(ctx, w, want, run);
        ipc_full.push(r.as_ref().map_or(0.0, RunReport::ipc));
        results.push(r.map_or_else(String::new, |r| {
            fold_report(&mut reference, &r);
            run_report_to_json(&r)
        }));
    }
    let replay_dir = ctx.fresh_dir("replay")?;
    replay::store(&replay_dir, &jobs, &results)?;
    let mut errors: Option<Vec<f64>> = None;
    let passes = ctx.run_passes(|ctx| {
        let (mut pass, mut digest, mut errs) = (Pass::default(), reference, Vec::new());
        for ((w, &want), &ipc) in kernels.iter().zip(&counts).zip(&ipc_full) {
            let (program, mem) = (w.program.clone(), w.mem.clone());
            let t = Instant::now();
            let run = ctx.tr.span("core.run_sampled", |_| {
                run_sampled(cfg.clone(), program, mem, SampleConfig::default(), CYCLE_LIMIT)
            });
            let ns = ns_since(t);
            let factor = ctx.host.sample();
            match run {
                Ok(s) => {
                    let got = s.total_instructions;
                    ctx.checks.check(got == want, || {
                        format!("{} [{}]: sampled run saw {got} instructions, functional run {want}", w.name, w.variant)
                    });
                    digest.fold(&[
                        s.measured_instructions,
                        s.measured_cycles,
                        s.ff_instructions,
                        s.warmup_instructions,
                        got,
                        s.intervals,
                    ]);
                    pass.item(w.name, got, ns, factor);
                    if s.intervals > 0 && ipc > 0.0 {
                        errs.push((s.ipc_estimate() - ipc).abs() / ipc * 100.0);
                    }
                }
                Err(e) => ctx.checks.check(false, || format!("{} [{}] sampled: {e}", w.name, w.variant)),
            }
        }
        pass.digest = digest.value();
        errors.get_or_insert(errs);
        (pass.replay_points, pass.replay) = replay::replay(ctx, &replay_dir, &jobs, &results);
        Ok(pass)
    })?;
    let errs = errors.unwrap_or_default();
    let ipc_err_pct = if errs.is_empty() { 0.0 } else { errs.iter().sum::<f64>() / errs.len() as f64 };
    Ok(Measured {
        setup_s,
        passes,
        probe_sweeps: one_point_sweeps(&kernels, ctx.plan.scale_n),
        probe_items: kernels,
        extra: vec![("ipc_err_pct", ipc_err_pct, "%")],
    })
}

/// `profile`: every catalog kernel × variant × predictor through
/// `cfd_profile::profile`.
///
/// # Errors
///
/// When a scratch directory or cache store fails.
pub fn profile(ctx: &mut Ctx) -> Result<Measured, String> {
    let scale = ctx.plan.scale(ctx.seed);
    let (items, setup_s) = ctx.setup(|ctx| {
        let mut items = Vec::new();
        for e in catalog() {
            for &v in e.variants {
                items.push(ctx.tr.span("workloads.build", |_| e.build(v, scale)));
            }
        }
        Ok(items)
    })?;
    let counts = functional_counts(ctx, &items);
    let jobs: Vec<ProfileJob> = items
        .iter()
        .flat_map(|w| {
            PREDICTORS.iter().map(|p| ProfileJob {
                workload: w.clone(),
                predictor: p.to_string(),
                instruction_limit: INSTRUCTION_LIMIT,
            })
        })
        .collect();
    let replay_dir = ctx.fresh_dir("replay")?;
    let mut stored: Option<Vec<String>> = None;
    let passes = ctx.run_passes(|ctx| {
        let (mut pass, mut digest, mut results) = (Pass::default(), Digest::default(), Vec::new());
        // Profile runs are short: the host is sampled once per kernel,
        // after all of its variants and predictors.
        let mut pending = Vec::new();
        for (i, (w, &want)) in items.iter().zip(&counts).enumerate() {
            for predictor in PREDICTORS {
                let t = Instant::now();
                let run = ctx.tr.span("profile.profile", |_| cfd_profile::profile(w, predictor, INSTRUCTION_LIMIT));
                let ns = ns_since(t);
                match run {
                    Ok(r) => {
                        let got = r.instructions;
                        ctx.checks.check(got == want, || {
                            format!(
                                "{} [{}] {predictor}: profiled {got} instructions, functional run {want}",
                                w.name, w.variant
                            )
                        });
                        digest.fold(&[got, r.branches, r.mispredictions]);
                        pending.push((got, ns));
                        results.push(ProfileJob::result_to_json(&r));
                    }
                    Err(e) => {
                        ctx.checks.check(false, || format!("{} [{}] {predictor}: {e}", w.name, w.variant));
                        results.push(String::new());
                    }
                }
            }
            if items.get(i + 1).is_none_or(|next| next.name != w.name) {
                let factor = ctx.host.sample();
                for (instructions, ns) in pending.drain(..) {
                    pass.item(w.name, instructions, ns, factor);
                }
            }
        }
        pass.digest = digest.value();
        let expected = match stored {
            Some(ref s) => s,
            None => {
                replay::store(&replay_dir, &jobs, &results)?;
                stored.insert(results)
            }
        };
        (pass.replay_points, pass.replay) = replay::replay(ctx, &replay_dir, &jobs, expected);
        Ok(pass)
    })?;
    let probe_items: Vec<Workload> =
        items.into_iter().filter(|w| by_name(w.name).is_some_and(|e| default_variant(&e) == w.variant)).collect();
    Ok(Measured {
        setup_s,
        passes,
        probe_sweeps: one_point_sweeps(&probe_items, ctx.plan.scale_n),
        probe_items,
        extra: Vec::new(),
    })
}

/// `campaign`: a DSE grid over seeded kernels through `Engine::run_all`
/// with the cache and journal on, in a fresh directory per pass; a fresh
/// engine then replays the grid from the warm cache.
///
/// # Errors
///
/// When a sweep does not expand or a scratch directory fails.
pub fn campaign(ctx: &mut Ctx) -> Result<Measured, String> {
    let seed = data_seed(ctx.seed);
    let workers = ctx.plan.jobs;
    let grid = ctx.plan.grid.clone();
    let (points, setup_s) = ctx.setup(|ctx| {
        let mut points: Vec<SimJob> = Vec::new();
        for sweep in &grid {
            let expanded = ctx.tr.span("serve.expand", |_| sweep.expand())?;
            let entry = by_name(&sweep.workload).ok_or_else(|| format!("unknown kernel {}", sweep.workload))?;
            let variant = expanded.first().ok_or("empty sweep")?.job.workload.variant;
            let w = ctx.tr.span("workloads.build", |_| entry.build(variant, Scale { n: sweep.scale_n, seed }));
            points.extend(expanded.into_iter().map(|p| SimJob { workload: w.clone(), ..p.job }));
        }
        let dir = ctx.fresh_dir("setup")?;
        drop(ctx.tr.span("exec.engine_new", |_| replay::engine(&dir, workers)));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(points)
    })?;
    let kernels: Vec<Workload> = {
        let mut seen = BTreeMap::new();
        for p in &points {
            seen.entry(p.workload.name).or_insert_with(|| p.workload.clone());
        }
        seen.into_values().collect()
    };
    let counts: BTreeMap<&'static str, u64> =
        kernels.iter().map(|w| w.name).zip(functional_counts(ctx, &kernels)).collect();
    let log = ExecLog::default();
    let passes = ctx.run_passes(|ctx| {
        let dir = ctx.fresh_dir("campaign")?;
        let engine = replay::engine(&dir, workers);
        let jobs = replay::timed(&points, &log);
        let t0 = Instant::now();
        let results = ctx.tr.span("exec.run_all", |tr| {
            let results = engine.run_all(&jobs);
            for &(start, end) in log.lock().expect("execute log poisoned").iter().flatten() {
                tr.record("exec.execute", start, end);
            }
            results
        });
        let wall = ns_since(t0);
        let factor = ctx.host.sample();
        let mut pass = Pass::default();
        let times = log.lock().expect("execute log poisoned").clone();
        let mut digest = Digest::default();
        let mut expected = Vec::new();
        for ((job, result), time) in points.iter().zip(&results).zip(&times) {
            let w = &job.workload;
            let json = match result {
                Ok(r) => {
                    let (got, want) = (r.stats.retired, counts[w.name]);
                    ctx.checks.check(got == want, || {
                        format!("{} [{}]: retired {got}, functional run executed {want}", w.name, w.variant)
                    });
                    fold_report(&mut digest, r);
                    digest.fold(&[r.ipc().to_bits(), r.stats.mpki().to_bits()]);
                    let ns = time.map_or(0, |(s, e)| u64::try_from((e - s).as_nanos()).unwrap_or(u64::MAX));
                    pass.item(w.name, got, ns, factor);
                    run_report_to_json(r)
                }
                Err(e) => {
                    ctx.checks.check(false, || format!("{}: {e}", job.describe()));
                    String::new()
                }
            };
            expected.push(json);
        }
        // The batch ran its jobs in parallel: its wall time, not the sum
        // of their execute times, is the primary path.
        pass.time = Clocked::default();
        pass.time.add(wall, factor);
        pass.digest = digest.value();
        (pass.replay_points, pass.replay) = replay::replay(ctx, &dir, &points, &expected);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(pass)
    })?;
    Ok(Measured { setup_s, passes, probe_items: kernels, probe_sweeps: grid, extra: Vec::new() })
}
