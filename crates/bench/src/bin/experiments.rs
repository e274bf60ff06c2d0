//! Experiment runner: regenerates the paper's tables and figures, and
//! runs fault-injection campaigns.
//!
//! ```text
//! Usage:
//!   experiments list          list available experiments
//!   experiments `<id>`...     run specific experiments (e.g. fig18 fig24)
//!   experiments all           run everything; also writes the deterministic
//!                             transcript to artifacts/experiments_output.txt
//!   experiments faults [opts] run a fault-injection campaign (see below)
//!   experiments lint [opts]   statically verify queue discipline of every
//!                             catalog workload and transform output; exits
//!                             non-zero on any error finding
//!   experiments separability [opts]
//!                             catalog-wide separability table: every
//!                             analyzed branch, its heuristic vs precise
//!                             class, the automatic CFD/CFD-TQ/speculative
//!                             selection, and the differential gates on
//!                             every accepted rewrite (lint, functional
//!                             equivalence, dynamic disjointness claims);
//!                             exits non-zero when any gate fails
//!   experiments observe <workload> [opts]
//!                             one telemetry-armed run: CPI stack, ASCII
//!                             IPC/occupancy timeline, CSV time series and
//!                             a Perfetto trace (all byte-deterministic)
//!   experiments simperf [opts]
//!                             host-side simulator throughput: time one
//!                             telemetry-free run of every catalog workload
//!                             and report KIPS (timings are host-dependent;
//!                             the simulated columns stay deterministic)
//!   experiments ckpt [opts]   checkpoint-determinism sweep: run every
//!                             catalog workload straight and restored from
//!                             quarter-point checkpoints, byte-compare the
//!                             serialized reports, and write both JSONL
//!                             artifacts for the verify.sh cmp gate; exits
//!                             2 on any divergence
//!   experiments chaos [opts]  IO-fault chaos sweep over the campaign
//!                             engine's durability machinery (torn cache
//!                             writes, corrupt cache bytes, truncated
//!                             journals, mid-run kills); exits non-zero if
//!                             any injected fault silently diverges
//!   experiments dse [opts]    design-space exploration: expand a preset
//!                             config grid (predictor x BQ/VQ/TQ x widths
//!                             x L1), simulate every point, and emit the
//!                             per-point IPC/MPKI/EDP table plus the
//!                             Pareto frontier (byte-deterministic)
//!
//! Global options (any subcommand):
//!   --jobs N        worker threads for simulations (default $CFD_JOBS or 1);
//!                   results are byte-identical at any worker count
//!   --no-cache      bypass the on-disk result cache (target/cfd-cache)
//!   --resume        resume an interrupted campaign: replay completed
//!                   work from the cache, honour the job journal's strikes
//!                   and quarantine ledger, and re-execute only jobs that
//!                   never finished
//!   --retries N     re-run failed jobs up to N extra times in
//!                   deterministic fingerprint order; jobs that exhaust
//!                   their retries are quarantined in the journal ledger
//!   --timeout-cycles N
//!                   cancel any simulation that exceeds N simulated cycles
//!                   and record it as a timeout failure (deterministic:
//!                   the budget is checked on the simulated clock)
//!   --quiet         suppress the [cfd-exec] stats line on stderr
//!   --trace-out P   write the engine's job trace (Perfetto JSON) to P
//!
//! Observe options:
//!   --variant V     which transform to run (base, cfd, cfd+, ...; default base)
//!   --interval N    sampling interval in cycles (default 1000)
//!   --scale N       workload outer trip count (default catalog scale)
//!   --csv PATH      time-series CSV destination
//!                   (default artifacts/observe_<workload>_<variant>.csv)
//!   --trace-out P   pipeline-trace destination
//!                   (default artifacts/observe_<workload>_<variant>.trace.json)
//!
//! Lint options:
//!   --json PATH     write the JSON lint table to PATH ("-" = stdout)
//!
//! Separability options:
//!   --json PATH     write the JSON separability table to PATH ("-" = stdout)
//!
//! Campaign options:
//!   --seed N        trial-point seed (default 0xcfdfa017)
//!   --trials N      trials per (workload, fault) pair (default 1)
//!   --scale N       workload outer trip count (default 120)
//!   --smoke         small fast sweep (scale 40)
//!   --json PATH     write the JSON verdict table to PATH ("-" = stdout)
//!
//! Simperf options:
//!   --scale N       workload outer trip count (default catalog scale)
//!   --profile       run the catalog through the stage self-profiler
//!                   and print per-stage wall-time shares (sum to
//!                   exactly 100.00%) plus scheduler-efficiency counters
//!   --min-kips N    soft throughput floor: warn on stderr for every
//!                   workload simulating slower than N KIPS (timings are
//!                   host-dependent, so this never fails the run)
//!   --min-kips-hard N
//!                   hard throughput floor: like --min-kips but exits 3
//!                   when any workload falls below N KIPS. Meant for CI
//!                   hosts whose worst-case speed is known; set the floor
//!                   far below nominal so only a real regression trips it
//!   --sampled       run the sampled-simulation cross-check instead:
//!                   every workload runs once in full detail and once in
//!                   fast-forward/warmup/detail sampled mode, reporting
//!                   per-workload IPC error and wall-clock speedup. The
//!                   error column is deterministic; exits 4 when any
//!                   workload's error exceeds the --max-err bound
//!   --max-err P     sampled-mode IPC error bound in percent
//!                   (default 10; only meaningful with --sampled)
//!
//! Ckpt options:
//!   --scale N       workload outer trip count (default catalog scale)
//!   --straight-out PATH
//!                   straight-run JSONL destination
//!                   (default artifacts/ckpt_straight.json)
//!   --restored-out PATH
//!                   restored-run JSONL destination
//!                   (default artifacts/ckpt_restored.json)
//!
//! Dse options:
//!   --preset NAME   which sweep grid to run: `default` (the flagship
//!                   216-point grid) or `tiny` (8-point smoke grid)
//!   --out PATH      write the report to PATH instead of stdout
//!   --serve PATH    client mode: submit the sweep to the `cfd-serve`
//!                   daemon listening on Unix socket PATH instead of
//!                   simulating in-process (the report bytes are
//!                   identical either way)
//!   --log FILE      attach a JSONL event-log sink to the in-process
//!                   engine (batch lifecycle events; validate with
//!                   `cfd-serve logcheck`). File-only: stderr stays
//!                   byte-identical with and without it
//!   --log-level L   event-log severity floor for --log (error|warn|
//!                   info|debug|trace; default debug)
//!
//! Chaos options:
//!   --seed N        fault-shim seed (default 0xcfdc4a05)
//!   --scale N       probe workload outer trip count (default 40)
//!   --json PATH     write the JSON verdict table to PATH ("-" = stdout)
//! ```

use cfd_bench::experiments;
use cfd_exec::{Engine, ExecConfig, RetryPolicy};
use cfd_harden::{run_campaign_on, run_exec_chaos, CampaignConfig, ChaosConfig};
use cfd_workloads::Scale;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_global(ExecConfig::from_env(), &args).and_then(run) {
        die(e);
    }
}

/// Prints `msg` on stderr and exits 1: every usage and IO error.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The global flags, and everything else on the command line.
#[derive(Debug)]
struct Global {
    cfg: ExecConfig,
    quiet: bool,
    trace_out: Option<String>,
    /// The subcommand and its own arguments, in order.
    command: Vec<String>,
}

/// Takes the global flags out of `args`, applying them to `cfg`; every
/// other argument stays in [`Global::command`]. `observe` keeps its own
/// `--trace-out` (it names the *pipeline* trace, not the engine's job
/// trace).
fn parse_global(mut cfg: ExecConfig, args: &[String]) -> Result<Global, String> {
    let (mut quiet, mut trace_out, mut command) = (false, None, Vec::new());
    let (mut retries, mut timeout_cycles) = (0, 0);
    let positive = |flag: &str, n: u64| if n > 0 { Ok(n) } else { Err(format!("bad value for {flag}: `0`")) };
    let mut f = Flags::new("global", args);
    while let Some(a) = f.arg() {
        match a {
            "--jobs" => cfg.jobs = positive(a, f.num(a)?)? as usize,
            "--no-cache" => cfg.use_cache = false,
            "--resume" => cfg.resume = true,
            "--retries" => retries = f.num(a)?,
            "--timeout-cycles" => timeout_cycles = positive(a, f.num(a)?)?,
            "--quiet" => quiet = true,
            "--trace-out" if command.first().is_none_or(|c| c != "observe") => trace_out = Some(f.value(a)?),
            other => command.push(other.to_string()),
        }
    }
    if retries > 0 || timeout_cycles > 0 {
        cfg.policy = RetryPolicy::bounded(retries, timeout_cycles);
    }
    Ok(Global { cfg, quiet, trace_out, command })
}

impl Global {
    /// End-of-run chores: the stats line (unless `--quiet`) and the
    /// engine job trace (when `--trace-out` was given).
    fn finish(&self, engine: &Engine) -> Result<(), String> {
        if !self.quiet {
            eprintln!("{}", engine.stats_line());
        }
        if let Some(path) = &self.trace_out {
            write_file(path, &engine.trace_json())?;
            println!("engine trace written to {path}");
        }
        Ok(())
    }
}

/// A subcommand's arguments, read left to right.
struct Flags<'a> {
    cmd: &'static str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(cmd: &'static str, args: &'a [String]) -> Flags<'a> {
        Flags { cmd, args: args.iter() }
    }

    /// The next argument.
    fn arg(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The number following `flag`, decimal or `0x` hex.
    fn num(&mut self, flag: &str) -> Result<u64, String> {
        let v = self.value(flag)?;
        parse_u64(&v).ok_or_else(|| format!("bad value for {flag}: `{v}`"))
    }

    /// The error for a flag this subcommand does not take.
    fn unknown(&self, flag: &str) -> String {
        format!("unknown {} option `{flag}`", self.cmd)
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Writes `body` to `path`, creating its parent directory.
fn write_file(path: &str, body: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `--json PATH` output: `-` prints the table on stdout, a path gets
/// it written and a "`what` written to PATH" line.
fn emit_json(path: Option<&str>, what: &str, json: impl FnOnce() -> String) -> Result<(), String> {
    match path {
        None => {}
        Some("-") => println!("{}", json()),
        Some(path) => {
            write_file(path, &json())?;
            println!("{what} written to {path}");
        }
    }
    Ok(())
}

/// The only flag `lint` and `separability` take: `--json PATH`.
fn json_flag(cmd: &'static str, args: &[String]) -> Result<Option<String>, String> {
    let mut json = None;
    let mut f = Flags::new(cmd, args);
    while let Some(a) = f.arg() {
        match a {
            "--json" => json = Some(f.value(a)?),
            other => return Err(f.unknown(other)),
        }
    }
    Ok(json)
}

fn run(global: Global) -> Result<(), String> {
    let engine = Engine::new(global.cfg.clone());
    let (cmd, args) = global.command.split_first().map_or(("list", &[][..]), |(c, a)| (c.as_str(), a));
    match cmd {
        "list" => list(),
        "faults" => run_fault_campaign(&engine, &global, args),
        "chaos" => run_chaos(args),
        "simperf" => run_simperf(args),
        "ckpt" => run_ckpt(args),
        "dse" => run_dse(&engine, &global, args),
        "lint" => run_lint(&engine, &global, args),
        "separability" => run_separability(args),
        "observe" => run_observe(args),
        _ => run_experiments(&engine, &global),
    }
}

/// The `list` lines after the catalog's experiments.
const COMMANDS: [(&str, &str); 9] = [
    ("all", "run every experiment"),
    ("faults", "fault-injection campaign (--seed N --trials N --scale N --smoke --json PATH)"),
    ("lint", "static queue-discipline verification of catalog + transforms (--json PATH)"),
    ("separability", "catalog-wide branch classes, auto-CFD decisions, differential gates (--json PATH)"),
    ("observe", "telemetry-armed run of one workload (--variant V --interval N --scale N --csv P --trace-out P)"),
    ("simperf", "host-side simulator throughput over the catalog (--scale N --profile)"),
    ("chaos", "IO-fault chaos sweep over cache + journal durability (--seed N --scale N --json PATH)"),
    ("ckpt", "checkpoint-determinism sweep: straight vs quarter-point-restored runs (--scale N)"),
    ("dse", "DSE sweep with IPC/MPKI/EDP Pareto frontier (--preset default|tiny --out PATH --serve SOCKET)"),
];

fn list() -> Result<(), String> {
    println!("available experiments:");
    for (id, what) in experiments::all().iter().map(|e| (e.id, e.what)).chain(COMMANDS) {
        println!("  {id:8} {what}");
    }
    Ok(())
}

/// `experiments <id>...` and `experiments all`, which also writes the
/// transcript.
fn run_experiments(engine: &Engine, global: &Global) -> Result<(), String> {
    let all = global.command[0] == "all";
    let ids: Vec<String> =
        if all { experiments::all().iter().map(|e| e.id.to_string()).collect() } else { global.command.clone() };
    let mut transcript = String::new();
    for id in ids {
        let e = experiments::by_id(&id).ok_or_else(|| format!("unknown experiment `{id}` (try `list`)"))?;
        let t0 = Instant::now();
        let header = format!(
            "==============================================================\n\
             == {} — {}\n\
             ==============================================================\n",
            e.id, e.what
        );
        print!("{header}");
        let out = (e.run)(engine);
        println!("{out}");
        println!("[{} completed in {:.1}s]\n", e.id, t0.elapsed().as_secs_f64());
        transcript.push_str(&header);
        transcript.push_str(&out);
        transcript.push_str("\n\n");
    }
    if all {
        let path = "artifacts/experiments_output.txt";
        write_file(path, &transcript)?;
        println!("transcript written to {path}");
    }
    global.finish(engine)
}

fn run_observe(args: &[String]) -> Result<(), String> {
    use cfd_bench::observe::{observe, parse_variant, variant_slug, ObserveOptions};
    let mut name: Option<String> = None;
    let mut opts = ObserveOptions::default();
    let (mut csv_path, mut trace_path) = (None, None);
    let mut f = Flags::new("observe", args);
    while let Some(a) = f.arg() {
        match a {
            "--variant" => {
                let v = f.value(a)?;
                opts.variant = parse_variant(&v)
                    .ok_or_else(|| format!("unknown variant `{v}` (try base, cfd, cfd+, dfd, ...)"))?;
            }
            "--interval" => opts.interval = f.num(a)?,
            "--scale" => opts.scale.n = f.num(a)? as usize,
            "--csv" => csv_path = Some(f.value(a)?),
            "--trace-out" => trace_path = Some(f.value(a)?),
            other if other.starts_with("--") => return Err(f.unknown(other)),
            other => {
                if name.replace(other.to_string()).is_some() {
                    return Err("observe takes exactly one workload".into());
                }
            }
        }
    }
    let name = name.ok_or(
        "usage: experiments observe <workload> [--variant V] [--interval N] [--scale N] [--csv P] [--trace-out P]",
    )?;
    let obs = observe(&name, &opts)?;
    let slug = variant_slug(obs.variant);
    let csv_path = csv_path.unwrap_or_else(|| format!("artifacts/observe_{name}_{slug}.csv"));
    let trace_path = trace_path.unwrap_or_else(|| format!("artifacts/observe_{name}_{slug}.trace.json"));
    print!("{}", obs.render());
    write_file(&csv_path, &obs.csv())?;
    write_file(&trace_path, &obs.trace_json())?;
    println!("\ntime series written to {csv_path}");
    println!("pipeline trace written to {trace_path} (load in ui.perfetto.dev)");
    Ok(())
}

/// `experiments dse`: expand a preset grid, evaluate every point, print
/// the per-point table and Pareto frontier. With `--serve SOCKET` the
/// sweep runs on a `cfd-serve` daemon instead of in-process; the report
/// bytes are identical either way.
fn run_dse(engine: &Engine, global: &Global, args: &[String]) -> Result<(), String> {
    use cfd_serve::SweepConfig;
    let mut preset = "default".to_string();
    let (mut out_path, mut serve_socket, mut log_path) = (None, None, None);
    let mut log_level = cfd_obs::Level::Debug;
    let mut f = Flags::new("dse", args);
    while let Some(a) = f.arg() {
        match a {
            "--preset" => preset = f.value(a)?,
            "--out" => out_path = Some(f.value(a)?),
            "--serve" => serve_socket = Some(f.value(a)?),
            "--log" => log_path = Some(f.value(a)?),
            "--log-level" => log_level = cfd_obs::Level::parse(&f.value(a)?)?,
            other => return Err(f.unknown(other)),
        }
    }
    // --log attaches a file-only JSONL event sink to the engine (level
    // --log-level, default debug). File-only on purpose: stderr and the
    // golden transcript stay byte-identical with and without it.
    if let Some(path) = &log_path {
        let log = cfd_obs::EventLog::new(log_level).with_file(std::path::Path::new(path))?;
        engine.set_log(Some(std::sync::Arc::new(log)));
    }
    let cfg = SweepConfig::preset(&preset).ok_or_else(|| format!("unknown preset `{preset}` (have: default, tiny)"))?;
    let t0 = Instant::now();
    let points = cfg.expand().map(|p| p.len()).unwrap_or(0);
    eprintln!("dse sweep: {} ({} grid points, preset `{preset}`)", cfg.describe(), points);
    let report = match &serve_socket {
        Some(socket) => dse_via_daemon(socket, &cfg),
        None => cfd_serve::run_sweep(engine, &cfg).map_err(|e| format!("dse sweep failed: {e}")),
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    match &out_path {
        Some(path) => {
            write_file(path, &report)?;
            println!("DSE report written to {path}");
        }
        None => print!("{report}"),
    }
    println!("[dse completed in {:.1}s: {points} grid points]", t0.elapsed().as_secs_f64());
    if serve_socket.is_none() {
        global.finish(engine)?;
    }
    Ok(())
}

/// Submits the sweep to a running daemon and returns its report.
#[cfg(unix)]
fn dse_via_daemon(socket: &str, cfg: &cfd_serve::SweepConfig) -> Result<String, String> {
    let outcome = cfd_serve::submit_and_wait(std::path::Path::new(socket), cfg)
        .map_err(|e| format!("dse sweep failed on daemon {socket}: {e}"))?;
    eprintln!("{}", cfd_serve::outcome_line(&outcome));
    Ok(outcome.report)
}

#[cfg(not(unix))]
fn dse_via_daemon(_socket: &str, _cfg: &cfd_serve::SweepConfig) -> Result<String, String> {
    die("--serve requires Unix-domain sockets; run without --serve on this platform")
}

fn run_simperf(args: &[String]) -> Result<(), String> {
    use cfd_bench::simperf;
    let mut scale = Scale::default();
    let (mut min_kips, mut min_kips_hard) = (None, None);
    let (mut with_profile, mut sampled, mut max_err) = (false, false, 10.0);
    let mut f = Flags::new("simperf", args);
    while let Some(a) = f.arg() {
        match a {
            "--scale" => scale.n = f.num(a)? as usize,
            "--profile" => with_profile = true,
            "--min-kips" => min_kips = Some(f.num(a)? as f64),
            "--min-kips-hard" => min_kips_hard = Some(f.num(a)? as f64),
            "--sampled" => sampled = true,
            "--max-err" => max_err = f.num(a)? as f64,
            other => return Err(f.unknown(other)),
        }
    }
    let t0 = Instant::now();
    if sampled {
        let rows = simperf::run_catalog_sampled(scale, cfd_core::SampleConfig::default());
        print!("{}", simperf::sampled_table(&rows));
        let over = simperf::sampled_over_bound(&rows, max_err);
        for r in &over {
            eprintln!(
                "[simperf] ERROR: {} [{}] sampled IPC {:.4} vs full {:.4} ({:.2}% > {max_err:.0}% bound)",
                r.name,
                r.variant.label(),
                r.ipc_sampled,
                r.ipc_full,
                r.err_percent
            );
        }
        println!(
            "[simperf sampled cross-check completed in {:.1}s: {} workloads]",
            t0.elapsed().as_secs_f64(),
            rows.len()
        );
        if !over.is_empty() {
            std::process::exit(4);
        }
        return Ok(());
    }
    let mut profile = with_profile.then(cfd_core::StageProfile::default);
    let rows = simperf::run_catalog(scale, profile.as_mut());
    print!("{}", simperf::table(&rows));
    if let Some(p) = &profile {
        print!("{}", simperf::profile_table(p));
    }
    // Warns on stderr for every workload under `floor`; true if any was.
    let below = |floor: f64, level: &str, kind: &str| {
        let slow = simperf::below_floor(&rows, floor);
        for r in &slow {
            eprintln!(
                "[simperf] {level}: {} [{}] simulated at {:.0} KIPS, below the {floor:.0} KIPS {kind} floor",
                r.name,
                r.variant.label(),
                r.kips
            );
        }
        !slow.is_empty()
    };
    if let Some(floor) = min_kips {
        below(floor, "WARNING", "soft");
    }
    let hard_floor_broken = min_kips_hard.is_some_and(|floor| below(floor, "ERROR", "hard"));
    println!("[simperf completed in {:.1}s: {} workloads]", t0.elapsed().as_secs_f64(), rows.len());
    if hard_floor_broken {
        std::process::exit(3);
    }
    Ok(())
}

fn run_ckpt(args: &[String]) -> Result<(), String> {
    use cfd_bench::ckpt;
    let mut scale = Scale::default();
    let mut straight_out = "artifacts/ckpt_straight.json".to_string();
    let mut restored_out = "artifacts/ckpt_restored.json".to_string();
    let mut f = Flags::new("ckpt", args);
    while let Some(a) = f.arg() {
        match a {
            "--scale" => scale.n = f.num(a)? as usize,
            "--straight-out" => straight_out = f.value(a)?,
            "--restored-out" => restored_out = f.value(a)?,
            other => return Err(f.unknown(other)),
        }
    }
    let t0 = Instant::now();
    let rows = ckpt::run_catalog_ckpt(scale);
    print!("{}", ckpt::table(&rows));
    write_file(&straight_out, &ckpt::straight_lines(&rows))?;
    write_file(&restored_out, &ckpt::restored_lines(&rows))?;
    println!("report lines written to {straight_out} and {restored_out}");
    println!("[ckpt completed in {:.1}s: {} workloads]", t0.elapsed().as_secs_f64(), rows.len());
    for r in rows.iter().filter(|r| !r.ok()) {
        eprintln!(
            "[ckpt] ERROR: {} [{}] restored run diverged from straight run at cycle(s) {:?}",
            r.name,
            r.variant.label(),
            r.mismatched_at
        );
    }
    if rows.iter().any(|r| !r.ok()) {
        std::process::exit(2);
    }
    Ok(())
}

fn run_lint(engine: &Engine, global: &Global, args: &[String]) -> Result<(), String> {
    use cfd_bench::lint;
    let json = json_flag("lint", args)?;
    let t0 = Instant::now();
    let rows = lint::lint_all_on(engine);
    print!("{}", lint::table(&rows));
    emit_json(json.as_deref(), "lint table", || lint::to_json(&rows))?;
    let errors = lint::error_count(&rows);
    println!(
        "[lint completed in {:.1}s: {} programs, {} error finding(s)]",
        t0.elapsed().as_secs_f64(),
        rows.len(),
        errors
    );
    global.finish(engine)?;
    if errors > 0 {
        std::process::exit(2);
    }
    Ok(())
}

fn run_separability(args: &[String]) -> Result<(), String> {
    use cfd_bench::separability;
    let json = json_flag("separability", args)?;
    let t0 = Instant::now();
    let rows = separability::run_separability(Scale { n: 400, seed: 9 });
    print!("{}", separability::table(&rows));
    emit_json(json.as_deref(), "separability table", || separability::to_json(&rows))?;
    let ok = separability::gate_ok(&rows);
    println!(
        "[separability completed in {:.1}s: {} branches, gates {}]",
        t0.elapsed().as_secs_f64(),
        rows.len(),
        if ok { "pass" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(2);
    }
    Ok(())
}

fn run_chaos(args: &[String]) -> Result<(), String> {
    let mut cfg = ChaosConfig::default();
    let mut json = None;
    let mut f = Flags::new("chaos", args);
    while let Some(a) = f.arg() {
        match a {
            "--seed" => cfg.seed = f.num(a)?,
            "--scale" => cfg.scale_n = f.num(a)? as usize,
            "--json" => json = Some(f.value(a)?),
            other => return Err(f.unknown(other)),
        }
    }
    let t0 = Instant::now();
    println!("exec chaos sweep: seed {:#x}, scale {}, cache root {}", cfg.seed, cfg.scale_n, cfg.cache_root.display());
    let report = run_exec_chaos(&cfg);
    println!("{}", report.table());
    emit_json(json.as_deref(), "verdict table", || report.to_json())?;
    let silent = report.silent_divergences();
    println!(
        "[chaos completed in {:.1}s: {} scenarios, {} contract violations]",
        t0.elapsed().as_secs_f64(),
        report.outcomes.len(),
        silent
    );
    if silent > 0 {
        std::process::exit(2);
    }
    Ok(())
}

fn run_fault_campaign(engine: &Engine, global: &Global, args: &[String]) -> Result<(), String> {
    let mut cfg = CampaignConfig::default();
    let mut json = None;
    let mut f = Flags::new("campaign", args);
    while let Some(a) = f.arg() {
        match a {
            "--seed" => cfg.seed = f.num(a)?,
            "--trials" => cfg.trials_per_pair = f.num(a)? as usize,
            "--scale" => cfg.scale_n = f.num(a)? as usize,
            "--smoke" => cfg.scale_n = 40,
            "--json" => json = Some(f.value(a)?),
            other => return Err(f.unknown(other)),
        }
    }
    let t0 = Instant::now();
    println!(
        "fault campaign: seed {:#x}, {} workloads x {} fault classes, {} trial(s)/pair, scale {}",
        cfg.seed,
        cfg.workloads.len(),
        cfg.faults.len(),
        cfg.trials_per_pair,
        cfg.scale_n
    );
    let report = run_campaign_on(engine, &cfg);
    println!("{}", report.table());
    emit_json(json.as_deref(), "verdict table", || report.to_json())?;
    let silent = report.silent_divergences();
    println!(
        "[faults completed in {:.1}s: {} trials, {} contract violations]",
        t0.elapsed().as_secs_f64(),
        report.outcomes.len(),
        silent
    );
    global.finish(engine)?;
    if silent > 0 {
        std::process::exit(2);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global(line: &str) -> Result<Global, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_global(ExecConfig::default(), &args)
    }

    #[test]
    fn global_flags_leave_the_command_in_order() {
        let g = global("--jobs 2 lint --no-cache --json x").unwrap();
        assert_eq!(g.cfg.jobs, 2);
        assert!(!g.cfg.use_cache);
        assert_eq!(g.command, ["lint", "--json", "x"]);
        let g = global("faults --retries 2 --timeout-cycles 0x100 --resume --quiet").unwrap();
        assert_eq!(g.cfg.policy, RetryPolicy::bounded(2, 256));
        assert!(g.cfg.resume && g.quiet);
        assert_eq!(g.command, ["faults"]);
    }

    #[test]
    fn observe_keeps_its_own_trace_out() {
        let g = global("observe w --trace-out p").unwrap();
        assert_eq!(g.trace_out, None);
        assert_eq!(g.command, ["observe", "w", "--trace-out", "p"]);
        let g = global("dse --trace-out p --preset tiny").unwrap();
        assert_eq!(g.trace_out.as_deref(), Some("p"));
        assert_eq!(g.command, ["dse", "--preset", "tiny"]);
    }

    #[test]
    fn jobs_parse_hex_and_reject_zero() {
        assert_eq!(global("--jobs 0x10 all").unwrap().cfg.jobs, 16);
        assert!(global("--jobs 0 all").is_err());
        assert!(global("--jobs two all").is_err());
        assert!(global("all --jobs").is_err());
    }
}
