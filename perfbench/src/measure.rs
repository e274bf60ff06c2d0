//! The measurement loop and what it accumulates: output checks, the
//! simulated-statistics digest, passes and the rates taken from them.

use crate::plan::Plan;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Hard cap on one measurement loop, so a run ends well within the time
/// a benchmark run is allowed even when passes are slow.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// Output checks: every operation counts once, failed or not.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// FNV-1a over 64-bit words: folds simulated statistics into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in `words`.
    pub fn fold(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Time spent on some work, on the host clock and in reference time
/// (see [`HostProbe`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Clocked {
    /// Host nanoseconds.
    pub host_ns: u64,
    /// Reference nanoseconds.
    pub ref_ns: f64,
}

impl Clocked {
    /// Adds `host_ns` measured while the host ran at `factor` reference
    /// ns per host ns.
    pub fn add(&mut self, host_ns: u64, factor: f64) {
        self.host_ns += host_ns;
        self.ref_ns += host_ns as f64 * factor;
    }

    /// Nanoseconds on the chosen clock.
    pub fn ns(&self, reference: bool) -> f64 {
        if reference {
            self.ref_ns
        } else {
            self.host_ns as f64
        }
    }
}

/// One measured pass over a workload's inputs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// Time on the workload's primary path (probe samples excluded).
    pub time: Clocked,
    /// Work items completed on the primary path.
    pub points: u64,
    /// Instructions simulated or profiled on the primary path.
    pub instructions: u64,
    /// Per kernel: instructions and the time spent on them.
    pub per_kernel: BTreeMap<&'static str, (u64, Clocked)>,
    /// Items served from the warm cache.
    pub replay_points: u64,
    /// Time spent serving them.
    pub replay: Clocked,
    /// Simulated-statistics digest of the pass.
    pub digest: u64,
}

impl Pass {
    /// Adds one completed item of `kernel` to the pass totals.
    pub fn item(&mut self, kernel: &'static str, instructions: u64, host_ns: u64, factor: f64) {
        let e = self.per_kernel.entry(kernel).or_default();
        e.0 += instructions;
        e.1.add(host_ns, factor);
        self.time.add(host_ns, factor);
        self.instructions += instructions;
        self.points += 1;
    }
}

/// Rounds of the host-speed probe per sample.
const PROBE_ROUNDS: u64 = 400_000;
/// Nominal host time of one probe sample, in ns, close to its time on the
/// 2.1 GHz Xeon vCPU the plan was tuned on. It only sets the scale of
/// reference time, which is compared between commits, never with a host.
pub const PROBE_REF_NS: f64 = 4.5e6;
/// Entries of the probe's table: 4 MiB, larger than a private L2 cache,
/// so the probe also feels contention for the shared cache.
const PROBE_TABLE: usize = 1 << 20;

/// A fixed amount of branchy integer work over `table`, with small
/// ordered-map allocations: the kinds of work the simulator does.
/// Returns the ns it took.
fn probe_ns(table: &mut [u32], rounds: u64) -> u64 {
    let t0 = Instant::now();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        if x & 0x10 != 0 {
            table[i] = table[i].wrapping_add(x as u32);
        } else {
            acc = acc.wrapping_add(u64::from(table[(i + table[i] as usize) & mask]));
        }
        if x & 0xff == 0 {
            let m: BTreeMap<u64, u64> = (0..16).map(|k| (k ^ x, k)).collect();
            acc ^= m.len() as u64;
        }
    }
    std::hint::black_box(acc);
    ns_since(t0)
}

/// Tracks how fast the host runs right now. Other tenants of a shared
/// machine slow every process on it by tens of percent for seconds at a
/// time. A fixed probe loop, sampled between the measured calls, gives
/// the factor that turns host time into reference time: the time the
/// same work would take while the probe runs at its nominal speed.
#[derive(Debug, Default)]
pub struct HostProbe {
    last_ns: Option<u64>,
    table: Vec<u32>,
}

impl HostProbe {
    /// Takes one sample and returns the reference ns per host ns over the
    /// interval since the previous sample (mean of the two samples).
    pub fn sample(&mut self) -> f64 {
        if self.table.is_empty() {
            self.table = vec![0; PROBE_TABLE];
        }
        let ns = probe_ns(&mut self.table, PROBE_ROUNDS);
        let mean = (ns + self.last_ns.unwrap_or(ns)) as f64 / 2.0;
        self.last_ns = Some(ns);
        PROBE_REF_NS / mean.max(1.0)
    }
}

/// Elapsed nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-run state shared by the workloads.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The command-line seed.
    pub seed: u64,
    /// Seconds the measurement loop runs.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Sizes and repeat counts.
    pub plan: &'a Plan,
    /// Span recorder (enabled only in traced passes and set-up).
    pub tr: Tracer,
    /// Output checks.
    pub checks: Checks,
    /// Host-speed samples.
    pub host: HostProbe,
    work: PathBuf,
    dirs: usize,
}

impl<'a> Ctx<'a> {
    /// A context whose scratch directories live under `work`.
    pub fn new(seed: u64, seconds: f64, trace: bool, plan: &'a Plan, work: &Path) -> Ctx<'a> {
        Ctx {
            seed,
            seconds,
            trace,
            plan,
            tr: Tracer::new(trace),
            checks: Checks::default(),
            host: HostProbe::default(),
            work: work.to_path_buf(),
            dirs: 0,
        }
    }

    /// A new, empty scratch directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn fresh_dir(&mut self, tag: &str) -> Result<PathBuf, String> {
        self.dirs += 1;
        let dir = self.work.join(format!("{tag}-{}", self.dirs));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Builds the inputs `plan.setup_repeats` times and returns the last
    /// build with the median build time in reference seconds.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ctx) -> Result<T, String>) -> Result<(T, f64), String> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..self.plan.setup_repeats.max(1) {
            self.host.sample();
            let t0 = Instant::now();
            let built = build(self)?;
            let ns = ns_since(t0);
            times.push(ns as f64 * self.host.sample() / 1e9);
            last = Some(built);
        }
        Ok((last.expect("at least one set-up"), median(times)))
    }

    /// Runs `pass` until `seconds` have passed and at least `min_passes`
    /// passes were measured. In a traced run the passes alternate between
    /// untraced and traced, and at least `min_passes` of each run.
    ///
    /// # Errors
    ///
    /// Whatever `pass` returns.
    pub fn run_passes(&mut self, mut pass: impl FnMut(&mut Ctx) -> Result<Pass, String>) -> Result<Vec<Pass>, String> {
        let start = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let count = |traced: bool| passes.iter().filter(|p| p.traced == traced).count();
            let has = |n: usize| count(false) >= n && (!self.trace || count(true) >= n);
            let elapsed = start.elapsed();
            if (has(self.plan.min_passes) && elapsed.as_secs_f64() >= self.seconds) || (has(1) && elapsed >= MAX_LOOP) {
                break;
            }
            let traced = self.trace && passes.len() % 2 == 1;
            self.tr.set_enabled(traced);
            self.host.sample();
            let mut measured = pass(self)?;
            measured.traced = traced;
            passes.push(measured);
        }
        self.tr.set_enabled(self.trace);
        Ok(passes)
    }
}

/// The end-to-end throughput figures of a set of passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Fastest pass's kinstr per second.
    pub kips: f64,
    /// Slowest kernel's kinstr per second, each kernel at its median pass.
    pub kips_min: f64,
    /// Fastest pass's work items per second.
    pub points_per_s: f64,
    /// Fastest pass's items served from the warm cache per host second.
    pub replay_points_per_s: f64,
    /// Median pass's kinstr per second.
    pub kips_median: f64,
}

/// Rates over `passes`, per reference second when `reference`, else per
/// host second. The replay rate is always per host second: the host probe
/// does not track file-system work.
///
/// Whole-pass rates come from the fastest pass. Interference from other
/// tenants only ever slows a pass, by up to 75% for seconds at a time on
/// the shared host the plan was tuned on, and the probe corrects only part
/// of that, so the fastest pass is the steadiest estimate of the
/// simulator's own speed; the median pass is reported beside it. A single
/// kernel's run is too short for that: its probe correction is noisy in
/// both directions, so `kips_min` takes each kernel's median.
pub fn summarize<'p>(passes: impl IntoIterator<Item = &'p Pass> + Clone, reference: bool) -> Summary {
    let rate_on = |reference: bool, n: u64, t: &Clocked| {
        let ns = t.ns(reference);
        if ns > 0.0 {
            n as f64 * 1e9 / ns
        } else {
            0.0
        }
    };
    let rate = |n: u64, t: &Clocked| rate_on(reference, n, t);
    let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, f64::max);
    let mut kernels: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes.clone() {
        for (&k, (instr, t)) in &p.per_kernel {
            kernels.entry(k).or_default().push(rate(*instr, t) / 1e3);
        }
    }
    let kips = || passes.clone().into_iter().map(|p| rate(p.instructions, &p.time) / 1e3);
    Summary {
        kips: fastest(&mut kips()),
        kips_min: kernels.into_values().map(median).fold(f64::INFINITY, f64::min),
        points_per_s: fastest(&mut passes.clone().into_iter().map(|p| rate(p.points, &p.time))),
        replay_points_per_s: fastest(
            &mut passes.clone().into_iter().map(|p| rate_on(false, p.replay_points, &p.replay)),
        ),
        kips_median: median(kips()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn digest_depends_on_order() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.fold(&[1, 2]);
        b.fold(&[2, 1]);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn rates_take_the_fastest_pass_and_each_kernels_median() {
        let pass = |host_ns: u64, factor: f64| {
            let mut p = Pass::default();
            p.item("k", 1000, host_ns, factor);
            p
        };
        let mut passes = vec![pass(1_000_000, 1.0), pass(2_000_000, 1.0), pass(4_000_000, 0.125)];
        passes[0].replay_points = 10;
        passes[0].replay.add(1_000_000, 0.1);
        let r = summarize(&passes, true);
        assert_eq!((r.kips, r.kips_median, r.kips_min), (2000.0, 1000.0, 1000.0));
        assert_eq!((r.points_per_s, r.replay_points_per_s), (2000.0, 10_000.0));
        let h = summarize(&passes, false);
        assert_eq!((h.kips, h.kips_median, h.kips_min), (1000.0, 500.0, 500.0));
    }

    #[test]
    fn checks_count_every_operation() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed, c.failures.len()), (2, 1, 1));
    }
}
