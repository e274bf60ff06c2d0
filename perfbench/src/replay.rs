//! The `cfd-exec` side: a timing job wrapper, engines over a scratch
//! cache, and the warm-cache replay every workload measures.

use crate::measure::{ns_since, Clocked, Ctx};
use cfd_exec::{CampaignJob, CancelToken, DiskCache, Engine, ExecConfig, Fingerprint, Json};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// When each job of a batch executed: `(start, end)` per submission index.
pub type ExecLog = Mutex<Vec<Option<(Instant, Instant)>>>;

/// Delegates to `inner` and records when `execute` ran, so the benchmark
/// sees per-job execute time without changing the engine. Kind,
/// fingerprint and codec are the inner job's, so the wrapper shares its
/// cache entries.
pub struct Timed<'a, J> {
    /// The wrapped job.
    pub inner: &'a J,
    /// Submission index.
    pub index: usize,
    /// Shared execute log.
    pub log: &'a ExecLog,
}

/// Wraps each of `jobs`, logging into `log` (resized to fit).
pub fn timed<'a, J>(jobs: &'a [J], log: &'a ExecLog) -> Vec<Timed<'a, J>> {
    *log.lock().expect("execute log poisoned") = vec![None; jobs.len()];
    jobs.iter().enumerate().map(|(index, inner)| Timed { inner, index, log }).collect()
}

impl<J: CampaignJob> CampaignJob for Timed<'_, J> {
    type Output = J::Output;

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn fingerprint(&self) -> Fingerprint {
        self.inner.fingerprint()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn execute(&self) -> J::Output {
        self.execute_cancellable(&CancelToken::new())
    }

    fn execute_cancellable(&self, cancel: &CancelToken) -> J::Output {
        let start = Instant::now();
        let out = self.inner.execute_cancellable(cancel);
        let end = Instant::now();
        self.log.lock().expect("execute log poisoned")[self.index] = Some((start, end));
        out
    }

    fn result_to_json(out: &J::Output) -> String {
        J::result_to_json(out)
    }

    fn result_from_json(&self, v: &Json) -> Option<J::Output> {
        self.inner.result_from_json(v)
    }
}

/// An engine with the result cache and journal on, rooted at `dir`.
pub fn engine(dir: &Path, jobs: usize) -> Engine {
    Engine::new(ExecConfig {
        jobs,
        use_cache: true,
        cache_dir: dir.to_path_buf(),
        journal: true,
        ..ExecConfig::default()
    })
}

/// Stores `results[i]` as the cached result of `jobs[i]` in `dir`.
///
/// # Errors
///
/// When a store fails.
pub fn store<J: CampaignJob>(dir: &Path, jobs: &[J], results: &[String]) -> Result<(), String> {
    let cache = DiskCache::new(dir);
    for (job, json) in jobs.iter().zip(results) {
        cache.store(job.kind(), job.fingerprint(), &job.describe(), json).map_err(|e| format!("cache store: {e}"))?;
    }
    Ok(())
}

/// Serves `jobs` from the warm cache in `dir`, each time with a fresh
/// engine, until `plan.replay_min_s` seconds of replay were measured (at
/// least once). Every replayed result must equal `expected` byte for byte
/// and come from the cache. Returns the items served and the time spent.
pub fn replay<J: CampaignJob>(ctx: &mut Ctx, dir: &Path, jobs: &[J], expected: &[String]) -> (u64, Clocked) {
    let (mut points, mut time) = (0u64, Clocked::default());
    loop {
        let engine = engine(dir, ctx.plan.jobs);
        let t0 = Instant::now();
        let results = ctx.tr.span("exec.replay", |_| engine.run_all(jobs));
        let ns = ns_since(t0);
        time.add(ns, ctx.host.sample());
        points += jobs.len() as u64;
        let executed = engine.stats().executed;
        ctx.checks.check(executed == 0, || format!("replay executed {executed} jobs instead of reading the cache"));
        for ((job, got), want) in jobs.iter().zip(&results).zip(expected) {
            let same = matches!(got, Ok(out) if J::result_to_json(out) == *want);
            ctx.checks.check(same, || format!("{}: replayed result differs from the executed one", job.describe()));
        }
        if time.host_ns as f64 >= ctx.plan.replay_min_s * 1e9 {
            return (points, time);
        }
    }
}
