//! The campaign daemon: a Unix-domain-socket server multiplexing any
//! number of clients onto one `cfd-exec` engine over one artifact store.
//!
//! Architecture (one process, three thread roles):
//!
//! * the **accept loop** (caller's thread) owns a nonblocking
//!   `UnixListener`, spawning one handler thread per connection and
//!   polling a shutdown flag between accepts;
//! * **connection handlers** speak the frame protocol ([`crate::proto`]),
//!   translating requests into operations on the shared sweep table —
//!   they never execute jobs, so a slow sweep cannot stall `status`
//!   polls or store queries from other clients;
//! * the **executor thread** drains the sweep queue serially on a single
//!   engine configured with `resume: true` and the store root as its
//!   cache directory. Serial execution is what keeps every sweep's
//!   report byte-identical to a standalone serial run — the engine's
//!   determinism contract is per-batch.
//!
//! Crash safety is inherited rather than reinvented: every batch runs
//! journaled (`<store>/journal/<campaign>.wal`) with results made
//! durable in the store *inside the workers*, so a SIGKILL'd daemon
//! loses at most in-flight simulations. Restarting it on the same store
//! and resubmitting the same sweep replays finished jobs from the store
//! byte-identically — the resumed sweep reports `executed=0` when
//! everything had completed.
//!
//! Observability: all daemon stderr goes through one
//! [`EventLog`] (`--log FILE` adds a JSONL sink,
//! `--quiet` means exactly log-level `error`), per-request counters and
//! a sweep-latency histogram accumulate in a daemon-side
//! [`MetricsRegistry`], live sweep progress flows from the engine's
//! [`BatchProgress`] callback into the sweep
//! table where `status` polls read it, and the `metrics`/`health`
//! requests expose all of it over the socket.

use crate::dse::run_sweep;
use crate::proto::{read_frame, write_frame, HealthInfo, Request, Response, SweepCounters, SweepProgress};
use crate::store::{ArtifactStore, STORE_VERSION};
use crate::sweep::SweepConfig;
use cfd_exec::{BatchProgress, Engine, ExecConfig};
use cfd_obs::{EventLog, Level, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on (created; a stale file from
    /// a dead daemon is replaced).
    pub socket: PathBuf,
    /// Artifact-store root (created/validated via [`ArtifactStore`]).
    pub store: PathBuf,
    /// Worker threads for the executor's engine.
    pub jobs: usize,
    /// Stderr severity floor (`--quiet` maps to [`Level::Error`]).
    pub log_level: Level,
    /// Optional JSONL event-log file (`--log FILE`).
    pub log_file: Option<PathBuf>,
}

impl DaemonConfig {
    /// A config with the given socket/store/jobs and stderr logging at
    /// `error` only — what tests and embedders that predate the logger
    /// want.
    pub fn quiet(socket: PathBuf, store: PathBuf, jobs: usize) -> DaemonConfig {
        DaemonConfig { socket, store, jobs, log_level: Level::Error, log_file: None }
    }
}

/// A sweep's lifecycle in the daemon.
enum SweepState {
    Queued,
    Running,
    Done { report: String, counters: SweepCounters },
    Failed { error: String },
}

impl SweepState {
    fn word(&self) -> &'static str {
        match self {
            SweepState::Queued => "queued",
            SweepState::Running => "running",
            SweepState::Done { .. } => "done",
            SweepState::Failed { .. } => "failed",
        }
    }
}

struct SweepEntry {
    config: SweepConfig,
    points: u64,
    state: SweepState,
    /// Live progress cell, written by the engine's progress callback
    /// from worker threads and read by `status` handlers. A separate
    /// `Arc` (not the sweep table itself) so the callback holds no lock
    /// the handlers contend on.
    progress: Arc<Mutex<BatchProgress>>,
}

/// State shared between the accept loop, handlers, and the executor.
struct Shared {
    sweeps: Mutex<BTreeMap<String, SweepEntry>>,
    queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    shutdown: AtomicBool,
    store: ArtifactStore,
    engine: Engine,
    log: Arc<EventLog>,
    metrics: Mutex<MetricsRegistry>,
    executor_alive: AtomicBool,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the executor so it can observe the flag.
        let _q = self.queue.lock().expect("queue lock poisoned");
        self.wake.notify_all();
    }

    fn count(&self, name: &'static str) {
        self.metrics.lock().expect("metrics lock poisoned").counter_add(name, 1);
    }
}

/// Runs the daemon until a client sends `shutdown`. Returns after the
/// executor drained its current sweep, all handler threads exited, and
/// the socket file was removed.
pub fn serve(cfg: DaemonConfig) -> Result<(), String> {
    let store = ArtifactStore::open(&cfg.store)?;
    let mut log = EventLog::new(cfg.log_level).with_stderr();
    if let Some(path) = &cfg.log_file {
        log = log.with_file(path)?;
    }
    let exec_cfg = ExecConfig {
        jobs: cfg.jobs.max(1),
        use_cache: true,
        cache_dir: cfg.store.clone(),
        resume: true,
        journal: true,
        ..ExecConfig::default()
    };
    let log = Arc::new(log);
    let engine = Engine::new(exec_cfg);
    // The engine shares the daemon's log, so batch lifecycle events
    // (`batch_start`/`retry_wave`/`batch_done`) land in the same JSONL
    // stream as the daemon's own sweep events.
    engine.set_log(Some(Arc::clone(&log)));
    let shared = Arc::new(Shared {
        sweeps: Mutex::new(BTreeMap::new()),
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        store,
        engine,
        log,
        metrics: Mutex::new(MetricsRegistry::default()),
        executor_alive: AtomicBool::new(true),
    });

    // A stale socket file (dead daemon, SIGKILL) would make bind fail;
    // connect distinguishes stale from live so two daemons never share.
    if cfg.socket.exists() {
        if UnixStream::connect(&cfg.socket).is_ok() {
            return Err(format!("a daemon is already listening on {}", cfg.socket.display()));
        }
        let _ = std::fs::remove_file(&cfg.socket);
    }
    let listener = UnixListener::bind(&cfg.socket).map_err(|e| format!("cannot bind {}: {e}", cfg.socket.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("cannot set nonblocking: {e}"))?;
    shared.log.info(
        "cfd-serve",
        "listening",
        &[
            ("socket", cfg.socket.display().to_string().into()),
            ("store", cfg.store.display().to_string().into()),
            ("jobs", (cfg.jobs as u64).into()),
        ],
    );

    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            executor_loop(&shared);
            // Runs on clean drain only; a panic leaves the flag true and
            // the join below surfaces it.
            shared.executor_alive.store(false, Ordering::SeqCst);
        })
    };

    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(&shared);
                shared.count("daemon.connections");
                handlers.push(std::thread::spawn(move || handle_connection(&shared, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                shared.log.error("cfd-serve", "accept_failed", &[("error", format!("{e}").into())]);
                shared.request_shutdown();
            }
        }
        handlers.retain(|h| !h.is_finished());
    }

    for h in handlers {
        let _ = h.join();
    }
    let executor_ok = executor.join().is_ok();
    if !executor_ok {
        shared.log.error("cfd-serve", "executor_panicked", &[]);
    }
    let _ = std::fs::remove_file(&cfg.socket);
    shared.log.info("cfd-serve", "stopped", &[]);
    Ok(())
}

/// The executor: pops sweep ids and runs them serially on one engine.
fn executor_loop(shared: &Shared) {
    let engine = &shared.engine;
    loop {
        let id = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(id) = q.pop_front() {
                    break id;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.wake.wait(q).expect("queue lock poisoned");
            }
        };
        let config = {
            let mut sweeps = shared.sweeps.lock().expect("sweep table poisoned");
            let Some(entry) = sweeps.get_mut(&id) else { continue };
            entry.state = SweepState::Running;
            // Thread this sweep's progress cell into the engine; workers
            // write it as slots finalize, status polls read it live.
            let cell = Arc::clone(&entry.progress);
            engine.set_progress(Some(Arc::new(move |p: BatchProgress| {
                *cell.lock().expect("progress cell poisoned") = p;
            })));
            entry.config.clone()
        };
        shared.log.event(Level::Debug, "cfd-serve", "sweep_start", &[("sweep", id.clone().into())]);
        let before = engine.stats();
        let started = Instant::now();
        let outcome = run_sweep(engine, &config);
        let after = engine.stats();
        engine.set_progress(None);
        {
            let mut m = shared.metrics.lock().expect("metrics lock poisoned");
            m.histogram_record("daemon.sweep_latency_ms", started.elapsed().as_millis() as u64);
        }
        let mut sweeps = shared.sweeps.lock().expect("sweep table poisoned");
        let Some(entry) = sweeps.get_mut(&id) else { continue };
        entry.state = match outcome {
            Ok(report) => {
                let counters = SweepCounters {
                    points: entry.points,
                    executed: after.executed - before.executed,
                    cache_hits: after.cache_hits - before.cache_hits,
                    failed: after.failed - before.failed,
                };
                shared.log.info(
                    "cfd-serve",
                    "sweep_done",
                    &[
                        ("sweep", id.clone().into()),
                        ("points", counters.points.into()),
                        ("executed", counters.executed.into()),
                        ("cache_hits", counters.cache_hits.into()),
                        ("failed", counters.failed.into()),
                    ],
                );
                SweepState::Done { report, counters }
            }
            Err(error) => {
                shared.log.warn(
                    "cfd-serve",
                    "sweep_failed",
                    &[("sweep", id.clone().into()), ("error", error.clone().into())],
                );
                SweepState::Failed { error }
            }
        };
        drop(sweeps);
        // Keep the advisory index fresh for operators tailing the store.
        let _ = shared.store.write_index();
    }
}

/// One connection: frames in, frames out, until EOF or shutdown.
fn handle_connection(shared: &Shared, stream: UnixStream) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let (response, shutdown) = dispatch(shared, &frame);
        let payload = response.to_json();
        {
            let mut m = shared.metrics.lock().expect("metrics lock poisoned");
            m.counter_add("daemon.frame_bytes_in", frame.len() as u64);
            m.counter_add("daemon.frame_bytes_out", payload.len() as u64);
        }
        if write_frame(&mut writer, &payload).is_err() {
            return;
        }
        if shutdown {
            shared.request_shutdown();
            return;
        }
    }
}

/// The counter name for one request kind (static so the registry can
/// hold it without allocation).
fn request_counter(r: &Request) -> &'static str {
    match r {
        Request::SubmitSweep(_) => "daemon.requests.submit_sweep",
        Request::Status { .. } => "daemon.requests.status",
        Request::Results { .. } => "daemon.requests.results",
        Request::StoreStats => "daemon.requests.store_stats",
        Request::Metrics => "daemon.requests.metrics",
        Request::Health => "daemon.requests.health",
        Request::Gc => "daemon.requests.gc",
        Request::Shutdown => "daemon.requests.shutdown",
    }
}

/// Parses one frame and serves it. Returns the response and whether the
/// daemon should shut down after sending it.
fn dispatch(shared: &Shared, frame: &str) -> (Response, bool) {
    let parsed = match cfd_exec::Json::parse(frame) {
        Ok(v) => v,
        Err(e) => {
            shared.count("daemon.requests.malformed");
            return (Response::Error { error: format!("unparseable frame: {e}") }, false);
        }
    };
    let Some(request) = Request::from_json(&parsed) else {
        shared.count("daemon.requests.malformed");
        return (Response::Error { error: "unknown request".to_string() }, false);
    };
    {
        let mut m = shared.metrics.lock().expect("metrics lock poisoned");
        m.counter_add("daemon.requests", 1);
        m.counter_add(request_counter(&request), 1);
    }
    match request {
        Request::SubmitSweep(config) => (submit(shared, config), false),
        Request::Status { sweep_id } => {
            let sweeps = shared.sweeps.lock().expect("sweep table poisoned");
            match sweeps.get(&sweep_id) {
                Some(e) => {
                    let p = *e.progress.lock().expect("progress cell poisoned");
                    let progress =
                        SweepProgress { done: p.done, executed: p.executed, cache_hits: p.cache_hits, wave: p.wave };
                    (
                        Response::Status { sweep_id, state: e.state.word().to_string(), points: e.points, progress },
                        false,
                    )
                }
                None => (Response::Error { error: format!("unknown sweep {sweep_id}") }, false),
            }
        }
        Request::Results { sweep_id } => {
            let sweeps = shared.sweeps.lock().expect("sweep table poisoned");
            match sweeps.get(&sweep_id) {
                Some(SweepEntry { state: SweepState::Done { report, counters }, .. }) => {
                    (Response::Results { sweep_id, report: report.clone(), counters: *counters }, false)
                }
                Some(SweepEntry { state: SweepState::Failed { error }, .. }) => {
                    (Response::Error { error: error.clone() }, false)
                }
                Some(e) => (Response::Error { error: format!("sweep {sweep_id} is {}", e.state.word()) }, false),
                None => (Response::Error { error: format!("unknown sweep {sweep_id}") }, false),
            }
        }
        Request::StoreStats => (Response::StoreStats { text: shared.store.stats().render() }, false),
        Request::Metrics => {
            // Daemon counters first, then the engine registry, then store
            // usage: one text answer with everything an operator scrapes.
            let mut text = shared.metrics.lock().expect("metrics lock poisoned").render();
            text.push_str(&shared.engine.metrics());
            text.push_str(&shared.store.stats().render());
            (Response::Metrics { text }, false)
        }
        Request::Health => (Response::Health(health(shared)), false),
        Request::Gc => {
            let (removed, freed) = shared.store.gc_quarantine();
            (Response::Gc { removed, freed }, false)
        }
        Request::Shutdown => (Response::ShuttingDown, true),
    }
}

/// Assembles the health summary from live daemon state.
fn health(shared: &Shared) -> HealthInfo {
    let (sweeps_done, sweeps_failed, running) = {
        let sweeps = shared.sweeps.lock().expect("sweep table poisoned");
        let mut done = 0u64;
        let mut failed = 0u64;
        let mut running = String::new();
        for (id, e) in sweeps.iter() {
            match e.state {
                SweepState::Done { .. } => done += 1,
                SweepState::Failed { .. } => failed += 1,
                SweepState::Running => running = id.clone(),
                SweepState::Queued => {}
            }
        }
        (done, failed, running)
    };
    let queued = shared.queue.lock().expect("queue lock poisoned").len() as u64;
    let journals = std::fs::read_dir(shared.store.root().join("journal"))
        .map(|dir| dir.filter_map(Result::ok).filter(|e| e.path().extension().is_some_and(|x| x == "wal")).count())
        .unwrap_or(0) as u64;
    HealthInfo {
        requests: shared.metrics.lock().expect("metrics lock poisoned").counter("daemon.requests"),
        sweeps_done,
        sweeps_failed,
        queued,
        running,
        store_version: STORE_VERSION,
        journals,
        executor_alive: shared.executor_alive.load(Ordering::SeqCst),
    }
}

/// Validates, identifies, and queues a sweep. Submissions are
/// idempotent: the sweep id is the campaign fingerprint of the expanded
/// job list, so two clients submitting the same grid share one entry
/// (and one execution).
fn submit(shared: &Shared, config: SweepConfig) -> Response {
    let points = match config.expand() {
        Ok(points) => points,
        Err(e) => return Response::Error { error: e },
    };
    let fps: Vec<_> = points.iter().map(|p| cfd_exec::CampaignJob::fingerprint(&p.job)).collect();
    let sweep_id = cfd_exec::campaign_fingerprint(&fps).hex();
    let n = points.len() as u64;
    let mut sweeps = shared.sweeps.lock().expect("sweep table poisoned");
    if !sweeps.contains_key(&sweep_id) {
        sweeps.insert(
            sweep_id.clone(),
            SweepEntry {
                config,
                points: n,
                state: SweepState::Queued,
                progress: Arc::new(Mutex::new(BatchProgress { total: n, ..BatchProgress::default() })),
            },
        );
        let mut q = shared.queue.lock().expect("queue lock poisoned");
        q.push_back(sweep_id.clone());
        shared.wake.notify_all();
    }
    Response::Submitted { sweep_id, points: n }
}
